//! E2 (§3.1): the method-selection table.  For each design-time
//! hypothesis `f0..f4` the Autoconf-like configuration step selects the
//! minimum-cost tolerant access method — and a workload on the simulated
//! hardware verifies the selection (silently-wrong reads under the naive
//! M0 versus the selected method).
//!
//! Flags: `--passes N` (workload read passes, default 20).  Any other
//! flag, or one given twice, exits 2.

use afta_memaccess::{
    configure, run_workload, FailureKnowledgeBase, FailureRecord, MethodKind, WorkloadConfig,
};
use afta_memsim::{BehaviorClass, FaultRates, MemoryTechnology, Severity, Spd};
use afta_sim::Flags;

fn workload_errors(kind: MethodKind, rates: FaultRates, passes: u64, seed: u64) -> (u64, u64) {
    let mut m = kind.instantiate(2048, rates, seed);
    let report = run_workload(
        m.as_mut(),
        &WorkloadConfig {
            slots: 256,
            operations: passes * 256,
            write_percent: 10,
            seed,
        },
    );
    (report.wrong_reads, report.lost_accesses)
}

fn main() {
    let passes = Flags::from_env(&["--passes N"]).num::<u64>("--passes", 20);
    let mut kb = FailureKnowledgeBase::new();
    for class in BehaviorClass::ALL {
        kb.insert_model(
            format!("SIM/{}", class.label()),
            FailureRecord::new(class, Severity::Nominal),
        );
    }

    println!(
        "{:<4} {:<10} {:<28} {:>6}  {:>14}  {:>14}",
        "f", "selected", "tolerant methods (by cost)", "cost", "M0 wrong/lost", "Mj wrong/lost"
    );
    for (i, class) in BehaviorClass::ALL.into_iter().enumerate() {
        let spd = Spd {
            vendor: "SIM".into(),
            model: class.label().into(),
            serial: "0".into(),
            lot: format!("L{i}"),
            size_mib: 256,
            clock_mhz: 533,
            width_bits: 64,
            technology: MemoryTechnology::Sdram,
        };
        let report = configure(&spd, &kb).expect("kb covers every class");
        // Exercise the selection on a *bad lot* (Harsh = one order of
        // magnitude above nominal) so the short demo workload makes the
        // failure modes visible.
        let rates = FaultRates::for_class(class, Severity::Harsh);
        let (w0, l0) = workload_errors(MethodKind::M0, rates, passes, 100 + i as u64);
        let (wj, lj) = workload_errors(report.method, rates, passes, 100 + i as u64);
        println!(
            "{:<4} {:<10} {:<28} {:>6.1}  {:>8}/{:<5}  {:>8}/{:<5}",
            class.label(),
            report.method.label(),
            report.tolerant_methods.join(" "),
            report.cost,
            w0,
            l0,
            wj,
            lj
        );
    }
    println!(
        "\nSelection rule (§3.1): isolate methods tolerating f, order by cost, take the minimum."
    );
}
