//! E3 (Fig. 4): the watchdog + alpha-count scenario.  A permanent design
//! fault is repeatedly injected in the watched task; the watchdog fires,
//! the alpha-count rises past the threshold (3.0), and the fault is
//! labeled "permanent or intermittent".
//!
//! Flags: `--rounds N` (default 15), `--period N` (default 10),
//! `--onset N` (fault onset tick, default 45).  Any other flag, or one
//! given twice, exits 2.

use afta_ftpatterns::fig4_scenario_observed;
use afta_sim::{Flags, Tick};
use afta_telemetry::Registry;

fn main() {
    let flags = Flags::from_env(&["--rounds N", "--period N", "--onset N"]);
    let rounds = flags.num::<u64>("--rounds", 15);
    let period = flags.num::<u64>("--period", 10);
    let onset = flags.num::<u64>("--onset", 45);

    println!("watchdog period {period}, permanent fault injected at t={onset}, threshold 3.0\n");
    println!(
        "{:>6} {:>6} {:>6} {:>6} {:>8}  verdict",
        "round", "tick", "alive", "fired", "alpha"
    );
    let telemetry = Registry::new();
    let trace = fig4_scenario_observed(rounds, period, Tick(onset), &telemetry);
    for row in &trace.rows {
        println!(
            "{:>6} {:>6} {:>6} {:>6} {:>8.3}  {}",
            row.round,
            row.tick.0,
            if row.task_alive { "yes" } else { "no" },
            if row.fired { "FIRE" } else { "-" },
            row.alpha,
            row.verdict
        );
    }
    match trace.labeled_permanent_at {
        Some(r) => println!(
            "\nalpha overcame threshold 3.0 at round {r}: fault labeled \
             \"permanent or intermittent\" (paper Fig. 4)"
        ),
        None => println!("\nthe alpha-count never crossed the threshold"),
    }

    let report = telemetry.report();
    println!(
        "\ntelemetry: checks {} | firings {} | heartbeat misses (journal) {} | verdict flips {}",
        report.counter("watchdog.checks"),
        report.counter("watchdog.firings"),
        report.journal_of_kind("heartbeat-miss").count(),
        report.counter("alphacount.flips"),
    );
}
