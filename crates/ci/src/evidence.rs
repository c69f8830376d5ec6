//! Evidence signals: every pinned number, recomputed from scratch.
//!
//! Each signal is a named scalar derived from a *seeded, deterministic*
//! experiment — the same runs EXPERIMENTS.md reports — so `afta-ci
//! check` never compares against stale caches, it re-measures:
//!
//! * `e1_*` — the Fig. 2 `lshw` render, digested (FNV-1a 64).
//! * `e2_*` — the fault→method selection ladder on the Dell banks.
//! * `e3_*` — the Fig. 4 alpha-count watchdog labeling round.
//! * `e4_*` — exact `dtof` cells from Fig. 5.
//! * `e6_*` — the 24 000-step, 6-shard stormy campaign (seed 42),
//!   cell-identical to `tests/experiments_pinned.rs`.
//! * `e7_*`/`e8_*`/`e9_*` — the strategy-vs-environment clash table.
//! * `e7net_*` — the distributed voting campaign over the sim transport.
//! * `lint_*` — `afta-lint` re-run over the committed example manifests:
//!   the rule-table size, findings per manifest, and a total per
//!   whole-program dataflow rule (`AFTA-D*`).
//! * `bench_*` — machine-independent signals (speedup ratios, allocs
//!   per op) read from a committed `BENCH_*.json` snapshot.
//!
//! The expensive signals (E6's campaign, E7's net rounds) take on the
//! order of a second; everything else is microseconds.  All of it is a
//! pure function of the seeds, so two `check` runs agree bit for bit.

use afta_campaign::{jobs_from_env, Campaign};
use afta_faultinject::EnvironmentProfile;
use afta_ftpatterns::{fig4_scenario, run_scenario, Environment, ScenarioConfig, Strategy};
use afta_memaccess::{configure, FailureKnowledgeBase};
use afta_memsim::MachineInventory;
use afta_net::{run_net_campaign, NetExperimentConfig, TransportKind};
use afta_serve::{run_serve_experiment, ServeExperimentConfig};
use afta_sim::Tick;
use afta_switchboard::{ExperimentConfig, RedundancyPolicy};
use afta_telemetry::Registry;
use afta_voting::{dtof, dtof_max};
use serde::Value;

use crate::pins::PinValue;

/// One measured signal, comparable against a [`Pin`](crate::pins::Pin).
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// The signal name (matches the pin section name).
    pub name: String,
    /// The measured value.
    pub value: PinValue,
}

impl Signal {
    fn num(name: &str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            value: PinValue::Num(value),
        }
    }

    fn str(name: &str, value: impl Into<String>) -> Self {
        Self {
            name: name.to_string(),
            value: PinValue::Str(value.into()),
        }
    }
}

/// What to compute and from where.
#[derive(Debug, Clone, Default)]
pub struct EvidenceOptions {
    /// The text of a `BENCH_*.json` snapshot, when one exists.  `None`
    /// means first run: `bench_*` signals are omitted and bench pins
    /// are skipped rather than failed.
    pub bench_json: Option<String>,
    /// The committed example-manifest directory, when one exists.
    /// `None` (e.g. running outside the repo checkout) omits the
    /// `lint_*` signals and skips lint pins rather than failing them.
    pub manifest_dir: Option<String>,
}

/// The E6 campaign configuration every evidence run uses — identical to
/// the pinned test in `tests/experiments_pinned.rs`, so the pin file and
/// the test suite can never disagree about what "E6" means.
#[must_use]
pub fn e6_campaign_config() -> ExperimentConfig {
    ExperimentConfig {
        steps: 24_000,
        seed: 42,
        profile: EnvironmentProfile::cyclic_storms(1_500, 300, 0.0002, 0.15),
        policy: RedundancyPolicy::default(),
        trace_stride: 0,
    }
}

/// Shards the E6 evidence campaign runs over.
pub const E6_SHARDS: usize = 6;

/// Shards the E7 net evidence campaign runs over (sim transport).
pub const E7NET_SHARDS: usize = 4;

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
#[must_use]
pub fn fnv1a_64(text: &str) -> String {
    let hash = afta_sim::fnv1a_64(afta_sim::FNV_OFFSET, text.as_bytes());
    format!("{hash:016x}")
}

/// Computes every evidence signal.
///
/// # Errors
///
/// Returns an error when a substrate run fails outright (a campaign
/// shard panics) or the provided bench snapshot does not parse —
/// *measuring* a drifted value is not an error, that is what
/// [`check_pins`](crate::pins::check_pins) reports.
pub fn collect_signals(options: &EvidenceOptions) -> Result<Vec<Signal>, String> {
    let mut signals = Vec::new();

    // E1 — the lshw inventory render, digested.
    let lshw = MachineInventory::dell_inspiron_6000().render_lshw();
    signals.push(Signal::str("e1_lshw_fnv64", fnv1a_64(&lshw)));

    // E2 — every Dell bank configures to the same method.
    let kb = FailureKnowledgeBase::builtin();
    let mut methods: Vec<String> = MachineInventory::dell_inspiron_6000()
        .banks()
        .iter()
        .map(|bank| {
            configure(&bank.spd, &kb)
                .map(|report| format!("{:?}", report.method))
                .map_err(|e| format!("e2 configure failed for bank {}: {e:?}", bank.slot))
        })
        .collect::<Result<_, _>>()?;
    methods.dedup();
    let method = if methods.len() == 1 {
        methods.remove(0)
    } else {
        format!("mixed:{}", methods.join(","))
    };
    signals.push(Signal::str("e2_dell_bank_method", method));

    // E3 — the Fig. 4 watchdog labels the permanent fault.
    let trace = fig4_scenario(15, 10, Tick(45));
    signals.push(Signal::num(
        "e3_label_round",
        trace
            .labeled_permanent_at
            .map_or(-1.0, |round| round as f64),
    ));
    if let Some(round) = trace.labeled_permanent_at {
        let row = &trace.rows[(round - 1) as usize];
        signals.push(Signal::num("e3_alpha_at_label", row.alpha));
    }

    // E4 — Fig. 5 distance-to-failure cells.
    signals.push(Signal::num("e4_dtof_n7_m0", dtof(7, Some(0)) as f64));
    signals.push(Signal::num("e4_dtof_n7_m3", dtof(7, Some(3)) as f64));
    signals.push(Signal::num("e4_dtof_max_n7", dtof_max(7) as f64));

    // E6 — the stormy campaign, cell by cell.
    let (report, telemetry) = Campaign::split(&e6_campaign_config(), E6_SHARDS)
        .jobs(jobs_from_env(2))
        .run_observed()
        .map_err(|e| format!("e6 campaign failed: {e}"))?;
    let stats = &report.stats;
    signals.push(Signal::num(
        "e6_voting_failures",
        stats.voting_failures as f64,
    ));
    signals.push(Signal::num(
        "e6_faults_injected",
        stats.faults_injected as f64,
    ));
    signals.push(Signal::num("e6_raises", stats.raises as f64));
    signals.push(Signal::num("e6_lowers", stats.lowers as f64));
    for r in [3u64, 5, 7, 9] {
        signals.push(Signal::num(
            &format!("e6_hist_r{r}"),
            stats.histogram.count(r) as f64,
        ));
    }
    signals.push(Signal::num(
        "e6_rounds",
        telemetry.counter("voting.rounds") as f64,
    ));

    // E7/E8/E9 — the strategy-vs-environment clash table.
    let config = ScenarioConfig::default();
    let r = run_scenario(
        Strategy::StaticRedoing,
        Environment::PermanentAt(100),
        config,
    );
    signals.push(Signal::num(
        "e7_static_redoing_successes",
        r.successes as f64,
    ));
    signals.push(Signal::num("e7_static_redoing_retries", r.retries as f64));
    let r = run_scenario(
        Strategy::StaticReconfiguration,
        Environment::Transient { permille: 50 },
        config,
    );
    signals.push(Signal::num(
        "e8_static_reconf_successes",
        r.successes as f64,
    ));
    signals.push(Signal::num(
        "e8_static_reconf_spares",
        r.spares_consumed as f64,
    ));
    let r = run_scenario(Strategy::Adaptive, Environment::PermanentAt(100), config);
    signals.push(Signal::num("e9_adaptive_successes", r.successes as f64));
    signals.push(Signal::num("e9_adaptive_spares", r.spares_consumed as f64));
    let r = run_scenario(
        Strategy::Adaptive,
        Environment::Transient { permille: 50 },
        config,
    );
    signals.push(Signal::num(
        "e9_adaptive_transient_successes",
        r.successes as f64,
    ));

    // E7(net) — the distributed campaign over the deterministic sim
    // transport (the TCP half is exercised by the JUnit differential).
    let base = NetExperimentConfig {
        transport: TransportKind::Sim,
        ..NetExperimentConfig::default()
    };
    let reports = run_net_campaign(&base, E7NET_SHARDS, jobs_from_env(2))
        .map_err(|panics| format!("e7net campaign failed: {} shard(s)", panics.len()))?;
    let majorities: u64 = reports.iter().map(|r| r.majorities).sum();
    let failures: u64 = reports.iter().map(|r| r.failures).sum();
    let replicas: Vec<String> = reports
        .iter()
        .map(|r| r.final_replicas.to_string())
        .collect();
    signals.push(Signal::num("e7net_majorities", majorities as f64));
    signals.push(Signal::num("e7net_failures", failures as f64));
    signals.push(Signal::str("e7net_final_replicas", replicas.join(",")));

    // E8(serve) — the multi-tenant service's in-process `sim` leg, the
    // core on one thread: 8 tenants x 16 client streams x 12 rounds, every
    // value a pure function of the master seed.  The TCP half of the
    // differential is exercised by the JUnit suite; here we pin the sim
    // digest the TCP run must match bit for bit.
    let serve = run_serve_experiment(&ServeExperimentConfig::default(), &Registry::disabled());
    signals.push(Signal::str("serve_e8_digest", serve.combined.clone()));
    signals.push(Signal::num("serve_e8_rounds", serve.rounds as f64));
    signals.push(Signal::num("serve_e8_clashes", serve.clashes as f64));
    signals.push(Signal::num("serve_e8_rejects", serve.rejects as f64));

    // LINT — the whole-program checker over the committed manifests.
    if let Some(dir) = &options.manifest_dir {
        signals.extend(lint_signals(dir)?);
    }

    // BENCH — machine-independent signals from the committed snapshot.
    if let Some(json) = &options.bench_json {
        signals.extend(bench_signals(json)?);
    }

    Ok(signals)
}

/// Runs `afta-lint` over every `*.json` manifest in `dir` and pins the
/// outcome: the size of the rule table (`lint_rules_total`), a finding
/// count per manifest (`lint_findings_<stem>`), and one total per
/// whole-program dataflow rule (`lint_d001`..`lint_d007`) across the
/// directory.  A new rule, a fixture edit, or a dataflow-pass regression
/// all surface here as drift against `ci/pins.toml`.
///
/// # Errors
///
/// Returns an error when the directory cannot be read or a manifest
/// fails to parse — the committed examples must always load.
pub fn lint_signals(dir: &str) -> Result<Vec<Signal>, String> {
    use afta_lint::{LintDriver, LintTarget, Rule};

    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("manifest dir {dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("manifest dir {dir}: no *.json manifests"));
    }

    let mut signals = vec![Signal::num("lint_rules_total", Rule::ALL.len() as f64)];
    let driver = LintDriver::new();
    let dataflow: Vec<Rule> = Rule::ALL
        .into_iter()
        .filter(|r| r.code().starts_with("AFTA-D"))
        .collect();
    let mut per_rule = vec![0u64; dataflow.len()];
    for path in &paths {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("unreadable manifest name {}", path.display()))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("manifest {}: {e}", path.display()))?;
        let target = LintTarget::from_json(&text)
            .map_err(|e| format!("manifest {}: parse error: {e}", path.display()))?;
        let report = driver.run(&target);
        signals.push(Signal::num(
            &format!("lint_findings_{stem}"),
            report.diagnostics.len() as f64,
        ));
        for d in &report.diagnostics {
            if let Some(i) = dataflow.iter().position(|r| *r == d.rule) {
                per_rule[i] += 1;
            }
        }
    }
    for (rule, count) in dataflow.iter().zip(per_rule) {
        let name = rule.code().trim_start_matches("AFTA-").to_lowercase();
        signals.push(Signal::num(&format!("lint_{name}"), count as f64));
    }
    Ok(signals)
}

/// Extracts the machine-independent `bench_*` signals from a
/// `BENCH_*.json` snapshot: per-workload allocations per op (exact) and
/// the sharded-vs-reference speedup ratios.
///
/// # Errors
///
/// Returns an error when the text is not a bench snapshot.
pub fn bench_signals(json: &str) -> Result<Vec<Signal>, String> {
    let doc: Value =
        serde_json::from_str(json).map_err(|e| format!("bench snapshot parse error: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("bench snapshot has no schema field")?;
    if !schema.starts_with("afta-bench-snapshot/") {
        return Err(format!("not a bench snapshot: schema {schema:?}"));
    }
    let mut signals = Vec::new();
    for workload in doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("bench snapshot has no workloads")?
    {
        let name = workload
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        if let Some(allocs) = workload.get("allocs_per_op").and_then(as_f64) {
            signals.push(Signal::num(&format!("bench_allocs_{name}"), allocs));
        }
    }
    if let Some(Value::Object(entries)) = doc.get("speedups") {
        for (key, value) in entries {
            if let Some(ratio) = as_f64(value) {
                signals.push(Signal::num(&format!("bench_speedup_{key}"), ratio));
            }
        }
    }
    Ok(signals)
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a_64(""), "cbf29ce484222325");
        assert_eq!(fnv1a_64("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn cheap_signals_match_the_pinned_experiments() {
        // Only the sub-second signals here; the full set (E6 campaign,
        // E7 net rounds) is covered by the CLI end-to-end test.
        let trace = fig4_scenario(15, 10, Tick(45));
        assert_eq!(trace.labeled_permanent_at, Some(9));
        assert_eq!(dtof(7, Some(0)), 4);
        let kb = FailureKnowledgeBase::builtin();
        for bank in MachineInventory::dell_inspiron_6000().banks() {
            assert_eq!(
                format!("{:?}", configure(&bank.spd, &kb).unwrap().method),
                "M3"
            );
        }
    }

    #[test]
    fn bench_signals_extract_ratios_and_allocs() {
        let json = r#"{
            "schema": "afta-bench-snapshot/v2",
            "workloads": [
                {"name": "bus_publish_drain", "allocs_per_op": 0.0},
                {"name": "voting_round", "allocs_per_op": 2.0}
            ],
            "speedups": {"bus_publish_drain": 7.04, "voting_round": 5.71}
        }"#;
        let signals = bench_signals(json).unwrap();
        let get = |name: &str| {
            signals
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
                .clone()
        };
        assert_eq!(get("bench_allocs_bus_publish_drain"), PinValue::Num(0.0));
        assert_eq!(get("bench_speedup_voting_round"), PinValue::Num(5.71));
        assert!(bench_signals("{\"schema\": \"other\"}").is_err());
    }
}
