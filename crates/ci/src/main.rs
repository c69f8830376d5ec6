//! The `afta-ci` command-line interface.
//!
//! ```text
//! afta-ci <COMMAND> [OPTIONS]
//!
//! Commands:
//!   sarif <MANIFEST.json>     Lint a manifest and emit SARIF 2.1.0
//!       [--out PATH] [--uri URI]
//!   junit                     Run the campaign + differential suites, emit JUnit XML
//!       [--out PATH] [--skip-tcp]
//!   otel                      Run the E6 campaign, emit OTel-style JSONL spans/metrics
//!       [--out PATH] [--seed N]
//!   run                       All three artifacts from one evidence run
//!       [--manifest PATH] [--out-dir DIR] [--skip-tcp]
//!   check <PINS.toml>         Recompute evidence signals, diff against the pins
//!       [--bench PATH] [--manifests DIR]
//!   signals                   Print freshly computed signals as pin sections
//!       [--bench PATH]          (the blessing path: redirect into ci/pins.toml,
//!       [--manifests DIR]        then re-add tolerance bands by hand)
//!
//! Exit codes:
//!   0  artifacts written / every pin within tolerance
//!   1  a JUnit suite failed, or a pin drifted / went missing
//!   2  usage, I/O, or parse error
//! ```
//!
//! Each command reads its arguments through [`afta_sim::Flags`]: an
//! unknown flag, one given twice or without its value, a value that
//! does not parse (a malformed `AFTA_SEED` too) and a stray or missing
//! argument exit 2, naming it, before anything runs.  `otel` takes its
//! seed from `--seed` (decimal or `0x`-hex), then `AFTA_SEED`, then 42;
//! `run` always uses 42.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use afta_campaign::{jobs_from_env, Campaign, CampaignError};
use afta_ci::evidence::{self, e6_campaign_config, EvidenceOptions, E6_SHARDS};
use afta_ci::junit::{JunitCase, JunitReport, JunitSuite};
use afta_ci::pins::{check_pins, PinFile};
use afta_ci::sarif::{sarif_report, validate_sarif};
use afta_lint::{LintDriver, LintTarget};
use afta_net::{run_net_experiment, NetExperimentConfig, TransportKind};
use afta_serve::{run_serve_experiment, ServeExperimentConfig};
use afta_sim::Flags;
use afta_switchboard::{run_experiment, ExperimentRun};
use afta_telemetry::{Registry, TraceContext};

const USAGE: &str = "usage: afta-ci <sarif|junit|otel|run|check|signals> [options]  (see --help)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("afta-ci: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let Some(command) = args.first() else {
        return Err("no command given".to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "sarif" => cmd_sarif(rest),
        "junit" => cmd_junit(rest),
        "otel" => cmd_otel(rest),
        "run" => cmd_run(rest),
        "check" => cmd_check(rest),
        "signals" => cmd_signals(rest),
        "-h" | "--help" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn emit(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        None => {
            print!("{content}");
            Ok(())
        }
        Some(path) => {
            if let Some(parent) = Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).map_err(|e| format!("{path}: {e}"))?;
                }
            }
            std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))
        }
    }
}

// ---------------------------------------------------------------------------
// sarif
// ---------------------------------------------------------------------------

fn cmd_sarif(args: &[String]) -> Result<u8, String> {
    let flags = Flags::new(
        "afta-ci sarif",
        args,
        &["<MANIFEST.json>", "--out PATH", "--uri URI"],
    );
    let sarif = build_sarif(flags.positional("<MANIFEST.json>"), flags.text("--uri"))?;
    emit(flags.text("--out"), &sarif)?;
    Ok(0)
}

fn build_sarif(manifest: &str, uri: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let target =
        LintTarget::from_json(&text).map_err(|e| format!("{manifest}: parse error: {e}"))?;
    let report = LintDriver::new().run(&target);
    let uri = uri.map_or_else(|| manifest.replace('\\', "/"), str::to_string);
    let doc = sarif_report(&report, &uri);
    validate_sarif(&doc)
        .map_err(|errors| format!("internal: emitted invalid SARIF: {errors:?}"))?;
    serde_json::to_string_pretty(&doc)
        .map(|json| json + "\n")
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// junit
// ---------------------------------------------------------------------------

fn cmd_junit(args: &[String]) -> Result<u8, String> {
    let flags = Flags::new("afta-ci junit", args, &["--out PATH", "--skip-tcp"]);
    let report = build_junit(flags.has("--skip-tcp"))?;
    emit(flags.text("--out"), &report.to_xml())?;
    eprintln!(
        "afta-ci: junit: {} tests, {} failures",
        report.tests(),
        report.failures()
    );
    Ok(u8::from(report.failures() > 0))
}

fn build_junit(skip_tcp: bool) -> Result<JunitReport, String> {
    Ok(JunitReport {
        suites: vec![
            campaign_suite(),
            differential_suite(skip_tcp),
            serve_suite(skip_tcp),
            checkpoint_suite(),
        ],
    })
}

/// The E6 campaign: one testcase per shard, failing cases carrying the
/// shard's derived seed.
fn campaign_suite() -> JunitSuite {
    let mut suite = JunitSuite::new("e6.campaign");
    let campaign = Campaign::split(&e6_campaign_config(), E6_SHARDS).jobs(jobs_from_env(2));
    let seeds: Vec<u64> = campaign.shards().iter().map(|c| c.seed).collect();
    match campaign.run() {
        Ok(_) => {
            for (i, seed) in seeds.iter().enumerate() {
                suite.cases.push(JunitCase::pass(
                    "afta.e6",
                    &format!("shard-{i}-seed-{seed:#x}"),
                ));
            }
        }
        Err(CampaignError::ShardsFailed(panics)) => {
            for (i, seed) in seeds.iter().enumerate() {
                let name = format!("shard-{i}-seed-{seed:#x}");
                match panics.iter().find(|p| p.index == i) {
                    None => suite.cases.push(JunitCase::pass("afta.e6", &name)),
                    Some(p) => suite.cases.push(JunitCase::fail(
                        "afta.e6",
                        &name,
                        &format!("seed {seed:#x} panicked"),
                        &p.message,
                    )),
                }
            }
        }
    }
    suite
}

/// E7 sim-vs-TCP: the same seeded rounds over both transports must
/// produce identical digests.  With `--skip-tcp` the second run is a
/// fresh sim run — still a real determinism check, minus the sockets.
fn differential_suite(skip_tcp: bool) -> JunitSuite {
    let reference_kind = if skip_tcp { "sim" } else { "tcp" };
    let mut suite = JunitSuite::new(format!("e7.differential.sim-vs-{reference_kind}").as_str());
    // Small on purpose: CI runs this on every push; the full-size
    // differential lives in the docs job's e7_differential example.
    let base = NetExperimentConfig {
        rounds: 8,
        voters: 5,
        ..NetExperimentConfig::default()
    };
    let factory = afta_sim::SeedFactory::new(base.seed);
    for shard in 0..2u64 {
        let seed = factory.shard_seed(shard);
        let sim_config = NetExperimentConfig {
            seed,
            transport: TransportKind::Sim,
            ..base.clone()
        };
        let other_config = NetExperimentConfig {
            transport: if skip_tcp {
                TransportKind::Sim
            } else {
                TransportKind::Tcp
            },
            ..sim_config.clone()
        };
        let sim = run_net_experiment(&sim_config, &Registry::disabled());
        let other = run_net_experiment(&other_config, &Registry::disabled());
        let name = format!("shard-{shard}-seed-{seed:#x}-sim-vs-{reference_kind}");
        if sim.digests == other.digests && sim.final_replicas == other.final_replicas {
            suite.cases.push(JunitCase::pass("afta.e7", &name));
        } else {
            let first_diff = sim
                .digests
                .iter()
                .zip(&other.digests)
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map_or_else(
                    || "digest counts differ".to_string(),
                    |(round, (a, b))| format!("round {round}: sim {a:?} vs {reference_kind} {b:?}"),
                );
            suite.cases.push(JunitCase::fail(
                "afta.e7",
                &name,
                &format!("seed {seed:#x} diverged between sim and {reference_kind}"),
                &first_diff,
            ));
        }
    }
    suite
}

/// E8 sim-vs-TCP: the multi-tenant service driven at full pin size
/// (8 tenants x 16 client streams x 12 rounds) over both legs must
/// produce bit-identical per-tenant digests.  With `--skip-tcp` the
/// second run is a fresh sim run — still a determinism check, minus the
/// reactor and its sockets.
fn serve_suite(skip_tcp: bool) -> JunitSuite {
    let reference_kind = if skip_tcp { "sim" } else { "tcp" };
    let mut suite = JunitSuite::new(format!("e8.serve.sim-vs-{reference_kind}").as_str());
    let base = ServeExperimentConfig::default();
    let factory = afta_sim::SeedFactory::new(base.seed);
    for shard in 0..2u64 {
        let seed = factory.shard_seed(shard);
        let sim_config = ServeExperimentConfig {
            seed,
            transport: TransportKind::Sim,
            ..base.clone()
        };
        let other_config = ServeExperimentConfig {
            transport: if skip_tcp {
                TransportKind::Sim
            } else {
                TransportKind::Tcp
            },
            ..sim_config.clone()
        };
        let sim = run_serve_experiment(&sim_config, &Registry::disabled());
        let other = run_serve_experiment(&other_config, &Registry::disabled());
        let name = format!("shard-{shard}-seed-{seed:#x}-sim-vs-{reference_kind}");
        if afta_serve::differential_matches(&sim, &other) {
            suite.cases.push(JunitCase::pass("afta.e8", &name));
        } else {
            let first_diff = sim
                .digests
                .iter()
                .zip(&other.digests)
                .find(|(a, b)| a.digest != b.digest)
                .map_or_else(
                    || {
                        format!(
                            "combined digests differ: sim {} vs {} {}",
                            sim.combined, reference_kind, other.combined
                        )
                    },
                    |(a, b)| {
                        format!(
                            "tenant {}: sim {} vs {} {}",
                            a.tenant, a.digest, reference_kind, b.digest
                        )
                    },
                );
            suite.cases.push(JunitCase::fail(
                "afta.e8",
                &name,
                &format!("seed {seed:#x} diverged between the sim and {reference_kind} legs"),
                &first_diff,
            ));
        }
    }
    suite
}

/// Checkpoint-resume equality: a run interrupted and resumed at every
/// 1 000-step boundary must match the uninterrupted run bit for bit.
fn checkpoint_suite() -> JunitSuite {
    let mut suite = JunitSuite::new("checkpoint.resume");
    for seed in [42u64, 7] {
        let config = afta_switchboard::ExperimentConfig {
            steps: 5_000,
            seed,
            ..e6_campaign_config()
        };
        let uninterrupted = run_experiment(&config, None);
        let registry = Registry::disabled();
        let mut chunked = ExperimentRun::new(&config);
        while !chunked.is_done() {
            let _ = chunked.run_chunk(1_000, None, &registry);
            chunked = ExperimentRun::resume(chunked.checkpoint());
        }
        let resumed = chunked.into_report(&registry);
        let name = format!("seed-{seed:#x}-chunked-1000");
        if uninterrupted == resumed {
            suite.cases.push(JunitCase::pass("afta.checkpoint", &name));
        } else {
            suite.cases.push(JunitCase::fail(
                "afta.checkpoint",
                &name,
                &format!("seed {seed:#x} diverged after checkpoint-resume"),
                &format!(
                    "uninterrupted: failures={} faults={}; resumed: failures={} faults={}",
                    uninterrupted.voting_failures,
                    uninterrupted.faults_injected,
                    resumed.voting_failures,
                    resumed.faults_injected
                ),
            ));
        }
    }
    suite
}

// ---------------------------------------------------------------------------
// otel
// ---------------------------------------------------------------------------

fn cmd_otel(args: &[String]) -> Result<u8, String> {
    let flags = Flags::new("afta-ci otel", args, &["--out PATH", "--seed N"]);
    emit(flags.text("--out"), &build_otel(flags.seed(42))?)?;
    Ok(0)
}

fn build_otel(seed: u64) -> Result<String, String> {
    let config = afta_switchboard::ExperimentConfig {
        seed,
        ..e6_campaign_config()
    };
    let (_, telemetry) = Campaign::split(&config, E6_SHARDS)
        .jobs(jobs_from_env(2))
        .run_observed()
        .map_err(|e| format!("campaign failed: {e}"))?;
    Ok(TraceContext::derive(seed, 0).export("e6.campaign", &telemetry))
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<u8, String> {
    let flags = Flags::new(
        "afta-ci run",
        args,
        &["--manifest PATH", "--out-dir DIR", "--skip-tcp"],
    );
    let out_dir = flags.text("--out-dir").unwrap_or("target/evidence");
    let manifest = flags
        .text("--manifest")
        .unwrap_or("examples/manifests/ariane_fixed.json");
    let skip_tcp = flags.has("--skip-tcp");
    let dir = PathBuf::from(out_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{out_dir}: {e}"))?;

    let sarif_path = dir.join("afta-lint.sarif");
    emit(sarif_path.to_str(), &build_sarif(manifest, None)?)?;

    let junit = build_junit(skip_tcp)?;
    let junit_path = dir.join("afta-ci.junit.xml");
    emit(junit_path.to_str(), &junit.to_xml())?;

    let otel_path = dir.join("afta-spans.jsonl");
    emit(otel_path.to_str(), &build_otel(42)?)?;

    eprintln!(
        "afta-ci: wrote {}, {}, {} ({} tests, {} failures)",
        sarif_path.display(),
        junit_path.display(),
        otel_path.display(),
        junit.tests(),
        junit.failures()
    );
    Ok(u8::from(junit.failures() > 0))
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn cmd_check(args: &[String]) -> Result<u8, String> {
    let flags = Flags::new(
        "afta-ci check",
        args,
        &["<PINS.toml>", "--bench PATH", "--manifests DIR"],
    );
    let pins_path = flags.positional("<PINS.toml>");
    let text = std::fs::read_to_string(pins_path).map_err(|e| format!("{pins_path}: {e}"))?;
    let pins = PinFile::parse(&text).map_err(|e| format!("{pins_path}: {e}"))?;

    let bench_path = flags.text("--bench").unwrap_or("BENCH_9.json");
    let bench_json = match std::fs::read_to_string(bench_path) {
        Ok(json) => Some(json),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("afta-ci: no bench snapshot at {bench_path}; bench pins will be skipped");
            None
        }
        Err(e) => return Err(format!("{bench_path}: {e}")),
    };
    let bench_available = bench_json.is_some();
    let manifest_path = flags.text("--manifests").unwrap_or("examples/manifests");
    let manifest_dir = if Path::new(manifest_path).is_dir() {
        Some(manifest_path.to_owned())
    } else {
        eprintln!("afta-ci: no manifest dir at {manifest_path}; lint pins will be skipped");
        None
    };
    let lint_available = manifest_dir.is_some();
    let signals = evidence::collect_signals(&EvidenceOptions {
        bench_json,
        manifest_dir,
    })?;
    let outcome = check_pins(&pins, &signals, bench_available, lint_available);
    print!("{}", outcome.render());
    Ok(u8::from(!outcome.ok()))
}

// ---------------------------------------------------------------------------
// signals
// ---------------------------------------------------------------------------

fn cmd_signals(args: &[String]) -> Result<u8, String> {
    let flags = Flags::new(
        "afta-ci signals",
        args,
        &["--bench PATH", "--manifests DIR"],
    );
    let bench_json = match flags.text("--bench") {
        None => None,
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?),
    };
    let signals = evidence::collect_signals(&EvidenceOptions {
        bench_json,
        manifest_dir: flags.text("--manifests").map(str::to_owned),
    })?;
    println!("schema = \"{}\"", afta_ci::pins::PINS_SCHEMA);
    for signal in signals {
        println!("\n[{}]", signal.name);
        match signal.value {
            afta_ci::pins::PinValue::Num(n) => println!("value = {n}"),
            afta_ci::pins::PinValue::Str(s) => println!("value = \"{s}\""),
        }
    }
    Ok(0)
}
