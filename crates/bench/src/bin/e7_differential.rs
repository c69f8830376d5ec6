//! E7 (§3.2 + §3.3 distributed): the sim-vs-TCP differential experiment.
//!
//! Runs the seeded distributed-voting campaign of `afta-net` on the
//! transport(s) selected by `--transport sim|tcp|both` and, for `both`,
//! verifies shard by shard that the per-round digests and the final
//! redundancy dimensioning are identical on the deterministic in-process
//! network and on real loopback TCP sockets.
//!
//! Flags: `--transport sim|tcp|both` (default both), `--seed N` (default
//! `AFTA_SEED`, else 0xE7), `--rounds N` (default 40), `--voters N`
//! (default 9), `--replicas N` (default 3), `--shards K` (default 4),
//! `--jobs N` (default: available parallelism, or `AFTA_CAMPAIGN_JOBS`),
//! `--json`.
//!
//! Exits non-zero when `both` finds a divergence — this is the CI-facing
//! form of the `crates/net/tests/differential.rs` assertion.

use std::process::ExitCode;
use std::thread;
use std::time::Instant;

use afta_bench::{arg, arg_seed, arg_str, has_flag};
use afta_campaign::jobs_from_env;
use afta_net::experiment::{
    run_net_campaign, NetExperimentConfig, NetExperimentReport, TransportKind,
};

fn base_config() -> NetExperimentConfig {
    NetExperimentConfig {
        seed: arg_seed(0xE7),
        rounds: arg::<u64>("--rounds", 40),
        voters: arg::<usize>("--voters", 9).max(1),
        initial_replicas: arg::<usize>("--replicas", 3).max(1),
        ..NetExperimentConfig::default()
    }
}

fn run_campaign(kind: TransportKind, shards: usize, jobs: usize) -> Vec<NetExperimentReport> {
    let config = NetExperimentConfig {
        transport: kind,
        ..base_config()
    };
    let started = Instant::now();
    let reports = run_net_campaign(&config, shards, jobs).unwrap_or_else(|panics| {
        for p in &panics {
            eprintln!("{kind}: {p}");
        }
        std::process::exit(2);
    });
    eprintln!(
        "{kind}: {shards} shard(s) x {} round(s) in {:.2}s",
        config.rounds,
        started.elapsed().as_secs_f64()
    );
    reports
}

fn summarize(kind: TransportKind, reports: &[NetExperimentReport]) {
    let majorities: u64 = reports.iter().map(|r| r.majorities).sum();
    let failures: u64 = reports.iter().map(|r| r.failures).sum();
    println!(
        "{kind}: majorities {majorities} | failures {failures} | final replicas per shard {:?}",
        reports.iter().map(|r| r.final_replicas).collect::<Vec<_>>()
    );
}

fn to_json(reports: &[NetExperimentReport]) -> String {
    // Digest lines are plain ASCII; a hand-rolled array keeps the
    // vendored serde out of types that do not otherwise need it.
    let shards: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"transport\":\"{}\",\"seed\":{},\"final_replicas\":{},\"majorities\":{},\"failures\":{},\"digests\":[{}]}}",
                r.transport,
                r.seed,
                r.final_replicas,
                r.majorities,
                r.failures,
                r.digests
                    .iter()
                    .map(|d| format!("\"{d}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    format!("[{}]", shards.join(","))
}

fn main() -> ExitCode {
    let transport = arg_str("--transport", "both");
    let shards = arg::<usize>("--shards", 4).max(1);
    let default_jobs =
        jobs_from_env(thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    let jobs = arg::<usize>("--jobs", default_jobs).max(1);

    match transport.as_str() {
        "sim" | "tcp" => {
            let kind: TransportKind = transport.parse().expect("validated above");
            let reports = run_campaign(kind, shards, jobs);
            if has_flag("--json") {
                println!("{}", to_json(&reports));
            } else {
                summarize(kind, &reports);
            }
            ExitCode::SUCCESS
        }
        "both" => {
            let sim = run_campaign(TransportKind::Sim, shards, jobs);
            let tcp = run_campaign(TransportKind::Tcp, shards, jobs);
            if has_flag("--json") {
                println!("{{\"sim\":{},\"tcp\":{}}}", to_json(&sim), to_json(&tcp));
            } else {
                summarize(TransportKind::Sim, &sim);
                summarize(TransportKind::Tcp, &tcp);
            }
            let mut diverged = false;
            for (index, (s, t)) in sim.iter().zip(tcp.iter()).enumerate() {
                if s.digests != t.digests || s.final_replicas != t.final_replicas {
                    diverged = true;
                    eprintln!("shard {index} DIVERGED:");
                    for (round, (a, b)) in s.digests.iter().zip(t.digests.iter()).enumerate() {
                        if a != b {
                            eprintln!("  round {}: sim {a} | tcp {b}", round + 1);
                        }
                    }
                }
            }
            if diverged {
                eprintln!("differential FAILED: transports disagree");
                ExitCode::FAILURE
            } else {
                // Keep stdout pure JSON under --json; the verdict goes
                // to stderr there so the output stays machine-parsable.
                let verdict =
                    format!("differential OK: {shards} shard(s) bit-identical across sim and tcp");
                if has_flag("--json") {
                    eprintln!("{verdict}");
                } else {
                    println!("{verdict}");
                }
                ExitCode::SUCCESS
            }
        }
        other => {
            eprintln!("unknown --transport {other:?} (expected sim|tcp|both)");
            ExitCode::FAILURE
        }
    }
}
