//! E6 (Fig. 7): the dwell-time histogram of the employed redundancy over
//! a long fault-injection run, log scale, with the fraction of time
//! spent at the minimal degree (the paper reports 99.92798 % at r = 3
//! over 65 million steps, with zero voting failures).
//!
//! The run executes as a deterministic campaign: the step budget is
//! split over `--shards` independent shards (collision-free derived
//! seeds, same storm environment), which `--jobs` worker threads
//! process.  The merged histogram is **bit-identical for every jobs
//! value** — with `--jobs N > 1` the binary re-runs the campaign
//! serially, verifies byte-for-byte identity of the merged JSON, and
//! prints the measured speedup (which scales with physical cores).
//!
//! Flags: `--steps N` (default 1_000_000; pass 65_000_000 for the paper's
//! full run — use `--release`), `--seed N` (default `AFTA_SEED`, else
//! 42), `--shards K` (default 8), `--jobs N` (default 1, or
//! `AFTA_CAMPAIGN_JOBS`),
//! `--json` (emit the full merged campaign report as JSON on stdout
//! instead of the table), `--telemetry-json` (emit the merged telemetry
//! report as JSON instead of the human-readable rendering).

use std::time::Instant;

use afta_bench::{arg, arg_seed, has_flag};
use afta_campaign::{jobs_from_env, Campaign};
use afta_faultinject::EnvironmentProfile;
use afta_switchboard::{ExperimentConfig, RedundancyPolicy};

fn main() {
    let steps = arg::<u64>("--steps", 1_000_000);
    let seed = arg_seed(42);
    let shards = arg::<usize>("--shards", 8).max(1);
    let jobs = arg::<usize>("--jobs", jobs_from_env(1)).max(1);

    // Rare, short disturbance storms over a long calm background — the
    // §3.3 "heavy and diversified fault injection" environment whose
    // long-run shape Fig. 7 reports.  The cycle length scales with the
    // *total* run so the campaign sees ~13 storm episodes across all
    // shards; each episode costs the system ≈3.7k elevated-redundancy
    // steps (storm + the 3×1000-round lowering staircase), which at 65M
    // steps reproduces the paper's ≈99.93% at r = 3.
    let calm = (steps / 13).max(20_000);
    let profile = EnvironmentProfile::cyclic_storms(calm, 500, 0.0000001, 0.05);
    let base = ExperimentConfig {
        steps,
        seed,
        profile,
        policy: RedundancyPolicy::default(), // lower_after = 1000, as in the paper
        trace_stride: 0,
    };

    let started = Instant::now();
    let (report, telemetry_report) = Campaign::split(&base, shards)
        .jobs(jobs)
        .run_observed()
        .expect("campaign shards must not panic");
    let elapsed = started.elapsed();

    if has_flag("--json") {
        println!("{}", report.to_json());
        return;
    }
    if has_flag("--telemetry-json") {
        println!("{}", telemetry_report.to_json());
        return;
    }

    let stats = &report.stats;
    println!("lifespan of assumption a(r): \"degree of employed redundancy is r\"");
    println!(
        "campaign: {shards} shard(s) x ~{} steps, {jobs} worker(s)\n",
        steps / shards as u64
    );
    println!(
        "{:>4} {:>16} {:>12} {:>10}  log-scale",
        "r", "time steps", "% of run", "log10"
    );
    for (r, count) in stats.histogram.iter() {
        let frac = 100.0 * count as f64 / steps as f64;
        let log = (count as f64).log10();
        let bar = "#".repeat(log.max(0.0).round() as usize * 4);
        println!("{r:>4} {count:>16} {frac:>11.5}% {log:>10.2}  {bar}");
    }
    println!(
        "\nfraction at minimal redundancy (r=3): {:.5}%",
        100.0 * stats.fraction_at_min(3)
    );
    println!(
        "faults injected: {} | voting failures: {} | raises: {} | lowers: {}",
        stats.faults_injected, stats.voting_failures, stats.raises, stats.lowers
    );
    println!(
        "\npaper (65M steps): 99.92798% at r=3, zero observed clashes; \
         shape check: minimal degree dominates by orders of magnitude on the log scale."
    );

    // Cross-check: the telemetry layer observed the same shards and must
    // agree with the merged report's own bookkeeping, figure by figure.
    println!("\n{telemetry_report}");
    let mirrored = telemetry_report
        .histogram("switchboard.time_at_r")
        .expect("time_at_r mirrored");
    let matches = stats
        .histogram
        .iter()
        .all(|(r, count)| mirrored.bucket_count(r) == Some(count))
        && telemetry_report.counter("voting.rounds") == stats.steps
        && telemetry_report.counter("voting.failures") == stats.voting_failures
        && telemetry_report.counter("switchboard.raises") == stats.raises
        && telemetry_report.counter("switchboard.lowers") == stats.lowers;
    println!(
        "telemetry cross-check (histogram, rounds, voting failures, raises, lowers): {}",
        if matches { "MATCH" } else { "MISMATCH" }
    );

    println!(
        "\nwall time ({jobs} worker(s)): {:.3}s  ({:.0} steps/s)",
        elapsed.as_secs_f64(),
        steps as f64 / elapsed.as_secs_f64()
    );

    // Determinism witness + speedup: with jobs > 1, re-run the identical
    // campaign serially and compare the merged JSON byte for byte.
    if jobs > 1 {
        let serial_started = Instant::now();
        let (serial, serial_telemetry) = Campaign::split(&base, shards)
            .jobs(1)
            .run_observed()
            .expect("campaign shards must not panic");
        let serial_elapsed = serial_started.elapsed();
        let identical = serial.to_json() == report.to_json()
            && serial_telemetry.to_json() == telemetry_report.to_json();
        println!(
            "serial reference (1 worker): {:.3}s | parallel result bit-identical: {}",
            serial_elapsed.as_secs_f64(),
            if identical { "YES" } else { "NO — BUG" }
        );
        println!(
            "speedup at {jobs} workers: {:.2}x (scales with physical cores)",
            serial_elapsed.as_secs_f64() / elapsed.as_secs_f64()
        );
        assert!(
            identical,
            "parallel campaign diverged from serial reference"
        );
    }
}
