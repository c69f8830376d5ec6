//! E5 (Fig. 6): "During a simulated experiment, faults are injected, and
//! consequently distance-to-failure decreases.  This triggers an
//! autonomic adaptation of the degree of redundancy."
//!
//! Prints the adaptation time series plus an ASCII strip chart of the
//! redundancy level across the calm -> storm -> calm environment.
//!
//! Flags: `--steps N` (default 30000), `--seed N` (default `AFTA_SEED`,
//! else 42), `--json` (emit the trace + report as JSON instead of the chart),
//! `--seeds K` (default 1; with K > 1 the run becomes a cross-seed
//! replication campaign — K derived seeds, same environment — and a
//! cross-seed summary is appended), `--jobs N` (campaign worker
//! threads, default 1 or `AFTA_CAMPAIGN_JOBS`).  Any other flag, or one
//! given twice, exits 2.

use afta_campaign::{jobs_from_env, Campaign};
use afta_faultinject::{EnvironmentProfile, Phase};
use afta_sim::stats::Summary;
use afta_sim::{Flags, Tick};
use afta_switchboard::{run_experiment_observed, ExperimentConfig, RedundancyPolicy};
use afta_telemetry::Registry;

fn main() {
    let flags = Flags::from_env(&["--steps N", "--seed N", "--json", "--seeds K", "--jobs N"]);
    let steps = flags.num::<u64>("--steps", 30_000);
    let seed = flags.seed(42);
    let seeds = flags.num::<usize>("--seeds", 1).max(1);
    let jobs = flags.num::<usize>("--jobs", jobs_from_env(1)).max(1);
    let storm_start = steps / 4;
    let storm_len = steps / 10;

    let profile = EnvironmentProfile::new(
        vec![
            Phase::new(storm_start, 0.00001),
            Phase::new(storm_len, 0.08),
            Phase::new(steps - storm_start - storm_len, 0.00001),
        ],
        false,
    );
    let config = ExperimentConfig {
        steps,
        seed,
        profile: profile.clone(),
        policy: RedundancyPolicy::default(),
        trace_stride: steps / 60,
    };
    let telemetry = Registry::new();
    let report = run_experiment_observed(&config, None, &telemetry);

    if flags.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialises")
        );
        return;
    }

    println!(
        "environment: calm p=1e-5 | storm p=0.08 during t=[{storm_start}, {})\n",
        storm_start + storm_len
    );
    println!("adaptation events:");
    let mut prev_n = 3;
    for p in &report.trace {
        if p.n != prev_n {
            let dir = if p.n > prev_n { "RAISE" } else { "lower" };
            println!(
                "  t={:>8}  {dir} {prev_n} -> {} (dtof was {}, faults this round {})",
                p.tick.0, p.n, p.dtof, p.faults
            );
            prev_n = p.n;
        }
    }

    // ASCII strip chart of redundancy over time.
    println!(
        "\nredundancy level over time (one column per {} steps):",
        steps / 60
    );
    let samples: Vec<usize> = sample_levels(&report.trace, steps, 60);
    for level in [9usize, 7, 5, 3] {
        let row: String = samples
            .iter()
            .map(|&n| if n >= level { '#' } else { ' ' })
            .collect();
        println!("  r={level}: {row}");
    }
    let storm_cols_start = (storm_start * 60 / steps) as usize;
    let storm_cols_end = ((storm_start + storm_len) * 60 / steps) as usize;
    let mut marker = vec![' '; 60];
    for c in marker
        .iter_mut()
        .take(storm_cols_end.min(60))
        .skip(storm_cols_start)
    {
        *c = '~';
    }
    println!("  storm {}", marker.into_iter().collect::<String>());

    println!(
        "\nfaults injected {} | voting failures {} | raises {} | lowers {}",
        report.faults_injected, report.voting_failures, report.raises, report.lowers
    );
    println!(
        "fraction of time at minimal redundancy: {:.3}%",
        100.0 * report.fraction_at_min(3)
    );

    // Flight-recorder replay: every adaptation above is also journaled
    // by the telemetry layer, in causal order.
    let telemetry_report = telemetry.report();
    println!("\nflight-recorder journal (redundancy changes):");
    for record in telemetry_report
        .journal
        .iter()
        .filter(|r| r.event.kind().starts_with("redundancy-"))
    {
        println!(
            "  #{:>4} t={:>8} {:?}",
            record.seq, record.tick.0, record.event
        );
    }
    println!(
        "telemetry: rounds {} | dtof dips (journal) {} | dropped journal records {}",
        telemetry_report.counter("voting.rounds"),
        telemetry_report.journal_of_kind("dtof-dip").count(),
        telemetry_report.journal_dropped
    );

    // Cross-seed replication: the Fig. 6 story must not hinge on one
    // lucky seed.  Re-run the same environment as a campaign over
    // derived seeds and summarise the per-seed outcomes (parallel
    // Welford over the merged shards — deterministic for any --jobs).
    if seeds > 1 {
        let campaign_report = Campaign::derived_seeds(&config, seeds)
            .jobs(jobs)
            .run()
            .expect("campaign shards must not panic");
        let mut at_min = Summary::new();
        let mut failures = Summary::new();
        for shard in &campaign_report.shards {
            let mut single = Summary::new();
            single.record(100.0 * shard.fraction_at_min(3));
            at_min.merge(&single);
            let mut f = Summary::new();
            f.record(shard.voting_failures as f64);
            failures.merge(&f);
        }
        println!("\ncross-seed campaign ({seeds} derived seeds, {jobs} worker(s)):");
        println!(
            "  time at r=3: mean {:.3}% (stddev {:.3}, min {:.3}%, max {:.3}%)",
            at_min.mean(),
            at_min.stddev(),
            at_min.min().unwrap_or(0.0),
            at_min.max().unwrap_or(0.0)
        );
        println!(
            "  voting failures: mean {:.2} per run (max {:.0}) | raises {} | lowers {}",
            failures.mean(),
            failures.max().unwrap_or(0.0),
            campaign_report.stats.raises,
            campaign_report.stats.lowers
        );
    }
}

/// Resamples the (sparse) trace into `cols` redundancy levels.
fn sample_levels(trace: &[afta_switchboard::TracePoint], steps: u64, cols: u64) -> Vec<usize> {
    let mut out = Vec::with_capacity(cols as usize);
    let mut level = 3usize;
    let mut idx = 0usize;
    for col in 0..cols {
        let t_end = Tick((col + 1) * steps / cols);
        while idx < trace.len() && trace[idx].tick <= t_end {
            level = trace[idx].n;
            idx += 1;
        }
        out.push(level);
    }
    out
}
