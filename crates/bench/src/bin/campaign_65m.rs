//! E8 (§3.3 at paper scale): the 65-million-step fault-injection run
//! behind the paper's headline — "the system spent 99.92798 % of its
//! execution time making use of the minimal degree of redundancy, namely
//! 3" — executed as a parallel deterministic campaign.
//!
//! The step budget is split across `--shards` independent shards with
//! collision-free derived seeds; `--jobs` worker threads process them
//! (default: all available cores).  The merged report is bit-identical
//! for every worker count, so the only thing more cores buy is time.
//!
//! Flags: `--steps N` (default 65_000_000), `--shards K` (default 64),
//! `--seed N` (default `AFTA_SEED`, else 42), `--jobs N` (default:
//! available parallelism, or `AFTA_CAMPAIGN_JOBS`), `--json` (emit the
//! merged campaign report as JSON instead of the table).

use std::thread;
use std::time::Instant;

use afta_bench::{arg, arg_seed, has_flag};
use afta_campaign::{jobs_from_env, Campaign};
use afta_faultinject::EnvironmentProfile;
use afta_switchboard::{ExperimentConfig, RedundancyPolicy};

fn main() {
    let steps = arg::<u64>("--steps", 65_000_000);
    let shards = arg::<usize>("--shards", 64).max(1);
    let seed = arg_seed(42);
    let default_jobs =
        jobs_from_env(thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    let jobs = arg::<usize>("--jobs", default_jobs).max(1);

    // Same storm environment as fig7_histogram, scaled to the total run.
    let calm = (steps / 13).max(20_000);
    let base = ExperimentConfig {
        steps,
        seed,
        profile: EnvironmentProfile::cyclic_storms(calm, 500, 0.0000001, 0.05),
        policy: RedundancyPolicy::default(),
        trace_stride: 0,
    };

    eprintln!("campaign: {steps} steps over {shards} shard(s), {jobs} worker(s) — running...");
    let started = Instant::now();
    let report = Campaign::split(&base, shards)
        .jobs(jobs)
        .run()
        .expect("campaign shards must not panic");
    let elapsed = started.elapsed();

    if has_flag("--json") {
        println!("{}", report.to_json());
        return;
    }

    let stats = &report.stats;
    println!("paper-scale §3.3 campaign — merged dwell-time histogram\n");
    println!("{:>4} {:>16} {:>12}", "r", "time steps", "% of run");
    for (r, count) in stats.histogram.iter() {
        println!(
            "{r:>4} {count:>16} {:>11.5}%",
            100.0 * count as f64 / steps as f64
        );
    }
    let at_min = 100.0 * stats.fraction_at_min(3);
    println!("\nfraction at minimal redundancy (r=3): {at_min:.5}%");
    println!("paper reports: 99.92798% at r=3 over 65M steps, zero voting failures");
    println!(
        "this campaign: voting failures {} | faults injected {} | raises {} | lowers {}",
        stats.voting_failures, stats.faults_injected, stats.raises, stats.lowers
    );
    println!(
        "\nwall time: {:.1}s at {jobs} worker(s)  ({:.0} steps/s; throughput scales with cores)",
        elapsed.as_secs_f64(),
        steps as f64 / elapsed.as_secs_f64()
    );
}
