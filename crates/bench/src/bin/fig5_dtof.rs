//! E4 (Fig. 5): distance-to-failure in a replication-and-voting scheme
//! with 7 replicas, panel by panel — plus an empirical dtof distribution
//! measured over a fault-injection campaign at fixed redundancy 7.
//!
//! Flags: `--steps N` (default 200_000, total across shards), `--p F`
//! (per-replica fault probability, default 0.05), `--shards K` (default
//! 4), `--jobs N` (campaign worker threads, default 1 or
//! `AFTA_CAMPAIGN_JOBS`).  Any other flag, or one given twice, exits 2.

use afta_campaign::{jobs_from_env, Campaign};
use afta_faultinject::EnvironmentProfile;
use afta_sim::Flags;
use afta_switchboard::{ExperimentConfig, RedundancyPolicy};
use afta_voting::{dtof, dtof_max, majority_vote, VoteOutcome};

fn main() {
    let flags = Flags::from_env(&["--steps N", "--p F", "--shards K", "--jobs N"]);
    let steps = flags.num::<u64>("--steps", 200_000);
    let p = flags.num::<f64>("--p", 0.05);
    let shards = flags.num::<usize>("--shards", 4).max(1);
    let jobs = flags.num::<usize>("--jobs", jobs_from_env(1)).max(1);
    let n = 7;
    println!(
        "distance-to-failure, n = {n} replicas (dtof_max = {})\n",
        dtof_max(n)
    );
    println!(
        "{:<6} {:<28} {:>4} {:>6}",
        "panel", "vote vector", "m", "dtof"
    );

    // The four panels of Fig. 5: consensus, growing dissent, no majority.
    let panels: [(&str, Vec<u32>); 4] = [
        ("(a)", vec![1, 1, 1, 1, 1, 1, 1]),
        ("(b)", vec![1, 1, 1, 9, 1, 1, 1]),
        ("(c)", vec![1, 9, 1, 8, 1, 1, 1]),
        ("(d)", vec![1, 9, 2, 8, 3, 7, 4]),
    ];
    for (panel, votes) in panels {
        let outcome = majority_vote(&votes);
        let (m, d) = match &outcome {
            VoteOutcome::Majority { dissent, .. } => (dissent.to_string(), dtof(n, Some(*dissent))),
            VoteOutcome::NoMajority => ("-".to_owned(), dtof(n, None)),
        };
        println!("{panel:<6} {:<28} {m:>4} {d:>6}", format!("{votes:?}"));
    }
    println!("\n(d) reaches dtof = 0: no majority can be found — failure.");

    // Empirical counterpart: hold redundancy fixed at 7 (the policy's
    // min and max coincide, so the controller never adapts) and measure
    // the dtof distribution under memoryless fault injection, as a
    // parallel deterministic campaign.  The merged `voting.dtof`
    // histogram is bit-identical for every --jobs value.
    let base = ExperimentConfig {
        steps,
        seed: 42,
        profile: EnvironmentProfile::calm(p),
        policy: RedundancyPolicy {
            min: n,
            max: n,
            step: 2,
            raise_threshold: 1,
            lower_after: u64::MAX,
        },
        trace_stride: 0,
    };
    let (report, telemetry) = Campaign::split(&base, shards)
        .jobs(jobs)
        .run_observed()
        .expect("campaign shards must not panic");

    println!(
        "\nempirical dtof distribution at fixed n = {n} \
         ({steps} steps over {shards} shard(s), per-replica fault p = {p}):\n"
    );
    let dtof_hist = telemetry
        .histogram("voting.dtof")
        .expect("voting.dtof observed");
    println!("{:>6} {:>12} {:>10}", "dtof", "rounds", "% of run");
    for (i, &bound) in dtof_hist.bounds.iter().enumerate() {
        if bound > dtof_max(n) as u64 {
            break;
        }
        let count = dtof_hist.counts[i];
        println!(
            "{bound:>6} {count:>12} {:>9.4}%",
            100.0 * count as f64 / steps as f64
        );
    }
    println!(
        "\nrounds {} | no-majority failures {} (dtof = 0) | faults injected {}",
        telemetry.counter("voting.rounds"),
        report.stats.voting_failures,
        report.stats.faults_injected
    );
}
