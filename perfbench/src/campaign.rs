//! `campaign_fig7`: the Fig. 7 campaign built the way `fig7_histogram`
//! builds it — cyclic storms scaled to the total step count, the default
//! `RedundancyPolicy`, 8 shards, one job.
//!
//! The window executes the shards exactly as `Campaign::run_observed`
//! does with one job (fresh registry per shard, reports and telemetry
//! merged in shard order), but steps each shard through
//! `ExperimentRun::run_chunk` so every chunk is timed.  After the window
//! the run proves that path equal to `run_observed` on a smaller
//! campaign of the same seed, and reproduces E6 through `run_observed`
//! itself.

use std::time::{Duration, Instant};

use afta_campaign::{Campaign, CampaignReport};
use afta_faultinject::EnvironmentProfile;
use afta_sim::{SeedFactory, Tick};
use afta_switchboard::{ExperimentConfig, ExperimentRun, RedundancyController, RedundancyPolicy};
use afta_telemetry::{Registry, TelemetryReport, DEFAULT_JOURNAL_CAPACITY};
use afta_voting::{dtof, majority_vote, VoteOutcome};
use rand::Rng;

use crate::alloc;
use crate::calib::{Meter, Timeline};
use crate::check::Failures;
use crate::stats::{Figures, Latency, MIB, SETUP_CYCLES};
use crate::trace::{ns_since, Span, Tracer};

/// Total steps of the campaign (the paper's Fig. 7 run).
pub const STEPS: u64 = 65_000_000;
/// Shards the steps are split over.
pub const SHARDS: usize = 8;
/// Steps per timed chunk.
pub const CHUNK: u64 = 8_192;
/// Chunks between two machine-speed samples (about every 50 ms).
const CALIBRATE_EVERY: usize = 128;
/// Seed whose 65M-step campaign is E6.
pub const E6_SEED: u64 = 42;
/// Steps of the campaign that checks the chunked path against
/// `run_observed`.
const EQUIVALENCE_STEPS: u64 = 2_000_000;
/// Fewest campaigns in a run.
const MIN_CAMPAIGNS: u32 = 3;
/// Elapsed time after which a run starts no further campaign.
const HARD_STOP: Duration = Duration::from_secs(110);

/// The Fig. 7 campaign's base configuration, as `fig7_histogram` builds
/// it.
pub fn base(seed: u64, steps: u64) -> ExperimentConfig {
    let calm = (steps / 13).max(20_000);
    ExperimentConfig {
        steps,
        seed,
        profile: EnvironmentProfile::cyclic_storms(calm, 500, 0.000_000_1, 0.05),
        policy: RedundancyPolicy::default(),
        trace_stride: 0,
    }
}

/// What a campaign run measured.
#[derive(Debug, Clone, Default)]
pub struct CampaignRun {
    /// End-to-end figures of each campaign in the window.
    pub figures: Vec<Figures>,
    /// Steps simulated in the window.
    pub steps: u64,
    /// Their summed chunk time, ns at reference speed.
    pub chunk_ns: u64,
    /// Allocations inside `run_chunk`.
    pub chunk_allocs: u64,
    /// `Campaign::split` up to the first step, ns, per set-up.
    pub setup_ns: Vec<u64>,
    /// Shards run and checked.
    pub attempted: u64,
    /// Failed shards and checks.
    pub failures: Failures,
    /// The window's campaign report (every campaign of a run is equal).
    pub report: Option<CampaignReport>,
}

/// Runs one campaign through timed chunks; returns the merged report and
/// telemetry, and records its figures into `out`.
fn run_chunked(
    base: &ExperimentConfig,
    out: &mut CampaignRun,
    mut tracer: Option<&mut Tracer>,
) -> (CampaignReport, TelemetryReport) {
    let chunks = (base.steps / CHUNK) as usize + 2 * SHARDS;
    let mut chunk_ns: Vec<u64> = Vec::with_capacity(chunks);
    let mut step_ps: Vec<u64> = Vec::with_capacity(chunks);
    let mut timeline = Timeline::with_blocks(chunks / CALIBRATE_EVERY + 2);
    timeline.sample();
    let mut steps_done = 0u64;
    let mut heap_bytes = 0i64;
    let heap_base = alloc::live_bytes();
    let campaign = Campaign::split(base, SHARDS).jobs(1);
    let mut telemetry = TelemetryReport::default();
    let mut reports = Vec::with_capacity(SHARDS);
    for (shard, config) in campaign.shards().iter().enumerate() {
        let registry = Registry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
        let mut run = ExperimentRun::new(config);
        let mut chunk = 0u64;
        while !run.is_done() {
            let a0 = alloc::allocations();
            let t0 = Instant::now();
            let steps = run.run_chunk(CHUNK, None, &registry);
            let ns = ns_since(t0);
            out.chunk_allocs += alloc::allocations() - a0;
            chunk_ns.push(ns);
            step_ps.push(ns * 1000 / steps.max(1));
            steps_done += steps;
            if let Some(tr) = tracer.as_deref_mut() {
                let end = ns_since(tr.epoch());
                tr.push(Span::new(
                    "switchboard.chunk",
                    end.saturating_sub(ns),
                    end,
                    Some((shard as u16, 0, chunk)),
                ));
            }
            chunk += 1;
            if chunk_ns.len().is_multiple_of(CALIBRATE_EVERY) {
                timeline.sample();
            }
        }
        if shard + 1 == SHARDS {
            // The window ends with the last step: what the campaign holds
            // now, its last shard's run and registry included.
            heap_bytes = alloc::live_bytes() - heap_base;
        }
        reports.push(run.into_report(&registry));
        telemetry.merge(&registry.report());
    }
    let report = CampaignReport::from_shards(reports);
    drop(campaign);
    timeline.sample();
    // Each chunk at reference speed, by the samples around its block.
    for (k, (ns, ps)) in chunk_ns.iter_mut().zip(step_ps.iter_mut()).enumerate() {
        *ns = timeline.scale(*ns, k / CALIBRATE_EVERY);
        *ps = timeline.scale(*ps, k / CALIBRATE_EVERY);
    }
    let scaled_ns: u64 = chunk_ns.iter().sum();
    out.steps += steps_done;
    out.chunk_ns += scaled_ns;
    let per_s = |count: u64| count as f64 * 1e9 / scaled_ns.max(1) as f64;
    match (Latency::of(&mut chunk_ns), Latency::of(&mut step_ps)) {
        (Some(chunk), Some(step)) => out.figures.push(Figures {
            req_per_s: per_s(chunk.count as u64),
            req_p50_us: chunk.p50_ns as f64 / 1e3,
            req_p99_us: chunk.p99_ns as f64 / 1e3,
            req_samples: chunk.count,
            // Per-step times are kept in picoseconds.
            round_p50_us: step.p50_ns as f64 / 1e6,
            round_p99_us: step.p99_ns as f64 / 1e6,
            round_samples: step.count,
            steps_per_s: per_s(steps_done),
            heap_mb: heap_bytes as f64 / MIB,
            speed: timeline.mean(),
        }),
        _ => {
            let n = chunk_ns.len();
            out.failures
                .add(|| format!("{n} chunks: too few for a p99 with ten beyond"));
        }
    }
    (report, telemetry)
}

/// The `fig7_histogram` telemetry cross-check plus step accounting.
fn check_campaign(
    report: &CampaignReport,
    telemetry: &TelemetryReport,
    steps: u64,
    failures: &mut Failures,
) {
    let stats = &report.stats;
    let mirrored = telemetry.histogram("switchboard.time_at_r");
    let matches = mirrored.is_some_and(|m| {
        stats
            .histogram
            .iter()
            .all(|(r, count)| m.bucket_count(r) == Some(count))
    }) && telemetry.counter("voting.rounds") == stats.steps
        && telemetry.counter("voting.failures") == stats.voting_failures
        && telemetry.counter("switchboard.raises") == stats.raises
        && telemetry.counter("switchboard.lowers") == stats.lowers;
    if !matches {
        failures.add(|| "telemetry cross-check MISMATCH".into());
    }
    if stats.steps != steps || stats.histogram.total() != steps || stats.shards != SHARDS as u64 {
        failures.add(|| {
            format!(
                "campaign covered {} steps ({} in the histogram) over {} shards, expected {steps} over {SHARDS}",
                stats.steps,
                stats.histogram.total(),
                stats.shards
            )
        });
    }
}

/// E6 as pinned: 99.93400 % at r = 3, 1,467 faults, 1 voting failure,
/// 39 raises, 39 lowers.
pub fn check_e6(report: &CampaignReport, failures: &mut Failures) {
    let s = &report.stats;
    let got = (
        format!("{:.5}", 100.0 * s.fraction_at_min(3)),
        s.faults_injected,
        s.voting_failures,
        s.raises,
        s.lowers,
    );
    let want = ("99.93400".to_string(), 1_467, 1, 39, 39);
    if got != want {
        failures.add(|| format!("E6 (seed 42, 65M steps) gave {got:?}, pinned {want:?}"));
    }
}

/// Builds the campaign up to its first step, then drops it: one more
/// `setup_s` sample.
fn setup_only(base: &ExperimentConfig) -> u64 {
    let started = Instant::now();
    let campaign = Campaign::split(base, SHARDS).jobs(1);
    let registry = Registry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
    let run = ExperimentRun::new(&campaign.shards()[0]);
    let ns = ns_since(started);
    drop((run, registry, campaign));
    ns
}

/// Runs at least [`MIN_CAMPAIGNS`] campaigns, and more while they fit in
/// `seconds`; with `reference_checks`, then proves the chunked path and
/// reproduces E6.
pub fn run(
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
    reference_checks: bool,
) -> CampaignRun {
    let config = base(seed, STEPS);
    let mut out = CampaignRun::default();
    let started = Instant::now();
    let mut first: Option<(CampaignReport, TelemetryReport)> = None;
    let mut timeline = Timeline::with_blocks(1);
    timeline.sample();
    let setups: Vec<u64> = (0..SETUP_CYCLES).map(|_| setup_only(&config)).collect();
    timeline.sample();
    out.setup_ns = setups.iter().map(|&ns| timeline.scale(ns, 0)).collect();
    let window = Duration::from_secs(seconds);
    let mut campaigns = 0u32;
    // Start a campaign only while it should still end inside the window.
    while campaigns < MIN_CAMPAIGNS
        || (started.elapsed() + started.elapsed() / campaigns <= window
            && started.elapsed() < HARD_STOP)
    {
        let (report, telemetry) = run_chunked(&config, &mut out, tracer.as_deref_mut());
        campaigns += 1;
        out.attempted += SHARDS as u64;
        check_campaign(&report, &telemetry, STEPS, &mut out.failures);
        match &first {
            None => first = Some((report, telemetry)),
            Some((r, t)) => {
                if *r != report || *t != telemetry {
                    out.failures
                        .add(|| "two campaigns of one seed differ".into());
                }
            }
        }
    }
    out.report = first.map(|(r, _)| r);
    if !reference_checks {
        return out;
    }

    // The chunked path is `run_observed`'s computation.
    let small = base(seed, EQUIVALENCE_STEPS);
    let mut scratch = CampaignRun::default();
    let chunked = run_chunked(&small, &mut scratch, None);
    out.attempted += SHARDS as u64;
    match Campaign::split(&small, SHARDS).jobs(1).run_observed() {
        Ok(observed) if observed == chunked => {}
        Ok(_) => out
            .failures
            .add(|| "chunked campaign differs from run_observed".into()),
        Err(e) => out.failures.add(|| format!("run_observed failed: {e}")),
    }

    // E6 through the public entry point, as `fig7_histogram` runs it.
    out.attempted += SHARDS as u64;
    match Campaign::split(&base(E6_SEED, STEPS), SHARDS)
        .jobs(1)
        .run_observed()
    {
        Ok((report, telemetry)) => {
            check_campaign(&report, &telemetry, STEPS, &mut out.failures);
            check_e6(&report, &mut out.failures);
        }
        Err(e) => out.failures.add(|| format!("E6 campaign failed: {e}")),
    }
    out
}

/// Per-call costs of the campaign's voting and controller layers,
/// replayed on one shard's own ballots and (dtof, n) sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerReplay {
    /// Mean `majority_vote` over `u64` ballots, ns.
    pub majority_ns: f64,
    /// Mean `RedundancyController::observe`, ns.
    pub controller_ns: f64,
    /// Rounds replayed.
    pub rounds: u64,
}

/// Replays shard 0 of the seed's campaign: regenerates each step's
/// ballots from the shard's `replica-faults` stream exactly as the
/// experiment does, then times `majority_vote` and the controller over
/// batches of recorded rounds, at reference speed.  Fails when the
/// replay's adaptations disagree with the shard's report.
pub fn replay_layers(
    seed: u64,
    shard0: &afta_switchboard::ExperimentReport,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> LayerReplay {
    const CORRECT: u64 = 0xC0FFEE;
    const BATCH: usize = 65_536;
    let campaign = Campaign::split(&base(seed, STEPS), SHARDS);
    let shard = campaign.shards()[0].clone();
    let mut rng: rand::rngs::StdRng = SeedFactory::new(shard.seed).stream("replica-faults");
    let mut controller = RedundancyController::new(shard.policy);
    let mut timed = RedundancyController::new(shard.policy);
    let mut n = shard.policy.min;
    let mut ballots: Vec<u64> = Vec::with_capacity(BATCH * shard.policy.max);
    let mut bounds: Vec<usize> = Vec::with_capacity(BATCH + 1);
    let mut sequence: Vec<(u32, usize)> = Vec::with_capacity(BATCH);
    // Two timings per batch: a speed sample every four batches.
    let mut meter = Meter::<2>::start(8);
    let mut rounds = 0u64;
    let mut step = 1u64;
    let mut batch = 0u64;
    while step <= shard.steps {
        ballots.clear();
        bounds.clear();
        sequence.clear();
        bounds.push(0);
        while step <= shard.steps && sequence.len() < BATCH {
            let p = shard.profile.probability_at(Tick(step));
            for replica in 0..n {
                if p > 0.0 && rng.gen_bool(p) {
                    ballots.push(u64::MAX - replica as u64);
                } else {
                    ballots.push(CORRECT);
                }
            }
            let votes = &ballots[*bounds.last().expect("bounds start at 0")..];
            let round_dtof = match majority_vote(votes) {
                VoteOutcome::Majority { dissent, .. } => dtof(n, Some(dissent)),
                VoteOutcome::NoMajority => dtof(n, None),
            };
            bounds.push(ballots.len());
            sequence.push((round_dtof, n));
            if let Some(next) = controller.observe(round_dtof, n).new_count() {
                n = next;
            }
            step += 1;
        }
        let t0 = tracer.now();
        for w in bounds.windows(2) {
            std::hint::black_box(majority_vote(std::hint::black_box(&ballots[w[0]..w[1]])));
        }
        let t1 = tracer.now();
        for &(d, m) in &sequence {
            std::hint::black_box(timed.observe(std::hint::black_box(d), m));
        }
        let t2 = tracer.now();
        let id = Some((0, 0, batch));
        tracer.push(Span::new("voting.majority_u64", t0, t1, id));
        tracer.push(Span::new("switchboard.controller", t1, t2, id));
        meter.add(0, t1 - t0);
        meter.add(1, t2 - t1);
        rounds += sequence.len() as u64;
        batch += 1;
    }
    let report = shard0;
    if (timed.raises(), timed.lowers()) != (report.raises, report.lowers) {
        failures.add(|| {
            format!(
                "replayed controller made {}/{} raises/lowers, the shard {}/{}",
                timed.raises(),
                timed.lowers(),
                report.raises,
                report.lowers
            )
        });
    }
    let [vote_ns, control_ns] = meter.finish();
    LayerReplay {
        majority_ns: vote_ns / rounds.max(1) as f64,
        controller_ns: control_ns / rounds.max(1) as f64,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_path_equals_run_observed() {
        let small = base(7, 300_000);
        let mut out = CampaignRun::default();
        let chunked = run_chunked(&small, &mut out, None);
        let observed = Campaign::split(&small, SHARDS)
            .jobs(1)
            .run_observed()
            .unwrap();
        assert_eq!(chunked, observed);
        assert_eq!(out.steps, 300_000);
        let mut failures = Failures::default();
        check_campaign(&chunked.0, &chunked.1, 300_000, &mut failures);
        assert_eq!(failures, Failures::default());
    }

    #[test]
    fn e6_check_rejects_other_figures() {
        let report = Campaign::split(&base(7, 200_000), SHARDS).run().unwrap();
        let mut failures = Failures::default();
        check_e6(&report, &mut failures);
        assert_eq!(failures.count, 1);
    }
}
