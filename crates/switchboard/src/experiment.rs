//! The §3.3 fault-injection experiments (Figs. 6 and 7).
//!
//! Each simulated time step is one voting round of a restoring organ
//! whose replicas fail independently with the probability the
//! [`EnvironmentProfile`] assigns to the current tick.  The
//! [`RedundancyController`] closes the round
//! ([`close_round`](RedundancyController::close_round): vote, dtof and
//! control law); its decisions resize the organ.
//! Dwell time per redundancy degree is accounted exactly as in Fig. 7.

use afta_eventbus::Bus;
use afta_faultinject::EnvironmentProfile;
use afta_sim::stats::{Histogram, TimeWeighted};
use afta_sim::{SeedFactory, Tick};
use afta_telemetry::{Registry, TelemetryEvent};
use afta_voting::{RoundArena, VoteTelemetry};
use rand::Rng;

use crate::controller::{Decision, RedundancyController, RedundancyPolicy};

/// A disturbance reading, published on the event bus after every round —
/// the knowledge the Reflective Switchboards "deduct and publish".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisturbanceReading {
    /// The voting round's virtual time.
    pub tick: Tick,
    /// Replicas used.
    pub n: usize,
    /// Faulty replicas this round.
    pub faults: usize,
    /// The round's distance-to-failure.
    pub dtof: u32,
}

/// A redundancy adaptation, published on the event bus when it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyChange {
    /// When the change happened.
    pub tick: Tick,
    /// The decision applied.
    pub decision: Decision,
}

/// One sampled point of the Fig. 6 time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TracePoint {
    /// Virtual time of the sample.
    pub tick: Tick,
    /// Replica count in effect.
    pub n: usize,
    /// The round's dtof.
    pub dtof: u32,
    /// Faults injected into the round's replicas.
    pub faults: usize,
}

/// Configuration of a §3.3 experiment run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentConfig {
    /// Number of simulated time steps (the paper runs up to 65 million).
    pub steps: u64,
    /// Master seed.
    pub seed: u64,
    /// The disturbance environment.
    pub profile: EnvironmentProfile,
    /// The control law.
    pub policy: RedundancyPolicy,
    /// Sample the Fig. 6 trace every this many steps (0 = no periodic
    /// samples; adaptation events are always recorded).
    pub trace_stride: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            steps: 100_000,
            seed: 42,
            profile: EnvironmentProfile::cyclic_storms(200_000, 2_000, 0.000001, 0.08),
            policy: RedundancyPolicy::default(),
            trace_stride: 0,
        }
    }
}

/// Results of a §3.3 experiment run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentReport {
    /// Steps simulated.
    pub steps: u64,
    /// Dwell time per redundancy degree (Fig. 7's histogram).
    pub histogram: Histogram,
    /// Rounds whose voting found no majority — the dimensioning failures
    /// the scheme exists to avoid (the paper reports **zero**).
    pub voting_failures: u64,
    /// Total faults injected into replicas.
    pub faults_injected: u64,
    /// Raise adaptations.
    pub raises: u64,
    /// Lower adaptations.
    pub lowers: u64,
    /// The sampled Fig. 6 trace.
    pub trace: Vec<TracePoint>,
}

impl ExperimentReport {
    /// Fraction of time spent at the minimal redundancy degree — the
    /// paper's headline "99.92798 % of its execution time making use of
    /// the minimal degree of redundancy, namely 3".
    #[must_use]
    pub fn fraction_at_min(&self, min: usize) -> f64 {
        self.histogram.fraction(min as u64)
    }
}

/// Runs the experiment: a restoring organ under environmental fault
/// injection with autonomic redundancy dimensioning.
///
/// An optional [`Bus`] receives [`DisturbanceReading`]s and
/// [`RedundancyChange`]s, so external observers (e.g. the knowledge web)
/// can follow along.
///
/// # Panics
///
/// Panics when the policy is invalid.
#[must_use]
pub fn run_experiment(config: &ExperimentConfig, bus: Option<&Bus>) -> ExperimentReport {
    run_experiment_observed(config, bus, &Registry::disabled())
}

/// Bounds of the `switchboard.time_at_r` histogram for a policy: the
/// redundancy degrees the control law can visit (`min`, `min + step`, …,
/// `max`).
#[must_use]
pub fn redundancy_bounds(policy: &RedundancyPolicy) -> Vec<u64> {
    (policy.min..=policy.max)
        .step_by(policy.step.max(1))
        .map(|r| r as u64)
        .collect()
}

/// [`run_experiment`] with telemetry: identical simulation (same RNG
/// stream, same report), plus
///
/// * `voting.rounds` / `voting.failures` / the `voting.dtof` histogram
///   (via [`VoteTelemetry`], with dip and failed-round journal records);
/// * `switchboard.faults_injected` / `switchboard.raises` /
///   `switchboard.lowers` counters and the `switchboard.redundancy`
///   gauge;
/// * [`TelemetryEvent::RedundancyRaised`] / [`TelemetryEvent::RedundancyLowered`]
///   journal records for every adaptation;
/// * the `switchboard.time_at_r` histogram, loaded from the exact dwell
///   accounting so its per-degree buckets equal
///   [`ExperimentReport::histogram`]'s counts (Fig. 7's numbers).
///
/// `voting.rounds` and `voting.dtof` are tallied in plain integers and
/// land at the end of each [`ExperimentRun::run_chunk`], here once for
/// the whole run; failures, journal records and the `switchboard.*`
/// metrics land as each event happens.
///
/// # Panics
///
/// Panics when the policy is invalid.
#[must_use]
pub fn run_experiment_observed(
    config: &ExperimentConfig,
    bus: Option<&Bus>,
    telemetry: &Registry,
) -> ExperimentReport {
    let mut run = ExperimentRun::new(config);
    let _ = run.run_chunk(u64::MAX, bus, telemetry);
    run.into_report(telemetry)
}

/// A frozen, serialisable snapshot of an [`ExperimentRun`] at a step
/// boundary.  Feeding it to [`ExperimentRun::resume`] continues the run
/// bit-identically — the RNG state, control law, dwell accounting, and
/// trace are all captured, so an interrupted 65-million-step campaign
/// shard loses no work and changes no result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentCheckpoint {
    /// The configuration of the checkpointed run.
    pub config: ExperimentConfig,
    /// The first step the resumed run will simulate (`steps + 1` when the
    /// run had already finished).
    pub next_step: u64,
    /// The fault-stream RNG's internal state.
    pub rng_state: [u64; 4],
    /// The control law, mid-flight (streak counters included).
    pub controller: RedundancyController,
    /// Replica count in effect.
    pub n: usize,
    /// Dwell-time accounting up to the checkpoint.
    pub dwell: TimeWeighted,
    /// Failed voting rounds so far.
    pub voting_failures: u64,
    /// Faults injected so far.
    pub faults_injected: u64,
    /// The Fig. 6 trace accumulated so far.
    pub trace: Vec<TracePoint>,
}

/// The §3.3 experiment as a resumable state machine.
///
/// [`run_experiment`]/[`run_experiment_observed`] are thin wrappers that
/// drive one `ExperimentRun` to completion in a single chunk.  Campaign
/// shards instead advance a run in bounded chunks ([`ExperimentRun::run_chunk`]),
/// snapshot it at any step boundary ([`ExperimentRun::checkpoint`]), and
/// later pick it up again ([`ExperimentRun::resume`]) — with the
/// guarantee that any chunking of the step range produces a report
/// bit-identical to the uninterrupted run.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    config: ExperimentConfig,
    rng: rand::rngs::StdRng,
    controller: RedundancyController,
    n: usize,
    dwell: TimeWeighted,
    voting_failures: u64,
    faults_injected: u64,
    trace: Vec<TracePoint>,
    next_step: u64,
}

impl ExperimentRun {
    /// Starts a run at step 1.
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid.
    #[must_use]
    pub fn new(config: &ExperimentConfig) -> Self {
        let seeds = SeedFactory::new(config.seed);
        let controller = RedundancyController::new(config.policy);
        let n = config.policy.min;
        Self {
            config: config.clone(),
            rng: seeds.stream("replica-faults"),
            controller,
            n,
            dwell: TimeWeighted::new(Tick::ZERO, n as u64),
            voting_failures: 0,
            faults_injected: 0,
            trace: Vec::new(),
            next_step: 1,
        }
    }

    /// Reconstructs a run from a [`checkpoint`](ExperimentRun::checkpoint).
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's step cursor lies outside the
    /// configured step range.
    #[must_use]
    pub fn resume(checkpoint: ExperimentCheckpoint) -> Self {
        assert!(
            checkpoint.next_step >= 1 && checkpoint.next_step <= checkpoint.config.steps + 1,
            "checkpoint cursor {} outside 1..={}",
            checkpoint.next_step,
            checkpoint.config.steps + 1
        );
        Self {
            config: checkpoint.config,
            rng: rand::rngs::StdRng::from_state(checkpoint.rng_state),
            controller: checkpoint.controller,
            n: checkpoint.n,
            dwell: checkpoint.dwell,
            voting_failures: checkpoint.voting_failures,
            faults_injected: checkpoint.faults_injected,
            trace: checkpoint.trace,
            next_step: checkpoint.next_step,
        }
    }

    /// Snapshots the run at the current step boundary.
    #[must_use]
    pub fn checkpoint(&self) -> ExperimentCheckpoint {
        ExperimentCheckpoint {
            config: self.config.clone(),
            next_step: self.next_step,
            rng_state: self.rng.state(),
            controller: self.controller.clone(),
            n: self.n,
            dwell: self.dwell.clone(),
            voting_failures: self.voting_failures,
            faults_injected: self.faults_injected,
            trace: self.trace.clone(),
        }
    }

    /// The run's configuration.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The next step the run will simulate (1-based).
    #[must_use]
    pub fn next_step(&self) -> u64 {
        self.next_step
    }

    /// Whether every configured step has been simulated.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_step > self.config.steps
    }

    /// Advances the run by at most `max_steps` steps and returns how many
    /// were actually simulated (fewer only when the run finishes).
    ///
    /// Semantics are exactly those of [`run_experiment_observed`]: any
    /// sequence of `run_chunk` calls covering the full step range
    /// produces the same report and the same telemetry as one
    /// uninterrupted call.
    ///
    /// The chunk's rounds reach `voting.rounds` and `voting.dtof` at its
    /// end, as one tally (every 8,192 steps in the benchmark's timed
    /// chunks, once per shard under the campaign runner), so the loop
    /// makes no atomic add per round.  Failed rounds, dips, faults and
    /// adaptations reach their counters, the gauge and the journal as
    /// they happen.
    pub fn run_chunk(&mut self, max_steps: u64, bus: Option<&Bus>, telemetry: &Registry) -> u64 {
        let vote_telemetry = VoteTelemetry::new(telemetry);
        let mut rounds = vote_telemetry.tally();
        let faults_counter = telemetry.counter("switchboard.faults_injected");
        let raises_counter = telemetry.counter("switchboard.raises");
        let lowers_counter = telemetry.counter("switchboard.lowers");
        let redundancy_gauge = telemetry.gauge("switchboard.redundancy");
        redundancy_gauge.set(self.n as i64);

        // The replicated method: replica i returns the correct answer
        // unless the environment corrupts it this round, in which case it
        // returns a value unique to the replica (faulty channels do not
        // collude).
        const CORRECT: u64 = 0xC0FFEE;

        let remaining = self.config.steps.saturating_add(1) - self.next_step;
        let todo = remaining.min(max_steps);

        // Per-chunk scratch, reused across every step of the chunk: the
        // ballot arena makes the voting round allocation-free, and
        // readings are batched so the bus sees one `publish_batch` per
        // flush instead of a topic lookup per step.  Readings are
        // flushed before any `RedundancyChange` publish, so the
        // reading-before-change order of the unbatched loop is preserved
        // for callbacks and per-topic FIFO alike.
        let mut arena: RoundArena<u64> = RoundArena::with_replicas(self.n);
        let mut reading_batch: Vec<DisturbanceReading> = Vec::new();
        // The fault probability holds until `phase_end`; the first step
        // walks the profile's phases.
        let (mut p, mut phase_end) = (0.0, Tick::ZERO);

        for _ in 0..todo {
            let step = self.next_step;
            let tick = Tick(step);
            if tick >= phase_end {
                (p, phase_end) = self.config.profile.phase_at(tick);
            }
            let n = self.n;

            // Draw per-replica faults and synthesise the vote vector.
            let votes = arena.begin_round();
            let mut faults = 0usize;
            for replica in 0..n {
                if p > 0.0 && self.rng.gen_bool(p) {
                    faults += 1;
                    votes.push(u64::MAX - replica as u64);
                } else {
                    votes.push(CORRECT);
                }
            }
            self.faults_injected += faults as u64;
            if faults > 0 {
                faults_counter.add(faults as u64);
            }

            let (report, decision) = self.controller.close_round(arena.ballots(), n);
            if !report.succeeded() {
                self.voting_failures += 1;
            }
            rounds.record(u64::from(report.dtof));
            vote_telemetry.observe_events(tick, &report);

            if bus.is_some() {
                reading_batch.push(DisturbanceReading {
                    tick,
                    n,
                    faults,
                    dtof: report.dtof,
                });
            }

            let adapted = decision.new_count().is_some();
            if let Some(new_n) = decision.new_count() {
                self.n = new_n;
                self.dwell.transition(tick, new_n as u64);
                redundancy_gauge.set(new_n as i64);
                match decision {
                    Decision::Raise { from, to } => {
                        raises_counter.inc();
                        telemetry.record(tick, TelemetryEvent::RedundancyRaised { from, to });
                    }
                    Decision::Lower { from, to } => {
                        lowers_counter.inc();
                        telemetry.record(tick, TelemetryEvent::RedundancyLowered { from, to });
                    }
                    Decision::Hold => {}
                }
                if let Some(bus) = bus {
                    bus.publish_batch(reading_batch.drain(..));
                    bus.publish(RedundancyChange { tick, decision });
                }
            }

            let periodic =
                self.config.trace_stride > 0 && step.is_multiple_of(self.config.trace_stride);
            if periodic || adapted {
                self.trace.push(TracePoint {
                    tick,
                    n: self.n,
                    dtof: report.dtof,
                    faults,
                });
            }

            self.next_step += 1;
        }
        if let Some(bus) = bus {
            bus.publish_batch(reading_batch.drain(..));
        }
        vote_telemetry.add_tally(&rounds);
        todo
    }

    /// Closes the dwell accounting, mirrors the Fig. 7 histogram into the
    /// registry, and returns the report.
    ///
    /// # Panics
    ///
    /// Panics when steps remain — finish the run with
    /// [`ExperimentRun::run_chunk`] first.
    #[must_use]
    pub fn into_report(self, telemetry: &Registry) -> ExperimentReport {
        assert!(
            self.is_done(),
            "experiment has only reached step {} of {}",
            self.next_step.saturating_sub(1),
            self.config.steps
        );
        let histogram = self.dwell.finish(Tick(self.config.steps));

        // Mirror the exact dwell accounting into the registry so a
        // TelemetryReport reproduces Fig. 7's per-degree numbers verbatim.
        if telemetry.is_enabled() {
            let bounds = redundancy_bounds(&self.config.policy);
            let time_at_r = telemetry.histogram("switchboard.time_at_r", &bounds);
            for (degree, ticks) in histogram.iter() {
                time_at_r.record_n(degree, ticks);
            }
        }

        ExperimentReport {
            steps: self.config.steps,
            histogram,
            voting_failures: self.voting_failures,
            faults_injected: self.faults_injected,
            raises: self.controller.raises(),
            lowers: self.controller.lowers(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afta_faultinject::Phase;

    fn quick_config(steps: u64, profile: EnvironmentProfile) -> ExperimentConfig {
        ExperimentConfig {
            steps,
            seed: 7,
            profile,
            policy: RedundancyPolicy {
                lower_after: 200,
                ..RedundancyPolicy::default()
            },
            trace_stride: 0,
        }
    }

    #[test]
    fn calm_environment_stays_at_minimum() {
        let cfg = quick_config(10_000, EnvironmentProfile::calm(0.0));
        let report = run_experiment(&cfg, None);
        assert_eq!(report.voting_failures, 0);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.raises, 0);
        assert_eq!(report.lowers, 0);
        assert_eq!(report.histogram.count(3), 10_000);
        assert!((report.fraction_at_min(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn storm_raises_redundancy_then_calm_lowers_it() {
        // Fig. 6's shape: calm, storm, calm.  The storm intensity is
        // chosen so the scheme can out-adapt it (the paper reports zero
        // clashes "despite heavy and diversified fault injection").
        let profile = EnvironmentProfile::new(
            vec![
                Phase::new(2_000, 0.00001),
                Phase::new(1_000, 0.08),
                Phase::new(7_000, 0.00001),
            ],
            false,
        );
        let cfg = quick_config(10_000, profile);
        let report = run_experiment(&cfg, None);
        assert!(report.raises > 0, "storm must trigger raises: {report:?}");
        assert!(report.lowers > 0, "calm must trigger lowers");
        assert!(
            report.histogram.count(5) + report.histogram.count(7) + report.histogram.count(9) > 0
        );
        // The final calm stretch returns the system to the minimum.
        let last = report.trace.last().unwrap();
        assert_eq!(last.n, 3, "trace: ...{last:?}");
        // (Essentially) no voting failure despite the storm: the scheme
        // adapts before the disturbance can defeat the vote.
        assert!(
            report.voting_failures <= 2,
            "failures: {}",
            report.voting_failures
        );
    }

    #[test]
    fn fig7_shape_minimal_redundancy_dominates() {
        // Long run with rare short storms: the system must spend the
        // overwhelming majority of time at r = 3.
        let profile = EnvironmentProfile::cyclic_storms(100_000, 500, 0.000001, 0.08);
        let mut cfg = quick_config(300_000, profile);
        cfg.policy.lower_after = 1000; // the paper's value
        let report = run_experiment(&cfg, None);
        let frac = report.fraction_at_min(3);
        assert!(frac > 0.95, "fraction at min: {frac}");
        assert!(report.voting_failures <= 2, "report: {report:?}");
        // All four degrees of Fig. 7 appear.
        for r in [3u64, 5, 7] {
            assert!(report.histogram.count(r) > 0, "degree {r} never used");
        }
    }

    #[test]
    fn bus_receives_readings_and_changes() {
        let bus = Bus::new();
        let readings = bus.subscribe::<DisturbanceReading>();
        let changes = bus.subscribe::<RedundancyChange>();
        let profile = EnvironmentProfile::new(
            vec![
                Phase::new(100, 0.0),
                Phase::new(100, 0.4),
                Phase::new(800, 0.0),
            ],
            false,
        );
        let cfg = quick_config(1_000, profile);
        let report = run_experiment(&cfg, Some(&bus));
        assert_eq!(readings.pending() as u64, cfg.steps);
        assert_eq!(changes.pending() as u64, report.raises + report.lowers);
        assert!(report.raises > 0);
    }

    #[test]
    fn determinism_per_seed() {
        let profile = EnvironmentProfile::cyclic_storms(500, 100, 0.001, 0.3);
        let a = run_experiment(&quick_config(5_000, profile.clone()), None);
        let b = run_experiment(&quick_config(5_000, profile), None);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_stride_samples_periodically() {
        let mut cfg = quick_config(1_000, EnvironmentProfile::calm(0.0));
        cfg.trace_stride = 100;
        let report = run_experiment(&cfg, None);
        assert_eq!(report.trace.len(), 10);
        assert_eq!(report.trace[0].tick, Tick(100));
    }

    #[test]
    fn observed_run_matches_plain_run_and_mirrors_report() {
        let profile = EnvironmentProfile::new(
            vec![
                Phase::new(500, 0.00001),
                Phase::new(200, 0.2),
                Phase::new(2_000, 0.00001),
            ],
            false,
        );
        let cfg = quick_config(2_700, profile);

        let plain = run_experiment(&cfg, None);
        let registry = Registry::new();
        let observed = run_experiment_observed(&cfg, None, &registry);
        // Telemetry must not perturb the simulation.
        assert_eq!(plain, observed);

        let report = registry.report();
        assert_eq!(report.counter("voting.rounds"), cfg.steps);
        assert_eq!(report.counter("voting.failures"), observed.voting_failures);
        assert_eq!(
            report.counter("switchboard.faults_injected"),
            observed.faults_injected
        );
        assert_eq!(report.counter("switchboard.raises"), observed.raises);
        assert_eq!(report.counter("switchboard.lowers"), observed.lowers);
        assert_eq!(report.gauges["switchboard.redundancy"], 3);

        // The time-at-r histogram equals the report's dwell accounting,
        // bucket for bucket.
        let time_at_r = report.histogram("switchboard.time_at_r").unwrap();
        for degree in redundancy_bounds(&cfg.policy) {
            assert_eq!(
                time_at_r.bucket_count(degree),
                Some(observed.histogram.count(degree)),
                "degree {degree}"
            );
        }
        assert_eq!(time_at_r.count, observed.histogram.total());

        // Every adaptation is journaled.
        let raised = report.journal_of_kind("redundancy-raised").count() as u64;
        let lowered = report.journal_of_kind("redundancy-lowered").count() as u64;
        assert_eq!(raised, observed.raises);
        assert_eq!(lowered, observed.lowers);
    }

    #[test]
    fn flight_recorder_is_deterministic_for_a_seeded_run() {
        // Two observed runs with the same seed must produce
        // byte-identical flight-recorder journals (same events, same
        // order, same ticks) — the recorder is a replayable account of
        // the deterministic §3.3 simulation.
        let journal_of = |seed: u64| {
            let profile = EnvironmentProfile::new(
                vec![
                    Phase::new(400, 0.0001),
                    Phase::new(150, 0.25),
                    Phase::new(1_500, 0.0001),
                ],
                false,
            );
            let mut cfg = quick_config(2_050, profile);
            cfg.seed = seed;
            let registry = Registry::new();
            let _ = run_experiment_observed(&cfg, None, &registry);
            registry.journal_jsonl()
        };

        let first = journal_of(99);
        let second = journal_of(99);
        assert!(!first.is_empty());
        assert_eq!(first, second);

        // Sequence numbers are gap-free and ticks monotone — the journal
        // replays in causal order.
        let records = afta_telemetry::FlightRecorder::from_jsonl(&first).unwrap();
        for (i, pair) in records.windows(2).enumerate() {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "gap after record {i}");
            assert!(pair[1].tick >= pair[0].tick, "tick regression at {i}");
        }

        // A different seed tells a different story.
        assert_ne!(journal_of(100), first);
    }

    #[test]
    fn chunked_run_equals_uninterrupted_run() {
        let profile = EnvironmentProfile::cyclic_storms(700, 150, 0.0005, 0.25);
        let mut cfg = quick_config(6_000, profile);
        cfg.trace_stride = 500;

        let whole = run_experiment(&cfg, None);

        // Uneven chunk sizes, including zero-length and oversized ones.
        let registry = Registry::disabled();
        let mut run = ExperimentRun::new(&cfg);
        for chunk in [1u64, 0, 999, 2_500, 1, u64::MAX] {
            let _ = run.run_chunk(chunk, None, &registry);
        }
        assert!(run.is_done());
        assert_eq!(run.run_chunk(10, None, &registry), 0);
        assert_eq!(run.into_report(&registry), whole);
    }

    #[test]
    fn telemetry_does_not_depend_on_chunking() {
        // Storms hard enough to defeat the vote at n = 3 before the
        // controller raises it: failed rounds and dips by the hundred,
        // more than the journal holds.
        let profile = EnvironmentProfile::cyclic_storms(2_000, 600, 0.001, 0.3);
        let cfg = quick_config(30_000, profile);
        let chunked = |chunk: u64| {
            let registry = Registry::with_journal_capacity(1_024);
            let mut run = ExperimentRun::new(&cfg);
            while !run.is_done() {
                assert!(run.run_chunk(chunk, None, &registry) > 0);
            }
            (run.into_report(&registry), registry.report())
        };
        // Chunks of one step add each round's tally as it closes: the
        // per-round recording every other chunking must reproduce.
        let (report, telemetry) = chunked(1);
        assert_eq!(telemetry.counter("voting.rounds"), cfg.steps);
        assert_eq!(telemetry.histogram("voting.dtof").unwrap().count, cfg.steps);
        let failed = telemetry.journal_of_kind("vote-round").count();
        let dips = telemetry.journal_of_kind("dtof-dip").count();
        assert!(
            failed > 100 && dips > 100,
            "{failed} failed rounds, {dips} dips"
        );
        assert!(telemetry.journal_dropped > 0);
        assert!(report.voting_failures > 100);
        assert_eq!(telemetry.counter("voting.failures"), report.voting_failures);
        for chunk in [7, 8_192, u64::MAX] {
            let (other_report, other) = chunked(chunk);
            assert_eq!(other_report, report, "chunks of {chunk}");
            assert_eq!(other.to_json(), telemetry.to_json(), "chunks of {chunk}");
        }
    }

    #[test]
    fn checkpoint_resume_preserves_run_and_telemetry() {
        let profile = EnvironmentProfile::cyclic_storms(400, 120, 0.001, 0.3);
        let cfg = quick_config(3_000, profile);

        let whole_registry = Registry::new();
        let whole = run_experiment_observed(&cfg, None, &whole_registry);

        // Stop mid-run, serialise the checkpoint, resume elsewhere.
        let split_registry = Registry::new();
        let mut first = ExperimentRun::new(&cfg);
        let advanced = first.run_chunk(1_234, None, &split_registry);
        assert_eq!(advanced, 1_234);
        assert_eq!(first.next_step(), 1_235);
        let json = serde_json::to_string(&first.checkpoint()).unwrap();
        let checkpoint: ExperimentCheckpoint = serde_json::from_str(&json).unwrap();

        let mut second = ExperimentRun::resume(checkpoint);
        assert_eq!(second.config(), &cfg);
        let _ = second.run_chunk(u64::MAX, None, &split_registry);
        let report = second.into_report(&split_registry);

        assert_eq!(report, whole);
        assert_eq!(split_registry.report(), whole_registry.report());
    }

    #[test]
    #[should_panic(expected = "only reached step")]
    fn into_report_requires_completion() {
        let cfg = quick_config(100, EnvironmentProfile::calm(0.0));
        let mut run = ExperimentRun::new(&cfg);
        let _ = run.run_chunk(50, None, &Registry::disabled());
        let _ = run.into_report(&Registry::disabled());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn resume_rejects_out_of_range_cursor() {
        let cfg = quick_config(100, EnvironmentProfile::calm(0.0));
        let mut checkpoint = ExperimentRun::new(&cfg).checkpoint();
        checkpoint.next_step = 500;
        let _ = ExperimentRun::resume(checkpoint);
    }

    #[test]
    fn redundancy_bounds_follow_policy() {
        assert_eq!(
            redundancy_bounds(&RedundancyPolicy::default()),
            vec![3, 5, 7, 9]
        );
        let wide = RedundancyPolicy {
            max: 13,
            ..RedundancyPolicy::default()
        };
        assert_eq!(redundancy_bounds(&wide), vec![3, 5, 7, 9, 11, 13]);
    }

    #[test]
    fn histogram_total_equals_steps() {
        let profile = EnvironmentProfile::cyclic_storms(300, 200, 0.002, 0.3);
        let cfg = quick_config(20_000, profile);
        let report = run_experiment(&cfg, None);
        assert_eq!(report.histogram.total(), 20_000);
    }
}
