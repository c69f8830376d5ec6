//! Telemetry bindings for voting rounds.
//!
//! [`VoteTelemetry`] pre-resolves the `voting.*` metric handles once and
//! then observes [`RoundReport`]s: every round lands in the
//! `voting.dtof` histogram, failed rounds bump `voting.failures` and are
//! journaled, and rounds whose distance-to-failure dips to the critical
//! band (dtof ≤ 1, the paper's "danger zone" that triggers a redundancy
//! raise) emit an [`TelemetryEvent::DtofDip`] record.

use afta_telemetry::{Counter, FixedHistogram, HistogramTally, Registry, TelemetryEvent, Tick};

use crate::RoundReport;

/// Histogram bounds for the `voting.dtof` metric: dtof values 0..=8
/// (n ≤ 16 replicas); larger distances land in the overflow bucket.
pub const DTOF_BOUNDS: [u64; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

/// A dtof at or below this level is journaled as a dip.
pub const DIP_LEVEL: u32 = 1;

/// A plain-integer tally of rounds' dtofs over [`DTOF_BOUNDS`], for
/// [`VoteTelemetry::add_tally`].
pub type DtofTally = HistogramTally<{ DTOF_BOUNDS.len() }>;

/// Pre-resolved `voting.*` metric handles.
///
/// [`observe`](Self::observe) records a round in full as it closes.  A
/// loop that closes millions of rounds, such as the §3.3 experiment's
/// `ExperimentRun::run_chunk`, instead counts `voting.rounds` and
/// `voting.dtof` in a [`DtofTally`] of its own and adds it once per
/// batch with [`add_tally`](Self::add_tally); it still calls
/// [`observe_events`](Self::observe_events) on every round, so failures
/// and dips are counted and journaled as they happen.
#[derive(Debug)]
pub struct VoteTelemetry {
    registry: Registry,
    rounds: Counter,
    failures: Counter,
    dtof: FixedHistogram,
}

impl VoteTelemetry {
    /// Resolves the voting metrics on `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        Self {
            rounds: registry.counter("voting.rounds"),
            failures: registry.counter("voting.failures"),
            dtof: registry.histogram("voting.dtof", &DTOF_BOUNDS),
            registry: registry.clone(),
        }
    }

    /// Observes one round at virtual time `tick`.
    pub fn observe<V>(&self, tick: Tick, report: &RoundReport<V>) {
        self.rounds.inc();
        self.dtof.record(u64::from(report.dtof));
        self.observe_events(tick, report);
    }

    /// An empty tally of rounds, for [`add_tally`](Self::add_tally).
    #[must_use]
    pub fn tally(&self) -> DtofTally {
        DtofTally::new(DTOF_BOUNDS)
    }

    /// Adds a batch of rounds the caller tallied: `voting.rounds` grows
    /// by the tally's count and `voting.dtof` by its buckets.  With
    /// [`observe_events`](Self::observe_events) on each of those rounds,
    /// the registry ends as [`observe`](Self::observe) on each would
    /// leave it.
    pub fn add_tally(&self, tally: &DtofTally) {
        self.rounds.add(tally.count());
        self.dtof.add_tally(tally);
    }

    /// The part of [`observe`](Self::observe) that is per event rather
    /// than per round: a failed round bumps `voting.failures` and is
    /// journaled, and a dip is journaled.
    pub fn observe_events<V>(&self, tick: Tick, report: &RoundReport<V>) {
        if !report.succeeded() {
            self.failures.inc();
            self.registry.record(
                tick,
                TelemetryEvent::VoteRound {
                    n: report.n,
                    dissent: report.outcome.dissent(),
                    failed: true,
                },
            );
        } else if report.dtof <= DIP_LEVEL {
            self.registry.record(
                tick,
                TelemetryEvent::DtofDip {
                    n: report.n,
                    dtof: report.dtof,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VotingFarm;

    #[test]
    fn rounds_failures_and_dips_are_observed() {
        let registry = Registry::new();
        let vt = VoteTelemetry::new(&registry);

        // Healthy round: full consensus at n = 5, dtof = 3.
        let mut farm = VotingFarm::new(5, |_: usize, x: &i32| *x);
        vt.observe(Tick(1), &farm.round(&7));

        // Dipping round: 2 dissenters at n = 5, dtof = 1.
        let mut dipping = VotingFarm::new(5, |i: usize, x: &i32| if i < 2 { -1 } else { *x });
        vt.observe(Tick(2), &dipping.round(&7));

        // Failed round: three-way split.
        let mut split = VotingFarm::new(3, |i: usize, _: &()| i);
        vt.observe(Tick(3), &split.round(&()));

        let report = registry.report();
        assert_eq!(report.counter("voting.rounds"), 3);
        assert_eq!(report.counter("voting.failures"), 1);
        let h = report.histogram("voting.dtof").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.bucket_count(3), Some(1));
        assert_eq!(h.bucket_count(1), Some(1));
        assert_eq!(h.bucket_count(0), Some(1));

        let dips: Vec<_> = report.journal_of_kind("dtof-dip").collect();
        assert_eq!(dips.len(), 1);
        assert_eq!(dips[0].event, TelemetryEvent::DtofDip { n: 5, dtof: 1 });
        let failures: Vec<_> = report.journal_of_kind("vote-round").collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].event,
            TelemetryEvent::VoteRound {
                n: 3,
                dissent: None,
                failed: true
            }
        );
    }

    #[test]
    fn a_tally_with_per_event_observation_equals_observing_each_round() {
        // Consensus, a dip, a failure and a wide margin past the last
        // bound (n = 19, dtof 10, the overflow bucket).
        let mut rounds = vec![
            VotingFarm::new(5, |_: usize, x: &i32| *x).round(&7),
            VotingFarm::new(5, |i: usize, x: &i32| if i < 2 { -1 } else { *x }).round(&7),
            VotingFarm::new(3, |i: usize, _: &i32| i as i32).round(&7),
            VotingFarm::new(19, |_: usize, x: &i32| *x).round(&7),
        ];
        rounds.extend(rounds.clone());

        let each = Registry::new();
        let vt = VoteTelemetry::new(&each);
        for (t, report) in rounds.iter().enumerate() {
            vt.observe(Tick(t as u64), report);
        }

        let tallied = Registry::new();
        let vt = VoteTelemetry::new(&tallied);
        let mut tally = vt.tally();
        for (t, report) in rounds.iter().enumerate() {
            tally.record(u64::from(report.dtof));
            vt.observe_events(Tick(t as u64), report);
        }
        vt.add_tally(&tally);

        assert_eq!(tallied.report(), each.report());
        assert_eq!(tallied.report().to_json(), each.report().to_json());
        let dtof = each.report().histogram("voting.dtof").cloned().unwrap();
        assert_eq!(dtof.counts.last(), Some(&2), "{dtof:?}");
    }

    #[test]
    fn disabled_registry_observes_for_free() {
        let vt = VoteTelemetry::new(&Registry::disabled());
        let mut farm = VotingFarm::new(3, |_: usize, x: &i32| *x);
        vt.observe(Tick(0), &farm.round(&1));
    }
}
