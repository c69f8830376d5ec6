//! The autonomic redundancy control law of §3.3.
//!
//! "When dtof is critically low, the Reflective Switchboards request the
//! replication system to increase the number of redundant replicas.  When
//! dtof is high for a certain amount of consecutive runs — 1000 runs in
//! our experiments — a request to lower the number of replicas is
//! issued."
//!
//! [`RedundancyController::close_round`] is the whole round of that
//! restoring organ, vote, dtof and law, for every caller that gathers
//! ballots: the Fig. 7 experiment, the distributed voting farm and the
//! served tenants.

use std::fmt;

use afta_voting::{dtof_max, vote_of_n, RoundReport, VoteOutcome};
use serde::{Deserialize, Serialize};

/// Parameters of the control law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedundancyPolicy {
    /// Raise redundancy when the round's dtof is at or below this value.
    pub raise_threshold: u32,
    /// Replicas added/removed per adaptation (2 keeps n odd).
    pub step: usize,
    /// Minimum replica count (the paper's experiments bottom out at 3).
    pub min: usize,
    /// Maximum replica count (the paper's Fig. 7 shows r up to 9).
    pub max: usize,
    /// Consecutive full-consensus rounds required before lowering (the
    /// paper uses 1000).
    pub lower_after: u64,
}

impl Default for RedundancyPolicy {
    fn default() -> Self {
        Self {
            raise_threshold: 1,
            step: 2,
            min: 3,
            max: 9,
            lower_after: 1000,
        }
    }
}

impl RedundancyPolicy {
    /// Non-panicking validity check: returns the first problem found, or
    /// `Ok(())` for a well-formed policy.  Static tools (`afta-lint`) use
    /// this to reject a configuration *before* construction would panic.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint when `min` is
    /// zero or even, `max < min`, `step` is zero or odd, or `lower_after`
    /// is zero.
    pub fn check(&self) -> Result<(), String> {
        if self.min < 1 {
            return Err("min must be at least 1".into());
        }
        if self.min % 2 != 1 {
            return Err("min must be odd for clean majorities".into());
        }
        if self.max < self.min {
            return Err("max must be >= min".into());
        }
        if self.step < 1 {
            return Err("step must be positive".into());
        }
        if !self.step.is_multiple_of(2) {
            return Err("step must be even to preserve parity".into());
        }
        if self.lower_after < 1 {
            return Err("lower_after must be positive".into());
        }
        Ok(())
    }

    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics when `min` is zero or even, `max < min`, `step` is zero or
    /// odd, or `lower_after` is zero.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }
}

/// What the controller asks the replication system to do after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Increase redundancy.
    Raise {
        /// Replica count before.
        from: usize,
        /// Replica count after.
        to: usize,
    },
    /// Decrease redundancy.
    Lower {
        /// Replica count before.
        from: usize,
        /// Replica count after.
        to: usize,
    },
    /// Keep the current dimensioning.
    Hold,
}

impl Decision {
    /// The new replica count, when the decision changes it.
    #[must_use]
    pub fn new_count(&self) -> Option<usize> {
        match *self {
            Decision::Raise { to, .. } | Decision::Lower { to, .. } => Some(to),
            Decision::Hold => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Raise { from, to } => write!(f, "raise {from} -> {to}"),
            Decision::Lower { from, to } => write!(f, "lower {from} -> {to}"),
            Decision::Hold => write!(f, "hold"),
        }
    }
}

/// The dtof-driven redundancy controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedundancyController {
    policy: RedundancyPolicy,
    consensus_streak: u64,
    raises: u64,
    lowers: u64,
}

impl RedundancyController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid (see
    /// [`RedundancyPolicy::validate`]).
    #[must_use]
    pub fn new(policy: RedundancyPolicy) -> Self {
        policy.validate();
        Self {
            policy,
            consensus_streak: 0,
            raises: 0,
            lowers: 0,
        }
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> RedundancyPolicy {
        self.policy
    }

    /// Total raise decisions issued.
    #[must_use]
    pub fn raises(&self) -> u64 {
        self.raises
    }

    /// Total lower decisions issued.
    #[must_use]
    pub fn lowers(&self) -> u64 {
        self.lowers
    }

    /// Current run of consecutive full-consensus rounds.
    #[must_use]
    pub fn consensus_streak(&self) -> u64 {
        self.consensus_streak
    }

    /// Feeds one voting round's dtof (with `n` the replica count that
    /// round) and returns the dimensioning decision.
    pub fn observe(&mut self, round_dtof: u32, n: usize) -> Decision {
        if round_dtof <= self.policy.raise_threshold {
            // Critically low distance: grow, if we can.
            self.consensus_streak = 0;
            if n < self.policy.max {
                let to = (n + self.policy.step).min(self.policy.max);
                self.raises += 1;
                return Decision::Raise { from: n, to };
            }
            return Decision::Hold;
        }
        if round_dtof == dtof_max(n) {
            // Full consensus: count toward the lowering quota.
            self.consensus_streak += 1;
            if self.consensus_streak >= self.policy.lower_after && n > self.policy.min {
                self.consensus_streak = 0;
                let to = n.saturating_sub(self.policy.step).max(self.policy.min);
                self.lowers += 1;
                return Decision::Lower { from: n, to };
            }
            return Decision::Hold;
        }
        // Mild dissent: neither critical nor consensus — stay put and
        // restart the quiet-period count.
        self.consensus_streak = 0;
        Decision::Hold
    }

    /// Closes one §3.3 restoring-organ round: votes over the `n` members
    /// asked (a member that cast no ballot dissents, see [`vote_of_n`]),
    /// computes the round's dtof and feeds it to the control law.
    ///
    /// `ballots` are the ballots the asked members cast, at most one
    /// each, so `ballots.len() <= n` (asserted in debug builds).  A round
    /// that asked nobody (`n == 0`) has no distance to failure: it
    /// reports no majority and dtof 0 and holds, without consulting the
    /// law.  Judge each member with [`RoundReport::erred`].
    #[inline]
    pub fn close_round<V: Eq + Clone>(
        &mut self,
        ballots: &[V],
        n: usize,
    ) -> (RoundReport<V>, Decision) {
        debug_assert!(ballots.len() <= n, "more ballots than members asked");
        let (outcome, dtof, decision) = if n == 0 {
            (VoteOutcome::NoMajority, 0, Decision::Hold)
        } else {
            let outcome = vote_of_n(ballots, n);
            let dtof = outcome.dtof(n);
            let decision = self.observe(dtof, n);
            (outcome, dtof, decision)
        };
        (RoundReport { n, outcome, dtof }, decision)
    }
}

impl Default for RedundancyController {
    fn default() -> Self {
        Self::new(RedundancyPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> RedundancyPolicy {
        RedundancyPolicy {
            lower_after: 5,
            ..RedundancyPolicy::default()
        }
    }

    #[test]
    fn default_policy_matches_paper() {
        let p = RedundancyPolicy::default();
        assert_eq!(p.lower_after, 1000);
        assert_eq!(p.min, 3);
        assert_eq!(p.max, 9);
        p.validate();
    }

    #[test]
    fn raises_on_critical_dtof() {
        let mut c = RedundancyController::new(RedundancyPolicy::default());
        // n=3, full dissent -> dtof 0 -> raise to 5.
        assert_eq!(c.observe(0, 3), Decision::Raise { from: 3, to: 5 });
        assert_eq!(c.observe(1, 5), Decision::Raise { from: 5, to: 7 });
        assert_eq!(c.raises(), 2);
    }

    #[test]
    fn holds_at_cap() {
        let mut c = RedundancyController::new(RedundancyPolicy::default());
        assert_eq!(c.observe(0, 9), Decision::Hold);
        assert_eq!(c.raises(), 0);
    }

    #[test]
    fn lowers_after_consecutive_consensus() {
        let mut c = RedundancyController::new(quick_policy());
        // n=5: dtof_max = 3.
        for _ in 0..4 {
            assert_eq!(c.observe(3, 5), Decision::Hold);
        }
        assert_eq!(c.observe(3, 5), Decision::Lower { from: 5, to: 3 });
        assert_eq!(c.lowers(), 1);
        assert_eq!(c.consensus_streak(), 0);
    }

    #[test]
    fn never_lowers_below_min() {
        let mut c = RedundancyController::new(quick_policy());
        for _ in 0..100 {
            assert_ne!(
                c.observe(2, 3),
                Decision::Lower { from: 3, to: 1 },
                "n=3 (dtof_max=2) must never lower below min"
            );
        }
        assert_eq!(c.lowers(), 0);
    }

    #[test]
    fn mild_dissent_resets_streak() {
        let mut c = RedundancyController::new(quick_policy());
        for _ in 0..4 {
            c.observe(4, 7); // consensus at n=7 (dtof_max = 4)
        }
        assert_eq!(c.consensus_streak(), 4);
        assert_eq!(c.observe(3, 7), Decision::Hold); // one dissenter
        assert_eq!(c.consensus_streak(), 0);
        // The quota starts over.
        for _ in 0..4 {
            assert_eq!(c.observe(4, 7), Decision::Hold);
        }
        assert_eq!(c.observe(4, 7), Decision::Lower { from: 7, to: 5 });
    }

    #[test]
    fn raise_resets_streak() {
        let mut c = RedundancyController::new(quick_policy());
        for _ in 0..4 {
            c.observe(3, 5);
        }
        c.observe(0, 5); // critical -> raise, streak reset
        assert_eq!(c.consensus_streak(), 0);
    }

    #[test]
    fn close_round_is_vote_of_n_then_the_law() {
        use afta_voting::dtof;
        // Lowering after one consensus round lets every decision occur.
        let mut kernel = RedundancyController::new(RedundancyPolicy {
            lower_after: 1,
            ..RedundancyPolicy::default()
        });
        let mut twin = kernel.clone();
        // Every ballot pattern over a 3-value alphabet, n = 1..=6 members
        // asked, 0..=n of them casting.
        for n in 1usize..=6 {
            for cast in 0..=n {
                for pattern in 0..3u32.pow(cast as u32) {
                    let mut p = pattern;
                    let ballots: Vec<u32> = (0..cast)
                        .map(|_| {
                            let v = p % 3;
                            p /= 3;
                            v
                        })
                        .collect();
                    let outcome = vote_of_n(&ballots, n);
                    let d = dtof(n, outcome.dissent());
                    let (report, decision) = kernel.close_round(&ballots, n);
                    assert_eq!(
                        report,
                        RoundReport {
                            n,
                            outcome,
                            dtof: d
                        },
                        "{ballots:?}"
                    );
                    assert_eq!(decision, twin.observe(d, n), "n={n} {ballots:?}");
                }
            }
        }
        assert_eq!(kernel, twin);
        assert!(kernel.raises() > 0 && kernel.lowers() > 0);
    }

    #[test]
    fn a_round_that_asked_nobody_holds_without_the_law() {
        let mut c = RedundancyController::new(quick_policy());
        for _ in 0..3 {
            c.observe(2, 3); // consensus at n=3
        }
        let (report, decision) = c.close_round::<u32>(&[], 0);
        assert_eq!(
            report,
            RoundReport {
                n: 0,
                outcome: VoteOutcome::NoMajority,
                dtof: 0
            }
        );
        assert_eq!(decision, Decision::Hold);
        // Fed to the law, dtof 0 would have reset the streak and raised.
        assert_eq!((c.consensus_streak(), c.raises(), c.lowers()), (3, 0, 0));
    }

    #[test]
    fn decision_accessors() {
        assert_eq!(Decision::Raise { from: 3, to: 5 }.new_count(), Some(5));
        assert_eq!(Decision::Lower { from: 5, to: 3 }.new_count(), Some(3));
        assert_eq!(Decision::Hold.new_count(), None);
        assert!(Decision::Raise { from: 3, to: 5 }
            .to_string()
            .contains("raise"));
        assert_eq!(Decision::Hold.to_string(), "hold");
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_min_rejected() {
        RedundancyPolicy {
            min: 4,
            ..RedundancyPolicy::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "preserve parity")]
    fn odd_step_rejected() {
        RedundancyPolicy {
            step: 1,
            ..RedundancyPolicy::default()
        }
        .validate();
    }

    #[test]
    fn check_reports_without_panicking() {
        assert!(RedundancyPolicy::default().check().is_ok());
        let bad = RedundancyPolicy {
            max: 1,
            ..RedundancyPolicy::default()
        };
        assert_eq!(bad.check().unwrap_err(), "max must be >= min");
        let bad = RedundancyPolicy {
            lower_after: 0,
            ..RedundancyPolicy::default()
        };
        assert!(bad.check().unwrap_err().contains("lower_after"));
    }

    #[test]
    fn default_controller() {
        let c = RedundancyController::default();
        assert_eq!(c.policy().min, 3);
    }

    #[test]
    fn serde_roundtrip() {
        let c = RedundancyController::new(quick_policy());
        let json = serde_json::to_string(&c).unwrap();
        let back: RedundancyController = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
