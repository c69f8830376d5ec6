//! # afta-voting — replication, majority voting, and distance-to-failure
//!
//! §3.3 of the paper assumes "that the replication-and-voting service is
//! available through an interface similar to the one of the Voting Farm.
//! Such service sets up a so-called 'restoring organ' after the user
//! supplied the number of replicas and the method to replicate."  This
//! crate is that service:
//!
//! * [`majority_vote`] / [`epsilon_vote`] — exact and inexact majority
//!   voters, and [`vote_of_n`], which counts missing ballots of the `n`
//!   voters asked as dissent;
//! * [`dtof`] — the paper's distance-to-failure,
//!   `dtof(n, m) = ceil(n/2) − m`, returning 0 when no majority exists;
//! * [`VotingFarm`] — a restoring organ whose replica count can be raised
//!   and lowered at run time (the knob the Reflective Switchboards turn);
//! * [`parallel_round`] — a thread-parallel replica execution helper.
//!
//! ```
//! use afta_voting::{dtof, majority_vote, VoteOutcome};
//!
//! // The paper's Fig. 5, n = 7:
//! assert_eq!(dtof(7, Some(0)), 4); // (a) consensus: farthest from failure
//! assert_eq!(dtof(7, Some(1)), 3); // (b)
//! assert_eq!(dtof(7, Some(2)), 2); // (c)
//! assert_eq!(dtof(7, Some(3)), 1);
//! assert_eq!(dtof(7, None), 0);    // (d) no majority: failure
//!
//! let outcome = majority_vote(&[1, 1, 2, 1, 1, 3, 1]);
//! assert_eq!(outcome, VoteOutcome::Majority { value: 1, dissent: 2 });
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod telemetry;
pub mod voters;

pub use arena::RoundArena;
pub use telemetry::{DtofTally, VoteTelemetry};
pub use voters::{median_vote, plurality_vote, weighted_majority_vote};

use std::fmt;

/// Result of a voting round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteOutcome<V> {
    /// A strict majority agreed on `value`; `dissent` replicas disagreed.
    Majority {
        /// The agreed value.
        value: V,
        /// Number of votes differing from the majority (the paper's *m*).
        dissent: usize,
    },
    /// No value reached a strict majority: the restoring organ failed this
    /// round.
    NoMajority,
}

impl<V> VoteOutcome<V> {
    /// The agreed value, if any.
    #[must_use]
    pub fn value(&self) -> Option<&V> {
        match self {
            VoteOutcome::Majority { value, .. } => Some(value),
            VoteOutcome::NoMajority => None,
        }
    }

    /// The dissent count *m*, or `None` when no majority was found.
    #[must_use]
    pub fn dissent(&self) -> Option<usize> {
        match self {
            VoteOutcome::Majority { dissent, .. } => Some(*dissent),
            VoteOutcome::NoMajority => None,
        }
    }

    /// The distance-to-failure of this outcome for `n` replicas.
    #[must_use]
    pub fn dtof(&self, n: usize) -> u32 {
        dtof(n, self.dissent())
    }
}

impl<V: fmt::Display> fmt::Display for VoteOutcome<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoteOutcome::Majority { value, dissent } => {
                write!(f, "majority on {value} (dissent {dissent})")
            }
            VoteOutcome::NoMajority => write!(f, "no majority"),
        }
    }
}

/// The paper's distance-to-failure:
///
/// > `dtof(n, m) = ceil(n/2) − m`, where *n* is the current number of
/// > replicas and *m* is the amount of votes that differ from the
/// > majority, if any such majority exists.  If no majority can be found
/// > dtof returns 0.
///
/// # Panics
///
/// Panics if `n == 0` or `m > n`.
#[must_use]
pub fn dtof(n: usize, m: Option<usize>) -> u32 {
    assert!(n > 0, "dtof requires at least one replica");
    if let Some(m) = m {
        assert!(m <= n, "dissent cannot exceed the replica count");
    }
    dtof_checked(n, m).expect("arguments validated above")
}

/// Non-panicking variant of [`dtof`] for static analyzers: returns `None`
/// when `n == 0` or `m > n` instead of panicking, so a misconfigured
/// voting-farm dimensioning can be *diagnosed* rather than crashed on.
#[must_use]
pub fn dtof_checked(n: usize, m: Option<usize>) -> Option<u32> {
    if n == 0 {
        return None;
    }
    match m {
        None => Some(0),
        Some(m) if m > n => None,
        Some(m) => {
            let half_up = n.div_ceil(2) as i64;
            Some((half_up - m as i64).max(0) as u32)
        }
    }
}

/// The maximum possible distance for `n` replicas (full consensus).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn dtof_max(n: usize) -> u32 {
    dtof(n, Some(0))
}

/// Exact majority voting: a value wins when strictly more than half the
/// votes equal it.
///
/// Implemented as Boyer–Moore majority-vote (candidate pass + verify
/// pass): no hashing, no allocation beyond cloning the winner.  A strict
/// majority value, when one exists, is unique and is always the
/// Boyer–Moore candidate, so the outcome is identical to counting every
/// ballot — this equivalence is exercised by a differential test against
/// a hash-map reference voter.
#[must_use]
pub fn majority_vote<V: Eq + Clone>(votes: &[V]) -> VoteOutcome<V> {
    let Some((candidate, _)) = boyer_moore_candidate(votes) else {
        return VoteOutcome::NoMajority;
    };
    let count = votes.iter().filter(|v| *v == candidate).count();
    if 2 * count > votes.len() {
        VoteOutcome::Majority {
            value: candidate.clone(),
            dissent: votes.len() - count,
        }
    } else {
        VoteOutcome::NoMajority
    }
}

/// Majority voting where the universe is the `n` voters *asked*, not
/// just the ballots cast: a value wins only with strictly more than
/// `n/2` ballots, and the dissent counts every asked voter that did not
/// agree, so a missing ballot (a timed-out peer, an absent client
/// stream) counts as dissent.
///
/// A winner over `n` is necessarily a strict majority of the cast
/// ballots too (`count > n/2 ≥ len/2`), so [`majority_vote`]'s
/// Boyer–Moore pass finds it without counting tables; only the dissent
/// is re-based from the cast ballots to the full universe.
#[must_use]
pub fn vote_of_n<V: Eq + Clone>(ballots: &[V], n: usize) -> VoteOutcome<V> {
    match majority_vote(ballots) {
        VoteOutcome::Majority { value, dissent } => {
            let count = ballots.len() - dissent;
            if 2 * count > n {
                VoteOutcome::Majority {
                    value,
                    dissent: n - count,
                }
            } else {
                VoteOutcome::NoMajority
            }
        }
        VoteOutcome::NoMajority => VoteOutcome::NoMajority,
    }
}

/// First pass of Boyer–Moore: the surviving candidate (and its pairing
/// balance).  If any strict majority exists, it is this candidate.
fn boyer_moore_candidate<V: Eq>(votes: &[V]) -> Option<(&V, usize)> {
    let mut it = votes.iter();
    let mut candidate = it.next()?;
    let mut balance = 1usize;
    for v in it {
        if balance == 0 {
            candidate = v;
            balance = 1;
        } else if v == candidate {
            balance += 1;
        } else {
            balance -= 1;
        }
    }
    Some((candidate, balance))
}

/// Inexact (epsilon) majority voting over floats: votes within `eps` of a
/// candidate count as agreeing with it; the winning cluster's
/// representative is the candidate with the most agreement.  Returns the
/// cluster representative, not a mean, so the output is always one of the
/// inputs.
///
/// # Panics
///
/// Panics if `eps` is negative or NaN.
#[must_use]
pub fn epsilon_vote(votes: &[f64], eps: f64) -> VoteOutcome<f64> {
    assert!(eps >= 0.0, "epsilon must be non-negative");
    if votes.is_empty() {
        return VoteOutcome::NoMajority;
    }
    let mut best_idx = 0;
    let mut best_count = 0;
    for (i, &candidate) in votes.iter().enumerate() {
        let count = votes
            .iter()
            .filter(|&&v| (v - candidate).abs() <= eps)
            .count();
        if count > best_count {
            best_count = count;
            best_idx = i;
        }
    }
    if 2 * best_count > votes.len() {
        VoteOutcome::Majority {
            value: votes[best_idx],
            dissent: votes.len() - best_count,
        }
    } else {
        VoteOutcome::NoMajority
    }
}

/// Report of one restoring-organ round: a [`VotingFarm`] round, or a
/// round closed by a redundancy controller over ballots gathered
/// elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport<V> {
    /// Replica count used this round.
    pub n: usize,
    /// The voting outcome.
    pub outcome: VoteOutcome<V>,
    /// Distance-to-failure of the round.
    pub dtof: u32,
}

impl<V> RoundReport<V> {
    /// Whether the round delivered a result.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, VoteOutcome::Majority { .. })
    }

    /// Whether a member asked this round erred, given the ballot it cast
    /// (`None`: it cast none).  A missing ballot errs, like a wrong one;
    /// a cast ballot errs when it differs from the majority.  With no
    /// majority there is no reference value, so a cast ballot does not
    /// err.
    #[must_use]
    pub fn erred(&self, ballot: Option<&V>) -> bool
    where
        V: PartialEq,
    {
        match (ballot, self.outcome.value()) {
            (None, _) => true,
            (Some(ballot), Some(majority)) => ballot != majority,
            (Some(_), None) => false,
        }
    }
}

/// A restoring organ: *n* replicas of a method plus a majority voter,
/// with the replica count adjustable at run time.
///
/// The replicated method receives `(replica_index, input)` so a fault
/// injector can corrupt individual replicas.
///
/// ```
/// use afta_voting::VotingFarm;
///
/// // Replica 1 is broken and always returns garbage.
/// let mut farm = VotingFarm::new(3, |replica: usize, input: &i32| {
///     if replica == 1 { -1 } else { input * 2 }
/// });
/// let report = farm.round(&21);
/// assert_eq!(report.outcome.value(), Some(&42));
/// assert_eq!(report.dtof, 1); // ceil(3/2) - 1 dissent
/// ```
pub struct VotingFarm<In, Out, F>
where
    F: FnMut(usize, &In) -> Out,
{
    replicas: usize,
    method: F,
    rounds: u64,
    failures: u64,
    arena: RoundArena<Out>,
    _marker: std::marker::PhantomData<fn(&In) -> Out>,
}

impl<In, Out, F> fmt::Debug for VotingFarm<In, Out, F>
where
    F: FnMut(usize, &In) -> Out,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VotingFarm")
            .field("replicas", &self.replicas)
            .field("rounds", &self.rounds)
            .field("failures", &self.failures)
            .finish_non_exhaustive()
    }
}

impl<In, Out, F> VotingFarm<In, Out, F>
where
    Out: Eq + Clone,
    F: FnMut(usize, &In) -> Out,
{
    /// Sets up the restoring organ with `replicas` copies of `method`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn new(replicas: usize, method: F) -> Self {
        assert!(replicas > 0, "a restoring organ needs at least 1 replica");
        Self {
            replicas,
            method,
            rounds: 0,
            failures: 0,
            arena: RoundArena::with_replicas(replicas),
            _marker: std::marker::PhantomData,
        }
    }

    /// Current replica count.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds that ended with no majority.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Sets the replica count (the §3.3 "secure messages that ask to
    /// raise or lower the current number of replicas").
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_replicas(&mut self, n: usize) {
        assert!(n > 0, "a restoring organ needs at least 1 replica");
        self.replicas = n;
    }

    /// Raises the replica count by `by`, capped at `cap`.
    pub fn raise(&mut self, by: usize, cap: usize) {
        self.replicas = (self.replicas + by).min(cap);
    }

    /// Lowers the replica count by `by`, floored at `floor`.
    ///
    /// # Panics
    ///
    /// Panics if `floor == 0`.
    pub fn lower(&mut self, by: usize, floor: usize) {
        assert!(floor > 0, "floor must keep at least 1 replica");
        self.replicas = self.replicas.saturating_sub(by).max(floor);
    }

    /// Runs all replicas on `input` and votes on the results.
    ///
    /// Ballots land in the farm's [`RoundArena`], so in steady state a
    /// round allocates nothing (after the arena has grown to the current
    /// replica count).
    pub fn round(&mut self, input: &In) -> RoundReport<Out> {
        let ballots = self.arena.begin_round();
        for i in 0..self.replicas {
            ballots.push((self.method)(i, input));
        }
        let outcome = self.arena.vote();
        let d = outcome.dtof(self.replicas);
        self.rounds += 1;
        if !matches!(outcome, VoteOutcome::Majority { .. }) {
            self.failures += 1;
        }
        RoundReport {
            n: self.replicas,
            outcome,
            dtof: d,
        }
    }

    /// Replica indices that dissented from the last round's majority
    /// (empty after consensus or a failed round).  See
    /// [`RoundArena::dissenters`].
    #[must_use]
    pub fn last_dissenters(&self) -> &[usize] {
        self.arena.dissenters()
    }
}

/// Runs `n` replicas of a thread-safe method in parallel (one thread per
/// replica) and votes on the results.  Use for genuinely expensive
/// replicated computations; for simulation workloads the sequential
/// [`VotingFarm`] is faster.
///
/// # Panics
///
/// Panics if `n == 0` or a replica thread panics.
#[must_use]
pub fn parallel_round<In, Out, F>(n: usize, method: &F, input: &In) -> RoundReport<Out>
where
    In: Sync,
    Out: Eq + Clone + Send,
    F: Fn(usize, &In) -> Out + Sync,
{
    assert!(n > 0, "a restoring organ needs at least 1 replica");
    let votes: Vec<Out> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| scope.spawn(move || method(i, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .collect()
    });
    let outcome = majority_vote(&votes);
    let d = outcome.dtof(n);
    RoundReport {
        n,
        outcome,
        dtof: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_of_n_requires_majority_of_the_asked() {
        let ballots = ["a".to_string(), "a".to_string()];
        // 2 of 3 asked: majority.
        assert_eq!(
            vote_of_n(&ballots, 3),
            VoteOutcome::Majority {
                value: "a".into(),
                dissent: 1
            }
        );
        // 2 of 5 asked: not a majority even though every ballot agrees.
        assert_eq!(vote_of_n(&ballots, 5), VoteOutcome::NoMajority);
        assert_eq!(vote_of_n::<String>(&[], 3), VoteOutcome::NoMajority);

        // Mixed ballots: the winner needs > n/2 of the *asked*, and the
        // dissent is re-based onto n.
        let mixed = ["a".to_string(), "b".to_string(), "a".to_string()];
        assert_eq!(
            vote_of_n(&mixed, 4),
            VoteOutcome::NoMajority,
            "2 of 4 is not strict"
        );
        assert_eq!(
            vote_of_n(&mixed, 3),
            VoteOutcome::Majority {
                value: "a".into(),
                dissent: 1
            }
        );
    }

    #[test]
    fn erred_judges_every_member_by_one_rule() {
        let report = |outcome| RoundReport {
            n: 3,
            outcome,
            dtof: 0,
        };
        let majority = report(VoteOutcome::Majority {
            value: 1,
            dissent: 1,
        });
        let split = report(VoteOutcome::NoMajority);
        assert!(majority.erred(None), "absent");
        assert!(!majority.erred(Some(&1)), "agreeing");
        assert!(majority.erred(Some(&2)), "disagreeing");
        assert!(!split.erred(Some(&2)), "present with no majority");
        assert!(split.erred(None), "absent with no majority");
    }

    #[test]
    fn fig5_dtof_values() {
        // n = 7: the paper's Fig. 5 panels (a)-(d).
        assert_eq!(dtof(7, Some(0)), 4);
        assert_eq!(dtof(7, Some(1)), 3);
        assert_eq!(dtof(7, Some(2)), 2);
        assert_eq!(dtof(7, Some(3)), 1);
        assert_eq!(dtof(7, None), 0);
    }

    #[test]
    fn dtof_bounds_hold_for_many_n() {
        for n in 1..=31usize {
            let max = dtof_max(n);
            assert_eq!(max, n.div_ceil(2) as u32);
            for m in 0..=n {
                let d = dtof(n, Some(m));
                assert!(d <= max, "n={n} m={m}");
            }
            assert_eq!(dtof(n, None), 0);
        }
    }

    #[test]
    fn dtof_checked_agrees_and_never_panics() {
        for n in 1..=15usize {
            for m in 0..=n {
                assert_eq!(dtof_checked(n, Some(m)), Some(dtof(n, Some(m))));
            }
            assert_eq!(dtof_checked(n, None), Some(0));
        }
        assert_eq!(dtof_checked(0, Some(0)), None);
        assert_eq!(dtof_checked(0, None), None);
        assert_eq!(dtof_checked(3, Some(4)), None);
    }

    #[test]
    fn dtof_zero_voter_round_is_undefined_not_zero() {
        // A round that asked nobody has no distance-to-failure: the
        // checked variant must distinguish "undefined" (None) from the
        // legitimate "majority already failed" (Some(0)).
        for m in [None, Some(0), Some(1), Some(usize::MAX)] {
            assert_eq!(dtof_checked(0, m), None);
        }
    }

    #[test]
    fn dtof_all_dissent_round_is_exactly_zero() {
        // m == n: every replica dissented.  The distance must clamp at
        // zero for every n — the subtraction ceil(n/2) - n would go
        // negative for n >= 1 if computed naively in unsigned arithmetic.
        for n in 1..=25usize {
            assert_eq!(dtof_checked(n, Some(n)), Some(0), "n = {n}");
            assert_eq!(dtof(n, Some(n)), 0, "n = {n}");
            // One past all-dissent is no longer a valid round at all.
            assert_eq!(dtof_checked(n, Some(n + 1)), None, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn dtof_zero_replicas_panics() {
        let _ = dtof(0, Some(0));
    }

    #[test]
    #[should_panic(expected = "dissent cannot exceed")]
    fn dtof_dissent_bound() {
        let _ = dtof(3, Some(4));
    }

    #[test]
    fn majority_basic() {
        assert_eq!(
            majority_vote(&[1, 1, 1]),
            VoteOutcome::Majority {
                value: 1,
                dissent: 0
            }
        );
        assert_eq!(
            majority_vote(&[1, 2, 1]),
            VoteOutcome::Majority {
                value: 1,
                dissent: 1
            }
        );
        assert_eq!(majority_vote(&[1, 2, 3]), VoteOutcome::NoMajority);
        // An exact half is NOT a strict majority.
        assert_eq!(majority_vote(&[1, 1, 2, 2]), VoteOutcome::NoMajority);
        assert_eq!(majority_vote::<i32>(&[]), VoteOutcome::NoMajority);
    }

    #[test]
    fn majority_matches_hashmap_reference() {
        // The pre-arena voter counted every ballot in a HashMap.  The
        // Boyer–Moore rewrite must be outcome-identical; enumerate every
        // 3-ary ballot pattern up to 6 replicas and compare.
        fn reference<V: Eq + std::hash::Hash + Clone>(votes: &[V]) -> VoteOutcome<V> {
            use std::collections::HashMap;
            if votes.is_empty() {
                return VoteOutcome::NoMajority;
            }
            let mut counts: HashMap<&V, usize> = HashMap::new();
            for v in votes {
                *counts.entry(v).or_insert(0) += 1;
            }
            let (best, count) = counts.into_iter().max_by_key(|&(_, c)| c).unwrap();
            if 2 * count > votes.len() {
                VoteOutcome::Majority {
                    value: best.clone(),
                    dissent: votes.len() - count,
                }
            } else {
                VoteOutcome::NoMajority
            }
        }
        for n in 0usize..=6 {
            for pattern in 0u32..3u32.pow(n as u32) {
                let mut p = pattern;
                let votes: Vec<u32> = (0..n)
                    .map(|_| {
                        let v = p % 3;
                        p /= 3;
                        v
                    })
                    .collect();
                assert_eq!(majority_vote(&votes), reference(&votes), "votes={votes:?}");
            }
        }
    }

    #[test]
    fn farm_reports_dissenters() {
        let mut farm = VotingFarm::new(5, |i: usize, x: &i32| if i % 2 == 1 { -1 } else { *x });
        let r = farm.round(&3);
        assert_eq!(r.outcome.value(), Some(&3));
        assert_eq!(farm.last_dissenters(), &[1, 3]);
        // A consensus round clears the set.
        farm.set_replicas(1);
        let _ = farm.round(&3);
        assert!(farm.last_dissenters().is_empty());
    }

    #[test]
    fn majority_single_vote() {
        assert_eq!(
            majority_vote(&["x"]),
            VoteOutcome::Majority {
                value: "x",
                dissent: 0
            }
        );
    }

    #[test]
    fn epsilon_vote_clusters() {
        // Three near-identical readings vs two outliers.
        let votes = [1.00, 1.01, 0.99, 5.0, -3.0];
        let out = epsilon_vote(&votes, 0.05);
        let v = *out.value().unwrap();
        assert!((v - 1.0).abs() <= 0.02);
        assert_eq!(out.dissent(), Some(2));
    }

    #[test]
    fn epsilon_vote_no_majority() {
        assert_eq!(
            epsilon_vote(&[1.0, 2.0, 3.0, 4.0], 0.1),
            VoteOutcome::NoMajority
        );
        assert_eq!(epsilon_vote(&[], 0.1), VoteOutcome::NoMajority);
    }

    #[test]
    fn epsilon_zero_is_exact() {
        let out = epsilon_vote(&[2.0, 2.0, 3.0], 0.0);
        assert_eq!(out.value(), Some(&2.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn epsilon_rejects_negative() {
        let _ = epsilon_vote(&[1.0], -0.1);
    }

    #[test]
    fn farm_round_and_counters() {
        let mut farm = VotingFarm::new(5, |i: usize, x: &i32| if i == 0 { 0 } else { *x });
        let r = farm.round(&7);
        assert_eq!(r.n, 5);
        assert!(r.succeeded());
        assert_eq!(r.outcome.value(), Some(&7));
        assert_eq!(r.dtof, 2); // ceil(5/2)=3, dissent 1
        assert_eq!(farm.rounds(), 1);
        assert_eq!(farm.failures(), 0);
    }

    #[test]
    fn farm_counts_failures() {
        // Every replica returns its own index: no majority.
        let mut farm = VotingFarm::new(3, |i: usize, _: &()| i);
        let r = farm.round(&());
        assert!(!r.succeeded());
        assert_eq!(r.dtof, 0);
        assert_eq!(farm.failures(), 1);
    }

    #[test]
    fn farm_resizing() {
        let mut farm = VotingFarm::new(3, |_: usize, x: &u8| *x);
        farm.raise(2, 9);
        assert_eq!(farm.replicas(), 5);
        farm.raise(100, 9);
        assert_eq!(farm.replicas(), 9);
        farm.lower(2, 3);
        assert_eq!(farm.replicas(), 7);
        farm.lower(100, 3);
        assert_eq!(farm.replicas(), 3);
        farm.set_replicas(5);
        assert_eq!(farm.replicas(), 5);
    }

    #[test]
    #[should_panic(expected = "at least 1 replica")]
    fn farm_zero_replicas_rejected() {
        let _ = VotingFarm::new(0, |_: usize, x: &u8| *x);
    }

    #[test]
    fn parallel_round_agrees_with_sequential() {
        let method = |i: usize, x: &u64| if i == 2 { 0 } else { x * 3 };
        let par = parallel_round(5, &method, &14);
        let mut farm = VotingFarm::new(5, method);
        let seq = farm.round(&14);
        assert_eq!(par.outcome, seq.outcome);
        assert_eq!(par.dtof, seq.dtof);
        assert_eq!(par.outcome.value(), Some(&42));
    }

    #[test]
    fn outcome_accessors_and_display() {
        let m = VoteOutcome::Majority {
            value: 9,
            dissent: 1,
        };
        assert_eq!(m.value(), Some(&9));
        assert_eq!(m.dissent(), Some(1));
        assert!(m.to_string().contains("majority on 9"));
        let n: VoteOutcome<i32> = VoteOutcome::NoMajority;
        assert_eq!(n.value(), None);
        assert_eq!(n.dissent(), None);
        assert!(n.to_string().contains("no majority"));
    }

    #[test]
    fn farm_debug() {
        let farm = VotingFarm::new(3, |_: usize, x: &u8| *x);
        assert!(format!("{farm:?}").contains("VotingFarm"));
    }
}
