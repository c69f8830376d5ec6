//! One hosted tenant: assumption + monitor + voting + redundancy control.
//!
//! A [`Tenant`] is the single-tenant AFTA stack in miniature, owned by
//! the server on a client application's behalf (the paper's §5 vision of
//! assumption failure tolerance as an *ambient service*):
//!
//! * the tenant's one declared [`Assumption`], that `ballot`
//!   observations stay within `[ballot_min, ballot_max]`, checked on each
//!   [`Request::Observe`], and a count of the observations that broke it;
//! * an [`AlphaCount`] monitor per client stream, judged against each
//!   completed voting round (the §3.3 restoring organ's memory): a
//!   stream that dissents or casts no ballot errs
//!   ([`RoundReport::erred`](afta_voting::RoundReport::erred));
//! * majority voting over the streams' ballots with a **round barrier**:
//!   round *r* completes when all `expected_clients` streams have
//!   balloted (or a [`Request::Tick`] forces it, counting the missing
//!   ballots as dissent);
//! * a [`RedundancyController`] closing each round
//!   ([`close_round`](RedundancyController::close_round): the vote, its
//!   distance to failure and the control law).
//!
//! Everything a round produces is folded into a rolling FNV-1a digest of
//! canonical text lines.  Because ballots are buffered per stream and
//! folded in sorted stream order, the digest depends only on *what* the
//! clients sent, never on arrival order — which is what lets the E8
//! differential demand bit-identical digests from a core called in
//! process and from the TCP reactor's worker pool.
//!
//! [`Request::Observe`]: crate::proto::Request::Observe
//! [`Request::Tick`]: crate::proto::Request::Tick

use std::cell::OnceCell;
use std::collections::BTreeMap;

use afta_alphacount::{AlphaCount, Judgment, Verdict};
use afta_core::prelude::*;
use afta_sim::{fnv1a_64, FNV_OFFSET};
use afta_switchboard::controller::{RedundancyController, RedundancyPolicy};
use afta_telemetry::{Counter, Gauge, Scope};
/// The round vote: a majority of the `expected_clients` streams, with
/// missing ballots counted as dissent (re-exported from `afta-voting`).
pub use afta_voting::vote_of_n;

use crate::proto::{RoundResult, TenantDigest, TenantId};

/// Most rounds one [`Tenant::tick`] completes.  A `Tick` names any
/// round, and each round it closes costs work, memory and one frame per
/// attached stream, all under the server core's lock; without a bound,
/// one small frame naming a far-future round would stall the server.
pub const MAX_TICK_ROUNDS: usize = 64;

/// Per-tenant quotas and policy, fixed at registration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuotas {
    /// Client streams a voting round waits for before completing.
    pub expected_clients: u32,
    /// Bounded mailbox capacity: data requests queued but not yet
    /// processed.  A full mailbox rejects with retry-after.
    pub mailbox_cap: usize,
    /// Most distinct streams the tenant may attach.
    pub max_streams: u32,
    /// Retry hint handed to throttled clients, in milliseconds.
    pub retry_after_ms: u64,
    /// Alpha-count threshold above which a stream is quarantined.  No
    /// request carries it: a tenant registered over the wire gets the
    /// default, 3.0.
    pub alpha_threshold: f64,
    /// Lower bound of the tenant's `ballot` context assumption.
    pub ballot_min: i64,
    /// Upper bound of the tenant's `ballot` context assumption.
    pub ballot_max: i64,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        Self {
            expected_clients: 3,
            mailbox_cap: 64,
            max_streams: 1024,
            retry_after_ms: 25,
            alpha_threshold: 3.0,
            // The Ariane-4 envelope: the default tenant watches for
            // ballots escaping a 16-bit signed range.
            ballot_min: -32768,
            ballot_max: 32767,
        }
    }
}

/// Lifecycle of a hosted tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Admitting and processing data requests.
    Active,
    /// Draining: data requests are rejected, digests stay readable.
    Quiescing,
}

/// The tenant's `serve.tenant.<id>.*` handles, each resolved on first
/// use and then held.  Resolving one formats and interns its name under
/// a process-wide lock ([`Scope::counter`]), many times the cost of the
/// increment itself, so no event resolves a name.  Registration
/// resolves none either: six lookups per tenant would multiply the
/// cost of registering it, for handles it may never use.
#[derive(Debug, Default)]
struct Handles {
    observes: OnceCell<Counter>,
    clashes: OnceCell<Counter>,
    rounds: OnceCell<Counter>,
    rejected: OnceCell<Counter>,
    quiesced: OnceCell<Counter>,
    dtof: OnceCell<Gauge>,
}

/// Adds one to the counter `name` of `scope`, whose handle `held` keeps.
fn count(scope: &Scope, held: &OnceCell<Counter>, name: &str) {
    held.get_or_init(|| scope.counter(name)).inc();
}

/// One hosted tenant (see the module docs).
#[derive(Debug)]
pub struct Tenant {
    id: TenantId,
    quotas: TenantQuotas,
    state: Lifecycle,
    /// The declared `ballot-magnitude` assumption every observation is
    /// checked against.
    assumption: Assumption,
    /// Observations that broke `assumption`.
    clashes: u64,
    /// Each attached stream's alpha-count; a stream whose verdict is
    /// permanent-or-intermittent counts as quarantined.
    streams: BTreeMap<u32, AlphaCount>,
    /// Ballots buffered per round, keyed `round -> stream -> value`.
    pending: BTreeMap<u64, BTreeMap<u32, String>>,
    /// The next round to complete; rounds complete strictly in order.
    cursor: u64,
    controller: RedundancyController,
    digest_acc: u64,
    rounds: u64,
    observes: u64,
    rejected: u64,
    scope: Scope,
    handles: Handles,
}

impl Tenant {
    /// Creates the tenant and declares its `ballot` range assumption.
    ///
    /// # Panics
    ///
    /// Panics when `quotas.ballot_min > quotas.ballot_max`.
    #[must_use]
    pub fn new(id: TenantId, quotas: TenantQuotas, scope: Scope) -> Self {
        let assumption = Assumption::builder("ballot-magnitude")
            .statement("client ballots stay within the declared range")
            .kind(AssumptionKind::ThirdPartySoftware)
            .expects(
                "ballot",
                Expectation::int_range(quotas.ballot_min, quotas.ballot_max),
            )
            .binding_time(BindingTime::RunTime)
            .origin("afta-serve/register-tenant")
            .build();
        Self {
            id,
            state: Lifecycle::Active,
            assumption,
            clashes: 0,
            streams: BTreeMap::new(),
            pending: BTreeMap::new(),
            cursor: 1,
            controller: RedundancyController::new(RedundancyPolicy::default()),
            digest_acc: FNV_OFFSET,
            rounds: 0,
            observes: 0,
            rejected: 0,
            scope,
            handles: Handles::default(),
            quotas,
        }
    }

    /// The tenant's id.
    #[must_use]
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's quotas.
    #[must_use]
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn lifecycle(&self) -> Lifecycle {
        self.state
    }

    /// Moves the tenant to [`Lifecycle::Quiescing`].
    pub fn quiesce(&mut self) {
        self.state = Lifecycle::Quiescing;
        count(&self.scope, &self.handles.quiesced, "quiesced");
    }

    /// Replaces the mailbox capacity (the reconfigurable quota knob).
    pub fn set_mailbox_cap(&mut self, cap: usize) {
        self.quotas.mailbox_cap = cap.max(1);
    }

    /// Counts one admission rejection against this tenant.
    pub fn count_rejected(&mut self) {
        self.rejected += 1;
        count(&self.scope, &self.handles.rejected, "rejected");
    }

    /// Whether `stream` may attach (already known, or under the cap).
    #[must_use]
    pub fn admit_stream(&self, stream: u32) -> bool {
        self.streams.contains_key(&stream) || (self.streams.len() as u32) < self.quotas.max_streams
    }

    fn attach(&mut self, stream: u32) {
        let threshold = self.quotas.alpha_threshold;
        self.streams
            .entry(stream)
            .or_insert_with(|| AlphaCount::with_threshold(threshold));
    }

    /// Checks an observation against the tenant's assumption; returns
    /// whether it holds.  Only the `ballot` key is constrained: any other
    /// key is counted and holds.
    pub fn observe(&mut self, stream: u32, key: &str, value: i64) -> bool {
        self.attach(stream);
        self.observes += 1;
        count(&self.scope, &self.handles.observes, "observes");
        let satisfied =
            key != self.assumption.fact_key() || self.assumption.holds_for(&Value::Int(value));
        if !satisfied {
            self.clashes += 1;
            count(&self.scope, &self.handles.clashes, "clashes");
        }
        satisfied
    }

    /// Buffers `stream`'s ballot for `round`, then completes every round
    /// whose barrier is now met, in order.  Returns the completed
    /// rounds' results (usually zero or one).
    ///
    /// A round buffers at most `expected_clients` ballots, one per
    /// stream: a further stream's ballot for a full round is dropped,
    /// like a ballot for a round already completed.
    pub fn ballot(&mut self, stream: u32, round: u64, value: String) -> Vec<RoundResult> {
        self.attach(stream);
        if round >= self.cursor {
            let ballots = self.pending.entry(round).or_default();
            if (ballots.len() as u32) < self.quotas.expected_clients
                || ballots.contains_key(&stream)
            {
                ballots.insert(stream, value);
            }
        }
        let mut out = Vec::new();
        while self
            .pending
            .get(&self.cursor)
            .is_some_and(|b| b.len() as u32 >= self.quotas.expected_clients)
        {
            out.push(self.complete_round());
        }
        out
    }

    /// Attaches `stream`, then forces rounds up to and including `round`
    /// to complete, missing ballots counting as dissent, but at most
    /// [`MAX_TICK_ROUNDS`] of them: a further `tick` continues from
    /// there.  No-op for rounds already completed.
    pub fn tick(&mut self, stream: u32, round: u64) -> Vec<RoundResult> {
        self.attach(stream);
        let mut out = Vec::new();
        while self.cursor <= round && out.len() < MAX_TICK_ROUNDS {
            out.push(self.complete_round());
        }
        out
    }

    /// Completes the cursor round from whatever ballots are buffered.
    fn complete_round(&mut self) -> RoundResult {
        let round = self.cursor;
        self.cursor += 1;
        let ballots = self.pending.remove(&round).unwrap_or_default();
        let n = self.quotas.expected_clients as usize;
        // Sorted stream order (BTreeMap), so the outcome and the alpha
        // updates below are arrival-order independent.
        let values: Vec<&str> = ballots.values().map(String::as_str).collect();
        let (report, decision) = self.controller.close_round(&values, n);
        let mut quarantined = 0u32;
        for (stream, alpha) in &mut self.streams {
            let ballot = ballots.get(stream).map(String::as_str);
            let judgment = if report.erred(ballot.as_ref()) {
                Judgment::Erroneous
            } else {
                Judgment::Correct
            };
            if alpha.record(judgment) == Verdict::PermanentOrIntermittent {
                quarantined += 1;
            }
        }
        let dtof = report.dtof;
        let decision = decision.to_string();
        let value = report.outcome.value().map(|&v| v.to_string());
        let dissent = report.outcome.dissent().map(|m| m as u32);
        let shown = match (&value, dissent) {
            (Some(v), Some(m)) => format!("{v}/m{m}"),
            _ => "none".to_string(),
        };
        let line = format!(
            "{} r{round} n{n} {shown} dtof{dtof} -> {decision} b{} q{quarantined}",
            self.id,
            values.len(),
        );
        self.digest_acc = fnv1a_64(self.digest_acc, line.as_bytes());
        self.digest_acc = fnv1a_64(self.digest_acc, b"\n");
        self.rounds += 1;
        count(&self.scope, &self.handles.rounds, "rounds");
        self.handles
            .dtof
            .get_or_init(|| self.scope.gauge("dtof"))
            .set(i64::from(dtof));
        RoundResult {
            round,
            n: self.quotas.expected_clients,
            ballots: values.len() as u32,
            value,
            dissent,
            dtof,
            decision,
            line,
        }
    }

    /// The tenant's digest: the round fold combined with the
    /// order-independent totals.
    #[must_use]
    pub fn digest(&self) -> TenantDigest {
        let quarantined = self
            .streams
            .values()
            .filter(|alpha| alpha.verdict() == Verdict::PermanentOrIntermittent)
            .count() as u32;
        let tail = format!(
            "rounds{} observes{} clashes{} rejected{} q{quarantined}",
            self.rounds, self.observes, self.clashes, self.rejected,
        );
        let folded = fnv1a_64(self.digest_acc, tail.as_bytes());
        TenantDigest {
            tenant: self.id.0,
            rounds: self.rounds,
            observes: self.observes,
            clashes: self.clashes,
            rejected: self.rejected,
            quarantined,
            digest: format!("{folded:016x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afta_telemetry::Registry;

    fn tenant(expected: u32) -> Tenant {
        let quotas = TenantQuotas {
            expected_clients: expected,
            ..TenantQuotas::default()
        };
        Tenant::new(
            TenantId(9),
            quotas,
            Registry::new().scoped("serve.tenant.9"),
        )
    }

    #[test]
    fn round_completes_only_at_the_barrier() {
        let mut t = tenant(3);
        assert!(t.ballot(0, 1, "a".into()).is_empty());
        assert!(t.ballot(1, 1, "a".into()).is_empty());
        let done = t.ballot(2, 1, "b".into());
        assert_eq!(done.len(), 1);
        let r = &done[0];
        assert_eq!((r.round, r.n, r.ballots), (1, 3, 3));
        assert_eq!(r.value.as_deref(), Some("a"));
        assert_eq!(r.dissent, Some(1));
    }

    #[test]
    fn digest_is_arrival_order_independent() {
        let mut a = tenant(3);
        let mut b = tenant(3);
        // Same ballots, different arrival orders, over two rounds.
        for (stream, value) in [(0, "x"), (1, "x"), (2, "y")] {
            a.ballot(stream, 1, value.into());
        }
        for (stream, value) in [(2, "y"), (0, "x"), (1, "x")] {
            b.ballot(stream, 1, value.into());
        }
        // Round 2 ballots may even arrive before round 1 completes.
        for (stream, value) in [(1, "z"), (2, "z"), (0, "z")] {
            a.ballot(stream, 2, value.into());
        }
        for (stream, value) in [(0, "z"), (1, "z"), (2, "z")] {
            b.ballot(stream, 2, value.into());
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().rounds, 2);
    }

    #[test]
    fn tick_counts_missing_ballots_as_dissent() {
        let mut t = tenant(3);
        t.ballot(0, 1, "a".into());
        t.ballot(1, 1, "a".into());
        let done = t.tick(0, 1);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ballots, 2);
        assert_eq!(done[0].value.as_deref(), Some("a"));
        assert_eq!(done[0].dissent, Some(1), "the absent stream dissents");
        // A second tick for the same round is a forced empty round, not
        // a replay.
        assert_eq!(t.tick(0, 1).len(), 0);
    }

    #[test]
    fn one_tick_closes_at_most_a_bounded_run_of_rounds() {
        let mut t = tenant(3);
        let rounds = |done: Vec<RoundResult>| done.iter().map(|r| r.round).collect::<Vec<_>>();
        assert_eq!(rounds(t.tick(0, 1_000)), (1..=64).collect::<Vec<_>>());
        assert_eq!(rounds(t.tick(0, 1_000)), (65..=128).collect::<Vec<_>>());
        assert_eq!(t.digest().rounds, 128);
    }

    #[test]
    fn a_round_buffers_at_most_its_universe_of_ballots() {
        let mut t = tenant(3);
        for stream in 0..5 {
            assert!(t.ballot(stream, 2, "a".into()).is_empty());
        }
        let mut done = Vec::new();
        for stream in 0..3 {
            done.extend(t.ballot(stream, 1, "a".into()));
        }
        let closed: Vec<(u64, u32)> = done.iter().map(|r| (r.round, r.ballots)).collect();
        assert_eq!(closed, [(1, 3), (2, 3)]);
        assert_eq!(done[1].dissent, Some(0));
    }

    #[test]
    fn an_absent_stream_errs_in_a_round_without_majority() {
        let mut t = tenant(3);
        t.observe(2, "ballot", 1); // attaches stream 2, which never ballots
        for round in 1..=4 {
            t.ballot(0, round, "a".into());
            t.ballot(1, round, "b".into());
            let done = t.tick(0, round);
            assert_eq!(done[0].value, None, "no majority in round {round}");
        }
        assert_eq!(t.digest().quarantined, 1);
    }

    #[test]
    fn a_ticking_stream_is_attached_and_judged_absent() {
        let mut t = tenant(3);
        assert!(t.tick(5, 0).is_empty(), "round 0 is already closed");
        for round in 1..=4 {
            for stream in 0..3 {
                t.ballot(stream, round, "a".into());
            }
        }
        assert_eq!(t.digest().quarantined, 1, "stream 5 never balloted");
    }

    #[test]
    fn observations_check_the_assumption_and_count_clashes() {
        let mut t = tenant(1);
        assert!(t.observe(0, "ballot", 100));
        assert!(!t.observe(0, "ballot", 40_000), "out of the declared range");
        assert!(t.observe(0, "speed", 40_000), "no assumption reads `speed`");
        let d = t.digest();
        assert_eq!(d.observes, 3);
        assert_eq!(d.clashes, 1);
    }

    #[test]
    fn telemetry_matches_the_digest() {
        let registry = Registry::new();
        let quotas = TenantQuotas {
            expected_clients: 3,
            ..TenantQuotas::default()
        };
        let mut t = Tenant::new(TenantId(4), quotas, registry.scoped("serve.tenant.4"));
        // Distinct totals, so a handle held under another metric's name
        // shows as a mismatch.
        for (stream, value) in [(0, 100), (1, 40_000), (2, -40_000), (0, 7), (1, 32_768)] {
            t.observe(stream, "ballot", value);
        }
        let mut last = None;
        for round in 1..=2 {
            for stream in 0..3 {
                last = t.ballot(stream, round, "a".into()).pop().or(last);
            }
        }
        for _ in 0..4 {
            t.count_rejected();
        }
        t.quiesce();

        let report = registry.report();
        let counter = |name: &str| report.counter(&format!("serve.tenant.4.{name}"));
        let digest = t.digest();
        assert_eq!(
            (
                digest.observes,
                digest.clashes,
                digest.rounds,
                digest.rejected
            ),
            (5, 3, 2, 4)
        );
        assert_eq!(counter("observes"), digest.observes);
        assert_eq!(counter("clashes"), digest.clashes);
        assert_eq!(counter("rounds"), digest.rounds);
        assert_eq!(counter("rejected"), digest.rejected);
        assert_eq!(counter("quiesced"), 1);
        let dtof = last.expect("two rounds completed").dtof;
        assert_ne!(dtof, 0, "a default gauge would pass");
        assert_eq!(
            report.gauges.get("serve.tenant.4.dtof"),
            Some(&i64::from(dtof))
        );
    }

    #[test]
    fn persistent_dissenter_is_quarantined() {
        let mut t = tenant(3);
        for round in 1..=8 {
            t.ballot(0, round, "good".into());
            t.ballot(1, round, "good".into());
            t.ballot(2, round, format!("bad{round}"));
        }
        assert_eq!(t.digest().quarantined, 1);
    }
}
