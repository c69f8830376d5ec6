//! The §3.3 restoring organ over remote voters.
//!
//! [`DistributedVotingFarm`] is a coordinator that runs majority-voting
//! rounds against replicas living behind a [`Transport`]: each round it
//! broadcasts a [`Wire::VoteRequest`] to its active peers, gathers
//! [`Wire::VoteReply`] ballots until a per-round deadline, and votes.
//!
//! Degradation is the point of the design:
//!
//! * a peer that **times out counts as dissent**, exactly like a peer
//!   that voted wrong — so dtof dips when replicas crash or partition,
//!   and the [`RedundancyController`] re-dimensions redundancy for lost
//!   replicas just as it does for faulty ones;
//! * every peer is watched by an **alpha-count filter**: repeated
//!   misbehaviour (bad ballots or timeouts) flips the verdict to
//!   permanent-or-intermittent and the peer is **quarantined** out of
//!   the active quorum;
//! * quarantined peers are **probed** every few rounds; a reply
//!   rejoins them (journaled, so the telemetry shows the reconnect).
//!
//! The remote half is [`run_voter`]: a loop that answers vote requests
//! with a caller-supplied replica method.  Keeping the method a pure
//! function of `(round, input)` is what makes a seeded experiment
//! produce identical ballots on the simulated and the TCP transport.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use afta_alphacount::{AlphaCount, Judgment, Verdict};
use afta_switchboard::controller::{Decision, RedundancyController, RedundancyPolicy};
use afta_telemetry::{Counter, FixedHistogram, Registry, TelemetryEvent, Tick};
use afta_voting::{RoundArena, VoteOutcome, VoteTelemetry};

use crate::{NetError, NodeId, Transport, Wire, RTT_BOUNDS_NS};

/// Tuning knobs of a [`DistributedVotingFarm`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Replicas the farm starts with (the paper's initial *n*).
    pub initial_replicas: usize,
    /// How long the coordinator waits for ballots each round.
    pub round_timeout: Duration,
    /// The §3.3 redundancy control law.
    pub policy: RedundancyPolicy,
    /// Alpha-count threshold αT above which a peer is quarantined.
    pub alpha_threshold: f64,
    /// Probe quarantined peers every this many rounds (0 disables
    /// probing).
    pub probe_every: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            initial_replicas: 3,
            round_timeout: Duration::from_millis(500),
            policy: RedundancyPolicy::default(),
            alpha_threshold: 3.0,
            probe_every: 4,
        }
    }
}

/// Report of one distributed voting round.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRoundReport {
    /// Monotone round number (1-based).
    pub round: u64,
    /// Peers asked to vote this round (the round's *n*).
    pub n: usize,
    /// Ballots received before the deadline.
    pub replies: usize,
    /// Peers that missed the deadline (counted as dissent).
    pub timeouts: usize,
    /// The voting outcome over the round's *n* (timeouts dissent).
    pub outcome: VoteOutcome<String>,
    /// Distance-to-failure of the round.
    pub dtof: u32,
    /// What the redundancy controller decided afterwards.
    pub decision: Decision,
    /// Peers quarantined as of the end of the round, sorted.
    pub quarantined: Vec<NodeId>,
}

impl NetRoundReport {
    /// Whether the round delivered a result.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, VoteOutcome::Majority { .. })
    }

    /// A compact, deterministic digest of the round — what the E7
    /// differential experiment compares across transports.
    #[must_use]
    pub fn digest(&self) -> String {
        let value = match &self.outcome {
            VoteOutcome::Majority { value, dissent } => format!("{value}/m{dissent}"),
            VoteOutcome::NoMajority => "none".to_string(),
        };
        format!(
            "r{} n{} {} dtof{} -> {}",
            self.round, self.n, value, self.dtof, self.decision
        )
    }
}

struct PeerState {
    alpha: AlphaCount,
    quarantined: bool,
    timeouts: Counter,
}

/// The coordinator side of the distributed restoring organ.
pub struct DistributedVotingFarm {
    transport: Arc<dyn Transport>,
    config: FarmConfig,
    pool: Vec<NodeId>,
    peers: HashMap<NodeId, PeerState>,
    controller: RedundancyController,
    target_n: usize,
    round: u64,
    // Reusable round scratch (cleared, never freed, between rounds):
    // the quorum, the gathered ballots with their senders, and the
    // outstanding-probe set all live in farm-owned buffers, so a round's
    // bookkeeping does not allocate once the farm is warm.
    chosen: Vec<NodeId>,
    ballot_peers: Vec<NodeId>,
    arena: RoundArena<String>,
    awaiting_probe: Vec<NodeId>,
    registry: Registry,
    vote_telemetry: VoteTelemetry,
    rtt: FixedHistogram,
    replies_total: Counter,
    timeouts_total: Counter,
    quarantines: Counter,
    rejoins: Counter,
    probes: Counter,
}

impl std::fmt::Debug for DistributedVotingFarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedVotingFarm")
            .field("pool", &self.pool)
            .field("target_n", &self.target_n)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl DistributedVotingFarm {
    /// Creates a farm coordinating the voters in `pool` (stable order)
    /// over `transport`, reporting into `registry`.
    ///
    /// # Panics
    ///
    /// Panics when `pool` is empty or the policy is invalid.
    #[must_use]
    pub fn new(
        transport: Arc<dyn Transport>,
        pool: Vec<NodeId>,
        config: FarmConfig,
        registry: &Registry,
    ) -> Self {
        assert!(!pool.is_empty(), "a voting farm needs at least one voter");
        let controller = RedundancyController::new(config.policy);
        let peers = pool
            .iter()
            .map(|&p| {
                let timeouts = registry.scoped(format!("net.peer.{p}")).counter("timeouts");
                (
                    p,
                    PeerState {
                        alpha: AlphaCount::with_threshold(config.alpha_threshold),
                        quarantined: false,
                        timeouts,
                    },
                )
            })
            .collect();
        let target_n = config.initial_replicas.min(pool.len());
        let capacity = pool.len();
        Self {
            transport,
            config,
            pool,
            peers,
            controller,
            target_n,
            round: 0,
            chosen: Vec::with_capacity(capacity),
            ballot_peers: Vec::with_capacity(capacity),
            arena: RoundArena::with_replicas(capacity),
            awaiting_probe: Vec::with_capacity(capacity),
            vote_telemetry: VoteTelemetry::new(registry),
            rtt: registry.histogram("net.farm.rtt_ns", &RTT_BOUNDS_NS),
            replies_total: registry.counter("net.farm.replies"),
            timeouts_total: registry.counter("net.farm.timeouts"),
            quarantines: registry.counter("net.farm.quarantines"),
            rejoins: registry.counter("net.farm.rejoins"),
            probes: registry.counter("net.farm.probes"),
            registry: registry.clone(),
        }
    }

    /// The replica count the controller currently aims for.
    #[must_use]
    pub fn target_replicas(&self) -> usize {
        self.target_n
    }

    /// Rounds run so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Peers currently quarantined, sorted.
    #[must_use]
    pub fn quarantined(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|(_, s)| s.quarantined)
            .map(|(&p, _)| p)
            .collect();
        out.sort_unstable();
        out
    }

    /// Runs one voting round over `input` (an opaque serialised value
    /// every replica receives verbatim).
    pub fn round(&mut self, input: &str) -> NetRoundReport {
        self.round += 1;
        let round = self.round;
        let tick = Tick(round);

        // Choose the quorum: the first `target_n` healthy peers in pool
        // order.  A shrunken pool shrinks the quorum — and the lower *n*
        // re-evaluates dtof, which is the graceful-degradation contract.
        self.chosen.clear();
        for &p in &self.pool {
            if self.chosen.len() >= self.target_n {
                break;
            }
            if !self.peers[&p].quarantined {
                self.chosen.push(p);
            }
        }

        // Probe quarantined peers periodically; a reply rejoins them.
        self.awaiting_probe.clear();
        if self.config.probe_every > 0 && round.is_multiple_of(self.config.probe_every) {
            for (&p, state) in &self.peers {
                if state.quarantined {
                    self.awaiting_probe.push(p);
                }
            }
            self.awaiting_probe.sort_unstable();
        }

        let request = Wire::VoteRequest {
            round,
            input: input.to_string(),
        }
        .encode();
        for &peer in self.chosen.iter().chain(self.awaiting_probe.iter()) {
            let _ = self.transport.send(peer, request.clone());
        }
        self.probes.add(self.awaiting_probe.len() as u64);

        // Gather ballots until every chosen peer answered AND every probe
        // is resolved, or the round deadline passes.  Waiting out the
        // probes (instead of exiting as soon as the quorum is in) keeps
        // the round deterministic: whether a probed peer rejoins depends
        // only on it answering within the deadline, never on how its
        // reply is scheduled against the quorum's ballots.  Probe replies
        // rejoin quarantined peers but do not vote this round.
        let started = Instant::now();
        let deadline = started + self.config.round_timeout;
        self.ballot_peers.clear();
        self.arena.begin_round();
        while self.ballot_peers.len() < self.chosen.len() || !self.awaiting_probe.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let envelope = match self.transport.recv_deadline(deadline - now) {
                Ok(envelope) => envelope,
                Err(NetError::Timeout) => break,
                Err(_) => break, // closed mid-round: treat the rest as lost
            };
            let Ok(Wire::VoteReply { round: r, vote }) = Wire::decode(&envelope.payload) else {
                continue; // not a ballot (bus traffic, garbage): skip
            };
            if r != round {
                continue; // stale ballot from an earlier round
            }
            let from = envelope.from;
            if let Some(pos) = self.awaiting_probe.iter().position(|&p| p == from) {
                self.awaiting_probe.swap_remove(pos);
                self.rejoin(from, tick);
            } else if self.chosen.contains(&from) && !self.ballot_peers.contains(&from) {
                self.rtt
                    .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                self.ballot_peers.push(from);
                self.arena.push(vote);
            }
        }

        let n = self.chosen.len();
        let replies = self.ballot_peers.len();
        let timeouts = n - replies;
        self.replies_total.add(replies as u64);
        self.timeouts_total.add(timeouts as u64);

        // Close the round over its n: a value needs a strict majority of
        // the peers *asked*, so a timed-out peer dissents exactly like a
        // faulty one.
        let (report, decision) = self.controller.close_round(self.arena.ballots(), n);

        // Judge every chosen peer for the alpha-count filters.
        for i in 0..self.chosen.len() {
            let peer = self.chosen[i];
            let ballot = self
                .ballot_peers
                .iter()
                .position(|&p| p == peer)
                .map(|idx| &self.arena.ballots()[idx]);
            if ballot.is_none() {
                if let Some(state) = self.peers.get(&peer) {
                    state.timeouts.inc();
                }
                self.registry.record(
                    tick,
                    TelemetryEvent::HeartbeatMiss {
                        component: peer.to_string(),
                    },
                );
            }
            self.judge(peer, report.erred(ballot), tick);
        }

        // A round that asked nobody cast no vote to account for.
        if n > 0 {
            self.vote_telemetry.observe(tick, &report);
        }
        match decision {
            Decision::Raise { from, to } => {
                self.target_n = to;
                self.registry
                    .record(tick, TelemetryEvent::RedundancyRaised { from, to });
            }
            Decision::Lower { from, to } => {
                self.target_n = to;
                self.registry
                    .record(tick, TelemetryEvent::RedundancyLowered { from, to });
            }
            Decision::Hold => {}
        }

        NetRoundReport {
            round,
            n,
            replies,
            timeouts,
            outcome: report.outcome,
            dtof: report.dtof,
            decision,
            quarantined: self.quarantined(),
        }
    }

    /// Feeds one round's judgment into a peer's alpha-count; quarantines
    /// it when the verdict flips to permanent-or-intermittent.
    fn judge(&mut self, peer: NodeId, erred: bool, tick: Tick) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let before = state.alpha.verdict();
        let after = state.alpha.record(if erred {
            Judgment::Erroneous
        } else {
            Judgment::Correct
        });
        if before == Verdict::Transient
            && after == Verdict::PermanentOrIntermittent
            && !state.quarantined
        {
            state.quarantined = true;
            self.quarantines.inc();
            self.registry.record(
                tick,
                TelemetryEvent::AlphaVerdictFlip {
                    component: peer.to_string(),
                    alpha: state.alpha.alpha(),
                    verdict: after.to_string(),
                },
            );
        }
    }

    /// Returns a probed peer to the active pool with a fresh filter.
    fn rejoin(&mut self, peer: NodeId, tick: Tick) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        if !state.quarantined {
            return;
        }
        state.quarantined = false;
        state.alpha.reset();
        self.rejoins.inc();
        self.registry.record(
            tick,
            TelemetryEvent::Note {
                text: format!("peer {peer} answered a probe and rejoined the voting pool"),
            },
        );
    }
}

/// The remote replica loop: answers every [`Wire::VoteRequest`] with
/// `method(round, input)` until the transport closes.  Returns the
/// number of ballots cast.
///
/// `idle_timeout` bounds how long the voter waits between requests
/// before polling again (it does not exit on quiet periods — only on
/// [`NetError::Closed`]).
pub fn run_voter<F>(transport: &dyn Transport, idle_timeout: Duration, mut method: F) -> u64
where
    F: FnMut(u64, &str) -> String,
{
    let mut answered = 0;
    loop {
        let envelope = match transport.recv_deadline(idle_timeout) {
            Ok(envelope) => envelope,
            Err(NetError::Timeout) => continue,
            Err(_) => return answered,
        };
        let Ok(Wire::VoteRequest { round, input }) = Wire::decode(&envelope.payload) else {
            continue;
        };
        let vote = method(round, &input);
        let reply = Wire::VoteReply { round, vote }.encode();
        // Unreliable channel: a failed send is a lost ballot, which the
        // coordinator's deadline already accounts for.
        let _ = transport.send(envelope.from, reply);
        answered += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimNetwork;

    const CORRECT: &str = "42";

    fn spawn_voters(
        net: &SimNetwork,
        coordinator: NodeId,
        voters: &[NodeId],
        faulty: &[NodeId],
    ) -> Vec<std::thread::JoinHandle<u64>> {
        voters
            .iter()
            .map(|&v| {
                // Attach the endpoint on this thread, before the farm
                // sends anything, so no request races the registration.
                let endpoint = net.endpoint(v);
                let _ = coordinator; // voters discover the coordinator from envelopes
                let bad = faulty.contains(&v);
                std::thread::spawn(move || {
                    run_voter(&endpoint, Duration::from_millis(50), |_round, input| {
                        if bad {
                            format!("garbage-from-{v}")
                        } else {
                            input.to_string()
                        }
                    })
                })
            })
            .collect()
    }

    fn farm_on(
        net: &SimNetwork,
        pool: &[NodeId],
        config: FarmConfig,
        registry: &Registry,
    ) -> DistributedVotingFarm {
        DistributedVotingFarm::new(
            Arc::new(net.endpoint(NodeId(0))),
            pool.to_vec(),
            config,
            registry,
        )
    }

    #[test]
    fn healthy_pool_reaches_consensus() {
        let net = SimNetwork::new(5);
        let pool = [NodeId(1), NodeId(2), NodeId(3)];
        let handles = spawn_voters(&net, NodeId(0), &pool, &[]);
        let mut farm = farm_on(&net, &pool, FarmConfig::default(), &Registry::disabled());
        let report = farm.round(CORRECT);
        assert_eq!(report.n, 3);
        assert_eq!(report.replies, 3);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.outcome.value().map(String::as_str), Some(CORRECT));
        assert_eq!(report.dtof, 2); // full consensus at n=3
        assert!(report.succeeded());
        net.close();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn faulty_voter_dissents_and_farm_still_wins() {
        let net = SimNetwork::new(5);
        let pool = [NodeId(1), NodeId(2), NodeId(3)];
        let handles = spawn_voters(&net, NodeId(0), &pool, &[NodeId(2)]);
        let mut farm = farm_on(&net, &pool, FarmConfig::default(), &Registry::disabled());
        let report = farm.round(CORRECT);
        assert_eq!(report.outcome.value().map(String::as_str), Some(CORRECT));
        assert_eq!(report.outcome.dissent(), Some(1));
        assert_eq!(report.dtof, 1);
        net.close();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn lost_replica_counts_as_dissent_and_raises_redundancy() {
        let net = SimNetwork::new(5);
        let pool = [NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
        // Voter 3 never runs: its ballots simply never come.
        let live = [NodeId(1), NodeId(2), NodeId(4), NodeId(5)];
        let handles = spawn_voters(&net, NodeId(0), &live, &[]);
        let registry = Registry::new();
        let config = FarmConfig {
            initial_replicas: 3,
            round_timeout: Duration::from_millis(300),
            ..FarmConfig::default()
        };
        let mut farm = farm_on(&net, &pool, config, &registry);
        let report = farm.round(CORRECT);
        // Quorum was {1, 2, 3}; 3 timed out -> dissent 1 at n=3 -> dtof 1
        // -> the controller raises, exactly as for a faulty replica.
        assert_eq!(report.n, 3);
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.dtof, 1);
        assert_eq!(report.decision, Decision::Raise { from: 3, to: 5 });
        assert_eq!(farm.target_replicas(), 5);
        assert!(report.succeeded(), "majority of the asked quorum held");
        // The miss is journaled and counted.
        let report2 = registry.report();
        assert!(report2.counter("net.farm.timeouts") >= 1);
        assert!(report2.counter("net.peer.n3.timeouts") >= 1);
        assert!(report2.journal.iter().any(|r| r.event
            == TelemetryEvent::HeartbeatMiss {
                component: "n3".into()
            }));
        net.close();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn persistent_offender_is_quarantined_then_rejoins_via_probe() {
        let net = SimNetwork::new(9);
        let pool = [NodeId(1), NodeId(2), NodeId(3)];
        let handles = spawn_voters(&net, NodeId(0), &pool, &[NodeId(2)]);
        let registry = Registry::new();
        let config = FarmConfig {
            alpha_threshold: 2.0,
            probe_every: 3,
            round_timeout: Duration::from_millis(300),
            ..FarmConfig::default()
        };
        let mut farm = farm_on(&net, &pool, config, &registry);
        // Voter 2 lies every round; after enough rounds α crosses 2.0.
        let mut quarantined_at = None;
        for i in 0..6 {
            let report = farm.round(CORRECT);
            if report.quarantined.contains(&NodeId(2)) {
                quarantined_at = Some(i);
                break;
            }
        }
        assert!(quarantined_at.is_some(), "offender must be quarantined");
        // It still answers probes, so a probe round brings it back.
        let mut rejoined = false;
        for _ in 0..6 {
            farm.round(CORRECT);
            if farm.quarantined().is_empty() {
                rejoined = true;
                break;
            }
        }
        assert!(rejoined, "probed peer must rejoin");
        let snapshot = registry.report();
        assert!(snapshot.counter("net.farm.quarantines") >= 1);
        assert!(snapshot.counter("net.farm.rejoins") >= 1);
        assert!(snapshot.counter("net.farm.probes") >= 1);
        assert!(snapshot.journal.iter().any(
            |r| matches!(&r.event, TelemetryEvent::Note { text } if text.contains("rejoined"))
        ));
        net.close();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn all_replicas_lost_is_a_failed_round_not_a_hang() {
        let net = SimNetwork::new(1);
        let pool = [NodeId(1), NodeId(2), NodeId(3)];
        // No voters running at all.
        let config = FarmConfig {
            round_timeout: Duration::from_millis(50),
            ..FarmConfig::default()
        };
        let mut farm = farm_on(&net, &pool, config, &Registry::disabled());
        let started = Instant::now();
        let report = farm.round(CORRECT);
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(report.replies, 0);
        assert_eq!(report.timeouts, 3);
        assert_eq!(report.outcome, VoteOutcome::NoMajority);
        assert_eq!(report.dtof, 0);
        assert!(!report.succeeded());
        net.close();
    }

    #[test]
    fn round_digest_is_stable() {
        let report = NetRoundReport {
            round: 7,
            n: 3,
            replies: 3,
            timeouts: 0,
            outcome: VoteOutcome::Majority {
                value: "42".into(),
                dissent: 0,
            },
            dtof: 2,
            decision: Decision::Hold,
            quarantined: vec![],
        };
        assert_eq!(report.digest(), "r7 n3 42/m0 dtof2 -> hold");
    }
}
