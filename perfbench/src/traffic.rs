//! E8-shaped traffic for one seed, encoded before any timing starts,
//! and the reference fold that says what the server must answer.
//!
//! Send order: for each round, for each tenant, for each stream,
//! `Observe` then `Ballot`.  A request's position in that order is its
//! index; [`index`] recomputes it from `(round, tenant, stream, kind)`
//! so threads never need to share it.

use std::time::Instant;

use afta_serve::proto::RoundResult;
use afta_serve::tenant::{Tenant, TenantQuotas};
use afta_serve::{ballot_value, observe_value, Frame, Reply, Request, TenantDigest, TenantId};
use afta_telemetry::Registry;

use crate::alloc;
use crate::calib::{Meter, REPLAY_BLOCK};
use crate::trace::{ns_since, Span, Tracer};

/// Tenants per server.
pub const TENANTS: u16 = 8;
/// Client streams per tenant.
pub const STREAMS: u32 = 16;
/// Mailbox bound every tenant registers with, so a quota reject can
/// only mean a fault.
pub const MAILBOX_CAP: usize = 1024;
/// The ballot range E8 tenants declare (observations outside it clash).
pub const BALLOT_MIN: i64 = -100;
/// Upper end of the declared ballot range.
pub const BALLOT_MAX: i64 = 100;
/// Requests per round: every stream of every tenant observes and ballots.
pub const PER_ROUND: usize = TENANTS as usize * STREAMS as usize * 2;

/// `Observe` (0) or `Ballot` (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An observation of the `ballot` fact.
    Observe = 0,
    /// A vote for the round.
    Ballot = 1,
}

/// Where a request sits in the traffic, and its request id
/// `(tenant, stream, seq)` with `seq` counting the stream's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqId {
    /// 1-based round.
    pub round: u64,
    /// Tenant.
    pub tenant: u16,
    /// Stream within the tenant.
    pub stream: u32,
    /// Which request of the round.
    pub kind: Kind,
}

impl ReqId {
    /// The stream's sequence number of this request (0-based).
    pub fn seq(self) -> u64 {
        2 * (self.round - 1) + self.kind as u64
    }
}

/// Position of a request in send order.
pub fn index(round: u64, tenant: u16, stream: u32, kind: Kind) -> usize {
    let per_round = (round as usize - 1) * PER_ROUND;
    per_round + (usize::from(tenant) * STREAMS as usize + stream as usize) * 2 + kind as usize
}

/// The inverse of [`index`].
pub fn req_id(i: usize) -> ReqId {
    let round = (i / PER_ROUND) as u64 + 1;
    let within = i % PER_ROUND;
    let slot = within / 2;
    ReqId {
        round,
        tenant: (slot / STREAMS as usize) as u16,
        stream: (slot % STREAMS as usize) as u32,
        kind: if within.is_multiple_of(2) {
            Kind::Observe
        } else {
            Kind::Ballot
        },
    }
}

/// Index of the ballot that meets `tenant`'s barrier in `round`: the
/// last stream's, as the traffic sends streams in order.
pub fn barrier_index(round: u64, tenant: u16) -> usize {
    index(round, tenant, STREAMS - 1, Kind::Ballot)
}

/// Slot of a `(round, tenant)` verdict in per-round tables.
pub fn round_slot(round: u64, tenant: u16) -> usize {
    (round as usize - 1) * usize::from(TENANTS) + usize::from(tenant)
}

/// Every request of a run, encoded once.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// The seed the values came from.
    pub seed: u64,
    /// Rounds per tenant.
    pub rounds: u64,
    /// `[u32 len][frame]` for every request, in send order: what the
    /// TCP generator writes.
    pub wire: Vec<u8>,
    /// Offset in `wire` of each request's length prefix, plus one final
    /// entry for the end.
    starts: Vec<usize>,
    /// One `RegisterTenant` frame per tenant.
    pub register: Vec<Vec<u8>>,
    /// One `Digest` frame per tenant.
    pub digest: Vec<Vec<u8>>,
}

impl Traffic {
    /// Generates and encodes `rounds` rounds of traffic for `seed`.
    pub fn generate(seed: u64, rounds: u64) -> Traffic {
        assert!(rounds > 0, "traffic needs a round");
        let n = rounds as usize * PER_ROUND;
        let mut wire = Vec::with_capacity(n * 56);
        let mut starts = Vec::with_capacity(n + 1);
        for round in 1..=rounds {
            for tenant in 0..TENANTS {
                for stream in 0..STREAMS {
                    let observe = Request::Observe {
                        key: "ballot".into(),
                        value: observe_value(seed, tenant, stream, round),
                    };
                    let ballot = Request::Ballot {
                        round,
                        value: ballot_value(seed, tenant, stream, round),
                    };
                    for request in [observe, ballot] {
                        starts.push(wire.len());
                        let frame = Frame::request(TenantId(tenant), stream, request).encode();
                        let len = u32::try_from(frame.len()).expect("frame fits u32");
                        wire.extend_from_slice(&len.to_be_bytes());
                        wire.extend_from_slice(&frame);
                    }
                }
            }
        }
        starts.push(wire.len());
        let register = (0..TENANTS)
            .map(|t| {
                Frame::request(
                    TenantId(t),
                    0,
                    Request::RegisterTenant {
                        expected_clients: STREAMS,
                        mailbox_cap: MAILBOX_CAP,
                        ballot_min: BALLOT_MIN,
                        ballot_max: BALLOT_MAX,
                    },
                )
                .encode()
            })
            .collect();
        let digest = (0..TENANTS)
            .map(|t| Frame::request(TenantId(t), 0, Request::Digest).encode())
            .collect();
        Traffic {
            seed,
            rounds,
            wire,
            starts,
            register,
            digest,
        }
    }

    /// Requests in the traffic.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Requests in the first `rounds` rounds.
    pub fn len_of(&self, rounds: u64) -> usize {
        rounds.min(self.rounds) as usize * PER_ROUND
    }

    /// Request `i`'s frame, without its length prefix.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.wire[self.starts[i] + 4..self.starts[i + 1]]
    }

    /// Requests `from..to` as they go on the wire, prefixes included.
    pub fn wire_span(&self, from: usize, to: usize) -> &[u8] {
        &self.wire[self.starts[from]..self.starts[to]]
    }
}

/// What the server must answer for a [`Traffic`], from standalone
/// tenants fed the same requests in the same order.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `Observed { satisfied }` per request index of an observe (the
    /// entry for a ballot index is unused).
    pub satisfied: Vec<bool>,
    /// The verdict of each `(round, tenant)`, at [`round_slot`].
    pub rounds: Vec<RoundResult>,
    /// Each tenant's digest after the whole traffic.
    pub digests: Vec<TenantDigest>,
}

impl Expected {
    /// The reply request `i` must get (its ack).
    pub fn ack(&self, i: usize) -> Reply {
        let id = req_id(i);
        match id.kind {
            Kind::Observe => Reply::Observed {
                satisfied: self.satisfied[i],
            },
            Kind::Ballot => Reply::BallotAccepted { round: id.round },
        }
    }

    /// Tenant digests expected after the first `rounds` rounds only;
    /// recomputed, since digests fold every round.
    pub fn digests_after(traffic: &Traffic, rounds: u64) -> Vec<TenantDigest> {
        if rounds >= traffic.rounds {
            return reference(traffic).digests;
        }
        let prefix = Traffic {
            rounds,
            starts: traffic.starts[..=traffic.len_of(rounds)].to_vec(),
            ..traffic.clone()
        };
        reference(&prefix).digests
    }
}

/// The quotas the server gives a tenant registered by [`Traffic`].
pub fn server_quotas() -> TenantQuotas {
    let serve = afta_serve::ServeConfig::default();
    TenantQuotas {
        expected_clients: STREAMS,
        mailbox_cap: MAILBOX_CAP,
        max_streams: serve.max_streams_per_tenant,
        retry_after_ms: serve.retry_after_ms,
        ballot_min: BALLOT_MIN,
        ballot_max: BALLOT_MAX,
        ..TenantQuotas::default()
    }
}

/// Feeds `traffic` into standalone [`Tenant`]s and records every
/// answer: the reference the server's replies are checked against.
pub fn reference(traffic: &Traffic) -> Expected {
    fold(traffic, None).0
}

/// The tenant layer as a timed [`fold`] saw it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantCalls {
    /// Calls of each kind: `Tenant::observe`, `Tenant::ballot` that
    /// closed no round, `Tenant::ballot` that closed one.
    pub count: [u64; 3],
    /// Summed time of each kind, ns at reference speed (timed folds
    /// only).
    pub ns: [f64; 3],
    /// Allocations inside the round-closing calls.
    pub round_allocs: u64,
    /// Live bytes the tenants held at the end.
    pub heap_bytes: i64,
}

/// Span names of the three kinds of [`TenantCalls`].
const CALL_SPANS: [&str; 3] = ["tenant.observe", "tenant.ballot", "tenant.round"];

/// [`reference`]'s fold.  With a tracer it also records one span per
/// tenant call and times the calls at reference speed.
pub fn fold(traffic: &Traffic, mut tracer: Option<&mut Tracer>) -> (Expected, TenantCalls) {
    let n = traffic.len();
    let mut satisfied = vec![false; n];
    let mut rounds: Vec<Option<RoundResult>> =
        vec![None; traffic.rounds as usize * TENANTS as usize];
    let mut calls = TenantCalls::default();
    let epoch = tracer.as_ref().map_or_else(Instant::now, |t| t.epoch());
    let mut meter = tracer.as_deref_mut().map(|t| {
        t.reserve(n);
        Meter::<3>::start(REPLAY_BLOCK)
    });
    let disabled = Registry::disabled();
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| Tenant::new(TenantId(t), server_quotas(), disabled.scoped("shadow")))
        .collect();
    for (i, satisfied) in satisfied.iter_mut().enumerate() {
        let id = req_id(i);
        let Ok(frame) = Frame::decode(traffic.frame(i)) else {
            unreachable!("the generator encodes valid frames")
        };
        let afta_serve::Body::Request(request) = frame.body else {
            unreachable!("the generator sends requests")
        };
        let tenant = &mut tenants[usize::from(id.tenant)];
        let a0 = alloc::allocations();
        let t0 = ns_since(epoch);
        let closed = match request {
            Request::Observe { key, value } => {
                *satisfied = tenant.observe(id.stream, &key, value);
                Vec::new()
            }
            Request::Ballot { round, value } => tenant.ballot(id.stream, round, value),
            _ => unreachable!("the generator sends observes and ballots only"),
        };
        let t1 = ns_since(epoch);
        let kind = match (id.kind, closed.is_empty()) {
            (Kind::Observe, _) => 0,
            (Kind::Ballot, true) => 1,
            (Kind::Ballot, false) => {
                calls.round_allocs += alloc::allocations() - a0;
                2
            }
        };
        calls.count[kind] += 1;
        if let (Some(tr), Some(m)) = (tracer.as_deref_mut(), meter.as_mut()) {
            let rid = Some((id.tenant, id.stream, id.seq()));
            tr.push(Span::new(CALL_SPANS[kind], t0, t1, rid));
            m.add(kind, t1 - t0);
        }
        for result in closed {
            let slot = round_slot(result.round, id.tenant);
            rounds[slot] = Some(result);
        }
    }
    let digests = tenants.iter().map(Tenant::digest).collect();
    let held = alloc::live_bytes();
    drop(tenants);
    calls.heap_bytes = held - alloc::live_bytes();
    if let Some(m) = meter {
        calls.ns = m.finish();
    }
    let expected = Expected {
        satisfied,
        rounds: rounds
            .into_iter()
            .map(|r| r.expect("every round closes at its barrier"))
            .collect(),
        digests,
    };
    (expected, calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = Traffic::generate(11, 3);
        let b = Traffic::generate(11, 3);
        let c = Traffic::generate(12, 3);
        assert_eq!(a.wire, b.wire);
        assert_eq!(a.register, b.register);
        assert_ne!(a.wire, c.wire);
        assert_eq!(a.len(), 3 * PER_ROUND);
    }

    #[test]
    fn index_and_req_id_are_inverse_and_follow_send_order() {
        let t = Traffic::generate(5, 2);
        for i in 0..t.len() {
            let id = req_id(i);
            assert_eq!(index(id.round, id.tenant, id.stream, id.kind), i);
            let frame = Frame::decode(t.frame(i)).unwrap();
            assert_eq!((frame.tenant.0, frame.stream), (id.tenant, id.stream));
            let kind_ok = matches!(
                (&frame.body, id.kind),
                (
                    afta_serve::Body::Request(Request::Observe { .. }),
                    Kind::Observe
                ) | (
                    afta_serve::Body::Request(Request::Ballot { .. }),
                    Kind::Ballot
                )
            );
            assert!(kind_ok, "request {i} has the wrong kind");
        }
        assert_eq!(req_id(barrier_index(2, 7)).stream, STREAMS - 1);
        assert_eq!(req_id(5).seq(), 1);
    }

    #[test]
    fn wire_span_concatenates_prefixed_frames() {
        let t = Traffic::generate(5, 1);
        let span = t.wire_span(3, 5);
        let len = u32::from_be_bytes(span[..4].try_into().unwrap()) as usize;
        assert_eq!(&span[4..4 + len], t.frame(3));
        assert_eq!(&span[8 + len..], t.frame(4));
    }

    #[test]
    fn reference_closes_every_round_and_prefix_digests_differ() {
        let t = Traffic::generate(9, 3);
        let e = reference(&t);
        assert_eq!(e.rounds.len(), 3 * TENANTS as usize);
        assert!(e.digests.iter().all(|d| d.rounds == 3));
        let shorter = Expected::digests_after(&t, 2);
        assert!(shorter.iter().all(|d| d.rounds == 2));
        assert_ne!(shorter, e.digests);
    }
}
