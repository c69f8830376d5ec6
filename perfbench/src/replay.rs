//! Replays of single serve layers on a run's own inputs: the proto
//! codec on every request and reply, and shadow tenants fed the same
//! traffic.  Each call is one span; every figure is at reference speed
//! (see `calib`).

use std::hint::black_box;

use afta_serve::tenant::vote_of_n;
use afta_serve::{Body, Frame, Request};

use crate::alloc;
use crate::calib::{Meter, REPLAY_BLOCK};
use crate::check::expected_replies;
use crate::trace::{Span, Tracer};
use crate::traffic::{fold, index, req_id, Expected, Kind, Traffic, STREAMS, TENANTS};

/// Proto-layer figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProtoReplay {
    /// Mean `Frame::decode` of a request, ns.
    pub decode_ns: f64,
    /// Mean `Frame::encode` of a reply, ns.
    pub encode_ns: f64,
    /// Requests decoded.
    pub requests: u64,
    /// Replies encoded.
    pub replies: u64,
    /// Allocations per decoded or encoded frame.
    pub allocs_per_frame: f64,
    /// Mean request frame size, bytes (header and body).
    pub req_bytes: f64,
    /// Mean reply frame size, bytes.
    pub reply_bytes: f64,
}

/// Decodes every request of the traffic and re-encodes every decoded
/// reply the server must send for it.
pub fn proto(traffic: &Traffic, expected: &Expected, tracer: &mut Tracer) -> ProtoReplay {
    let n = traffic.len();
    let replies: Vec<Frame> = expected_replies(expected, traffic.rounds)
        .iter()
        .map(|bytes| Frame::decode(bytes).expect("expected replies decode"))
        .collect();
    let mut allocs = 0u64;
    let mut req_bytes = 0usize;
    let mut reply_bytes = 0usize;
    let mut meter = Meter::<2>::start(REPLAY_BLOCK);
    for i in 0..n {
        let bytes = traffic.frame(i);
        req_bytes += bytes.len();
        let a0 = alloc::allocations();
        let t0 = tracer.now();
        let frame = Frame::decode(black_box(bytes));
        let t1 = tracer.now();
        allocs += alloc::allocations() - a0;
        black_box(frame).expect("the generator encodes valid frames");
        let id = req_id(i);
        tracer.push(Span::new(
            "proto.decode",
            t0,
            t1,
            Some((id.tenant, id.stream, id.seq())),
        ));
        meter.add(0, t1 - t0);
    }
    for frame in &replies {
        let a0 = alloc::allocations();
        let t0 = tracer.now();
        let bytes = black_box(frame).encode();
        let t1 = tracer.now();
        allocs += alloc::allocations() - a0;
        reply_bytes += black_box(bytes).len();
        tracer.push(Span::new("proto.encode", t0, t1, None));
        meter.add(1, t1 - t0);
    }
    let [decode_ns, encode_ns] = meter.finish();
    let frames = (n + replies.len()) as f64;
    ProtoReplay {
        decode_ns: decode_ns / n as f64,
        encode_ns: encode_ns / replies.len() as f64,
        requests: n as u64,
        replies: replies.len() as u64,
        allocs_per_frame: allocs as f64 / frames,
        req_bytes: req_bytes as f64 / n as f64,
        reply_bytes: reply_bytes as f64 / replies.len() as f64,
    }
}

/// Tenant- and voting-layer figures from the shadow tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantReplay {
    /// Mean `Tenant::observe`, ns.
    pub observe_ns: f64,
    /// Mean `Tenant::ballot` that closed no round, ns.
    pub ballot_ns: f64,
    /// Mean `Tenant::ballot` that closed a round, ns.
    pub round_ns: f64,
    /// Allocations per round-closing ballot.
    pub allocs_per_round: f64,
    /// Live bytes the shadow tenants hold at the end.
    pub heap_bytes: i64,
    /// Mean `vote_of_n` over a round's 16 `String` ballots, ns.
    pub vote_of_n_ns: f64,
    /// Summed tenant time over all calls, ns.
    pub total_ns: f64,
    /// Requests fed.
    pub requests: u64,
}

/// Feeds the traffic into fresh standalone tenants (the reference
/// fold, timed), then times `vote_of_n` over each round's ballots.
pub fn tenants(traffic: &Traffic, tracer: &mut Tracer) -> TenantReplay {
    let (_, calls) = fold(traffic, Some(tracer));
    let mean = |k: usize| calls.ns[k] / calls.count[k].max(1) as f64;

    // Each round's ballots in stream order, as the tenant folds them.
    let ballot = |i: usize| match Frame::decode(traffic.frame(i)).map(|f| f.body) {
        Ok(Body::Request(Request::Ballot { value, .. })) => value,
        _ => unreachable!("index points at a ballot"),
    };
    let round_ballots: Vec<Vec<String>> = (1..=traffic.rounds)
        .flat_map(|r| (0..TENANTS).map(move |t| (r, t)))
        .map(|(r, t)| {
            (0..STREAMS)
                .map(|s| ballot(index(r, t, s, Kind::Ballot)))
                .collect()
        })
        .collect();
    let mut meter = Meter::<1>::start(REPLAY_BLOCK);
    for (slot, values) in round_ballots.iter().enumerate() {
        let t0 = tracer.now();
        black_box(vote_of_n(black_box(values), STREAMS as usize));
        let t1 = tracer.now();
        let tenant = (slot % usize::from(TENANTS)) as u16;
        tracer.push(Span::new(
            "voting.vote_of_n",
            t0,
            t1,
            Some((tenant, 0, slot as u64)),
        ));
        meter.add(0, t1 - t0);
    }
    let [vote_ns] = meter.finish();
    TenantReplay {
        observe_ns: mean(0),
        ballot_ns: mean(1),
        round_ns: mean(2),
        allocs_per_round: calls.round_allocs as f64 / calls.count[2].max(1) as f64,
        heap_bytes: calls.heap_bytes,
        vote_of_n_ns: vote_ns / round_ballots.len().max(1) as f64,
        total_ns: calls.ns.iter().sum(),
        requests: traffic.len() as u64,
    }
}
