//! E8 — the serving differential: one server core, two legs.
//!
//! E7 proved one *voting farm* behaves identically over the simulated
//! network and real TCP.  E8 raises the stakes to the whole multi-tenant
//! service: N tenants × M client streams drive voting rounds and
//! assumption observations through the full admission / mailbox / pump
//! path, once in process (the `sim` leg: [`ServerCore::enqueue`] and
//! [`ServerCore::pump`] on the calling thread, with no transport) and
//! once over loopback TCP through the [`Reactor`] and its worker pool —
//! and every per-tenant digest must come back **bit-identical**.
//!
//! Three properties make that possible, and the experiment exists to
//! keep them true:
//!
//! 1. every ballot and observation is a *pure function* of
//!    `(seed, tenant, client, round)` — no client carries hidden state;
//! 2. a tenant's round completes only at the **round barrier** (all
//!    expected ballots in), and the ballots fold in sorted stream
//!    order, so thread interleaving on the TCP path cannot reorder the
//!    evidence;
//! 3. the digest tail folds order-independent totals only.
//!
//! The per-tenant digests (and their combined fold) are pinned in
//! `ci/pins.toml` as `serve_e8_*`, so a regression in any layer —
//! protocol, mailbox, voting, reactor — turns the differential red.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use afta_net::TransportKind;
use afta_sim::{fnv1a_64, SeedFactory, FNV_OFFSET};
use afta_telemetry::Registry;
use rand::Rng;
use serde::Serialize;

use crate::core::{ClientAddr, Enqueued, ServeConfig, ServerCore};
use crate::proto::{
    next_framed, write_framed, Body, Frame, Reply, Request, TenantDigest, TenantId,
};
use crate::reactor::{Reactor, ReactorConfig};

/// Parameters of one E8 run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeExperimentConfig {
    /// Master seed; the only source of randomness.
    pub seed: u64,
    /// Tenants hosted by the server (ids `0..tenants`).
    pub tenants: u16,
    /// Client streams per tenant (stream ids `0..clients`).
    pub clients: u32,
    /// Voting rounds each tenant completes.
    pub rounds: u64,
    /// Which leg carries the traffic: `Sim` calls the [`ServerCore`] in
    /// process, `Tcp` goes through the [`Reactor`].
    pub transport: TransportKind,
}

impl Default for ServeExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            tenants: 8,
            clients: 16,
            rounds: 12,
            transport: TransportKind::Sim,
        }
    }
}

/// What one E8 run produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeExperimentReport {
    /// Which leg carried the traffic (`"sim"` or `"tcp"`).
    pub transport: String,
    /// The seed the run was driven by.
    pub seed: u64,
    /// Per-tenant digests, in tenant-id order — the values the
    /// differential compares bit-for-bit across the legs.
    pub digests: Vec<TenantDigest>,
    /// FNV-1a fold of every per-tenant digest, in hex: one pinnable
    /// string for the whole run.
    pub combined: String,
    /// Voting rounds completed across all tenants.
    pub rounds: u64,
    /// Assumption clashes raised across all tenants.
    pub clashes: u64,
    /// Requests rejected by quota or lifecycle checks (0 in the
    /// lock-step differential).
    pub rejects: u64,
}

/// The ballot range every E8 tenant registers, deliberately narrower
/// than [`TenantQuotas::default`](crate::tenant::TenantQuotas) so the
/// seeded out-of-range observations below actually clash.
const E8_BALLOT_MIN: i64 = -100;
/// Upper end of the E8 tenant ballot range.
const E8_BALLOT_MAX: i64 = 100;

/// The ballot `client` casts for `round` of `tenant`'s vote: a pure
/// function of the seed, so both legs generate identical traffic
/// without sharing any state.  Most clients agree on the round's
/// consensus value; each dissents with probability 1/8 on its own named
/// seed stream.
#[must_use]
pub fn ballot_value(seed: u64, tenant: u16, client: u32, round: u64) -> String {
    let factory = SeedFactory::new(seed);
    let mut consensus = factory.stream(&format!("serve.value.t{tenant}.r{round}"));
    let agreed: i64 = consensus.gen_range(E8_BALLOT_MIN..=E8_BALLOT_MAX);
    let mut own = factory.stream(&format!("serve.ballot.t{tenant}.c{client}.r{round}"));
    if own.gen_range(0u32..8) == 0 {
        format!("v{}", agreed + 1 + own.gen_range(0i64..5))
    } else {
        format!("v{agreed}")
    }
}

/// The context value `client` reports before balloting in `round`:
/// usually inside the tenant's declared range, escaping it with
/// probability 1/16 (an Ariane-style magnitude excursion) so the run
/// exercises clash detection deterministically.
#[must_use]
pub fn observe_value(seed: u64, tenant: u16, client: u32, round: u64) -> i64 {
    let mut rng =
        SeedFactory::new(seed).stream(&format!("serve.observe.t{tenant}.c{client}.r{round}"));
    if rng.gen_range(0u32..16) == 0 {
        40_000
    } else {
        rng.gen_range(E8_BALLOT_MIN..=E8_BALLOT_MAX)
    }
}

/// Every client of one run, numbered `tenant * clients + client`, so
/// the in-process and TCP legs share the exact same lock-step driver.
trait ClientLink {
    fn send(&mut self, client: usize, frame: &Frame);
    fn recv(&mut self, client: usize) -> Frame;
}

/// The `sim` leg: one [`ServerCore`] driven on the calling thread.  A
/// client's address is its number, and each client reads its replies
/// from its own queue.
struct InProcess {
    core: ServerCore,
    inboxes: Vec<VecDeque<Vec<u8>>>,
}

impl ClientLink for InProcess {
    fn send(&mut self, client: usize, frame: &Frame) {
        let from = ClientAddr(client as u64);
        let replies = match self.core.enqueue(from, &frame.encode()) {
            Enqueued::Handled(replies) | Enqueued::Rejected(replies) => replies,
            Enqueued::Queued(tenant) => self.core.pump(tenant),
        };
        for (to, bytes) in replies {
            let to = usize::try_from(to.0).expect("replies go to a client of this run");
            self.inboxes[to].push_back(bytes);
        }
    }

    fn recv(&mut self, client: usize) -> Frame {
        let bytes = self.inboxes[client]
            .pop_front()
            .unwrap_or_else(|| panic!("client {client} awaits a reply the server never sent"));
        Frame::decode(&bytes).expect("server sends valid frames")
    }
}

/// A blocking TCP client of the [`Reactor`]: one socket speaking the
/// `[u32 len][frame]` stream framing, with a 10 s read timeout.  The
/// E8 TCP run and every connection of the soak use it.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl TcpClient {
    /// Connects to the reactor at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the connection or the read timeout cannot be set up.
    #[must_use]
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the reactor");
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    /// Sends one frame.
    ///
    /// # Panics
    ///
    /// Panics if the write fails.
    pub fn send(&mut self, frame: &Frame) {
        self.send_all(std::slice::from_ref(frame));
    }

    /// Sends `frames` back to back in one write, as a client that
    /// pipelines its requests does.
    ///
    /// # Panics
    ///
    /// Panics if the write fails.
    pub(crate) fn send_all(&mut self, frames: &[Frame]) {
        let mut message = Vec::new();
        for frame in frames {
            write_framed(&mut message, &frame.encode());
        }
        self.stream
            .write_all(&message)
            .expect("write to the reactor");
    }

    /// Blocks until the next frame from the reactor arrives.
    ///
    /// # Panics
    ///
    /// Panics when no frame arrives within the read timeout, the
    /// reactor closes the connection, or the frame does not decode.
    pub fn recv(&mut self) -> Frame {
        let mut scratch = [0u8; 4096];
        loop {
            if let Some((bytes, used)) = next_framed(&self.buf, u32::MAX).expect("no frame limit") {
                let frame = Frame::decode(bytes).expect("server sends valid frames");
                self.buf.drain(..used);
                return frame;
            }
            let n = self
                .stream
                .read(&mut scratch)
                .expect("reply from the reactor within 10s");
            assert!(n > 0, "reactor closed the connection mid-conversation");
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }
}

impl ClientLink for Vec<TcpClient> {
    fn send(&mut self, client: usize, frame: &Frame) {
        self[client].send(frame);
    }

    fn recv(&mut self, client: usize) -> Frame {
        self[client].recv()
    }
}

/// Receives `client`'s next reply frame, panicking on anything else.
fn recv_reply(link: &mut impl ClientLink, client: usize) -> Reply {
    match link.recv(client).body {
        Body::Reply(reply) => reply,
        Body::Request(r) => panic!("server sent a request: {r:?}"),
    }
}

/// The shared lock-step driver: registers every tenant, then per round
/// has every client observe and ballot (awaiting each reply before the
/// next request), drains the round-result broadcast, and finally reads
/// every tenant's digest.  One request is in flight at a time, so the
/// traffic — and therefore the evidence — is identical on both legs.
fn drive(link: &mut impl ClientLink, config: &ServeExperimentConfig) -> Vec<TenantDigest> {
    let per = config.clients as usize;
    let idx = |t: u16, c: u32| usize::from(t) * per + c as usize;
    for t in 0..config.tenants {
        link.send(
            idx(t, 0),
            &Frame::request(
                TenantId(t),
                0,
                Request::RegisterTenant {
                    expected_clients: config.clients,
                    // The server's `default_mailbox_cap`.
                    mailbox_cap: 0,
                    ballot_min: E8_BALLOT_MIN,
                    ballot_max: E8_BALLOT_MAX,
                },
            ),
        );
        match recv_reply(link, idx(t, 0)) {
            Reply::Registered { tenant } => assert_eq!(tenant, t),
            other => panic!("tenant {t} registration refused: {other:?}"),
        }
    }
    for round in 1..=config.rounds {
        for t in 0..config.tenants {
            for c in 0..config.clients {
                let client = idx(t, c);
                link.send(
                    client,
                    &Frame::request(
                        TenantId(t),
                        c,
                        Request::Observe {
                            key: "ballot".into(),
                            value: observe_value(config.seed, t, c, round),
                        },
                    ),
                );
                match recv_reply(link, client) {
                    Reply::Observed { .. } => {}
                    other => panic!("t{t}/c{c}/r{round}: expected Observed, got {other:?}"),
                }
                link.send(
                    client,
                    &Frame::request(
                        TenantId(t),
                        c,
                        Request::Ballot {
                            round,
                            value: ballot_value(config.seed, t, c, round),
                        },
                    ),
                );
                match recv_reply(link, client) {
                    Reply::BallotAccepted { round: r } => assert_eq!(r, round),
                    other => panic!("t{t}/c{c}/r{round}: expected BallotAccepted, got {other:?}"),
                }
            }
            // The barrier is now met: every stream receives the round
            // broadcast.
            for c in 0..config.clients {
                match recv_reply(link, idx(t, c)) {
                    Reply::RoundResult(result) => assert_eq!(result.round, round),
                    other => panic!("t{t}/c{c}/r{round}: expected RoundResult, got {other:?}"),
                }
            }
        }
    }
    let mut digests = Vec::with_capacity(usize::from(config.tenants));
    for t in 0..config.tenants {
        link.send(idx(t, 0), &Frame::request(TenantId(t), 0, Request::Digest));
        match recv_reply(link, idx(t, 0)) {
            Reply::Digest(digest) => digests.push(digest),
            other => panic!("tenant {t} digest refused: {other:?}"),
        }
    }
    digests
}

/// Folds the per-tenant digests into the report.
fn report_from(
    transport: TransportKind,
    config: &ServeExperimentConfig,
    digests: Vec<TenantDigest>,
) -> ServeExperimentReport {
    let combined = digests.iter().fold(FNV_OFFSET, |acc, d| {
        fnv1a_64(fnv1a_64(acc, d.digest.as_bytes()), b"\n")
    });
    ServeExperimentReport {
        transport: transport.to_string(),
        seed: config.seed,
        rounds: digests.iter().map(|d| d.rounds).sum(),
        clashes: digests.iter().map(|d| d.clashes).sum(),
        rejects: digests.iter().map(|d| d.rejected).sum(),
        combined: format!("{combined:016x}"),
        digests,
    }
}

/// Runs E8's `sim` leg: one [`ServerCore`] on the calling thread,
/// every frame admitted and its tenant pumped before the next is sent.
/// The run fails if any reply is left unread, so a reply the server
/// duplicated or sent to the wrong client cannot go unnoticed.
fn run_in_process(config: &ServeExperimentConfig, registry: &Registry) -> ServeExperimentReport {
    let total = usize::from(config.tenants) * config.clients as usize;
    let mut link = InProcess {
        core: ServerCore::new(ServeConfig::default(), registry),
        inboxes: vec![VecDeque::new(); total],
    };
    let digests = drive(&mut link, config);
    let unread: usize = link.inboxes.iter().map(VecDeque::len).sum();
    assert_eq!(unread, 0, "{unread} replies were never read");
    report_from(TransportKind::Sim, config, digests)
}

/// Runs E8 over loopback TCP through the [`Reactor`] and its worker
/// pool — real sockets, real thread interleaving.
fn run_on_tcp(config: &ServeExperimentConfig, registry: &Registry) -> ServeExperimentReport {
    let reactor = Reactor::bind(
        "127.0.0.1:0",
        ReactorConfig::default(),
        ServeConfig::default(),
        registry,
    )
    .expect("bind the loopback reactor");
    let addr = reactor.local_addr();
    let total = usize::from(config.tenants) * config.clients as usize;
    let mut clients: Vec<TcpClient> = (0..total).map(|_| TcpClient::connect(addr)).collect();
    let digests = drive(&mut clients, config);
    reactor.shutdown();
    report_from(TransportKind::Tcp, config, digests)
}

/// Runs one E8 experiment on the leg named by `config.transport`.
#[must_use]
pub fn run_serve_experiment(
    config: &ServeExperimentConfig,
    registry: &Registry,
) -> ServeExperimentReport {
    match config.transport {
        TransportKind::Sim => run_in_process(config, registry),
        TransportKind::Tcp => run_on_tcp(config, registry),
    }
}

/// Runs the full differential — the same configuration over both
/// legs — and returns `(sim, tcp)`.  The caller asserts the digests
/// match; [`differential_matches`] does it for you.
#[must_use]
pub fn run_serve_differential(
    config: &ServeExperimentConfig,
    registry: &Registry,
) -> (ServeExperimentReport, ServeExperimentReport) {
    let sim = run_serve_experiment(
        &ServeExperimentConfig {
            transport: TransportKind::Sim,
            ..config.clone()
        },
        registry,
    );
    let tcp = run_serve_experiment(
        &ServeExperimentConfig {
            transport: TransportKind::Tcp,
            ..config.clone()
        },
        registry,
    );
    (sim, tcp)
}

/// Whether two runs produced bit-identical evidence: same per-tenant
/// digests (in order) and same combined fold.
#[must_use]
pub fn differential_matches(a: &ServeExperimentReport, b: &ServeExperimentReport) -> bool {
    a.combined == b.combined && a.digests == b.digests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_and_observe_values_are_pure() {
        assert_eq!(ballot_value(42, 3, 7, 5), ballot_value(42, 3, 7, 5));
        assert_eq!(observe_value(42, 3, 7, 5), observe_value(42, 3, 7, 5));
        assert_ne!(
            (0..64)
                .map(|c| ballot_value(42, 0, c, 1))
                .collect::<Vec<_>>(),
            (0..64)
                .map(|c| ballot_value(43, 0, c, 1))
                .collect::<Vec<_>>(),
            "different seeds give different traffic"
        );
    }

    #[test]
    fn sim_run_is_reproducible() {
        let config = ServeExperimentConfig {
            tenants: 3,
            clients: 4,
            rounds: 3,
            ..ServeExperimentConfig::default()
        };
        let a = run_serve_experiment(&config, &Registry::disabled());
        let b = run_serve_experiment(&config, &Registry::disabled());
        assert_eq!(a, b);
        assert_eq!(a.rounds, 9);
        assert_eq!(a.rejects, 0);
        assert_eq!(a.digests.len(), 3);
    }
}
