//! The transport-agnostic server core: admission, quotas, dispatch.
//!
//! [`ServerCore`] owns every [`Tenant`] and a **bounded per-tenant
//! mailbox**: a plain queue holding at most the tenant's `mailbox_cap`
//! requests.  A frame travels in two steps:
//!
//! 1. [`ServerCore::enqueue`] — cheap admission: decode, lifecycle and
//!    quota checks, then queue the data request in the tenant's
//!    mailbox.  Control requests (register / quiesce / evict / digest)
//!    are answered inline.  A full mailbox rejects the frame with a
//!    retry-after hint instead of shedding it, so nothing admitted is
//!    ever lost.
//! 2. [`ServerCore::pump`] — drains one tenant's mailbox and processes
//!    the requests in FIFO order, producing reply frames.
//!
//! The split is what lets one core serve both a network and a single
//! thread.  The TCP [`Reactor`](crate::Reactor), the one network
//! frontend, enqueues on its poll thread and lets a worker pool pump:
//! the mailbox *is* the reactor-to-worker queue, so backpressure needs
//! no second object.  In-process callers (E8's deterministic `sim` leg,
//! the fuzzer's churn driver, the examples) pump after every enqueue on
//! one thread.  Every caller reaches the core through `&mut self` (the
//! reactor under its core lock), so a mailbox never has two writers.
//!
//! Every frame that reaches [`ServerCore::enqueue`] counts in
//! `serve.frames` and in exactly one of `serve.handled`,
//! `serve.queued`, `serve.rejected` or `serve.bad_frames`.

use std::collections::{BTreeMap, HashMap, VecDeque};

use afta_telemetry::{Counter, Registry};

use crate::proto::{Body, Frame, ProtoError, RejectReason, Reply, Request, TenantId};
use crate::tenant::{Lifecycle, Tenant, TenantQuotas};

/// Deepest mailbox a registration may ask for; a `RegisterTenant` with a
/// larger `mailbox_cap` is refused with `bad-frame`.  Without a bound one
/// registration could make its tenant queue without limit.
const MAX_MAILBOX_CAP: usize = 8192;

/// Where a frame came from and where replies go: a return address the
/// caller chooses.  The TCP reactor uses a connection id; an in-process
/// caller names its clients however it likes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientAddr(pub u64);

/// A reply frame plus the address it must be delivered to.
pub type Outbound = (ClientAddr, Vec<u8>);

/// Server-wide tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Most tenants the server hosts at once; registrations beyond this
    /// are rejected.
    pub max_tenants: usize,
    /// Mailbox capacity used when a tenant registers with `mailbox_cap`
    /// = 0.
    pub default_mailbox_cap: usize,
    /// Stream cap applied to every tenant.
    pub max_streams_per_tenant: u32,
    /// Retry hint handed to throttled clients, in milliseconds.
    pub retry_after_ms: u64,
    /// Master seed for anything the server randomises (none today on
    /// the serving path itself; recorded so reports carry it).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_tenants: 256,
            default_mailbox_cap: 64,
            max_streams_per_tenant: 1024,
            retry_after_ms: 25,
            seed: 0xAF7A,
        }
    }
}

/// What [`ServerCore::enqueue`] did with a frame.
#[derive(Debug)]
pub enum Enqueued {
    /// A control frame: handled inline, here are the replies.
    Handled(Vec<Outbound>),
    /// A data frame: admitted into this tenant's mailbox.  Someone must
    /// [`ServerCore::pump`] the tenant.
    Queued(TenantId),
    /// Refused at admission; the rejection replies are ready to send.
    Rejected(Vec<Outbound>),
}

/// One queued data request.
#[derive(Debug)]
struct InboundFrame {
    addr: ClientAddr,
    stream: u32,
    request: Request,
}

/// A hosted tenant plus its bounded mailbox.
struct TenantSlot {
    tenant: Tenant,
    /// Admitted data requests awaiting [`ServerCore::pump`], oldest
    /// first; never longer than the tenant's `mailbox_cap`.
    mailbox: VecDeque<InboundFrame>,
    /// Last known return address per stream, for round-result fan-out.
    clients: BTreeMap<u32, ClientAddr>,
}

/// Core metrics (server-wide; per-tenant metrics live under each
/// tenant's scope).
struct CoreMetrics {
    frames: Counter,
    handled: Counter,
    queued: Counter,
    rejected: Counter,
    bad_frames: Counter,
}

/// The multi-tenant server core (see the module docs).
pub struct ServerCore {
    config: ServeConfig,
    registry: Registry,
    tenants: HashMap<u16, TenantSlot>,
    metrics: CoreMetrics,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("config", &self.config)
            .field("tenants", &self.tenants.len())
            .finish()
    }
}

impl ServerCore {
    /// Creates a core; metrics land in `registry` under `serve.*`.
    #[must_use]
    pub fn new(config: ServeConfig, registry: &Registry) -> Self {
        Self {
            config,
            registry: registry.clone(),
            tenants: HashMap::new(),
            metrics: CoreMetrics {
                frames: registry.counter("serve.frames"),
                handled: registry.counter("serve.handled"),
                queued: registry.counter("serve.queued"),
                rejected: registry.counter("serve.rejected"),
                bad_frames: registry.counter("serve.bad_frames"),
            },
        }
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Currently hosted tenant ids, sorted.
    #[must_use]
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.tenants.keys().copied().map(TenantId).collect();
        ids.sort_unstable();
        ids
    }

    /// The named tenant's current digest, if hosted.
    #[must_use]
    pub fn tenant_digest(&self, tenant: TenantId) -> Option<crate::proto::TenantDigest> {
        self.tenants.get(&tenant.0).map(|s| s.tenant.digest())
    }

    /// Requests waiting in the named tenant's mailbox.
    #[must_use]
    pub fn tenant_backlog(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant.0).map_or(0, |s| s.mailbox.len())
    }

    /// Re-bounds a hosted tenant's mailbox (the runtime quota knob the
    /// fuzz churn driver turns).  The oldest `cap` queued requests stay;
    /// the newer ones beyond the tighter bound are rejected back to
    /// their senders, oldest first.  Returns the rejection replies
    /// (empty when loosening).
    pub fn set_tenant_mailbox_cap(&mut self, tenant: TenantId, cap: usize) -> Vec<Outbound> {
        let Some(slot) = self.tenants.get_mut(&tenant.0) else {
            return Vec::new();
        };
        slot.tenant.set_mailbox_cap(cap);
        let keep = slot.tenant.quotas().mailbox_cap.min(slot.mailbox.len());
        let retry = slot.tenant.quotas().retry_after_ms;
        slot.mailbox
            .drain(keep..)
            .map(|item| {
                slot.tenant.count_rejected();
                self.metrics.rejected.inc();
                reject(
                    tenant,
                    item.stream,
                    item.addr,
                    RejectReason::QuotaExceeded,
                    retry,
                )
            })
            .collect()
    }

    /// Admission: decodes `bytes` and either handles it (control),
    /// queues it (data), or rejects it.  See the module docs.
    pub fn enqueue(&mut self, addr: ClientAddr, bytes: &[u8]) -> Enqueued {
        self.metrics.frames.inc();
        let frame = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(err) => {
                self.metrics.bad_frames.inc();
                // Reject with whatever routing we could still read; a
                // frame too short for its own header gets no reply.
                return match err {
                    ProtoError::Truncated => Enqueued::Rejected(Vec::new()),
                    _ => {
                        let (tenant, stream) = Frame::peek_header(bytes)
                            .map(|(t, s, _)| (t, s))
                            .unwrap_or_default();
                        Enqueued::Rejected(vec![reject(
                            tenant,
                            stream,
                            addr,
                            RejectReason::BadFrame,
                            0,
                        )])
                    }
                };
            }
        };
        let Body::Request(request) = frame.body else {
            // A reply sent at the server is a bad frame; nothing answers it.
            self.metrics.bad_frames.inc();
            return Enqueued::Rejected(Vec::new());
        };
        let tenant = frame.tenant;
        let stream = frame.stream;
        match request {
            Request::RegisterTenant {
                expected_clients,
                mailbox_cap,
                ballot_min,
                ballot_max,
            } => {
                // A tenant no client can vote in, with an empty ballot
                // range or with a mailbox deeper than the server allows,
                // is refused before it exists.
                if expected_clients == 0 || ballot_min > ballot_max || mailbox_cap > MAX_MAILBOX_CAP
                {
                    self.metrics.rejected.inc();
                    let reply = reject(tenant, stream, addr, RejectReason::BadFrame, 0);
                    return Enqueued::Rejected(vec![reply]);
                }
                let quotas = TenantQuotas {
                    expected_clients,
                    mailbox_cap: if mailbox_cap == 0 {
                        self.config.default_mailbox_cap
                    } else {
                        mailbox_cap
                    },
                    max_streams: self.config.max_streams_per_tenant,
                    retry_after_ms: self.config.retry_after_ms,
                    ballot_min,
                    ballot_max,
                    ..TenantQuotas::default()
                };
                Enqueued::Handled(self.register_tenant(tenant, stream, addr, quotas))
            }
            Request::Quiesce => Enqueued::Handled(self.with_tenant(tenant, stream, addr, |slot| {
                slot.tenant.quiesce();
                vec![Reply::Quiesced { tenant: tenant.0 }]
            })),
            Request::Evict => {
                let replies = match self.tenants.remove(&tenant.0) {
                    Some(slot) => {
                        self.metrics.handled.inc();
                        vec![(
                            addr,
                            Frame::reply(tenant, stream, Reply::Evicted(slot.tenant.digest()))
                                .encode(),
                        )]
                    }
                    None => {
                        self.metrics.rejected.inc();
                        vec![reject(tenant, stream, addr, RejectReason::UnknownTenant, 0)]
                    }
                };
                Enqueued::Handled(replies)
            }
            Request::Digest => Enqueued::Handled(self.with_tenant(tenant, stream, addr, |slot| {
                vec![Reply::Digest(slot.tenant.digest())]
            })),
            data @ (Request::Observe { .. } | Request::Ballot { .. } | Request::Tick { .. }) => {
                self.admit_data(tenant, stream, addr, data)
            }
        }
    }

    /// Drains and processes one tenant's mailbox; returns the replies.
    pub fn pump(&mut self, tenant: TenantId) -> Vec<Outbound> {
        let Some(slot) = self.tenants.get_mut(&tenant.0) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(item) = slot.mailbox.pop_front() {
            slot.clients.insert(item.stream, item.addr);
            match item.request {
                Request::Observe { key, value } => {
                    let satisfied = slot.tenant.observe(item.stream, &key, value);
                    out.push((
                        item.addr,
                        Frame::reply(tenant, item.stream, Reply::Observed { satisfied }).encode(),
                    ));
                }
                Request::Ballot { round, value } => {
                    out.push((
                        item.addr,
                        Frame::reply(tenant, item.stream, Reply::BallotAccepted { round }).encode(),
                    ));
                    let rounds = slot.tenant.ballot(item.stream, round, value);
                    broadcast_rounds(tenant, &slot.clients, rounds, &mut out);
                }
                Request::Tick { round } => {
                    let rounds = slot.tenant.tick(item.stream, round);
                    broadcast_rounds(tenant, &slot.clients, rounds, &mut out);
                }
                // Control requests never reach a mailbox.
                _ => {}
            }
        }
        out
    }

    /// Pumps every hosted tenant once, in tenant-id order.
    pub fn pump_all(&mut self) -> Vec<Outbound> {
        let mut out = Vec::new();
        for tenant in self.tenant_ids() {
            out.extend(self.pump(tenant));
        }
        out
    }

    fn register_tenant(
        &mut self,
        tenant: TenantId,
        stream: u32,
        addr: ClientAddr,
        quotas: TenantQuotas,
    ) -> Vec<Outbound> {
        if self.tenants.contains_key(&tenant.0) {
            self.metrics.rejected.inc();
            return vec![reject(tenant, stream, addr, RejectReason::TenantExists, 0)];
        }
        if self.tenants.len() >= self.config.max_tenants {
            self.metrics.rejected.inc();
            return vec![reject(
                tenant,
                stream,
                addr,
                RejectReason::TenantLimit,
                self.config.retry_after_ms,
            )];
        }
        let scope = self.registry.scoped(format!("serve.tenant.{}", tenant.0));
        self.tenants.insert(
            tenant.0,
            TenantSlot {
                tenant: Tenant::new(tenant, quotas, scope),
                mailbox: VecDeque::new(),
                clients: BTreeMap::new(),
            },
        );
        self.metrics.handled.inc();
        vec![(
            addr,
            Frame::reply(tenant, stream, Reply::Registered { tenant: tenant.0 }).encode(),
        )]
    }

    fn admit_data(
        &mut self,
        tenant: TenantId,
        stream: u32,
        addr: ClientAddr,
        request: Request,
    ) -> Enqueued {
        let Some(slot) = self.tenants.get_mut(&tenant.0) else {
            self.metrics.rejected.inc();
            return Enqueued::Rejected(vec![reject(
                tenant,
                stream,
                addr,
                RejectReason::UnknownTenant,
                0,
            )]);
        };
        let quotas = slot.tenant.quotas();
        let refused = if slot.tenant.lifecycle() == Lifecycle::Quiescing {
            Some((RejectReason::Quiescing, 0))
        } else if !slot.tenant.admit_stream(stream) {
            Some((RejectReason::StreamLimit, 0))
        } else if slot.mailbox.len() >= quotas.mailbox_cap {
            Some((RejectReason::QuotaExceeded, quotas.retry_after_ms))
        } else {
            None
        };
        if let Some((reason, retry)) = refused {
            slot.tenant.count_rejected();
            self.metrics.rejected.inc();
            return Enqueued::Rejected(vec![reject(tenant, stream, addr, reason, retry)]);
        }
        slot.mailbox.push_back(InboundFrame {
            addr,
            stream,
            request,
        });
        self.metrics.queued.inc();
        Enqueued::Queued(tenant)
    }

    fn with_tenant(
        &mut self,
        tenant: TenantId,
        stream: u32,
        addr: ClientAddr,
        f: impl FnOnce(&mut TenantSlot) -> Vec<Reply>,
    ) -> Vec<Outbound> {
        match self.tenants.get_mut(&tenant.0) {
            Some(slot) => {
                self.metrics.handled.inc();
                f(slot)
                    .into_iter()
                    .map(|r| (addr, Frame::reply(tenant, stream, r).encode()))
                    .collect()
            }
            None => {
                self.metrics.rejected.inc();
                vec![reject(tenant, stream, addr, RejectReason::UnknownTenant, 0)]
            }
        }
    }
}

/// Encodes one rejection reply.
fn reject(
    tenant: TenantId,
    stream: u32,
    addr: ClientAddr,
    reason: RejectReason,
    retry_after_ms: u64,
) -> Outbound {
    (
        addr,
        Frame::reply(
            tenant,
            stream,
            Reply::Rejected {
                reason,
                retry_after_ms,
            },
        )
        .encode(),
    )
}

/// Fans completed rounds out to every attached stream of the tenant:
/// each round's result is encoded once, and each stream gets a copy of
/// those bytes with its own id in the header's stream field.
fn broadcast_rounds(
    tenant: TenantId,
    clients: &BTreeMap<u32, ClientAddr>,
    rounds: Vec<crate::proto::RoundResult>,
    out: &mut Vec<Outbound>,
) {
    out.reserve(rounds.len() * clients.len());
    for result in rounds {
        let encoded = Frame::reply(tenant, 0, Reply::RoundResult(result)).encode();
        for (&stream, &addr) in clients {
            let mut bytes = encoded.clone();
            Frame::restream(&mut bytes, stream);
            out.push((addr, bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::KIND_REQUEST;
    use crate::tenant::MAX_TICK_ROUNDS;

    fn core() -> ServerCore {
        ServerCore::new(ServeConfig::default(), &Registry::new())
    }

    fn register(core: &mut ServerCore, tenant: u16, clients: u32, mailbox: usize) {
        let frame = Frame::request(
            TenantId(tenant),
            0,
            Request::RegisterTenant {
                expected_clients: clients,
                mailbox_cap: mailbox,
                ballot_min: -100,
                ballot_max: 100,
            },
        );
        match core.enqueue(ClientAddr(1), &frame.encode()) {
            Enqueued::Handled(replies) => {
                let f = Frame::decode(&replies[0].1).unwrap();
                assert_eq!(f.body, Body::Reply(Reply::Registered { tenant }));
            }
            other => panic!("registration not handled: {other:?}"),
        }
    }

    fn decoded(out: &[Outbound]) -> Vec<Reply> {
        out.iter()
            .map(|(_, bytes)| match Frame::decode(bytes).unwrap().body {
                Body::Reply(r) => r,
                Body::Request(_) => panic!("server sent a request"),
            })
            .collect()
    }

    #[test]
    fn data_before_registration_is_rejected() {
        let mut c = core();
        let frame = Frame::request(
            TenantId(4),
            0,
            Request::Observe {
                key: "ballot".into(),
                value: 1,
            },
        );
        let Enqueued::Rejected(replies) = c.enqueue(ClientAddr(1), &frame.encode()) else {
            panic!("must reject");
        };
        assert!(matches!(
            decoded(&replies)[0],
            Reply::Rejected {
                reason: RejectReason::UnknownTenant,
                ..
            }
        ));
    }

    #[test]
    fn quota_overflow_rejects_with_retry_after_and_drains() {
        let mut c = core();
        register(&mut c, 1, 2, 4);
        let observe = |v: i64| {
            Frame::request(
                TenantId(1),
                0,
                Request::Observe {
                    key: "ballot".into(),
                    value: v,
                },
            )
            .encode()
        };
        for i in 0..4 {
            assert!(matches!(
                c.enqueue(ClientAddr(1), &observe(i)),
                Enqueued::Queued(_)
            ));
        }
        // Mailbox (cap 4) is full: reject with the tenant's retry hint.
        let Enqueued::Rejected(replies) = c.enqueue(ClientAddr(1), &observe(9)) else {
            panic!("over quota must reject");
        };
        match decoded(&replies)[0] {
            Reply::Rejected {
                reason: RejectReason::QuotaExceeded,
                retry_after_ms,
            } => assert!(retry_after_ms > 0),
            ref other => panic!("wrong reply {other:?}"),
        }
        // Pumping drains the backlog and re-admits.
        assert_eq!(c.pump(TenantId(1)).len(), 4);
        assert!(matches!(
            c.enqueue(ClientAddr(1), &observe(9)),
            Enqueued::Queued(_)
        ));
        assert_eq!(c.tenant_digest(TenantId(1)).unwrap().rejected, 1);
    }

    #[test]
    fn round_results_fan_out_to_all_streams() {
        let mut c = core();
        let streams = [0, 1, 255, 65_536, u32::MAX];
        register(&mut c, 1, streams.len() as u32, 0);
        // Stream `s` sends from address 1000 + s, so a copy's address
        // names the stream it was meant for.
        let addr = |stream: u32| ClientAddr(1000 + u64::from(stream));
        let send = |c: &mut ServerCore, stream: u32, request: Request| {
            let frame = Frame::request(TenantId(1), stream, request).encode();
            assert!(matches!(
                c.enqueue(addr(stream), &frame),
                Enqueued::Queued(_)
            ));
        };
        for stream in streams {
            let value = format!("v\"{}", stream % 2);
            send(&mut c, stream, Request::Ballot { round: 1, value });
        }
        // One tick closing two more rounds fans out two rounds at once.
        send(&mut c, 0, Request::Tick { round: 3 });
        let mut sent = Vec::new();
        for (to, bytes) in c.pump(TenantId(1)) {
            let frame = Frame::decode(&bytes).unwrap();
            let Body::Reply(Reply::RoundResult(result)) = frame.body else {
                continue;
            };
            assert_eq!(to, addr(frame.stream), "a copy went to another stream");
            sent.push((result.round, frame.stream));
            // Byte for byte the frame encoded for its own stream.
            let fresh =
                Frame::reply(TenantId(1), frame.stream, Reply::RoundResult(result)).encode();
            assert_eq!(bytes, fresh, "stream {}", frame.stream);
        }
        let want: Vec<(u64, u32)> = (1..=3)
            .flat_map(|round| streams.map(|stream| (round, stream)))
            .collect();
        assert_eq!(sent, want);
    }

    #[test]
    fn a_registration_deeper_than_the_mailbox_bound_is_refused() {
        let registry = Registry::new();
        let mut c = ServerCore::new(ServeConfig::default(), &registry);
        register(&mut c, 1, 1, MAX_MAILBOX_CAP);
        for cap in [MAX_MAILBOX_CAP + 1, usize::MAX] {
            let frame = Frame::request(
                TenantId(2),
                0,
                Request::RegisterTenant {
                    expected_clients: 1,
                    mailbox_cap: cap,
                    ballot_min: -1,
                    ballot_max: 1,
                },
            );
            let Enqueued::Rejected(replies) = c.enqueue(ClientAddr(1), &frame.encode()) else {
                panic!("a mailbox cap of {cap} must be refused");
            };
            assert_eq!(
                decoded(&replies),
                [Reply::Rejected {
                    reason: RejectReason::BadFrame,
                    retry_after_ms: 0
                }]
            );
        }
        assert_eq!(registry.counter("serve.rejected").get(), 2);
        assert_eq!(c.tenant_ids(), [TenantId(1)]);
        // The refused id is still free.
        register(&mut c, 2, 1, 0);
    }

    #[test]
    fn a_tick_for_the_last_round_closes_a_bounded_run() {
        let mut c = core();
        register(&mut c, 1, 3, 0);
        for stream in 0..2 {
            let observe = Request::Observe {
                key: "ballot".into(),
                value: 1,
            };
            let frame = Frame::request(TenantId(1), stream, observe).encode();
            assert!(matches!(
                c.enqueue(ClientAddr(1), &frame),
                Enqueued::Queued(_)
            ));
        }
        c.pump(TenantId(1));
        let tick = Frame::request(TenantId(1), 0, Request::Tick { round: u64::MAX }).encode();
        for pass in 1..=2 {
            assert!(matches!(
                c.enqueue(ClientAddr(1), &tick),
                Enqueued::Queued(_)
            ));
            let rounds: Vec<u64> = decoded(&c.pump(TenantId(1)))
                .into_iter()
                .map(|reply| match reply {
                    Reply::RoundResult(result) => result.round,
                    other => panic!("a tick answers only round results, got {other:?}"),
                })
                .collect();
            // One frame per round for each of the two attached streams.
            assert_eq!(rounds.len(), 2 * MAX_TICK_ROUNDS);
            assert_eq!(rounds.iter().max(), Some(&(pass * MAX_TICK_ROUNDS as u64)));
        }
    }

    #[test]
    fn ticking_streams_count_against_the_stream_cap() {
        let config = ServeConfig {
            max_streams_per_tenant: 4,
            ..ServeConfig::default()
        };
        let mut c = ServerCore::new(config, &Registry::new());
        register(&mut c, 1, 3, 0);
        let tick = |stream: u32, round: u64| {
            Frame::request(TenantId(1), stream, Request::Tick { round }).encode()
        };
        // Each fresh stream ticks one round shut from its own address.
        for stream in 0..8u32 {
            let verdict = c.enqueue(
                ClientAddr(u64::from(stream)),
                &tick(stream, u64::from(stream) + 1),
            );
            if stream < 4 {
                assert!(matches!(verdict, Enqueued::Queued(_)), "{verdict:?}");
            } else {
                let Enqueued::Rejected(replies) = verdict else {
                    panic!("stream {stream} passed a cap of 4");
                };
                assert!(matches!(
                    decoded(&replies)[0],
                    Reply::Rejected {
                        reason: RejectReason::StreamLimit,
                        ..
                    }
                ));
            }
            c.pump(TenantId(1));
        }
        assert!(matches!(
            c.enqueue(ClientAddr(0), &tick(0, 5)),
            Enqueued::Queued(_)
        ));
        // Stream `s` sent from address `s`, so the fan-out names them.
        let addrs: Vec<u64> = c.pump(TenantId(1)).iter().map(|(a, _)| a.0).collect();
        assert_eq!(addrs, [0, 1, 2, 3], "a round reaches attached streams only");
    }

    #[test]
    fn quiesce_then_evict_returns_final_digest() {
        let mut c = core();
        register(&mut c, 7, 1, 0);
        let ballot = Frame::request(
            TenantId(7),
            0,
            Request::Ballot {
                round: 1,
                value: "v".into(),
            },
        );
        assert!(matches!(
            c.enqueue(ClientAddr(2), &ballot.encode()),
            Enqueued::Queued(_)
        ));
        c.pump(TenantId(7));
        let q = Frame::request(TenantId(7), 0, Request::Quiesce);
        let Enqueued::Handled(_) = c.enqueue(ClientAddr(2), &q.encode()) else {
            panic!("quiesce is control");
        };
        // Data after quiesce is refused.
        let Enqueued::Rejected(replies) = c.enqueue(ClientAddr(2), &ballot.encode()) else {
            panic!("quiescing tenant must reject data");
        };
        assert!(matches!(
            decoded(&replies)[0],
            Reply::Rejected {
                reason: RejectReason::Quiescing,
                ..
            }
        ));
        let e = Frame::request(TenantId(7), 0, Request::Evict);
        let Enqueued::Handled(replies) = c.enqueue(ClientAddr(2), &e.encode()) else {
            panic!("evict is control");
        };
        match &decoded(&replies)[0] {
            Reply::Evicted(digest) => {
                assert_eq!(digest.rounds, 1);
                assert_eq!(digest.rejected, 1);
            }
            other => panic!("wrong reply {other:?}"),
        }
        assert!(c.tenant_ids().is_empty());
    }

    #[test]
    fn tightening_the_mailbox_rejects_the_overflowing_backlog() {
        let mut c = core();
        register(&mut c, 1, 8, 8);
        let observe = Frame::request(
            TenantId(1),
            0,
            Request::Observe {
                key: "ballot".into(),
                value: 1,
            },
        )
        .encode();
        // Request i arrives from address 100 + i, so replies name it.
        for i in 0..6 {
            assert!(matches!(
                c.enqueue(ClientAddr(100 + i), &observe),
                Enqueued::Queued(_)
            ));
        }
        let addrs = |out: &[Outbound]| out.iter().map(|(a, _)| a.0).collect::<Vec<_>>();
        let rejected = c.set_tenant_mailbox_cap(TenantId(1), 4);
        assert_eq!(addrs(&rejected), [104, 105], "the newest bounce, in order");
        assert!(decoded(&rejected).iter().all(|r| matches!(
            r,
            Reply::Rejected {
                reason: RejectReason::QuotaExceeded,
                ..
            }
        )));
        assert_eq!(c.tenant_backlog(TenantId(1)), 4);
        let kept = c.pump(TenantId(1));
        assert_eq!(addrs(&kept), [100, 101, 102, 103], "the oldest pump FIFO");
        assert_eq!(c.tenant_digest(TenantId(1)).unwrap().rejected, 2);
    }

    #[test]
    fn every_frame_lands_in_exactly_one_accounting_bucket() {
        let registry = Registry::new();
        let mut c = ServerCore::new(ServeConfig::default(), &registry);
        register(&mut c, 1, 1, 0);
        let stray_reply = Frame::reply(TenantId(1), 0, Reply::Quiesced { tenant: 1 }).encode();
        let bad_frames: [&[u8]; 4] = [
            &[0, 1],                                 // truncated header
            &[0, 1, 0, 0, 0, 0, 9, b'{'],            // unknown kind
            &[0, 1, 0, 0, 0, 0, KIND_REQUEST, b'{'], // body does not parse
            &stray_reply,
        ];
        for bytes in bad_frames {
            c.enqueue(ClientAddr(1), bytes);
        }
        // Well-formed registrations with values no tenant can run with:
        // refused, and the id stays free.
        for (clients, min, max) in [(0, -1, 1), (1, 1, -1)] {
            let frame = Frame::request(
                TenantId(2),
                0,
                Request::RegisterTenant {
                    expected_clients: clients,
                    mailbox_cap: 0,
                    ballot_min: min,
                    ballot_max: max,
                },
            );
            let Enqueued::Rejected(replies) = c.enqueue(ClientAddr(1), &frame.encode()) else {
                panic!("malformed registration ({clients}, {min}, {max}) must be refused");
            };
            assert_eq!(
                decoded(&replies),
                [Reply::Rejected {
                    reason: RejectReason::BadFrame,
                    retry_after_ms: 0
                }]
            );
        }
        register(&mut c, 2, 1, 0);
        let count = |name: &'static str| registry.counter(name).get();
        assert_eq!(count("serve.bad_frames"), 4);
        assert_eq!(count("serve.rejected"), 2);
        assert_eq!(
            count("serve.frames"),
            count("serve.handled")
                + count("serve.queued")
                + count("serve.rejected")
                + count("serve.bad_frames")
        );
    }
}
