//! Real-socket backend of [`Transport`] over `std::net`.
//!
//! Each node binds one listener and keeps one outbound connection per
//! peer, managed by a dedicated writer thread:
//!
//! * **framing** — length-prefixed binary frames (`u32` big-endian
//!   length, one tag byte, body): `Hello` announces the sender's
//!   [`NodeId`] once per connection, `Ping` is the idle heartbeat,
//!   `Data` carries an opaque payload;
//! * **bounded send queues with backpressure** — [`Transport::send`]
//!   blocks up to [`TcpConfig::backpressure_timeout`] for queue space,
//!   then fails with [`NetError::Backpressure`] instead of buffering
//!   without bound;
//! * **reconnect** — a broken link is re-established with bounded,
//!   jittered exponential backoff; the outage is measured by a
//!   telemetry span (the `net.tcp.reconnect` histogram) and counted
//!   per peer; when the retry budget is exhausted the queued messages
//!   are dropped and counted, matching the unreliable-channel contract;
//! * **heartbeats** — an idle link sends `Ping` every
//!   [`TcpConfig::heartbeat_every`]; receivers expose the freshness of
//!   each peer via [`TcpTransport::last_heard`].
//!
//! The backend never panics on socket errors: every failure path
//! degrades to dropped messages, which the layers above (deadlines in
//! the voting farm, re-publication in the bus) already tolerate.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use afta_sim::{parse_seed, SeedFactory};
use afta_telemetry::{Counter, Registry, TelemetrySpan};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Envelope, Inbox, NetError, NodeId, Transport};

/// Frame tags of the wire protocol.
const TAG_HELLO: u8 = 0;
const TAG_PING: u8 = 1;
const TAG_DATA: u8 = 2;

/// Largest accepted frame body; bigger frames indicate a corrupt or
/// hostile stream and close the connection.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Tuning knobs of a [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Per-peer bounded send-queue capacity.
    pub send_queue_cap: usize,
    /// How long [`Transport::send`] waits for queue space before
    /// reporting [`NetError::Backpressure`].
    pub backpressure_timeout: Duration,
    /// Idle interval after which a `Ping` heartbeat is sent.
    pub heartbeat_every: Duration,
    /// First reconnect backoff delay (doubles per attempt, jittered).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Connect attempts per reconnect cycle before the queued messages
    /// are dropped and the link goes idle until the next send.
    pub max_connect_attempts: u32,
    /// Socket read timeout (bounds how long reader threads take to
    /// notice shutdown).
    pub read_timeout: Duration,
    /// Master seed for reconnect-backoff jitter.  Each link derives its
    /// own named [`SeedFactory`] stream from this, so reconnect traces
    /// are reproducible run-to-run.  The default honours the `AFTA_SEED`
    /// environment variable (decimal or `0x`-hex), like every other
    /// seeded component.
    pub seed: u64,
}

/// Fallback jitter seed when `AFTA_SEED` is unset (same default master
/// seed as `afta-fuzz`).
const DEFAULT_JITTER_SEED: u64 = 0xAF7A;

/// Reads an `AFTA_SEED`-style value with [`parse_seed`].  Unset or
/// unparsable values fall back to [`DEFAULT_JITTER_SEED`] — transport
/// construction must not fail on a bad environment string.
fn seed_from_env(text: Option<&str>) -> u64 {
    text.and_then(parse_seed).unwrap_or(DEFAULT_JITTER_SEED)
}

/// The per-link backoff-jitter stream: a named [`SeedFactory`] stream so
/// the `local -> peer` direction of every link jitters independently but
/// reproducibly under one master seed.
fn reconnect_jitter_rng(seed: u64, local: NodeId, peer: NodeId) -> StdRng {
    SeedFactory::new(seed).stream(&format!("net.tcp.reconnect.{}->{}", local.0, peer.0))
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            send_queue_cap: 1024,
            backpressure_timeout: Duration::from_millis(100),
            heartbeat_every: Duration::from_millis(200),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            max_connect_attempts: 8,
            read_timeout: Duration::from_millis(250),
            seed: seed_from_env(std::env::var("AFTA_SEED").ok().as_deref()),
        }
    }
}

#[derive(Debug, Default)]
struct TcpMetrics {
    sent: Counter,
    received: Counter,
    dropped: Counter,
    backpressure: Counter,
    reconnects: Counter,
    heartbeats: Counter,
}

struct LinkQueue {
    queue: VecDeque<Vec<u8>>,
    /// Messages dropped because the retry budget ran out.
    dropped: u64,
}

struct PeerLink {
    peer: NodeId,
    addr: SocketAddr,
    state: Mutex<LinkQueue>,
    not_full: Condvar,
    not_empty: Condvar,
    connected: AtomicBool,
    sent: Counter,
    reconnects: Counter,
}

impl PeerLink {
    fn lock(&self) -> std::sync::MutexGuard<'_, LinkQueue> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct TcpShared {
    local: NodeId,
    config: TcpConfig,
    inbox: Inbox,
    links: Mutex<HashMap<NodeId, Arc<PeerLink>>>,
    last_seen: Mutex<HashMap<NodeId, Instant>>,
    registry: Registry,
    metrics: TcpMetrics,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl TcpShared {
    fn poisoned_ok<'a, T>(
        guard: Result<std::sync::MutexGuard<'a, T>, PoisonError<std::sync::MutexGuard<'a, T>>>,
    ) -> std::sync::MutexGuard<'a, T> {
        guard.unwrap_or_else(PoisonError::into_inner)
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn note_seen(&self, peer: NodeId) {
        Self::poisoned_ok(self.last_seen.lock()).insert(peer, Instant::now());
    }
}

/// A `std::net` implementation of [`Transport`].
///
/// Cloning yields another handle onto the same endpoint.
#[derive(Clone)]
pub struct TcpTransport {
    shared: Arc<TcpShared>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("node", &self.shared.local)
            .field("addr", &self.shared.local_addr)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn write_frame(stream: &mut TcpStream, tag: u8, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame body too large")
    })?;
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&len.to_be_bytes());
    header[4] = tag;
    stream.write_all(&header)?;
    stream.write_all(body)?;
    Ok(())
}

/// Reads one frame, retrying through read-timeout ticks so the caller
/// can poll `should_stop` between them.
fn read_frame(
    stream: &mut TcpStream,
    should_stop: &dyn Fn() -> bool,
) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; 5];
    let mut filled = 0;
    while filled < header.len() {
        if should_stop() {
            return Ok(None);
        }
        match stream.read(&mut header[filled..]) {
            Ok(0) => return Ok(None), // clean EOF
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if filled == 0 {
                    continue; // idle between frames: keep polling
                }
                return Err(e); // timed out mid-frame: broken peer
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let tag = header[4];
    let mut body = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < body.len() {
        if should_stop() {
            return Ok(None);
        }
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Ok(None),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some((tag, body)))
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

fn accept_loop(shared: Arc<TcpShared>, listener: TcpListener) {
    loop {
        if shared.is_shutdown() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_shutdown() {
                    return;
                }
                let shared = shared.clone();
                std::thread::spawn(move || reader_loop(&shared, stream));
            }
            Err(_) => {
                if shared.is_shutdown() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn reader_loop(shared: &TcpShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let stop = || shared.is_shutdown();

    // The first frame must introduce the peer.
    let peer = match read_frame(&mut stream, &stop) {
        Ok(Some((TAG_HELLO, body))) if body.len() == 2 => {
            NodeId(u16::from_be_bytes([body[0], body[1]]))
        }
        _ => return, // not a peer of ours
    };
    shared.note_seen(peer);
    let peer_received = shared
        .registry
        .scoped(format!("net.peer.{peer}"))
        .counter("received");

    loop {
        match read_frame(&mut stream, &stop) {
            Ok(Some((TAG_PING, _))) => {
                shared.note_seen(peer);
                shared.metrics.heartbeats.inc();
            }
            Ok(Some((TAG_DATA, body))) => {
                shared.note_seen(peer);
                shared.metrics.received.inc();
                peer_received.inc();
                shared.inbox.push(Envelope {
                    from: peer,
                    payload: body,
                });
            }
            Ok(Some(_)) => {} // unknown tag: ignore, stay compatible
            Ok(None) | Err(_) => return,
        }
    }
}

/// One reconnect cycle: bounded attempts with jittered exponential
/// backoff.  Returns the connected stream or `None` when the budget is
/// exhausted.
fn connect_cycle(shared: &TcpShared, link: &PeerLink, rng: &mut StdRng) -> Option<TcpStream> {
    let mut delay = shared.config.backoff_base;
    for attempt in 0..shared.config.max_connect_attempts {
        if shared.is_shutdown() {
            return None;
        }
        if let Ok(mut stream) = TcpStream::connect_timeout(&link.addr, Duration::from_millis(500)) {
            let _ = stream.set_nodelay(true);
            let hello = shared.local.0.to_be_bytes();
            if write_frame(&mut stream, TAG_HELLO, &hello).is_ok() {
                return Some(stream);
            }
        }
        if attempt + 1 < shared.config.max_connect_attempts {
            // Jittered exponential backoff: [delay/2, delay), doubling.
            let nanos = delay.as_nanos().max(2) as u64;
            let jittered = Duration::from_nanos(rng.gen_range(nanos / 2..nanos));
            std::thread::sleep(jittered);
            delay = (delay * 2).min(shared.config.backoff_cap);
        }
    }
    None
}

fn writer_loop(shared: Arc<TcpShared>, link: Arc<PeerLink>) {
    let mut rng = reconnect_jitter_rng(shared.config.seed, shared.local, link.peer);
    let mut stream: Option<TcpStream> = None;
    let mut last_write = Instant::now();
    // Spans an outage from the moment the link breaks to the successful
    // reconnect; records into the `net.tcp.reconnect` histogram on drop.
    let mut outage: Option<TelemetrySpan> = None;
    let mut ever_connected = false;

    loop {
        if shared.is_shutdown() {
            return;
        }

        // Wait for work or a heartbeat tick.
        let msg = {
            let mut state = link.lock();
            loop {
                if shared.is_shutdown() {
                    return;
                }
                if let Some(msg) = state.queue.pop_front() {
                    link.not_full.notify_one();
                    break Some(msg);
                }
                if stream.is_some() && last_write.elapsed() >= shared.config.heartbeat_every {
                    break None; // heartbeat due
                }
                let (guard, _) = link
                    .not_empty
                    .wait_timeout(state, shared.config.heartbeat_every)
                    .unwrap_or_else(PoisonError::into_inner);
                state = guard;
            }
        };

        // Ensure the link is up.
        if stream.is_none() {
            if outage.is_none() && ever_connected {
                outage = Some(shared.registry.span("net.tcp.reconnect"));
            }
            match connect_cycle(&shared, &link, &mut rng) {
                Some(s) => {
                    if ever_connected {
                        shared.metrics.reconnects.inc();
                        link.reconnects.inc();
                    }
                    ever_connected = true;
                    if let Some(span) = outage.take() {
                        span.finish();
                    }
                    link.connected.store(true, Ordering::Release);
                    stream = Some(s);
                    last_write = Instant::now();
                }
                None => {
                    // Retry budget exhausted: this message (and anything
                    // else queued) is lost — count it and go idle until
                    // the next send re-arms the cycle.
                    let mut state = link.lock();
                    let lost = state.queue.len() as u64 + u64::from(msg.is_some());
                    state.queue.clear();
                    state.dropped += lost;
                    shared.metrics.dropped.add(lost);
                    link.not_full.notify_all();
                    continue;
                }
            }
        }

        let s = stream.as_mut().expect("connected above");
        let result = match &msg {
            Some(payload) => write_frame(s, TAG_DATA, payload),
            None => write_frame(s, TAG_PING, &[]),
        };
        match result {
            Ok(()) => {
                last_write = Instant::now();
                if msg.is_some() {
                    shared.metrics.sent.inc();
                    link.sent.inc();
                }
            }
            Err(_) => {
                // Broken link: drop the stream, requeue nothing (this
                // message is lost — unreliable channel), reconnect on
                // the next pass.
                stream = None;
                link.connected.store(false, Ordering::Release);
                if msg.is_some() {
                    shared.metrics.dropped.inc();
                    let mut state = link.lock();
                    state.dropped += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl TcpTransport {
    /// Binds `node`'s endpoint on `addr` (use port 0 for an ephemeral
    /// port) and starts the accept loop.  Telemetry lands in `registry`
    /// (pass [`Registry::disabled`] to opt out).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the listener cannot bind.
    pub fn bind(
        node: NodeId,
        addr: &str,
        config: TcpConfig,
        registry: &Registry,
    ) -> Result<TcpTransport, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Io(e.to_string()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?;
        let metrics = TcpMetrics {
            sent: registry.counter("net.tcp.sent"),
            received: registry.counter("net.tcp.received"),
            dropped: registry.counter("net.tcp.dropped"),
            backpressure: registry.counter("net.tcp.backpressure"),
            reconnects: registry.counter("net.tcp.reconnects"),
            heartbeats: registry.counter("net.tcp.heartbeats"),
        };
        let shared = Arc::new(TcpShared {
            local: node,
            config,
            inbox: Inbox::default(),
            links: Mutex::new(HashMap::new()),
            last_seen: Mutex::new(HashMap::new()),
            registry: registry.clone(),
            metrics,
            shutdown: AtomicBool::new(false),
            local_addr,
        });
        let accept_shared = shared.clone();
        std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(TcpTransport { shared })
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Registers `peer` at `addr` and starts its writer thread.  The
    /// connection is established lazily on the first send.
    pub fn add_peer(&self, peer: NodeId, addr: SocketAddr) {
        let scope = self.shared.registry.scoped(format!("net.peer.{peer}"));
        let sent = scope.counter("sent");
        let reconnects = scope.counter("reconnects");
        let link = Arc::new(PeerLink {
            peer,
            addr,
            state: Mutex::new(LinkQueue {
                queue: VecDeque::new(),
                dropped: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            connected: AtomicBool::new(false),
            sent,
            reconnects,
        });
        TcpShared::poisoned_ok(self.shared.links.lock()).insert(peer, link.clone());
        let shared = self.shared.clone();
        std::thread::spawn(move || writer_loop(shared, link));
    }

    /// How long ago anything (data or heartbeat) was last received from
    /// `peer`; `None` before first contact.
    #[must_use]
    pub fn last_heard(&self, peer: NodeId) -> Option<Duration> {
        TcpShared::poisoned_ok(self.shared.last_seen.lock())
            .get(&peer)
            .map(Instant::elapsed)
    }

    /// Whether the outbound link to `peer` is currently established.
    #[must_use]
    pub fn is_connected(&self, peer: NodeId) -> bool {
        TcpShared::poisoned_ok(self.shared.links.lock())
            .get(&peer)
            .is_some_and(|l| l.connected.load(Ordering::Acquire))
    }

    /// Messages to `peer` dropped so far (broken link or exhausted
    /// reconnect budget).
    #[must_use]
    pub fn dropped_to(&self, peer: NodeId) -> u64 {
        TcpShared::poisoned_ok(self.shared.links.lock())
            .get(&peer)
            .map_or(0, |l| l.lock().dropped)
    }

    /// Stops every thread and fails subsequent operations with
    /// [`NetError::Closed`].  Idempotent; also called on drop of the
    /// last handle.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake writer threads.
        for link in TcpShared::poisoned_ok(self.shared.links.lock()).values() {
            link.not_empty.notify_all();
            link.not_full.notify_all();
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.shared.local_addr, Duration::from_millis(100));
        // Wake a blocked receiver.
        self.shared.inbox.push(Envelope {
            from: NodeId(u16::MAX),
            payload: Vec::new(),
        });
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Two references left means this handle plus the accept loop's:
        // no other user-facing handle remains.
        if Arc::strong_count(&self.shared) <= 2 {
            self.shutdown();
        }
    }
}

impl Transport for TcpTransport {
    fn local(&self) -> NodeId {
        self.shared.local
    }

    fn send(&self, to: NodeId, payload: Vec<u8>) -> Result<(), NetError> {
        if self.shared.is_shutdown() {
            return Err(NetError::Closed);
        }
        let link = TcpShared::poisoned_ok(self.shared.links.lock())
            .get(&to)
            .cloned()
            .ok_or(NetError::UnknownPeer(to))?;
        let deadline = Instant::now() + self.shared.config.backpressure_timeout;
        let mut state = link.lock();
        while state.queue.len() >= self.shared.config.send_queue_cap {
            let now = Instant::now();
            if now >= deadline || self.shared.is_shutdown() {
                self.shared.metrics.backpressure.inc();
                return Err(NetError::Backpressure { peer: to });
            }
            let (guard, _) = link
                .not_full
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
        state.queue.push_back(payload);
        drop(state);
        link.not_empty.notify_one();
        Ok(())
    }

    fn recv_deadline(&self, timeout: Duration) -> Result<Envelope, NetError> {
        if self.shared.is_shutdown() {
            return Err(NetError::Closed);
        }
        let envelope = self.shared.inbox.pop_deadline(timeout)?;
        if self.shared.is_shutdown() {
            return Err(NetError::Closed);
        }
        Ok(envelope)
    }

    fn peers(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = TcpShared::poisoned_ok(self.shared.links.lock())
            .keys()
            .copied()
            .collect();
        peers.sort_unstable();
        peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(config: TcpConfig) -> (TcpTransport, TcpTransport) {
        let registry = Registry::new();
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0", config.clone(), &registry).unwrap();
        let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0", config, &registry).unwrap();
        a.add_peer(NodeId(2), b.local_addr());
        b.add_peer(NodeId(1), a.local_addr());
        (a, b)
    }

    fn jitter_trace(seed: u64, local: NodeId, peer: NodeId) -> Vec<u64> {
        let mut rng = reconnect_jitter_rng(seed, local, peer);
        (0..8).map(|_| rng.gen_range(0..1_000_000u64)).collect()
    }

    /// Regression: reconnect jitter used to come from an ad-hoc
    /// xor-of-node-ids seed that ignored `AFTA_SEED`, so reconnect
    /// traces could not be reproduced alongside the rest of a seeded
    /// run.  The jitter stream must now be a [`SeedFactory`] derivation
    /// of the configured master seed.
    #[test]
    fn reconnect_jitter_is_seeded_and_reproducible() {
        let a = jitter_trace(42, NodeId(1), NodeId(2));
        assert_eq!(
            a,
            jitter_trace(42, NodeId(1), NodeId(2)),
            "same seed, same link: identical jitter trace"
        );
        assert_ne!(
            a,
            jitter_trace(43, NodeId(1), NodeId(2)),
            "master seed must reach the jitter stream"
        );
        assert_ne!(
            a,
            jitter_trace(42, NodeId(2), NodeId(1)),
            "each link direction draws an independent stream"
        );
        // The stream is the documented SeedFactory derivation, not some
        // private mixing — operators can recompute it.
        let mut expected = SeedFactory::new(42).stream("net.tcp.reconnect.1->2");
        let direct: Vec<u64> = (0..8)
            .map(|_| expected.gen_range(0..1_000_000u64))
            .collect();
        assert_eq!(a, direct);
    }

    #[test]
    fn jitter_seed_env_parsing() {
        assert_eq!(seed_from_env(None), DEFAULT_JITTER_SEED);
        assert_eq!(seed_from_env(Some("nonsense")), DEFAULT_JITTER_SEED);
    }

    #[test]
    fn loopback_roundtrip_preserves_order() {
        let (a, b) = pair(TcpConfig::default());
        for i in 0..20u8 {
            a.send(NodeId(2), vec![i]).unwrap();
        }
        for i in 0..20u8 {
            let env = b.recv_deadline(Duration::from_secs(5)).unwrap();
            assert_eq!(env.from, NodeId(1));
            assert_eq!(env.payload, vec![i]);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn bidirectional_traffic() {
        let (a, b) = pair(TcpConfig::default());
        a.send(NodeId(2), b"to-b".to_vec()).unwrap();
        b.send(NodeId(1), b"to-a".to_vec()).unwrap();
        assert_eq!(
            b.recv_deadline(Duration::from_secs(5)).unwrap().payload,
            b"to-b"
        );
        assert_eq!(
            a.recv_deadline(Duration::from_secs(5)).unwrap().payload,
            b"to-a"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn unknown_peer_rejected() {
        let registry = Registry::disabled();
        let a =
            TcpTransport::bind(NodeId(1), "127.0.0.1:0", TcpConfig::default(), &registry).unwrap();
        assert_eq!(
            a.send(NodeId(42), vec![1]),
            Err(NetError::UnknownPeer(NodeId(42)))
        );
        a.shutdown();
    }

    #[test]
    fn recv_times_out_when_silent() {
        let (a, b) = pair(TcpConfig::default());
        assert_eq!(
            b.recv_deadline(Duration::from_millis(30)),
            Err(NetError::Timeout)
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn heartbeats_update_last_heard() {
        let config = TcpConfig {
            heartbeat_every: Duration::from_millis(30),
            ..TcpConfig::default()
        };
        let (a, b) = pair(config);
        // Prime the connection with one data frame.
        a.send(NodeId(2), vec![0]).unwrap();
        let _ = b.recv_deadline(Duration::from_secs(5)).unwrap();
        // Then silence: heartbeats alone must keep freshness bounded.
        std::thread::sleep(Duration::from_millis(200));
        let heard = b.last_heard(NodeId(1)).expect("peer was heard");
        assert!(
            heard < Duration::from_millis(150),
            "heartbeats should keep last_heard fresh, got {heard:?}"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn backpressure_on_full_queue() {
        let config = TcpConfig {
            send_queue_cap: 4,
            backpressure_timeout: Duration::from_millis(20),
            // A long, slow connect cycle keeps the writer stuck while
            // the bounded queue fills behind it.
            max_connect_attempts: 1000,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(200),
            ..TcpConfig::default()
        };
        let registry = Registry::new();
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0", config, &registry).unwrap();
        // Peer address nobody listens on: the writer can never drain.
        a.add_peer(NodeId(2), "127.0.0.1:1".parse().unwrap());
        let mut saw_backpressure = false;
        for i in 0..200u32 {
            match a.send(NodeId(2), i.to_be_bytes().to_vec()) {
                Ok(()) => {}
                Err(NetError::Backpressure { peer }) => {
                    assert_eq!(peer, NodeId(2));
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            saw_backpressure,
            "a dead peer with a bounded queue must backpressure"
        );
        a.shutdown();
    }

    #[test]
    fn reconnects_after_peer_restart() {
        let config = TcpConfig {
            heartbeat_every: Duration::from_millis(20),
            backoff_base: Duration::from_millis(5),
            max_connect_attempts: 20,
            ..TcpConfig::default()
        };
        let registry = Registry::new();
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0", config.clone(), &registry).unwrap();
        let b1 = TcpTransport::bind(NodeId(2), "127.0.0.1:0", config.clone(), &registry).unwrap();
        let b_addr = b1.local_addr();
        a.add_peer(NodeId(2), b_addr);

        a.send(NodeId(2), b"first".to_vec()).unwrap();
        assert_eq!(
            b1.recv_deadline(Duration::from_secs(5)).unwrap().payload,
            b"first"
        );

        // Kill the peer; the link breaks.
        b1.shutdown();
        std::thread::sleep(Duration::from_millis(100));

        // Restart it on the same address.
        let b2 = TcpTransport::bind(NodeId(2), &b_addr.to_string(), config, &registry).unwrap();
        // Some sends may be lost while the link re-establishes; keep
        // sending until one gets through.
        let mut delivered = None;
        for i in 0..200u32 {
            let _ = a.send(NodeId(2), format!("retry-{i}").into_bytes());
            if let Ok(env) = b2.recv_deadline(Duration::from_millis(50)) {
                delivered = Some(env);
                break;
            }
        }
        let env = delivered.expect("link must re-establish after peer restart");
        assert_eq!(env.from, NodeId(1));
        assert!(registry.report().counter("net.tcp.reconnects") >= 1);
        a.shutdown();
        b2.shutdown();
    }

    #[test]
    fn shutdown_fails_fast() {
        let (a, b) = pair(TcpConfig::default());
        a.shutdown();
        assert_eq!(a.send(NodeId(2), vec![1]), Err(NetError::Closed));
        assert_eq!(
            a.recv_deadline(Duration::from_millis(10)),
            Err(NetError::Closed)
        );
        a.shutdown(); // idempotent
        b.shutdown();
    }

    #[test]
    fn exhausted_retry_budget_drops_and_counts() {
        let config = TcpConfig {
            max_connect_attempts: 2,
            backoff_base: Duration::from_millis(1),
            ..TcpConfig::default()
        };
        let registry = Registry::new();
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0", config, &registry).unwrap();
        a.add_peer(NodeId(7), "127.0.0.1:1".parse().unwrap());
        a.send(NodeId(7), vec![1]).unwrap();
        // Give the writer time to burn its retry budget.
        std::thread::sleep(Duration::from_millis(200));
        assert!(a.dropped_to(NodeId(7)) >= 1);
        assert!(registry.report().counter("net.tcp.dropped") >= 1);
        a.shutdown();
    }
}
