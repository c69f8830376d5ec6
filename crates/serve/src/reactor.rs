//! The poll-based TCP frontend: one readiness loop, a small worker pool.
//!
//! `TcpTransport` spawns two threads per peer — fine for a voting farm
//! of nine, fatal for tens of thousands of monitored clients.  The
//! [`Reactor`] replaces thread-per-connection with:
//!
//! * **one reactor thread** owning every socket: it blocks in `poll(2)`
//!   until something is ready, then accepts (up to an admission cap),
//!   reads the connections `poll` reported, slices the byte stream into
//!   length-prefixed frames, runs cheap admission
//!   ([`ServerCore::enqueue`]) inline, and flushes pending writes — all
//!   without ever blocking on a socket;
//! * **a small worker pool** doing the real work: when a frame turns a
//!   tenant's mailbox from empty to non-empty, the reactor hands that
//!   tenant id to the worker `tenant % workers`, which drains and
//!   processes the whole mailbox (the loop behind [`ServerCore::pump`])
//!   and queues the replies back to the reactor.  A frame admitted
//!   behind others finds their hand-off still pending and sends none, so
//!   a worker takes the core lock once per ready tenant, not once per
//!   frame.  Hashing tenants onto workers keeps each tenant's processing
//!   FIFO.
//!
//! Every reply carries the address of the connection it answers.  The
//! workers and the reactor's own inline admissions alike append their
//! replies to one outbox while they hold the core lock, so the outbox
//! keeps the order in which the core made them.  The outbox holds the
//! replies framed for the socket: one buffer per connection, of
//! `[len][frame]` messages back to back.  A worker pumps into an outbox
//! of its own, which frames each reply in place with no buffer per
//! reply, and appends it to the shared one before it releases the core
//! lock: a move when the shared one is empty, and otherwise each
//! connection's buffer is moved in or extends the one already there.
//! The reactor takes the whole outbox each pass.  A connection with
//! nothing unsent takes its buffer as its write buffer, with no copy;
//! one with unsent bytes gets a copy of it after them.  No outbox
//! buffer is kept from one pass to the next.  A connection therefore
//! reads its replies in request order even when an `Evict` from
//! another connection answers the requests its tenant still had
//! queued.  What the core answers at admission (a control request, a
//! rejection) is the exception: it can overtake the answers to the
//! connection's own requests still waiting in a mailbox.
//!
//! `poll` watches the listener, every connection and a *waker*, one end
//! of a socket pair.  A connection asks for `POLLOUT` only while it has
//! unsent bytes, and a hang-up or error counts as readable, so a dead
//! peer is reaped by its failing read.  The loop therefore wakes for
//! exactly five things: a connection to accept, bytes to read, a socket
//! that can take pending bytes, a worker reply, and shutdown.  The last
//! two write one byte to the waker: a worker when it turns the outbox
//! from empty to non-empty, [`Reactor::shutdown`] after setting the
//! stop flag.  An idle server makes no system calls, and a request
//! waits for no timer.
//! A connection left with more than 16 MiB unsent after a flush is
//! closed: its client sends requests but does not read the answers.
//! End of stream counts as a dead peer too: the pass that reads it
//! removes the connection, so a client that half-closes after its last
//! frame gets only the replies already written.  The requests it had
//! admitted are still processed and counted, but their replies not yet
//! written are dropped.
//! The one `unsafe` call, `poll` itself, lives in
//! [`afta_eventbus::poll`], so this crate stays `forbid(unsafe_code)`.
//! The `serve.reactor.sweep` histogram times each pass from `poll`'s
//! return to the end of its work, so it measures work, not waiting in
//! `poll`.  On a shared CPU a pass also counts the time of the threads
//! it wakes (a worker, a client) if they run before it ends.  The
//! `serve.reactor.pump` histogram times each worker's pump, under the
//! core lock, so the two split the serving time between the threads.
//!
//! Framing on the wire is `[u32 big-endian length][frame bytes]` per
//! message ([`write_framed`] and `encode_framed` write it,
//! [`next_framed`] reads it), with the multiplexed [`Frame`] header
//! inside.  It is not `TcpTransport`'s framing, which adds a tag byte
//! after the length.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use afta_eventbus::poll::{poll, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use afta_telemetry::{FixedHistogram, Registry, DEFAULT_TIME_BOUNDS_NS};

use crate::core::{ClientAddr, Enqueued, Outbound, Replies, ServeConfig, ServerCore};
use crate::proto::{encode_framed, next_framed, write_framed, Frame, TenantId};

/// How long the loop pauses after `poll` or `accept` fails, instead of
/// retrying at once into the same failure.
const BACKOFF: Duration = Duration::from_millis(1);

/// Most bytes one `read` call takes from a connection: the size of the
/// scratch buffer every read goes through.
const READ_BUFFER: usize = 8 * 1024;

/// Most connections accepted per pass (bounds accept bursts).
const ACCEPT_BURST: usize = 256;

/// Largest accepted frame, in bytes; a length prefix announcing more
/// closes the connection.
const MAX_FRAME: u32 = 1024 * 1024;

/// Most reply bytes a connection may have waiting unsent after a flush;
/// past it the connection is closed, so a client that sends but never
/// reads cannot make the server buffer without limit.
const MAX_UNSENT: usize = 16 * 1024 * 1024;

/// Tuning knobs of the [`Reactor`].  There is no wake-up interval: the
/// reactor sleeps in `poll(2)` until a socket, a worker reply or
/// shutdown wakes it (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ReactorConfig {
    /// Admission cap: connections beyond this are closed on accept.
    pub max_connections: usize,
    /// Worker threads pumping tenant mailboxes.
    pub workers: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_connections: 16_384,
            workers: 4,
        }
    }
}

/// One connection's state on the reactor thread.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet sliced into frames.
    read_buf: Vec<u8>,
    /// Encoded `[len][frame]` messages waiting to be written; more than
    /// [`MAX_UNSENT`] of them left after a flush close the connection.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written.
    written: usize,
}

/// Replies framed for the socket: one buffer per connection, holding its
/// `[len][frame]` messages back to back in the order the core made them
/// (see the module docs).
#[derive(Default)]
pub(crate) struct Outbox(pub(crate) BTreeMap<ClientAddr, Vec<u8>>);

impl Outbox {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The buffer of the messages to `addr`.
    fn to(&mut self, addr: ClientAddr) -> &mut Vec<u8> {
        self.0.entry(addr).or_default()
    }

    /// Appends `other`'s messages after these: a move when this outbox
    /// is empty, and otherwise each of `other`'s buffers is [`put`]
    /// after this outbox's bytes to its connection.
    pub(crate) fn append(&mut self, other: Outbox) {
        if self.is_empty() {
            *self = other;
            return;
        }
        for (addr, bytes) in other.0 {
            put(self.to(addr), bytes);
        }
    }

    /// Hands each buffer to its connection, [`put`] after its unsent
    /// bytes.  Bytes to a connection that closed meanwhile are dropped,
    /// like any send on a broken link.
    fn deliver(self, conns: &mut HashMap<u64, Conn>) {
        for (addr, bytes) in self.0 {
            if let Some(conn) = conns.get_mut(&addr.0) {
                put(&mut conn.write_buf, bytes);
            }
        }
    }
}

/// Puts `bytes` after `buffer`'s: as `buffer` itself, with no copy, when
/// that holds nothing, and otherwise as a copy.
fn put(buffer: &mut Vec<u8>, bytes: Vec<u8>) {
    if buffer.is_empty() {
        *buffer = bytes;
    } else {
        buffer.extend_from_slice(&bytes);
    }
}

/// Frames each reply in place, and a round's copies from its one
/// encoding, with no buffer per reply.
impl Replies for Outbox {
    fn reply(&mut self, addr: ClientAddr, frame: &Frame) {
        encode_framed(self.to(addr), frame);
    }

    fn fan_out(&mut self, round: &[u8], clients: &BTreeMap<u32, ClientAddr>) {
        for (&stream, &addr) in clients {
            let bytes = self.to(addr);
            write_framed(bytes, round);
            let copy = bytes.len() - round.len();
            Frame::restream(&mut bytes[copy..], stream);
        }
    }
}

/// The replies the core returns to the reactor's inline admissions.
impl From<Vec<Outbound>> for Outbox {
    fn from(replies: Vec<Outbound>) -> Self {
        let mut outbox = Outbox::default();
        for (addr, frame) in replies {
            write_framed(outbox.to(addr), &frame);
        }
        outbox
    }
}

/// Shared between the reactor thread, the workers, and the handle.
struct Shared {
    core: Mutex<ServerCore>,
    /// Every reply framed for the socket, one buffer per connection in
    /// the order the core made them: appended by [`Shared::post`] and
    /// taken whole by the reactor each pass, which hands each buffer to
    /// its connection (a move when that has nothing unsent) and keeps
    /// no part of it.
    outbox: Mutex<Outbox>,
    stop: AtomicBool,
    /// The waker pair: [`Shared::wake`] writes to `wake_tx`, the
    /// reactor polls and drains `wake_rx`.  Both ends live as long as
    /// any thread can write, so a wake never meets a closed peer.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Shared {
    /// Makes the reactor's current or next `poll` return.
    fn wake(&self) {
        // Both ends are non-blocking: a full waker already holds a
        // wake-up, so `WouldBlock` loses nothing.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Appends `replies` to the outbox and says whether it was empty.
    /// Call it with the core still locked, so the outbox keeps the
    /// core's order.
    fn post(&self, replies: Outbox) -> bool {
        let mut outbox = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
        let was_empty = outbox.is_empty();
        outbox.append(replies);
        was_empty
    }
}

/// The poll-based multi-tenant TCP server (see the module docs).
pub struct Reactor {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    registry: Registry,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Reactor {
    /// Binds `addr` (port 0 for ephemeral) and starts the reactor
    /// thread plus `config.workers` pump workers.  Telemetry lands in
    /// `registry` under `serve.reactor.*` and `serve.tenant.*`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the listener cannot bind or the
    /// waker's socket pair cannot be created.
    pub fn bind(
        addr: &str,
        config: ReactorConfig,
        serve: ServeConfig,
        registry: &Registry,
    ) -> std::io::Result<Reactor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            core: Mutex::new(ServerCore::new(serve, registry)),
            outbox: Mutex::new(Outbox::default()),
            stop: AtomicBool::new(false),
            wake_tx,
            wake_rx,
        });
        let worker_count = config.workers.max(1);
        let mut senders: Vec<Sender<TenantId>> = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        let pumps = registry.histogram("serve.reactor.pump", &DEFAULT_TIME_BOUNDS_NS);
        for _ in 0..worker_count {
            let (tx, rx) = std::sync::mpsc::channel::<TenantId>();
            senders.push(tx);
            let shared = shared.clone();
            let pumps = pumps.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&shared, &rx, &pumps);
            }));
        }
        let reactor = {
            let shared = shared.clone();
            let registry = registry.clone();
            std::thread::spawn(move || {
                reactor_loop(&shared, &listener, &config, senders, &registry)
            })
        };
        Ok(Reactor {
            shared,
            local_addr,
            registry: registry.clone(),
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Open connections right now.
    #[must_use]
    pub fn connections(&self) -> i64 {
        self.registry.gauge("serve.reactor.connections").get()
    }

    /// Most connections ever open at once.
    #[must_use]
    pub fn peak_connections(&self) -> i64 {
        self.registry.gauge("serve.reactor.peak_connections").get()
    }

    /// Runs `f` with the server core locked (inspection and test hooks;
    /// the lock pauses frame processing, so keep `f` short).
    ///
    /// A request `f` enqueues is announced to no worker, so the caller
    /// must pump or evict its tenant.  Until then the frames the reactor
    /// admits for that tenant find its mailbox non-empty, announce
    /// nothing either, and wait too.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut ServerCore) -> R) -> R {
        f(&mut self.shared.core.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Stops the reactor and workers and joins their threads.  Open
    /// connections are dropped.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The worker side: drain assigned tenants until every sender is gone,
/// timing each pump in `pumps`.
fn worker_loop(shared: &Shared, rx: &Receiver<TenantId>, pumps: &FixedHistogram) {
    while let Ok(tenant) = rx.recv() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let was_empty = {
            let mut core = shared.core.lock().unwrap_or_else(|e| e.into_inner());
            // An outbox of the worker's own, so the shared one is locked
            // only to append to it (see the module docs).
            let mut replies = Outbox::default();
            let pump = Instant::now();
            core.pump_into(tenant, &mut replies);
            // Recorded before the replies are posted, so a client that
            // has read them also sees this pump counted.
            pumps.record(u64::try_from(pump.elapsed().as_nanos()).unwrap_or(u64::MAX));
            !replies.is_empty() && shared.post(replies)
        };
        // Only the first reply since the reactor last took the outbox
        // has to wake it: the reactor drains the waker before it takes
        // the outbox, so this byte outlives that take or precedes it.
        // What the reactor posts itself it takes in the same pass, so
        // that needs no wake-up.
        if was_empty {
            shared.wake();
        }
    }
}

/// The readiness loop (see the module docs).
#[allow(clippy::too_many_lines)]
fn reactor_loop(
    shared: &Shared,
    listener: &TcpListener,
    config: &ReactorConfig,
    senders: Vec<Sender<TenantId>>,
    registry: &Registry,
) {
    let connections = registry.gauge("serve.reactor.connections");
    let peak = registry.gauge("serve.reactor.peak_connections");
    let accepted = registry.counter("serve.reactor.accepted");
    let refused = registry.counter("serve.reactor.refused");
    let closed = registry.counter("serve.reactor.closed");
    let write_blocked = registry.counter("serve.reactor.write_blocked");
    let unsent_closed = registry.counter("serve.reactor.unsent_closed");
    let handoffs = registry.counter("serve.reactor.handoffs");
    let sweep = registry.histogram("serve.reactor.sweep", &DEFAULT_TIME_BOUNDS_NS);

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut scratch = vec![0u8; READ_BUFFER];
    let mut dead: Vec<u64> = Vec::new();
    // The `poll` set: the listener, the waker, then one entry per open
    // connection, whose ids `polled` lists in the same order.  Both grow
    // with the open connections, not with `max_connections`.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled: Vec<u64> = Vec::new();

    loop {
        fds.clear();
        polled.clear();
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(shared.wake_rx.as_raw_fd(), POLLIN));
        for (&id, conn) in &conns {
            let events = if conn.written < conn.write_buf.len() {
                POLLIN | POLLOUT
            } else {
                POLLIN
            };
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            polled.push(id);
        }
        let waited = poll(&mut fds, None);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        if waited.is_err() {
            // Only a kernel out of memory (ENOMEM) or an open-file
            // limit lowered below the open sockets (EINVAL) fails
            // `poll` here: back off instead of spinning, and serve on
            // once it recovers.
            std::thread::sleep(BACKOFF);
            continue;
        }
        let pass = Instant::now();
        let (own, ready) = fds.split_at(2);

        // Empty the waker before taking the outbox below: a wake-up
        // written after this read stays for the next `poll`.
        if own[1].ready(POLLIN) {
            while let Ok(n) = (&shared.wake_rx).read(&mut scratch) {
                if n < scratch.len() {
                    break;
                }
            }
        }

        // Accept burst, up to the admission cap.
        if own[0].ready(POLLIN) {
            for _ in 0..ACCEPT_BURST {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // Out of descriptors (EMFILE) and the like: the
                        // waiting connection keeps the listener readable,
                        // so back off rather than spin on it.
                        std::thread::sleep(BACKOFF);
                        break;
                    }
                };
                if conns.len() >= config.max_connections {
                    // Admission control: refuse by closing; the client
                    // sees a clean EOF instead of a hung connection.
                    refused.inc();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conns.insert(
                    next_id,
                    Conn {
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        written: 0,
                    },
                );
                next_id += 1;
                accepted.inc();
                let open = conns.len() as i64;
                connections.set(open);
                if open > peak.get() {
                    peak.set(open);
                }
            }
        }

        // Read the connections `poll` reported: pull ready bytes, slice
        // frames, admit them.  A hang-up or error reads as EOF or fails.
        for (fd, &id) in ready.iter().zip(&polled) {
            if !fd.ready(POLLIN | POLLHUP | POLLERR | POLLNVAL) {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        dead.push(id);
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                }
            }
            // Slice complete `[len][frame]` messages off the front.
            let mut start = 0usize;
            loop {
                let (frame, used) = match next_framed(&conn.read_buf[start..], MAX_FRAME) {
                    Ok(Some(sliced)) => sliced,
                    Ok(None) => break,
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                };
                let wake = {
                    let mut core = shared.core.lock().unwrap_or_else(|e| e.into_inner());
                    match core.enqueue(ClientAddr(id), frame) {
                        Enqueued::Handled(replies) | Enqueued::Rejected(replies) => {
                            shared.post(replies.into());
                            None
                        }
                        // Only the frame that turns the mailbox from empty
                        // to non-empty wakes a worker.  Read under the same
                        // lock, a backlog above 1 means an earlier frame's
                        // wake-up is not pumped yet, and that pump drains
                        // this frame too.
                        Enqueued::Queued(tenant) => {
                            (core.tenant_backlog(tenant) == 1).then_some(tenant)
                        }
                    }
                };
                if let Some(tenant) = wake {
                    let worker = usize::from(tenant.0) % senders.len();
                    let _ = senders[worker].send(tenant);
                    handoffs.inc();
                }
                start += used;
            }
            if start > 0 {
                conn.read_buf.drain(..start);
            }
        }

        // Route every reply by its address, in the core's order (see
        // the module docs), with the outbox unlocked again.
        let outbox = std::mem::take(&mut *shared.outbox.lock().unwrap_or_else(|e| e.into_inner()));
        outbox.deliver(&mut conns);

        // Flush as much as each socket accepts; what is left makes the
        // next `poll` ask for `POLLOUT` on that connection.
        for (&id, conn) in &mut conns {
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        dead.push(id);
                        break;
                    }
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        write_blocked.inc();
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                }
            }
            if conn.written > 0 && conn.written == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.written = 0;
            }
            if conn.write_buf.len() - conn.written > MAX_UNSENT {
                unsent_closed.inc();
                dead.push(id);
            }
        }

        // Reap closed connections; one listed twice is removed, and
        // counted, once.
        if !dead.is_empty() {
            for id in dead.drain(..) {
                if conns.remove(&id).is_some() {
                    closed.inc();
                }
            }
            connections.set(conns.len() as i64);
        }

        sweep.record(u64::try_from(pass.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TcpClient;
    use crate::proto::{Body, Frame, RejectReason, Reply, Request};

    /// A one-worker loopback reactor and the registry it reports into.
    fn loopback() -> (Reactor, Registry) {
        let registry = Registry::new();
        let config = ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind("127.0.0.1:0", config, ServeConfig::default(), &registry)
            .expect("bind the loopback reactor");
        (reactor, registry)
    }

    /// A `Conn` on the accepted end of a loopback pair, and the client
    /// end, which keeps the socket open.
    fn conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let client = TcpStream::connect(listener.local_addr().expect("listener address"))
            .expect("connect to the listener");
        let (stream, _) = listener.accept().expect("accept the client");
        let conn = Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
        };
        (conn, client)
    }

    #[test]
    fn deliver_moves_bytes_to_idle_connections_and_copies_them_behind_unsent_ones() {
        let messages = |frames: &[u8]| {
            let mut out = Vec::new();
            for &n in frames {
                write_framed(&mut out, &[n; 9]);
            }
            out
        };
        let outbox = |replies: &[(u64, u8)]| {
            let mut outbox = Outbox::default();
            for &(addr, n) in replies {
                write_framed(outbox.to(ClientAddr(addr)), &[n; 9]);
            }
            outbox
        };
        // Delivers `outbox`, then checks that each of `idle` took its
        // buffer as it was.
        let deliver = |outbox: Outbox, idle: &[u64], conns: &mut HashMap<u64, Conn>| {
            let buffers: Vec<_> = idle
                .iter()
                .map(|&id| outbox.0[&ClientAddr(id)].as_ptr())
                .collect();
            outbox.deliver(conns);
            for (id, buffer) in idle.iter().zip(buffers) {
                assert_eq!(
                    conns[id].write_buf.as_ptr(),
                    buffer,
                    "connection {id}'s bytes are moved"
                );
            }
        };
        let ((a, _a), (b, _b)) = (conn(), conn());
        let mut conns = HashMap::from([(1, a), (2, b)]);

        // Neither connection has anything unsent.
        deliver(outbox(&[(1, 1), (2, 2), (1, 3)]), &[1, 2], &mut conns);
        // Connection 2 has sent all it had; connection 1 has not, and
        // gets a copy after its unsent bytes.  Connection 3 is gone.
        conns.get_mut(&2).unwrap().write_buf.clear();
        deliver(outbox(&[(2, 4), (3, 5), (1, 6), (2, 7)]), &[2], &mut conns);
        assert_eq!(conns[&1].write_buf, messages(&[1, 3, 6]));
        assert_eq!(conns[&2].write_buf, messages(&[4, 7]));
    }

    fn register_tenant_1(client: &mut TcpClient) {
        client.send(&Frame::request(
            TenantId(1),
            0,
            Request::RegisterTenant {
                expected_clients: 1,
                mailbox_cap: 0,
                ballot_min: 0,
                ballot_max: 1,
            },
        ));
        assert_eq!(
            client.recv().body,
            Body::Reply(Reply::Registered { tenant: 1 })
        );
    }

    /// Waits up to 10 s for `done`.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn an_idle_reactor_does_not_sweep() {
        let (reactor, registry) = loopback();
        let mut client = TcpClient::connect(reactor.local_addr());
        register_tenant_1(&mut client);
        // One request through a worker, so the waker has fired too.
        client.send(&Frame::request(
            TenantId(1),
            0,
            Request::Observe {
                key: "ballot".into(),
                value: 1,
            },
        ));
        assert!(matches!(
            client.recv().body,
            Body::Reply(Reply::Observed { .. })
        ));

        let sweeps = registry.histogram("serve.reactor.sweep", &DEFAULT_TIME_BOUNDS_NS);
        let before = sweeps.count();
        std::thread::sleep(Duration::from_millis(200));
        let idle = sweeps.count() - before;
        // The answered request's own pass may still be recording.
        assert!(idle <= 2, "{idle} sweeps in 200 ms with nothing to do");
        reactor.shutdown();
    }

    #[test]
    fn a_slow_reader_gets_every_reply_in_order() {
        let (reactor, registry) = loopback();
        let mut client = TcpClient::connect(reactor.local_addr());
        register_tenant_1(&mut client);
        let frames = registry.counter("serve.frames");
        let blocked = registry.counter("serve.reactor.write_blocked");

        // Pipeline digests without reading, a batch at a time, until
        // the server's writes find the socket full.
        let mut sent = 0u32;
        while blocked.get() == 0 {
            assert!(
                sent < 1 << 20,
                "{sent} unread replies never filled the socket"
            );
            for stream in sent..sent + 1024 {
                client.send(&Frame::request(TenantId(1), stream, Request::Digest));
            }
            sent += 1024;
            wait_until("the server to read the batch", || {
                frames.get() == u64::from(sent) + 1
            });
        }

        // Only `POLLOUT` wakes the reactor to flush the rest.
        for stream in 0..sent {
            let reply = client.recv();
            assert_eq!(reply.stream, stream, "replies arrive in request order");
            assert!(matches!(reply.body, Body::Reply(Reply::Digest(_))));
        }
        reactor.shutdown();
    }

    #[test]
    fn an_evict_from_another_connection_answers_the_queued_request() {
        let (reactor, registry) = loopback();
        let frames = registry.counter("serve.frames");
        // Connection ids count from 0 in accept order, and `first` is
        // served before `second` connects, so `first` is connection 0.
        let mut first = TcpClient::connect(reactor.local_addr());
        register_tenant_1(&mut first);
        let mut second = TcpClient::connect(reactor.local_addr());
        let observe = Frame::request(
            TenantId(1),
            0,
            Request::Observe {
                key: "ballot".into(),
                value: 1,
            },
        );
        // Whichever of the worker and the evict answers the observation,
        // it is answered once, on its own connection, and counted in the
        // final digest.  A second answer would meet the next `recv`.
        for pass in 0..100 {
            if pass > 0 {
                register_tenant_1(&mut first);
            }
            let before = frames.get();
            if pass % 2 == 0 {
                // Over the socket: the worker may pump it before the
                // evict arrives, or the evict may find it queued.
                first.send(&observe);
            } else {
                // Straight into the mailbox under connection 0's address,
                // with no worker told: only the evict can answer it.
                reactor.with_core(|core| core.enqueue(ClientAddr(0), &observe.encode()));
            }
            wait_until("the observation's admission", || frames.get() == before + 1);
            second.send(&Frame::request(TenantId(1), 0, Request::Evict));
            let Body::Reply(Reply::Evicted(digest)) = second.recv().body else {
                panic!("the evict is answered with the final digest");
            };
            assert_eq!(digest.observes, 1);
            assert_eq!(
                first.recv().body,
                Body::Reply(Reply::Observed { satisfied: true })
            );
        }
        first.send(&Frame::request(TenantId(1), 0, Request::Digest));
        assert_eq!(
            first.recv().body,
            Body::Reply(Reply::Rejected {
                reason: RejectReason::UnknownTenant,
                retry_after_ms: 0
            })
        );
        reactor.shutdown();
    }

    #[test]
    fn an_evict_keeps_another_connections_replies_in_request_order() {
        let (reactor, registry) = loopback();
        let mut first = TcpClient::connect(reactor.local_addr());
        let mut second = TcpClient::connect(reactor.local_addr());
        let ballot = Frame::request(
            TenantId(1),
            0,
            Request::Ballot {
                round: 1,
                value: "v".into(),
            },
        );
        let observe = Frame::request(
            TenantId(1),
            0,
            Request::Observe {
                key: "ballot".into(),
                value: 1,
            },
        );
        let evict = Frame::request(TenantId(1), 0, Request::Evict);
        let unknown = Reply::Rejected {
            reason: RejectReason::UnknownTenant,
            retry_after_ms: 0,
        };
        for pass in 0..100 {
            register_tenant_1(&mut first);
            if pass % 2 == 0 {
                // Any interleaving: `first` pipelines a ballot and an
                // observation while `second` evicts.
                first.send(&ballot);
                first.send(&observe);
                second.send(&evict);
            } else {
                // The worker pumps the ballot but waits at the outbox,
                // held here, until the reactor has admitted the
                // observation and the evict, which answers it inline.  A
                // reactor that routed inline replies apart from the
                // workers' would send the observation's answer first.
                let outbox = reactor.shared.outbox.lock().unwrap();
                first.send(&ballot);
                wait_until("the ballot's round", || {
                    registry.counter("serve.tenant.1.rounds").get() == 1
                });
                first.send(&observe);
                second.send(&evict);
                std::thread::sleep(Duration::from_millis(2));
                drop(outbox);
            }
            let Body::Reply(Reply::Evicted(digest)) = second.recv().body else {
                panic!("the evict is answered with the final digest");
            };
            // The ballot's answers, then the observation's, whichever of
            // the evict and the worker gave them.
            let answer = first.recv().body;
            if answer == Body::Reply(Reply::BallotAccepted { round: 1 }) {
                assert!(matches!(
                    first.recv().body,
                    Body::Reply(Reply::RoundResult(_))
                ));
                assert_eq!(digest.rounds, 1);
            } else {
                assert_eq!(answer, Body::Reply(unknown.clone()), "pass {pass}");
                assert_eq!(digest.rounds, 0);
            }
            let answer = first.recv().body;
            if answer == Body::Reply(Reply::Observed { satisfied: true }) {
                assert_eq!(digest.observes, 1);
            } else {
                assert_eq!(answer, Body::Reply(unknown.clone()), "pass {pass}");
                assert_eq!(digest.observes, 0);
            }
        }
        // Nothing was answered twice.
        first.send(&Frame::request(TenantId(1), 0, Request::Digest));
        assert_eq!(first.recv().body, Body::Reply(unknown));
        reactor.shutdown();
    }

    #[test]
    fn pipelined_requests_are_each_answered_once_in_request_order() {
        const PER_CONNECTION: u32 = 5_000;
        // Stream `i` carries a connection's `i`-th request, so a reply's
        // stream names the request it answers.
        let observations: Vec<Frame> = (0..PER_CONNECTION)
            .map(|stream| {
                let observe = Request::Observe {
                    key: "ballot".into(),
                    value: 1,
                };
                Frame::request(TenantId(1), stream, observe)
            })
            .collect();
        let observed = Body::Reply(Reply::Observed { satisfied: true });
        for workers in [1, 4] {
            let registry = Registry::new();
            // A mailbox that holds both connections' requests: a request
            // refused at admission is answered at once, ahead of the
            // connection's requests still queued.
            let serve = ServeConfig {
                max_streams_per_tenant: PER_CONNECTION,
                default_mailbox_cap: 2 * PER_CONNECTION as usize,
                ..ServeConfig::default()
            };
            let config = ReactorConfig {
                workers,
                ..ReactorConfig::default()
            };
            let reactor = Reactor::bind("127.0.0.1:0", config, serve, &registry)
                .expect("bind the loopback reactor");
            let mut clients = [
                TcpClient::connect(reactor.local_addr()),
                TcpClient::connect(reactor.local_addr()),
            ];
            clients[0].send(&Frame::request(
                TenantId(1),
                0,
                Request::RegisterTenant {
                    expected_clients: 1,
                    mailbox_cap: 0,
                    ballot_min: 0,
                    ballot_max: 1,
                },
            ));
            assert_eq!(
                clients[0].recv().body,
                Body::Reply(Reply::Registered { tenant: 1 })
            );
            // Each connection's requests in one write, so one read can
            // admit thousands of frames for the tenant at once.
            for client in &mut clients {
                client.send_all(&observations);
            }
            for client in &mut clients {
                for stream in 0..PER_CONNECTION {
                    let reply = client.recv();
                    assert_eq!(reply.stream, stream, "{workers} workers: request order");
                    assert_eq!(reply.body, observed, "{workers} workers: request {stream}");
                }
            }
            // A lone request after the flood finds the mailbox empty and
            // must wake the worker itself.
            for client in &mut clients {
                client.send(&observations[0]);
                assert_eq!(client.recv().body, observed);
            }
            // Every request was answered, so none is left to answer
            // twice: the next reply on each connection is its digest.
            let requests = 2 * (u64::from(PER_CONNECTION) + 1);
            for client in &mut clients {
                client.send(&Frame::request(TenantId(1), 0, Request::Digest));
                let Body::Reply(Reply::Digest(digest)) = client.recv().body else {
                    panic!("{workers} workers: a digest request gets the digest");
                };
                assert_eq!(digest.observes, requests);
            }
            let queued = registry.counter("serve.queued").get();
            let handoffs = registry.counter("serve.reactor.handoffs").get();
            assert_eq!(queued, requests);
            assert!(
                (1..=queued).contains(&handoffs),
                "{workers} workers: {handoffs} hand-offs for {queued} queued requests"
            );
            // Each hand-off is one worker pump, recorded before its
            // replies are posted.
            let pumps = registry.histogram("serve.reactor.pump", &DEFAULT_TIME_BOUNDS_NS);
            assert_eq!(pumps.count(), handoffs, "{workers} workers: pumps timed");
            reactor.shutdown();
        }
    }

    #[test]
    fn a_client_that_never_reads_is_closed_and_its_sibling_is_served_on() {
        let (reactor, registry) = loopback();
        let frames = registry.counter("serve.frames");
        let unsent_closed = registry.counter("serve.reactor.unsent_closed");
        let mut deaf = TcpStream::connect(reactor.local_addr()).expect("connect");
        let mut sibling = TcpClient::connect(reactor.local_addr());
        wait_until("both accepts", || reactor.connections() == 2);

        // Register and attach 1,024 streams: each round the deaf client
        // then closes fans 1,024 copies of its result out to it.
        let mut batch = Vec::new();
        let register = Request::RegisterTenant {
            expected_clients: 1,
            mailbox_cap: 2048,
            ballot_min: 0,
            ballot_max: 1,
        };
        write_framed(
            &mut batch,
            &Frame::request(TenantId(1), 0, register).encode(),
        );
        for stream in 0..1024 {
            let observe = Request::Observe {
                key: "ballot".into(),
                value: 1,
            };
            write_framed(
                &mut batch,
                &Frame::request(TenantId(1), stream, observe).encode(),
            );
        }
        let mut sent = 1025;
        let mut round = 0;
        while unsent_closed.get() == 0 {
            // At well over 100 bytes a copy, 640 rounds make more than
            // 64 MiB of replies, four times the bound.
            assert!(
                round < 640,
                "{round} rounds of unread replies kept the connection"
            );
            for _ in 0..32 {
                round += 1;
                let ballot = Request::Ballot {
                    round,
                    value: "v".into(),
                };
                write_framed(&mut batch, &Frame::request(TenantId(1), 0, ballot).encode());
                sent += 1;
            }
            if deaf.write_all(&batch).is_err() {
                break;
            }
            batch.clear();
            wait_until("the server to read the batch", || {
                frames.get() == sent || unsent_closed.get() == 1
            });
        }
        wait_until("the close", || {
            unsent_closed.get() == 1 && reactor.connections() == 1
        });

        sibling.send(&Frame::request(TenantId(1), 0, Request::Digest));
        let Body::Reply(Reply::Digest(digest)) = sibling.recv().body else {
            panic!("the sibling is served on");
        };
        assert!(digest.rounds > 0);
        reactor.shutdown();
    }

    #[test]
    fn a_peer_that_closes_mid_frame_is_reaped() {
        let (reactor, registry) = loopback();
        let closed = registry.counter("serve.reactor.closed");
        let mut peer = TcpStream::connect(reactor.local_addr()).expect("connect");
        wait_until("the accept", || reactor.connections() == 1);

        // A prefix announcing 100 bytes, 10 of them, then gone.
        let mut message = Vec::new();
        write_framed(&mut message, &[0; 100]);
        peer.write_all(&message[..14])
            .expect("send part of a frame");
        drop(peer);
        wait_until("the reap", || {
            closed.get() == 1 && reactor.connections() == 0
        });
        reactor.shutdown();
    }

    #[test]
    fn an_oversized_prefix_closes_only_its_own_connection() {
        let (reactor, _) = loopback();
        let mut good = TcpClient::connect(reactor.local_addr());
        register_tenant_1(&mut good);

        // The prefix alone condemns the connection: the reactor closes
        // it without waiting for the announced bytes.
        let mut bad = TcpStream::connect(reactor.local_addr()).expect("connect");
        bad.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        bad.write_all(&(MAX_FRAME + 1).to_be_bytes())
            .expect("send the oversized prefix");
        let mut byte = [0u8; 1];
        match bad.read(&mut byte) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("oversized prefix must close the connection, got {other:?}"),
        }

        // The sibling connection is still served.
        good.send(&Frame::request(TenantId(1), 0, Request::Digest));
        assert!(matches!(good.recv().body, Body::Reply(Reply::Digest(_))));
        reactor.shutdown();
    }

    #[test]
    fn an_inverted_range_registration_is_refused_and_the_reactor_serves_on() {
        let config = ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind(
            "127.0.0.1:0",
            config,
            ServeConfig::default(),
            &Registry::new(),
        )
        .expect("bind the loopback reactor");
        let register = |ballot_min, ballot_max| {
            Frame::request(
                TenantId(1),
                0,
                Request::RegisterTenant {
                    expected_clients: 1,
                    mailbox_cap: 0,
                    ballot_min,
                    ballot_max,
                },
            )
        };
        let mut bad = TcpClient::connect(reactor.local_addr());
        bad.send(&register(1, 0));
        assert_eq!(
            bad.recv().body,
            Body::Reply(Reply::Rejected {
                reason: RejectReason::BadFrame,
                retry_after_ms: 0
            })
        );

        let mut sibling = TcpClient::connect(reactor.local_addr());
        sibling.send(&register(0, 1));
        assert_eq!(
            sibling.recv().body,
            Body::Reply(Reply::Registered { tenant: 1 })
        );
        sibling.send(&Frame::request(TenantId(1), 0, Request::Digest));
        assert!(matches!(sibling.recv().body, Body::Reply(Reply::Digest(_))));
        reactor.shutdown();
    }
}
