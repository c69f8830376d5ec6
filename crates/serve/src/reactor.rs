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
//! * **a small worker pool** doing the real work: when a frame is
//!   admitted into a tenant mailbox, the reactor hands that tenant id
//!   to the worker `tenant % workers`, which drains and processes the
//!   mailbox ([`ServerCore::pump`]) and queues the replies back to the
//!   reactor.  Hashing tenants onto workers keeps each tenant's
//!   processing FIFO.
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
//! The one `unsafe` call, `poll` itself, lives in
//! [`afta_eventbus::poll`], so this crate stays `forbid(unsafe_code)`.
//! The `serve.reactor.sweep` histogram times each pass from `poll`'s
//! return to the end of its work, so it measures work, not waiting in
//! `poll`.  On a shared CPU a pass also counts the time of the threads
//! it wakes (a worker, a client) if they run before it ends.
//!
//! Framing on the wire is `[u32 big-endian length][frame bytes]` per
//! message ([`write_framed`] / [`next_framed`]), with the multiplexed
//! [`Frame`](crate::proto::Frame) header inside.  It is not
//! `TcpTransport`'s framing, which adds a tag byte after the length.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use afta_eventbus::poll::{poll, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use afta_telemetry::{Registry, DEFAULT_TIME_BOUNDS_NS};

use crate::core::{ClientAddr, Enqueued, Outbound, ServeConfig, ServerCore};
use crate::proto::{next_framed, write_framed, TenantId};

/// Connection ids start here so a reactor [`ClientAddr`] can never
/// collide with a sim-transport `NodeId` (which is at most `u16::MAX`).
pub const CONN_ADDR_BASE: u64 = 1 << 32;

/// How long the loop pauses after `poll` or `accept` fails, instead of
/// retrying at once into the same failure.
const BACKOFF: Duration = Duration::from_millis(1);

/// Tuning knobs of the [`Reactor`].  There is no wake-up interval: the
/// reactor sleeps in `poll(2)` until a socket, a worker reply or
/// shutdown wakes it (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ReactorConfig {
    /// Admission cap: connections beyond this are closed on accept.
    pub max_connections: usize,
    /// Worker threads pumping tenant mailboxes.
    pub workers: usize,
    /// Scratch read size per pass and connection, in bytes.
    pub read_buffer: usize,
    /// Most connections accepted per pass (bounds accept bursts).
    pub accept_burst: usize,
    /// Largest accepted frame; bigger closes the connection.
    pub max_frame: u32,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_connections: 16_384,
            workers: 4,
            read_buffer: 8 * 1024,
            accept_burst: 256,
            max_frame: 1024 * 1024,
        }
    }
}

/// One connection's state on the reactor thread.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet sliced into frames.
    read_buf: Vec<u8>,
    /// Encoded `[len][frame]` messages waiting to be written.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written.
    written: usize,
}

/// Shared between the reactor thread, the workers, and the handle.
struct Shared {
    core: Mutex<ServerCore>,
    /// Replies produced by workers, drained by the reactor each pass.
    outbox: Mutex<Vec<Outbound>>,
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
            outbox: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            wake_tx,
            wake_rx,
        });
        let worker_count = config.workers.max(1);
        let mut senders: Vec<Sender<TenantId>> = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let (tx, rx) = std::sync::mpsc::channel::<TenantId>();
            senders.push(tx);
            let shared = shared.clone();
            workers.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
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

/// The worker side: drain assigned tenants until every sender is gone.
fn worker_loop(shared: &Shared, rx: &Receiver<TenantId>) {
    while let Ok(tenant) = rx.recv() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let replies = {
            let mut core = shared.core.lock().unwrap_or_else(|e| e.into_inner());
            core.pump(tenant)
        };
        if replies.is_empty() {
            continue;
        }
        let was_empty = {
            let mut outbox = shared.outbox.lock().unwrap_or_else(|e| e.into_inner());
            let was_empty = outbox.is_empty();
            outbox.extend(replies);
            was_empty
        };
        // Only the first reply since the reactor last took the outbox
        // has to wake it: the reactor drains the waker before it takes
        // the outbox, so this byte outlives that take or precedes it.
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
    let sweep = registry.histogram("serve.reactor.sweep", &DEFAULT_TIME_BOUNDS_NS);

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = CONN_ADDR_BASE;
    let mut scratch = vec![0u8; config.read_buffer.max(512)];
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
            for _ in 0..config.accept_burst {
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
                let (frame, used) = match next_framed(&conn.read_buf[start..], config.max_frame) {
                    Ok(Some(sliced)) => sliced,
                    Ok(None) => break,
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                };
                let outcome = {
                    let mut core = shared.core.lock().unwrap_or_else(|e| e.into_inner());
                    core.enqueue(ClientAddr(id), frame)
                };
                match outcome {
                    Enqueued::Handled(replies) | Enqueued::Rejected(replies) => {
                        // Inline replies are always addressed to the
                        // requesting connection (`enqueue` replies to
                        // the sender); worker replies go via the outbox.
                        for (dest, bytes) in replies {
                            debug_assert_eq!(dest.0, id);
                            write_framed(&mut conn.write_buf, &bytes);
                        }
                    }
                    Enqueued::Queued(tenant) => {
                        let worker = usize::from(tenant.0) % senders.len();
                        let _ = senders[worker].send(tenant);
                    }
                }
                start += used;
            }
            if start > 0 {
                conn.read_buf.drain(..start);
            }
        }

        // Route worker replies into connection write buffers.
        let outbound: Vec<Outbound> = {
            let mut outbox = shared.outbox.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *outbox)
        };
        for (dest, bytes) in outbound {
            if let Some(conn) = conns.get_mut(&dest.0) {
                write_framed(&mut conn.write_buf, &bytes);
            }
            // Replies to a connection that closed meanwhile are dropped,
            // like any send on a broken link.
        }

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
        }

        // Reap closed connections.
        if !dead.is_empty() {
            dead.sort_unstable();
            dead.dedup();
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
        let config = ReactorConfig {
            workers: 1,
            max_frame: 256,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind(
            "127.0.0.1:0",
            config,
            ServeConfig::default(),
            &Registry::new(),
        )
        .expect("bind the loopback reactor");
        let mut good = TcpClient::connect(reactor.local_addr());
        good.send(&Frame::request(
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
            good.recv().body,
            Body::Reply(Reply::Registered { tenant: 1 })
        );

        let mut bad = TcpStream::connect(reactor.local_addr()).expect("connect");
        bad.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        let mut oversized = Vec::new();
        write_framed(&mut oversized, &[0; 257]);
        bad.write_all(&oversized).expect("send the oversized frame");
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
