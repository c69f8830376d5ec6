//! The poll-based TCP frontend: one readiness loop, a small worker pool.
//!
//! `TcpTransport` spawns two threads per peer — fine for a voting farm
//! of nine, fatal for tens of thousands of monitored clients.  The
//! [`Reactor`] replaces thread-per-connection with:
//!
//! * **one reactor thread** sweeping non-blocking sockets: it accepts
//!   (up to an admission cap), reads whatever is ready, slices the byte
//!   stream into length-prefixed frames, runs cheap admission
//!   ([`ServerCore::enqueue`]) inline, and flushes pending writes —
//!   all without ever blocking on a socket;
//! * **a small worker pool** doing the real work: when a frame is
//!   admitted into a tenant mailbox, the reactor hands that tenant id
//!   to the worker `tenant % workers`, which drains and processes the
//!   mailbox ([`ServerCore::pump`]) and queues the replies back to the
//!   reactor.  Hashing tenants onto workers keeps each tenant's
//!   processing FIFO.
//!
//! The socket sweep is a *readiness loop over non-blocking sockets*
//! built purely on `std::net` (`set_nonblocking` + `WouldBlock`): no
//! `epoll` binding exists in this dependency-free workspace, so the
//! loop trades a bounded idle poll interval for zero unsafe code.  At
//! 10k mostly-idle connections one sweep is a few hundred microseconds
//! of `read` calls returning `WouldBlock` — measured by the
//! `serve.reactor.sweep` histogram, enforced by the CI soak.  After a
//! sweep that moved bytes the loop only yields its time slice, so a
//! client or worker it just woke can answer before the next sweep;
//! after an idle sweep it sleeps `poll_interval`.
//!
//! Framing on the wire is `[u32 big-endian length][frame bytes]` per
//! message ([`write_framed`] / [`next_framed`]), with the multiplexed
//! [`Frame`](crate::proto::Frame) header inside.  It is not
//! `TcpTransport`'s framing, which adds a tag byte after the length.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use afta_telemetry::Registry;

use crate::core::{ClientAddr, Enqueued, Outbound, ServeConfig, ServerCore};
use crate::proto::{next_framed, write_framed, TenantId};

/// Connection ids start here so a reactor [`ClientAddr`] can never
/// collide with a sim-transport `NodeId` (which is at most `u16::MAX`).
pub const CONN_ADDR_BASE: u64 = 1 << 32;

/// Tuning knobs of the [`Reactor`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReactorConfig {
    /// Admission cap: connections beyond this are closed on accept.
    pub max_connections: usize,
    /// Worker threads pumping tenant mailboxes.
    pub workers: usize,
    /// Sleep between sweeps when nothing was ready.
    pub poll_interval: Duration,
    /// Scratch read size per sweep and connection, in bytes.
    pub read_buffer: usize,
    /// Most connections accepted per sweep (bounds accept bursts).
    pub accept_burst: usize,
    /// Largest accepted frame; bigger closes the connection.
    pub max_frame: u32,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_connections: 16_384,
            workers: 4,
            poll_interval: Duration::from_millis(1),
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
    /// Replies produced by workers, drained by the reactor each sweep.
    outbox: Mutex<Vec<Outbound>>,
    stop: AtomicBool,
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
    /// Returns the I/O error when the listener cannot bind.
    pub fn bind(
        addr: &str,
        config: ReactorConfig,
        serve: ServeConfig,
        registry: &Registry,
    ) -> std::io::Result<Reactor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: Mutex::new(ServerCore::new(serve, registry)),
            outbox: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
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
        if !replies.is_empty() {
            shared
                .outbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(replies);
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
    let sweep_span = |r: &Registry| r.span("serve.reactor.sweep");

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = CONN_ADDR_BASE;
    let mut scratch = vec![0u8; config.read_buffer.max(512)];
    let mut dead: Vec<u64> = Vec::new();

    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let span = sweep_span(registry);
        let mut progressed = false;

        // Accept burst, up to the admission cap.
        for _ in 0..config.accept_burst {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if conns.len() >= config.max_connections {
                        // Admission control: refuse by closing; the
                        // client sees a clean EOF instead of a hung
                        // connection.
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
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Read sweep: pull ready bytes, slice frames, admit them.
        for (&id, conn) in &mut conns {
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        dead.push(id);
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
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
                progressed = true;
            }
            // Replies to a connection that closed meanwhile are dropped,
            // like any send on a broken link.
        }

        // Write sweep: flush as much as each socket accepts.
        for (&id, conn) in &mut conns {
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        dead.push(id);
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
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

        span.finish();
        // After a busy sweep, let the threads it woke (workers, local
        // clients) run first: sweeping again at once would find nothing
        // ready yet and then sleep a whole interval.
        if progressed {
            std::thread::yield_now();
        } else {
            std::thread::sleep(config.poll_interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::TcpClient;
    use crate::proto::{Body, Frame, RejectReason, Reply, Request};

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
