//! The three `afta-serve` workloads.
//!
//! A run is a warm-up pass, a series of set-up cycles (`setup_s`), then
//! measured *passes*.  Each pass builds a fresh server, registers the
//! tenants, drives one fixed slice of the traffic through it (the
//! window), reads live heap, checks every reply and the digests, and
//! tears the server down.  Every pass yields its own end-to-end figures,
//! and a run reports their medians, so a noisy stretch of one pass moves
//! little.  Fixed traffic per pass keeps `heap_mb` a function of the
//! seed rather than of how fast the machine happened to be.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use afta_serve::{
    ClientAddr, Enqueued, Reactor, ReactorConfig, Reply, ServeConfig, ServerCore, TenantDigest,
};
use afta_telemetry::{HistogramSnapshot, Registry, DEFAULT_TIME_BOUNDS_NS};

use crate::alloc;
use crate::args::Workload;
use crate::calib::{self, Timeline};
use crate::check::{
    check_accounting, check_digests, decode_reply, expect_reply, is_round_result, match_replies,
    Failures,
};
use crate::stats::{Figures, Latency, MIB, SETUP_CYCLES};
use crate::trace::{ns_since, Span, Tracer};
use crate::traffic::{
    barrier_index, req_id, round_slot, Expected, Kind, Traffic, STREAMS, TENANTS,
};

/// Return address of the in-process generator.
const ADDR: ClientAddr = ClientAddr(1);
/// Rounds of the warm-up pass that precedes every run.
pub const WARMUP_ROUNDS: u64 = 8;
/// `serve_paced` send interval: 10,000 requests per second.
pub const PACED_PERIOD_NS: u64 = 100_000;
/// `serve_flood` requests outstanding.
pub const FLOOD_WINDOW: usize = 1024;
/// In-process requests between two machine-speed samples (~20 ms).
const CALIBRATE_EVERY: usize = 8192;
/// Fewest measured passes in a run.
pub const MIN_PASSES: u32 = 3;
/// Elapsed time after which a run starts no further pass.
const HARD_STOP: Duration = Duration::from_secs(120);
/// How long a TCP pass waits for a missing reply before failing it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Rounds per pass of a serve workload.  Each pass yields at least
/// 1,000 verdicts, so every pass has its own p99s.  A tenant's clash log
/// grows by about one entry per round; these counts sit midway between
/// powers of two, so the log's capacity — and `heap_mb` — does not jump
/// from seed to seed.
pub fn pass_rounds(workload: Workload) -> u64 {
    match workload {
        Workload::ServeInproc => 384,
        Workload::ServePaced => 192,
        Workload::ServeFlood => 192,
        Workload::CampaignFig7 => unreachable!("not a serve workload"),
    }
}

/// One pass's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// The run's traffic.
    pub traffic: &'a Traffic,
    /// Its reference answers.
    pub expected: &'a Expected,
    /// Rounds this pass sends (a prefix of the traffic).
    pub rounds: u64,
    /// Digests the tenants must hold after those rounds.
    pub digests: &'a [TenantDigest],
    /// Exact bytes of every reply the pass must receive.
    pub reply_bytes: usize,
}

/// The reactor's `serve.reactor.sweep` histogram over a window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sweeps {
    /// Bucket bounds, ns.
    pub bounds: Vec<u64>,
    /// Sweeps per bucket (last: overflow).
    pub counts: Vec<u64>,
    /// Sweeps.
    pub count: u64,
    /// Summed sweep time, ns.
    pub sum_ns: u64,
}

impl Sweeps {
    fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Sweeps {
        Sweeps {
            bounds: after.bounds.clone(),
            counts: after
                .counts
                .iter()
                .zip(before.counts.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a - b)
                .collect(),
            count: after.count - before.count,
            sum_ns: after.sum - before.sum,
        }
    }

    fn absorb(&mut self, other: &Sweeps) {
        if self.counts.is_empty() {
            *self = other.clone();
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Median sweep time, interpolated inside its bucket.
    pub fn p50_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let half = self.count as f64 / 2.0;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if (below + c) as f64 >= half && c > 0 {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] } as f64;
                let hi = *self
                    .bounds
                    .get(i)
                    .unwrap_or(self.bounds.last().expect("bounds")) as f64;
                return lo + (hi - lo) * (half - below as f64) / c as f64;
            }
            below += c;
        }
        *self.bounds.last().unwrap_or(&0) as f64
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Live heap at the window's end minus just before the build.
    pub heap_bytes: i64,
    /// Requests sent.
    pub requests: u64,
    /// Acks matched.
    pub acks: u64,
    /// Verdicts that reached every stream.
    pub rounds: u64,
    /// In process: summed per-request server time.  TCP: window wall
    /// time, first send to last reply.  At reference speed where the
    /// workload is CPU-bound.
    pub work_ns: u64,
    /// TCP: the window's wall time as measured.
    pub wall_ns: u64,
    /// Per-request latency, ns.
    pub req_lat: Vec<u64>,
    /// Per-verdict latency, ns.
    pub round_lat: Vec<u64>,
    /// How far behind schedule each paced send went out, ns.
    pub late: Vec<u64>,
    /// Output-check failures.
    pub failures: Failures,
    /// `serve.rejected`.
    pub rejected: u64,
    /// Whether the `serve.*` accounting identity held.
    pub accounting_ok: bool,
    /// Reactor sweeps during the window (TCP only).
    pub sweeps: Sweeps,
    /// Reference units per second the machine ran at during the window
    /// (0: not measured, the figures are raw).
    pub speed: f64,
    /// Traced `serve_inproc`: allocations inside `enqueue` + `pump`.
    pub core_allocs: u64,
    /// Traced `serve_inproc`: summed `enqueue` time, ns at reference
    /// speed.
    pub enqueue_ns: f64,
    /// Traced `serve_inproc`: summed `pump` time, ns at reference speed.
    pub pump_ns: f64,
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        ..ServeConfig::default()
    }
}

fn registered(reply: &[u8], tenant: u16, failures: &mut Failures) {
    let want = Reply::Registered { tenant };
    match decode_reply(reply).and_then(|got| expect_reply(&got, tenant, 0, &want)) {
        Ok(()) => {}
        Err(e) => failures.add(|| format!("registration: {e}")),
    }
}

fn digest_of(reply: &[u8], failures: &mut Failures) -> Option<TenantDigest> {
    match decode_reply(reply) {
        Ok((_, _, Reply::Digest(d))) => Some(d),
        Ok((t, s, other)) => {
            failures.add(|| format!("t{t}/s{s}: expected a Digest, got {other:?}"));
            None
        }
        Err(e) => {
            failures.add(|| e);
            None
        }
    }
}

/// Builds an in-process core and registers every tenant.
fn inproc_setup(plan: &Plan<'_>, registry: &Registry, failures: &mut Failures) -> ServerCore {
    let mut core = ServerCore::new(serve_config(plan.traffic.seed), registry);
    for (t, frame) in plan.traffic.register.iter().enumerate() {
        match core.enqueue(ADDR, frame) {
            Enqueued::Handled(replies) if replies.len() == 1 => {
                registered(&replies[0].1, t as u16, failures);
            }
            other => failures.add(|| format!("registration of tenant {t}: {other:?}")),
        }
    }
    core
}

/// Checks the replies to in-process request `i`: its ack, and when it
/// met a barrier the verdict for every stream.  Returns whether it did.
fn check_inproc(
    i: usize,
    replies: &[(ClientAddr, Vec<u8>)],
    plan: &Plan<'_>,
    failures: &mut Failures,
) -> (bool, bool) {
    let id = req_id(i);
    let mut acked = false;
    let Some((first, rest)) = replies.split_first() else {
        failures.add(|| format!("request {i}: no reply"));
        return (false, false);
    };
    match decode_reply(&first.1)
        .and_then(|got| expect_reply(&got, id.tenant, id.stream, &plan.expected.ack(i)))
    {
        Ok(()) => acked = true,
        Err(e) => failures.add(|| format!("request {i}: {e}")),
    }
    let closes = id.kind == Kind::Ballot && barrier_index(id.round, id.tenant) == i;
    let want_results = if closes { STREAMS as usize } else { 0 };
    if rest.len() != want_results {
        failures.add(|| {
            format!(
                "request {i}: {} verdict copies, expected {want_results}",
                rest.len()
            )
        });
        return (acked, false);
    }
    if closes {
        let want =
            Reply::RoundResult(plan.expected.rounds[round_slot(id.round, id.tenant)].clone());
        for (stream, (addr, bytes)) in rest.iter().enumerate() {
            let checked = decode_reply(bytes)
                .and_then(|got| expect_reply(&got, id.tenant, stream as u32, &want));
            if let Err(e) = checked.and_then(|()| {
                (*addr == ADDR)
                    .then_some(())
                    .ok_or_else(|| format!("verdict sent to {addr:?}"))
            }) {
                failures.add(|| format!("request {i}: {e}"));
                return (acked, false);
            }
        }
    }
    (acked, closes)
}

/// One `serve_inproc` pass: one request at a time through
/// `ServerCore::enqueue` and then `pump`, on this thread.  With a
/// tracer, records `gen.request` spans with `core.enqueue` and
/// `core.pump` children, and the time and allocations inside them.
pub fn inproc_pass(plan: &Plan<'_>, telemetry: bool, mut tracer: Option<&mut Tracer>) -> Pass {
    let n = plan.traffic.len_of(plan.rounds);
    // Everything the generator fills during the window exists before
    // the heap baseline.
    let mut pass = Pass {
        req_lat: Vec::with_capacity(n),
        requests: n as u64,
        ..Pass::default()
    };
    let mut round_at: Vec<usize> = Vec::with_capacity(plan.rounds as usize * usize::from(TENANTS));
    let mut timeline = Timeline::with_blocks(n / CALIBRATE_EVERY + 1);
    // Traced: `enqueue` time per calibration block.
    let mut enqueue_ns = vec![0u64; n / CALIBRATE_EVERY + 1];
    if let Some(tr) = tracer.as_deref_mut() {
        tr.reserve(3 * n);
    }
    let base = alloc::live_bytes();
    let registry = if telemetry {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let mut core = inproc_setup(plan, &registry, &mut pass.failures);
    timeline.sample();
    for i in 0..n {
        if i > 0 && i % CALIBRATE_EVERY == 0 {
            timeline.sample();
        }
        let frame = plan.traffic.frame(i);
        let (replies, ns) = match tracer.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let replies = match core.enqueue(ADDR, frame) {
                    Enqueued::Queued(tenant) => core.pump(tenant),
                    Enqueued::Handled(r) | Enqueued::Rejected(r) => r,
                };
                (replies, ns_since(t0))
            }
            Some(tr) => {
                let a0 = alloc::allocations();
                let t0 = tr.now();
                let admitted = core.enqueue(ADDR, frame);
                let t1 = tr.now();
                let (replies, t2) = match admitted {
                    Enqueued::Queued(tenant) => {
                        let r = core.pump(tenant);
                        (r, Some(tr.now()))
                    }
                    Enqueued::Handled(r) | Enqueued::Rejected(r) => (r, None),
                };
                pass.core_allocs += alloc::allocations() - a0;
                enqueue_ns[i / CALIBRATE_EVERY] += t1 - t0;
                let id = req_id(i);
                let rid = Some((id.tenant, id.stream, id.seq()));
                let end = t2.unwrap_or(t1);
                let root = tr.push(Span::new("gen.request", t0, end, rid));
                tr.push_child(root, Span::new("core.enqueue", t0, t1, rid));
                if let Some(t2) = t2 {
                    tr.push_child(root, Span::new("core.pump", t1, t2, rid));
                }
                (replies, end - t0)
            }
        };
        pass.req_lat.push(ns);
        // Checks run outside the timed span.
        let (acked, closed) = check_inproc(i, &replies, plan, &mut pass.failures);
        pass.acks += u64::from(acked);
        if closed {
            pass.rounds += 1;
            round_at.push(i);
        }
    }
    timeline.sample();
    pass.heap_bytes = alloc::live_bytes() - base;
    // Every time at reference speed, by the samples around its block.
    for (i, ns) in pass.req_lat.iter_mut().enumerate() {
        *ns = timeline.scale(*ns, i / CALIBRATE_EVERY);
    }
    pass.round_lat = round_at.iter().map(|&i| pass.req_lat[i]).collect();
    pass.work_ns = pass.req_lat.iter().sum();
    pass.speed = timeline.mean();
    if tracer.is_some() {
        pass.enqueue_ns = enqueue_ns
            .iter()
            .enumerate()
            .map(|(b, &ns)| ns as f64 * timeline.time_factor(b))
            .sum();
        pass.pump_ns = pass.work_ns as f64 - pass.enqueue_ns;
    }
    let digests: Vec<TenantDigest> = plan
        .traffic
        .digest
        .iter()
        .filter_map(|frame| match core.enqueue(ADDR, frame) {
            Enqueued::Handled(r) if r.len() == 1 => digest_of(&r[0].1, &mut pass.failures),
            other => {
                pass.failures.add(|| format!("digest request: {other:?}"));
                None
            }
        })
        .collect();
    check_digests(&digests, plan.digests, &mut pass.failures);
    if telemetry {
        (pass.rejected, pass.accounting_ok) =
            check_accounting(&registry.report(), &mut pass.failures);
    } else {
        pass.accounting_ok = true;
    }
    pass
}

/// Builds and registers an in-process core, then drops it: one more
/// `setup_s` sample.
fn inproc_setup_only(plan: &Plan<'_>, failures: &mut Failures) -> u64 {
    let started = Instant::now();
    let registry = Registry::new();
    let core = inproc_setup(plan, &registry, failures);
    let ns = ns_since(started);
    drop(core);
    ns
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// How the TCP sender paces itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Open loop: request `i` is due `i * period_ns` after the start.
    Paced {
        /// Send interval.
        period_ns: u64,
    },
    /// Closed loop with at most `window` requests unacknowledged.
    Flood {
        /// Requests outstanding.
        window: usize,
    },
}

/// State the two generator threads share: acks seen (for the flood
/// window) and a wake-up for a sender waiting on it.
#[derive(Debug, Default)]
struct Window {
    acked: AtomicU64,
    waiting: AtomicBool,
    abort: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Window {
    fn ack(&self, n: u64) {
        self.acked.fetch_add(n, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) {
            let _guard = self.lock.lock().expect("window lock is never poisoned");
            self.wake.notify_one();
        }
    }

    fn stop(&self) {
        self.abort.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock().expect("window lock is never poisoned");
        self.wake.notify_one();
    }

    /// Blocks until fewer than `window` of `sent` requests are unacked
    /// (or the run aborts); returns how many may go now.
    fn room(&self, sent: u64, window: usize) -> u64 {
        let free = |acked: u64| (window as u64).saturating_sub(sent - acked);
        let room = free(self.acked.load(Ordering::SeqCst));
        if room > 0 {
            return room;
        }
        let mut guard = self.lock.lock().expect("window lock is never poisoned");
        self.waiting.store(true, Ordering::SeqCst);
        loop {
            let room = free(self.acked.load(Ordering::SeqCst));
            if room > 0 || self.abort.load(Ordering::SeqCst) {
                self.waiting.store(false, Ordering::SeqCst);
                return room;
            }
            guard = self
                .wake
                .wait_timeout(guard, Duration::from_millis(50))
                .expect("window lock is never poisoned")
                .0;
        }
    }
}

/// When request `i` is due, ns after the pass epoch.
pub fn due_ns(i: usize, period_ns: u64) -> u64 {
    i as u64 * period_ns
}

/// Requests due at `now_ns`: every index whose due time has passed.
pub fn due_by(now_ns: u64, period_ns: u64, n: usize) -> usize {
    usize::try_from(now_ns / period_ns + 1).map_or(n, |d| d.min(n))
}

/// How late a send at `sent_ns` was for request `i`.
pub fn lateness_ns(i: usize, sent_ns: u64, period_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns(i, period_ns))
}

/// What both generator threads of a TCP pass read.
struct Link<'a> {
    traffic: &'a Traffic,
    /// Requests the pass sends.
    n: usize,
    pacing: Pacing,
    /// Time zero of every timestamp of the pass.
    epoch: Instant,
    window: Window,
    trace: bool,
}

/// The sender thread: writes requests `0..n` as batches, paced or
/// windowed, and records each request's write time.  Sleeps until a
/// due instant and never spins.
fn send_loop(
    link: &Link<'_>,
    mut stream: TcpStream,
    sent_at: &mut [u64],
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let Link {
        traffic,
        n,
        pacing,
        epoch,
        ref window,
        trace,
    } = *link;
    let mut i = 0usize;
    while i < n {
        if window.abort.load(Ordering::SeqCst) {
            return Err("receiver gave up".into());
        }
        let now = ns_since(epoch);
        let j = match pacing {
            Pacing::Paced { period_ns } => {
                let due = due_ns(i, period_ns);
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                    continue;
                }
                due_by(now, period_ns, n)
            }
            Pacing::Flood { window: w } => {
                let room = window.room(i as u64, w);
                if room == 0 {
                    continue;
                }
                (i + room as usize).min(n)
            }
        };
        let t0 = ns_since(epoch);
        stream
            .write_all(traffic.wire_span(i, j))
            .map_err(|e| format!("write to the reactor: {e}"))?;
        sent_at[i..j].fill(t0);
        if trace {
            let id = req_id(i);
            spans.push(Span::new(
                "gen.send",
                t0,
                ns_since(epoch),
                Some((id.tenant, id.stream, id.seq())),
            ));
        }
        i = j;
    }
    Ok(())
}

/// The receiver: blocks on `read`, slices `[len][frame]` messages,
/// timestamps each on arrival, and counts acks for the flood window.
/// Full decoding waits until the window ends.
fn receive_loop(
    link: &Link<'_>,
    stream: &mut TcpStream,
    buf: &mut [u8],
    frames: &mut Vec<(usize, usize, u64)>,
    expect: usize,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let (epoch, window, trace) = (link.epoch, &link.window, link.trace);
    let (mut filled, mut parsed) = (0usize, 0usize);
    while frames.len() < expect {
        if filled == buf.len() {
            return Err("more reply bytes than the traffic can produce".into());
        }
        let r0 = ns_since(epoch);
        let got = match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err("reactor closed the connection".into()),
            Ok(k) => k,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("{} of {expect} replies, then: {e}", frames.len())),
        };
        let at = ns_since(epoch);
        filled += got;
        let mut acks = 0u64;
        while filled - parsed >= 4 {
            let len = u32::from_be_bytes(buf[parsed..parsed + 4].try_into().expect("4 bytes"));
            let end = parsed + 4 + len as usize;
            if end > filled {
                break;
            }
            let frame = &buf[parsed + 4..end];
            if afta_serve::Frame::peek_header(frame).is_err() {
                return Err("reply shorter than a frame header".into());
            }
            if !is_round_result(frame) {
                acks += 1;
            }
            frames.push((parsed + 4, end, at));
            parsed = end;
        }
        if acks > 0 {
            window.ack(acks);
        }
        if trace {
            spans.push(Span::new("gen.recv", r0, at, None));
        }
    }
    Ok(())
}

/// Reads one `[len][frame]` message (set-up and digests only).
fn read_message(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut frame = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut frame)?;
    Ok(frame)
}

fn write_messages<'a>(
    stream: &mut TcpStream,
    frames: impl IntoIterator<Item = &'a Vec<u8>>,
) -> std::io::Result<()> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(
            &u32::try_from(f.len())
                .expect("frame fits u32")
                .to_be_bytes(),
        );
        out.extend_from_slice(f);
    }
    stream.write_all(&out)
}

/// Binds a reactor with one worker, connects, and registers the
/// tenants one after another, each awaiting its reply as an E8 client
/// does.  Returns the reactor, the connection, and the set-up time.
fn tcp_setup(
    plan: &Plan<'_>,
    registry: &Registry,
    failures: &mut Failures,
) -> Result<(Reactor, TcpStream, u64), String> {
    let config = ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    };
    let serve = serve_config(plan.traffic.seed);
    let started = Instant::now();
    let reactor = Reactor::bind("127.0.0.1:0", config, serve, registry);
    let bind_ns = ns_since(started);
    let reactor = reactor.map_err(|e| format!("bind the reactor: {e}"))?;
    let started = Instant::now();
    let mut stream =
        TcpStream::connect(reactor.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let io = |e: std::io::Error| format!("registration: {e}");
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    for (t, frame) in plan.traffic.register.iter().enumerate() {
        write_messages(&mut stream, [frame]).map_err(io)?;
        registered(&read_message(&mut stream).map_err(io)?, t as u16, failures);
    }
    Ok((reactor, stream, bind_ns + ns_since(started)))
}

fn sweep_snapshot(registry: &Registry) -> HistogramSnapshot {
    registry
        .histogram("serve.reactor.sweep", &DEFAULT_TIME_BOUNDS_NS)
        .snapshot()
}

/// One TCP pass over a single loopback connection.  The calling thread
/// receives; one spawned thread sends.
pub fn tcp_pass(plan: &Plan<'_>, pacing: Pacing, tracer: Option<&mut Tracer>) -> Pass {
    let n = plan.traffic.len_of(plan.rounds);
    let verdict_copies = plan.rounds as usize * usize::from(TENANTS) * STREAMS as usize;
    let expect = n + verdict_copies;
    let trace = tracer.is_some();
    // Everything the generator fills during the window exists before
    // the heap baseline.
    let mut buf = vec![0u8; plan.reply_bytes + 64 * 1024];
    let mut frames: Vec<(usize, usize, u64)> = Vec::with_capacity(expect + 1024);
    let mut sent_at = vec![0u64; n];
    let span_room = if trace { n + 16 } else { 0 };
    let mut send_spans: Vec<Span> = Vec::with_capacity(span_room);
    let mut recv_spans: Vec<Span> = Vec::with_capacity(span_room);
    let mut pass = Pass {
        requests: n as u64,
        ..Pass::default()
    };

    // The server's threads live only inside this closure, so the speed
    // samples around it never share the CPU with them.
    let (served, timeline) = calib::around(calib::units_per_s, || {
        let base = alloc::live_bytes();
        let registry = Registry::new();
        let (reactor, mut stream, _) = match tcp_setup(plan, &registry, &mut pass.failures) {
            Ok(set) => set,
            Err(e) => {
                pass.failures.add_n(n as u64, || e);
                return None;
            }
        };
        let sweeps_before = sweep_snapshot(&registry);

        let writer = stream.try_clone().expect("clone the client socket");
        let link = Link {
            traffic: plan.traffic,
            n,
            pacing,
            epoch: Instant::now(),
            window: Window::default(),
            trace,
        };
        let (sent, received) = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let r = send_loop(&link, writer, &mut sent_at, &mut send_spans);
                if r.is_err() {
                    link.window.stop();
                }
                r
            });
            let received = receive_loop(
                &link,
                &mut stream,
                &mut buf,
                &mut frames,
                expect,
                &mut recv_spans,
            );
            if received.is_err() {
                link.window.stop();
            }
            (sender.join().expect("sender thread panicked"), received)
        });
        pass.work_ns = frames.last().map_or(0, |f| f.2);
        pass.wall_ns = pass.work_ns;
        pass.sweeps = Sweeps::between(&sweeps_before, &sweep_snapshot(&registry));
        pass.heap_bytes = alloc::live_bytes() - base;
        for r in [sent, received] {
            if let Err(e) = r {
                pass.failures.add(|| e);
            }
        }

        // Digests, then the counters, then shutdown.
        let mut digests = Vec::new();
        if write_messages(&mut stream, &plan.traffic.digest).is_ok() {
            while digests.len() < usize::from(TENANTS) {
                match read_message(&mut stream) {
                    Ok(frame) => {
                        if let Some(d) = digest_of(&frame, &mut pass.failures) {
                            digests.push(d);
                        }
                    }
                    Err(e) => {
                        pass.failures.add(|| format!("digest read: {e}"));
                        break;
                    }
                }
            }
        }
        check_digests(&digests, plan.digests, &mut pass.failures);
        (pass.rejected, pass.accounting_ok) =
            check_accounting(&registry.report(), &mut pass.failures);
        drop(stream);
        reactor.shutdown();
        Some(link.epoch)
    });
    let Some(epoch) = served else {
        return pass;
    };

    // Deferred decode and verification.
    let matched = match_replies(
        frames.iter().map(|&(from, to, at)| (&buf[from..to], at)),
        plan.rounds,
        plan.expected,
        &mut pass.failures,
    );
    pass.acks = matched.acks;
    pass.rounds = matched.rounds;
    let start = |i: usize| match pacing {
        Pacing::Paced { period_ns } => due_ns(i, period_ns),
        Pacing::Flood { .. } => sent_at[i],
    };
    pass.req_lat = (0..n)
        .filter(|&i| matched.ack_at[i] != u64::MAX)
        .map(|i| matched.ack_at[i].saturating_sub(start(i)))
        .collect();
    pass.round_lat = (1..=plan.rounds)
        .flat_map(|r| (0..TENANTS).map(move |t| (r, t)))
        .filter_map(|(r, t)| {
            let at = matched.round_at[round_slot(r, t)];
            (at != u64::MAX).then(|| at.saturating_sub(start(barrier_index(r, t))))
        })
        .collect();
    match pacing {
        Pacing::Paced { period_ns } => {
            pass.late = (0..n)
                .map(|i| lateness_ns(i, sent_at[i], period_ns))
                .collect();
        }
        // Saturated, so CPU-bound: times at reference speed.
        Pacing::Flood { .. } => {
            for ns in pass
                .req_lat
                .iter_mut()
                .chain(&mut pass.round_lat)
                .chain(std::iter::once(&mut pass.work_ns))
            {
                *ns = timeline.scale(*ns, 0);
            }
            pass.speed = timeline.mean();
        }
    }
    if let Some(tr) = tracer {
        let offset = ns_since(tr.epoch()) - ns_since(epoch);
        let shift = |s: Span| Span {
            start: s.start + offset,
            end: s.end + offset,
            ..s
        };
        for s in send_spans.into_iter().chain(recv_spans) {
            tr.push(shift(s));
        }
        for i in (0..n).filter(|&i| matched.ack_at[i] != u64::MAX) {
            let id = req_id(i);
            tr.push(shift(Span::new(
                "gen.request",
                start(i),
                matched.ack_at[i],
                Some((id.tenant, id.stream, id.seq())),
            )));
        }
    }
    pass
}

/// Binds, connects and registers, then shuts down: one more `setup_s`
/// sample.
fn tcp_setup_only(plan: &Plan<'_>, failures: &mut Failures) -> u64 {
    let registry = Registry::new();
    match tcp_setup(plan, &registry, failures) {
        Ok((reactor, stream, ns)) => {
            drop(stream);
            reactor.shutdown();
            ns
        }
        Err(e) => {
            failures.add(|| e);
            0
        }
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Everything a serve run measured: per-pass figures, and totals over
/// its passes.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// End-to-end figures of each measured pass.
    pub figures: Vec<Figures>,
    /// Set-up times of the run's set-up cycles, ns.
    pub setup_ns: Vec<u64>,
    /// Requests sent.
    pub requests: u64,
    /// Summed window wall time of the TCP passes, ns.
    pub wall_ns: u64,
    /// Paced-send lateness, ns.
    pub late: Vec<u64>,
    /// Failures.
    pub failures: Failures,
    /// `serve.rejected`, summed.
    pub rejected: u64,
    /// Whether the accounting identity held on every pass.
    pub accounting_ok: bool,
    /// Reactor sweeps over every window.
    pub sweeps: Sweeps,
    /// Allocations inside `enqueue` + `pump` (traced `serve_inproc`).
    pub core_allocs: u64,
    /// Summed `enqueue` time at reference speed (traced `serve_inproc`).
    pub enqueue_ns: f64,
    /// Summed `pump` time at reference speed (traced `serve_inproc`).
    pub pump_ns: f64,
}

impl ServeRun {
    fn absorb(&mut self, workload: Workload, mut pass: Pass) {
        let done = match workload {
            Workload::ServeInproc => pass.requests,
            _ => pass.acks,
        };
        let per_s = |count: u64| count as f64 * 1e9 / pass.work_ns.max(1) as f64;
        match (
            Latency::of(&mut pass.req_lat),
            Latency::of(&mut pass.round_lat),
        ) {
            (Some(req), Some(round)) => self.figures.push(Figures {
                req_per_s: per_s(done),
                req_p50_us: req.p50_ns as f64 / 1e3,
                req_p99_us: req.p99_ns as f64 / 1e3,
                req_samples: req.count,
                round_p50_us: round.p50_ns as f64 / 1e3,
                round_p99_us: round.p99_ns as f64 / 1e3,
                round_samples: round.count,
                steps_per_s: per_s(pass.rounds),
                heap_mb: pass.heap_bytes as f64 / MIB,
                speed: pass.speed,
            }),
            _ => self.failures.add(|| {
                format!(
                    "a pass answered {} requests and {} verdicts: too few for a p99",
                    pass.req_lat.len(),
                    pass.round_lat.len()
                )
            }),
        }
        self.requests += pass.requests;
        self.wall_ns += pass.wall_ns;
        self.late.extend(pass.late);
        self.failures.absorb(pass.failures);
        self.rejected += pass.rejected;
        self.accounting_ok &= pass.accounting_ok;
        self.sweeps.absorb(&pass.sweeps);
        self.core_allocs += pass.core_allocs;
        self.enqueue_ns += pass.enqueue_ns;
        self.pump_ns += pass.pump_ns;
    }
}

/// The run's inputs, generated before any timing.
#[derive(Debug)]
pub struct Inputs {
    /// Traffic for one pass.
    pub traffic: Traffic,
    /// Its reference answers.
    pub expected: Expected,
    /// Digests after the whole pass.
    pub digests: Vec<TenantDigest>,
    /// Digests after the warm-up prefix.
    pub warmup_digests: Vec<TenantDigest>,
    /// Reply bytes of a full pass.
    pub reply_bytes: usize,
    /// Reply bytes of the warm-up prefix.
    pub warmup_reply_bytes: usize,
}

impl Inputs {
    /// Generates `workload`'s traffic for `seed` and folds the reference.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let traffic = Traffic::generate(seed, pass_rounds(workload));
        let expected = crate::traffic::reference(&traffic);
        let bytes = |rounds| -> usize {
            crate::check::expected_replies(&expected, rounds)
                .iter()
                .map(|r| r.len() + 4)
                .sum()
        };
        Inputs {
            digests: expected.digests.clone(),
            warmup_digests: Expected::digests_after(&traffic, WARMUP_ROUNDS),
            reply_bytes: bytes(traffic.rounds),
            warmup_reply_bytes: bytes(WARMUP_ROUNDS),
            traffic,
            expected,
        }
    }

    /// The plan of a full pass.
    pub fn plan(&self) -> Plan<'_> {
        Plan {
            traffic: &self.traffic,
            expected: &self.expected,
            rounds: self.traffic.rounds,
            digests: &self.digests,
            reply_bytes: self.reply_bytes,
        }
    }

    fn warmup_plan(&self) -> Plan<'_> {
        Plan {
            rounds: WARMUP_ROUNDS,
            digests: &self.warmup_digests,
            reply_bytes: self.warmup_reply_bytes,
            ..self.plan()
        }
    }
}

/// One pass of `workload`.
pub fn pass(workload: Workload, plan: &Plan<'_>, tracer: Option<&mut Tracer>) -> Pass {
    match workload {
        Workload::ServeInproc => inproc_pass(plan, true, tracer),
        Workload::ServePaced => tcp_pass(
            plan,
            Pacing::Paced {
                period_ns: PACED_PERIOD_NS,
            },
            tracer,
        ),
        Workload::ServeFlood => tcp_pass(
            plan,
            Pacing::Flood {
                window: FLOOD_WINDOW,
            },
            tracer,
        ),
        Workload::CampaignFig7 => unreachable!("not a serve workload"),
    }
}

/// Runs `workload`: a warm-up pass, [`SETUP_CYCLES`] set-ups, then at
/// least [`MIN_PASSES`] passes, and more while they fit in `seconds`.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> ServeRun {
    let mut out = ServeRun {
        accounting_ok: true,
        ..ServeRun::default()
    };
    let warm = pass(workload, &inputs.warmup_plan(), None);
    out.failures.absorb(warm.failures);
    let plan = inputs.plan();
    if workload == Workload::ServeInproc {
        // In-process set-up is CPU-bound: at reference speed.
        let mut timeline = Timeline::with_blocks(1);
        timeline.sample();
        let setups: Vec<u64> = (0..SETUP_CYCLES)
            .map(|_| inproc_setup_only(&plan, &mut out.failures))
            .collect();
        timeline.sample();
        out.setup_ns = setups.iter().map(|&ns| timeline.scale(ns, 0)).collect();
    } else {
        // Over TCP it waits on the reactor's poll sleeps: raw.
        out.setup_ns = (0..SETUP_CYCLES)
            .map(|_| tcp_setup_only(&plan, &mut out.failures))
            .collect();
    }
    let started = Instant::now();
    let window = Duration::from_secs(seconds);
    let mut passes = 0u32;
    // Start a pass only while it should still end inside the window.
    while passes < MIN_PASSES || started.elapsed() + started.elapsed() / passes <= window {
        let p = pass(workload, &plan, tracer.as_deref_mut());
        let failed = p.failures.count > 0;
        out.absorb(workload, p);
        passes += 1;
        // A failing run stops once its time is spent, and any run stops
        // well inside the 180 s budget.
        let spent = started.elapsed();
        if (failed && spent >= window) || spent >= HARD_STOP {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_and_lateness() {
        assert_eq!(due_ns(0, PACED_PERIOD_NS), 0);
        assert_eq!(due_ns(25, PACED_PERIOD_NS), 2_500_000);
        // At t = 0 only request 0 is due; just before request 3's due
        // instant, 0..3 are.
        assert_eq!(due_by(0, PACED_PERIOD_NS, 100), 1);
        assert_eq!(due_by(299_999, PACED_PERIOD_NS, 100), 3);
        assert_eq!(due_by(300_000, PACED_PERIOD_NS, 100), 4);
        assert_eq!(due_by(u64::MAX, PACED_PERIOD_NS, 100), 100);
        assert_eq!(lateness_ns(3, 300_000, PACED_PERIOD_NS), 0);
        assert_eq!(lateness_ns(3, 312_345, PACED_PERIOD_NS), 12_345);
        assert_eq!(
            lateness_ns(3, 250_000, PACED_PERIOD_NS),
            0,
            "early is not late"
        );
    }

    #[test]
    fn sweep_median_interpolates_inside_its_bucket() {
        let s = Sweeps {
            bounds: vec![100, 200, 400],
            counts: vec![0, 4, 4, 0],
            count: 8,
            sum_ns: 0,
        };
        assert_eq!(s.p50_ns(), 200.0);
        let s = Sweeps {
            counts: vec![2, 0, 2, 0],
            count: 4,
            ..s
        };
        assert_eq!(s.p50_ns(), 100.0);
    }

    #[test]
    fn inproc_pass_checks_out_on_a_small_traffic() {
        let traffic = Traffic::generate(21, 3);
        let expected = crate::traffic::reference(&traffic);
        let plan = Plan {
            traffic: &traffic,
            expected: &expected,
            rounds: 3,
            digests: &expected.digests,
            reply_bytes: 0,
        };
        let p = inproc_pass(&plan, true, None);
        assert_eq!(p.failures, Failures::default());
        assert_eq!(p.acks, p.requests);
        assert_eq!(p.rounds, 3 * u64::from(TENANTS));
        assert!(p.accounting_ok);
        // A tampered reference digest fails the pass.
        let mut tampered = expected.digests.clone();
        tampered[0].digest = "ffffffffffffffff".into();
        let p = inproc_pass(
            &Plan {
                digests: &tampered,
                ..plan
            },
            true,
            None,
        );
        assert_eq!(p.failures.count, 1);
    }

    #[test]
    fn tcp_passes_check_out_on_a_small_traffic() {
        let traffic = Traffic::generate(22, 3);
        let expected = crate::traffic::reference(&traffic);
        let plan = Plan {
            traffic: &traffic,
            expected: &expected,
            rounds: 3,
            digests: &expected.digests,
            reply_bytes: crate::check::expected_replies(&expected, 3)
                .iter()
                .map(|r| r.len() + 4)
                .sum(),
        };
        let paced = Pacing::Paced {
            period_ns: PACED_PERIOD_NS,
        };
        for pacing in [paced, Pacing::Flood { window: 64 }] {
            let p = tcp_pass(&plan, pacing, None);
            assert_eq!(p.failures, Failures::default(), "{pacing:?}");
            assert_eq!(p.acks, p.requests);
            assert_eq!(p.rounds, 3 * u64::from(TENANTS));
            assert_eq!(p.req_lat.len(), traffic.len());
            assert!(p.accounting_ok);
            assert_eq!(p.speed > 0.0, pacing != paced, "flood times are scaled");
        }
    }
}
