//! Live-heap proof that client traffic cannot grow the server: a
//! counting global allocator tracks the bytes allocated and not yet
//! freed while one tenant closes N, then 2N, rounds.  Between N and 2N
//! rounds the live heap may move only by a small constant, whatever the
//! round count.
//!
//! * In process, every stream also observes an out-of-range `ballot` (a
//!   clash) and a key never seen before, and one stream also ballots
//!   for a round far in the future: none of it may grow the tenant.
//! * Through a loopback reactor, a client that never reads holds all
//!   but one of the tenant's streams, so each round sends it 1,023
//!   copies of the result: the reactor must close it, not buffer them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use afta_serve::experiment::TcpClient;
use afta_serve::proto::write_framed;
use afta_serve::{
    Body, ClientAddr, Enqueued, Frame, Reactor, ReactorConfig, Reply, Request, ServeConfig,
    ServerCore, TenantId,
};
use afta_telemetry::Registry;

struct CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// What the calling thread allocated less what it freed.
    static THREAD_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn size_delta(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

/// Adds `delta` to the process's and the calling thread's live bytes.
/// The thread's counter is a `const` thread-local with no destructor,
/// so reaching it allocates nothing.
fn count(delta: i64) {
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    THREAD_BYTES.with(|bytes| bytes.set(bytes.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(size_delta(layout.size()));
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(size_delta(layout.size()));
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-size_delta(layout.size()));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(size_delta(new_size) - size_delta(layout.size()));
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes currently allocated and not freed, all threads.
fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Bytes the calling thread allocated and has not freed.  The test
/// harness allocates on other threads when a test ends, so a test
/// whose server runs on its own thread counts only that thread.
fn thread_bytes() -> i64 {
    THREAD_BYTES.with(Cell::get)
}

/// Held by each test for its whole run: the reactor test counts every
/// thread's bytes, so a test running beside it would count in its
/// growth.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const TENANT: TenantId = TenantId(1);
const STREAMS: u32 = 3;

/// Rounds before the first measurement; the second comes after twice
/// as many.
const N: u64 = 256;

/// Most the live heap may move between N and 2N rounds.
const SLACK_BYTES: i64 = 1024;

/// Enqueues one data request and pumps it, dropping the replies.
fn send(core: &mut ServerCore, stream: u32, request: Request) {
    let frame = Frame::request(TENANT, stream, request).encode();
    let queued = core.enqueue(ClientAddr(u64::from(stream)), &frame);
    assert!(matches!(queued, Enqueued::Queued(_)), "{queued:?}");
    core.pump(TENANT);
}

/// A round far past any the tenant will reach, offset by the current
/// one so that each round names a new one.
const FAR_ROUNDS: u64 = 1_000_000;

/// One round: every stream observes a clash and a fresh key, then
/// ballots, and the last ballot closes the round.  Stream 0 first
/// ballots for round `FAR_ROUNDS + round`, too far ahead to buffer.
fn round(core: &mut ServerCore, round: u64) {
    let far = Request::Ballot {
        round: FAR_ROUNDS + round,
        value: "a".into(),
    };
    send(core, 0, far);
    for stream in 0..STREAMS {
        let clash = Request::Observe {
            key: "ballot".into(),
            value: 40_000,
        };
        let fresh = Request::Observe {
            key: format!("key-{round}-{stream}"),
            value: 1,
        };
        let ballot = Request::Ballot {
            round,
            value: "a".into(),
        };
        for request in [clash, fresh, ballot] {
            send(core, stream, request);
        }
    }
}

#[test]
fn client_traffic_cannot_grow_a_tenant() {
    let _serial = serial();
    let mut core = ServerCore::new(ServeConfig::default(), &Registry::disabled());
    let register = Request::RegisterTenant {
        expected_clients: STREAMS,
        mailbox_cap: 0,
        ballot_min: -32768,
        ballot_max: 32767,
    };
    let frame = Frame::request(TENANT, 0, register).encode();
    assert!(matches!(
        core.enqueue(ClientAddr(0), &frame),
        Enqueued::Handled(_)
    ));

    for r in 1..=N {
        round(&mut core, r);
    }
    let at_n = thread_bytes();
    for r in N + 1..=2 * N {
        round(&mut core, r);
    }
    let growth = thread_bytes() - at_n;

    let digest = core.tenant_digest(TENANT).expect("tenant is hosted");
    assert_eq!(digest.rounds, 2 * N);
    assert_eq!(digest.observes, 2 * N * u64::from(STREAMS) * 2);
    assert_eq!(digest.clashes, 2 * N * u64::from(STREAMS));
    assert!(
        growth.abs() < SLACK_BYTES,
        "live heap moved by {growth} bytes from {N} to {} rounds",
        2 * N
    );
}

/// Streams the client that never reads attaches; with the reading
/// client's one, the default cap of 1,024.
const DEAF_STREAMS: u32 = 1023;

/// Most the live heap may move between N and 2N rounds through the
/// reactor, whose threads and sockets add buffers of their own.
const REACTOR_SLACK_BYTES: i64 = 64 * 1024;

#[test]
fn a_client_that_never_reads_cannot_grow_the_reactor() {
    let _serial = serial();
    let registry = Registry::new();
    let config = ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    };
    let reactor = Reactor::bind("127.0.0.1:0", config, ServeConfig::default(), &registry)
        .expect("bind the loopback reactor");
    let unsent_closed = registry.counter("serve.reactor.unsent_closed");

    // The deaf client registers the tenant and attaches its streams with
    // one observation each, then never reads a byte.
    let mut frames = Vec::new();
    let register = Request::RegisterTenant {
        expected_clients: 1,
        mailbox_cap: 2048,
        ballot_min: 0,
        ballot_max: 1,
    };
    write_framed(&mut frames, &Frame::request(TENANT, 0, register).encode());
    for stream in 0..DEAF_STREAMS {
        let observe = Request::Observe {
            key: "ballot".into(),
            value: 1,
        };
        write_framed(
            &mut frames,
            &Frame::request(TENANT, stream, observe).encode(),
        );
    }
    let mut deaf = TcpStream::connect(reactor.local_addr()).expect("connect the deaf client");
    deaf.write_all(&frames)
        .expect("send the deaf client's frames");
    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.with_core(|core| core.tenant_digest(TENANT).map_or(0, |d| d.observes))
        < u64::from(DEAF_STREAMS)
    {
        assert!(
            Instant::now() < deadline,
            "the deaf client's streams attach"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The reading client closes each round on the last stream and reads
    // its own copy of the result.
    let mut reader = TcpClient::connect(reactor.local_addr());
    let mut tick = |round: u64| {
        reader.send(&Frame::request(
            TENANT,
            DEAF_STREAMS,
            Request::Tick { round },
        ));
        match reader.recv().body {
            Body::Reply(Reply::RoundResult(result)) => assert_eq!(result.round, round),
            other => panic!("round {round}: expected RoundResult, got {other:?}"),
        }
    };
    for r in 1..=N {
        tick(r);
    }
    let at_n = live_bytes();
    for r in N + 1..=2 * N {
        tick(r);
    }
    let growth = live_bytes() - at_n;

    assert!(
        growth.abs() < REACTOR_SLACK_BYTES,
        "live heap moved by {growth} bytes from {N} to {} rounds",
        2 * N
    );
    assert_eq!(unsent_closed.get(), 1, "the deaf client is closed");
    reactor.shutdown();
}
