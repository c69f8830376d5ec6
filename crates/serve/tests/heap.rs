//! Live-heap proof that client traffic cannot grow a tenant: a counting
//! global allocator tracks the bytes allocated and not yet freed while
//! one tenant closes N, then 2N, rounds in which every stream also
//! observes an out-of-range `ballot` (a clash) and a key never seen
//! before, and one stream also ballots for a round far in the future.
//! Between N and 2N rounds the live heap may move only by a small
//! constant, whatever the round count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use afta_serve::{ClientAddr, Enqueued, Frame, Request, ServeConfig, ServerCore, TenantId};
use afta_telemetry::Registry;

struct CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn size_delta(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic and publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(size_delta(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(size_delta(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(size_delta(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            size_delta(new_size) - size_delta(layout.size()),
            Ordering::Relaxed,
        );
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
    let at_n = live_bytes();
    for r in N + 1..=2 * N {
        round(&mut core, r);
    }
    let growth = live_bytes() - at_n;

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
