//! A bounded lock-free ring buffer — the mailbox behind every
//! pull-style [`Subscription`](crate::Subscription).
//!
//! The implementation is the classic Vyukov bounded queue: a power-of-two
//! slot array where each slot carries a sequence number that encodes, for
//! the current lap, whether the slot is free to write or ready to read.
//! Producers claim a slot with one compare-and-swap on the tail cursor;
//! the consumer claims with one compare-and-swap on the head cursor.  No
//! mutex is ever taken on the publish or drain path, so a slow subscriber
//! can never block a publisher — it can only *lag*, and lagging past the
//! ring's capacity is reported to the caller (the bus counts it in
//! [`TopicStats::lost`](crate::TopicStats::lost)).
//!
//! Head and tail live on their own cache lines so producers and the
//! consumer do not false-share.
//!
//! This module and [`poll`](crate::poll) are the crate's only users of
//! `unsafe`.  Here, slot storage
//! is `UnsafeCell<MaybeUninit<T>>` and ownership of a slot's value is
//! handed over exclusively through the acquire/release handshake on the
//! slot's sequence number.  The invariants are spelled out inline; the
//! seeded-schedule model tests in `tests/model.rs` exercise wrap-around
//! and concurrent hand-off against a reference `VecDeque`.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads and aligns a value to a cache line so the producer and consumer
/// cursors of a [`Ring`] do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

struct Slot<T> {
    /// Lap-encoded state: `seq == index` means free for the producer of
    /// lap `index / capacity`; `seq == index + 1` means occupied and
    /// ready for the consumer; after consumption it becomes
    /// `index + capacity` (free for the next lap).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer ring buffer.
///
/// The bus uses it as an MPSC mailbox (many publishers, one
/// subscription), but consumption is CAS-guarded too, so a `&Ring`
/// shared across threads is safe in every direction.
pub struct Ring<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    /// Consumer cursor (next position to pop).
    head: CachePadded<AtomicUsize>,
    /// Producer cursor (next position to push).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: values are moved in and out of slots with exclusive ownership
// guaranteed by the CAS-plus-sequence handshake; `T: Send` is all that
// crossing threads requires.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to the
    /// next power of two, minimum 2).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            mask: cap - 1,
            slots,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate number of queued values.  Exact when no producer or
    /// consumer is mid-operation (e.g. after all publishers joined).
    #[must_use]
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Whether the ring currently holds no values (approximate, like
    /// [`Ring::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes `value`, failing with the value back when the ring is
    /// full (the subscriber has lagged `capacity` events behind).
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when every slot is occupied.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = (seq as isize).wrapping_sub(tail as isize);
            if diff == 0 {
                // Slot free for this lap: claim it by advancing the tail.
                match self.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the successful CAS makes this thread the
                        // unique owner of slot `tail`; no other producer
                        // can claim it this lap and the consumer will not
                        // read it until the Release store below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if diff < 0 {
                // The slot still holds a value from the previous lap:
                // the ring is full.
                return Err(value);
            } else {
                // Another producer claimed this position; reload.
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest value, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = (seq as isize).wrapping_sub(head.wrapping_add(1) as isize);
            if diff == 0 {
                match self.head.0.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the successful CAS makes this thread the
                        // unique consumer of slot `head`, and the Acquire
                        // load of `seq` synchronises with the producer's
                        // Release store, so the value is fully written.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(head.wrapping_add(self.capacity()), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => head = current,
                }
            } else if diff < 0 {
                // Slot not yet published for this lap: empty.
                return None;
            } else {
                head = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops every queued value into `out`, returning how many were
    /// appended.  `out`'s capacity is reused across calls, so a
    /// steady-state drain performs no allocation.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let before = out.len();
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out.len() - before
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Retained events must not leak when a lagging subscriber is
        // pruned: drop every still-queued value.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let ring = Ring::with_capacity(8);
        for i in 0..8 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 8);
        assert!(ring.push(99).is_err(), "ninth push must report full");
        for i in 0..8 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(Ring::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(Ring::<u8>::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn wrap_around_many_laps() {
        let ring = Ring::with_capacity(4);
        for lap in 0u64..1000 {
            for i in 0..4 {
                ring.push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(ring.pop(), Some(lap * 4 + i));
            }
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let ring = Ring::with_capacity(4);
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        // Saw-tooth fill levels force every wrap alignment.
        for step in 0..10_000u32 {
            if step % 3 != 2 && ring.push(next_push).is_ok() {
                next_push += 1;
            } else if let Some(v) = ring.pop() {
                assert_eq!(v, next_pop);
                next_pop += 1;
            }
        }
        while let Some(v) = ring.pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn drop_releases_queued_values() {
        let marker = Arc::new(());
        let ring = Ring::with_capacity(8);
        for _ in 0..5 {
            ring.push(marker.clone()).unwrap();
        }
        assert_eq!(Arc::strong_count(&marker), 6);
        drop(ring);
        assert_eq!(
            Arc::strong_count(&marker),
            1,
            "queued values must be dropped with the ring"
        );
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let ring = Ring::with_capacity(8);
        let mut out = Vec::with_capacity(8);
        for round in 0..100u32 {
            for i in 0..6 {
                ring.push(round * 10 + i).unwrap();
            }
            out.clear();
            assert_eq!(ring.drain_into(&mut out), 6);
            assert_eq!(out.len(), 6);
            assert!(out.capacity() >= 8, "capacity must be retained");
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let ring = Arc::new(Ring::with_capacity(1024));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * 1_000_000 + i;
                        loop {
                            match ring.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut seen: Vec<u64> = Vec::new();
        while seen.len() < (PRODUCERS * PER_PRODUCER) as usize {
            if let Some(v) = ring.pop() {
                seen.push(v);
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.pop(), None);
        for p in 0..PRODUCERS {
            let stream: Vec<u64> = seen
                .iter()
                .copied()
                .filter(|v| v / 1_000_000 == p)
                .collect();
            assert_eq!(stream.len(), PER_PRODUCER as usize, "producer {p}");
            assert!(
                stream.windows(2).all(|w| w[0] < w[1]),
                "per-producer FIFO violated for producer {p}"
            );
        }
    }
}
