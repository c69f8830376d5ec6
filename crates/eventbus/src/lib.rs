//! # afta-eventbus — typed in-process publish/subscribe middleware
//!
//! §3.2 of the paper wires its adaptive fault-tolerance manager "through
//! e.g. publish/subscribe": "the supporting middleware component receives
//! notifications regarding the faults being detected by the main
//! components of the software system".  The authors prototyped this with
//! Apache Axis2/MUSE; this crate is the in-process equivalent — a typed
//! topic bus over which components publish fault notifications, dtof
//! readings, and knowledge events, and middleware subscribes.
//!
//! The paper's §4 vision makes assumption monitoring an *ambient*
//! service, which only works if the notification plumbing is cheap
//! enough to stay on permanently.  The bus is therefore built for the
//! hot path:
//!
//! * **Sharded topic table** — topics live in [`TypeId`]-keyed shards;
//!   a publish never takes a global lock, only a shared read on its own
//!   shard (and none at all through a cached [`Publisher`]).
//! * **Lock-free mailboxes** — every pull-subscription is a bounded
//!   [`ring::Ring`] (atomic cursors, cache-line padded); publishing is a
//!   compare-and-swap, never a mutex, so a slow subscriber can lag but
//!   can never block a publisher.  Lagging past the ring's capacity is
//!   counted in [`TopicStats::lost`], exactly like the pre-existing
//!   dead-subscriber accounting.
//! * **Shared payloads** — with several subscribers on a topic the event
//!   is published as one `Arc`; delivery to N subscribers is N pointer
//!   bumps, not N deep clones.  With a single subscriber (and no
//!   callbacks or retention) the event moves straight into the ring:
//!   the steady-state publish/drain cycle performs **zero allocations**.
//! * **Batching** — [`Bus::publish_batch`] / [`Publisher::publish_batch`]
//!   amortise the topic lookup, and [`Subscription::drain_batch`] drains
//!   into a caller-owned buffer whose capacity is reused.
//!
//! Two delivery styles are offered:
//!
//! * [`Bus::subscribe`] — a pull-style [`Subscription`] backed by a
//!   lock-free ring (usable across threads);
//! * [`Bus::on`] — a push-style callback invoked synchronously at publish
//!   time.
//!
//! ```
//! use afta_eventbus::Bus;
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct FaultDetected { component: &'static str }
//!
//! let bus = Bus::new();
//! let sub = bus.subscribe::<FaultDetected>();
//! bus.publish(FaultDetected { component: "c3" });
//! assert_eq!(sub.try_recv().unwrap().component, "c3");
//! ```
//!
//! The original global-mutex implementation is preserved in
//! [`mod@reference`] as an executable specification: the differential
//! property tests replay scripts against both buses, and the
//! `bench_snapshot` trajectory measures speedups against it.
//!
//! The crate also hosts [`mod@poll`], the safe `poll(2)` wrapper that
//! afta-serve's reactor sleeps in (Linux only).  Its one foreign call
//! lives here because this is the only crate of the stack that may hold
//! `unsafe` code, in audited modules that opt out of its
//! `deny(unsafe_code)`.

#![deny(unsafe_code)]
#![deny(missing_docs)]

#[cfg(target_os = "linux")]
pub mod poll;
pub mod reference;
pub mod ring;

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use afta_telemetry::{Counter, Registry};
use parking_lot::{Mutex, RwLock};

use ring::Ring;

/// Number of topic shards.  Topics are spread by `TypeId` hash, so
/// publishers of different event types touch different locks.
const SHARDS: usize = 16;

/// Default mailbox capacity per subscription (rounded up to a power of
/// two).  A subscriber that lags further behind than this loses the
/// overflow, counted in [`TopicStats::lost`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A snapshot of one topic's delivery counters, as returned by
/// [`Bus::stats`] and [`Bus::topic_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// The event type's Rust path (e.g. `my_crate::FaultDetected`).
    pub topic: &'static str,
    /// Events published on the topic.
    pub published: u64,
    /// Total deliveries: pull-subscriber sends plus callback invocations.
    pub delivered: u64,
    /// Publishes that reached no subscriber and no callback.
    pub dropped: u64,
    /// Individual deliveries lost to pull-subscribers whose receiver was
    /// already gone at publish time, or that had lagged past their
    /// mailbox capacity.  `dropped` counts publishes nobody heard;
    /// `lost` counts per-subscriber deliveries that silently failed even
    /// though the publish reached others.
    pub lost: u64,
    /// Live pull-subscribers.
    pub subscribers: usize,
    /// Registered push callbacks.
    pub callbacks: usize,
}

/// Error returned by [`Subscription::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No event is currently pending.
    Empty,
    /// No event is pending and the bus side is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "receiving on an empty mailbox"),
            TryRecvError::Disconnected => {
                write!(f, "receiving on an empty mailbox whose bus is gone")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// What travels through a subscription's ring: either the event itself
/// (single-subscriber fast path — no allocation) or a shared handle
/// (fan-out path — one allocation per publish, N pointer bumps).
enum Payload<E> {
    Inline(E),
    Shared(Arc<E>),
}

impl<E: Clone> Payload<E> {
    fn into_event(self) -> E {
        match self {
            Payload::Inline(e) => e,
            // The last holder steals the value instead of cloning.
            Payload::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

/// The shared half of one pull-subscription.
struct SubShared<E> {
    ring: Ring<Payload<E>>,
    /// Set when the `Subscription` handle is dropped; publishers count
    /// subsequent deliveries as lost and prune the entry.
    closed: AtomicBool,
    /// Set when the topic (i.e. the bus) is dropped; `try_recv` then
    /// reports [`TryRecvError::Disconnected`] once the ring is empty.
    detached: AtomicBool,
}

/// A pull-style subscription to events of type `E`.
///
/// Dropping the subscription detaches it from the bus lazily: the bus
/// prunes the dead mailbox on the next publish of that event type.
pub struct Subscription<E> {
    shared: Arc<SubShared<E>>,
}

impl<E> fmt::Debug for Subscription<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("pending", &self.shared.ring.len())
            .finish()
    }
}

impl<E: Clone> Subscription<E> {
    /// Receives the next pending event without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when no event is pending and
    /// [`TryRecvError::Disconnected`] when the bus side is gone.
    pub fn try_recv(&self) -> Result<E, TryRecvError> {
        match self.shared.ring.pop() {
            Some(payload) => Ok(payload.into_event()),
            None if self.shared.detached.load(Ordering::Acquire) => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Drains every pending event into a fresh vector.
    pub fn drain(&self) -> Vec<E> {
        let mut out = Vec::new();
        self.drain_batch(&mut out);
        out
    }

    /// Drains every pending event into `out` (appending), returning how
    /// many were appended.  `out`'s capacity is reused, so a steady-state
    /// drain allocates nothing.
    pub fn drain_batch(&self, out: &mut Vec<E>) -> usize {
        let before = out.len();
        while let Some(payload) = self.shared.ring.pop() {
            out.push(payload.into_event());
        }
        out.len() - before
    }

    /// Number of events currently queued.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.ring.len()
    }
}

impl<E> Drop for Subscription<E> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        // Free queued payloads eagerly; anything racing in lands in a
        // ring that the topic prunes (and thereby drops) on the next
        // publish, so nothing is retained beyond the mailbox itself.
        while self.shared.ring.pop().is_some() {}
    }
}

/// Per-publish delivery accounting, merged into the topic's atomics and
/// the bus-wide telemetry mirror.
#[derive(Default)]
struct Delivery {
    published: u64,
    /// Pull-subscriber deliveries (the value `publish` returns).
    subs_reached: usize,
    /// Pull deliveries plus callback invocations, across the batch.
    reached: u64,
    dropped: u64,
    lost: u64,
}

type CallbackList<E> = Mutex<Vec<Box<dyn FnMut(&E) + Send>>>;

/// One topic: the typed subscriber list, callbacks, retention cell, and
/// its delivery counters, all updatable without exclusive locks on the
/// publish path.
struct TypedTopic<E> {
    name: &'static str,
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    lost: AtomicU64,
    subs: RwLock<Vec<Arc<SubShared<E>>>>,
    callbacks: CallbackList<E>,
    callback_count: AtomicUsize,
    retain: AtomicBool,
    retained: Mutex<Option<Arc<E>>>,
}

impl<E> TypedTopic<E> {
    fn new() -> Self {
        Self {
            name: std::any::type_name::<E>(),
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            subs: RwLock::new(Vec::new()),
            callbacks: Mutex::new(Vec::new()),
            callback_count: AtomicUsize::new(0),
            retain: AtomicBool::new(false),
            retained: Mutex::new(None),
        }
    }

    /// Counter snapshot from per-topic atomics; takes no exclusive lock,
    /// so collecting stats never stalls a publisher.
    fn snapshot(&self) -> TopicStats {
        let subscribers = self
            .subs
            .read()
            .iter()
            .filter(|s| !s.closed.load(Ordering::Acquire))
            .count();
        TopicStats {
            topic: self.name,
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            subscribers,
            callbacks: self.callback_count.load(Ordering::Relaxed),
        }
    }
}

impl<E: Clone + Send + Sync + 'static> TypedTopic<E> {
    /// Delivers a stream of events: rings first (in subscriber order),
    /// then callbacks (in registration order), then retention — the same
    /// per-event sequence as the reference bus.
    fn publish_many(&self, events: impl IntoIterator<Item = E>) -> Delivery {
        let mut d = Delivery::default();
        let mut need_prune = false;
        {
            let subs = self.subs.read();
            let n_cb = self.callback_count.load(Ordering::Relaxed);
            let retain_on = self.retain.load(Ordering::Relaxed);
            for event in events {
                d.published += 1;
                let mut reached_subs = 0usize;
                if subs.len() == 1 && n_cb == 0 && !retain_on {
                    // Fast path: the event moves into the ring, no Arc.
                    let s = &subs[0];
                    if s.closed.load(Ordering::Acquire) {
                        need_prune = true;
                        d.lost += 1;
                    } else if s.ring.push(Payload::Inline(event)).is_ok() {
                        reached_subs = 1;
                    } else {
                        d.lost += 1;
                    }
                } else if !subs.is_empty() || n_cb > 0 || retain_on {
                    // Fan-out path: one Arc, N pointer bumps.
                    let shared = Arc::new(event);
                    for s in subs.iter() {
                        if s.closed.load(Ordering::Acquire) {
                            need_prune = true;
                            d.lost += 1;
                        } else if s.ring.push(Payload::Shared(shared.clone())).is_ok() {
                            reached_subs += 1;
                        } else {
                            d.lost += 1;
                        }
                    }
                    if n_cb > 0 {
                        let mut callbacks = self.callbacks.lock();
                        for cb in callbacks.iter_mut() {
                            cb(&shared);
                        }
                    }
                    if retain_on {
                        *self.retained.lock() = Some(shared);
                    }
                }
                d.subs_reached += reached_subs;
                let reached = reached_subs + n_cb;
                d.reached += reached as u64;
                if reached == 0 {
                    d.dropped += 1;
                }
            }
        }
        if need_prune {
            // Dropping the pruned `Arc<SubShared>` drops its ring, whose
            // `Drop` drains any still-queued payloads — a pruned lagging
            // subscriber cannot leak retained events.
            self.subs
                .write()
                .retain(|s| !s.closed.load(Ordering::Acquire));
        }
        self.published.fetch_add(d.published, Ordering::Relaxed);
        self.delivered.fetch_add(d.reached, Ordering::Relaxed);
        self.dropped.fetch_add(d.dropped, Ordering::Relaxed);
        self.lost.fetch_add(d.lost, Ordering::Relaxed);
        d
    }
}

impl<E> Drop for TypedTopic<E> {
    fn drop(&mut self) {
        for s in self.subs.get_mut().iter() {
            s.detached.store(true, Ordering::Release);
        }
    }
}

/// Type-erased shard entry: the typed topic plus monomorphised hooks for
/// the operations the bus performs without knowing `E`.
struct TopicEntry {
    typed: Arc<dyn Any + Send + Sync>,
    snap: fn(&(dyn Any + Send + Sync)) -> TopicStats,
}

fn snap_topic<E: 'static>(any: &(dyn Any + Send + Sync)) -> TopicStats {
    any.downcast_ref::<TypedTopic<E>>()
        .expect("shard entry holds its own topic type")
        .snapshot()
}

/// Aggregate counters mirrored into a telemetry [`Registry`] when one is
/// attached via [`Bus::attach_telemetry`].
struct BusCounters {
    published: Counter,
    delivered: Counter,
    dropped: Counter,
    bus_dropped_total: Counter,
}

struct BusInner {
    shards: [RwLock<HashMap<TypeId, TopicEntry>>; SHARDS],
    counters: OnceLock<BusCounters>,
    ring_capacity: usize,
}

impl BusInner {
    fn shard_of(type_id: TypeId) -> usize {
        let mut hasher = std::hash::DefaultHasher::new();
        type_id.hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }

    fn get_topic<E: Send + Sync + 'static>(&self) -> Option<Arc<TypedTopic<E>>> {
        let type_id = TypeId::of::<E>();
        let shard = self.shards[Self::shard_of(type_id)].read();
        let entry = shard.get(&type_id)?;
        let typed = entry.typed.clone();
        drop(shard);
        typed.downcast::<TypedTopic<E>>().ok()
    }

    /// Type-erased stats lookup; unlike [`BusInner::get_topic`] it works
    /// with only `E: 'static`, via the entry's monomorphised snap hook.
    fn snap_of<E: 'static>(&self) -> Option<TopicStats> {
        let type_id = TypeId::of::<E>();
        let shard = self.shards[Self::shard_of(type_id)].read();
        let entry = shard.get(&type_id)?;
        Some((entry.snap)(entry.typed.as_ref()))
    }

    fn get_or_create<E: Send + Sync + 'static>(&self) -> Arc<TypedTopic<E>> {
        let type_id = TypeId::of::<E>();
        let mut shard = self.shards[Self::shard_of(type_id)].write();
        let entry = shard.entry(type_id).or_insert_with(|| TopicEntry {
            typed: Arc::new(TypedTopic::<E>::new()),
            snap: snap_topic::<E>,
        });
        entry
            .typed
            .clone()
            .downcast::<TypedTopic<E>>()
            .expect("shard entry holds its own topic type")
    }

    /// Mirrors one delivery into the attached telemetry registry.
    fn mirror(&self, d: &Delivery) {
        if let Some(counters) = self.counters.get() {
            counters.published.add(d.published);
            counters.delivered.add(d.reached);
            if d.dropped > 0 {
                counters.dropped.add(d.dropped);
            }
            if d.lost > 0 {
                counters.bus_dropped_total.add(d.lost);
            }
        }
    }
}

/// A typed publish/subscribe bus.
///
/// Cloning the bus is cheap and yields a handle onto the same topics, so
/// producer components and the adaptation middleware can each hold one.
#[derive(Clone)]
pub struct Bus {
    inner: Arc<BusInner>,
}

impl Default for Bus {
    fn default() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let topics: usize = self.inner.shards.iter().map(|s| s.read().len()).sum();
        f.debug_struct("Bus").field("topics", &topics).finish()
    }
}

impl Bus {
    /// Creates an empty bus with the default per-subscription mailbox
    /// capacity ([`DEFAULT_RING_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bus whose subscriptions get mailboxes of at
    /// least `capacity` slots (rounded up to a power of two).
    #[must_use]
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(BusInner {
                shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
                counters: OnceLock::new(),
                ring_capacity: capacity,
            }),
        }
    }

    /// Mirrors bus-wide delivery counters (`eventbus.published`,
    /// `eventbus.delivered`, `eventbus.dropped`,
    /// `eventbus.bus_dropped_total`) into a telemetry registry.
    /// Per-topic breakdowns stay available via [`Bus::stats`].
    ///
    /// `eventbus.dropped` counts publishes that reached nobody;
    /// `eventbus.bus_dropped_total` counts individual deliveries lost to
    /// subscribers whose receiver was already gone at publish time or
    /// that had lagged past their mailbox capacity.
    ///
    /// The mirror is installed once per bus (so the publish path can
    /// read it without locking); calls after the first are ignored.
    pub fn attach_telemetry(&self, registry: &Registry) {
        let _ = self.inner.counters.set(BusCounters {
            published: registry.counter("eventbus.published"),
            delivered: registry.counter("eventbus.delivered"),
            dropped: registry.counter("eventbus.dropped"),
            bus_dropped_total: registry.counter("eventbus.bus_dropped_total"),
        });
    }

    /// Delivery counters for every topic the bus has seen, sorted by
    /// topic name.  Snapshots per-shard atomics — collecting stats never
    /// blocks publishers.
    #[must_use]
    pub fn stats(&self) -> Vec<TopicStats> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            let shard = shard.read();
            out.extend(shard.values().map(|e| (e.snap)(e.typed.as_ref())));
        }
        out.sort_by_key(|s| s.topic);
        out
    }

    /// Delivery counters for the topic carrying events of type `E`, or
    /// `None` if the bus has never seen that type.
    #[must_use]
    pub fn topic_stats<E: 'static>(&self) -> Option<TopicStats> {
        self.inner.snap_of::<E>()
    }

    /// Subscribes to events of type `E` (pull style) with the bus's
    /// default mailbox capacity.
    #[must_use]
    pub fn subscribe<E: Clone + Send + Sync + 'static>(&self) -> Subscription<E> {
        self.subscribe_with_capacity(self.inner.ring_capacity)
    }

    /// Subscribes with an explicit mailbox capacity (rounded up to a
    /// power of two).  Events published while the subscriber lags more
    /// than `capacity` behind are lost and counted in
    /// [`TopicStats::lost`].
    #[must_use]
    pub fn subscribe_with_capacity<E: Clone + Send + Sync + 'static>(
        &self,
        capacity: usize,
    ) -> Subscription<E> {
        let topic = self.inner.get_or_create::<E>();
        let shared = Arc::new(SubShared {
            ring: Ring::with_capacity(capacity),
            closed: AtomicBool::new(false),
            detached: AtomicBool::new(false),
        });
        topic.subs.write().push(shared.clone());
        Subscription { shared }
    }

    /// Registers a push-style callback for events of type `E`, invoked
    /// synchronously (in publish order) on the publisher's thread.
    pub fn on<E: Send + Sync + 'static>(&self, f: impl FnMut(&E) + Send + 'static) {
        let topic = self.inner.get_or_create::<E>();
        topic.callbacks.lock().push(Box::new(f));
        topic.callback_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes an event to every subscriber and callback of its type.
    /// Returns the number of pull-subscribers that received it.
    pub fn publish<E: Clone + Send + Sync + 'static>(&self, event: E) -> usize {
        let Some(topic) = self.inner.get_topic::<E>() else {
            return 0;
        };
        let d = topic.publish_many(std::iter::once(event));
        self.inner.mirror(&d);
        d.subs_reached
    }

    /// Publishes a batch of events with one topic lookup, returning the
    /// total number of pull-subscriber deliveries across the batch.
    /// Per-topic FIFO order is exactly that of publishing one by one.
    pub fn publish_batch<E: Clone + Send + Sync + 'static>(
        &self,
        events: impl IntoIterator<Item = E>,
    ) -> usize {
        let Some(topic) = self.inner.get_topic::<E>() else {
            return 0;
        };
        let d = topic.publish_many(events);
        self.inner.mirror(&d);
        d.subs_reached
    }

    /// A cached handle onto the topic for events of type `E` (created if
    /// absent).  Publishing through the handle skips the shard lookup
    /// entirely — this is the hot-path interface for components that
    /// publish the same event type in a loop.
    #[must_use]
    pub fn publisher<E: Clone + Send + Sync + 'static>(&self) -> Publisher<E> {
        Publisher {
            topic: self.inner.get_or_create::<E>(),
            inner: self.inner.clone(),
        }
    }

    /// Enables last-value retention for events of type `E`: after any
    /// publish, [`Bus::latest`] returns a clone of the most recent event.
    /// Late joiners (e.g. knowledge agents attached mid-run) use this to
    /// catch up on slow-changing state such as the current fault class.
    pub fn retain<E: Clone + Send + Sync + 'static>(&self) {
        self.inner
            .get_or_create::<E>()
            .retain
            .store(true, Ordering::Release);
    }

    /// The most recent retained event of type `E`, if retention is on and
    /// something was published since.
    #[must_use]
    pub fn latest<E: Clone + Send + Sync + 'static>(&self) -> Option<E> {
        let topic = self.inner.get_topic::<E>()?;
        let retained = topic.retained.lock();
        retained.as_ref().map(|a| (**a).clone())
    }

    /// Number of events ever published with type `E`.
    #[must_use]
    pub fn published_count<E: 'static>(&self) -> u64 {
        self.inner.snap_of::<E>().map_or(0, |s| s.published)
    }

    /// Number of live pull-subscribers for `E`.
    #[must_use]
    pub fn subscriber_count<E: 'static>(&self) -> usize {
        self.inner.snap_of::<E>().map_or(0, |s| s.subscribers)
    }
}

/// A cached publishing handle for one event type, from
/// [`Bus::publisher`].  Cloning is cheap; handles stay valid for the
/// bus's lifetime.
#[derive(Clone)]
pub struct Publisher<E> {
    topic: Arc<TypedTopic<E>>,
    inner: Arc<BusInner>,
}

impl<E> fmt::Debug for Publisher<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Publisher")
            .field("topic", &self.topic.name)
            .finish()
    }
}

impl<E: Clone + Send + Sync + 'static> Publisher<E> {
    /// Publishes one event; see [`Bus::publish`].
    pub fn publish(&self, event: E) -> usize {
        let d = self.topic.publish_many(std::iter::once(event));
        self.inner.mirror(&d);
        d.subs_reached
    }

    /// Publishes a batch with no per-event lookup; see
    /// [`Bus::publish_batch`].
    pub fn publish_batch(&self, events: impl IntoIterator<Item = E>) -> usize {
        let d = self.topic.publish_many(events);
        self.inner.mirror(&d);
        d.subs_reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);

    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u32);

    #[test]
    fn publish_reaches_subscriber() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        assert_eq!(bus.publish(Ping(1)), 1);
        assert_eq!(sub.try_recv(), Ok(Ping(1)));
        assert!(sub.try_recv().is_err());
    }

    #[test]
    fn types_are_isolated() {
        let bus = Bus::new();
        let pings = bus.subscribe::<Ping>();
        let pongs = bus.subscribe::<Pong>();
        bus.publish(Ping(7));
        assert_eq!(pings.pending(), 1);
        assert_eq!(pongs.pending(), 0);
    }

    #[test]
    fn multiple_subscribers_all_receive() {
        let bus = Bus::new();
        let a = bus.subscribe::<Ping>();
        let b = bus.subscribe::<Ping>();
        assert_eq!(bus.publish(Ping(3)), 2);
        assert_eq!(a.try_recv(), Ok(Ping(3)));
        assert_eq!(b.try_recv(), Ok(Ping(3)));
    }

    #[test]
    fn publish_without_subscribers_is_zero() {
        let bus = Bus::new();
        assert_eq!(bus.publish(Ping(0)), 0);
        assert_eq!(bus.published_count::<Ping>(), 0);
    }

    #[test]
    fn drain_empties_queue() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        for i in 0..5 {
            bus.publish(Ping(i));
        }
        assert_eq!(sub.pending(), 5);
        let all = sub.drain();
        assert_eq!(all.len(), 5);
        assert_eq!(all[4], Ping(4));
        assert_eq!(sub.pending(), 0);
    }

    #[test]
    fn dropped_subscription_is_pruned() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        drop(sub);
        assert_eq!(bus.publish(Ping(1)), 0);
        assert_eq!(bus.subscriber_count::<Ping>(), 0);
    }

    #[test]
    fn callbacks_fire_in_order() {
        let bus = Bus::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        bus.on::<Ping>(move |p| l1.lock().push(("first", p.0)));
        bus.on::<Ping>(move |p| l2.lock().push(("second", p.0)));
        bus.publish(Ping(9));
        assert_eq!(&*log.lock(), &[("first", 9), ("second", 9)]);
    }

    #[test]
    fn published_count_tracks() {
        let bus = Bus::new();
        bus.on::<Ping>(|_| {});
        bus.publish(Ping(1));
        bus.publish(Ping(2));
        assert_eq!(bus.published_count::<Ping>(), 2);
        assert_eq!(bus.published_count::<Pong>(), 0);
    }

    #[test]
    fn cloned_bus_shares_topics() {
        let bus = Bus::new();
        let handle = bus.clone();
        let sub = bus.subscribe::<Ping>();
        handle.publish(Ping(11));
        assert_eq!(sub.try_recv(), Ok(Ping(11)));
    }

    #[test]
    fn cross_thread_delivery() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        let handle = bus.clone();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                handle.publish(Ping(i));
            }
        });
        t.join().unwrap();
        assert_eq!(sub.drain().len(), 100);
    }

    #[test]
    fn retention_serves_late_joiners() {
        let bus = Bus::new();
        assert_eq!(bus.latest::<Ping>(), None);
        bus.retain::<Ping>();
        // Still nothing published.
        assert_eq!(bus.latest::<Ping>(), None);
        bus.on::<Ping>(|_| {});
        bus.publish(Ping(1));
        bus.publish(Ping(2));
        assert_eq!(bus.latest::<Ping>(), Some(Ping(2)));
        // Other types are unaffected.
        assert_eq!(bus.latest::<Pong>(), None);
    }

    #[test]
    fn retention_is_opt_in() {
        let bus = Bus::new();
        bus.on::<Ping>(|_| {});
        bus.publish(Ping(1));
        assert_eq!(bus.latest::<Ping>(), None);
    }

    #[test]
    fn debug_impl() {
        let bus = Bus::new();
        let _sub = bus.subscribe::<Ping>();
        assert!(format!("{bus:?}").contains("Bus"));
        assert!(format!("{_sub:?}").contains("Subscription"));
    }

    #[test]
    fn stats_track_published_delivered_dropped() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        bus.on::<Ping>(|_| {});
        bus.publish(Ping(1));
        bus.publish(Ping(2));
        let stats = bus.topic_stats::<Ping>().unwrap();
        assert!(stats.topic.ends_with("Ping"));
        assert_eq!(stats.published, 2);
        assert_eq!(stats.delivered, 4); // one subscriber + one callback, twice
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.subscribers, 1);
        assert_eq!(stats.callbacks, 1);

        // A publish that reaches nobody is a drop.
        drop(sub);
        let _pongs = bus.subscribe::<Pong>();
        bus.publish(Ping(3)); // callback still reaches it: not a drop
        let sub2 = bus.subscribe::<Ping>();
        drop(sub2);
        assert_eq!(bus.topic_stats::<Ping>().unwrap().dropped, 0);

        let all = bus.stats();
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0].topic <= w[1].topic));
        assert!(bus.topic_stats::<u128>().is_none());
    }

    #[test]
    fn dropped_counts_unheard_publishes() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        drop(sub);
        bus.publish(Ping(1)); // topic exists, nobody listening
        let stats = bus.topic_stats::<Ping>().unwrap();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn telemetry_mirror_counts_bus_wide() {
        let registry = afta_telemetry::Registry::new();
        let bus = Bus::new();
        bus.attach_telemetry(&registry);
        let _sub = bus.subscribe::<Ping>();
        bus.publish(Ping(1));
        bus.publish(Ping(2));
        let report = registry.report();
        assert_eq!(report.counter("eventbus.published"), 2);
        assert_eq!(report.counter("eventbus.delivered"), 2);
        assert_eq!(report.counter("eventbus.dropped"), 0);
    }

    #[test]
    fn lagging_subscriber_loss_is_counted() {
        let registry = afta_telemetry::Registry::new();
        let bus = Bus::new();
        bus.attach_telemetry(&registry);
        let a = bus.subscribe::<Ping>();
        let b = bus.subscribe::<Ping>();
        bus.publish(Ping(1)); // both alive
        drop(b);
        bus.publish(Ping(2)); // b's delivery is lost, a still hears it
        let stats = bus.topic_stats::<Ping>().unwrap();
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dropped, 0, "the publish reached a; not a drop");
        assert_eq!(registry.report().counter("eventbus.bus_dropped_total"), 1);

        drop(a);
        bus.publish(Ping(3)); // nobody left: a drop AND a lost delivery
        let stats = bus.topic_stats::<Ping>().unwrap();
        assert_eq!(stats.lost, 2);
        assert_eq!(stats.dropped, 1);
        let report = registry.report();
        assert_eq!(report.counter("eventbus.bus_dropped_total"), 2);
        assert_eq!(report.counter("eventbus.dropped"), 1);
    }

    #[test]
    fn ring_overflow_is_counted_as_lost() {
        let bus = Bus::new();
        let sub = bus.subscribe_with_capacity::<Ping>(4);
        for i in 0..10 {
            bus.publish(Ping(i));
        }
        // The first `capacity` events are queued; the overflow is lost.
        assert_eq!(sub.pending(), 4);
        assert_eq!(sub.drain(), vec![Ping(0), Ping(1), Ping(2), Ping(3)]);
        let stats = bus.topic_stats::<Ping>().unwrap();
        assert_eq!(stats.published, 10);
        assert_eq!(stats.lost, 6);
        assert_eq!(stats.delivered, 4);
    }

    #[test]
    fn publish_batch_matches_sequential_publish() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        let delivered = bus.publish_batch((0..8).map(Ping));
        assert_eq!(delivered, 8);
        let got = sub.drain();
        assert_eq!(got, (0..8).map(Ping).collect::<Vec<_>>());
        assert_eq!(bus.published_count::<Ping>(), 8);
        // A batch on an unknown topic is a no-op, like publish.
        assert_eq!(bus.publish_batch((0..3).map(Pong)), 0);
        assert_eq!(bus.published_count::<Pong>(), 0);
    }

    #[test]
    fn publisher_handle_skips_lookup_and_shares_counters() {
        let registry = afta_telemetry::Registry::new();
        let bus = Bus::new();
        bus.attach_telemetry(&registry);
        let publisher = bus.publisher::<Ping>();
        let sub = bus.subscribe::<Ping>();
        assert_eq!(publisher.publish(Ping(1)), 1);
        assert_eq!(publisher.publish_batch((2..5).map(Ping)), 3);
        assert_eq!(sub.drain().len(), 4);
        assert_eq!(bus.published_count::<Ping>(), 4);
        assert_eq!(registry.report().counter("eventbus.published"), 4);
        assert!(format!("{publisher:?}").contains("Ping"));
    }

    #[test]
    fn drain_batch_reuses_buffer() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        let mut out: Vec<Ping> = Vec::with_capacity(16);
        for round in 0..10u32 {
            bus.publish_batch((0..8).map(|i| Ping(round * 10 + i)));
            out.clear();
            assert_eq!(sub.drain_batch(&mut out), 8);
            assert_eq!(out[0], Ping(round * 10));
        }
    }

    #[test]
    fn try_recv_reports_disconnected_after_bus_drop() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        bus.publish(Ping(1));
        drop(bus);
        // Queued events still drain...
        assert_eq!(sub.try_recv(), Ok(Ping(1)));
        // ...then the subscription reports the bus is gone.
        assert_eq!(sub.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn pruned_lagging_subscriber_releases_events() {
        let bus = Bus::new();
        let payload = Arc::new(42u32);
        let sub = bus.subscribe::<Arc<u32>>();
        let keeper = bus.subscribe::<Arc<u32>>();
        bus.publish(payload.clone());
        drop(sub); // eagerly drains its queued copy
        bus.publish(payload.clone()); // prunes the dead mailbox
        keeper.drain();
        // Only `payload` and the retained-nothing: every queued copy in
        // the pruned ring was dropped.
        assert_eq!(Arc::strong_count(&payload), 1);
        let stats = bus.topic_stats::<Arc<u32>>().unwrap();
        assert_eq!(stats.lost, 1);
    }

    #[test]
    fn concurrent_publishers_lose_nothing() {
        // drain()/pending() under concurrent publishers.  Four threads
        // publish interleaved; a consumer drains while they run.  No
        // event may be lost or reordered within its publisher's stream.
        const PUBLISHERS: u32 = 4;
        const PER_PUBLISHER: u32 = 250;
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        let handles: Vec<_> = (0..PUBLISHERS)
            .map(|t| {
                let handle = bus.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PUBLISHER {
                        handle.publish(Ping(t * 1000 + i));
                    }
                })
            })
            .collect();
        let total = (PUBLISHERS * PER_PUBLISHER) as usize;
        let mut got = Vec::new();
        while got.len() < total {
            got.extend(sub.drain());
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        got.extend(sub.drain());
        assert_eq!(got.len(), total);
        for t in 0..PUBLISHERS {
            let stream: Vec<u32> = got.iter().map(|p| p.0).filter(|v| v / 1000 == t).collect();
            assert_eq!(stream.len(), PER_PUBLISHER as usize);
            assert!(
                stream.windows(2).all(|w| w[0] < w[1]),
                "per-publisher order must be preserved"
            );
        }
        let stats = bus.topic_stats::<Ping>().unwrap();
        assert_eq!(stats.published, u64::from(PUBLISHERS * PER_PUBLISHER));
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn pending_is_exact_when_quiescent() {
        let bus = Bus::new();
        let sub = bus.subscribe::<Ping>();
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let handle = bus.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        handle.publish(Ping(t * 100 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All publishers joined: pending() is now exact and drain()
        // returns exactly that many events.
        assert_eq!(sub.pending(), 150);
        assert_eq!(sub.drain().len(), 150);
        assert_eq!(sub.pending(), 0);
    }

    #[test]
    fn retained_event_reaches_late_joiner() {
        // Regression: a subscriber attached *after* the publish must be
        // able to catch up via the retained value, and then receive live
        // publishes like any other subscriber.
        let bus = Bus::new();
        bus.retain::<Ping>();
        bus.on::<Ping>(|_| {});
        bus.publish(Ping(41));
        bus.publish(Ping(42));

        // Late joiner: no queued history, but the last value is served.
        let late = bus.subscribe::<Ping>();
        assert_eq!(late.pending(), 0);
        assert_eq!(bus.latest::<Ping>(), Some(Ping(42)));

        // And the late joiner participates in subsequent publishes.
        bus.publish(Ping(43));
        assert_eq!(late.try_recv(), Ok(Ping(43)));
        assert_eq!(bus.latest::<Ping>(), Some(Ping(43)));
    }

    #[test]
    fn stats_can_be_read_while_publishing() {
        // Satellite: stats collection must not stall publishers (and
        // vice versa) — both sides only take shared locks.
        let bus = Bus::new();
        let _sub = bus.subscribe::<Ping>();
        let handle = bus.clone();
        let publisher = std::thread::spawn(move || {
            for i in 0..5_000 {
                handle.publish(Ping(i));
            }
        });
        // Snapshot-then-check, so at least one stats() read overlaps the
        // publisher's lifetime even if it wins every race.
        let mut snapshots = 0u32;
        loop {
            let _ = bus.stats();
            snapshots += 1;
            if publisher.is_finished() {
                break;
            }
        }
        publisher.join().unwrap();
        assert!(snapshots > 0);
        assert_eq!(bus.topic_stats::<Ping>().unwrap().published, 5_000);
    }

    #[test]
    fn lost_count_and_mirrored_telemetry_counter_agree_exactly() {
        // Regression: `TopicStats::lost` is accumulated on the topic's
        // per-shard atomic while `eventbus.bus_dropped_total` is added by
        // the telemetry mirror — two different code paths fed from the
        // same per-publish `Delivery`.  Under concurrent publishers with
        // a lagging subscriber the two must still agree to the event.
        let bus = Bus::new();
        let registry = Registry::new();
        bus.attach_telemetry(&registry);

        // Tiny mailbox, never drained: almost every delivery overflows.
        let lagging = bus.subscribe_with_capacity::<Ping>(8);

        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let handle = bus.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u32 {
                        handle.publish(Ping(t * 10_000 + i));
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }

        let stats = bus.topic_stats::<Ping>().unwrap();
        assert_eq!(stats.published, 40_000);
        assert!(stats.lost > 0, "the lagging subscriber must overflow");
        assert_eq!(
            stats.lost,
            registry.report().counter("eventbus.bus_dropped_total"),
            "TopicStats::lost and the mirrored counter diverged"
        );
        drop(lagging);
    }
}
