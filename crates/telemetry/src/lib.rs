//! # afta-telemetry — workspace-wide tracing, metrics, and flight recording
//!
//! The paper's §4 vision calls for systems that make their run-time
//! behaviour — detected assumption clashes, adaptation decisions, fault
//! histories — *observable artefacts* rather than transient side effects.
//! This crate is the observability substrate every AFTA layer reports
//! into:
//!
//! * [`Registry`] — a cheap-to-clone handle over sharded metric storage.
//!   Counters, gauges, and fixed-bucket histograms live behind atomics,
//!   so the hot path is one `fetch_add`; snapshot reads take no lock on
//!   the data itself.  A [`Registry::disabled`] registry degrades every
//!   operation to a branch on `None` — instrumented code needs no `cfg`.
//! * [`TelemetrySpan`] / [`VirtualSpan`] — RAII span timing.  Wall-clock
//!   spans record elapsed nanoseconds on drop; virtual spans measure
//!   [`Tick`] distances from `afta-sim`'s clock, so simulated experiments
//!   get the same ergonomics as live code.
//! * [`FlightRecorder`] (embedded in the registry) — a bounded ring
//!   journal of typed, timestamped [`TelemetryEvent`] records: fault
//!   injections, alpha-count verdict flips, dtof dips, redundancy
//!   transitions, DAG snapshot swaps, assumption clashes, vote rounds.
//!   The journal serialises to JSONL for offline analysis.
//! * [`TelemetryReport`] — a serialisable snapshot of everything above,
//!   rendered as a human table via `Display` or as JSON.
//!
//! ```
//! use afta_telemetry::{Registry, TelemetryEvent};
//! use afta_sim::Tick;
//!
//! let registry = Registry::new();
//! let rounds = registry.counter("voting.rounds");
//! rounds.inc();
//! rounds.add(2);
//! registry.record(Tick(7), TelemetryEvent::DtofDip { n: 3, dtof: 1 });
//!
//! let report = registry.report();
//! assert_eq!(report.counter("voting.rounds"), 3);
//! assert_eq!(report.journal.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod otel;
pub mod recorder;
pub mod report;

pub use otel::TraceContext;
pub use recorder::{FlightRecorder, TelemetryEvent, TelemetryRecord};
pub use report::{HistogramSnapshot, TelemetryReport};

/// Re-exported so instrumented crates can journal events without a
/// direct `afta-sim` dependency.
pub use afta_sim::Tick;

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

/// Number of independent metric shards; name hashes pick the shard, so
/// unrelated instrumentation sites do not contend on one map lock.
const SHARDS: usize = 8;

/// Default duration buckets for spans, in nanoseconds (the last bucket
/// is an implicit overflow).
pub const DEFAULT_TIME_BOUNDS_NS: [u64; 12] = [
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Default flight-recorder capacity.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4_096;

// ---------------------------------------------------------------------------
// Metric cores (shared storage behind the handles)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HistogramCore {
    /// Ascending inclusive upper bounds; values above the last bound land
    /// in the overflow bucket.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets (the extra one is overflow).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record_n(&self, value: u64, n: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<&'static str, Arc<AtomicI64>>>,
    histograms: RwLock<HashMap<&'static str, Arc<HistogramCore>>>,
}

#[derive(Debug)]
struct Inner {
    shards: [Shard; SHARDS],
    recorder: FlightRecorder,
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name; stable across runs.
    let h = afta_sim::fnv1a_64(afta_sim::FNV_OFFSET, name.as_bytes());
    (h % SHARDS as u64) as usize
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The telemetry hub: hands out metric handles and owns the flight
/// recorder.  Clones share storage; a disabled registry makes every
/// operation a no-op branch.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An enabled registry with the default journal capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled registry whose flight recorder keeps at most
    /// `capacity` records (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            inner: Some(Arc::new(Inner {
                shards: Default::default(),
                recorder: FlightRecorder::new(capacity),
            })),
        }
    }

    /// A registry on which every operation is a no-op.  This is the
    /// `Default`, so un-instrumented call sites pay only an untaken
    /// branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.  Cache the handle: increments through it are one atomic add.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let shard = &inner.shards[shard_of(name)];
        if let Some(c) = shard.counters.read().get(name) {
            return Counter(Some(c.clone()));
        }
        let mut map = shard.counters.write();
        let c = map
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(c.clone()))
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    #[must_use]
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge(None);
        };
        let shard = &inner.shards[shard_of(name)];
        if let Some(g) = shard.gauges.read().get(name) {
            return Gauge(Some(g.clone()));
        }
        let mut map = shard.gauges.write();
        let g = map
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(g.clone()))
    }

    /// Returns the fixed-bucket histogram registered under `name`,
    /// creating it with `bounds` on first use.  A later call with
    /// different bounds returns the existing histogram unchanged.
    #[must_use]
    pub fn histogram(&self, name: &'static str, bounds: &[u64]) -> FixedHistogram {
        let Some(inner) = &self.inner else {
            return FixedHistogram(None);
        };
        let shard = &inner.shards[shard_of(name)];
        if let Some(h) = shard.histograms.read().get(name) {
            return FixedHistogram(Some(h.clone()));
        }
        let mut map = shard.histograms.write();
        let h = map
            .entry(name)
            .or_insert_with(|| Arc::new(HistogramCore::new(bounds)));
        FixedHistogram(Some(h.clone()))
    }

    /// Starts a wall-clock span that records elapsed nanoseconds into the
    /// histogram named `name` when dropped.
    #[must_use]
    pub fn span(&self, name: &'static str) -> TelemetrySpan {
        if self.inner.is_none() {
            return TelemetrySpan {
                hist: FixedHistogram(None),
                start: None,
            };
        }
        TelemetrySpan {
            hist: self.histogram(name, &DEFAULT_TIME_BOUNDS_NS),
            start: Some(Instant::now()),
        }
    }

    /// Starts a virtual-clock span at `start`; call
    /// [`VirtualSpan::finish`] with the end tick to record the tick
    /// distance into the histogram named `name`.
    #[must_use]
    pub fn virtual_span(&self, name: &'static str, start: Tick) -> VirtualSpan {
        VirtualSpan {
            hist: if self.inner.is_some() {
                self.histogram(name, &DEFAULT_TIME_BOUNDS_NS)
            } else {
                FixedHistogram(None)
            },
            start,
        }
    }

    /// Appends a typed event to the flight recorder.
    pub fn record(&self, tick: Tick, event: TelemetryEvent) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(tick, event);
        }
    }

    /// A copy of the journal, oldest record first.
    #[must_use]
    pub fn journal(&self) -> Vec<TelemetryRecord> {
        self.inner
            .as_ref()
            .map(|i| i.recorder.records())
            .unwrap_or_default()
    }

    /// The journal as JSON Lines (one record per line).
    #[must_use]
    pub fn journal_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map(|i| i.recorder.to_jsonl())
            .unwrap_or_default()
    }

    /// Records evicted from the journal because the ring was full.
    #[must_use]
    pub fn journal_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.recorder.dropped())
    }

    /// Snapshots every metric and the journal into a serialisable
    /// [`TelemetryReport`].  Metric reads are atomic loads; no metric
    /// write is blocked while snapshotting.
    #[must_use]
    pub fn report(&self) -> TelemetryReport {
        let mut report = TelemetryReport::default();
        let Some(inner) = &self.inner else {
            return report;
        };
        for shard in &inner.shards {
            for (name, c) in shard.counters.read().iter() {
                report
                    .counters
                    .insert((*name).to_string(), c.load(Ordering::Relaxed));
            }
            for (name, g) in shard.gauges.read().iter() {
                report
                    .gauges
                    .insert((*name).to_string(), g.load(Ordering::Relaxed));
            }
            for (name, h) in shard.histograms.read().iter() {
                report.histograms.insert((*name).to_string(), h.snapshot());
            }
        }
        report.journal = inner.recorder.records();
        report.journal_dropped = inner.recorder.dropped();
        report
    }

    /// Returns a [`Scope`]: a view of this registry in which every metric
    /// name is prefixed with `prefix` plus a dot.  Scopes are how
    /// multi-tenant components (one `Registry`, many tenants) keep their
    /// metric namespaces apart without threading name strings everywhere:
    ///
    /// ```
    /// use afta_telemetry::Registry;
    ///
    /// let registry = Registry::new();
    /// let tenant = registry.scoped("serve.tenant.7");
    /// // Resolve once, then count through the held handle.
    /// let rounds = tenant.counter("rounds");
    /// rounds.inc();
    /// rounds.inc();
    /// assert_eq!(registry.report().counter("serve.tenant.7.rounds"), 2);
    /// ```
    ///
    /// Composed names are interned process-wide (the registry's storage
    /// is keyed by `&'static str`), so the set of *distinct* scoped names
    /// must be bounded — scope per tenant or per shard, never per
    /// request.  Scoping a disabled registry is free: no name is interned
    /// and every handle is a no-op.
    #[must_use]
    pub fn scoped(&self, prefix: impl Into<String>) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.into(),
        }
    }

    /// Removes every counter, gauge and histogram named `prefix` plus a
    /// dot plus anything: all that `scoped(prefix)` hands out, and no
    /// metric of a longer prefix (`"t.1"` keeps `"t.10.*"`).  A handle
    /// held past this keeps working but no longer reaches the registry,
    /// and the next lookup of a removed name starts afresh.  The names
    /// stay in the process-wide intern table.
    ///
    /// ```
    /// use afta_telemetry::Registry;
    ///
    /// let registry = Registry::new();
    /// registry.scoped("serve.tenant.1").counter("rounds").inc();
    /// registry.scoped("serve.tenant.10").counter("rounds").inc();
    /// registry.remove_scoped("serve.tenant.1");
    /// let report = registry.report();
    /// assert!(!report.counters.contains_key("serve.tenant.1.rounds"));
    /// assert_eq!(report.counter("serve.tenant.10.rounds"), 1);
    /// ```
    pub fn remove_scoped(&self, prefix: &str) {
        let Some(inner) = &self.inner else {
            return;
        };
        let keep = |name: &&'static str| {
            !name
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('.'))
        };
        for shard in &inner.shards {
            shard.counters.write().retain(|name, _| keep(name));
            shard.gauges.write().retain(|name, _| keep(name));
            shard.histograms.write().retain(|name, _| keep(name));
        }
    }
}

// ---------------------------------------------------------------------------
// Scoped registries
// ---------------------------------------------------------------------------

/// Interns a composed metric name so it can key the `&'static str` metric
/// maps.  The intern table is global and append-only: each distinct name
/// is leaked exactly once, which bounds the leak by the number of scopes
/// times the metrics per scope.
fn intern_name(name: String) -> &'static str {
    static INTERN: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let table = INTERN.get_or_init(|| Mutex::new(HashMap::new()));
    let mut table = table.lock();
    if let Some(&s) = table.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    table.insert(name, leaked);
    leaked
}

/// A prefixed view of a [`Registry`], from [`Registry::scoped`].
///
/// Every handle a scope hands out records into the parent registry under
/// `"{prefix}.{name}"`; `afta-serve` uses one scope per tenant
/// (`serve.tenant.<id>.*`) so a single report shows all tenants side by
/// side.  Cloning is cheap.
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    fn full(&self, name: &str) -> &'static str {
        intern_name(format!("{}.{}", self.prefix, name))
    }

    /// The prefix this scope prepends (without the trailing dot).
    #[must_use]
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The registry the scoped metrics land in.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A nested scope: `registry.scoped("a").scoped("b")` is
    /// `registry.scoped("a.b")`.
    #[must_use]
    pub fn scoped(&self, sub: &str) -> Scope {
        Scope {
            registry: self.registry.clone(),
            prefix: format!("{}.{sub}", self.prefix),
        }
    }

    /// The counter `"{prefix}.{name}"`; see [`Registry::counter`].
    ///
    /// On an enabled registry each call formats the full name and
    /// interns it under a process-wide lock before the registry lookup,
    /// so a hot path should resolve the handle once and hold it.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        if !self.registry.is_enabled() {
            return Counter::default();
        }
        self.registry.counter(self.full(name))
    }

    /// The gauge `"{prefix}.{name}"`; see [`Registry::gauge`].
    ///
    /// On an enabled registry each call formats the full name and
    /// interns it under a process-wide lock before the registry lookup,
    /// so a hot path should resolve the handle once and hold it.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.registry.is_enabled() {
            return Gauge::default();
        }
        self.registry.gauge(self.full(name))
    }

    /// The histogram `"{prefix}.{name}"`; see [`Registry::histogram`].
    ///
    /// On an enabled registry each call formats the full name and
    /// interns it under a process-wide lock before the registry lookup,
    /// so a hot path should resolve the handle once and hold it.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> FixedHistogram {
        if !self.registry.is_enabled() {
            return FixedHistogram::default();
        }
        self.registry.histogram(self.full(name), bounds)
    }

    /// A wall-clock span recording into `"{prefix}.{name}"`; see
    /// [`Registry::span`].
    #[must_use]
    pub fn span(&self, name: &str) -> TelemetrySpan {
        if !self.registry.is_enabled() {
            return TelemetrySpan {
                hist: FixedHistogram(None),
                start: None,
            };
        }
        self.registry.span(self.full(name))
    }
}

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotone counter handle.  Cheap to clone; `None` inside means the
/// owning registry is disabled and every operation is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a settable signed level.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(g) = &self.0 {
            g.store(value, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn adjust(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disabled).
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct FixedHistogram(Option<Arc<HistogramCore>>);

impl FixedHistogram {
    /// Records one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record_n(value, 1);
        }
    }

    /// Records `n` observations of `value` at once (bulk import).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if let Some(h) = &self.0 {
            h.record_n(value, n);
        }
    }

    /// Total observations recorded (0 when disabled).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// A snapshot of the bucket contents (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.as_ref().map(|h| h.snapshot()).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII wall-clock span: records elapsed nanoseconds into its histogram
/// when dropped.
#[derive(Debug)]
pub struct TelemetrySpan {
    hist: FixedHistogram,
    start: Option<Instant>,
}

impl TelemetrySpan {
    /// Elapsed nanoseconds so far (0 when the registry is disabled).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Ends the span early, recording it now instead of at scope exit.
    pub fn finish(self) {}
}

impl Drop for TelemetrySpan {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A span over the simulation's virtual clock.  Not RAII (virtual time
/// does not advance by itself): call [`VirtualSpan::finish`] with the
/// end tick.
#[derive(Debug)]
pub struct VirtualSpan {
    hist: FixedHistogram,
    start: Tick,
}

impl VirtualSpan {
    /// The span's start tick.
    #[must_use]
    pub fn start(&self) -> Tick {
        self.start
    }

    /// Records the tick distance from start to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the start tick.
    pub fn finish(self, end: Tick) {
        self.hist.record(end.since(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_storage() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.report().counter("x.count"), 5);
    }

    #[test]
    fn scoped_metrics_prefix_and_share_storage() {
        let r = Registry::new();
        let a = r.scoped("serve.tenant.3");
        a.counter("rounds").add(2);
        a.gauge("streams").set(5);
        a.scoped("quota").counter("rejected").inc();
        // Same composed name, any path to it: one storage cell.
        r.counter("serve.tenant.3.rounds").inc();
        let report = r.report();
        assert_eq!(report.counter("serve.tenant.3.rounds"), 3);
        assert_eq!(report.gauges["serve.tenant.3.streams"], 5);
        assert_eq!(report.counter("serve.tenant.3.quota.rejected"), 1);
        assert_eq!(a.prefix(), "serve.tenant.3");
    }

    #[test]
    fn scoped_disabled_registry_is_noop() {
        let r = Registry::disabled();
        let scope = r.scoped("t");
        scope.counter("c").inc();
        scope.gauge("g").set(9);
        assert_eq!(scope.counter("c").get(), 0);
        assert!(!scope.registry().is_enabled());
    }

    #[test]
    fn gauges_set_and_adjust() {
        let r = Registry::new();
        let g = r.gauge("level");
        g.set(3);
        g.adjust(-5);
        assert_eq!(g.get(), -2);
        assert_eq!(r.report().gauges["level"], -2);
    }

    #[test]
    fn histogram_buckets_partition_values() {
        let r = Registry::new();
        let h = r.histogram("h", &[10, 20, 30]);
        h.record(5); // <= 10
        h.record(10); // <= 10 (inclusive bound)
        h.record(15); // <= 20
        h.record(31); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 1, 0, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 5 + 10 + 15 + 31);
    }

    #[test]
    fn histogram_bulk_record_matches_repeated() {
        let r = Registry::new();
        let h = r.histogram("bulk", &[3, 5, 7, 9]);
        h.record_n(3, 100);
        h.record_n(5, 7);
        assert_eq!(h.snapshot().bucket_count(3), Some(100));
        assert_eq!(h.snapshot().bucket_count(5), Some(7));
        assert_eq!(h.count(), 107);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("never");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = r.histogram("none", &[1]);
        h.record(1);
        assert_eq!(h.count(), 0);
        r.record(Tick(1), TelemetryEvent::Note { text: "x".into() });
        assert!(r.journal().is_empty());
        let report = r.report();
        assert!(report.counters.is_empty() && report.journal.is_empty());
    }

    #[test]
    fn wall_span_records_on_drop() {
        let r = Registry::new();
        {
            let _span = r.span("op.latency");
            std::hint::black_box(42);
        }
        assert_eq!(
            r.histogram("op.latency", &DEFAULT_TIME_BOUNDS_NS).count(),
            1
        );
    }

    #[test]
    fn virtual_span_measures_tick_distance() {
        let r = Registry::new();
        let span = r.virtual_span("sim.phase", Tick(10));
        span.finish(Tick(250));
        let snap = r.histogram("sim.phase", &DEFAULT_TIME_BOUNDS_NS).snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 240);
    }

    #[test]
    fn virtual_spans_stay_monotonic_under_clock_skew() {
        // The fuzzer's skew fault steps the Tick source backwards;
        // `SkewedClock` clamps the observation, so a span opened before the
        // step and finished after it still sees end >= start and records a
        // well-defined (possibly zero) duration instead of panicking or
        // underflowing.
        let r = Registry::new();
        let mut clock = afta_sim::SkewedClock::new();
        clock.advance(100);
        let span = r.virtual_span("fuzz.round", clock.now());
        clock.apply_skew(-60); // observed time holds at 100
        let end = clock.advance(5); // raw 105 - 60 = 45, clamped to 100
        assert_eq!(end, Tick(100));
        span.finish(end);
        let snap = r
            .histogram("fuzz.round", &DEFAULT_TIME_BOUNDS_NS)
            .snapshot();
        assert_eq!((snap.count, snap.sum), (1, 0));
        // Once the base clock overtakes the watermark, spans measure real
        // distance again.
        let span = r.virtual_span("fuzz.round", clock.now());
        span.finish(clock.advance(200)); // raw 305 - 60 = 245
        let snap = r
            .histogram("fuzz.round", &DEFAULT_TIME_BOUNDS_NS)
            .snapshot();
        assert_eq!((snap.count, snap.sum), (2, 145));
    }

    #[test]
    fn clones_share_everything() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("shared").inc();
        r2.counter("shared").inc();
        r2.record(
            Tick(1),
            TelemetryEvent::Note {
                text: "from clone".into(),
            },
        );
        assert_eq!(r.report().counter("shared"), 2);
        assert_eq!(r.journal().len(), 1);
    }

    #[test]
    fn report_is_stable_and_sorted() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        let keys: Vec<_> = r.report().counters.keys().cloned().collect();
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        let r = Registry::new();
        let _ = r.histogram("bad", &[5, 3]);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let r = Registry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("contended");
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("contended").get(), 40_000);
    }
}
