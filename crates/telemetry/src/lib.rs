//! # malnet-telemetry — deterministic-safe tracing and metrics
//!
//! A lightweight, dependency-free observability layer for the MalNet
//! pipeline: span guards with monotonic wall-clock timing, atomic
//! counters, log2-bucketed histograms, ordered rollup rows, and a
//! versioned JSON [`RunReport`] snapshot.
//!
//! ## Design constraints
//!
//! The pipeline's core guarantee is byte-identical output across
//! parallelism levels (DESIGN.md §8), so instrumentation must be
//! **provably inert**:
//!
//! * Telemetry never touches the simulation — no RNG draws, no
//!   `SimTime` reads, no feedback into any instrumented component. The
//!   only clock it reads is [`std::time::Instant`], and only for span
//!   durations, which land exclusively in the report.
//! * All mutation is commutative (atomic adds / min / max), so counter
//!   and histogram totals are identical regardless of thread
//!   scheduling; only wall-times vary run to run.
//! * A [`Telemetry::disabled`] handle carries no registry at all: every
//!   hot-path operation compiles down to a branch on an `Option`
//!   discriminant (`crates/bench/tests/perf_gates.rs` gates a disabled
//!   counter at 10 ns per add).
//!
//! ## Usage
//!
//! ```
//! use malnet_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _span = tel.span("pipeline.day");
//!     tel.counter("pipeline.samples_analyzed").add(3);
//!     tel.histogram("sandbox.instructions_per_run").record(1 << 20);
//! }
//! let report = tel.report();
//! assert_eq!(report.counter("pipeline.samples_analyzed"), Some(3));
//! let json = report.to_json();
//! assert!(json.contains("\"pipeline.day\""));
//! ```
//!
//! Handles ([`Counter`], [`Histogram`]) are pre-resolved `Arc`s:
//! resolve once at construction, then `add`/`record` lock-free on the
//! hot path. The string-keyed conveniences on [`Telemetry`] lock a
//! registry map and are meant for cold paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod report;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use events::{EventSink, Field};
pub use report::{HistogramReport, RunReport, SpanReport};

/// Number of log2 histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A handle to the telemetry system: either a shared registry or the
/// inert disabled state. Cheap to clone, `Send + Sync`, safe to share
/// across worker threads.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A live telemetry handle with a fresh registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A live handle that additionally streams lifecycle events to
    /// `sink` (the `malnet.events` v1 JSONL stream): rollup rows are
    /// dual-emitted as they arrive, and instrumented coordinators emit
    /// lifecycle events and counter snapshots through
    /// [`Telemetry::event`] / [`Telemetry::counters_event`]. The sink
    /// only ever *receives* deterministic data — attaching one cannot
    /// perturb any instrumented computation.
    pub fn enabled_with_events(sink: EventSink) -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry {
                events: Some(sink),
                ..Registry::default()
            })),
        }
    }

    /// Emit one event to the attached sink, if any. A no-op on disabled
    /// or sink-less handles, so instrumented code can emit
    /// unconditionally. Callers must only emit from the coordinator
    /// thread at deterministic points with deterministic payloads (see
    /// `events` module docs); `lint_report` keeps clocks out of payload
    /// construction.
    pub fn event(&self, kind: &str, key: Option<&str>, fields: &[(&str, Field<'_>)]) {
        if let Some(sink) = self.inner.as_ref().and_then(|r| r.events.as_ref()) {
            sink.emit(kind, key, fields);
        }
    }

    /// Emit a full counter snapshot (`counters` event, name-sorted) to
    /// the attached sink. Called at day boundaries and at study end;
    /// the stream's fold takes the *last* snapshot, so the final one
    /// must come after all counter movement for
    /// [`events::fold_matches_report`] to hold.
    pub fn counters_event(&self) {
        let Some(r) = &self.inner else { return };
        let Some(sink) = &r.events else { return };
        let snapshot: Vec<(String, u64)> = r
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let fields: Vec<(&str, Field<'_>)> = snapshot
            .iter()
            .map(|(name, v)| (name.as_str(), Field::U(*v)))
            .collect();
        sink.emit("counters", None, &fields);
    }

    /// Seal the attached event stream (emits `stream_end`); a no-op
    /// without a sink. Idempotent.
    pub fn finish_events(&self) {
        if let Some(sink) = self.inner.as_ref().and_then(|r| r.events.as_ref()) {
            sink.finish();
        }
    }

    /// The inert handle: no registry, every operation is a no-op branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve (or create) a counter handle by name. Resolve once and
    /// reuse the handle on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|r| r.counter_cell(name)))
    }

    /// Resolve (or create) a histogram handle by name.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|r| r.histogram_cell(name)))
    }

    /// Enter a named span. The returned guard records wall time into the
    /// span's total on drop; time spent in nested spans on the *same
    /// thread* is attributed to the children and subtracted from this
    /// span's self-time, and the enclosing span's name is recorded as
    /// this span's parent in the report (first enclosure wins).
    ///
    /// Spans opened on worker threads start their own attribution stack
    /// and therefore surface as parentless siblings; a fan-out stage
    /// that wants its per-item spans attributed to the coordinating
    /// span must capture a [`SpanCtx`] with [`Telemetry::current_span`]
    /// before spawning and open worker spans with
    /// [`Telemetry::span_under`].
    pub fn span(&self, name: &str) -> SpanGuard {
        let active = self.inner.as_ref().map(|r| {
            let stat = r.span_cell(name);
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(top) = stack.last() {
                    if !Arc::ptr_eq(top, &stat) {
                        stat.record_parent(&top.name);
                    }
                }
                stack.push(stat.clone());
            });
            ActiveSpan {
                stat,
                start: Instant::now(),
            }
        });
        SpanGuard {
            active,
            injected_parent: None,
        }
    }

    /// Capture the innermost span active on *this* thread, as a handle
    /// that can cross a thread boundary. Pair with
    /// [`Telemetry::span_under`] on the worker side so a fan-out
    /// stage's per-item spans nest under the coordinating span instead
    /// of landing as siblings. Cheap; an empty context when telemetry
    /// is disabled or no span is active.
    pub fn current_span(&self) -> SpanCtx {
        let stat = self
            .inner
            .as_ref()
            .and_then(|_| SPAN_STACK.with(|s| s.borrow().last().cloned()));
        SpanCtx { stat }
    }

    /// Enter a named span as a child of `parent` — typically a
    /// [`SpanCtx`] captured on the coordinating thread before a
    /// fan-out. The worker span's elapsed time is attributed to the
    /// parent's child-time (so the parent's self-time excludes worker
    /// work even across threads) and the parent's name is recorded for
    /// the report's span tree. With an empty context this is exactly
    /// [`Telemetry::span`]. Safe to call on the coordinator thread
    /// itself (the sequential fan-out path): attribution is identical.
    pub fn span_under(&self, name: &str, parent: &SpanCtx) -> SpanGuard {
        let Some(parent_stat) = &parent.stat else {
            return self.span(name);
        };
        let active = self.inner.as_ref().map(|r| {
            let stat = r.span_cell(name);
            if !Arc::ptr_eq(parent_stat, &stat) {
                stat.record_parent(&parent_stat.name);
            }
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Anchor the cross-thread parent below our own entry so
                // `SpanGuard::drop` attributes elapsed time to it; the
                // guard removes the anchor again on drop.
                stack.push(parent_stat.clone());
                stack.push(stat.clone());
            });
            ActiveSpan {
                stat,
                start: Instant::now(),
            }
        });
        SpanGuard {
            active,
            injected_parent: self.inner.is_some().then(|| parent_stat.clone()),
        }
    }

    /// One-shot counter add by name (cold paths; locks the registry).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.inner {
            r.counter_cell(name).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// One-shot histogram record by name (cold paths).
    pub fn record(&self, name: &str, value: u64) {
        if let Some(r) = &self.inner {
            r.histogram_cell(name).record(value);
        }
    }

    /// Append an ordered rollup row (e.g. one per study day): a key
    /// plus labelled integer fields, reported verbatim in arrival order.
    /// With an event sink attached, the row is also streamed as a
    /// `rollup` event the moment it arrives — this is how per-day
    /// rollups become visible at day boundaries instead of only in the
    /// final snapshot.
    pub fn rollup(&self, key: &str, fields: &[(&str, u64)]) {
        if let Some(r) = &self.inner {
            r.rollups.lock().unwrap().push(RollupRow {
                key: key.to_string(),
                fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            });
            if let Some(sink) = &r.events {
                let streamed: Vec<(&str, Field<'_>)> =
                    fields.iter().map(|&(k, v)| (k, Field::U(v))).collect();
                sink.emit("rollup", Some(key), &streamed);
            }
        }
    }

    /// Start a [`Stopwatch`] tied to this handle. The stopwatch reads
    /// the wall clock only when telemetry is enabled, so instrumented
    /// code can time itself without the disabled path ever touching
    /// `std::time` — this (not a raw `Instant::now()`) is the sanctioned
    /// way for non-telemetry crates to measure wall time, and the
    /// workspace `lint_report` enforces it.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Snapshot everything recorded so far into a [`RunReport`]. A
    /// disabled handle yields an empty (but valid, versioned) report.
    pub fn report(&self) -> RunReport {
        match &self.inner {
            Some(r) => r.snapshot(),
            None => RunReport::default(),
        }
    }
}

/// A wall-clock stopwatch from [`Telemetry::stopwatch`]. Inert (always
/// reads 0) when the owning handle is disabled.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Microseconds elapsed since construction; 0 when telemetry is
    /// disabled.
    pub fn elapsed_us(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_micros() as u64)
    }
}

/// A pre-resolved counter handle. The disabled variant is a `None` and
/// `add` is a single conditional branch.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared histogram state: log2 buckets plus count/sum/min/max, all
/// atomic so recording is lock-free and commutative.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        let idx = bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// The log2 bucket a value lands in: 0 for 0, else `ilog2(v) + 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (the summary's representative
/// value for percentile estimation).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A pre-resolved histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct SpanStat {
    name: String,
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
    /// Name of the first span observed enclosing this one (same-thread
    /// nesting or an explicit [`Telemetry::span_under`] attachment).
    /// First enclosure wins, so the tree is stable across runs.
    parent: Mutex<Option<String>>,
}

impl SpanStat {
    fn new(name: &str) -> Self {
        SpanStat {
            name: name.to_string(),
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            child_ns: AtomicU64::new(0),
            parent: Mutex::new(None),
        }
    }

    fn record_parent(&self, parent: &str) {
        let mut slot = self.parent.lock().unwrap();
        if slot.is_none() {
            *slot = Some(parent.to_string());
        }
    }
}

/// A handle to the innermost active span on the thread that captured it
/// (see [`Telemetry::current_span`]). `Send + Sync`: made to cross the
/// boundary into a fan-out worker, where [`Telemetry::span_under`]
/// re-attaches the worker's spans beneath it.
#[derive(Clone, Debug, Default)]
pub struct SpanCtx {
    stat: Option<Arc<SpanStat>>,
}

thread_local! {
    /// Per-thread stack of active spans, used to attribute child time to
    /// the enclosing span for self-time computation. Shared across
    /// `Telemetry` instances on a thread; in practice one registry is
    /// live per pipeline run.
    static SPAN_STACK: RefCell<Vec<Arc<SpanStat>>> = const { RefCell::new(Vec::new()) };
}

struct ActiveSpan {
    stat: Arc<SpanStat>,
    start: Instant,
}

/// RAII guard returned by [`Telemetry::span`]; records elapsed wall time
/// on drop. Guards must drop in LIFO order per thread (the natural
/// scoping); an out-of-order drop only misattributes self-time, it
/// cannot corrupt totals.
#[must_use = "a span guard records time when dropped; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    /// Cross-thread parent anchor pushed by [`Telemetry::span_under`];
    /// removed (without timing) when the guard drops.
    injected_parent: Option<Arc<SpanStat>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.start.elapsed().as_nanos() as u64;
        active.stat.calls.fetch_add(1, Ordering::Relaxed);
        active.stat.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own entry (top of stack in well-scoped use).
            if let Some(pos) = stack.iter().rposition(|e| Arc::ptr_eq(e, &active.stat)) {
                stack.remove(pos);
            }
            if let Some(parent) = stack.last() {
                parent.child_ns.fetch_add(elapsed, Ordering::Relaxed);
            }
            // Remove the cross-thread anchor `span_under` planted; it
            // carries no timing of its own on this thread.
            if let Some(anchor) = self.injected_parent.take() {
                if let Some(pos) = stack.iter().rposition(|e| Arc::ptr_eq(e, &anchor)) {
                    stack.remove(pos);
                }
            }
        });
    }
}

#[derive(Debug, Clone)]
struct RollupRow {
    key: String,
    fields: Vec<(String, u64)>,
}

/// The thread-safe metric registry behind an enabled [`Telemetry`].
#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<String, Arc<SpanStat>>>,
    rollups: Mutex<Vec<RollupRow>>,
    /// Optional live event stream; every rollup dual-emits here and
    /// instrumented coordinators push lifecycle events through it.
    events: Option<EventSink>,
}

impl Registry {
    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().unwrap();
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    fn histogram_cell(&self, name: &str) -> Arc<HistogramCore> {
        let mut map = self.histograms.lock().unwrap();
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(HistogramCore::default());
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    fn span_cell(&self, name: &str) -> Arc<SpanStat> {
        let mut map = self.spans.lock().unwrap();
        match map.get(name) {
            Some(s) => s.clone(),
            None => {
                let s = Arc::new(SpanStat::new(name));
                map.insert(name.to_string(), s.clone());
                s
            }
        }
    }

    fn snapshot(&self) -> RunReport {
        let mut report = RunReport::default();
        for (name, stat) in self.spans.lock().unwrap().iter() {
            let total_ns = stat.total_ns.load(Ordering::Relaxed);
            let child_ns = stat.child_ns.load(Ordering::Relaxed);
            report.spans.push(SpanReport {
                name: name.clone(),
                calls: stat.calls.load(Ordering::Relaxed),
                total_us: total_ns / 1_000,
                self_us: total_ns.saturating_sub(child_ns) / 1_000,
                parent: stat.parent.lock().unwrap().clone(),
            });
        }
        for (name, c) in self.counters.lock().unwrap().iter() {
            report
                .counters
                .push((name.clone(), c.load(Ordering::Relaxed)));
        }
        for (name, h) in self.histograms.lock().unwrap().iter() {
            let count = h.count.load(Ordering::Relaxed);
            let buckets: Vec<(u64, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper_bound(i), n))
                })
                .collect();
            report.histograms.push(HistogramReport {
                name: name.clone(),
                count,
                sum: h.sum.load(Ordering::Relaxed),
                min: if count == 0 {
                    0
                } else {
                    h.min.load(Ordering::Relaxed)
                },
                max: h.max.load(Ordering::Relaxed),
                p50: percentile_from_buckets(&buckets, count, 0.50),
                p90: percentile_from_buckets(&buckets, count, 0.90),
                p99: percentile_from_buckets(&buckets, count, 0.99),
                buckets,
            });
        }
        for row in self.rollups.lock().unwrap().iter() {
            report.rollups.push((row.key.clone(), row.fields.clone()));
        }
        report
    }
}

/// Estimate the q-quantile from `(upper_bound, count)` bucket pairs:
/// the upper bound of the first bucket whose cumulative count reaches
/// `q * total` (0 for empty input).
fn percentile_from_buckets(buckets: &[(u64, u64)], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for &(le, n) in buckets {
        cum += n;
        if cum >= rank {
            return le;
        }
    }
    buckets.last().map_or(0, |&(le, _)| le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_free_of_state() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let c = tel.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = tel.histogram("y");
        h.record(9);
        assert_eq!(h.count(), 0);
        {
            let _g = tel.span("z");
        }
        tel.rollup("day", &[("day", 1)]);
        let rep = tel.report();
        assert!(rep.spans.is_empty());
        assert!(rep.counters.is_empty());
        assert!(rep.histograms.is_empty());
        assert!(rep.rollups.is_empty());
    }

    #[test]
    fn stopwatch_is_inert_when_disabled() {
        let sw = Telemetry::disabled().stopwatch();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(sw.elapsed_us(), 0);
        let sw = Telemetry::enabled().stopwatch();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_us() >= 1_000);
    }

    #[test]
    fn counters_accumulate_across_handles_and_threads() {
        let tel = Telemetry::enabled();
        let c = tel.counter("pkts");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        // A second resolve of the same name sees the same cell.
        assert_eq!(tel.counter("pkts").get(), 4000);
        tel.add("pkts", 2);
        assert_eq!(tel.report().counter("pkts"), Some(4002));
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_summary_statistics() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("lat");
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let rep = tel.report();
        let hr = rep.histogram("lat").expect("present");
        assert_eq!(hr.count, 6);
        assert_eq!(hr.sum, 1106);
        assert_eq!(hr.min, 0);
        assert_eq!(hr.max, 1000);
        assert_eq!(hr.p50, 3); // 3rd of 6 observations lands in [2,3]
        assert_eq!(hr.p99, 1023);
        let total: u64 = hr.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = tel.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let rep = tel.report();
        let outer = rep.span("outer").expect("outer recorded");
        let inner = rep.span("inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent.as_deref(), Some("outer"));
        assert!(inner.total_us >= 8_000);
        assert!(outer.total_us >= inner.total_us);
        // Outer self-time excludes the inner sleep.
        assert!(outer.self_us < outer.total_us);
        assert!(outer.self_us <= outer.total_us - inner.total_us + 1_000);
    }

    #[test]
    fn spans_on_worker_threads_do_not_nest_under_coordinator() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("coord");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let tel = tel.clone();
                    s.spawn(move || {
                        let _w = tel.span("worker");
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    });
                }
            });
        }
        let rep = tel.report();
        let worker = rep.span("worker").unwrap();
        assert_eq!(worker.calls, 2);
        // A plain span() on a worker thread starts its own stack: no
        // parent recorded, no time subtracted from the coordinator.
        assert_eq!(worker.parent, None);
        let coord = rep.span("coord").unwrap();
        assert_eq!(coord.self_us, coord.total_us);
    }

    #[test]
    fn span_under_reattaches_worker_spans_across_threads() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("coord");
            let ctx = tel.current_span();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let tel = tel.clone();
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _w = tel.span_under("worker", &ctx);
                        std::thread::sleep(std::time::Duration::from_millis(4));
                        // Same-thread children of the worker span nest
                        // under it as usual.
                        let _g = tel.span("worker.child");
                    });
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let rep = tel.report();
        let worker = rep.span("worker").unwrap();
        assert_eq!(worker.calls, 2);
        assert_eq!(worker.parent.as_deref(), Some("coord"));
        assert_eq!(
            rep.span("worker.child").unwrap().parent.as_deref(),
            Some("worker")
        );
        // Worker elapsed IS attributed to the coordinator's child time
        // now, so its self-time is strictly below its wall total.
        let coord = rep.span("coord").unwrap();
        assert_eq!(coord.parent, None);
        assert!(
            coord.self_us < coord.total_us,
            "coord self {} !< total {}",
            coord.self_us,
            coord.total_us
        );
        // The coordinator's own stack is clean: a later span nests
        // under nothing stale.
        let _tail = tel.span("tail");
        drop(_tail);
        assert_eq!(tel.report().span("tail").unwrap().parent, None);
    }

    #[test]
    fn span_under_empty_ctx_and_sequential_path_degrade_gracefully() {
        // Empty context (no active span / disabled telemetry): plain span.
        let tel = Telemetry::enabled();
        {
            let ctx = tel.current_span();
            let _g = tel.span_under("lone", &ctx);
        }
        assert_eq!(tel.report().span("lone").unwrap().parent, None);
        // Disabled handle: everything is a no-op.
        let off = Telemetry::disabled();
        let ctx = off.current_span();
        {
            let _g = off.span_under("x", &ctx);
        }
        assert!(off.report().spans.is_empty());
        // span_under on the thread where the parent is already active
        // (the sequential fan-out path) behaves exactly like nesting.
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("seq.coord");
            let ctx = tel.current_span();
            {
                let _w = tel.span_under("seq.worker", &ctx);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let rep = tel.report();
        assert_eq!(
            rep.span("seq.worker").unwrap().parent.as_deref(),
            Some("seq.coord")
        );
        let coord = rep.span("seq.coord").unwrap();
        assert!(coord.self_us < coord.total_us);
    }

    #[test]
    fn rollups_preserve_order_and_fields() {
        let tel = Telemetry::enabled();
        tel.rollup("day", &[("day", 0), ("samples", 3)]);
        tel.rollup("day", &[("day", 5), ("samples", 1)]);
        let rep = tel.report();
        assert_eq!(rep.rollups.len(), 2);
        assert_eq!(rep.rollups[0].0, "day");
        assert_eq!(rep.rollups[0].1[0], ("day".to_string(), 0));
        assert_eq!(rep.rollups[1].1[1], ("samples".to_string(), 1));
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_from_buckets(&[], 0, 0.5), 0);
        assert_eq!(percentile_from_buckets(&[(7, 1)], 1, 0.0), 7);
        assert_eq!(percentile_from_buckets(&[(7, 1)], 1, 1.0), 7);
        let b = [(1, 50), (1023, 50)];
        assert_eq!(percentile_from_buckets(&b, 100, 0.5), 1);
        assert_eq!(percentile_from_buckets(&b, 100, 0.51), 1023);
    }
}
