//! # mvag-obs — dependency-light tracing for the SGLA workspace
//!
//! A tracing core small enough to live underneath hot numeric kernels:
//!
//! * **RAII spans** ([`span`], [`Span`]) with a thread-local span stack
//!   and monotonic timing. Opening a span when tracing is disabled is a
//!   single relaxed atomic load and nothing else — no allocation, no
//!   clock read, no lock — so instrumented kernels stay unperturbed.
//! * **A lock-striped ring buffer** of completed [`SpanRecord`]s.
//!   Threads hash onto one of [`STRIPES`] independently locked rings,
//!   so concurrent request handlers do not serialize on one mutex; the
//!   ring keeps the most recent [`ring_capacity`] spans and silently
//!   drops the oldest.
//! * **Trace contexts**: every span carries a `trace` id (0 = untraced
//!   background work). The serve layer allocates one id per HTTP
//!   request ([`next_request_id`]) and binds it with [`with_trace`];
//!   cross-thread stages (batcher queue wait, shared kernel passes)
//!   record into a specific trace with [`record`].
//! * **Stage histograms**: every span close also feeds a process-wide
//!   duration [`metrics::Histogram`] keyed by span name
//!   ([`stage_snapshot`]), which the serve crate renders as
//!   `sgla_stage_*` Prometheus series.
//! * **The metrics primitive** ([`metrics`]): the one log₂ histogram,
//!   its rolling-window form, and the Prometheus text writer and
//!   validator that every serve-side metric is built on.
//! * **Chrome trace-event export**: [`chrome_trace_json`] renders
//!   records as a `chrome://tracing` / Perfetto-loadable JSON document
//!   (`"ph": "X"` complete events with microsecond `ts`/`dur`).
//!
//! The crate has no dependencies, no unsafe code, and no background
//! threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;

use metrics::{HistSnapshot, Histogram};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Number of independently locked rings completed spans hash into.
pub const STRIPES: usize = 8;

/// Completed spans kept per stripe; the global ring holds
/// `STRIPES * STRIPE_CAPACITY` records before dropping the oldest.
const STRIPE_CAPACITY: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is globally enabled. This is the *entire* cost of
/// an instrumented site when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables tracing. Spans opened while enabled
/// still close correctly if tracing is disabled mid-flight.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process-wide monotonic epoch; all span timestamps are microseconds
/// since the first call.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process tracing epoch.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh nonzero trace id (one per HTTP request in the
/// serve layer; the training CLI uses one per pipeline run).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense per-thread id (stable for the thread's lifetime);
    /// `ThreadId::as_u64` is unstable, so we mint our own.
    static THREAD_NUM: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Ambient trace id; 0 = untraced.
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    /// Depth of the thread-local span stack.
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// This thread's dense numeric id (used as `tid` in trace events).
pub fn thread_num() -> u64 {
    THREAD_NUM.with(|t| *t)
}

/// The ambient trace id bound by the innermost [`with_trace`] on this
/// thread (0 when none).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// Runs `f` with `trace` as the ambient trace id on this thread;
/// spans opened inside attach to it. Restores the previous id on exit
/// (including panic unwind via RAII would be nicer, but the closures
/// used here do not continue after a panic, so a plain save/restore
/// is sufficient for the non-panicking path).
pub fn with_trace<R>(trace: u64, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace));
    let out = f();
    CURRENT_TRACE.with(|c| c.set(prev));
    out
}

/// A completed span as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace (request) id; 0 for untraced background work.
    pub trace: u64,
    /// Static span name (e.g. `"serve.backend"`, `"train.eigensolve"`).
    pub name: &'static str,
    /// Start time in microseconds since the process tracing epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on the opening thread (0 = root).
    pub depth: u16,
    /// Dense id of the thread that recorded the span.
    pub thread: u64,
    /// Attached counters (e.g. eigensolver matvecs/restarts).
    pub counters: Vec<(&'static str, u64)>,
}

struct LiveSpan {
    trace: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
    depth: u16,
    counters: Vec<(&'static str, u64)>,
}

/// An open RAII span. Dropping it records the duration into the ring
/// buffer and the stage histogram for its name. When tracing was
/// disabled at open time the guard is inert (a `None` inside).
#[must_use = "a span measures the scope it is alive in"]
pub struct Span(Option<LiveSpan>);

/// Opens a span named `name` on the ambient trace. When tracing is
/// disabled this costs one atomic load and returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    span_slow(name, current_trace())
}

#[cold]
fn span_slow(name: &'static str, trace: u64) -> Span {
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth.saturating_add(1));
        depth
    });
    let start = Instant::now();
    Span(Some(LiveSpan {
        trace,
        name,
        start,
        start_us: start.duration_since(epoch()).as_micros() as u64,
        depth,
        counters: Vec::new(),
    }))
}

impl Span {
    /// Attaches (or accumulates into) a named counter on this span.
    /// No-op on an inert guard.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if let Some(live) = &mut self.0 {
            if let Some(slot) = live.counters.iter_mut().find(|(n, _)| *n == name) {
                slot.1 += value;
            } else {
                live.counters.push((name, value));
            }
        }
    }

    /// Whether this guard is actually measuring (tracing was enabled
    /// when it was opened).
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.0.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_us = live.start.elapsed().as_micros() as u64;
        stage_record(live.name, dur_us);
        push_record(SpanRecord {
            trace: live.trace,
            name: live.name,
            start_us: live.start_us,
            dur_us,
            depth: live.depth,
            thread: thread_num(),
            counters: live.counters,
        });
    }
}

/// Records an already-measured interval into trace `trace` (used for
/// cross-thread stages like batcher queue wait, where the span's open
/// and close happen on different threads). Feeds the stage histogram
/// like a normal span close. No-op when tracing is disabled.
pub fn record(trace: u64, name: &'static str, start_us: u64, dur_us: u64, depth: u16) {
    record_with(trace, name, start_us, dur_us, depth, Vec::new());
}

/// [`record`] with attached counters.
pub fn record_with(
    trace: u64,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    depth: u16,
    counters: Vec<(&'static str, u64)>,
) {
    if !enabled() {
        return;
    }
    stage_record(name, dur_us);
    push_record(SpanRecord {
        trace,
        name,
        start_us,
        dur_us,
        depth,
        thread: thread_num(),
        counters,
    });
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

fn rings() -> &'static [Mutex<VecDeque<SpanRecord>>; STRIPES] {
    static RINGS: OnceLock<[Mutex<VecDeque<SpanRecord>>; STRIPES]> = OnceLock::new();
    RINGS.get_or_init(|| std::array::from_fn(|_| Mutex::new(VecDeque::new())))
}

/// Total completed spans the ring buffer retains before dropping the
/// oldest.
pub fn ring_capacity() -> usize {
    STRIPES * STRIPE_CAPACITY
}

fn push_record(record: SpanRecord) {
    let stripe = (thread_num() as usize) % STRIPES;
    let mut ring = rings()[stripe].lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() >= STRIPE_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(record);
}

/// Clones every retained span, sorted by start time.
pub fn snapshot() -> Vec<SpanRecord> {
    collect(|_| true)
}

/// Clones the retained spans of one trace, sorted by start time —
/// without copying the rest of the ring.
pub fn trace_snapshot(trace: u64) -> Vec<SpanRecord> {
    collect(|r| r.trace == trace)
}

fn collect(keep: impl Fn(&SpanRecord) -> bool) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for stripe in rings() {
        let ring = stripe.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(ring.iter().filter(|r| keep(r)).cloned());
    }
    out.sort_by_key(|r| (r.start_us, r.depth));
    out
}

/// Removes and returns every retained span, sorted by start time.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for stripe in rings() {
        let mut ring = stripe.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(ring.drain(..));
    }
    out.sort_by_key(|r| (r.start_us, r.depth));
    out
}

/// Discards every retained span.
pub fn clear() {
    for stripe in rings() {
        stripe.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

// ---------------------------------------------------------------------------
// Stage histograms
// ---------------------------------------------------------------------------

/// A per-stage duration histogram (microseconds).
struct StageHist {
    name: &'static str,
    hist: Histogram,
}

/// Read-mostly registry: span close takes the read lock and scans a
/// short list (one entry per distinct span name in the process).
fn stages() -> &'static RwLock<Vec<&'static StageHist>> {
    static STAGES: OnceLock<RwLock<Vec<&'static StageHist>>> = OnceLock::new();
    STAGES.get_or_init(|| RwLock::new(Vec::new()))
}

fn stage_record(name: &'static str, dur_us: u64) {
    let hist = {
        let list = stages().read().unwrap_or_else(|e| e.into_inner());
        list.iter().find(|h| h.name == name).copied()
    };
    let hist = match hist {
        Some(h) => h,
        None => {
            let mut list = stages().write().unwrap_or_else(|e| e.into_inner());
            if let Some(h) = list.iter().find(|h| h.name == name) {
                *h
            } else {
                // One leak per distinct static span name: bounded.
                let h: &'static StageHist = Box::leak(Box::new(StageHist {
                    name,
                    hist: Histogram::new(),
                }));
                list.push(h);
                h
            }
        }
    };
    hist.hist.record(dur_us);
}

/// Snapshots every stage histogram (durations in microseconds), sorted
/// by span name. Counters are cumulative since process start
/// (Prometheus semantics).
pub fn stage_snapshot() -> Vec<(&'static str, HistSnapshot)> {
    let list = stages().read().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(&'static str, HistSnapshot)> =
        list.iter().map(|h| (h.name, h.hist.snapshot())).collect();
    out.sort_by_key(|(name, _)| *name);
    out
}

/// Looks up one stage histogram snapshot by span name.
pub fn stage(name: &str) -> Option<HistSnapshot> {
    stage_snapshot()
        .into_iter()
        .find_map(|(n, snap)| (n == name).then_some(snap))
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Renders records as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form), loadable in
/// `chrome://tracing` and Perfetto. Each span becomes one complete
/// (`"ph": "X"`) event with microsecond `ts`/`dur`, `pid` 1, and the
/// recording thread as `tid`; trace id, depth, and span counters ride
/// in `args`.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json_into(r.name, &mut out);
        out.push_str("\",\"cat\":\"sgla\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.push_str(&r.thread.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&r.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&r.dur_us.to_string());
        out.push_str(",\"args\":{\"trace\":");
        out.push_str(&r.trace.to_string());
        out.push_str(",\"depth\":");
        out.push_str(&r.depth.to_string());
        for (name, value) in &r.counters {
            out.push_str(",\"");
            escape_json_into(name, &mut out);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (span names are static identifiers,
/// but the writer must stay correct for any input).
fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global tracing state is process-wide; tests that toggle it run
    /// under this lock so `cargo test`'s parallel runner cannot
    /// interleave them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = test_lock();
        set_enabled(false);
        clear();
        {
            let mut s = span("test.disabled");
            assert!(!s.is_live());
            s.counter("x", 1);
        }
        assert!(snapshot().iter().all(|r| r.name != "test.disabled"));
    }

    #[test]
    fn span_records_nesting_and_counters() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        with_trace(7, || {
            let _outer = span("test.outer");
            {
                let mut inner = span("test.inner");
                inner.counter("items", 3);
                inner.counter("items", 2);
            }
        });
        set_enabled(false);
        let records = snapshot();
        let outer = records.iter().find(|r| r.name == "test.outer").unwrap();
        let inner = records.iter().find(|r| r.name == "test.inner").unwrap();
        assert_eq!(outer.trace, 7);
        assert_eq!(inner.trace, 7);
        assert_eq!(inner.depth, outer.depth + 1);
        assert_eq!(inner.counters, vec![("items", 5)]);
        // Inner closed first but starts later and fits inside outer.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
    }

    #[test]
    fn with_trace_restores_previous() {
        let _guard = test_lock();
        assert_eq!(current_trace(), 0);
        with_trace(5, || {
            assert_eq!(current_trace(), 5);
            with_trace(6, || assert_eq!(current_trace(), 6));
            assert_eq!(current_trace(), 5);
        });
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        // All from one thread → one stripe → stripe capacity applies.
        for _ in 0..(STRIPE_CAPACITY + 10) {
            record(1, "test.fill", 0, 1, 0);
        }
        set_enabled(false);
        let n = snapshot().iter().filter(|r| r.name == "test.fill").count();
        assert_eq!(n, STRIPE_CAPACITY);
        clear();
    }

    #[test]
    fn stage_histogram_accumulates() {
        let _guard = test_lock();
        set_enabled(true);
        let before = stage("test.stage").map(|s| s.count).unwrap_or(0);
        record(0, "test.stage", 0, 5, 0);
        record(0, "test.stage", 0, 900, 0);
        set_enabled(false);
        let snap = stage("test.stage").unwrap();
        assert_eq!(snap.count, before + 2);
        assert!(snap.sum >= 905);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        // 5 µs → bucket 2 ([4,8)); 900 µs → bucket 9 ([512,1024)).
        assert!(snap.buckets[2] >= 1);
        assert!(snap.buckets[9] >= 1);
    }

    #[test]
    fn bucket_of_edges() {
        use metrics::{bucket_of, BUCKETS};
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let records = vec![
            SpanRecord {
                trace: 9,
                name: "phase.a",
                start_us: 10,
                dur_us: 100,
                depth: 0,
                thread: 1,
                counters: vec![("matvecs", 42)],
            },
            SpanRecord {
                trace: 9,
                name: "needs \"escaping\"\n",
                start_us: 20,
                dur_us: 5,
                depth: 1,
                thread: 1,
                counters: vec![],
            },
        ];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"matvecs\":42"));
        assert!(json.contains("\\\"escaping\\\""));
        assert!(json.contains("\\n"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
