//! Per-endpoint request metrics for the HTTP front end, built on the
//! [`mvag_obs::metrics`] primitive.
//!
//! Each endpoint owns one record ([`EndpointMetrics`]): a latency
//! [`Histogram`], an error counter, and the rolling SLO [`Window`]s.
//! Recording a request is one lookup by endpoint name and a handful of
//! relaxed atomic adds. Quantiles (p50/p99) are read from the
//! histogram by linear interpolation inside the winning log₂ bucket.
//!
//! Two read modes over the same counters:
//!
//! * **cumulative** — what `/metrics` (Prometheus text format) and the
//!   plain `/stats` endpoint report; counters only ever grow.
//! * **reset-on-read deltas** — `/stats?reset=true` reports activity
//!   *since the previous reset-read* ([`MetricsRegistry::delta_snapshots`]):
//!   the registry remembers the last-read snapshot as a baseline and
//!   subtracts, so scrapers without their own rate() machinery get
//!   per-window numbers while the cumulative view stays intact.

use crate::slo::EndpointSloSnapshot;
use mvag_obs::metrics::{header, histogram, sample, scalar, HistSnapshot, Histogram, Window};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use mvag_obs::metrics::validate_prometheus;

/// One endpoint's record: latency histogram (microseconds), error
/// counter, and one rolling SLO window per configured span.
#[derive(Debug)]
pub struct EndpointMetrics {
    /// Endpoint label (e.g. `"topk"`).
    pub name: &'static str,
    latency_us: Histogram,
    errors: AtomicU64,
    windows: Vec<Window>,
}

impl EndpointMetrics {
    fn new(name: &'static str, window_secs: &[u64]) -> Self {
        EndpointMetrics {
            name,
            latency_us: Histogram::new(),
            errors: AtomicU64::new(0),
            windows: window_secs.iter().map(|&s| Window::new(s)).collect(),
        }
    }

    /// Records one completed request at `now_secs` (monotonic seconds
    /// since start); `slow` is the SLO tracker's verdict against the
    /// p99 objective in force now.
    pub fn record(&self, now_secs: u64, latency_us: u64, ok: bool, slow: bool) {
        self.latency_us.record(latency_us);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        for window in &self.windows {
            window.record(now_secs, latency_us, ok, slow);
        }
    }

    /// A consistent-enough copy of the cumulative counters.
    pub fn snapshot(&self) -> EndpointSnapshot {
        EndpointSnapshot {
            name: self.name,
            errors: self.errors.load(Ordering::Relaxed),
            latency_us: self.latency_us.snapshot(),
        }
    }
}

/// Point-in-time copy of one endpoint's counters.
#[derive(Debug, Clone)]
pub struct EndpointSnapshot {
    /// Endpoint label.
    pub name: &'static str,
    /// Requests that returned a non-2xx status.
    pub errors: u64,
    /// Latency histogram in microseconds; its `count` is the number of
    /// requests served (including errors).
    pub latency_us: HistSnapshot,
}

impl EndpointSnapshot {
    /// The counters accumulated since `baseline` was taken
    /// (element-wise saturating subtraction — a fresh baseline of
    /// zeros yields the cumulative view).
    pub fn delta_since(&self, baseline: &EndpointSnapshot) -> EndpointSnapshot {
        EndpointSnapshot {
            name: self.name,
            errors: self.errors.saturating_sub(baseline.errors),
            latency_us: self.latency_us.delta_since(&baseline.latency_us),
        }
    }
}

/// All endpoints served by the front end, plus server-wide counters.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Per-endpoint records.
    pub endpoints: Vec<EndpointMetrics>,
    started: Instant,
    /// Baseline of the last reset-read (`/stats?reset=true`): the
    /// snapshots handed out then, plus when. Cumulative atomics are
    /// never zeroed, so `/metrics` keeps monotone counters while
    /// delta reads subtract against this.
    baseline: Mutex<(Vec<EndpointSnapshot>, Instant)>,
}

/// Endpoint labels, in registry order. `traces` covers both
/// `/traces` and `/traces/slow`; `debug` covers the `/debug/*`
/// operator endpoints (slow-query log, live SLO/threshold tuning);
/// `other` collects requests that matched no route (404s, wrong
/// methods).
pub const ENDPOINTS: [&str; 13] = [
    "healthz", "health", "stats", "metrics", "artifact", "cluster", "topk", "embed", "reload",
    "traces", "version", "debug", "other",
];

impl MetricsRegistry {
    /// Fresh registry with one record per endpoint in [`ENDPOINTS`],
    /// each with one rolling SLO window per span in `window_secs`
    /// (seconds, shortest first).
    pub fn new(window_secs: &[u64]) -> Self {
        let endpoints: Vec<EndpointMetrics> = ENDPOINTS
            .iter()
            .map(|n| EndpointMetrics::new(n, window_secs))
            .collect();
        let zero = endpoints.iter().map(|e| e.snapshot()).collect();
        MetricsRegistry {
            endpoints,
            started: Instant::now(),
            baseline: Mutex::new((zero, Instant::now())),
        }
    }

    /// Records one completed request for `endpoint` (unknown labels
    /// are ignored); see [`EndpointMetrics::record`].
    pub fn record(&self, endpoint: &str, now_secs: u64, latency_us: u64, ok: bool, slow: bool) {
        if let Some(m) = self.endpoint(endpoint) {
            m.record(now_secs, latency_us, ok, slow);
        }
    }

    /// Cumulative snapshots of every endpoint, in registry order.
    pub fn snapshots(&self) -> Vec<EndpointSnapshot> {
        self.endpoints.iter().map(|e| e.snapshot()).collect()
    }

    /// Reset-on-read: per-endpoint deltas since the previous call
    /// (or since start, for the first), plus the window length in
    /// seconds. Advances the baseline — the cumulative counters
    /// themselves are untouched.
    pub fn delta_snapshots(&self) -> (Vec<EndpointSnapshot>, f64) {
        // Snapshot *inside* the baseline lock: two concurrent
        // reset-reads must see disjoint, gap-free windows (a snapshot
        // taken outside could be older than the baseline another
        // reader just installed, zeroing its whole window).
        let mut guard = self.baseline.lock().expect("metrics baseline lock");
        let current = self.snapshots();
        let (prev, since) = &mut *guard;
        let window = since.elapsed().as_secs_f64();
        let delta = current
            .iter()
            .zip(prev.iter())
            .map(|(c, p)| c.delta_since(p))
            .collect();
        *prev = current;
        *since = Instant::now();
        (delta, window)
    }

    /// The rolling SLO windows at `now_secs` of every endpoint that
    /// saw traffic in its widest window, in registry order.
    pub fn slo_snapshot(&self, now_secs: u64) -> Vec<EndpointSloSnapshot> {
        self.endpoints
            .iter()
            .map(|e| EndpointSloSnapshot {
                name: e.name,
                windows: e.windows.iter().map(|w| w.snapshot(now_secs)).collect(),
            })
            .filter(|s| s.windows.iter().any(|w| w.requests() > 0))
            .collect()
    }

    /// Renders the endpoint counters in the Prometheus text exposition
    /// format (cumulative; the log₂ histogram becomes a classic
    /// `_bucket{le=...}` series). The caller appends its own gauges
    /// (cache, shards, index work) before serving the page.
    pub fn render_prometheus(&self, out: &mut String) {
        let snaps = self.snapshots();
        header(
            out,
            "sgla_requests_total",
            "counter",
            "Requests served per endpoint.",
        );
        for s in &snaps {
            sample(
                out,
                "sgla_requests_total",
                &[("endpoint", s.name)],
                s.latency_us.count,
            );
        }
        header(
            out,
            "sgla_request_errors_total",
            "counter",
            "Non-2xx responses per endpoint.",
        );
        for s in &snaps {
            sample(
                out,
                "sgla_request_errors_total",
                &[("endpoint", s.name)],
                s.errors,
            );
        }
        header(
            out,
            "sgla_request_latency_us",
            "histogram",
            "Request latency per endpoint (microseconds).",
        );
        for s in &snaps {
            histogram(
                out,
                "sgla_request_latency_us",
                &[("endpoint", s.name)],
                &s.latency_us,
            );
        }
        scalar(
            out,
            "sgla_uptime_seconds",
            "gauge",
            "Seconds since the server started.",
            self.uptime_secs(),
        );
    }

    /// The record for an endpoint label, if known.
    pub fn endpoint(&self, name: &str) -> Option<&EndpointMetrics> {
        self.endpoints.iter().find(|e| e.name == name)
    }

    /// Seconds since the registry (≈ server) started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Total requests across endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints.iter().map(|e| e.latency_us.count()).sum()
    }
}

/// Connection-level counters shared by both transport backends:
/// accepts, currently-open connections, idle-timeout reaps, shed
/// (503-at-capacity) closes, and read/write buffer high-water marks.
/// All atomics, all relaxed — the evented loop touches these on every
/// accept/close and must not synchronize with anything.
#[derive(Debug)]
pub struct ConnGauges {
    accepts: AtomicU64,
    open: AtomicU64,
    timeouts: AtomicU64,
    shed: AtomicU64,
    read_buf_hwm: AtomicU64,
    write_buf_hwm: AtomicU64,
}

/// A point-in-time copy of [`ConnGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Connections currently open (accepted and not yet closed).
    pub open: u64,
    /// Total connections accepted since start.
    pub accepts: u64,
    /// Connections reaped by the idle/slowloris timeout.
    pub timeouts: u64,
    /// Connections shed with a 503 at the connection cap.
    pub shed: u64,
    /// Largest per-connection read buffer observed (bytes).
    pub read_buf_hwm: u64,
    /// Largest per-connection staged write buffer observed (bytes).
    pub write_buf_hwm: u64,
}

impl ConnGauges {
    pub(crate) fn new() -> ConnGauges {
        ConnGauges {
            accepts: AtomicU64::new(0),
            open: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            read_buf_hwm: AtomicU64::new(0),
            write_buf_hwm: AtomicU64::new(0),
        }
    }

    /// A connection was accepted (counted even if immediately shed).
    pub(crate) fn accepted(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
    }

    /// An accepted connection entered service.
    pub(crate) fn opened(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// An in-service connection closed (any reason).
    pub(crate) fn closed(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was reaped by the idle timeout.
    pub(crate) fn timed_out(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was refused with a 503 at the cap.
    pub(crate) fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    fn raise_hwm(slot: &AtomicU64, observed: u64) {
        let mut current = slot.load(Ordering::Relaxed);
        while observed > current {
            match slot.compare_exchange_weak(
                current,
                observed,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }

    /// Folds a read-buffer length into the high-water mark.
    pub(crate) fn observe_read_buf(&self, bytes: usize) {
        Self::raise_hwm(&self.read_buf_hwm, bytes as u64);
    }

    /// Folds a staged write-buffer length into the high-water mark.
    pub(crate) fn observe_write_buf(&self, bytes: usize) {
        Self::raise_hwm(&self.write_buf_hwm, bytes as u64);
    }

    /// A consistent-enough copy of the counters.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            open: self.open.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            read_buf_hwm: self.read_buf_hwm.load(Ordering::Relaxed),
            write_buf_hwm: self.write_buf_hwm.load(Ordering::Relaxed),
        }
    }

    /// Appends the connection gauges/counters to a Prometheus text
    /// page.
    pub fn render_prometheus(&self, out: &mut String) {
        let s = self.snapshot();
        for (name, kind, help, value) in [
            (
                "sgla_conn_open",
                "gauge",
                "Connections currently open.",
                s.open,
            ),
            (
                "sgla_conn_accepts_total",
                "counter",
                "Connections accepted since start.",
                s.accepts,
            ),
            (
                "sgla_conn_timeouts_total",
                "counter",
                "Connections reaped by the idle timeout.",
                s.timeouts,
            ),
            (
                "sgla_conn_shed_total",
                "counter",
                "Connections shed with a 503 at the connection cap.",
                s.shed,
            ),
            (
                "sgla_conn_read_buf_hwm_bytes",
                "gauge",
                "Largest per-connection read buffer observed.",
                s.read_buf_hwm,
            ),
            (
                "sgla_conn_write_buf_hwm_bytes",
                "gauge",
                "Largest per-connection staged write buffer observed.",
                s.write_buf_hwm,
            ),
        ] {
            scalar(out, name, kind, help, value);
        }
    }
}

/// Appends the pipeline-stage duration histograms collected by
/// `mvag_obs` (one `sgla_stage_duration_us{stage=...}` series per
/// distinct span name) and the worker-pool gauges from the process
/// pool to a Prometheus text page. Stage counters are cumulative
/// since process start and only grow while tracing is enabled.
pub fn render_observability(out: &mut String) {
    header(
        out,
        "sgla_stage_duration_us",
        "histogram",
        "Duration of pipeline stages (training phases and serve request stages), microseconds.",
    );
    for (name, snap) in &mvag_obs::stage_snapshot() {
        histogram(out, "sgla_stage_duration_us", &[("stage", name)], snap);
    }
    let pool = mvag_sparse::pool::WorkerPool::global().stats();
    scalar(
        out,
        "sgla_pool_threads",
        "gauge",
        "Persistent worker-pool threads (resolved size).",
        pool.threads,
    );
    scalar(
        out,
        "sgla_pool_jobs_total",
        "counter",
        "Broadcasts dispatched to the worker pool.",
        pool.jobs,
    );
    scalar(
        out,
        "sgla_pool_inline_jobs_total",
        "counter",
        "Broadcasts run inline (reentrant or single-thread).",
        pool.inline_jobs,
    );
    scalar(
        out,
        "sgla_pool_dispatch_wait_seconds_total",
        "counter",
        "Time the dispatching thread spent waiting for workers to pick up broadcasts.",
        pool.dispatch_wait_ns as f64 / 1e9,
    );
    scalar(
        out,
        "sgla_pool_parks_total",
        "counter",
        "Times a pool worker parked on the condvar.",
        pool.parks,
    );
    scalar(
        out,
        "sgla_pool_unparks_total",
        "counter",
        "Times a parked pool worker was woken.",
        pool.unparks,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloTracker;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new(&[60, 300, 3600])
    }

    #[test]
    fn registry_lookup_and_totals() {
        let r = registry();
        r.record("topk", 0, 5, true, false);
        r.endpoint("cluster").unwrap().record(0, 5, true, false);
        r.record("nope", 0, 5, true, false);
        assert!(r.endpoint("nope").is_none());
        assert_eq!(r.total_requests(), 2);
    }

    #[test]
    fn delta_snapshots_reset_on_read_without_losing_totals() {
        let r = registry();
        let topk = r.endpoint("topk").unwrap();
        topk.record(0, 10, true, false);
        topk.record(0, 10, false, false);
        let (d1, w1) = r.delta_snapshots();
        let topk_d1 = d1.iter().find(|s| s.name == "topk").unwrap();
        assert_eq!(topk_d1.latency_us.count, 2);
        assert_eq!(topk_d1.errors, 1);
        assert!(w1 >= 0.0);
        // Nothing since the reset: the next delta is empty...
        let (d2, _) = r.delta_snapshots();
        let topk_d2 = d2.iter().find(|s| s.name == "topk").unwrap();
        assert_eq!(topk_d2.latency_us.count, 0);
        // ...one more request shows up as exactly one...
        topk.record(0, 10, true, false);
        let (d3, _) = r.delta_snapshots();
        let topk_d3 = d3.iter().find(|s| s.name == "topk").unwrap();
        assert_eq!(topk_d3.latency_us.count, 1);
        assert_eq!(topk_d3.errors, 0);
        assert_eq!(
            topk_d3.latency_us.quantile(0.5),
            16.0,
            "delta histograms work"
        );
        // ...and the cumulative view never lost anything.
        assert_eq!(r.total_requests(), 3);
    }

    #[test]
    fn prometheus_rendering_has_counters_and_histogram() {
        let r = registry();
        r.record("topk", 0, 100, true, false);
        let mut page = String::new();
        r.render_prometheus(&mut page);
        assert!(page.contains("# TYPE sgla_requests_total counter"));
        assert!(page.contains("sgla_requests_total{endpoint=\"topk\"} 1"));
        assert!(page.contains("sgla_request_latency_us_bucket{endpoint=\"topk\",le=\"128\"} 1"));
        assert!(page.contains("sgla_request_latency_us_bucket{endpoint=\"topk\",le=\"+Inf\"} 1"));
        assert!(page.contains("sgla_request_latency_us_sum{endpoint=\"topk\"} 100"));
        assert!(page.contains("sgla_uptime_seconds"));
    }

    #[test]
    fn rendered_page_passes_validation() {
        let r = registry();
        r.record("topk", 0, 100, true, false);
        r.record("embed", 0, 7, false, false);
        let mut page = String::new();
        r.render_prometheus(&mut page);
        render_observability(&mut page);
        validate_prometheus(&page).unwrap();
        assert!(page.contains("# HELP sgla_pool_threads"));
        assert!(page.contains("sgla_pool_threads "));
    }

    /// `(endpoint, now_secs, latency_us, ok)` — a fixed request
    /// sequence spanning 30 seconds, so the 12-second SLO window has
    /// both expired slices and reused slots by the end.
    fn golden_traffic() -> Vec<(&'static str, u64, u64, bool)> {
        let mut t = vec![
            ("topk", 0, 0, true),
            ("topk", 0, 1, true),
            ("topk", 1, 90_000, false),
            ("cluster", 1, 15, true),
            ("cluster", 2, 2_000, false),
            ("embed", 2, 65_536, true),
            ("other", 3, 3, false),
            ("healthz", 3, 40, true),
        ];
        for i in 0..300u64 {
            let ep = ["topk", "topk", "cluster", "embed", "metrics"][(i % 5) as usize];
            let us = 50 + (i * 37) % 400 + if i % 29 == 0 { 5_000 } else { 0 };
            t.push((ep, i / 10, us, i % 17 != 0));
        }
        t
    }

    /// The lines of `page` whose metric family satisfies `keep`.
    fn family_lines(page: &str, keep: impl Fn(&str, &str) -> bool) -> String {
        let mut out = String::new();
        for line in page.lines() {
            let body = line
                .strip_prefix("# HELP ")
                .or_else(|| line.strip_prefix("# TYPE "))
                .unwrap_or(line);
            let name = body.split([' ', '{']).next().unwrap();
            if keep(name, line) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// For a fixed recorded sequence, the endpoint, stage, SLO and
    /// connection families render byte for byte the page in
    /// `tests/data/metrics_golden.prom` (what scrapers and dashboards
    /// parse), and `/stats` quantiles and SLO p99s keep their exact bits.
    #[test]
    fn golden_page_and_stats_are_unchanged() {
        let r = MetricsRegistry::new(&[12, 60, 120]);
        let slo = SloTracker::new(1000, 0.01);
        let traffic = golden_traffic();
        let (first, rest) = traffic.split_at(100);
        for &(ep, now, us, ok) in first {
            r.record(ep, now, us, ok, slo.is_slow(us));
        }
        let (d1, _) = r.delta_snapshots();
        for &(ep, now, us, ok) in rest {
            r.record(ep, now, us, ok, slo.is_slow(us));
        }
        let (d2, _) = r.delta_snapshots();

        // (view, endpoint, requests, errors, mean bits, p50 bits, p99 bits)
        let expected_stats: &[(&str, &str, u64, u64, u64, u64, u64)] = &[
            (
                "cum",
                "healthz",
                1,
                0,
                0x4044000000000000,
                0x4050000000000000,
                0x4050000000000000,
            ),
            ("cum", "health", 0, 0, 0x0, 0x0, 0x0),
            ("cum", "stats", 0, 0, 0x0, 0x0, 0x0),
            (
                "cum",
                "metrics",
                60,
                4,
                0x4079f80000000000,
                0x4070000000000000,
                0x40c0000000000000,
            ),
            ("cum", "artifact", 0, 0, 0x0, 0x0, 0x0),
            (
                "cum",
                "cluster",
                62,
                5,
                0x407b1f39ce739ce7,
                0x40708d3dcb08d3dd,
                0x40c0000000000000,
            ),
            (
                "cum",
                "topk",
                123,
                8,
                0x409268e0c7ce0c7d,
                0x406f96f96f96f970,
                0x40c0000000000000,
            ),
            (
                "cum",
                "embed",
                61,
                3,
                0x40971dc53ef368eb,
                0x40711a7b9611a7b9,
                0x4100000000000000,
            ),
            ("cum", "reload", 0, 0, 0x0, 0x0, 0x0),
            ("cum", "traces", 0, 0, 0x0, 0x0, 0x0),
            ("cum", "version", 0, 0, 0x0, 0x0, 0x0),
            ("cum", "debug", 0, 0, 0x0, 0x0, 0x0),
            (
                "cum",
                "other",
                1,
                1,
                0x4008000000000000,
                0x4010000000000000,
                0x4010000000000000,
            ),
            (
                "d1",
                "healthz",
                1,
                0,
                0x4044000000000000,
                0x4050000000000000,
                0x4050000000000000,
            ),
            ("d1", "health", 0, 0, 0x0, 0x0, 0x0),
            ("d1", "stats", 0, 0, 0x0, 0x0, 0x0),
            (
                "d1",
                "metrics",
                18,
                1,
                0x4080c95555555555,
                0x4070000000000000,
                0x40c0000000000000,
            ),
            ("d1", "artifact", 0, 0, 0x0, 0x0, 0x0),
            (
                "d1",
                "cluster",
                20,
                2,
                0x40816ccccccccccd,
                0x4070000000000000,
                0x40c0000000000000,
            ),
            (
                "d1",
                "topk",
                41,
                4,
                0x40a3d4c7ce0c7ce1,
                0x406d89d89d89d89e,
                0x4100000000000000,
            ),
            (
                "d1",
                "embed",
                19,
                1,
                0x40aed050d79435e5,
                0x40738e38e38e38e4,
                0x4100000000000000,
            ),
            ("d1", "reload", 0, 0, 0x0, 0x0, 0x0),
            ("d1", "traces", 0, 0, 0x0, 0x0, 0x0),
            ("d1", "version", 0, 0, 0x0, 0x0, 0x0),
            ("d1", "debug", 0, 0, 0x0, 0x0, 0x0),
            (
                "d1",
                "other",
                1,
                1,
                0x4008000000000000,
                0x4010000000000000,
                0x4010000000000000,
            ),
            ("d2", "healthz", 0, 0, 0x0, 0x0, 0x0),
            ("d2", "health", 0, 0, 0x0, 0x0, 0x0),
            ("d2", "stats", 0, 0, 0x0, 0x0, 0x0),
            (
                "d2",
                "metrics",
                42,
                3,
                0x4076b5b6db6db6db,
                0x4070000000000000,
                0x40c0000000000000,
            ),
            ("d2", "artifact", 0, 0, 0x0, 0x0, 0x0),
            (
                "d2",
                "cluster",
                42,
                3,
                0x4077712492492492,
                0x4070c30c30c30c31,
                0x40c0000000000000,
            ),
            (
                "d2",
                "topk",
                82,
                4,
                0x407f222576a2576a,
                0x40706bca1af286bd,
                0x40c0000000000000,
            ),
            (
                "d2",
                "embed",
                42,
                2,
                0x4076c73cf3cf3cf4,
                0x4070000000000000,
                0x40c0000000000000,
            ),
            ("d2", "reload", 0, 0, 0x0, 0x0, 0x0),
            ("d2", "traces", 0, 0, 0x0, 0x0, 0x0),
            ("d2", "version", 0, 0, 0x0, 0x0, 0x0),
            ("d2", "debug", 0, 0, 0x0, 0x0, 0x0),
            ("d2", "other", 0, 0, 0x0, 0x0, 0x0),
        ];
        let mut got = Vec::new();
        for (view, snaps) in [("cum", r.snapshots()), ("d1", d1), ("d2", d2)] {
            for s in snaps {
                let h = &s.latency_us;
                got.push((
                    view,
                    s.name,
                    h.count,
                    s.errors,
                    h.mean().to_bits(),
                    h.quantile(0.5).to_bits(),
                    h.quantile(0.99).to_bits(),
                ));
            }
        }
        assert_eq!(got, expected_stats);

        // (endpoint, window, requests, errors, slow, p99 bits) at t=30.
        let expected_windows: &[(&str, &str, u64, u64, u64, u64)] = &[
            ("healthz", "12s", 0, 0, 0, 0x0),
            ("healthz", "1m", 1, 0, 0, 0x4050000000000000),
            ("healthz", "2m", 1, 0, 0, 0x4050000000000000),
            ("metrics", "12s", 22, 2, 0, 0x4080000000000000),
            ("metrics", "1m", 60, 4, 2, 0x40c0000000000000),
            ("metrics", "2m", 60, 4, 2, 0x40c0000000000000),
            ("cluster", "12s", 22, 1, 1, 0x40c0000000000000),
            ("cluster", "1m", 62, 5, 3, 0x40c0000000000000),
            ("cluster", "2m", 62, 5, 3, 0x40c0000000000000),
            ("topk", "12s", 44, 2, 2, 0x40c0000000000000),
            ("topk", "1m", 123, 8, 6, 0x40c0000000000000),
            ("topk", "2m", 123, 8, 6, 0x40c0000000000000),
            ("embed", "12s", 22, 1, 1, 0x40c0000000000000),
            ("embed", "1m", 61, 3, 3, 0x4100000000000000),
            ("embed", "2m", 61, 3, 3, 0x4100000000000000),
            ("other", "12s", 0, 0, 0, 0x0),
            ("other", "1m", 1, 1, 0, 0x4010000000000000),
            ("other", "2m", 1, 1, 0, 0x4010000000000000),
        ];
        let windows = r.slo_snapshot(30);
        let mut got = Vec::new();
        for s in &windows {
            for w in &s.windows {
                got.push((
                    s.name,
                    crate::slo::window_name(w.span_secs),
                    w.requests(),
                    w.errors,
                    w.slow,
                    w.hist.quantile(0.99).to_bits(),
                ));
            }
        }
        let got: Vec<_> = got
            .iter()
            .map(|(a, b, c, d, e, f)| (*a, b.as_str(), *c, *d, *e, *f))
            .collect();
        assert_eq!(got, expected_windows);
        let (status, reasons) = slo.evaluate(&windows);
        assert_eq!(
            format!("{status:?} {reasons:?}"),
            r#"Degraded ["metrics/12s: error rate 0.0909 over objective 0.0100 (burn 9.1)", "metrics/1m: p99 8192us over objective 1000us (burn 3.3)", "metrics/1m: error rate 0.0667 over objective 0.0100 (burn 6.7)", "cluster/12s: p99 8192us over objective 1000us (burn 4.5)", "cluster/12s: error rate 0.0455 over objective 0.0100 (burn 4.5)", "cluster/1m: p99 8192us over objective 1000us (burn 4.8)", "cluster/1m: error rate 0.0806 over objective 0.0100 (burn 8.1)", "topk/12s: p99 8192us over objective 1000us (burn 4.5)", "topk/12s: error rate 0.0455 over objective 0.0100 (burn 4.5)", "topk/1m: p99 8192us over objective 1000us (burn 4.9)", "topk/1m: error rate 0.0650 over objective 0.0100 (burn 6.5)", "embed/12s: p99 8192us over objective 1000us (burn 4.5)", "embed/12s: error rate 0.0455 over objective 0.0100 (burn 4.5)", "embed/1m: p99 131072us over objective 1000us (burn 4.9)", "embed/1m: error rate 0.0492 over objective 0.0100 (burn 4.9)"]"#
        );

        let g = ConnGauges::new();
        for _ in 0..5 {
            g.accepted();
        }
        for _ in 0..4 {
            g.opened();
        }
        g.closed();
        g.timed_out();
        g.shed();
        g.observe_read_buf(512);
        g.observe_read_buf(100);
        g.observe_write_buf(4096);

        mvag_obs::set_enabled(true);
        for d in [0, 1, 5, 900, 900, 70_000] {
            mvag_obs::record(0, "golden.alpha", 0, d, 0);
        }
        for d in [3, 3_000_000] {
            mvag_obs::record(0, "golden.beta", 0, d, 0);
        }
        mvag_obs::set_enabled(false);

        let mut page = String::new();
        r.render_prometheus(&mut page);
        g.render_prometheus(&mut page);
        slo.render_prometheus(&windows, &mut page);
        render_observability(&mut page);
        let golden = family_lines(&page, |name, line| {
            name.starts_with("sgla_request")
                || name.starts_with("sgla_conn_")
                || name.starts_with("sgla_slo_")
                || (name.starts_with("sgla_stage_duration_us")
                    && (line.starts_with('#') || line.contains("stage=\"golden.")))
        });
        assert_eq!(golden, include_str!("../tests/data/metrics_golden.prom"));
    }
}
