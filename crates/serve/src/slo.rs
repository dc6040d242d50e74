//! Rolling SLO windows and the `/health` readiness state machine.
//!
//! Tracks per-endpoint latency and error rate over three rolling
//! windows (1m/5m/1h by default, tunable for tests) against two
//! configured objectives: a p99 latency bound (`--slo-p99-us`) and an
//! error-rate budget (`--slo-error-rate`). The windows themselves are
//! [`mvag_obs::metrics::Window`]s held in each endpoint's metrics
//! record, so a request is recorded once for `/stats`, `/metrics` and
//! the SLO; this module classifies requests as slow at record time and
//! judges the window snapshots.
//!
//! Two *burn rates* are derived per window, both "fraction of budget
//! consumed per unit of budget allowed" in the SRE sense:
//!
//! * **error burn** = observed error rate ÷ `--slo-error-rate`;
//! * **latency burn** = fraction of requests slower than the p99
//!   objective ÷ 1% (the tail a p99 objective permits by definition).
//!
//! A burn of 1.0 means the service is consuming its budget exactly as
//! fast as allowed; `GET /health` degrades when either burn exceeds
//! 1.0 in a short window (with at least [`MIN_SAMPLES`] requests) and
//! goes unhealthy at [`FAST_BURN`]× — the classic fast-burn page
//! threshold. Objectives left at 0 are disabled and never degrade the
//! service; background-task state (reload failures, running
//! compactions, tombstone debt) is folded in by the HTTP layer.

use mvag_obs::metrics::{header, sample, scalar, WindowSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum requests in a window before it can declare a violation —
/// one slow request on an idle server is noise, not an incident.
pub const MIN_SAMPLES: u64 = 20;

/// Burn-rate multiple at which `/health` turns `unhealthy` rather
/// than `degraded` (the SRE fast-burn paging threshold).
pub const FAST_BURN: f64 = 14.0;

/// Pretty window label: `60 → "1m"`, `3600 → "1h"`, else `"{n}s"`.
pub(crate) fn window_name(span_secs: u64) -> String {
    if span_secs.is_multiple_of(3600) && span_secs > 0 {
        format!("{}h", span_secs / 3600)
    } else if span_secs.is_multiple_of(60) && span_secs > 0 {
        format!("{}m", span_secs / 60)
    } else {
        format!("{span_secs}s")
    }
}

/// Per-endpoint SLO snapshot, windows in configured order.
#[derive(Debug, Clone)]
pub struct EndpointSloSnapshot {
    /// Endpoint label (same names as `/stats`).
    pub name: &'static str,
    /// One aggregate per rolling window.
    pub windows: Vec<WindowSnapshot>,
}

/// Health state reported by `GET /health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// All objectives met, no background-task trouble.
    Ok,
    /// An objective is violated or a background task needs attention;
    /// the server still answers correctly.
    Degraded,
    /// Burning budget at the fast-burn rate — stop sending traffic.
    Unhealthy,
}

impl HealthStatus {
    /// Wire label (`"ok"` / `"degraded"` / `"unhealthy"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// SLO objectives and the burn-rate state machine over the rolling
/// windows each endpoint record keeps
/// ([`MetricsRegistry::slo_snapshot`](crate::metrics::MetricsRegistry::slo_snapshot)).
///
/// Objectives are live-tunable (`PUT /debug/slo`): the p99 bound is
/// consulted *at record time* to classify a request as slow
/// ([`SloTracker::is_slow`]), so a tightened objective applies to
/// traffic from that moment on.
pub struct SloTracker {
    objective_p99_us: AtomicU64,
    /// Error budget in parts-per-million (atomic live-tunable f64).
    objective_error_ppm: AtomicU64,
}

impl SloTracker {
    /// Builds a tracker with the given objectives (0 disables either).
    pub fn new(p99_us: u64, error_rate: f64) -> SloTracker {
        SloTracker {
            objective_p99_us: AtomicU64::new(p99_us),
            objective_error_ppm: AtomicU64::new(rate_to_ppm(error_rate)),
        }
    }

    /// The p99 latency objective in microseconds (0 = disabled).
    pub fn objective_p99_us(&self) -> u64 {
        self.objective_p99_us.load(Ordering::Relaxed)
    }

    /// Replaces the p99 latency objective (live).
    pub fn set_objective_p99_us(&self, p99_us: u64) {
        self.objective_p99_us.store(p99_us, Ordering::Relaxed);
    }

    /// The error-rate objective as a fraction (0.0 = disabled).
    pub fn objective_error_rate(&self) -> f64 {
        self.objective_error_ppm.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Replaces the error-rate objective (live; clamped to `[0, 1]`).
    pub fn set_objective_error_rate(&self, rate: f64) {
        self.objective_error_ppm
            .store(rate_to_ppm(rate), Ordering::Relaxed);
    }

    /// Whether a request of `latency_us` breaks the p99 objective in
    /// force now (never, when the objective is disabled).
    pub fn is_slow(&self, latency_us: u64) -> bool {
        let p99 = self.objective_p99_us();
        p99 > 0 && latency_us > p99
    }

    /// Error-budget burn for a window: observed error rate ÷
    /// objective (0.0 when the objective is disabled).
    pub fn error_burn(&self, window: &WindowSnapshot) -> f64 {
        let objective = self.objective_error_rate();
        if objective <= 0.0 {
            0.0
        } else {
            window.error_rate() / objective
        }
    }

    /// Latency-budget burn for a window: fraction of requests over
    /// the p99 objective ÷ the 1% a p99 objective allows (0.0 when
    /// the objective is disabled).
    pub fn latency_burn(&self, window: &WindowSnapshot) -> f64 {
        if self.objective_p99_us() == 0 {
            0.0
        } else {
            window.slow_rate() / 0.01
        }
    }

    /// Evaluates the SLO state machine over the two shortest windows
    /// of every endpoint with enough traffic. Returns the worst status
    /// plus one human-readable reason per violation.
    pub fn evaluate(&self, endpoints: &[EndpointSloSnapshot]) -> (HealthStatus, Vec<String>) {
        let mut status = HealthStatus::Ok;
        let mut reasons = Vec::new();
        for snap in endpoints {
            for window in snap.windows.iter().take(2) {
                if window.requests() < MIN_SAMPLES {
                    continue;
                }
                let latency_burn = self.latency_burn(window);
                let error_burn = self.error_burn(window);
                if latency_burn > 1.0 {
                    reasons.push(format!(
                        "{}/{}: p99 {:.0}us over objective {}us (burn {:.1})",
                        snap.name,
                        window_name(window.span_secs),
                        window.hist.quantile(0.99),
                        self.objective_p99_us(),
                        latency_burn
                    ));
                }
                if error_burn > 1.0 {
                    reasons.push(format!(
                        "{}/{}: error rate {:.4} over objective {:.4} (burn {:.1})",
                        snap.name,
                        window_name(window.span_secs),
                        window.error_rate(),
                        self.objective_error_rate(),
                        error_burn
                    ));
                }
                let worst_burn = latency_burn.max(error_burn);
                let level = if worst_burn >= FAST_BURN {
                    HealthStatus::Unhealthy
                } else if worst_burn > 1.0 {
                    HealthStatus::Degraded
                } else {
                    HealthStatus::Ok
                };
                status = status.max(level);
            }
        }
        (status, reasons)
    }

    /// Appends the `sgla_slo_*` families to a Prometheus text page.
    /// Objective gauges always render (so the families are present on
    /// an idle server); per-endpoint series render for the endpoints in
    /// `endpoints` (those with traffic).
    pub fn render_prometheus(&self, endpoints: &[EndpointSloSnapshot], out: &mut String) {
        scalar(
            out,
            "sgla_slo_objective_p99_us",
            "gauge",
            "Configured p99 objective (0 = off).",
            self.objective_p99_us(),
        );
        scalar(
            out,
            "sgla_slo_objective_error_rate",
            "gauge",
            "Configured error-rate objective (0 = off).",
            self.objective_error_rate(),
        );
        // Per window: requests, p99, error rate, worst burn — one
        // family each, in that order.
        let rows: Vec<(&str, String, [f64; 4])> = endpoints
            .iter()
            .flat_map(|s| {
                s.windows.iter().map(move |w| {
                    let burn = self.error_burn(w).max(self.latency_burn(w));
                    let values = [
                        w.requests() as f64,
                        w.hist.quantile(0.99),
                        w.error_rate(),
                        burn,
                    ];
                    (s.name, window_name(w.span_secs), values)
                })
            })
            .collect();
        let families = [
            (
                "sgla_slo_window_requests",
                "Requests inside each rolling window.",
            ),
            (
                "sgla_slo_p99_us",
                "Estimated p99 latency per rolling window.",
            ),
            ("sgla_slo_error_rate", "Error rate per rolling window."),
            (
                "sgla_slo_burn_rate",
                "Worst budget burn (error or latency) per window; 1.0 consumes the budget \
                 exactly as fast as allowed.",
            ),
        ];
        for (k, (name, help)) in families.into_iter().enumerate() {
            header(out, name, "gauge", help);
            for (endpoint, window, values) in &rows {
                sample(
                    out,
                    name,
                    &[("endpoint", endpoint), ("window", window)],
                    values[k],
                );
            }
        }
    }
}

fn rate_to_ppm(rate: f64) -> u64 {
    (rate.clamp(0.0, 1.0) * 1e6).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    /// A tracker plus the endpoint records whose windows it judges.
    struct Rig {
        slo: SloTracker,
        metrics: MetricsRegistry,
    }

    impl Rig {
        fn record(&self, endpoint: &str, now_secs: u64, latency_us: u64, ok: bool) {
            let slow = self.slo.is_slow(latency_us);
            self.metrics
                .record(endpoint, now_secs, latency_us, ok, slow);
        }

        fn snapshot(&self, now_secs: u64) -> Vec<EndpointSloSnapshot> {
            self.metrics.slo_snapshot(now_secs)
        }

        fn evaluate(&self, now_secs: u64) -> (HealthStatus, Vec<String>) {
            self.slo.evaluate(&self.snapshot(now_secs))
        }
    }

    fn tracker(p99_us: u64, error_rate: f64) -> Rig {
        // 12s/60s/120s windows: slices of 1s/5s/10s.
        Rig {
            slo: SloTracker::new(p99_us, error_rate),
            metrics: MetricsRegistry::new(&[12, 60, 120]),
        }
    }

    #[test]
    fn objectives_are_live_tunable() {
        let t = SloTracker::new(0, 0.0);
        assert_eq!(t.objective_p99_us(), 0);
        assert!(!t.is_slow(1_000_000));
        t.set_objective_p99_us(5000);
        t.set_objective_error_rate(0.05);
        assert_eq!(t.objective_p99_us(), 5000);
        assert!(t.is_slow(5001) && !t.is_slow(5000));
        assert!((t.objective_error_rate() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn window_aggregates_and_p99() {
        let t = tracker(1000, 0.0);
        for i in 0..100 {
            t.record("topk", 5, 100, i % 10 != 0); // 10% errors
        }
        t.record("topk", 5, 50_000, true); // one outlier over objective
        let snap = t.snapshot(5);
        let topk = snap.iter().find(|s| s.name == "topk").unwrap();
        let w = &topk.windows[0];
        assert_eq!(w.requests(), 101);
        assert_eq!(w.errors, 10);
        assert_eq!(w.slow, 1);
        assert!(w.hist.quantile(0.99) >= 64.0);
        assert!((w.error_rate() - 10.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_objectives_never_degrade() {
        let t = tracker(0, 0.0);
        for _ in 0..100 {
            t.record("topk", 5, 1_000_000, false); // slow AND erroring
        }
        let (status, reasons) = t.evaluate(5);
        assert_eq!(status, HealthStatus::Ok);
        assert!(reasons.is_empty());
    }

    #[test]
    fn injected_latency_degrades_then_recovers() {
        let t = tracker(1000, 0.0);
        // Healthy traffic at t=0..3s.
        for s in 0..3 {
            for _ in 0..30 {
                t.record("topk", s, 100, true);
            }
        }
        assert_eq!(t.evaluate(3).0, HealthStatus::Ok);
        // Injected latency at t=4s: every request blows the objective
        // (latency burn 100 ≥ FAST_BURN ⇒ unhealthy, not merely
        // degraded — the budget is burning 100× too fast).
        for _ in 0..30 {
            t.record("topk", 4, 50_000, true);
        }
        let (status, reasons) = t.evaluate(4);
        assert_eq!(status, HealthStatus::Unhealthy);
        assert!(!reasons.is_empty());
        // A *mild* overshoot is degraded: fresh tracker, 2% slow.
        let t2 = tracker(1000, 0.0);
        for i in 0..100 {
            t2.record("topk", 4, if i % 50 == 0 { 50_000 } else { 100 }, true);
        }
        assert_eq!(t2.evaluate(4).0, HealthStatus::Degraded);
        // Recovery: both evaluated windows (12s and 60s) forget the
        // bad slices once time moves past them; healthy traffic
        // meanwhile.
        for s in 65..68 {
            for _ in 0..30 {
                t.record("topk", s, 100, true);
            }
        }
        assert_eq!(t.evaluate(68).0, HealthStatus::Ok, "bad slices aged out");
    }

    #[test]
    fn error_burn_trips_on_error_budget() {
        let t = tracker(0, 0.01);
        for i in 0..100 {
            t.record("embed", 2, 100, i % 20 != 0); // 5% errors, 5x burn
        }
        let (status, reasons) = t.evaluate(2);
        assert_eq!(status, HealthStatus::Degraded);
        assert!(reasons.iter().any(|r| r.contains("error rate")));
        // 100% errors: 100x burn ⇒ unhealthy.
        let t2 = tracker(0, 0.01);
        for _ in 0..50 {
            t2.record("embed", 2, 100, false);
        }
        assert_eq!(t2.evaluate(2).0, HealthStatus::Unhealthy);
    }

    #[test]
    fn below_min_samples_is_quiet() {
        let t = tracker(1000, 0.0);
        for _ in 0..(MIN_SAMPLES - 1) {
            t.record("topk", 2, 1_000_000, true);
        }
        assert_eq!(t.evaluate(2).0, HealthStatus::Ok);
    }

    #[test]
    fn render_is_valid_prometheus() {
        let t = tracker(1000, 0.01);
        for _ in 0..30 {
            t.record("topk", 2, 100, true);
        }
        let mut page = String::new();
        t.slo.render_prometheus(&t.snapshot(2), &mut page);
        crate::metrics::validate_prometheus(&page).unwrap();
        assert!(page.contains("sgla_slo_objective_p99_us 1000"));
        assert!(page.contains("sgla_slo_p99_us{endpoint=\"topk\",window=\"12s\"}"));
        assert!(page.contains("sgla_slo_burn_rate"));
    }

    #[test]
    fn window_names_are_pretty() {
        assert_eq!(window_name(60), "1m");
        assert_eq!(window_name(300), "5m");
        assert_eq!(window_name(3600), "1h");
        assert_eq!(window_name(12), "12s");
    }
}
