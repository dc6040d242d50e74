//! The one metrics primitive of the workspace: a log₂-bucketed atomic
//! [`Histogram`], its rolling-window form ([`Window`]), and the
//! Prometheus text-format writer ([`header`], [`sample`], [`scalar`],
//! [`histogram`]) plus its validator ([`validate_prometheus`]).
//!
//! Every latency and duration series the serve layer exports is built
//! on these: per-endpoint request latency, the span-stage histograms,
//! the SLO windows, and compaction run durations. Recording is three
//! relaxed atomic adds; quantiles are read from a [`HistSnapshot`] by
//! linear interpolation inside the winning bucket, which is accurate to
//! well under a factor of 2.

use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Log₂ buckets per histogram: bucket `i` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 also absorbs 0); the last bucket is
/// open-ended (≥ 2^35 — about 9.5 hours in microseconds).
pub const BUCKETS: usize = 36;

/// The bucket a value falls in: `floor(log₂ value)`, clamped to the
/// bucket range.
pub(crate) fn bucket_of(value: u64) -> usize {
    ((63 - value.max(1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Atomic log₂ histogram: per-bucket counts plus total count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (`const`, so process-wide histograms can be
    /// plain `static`s).
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (relaxed loads; a
    /// concurrent record may show in one field and not yet another).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Mean observed value (0 with no observations).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the winning bucket; 0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                let lo = (1u64 << i) as f64;
                let frac = (rank - seen) as f64 / count as f64;
                return lo + frac * lo; // bucket spans [2^i, 2^(i+1))
            }
            seen += count;
        }
        (1u64 << (BUCKETS - 1)) as f64
    }

    /// The observations made since `baseline` was taken (element-wise
    /// saturating subtraction).
    pub fn delta_since(&self, baseline: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(baseline.buckets[i])),
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
        }
    }

    /// Folds `other` into `self` (element-wise sum).
    pub fn add(&mut self, other: &HistSnapshot) {
        for (acc, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Slices per rolling [`Window`]: the window forgets a slice's worth of
/// history at a time, so its resolution is `span / SLICES`.
const SLICES: usize = 12;

/// One time slice of a [`Window`]. `epoch` tags which slice interval
/// the counters describe; a reused slot is reset lazily by the first
/// recorder of the new interval. Races around the reset can undercount
/// an observation or two — window gauges, not billing.
#[derive(Debug)]
struct Slice {
    epoch: AtomicU64,
    hist: Histogram,
    errors: AtomicU64,
    slow: AtomicU64,
}

/// A rolling window of request outcomes: a ring of 12
/// epoch-tagged slices, each holding a [`Histogram`] of latencies plus
/// error and slow counters. Stale slices are reset when their slot is
/// reused, so no sweeper thread is needed. Time is supplied by the
/// caller (monotonic seconds), which keeps tests deterministic.
#[derive(Debug)]
pub struct Window {
    span_secs: u64,
    slice_secs: u64,
    slices: [Slice; SLICES],
}

impl Window {
    /// A window spanning `span_secs` seconds (at least 1).
    pub fn new(span_secs: u64) -> Window {
        let span_secs = span_secs.max(1);
        Window {
            span_secs,
            slice_secs: (span_secs / SLICES as u64).max(1),
            slices: std::array::from_fn(|_| Slice {
                epoch: AtomicU64::new(u64::MAX),
                hist: Histogram::new(),
                errors: AtomicU64::new(0),
                slow: AtomicU64::new(0),
            }),
        }
    }

    /// Records one request at `now_secs`: its latency, whether it
    /// succeeded, and whether the caller classed it as slow.
    pub fn record(&self, now_secs: u64, latency: u64, ok: bool, slow: bool) {
        let epoch = now_secs / self.slice_secs;
        let slice = &self.slices[(epoch % SLICES as u64) as usize];
        if slice.epoch.load(Ordering::Relaxed) != epoch {
            slice.hist.reset();
            slice.errors.store(0, Ordering::Relaxed);
            slice.slow.store(0, Ordering::Relaxed);
            slice.epoch.store(epoch, Ordering::Relaxed);
        }
        slice.hist.record(latency);
        if !ok {
            slice.errors.fetch_add(1, Ordering::Relaxed);
        }
        if slow {
            slice.slow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Aggregates the slices that fall inside the window ending at
    /// `now_secs`.
    pub fn snapshot(&self, now_secs: u64) -> WindowSnapshot {
        let current = now_secs / self.slice_secs;
        let oldest = current.saturating_sub(SLICES as u64 - 1);
        let mut snap = WindowSnapshot {
            span_secs: self.span_secs,
            hist: HistSnapshot::default(),
            errors: 0,
            slow: 0,
        };
        for slice in &self.slices {
            let epoch = slice.epoch.load(Ordering::Relaxed);
            if epoch < oldest || epoch > current {
                continue; // stale (or never-used) slot
            }
            snap.hist.add(&slice.hist.snapshot());
            snap.errors += slice.errors.load(Ordering::Relaxed);
            snap.slow += slice.slow.load(Ordering::Relaxed);
        }
        snap
    }
}

/// Point-in-time aggregate of one [`Window`].
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Window span in seconds.
    pub span_secs: u64,
    /// Latencies recorded inside the window.
    pub hist: HistSnapshot,
    /// Failed requests inside the window.
    pub errors: u64,
    /// Requests the recorder classed as slow.
    pub slow: u64,
}

impl WindowSnapshot {
    /// Requests recorded inside the window.
    pub fn requests(&self) -> u64 {
        self.hist.count
    }

    /// Fraction of requests that failed (0 with no traffic).
    pub fn error_rate(&self) -> f64 {
        self.rate(self.errors)
    }

    /// Fraction of requests classed as slow (0 with no traffic).
    pub fn slow_rate(&self) -> f64 {
        self.rate(self.slow)
    }

    fn rate(&self, part: u64) -> f64 {
        if self.hist.count == 0 {
            0.0
        } else {
            part as f64 / self.hist.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Writes a family's `# HELP` and `# TYPE` lines.
pub fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Writes one sample line, `name{labels} value` (no braces without
/// labels).
pub fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl Display) {
    sample_with_le(out, name, labels, None, value);
}

/// Writes a single-sample family: header plus one unlabelled sample.
pub fn scalar(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    header(out, name, kind, help);
    sample(out, name, &[], value);
}

/// Writes one histogram series (the family header is written once by
/// the caller): the touched `_bucket` lines plus the last finite
/// bucket as the tail, `le="+Inf"`, `_sum` and `_count`. Bucket `i`'s
/// upper bound is `le = 2^(i+1)`.
pub fn histogram(out: &mut String, name: &str, labels: &[(&str, &str)], snap: &HistSnapshot) {
    let bucket = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate() {
        cumulative += count;
        if count == 0 && i + 1 != BUCKETS {
            continue; // keep the page small: touched buckets + the tail
        }
        let le = (1u128 << (i + 1)).to_string();
        sample_with_le(out, &bucket, labels, Some(&le), cumulative);
    }
    sample_with_le(out, &bucket, labels, Some("+Inf"), cumulative);
    sample(out, &format!("{name}_sum"), labels, snap.sum);
    sample(out, &format!("{name}_count"), labels, snap.count);
}

fn sample_with_le(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    le: Option<&str>,
    value: impl Display,
) {
    out.push_str(name);
    let mut sep = '{';
    for (key, val) in labels.iter().copied().chain(le.map(|le| ("le", le))) {
        let _ = write!(out, "{sep}{key}=\"{val}\"");
        sep = ',';
    }
    if sep == ',' {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Validates a Prometheus text-exposition page:
///
/// * every sample's metric family is preceded by a `# TYPE` line;
/// * histogram `_bucket` series have strictly increasing `le` bounds
///   with non-decreasing cumulative counts, end in `le="+Inf"`, and
///   the `+Inf` count equals the family's `_count` sample;
/// * every `# TYPE`d family carries a `# HELP`.
///
/// # Errors
/// A human-readable description of the first violation found.
pub fn validate_prometheus(page: &str) -> std::result::Result<(), String> {
    use std::collections::{BTreeMap, HashMap, HashSet};
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    // (family, labels-without-le) → ordered (le, cumulative count).
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    for (lineno, line) in page.lines().enumerate() {
        let where_ = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                return Err(where_("malformed # TYPE line".into()));
            };
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some(name) = rest.split_whitespace().next() else {
                return Err(where_("malformed # HELP line".into()));
            };
            helps.insert(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment
        }
        // Sample: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| where_("sample line without a value".into()))?;
        let value: f64 = value
            .parse()
            .map_err(|_| where_(format!("unparsable sample value '{value}'")))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| where_("unterminated label set".into()))?;
                (n, labels)
            }
            None => (name_labels, ""),
        };
        // Resolve the family: histogram sample suffixes collapse.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(where_(format!("sample '{name}' has no preceding # TYPE")));
        }
        let base_labels: String = labels
            .split(',')
            .filter(|l| !l.starts_with("le=") && !l.is_empty())
            .collect::<Vec<_>>()
            .join(",");
        let key = (family.to_string(), base_labels);
        if name.ends_with("_bucket") && types.get(family).map(String::as_str) == Some("histogram") {
            let le_raw = labels
                .split(',')
                .find_map(|l| l.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')))
                .ok_or_else(|| where_(format!("bucket sample '{name}' without le label")))?;
            let le = if le_raw == "+Inf" {
                f64::INFINITY
            } else {
                le_raw
                    .parse()
                    .map_err(|_| where_(format!("unparsable le bound '{le_raw}'")))?
            };
            buckets.entry(key).or_default().push((le, value));
        } else if name.ends_with("_count")
            && types.get(family).map(String::as_str) == Some("histogram")
        {
            counts.insert(key, value);
        }
    }
    for ((family, labels), series) in &buckets {
        let label = if labels.is_empty() {
            family.clone()
        } else {
            format!("{family}{{{labels}}}")
        };
        for pair in series.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(format!("{label}: le bounds not increasing"));
            }
            if pair[1].1 < pair[0].1 {
                return Err(format!("{label}: bucket counts not cumulative"));
            }
        }
        let Some(&(last_le, last_count)) = series.last() else {
            continue;
        };
        if !last_le.is_infinite() {
            return Err(format!("{label}: histogram missing le=\"+Inf\" bucket"));
        }
        match counts.get(&(family.clone(), labels.clone())) {
            Some(&count) if count == last_count => {}
            Some(&count) => {
                return Err(format!(
                    "{label}: +Inf bucket {last_count} != _count {count}"
                ))
            }
            None => return Err(format!("{label}: histogram without a _count sample")),
        }
    }
    if let Some(family) = types.keys().find(|family| !helps.contains(*family)) {
        return Err(format!("{family}: family without # HELP"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_recorded_latency() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100);
        }
        h.record(90_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 101);
        assert_eq!(snap.sum, 100 * 100 + 90_000);
        let p50 = snap.quantile(0.5);
        assert!((64.0..256.0).contains(&p50), "p50 = {p50}");
        let p999 = snap.quantile(0.999);
        assert!(p999 >= 65_536.0, "p99.9 = {p999}");
        assert!(snap.mean() > 100.0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistSnapshot::default());
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn delta_and_add_are_inverse() {
        let h = Histogram::new();
        h.record(10);
        let base = h.snapshot();
        h.record(10);
        h.record(3000);
        let now = h.snapshot();
        let delta = now.delta_since(&base);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 3010);
        assert_eq!(delta.buckets[bucket_of(10)], 1);
        assert_eq!(delta.quantile(0.5), 16.0);
        let mut rebuilt = base.clone();
        rebuilt.add(&delta);
        assert_eq!(rebuilt, now);
        // A fresh baseline of zeros yields the cumulative view.
        assert_eq!(now.delta_since(&HistSnapshot::default()), now);
    }

    #[test]
    fn window_expires_old_slices_and_resets_reused_slot() {
        // 12s window → 1s slices.
        let w = Window::new(12);
        w.record(0, 100, false, false);
        w.record(5, 2000, true, true);
        w.record(11, 7, true, false);
        let snap = w.snapshot(11);
        assert_eq!(snap.span_secs, 12);
        assert_eq!(snap.requests(), 3);
        assert_eq!((snap.errors, snap.slow), (1, 1));
        assert_eq!(snap.hist.sum, 2107);
        // At t=12 the t=0 slice is older than the span and drops out.
        let snap = w.snapshot(12);
        assert_eq!(snap.requests(), 2);
        assert_eq!(snap.errors, 0);
        // t=12 reuses t=0's slot: the first record resets it.
        w.record(12, 50, true, false);
        let snap = w.snapshot(12);
        assert_eq!(snap.requests(), 3);
        assert_eq!(snap.hist.sum, 2057);
        assert_eq!(snap.errors, 0);
        assert!((snap.slow_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Long after, everything has aged out.
        let idle = w.snapshot(100);
        assert_eq!(idle.requests(), 0);
        assert_eq!(idle.error_rate(), 0.0);
        assert_eq!(idle.hist.quantile(0.99), 0.0);
    }

    #[test]
    fn writer_renders_families() {
        let h = Histogram::new();
        h.record(100);
        let mut page = String::new();
        scalar(&mut page, "x_up", "gauge", "Up.", 1);
        header(&mut page, "x_lat_us", "histogram", "Latency.");
        histogram(&mut page, "x_lat_us", &[("endpoint", "a")], &h.snapshot());
        histogram(&mut page, "x_lat_us", &[], &HistSnapshot::default());
        validate_prometheus(&page).unwrap();
        assert!(page.starts_with("# HELP x_up Up.\n# TYPE x_up gauge\nx_up 1\n"));
        assert!(page.contains("x_lat_us_bucket{endpoint=\"a\",le=\"128\"} 1\n"));
        assert!(page.contains("x_lat_us_bucket{endpoint=\"a\",le=\"68719476736\"} 1\n"));
        assert!(page.contains("x_lat_us_sum{endpoint=\"a\"} 100\n"));
        assert!(page.contains("x_lat_us_bucket{le=\"+Inf\"} 0\nx_lat_us_sum 0\nx_lat_us_count 0\n"));
    }

    #[test]
    fn validator_rejects_violations() {
        // Sample before its TYPE line.
        let page = "sgla_x_total 1\n# TYPE sgla_x_total counter\n";
        assert!(validate_prometheus(page).unwrap_err().contains("# TYPE"));
        // Non-cumulative buckets.
        let page = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                    h_count 5\nh_sum 9\n";
        assert!(validate_prometheus(page)
            .unwrap_err()
            .contains("cumulative"));
        // +Inf bucket disagrees with _count.
        let page = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 6\nh_sum 9\n";
        assert!(validate_prometheus(page).unwrap_err().contains("_count"));
        // Missing +Inf bucket entirely.
        let page = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 9\n";
        assert!(validate_prometheus(page).unwrap_err().contains("+Inf"));
        // Observability family without HELP.
        let page = "# TYPE sgla_pool_threads gauge\nsgla_pool_threads 4\n";
        assert!(validate_prometheus(page).unwrap_err().contains("# HELP"));
        // Any other family without HELP: every TYPE'd family needs one.
        let page = "# TYPE sgla_cache_hits_total counter\nsgla_cache_hits_total 1\n";
        assert!(validate_prometheus(page).unwrap_err().contains("# HELP"));
        let page = "# HELP sgla_cache_hits_total Hits.\n\
                    # TYPE sgla_cache_hits_total counter\nsgla_cache_hits_total 1\n";
        validate_prometheus(page).unwrap();
    }
}
