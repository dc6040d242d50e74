//! Synthetic generators for multi-view attributed graphs.
//!
//! The paper's eight datasets are real-world MVAGs that are not
//! redistributable here; per the reproduction's substitution policy
//! (the deviations are listed in `mvag_data::registry`) we generate
//! synthetic views that match each dataset's
//! *shape*: node count, per-view edge density, attribute dimensionality and
//! kind, cluster count — plus per-view **informativeness imbalance**, the
//! property SGLA's weighting actually exploits (cf. the paper's Figure 2,
//! where each single view reveals only part of the cluster structure).
//!
//! * [`sbm`] — (degree-corrected) stochastic block model graph views with
//!   an `informative_fraction` knob that scrambles the community signal for
//!   a random subset of nodes, making a view partially informative;
//! * [`gaussian_attributes`] / [`binary_attributes`] — numerical and
//!   categorical attribute views (Figure 1's `X₄` and `X₃` kinds);
//! * label helpers for planted partitions.
//!
//! Edge sampling uses geometric skipping (`O(expected edges)`), so
//! million-edge views are generated in milliseconds rather than `O(n²)`.

use crate::{DeltaEdit, Graph, GraphError, Mvag, MvagDelta, Result, View, ViewDelta};
use mvag_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for a stochastic-block-model graph view.
#[derive(Debug, Clone)]
pub struct SbmConfig {
    /// Within-community edge probability.
    pub p_in: f64,
    /// Cross-community edge probability.
    pub p_out: f64,
    /// Fraction of nodes whose community membership this view "sees";
    /// the remaining nodes get view-local random communities (partially
    /// informative views, the situation in the paper's Fig. 2). `1.0`
    /// makes a fully informative view.
    pub informative_fraction: f64,
    /// Degree-correction spread: node propensities θ are sampled from a
    /// truncated Pareto in `[1/spread, spread]` and normalized to mean 1.
    /// `1.0` disables degree correction (plain SBM).
    pub degree_spread: f64,
}

impl Default for SbmConfig {
    fn default() -> Self {
        SbmConfig {
            p_in: 0.1,
            p_out: 0.01,
            informative_fraction: 1.0,
            degree_spread: 1.0,
        }
    }
}

/// Generates an SBM graph view for the given planted labels.
///
/// # Errors
/// [`GraphError::InvalidArgument`] for empty labels, probabilities outside
/// `[0, 1]`, or invalid fractions/spreads.
pub fn sbm(labels: &[usize], cfg: &SbmConfig, seed: u64) -> Result<Graph> {
    let n = labels.len();
    if n == 0 {
        return Err(GraphError::InvalidArgument("sbm with 0 nodes".into()));
    }
    for &p in &[cfg.p_in, cfg.p_out] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidArgument(format!(
                "sbm probability {p} outside [0, 1]"
            )));
        }
    }
    if !(0.0..=1.0).contains(&cfg.informative_fraction) {
        return Err(GraphError::InvalidArgument(
            "informative_fraction outside [0, 1]".into(),
        ));
    }
    if cfg.degree_spread < 1.0 {
        return Err(GraphError::InvalidArgument(
            "degree_spread must be >= 1".into(),
        ));
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut rng = StdRng::seed_from_u64(seed);

    // View-local labels: scramble the uninformative share.
    let mut view_labels = labels.to_vec();
    if cfg.informative_fraction < 1.0 && k > 0 {
        for vl in view_labels.iter_mut() {
            if rng.gen::<f64>() > cfg.informative_fraction {
                *vl = rng.gen_range(0..k);
            }
        }
    }

    // Degree propensities.
    let thetas: Vec<f64> = if cfg.degree_spread > 1.0 {
        let lo = 1.0 / cfg.degree_spread;
        let hi = cfg.degree_spread;
        let alpha = 2.5; // Pareto tail exponent
        let mut t: Vec<f64> = (0..n)
            .map(|_| {
                // Inverse-CDF truncated Pareto on [lo, hi].
                let u: f64 = rng.gen();
                let a = lo.powf(-alpha + 1.0);
                let b = hi.powf(-alpha + 1.0);
                (a + u * (b - a)).powf(1.0 / (-alpha + 1.0))
            })
            .collect();
        let mean: f64 = t.iter().sum::<f64>() / n as f64;
        for x in t.iter_mut() {
            *x /= mean;
        }
        t
    } else {
        vec![1.0; n]
    };
    let theta_max = thetas.iter().fold(1.0f64, |m, &t| m.max(t));

    // Group nodes by view-local community.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k.max(1)];
    for (u, &c) in view_labels.iter().enumerate() {
        groups[c].push(u);
    }

    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for a in 0..groups.len() {
        for b in a..groups.len() {
            let base = if a == b { cfg.p_in } else { cfg.p_out };
            if base <= 0.0 {
                continue;
            }
            let p_bound = (base * theta_max * theta_max).min(1.0);
            if a == b {
                let s = groups[a].len();
                let total = s * (s.saturating_sub(1)) / 2;
                sample_pairs(total, p_bound, &mut rng, |idx, rng| {
                    let (i, j) = tri_decode(idx, s);
                    let (u, v) = (groups[a][i], groups[a][j]);
                    let accept = base * thetas[u] * thetas[v] / p_bound;
                    if rng.gen::<f64>() < accept.min(1.0) {
                        edges.push((u, v, 1.0));
                    }
                });
            } else {
                let (sa, sb) = (groups[a].len(), groups[b].len());
                let total = sa * sb;
                sample_pairs(total, p_bound, &mut rng, |idx, rng| {
                    let (u, v) = (groups[a][idx / sb], groups[b][idx % sb]);
                    let accept = base * thetas[u] * thetas[v] / p_bound;
                    if rng.gen::<f64>() < accept.min(1.0) {
                        edges.push((u, v, 1.0));
                    }
                });
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Iterates the indices of a Bernoulli(`p`) subset of `0..total` using
/// geometric skipping — `O(p · total)` expected work.
fn sample_pairs<F: FnMut(usize, &mut StdRng)>(total: usize, p: f64, rng: &mut StdRng, mut f: F) {
    if total == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for idx in 0..total {
            f(idx, rng);
        }
        return;
    }
    let log_q = (1.0 - p).ln();
    let mut idx: i64 = -1;
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-300);
        let jump = (u.ln() / log_q).floor() as i64 + 1;
        idx += jump.max(1);
        if idx as usize >= total {
            break;
        }
        f(idx as usize, rng);
    }
}

/// Decodes a linear index into the `(i, j)` pair with `i < j < s`
/// (row-major upper triangle).
fn tri_decode(idx: usize, s: usize) -> (usize, usize) {
    debug_assert!(s >= 2);
    // Row i starts at offset c(i) = i*s - i*(i+1)/2 - i ... solve by float
    // estimate then correct.
    let idx_f = idx as f64;
    let s_f = s as f64;
    let disc = ((2.0 * s_f - 1.0) * (2.0 * s_f - 1.0) - 8.0 * idx_f).max(0.0);
    let mut i = ((2.0 * s_f - 1.0 - disc.sqrt()) / 2.0).floor().max(0.0) as usize;
    i = i.min(s - 2);
    // Row i of the strict upper triangle starts at i(s-1) − i(i−1)/2.
    let row_start = |i: usize| i * (s - 1) - i * (i.saturating_sub(1)) / 2;
    while i + 1 < s && row_start(i + 1) <= idx {
        i += 1;
    }
    while i > 0 && row_start(i) > idx {
        i -= 1;
    }
    let j = i + 1 + (idx - row_start(i));
    debug_assert!(j < s, "tri_decode({idx}, {s}) -> ({i}, {j})");
    (i, j)
}

/// Configuration for Gaussian (numerical) attribute views.
#[derive(Debug, Clone)]
pub struct GaussianAttrConfig {
    /// Attribute dimensionality.
    pub dim: usize,
    /// Cluster-centre scale relative to unit noise; larger = easier.
    pub separation: f64,
    /// Per-coordinate noise standard deviation.
    pub noise: f64,
    /// Fraction of nodes whose attributes reflect their community; the
    /// rest draw from a random cluster's centre.
    pub informative_fraction: f64,
}

impl Default for GaussianAttrConfig {
    fn default() -> Self {
        GaussianAttrConfig {
            dim: 32,
            separation: 1.0,
            noise: 1.0,
            informative_fraction: 1.0,
        }
    }
}

/// Generates a numerical attribute view: cluster centres are isotropic
/// Gaussians, points are centre + noise (the `X₄` kind in Fig. 1).
///
/// # Errors
/// [`GraphError::InvalidArgument`] for empty input or zero dimensions.
pub fn gaussian_attributes(
    labels: &[usize],
    cfg: &GaussianAttrConfig,
    seed: u64,
) -> Result<DenseMatrix> {
    let n = labels.len();
    if n == 0 || cfg.dim == 0 {
        return Err(GraphError::InvalidArgument(
            "gaussian attributes need n >= 1 and dim >= 1".into(),
        ));
    }
    let k = labels.iter().copied().max().map_or(1, |m| m + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| {
            (0..cfg.dim)
                .map(|_| normal(&mut rng) * cfg.separation)
                .collect()
        })
        .collect();
    let mut x = DenseMatrix::zeros(n, cfg.dim);
    for (i, &label) in labels.iter().enumerate() {
        let eff = if rng.gen::<f64>() < cfg.informative_fraction {
            label
        } else {
            rng.gen_range(0..k)
        };
        let c = &centers[eff];
        let row = x.row_mut(i);
        for (d, slot) in row.iter_mut().enumerate() {
            *slot = c[d] + normal(&mut rng) * cfg.noise;
        }
    }
    Ok(x)
}

/// Configuration for binary (categorical) attribute views.
#[derive(Debug, Clone)]
pub struct BinaryAttrConfig {
    /// Attribute dimensionality.
    pub dim: usize,
    /// Fraction of dimensions that are characteristic for each cluster.
    pub active_fraction: f64,
    /// Probability of a characteristic dimension being on.
    pub p_on: f64,
    /// Probability of a non-characteristic dimension being on (noise).
    pub p_noise: f64,
    /// Fraction of nodes whose attributes reflect their community.
    pub informative_fraction: f64,
}

impl Default for BinaryAttrConfig {
    fn default() -> Self {
        BinaryAttrConfig {
            dim: 64,
            active_fraction: 0.2,
            p_on: 0.6,
            p_noise: 0.05,
            informative_fraction: 1.0,
        }
    }
}

/// Generates a binary attribute view: each cluster activates a random
/// subset of dimensions (the `X₃` kind in Fig. 1).
///
/// # Errors
/// [`GraphError::InvalidArgument`] for empty input, zero dimensions, or
/// probabilities outside `[0, 1]`.
pub fn binary_attributes(
    labels: &[usize],
    cfg: &BinaryAttrConfig,
    seed: u64,
) -> Result<DenseMatrix> {
    let n = labels.len();
    if n == 0 || cfg.dim == 0 {
        return Err(GraphError::InvalidArgument(
            "binary attributes need n >= 1 and dim >= 1".into(),
        ));
    }
    for &p in &[
        cfg.active_fraction,
        cfg.p_on,
        cfg.p_noise,
        cfg.informative_fraction,
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidArgument(format!(
                "probability {p} outside [0, 1]"
            )));
        }
    }
    let k = labels.iter().copied().max().map_or(1, |m| m + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let profiles: Vec<Vec<bool>> = (0..k)
        .map(|_| {
            (0..cfg.dim)
                .map(|_| rng.gen::<f64>() < cfg.active_fraction)
                .collect()
        })
        .collect();
    let mut x = DenseMatrix::zeros(n, cfg.dim);
    for (i, &label) in labels.iter().enumerate() {
        let eff = if rng.gen::<f64>() < cfg.informative_fraction {
            label
        } else {
            rng.gen_range(0..k)
        };
        let profile = &profiles[eff];
        let row = x.row_mut(i);
        for (d, slot) in row.iter_mut().enumerate() {
            let p = if profile[d] { cfg.p_on } else { cfg.p_noise };
            *slot = if rng.gen::<f64>() < p { 1.0 } else { 0.0 };
        }
    }
    Ok(x)
}

/// Balanced planted labels: `n` nodes in `k` nearly equal clusters
/// (contiguous blocks, sizes differing by at most 1).
///
/// # Errors
/// [`GraphError::InvalidArgument`] if `k == 0` or `k > n`.
pub fn balanced_labels(n: usize, k: usize) -> Result<Vec<usize>> {
    if k == 0 || k > n {
        return Err(GraphError::InvalidArgument(format!(
            "balanced_labels needs 1 <= k <= n, got k = {k}, n = {n}"
        )));
    }
    Ok((0..n).map(|i| i * k / n).collect())
}

/// Random labels with at least one node per cluster (retries until every
/// cluster is hit — k ≤ n required).
///
/// # Errors
/// [`GraphError::InvalidArgument`] if `k == 0` or `k > n`.
pub fn random_labels(n: usize, k: usize, seed: u64) -> Result<Vec<usize>> {
    if k == 0 || k > n {
        return Err(GraphError::InvalidArgument(format!(
            "random_labels needs 1 <= k <= n, got k = {k}, n = {n}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        let mut seen = vec![false; k];
        for &l in &labels {
            seen[l] = true;
        }
        if seen.iter().all(|&s| s) {
            return Ok(labels);
        }
    }
}

/// Configuration for [`random_append_delta`].
#[derive(Debug, Clone)]
pub struct AppendConfig {
    /// Nodes to append.
    pub added_nodes: usize,
    /// Expected edges wired per appended node, per graph view.
    pub edges_per_node: usize,
    /// Probability that a wired edge stays within the appended node's
    /// own (planted) cluster — mirrors the informativeness knob of the
    /// SBM generators so appends preserve the community structure the
    /// base views encode.
    pub within_cluster: f64,
    /// Relative Gaussian noise added to bootstrapped attribute rows.
    pub attr_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AppendConfig {
    fn default() -> Self {
        AppendConfig {
            added_nodes: 1,
            edges_per_node: 8,
            within_cluster: 0.85,
            attr_noise: 0.1,
            seed: 97,
        }
    }
}

/// Generates a structure-preserving random append delta for `mvag`:
/// appended nodes draw planted labels round-robin, graph views wire
/// each appended node to mostly same-cluster targets, and attribute
/// views bootstrap each appended row from a random same-cluster
/// existing row plus scaled Gaussian noise. The result is the
/// synthetic stand-in for "new users arriving" that the incremental
/// artifact-update path ([`MvagDelta`]) consumes.
///
/// # Errors
/// [`GraphError::InvalidArgument`] for invalid configuration.
pub fn random_append_delta(mvag: &Mvag, cfg: &AppendConfig) -> Result<MvagDelta> {
    if !(0.0..=1.0).contains(&cfg.within_cluster) {
        return Err(GraphError::InvalidArgument(format!(
            "within_cluster {} outside [0, 1]",
            cfg.within_cluster
        )));
    }
    if !cfg.attr_noise.is_finite() || cfg.attr_noise < 0.0 {
        return Err(GraphError::InvalidArgument(format!(
            "attr_noise {} must be finite and nonnegative",
            cfg.attr_noise
        )));
    }
    let n = mvag.n();
    let k = mvag.k();
    let added = cfg.added_nodes;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Planted labels for the new nodes: round-robin keeps clusters
    // balanced; without ground truth everyone shares cluster 0 for the
    // wiring heuristics (labels are then omitted from the delta).
    let new_labels: Vec<usize> = (0..added).map(|i| i % k).collect();
    let base_labels: Vec<usize> = match mvag.labels() {
        Some(l) => l.to_vec(),
        None => vec![0; n],
    };
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &l) in base_labels.iter().enumerate() {
        members[l.min(k - 1)].push(i);
    }
    let label_of = |node: usize| -> usize {
        if node < n {
            base_labels[node].min(k - 1)
        } else {
            new_labels[node - n]
        }
    };
    let mut views = Vec::with_capacity(mvag.r());
    for view in mvag.views() {
        match view {
            View::Graph(_) => {
                let mut edges = Vec::with_capacity(added * cfg.edges_per_node);
                for new in 0..added {
                    let u = n + new;
                    let lu = label_of(u);
                    for _ in 0..cfg.edges_per_node {
                        let same = rng.gen::<f64>() < cfg.within_cluster;
                        // Targets span old and previously appended
                        // nodes, so the appended block is internally
                        // connected too.
                        let v = if same && !members[lu].is_empty() {
                            let pool = &members[lu];
                            let extra = new_labels[..new].iter().filter(|&&l| l == lu).count();
                            let pick = rng.gen_range(0..pool.len() + extra);
                            if pick < pool.len() {
                                pool[pick]
                            } else {
                                // The (pick - pool.len())-th earlier
                                // appended node with the same label.
                                let mut left = pick - pool.len();
                                let mut found = 0;
                                for (j, &l) in new_labels[..new].iter().enumerate() {
                                    if l == lu {
                                        if left == 0 {
                                            found = n + j;
                                            break;
                                        }
                                        left -= 1;
                                    }
                                }
                                found
                            }
                        } else {
                            rng.gen_range(0..u)
                        };
                        if v != u {
                            edges.push((u, v, 1.0));
                        }
                    }
                }
                views.push(ViewDelta::Edges(edges));
            }
            View::Attributes(x) => {
                let d = x.ncols();
                let mut rows = DenseMatrix::zeros(added, d);
                for new in 0..added {
                    let lu = new_labels[new];
                    let src = if members[lu].is_empty() {
                        rng.gen_range(0..n)
                    } else {
                        members[lu][rng.gen_range(0..members[lu].len())]
                    };
                    let base_row = x.row(src).to_vec();
                    let scale: f64 = {
                        let norm: f64 = base_row.iter().map(|v| v * v).sum::<f64>().sqrt();
                        cfg.attr_noise * (norm / (d as f64).sqrt()).max(1e-3)
                    };
                    let dst = rows.row_mut(new);
                    for (slot, &b) in dst.iter_mut().zip(&base_row) {
                        *slot = b + normal(&mut rng) * scale;
                    }
                }
                views.push(ViewDelta::Rows(rows));
            }
        }
    }
    Ok(MvagDelta::append(
        added,
        views,
        mvag.labels().map(|_| new_labels),
    ))
}

/// Configuration for [`random_crud_delta`].
#[derive(Debug, Clone)]
pub struct CrudConfig {
    /// The append half of the delta.
    pub append: AppendConfig,
    /// Existing nodes to tombstone (chosen uniformly, never colliding
    /// with edits or appended edges).
    pub removed_nodes: usize,
    /// Undirected edge-weight edits per graph view (weight set to a
    /// fresh positive value, or 0 — an edge deletion — with
    /// probability 1/4).
    pub edge_edits: usize,
    /// Attribute-row overwrites per attribute view (bootstrapped the
    /// same way appended rows are).
    pub row_edits: usize,
}

impl Default for CrudConfig {
    fn default() -> Self {
        CrudConfig {
            append: AppendConfig::default(),
            removed_nodes: 1,
            edge_edits: 2,
            row_edits: 1,
        }
    }
}

/// Generates a full-CRUD random delta for `mvag`: the structure-
/// preserving append of [`random_append_delta`], plus random
/// tombstone removals and random edge/attribute-row edits of
/// surviving existing nodes. The synthetic stand-in for "users
/// arriving, changing, and leaving" that the tombstone-aware update
/// and compaction paths consume.
///
/// # Errors
/// [`GraphError::InvalidArgument`] for invalid configuration (more
/// removals than existing nodes, or an invalid append half).
pub fn random_crud_delta(mvag: &Mvag, cfg: &CrudConfig) -> Result<MvagDelta> {
    let n = mvag.n();
    if cfg.removed_nodes >= n {
        return Err(GraphError::InvalidArgument(format!(
            "cannot remove {} of {n} existing nodes",
            cfg.removed_nodes
        )));
    }
    let mut delta = random_append_delta(mvag, &cfg.append)?;
    let mut rng = StdRng::seed_from_u64(cfg.append.seed ^ 0x6372_7564); // "crud"
                                                                        // Pick the tombstones first; edits and appended edges must avoid
                                                                        // them (apply_delta rejects the overlap).
    let mut removed: Vec<usize> = Vec::with_capacity(cfg.removed_nodes);
    while removed.len() < cfg.removed_nodes {
        let v = rng.gen_range(0..n);
        if !removed.contains(&v) {
            removed.push(v);
        }
    }
    removed.sort_unstable();
    let dead = |v: usize| removed.binary_search(&v).is_ok();
    for vd in &mut delta.views {
        if let ViewDelta::Edges(edges) = vd {
            edges.retain(|&(u, v, _)| !dead(u) && !dead(v));
        }
    }
    let live: Vec<usize> = (0..n).filter(|&v| !dead(v)).collect();
    // Live always has >= 1 entry (removed_nodes < n); edits need pairs.
    let mut edits = Vec::new();
    for (vi, view) in mvag.views().iter().enumerate() {
        match view {
            View::Graph(_) => {
                if live.len() < 2 {
                    continue;
                }
                for _ in 0..cfg.edge_edits {
                    let u = live[rng.gen_range(0..live.len())];
                    let mut v = live[rng.gen_range(0..live.len())];
                    while v == u {
                        v = live[rng.gen_range(0..live.len())];
                    }
                    let w = if rng.gen::<f64>() < 0.25 {
                        0.0
                    } else {
                        0.5 + rng.gen::<f64>()
                    };
                    edits.push(DeltaEdit::EdgeWeight { view: vi, u, v, w });
                }
            }
            View::Attributes(x) => {
                let d = x.ncols();
                for _ in 0..cfg.row_edits {
                    let node = live[rng.gen_range(0..live.len())];
                    let src = live[rng.gen_range(0..live.len())];
                    let base_row = x.row(src).to_vec();
                    let scale: f64 = {
                        let norm: f64 = base_row.iter().map(|v| v * v).sum::<f64>().sqrt();
                        cfg.append.attr_noise * (norm / (d as f64).sqrt()).max(1e-3)
                    };
                    let row: Vec<f64> = base_row
                        .iter()
                        .map(|&b| b + normal(&mut rng) * scale)
                        .collect();
                    edits.push(DeltaEdit::AttrRow {
                        view: vi,
                        node,
                        row,
                    });
                }
            }
        }
    }
    delta.removed_nodes = removed;
    delta.edits = edits;
    Ok(delta)
}

/// Standard normal sample (Box–Muller, one value per call).
pub(crate) fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::num_components;

    #[test]
    fn tri_decode_exhaustive() {
        for s in 2..12usize {
            let mut idx = 0usize;
            for i in 0..s {
                for j in (i + 1)..s {
                    assert_eq!(tri_decode(idx, s), (i, j), "idx = {idx}, s = {s}");
                    idx += 1;
                }
            }
            assert_eq!(idx, s * (s - 1) / 2);
        }
    }

    #[test]
    fn sample_pairs_density() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut count = 0usize;
        let total = 200_000;
        let p = 0.05;
        sample_pairs(total, p, &mut rng, |_, _| count += 1);
        let expect = total as f64 * p;
        assert!(
            (count as f64 - expect).abs() < 5.0 * expect.sqrt(),
            "count {count} vs expected {expect}"
        );
    }

    #[test]
    fn sample_pairs_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = Vec::new();
        sample_pairs(10, 1.0, &mut rng, |i, _| hits.push(i));
        assert_eq!(hits, (0..10).collect::<Vec<_>>());
        hits.clear();
        sample_pairs(10, 0.0, &mut rng, |i, _| hits.push(i));
        assert!(hits.is_empty());
        sample_pairs(0, 0.5, &mut rng, |i, _| hits.push(i));
        assert!(hits.is_empty());
    }

    #[test]
    fn sbm_respects_block_structure() {
        let labels = balanced_labels(400, 2).unwrap();
        let cfg = SbmConfig {
            p_in: 0.1,
            p_out: 0.005,
            ..Default::default()
        };
        let g = sbm(&labels, &cfg, 42).unwrap();
        let mut within = 0usize;
        let mut across = 0usize;
        for u in 0..g.n() {
            for &v in g.neighbors(u).0 {
                if v > u {
                    if labels[u] == labels[v] {
                        within += 1;
                    } else {
                        across += 1;
                    }
                }
            }
        }
        // Expected within ≈ 2·C(200,2)·0.1 ≈ 3980; across ≈ 200·200·0.005 = 200.
        assert!(within > 3_000, "within = {within}");
        assert!(across < 600, "across = {across}");
        assert!(within > 4 * across);
    }

    #[test]
    fn sbm_uninformative_view_mixes_clusters() {
        let labels = balanced_labels(300, 2).unwrap();
        let cfg = SbmConfig {
            p_in: 0.2,
            p_out: 0.0,
            informative_fraction: 0.0,
            ..Default::default()
        };
        let g = sbm(&labels, &cfg, 7).unwrap();
        let mut across = 0usize;
        let mut within = 0usize;
        for u in 0..g.n() {
            for &v in g.neighbors(u).0 {
                if v > u {
                    if labels[u] == labels[v] {
                        within += 1;
                    } else {
                        across += 1;
                    }
                }
            }
        }
        // With fully scrambled labels, within ≈ across.
        assert!(across > 0);
        let ratio = within as f64 / across.max(1) as f64;
        assert!(ratio < 2.0 && ratio > 0.5, "ratio = {ratio}");
    }

    #[test]
    fn sbm_degree_correction_spreads_degrees() {
        let labels = balanced_labels(600, 2).unwrap();
        let flat = sbm(
            &labels,
            &SbmConfig {
                p_in: 0.08,
                p_out: 0.01,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let heavy = sbm(
            &labels,
            &SbmConfig {
                p_in: 0.08,
                p_out: 0.01,
                degree_spread: 4.0,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let cv = |g: &Graph| {
            let d = g.degrees();
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            let var = d.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / d.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&heavy) > 1.5 * cv(&flat),
            "cv flat {} vs heavy {}",
            cv(&flat),
            cv(&heavy)
        );
    }

    #[test]
    fn sbm_invalid_args() {
        let labels = balanced_labels(10, 2).unwrap();
        assert!(sbm(&[], &SbmConfig::default(), 0).is_err());
        assert!(sbm(
            &labels,
            &SbmConfig {
                p_in: 1.5,
                ..Default::default()
            },
            0
        )
        .is_err());
        assert!(sbm(
            &labels,
            &SbmConfig {
                degree_spread: 0.5,
                ..Default::default()
            },
            0
        )
        .is_err());
    }

    #[test]
    fn gaussian_attributes_separate_clusters() {
        let labels = balanced_labels(100, 2).unwrap();
        let cfg = GaussianAttrConfig {
            dim: 16,
            separation: 4.0,
            noise: 0.5,
            informative_fraction: 1.0,
        };
        let x = gaussian_attributes(&labels, &cfg, 9).unwrap();
        // Mean within-cluster distance should be well below cross-cluster.
        let d2 = |a: usize, b: usize| mvag_sparse::vecops::dist2(x.row(a), x.row(b));
        let within = d2(0, 1) + d2(50, 51);
        let across = d2(0, 50) + d2(1, 51);
        assert!(across > 2.0 * within, "within {within}, across {across}");
    }

    #[test]
    fn binary_attributes_valid_and_cluster_like() {
        let labels = balanced_labels(80, 2).unwrap();
        let x = binary_attributes(&labels, &BinaryAttrConfig::default(), 4).unwrap();
        assert!(x.data().iter().all(|&v| v == 0.0 || v == 1.0));
        // Cosine similarity within a cluster should exceed across.
        let cos = |a: usize, b: usize| mvag_sparse::vecops::cosine(x.row(a), x.row(b));
        let mut within = 0.0;
        let mut across = 0.0;
        let mut cw = 0;
        let mut ca = 0;
        for a in 0..20 {
            for b in (a + 1)..20 {
                within += cos(a, b);
                cw += 1;
            }
            for b in 40..60 {
                across += cos(a, b);
                ca += 1;
            }
        }
        assert!(within / cw as f64 > across / ca as f64 + 0.1);
    }

    #[test]
    fn labels_helpers() {
        let b = balanced_labels(10, 3).unwrap();
        assert_eq!(b.len(), 10);
        assert_eq!(b.iter().copied().max(), Some(2));
        assert!(balanced_labels(2, 3).is_err());
        assert!(balanced_labels(5, 0).is_err());
        let r = random_labels(20, 4, 11).unwrap();
        let mut seen = [false; 4];
        for &l in &r {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn generators_deterministic() {
        let labels = balanced_labels(120, 3).unwrap();
        let g1 = sbm(&labels, &SbmConfig::default(), 99).unwrap();
        let g2 = sbm(&labels, &SbmConfig::default(), 99).unwrap();
        assert_eq!(g1, g2);
        let x1 = gaussian_attributes(&labels, &GaussianAttrConfig::default(), 8).unwrap();
        let x2 = gaussian_attributes(&labels, &GaussianAttrConfig::default(), 8).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn random_append_delta_is_valid_and_deterministic() {
        let mvag = crate::toy::toy_mvag(60, 3, 5);
        let cfg = AppendConfig {
            added_nodes: 6,
            ..Default::default()
        };
        let delta = random_append_delta(&mvag, &cfg).unwrap();
        assert_eq!(delta.added_nodes, 6);
        assert_eq!(delta.views.len(), mvag.r());
        assert_eq!(delta.added_labels.as_deref().unwrap().len(), 6);
        // The delta applies cleanly and preserves cluster count.
        let updated = mvag.apply_delta(&delta).unwrap();
        assert_eq!(updated.n(), 66);
        assert_eq!(updated.k(), 3);
        assert!(updated.total_edges() > mvag.total_edges());
        // Deterministic given the seed.
        assert_eq!(delta, random_append_delta(&mvag, &cfg).unwrap());
        // Bad config rejected.
        assert!(random_append_delta(
            &mvag,
            &AppendConfig {
                within_cluster: 1.5,
                ..cfg.clone()
            }
        )
        .is_err());
    }

    #[test]
    fn random_crud_delta_is_valid_and_deterministic() {
        let mvag = crate::toy::toy_mvag(60, 3, 5);
        let cfg = CrudConfig {
            append: AppendConfig {
                added_nodes: 4,
                ..Default::default()
            },
            removed_nodes: 3,
            edge_edits: 5,
            row_edits: 2,
        };
        let delta = random_crud_delta(&mvag, &cfg).unwrap();
        assert_eq!(delta.added_nodes, 4);
        assert_eq!(delta.removed_nodes.len(), 3);
        assert!(delta.removed_nodes.windows(2).all(|p| p[0] < p[1]));
        assert!(!delta.edits.is_empty());
        assert!(!delta.is_append_only());
        // Applies cleanly: removals detach, edits land, appends extend.
        let updated = mvag.apply_delta(&delta).unwrap();
        assert_eq!(updated.n(), 64);
        // Deterministic given the seed.
        assert_eq!(delta, random_crud_delta(&mvag, &cfg).unwrap());
        // Removing every node is rejected.
        assert!(random_crud_delta(
            &mvag,
            &CrudConfig {
                removed_nodes: 60,
                ..cfg.clone()
            }
        )
        .is_err());
    }

    #[test]
    fn dense_sbm_is_connected() {
        let labels = balanced_labels(200, 2).unwrap();
        let g = sbm(
            &labels,
            &SbmConfig {
                p_in: 0.3,
                p_out: 0.05,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        assert_eq!(num_components(&g), 1);
    }
}
