//! Alternative integrations and comparison baselines.
//!
//! Two families:
//!
//! 1. **Integration ablations** (the paper's Fig. 11): single view,
//!    `Equal-w`, eigengap-only, connectivity-only, and `Graph-Agg`
//!    (aggregate raw adjacencies instead of normalized Laplacians). Each
//!    produces a Laplacian consumable by the same downstream clustering
//!    and embedding as SGLA.
//! 2. **Consensus-graph clustering baselines** standing in for the
//!    quadratic-cost competitor family (MCGC/MAGC) and its linear-time
//!    sampled variant (MvAGC). [`consensus_cluster`] materializes a dense
//!    `n × n` consensus similarity — intentionally `O(n²)` memory and
//!    per-matvec cost, with a hard memory budget mirroring how those
//!    baselines go out-of-memory on the large datasets (the `-` entries of
//!    Table III). [`sampled_consensus_cluster`] uses anchor sampling for
//!    linear cost at lower fidelity, like MvAGC.

use crate::kmeans::{kmeans, KMeansParams};
use crate::objective::ObjectiveMode;
use crate::sgla::{SglaOutcome, SglaParams};
use crate::sgla_plus::SglaPlus;
use crate::views::{KnnParams, ViewLaplacians};
use crate::{Result, SglaError};
use mvag_graph::knn::{knn_graph, KnnConfig};
use mvag_graph::{Mvag, View};
use mvag_sparse::eigen::{smallest_eigenpairs, EigOptions};
use mvag_sparse::{vecops, CsrMatrix, DenseMatrix, LinOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Laplacian of a single view `i` (trivial integration).
///
/// # Errors
/// [`SglaError::InvalidArgument`] if `i` is out of range.
pub fn single_view(views: &ViewLaplacians, i: usize) -> Result<CsrMatrix> {
    if i >= views.r() {
        return Err(SglaError::InvalidArgument(format!(
            "view index {i} out of range for r = {}",
            views.r()
        )));
    }
    Ok(views.laplacians()[i].clone())
}

/// Equal-weight aggregation `L = (1/r) Σ Lᵢ` (the paper's `Equal-w`).
///
/// # Errors
/// Propagates aggregation failures.
pub fn equal_weights(views: &ViewLaplacians) -> Result<CsrMatrix> {
    let r = views.r();
    views.aggregate(&vec![1.0 / r as f64; r])
}

/// SGLA+ restricted to a single objective term (the paper's
/// `Eigengap`/`Connectivity` ablations in Fig. 11).
///
/// # Errors
/// Propagates [`SglaPlus::integrate`] failures.
pub fn single_objective(
    views: &ViewLaplacians,
    k: usize,
    mode: ObjectiveMode,
    params: &SglaParams,
) -> Result<SglaOutcome> {
    let mut p = params.clone();
    p.mode = mode;
    SglaPlus::new(p).integrate(views, k)
}

/// `Graph-Agg`: sum the *raw* adjacency matrices of graph views and KNN
/// graphs of attribute views with equal weights, then take the normalized
/// Laplacian of the summed graph. The contrast with SGLA (which aggregates
/// *normalized Laplacians*) isolates the value of spectrum-preserving
/// normalization.
///
/// # Errors
/// Propagates KNN construction and aggregation failures.
pub fn graph_agg(mvag: &Mvag, knn: &KnnParams) -> Result<CsrMatrix> {
    let mut adjacencies: Vec<CsrMatrix> = Vec::with_capacity(mvag.r());
    let mut attr_idx = 0usize;
    for view in mvag.views() {
        match view {
            View::Graph(g) => adjacencies.push(g.adjacency().clone()),
            View::Attributes(x) => {
                let k = knn_k_for(knn, attr_idx, x.nrows());
                let g = knn_graph(
                    x,
                    &KnnConfig {
                        k,
                        threads: knn.threads,
                    },
                )?;
                adjacencies.push(g.adjacency().clone());
                attr_idx += 1;
            }
        }
    }
    let refs: Vec<&CsrMatrix> = adjacencies.iter().collect();
    let summed = CsrMatrix::linear_combination(&refs, &vec![1.0; refs.len()])?;
    let g = mvag_graph::Graph::from_adjacency(summed)?;
    Ok(g.normalized_laplacian())
}

fn knn_k_for(knn: &KnnParams, idx: usize, n: usize) -> usize {
    knn.overrides
        .iter()
        .find_map(|&(i, k)| (i == idx).then_some(k))
        .unwrap_or(knn.k)
        .min(n.saturating_sub(1))
        .max(1)
}

/// Parameters for the consensus-graph baselines.
#[derive(Debug, Clone)]
pub struct ConsensusParams {
    /// Weight of the 2-hop smoothing term added to the consensus
    /// similarity (`S + α S²`), mimicking the graph-filter smoothing of
    /// the MCGC family.
    pub alpha: f64,
    /// Refinement iterations for the dense consensus (each costs
    /// `O(n² k)`: a rank-`k` eigendecomposition of the dense matrix plus a
    /// low-rank self-expression update — the per-iteration complexity
    /// class of the MCGC/MAGC family).
    pub iterations: usize,
    /// Step size of the low-rank refinement.
    pub eta: f64,
    /// Hard cap on `n` for the dense consensus (default 9000 ≈ 0.6 GiB);
    /// beyond it the baseline reports an out-of-memory style failure,
    /// matching the `-` entries in the paper's Table III.
    pub max_dense_n: usize,
    /// Number of anchors for the sampled variant.
    pub anchors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConsensusParams {
    fn default() -> Self {
        ConsensusParams {
            alpha: 0.5,
            iterations: 10,
            eta: 0.3,
            max_dense_n: 9000,
            anchors: 256,
            seed: 41,
        }
    }
}

/// Dense consensus similarity operator: `C = S + α S²` with
/// `S = (1/r) Σ (I − Lᵢ)`, exposed as the normalized Laplacian
/// `I − D^{-1/2} C D^{-1/2}` for spectral clustering. Every matvec costs
/// `O(n²)` — the complexity class of the MCGC/MAGC baselines.
struct ConsensusLaplacianOp {
    s: DenseMatrix,
    alpha: f64,
    inv_sqrt_deg: Vec<f64>,
}

impl ConsensusLaplacianOp {
    fn c_matvec(&self, x: &[f64], out: &mut [f64], tmp: &mut [f64]) {
        // out = S x + α S (S x)
        self.s.matvec(x, tmp);
        self.s.matvec(tmp, out);
        for (o, t) in out.iter_mut().zip(tmp.iter()) {
            *o = *t + self.alpha * *o;
        }
    }
}

impl LinOp for ConsensusLaplacianOp {
    fn dim(&self) -> usize {
        self.s.nrows()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let mut scaled = vec![0.0; n];
        for i in 0..n {
            scaled[i] = x[i] * self.inv_sqrt_deg[i];
        }
        let mut tmp = vec![0.0; n];
        let mut cx = vec![0.0; n];
        self.c_matvec(&scaled, &mut cx, &mut tmp);
        for i in 0..n {
            y[i] = x[i] - self.inv_sqrt_deg[i] * cx[i];
        }
    }

    fn spectral_bound(&self) -> Option<f64> {
        Some(2.0)
    }
}

/// MCGC-like dense consensus clustering: `O(n²)` time and memory.
///
/// # Errors
/// * [`SglaError::InvalidArgument`] with an "out of memory budget" message
///   when `n > max_dense_n` (how the quadratic baselines fail on MAG-scale
///   data);
/// * propagates eigensolver and k-means failures.
pub fn consensus_cluster(
    views: &ViewLaplacians,
    k: usize,
    params: &ConsensusParams,
) -> Result<Vec<usize>> {
    let n = views.n();
    if n > params.max_dense_n {
        return Err(SglaError::InvalidArgument(format!(
            "consensus baseline out of memory budget: n = {n} > {}",
            params.max_dense_n
        )));
    }
    // S = (1/r) Σ (I − Lᵢ), densified.
    let mut s = DenseMatrix::zeros(n, n);
    let r = views.r();
    for l in views.laplacians() {
        for (i, j, v) in l.iter() {
            let contrib = if i == j { 1.0 - v } else { -v };
            s[(i, j)] += contrib / r as f64;
        }
    }
    // Iterative low-rank self-expression refinement, the per-iteration
    // workload of the consensus-graph family: rank-k eigendecomposition of
    // the (normalized) dense consensus + blend of the rank-k
    // reconstruction back into S.
    for it in 0..params.iterations {
        let op = normalized_consensus_op(&s, params.alpha);
        let mut eig_opts = EigOptions::default();
        eig_opts.seed = params.seed.wrapping_add(it as u64);
        eig_opts.tol = 1e-6;
        let pairs = smallest_eigenpairs(&op, k, &eig_opts)?;
        // Rank-k reconstruction of the similarity: Σ (1 − λ_c) u_c u_cᵀ.
        // Blend, clamp to nonnegative, re-symmetrize.
        let u = &pairs.vectors;
        for i in 0..n {
            for j in 0..n {
                let mut rec = 0.0;
                for (c, &lam) in pairs.values.iter().enumerate() {
                    rec += (1.0 - lam).max(0.0) * u[(i, c)] * u[(j, c)];
                }
                let blended = (1.0 - params.eta) * s[(i, j)] + params.eta * rec;
                s[(i, j)] = blended.max(0.0);
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (s[(i, j)] + s[(j, i)]);
                s[(i, j)] = avg;
                s[(j, i)] = avg;
            }
            s[(i, i)] = 0.0;
        }
    }
    let op = normalized_consensus_op(&s, params.alpha);
    cluster_operator(&op, k, params.seed)
}

/// Builds the normalized consensus Laplacian operator for the current
/// dense similarity.
fn normalized_consensus_op(s: &DenseMatrix, alpha: f64) -> ConsensusLaplacianOp {
    let n = s.nrows();
    let ones = vec![1.0; n];
    let stub = ConsensusLaplacianOp {
        s: s.clone(),
        alpha,
        inv_sqrt_deg: vec![0.0; n],
    };
    let mut deg = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    stub.c_matvec(&ones, &mut deg, &mut tmp);
    let inv_sqrt_deg: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 1e-12 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    ConsensusLaplacianOp {
        inv_sqrt_deg,
        ..stub
    }
}

/// Anchor-sampled low-rank consensus operator `S = B Bᵀ` where `B` holds
/// the consensus similarity of every node to `s` sampled anchors; matvecs
/// cost `O(ns)` — the linear-time regime of MvAGC.
struct SampledConsensusOp {
    b: DenseMatrix,
    inv_sqrt_deg: Vec<f64>,
}

impl LinOp for SampledConsensusOp {
    fn dim(&self) -> usize {
        self.b.nrows()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let s = self.b.ncols();
        let mut scaled = vec![0.0; n];
        for i in 0..n {
            scaled[i] = x[i] * self.inv_sqrt_deg[i];
        }
        // t = Bᵀ scaled
        let mut t = vec![0.0; s];
        for i in 0..n {
            let row = self.b.row(i);
            let si = scaled[i];
            if si == 0.0 {
                continue;
            }
            for (tj, &bij) in t.iter_mut().zip(row) {
                *tj += bij * si;
            }
        }
        // y = x − D^{-1/2} B t
        for i in 0..n {
            let row = self.b.row(i);
            let bx = vecops::dot(row, &t);
            y[i] = x[i] - self.inv_sqrt_deg[i] * bx;
        }
    }

    fn spectral_bound(&self) -> Option<f64> {
        // S = BBᵀ is entrywise nonnegative and D^{-1/2} S D^{-1/2} is
        // similar to the row-stochastic D^{-1} S, so spec ⊆ [0, 2].
        Some(2.0)
    }
}

/// MvAGC-like anchor-sampled consensus clustering: linear time/memory,
/// lossier than the dense consensus (it sees similarity only through the
/// sampled anchor columns).
///
/// # Errors
/// [`SglaError::InvalidArgument`] if there are fewer nodes than anchors
/// requested would allow (`anchors` is clamped to `n`); propagates
/// eigensolver and k-means failures.
pub fn sampled_consensus_cluster(
    views: &ViewLaplacians,
    k: usize,
    params: &ConsensusParams,
) -> Result<Vec<usize>> {
    let n = views.n();
    let s = params.anchors.clamp(k.max(2), n);
    let mut rng = StdRng::seed_from_u64(params.seed);
    // Sample distinct anchors.
    let mut anchor_of: Vec<Option<usize>> = vec![None; n];
    let mut count = 0usize;
    while count < s {
        let a = rng.gen_range(0..n);
        if anchor_of[a].is_none() {
            anchor_of[a] = Some(count);
            count += 1;
        }
    }
    // B[i, j] = consensus similarity of node i to anchor j:
    // (1/r) Σ_v (I − L_v)[i, anchor_j].
    let r = views.r();
    let mut b = DenseMatrix::zeros(n, s);
    for l in views.laplacians() {
        for (i, j, v) in l.iter() {
            if let Some(aj) = anchor_of[j] {
                let contrib = if i == j { 1.0 - v } else { -v };
                b[(i, aj)] += contrib / r as f64;
            }
        }
    }
    // Clamp tiny negatives from numerical noise so S stays nonnegative.
    for v in b.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    // Degrees d = B (Bᵀ 1).
    let ones = vec![1.0; n];
    let mut bt1 = vec![0.0; s];
    for i in 0..n {
        for (tj, &bij) in bt1.iter_mut().zip(b.row(i)) {
            *tj += bij * ones[i];
        }
    }
    let deg: Vec<f64> = (0..n).map(|i| vecops::dot(b.row(i), &bt1)).collect();
    let inv_sqrt_deg: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 1e-12 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let op = SampledConsensusOp { b, inv_sqrt_deg };
    cluster_operator(&op, k, params.seed)
}

fn cluster_operator(op: &dyn LinOp, k: usize, seed: u64) -> Result<Vec<usize>> {
    let mut eig_opts = EigOptions::default();
    eig_opts.seed = seed;
    let pairs = smallest_eigenpairs(op, k, &eig_opts)?;
    let mut u = pairs.vectors;
    let n = u.nrows();
    for i in 0..n {
        let row = u.row_mut(i);
        let nrm = vecops::norm2(row);
        if nrm > 1e-12 {
            let inv = 1.0 / nrm;
            for v in row {
                *v *= inv;
            }
        }
    }
    let mut km = KMeansParams::new(k);
    km.seed = seed;
    Ok(kmeans(&u, &km)?.labels)
}

/// PANE-substitute embedding baseline: randomized SVD of the concatenated
/// attribute views (positional stand-in for attributed network embedding
/// baselines applied with concatenated attributes, per the paper's
/// baseline protocol). Graph structure is ignored — exactly the weakness
/// SGLA's integration addresses.
///
/// # Errors
/// [`SglaError::InvalidArgument`] if the MVAG has no attribute views;
/// propagates SVD failures.
pub fn attribute_svd_embedding(mvag: &Mvag, dim: usize, seed: u64) -> Result<DenseMatrix> {
    let attrs: Vec<&DenseMatrix> = mvag
        .views()
        .iter()
        .filter_map(|v| match v {
            View::Attributes(x) => Some(x),
            View::Graph(_) => None,
        })
        .collect();
    if attrs.is_empty() {
        return Err(SglaError::InvalidArgument(
            "attribute_svd_embedding needs at least one attribute view".into(),
        ));
    }
    let n = mvag.n();
    let total_d: usize = attrs.iter().map(|x| x.ncols()).sum();
    let mut concat = DenseMatrix::zeros(n, total_d);
    let mut off = 0usize;
    for x in attrs {
        for i in 0..n {
            concat.row_mut(i)[off..off + x.ncols()].copy_from_slice(x.row(i));
        }
        off += x.ncols();
    }
    let rank = dim.min(n.saturating_sub(1)).min(total_d).max(1);
    let svd = mvag_sparse::svd::rsvd(
        &CsrMatrix::from_dense(&concat),
        rank,
        &mvag_sparse::svd::RsvdOptions {
            seed,
            ..Default::default()
        },
    )?;
    let mut emb = svd.u;
    for j in 0..rank {
        let s = svd.s[j].max(0.0).sqrt();
        for i in 0..n {
            emb[(i, j)] *= s;
        }
    }
    Ok(emb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvag_graph::toy::{figure1_example, figure2_example, toy_mvag};

    fn toy_views() -> (Mvag, ViewLaplacians) {
        let mvag = toy_mvag(150, 2, 8);
        let views = ViewLaplacians::build(&mvag, &KnnParams::default()).unwrap();
        (mvag, views)
    }

    fn agreement2(a: &[usize], b: &[usize]) -> f64 {
        let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
        let flip = a.len() - same;
        same.max(flip) as f64 / a.len() as f64
    }

    #[test]
    fn single_view_and_equal_weights() {
        let (_, views) = toy_views();
        let l0 = single_view(&views, 0).unwrap();
        assert_eq!(&l0, &views.laplacians()[0]);
        assert!(single_view(&views, 5).is_err());
        let eq = equal_weights(&views).unwrap();
        assert!(eq.is_symmetric(1e-10));
        // Equal weights = aggregate with 1/r.
        let manual = views.aggregate(&[1.0 / 3.0; 3]).unwrap();
        assert_eq!(eq, manual);
    }

    #[test]
    fn single_objective_modes_run() {
        let views = ViewLaplacians::build(&figure2_example(), &KnnParams::default()).unwrap();
        for mode in [ObjectiveMode::EigengapOnly, ObjectiveMode::ConnectivityOnly] {
            let out = single_objective(&views, 2, mode, &SglaParams::default()).unwrap();
            assert_eq!(out.weights.len(), 2);
            assert!(out.objective.is_finite());
        }
    }

    #[test]
    fn graph_agg_produces_valid_laplacian() {
        let mvag = figure1_example();
        let l = graph_agg(
            &mvag,
            &KnnParams {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(l.nrows(), 8);
        assert!(l.is_symmetric(1e-10));
        // Normalized Laplacian diagonal of non-isolated nodes is 1.
        for d in l.diag() {
            assert!((0.0..=1.0 + 1e-12).contains(&d));
        }
    }

    #[test]
    fn consensus_recovers_planted_clusters() {
        let (mvag, views) = toy_views();
        let labels = consensus_cluster(&views, 2, &ConsensusParams::default()).unwrap();
        let truth = mvag.labels().unwrap();
        assert!(
            agreement2(&labels, truth) > 0.85,
            "agreement = {}",
            agreement2(&labels, truth)
        );
    }

    #[test]
    fn consensus_respects_memory_budget() {
        let (_, views) = toy_views();
        let params = ConsensusParams {
            max_dense_n: 50,
            ..Default::default()
        };
        let err = consensus_cluster(&views, 2, &params).unwrap_err();
        assert!(err.to_string().contains("memory budget"), "{err}");
    }

    #[test]
    fn sampled_consensus_runs_and_is_reasonable() {
        let (mvag, views) = toy_views();
        let params = ConsensusParams {
            anchors: 64,
            ..Default::default()
        };
        let labels = sampled_consensus_cluster(&views, 2, &params).unwrap();
        let truth = mvag.labels().unwrap();
        assert_eq!(labels.len(), 150);
        // Lossier than dense consensus but far better than random.
        assert!(
            agreement2(&labels, truth) > 0.7,
            "agreement = {}",
            agreement2(&labels, truth)
        );
    }

    #[test]
    fn attribute_svd_embedding_works() {
        let mvag = figure1_example();
        let emb = attribute_svd_embedding(&mvag, 4, 3).unwrap();
        assert_eq!(emb.nrows(), 8);
        assert!(emb.ncols() <= 4);
        // Graph-only MVAG errors.
        let g_only = figure2_example();
        assert!(attribute_svd_embedding(&g_only, 4, 3).is_err());
    }

    #[test]
    fn cluster_operator_used_by_baselines_validates() {
        let (_, views) = toy_views();
        // k too large propagates from eigensolver/kmeans.
        let params = ConsensusParams::default();
        assert!(consensus_cluster(&views, 200, &params).is_err());
    }
}
