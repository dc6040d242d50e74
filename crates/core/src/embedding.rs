//! Node embedding from the MVAG Laplacian (Section III-B downstream).
//!
//! The paper plugs `L` into matrix-factorization network embedding: NetMF
//! \[33\] on small/medium graphs and SketchNE \[34\] on the million-scale
//! ones. Here:
//!
//! * [`EmbedBackend::NetMf`] — a faithful NetMF-small: the integrated
//!   graph's random-walk similarity `S = (1/T) Σ_t P̃ᵗ` is computed one
//!   column panel at a time, the pointwise log `max(·, 1)` transform
//!   applied, and the nonzeros of the result `M` (stored sparse) factorized
//!   by randomized SVD; embedding = `U_d Σ_d^{1/2}`. `O((T−1)·nnz·n + n²)`
//!   time for the similarity (`P̃¹` is scattered, not multiplied) and
//!   `O(nnz(M) + n·w)` memory for a panel width `w`, plus `O(nnz(M)·d)`
//!   per randomized-SVD product — exactly the regime NetMF targets.
//! * [`EmbedBackend::Spectral`] — the scalable substitute for SketchNE
//!   (whose sparse-sign sketching we do not reproduce): the bottom
//!   eigenpairs of `L` scaled by the DeepWalk spectral filter
//!   `f(λ) = (1/T) Σ_t (1−λ)ᵗ`. This keeps the same spectral content as
//!   NetMF's similarity but skips the elementwise log. `O(dim · nnz)`
//!   per Lanczos pass.
//!
//! The integrated graph is recovered from `L` as `Â = −offdiag(L)`, which
//! for an aggregation of normalized Laplacians is exactly the weighted sum
//! of the views' normalized adjacencies.

use crate::{Result, SglaError};
use mvag_sparse::eigen::{
    smallest_eigenpairs, smallest_eigenpairs_subspace, EigOptions, SubspaceOptions,
};
use mvag_sparse::parallel::par_chunks_mut;
use mvag_sparse::svd::{rsvd, RsvdOptions};
use mvag_sparse::{CooMatrix, CsrMatrix, DenseMatrix};

/// Embedding backend selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbedBackend {
    /// Pick NetMF below `netmf_threshold` nodes, spectral above.
    #[default]
    Auto,
    /// NetMF factorization (exact small-window NetMF).
    NetMf,
    /// Filtered spectral embedding (SketchNE substitute).
    Spectral,
}

/// Parameters for [`embed`].
#[derive(Debug, Clone)]
pub struct EmbedParams {
    /// Embedding dimension (the paper fixes 64).
    pub dim: usize,
    /// Random-walk window `T` (NetMF default 5).
    pub window: usize,
    /// Negative-sampling parameter `b` (NetMF default 1).
    pub negative: f64,
    /// Above this node count, `Auto` switches to the spectral backend
    /// (default 4096 — NetMF's similarity powers cost `O(T·nnz·n)` time
    /// and its sparse log similarity holds up to `n²` entries).
    pub netmf_threshold: usize,
    /// Backend override.
    pub backend: EmbedBackend,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for dense kernels.
    pub threads: usize,
}

impl Default for EmbedParams {
    fn default() -> Self {
        EmbedParams {
            dim: 64,
            window: 5,
            negative: 1.0,
            netmf_threshold: 4096,
            backend: EmbedBackend::Auto,
            seed: 31,
            threads: mvag_sparse::parallel::default_threads(),
        }
    }
}

/// Embeds the nodes of the integrated graph represented by the MVAG
/// Laplacian `l` into `params.dim` dimensions.
///
/// # Errors
/// [`SglaError::InvalidArgument`] for non-square input, a non-finite
/// entry or `dim >= n`; propagates eigensolver/SVD failures.
pub fn embed(l: &CsrMatrix, params: &EmbedParams) -> Result<DenseMatrix> {
    embed_warm(l, params, None)
}

/// [`embed`] with an optional warm start: `warm` is an `n × c` block
/// whose column span approximates the sought embedding subspace —
/// typically the previous embedding of a slightly perturbed graph,
/// padded with an approximate row per appended node. Only the
/// [`EmbedBackend::Spectral`] path can exploit it (its eigensolvers
/// accept initial blocks and stop early once warm Ritz values settle);
/// NetMF is a direct factorization with no iterative state and ignores
/// the guess. Results differ from a cold [`embed`] only within the
/// eigensolver's embedding-grade tolerance.
///
/// # Errors
/// As [`embed`], plus [`SglaError::InvalidArgument`] when `warm` has
/// the wrong row count.
pub fn embed_warm(
    l: &CsrMatrix,
    params: &EmbedParams,
    warm: Option<&DenseMatrix>,
) -> Result<DenseMatrix> {
    let n = l.nrows();
    if let Some(w) = warm {
        if w.nrows() != n {
            return Err(SglaError::InvalidArgument(format!(
                "warm-start block has {} rows for n = {n}",
                w.nrows()
            )));
        }
    }
    if l.ncols() != n {
        return Err(SglaError::InvalidArgument(format!(
            "laplacian is {}x{}, must be square",
            l.nrows(),
            l.ncols()
        )));
    }
    if l.values().iter().any(|v| !v.is_finite()) {
        return Err(SglaError::InvalidArgument(
            "laplacian holds a non-finite entry".into(),
        ));
    }
    if params.dim == 0 || params.dim + 1 >= n {
        return Err(SglaError::InvalidArgument(format!(
            "embedding dim {} invalid for n = {n}",
            params.dim
        )));
    }
    if params.window == 0 {
        return Err(SglaError::InvalidArgument(
            "window must be at least 1".into(),
        ));
    }
    let backend = match params.backend {
        EmbedBackend::Auto => {
            if n <= params.netmf_threshold {
                EmbedBackend::NetMf
            } else {
                EmbedBackend::Spectral
            }
        }
        b => b,
    };
    let mut span = mvag_obs::span("train.embed");
    span.counter("dim", params.dim as u64);
    match backend {
        EmbedBackend::NetMf => netmf_small(l, params),
        EmbedBackend::Spectral => spectral_embed(l, params, warm),
        EmbedBackend::Auto => unreachable!("resolved above"),
    }
}

/// Recovers the integrated weighted adjacency `Â = −offdiag(L)` (entries
/// clamped at 0 — exact for convex combinations of normalized Laplacians).
pub fn adjacency_from_laplacian(l: &CsrMatrix) -> CsrMatrix {
    let n = l.nrows();
    let mut coo = CooMatrix::with_capacity(n, n, l.nnz());
    for (r, c, v) in l.iter() {
        if r != c && v < 0.0 {
            coo.push(r, c, -v).expect("indices from valid matrix");
        }
    }
    coo.to_csr()
}

fn netmf_small(l: &CsrMatrix, params: &EmbedParams) -> Result<DenseMatrix> {
    let n = l.nrows();
    // The embedding outlives every buffer below. Allocated first, it sits
    // under them on the heap instead of pinning their freed space there
    // (glibc only returns the heap's free top to the system).
    let mut emb = DenseMatrix::zeros(n, params.dim);
    let m = {
        let mut span = mvag_obs::span("train.netmf_similarity");
        let mt = netmf_similarity_transposed(l, params, panel_width(l.nrows()))?;
        span.counter("similarity_nnz", mt.nnz() as u64);
        mt.transpose()
    };
    // Rank-d randomized SVD; embedding = U √Σ.
    let svd = {
        let _span = mvag_obs::span("train.rsvd");
        rsvd(
            &m,
            params.dim,
            &RsvdOptions {
                seed: params.seed,
                threads: params.threads,
                ..Default::default()
            },
        )?
    };
    for j in 0..params.dim {
        let s = svd.s[j].max(0.0).sqrt();
        for i in 0..n {
            emb[(i, j)] = svd.u[(i, j)] * s;
        }
    }
    Ok(emb)
}

/// Bytes of the three `n × w` panel buffers of
/// [`netmf_similarity_transposed`]: small enough to stay in a core's
/// L2 cache.
const PANEL_BYTES: usize = 3 << 19;

/// The similarity panel width `w` for `n` nodes (35 at `n = 1872`, 17
/// at `n = 3744`; the kernel clamps it to `n`).
fn panel_width(n: usize) -> usize {
    (PANEL_BYTES / (3 * std::mem::size_of::<f64>() * n.max(1))).max(1)
}

/// The transpose of NetMF's log similarity
/// `M = log(max((vol/b) · D^{-1/2} S D^{-1/2}, 1))` with
/// `S = (1/T) Σ_{t=1..T} P̃ᵗ`, holding only `M`'s nonzeros.
///
/// `S` is computed `width` columns `J` at a time: `P̃¹[:, J]` is
/// scattered, not multiplied out, and each later power
/// `P̃ᵗ[:, J] = P̃ · P̃ᵗ⁻¹[:, J]` is one pooled pass of
/// [`CsrMatrix::matvec_block_row`] over two ping-pong `n × width`
/// buffers that also adds `P̃ᵗ[:, J]/T` into the panel of `S`. After the
/// log, each column of the panel is appended as a row of `Mᵀ`. Every
/// element is the same ascending sum at every thread count and panel
/// width. The panel buffers and the growing `Mᵀ` belong to the calling
/// thread and pool workers only write panel rows: buffers allocated
/// inside pool jobs land in the allocator's per-thread arenas and stay
/// resident after training.
fn netmf_similarity_transposed(
    l: &CsrMatrix,
    params: &EmbedParams,
    width: usize,
) -> Result<CsrMatrix> {
    let n = l.nrows();
    let adj = adjacency_from_laplacian(l);
    let deg = adj.row_sums();
    let vol: f64 = deg.iter().sum();
    if vol <= 0.0 {
        return Err(SglaError::InvalidArgument(
            "integrated graph has no edges; cannot embed".into(),
        ));
    }
    let p_tilde = adj.sym_normalized();
    let alpha = 1.0 / params.window as f64;
    let threads = params.threads;
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let scale = vol / params.negative;
    let width = width.clamp(1, n);
    let mut power = DenseMatrix::zeros(n, width);
    let mut next = DenseMatrix::zeros(n, width);
    let mut s_acc = DenseMatrix::zeros(n, width);
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for j0 in (0..n).step_by(width) {
        let w = width.min(n - j0);
        if w < s_acc.ncols() {
            // The tail panel.
            power = DenseMatrix::zeros(n, w);
            next = DenseMatrix::zeros(n, w);
            s_acc = DenseMatrix::zeros(n, w);
        }
        s_acc.data_mut().fill(0.0);
        power_step(&mut s_acc, &mut power, alpha, threads, |r, out| {
            out.fill(0.0);
            let (row_cols, row_vals) = (p_tilde.row_cols(r), p_tilde.row_vals(r));
            let lo = row_cols.partition_point(|&c| c < j0);
            let hi = row_cols.partition_point(|&c| c < j0 + w);
            for (&c, &v) in row_cols[lo..hi].iter().zip(&row_vals[lo..hi]) {
                out[c - j0] = v;
            }
        });
        for _t in 1..params.window {
            power_step(&mut s_acc, &mut next, alpha, threads, |r, out| {
                p_tilde.matvec_block_row(r, &power, out);
            });
            std::mem::swap(&mut power, &mut next);
        }
        // M[:, J] = log(max((vol / b) · D^{-1/2} S[:, J] D^{-1/2}, 1)):
        // `x > 1 ? ln x : 0` is that max-then-log, without the log of 1.
        let inv_sqrt_j = &inv_sqrt[j0..j0 + w];
        let mut rows: Vec<&mut [f64]> = s_acc.data_mut().chunks_mut(w).collect();
        par_chunks_mut(&mut rows, threads, |start, block| {
            for (off, row) in block.iter_mut().enumerate() {
                let isi = inv_sqrt[start + off];
                for (v, &isj) in row.iter_mut().zip(inv_sqrt_j) {
                    let x = *v * isi * isj * scale;
                    *v = if x > 1.0 { x.ln() } else { 0.0 };
                }
            }
        });
        let panel = s_acc.data();
        for c in 0..w {
            for (i, &v) in panel[c..].iter().step_by(w).enumerate() {
                if v != 0.0 {
                    cols.push(i);
                    vals.push(v);
                }
            }
            indptr.push(cols.len());
        }
    }
    Ok(CsrMatrix::from_raw_parts(n, n, indptr, cols, vals)?)
}

/// One pooled pass over the rows of `power` and `s_acc`: `fill(r, row)`
/// writes row `r` of the next power, which is then added into `s_acc`
/// as `s_acc += alpha · row`.
fn power_step(
    s_acc: &mut DenseMatrix,
    power: &mut DenseMatrix,
    alpha: f64,
    threads: usize,
    fill: impl Fn(usize, &mut [f64]) + Sync,
) {
    let w = s_acc.ncols();
    let mut rows: Vec<(&mut [f64], &mut [f64])> = power
        .data_mut()
        .chunks_mut(w)
        .zip(s_acc.data_mut().chunks_mut(w))
        .collect();
    par_chunks_mut(&mut rows, threads, |start, block| {
        for (off, (row, acc)) in block.iter_mut().enumerate() {
            fill(start + off, row);
            for (a, &p) in acc.iter_mut().zip(row.iter()) {
                *a += alpha * p;
            }
        }
    });
}

fn spectral_embed(
    l: &CsrMatrix,
    params: &EmbedParams,
    warm: Option<&DenseMatrix>,
) -> Result<DenseMatrix> {
    let n = l.nrows();
    // The eigensolver seed block: the (near-)trivial λ ≈ 0 direction
    // up front — cheap and always right for a normalized Laplacian —
    // followed by the caller's warm columns (previous embedding
    // directions).
    let init = warm.map(|w| {
        let c = w.ncols().min(params.dim);
        let mut block = DenseMatrix::zeros(n, c + 1);
        let flat = 1.0 / (n as f64).sqrt();
        for i in 0..n {
            block[(i, 0)] = flat;
        }
        for j in 0..c {
            block.set_col(j + 1, &w.col(j));
        }
        block
    });
    // dim + 1 pairs: the first (trivial, λ ≈ 0) carries no discriminative
    // signal and is dropped. For the many-eigenpair regime (embeddings)
    // block subspace iteration is far cheaper than Lanczos with full
    // reorthogonalization; for small dims Lanczos is more accurate.
    let pairs = if params.dim + 1 > 24 {
        smallest_eigenpairs_subspace(
            l,
            params.dim + 1,
            &SubspaceOptions {
                seed: params.seed,
                threads: params.threads,
                // Warm runs may stop sweeping once Ritz values settle
                // to embedding grade; cold runs keep the historical
                // fixed sweep count.
                tol: if init.is_some() { 1e-3 } else { 0.0 },
                init: init.clone(),
                ..Default::default()
            },
        )?
    } else {
        let mut eig_opts = EigOptions::default();
        eig_opts.seed = params.seed;
        eig_opts.threads = params.threads;
        eig_opts.init = init;
        smallest_eigenpairs(l, params.dim + 1, &eig_opts)?
    };
    let mut emb = DenseMatrix::zeros(n, params.dim);
    for j in 0..params.dim {
        let lambda = pairs.values[j + 1];
        let mu = (1.0 - lambda).clamp(-1.0, 1.0);
        // DeepWalk filter f(μ) = (1/T) Σ_{t=1..T} μᵗ, clamped at 0.
        let mut f = 0.0;
        let mut mu_t = 1.0;
        for _ in 0..params.window {
            mu_t *= mu;
            f += mu_t;
        }
        f = (f / params.window as f64).max(0.0);
        let w = f.sqrt();
        for i in 0..n {
            emb[(i, j)] = pairs.vectors[(i, j + 1)] * w;
        }
    }
    Ok(emb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{KnnParams, ViewLaplacians};
    use mvag_graph::generators::{balanced_labels, sbm, SbmConfig};
    use mvag_graph::toy::toy_mvag;
    use mvag_sparse::vecops;
    use proptest::prelude::*;

    fn planted_laplacian(n: usize, seed: u64) -> (CsrMatrix, Vec<usize>) {
        let labels = balanced_labels(n, 2).unwrap();
        let g = sbm(
            &labels,
            &SbmConfig {
                p_in: 0.25,
                p_out: 0.01,
                ..Default::default()
            },
            seed,
        )
        .unwrap();
        (g.normalized_laplacian(), labels)
    }

    /// Mean cosine similarity within vs across ground-truth clusters.
    fn separation(emb: &DenseMatrix, labels: &[usize]) -> (f64, f64) {
        let n = emb.nrows();
        let (mut within, mut across) = (0.0, 0.0);
        let (mut cw, mut ca) = (0usize, 0usize);
        for i in (0..n).step_by(3) {
            for j in ((i + 1)..n).step_by(3) {
                let c = vecops::cosine(emb.row(i), emb.row(j));
                if labels[i] == labels[j] {
                    within += c;
                    cw += 1;
                } else {
                    across += c;
                    ca += 1;
                }
            }
        }
        (within / cw.max(1) as f64, across / ca.max(1) as f64)
    }

    #[test]
    fn netmf_separates_planted_clusters() {
        let (l, labels) = planted_laplacian(150, 3);
        let params = EmbedParams {
            dim: 16,
            backend: EmbedBackend::NetMf,
            ..Default::default()
        };
        let emb = embed(&l, &params).unwrap();
        assert_eq!(emb.nrows(), 150);
        assert_eq!(emb.ncols(), 16);
        let (within, across) = separation(&emb, &labels);
        assert!(within > across + 0.2, "within {within} vs across {across}");
    }

    #[test]
    fn spectral_separates_planted_clusters() {
        let (l, labels) = planted_laplacian(150, 5);
        let params = EmbedParams {
            dim: 16,
            backend: EmbedBackend::Spectral,
            ..Default::default()
        };
        let emb = embed(&l, &params).unwrap();
        let (within, across) = separation(&emb, &labels);
        assert!(within > across + 0.2, "within {within} vs across {across}");
    }

    #[test]
    fn auto_backend_switches() {
        let (l, _) = planted_laplacian(120, 7);
        let small = EmbedParams {
            dim: 8,
            netmf_threshold: 200,
            ..Default::default()
        };
        let large = EmbedParams {
            dim: 8,
            netmf_threshold: 50,
            ..Default::default()
        };
        // Both must run; NetMF and spectral give different matrices.
        let e1 = embed(&l, &small).unwrap();
        let e2 = embed(&l, &large).unwrap();
        assert_eq!(e1.nrows(), e2.nrows());
        let diff: f64 = e1
            .data()
            .iter()
            .zip(e2.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "backends should differ");
    }

    #[test]
    fn warm_embed_agrees_with_cold_subspace() {
        let (l, labels) = planted_laplacian(400, 21);
        // dim 26 > 24 routes through block subspace iteration (the
        // warm-exploiting path).
        let params = EmbedParams {
            dim: 26,
            backend: EmbedBackend::Spectral,
            ..Default::default()
        };
        let cold = embed(&l, &params).unwrap();
        let warm = embed_warm(&l, &params, Some(&cold)).unwrap();
        assert_eq!(warm.nrows(), 400);
        assert_eq!(warm.ncols(), 26);
        // Same cluster separation quality as the cold run.
        let (cw, ca) = separation(&cold, &labels);
        let (ww, wa) = separation(&warm, &labels);
        assert!(ww > wa + 0.2, "warm within {ww} vs across {wa}");
        assert!((cw - ww).abs() < 0.1 && (ca - wa).abs() < 0.1);
        // Wrong-sized warm blocks are rejected.
        assert!(embed_warm(&l, &params, Some(&DenseMatrix::zeros(3, 2))).is_err());
        // The Lanczos path (small dim) accepts a warm block too.
        let small = EmbedParams {
            dim: 6,
            backend: EmbedBackend::Spectral,
            ..Default::default()
        };
        let cold_small = embed(&l, &small).unwrap();
        let warm_small = embed_warm(&l, &small, Some(&cold_small)).unwrap();
        let (sw, sa) = separation(&warm_small, &labels);
        assert!(sw > sa + 0.2, "warm lanczos within {sw} vs across {sa}");
    }

    #[test]
    fn adjacency_roundtrip_from_laplacian() {
        let mvag = toy_mvag(60, 2, 1);
        let views = ViewLaplacians::build(&mvag, &KnnParams::default()).unwrap();
        let l = views.aggregate(&[0.5, 0.3, 0.2]).unwrap();
        let adj = adjacency_from_laplacian(&l);
        assert!(adj.is_symmetric(1e-10));
        assert!(adj.values().iter().all(|&v| v >= 0.0));
        assert!(adj.diag().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn validates_input() {
        let (l, _) = planted_laplacian(50, 9);
        let bad_dim = EmbedParams {
            dim: 0,
            ..Default::default()
        };
        assert!(embed(&l, &bad_dim).is_err());
        let too_big = EmbedParams {
            dim: 50,
            ..Default::default()
        };
        assert!(embed(&l, &too_big).is_err());
        let no_window = EmbedParams {
            dim: 4,
            window: 0,
            ..Default::default()
        };
        assert!(embed(&l, &no_window).is_err());
        assert!(embed(&CsrMatrix::zeros(3, 4), &EmbedParams::default()).is_err());
    }

    #[test]
    fn edgeless_graph_rejected_by_netmf() {
        let l = CsrMatrix::identity(60); // Laplacian of an edgeless graph
        let params = EmbedParams {
            dim: 4,
            backend: EmbedBackend::NetMf,
            ..Default::default()
        };
        assert!(embed(&l, &params).is_err());
    }

    #[test]
    fn deterministic() {
        let (l, _) = planted_laplacian(100, 11);
        let params = EmbedParams {
            dim: 8,
            ..Default::default()
        };
        let a = embed(&l, &params).unwrap();
        let b = embed(&l, &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_finite_laplacian_rejected() {
        for backend in [EmbedBackend::NetMf, EmbedBackend::Spectral] {
            let (mut l, _) = planted_laplacian(60, 13);
            l.values_mut()[5] = f64::NAN;
            let params = EmbedParams {
                dim: 4,
                backend,
                ..Default::default()
            };
            assert!(matches!(
                embed(&l, &params),
                Err(SglaError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn netmf_bits_do_not_depend_on_thread_count() {
        let (l, _) = planted_laplacian(220, 17);
        let run = |threads| {
            let params = EmbedParams {
                dim: 16,
                backend: EmbedBackend::NetMf,
                threads,
                ..Default::default()
            };
            embed(&l, &params).unwrap()
        };
        let one = run(1);
        for threads in 2..=4 {
            assert_eq!(run(threads), one, "threads {threads}");
        }
    }

    /// The dense power loop the panelled row passes replaced: `P̃ · I`
    /// for the first power, a fresh `n × n` block per step, a serial
    /// `add_scaled` and a serial log pass. Kept as the bit-identity
    /// oracle.
    fn reference_similarity(l: &CsrMatrix, params: &EmbedParams) -> DenseMatrix {
        let n = l.nrows();
        let adj = adjacency_from_laplacian(l);
        let deg = adj.row_sums();
        let vol: f64 = deg.iter().sum();
        let p_tilde = adj.sym_normalized();
        let mut power = DenseMatrix::identity(n);
        let mut s_acc = DenseMatrix::zeros(n, n);
        for _t in 0..params.window {
            let mut next = DenseMatrix::zeros(n, n);
            p_tilde.matvec_block(&power, &mut next, params.threads);
            power = next;
            s_acc
                .add_scaled(1.0 / params.window as f64, &power)
                .unwrap();
        }
        let inv_sqrt: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let scale = vol / params.negative;
        for i in 0..n {
            let row = s_acc.row_mut(i);
            let isi = inv_sqrt[i];
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v * isi * inv_sqrt[j] * scale).max(1.0).ln();
            }
        }
        s_acc
    }

    /// A Laplacian-shaped matrix: unit diagonal, negative off-diagonal
    /// weights (some nodes isolated) and a few positive off-diagonal
    /// entries that the adjacency recovery must drop.
    fn oracle_laplacian(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = TestRng::new(seed);
        let isolated: Vec<bool> = (0..n).map(|_| rng.below(7) == 0).collect();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            for j in (i + 1)..n {
                if isolated[i] || isolated[j] || rng.below(4) != 0 {
                    continue;
                }
                let w = rng.unit_f64() + 1e-3;
                let sign = if rng.below(9) == 0 { 1.0 } else { -1.0 };
                coo.push_sym(i, j, sign * w).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The log similarity `M` densified from the panelled kernel at its
    /// production panel width.
    fn netmf_similarity(l: &CsrMatrix, params: &EmbedParams) -> Result<DenseMatrix> {
        netmf_similarity_transposed(l, params, panel_width(l.nrows()))
            .map(|mt| mt.transpose().to_dense())
    }

    /// `l` with every edge at the given nodes removed (their diagonal
    /// entries stay).
    fn isolate(l: &CsrMatrix, nodes: &[usize]) -> CsrMatrix {
        let n = l.nrows();
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in l.iter() {
            if r == c || !(nodes.contains(&r) || nodes.contains(&c)) {
                coo.push(r, c, v).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Asserts that `mt` stores exactly the nonzeros of `want`ᵀ, each
    /// with `want`'s bits.
    fn assert_transpose_of(mt: &CsrMatrix, want: &DenseMatrix, ctx: &str) {
        let n = want.nrows();
        assert_eq!((mt.nrows(), mt.ncols()), (n, n), "{ctx}");
        let mut stored = 0;
        for j in 0..n {
            for (&i, &v) in mt.row_cols(j).iter().zip(mt.row_vals(j)) {
                assert_eq!(v.to_bits(), want[(i, j)].to_bits(), "{ctx}: M[{i}, {j}]");
                stored += 1;
            }
        }
        let nonzeros = want.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(stored, nonzeros, "{ctx}: zero pattern");
    }

    #[test]
    fn panels_match_reference_at_every_width_and_window() {
        for width in [1usize, 4, 8] {
            for n in [width.saturating_sub(1), width, width + 1, 3 * width + 5] {
                if n < 2 {
                    continue;
                }
                for window in 1..=6 {
                    for seed in 0..3 {
                        let mut l = oracle_laplacian(n, seed);
                        if seed == 2 {
                            l = isolate(&l, &[0, n / 2, n - 1]);
                        }
                        let params = EmbedParams {
                            window,
                            threads: 2,
                            ..Default::default()
                        };
                        let ctx = format!("width {width}, n = {n}, window {window}, seed {seed}");
                        match netmf_similarity_transposed(&l, &params, width) {
                            Ok(mt) => {
                                assert_transpose_of(&mt, &reference_similarity(&l, &params), &ctx)
                            }
                            Err(_) => assert_eq!(adjacency_from_laplacian(&l).nnz(), 0, "{ctx}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn panels_match_reference_at_pool_sizes() {
        // Two panels at the production width, the second a tail, with
        // pooled row passes.
        let (l, _) = planted_laplacian(300, 23);
        let width = panel_width(300);
        assert!(width < 300 && 300 % width != 0, "width {width}");
        let want = reference_similarity(
            &l,
            &EmbedParams {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in 1..=4 {
            let params = EmbedParams {
                threads,
                ..Default::default()
            };
            let mt = netmf_similarity_transposed(&l, &params, width).unwrap();
            assert_transpose_of(&mt, &want, &format!("threads {threads}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn similarity_matches_reference(
            n in 2usize..70,
            window in 1usize..7,
            negative in 0.5f64..2.0,
            threads in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let l = oracle_laplacian(n, seed);
            let params = EmbedParams { window, negative, threads, ..Default::default() };
            let ctx = format!("n = {n}, window = {window}, threads = {threads}, seed = {seed}");
            match netmf_similarity(&l, &params) {
                Ok(m) => prop_assert_eq!(m, reference_similarity(&l, &params), "{}", ctx),
                Err(_) => prop_assert_eq!(adjacency_from_laplacian(&l).nnz(), 0, "{}", ctx),
            }
        }
    }
}
