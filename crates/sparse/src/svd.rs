//! Randomized truncated SVD (Halko–Martinsson–Tropp range finding).
//!
//! Used by the NetMF embedding backend to factorize the sparse
//! log-similarity matrix `M ≈ U_d Σ_d V_dᵀ`, from which the node embedding
//! is `U_d Σ_d^{1/2}`. Power iterations sharpen the spectral decay, which
//! matters because log-transformed similarity matrices have heavy tails.

use crate::eigen::jacobi::jacobi_eig;
use crate::parallel::default_threads;
use crate::qr::qr_thin;
use crate::{CsrMatrix, DenseMatrix, Result, SparseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a truncated SVD: `a ≈ u · diag(s) · vt`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Left singular vectors, `nrows × rank`.
    pub u: DenseMatrix,
    /// Singular values, descending, length `rank`.
    pub s: Vec<f64>,
    /// Right singular vectors transposed, `rank × ncols`.
    pub vt: DenseMatrix,
}

/// Options for [`rsvd`].
#[derive(Debug, Clone)]
pub struct RsvdOptions {
    /// Extra sampled directions beyond the target rank (default 8).
    pub oversample: usize,
    /// Power iterations (default 2).
    pub power_iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the products (default: autodetect, ≤ 16).
    /// The result is the same at every thread count.
    pub threads: usize,
}

impl Default for RsvdOptions {
    fn default() -> Self {
        RsvdOptions {
            oversample: 8,
            power_iters: 2,
            seed: 17,
            threads: default_threads(),
        }
    }
}

/// Computes a rank-`rank` randomized SVD of `a`.
///
/// The products with `A` touch its nonzeros only: `A` and its
/// transpose (built once) are [`CsrMatrix`] operands of every product,
/// a [`CsrMatrix::matvec_block`] (`A·X`, `AᵀQ`, and `B = QᵀA` as the
/// transpose of `AᵀQ`). Each output element is one ascending sum over
/// the nonzeros, so the result does not depend on `opts.threads`.
///
/// # Errors
/// [`SparseError::InvalidArgument`] if `rank == 0`, `rank` exceeds
/// `min(nrows, ncols)`, or `a` stores a non-finite value.
pub fn rsvd(a: &CsrMatrix, rank: usize, opts: &RsvdOptions) -> Result<TruncatedSvd> {
    let (n, m) = (a.nrows(), a.ncols());
    if rank == 0 || rank > n.min(m) {
        return Err(SparseError::InvalidArgument(format!(
            "rsvd rank {rank} invalid for {n}x{m} matrix"
        )));
    }
    if a.values().iter().any(|v| !v.is_finite()) {
        return Err(SparseError::InvalidArgument(
            "rsvd input holds a non-finite value".into(),
        ));
    }
    let l = (rank + opts.oversample).min(n.min(m));
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let at = a.transpose();
    let times = |op: &CsrMatrix, x: &DenseMatrix| {
        let mut y = DenseMatrix::zeros(op.nrows(), x.ncols());
        op.matvec_block(x, &mut y, opts.threads);
        y
    };

    // Sketch: Y = A Ω.
    let omega = gaussian(m, l, &mut rng);
    let (mut q, _) = qr_thin(&times(a, &omega))?;
    // Power iterations with re-orthogonalization: Q ← orth(A Aᵀ Q).
    for _ in 0..opts.power_iters {
        let (qz, _) = qr_thin(&times(&at, &q))?; // orth(Aᵀ Q)  (m × l)
        let (q2, _) = qr_thin(&times(a, &qz))?; // orth(A Qz)  (n × l)
        q = q2;
    }
    // B = Qᵀ A = (Aᵀ Q)ᵀ  (l × m)
    let b = times(&at, &q).transpose();
    factor_projection(&q, &b, rank)
}

/// The small-side finish of [`rsvd`] (and of its test oracle): the SVD
/// of the projection `B = QᵀA` through the eigendecomposition of
/// `B Bᵀ` (`l × l`), lifted back through `Q`.
fn factor_projection(q: &DenseMatrix, b: &DenseMatrix, rank: usize) -> Result<TruncatedSvd> {
    let l = b.nrows();
    let bbt = b.matmul(&b.transpose())?;
    let eig = jacobi_eig(&bbt)?;
    // Descending singular values.
    let mut order: Vec<usize> = (0..eig.values.len()).collect();
    order.sort_by(|&x, &y| eig.values[y].total_cmp(&eig.values[x]));
    let mut s = Vec::with_capacity(rank);
    let mut u_small = DenseMatrix::zeros(l, rank);
    for (j, &col) in order.iter().take(rank).enumerate() {
        s.push(eig.values[col].max(0.0).sqrt());
        u_small.set_col(j, &eig.vectors.col(col));
    }
    let u = q.matmul(&u_small)?; // n × rank

    // Vᵀ = Σ⁻¹ Ũᵀ B  (rank × m)
    let mut vt = u_small.transpose().matmul(b)?;
    for (j, &sj) in s.iter().enumerate() {
        let inv = if sj > 1e-300 { 1.0 / sj } else { 0.0 };
        for v in vt.row_mut(j) {
            *v *= inv;
        }
    }
    Ok(TruncatedSvd { u, s, vt })
}

fn gaussian(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    // Box–Muller from uniform pairs.
    let mut spare: Option<f64> = None;
    for v in m.data_mut() {
        *v = match spare.take() {
            Some(z) => z,
            None => {
                let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-300), rng.gen());
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                spare = Some(r * theta.sin());
                r * theta.cos()
            }
        };
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_matrix(n: usize, m: usize, rank: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = gaussian(n, rank, &mut rng);
        let v = gaussian(m, rank, &mut rng);
        let mut out = DenseMatrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..rank {
                    // Decaying spectrum 1/(p+1).
                    acc += u[(i, p)] * v[(j, p)] / (p as f64 + 1.0);
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn recovers_exact_low_rank() {
        let a = low_rank_matrix(60, 40, 5, 3);
        let svd = rsvd(&CsrMatrix::from_dense(&a), 5, &RsvdOptions::default()).unwrap();
        // Reconstruction error should be tiny.
        let us = {
            let mut us = svd.u.clone();
            for j in 0..5 {
                for i in 0..60 {
                    us[(i, j)] *= svd.s[j];
                }
            }
            us
        };
        let rec = us.matmul(&svd.vt).unwrap();
        let mut err: f64 = 0.0;
        for i in 0..60 {
            for j in 0..40 {
                err = err.max((rec[(i, j)] - a[(i, j)]).abs());
            }
        }
        assert!(err < 1e-8, "reconstruction error {err}");
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let a = low_rank_matrix(50, 50, 10, 11);
        let svd = rsvd(&CsrMatrix::from_dense(&a), 8, &RsvdOptions::default()).unwrap();
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn orthonormal_u() {
        let a = low_rank_matrix(70, 30, 6, 5);
        let svd = rsvd(&CsrMatrix::from_dense(&a), 6, &RsvdOptions::default()).unwrap();
        for i in 0..6 {
            for j in i..6 {
                let d = crate::vecops::dot(&svd.u.col(i), &svd.u.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "u{i}·u{j} = {d}");
            }
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        let a = CsrMatrix::zeros(5, 4);
        assert!(rsvd(&a, 0, &RsvdOptions::default()).is_err());
        assert!(rsvd(&a, 5, &RsvdOptions::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let a = CsrMatrix::from_dense(&low_rank_matrix(40, 40, 4, 9));
        let s1 = rsvd(&a, 4, &RsvdOptions::default()).unwrap();
        let s2 = rsvd(&a, 4, &RsvdOptions::default()).unwrap();
        assert_eq!(s1.s, s2.s);
    }

    #[test]
    fn non_finite_input_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = low_rank_matrix(20, 12, 3, 4);
            a[(7, 5)] = bad;
            assert!(matches!(
                rsvd(&CsrMatrix::from_dense(&a), 3, &RsvdOptions::default()),
                Err(SparseError::InvalidArgument(_))
            ));
        }
    }

    /// The dense-product `rsvd` the sparse products replaced, at one
    /// thread: `A·X` as `matmul_par`'s row loop (`DenseMatrix::matmul`,
    /// zero entries of `A` skipped), `AᵀQ` and `QᵀA` as `matmul_tn_par`'s
    /// single partial (`DenseMatrix::gram`) added into a zero matrix.
    /// Kept as the bit-identity oracle.
    fn reference_rsvd(a: &DenseMatrix, rank: usize, opts: &RsvdOptions) -> TruncatedSvd {
        let tn = |x: &DenseMatrix, y: &DenseMatrix| {
            let mut out = DenseMatrix::zeros(x.ncols(), y.ncols());
            out.add_scaled(1.0, &x.gram(y).unwrap()).unwrap();
            out
        };
        let (n, m) = (a.nrows(), a.ncols());
        let l = (rank + opts.oversample).min(n.min(m));
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let omega = gaussian(m, l, &mut rng);
        let (mut q, _) = qr_thin(&a.matmul(&omega).unwrap()).unwrap();
        for _ in 0..opts.power_iters {
            let (qz, _) = qr_thin(&tn(a, &q)).unwrap();
            let (q2, _) = qr_thin(&a.matmul(&qz).unwrap()).unwrap();
            q = q2;
        }
        factor_projection(&q, &tn(&q, a), rank).unwrap()
    }

    /// A sparse nonnegative matrix (a thresholded low-rank product, like
    /// NetMF's log similarity) with some all-zero rows and columns.
    fn oracle_matrix(n: usize, m: usize, seed: u64) -> DenseMatrix {
        let mut a = low_rank_matrix(n, m, (n.min(m) / 2).max(1), seed);
        let mut rng = proptest::prelude::TestRng::new(seed);
        let zero_rows: Vec<bool> = (0..n).map(|_| rng.below(6) == 0).collect();
        let zero_cols: Vec<bool> = (0..m).map(|_| rng.below(6) == 0).collect();
        for i in 0..n {
            for j in 0..m {
                let v = &mut a[(i, j)];
                *v = if zero_rows[i] || zero_cols[j] {
                    0.0
                } else {
                    v.max(0.0)
                };
            }
        }
        a
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn sparse_products_match_dense_reference(
            n in 2usize..60,
            m in 2usize..60,
            rank_pick in 0usize..64,
            threads in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            // rank_pick ≥ 48 forces the full rank min(n, m).
            let full = n.min(m);
            let rank = if rank_pick >= 48 { full } else { 1 + rank_pick % full };
            let a = oracle_matrix(n, m, seed);
            let opts = RsvdOptions { seed, threads, ..Default::default() };
            let got = rsvd(&CsrMatrix::from_dense(&a), rank, &opts).unwrap();
            let want = reference_rsvd(&a, rank, &RsvdOptions { threads: 1, ..opts });
            let ctx = format!("n = {n}, m = {m}, rank = {rank}, threads = {threads}, seed = {seed}");
            proptest::prop_assert_eq!(&got.u, &want.u, "{}", ctx);
            proptest::prop_assert_eq!(&got.s, &want.s, "{}", ctx);
            proptest::prop_assert_eq!(&got.vt, &want.vt, "{}", ctx);
        }
    }

    #[test]
    fn sparse_products_match_dense_reference_at_pool_sizes() {
        // Large enough that every product runs on the worker pool.
        let a = oracle_matrix(240, 200, 5);
        let want = reference_rsvd(
            &a,
            16,
            &RsvdOptions {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in 1..=4 {
            let got = rsvd(
                &CsrMatrix::from_dense(&a),
                16,
                &RsvdOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                (&got.u, &got.s, &got.vt),
                (&want.u, &want.s, &want.vt),
                "threads {threads}"
            );
        }
        // The zero matrix: rank-deficient everywhere.
        let z = DenseMatrix::zeros(30, 20);
        let got = rsvd(
            &CsrMatrix::from_dense(&z),
            20,
            &RsvdOptions {
                threads: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let want = reference_rsvd(
            &z,
            20,
            &RsvdOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!((&got.u, &got.s, &got.vt), (&want.u, &want.s, &want.vt));
    }
}
