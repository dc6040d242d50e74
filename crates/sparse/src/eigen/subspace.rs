//! Block subspace iteration for *many* smallest eigenpairs.
//!
//! The Lanczos driver is ideal for the `k + 1 ≲ 25` eigenvalues the SGLA
//! objective needs, but its full reorthogonalization costs `O(m²n)` with
//! basis size `m ≈ 6k` — prohibitive for the 64-dimensional spectral
//! embeddings. Block subspace iteration (orthogonal/power iteration with
//! Rayleigh–Ritz extraction) computes a whole invariant-subspace
//! approximation at `O(iters · (nnz·b + b²n))` for block size `b`, which
//! is the right trade-off when `b` is large and moderate accuracy
//! suffices (embeddings, not objective values).

use super::jacobi::jacobi_eig;
use super::lanczos::EigResult;
use crate::linop::{LinOp, ShiftedNegOp};
use crate::qr::qr_thin;
use crate::{vecops, DenseMatrix, Result, SparseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for [`smallest_eigenpairs_subspace`].
#[derive(Debug, Clone)]
pub struct SubspaceOptions {
    /// Power-iteration sweeps (default 30; an upper bound when `tol`
    /// enables early exit).
    pub iters: usize,
    /// Extra block columns beyond `k` (default 8).
    pub oversample: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the block matvec.
    pub threads: usize,
    /// Optional warm-start block: an `n × c` matrix whose column span
    /// approximates the sought invariant subspace (e.g. the previous
    /// solve's eigenvectors on a slightly perturbed operator). The
    /// first `min(c, b)` block columns start from it (remaining
    /// columns stay random); combine with `tol` so the sweep loop can
    /// actually stop early once the warm subspace has settled.
    /// Default `None`.
    pub init: Option<DenseMatrix>,
    /// Ritz-value convergence tolerance for early exit: after each
    /// sweep the Rayleigh quotient of the current block is
    /// eigensolved (an `O(b³)` side computation — negligible next to
    /// the `O(nnz·b)` sweep) and the loop stops once the top `k` Ritz
    /// values' relative change drops below `tol`. `0.0` (the default)
    /// disables the check and always runs exactly `iters` sweeps,
    /// preserving the historical fixed-sweep behaviour bit for bit.
    pub tol: f64,
}

impl Default for SubspaceOptions {
    fn default() -> Self {
        SubspaceOptions {
            iters: 30,
            oversample: 8,
            seed: 19,
            threads: crate::parallel::default_threads(),
            init: None,
            tol: 0.0,
        }
    }
}

/// Computes the `k` smallest eigenpairs of a bounded symmetric operator by
/// block subspace iteration on the spectral complement.
///
/// Accuracy is governed by `(λ_{k+b}/λ_k)`-style ratios and the sweep
/// count; intended for spectral embeddings where a relative error of
/// ~1e-4 in the eigenvalues is irrelevant.
///
/// # Errors
/// [`SparseError::InvalidArgument`] for `k == 0` or `k > n`.
pub fn smallest_eigenpairs_subspace(
    op: &(dyn LinOp + Sync),
    k: usize,
    opts: &SubspaceOptions,
) -> Result<EigResult> {
    let n = op.dim();
    if k == 0 || k > n {
        return Err(SparseError::InvalidArgument(format!(
            "subspace iteration: k = {k} invalid for n = {n}"
        )));
    }
    let shift = match op.spectral_bound() {
        Some(bound) => bound * (1.0 + 1e-10) + 1e-12,
        None => {
            return Err(SparseError::InvalidArgument(
                "subspace iteration needs a spectral bound".into(),
            ))
        }
    };
    let b_op = ShiftedNegOp::new(op, shift);
    let b = (k + opts.oversample).min(n);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut q = DenseMatrix::zeros(n, b);
    for v in q.data_mut() {
        *v = rng.gen::<f64>() - 0.5;
    }
    // Warm start: the guess block's columns replace the leading random
    // columns (the trailing oversample columns stay random so the
    // block still explores beyond the guess).
    if let Some(init) = &opts.init {
        if init.nrows() != n {
            return Err(SparseError::InvalidArgument(format!(
                "warm-start block has {} rows for an {n}-dimensional operator",
                init.nrows()
            )));
        }
        for j in 0..init.ncols().min(b) {
            q.set_col(j, &init.col(j));
        }
    }
    crate::qr::orthonormalize(&mut q)?;
    let mut matvecs = 0usize;
    let mut prev_ritz: Option<Vec<f64>> = None;
    for _sweep in 0..opts.iters {
        let z = block_matvec(&b_op, &q, opts.threads);
        matvecs += b;
        // Early exit on Ritz-value stagnation: Qᵀ(BQ) is a free
        // by-product of the sweep (Z = BQ is already in hand).
        if opts.tol > 0.0 {
            let mut t = q.gram(&z)?;
            for i in 0..b {
                for j in 0..i {
                    let avg = 0.5 * (t[(i, j)] + t[(j, i)]);
                    t[(i, j)] = avg;
                    t[(j, i)] = avg;
                }
            }
            let eig = jacobi_eig(&t)?;
            // Largest μ of B ↔ smallest λ of op; track the top k.
            let ritz: Vec<f64> = (0..k.min(b)).map(|j| eig.values[b - 1 - j]).collect();
            let settled = prev_ritz.as_ref().is_some_and(|prev| {
                prev.iter()
                    .zip(&ritz)
                    .all(|(p, c)| (p - c).abs() <= opts.tol * (1.0 + c.abs()))
            });
            prev_ritz = Some(ritz);
            if settled {
                let (q2, _) = qr_thin(&z)?;
                q = q2;
                break;
            }
        }
        let (q2, _) = qr_thin(&z)?;
        q = q2;
    }
    // Rayleigh–Ritz on the converged block: T = Qᵀ B Q.
    let bq = block_matvec(&b_op, &q, opts.threads);
    matvecs += b;
    let t = q.gram(&bq)?;
    // Symmetrize rounding noise.
    let mut t_sym = t.clone();
    for i in 0..b {
        for j in 0..b {
            t_sym[(i, j)] = 0.5 * (t[(i, j)] + t[(j, i)]);
        }
    }
    let eig = jacobi_eig(&t_sym)?;
    // Largest μ of B ↔ smallest λ of op.
    let mut values = Vec::with_capacity(k);
    let mut vectors = DenseMatrix::zeros(n, k);
    for j in 0..k {
        let col = b - 1 - j;
        values.push(shift - eig.values[col]);
        let s = eig.vectors.col(col);
        let mut v = vec![0.0f64; n];
        for (p, &sp) in s.iter().enumerate() {
            if sp != 0.0 {
                vecops::axpy(sp, &q.col(p), &mut v);
            }
        }
        vecops::normalize(&mut v);
        vectors.set_col(j, &v);
    }
    Ok(EigResult {
        values,
        vectors,
        matvecs,
        converged: true,
        stats: super::lanczos::EigStats::default(),
    })
}

/// Applies `op` to every column of `q` via the operator's batched
/// kernel: for CSR-backed operators one traversal of each sparse row
/// updates the whole block (see [`crate::CsrMatrix::matvec_block`]),
/// instead of `b` independent walks over the index structure.
fn block_matvec(op: &(dyn LinOp + Sync), q: &DenseMatrix, threads: usize) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(q.nrows(), q.ncols());
    op.matvec_block(q, &mut out, threads);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use std::f64::consts::PI;

    fn cycle_norm_laplacian(n: usize) -> crate::CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i, (i + 1) % n, -0.5).unwrap();
            coo.push(i, (i + n - 1) % n, -0.5).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn cycle_loose_accuracy() {
        // The cycle has a pathologically flat spectrum (no gap), the worst
        // case for power iteration; only embedding-grade accuracy is
        // expected here.
        let n = 500;
        let l = cycle_norm_laplacian(n);
        let res = smallest_eigenpairs_subspace(&l, 12, &SubspaceOptions::default()).unwrap();
        let mut expect: Vec<f64> = (0..n)
            .map(|j| 1.0 - (2.0 * PI * j as f64 / n as f64).cos())
            .collect();
        expect.sort_by(f64::total_cmp);
        for j in 0..12 {
            assert!(
                (res.values[j] - expect[j]).abs() < 0.03,
                "λ{j}: {} vs {}",
                res.values[j],
                expect[j]
            );
        }
    }

    #[test]
    fn matches_lanczos_on_gapped_graph() {
        // Two dense blocks weakly joined: a clear spectral gap, the regime
        // the embedding backend actually sees. Subspace iteration should
        // agree with the (accurate) Lanczos driver.
        let n = 400;
        let mut coo = CooMatrix::new(n, n);
        let mut state = 1u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for block in 0..2usize {
            let off = block * 200;
            for _ in 0..3000 {
                let (u, v) = (off + next() % 200, off + next() % 200);
                if u != v {
                    coo.push_sym(u, v, 1.0).unwrap();
                }
            }
        }
        for _ in 0..20 {
            let (u, v) = (next() % 200, 200 + next() % 200);
            coo.push_sym(u, v, 1.0).unwrap();
        }
        let adj = coo.to_csr();
        let p = adj.sym_normalized();
        let eye = crate::CsrMatrix::identity(n);
        let l = crate::CsrMatrix::linear_combination(&[&eye, &p], &[1.0, -1.0]).unwrap();
        let sub = smallest_eigenpairs_subspace(&l, 6, &SubspaceOptions::default()).unwrap();
        let lan = super::super::lanczos::smallest_eigenvalues(
            &l,
            6,
            &super::super::lanczos::EigOptions::default(),
        )
        .unwrap();
        // The two below-gap eigenvalues converge fast; bulk eigenvalues
        // (near-degenerate random-graph bulk) only to embedding grade.
        for j in 0..2 {
            assert!(
                (sub.values[j] - lan[j]).abs() < 1e-6 * (1.0 + lan[j].abs()),
                "λ{j}: subspace {} vs lanczos {}",
                sub.values[j],
                lan[j]
            );
        }
        for j in 2..6 {
            assert!(
                (sub.values[j] - lan[j]).abs() < 0.05,
                "λ{j}: subspace {} vs lanczos {}",
                sub.values[j],
                lan[j]
            );
        }
    }

    #[test]
    fn vectors_orthonormal() {
        let l = cycle_norm_laplacian(300);
        let res = smallest_eigenpairs_subspace(&l, 8, &SubspaceOptions::default()).unwrap();
        for i in 0..8 {
            for j in i..8 {
                let d = vecops::dot(&res.vectors.col(i), &res.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-6, "v{i}·v{j} = {d}");
            }
        }
    }

    #[test]
    fn warm_start_with_tol_stops_early_and_agrees() {
        // Gapped two-block graph (same construction as the Lanczos
        // comparison test, smaller): warm-start + early exit must
        // agree with the fixed-sweep solve while doing less work.
        let n = 300;
        let l = {
            let mut coo = CooMatrix::new(n, n);
            let mut state = 7u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for block in 0..2usize {
                let off = block * 150;
                for _ in 0..2000 {
                    let (u, v) = (off + next() % 150, off + next() % 150);
                    if u != v {
                        coo.push_sym(u, v, 1.0).unwrap();
                    }
                }
            }
            for _ in 0..15 {
                let (u, v) = (next() % 150, 150 + next() % 150);
                coo.push_sym(u, v, 1.0).unwrap();
            }
            let adj = coo.to_csr();
            let p = adj.sym_normalized();
            let eye = crate::CsrMatrix::identity(n);
            crate::CsrMatrix::linear_combination(&[&eye, &p], &[1.0, -1.0]).unwrap()
        };
        let cold = smallest_eigenpairs_subspace(&l, 8, &SubspaceOptions::default()).unwrap();
        let warm_opts = SubspaceOptions {
            init: Some(cold.vectors.clone()),
            tol: 1e-3,
            ..SubspaceOptions::default()
        };
        let warm = smallest_eigenpairs_subspace(&l, 8, &warm_opts).unwrap();
        assert!(
            warm.matvecs < cold.matvecs,
            "warm {} matvecs vs cold {}",
            warm.matvecs,
            cold.matvecs
        );
        for j in 0..8 {
            // Below-gap eigenvalues are sharp; the near-degenerate
            // random-graph bulk is only embedding-grade (tol 1e-3
            // stops the sweep loop once changes fall below that).
            let tol = if j < 2 { 1e-6 } else { 5e-3 };
            assert!(
                (warm.values[j] - cold.values[j]).abs() < tol * (1.0 + cold.values[j].abs()),
                "λ{j}: warm {} vs cold {}",
                warm.values[j],
                cold.values[j]
            );
        }
        // A wrong-sized warm block is rejected.
        let bad = SubspaceOptions {
            init: Some(DenseMatrix::zeros(5, 2)),
            ..SubspaceOptions::default()
        };
        assert!(smallest_eigenpairs_subspace(&l, 4, &bad).is_err());
    }

    #[test]
    fn rejects_bad_k() {
        let l = cycle_norm_laplacian(50);
        assert!(smallest_eigenpairs_subspace(&l, 0, &SubspaceOptions::default()).is_err());
        assert!(smallest_eigenpairs_subspace(&l, 51, &SubspaceOptions::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let l = cycle_norm_laplacian(200);
        let a = smallest_eigenpairs_subspace(&l, 5, &SubspaceOptions::default()).unwrap();
        let b = smallest_eigenpairs_subspace(&l, 5, &SubspaceOptions::default()).unwrap();
        assert_eq!(a.values, b.values);
    }
}
