//! Thin QR factorization for tall-skinny dense matrices.
//!
//! Modified Gram–Schmidt with one reorthogonalization pass ("MGS2"), which
//! is numerically adequate for the well-conditioned panels arising in
//! randomized range finding and spectral-embedding post-processing.

use crate::{vecops, DenseMatrix, Result, SparseError};

/// Thin QR of an `n × k` matrix (`n ≥ k`): returns `(Q, R)` with `Q` being
/// `n × k` with orthonormal columns and `R` upper-triangular `k × k`.
///
/// Rank-deficient columns are replaced by zero columns in `Q` with a zero
/// diagonal in `R` (callers detect via [`rank_from_r`]).
///
/// # Errors
/// [`SparseError::ShapeMismatch`] if `n < k`.
pub fn qr_thin(a: &DenseMatrix) -> Result<(DenseMatrix, DenseMatrix)> {
    let n = a.nrows();
    let k = a.ncols();
    if n < k {
        return Err(SparseError::ShapeMismatch(format!(
            "qr_thin needs n >= k, got {n}x{k}"
        )));
    }
    // MGS2 on a transposed working copy: column j of Q is row j of
    // `qt`, so every pass walks contiguous memory instead of striding
    // down a row-major panel. Same operations in the same order.
    let mut qt = a.transpose();
    let mut r = DenseMatrix::zeros(k, k);
    for j in 0..k {
        let (done, rest) = qt.data_mut().split_at_mut(j * n);
        let col = &mut rest[..n];
        // Two MGS passes against previous columns.
        for _pass in 0..2 {
            for (p, qp) in done.chunks_exact(n).enumerate() {
                let mut proj = 0.0;
                for (&qi, &ci) in qp.iter().zip(col.iter()) {
                    proj += qi * ci;
                }
                if proj != 0.0 {
                    for (ci, &qi) in col.iter_mut().zip(qp) {
                        *ci -= proj * qi;
                    }
                    r[(p, j)] += proj;
                }
            }
        }
        let nrm = vecops::norm2(col);
        r[(j, j)] = nrm;
        if nrm > f64::EPSILON * (n as f64).sqrt() {
            let inv = 1.0 / nrm;
            for ci in col.iter_mut() {
                *ci *= inv;
            }
        } else {
            col.fill(0.0);
            r[(j, j)] = 0.0;
        }
    }
    Ok((qt.transpose(), r))
}

/// Numerical rank read off the diagonal of `R` from [`qr_thin`].
pub fn rank_from_r(r: &DenseMatrix, tol: f64) -> usize {
    (0..r.nrows().min(r.ncols()))
        .filter(|&i| r[(i, i)].abs() > tol)
        .count()
}

/// Orthonormalizes the columns of `a` in place (discarding `R`); returns the
/// numerical rank.
///
/// # Errors
/// Propagates [`qr_thin`] errors.
pub fn orthonormalize(a: &mut DenseMatrix) -> Result<usize> {
    let (q, r) = qr_thin(a)?;
    *a = q;
    Ok(rank_from_r(&r, 1e-12))
}

/// Relative Frobenius residual of projecting `e` onto the column span
/// of `reference`: `‖E − Q Qᵀ E‖_F / ‖E‖_F` with `Q` an orthonormal
/// basis of `reference` (thin QR). `0` means `e`'s columns lie inside
/// the reference span; `1` means they are orthogonal to it. This is
/// the subspace-agreement metric the incremental-update verification
/// uses to compare a warm-updated embedding against a from-scratch
/// retrain.
///
/// # Errors
/// Propagates [`qr_thin`] errors; [`SparseError::ShapeMismatch`] if
/// the row counts differ.
pub fn subspace_residual(e: &DenseMatrix, reference: &DenseMatrix) -> Result<f64> {
    let (q, _) = qr_thin(reference)?;
    let proj = q.gram(e)?; // Qᵀ E
    let total = e.frobenius_norm();
    let captured = proj.frobenius_norm();
    Ok(((total * total - captured * captured).max(0.0)).sqrt() / total.max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The in-place MGS2 the transposed kernel replaced: it walks
    /// `q[(i, p)]` down the columns of the row-major panel. Kept as the
    /// bit-identity oracle.
    fn reference_qr_thin(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
        let (n, k) = (a.nrows(), a.ncols());
        let mut q = a.clone();
        let mut r = DenseMatrix::zeros(k, k);
        let mut col = vec![0.0; n];
        for j in 0..k {
            for (i, c) in col.iter_mut().enumerate() {
                *c = q[(i, j)];
            }
            for _pass in 0..2 {
                for p in 0..j {
                    let mut proj = 0.0;
                    for i in 0..n {
                        proj += q[(i, p)] * col[i];
                    }
                    if proj != 0.0 {
                        for i in 0..n {
                            col[i] -= proj * q[(i, p)];
                        }
                        r[(p, j)] += proj;
                    }
                }
            }
            let nrm = vecops::norm2(&col);
            r[(j, j)] = nrm;
            if nrm > f64::EPSILON * (n as f64).sqrt() {
                let inv = 1.0 / nrm;
                for i in 0..n {
                    q[(i, j)] = col[i] * inv;
                }
            } else {
                for i in 0..n {
                    q[(i, j)] = 0.0;
                }
                r[(j, j)] = 0.0;
            }
        }
        (q, r)
    }

    /// A panel with zero rows, zero columns and repeated (rank-deficient)
    /// columns mixed into random ones.
    fn oracle_panel(n: usize, k: usize, seed: u64) -> DenseMatrix {
        let mut rng = TestRng::new(seed);
        let mut a = DenseMatrix::zeros(n, k);
        for j in 0..k {
            match rng.below(6) {
                0 => {}
                1 if j > 0 => {
                    let src = a.col(rng.below(j as u64) as usize);
                    a.set_col(j, &src);
                }
                _ => {
                    for i in 0..n {
                        a[(i, j)] = rng.unit_f64() * 2.0 - 1.0;
                    }
                }
            }
        }
        for i in 0..n {
            if rng.below(5) == 0 {
                a.row_mut(i).fill(0.0);
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn transposed_qr_matches_reference(
            (n, k) in (1usize..90).prop_flat_map(|n| (Just(n), 1..(n + 1).min(20))),
            seed in 0u64..u64::MAX,
        ) {
            let a = oracle_panel(n, k, seed);
            let (q, r) = qr_thin(&a).unwrap();
            let (q_ref, r_ref) = reference_qr_thin(&a);
            prop_assert_eq!(q, q_ref, "n = {}, k = {}, seed = {}", n, k, seed);
            prop_assert_eq!(r, r_ref, "n = {}, k = {}, seed = {}", n, k, seed);
        }
    }

    fn check_orthonormal(q: &DenseMatrix, rank_cols: &[usize]) {
        for &i in rank_cols {
            for &j in rank_cols {
                let d = vecops::dot(&q.col(i), &q.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (d - expect).abs() < 1e-10,
                    "col {i}·col {j} = {d}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn qr_reconstructs() {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 9.0],
        ])
        .unwrap();
        let (q, r) = qr_thin(&a).unwrap();
        check_orthonormal(&q, &[0, 1]);
        let qr = q.matmul(&r).unwrap();
        for i in 0..4 {
            for j in 0..2 {
                assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
        // R upper triangular
        assert_eq!(r[(1, 0)], 0.0);
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let (q, r) = qr_thin(&a).unwrap();
        assert_eq!(rank_from_r(&r, 1e-10), 1);
        check_orthonormal(&q, &[0]);
        assert!(q.col(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn wide_matrix_rejected() {
        assert!(qr_thin(&DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn orthonormalize_in_place() {
        let mut a =
            DenseMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0], vec![0.0, 0.0]]).unwrap();
        let rank = orthonormalize(&mut a).unwrap();
        assert_eq!(rank, 2);
        check_orthonormal(&a, &[0, 1]);
    }

    #[test]
    fn subspace_residual_detects_span_membership() {
        // e inside the reference span → residual 0; orthogonal → 1.
        let reference =
            DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let inside = DenseMatrix::from_rows(&[vec![2.0], vec![-3.0], vec![0.0]]).unwrap();
        assert!(subspace_residual(&inside, &reference).unwrap() < 1e-12);
        let outside = DenseMatrix::from_rows(&[vec![0.0], vec![0.0], vec![5.0]]).unwrap();
        assert!((subspace_residual(&outside, &reference).unwrap() - 1.0).abs() < 1e-12);
        // Row-count mismatch is rejected.
        assert!(subspace_residual(&DenseMatrix::zeros(2, 1), &reference).is_err());
    }

    #[test]
    fn near_dependent_columns_stay_orthogonal() {
        // Classic MGS stress: nearly parallel columns.
        let eps = 1e-10;
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![eps, 0.0], vec![0.0, eps]]).unwrap();
        let (q, _r) = qr_thin(&a).unwrap();
        let d = vecops::dot(&q.col(0), &q.col(1));
        assert!(d.abs() < 1e-8, "reorthogonalization failed: {d}");
    }
}
