//! Cyclic Jacobi eigensolver for small dense symmetric matrices.
//!
//! Quadratically convergent and unconditionally stable; used as the exact
//! reference in tests, as the dense fallback for tiny operators inside the
//! Lanczos driver, for the Lanczos projected (Rayleigh–Ritz) problems, and
//! for the small Gram-matrix eigenproblems in the randomized SVD.

use crate::{DenseMatrix, Result, SparseError};

/// Eigen-decomposition of a dense symmetric matrix.
#[derive(Debug, Clone)]
pub struct DenseEig {
    /// Eigenvalues ascending.
    pub values: Vec<f64>,
    /// Columns are the matching unit eigenvectors.
    pub vectors: DenseMatrix,
}

/// Computes all eigenpairs of a symmetric matrix by the cyclic Jacobi
/// method. Only the lower triangle is read.
///
/// # Errors
/// * [`SparseError::ShapeMismatch`] if not square.
/// * [`SparseError::NoConvergence`] after 100 sweeps (off-diagonal mass
///   shrinks quadratically, so this indicates NaN/Inf input).
pub fn jacobi_eig(a: &DenseMatrix) -> Result<DenseEig> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SparseError::ShapeMismatch(format!(
            "jacobi needs square, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    if n == 0 {
        return Ok(DenseEig {
            values: Vec::new(),
            vectors: DenseMatrix::zeros(0, 0),
        });
    }
    // Work on a symmetrized row-major copy, and accumulate the rotations
    // into the rows of Vᵀ so both row updates of a rotation are
    // contiguous.
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let v = a[(i, j)];
            m[i * n + j] = v;
            m[j * n + i] = v;
        }
    }
    let mut vt = DenseMatrix::identity(n).data().to_vec();
    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        let max_abs = m.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        if off.sqrt() <= 1e-14 * (1.0 + max_abs) * n as f64 {
            return Ok(sorted(n, &m, &vt));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply G(p,q,θ)ᵀ M G(p,q,θ): columns first, then rows.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, n, p, q, c, s);
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }
    Err(SparseError::NoConvergence {
        algorithm: "jacobi",
        iterations: max_sweeps,
    })
}

/// Rotates rows `p < q` of the row-major `n`-column matrix `m`:
/// `(r_p, r_q) ← (c·r_p − s·r_q, s·r_p + c·r_q)`.
fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    for (x, y) in rp.iter_mut().zip(&mut tail[..n]) {
        let (mpk, mqk) = (*x, *y);
        *x = c * mpk - s * mqk;
        *y = s * mpk + c * mqk;
    }
}

/// Eigenpairs ascending from the converged diagonal of `m` and the
/// rotations accumulated in `vt` (row `j` = eigenvector of `m[j][j]`).
fn sorted(n: usize, m: &[f64], vt: &[f64]) -> DenseEig {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| m[a * n + a].total_cmp(&m[b * n + b]));
    let values: Vec<f64> = order.iter().map(|&i| m[i * n + i]).collect();
    let mut vectors = DenseMatrix::zeros(n, n);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_c)] = vt[old_c * n + r];
        }
    }
    DenseEig { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_decomposition(a: &DenseMatrix, e: &DenseEig, tol: f64) {
        let n = a.nrows();
        for j in 0..n {
            let col = e.vectors.col(j);
            let mut av = vec![0.0; n];
            a.matvec(&col, &mut av);
            for i in 0..n {
                assert!(
                    (av[i] - e.values[j] * col[i]).abs() < tol,
                    "residual for pair {j}"
                );
            }
        }
        // Orthonormality
        for i in 0..n {
            for j in i..n {
                let d = crate::vecops::dot(&e.vectors.col(i), &e.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < tol);
            }
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseMatrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ])
        .unwrap();
        let e = jacobi_eig(&a).unwrap();
        assert_eq!(e.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_two_by_two() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = jacobi_eig(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        check_decomposition(&a, &e, 1e-12);
    }

    #[test]
    fn random_symmetric() {
        let n = 15;
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = jacobi_eig(&a).unwrap();
        check_decomposition(&a, &e, 1e-9);
        // Trace preserved.
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-9);
    }

    #[test]
    fn negative_eigenvalues() {
        let a = DenseMatrix::from_rows(&[vec![0.0, 2.0], vec![2.0, 0.0]]).unwrap();
        let e = jacobi_eig(&a).unwrap();
        assert!((e.values[0] + 2.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        assert!(jacobi_eig(&DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix() {
        let e = jacobi_eig(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    /// The index-based implementation the row-major kernel replaced; the
    /// kernel must reproduce its bits.
    fn reference_jacobi(a: &DenseMatrix) -> DenseEig {
        let n = a.nrows();
        // Work on a symmetrized copy.
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = a[(i, j)];
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let mut v = DenseMatrix::identity(n);
        let max_sweeps = 100;
        for _sweep in 0..max_sweeps {
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= 1e-14 * (1.0 + m.max_abs()) * n as f64 {
                return reference_sorted(m, v);
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= f64::MIN_POSITIVE {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable tangent of the rotation angle.
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Apply G(p,q,θ)ᵀ M G(p,q,θ).
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        panic!("reference jacobi did not converge")
    }

    fn reference_sorted(m: DenseMatrix, v: DenseMatrix) -> DenseEig {
        let n = m.nrows();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| m[(a, a)].total_cmp(&m[(b, b)]));
        let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        let mut vectors = DenseMatrix::zeros(n, n);
        for (new_c, &old_c) in order.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        DenseEig { values, vectors }
    }

    #[test]
    fn bits_match_index_based_reference() {
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for n in 1..=40 {
            // Dense random, sparse arrow-plus-tridiagonal (the Lanczos
            // projected shape) and a repeated-eigenvalue diagonal block.
            for shape in 0..3 {
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..=i {
                        let v = match shape {
                            0 => next(),
                            1 if i == j || j + 1 == i || j == n / 3 => next(),
                            2 if i == j => (i % 3) as f64,
                            2 if j + 1 == i && i > n / 2 => next(),
                            _ => 0.0,
                        };
                        a[(i, j)] = v;
                        a[(j, i)] = v;
                    }
                }
                let got = jacobi_eig(&a).unwrap();
                let want = reference_jacobi(&a);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.values), bits(&want.values), "n = {n}");
                assert_eq!(
                    bits(got.vectors.data()),
                    bits(want.vectors.data()),
                    "n = {n}, shape {shape}"
                );
            }
        }
    }
}
