//! Symmetric tridiagonal matrices with closed-form spectra.
//!
//! Before its first restart the Lanczos projected matrix is tridiagonal,
//! and [`jacobi_eig`] solves it; these cases pin that solve on the
//! tridiagonal shapes with known answers.

use super::jacobi::{jacobi_eig, DenseEig};
use crate::DenseMatrix;

/// The dense symmetric tridiagonal matrix with `diag` and `offdiag`.
fn tridiagonal(diag: &[f64], offdiag: &[f64]) -> DenseMatrix {
    let n = diag.len();
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = diag[i];
        if i + 1 < n {
            a[(i, i + 1)] = offdiag[i];
            a[(i + 1, i)] = offdiag[i];
        }
    }
    a
}

fn eig(diag: &[f64], offdiag: &[f64]) -> DenseEig {
    jacobi_eig(&tridiagonal(diag, offdiag)).unwrap()
}

/// `max_i |(T v)_i − λ v_i|` for the tridiagonal `T` given by its bands.
fn residual(diag: &[f64], offdiag: &[f64], lambda: f64, v: &[f64]) -> f64 {
    let n = diag.len();
    let mut r = 0.0f64;
    for i in 0..n {
        let mut acc = diag[i] * v[i];
        if i > 0 {
            acc += offdiag[i - 1] * v[i - 1];
        }
        if i + 1 < n {
            acc += offdiag[i] * v[i + 1];
        }
        r = r.max((acc - lambda * v[i]).abs());
    }
    r
}

mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn empty_and_scalar() {
        assert!(eig(&[], &[]).values.is_empty());
        let s = eig(&[3.5], &[]);
        assert_eq!(s.values, vec![3.5]);
        assert_eq!(s.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn two_by_two_closed_form() {
        // [[2, 1], [1, 2]] → eigenvalues 1, 3.
        let (diag, off) = ([2.0, 2.0], [1.0]);
        let e = eig(&diag, &off);
        assert!((e.values[0] - 1.0).abs() < 1e-14);
        assert!((e.values[1] - 3.0).abs() < 1e-14);
        for j in 0..2 {
            assert!(residual(&diag, &off, e.values[j], &e.vectors.col(j)) < 1e-13);
        }
    }

    #[test]
    fn path_laplacian_closed_form() {
        // The unnormalized Laplacian of the path P_n is tridiagonal with
        // eigenvalues 4 sin²(π i / (2n)), i = 0..n-1.
        let n = 12;
        let mut diag = vec![2.0; n];
        diag[0] = 1.0;
        diag[n - 1] = 1.0;
        let e = eig(&diag, &vec![-1.0; n - 1]);
        for i in 0..n {
            let expect = 4.0 * (PI * i as f64 / (2.0 * n as f64)).sin().powi(2);
            assert!(
                (e.values[i] - expect).abs() < 1e-12,
                "eigenvalue {i}: {} vs {expect}",
                e.values[i]
            );
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let n = 20;
        // Arbitrary symmetric tridiagonal.
        let diag: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| (i as f64 * 1.3).cos()).collect();
        let e = eig(&diag, &off);
        for i in 0..n {
            for j in i..n {
                let d = crate::vecops::dot(&e.vectors.col(i), &e.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "v{i}·v{j} = {d}");
            }
            assert!(residual(&diag, &off, e.values[i], &e.vectors.col(i)) < 1e-10);
        }
        // Ascending order.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn block_diagonal_decoupled() {
        // Zero off-diagonal in the middle: two independent 2x2 blocks.
        let e = eig(&[1.0, 1.0, 5.0, 5.0], &[0.5, 0.0, 0.5]);
        let expect = [0.5, 1.5, 4.5, 5.5];
        for (v, ex) in e.values.iter().zip(&expect) {
            assert!((v - ex).abs() < 1e-13);
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // Diagonal matrix with repeats must come back exactly.
        let e = eig(&[2.0, 2.0, 2.0], &[0.0, 0.0]);
        assert_eq!(e.values, vec![2.0, 2.0, 2.0]);
    }
}
