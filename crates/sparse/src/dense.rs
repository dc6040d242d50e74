//! Row-major dense matrices for small and tall-skinny problems.
//!
//! Dense work in the SGLA pipeline is always small along at least one axis:
//! the surrogate regression solves an `O(r²) × O(r²)` system (r = number of
//! views ≤ ~11), spectral clustering manipulates `n × k` eigenvector blocks,
//! and NetMF factorizes via sketched `n × (d + oversample)` panels.

use crate::{Result, SparseError};
use std::ops::{Index, IndexMut};

/// Read-only row access shared by every embedding-row provider.
///
/// Scan kernels and index probes only ever need `row(i) -> &[f64]`;
/// abstracting that single borrow lets the same kernels run over an
/// in-memory [`DenseMatrix`] or over rows borrowed straight out of a
/// memory-mapped artifact without copying either one.
pub trait RowMatrix: Sync {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Number of columns (row length).
    fn ncols(&self) -> usize;
    /// Row `r` as a borrowed slice of length [`Self::ncols`].
    fn row(&self, r: usize) -> &[f64];
}

impl RowMatrix for DenseMatrix {
    #[inline]
    fn nrows(&self) -> usize {
        DenseMatrix::nrows(self)
    }
    #[inline]
    fn ncols(&self) -> usize {
        DenseMatrix::ncols(self)
    }
    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        DenseMatrix::row(self, r)
    }
}

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows × ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major data vector.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::ShapeMismatch(format!(
                "data length {} != {}x{}",
                data.len(),
                nrows,
                ncols
            )));
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Builds from nested rows (test convenience).
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(SparseError::ShapeMismatch("ragged rows".into()));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `c` copied into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.nrows).map(|r| self[(r, c)]).collect()
    }

    /// Sets column `c` from a slice.
    pub fn set_col(&mut self, c: usize, v: &[f64]) {
        debug_assert_eq!(v.len(), self.nrows);
        for (r, &x) in v.iter().enumerate() {
            self[(r, c)] = x;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != other.nrows {
            return Err(SparseError::ShapeMismatch(format!(
                "{}x{} · {}x{}",
                self.nrows, self.ncols, other.nrows, other.ncols
            )));
        }
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        // i-k-j loop order: streams through `other` rows, cache friendly.
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &okj) in orow.iter().enumerate() {
                    out_row[j] += aik * okj;
                }
            }
        }
        Ok(out)
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] if row counts differ.
    pub fn gram(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != other.nrows {
            return Err(SparseError::ShapeMismatch(format!(
                "gram: {} rows vs {} rows",
                self.nrows, other.nrows
            )));
        }
        let mut out = DenseMatrix::zeros(self.ncols, other.ncols);
        for r in 0..self.nrows {
            let a = self.row(r);
            let b = other.row(r);
            for (i, &ai) in a.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (j, &bj) in b.iter().enumerate() {
                    out_row[j] += ai * bj;
                }
            }
        }
        Ok(out)
    }

    /// `y ← A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for r in 0..self.nrows {
            y[r] = crate::vecops::dot(self.row(r), x);
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vecops::norm2(&self.data)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self ← self + alpha · other`.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &DenseMatrix) -> Result<()> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::ShapeMismatch(format!(
                "{}x{} vs {}x{}",
                self.nrows, self.ncols, other.nrows, other.ncols
            )));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[r * self.ncols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matmul_known() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gram_equals_transpose_matmul() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = a.gram(&a).unwrap();
        let gt = a.transpose().matmul(&a).unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert!((g[(r, c)] - gt[(r, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn identity_matvec() {
        let i = DenseMatrix::identity(3);
        let mut y = vec![0.0; 3];
        i.matvec(&[7.0, 8.0, 9.0], &mut y);
        assert_eq!(y, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn clamp_and_map() {
        let mut m = DenseMatrix::from_rows(&[vec![0.5, 2.0]]).unwrap();
        m.map_inplace(|x| x.max(1.0));
        assert_eq!(m.row(0), &[1.0, 2.0]);
        m.map_inplace(|x| x.ln());
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn add_scaled() {
        let mut a = DenseMatrix::identity(2);
        let b = DenseMatrix::identity(2);
        a.add_scaled(2.0, &b).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        let c = DenseMatrix::zeros(3, 3);
        assert!(a.add_scaled(1.0, &c).is_err());
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = DenseMatrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }
}
