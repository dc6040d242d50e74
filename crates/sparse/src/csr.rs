//! Compressed sparse row matrices.
//!
//! The workhorse storage for view Laplacians. Supports the exact operation
//! mix SGLA needs: matvec (sequential and row-block parallel), linear
//! combinations with *identical or differing* sparsity patterns, symmetric
//! normalization helpers, and cheap structural queries.

use crate::parallel::par_chunks_mut;
use crate::{DenseMatrix, Result, SparseError};

/// A sparse matrix in CSR (compressed sparse row) format.
///
/// Invariants (maintained by all constructors):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, non-decreasing;
/// * `cols`/`vals` have length `indptr[nrows]`;
/// * within each row, column indices are strictly increasing and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Errors
    /// [`SparseError::InvalidArgument`] if any invariant is violated.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidArgument(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidArgument("indptr[0] != 0".into()));
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidArgument(
                "indptr must be non-decreasing".into(),
            ));
        }
        let nnz = *indptr.last().expect("len >= 1");
        if cols.len() != nnz || vals.len() != nnz {
            return Err(SparseError::InvalidArgument(format!(
                "cols/vals length ({}/{}) != indptr[nrows] = {}",
                cols.len(),
                vals.len(),
                nnz
            )));
        }
        for r in 0..nrows {
            let row = &cols[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidArgument(format!(
                        "row {r}: columns not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: last,
                        bound: ncols,
                        axis: "col",
                    })?;
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            cols,
            vals,
        })
    }

    /// Builds a CSR matrix from parts already known to satisfy the
    /// invariants (used by [`crate::CooMatrix::to_csr`] which constructs them by
    /// construction). Debug builds still verify.
    pub(crate) fn from_raw_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            Self::from_raw_parts(nrows, ncols, indptr.clone(), cols.clone(), vals.clone())
                .expect("internal CSR construction violated invariants");
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            cols,
            vals,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            cols: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// An `nrows × ncols` all-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            cols: Vec::new(),
            vals: Vec::new(),
        }
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

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of row `r` (sorted ascending).
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.cols[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`Self::row_cols`].
    #[inline]
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.vals[self.indptr[r]..self.indptr[r + 1]]
    }

    /// All stored values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// All stored column indices (rows concatenated; delimit rows with
    /// [`Self::indptr`]), parallel to [`Self::values`].
    #[inline]
    pub fn column_indices(&self) -> &[usize] {
        &self.cols
    }

    /// Mutable access to all stored values (pattern is immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Value at `(r, c)`, `0.0` if not stored. Binary search per row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let cols = self.row_cols(r);
        match cols.binary_search(&c) {
            Ok(pos) => self.vals[self.indptr[r] + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r))
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// `y ← A x` (sequential).
    ///
    /// # Panics
    /// Debug-asserts shape compatibility; callers inside this workspace
    /// always pass correctly sized buffers (hot path, no `Result`).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols, "matvec: x length");
        debug_assert_eq!(y.len(), self.nrows, "matvec: y length");
        for r in 0..self.nrows {
            let mut acc = 0.0;
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            for idx in s..e {
                acc += self.vals[idx] * x[self.cols[idx]];
            }
            y[r] = acc;
        }
    }

    /// `y ← y + alpha · A x` (sequential).
    pub fn matvec_acc(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols, "matvec_acc: x length");
        debug_assert_eq!(y.len(), self.nrows, "matvec_acc: y length");
        for r in 0..self.nrows {
            let mut acc = 0.0;
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            for idx in s..e {
                acc += self.vals[idx] * x[self.cols[idx]];
            }
            y[r] += alpha * acc;
        }
    }

    /// Batched multi-vector matvec `Y ← A X` for row-major blocks whose
    /// columns are the vectors (`X` is `ncols × b`, `Y` is `nrows × b`).
    /// One traversal of each CSR row updates all `b` outputs, amortizing
    /// the index walk and the `X`-row loads across the block — the win
    /// that makes block subspace iteration stream-bound instead of
    /// latency-bound. Per column, accumulation order matches
    /// [`Self::matvec`] exactly, so results are bit-identical to `b`
    /// separate matvecs at every thread count. Parallel over row ranges
    /// via the worker pool; each row is [`Self::matvec_block_row`].
    pub fn matvec_block(&self, x: &DenseMatrix, y: &mut DenseMatrix, threads: usize) {
        debug_assert_eq!(x.nrows(), self.ncols, "matvec_block: x rows");
        debug_assert_eq!(y.nrows(), self.nrows, "matvec_block: y rows");
        debug_assert_eq!(x.ncols(), y.ncols(), "matvec_block: block width");
        let b = x.ncols();
        if b == 0 || self.nrows == 0 {
            return;
        }
        let body = |start: usize, block: &mut [&mut [f64]]| {
            for (off, out_row) in block.iter_mut().enumerate() {
                self.matvec_block_row(start + off, x, out_row);
            }
        };
        let mut rows: Vec<&mut [f64]> = y.data_mut().chunks_mut(b).collect();
        if threads <= 1 || self.nnz() * b < 1 << 13 {
            body(0, &mut rows);
        } else {
            par_chunks_mut(&mut rows, threads, |start, block| body(start, block));
        }
    }

    /// Row `r` of [`Self::matvec_block`]: `out ← A[r, :] · X`, the one
    /// row kernel behind every block product. Four stored entries are
    /// applied per sweep over `out` as
    /// `o = (((o + v₀x₀) + v₁x₁) + v₂x₂) + v₃x₃`, which keeps
    /// [`Self::matvec`]'s ascending summation order (so the bits match)
    /// while loading and storing each output element a quarter as often.
    pub fn matvec_block_row(&self, r: usize, x: &DenseMatrix, out: &mut [f64]) {
        debug_assert_eq!(out.len(), x.ncols(), "matvec_block_row: out width");
        out.fill(0.0);
        let (cols, vals) = (self.row_cols(r), self.row_vals(r));
        let (quad_cols, quad_vals) = (cols.chunks_exact(4), vals.chunks_exact(4));
        let (tail_cols, tail_vals) = (quad_cols.remainder(), quad_vals.remainder());
        for (c, v) in quad_cols.zip(quad_vals) {
            let (v0, v1, v2, v3) = (v[0], v[1], v[2], v[3]);
            let rows = x.row(c[0]).iter().zip(x.row(c[1])).zip(x.row(c[2]));
            for (o, (((&x0, &x1), &x2), &x3)) in out.iter_mut().zip(rows.zip(x.row(c[3]))) {
                *o = (((*o + v0 * x0) + v1 * x1) + v2 * x2) + v3 * x3;
            }
        }
        for (&c, &v) in tail_cols.iter().zip(tail_vals) {
            for (o, &xv) in out.iter_mut().zip(x.row(c)) {
                *o += v * xv;
            }
        }
    }

    /// The stored entries of a dense matrix: every element that is not
    /// `±0.0` becomes an explicit entry, rows in order.
    pub fn from_dense(d: &DenseMatrix) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(d.nrows() + 1);
        indptr.push(0usize);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for r in 0..d.nrows() {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    cols.push(c);
                    vals.push(v);
                }
            }
            indptr.push(cols.len());
        }
        CsrMatrix::from_raw_parts_unchecked(d.nrows(), d.ncols(), indptr, cols, vals)
    }

    /// `y ← A x` over up to `threads` persistent pool workers with
    /// atomic row-range stealing (bit-identical to [`Self::matvec`]).
    /// Falls back to sequential when the matrix is small or
    /// `threads <= 1`; the cutoff is far lower than a spawn-per-call
    /// design could afford because waking parked workers costs
    /// microseconds, not a thread spawn.
    pub fn matvec_parallel(&self, x: &[f64], y: &mut [f64], threads: usize) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        if threads <= 1 || self.nnz() < 1 << 13 {
            self.matvec(x, y);
            return;
        }
        let indptr = &self.indptr;
        let cols = &self.cols;
        let vals = &self.vals;
        par_chunks_mut(y, threads, |start, chunk| {
            for (off, yr) in chunk.iter_mut().enumerate() {
                let r = start + off;
                let mut acc = 0.0;
                for idx in indptr[r]..indptr[r + 1] {
                    acc += vals[idx] * x[cols[idx]];
                }
                *yr = acc;
            }
        });
    }

    /// Transpose (`O(nnz + n)` counting sort).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut next = counts.clone();
        let mut tcols = vec![0usize; self.nnz()];
        let mut tvals = vec![0.0f64; self.nnz()];
        for r in 0..self.nrows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let c = self.cols[idx];
                let slot = next[c];
                next[c] += 1;
                tcols[slot] = r;
                tvals[slot] = self.vals[idx];
            }
        }
        CsrMatrix::from_raw_parts_unchecked(self.ncols, self.nrows, counts, tcols, tvals)
    }

    /// Whether the matrix is exactly symmetric (pattern and values).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.cols != self.cols {
            return false;
        }
        self.vals
            .iter()
            .zip(&t.vals)
            .all(|(a, b)| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0))
    }

    /// Row sums (for adjacency matrices these are the generalized degrees
    /// `δ(v)` of Definition 1).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row_vals(r).iter().sum())
            .collect()
    }

    /// Extracts the diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Linear combination `Σ coeffs[i] · mats[i]` over matrices of equal
    /// shape; patterns may differ (union pattern in the result).
    ///
    /// This materializes the SGLA aggregation `L = Σ wᵢ Lᵢ` (Eq. 1) when an
    /// explicit matrix is required (spectral clustering input, tests). The
    /// optimization loop itself uses the lazy
    /// [`ScaledSumOp`](crate::ScaledSumOp) instead.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] on inconsistent shapes or coefficient
    /// count.
    pub fn linear_combination(mats: &[&CsrMatrix], coeffs: &[f64]) -> Result<CsrMatrix> {
        if mats.is_empty() {
            return Err(SparseError::InvalidArgument(
                "linear_combination of zero matrices".into(),
            ));
        }
        if mats.len() != coeffs.len() {
            return Err(SparseError::ShapeMismatch(format!(
                "{} matrices vs {} coefficients",
                mats.len(),
                coeffs.len()
            )));
        }
        let (nr, nc) = (mats[0].nrows, mats[0].ncols);
        for m in mats {
            if m.nrows != nr || m.ncols != nc {
                return Err(SparseError::ShapeMismatch(format!(
                    "{}x{} vs {}x{}",
                    m.nrows, m.ncols, nr, nc
                )));
            }
        }
        // Row-wise k-way merge with a dense scatter buffer (classic
        // Gustavson): O(Σ nnz) time, O(ncols) extra space.
        let mut indptr = Vec::with_capacity(nr + 1);
        indptr.push(0usize);
        let cap: usize = mats.iter().map(|m| m.nnz()).max().unwrap_or(0);
        let mut out_cols: Vec<usize> = Vec::with_capacity(cap);
        let mut out_vals: Vec<f64> = Vec::with_capacity(cap);
        let mut accum = vec![0.0f64; nc];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        for r in 0..nr {
            touched.clear();
            for (m, &w) in mats.iter().zip(coeffs) {
                if w == 0.0 {
                    continue;
                }
                for (&c, &v) in m.row_cols(r).iter().zip(m.row_vals(r)) {
                    if accum[c] == 0.0 && !touched.contains(&c) {
                        touched.push(c);
                    }
                    accum[c] += w * v;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = accum[c];
                accum[c] = 0.0;
                if v != 0.0 {
                    out_cols.push(c);
                    out_vals.push(v);
                }
            }
            indptr.push(out_cols.len());
        }
        Ok(CsrMatrix::from_raw_parts_unchecked(
            nr, nc, indptr, out_cols, out_vals,
        ))
    }

    /// Scales all values in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.vals {
            *v *= alpha;
        }
    }

    /// Returns `D^{-1/2} A D^{-1/2}` where `D = diag(row_sums)`; rows with
    /// zero sum map to zero rows (isolated nodes).
    pub fn sym_normalized(&self) -> CsrMatrix {
        let deg = self.row_sums();
        let inv_sqrt: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = self.clone();
        for r in 0..self.nrows {
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            for idx in s..e {
                out.vals[idx] = self.vals[idx] * inv_sqrt[r] * inv_sqrt[self.cols[idx]];
            }
        }
        out
    }

    /// Dense conversion for tests and small problems.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Estimated heap footprint in bytes (for the memory experiment E13).
    pub fn heap_bytes(&self) -> usize {
        self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.cols.capacity() * std::mem::size_of::<usize>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 3 ]
        // [ 4 5 0 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 2, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 1, 5.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        assert!(
            CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 1.0]).is_err(),
            "unsorted columns must be rejected"
        );
        assert!(
            CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![0, 5], vec![1.0, 1.0]).is_err(),
            "out of range column must be rejected"
        );
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn identity_matvec() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        i.matvec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = [1.0, -1.0, 2.0];
        let mut y = [0.0; 3];
        a.matvec(&x, &mut y);
        assert_eq!(y, [5.0, 6.0, -1.0]);
    }

    #[test]
    fn matvec_acc_accumulates() {
        let a = sample();
        let x = [1.0, 0.0, 0.0];
        let mut y = [10.0, 10.0, 10.0];
        a.matvec_acc(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 10.0, 18.0]);
    }

    #[test]
    fn parallel_matvec_matches_sequential() {
        let mut coo = CooMatrix::new(257, 257);
        let mut state = 1u64;
        for i in 0..257usize {
            for _ in 0..8 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % 257;
                coo.push(i, j, ((state >> 11) as f64) / (1u64 << 53) as f64)
                    .unwrap();
            }
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..257).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; 257];
        let mut y2 = vec![0.0; 257];
        a.matvec(&x, &mut y1);
        a.matvec_parallel(&x, &mut y2, 4);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(2, 1), 3.0);
    }

    #[test]
    fn symmetry_check() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push_sym(0, 1, 3.0).unwrap();
        assert!(coo.to_csr().is_symmetric(0.0));
        assert!(!sample().is_symmetric(1e-12));
        assert!(!CsrMatrix::zeros(2, 3).is_symmetric(0.0));
    }

    #[test]
    fn linear_combination_union_pattern() {
        let mut c1 = CooMatrix::new(2, 2);
        c1.push(0, 0, 1.0).unwrap();
        let mut c2 = CooMatrix::new(2, 2);
        c2.push(1, 1, 2.0).unwrap();
        c2.push(0, 0, 1.0).unwrap();
        let a = c1.to_csr();
        let b = c2.to_csr();
        let s = CsrMatrix::linear_combination(&[&a, &b], &[2.0, 0.5]).unwrap();
        assert_eq!(s.get(0, 0), 2.5);
        assert_eq!(s.get(1, 1), 1.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn linear_combination_zero_weight_skips_pattern() {
        let a = CsrMatrix::identity(2);
        let b = sample();
        // shape mismatch must error
        assert!(CsrMatrix::linear_combination(&[&a, &b], &[1.0, 1.0]).is_err());
        let z = CsrMatrix::zeros(2, 2);
        let s = CsrMatrix::linear_combination(&[&a, &z], &[1.0, 0.0]).unwrap();
        assert_eq!(s, a);
    }

    #[test]
    fn linear_combination_rejects_bad_args() {
        assert!(CsrMatrix::linear_combination(&[], &[]).is_err());
        let a = CsrMatrix::identity(2);
        assert!(CsrMatrix::linear_combination(&[&a], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn sym_normalized_unit_row_sums_on_regular_graph() {
        // 4-cycle: every node degree 2; normalized adjacency rows sum to 1.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4usize {
            coo.push_sym(i, (i + 1) % 4, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let p = a.sym_normalized();
        for r in 0..4 {
            let s: f64 = p.row_vals(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sym_normalized_isolated_node() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 1, 1.0).unwrap(); // node 2 isolated
        let p = coo.to_csr().sym_normalized();
        assert_eq!(p.row_vals(2).len(), 0);
        assert_eq!(p.get(0, 1), 1.0);
    }

    #[test]
    fn diag_and_row_sums() {
        let a = sample();
        assert_eq!(a.diag(), vec![1.0, 0.0, 0.0]);
        assert_eq!(a.row_sums(), vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn to_dense_matches() {
        let a = sample();
        let d = a.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[(r, c)], a.get(r, c));
            }
        }
    }

    #[test]
    fn frobenius() {
        let a = CsrMatrix::identity(4);
        assert!((a.frobenius_norm() - 2.0).abs() < 1e-15);
    }
}
