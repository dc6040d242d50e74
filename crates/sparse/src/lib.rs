//! Sparse and small-dense linear algebra substrate for the SGLA reproduction.
//!
//! The SGLA paper's entire pipeline reduces to a handful of linear-algebra
//! kernels over *sparse symmetric* matrices (normalized Laplacians):
//!
//! * weighted aggregation of sparse matrices (Eq. 1 of the paper),
//! * repeated sparse matrix–vector products,
//! * extraction of the `k + 1` smallest eigenpairs (Algorithm 1, line 4),
//! * small dense solves for the quadratic surrogate regression (Eq. 9) and
//!   for downstream clustering/embedding (k-means, discretization, NetMF).
//!
//! This crate provides those kernels from scratch:
//!
//! * [`CsrMatrix`] / [`CooMatrix`] — compressed sparse row storage with a
//!   triplet builder, linear combinations, and parallel matvec.
//! * [`DenseMatrix`] — row-major dense matrices for small/skinny problems.
//! * [`LinOp`] — a matrix-free operator abstraction; the SGLA aggregation
//!   `Σ wᵢ Lᵢ` is applied lazily through this trait without materializing
//!   the sum.
//! * [`FusedSumOp`] — the fused form of the aggregation: when weights are
//!   fixed for a whole inner eigensolve, the sum is materialized once into
//!   a reusable scratch CSR so each matvec streams one matrix, not `V`.
//! * [`pool`] — a persistent worker pool (parked threads, atomic chunk
//!   stealing) behind every data-parallel hot path in the workspace.
//! * [`eigen`] — a thick-restart Lanczos solver with full
//!   reorthogonalization for the smallest eigenpairs of bounded symmetric
//!   operators, block subspace iteration, and a cyclic Jacobi dense
//!   eigensolver.
//! * [`chol`], [`lu`], [`qr`], [`svd`] — small dense factorizations.
//!
//! All floating point work is `f64`. All randomized routines take explicit
//! seeds so results are reproducible.

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the lifetime-erasure + disjoint-slice core of [`pool`], where each use
// carries a documented blocking-handshake invariant. Everything else is
// safe Rust.
#![deny(unsafe_code)]
// Indexed loops over matched row/column structures are the clearest idiom
// for the numerical kernels in this crate: the index relationships *are*
// the algorithm. The iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::field_reassign_with_default)]
#![warn(missing_docs)]

pub mod chol;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod fused;
pub mod linop;
pub mod lu;
pub mod parallel;
pub mod pool;
pub mod qr;
pub mod svd;
pub mod vecops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::{DenseMatrix, RowMatrix};
pub use error::SparseError;
pub use fused::FusedSumOp;
pub use linop::{LinOp, ScaledSumOp, ShiftedNegOp};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
