//! Symmetric eigensolvers.
//!
//! * [`jacobi`] — cyclic Jacobi for small dense symmetric matrices (exact
//!   reference, fallback for tiny operators, and the projected problem
//!   inside Lanczos);
//! * [`lanczos`] — thick-restart Lanczos with full reorthogonalization
//!   extracting the smallest eigenpairs of a bounded symmetric
//!   [`LinOp`](crate::LinOp), which is precisely the `Eigenvalues(L, k+1)`
//!   primitive in Algorithms 1 and 2 of the SGLA paper;
//! * [`subspace`] — block subspace iteration for the many-eigenpair
//!   regime (embeddings).

pub mod jacobi;
pub mod lanczos;
pub mod subspace;
#[cfg(test)]
mod tridiag;

pub use jacobi::jacobi_eig;
pub use lanczos::{
    smallest_eigenpairs, smallest_eigenvalues, smallest_eigenvalues_full, unconverged_pairs,
    EigOptions, EigResult, EigStats,
};
pub use subspace::{smallest_eigenpairs_subspace, SubspaceOptions};
