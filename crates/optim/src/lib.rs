//! Derivative-free constrained optimization substrate for SGLA.
//!
//! The paper optimizes its spectrum-guided objective with two tools, both
//! implemented here from scratch:
//!
//! * [`mod@cobyla`] — a linear-approximation trust-region method in the style
//!   of Powell's COBYLA \[40\]: linear interpolation models of the objective
//!   and constraints over a simplex of points, a trust-region step on the
//!   models, and geometry repair. Used by Algorithm 1 (line 6) and
//!   Algorithm 2 (line 11).
//! * [`surrogate`] — the least-Frobenius-norm quadratic interpolation
//!   `h_Θ` of Eqs. (7)–(9): ridge-regularized regression of a quadratic in
//!   the reduced weights, solved via Cholesky. Used by SGLA+.
//!
//! Plus the supporting piece both algorithms share: the reduced
//! coordinates of the probability simplex and projection onto it
//! ([`simplex`]).

#![forbid(unsafe_code)]
// Indexed loops over matched row/column structures are the clearest idiom
// for the numerical kernels in this crate: the index relationships *are*
// the algorithm. The iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::field_reassign_with_default)]
#![warn(missing_docs)]

pub mod cobyla;
pub mod error;
pub mod simplex;
pub mod surrogate;

pub use cobyla::{cobyla, CobylaParams, CobylaResult};
pub use error::OptimError;
pub use surrogate::QuadraticSurrogate;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OptimError>;
