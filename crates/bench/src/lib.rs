//! Experiment harness regenerating every table and figure of the paper.
//!
//! Shared machinery for the `exp_*` binaries (one per table/figure —
//! [`experiments`] is the index) and the `kernel_bench`,
//! `serve_bench` and `update_bench` binaries:
//!
//! * [`pipeline`] — end-to-end clustering and embedding runs for SGLA,
//!   SGLA+, and every baseline, with wall-clock accounting that includes
//!   view-Laplacian construction (the paper's totals do too);
//! * [`report`] — fixed-width table printing and CSV output under
//!   `results/`;
//! * [`cli`] — a tiny argument parser (`--scale`, `--datasets`, `--seed`,
//!   `--out`) shared by all binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over matched row/column structures are the clearest idiom
// for the numerical kernels in this crate: the index relationships *are*
// the algorithm. The iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::field_reassign_with_default)]

pub mod cli;
pub mod coldstart;
pub mod experiments;
pub mod kernel_bench;
pub mod pipeline;
pub mod report;
pub mod serve_bench;
pub mod update_bench;
