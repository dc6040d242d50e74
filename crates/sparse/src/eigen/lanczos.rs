//! Thick-restart Lanczos with full reorthogonalization, deflation locking
//! and a multiplicity-verification sweep, for the smallest eigenpairs of
//! bounded symmetric operators.
//!
//! This is the `Eigenvalues(L, k+1)` primitive of SGLA's Algorithms 1 & 2.
//! Normalized Laplacians have spectrum in `[0, 2]`, so rather than
//! shift-invert (which would require sparse linear solves) we run Lanczos on
//! the *spectral complement* `B = σI − L` with `σ ≥ λ_max(L)`: the smallest
//! eigenvalues of `L` are the dominant eigenvalues of `B`, which Lanczos
//! finds fastest.
//!
//! **Restart strategy** (Wu & Simon, "Thick-restart Lanczos method for
//! large symmetric eigenvalue problems", SIAM J. Matrix Anal. Appl. 22(2),
//! 2000). Every cycle grows the Krylov basis to a fixed size
//! `m = min(n − locked, max(2(target+1)+30, 36))` and solves the projected
//! `m × m` problem (Rayleigh–Ritz, by Jacobi). Leading Ritz pairs whose
//! residual `|β_m·y_m|` meets `tol·max(|μ|, 1)` are locked into the
//! deflation set. The next `need + (m − need)/2` Ritz vectors are *kept*:
//! they open the next cycle's basis, coupled to the residual vector by
//! `β_m·y_{m,i}` (the projected matrix becomes a diagonal-plus-arrow head
//! on a tridiagonal tail), and the cycle continues from that residual. So
//! the basis never grows past `m` and no converged Krylov information is
//! thrown away. A locking phase may run a fixed budget of 100 cycles; at
//! the last one its remaining pairs are force-locked as unconverged,
//! which [`EigResult::converged`] and [`EigStats::unconverged`] report.
//!
//! Two failure modes of textbook Lanczos are handled explicitly because
//! both occur routinely on multi-view Laplacians:
//!
//! 1. **Breakdown** (an invariant subspace, e.g. the constant vector of a
//!    connected view) — restart the three-term recurrence with a fresh
//!    random direction orthogonal to the basis; the projected matrix
//!    becomes block diagonal, which the dense projected solve handles
//!    transparently.
//! 2. **Missed multiplicity** — a single-vector Krylov space contains at
//!    most one direction per eigenvalue, so exactly repeated eigenvalues
//!    (disconnected graph views have `λ = 0` with multiplicity equal to the
//!    number of components) are silently *skipped*, with all residuals
//!    small. Residual checks cannot detect this. After the requested pairs
//!    converge we therefore run a cheap *verification sweep*: one more
//!    locking phase deflated against everything found so far; if the
//!    complement contains an eigenvalue smaller than our k-th value, a copy
//!    was missed — lock it and re-verify.
//!
//! Reorthogonalization is classical Gram–Schmidt applied twice (CGS2): all
//! projections of a pass are taken against the same vector and subtracted
//! per element in ascending basis order, on one thread or many alike, so
//! results do not depend on the thread count.

use super::jacobi::jacobi_eig;
use crate::linop::{LinOp, ShiftedNegOp};
use crate::parallel::{default_threads, par_chunks_mut, par_map};
use crate::{vecops, DenseMatrix, Result, SparseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thick-restart cycles one locking phase may run. At the last cycle the
/// pairs still missing are locked at whatever accuracy they reached.
const CYCLE_BUDGET: usize = 100;

/// A warm-start column keeping less than this fraction of its norm after
/// projection against the locked set and basis counts as spanned.
const SPANNED: f64 = 1e-2;

/// Options for the Lanczos driver.
#[derive(Debug, Clone)]
pub struct EigOptions {
    /// Relative residual tolerance for Ritz pairs (default `1e-8`).
    pub tol: f64,
    /// RNG seed for start vectors (deterministic by default).
    pub seed: u64,
    /// Below this dimension the operator is materialized and solved densely
    /// by Jacobi (default 96).
    pub dense_fallback: usize,
    /// Run the multiplicity-verification sweep (default `true`). Disable
    /// only when the spectrum is known to be simple.
    pub verify_multiplicity: bool,
    /// Worker-pool width cap for reorthogonalization on large problems
    /// (default: [`default_threads`] — autodetect or `SGLA_THREADS`,
    /// ≤ 16). Work runs on the persistent pool, so per-step dispatch is
    /// cheap even though a solve performs thousands of parallel regions.
    /// The result is the same at every width.
    pub threads: usize,
    /// Optional warm-start block: an `n × c` matrix whose columns
    /// approximate the sought eigenvectors (e.g. the previous solve's
    /// output on a slightly perturbed operator). Columns are consumed
    /// as start directions — the first column seeds the first Lanczos
    /// cycle, later columns seed breakdown restarts and verification
    /// probes, skipping any the locked pairs already (almost) span — so
    /// a good guess collapses the Krylov growth.
    /// Results are identical in the limit; only convergence speed
    /// changes. Ignored on the dense fallback path. Default `None`.
    pub init: Option<DenseMatrix>,
}

impl Default for EigOptions {
    fn default() -> Self {
        EigOptions {
            tol: 1e-8,
            seed: 7,
            dense_fallback: 96,
            verify_multiplicity: true,
            threads: default_threads(),
            init: None,
        }
    }
}

/// Result of an eigen-computation.
#[derive(Debug, Clone)]
pub struct EigResult {
    /// The `k` smallest eigenvalues, ascending.
    pub values: Vec<f64>,
    /// `n × k` matrix of matching eigenvectors (empty when only values were
    /// requested).
    pub vectors: DenseMatrix,
    /// Total operator applications performed.
    pub matvecs: usize,
    /// Whether all requested pairs met the residual tolerance
    /// (`stats.unconverged == 0`).
    pub converged: bool,
    /// Iteration-level work counters (observability; zero on the dense
    /// fallback path, which performs none of the counted steps).
    pub stats: EigStats,
}

/// Work counters of one Lanczos solve, surfaced so callers (training
/// spans, benchmarks) can attribute time without instrumenting the
/// solver's hot loops themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EigStats {
    /// Thick-restart cycles run (locking phase plus
    /// multiplicity-verification probes).
    pub rounds: usize,
    /// Breakdown restarts: invariant subspaces hit mid-cycle, each
    /// answered with a fresh orthogonal start direction.
    pub restarts: usize,
    /// Full reorthogonalization sweeps performed (each sweep is two
    /// projection passes over deflation set + basis).
    pub reortho_sweeps: usize,
    /// Pairs locked at the cycle budget without meeting the tolerance.
    pub unconverged: usize,
}

/// Process-wide count of pairs force-locked at the cycle budget, so a
/// command-line front end can warn about non-convergence anywhere in a
/// pipeline without threading every solve's [`EigStats`] back out.
static UNCONVERGED_PAIRS: AtomicUsize = AtomicUsize::new(0);

/// Pairs force-locked unconverged by every solve in this process so far
/// (the running sum of [`EigStats::unconverged`]).
pub fn unconverged_pairs() -> usize {
    UNCONVERGED_PAIRS.load(Ordering::Relaxed)
}

/// Computes the `k` smallest eigenvalues (no eigenvector matrix assembled)
/// of a symmetric operator. See [`smallest_eigenpairs`].
pub fn smallest_eigenvalues(op: &dyn LinOp, k: usize, opts: &EigOptions) -> Result<Vec<f64>> {
    run(op, k, opts, false).map(|r| r.values)
}

/// Like [`smallest_eigenvalues`] but returns the full [`EigResult`]
/// (with an empty eigenvector matrix) so callers can read the matvec
/// and iteration counters alongside the values.
///
/// # Errors
/// See [`smallest_eigenpairs`].
pub fn smallest_eigenvalues_full(op: &dyn LinOp, k: usize, opts: &EigOptions) -> Result<EigResult> {
    run(op, k, opts, false)
}

/// Computes the `k` smallest eigenpairs of a symmetric operator.
///
/// # Errors
/// * [`SparseError::InvalidArgument`] if `k == 0` or `k > n`, or if the
///   operator is not finite (a non-finite spectral bound, matrix entry or
///   Ritz value).
/// * [`SparseError::NoConvergence`] if a locking phase runs past its cycle
///   budget without locking anything (pathological operators; does not
///   occur for finite symmetric input).
pub fn smallest_eigenpairs(op: &dyn LinOp, k: usize, opts: &EigOptions) -> Result<EigResult> {
    run(op, k, opts, true)
}

struct Locked {
    values: Vec<f64>,
    vectors: Vec<Vec<f64>>,
}

fn non_finite(what: &str) -> SparseError {
    SparseError::InvalidArgument(format!("eigensolver: non-finite {what}"))
}

fn run(op: &dyn LinOp, k: usize, opts: &EigOptions, want_vectors: bool) -> Result<EigResult> {
    let n = op.dim();
    if k == 0 {
        return Err(SparseError::InvalidArgument(
            "requested 0 eigenpairs".into(),
        ));
    }
    if k > n {
        return Err(SparseError::InvalidArgument(format!(
            "requested {k} eigenpairs of a {n}-dimensional operator"
        )));
    }
    if n <= opts.dense_fallback || k + 2 >= n {
        return dense_path(op, k, want_vectors);
    }
    // Warm-start columns are popped front-first as start directions.
    let init: VecDeque<Vec<f64>> = match &opts.init {
        Some(block) => {
            if block.nrows() != n {
                return Err(SparseError::InvalidArgument(format!(
                    "warm-start block has {} rows for an {n}-dimensional operator",
                    block.nrows()
                )));
            }
            (0..block.ncols()).map(|j| block.col(j)).collect()
        }
        None => VecDeque::new(),
    };

    let shift = match op.spectral_bound() {
        Some(b) => b * (1.0 + 1e-10) + 1e-12,
        None => estimate_bound(op, opts.seed) * 1.05 + 1e-12,
    };
    if !shift.is_finite() {
        return Err(non_finite("spectral bound"));
    }
    let b_op = ShiftedNegOp::new(op, shift);
    let mut solver = Solver {
        op: &b_op,
        threads: opts.threads,
        rng: StdRng::seed_from_u64(opts.seed),
        init,
        matvecs: 0,
        stats: EigStats::default(),
    };
    let mut locked = Locked {
        values: Vec::with_capacity(k + 4),
        vectors: Vec::with_capacity(k + 4),
    };

    // Phase 1: lock k pairs.
    solver.stats.unconverged = solver.lock_pairs(shift, k, opts.tol, &mut locked)?;

    // Phase 2: verification sweep for missed multiplicities. Each round
    // asks the deflated complement for its single smallest eigenvalue; if
    // it undercuts our current k-th smallest, a copy was missed.
    if opts.verify_multiplicity && locked.vectors.len() < n {
        let verify_tol = opts.tol.max(1e-6);
        for _round in 0..k {
            let kth = kth_smallest(&locked.values, k);
            let margin = 1e-8 * (1.0 + kth.abs());
            let mut probe = Locked {
                values: Vec::new(),
                vectors: Vec::new(),
            };
            // A failed probe (no convergence in the complement) means the
            // complement has no easily reachable eigenvalue below ours;
            // treat as verified.
            let probe_res = solver.lock_pairs(
                shift,
                1,
                verify_tol,
                &mut ProbeInto {
                    base: &locked,
                    extra: &mut probe,
                },
            );
            match probe_res {
                Ok(forced) if !probe.values.is_empty() && probe.values[0] < kth - margin => {
                    solver.stats.unconverged += forced;
                    locked.values.push(probe.values[0]);
                    locked.vectors.push(probe.vectors.swap_remove(0));
                }
                _ => break,
            }
            if locked.vectors.len() >= n {
                break;
            }
        }
    }
    UNCONVERGED_PAIRS.fetch_add(solver.stats.unconverged, Ordering::Relaxed);

    // Assemble the k smallest of everything locked.
    let mut order: Vec<usize> = (0..locked.values.len()).collect();
    order.sort_by(|&a, &b| locked.values[a].total_cmp(&locked.values[b]));
    order.truncate(k);
    let values: Vec<f64> = order.iter().map(|&i| locked.values[i]).collect();
    let vectors = if want_vectors {
        let mut m = DenseMatrix::zeros(n, k);
        for (j, &i) in order.iter().enumerate() {
            m.set_col(j, &locked.vectors[i]);
        }
        m
    } else {
        DenseMatrix::zeros(0, 0)
    };
    Ok(EigResult {
        values,
        vectors,
        matvecs: solver.matvecs,
        converged: solver.stats.unconverged == 0,
        stats: solver.stats,
    })
}

fn kth_smallest(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[k.min(v.len()) - 1]
}

/// Abstraction letting the verification probe deflate against the main
/// locked set while collecting results separately.
trait LockSink {
    fn deflate_vectors(&self) -> Vec<&[f64]>;
    fn locked_count(&self) -> usize;
    fn push(&mut self, value: f64, vector: Vec<f64>);
}

impl LockSink for Locked {
    fn deflate_vectors(&self) -> Vec<&[f64]> {
        self.vectors.iter().map(|v| v.as_slice()).collect()
    }
    fn locked_count(&self) -> usize {
        self.values.len()
    }
    fn push(&mut self, value: f64, vector: Vec<f64>) {
        self.values.push(value);
        self.vectors.push(vector);
    }
}

struct ProbeInto<'a> {
    base: &'a Locked,
    extra: &'a mut Locked,
}

impl LockSink for ProbeInto<'_> {
    fn deflate_vectors(&self) -> Vec<&[f64]> {
        self.base
            .vectors
            .iter()
            .chain(self.extra.vectors.iter())
            .map(|v| v.as_slice())
            .collect()
    }
    fn locked_count(&self) -> usize {
        self.extra.values.len()
    }
    fn push(&mut self, value: f64, vector: Vec<f64>) {
        self.extra.values.push(value);
        self.extra.vectors.push(vector);
    }
}

/// State shared by every locking phase of one solve.
struct Solver<'a> {
    /// The spectral complement `B = σI − A`.
    op: &'a dyn LinOp,
    threads: usize,
    rng: StdRng,
    /// Unused warm-start columns, consumed front-first.
    init: VecDeque<Vec<f64>>,
    matvecs: usize,
    stats: EigStats,
}

/// A thick-restart Lanczos factorization `B·V = V·H + w·eᵀ` of the
/// deflated operator. `basis[..theta.len()]` are Ritz vectors kept from
/// the previous cycle (`H` diagonal `theta`, coupled to the first
/// Lanczos vector by `coupling`); the rest is a three-term run with
/// diagonal `alphas`, and `betas[j]` couples its vectors `j` and `j + 1`
/// (zero at a breakdown restart). The last beta is `‖w‖`, the coupling
/// of the final basis vector to the residual `w`.
#[derive(Default)]
struct Factorization {
    basis: Vec<Vec<f64>>,
    theta: Vec<f64>,
    coupling: Vec<f64>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    residual: Vec<f64>,
}

impl Factorization {
    /// The projected matrix `H = Vᵀ·B·V`.
    fn projected(&self) -> DenseMatrix {
        let kept = self.theta.len();
        let m = self.basis.len();
        let mut h = DenseMatrix::zeros(m, m);
        for (i, (&t, &c)) in self.theta.iter().zip(&self.coupling).enumerate() {
            h[(i, i)] = t;
            if kept < m {
                h[(i, kept)] = c;
                h[(kept, i)] = c;
            }
        }
        for (j, &a) in self.alphas.iter().enumerate() {
            h[(kept + j, kept + j)] = a;
            if kept + j + 1 < m {
                h[(kept + j, kept + j + 1)] = self.betas[j];
                h[(kept + j + 1, kept + j)] = self.betas[j];
            }
        }
        h
    }
}

impl Solver<'_> {
    /// Runs thick-restart cycles until `target` pairs are locked into
    /// `sink`; returns how many of them were force-locked unconverged at
    /// the cycle budget.
    fn lock_pairs<S: LockSink>(
        &mut self,
        shift: f64,
        target: usize,
        tol: f64,
        sink: &mut S,
    ) -> Result<usize> {
        let n = self.op.dim();
        let m_max = (2 * (target + 1) + 30).max(36);
        let mut fact = Factorization::default();
        let mut forced = 0usize;
        let mut cycle = 0usize;
        while sink.locked_count() < target {
            cycle += 1;
            self.stats.rounds += 1;
            if cycle > CYCLE_BUDGET + 1 {
                return Err(SparseError::NoConvergence {
                    algorithm: "thick-restart lanczos",
                    iterations: self.matvecs,
                });
            }
            let deflate = sink.deflate_vectors();
            if deflate.len() >= n {
                // Nothing left in the complement.
                return Ok(forced);
            }
            let m = m_max.min(n - deflate.len());
            let exhausted = self.extend(&mut fact, m, &deflate)?;
            let m_eff = fact.basis.len();
            if m_eff == 0 {
                return Ok(forced);
            }
            let eig = jacobi_eig(&fact.projected())?;
            if eig.values.iter().any(|v| !v.is_finite()) {
                return Err(non_finite("Ritz value"));
            }
            let last_beta = fact.betas.last().copied().unwrap_or(0.0);
            let force = exhausted || cycle >= CYCLE_BUDGET;
            let need = target - sink.locked_count();
            // Columns by descending μ of B = ascending λ.
            let wanted = |j: usize| m_eff - 1 - j;
            let mut newly = 0usize;
            while newly < need.min(m_eff) {
                let col = wanted(newly);
                let mu = eig.values[col];
                let resid = (last_beta * eig.vectors[(m_eff - 1, col)]).abs();
                let ok = resid <= tol * mu.abs().max(1.0);
                if !ok && !force {
                    break;
                }
                if !ok {
                    forced += 1;
                }
                newly += 1;
            }
            let need = need - newly;
            let spare = n - deflate.len() - newly;
            drop(deflate);
            let locked_cols: Vec<usize> = (0..newly).map(wanted).collect();
            for (col, vec) in locked_cols.iter().zip(ritz_vectors(
                &fact.basis,
                &eig.vectors,
                &locked_cols,
                self.threads,
            )) {
                sink.push(shift - eig.values[*col], vec);
            }
            if need == 0 || exhausted {
                return Ok(forced);
            }
            // Thick restart: keep the next Ritz vectors, continue from the
            // residual. One slot stays free for the continuation vector.
            let m_next = m_max.min(spare);
            let keep = (need + (m - need) / 2)
                .min(m_eff - newly)
                .min(m_next.saturating_sub(1));
            let kept_cols: Vec<usize> = (newly..newly + keep).map(wanted).collect();
            let kept = ritz_vectors(&fact.basis, &eig.vectors, &kept_cols, self.threads);
            let mut next = std::mem::take(&mut fact.residual);
            let continues = last_beta > 1e-12 && keep < m_next;
            fact = Factorization {
                theta: kept_cols.iter().map(|&c| eig.values[c]).collect(),
                coupling: kept_cols
                    .iter()
                    .map(|&c| {
                        if continues {
                            last_beta * eig.vectors[(m_eff - 1, c)]
                        } else {
                            0.0
                        }
                    })
                    .collect(),
                basis: kept,
                ..Factorization::default()
            };
            if continues {
                vecops::scale(1.0 / last_beta, &mut next);
                fact.basis.push(next);
            }
        }
        Ok(forced)
    }

    /// Extends `fact` to `m` basis vectors, keeping every iterate
    /// orthogonal to `deflate` and to the whole basis (full
    /// reorthogonalization, CGS2). An empty Lanczos part starts at the
    /// last basis vector when it follows the kept Ritz vectors, or at a
    /// fresh direction. Returns `true` when basis and deflation set span
    /// the whole space.
    fn extend(&mut self, fact: &mut Factorization, m: usize, deflate: &[&[f64]]) -> Result<bool> {
        let n = self.op.dim();
        let kept = fact.theta.len();
        if fact.basis.len() == kept {
            match self.fresh_direction(deflate, &fact.basis) {
                Some(v) => fact.basis.push(v),
                None => return Ok(true),
            }
        }
        let mut w = vec![0.0f64; n];
        let mut exhausted = false;
        for i in kept.. {
            let j = i - kept;
            self.op.matvec(&fact.basis[i], &mut w);
            self.matvecs += 1;
            let alpha = vecops::dot(&fact.basis[i], &w);
            if !alpha.is_finite() {
                return Err(non_finite("Rayleigh quotient"));
            }
            fact.alphas.push(alpha);
            vecops::axpy(-alpha, &fact.basis[i], &mut w);
            if j == 0 {
                for (c, u) in fact.coupling.iter().zip(&fact.basis) {
                    if *c != 0.0 {
                        vecops::axpy(-c, u, &mut w);
                    }
                }
            } else if fact.betas[j - 1] != 0.0 {
                vecops::axpy(-fact.betas[j - 1], &fact.basis[i - 1], &mut w);
            }
            orthogonalize(&mut w, deflate, &fact.basis, self.threads);
            self.stats.reortho_sweeps += 1;
            let beta = vecops::norm2(&w);
            if !beta.is_finite() {
                return Err(non_finite("Lanczos residual"));
            }
            if i + 1 >= m {
                fact.betas.push(beta);
                exhausted = deflate.len() + fact.basis.len() >= n;
                break;
            }
            if beta > 1e-12 {
                fact.betas.push(beta);
                let inv = 1.0 / beta;
                fact.basis.push(w.iter().map(|x| x * inv).collect());
            } else {
                // Invariant subspace: restart with a fresh orthogonal direction.
                fact.betas.push(0.0);
                self.stats.restarts += 1;
                match self.fresh_direction(deflate, &fact.basis) {
                    Some(fresh) => fact.basis.push(fresh),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
        }
        fact.residual = w;
        Ok(exhausted)
    }

    fn fresh_direction(&mut self, deflate: &[&[f64]], basis: &[Vec<f64>]) -> Option<Vec<f64>> {
        let n = self.op.dim();
        if deflate.len() + basis.len() >= n {
            return None;
        }
        // Prefer warm-start columns: each is consumed once; one whose
        // direction is already (almost) spanned falls through to the
        // next column or the random fallback, since what is left of it
        // is mostly the noise of the guess.
        while let Some(mut w) = self.init.pop_front() {
            let norm = vecops::norm2(&w);
            orthogonalize(&mut w, deflate, basis, self.threads);
            self.stats.reortho_sweeps += 1;
            let left = vecops::normalize(&mut w);
            if left > 1e-8 && left > SPANNED * norm {
                return Some(w);
            }
        }
        for _attempt in 0..6 {
            let mut w: Vec<f64> = (0..n).map(|_| self.rng.gen::<f64>() - 0.5).collect();
            orthogonalize(&mut w, deflate, basis, self.threads);
            self.stats.reortho_sweeps += 1;
            if vecops::normalize(&mut w) > 1e-8 {
                return Some(w);
            }
        }
        None
    }
}

/// Two-pass classical Gram–Schmidt (CGS2) of `w` against the deflation set
/// and the Lanczos basis. Each pass takes every projection against the
/// same `w`, then subtracts them per element in ascending vector order;
/// large problems split both steps over the pool, with the same
/// arithmetic per entry, so the result does not depend on `threads`.
fn orthogonalize(w: &mut [f64], deflate: &[&[f64]], basis: &[Vec<f64>], threads: usize) {
    let total = deflate.len() + basis.len();
    let threads = if w.len() * total > 1 << 18 {
        threads
    } else {
        1
    };
    let vector = |i: usize| -> &[f64] {
        if i < deflate.len() {
            deflate[i]
        } else {
            &basis[i - deflate.len()]
        }
    };
    for _pass in 0..2 {
        let projs: Vec<f64> = par_map(total, threads, |i| vecops::dot(vector(i), w));
        par_chunks_mut(w, threads, |start, chunk| {
            for (i, &p) in projs.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let v = &vector(i)[start..start + chunk.len()];
                for (c, &vv) in chunk.iter_mut().zip(v) {
                    *c -= p * vv;
                }
            }
        });
    }
}

/// The normalized Ritz vectors `V·y` for columns `cols` of `y`, each entry
/// summed in ascending basis order (thread-count independent).
fn ritz_vectors(
    basis: &[Vec<f64>],
    y: &DenseMatrix,
    cols: &[usize],
    threads: usize,
) -> Vec<Vec<f64>> {
    let n = basis.first().map_or(0, Vec::len);
    let threads = if n * basis.len() > 1 << 18 {
        threads
    } else {
        1
    };
    cols.iter()
        .map(|&col| {
            let mut out = vec![0.0f64; n];
            par_chunks_mut(&mut out, threads, |start, chunk| {
                for (j, v) in basis.iter().enumerate() {
                    let s = y[(j, col)];
                    if s == 0.0 {
                        continue;
                    }
                    let v = &v[start..start + chunk.len()];
                    for (o, &vv) in chunk.iter_mut().zip(v) {
                        *o += s * vv;
                    }
                }
            });
            vecops::normalize(&mut out);
            out
        })
        .collect()
}

fn estimate_bound(op: &dyn LinOp, seed: u64) -> f64 {
    let n = op.dim();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    vecops::normalize(&mut x);
    let mut y = vec![0.0; n];
    let mut est = 0.0f64;
    for _ in 0..30 {
        op.matvec(&x, &mut y);
        let nrm = vecops::norm2(&y);
        if nrm == 0.0 {
            return 1.0;
        }
        est = nrm;
        std::mem::swap(&mut x, &mut y);
        vecops::scale(1.0 / est, &mut x);
    }
    est
}

fn dense_path(op: &dyn LinOp, k: usize, want_vectors: bool) -> Result<EigResult> {
    let n = op.dim();
    let mut a = DenseMatrix::zeros(n, n);
    let mut e = vec![0.0f64; n];
    let mut col = vec![0.0f64; n];
    for j in 0..n {
        e[j] = 1.0;
        op.matvec(&e, &mut col);
        e[j] = 0.0;
        for i in 0..n {
            a[(i, j)] = col[i];
        }
    }
    if a.data().iter().any(|v| !v.is_finite()) {
        return Err(non_finite("matrix entry"));
    }
    let eig = jacobi_eig(&a)?;
    let values = eig.values[..k].to_vec();
    let vectors = if want_vectors {
        let mut v = DenseMatrix::zeros(n, k);
        for j in 0..k {
            v.set_col(j, &eig.vectors.col(j));
        }
        v
    } else {
        DenseMatrix::zeros(0, 0)
    };
    Ok(EigResult {
        values,
        vectors,
        matvecs: n,
        converged: true,
        stats: EigStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eig;
    use crate::{CooMatrix, CsrMatrix};
    use std::f64::consts::PI;

    /// Normalized Laplacian of the cycle C_n: eigenvalues 1 − cos(2πj/n).
    fn cycle_norm_laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i, (i + 1) % n, -0.5).unwrap();
            coo.push(i, (i + n - 1) % n, -0.5).unwrap();
        }
        coo.to_csr()
    }

    fn cycle_eigs(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|j| 1.0 - (2.0 * PI * j as f64 / n as f64).cos())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn dense_fallback_small_cycle() {
        let n = 24;
        let l = cycle_norm_laplacian(n);
        let res = smallest_eigenpairs(&l, 5, &EigOptions::default()).unwrap();
        let expect = cycle_eigs(n);
        for j in 0..5 {
            assert!(
                (res.values[j] - expect[j]).abs() < 1e-9,
                "λ{j}: {} vs {}",
                res.values[j],
                expect[j]
            );
        }
        assert!(res.converged);
    }

    #[test]
    fn lanczos_large_cycle_with_degenerate_pairs() {
        let n = 400; // above dense fallback; eigenvalues have multiplicity 2
        let l = cycle_norm_laplacian(n);
        let res = smallest_eigenpairs(&l, 6, &EigOptions::default()).unwrap();
        // Pins the thick-restart gain: the restart-from-scratch solver
        // with doubling pass lengths it replaced needed 1904 operator
        // applications here.
        assert!(res.matvecs < 1904, "{} matvecs", res.matvecs);
        assert!(res.converged && res.stats.unconverged == 0);
        let expect = cycle_eigs(n);
        for j in 0..6 {
            assert!(
                (res.values[j] - expect[j]).abs() < 1e-6,
                "λ{j}: {} vs {}",
                res.values[j],
                expect[j]
            );
        }
        for j in 0..6 {
            let v = res.vectors.col(j);
            let mut lv = vec![0.0; n];
            l.matvec(&v, &mut lv);
            let mut rmax: f64 = 0.0;
            for i in 0..n {
                rmax = rmax.max((lv[i] - res.values[j] * v[i]).abs());
            }
            assert!(rmax < 1e-5, "pair {j} residual {rmax}");
        }
    }

    #[test]
    fn eigenvalues_only_matches_pairs() {
        let l = cycle_norm_laplacian(300);
        let vals = smallest_eigenvalues(&l, 4, &EigOptions::default()).unwrap();
        let pairs = smallest_eigenpairs(&l, 4, &EigOptions::default()).unwrap();
        for (a, b) in vals.iter().zip(&pairs.values) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn disconnected_graph_multiplicity() {
        // Two disjoint cycles of 150: eigenvalue 0 has multiplicity 2.
        let n = 300;
        let mut coo = CooMatrix::new(n, n);
        for block in 0..2 {
            let off = block * 150;
            for i in 0..150 {
                coo.push(off + i, off + i, 1.0).unwrap();
                coo.push(off + i, off + (i + 1) % 150, -0.5).unwrap();
                coo.push(off + i, off + (i + 149) % 150, -0.5).unwrap();
            }
        }
        let l = coo.to_csr();
        let res = smallest_eigenpairs(&l, 3, &EigOptions::default()).unwrap();
        assert!(res.values[0].abs() < 1e-7, "λ1 = {}", res.values[0]);
        assert!(res.values[1].abs() < 1e-7, "λ2 = {}", res.values[1]);
        assert!(res.values[2] > 1e-4, "λ3 = {}", res.values[2]);
    }

    #[test]
    fn identity_operator_extreme_multiplicity() {
        // Every Krylov space of I is 1-dimensional; requires restart AND
        // multiplicity handling.
        let n = 200;
        let i = CsrMatrix::identity(n);
        let res = smallest_eigenpairs(&i, 3, &EigOptions::default()).unwrap();
        for v in &res.values {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // Vectors must be mutually orthogonal even within the eigenspace.
        for a in 0..3 {
            for b in (a + 1)..3 {
                let d = vecops::dot(&res.vectors.col(a), &res.vectors.col(b));
                assert!(d.abs() < 1e-8, "v{a}·v{b} = {d}");
            }
        }
    }

    #[test]
    fn shifted_combination_degenerate_pairs() {
        // Regression test for silent multiplicity loss: 0.5·L_cycle + 0.5·I
        // has eigenvalues 0.5·λ_j + 0.5 with the cycle's multiplicity-2
        // structure.
        use crate::linop::ScaledSumOp;
        let n = 220;
        let l1 = cycle_norm_laplacian(n);
        let l2 = CsrMatrix::identity(n);
        let op = ScaledSumOp::new(vec![&l1, &l2], vec![0.5, 0.5]);
        let res = smallest_eigenvalues(&op, 5, &EigOptions::default()).unwrap();
        let expect = cycle_eigs(n);
        for j in 0..5 {
            assert!(
                (res[j] - (0.5 * expect[j] + 0.5)).abs() < 1e-6,
                "λ{j}: {} vs {}",
                res[j],
                0.5 * expect[j] + 0.5
            );
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let l = cycle_norm_laplacian(10);
        assert!(smallest_eigenpairs(&l, 0, &EigOptions::default()).is_err());
        assert!(smallest_eigenpairs(&l, 11, &EigOptions::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let l = cycle_norm_laplacian(350);
        let a = smallest_eigenvalues(&l, 5, &EigOptions::default()).unwrap();
        let b = smallest_eigenvalues(&l, 5, &EigOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn path_graph_simple_spectrum() {
        // Normalized Laplacian of the path: all eigenvalues simple; checks
        // the solver against the dense reference.
        let n = 180;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        for i in 0..n - 1 {
            let di = if i == 0 || i == n - 1 { 1.0f64 } else { 2.0 };
            let dj = if i + 1 == n - 1 { 1.0f64 } else { 2.0 };
            let w = -1.0 / (di * dj).sqrt();
            coo.push_sym(i, i + 1, w).unwrap();
        }
        let l = coo.to_csr();
        let res = smallest_eigenvalues(&l, 4, &EigOptions::default()).unwrap();
        // Dense reference.
        let dense = jacobi_eig(&l.to_dense()).unwrap();
        for j in 0..4 {
            assert!(
                (res[j] - dense.values[j]).abs() < 1e-7,
                "λ{j}: {} vs {}",
                res[j],
                dense.values[j]
            );
        }
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_values() {
        let l = cycle_norm_laplacian(400);
        let cold = smallest_eigenpairs(&l, 5, &EigOptions::default()).unwrap();
        // Warm-start from the cold solve's own vectors (the ideal
        // guess): values must match and the operator-application count
        // must drop.
        let warm_opts = EigOptions {
            init: Some(cold.vectors.clone()),
            ..EigOptions::default()
        };
        let warm = smallest_eigenpairs(&l, 5, &warm_opts).unwrap();
        for (a, b) in cold.values.iter().zip(&warm.values) {
            assert!((a - b).abs() < 1e-7, "warm {b} vs cold {a}");
        }
        assert!(
            warm.matvecs < cold.matvecs,
            "warm {} matvecs vs cold {}",
            warm.matvecs,
            cold.matvecs
        );
        // A wrong-sized warm block is rejected.
        let bad = EigOptions {
            init: Some(DenseMatrix::zeros(7, 2)),
            ..EigOptions::default()
        };
        assert!(smallest_eigenpairs(&l, 5, &bad).is_err());
    }

    /// A well-separated bottom spectrum on an operator large enough
    /// (`n · (deflated + basis) > 2¹⁸`) for reorthogonalization to take
    /// the pooled branch: a diagonal with four small entries, coupled
    /// along a ring.
    fn separated_ring(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let d = if i < 4 {
                0.1 * i as f64
            } else {
                1.0 + (i % 97) as f64 / 97.0
            };
            coo.push(i, i, d).unwrap();
            coo.push_sym(i, (i + 1) % n, 0.01).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn parallel_threads_same_answer() {
        let n = 14_000;
        let l = separated_ring(n);
        let solve = |threads: usize| {
            let opts = EigOptions {
                threads,
                ..EigOptions::default()
            };
            smallest_eigenpairs(&l, 4, &opts).unwrap()
        };
        let one = solve(1);
        assert!(one.converged);
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for threads in 2..=4 {
            let other = solve(threads);
            assert_eq!(other.matvecs, one.matvecs, "threads = {threads}");
            assert!(same(&other.values, &one.values), "threads = {threads}");
            assert!(
                same(other.vectors.data(), one.vectors.data()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_not_fatal() {
        // tol = 0 can never be met, so every pair is force-locked at the
        // cycle budget; the values are still accurate.
        let n = 300;
        let l = cycle_norm_laplacian(n);
        let opts = EigOptions {
            tol: 0.0,
            ..EigOptions::default()
        };
        let res = smallest_eigenpairs(&l, 3, &opts).unwrap();
        assert!(!res.converged);
        assert!(res.stats.unconverged > 0);
        assert!(unconverged_pairs() >= res.stats.unconverged);
        let dense = jacobi_eig(&l.to_dense()).unwrap();
        for j in 0..3 {
            assert!(
                (res.values[j] - dense.values[j]).abs() < 1e-6,
                "λ{j}: {} vs {}",
                res.values[j],
                dense.values[j]
            );
        }
    }

    /// A CSR with one NaN entry on its diagonal.
    fn with_nan(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let d = if i == n / 2 { f64::NAN } else { 1.0 };
            coo.push(i, i, d).unwrap();
            coo.push_sym(i, (i + 1) % n, -0.25).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn nan_operator_is_an_error_on_the_lanczos_path() {
        let l = with_nan(300);
        for want_vectors in [false, true] {
            let res = run(&l, 3, &EigOptions::default(), want_vectors);
            assert!(
                matches!(res, Err(SparseError::InvalidArgument(_))),
                "{res:?}"
            );
        }
    }

    #[test]
    fn nan_operator_is_an_error_on_the_dense_path() {
        let l = with_nan(40);
        let res = smallest_eigenpairs(&l, 3, &EigOptions::default());
        assert!(
            matches!(res, Err(SparseError::InvalidArgument(_))),
            "{res:?}"
        );
    }
}
