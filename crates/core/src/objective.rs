//! The spectrum-guided objective (Section IV of the paper).
//!
//! For a weight vector `w` on the probability simplex, the aggregated
//! Laplacian `L(w) = Σ wᵢ Lᵢ` is scored by
//!
//! ```text
//! h(w) = g_k(L) − λ₂(L) + γ Σ wᵢ²          (Eq. 5)
//! g_k(L) = λ_k(L) / λ_{k+1}(L)             (Eq. 2, eigengap)
//! λ₂(L)                                     (connectivity)
//! ```
//!
//! * the **eigengap** term is small when the bottom `k` eigenvalues are
//!   well separated from `λ_{k+1}`, which by the higher-order Cheeger
//!   inequality (Theorem 1 / Corollary 1.1) certifies `k` low-normalized-
//!   cut clusters;
//! * the **connectivity** term `−λ₂` rewards a well-connected aggregate
//!   (Eq. 4: `λ₂/2 ≤ Φ(G) ≤ √(2λ₂)`);
//! * the `γ`-regularizer discourages single-view domination.
//!
//! All of this needs only the `k + 1` smallest eigenvalues of `L(w)`.
//! The weights are **fixed** for the duration of each eigensolve, so the
//! objective keeps one [`FusedSumOp`] alive across evaluations: the union
//! sparsity pattern is analyzed once at construction, each `evaluate`
//! refreshes the scratch CSR in `O(Σ nnz)` (about the cost of a single
//! lazy matvec), and every Lanczos matvec then streams one matrix
//! instead of `r` — plus the fused matrix yields a tighter Gershgorin
//! shift than the lazy operator's triangle-inequality bound.

use crate::views::ViewLaplacians;
use crate::{Result, SglaError};
use mvag_sparse::eigen::{smallest_eigenvalues_full, EigOptions};
use mvag_sparse::FusedSumOp;
use std::cell::{Cell, RefCell};

/// Which terms of the objective to use — `Full` is the paper's Eq. 5; the
/// single-term modes are the ablations of its Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectiveMode {
    /// `g_k − λ₂ + γ‖w‖²` (Eq. 5).
    #[default]
    Full,
    /// Eigengap only: `g_k + γ‖w‖²`.
    EigengapOnly,
    /// Connectivity only: `−λ₂ + γ‖w‖²`.
    ConnectivityOnly,
}

/// Evaluated components of `h(w)` at one weight vector.
#[derive(Debug, Clone)]
pub struct ObjectiveValue {
    /// Full objective value per the active [`ObjectiveMode`].
    pub h: f64,
    /// Eigengap `g_k = λ_k / λ_{k+1}`.
    pub eigengap: f64,
    /// Connectivity `λ₂`.
    pub connectivity: f64,
    /// The `k + 1` smallest eigenvalues of `L(w)`, ascending.
    pub eigenvalues: Vec<f64>,
}

/// The spectrum-guided objective over view weights.
///
/// Holds a reference to the view Laplacians; each [`Self::evaluate`] call
/// costs one Lanczos solve (`O(m + qnK)` per the paper's analysis) and is
/// counted for the efficiency experiments.
pub struct SglaObjective<'a> {
    views: &'a ViewLaplacians,
    k: usize,
    gamma: f64,
    mode: ObjectiveMode,
    eig: EigOptions,
    evaluations: Cell<usize>,
    /// Reusable fused aggregation: pattern precomputed once, values
    /// refreshed per evaluation.
    fused: RefCell<FusedSumOp<'a>>,
}

impl<'a> SglaObjective<'a> {
    /// Creates the objective for `k` clusters with regularization `gamma`.
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] unless `2 ≤ k` and `k + 1 ≤ n`.
    pub fn new(
        views: &'a ViewLaplacians,
        k: usize,
        gamma: f64,
        mode: ObjectiveMode,
        eig: EigOptions,
    ) -> Result<Self> {
        if k < 2 {
            return Err(SglaError::InvalidArgument(format!(
                "objective needs k >= 2, got {k}"
            )));
        }
        if k + 1 > views.n() {
            return Err(SglaError::InvalidArgument(format!(
                "objective needs k + 1 <= n, got k = {k}, n = {}",
                views.n()
            )));
        }
        if !gamma.is_finite() {
            return Err(SglaError::InvalidArgument("non-finite gamma".into()));
        }
        let uniform = vec![1.0 / views.r() as f64; views.r()];
        let fused = RefCell::new(views.fused_op(&uniform)?);
        Ok(SglaObjective {
            views,
            k,
            gamma,
            mode,
            eig,
            evaluations: Cell::new(0),
            fused,
        })
    }

    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The view Laplacians this objective scores.
    pub fn views(&self) -> &ViewLaplacians {
        self.views
    }

    /// How many full (eigenvalue-computing) evaluations have been made.
    pub fn evaluations(&self) -> usize {
        self.evaluations.get()
    }

    /// Evaluates `h(w)` and its components at a full weight vector.
    ///
    /// # Errors
    /// Propagates weight validation and eigensolver failures.
    pub fn evaluate(&self, weights: &[f64]) -> Result<ObjectiveValue> {
        self.views.validate_weights(weights)?;
        let mut op = self.fused.borrow_mut();
        op.set_weights(weights);
        // Each evaluation is one eigensolve — the expensive inner step
        // of Algorithm 2. The span carries the solver's work counters
        // so a trace shows *why* a given evaluation was slow
        // (restarts, extra deflation rounds) and not just that it was.
        let mut span = mvag_obs::span("train.eigensolve");
        let eig_res = smallest_eigenvalues_full(&*op, self.k + 1, &self.eig)?;
        if span.is_live() {
            span.counter("matvecs", eig_res.matvecs as u64);
            span.counter("rounds", eig_res.stats.rounds as u64);
            span.counter("restarts", eig_res.stats.restarts as u64);
            span.counter("reortho_sweeps", eig_res.stats.reortho_sweeps as u64);
            span.counter("unconverged", eig_res.stats.unconverged as u64);
        }
        drop(span);
        let eigenvalues = eig_res.values;
        self.evaluations.set(self.evaluations.get() + 1);
        let lambda2 = eigenvalues[1];
        let lambda_k = eigenvalues[self.k - 1];
        let lambda_k1 = eigenvalues[self.k];
        let eigengap = eigengap_ratio(lambda_k, lambda_k1);
        let reg: f64 = weights.iter().map(|w| w * w).sum::<f64>() * self.gamma;
        let h = match self.mode {
            ObjectiveMode::Full => eigengap - lambda2 + reg,
            ObjectiveMode::EigengapOnly => eigengap + reg,
            ObjectiveMode::ConnectivityOnly => -lambda2 + reg,
        };
        Ok(ObjectiveValue {
            h,
            eigengap,
            connectivity: lambda2,
            eigenvalues,
        })
    }
}

/// `λ_k / λ_{k+1}` with the degenerate cases pinned down:
/// * both ≈ 0 (more than `k` connected components): the aggregate cannot
///   distinguish `k` clusters — worst ratio 1;
/// * `λ_{k+1} ≈ 0` alone cannot happen with `λ_k ≤ λ_{k+1}`.
fn eigengap_ratio(lambda_k: f64, lambda_k1: f64) -> f64 {
    const TINY: f64 = 1e-12;
    let lk = lambda_k.max(0.0);
    let lk1 = lambda_k1.max(0.0);
    if lk1 <= TINY {
        1.0
    } else {
        (lk / lk1).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::KnnParams;
    use mvag_graph::toy::{figure2_example, toy_mvag};

    fn fig2_views() -> ViewLaplacians {
        ViewLaplacians::build(&figure2_example(), &KnnParams::default()).unwrap()
    }

    #[test]
    fn objective_components_sane_on_figure2() {
        let views = fig2_views();
        let obj =
            SglaObjective::new(&views, 2, 0.5, ObjectiveMode::Full, EigOptions::default()).unwrap();
        let v = obj.evaluate(&[0.5, 0.5]).unwrap();
        // λ₁ of a *mixture* of normalized Laplacians is small but nonzero
        // (the views' kernels D_i^{1/2}𝟙 differ).
        assert!(
            v.eigenvalues[0] >= -1e-9 && v.eigenvalues[0] < 0.2,
            "λ1 = {}",
            v.eigenvalues[0]
        );
        assert!((0.0..=1.0).contains(&v.eigengap));
        assert!(v.connectivity >= -1e-12);
        assert!(v.h.is_finite());
        assert_eq!(v.eigenvalues.len(), 3);
        assert_eq!(obj.evaluations(), 1);
    }

    #[test]
    fn figure2_prefers_mixed_weights() {
        // The paper's Table 2b: g_k − λ₂ is minimized strictly inside the
        // simplex, not at either single-view corner.
        let views = fig2_views();
        let obj = SglaObjective::new(
            &views,
            2,
            0.0, // no regularizer, match the table's g_k − λ₂ column
            ObjectiveMode::Full,
            EigOptions::default(),
        )
        .unwrap();
        let corner1 = obj.evaluate(&[1.0, 0.0]).unwrap().h;
        let corner2 = obj.evaluate(&[0.0, 1.0]).unwrap().h;
        let mut best_mixed = f64::INFINITY;
        for i in 1..10 {
            let w1 = i as f64 / 10.0;
            let v = obj.evaluate(&[w1, 1.0 - w1]).unwrap();
            best_mixed = best_mixed.min(v.h);
        }
        assert!(
            best_mixed < corner1 && best_mixed < corner2,
            "mixed {best_mixed} vs corners {corner1}, {corner2}"
        );
    }

    #[test]
    fn modes_differ() {
        let views = fig2_views();
        let w = [0.6, 0.4];
        let mk = |mode| {
            SglaObjective::new(&views, 2, 0.5, mode, EigOptions::default())
                .unwrap()
                .evaluate(&w)
                .unwrap()
        };
        let full = mk(ObjectiveMode::Full);
        let eg = mk(ObjectiveMode::EigengapOnly);
        let conn = mk(ObjectiveMode::ConnectivityOnly);
        let reg = 0.5 * (0.36 + 0.16);
        assert!((eg.h - (full.eigengap + reg)).abs() < 1e-9);
        assert!((conn.h - (-full.connectivity + reg)).abs() < 1e-9);
        assert!((full.h - (full.eigengap - full.connectivity + reg)).abs() < 1e-9);
    }

    #[test]
    fn regularizer_penalizes_concentration() {
        let views = fig2_views();
        let obj = SglaObjective::new(
            &views,
            2,
            10.0, // dominant regularizer
            ObjectiveMode::Full,
            EigOptions::default(),
        )
        .unwrap();
        let uniform = obj.evaluate(&[0.5, 0.5]).unwrap().h;
        let corner = obj.evaluate(&[1.0, 0.0]).unwrap().h;
        assert!(uniform < corner);
    }

    #[test]
    fn validation_errors() {
        let views = fig2_views();
        assert!(
            SglaObjective::new(&views, 1, 0.5, ObjectiveMode::Full, EigOptions::default()).is_err()
        );
        assert!(
            SglaObjective::new(&views, 8, 0.5, ObjectiveMode::Full, EigOptions::default()).is_err()
        );
        assert!(SglaObjective::new(
            &views,
            2,
            f64::NAN,
            ObjectiveMode::Full,
            EigOptions::default()
        )
        .is_err());
        let obj =
            SglaObjective::new(&views, 2, 0.5, ObjectiveMode::Full, EigOptions::default()).unwrap();
        assert!(obj.evaluate(&[0.5]).is_err());
    }

    #[test]
    fn eigengap_ratio_degenerate_cases() {
        assert_eq!(eigengap_ratio(0.0, 0.0), 1.0);
        assert_eq!(eigengap_ratio(1e-15, 1e-15), 1.0);
        assert!((eigengap_ratio(0.1, 0.2) - 0.5).abs() < 1e-12);
        assert_eq!(eigengap_ratio(-1e-14, 0.5), 0.0);
        assert_eq!(eigengap_ratio(0.3, 0.3), 1.0);
    }

    #[test]
    fn permutation_of_views_permutes_objective() {
        // h must depend on (view, weight) pairs, not on ordering.
        let mvag = toy_mvag(80, 2, 3);
        let views = ViewLaplacians::build(&mvag, &KnnParams::default()).unwrap();
        let obj =
            SglaObjective::new(&views, 2, 0.5, ObjectiveMode::Full, EigOptions::default()).unwrap();
        let reversed =
            ViewLaplacians::from_laplacians(views.laplacians().iter().rev().cloned().collect())
                .unwrap();
        let obj_rev = SglaObjective::new(
            &reversed,
            2,
            0.5,
            ObjectiveMode::Full,
            EigOptions::default(),
        )
        .unwrap();
        let w = [0.2, 0.3, 0.5];
        let wr = [0.5, 0.3, 0.2];
        let a = obj.evaluate(&w).unwrap().h;
        let b = obj_rev.evaluate(&wr).unwrap().h;
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }
}
