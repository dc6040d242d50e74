//! Probability-simplex utilities.
//!
//! SGLA's feasible set (Eq. 6) is the probability simplex
//! `Δ_r = {w : wᵢ ≥ 0, Σ wᵢ = 1}`. The optimizers work in the *reduced*
//! coordinates `v = (w₁, …, w_{r−1})` — the paper's Algorithms 1–2 update
//! only the first `r − 1` weights and recover `w_r = 1 − Σ vᵢ` (lines 8–9
//! and 13–14 respectively).

/// Projects `v` onto the canonical probability simplex
/// `{x : xᵢ ≥ 0, Σ xᵢ = 1}` in `O(d log d)` (sort-based algorithm of
/// Duchi et al.).
pub fn project_simplex(v: &mut [f64]) {
    let d = v.len();
    if d == 0 {
        return;
    }
    let mut u: Vec<f64> = v.to_vec();
    u.sort_by(|a, b| b.total_cmp(a));
    let mut css = 0.0;
    let mut rho = 0usize;
    let mut theta = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        css += ui;
        let t = (css - 1.0) / (i as f64 + 1.0);
        if ui - t > 0.0 {
            rho = i + 1;
            theta = t;
        }
    }
    let _ = rho;
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
}

/// Expands reduced coordinates to the full weight vector
/// `w = (v₁, …, v_{r−1}, 1 − Σ vᵢ)`.
pub fn expand_weights(v: &[f64]) -> Vec<f64> {
    let mut w = Vec::with_capacity(v.len() + 1);
    w.extend_from_slice(v);
    w.push((1.0 - v.iter().sum::<f64>()).max(0.0));
    w
}

/// Whether `w` lies on the probability simplex within tolerance.
pub fn is_on_simplex(w: &[f64], tol: f64) -> bool {
    !w.is_empty()
        && w.iter().all(|&x| x >= -tol)
        && (w.iter().sum::<f64>() - 1.0).abs() <= tol * w.len() as f64
}

/// A boxed inequality constraint `g(v) ≥ 0` (shared with the optimizers).
pub type BoxedConstraint = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// The reduced-coordinate inequality constraints of Eq. (6), as functions
/// `g(v) ≥ 0`: each `vᵢ ≥ 0` plus the slack `1 − Σ vᵢ ≥ 0`.
pub fn reduced_simplex_constraints(dim: usize) -> Vec<BoxedConstraint> {
    let mut cons: Vec<BoxedConstraint> = Vec::with_capacity(dim + 1);
    for i in 0..dim {
        cons.push(Box::new(move |v: &[f64]| v[i]));
    }
    cons.push(Box::new(|v: &[f64]| 1.0 - v.iter().sum::<f64>()));
    cons
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_already_feasible_is_identity() {
        let mut v = vec![0.2, 0.3, 0.5];
        project_simplex(&mut v);
        assert!((v[0] - 0.2).abs() < 1e-12);
        assert!((v[1] - 0.3).abs() < 1e-12);
        assert!((v[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn project_clamps_negative() {
        let mut v = vec![1.5, -0.5];
        project_simplex(&mut v);
        assert!(is_on_simplex(&v, 1e-12));
        assert_eq!(v[1], 0.0);
        assert!((v[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn projection_is_idempotent_and_feasible() {
        let mut v = vec![3.0, -2.0, 0.5, 0.1];
        project_simplex(&mut v);
        assert!(is_on_simplex(&v, 1e-12));
        let before = v.clone();
        project_simplex(&mut v);
        for (a, b) in v.iter().zip(&before) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_minimizes_distance_vs_candidates() {
        // The projection of [0.6, 0.6] onto Δ₂ is [0.5, 0.5].
        let mut v = vec![0.6, 0.6];
        project_simplex(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reduced_projection() {
        // Reduced coordinates outside the reduced simplex, expanded and
        // projected the way SGLA+ finishes its surrogate step.
        let mut w = expand_weights(&[0.8, 0.8]); // sum 1.6 > 1
        project_simplex(&mut w);
        assert!(is_on_simplex(&w, 1e-12));
        // Symmetric input stays symmetric.
        assert!((w[0] - w[1]).abs() < 1e-12);
    }

    #[test]
    fn expand_reduce_roundtrip() {
        let w = [0.2, 0.3, 0.5];
        let w2 = expand_weights(&w[..2]);
        for (a, b) in w.iter().zip(&w2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constraints_detect_feasibility() {
        let cons = reduced_simplex_constraints(2);
        let feasible = [0.3, 0.3];
        assert!(cons.iter().all(|c| c(&feasible) >= 0.0));
        let infeasible = [0.8, 0.4]; // sum > 1
        assert!(cons.iter().any(|c| c(&infeasible) < 0.0));
        let negative = [-0.1, 0.5];
        assert!(cons.iter().any(|c| c(&negative) < 0.0));
    }

    #[test]
    fn is_on_simplex_checks() {
        assert!(is_on_simplex(&[1.0], 1e-12));
        assert!(is_on_simplex(&[0.5, 0.5], 1e-12));
        assert!(!is_on_simplex(&[0.5, 0.6], 1e-9));
        assert!(!is_on_simplex(&[-0.1, 1.1], 1e-9));
        assert!(!is_on_simplex(&[], 1e-9));
    }
}
