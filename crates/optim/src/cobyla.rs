//! A COBYLA-style derivative-free trust-region optimizer.
//!
//! From-scratch implementation of the scheme behind Powell's COBYLA \[40\]
//! ("Constrained Optimization BY Linear Approximations"), the optimizer the
//! paper invokes at Algorithm 1 line 6 and Algorithm 2 line 11:
//!
//! 1. keep a simplex of `p + 1` interpolation points;
//! 2. fit *linear* models of the objective and every constraint through
//!    the simplex (one LU solve each);
//! 3. minimize the model objective inside a trust region of radius `ρ`,
//!    subject to the linearized constraints (a small convex piecewise-
//!    linear subproblem, solved by projected subgradient — exact enough at
//!    the `p ≤ 10` dimensionalities SGLA produces);
//! 4. move the simplex / shrink `ρ` based on a merit function combining
//!    objective and constraint violation, with geometry repair when the
//!    interpolation system degenerates.
//!
//! Constraints follow the COBYLA convention: `g(x) ≥ 0` is feasible.

use crate::{OptimError, Result};
use mvag_sparse::lu::Lu;
use mvag_sparse::{vecops, DenseMatrix};

/// Tuning parameters for [`cobyla`].
#[derive(Debug, Clone)]
pub struct CobylaParams {
    /// Initial trust-region radius (default `0.15`; the SGLA weight vector
    /// lives on a unit simplex, so this is a sizeable first step).
    pub rho_start: f64,
    /// Final trust-region radius; convergence is declared when `ρ` falls
    /// below it (default `1e-6`).
    pub rho_end: f64,
    /// Hard budget on objective evaluations (default 500).
    pub max_evals: usize,
}

impl Default for CobylaParams {
    fn default() -> Self {
        CobylaParams {
            rho_start: 0.15,
            rho_end: 1e-6,
            max_evals: 500,
        }
    }
}

/// Outcome of a [`cobyla`] run.
#[derive(Debug, Clone)]
pub struct CobylaResult {
    /// Best point found (feasible within `1e-8` unless the feasible set is
    /// empty, in which case least-violating).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Objective evaluations consumed.
    pub evals: usize,
    /// `true` if the trust region shrank below `rho_end` (normal
    /// convergence), `false` if the evaluation budget stopped the run.
    pub converged: bool,
}

/// A boxed inequality constraint `g(x) ≥ 0`.
pub type Constraint = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

struct Point {
    x: Vec<f64>,
    f: f64,
    cons: Vec<f64>,
}

impl Point {
    fn violation(&self) -> f64 {
        self.cons.iter().map(|&c| (-c).max(0.0)).sum()
    }
    fn merit(&self, mu: f64) -> f64 {
        self.f + mu * self.violation()
    }
}

/// Minimizes `f` subject to `constraints[i](x) ≥ 0`, starting from `x0`.
///
/// # Errors
/// * [`OptimError::InvalidArgument`] for an empty/non-finite start point.
/// * [`OptimError::NonFiniteObjective`] if `f` returns NaN/∞ at the start.
pub fn cobyla<F>(
    mut f: F,
    constraints: &[Constraint],
    x0: &[f64],
    params: &CobylaParams,
) -> Result<CobylaResult>
where
    F: FnMut(&[f64]) -> f64,
{
    let p = x0.len();
    if p == 0 {
        return Err(OptimError::InvalidArgument(
            "cobyla needs at least one variable".into(),
        ));
    }
    if x0.iter().any(|v| !v.is_finite()) {
        return Err(OptimError::InvalidArgument(
            "cobyla start point has non-finite coordinates".into(),
        ));
    }
    if params.rho_start <= params.rho_end || params.rho_end <= 0.0 {
        return Err(OptimError::InvalidArgument(format!(
            "invalid trust region radii: start {} end {}",
            params.rho_start, params.rho_end
        )));
    }

    let mut evals = 0usize;
    let mut eval_point = |x: &[f64], f: &mut F, evals: &mut usize| -> Point {
        *evals += 1;
        let fx = f(x);
        let cons: Vec<f64> = constraints.iter().map(|c| c(x)).collect();
        Point {
            x: x.to_vec(),
            f: if fx.is_finite() { fx } else { f64::INFINITY },
            cons,
        }
    };

    let mut rho = params.rho_start;
    let mut mu = 1.0f64;
    let first = eval_point(x0, &mut f, &mut evals);
    if !first.f.is_finite() {
        return Err(OptimError::NonFiniteObjective { at: x0.to_vec() });
    }
    let mut simplex: Vec<Point> = Vec::with_capacity(p + 1);
    simplex.push(first);
    for i in 0..p {
        let mut x = x0.to_vec();
        x[i] += rho;
        simplex.push(eval_point(&x, &mut f, &mut evals));
    }

    let mut converged = false;
    while evals < params.max_evals {
        if rho < params.rho_end {
            converged = true;
            break;
        }
        // Index of the best vertex by merit.
        let best = argmin_merit(&simplex, mu);
        // Linear models around the best vertex.
        let models = match fit_models(&simplex, best, constraints.len()) {
            Some(m) => m,
            None => {
                // Degenerate geometry: rebuild the simplex around the best.
                rebuild(&mut simplex, best, rho, &mut f, &mut eval_point, &mut evals);
                continue;
            }
        };
        // Keep the penalty dominant over the objective gradient so that
        // merit never rewards leaving the feasible region (Powell's σ
        // update, simplified).
        if !constraints.is_empty() {
            mu = mu.max(10.0 * vecops::norm2(&models.g)).min(1e9);
        }
        // Trust-region step on the models.
        let d = solve_subproblem(&models, &simplex[best], rho, mu);
        let dn = vecops::norm2(&d);
        if dn < 0.05 * rho {
            // Model sees no useful step at this resolution.
            rho *= 0.5;
            rebuild(&mut simplex, best, rho, &mut f, &mut eval_point, &mut evals);
            continue;
        }
        let mut x_new = simplex[best].x.clone();
        vecops::axpy(1.0, &d, &mut x_new);
        let cand = eval_point(&x_new, &mut f, &mut evals);
        // Raise the penalty if the candidate trades feasibility for
        // objective (standard COBYLA penalty update).
        let viol = cand.violation();
        if viol > 1e-10 && cand.f < simplex[best].f {
            mu = (mu * 2.0).min(1e9);
        }
        let best_merit = simplex[best].merit(mu);
        if cand.merit(mu) < best_merit - 1e-14 * best_merit.abs().max(1.0) {
            // Progress: replace the worst vertex; grow the trust region
            // when the model predicted well and the step hit the boundary.
            let predicted = -vecops::dot(&models.g, &d);
            let actual = simplex[best].f - cand.f;
            if dn > 0.85 * rho && predicted > 0.0 && actual > 0.6 * predicted {
                rho = (rho * 2.0).min(params.rho_start);
            }
            let worst = argmax_merit(&simplex, mu);
            simplex[worst] = cand;
        } else {
            // No progress over the best vertex: shrink and recentre.
            let worst = argmax_merit(&simplex, mu);
            if cand.merit(mu) < simplex[worst].merit(mu) {
                simplex[worst] = cand;
            }
            rho *= 0.5;
            let best_now = argmin_merit(&simplex, mu);
            rebuild(
                &mut simplex,
                best_now,
                rho,
                &mut f,
                &mut eval_point,
                &mut evals,
            );
        }
    }

    // Prefer the feasible vertex with the smallest objective; fall back to
    // smallest merit.
    let feas_tol = 1e-8;
    let winner = simplex
        .iter()
        .filter(|pt| pt.violation() <= feas_tol)
        .min_by(|a, b| a.f.total_cmp(&b.f))
        .unwrap_or_else(|| {
            // No feasible vertex: return the least-violating one so the
            // caller at least gets a near-feasible point.
            simplex
                .iter()
                .min_by(|a, b| a.violation().total_cmp(&b.violation()))
                .expect("simplex non-empty")
        });
    Ok(CobylaResult {
        x: winner.x.clone(),
        fx: winner.f,
        evals,
        converged,
    })
}

struct Models {
    /// Objective gradient.
    g: Vec<f64>,
    /// Constraint gradients, one row per constraint.
    a: Vec<Vec<f64>>,
}

fn fit_models(simplex: &[Point], base: usize, ncons: usize) -> Option<Models> {
    let p = simplex[base].x.len();
    // Build the difference matrix M (p × p): rows are (x_i − x_base) over
    // the other vertices.
    let others: Vec<usize> = (0..simplex.len()).filter(|&i| i != base).collect();
    debug_assert_eq!(others.len(), p);
    let mut m = DenseMatrix::zeros(p, p);
    for (row, &i) in others.iter().enumerate() {
        for c in 0..p {
            m[(row, c)] = simplex[i].x[c] - simplex[base].x[c];
        }
    }
    let lu = Lu::factor(&m).ok()?;
    let rhs_f: Vec<f64> = others
        .iter()
        .map(|&i| simplex[i].f - simplex[base].f)
        .collect();
    if rhs_f.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let g = lu.solve(&rhs_f).ok()?;
    let mut a = Vec::with_capacity(ncons);
    for j in 0..ncons {
        let rhs: Vec<f64> = others
            .iter()
            .map(|&i| simplex[i].cons[j] - simplex[base].cons[j])
            .collect();
        a.push(lu.solve(&rhs).ok()?);
    }
    Some(Models { g, a })
}

/// Minimizes `g·d + μ Σ max(0, −(c₀ⱼ + aⱼ·d))` over `‖d‖ ≤ ρ` by projected
/// subgradient descent from `d = 0`.
fn solve_subproblem(models: &Models, base: &Point, rho: f64, mu: f64) -> Vec<f64> {
    let p = models.g.len();
    let mut d = vec![0.0f64; p];
    let mut best_d = d.clone();
    let gscale = vecops::norm2(&models.g).max(1e-12);
    let pen = mu.max(10.0 * gscale);
    let psi = |d: &[f64]| -> f64 {
        let mut v = vecops::dot(&models.g, d);
        for (c0, a) in base.cons.iter().zip(&models.a) {
            v += pen * (-(c0 + vecops::dot(a, d))).max(0.0);
        }
        v
    };
    let mut best_val = psi(&d);
    let iters = 80;
    for it in 1..=iters {
        // Subgradient of ψ at d.
        let mut sub = models.g.clone();
        for (c0, a) in base.cons.iter().zip(&models.a) {
            if c0 + vecops::dot(a, &d) < 0.0 {
                vecops::axpy(-pen, a, &mut sub);
            }
        }
        let sn = vecops::norm2(&sub);
        if sn < 1e-14 {
            break;
        }
        let step = rho / (sn * (it as f64).sqrt());
        vecops::axpy(-step, &sub, &mut d);
        // Project onto the trust-region ball.
        let dn = vecops::norm2(&d);
        if dn > rho {
            vecops::scale(rho / dn, &mut d);
        }
        let v = psi(&d);
        if v < best_val {
            best_val = v;
            best_d.copy_from_slice(&d);
        }
    }
    best_d
}

fn rebuild<F, E>(
    simplex: &mut Vec<Point>,
    best: usize,
    rho: f64,
    f: &mut F,
    eval_point: &mut E,
    evals: &mut usize,
) where
    F: FnMut(&[f64]) -> f64,
    E: FnMut(&[f64], &mut F, &mut usize) -> Point,
{
    let base = simplex[best].x.clone();
    let p = base.len();
    let keep = simplex.swap_remove(best);
    simplex.clear();
    simplex.push(keep);
    for i in 0..p {
        let mut x = base.clone();
        x[i] += rho;
        simplex.push(eval_point(&x, f, evals));
    }
}

fn argmin_merit(simplex: &[Point], mu: f64) -> usize {
    simplex
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.merit(mu).total_cmp(&b.merit(mu)))
        .expect("non-empty simplex")
        .0
}

fn argmax_merit(simplex: &[Point], mu: f64) -> usize {
    simplex
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.merit(mu).total_cmp(&b.merit(mu)))
        .expect("non-empty simplex")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::reduced_simplex_constraints;

    #[allow(clippy::type_complexity)]
    fn boxed(cons: Vec<Box<dyn Fn(&[f64]) -> f64 + Send + Sync>>) -> Vec<Constraint> {
        cons
    }

    #[test]
    fn interior_quadratic_optimum() {
        // min (x−0.3)² + (y−0.4)² on the reduced simplex: optimum interior.
        let cons = boxed(reduced_simplex_constraints(2));
        let res = cobyla(
            |v| (v[0] - 0.3).powi(2) + (v[1] - 0.4).powi(2),
            &cons,
            &[0.5, 0.25],
            &CobylaParams::default(),
        )
        .unwrap();
        assert!(res.converged);
        assert!((res.x[0] - 0.3).abs() < 1e-3, "x = {:?}", res.x);
        assert!((res.x[1] - 0.4).abs() < 1e-3, "x = {:?}", res.x);
    }

    #[test]
    fn boundary_optimum_at_vertex() {
        // min −x − 2y over the simplex: optimum at (0, 1).
        let cons = boxed(reduced_simplex_constraints(2));
        let res = cobyla(
            |v| -v[0] - 2.0 * v[1],
            &cons,
            &[0.33, 0.33],
            &CobylaParams::default(),
        )
        .unwrap();
        assert!(res.x[0].abs() < 1e-3, "x = {:?}", res.x);
        assert!((res.x[1] - 1.0).abs() < 1e-3, "x = {:?}", res.x);
        assert!((res.fx + 2.0).abs() < 1e-3);
    }

    #[test]
    fn clamps_to_nonnegativity_corner() {
        // min (x+1)² + (y+1)²: unconstrained optimum at (−1, −1), feasible
        // optimum at (0, 0).
        let cons = boxed(reduced_simplex_constraints(2));
        let res = cobyla(
            |v| (v[0] + 1.0).powi(2) + (v[1] + 1.0).powi(2),
            &cons,
            &[0.4, 0.4],
            &CobylaParams::default(),
        )
        .unwrap();
        assert!(res.x[0].abs() < 2e-3, "x = {:?}", res.x);
        assert!(res.x[1].abs() < 2e-3, "x = {:?}", res.x);
    }

    #[test]
    fn one_dimensional_problem() {
        let cons = boxed(reduced_simplex_constraints(1));
        let res = cobyla(
            |v| (v[0] - 0.7).powi(2),
            &cons,
            &[0.1],
            &CobylaParams::default(),
        )
        .unwrap();
        assert!((res.x[0] - 0.7).abs() < 1e-3);
    }

    #[test]
    fn respects_eval_budget() {
        let cons = boxed(reduced_simplex_constraints(3));
        let params = CobylaParams {
            max_evals: 25,
            ..Default::default()
        };
        let res = cobyla(
            |v| v.iter().map(|x| x * x).sum::<f64>(),
            &cons,
            &[0.2, 0.2, 0.2],
            &params,
        )
        .unwrap();
        assert!(res.evals <= 25 + 4, "evals = {}", res.evals);
    }

    #[test]
    fn unconstrained_rosenbrock_valley() {
        // No constraints: plain derivative-free minimization still works.
        let cons: Vec<Constraint> = Vec::new();
        let res = cobyla(
            |v| (1.0 - v[0]).powi(2) + 100.0 * (v[1] - v[0] * v[0]).powi(2),
            &cons,
            &[-0.5, 0.5],
            &CobylaParams {
                max_evals: 4000,
                rho_start: 0.5,
                rho_end: 1e-8,
            },
        )
        .unwrap();
        assert!(
            (res.x[0] - 1.0).abs() < 0.05 && (res.x[1] - 1.0).abs() < 0.1,
            "x = {:?} f = {}",
            res.x,
            res.fx
        );
    }

    #[test]
    fn infeasible_start_recovers() {
        let cons = boxed(reduced_simplex_constraints(2));
        let res = cobyla(
            |v| (v[0] - 0.2).powi(2) + (v[1] - 0.2).powi(2),
            &cons,
            &[2.0, 2.0], // far outside the simplex
            &CobylaParams::default(),
        )
        .unwrap();
        assert!(res.x[0] >= -1e-6 && res.x[1] >= -1e-6);
        assert!(res.x[0] + res.x[1] <= 1.0 + 1e-6);
        assert!((res.x[0] - 0.2).abs() < 0.05, "x = {:?}", res.x);
    }

    #[test]
    fn rejects_invalid_input() {
        let cons: Vec<Constraint> = Vec::new();
        assert!(cobyla(|_| 0.0, &cons, &[], &CobylaParams::default()).is_err());
        assert!(cobyla(|_| 0.0, &cons, &[f64::NAN], &CobylaParams::default()).is_err());
        let bad = CobylaParams {
            rho_start: 1e-8,
            rho_end: 1e-6,
            max_evals: 10,
        };
        assert!(cobyla(|_| 0.0, &cons, &[0.5], &bad).is_err());
    }

    #[test]
    fn non_finite_objective_at_start_errors() {
        let cons: Vec<Constraint> = Vec::new();
        assert!(matches!(
            cobyla(|_| f64::NAN, &cons, &[0.5], &CobylaParams::default()),
            Err(OptimError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn deterministic() {
        let cons = boxed(reduced_simplex_constraints(2));
        let run = || {
            cobyla(
                |v| (v[0] - 0.6).powi(2) + 0.5 * (v[1] - 0.1).powi(2) + v[0] * v[1],
                &cons,
                &[0.3, 0.3],
                &CobylaParams::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.x, b.x);
        assert_eq!(a.evals, b.evals);
    }
}
