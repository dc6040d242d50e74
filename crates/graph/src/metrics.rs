//! Combinatorial graph quality measures.
//!
//! These are the quantities the SGLA objectives bound spectrally:
//! normalized cut `ϕ(C) = Cut(C) / Vol(C)` (Definition 1, bounded through
//! the eigengap via higher-order Cheeger), and conductance `Φ(G)`
//! (Eq. 3, bounded by `λ₂/2 ≤ Φ(G) ≤ √(2 λ₂)` — Eq. 4).

use crate::{Graph, GraphError, Result};

/// Volume `Vol(C) = Σ_{v ∈ C} δ(v)` of a node set given as a membership
/// mask.
pub fn volume(g: &Graph, members: &[bool]) -> f64 {
    debug_assert_eq!(members.len(), g.n());
    let deg = g.degrees();
    members
        .iter()
        .zip(&deg)
        .filter_map(|(&m, &d)| m.then_some(d))
        .sum()
}

/// Cut value `Cut(C) = Σ_{u ∈ C, v ∉ C} A[u, v]`.
pub fn cut(g: &Graph, members: &[bool]) -> f64 {
    debug_assert_eq!(members.len(), g.n());
    let mut total = 0.0;
    for u in 0..g.n() {
        if !members[u] {
            continue;
        }
        let (cols, vals) = g.neighbors(u);
        for (&v, &w) in cols.iter().zip(vals) {
            if !members[v] {
                total += w;
            }
        }
    }
    total
}

/// Normalized cut `ϕ(C) = Cut(C) / Vol(C)` (Definition 1). Returns an error
/// for empty or zero-volume sets.
///
/// # Errors
/// [`GraphError::InvalidArgument`] when `Vol(C) = 0`.
pub fn normalized_cut(g: &Graph, members: &[bool]) -> Result<f64> {
    let vol = volume(g, members);
    if vol == 0.0 {
        return Err(GraphError::InvalidArgument(
            "normalized cut of a zero-volume set".into(),
        ));
    }
    Ok(cut(g, members) / vol)
}

/// Conductance of the bipartition `(C, V∖C)`:
/// `Cut(C) / min(Vol(C), Vol(V∖C))` — the inner term of Eq. 3.
///
/// # Errors
/// [`GraphError::InvalidArgument`] if either side has zero volume.
pub fn set_conductance(g: &Graph, members: &[bool]) -> Result<f64> {
    let vol_c = volume(g, members);
    let vol_rest = g.total_volume() - vol_c;
    let denom = vol_c.min(vol_rest);
    if denom == 0.0 {
        return Err(GraphError::InvalidArgument(
            "conductance of a trivial bipartition".into(),
        ));
    }
    Ok(cut(g, members) / denom)
}

/// Sweep cut: sorts nodes by `score`, evaluates the conductance of every
/// prefix, and returns `(best_conductance, membership_mask)`.
///
/// With `score` = the Fiedler vector of the normalized Laplacian this is
/// the classic spectral partitioning rounding whose quality Cheeger's
/// inequality certifies; used in tests to validate Eq. 4 and available to
/// downstream users as a 2-way clustering primitive.
///
/// # Errors
/// [`GraphError::InvalidArgument`] on length mismatch, a non-finite
/// score, or graphs with no edges.
pub fn sweep_cut(g: &Graph, score: &[f64]) -> Result<(f64, Vec<bool>)> {
    let n = g.n();
    if score.len() != n {
        return Err(GraphError::InvalidArgument(format!(
            "score length {} != n = {n}",
            score.len()
        )));
    }
    if g.num_edges() == 0 {
        return Err(GraphError::InvalidArgument(
            "sweep cut of an edgeless graph".into(),
        ));
    }
    if let Some(u) = score.iter().position(|s| !s.is_finite()) {
        return Err(GraphError::InvalidArgument(format!(
            "sweep cut score of node {u} is not finite"
        )));
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]));
    let deg = g.degrees();
    let total_vol = g.total_volume();
    let mut members = vec![false; n];
    let mut vol = 0.0;
    let mut cut_val = 0.0;
    let mut best = f64::INFINITY;
    let mut best_prefix = 0usize;
    for (prefix, &u) in order.iter().enumerate().take(n - 1) {
        members[u] = true;
        vol += deg[u];
        // Adding u flips each (u, v) edge: inside→cut if v outside,
        // cut→inside if v already inside.
        let (cols, vals) = g.neighbors(u);
        for (&v, &w) in cols.iter().zip(vals) {
            if members[v] {
                cut_val -= w;
            } else {
                cut_val += w;
            }
        }
        let denom = vol.min(total_vol - vol);
        if denom > 0.0 {
            let phi = cut_val / denom;
            if phi < best {
                best = phi;
                best_prefix = prefix + 1;
            }
        }
    }
    let mut best_mask = vec![false; n];
    for &u in order.iter().take(best_prefix) {
        best_mask[u] = true;
    }
    Ok((best, best_mask))
}

/// Connected components by union-find; returns a component id per node
/// (ids are 0-based and contiguous, ordered by smallest member).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        // Path compression.
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for u in 0..n {
        for &v in g.neighbors(u).0 {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru.max(rv)] = ru.min(rv);
            }
        }
    }
    let mut ids = vec![usize::MAX; n];
    let mut next_id = 0;
    for u in 0..n {
        let r = find(&mut parent, u);
        if ids[r] == usize::MAX {
            ids[r] = next_id;
            next_id += 1;
        }
        ids[u] = ids[r];
    }
    ids
}

/// Number of connected components.
pub fn num_components(g: &Graph) -> usize {
    connected_components(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles joined by one bridge edge (the classic dumbbell).
    fn dumbbell() -> Graph {
        Graph::from_unweighted_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .unwrap()
    }

    #[test]
    fn volume_cut_ncut_on_dumbbell() {
        let g = dumbbell();
        let left = [true, true, true, false, false, false];
        assert_eq!(volume(&g, &left), 7.0); // degrees 2+2+3
        assert_eq!(cut(&g, &left), 1.0); // the bridge
        let phi = normalized_cut(&g, &left).unwrap();
        assert!((phi - 1.0 / 7.0).abs() < 1e-15);
        let cond = set_conductance(&g, &left).unwrap();
        assert!((cond - 1.0 / 7.0).abs() < 1e-15);
    }

    #[test]
    fn ncut_rejects_empty_set() {
        let g = dumbbell();
        assert!(normalized_cut(&g, &[false; 6]).is_err());
        assert!(set_conductance(&g, &[true; 6]).is_err());
    }

    #[test]
    fn sweep_cut_finds_bridge() {
        let g = dumbbell();
        // Any score separating the triangles works; use node index.
        let score = [0.0, 0.1, 0.2, 1.0, 1.1, 1.2];
        let (phi, mask) = sweep_cut(&g, &score).unwrap();
        assert!((phi - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(mask, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn sweep_cut_with_fiedler_vector_obeys_cheeger() {
        let g = dumbbell();
        let l = g.normalized_laplacian();
        let eig = mvag_sparse::eigen::smallest_eigenpairs(
            &l,
            2,
            &mvag_sparse::eigen::EigOptions::default(),
        )
        .unwrap();
        let lambda2 = eig.values[1];
        let fiedler = eig.vectors.col(1);
        let (phi, _) = sweep_cut(&g, &fiedler).unwrap();
        // Cheeger: λ₂/2 ≤ Φ(G) ≤ φ_sweep ≤ √(2 λ₂).
        assert!(lambda2 / 2.0 <= phi + 1e-12);
        assert!(phi <= (2.0 * lambda2).sqrt() + 1e-12);
    }

    #[test]
    fn sweep_cut_validates_input() {
        let g = dumbbell();
        assert!(sweep_cut(&g, &[0.0; 3]).is_err());
        let empty = Graph::from_unweighted_edges(3, &[]).unwrap();
        assert!(sweep_cut(&empty, &[0.0; 3]).is_err());
    }

    #[test]
    fn sweep_cut_rejects_non_finite_scores() {
        let g = dumbbell();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut score: Vec<f64> = (0..g.n()).map(|u| u as f64).collect();
            score[3] = bad;
            let err = sweep_cut(&g, &score).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidArgument(ref m) if m.contains("node 3")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_unweighted_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let ids = connected_components(&g);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[2], ids[3]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[4], ids[0]);
        assert_ne!(ids[4], ids[2]);
        assert_eq!(num_components(&g), 3);
    }

    #[test]
    fn components_of_connected_graph() {
        assert_eq!(num_components(&dumbbell()), 1);
    }

    #[test]
    fn zero_lambda2_iff_disconnected() {
        let g = Graph::from_unweighted_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let l = g.normalized_laplacian();
        let vals = mvag_sparse::eigen::smallest_eigenvalues(
            &l,
            3,
            &mvag_sparse::eigen::EigOptions::default(),
        )
        .unwrap();
        assert!(vals[0].abs() < 1e-10);
        assert!(
            vals[1].abs() < 1e-10,
            "disconnected ⇒ λ₂ = 0, got {}",
            vals[1]
        );
        assert!(vals[2] > 1e-6);
    }
}
