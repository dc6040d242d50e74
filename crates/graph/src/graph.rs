//! Undirected weighted simple graphs.

use crate::{GraphError, Result};
use mvag_sparse::{CooMatrix, CsrMatrix};

/// An undirected weighted simple graph stored as a symmetric CSR adjacency
/// matrix with zero diagonal.
///
/// Invariants: the adjacency is square, exactly symmetric, nonnegative,
/// and has no self-loops; all constructors enforce them.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj: CsrMatrix,
}

impl Graph {
    /// Builds a graph on `n` nodes from an undirected edge list. Edges are
    /// symmetrized, parallel edges have their weights summed, self-loops
    /// are dropped.
    ///
    /// # Errors
    /// * [`GraphError::InvalidArgument`] for out-of-range endpoints or
    ///   non-finite/negative weights.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2);
        for &(u, v, w) in edges {
            if u >= n || v >= n {
                return Err(GraphError::InvalidArgument(format!(
                    "edge ({u}, {v}) out of range for n = {n}"
                )));
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidArgument(format!(
                    "edge ({u}, {v}) has invalid weight {w}"
                )));
            }
            if u == v || w == 0.0 {
                continue;
            }
            coo.push_sym(u, v, w).map_err(GraphError::from)?;
        }
        Ok(Graph { adj: coo.to_csr() })
    }

    /// Builds a graph on `n` nodes from unweighted undirected edges
    /// (weight 1 each).
    ///
    /// # Errors
    /// See [`Graph::from_edges`].
    pub fn from_unweighted_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_edges(n, &weighted)
    }

    /// Wraps an existing adjacency matrix.
    ///
    /// # Errors
    /// [`GraphError::InvalidAdjacency`] unless the matrix is square,
    /// symmetric, nonnegative, with zero diagonal.
    pub fn from_adjacency(adj: CsrMatrix) -> Result<Self> {
        if adj.nrows() != adj.ncols() {
            return Err(GraphError::InvalidAdjacency(format!(
                "{}x{} not square",
                adj.nrows(),
                adj.ncols()
            )));
        }
        if adj.values().iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(GraphError::InvalidAdjacency(
                "negative or non-finite weight".into(),
            ));
        }
        if adj.diag().iter().any(|&d| d != 0.0) {
            return Err(GraphError::InvalidAdjacency("self-loop present".into()));
        }
        if !adj.is_symmetric(1e-12) {
            return Err(GraphError::InvalidAdjacency("not symmetric".into()));
        }
        Ok(Graph { adj })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.nrows()
    }

    /// Number of undirected edges (stored entries / 2).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.nnz() / 2
    }

    /// The adjacency matrix.
    #[inline]
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adj
    }

    /// Generalized degrees `δ(v)` — total weight of incident edges
    /// (Definition 1 of the paper).
    pub fn degrees(&self) -> Vec<f64> {
        self.adj.row_sums()
    }

    /// Total volume `Vol(V) = Σ δ(v)`.
    pub fn total_volume(&self) -> f64 {
        self.adj.values().iter().sum()
    }

    /// Neighbours of `v` with weights.
    pub fn neighbors(&self, v: usize) -> (&[usize], &[f64]) {
        (self.adj.row_cols(v), self.adj.row_vals(v))
    }

    /// The normalized Laplacian `L(G) = Iₙ − D^{-1/2} A D^{-1/2}`.
    ///
    /// Isolated nodes (degree 0) keep a diagonal entry of 1 (the `Iₙ`
    /// term with a zero normalized-adjacency row), matching the standard
    /// convention in Chung's Spectral Graph Theory.
    pub fn normalized_laplacian(&self) -> CsrMatrix {
        let p = self.adj.sym_normalized();
        let i = CsrMatrix::identity(self.n());
        CsrMatrix::linear_combination(&[&i, &p], &[1.0, -1.0])
            .expect("identity and adjacency share shape")
    }

    /// Returns a graph on `n + added` nodes carrying every existing
    /// edge plus `new_edges` (undirected, symmetrized; weights of
    /// parallel edges are summed, exactly like [`Graph::from_edges`]).
    /// New nodes with no incident `new_edges` stay isolated. This is
    /// the append primitive behind
    /// [`Mvag::apply_delta`](crate::Mvag::apply_delta).
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] for endpoints outside
    /// `0..n + added` or non-finite/negative weights.
    pub fn append_nodes(&self, added: usize, new_edges: &[(usize, usize, f64)]) -> Result<Self> {
        let n_new = self.n() + added;
        let mut coo = CooMatrix::with_capacity(n_new, n_new, self.adj.nnz() + new_edges.len() * 2);
        // Existing entries are already symmetric with zero diagonal;
        // copy them verbatim.
        for (r, c, v) in self.adj.iter() {
            coo.push(r, c, v).expect("existing entries are in range");
        }
        for &(u, v, w) in new_edges {
            if u >= n_new || v >= n_new {
                return Err(GraphError::InvalidArgument(format!(
                    "appended edge ({u}, {v}) out of range for n = {n_new}"
                )));
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidArgument(format!(
                    "appended edge ({u}, {v}) has invalid weight {w}"
                )));
            }
            if u == v || w == 0.0 {
                continue;
            }
            coo.push_sym(u, v, w).map_err(GraphError::from)?;
        }
        Ok(Graph { adj: coo.to_csr() })
    }

    /// Returns a graph on the same `n` nodes with every edge incident
    /// to a node in `removed` dropped — the *detach* primitive behind
    /// tombstone deletions: the node id stays valid (ids are stable
    /// until compaction) but the node no longer participates in any
    /// view's structure.
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] for removed ids out of range.
    pub fn detach_nodes(&self, removed: &[usize]) -> Result<Self> {
        let n = self.n();
        let mut dead = vec![false; n];
        for &v in removed {
            if v >= n {
                return Err(GraphError::InvalidArgument(format!(
                    "detached node {v} out of range for n = {n}"
                )));
            }
            dead[v] = true;
        }
        let mut coo = CooMatrix::with_capacity(n, n, self.adj.nnz());
        for (r, c, v) in self.adj.iter() {
            if !dead[r] && !dead[c] {
                coo.push(r, c, v).expect("existing entries are in range");
            }
        }
        Ok(Graph { adj: coo.to_csr() })
    }

    /// Returns a graph with the weights of the given undirected edges
    /// *set* (not summed): weight `0` removes the edge, a nonzero
    /// weight overwrites an existing edge or inserts a new one. Later
    /// entries for the same pair win. This is the edge-edit primitive
    /// behind [`MvagDelta`](crate::MvagDelta) edits.
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] for out-of-range endpoints,
    /// self-loops, or non-finite/negative weights.
    pub fn with_edge_weights(&self, edits: &[(usize, usize, f64)]) -> Result<Self> {
        let n = self.n();
        let mut overrides: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        for &(u, v, w) in edits {
            if u >= n || v >= n {
                return Err(GraphError::InvalidArgument(format!(
                    "edited edge ({u}, {v}) out of range for n = {n}"
                )));
            }
            if u == v {
                return Err(GraphError::InvalidArgument(format!(
                    "cannot edit self-loop ({u}, {u})"
                )));
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidArgument(format!(
                    "edited edge ({u}, {v}) has invalid weight {w}"
                )));
            }
            overrides.insert((u.min(v), u.max(v)), w);
        }
        let mut coo = CooMatrix::with_capacity(n, n, self.adj.nnz() + overrides.len() * 2);
        // Existing edges: overridden pairs take the new weight (0
        // drops); everything else is copied verbatim.
        for (r, c, v) in self.adj.iter() {
            if r > c {
                continue; // each undirected edge handled once
            }
            let w = match overrides.remove(&(r, c)) {
                Some(w) => w,
                None => v,
            };
            if w != 0.0 {
                coo.push_sym(r, c, w).map_err(GraphError::from)?;
            }
        }
        // Remaining overrides are brand-new edges.
        for (&(u, v), &w) in &overrides {
            if w != 0.0 {
                coo.push_sym(u, v, w).map_err(GraphError::from)?;
            }
        }
        Ok(Graph { adj: coo.to_csr() })
    }

    /// Indices of isolated (degree-0) nodes.
    pub fn isolated_nodes(&self) -> Vec<usize> {
        self.degrees()
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d == 0.0).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_unweighted_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_edges_symmetrizes_and_dedups() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 3.0);
        assert_eq!(g.adjacency().get(1, 0), 3.0);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let g = Graph::from_edges(2, &[(0, 0, 5.0), (0, 1, 1.0)]).unwrap();
        assert_eq!(g.adjacency().get(0, 0), 0.0);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn invalid_edges_rejected() {
        assert!(Graph::from_edges(2, &[(0, 5, 1.0)]).is_err());
        assert!(Graph::from_edges(2, &[(0, 1, -1.0)]).is_err());
        assert!(Graph::from_edges(2, &[(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn from_adjacency_validates() {
        let asym = {
            let mut c = CooMatrix::new(2, 2);
            c.push(0, 1, 1.0).unwrap();
            c.to_csr()
        };
        assert!(matches!(
            Graph::from_adjacency(asym),
            Err(GraphError::InvalidAdjacency(_))
        ));
        let with_loop = {
            let mut c = CooMatrix::new(2, 2);
            c.push(0, 0, 1.0).unwrap();
            c.to_csr()
        };
        assert!(Graph::from_adjacency(with_loop).is_err());
        let good = {
            let mut c = CooMatrix::new(2, 2);
            c.push_sym(0, 1, 2.0).unwrap();
            c.to_csr()
        };
        assert!(Graph::from_adjacency(good).is_ok());
    }

    #[test]
    fn degrees_and_volume() {
        let g = triangle();
        assert_eq!(g.degrees(), vec![2.0, 2.0, 2.0]);
        assert_eq!(g.total_volume(), 6.0);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn normalized_laplacian_triangle() {
        // Complete graph K3: L = I − A/2; eigenvalues 0, 3/2, 3/2.
        let l = triangle().normalized_laplacian();
        assert_eq!(l.get(0, 0), 1.0);
        assert!((l.get(0, 1) + 0.5).abs() < 1e-15);
        let eig = mvag_sparse::eigen::jacobi_eig(&l.to_dense()).unwrap();
        assert!(eig.values[0].abs() < 1e-12);
        assert!((eig.values[1] - 1.5).abs() < 1e-12);
        assert!((eig.values[2] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn laplacian_constant_vector_in_kernel() {
        // D^{1/2}·1 is in the kernel of L for connected graphs; for a
        // regular graph this is the constant vector.
        let g = triangle();
        let l = g.normalized_laplacian();
        let x = [1.0, 1.0, 1.0];
        let mut y = [0.0; 3];
        l.matvec(&x, &mut y);
        for v in y {
            assert!(v.abs() < 1e-14);
        }
    }

    #[test]
    fn isolated_node_handling() {
        let g = Graph::from_unweighted_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(g.isolated_nodes(), vec![2]);
        let l = g.normalized_laplacian();
        assert_eq!(l.get(2, 2), 1.0);
        assert_eq!(l.get(2, 0), 0.0);
    }

    #[test]
    fn neighbors_query() {
        let g = triangle();
        let (cols, vals) = g.neighbors(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 1.0]);
    }

    #[test]
    fn append_nodes_extends_and_validates() {
        let g = triangle();
        // No delta: same adjacency, two extra isolated nodes.
        let bigger = g.append_nodes(2, &[]).unwrap();
        assert_eq!(bigger.n(), 5);
        assert_eq!(bigger.num_edges(), 3);
        assert_eq!(bigger.isolated_nodes(), vec![3, 4]);
        // Wiring a new node in: edges count, symmetry, weight sum with
        // an existing edge.
        let wired = g.append_nodes(1, &[(3, 0, 2.0), (0, 1, 0.5)]).unwrap();
        assert_eq!(wired.n(), 4);
        assert_eq!(wired.adjacency().get(3, 0), 2.0);
        assert_eq!(wired.adjacency().get(0, 3), 2.0);
        assert_eq!(wired.adjacency().get(0, 1), 1.5);
        // The appended graph passes the constructor invariants.
        Graph::from_adjacency(wired.adjacency().clone()).unwrap();
        // Bad edges rejected.
        assert!(g.append_nodes(1, &[(0, 4, 1.0)]).is_err());
        assert!(g.append_nodes(1, &[(0, 3, -1.0)]).is_err());
        assert!(g.append_nodes(1, &[(0, 3, f64::NAN)]).is_err());
    }

    #[test]
    fn detach_nodes_drops_incident_edges() {
        let g = triangle();
        let d = g.detach_nodes(&[1]).unwrap();
        assert_eq!(d.n(), 3);
        assert_eq!(d.num_edges(), 1); // only (0, 2) survives
        assert_eq!(d.adjacency().get(0, 1), 0.0);
        assert_eq!(d.adjacency().get(1, 2), 0.0);
        assert_eq!(d.adjacency().get(0, 2), 1.0);
        assert_eq!(d.isolated_nodes(), vec![1]);
        // Detached graphs keep the constructor invariants.
        Graph::from_adjacency(d.adjacency().clone()).unwrap();
        // Detaching nothing is the identity; out-of-range rejected.
        assert_eq!(g.detach_nodes(&[]).unwrap().adjacency(), g.adjacency());
        assert!(g.detach_nodes(&[3]).is_err());
    }

    #[test]
    fn with_edge_weights_sets_inserts_and_removes() {
        let g = triangle();
        // Overwrite (0,1), remove (1,2), leave (2,0).
        let e = g.with_edge_weights(&[(0, 1, 2.5), (2, 1, 0.0)]).unwrap();
        assert_eq!(e.adjacency().get(0, 1), 2.5);
        assert_eq!(e.adjacency().get(1, 0), 2.5);
        assert_eq!(e.adjacency().get(1, 2), 0.0);
        assert_eq!(e.adjacency().get(0, 2), 1.0);
        assert_eq!(e.num_edges(), 2);
        Graph::from_adjacency(e.adjacency().clone()).unwrap();
        // Insert a brand-new edge into a sparse graph.
        let sparse = Graph::from_unweighted_edges(4, &[(0, 1)]).unwrap();
        let grown = sparse.with_edge_weights(&[(2, 3, 4.0)]).unwrap();
        assert_eq!(grown.adjacency().get(2, 3), 4.0);
        assert_eq!(grown.num_edges(), 2);
        // Later edits for the same pair win (either endpoint order).
        let last = g.with_edge_weights(&[(0, 1, 9.0), (1, 0, 3.0)]).unwrap();
        assert_eq!(last.adjacency().get(0, 1), 3.0);
        // Bad edits rejected.
        assert!(g.with_edge_weights(&[(0, 5, 1.0)]).is_err());
        assert!(g.with_edge_weights(&[(1, 1, 1.0)]).is_err());
        assert!(g.with_edge_weights(&[(0, 1, -1.0)]).is_err());
        assert!(g.with_edge_weights(&[(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_unweighted_edges(4, &[]).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.isolated_nodes().len(), 4);
        let l = g.normalized_laplacian();
        for i in 0..4 {
            assert_eq!(l.get(i, i), 1.0);
        }
    }
}
