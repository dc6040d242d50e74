//! The multi-view attributed graph container.
//!
//! `G = {V, E₁, …, E_p, X_{p+1}, …, X_{p+q}}` — `p` graph views over a
//! shared node set plus `q` attribute views (Section III-A of the paper).

use crate::{Graph, GraphError, Result};
use mvag_sparse::DenseMatrix;

/// One view of an MVAG: either a graph over the shared node set or an
/// attribute matrix with one row per node.
#[derive(Debug, Clone, PartialEq)]
pub enum View {
    /// A graph view `Gᵢ = {V, Eᵢ}`.
    Graph(Graph),
    /// An attribute view `Xⱼ ∈ R^{n × dⱼ}`.
    Attributes(DenseMatrix),
}

impl View {
    /// Number of nodes this view covers.
    pub fn n(&self) -> usize {
        match self {
            View::Graph(g) => g.n(),
            View::Attributes(x) => x.nrows(),
        }
    }

    /// Whether this is a graph view.
    pub fn is_graph(&self) -> bool {
        matches!(self, View::Graph(_))
    }
}

/// The per-view half of an [`MvagDelta`]: what one view gains in an
/// append.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewDelta {
    /// New undirected edges for a graph view. Endpoints may reference
    /// both existing and appended nodes; an empty list leaves the view
    /// untouched beyond isolated appended nodes.
    Edges(Vec<(usize, usize, f64)>),
    /// Attribute rows for the appended nodes (`added_nodes × dⱼ`).
    /// Required (with exactly `added_nodes` rows) whenever nodes are
    /// appended; a `0 × dⱼ` matrix otherwise.
    Rows(DenseMatrix),
}

/// One in-place edit of an existing node carried by an [`MvagDelta`].
///
/// Edits reference *pre-existing* nodes only (ids below the base
/// MVAG's `n`) — new nodes arrive fully specified through the append
/// half of the delta.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaEdit {
    /// Set the weight of the undirected edge `(u, v)` in graph view
    /// `view`: `0` removes the edge, a nonzero weight overwrites an
    /// existing edge or inserts a new one.
    EdgeWeight {
        /// Index of the graph view the edge lives in.
        view: usize,
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// New weight (`0` deletes).
        w: f64,
    },
    /// Overwrite the attribute row of `node` in attribute view `view`.
    AttrRow {
        /// Index of the attribute view.
        view: usize,
        /// The node whose row is replaced.
        node: usize,
        /// The replacement row (must match the view's width).
        row: Vec<f64>,
    },
}

/// A change to an [`Mvag`]: `added_nodes` new nodes plus one
/// [`ViewDelta`] per view (same order as [`Mvag::views`]), in-place
/// [`DeltaEdit`]s of existing nodes, and tombstone removals.
///
/// Node ids are stable: a removal *detaches* the node (drops every
/// incident edge in every graph view) but does not shift ids — `n`
/// never shrinks until a compaction pass rewrites the artifact. The
/// attribute rows of removed nodes are left in place as dead rows;
/// the serving layer masks tombstoned nodes out of all query results.
/// Semantically a delta applies in three steps: append, then edit,
/// then detach — so removals always win over edits/appends touching
/// the same node (which are rejected as inconsistent).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MvagDelta {
    /// Number of appended nodes.
    pub added_nodes: usize,
    /// One entry per view, in view order.
    pub views: Vec<ViewDelta>,
    /// Ground-truth labels of the appended nodes; must be present iff
    /// the base MVAG carries labels.
    pub added_labels: Option<Vec<usize>>,
    /// Ids of existing nodes to tombstone, strictly increasing.
    pub removed_nodes: Vec<usize>,
    /// In-place edits of existing nodes.
    pub edits: Vec<DeltaEdit>,
}

impl MvagDelta {
    /// A pure append delta (no removals, no edits) — the shape every
    /// pre-v2 (`SGLD` v1) delta file decodes to.
    pub fn append(
        added_nodes: usize,
        views: Vec<ViewDelta>,
        added_labels: Option<Vec<usize>>,
    ) -> MvagDelta {
        MvagDelta {
            added_nodes,
            views,
            added_labels,
            removed_nodes: Vec::new(),
            edits: Vec::new(),
        }
    }

    /// Whether the delta changes nothing at all.
    pub fn is_noop(&self) -> bool {
        self.added_nodes == 0
            && self.removed_nodes.is_empty()
            && self.edits.is_empty()
            && self.views.iter().all(|v| match v {
                ViewDelta::Edges(e) => e.is_empty(),
                ViewDelta::Rows(x) => x.nrows() == 0,
            })
    }

    /// Whether the delta is append-only (no removals, no edits) — the
    /// regime where in-place sharded append applies.
    pub fn is_append_only(&self) -> bool {
        self.removed_nodes.is_empty() && self.edits.is_empty()
    }

    /// The edge edits targeting graph view `view`, in delta order.
    pub fn edge_edits_for(&self, view: usize) -> Vec<(usize, usize, f64)> {
        self.edits
            .iter()
            .filter_map(|e| match e {
                DeltaEdit::EdgeWeight { view: ev, u, v, w } if *ev == view => Some((*u, *v, *w)),
                _ => None,
            })
            .collect()
    }

    /// Per-view "content changed" flags against a base MVAG: a graph
    /// view changes when it gains edges, has edge edits, or any node
    /// is removed (its incident edges must be dropped); an attribute
    /// view changes whenever rows are appended or edited (its KNN
    /// graph must be rebuilt). Removals alone leave attribute views
    /// unchanged — the dead rows stay in place and delete-only deltas
    /// skip the KNN rebuilds.
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] if the delta's view list does
    /// not line up with the base.
    pub fn changed_views(&self, base: &Mvag) -> Result<Vec<bool>> {
        if self.views.len() != base.r() {
            return Err(GraphError::InvalidArgument(format!(
                "delta has {} view entries for {} views",
                self.views.len(),
                base.r()
            )));
        }
        let removing = !self.removed_nodes.is_empty();
        self.views
            .iter()
            .zip(base.views())
            .enumerate()
            .map(|(i, (d, v))| match (d, v) {
                (ViewDelta::Edges(e), View::Graph(_)) => Ok(!e.is_empty()
                    || removing
                    || self
                        .edits
                        .iter()
                        .any(|ed| matches!(ed, DeltaEdit::EdgeWeight { view, .. } if *view == i))),
                (ViewDelta::Rows(x), View::Attributes(_)) => Ok(x.nrows() > 0
                    || self
                        .edits
                        .iter()
                        .any(|ed| matches!(ed, DeltaEdit::AttrRow { view, .. } if *view == i))),
                _ => Err(GraphError::InvalidArgument(format!(
                    "delta entry {i} does not match the kind of view {i}"
                ))),
            })
            .collect()
    }

    /// Validates the removal/edit half of the delta against a base
    /// with `n` nodes and `r` views of the given kinds (`true` =
    /// graph). Shared by [`Mvag::apply_delta`] and by consumers that
    /// must reject a malformed delta before touching any state.
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] for unsorted/duplicate/out-of-
    /// range removals, edits referencing removed or out-of-range
    /// nodes, edits whose view index or kind does not line up, or
    /// appended edges touching removed nodes.
    pub fn validate_mutations(&self, n: usize, is_graph: &[bool]) -> Result<()> {
        for pair in self.removed_nodes.windows(2) {
            if pair[0] >= pair[1] {
                return Err(GraphError::InvalidArgument(format!(
                    "removed_nodes must be strictly increasing (saw {} then {})",
                    pair[0], pair[1]
                )));
            }
        }
        if let Some(&last) = self.removed_nodes.last() {
            if last >= n {
                return Err(GraphError::InvalidArgument(format!(
                    "removed node {last} out of range for n = {n}"
                )));
            }
        }
        let removed = |id: usize| self.removed_nodes.binary_search(&id).is_ok();
        for (i, e) in self.edits.iter().enumerate() {
            let (view, nodes) = match e {
                DeltaEdit::EdgeWeight { view, u, v, .. } => (*view, vec![*u, *v]),
                DeltaEdit::AttrRow { view, node, .. } => (*view, vec![*node]),
            };
            if view >= is_graph.len() {
                return Err(GraphError::InvalidArgument(format!(
                    "edit {i} targets view {view}, but there are {} views",
                    is_graph.len()
                )));
            }
            let wants_graph = matches!(e, DeltaEdit::EdgeWeight { .. });
            if is_graph[view] != wants_graph {
                return Err(GraphError::InvalidArgument(format!(
                    "edit {i} kind does not match the kind of view {view}"
                )));
            }
            for node in nodes {
                if node >= n {
                    return Err(GraphError::InvalidArgument(format!(
                        "edit {i} references node {node}, out of range for existing n = {n}"
                    )));
                }
                if removed(node) {
                    return Err(GraphError::InvalidArgument(format!(
                        "edit {i} references node {node}, which this delta removes"
                    )));
                }
            }
        }
        if !self.removed_nodes.is_empty() {
            for (vi, vd) in self.views.iter().enumerate() {
                if let ViewDelta::Edges(edges) = vd {
                    for &(u, v, _) in edges {
                        if removed(u) || removed(v) {
                            return Err(GraphError::InvalidArgument(format!(
                                "view {vi}: appended edge ({u}, {v}) touches a node this \
                                 delta removes"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A multi-view attributed graph with optional ground-truth labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Mvag {
    /// Human-readable dataset name (used by the experiment harness).
    pub name: String,
    views: Vec<View>,
    labels: Option<Vec<usize>>,
    k: usize,
}

impl Mvag {
    /// Creates an MVAG, validating view-count and node-count consistency.
    ///
    /// The paper targets MVAGs with `r = p + q > 2` views, but `r ≥ 2` is
    /// accepted (weighting two views is already meaningful); `r < 2` is
    /// rejected because aggregation degenerates to a single view.
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] on inconsistent node counts,
    /// a non-finite attribute value, `r < 2`, `k < 2`, or label problems.
    pub fn new(
        name: impl Into<String>,
        views: Vec<View>,
        labels: Option<Vec<usize>>,
        k: usize,
    ) -> Result<Self> {
        if views.len() < 2 {
            return Err(GraphError::InvalidArgument(format!(
                "an MVAG needs r >= 2 views, got {}",
                views.len()
            )));
        }
        let n = views[0].n();
        if n == 0 {
            return Err(GraphError::InvalidArgument("MVAG with 0 nodes".into()));
        }
        for (i, v) in views.iter().enumerate() {
            if v.n() != n {
                return Err(GraphError::InvalidArgument(format!(
                    "view {i} covers {} nodes, expected {n}",
                    v.n()
                )));
            }
            if let View::Attributes(x) = v {
                if let Some(r) = (0..n).find(|&r| x.row(r).iter().any(|a| !a.is_finite())) {
                    return Err(GraphError::InvalidArgument(format!(
                        "view {i}: attribute row {r} holds a non-finite value"
                    )));
                }
            }
        }
        if k < 2 {
            return Err(GraphError::InvalidArgument(format!(
                "MVAG needs k >= 2 clusters, got {k}"
            )));
        }
        if let Some(ref l) = labels {
            if l.len() != n {
                return Err(GraphError::InvalidArgument(format!(
                    "labels length {} != n = {n}",
                    l.len()
                )));
            }
            if let Some(&max) = l.iter().max() {
                if max >= k {
                    return Err(GraphError::InvalidArgument(format!(
                        "label {max} >= k = {k}"
                    )));
                }
            }
        }
        Ok(Mvag {
            name: name.into(),
            views,
            labels,
            k,
        })
    }

    /// Number of nodes `n`.
    pub fn n(&self) -> usize {
        self.views[0].n()
    }

    /// Number of views `r = p + q`.
    pub fn r(&self) -> usize {
        self.views.len()
    }

    /// Number of ground-truth clusters/classes `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// All views in order (graph views conventionally first, but any order
    /// is supported).
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// Ground-truth labels if available.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Number of graph views `p`.
    pub fn num_graph_views(&self) -> usize {
        self.views.iter().filter(|v| v.is_graph()).count()
    }

    /// Number of attribute views `q`.
    pub fn num_attr_views(&self) -> usize {
        self.r() - self.num_graph_views()
    }

    /// Total number of edges `m` across all graph views.
    pub fn total_edges(&self) -> usize {
        self.views
            .iter()
            .map(|v| match v {
                View::Graph(g) => g.num_edges(),
                View::Attributes(_) => 0,
            })
            .sum()
    }

    /// Applies an [`MvagDelta`], producing the updated MVAG: every
    /// graph view gains the delta's edges (appended nodes without
    /// edges stay isolated), every attribute view gains the delta's
    /// rows, labels are extended; then in-place edits are applied
    /// (edge-weight sets, attribute-row overwrites) and finally
    /// removed nodes are detached from every graph view. Removed
    /// nodes keep their id and their (now dead) attribute rows — `n`
    /// never shrinks here; compaction is a separate, artifact-level
    /// pass.
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] when the delta does not line up
    /// with this MVAG: wrong view count or kinds, attribute row
    /// count/width mismatches, non-finite appended or edited attribute
    /// values (the result goes through [`Mvag::new`]), out-of-range edge
    /// endpoints, label problems, or invalid removals/edits (see
    /// [`MvagDelta::validate_mutations`]).
    pub fn apply_delta(&self, delta: &MvagDelta) -> Result<Mvag> {
        // Kind/lineup validation up front (also used by callers to
        // plan incremental Laplacian refreshes).
        delta.changed_views(self)?;
        let is_graph: Vec<bool> = self.views.iter().map(View::is_graph).collect();
        delta.validate_mutations(self.n(), &is_graph)?;
        let n_new = self.n() + delta.added_nodes;
        let mut views = Vec::with_capacity(self.r());
        for (i, (view, vd)) in self.views.iter().zip(&delta.views).enumerate() {
            match (view, vd) {
                (View::Graph(g), ViewDelta::Edges(edges)) => {
                    let mut g = g.append_nodes(delta.added_nodes, edges)?;
                    let edits = delta.edge_edits_for(i);
                    if !edits.is_empty() {
                        g = g.with_edge_weights(&edits)?;
                    }
                    if !delta.removed_nodes.is_empty() {
                        g = g.detach_nodes(&delta.removed_nodes)?;
                    }
                    views.push(View::Graph(g));
                }
                (View::Attributes(x), ViewDelta::Rows(rows)) => {
                    if rows.nrows() != delta.added_nodes {
                        return Err(GraphError::InvalidArgument(format!(
                            "view {i}: {} appended attribute rows for {} appended nodes",
                            rows.nrows(),
                            delta.added_nodes
                        )));
                    }
                    if delta.added_nodes > 0 && rows.ncols() != x.ncols() {
                        return Err(GraphError::InvalidArgument(format!(
                            "view {i}: appended rows have {} columns, view has {}",
                            rows.ncols(),
                            x.ncols()
                        )));
                    }
                    let mut data = Vec::with_capacity((x.nrows() + rows.nrows()) * x.ncols());
                    data.extend_from_slice(x.data());
                    data.extend_from_slice(rows.data());
                    let mut stacked = DenseMatrix::from_vec(n_new, x.ncols(), data)
                        .expect("row counts add up by construction");
                    for (ei, e) in delta.edits.iter().enumerate() {
                        if let DeltaEdit::AttrRow { view, node, row } = e {
                            if *view != i {
                                continue;
                            }
                            if row.len() != x.ncols() {
                                return Err(GraphError::InvalidArgument(format!(
                                    "edit {ei}: row has {} columns, view {i} has {}",
                                    row.len(),
                                    x.ncols()
                                )));
                            }
                            stacked.row_mut(*node).copy_from_slice(row);
                        }
                    }
                    views.push(View::Attributes(stacked));
                }
                _ => unreachable!("kinds checked by changed_views"),
            }
        }
        let labels = match (&self.labels, &delta.added_labels) {
            (Some(old), Some(add)) => {
                if add.len() != delta.added_nodes {
                    return Err(GraphError::InvalidArgument(format!(
                        "{} appended labels for {} appended nodes",
                        add.len(),
                        delta.added_nodes
                    )));
                }
                let mut l = old.clone();
                l.extend_from_slice(add);
                Some(l)
            }
            (None, None) => None,
            (Some(_), None) => {
                return Err(GraphError::InvalidArgument(
                    "base MVAG has labels; the delta must supply added_labels".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(GraphError::InvalidArgument(
                    "base MVAG has no labels; the delta must not supply added_labels".into(),
                ))
            }
        };
        Mvag::new(self.name.clone(), views, labels, self.k)
    }

    /// One-line statistics summary (mirrors the paper's Table II row).
    pub fn summary(&self) -> String {
        let edge_counts: Vec<String> = self
            .views
            .iter()
            .filter_map(|v| match v {
                View::Graph(g) => Some(g.num_edges().to_string()),
                View::Attributes(_) => None,
            })
            .collect();
        let dims: Vec<String> = self
            .views
            .iter()
            .filter_map(|v| match v {
                View::Attributes(x) => Some(x.ncols().to_string()),
                View::Graph(_) => None,
            })
            .collect();
        format!(
            "{}: n={} r={} m_i=[{}] d_j=[{}] k={}",
            self.name,
            self.n(),
            self.r(),
            edge_counts.join(";"),
            dims.join(";"),
            self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_view(n: usize) -> View {
        View::Graph(Graph::from_unweighted_edges(n, &[(0, 1)]).unwrap())
    }

    fn attr_view(n: usize, d: usize) -> View {
        View::Attributes(DenseMatrix::zeros(n, d))
    }

    #[test]
    fn valid_mvag() {
        let m = Mvag::new(
            "test",
            vec![graph_view(4), attr_view(4, 3)],
            Some(vec![0, 0, 1, 1]),
            2,
        )
        .unwrap();
        assert_eq!(m.n(), 4);
        assert_eq!(m.r(), 2);
        assert_eq!(m.num_graph_views(), 1);
        assert_eq!(m.num_attr_views(), 1);
        assert_eq!(m.total_edges(), 1);
        assert!(m.summary().contains("n=4"));
    }

    #[test]
    fn rejects_single_view() {
        assert!(Mvag::new("x", vec![graph_view(4)], None, 2).is_err());
    }

    #[test]
    fn rejects_inconsistent_n() {
        assert!(Mvag::new("x", vec![graph_view(4), attr_view(5, 2)], None, 2).is_err());
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(
            Mvag::new(
                "x",
                vec![graph_view(4), attr_view(4, 2)],
                Some(vec![0, 1]),
                2
            )
            .is_err(),
            "short labels"
        );
        assert!(
            Mvag::new(
                "x",
                vec![graph_view(4), attr_view(4, 2)],
                Some(vec![0, 1, 2, 0]),
                2
            )
            .is_err(),
            "label >= k"
        );
    }

    #[test]
    fn rejects_non_finite_attributes() {
        // A single +inf attribute used to reach the KNN builder and panic
        // in its similarity sort.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut x = DenseMatrix::from_vec(4, 2, vec![1.0; 8]).unwrap();
            x.row_mut(2)[1] = bad;
            let err =
                Mvag::new("x", vec![graph_view(4), View::Attributes(x)], None, 2).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidArgument(ref m) if m.contains("row 2 holds a non-finite")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn apply_delta_rejects_non_finite_appended_rows() {
        let base = Mvag::new("test", vec![graph_view(4), attr_view(4, 3)], None, 2).unwrap();
        let mut rows = DenseMatrix::zeros(2, 3);
        rows.row_mut(1)[0] = f64::INFINITY;
        let delta = MvagDelta::append(
            2,
            vec![ViewDelta::Edges(vec![]), ViewDelta::Rows(rows)],
            None,
        );
        let err = base.apply_delta(&delta).unwrap_err();
        assert!(
            matches!(err, GraphError::InvalidArgument(ref m) if m.contains("row 5 holds a non-finite")),
            "{err}"
        );
    }

    #[test]
    fn rejects_small_k() {
        assert!(Mvag::new("x", vec![graph_view(4), attr_view(4, 2)], None, 1).is_err());
    }

    #[test]
    fn apply_delta_appends_nodes_edges_rows_labels() {
        let base = Mvag::new(
            "test",
            vec![graph_view(4), attr_view(4, 3)],
            Some(vec![0, 0, 1, 1]),
            2,
        )
        .unwrap();
        let delta = MvagDelta::append(
            2,
            vec![
                ViewDelta::Edges(vec![(4, 0, 1.0), (5, 2, 2.0), (4, 5, 1.0)]),
                ViewDelta::Rows(DenseMatrix::from_vec(2, 3, vec![1.0; 6]).unwrap()),
            ],
            Some(vec![0, 1]),
        );
        assert!(!delta.is_noop());
        assert_eq!(delta.changed_views(&base).unwrap(), vec![true, true]);
        let updated = base.apply_delta(&delta).unwrap();
        assert_eq!(updated.n(), 6);
        assert_eq!(updated.labels().unwrap(), &[0, 0, 1, 1, 0, 1]);
        assert_eq!(updated.total_edges(), 1 + 3);
        match &updated.views()[1] {
            View::Attributes(x) => {
                assert_eq!(x.nrows(), 6);
                assert_eq!(x.row(4), &[1.0, 1.0, 1.0]);
            }
            View::Graph(_) => panic!("view 1 should stay an attribute view"),
        }
        // Edge-only delta: attribute view untouched, graph view changed.
        let edges_only = MvagDelta::append(
            0,
            vec![
                ViewDelta::Edges(vec![(2, 3, 1.0)]),
                ViewDelta::Rows(DenseMatrix::zeros(0, 0)),
            ],
            Some(vec![]),
        );
        assert_eq!(edges_only.changed_views(&base).unwrap(), vec![true, false]);
        let patched = base.apply_delta(&edges_only).unwrap();
        assert_eq!(patched.n(), 4);
        assert_eq!(patched.total_edges(), 2);
    }

    #[test]
    fn apply_delta_rejects_malformed_deltas() {
        let base = Mvag::new(
            "test",
            vec![graph_view(4), attr_view(4, 3)],
            Some(vec![0, 0, 1, 1]),
            2,
        )
        .unwrap();
        let rows = |n: usize, d: usize| ViewDelta::Rows(DenseMatrix::zeros(n, d));
        // Wrong view count / kind order.
        let bad = MvagDelta::append(0, vec![ViewDelta::Edges(vec![])], Some(vec![]));
        assert!(base.apply_delta(&bad).is_err());
        let swapped =
            MvagDelta::append(0, vec![rows(0, 3), ViewDelta::Edges(vec![])], Some(vec![]));
        assert!(base.apply_delta(&swapped).is_err());
        // Row-count, width, label-count, label-range, missing-label errors.
        for (added, v1, labels) in [
            (2, rows(1, 3), Some(vec![0, 1])),
            (2, rows(2, 4), Some(vec![0, 1])),
            (2, rows(2, 3), Some(vec![0])),
            (2, rows(2, 3), Some(vec![0, 7])),
            (2, rows(2, 3), None),
        ] {
            let delta =
                MvagDelta::append(added, vec![ViewDelta::Edges(vec![]), v1.clone()], labels);
            assert!(base.apply_delta(&delta).is_err(), "{delta:?}");
        }
        // Out-of-range appended edge.
        let bad_edge = MvagDelta::append(
            1,
            vec![ViewDelta::Edges(vec![(0, 9, 1.0)]), rows(1, 3)],
            Some(vec![0]),
        );
        assert!(base.apply_delta(&bad_edge).is_err());
    }

    #[test]
    fn apply_delta_removes_and_edits() {
        let base = Mvag::new(
            "test",
            vec![
                View::Graph(Graph::from_unweighted_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()),
                attr_view(4, 3),
            ],
            Some(vec![0, 0, 1, 1]),
            2,
        )
        .unwrap();
        let delta = MvagDelta {
            added_nodes: 0,
            views: vec![
                ViewDelta::Edges(vec![]),
                ViewDelta::Rows(DenseMatrix::zeros(0, 0)),
            ],
            added_labels: Some(vec![]),
            removed_nodes: vec![1],
            edits: vec![
                DeltaEdit::EdgeWeight {
                    view: 0,
                    u: 2,
                    v: 3,
                    w: 5.0,
                },
                DeltaEdit::AttrRow {
                    view: 1,
                    node: 0,
                    row: vec![7.0, 8.0, 9.0],
                },
            ],
        };
        assert!(!delta.is_noop());
        assert!(!delta.is_append_only());
        // Removal marks the graph view changed; row edit marks the
        // attribute view changed.
        assert_eq!(delta.changed_views(&base).unwrap(), vec![true, true]);
        let updated = base.apply_delta(&delta).unwrap();
        assert_eq!(updated.n(), 4, "removal keeps ids stable");
        match &updated.views()[0] {
            View::Graph(g) => {
                assert_eq!(g.adjacency().get(0, 1), 0.0, "detached");
                assert_eq!(g.adjacency().get(1, 2), 0.0, "detached");
                assert_eq!(g.adjacency().get(2, 3), 5.0, "edited weight");
                assert_eq!(g.isolated_nodes(), vec![0, 1]);
            }
            View::Attributes(_) => panic!("view 0 should stay a graph view"),
        }
        match &updated.views()[1] {
            View::Attributes(x) => {
                assert_eq!(x.row(0), &[7.0, 8.0, 9.0]);
                assert_eq!(x.row(1), &[0.0, 0.0, 0.0], "dead row left in place");
            }
            View::Graph(_) => panic!("view 1 should stay an attribute view"),
        }
        // Delete-only delta: graph views changed, attribute views not.
        let delete_only = MvagDelta {
            removed_nodes: vec![2],
            views: vec![
                ViewDelta::Edges(vec![]),
                ViewDelta::Rows(DenseMatrix::zeros(0, 0)),
            ],
            added_labels: Some(vec![]),
            ..MvagDelta::default()
        };
        assert_eq!(delete_only.changed_views(&base).unwrap(), vec![true, false]);
    }

    #[test]
    fn apply_delta_rejects_bad_removals_and_edits() {
        let base = Mvag::new(
            "test",
            vec![
                View::Graph(Graph::from_unweighted_edges(4, &[(0, 1)]).unwrap()),
                attr_view(4, 3),
            ],
            None,
            2,
        )
        .unwrap();
        let shell = |removed: Vec<usize>, edits: Vec<DeltaEdit>| MvagDelta {
            added_nodes: 0,
            views: vec![
                ViewDelta::Edges(vec![]),
                ViewDelta::Rows(DenseMatrix::zeros(0, 0)),
            ],
            added_labels: None,
            removed_nodes: removed,
            edits,
        };
        // Unsorted, duplicate, out-of-range removals.
        assert!(base.apply_delta(&shell(vec![2, 1], vec![])).is_err());
        assert!(base.apply_delta(&shell(vec![1, 1], vec![])).is_err());
        assert!(base.apply_delta(&shell(vec![4], vec![])).is_err());
        // Edit on a removed node / out-of-range node / wrong view kind
        // / bad view index / wrong row width / non-finite row.
        let edge = |u: usize, v: usize| DeltaEdit::EdgeWeight {
            view: 0,
            u,
            v,
            w: 1.0,
        };
        assert!(base.apply_delta(&shell(vec![1], vec![edge(1, 2)])).is_err());
        assert!(base.apply_delta(&shell(vec![], vec![edge(0, 9)])).is_err());
        let wrong_kind = DeltaEdit::AttrRow {
            view: 0,
            node: 0,
            row: vec![1.0; 3],
        };
        assert!(base.apply_delta(&shell(vec![], vec![wrong_kind])).is_err());
        let bad_view = DeltaEdit::AttrRow {
            view: 5,
            node: 0,
            row: vec![1.0; 3],
        };
        assert!(base.apply_delta(&shell(vec![], vec![bad_view])).is_err());
        let bad_width = DeltaEdit::AttrRow {
            view: 1,
            node: 0,
            row: vec![1.0; 2],
        };
        assert!(base.apply_delta(&shell(vec![], vec![bad_width])).is_err());
        let non_finite = DeltaEdit::AttrRow {
            view: 1,
            node: 0,
            row: vec![f64::NAN, 0.0, 0.0],
        };
        assert!(base.apply_delta(&shell(vec![], vec![non_finite])).is_err());
        // Appended edge touching a removed node.
        let touch = MvagDelta {
            added_nodes: 1,
            views: vec![
                ViewDelta::Edges(vec![(4, 1, 1.0)]),
                ViewDelta::Rows(DenseMatrix::zeros(1, 3)),
            ],
            added_labels: None,
            removed_nodes: vec![1],
            edits: vec![],
        };
        assert!(base.apply_delta(&touch).is_err());
    }

    #[test]
    fn rejects_zero_nodes() {
        let g = View::Graph(Graph::from_unweighted_edges(0, &[]).unwrap());
        let a = View::Attributes(DenseMatrix::zeros(0, 2));
        assert!(Mvag::new("x", vec![g, a], None, 2).is_err());
    }
}
