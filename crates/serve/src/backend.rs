//! The query-backend abstraction the HTTP front end serves.
//!
//! [`QueryBackend`] is the narrow interface between the transport
//! layer ([`crate::http`], [`crate::batch`]) and whatever answers
//! queries behind it. It has two implementations: the query front end
//! [`crate::router::ShardRouter`] (also named [`crate::QueryEngine`]),
//! which serves a monolithic artifact as one pinned shard and a
//! sharded layout as many lazily-loaded ones, and
//! [`crate::swap::HotSwapBackend`], which delegates to a replaceable
//! front end. The HTTP server and the micro-batcher are written
//! against `Arc<dyn QueryBackend>`.
//!
//! Each query is declared once, in its costed form; the plain forms
//! are provided wrappers that drop the cost. Cost accounting never
//! perturbs results: both forms run the same code.

use crate::artifact::ArtifactMeta;
use crate::cost::QueryCost;
use crate::engine::{ApproxQuery, ClusterInfo, Neighbor};
use crate::store::StoreMemory;
use crate::Result;

/// Point-in-time counters of a backend's approximate-index machinery:
/// whether an IVF index is attached, its list count, the exact/approx
/// query mix, and the scan work the approx path actually did (probed
/// lists and candidate rows — the numbers that make "sublinear"
/// measurable instead of assumed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Whether approximate top-k is available on this backend.
    pub enabled: bool,
    /// Inverted lists of the attached index (per shard; 0 when
    /// disabled).
    pub nlist: usize,
    /// Approximate top-k queries answered.
    pub approx_queries: u64,
    /// Exact top-k queries answered.
    pub exact_queries: u64,
    /// Total inverted lists scanned by approx queries.
    pub lists_scanned: u64,
    /// Total candidate rows scored by approx queries.
    pub rows_scanned: u64,
}

/// Anything that can answer the three serving queries over one
/// artifact's id space.
///
/// Metadata accessors return owned values (not references into the
/// backend): a [`crate::swap::HotSwapBackend`] can replace its inner
/// backend at any moment, so no borrow may outlive a single call.
pub trait QueryBackend: Send + Sync {
    /// Metadata of the (logical, full) artifact being served.
    fn meta(&self) -> ArtifactMeta;

    /// Learned view weights `w*` (reported by `/artifact`).
    fn weights(&self) -> Vec<f64>;

    /// Cluster assignment and centroid distance for one node, plus the
    /// lookup's cost profile.
    ///
    /// # Errors
    /// [`crate::ServeError::InvalidQuery`] for out-of-range nodes,
    /// [`crate::ServeError::NotFound`] for deleted ones.
    fn cluster_of_costed(&self, node: usize) -> (Result<ClusterInfo>, QueryCost);

    /// Answers many `(node, k)` top-k queries, plus the cost profile of
    /// the whole pass. Results are in query order; a failed query
    /// carries its own error.
    fn top_k_batch_costed(
        &self,
        queries: &[(usize, usize)],
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost);

    /// Answers many `(node, k, nprobe)` *approximate* top-k queries via
    /// an IVF index (`nprobe = 0` = index default), plus the cost
    /// profile of the pass. Backends without an index reject each
    /// query individually.
    fn top_k_batch_approx_costed(
        &self,
        queries: &[ApproxQuery],
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost);

    /// Embedding rows for a batch of nodes (whole batch rejected on
    /// any invalid id), plus the batch's cost profile.
    fn embed_batch_costed(&self, nodes: &[usize]) -> (Result<Vec<Vec<f64>>>, QueryCost);

    /// Counters of the approximate-index machinery.
    fn index_stats(&self) -> IndexStats;

    /// `(hits, misses)` of the backend's top-k result cache.
    fn cache_stats(&self) -> (u64, u64);

    /// How many row-range shards back this backend (1 = monolithic).
    fn shard_count(&self) -> usize;

    /// How many shards are currently resident in memory.
    fn resident_shards(&self) -> usize;

    /// How many rows are tombstoned (deleted but not yet compacted)
    /// across the backend.
    fn tombstone_count(&self) -> usize;

    /// Memory accounting of the backend's embedding stores: heap bytes
    /// pinned vs mapped (page-cache reclaimable) bytes, the store kind
    /// per shard slot, and how the residency budget is enforced.
    /// Reported by `/stats` and the `sgla_store_*` gauges.
    fn store_memory(&self) -> StoreMemory;

    /// [`Self::cluster_of_costed`] without the cost.
    ///
    /// # Errors
    /// See [`Self::cluster_of_costed`].
    fn cluster_of(&self, node: usize) -> Result<ClusterInfo> {
        self.cluster_of_costed(node).0
    }

    /// [`Self::top_k_batch_costed`] without the cost.
    fn top_k_batch(&self, queries: &[(usize, usize)]) -> Vec<Result<Vec<Neighbor>>> {
        self.top_k_batch_costed(queries).0
    }

    /// [`Self::top_k_batch_approx_costed`] without the cost.
    fn top_k_batch_approx(&self, queries: &[ApproxQuery]) -> Vec<Result<Vec<Neighbor>>> {
        self.top_k_batch_approx_costed(queries).0
    }

    /// [`Self::embed_batch_costed`] without the cost.
    ///
    /// # Errors
    /// [`crate::ServeError::InvalidQuery`] if any node is out of range.
    fn embed_batch(&self, nodes: &[usize]) -> Result<Vec<Vec<f64>>> {
        self.embed_batch_costed(nodes).0
    }
}
