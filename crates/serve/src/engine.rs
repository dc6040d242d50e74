//! The shard scanner: query-side state of one artifact's rows.
//!
//! A [`ShardEngine`] holds everything a query reads from one artifact
//! (a full artifact or a row-range shard): the embedding rows and
//! their norms ([`EmbeddingStore`], heap-owned or memory-mapped), the
//! cluster labels and centroids, the tombstone mask, and an optional
//! IVF index. It answers for its own global row range only and keeps
//! no cache and no counters.
//!
//! The one query front end is [`crate::router::ShardRouter`] (also
//! named [`QueryEngine`]): it owns routing, residency, the result
//! cache, the counters and the cost profile, and drives one or many
//! shard engines. A monolithic artifact is served as a front end over
//! one pinned shard engine, so there is one scan path for both.
//!
//! The exact top-k kernel is batch-first: the shard scan walks
//! the rows in blocks of [`BLOCK_ROWS`] and scores every queued query
//! against the resident block before moving on, so concurrent queries
//! share memory traffic instead of multiplying it.

use crate::artifact::Artifact;
use crate::router::ShardRouter;
use crate::store::{EmbeddingStore, MappedArtifact};
use crate::{Result, ServeError};
use mvag_index::{IvfConfig, IvfIndex, IvfSearchStats, Ranked, TopK};
use mvag_sparse::{vecops, DenseMatrix};

/// Rows per block in the blocked scoring kernel.
pub const BLOCK_ROWS: usize = 64;

/// One scored neighbour from a top-k query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Node id.
    pub node: usize,
    /// Cosine similarity to the query node in embedding space.
    pub score: f64,
}

/// Cluster assignment answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterInfo {
    /// The queried node.
    pub node: usize,
    /// Assigned cluster in `0..k`.
    pub cluster: usize,
    /// Euclidean distance to the assigned centroid in embedding space.
    pub centroid_dist: f64,
}

/// Tuning knobs of a front end over one artifact, and of each shard
/// engine of a layout (as [`crate::RouterConfig::engine`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Entries in the top-k result LRU cache (0 disables caching) of a
    /// front end built by [`QueryEngine::new`] or
    /// [`QueryEngine::from_mapped`]. [`ShardRouter::open`] sizes its
    /// cache from [`crate::RouterConfig::cache_capacity`] instead.
    pub cache_capacity: usize,
    /// When set, an IVF approximate top-k index is trained over each
    /// shard's embedding rows at load, unless a pre-built index (a
    /// sidecar file) is attached. `None` serves exact-only.
    pub index: Option<IvfConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 4096,
            index: None,
        }
    }
}

/// An approximate top-k query: `(node, k, nprobe)`, with `nprobe = 0`
/// meaning the index's default probe width.
pub type ApproxQuery = (usize, usize, usize);

/// The query front end over a single artifact: a
/// [`ShardRouter`] over one pinned shard. The name is kept so that
/// code serving one artifact reads naturally (and for the benchmark
/// harness, which constructs it by this name).
///
/// All node ids in the query API are global. Queries go through
/// [`crate::QueryBackend`].
///
/// ```
/// use sgla_serve::{Artifact, EngineConfig, QueryBackend, QueryEngine, TrainConfig};
///
/// let mvag = mvag_data::toy_mvag(40, 2, 7);
/// let mut config = TrainConfig::default();
/// config.embed.dim = 4;
/// let artifact = Artifact::train(&mvag, &config).unwrap();
/// let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
///
/// let info = engine.cluster_of(3).unwrap();
/// assert!(info.cluster < 2);
/// let neighbors = engine.top_k_similar(3, 5).unwrap();
/// assert_eq!(neighbors.len(), 5);
/// assert_eq!(engine.shard_count(), 1);
/// ```
pub type QueryEngine = ShardRouter;

/// Query-side state of one artifact's rows (full or a row-range
/// shard). Node ids are global: the engine answers for
/// `[row_start, row_end)` of its artifact and rejects the rest.
#[derive(Debug)]
pub struct ShardEngine {
    /// Query-side state. The embedding matrix lives in `store`, not
    /// here: [`ShardEngine::artifact`] returns it with an *empty*
    /// `embedding` field regardless of backing.
    artifact: Artifact,
    /// The embedding rows and their norms — heap-owned or borrowed
    /// from a memory-mapped v5 artifact (see [`crate::store`]).
    store: EmbeddingStore,
    /// Tombstone mask over local rows; empty when the artifact has no
    /// tombstones (the common case — keeps the hot loops branch-cheap).
    dead: Vec<bool>,
    /// Optional IVF index for approximate top-k over the local rows.
    index: Option<IvfIndex>,
}

impl ShardEngine {
    /// Builds a shard engine over a decoded artifact: validates it,
    /// reuses `norms` persisted alongside it (the v5 norms section)
    /// instead of recomputing them, and attaches `index` — or, when
    /// none is given and `train` is set, trains one over the rows.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] if the artifact is inconsistent or the
    /// index does not cover its rows; [`ServeError::InvalidArgument`]
    /// if index training fails.
    pub fn owned(
        mut artifact: Artifact,
        norms: Option<Vec<f64>>,
        index: Option<IvfIndex>,
        train: Option<&IvfConfig>,
    ) -> Result<Self> {
        artifact.validate()?;
        let index = match (index, train) {
            (Some(index), _) => Some(index),
            (None, Some(ivf)) => Some(artifact.build_ivf(ivf)?),
            (None, None) => None,
        };
        let embedding = std::mem::replace(&mut artifact.embedding, DenseMatrix::zeros(0, 0));
        Self::assemble(artifact, EmbeddingStore::owned(embedding, norms), index)
    }

    /// Builds a shard engine over a memory-mapped artifact (see
    /// [`crate::store::open_mapped`]): rows are scored straight out of
    /// the page cache, never copied to the heap. A pre-built `index`
    /// may be attached; *training* one is impossible here (it would
    /// need the whole embedding resident, defeating the map), so
    /// `train` without `index` is rejected and the caller decides
    /// whether to fall back to an owned load.
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] when index training is
    /// requested; [`ServeError::Corrupt`] when the index does not match
    /// the artifact.
    pub fn mapped(
        mapped: MappedArtifact,
        index: Option<IvfIndex>,
        train: Option<&IvfConfig>,
    ) -> Result<Self> {
        if train.is_some() && index.is_none() {
            return Err(ServeError::InvalidArgument(
                "cannot train an IVF index over a memory-mapped artifact; \
                 attach a sidecar index or serve it owned"
                    .into(),
            ));
        }
        // No artifact.validate() here: it would reject the placeholder
        // embedding/laplacian. open_mapped already validated every
        // invariant the query paths rely on.
        let MappedArtifact { artifact, store } = mapped;
        Self::assemble(artifact, store, index)
    }

    fn assemble(
        artifact: Artifact,
        store: EmbeddingStore,
        index: Option<IvfIndex>,
    ) -> Result<Self> {
        if let Some(index) = &index {
            let m = &artifact.meta;
            index
                .check_compatible(m.n, m.dim, m.row_start, m.row_end)
                .map_err(|e| ServeError::Corrupt(format!("index does not match artifact: {e}")))?;
        }
        let dead = if artifact.tombstone_count() == 0 {
            Vec::new()
        } else {
            let mut mask = vec![false; artifact.meta.rows()];
            for &t in &artifact.tombstones {
                mask[t - artifact.meta.row_start] = true;
            }
            mask
        };
        Ok(ShardEngine {
            artifact,
            store,
            dead,
            index,
        })
    }

    /// The query-side artifact state (meta, weights, labels,
    /// centroids, tombstones). The `embedding` field is empty — rows
    /// live in [`ShardEngine::store`] — and for mapped engines the
    /// `laplacian` is an empty placeholder too.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// The embedding row store (owned or mapped).
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// The attached IVF index, if any.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.index.as_ref()
    }

    /// Checks that `node` is a live row of this shard and returns its
    /// local row index.
    fn local(&self, node: usize) -> Result<usize> {
        let m = &self.artifact.meta;
        if node >= m.n {
            return Err(ServeError::InvalidQuery(format!(
                "node {node} out of range (n = {})",
                m.n
            )));
        }
        if node < m.row_start || node >= m.row_end {
            return Err(ServeError::InvalidQuery(format!(
                "node {node} outside this shard's rows {}..{}",
                m.row_start, m.row_end
            )));
        }
        if self.is_dead_local(node - m.row_start) {
            return Err(ServeError::NotFound(format!(
                "node {node} has been deleted (tombstoned; pending compaction)"
            )));
        }
        Ok(node - m.row_start)
    }

    /// True when local row `row` is tombstoned (empty mask = no dead
    /// rows, so the untombstoned fast path is a bounds check).
    #[inline]
    fn is_dead_local(&self, row: usize) -> bool {
        self.dead.get(row).copied().unwrap_or(false)
    }

    /// Cluster assignment and centroid distance for one node.
    ///
    /// # Errors
    /// [`ServeError::InvalidQuery`] for nodes outside this shard's
    /// rows; [`ServeError::NotFound`] for tombstoned ones.
    pub fn cluster_of(&self, node: usize) -> Result<ClusterInfo> {
        let local = self.local(node)?;
        let cluster = self.artifact.labels[local];
        let centroid_dist =
            vecops::dist2(self.store.row(local), self.artifact.centroids.row(cluster)).sqrt();
        Ok(ClusterInfo {
            node,
            cluster,
            centroid_dist,
        })
    }

    /// Embedding rows for a batch of nodes (the whole batch is
    /// rejected on any invalid id, matching HTTP semantics).
    ///
    /// # Errors
    /// See [`ShardEngine::cluster_of`].
    pub fn embed_batch(&self, nodes: &[usize]) -> Result<Vec<Vec<f64>>> {
        let locals = nodes
            .iter()
            .map(|&node| self.local(node))
            .collect::<Result<Vec<_>>>()?;
        Ok(locals
            .into_iter()
            .map(|l| self.store.row(l).to_vec())
            .collect())
    }

    /// The embedding row and its precomputed Euclidean norm for one
    /// node — the query vector the front end hands to every shard
    /// when it fans a top-k query out.
    ///
    /// # Errors
    /// See [`ShardEngine::cluster_of`].
    pub fn query_vector(&self, node: usize) -> Result<(Vec<f64>, f64)> {
        let local = self.local(node)?;
        Ok((self.store.row(local).to_vec(), self.store.norms()[local]))
    }

    /// The blocked exact kernel: walks this shard's rows in blocks of
    /// [`BLOCK_ROWS`] and scores every job against the resident block,
    /// so a batch reads the rows once instead of once per job. Returns
    /// each job's best `k` (global ids, best first). Scores are
    /// `dot / (norm · norm)` on the stored rows, visited in ascending
    /// row order, so they are bit-identical however the rows are
    /// sharded and however the jobs are chunked.
    // The row index addresses four parallel structures (global id,
    // tombstone mask, norms, store rows); an iterator rewrite would
    // obscure that they advance in lockstep.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn scan(&self, jobs: &[VectorJob]) -> Vec<Vec<Neighbor>> {
        let norms = self.store.norms();
        let rows = self.artifact.meta.rows();
        let offset = self.artifact.meta.row_start;
        let mut heaps: Vec<TopK<Neighbor>> = jobs.iter().map(|j| TopK::new(j.k)).collect();
        for block_start in (0..rows).step_by(BLOCK_ROWS) {
            let block_end = (block_start + BLOCK_ROWS).min(rows);
            for (job, heap) in jobs.iter().zip(heaps.iter_mut()) {
                for row in block_start..block_end {
                    let global = offset + row;
                    if Some(global) == job.exclude || self.is_dead_local(row) {
                        continue;
                    }
                    let denom = job.qnorm * norms[row];
                    let score = if denom > 1e-300 {
                        vecops::dot(job.qrow, self.store.row(row)) / denom
                    } else {
                        0.0
                    };
                    heap.push(Neighbor {
                        node: global,
                        score,
                    });
                }
            }
        }
        heaps.into_iter().map(TopK::into_sorted).collect()
    }

    /// The approximate counterpart of [`ShardEngine::scan`] for one
    /// job: probes only `job.nprobe` of this shard's inverted lists
    /// (`threads` wide). Tombstoned rows are still resident in the
    /// index, so the probe over-fetches by the tombstone count and
    /// filters the dead hits out; the count it dropped is returned
    /// with the index's scan work.
    ///
    /// # Errors
    /// [`ServeError::InvalidQuery`] when no index is attached.
    pub(crate) fn probe(
        &self,
        job: &VectorJob,
        threads: usize,
    ) -> Result<(Vec<Neighbor>, IvfSearchStats, u64)> {
        let Some(index) = &self.index else {
            return Err(no_index_error());
        };
        let (scored, stats) = index.search(
            &self.store,
            self.store.norms(),
            job.qrow,
            job.qnorm,
            job.k + self.artifact.tombstone_count(),
            job.nprobe,
            job.exclude,
            threads,
        );
        let offset = self.artifact.meta.row_start;
        let dead = |id: usize| self.is_dead_local(id - offset);
        let masked = scored.iter().filter(|s| dead(s.id)).count() as u64;
        let hits = scored
            .into_iter()
            .filter(|s| !dead(s.id))
            .take(job.k)
            .map(|s| Neighbor {
                node: s.id,
                score: s.score,
            })
            .collect();
        Ok((hits, stats, masked))
    }
}

/// The error every approx entry point returns when the backend has no
/// index attached.
pub(crate) fn no_index_error() -> ServeError {
    ServeError::InvalidQuery(
        "no approximate index loaded (train with --index ivf, or serve with --index ivf to build one)"
            .into(),
    )
}

/// One scoring job against a shard's rows: an external query vector,
/// its norm, an optional global id to skip (the query node itself),
/// the answer size, and the probe width (approximate jobs only).
pub(crate) struct VectorJob<'a> {
    pub(crate) qrow: &'a [f64],
    pub(crate) qnorm: f64,
    pub(crate) exclude: Option<usize>,
    pub(crate) k: usize,
    pub(crate) nprobe: usize,
}

/// The serving total order ([`mvag_index::ranks_before`]) ranks
/// neighbours by score, then node id, so exact and approximate results
/// can never diverge on ordering.
impl Ranked for Neighbor {
    fn rank_key(&self) -> (f64, usize) {
        (self.score, self.node)
    }
}

/// The scan battery at one shard: the front end over one pinned
/// shard against a scalar full-sort reference, plus the shard
/// engine's own masking and index attachment.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TrainConfig;
    use crate::backend::QueryBackend;
    use mvag_graph::toy::toy_mvag;

    fn trained() -> Artifact {
        let mvag = toy_mvag(80, 2, 7);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        Artifact::train(&mvag, &config).unwrap()
    }

    fn engine() -> QueryEngine {
        QueryEngine::new(trained(), EngineConfig::default()).unwrap()
    }

    /// Reference top-k: full sort of all cosine scores, one scalar
    /// `cosine` per pair.
    fn brute_force(artifact: &Artifact, q: usize, k: usize) -> Vec<Neighbor> {
        let emb = &artifact.embedding;
        let mut all: Vec<Neighbor> = (0..artifact.meta.n)
            .filter(|&i| i != q)
            .map(|i| Neighbor {
                node: i,
                score: vecops::cosine(emb.row(q), emb.row(i)),
            })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
        all.truncate(k);
        all
    }

    #[test]
    fn topk_matches_brute_force() {
        let artifact = trained();
        let e = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
        for q in [0usize, 7, 41, 79] {
            let got = e.top_k_similar(q, 10).unwrap();
            let want = brute_force(&artifact, q, 10);
            assert_eq!(got.len(), 10);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.node, w.node, "query {q}");
                assert!((g.score - w.score).abs() < 1e-12);
            }
        }
        // A whole batch (chunked across the pool) agrees too.
        let queries: Vec<(usize, usize)> = (0..80).map(|q| (q, 10)).collect();
        for (res, &(q, k)) in e.top_k_batch(&queries).iter().zip(&queries) {
            let want = brute_force(&artifact, q, k);
            let got: Vec<usize> = res.as_ref().unwrap().iter().map(|n| n.node).collect();
            let want: Vec<usize> = want.iter().map(|n| n.node).collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn batch_matches_single_and_caches() {
        let e = engine();
        let queries: Vec<(usize, usize)> = (0..40).map(|i| (i * 2, 5)).collect();
        let batch = e.top_k_batch(&queries);
        for (q, res) in queries.iter().zip(&batch) {
            let single = e.top_k_similar(q.0, q.1).unwrap();
            assert_eq!(res.as_ref().unwrap(), &single);
        }
        let (hits, _) = e.cache_stats();
        assert!(hits >= 40, "singles after batch should hit the cache");
    }

    #[test]
    fn batch_mixes_valid_and_invalid() {
        let e = engine();
        let res = e.top_k_batch(&[(0, 3), (10_000, 3), (1, 0), (2, 3)]);
        assert!(res[0].is_ok());
        assert!(matches!(res[1], Err(ServeError::InvalidQuery(_))));
        assert!(matches!(res[2], Err(ServeError::InvalidQuery(_))));
        assert!(res[3].is_ok());
    }

    #[test]
    fn k_clamped_to_population() {
        let e = engine();
        let all = e.top_k_similar(3, 10_000).unwrap();
        assert_eq!(all.len(), e.meta().n - 1);
        // Scores are non-increasing.
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn cluster_of_matches_labels() {
        let artifact = trained();
        let e = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
        for node in 0..artifact.meta.n {
            let info = e.cluster_of(node).unwrap();
            assert_eq!(info.cluster, artifact.labels[node]);
            assert!(info.centroid_dist.is_finite());
        }
        assert!(e.cluster_of(99_999).is_err());
    }

    #[test]
    fn embed_batch_returns_rows() {
        let artifact = trained();
        let e = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
        let rows = e.embed_batch(&[0, 5, 9]).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], artifact.embedding.row(5).to_vec());
        assert!(e.embed_batch(&[0, 99_999]).is_err());
    }

    fn engine_with_index(nlist: usize) -> QueryEngine {
        QueryEngine::new(
            trained(),
            EngineConfig {
                index: Some(mvag_index::IvfConfig { nlist, seed: 5 }),
                ..EngineConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn approx_full_probe_bit_identical_to_exact() {
        let e = engine_with_index(6);
        assert_eq!(e.index_stats().nlist, 6);
        for q in [0usize, 7, 41, 79] {
            let exact = e.top_k_similar(q, 10).unwrap();
            let approx = e.top_k_approx(q, 10, 6).unwrap();
            assert_eq!(exact.len(), approx.len());
            for (x, a) in exact.iter().zip(&approx) {
                assert_eq!(x.node, a.node, "query {q}");
                assert_eq!(x.score.to_bits(), a.score.to_bits(), "query {q}");
            }
        }
        // Huge nprobe clamps to nlist; zero uses the default width.
        assert_eq!(
            e.top_k_approx(3, 5, usize::MAX).unwrap(),
            e.top_k_approx(3, 5, 6).unwrap()
        );
        assert_eq!(e.top_k_approx(3, 5, 0).unwrap().len(), 5);
    }

    #[test]
    fn approx_counters_and_partial_probe_scan_less() {
        let e = engine_with_index(8);
        e.top_k_approx(10, 5, 2).unwrap();
        let stats = e.index_stats();
        assert!(stats.enabled);
        assert_eq!(stats.nlist, 8);
        assert_eq!(stats.approx_queries, 1);
        assert_eq!(stats.lists_scanned, 2);
        assert!(
            stats.rows_scanned < 79,
            "partial probe scanned {} of 79 rows",
            stats.rows_scanned
        );
        e.top_k_similar(10, 5).unwrap();
        assert_eq!(e.index_stats().exact_queries, 1);
    }

    #[test]
    fn approx_batch_mixes_valid_and_invalid() {
        let e = engine_with_index(4);
        let res = e.top_k_batch_approx(&[(0, 3, 2), (10_000, 3, 2), (1, 0, 2), (2, 3, 0)]);
        assert!(res[0].is_ok());
        assert!(matches!(res[1], Err(ServeError::InvalidQuery(_))));
        assert!(matches!(res[2], Err(ServeError::InvalidQuery(_))));
        assert!(res[3].is_ok());
    }

    #[test]
    fn approx_without_index_is_a_clean_error() {
        let e = engine();
        assert!(matches!(
            e.top_k_approx(0, 5, 1),
            Err(ServeError::InvalidQuery(_))
        ));
        assert!(!e.index_stats().enabled);
    }

    #[test]
    fn prebuilt_index_attaches_and_mismatches_are_rejected() {
        let artifact = trained();
        let index = artifact
            .build_ivf(&mvag_index::IvfConfig { nlist: 5, seed: 1 })
            .unwrap();
        let e = ShardEngine::owned(artifact.clone(), None, Some(index.clone()), None).unwrap();
        assert_eq!(e.index().unwrap().nlist(), 5);
        assert_eq!(
            QueryEngine::pinned(e, EngineConfig::default())
                .index_stats()
                .nlist,
            5
        );
        // An index over a different row range must be rejected.
        let shard = artifact.shard(0, 40).unwrap();
        assert!(matches!(
            ShardEngine::owned(shard, None, Some(index), None),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn tombstoned_nodes_are_masked() {
        let mut artifact = trained();
        artifact.tombstones = vec![5, 41];
        let shard = ShardEngine::owned(artifact.clone(), None, None, None).unwrap();
        let e = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
        // Dead ids answer 404-class NotFound on every query path.
        assert!(matches!(e.cluster_of(5), Err(ServeError::NotFound(_))));
        assert!(matches!(
            shard.query_vector(41),
            Err(ServeError::NotFound(_))
        ));
        assert!(matches!(
            e.embed_batch(&[0, 41]),
            Err(ServeError::NotFound(_))
        ));
        assert!(matches!(
            e.top_k_similar(5, 3),
            Err(ServeError::NotFound(_))
        ));
        // Live nodes still answer, and dead rows never appear as
        // neighbours — the full scan returns exactly the live others.
        let all = e.top_k_similar(3, 10_000).unwrap();
        assert_eq!(all.len(), 80 - 1 - 2);
        assert!(all.iter().all(|nb| nb.node != 5 && nb.node != 41));
        // The approx path filters them too, even at full probe.
        let ivf = QueryEngine::new(
            artifact,
            EngineConfig {
                index: Some(mvag_index::IvfConfig { nlist: 4, seed: 2 }),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            ivf.top_k_approx(41, 3, usize::MAX),
            Err(ServeError::NotFound(_))
        ));
        let approx = ivf.top_k_approx(3, 79, usize::MAX).unwrap();
        assert_eq!(approx.len(), 80 - 1 - 2);
        assert!(approx.iter().all(|nb| nb.node != 5 && nb.node != 41));
        assert_eq!(all, approx, "full probe matches the masked exact scan");
    }

    #[test]
    fn topk_heap_orders_and_bounds() {
        let mut h = TopK::new(3);
        for (node, score) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.9), (4, -0.2)] {
            h.push(Neighbor { node, score });
        }
        let out = h.into_sorted();
        let nodes: Vec<usize> = out.iter().map(|x| x.node).collect();
        // 0.9 tie prefers smaller id.
        assert_eq!(nodes, vec![1, 3, 2]);
    }
}
