//! Atomic hot-swapping of the live query backend.
//!
//! A serving process must be able to pick up an incrementally updated
//! artifact (see [`Artifact::update`](crate::Artifact::update)) without
//! dropping traffic. [`HotSwapBackend`] is a [`QueryBackend`] that
//! *delegates* to an inner `Arc<dyn QueryBackend>` behind an `RwLock`:
//!
//! * every query clones the inner `Arc` under a read lock (a refcount
//!   bump, nanoseconds) and then runs entirely lock-free on that
//!   snapshot — in-flight queries keep answering from the backend they
//!   started on even while a swap happens;
//! * [`HotSwapBackend::swap`] installs a fully constructed replacement
//!   under the write lock — queries never observe a half-loaded state,
//!   because the replacement was built (artifact decoded, CRC-checked,
//!   norms precomputed, index attached) *before* the swap;
//! * the old backend is returned to the caller and dropped when its
//!   last in-flight query finishes.
//!
//! The HTTP layer exposes this as `POST /reload` (see
//! [`Server::start_reloadable`](crate::Server::start_reloadable)): the
//! server re-loads its artifact path into a fresh backend and swaps it
//! in atomically, monolithic and sharded layouts alike.

use crate::artifact::ArtifactMeta;
use crate::backend::{IndexStats, QueryBackend};
use crate::cost::QueryCost;
use crate::engine::{ApproxQuery, ClusterInfo, Neighbor};
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A [`QueryBackend`] whose inner backend can be replaced atomically
/// while queries are in flight.
pub struct HotSwapBackend {
    inner: RwLock<Arc<dyn QueryBackend>>,
    swaps: AtomicU64,
}

impl std::fmt::Debug for HotSwapBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotSwapBackend")
            .field("dataset", &self.meta().dataset)
            .field("swaps", &self.swap_count())
            .finish()
    }
}

impl HotSwapBackend {
    /// Wraps an initial backend.
    pub fn new(initial: Arc<dyn QueryBackend>) -> Self {
        HotSwapBackend {
            inner: RwLock::new(initial),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current inner backend (a snapshot — the caller's `Arc`
    /// stays valid across concurrent swaps).
    pub fn current(&self) -> Arc<dyn QueryBackend> {
        Arc::clone(&self.inner.read().expect("swap lock"))
    }

    /// Atomically replaces the inner backend, returning the previous
    /// one (kept alive until its in-flight queries finish).
    pub fn swap(&self, next: Arc<dyn QueryBackend>) -> Arc<dyn QueryBackend> {
        let mut guard = self.inner.write().expect("swap lock");
        let old = std::mem::replace(&mut *guard, next);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        old
    }

    /// How many swaps have been applied since construction.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

impl QueryBackend for HotSwapBackend {
    fn meta(&self) -> ArtifactMeta {
        self.current().meta()
    }

    fn weights(&self) -> Vec<f64> {
        self.current().weights()
    }

    fn cluster_of_costed(&self, node: usize) -> (Result<ClusterInfo>, QueryCost) {
        self.current().cluster_of_costed(node)
    }

    fn top_k_batch_costed(
        &self,
        queries: &[(usize, usize)],
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost) {
        self.current().top_k_batch_costed(queries)
    }

    fn top_k_batch_approx_costed(
        &self,
        queries: &[ApproxQuery],
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost) {
        self.current().top_k_batch_approx_costed(queries)
    }

    fn embed_batch_costed(&self, nodes: &[usize]) -> (Result<Vec<Vec<f64>>>, QueryCost) {
        self.current().embed_batch_costed(nodes)
    }

    fn index_stats(&self) -> IndexStats {
        self.current().index_stats()
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.current().cache_stats()
    }

    fn shard_count(&self) -> usize {
        self.current().shard_count()
    }

    fn resident_shards(&self) -> usize {
        self.current().resident_shards()
    }

    fn tombstone_count(&self) -> usize {
        self.current().tombstone_count()
    }

    fn store_memory(&self) -> crate::store::StoreMemory {
        self.current().store_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, TrainConfig};
    use crate::engine::{EngineConfig, QueryEngine};
    use mvag_graph::toy::toy_mvag;

    fn engine(n: usize, seed: u64) -> Arc<QueryEngine> {
        let mvag = toy_mvag(n, 2, seed);
        let mut config = TrainConfig::default();
        config.embed.dim = 6;
        let artifact = Artifact::train(&mvag, &config).unwrap();
        Arc::new(QueryEngine::new(artifact, EngineConfig::default()).unwrap())
    }

    #[test]
    fn swap_switches_answers_atomically() {
        let a = engine(40, 3);
        let b = engine(60, 4);
        let swap = HotSwapBackend::new(a.clone());
        assert_eq!(QueryBackend::meta(&swap).n, 40);
        assert_eq!(swap.swap_count(), 0);
        // A pre-swap snapshot keeps answering from the old backend.
        let snapshot = swap.current();
        let old = swap.swap(b.clone());
        assert_eq!(old.meta().n, 40);
        assert_eq!(snapshot.meta().n, 40);
        assert_eq!(QueryBackend::meta(&swap).n, 60);
        assert_eq!(swap.swap_count(), 1);
        // Post-swap queries are bit-identical to the new engine.
        let direct = b.top_k_similar(50, 5).unwrap();
        let via_swap = swap.top_k_batch(&[(50, 5)]).pop().unwrap().unwrap();
        assert_eq!(direct, via_swap);
        // Node 50 did not exist in the old backend.
        assert!(old.top_k_batch(&[(50, 5)]).pop().unwrap().is_err());
    }
}
