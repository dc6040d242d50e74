//! # sgla-serve — the query-serving subsystem
//!
//! Everything that happens *after* training: the paper's pipeline ends
//! at an integrated Laplacian, cluster labels, and an embedding
//! matrix; this crate turns that bundle into a durable artifact and a
//! network service.
//!
//! Four layers:
//!
//! * [`artifact`] — versioned, checksummed binary persistence for a
//!   trained bundle ([`Artifact`]): learned view weights `w*`, the
//!   integrated Laplacian (CSR), cluster labels/centroids, and the
//!   embedding matrix. [`Artifact::train`] runs the full pipeline;
//!   `save`/`load` round-trip it bit-exactly, rejecting corrupt input
//!   with typed errors. [`Artifact::save_sharded`] writes the
//!   row-range-sharded layout (shard files + JSON manifest) for
//!   artifacts too large for one host's memory. Serving reads format
//!   v5 only; `compact` migrates older files.
//! * [`engine`] — the [`ShardEngine`] scanner over one artifact's
//!   rows: `cluster_of`, `embed_batch`, the cache-friendly blocked
//!   exact top-k kernel, and approximate probes over an optional
//!   `mvag_index` IVF index (sublinear probes; the exact scan stays
//!   the verification oracle). It keeps no cache and no counters.
//! * [`router`] — the [`ShardRouter`], the one query front end: it
//!   serves a monolithic artifact as one pinned shard (the
//!   [`QueryEngine`] alias) and a sharded layout as lazily-loaded
//!   shards, and owns routing, residency, the LRU result cache, the
//!   counters, the bit-identical merge and the cost profile;
//!   [`batch`] micro-batches concurrent top-k queries into shared
//!   kernel passes.
//! * [`http`] — a dependency-light HTTP/1.1 JSON [`Server`] with two
//!   transports selected by [`ServerConfig::backend`]: the classic
//!   thread-per-connection pool (`threaded`, the correctness oracle)
//!   and a single-threaded epoll readiness loop (`evented`, Linux
//!   only) that holds thousands of keep-alive connections while
//!   compute runs on a small executor pool. Both share one request
//!   path ([`parser`] + routing), keep-alive, graceful shutdown, and
//!   per-endpoint latency/QPS counters ([`metrics`]); [`client`] is
//!   the matching minimal client used by tests and the serve
//!   benchmark. The server runs over any [`QueryBackend`]: the front
//!   end, or a [`HotSwapBackend`] that replaces it on reload.
//!
//! ```
//! use sgla_serve::prelude::*;
//! use std::sync::Arc;
//!
//! let mvag = mvag_data::toy_mvag(40, 2, 42);
//! let mut train = TrainConfig::default();
//! train.embed.dim = 4;
//! let artifact = Artifact::train(&mvag, &train).unwrap();
//!
//! let engine = Arc::new(QueryEngine::new(artifact, EngineConfig::default()).unwrap());
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".parse().unwrap(), // port 0: pick a free port
//!     ..ServerConfig::default()
//! };
//! let server = Server::start(Arc::clone(&engine), &config).unwrap();
//!
//! let mut client = HttpClient::connect(server.local_addr()).unwrap();
//! let health = client.get("/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! server.shutdown();
//! ```

// `deny` rather than `forbid`: the epoll bindings in `sys` are the one
// module allowed to opt out (see its module docs); everything else in
// the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod backend;
pub mod batch;
pub mod client;
pub mod compact;
pub mod cost;
pub mod engine;
pub mod error;
#[cfg(target_os = "linux")]
mod evented;
pub mod http;
pub mod lru;
pub mod metrics;
pub mod parser;
pub mod publish;
pub mod router;
pub mod slo;
pub mod slowlog;
pub mod store;
pub mod swap;
#[cfg(target_os = "linux")]
mod sys;

pub use artifact::{Artifact, ArtifactMeta, TrainConfig, UpdateOutcome};
pub use backend::{IndexStats, QueryBackend};
pub use client::{HttpClient, HttpResponse};
pub use compact::{
    append_sharded, compact_monolithic, compact_sharded, AppendStats, CompactionStats,
};
pub use cost::QueryCost;
pub use engine::{ApproxQuery, ClusterInfo, EngineConfig, Neighbor, QueryEngine, ShardEngine};
pub use error::ServeError;
pub use http::{BackendLoader, ServeBackend, Server, ServerConfig};
pub use mvag_index::{IvfConfig, IvfIndex};
pub use publish::{publish, Published};
pub use router::{is_layout_path, RouterConfig, ShardRouter};
pub use slo::{HealthStatus, SloTracker};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use store::{EmbeddingStore, MappedArtifact, StoreMemory};
pub use swap::HotSwapBackend;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Common imports for serving.
pub mod prelude {
    pub use crate::artifact::{Artifact, ArtifactMeta, TrainConfig};
    pub use crate::backend::{IndexStats, QueryBackend};
    pub use crate::client::HttpClient;
    pub use crate::engine::{ClusterInfo, EngineConfig, Neighbor, QueryEngine};
    pub use crate::http::{ServeBackend, Server, ServerConfig};
    pub use crate::router::{RouterConfig, ShardRouter};
    pub use crate::ServeError;
    pub use mvag_index::{IvfConfig, IvfIndex};
}
