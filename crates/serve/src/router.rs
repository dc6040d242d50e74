//! The query front end: one implementation of the serving API over
//! one or many row-range shards.
//!
//! A [`ShardRouter`] owns everything between a query and the shard
//! scanners ([`ShardEngine`]): routing, residency, the top-k result
//! cache, the per-query validation, the cross-shard merge, the
//! index counters and the cost profile. It serves three sources the
//! same way:
//!
//! * a **sharded layout** (shard files plus the [`ShardManifest`]
//!   written by [`Artifact::save_sharded`](crate::Artifact::save_sharded)),
//!   opened by [`ShardRouter::open`] with shards loading lazily;
//! * a **monolithic artifact file**, also opened by
//!   [`ShardRouter::open`], served as one pinned shard;
//! * an **in-memory artifact** ([`ShardRouter::new`],
//!   [`ShardRouter::from_mapped`]), likewise one pinned shard. The
//!   alias [`QueryEngine`](crate::QueryEngine) names this use.
//!
//! Queries:
//!
//! * **`cluster_of` / `embed_batch`** are *routed*: the manifest maps
//!   each global node id to its owning shard by row range, and only
//!   that shard answers.
//! * **top-k** is *fanned out*: the owning shard supplies the query's
//!   embedding row, every shard scores it against its local rows, and
//!   the per-shard top-k lists are merged under the total order
//!   (score desc, node id asc) — so the answer is **bit-identical**
//!   however the rows are sharded (proptested in
//!   `tests/shard_equivalence.rs`).
//! * **Residency** is lazy: shards load from disk on first touch
//!   (verified against the manifest's per-file size and CRC-32).
//!   With [`RouterConfig::max_resident`] `> 0` the router keeps at
//!   most that many shards in memory, evicting the least-recently-used
//!   — a host can then serve an artifact larger than its RAM, paying a
//!   reload on cold shards.
//!
//! One scan policy covers every shard count: each shard's job list is
//! split into `ceil(threads / shards)` chunks and every (shard, chunk)
//! task runs the blocked multi-job kernel on the persistent
//! `mvag_sparse` worker pool. At one shard that splits the batch
//! across the pool; with as many shards as threads it is one task per
//! shard. In memory-capped mode the tasks stream shard by shard so
//! residency stays bounded during the scan.
//!
//! ```
//! use sgla_serve::prelude::*;
//! use sgla_serve::router::{RouterConfig, ShardRouter};
//!
//! let mvag = mvag_data::toy_mvag(40, 2, 7);
//! let mut config = TrainConfig::default();
//! config.embed.dim = 4;
//! let artifact = Artifact::train(&mvag, &config).unwrap();
//!
//! let dir = std::env::temp_dir().join(format!("sgla-doc-router-{}", std::process::id()));
//! artifact.save_sharded(&dir, 3).unwrap();
//!
//! let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
//! let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
//!
//! // The sharded answer is bit-identical to the one-shard one.
//! let direct = engine.top_k_similar(11, 5).unwrap();
//! let routed = router.top_k_similar(11, 5).unwrap();
//! assert_eq!(direct, routed);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::artifact::{require_current, Artifact, ArtifactMeta, FORMAT_VERSION};
use crate::backend::{IndexStats, QueryBackend};
use crate::cost::QueryCost;
use crate::engine::{
    no_index_error, ApproxQuery, ClusterInfo, EngineConfig, Neighbor, ShardEngine, VectorJob,
};
use crate::lru::LruCache;
use crate::store::{MappedArtifact, MmapMode, StoreMemory};
use crate::{Result, ServeError};
use mvag_data::manifest::{ShardEntry, ShardManifest};
use mvag_data::IdMap;
use mvag_index::{IvfIndex, TopK};
use mvag_sparse::parallel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard engine configuration: whether a shard without an
    /// index sidecar trains an IVF index at load. Its
    /// `cache_capacity` is not read here (see
    /// [`RouterConfig::cache_capacity`]).
    pub engine: EngineConfig,
    /// Maximum *heap-owned* shards resident in memory at once; `0`
    /// means unbounded (every shard stays resident after first touch,
    /// fan-out runs in parallel). With a bound, top-k streams shard by
    /// shard and the least-recently-used owned shard is evicted when
    /// the budget overflows. Memory-mapped shards don't count against
    /// the budget — their pages belong to the page cache and are
    /// reclaimable by the kernel; over budget they get an
    /// `madvise(MADV_DONTNEED)` *hint* instead of an eviction (see
    /// [`RouterConfig::mmap`]).
    pub max_resident: usize,
    /// Entries in the merged top-k LRU cache (0 disables).
    pub cache_capacity: usize,
    /// Whether shard files are served memory-mapped (v5 files on
    /// supported platforms) or heap-owned. Defaults to
    /// [`MmapMode::Off`]; `sgla-serve serve` passes
    /// [`MmapMode::Auto`].
    pub mmap: MmapMode,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            engine: EngineConfig::default(),
            max_resident: 0,
            cache_capacity: 4096,
            mmap: MmapMode::Off,
        }
    }
}

/// Is `path` a sharded layout (a directory with a manifest, or the
/// manifest file itself) rather than a single artifact file? Files are
/// decided by content, not extension: a monolithic artifact starts
/// with the binary `SGLA` magic, a manifest is JSON text — so an
/// artifact trained to a `.json` name still loads as an artifact.
pub fn is_layout_path(path: &Path) -> bool {
    if path.is_dir() {
        return true;
    }
    use std::io::Read;
    let mut head = [0u8; 4];
    match std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut head)) {
        Ok(()) => head != *b"SGLA",
        // Unreadable/short files: let Artifact::load produce the error.
        Err(_) => false,
    }
}

/// Where shards load from. A front end over an in-memory artifact has
/// no source: its one shard is pinned at construction.
enum Source {
    /// A sharded layout: shard `i` is the manifest's `i`-th file under
    /// `dir`, with its index sidecar beside it. The id-map sidecar the
    /// manifest references rebases files a compaction skipped.
    Layout { dir: PathBuf, id_map: Option<IdMap> },
    /// One monolithic artifact file (index sidecar `<file>.ivf`).
    File(PathBuf),
}

/// One shard slot: the lazily-loaded engine plus an LRU tick.
struct Slot {
    engine: Option<Arc<ShardEngine>>,
    last_used: u64,
}

/// Cumulative exact/approx counters (per-shard counters would be lost
/// on eviction, so they live in the front end).
#[derive(Debug, Default)]
struct IndexCounters {
    approx_queries: AtomicU64,
    exact_queries: AtomicU64,
    lists_scanned: AtomicU64,
    rows_scanned: AtomicU64,
}

/// One admitted top-k query: its answer slot, node, owning shard,
/// clamped `k`, and probe width (approximate queries only).
struct Job {
    slot: usize,
    node: usize,
    owner: usize,
    k: usize,
    nprobe: usize,
}

/// What one shard contributed to one job: its best hits and the scan
/// work behind them.
struct Partial {
    hits: Vec<Neighbor>,
    lists: u64,
    rows: u64,
    masked: u64,
}

/// Routes and fans queries out across row-range shard engines.
pub struct ShardRouter {
    manifest: ShardManifest,
    /// `None` for an in-memory artifact (one pinned shard).
    source: Option<Source>,
    meta: ArtifactMeta,
    weights: Vec<f64>,
    config: RouterConfig,
    slots: Mutex<Vec<Slot>>,
    clock: AtomicU64,
    cache: Mutex<LruCache<(usize, usize), Vec<Neighbor>>>,
    loads: AtomicU64,
    evictions: AtomicU64,
    /// `madvise(MADV_DONTNEED)` hints issued to over-budget mapped
    /// shards (the mapped analogue of `evictions`).
    dontneed_hints: AtomicU64,
    counters: IndexCounters,
    /// Indexes trained at shard load when no sidecar exists
    /// ([`EngineConfig::index`]), kept across evictions: an index is
    /// tiny next to its shard, and re-running quantizer training on
    /// every reload would dwarf the scan savings it provides.
    trained_indexes: Mutex<Vec<Option<IvfIndex>>>,
    /// Whether approx serving is available (shard 0 carried an index
    /// at open — via sidecar or [`EngineConfig::index`]) and its list
    /// count, captured once at open.
    index_enabled: bool,
    index_nlist: usize,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("dataset", &self.meta.dataset)
            .field("n", &self.meta.n)
            .field("shards", &self.manifest.shards.len())
            .field("resident", &self.resident_count())
            .finish()
    }
}

impl ShardRouter {
    /// Opens an artifact on disk: a sharded layout (`path` is the
    /// manifest file or the directory containing `manifest.json`) or a
    /// monolithic artifact file, served as one shard. Shard 0 is
    /// loaded eagerly to pick up the learned view weights and to fail
    /// fast on a broken layout; the rest load on first touch.
    ///
    /// # Errors
    /// I/O failures, [`ServeError::Corrupt`] for a malformed manifest,
    /// artifact, or a shard that does not match its manifest, and for
    /// a file or layout in an older format (v4 or earlier; the error
    /// says to run `sgla-serve compact`).
    pub fn open(path: &Path, config: RouterConfig) -> Result<ShardRouter> {
        let (manifest, source) = if is_layout_path(path) {
            let (manifest, dir) = crate::compact::open_layout(path)?;
            require_current("layout manifest", manifest.artifact_format_version)?;
            let id_map = crate::compact::load_layout_id_map(&dir, &manifest)?;
            (manifest, Source::Layout { dir, id_map })
        } else {
            // Replaced by the file's own one-shard manifest once the
            // file has loaded.
            let placeholder = ShardManifest {
                shards: vec![ShardEntry::default()],
                ..ShardManifest::default()
            };
            (placeholder, Source::File(path.to_path_buf()))
        };
        let router = Self::assemble(manifest, Some(source), config);
        let first = router.engine_for(0)?;
        Ok(router.described_by(&first))
    }

    /// A front end over one in-memory artifact (trains an IVF index
    /// over it when [`EngineConfig::index`] is set).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] if the artifact is inconsistent;
    /// [`ServeError::InvalidArgument`] if index training fails.
    pub fn new(artifact: Artifact, config: EngineConfig) -> Result<ShardRouter> {
        let shard = ShardEngine::owned(artifact, None, None, config.index.as_ref())?;
        Ok(Self::pinned(shard, config))
    }

    /// A front end over one memory-mapped artifact (see
    /// [`crate::store::open_mapped`] and [`ShardEngine::mapped`]),
    /// with an optional pre-built index.
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] when [`EngineConfig::index`]
    /// asks for training without a pre-built index;
    /// [`ServeError::Corrupt`] when the index does not match.
    pub fn from_mapped(
        mapped: MappedArtifact,
        config: EngineConfig,
        index: Option<IvfIndex>,
    ) -> Result<ShardRouter> {
        let shard = ShardEngine::mapped(mapped, index, config.index.as_ref())?;
        Ok(Self::pinned(shard, config))
    }

    /// A front end over one already-built shard engine, pinned for the
    /// front end's lifetime.
    pub fn pinned(shard: ShardEngine, config: EngineConfig) -> ShardRouter {
        let config = RouterConfig {
            cache_capacity: config.cache_capacity,
            engine: config,
            ..RouterConfig::default()
        };
        let router = Self::assemble(one_shard_manifest(shard.artifact()), None, config);
        let shard = Arc::new(shard);
        router.slots.lock().expect("slot lock")[0].engine = Some(Arc::clone(&shard));
        router.described_by(&shard)
    }

    fn assemble(manifest: ShardManifest, source: Option<Source>, config: RouterConfig) -> Self {
        let shard_count = manifest.shards.len();
        let meta = ArtifactMeta {
            dataset: manifest.dataset.clone(),
            n: manifest.n,
            k: manifest.k,
            dim: manifest.dim,
            seed: manifest.seed,
            row_start: 0,
            row_end: manifest.n,
            // Lineage is carried in the shard files, not the manifest;
            // patched in from shard 0 by `described_by`.
            parent_seed: manifest.seed,
            update_count: manifest.update_count,
            compaction_count: manifest.compaction_count,
        };
        ShardRouter {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            slots: Mutex::new(
                (0..shard_count)
                    .map(|_| Slot {
                        engine: None,
                        last_used: 0,
                    })
                    .collect(),
            ),
            trained_indexes: Mutex::new((0..shard_count).map(|_| None).collect()),
            manifest,
            source,
            meta,
            weights: Vec::new(),
            config,
            clock: AtomicU64::new(1),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dontneed_hints: AtomicU64::new(0),
            counters: IndexCounters::default(),
            index_enabled: false,
            index_nlist: 0,
        }
    }

    /// Completes construction from shard 0: weights and lineage are
    /// global state carried in every shard, and shard 0 reveals
    /// whether shards come with an IVF index. A single artifact's
    /// metadata and one-shard manifest are its own.
    fn described_by(self, first: &ShardEngine) -> Self {
        let a = first.artifact();
        let (manifest, meta) = if let Some(Source::Layout { .. }) = self.source {
            let meta = ArtifactMeta {
                parent_seed: a.meta.parent_seed,
                // Shard 0 may be stale after an in-place tail append or
                // a compaction that skipped it; the manifest's counters
                // win when they are ahead.
                update_count: a.meta.update_count.max(self.meta.update_count),
                compaction_count: a.meta.compaction_count.max(self.meta.compaction_count),
                ..self.meta
            };
            (self.manifest, meta)
        } else {
            (one_shard_manifest(a), a.meta.clone())
        };
        ShardRouter {
            manifest,
            meta,
            weights: a.weights.clone(),
            index_enabled: first.index().is_some(),
            index_nlist: first.index().map_or(0, IvfIndex::nlist),
            ..self
        }
    }

    /// The manifest this router serves (a one-entry manifest for a
    /// single artifact).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// `(shard loads, evictions)` since open — observability for the
    /// lazy-residency machinery.
    pub fn residency_stats(&self) -> (u64, u64) {
        (
            self.loads.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// `madvise(MADV_DONTNEED)` hints issued to over-budget mapped
    /// shards since open.
    pub fn dontneed_hints(&self) -> u64 {
        self.dontneed_hints.load(Ordering::Relaxed)
    }

    /// The `k` most similar nodes to `node` (cosine in embedding
    /// space), best first; ties break toward the smaller node id. The
    /// query node itself is excluded. `k` is clamped to `n - 1`.
    ///
    /// # Errors
    /// [`ServeError::InvalidQuery`] for out-of-range nodes or `k == 0`;
    /// [`ServeError::NotFound`] for deleted nodes.
    pub fn top_k_similar(&self, node: usize, k: usize) -> Result<Vec<Neighbor>> {
        self.top_k_batch(&[(node, k)]).pop().expect("one query")
    }

    /// The `k` most similar nodes to `node` via per-shard IVF probes
    /// (`nprobe` lists per shard; `0` = per-shard default,
    /// `nprobe >= nlist` is bit-identical to
    /// [`ShardRouter::top_k_similar`]). Approximate answers are not
    /// cached (cheap, and parameterized by `nprobe`).
    ///
    /// # Errors
    /// As [`ShardRouter::top_k_similar`], and
    /// [`ServeError::InvalidQuery`] when no index is loaded.
    pub fn top_k_approx(&self, node: usize, k: usize, nprobe: usize) -> Result<Vec<Neighbor>> {
        self.top_k_batch_approx(&[(node, k, nprobe)])
            .pop()
            .expect("one query")
    }

    fn resident_count(&self) -> usize {
        self.slots
            .lock()
            .expect("slot lock")
            .iter()
            .filter(|s| s.engine.is_some())
            .count()
    }

    fn loads_since(&self, before: u64) -> u64 {
        self.loads.load(Ordering::Relaxed).saturating_sub(before)
    }

    /// Returns the engine for shard `idx`, loading (and possibly
    /// evicting another shard) if needed. The returned `Arc` keeps the
    /// shard alive for the caller even if it is evicted concurrently.
    fn engine_for(&self, idx: usize) -> Result<Arc<ShardEngine>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut slots = self.slots.lock().expect("slot lock");
            if let Some(engine) = &slots[idx].engine {
                let engine = Arc::clone(engine);
                slots[idx].last_used = tick;
                return Ok(engine);
            }
        }
        // Load outside the lock: a slow disk must not serialize
        // queries against already-resident shards. Two threads may
        // race to load the same shard; the loser's copy is dropped.
        let mut span = mvag_obs::span("serve.shard_load");
        span.counter("shard", idx as u64);
        let engine = Arc::new(self.load_shard(idx)?);
        drop(span);
        let mut slots = self.slots.lock().expect("slot lock");
        if slots[idx].engine.is_none() {
            slots[idx].engine = Some(Arc::clone(&engine));
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.evict_over_budget(&mut slots, idx);
        }
        slots[idx].last_used = tick;
        Ok(engine)
    }

    fn evict_over_budget(&self, slots: &mut [Slot], keep: usize) {
        if self.config.max_resident == 0 {
            return;
        }
        let budget = self.config.max_resident.max(1);
        // Owned shards pin heap, so the budget is enforced by dropping
        // the least-recently-used ones. Mapped shards are excluded:
        // their pages belong to the page cache and the kernel can
        // reclaim them under pressure anyway.
        loop {
            let owned = |s: &Slot| s.engine.as_ref().is_some_and(|e| !e.store().is_mapped());
            if slots.iter().filter(|s| owned(s)).count() <= budget {
                break;
            }
            let victim = slots
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != keep && owned(s))
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    slots[i].engine = None;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // only `keep` is owned-resident
            }
        }
        // For mapped shards the budget degrades to a page-cache
        // *hint*: the LRU ones beyond it get `madvise(MADV_DONTNEED)`
        // — resident pages are released now rather than under
        // pressure, and fault back in bit-identically on next touch.
        let mut mapped: Vec<(u64, usize)> = slots
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != keep && s.engine.as_ref().is_some_and(|e| e.store().is_mapped()))
            .map(|(i, s)| (s.last_used, i))
            .collect();
        if mapped.len() > budget {
            mapped.sort_unstable(); // oldest tick first
            for &(_, i) in &mapped[..mapped.len() - budget] {
                let engine = slots[i].engine.as_ref().expect("filtered resident");
                if engine.store().advise_dontneed() {
                    self.dontneed_hints.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Loads shard `idx` — the one load path for layouts and single
    /// files. A persisted index sidecar (written by `sgla-serve train
    /// --index ivf`) takes precedence over training one; without a
    /// sidecar, [`EngineConfig::index`] decides whether the shard
    /// trains its own at *first* load, and the trained index is kept
    /// router-side so an evicted shard never retrains on reload. The
    /// mapped open comes first unless [`RouterConfig::mmap`] is off;
    /// under [`MmapMode::Auto`] anything it cannot serve (index
    /// training, stale layout shards pending rebase) falls back to the
    /// owned load, which for layouts is the shared checksummed
    /// `compact::read_shard_with_norms` path.
    fn load_shard(&self, idx: usize) -> Result<ShardEngine> {
        let Some(source) = &self.source else {
            return Err(ServeError::Server(
                "an in-memory shard cannot be reloaded".into(),
            ));
        };
        let (label, sidecar) = match source {
            Source::Layout { dir, .. } => (
                format!("shard {idx} ({})", self.manifest.shards[idx].file),
                dir.join(Artifact::shard_index_file_name(idx)),
            ),
            Source::File(path) => (
                path.display().to_string(),
                Artifact::index_sidecar_path(path),
            ),
        };
        let fail = |msg: String| ServeError::Corrupt(format!("{label}: {msg}"));
        let index = if sidecar.is_file() {
            Some(
                IvfIndex::load(&sidecar)
                    .map_err(|e| fail(format!("index sidecar {}: {e}", sidecar.display())))?,
            )
        } else {
            self.trained_indexes.lock().expect("trained index lock")[idx].clone()
        };
        let train = self.config.engine.index.as_ref();
        if self.config.mmap != MmapMode::Off {
            let mapped = match source {
                Source::Layout { dir, .. } => {
                    crate::store::open_shard_mapped(dir, &self.manifest, idx)
                }
                Source::File(path) => crate::store::open_mapped(path),
            };
            match (
                mapped.and_then(|m| ShardEngine::mapped(m, index.clone(), train)),
                self.config.mmap,
            ) {
                (Ok(engine), _) => return Ok(engine),
                (Err(e), MmapMode::On) => {
                    return Err(fail(format!("cannot serve memory-mapped (--mmap on): {e}")))
                }
                (Err(_), _) => {} // Auto: fall back to the owned path.
            }
        }
        let (artifact, norms) = match source {
            Source::Layout { dir, id_map } => {
                crate::compact::read_shard_with_norms(dir, &self.manifest, idx, id_map.as_ref())?
            }
            Source::File(path) => Artifact::load_with_norms(path)?,
        };
        let trains = index.is_none();
        let engine = ShardEngine::owned(artifact, Some(norms), index, train)?;
        if let (true, Some(index)) = (trains, engine.index()) {
            self.trained_indexes.lock().expect("trained index lock")[idx] = Some(index.clone());
        }
        Ok(engine)
    }

    /// The shard owning `node`.
    fn owner(&self, node: usize) -> Result<usize> {
        self.manifest.shard_of(node).ok_or_else(|| {
            ServeError::InvalidQuery(format!("node {node} out of range (n = {})", self.meta.n))
        })
    }

    /// Validates one top-k query's node range and `k`; returns the
    /// owning shard and `k` clamped to `n - 1`. Deleted nodes are
    /// caught later, by the owning shard, for that query alone.
    fn admit(&self, node: usize, k: usize) -> Result<(usize, usize)> {
        let owner = self.owner(node)?;
        if k == 0 {
            return Err(ServeError::InvalidQuery("k must be at least 1".into()));
        }
        Ok((owner, k.min(self.meta.n - 1)))
    }

    /// Runs admitted jobs through the fan-out and fills in the cost
    /// profile's fan-out shape. A shard-load fault fails every job of
    /// the batch, keeping the error class; anything narrower (a
    /// deleted query node) fails only its own job.
    fn run(&self, jobs: &[Job], approx: bool, cost: &mut QueryCost) -> Vec<Result<Vec<Neighbor>>> {
        let loads_before = self.loads.load(Ordering::Relaxed);
        let results = if jobs.is_empty() {
            Vec::new()
        } else {
            cost.shards_touched = self.manifest.shards.len() as u64;
            match self.fan_out(jobs, approx, cost) {
                Ok(results) => results,
                Err(e) => jobs.iter().map(|_| Err(clone_error_class(&e))).collect(),
            }
        };
        cost.shards_loaded = self.loads_since(loads_before);
        cost.shards_resident = self.resident_count() as u64;
        results
    }

    /// Fetches each job's query vector from its owning shard, scores
    /// the live jobs against every shard, and merges.
    fn fan_out(
        &self,
        jobs: &[Job],
        approx: bool,
        cost: &mut QueryCost,
    ) -> Result<Vec<Result<Vec<Neighbor>>>> {
        let shard_count = self.manifest.shards.len();
        let mut span = mvag_obs::span("serve.fan_out");
        span.counter("jobs", jobs.len() as u64);
        span.counter("shards", shard_count as u64);
        // Grouped by owner: under a residency cap a query order
        // alternating between shards must cost one engine resolution
        // per shard, not one reload per query.
        let mut by_owner: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        for (j, job) in jobs.iter().enumerate() {
            by_owner[job.owner].push(j);
        }
        // Every job has an owner, so each placeholder is overwritten.
        let mut vectors: Vec<Result<(Vec<f64>, f64)>> =
            jobs.iter().map(|_| Ok((Vec::new(), 0.0))).collect();
        for (owner, members) in by_owner.into_iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let engine = self.engine_for(owner)?;
            for j in members {
                vectors[j] = engine.query_vector(jobs[j].node);
            }
        }
        let live: Vec<VectorJob> = jobs
            .iter()
            .zip(&vectors)
            .filter_map(|(job, vector)| {
                let (qrow, qnorm) = vector.as_ref().ok()?;
                Some(VectorJob {
                    qrow,
                    qnorm: *qnorm,
                    exclude: Some(job.node),
                    k: job.k,
                    nprobe: job.nprobe,
                })
            })
            .collect();
        let mut merged = self.scan_and_merge(&live, approx, cost)?.into_iter();
        Ok(vectors
            .into_iter()
            .map(|v| v.map(|_| merged.next().expect("one answer per live job")))
            .collect())
    }

    /// The scan policy: every shard's jobs split into
    /// `ceil(threads / shards)` chunks, one task per (shard, chunk),
    /// each running the blocked multi-job kernel; then the per-shard
    /// lists merge under the total order.
    fn scan_and_merge(
        &self,
        jobs: &[VectorJob],
        approx: bool,
        cost: &mut QueryCost,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let shard_count = self.manifest.shards.len();
        let threads = parallel::default_threads();
        let chunk_len = jobs
            .len()
            .div_ceil(threads.div_ceil(shard_count).min(jobs.len()));
        let chunks: Vec<&[VectorJob]> = jobs.chunks(chunk_len).collect();
        let tasks = shard_count * chunks.len();
        // A lone approximate job parallelizes over its probed lists
        // instead.
        let probe_threads = if tasks == 1 { threads } else { 1 };
        let task = |t: usize| -> Result<Vec<Partial>> {
            let engine = self.engine_for(t / chunks.len())?;
            scan_chunk(&engine, chunks[t % chunks.len()], approx, probe_threads)
        };
        let unbounded = self.config.max_resident == 0 || self.config.max_resident >= shard_count;
        let per_task: Vec<Result<Vec<Partial>>> = if unbounded {
            // Pool workers have no ambient trace of their own; carry
            // the caller's over so per-shard spans (lazy loads, scans)
            // attach to the request being fanned out.
            let trace = mvag_obs::current_trace();
            parallel::par_map(tasks, threads, |t| mvag_obs::with_trace(trace, || task(t)))
        } else {
            // Memory-capped: tasks are shard-major, so running them in
            // order streams shard by shard and at most
            // `max_resident + 1` shards are resident mid-scan.
            (0..tasks).map(task).collect()
        };
        let _merge = mvag_obs::span("serve.merge");
        let mut heaps: Vec<TopK<Neighbor>> = jobs.iter().map(|j| TopK::new(j.k)).collect();
        for (t, partials) in per_task.into_iter().enumerate() {
            let first = (t % chunks.len()) * chunk_len;
            for (heap, p) in heaps[first..].iter_mut().zip(partials?) {
                cost.lists_probed += p.lists;
                cost.rows_scanned += p.rows;
                cost.tombstones_masked += p.masked;
                if approx {
                    self.counters
                        .lists_scanned
                        .fetch_add(p.lists, Ordering::Relaxed);
                    self.counters
                        .rows_scanned
                        .fetch_add(p.rows, Ordering::Relaxed);
                }
                for neighbor in p.hits {
                    heap.push(neighbor);
                }
            }
        }
        Ok(heaps.into_iter().map(TopK::into_sorted).collect())
    }

    /// Shared tail of both top-k paths: admits each query, serves cache
    /// hits (exact only), runs the rest, and assembles the answers in
    /// query order.
    fn top_k(
        &self,
        queries: impl ExactSizeIterator<Item = (usize, usize, usize)>,
        approx: bool,
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost) {
        let mut cost = if approx {
            QueryCost::ivf()
        } else {
            QueryCost::exact()
        };
        let mut answers: Vec<Option<Result<Vec<Neighbor>>>> = Vec::with_capacity(queries.len());
        let mut jobs: Vec<Job> = Vec::new();
        {
            // Approximate answers bypass the cache (cheap, and
            // parameterized by nprobe): every admitted one is a miss.
            let mut cache = self.cache.lock().expect("cache lock");
            for (node, k, nprobe) in queries {
                let (owner, k) = match self.admit(node, k) {
                    Ok(admitted) => admitted,
                    Err(e) => {
                        answers.push(Some(Err(e)));
                        continue;
                    }
                };
                let counter = if approx {
                    &self.counters.approx_queries
                } else {
                    &self.counters.exact_queries
                };
                counter.fetch_add(1, Ordering::Relaxed);
                if let Some(hit) = (!approx).then(|| cache.get(&(node, k))).flatten() {
                    cost.cache_hits += 1;
                    answers.push(Some(Ok(hit.clone())));
                } else {
                    cost.cache_misses += 1;
                    jobs.push(Job {
                        slot: answers.len(),
                        node,
                        owner,
                        k,
                        nprobe,
                    });
                    answers.push(None);
                }
            }
        }
        let results = self.run(&jobs, approx, &mut cost);
        if !approx {
            let mut cache = self.cache.lock().expect("cache lock");
            for (job, result) in jobs.iter().zip(&results) {
                if let Ok(hits) = result {
                    cache.insert((job.node, job.k), hits.clone());
                }
            }
        }
        for (job, result) in jobs.iter().zip(results) {
            answers[job.slot] = Some(result);
        }
        let answers = answers
            .into_iter()
            .map(|a| a.expect("all slots filled"))
            .collect();
        (answers, cost)
    }
}

/// The per-shard half of a fan-out for one chunk of jobs: the blocked
/// exact kernel, or one IVF probe per job.
fn scan_chunk(
    engine: &ShardEngine,
    jobs: &[VectorJob],
    approx: bool,
    probe_threads: usize,
) -> Result<Vec<Partial>> {
    if approx {
        let mut span = mvag_obs::span("serve.ivf_probe");
        span.counter("queries", jobs.len() as u64);
        return jobs
            .iter()
            .map(|job| {
                let (hits, stats, masked) = engine.probe(job, probe_threads)?;
                span.counter("lists_scanned", stats.lists_scanned as u64);
                span.counter("rows_scanned", stats.rows_scanned as u64);
                Ok(Partial {
                    hits,
                    lists: stats.lists_scanned as u64,
                    rows: stats.rows_scanned as u64,
                    masked,
                })
            })
            .collect();
    }
    // `rows_scanned` counts the candidate rows a job visited: every
    // row of the shard except the query row itself (so a whole scan is
    // `n - 1`, as for a full IVF probe). Tombstoned rows are visited
    // and masked; they count here and in `tombstones_masked`.
    let a = engine.artifact();
    let rows = |job: &VectorJob| {
        let own = job
            .exclude
            .is_some_and(|x| (a.meta.row_start..a.meta.row_end).contains(&x));
        (a.meta.rows() - usize::from(own)) as u64
    };
    let mut span = mvag_obs::span("serve.scan");
    span.counter("queries", jobs.len() as u64);
    span.counter("rows_scanned", jobs.iter().map(rows).sum());
    let masked = a.tombstone_count() as u64;
    Ok(engine
        .scan(jobs)
        .into_iter()
        .zip(jobs)
        .map(|(hits, job)| Partial {
            hits,
            lists: 0,
            rows: rows(job),
            masked,
        })
        .collect())
}

/// The one-entry manifest of a single artifact.
pub(crate) fn one_shard_manifest(artifact: &Artifact) -> ShardManifest {
    let m = &artifact.meta;
    ShardManifest {
        dataset: m.dataset.clone(),
        n: m.n,
        k: m.k,
        dim: m.dim,
        seed: m.seed,
        artifact_format_version: FORMAT_VERSION,
        update_count: m.update_count,
        compaction_count: m.compaction_count,
        id_map: None,
        shards: vec![ShardEntry {
            row_start: m.row_start,
            row_end: m.row_end,
            tombstones: artifact.tombstone_count(),
            ..ShardEntry::default()
        }],
    }
}

/// Re-materializes a fan-out error once per failed job, keeping the
/// client-facing classes (`InvalidQuery` → 400, `NotFound` → 404) and
/// their messages intact and demoting everything else to a
/// server-side fault.
fn clone_error_class(e: &ServeError) -> ServeError {
    match e {
        ServeError::InvalidQuery(msg) => ServeError::InvalidQuery(msg.clone()),
        ServeError::NotFound(msg) => ServeError::NotFound(msg.clone()),
        other => ServeError::Server(other.to_string()),
    }
}

impl QueryBackend for ShardRouter {
    fn meta(&self) -> ArtifactMeta {
        self.meta.clone()
    }

    fn weights(&self) -> Vec<f64> {
        self.weights.clone()
    }

    fn cluster_of_costed(&self, node: usize) -> (Result<ClusterInfo>, QueryCost) {
        let mut cost = QueryCost::exact();
        cost.shards_touched = 1;
        cost.rows_scanned = 1;
        let loads_before = self.loads.load(Ordering::Relaxed);
        let answer = self
            .owner(node)
            .and_then(|shard| self.engine_for(shard)?.cluster_of(node));
        cost.shards_loaded = self.loads_since(loads_before);
        cost.shards_resident = self.resident_count() as u64;
        (answer, cost)
    }

    fn top_k_batch_costed(
        &self,
        queries: &[(usize, usize)],
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost) {
        self.top_k(queries.iter().map(|&(node, k)| (node, k, 0)), false)
    }

    fn top_k_batch_approx_costed(
        &self,
        queries: &[ApproxQuery],
    ) -> (Vec<Result<Vec<Neighbor>>>, QueryCost) {
        if !self.index_enabled {
            let answers = queries.iter().map(|_| Err(no_index_error())).collect();
            let mut cost = QueryCost::ivf();
            cost.shards_resident = self.resident_count() as u64;
            return (answers, cost);
        }
        self.top_k(queries.iter().copied(), true)
    }

    fn embed_batch_costed(&self, nodes: &[usize]) -> (Result<Vec<Vec<f64>>>, QueryCost) {
        let mut cost = QueryCost::exact();
        cost.rows_scanned = nodes.len() as u64;
        let loads_before = self.loads.load(Ordering::Relaxed);
        // Group by owning shard: an interleaved node order must cost
        // one engine resolution per *shard*, not per node — under a
        // residency cap the per-node path could reload a shard from
        // disk for every single row.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.manifest.shards.len()];
        let answer = nodes
            .iter()
            .enumerate()
            .try_for_each(|(pos, &node)| {
                by_shard[self.owner(node)?].push(pos);
                Ok(())
            })
            .and_then(|()| {
                let mut rows: Vec<Vec<f64>> = vec![Vec::new(); nodes.len()];
                for (owner, positions) in by_shard.iter().enumerate() {
                    if positions.is_empty() {
                        continue;
                    }
                    cost.shards_touched += 1;
                    let shard_nodes: Vec<usize> = positions.iter().map(|&p| nodes[p]).collect();
                    let fetched = self.engine_for(owner)?.embed_batch(&shard_nodes)?;
                    for (&pos, row) in positions.iter().zip(fetched) {
                        rows[pos] = row;
                    }
                }
                Ok(rows)
            });
        cost.shards_loaded = self.loads_since(loads_before);
        cost.shards_resident = self.resident_count() as u64;
        (answer, cost)
    }

    fn index_stats(&self) -> IndexStats {
        let c = &self.counters;
        IndexStats {
            enabled: self.index_enabled,
            nlist: self.index_nlist,
            approx_queries: c.approx_queries.load(Ordering::Relaxed),
            exact_queries: c.exact_queries.load(Ordering::Relaxed),
            lists_scanned: c.lists_scanned.load(Ordering::Relaxed),
            rows_scanned: c.rows_scanned.load(Ordering::Relaxed),
        }
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().expect("cache lock").stats()
    }

    fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    fn resident_shards(&self) -> usize {
        self.resident_count()
    }

    fn tombstone_count(&self) -> usize {
        // The manifest carries per-shard tombstone counts, so this
        // needs no shard loads (and stays correct under eviction).
        self.manifest.shards.iter().map(|e| e.tombstones).sum()
    }

    fn store_memory(&self) -> StoreMemory {
        let slots = self.slots.lock().expect("slot lock");
        let mut mem = StoreMemory {
            resident_hint: if self.config.max_resident == 0 {
                "none"
            } else if self.config.mmap != MmapMode::Off && crate::store::MMAP_SUPPORTED {
                "madvise"
            } else {
                "evict"
            }
            .to_string(),
            ..StoreMemory::default()
        };
        for slot in slots.iter() {
            match &slot.engine {
                Some(engine) => {
                    mem.owned_bytes += engine.store().owned_bytes();
                    mem.mapped_bytes += engine.store().mapped_bytes();
                    mem.stores.push(engine.store().kind().to_string());
                }
                None => mem.stores.push("-".to_string()),
            }
        }
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TrainConfig;
    use crate::engine::QueryEngine;

    fn trained() -> Artifact {
        let mvag = mvag_graph::toy::toy_mvag(72, 3, 13);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        Artifact::train(&mvag, &config).unwrap()
    }

    fn sharded_dir(artifact: &Artifact, shards: usize, tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sgla-router-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        artifact.save_sharded(&dir, shards).unwrap();
        dir
    }

    #[test]
    fn routed_queries_match_monolithic_bit_exactly() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 4, "exact");
        let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();

        for node in [0usize, 17, 35, 36, 54, 71] {
            let direct = engine.top_k_similar(node, 7).unwrap();
            let routed = router.top_k_similar(node, 7).unwrap();
            assert_eq!(direct.len(), routed.len());
            for (d, r) in direct.iter().zip(&routed) {
                assert_eq!(d.node, r.node, "query {node}");
                assert_eq!(d.score.to_bits(), r.score.to_bits(), "query {node}");
            }
            assert_eq!(
                engine.cluster_of(node).unwrap(),
                router.cluster_of(node).unwrap()
            );
        }
        assert_eq!(
            engine.embed_batch(&[3, 40, 70]).unwrap(),
            router.embed_batch(&[3, 40, 70]).unwrap()
        );
        // The scan work is defined once: n - 1 candidate rows per
        // job at any shard count.
        let (_, one) = engine.top_k_batch_costed(&[(1, 3), (2, 3)]);
        let (_, four) = router.top_k_batch_costed(&[(1, 3), (2, 3)]);
        assert_eq!(one.rows_scanned, 2 * 71);
        assert_eq!(four.rows_scanned, 2 * 71);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_and_cache_paths_agree() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 3, "batch");
        let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        let queries: Vec<(usize, usize)> = (0..24).map(|i| (i * 3 % 72, 5)).collect();
        let routed = router.top_k_batch(&queries);
        let direct = engine.top_k_batch(&queries);
        for ((r, d), q) in routed.iter().zip(&direct).zip(&queries) {
            assert_eq!(r.as_ref().unwrap(), d.as_ref().unwrap(), "query {q:?}");
        }
        // Repeats hit the router cache and still agree.
        let again = router.top_k_batch(&queries);
        for (a, d) in again.iter().zip(&direct) {
            assert_eq!(a.as_ref().unwrap(), d.as_ref().unwrap());
        }
        let (hits, _) = router.cache_stats();
        assert!(hits >= queries.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_queries_get_individual_errors() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 2, "invalid");
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        let res = router.top_k_batch(&[(0, 3), (9_999, 3), (1, 0), (2, 3)]);
        assert!(res[0].is_ok());
        assert!(matches!(res[1], Err(ServeError::InvalidQuery(_))));
        assert!(matches!(res[2], Err(ServeError::InvalidQuery(_))));
        assert!(res[3].is_ok());
        assert!(router.cluster_of(9_999).is_err());
        assert!(router.embed_batch(&[0, 9_999]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_node_fails_only_its_own_query() {
        let mut artifact = trained();
        artifact.tombstones = vec![7];
        let config = EngineConfig {
            index: Some(mvag_index::IvfConfig { nlist: 3, seed: 4 }),
            ..EngineConfig::default()
        };
        let dir = sharded_dir(&artifact, 2, "deleted");
        let one = QueryEngine::new(artifact, config.clone()).unwrap();
        let two = ShardRouter::open(
            &dir,
            RouterConfig {
                engine: config,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let message = "not found: node 7 has been deleted (tombstoned; pending compaction)";
        for backend in [&one as &dyn QueryBackend, &two] {
            let exact = backend.top_k_batch(&[(0, 3), (7, 3), (2, 3)]);
            let approx = backend.top_k_batch_approx(&[(0, 3, 99), (7, 3, 99), (2, 3, 99)]);
            for answers in [exact, approx] {
                assert_eq!(
                    answers[0].as_ref().unwrap(),
                    &one.top_k_similar(0, 3).unwrap()
                );
                assert_eq!(
                    answers[2].as_ref().unwrap(),
                    &one.top_k_similar(2, 3).unwrap()
                );
                match &answers[1] {
                    Err(e @ ServeError::NotFound(_)) => assert_eq!(e.to_string(), message),
                    other => panic!("expected NotFound, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_capped_residency_evicts_lru_and_stays_exact() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 6, "evict");
        let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
        let router = ShardRouter::open(
            &dir,
            RouterConfig {
                max_resident: 2,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        // Touch every shard via routed point queries, then fan out.
        for node in (0..72).step_by(5) {
            assert_eq!(
                engine.cluster_of(node).unwrap(),
                router.cluster_of(node).unwrap()
            );
            assert!(router.resident_shards() <= 2);
        }
        let direct = engine.top_k_similar(50, 9).unwrap();
        let routed = router.top_k_similar(50, 9).unwrap();
        assert_eq!(direct, routed);
        let (loads, evictions) = router.residency_stats();
        assert!(loads > 6, "expected reloads after eviction, got {loads}");
        assert!(evictions > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn approx_fan_out_full_probe_matches_exact_and_counts_work() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 3, "approx");
        let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
        let config = RouterConfig {
            engine: EngineConfig {
                index: Some(mvag_index::IvfConfig { nlist: 4, seed: 3 }),
                ..EngineConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = ShardRouter::open(&dir, config).unwrap();
        assert!(router.index_stats().enabled);
        // Full probe: bit-identical to the one-shard exact scan.
        for node in [0usize, 17, 36, 71] {
            let exact = engine.top_k_similar(node, 7).unwrap();
            let approx = router.top_k_approx(node, 7, usize::MAX).unwrap();
            assert_eq!(exact.len(), approx.len());
            for (x, a) in exact.iter().zip(&approx) {
                assert_eq!(x.node, a.node, "query {node}");
                assert_eq!(x.score.to_bits(), a.score.to_bits(), "query {node}");
            }
        }
        // Partial probe scans fewer rows than shards hold in total.
        let before = router.index_stats();
        router.top_k_approx(5, 5, 1).unwrap();
        let after = router.index_stats();
        assert_eq!(after.approx_queries, before.approx_queries + 1);
        assert!(after.rows_scanned - before.rows_scanned < 71);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn router_trained_indexes_survive_eviction() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 4, "evict-index");
        let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
        let router = ShardRouter::open(
            &dir,
            RouterConfig {
                engine: EngineConfig {
                    index: Some(mvag_index::IvfConfig { nlist: 3, seed: 5 }),
                    ..EngineConfig::default()
                },
                max_resident: 1,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        // First fan-out loads (and trains) every shard; the indexes
        // must be cached even though shards evict down to one.
        let first = router.top_k_approx(10, 6, usize::MAX).unwrap();
        assert_eq!(first, engine.top_k_similar(10, 6).unwrap());
        assert!(router
            .trained_indexes
            .lock()
            .unwrap()
            .iter()
            .all(Option::is_some));
        // Subsequent fan-outs reload evicted shards but reuse the
        // cached indexes — answers stay exact at full probe and
        // evictions keep happening.
        let (loads_before, _) = router.residency_stats();
        let again = router.top_k_approx(60, 6, usize::MAX).unwrap();
        assert_eq!(again, engine.top_k_similar(60, 6).unwrap());
        let (loads_after, evictions) = router.residency_stats();
        assert!(loads_after > loads_before, "memory cap forces reloads");
        assert!(evictions > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn approx_without_indexes_is_a_clean_per_query_error() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 2, "approx-none");
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        assert!(!router.index_stats().enabled);
        let res = router.top_k_batch_approx(&[(0, 3, 1), (9_999, 3, 1)]);
        assert!(matches!(res[0], Err(ServeError::InvalidQuery(_))));
        assert!(matches!(res[1], Err(ServeError::InvalidQuery(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_sidecars_load_and_serve_approx() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 3, "sidecar");
        // Write per-shard index sidecars the way `train --index ivf`
        // does, then open WITHOUT an index config: sidecars alone must
        // enable approx serving.
        for (i, entry) in artifact
            .save_sharded(&dir, 3)
            .unwrap()
            .shards
            .iter()
            .enumerate()
        {
            let shard = artifact.shard(entry.row_start, entry.row_end).unwrap();
            let index = shard
                .build_ivf(&mvag_index::IvfConfig { nlist: 3, seed: 9 })
                .unwrap();
            index
                .save(&dir.join(Artifact::shard_index_file_name(i)))
                .unwrap();
        }
        // A single file's `<file>.ivf` sidecar loads the same way.
        let file = dir.join("mono.sgla");
        artifact.save(&file).unwrap();
        artifact
            .build_ivf(&mvag_index::IvfConfig { nlist: 3, seed: 9 })
            .unwrap()
            .save(&Artifact::index_sidecar_path(&file))
            .unwrap();
        let engine = QueryEngine::new(artifact, EngineConfig::default()).unwrap();
        let mono = ShardRouter::open(&file, RouterConfig::default()).unwrap();
        assert_eq!(mono.shard_count(), 1);
        assert_eq!(mono.index_stats().nlist, 3);
        assert_eq!(
            mono.top_k_approx(40, 6, usize::MAX).unwrap(),
            engine.top_k_similar(40, 6).unwrap()
        );
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        let stats = router.index_stats();
        assert!(stats.enabled);
        assert_eq!(stats.nlist, 3);
        let exact = engine.top_k_similar(40, 6).unwrap();
        let approx = router.top_k_approx(40, 6, usize::MAX).unwrap();
        assert_eq!(exact, approx);
        // A corrupt sidecar is rejected at shard load.
        let sidecar = dir.join(Artifact::shard_index_file_name(1));
        let mut raw = std::fs::read(&sidecar).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        std::fs::write(&sidecar, &raw).unwrap();
        let fresh = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        assert!(fresh.top_k_approx(40, 6, 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_or_manifest_rejected() {
        let artifact = trained();
        let dir = sharded_dir(&artifact, 3, "corrupt");
        // Flip a byte in shard 1: open() succeeds (shard 1 is lazy),
        // first touch fails with Corrupt.
        let shard1 = dir.join(Artifact::shard_file_name(1));
        let mut raw = std::fs::read(&shard1).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&shard1, &raw).unwrap();
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        let node_in_shard1 = router.manifest().shards[1].row_start;
        assert!(matches!(
            router.cluster_of(node_in_shard1),
            Err(ServeError::Corrupt(_))
        ));
        // A fan-out over the broken shard fails as a server-side error.
        assert!(matches!(
            router.top_k_similar(0, 3),
            Err(ServeError::Server(_))
        ));
        // Mangle the manifest: open() itself must fail.
        std::fs::write(dir.join(Artifact::MANIFEST_FILE), "{not json").unwrap();
        assert!(ShardRouter::open(&dir, RouterConfig::default()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
