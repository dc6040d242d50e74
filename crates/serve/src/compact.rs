//! Background compaction and in-place append for sharded layouts.
//!
//! A sharded layout accumulates garbage two ways: tombstoned rows
//! (deletions applied by [`Artifact::update`](crate::Artifact::update)
//! and re-sharded) and *stale* shard files — files whose coordinates
//! predate a later compaction or append and are rebased at load time
//! via the manifest's per-entry file coordinates (see
//! [`ShardEntry`](mvag_data::manifest::ShardEntry)). This module turns
//! the layout into a small storage engine:
//!
//! * [`compact_sharded`] purges every tombstone from a layout,
//!   rewriting only the *dirty* shards (tombstoned or stale) and
//!   re-pointing the untouched ones through a persisted
//!   [`IdMap`] sidecar — bounding write amplification to the dirty
//!   bytes plus the (tiny) manifest and id map. Compacting a layout
//!   saved by an older release (format v4 or earlier) rewrites every
//!   shard, migrating the whole layout to the current v5 format so the
//!   result can serve memory-mapped.
//! * [`append_sharded`] routes a pure-append delta to the tail shard:
//!   exactly one shard file plus the manifest are rewritten, every
//!   other shard file stays byte-identical (its manifest entry merely
//!   gains a `file_n` so the router grows its Laplacian at load).
//! * [`compact_monolithic`] is the single-file analogue used by the
//!   `sgla-serve compact` CLI and `serve --auto-compact`. It rewrites
//!   a file in an older format (v4 or earlier) as v5 even when there
//!   is nothing to purge.
//! * `read_shard_with_norms` / `rebase_shard` are the shared
//!   (crate-internal) load path: the
//!   [`ShardRouter`](crate::router::ShardRouter) and the compactor
//!   both verify a shard file against its manifest entry and rebase
//!   stale files into the manifest's current coordinate system.
//! * `legacy` holds the v1–v4 codecs. Serving reads v5 only, so the
//!   compactor is the one reader of older files: it is the migration.
//!
//! # Crash consistency
//!
//! Every mutation commits by rename through
//! [`crate::publish`](mod@crate::publish), driven through a
//! [`LayoutWriter`] so tests can inject torn writes at any byte
//! ([`mvag_data::FailpointWriter`]).

use crate::artifact::{
    check_trainable, compact_csr, crc32, require_current, Artifact, ArtifactMeta, FORMAT_VERSION,
    MAGIC,
};
use crate::publish::{commit_layout, publish, Shard};
use crate::{Result, ServeError};
use bytes::Bytes;
use mvag_data::manifest::ShardManifest;
use mvag_data::{IdMap, LayoutWriter};
use mvag_graph::{MvagDelta, ViewDelta};
use mvag_sparse::{CsrMatrix, DenseMatrix};
use std::path::{Path, PathBuf};

#[doc(hidden)]
pub mod legacy;

/// Process-wide compaction/append telemetry behind the
/// `sgla_compact_*` metrics family. Statics (not per-server state)
/// because compactions are driven from several places — the CLI's
/// `--auto-compact` sweep, tests, and future background schedulers —
/// and all of them should land on the one `/metrics` page.
mod telemetry {
    use mvag_obs::metrics::Histogram;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    pub(super) static RUNNING: AtomicU64 = AtomicU64::new(0);
    pub(super) static COMPLETED: AtomicU64 = AtomicU64::new(0);
    pub(super) static FAILED: AtomicU64 = AtomicU64::new(0);
    pub(super) static TOMBSTONES_PURGED: AtomicU64 = AtomicU64::new(0);
    pub(super) static SHARDS_REWRITTEN: AtomicU64 = AtomicU64::new(0);
    pub(super) static BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
    pub(super) static DIRTY_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static APPENDS: AtomicU64 = AtomicU64::new(0);
    pub(super) static APPENDED_NODES: AtomicU64 = AtomicU64::new(0);
    /// Run durations in microseconds.
    pub(super) static DURATION_US: Histogram = Histogram::new();

    /// Holds the running gauge up for the duration of one run; the
    /// `Drop` decrement makes the gauge panic-safe.
    pub(super) struct RunGuard {
        started: Instant,
    }

    impl RunGuard {
        pub(super) fn start() -> RunGuard {
            RUNNING.fetch_add(1, Ordering::Relaxed);
            RunGuard {
                started: Instant::now(),
            }
        }

        /// Records the run's duration and outcome counters.
        pub(super) fn observe(&self, ok: bool) {
            DURATION_US.record(self.started.elapsed().as_micros() as u64);
            if ok {
                COMPLETED.fetch_add(1, Ordering::Relaxed);
            } else {
                FAILED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    impl Drop for RunGuard {
        fn drop(&mut self) {
            RUNNING.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Compaction/append runs currently in flight, process-wide
/// (reported by `GET /health` as background-task state).
pub fn compactions_running() -> u64 {
    telemetry::RUNNING.load(std::sync::atomic::Ordering::Relaxed)
}

/// Appends the process-wide `sgla_compact_*` metrics family (run
/// counters, purge/rewrite/byte totals, the write-amplification ratio,
/// and a run-duration histogram on the shared log₂ bucket layout) in
/// Prometheus text format.
pub fn render_prometheus(out: &mut String) {
    use mvag_obs::metrics::{header, histogram, scalar};
    use std::sync::atomic::Ordering;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let counters: [(&str, &str, &str, u64); 9] = [
        (
            "sgla_compact_running",
            "gauge",
            "Compaction/append runs in flight.",
            load(&telemetry::RUNNING),
        ),
        (
            "sgla_compact_completed_total",
            "counter",
            "Compaction/append runs that committed.",
            load(&telemetry::COMPLETED),
        ),
        (
            "sgla_compact_failed_total",
            "counter",
            "Compaction/append runs that returned an error.",
            load(&telemetry::FAILED),
        ),
        (
            "sgla_compact_tombstones_purged_total",
            "counter",
            "Tombstoned rows purged by compactions.",
            load(&telemetry::TOMBSTONES_PURGED),
        ),
        (
            "sgla_compact_shards_rewritten_total",
            "counter",
            "Dirty shard files rewritten by compactions.",
            load(&telemetry::SHARDS_REWRITTEN),
        ),
        (
            "sgla_compact_bytes_written_total",
            "counter",
            "Bytes written by compactions and appends.",
            load(&telemetry::BYTES_WRITTEN),
        ),
        (
            "sgla_compact_dirty_bytes_total",
            "counter",
            "On-disk bytes of dirty shards before their rewrite.",
            load(&telemetry::DIRTY_BYTES),
        ),
        (
            "sgla_compact_appends_total",
            "counter",
            "In-place sharded appends committed.",
            load(&telemetry::APPENDS),
        ),
        (
            "sgla_compact_appended_nodes_total",
            "counter",
            "Nodes added by in-place sharded appends.",
            load(&telemetry::APPENDED_NODES),
        ),
    ];
    for (name, kind, help, value) in counters {
        scalar(out, name, kind, help, value);
    }
    // Write amplification: bytes written per dirty byte replaced. The
    // ratio is computed at render so the counters stay raw.
    let written = load(&telemetry::BYTES_WRITTEN);
    let dirty = load(&telemetry::DIRTY_BYTES);
    let amp = if dirty > 0 {
        written as f64 / dirty as f64
    } else {
        0.0
    };
    scalar(
        out,
        "sgla_compact_write_amplification",
        "gauge",
        "Bytes written per dirty byte replaced (0 until the first compaction).",
        amp,
    );
    header(
        out,
        "sgla_compact_duration_us",
        "histogram",
        "Compaction/append run duration.",
    );
    histogram(
        out,
        "sgla_compact_duration_us",
        &[],
        &telemetry::DURATION_US.snapshot(),
    );
}

/// What a [`compact_sharded`] / [`compact_monolithic`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Tombstoned rows purged from the layout.
    pub purged: usize,
    /// Shard files rewritten (the dirty set).
    pub shards_rewritten: usize,
    /// Shard files left byte-identical on disk.
    pub shards_kept: usize,
    /// Shards whose rows were all tombstoned and which were dropped
    /// from the manifest entirely.
    pub shards_dropped: usize,
    /// Bytes written (new shard files + id map + manifest).
    pub bytes_written: u64,
    /// On-disk bytes of the dirty shards before the rewrite — the
    /// write-amplification denominator: `bytes_written` is bounded by
    /// these bytes plus the small sidecars, never by the layout size.
    pub dirty_bytes_before: u64,
}

impl CompactionStats {
    /// True when the layout was already fully compact and nothing was
    /// written.
    pub fn is_noop(&self) -> bool {
        self.shards_rewritten == 0 && self.purged == 0
    }
}

/// What an [`append_sharded`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Nodes appended.
    pub added: usize,
    /// Index of the (tail) shard that absorbed them.
    pub tail_shard: usize,
    /// Shard files left byte-identical on disk.
    pub shards_kept: usize,
    /// Bytes written (new tail shard + manifest).
    pub bytes_written: u64,
}

/// Resolves `path` (a layout directory or the manifest file itself)
/// to its parsed manifest and containing directory.
///
/// # Errors
/// I/O failures and [`ServeError::Corrupt`] for a malformed manifest.
pub fn open_layout(path: &Path) -> Result<(ShardManifest, PathBuf)> {
    let manifest_path = if path.is_dir() {
        path.join(Artifact::MANIFEST_FILE)
    } else {
        path.to_path_buf()
    };
    let manifest =
        ShardManifest::load(&manifest_path).map_err(|e| ServeError::Corrupt(e.to_string()))?;
    let dir = manifest_path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    Ok((manifest, dir))
}

/// Loads the id-map sidecar the manifest references, if any.
pub(crate) fn load_layout_id_map(dir: &Path, manifest: &ShardManifest) -> Result<Option<IdMap>> {
    match &manifest.id_map {
        None => Ok(None),
        Some(name) => IdMap::load(&dir.join(name))
            .map(Some)
            .map_err(|e| ServeError::Corrupt(format!("id-map sidecar {name}: {e}"))),
    }
}

/// Reads, checksums, decodes, and rebases one v5 shard file, with its
/// persisted per-row norms — the serving load path, shared by the
/// router and the in-place append, so both see the same verified,
/// current-coordinate artifact. Rebasing rewrites graph coordinates,
/// never embedding rows, so the norms stay valid for the rebased
/// artifact.
pub(crate) fn read_shard_with_norms(
    dir: &Path,
    manifest: &ShardManifest,
    idx: usize,
    id_map: Option<&IdMap>,
) -> Result<(Artifact, Vec<f64>)> {
    let raw = read_shard_file(dir, manifest, idx)?;
    let (artifact, norms) = Artifact::decode_with_norms(raw)?;
    Ok((rebase_shard(artifact, manifest, idx, id_map)?, norms))
}

/// The compactor's shard load: [`read_shard_with_norms`] without the
/// norms, accepting every format version so a legacy layout can be
/// migrated.
fn read_shard(
    dir: &Path,
    manifest: &ShardManifest,
    idx: usize,
    id_map: Option<&IdMap>,
) -> Result<Artifact> {
    let artifact = legacy::decode(read_shard_file(dir, manifest, idx)?)?;
    rebase_shard(artifact, manifest, idx, id_map)
}

/// Reads shard `idx`'s file and checks its size and whole-file CRC-32
/// against the manifest entry.
fn read_shard_file(dir: &Path, manifest: &ShardManifest, idx: usize) -> Result<Bytes> {
    let entry = &manifest.shards[idx];
    let fail = |msg: String| ServeError::Corrupt(format!("shard {idx} ({}): {msg}", entry.file));
    let raw = std::fs::read(dir.join(&entry.file))?;
    if entry.bytes != 0 && raw.len() as u64 != entry.bytes {
        return Err(fail(format!(
            "file is {} bytes, manifest says {}",
            raw.len(),
            entry.bytes
        )));
    }
    if entry.crc32 != 0 && crc32(&raw) != entry.crc32 {
        return Err(fail("file checksum does not match the manifest".into()));
    }
    Ok(Bytes::from(raw))
}

/// Verifies a decoded shard against its manifest entry and, when the
/// file is *stale*, rebases it into the manifest's current coordinate
/// system:
///
/// * a bare `file_n` entry (the file predates in-place appends) keeps
///   its ids and merely grows the Laplacian's column space to the
///   current `n`;
/// * a shifted entry (`file_row_start`, written by a compaction that
///   skipped this shard) remaps Laplacian columns through the id map,
///   dropping purged columns, and slides the row range down.
///
/// Compaction always rewrites previously-stale shards, so at most one
/// rebase ever applies — id maps never compose.
pub(crate) fn rebase_shard(
    mut artifact: Artifact,
    manifest: &ShardManifest,
    idx: usize,
    id_map: Option<&IdMap>,
) -> Result<Artifact> {
    let entry = &manifest.shards[idx];
    let fail = |msg: String| ServeError::Corrupt(format!("shard {idx} ({}): {msg}", entry.file));
    // The coordinates the file itself is expected to carry.
    let file_start = entry.file_row_start.unwrap_or(entry.row_start);
    let file_end = entry.file_row_end.unwrap_or(entry.row_end);
    let file_n = entry.file_n.unwrap_or(manifest.n);
    let m = &artifact.meta;
    if m.row_start != file_start || m.row_end != file_end {
        return Err(fail(format!(
            "covers rows {}..{}, manifest says the file holds {file_start}..{file_end}",
            m.row_start, m.row_end
        )));
    }
    if m.n != file_n || m.k != manifest.k || m.dim != manifest.dim || m.dataset != manifest.dataset
    {
        return Err(fail("shard metadata disagrees with the manifest".into()));
    }
    if !entry.is_stale() {
        return Ok(artifact);
    }
    artifact.laplacian = if entry.file_row_start.is_some() {
        // Shifted: a compaction purged ids below/inside this shard's
        // old range without rewriting the file.
        let map = id_map.ok_or_else(|| {
            fail("shifted shard file but the layout has no id-map sidecar".into())
        })?;
        if !artifact.tombstones.is_empty() {
            // Compaction purges tombstones everywhere; a shifted file
            // still carrying some means the map cannot describe it.
            return Err(fail("shifted shard file still carries tombstones".into()));
        }
        if map.old_n != file_n {
            return Err(fail(format!(
                "id map covers old n = {}, file has n = {file_n}",
                map.old_n
            )));
        }
        remap_csr_columns(&artifact.laplacian, map, manifest.n)?
    } else {
        // Bare `file_n`: an in-place append grew the layout past this
        // file; ids are unchanged, rows just need more columns.
        grow_csr_columns(&artifact.laplacian, manifest.n)?
    };
    artifact.meta.n = manifest.n;
    artifact.meta.row_start = entry.row_start;
    artifact.meta.row_end = entry.row_end;
    artifact.meta.update_count = artifact.meta.update_count.max(manifest.update_count);
    artifact.meta.compaction_count = artifact
        .meta
        .compaction_count
        .max(manifest.compaction_count);
    artifact
        .validate()
        .map_err(|e| fail(format!("after rebase: {e}")))?;
    Ok(artifact)
}

/// Same values and column ids, wider column space.
fn grow_csr_columns(m: &CsrMatrix, ncols: usize) -> Result<CsrMatrix> {
    CsrMatrix::from_raw_parts(
        m.nrows(),
        ncols,
        m.indptr().to_vec(),
        m.column_indices().to_vec(),
        m.values().to_vec(),
    )
    .map_err(|e| ServeError::Corrupt(format!("rebased laplacian: {e}")))
}

/// Remaps every column id through `map`, dropping purged columns; the
/// result has `ncols` columns (the layout's current `n`, which may
/// exceed `map.new_n` after later appends).
fn remap_csr_columns(m: &CsrMatrix, map: &IdMap, ncols: usize) -> Result<CsrMatrix> {
    let mut indptr = Vec::with_capacity(m.nrows() + 1);
    let mut cols = Vec::with_capacity(m.column_indices().len());
    let mut vals = Vec::with_capacity(m.values().len());
    indptr.push(0);
    for row in 0..m.nrows() {
        for (&c, &v) in m.row_cols(row).iter().zip(m.row_vals(row)) {
            if let Some(new_c) = map.map(c) {
                cols.push(new_c);
                vals.push(v);
            }
        }
        indptr.push(cols.len());
    }
    CsrMatrix::from_raw_parts(m.nrows(), ncols, indptr, cols, vals)
        .map_err(|e| ServeError::Corrupt(format!("rebased laplacian: {e}")))
}

/// Purges every tombstone from a sharded layout in place.
///
/// Only *dirty* shards — those carrying tombstones or left stale by an
/// earlier compaction/append — are rewritten; clean shard files stay
/// byte-identical and are re-pointed through the persisted [`IdMap`]
/// sidecar (their manifest entries gain file coordinates). When the
/// layout predates the current artifact format (v4 or earlier), every
/// shard counts as dirty: compaction doubles as the v5 migration and
/// never commits a manifest that claims the current format while
/// pointing at legacy files. A shard
/// whose rows are all tombstoned is dropped from the manifest. All
/// writes go through `writer` and commit with one atomic rename of the
/// manifest; IVF sidecars (now covering wrong rows) are unlinked
/// best-effort after the commit.
///
/// # Errors
/// [`ServeError::Corrupt`] for a layout that fails verification,
/// [`ServeError::InvalidArgument`] if compaction would leave fewer
/// than 3 rows, I/O errors from `writer`.
pub fn compact_sharded(path: &Path, writer: &mut dyn LayoutWriter) -> Result<CompactionStats> {
    let mut span = mvag_obs::span("compact.sharded");
    let guard = telemetry::RunGuard::start();
    let out = compact_sharded_inner(path, writer);
    guard.observe(out.is_ok());
    if let Ok(stats) = &out {
        record_compaction(stats);
        span.counter("purged", stats.purged as u64);
        span.counter("shards_rewritten", stats.shards_rewritten as u64);
        span.counter("bytes_written", stats.bytes_written);
    }
    out
}

/// Folds one compaction's stats into the process-wide counters.
fn record_compaction(stats: &CompactionStats) {
    use std::sync::atomic::Ordering::Relaxed;
    telemetry::TOMBSTONES_PURGED.fetch_add(stats.purged as u64, Relaxed);
    telemetry::SHARDS_REWRITTEN.fetch_add(stats.shards_rewritten as u64, Relaxed);
    telemetry::BYTES_WRITTEN.fetch_add(stats.bytes_written, Relaxed);
    telemetry::DIRTY_BYTES.fetch_add(stats.dirty_bytes_before, Relaxed);
}

fn compact_sharded_inner(path: &Path, writer: &mut dyn LayoutWriter) -> Result<CompactionStats> {
    let (manifest, dir) = open_layout(path)?;
    let old_id_map = load_layout_id_map(&dir, &manifest)?;
    // A pre-v5 layout makes *every* shard dirty: compaction is the
    // migration path, and a committed manifest claiming the current
    // format must never point at legacy shard files (the mapped open
    // would quietly fall back to owned on them).
    let migrating = manifest.artifact_format_version < FORMAT_VERSION;
    let dirty: Vec<usize> = manifest
        .shards
        .iter()
        .enumerate()
        .filter(|(_, e)| migrating || e.tombstones > 0 || e.is_stale())
        .map(|(i, _)| i)
        .collect();
    if dirty.is_empty() {
        return Ok(CompactionStats::default());
    }
    let mut loaded: Vec<Option<Artifact>> = (0..manifest.shards.len()).map(|_| None).collect();
    for &i in &dirty {
        loaded[i] = Some(read_shard(&dir, &manifest, i, old_id_map.as_ref())?);
    }
    // The union of tombstones across dirty shards drives the id shift.
    // (Clean shards have none: `entry.tombstones > 0` makes a shard
    // dirty.)
    let mut purged: Vec<usize> = loaded
        .iter()
        .flatten()
        .flat_map(|a| a.tombstones.iter().copied())
        .collect();
    purged.sort_unstable();
    purged.dedup();
    let id_map = IdMap::new(manifest.n, purged)
        .map_err(|e| ServeError::Corrupt(format!("layout tombstones: {e}")))?;
    check_trainable(id_map.new_n)?;
    let purged_below = |row: usize| id_map.purged.partition_point(|&p| p < row);

    let mut stats = CompactionStats {
        purged: id_map.purged.len(),
        ..CompactionStats::default()
    };
    let mut plan: Vec<Shard> = Vec::with_capacity(manifest.shards.len());
    for (i, entry) in manifest.shards.iter().enumerate() {
        let Some(a) = loaded[i].take() else {
            // Clean shard: the file stays byte-identical; when ids
            // shifted, the entry is re-pointed through the id map.
            stats.shards_kept += 1;
            let mut e = entry.clone();
            if !id_map.purged.is_empty() {
                e.row_start = entry.row_start - purged_below(entry.row_start);
                e.row_end = entry.row_end - purged_below(entry.row_end);
                e.file_row_start = Some(entry.row_start);
                e.file_row_end = Some(entry.row_end);
                e.file_n = Some(manifest.n);
            }
            plan.push(Shard::Keep(e));
            continue;
        };
        stats.dirty_bytes_before += entry.bytes;
        let live_global: Vec<usize> = (entry.row_start..entry.row_end)
            .filter(|&g| id_map.map(g).is_some())
            .collect();
        let Some(&first_live) = live_global.first() else {
            stats.shards_dropped += 1;
            plan.push(Shard::Dropped);
            continue;
        };
        let new_start = id_map.map(first_live).expect("first_live is live");
        let local: Vec<usize> = live_global.iter().map(|&g| g - entry.row_start).collect();
        let mut labels = Vec::with_capacity(local.len());
        let mut embedding = DenseMatrix::zeros(local.len(), manifest.dim);
        for (new, &old) in local.iter().enumerate() {
            labels.push(a.labels[old]);
            embedding.row_mut(new).copy_from_slice(a.embedding.row(old));
        }
        let laplacian = compact_csr(&a.laplacian, &local, &id_map)?;
        let shard = Artifact {
            meta: ArtifactMeta {
                dataset: manifest.dataset.clone(),
                n: id_map.new_n,
                k: manifest.k,
                dim: manifest.dim,
                seed: a.meta.seed,
                row_start: new_start,
                row_end: new_start + local.len(),
                parent_seed: a.meta.parent_seed,
                update_count: manifest.update_count,
                compaction_count: manifest.compaction_count + 1,
            },
            weights: a.weights,
            laplacian,
            labels,
            centroids: a.centroids,
            embedding,
            tombstones: Vec::new(),
        };
        shard.validate()?;
        stats.shards_rewritten += 1;
        plan.push(Shard::Write(Box::new(shard)));
    }

    // The id-map sidecar is only needed while some entry still points
    // at a shifted file.
    let shifted = plan
        .iter()
        .any(|s| matches!(s, Shard::Keep(e) if e.file_row_start.is_some()));
    let header = ShardManifest {
        n: id_map.new_n,
        artifact_format_version: FORMAT_VERSION,
        compaction_count: manifest.compaction_count + 1,
        id_map: None,
        ..manifest.clone()
    };
    let plan = plan.into_iter().map(Ok);
    let (_, bytes) = commit_layout(
        &dir,
        Some(&manifest),
        header,
        plan,
        shifted.then_some(&id_map),
        writer,
    )?;
    stats.bytes_written = bytes;
    if !id_map.purged.is_empty() || stats.shards_dropped > 0 {
        // Every IVF sidecar indexes pre-compaction rows now.
        for i in 0..manifest.shards.len() {
            let _ = writer.remove_file(&dir.join(Artifact::shard_index_file_name(i)));
        }
    }
    Ok(stats)
}

/// Routes a pure-append delta to a sharded layout's tail shard:
/// exactly one shard file is rewritten (under a fresh generational
/// name) and the manifest committed with an atomic rename; every other
/// shard file stays byte-identical, its entry merely gaining a
/// `file_n` so the router grows its Laplacian column space at load.
///
/// The base is *frozen*: appended rows get serving state estimated
/// from what is resident — the label is the weight-majority vote of
/// their delta-edge neighbors inside the tail shard (or the delta's
/// own `added_labels` when present), the embedding row the weighted
/// mean of those neighbors' rows, falling back to the assigned label's
/// centroid; Laplacian rows are identity placeholders. A later full
/// `sgla-serve update` retrain folds the appended rows in exactly.
///
/// # Errors
/// [`ServeError::InvalidArgument`] for deltas that are not pure
/// appends, reference out-of-range or tombstoned-in-tail endpoints, or
/// append nothing; [`ServeError::Corrupt`] for broken layouts.
pub fn append_sharded(
    path: &Path,
    delta: &MvagDelta,
    writer: &mut dyn LayoutWriter,
) -> Result<AppendStats> {
    use std::sync::atomic::Ordering::Relaxed;
    let mut span = mvag_obs::span("compact.append");
    let guard = telemetry::RunGuard::start();
    let out = append_sharded_inner(path, delta, writer);
    guard.observe(out.is_ok());
    if let Ok(stats) = &out {
        telemetry::APPENDS.fetch_add(1, Relaxed);
        telemetry::APPENDED_NODES.fetch_add(stats.added as u64, Relaxed);
        telemetry::BYTES_WRITTEN.fetch_add(stats.bytes_written, Relaxed);
        span.counter("added", stats.added as u64);
        span.counter("bytes_written", stats.bytes_written);
    }
    out
}

fn append_sharded_inner(
    path: &Path,
    delta: &MvagDelta,
    writer: &mut dyn LayoutWriter,
) -> Result<AppendStats> {
    let (manifest, dir) = open_layout(path)?;
    require_current("layout manifest", manifest.artifact_format_version)?;
    if !delta.is_append_only() {
        return Err(ServeError::InvalidArgument(
            "in-place sharded append handles pure appends only; removals and edits go through \
             a full `sgla-serve update` of the monolithic artifact"
                .into(),
        ));
    }
    let added = delta.added_nodes;
    if added == 0 {
        return Err(ServeError::InvalidArgument(
            "delta appends no nodes; nothing to do".into(),
        ));
    }
    let n_old = manifest.n;
    let n_new = n_old + added;
    for view in &delta.views {
        match view {
            ViewDelta::Edges(edges) => {
                if let Some(&(u, v, _)) = edges.iter().find(|&&(u, v, _)| u >= n_new || v >= n_new)
                {
                    return Err(ServeError::InvalidArgument(format!(
                        "delta edge ({u}, {v}) references a node >= {n_new}"
                    )));
                }
            }
            ViewDelta::Rows(rows) => {
                if rows.nrows() != 0 && rows.nrows() != added {
                    return Err(ServeError::InvalidArgument(format!(
                        "delta attribute view has {} rows for {added} appended nodes",
                        rows.nrows()
                    )));
                }
            }
        }
    }
    if let Some(labels) = &delta.added_labels {
        if labels.len() != added {
            return Err(ServeError::InvalidArgument(format!(
                "delta carries {} labels for {added} appended nodes",
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= manifest.k) {
            return Err(ServeError::InvalidArgument(format!(
                "appended label {bad} >= k = {}",
                manifest.k
            )));
        }
    }
    let id_map = load_layout_id_map(&dir, &manifest)?;
    let tail = manifest.shards.len() - 1;
    let a = read_shard_with_norms(&dir, &manifest, tail, id_map.as_ref())?.0;
    let tail_start = a.meta.row_start;
    // Tombstoned tail rows must not gain edges (matching the
    // artifact-level conflict rule); tombstones in non-resident shards
    // cannot be checked without loading them and are left to the next
    // full update.
    for view in &delta.views {
        if let ViewDelta::Edges(edges) = view {
            if let Some(&(u, v, _)) = edges
                .iter()
                .find(|&&(u, v, _)| a.is_tombstoned(u) || a.is_tombstoned(v))
            {
                return Err(ServeError::InvalidArgument(format!(
                    "delta edge ({u}, {v}) touches a tombstoned row"
                )));
            }
        }
    }

    // Frozen-base estimates for the appended rows, from neighbors
    // resident in the tail shard (or appended earlier in this delta).
    let dim = manifest.dim;
    let fallback_label = most_frequent_live_label(&a);
    let mut labels_new: Vec<usize> = Vec::with_capacity(added);
    let mut rows_new = DenseMatrix::zeros(added, dim);
    for j in 0..added {
        let g = n_old + j;
        let mut label_weight = vec![0.0f64; manifest.k];
        let mut row = vec![0.0f64; dim];
        let mut weight_sum = 0.0f64;
        let mut visit = |other: usize, w: f64| {
            let w = w.abs().max(f64::MIN_POSITIVE);
            let (label, emb): (usize, &[f64]) = if other >= n_old {
                let i = other - n_old;
                (labels_new[i], rows_new.row(i))
            } else if other >= tail_start && other < a.meta.row_end && !a.is_tombstoned(other) {
                (
                    a.labels[other - tail_start],
                    a.embedding.row(other - tail_start),
                )
            } else {
                return; // frozen base outside the tail shard
            };
            label_weight[label] += w;
            weight_sum += w;
            for (acc, &x) in row.iter_mut().zip(emb) {
                *acc += w * x;
            }
        };
        for view in &delta.views {
            if let ViewDelta::Edges(edges) = view {
                for &(u, v, w) in edges {
                    if u == g && v < g {
                        visit(v, w);
                    } else if v == g && u < g {
                        visit(u, w);
                    }
                }
            }
        }
        let label = match &delta.added_labels {
            Some(labels) => labels[j],
            None => label_weight
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .max_by(|(_, x), (_, y)| x.total_cmp(y))
                .map(|(l, _)| l)
                .unwrap_or(fallback_label),
        };
        labels_new.push(label);
        if weight_sum > 0.0 {
            for x in &mut row {
                *x /= weight_sum;
            }
        } else {
            row.copy_from_slice(a.centroids.row(label));
        }
        rows_new.row_mut(j).copy_from_slice(&row);
    }

    // The new tail: old rows verbatim (column space grown), appended
    // rows with identity Laplacian placeholders.
    let mut labels = a.labels.clone();
    labels.extend_from_slice(&labels_new);
    let old_rows = a.meta.rows();
    let mut embedding = DenseMatrix::zeros(old_rows + added, dim);
    for r in 0..old_rows {
        embedding.row_mut(r).copy_from_slice(a.embedding.row(r));
    }
    for j in 0..added {
        embedding
            .row_mut(old_rows + j)
            .copy_from_slice(rows_new.row(j));
    }
    let grown = grow_csr_columns(&a.laplacian, n_new)?;
    let mut indptr = grown.indptr().to_vec();
    let mut cols = grown.column_indices().to_vec();
    let mut vals = grown.values().to_vec();
    for j in 0..added {
        cols.push(n_old + j);
        vals.push(1.0);
        indptr.push(cols.len());
    }
    let laplacian = CsrMatrix::from_raw_parts(old_rows + added, n_new, indptr, cols, vals)
        .map_err(|e| ServeError::Corrupt(format!("appended laplacian: {e}")))?;
    let shard = Artifact {
        meta: ArtifactMeta {
            dataset: manifest.dataset.clone(),
            n: n_new,
            k: manifest.k,
            dim,
            seed: a.meta.seed,
            row_start: tail_start,
            row_end: a.meta.row_end + added,
            parent_seed: a.meta.parent_seed,
            update_count: manifest.update_count + 1,
            compaction_count: manifest.compaction_count,
        },
        weights: a.weights.clone(),
        laplacian,
        labels,
        centroids: a.centroids.clone(),
        embedding,
        tombstones: a.tombstones.clone(),
    };
    shard.validate()?;
    // Untouched files keep their ids under append; they just predate
    // the new `n` now.
    let mut plan: Vec<Shard> = manifest.shards[..tail]
        .iter()
        .map(|entry| {
            let mut e = entry.clone();
            e.file_n = Some(e.file_n.unwrap_or(n_old));
            Shard::Keep(e)
        })
        .collect();
    plan.push(Shard::Write(Box::new(shard)));
    let header = ShardManifest {
        n: n_new,
        artifact_format_version: FORMAT_VERSION,
        update_count: manifest.update_count + 1,
        ..manifest.clone()
    };
    let plan = plan.into_iter().map(Ok);
    let (_, bytes_written) = commit_layout(&dir, Some(&manifest), header, plan, None, writer)?;
    // Every IVF sidecar was trained for the old `n`; none survives.
    for i in 0..manifest.shards.len() {
        let _ = writer.remove_file(&dir.join(Artifact::shard_index_file_name(i)));
    }
    Ok(AppendStats {
        added,
        tail_shard: tail,
        shards_kept: tail,
        bytes_written,
    })
}

/// Purges a monolithic artifact's tombstones in place (or to `out`):
/// the compacted artifact is written to a temp file and committed with
/// one atomic rename. A file in an older format (v4 or earlier) is
/// rewritten as v5 even without tombstones — compaction is the
/// migration. An IVF sidecar of `out` is rebuilt or removed by
/// [`publish`]'s rule, so a stale one never survives.
///
/// # Errors
/// Same as [`Artifact::compact`], plus I/O errors from `writer`.
pub fn compact_monolithic(
    path: &Path,
    out: &Path,
    writer: &mut dyn LayoutWriter,
) -> Result<CompactionStats> {
    let mut span = mvag_obs::span("compact.monolithic");
    let guard = telemetry::RunGuard::start();
    let result = compact_monolithic_inner(path, out, writer);
    guard.observe(result.is_ok());
    if let Ok(stats) = &result {
        record_compaction(stats);
        span.counter("purged", stats.purged as u64);
        span.counter("bytes_written", stats.bytes_written);
    }
    result
}

fn compact_monolithic_inner(
    path: &Path,
    out: &Path,
    writer: &mut dyn LayoutWriter,
) -> Result<CompactionStats> {
    let raw = std::fs::read(path)?;
    let before = raw.len() as u64;
    let migrating =
        mvag_data::codec::seal_version(&raw, MAGIC, "artifact").is_ok_and(|v| v < FORMAT_VERSION);
    let artifact = legacy::decode(Bytes::from(raw))?;
    let (compacted, purged) = if artifact.tombstone_count() > 0 {
        let (compacted, id_map) = artifact.compact()?;
        (compacted, id_map.purged.len())
    } else if migrating {
        (artifact, 0)
    } else {
        return Ok(CompactionStats::default());
    };
    let published = publish(&compacted, out, 1, None, writer)?;
    Ok(CompactionStats {
        purged,
        shards_rewritten: 1,
        bytes_written: published.bytes,
        dirty_bytes_before: before,
        ..CompactionStats::default()
    })
}

/// The most frequent label among a shard's live rows (smallest label
/// on ties); 0 for a shard with no live rows.
fn most_frequent_live_label(a: &Artifact) -> usize {
    let mut counts = vec![0usize; a.meta.k];
    for (local, &label) in a.labels.iter().enumerate() {
        if !a.is_tombstoned(a.meta.row_start + local) {
            counts[label] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .max_by(|(i, x), (j, y)| x.cmp(y).then(j.cmp(i)))
        .map(|(l, _)| l)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TrainConfig;
    use crate::backend::QueryBackend;
    use crate::engine::{EngineConfig, QueryEngine};
    use crate::router::{RouterConfig, ShardRouter};
    use mvag_data::FsWriter;
    use std::sync::Arc;

    fn trained(n: usize, seed: u64) -> Artifact {
        let mvag = mvag_graph::toy::toy_mvag(n, 3, seed);
        let mut config = TrainConfig::default();
        config.embed.dim = 6;
        Artifact::train(&mvag, &config).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgla-compact-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn with_tombstones(mut artifact: Artifact, dead: &[usize]) -> Artifact {
        artifact.tombstones = dead.to_vec();
        artifact
    }

    #[test]
    fn compaction_rewrites_only_dirty_shards() {
        let artifact = with_tombstones(trained(60, 7), &[2, 5, 9]);
        let dir = temp_dir("dirty");
        artifact.save_sharded(&dir, 4).unwrap();
        let before: Vec<(String, u32)> = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE))
            .unwrap()
            .shards
            .iter()
            .map(|e| (e.file.clone(), e.crc32))
            .collect();
        let stats = compact_sharded(&dir, &mut FsWriter).unwrap();
        // All three tombstones land in shard 0 (rows 0..15).
        assert_eq!(stats.purged, 3);
        assert_eq!(stats.shards_rewritten, 1);
        assert_eq!(stats.shards_kept, 3);
        assert!(stats.bytes_written <= 2 * stats.dirty_bytes_before);
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.n, 57);
        assert_eq!(manifest.compaction_count, 1);
        assert!(manifest.id_map.is_some());
        // Kept shard files are byte-identical and re-pointed.
        for (entry, (file, crc)) in manifest.shards.iter().zip(&before).skip(1) {
            assert_eq!(&entry.file, file);
            assert_eq!(entry.crc32, *crc);
            assert!(entry.is_stale());
            let raw = std::fs::read(dir.join(&entry.file)).unwrap();
            assert_eq!(crc32(&raw), *crc);
        }
        // The compacted layout still loads and answers.
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        assert_eq!(crate::backend::QueryBackend::meta(&router).n, 57);
        router.cluster_of(0).unwrap();
        router.top_k_similar(30, 5).unwrap();
        // A second compaction normalizes the stale entries, then a
        // third is a no-op.
        let again = compact_sharded(&dir, &mut FsWriter).unwrap();
        assert_eq!(again.purged, 0);
        assert_eq!(again.shards_rewritten, 3);
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert!(manifest.shards.iter().all(|e| !e.is_stale()));
        assert!(manifest.id_map.is_none());
        assert!(compact_sharded(&dir, &mut FsWriter).unwrap().is_noop());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_tombstoned_shard_is_dropped() {
        let artifact = trained(40, 11);
        let dir = temp_dir("drop");
        let manifest = artifact.save_sharded(&dir, 4).unwrap();
        // Tombstone every row of shard 2.
        let dead: Vec<usize> = (manifest.shards[2].row_start..manifest.shards[2].row_end).collect();
        let mut full = artifact;
        full.tombstones = dead.clone();
        full.save_sharded(&dir, 4).unwrap();
        let stats = compact_sharded(&dir, &mut FsWriter).unwrap();
        assert_eq!(stats.purged, dead.len());
        assert_eq!(stats.shards_dropped, 1);
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.n, 40 - dead.len());
        ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_rewrites_exactly_one_shard() {
        let artifact = trained(48, 3);
        let dir = temp_dir("append");
        artifact.save_sharded(&dir, 3).unwrap();
        let before = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        let delta = MvagDelta::append(
            2,
            vec![
                ViewDelta::Edges(vec![(48, 40, 1.0), (49, 47, 2.0), (49, 48, 1.0)]),
                ViewDelta::Rows(DenseMatrix::zeros(2, 4)),
            ],
            None,
        );
        let stats = append_sharded(&dir, &delta, &mut FsWriter).unwrap();
        assert_eq!(stats.added, 2);
        assert_eq!(stats.tail_shard, 2);
        assert_eq!(stats.shards_kept, 2);
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.n, 50);
        assert_eq!(manifest.update_count, before.update_count + 1);
        // Untouched shard files are byte-identical (CRC and bytes).
        for (old, new) in before.shards.iter().zip(&manifest.shards).take(2) {
            assert_eq!(old.file, new.file);
            assert_eq!(old.crc32, new.crc32);
            assert_eq!(new.file_n, Some(48));
            let raw = std::fs::read(dir.join(&new.file)).unwrap();
            assert_eq!(crc32(&raw), old.crc32);
        }
        // The old tail file is gone, the new one is generational.
        assert!(!dir.join(&before.shards[2].file).exists());
        assert!(manifest.shards[2].file.contains(".g"));
        // The grown layout loads and serves the appended rows.
        let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        assert_eq!(crate::backend::QueryBackend::meta(&router).n, 50);
        let info = router.cluster_of(49).unwrap();
        assert!(info.cluster < 3);
        router.top_k_similar(49, 5).unwrap();
        router.embed_batch(&[0, 20, 48, 49]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_rejects_bad_deltas() {
        let artifact = trained(30, 5);
        let dir = temp_dir("append-bad");
        artifact.save_sharded(&dir, 2).unwrap();
        let edits = MvagDelta {
            added_nodes: 1,
            views: vec![ViewDelta::Edges(vec![])],
            added_labels: None,
            removed_nodes: vec![3],
            edits: vec![],
        };
        assert!(matches!(
            append_sharded(&dir, &edits, &mut FsWriter),
            Err(ServeError::InvalidArgument(_))
        ));
        let out_of_range = MvagDelta::append(1, vec![ViewDelta::Edges(vec![(30, 99, 1.0)])], None);
        assert!(append_sharded(&dir, &out_of_range, &mut FsWriter).is_err());
        let empty = MvagDelta::append(0, vec![], None);
        assert!(append_sharded(&dir, &empty, &mut FsWriter).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monolithic_compaction_is_atomic_and_queryable() {
        let artifact = with_tombstones(trained(40, 9), &[0, 17, 39]);
        let dir = temp_dir("mono");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.sgla");
        artifact.save(&path).unwrap();
        let stats = compact_monolithic(&path, &path, &mut FsWriter).unwrap();
        assert_eq!(stats.purged, 3);
        let compacted = Artifact::load(&path).unwrap();
        assert_eq!(compacted.meta.n, 37);
        assert_eq!(compacted.meta.compaction_count, 1);
        assert!(compacted.tombstones.is_empty());
        QueryEngine::new(compacted, EngineConfig::default()).unwrap();
        // Already compact: no-op.
        assert!(compact_monolithic(&path, &path, &mut FsWriter)
            .unwrap()
            .is_noop());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Asserts `result` is the typed refusal of a v`version` input that
    /// names `sgla-serve compact`.
    fn assert_refused<T: std::fmt::Debug>(result: Result<T>, version: u16) {
        let err = result.unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, ServeError::OldFormat { version: v, .. } if v == version),
            "v{version}: {msg}"
        );
        assert!(
            msg.contains(&format!("format v{version}")) && msg.contains("sgla-serve compact"),
            "v{version}: {msg}"
        );
    }

    /// Serving refuses every pre-v5 file with the migration hint, and
    /// compaction rewrites it as v5 even with nothing to purge: the
    /// result serves and decodes equal to the legacy decode.
    #[test]
    fn clean_pre_v5_files_are_refused_then_migrated() {
        let artifact = trained(30, 4);
        let dir = temp_dir("migrate-file");
        std::fs::create_dir_all(&dir).unwrap();
        for version in 1..FORMAT_VERSION {
            let path = dir.join(format!("v{version}.sgla"));
            let encoded = legacy::encode(&artifact, version).unwrap();
            std::fs::write(&path, encoded.as_ref()).unwrap();
            assert_refused(Artifact::load(&path), version);
            assert_refused(ShardRouter::open(&path, RouterConfig::default()), version);

            let stats = compact_monolithic(&path, &path, &mut FsWriter).unwrap();
            assert!(!stats.is_noop(), "v{version}");
            assert_eq!((stats.purged, stats.shards_rewritten), (0, 1));
            let raw = std::fs::read(&path).unwrap();
            assert_eq!(raw[4..6], FORMAT_VERSION.to_be_bytes(), "v{version}");
            assert_eq!(
                Artifact::load(&path).unwrap(),
                legacy::decode(encoded).unwrap()
            );
            ShardRouter::open(&path, RouterConfig::default()).unwrap();
            assert!(compact_monolithic(&path, &path, &mut FsWriter)
                .unwrap()
                .is_noop());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A layout whose manifest names a pre-v5 format is refused (and so
    /// is an in-place append to it); compaction migrates it.
    #[test]
    fn pre_v5_layouts_are_refused_then_migrated() {
        let artifact = trained(30, 6);
        for version in 1..FORMAT_VERSION {
            let dir = temp_dir(&format!("migrate-layout-v{version}"));
            let mut manifest = artifact.save_sharded(&dir, 2).unwrap();
            if version == legacy::FORMAT_VERSION_V1 {
                // v1 holds only full artifacts: a one-shard layout.
                std::fs::remove_dir_all(&dir).ok();
                manifest = artifact.save_sharded(&dir, 1).unwrap();
            }
            for entry in &mut manifest.shards {
                let shard = artifact.shard(entry.row_start, entry.row_end).unwrap();
                let encoded = legacy::encode(&shard, version).unwrap();
                std::fs::write(dir.join(&entry.file), encoded.as_ref()).unwrap();
                entry.bytes = encoded.len() as u64;
                entry.crc32 = crc32(encoded.as_ref());
            }
            manifest.artifact_format_version = version;
            manifest.save(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
            assert_refused(ShardRouter::open(&dir, RouterConfig::default()), version);
            let delta = MvagDelta::append(1, vec![ViewDelta::Edges(vec![(30, 0, 1.0)])], None);
            assert_refused(append_sharded(&dir, &delta, &mut FsWriter), version);

            let stats = compact_sharded(&dir, &mut FsWriter).unwrap();
            assert_eq!(stats.shards_rewritten, manifest.shards.len(), "v{version}");
            let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
            let reference = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
            assert_eq!(
                router.top_k_similar(3, 5).unwrap(),
                reference.top_k_similar(3, 5).unwrap(),
                "v{version}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// `POST /reload` onto a pre-v5 file fails with the hint (503, the
    /// old artifact keeps serving) and succeeds once it is compacted.
    #[test]
    fn reload_refuses_pre_v5_files_until_compacted() {
        use crate::http::{BackendLoader, Server, ServerConfig};
        use mvag_data::json::Value;
        let artifact = trained(30, 8);
        let dir = temp_dir("migrate-reload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.sgla");
        artifact.save(&path).unwrap();
        let loader_path = path.clone();
        let loader: BackendLoader = Box::new(move || {
            Ok(
                Arc::new(ShardRouter::open(&loader_path, RouterConfig::default())?)
                    as Arc<dyn QueryBackend>,
            )
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::start_reloadable(loader, &config).unwrap();
        let mut client = crate::HttpClient::connect(server.local_addr()).unwrap();
        for version in 1..FORMAT_VERSION {
            let encoded = legacy::encode(&artifact, version).unwrap();
            std::fs::write(&path, encoded.as_ref()).unwrap();
            let failed = client.post("/reload", &Value::object(vec![])).unwrap();
            assert_eq!(failed.status, 503, "v{version}");
            let msg = failed.body.get("error").unwrap().as_str().unwrap();
            assert!(
                msg.contains(&format!("format v{version}")) && msg.contains("sgla-serve compact"),
                "v{version}: {msg}"
            );
            assert_eq!(client.get("/cluster/3").unwrap().status, 200);
            compact_monolithic(&path, &path, &mut FsWriter).unwrap();
            let reloaded = client.post("/reload", &Value::object(vec![])).unwrap();
            assert_eq!(reloaded.status, 200, "v{version}");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
