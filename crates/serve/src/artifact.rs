//! The trained-artifact store: versioned, checksummed binary
//! persistence for everything SGLA learns about one MVAG.
//!
//! An [`Artifact`] bundles the learned view weights `w*`, the
//! integrated Laplacian in CSR form, the cluster assignment and
//! per-cluster centroids, and the node embedding matrix — the complete
//! state the query engine needs, so serving never re-touches the
//! training pipeline. The body travels in the workspace's sealed
//! container ([`mvag_data::codec::seal`]: magic, format version, body
//! length, CRC-32 of the body), and every read is bounds-checked so
//! hostile or truncated input surfaces as a typed
//! [`ServeError::Corrupt`], never a panic or huge allocation.
//!
//! The format is **v5** (see `docs/ARCHITECTURE.md` for the
//! byte-level specification): a head (meta, lineage, compaction
//! counter, tombstones, view weights) followed by a section table;
//! each section starts at a 64-byte-aligned file offset with its own
//! CRC-32, per-row embedding norms are precomputed into their own
//! section, and the norms/embedding sections are raw little-endian
//! `f64`s — so [`crate::store::EmbeddingStore`] can serve rows
//! zero-copy straight out of a memory map.
//!
//! An artifact covers a global row range: a *full* artifact covers
//! `0..n`; a *shard* produced by [`Artifact::shard`] covers a slice of
//! the rows (labels, embedding rows and Laplacian rows restricted to
//! the range, view weights and centroids carried whole).
//! [`Artifact::save_sharded`] writes a directory of shard files plus a
//! [`ShardManifest`] that a [`ShardRouter`](crate::router::ShardRouter)
//! serves without holding the whole embedding in memory.
//!
//! Serving reads v5 only. Files in the older flat formats (v1–v4) are
//! refused with a hint to run `sgla-serve compact`, whose reader
//! (`compact::legacy`) is the one place they still decode.

use crate::{Result, ServeError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mvag_data::codec::{
    align_up, f64s_from_le, get_f64s, get_u32s, get_u64s, put_f64s_le, put_str, seal, seal_version,
    unseal, SEAL_HEADER_LEN, SECTION_ALIGN,
};
use mvag_data::manifest::ShardManifest;
use mvag_data::{FsWriter, LayoutWriter};
use mvag_graph::{Mvag, MvagDelta};
use mvag_sparse::{vecops, CsrMatrix, DenseMatrix};
use sgla_core::clustering::{label_indicator_init, spectral_clustering_with, SpectralParams};
use sgla_core::embedding::{embed, embed_warm, EmbedParams};
use sgla_core::sgla::SglaParams;
use sgla_core::sgla_plus::SglaPlus;
use sgla_core::views::{KnnParams, ViewLaplacians};
use std::fs;
use std::path::Path;

/// `"SGLA"` in ASCII.
pub(crate) const MAGIC: u32 = 0x5347_4C41;
/// The format every encoder writes and serving reads: a section table
/// of alignment-padded sections. The per-row embedding norms are
/// precomputed at save time into their own section, and the norms and
/// embedding sections are raw little-endian `f64`s starting at
/// 64-byte-aligned file offsets — so a mapped file can lend out
/// `&[f64]` rows without copying or byte-swapping.
pub const FORMAT_VERSION: u16 = 5;

/// v5 section ids, in file order.
const SECTION_LAPLACIAN: u32 = 1;
const SECTION_LABELS: u32 = 2;
const SECTION_CENTROIDS: u32 = 3;
const SECTION_NORMS: u32 = 4;
const SECTION_EMBEDDING: u32 = 5;
/// Number of sections in a v5 artifact.
const SECTION_COUNT: usize = 5;
/// Bytes per section-table entry: id (4) + reserved (4) + offset (8) +
/// length (8) + CRC-32 (4) + reserved (4).
const SECTION_ENTRY_LEN: usize = 32;

/// One entry of the v5 section table: where a section's payload lives
/// in the file, its exact length, and a standalone CRC-32 — so a
/// mapped reader can verify small sections eagerly without faulting
/// the pages of the big ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactSection {
    /// Section id (1 = laplacian, 2 = labels, 3 = centroids,
    /// 4 = norms, 5 = embedding).
    pub id: u32,
    /// Absolute file offset of the payload; always a multiple of
    /// [`mvag_data::codec::SECTION_ALIGN`].
    pub offset: usize,
    /// Payload length in bytes (inter-section padding excluded).
    pub len: usize,
    /// CRC-32 of the payload bytes alone.
    pub crc32: u32,
}

impl ArtifactSection {
    /// Human-readable section name.
    pub fn name(&self) -> &'static str {
        match self.id {
            SECTION_LAPLACIAN => "laplacian",
            SECTION_LABELS => "labels",
            SECTION_CENTROIDS => "centroids",
            SECTION_NORMS => "norms",
            SECTION_EMBEDDING => "embedding",
            _ => "unknown",
        }
    }
}

/// Codec-level facts about an artifact file, read without decoding
/// the payload (see [`Artifact::read_file_info`]).
#[derive(Debug, Clone)]
pub struct ArtifactFileInfo {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Node count `n` from the head.
    pub n: usize,
    /// Number of tombstoned rows from the head.
    pub tombstones: usize,
    /// The section table.
    pub sections: Vec<ArtifactSection>,
}

/// The parsed v5 head: everything before the first aligned section
/// (meta, weights, tombstones, section table). Shared by the owned
/// decoder and the mapped open path in [`crate::store`].
#[derive(Debug, Clone)]
pub(crate) struct V5Head {
    pub meta: ArtifactMeta,
    pub weights: Vec<f64>,
    pub tombstones: Vec<usize>,
    pub sections: [ArtifactSection; SECTION_COUNT],
    /// CRC-32 the file claims for the head bytes (`[SEAL_HEADER_LEN`,
    /// `head_end - 4)`); the owned path relies on the whole-body CRC
    /// instead, the mapped path verifies this one.
    pub head_crc: u32,
    /// Absolute offset one past the head (including the head CRC).
    pub head_end: usize,
}

/// Descriptive header of a trained artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Name of the dataset the artifact was trained on.
    pub dataset: String,
    /// Node count `n` of the *whole* graph (not just this shard).
    pub n: usize,
    /// Cluster count `k`.
    pub k: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Seed the training run used (for provenance).
    pub seed: u64,
    /// First global row covered by this artifact, inclusive. A full
    /// artifact has `row_start == 0`.
    pub row_start: usize,
    /// One past the last global row covered. A full artifact has
    /// `row_end == n`.
    pub row_end: usize,
    /// Update lineage: the seed of the *root* training run this
    /// artifact descends from. A freshly trained artifact has
    /// `parent_seed == seed`; [`Artifact::update`] carries it through,
    /// so any artifact can be traced back to the cold-start run that
    /// anchored its chain.
    pub parent_seed: u64,
    /// Number of incremental updates applied since the root training
    /// run (`0` for a fresh artifact).
    pub update_count: u64,
    /// Number of compactions (tombstone purges) this artifact has been
    /// through since the root training run. Bumped by
    /// [`Artifact::compact`]; `parent_seed` is preserved, so the
    /// lineage chain survives re-basing.
    pub compaction_count: u64,
}

impl ArtifactMeta {
    /// Rows this artifact actually holds (`row_end - row_start`).
    pub fn rows(&self) -> usize {
        self.row_end.saturating_sub(self.row_start)
    }

    /// Whether this artifact covers the whole graph (`0..n`).
    pub fn is_full(&self) -> bool {
        self.row_start == 0 && self.row_end == self.n
    }
}

/// Everything SGLA learned about one MVAG, ready to serve.
///
/// Per-node state (labels, embedding rows, Laplacian rows) covers the
/// meta's `[row_start, row_end)` global row range; global state (view
/// weights, centroids) is always complete. A freshly trained artifact
/// is *full* (covers `0..n`); [`Artifact::shard`] slices out row
/// ranges for the sharded layout.
///
/// ```
/// use sgla_serve::{Artifact, TrainConfig};
///
/// let mvag = mvag_data::toy_mvag(40, 2, 7);
/// let mut config = TrainConfig::default();
/// config.embed.dim = 4;
/// let artifact = Artifact::train(&mvag, &config).unwrap();
/// assert!(artifact.meta.is_full());
///
/// // The binary codec round-trips bit-exactly.
/// let back = Artifact::decode(artifact.encode().unwrap()).unwrap();
/// assert_eq!(artifact, back);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Descriptive header.
    pub meta: ArtifactMeta,
    /// Learned view weights `w*` on the probability simplex.
    pub weights: Vec<f64>,
    /// Integrated Laplacian `L = Σ wᵢ* Lᵢ` (CSR); rows restricted to
    /// the meta's row range (`rows × n`).
    pub laplacian: CsrMatrix,
    /// Cluster label per node in the row range, in `0..k`.
    pub labels: Vec<usize>,
    /// Per-cluster centroids in embedding space (`k × dim`).
    pub centroids: DenseMatrix,
    /// Embedding rows for the row range (`rows × dim`).
    pub embedding: DenseMatrix,
    /// Tombstoned rows: sorted global node ids inside
    /// `[row_start, row_end)` that have been deleted but not yet
    /// purged by a compaction. Their label/embedding rows are dead
    /// weight — queries answer `NotFound` for them and they are
    /// excluded from centroid math — but keeping the rows in place
    /// preserves every surviving node's id until compaction rewrites
    /// the artifact.
    pub tombstones: Vec<usize>,
}

/// Everything [`Artifact::update`] produces: the refreshed artifact
/// plus the state a caller needs to chain further updates (the updated
/// MVAG and its per-view Laplacians).
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The updated artifact (lineage header bumped).
    pub artifact: Artifact,
    /// Refreshed per-view Laplacians — pass these to the next
    /// [`Artifact::update`] call.
    pub views: ViewLaplacians,
    /// The updated MVAG (`base.apply_delta(delta)`).
    pub mvag: Mvag,
}

/// Training configuration for [`Artifact::train`].
#[derive(Debug, Clone, Default)]
pub struct TrainConfig {
    /// SGLA/SGLA+ parameters.
    pub sgla: SglaParams,
    /// View-Laplacian construction parameters.
    pub knn: KnnParams,
    /// Embedding parameters ([`EmbedParams::dim`] is clamped to `n - 2`
    /// for tiny inputs).
    pub embed: EmbedParams,
    /// Spectral clustering restarts/seed come from here.
    pub spectral: SpectralParams,
}

impl Artifact {
    /// Runs the full training pipeline on `mvag`: view Laplacians →
    /// SGLA+ integration → spectral clustering → embedding → centroids.
    ///
    /// # Errors
    /// Propagates pipeline failures as [`ServeError::Train`]; rejects
    /// untrainable tiny graphs (`n <= 2`) up front.
    pub fn train(mvag: &Mvag, config: &TrainConfig) -> Result<Artifact> {
        Ok(Artifact::train_with_views(mvag, config)?.0)
    }

    /// [`Artifact::train`], additionally returning the per-view
    /// Laplacians the run built. A long-lived trainer keeps them: they
    /// are the reusable half of the pipeline's state, and handing them
    /// back to [`Artifact::update`] lets an append-only graph change
    /// skip the KNN searches for untouched attribute views entirely.
    ///
    /// # Errors
    /// See [`Artifact::train`].
    pub fn train_with_views(
        mvag: &Mvag,
        config: &TrainConfig,
    ) -> Result<(Artifact, ViewLaplacians)> {
        check_trainable(mvag.n())?;
        let views = ViewLaplacians::build(mvag, &config.knn)?;
        let outcome = SglaPlus::new(config.sgla.clone()).integrate(&views, mvag.k())?;
        let spectral = spectral_clustering_with(&outcome.laplacian, mvag.k(), &config.spectral)?;
        let embed_params = clamp_embed_params(config, mvag.n());
        let embedding = embed(&outcome.laplacian, &embed_params)?;
        let centroids = centroids_of(&embedding, &spectral.labels, mvag.k())?;
        let artifact = Artifact {
            meta: ArtifactMeta {
                dataset: mvag.name.clone(),
                n: mvag.n(),
                k: mvag.k(),
                dim: embedding.ncols(),
                seed: config.sgla.seed,
                row_start: 0,
                row_end: mvag.n(),
                parent_seed: config.sgla.seed,
                update_count: 0,
                compaction_count: 0,
            },
            weights: outcome.weights,
            laplacian: outcome.laplacian,
            labels: spectral.labels,
            centroids,
            embedding,
            tombstones: Vec::new(),
        };
        Ok((artifact, views))
    }

    /// Incrementally updates this (full) artifact for an append-only
    /// graph change, without re-running the expensive cold-start
    /// pipeline:
    ///
    /// 1. the delta is applied to `base` and the per-view Laplacians
    ///    are refreshed only where the graph actually changed
    ///    ([`ViewLaplacians::update`] — untouched views are extended,
    ///    not recomputed);
    /// 2. the learned view weights `w*` are **reused** — under small
    ///    perturbations the integrated objective changes smoothly, so
    ///    the previous simplex optimum stays near-optimal and the
    ///    `r + 1` eigensolves of a fresh SGLA+ run are skipped; the
    ///    integrated operator is refreshed through the fused-sum
    ///    machinery ([`mvag_sparse::FusedSumOp`]) at `O(Σ nnz)`;
    /// 3. spectral clustering and the embedding are **warm-started**
    ///    from the previous artifact (cluster-indicator seed for the
    ///    clustering eigensolve; the previous embedding block — padded
    ///    with each appended node's cluster centroid — for the
    ///    embedding solver), so both converge in a fraction of their
    ///    cold iteration counts;
    /// 4. labels, centroids, and the lineage header are refreshed
    ///    (`update_count + 1`, `parent_seed` carried through).
    ///
    /// `base_views` are the per-view Laplacians of `base` (from
    /// [`Artifact::train_with_views`] or a previous update's outcome).
    /// The updated artifact stays verifiable: `update_bench` and the
    /// serve proptests check labels (after Hungarian alignment) and
    /// the embedding subspace against a from-scratch retrain of the
    /// updated graph.
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] when the artifact, views, and
    /// base do not describe the same graph or the artifact is not
    /// full; [`ServeError::Train`] for pipeline failures.
    pub fn update(
        &self,
        base_views: &ViewLaplacians,
        base: &Mvag,
        delta: &MvagDelta,
        config: &TrainConfig,
    ) -> Result<UpdateOutcome> {
        if !self.meta.is_full() {
            return Err(ServeError::InvalidArgument(
                "can only update a full artifact (update shards via their full parent)".into(),
            ));
        }
        let m = &self.meta;
        if m.n != base.n() || m.k != base.k() || m.dataset != base.name {
            return Err(ServeError::InvalidArgument(format!(
                "artifact was trained on '{}' (n = {}, k = {}), base is '{}' (n = {}, k = {})",
                m.dataset,
                m.n,
                m.k,
                base.name,
                base.n(),
                base.k()
            )));
        }
        if base_views.n() != base.n() || base_views.r() != base.r() {
            return Err(ServeError::InvalidArgument(format!(
                "base views cover {} nodes / {} views, base MVAG has {} / {}",
                base_views.n(),
                base_views.r(),
                base.n(),
                base.r()
            )));
        }
        if self.weights.len() != base.r() {
            return Err(ServeError::InvalidArgument(format!(
                "{} learned weights for {} views",
                self.weights.len(),
                base.r()
            )));
        }
        // Deltas must not touch rows that are already dead: removing a
        // tombstoned node twice, editing it, or wiring an appended
        // node to it would silently resurrect a deleted row.
        self.check_no_tombstone_conflict(delta)?;
        let updated = base
            .apply_delta(delta)
            .map_err(|e| ServeError::InvalidArgument(format!("applying delta: {e}")))?;
        let n_new = updated.n();
        check_trainable(n_new)?;
        let changed = delta
            .changed_views(base)
            .map_err(|e| ServeError::InvalidArgument(format!("delta views: {e}")))?;
        let views = base_views.update(&updated, &config.knn, &changed)?;

        // Reuse w*: refresh the integrated operator through the fused
        // scratch-CSR (one pattern analysis + one set_weights-style
        // value scatter — no optimizer, no objective eigensolves).
        let fused = views.fused_op(&self.weights)?;
        let laplacian = fused.fused_matrix().clone();

        // Warm-started spectral clustering: the previous labels'
        // indicator matrix seeds the eigensolver (appended rows get a
        // flat membership).
        let mut spectral_params = config.spectral.clone();
        spectral_params.init = Some(label_indicator_init(&self.labels, m.k, n_new)?);
        let spectral = spectral_clustering_with(&laplacian, m.k, &spectral_params)?;

        // Warm-started embedding: previous embedding rows, appended
        // rows approximated by their cluster's centroid (`embed_warm`
        // truncates the guess if the target dimension shrank).
        let embed_params = clamp_embed_params(config, n_new);
        let warm = {
            let mut block = DenseMatrix::zeros(n_new, m.dim);
            let rows = m.rows();
            block.data_mut()[..rows * m.dim].copy_from_slice(self.embedding.data());
            for i in rows..n_new {
                let centroid = self.centroids.row(spectral.labels[i].min(m.k - 1));
                block.row_mut(i).copy_from_slice(centroid);
            }
            block
        };
        let embedding = embed_warm(&laplacian, &embed_params, Some(&warm))?;

        // Tombstones accumulate: previous ones plus this delta's
        // removals (both sorted, disjoint by the conflict check above).
        let mut tombstones = merge_sorted(&self.tombstones, &delta.removed_nodes);
        tombstones.dedup();
        let centroids = centroids_of_masked(&embedding, &spectral.labels, m.k, &tombstones)?;

        let artifact = Artifact {
            meta: ArtifactMeta {
                dataset: updated.name.clone(),
                n: n_new,
                k: m.k,
                dim: embedding.ncols(),
                seed: m.seed,
                row_start: 0,
                row_end: n_new,
                parent_seed: m.parent_seed,
                update_count: m.update_count + 1,
                compaction_count: m.compaction_count,
            },
            weights: self.weights.clone(),
            laplacian,
            labels: spectral.labels,
            centroids,
            embedding,
            tombstones,
        };
        artifact.validate()?;
        Ok(UpdateOutcome {
            artifact,
            views,
            mvag: updated,
        })
    }

    /// Rejects deltas that reference rows this artifact has already
    /// tombstoned (see the call in [`Artifact::update`]).
    fn check_no_tombstone_conflict(&self, delta: &MvagDelta) -> Result<()> {
        if self.tombstones.is_empty() {
            return Ok(());
        }
        let dead = |node: usize| self.tombstones.binary_search(&node).is_ok();
        let fail = |what: String| {
            Err(ServeError::InvalidArgument(format!(
                "{what} references a tombstoned (deleted) node"
            )))
        };
        if let Some(&r) = delta.removed_nodes.iter().find(|&&r| dead(r)) {
            return fail(format!("removal of node {r}"));
        }
        for edit in &delta.edits {
            match edit {
                mvag_graph::DeltaEdit::EdgeWeight { u, v, .. } => {
                    if dead(*u) || dead(*v) {
                        return fail(format!("edge edit ({u}, {v})"));
                    }
                }
                mvag_graph::DeltaEdit::AttrRow { node, .. } => {
                    if dead(*node) {
                        return fail(format!("row edit of node {node}"));
                    }
                }
            }
        }
        for view in &delta.views {
            if let mvag_graph::ViewDelta::Edges(edges) = view {
                if let Some(&(u, v, _)) = edges.iter().find(|&&(u, v, _)| dead(u) || dead(v)) {
                    return fail(format!("appended edge ({u}, {v})"));
                }
            }
        }
        Ok(())
    }

    /// Purges this (full) artifact's tombstones: every surviving row
    /// is slid down so ids are dense again, the Laplacian is restricted
    /// to its live principal submatrix, and the meta is re-based
    /// (`n` shrinks, `compaction_count` is bumped, `parent_seed` and
    /// `update_count` are preserved). Returns the compacted artifact
    /// and the [`mvag_data::IdMap`] describing the id shift — the sharded layout
    /// persists it as a sidecar so unrewritten shard files can be
    /// rebased at load time.
    ///
    /// Queries are unaffected by construction: cluster/top-k/embed
    /// answers read only labels, centroids, and embedding rows, all of
    /// which are carried over verbatim for live rows (the learned
    /// weights are reused, nothing is retrained).
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] if the artifact is not full or
    /// compaction would leave it untrainable (fewer than 3 live rows).
    pub fn compact(&self) -> Result<(Artifact, mvag_data::IdMap)> {
        if !self.meta.is_full() {
            return Err(ServeError::InvalidArgument(
                "can only compact a full artifact (sharded layouts compact via their manifest)"
                    .into(),
            ));
        }
        let id_map = mvag_data::IdMap::new(self.meta.n, self.tombstones.clone())
            .map_err(|e| ServeError::InvalidArgument(e.to_string()))?;
        check_trainable(id_map.new_n)?;
        let dim = self.meta.dim;
        let live: Vec<usize> = (0..self.meta.n)
            .filter(|&i| id_map.map(i).is_some())
            .collect();
        let mut labels = Vec::with_capacity(live.len());
        let mut embedding = DenseMatrix::zeros(live.len(), dim);
        for (new, &old) in live.iter().enumerate() {
            labels.push(self.labels[old]);
            embedding
                .row_mut(new)
                .copy_from_slice(self.embedding.row(old));
        }
        let laplacian = compact_csr(&self.laplacian, &live, &id_map)?;
        let artifact = Artifact {
            meta: ArtifactMeta {
                dataset: self.meta.dataset.clone(),
                n: id_map.new_n,
                k: self.meta.k,
                dim,
                seed: self.meta.seed,
                row_start: 0,
                row_end: id_map.new_n,
                parent_seed: self.meta.parent_seed,
                update_count: self.meta.update_count,
                compaction_count: self.meta.compaction_count + 1,
            },
            weights: self.weights.clone(),
            laplacian,
            labels,
            centroids: self.centroids.clone(),
            embedding,
            tombstones: Vec::new(),
        };
        artifact.validate()?;
        Ok((artifact, id_map))
    }

    /// Encodes the artifact into the versioned, checksummed binary
    /// format (always the current v5 layout: lineage header, tombstone
    /// section, then a section table of alignment-padded sections —
    /// laplacian, labels, centroids, per-row norms, embedding). The
    /// norms and embedding sections are raw little-endian `f64`s at
    /// 64-byte-aligned file offsets so a mapped reader can borrow
    /// `&[f64]` rows without copying; the norms are computed here, at
    /// save time, so loads skip the `O(n·dim)` norm pass entirely.
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] if a label cannot be
    /// represented on the wire (`> u32::MAX` — labels are stored as
    /// `u32`; any valid artifact has `label < k`, so this only fires
    /// on hand-built inconsistent state that would otherwise be
    /// silently truncated).
    pub fn encode(&self) -> Result<Bytes> {
        // Head: everything before the first aligned section.
        let mut head = BytesMut::with_capacity(1 << 12);
        put_str(&mut head, &self.meta.dataset);
        head.put_u64(self.meta.n as u64);
        head.put_u64(self.meta.k as u64);
        head.put_u64(self.meta.dim as u64);
        head.put_u64(self.meta.seed);
        head.put_u64(self.meta.row_start as u64);
        head.put_u64(self.meta.row_end as u64);
        head.put_u64(self.meta.parent_seed);
        head.put_u64(self.meta.update_count);
        head.put_u64(self.meta.compaction_count);
        head.put_u64(self.tombstones.len() as u64);
        for &t in &self.tombstones {
            head.put_u64(t as u64);
        }
        head.put_u64(self.weights.len() as u64);
        for &w in &self.weights {
            head.put_f64(w);
        }
        head.put_u64(SECTION_COUNT as u64);

        // Section payloads (padding is added during assembly).
        let mut lap = BytesMut::with_capacity(1 << 12);
        put_csr(&mut lap, &self.laplacian);
        let mut labels = BytesMut::with_capacity(8 + self.labels.len() * 4);
        labels.put_u64(self.labels.len() as u64);
        for (i, &l) in self.labels.iter().enumerate() {
            let wire = u32::try_from(l).map_err(|_| {
                ServeError::InvalidArgument(format!(
                    "label {l} at row {i} exceeds u32::MAX and cannot be encoded"
                ))
            })?;
            labels.put_u32(wire);
        }
        let mut centroids = BytesMut::with_capacity(16 + self.centroids.data().len() * 8);
        put_dense(&mut centroids, &self.centroids);
        let rows = self.embedding.nrows();
        let mut norms = BytesMut::with_capacity(rows * 8);
        let norm_vals: Vec<f64> = (0..rows)
            .map(|r| vecops::norm2(self.embedding.row(r)))
            .collect();
        put_f64s_le(&mut norms, &norm_vals);
        let mut embedding = BytesMut::with_capacity(self.embedding.data().len() * 8);
        put_f64s_le(&mut embedding, self.embedding.data());
        let payloads = [
            lap.freeze(),
            labels.freeze(),
            centroids.freeze(),
            norms.freeze(),
            embedding.freeze(),
        ];

        // Absolute section offsets: the head (table and head CRC
        // included), then each payload at the next 64-byte boundary.
        let head_len = head.len() + SECTION_COUNT * SECTION_ENTRY_LEN + 4;
        let fail_overflow = || ServeError::InvalidArgument("artifact too large to encode".into());
        let mut offset =
            align_up(SEAL_HEADER_LEN + head_len, SECTION_ALIGN).ok_or_else(fail_overflow)?;
        let mut sections = Vec::with_capacity(SECTION_COUNT);
        for (i, payload) in payloads.iter().enumerate() {
            sections.push(ArtifactSection {
                id: i as u32 + 1,
                offset,
                len: payload.len(),
                crc32: crc32(payload.as_ref()),
            });
            let end = offset
                .checked_add(payload.len())
                .ok_or_else(fail_overflow)?;
            offset = if i + 1 < SECTION_COUNT {
                align_up(end, SECTION_ALIGN).ok_or_else(fail_overflow)?
            } else {
                end
            };
        }
        for s in &sections {
            head.put_u32(s.id);
            head.put_u32(0);
            head.put_u64(s.offset as u64);
            head.put_u64(s.len as u64);
            head.put_u32(s.crc32);
            head.put_u32(0);
        }
        head.put_u32(crc32(head.as_ref()));
        debug_assert_eq!(head.len(), head_len);

        let total = offset; // one past the embedding section
        let mut body = BytesMut::with_capacity(total - SEAL_HEADER_LEN);
        body.put_slice(head.as_ref());
        for (s, payload) in sections.iter().zip(&payloads) {
            while SEAL_HEADER_LEN + body.len() < s.offset {
                body.put_u8(0);
            }
            body.put_slice(payload.as_ref());
        }
        Ok(seal(MAGIC, FORMAT_VERSION, body.freeze().as_ref()))
    }

    /// Decodes a v5 artifact, verifying magic, length and checksum
    /// before touching the payload.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] on any structural problem — including
    /// length fields that do not fit the remaining body (a corrupt
    /// count errors instead of mis-framing the sections after it);
    /// [`ServeError::OldFormat`] for files in an older format, which
    /// `sgla-serve compact` migrates.
    pub fn decode(bytes: Bytes) -> Result<Artifact> {
        Ok(Self::decode_with_norms(bytes)?.0)
    }

    /// [`Artifact::decode`], additionally returning the persisted
    /// per-row embedding norms (one Euclidean norm per row in range)
    /// so engine assembly can skip its `O(n·dim)` norm pass.
    ///
    /// # Errors
    /// See [`Artifact::decode`].
    pub fn decode_with_norms(bytes: Bytes) -> Result<(Artifact, Vec<f64>)> {
        let fail = |msg: &str| ServeError::Corrupt(msg.to_string());
        unseal(bytes.clone(), MAGIC, "artifact").map_err(ServeError::Corrupt)?;
        // The whole-body CRC above already vouches for every byte
        // (head, padding, payloads), so the owned path skips the
        // per-section CRCs — they exist for the mapped open path,
        // which never reads most of the file. The head parse refuses
        // other versions.
        let head = parse_v5_head(bytes.as_ref())?;
        let rows = head.meta.rows();
        let section = |id: u32| head.sections[(id - 1) as usize];
        let slice = |s: ArtifactSection| bytes.slice(s.offset..s.offset + s.len);

        let mut lap = slice(section(SECTION_LAPLACIAN));
        let laplacian = get_csr(&mut lap)?;
        if lap.remaining() != 0 {
            return Err(fail("trailing bytes in the laplacian section"));
        }

        let mut lab = slice(section(SECTION_LABELS));
        if lab.remaining() < 8 {
            return Err(fail("truncated label count"));
        }
        let num_labels = lab.get_u64() as usize;
        let labels = get_u32s(&mut lab, num_labels).ok_or_else(|| fail("truncated labels"))?;
        if lab.remaining() != 0 {
            return Err(fail("trailing bytes in the label section"));
        }

        let mut cen = slice(section(SECTION_CENTROIDS));
        let centroids = get_dense(&mut cen)?;
        if cen.remaining() != 0 {
            return Err(fail("trailing bytes in the centroid section"));
        }

        let norms = f64s_from_le(slice(section(SECTION_NORMS)).as_ref(), rows)
            .ok_or_else(|| fail("norms section length does not match the row count"))?;

        let count = rows
            .checked_mul(head.meta.dim)
            .ok_or_else(|| fail("embedding shape overflow"))?;
        let data = f64s_from_le(slice(section(SECTION_EMBEDDING)).as_ref(), count)
            .ok_or_else(|| fail("embedding section length does not match rows × dim"))?;
        let embedding = DenseMatrix::from_vec(rows, head.meta.dim, data)
            .map_err(|e| fail(&format!("embedding: {e}")))?;

        let artifact = Artifact {
            meta: head.meta,
            weights: head.weights,
            laplacian,
            labels,
            centroids,
            embedding,
            tombstones: head.tombstones,
        };
        artifact.validate()?;
        Ok((artifact, norms))
    }

    /// Cross-field consistency checks (shapes line up with the meta).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(ServeError::Corrupt(msg));
        let m = &self.meta;
        if m.row_start > m.row_end || m.row_end > m.n {
            return fail(format!(
                "row range {}..{} outside 0..{}",
                m.row_start, m.row_end, m.n
            ));
        }
        let rows = m.rows();
        if self.labels.len() != rows {
            return fail(format!(
                "{} labels for {} rows in range",
                self.labels.len(),
                rows
            ));
        }
        if let Some(&bad) = self.labels.iter().find(|&&l| l >= m.k) {
            return fail(format!("label {bad} >= k = {}", m.k));
        }
        if self.laplacian.nrows() != rows || self.laplacian.ncols() != m.n {
            return fail(format!(
                "laplacian is {}x{} for {} rows in range, n = {}",
                self.laplacian.nrows(),
                self.laplacian.ncols(),
                rows,
                m.n
            ));
        }
        if self.embedding.nrows() != rows || self.embedding.ncols() != m.dim {
            return fail(format!(
                "embedding is {}x{} for {} rows in range, dim = {}",
                self.embedding.nrows(),
                self.embedding.ncols(),
                rows,
                m.dim
            ));
        }
        if self.centroids.nrows() != m.k || self.centroids.ncols() != m.dim {
            return fail(format!(
                "centroids are {}x{} for k = {}, dim = {}",
                self.centroids.nrows(),
                self.centroids.ncols(),
                m.k,
                m.dim
            ));
        }
        if self.weights.is_empty() {
            return fail("no view weights".to_string());
        }
        for pair in self.tombstones.windows(2) {
            if pair[0] >= pair[1] {
                return fail(format!(
                    "tombstones not strictly increasing ({} then {})",
                    pair[0], pair[1]
                ));
            }
        }
        if let (Some(&first), Some(&last)) = (self.tombstones.first(), self.tombstones.last()) {
            if first < m.row_start || last >= m.row_end {
                return fail(format!(
                    "tombstones {first}..={last} outside the row range {}..{}",
                    m.row_start, m.row_end
                ));
            }
        }
        Ok(())
    }

    /// Number of tombstoned (deleted, unpurged) rows in this artifact.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// True when global row `node` is tombstoned in this artifact.
    pub fn is_tombstoned(&self, node: usize) -> bool {
        self.tombstones.binary_search(&node).is_ok()
    }

    /// Saves the artifact to `path`, replacing any existing file by
    /// rename (see [`crate::publish`](mod@crate::publish)).
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: &Path) -> Result<()> {
        FsWriter.replace(path, self.encode()?.as_ref())?;
        Ok(())
    }

    /// Loads and verifies an artifact from `path`.
    ///
    /// # Errors
    /// I/O failures and [`ServeError::Corrupt`].
    pub fn load(path: &Path) -> Result<Artifact> {
        let data = fs::read(path)?;
        Artifact::decode(Bytes::from(data))
    }

    /// [`Artifact::load`] plus the persisted per-row norms (see
    /// [`Artifact::decode_with_norms`]).
    ///
    /// # Errors
    /// I/O failures and [`ServeError::Corrupt`].
    pub fn load_with_norms(path: &Path) -> Result<(Artifact, Vec<f64>)> {
        let data = fs::read(path)?;
        Artifact::decode_with_norms(Bytes::from(data))
    }

    /// Reads codec-level facts about an artifact file without decoding
    /// the payload: file size, `n` and the tombstone count, and the
    /// section table with per-section byte sizes.
    ///
    /// # Errors
    /// I/O failures; [`ServeError::OldFormat`] for older formats;
    /// [`ServeError::Corrupt`] for non-SGLA files or a malformed head.
    pub fn read_file_info(path: &Path) -> Result<ArtifactFileInfo> {
        let raw = fs::read(path)?;
        let head = parse_v5_head(&raw)?;
        Ok(ArtifactFileInfo {
            file_bytes: raw.len() as u64,
            n: head.meta.n,
            tombstones: head.tombstones.len(),
            sections: head.sections.to_vec(),
        })
    }

    /// Slices the global row range `[row_start, row_end)` out of a
    /// *full* artifact into a standalone shard artifact: labels,
    /// embedding rows, and Laplacian rows are restricted to the range;
    /// weights and centroids are carried whole.
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] if this artifact is not full or
    /// the range is empty / out of bounds.
    pub fn shard(&self, row_start: usize, row_end: usize) -> Result<Artifact> {
        if !self.meta.is_full() {
            return Err(ServeError::InvalidArgument(
                "can only shard a full artifact".into(),
            ));
        }
        if row_start >= row_end || row_end > self.meta.n {
            return Err(ServeError::InvalidArgument(format!(
                "bad shard range {row_start}..{row_end} for n = {}",
                self.meta.n
            )));
        }
        let dim = self.meta.dim;
        let embedding = DenseMatrix::from_vec(
            row_end - row_start,
            dim,
            self.embedding.data()[row_start * dim..row_end * dim].to_vec(),
        )
        .map_err(|e| ServeError::InvalidArgument(format!("embedding slice: {e}")))?;
        // Tombstones keep their *global* ids; a shard carries the ones
        // falling inside its range.
        let lo = self.tombstones.partition_point(|&t| t < row_start);
        let hi = self.tombstones.partition_point(|&t| t < row_end);
        Ok(Artifact {
            meta: ArtifactMeta {
                row_start,
                row_end,
                ..self.meta.clone()
            },
            weights: self.weights.clone(),
            laplacian: slice_csr_rows(&self.laplacian, row_start, row_end)?,
            labels: self.labels[row_start..row_end].to_vec(),
            centroids: self.centroids.clone(),
            embedding,
            tombstones: self.tombstones[lo..hi].to_vec(),
        })
    }

    /// Conventional file name of shard `index` inside a sharded layout
    /// directory.
    pub fn shard_file_name(index: usize) -> String {
        format!("shard-{index:05}.sgla")
    }

    /// Conventional file name of the IVF index sidecar of shard
    /// `index` inside a sharded layout directory.
    pub fn shard_index_file_name(index: usize) -> String {
        format!("shard-{index:05}.ivf")
    }

    /// Sidecar index path of a monolithic artifact file: the artifact
    /// path with `.ivf` appended (`toy.sgla` → `toy.sgla.ivf`), so the
    /// pairing survives any artifact file name.
    pub fn index_sidecar_path(artifact_path: &Path) -> std::path::PathBuf {
        let mut s = artifact_path.as_os_str().to_os_string();
        s.push(".ivf");
        std::path::PathBuf::from(s)
    }

    /// Trains an IVF approximate top-k index over this artifact's
    /// embedding rows (full artifact or shard — the index covers
    /// whatever row range the artifact does).
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] if index construction fails.
    pub fn build_ivf(&self, config: &mvag_index::IvfConfig) -> Result<mvag_index::IvfIndex> {
        mvag_index::IvfIndex::train(&self.embedding, self.meta.row_start, self.meta.n, config)
            .map_err(|e| ServeError::InvalidArgument(format!("building IVF index: {e}")))
    }

    /// Conventional manifest file name inside a sharded layout
    /// directory.
    pub const MANIFEST_FILE: &'static str = "manifest.json";

    /// Writes this (full) artifact as a sharded layout: `shards`
    /// balanced contiguous row-range shard files plus a
    /// `manifest.json`, all inside directory `dir` (created if
    /// missing). `shards` is clamped to `1..=n`. Returns the manifest.
    ///
    /// Every shard file is a self-contained artifact; the manifest
    /// records each file's byte size and whole-file CRC-32 so a router
    /// can verify shards before decoding them. Over an existing layout
    /// the shards get generational names and the manifest commits by
    /// rename (see [`crate::publish`](mod@crate::publish)).
    ///
    /// ```
    /// use sgla_serve::{Artifact, TrainConfig};
    ///
    /// let mvag = mvag_data::toy_mvag(40, 2, 7);
    /// let mut config = TrainConfig::default();
    /// config.embed.dim = 4;
    /// let artifact = Artifact::train(&mvag, &config).unwrap();
    ///
    /// let dir = std::env::temp_dir().join(format!("sgla-doc-sharded-{}", std::process::id()));
    /// let manifest = artifact.save_sharded(&dir, 3).unwrap();
    /// assert_eq!(manifest.shards.len(), 3);
    /// assert_eq!(manifest.shards.iter().map(|s| s.rows()).sum::<usize>(), 40);
    /// std::fs::remove_dir_all(&dir).ok();
    /// ```
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] if this artifact is not full;
    /// I/O failures writing the files.
    pub fn save_sharded(&self, dir: &Path, shards: usize) -> Result<ShardManifest> {
        crate::publish::write_layout(self, dir, shards, &mut FsWriter)
    }
}

/// Accepts format `version` for serving — v5 only. `what` names the
/// thing being opened ("file", "layout manifest").
///
/// # Errors
/// [`ServeError::OldFormat`] for v1–v4, which `sgla-serve compact`
/// migrates; [`ServeError::Corrupt`] for any other version.
pub(crate) fn require_current(what: &'static str, version: u16) -> Result<()> {
    if version == FORMAT_VERSION {
        Ok(())
    } else if (1..FORMAT_VERSION).contains(&version) {
        Err(ServeError::OldFormat { what, version })
    } else {
        Err(ServeError::Corrupt(format!(
            "unsupported format version {version} (expected {FORMAT_VERSION})"
        )))
    }
}

/// Up-front trainability gate: with `n <= 2` the embedding dimension
/// cannot satisfy `dim + 1 < n` even after clamping (`dim >= 1`
/// always), so the eigensolver would fail deep inside the pipeline
/// with an opaque message. Reject early and clearly instead.
pub(crate) fn check_trainable(n: usize) -> Result<()> {
    if n <= 2 {
        return Err(ServeError::Train(sgla_core::SglaError::InvalidArgument(
            format!(
                "graph has n = {n} nodes; training needs n >= 3 (the embedding requires \
                 dim + 1 < n with dim >= 1)"
            ),
        )));
    }
    Ok(())
}

/// The embedding parameters actually used for an `n`-node graph: the
/// configured dimension clamped so tiny demo graphs stay embeddable
/// (`dim + 1 < n` must hold).
fn clamp_embed_params(config: &TrainConfig, n: usize) -> EmbedParams {
    let mut embed_params = config.embed.clone();
    embed_params.dim = embed_params.dim.min(n.saturating_sub(2)).max(1);
    embed_params
}

/// Extracts rows `[row_start, row_end)` of a CSR matrix as a new
/// `(row_end - row_start) × ncols` CSR matrix.
fn slice_csr_rows(m: &CsrMatrix, row_start: usize, row_end: usize) -> Result<CsrMatrix> {
    // A contiguous row range of a CSR matrix is two contiguous slices.
    let base = m.indptr()[row_start];
    let end = m.indptr()[row_end];
    let indptr: Vec<usize> = m.indptr()[row_start..=row_end]
        .iter()
        .map(|&p| p - base)
        .collect();
    CsrMatrix::from_raw_parts(
        row_end - row_start,
        m.ncols(),
        indptr,
        m.column_indices()[base..end].to_vec(),
        m.values()[base..end].to_vec(),
    )
    .map_err(|e| ServeError::InvalidArgument(format!("laplacian slice: {e}")))
}

/// Merges two sorted id lists into one sorted list.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// [`centroids_of`] with tombstoned rows excluded from the means, so a
/// deletion moves its cluster's centroid exactly as a purge would.
fn centroids_of_masked(
    embedding: &DenseMatrix,
    labels: &[usize],
    k: usize,
    tombstones: &[usize],
) -> Result<DenseMatrix> {
    if tombstones.is_empty() {
        return centroids_of(embedding, labels, k);
    }
    let dim = embedding.ncols();
    let live: Vec<usize> = {
        let mut dead = vec![false; labels.len()];
        for &t in tombstones {
            if t < dead.len() {
                dead[t] = true;
            }
        }
        (0..labels.len()).filter(|&i| !dead[i]).collect()
    };
    let mut filtered = DenseMatrix::zeros(live.len(), dim);
    let mut live_labels = Vec::with_capacity(live.len());
    for (new, &old) in live.iter().enumerate() {
        filtered.row_mut(new).copy_from_slice(embedding.row(old));
        live_labels.push(labels[old]);
    }
    centroids_of(&filtered, &live_labels, k)
}

/// The live principal submatrix of a full-artifact Laplacian: rows and
/// columns restricted to `live` (old ids), columns remapped through
/// `id_map` so the result is `new_n × new_n`.
pub(crate) fn compact_csr(
    m: &CsrMatrix,
    live: &[usize],
    id_map: &mvag_data::IdMap,
) -> Result<CsrMatrix> {
    let mut indptr = Vec::with_capacity(live.len() + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    indptr.push(0);
    for &old in live {
        for (&c, &v) in m.row_cols(old).iter().zip(m.row_vals(old)) {
            if let Some(new_c) = id_map.map(c) {
                cols.push(new_c);
                vals.push(v);
            }
        }
        indptr.push(cols.len());
    }
    CsrMatrix::from_raw_parts(live.len(), id_map.new_n, indptr, cols, vals)
        .map_err(|e| ServeError::InvalidArgument(format!("compacted laplacian: {e}")))
}

/// Mean embedding row per cluster.
fn centroids_of(embedding: &DenseMatrix, labels: &[usize], k: usize) -> Result<DenseMatrix> {
    let dim = embedding.ncols();
    let mut sums = DenseMatrix::zeros(k, dim);
    let mut counts = vec![0usize; k];
    for (i, &label) in labels.iter().enumerate() {
        if label >= k {
            return Err(ServeError::InvalidArgument(format!(
                "label {label} >= k = {k}"
            )));
        }
        counts[label] += 1;
        let row = embedding.row(i);
        let dst = sums.row_mut(label);
        for (d, &v) in row.iter().enumerate() {
            dst[d] += v;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f64;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }
    }
    Ok(sums)
}

// ---------------------------------------------------------------------
// Codec helpers (same style as mvag_data::io, plus CRC-32).

pub use mvag_data::codec::crc32;

pub(crate) fn put_csr(buf: &mut BytesMut, m: &CsrMatrix) {
    buf.put_u64(m.nrows() as u64);
    buf.put_u64(m.ncols() as u64);
    buf.put_u64(m.nnz() as u64);
    for &p in m.indptr() {
        buf.put_u64(p as u64);
    }
    for r in 0..m.nrows() {
        for &c in m.row_cols(r) {
            buf.put_u64(c as u64);
        }
    }
    for r in 0..m.nrows() {
        for &v in m.row_vals(r) {
            buf.put_f64(v);
        }
    }
}

pub(crate) fn get_csr(bytes: &mut Bytes) -> Result<CsrMatrix> {
    let fail = |msg: &str| ServeError::Corrupt(format!("laplacian: {msg}"));
    if bytes.remaining() < 24 {
        return Err(fail("truncated header"));
    }
    let nrows = bytes.get_u64() as usize;
    let ncols = bytes.get_u64() as usize;
    let nnz = bytes.get_u64() as usize;
    let indptr = get_u64s(
        bytes,
        nrows.checked_add(1).ok_or_else(|| fail("bad nrows"))?,
    )
    .ok_or_else(|| fail("truncated indptr"))?;
    let cols = get_u64s(bytes, nnz).ok_or_else(|| fail("truncated column indices"))?;
    let vals = get_f64s(bytes, nnz).ok_or_else(|| fail("truncated values"))?;
    CsrMatrix::from_raw_parts(nrows, ncols, indptr, cols, vals)
        .map_err(|e| fail(&format!("invalid structure: {e}")))
}

pub(crate) fn put_dense(buf: &mut BytesMut, m: &DenseMatrix) {
    buf.put_u64(m.nrows() as u64);
    buf.put_u64(m.ncols() as u64);
    for &v in m.data() {
        buf.put_f64(v);
    }
}

pub(crate) fn get_dense(bytes: &mut Bytes) -> Result<DenseMatrix> {
    let fail = |msg: &str| ServeError::Corrupt(format!("dense matrix: {msg}"));
    if bytes.remaining() < 16 {
        return Err(fail("truncated header"));
    }
    let nrows = bytes.get_u64() as usize;
    let ncols = bytes.get_u64() as usize;
    let count = nrows
        .checked_mul(ncols)
        .ok_or_else(|| fail("shape overflow"))?;
    let data = get_f64s(bytes, count).ok_or_else(|| fail("truncated data"))?;
    DenseMatrix::from_vec(nrows, ncols, data).map_err(|e| fail(&format!("bad shape: {e}")))
}

/// Bounds-checked big-endian cursor over a *borrowed* byte slice. The
/// v5 head parser runs over memory-mapped files, where copying the
/// buffer into an owned `Bytes` would fault every page the map exists
/// to avoid — so the head is parsed in place.
struct SliceCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes(s.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).ok()
    }

    /// `count` u64s as usizes; `None` if fewer bytes remain
    /// (overflow-safe for hostile counts, like `codec::get_u64s`).
    fn u64s(&mut self, count: usize) -> Option<Vec<usize>> {
        if count
            .checked_mul(8)
            .is_none_or(|need| self.remaining() < need)
        {
            return None;
        }
        Some(
            (0..count)
                .map(|_| self.u64().expect("checked") as usize)
                .collect(),
        )
    }

    fn f64s(&mut self, count: usize) -> Option<Vec<f64>> {
        if count
            .checked_mul(8)
            .is_none_or(|need| self.remaining() < need)
        {
            return None;
        }
        Some((0..count).map(|_| self.f64().expect("checked")).collect())
    }
}

/// Parses the head of a v5 artifact from the full file bytes: the
/// sealed container header (body CRC excluded), meta, tombstones,
/// weights, and the section table — then structurally validates the
/// table (exact in-order ids, 64-byte-aligned offsets, minimal
/// padding, no overlap, payloads end exactly at end of file).
///
/// The head CRC is *returned*, not checked: the owned decoder's
/// whole-body CRC subsumes it, and the mapped open path verifies it
/// explicitly via [`V5Head::verify_head_crc`].
pub(crate) fn parse_v5_head(raw: &[u8]) -> Result<V5Head> {
    let fail = |msg: String| ServeError::Corrupt(msg);
    let fails = |msg: &str| ServeError::Corrupt(msg.to_string());
    let version = seal_version(raw, MAGIC, "artifact").map_err(ServeError::Corrupt)?;
    require_current("file", version)?;
    let mut cur = SliceCursor {
        buf: raw,
        pos: SEAL_HEADER_LEN,
    };

    let dataset = cur.str().ok_or_else(|| fails("truncated dataset name"))?;
    let mut meta_words = [0u64; 9];
    for w in &mut meta_words {
        *w = cur.u64().ok_or_else(|| fails("truncated meta"))?;
    }
    let [n, k, dim, seed, row_start, row_end, parent_seed, update_count, compaction_count] =
        meta_words;
    let tomb_count = cur
        .u64()
        .ok_or_else(|| fails("truncated compaction header"))? as usize;
    let tombstones = cur
        .u64s(tomb_count)
        .ok_or_else(|| fails("truncated tombstone ids"))?;
    let num_weights = cur.u64().ok_or_else(|| fails("truncated weight count"))? as usize;
    let weights = cur.f64s(num_weights).ok_or_else(|| {
        fail(format!(
            "weight count {num_weights} exceeds the remaining body"
        ))
    })?;
    let section_count = cur.u64().ok_or_else(|| fails("truncated section count"))? as usize;
    if section_count != SECTION_COUNT {
        return Err(fail(format!(
            "section count {section_count} (v{FORMAT_VERSION} has exactly {SECTION_COUNT})"
        )));
    }
    let mut sections = [ArtifactSection {
        id: 0,
        offset: 0,
        len: 0,
        crc32: 0,
    }; SECTION_COUNT];
    for (i, slot) in sections.iter_mut().enumerate() {
        if cur.remaining() < SECTION_ENTRY_LEN {
            return Err(fails("truncated section table"));
        }
        let id = cur.u32().expect("entry length checked");
        let _reserved = cur.u32().expect("entry length checked");
        let offset = cur.u64().expect("entry length checked") as usize;
        let len = cur.u64().expect("entry length checked") as usize;
        let crc = cur.u32().expect("entry length checked");
        let _reserved = cur.u32().expect("entry length checked");
        if id as usize != i + 1 {
            return Err(fail(format!(
                "section table out of order (entry {i} has id {id})"
            )));
        }
        *slot = ArtifactSection {
            id,
            offset,
            len,
            crc32: crc,
        };
    }
    let head_crc = cur.u32().ok_or_else(|| fails("truncated head checksum"))?;
    let head_end = cur.pos;

    // Table geometry: each section starts at the first 64-byte
    // boundary after its predecessor (so padding is bounded and no
    // bytes can hide between sections) and the last ends exactly at
    // end of file.
    let mut prev_end = head_end;
    for s in &sections {
        if s.offset % SECTION_ALIGN != 0 {
            return Err(fail(format!(
                "{} section offset {} is not {SECTION_ALIGN}-byte aligned",
                s.name(),
                s.offset
            )));
        }
        let expected =
            align_up(prev_end, SECTION_ALIGN).ok_or_else(|| fails("section offset overflow"))?;
        if s.offset != expected {
            return Err(fail(format!(
                "{} section at offset {} (expected {expected})",
                s.name(),
                s.offset
            )));
        }
        prev_end = s
            .offset
            .checked_add(s.len)
            .ok_or_else(|| fails("section length overflow"))?;
        if prev_end > raw.len() {
            return Err(fail(format!(
                "{} section extends past end of file",
                s.name()
            )));
        }
    }
    if prev_end != raw.len() {
        return Err(fails("trailing bytes after the last section"));
    }

    Ok(V5Head {
        meta: ArtifactMeta {
            dataset,
            n: n as usize,
            k: k as usize,
            dim: dim as usize,
            seed,
            row_start: row_start as usize,
            row_end: row_end as usize,
            parent_seed,
            update_count,
            compaction_count,
        },
        weights,
        tombstones,
        sections,
        head_crc,
        head_end,
    })
}

impl V5Head {
    /// Verifies the head CRC against the file bytes it was parsed
    /// from. The mapped open path calls this (plus the per-section
    /// CRCs of the sections it actually decodes) instead of the
    /// whole-body CRC, which would fault every page of the file.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] on mismatch.
    pub(crate) fn verify_head_crc(&self, raw: &[u8]) -> Result<()> {
        let got = crc32(&raw[SEAL_HEADER_LEN..self.head_end - 4]);
        if got != self.head_crc {
            return Err(ServeError::Corrupt(
                "head checksum mismatch (artifact head bytes were altered)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvag_graph::toy::toy_mvag;

    fn small_artifact() -> Artifact {
        let mvag = toy_mvag(60, 2, 11);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        Artifact::train(&mvag, &config).unwrap()
    }

    #[test]
    fn train_produces_consistent_shapes() {
        let a = small_artifact();
        assert_eq!(a.meta.n, 60);
        assert_eq!(a.meta.k, 2);
        assert_eq!(a.meta.dim, 8);
        assert_eq!(a.weights.len(), 3);
        a.validate().unwrap();
        let sum: f64 = a.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights sum {sum}");
    }

    #[test]
    fn encode_decode_bit_exact() {
        let a = small_artifact();
        let bytes = a.encode().unwrap();
        let back = Artifact::decode(bytes).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn file_roundtrip() {
        let mut a = small_artifact();
        a.tombstones = vec![3, 17];
        let dir = std::env::temp_dir().join("sgla-artifact-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.sgla");
        a.save(&path).unwrap();
        let back = Artifact::load(&path).unwrap();
        assert_eq!(a, back);
        // The head alone answers `n` and the tombstone count.
        let info = Artifact::read_file_info(&path).unwrap();
        assert_eq!((info.n, info.tombstones), (a.meta.n, 2));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let a = small_artifact();
        let raw = a.encode().unwrap().to_vec();
        // Flip one byte somewhere in the body (after the 18-byte header).
        for &pos in &[18, raw.len() / 2, raw.len() - 1] {
            let mut bad = raw.clone();
            bad[pos] ^= 0x01;
            let err = Artifact::decode(Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt(_)),
                "pos {pos}: unexpected {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let a = small_artifact();
        let raw = a.encode().unwrap().to_vec();
        let mut bad = raw.clone();
        bad[0] = b'X';
        assert!(matches!(
            Artifact::decode(Bytes::from(bad)).unwrap_err(),
            ServeError::Corrupt(_)
        ));
        let mut bad = raw.clone();
        bad[4] = 0xff; // version hi byte
        let err = Artifact::decode(Bytes::from(bad)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let a = small_artifact();
        let raw = a.encode().unwrap().to_vec();
        // Every 97th prefix plus all short ones: exhaustive is slow at
        // this size, strided catches the same class of bounds bugs.
        for len in (0..raw.len()).step_by(97).chain(0..32) {
            let prefix = Bytes::from(raw[..len].to_vec());
            assert!(Artifact::decode(prefix).is_err(), "prefix of {len} decoded");
        }
    }

    #[test]
    fn tombstones_roundtrip_and_validate() {
        let mut a = small_artifact();
        a.tombstones = vec![3, 17, 42];
        a.meta.compaction_count = 2;
        a.validate().unwrap();
        let back = Artifact::decode(a.encode().unwrap()).unwrap();
        assert_eq!(a, back);
        assert_eq!(back.tombstone_count(), 3);
        assert!(back.is_tombstoned(17) && !back.is_tombstoned(16));
        // Shards carry the tombstones inside their range, global ids.
        let shard = a.shard(10, 50).unwrap();
        assert_eq!(shard.tombstones, vec![17, 42]);
        assert_eq!(shard, Artifact::decode(shard.encode().unwrap()).unwrap());
        // Unsorted or out-of-range tombstones are rejected.
        let mut bad = a.clone();
        bad.tombstones = vec![17, 3];
        assert!(bad.validate().is_err());
        let mut bad = a.clone();
        bad.tombstones = vec![a.meta.n];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn compact_purges_tombstones_and_preserves_answers() {
        let mut a = small_artifact();
        a.tombstones = vec![0, 25, 59];
        let (compacted, id_map) = a.compact().unwrap();
        compacted.validate().unwrap();
        assert_eq!(compacted.meta.n, 57);
        assert_eq!(compacted.meta.compaction_count, 1);
        assert_eq!(compacted.meta.update_count, a.meta.update_count);
        assert_eq!(compacted.meta.parent_seed, a.meta.parent_seed);
        assert!(compacted.tombstones.is_empty());
        assert_eq!(compacted.weights, a.weights);
        assert_eq!(compacted.centroids, a.centroids);
        assert_eq!(id_map.old_n, 60);
        assert_eq!(id_map.new_n, 57);
        // Every live row's label and embedding carried over verbatim.
        for old in 0..a.meta.n {
            if let Some(new) = id_map.map(old) {
                assert_eq!(compacted.labels[new], a.labels[old]);
                assert_eq!(compacted.embedding.row(new), a.embedding.row(old));
            }
        }
        // The Laplacian is the live principal submatrix.
        for old in 1..25 {
            let new = id_map.map(old).unwrap();
            let expect: Vec<(usize, f64)> = a
                .laplacian
                .row_cols(old)
                .iter()
                .zip(a.laplacian.row_vals(old))
                .filter_map(|(&c, &v)| id_map.map(c).map(|nc| (nc, v)))
                .collect();
            let got: Vec<(usize, f64)> = compacted
                .laplacian
                .row_cols(new)
                .iter()
                .zip(compacted.laplacian.row_vals(new))
                .map(|(&c, &v)| (c, v))
                .collect();
            assert_eq!(got, expect, "row {old}");
        }
        // Compacting a clean artifact is the identity plus the bump.
        let (idem, map2) = compacted.compact().unwrap();
        assert_eq!(idem.meta.compaction_count, 2);
        assert_eq!(idem.labels, compacted.labels);
        assert_eq!(idem.embedding, compacted.embedding);
        assert!(map2.purged.is_empty());
        // Shards cannot be compacted directly.
        assert!(a.shard(0, 10).unwrap().compact().is_err());
    }

    #[test]
    fn update_rejects_tombstone_conflicts() {
        use mvag_graph::DeltaEdit;
        let mvag = toy_mvag(60, 2, 11);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        let (mut artifact, views) = Artifact::train_with_views(&mvag, &config).unwrap();
        artifact.tombstones = vec![7];
        // Detach node 7 in the base graph so it matches the artifact's
        // view of the world.
        let base = {
            let detach = MvagDelta {
                removed_nodes: vec![7],
                views: mvag
                    .views()
                    .iter()
                    .map(|v| match v {
                        mvag_graph::View::Graph(_) => mvag_graph::ViewDelta::Edges(vec![]),
                        mvag_graph::View::Attributes(x) => {
                            mvag_graph::ViewDelta::Rows(DenseMatrix::zeros(0, x.ncols()))
                        }
                    })
                    .collect(),
                added_labels: Some(vec![]),
                ..Default::default()
            };
            mvag.apply_delta(&detach).unwrap()
        };
        let reject = |delta: &MvagDelta| {
            let err = artifact.update(&views, &base, delta, &config).unwrap_err();
            assert!(err.to_string().contains("tombstoned"), "{err}");
        };
        let empty_views = |mvag: &Mvag| -> Vec<mvag_graph::ViewDelta> {
            mvag.views()
                .iter()
                .map(|v| match v {
                    mvag_graph::View::Graph(_) => mvag_graph::ViewDelta::Edges(vec![]),
                    mvag_graph::View::Attributes(x) => {
                        mvag_graph::ViewDelta::Rows(DenseMatrix::zeros(0, x.ncols()))
                    }
                })
                .collect()
        };
        // Re-removing a dead node.
        reject(&MvagDelta {
            removed_nodes: vec![7],
            views: empty_views(&base),
            ..Default::default()
        });
        // Editing an edge of a dead node.
        reject(&MvagDelta {
            views: empty_views(&base),
            edits: vec![DeltaEdit::EdgeWeight {
                view: 0,
                u: 7,
                v: 9,
                w: 1.0,
            }],
            ..Default::default()
        });
        // Appending an edge to a dead node (attr views get the one
        // appended row they need so only the tombstone check can fire).
        let mut views_delta = empty_views(&base);
        views_delta[0] = mvag_graph::ViewDelta::Edges(vec![(7, 60, 1.0)]);
        views_delta = views_delta
            .into_iter()
            .map(|v| match v {
                mvag_graph::ViewDelta::Rows(x) => {
                    mvag_graph::ViewDelta::Rows(DenseMatrix::zeros(1, x.ncols()))
                }
                other => other,
            })
            .collect();
        reject(&MvagDelta::append(1, views_delta, Some(vec![0])));
    }

    #[test]
    fn lineage_header_roundtrips_and_survives_sharding() {
        let mut a = small_artifact();
        assert_eq!(a.meta.parent_seed, a.meta.seed);
        assert_eq!(a.meta.update_count, 0);
        a.meta.parent_seed = 777;
        a.meta.update_count = 5;
        let back = Artifact::decode(a.encode().unwrap()).unwrap();
        assert_eq!(back.meta.parent_seed, 777);
        assert_eq!(back.meta.update_count, 5);
        let shard = a.shard(0, 10).unwrap();
        assert_eq!(shard.meta.parent_seed, 777);
        assert_eq!(shard.meta.update_count, 5);
    }

    #[test]
    fn label_overflow_is_a_typed_encode_error() {
        let mut a = small_artifact();
        // Hand-built inconsistent state: a label that cannot fit the
        // u32 wire format must error, not silently truncate to 1.
        a.labels[3] = (u32::MAX as usize) + 2;
        let err = a.encode().unwrap_err();
        assert!(
            matches!(err, ServeError::InvalidArgument(_)),
            "unexpected {err}"
        );
        assert!(err.to_string().contains("u32::MAX"), "{err}");
    }

    #[test]
    fn out_of_range_label_rejected_on_decode() {
        let a = small_artifact();
        let raw = a.encode().unwrap().to_vec();
        // Locate label 0 through the v5 section table (the label
        // section payload is a u64 count, then the u32 labels).
        let head = parse_v5_head(&raw).unwrap();
        let first_label_at = head.sections[1].offset + 8;
        let mut bad = raw.clone();
        // Overwrite label 0 with k (out of range) and re-stamp the CRC
        // so only the label check can reject it.
        bad[first_label_at..first_label_at + 4].copy_from_slice(&(a.meta.k as u32).to_be_bytes());
        let crc = crc32(&bad[18..]);
        bad[14..18].copy_from_slice(&crc.to_be_bytes());
        let err = Artifact::decode(Bytes::from(bad)).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "unexpected {err}");
        assert!(err.to_string().contains(">= k"), "{err}");
    }

    #[test]
    fn corrupt_length_fields_error_instead_of_misframing() {
        let a = small_artifact();
        let raw = a.encode().unwrap().to_vec();
        // The u64 weight count lives right after the fixed meta:
        // 18-byte container header, dataset string (4 + len), 9 meta
        // u64s, then the (empty) tombstone section's count u64.
        let weights_at = 18 + 4 + a.meta.dataset.len() + 8 * 10;
        for huge in [u64::MAX, (raw.len() as u64) * 2] {
            let mut bad = raw.clone();
            bad[weights_at..weights_at + 8].copy_from_slice(&huge.to_be_bytes());
            let crc = crc32(&bad[18..]);
            bad[14..18].copy_from_slice(&crc.to_be_bytes());
            let err = Artifact::decode(Bytes::from(bad)).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt(_)), "unexpected {err}");
            assert!(err.to_string().contains("weight count"), "{err}");
        }
    }

    /// Serving reads v5 only: every older version is refused with a
    /// typed error that names it and the migration command.
    #[test]
    fn pre_v5_files_are_refused_with_the_compact_hint() {
        let a = small_artifact();
        let dir = std::env::temp_dir().join(format!("sgla-artifact-pre-v5-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for version in 1..FORMAT_VERSION {
            let encoded = crate::compact::legacy::encode(&a, version).unwrap();
            let path = dir.join(format!("v{version}.sgla"));
            fs::write(&path, encoded.as_ref()).unwrap();
            for err in [
                Artifact::decode(encoded.clone()).unwrap_err(),
                Artifact::load(&path).unwrap_err(),
                Artifact::read_file_info(&path).unwrap_err(),
            ] {
                assert!(
                    matches!(err, ServeError::OldFormat { version: v, .. } if v == version),
                    "v{version}: {err}"
                );
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("format v{version}"))
                        && msg.contains("sgla-serve compact")
                        && !msg.contains("corrupt"),
                    "v{version}: {msg}"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The v5 norms section holds exactly the per-row Euclidean norms
    /// the engine would otherwise compute at load time.
    #[test]
    fn v5_persisted_norms_match_recomputation() {
        let mut a = small_artifact();
        a.tombstones = vec![7, 30];
        let (back, norms) = Artifact::decode_with_norms(a.encode().unwrap()).unwrap();
        assert_eq!(a, back);
        assert_eq!(norms.len(), a.meta.rows());
        for (r, &got) in norms.iter().enumerate() {
            let want = mvag_sparse::vecops::norm2(a.embedding.row(r));
            assert_eq!(got.to_bits(), want.to_bits(), "row {r}");
        }
    }

    /// The v5 section table is the load-bearing structure of the
    /// format: every offset is 64-byte aligned, sections are in order
    /// with minimal padding, and the layout is rejected wholesale when
    /// an offset is bent out of alignment.
    #[test]
    fn v5_section_table_is_aligned_and_rejects_misalignment() {
        let a = small_artifact();
        let raw = a.encode().unwrap().to_vec();
        let head = parse_v5_head(&raw).unwrap();
        let mut prev_end = head.head_end;
        for s in &head.sections {
            assert_eq!(s.offset % 64, 0, "{} section misaligned", s.name());
            assert!(s.offset >= prev_end && s.offset - prev_end < 64);
            assert_eq!(crc32(&raw[s.offset..s.offset + s.len]), s.crc32);
            prev_end = s.offset + s.len;
        }
        assert_eq!(prev_end, raw.len());
        head.verify_head_crc(&raw).unwrap();
        // Bend the embedding section's offset off alignment (+8) in
        // the table and re-stamp the body CRC: the geometry check must
        // reject it before any payload is touched.
        let table_at = head.head_end - 4 - 5 * 32;
        let emb_entry = table_at + 4 * 32;
        let mut bad = raw.clone();
        let off = u64::from_be_bytes(bad[emb_entry + 8..emb_entry + 16].try_into().unwrap());
        bad[emb_entry + 8..emb_entry + 16].copy_from_slice(&(off + 8).to_be_bytes());
        let crc = crc32(&bad[18..]);
        bad[14..18].copy_from_slice(&crc.to_be_bytes());
        let err = Artifact::decode(Bytes::from(bad)).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "unexpected {err}");
        // A flipped byte in inter-section padding fails the owned
        // path's whole-body CRC just like a payload flip does.
        let pad_at = head.sections[0].offset - 1;
        assert_eq!(raw[pad_at], 0, "expected padding before section 1");
        let mut bad = raw.clone();
        bad[pad_at] ^= 0x40;
        assert!(matches!(
            Artifact::decode(Bytes::from(bad)).unwrap_err(),
            ServeError::Corrupt(_)
        ));
    }

    #[test]
    fn tiny_graphs_rejected_up_front_n3_trains() {
        // n ∈ {1, 2}: a clear up-front error, not an eigensolver
        // failure from deep inside the pipeline.
        for n in [1usize, 2] {
            let views = vec![
                mvag_graph::View::Graph(mvag_graph::Graph::from_unweighted_edges(n, &[]).unwrap()),
                mvag_graph::View::Attributes(DenseMatrix::zeros(n, 2)),
            ];
            let mvag = Mvag::new(format!("tiny-{n}"), views, None, 2).unwrap();
            let err = Artifact::train(&mvag, &TrainConfig::default()).unwrap_err();
            assert!(matches!(err, ServeError::Train(_)), "n = {n}: {err}");
            assert!(err.to_string().contains("n >= 3"), "n = {n}: {err}");
        }
        // n = 3 is the smallest trainable graph: dim clamps to 1 and
        // the full pipeline must succeed.
        let views = vec![
            mvag_graph::View::Graph(
                mvag_graph::Graph::from_unweighted_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            ),
            mvag_graph::View::Attributes(
                DenseMatrix::from_vec(3, 2, vec![0.0, 0.1, 1.0, 0.9, 0.5, 0.4]).unwrap(),
            ),
        ];
        let mvag = Mvag::new("tiny-3", views, None, 2).unwrap();
        let artifact = Artifact::train(&mvag, &TrainConfig::default()).unwrap();
        assert_eq!(artifact.meta.n, 3);
        assert_eq!(artifact.meta.dim, 1);
        artifact.validate().unwrap();
    }

    #[test]
    fn update_refreshes_artifact_and_bumps_lineage() {
        use mvag_graph::generators::{random_append_delta, AppendConfig};
        let mvag = toy_mvag(60, 2, 11);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        let (artifact, views) = Artifact::train_with_views(&mvag, &config).unwrap();
        let delta = random_append_delta(
            &mvag,
            &AppendConfig {
                added_nodes: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let outcome = artifact.update(&views, &mvag, &delta, &config).unwrap();
        let updated = &outcome.artifact;
        updated.validate().unwrap();
        assert_eq!(updated.meta.n, 63);
        assert_eq!(updated.meta.update_count, 1);
        assert_eq!(updated.meta.parent_seed, artifact.meta.seed);
        assert_eq!(updated.meta.seed, artifact.meta.seed);
        assert_eq!(updated.weights, artifact.weights);
        assert_eq!(outcome.mvag.n(), 63);
        assert_eq!(outcome.views.n(), 63);
        // Chained update: the outcome feeds the next round.
        let delta2 = random_append_delta(
            &outcome.mvag,
            &AppendConfig {
                added_nodes: 2,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let outcome2 = updated
            .update(&outcome.views, &outcome.mvag, &delta2, &config)
            .unwrap();
        assert_eq!(outcome2.artifact.meta.n, 65);
        assert_eq!(outcome2.artifact.meta.update_count, 2);
        // The updated artifact round-trips through the codec.
        let back = Artifact::decode(outcome2.artifact.encode().unwrap()).unwrap();
        assert_eq!(outcome2.artifact, back);
        // Mismatched inputs are rejected.
        let other = toy_mvag(50, 2, 12);
        assert!(artifact.update(&views, &other, &delta, &config).is_err());
        let shard = artifact.shard(0, 30).unwrap();
        assert!(shard.update(&views, &mvag, &delta, &config).is_err());
    }

    #[test]
    fn shard_slices_every_field_consistently() {
        let a = small_artifact();
        let s = a.shard(13, 41).unwrap();
        s.validate().unwrap();
        assert_eq!(s.meta.rows(), 28);
        assert_eq!(s.labels, a.labels[13..41]);
        assert_eq!(s.weights, a.weights);
        assert_eq!(s.centroids, a.centroids);
        for local in 0..28 {
            assert_eq!(s.embedding.row(local), a.embedding.row(13 + local));
            assert_eq!(
                s.laplacian.row_cols(local),
                a.laplacian.row_cols(13 + local)
            );
            assert_eq!(
                s.laplacian.row_vals(local),
                a.laplacian.row_vals(13 + local)
            );
        }
        // A shard is itself codec-roundtrippable.
        let back = Artifact::decode(s.encode().unwrap()).unwrap();
        assert_eq!(s, back);
        // Bad ranges and sharding a shard are rejected.
        assert!(a.shard(10, 10).is_err());
        assert!(a.shard(0, a.meta.n + 1).is_err());
        assert!(s.shard(0, 5).is_err());
    }

    #[test]
    fn save_sharded_writes_verifiable_layout() {
        let a = small_artifact();
        let dir =
            std::env::temp_dir().join(format!("sgla-artifact-sharded-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let manifest = a.save_sharded(&dir, 4).unwrap();
        assert_eq!(manifest.shards.len(), 4);
        assert_eq!(manifest.n, a.meta.n);
        assert_eq!(manifest.artifact_format_version, FORMAT_VERSION);
        // Reload via the manifest: per-file CRC and size match, and
        // concatenating shard rows reassembles the original artifact.
        let loaded = mvag_data::ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(loaded, manifest);
        let mut labels = Vec::new();
        let mut rows = 0usize;
        for entry in &manifest.shards {
            let raw = fs::read(dir.join(&entry.file)).unwrap();
            assert_eq!(raw.len() as u64, entry.bytes);
            assert_eq!(crc32(&raw), entry.crc32);
            let shard = Artifact::decode(Bytes::from(raw)).unwrap();
            assert_eq!(shard.meta.row_start, entry.row_start);
            assert_eq!(shard.meta.row_end, entry.row_end);
            labels.extend_from_slice(&shard.labels);
            rows += shard.meta.rows();
        }
        assert_eq!(rows, a.meta.n);
        assert_eq!(labels, a.labels);
        // Shard counts beyond n clamp instead of failing.
        let clamped = a.save_sharded(&dir, 10_000).unwrap();
        assert_eq!(clamped.shards.len(), a.meta.n);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn centroid_rows_are_cluster_means() {
        let a = small_artifact();
        for c in 0..a.meta.k {
            let members: Vec<usize> = (0..a.meta.n).filter(|&i| a.labels[i] == c).collect();
            assert!(!members.is_empty());
            for d in 0..a.meta.dim {
                let mean: f64 = members.iter().map(|&i| a.embedding.row(i)[d]).sum::<f64>()
                    / members.len() as f64;
                let got = a.centroids.row(c)[d];
                assert!((mean - got).abs() < 1e-12, "cluster {c} dim {d}");
            }
        }
    }
}
