//! The embedding row store: the seam between the codec and the query
//! engine that decides whether rows live on the heap or in the page
//! cache.
//!
//! [`EmbeddingStore`] answers the one question every scan kernel,
//! centroid lookup, and IVF probe asks — `row(i) -> &[f64]` — from two
//! backings behind the same API:
//!
//! * **Owned** — the embedding matrix and per-row norms as plain heap
//!   allocations (in-memory artifacts, `--mmap off`, every non-Linux
//!   platform, and training/compaction paths that mutate rows).
//! * **Mapped** (Linux, little-endian) — a private read-only `mmap` of
//!   a v5 artifact file, rows borrowed in place from the 64-byte
//!   aligned little-endian embedding section. Opening faults only the
//!   head and the small sections (labels, centroids); embedding pages
//!   stream in on demand as queries touch them, so time-to-first-query
//!   and resident memory are decoupled from artifact size.
//!
//! Integrity model for mapped opens: the head CRC and the label /
//! centroid section CRCs are verified eagerly (small, already
//! faulted); the norms and embedding sections are *not* checksummed —
//! doing so would fault every page the map exists to avoid. The
//! whole-body CRC still protects owned loads, `compact` verification,
//! and layout repair; see `docs/ARCHITECTURE.md` ("Out-of-core
//! serving") for the full matrix.

use crate::artifact::{Artifact, ArtifactMeta};
use crate::{Result, ServeError};
use mvag_data::manifest::ShardManifest;
use mvag_sparse::{vecops, CsrMatrix, DenseMatrix, RowMatrix};
use std::path::Path;

/// Whether this build can serve memory-mapped v5 artifacts (Linux and
/// little-endian — the zero-copy sections are raw little-endian
/// `f64`s). Elsewhere every open falls back to the owned path.
pub const MMAP_SUPPORTED: bool = cfg!(all(target_os = "linux", target_endian = "little"));

/// Whether artifacts are served memory-mapped or heap-owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MmapMode {
    /// Map when the platform supports it ([`MMAP_SUPPORTED`]) and the
    /// shard is not pending a rebase; silently fall back to an owned
    /// load otherwise. What `sgla-serve serve` defaults to.
    Auto,
    /// Require mapping; fail instead of falling back.
    On,
    /// Never map (every load is heap-owned). The library default, so
    /// embedding existing [`crate::RouterConfig`] users see unchanged
    /// residency behaviour.
    #[default]
    Off,
}

impl std::str::FromStr for MmapMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "auto" => Ok(MmapMode::Auto),
            "on" => Ok(MmapMode::On),
            "off" => Ok(MmapMode::Off),
            other => Err(format!("invalid --mmap value '{other}' (auto|on|off)")),
        }
    }
}

impl std::fmt::Display for MmapMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MmapMode::Auto => "auto",
            MmapMode::On => "on",
            MmapMode::Off => "off",
        })
    }
}

/// Embedding rows plus their precomputed Euclidean norms, owned or
/// memory-mapped, behind one `row(i) -> &[f64]` API.
pub enum EmbeddingStore {
    /// Heap-resident rows and norms.
    Owned {
        /// The `rows × dim` embedding matrix.
        embedding: DenseMatrix,
        /// Euclidean norm of each row.
        norms: Vec<f64>,
    },
    /// Rows borrowed from a mapped v5 artifact file.
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    Mapped(MappedStore),
}

/// The mapped backing: the whole artifact file mapped privately, with
/// the norms and embedding sections addressed by offset.
#[cfg(all(target_os = "linux", target_endian = "little"))]
pub struct MappedStore {
    map: crate::sys::Mmap,
    rows: usize,
    dim: usize,
    norms_offset: usize,
    emb_offset: usize,
}

#[cfg(all(target_os = "linux", target_endian = "little"))]
impl MappedStore {
    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        self.map
            .f64_slice(self.emb_offset + r * self.dim * 8, self.dim)
            .expect("row range validated at open")
    }

    #[inline]
    fn norms(&self) -> &[f64] {
        self.map
            .f64_slice(self.norms_offset, self.rows)
            .expect("norms range validated at open")
    }
}

impl EmbeddingStore {
    /// Wraps heap-resident rows, computing the per-row norms unless
    /// the caller already has them (from a v5 file's norms section).
    pub fn owned(embedding: DenseMatrix, norms: Option<Vec<f64>>) -> Self {
        let norms = match norms {
            Some(n) => {
                debug_assert_eq!(n.len(), embedding.nrows());
                n
            }
            None => (0..embedding.nrows())
                .map(|r| vecops::norm2(embedding.row(r)))
                .collect(),
        };
        EmbeddingStore::Owned { embedding, norms }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        match self {
            EmbeddingStore::Owned { embedding, .. } => embedding.nrows(),
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.rows,
        }
    }

    /// Row length (embedding dimension).
    #[inline]
    pub fn ncols(&self) -> usize {
        match self {
            EmbeddingStore::Owned { embedding, .. } => embedding.ncols(),
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.dim,
        }
    }

    /// Row `r` as a borrowed slice (zero-copy from the map when
    /// mapped).
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        match self {
            EmbeddingStore::Owned { embedding, .. } => embedding.row(r),
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.row(r),
        }
    }

    /// Euclidean norms of every row, one per row.
    #[inline]
    pub fn norms(&self) -> &[f64] {
        match self {
            EmbeddingStore::Owned { norms, .. } => norms,
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.norms(),
        }
    }

    /// `"owned"` or `"mapped"` (for `/stats` and `/metrics`).
    pub fn kind(&self) -> &'static str {
        match self {
            EmbeddingStore::Owned { .. } => "owned",
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(_) => "mapped",
        }
    }

    /// Whether the rows are served from a memory map.
    pub fn is_mapped(&self) -> bool {
        !matches!(self, EmbeddingStore::Owned { .. })
    }

    /// Heap bytes pinned by this store (embedding + norms when owned;
    /// zero when mapped — the pages belong to the page cache).
    pub fn owned_bytes(&self) -> u64 {
        match self {
            EmbeddingStore::Owned { embedding, norms } => {
                (embedding.data().len() * 8 + norms.len() * 8) as u64
            }
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(_) => 0,
        }
    }

    /// Bytes of address space mapped by this store (the whole artifact
    /// file when mapped; zero when owned).
    pub fn mapped_bytes(&self) -> u64 {
        match self {
            EmbeddingStore::Owned { .. } => 0,
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.map.len() as u64,
        }
    }

    /// Hints the kernel that this store's pages will not be needed
    /// soon (`madvise(MADV_DONTNEED)`) — the mapped-layout analogue of
    /// evicting an owned shard under `--max-resident`. Returns whether
    /// a hint was actually issued (owned stores have no pages to
    /// hint). Purely advisory: the next access faults pages back in
    /// with identical contents.
    pub fn advise_dontneed(&self) -> bool {
        match self {
            EmbeddingStore::Owned { .. } => false,
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.map.advise(crate::sys::MADV_DONTNEED).is_ok(),
        }
    }

    /// Hints the kernel that access will be random point lookups (the
    /// serving access pattern — disables readahead so a top-k query
    /// does not drag neighbouring rows into memory).
    pub fn advise_random(&self) -> bool {
        match self {
            EmbeddingStore::Owned { .. } => false,
            #[cfg(all(target_os = "linux", target_endian = "little"))]
            EmbeddingStore::Mapped(m) => m.map.advise(crate::sys::MADV_RANDOM).is_ok(),
        }
    }
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("kind", &self.kind())
            .field("nrows", &self.nrows())
            .field("ncols", &self.ncols())
            .finish()
    }
}

impl RowMatrix for EmbeddingStore {
    #[inline]
    fn nrows(&self) -> usize {
        EmbeddingStore::nrows(self)
    }
    #[inline]
    fn ncols(&self) -> usize {
        EmbeddingStore::ncols(self)
    }
    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        EmbeddingStore::row(self, r)
    }
}

/// A v5 artifact opened for out-of-core serving: the query-side state
/// decoded owned (meta, weights, labels, centroids, tombstones) and
/// the big sections left in the map. `artifact.embedding` is an empty
/// placeholder (rows live in `store`) and `artifact.laplacian` is an
/// empty `0 × n` matrix (queries never read it, and decoding it would
/// fault its pages).
#[derive(Debug)]
pub struct MappedArtifact {
    /// The query-side artifact state (embedding/laplacian empty).
    pub artifact: Artifact,
    /// The mapped row store (norms included).
    pub store: EmbeddingStore,
}

/// Per-backend memory accounting for `/stats` and `/metrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreMemory {
    /// Heap bytes pinned by resident stores (embeddings + norms).
    pub owned_bytes: u64,
    /// Bytes of mapped address space (page-cache backed, reclaimable).
    pub mapped_bytes: u64,
    /// Store kind per shard slot: `"owned"`, `"mapped"`, or `"-"`
    /// (not resident). Monolithic backends report one entry.
    pub stores: Vec<String>,
    /// How `--max-resident` is enforced: `"none"` (no budget),
    /// `"evict"` (owned shards are dropped), or `"madvise"` (mapped
    /// shards get a page-cache hint instead).
    pub resident_hint: String,
}

/// Opens a monolithic v5 artifact memory-mapped.
///
/// # Errors
/// [`ServeError::InvalidArgument`] on platforms without mmap support
/// (callers fall back to [`Artifact::load`]); [`ServeError::Corrupt`]
/// for malformed files and older formats; I/O errors from the
/// open/map syscalls.
#[cfg(all(target_os = "linux", target_endian = "little"))]
pub fn open_mapped(path: &Path) -> Result<MappedArtifact> {
    let file = std::fs::File::open(path)?;
    let map = crate::sys::Mmap::map_file(&file)?;
    mapped_from(map)
}

/// Stub for platforms without mmap support: always errors, callers
/// fall back to owned loading.
#[cfg(not(all(target_os = "linux", target_endian = "little")))]
pub fn open_mapped(path: &Path) -> Result<MappedArtifact> {
    let _ = path;
    Err(ServeError::InvalidArgument(
        "memory-mapped serving requires Linux on a little-endian target".into(),
    ))
}

/// Opens shard `idx` of a sharded layout memory-mapped, cross-checking
/// the manifest entry (file size; row range and graph shape). Stale
/// entries (pending rebase) are rejected — the router falls back to
/// the owned `read_shard_with_norms` path for those.
///
/// # Errors
/// See [`open_mapped`]; additionally [`ServeError::Corrupt`] when the
/// file disagrees with its manifest entry.
pub fn open_shard_mapped(
    dir: &Path,
    manifest: &ShardManifest,
    idx: usize,
) -> Result<MappedArtifact> {
    let entry = &manifest.shards[idx];
    let fail = |msg: String| ServeError::Corrupt(format!("shard {idx} ({}): {msg}", entry.file));
    if entry.is_stale() {
        return Err(ServeError::InvalidArgument(format!(
            "shard {idx} is stale (pending rebase) and cannot be served mapped"
        )));
    }
    let opened = open_mapped(&dir.join(&entry.file))?;
    let m = &opened.artifact.meta;
    if entry.bytes != 0 && opened.store.mapped_bytes() != entry.bytes {
        return Err(fail(format!(
            "file is {} bytes, manifest says {}",
            opened.store.mapped_bytes(),
            entry.bytes
        )));
    }
    if m.row_start != entry.row_start || m.row_end != entry.row_end {
        return Err(fail(format!(
            "covers rows {}..{}, manifest says {}..{}",
            m.row_start, m.row_end, entry.row_start, entry.row_end
        )));
    }
    if m.n != manifest.n
        || m.k != manifest.k
        || m.dim != manifest.dim
        || m.dataset != manifest.dataset
    {
        return Err(fail("shard metadata disagrees with the manifest".into()));
    }
    Ok(opened)
}

/// Builds a [`MappedArtifact`] from a fresh map: parses and verifies
/// the v5 head, checks the small sections' CRCs, decodes the
/// query-side state, and validates every invariant the engine relies
/// on — without touching a single laplacian or embedding page.
#[cfg(all(target_os = "linux", target_endian = "little"))]
fn mapped_from(map: crate::sys::Mmap) -> Result<MappedArtifact> {
    use crate::artifact::parse_v5_head;
    use bytes::Buf;

    let fail = |msg: String| ServeError::Corrupt(msg);
    let head = parse_v5_head(map.as_slice())?;
    head.verify_head_crc(map.as_slice())?;
    let raw = map.as_slice();
    let meta = head.meta.clone();
    let rows = meta.rows();

    // Small sections: CRC then decode, owned. Section ids are fixed
    // by parse_v5_head (1 = laplacian, 2 = labels, 3 = centroids,
    // 4 = norms, 5 = embedding).
    let verified = |i: usize| -> Result<&[u8]> {
        let s = head.sections[i];
        let payload = &raw[s.offset..s.offset + s.len];
        if crate::artifact::crc32(payload) != s.crc32 {
            return Err(fail(format!(
                "{} section checksum mismatch (bytes were altered)",
                s.name()
            )));
        }
        Ok(payload)
    };
    let mut lab = bytes::Bytes::from(verified(1)?.to_vec());
    if lab.remaining() < 8 {
        return Err(fail("truncated label count".into()));
    }
    let num_labels = lab.get_u64() as usize;
    let labels = mvag_data::codec::get_u32s(&mut lab, num_labels)
        .ok_or_else(|| fail("truncated labels".into()))?;
    if lab.remaining() != 0 {
        return Err(fail("trailing bytes in the label section".into()));
    }
    let mut cen = bytes::Bytes::from(verified(2)?.to_vec());
    if cen.remaining() < 16 {
        return Err(fail("centroids: truncated header".into()));
    }
    let c_rows = cen.get_u64() as usize;
    let c_cols = cen.get_u64() as usize;
    let count = c_rows
        .checked_mul(c_cols)
        .ok_or_else(|| fail("centroids: shape overflow".into()))?;
    let data = mvag_data::codec::get_f64s(&mut cen, count)
        .ok_or_else(|| fail("centroids: truncated data".into()))?;
    let centroids =
        DenseMatrix::from_vec(c_rows, c_cols, data).map_err(|e| fail(format!("centroids: {e}")))?;

    // Big sections: geometry only (length must frame rows exactly and
    // sit 8-byte aligned — guaranteed by the 64-byte section
    // alignment, revalidated by the checked borrow).
    let norms_s = head.sections[3];
    let emb_s = head.sections[4];
    if map.f64_slice(norms_s.offset, rows).is_none() || norms_s.len != rows * 8 {
        return Err(fail(
            "norms section length does not match the row count".into(),
        ));
    }
    let emb_count = rows
        .checked_mul(meta.dim)
        .ok_or_else(|| fail("embedding shape overflow".into()))?;
    if map.f64_slice(emb_s.offset, emb_count).is_none() || emb_s.len != emb_count * 8 {
        return Err(fail(
            "embedding section length does not match rows × dim".into(),
        ));
    }

    // Engine invariants normally enforced by Artifact::validate()
    // (which cannot run here: the embedding stays in the map).
    validate_query_state(&meta, &labels, &centroids, &head.weights, &head.tombstones)?;

    let artifact = Artifact {
        meta,
        weights: head.weights.clone(),
        laplacian: CsrMatrix::from_raw_parts(0, head.meta.n, vec![0], Vec::new(), Vec::new())
            .map_err(|e| fail(format!("placeholder laplacian: {e}")))?,
        labels,
        centroids,
        embedding: DenseMatrix::zeros(0, 0),
        tombstones: head.tombstones,
    };
    let store = EmbeddingStore::Mapped(MappedStore {
        map,
        rows,
        dim: artifact.meta.dim,
        norms_offset: norms_s.offset,
        emb_offset: emb_s.offset,
    });
    // Serving is point lookups; readahead would fault pages queries
    // never asked for.
    store.advise_random();
    Ok(MappedArtifact { artifact, store })
}

/// The subset of [`Artifact::validate`] the mapped path can and must
/// check: everything except the laplacian/embedding shapes (the
/// former is skipped entirely, the latter is framed by the section
/// geometry checks above).
fn validate_query_state(
    meta: &ArtifactMeta,
    labels: &[usize],
    centroids: &DenseMatrix,
    weights: &[f64],
    tombstones: &[usize],
) -> Result<()> {
    let fail = |msg: String| Err(ServeError::Corrupt(msg));
    if meta.row_start > meta.row_end || meta.row_end > meta.n {
        return fail(format!(
            "row range {}..{} outside 0..{}",
            meta.row_start, meta.row_end, meta.n
        ));
    }
    let rows = meta.rows();
    if labels.len() != rows {
        return fail(format!("{} labels for {rows} rows in range", labels.len()));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= meta.k) {
        return fail(format!("label {bad} >= k = {}", meta.k));
    }
    if centroids.nrows() != meta.k || centroids.ncols() != meta.dim {
        return fail(format!(
            "centroids are {}x{} for k = {}, dim = {}",
            centroids.nrows(),
            centroids.ncols(),
            meta.k,
            meta.dim
        ));
    }
    if weights.is_empty() {
        return fail("no view weights".to_string());
    }
    for pair in tombstones.windows(2) {
        if pair[0] >= pair[1] {
            return fail(format!(
                "tombstones not strictly increasing ({} then {})",
                pair[0], pair[1]
            ));
        }
    }
    if let (Some(&first), Some(&last)) = (tombstones.first(), tombstones.last()) {
        if first < meta.row_start || last >= meta.row_end {
            return fail(format!(
                "tombstones {first}..={last} outside the row range {}..{}",
                meta.row_start, meta.row_end
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrainConfig;

    fn small_artifact() -> Artifact {
        let mvag = mvag_graph::toy::toy_mvag(60, 2, 11);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        Artifact::train(&mvag, &config).unwrap()
    }

    #[test]
    fn owned_store_serves_rows_and_norms() {
        let a = small_artifact();
        let store = EmbeddingStore::owned(a.embedding.clone(), None);
        assert_eq!(store.kind(), "owned");
        assert!(!store.is_mapped());
        assert_eq!(store.nrows(), 60);
        assert_eq!(store.ncols(), 8);
        assert_eq!(store.row(13), a.embedding.row(13));
        assert_eq!(store.norms().len(), 60);
        assert_eq!(
            store.norms()[13].to_bits(),
            vecops::norm2(a.embedding.row(13)).to_bits()
        );
        assert!(store.owned_bytes() > 0);
        assert_eq!(store.mapped_bytes(), 0);
        assert!(!store.advise_dontneed(), "owned stores have no pages");
        // Precomputed norms are taken verbatim.
        let canned: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let store = EmbeddingStore::owned(a.embedding.clone(), Some(canned.clone()));
        assert_eq!(store.norms(), &canned[..]);
    }

    #[cfg(all(target_os = "linux", target_endian = "little"))]
    #[test]
    fn mapped_store_is_bit_identical_to_owned() {
        let mut a = small_artifact();
        a.tombstones = vec![5, 41];
        let dir = std::env::temp_dir().join(format!("sgla-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.sgla");
        a.save(&path).unwrap();

        let opened = open_mapped(&path).unwrap();
        assert_eq!(opened.store.kind(), "mapped");
        assert!(opened.store.is_mapped());
        assert_eq!(opened.store.owned_bytes(), 0);
        assert_eq!(
            opened.store.mapped_bytes(),
            std::fs::metadata(&path).unwrap().len()
        );
        assert_eq!(opened.artifact.meta, a.meta);
        assert_eq!(opened.artifact.labels, a.labels);
        assert_eq!(opened.artifact.centroids, a.centroids);
        assert_eq!(opened.artifact.tombstones, a.tombstones);
        assert_eq!(opened.artifact.weights, a.weights);
        for r in 0..60 {
            let owned_row = a.embedding.row(r);
            let mapped_row = opened.store.row(r);
            assert_eq!(
                owned_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                mapped_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row {r}"
            );
            assert_eq!(
                opened.store.norms()[r].to_bits(),
                vecops::norm2(owned_row).to_bits(),
                "norm {r}"
            );
        }
        // Page-cache hints are accepted on a live map.
        assert!(opened.store.advise_dontneed());
        assert_eq!(opened.store.row(30), a.embedding.row(30));

        // Pre-v5 files are refused with the migration hint.
        let v4_path = dir.join("toy-v4.sgla");
        let v4 = crate::compact::legacy::encode(&a, 4).unwrap();
        std::fs::write(&v4_path, v4.as_ref()).unwrap();
        let err = open_mapped(&v4_path).unwrap_err();
        assert!(err.to_string().contains("sgla-serve compact"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(all(target_os = "linux", target_endian = "little"))]
    #[test]
    fn mapped_open_detects_small_section_corruption_but_not_padding() {
        let a = small_artifact();
        let dir = std::env::temp_dir().join(format!("sgla-store-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.sgla");
        a.save(&path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let head = crate::artifact::parse_v5_head(&raw).unwrap();

        // A flipped byte in the labels payload fails the eager
        // per-section CRC even though the mapped path never computes
        // the whole-body CRC.
        let mut bad = raw.clone();
        bad[head.sections[1].offset + 9] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = open_mapped(&path).unwrap_err();
        assert!(err.to_string().contains("labels section checksum"), "{err}");

        // A flipped byte in the head fails the head CRC (flip a
        // reserved section-table word so parsing itself still
        // succeeds).
        let table_at = head.head_end - 4 - 5 * 32;
        let mut bad = raw.clone();
        bad[table_at + 4] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = open_mapped(&path).unwrap_err();
        assert!(err.to_string().contains("head checksum"), "{err}");

        // A flipped byte in inter-section *padding* is invisible to
        // the mapped fast path (the owned decoder still rejects it via
        // the whole-body CRC) — the documented trade-off.
        let pad_at = head.sections[0].offset - 1;
        assert_eq!(raw[pad_at], 0);
        let mut bad = raw.clone();
        bad[pad_at] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            open_mapped(&path).is_ok(),
            "padding is outside the mapped trust boundary"
        );
        assert!(Artifact::load(&path).is_err(), "owned path still rejects");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(all(target_os = "linux", target_endian = "little"))]
    #[test]
    fn mapped_open_rejects_truncation_and_misaligned_sections() {
        let a = small_artifact();
        let dir = std::env::temp_dir().join(format!("sgla-store-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.sgla");
        a.save(&path).unwrap();
        let raw = std::fs::read(&path).unwrap();

        // Every strided prefix (plus all short ones) must error
        // cleanly: the mapped open's bounds come from the parsed head,
        // so a file cut anywhere — mid-header, mid-table, mid-section
        // — must never produce an out-of-bounds borrow or a panic.
        let cut = dir.join("cut.sgla");
        for len in (0..raw.len()).step_by(97).chain(1..32) {
            std::fs::write(&cut, &raw[..len]).unwrap();
            assert!(open_mapped(&cut).is_err(), "prefix of {len} mapped");
        }

        // A section offset bent off its 64-byte alignment fails the
        // head's structural validation before any payload page is
        // touched (no CRC re-stamping needed: geometry is checked
        // first).
        let head = crate::artifact::parse_v5_head(&raw).unwrap();
        let table_at = head.head_end - 4 - 5 * 32;
        let emb_entry = table_at + 4 * 32;
        let mut bad = raw.clone();
        let off = u64::from_be_bytes(bad[emb_entry + 8..emb_entry + 16].try_into().unwrap());
        bad[emb_entry + 8..emb_entry + 16].copy_from_slice(&(off + 8).to_be_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = open_mapped(&path).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "unexpected {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
