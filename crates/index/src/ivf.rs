//! The IVF (inverted-file) index: coarse quantizer + inverted lists +
//! probe-limited search, with exact-scan parity at full probe width.

use crate::{IndexError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mvag_data::codec::{get_f64s, get_u32s, get_u64s, seal, unseal};
use mvag_data::{FsWriter, LayoutWriter};
use mvag_sparse::{parallel, vecops, DenseMatrix, RowMatrix};
use sgla_core::kmeans::{kmeans, KMeansParams};
use std::path::Path;

/// `"SGIX"` in ASCII (SGla IndeX).
const MAGIC: u32 = 0x5347_4958;
/// Current index file format version.
pub const INDEX_FORMAT_VERSION: u16 = 1;

/// Configuration for [`IvfIndex::train`].
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Number of inverted lists (coarse centroids). `0` picks
    /// `⌈√rows⌉` — the classic IVF balance point where probing one
    /// list costs about as much as scoring all centroids.
    pub nlist: usize,
    /// Seed for the k-means quantizer training.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig { nlist: 0, seed: 23 }
    }
}

/// One scored candidate: a *global* node id and its cosine score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Global node id (`row_start + local row`).
    pub id: usize,
    /// Cosine similarity to the query (identical arithmetic to the
    /// exact scan).
    pub score: f64,
}

/// Work accounting of one search, for observability and the
/// sublinearity checks in `serve_bench`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IvfSearchStats {
    /// Inverted lists visited (`min(nprobe, nlist)`).
    pub lists_scanned: usize,
    /// Candidate rows scored (the query row itself is excluded).
    pub rows_scanned: usize,
}

/// An inverted-file index over the embedding rows of one artifact (a
/// full artifact or a `[row_start, row_end)` shard).
///
/// The index stores only *structure* — centroids and the list
/// membership of each local row. The embedding rows themselves stay
/// with their owner (the serving engine), which passes them into
/// [`IvfIndex::search`]; nothing is duplicated and the scored bytes
/// are exactly the bytes the exact scan reads.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    /// Node count `n` of the whole graph.
    n: usize,
    /// Embedding dimension.
    dim: usize,
    /// First global row covered, inclusive.
    row_start: usize,
    /// One past the last global row covered.
    row_end: usize,
    /// Seed the quantizer was trained with (provenance; 0 for
    /// externally supplied centroids).
    seed: u64,
    /// Coarse centroids, `nlist × dim`.
    centroids: DenseMatrix,
    /// Euclidean norms of the centroids (recomputed on decode).
    centroid_norms: Vec<f64>,
    /// List boundaries into `ids`, `nlist + 1` entries.
    offsets: Vec<usize>,
    /// Local row ids grouped by list, ascending within each list;
    /// every local row appears exactly once.
    ids: Vec<u32>,
}

impl IvfIndex {
    /// Trains an index over `emb` (the rows of one artifact covering
    /// global rows `[row_start, row_start + emb.nrows())` of a graph
    /// with `n` nodes): k-means over the unit-normalized rows via
    /// `sgla_core::kmeans`, then cosine assignment to the learned
    /// centroids.
    ///
    /// # Errors
    /// [`IndexError::InvalidArgument`] for empty/ill-shaped input,
    /// [`IndexError::Train`] if k-means fails.
    pub fn train(
        emb: &DenseMatrix,
        row_start: usize,
        n: usize,
        config: &IvfConfig,
    ) -> Result<IvfIndex> {
        let rows = emb.nrows();
        check_shape(emb, row_start, n)?;
        let nlist = if config.nlist == 0 {
            (rows as f64).sqrt().ceil() as usize
        } else {
            config.nlist
        }
        .clamp(1, rows);
        // Spherical flavor: cluster directions, not magnitudes — top-k
        // similarity is cosine, so the quantizer must partition by
        // angle. Zero rows stay zero and land wherever ties land.
        let mut unit = emb.clone();
        for r in 0..rows {
            vecops::normalize(unit.row_mut(r));
        }
        let params = KMeansParams {
            // A coarse quantizer needs rough Voronoi cells, not a
            // converged clustering; recall comes from nprobe.
            max_iters: 50,
            restarts: 4,
            seed: config.seed,
            ..KMeansParams::new(nlist)
        };
        let result = kmeans(&unit, &params)?;
        Self::assemble(result.centroids, emb, row_start, n, config.seed)
    }

    /// Builds an index around externally supplied `centroids` (e.g.
    /// the per-cluster centroids a trained SGLA artifact already
    /// stores — the paper's own clustering output doubling as the
    /// coarse quantizer). Rows are assigned by cosine similarity.
    ///
    /// # Errors
    /// [`IndexError::InvalidArgument`] on shape mismatches.
    pub fn from_centroids(
        centroids: &DenseMatrix,
        emb: &DenseMatrix,
        row_start: usize,
        n: usize,
    ) -> Result<IvfIndex> {
        check_shape(emb, row_start, n)?;
        if centroids.ncols() != emb.ncols() || centroids.nrows() == 0 {
            return Err(IndexError::InvalidArgument(format!(
                "centroids are {}x{}, embedding dim is {}",
                centroids.nrows(),
                centroids.ncols(),
                emb.ncols()
            )));
        }
        Self::assemble(centroids.clone(), emb, row_start, n, 0)
    }

    /// Assigns every row to its best centroid and freezes the lists.
    fn assemble(
        centroids: DenseMatrix,
        emb: &DenseMatrix,
        row_start: usize,
        n: usize,
        seed: u64,
    ) -> Result<IvfIndex> {
        let rows = emb.nrows();
        let nlist = centroids.nrows();
        let centroid_norms: Vec<f64> = (0..nlist)
            .map(|c| vecops::norm2(centroids.row(c)))
            .collect();
        // Cosine assignment; ties break toward the smaller centroid id
        // so assignment is deterministic and order-independent.
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for r in 0..rows {
            let row = emb.row(r);
            let rnorm = vecops::norm2(row);
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (c, &cnorm) in centroid_norms.iter().enumerate() {
                let denom = rnorm * cnorm;
                let score = if denom > 1e-300 {
                    vecops::dot(row, centroids.row(c)) / denom
                } else {
                    0.0
                };
                if score > best_score {
                    best_score = score;
                    best = c;
                }
            }
            lists[best].push(r as u32);
        }
        let mut offsets = Vec::with_capacity(nlist + 1);
        let mut ids = Vec::with_capacity(rows);
        offsets.push(0usize);
        for list in &lists {
            ids.extend_from_slice(list); // ascending by construction
            offsets.push(ids.len());
        }
        Ok(IvfIndex {
            n,
            dim: emb.ncols(),
            row_start,
            row_end: row_start + rows,
            seed,
            centroids,
            centroid_norms,
            offsets,
            ids,
        })
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Local rows covered by the index.
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// The `[row_start, row_end)` global row range this index covers.
    pub fn row_range(&self) -> (usize, usize) {
        (self.row_start, self.row_end)
    }

    /// Embedding dimension the index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Seed the quantizer was trained with (0 for externally supplied
    /// centroids).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The training configuration that reproduces this index's shape:
    /// same list count, same quantizer seed. This is what the
    /// incremental-update pipeline uses to *retrain* a sidecar index
    /// after its artifact's rows changed — a stale index must never be
    /// served (its lists would not cover the appended rows; engines
    /// reject the mismatch at load via
    /// [`IvfIndex::check_compatible`]), so invalidation means
    /// rebuilding with the original parameters over the new rows.
    pub fn config(&self) -> IvfConfig {
        IvfConfig {
            nlist: self.nlist(),
            seed: self.seed,
        }
    }

    /// The probe width used when a caller passes `nprobe = 0`:
    /// `⌈√nlist⌉` — sublinear in the list count while still covering a
    /// meaningful neighborhood of the query's cell.
    pub fn default_nprobe(&self) -> usize {
        (self.nlist() as f64).sqrt().ceil() as usize
    }

    /// Checks that this index matches the artifact it is about to
    /// serve (same graph size, dimension, and global row range).
    ///
    /// # Errors
    /// [`IndexError::InvalidArgument`] describing the first mismatch.
    pub fn check_compatible(
        &self,
        n: usize,
        dim: usize,
        row_start: usize,
        row_end: usize,
    ) -> Result<()> {
        if self.n != n || self.dim != dim || self.row_start != row_start || self.row_end != row_end
        {
            return Err(IndexError::InvalidArgument(format!(
                "index covers rows {}..{} of n = {} (dim {}), artifact has rows {row_start}..{row_end} of n = {n} (dim {dim})",
                self.row_start, self.row_end, self.n, self.dim
            )));
        }
        Ok(())
    }

    /// The `min(nprobe, nlist)` lists whose centroids score best
    /// against the query (cosine; ties toward the smaller list id).
    fn probe_lists(&self, qrow: &[f64], qnorm: f64, nprobe: usize) -> Vec<usize> {
        let nlist = self.nlist();
        let nprobe = nprobe.clamp(1, nlist);
        let mut top = TopK::new(nprobe);
        for c in 0..nlist {
            let denom = qnorm * self.centroid_norms[c];
            let score = if denom > 1e-300 {
                vecops::dot(qrow, self.centroids.row(c)) / denom
            } else {
                0.0
            };
            top.push(Scored { id: c, score });
        }
        top.into_sorted().into_iter().map(|s| s.id).collect()
    }

    /// Scores the query against the rows of the `nprobe` best lists
    /// and returns the top `k` (global ids, best first — score
    /// descending, id ascending; same total order as the exact scan).
    ///
    /// `emb`/`norms` are the owning artifact's local embedding rows and
    /// their precomputed Euclidean norms; `exclude` skips one global id
    /// (the query node itself, when known). `nprobe = 0` uses
    /// [`IvfIndex::default_nprobe`]; `nprobe >= nlist` scans every row
    /// and is bit-identical to the exact engine. With `threads > 1`
    /// large probes score their lists in parallel on the persistent
    /// `mvag_sparse` worker pool (per-list partial top-k's merge under
    /// the total order, so parallelism cannot change the answer).
    ///
    /// # Panics
    /// Debug-asserts that `emb`/`norms` match the indexed rows.
    // Every argument is load-bearing (row source, query, knobs); a
    // params struct would just rename the call sites' noise.
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &self,
        emb: &dyn RowMatrix,
        norms: &[f64],
        qrow: &[f64],
        qnorm: f64,
        k: usize,
        nprobe: usize,
        exclude: Option<usize>,
        threads: usize,
    ) -> (Vec<Scored>, IvfSearchStats) {
        debug_assert_eq!(emb.nrows(), self.rows(), "search: embedding rows");
        debug_assert_eq!(norms.len(), self.rows(), "search: norm count");
        debug_assert_eq!(emb.ncols(), self.dim, "search: embedding dim");
        let nprobe = if nprobe == 0 {
            self.default_nprobe()
        } else {
            nprobe
        };
        let probed = self.probe_lists(qrow, qnorm, nprobe);
        let candidates: usize = probed
            .iter()
            .map(|&c| self.offsets[c + 1] - self.offsets[c])
            .sum();
        let scan_list = |c: usize, top: &mut TopK<Scored>| -> usize {
            let mut scanned = 0usize;
            for &local in &self.ids[self.offsets[c]..self.offsets[c + 1]] {
                let local = local as usize;
                let global = self.row_start + local;
                if Some(global) == exclude {
                    continue;
                }
                // Identical arithmetic to the exact engine's blocked
                // scan: same dot kernel, same norm product, same
                // near-zero guard — scores are bit-equal per row.
                let denom = qnorm * norms[local];
                let score = if denom > 1e-300 {
                    vecops::dot(qrow, emb.row(local)) / denom
                } else {
                    0.0
                };
                top.push(Scored { id: global, score });
                scanned += 1;
            }
            scanned
        };
        // Parallelize across probed lists only when the scan is large
        // enough to amortize a pool dispatch; the merge is
        // order-independent (total order on distinct ids).
        let parallel_worthwhile = threads > 1 && probed.len() > 1 && candidates >= 1 << 12;
        let (top, rows_scanned) = if parallel_worthwhile {
            let partials = parallel::par_map(probed.len(), threads, |i| {
                let mut top = TopK::new(k);
                let scanned = scan_list(probed[i], &mut top);
                (top.into_sorted(), scanned)
            });
            let mut top = TopK::new(k);
            let mut scanned = 0usize;
            for (partial, s) in partials {
                scanned += s;
                for cand in partial {
                    top.push(cand);
                }
            }
            (top, scanned)
        } else {
            let mut top = TopK::new(k);
            let mut scanned = 0usize;
            for &c in &probed {
                scanned += scan_list(c, &mut top);
            }
            (top, scanned)
        };
        (
            top.into_sorted(),
            IvfSearchStats {
                lists_scanned: probed.len(),
                rows_scanned,
            },
        )
    }

    // -----------------------------------------------------------------
    // Codec: the workspace's sealed container (`mvag_data::codec::seal`)
    // around a bounds-checked body.

    /// Encodes the index into the versioned, checksummed binary format.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::with_capacity(1 << 12);
        body.put_u64(self.n as u64);
        body.put_u64(self.dim as u64);
        body.put_u64(self.row_start as u64);
        body.put_u64(self.row_end as u64);
        body.put_u64(self.seed);
        body.put_u64(self.nlist() as u64);
        for &v in self.centroids.data() {
            body.put_f64(v);
        }
        for &o in &self.offsets {
            body.put_u64(o as u64);
        }
        for &id in &self.ids {
            body.put_u32(id);
        }
        seal(MAGIC, INDEX_FORMAT_VERSION, body.freeze().as_ref())
    }

    /// Decodes and structurally validates an index: magic, version,
    /// length, checksum, then shape checks and a full
    /// coverage/ordering check of the inverted lists (every local row
    /// in exactly one list, ascending within each list).
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] on any structural problem.
    pub fn decode(bytes: Bytes) -> Result<IvfIndex> {
        let fail = |msg: &str| IndexError::Corrupt(msg.to_string());
        let (version, mut bytes) = unseal(bytes, MAGIC, "IVF index").map_err(|e| fail(&e))?;
        if version != INDEX_FORMAT_VERSION {
            return Err(fail(&format!(
                "unsupported index format version {version} (expected {INDEX_FORMAT_VERSION})"
            )));
        }
        if bytes.remaining() < 48 {
            return Err(fail("truncated meta"));
        }
        let n = bytes.get_u64() as usize;
        let dim = bytes.get_u64() as usize;
        let row_start = bytes.get_u64() as usize;
        let row_end = bytes.get_u64() as usize;
        let seed = bytes.get_u64();
        let nlist = bytes.get_u64() as usize;
        if row_start > row_end || row_end > n {
            return Err(fail("row range outside 0..n"));
        }
        let rows = row_end - row_start;
        // nlist may exceed rows (external centroids over a small
        // shard leave some lists empty); a hostile huge nlist fails
        // the bounds-checked centroid read below, never allocates.
        if nlist == 0 {
            return Err(fail("zero list count"));
        }
        if rows > u32::MAX as usize {
            return Err(fail("row count exceeds u32 id space"));
        }
        let centroid_count = nlist
            .checked_mul(dim)
            .ok_or_else(|| fail("centroid shape overflow"))?;
        let centroid_data =
            get_f64s(&mut bytes, centroid_count).ok_or_else(|| fail("truncated centroids"))?;
        let centroids = DenseMatrix::from_vec(nlist, dim, centroid_data)
            .map_err(|e| fail(&format!("bad centroid shape: {e}")))?;
        let offsets = get_u64s(&mut bytes, nlist + 1).ok_or_else(|| fail("truncated offsets"))?;
        if offsets[0] != 0 || *offsets.last().expect("nlist + 1 entries") != rows {
            return Err(fail("offsets do not span the rows"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(fail("offsets must be non-decreasing"));
        }
        let raw_ids = get_u32s(&mut bytes, rows).ok_or_else(|| fail("truncated list ids"))?;
        if bytes.remaining() != 0 {
            return Err(fail("trailing bytes after payload"));
        }
        // Coverage + ordering: ids form a permutation of 0..rows and
        // are strictly increasing inside each list.
        let mut seen = vec![false; rows];
        for list in 0..nlist {
            let span = &raw_ids[offsets[list]..offsets[list + 1]];
            for w in span.windows(2) {
                if w[0] >= w[1] {
                    return Err(fail("list ids not strictly increasing"));
                }
            }
            for &id in span {
                if id >= rows {
                    return Err(fail("list id out of range"));
                }
                if seen[id] {
                    return Err(fail("row assigned to more than one list"));
                }
                seen[id] = true;
            }
        }
        // seen is all-true here: rows entries, each flipped once.
        let centroid_norms = (0..nlist)
            .map(|c| vecops::norm2(centroids.row(c)))
            .collect();
        Ok(IvfIndex {
            n,
            dim,
            row_start,
            row_end,
            seed,
            centroids,
            centroid_norms,
            offsets,
            ids: raw_ids.into_iter().map(|id| id as u32).collect(),
        })
    }

    /// Saves the index to `path`, replacing any existing file by rename.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: &Path) -> Result<()> {
        FsWriter.replace(path, self.encode().as_ref())?;
        Ok(())
    }

    /// Loads and verifies an index from `path`.
    ///
    /// # Errors
    /// I/O failures and [`IndexError::Corrupt`].
    pub fn load(path: &Path) -> Result<IvfIndex> {
        let data = std::fs::read(path)?;
        IvfIndex::decode(Bytes::from(data))
    }
}

fn check_shape(emb: &DenseMatrix, row_start: usize, n: usize) -> Result<()> {
    if emb.nrows() == 0 || emb.ncols() == 0 {
        return Err(IndexError::InvalidArgument(format!(
            "cannot index an empty embedding ({}x{})",
            emb.nrows(),
            emb.ncols()
        )));
    }
    if row_start.checked_add(emb.nrows()).is_none_or(|end| end > n) {
        return Err(IndexError::InvalidArgument(format!(
            "rows {row_start}..{} outside 0..{n}",
            row_start.saturating_add(emb.nrows())
        )));
    }
    Ok(())
}

/// The serving total order on scored candidates: does `(score_a,
/// id_a)` rank strictly before `(score_b, id_b)`? Higher score wins;
/// equal scores prefer the smaller id. The order is total on distinct
/// ids, so the top-k of a union equals the merged top-k of any
/// partition — the property list-parallel search, cross-shard
/// merging, and the approx/exact bit-identity guarantee all rely on.
/// This is the **single definition** of that order; [`TopK`] is the
/// one collection built on it.
#[inline]
pub fn ranks_before(score_a: f64, id_a: usize, score_b: f64, id_b: usize) -> bool {
    score_a > score_b || (score_a == score_b && id_a < id_b)
}

/// A candidate that [`TopK`] can rank: its score and its id under
/// [`ranks_before`].
pub trait Ranked {
    /// `(score, id)` in the serving total order.
    fn rank_key(&self) -> (f64, usize);
}

impl Ranked for Scored {
    fn rank_key(&self) -> (f64, usize) {
        (self.score, self.id)
    }
}

/// Bounded best-`k` collection under [`ranks_before`]: the one top-k
/// collector behind IVF probe selection and list scans, the serving
/// engine's exact scan, and the cross-shard merge. Because the order
/// is total on distinct ids, the result does not depend on the order
/// of the pushes. `k = 0` collects nothing.
#[derive(Debug)]
pub struct TopK<T> {
    k: usize,
    /// Worst-first sorted vec; `k` is request-sized, so O(k) insertion
    /// beats heap constant factors.
    items: Vec<T>,
}

impl<T: Ranked> TopK<T> {
    /// An empty collection of at most `k` items.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            items: Vec::with_capacity(k.min(1024) + 1),
        }
    }

    fn better(a: &T, b: &T) -> bool {
        let ((score_a, id_a), (score_b, id_b)) = (a.rank_key(), b.rank_key());
        ranks_before(score_a, id_a, score_b, id_b)
    }

    /// Offers one candidate; it is kept while it ranks among the best
    /// `k` seen so far.
    pub fn push(&mut self, cand: T) {
        if self.k == 0 {
            return;
        }
        if self.items.len() == self.k {
            // items[0] is the current worst.
            if !Self::better(&cand, &self.items[0]) {
                return;
            }
            self.items.remove(0);
        }
        let pos = self
            .items
            .iter()
            .position(|existing| Self::better(existing, &cand))
            .unwrap_or(self.items.len());
        self.items.insert(pos, cand);
    }

    /// The kept items, best first.
    pub fn into_sorted(self) -> Vec<T> {
        let mut v = self.items;
        v.reverse();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic clustered vectors: `blobs` directions, points
    /// scattered around each.
    fn blob_matrix(n: usize, dim: usize, blobs: usize, seed: u64) -> DenseMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        // Blob centers.
        let centers: Vec<Vec<f64>> = (0..blobs)
            .map(|_| (0..dim).map(|_| next() * 10.0).collect())
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = &centers[i % blobs];
            for &cd in c.iter() {
                data.push(cd + next());
            }
        }
        DenseMatrix::from_vec(n, dim, data).unwrap()
    }

    fn norms_of(emb: &DenseMatrix) -> Vec<f64> {
        (0..emb.nrows())
            .map(|r| vecops::norm2(emb.row(r)))
            .collect()
    }

    /// Reference exact top-k under the serving total order.
    fn brute_force(
        emb: &DenseMatrix,
        norms: &[f64],
        qrow: &[f64],
        qnorm: f64,
        k: usize,
        exclude: Option<usize>,
        row_start: usize,
    ) -> Vec<Scored> {
        let mut all: Vec<Scored> = (0..emb.nrows())
            .filter(|&r| Some(row_start + r) != exclude)
            .map(|r| {
                let denom = qnorm * norms[r];
                let score = if denom > 1e-300 {
                    vecops::dot(qrow, emb.row(r)) / denom
                } else {
                    0.0
                };
                Scored {
                    id: row_start + r,
                    score,
                }
            })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    #[test]
    fn full_probe_matches_brute_force_bit_exactly() {
        let emb = blob_matrix(120, 6, 4, 7);
        let norms = norms_of(&emb);
        let index = IvfIndex::train(&emb, 0, 120, &IvfConfig::default()).unwrap();
        for q in [0usize, 13, 77, 119] {
            let (got, stats) = index.search(
                &emb,
                &norms,
                emb.row(q),
                norms[q],
                9,
                index.nlist(),
                Some(q),
                1,
            );
            let want = brute_force(&emb, &norms, emb.row(q), norms[q], 9, Some(q), 0);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "query {q}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "query {q}");
            }
            assert_eq!(stats.rows_scanned, 119);
            assert_eq!(stats.lists_scanned, index.nlist());
        }
    }

    #[test]
    fn sharded_rows_report_global_ids() {
        let emb = blob_matrix(80, 5, 3, 11);
        let shard = DenseMatrix::from_vec(30, 5, emb.data()[20 * 5..50 * 5].to_vec()).unwrap();
        let norms = norms_of(&shard);
        let index = IvfIndex::train(&shard, 20, 80, &IvfConfig::default()).unwrap();
        assert_eq!(index.row_range(), (20, 50));
        let (hits, _) = index.search(
            &shard,
            &norms,
            shard.row(0),
            norms[0],
            5,
            index.nlist(),
            Some(20),
            1,
        );
        assert!(hits.iter().all(|s| (20..50).contains(&s.id)));
        assert!(hits.iter().all(|s| s.id != 20), "exclude respected");
    }

    #[test]
    fn partial_probe_is_sublinear_and_subset_correct() {
        let emb = blob_matrix(300, 8, 6, 5);
        let norms = norms_of(&emb);
        let index = IvfIndex::train(&emb, 0, 300, &IvfConfig { nlist: 16, seed: 3 }).unwrap();
        let (hits, stats) = index.search(&emb, &norms, emb.row(7), norms[7], 10, 4, Some(7), 1);
        assert_eq!(stats.lists_scanned, 4);
        assert!(
            stats.rows_scanned < 299,
            "partial probe must scan fewer rows"
        );
        // Every reported score must equal the exact score of that row.
        let exact = brute_force(&emb, &norms, emb.row(7), norms[7], 299, Some(7), 0);
        for h in &hits {
            let reference = exact.iter().find(|e| e.id == h.id).unwrap();
            assert_eq!(h.score.to_bits(), reference.score.to_bits());
        }
    }

    #[test]
    fn recall_is_high_on_clustered_data() {
        let emb = blob_matrix(600, 10, 8, 13);
        let norms = norms_of(&emb);
        let index = IvfIndex::train(&emb, 0, 600, &IvfConfig { nlist: 24, seed: 9 }).unwrap();
        let nprobe = 6;
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in (0..600).step_by(17) {
            let (approx, _) =
                index.search(&emb, &norms, emb.row(q), norms[q], 10, nprobe, Some(q), 1);
            let exact = brute_force(&emb, &norms, emb.row(q), norms[q], 10, Some(q), 0);
            total += exact.len();
            hit += exact
                .iter()
                .filter(|e| approx.iter().any(|a| a.id == e.id))
                .count();
        }
        let recall = hit as f64 / total as f64;
        assert!(
            recall >= 0.9,
            "recall@10 = {recall:.3} with nprobe {nprobe}"
        );
    }

    #[test]
    fn parallel_and_sequential_search_agree() {
        let emb = blob_matrix(400, 6, 5, 21);
        let norms = norms_of(&emb);
        let index = IvfIndex::train(&emb, 0, 400, &IvfConfig { nlist: 20, seed: 1 }).unwrap();
        for &nprobe in &[3usize, 20] {
            let (seq, seq_stats) =
                index.search(&emb, &norms, emb.row(42), norms[42], 7, nprobe, Some(42), 1);
            let (par, par_stats) =
                index.search(&emb, &norms, emb.row(42), norms[42], 7, nprobe, Some(42), 4);
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.id, p.id);
                assert_eq!(s.score.to_bits(), p.score.to_bits());
            }
            assert_eq!(seq_stats, par_stats);
        }
    }

    #[test]
    fn reused_centroids_build_valid_lists() {
        let emb = blob_matrix(90, 4, 3, 17);
        let centroids = DenseMatrix::from_vec(3, 4, emb.data()[0..12].to_vec()).unwrap();
        let index = IvfIndex::from_centroids(&centroids, &emb, 0, 90).unwrap();
        assert_eq!(index.nlist(), 3);
        assert_eq!(index.rows(), 90);
        // Round-trips like any trained index.
        let back = IvfIndex::decode(index.encode()).unwrap();
        assert_eq!(index, back);
    }

    #[test]
    fn more_centroids_than_rows_round_trips() {
        // External centroids (e.g. an artifact's k clusters) can
        // outnumber a tiny shard's rows; the empty lists must survive
        // the codec.
        let emb = blob_matrix(3, 4, 2, 19);
        let centroids = blob_matrix(5, 4, 5, 7);
        let index = IvfIndex::from_centroids(&centroids, &emb, 10, 20).unwrap();
        assert_eq!(index.nlist(), 5);
        assert_eq!(index.rows(), 3);
        let back = IvfIndex::decode(index.encode()).unwrap();
        assert_eq!(index, back);
        let norms = norms_of(&emb);
        let (hits, stats) = index.search(
            &emb,
            &norms,
            emb.row(1),
            norms[1],
            2,
            index.nlist(),
            Some(11),
            1,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(stats.rows_scanned, 2);
    }

    #[test]
    fn codec_roundtrip_bit_exact() {
        let emb = blob_matrix(64, 5, 4, 3);
        let index = IvfIndex::train(&emb, 0, 64, &IvfConfig { nlist: 7, seed: 5 }).unwrap();
        let back = IvfIndex::decode(index.encode()).unwrap();
        assert_eq!(index, back);
    }

    #[test]
    fn file_roundtrip() {
        let emb = blob_matrix(40, 4, 2, 29);
        let index = IvfIndex::train(&emb, 0, 40, &IvfConfig::default()).unwrap();
        let path = std::env::temp_dir().join(format!("sgla-ivf-test-{}.ivf", std::process::id()));
        index.save(&path).unwrap();
        let back = IvfIndex::load(&path).unwrap();
        assert_eq!(index, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_builds_rejected() {
        let empty = DenseMatrix::zeros(0, 4);
        assert!(IvfIndex::train(&empty, 0, 0, &IvfConfig::default()).is_err());
        let emb = blob_matrix(10, 3, 2, 1);
        assert!(
            IvfIndex::train(&emb, 5, 10, &IvfConfig::default()).is_err(),
            "rows past n must be rejected"
        );
        let bad_centroids = DenseMatrix::zeros(2, 7);
        assert!(IvfIndex::from_centroids(&bad_centroids, &emb, 0, 10).is_err());
    }

    #[test]
    fn nlist_clamps_and_default_nprobe() {
        let emb = blob_matrix(9, 3, 2, 1);
        let index = IvfIndex::train(
            &emb,
            0,
            9,
            &IvfConfig {
                nlist: 100,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(index.nlist(), 9, "nlist clamps to rows");
        let auto = IvfIndex::train(&emb, 0, 9, &IvfConfig::default()).unwrap();
        assert_eq!(auto.nlist(), 3, "auto nlist is ceil(sqrt(rows))");
        assert_eq!(auto.default_nprobe(), 2);
    }

    #[test]
    fn topk_orders_and_bounds() {
        let mut h = TopK::new(3);
        for (id, score) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.9), (4, -0.2)] {
            h.push(Scored { id, score });
        }
        let out = h.into_sorted();
        let ids: Vec<usize> = out.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3, 2], "0.9 tie prefers smaller id");
    }
}
