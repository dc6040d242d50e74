//! # mvag-index — IVF approximate top-k over embedding rows
//!
//! Serving exact top-k is `O(n · dim)` per query: every embedding row
//! is scored against the query. This crate makes top-k *sublinear* for
//! large artifacts with a classic inverted-file (IVF) index:
//!
//! 1. **Train** a coarse quantizer — `nlist` centroids over the
//!    (unit-normalized) embedding rows, via the workspace's own
//!    `sgla_core::kmeans` — or reuse externally supplied centroids
//!    (e.g. the cluster centroids an SGLA artifact already carries).
//! 2. **Assign** every row to the centroid with the highest cosine
//!    similarity, forming `nlist` inverted lists.
//! 3. **Search** by scoring the query against the centroids, scanning
//!    only the rows of the `nprobe` best lists, and keeping the top
//!    `k` — the exact cosine arithmetic of the full scan, applied to a
//!    fraction of the rows.
//!
//! Two properties the serving layer builds on:
//!
//! * **Exact-scan parity at `nprobe = nlist`.** Probing every list
//!   visits every row exactly once; the per-row score uses the same
//!   `dot(q, row) / (‖q‖ · ‖row‖)` arithmetic (identical `vecops`
//!   calls) and the same total candidate order (score descending, id
//!   ascending) as the exact engine, so the answer is **bit-identical**
//!   to a full scan — the degradation knob goes all the way to "off".
//! * **Row-range sharding.** An index covers the same
//!   `[row_start, row_end)` global row range as an artifact shard and
//!   reports global ids, so a shard router can fan one query out across
//!   per-shard indexes and merge, exactly as it does for exact scans.
//!
//! The on-disk format follows the workspace codec conventions
//! (`mvag_data::codec`): magic, format version, body length, CRC-32,
//! then a bounds-checked body — hostile or truncated input yields a
//! typed [`IndexError::Corrupt`], never a panic. See
//! `docs/ARCHITECTURE.md` for the byte-level specification.
//!
//! ```
//! use mvag_index::{IvfConfig, IvfIndex};
//! use mvag_sparse::{vecops, DenseMatrix};
//!
//! // 40 rows of a 4-dim "embedding".
//! let emb = DenseMatrix::from_vec(
//!     40,
//!     4,
//!     (0..160).map(|i| ((i * 37 % 11) as f64) - 5.0).collect(),
//! )
//! .unwrap();
//! let norms: Vec<f64> = (0..40).map(|i| vecops::norm2(emb.row(i))).collect();
//!
//! let index = IvfIndex::train(&emb, 0, 40, &IvfConfig::default()).unwrap();
//! let (hits, stats) =
//!     index.search(&emb, &norms, emb.row(3), norms[3], 5, index.nlist(), Some(3), 1);
//! assert_eq!(hits.len(), 5);
//! assert_eq!(stats.rows_scanned, 39); // full probe = full scan minus the query row
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ivf;

pub use error::IndexError;
pub use ivf::{ranks_before, IvfConfig, IvfIndex, IvfSearchStats, Ranked, Scored, TopK};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IndexError>;
