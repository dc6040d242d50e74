//! The shard manifest of a sharded artifact layout.
//!
//! A trained artifact too large for one host is split by contiguous
//! row ranges into shard files, and a small JSON manifest describes
//! the set: dataset metadata, the artifact format version the shards
//! were encoded with, and one entry per shard (file name, row range,
//! byte size, CRC-32 of the whole shard file). The manifest is the
//! single file a shard router has to read up front — shard files can
//! then be loaded lazily, verified against their recorded checksums.
//!
//! The manifest lives in `mvag-data` (not `sgla-serve`) because it is
//! pure format: a JSON document with strict, versioned decoding, no
//! serving behaviour. See `docs/ARCHITECTURE.md` for the full v1→v2
//! artifact format specification.
//!
//! ```
//! use mvag_data::manifest::{ShardEntry, ShardManifest};
//!
//! let manifest = ShardManifest {
//!     dataset: "toy".into(),
//!     n: 100,
//!     k: 3,
//!     dim: 16,
//!     seed: 42,
//!     artifact_format_version: 2,
//!     shards: vec![
//!         ShardEntry { file: "shard-00000.sgla".into(), row_start: 0, row_end: 50, ..Default::default() },
//!         ShardEntry { file: "shard-00001.sgla".into(), row_start: 50, row_end: 100, ..Default::default() },
//!     ],
//!     ..Default::default()
//! };
//! manifest.validate().unwrap();
//! let back = ShardManifest::from_json(&manifest.to_json()).unwrap();
//! assert_eq!(manifest, back);
//! assert_eq!(back.shard_of(73), Some(1));
//! ```

use crate::json::{self, Value};
use crate::{DataError, FsWriter, LayoutWriter, Result};
use std::fs;
use std::path::Path;

/// Format tag embedded in the JSON document; decoders reject others.
pub const MANIFEST_FORMAT: &str = "sgla-shard-manifest/1";

/// One shard of a row-range-sharded artifact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardEntry {
    /// Shard file name, relative to the manifest's directory.
    pub file: String,
    /// First global row (node id) covered by this shard, inclusive.
    pub row_start: usize,
    /// One past the last global row covered by this shard.
    pub row_end: usize,
    /// Size of the shard file in bytes (0 = unknown, skip the check).
    pub bytes: u64,
    /// CRC-32 (IEEE) of the entire shard file (0 = unknown, skip the
    /// check; the shard's own embedded body checksum still applies).
    pub crc32: u32,
    /// Row range baked into the shard *file*, when it differs from the
    /// manifest range — a compaction that purged rows from earlier
    /// shards shifts this shard's manifest range down without
    /// rewriting its (clean) file. The router verifies the file
    /// against these coordinates, then rebases to the manifest's.
    /// `None` means the file agrees with the manifest.
    pub file_row_start: Option<usize>,
    /// See [`ShardEntry::file_row_start`]; one past the file's last row.
    pub file_row_end: Option<usize>,
    /// Total node count baked into the shard file's metadata, when it
    /// differs from the manifest's `n` (stale after an in-place append
    /// or a compaction that did not rewrite this shard).
    pub file_n: Option<usize>,
    /// Number of tombstoned (deleted, unpurged) rows inside this
    /// shard's range. Lets `compact` pick dirty shards and the serve
    /// loader compute the tombstone fraction without loading shards.
    pub tombstones: usize,
}

impl ShardEntry {
    /// Rows covered by this shard.
    pub fn rows(&self) -> usize {
        self.row_end.saturating_sub(self.row_start)
    }

    /// True when the shard file's baked-in coordinates differ from the
    /// manifest's (the router must rebase after verifying the file).
    pub fn is_stale(&self) -> bool {
        self.file_row_start.is_some() || self.file_row_end.is_some() || self.file_n.is_some()
    }
}

/// The manifest of a sharded artifact: dataset metadata plus the
/// ordered, contiguous list of row-range shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardManifest {
    /// Name of the dataset the artifact was trained on.
    pub dataset: String,
    /// Total node count `n` across all shards.
    pub n: usize,
    /// Cluster count `k`.
    pub k: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Seed the training run used (provenance).
    pub seed: u64,
    /// Binary format version of the shard files (2 for sharded).
    pub artifact_format_version: u16,
    /// Number of deltas applied to this layout since training
    /// (mirrors the monolithic artifact's `update_count`; absent in
    /// old manifests, defaulting to 0).
    pub update_count: u64,
    /// Number of compactions this layout has been through (absent in
    /// old manifests, defaulting to 0).
    pub compaction_count: u64,
    /// File name of the id-map sidecar the latest compaction wrote
    /// (relative to the manifest's directory), when any shard entry is
    /// stale — the router needs it to remap cross-shard Laplacian
    /// column ids in unrewritten shard files.
    pub id_map: Option<String>,
    /// Shards in ascending row order, covering `0..n` contiguously.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Structural checks: at least one shard, ranges non-empty, sorted,
    /// and covering `0..n` with no gap or overlap.
    ///
    /// # Errors
    /// [`DataError::Serde`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(DataError::Serde(format!("shard manifest: {msg}")));
        if self.shards.is_empty() {
            return fail("no shards".into());
        }
        let mut expected_start = 0usize;
        for (i, s) in self.shards.iter().enumerate() {
            if s.row_start != expected_start {
                return fail(format!(
                    "shard {i} starts at row {} (expected {expected_start})",
                    s.row_start
                ));
            }
            if s.row_end <= s.row_start {
                return fail(format!(
                    "shard {i} has empty range {}..{}",
                    s.row_start, s.row_end
                ));
            }
            if s.file.is_empty() {
                return fail(format!("shard {i} has no file name"));
            }
            if s.tombstones > s.rows() {
                return fail(format!(
                    "shard {i} claims {} tombstones in {} rows",
                    s.tombstones,
                    s.rows()
                ));
            }
            // Stale file coordinates must describe the same row count:
            // compaction only shifts unrewritten shards, never resizes
            // them.
            if let (Some(fs), Some(fe)) = (s.file_row_start, s.file_row_end) {
                if fe.saturating_sub(fs) != s.rows() {
                    return fail(format!(
                        "shard {i}: file range {fs}..{fe} covers {} rows, manifest range {}..{} \
                         covers {}",
                        fe.saturating_sub(fs),
                        s.row_start,
                        s.row_end,
                        s.rows()
                    ));
                }
            } else if s.file_row_start.is_some() != s.file_row_end.is_some() {
                return fail(format!(
                    "shard {i}: only one of file_row_start/file_row_end set"
                ));
            }
            expected_start = s.row_end;
        }
        if expected_start != self.n {
            return fail(format!("shards cover 0..{expected_start}, n = {}", self.n));
        }
        // Shifted rows (compaction) need the id-map sidecar to remap
        // cross-shard Laplacian ids; a bare `file_n` (in-place append
        // grew the layout) rebases with the identity map.
        if self.shards.iter().any(|s| s.file_row_start.is_some()) && self.id_map.is_none() {
            return fail("shifted shard entries but no id_map sidecar".into());
        }
        Ok(())
    }

    /// Index of the shard owning global row `node`, if in range.
    pub fn shard_of(&self, node: usize) -> Option<usize> {
        if node >= self.n {
            return None;
        }
        // Ranges are sorted and contiguous: binary search on row_start.
        let idx = self
            .shards
            .partition_point(|s| s.row_end <= node)
            .min(self.shards.len().saturating_sub(1));
        let s = &self.shards[idx];
        (s.row_start <= node && node < s.row_end).then_some(idx)
    }

    /// Renders the manifest as a pretty JSON document.
    pub fn to_json(&self) -> String {
        let shards: Vec<Value> = self
            .shards
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("file", Value::from(s.file.as_str())),
                    ("row_start", Value::from(s.row_start)),
                    ("row_end", Value::from(s.row_end)),
                    ("bytes", Value::from(s.bytes)),
                    ("crc32", Value::from(s.crc32 as u64)),
                ];
                // Optional fields are emitted only when meaningful, so
                // a never-compacted layout's manifest stays in the
                // shape older readers know.
                if let Some(v) = s.file_row_start {
                    fields.push(("file_row_start", Value::from(v)));
                }
                if let Some(v) = s.file_row_end {
                    fields.push(("file_row_end", Value::from(v)));
                }
                if let Some(v) = s.file_n {
                    fields.push(("file_n", Value::from(v)));
                }
                if s.tombstones > 0 {
                    fields.push(("tombstones", Value::from(s.tombstones)));
                }
                Value::object(fields)
            })
            .collect();
        let mut fields = vec![
            ("format", Value::from(MANIFEST_FORMAT)),
            ("dataset", Value::from(self.dataset.as_str())),
            ("n", Value::from(self.n)),
            ("k", Value::from(self.k)),
            ("dim", Value::from(self.dim)),
            ("seed", Value::from(self.seed)),
            (
                "artifact_format_version",
                Value::from(self.artifact_format_version as usize),
            ),
        ];
        if self.update_count > 0 {
            fields.push(("update_count", Value::from(self.update_count)));
        }
        if self.compaction_count > 0 {
            fields.push(("compaction_count", Value::from(self.compaction_count)));
        }
        if let Some(m) = &self.id_map {
            fields.push(("id_map", Value::from(m.as_str())));
        }
        fields.push(("shards", Value::Array(shards)));
        Value::object(fields).to_string_pretty()
    }

    /// Parses and validates a manifest from its JSON text.
    ///
    /// # Errors
    /// [`DataError::Serde`] on malformed JSON, a wrong/missing format
    /// tag, missing fields, or inconsistent shard ranges.
    pub fn from_json(text: &str) -> Result<ShardManifest> {
        let fail = |msg: &str| DataError::Serde(format!("shard manifest: {msg}"));
        let doc = json::parse(text).map_err(|e| fail(&format!("not JSON: {e}")))?;
        match doc.get("format").and_then(Value::as_str) {
            Some(MANIFEST_FORMAT) => {}
            Some(other) => return Err(fail(&format!("unsupported format '{other}'"))),
            None => return Err(fail("missing format tag")),
        }
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| fail(&format!("missing {key}")))
        };
        let num_field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| fail(&format!("missing {key}")))
        };
        // `Value::from(u64)` renders values above 2⁵³ as decimal
        // strings (an f64-backed number would silently round them), so
        // u64 fields must accept both encodings on the way back in.
        let u64_field = |key: &str| {
            let v = doc
                .get(key)
                .ok_or_else(|| fail(&format!("missing {key}")))?;
            as_u64(v).ok_or_else(|| fail(&format!("bad {key}")))
        };
        let shard_vals = doc
            .get("shards")
            .and_then(Value::as_array)
            .ok_or_else(|| fail("missing shards array"))?;
        let mut shards = Vec::with_capacity(shard_vals.len());
        for (i, sv) in shard_vals.iter().enumerate() {
            let sfail = |msg: &str| fail(&format!("shard {i}: {msg}"));
            let snum = |key: &str| {
                sv.get(key)
                    .and_then(Value::as_usize)
                    .ok_or_else(|| sfail(&format!("missing {key}")))
            };
            // Optional per-shard fields: absent in pre-compaction
            // manifests, so absence is a default, not an error — but a
            // present field with a non-numeric value is still corrupt.
            let opt_num = |key: &str| match sv.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| sfail(&format!("bad {key}"))),
            };
            shards.push(ShardEntry {
                file: sv
                    .get("file")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| sfail("missing file"))?,
                row_start: snum("row_start")?,
                row_end: snum("row_end")?,
                bytes: sv
                    .get("bytes")
                    .and_then(as_u64)
                    .ok_or_else(|| sfail("missing bytes"))?,
                crc32: u32::try_from(snum("crc32")?).map_err(|_| sfail("crc32 out of range"))?,
                file_row_start: opt_num("file_row_start")?,
                file_row_end: opt_num("file_row_end")?,
                file_n: opt_num("file_n")?,
                tombstones: opt_num("tombstones")?.unwrap_or(0),
            });
        }
        let opt_u64 = |key: &str| match doc.get(key) {
            None => Ok(0u64),
            Some(v) => as_u64(v).ok_or_else(|| fail(&format!("bad {key}"))),
        };
        let manifest = ShardManifest {
            dataset: str_field("dataset")?,
            n: num_field("n")?,
            k: num_field("k")?,
            dim: num_field("dim")?,
            seed: u64_field("seed")?,
            artifact_format_version: u16::try_from(num_field("artifact_format_version")?)
                .map_err(|_| fail("artifact_format_version out of range"))?,
            update_count: opt_u64("update_count")?,
            compaction_count: opt_u64("compaction_count")?,
            id_map: doc
                .get("id_map")
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| fail("bad id_map"))
                })
                .transpose()?,
            shards,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Saves the manifest as pretty JSON, replacing `path` by rename.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: &Path) -> Result<()> {
        FsWriter.replace(path, self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads and validates a manifest from `path`.
    ///
    /// # Errors
    /// I/O failures and [`DataError::Serde`] on malformed content.
    pub fn load(path: &Path) -> Result<ShardManifest> {
        let text = fs::read_to_string(path)?;
        ShardManifest::from_json(&text)
    }
}

/// Reads a `u64` from either JSON encoding `Value::from(u64)` emits: a
/// number (values ≤ 2⁵³) or a decimal string (values above, which an
/// f64-backed number would round).
fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(_) => v.as_usize().map(|x| x as u64),
        Value::String(s) => s.parse::<u64>().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            dataset: "toy".into(),
            n: 100,
            k: 3,
            dim: 16,
            seed: 7,
            artifact_format_version: 2,
            shards: vec![
                ShardEntry {
                    file: "shard-00000.sgla".into(),
                    row_start: 0,
                    row_end: 34,
                    bytes: 1234,
                    crc32: 0xDEAD_BEEF,
                    ..Default::default()
                },
                ShardEntry {
                    file: "shard-00001.sgla".into(),
                    row_start: 34,
                    row_end: 67,
                    bytes: 1200,
                    crc32: 0x0BAD_F00D,
                    ..Default::default()
                },
                ShardEntry {
                    file: "shard-00002.sgla".into(),
                    row_start: 67,
                    row_end: 100,
                    bytes: 1190,
                    crc32: 42,
                    ..Default::default()
                },
            ],
            ..Default::default()
        }
    }

    /// A post-compaction manifest: shard 1 was rewritten (file agrees
    /// with the manifest), shards 0 and 2 are clean-but-shifted with
    /// stale file coordinates and live tombstone counts.
    fn stale_sample() -> ShardManifest {
        let mut m = sample();
        m.update_count = 3;
        m.compaction_count = 1;
        m.id_map = Some("idmap-001.json".into());
        m.shards[0].tombstones = 2;
        m.shards[2].file_row_start = Some(70);
        m.shards[2].file_row_end = Some(103);
        m.shards[2].file_n = Some(103);
        m
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let m = sample();
        let back = ShardManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("sgla-manifest-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(ShardManifest::load(&path).unwrap(), m);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_of_routes_every_row() {
        let m = sample();
        for node in 0..m.n {
            let s = m.shard_of(node).unwrap();
            assert!(m.shards[s].row_start <= node && node < m.shards[s].row_end);
        }
        assert_eq!(m.shard_of(0), Some(0));
        assert_eq!(m.shard_of(33), Some(0));
        assert_eq!(m.shard_of(34), Some(1));
        assert_eq!(m.shard_of(99), Some(2));
        assert_eq!(m.shard_of(100), None);
        assert_eq!(m.shard_of(usize::MAX), None);
    }

    #[test]
    fn u64_fields_above_2_pow_53_roundtrip() {
        // Value::from(u64) stringifies values > 2⁵³ to avoid f64
        // rounding; the parser must accept them back.
        let mut m = sample();
        m.seed = u64::MAX - 1;
        m.shards[0].bytes = (1u64 << 53) + 7;
        let back = ShardManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.seed, u64::MAX - 1);
        assert_eq!(back.shards[0].bytes, (1u64 << 53) + 7);
    }

    #[test]
    fn stale_coordinates_and_counts_roundtrip() {
        let m = stale_sample();
        m.validate().unwrap();
        assert!(m.shards[2].is_stale());
        assert!(!m.shards[0].is_stale());
        let back = ShardManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
        // Plain manifests omit the new fields entirely — their JSON
        // keeps the pre-compaction shape.
        let plain = sample().to_json();
        for key in [
            "file_row_start",
            "file_n",
            "tombstones",
            "id_map",
            "compaction_count",
        ] {
            assert!(!plain.contains(key), "plain manifest leaked {key}");
        }
    }

    #[test]
    fn old_manifests_parse_with_defaults() {
        // A manifest written before the CRUD fields existed.
        let back = ShardManifest::from_json(&sample().to_json()).unwrap();
        assert_eq!(back.update_count, 0);
        assert_eq!(back.compaction_count, 0);
        assert_eq!(back.id_map, None);
        assert!(back
            .shards
            .iter()
            .all(|s| !s.is_stale() && s.tombstones == 0));
    }

    #[test]
    fn stale_structural_problems_rejected() {
        // Tombstone count exceeding the shard's rows.
        let mut m = sample();
        m.shards[1].tombstones = m.shards[1].rows() + 1;
        assert!(m.validate().is_err());
        // File range with a different row count than the manifest range.
        let mut m = stale_sample();
        m.shards[2].file_row_end = Some(99);
        assert!(m.validate().is_err());
        // Only one end of the file range.
        let mut m = stale_sample();
        m.shards[2].file_row_end = None;
        assert!(m.validate().is_err());
        // Shifted rows without an id-map sidecar.
        let mut m = stale_sample();
        m.id_map = None;
        assert!(m.validate().is_err());
        // A bare file_n (in-place append) is fine without an id map.
        let mut m = sample();
        m.shards[0].file_n = Some(97);
        m.validate().unwrap();
    }

    #[test]
    fn wrong_format_tag_rejected() {
        let text = sample()
            .to_json()
            .replace(MANIFEST_FORMAT, "sgla-shard-manifest/99");
        let err = ShardManifest::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("unsupported format"), "{err}");
    }

    #[test]
    fn truncated_json_rejected() {
        let text = sample().to_json();
        // Every strict prefix must fail cleanly (JSON parse error or a
        // missing-field error), never panic or yield a manifest.
        for len in (0..text.len()).step_by(7) {
            assert!(
                ShardManifest::from_json(&text[..len]).is_err(),
                "prefix of {len} decoded"
            );
        }
    }

    #[test]
    fn structural_problems_rejected() {
        // Gap between shards.
        let mut m = sample();
        m.shards[1].row_start = 40;
        assert!(m.validate().is_err());
        // Overlap.
        let mut m = sample();
        m.shards[1].row_start = 30;
        assert!(m.validate().is_err());
        // Empty range.
        let mut m = sample();
        m.shards[2].row_end = m.shards[2].row_start;
        assert!(m.validate().is_err());
        // Doesn't reach n.
        let mut m = sample();
        m.n = 120;
        assert!(m.validate().is_err());
        // No shards at all.
        let mut m = sample();
        m.shards.clear();
        assert!(m.validate().is_err());
        // Missing fields in the JSON.
        for key in ["\"n\"", "\"dataset\"", "\"shards\"", "\"row_end\""] {
            let text = sample().to_json().replacen(key, "\"nope\"", 1);
            assert!(ShardManifest::from_json(&text).is_err(), "dropped {key}");
        }
    }
}
