//! Binary persistence for MVAG deltas.
//!
//! An [`MvagDelta`] is the unit of change the incremental
//! artifact-update pipeline consumes (`Artifact::update`,
//! `sgla-serve update`): new nodes, per-view new edges / attribute
//! rows, the appended nodes' planted labels — and, since format v2,
//! tombstone removals and in-place edge/attribute edits. Persisting
//! deltas makes updates *replayable* — an operator can generate a
//! delta once, apply it to a serving artifact, and keep the file as
//! the update's provenance record.
//!
//! Same container conventions as every other codec in the workspace:
//! magic + format version + body length + CRC-32 of the body, all
//! integers big-endian, every body read bounds-checked so truncated or
//! hostile input yields a typed [`DataError::Corrupt`], never a panic.
//!
//! ## Versions
//!
//! * **v1** — append-only: `added_nodes`, per-view edges/rows, labels.
//!   Still decodes; a v1 file becomes a pure append (empty
//!   `removed_nodes`/`edits`).
//! * **v2** (current) — v1's sections plus a strictly-increasing
//!   tombstone list after `added_nodes` and a tagged edits section
//!   (edge-weight sets, attribute-row overwrites, in apply order)
//!   before the label flag. See `docs/ARCHITECTURE.md` for the
//!   byte-level spec.

use crate::codec::{get_f64s, get_u64s, seal, unseal};
use crate::{DataError, FsWriter, LayoutWriter, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mvag_graph::{DeltaEdit, MvagDelta, ViewDelta};
use mvag_sparse::DenseMatrix;
use std::fs;
use std::path::Path;

/// `"SGLD"` in ASCII (SGLa Delta).
const MAGIC: u32 = 0x5347_4C44;
/// Current delta file format version (tombstones + edits).
pub const DELTA_FORMAT_VERSION: u16 = 2;
/// The append-only v1 format, still decodable.
pub const DELTA_FORMAT_VERSION_V1: u16 = 1;

/// Per-view kind tags on the wire.
const KIND_EDGES: u8 = 0;
const KIND_ROWS: u8 = 1;

/// Edit kind tags on the wire (v2 edits section).
const EDIT_EDGE: u8 = 0;
const EDIT_ROW: u8 = 1;

/// Encodes a delta into the versioned, checksummed binary format
/// (always the current version, v2).
pub fn encode_delta(delta: &MvagDelta) -> Bytes {
    let mut body = BytesMut::with_capacity(1 << 12);
    body.put_u64(delta.added_nodes as u64);
    body.put_u64(delta.removed_nodes.len() as u64);
    for &r in &delta.removed_nodes {
        body.put_u64(r as u64);
    }
    body.put_u64(delta.views.len() as u64);
    for view in &delta.views {
        match view {
            ViewDelta::Edges(edges) => {
                body.put_u8(KIND_EDGES);
                body.put_u64(edges.len() as u64);
                for &(u, v, w) in edges {
                    body.put_u64(u as u64);
                    body.put_u64(v as u64);
                    body.put_f64(w);
                }
            }
            ViewDelta::Rows(rows) => {
                body.put_u8(KIND_ROWS);
                body.put_u64(rows.nrows() as u64);
                body.put_u64(rows.ncols() as u64);
                for &v in rows.data() {
                    body.put_f64(v);
                }
            }
        }
    }
    // One tagged edits section, in delta order, so apply order
    // survives the round-trip bit-exactly.
    body.put_u64(delta.edits.len() as u64);
    for edit in &delta.edits {
        match edit {
            DeltaEdit::EdgeWeight { view, u, v, w } => {
                body.put_u8(EDIT_EDGE);
                body.put_u64(*view as u64);
                body.put_u64(*u as u64);
                body.put_u64(*v as u64);
                body.put_f64(*w);
            }
            DeltaEdit::AttrRow { view, node, row } => {
                body.put_u8(EDIT_ROW);
                body.put_u64(*view as u64);
                body.put_u64(*node as u64);
                body.put_u64(row.len() as u64);
                for &v in row {
                    body.put_f64(v);
                }
            }
        }
    }
    match &delta.added_labels {
        Some(labels) => {
            body.put_u8(1);
            body.put_u64(labels.len() as u64);
            for &l in labels {
                body.put_u64(l as u64);
            }
        }
        None => body.put_u8(0),
    }
    seal(MAGIC, DELTA_FORMAT_VERSION, body.freeze().as_ref())
}

/// Decodes a delta, verifying magic, version, length, and checksum
/// before touching the payload. v1 files decode as pure appends.
/// Structural validation against a concrete MVAG (view count/kinds,
/// label ranges, edit targets) happens later, in
/// [`Mvag::apply_delta`](mvag_graph::Mvag::apply_delta).
///
/// # Errors
/// [`DataError::Corrupt`] on any framing, checksum, or structural
/// problem — truncation and byte flips always yield this typed error,
/// never a panic or a mis-framed decode.
pub fn decode_delta(bytes: Bytes) -> Result<MvagDelta> {
    let fail = |msg: &str| DataError::Corrupt(format!("MVAG delta: {msg}"));
    let (version, mut bytes) = unseal(bytes, MAGIC, "delta").map_err(|e| fail(&e))?;
    if version != DELTA_FORMAT_VERSION && version != DELTA_FORMAT_VERSION_V1 {
        return Err(fail(&format!(
            "unsupported format version {version} (expected {DELTA_FORMAT_VERSION_V1} or \
             {DELTA_FORMAT_VERSION})"
        )));
    }
    if bytes.remaining() < 8 {
        return Err(fail("truncated counts"));
    }
    let added_nodes = bytes.get_u64() as usize;

    // v2: tombstone section directly after added_nodes.
    let removed_nodes = if version >= 2 {
        if bytes.remaining() < 8 {
            return Err(fail("truncated removal count"));
        }
        let count = bytes.get_u64() as usize;
        let removed =
            get_u64s(&mut bytes, count).ok_or_else(|| fail("truncated removed node ids"))?;
        for pair in removed.windows(2) {
            if pair[0] >= pair[1] {
                return Err(fail("removed node ids not strictly increasing"));
            }
        }
        removed
    } else {
        Vec::new()
    };

    if bytes.remaining() < 8 {
        return Err(fail("truncated view count"));
    }
    let num_views = bytes.get_u64() as usize;
    // A view entry is at least 9 bytes; an absurd count cannot demand
    // a huge allocation.
    if num_views > bytes.remaining() / 9 + 1 {
        return Err(fail("view count exceeds the body"));
    }
    let mut views = Vec::with_capacity(num_views);
    for i in 0..num_views {
        if bytes.remaining() < 9 {
            return Err(fail(&format!("truncated view entry {i}")));
        }
        match bytes.get_u8() {
            KIND_EDGES => {
                let count = bytes.get_u64() as usize;
                if count > bytes.remaining() / 24 {
                    return Err(fail(&format!("view {i}: edge count exceeds the body")));
                }
                let mut edges = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = bytes.get_u64() as usize;
                    let v = bytes.get_u64() as usize;
                    let w = bytes.get_f64();
                    edges.push((u, v, w));
                }
                views.push(ViewDelta::Edges(edges));
            }
            KIND_ROWS => {
                if bytes.remaining() < 16 {
                    return Err(fail(&format!("view {i}: truncated row header")));
                }
                let nrows = bytes.get_u64() as usize;
                let ncols = bytes.get_u64() as usize;
                let count = nrows
                    .checked_mul(ncols)
                    .ok_or_else(|| fail(&format!("view {i}: row shape overflow")))?;
                let data = get_f64s(&mut bytes, count)
                    .ok_or_else(|| fail(&format!("view {i}: truncated row data")))?;
                let rows = DenseMatrix::from_vec(nrows, ncols, data)
                    .map_err(|e| fail(&format!("view {i}: bad row shape: {e}")))?;
                views.push(ViewDelta::Rows(rows));
            }
            other => return Err(fail(&format!("view {i}: unknown kind tag {other}"))),
        }
    }

    // v2: the tagged edits section between views and labels.
    let mut edits = Vec::new();
    if version >= 2 {
        if bytes.remaining() < 8 {
            return Err(fail("truncated edit count"));
        }
        let count = bytes.get_u64() as usize;
        // The smallest edit (a zero-width row overwrite) is 25 bytes.
        if count > bytes.remaining() / 25 {
            return Err(fail("edit count exceeds the body"));
        }
        edits.reserve(count);
        for i in 0..count {
            if bytes.remaining() < 25 {
                return Err(fail(&format!("truncated edit {i}")));
            }
            match bytes.get_u8() {
                EDIT_EDGE => {
                    if bytes.remaining() < 32 {
                        return Err(fail(&format!("truncated edge edit {i}")));
                    }
                    let view = bytes.get_u64() as usize;
                    let u = bytes.get_u64() as usize;
                    let v = bytes.get_u64() as usize;
                    let w = bytes.get_f64();
                    edits.push(DeltaEdit::EdgeWeight { view, u, v, w });
                }
                EDIT_ROW => {
                    let view = bytes.get_u64() as usize;
                    let node = bytes.get_u64() as usize;
                    let width = bytes.get_u64() as usize;
                    let row = get_f64s(&mut bytes, width)
                        .ok_or_else(|| fail(&format!("truncated row edit {i}")))?;
                    edits.push(DeltaEdit::AttrRow { view, node, row });
                }
                other => return Err(fail(&format!("edit {i}: unknown kind tag {other}"))),
            }
        }
    }

    if bytes.remaining() < 1 {
        return Err(fail("truncated label flag"));
    }
    let added_labels = match bytes.get_u8() {
        0 => None,
        1 => {
            if bytes.remaining() < 8 {
                return Err(fail("truncated label count"));
            }
            let count = bytes.get_u64() as usize;
            Some(get_u64s(&mut bytes, count).ok_or_else(|| fail("truncated labels"))?)
        }
        other => return Err(fail(&format!("bad label flag {other}"))),
    };
    if bytes.remaining() != 0 {
        return Err(fail("trailing bytes after payload"));
    }
    Ok(MvagDelta {
        added_nodes,
        views,
        added_labels,
        removed_nodes,
        edits,
    })
}

/// Saves a delta to `path`, replacing any existing file by rename.
///
/// # Errors
/// I/O failures.
pub fn save_delta(delta: &MvagDelta, path: &Path) -> Result<()> {
    FsWriter.replace(path, encode_delta(delta).as_ref())?;
    Ok(())
}

/// Loads and verifies a delta from `path`.
///
/// # Errors
/// I/O failures and [`DataError::Corrupt`] for malformed content.
pub fn load_delta(path: &Path) -> Result<MvagDelta> {
    decode_delta(Bytes::from(fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvag_graph::generators::{
        random_append_delta, random_crud_delta, AppendConfig, CrudConfig,
    };

    fn sample_delta() -> MvagDelta {
        let mvag = crate::toy_mvag(40, 2, 9);
        random_append_delta(
            &mvag,
            &AppendConfig {
                added_nodes: 4,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn sample_crud_delta(seed: u64) -> MvagDelta {
        let mvag = crate::toy_mvag(40, 2, 9);
        random_crud_delta(
            &mvag,
            &CrudConfig {
                append: AppendConfig {
                    added_nodes: 3,
                    seed,
                    ..Default::default()
                },
                removed_nodes: 4,
                edge_edits: 3,
                row_edits: 2,
            },
        )
        .unwrap()
    }

    /// Byte-replica of the retired v1 encoder — the backward-compat
    /// oracle for "v1 files decode as pure appends".
    fn encode_v1(delta: &MvagDelta) -> Bytes {
        assert!(delta.is_append_only(), "v1 cannot carry removals/edits");
        let mut body = BytesMut::with_capacity(1 << 12);
        body.put_u64(delta.added_nodes as u64);
        body.put_u64(delta.views.len() as u64);
        for view in &delta.views {
            match view {
                ViewDelta::Edges(edges) => {
                    body.put_u8(KIND_EDGES);
                    body.put_u64(edges.len() as u64);
                    for &(u, v, w) in edges {
                        body.put_u64(u as u64);
                        body.put_u64(v as u64);
                        body.put_f64(w);
                    }
                }
                ViewDelta::Rows(rows) => {
                    body.put_u8(KIND_ROWS);
                    body.put_u64(rows.nrows() as u64);
                    body.put_u64(rows.ncols() as u64);
                    for &v in rows.data() {
                        body.put_f64(v);
                    }
                }
            }
        }
        match &delta.added_labels {
            Some(labels) => {
                body.put_u8(1);
                body.put_u64(labels.len() as u64);
                for &l in labels {
                    body.put_u64(l as u64);
                }
            }
            None => body.put_u8(0),
        }
        seal(MAGIC, DELTA_FORMAT_VERSION_V1, body.freeze().as_ref())
    }

    #[test]
    fn roundtrip_bit_exact() {
        let delta = sample_delta();
        let back = decode_delta(encode_delta(&delta)).unwrap();
        assert_eq!(delta, back);
        // Label-less deltas round-trip too.
        let unlabeled = MvagDelta {
            added_labels: None,
            ..delta
        };
        assert_eq!(unlabeled, decode_delta(encode_delta(&unlabeled)).unwrap());
    }

    #[test]
    fn crud_roundtrip_bit_exact() {
        let delta = sample_crud_delta(7);
        assert!(!delta.removed_nodes.is_empty());
        assert!(!delta.edits.is_empty());
        let encoded = encode_delta(&delta);
        let back = decode_delta(encoded.clone()).unwrap();
        assert_eq!(delta, back);
        // Re-encoding the decode is byte-identical.
        assert_eq!(encoded, encode_delta(&back));
    }

    #[test]
    fn v1_files_decode_as_pure_appends() {
        let delta = sample_delta();
        let v1 = encode_v1(&delta);
        let back = decode_delta(v1).unwrap();
        assert_eq!(back, delta);
        assert!(back.is_append_only());
        assert!(back.removed_nodes.is_empty() && back.edits.is_empty());
    }

    #[test]
    fn file_roundtrip_and_apply() {
        let mvag = crate::toy_mvag(40, 2, 9);
        let delta = sample_delta();
        let path = std::env::temp_dir().join(format!("sgla-delta-test-{}.mvd", std::process::id()));
        save_delta(&delta, &path).unwrap();
        let back = load_delta(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let updated = mvag.apply_delta(&back).unwrap();
        assert_eq!(updated.n(), 44);
    }

    #[test]
    fn crud_file_roundtrip_and_apply() {
        let mvag = crate::toy_mvag(40, 2, 9);
        let delta = sample_crud_delta(11);
        let path =
            std::env::temp_dir().join(format!("sgla-crud-delta-test-{}.mvd", std::process::id()));
        save_delta(&delta, &path).unwrap();
        let back = load_delta(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let updated = mvag.apply_delta(&back).unwrap();
        assert_eq!(updated.n(), 43);
    }

    #[test]
    fn corrupt_and_truncated_input_errors() {
        let raw = encode_delta(&sample_crud_delta(3)).to_vec();
        // Bad magic, bad version, flipped body byte.
        for (pos, flip) in [(0usize, 0xffu8), (5, 0x7f), (raw.len() - 1, 0x01)] {
            let mut bad = raw.clone();
            bad[pos] ^= flip;
            let err = decode_delta(Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(err, DataError::Corrupt(_)),
                "pos {pos}: wrong error class {err}"
            );
        }
        // Every strided truncation errors, never panics.
        for len in (0..raw.len()).step_by(13).chain(0..24) {
            let err = decode_delta(Bytes::from(raw[..len].to_vec())).unwrap_err();
            assert!(matches!(err, DataError::Corrupt(_)), "prefix of {len}");
        }
        // Unsorted tombstones are rejected even under a valid CRC.
        let delta = MvagDelta {
            removed_nodes: vec![3, 1],
            ..MvagDelta::default()
        };
        let err = decode_delta(encode_delta(&delta)).unwrap_err();
        assert!(matches!(err, DataError::Corrupt(_)));
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Builds an arbitrary structurally-encodable delta from a seed:
        /// random appends, strictly-increasing tombstones, edge/row
        /// edits in random interleaving, optional labels. Semantic
        /// validity against a concrete MVAG is *not* required — the
        /// codec round-trips structure, `apply_delta` validates later.
        fn arbitrary_delta(seed: u64) -> MvagDelta {
            let mut rng = StdRng::seed_from_u64(seed);
            let added_nodes = rng.gen_range(0..5usize);
            let num_views = rng.gen_range(0..4usize);
            let views = (0..num_views)
                .map(|_| {
                    if rng.gen::<f64>() < 0.5 {
                        let edges = (0..rng.gen_range(0..6usize))
                            .map(|_| {
                                (
                                    rng.gen_range(0..64usize),
                                    rng.gen_range(0..64usize),
                                    rng.gen::<f64>() * 4.0,
                                )
                            })
                            .collect();
                        ViewDelta::Edges(edges)
                    } else {
                        let nrows = rng.gen_range(0..4usize);
                        let ncols = rng.gen_range(1..5usize);
                        let data = (0..nrows * ncols).map(|_| rng.gen::<f64>() - 0.5).collect();
                        ViewDelta::Rows(DenseMatrix::from_vec(nrows, ncols, data).unwrap())
                    }
                })
                .collect();
            let mut removed: Vec<usize> = (0..rng.gen_range(0..5usize))
                .map(|_| rng.gen_range(0..64))
                .collect();
            removed.sort_unstable();
            removed.dedup();
            let edits = (0..rng.gen_range(0..5usize))
                .map(|_| {
                    if rng.gen::<f64>() < 0.5 {
                        DeltaEdit::EdgeWeight {
                            view: rng.gen_range(0..4),
                            u: rng.gen_range(0..64),
                            v: rng.gen_range(0..64),
                            w: rng.gen::<f64>() * 2.0,
                        }
                    } else {
                        let width = rng.gen_range(1..5usize);
                        DeltaEdit::AttrRow {
                            view: rng.gen_range(0..4),
                            node: rng.gen_range(0..64),
                            row: (0..width).map(|_| rng.gen::<f64>()).collect(),
                        }
                    }
                })
                .collect();
            let added_labels = if rng.gen::<f64>() < 0.5 {
                Some((0..added_nodes).map(|_| rng.gen_range(0..4)).collect())
            } else {
                None
            };
            MvagDelta {
                added_nodes,
                views,
                added_labels,
                removed_nodes: removed,
                edits,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random CRUD deltas round-trip bit-exactly: decode
            /// inverts encode, and re-encoding the decode reproduces
            /// the original bytes.
            #[test]
            fn roundtrip_is_bit_exact(seed in 0u64..1 << 48) {
                let delta = arbitrary_delta(seed);
                let encoded = encode_delta(&delta);
                let back = decode_delta(encoded.clone()).unwrap();
                prop_assert_eq!(&back, &delta);
                prop_assert_eq!(encode_delta(&back), encoded);
            }

            /// Any single byte flip yields a typed `Corrupt` error —
            /// never a panic, never a silently mis-framed decode.
            #[test]
            fn byte_flip_is_typed_corrupt(seed in 0u64..1 << 48, poke in 0u64..1 << 32) {
                let raw = encode_delta(&arbitrary_delta(seed)).to_vec();
                let pos = (poke as usize) % raw.len();
                let mut bad = raw.clone();
                bad[pos] ^= 1u8 << (seed % 8);
                let err = decode_delta(Bytes::from(bad)).unwrap_err();
                prop_assert!(
                    matches!(err, DataError::Corrupt(_)),
                    "flip at {} gave {}", pos, err
                );
            }

            /// Any strict-prefix truncation yields a typed `Corrupt`
            /// error.
            #[test]
            fn truncation_is_typed_corrupt(seed in 0u64..1 << 48, cut in 0u64..1 << 32) {
                let raw = encode_delta(&arbitrary_delta(seed)).to_vec();
                let len = (cut as usize) % raw.len();
                let err = decode_delta(Bytes::from(raw[..len].to_vec())).unwrap_err();
                prop_assert!(
                    matches!(err, DataError::Corrupt(_)),
                    "prefix {} gave {}", len, err
                );
            }

            /// v1 files (byte-oracle encoder) decode as pure appends,
            /// equal to the original append-only delta.
            #[test]
            fn v1_decodes_as_pure_append(seed in 0u64..1 << 48) {
                let delta = MvagDelta {
                    removed_nodes: Vec::new(),
                    edits: Vec::new(),
                    ..arbitrary_delta(seed)
                };
                let back = decode_delta(encode_v1(&delta)).unwrap();
                prop_assert!(back.is_append_only());
                prop_assert_eq!(back, delta);
            }
        }
    }
}
