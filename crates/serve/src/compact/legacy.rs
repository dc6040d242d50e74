//! The artifact formats before v5 (v1–v4): one flat big-endian body,
//! no section table, no persisted norms. Serving reads v5 only;
//! `sgla-serve compact` reads these through [`decode`] to migrate a
//! file or layout to v5, and tests write them through [`encode`].
//!
//! The four layouts differ only in which header fields follow the
//! dataset name, `n`, `k`, `dim` and the seed:
//!
//! * **v1** — none; always a full artifact (rows `0..n`);
//! * **v2** — the `[row_start, row_end)` global row range;
//! * **v3** — v2 plus the lineage header (`parent_seed`,
//!   `update_count`), with the weight count widened from `u32` to
//!   `u64`;
//! * **v4** — v3 plus the compaction counter and the tombstone ids.
//!
//! Then come the weights, the laplacian (CSR), the labels (`u32`), the
//! centroids and the embedding.

use crate::artifact::{
    get_csr, get_dense, put_csr, put_dense, Artifact, ArtifactMeta, FORMAT_VERSION, MAGIC,
};
use crate::{Result, ServeError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mvag_data::codec::{
    get_f64s, get_str, get_u32s, get_u64s, put_str, seal, seal_version, unseal,
};

/// The monolithic layout (no row range).
pub const FORMAT_VERSION_V1: u16 = 1;
/// The row-ranged layout without lineage.
pub const FORMAT_VERSION_V2: u16 = 2;
/// The lineage layout (parent seed + update counter, uniform `u64`
/// length fields) without tombstones.
pub const FORMAT_VERSION_V3: u16 = 3;
/// The flat layout with the compaction counter and tombstone section.
pub const FORMAT_VERSION_V4: u16 = 4;

/// Decodes an artifact in any format this release has written
/// (v1–v5). v5 goes through [`Artifact::decode`]; older versions are
/// normalized in memory: a v1 artifact becomes a full-range artifact,
/// v1/v2 artifacts get a fresh lineage header (`parent_seed = seed`,
/// `update_count = 0`), and pre-v4 artifacts have no tombstones and a
/// zero compaction count.
///
/// # Errors
/// [`ServeError::Corrupt`] on any structural problem.
pub fn decode(bytes: Bytes) -> Result<Artifact> {
    if seal_version(bytes.as_ref(), MAGIC, "artifact") == Ok(FORMAT_VERSION) {
        return Artifact::decode(bytes);
    }
    let fail = |msg: &str| ServeError::Corrupt(msg.to_string());
    let (version, mut bytes) = unseal(bytes, MAGIC, "artifact").map_err(ServeError::Corrupt)?;
    if !(FORMAT_VERSION_V1..FORMAT_VERSION).contains(&version) {
        return Err(fail(&format!(
            "unsupported format version {version} (expected {FORMAT_VERSION_V1} through \
             {FORMAT_VERSION})"
        )));
    }
    let dataset = get_str(&mut bytes).ok_or_else(|| fail("truncated dataset name"))?;
    let [n, k, dim, seed] = words(&mut bytes, "meta")?;
    let [row_start, row_end] = if version >= FORMAT_VERSION_V2 {
        words(&mut bytes, "row range")?
    } else {
        [0, n]
    };
    let [parent_seed, update_count] = if version >= FORMAT_VERSION_V3 {
        words(&mut bytes, "lineage header")?
    } else {
        [seed, 0]
    };
    let [compaction_count, tombstone_count] = if version >= FORMAT_VERSION_V4 {
        words(&mut bytes, "compaction header")?
    } else {
        [0, 0]
    };
    let tombstones = get_u64s(&mut bytes, tombstone_count as usize)
        .ok_or_else(|| fail("truncated tombstone ids"))?;
    // v1/v2 wrote the weight count as u32; v3+ is uniformly u64.
    let num_weights = if version >= FORMAT_VERSION_V3 {
        words::<1>(&mut bytes, "weight count")?[0] as usize
    } else {
        get_u32s(&mut bytes, 1).ok_or_else(|| fail("truncated weight count"))?[0]
    };
    let weights = get_f64s(&mut bytes, num_weights).ok_or_else(|| {
        fail(&format!(
            "weight count {num_weights} exceeds the remaining body"
        ))
    })?;
    let laplacian = get_csr(&mut bytes)?;
    let num_labels = words::<1>(&mut bytes, "label count")?[0] as usize;
    let labels = get_u32s(&mut bytes, num_labels).ok_or_else(|| {
        fail(&format!(
            "label count {num_labels} exceeds the remaining body"
        ))
    })?;
    let centroids = get_dense(&mut bytes)?;
    let embedding = get_dense(&mut bytes)?;
    if bytes.remaining() != 0 {
        return Err(fail("trailing bytes after payload"));
    }
    let artifact = Artifact {
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
        laplacian,
        labels,
        centroids,
        embedding,
        tombstones,
    };
    // Label range (`l < k`) and every other cross-field invariant.
    artifact.validate()?;
    Ok(artifact)
}

/// Reads `N` big-endian `u64` header words, or fails naming `what`.
fn words<const N: usize>(bytes: &mut Bytes, what: &str) -> Result<[u64; N]> {
    if bytes.remaining() < 8 * N {
        return Err(ServeError::Corrupt(format!("truncated {what}")));
    }
    Ok(std::array::from_fn(|_| bytes.get_u64()))
}

/// Writes `a` in legacy format `version` (1–4) — how tests make real
/// pre-v5 files. Production code always writes v5.
///
/// # Errors
/// [`ServeError::InvalidArgument`] when `version` is not a legacy
/// format or cannot describe `a`: v1 holds only full artifacts, and
/// v1–v3 carry no tombstones or compaction count.
pub fn encode(a: &Artifact, version: u16) -> Result<Bytes> {
    let refuse = |why: &str| {
        Err(ServeError::InvalidArgument(format!(
            "format v{version} {why}"
        )))
    };
    if !(FORMAT_VERSION_V1..=FORMAT_VERSION_V4).contains(&version) {
        return refuse("is not a legacy format");
    }
    if version == FORMAT_VERSION_V1 && !a.meta.is_full() {
        return refuse("holds only full artifacts");
    }
    if version < FORMAT_VERSION_V4 && (!a.tombstones.is_empty() || a.meta.compaction_count != 0) {
        return refuse("cannot carry tombstones or a compaction count");
    }
    let m = &a.meta;
    let mut body = BytesMut::with_capacity(1 << 16);
    put_str(&mut body, &m.dataset);
    for word in [m.n as u64, m.k as u64, m.dim as u64, m.seed] {
        body.put_u64(word);
    }
    if version >= FORMAT_VERSION_V2 {
        body.put_u64(m.row_start as u64);
        body.put_u64(m.row_end as u64);
    }
    if version >= FORMAT_VERSION_V3 {
        body.put_u64(m.parent_seed);
        body.put_u64(m.update_count);
    }
    if version >= FORMAT_VERSION_V4 {
        body.put_u64(m.compaction_count);
        body.put_u64(a.tombstones.len() as u64);
        for &t in &a.tombstones {
            body.put_u64(t as u64);
        }
    }
    if version >= FORMAT_VERSION_V3 {
        body.put_u64(a.weights.len() as u64);
    } else {
        body.put_u32(a.weights.len() as u32);
    }
    for &w in &a.weights {
        body.put_f64(w);
    }
    put_csr(&mut body, &a.laplacian);
    body.put_u64(a.labels.len() as u64);
    for (i, &l) in a.labels.iter().enumerate() {
        let wire = u32::try_from(l).map_err(|_| {
            ServeError::InvalidArgument(format!(
                "label {l} at row {i} exceeds u32::MAX and cannot be encoded"
            ))
        })?;
        body.put_u32(wire);
    }
    put_dense(&mut body, &a.centroids);
    put_dense(&mut body, &a.embedding);
    Ok(seal(MAGIC, version, body.freeze().as_ref()))
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

    /// Every strided prefix of a legacy stream fails cleanly.
    fn assert_truncations_fail(raw: &[u8], version: u16) {
        for len in (0..raw.len()).step_by(131).chain(0..24) {
            assert!(
                decode(Bytes::from(raw[..len].to_vec())).is_err(),
                "v{version} prefix of {len} decoded"
            );
        }
    }

    #[test]
    fn v1_artifact_still_decodes_bit_exactly() {
        // A v1 file is normalized to a full-range artifact with a
        // fresh lineage — exactly a fresh artifact's.
        let a = small_artifact();
        let encoded = encode(&a, 1).unwrap();
        assert_eq!(encoded.as_ref()[4..6], FORMAT_VERSION_V1.to_be_bytes());
        let back = decode(encoded.clone()).unwrap();
        assert_eq!(a, back);
        assert!(back.meta.is_full());
        assert_truncations_fail(encoded.as_ref(), 1);
        // v1 has no row range, so it cannot describe a shard.
        assert!(encode(&a.shard(5, 30).unwrap(), 1).is_err());
    }

    #[test]
    fn v2_artifact_still_decodes_bit_exactly() {
        let a = small_artifact();
        assert_eq!(a, decode(encode(&a, 2).unwrap()).unwrap());
        let shard = a.shard(5, 30).unwrap();
        assert_eq!(shard, decode(encode(&shard, 2).unwrap()).unwrap());
        assert_truncations_fail(encode(&a, 2).unwrap().as_ref(), 2);
    }

    #[test]
    fn v3_artifact_still_decodes_bit_exactly() {
        let mut a = small_artifact();
        a.meta.parent_seed = 99;
        a.meta.update_count = 4;
        let back = decode(encode(&a, 3).unwrap()).unwrap();
        assert_eq!(a, back);
        assert!(back.tombstones.is_empty());
        assert_eq!(back.meta.compaction_count, 0);
        let shard = a.shard(5, 30).unwrap();
        assert_eq!(shard, decode(encode(&shard, 3).unwrap()).unwrap());
        assert_truncations_fail(encode(&a, 3).unwrap().as_ref(), 3);
        // Tombstones need v4.
        a.tombstones = vec![2];
        assert!(encode(&a, 3).is_err());
    }

    #[test]
    fn v4_artifact_still_decodes_bit_exactly() {
        let mut a = small_artifact();
        a.tombstones = vec![2, 9, 44];
        a.meta.compaction_count = 3;
        a.meta.update_count = 7;
        let back = decode(encode(&a, 4).unwrap()).unwrap();
        assert_eq!(a, back);
        let shard = a.shard(5, 30).unwrap();
        assert_eq!(shard, decode(encode(&shard, 4).unwrap()).unwrap());
        assert_truncations_fail(encode(&a, 4).unwrap().as_ref(), 4);
    }

    #[test]
    fn v5_passes_through_and_other_versions_are_refused() {
        let a = small_artifact();
        assert_eq!(decode(a.encode().unwrap()).unwrap(), a);
        assert!(encode(&a, FORMAT_VERSION).is_err());
        assert!(encode(&a, 0).is_err());
        let mut raw = encode(&a, 4).unwrap().to_vec();
        raw[4..6].copy_from_slice(&9u16.to_be_bytes());
        let err = decode(Bytes::from(raw)).unwrap_err();
        assert!(
            err.to_string().contains("unsupported format version 9"),
            "{err}"
        );
    }
}
