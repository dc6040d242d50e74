//! How an artifact reaches disk. A serving router memory-maps its
//! files, so no writer modifies a file in place: new bytes go under a
//! name no reader holds and commit with one rename. A single file is
//! written to `<path>.tmp` and renamed ([`LayoutWriter::replace`]). A
//! layout writes its new shards under names the old manifest does not
//! reference (generational, `shard-00002.g0007.sgla`, over an existing
//! layout; plain in a fresh directory) and its id map, renames the
//! manifest into place, then unlinks what only the old manifest named.
//! A killed writer leaves the old or the new state loadable, and a
//! router that opened the old state answers from it until it reloads.
//! [`publish`] backs `sgla-serve train` and `update`;
//! [`Artifact::save_sharded`] and [`crate::compact`] share
//! [`commit_layout`].

use crate::artifact::{crc32, Artifact};
use crate::{Result, ServeError};
use mvag_data::manifest::{ShardEntry, ShardManifest};
use mvag_data::{IdMap, LayoutWriter};
use mvag_index::{IvfConfig, IvfIndex};
use std::path::{Path, PathBuf};

/// One shard of a layout being committed, in manifest order.
pub enum Shard {
    /// An existing entry whose file stays unchanged.
    Keep(ShardEntry),
    /// A new shard artifact to encode and write.
    Write(Box<Artifact>),
    /// An old shard that leaves the layout (holds its index, which
    /// names later files).
    Dropped,
}

/// The generation in the file names of the next commit over `old`: one
/// past its commit count, bumped past any generation `old` references.
fn next_generation(old: &ShardManifest) -> u64 {
    let mut generation = old.update_count + old.compaction_count + 1;
    let suffix = |g: u64| format!(".g{g:04}.sgla");
    while referenced(old)
        .any(|f| f.ends_with(&suffix(generation)) || f == gen_idmap_file(generation))
    {
        generation += 1;
    }
    generation
}

fn gen_shard_file(index: usize, generation: u64) -> String {
    format!("shard-{index:05}.g{generation:04}.sgla")
}

fn gen_idmap_file(generation: u64) -> String {
    format!("idmap-g{generation:04}.json")
}

/// Every file a manifest names: its shard files, then its id map.
fn referenced(manifest: &ShardManifest) -> impl Iterator<Item = &str> {
    manifest
        .shards
        .iter()
        .map(|e| e.file.as_str())
        .chain(manifest.id_map.as_deref())
}

/// Commits a sharded layout in `dir` over `old` (`None`: a fresh
/// directory). `manifest` is the new header: its shards come from
/// `shards`, and `id_map`, when given, is written and named in it.
/// Each [`Shard::Write`] gets a name `old` does not reference and an
/// entry with its bytes, CRC-32 and tombstone count; the validated
/// manifest commits by rename, then the files only `old` named are
/// removed, best-effort. Returns the manifest and the bytes written.
///
/// # Errors
/// [`ServeError::Corrupt`] for an invalid manifest; encoding and I/O
/// errors before the commit.
pub fn commit_layout(
    dir: &Path,
    old: Option<&ShardManifest>,
    mut manifest: ShardManifest,
    shards: impl IntoIterator<Item = Result<Shard>>,
    id_map: Option<&IdMap>,
    writer: &mut dyn LayoutWriter,
) -> Result<(ShardManifest, u64)> {
    let generation = old.map_or(1, next_generation);
    let mut bytes_written = 0u64;
    manifest.shards.clear();
    for (i, shard) in shards.into_iter().enumerate() {
        match shard? {
            Shard::Keep(entry) => manifest.shards.push(entry),
            Shard::Dropped => {}
            Shard::Write(artifact) => {
                let encoded = artifact.encode()?;
                let file = match old {
                    Some(_) => gen_shard_file(i, generation),
                    None => Artifact::shard_file_name(i),
                };
                writer.write_file(&dir.join(&file), encoded.as_ref())?;
                bytes_written += encoded.len() as u64;
                manifest.shards.push(ShardEntry {
                    file,
                    row_start: artifact.meta.row_start,
                    row_end: artifact.meta.row_end,
                    bytes: encoded.len() as u64,
                    crc32: crc32(encoded.as_ref()),
                    tombstones: artifact.tombstones.len(),
                    ..ShardEntry::default()
                });
            }
        }
    }
    if let Some(map) = id_map {
        let name = gen_idmap_file(generation);
        let json = map.to_json();
        writer.write_file(&dir.join(&name), json.as_bytes())?;
        bytes_written += json.len() as u64;
        manifest.id_map = Some(name);
    }
    manifest
        .validate()
        .map_err(|e| ServeError::Corrupt(format!("layout manifest: {e}")))?;
    let json = manifest.to_json();
    writer.replace(&dir.join(Artifact::MANIFEST_FILE), json.as_bytes())?;
    bytes_written += json.len() as u64;

    // Post-commit cleanup is best-effort: a crash here strands
    // unreferenced files, never an unloadable layout.
    if let Some(old) = old {
        for file in referenced(old) {
            if !referenced(&manifest).any(|live| live == file) {
                let _ = writer.remove_file(&dir.join(file));
            }
        }
    }
    Ok((manifest, bytes_written))
}

/// Balanced contiguous row ranges: `shards` (clamped to `1..=n`) ranges
/// over `0..n`, the first `n % shards` one row longer.
pub fn balanced_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, n.max(1));
    let (base, extra) = (n / shards, n % shards);
    let mut start = 0;
    (0..shards)
        .map(|i| {
            let end = start + base + usize::from(i < extra);
            let range = (start, end);
            start = end;
            range
        })
        .collect()
}

/// [`Artifact::save_sharded`] through `writer`.
pub(crate) fn write_layout(
    artifact: &Artifact,
    dir: &Path,
    shards: usize,
    writer: &mut dyn LayoutWriter,
) -> Result<ShardManifest> {
    if !artifact.meta.is_full() {
        return Err(ServeError::InvalidArgument(
            "can only shard a full artifact".into(),
        ));
    }
    std::fs::create_dir_all(dir)?;
    // A directory without a readable manifest counts as fresh.
    let old = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).ok();
    let header = crate::router::one_shard_manifest(artifact);
    let shards = balanced_ranges(artifact.meta.n, shards)
        .into_iter()
        .map(|(start, end)| {
            artifact
                .shard(start, end)
                .map(|a| Shard::Write(Box::new(a)))
        });
    Ok(commit_layout(dir, old.as_ref(), header, shards, None, writer)?.0)
}

/// What [`publish`] wrote.
#[derive(Debug)]
pub struct Published {
    /// The committed manifest when `out` is a sharded layout; `None`
    /// for a single file.
    pub manifest: Option<ShardManifest>,
    /// Bytes of the artifact file, or of all shard files.
    pub bytes: u64,
    /// The IVF sidecars written, each with its index.
    pub sidecars: Vec<(PathBuf, IvfIndex)>,
}

/// Publishes a full `artifact` at `out` by rename: a single file when
/// `shards` is at most 1, otherwise a layout of `shards` row ranges.
///
/// IVF sidecars follow one rule: built with `index` when given, else
/// with the config of the sidecar already at `out` (shard 0's for a
/// layout), else none. They are built before anything is written, so a
/// bad `index` fails without touching `out`; an inherited config that
/// no longer builds drops the sidecar. Old sidecars not rewritten are
/// removed, since their rows no longer match.
///
/// # Errors
/// [`ServeError::InvalidArgument`] for a non-full artifact or an IVF
/// config that cannot be built; I/O errors from `writer`.
pub fn publish(
    artifact: &Artifact,
    out: &Path,
    shards: usize,
    index: Option<&IvfConfig>,
    writer: &mut dyn LayoutWriter,
) -> Result<Published> {
    let layout = shards > 1;
    let sidecar_path = |i: usize| {
        if layout {
            out.join(Artifact::shard_index_file_name(i))
        } else {
            Artifact::index_sidecar_path(out)
        }
    };
    let build = |config: &IvfConfig| -> Result<Vec<IvfIndex>> {
        if !layout {
            return Ok(vec![artifact.build_ivf(config)?]);
        }
        balanced_ranges(artifact.meta.n, shards)
            .into_iter()
            .map(|(start, end)| artifact.shard(start, end)?.build_ivf(config))
            .collect()
    };
    let indexes = match index {
        Some(config) => build(config)?,
        None => IvfIndex::load(&sidecar_path(0))
            .ok()
            .and_then(|old| build(&old.config()).ok())
            .unwrap_or_default(),
    };
    let old_sidecars = if layout {
        ShardManifest::load(&out.join(Artifact::MANIFEST_FILE)).map_or(0, |m| m.shards.len())
    } else {
        1
    };

    let (manifest, bytes) = if layout {
        let manifest = write_layout(artifact, out, shards, writer)?;
        let bytes = manifest.shards.iter().map(|e| e.bytes).sum();
        (Some(manifest), bytes)
    } else {
        let encoded = artifact.encode()?;
        writer.replace(out, encoded.as_ref())?;
        (None, encoded.len() as u64)
    };
    let mut sidecars = Vec::with_capacity(indexes.len());
    for (i, index) in indexes.into_iter().enumerate() {
        let path = sidecar_path(i);
        writer.replace(&path, index.encode().as_ref())?;
        sidecars.push((path, index));
    }
    for stale in (sidecars.len()..old_sidecars).map(sidecar_path) {
        if stale.is_file() {
            let _ = writer.remove_file(&stale);
        }
    }
    Ok(Published {
        manifest,
        bytes,
        sidecars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_cover_every_row() {
        assert_eq!(balanced_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(balanced_ranges(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(balanced_ranges(7, 0), vec![(0, 7)]);
    }

    #[test]
    fn next_generation_skips_names_the_old_manifest_holds() {
        let mut old = ShardManifest {
            update_count: 1,
            shards: vec![ShardEntry {
                file: gen_shard_file(0, 2),
                ..ShardEntry::default()
            }],
            ..ShardManifest::default()
        };
        assert_eq!(next_generation(&old), 3);
        old.id_map = Some(gen_idmap_file(3));
        assert_eq!(next_generation(&old), 4);
    }
}
