//! Property tests: memory-mapped serving is bit-identical to owned.
//!
//! The `EmbeddingStore` seam promises that a v5 artifact served
//! zero-copy out of the page cache answers every query with exactly
//! the bits the heap-owned decode of the same file produces — across
//! monolithic and sharded layouts, with and without tombstones, and
//! through both the exact scan and the IVF index. These properties
//! drive randomly shaped artifacts (rows, dimension, shard count,
//! tombstone sets) through both stores and compare raw `f64` bit
//! patterns, never approximate equality: the mapped path reads the
//! same bytes the encoder wrote, so there is nothing to round.
//!
//! Mapped serving only exists on little-endian Linux
//! ([`sgla_serve::store::MMAP_SUPPORTED`]); elsewhere this whole suite
//! compiles away.

#![cfg(all(target_os = "linux", target_endian = "little"))]

use proptest::prelude::*;
use sgla_serve::store::{open_mapped, MmapMode};
use sgla_serve::{
    Artifact, EngineConfig, IvfConfig, QueryBackend, QueryEngine, RouterConfig, ShardEngine,
    ShardRouter, TrainConfig,
};
use std::path::PathBuf;

/// A randomly shaped serving workload: artifact geometry plus the
/// tombstone set and probe nodes derived from it.
#[derive(Debug, Clone)]
struct Workload {
    n: usize,
    dim: usize,
    seed: u64,
    shards: usize,
    tombstones: Vec<usize>,
    probes: Vec<usize>,
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (24usize..=60, 4usize..=8, 0u64..1000, 1usize..=4).prop_flat_map(|(n, dim, seed, shards)| {
        (collection::vec(0..n, 0..4), collection::vec(0..n, 2..6)).prop_map(
            move |(mut tombstones, probes)| {
                // Tombstone ids are strictly increasing in the codec.
                tombstones.sort_unstable();
                tombstones.dedup();
                Workload {
                    n,
                    dim,
                    seed,
                    shards,
                    tombstones,
                    probes,
                }
            },
        )
    })
}

/// Trains a small artifact for the workload and stamps its tombstones.
fn trained(w: &Workload) -> Artifact {
    let mvag = mvag_graph::toy::toy_mvag(w.n, 3, w.seed.wrapping_add(7));
    let mut config = TrainConfig::default();
    config.embed.dim = w.dim;
    let mut artifact = Artifact::train(&mvag, &config).unwrap();
    artifact.tombstones = w.tombstones.clone();
    artifact
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sgla-store-eq-{tag}-{seed}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// One backend's answers for the probe set, as raw bits. `k` is large
/// enough to rank every live row, so a single divergent score anywhere
/// in the scan shows up.
fn answers(backend: &dyn QueryBackend, probes: &[usize], n: usize) -> Vec<Vec<u64>> {
    probes
        .iter()
        .map(|&node| {
            let mut bits = Vec::new();
            match backend.cluster_of(node) {
                Ok(info) => {
                    bits.extend([1, info.cluster as u64, info.centroid_dist.to_bits()]);
                }
                // Tombstoned probes must fail identically, not just
                // somehow, on both stores.
                Err(e) => bits.extend([0, e.to_string().len() as u64]),
            }
            for result in backend.top_k_batch(&[(node, n)]) {
                match result {
                    Ok(neighbors) => {
                        for nb in neighbors {
                            bits.extend([nb.node as u64, nb.score.to_bits()]);
                        }
                    }
                    Err(e) => bits.extend([0, e.to_string().len() as u64]),
                }
            }
            match backend.embed_batch(&[node]) {
                Ok(rows) => bits.extend(rows[0].iter().map(|v| v.to_bits())),
                Err(e) => bits.extend([0, e.to_string().len() as u64]),
            }
            bits
        })
        .collect()
}

proptest! {
    // Each case trains an eigensolver run, so the suite trades case
    // count for case size (shape and tombstones vary per case).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Monolithic: `QueryEngine::from_mapped` over the saved v5 file
    /// answers bit-identically to the owned decode of the same file
    /// (opened through the front end's file loader, norms reused).
    #[test]
    fn monolithic_mapped_matches_owned(w in workload_strategy()) {
        let artifact = trained(&w);
        let dir = scratch("mono", w.seed);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.sgla");
        artifact.save(&path).unwrap();

        let owned = ShardRouter::open(&path, RouterConfig::default()).unwrap();
        let mapped =
            QueryEngine::from_mapped(open_mapped(&path).unwrap(), EngineConfig::default(), None)
                .unwrap();
        prop_assert_eq!(mapped.store_memory().stores, vec!["mapped".to_string()]);
        prop_assert_eq!(owned.store_memory().stores, vec!["owned".to_string()]);
        prop_assert_eq!(
            answers(&owned, &w.probes, w.n),
            answers(&mapped, &w.probes, w.n)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Monolithic + IVF: the same prebuilt index attached to both
    /// stores yields bit-identical approximate answers (same probe
    /// lists, same exact rescoring over the same row bytes).
    #[test]
    fn mapped_ivf_matches_owned_ivf(w in workload_strategy()) {
        let artifact = trained(&w);
        let dir = scratch("ivf", w.seed);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.sgla");
        artifact.save(&path).unwrap();
        let index = artifact
            .build_ivf(&IvfConfig { nlist: 4, seed: w.seed })
            .unwrap();

        let (owned_artifact, norms) = Artifact::load_with_norms(&path).unwrap();
        let owned = QueryEngine::pinned(
            ShardEngine::owned(owned_artifact, Some(norms), Some(index.clone()), None).unwrap(),
            EngineConfig::default(),
        );
        let mapped = QueryEngine::from_mapped(
            open_mapped(&path).unwrap(),
            EngineConfig::default(),
            Some(index),
        )
        .unwrap();
        for &node in &w.probes {
            for nprobe in [1, 2, 4] {
                let o = owned.top_k_approx(node, 8, nprobe);
                let m = mapped.top_k_approx(node, 8, nprobe);
                match (o, m) {
                    (Ok(o), Ok(m)) => {
                        let o: Vec<(usize, u64)> =
                            o.iter().map(|nb| (nb.node, nb.score.to_bits())).collect();
                        let m: Vec<(usize, u64)> =
                            m.iter().map(|nb| (nb.node, nb.score.to_bits())).collect();
                        prop_assert_eq!(o, m, "node {} nprobe {}", node, nprobe);
                    }
                    (Err(_), Err(_)) => {}
                    (o, m) => panic!("node {node} nprobe {nprobe}: owned {o:?} vs mapped {m:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sharded: a router forced to map every shard (`--mmap on`)
    /// answers bit-identically to the same layout decoded owned.
    #[test]
    fn sharded_mapped_router_matches_owned(w in workload_strategy()) {
        let artifact = trained(&w);
        let dir = scratch("shard", w.seed);
        artifact.save_sharded(&dir, w.shards).unwrap();

        let owned = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        let mapped = ShardRouter::open(
            &dir,
            RouterConfig {
                mmap: MmapMode::On,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let reference = answers(&owned, &w.probes, w.n);
        prop_assert_eq!(reference, answers(&mapped, &w.probes, w.n));
        // The mapped router really mapped: force every shard resident,
        // then check what the stores report.
        let all: Vec<usize> = (0..w.n).filter(|i| !w.tombstones.contains(i)).collect();
        mapped.embed_batch(&all).unwrap();
        prop_assert!(mapped
            .store_memory()
            .stores
            .iter()
            .all(|s| s == "mapped"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
