//! Property tests for approximate serving: at `nprobe = nlist` the
//! IVF path must be **bit-identical** to the exact engine — through
//! the monolithic [`QueryEngine`] and through a [`ShardRouter`] over
//! per-shard indexes alike — and at a realistic partial probe the
//! recall against the exact oracle must stay high on a trained
//! artifact. This is the contract the `/topk?mode=approx` endpoint is
//! built on: approximation is a *measured* trade, never silent
//! corruption.

use proptest::prelude::*;
use sgla_serve::QueryBackend;
use sgla_serve::{
    Artifact, EngineConfig, IvfConfig, QueryEngine, RouterConfig, ShardRouter, TrainConfig,
};
use std::sync::OnceLock;

const N: usize = 72;

/// Training dominates wall-clock; every case reuses one artifact and
/// one monolithic exact reference engine.
fn reference() -> &'static (Artifact, QueryEngine) {
    static SHARED: OnceLock<(Artifact, QueryEngine)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mvag = mvag_data::toy_mvag(N, 3, 31);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        let artifact = Artifact::train(&mvag, &config).unwrap();
        let engine = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
        (artifact, engine)
    })
}

fn indexed_engine(nlist: usize, seed: u64) -> QueryEngine {
    let (artifact, _) = reference();
    QueryEngine::new(
        artifact.clone(),
        EngineConfig {
            index: Some(IvfConfig { nlist, seed }),
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Monolithic engine: `nprobe >= nlist` answers must match the
    /// exact engine bit for bit, for any list count and query mix.
    #[test]
    fn full_probe_engine_bit_identical_to_exact(
        nlist in 1usize..10,
        queries in proptest::collection::vec((0usize..N, 1usize..20), 1..10),
        seed in 0u64..u64::MAX,
    ) {
        let (_, exact_engine) = reference();
        let approx_engine = indexed_engine(nlist, seed);
        let exact = exact_engine.top_k_batch(&queries);
        let approx_queries: Vec<(usize, usize, usize)> =
            queries.iter().map(|&(node, k)| (node, k, usize::MAX)).collect();
        let approx = approx_engine.top_k_batch_approx(&approx_queries);
        for ((e, a), &(node, k)) in exact.iter().zip(&approx).zip(&queries) {
            let e = e.as_ref().unwrap();
            let a = a.as_ref().unwrap();
            prop_assert_eq!(e.len(), a.len(), "len for query ({}, {})", node, k);
            for (en, an) in e.iter().zip(a) {
                prop_assert_eq!(en.node, an.node, "node order for query ({}, {})", node, k);
                prop_assert_eq!(
                    en.score.to_bits(), an.score.to_bits(),
                    "score bits for query ({}, {})", node, k
                );
            }
        }
    }

    /// Shard router over per-shard indexes: full-probe fan-out must
    /// match the *monolithic exact* engine bit for bit — sharding and
    /// approximation together must still be invisible at full width.
    #[test]
    fn full_probe_router_bit_identical_to_exact(
        shards in 1usize..7,
        nlist in 1usize..6,
        max_resident in 0usize..4,
        queries in proptest::collection::vec((0usize..N, 1usize..16), 1..8),
        case in 0u64..u64::MAX,
    ) {
        let (artifact, exact_engine) = reference();
        let dir = std::env::temp_dir().join(format!(
            "sgla-index-equiv-{shards}-{nlist}-{max_resident}-{case}-{:?}",
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        artifact.save_sharded(&dir, shards).unwrap();
        let router = ShardRouter::open(
            &dir,
            RouterConfig {
                engine: EngineConfig {
                    index: Some(IvfConfig { nlist, seed: case }),
                    ..EngineConfig::default()
                },
                max_resident,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let approx_queries: Vec<(usize, usize, usize)> =
            queries.iter().map(|&(node, k)| (node, k, usize::MAX)).collect();
        let exact = exact_engine.top_k_batch(&queries);
        let approx = router.top_k_batch_approx(&approx_queries);
        for ((e, a), &(node, k)) in exact.iter().zip(&approx).zip(&queries) {
            let e = e.as_ref().unwrap();
            let a = a.as_ref().unwrap();
            prop_assert_eq!(e.len(), a.len(), "len for query ({}, {})", node, k);
            for (en, an) in e.iter().zip(a) {
                prop_assert_eq!(en.node, an.node, "node order for query ({}, {})", node, k);
                prop_assert_eq!(
                    en.score.to_bits(), an.score.to_bits(),
                    "score bits for query ({}, {})", node, k
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Partial-probe quality gate on a *trained* artifact (not synthetic
/// blobs): recall@10 against the exact oracle at a realistic probe
/// width. The embedding clusters strongly (that is what SGLA is for),
/// so probing a quarter of the lists must recover ≥ 0.9 of the true
/// neighbors.
#[test]
fn partial_probe_recall_at_10_on_trained_artifact() {
    let mvag = mvag_data::toy_mvag(240, 3, 11);
    let mut config = TrainConfig::default();
    config.embed.dim = 16;
    let artifact = Artifact::train(&mvag, &config).unwrap();
    let exact_engine = QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap();
    let approx_engine = QueryEngine::new(
        artifact,
        EngineConfig {
            index: Some(IvfConfig { nlist: 16, seed: 7 }),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let nprobe = 4;
    let mut hit = 0usize;
    let mut total = 0usize;
    for q in (0..240).step_by(7) {
        let exact = exact_engine.top_k_similar(q, 10).unwrap();
        let approx = approx_engine.top_k_approx(q, 10, nprobe).unwrap();
        total += exact.len();
        hit += exact
            .iter()
            .filter(|e| approx.iter().any(|a| a.node == e.node))
            .count();
    }
    let recall = hit as f64 / total as f64;
    assert!(
        recall >= 0.9,
        "recall@10 = {recall:.3} at nprobe {nprobe}/16 on the trained artifact"
    );
    // And the scan work was genuinely sublinear.
    let stats = approx_engine.index_stats();
    let avg_rows = stats.rows_scanned as f64 / stats.approx_queries as f64;
    assert!(
        avg_rows < 0.5 * 239.0,
        "avg rows scanned per query {avg_rows:.0} is not sublinear in n"
    );
}
