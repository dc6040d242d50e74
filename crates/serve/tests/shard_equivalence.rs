//! Property test: the sharded serving path is **bit-identical**
//! however the rows are sharded.
//!
//! One artifact is trained once; each proptest case picks a shard
//! count, a residency budget, and a query mix, saves the sharded
//! layout, opens a [`ShardRouter`] over it, and checks every answer —
//! neighbour ids, `f64` score bits, cluster assignments, embedding
//! rows — against a one-shard layout of the very same artifact
//! (sharded(N) vs sharded(1)). The one-shard front end is itself held
//! to a scalar full-sort reference by the engine tests. Row-range
//! sharding must be invisible to clients.

use proptest::prelude::*;
use sgla_serve::{
    Artifact, EngineConfig, QueryBackend, QueryEngine, RouterConfig, ShardRouter, TrainConfig,
};
use std::sync::{Arc, OnceLock};

const N: usize = 72;

/// Training dominates wall-clock; every case reuses one artifact and
/// one sharded(1) reference front end.
fn reference() -> &'static (Artifact, ShardRouter) {
    static SHARED: OnceLock<(Artifact, ShardRouter)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mvag = mvag_data::toy_mvag(N, 3, 23);
        let mut config = TrainConfig::default();
        config.embed.dim = 8;
        let artifact = Artifact::train(&mvag, &config).unwrap();
        let dir = std::env::temp_dir().join(format!("sgla-shard-equiv-ref-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        artifact.save_sharded(&dir, 1).unwrap();
        let one = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
        // Shard 0 loads at open and stays resident: the files can go.
        std::fs::remove_dir_all(&dir).ok();
        (artifact, one)
    })
}

/// A router over a fresh sharded copy of the reference artifact.
fn router_with(shards: usize, max_resident: usize, case: u64) -> (ShardRouter, std::path::PathBuf) {
    let (artifact, _) = reference();
    let dir = std::env::temp_dir().join(format!(
        "sgla-shard-equiv-{shards}-{max_resident}-{case}-{:?}",
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    artifact.save_sharded(&dir, shards).unwrap();
    let router = ShardRouter::open(
        &dir,
        RouterConfig {
            max_resident,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    (router, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_topk_bit_identical_to_monolithic(
        shards in 1usize..8,
        max_resident in 0usize..4,
        queries in proptest::collection::vec((0usize..N, 1usize..20), 1..12),
        case in 0u64..u64::MAX,
    ) {
        let (_, one) = reference();
        let (router, dir) = router_with(shards, max_resident, case);

        // Batch path.
        let direct = one.top_k_batch(&queries);
        let routed = router.top_k_batch(&queries);
        for ((d, r), &(node, k)) in direct.iter().zip(&routed).zip(&queries) {
            let d = d.as_ref().unwrap();
            let r = r.as_ref().unwrap();
            prop_assert_eq!(d.len(), r.len(), "len for query ({}, {})", node, k);
            for (dn, rn) in d.iter().zip(r) {
                prop_assert_eq!(dn.node, rn.node, "node order for query ({}, {})", node, k);
                prop_assert_eq!(
                    dn.score.to_bits(), rn.score.to_bits(),
                    "score bits for query ({}, {})", node, k
                );
            }
        }
        // Single-query path (exercises the router cache on repeats).
        for &(node, k) in queries.iter().take(4) {
            let d = one.top_k_similar(node, k).unwrap();
            let r = router.top_k_similar(node, k).unwrap();
            prop_assert_eq!(d, r);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_point_queries_identical_to_monolithic(
        shards in 1usize..8,
        nodes in proptest::collection::vec(0usize..N, 1..10),
        case in 0u64..u64::MAX,
    ) {
        let (_, one) = reference();
        let (router, dir) = router_with(shards, 0, case.wrapping_add(1));
        for &node in &nodes {
            prop_assert_eq!(
                one.cluster_of(node).unwrap(),
                router.cluster_of(node).unwrap()
            );
        }
        prop_assert_eq!(
            one.embed_batch(&nodes).unwrap(),
            router.embed_batch(&nodes).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Non-proptest smoke check that an in-memory artifact and the
/// sharded layout of the same artifact serve identical answers over a
/// shared `Arc<dyn QueryBackend>` (the HTTP server's view of both).
#[test]
fn backend_trait_view_is_equivalent() {
    let (artifact, _) = reference();
    let (router, dir) = router_with(3, 0, u64::MAX);
    let engine = Arc::new(QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap());
    let backends: Vec<Arc<dyn QueryBackend>> = vec![engine, Arc::new(router)];
    let answers: Vec<_> = backends
        .iter()
        .map(|b| {
            (
                b.meta().clone(),
                b.weights().to_vec(),
                b.top_k_batch(&[(5, 6), (66, 3)]),
                b.embed_batch(&[0, 44]).unwrap(),
            )
        })
        .collect();
    assert_eq!(answers[0].0, answers[1].0);
    assert_eq!(answers[0].1, answers[1].1);
    assert_eq!(answers[0].3, answers[1].3);
    for (a, b) in answers[0].2.iter().zip(&answers[1].2) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    assert_eq!(backends[0].shard_count(), 1);
    assert_eq!(backends[1].shard_count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
