//! Train → save artifact → load → query, then serve the same artifact
//! over HTTP and issue the same queries through the network path.
//!
//! ```bash
//! cargo run --release --example serve_roundtrip
//! ```

use sgla::prelude::*;
use sgla::serve::HttpClient;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train: the full pipeline (view Laplacians → SGLA+ → spectral
    //    clustering → embedding) bundled into one artifact.
    let mvag = sgla::data::toy_mvag(300, 3, 42);
    println!("dataset: {}", mvag.summary());
    let mut config = TrainConfig::default();
    config.embed.dim = 32;
    let artifact = Artifact::train(&mvag, &config)?;

    // 2. Persist and reload — the store is versioned and checksummed,
    //    and the round-trip is bit-exact.
    let path = std::env::temp_dir().join("sgla-serve-roundtrip.sgla");
    artifact.save(&path)?;
    println!(
        "trained: weights {:?}, {} bytes saved",
        artifact.weights,
        std::fs::metadata(&path)?.len()
    );
    let loaded = Artifact::load(&path)?;
    assert_eq!(artifact, loaded);
    println!("saved + reloaded bit-exact from {}", path.display());

    // 3. Query the engine directly.
    let engine = Arc::new(QueryEngine::new(loaded, EngineConfig::default())?);
    let info = engine.cluster_of(7)?;
    println!(
        "node 7: cluster {} (centroid distance {:.4})",
        info.cluster, info.centroid_dist
    );
    let direct_neighbors = engine.top_k_similar(7, 5)?;
    for nb in &direct_neighbors {
        println!("  neighbour {} score {:.4}", nb.node, nb.score);
    }

    // 4. Serve the same engine over HTTP and repeat the query through
    //    the network path — identical answers.
    let server = Server::start(
        Arc::clone(&engine),
        &ServerConfig {
            addr: "127.0.0.1:0".parse()?,
            ..ServerConfig::default()
        },
    )?;
    println!("serving on http://{}", server.local_addr());
    let mut client = HttpClient::connect(server.local_addr())?;
    let res = client.get("/topk/7?k=5")?;
    assert_eq!(res.status, 200);
    let wire_nodes: Vec<usize> = res
        .body
        .get("neighbors")
        .and_then(|v| v.as_array())
        .map(|arr| {
            arr.iter()
                .filter_map(|nb| nb.get("node").and_then(|n| n.as_usize()))
                .collect()
        })
        .unwrap_or_default();
    let direct_nodes: Vec<usize> = direct_neighbors.iter().map(|nb| nb.node).collect();
    assert_eq!(wire_nodes, direct_nodes);
    println!("HTTP answer matches the direct library call: {wire_nodes:?}");

    let stats = client.get("/stats")?;
    println!(
        "server stats: {} requests so far",
        stats
            .body
            .get("total_requests")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    );

    server.shutdown();
    std::fs::remove_file(&path).ok();
    println!("done");
    Ok(())
}
