//! End-to-end serving test: train on `toy_mvag`, save → load the
//! artifact (bit-exact), serve it over a loopback socket, and check
//! every HTTP answer against direct library calls.

use mvag_data::json::Value;
use sgla_serve::{
    Artifact, EngineConfig, HttpClient, QueryBackend, QueryEngine, Server, ServerConfig,
    TrainConfig,
};
use std::sync::Arc;

fn trained_artifact() -> Artifact {
    // Training dominates test wall-clock in debug builds; all four
    // tests serve clones of one shared artifact.
    static SHARED: std::sync::OnceLock<Artifact> = std::sync::OnceLock::new();
    SHARED
        .get_or_init(|| {
            let mvag = mvag_data::toy_mvag(90, 3, 19);
            let mut config = TrainConfig::default();
            config.embed.dim = 8;
            Artifact::train(&mvag, &config).unwrap()
        })
        .clone()
}

fn start_server(artifact: Artifact) -> (Server, Arc<QueryEngine>) {
    let engine = Arc::new(QueryEngine::new(artifact, EngineConfig::default()).unwrap());
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &config).unwrap();
    (server, engine)
}

#[test]
fn save_load_serve_and_query() {
    let artifact = trained_artifact();

    // Bit-exact persistence round-trip through a real file.
    let dir = std::env::temp_dir().join("sgla-e2e-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.sgla");
    artifact.save(&path).unwrap();
    let loaded = Artifact::load(&path).unwrap();
    assert_eq!(artifact, loaded);
    std::fs::remove_file(&path).ok();

    let (server, engine) = start_server(loaded.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Health.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));

    // Artifact metadata matches.
    let meta = client.get("/artifact").unwrap();
    assert_eq!(meta.status, 200);
    assert_eq!(meta.body.get("n").unwrap().as_usize(), Some(90));
    assert_eq!(meta.body.get("k").unwrap().as_usize(), Some(3));
    let weights = meta.body.get("weights").unwrap().as_array().unwrap();
    for (wire, direct) in weights.iter().zip(&artifact.weights) {
        assert_eq!(wire.as_f64().unwrap().to_bits(), direct.to_bits());
    }

    // Cluster answers match direct calls for every node.
    for node in 0..90 {
        let res = client.get(&format!("/cluster/{node}")).unwrap();
        assert_eq!(res.status, 200);
        let direct = engine.cluster_of(node).unwrap();
        assert_eq!(
            res.body.get("cluster").unwrap().as_usize(),
            Some(direct.cluster)
        );
        let dist = res.body.get("centroid_dist").unwrap().as_f64().unwrap();
        assert_eq!(dist.to_bits(), direct.centroid_dist.to_bits());
    }

    // Top-k answers match direct calls (node ids and bit-exact scores —
    // the JSON writer is shortest-roundtrip).
    for node in [0usize, 17, 44, 89] {
        let res = client.get(&format!("/topk/{node}?k=7")).unwrap();
        assert_eq!(res.status, 200);
        let direct = engine.top_k_similar(node, 7).unwrap();
        let neighbors = res.body.get("neighbors").unwrap().as_array().unwrap();
        assert_eq!(neighbors.len(), direct.len());
        for (wire, want) in neighbors.iter().zip(&direct) {
            assert_eq!(wire.get("node").unwrap().as_usize(), Some(want.node));
            let score = wire.get("score").unwrap().as_f64().unwrap();
            assert_eq!(score.to_bits(), want.score.to_bits());
        }
    }

    // Default k is 10 when the query string omits it.
    let res = client.get("/topk/3").unwrap();
    assert_eq!(
        res.body.get("neighbors").unwrap().as_array().unwrap().len(),
        10
    );

    // Embedding batches match the matrix rows.
    let body = Value::object(vec![("nodes", Value::from(vec![0usize, 5, 89]))]);
    let res = client.post("/embed", &body).unwrap();
    assert_eq!(res.status, 200);
    let rows = res.body.get("embeddings").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 3);
    for (row_val, &node) in rows.iter().zip(&[0usize, 5, 89]) {
        let direct = artifact.embedding.row(node);
        let wire = row_val.as_array().unwrap();
        assert_eq!(wire.len(), direct.len());
        for (w, d) in wire.iter().zip(direct) {
            assert_eq!(w.as_f64().unwrap().to_bits(), d.to_bits());
        }
    }

    // Stats reflect the traffic we just generated, and report the
    // resolved worker-pool configuration.
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert!(stats.body.get("total_requests").unwrap().as_f64().unwrap() >= 90.0);
    let pool = stats.body.get("pool").unwrap();
    assert!(pool.get("threads").unwrap().as_usize().unwrap() >= 1);
    let kind = pool.get("kind").unwrap().as_str().unwrap();
    assert!(["inline", "static", "steal"].contains(&kind), "{kind}");

    server.shutdown();
}

#[test]
fn sharded_server_is_indistinguishable_over_http() {
    use sgla_serve::{RouterConfig, ShardRouter};

    let artifact = trained_artifact();
    let dir = std::env::temp_dir().join(format!("sgla-e2e-sharded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    artifact.save_sharded(&dir, 4).unwrap();

    let (mono_server, engine) = start_server(artifact);
    let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 4,
        ..ServerConfig::default()
    };
    let shard_server = Server::start_backend(Arc::new(router), &config).unwrap();

    let mut mono = HttpClient::connect(mono_server.local_addr()).unwrap();
    let mut shard = HttpClient::connect(shard_server.local_addr()).unwrap();

    // /artifact differs only in the shard count.
    let a_mono = mono.get("/artifact").unwrap().body;
    let a_shard = shard.get("/artifact").unwrap().body;
    for key in [
        "dataset",
        "n",
        "k",
        "dim",
        "seed",
        "weights",
        "format_version",
    ] {
        assert_eq!(a_mono.get(key), a_shard.get(key), "{key}");
    }
    assert_eq!(a_mono.get("shards").unwrap().as_usize(), Some(1));
    assert_eq!(a_shard.get("shards").unwrap().as_usize(), Some(4));

    // Every query endpoint answers byte-identically (the JSON writer
    // is deterministic and scores are bit-identical by construction).
    for node in (0..90).step_by(7) {
        let m = mono.get(&format!("/cluster/{node}")).unwrap();
        let s = shard.get(&format!("/cluster/{node}")).unwrap();
        assert_eq!(m.body, s.body, "cluster {node}");
        let m = mono.get(&format!("/topk/{node}?k=6")).unwrap();
        let s = shard.get(&format!("/topk/{node}?k=6")).unwrap();
        assert_eq!(m.body, s.body, "topk {node}");
    }
    let body = Value::object(vec![("nodes", Value::from(vec![0usize, 45, 89]))]);
    assert_eq!(
        mono.post("/embed", &body).unwrap().body,
        shard.post("/embed", &body).unwrap().body
    );

    // Error paths agree too.
    assert_eq!(shard.get("/cluster/100000").unwrap().status, 400);
    assert_eq!(shard.get("/topk/1?k=0").unwrap().status, 400);

    // /stats reports shard residency.
    let stats = shard.get("/stats").unwrap().body;
    assert_eq!(stats.get("shards").unwrap().as_usize(), Some(4));
    assert_eq!(stats.get("resident_shards").unwrap().as_usize(), Some(4));

    drop(engine);
    mono_server.shutdown();
    shard_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn approx_mode_metrics_and_stats_reset_over_http() {
    use sgla_serve::IvfConfig;

    let engine = Arc::new(
        QueryEngine::new(
            trained_artifact(),
            EngineConfig {
                index: Some(IvfConfig { nlist: 6, seed: 3 }),
                ..EngineConfig::default()
            },
        )
        .unwrap(),
    );
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &config).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Full probe over HTTP is byte-identical to the exact endpoint
    // (modulo the mode tag).
    for node in [0usize, 33, 89] {
        let exact = client.get(&format!("/topk/{node}?k=6")).unwrap();
        let approx = client
            .get(&format!("/topk/{node}?k=6&mode=approx&nprobe=6"))
            .unwrap();
        assert_eq!(exact.status, 200);
        assert_eq!(approx.status, 200);
        assert_eq!(exact.body.get("mode").unwrap().as_str(), Some("exact"));
        assert_eq!(approx.body.get("mode").unwrap().as_str(), Some("approx"));
        assert_eq!(
            exact.body.get("neighbors").unwrap(),
            approx.body.get("neighbors").unwrap(),
            "node {node}"
        );
    }
    // Default-nprobe approx answers are well-formed.
    let res = client.get("/topk/5?k=4&mode=approx").unwrap();
    assert_eq!(res.status, 200);
    assert_eq!(
        res.body.get("neighbors").unwrap().as_array().unwrap().len(),
        4
    );
    // Bad parameter combinations are 400s.
    assert_eq!(client.get("/topk/5?mode=frog").unwrap().status, 400);
    assert_eq!(client.get("/topk/5?nprobe=3").unwrap().status, 400);
    assert_eq!(
        client.get("/topk/5?mode=approx&nprobe=x").unwrap().status,
        400
    );

    // /stats carries the index counters.
    let stats = client.get("/stats").unwrap().body;
    let index = stats.get("index").unwrap();
    assert_eq!(index.get("enabled").unwrap().as_bool(), Some(true));
    assert_eq!(index.get("nlist").unwrap().as_usize(), Some(6));
    assert!(index.get("approx_queries").unwrap().as_f64().unwrap() >= 4.0);
    assert!(index.get("rows_scanned").unwrap().as_f64().unwrap() > 0.0);

    // Reset-on-read: the first reset drains the window, a second
    // reset right after reports (almost) nothing, while cumulative
    // totals survive.
    let first = client.get("/stats?reset=true").unwrap().body;
    assert!(first.get("window_requests").unwrap().as_f64().unwrap() >= 8.0);
    let second = client.get("/stats?reset=1").unwrap().body;
    // Only the intervening /stats request itself can be in the window.
    assert!(second.get("window_requests").unwrap().as_f64().unwrap() <= 2.0);
    assert!(second.get("total_requests").unwrap().as_f64().unwrap() >= 8.0);

    // /metrics is a Prometheus text page with the index counters, and
    // the whole page conforms to the text exposition format (TYPE
    // lines, cumulative monotone buckets, +Inf == _count).
    let (status, page) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(page.contains("# TYPE sgla_requests_total counter"));
    assert!(page.contains("sgla_requests_total{endpoint=\"topk\"}"));
    assert!(page.contains("sgla_index_enabled 1"));
    assert!(page.contains("sgla_index_rows_scanned_total"));
    sgla_serve::metrics::validate_prometheus(&page)
        .unwrap_or_else(|e| panic!("/metrics not conformant: {e}"));
    assert!(page.contains("# TYPE sgla_pool_threads gauge"));
    // The metrics page itself shows up in endpoint counters, and the
    // client connection stays usable after the text response.
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.shutdown();
}

#[test]
fn approx_without_index_is_400_over_http() {
    let (server, _engine) = start_server(trained_artifact());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let res = client.get("/topk/5?k=4&mode=approx").unwrap();
    assert_eq!(res.status, 400);
    assert!(res
        .body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("index"));
    let stats = client.get("/stats").unwrap().body;
    assert_eq!(
        stats
            .get("index")
            .unwrap()
            .get("enabled")
            .unwrap()
            .as_bool(),
        Some(false)
    );
    server.shutdown();
}

#[test]
fn error_paths_are_typed_http_errors() {
    let (server, _engine) = start_server(trained_artifact());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Out-of-range node.
    let res = client.get("/cluster/100000").unwrap();
    assert_eq!(res.status, 400);
    assert!(res.body.get("error").is_some());

    // Bad node id.
    assert_eq!(client.get("/cluster/notanumber").unwrap().status, 400);
    // Bad k.
    assert_eq!(client.get("/topk/1?k=frog").unwrap().status, 400);
    // k = 0.
    assert_eq!(client.get("/topk/1?k=0").unwrap().status, 400);
    // Unknown route.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    // Wrong method on a known route.
    let res = client.post("/cluster/1", &Value::Null).unwrap();
    assert_eq!(res.status, 405);
    // Malformed embed bodies.
    let res = client
        .post("/embed", &Value::from("not an object"))
        .unwrap();
    assert_eq!(res.status, 400);
    let res = client
        .post(
            "/embed",
            &Value::object(vec![("nodes", Value::from(vec![-1.5_f64]))]),
        )
        .unwrap();
    assert_eq!(res.status, 400);

    // The connection survives all those errors (keep-alive) and still
    // serves good requests.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let (server, engine) = start_server(trained_artifact());
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for t in 0..8usize {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            for i in 0..30usize {
                let node = (t * 13 + i * 7) % 90;
                let res = client.get(&format!("/topk/{node}?k=5")).unwrap();
                assert_eq!(res.status, 200);
                let direct = engine.top_k_similar(node, 5).unwrap();
                let neighbors = res.body.get("neighbors").unwrap().as_array().unwrap();
                let got: Vec<usize> = neighbors
                    .iter()
                    .map(|v| v.get("node").unwrap().as_usize().unwrap())
                    .collect();
                let want: Vec<usize> = direct.iter().map(|nb| nb.node).collect();
                assert_eq!(got, want, "node {node}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn chunked_transfer_encoding_rejected_explicitly() {
    use std::io::{Read, Write};
    let (server, _engine) = start_server(trained_artifact());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // A chunked body the server does not implement must be rejected
    // up front, not half-read into a desynced keep-alive stream.
    stream
        .write_all(
            b"POST /embed HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let head = String::from_utf8_lossy(&response);
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head:.80}");
    assert!(head.contains("transfer-encoding"), "got: {head:.200}");
    server.shutdown();
}

#[test]
fn oversized_header_section_rejected() {
    use std::io::{Read, Write};
    let (server, _engine) = start_server(trained_artifact());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // Stream far more header bytes than the 8 KiB cap; the server
    // must answer 400 instead of buffering without bound.
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = b"x-junk: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    let mut rejected = false;
    let mut response = Vec::new();
    for _ in 0..4096 {
        if stream.write_all(filler).is_err() {
            // Server already closed on us mid-stream: also a rejection.
            rejected = true;
            break;
        }
    }
    if !rejected {
        let _ = stream.write_all(b"\r\n");
        let _ = stream.read_to_end(&mut response);
        let head = String::from_utf8_lossy(&response);
        assert!(head.starts_with("HTTP/1.1 400"), "got: {head:.60}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_closes_cleanly() {
    let (server, _engine) = start_server(trained_artifact());
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    // An idle keep-alive client must not stall shutdown (workers poll
    // the stop flag between requests).
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "shutdown stalled {:?} on an idle keep-alive connection",
        started.elapsed()
    );
    // New connections are refused or die immediately after shutdown.
    let alive = HttpClient::connect(addr)
        .and_then(|mut c| c.get("/healthz"))
        .is_ok();
    assert!(!alive, "server still answering after shutdown");
}

#[test]
fn live_reload_hot_swaps_the_updated_artifact() {
    // The operator flow end to end: serve an artifact from disk,
    // update the file behind the server (sgla-serve update would do
    // this), POST /reload, and observe the swapped state — with the
    // updated answers bit-identical to a fresh load of the new file.
    let mvag = mvag_data::toy_mvag(60, 2, 31);
    let mut config = TrainConfig::default();
    config.embed.dim = 6;
    let (artifact, views) = Artifact::train_with_views(&mvag, &config).unwrap();

    let dir = std::env::temp_dir().join(format!("sgla-e2e-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.sgla");
    artifact.save(&path).unwrap();

    let loader_path = path.clone();
    let loader: sgla_serve::BackendLoader = Box::new(move || {
        let artifact = Artifact::load(&loader_path)?;
        Ok(
            Arc::new(QueryEngine::new(artifact, EngineConfig::default())?)
                as Arc<dyn sgla_serve::QueryBackend>,
        )
    });
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 4,
        ..ServerConfig::default()
    };
    let server = Server::start_reloadable(loader, &server_config).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Initial state: n = 60, update_count = 0; node 60 does not exist.
    let meta = client.get("/artifact").unwrap();
    assert_eq!(meta.body.get("n").unwrap().as_usize(), Some(60));
    assert_eq!(meta.body.get("update_count").unwrap().as_usize(), Some(0));
    assert_eq!(client.get("/cluster/60").unwrap().status, 400);

    // Reloading without a changed file is a harmless no-op swap.
    let noop = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(noop.status, 200);
    assert_eq!(noop.body.get("n").unwrap().as_usize(), Some(60));

    // Update the artifact on disk (append 4 nodes), then reload.
    let delta = mvag_graph::generators::random_append_delta(
        &mvag,
        &mvag_graph::generators::AppendConfig {
            added_nodes: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let updated = artifact
        .update(&views, &mvag, &delta, &config)
        .unwrap()
        .artifact;
    updated.save(&path).unwrap();
    let reloaded = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(reloaded.status, 200);
    assert_eq!(reloaded.body.get("n").unwrap().as_usize(), Some(64));
    assert_eq!(
        reloaded.body.get("previous_n").unwrap().as_usize(),
        Some(60)
    );
    assert_eq!(
        reloaded.body.get("update_count").unwrap().as_usize(),
        Some(1)
    );

    // Served answers now come from the updated artifact, bit-identical
    // to a fresh engine over it — including the appended nodes.
    let fresh = QueryEngine::new(updated, EngineConfig::default()).unwrap();
    for node in [0usize, 35, 60, 63] {
        let wire = client.get(&format!("/topk/{node}?k=5")).unwrap();
        assert_eq!(wire.status, 200);
        let direct = fresh.top_k_similar(node, 5).unwrap();
        let neighbors = wire.body.get("neighbors").unwrap().as_array().unwrap();
        assert_eq!(neighbors.len(), direct.len());
        for (w, d) in neighbors.iter().zip(&direct) {
            assert_eq!(w.get("node").unwrap().as_usize(), Some(d.node));
            assert_eq!(
                w.get("score").unwrap().as_f64().unwrap().to_bits(),
                d.score.to_bits()
            );
        }
    }

    // A broken file on disk fails the reload and keeps the old
    // backend serving.
    std::fs::write(&path, b"garbage").unwrap();
    let failed = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(failed.status, 503);
    assert_eq!(
        client
            .get("/artifact")
            .unwrap()
            .body
            .get("n")
            .unwrap()
            .as_usize(),
        Some(64)
    );
    assert_eq!(client.get("/topk/63?k=3").unwrap().status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_response_carries_a_request_id() {
    let (server, _engine) = start_server(trained_artifact());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let id_of = |res: &sgla_serve::HttpResponse| {
        let id = res
            .request_id
            .clone()
            .unwrap_or_else(|| panic!("no x-request-id on status {}", res.status));
        assert!(id.starts_with("req-") && id.len() == 20, "got {id}");
        id
    };

    // Success and every error class: 200, 400, 404, 405.
    let ok = id_of(&client.get("/healthz").unwrap());
    let bad = client.get("/cluster/notanumber").unwrap();
    assert_eq!(bad.status, 400);
    id_of(&bad);
    let missing = client.get("/nope").unwrap();
    assert_eq!(missing.status, 404);
    id_of(&missing);
    let wrong_method = client.post("/cluster/1", &Value::Null).unwrap();
    assert_eq!(wrong_method.status, 405);
    id_of(&wrong_method);
    let no_reload = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(no_reload.status, 400);
    id_of(&no_reload);

    // Ids are fresh per request.
    assert_ne!(ok, id_of(&client.get("/healthz").unwrap()));

    // Even a request the parser rejects outright gets one.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let head = String::from_utf8_lossy(&response);
        assert!(head.starts_with("HTTP/1.1 400"), "got: {head:.80}");
        assert!(head.to_ascii_lowercase().contains("x-request-id: req-"));
    }
    server.shutdown();

    // A failed hot-reload (503) is stamped too: the loader below works
    // once at startup, then refuses.
    use std::sync::atomic::{AtomicBool, Ordering};
    let armed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&armed);
    let loader: sgla_serve::BackendLoader = Box::new(move || {
        if flag.swap(true, Ordering::SeqCst) {
            return Err(sgla_serve::ServeError::Server("loader down".into()));
        }
        let engine = QueryEngine::new(trained_artifact(), EngineConfig::default())?;
        Ok(Arc::new(engine) as Arc<dyn sgla_serve::QueryBackend>)
    });
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 2,
        ..ServerConfig::default()
    };
    let reloadable = Server::start_reloadable(loader, &config).unwrap();
    let mut client = HttpClient::connect(reloadable.local_addr()).unwrap();
    let failed = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(failed.status, 503);
    id_of(&failed);
    reloadable.shutdown();
}

#[test]
fn reload_on_non_reloadable_server_is_400() {
    let (server, _engine) = start_server(trained_artifact());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let res = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(res.status, 400);
    // Wrong method on /reload is 405.
    assert_eq!(client.get("/reload").unwrap().status, 405);
    server.shutdown();
}
