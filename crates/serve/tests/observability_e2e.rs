//! End-to-end tests for the per-query observability layer: EXPLAIN
//! cost profiles (`?explain=1`) must splice onto *byte-identical*
//! answers on every backend shape, the slow-query ring must capture
//! over-threshold requests and survive concurrent drains, `/health`
//! must walk ok → degraded/unhealthy → ok as objectives are violated
//! and relaxed, client `X-Request-Id`s must echo end to end, and
//! `/version` + `/metrics` must expose the build/observability
//! surface the operations docs promise.

use mvag_data::json::{self, Value};
use proptest::prelude::*;
use sgla_serve::{
    Artifact, EngineConfig, HttpClient, IvfConfig, QueryEngine, RouterConfig, Server, ServerConfig,
    ShardRouter, TrainConfig,
};
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

const N: usize = 90;

fn trained_artifact() -> Artifact {
    // Training dominates test wall-clock in debug builds; every test
    // serves clones of one shared artifact.
    static SHARED: OnceLock<Artifact> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let mvag = mvag_data::toy_mvag(N, 3, 23);
            let mut config = TrainConfig::default();
            config.embed.dim = 8;
            Artifact::train(&mvag, &config).unwrap()
        })
        .clone()
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 4,
        ..ServerConfig::default()
    }
}

fn start_monolithic(config: &ServerConfig) -> Server {
    let engine = QueryEngine::new(trained_artifact(), EngineConfig::default()).unwrap();
    Server::start(Arc::new(engine), config).unwrap()
}

/// Three long-lived servers — monolithic exact, monolithic with an
/// IVF index, and a shard router with per-shard indexes — shared by
/// the bit-identity proptest so cases reuse connections instead of
/// re-training and re-binding per case.
fn explain_servers() -> &'static [(&'static str, SocketAddr)] {
    type Fleet = (Vec<(&'static str, SocketAddr)>, Vec<Server>);
    static SERVERS: OnceLock<Fleet> = OnceLock::new();
    &SERVERS
        .get_or_init(|| {
            let artifact = trained_artifact();
            let mono = Server::start(
                Arc::new(QueryEngine::new(artifact.clone(), EngineConfig::default()).unwrap()),
                &base_config(),
            )
            .unwrap();
            let indexed = Server::start(
                Arc::new(
                    QueryEngine::new(
                        artifact.clone(),
                        EngineConfig {
                            index: Some(IvfConfig { nlist: 8, seed: 5 }),
                            ..EngineConfig::default()
                        },
                    )
                    .unwrap(),
                ),
                &base_config(),
            )
            .unwrap();
            let dir =
                std::env::temp_dir().join(format!("sgla-obs-e2e-explain-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            artifact.save_sharded(&dir, 3).unwrap();
            let router = ShardRouter::open(
                &dir,
                RouterConfig {
                    engine: EngineConfig {
                        index: Some(IvfConfig { nlist: 8, seed: 5 }),
                        ..EngineConfig::default()
                    },
                    ..RouterConfig::default()
                },
            )
            .unwrap();
            let sharded = Server::start_backend(Arc::new(router), &base_config()).unwrap();
            let addrs = vec![
                ("monolithic", mono.local_addr()),
                ("indexed", indexed.local_addr()),
                ("sharded", sharded.local_addr()),
            ];
            (addrs, vec![mono, indexed, sharded])
        })
        .0
}

/// Fetches `plain_path` and `explained_path`, asserts the explained
/// body is exactly the plain bytes with `,"cost":{...}` spliced before
/// the final brace, and that the cost object is well-formed.
fn assert_bit_identical(plain: &(u16, String), explained: &(u16, String), context: &str) {
    assert_eq!(plain.0, 200, "{context}: plain status");
    assert_eq!(explained.0, 200, "{context}: explained status");
    let body = &explained.1;
    let idx = body
        .rfind(",\"cost\":{")
        .unwrap_or_else(|| panic!("{context}: no cost splice in {body}"));
    assert!(
        body.ends_with("}}"),
        "{context}: splice must close both objects"
    );
    let reconstructed = format!("{}}}", &body[..idx]);
    assert_eq!(
        reconstructed, plain.1,
        "{context}: answer bytes must be identical with and without explain"
    );
    let parsed = json::parse(body).unwrap();
    let cost = parsed.get("cost").unwrap();
    let path = cost.get("path").unwrap().as_str().unwrap();
    assert!(matches!(path, "exact" | "ivf"), "{context}: path {path}");
    assert_eq!(
        cost.get("response_bytes").unwrap().as_usize(),
        Some(plain.1.len()),
        "{context}: response_bytes reports the plain body length"
    );
    assert!(cost.get("rows_scanned").is_some(), "{context}: cost shape");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `?explain=1` never perturbs an answer: for random nodes, k, and
    /// nprobe, on all three backend shapes, the explained body minus
    /// the splice is byte-identical to the plain body — for /cluster,
    /// /topk exact, /topk approx (indexed backends), and /embed.
    #[test]
    fn explain_is_bit_identical(node in 0usize..N, k in 1usize..12, nprobe in 1usize..8) {
        for &(label, addr) in explain_servers() {
            let mut client = HttpClient::connect(addr).unwrap();
            let plain = client.get_text(&format!("/cluster/{node}")).unwrap();
            let explained = client.get_text(&format!("/cluster/{node}?explain=1")).unwrap();
            assert_bit_identical(&plain, &explained, &format!("{label} /cluster/{node}"));

            let plain = client.get_text(&format!("/topk/{node}?k={k}")).unwrap();
            let explained = client.get_text(&format!("/topk/{node}?k={k}&explain=1")).unwrap();
            assert_bit_identical(&plain, &explained, &format!("{label} /topk/{node}?k={k}"));

            if label != "monolithic" {
                let q = format!("/topk/{node}?k={k}&mode=approx&nprobe={nprobe}");
                let plain = client.get_text(&q).unwrap();
                let explained = client.get_text(&format!("{q}&explain=1")).unwrap();
                assert_bit_identical(&plain, &explained, &format!("{label} {q}"));
            }

            let body = Value::object(vec![("nodes", Value::from(vec![node, node / 2]))]);
            let plain = client.post_text("/embed", &body).unwrap();
            let explained = client.post_text("/embed?explain=1", &body).unwrap();
            assert_bit_identical(&plain, &explained, &format!("{label} /embed [{node}]"));
        }
    }
}

#[test]
fn slow_ring_captures_and_survives_concurrent_drains() {
    let server = Server::start(
        Arc::new(QueryEngine::new(trained_artifact(), EngineConfig::default()).unwrap()),
        &ServerConfig {
            slow_query_us: 1, // every request is "slow"
            ..base_config()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();

    // Deliberately slow (relative to a 1 µs threshold) queries are
    // captured with their cost profiles.
    for node in 0..10 {
        client.get(&format!("/topk/{node}?k=5")).unwrap();
    }
    let res = client.get("/debug/slow_queries").unwrap();
    assert_eq!(res.status, 200);
    let entries = res.body.get("slow_queries").unwrap().as_array().unwrap();
    assert!(entries.len() >= 10, "all 10 topk queries captured");
    let topk_entry = entries
        .iter()
        .find(|e| e.get("endpoint").unwrap().as_str() == Some("topk"))
        .expect("a topk entry");
    assert!(topk_entry.get("wall_us").unwrap().as_usize().unwrap() >= 1);
    let cost = topk_entry.get("cost").unwrap();
    assert_eq!(cost.get("path").unwrap().as_str(), Some("exact"));

    // Live-tune the threshold up: captures stop (nothing here takes
    // 100 s); the already-captured entries stay until drained.
    let res = client
        .put(
            "/debug/slow_threshold",
            &Value::object(vec![("threshold_us", Value::from(100_000_000usize))]),
        )
        .unwrap();
    assert_eq!(res.status, 200);
    let captured_before = slow_counter(&mut client, "captured_total");
    client.get("/topk/3?k=5").unwrap();
    assert_eq!(slow_counter(&mut client, "captured_total"), captured_before);

    // Back to capture-everything, then hammer the ring from writer
    // threads while drain threads race it: every captured entry is
    // either drained exactly once, still held, or counted dropped.
    client
        .put(
            "/debug/slow_threshold",
            &Value::object(vec![("threshold_us", Value::from(1usize))]),
        )
        .unwrap();
    let writers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                for node in 0..50 {
                    c.get(&format!("/topk/{node}?k=3")).unwrap();
                }
            })
        })
        .collect();
    let drainers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                let mut drained = 0usize;
                for _ in 0..10 {
                    let res = c.get("/debug/slow_queries?drain=1").unwrap();
                    drained += res.body.get("count").unwrap().as_usize().unwrap();
                    std::thread::yield_now();
                }
                drained
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let drained: usize = drainers.into_iter().map(|d| d.join().unwrap()).sum();
    // Quiesce: the drain requests themselves may still be captured, so
    // read the counters and the final drain from one last request pair
    // and allow for the entries those two requests add.
    let res = client.get("/debug/slow_queries?drain=1").unwrap();
    let final_drained = res.body.get("count").unwrap().as_usize().unwrap();
    let captured = res.body.get("captured_total").unwrap().as_usize().unwrap();
    let dropped = res.body.get("dropped_total").unwrap().as_usize().unwrap();
    let accounted = drained + final_drained + dropped;
    assert!(
        accounted <= captured && captured - accounted <= 2,
        "every capture drained or dropped: drained {drained} + final {final_drained} \
         + dropped {dropped} vs captured {captured}"
    );
    server.shutdown();
}

fn slow_counter(client: &mut HttpClient, field: &str) -> usize {
    client
        .get("/debug/slow_queries")
        .unwrap()
        .body
        .get(field)
        .unwrap()
        .as_usize()
        .unwrap()
}

#[test]
fn health_walks_ok_degraded_ok_under_injected_objective() {
    let server = Server::start(
        Arc::new(QueryEngine::new(trained_artifact(), EngineConfig::default()).unwrap()),
        &ServerConfig {
            slo_p99_us: 1, // unmeetable: every request violates it
            ..base_config()
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // No traffic yet: windows have fewer than MIN_SAMPLES, so the
    // unmeetable objective cannot fire.
    let res = client.get("/health").unwrap();
    assert_eq!(res.status, 200);
    assert_eq!(res.body.get("status").unwrap().as_str(), Some("ok"));

    // Enough violating traffic to fill the evaluation windows.
    for node in 0..40 {
        client.get(&format!("/topk/{}?k=5", node % N)).unwrap();
    }
    let res = client.get("/health").unwrap();
    let status = res.body.get("status").unwrap().as_str().unwrap();
    assert_ne!(status, "ok", "unmeetable p99 objective must fire");
    let reasons = res.body.get("reasons").unwrap().as_array().unwrap();
    assert!(!reasons.is_empty(), "a firing objective names its reason");
    if status == "unhealthy" {
        assert_eq!(res.status, 503, "unhealthy is load-balancer visible");
    } else {
        assert_eq!(res.status, 200);
    }

    // Live-relax the objective: recovery is immediate (burn rates are
    // computed from objectives, not sticky state).
    let res = client
        .put(
            "/debug/slo",
            &Value::object(vec![("p99_us", Value::from(0usize))]),
        )
        .unwrap();
    assert_eq!(res.status, 200);
    let res = client.get("/health").unwrap();
    assert_eq!(res.status, 200);
    assert_eq!(res.body.get("status").unwrap().as_str(), Some("ok"));
    server.shutdown();
}

#[test]
fn client_request_ids_echo_and_gate_malformed() {
    let server = start_monolithic(&base_config());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Well-formed ids echo back verbatim.
    let res = client
        .get_with_headers("/healthz", &[("x-request-id", "abc-123.z_7")])
        .unwrap();
    assert_eq!(res.status, 200);
    assert_eq!(res.request_id.as_deref(), Some("abc-123.z_7"));

    // Malformed or oversized ids are replaced by minted ones, not
    // truncated or echoed.
    let long = "x".repeat(65);
    for bad in ["bad id", "quote\"inject", long.as_str()] {
        let res = client
            .get_with_headers("/healthz", &[("x-request-id", bad)])
            .unwrap();
        let echoed = res.request_id.expect("every response carries an id");
        assert!(
            echoed.starts_with("req-"),
            "minted for {bad:?}, got {echoed}"
        );
    }

    // No header: minted.
    let res = client.get("/healthz").unwrap();
    assert!(res.request_id.unwrap().starts_with("req-"));
    server.shutdown();

    // Same contract on the evented transport.
    #[cfg(target_os = "linux")]
    {
        let server = Server::start(
            Arc::new(QueryEngine::new(trained_artifact(), EngineConfig::default()).unwrap()),
            &ServerConfig {
                backend: sgla_serve::ServeBackend::Evented,
                ..base_config()
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let res = client
            .get_with_headers("/topk/3?k=4", &[("x-request-id", "evented.7")])
            .unwrap();
        assert_eq!(res.status, 200);
        assert_eq!(res.request_id.as_deref(), Some("evented.7"));
        server.shutdown();
    }
}

#[test]
fn version_build_block_and_metrics_families() {
    let server = start_monolithic(&base_config());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let res = client.get("/version").unwrap();
    assert_eq!(res.status, 200);
    let build = res.body.get("build").unwrap();
    assert_eq!(
        build.get("crate_version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let formats: Vec<usize> = build
        .get("artifact_formats_supported")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_usize().unwrap())
        .collect();
    assert_eq!(formats, vec![5]);
    assert!(build
        .get("delta_formats_supported")
        .unwrap()
        .as_array()
        .is_some());
    assert!(build.get("index_format").unwrap().as_usize().is_some());
    assert!(build.get("uptime_secs").unwrap().as_f64().is_some());

    // /stats carries the same build block.
    let stats = client.get("/stats").unwrap();
    assert_eq!(
        stats
            .body
            .get("build")
            .unwrap()
            .get("crate_version")
            .unwrap()
            .as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );

    // ... and the embedding-store memory block: a monolithic engine
    // loaded owned pins heap bytes and maps nothing.
    let memory = stats.body.get("memory").unwrap();
    assert!(memory.get("store_owned_bytes").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        memory.get("store_mapped_bytes").unwrap().as_f64().unwrap(),
        0.0
    );
    assert_eq!(memory.get("resident_hint").unwrap().as_str(), Some("none"));
    let stores = memory.get("stores").unwrap().as_array().unwrap();
    assert_eq!(stores.len(), 1);
    assert_eq!(stores[0].as_str(), Some("owned"));

    // The metrics page validates and carries every new family.
    let (status, page) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    sgla_serve::metrics::validate_prometheus(&page).unwrap();
    for series in [
        "sgla_slow_query_captured_total",
        "sgla_slo_objective_p99_us",
        "sgla_compact_duration_us_bucket",
        "sgla_compact_write_amplification",
        "sgla_store_owned_bytes",
        "sgla_store_mapped_bytes",
        "sgla_store_mapped_stores",
        "sgla_store_owned_stores",
    ] {
        assert!(page.contains(series), "missing {series} on /metrics");
    }
    assert!(
        page.contains("sgla_store_owned_stores 1"),
        "monolithic owned load should report one owned store"
    );
    server.shutdown();
}
