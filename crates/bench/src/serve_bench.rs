//! Load benchmark for the `sgla-serve` HTTP front end.
//!
//! Trains an artifact, serves it on a loopback socket, then drives it
//! with N concurrent keep-alive clients issuing top-k queries. Every
//! response is verified against a direct [`QueryEngine`] call (node
//! ids and bit-exact scores), so the benchmark doubles as a
//! correctness check under concurrency. With `shards >= 2` the same
//! load is replayed against a [`sgla_serve::ShardRouter`] over a
//! sharded copy of the same artifact — every sharded response is
//! verified bit-exactly against the *monolithic* engine, and the
//! report carries both latency profiles side by side. With
//! `index = true` a third phase replays the load as
//! `mode=approx` queries against an IVF-indexed engine: the exact
//! engine acts as the recall oracle (recall@k is *measured*, the run
//! fails below [`MIN_RECALL`]), returned scores must bit-match the
//! exact cosine of their pair, and the report records how many rows
//! the probes actually scanned (the sublinearity evidence). Reports
//! client-side p50/p99 latency and throughput plus the server's own
//! counters, and writes everything to a JSON report
//! (`BENCH_serve.json` by default).

use mvag_data::json::Value;
use sgla_serve::{
    Artifact, EngineConfig, HttpClient, IvfConfig, QueryBackend, QueryEngine, RouterConfig,
    ServeBackend, Server, ServerConfig, ShardEngine, ShardRouter, TrainConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// An approx phase whose measured recall@k falls below this fails the
/// whole run: approximation is a latency trade, not silent decay.
pub const MIN_RECALL: f64 = 0.9;

/// An approx phase that scans more than this fraction of the rows per
/// query is not approximating anything — fail loudly.
pub const MAX_SCAN_FRACTION: f64 = 0.75;

/// Which transport backend(s) to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BenchBackend {
    /// Thread-per-connection pool only.
    Threaded,
    /// Epoll readiness loop only.
    Evented,
    /// Both, with the evented p99 gated against the threaded oracle.
    #[default]
    Both,
}

impl BenchBackend {
    fn wants_threaded(self) -> bool {
        matches!(self, BenchBackend::Threaded | BenchBackend::Both)
    }

    fn wants_evented(self) -> bool {
        matches!(self, BenchBackend::Evented | BenchBackend::Both)
    }

    /// Flag-style name, as accepted by `--backend`.
    pub fn as_str(self) -> &'static str {
        match self {
            BenchBackend::Threaded => "threaded",
            BenchBackend::Evented => "evented",
            BenchBackend::Both => "both",
        }
    }
}

impl std::str::FromStr for BenchBackend {
    type Err = String;

    fn from_str(raw: &str) -> Result<BenchBackend, String> {
        match raw {
            "threaded" => Ok(BenchBackend::Threaded),
            "evented" => Ok(BenchBackend::Evented),
            "both" => Ok(BenchBackend::Both),
            other => Err(format!(
                "unknown backend '{other}' (threaded, evented, or both)"
            )),
        }
    }
}

/// Above this many clients the thread-per-connection pieces stop being
/// meaningful on small hosts (the threaded server pins one worker per
/// keep-alive connection and the plain driver spawns one OS thread per
/// client): the threaded phase auto-skips and the evented phase
/// switches to the multiplexed driver.
pub const MAX_THREADED_CLIENTS: usize = 64;

/// Driver threads for the high-concurrency mode; each multiplexes
/// `clients / MAX_DRIVER_THREADS` keep-alive connections.
const MAX_DRIVER_THREADS: usize = 32;

/// When both backends run, the evented p99 may exceed the threaded p99
/// by at most this factor (plus [`EVENTED_P99_SLACK_US`]) — the CI
/// regression gate. Generous: the point is catching a collapsed event
/// loop, not benchmarking noise.
pub const EVENTED_P99_MAX_RATIO: f64 = 3.0;

/// Absolute slack on the evented-vs-threaded p99 gate; tiny smoke
/// workloads have p99s of a few hundred microseconds where a single
/// scheduler hiccup swamps any ratio.
pub const EVENTED_P99_SLACK_US: f64 = 5000.0;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Which transport backend(s) to load.
    pub backend: BenchBackend,
    /// Nodes in the synthetic training MVAG.
    pub n: usize,
    /// Planted clusters.
    pub k: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Queries issued per client.
    pub queries_per_client: usize,
    /// `k` of each top-k query.
    pub topk: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Upper bound on micro-batched queries per kernel pass.
    pub max_batch: usize,
    /// RNG seed (training + query mix).
    pub seed: u64,
    /// Row-range shards for the sharded phase (`< 2` skips it).
    pub shards: usize,
    /// Run the IVF approx phase (`--index ivf`).
    pub index: bool,
    /// Inverted lists for the approx phase (0 = auto, `⌈√n⌉`).
    pub nlist: usize,
    /// Lists probed per approx query (0 = index default, `⌈√nlist⌉`).
    pub nprobe: usize,
    /// Run the tracing-overhead gate: repeat the monolithic load with
    /// tracing disabled and enabled, fail when p50 regresses past
    /// [`OBS_DISABLED_MAX_RATIO`] / [`OBS_ENABLED_MAX_RATIO`], and
    /// scrape-validate the live `/metrics` page.
    pub obs_gate: bool,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            backend: BenchBackend::default(),
            n: 400,
            k: 3,
            dim: 32,
            clients: 32,
            queries_per_client: 40,
            topk: 10,
            workers: 8,
            max_batch: 64,
            seed: 42,
            shards: 0,
            index: false,
            nlist: 0,
            nprobe: 0,
            obs_gate: false,
        }
    }
}

/// Tracing-disabled p50 may exceed the untraced baseline p50 by at
/// most this factor (instrumentation off the hot path must cost no
/// more than an atomic load per site).
pub const OBS_DISABLED_MAX_RATIO: f64 = 1.03;

/// Tracing-enabled p50 may exceed the untraced baseline p50 by at
/// most this factor.
pub const OBS_ENABLED_MAX_RATIO: f64 = 1.10;

/// In the overhead gate each client sends `OBS_GATE_REPEATS ×
/// queries_per_client` requests to the baseline leg, as many to the
/// disabled leg, and twice as many traced.
const OBS_GATE_REPEATS: usize = 3;

/// Baseline (and disabled) requests per client in one round of the
/// overhead gate.
const OBS_GATE_BLOCK: usize = 2;

/// Absolute slack added on top of the relative gate bounds: loopback
/// p50s sit in the tens-to-hundreds of microseconds, where timer
/// quantization and scheduler noise alone move medians by more than
/// 3% between back-to-back identical runs.
const OBS_GATE_SLACK_US: f64 = 25.0;

/// Latency/throughput summary of one load phase.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Total queries issued.
    pub total_queries: usize,
    /// Queries whose response matched the direct library call.
    pub verified: usize,
    /// Mismatches (must be 0 for a healthy run).
    pub mismatches: usize,
    /// Client-observed median latency in microseconds.
    pub p50_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
    /// Aggregate throughput over the loaded phase (queries/second).
    pub qps: f64,
    /// Wall-clock of the query phase in seconds.
    pub wall_secs: f64,
}

impl PhaseStats {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("total_queries", Value::from(self.total_queries)),
            ("verified", Value::from(self.verified)),
            ("mismatches", Value::from(self.mismatches)),
            ("p50_us", Value::from(self.p50_us)),
            ("p99_us", Value::from(self.p99_us)),
            ("mean_us", Value::from(self.mean_us)),
            ("max_us", Value::from(self.max_us)),
            ("qps", Value::from(self.qps)),
            ("wall_secs", Value::from(self.wall_secs)),
        ])
    }
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Total queries issued in the monolithic phase.
    pub total_queries: usize,
    /// Queries whose response matched the direct library call.
    pub verified: usize,
    /// Mismatches (must be 0 for a healthy run).
    pub mismatches: usize,
    /// Client-observed latency percentiles in microseconds.
    pub p50_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
    /// Aggregate throughput over the loaded phase (queries/second).
    pub qps: f64,
    /// Wall-clock of the query phase in seconds.
    pub wall_secs: f64,
    /// Seconds spent training the artifact.
    pub train_secs: f64,
    /// Top-k cache hits observed by the engine.
    pub cache_hits: u64,
    /// Top-k cache misses observed by the engine.
    pub cache_misses: u64,
    /// The evented-phase profile whenever that transport was loaded.
    /// When the threaded phase was skipped (high client counts or
    /// `backend = evented`) these numbers are also the headline
    /// fields above.
    pub evented: Option<PhaseStats>,
    /// Open connections the server's own gauge reported with the
    /// whole fleet connected — high-concurrency evented mode only,
    /// asserted `>= clients` before the run can pass.
    pub concurrent_connections: Option<usize>,
    /// The sharded-phase profile, when `shards >= 2` was requested.
    /// Verified against the *monolithic* engine, bit-exactly.
    pub sharded: Option<PhaseStats>,
    /// The approx-phase profile, when `index` was requested. Recall
    /// and scan work are measured against the exact oracle.
    pub approx: Option<ApproxPhase>,
    /// Queue-wait vs backend-time split measured from the tracing
    /// stages over a short traced replay (`stage_split` in the JSON).
    pub stage_split: Value,
    /// The tracing-overhead gate result when `obs_gate` was requested
    /// (`obs_overhead` in the JSON). `Some` means the gate passed —
    /// a breached bound fails the whole run instead.
    pub obs_overhead: Option<Value>,
    /// The full JSON document written to the report file.
    pub json: Value,
}

/// Outcome of the IVF approx phase: latency profile plus the measured
/// quality/work trade against the exact oracle.
#[derive(Debug, Clone)]
pub struct ApproxPhase {
    /// Latency/throughput of the approx load.
    pub stats: PhaseStats,
    /// Measured recall@k against the exact engine.
    pub recall: f64,
    /// Inverted lists in the index.
    pub nlist: usize,
    /// Lists probed per query (the effective width used).
    pub nprobe: usize,
    /// Mean candidate rows scored per approx query.
    pub avg_rows_scanned: f64,
    /// `avg_rows_scanned / (n - 1)` — the sublinearity evidence.
    pub scan_fraction: f64,
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// `(node, status, response body)` of one recorded query.
type Recorded = (usize, u16, Value);

/// A client's deterministic query stream: an LCG over nodes, spread
/// across the space but with repeats, so the LRU cache sees hits.
struct NodeStream(u64);

impl NodeStream {
    fn new(seed: u64, client_id: usize) -> NodeStream {
        NodeStream(
            seed.wrapping_add(client_id as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                | 1,
        )
    }

    fn next_node(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// Drives the full client load against `addr`: each client thread owns
/// one keep-alive connection and a deterministic query mix.
/// `query_suffix` is appended to every `/topk` query string (the
/// approx phase passes `&mode=approx...`). Responses are only
/// *recorded* here — verification happens after the timed phase so the
/// reported latencies/QPS measure the server, not the benchmark
/// harness's own direct-call scans.
fn drive_load(
    addr: SocketAddr,
    config: &ServeBenchConfig,
    query_suffix: &str,
) -> Result<(Vec<u64>, Vec<Recorded>, f64), String> {
    let phase_started = Instant::now();
    let mut handles = Vec::new();
    for client_id in 0..config.clients {
        let config = config.clone();
        let suffix = query_suffix.to_string();
        handles.push(std::thread::spawn(
            move || -> Result<(Vec<u64>, Vec<Recorded>), String> {
                let mut client =
                    HttpClient::connect(addr).map_err(|e| format!("client {client_id}: {e}"))?;
                let mut latencies = Vec::with_capacity(config.queries_per_client);
                let mut recorded = Vec::with_capacity(config.queries_per_client);
                let mut nodes = NodeStream::new(config.seed, client_id);
                for _ in 0..config.queries_per_client {
                    let node = nodes.next_node(config.n);
                    let started = Instant::now();
                    let res = client
                        .get(&format!("/topk/{node}?k={}{suffix}", config.topk))
                        .map_err(|e| format!("client {client_id}: {e}"))?;
                    latencies.push(started.elapsed().as_micros() as u64);
                    recorded.push((node, res.status, res.body));
                }
                Ok((latencies, recorded))
            },
        ));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut recorded: Vec<Recorded> = Vec::new();
    for handle in handles {
        let (mut lat, mut rec) = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        latencies.append(&mut lat);
        recorded.append(&mut rec);
    }
    Ok((latencies, recorded, phase_started.elapsed().as_secs_f64()))
}

/// High-concurrency driver for the evented backend: the whole fleet of
/// keep-alive connections is opened up front and held open for the
/// entire phase, but multiplexed over at most [`MAX_DRIVER_THREADS`]
/// OS threads (round-robin within each thread) — 1000 connections must
/// not need 1000 *client* threads any more than they need 1000 server
/// threads. Returns the usual latency/record vectors plus the
/// open-connection count the server itself reported mid-phase, with
/// every connection up.
fn drive_load_multiplexed(
    addr: SocketAddr,
    config: &ServeBenchConfig,
) -> Result<(Vec<u64>, Vec<Recorded>, f64, usize), String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let threads = config.clients.clamp(1, MAX_DRIVER_THREADS);
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let observed_open = Arc::new(AtomicUsize::new(0));
    let phase_started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let config = config.clone();
        let barrier = Arc::clone(&barrier);
        let observed_open = Arc::clone(&observed_open);
        handles.push(std::thread::spawn(
            move || -> Result<(Vec<u64>, Vec<Recorded>), String> {
                // This thread owns connections t, t+threads, ... of
                // the fleet, each with its own deterministic node mix.
                let ids: Vec<usize> = (t..config.clients).step_by(threads).collect();
                let mut conns = Vec::with_capacity(ids.len());
                for &id in &ids {
                    conns.push(HttpClient::connect(addr).map_err(|e| format!("conn {id}: {e}"))?);
                }
                let mut streams: Vec<NodeStream> = ids
                    .iter()
                    .map(|&id| NodeStream::new(config.seed, id))
                    .collect();
                // Every connection in the fleet is open before any
                // query: the server gauge must see the full count.
                barrier.wait();
                if t == 0 {
                    let open = conns[0]
                        .get("/stats")
                        .ok()
                        .and_then(|r| {
                            r.body
                                .get("connections")
                                .and_then(|c| c.get("open"))
                                .and_then(Value::as_usize)
                        })
                        .unwrap_or(0);
                    observed_open.store(open, Ordering::SeqCst);
                }
                let mut latencies = Vec::with_capacity(ids.len() * config.queries_per_client);
                let mut recorded = Vec::with_capacity(ids.len() * config.queries_per_client);
                for _ in 0..config.queries_per_client {
                    for (ci, client) in conns.iter_mut().enumerate() {
                        let node = streams[ci].next_node(config.n);
                        let started = Instant::now();
                        let res = client
                            .get(&format!("/topk/{node}?k={}", config.topk))
                            .map_err(|e| format!("conn {}: {e}", ids[ci]))?;
                        latencies.push(started.elapsed().as_micros() as u64);
                        recorded.push((node, res.status, res.body));
                    }
                }
                Ok((latencies, recorded))
            },
        ));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut recorded: Vec<Recorded> = Vec::new();
    for handle in handles {
        let (mut lat, mut rec) = handle
            .join()
            .map_err(|_| "driver thread panicked".to_string())??;
        latencies.append(&mut lat);
        recorded.append(&mut rec);
    }
    Ok((
        latencies,
        recorded,
        phase_started.elapsed().as_secs_f64(),
        observed_open.load(std::sync::atomic::Ordering::SeqCst),
    ))
}

/// Verification pass (untimed): every recorded response must match the
/// direct library call — node ids and bit-exact scores.
fn verify_recorded(
    recorded: &[Recorded],
    engine: &QueryEngine,
    topk: usize,
) -> Result<(usize, usize), String> {
    let mut verified = 0usize;
    let mut mismatches = 0usize;
    for (node, status, body) in recorded {
        if *status != 200 {
            mismatches += 1;
            continue;
        }
        let direct = engine
            .top_k_similar(*node, topk)
            .map_err(|e| e.to_string())?;
        let matches = body
            .get("neighbors")
            .and_then(Value::as_array)
            .is_some_and(|neighbors| {
                neighbors.len() == direct.len()
                    && neighbors.iter().zip(&direct).all(|(wire, want)| {
                        wire.get("node").and_then(Value::as_usize) == Some(want.node)
                            && wire
                                .get("score")
                                .and_then(Value::as_f64)
                                .is_some_and(|s| s.to_bits() == want.score.to_bits())
                    })
            });
        if matches {
            verified += 1;
        } else {
            mismatches += 1;
        }
    }
    Ok((verified, mismatches))
}

/// Approx verification pass (untimed): every response must be
/// well-formed with the right neighbor count, and every returned
/// `(node, score)` must bit-match the exact cosine the oracle engine
/// computes for that pair — approximation may drop true neighbors,
/// never corrupt scores. Returns `(verified, mismatches, recall@k)`.
fn verify_recorded_approx(
    recorded: &[Recorded],
    oracle: &QueryEngine,
    topk: usize,
) -> Result<(usize, usize, f64), String> {
    use std::collections::HashMap;
    let mut verified = 0usize;
    let mut mismatches = 0usize;
    let mut hit = 0usize;
    let mut total = 0usize;
    for (node, status, body) in recorded {
        if *status != 200 {
            mismatches += 1;
            continue;
        }
        // Full exact ranking of this node (k clamps to n - 1; the
        // oracle's LRU makes repeats cheap).
        let full = oracle
            .top_k_similar(*node, usize::MAX)
            .map_err(|e| e.to_string())?;
        let exact_bits: HashMap<usize, u64> = full
            .iter()
            .map(|nb| (nb.node, nb.score.to_bits()))
            .collect();
        let want_len = topk.min(full.len());
        let Some(neighbors) = body.get("neighbors").and_then(Value::as_array) else {
            mismatches += 1;
            continue;
        };
        let well_formed = neighbors.len() == want_len
            && neighbors.iter().all(|wire| {
                let id = wire.get("node").and_then(Value::as_usize);
                let score = wire.get("score").and_then(Value::as_f64);
                match (id, score) {
                    (Some(id), Some(score)) => exact_bits.get(&id) == Some(&score.to_bits()),
                    _ => false,
                }
            });
        if !well_formed {
            mismatches += 1;
            continue;
        }
        verified += 1;
        let returned: Vec<usize> = neighbors
            .iter()
            .filter_map(|wire| wire.get("node").and_then(Value::as_usize))
            .collect();
        total += want_len;
        hit += full
            .iter()
            .take(want_len)
            .filter(|nb| returned.contains(&nb.node))
            .count();
    }
    let recall = if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    };
    Ok((verified, mismatches, recall))
}

fn summarize(
    mut latencies: Vec<u64>,
    wall_secs: f64,
    verified: usize,
    mismatches: usize,
) -> PhaseStats {
    latencies.sort_unstable();
    let total_queries = latencies.len();
    let mean_us = if total_queries == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / total_queries as f64
    };
    PhaseStats {
        total_queries,
        verified,
        mismatches,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        mean_us,
        max_us: latencies.last().copied().unwrap_or(0) as f64,
        qps: if wall_secs > 0.0 {
            total_queries as f64 / wall_secs
        } else {
            0.0
        },
        wall_secs,
    }
}

/// `(count, sum_us)` of one obs stage histogram, zero when the stage
/// has never fired.
fn stage_totals(name: &str) -> (u64, u64) {
    mvag_obs::stage(name)
        .map(|s| (s.count, s.sum))
        .unwrap_or((0, 0))
}

/// Replays a short traced load against the still-running server and
/// reports where request time went: batcher queue wait vs backend
/// (kernel) time, from the `serve.queue_wait` / `serve.backend` span
/// stages. Runs after the timed phase so tracing cost cannot pollute
/// the headline latencies.
fn measure_stage_split(addr: SocketAddr, config: &ServeBenchConfig) -> Result<Value, String> {
    let split_config = ServeBenchConfig {
        clients: config.clients.clamp(1, 4),
        queries_per_client: config.queries_per_client.clamp(1, 16),
        ..config.clone()
    };
    let was_enabled = mvag_obs::enabled();
    let queue_before = stage_totals("serve.queue_wait");
    let backend_before = stage_totals("serve.backend");
    mvag_obs::set_enabled(true);
    let driven = drive_load(addr, &split_config, "");
    mvag_obs::set_enabled(was_enabled);
    driven?;
    let (queue_after, backend_after) = (
        stage_totals("serve.queue_wait"),
        stage_totals("serve.backend"),
    );
    let queue_count = queue_after.0 - queue_before.0;
    let queue_us = queue_after.1 - queue_before.1;
    let backend_count = backend_after.0 - backend_before.0;
    let backend_us = backend_after.1 - backend_before.1;
    let mean = |sum: u64, count: u64| sum as f64 / count.max(1) as f64;
    Ok(Value::object(vec![
        (
            "queries",
            Value::from(split_config.clients * split_config.queries_per_client),
        ),
        ("queue_wait_count", Value::from(queue_count)),
        ("queue_wait_total_us", Value::from(queue_us)),
        (
            "queue_wait_mean_us",
            Value::from(mean(queue_us, queue_count)),
        ),
        ("backend_count", Value::from(backend_count)),
        ("backend_total_us", Value::from(backend_us)),
        (
            "backend_mean_us",
            Value::from(mean(backend_us, backend_count)),
        ),
        (
            "queue_wait_share",
            Value::from(queue_us as f64 / (queue_us + backend_us).max(1) as f64),
        ),
    ]))
}

/// The overhead gate's load. Each client keeps one connection for the
/// whole gate and runs `rounds` rounds of two blocks of
/// `2 × OBS_GATE_BLOCK` requests — one with tracing off, its requests
/// alternating between the baseline and disabled legs (the same code
/// path), and one traced. The blocks' order alternates by round and all
/// clients start each block together. Host-load drift then lands on
/// every leg alike instead of on whichever leg ran during a noisy
/// stretch. Returns the baseline, disabled and enabled latencies.
fn drive_gate_load(
    addr: SocketAddr,
    config: &ServeBenchConfig,
    rounds: usize,
) -> Result<[Vec<u64>; 3], String> {
    // Whether each of a round's two blocks is traced.
    let blocks = |round: usize| {
        let even = round.is_multiple_of(2);
        [!even, even]
    };
    let barrier = std::sync::Barrier::new(config.clients + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..config.clients)
            .map(|client_id| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<[Vec<u64>; 3], String> {
                    // A failed client keeps meeting the barriers, so the
                    // others never hang, but sends nothing more.
                    let mut client =
                        HttpClient::connect(addr).map_err(|e| format!("client {client_id}: {e}"));
                    let mut nodes = NodeStream::new(config.seed, client_id);
                    let mut legs: [Vec<u64>; 3] = Default::default();
                    for round in 0..rounds {
                        for traced in blocks(round) {
                            barrier.wait();
                            for i in 0..2 * OBS_GATE_BLOCK {
                                let Ok(c) = client.as_mut() else { break };
                                let node = nodes.next_node(config.n);
                                let started = Instant::now();
                                match c.get(&format!("/topk/{node}?k={}", config.topk)) {
                                    Ok(_) => {
                                        let leg = if traced { 2 } else { (i + client_id) % 2 };
                                        legs[leg].push(started.elapsed().as_micros() as u64);
                                    }
                                    Err(e) => client = Err(format!("client {client_id}: {e}")),
                                }
                            }
                            barrier.wait();
                        }
                    }
                    client.map(|_| legs)
                })
            })
            .collect();
        for round in 0..rounds {
            for traced in blocks(round) {
                mvag_obs::set_enabled(traced);
                barrier.wait();
                barrier.wait();
                mvag_obs::set_enabled(false);
            }
        }
        let mut pooled: [Vec<u64>; 3] = Default::default();
        for handle in clients {
            let legs = handle
                .join()
                .map_err(|_| "client thread panicked".to_string())??;
            for (pool, mut leg) in pooled.iter_mut().zip(legs) {
                pool.append(&mut leg);
            }
        }
        Ok(pooled)
    })
}

/// The tracing-overhead gate: the same load, interleaved in small
/// blocks ([`drive_gate_load`]), in three modes — untraced baseline,
/// instrumentation compiled in but disabled (the shipping default;
/// baseline and disabled run the same code path, so this leg measures
/// that the per-site atomic load stays inside run-to-run noise), and
/// tracing fully enabled. Gates the disabled/enabled p50s against the
/// baseline, and scrape-validates the live `/metrics` page while the
/// stage histograms are populated.
fn run_obs_gate(addr: SocketAddr, config: &ServeBenchConfig) -> Result<Value, String> {
    let gate_config = ServeBenchConfig {
        clients: config.clients.clamp(1, 8),
        queries_per_client: config.queries_per_client.clamp(20, 200),
        ..config.clone()
    };
    let was_enabled = mvag_obs::enabled();
    // Warmup: fault in connections, caches, and batcher threads.
    mvag_obs::set_enabled(false);
    drive_load(addr, &gate_config, "")?;
    let rounds = (OBS_GATE_REPEATS * gate_config.queries_per_client).div_ceil(OBS_GATE_BLOCK);
    let [mut baseline, mut disabled, mut enabled] = drive_gate_load(addr, &gate_config, rounds)?;
    // EXPLAIN leg (tracing off): every response must carry the spliced
    // cost object; its latency is reported alongside the gate modes so
    // the cost of asking for a cost profile is itself measured.
    let (mut explain_latencies, explain_recorded, _) =
        drive_load(addr, &gate_config, "&explain=1")?;
    for (node, status, body) in &explain_recorded {
        if *status != 200 {
            return Err(format!("explain leg: /topk/{node} answered {status}"));
        }
        let ok = body
            .get("cost")
            .and_then(|c| c.get("path"))
            .and_then(|p| p.as_str())
            .is_some();
        if !ok {
            return Err(format!(
                "explain leg: /topk/{node}?explain=1 response has no cost object"
            ));
        }
    }

    // The enabled legs populated the sgla_stage_* histograms; the
    // exported page must be conformant Prometheus text format and
    // carry every observability family the serve layer promises.
    let (status, page) = HttpClient::connect(addr)
        .and_then(|mut c| c.get_text("/metrics"))
        .map_err(|e| format!("scraping /metrics: {e}"))?;
    mvag_obs::set_enabled(was_enabled);
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    sgla_serve::metrics::validate_prometheus(&page)
        .map_err(|e| format!("/metrics failed Prometheus validation: {e}"))?;
    for series in [
        "sgla_stage_duration_us_bucket",
        "sgla_slow_query_captured_total",
        "sgla_slo_objective_p99_us",
        "sgla_compact_duration_us_bucket",
    ] {
        if !page.contains(series) {
            return Err(format!("no {series} series on /metrics after traced load"));
        }
    }
    // The health endpoint must answer with a well-formed verdict (the
    // gate load is healthy traffic, so `unhealthy`/503 is a failure).
    let health = HttpClient::connect(addr)
        .and_then(|mut c| c.get("/health"))
        .map_err(|e| format!("scraping /health: {e}"))?;
    if health.status != 200 {
        return Err(format!("/health answered {}", health.status));
    }
    match health.body.get("status").and_then(|s| s.as_str()) {
        Some("ok") | Some("degraded") => {}
        other => return Err(format!("/health reported {other:?}")),
    }

    let p50_of = |latencies: &mut Vec<u64>| {
        latencies.sort_unstable();
        percentile(latencies, 0.50)
    };
    let baseline_p50 = p50_of(&mut baseline);
    let disabled_p50 = p50_of(&mut disabled);
    let enabled_p50 = p50_of(&mut enabled);
    let explain_p50 = p50_of(&mut explain_latencies);
    let disabled_limit = baseline_p50 * OBS_DISABLED_MAX_RATIO + OBS_GATE_SLACK_US;
    let enabled_limit = baseline_p50 * OBS_ENABLED_MAX_RATIO + OBS_GATE_SLACK_US;
    if disabled_p50 > disabled_limit {
        return Err(format!(
            "tracing-disabled p50 {disabled_p50:.0} us exceeds {disabled_limit:.0} us \
             (baseline {baseline_p50:.0} us × {OBS_DISABLED_MAX_RATIO} + {OBS_GATE_SLACK_US} us)"
        ));
    }
    if enabled_p50 > enabled_limit {
        return Err(format!(
            "tracing-enabled p50 {enabled_p50:.0} us exceeds {enabled_limit:.0} us \
             (baseline {baseline_p50:.0} us × {OBS_ENABLED_MAX_RATIO} + {OBS_GATE_SLACK_US} us)"
        ));
    }
    let ratio = |p: f64| {
        if baseline_p50 > 0.0 {
            p / baseline_p50
        } else {
            0.0
        }
    };
    Ok(Value::object(vec![
        ("repeats", Value::from(OBS_GATE_REPEATS)),
        ("block", Value::from(OBS_GATE_BLOCK)),
        ("samples_per_mode", Value::from(baseline.len())),
        ("baseline_p50_us", Value::from(baseline_p50)),
        ("disabled_p50_us", Value::from(disabled_p50)),
        ("enabled_p50_us", Value::from(enabled_p50)),
        ("disabled_ratio", Value::from(ratio(disabled_p50))),
        ("enabled_ratio", Value::from(ratio(enabled_p50))),
        ("explain_p50_us", Value::from(explain_p50)),
        ("explain_ratio", Value::from(ratio(explain_p50))),
        (
            "explain_responses_checked",
            Value::from(explain_recorded.len()),
        ),
        ("disabled_limit_us", Value::from(disabled_limit)),
        ("enabled_limit_us", Value::from(enabled_limit)),
        ("metrics_page_validated", Value::Bool(true)),
        ("health_scraped", Value::Bool(true)),
        ("gate", Value::from("pass")),
    ]))
}

/// Runs the benchmark. On success every response matched its direct
/// library-call reference; any mismatch is an `Err`. With
/// `config.shards >= 2` a second phase replays the same load against a
/// shard router over the same artifact (still verified against the
/// monolithic engine).
///
/// # Errors
/// Training/serving failures, transport errors, or response
/// mismatches, rendered as strings for the CLI.
pub fn run(config: &ServeBenchConfig) -> Result<ServeBenchReport, String> {
    // The threaded backend pins one worker per keep-alive connection
    // and the plain driver spawns one OS thread per client — neither
    // survives a 1000-client fleet on a small host, so that phase
    // auto-skips above the cutoff rather than deadlocking.
    let run_threaded = config.backend.wants_threaded() && config.clients <= MAX_THREADED_CLIENTS;
    let run_evented = config.backend.wants_evented() && cfg!(target_os = "linux");
    if !run_threaded && !run_evented {
        return Err(format!(
            "no backend to load: backend = {}, clients = {} (the threaded phase skips above \
             {MAX_THREADED_CLIENTS} clients; the evented backend needs Linux)",
            config.backend.as_str(),
            config.clients
        ));
    }
    if (config.shards >= 2 || config.index) && config.clients > MAX_THREADED_CLIENTS {
        return Err(format!(
            "the sharded/approx phases use the thread-per-client driver; \
             run them with clients <= {MAX_THREADED_CLIENTS}"
        ));
    }

    let mvag = mvag_data::toy_mvag(config.n, config.k, config.seed);
    let mut train_config = TrainConfig::default();
    train_config.sgla.seed = config.seed;
    train_config.embed.dim = config.dim;
    let train_started = Instant::now();
    let artifact = Artifact::train(&mvag, &train_config).map_err(|e| e.to_string())?;
    let train_secs = train_started.elapsed().as_secs_f64();

    let server_config = ServerConfig {
        addr: "127.0.0.1:0".parse().expect("static addr"),
        workers: config.workers,
        max_batch: config.max_batch,
        ..ServerConfig::default()
    };

    // Phase 1: monolithic engine, loaded through each requested
    // transport. The threaded run doubles as the latency oracle for
    // the evented p99 gate; both serve the *same* engine, so the
    // verification pass proves byte-level agreement between backends.
    let engine = Arc::new(
        QueryEngine::new(artifact.clone(), EngineConfig::default()).map_err(|e| e.to_string())?,
    );
    let mut threaded: Option<PhaseStats> = None;
    let mut evented: Option<PhaseStats> = None;
    let mut cache_counts: Option<(u64, u64)> = None;
    let mut threaded_server_stats = Value::Null;
    let mut evented_server_stats = Value::Null;
    let mut stage_split = Value::Null;
    let mut obs_overhead: Option<Value> = None;
    let mut concurrent_connections: Option<usize> = None;

    if run_threaded {
        let server =
            Server::start(Arc::clone(&engine), &server_config).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let (latencies, recorded, wall_secs) = drive_load(addr, config, "")?;
        // Snapshot server-side counters before the verification pass
        // adds its own direct calls to the engine's cache statistics.
        if cache_counts.is_none() {
            cache_counts = Some(engine.cache_stats());
        }
        threaded_server_stats = HttpClient::connect(addr)
            .and_then(|mut c| c.get("/stats"))
            .map(|r| r.body)
            .unwrap_or(Value::Null);
        // Traced replay + optional overhead gate run against the
        // still-live server, after the timed phase so neither can
        // touch the headline numbers. They attach to the evented
        // server when that phase runs (the primary transport), so
        // only run them here when this is the sole phase.
        if !run_evented {
            stage_split = measure_stage_split(addr, config)?;
            if config.obs_gate {
                obs_overhead = Some(run_obs_gate(addr, config)?);
            }
        }
        server.shutdown();
        let (verified, mismatches) = verify_recorded(&recorded, &engine, config.topk)?;
        let stats = summarize(latencies, wall_secs, verified, mismatches);
        if stats.mismatches > 0 {
            return Err(format!(
                "{} of {} threaded responses did not match direct library calls",
                stats.mismatches, stats.total_queries
            ));
        }
        threaded = Some(stats);
    }

    if run_evented {
        let evented_config = ServerConfig {
            backend: ServeBackend::Evented,
            ..server_config.clone()
        };
        let server =
            Server::start(Arc::clone(&engine), &evented_config).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let (latencies, recorded, wall_secs) = if config.clients > MAX_THREADED_CLIENTS {
            let (latencies, recorded, wall_secs, open) = drive_load_multiplexed(addr, config)?;
            // The server's own gauge, read with the whole fleet
            // connected, is the concurrency evidence.
            if open < config.clients {
                return Err(format!(
                    "server reported {open} open connections with the full fleet connected; \
                     expected at least {}",
                    config.clients
                ));
            }
            concurrent_connections = Some(open);
            (latencies, recorded, wall_secs)
        } else {
            drive_load(addr, config, "")?
        };
        if cache_counts.is_none() {
            cache_counts = Some(engine.cache_stats());
        }
        evented_server_stats = HttpClient::connect(addr)
            .and_then(|mut c| c.get("/stats"))
            .map(|r| r.body)
            .unwrap_or(Value::Null);
        stage_split = measure_stage_split(addr, config)?;
        if config.obs_gate {
            obs_overhead = Some(run_obs_gate(addr, config)?);
        }
        server.shutdown();
        let (verified, mismatches) = verify_recorded(&recorded, &engine, config.topk)?;
        let stats = summarize(latencies, wall_secs, verified, mismatches);
        if stats.mismatches > 0 {
            return Err(format!(
                "{} of {} evented responses did not match direct library calls",
                stats.mismatches, stats.total_queries
            ));
        }
        evented = Some(stats);
    }

    // Regression gate: with both transports loaded, a collapsed event
    // loop shows up as a blown-out evented p99 relative to the
    // threaded oracle.
    if let (Some(t), Some(e)) = (&threaded, &evented) {
        let limit = t.p99_us * EVENTED_P99_MAX_RATIO + EVENTED_P99_SLACK_US;
        if e.p99_us > limit {
            return Err(format!(
                "evented p99 {:.0} us exceeds the gate {:.0} us \
                 (threaded p99 {:.0} us × {EVENTED_P99_MAX_RATIO} + {EVENTED_P99_SLACK_US} us)",
                e.p99_us, limit, t.p99_us
            ));
        }
    }

    // Headline numbers: the threaded phase when it ran (back-compat
    // with every earlier report), otherwise the evented phase.
    let mono = threaded
        .clone()
        .or_else(|| evented.clone())
        .expect("at least one backend ran");
    let (cache_hits, cache_misses) = cache_counts.unwrap_or((0, 0));
    let server_stats = if threaded.is_some() {
        threaded_server_stats
    } else {
        evented_server_stats.clone()
    };

    // Phase 2 (optional): the same load against a shard router over a
    // sharded copy of the same artifact, verified against the same
    // monolithic engine — the router must be indistinguishable.
    let mut sharded: Option<PhaseStats> = None;
    let mut sharded_server_stats = Value::Null;
    if config.shards >= 2 {
        let dir = std::env::temp_dir().join(format!(
            "sgla-serve-bench-shards-{}-{}",
            config.shards,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        artifact
            .save_sharded(&dir, config.shards)
            .map_err(|e| e.to_string())?;
        let router = ShardRouter::open(&dir, RouterConfig::default()).map_err(|e| e.to_string())?;
        let server =
            Server::start_backend(Arc::new(router), &server_config).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let (latencies, recorded, wall_secs) = drive_load(addr, config, "")?;
        sharded_server_stats = HttpClient::connect(addr)
            .and_then(|mut c| c.get("/stats"))
            .map(|r| r.body)
            .unwrap_or(Value::Null);
        server.shutdown();
        let (verified, mismatches) = verify_recorded(&recorded, &engine, config.topk)?;
        let stats = summarize(latencies, wall_secs, verified, mismatches);
        std::fs::remove_dir_all(&dir).ok();
        if stats.mismatches > 0 {
            return Err(format!(
                "{} of {} sharded responses did not match the monolithic engine",
                stats.mismatches, stats.total_queries
            ));
        }
        sharded = Some(stats);
    }

    // Phase 3 (optional): the same load as mode=approx queries against
    // an IVF-indexed engine over the same artifact. The exact engine
    // is the oracle: recall@k is measured per response, every returned
    // score must bit-match the exact cosine of its pair, and the
    // index's own scan counters prove the probes were sublinear.
    let mut approx: Option<ApproxPhase> = None;
    let mut approx_server_stats = Value::Null;
    if config.index {
        let index = artifact
            .build_ivf(&IvfConfig {
                nlist: config.nlist,
                seed: config.seed,
            })
            .map_err(|e| e.to_string())?;
        let shard = ShardEngine::owned(artifact.clone(), None, Some(index.clone()), None)
            .map_err(|e| e.to_string())?;
        let engine_approx = Arc::new(QueryEngine::pinned(shard, EngineConfig::default()));
        let nlist = index.nlist();
        let nprobe = if config.nprobe == 0 {
            index.default_nprobe()
        } else {
            config.nprobe.min(nlist)
        };
        let server =
            Server::start(Arc::clone(&engine_approx), &server_config).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let suffix = format!("&mode=approx&nprobe={nprobe}");
        let (latencies, recorded, wall_secs) = drive_load(addr, config, &suffix)?;
        // Scan-work counters before verification touches anything.
        let index_stats = engine_approx.index_stats();
        approx_server_stats = HttpClient::connect(addr)
            .and_then(|mut c| c.get("/stats"))
            .map(|r| r.body)
            .unwrap_or(Value::Null);
        server.shutdown();
        let (verified, mismatches, recall) =
            verify_recorded_approx(&recorded, &engine, config.topk)?;
        let stats = summarize(latencies, wall_secs, verified, mismatches);
        if stats.mismatches > 0 {
            return Err(format!(
                "{} of {} approx responses were malformed or carried non-exact scores",
                stats.mismatches, stats.total_queries
            ));
        }
        if recall < MIN_RECALL {
            return Err(format!(
                "approx recall@{} = {recall:.3} below the {MIN_RECALL} floor \
                 (nlist = {nlist}, nprobe = {nprobe})",
                config.topk
            ));
        }
        let avg_rows_scanned =
            index_stats.rows_scanned as f64 / index_stats.approx_queries.max(1) as f64;
        let scan_fraction = avg_rows_scanned / (config.n.saturating_sub(1)) as f64;
        if scan_fraction > MAX_SCAN_FRACTION {
            return Err(format!(
                "approx queries scanned {:.0}% of the rows on average — not sublinear \
                 (nlist = {nlist}, nprobe = {nprobe})",
                scan_fraction * 100.0
            ));
        }
        approx = Some(ApproxPhase {
            stats,
            recall,
            nlist,
            nprobe,
            avg_rows_scanned,
            scan_fraction,
        });
    }

    let mut results = vec![
        ("config", {
            Value::object(vec![
                ("backend", Value::from(config.backend.as_str())),
                ("n", Value::from(config.n)),
                ("k", Value::from(config.k)),
                ("dim", Value::from(config.dim)),
                ("clients", Value::from(config.clients)),
                ("queries_per_client", Value::from(config.queries_per_client)),
                ("topk", Value::from(config.topk)),
                ("workers", Value::from(config.workers)),
                ("max_batch", Value::from(config.max_batch)),
                ("seed", Value::from(config.seed)),
                ("shards", Value::from(config.shards)),
                ("index", Value::Bool(config.index)),
                ("nlist", Value::from(config.nlist)),
                ("nprobe", Value::from(config.nprobe)),
            ])
        }),
        ("results", {
            let mut obj = mono.to_json();
            if let Value::Object(map) = &mut obj {
                map.insert("train_secs".into(), Value::from(train_secs));
                map.insert("cache_hits".into(), Value::from(cache_hits));
                map.insert("cache_misses".into(), Value::from(cache_misses));
            }
            obj
        }),
        ("server_stats", server_stats),
        ("stage_split", stage_split.clone()),
    ];
    // With both transports loaded, the evented phase gets its own
    // section plus the gate ratio; with only the evented transport its
    // numbers already *are* "results".
    if let (Some(t), Some(e)) = (&threaded, &evented) {
        results.push(("results_evented", e.to_json()));
        results.push((
            "evented_vs_threaded_p99",
            Value::from(if t.p99_us > 0.0 {
                e.p99_us / t.p99_us
            } else {
                0.0
            }),
        ));
        results.push(("server_stats_evented", evented_server_stats.clone()));
    }
    if let Some(open) = concurrent_connections {
        results.push(("concurrent_connections", Value::from(open)));
    }
    if let Some(gate) = &obs_overhead {
        results.push(("obs_overhead", gate.clone()));
    }
    if let Some(stats) = &sharded {
        results.push(("results_sharded", stats.to_json()));
        results.push((
            "sharded_vs_monolithic_p50",
            Value::from(if mono.p50_us > 0.0 {
                stats.p50_us / mono.p50_us
            } else {
                0.0
            }),
        ));
        results.push(("server_stats_sharded", sharded_server_stats));
    }
    if let Some(phase) = &approx {
        results.push(("results_approx", {
            let mut obj = phase.stats.to_json();
            if let Value::Object(map) = &mut obj {
                map.insert("recall_at_k".into(), Value::from(phase.recall));
                map.insert("nlist".into(), Value::from(phase.nlist));
                map.insert("nprobe".into(), Value::from(phase.nprobe));
                map.insert(
                    "avg_rows_scanned".into(),
                    Value::from(phase.avg_rows_scanned),
                );
                map.insert("scan_fraction".into(), Value::from(phase.scan_fraction));
            }
            obj
        }));
        results.push((
            "approx_vs_exact_p50",
            Value::from(if mono.p50_us > 0.0 {
                phase.stats.p50_us / mono.p50_us
            } else {
                0.0
            }),
        ));
        results.push(("server_stats_approx", approx_server_stats));
    }
    let json = Value::object(results);

    Ok(ServeBenchReport {
        total_queries: mono.total_queries,
        verified: mono.verified,
        mismatches: mono.mismatches,
        p50_us: mono.p50_us,
        p99_us: mono.p99_us,
        mean_us: mono.mean_us,
        max_us: mono.max_us,
        qps: mono.qps,
        wall_secs: mono.wall_secs,
        train_secs,
        cache_hits,
        cache_misses,
        evented,
        concurrent_connections,
        sharded,
        approx,
        stage_split,
        obs_overhead,
        json,
    })
}

/// Runs the benchmark and writes the JSON report to `out`.
///
/// # Errors
/// See [`run`]; additionally I/O failures writing the report.
pub fn run_to_file(
    config: &ServeBenchConfig,
    out: &std::path::Path,
) -> Result<ServeBenchReport, String> {
    let report = run(config)?;
    std::fs::write(out, report.json.to_string_pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stage split (and the gate) toggle the process-global
    /// tracing flag and read global stage histograms; runs must not
    /// overlap.
    static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked_run(config: &ServeBenchConfig) -> Result<ServeBenchReport, String> {
        let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        run(config)
    }

    #[test]
    fn small_load_run_verifies_all_responses() {
        let config = ServeBenchConfig {
            n: 80,
            k: 2,
            dim: 8,
            clients: 4,
            queries_per_client: 10,
            topk: 5,
            workers: 4,
            ..Default::default()
        };
        let report = locked_run(&config).unwrap();
        assert_eq!(report.total_queries, 40);
        assert_eq!(report.verified, 40);
        assert_eq!(report.mismatches, 0);
        assert!(report.p50_us > 0.0);
        assert!(report.p99_us >= report.p50_us);
        assert!(report.qps > 0.0);
        assert!(report.json.get("results").is_some());
        assert!(report.sharded.is_none());
        assert!(report.json.get("results_sharded").is_none());
        assert!(report.approx.is_none());
        assert!(report.json.get("results_approx").is_none());
    }

    #[test]
    fn approx_phase_measures_recall_and_sublinear_scans() {
        let config = ServeBenchConfig {
            n: 160,
            k: 2,
            dim: 8,
            clients: 4,
            queries_per_client: 10,
            topk: 5,
            workers: 4,
            index: true,
            nlist: 8,
            nprobe: 3,
            ..Default::default()
        };
        let report = locked_run(&config).unwrap();
        let approx = report.approx.expect("approx phase ran");
        assert_eq!(approx.stats.total_queries, 40);
        assert_eq!(approx.stats.mismatches, 0);
        assert!(approx.recall >= MIN_RECALL, "recall {}", approx.recall);
        assert!(
            approx.scan_fraction <= MAX_SCAN_FRACTION,
            "scan fraction {}",
            approx.scan_fraction
        );
        assert_eq!(approx.nlist, 8);
        assert_eq!(approx.nprobe, 3);
        assert!(report.json.get("results_approx").is_some());
        assert!(report.json.get("approx_vs_exact_p50").is_some());
    }

    #[test]
    fn sharded_phase_verifies_against_monolithic() {
        let config = ServeBenchConfig {
            n: 80,
            k: 2,
            dim: 8,
            clients: 4,
            queries_per_client: 10,
            topk: 5,
            workers: 4,
            shards: 3,
            ..Default::default()
        };
        let report = locked_run(&config).unwrap();
        let sharded = report.sharded.expect("sharded phase ran");
        assert_eq!(sharded.total_queries, 40);
        assert_eq!(sharded.verified, 40);
        assert_eq!(sharded.mismatches, 0);
        assert!(report.json.get("results_sharded").is_some());
        assert!(report.json.get("sharded_vs_monolithic_p50").is_some());
    }

    #[test]
    fn obs_gate_passes_and_split_is_recorded() {
        // 100 queries per client → 1200 gate samples per leg, enough
        // for medians that hold still under CPU contention.
        let config = ServeBenchConfig {
            n: 80,
            k: 2,
            dim: 8,
            clients: 4,
            queries_per_client: 100,
            topk: 5,
            workers: 4,
            obs_gate: true,
            ..Default::default()
        };
        let report = locked_run(&config).unwrap();
        // Every run measures the queue-wait vs backend split from the
        // tracing stages.
        let split = &report.stage_split;
        assert!(split.get("queue_wait_count").unwrap().as_f64().unwrap() > 0.0);
        assert!(split.get("backend_count").unwrap().as_f64().unwrap() > 0.0);
        assert!(split.get("backend_mean_us").unwrap().as_f64().unwrap() > 0.0);
        let share = split.get("queue_wait_share").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&share), "share {share}");
        // The gate ran, passed, and validated the live /metrics page.
        let gate = report.obs_overhead.expect("gate requested");

        assert_eq!(gate.get("gate").unwrap().as_str(), Some("pass"));
        assert_eq!(
            gate.get("metrics_page_validated").unwrap().as_bool(),
            Some(true)
        );
        assert!(gate.get("baseline_p50_us").unwrap().as_f64().unwrap() > 0.0);
        assert!(gate.get("samples_per_mode").unwrap().as_usize().unwrap() >= 1200);
        assert!(report.json.get("obs_overhead").is_some());
        assert!(report.json.get("stage_split").is_some());
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
