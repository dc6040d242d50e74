//! Dependency-light HTTP/1.1 JSON front end over [`QueryEngine`].
//!
//! Built directly on `std::net`: an acceptor thread hands connections
//! to a fixed worker pool over a channel; each worker speaks enough
//! HTTP/1.1 (request line, headers, `Content-Length` bodies,
//! keep-alive) to serve the query API. Graceful shutdown: a flag plus
//! a self-connect to unblock `accept`, then the pool drains.
//!
//! Endpoints:
//!
//! | Method/path            | Answer                                     |
//! |------------------------|--------------------------------------------|
//! | `GET /healthz`         | liveness + artifact name                   |
//! | `GET /stats`           | per-endpoint latency/QPS counters (add     |
//! |                        | `?reset=true` for reset-on-read deltas)    |
//! | `GET /metrics`         | Prometheus text exposition (cumulative)    |
//! | `GET /artifact`        | artifact metadata + learned view weights   |
//! | `GET /cluster/{node}`  | cluster assignment + centroid distance     |
//! | `GET /topk/{node}?k=K` | K nearest nodes by embedding cosine;       |
//! |                        | `&mode=approx[&nprobe=N]` probes the IVF   |
//! |                        | index instead of scanning every row        |
//! | `POST /embed`          | `{"nodes":[...]}` → embedding rows         |
//! | `POST /reload`         | re-load the artifact and hot-swap it in    |
//! |                        | (reloadable servers only — see             |
//! |                        | [`Server::start_reloadable`])              |
//! | `GET /traces?n=K`      | the K most recent request traces (span     |
//! |                        | trees from the `mvag_obs` ring buffer)     |
//! | `GET /traces/slow`     | recent requests slower than                |
//! |                        | `?threshold_us=T` (trace-ring filter)      |
//! | `GET /health`          | SLO health state machine: `ok` /           |
//! |                        | `degraded` (HTTP 200) / `unhealthy` (503)  |
//! | `GET /version`         | crate version, supported artifact/delta    |
//! |                        | format versions, uptime                    |
//! | `GET /debug/slow_queries` | captured slow queries with cost         |
//! |                        | profiles (`?drain=1` empties the ring)     |
//! | `PUT /debug/slow_threshold` | live-tune the slow-query threshold    |
//! | `PUT /debug/slo`       | live-tune the SLO objectives               |
//!
//! The query endpoints (`/cluster`, `/topk`, `/embed`) accept
//! `?explain=1`: the response carries a `"cost"` object — the query's
//! [`QueryCost`] profile — spliced onto the *identical* answer bytes,
//! so EXPLAIN can never perturb a result.
//!
//! Top-k requests go through the [`Batcher`], so concurrent clients
//! are micro-batched into shared kernel passes (exact and approx
//! queries each share passes with their own kind).
//!
//! Every response (including early 400s for malformed requests and
//! 5xx error paths) carries an `x-request-id` header: a sanitized
//! client-supplied `X-Request-Id` is echoed back verbatim (and hashed
//! into the trace id), otherwise a minted `req-<16 hex digits>`; with
//! [`ServerConfig::trace`] enabled the same id keys the request's
//! span tree in `/traces`.

use crate::backend::QueryBackend;
use crate::batch::Batcher;
use crate::cost::QueryCost;
use crate::engine::QueryEngine;
use crate::metrics::{ConnGauges, MetricsRegistry};
use crate::parser::{self, Request};
use crate::slo::SloTracker;
use crate::slowlog::{SlowQuery, SlowQueryLog};
use crate::swap::HotSwapBackend;
use crate::{Result, ServeError};
use mvag_data::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which transport backend a [`Server`] runs connections on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeBackend {
    /// Thread-per-connection over blocking `std::net`: an acceptor
    /// thread hands sockets to a fixed worker pool. Simple, portable,
    /// and kept as the correctness oracle — but an idle keep-alive
    /// client pins a worker, so concurrency caps at the pool size.
    #[default]
    Threaded,
    /// Single-threaded epoll readiness loop (Linux only): one loop
    /// thread owns all connection I/O, compute runs on an executor
    /// pool, and idle connections cost one epoll registration — see
    /// the `evented` module.
    Evented,
}

impl ServeBackend {
    /// The label `/stats` reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeBackend::Threaded => "threaded",
            ServeBackend::Evented => "evented",
        }
    }
}

impl std::str::FromStr for ServeBackend {
    type Err = String;

    fn from_str(raw: &str) -> std::result::Result<ServeBackend, String> {
        match raw {
            "threaded" => Ok(ServeBackend::Threaded),
            "evented" => Ok(ServeBackend::Evented),
            other => Err(format!("unknown backend '{other}' (threaded or evented)")),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: SocketAddr,
    /// Transport backend (see [`ServeBackend`]).
    pub backend: ServeBackend,
    /// Threaded backend: worker threads handling connections.
    /// Defaults to the unified
    /// `mvag_sparse::parallel::default_threads()` sizing (≤ 16,
    /// `SGLA_THREADS` override) with a floor of 4: connection handlers
    /// are I/O-bound, and on a 1–2 core host a single idle keep-alive
    /// client must not pin the only worker. The evented backend
    /// spawns this many compute executors instead (its I/O needs no
    /// threads).
    pub workers: usize,
    /// Upper bound on queries absorbed into one top-k kernel pass.
    pub max_batch: usize,
    /// Per-connection read timeout; on the evented backend this is
    /// the idle timeout after which silent connections are reaped
    /// (half-sent requests get a 408).
    pub read_timeout: Duration,
    /// Evented backend: cap on simultaneously open connections —
    /// accepts beyond it are answered with a best-effort 503 and
    /// closed (load shedding). `0` means unlimited.
    pub max_connections: usize,
    /// Enable request tracing at startup (`mvag_obs::set_enabled`):
    /// every request records a span tree served back on `/traces`.
    /// Off by default — the disabled instrumentation path is a single
    /// atomic load per site.
    pub trace: bool,
    /// Slow-query log threshold in microseconds: requests whose wall
    /// time meets it are captured (with their [`QueryCost`] and span
    /// tree) into the `GET /debug/slow_queries` ring. `0` disables
    /// capture. Live-tunable via `PUT /debug/slow_threshold`.
    pub slow_query_us: u64,
    /// SLO latency objective: the per-endpoint p99 (microseconds) the
    /// `/health` burn-rate math holds the server to. `0` disables the
    /// latency objective. Live-tunable via `PUT /debug/slo`.
    pub slo_p99_us: u64,
    /// SLO error-rate objective (fraction of requests allowed to fail,
    /// e.g. `0.001`). `0` disables the error objective. Live-tunable
    /// via `PUT /debug/slo`.
    pub slo_error_rate: f64,
    /// Rolling SLO window lengths in seconds, shortest first. The two
    /// shortest drive `/health`; all are exported as `sgla_slo_*`.
    pub slo_windows: Vec<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".parse().expect("static addr"),
            backend: ServeBackend::default(),
            workers: mvag_sparse::parallel::default_threads().max(4),
            max_batch: 64,
            read_timeout: Duration::from_secs(30),
            max_connections: 10_000,
            trace: false,
            slow_query_us: 10_000,
            slo_p99_us: 0,
            slo_error_rate: 0.0,
            slo_windows: vec![60, 300, 3600],
        }
    }
}

/// Builds a replacement backend for `POST /reload` — typically by
/// re-reading the artifact path the server was started with. Runs on
/// the request's worker thread; a failure leaves the old backend
/// serving untouched.
pub type BackendLoader = Box<dyn Fn() -> Result<Arc<dyn QueryBackend>> + Send + Sync>;

/// The hot-swap half of a reloadable server.
struct ReloadState {
    swap: Arc<HotSwapBackend>,
    loader: BackendLoader,
}

/// Result of the most recent `POST /reload`, remembered for `/health`:
/// a failed reload means the server is knowingly serving stale data.
pub(crate) struct ReloadOutcome {
    pub(crate) ok: bool,
    pub(crate) detail: String,
    pub(crate) at_secs: u64,
}

pub(crate) struct ServerShared {
    backend: Arc<dyn QueryBackend>,
    batcher: Batcher,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) stop: AtomicBool,
    /// Connection-level counters (accepts, open, timeouts, shed,
    /// buffer high-water marks) surfaced on `/stats` and `/metrics`.
    pub(crate) conns: ConnGauges,
    /// `Some` only for servers started via [`Server::start_reloadable`].
    reload: Option<ReloadState>,
    /// Which transport backend is serving (reported on `/stats`).
    backend_kind: ServeBackend,
    max_connections: usize,
    idle_timeout: Duration,
    /// Slow-query ring (`GET /debug/slow_queries`).
    pub(crate) slow_log: SlowQueryLog,
    /// Rolling SLO windows and objectives backing `/health`.
    pub(crate) slo: SloTracker,
    /// Most recent reload outcome, reflected in `/health`.
    last_reload: Mutex<Option<ReloadOutcome>>,
}

/// The backend-specific thread handles of a running server.
enum Runtime {
    Threaded {
        acceptor: Option<JoinHandle<()>>,
        workers: Vec<JoinHandle<()>>,
    },
    #[cfg(target_os = "linux")]
    Evented(crate::evented::EventedRuntime),
}

/// A running server; dropping it (or calling [`Server::shutdown`])
/// stops the transport and drains in-flight requests.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    runtime: Runtime,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("backend", &self.shared.backend_kind)
            .finish()
    }
}

impl Server {
    /// Binds, spawns the worker pool, and starts accepting — serving a
    /// single in-memory [`QueryEngine`].
    ///
    /// # Errors
    /// [`ServeError::Io`] if the bind fails.
    pub fn start(engine: Arc<QueryEngine>, config: &ServerConfig) -> Result<Server> {
        Server::start_backend(engine, config)
    }

    /// Binds, spawns the worker pool, and starts accepting over any
    /// [`QueryBackend`] — a monolithic engine or a
    /// [`ShardRouter`](crate::router::ShardRouter).
    ///
    /// # Errors
    /// [`ServeError::Io`] if the bind fails.
    pub fn start_backend(backend: Arc<dyn QueryBackend>, config: &ServerConfig) -> Result<Server> {
        Server::start_inner(backend, None, config)
    }

    /// Starts a *reloadable* server: the initial backend comes from
    /// `loader()`, is wrapped in a [`HotSwapBackend`], and
    /// `POST /reload` re-runs the loader and atomically swaps the
    /// fresh backend in — in-flight queries finish on the backend they
    /// started on, and a failed reload leaves the old one serving.
    /// This is how a serving process picks up an incrementally updated
    /// artifact (`sgla-serve update` + `POST /reload`) with zero
    /// downtime.
    ///
    /// # Errors
    /// [`ServeError::Io`] if the bind fails; loader failures building
    /// the initial backend.
    pub fn start_reloadable(loader: BackendLoader, config: &ServerConfig) -> Result<Server> {
        let swap = Arc::new(HotSwapBackend::new(loader()?));
        let backend: Arc<dyn QueryBackend> = Arc::clone(&swap) as Arc<dyn QueryBackend>;
        Server::start_inner(backend, Some(ReloadState { swap, loader }), config)
    }

    fn start_inner(
        backend: Arc<dyn QueryBackend>,
        reload: Option<ReloadState>,
        config: &ServerConfig,
    ) -> Result<Server> {
        if config.trace {
            mvag_obs::set_enabled(true);
        }
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            batcher: Batcher::new(Arc::clone(&backend), config.max_batch),
            backend,
            metrics: MetricsRegistry::new(&config.slo_windows),
            stop: AtomicBool::new(false),
            conns: ConnGauges::new(),
            reload,
            backend_kind: config.backend,
            max_connections: config.max_connections,
            idle_timeout: config.read_timeout,
            slow_log: SlowQueryLog::new(config.slow_query_us),
            slo: SloTracker::new(config.slo_p99_us, config.slo_error_rate),
            last_reload: Mutex::new(None),
        });

        if config.backend == ServeBackend::Evented {
            #[cfg(target_os = "linux")]
            {
                let runtime = crate::evented::EventedRuntime::start(
                    listener,
                    Arc::clone(&shared),
                    config.workers.max(1),
                    config.max_connections,
                    config.read_timeout,
                )?;
                return Ok(Server {
                    local_addr,
                    shared,
                    runtime: Runtime::Evented(runtime),
                });
            }
            #[cfg(not(target_os = "linux"))]
            return Err(ServeError::Server(
                "the evented backend requires Linux (epoll); use ServeBackend::Threaded".into(),
            ));
        }

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let shared_ref = Arc::clone(&shared);
            let read_timeout = config.read_timeout;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sgla-serve-{i}"))
                    .spawn(move || worker_loop(&rx, &shared_ref, read_timeout))
                    .map_err(|e| ServeError::Server(format!("spawn worker: {e}")))?,
            );
        }

        // Nonblocking accept loop: the acceptor polls the stop flag
        // instead of parking in accept(), so shutdown never depends on
        // being able to open a wake-up connection to itself.
        listener.set_nonblocking(true)?;
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("sgla-serve-accept".into())
            .spawn(move || {
                while !acceptor_shared.stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((s, _peer)) => {
                            acceptor_shared.conns.accepted();
                            // Connection sockets must block; they do
                            // not inherit nonblocking on all platforms,
                            // so set it explicitly.
                            if s.set_nonblocking(false).is_err() {
                                continue;
                            }
                            // Dropping the send side stops workers; a
                            // send failure means we're shutting down.
                            if conn_tx.send(s).is_err() {
                                break;
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => continue,
                    }
                }
                // conn_tx drops here; workers drain and exit.
            })
            .map_err(|e| ServeError::Server(format!("spawn acceptor: {e}")))?;

        Ok(Server {
            local_addr,
            shared,
            runtime: Runtime::Threaded {
                acceptor: Some(acceptor),
                workers,
            },
        })
    }

    /// The actually-bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Metrics for this server.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Graceful shutdown: stop accepting, drain workers, stop the
    /// batcher. In-flight requests finish; keep-alive connections are
    /// closed after their current request.
    pub fn shutdown(mut self) {
        self.stop_internal();
    }

    fn stop_internal(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        match &mut self.runtime {
            // The acceptor polls the stop flag (nonblocking accept),
            // and idle workers poll it between requests, so joins are
            // bounded.
            Runtime::Threaded { acceptor, workers } => {
                if let Some(acceptor) = acceptor.take() {
                    let _ = acceptor.join();
                }
                for worker in workers.drain(..) {
                    let _ = worker.join();
                }
            }
            // The eventfd kicks the loop out of epoll_wait; the loop
            // dropping its job queue releases the executors.
            #[cfg(target_os = "linux")]
            Runtime::Evented(runtime) => {
                runtime.wake();
                runtime.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_internal();
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    shared: &ServerShared,
    read_timeout: Duration,
) {
    loop {
        let stream = {
            let guard = rx.lock().expect("conn queue lock");
            guard.recv()
        };
        match stream {
            Ok(s) => handle_connection(s, shared, read_timeout),
            Err(_) => return, // acceptor gone: shutdown
        }
    }
}

/// Poll interval for idle keep-alive connections: workers waiting for
/// the next request wake this often to observe the shutdown flag, so
/// `Server::shutdown` never blocks on idle clients.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Poll interval of the nonblocking accept loop (bounds both accept
/// latency under no load and shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Counts a connection open against the gauges and guarantees the
/// matching close on every exit path of `handle_connection`.
struct OpenScope<'a>(&'a ConnGauges);

impl Drop for OpenScope<'_> {
    fn drop(&mut self) {
        self.0.closed();
    }
}

fn handle_connection(stream: TcpStream, shared: &ServerShared, read_timeout: Duration) {
    shared.conns.opened();
    let _open = OpenScope(&shared.conns);
    let _ = stream.set_nodelay(true);
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        // Idle phase: wait for the first byte of the next request
        // under a short timeout, re-checking the stop flag each wake.
        // A connection idle past `read_timeout` is closed so silent
        // clients cannot pin workers from the fixed pool forever.
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
        let idle_since = Instant::now();
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match reader.fill_buf() {
                Ok([]) => return, // clean EOF between requests
                Ok(_) => break,   // request bytes waiting
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if idle_since.elapsed() >= read_timeout {
                        // Idle deadline: free the worker.
                        shared.conns.timed_out();
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
        }
        // Request phase: the full read timeout applies.
        let _ = reader.get_ref().set_read_timeout(Some(read_timeout));
        let request = match parser::read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF between requests
            Err(e) => {
                // Malformed request: answer 400 if the peer is still
                // there, then drop the connection. Even this path gets
                // a request id, so the failure is referenceable.
                let bytes = response_bytes(
                    400,
                    "Bad Request",
                    "application/json",
                    &error_body(&e.to_string()),
                    false,
                    mvag_obs::next_request_id(),
                );
                let _ = writer.write_all(&bytes);
                return;
            }
        };
        let _ = peer; // kept for future access logging
        let keep_alive = request.keep_alive && !shared.stop.load(Ordering::SeqCst);
        // One id per request: a sanitized client `X-Request-Id` hashes
        // to the trace id (so a caller can find its own spans), else a
        // fresh id is minted. It rides the response as `x-request-id`
        // and — when tracing is on — is the trace id every span of
        // this request attaches to, all the way down through the
        // batcher and the shard fan-out.
        let request_id = trace_id_for(&request);
        let bytes = process_request(&request, shared, request_id, Instant::now(), keep_alive);
        let written = writer.write_all(&bytes).and_then(|()| writer.flush());
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// Cap on ids per `/embed` request, bounding the response to
/// `MAX_EMBED_NODES × dim` floats regardless of how many ids fit in
/// [`parser::MAX_BODY`].
const MAX_EMBED_NODES: usize = 4096;

/// Formats a request id the way it appears in the `x-request-id`
/// header and in `/traces` bodies.
fn format_request_id(id: u64) -> String {
    format!("req-{id:016x}")
}

/// Routes one parsed request, records its span tree and endpoint
/// metrics, and renders the full response — the single request path
/// both backends share (the threaded worker writes the bytes
/// directly; the evented executor queues them for the loop). Latency
/// is measured from `started`, which the caller sets at read/enqueue
/// time so queueing is part of the recorded number.
pub(crate) fn process_request(
    request: &Request,
    shared: &ServerShared,
    request_id: u64,
    started: Instant,
    keep_alive: bool,
) -> Vec<u8> {
    let (endpoint, status, body, cost) = mvag_obs::with_trace(request_id, || {
        let mut root = mvag_obs::span("serve.request");
        let out = route(request, shared);
        root.counter("status", u64::from(out.1));
        out
    });
    let wall_us = started.elapsed().as_micros() as u64;
    shared.metrics.record(
        endpoint,
        shared.metrics.uptime_secs() as u64,
        wall_us,
        status < 400,
        shared.slo.is_slow(wall_us),
    );
    // The echoed id: the client's verbatim when one was supplied (its
    // hash is the trace id), the minted `req-…` form otherwise.
    let id_text = request
        .client_id
        .clone()
        .unwrap_or_else(|| format_request_id(request_id));
    if shared.slow_log.is_slow(wall_us) {
        let spans = if mvag_obs::enabled() {
            mvag_obs::trace_snapshot(request_id)
        } else {
            Vec::new()
        };
        shared.slow_log.record(SlowQuery {
            request_id: id_text.clone(),
            endpoint,
            status,
            wall_us,
            threshold_us: shared.slow_log.threshold_us(),
            cost,
            spans,
            at_us: mvag_obs::now_us(),
        });
    }
    // The metrics page is the one non-JSON endpoint (Prometheus
    // text exposition format).
    let content_type = if endpoint == "metrics" && status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    response_bytes_for_id(
        status,
        reason_for(status),
        content_type,
        &body,
        keep_alive,
        &id_text,
    )
}

/// The canonical reason phrase for the statuses this server emits.
pub(crate) fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Renders a complete response (status line, headers, body) as one
/// byte vector — shared by the threaded writer, the evented staging
/// path, and the shed/timeout short-circuits.
pub(crate) fn response_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    request_id: u64,
) -> Vec<u8> {
    response_bytes_for_id(
        status,
        reason,
        content_type,
        body,
        keep_alive,
        &format_request_id(request_id),
    )
}

/// [`response_bytes`] with the `x-request-id` value already rendered —
/// the form the client-echo path uses (the id header carries the
/// caller's own sanitized `X-Request-Id` back verbatim).
pub(crate) fn response_bytes_for_id(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    request_id: &str,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\nx-request-id: {request_id}\r\n\r\n",
        body.len(),
    );
    let mut bytes = Vec::with_capacity(head.len() + body.len());
    bytes.extend_from_slice(head.as_bytes());
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Trace id for a request: a sanitized client `X-Request-Id` hashes
/// deterministically (FNV-1a, forced nonzero — trace id 0 means "not
/// traced" throughout `mvag_obs`), so retries of the same logical
/// request land on the same trace; otherwise a fresh id is minted.
pub(crate) fn trace_id_for(request: &Request) -> u64 {
    match &request.client_id {
        Some(id) => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in id.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h.max(1)
        }
        None => mvag_obs::next_request_id(),
    }
}

pub(crate) fn error_body(message: &str) -> String {
    Value::object(vec![("error", Value::from(message))]).to_string_compact()
}

/// Finishes a query endpoint's response: stamps the plain body's
/// length into the cost, then — only under `?explain=1` — splices the
/// cost object before the body's closing brace. The answer bytes are
/// byte-identical with and without explain (the splice appends, never
/// re-serializes), and `response_bytes` always reports the *plain*
/// body length, so a cost profile is comparable across both forms.
fn finish_cost(body: String, mut cost: QueryCost, query: &str) -> (String, Option<QueryCost>) {
    cost.response_bytes = body.len() as u64;
    if query_flag(query, "explain") && body.ends_with('}') {
        let spliced = format!("{},\"cost\":{}}}", &body[..body.len() - 1], cost.json());
        (spliced, Some(cost))
    } else {
        (body, Some(cost))
    }
}

/// Dispatches one request. Returns `(endpoint label, status, body,
/// cost)` — the cost is `Some` for the query endpoints (`/cluster`,
/// `/topk`, `/embed`) and feeds the slow-query log even when the
/// client did not ask for `?explain=1`.
fn route(
    request: &Request,
    shared: &ServerShared,
) -> (&'static str, u16, String, Option<QueryCost>) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => ("healthz", 200, healthz_body(shared), None),
        ("GET", ["health"]) => {
            let (status, body) = health_route(shared);
            ("health", status, body, None)
        }
        ("GET", ["version"]) => ("version", 200, version_body(shared), None),
        ("GET", ["stats"]) => (
            "stats",
            200,
            stats_body(shared, query_flag(&request.query, "reset")),
            None,
        ),
        ("GET", ["metrics"]) => ("metrics", 200, metrics_body(shared), None),
        ("GET", ["artifact"]) => ("artifact", 200, artifact_body(shared), None),
        ("GET", ["cluster", node]) => match parse_node(node) {
            Ok(node) => match shared.backend.cluster_of_costed(node) {
                (Ok(info), cost) => {
                    let body = Value::object(vec![
                        ("node", Value::from(info.node)),
                        ("cluster", Value::from(info.cluster)),
                        ("centroid_dist", Value::from(info.centroid_dist)),
                    ])
                    .to_string_compact();
                    let (body, cost) = finish_cost(body, cost, &request.query);
                    ("cluster", 200, body, cost)
                }
                // error_status: a bad query is 400; a shard-load fault
                // behind the router is 503 (transient, retryable).
                (Err(e), cost) => {
                    let (body, cost) =
                        finish_cost(error_body(&e.to_string()), cost, &request.query);
                    ("cluster", error_status(&e), body, cost)
                }
            },
            Err(msg) => ("cluster", 400, error_body(&msg), None),
        },
        ("GET", ["topk", node]) => match (parse_node(node), parse_topk_params(&request.query)) {
            (Ok(node), Ok(params)) => {
                let (answer, cost) = match params.mode {
                    TopKMode::Exact => shared.batcher.top_k(node, params.k),
                    TopKMode::Approx => shared.batcher.top_k_approx(node, params.k, params.nprobe),
                };
                match answer {
                    Ok(neighbors) => {
                        let items: Vec<Value> = neighbors
                            .iter()
                            .map(|nb| {
                                Value::object(vec![
                                    ("node", Value::from(nb.node)),
                                    ("score", Value::from(nb.score)),
                                ])
                            })
                            .collect();
                        let mode = match params.mode {
                            TopKMode::Exact => "exact",
                            TopKMode::Approx => "approx",
                        };
                        let body = Value::object(vec![
                            ("node", Value::from(node)),
                            ("k", Value::from(params.k)),
                            ("mode", Value::from(mode)),
                            ("neighbors", Value::Array(items)),
                        ])
                        .to_string_compact();
                        let (body, cost) = finish_cost(body, cost, &request.query);
                        ("topk", 200, body, cost)
                    }
                    Err(e) => {
                        let (body, cost) =
                            finish_cost(error_body(&e.to_string()), cost, &request.query);
                        ("topk", error_status(&e), body, cost)
                    }
                }
            }
            (Err(msg), _) | (_, Err(msg)) => ("topk", 400, error_body(&msg), None),
        },
        ("POST", ["embed"]) => embed_route(request, shared),
        ("POST", ["reload"]) => reload_route(shared),
        ("GET", ["traces"]) => ("traces", 200, traces_body(&request.query, false), None),
        ("GET", ["traces", "slow"]) => ("traces", 200, traces_body(&request.query, true), None),
        ("GET", ["debug", "slow_queries"]) => (
            "debug",
            200,
            slow_queries_body(shared, query_flag(&request.query, "drain")),
            None,
        ),
        ("PUT", ["debug", "slow_threshold"]) => {
            let (status, body) = slow_threshold_route(request, shared);
            ("debug", status, body, None)
        }
        ("PUT", ["debug", "slo"]) => {
            let (status, body) = slo_route(request, shared);
            ("debug", status, body, None)
        }
        (
            _,
            ["healthz" | "health" | "version" | "stats" | "metrics" | "artifact" | "embed"
            | "reload" | "traces"],
        )
        | (_, ["cluster" | "topk", _])
        | (_, ["debug", ..]) => ("other", 405, error_body("method not allowed"), None),
        _ => ("other", 404, error_body("no such endpoint"), None),
    }
}

/// `POST /reload`: rebuild the backend via the server's loader and
/// hot-swap it in. Only available on servers started with
/// [`Server::start_reloadable`]; a loader failure keeps the old
/// backend serving and reports 503 (the operator retries after fixing
/// the artifact on disk).
fn reload_route(shared: &ServerShared) -> (&'static str, u16, String, Option<QueryCost>) {
    let Some(reload) = &shared.reload else {
        return (
            "reload",
            400,
            error_body("this server was not started reloadable (no artifact path to re-read)"),
            None,
        );
    };
    match (reload.loader)() {
        Ok(next) => {
            let old = reload.swap.swap(next);
            let meta = shared.backend.meta();
            note_reload(shared, true, format!("reloaded n={}", meta.n));
            (
                "reload",
                200,
                Value::object(vec![
                    ("status", Value::from("reloaded")),
                    ("dataset", Value::from(meta.dataset.as_str())),
                    ("n", Value::from(meta.n)),
                    ("previous_n", Value::from(old.meta().n)),
                    ("update_count", Value::from(meta.update_count)),
                    ("swaps", Value::from(reload.swap.swap_count())),
                ])
                .to_string_compact(),
                None,
            )
        }
        Err(e) => {
            note_reload(shared, false, e.to_string());
            (
                "reload",
                503,
                error_body(&format!("reload failed, old artifact still serving: {e}")),
                None,
            )
        }
    }
}

/// Remembers the latest reload outcome for `/health` (a failed reload
/// means the server is knowingly serving a stale artifact).
fn note_reload(shared: &ServerShared, ok: bool, detail: String) {
    let outcome = ReloadOutcome {
        ok,
        detail,
        at_secs: shared.metrics.uptime_secs() as u64,
    };
    *shared.last_reload.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
}

fn embed_route(
    request: &Request,
    shared: &ServerShared,
) -> (&'static str, u16, String, Option<QueryCost>) {
    let parsed = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| json::parse(text).ok());
    let Some(doc) = parsed else {
        return ("embed", 400, error_body("body must be JSON"), None);
    };
    let Some(node_vals) = doc.get("nodes").and_then(Value::as_array) else {
        return (
            "embed",
            400,
            error_body("body needs a \"nodes\" array"),
            None,
        );
    };
    // Response size is nodes × dim floats; without this cap a 4 MiB
    // body of repeated ids could demand a response of hundreds of MB.
    if node_vals.len() > MAX_EMBED_NODES {
        return (
            "embed",
            400,
            error_body(&format!(
                "at most {MAX_EMBED_NODES} nodes per embed request (got {})",
                node_vals.len()
            )),
            None,
        );
    }
    let mut nodes = Vec::with_capacity(node_vals.len());
    for v in node_vals {
        match v.as_usize() {
            Some(n) => nodes.push(n),
            None => {
                return (
                    "embed",
                    400,
                    error_body("nodes must be non-negative integers"),
                    None,
                )
            }
        }
    }
    match shared.backend.embed_batch_costed(&nodes) {
        (Ok(rows), cost) => {
            let rows: Vec<Value> = rows.into_iter().map(Value::from).collect();
            let dim = shared.backend.meta().dim;
            let body = Value::object(vec![
                ("nodes", Value::from(nodes)),
                ("dim", Value::from(dim)),
                ("embeddings", Value::Array(rows)),
            ])
            .to_string_compact();
            let (body, cost) = finish_cost(body, cost, &request.query);
            ("embed", 200, body, cost)
        }
        (Err(e), cost) => {
            let (body, cost) = finish_cost(error_body(&e.to_string()), cost, &request.query);
            ("embed", error_status(&e), body, cost)
        }
    }
}

/// Maps engine/batcher errors to a status: the client's query being
/// bad is 400; server-side faults (batcher shut down, dropped reply)
/// are 503 so retry logic treats them as transient.
fn error_status(e: &ServeError) -> u16 {
    match e {
        ServeError::InvalidQuery(_) | ServeError::InvalidArgument(_) => 400,
        ServeError::NotFound(_) => 404,
        _ => 503,
    }
}

fn parse_node(raw: &str) -> std::result::Result<usize, String> {
    raw.parse::<usize>()
        .map_err(|_| format!("bad node id '{raw}'"))
}

/// How a `/topk` request wants to be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopKMode {
    Exact,
    Approx,
}

#[derive(Debug, Clone, Copy)]
struct TopKParams {
    k: usize,
    mode: TopKMode,
    /// Lists to probe in approx mode; 0 = backend default.
    nprobe: usize,
}

/// The value of `key` in a raw query string, if present.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        pair.split_once('=')
            .filter(|(name, _)| *name == key)
            .map(|(_, value)| value)
    })
}

/// Whether a boolean query flag is set (`?reset=true` / `?reset=1`).
fn query_flag(query: &str, key: &str) -> bool {
    matches!(query_param(query, key), Some("true") | Some("1"))
}

fn parse_topk_params(query: &str) -> std::result::Result<TopKParams, String> {
    let k = match query_param(query, "k") {
        Some(raw) => raw.parse::<usize>().map_err(|_| format!("bad k '{raw}'"))?,
        None => 10, // default k
    };
    let mode = match query_param(query, "mode") {
        None | Some("exact") => TopKMode::Exact,
        Some("approx") => TopKMode::Approx,
        Some(other) => return Err(format!("bad mode '{other}' (exact or approx)")),
    };
    let nprobe = match query_param(query, "nprobe") {
        Some(raw) => {
            if mode != TopKMode::Approx {
                return Err("nprobe only applies to mode=approx".into());
            }
            raw.parse::<usize>()
                .map_err(|_| format!("bad nprobe '{raw}'"))?
        }
        None => 0,
    };
    Ok(TopKParams { k, mode, nprobe })
}

fn healthz_body(shared: &ServerShared) -> String {
    let meta = shared.backend.meta();
    Value::object(vec![
        ("status", Value::from("ok")),
        ("artifact", Value::from(meta.dataset.as_str())),
        ("n", Value::from(meta.n)),
    ])
    .to_string_compact()
}

/// Delta-chain depth past which `/health` reports `degraded`: each
/// un-compacted update lengthens the replay chain a reload must walk.
const HEALTH_MAX_UPDATE_CHAIN: u64 = 8;

/// Dead-row fraction past which `/health` reports `degraded`
/// (tombstones are masked on every scan — compaction is overdue).
const HEALTH_MAX_DEAD_FRACTION: f64 = 0.25;

/// `GET /health`: folds the SLO burn-rate verdict with background-task
/// state (delta-chain depth, dead-row fraction, last reload outcome,
/// running compactions) into one `ok`/`degraded`/`unhealthy` answer.
/// `unhealthy` is served as 503 so plain HTTP load balancers can act
/// on it; `degraded` stays 200 (the server still answers correctly).
fn health_route(shared: &ServerShared) -> (u16, String) {
    use crate::slo::HealthStatus;
    let windows = shared
        .metrics
        .slo_snapshot(shared.metrics.uptime_secs() as u64);
    let (mut status, mut reasons) = shared.slo.evaluate(&windows);
    let meta = shared.backend.meta();
    let tombstones = shared.backend.tombstone_count();
    let dead_fraction = if meta.n > 0 {
        tombstones as f64 / meta.n as f64
    } else {
        0.0
    };
    if dead_fraction > HEALTH_MAX_DEAD_FRACTION {
        status = status.max(HealthStatus::Degraded);
        reasons.push(format!(
            "dead-row fraction {dead_fraction:.3} exceeds {HEALTH_MAX_DEAD_FRACTION} (compaction overdue)"
        ));
    }
    if meta.update_count > HEALTH_MAX_UPDATE_CHAIN {
        status = status.max(HealthStatus::Degraded);
        reasons.push(format!(
            "delta chain depth {} exceeds {HEALTH_MAX_UPDATE_CHAIN} (compact the artifact)",
            meta.update_count
        ));
    }
    let reload_value = {
        let guard = shared.last_reload.lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            Some(o) => {
                if !o.ok {
                    status = status.max(HealthStatus::Degraded);
                    reasons.push(format!("last reload failed: {}", o.detail));
                }
                Value::object(vec![
                    ("ok", Value::Bool(o.ok)),
                    ("detail", Value::from(o.detail.as_str())),
                    ("at_secs", Value::from(o.at_secs)),
                ])
            }
            None => Value::Null,
        }
    };
    let compactions_running = crate::compact::compactions_running();
    let slo_value = Value::object(vec![
        (
            "objective_p99_us",
            Value::from(shared.slo.objective_p99_us()),
        ),
        (
            "objective_error_rate",
            Value::from(shared.slo.objective_error_rate()),
        ),
        (
            "windows_secs",
            Value::from(
                windows
                    .first()
                    .map(|e| {
                        e.windows
                            .iter()
                            .map(|w| w.span_secs as usize)
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default(),
            ),
        ),
    ]);
    let body = Value::object(vec![
        ("status", Value::from(status.as_str())),
        (
            "reasons",
            Value::Array(reasons.iter().map(|r| Value::from(r.as_str())).collect()),
        ),
        ("slo", slo_value),
        (
            "background",
            Value::object(vec![
                ("compactions_running", Value::from(compactions_running)),
                ("update_count", Value::from(meta.update_count)),
                ("compaction_count", Value::from(meta.compaction_count)),
                ("dead_fraction", Value::from(dead_fraction)),
                ("last_reload", reload_value),
            ]),
        ),
    ])
    .to_string_compact();
    let code = if status == HealthStatus::Unhealthy {
        503
    } else {
        200
    };
    (code, body)
}

/// The build descriptor shared by `GET /version` and `/stats`: crate
/// version, every artifact/delta/index format this server reads, and
/// process uptime. Serving reads artifact format v5 only (older files
/// are for `sgla-serve compact`).
fn build_value(uptime_secs: f64) -> Value {
    let artifact_formats = vec![crate::artifact::FORMAT_VERSION as usize];
    let delta_formats: Vec<usize> = vec![
        mvag_data::delta::DELTA_FORMAT_VERSION_V1 as usize,
        mvag_data::delta::DELTA_FORMAT_VERSION as usize,
    ];
    Value::object(vec![
        ("crate_version", Value::from(env!("CARGO_PKG_VERSION"))),
        (
            "artifact_format",
            Value::from(crate::artifact::FORMAT_VERSION as usize),
        ),
        ("artifact_formats_supported", Value::from(artifact_formats)),
        (
            "delta_format",
            Value::from(mvag_data::delta::DELTA_FORMAT_VERSION as usize),
        ),
        ("delta_formats_supported", Value::from(delta_formats)),
        (
            "index_format",
            Value::from(mvag_index::ivf::INDEX_FORMAT_VERSION as usize),
        ),
        ("uptime_secs", Value::from(uptime_secs)),
    ])
}

/// `GET /version` body.
fn version_body(shared: &ServerShared) -> String {
    Value::object(vec![("build", build_value(shared.metrics.uptime_secs()))]).to_string_compact()
}

/// Renders one span record as JSON — shared by `/traces` and the
/// slow-query log export.
fn span_value(r: &mvag_obs::SpanRecord) -> Value {
    let counters: Vec<(&str, Value)> = r
        .counters
        .iter()
        .map(|&(key, value)| (key, Value::from(value)))
        .collect();
    Value::object(vec![
        ("name", Value::from(r.name)),
        ("start_us", Value::from(r.start_us)),
        ("dur_us", Value::from(r.dur_us)),
        ("depth", Value::from(usize::from(r.depth))),
        ("thread", Value::from(r.thread)),
        ("counters", Value::object(counters)),
    ])
}

/// Renders a [`QueryCost`] as a JSON value (same keys and order as the
/// `?explain=1` splice, which uses [`QueryCost::json`] directly).
fn cost_value(cost: &QueryCost) -> Value {
    Value::object(vec![
        ("path", Value::from(cost.path)),
        ("shards_touched", Value::from(cost.shards_touched)),
        ("shards_loaded", Value::from(cost.shards_loaded)),
        ("shards_resident", Value::from(cost.shards_resident)),
        ("lists_probed", Value::from(cost.lists_probed)),
        ("rows_scanned", Value::from(cost.rows_scanned)),
        ("tombstones_masked", Value::from(cost.tombstones_masked)),
        ("cache_hits", Value::from(cost.cache_hits)),
        ("cache_misses", Value::from(cost.cache_misses)),
        ("queue_wait_us", Value::from(cost.queue_wait_us)),
        ("compute_us", Value::from(cost.compute_us)),
        ("response_bytes", Value::from(cost.response_bytes)),
    ])
}

/// `GET /debug/slow_queries` body: every held slow query, newest
/// first, with its cost profile and span tree. `?drain=1` empties the
/// ring as it reads (concurrent captures land in the next read).
fn slow_queries_body(shared: &ServerShared, drain: bool) -> String {
    let entries = if drain {
        shared.slow_log.drain()
    } else {
        shared.slow_log.snapshot()
    };
    let items: Vec<Value> = entries
        .iter()
        .map(|e| {
            Value::object(vec![
                ("request_id", Value::from(e.request_id.as_str())),
                ("endpoint", Value::from(e.endpoint)),
                ("status", Value::from(usize::from(e.status))),
                ("wall_us", Value::from(e.wall_us)),
                ("threshold_us", Value::from(e.threshold_us)),
                ("at_us", Value::from(e.at_us)),
                (
                    "cost",
                    e.cost.as_ref().map(cost_value).unwrap_or(Value::Null),
                ),
                (
                    "spans",
                    Value::Array(e.spans.iter().map(span_value).collect()),
                ),
            ])
        })
        .collect();
    Value::object(vec![
        ("threshold_us", Value::from(shared.slow_log.threshold_us())),
        ("captured_total", Value::from(shared.slow_log.captured())),
        ("dropped_total", Value::from(shared.slow_log.dropped())),
        ("drained", Value::Bool(drain)),
        ("count", Value::from(items.len())),
        ("slow_queries", Value::Array(items)),
    ])
    .to_string_compact()
}

/// `PUT /debug/slow_threshold`: live-tunes the slow-query threshold.
/// Accepts `{"threshold_us": N}` in the body or `?us=N`; `0` disables
/// capture without clearing already-captured entries.
fn slow_threshold_route(request: &Request, shared: &ServerShared) -> (u16, String) {
    let from_query = query_param(&request.query, "us").and_then(|raw| raw.parse::<u64>().ok());
    let from_body = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| json::parse(text).ok())
        .and_then(|doc| doc.get("threshold_us").and_then(Value::as_usize))
        .map(|n| n as u64);
    let Some(threshold_us) = from_body.or(from_query) else {
        return (
            400,
            error_body("need {\"threshold_us\": N} in the body or ?us=N"),
        );
    };
    let previous = shared.slow_log.threshold_us();
    shared.slow_log.set_threshold_us(threshold_us);
    (
        200,
        Value::object(vec![
            ("threshold_us", Value::from(threshold_us)),
            ("previous_us", Value::from(previous)),
        ])
        .to_string_compact(),
    )
}

/// `PUT /debug/slo`: live-tunes the SLO objectives. Body fields
/// `p99_us` (microseconds, 0 disables) and `error_rate` (fraction in
/// `[0, 1]`, 0 disables) are each optional; omitted ones keep their
/// current value.
fn slo_route(request: &Request, shared: &ServerShared) -> (u16, String) {
    let parsed = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| json::parse(text).ok());
    let Some(doc) = parsed else {
        return (400, error_body("body must be JSON"));
    };
    let p99 = match doc.get("p99_us") {
        None => None,
        Some(v) => match v.as_usize() {
            Some(n) => Some(n as u64),
            None => return (400, error_body("p99_us must be a non-negative integer")),
        },
    };
    let error_rate = match doc.get("error_rate") {
        None => None,
        Some(v) => match v.as_f64() {
            Some(r) if (0.0..=1.0).contains(&r) => Some(r),
            _ => return (400, error_body("error_rate must be a number in [0, 1]")),
        },
    };
    if p99.is_none() && error_rate.is_none() {
        return (400, error_body("need p99_us and/or error_rate"));
    }
    if let Some(p99) = p99 {
        shared.slo.set_objective_p99_us(p99);
    }
    if let Some(rate) = error_rate {
        shared.slo.set_objective_error_rate(rate);
    }
    (
        200,
        Value::object(vec![
            (
                "objective_p99_us",
                Value::from(shared.slo.objective_p99_us()),
            ),
            (
                "objective_error_rate",
                Value::from(shared.slo.objective_error_rate()),
            ),
        ])
        .to_string_compact(),
    )
}

fn artifact_body(shared: &ServerShared) -> String {
    let meta = shared.backend.meta();
    Value::object(vec![
        ("dataset", Value::from(meta.dataset.as_str())),
        ("n", Value::from(meta.n)),
        ("k", Value::from(meta.k)),
        ("dim", Value::from(meta.dim)),
        ("seed", Value::from(meta.seed)),
        ("parent_seed", Value::from(meta.parent_seed)),
        ("update_count", Value::from(meta.update_count)),
        ("compaction_count", Value::from(meta.compaction_count)),
        ("tombstones", Value::from(shared.backend.tombstone_count())),
        ("weights", Value::from(shared.backend.weights())),
        (
            "format_version",
            Value::from(crate::artifact::FORMAT_VERSION as usize),
        ),
        ("shards", Value::from(shared.backend.shard_count())),
    ])
    .to_string_compact()
}

/// `/stats` body. With `reset` the per-endpoint numbers are
/// reset-on-read deltas since the previous reset-read (plus the window
/// length); without it they are cumulative since start. Backend
/// counters (cache, index) are always cumulative.
fn stats_body(shared: &ServerShared, reset: bool) -> String {
    let (snapshots, window_secs) = if reset {
        shared.metrics.delta_snapshots()
    } else {
        (shared.metrics.snapshots(), shared.metrics.uptime_secs())
    };
    let window_requests: u64 = snapshots.iter().map(|s| s.latency_us.count).sum();
    let endpoints: Vec<Value> = snapshots
        .iter()
        .map(|snap| {
            Value::object(vec![
                ("endpoint", Value::from(snap.name)),
                ("requests", Value::from(snap.latency_us.count)),
                ("errors", Value::from(snap.errors)),
                ("mean_us", Value::from(snap.latency_us.mean())),
                ("p50_us", Value::from(snap.latency_us.quantile(0.50))),
                ("p99_us", Value::from(snap.latency_us.quantile(0.99))),
            ])
        })
        .collect();
    let (cache_hits, cache_misses) = shared.backend.cache_stats();
    let index = shared.backend.index_stats();
    let memory = shared.backend.store_memory();
    let pool = mvag_sparse::pool::WorkerPool::global().stats();
    let conns = shared.conns.snapshot();
    Value::object(vec![
        ("uptime_secs", Value::from(shared.metrics.uptime_secs())),
        ("window_secs", Value::from(window_secs)),
        ("reset", Value::Bool(reset)),
        (
            "total_requests",
            Value::from(shared.metrics.total_requests()),
        ),
        ("window_requests", Value::from(window_requests)),
        (
            "qps",
            Value::from(if window_secs > 0.0 {
                window_requests as f64 / window_secs
            } else {
                0.0
            }),
        ),
        ("cache_hits", Value::from(cache_hits)),
        ("cache_misses", Value::from(cache_misses)),
        ("shards", Value::from(shared.backend.shard_count())),
        (
            "resident_shards",
            Value::from(shared.backend.resident_shards()),
        ),
        ("tombstones", Value::from(shared.backend.tombstone_count())),
        // Embedding-store accounting: heap bytes pinned by owned
        // stores vs page-cache-reclaimable mapped bytes, and how the
        // residency budget is enforced ("evict" drops owned shards,
        // "madvise" hints mapped ones, "none" = unbounded).
        (
            "memory",
            Value::object(vec![
                ("store_owned_bytes", Value::from(memory.owned_bytes)),
                ("store_mapped_bytes", Value::from(memory.mapped_bytes)),
                ("resident_hint", Value::from(memory.resident_hint.as_str())),
                (
                    "stores",
                    Value::Array(
                        memory
                            .stores
                            .iter()
                            .map(|s| Value::from(s.as_str()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "index",
            Value::object(vec![
                ("enabled", Value::Bool(index.enabled)),
                ("nlist", Value::from(index.nlist)),
                ("approx_queries", Value::from(index.approx_queries)),
                ("exact_queries", Value::from(index.exact_queries)),
                ("lists_scanned", Value::from(index.lists_scanned)),
                ("rows_scanned", Value::from(index.rows_scanned)),
            ]),
        ),
        // The resolved worker-pool configuration (after SGLA_THREADS
        // resolution) plus its dispatch counters — the answer to "how
        // many threads is this server actually using, and is dispatch
        // latency eating the fan-out win?".
        (
            "pool",
            Value::object(vec![
                ("threads", Value::from(pool.threads)),
                ("kind", Value::from(pool.kind)),
                ("jobs", Value::from(pool.jobs)),
                ("inline_jobs", Value::from(pool.inline_jobs)),
                (
                    "dispatch_wait_us",
                    Value::from(pool.dispatch_wait_ns / 1_000),
                ),
                ("parks", Value::from(pool.parks)),
                ("unparks", Value::from(pool.unparks)),
            ]),
        ),
        ("tracing", Value::Bool(mvag_obs::enabled())),
        ("build", build_value(shared.metrics.uptime_secs())),
        // Which transport is serving and under which limits — the
        // evented/threaded split matters when reading the connection
        // numbers below.
        (
            "server",
            Value::object(vec![
                ("backend", Value::from(shared.backend_kind.as_str())),
                ("max_connections", Value::from(shared.max_connections)),
                (
                    "idle_timeout_secs",
                    Value::from(shared.idle_timeout.as_secs_f64()),
                ),
            ]),
        ),
        (
            "connections",
            Value::object(vec![
                ("open", Value::from(conns.open)),
                ("accepts", Value::from(conns.accepts)),
                ("timeouts", Value::from(conns.timeouts)),
                ("shed", Value::from(conns.shed)),
                ("read_buf_hwm_bytes", Value::from(conns.read_buf_hwm)),
                ("write_buf_hwm_bytes", Value::from(conns.write_buf_hwm)),
            ]),
        ),
        ("endpoints", Value::Array(endpoints)),
    ])
    .to_string_compact()
}

/// Default number of traces `/traces` returns.
const DEFAULT_TRACES: usize = 16;

/// Cap on `?n=` for `/traces`: bounds the response size (the ring
/// holds at most [`mvag_obs::ring_capacity`] spans anyway).
const MAX_TRACES: usize = 256;

/// Default `?threshold_us=` for `/traces/slow`.
const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// `/traces` and `/traces/slow` body: recent request span trees from
/// the `mvag_obs` ring buffer, newest first. A trace qualifies when it
/// has a `serve.request` root span; `/traces/slow` additionally
/// filters to roots at least `?threshold_us=T` long (the slow-query
/// log). Empty (with `"enabled": false`) when tracing is off.
fn traces_body(query: &str, slow_only: bool) -> String {
    use std::collections::BTreeMap;
    let n = query_param(query, "n")
        .and_then(|raw| raw.parse::<usize>().ok())
        .unwrap_or(DEFAULT_TRACES)
        .clamp(1, MAX_TRACES);
    let threshold_us = query_param(query, "threshold_us")
        .and_then(|raw| raw.parse::<u64>().ok())
        .unwrap_or(DEFAULT_SLOW_THRESHOLD_US);
    let mut by_trace: BTreeMap<u64, Vec<mvag_obs::SpanRecord>> = BTreeMap::new();
    for r in mvag_obs::snapshot() {
        if r.trace != 0 {
            by_trace.entry(r.trace).or_default().push(r);
        }
    }
    // (trace, root start, root duration, spans)
    let mut traces: Vec<(u64, u64, u64, Vec<mvag_obs::SpanRecord>)> = Vec::new();
    for (trace, spans) in by_trace {
        let Some(root) = spans.iter().find(|r| r.name == "serve.request") else {
            continue; // training/background trace or truncated by the ring
        };
        let (start, dur) = (root.start_us, root.dur_us);
        if slow_only && dur < threshold_us {
            continue;
        }
        traces.push((trace, start, dur, spans));
    }
    traces.sort_by_key(|&(_, start, _, _)| std::cmp::Reverse(start));
    traces.truncate(n);
    let items: Vec<Value> = traces
        .into_iter()
        .map(|(trace, start, dur, spans)| {
            let span_items: Vec<Value> = spans.iter().map(span_value).collect();
            Value::object(vec![
                ("request_id", Value::from(format_request_id(trace).as_str())),
                ("trace", Value::from(trace)),
                ("start_us", Value::from(start)),
                ("dur_us", Value::from(dur)),
                ("spans", Value::Array(span_items)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("enabled", Value::Bool(mvag_obs::enabled())),
        ("count", Value::from(items.len())),
    ];
    if slow_only {
        fields.push(("threshold_us", Value::from(threshold_us)));
    }
    fields.push(("traces", Value::Array(items)));
    Value::object(fields).to_string_compact()
}

/// `/metrics` body: the Prometheus text exposition page — endpoint
/// counters/histograms from the registry plus backend gauges
/// (cache, shards, approx-index scan work).
fn metrics_body(shared: &ServerShared) -> String {
    use mvag_obs::metrics::scalar;
    let mut page = String::with_capacity(4096);
    shared.metrics.render_prometheus(&mut page);
    shared.conns.render_prometheus(&mut page);
    let backend = &shared.backend;
    let (cache_hits, cache_misses) = backend.cache_stats();
    let index = backend.index_stats();
    let memory = backend.store_memory();
    let mapped_stores = memory.stores.iter().filter(|s| *s == "mapped").count();
    let owned_stores = memory.stores.iter().filter(|s| *s == "owned").count();
    let slow_log = &shared.slow_log;
    let families: [(&str, &str, &str, u64); 19] = [
        (
            "sgla_cache_hits_total",
            "counter",
            "Top-k result cache hits.",
            cache_hits,
        ),
        (
            "sgla_cache_misses_total",
            "counter",
            "Top-k result cache misses.",
            cache_misses,
        ),
        (
            "sgla_shards",
            "gauge",
            "Row-range shards behind the backend (1 = monolithic).",
            backend.shard_count() as u64,
        ),
        (
            "sgla_resident_shards",
            "gauge",
            "Shards currently resident in memory.",
            backend.resident_shards() as u64,
        ),
        (
            "sgla_tombstones",
            "gauge",
            "Deleted rows masked until compaction.",
            backend.tombstone_count() as u64,
        ),
        (
            "sgla_index_enabled",
            "gauge",
            "Whether an approximate (IVF) index is loaded (1) or not (0).",
            u64::from(index.enabled),
        ),
        (
            "sgla_index_nlist",
            "gauge",
            "Inverted lists in the IVF index.",
            index.nlist as u64,
        ),
        (
            "sgla_index_approx_queries_total",
            "counter",
            "Top-k queries answered through the IVF index.",
            index.approx_queries,
        ),
        (
            "sgla_index_exact_queries_total",
            "counter",
            "Top-k queries answered by the exact scan.",
            index.exact_queries,
        ),
        (
            "sgla_index_lists_scanned_total",
            "counter",
            "Inverted lists probed by approximate queries.",
            index.lists_scanned,
        ),
        (
            "sgla_index_rows_scanned_total",
            "counter",
            "Candidate rows scored by approximate queries.",
            index.rows_scanned,
        ),
        // Embedding-store memory accounting (out-of-core serving).
        (
            "sgla_store_owned_bytes",
            "gauge",
            "Heap bytes pinned by owned embedding stores.",
            memory.owned_bytes,
        ),
        (
            "sgla_store_mapped_bytes",
            "gauge",
            "Memory-mapped artifact bytes (page-cache reclaimable).",
            memory.mapped_bytes,
        ),
        (
            "sgla_store_mapped_stores",
            "gauge",
            "Resident stores serving memory-mapped.",
            mapped_stores as u64,
        ),
        (
            "sgla_store_owned_stores",
            "gauge",
            "Resident stores serving from the heap.",
            owned_stores as u64,
        ),
        // Slow-query log counters.
        (
            "sgla_slow_query_threshold_us",
            "gauge",
            "Capture threshold (0 = off).",
            slow_log.threshold_us(),
        ),
        (
            "sgla_slow_query_captured_total",
            "counter",
            "Slow queries ever captured.",
            slow_log.captured(),
        ),
        (
            "sgla_slow_query_dropped_total",
            "counter",
            "Entries evicted from full stripes.",
            slow_log.dropped(),
        ),
        (
            "sgla_slow_query_held",
            "gauge",
            "Entries currently in the ring.",
            slow_log.len() as u64,
        ),
    ];
    for (name, kind, help, value) in families {
        scalar(&mut page, name, kind, help, value);
    }
    // SLO windows, objectives, and burn rates.
    let windows = shared
        .metrics
        .slo_snapshot(shared.metrics.uptime_secs() as u64);
    shared.slo.render_prometheus(&windows, &mut page);
    // Compaction/append telemetry (process-wide).
    crate::compact::render_prometheus(&mut page);
    // Pipeline-stage histograms (sgla_stage_*) and worker-pool gauges.
    crate::metrics::render_observability(&mut page);
    page
}
