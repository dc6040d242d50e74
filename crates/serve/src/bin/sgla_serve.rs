//! `sgla-serve` — train an artifact, inspect it, or serve it.
//!
//! ```bash
//! # Train on the synthetic toy dataset and write an artifact:
//! sgla-serve train --out toy.sgla --n 300 --k 3 --seed 42
//!
//! # Train and write a sharded layout (directory with manifest.json):
//! sgla-serve train --out toy-sharded/ --shards 4 --n 300 --k 3
//!
//! # Also build the IVF approximate top-k index (sidecar file(s)):
//! sgla-serve train --out toy.sgla --index ivf --nlist 32
//!
//! # Train on a Table-II synthetic stand-in from the registry:
//! sgla-serve train --out imdb.sgla --dataset imdb --scale 0.25
//!
//! # Inspect an artifact (single file, manifest, or shard directory):
//! sgla-serve info --artifact toy.sgla
//! sgla-serve info --artifact toy-sharded/
//!
//! # Serve it (sharded layouts and index sidecars are detected
//! # automatically; --index ivf builds an index at startup if no
//! # sidecar exists):
//! sgla-serve serve --artifact toy.sgla --addr 127.0.0.1:7878 --workers 8
//! sgla-serve serve --artifact toy-sharded/ --max-resident 2
//! sgla-serve serve --artifact toy.sgla --index ivf
//!
//! # Incrementally update a served artifact (append 5% new nodes,
//! # retrain any IVF sidecar over the new rows, save the delta for
//! # replay, hot-swap the running server):
//! sgla-serve update --artifact toy.sgla --n 300 --k 3 --seed 42 \
//!                   --delta-out d1.mvd --notify 127.0.0.1:7878
//!
//! # A second update replays the first delta to reconstruct the base:
//! sgla-serve update --artifact toy.sgla --n 300 --k 3 --seed 42 \
//!                   --replay d1.mvd --notify 127.0.0.1:7878
//! ```

use mvag_data::FsWriter;
use mvag_graph::generators::{random_append_delta, AppendConfig};
use sgla_serve::artifact::FORMAT_VERSION;
use sgla_serve::store::MmapMode;
use sgla_serve::{
    is_layout_path, publish, Artifact, BackendLoader, EngineConfig, IvfConfig, IvfIndex,
    QueryBackend, RouterConfig, ServeError, Server, ServerConfig, ShardRouter, TrainConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command {
        "train" => train(&args[1..]),
        "info" => info(&args[1..]),
        "serve" => serve(&args[1..]),
        "update" => update(&args[1..]),
        "compact" => compact(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sgla-serve train  --out <file|dir> [--shards N] [--index ivf] [--nlist N]
                    [--dataset toy|<registry name>]
                    [--n N] [--k K] [--dim D] [--seed S] [--scale F]
                    [--trace out.json]
  sgla-serve info   --artifact <file|manifest.json|shard dir>
  sgla-serve serve  --artifact <file|manifest.json|shard dir> [--addr HOST:PORT]
                    [--backend threaded|evented] [--workers N]
                    [--max-conns N] [--idle-timeout SECS]
                    [--cache N] [--batch N] [--max-resident N]
                    [--mmap auto|on|off]
                    [--index ivf] [--nlist N] [--trace on]
                    [--auto-compact F] [--slow-query-us N]
                    [--slo-p99-us N] [--slo-error-rate F]
  sgla-serve update --artifact <file> [--out <file|dir>] [--shards N]
                    [--dataset toy|<name>] [--n N] [--k K] [--dim D] [--seed S]
                    [--scale F] [--replay d1.mvd,d2.mvd]
                    [--add-nodes M] [--update-seed S]
                    [--delta file.mvd] [--delta-out file.mvd]
                    [--index ivf] [--nlist N] [--notify HOST:PORT]
                    [--trace out.json]
  sgla-serve compact --artifact <file|manifest.json|shard dir>
                    [--out <file>] [--notify HOST:PORT]

  train/update --trace writes a Chrome trace-event JSON file of the
  pipeline's phase spans (open in chrome://tracing or Perfetto);
  serve --trace on enables request tracing (GET /traces).
  serve --backend evented runs the single-threaded epoll loop (Linux);
  --max-conns caps open connections (503 shed beyond it, 0 = off) and
  --idle-timeout reaps silent keep-alive connections.
  serve --auto-compact F compacts the artifact at (re)load whenever
  the tombstoned fraction reaches F (e.g. 0.2), and migrates a pre-v5
  artifact to v5; 0 disables.
  serve --mmap controls out-of-core serving: auto (default)
  memory-maps artifacts where supported and falls back to an owned
  load otherwise; on requires mapping; off always loads owned.
  Mapped shards turn --max-resident into a page-cache hint
  (madvise) instead of an eviction. Pre-v5 artifacts are refused;
  `sgla-serve compact` rewrites them as v5.
  serve --slow-query-us N captures requests at least N µs long into
  GET /debug/slow_queries (default 10000, 0 = off; live-tunable via
  PUT /debug/slow_threshold). --slo-p99-us / --slo-error-rate set the
  objectives GET /health grades against (0 = objective off;
  live-tunable via PUT /debug/slo).
  update --artifact <shard dir> --delta d.mvd appends in place:
  only a new tail shard and the manifest are written.
  compact purges tombstones: sharded layouts rewrite only dirty
  shards and re-point the rest via the id-map sidecar.
  train, update and compact replace files by rename, so a running
  server keeps its answers until it reloads; replace a served
  artifact by hand with mv, never by writing over it.";

/// Arms pipeline tracing when `--trace <path>` was passed: clears any
/// stale spans and returns the output path.
fn trace_path(flags: &Flags) -> Option<PathBuf> {
    let path = flags.get("trace").map(PathBuf::from)?;
    mvag_obs::set_enabled(true);
    mvag_obs::clear();
    Some(path)
}

/// Prints one warning line when eigensolves run since `before` (a
/// reading of [`mvag_sparse::eigen::unconverged_pairs`]) stopped pairs at
/// their cycle budget short of the tolerance.
fn warn_unconverged(before: usize) {
    let pairs = mvag_sparse::eigen::unconverged_pairs() - before;
    if pairs > 0 {
        eprintln!(
            "warning: {pairs} eigenpair(s) reached the eigensolver's cycle budget without \
             meeting its tolerance; weights and clusters may be less accurate"
        );
    }
}

/// Drains the recorded spans into a Chrome trace-event JSON file.
fn write_trace(path: &Path) -> Result<(), String> {
    let records = mvag_obs::drain();
    mvag_obs::set_enabled(false);
    std::fs::write(path, mvag_obs::chrome_trace_json(&records))
        .map_err(|e| format!("--trace {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} spans, chrome://tracing / Perfetto format)",
        path.display(),
        records.len()
    );
    Ok(())
}

/// Tiny flag parser: `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{raw}'")),
        }
    }

    /// `--index ivf [--nlist N]` → an IVF config (`None` without the
    /// flag; only `ivf` is a known index kind).
    fn parse_index(&self) -> Result<Option<IvfConfig>, String> {
        match self.get("index") {
            None => Ok(None),
            Some("ivf") => Ok(Some(IvfConfig {
                nlist: self.parse_num("nlist", 0)?,
                ..IvfConfig::default()
            })),
            Some(other) => Err(format!("--index: unknown kind '{other}' (try ivf)")),
        }
    }
}

/// Deterministically regenerates the dataset described by the common
/// `--dataset/--n/--k/--seed/--scale` flags (shared by `train` and
/// `update` — the update path must be able to reconstruct the base
/// graph an artifact was trained on).
fn generate_mvag(flags: &Flags) -> Result<mvag_graph::Mvag, String> {
    let dataset = flags.get("dataset").unwrap_or("toy");
    let seed: u64 = flags.parse_num("seed", 42)?;
    let scale: f64 = flags.parse_num("scale", 0.25)?;
    if dataset == "toy" {
        let n: usize = flags.parse_num("n", 300)?;
        let k: usize = flags.parse_num("k", 3)?;
        Ok(mvag_data::toy_mvag(n, k, seed))
    } else {
        let spec = mvag_data::by_name(dataset).ok_or_else(|| {
            let names: Vec<String> = mvag_data::full_registry()
                .iter()
                .map(|s| s.name.to_string())
                .collect();
            format!(
                "unknown dataset '{dataset}' (try: toy, {})",
                names.join(", ")
            )
        })?;
        spec.generate(scale, seed).map_err(|e| e.to_string())
    }
}

fn train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let out = PathBuf::from(flags.get("out").ok_or("train needs --out <file>")?);
    let seed: u64 = flags.parse_num("seed", 42)?;
    let mvag = generate_mvag(&flags)?;
    println!("training on {}", mvag.summary());
    let mut config = TrainConfig::default();
    config.sgla.seed = seed;
    config.embed.dim = flags.parse_num("dim", 64)?;
    // Parse before training: a bad value must not cost a training run.
    let shards: usize = flags.parse_num("shards", 1)?;
    let index = flags.parse_index()?;
    let trace_out = trace_path(&flags);
    let started = std::time::Instant::now();
    let unconverged_before = mvag_sparse::eigen::unconverged_pairs();
    // One trace id for the whole pipeline run, so the exported spans
    // group like a single request.
    let artifact = mvag_obs::with_trace(mvag_obs::next_request_id(), || {
        Artifact::train(&mvag, &config)
    })
    .map_err(|e| e.to_string())?;
    warn_unconverged(unconverged_before);
    println!(
        "trained in {:.2}s: weights {:?}",
        started.elapsed().as_secs_f64(),
        artifact.weights
    );
    if let Some(path) = &trace_out {
        write_trace(path)?;
    }
    publish_to(&out, &artifact, shards, index.as_ref())
}

/// Publishes `artifact` at `out` — a file, or with `shards > 1` a
/// layout directory — and prints what was written.
fn publish_to(
    out: &Path,
    artifact: &Artifact,
    shards: usize,
    index: Option<&IvfConfig>,
) -> Result<(), String> {
    let published =
        publish(artifact, out, shards, index, &mut FsWriter).map_err(|e| e.to_string())?;
    match &published.manifest {
        Some(manifest) => {
            println!(
                "wrote {} shards + {} to {} ({} bytes total)",
                manifest.shards.len(),
                Artifact::MANIFEST_FILE,
                out.display(),
                published.bytes
            );
            print_shard_table(manifest);
        }
        None => println!("wrote {} ({} bytes)", out.display(), published.bytes),
    }
    for (path, index) in &published.sidecars {
        println!(
            "wrote {} (ivf, nlist={}, {} rows)",
            path.display(),
            index.nlist(),
            index.rows()
        );
    }
    Ok(())
}

fn print_shard_table(manifest: &mvag_data::ShardManifest) {
    for s in &manifest.shards {
        println!(
            "  {}  rows {:>6}..{:<6}  {} bytes  crc32 {:08x}",
            s.file, s.row_start, s.row_end, s.bytes, s.crc32
        );
    }
}

fn info(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags
        .get("artifact")
        .ok_or("info needs --artifact <file>")?;
    let path = Path::new(path);
    if is_layout_path(path) {
        let router = ShardRouter::open(path, RouterConfig::default()).map_err(|e| e.to_string())?;
        let manifest = router.manifest();
        println!(
            "layout:    sharded (format v{})",
            manifest.artifact_format_version
        );
        println!("dataset:   {}", manifest.dataset);
        println!("n:         {}", manifest.n);
        println!("k:         {}", manifest.k);
        println!("dim:       {}", manifest.dim);
        println!("seed:      {}", manifest.seed);
        println!("weights:   {:?}", router.weights());
        println!("shards:    {}", manifest.shards.len());
        print_shard_table(manifest);
        return Ok(());
    }
    let artifact = Artifact::load(path).map_err(|e| e.to_string())?;
    let file_info = Artifact::read_file_info(path).map_err(|e| e.to_string())?;
    let m = &artifact.meta;
    println!("artifact:  {}", path.display());
    println!(
        "format:    v{} ({} bytes)",
        FORMAT_VERSION, file_info.file_bytes
    );
    println!("dataset:   {}", m.dataset);
    println!("n:         {}", m.n);
    println!("k:         {}", m.k);
    println!("dim:       {}", m.dim);
    println!("seed:      {}", m.seed);
    println!("rows:      {}..{}", m.row_start, m.row_end);
    println!(
        "lineage:   parent seed {}, {} update(s) applied",
        m.parent_seed, m.update_count
    );
    println!("weights:   {:?}", artifact.weights);
    println!("laplacian: {} nnz", artifact.laplacian.nnz());
    println!("sections:");
    for s in &file_info.sections {
        println!(
            "  {:<10} offset {:>10}  {:>12} bytes  crc32 {:08x}",
            s.name(),
            s.offset,
            s.len,
            s.crc32
        );
    }
    let sidecar = Artifact::index_sidecar_path(path);
    if sidecar.is_file() {
        let index = IvfIndex::load(&sidecar).map_err(|e| e.to_string())?;
        println!(
            "index:     ivf ({}, nlist={})",
            sidecar.display(),
            index.nlist()
        );
    }
    Ok(())
}

/// Builds the serving backend for `path` (a monolithic file or a
/// sharded layout) — used both at startup and on every `POST /reload`
/// (the loader re-reads the files from disk, so a hot-swap picks up
/// whatever `sgla-serve update` wrote there).
fn load_backend(
    path: &Path,
    config: &RouterConfig,
    quiet: bool,
) -> Result<Arc<dyn QueryBackend>, sgla_serve::ServeError> {
    let front = ShardRouter::open(path, config.clone())?;
    if !quiet {
        let meta = front.meta();
        println!(
            "loaded {} (n = {}, k = {}, dim = {}, {} shard(s) {}, {} update(s){})",
            meta.dataset,
            meta.n,
            meta.k,
            meta.dim,
            front.shard_count(),
            front.store_memory().stores.join("/"),
            meta.update_count,
            if front.index_stats().enabled {
                ", ivf index"
            } else {
                ""
            }
        );
    }
    Ok(Arc::new(front))
}

fn serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags
        .get("artifact")
        .ok_or("serve needs --artifact <file>")?;
    let path = PathBuf::from(path);
    let config = RouterConfig {
        engine: EngineConfig {
            // With --index ivf the backend builds an index at startup
            // wherever no persisted sidecar exists; sidecars always load.
            index: flags.parse_index()?,
            ..EngineConfig::default()
        },
        cache_capacity: flags.parse_num("cache", 4096)?,
        max_resident: flags.parse_num("max-resident", 0)?,
        mmap: flags
            .get("mmap")
            .map(str::parse)
            .transpose()?
            .unwrap_or(MmapMode::Auto),
    };
    let auto_compact: f64 = flags.parse_num("auto-compact", 0.0)?;
    if !(0.0..=1.0).contains(&auto_compact) {
        return Err(format!(
            "--auto-compact: threshold {auto_compact} must be a fraction in 0..=1"
        ));
    }
    let slo_error_rate: f64 = flags.parse_num("slo-error-rate", 0.0)?;
    if !(0.0..=1.0).contains(&slo_error_rate) {
        return Err(format!(
            "--slo-error-rate: {slo_error_rate} must be a fraction in 0..=1"
        ));
    }
    let server_config = ServerConfig {
        addr: flags
            .get("addr")
            .unwrap_or("127.0.0.1:7878")
            .parse()
            .map_err(|e| format!("--addr: {e}"))?,
        backend: flags
            .get("backend")
            .map(str::parse)
            .transpose()?
            .unwrap_or_default(),
        workers: flags.parse_num("workers", 8)?,
        max_batch: flags.parse_num("batch", 64)?,
        max_connections: flags.parse_num("max-conns", 10_000)?,
        read_timeout: Duration::from_secs(flags.parse_num("idle-timeout", 30)?),
        trace: matches!(flags.get("trace"), Some("on" | "true" | "1")),
        slow_query_us: flags.parse_num("slow-query-us", 10_000)?,
        slo_p99_us: flags.parse_num("slo-p99-us", 0)?,
        slo_error_rate,
        ..ServerConfig::default()
    };
    // Reloadable serving: the loader closure re-reads the same path on
    // POST /reload, and the fresh backend is hot-swapped in while
    // in-flight queries finish on the old one.
    let first_load = std::sync::atomic::AtomicBool::new(true);
    let loader: BackendLoader = Box::new(move || {
        let quiet = !first_load.swap(false, std::sync::atomic::Ordering::Relaxed);
        if auto_compact > 0.0 {
            maybe_auto_compact(&path, auto_compact);
        }
        load_backend(&path, &config, quiet)
    });
    let server = Server::start_reloadable(loader, &server_config).map_err(|e| e.to_string())?;
    println!("serving on http://{}", server.local_addr());
    println!(
        "endpoints: /healthz /health /version /stats /metrics /artifact /cluster/{{node}} \
         /topk/{{node}}?k=K[&mode=approx&nprobe=N] /embed /reload (POST) \
         /debug/slow_queries /debug/slow_threshold (PUT) /debug/slo (PUT)"
    );
    println!("query endpoints accept ?explain=1 for a per-query cost profile");
    println!("press Ctrl-C to stop");
    // Foreground serve: park until killed. Workers own the sockets.
    loop {
        std::thread::park();
    }
}

/// Compacts the artifact at `path` before a (re)load when its
/// tombstoned fraction has reached `threshold`, and migrates it when
/// it is in an older format that serving refuses (v1–v4). The count
/// and the version come from the manifest or the file's head, so
/// nothing is decoded here. Failures are logged, not fatal: the
/// uncompacted artifact still serves correctly (tombstones are masked
/// at query time), so a broken background compaction must never take
/// the server down.
fn maybe_auto_compact(path: &Path, threshold: f64) {
    let result = (|| -> Result<Option<sgla_serve::CompactionStats>, String> {
        let (dead, n, old_format) = if is_layout_path(path) {
            let (manifest, _) =
                sgla_serve::compact::open_layout(path).map_err(|e| e.to_string())?;
            let dead: usize = manifest.shards.iter().map(|e| e.tombstones).sum();
            let old_format = manifest.artifact_format_version < FORMAT_VERSION;
            (dead, manifest.n, old_format)
        } else {
            match Artifact::read_file_info(path) {
                Ok(info) => (info.tombstones, info.n, false),
                Err(ServeError::OldFormat { .. }) => (0, 0, true),
                Err(e) => return Err(e.to_string()),
            }
        };
        if !old_format && (n == 0 || (dead as f64) < threshold * n as f64) {
            return Ok(None);
        }
        let stats = if is_layout_path(path) {
            sgla_serve::compact_sharded(path, &mut FsWriter)
        } else {
            sgla_serve::compact_monolithic(path, path, &mut FsWriter)
        }
        .map_err(|e| e.to_string())?;
        Ok(Some(stats))
    })();
    match result {
        Ok(Some(stats)) if !stats.is_noop() => println!(
            "auto-compact: purged {} row(s), rewrote {} shard(s) ({} bytes)",
            stats.purged, stats.shards_rewritten, stats.bytes_written
        ),
        Ok(_) => {}
        Err(e) => eprintln!("auto-compact: {e} (serving the uncompacted artifact)"),
    }
}

/// With `--notify HOST:PORT`, POSTs `/reload` to a running server so
/// it hot-swaps whatever the preceding command wrote to disk.
fn notify_reload(flags: &Flags) -> Result<(), String> {
    let Some(addr) = flags.get("notify") else {
        return Ok(());
    };
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("--notify: {e}"))?;
    let mut client = sgla_serve::HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let response = client
        .post("/reload", &mvag_data::json::Value::object(vec![]))
        .map_err(|e| e.to_string())?;
    if response.status == 200 {
        println!("notified {addr}: server hot-swapped the updated artifact");
        Ok(())
    } else {
        Err(format!(
            "notify {addr}: POST /reload answered {} ({})",
            response.status, response.body
        ))
    }
}

/// `sgla-serve compact` — purge tombstones from an artifact on disk,
/// and migrate a file or layout in an older format (v1–v4, which
/// serving refuses) to v5.
///
/// Sharded layouts rewrite only dirty shards (tombstoned or stale);
/// monolithic artifacts are rewritten whole to `--out` (default: the
/// same path). Both commit by rename, so a kill at any point leaves the
/// old or the new artifact loadable. `--notify` hot-swaps a server.
fn compact(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = PathBuf::from(
        flags
            .get("artifact")
            .ok_or("compact needs --artifact <file|shard dir>")?,
    );
    let stats = if is_layout_path(&path) {
        if flags.get("out").is_some() {
            return Err("sharded layouts compact in place; --out applies to single files".into());
        }
        sgla_serve::compact_sharded(&path, &mut FsWriter).map_err(|e| e.to_string())?
    } else {
        let out = flags
            .get("out")
            .map(PathBuf::from)
            .unwrap_or_else(|| path.clone());
        sgla_serve::compact_monolithic(&path, &out, &mut FsWriter).map_err(|e| e.to_string())?
    };
    if stats.is_noop() {
        println!("nothing to compact: no tombstones, no stale shards");
        return Ok(());
    }
    println!(
        "compacted {}: purged {} row(s); rewrote {} shard(s), kept {}, dropped {} \
         ({} bytes written over {} dirty bytes)",
        path.display(),
        stats.purged,
        stats.shards_rewritten,
        stats.shards_kept,
        stats.shards_dropped,
        stats.bytes_written,
        stats.dirty_bytes_before
    );
    notify_reload(&flags)
}

/// `sgla-serve update` — incremental artifact refresh for an
/// append-only graph change, without a full retrain:
///
/// 1. loads the full artifact and regenerates its base MVAG from the
///    same `--dataset/--n/--k/--seed` flags `train` used (replaying
///    any previously saved deltas via `--replay` for artifacts that
///    have already been updated — the lineage header records how many
///    are expected);
/// 2. obtains the delta: `--delta file.mvd` loads a saved one,
///    otherwise a structure-preserving random append of `--add-nodes`
///    nodes (default 5% of n) is synthesized (persist it with
///    `--delta-out` to keep the update replayable);
/// 3. runs `Artifact::update` (reused weights, warm-started
///    eigensolves, incremental centroid/label refresh) and publishes
///    the result (monolithic, or a layout with `--shards N`) by rename,
///    IVF sidecars rebuilt by `publish`'s rule — a server keeps serving
///    the old artifact until it reloads;
/// 4. with `--notify HOST:PORT`, POSTs `/reload` to a running
///    `sgla-serve serve` so it hot-swaps the updated artifact in.
fn update(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let artifact_path = PathBuf::from(
        flags
            .get("artifact")
            .ok_or("update needs --artifact <file>")?,
    );
    if is_layout_path(&artifact_path) {
        return update_sharded_in_place(&flags, &artifact_path);
    }
    let artifact = Artifact::load(&artifact_path).map_err(|e| e.to_string())?;
    let out = flags
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| artifact_path.clone());
    let shards: usize = flags.parse_num("shards", 1)?;
    let index = flags.parse_index()?;

    // Reconstruct the base MVAG the artifact describes: regenerate the
    // root dataset, then replay any persisted deltas.
    let mut base = generate_mvag(&flags)?;
    let mut replayed = 0u64;
    if let Some(list) = flags.get("replay") {
        for file in list.split(',').filter(|s| !s.is_empty()) {
            let delta = mvag_data::load_delta(Path::new(file)).map_err(|e| e.to_string())?;
            base = base.apply_delta(&delta).map_err(|e| e.to_string())?;
            replayed += 1;
        }
    }
    let m = &artifact.meta;
    if base.n() != m.n || base.k() != m.k || base.name != m.dataset {
        return Err(format!(
            "regenerated base is '{}' (n = {}, k = {}) but the artifact was trained on '{}' \
             (n = {}, k = {}, {} update(s) applied); pass the training flags \
             (--dataset/--n/--k/--seed) and --replay the {} saved delta(s)",
            base.name,
            base.n(),
            base.k(),
            m.dataset,
            m.n,
            m.k,
            m.update_count,
            m.update_count
        ));
    }
    // The lineage counter exists precisely to catch a wrong history:
    // an edge-only delta leaves n unchanged, so the size check above
    // cannot detect a missing --replay. Hard error, not a note — a
    // base reconstructed from the wrong history would be warm-updated
    // and served silently wrong.
    if replayed != m.update_count {
        return Err(format!(
            "replayed {replayed} delta(s) but the artifact's lineage records {} update(s); \
             pass every saved delta in order via --replay (see --delta-out)",
            m.update_count
        ));
    }

    // The delta: loaded, or synthesized (default 5% append).
    let delta = match flags.get("delta") {
        Some(file) => mvag_data::load_delta(Path::new(file)).map_err(|e| e.to_string())?,
        None => {
            let added: usize = flags.parse_num("add-nodes", (m.n / 20).max(1))?;
            let update_seed: u64 = flags.parse_num("update-seed", m.seed ^ (m.update_count + 1))?;
            random_append_delta(
                &base,
                &AppendConfig {
                    added_nodes: added,
                    seed: update_seed,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?
        }
    };
    if let Some(delta_out) = flags.get("delta-out") {
        mvag_data::save_delta(&delta, Path::new(delta_out)).map_err(|e| e.to_string())?;
        println!("wrote {delta_out} (replayable delta)");
    }
    println!(
        "updating {} (n = {} -> {}, update {} -> {})",
        m.dataset,
        m.n,
        m.n + delta.added_nodes,
        m.update_count,
        m.update_count + 1
    );

    let mut config = TrainConfig::default();
    config.sgla.seed = m.seed;
    config.embed.dim = flags.parse_num("dim", m.dim)?;
    let trace_out = trace_path(&flags);
    let update_trace = mvag_obs::next_request_id();
    let started = std::time::Instant::now();
    let views = mvag_obs::with_trace(update_trace, || {
        sgla_core::views::ViewLaplacians::build(&base, &config.knn)
    })
    .map_err(|e| e.to_string())?;
    let views_secs = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    let unconverged_before = mvag_sparse::eigen::unconverged_pairs();
    let outcome = mvag_obs::with_trace(update_trace, || {
        artifact.update(&views, &base, &delta, &config)
    })
    .map_err(|e| e.to_string())?;
    warn_unconverged(unconverged_before);
    println!(
        "updated in {:.2}s (+{:.2}s rebuilding base view Laplacians — a resident trainer \
         keeps these cached)",
        started.elapsed().as_secs_f64(),
        views_secs
    );
    if let Some(path) = &trace_out {
        write_trace(path)?;
    }
    publish_to(&out, &outcome.artifact, shards, index.as_ref())?;
    notify_reload(&flags)
}

/// `sgla-serve update --artifact <shard dir>` — in-place tail append.
///
/// A pure-append delta (from `--delta`) is routed to the layout's tail
/// shard: exactly one shard file plus the manifest are rewritten,
/// every other shard file stays byte-identical on disk. The base stays
/// frozen — appended rows get serving state estimated from their
/// resident neighbors — so this is the cheap ingest path; a later full
/// `update` on the monolithic artifact folds the rows in exactly.
fn update_sharded_in_place(flags: &Flags, path: &Path) -> Result<(), String> {
    let delta_file = flags.get("delta").ok_or(
        "updating a sharded layout in place needs --delta <file.mvd> carrying a pure append; \
         removals/edits retrain via the monolithic artifact (then re-shard with --shards N), \
         and tombstones are purged with `sgla-serve compact`",
    )?;
    let delta = mvag_data::load_delta(Path::new(delta_file)).map_err(|e| e.to_string())?;
    let stats =
        sgla_serve::append_sharded(path, &delta, &mut FsWriter).map_err(|e| e.to_string())?;
    println!(
        "appended {} node(s) in place: rewrote shard {} + manifest ({} bytes), \
         {} shard file(s) untouched",
        stats.added, stats.tail_shard, stats.bytes_written, stats.shards_kept
    );
    notify_reload(flags)
}
