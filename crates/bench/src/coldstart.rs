//! Cold-start benchmark: out-of-core (mmap) vs owned serving at scale.
//!
//! Synthesizes a sharded v5 layout of `n` rows × `dim` (default one
//! million × 64 — ~512 MB of embedding alone) *shard by shard*, so the
//! synthesis itself never holds more than one shard's buffers, then
//! measures the two costs the mmap path exists to cut:
//!
//! * **TTFQ** (time to first query): open the layout and answer one
//!   point query. The owned path must read + CRC + decode whole shard
//!   files first; the mapped path parses the v5 head, checksums only
//!   the small sections, and borrows rows from the page cache.
//! * **Resident set**: after answering point queries spread across
//!   every shard, the owned process holds every decoded shard on the
//!   heap while the mapped process holds only engine structs — its
//!   embedding pages are *clean file-backed* memory the kernel can
//!   reclaim at any moment. The gate therefore compares `RssAnon`
//!   deltas (the memory each phase actually obligates); total `VmRSS`
//!   is reported alongside but not gated, because modern kernels back
//!   the page cache with large folios and map an entire folio into the
//!   page table on a single touched byte — file-backed RSS then counts
//!   reclaimable cache, not cold-start cost. Snapshots are taken while
//!   each phase's router is still alive.
//!
//! Both phases answer the *same* queries and every answer is compared
//! bit-for-bit (cluster ids, centroid distances, embedding rows, and a
//! final exact top-k pass against the owned oracle) — the benchmark
//! fails on any divergence, so the speed/memory numbers are only ever
//! reported for provably identical answers.
//!
//! Gates (CI runs `--cold-start --smoke 1`): mapped TTFQ must beat
//! owned TTFQ, and the mapped `RssAnon` delta must be at most half the
//! owned delta. Results merge into `BENCH_coldstart.json` under
//! `cold_start` (full) or `cold_start_smoke`.

use mvag_data::json::Value;
use mvag_data::{FsWriter, ShardManifest};
use mvag_sparse::{CsrMatrix, DenseMatrix};
use sgla_serve::artifact::FORMAT_VERSION;
use sgla_serve::publish::{balanced_ranges, commit_layout, Shard};
use sgla_serve::store::MmapMode;
use sgla_serve::{
    Artifact, ArtifactMeta, ClusterInfo, EngineConfig, Neighbor, QueryBackend, RouterConfig,
    ServeError, ShardRouter,
};
use std::path::Path;
use std::time::Instant;

/// Configuration of one cold-start run.
#[derive(Debug, Clone)]
pub struct ColdStartConfig {
    /// Total rows across the layout.
    pub n: usize,
    /// Clusters.
    pub k: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Shard count.
    pub shards: usize,
    /// Point queries (spread across shards) per phase.
    pub queries: usize,
    /// Neighbors per exact top-k verification query.
    pub topk: usize,
    /// Synthesis seed.
    pub seed: u64,
    /// Whether the TTFQ / RSS gates fail the run (unit tests at toy
    /// scale disable them: a 100 KB heap delta is allocator noise).
    pub enforce_gates: bool,
    /// Report under `cold_start_smoke` instead of `cold_start`.
    pub smoke: bool,
}

impl Default for ColdStartConfig {
    fn default() -> Self {
        ColdStartConfig {
            n: 1_000_000,
            k: 16,
            dim: 64,
            shards: 16,
            queries: 64,
            topk: 10,
            seed: 42,
            enforce_gates: true,
            smoke: false,
        }
    }
}

/// Outcome of a cold-start run (also serialized in [`Self::json`]).
#[derive(Debug, Clone)]
pub struct ColdStartReport {
    /// Wall-clock seconds synthesizing and writing the layout.
    pub synth_secs: f64,
    /// Open-to-first-answer latency, memory-mapped.
    pub mapped_ttfq_us: f64,
    /// Open-to-first-answer latency, owned.
    pub owned_ttfq_us: f64,
    /// `VmRSS` growth during the mapped phase, bytes (reported only —
    /// includes reclaimable file-backed pages).
    pub mapped_rss_delta: u64,
    /// `VmRSS` growth during the owned phase, bytes.
    pub owned_rss_delta: u64,
    /// `RssAnon` growth during the mapped phase, bytes (gated).
    pub mapped_anon_delta: u64,
    /// `RssAnon` growth during the owned phase, bytes (gated).
    pub owned_anon_delta: u64,
    /// Bytes of artifact files mapped at the end of the mapped phase.
    pub store_mapped_bytes: u64,
    /// Heap bytes pinned by the owned stores.
    pub store_owned_bytes: u64,
    /// Point + top-k answers compared bit-for-bit across phases.
    pub verified_queries: usize,
    /// The report fragment merged into the output file.
    pub json: Value,
}

/// One `kB`-valued field of `/proc/self/status` in bytes. 0 where the
/// file (or the field) is unavailable.
fn status_bytes(status: &str, field: &str) -> u64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// `(VmRSS, RssAnon)` of this process in bytes.
///
/// Snapshots are taken while the phase's router is still alive — unlike
/// `VmHWM` they exclude transient decode buffers the allocator has
/// already recycled, so the two phases compare what they actually
/// *hold*. `RssAnon` is the gated number: it counts heap the process
/// obligates (the owned phase's decoded shards) but not clean
/// file-backed pages (the mapped phase's embedding sections), which
/// the kernel reclaims for free under pressure. Total `VmRSS` would
/// overstate the mapped phase wildly on modern kernels: the page cache
/// holds freshly written files in large folios, and a single touched
/// byte maps the whole folio — near the entire file — into RSS.
fn rss_snapshot() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (
        status_bytes(&status, "VmRSS"),
        status_bytes(&status, "RssAnon"),
    )
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic value in [-1, 1) for one embedding cell, so re-runs
/// and both phases agree on the synthetic data without holding it.
fn cell(seed: u64, flat_index: u64) -> f64 {
    let bits = splitmix64(seed ^ flat_index);
    (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Writes the synthetic sharded v5 layout into `dir`, one shard at a
/// time (peak memory is one shard's buffers, not the whole dataset).
fn synthesize_layout(config: &ColdStartConfig, dir: &Path) -> Result<ShardManifest, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let (n, k, dim) = (config.n, config.k, config.dim);
    let centroid_data: Vec<f64> = (0..k * dim)
        .map(|i| cell(config.seed.wrapping_add(1), i as u64))
        .collect();
    let shard = |(row_start, row_end): (usize, usize)| -> sgla_serve::Result<Shard> {
        let rows = row_end - row_start;
        let invalid =
            |e: String| ServeError::InvalidArgument(format!("shard at row {row_start}: {e}"));
        let emb: Vec<f64> = (row_start * dim..row_end * dim)
            .map(|g| cell(config.seed, g as u64))
            .collect();
        // The graph itself is irrelevant to the serving measurements:
        // a diagonal Laplacian keeps every shard structurally valid at
        // negligible size, so the files are embedding + norms + labels
        // + centroids — the sections the query paths actually touch.
        let indptr: Vec<usize> = (0..=rows).collect();
        let cols: Vec<usize> = (row_start..row_end).collect();
        let vals = vec![1.0f64; rows];
        Ok(Shard::Write(Box::new(Artifact {
            meta: ArtifactMeta {
                dataset: "coldstart-synth".to_string(),
                n,
                k,
                dim,
                seed: config.seed,
                row_start,
                row_end,
                parent_seed: config.seed,
                update_count: 0,
                compaction_count: 0,
            },
            weights: vec![1.0],
            laplacian: CsrMatrix::from_raw_parts(rows, n, indptr, cols, vals)
                .map_err(|e| invalid(format!("laplacian: {e}")))?,
            labels: (row_start..row_end).map(|r| r % k).collect(),
            centroids: DenseMatrix::from_vec(k, dim, centroid_data.clone())
                .map_err(|e| invalid(format!("centroids: {e}")))?,
            embedding: DenseMatrix::from_vec(rows, dim, emb)
                .map_err(|e| invalid(format!("embedding: {e}")))?,
            tombstones: Vec::new(),
        })))
    };
    let header = ShardManifest {
        dataset: "coldstart-synth".to_string(),
        n,
        k,
        dim,
        seed: config.seed,
        artifact_format_version: FORMAT_VERSION,
        ..ShardManifest::default()
    };
    let shards = balanced_ranges(n, config.shards).into_iter().map(shard);
    commit_layout(dir, None, header, shards, None, &mut FsWriter)
        .map(|(manifest, _)| manifest)
        .map_err(|e| format!("writing the layout: {e}"))
}

fn open_router(dir: &Path, mmap: MmapMode) -> Result<ShardRouter, String> {
    ShardRouter::open(
        dir,
        RouterConfig {
            engine: EngineConfig::default(),
            cache_capacity: 0,
            max_resident: 0,
            mmap,
        },
    )
    .map_err(|e| format!("opening layout ({mmap:?}): {e}"))
}

/// One phase's point answers, kept as raw bits for exact comparison.
struct PointAnswers {
    clusters: Vec<ClusterInfo>,
    rows: Vec<Vec<u64>>,
}

fn point_phase(router: &ShardRouter, nodes: &[usize]) -> Result<PointAnswers, String> {
    let mut clusters = Vec::with_capacity(nodes.len());
    let mut rows = Vec::with_capacity(nodes.len());
    for &node in nodes {
        clusters.push(
            QueryBackend::cluster_of(router, node)
                .map_err(|e| format!("cluster_of({node}): {e}"))?,
        );
        let embedded = router
            .embed_batch(&[node])
            .map_err(|e| format!("embed({node}): {e}"))?;
        rows.push(embedded[0].iter().map(|v| v.to_bits()).collect());
    }
    Ok(PointAnswers { clusters, rows })
}

fn compare_points(mapped: &PointAnswers, owned: &PointAnswers) -> Result<(), String> {
    for (i, (m, o)) in mapped.clusters.iter().zip(&owned.clusters).enumerate() {
        if m.node != o.node
            || m.cluster != o.cluster
            || m.centroid_dist.to_bits() != o.centroid_dist.to_bits()
        {
            return Err(format!(
                "cluster answer {i} diverged: mapped {m:?} vs owned {o:?}"
            ));
        }
    }
    for (i, (m, o)) in mapped.rows.iter().zip(&owned.rows).enumerate() {
        if m != o {
            return Err(format!("embedding row {i} diverged between phases"));
        }
    }
    Ok(())
}

fn compare_topk(node: usize, mapped: &[Neighbor], owned: &[Neighbor]) -> Result<(), String> {
    if mapped.len() != owned.len() {
        return Err(format!(
            "top-k({node}): {} mapped neighbors vs {} owned",
            mapped.len(),
            owned.len()
        ));
    }
    for (m, o) in mapped.iter().zip(owned) {
        if m.node != o.node || m.score.to_bits() != o.score.to_bits() {
            return Err(format!(
                "top-k({node}) diverged: mapped ({}, {:x}) vs owned ({}, {:x})",
                m.node,
                m.score.to_bits(),
                o.node,
                o.score.to_bits()
            ));
        }
    }
    Ok(())
}

/// Runs the cold-start benchmark. See the module docs for phases and
/// gates.
///
/// # Errors
/// Synthesis/serving failures, any bit divergence between the mapped
/// and owned answers, and (with `enforce_gates`) a mapped TTFQ that
/// does not beat owned or a mapped `RssAnon` delta above half the
/// owned one.
pub fn run(config: &ColdStartConfig) -> Result<ColdStartReport, String> {
    if !sgla_serve::store::MMAP_SUPPORTED {
        return Err(
            "the cold-start benchmark compares mmap-backed serving, which needs Linux on a \
             little-endian target"
                .to_string(),
        );
    }
    let dir = std::env::temp_dir().join(format!("sgla-coldstart-{}", std::process::id()));
    let result = run_in(config, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in(config: &ColdStartConfig, dir: &Path) -> Result<ColdStartReport, String> {
    let synth_start = Instant::now();
    let manifest = synthesize_layout(config, dir)?;
    let synth_secs = synth_start.elapsed().as_secs_f64();
    let layout_bytes: u64 = manifest.shards.iter().map(|s| s.bytes).sum();

    let queries = config.queries.max(config.shards).min(config.n);
    let nodes: Vec<usize> = (0..queries).map(|i| i * config.n / queries).collect();
    let topk_nodes: Vec<usize> = nodes.iter().copied().take(8).collect();

    // Mapped phase first: the owned decode leaves recycled allocator
    // pages behind, so running low-memory-first keeps its snapshot
    // clean of the other phase's footprint.
    let (rss_baseline, anon_baseline) = rss_snapshot();
    let mapped_open = Instant::now();
    let mapped_router = open_router(dir, MmapMode::On)?;
    QueryBackend::cluster_of(&mapped_router, nodes[0]).map_err(|e| format!("mapped TTFQ: {e}"))?;
    let mapped_ttfq_us = mapped_open.elapsed().as_secs_f64() * 1e6;
    let mapped_points = point_phase(&mapped_router, &nodes)?;
    let mapped_memory = mapped_router.store_memory();
    let (rss_mapped, anon_mapped) = rss_snapshot();
    if mapped_memory.stores.iter().any(|s| s != "mapped") {
        return Err(format!(
            "mapped phase did not map every shard: {:?}",
            mapped_memory.stores
        ));
    }
    drop(mapped_router);

    // Owned phase: same layout, same queries, full decode.
    let owned_open = Instant::now();
    let owned_router = open_router(dir, MmapMode::Off)?;
    QueryBackend::cluster_of(&owned_router, nodes[0]).map_err(|e| format!("owned TTFQ: {e}"))?;
    let owned_ttfq_us = owned_open.elapsed().as_secs_f64() * 1e6;
    let owned_points = point_phase(&owned_router, &nodes)?;
    let owned_memory = owned_router.store_memory();
    let (rss_owned, anon_owned) = rss_snapshot();
    compare_points(&mapped_points, &owned_points)?;

    // Exact top-k oracle (scans every row, so it runs only after both
    // RSS snapshots) against a reopened mapped router.
    let topk_queries: Vec<(usize, usize)> = topk_nodes.iter().map(|&n| (n, config.topk)).collect();
    let oracle = owned_router.top_k_batch(&topk_queries);
    drop(owned_router);
    let mapped_router = open_router(dir, MmapMode::On)?;
    let mapped_topk = mapped_router.top_k_batch(&topk_queries);
    for ((node, _), (m, o)) in topk_queries.iter().zip(mapped_topk.iter().zip(&oracle)) {
        let m = m
            .as_ref()
            .map_err(|e| format!("mapped top-k({node}): {e}"))?;
        let o = o
            .as_ref()
            .map_err(|e| format!("owned top-k({node}): {e}"))?;
        compare_topk(*node, m, o)?;
    }
    drop(mapped_router);

    let mapped_rss_delta = rss_mapped.saturating_sub(rss_baseline);
    let owned_rss_delta = rss_owned.saturating_sub(rss_baseline);
    let mapped_anon_delta = anon_mapped.saturating_sub(anon_baseline);
    let owned_anon_delta = anon_owned.saturating_sub(anon_baseline);
    let ttfq_pass = mapped_ttfq_us < owned_ttfq_us;
    let rss_pass = owned_anon_delta > 0 && mapped_anon_delta * 2 <= owned_anon_delta;
    let verified_queries = nodes.len() + topk_queries.len();

    let json = Value::object(vec![
        (
            "config",
            Value::object(vec![
                ("n", Value::from(config.n)),
                ("k", Value::from(config.k)),
                ("dim", Value::from(config.dim)),
                ("shards", Value::from(config.shards)),
                ("queries", Value::from(queries)),
                ("topk", Value::from(config.topk)),
                ("seed", Value::from(config.seed)),
            ]),
        ),
        ("layout_bytes", Value::from(layout_bytes)),
        ("synth_secs", Value::from(synth_secs)),
        (
            "mapped",
            Value::object(vec![
                ("ttfq_us", Value::from(mapped_ttfq_us)),
                ("rss_delta_bytes", Value::from(mapped_rss_delta)),
                ("anon_delta_bytes", Value::from(mapped_anon_delta)),
                (
                    "store_mapped_bytes",
                    Value::from(mapped_memory.mapped_bytes),
                ),
            ]),
        ),
        (
            "owned",
            Value::object(vec![
                ("ttfq_us", Value::from(owned_ttfq_us)),
                ("rss_delta_bytes", Value::from(owned_rss_delta)),
                ("anon_delta_bytes", Value::from(owned_anon_delta)),
                ("store_owned_bytes", Value::from(owned_memory.owned_bytes)),
            ]),
        ),
        (
            "verify",
            Value::object(vec![
                ("point_queries", Value::from(nodes.len())),
                ("topk_queries", Value::from(topk_queries.len())),
                ("bit_identical", Value::Bool(true)),
            ]),
        ),
        (
            "gates",
            Value::object(vec![
                ("enforced", Value::Bool(config.enforce_gates)),
                ("ttfq_pass", Value::Bool(ttfq_pass)),
                ("rss_pass", Value::Bool(rss_pass)),
            ]),
        ),
    ]);

    let report = ColdStartReport {
        synth_secs,
        mapped_ttfq_us,
        owned_ttfq_us,
        mapped_rss_delta,
        owned_rss_delta,
        mapped_anon_delta,
        owned_anon_delta,
        store_mapped_bytes: mapped_memory.mapped_bytes,
        store_owned_bytes: owned_memory.owned_bytes,
        verified_queries,
        json,
    };
    if config.enforce_gates {
        if !ttfq_pass {
            return Err(format!(
                "TTFQ gate failed: mapped {mapped_ttfq_us:.0} us is not below owned \
                 {owned_ttfq_us:.0} us"
            ));
        }
        if !rss_pass {
            return Err(format!(
                "RSS gate failed: mapped RssAnon delta {mapped_anon_delta} bytes exceeds half \
                 the owned delta {owned_anon_delta} bytes"
            ));
        }
    }
    Ok(report)
}

/// Runs the benchmark and merges the fragment into `out` under
/// `cold_start` (or `cold_start_smoke`), preserving whatever else the
/// file holds so full and smoke runs land in one
/// `BENCH_coldstart.json`.
///
/// # Errors
/// See [`run`]; additionally I/O failures writing `out`.
pub fn run_to_file(config: &ColdStartConfig, out: &Path) -> Result<ColdStartReport, String> {
    let report = run(config)?;
    let key = if config.smoke {
        "cold_start_smoke"
    } else {
        "cold_start"
    };
    let mut doc = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| mvag_data::json::parse(&text).ok())
        .unwrap_or_else(|| Value::object(vec![]));
    if !matches!(doc, Value::Object(_)) {
        doc = Value::object(vec![]);
    }
    if let Value::Object(map) = &mut doc {
        map.insert(key.to_string(), report.json.clone());
    }
    std::fs::write(out, doc.to_string_pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_run_is_bit_identical_and_reports() {
        if !sgla_serve::store::MMAP_SUPPORTED {
            return;
        }
        let config = ColdStartConfig {
            n: 600,
            k: 4,
            dim: 8,
            shards: 3,
            queries: 12,
            topk: 5,
            // Allocator noise at toy scale makes the RSS gate
            // meaningless; bit-identity is still fully enforced.
            enforce_gates: false,
            ..Default::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.verified_queries, 12 + 8);
        assert!(report.store_mapped_bytes > 0);
        assert!(report.store_owned_bytes > 0);
        assert!(report.json.get("gates").is_some());
    }

    #[test]
    fn report_merges_into_existing_document() {
        let out =
            std::env::temp_dir().join(format!("sgla-coldstart-merge-{}.json", std::process::id()));
        std::fs::write(&out, "{\"cold_start\": {\"keep\": 1}}").unwrap();
        let mut doc = mvag_data::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        if let Value::Object(map) = &mut doc {
            map.insert("cold_start_smoke".to_string(), Value::object(vec![]));
        }
        std::fs::write(&out, doc.to_string_pretty()).unwrap();
        let merged = mvag_data::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(merged.get("cold_start").unwrap().get("keep").is_some());
        assert!(merged.get("cold_start_smoke").is_some());
        std::fs::remove_dir_all(&out).ok();
        std::fs::remove_file(&out).ok();
    }
}
