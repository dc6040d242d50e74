//! Benchmark + verification gate for the incremental artifact-update
//! path.
//!
//! Trains a base artifact, synthesizes a structure-preserving append
//! delta (5% of the nodes by default), and measures two ways of
//! reaching the updated artifact:
//!
//! * **full retrain** — `Artifact::train` on the updated MVAG: view
//!   Laplacians from scratch, `r + 1` SGLA+ objective eigensolves, a
//!   cold-started clustering eigensolve, a cold-started embedding;
//! * **warm update** — `Artifact::update` with the base run's cached
//!   view Laplacians: only changed views refreshed, weights reused
//!   (no SGLA+ optimization at all), clustering and embedding
//!   eigensolves warm-started from the previous artifact.
//!
//! The update is *verified* against the retrain before any number is
//! reported: cluster labels must agree after Hungarian alignment
//! (≥ [`MIN_LABEL_AGREEMENT`]), the embedding must span the same
//! subspace (projection residual ≤ [`MAX_SUBSPACE_RESIDUAL`]), and
//! the updated artifact must round-trip the artifact codec with its
//! lineage counter bumped. A run whose warm update is not faster than the
//! retrain fails (`--smoke`); the full run additionally enforces the
//! committed ≤ [`MAX_WARM_RATIO`] speedup target. Results land in
//! `BENCH_update.json`.

use mvag_data::json::Value;
use mvag_data::FsWriter;
use mvag_eval::hungarian::hungarian_min;
use mvag_graph::generators::{
    balanced_labels, gaussian_attributes, random_append_delta, sbm, AppendConfig,
    GaussianAttrConfig, SbmConfig,
};
use mvag_graph::{DeltaEdit, Mvag, MvagDelta, View, ViewDelta};
use mvag_sparse::DenseMatrix;
use sgla_core::embedding::EmbedBackend;
use sgla_serve::{
    compact_sharded, Artifact, EngineConfig, QueryBackend, QueryEngine, RouterConfig, ShardRouter,
    TrainConfig,
};
use std::time::Instant;

/// Full runs fail when the warm update costs more than this fraction
/// of the full retrain (the committed speedup target).
pub const MAX_WARM_RATIO: f64 = 0.5;
/// Smoke runs (CI) only require the update to actually be faster —
/// small smoke sizes leave less room for the skipped eigensolves to
/// dominate, and CI boxes are noisy.
pub const MAX_WARM_RATIO_SMOKE: f64 = 1.0;
/// Minimum Hungarian-aligned label agreement between the updated and
/// retrained artifacts.
pub const MIN_LABEL_AGREEMENT: f64 = 0.99;
/// Maximum relative Frobenius residual of projecting the updated
/// embedding onto the retrained embedding's column span.
pub const MAX_SUBSPACE_RESIDUAL: f64 = 0.35;
/// Maximum bytes a sharded compaction may write per dirty byte it
/// rewrites (the committed write-amplification bound: dirty shards are
/// rewritten once, plus the manifest and id-map sidecar).
pub const MAX_COMPACT_WRITE_AMP: f64 = 2.0;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct UpdateBenchConfig {
    /// Nodes in the base MVAG.
    pub n: usize,
    /// Planted clusters.
    pub k: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Appended nodes as a fraction of `n` (default 0.05).
    pub add_frac: f64,
    /// RNG seed (base graph, delta, training).
    pub seed: u64,
    /// Smoke mode: smaller thresholds suitable for CI gating.
    pub smoke: bool,
}

impl Default for UpdateBenchConfig {
    fn default() -> Self {
        UpdateBenchConfig {
            n: 1200,
            k: 3,
            dim: 32,
            add_frac: 0.05,
            seed: 42,
            smoke: false,
        }
    }
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct UpdateBenchReport {
    /// Seconds for the from-scratch retrain of the updated graph.
    pub retrain_secs: f64,
    /// Seconds for the warm-started incremental update.
    pub update_secs: f64,
    /// `update_secs / retrain_secs` — the headline number.
    pub warm_ratio: f64,
    /// Hungarian-aligned label agreement between update and retrain.
    pub label_agreement: f64,
    /// Embedding subspace projection residual (update vs retrain).
    pub subspace_residual: f64,
    /// Nodes appended by the delta.
    pub added_nodes: usize,
    /// The full JSON document written to the report file.
    pub json: Value,
}

/// A cleanly separated benchmark MVAG: two fully informative SBM views
/// plus one well-separated Gaussian attribute view. The verification
/// requires label identity up to borderline nodes, so the fixture must
/// not plant any.
fn bench_mvag(n: usize, k: usize, seed: u64) -> Mvag {
    let labels = balanced_labels(n, k).expect("bench sizes are valid");
    let g1 = sbm(
        &labels,
        &SbmConfig {
            p_in: (28.0 / n as f64).min(0.45),
            p_out: 2.0 / n as f64,
            ..Default::default()
        },
        seed,
    )
    .expect("bench SBM parameters are valid");
    let g2 = sbm(
        &labels,
        &SbmConfig {
            p_in: (22.0 / n as f64).min(0.4),
            p_out: 2.5 / n as f64,
            ..Default::default()
        },
        seed.wrapping_add(1),
    )
    .expect("bench SBM parameters are valid");
    let x = gaussian_attributes(
        &labels,
        &GaussianAttrConfig {
            dim: 16,
            separation: 3.0,
            noise: 0.8,
            informative_fraction: 1.0,
        },
        seed.wrapping_add(2),
    )
    .expect("bench attribute parameters are valid");
    Mvag::new(
        format!("update-bench-n{n}-k{k}"),
        vec![View::Graph(g1), View::Graph(g2), View::Attributes(x)],
        Some(labels),
        k,
    )
    .expect("bench MVAG is valid")
}

/// Hungarian-aligned label agreement: the fraction of nodes whose
/// labels match under the cluster-relabeling permutation that
/// maximizes matches.
fn aligned_agreement(a: &[usize], b: &[usize], k: usize) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut counts = DenseMatrix::zeros(k, k);
    for (&x, &y) in a.iter().zip(b) {
        counts[(x, y)] += 1.0;
    }
    // Maximize matches = minimize negated counts.
    let mut cost = DenseMatrix::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            cost[(i, j)] = -counts[(i, j)];
        }
    }
    let (_, total) = hungarian_min(&cost).expect("square finite cost");
    -total / a.len() as f64
}

/// Subspace-agreement metric shared with the serve property tests
/// (one implementation, in `mvag_sparse::qr`).
fn subspace_residual(e: &DenseMatrix, reference: &DenseMatrix) -> f64 {
    mvag_sparse::qr::subspace_residual(e, reference).expect("shape-compatible embeddings")
}

/// Runs the benchmark: train base → delta → (timed) full retrain vs
/// (timed) warm update → verify → report.
///
/// # Errors
/// Pipeline failures, or any verification/speedup gate failing,
/// rendered as strings for the CLI.
pub fn run(config: &UpdateBenchConfig) -> Result<UpdateBenchReport, String> {
    let mvag = bench_mvag(config.n, config.k, config.seed);
    let mut train_config = TrainConfig::default();
    train_config.sgla.seed = config.seed;
    train_config.embed.dim = config.dim;
    // The spectral backend is the scalable path (NetMF's similarity
    // powers cost O(T·nnz·n)) and the one whose eigensolvers accept
    // warm starts; both sides of the comparison use it.
    train_config.embed.backend = EmbedBackend::Spectral;

    let started = Instant::now();
    let (artifact, views) =
        Artifact::train_with_views(&mvag, &train_config).map_err(|e| e.to_string())?;
    let base_train_secs = started.elapsed().as_secs_f64();

    let added = ((config.n as f64 * config.add_frac).round() as usize).max(1);
    let delta = random_append_delta(
        &mvag,
        &AppendConfig {
            added_nodes: added,
            edges_per_node: 10,
            within_cluster: 0.95,
            seed: config.seed.wrapping_add(7),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let updated_mvag = mvag.apply_delta(&delta).map_err(|e| e.to_string())?;

    // Both sides are deterministic pure functions, so smoke mode (the
    // CI gate, run at small sizes on noisy shared runners) times each
    // twice and takes the per-side minimum — a single scheduling stall
    // must not flip a wall-clock comparison gate.
    let timing_runs = if config.smoke { 2 } else { 1 };

    // Timed: from-scratch retrain of the updated graph.
    let mut retrain_secs = f64::INFINITY;
    let mut retrained = None;
    for _ in 0..timing_runs {
        let started = Instant::now();
        let run = Artifact::train(&updated_mvag, &train_config).map_err(|e| e.to_string())?;
        retrain_secs = retrain_secs.min(started.elapsed().as_secs_f64());
        retrained = Some(run);
    }
    let retrained = retrained.expect("at least one retrain run");

    // Timed: warm-started incremental update (cached base views, the
    // state any resident trainer holds).
    let mut update_secs = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..timing_runs {
        let started = Instant::now();
        let run = artifact
            .update(&views, &mvag, &delta, &train_config)
            .map_err(|e| e.to_string())?;
        update_secs = update_secs.min(started.elapsed().as_secs_f64());
        outcome = Some(run);
    }
    let updated = outcome.expect("at least one update run").artifact;

    // Verification before any number is trusted.
    if updated.meta.n != config.n + added || updated.meta.update_count != 1 {
        return Err(format!(
            "updated artifact has n = {}, update_count = {} (expected {} / 1)",
            updated.meta.n,
            updated.meta.update_count,
            config.n + added
        ));
    }
    let roundtrip = Artifact::decode(updated.encode().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    if roundtrip != updated {
        return Err("updated artifact did not round-trip the artifact codec bit-exactly".into());
    }
    let label_agreement = aligned_agreement(&updated.labels, &retrained.labels, config.k);
    if label_agreement < MIN_LABEL_AGREEMENT {
        return Err(format!(
            "update/retrain label agreement {label_agreement:.4} below {MIN_LABEL_AGREEMENT} \
             after Hungarian alignment"
        ));
    }
    let residual = subspace_residual(&updated.embedding, &retrained.embedding);
    if residual > MAX_SUBSPACE_RESIDUAL {
        return Err(format!(
            "update/retrain embedding subspace residual {residual:.4} above \
             {MAX_SUBSPACE_RESIDUAL}"
        ));
    }

    let warm_ratio = update_secs / retrain_secs.max(1e-12);
    let max_ratio = if config.smoke {
        MAX_WARM_RATIO_SMOKE
    } else {
        MAX_WARM_RATIO
    };
    if warm_ratio >= max_ratio {
        return Err(format!(
            "warm update took {update_secs:.3}s vs {retrain_secs:.3}s retrain \
             (ratio {warm_ratio:.2} >= {max_ratio})"
        ));
    }

    let json = Value::object(vec![
        ("config", {
            Value::object(vec![
                ("n", Value::from(config.n)),
                ("k", Value::from(config.k)),
                ("dim", Value::from(config.dim)),
                ("add_frac", Value::from(config.add_frac)),
                ("added_nodes", Value::from(added)),
                ("seed", Value::from(config.seed)),
                ("smoke", Value::Bool(config.smoke)),
            ])
        }),
        ("results", {
            Value::object(vec![
                ("base_train_secs", Value::from(base_train_secs)),
                ("retrain_secs", Value::from(retrain_secs)),
                ("update_secs", Value::from(update_secs)),
                ("warm_ratio", Value::from(warm_ratio)),
                ("label_agreement", Value::from(label_agreement)),
                ("subspace_residual", Value::from(residual)),
                ("update_count", Value::from(updated.meta.update_count)),
            ])
        }),
    ]);
    Ok(UpdateBenchReport {
        retrain_secs,
        update_secs,
        warm_ratio,
        label_agreement,
        subspace_residual: residual,
        added_nodes: added,
        json,
    })
}

/// Runs the benchmark and writes the JSON report to `out`.
///
/// # Errors
/// See [`run`]; additionally I/O failures writing the report.
pub fn run_to_file(
    config: &UpdateBenchConfig,
    out: &std::path::Path,
) -> Result<UpdateBenchReport, String> {
    let report = run(config)?;
    std::fs::write(out, report.json.to_string_pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(report)
}

/// Outcome of one CRUD smoke run (`--crud-smoke`).
#[derive(Debug, Clone)]
pub struct CrudSmokeReport {
    /// Seconds for the from-scratch retrain of the mutated graph.
    pub retrain_secs: f64,
    /// Seconds for the warm-started CRUD update.
    pub update_secs: f64,
    /// `update_secs / retrain_secs`.
    pub warm_ratio: f64,
    /// Hungarian-aligned label agreement over *live* (untombstoned)
    /// nodes between the compacted update and the retrain.
    pub live_label_agreement: f64,
    /// Embedding subspace residual over live rows (update vs retrain).
    pub live_subspace_residual: f64,
    /// Nodes the delta tombstoned.
    pub removed_nodes: usize,
    /// Bytes a sharded compaction wrote per dirty byte rewritten.
    pub write_amp: f64,
    /// The JSON fragment merged into the report file.
    pub json: Value,
}

/// One empty [`ViewDelta`] per view (the shape of a delete/edit-only
/// delta).
fn empty_views(mvag: &Mvag) -> Vec<ViewDelta> {
    mvag.views()
        .iter()
        .map(|v| match v {
            View::Graph(_) => ViewDelta::Edges(vec![]),
            View::Attributes(x) => ViewDelta::Rows(DenseMatrix::zeros(0, x.ncols())),
        })
        .collect()
}

/// The CRUD gate: a delete + edit delta applied via the warm
/// [`Artifact::update`] path, verified live-row-for-live-row against a
/// from-scratch retrain of the mutated graph, then pushed through a
/// sharded compaction whose write amplification must stay within
/// [`MAX_COMPACT_WRITE_AMP`] of the dirty bytes and whose answers must
/// match the monolithic compacted artifact to the bit.
///
/// # Errors
/// Pipeline failures, or any verification/speedup/write-amp gate
/// failing, rendered as strings for the CLI.
pub fn run_crud_smoke(config: &UpdateBenchConfig) -> Result<CrudSmokeReport, String> {
    let mvag = bench_mvag(config.n, config.k, config.seed);
    let mut train_config = TrainConfig::default();
    train_config.sgla.seed = config.seed;
    train_config.embed.dim = config.dim;
    train_config.embed.backend = EmbedBackend::Spectral;
    let (artifact, views) =
        Artifact::train_with_views(&mvag, &train_config).map_err(|e| e.to_string())?;

    // ~3% deletions spread across the row (and shard) range, plus a
    // few in-place edits of live nodes.
    let removed: Vec<usize> = (0..(config.n / 32).max(2))
        .map(|i| i * 32 + 1)
        .take_while(|&r| r < config.n)
        .collect();
    let live = |node: usize| !removed.contains(&node);
    let mut live_iter = (0..config.n).filter(|&x| live(x));
    let mut next_live = || live_iter.next().expect("more live nodes than edits");
    let (a, b, c) = (next_live(), next_live(), next_live());
    let attr_view = mvag
        .views()
        .iter()
        .position(|v| matches!(v, View::Attributes(_)))
        .expect("bench MVAG has an attribute view");
    let attr_width = match &mvag.views()[attr_view] {
        View::Attributes(x) => x.ncols(),
        View::Graph(_) => unreachable!(),
    };
    let delta = MvagDelta {
        added_nodes: 0,
        views: empty_views(&mvag),
        added_labels: Some(vec![]),
        removed_nodes: removed.clone(),
        edits: vec![
            DeltaEdit::EdgeWeight {
                view: 0,
                u: a,
                v: b,
                w: 2.0,
            },
            DeltaEdit::AttrRow {
                view: attr_view,
                node: c,
                row: vec![0.25; attr_width],
            },
        ],
    };
    let updated_mvag = mvag.apply_delta(&delta).map_err(|e| e.to_string())?;

    let timing_runs = if config.smoke { 2 } else { 1 };
    let mut retrain_secs = f64::INFINITY;
    let mut retrained = None;
    for _ in 0..timing_runs {
        let started = Instant::now();
        let run = Artifact::train(&updated_mvag, &train_config).map_err(|e| e.to_string())?;
        retrain_secs = retrain_secs.min(started.elapsed().as_secs_f64());
        retrained = Some(run);
    }
    let retrained = retrained.expect("at least one retrain run");

    let mut update_secs = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..timing_runs {
        let started = Instant::now();
        let run = artifact
            .update(&views, &mvag, &delta, &train_config)
            .map_err(|e| e.to_string())?;
        update_secs = update_secs.min(started.elapsed().as_secs_f64());
        outcome = Some(run);
    }
    let updated = outcome.expect("at least one update run").artifact;

    // Verification: the update tombstoned (not dropped) the removals,
    // round-trips the codec, and — compacted — matches the retrain on
    // every live row.
    if updated.meta.n != config.n || updated.tombstone_count() != removed.len() {
        return Err(format!(
            "CRUD update has n = {}, tombstones = {} (expected {} / {})",
            updated.meta.n,
            updated.tombstone_count(),
            config.n,
            removed.len()
        ));
    }
    let roundtrip = Artifact::decode(updated.encode().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    if roundtrip != updated {
        return Err("CRUD-updated artifact did not round-trip the codec bit-exactly".into());
    }
    let (compacted, id_map) = updated.compact().map_err(|e| e.to_string())?;
    let live_old: Vec<usize> = (0..config.n).filter(|&o| id_map.map(o).is_some()).collect();
    if compacted.meta.n != live_old.len() {
        return Err(format!(
            "compaction kept {} rows, expected {}",
            compacted.meta.n,
            live_old.len()
        ));
    }
    let retrained_live_labels: Vec<usize> = live_old.iter().map(|&o| retrained.labels[o]).collect();
    let live_label_agreement =
        aligned_agreement(&compacted.labels, &retrained_live_labels, config.k);
    if live_label_agreement < MIN_LABEL_AGREEMENT {
        return Err(format!(
            "CRUD update/retrain live-label agreement {live_label_agreement:.4} below \
             {MIN_LABEL_AGREEMENT}"
        ));
    }
    let retrained_live_embedding = {
        let mut data = Vec::with_capacity(live_old.len() * config.dim);
        for &o in &live_old {
            data.extend_from_slice(retrained.embedding.row(o));
        }
        DenseMatrix::from_vec(live_old.len(), config.dim, data)
            .expect("live rows stack into a matrix")
    };
    let live_subspace_residual = subspace_residual(&compacted.embedding, &retrained_live_embedding);
    if live_subspace_residual > MAX_SUBSPACE_RESIDUAL {
        return Err(format!(
            "CRUD update/retrain live subspace residual {live_subspace_residual:.4} above \
             {MAX_SUBSPACE_RESIDUAL}"
        ));
    }
    let warm_ratio = update_secs / retrain_secs.max(1e-12);
    let max_ratio = if config.smoke {
        MAX_WARM_RATIO_SMOKE
    } else {
        MAX_WARM_RATIO
    };
    if warm_ratio >= max_ratio {
        return Err(format!(
            "CRUD update took {update_secs:.3}s vs {retrain_secs:.3}s retrain \
             (ratio {warm_ratio:.2} >= {max_ratio})"
        ));
    }

    // Sharded compaction leg: write amplification bounded by the dirty
    // bytes, answers bit-identical to the monolithic compaction.
    let dir = std::env::temp_dir().join(format!("sgla-crud-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let result = (|| {
        updated.save_sharded(&dir, 4).map_err(|e| e.to_string())?;
        let stats = compact_sharded(&dir, &mut FsWriter).map_err(|e| e.to_string())?;
        if stats.purged != removed.len() {
            return Err(format!(
                "sharded compaction purged {} rows, expected {}",
                stats.purged,
                removed.len()
            ));
        }
        let write_amp = stats.bytes_written as f64 / (stats.dirty_bytes_before as f64).max(1.0);
        if write_amp > MAX_COMPACT_WRITE_AMP {
            return Err(format!(
                "sharded compaction wrote {} bytes for {} dirty bytes \
                 (amplification {write_amp:.2} > {MAX_COMPACT_WRITE_AMP})",
                stats.bytes_written, stats.dirty_bytes_before
            ));
        }
        let router = ShardRouter::open(&dir, RouterConfig::default()).map_err(|e| e.to_string())?;
        let engine = QueryEngine::new(compacted.clone(), EngineConfig::default())
            .map_err(|e| e.to_string())?;
        if QueryBackend::meta(&router).n != compacted.meta.n {
            return Err("sharded and monolithic compaction disagree on n".into());
        }
        for node in [0, compacted.meta.n / 2, compacted.meta.n - 1] {
            let (a, b) = (
                router.cluster_of(node).map_err(|e| e.to_string())?,
                engine.cluster_of(node).map_err(|e| e.to_string())?,
            );
            let (ea, eb) = (
                router.embed_batch(&[node]).map_err(|e| e.to_string())?,
                engine.embed_batch(&[node]).map_err(|e| e.to_string())?,
            );
            if a.cluster != b.cluster
                || a.centroid_dist.to_bits() != b.centroid_dist.to_bits()
                || ea[0]
                    .iter()
                    .zip(&eb[0])
                    .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                return Err(format!(
                    "sharded compaction diverges from monolithic at node {node}"
                ));
            }
        }
        Ok(write_amp)
    })();
    std::fs::remove_dir_all(&dir).ok();
    let write_amp = result?;

    let json = Value::object(vec![
        ("config", {
            Value::object(vec![
                ("n", Value::from(config.n)),
                ("k", Value::from(config.k)),
                ("dim", Value::from(config.dim)),
                ("removed_nodes", Value::from(removed.len())),
                ("edits", Value::from(2usize)),
                ("seed", Value::from(config.seed)),
                ("smoke", Value::Bool(config.smoke)),
            ])
        }),
        ("results", {
            Value::object(vec![
                ("retrain_secs", Value::from(retrain_secs)),
                ("update_secs", Value::from(update_secs)),
                ("warm_ratio", Value::from(warm_ratio)),
                ("live_label_agreement", Value::from(live_label_agreement)),
                (
                    "live_subspace_residual",
                    Value::from(live_subspace_residual),
                ),
                ("compaction_write_amp", Value::from(write_amp)),
            ])
        }),
    ]);
    Ok(CrudSmokeReport {
        retrain_secs,
        update_secs,
        warm_ratio,
        live_label_agreement,
        live_subspace_residual,
        removed_nodes: removed.len(),
        write_amp,
        json,
    })
}

/// Runs the CRUD smoke and merges its fragment into `out` under the
/// `"crud_smoke"` key — an existing append-bench report in the same
/// file is preserved, so both gates land in one `BENCH_update.json`.
///
/// # Errors
/// See [`run_crud_smoke`]; additionally I/O failures writing `out`.
pub fn run_crud_smoke_to_file(
    config: &UpdateBenchConfig,
    out: &std::path::Path,
) -> Result<CrudSmokeReport, String> {
    let report = run_crud_smoke(config)?;
    let mut doc = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| mvag_data::json::parse(&text).ok())
        .unwrap_or_else(|| Value::object(vec![]));
    if !matches!(doc, Value::Object(_)) {
        doc = Value::object(vec![]);
    }
    if let Value::Object(map) = &mut doc {
        map.insert("crud_smoke".to_string(), report.json.clone());
    }
    std::fs::write(out, doc.to_string_pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_verifies_and_reports() {
        let config = UpdateBenchConfig {
            n: 240,
            k: 2,
            dim: 12,
            smoke: true,
            ..Default::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.added_nodes, 12);
        assert!(report.warm_ratio < MAX_WARM_RATIO_SMOKE);
        assert!(report.label_agreement >= MIN_LABEL_AGREEMENT);
        assert!(report.subspace_residual <= MAX_SUBSPACE_RESIDUAL);
        assert!(report.json.get("results").is_some());
    }

    #[test]
    fn crud_smoke_run_verifies_and_reports() {
        let config = UpdateBenchConfig {
            n: 240,
            k: 2,
            dim: 12,
            smoke: true,
            ..Default::default()
        };
        let report = run_crud_smoke(&config).unwrap();
        assert!(report.removed_nodes >= 2);
        assert!(report.write_amp <= MAX_COMPACT_WRITE_AMP);
        assert!(report.live_label_agreement >= MIN_LABEL_AGREEMENT);
        assert!(report.live_subspace_residual <= MAX_SUBSPACE_RESIDUAL);
        assert!(report.json.get("results").is_some());
    }

    #[test]
    fn crud_smoke_report_merges_into_an_existing_document() {
        // Only the file plumbing: an existing append report must
        // survive the merge. The heavy pipeline is covered above.
        let out = std::env::temp_dir().join(format!("sgla-crud-merge-{}.json", std::process::id()));
        std::fs::write(&out, "{\"results\": {\"warm_ratio\": 0.5}}").unwrap();
        let existing = std::fs::read_to_string(&out).unwrap();
        let mut doc = mvag_data::json::parse(&existing).unwrap();
        if let Value::Object(map) = &mut doc {
            map.insert("crud_smoke".to_string(), Value::object(vec![]));
        }
        std::fs::write(&out, doc.to_string_pretty()).unwrap();
        let merged = mvag_data::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(merged.get("results").is_some());
        assert!(merged.get("crud_smoke").is_some());
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn aligned_agreement_handles_permuted_labels() {
        let a = [0usize, 0, 1, 1, 2, 2];
        let b = [2usize, 2, 0, 0, 1, 1];
        assert!((aligned_agreement(&a, &b, 3) - 1.0).abs() < 1e-12);
        let c = [2usize, 2, 0, 0, 1, 0];
        let agreement = aligned_agreement(&a, &c, 3);
        assert!((agreement - 5.0 / 6.0).abs() < 1e-12, "{agreement}");
    }
}
