//! Crash-consistency battery for the storage engine.
//!
//! Every write (`compact_sharded`, `append_sharded`, and `publish` over
//! an existing file or layout) promises: a process killed at *any*
//! point leaves the artifact on disk fully loadable as either the
//! complete old state or the complete new state — never a mix — and a
//! plain retry converges to the committed state with bit-identical
//! answers.
//!
//! The harness measures a mutation's total filesystem cost once with
//! an effectively unlimited [`FailpointWriter`] budget, then replays
//! the very same mutation on a fresh copy of the layout at a sweep of
//! budgets below that cost. Each budget kills the writer at a
//! different boundary: mid shard file (torn write), between files,
//! right before the manifest rename, right after it (during
//! best-effort cleanup). After every simulated crash the test opens a
//! [`ShardRouter`] over the wreckage, queries it, and then finishes
//! the interrupted job with the real [`FsWriter`].
//!
//! A final end-to-end test proves the serving-layer contract: a torn
//! compaction under a live reloadable server leaves `POST /reload`
//! returning the *old* artifact (clean rollback), and a completed
//! compaction swaps the purged one in. Because every write replaces by
//! rename, a router that memory-mapped the old file or layout keeps
//! answering bit-identically after a publish over it.

use mvag_data::json::Value;
use mvag_data::manifest::{ShardEntry, ShardManifest};
use mvag_data::{FailpointWriter, FsWriter};
use mvag_graph::{MvagDelta, ViewDelta};
use mvag_sparse::DenseMatrix;
use sgla_serve::store::MmapMode;
use sgla_serve::{
    append_sharded, compact_sharded, publish, Artifact, EngineConfig, HttpClient, QueryBackend,
    RouterConfig, Server, ServerConfig, ShardRouter, TrainConfig,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const N: usize = 36;
const SHARDS: usize = 3;
/// Tombstones span shards 0 and 1; shard 2 (the tail) stays clean so
/// both sweeps run against the same golden layout.
const DEAD: [usize; 3] = [2, 7, 13];

/// Training dominates wall-clock; every layout copy re-shards one
/// shared artifact.
fn golden() -> &'static Artifact {
    static SHARED: OnceLock<Artifact> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mvag = mvag_data::toy_mvag(N, 3, 29);
        let mut config = TrainConfig::default();
        config.embed.dim = 6;
        let mut artifact = Artifact::train(&mvag, &config).unwrap();
        artifact.tombstones = DEAD.to_vec();
        artifact
    })
}

/// Node count of the artifact published over the golden one.
const SMALL_N: usize = 30;

/// A different, smaller artifact to publish over the golden one.
fn smaller() -> &'static Artifact {
    static SHARED: OnceLock<Artifact> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mvag = mvag_data::toy_mvag(SMALL_N, 3, 31);
        let mut config = TrainConfig::default();
        config.embed.dim = 6;
        Artifact::train(&mvag, &config).unwrap()
    })
}

/// A unique scratch path for `tag`, with nothing at it.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "sgla-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    remove(&path);
    path
}

/// Removes a scratch file or layout, with its temp file.
fn remove(path: &Path) {
    std::fs::remove_dir_all(path).ok();
    std::fs::remove_file(path).ok();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::remove_file(tmp).ok();
}

/// A fresh sharded copy of the golden artifact under a unique dir.
fn layout(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    golden().save_sharded(&dir, SHARDS).unwrap();
    dir
}

/// A fresh single-file copy of the golden artifact.
fn file(tag: &str) -> PathBuf {
    let path = scratch(tag);
    golden().save(&path).unwrap();
    path
}

fn open(path: &Path) -> ShardRouter {
    ShardRouter::open(path, RouterConfig::default()).unwrap()
}

/// Opens the file or layout and proves it is coherent: a layout's
/// manifest loads and validates, `n` is one of the two legal states,
/// the router serves it, and a cross-shard query answers. Returns the
/// observed `n`.
fn assert_loadable(path: &Path, legal_n: &[usize]) -> usize {
    let router = open(path);
    let n = QueryBackend::meta(&router).n;
    assert!(
        legal_n.contains(&n),
        "n = {n} is neither old nor new ({legal_n:?})"
    );
    if path.is_dir() {
        let manifest = ShardManifest::load(&path.join(Artifact::MANIFEST_FILE)).unwrap();
        manifest.validate().unwrap();
        assert_eq!(manifest.n, n);
    }
    // Fans out to every shard, so a missing or half-written live file
    // would surface here.
    let neighbors = router.top_k_similar(0, 5).unwrap();
    assert!(!neighbors.is_empty());
    router.embed_batch(&[0]).unwrap();
    n
}

/// Answers that must be bit-identical across every recovery path.
fn fingerprint(router: &ShardRouter, probes: &[usize]) -> Vec<(usize, u64, Vec<u64>, Vec<u64>)> {
    probes
        .iter()
        .map(|&node| {
            let info = router.cluster_of(node).unwrap();
            let embed: Vec<u64> = router.embed_batch(&[node]).unwrap()[0]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let topk: Vec<u64> = router
                .top_k_similar(node, 6)
                .unwrap()
                .iter()
                .flat_map(|nb| [nb.node as u64, nb.score.to_bits()])
                .collect();
            (info.cluster, info.centroid_dist.to_bits(), embed, topk)
        })
        .collect()
}

/// The budget sweep: 0, 1, 2, an even stride across the run, and the
/// last few operations before (and at) the full cost.
fn budgets(cost: usize) -> Vec<usize> {
    let mut budgets: Vec<usize> = (0..cost).step_by((cost / 24).max(1)).collect();
    budgets.extend([
        1,
        2,
        cost.saturating_sub(2),
        cost.saturating_sub(1),
        cost,
        cost + 10,
    ]);
    budgets.sort_unstable();
    budgets.dedup();
    budgets
}

#[test]
fn compaction_survives_a_kill_at_every_point() {
    // Measure the full cost and capture the committed reference state.
    let dir = layout("compact-ref");
    let mut probe = FailpointWriter::new(1 << 30);
    let stats = compact_sharded(&dir, &mut probe).unwrap();
    assert!(!probe.died());
    let cost = (1 << 30) - probe.remaining();
    assert!(stats.purged == DEAD.len() && cost > 4, "cost = {cost}");
    let new_n = N - DEAD.len();
    let probes = [0usize, 10, new_n - 1];
    let reference = fingerprint(&open(&dir), &probes);
    std::fs::remove_dir_all(&dir).ok();

    for budget in budgets(cost) {
        let dir = layout(&format!("compact-{budget}"));
        let mut writer = FailpointWriter::new(budget);
        let result = compact_sharded(&dir, &mut writer);

        // Old-or-new, never a mix: the manifest rename is the one
        // commit point, so the result tells us exactly which side of
        // it the crash landed on.
        let n_now = assert_loadable(&dir, &[N, new_n]);
        if result.is_ok() {
            assert_eq!(n_now, new_n, "budget {budget}: Ok but old layout");
        } else {
            assert_eq!(n_now, N, "budget {budget}: Err but manifest committed");
        }

        // Recovery: a plain retry finishes the job (a no-op when the
        // crash hit the post-commit cleanup) and converges to answers
        // bit-identical to the uninterrupted run.
        compact_sharded(&dir, &mut FsWriter).unwrap();
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.n, new_n, "budget {budget}: recovery lost rows");
        assert_eq!(
            fingerprint(&open(&dir), &probes),
            reference,
            "budget {budget}: recovered answers differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn tail_delta() -> MvagDelta {
    MvagDelta::append(
        2,
        vec![
            ViewDelta::Edges(vec![(N, 30, 1.0), (N + 1, N, 1.5), (N + 1, 32, 0.5)]),
            ViewDelta::Rows(DenseMatrix::zeros(2, 4)),
        ],
        None,
    )
}

#[test]
fn append_survives_a_kill_at_every_point() {
    let delta = tail_delta();
    let new_n = N + 2;

    let dir = layout("append-ref");
    let mut probe = FailpointWriter::new(1 << 30);
    let stats = append_sharded(&dir, &delta, &mut probe).unwrap();
    assert!(!probe.died());
    let cost = (1 << 30) - probe.remaining();
    assert!(stats.added == 2 && cost > 4, "cost = {cost}");
    let probes = [0usize, 20, N, N + 1];
    let reference = fingerprint(&open(&dir), &probes);
    std::fs::remove_dir_all(&dir).ok();

    for budget in budgets(cost) {
        let dir = layout(&format!("append-{budget}"));
        let mut writer = FailpointWriter::new(budget);
        let result = append_sharded(&dir, &delta, &mut writer);

        let n_now = assert_loadable(&dir, &[N, new_n]);
        if result.is_ok() {
            assert_eq!(n_now, new_n, "budget {budget}: Ok but old layout");
        } else {
            assert_eq!(n_now, N, "budget {budget}: Err but manifest committed");
        }

        // Recovery for an append is replay-if-uncommitted: the failed
        // run left the old layout, so the delta applies exactly once.
        if result.is_err() {
            append_sharded(&dir, &delta, &mut FsWriter).unwrap();
        }
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(
            manifest.n, new_n,
            "budget {budget}: recovery lost the append"
        );
        assert_eq!(
            fingerprint(&open(&dir), &probes),
            reference,
            "budget {budget}: recovered answers differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn reload_rolls_back_cleanly_after_a_torn_compaction() {
    let dir = layout("reload");
    let loader_dir = dir.clone();
    let loader: sgla_serve::BackendLoader = Box::new(move || {
        Ok(
            Arc::new(ShardRouter::open(&loader_dir, RouterConfig::default())?)
                as Arc<dyn QueryBackend>,
        )
    });
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start_reloadable(loader, &server_config).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let meta = client.get("/artifact").unwrap();
    assert_eq!(meta.body.get("n").unwrap().as_usize(), Some(N));

    // A compaction torn on its very first shard write strands a
    // half-written generational file but never touches the committed
    // manifest: reload serves the old, untombstone-purged layout.
    let mut torn = FailpointWriter::new(1);
    assert!(compact_sharded(&dir, &mut torn).is_err());
    assert!(torn.died());
    let rolled_back = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(rolled_back.status, 200);
    assert_eq!(rolled_back.body.get("n").unwrap().as_usize(), Some(N));
    // Tombstoned ids still answer NotFound-style 404s on the old state.
    assert_eq!(
        client.get(&format!("/cluster/{}", DEAD[0])).unwrap().status,
        404
    );

    // Finishing the compaction (the retry overwrites the torn file)
    // and reloading swaps the purged layout in.
    compact_sharded(&dir, &mut FsWriter).unwrap();
    let swapped = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(swapped.status, 200);
    assert_eq!(
        swapped.body.get("n").unwrap().as_usize(),
        Some(N - DEAD.len())
    );
    assert_eq!(swapped.body.get("previous_n").unwrap().as_usize(), Some(N));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The golden artifact written as a *legacy v4* sharded layout: flat
/// packed shard bodies (no section table) and a manifest declaring
/// format version 4 — the state of a deployment that predates v5.
fn v4_layout(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sgla-crash-v4-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let golden = golden();
    let per = N / SHARDS;
    let mut entries = Vec::with_capacity(SHARDS);
    for i in 0..SHARDS {
        let (row_start, row_end) = (i * per, (i + 1) * per);
        let shard = golden.shard(row_start, row_end).unwrap();
        let encoded = sgla_serve::compact::legacy::encode(&shard, 4).unwrap();
        let file = Artifact::shard_file_name(i);
        std::fs::write(dir.join(&file), encoded.as_ref()).unwrap();
        entries.push(ShardEntry {
            file,
            row_start,
            row_end,
            bytes: encoded.len() as u64,
            crc32: mvag_data::codec::crc32(encoded.as_ref()),
            tombstones: shard.tombstones.len(),
            ..Default::default()
        });
    }
    let manifest = ShardManifest {
        dataset: golden.meta.dataset.clone(),
        n: N,
        k: golden.meta.k,
        dim: golden.meta.dim,
        seed: golden.meta.seed,
        artifact_format_version: 4,
        update_count: golden.meta.update_count,
        compaction_count: golden.meta.compaction_count,
        id_map: None,
        shards: entries,
    };
    manifest.save(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
    dir
}

/// An uncommitted migration leaves the legacy layout exactly as it
/// was: the v4 manifest, every file it names matching its size and
/// CRC-32, and serving refusing it with the migration hint.
fn assert_v4_intact(dir: &Path, budget: usize) {
    let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
    manifest.validate().unwrap();
    assert_eq!(
        (manifest.n, manifest.artifact_format_version),
        (N, 4),
        "budget {budget}: Err but manifest committed"
    );
    for entry in &manifest.shards {
        let raw = std::fs::read(dir.join(&entry.file)).unwrap();
        assert_eq!(
            (raw.len() as u64, mvag_data::codec::crc32(&raw)),
            (entry.bytes, entry.crc32),
            "budget {budget}: {} altered",
            entry.file
        );
    }
    let err = ShardRouter::open(dir, RouterConfig::default()).unwrap_err();
    assert!(
        err.to_string().contains("sgla-serve compact"),
        "budget {budget}: {err}"
    );
}

/// Compaction doubles as the v4 → v5 migration path: it reads legacy
/// shards owned and rewrites them as v5. A kill at any write boundary
/// must leave either the complete v4 layout or the complete v5 one —
/// and once committed, every shard file must serve memory-mapped.
#[test]
fn torn_compaction_migrates_v4_shards_to_v5_or_not_at_all() {
    use sgla_serve::store::{open_mapped, MmapMode};

    // Reference: an uninterrupted compaction of the v4 seed.
    let dir = v4_layout("ref");
    for i in 0..SHARDS {
        assert!(
            open_mapped(&dir.join(Artifact::shard_file_name(i))).is_err(),
            "v4 shard {i} must not be mappable"
        );
    }
    let mut probe = FailpointWriter::new(1 << 30);
    compact_sharded(&dir, &mut probe).unwrap();
    let cost = (1 << 30) - probe.remaining();
    let new_n = N - DEAD.len();
    let probes = [0usize, 10, new_n - 1];
    let reference = fingerprint(&open(&dir), &probes);
    std::fs::remove_dir_all(&dir).ok();

    for budget in budgets(cost) {
        let dir = v4_layout(&format!("b{budget}"));
        let mut writer = FailpointWriter::new(budget);
        let result = compact_sharded(&dir, &mut writer);

        // Old-or-new holds across the *format* boundary too: the
        // wreckage is either the intact v4 layout (which serving
        // refuses and compaction reads) or the loadable v5 one.
        if result.is_ok() {
            assert_loadable(&dir, &[new_n]);
        } else {
            assert_v4_intact(&dir, budget);
        }

        // Retry converges; the committed layout is v5 through and
        // through: manifest version, per-file mapped opens, and a
        // router forced to `--mmap on` answering bit-identically to
        // the owned reference.
        compact_sharded(&dir, &mut FsWriter).unwrap();
        let manifest = ShardManifest::load(&dir.join(Artifact::MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.artifact_format_version, 5, "budget {budget}");
        assert_eq!(
            fingerprint(&open(&dir), &probes),
            reference,
            "budget {budget}"
        );
        if sgla_serve::store::MMAP_SUPPORTED {
            for (i, entry) in manifest.shards.iter().enumerate() {
                assert!(
                    open_mapped(&dir.join(&entry.file)).is_ok(),
                    "budget {budget}: migrated shard {i} not mappable"
                );
            }
            let mapped = ShardRouter::open(
                &dir,
                RouterConfig {
                    mmap: MmapMode::On,
                    ..RouterConfig::default()
                },
            )
            .unwrap();
            let info = mapped.cluster_of(probes[1]).unwrap();
            assert_eq!(
                (info.cluster, info.centroid_dist.to_bits()),
                (reference[1].0, reference[1].1),
                "budget {budget}: mapped answers diverge after migration"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Publishes the smaller artifact over the golden one at `path` (a
/// single file when `shards` is 1, a layout otherwise) under a
/// [`FailpointWriter`] at every budget: each kill leaves the old or
/// the new artifact loadable, and a retry with [`FsWriter`] reaches
/// the new one with the answers of an uninterrupted publish.
fn assert_publish_survives_a_kill_at_every_point(seed: impl Fn(&str) -> PathBuf, shards: usize) {
    let probes = [0usize, 10, SMALL_N - 1];
    let path = seed("publish-ref");
    let mut probe = FailpointWriter::new(1 << 30);
    let published = publish(smaller(), &path, shards, None, &mut probe).unwrap();
    assert!(!probe.died());
    assert_eq!(published.manifest.is_some(), shards > 1);
    let cost = (1 << 30) - probe.remaining();
    let reference = fingerprint(&open(&path), &probes);
    remove(&path);

    for budget in budgets(cost) {
        let path = seed(&format!("publish-{budget}"));
        let mut writer = FailpointWriter::new(budget);
        let result = publish(smaller(), &path, shards, None, &mut writer);
        let n_now = assert_loadable(&path, &[N, SMALL_N]);
        if result.is_ok() {
            assert_eq!(n_now, SMALL_N, "budget {budget}: Ok but old artifact");
        } else {
            assert_eq!(n_now, N, "budget {budget}: Err but new artifact");
        }
        publish(smaller(), &path, shards, None, &mut FsWriter).unwrap();
        assert_eq!(
            fingerprint(&open(&path), &probes),
            reference,
            "budget {budget}: retried publish answers differ"
        );
        remove(&path);
    }
}

#[test]
fn publish_over_a_file_survives_a_kill_at_every_point() {
    assert_publish_survives_a_kill_at_every_point(file, 1);
}

#[test]
fn publish_over_a_layout_survives_a_kill_at_every_point() {
    assert_publish_survives_a_kill_at_every_point(layout, SHARDS);
}

/// A server's memory-mapped view of the artifact at `path` survives a
/// publish of a different, smaller artifact over it: until it reloads,
/// the old router answers bit-identically, while a fresh open serves
/// the new artifact. Writing the file in place instead would truncate
/// the mapping under the old router (`SIGBUS`) or change its answers.
fn assert_mapped_router_outlives_a_publish(path: &Path, shards: usize) {
    if !sgla_serve::store::MMAP_SUPPORTED {
        return;
    }
    let config = RouterConfig {
        mmap: MmapMode::On,
        cache_capacity: 0,
        ..RouterConfig::default()
    };
    let mapped = ShardRouter::open(path, config).unwrap();
    let old_probes = [0usize, 10, N - 1];
    let before = fingerprint(&mapped, &old_probes);

    publish(smaller(), path, shards, None, &mut FsWriter).unwrap();
    assert_eq!(fingerprint(&mapped, &old_probes), before);

    let fresh = open(path);
    assert_eq!(QueryBackend::meta(&fresh).n, SMALL_N);
    let new_probes = [0usize, 10, SMALL_N - 1];
    let expected = ShardRouter::new(smaller().clone(), EngineConfig::default()).unwrap();
    assert_eq!(
        fingerprint(&fresh, &new_probes),
        fingerprint(&expected, &new_probes)
    );
    remove(path);
}

#[test]
fn mapped_router_over_a_file_outlives_a_publish() {
    assert_mapped_router_outlives_a_publish(&file("mapped-file"), 1);
}

#[test]
fn mapped_router_over_a_layout_outlives_a_publish() {
    assert_mapped_router_outlives_a_publish(&layout("mapped-layout"), SHARDS);
}
