//! End-to-end tests of the `sgla-serve` binary.
//!
//! * Train an artifact, serve it memory-mapped, update it in place
//!   while the server runs, and reload. The update replaces the file
//!   by rename, so the running server keeps answering from the mapping
//!   of the old file — bit-identically, with finite scores — until
//!   `POST /reload` swaps the updated artifact in.
//! * Serve a v4 file or layout with `--auto-compact`: the load
//!   migrates it to v5 and serves what the v5 original serves.

use mvag_data::json::{self, Value};
use mvag_data::manifest::ShardManifest;
use sgla_serve::{Artifact, HttpClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sgla-serve");

/// The dataset and model flags `train` and `update` share.
const TRAINING: [&str; 8] = ["--n", "300", "--k", "3", "--seed", "42", "--dim", "8"];

/// A spawned server, killed and reaped on every exit path (a failed
/// assertion included).
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `sgla-serve` to completion and fails the test on a nonzero
/// exit.
fn run(args: &[&str]) {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "sgla-serve {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Starts `sgla-serve serve` on an ephemeral port and returns it with
/// the address read from its "serving on" line. The rest of its stdout
/// is drained on a thread so the server never blocks on the pipe.
fn serve(args: &[&str]) -> (Running, SocketAddr) {
    let mut child = Running(
        Command::new(BIN)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut lines = BufReader::new(child.0.stdout.take().unwrap()).lines();
    let addr = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|line| line.strip_prefix("serving on http://")?.parse().ok())
        .expect("the server exited before printing its address");
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr)
}

/// The raw `/topk` body for `node`, after checking every score in it
/// is a finite number (a NaN serializes as `null`).
fn topk(client: &mut HttpClient, node: usize) -> String {
    let (status, body) = client.get_text(&format!("/topk/{node}?k=5")).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(&body).unwrap();
    let neighbors = parsed.get("neighbors").and_then(Value::as_array).unwrap();
    assert!(!neighbors.is_empty(), "{body}");
    for neighbor in neighbors {
        let score = neighbor.get("score").and_then(Value::as_f64);
        assert!(score.is_some_and(f64::is_finite), "{body}");
    }
    body
}

#[test]
fn update_in_place_keeps_a_mapped_server_answering_until_reload() {
    if !sgla_serve::store::MMAP_SUPPORTED {
        return;
    }
    let dir = std::env::temp_dir().join(format!("sgla-cli-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let artifact: PathBuf = dir.join("toy.sgla");
    let artifact = artifact.to_str().unwrap();

    run(&[&["train", "--out", artifact], &TRAINING[..]].concat());
    let (server, addr) = serve(&["--artifact", artifact, "--mmap", "on", "--cache", "0"]);
    let mut client = HttpClient::connect(addr).unwrap();
    let probes = [0usize, 150, 299];
    let before: Vec<String> = probes.iter().map(|&n| topk(&mut client, n)).collect();

    // The documented refresh flow, minus `--notify`: the server is not
    // told, so it must keep serving the file it mapped.
    run(&[&["update", "--artifact", artifact], &TRAINING[..]].concat());
    let after: Vec<String> = probes.iter().map(|&n| topk(&mut client, n)).collect();
    assert_eq!(after, before, "answers changed before the reload");

    let reloaded = client.post("/reload", &Value::object(vec![])).unwrap();
    assert_eq!(reloaded.status, 200, "{}", reloaded.body);
    let meta = client.get("/artifact").unwrap();
    // `update` appends 5% of n by default: 300 + 15.
    assert_eq!(meta.body.get("n").and_then(Value::as_usize), Some(315));
    for node in [0, 150, 299, 314] {
        topk(&mut client, node);
    }

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the v5 file or layout at `path` in format v4, as a
/// deployment that predates v5 has it on disk.
fn downgrade_to_v4(path: &Path) {
    let rewrite = |file: &Path| {
        let artifact = Artifact::load(file).unwrap();
        let encoded = sgla_serve::compact::legacy::encode(&artifact, 4).unwrap();
        std::fs::write(file, encoded.as_ref()).unwrap();
        encoded
    };
    if !path.is_dir() {
        rewrite(path);
        return;
    }
    let manifest_path = path.join(Artifact::MANIFEST_FILE);
    let mut manifest = ShardManifest::load(&manifest_path).unwrap();
    for entry in &mut manifest.shards {
        let encoded = rewrite(&path.join(&entry.file));
        entry.bytes = encoded.len() as u64;
        entry.crc32 = mvag_data::codec::crc32(encoded.as_ref());
    }
    manifest.artifact_format_version = 4;
    manifest.save(&manifest_path).unwrap();
}

/// Whether `sgla-serve info` reads the artifact at `path` (it refuses
/// every format but v5).
fn info_reads(path: &str) -> bool {
    let out = Command::new(BIN)
        .args(["info", "--artifact", path])
        .output();
    out.unwrap().status.success()
}

#[test]
fn auto_compact_migrates_v4_files_and_layouts_and_serves_the_same_answers() {
    let dir = std::env::temp_dir().join(format!("sgla-cli-auto-compact-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let probes = [0usize, 150, 299];
    let answers = |args: &[&str]| {
        let (server, addr) = serve(args);
        let mut client = HttpClient::connect(addr).unwrap();
        let answers: Vec<String> = probes.iter().map(|&n| topk(&mut client, n)).collect();
        drop(server);
        answers
    };
    for (name, shards) in [("toy.sgla", "1"), ("layout", "2")] {
        let path = dir.join(name);
        let arg = path.to_str().unwrap();
        run(&[&["train", "--out", arg, "--shards", shards], &TRAINING[..]].concat());
        let want = answers(&["--artifact", arg]);
        downgrade_to_v4(&path);
        assert!(!info_reads(arg), "{name} still reads as v5");
        // No tombstones: only the format sends it through compaction.
        let got = answers(&["--artifact", arg, "--auto-compact", "0.5"]);
        assert_eq!(got, want, "{name}");
        assert!(info_reads(arg), "{name} was not migrated to v5");
    }
    std::fs::remove_dir_all(&dir).ok();
}
