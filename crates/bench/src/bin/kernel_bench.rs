//! Kernel benchmark: pooled/fused/blocked SpMV vs their pre-pool
//! baselines, plus KNN, thin QR and NetMF timings, with a built-in
//! bit-identity/tolerance gate.
//! Writes `BENCH_kernels.json`; exits nonzero if any fused/pooled
//! kernel diverges from its sequential reference.
//!
//! ```bash
//! cargo run --release --bin kernel_bench            # full sweep
//! cargo run --release --bin kernel_bench -- --smoke # CI correctness gate
//! ```

use mvag_bench::kernel_bench::{run_to_file, KernelBenchConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // The benchmark measures *parallel* dispatch; on a narrow CI box the
    // autodetected width would be 1 and every kernel would degenerate to
    // the sequential path. Defaulting the pool to a few workers keeps
    // the comparison meaningful everywhere (overridden by SGLA_THREADS,
    // which the pool honours, or --threads below).
    if std::env::var("SGLA_THREADS").is_err() {
        std::env::set_var("SGLA_THREADS", "4");
    }
    let mut config = if smoke {
        KernelBenchConfig::smoke()
    } else {
        KernelBenchConfig::default()
    };
    config.threads = mvag_sparse::parallel::default_threads().max(2);
    let mut out = PathBuf::from("BENCH_kernels.json");
    let mut it = args.iter().filter(|a| *a != "--smoke");
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value");
            return ExitCode::FAILURE;
        };
        let parsed = match flag.as_str() {
            "--threads" => value.parse().map(|v| config.threads = v).is_ok(),
            "--views" => value.parse().map(|v| config.views = v).is_ok(),
            "--block" => value.parse().map(|v| config.block = v).is_ok(),
            "--per-row" => value.parse().map(|v| config.per_row = v).is_ok(),
            "--seed" => value.parse().map(|v| config.seed = v).is_ok(),
            "--sizes" => {
                let sizes: Option<Vec<usize>> =
                    value.split(',').map(|s| s.trim().parse().ok()).collect();
                sizes.map(|s| config.sizes = s).is_some()
            }
            "--out" => {
                out = PathBuf::from(value);
                true
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        };
        if !parsed {
            eprintln!("{flag}: cannot parse '{value}'");
            return ExitCode::FAILURE;
        }
    }
    // The global pool's width is already fixed (default_threads() was
    // cached above); the pooled kernels cannot use more threads than
    // that, so the report records the width actually used.
    let pool_width = mvag_sparse::parallel::default_threads();
    if config.threads > pool_width {
        eprintln!(
            "--threads {} exceeds the pool width; clamping to {pool_width} \
             (set SGLA_THREADS before launch to widen the pool)",
            config.threads
        );
        config.threads = pool_width;
    }

    println!(
        "kernel_bench: sizes={:?} views={} block={} threads={} smoke={}",
        config.sizes, config.views, config.block, config.threads, config.smoke
    );
    let report = match run_to_file(&config, &out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    };
    for t in &report.timings {
        println!(
            "  {:<24} n={:<8} nnz={:<9} reps={:<4} p50={:>10.1}us mean={:>10.1}us",
            t.kernel, t.n, t.nnz, t.reps, t.p50_us, t.mean_us
        );
    }
    if !report.divergences.is_empty() {
        eprintln!("KERNEL DIVERGENCE — fused/pooled results do not match the reference:");
        for d in &report.divergences {
            eprintln!("  {d}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "all kernels verified against sequential references; report: {}",
        out.display()
    );
    ExitCode::SUCCESS
}
