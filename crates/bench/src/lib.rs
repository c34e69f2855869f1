//! Shared measurement helpers for the reproduction harness.
//!
//! Every experiment of DESIGN.md's index lives under [`experiments`]; run
//! them with `cargo run -p memtree-bench --release --bin repro -- <id>`.

pub mod experiments;

use std::time::{Duration, Instant};

/// Experiment scale. Paper datasets (25–100 M keys) are scaled down;
/// shapes are preserved (EXPERIMENTS.md records both).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys loaded into the structure under test.
    pub n_keys: usize,
    /// Operations measured.
    pub n_ops: usize,
}

impl Scale {
    /// Fast mode for `repro all --quick` (seconds per experiment).
    pub fn quick() -> Self {
        Self {
            n_keys: 100_000,
            n_ops: 100_000,
        }
    }

    /// Default single-experiment mode.
    pub fn standard() -> Self {
        Self {
            n_keys: 1_000_000,
            n_ops: 1_000_000,
        }
    }
}

/// Times a closure.
pub fn time<F: FnOnce()>(f: F) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Million operations per second.
pub fn mops(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64() / 1e6
}

/// Nanoseconds per operation.
pub fn ns_per_op(n: usize, d: Duration) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// Megabytes.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Section header for experiment output.
pub fn header(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

/// Parses a `bench_*` binary's command line: `--smoke` (the CI-sized run)
/// and `--out PATH`; any other argument exits with status 2. Returns
/// `(smoke, out_path)`, the path defaulting to
/// `target/BENCH_{name}_smoke.json` for smoke runs (keeping the checkout
/// clean) and `BENCH_{name}.json` otherwise.
pub fn bench_args(name: &str) -> (bool, String) {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next(),
            other => {
                eprintln!("unknown argument: {other} (expected --smoke / --out PATH)");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        if smoke {
            format!("target/BENCH_{name}_smoke.json")
        } else {
            format!("BENCH_{name}.json")
        }
    });
    (smoke, out)
}

/// Writes a bench report to `path` (creating its directory; exits with
/// status 1 if the write fails), reads it back, and asserts every
/// `required` key is present — the schema downstream tooling greps for.
pub fn write_report(path: &str, json: &str, required: &[&str]) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    let back = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read back {path}: {e}"));
    for key in required {
        assert!(back.contains(key), "{path} missing key {key}");
    }
    println!("wrote {path} (schema check passed)");
}
