#!/usr/bin/env bash
# Mirrors CI / tier-1 locally: offline build, tests, and lint.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --release --offline

echo "== cargo test -q (tier-1, offline) =="
cargo test -q --offline

echo "== cargo test --workspace (offline) =="
cargo test -q --workspace --offline

echo "== cargo test --workspace with MEMTREE_KERNELS=scalar (portable fallback lane, offline) =="
MEMTREE_KERNELS=scalar cargo test -q --workspace --offline

echo "== bench_hotpath --smoke (kernel cross-checks, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_hotpath -- --smoke

echo "== bench_lsm --smoke (batched read-path + leveled/tiered amp gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_lsm -- --smoke

echo "== bench_recovery --smoke (WAL overhead + O(tables) filter-image recovery + torn-tail gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_recovery -- --smoke

echo "== bench_faults --smoke (CRC tax + scrub/degraded/enospc gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_faults -- --smoke

echo "== bench_serve --smoke (sharded serving: YCSB clients, p99, plausibility gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_serve -- --smoke

echo "== concurrent suites with RUST_TEST_THREADS=4 (lsm + serve + hybrid + hstore under real parallelism, offline) =="
RUST_TEST_THREADS=4 cargo test -q --offline -p memtree-lsm -p memtree-serve -p memtree-hybrid -p memtree-hstore

echo "== crash + scrub oracles (seeds ${MEMTREE_FAULT_SEEDS:-0..32}, leveled+tiered by seed parity, offline) =="
cargo test -q --offline -p memtree-lsm --test crash_oracle --test wal_frames --test scrub_oracle

echo "== perfbench tests (BTreeMap replay fidelity + BENCHMARK.json schema, offline) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo clippy --all-targets -D warnings (offline) =="
cargo clippy --all-targets --offline -- -D warnings

echo "== cargo doc --workspace -D warnings (intra-doc links cannot rot, offline) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: OK"
