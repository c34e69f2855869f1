//! The repository benchmark. `perfbench --workload <name>` loads a
//! `memtree_serve::ShardedDb`, drives it from closed-loop clients, checks
//! every answer and prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer metrics instead, from the traced serving run (T1)
//! and the single-threaded engine replay (T2). `BENCHMARK.json` at the
//! repository root lists the workloads and metrics; `README.md` beside
//! this crate defines them and records which layer should move which
//! metric on which workload.

pub mod gen;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
