//! Multi-threaded serving benchmark over `ShardedDb`, written to
//! `BENCH_serve.json`.
//!
//! A closed-loop YCSB driver runs 1/2/4/8 client threads against one
//! sharded database: read-heavy (B) under uniform and Zipfian key
//! choice, write-heavy (A), and scan/insert (E). Every operation is
//! individually timed, so each line reports aggregate throughput *and*
//! tail latency (p50/p99) — the serving numbers that matter, not just a
//! mean.
//!
//! Correctness gates always run, smoke mode included: every client
//! thread's acknowledged writes are re-read after a quiesce barrier, and
//! reads during the storm must return plausible values (the loaded value
//! or a client's overwrite, never garbage). The reader-scaling gate —
//! uniform read-heavy throughput at 4 threads must reach 2.5x the
//! 1-thread run — is enforced only when the host actually has 4 cores
//! (`std::thread::available_parallelism`); the JSON records whether it
//! was enforced so a single-core run is never mistaken for a passing
//! scaling result.
//!
//! Run from the repo root:
//! `cargo run -p memtree-bench --release --bin bench_serve`

use memtree_bench::{bench_args, write_report};
use memtree_lsm::{DbOptions, SlowIo, StallConfig};
use memtree_serve::{ServeOptions, ShardedDb};
use memtree_workload::ycsb::{Dist, Mix, Op, OpGenerator};
use std::sync::Arc;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Config {
    loaded: usize,
    ops_per_thread: usize,
    out_path: String,
    smoke: bool,
}

fn config() -> Config {
    let (smoke, out_path) = bench_args("serve");
    Config {
        loaded: if smoke { 2_000 } else { 20_000 },
        ops_per_thread: if smoke { 1_500 } else { 15_000 },
        out_path,
        smoke,
    }
}

fn loaded_key(i: usize) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

fn reserve_key(i: usize) -> Vec<u8> {
    format!("zres{i:08}").into_bytes()
}

fn loaded_value(i: usize) -> Vec<u8> {
    format!("base-{i:08}-payload").into_bytes()
}

fn updated_value(thread: usize, i: usize) -> Vec<u8> {
    format!("upd{thread}-{i:08}-payload").into_bytes()
}

/// A value for loaded key `i` is plausible iff it is the load-phase
/// value or some client's overwrite of exactly that key.
fn plausible(i: usize, v: &[u8]) -> bool {
    let suffix = format!("-{i:08}-payload");
    v.ends_with(suffix.as_bytes()) && (v.starts_with(b"base-") || v.starts_with(b"upd"))
}

struct Line {
    threads: usize,
    mops: f64,
    p50_us: f64,
    p99_us: f64,
}

struct ConfigReport {
    name: &'static str,
    lines: Vec<Line>,
}

fn fresh_db(cfg: &Config) -> Arc<ShardedDb> {
    let sdb = ShardedDb::new(ServeOptions {
        shards: 4,
        db: DbOptions {
            memtable_bytes: 256 << 10,
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    });
    for i in 0..cfg.loaded {
        sdb.put(&loaded_key(i), &loaded_value(i)).unwrap();
    }
    sdb.barrier().unwrap();
    Arc::new(sdb)
}

/// One (mix, dist, threads) cell: spawn the clients, drive `ops` each,
/// time every operation, and gate the answers as we go.
fn run_cell(
    sdb: &Arc<ShardedDb>,
    mix: Mix,
    dist: Dist,
    threads: usize,
    ops: usize,
    loaded: usize,
) -> Line {
    let started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let sdb = Arc::clone(sdb);
            std::thread::spawn(move || {
                let mut gen = OpGenerator::with_dist(mix, loaded, 0x5eed + t as u64, dist);
                let mut lat = Vec::with_capacity(ops);
                let mut written: Vec<(usize, usize)> = Vec::new();
                for _ in 0..ops {
                    let op = gen.next();
                    let op_start = Instant::now();
                    match op {
                        Op::Read(i) => {
                            if let Some(v) = sdb.get(&loaded_key(i)) {
                                assert!(plausible(i, &v), "implausible value for key {i}");
                            } else {
                                panic!("loaded key {i} missing during storm");
                            }
                        }
                        Op::Update(i) => {
                            sdb.put(&loaded_key(i), &updated_value(t, i)).unwrap();
                            written.push((t, i));
                        }
                        Op::Insert(i) => {
                            sdb.put(&reserve_key(i), &updated_value(t, i)).unwrap();
                        }
                        Op::Scan(i, len) => {
                            let got = sdb.scan(&loaded_key(i), None, len);
                            assert!(got.len() <= len, "scan overshot its limit");
                        }
                    }
                    lat.push(op_start.elapsed().as_nanos() as u64);
                }
                (lat, written)
            })
        })
        .collect();
    let mut lat = Vec::with_capacity(threads * ops);
    let mut written = Vec::new();
    for w in workers {
        let (l, wr) = w.join().unwrap();
        lat.extend(l);
        written.extend(wr);
    }
    let elapsed = started.elapsed();

    // Gate: after a quiesce barrier, each client's last overwrite per key
    // is *a* plausible overwrite of that key (clients race, so exact
    // last-writer is undefined across threads — plausibility is not).
    sdb.barrier().unwrap();
    for &(_, i) in written.iter().rev().take(64) {
        let v = sdb.get(&loaded_key(i)).unwrap_or_else(|| panic!("acked update to {i} lost"));
        assert!(plausible(i, &v), "post-quiesce value for key {i} implausible");
    }

    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    Line {
        threads,
        mops: (threads * ops) as f64 / elapsed.as_secs_f64() / 1e6,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

fn run_config(
    cfg: &Config,
    name: &'static str,
    mix: Mix,
    dist: Dist,
) -> ConfigReport {
    // Scans merge 50-100 entries per op; keep their op count proportionate.
    let ops = if mix == Mix::E { cfg.ops_per_thread / 10 } else { cfg.ops_per_thread };
    let mut lines = Vec::new();
    for &threads in &THREADS {
        let sdb = fresh_db(cfg);
        let line = run_cell(&sdb, mix, dist, threads, ops, cfg.loaded);
        println!(
            "{name:<20} {threads} thread{} {:>8.3} Mops/s   p50 {:>7.1} us   p99 {:>7.1} us",
            if threads == 1 { " " } else { "s" },
            line.mops,
            line.p50_us,
            line.p99_us
        );
        lines.push(line);
        Arc::try_unwrap(sdb).ok().expect("clients joined").close().unwrap();
    }
    ConfigReport { name, lines }
}

/// The reader-scaling gate only means something with real cores under
/// it; on a 1-core host every extra thread is pure context switching.
fn scaling_gate(reports: &[ConfigReport], enforced: bool) {
    let uniform = reports
        .iter()
        .find(|r| r.name == "read_heavy_uniform")
        .expect("uniform read-heavy config missing");
    let at = |t: usize| {
        uniform
            .lines
            .iter()
            .find(|l| l.threads == t)
            .expect("thread count missing")
            .mops
    };
    let ratio = at(4) / at(1);
    if enforced {
        assert!(
            ratio >= 2.5,
            "reader scaling gate: uniform read-heavy 1->4 threads must reach \
             2.5x, got {ratio:.2}x ({:.3} -> {:.3} Mops/s)",
            at(1),
            at(4)
        );
        println!("scaling gate       1->4 threads {ratio:.2}x >= 2.5x (enforced)");
    } else {
        println!("scaling gate       1->4 threads {ratio:.2}x (not enforced: <4 cores)");
    }
}

/// Results of the three overload sections (see `run_overload`); every
/// field lands in the JSON and several are gated.
struct OverloadReport {
    stall_writes: usize,
    backpressure_rejections: u64,
    stall_rejections: u64,
    compact_steps: u64,
    overload_retries: u64,
    shed_attempts: usize,
    shed: u64,
    shed_rate: f64,
    max_queue_depth: u64,
    queue_depth_limit: usize,
    slow_ops: usize,
    p50_virtual_us: u64,
    p99_under_slow_io_us: u64,
    slow_io_delay_us: u64,
}

/// Section 1 — write stalls: bands armed tighter than the compaction
/// trigger force typed `Backpressure`/`Stalled` rejections that the
/// serve layer retries (with debt drains) until every write lands.
/// Gated: the engine must actually have rejected, and the retries must
/// actually have run.
fn run_stall_section(cfg: &Config) -> (usize, u64, u64, u64, u64) {
    let sdb = Arc::new(ShardedDb::new(ServeOptions {
        shards: 2,
        db: DbOptions {
            memtable_bytes: 2 << 10,
            ..DbOptions::default()
        },
        // The memtable stop band sits *below* the flush threshold, so the
        // gate is scheduling-independent: nothing drains a memtable except
        // the write path or an explicit flush, so every crossing of the
        // band must reject a write with a typed `Stalled` that the serve
        // layer relieves (flush), retries, and lands. The L0 band at 1 run
        // additionally converts compaction lag into `Backpressure` that
        // the relief's compact_debt drains.
        stall: Some(StallConfig {
            slowdown_l0_runs: 1,
            stop_l0_runs: 4,
            slowdown_memtable_bytes: 1 << 10,
            stop_memtable_bytes: 1 << 10,
        }),
        retry_attempts: 64,
        ..ServeOptions::default()
    }));
    let writes = if cfg.smoke { 600 } else { 4_000 };
    let threads = 8usize;
    let per_thread = writes / threads;
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let sdb = Arc::clone(&sdb);
            std::thread::spawn(move || {
                for i in (t * per_thread)..((t + 1) * per_thread) {
                    sdb.put(&loaded_key(i), &loaded_value(i)).unwrap_or_else(|e| {
                        panic!("stall section: write {i} exhausted retries: {e:?}")
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let sdb = Arc::try_unwrap(sdb).ok().expect("writers joined");
    sdb.barrier().unwrap();
    let stats = sdb.stats();
    let db_stats = sdb.shard_db_stats().unwrap();
    let (mut bp, mut st, mut steps) = (0u64, 0u64, 0u64);
    for s in &db_stats {
        bp += s.backpressure_rejections;
        st += s.stall_rejections;
        steps += s.compact_steps;
    }
    assert!(
        bp + st > 0,
        "stall gate: bands this tight must reject at least once ({db_stats:?})"
    );
    assert!(
        stats.overload_retries > 0,
        "stall gate: rejected writes must have been retried ({stats:?})"
    );
    // Spot-check: rejected-then-retried writes still all landed.
    for i in (0..writes).step_by(97) {
        assert_eq!(
            sdb.get(&loaded_key(i)),
            Some(loaded_value(i)),
            "stall gate: acked write {i} lost under backpressure"
        );
    }
    sdb.close().unwrap();
    (writes, bp, st, steps, stats.overload_retries)
}

/// Section 2 — admission control: more clients than queue slots under a
/// seeded slow-I/O storm. Gated: some requests must have been shed at
/// admission, and the queue depth must stay bounded (shedding, not
/// buffering, absorbs the overload).
fn run_shed_section(cfg: &Config) -> (usize, u64, f64, u64, usize) {
    let queue_depth = 2usize;
    let threads = 8usize;
    let per_thread = if cfg.smoke { 300 } else { 2_000 };
    let sdb = Arc::new(ShardedDb::new(ServeOptions {
        shards: 2,
        queue_depth,
        retry_attempts: 64,
        db: DbOptions {
            memtable_bytes: 4 << 10,
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    }));
    sdb.disk_handle().set_slow_io(Some(SlowIo::storm(0xBEEF)));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let sdb = Arc::clone(&sdb);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let k = format!("shed{t}-{i:06}").into_bytes();
                    sdb.put(&k, b"overload-payload").unwrap_or_else(|e| {
                        panic!("shed section: write {t}/{i} exhausted retries: {e:?}")
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = sdb.stats();
    let attempts = threads * per_thread;
    let shed_rate = stats.shed as f64 / attempts as f64;
    assert!(
        stats.shed > 0,
        "shed gate: {threads} clients against {queue_depth} queue slots must shed ({stats:?})"
    );
    let bound = queue_depth + threads;
    assert!(
        stats.max_queue_depth <= bound,
        "shed gate: queue depth {} exceeded bound {bound} — admission control leaked",
        stats.max_queue_depth
    );
    sdb.disk_handle().set_slow_io(None);
    let stats_depth = stats.max_queue_depth as u64;
    Arc::try_unwrap(sdb).ok().expect("clients joined").close().unwrap();
    (attempts, stats.shed, shed_rate, stats_depth, queue_depth)
}

/// Section 3 — tail latency under a slow-I/O storm, measured on the
/// virtual disk clock (the same clock deadlines run on). Gated: the
/// storm must actually have delayed I/O, and p99 must come out finite.
fn run_slow_io_section(cfg: &Config) -> (usize, u64, u64, u64) {
    let sdb = ShardedDb::new(ServeOptions {
        shards: 2,
        db: DbOptions {
            memtable_bytes: 64 << 10,
            cache_blocks: 16,
            ..DbOptions::default()
        },
        ..ServeOptions::default()
    });
    let loaded = if cfg.smoke { 1_000 } else { 6_000 };
    for i in 0..loaded {
        sdb.put(&loaded_key(i), &loaded_value(i)).unwrap();
    }
    sdb.flush_all().unwrap();
    sdb.barrier().unwrap();
    let disk = sdb.disk_handle();
    let delay_before = disk.stats().slow_io_delay_us;
    disk.set_slow_io(Some(SlowIo::storm(0x570a)));
    let ops = if cfg.smoke { 400 } else { 3_000 };
    let mut lat = Vec::with_capacity(ops);
    let mut state = 0x5eed_u64;
    for i in 0..ops {
        let k = loaded_key((memtree_common::hash::splitmix64(&mut state) % loaded as u64) as usize);
        let t0 = disk.now_us();
        if i % 4 == 0 {
            sdb.put(&k, b"storm-overwrite-payload").unwrap();
        } else {
            sdb.get_fresh(&k).unwrap();
        }
        lat.push(disk.now_us().saturating_sub(t0));
    }
    let delayed = disk.stats().slow_io_delay_us - delay_before;
    assert!(delayed > 0, "slow-io gate: the storm never delayed an I/O");
    disk.set_slow_io(None);
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    assert!(
        p99 < 60_000_000,
        "slow-io gate: p99 {p99} virtual us is not a finite tail — requests wedged"
    );
    sdb.close().unwrap();
    (ops, p50, p99, delayed)
}

fn run_overload(cfg: &Config) -> OverloadReport {
    let (stall_writes, bp, st, steps, retries) = run_stall_section(cfg);
    println!(
        "stall               {stall_writes} writes: {bp} backpressure + {st} stalled \
         rejections, {steps} drain steps, {retries} transparent retries"
    );
    let (attempts, shed, shed_rate, max_depth, limit) = run_shed_section(cfg);
    println!(
        "shed                {attempts} attempts: {shed} shed ({:.2}%), max queue depth \
         {max_depth} (limit {limit})",
        shed_rate * 100.0
    );
    let (ops, p50, p99, delayed) = run_slow_io_section(cfg);
    println!(
        "slow-io storm       {ops} ops: p50 {p50} / p99 {p99} virtual us \
         ({delayed} us of injected delay)"
    );
    OverloadReport {
        stall_writes,
        backpressure_rejections: bp,
        stall_rejections: st,
        compact_steps: steps,
        overload_retries: retries,
        shed_attempts: attempts,
        shed,
        shed_rate,
        max_queue_depth: max_depth,
        queue_depth_limit: limit,
        slow_ops: ops,
        p50_virtual_us: p50,
        p99_under_slow_io_us: p99,
        slow_io_delay_us: delayed,
    }
}

fn write_json(
    cfg: &Config,
    reports: &[ConfigReport],
    overload: &OverloadReport,
    parallelism: usize,
    enforced: bool,
) {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\n    \"loaded\": {},\n    \"ops_per_thread\": {},\n    \"smoke\": {},\n    \"shards\": 4,\n    \"parallelism\": {},\n    \"scaling_gate_enforced\": {},\n    \"note\": \"closed-loop YCSB clients over ShardedDb; every op timed for p50/p99; scaling gate (1->4 threads >= 2.5x on uniform read-heavy) enforced only with >= 4 cores\"\n  }},\n",
        cfg.loaded, cfg.ops_per_thread, cfg.smoke, parallelism, enforced
    ));
    json.push_str("  \"configs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!("    {{\n      \"config\": \"{}\",\n      \"lines\": [\n", r.name));
        for (j, l) in r.lines.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"threads\": {}, \"mops\": {:.4}, \"p50_us\": {:.2}, \"p99_us\": {:.2} }}{}\n",
                l.threads, l.mops, l.p50_us, l.p99_us,
                if j + 1 < r.lines.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!("      ]\n    }}{}\n", if i + 1 < reports.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"stall\": {{\n    \"writes\": {},\n    \"backpressure_rejections\": {},\n    \"stall_rejections\": {},\n    \"compact_steps\": {},\n    \"overload_retries\": {}\n  }},\n",
        overload.stall_writes,
        overload.backpressure_rejections,
        overload.stall_rejections,
        overload.compact_steps,
        overload.overload_retries
    ));
    json.push_str(&format!(
        "  \"shed\": {{\n    \"attempts\": {},\n    \"shed\": {},\n    \"shed_rate\": {:.6},\n    \"max_queue_depth\": {},\n    \"queue_depth_limit\": {}\n  }},\n",
        overload.shed_attempts,
        overload.shed,
        overload.shed_rate,
        overload.max_queue_depth,
        overload.queue_depth_limit
    ));
    json.push_str(&format!(
        "  \"slow_io\": {{\n    \"ops\": {},\n    \"p50_virtual_us\": {},\n    \"p99_under_slow_io\": {},\n    \"slow_io_delay_us\": {}\n  }}\n",
        overload.slow_ops,
        overload.p50_virtual_us,
        overload.p99_under_slow_io_us,
        overload.slow_io_delay_us
    ));
    json.push_str("}\n");

    write_report(
        &cfg.out_path,
        &json,
        &[
            "\"meta\"", "\"loaded\"", "\"ops_per_thread\"", "\"smoke\"", "\"shards\"",
            "\"parallelism\"", "\"scaling_gate_enforced\"", "\"configs\"", "\"config\"",
            "\"lines\"", "\"threads\"", "\"mops\"", "\"p50_us\"", "\"p99_us\"",
            "\"stall\"", "\"backpressure_rejections\"", "\"stall_rejections\"",
            "\"compact_steps\"", "\"overload_retries\"", "\"shed\"", "\"shed_rate\"",
            "\"max_queue_depth\"", "\"slow_io\"", "\"p99_under_slow_io\"",
            "\"slow_io_delay_us\"",
        ],
    );
}

fn main() {
    let cfg = config();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let enforced = parallelism >= 4 && !cfg.smoke;
    let reports = vec![
        run_config(&cfg, "read_heavy_uniform", Mix::B, Dist::Uniform),
        run_config(&cfg, "read_heavy_zipfian", Mix::B, Dist::Zipfian),
        run_config(&cfg, "write_heavy_zipfian", Mix::A, Dist::Zipfian),
        run_config(&cfg, "scan_insert_zipfian", Mix::E, Dist::Zipfian),
    ];
    scaling_gate(&reports, enforced);
    let overload = run_overload(&cfg);
    write_json(&cfg, &reports, &overload, parallelism, enforced);
}
