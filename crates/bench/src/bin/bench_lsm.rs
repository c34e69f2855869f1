//! Batched LSM read-path benchmark, written to `BENCH_lsm.json`.
//!
//! For every filter configuration (None / Bloom / SuRF-Hash / SuRF-Real /
//! SuRF-Mixed) the same negative-lookup workload runs twice: a per-key
//! `get` loop and chunked `multi_get` at several batch sizes. Because the
//! disk simulator counts every block read and the engine counts every
//! filter probe, the comparison is exact, not just a wall-clock race:
//! batching must perform **fewer filter passes** (one batch descent per
//! table instead of one per key) and **no more block fetches** (sorted
//! survivors share candidate blocks).
//!
//! Correctness gates run before any timing and in `--smoke` mode too:
//! `multi_get` must equal the per-key loop and `multi_scan` must equal a
//! per-range seek/next_after walk, on probe sets mixing hits, misses and
//! duplicates. The counter assertions (batched ≤ per-key everywhere;
//! strictly fewer filter passes and aggregate block fetches at batch ≥ 64)
//! also always run — they are deterministic, not timing-dependent.
//!
//! A second section sweeps the **compaction policy**: the same
//! overwrite-heavy load and the same point-read probe run under leveled
//! and tiered compaction, and the exact block counters give each policy's
//! write / read / space amplification. Plausibility gates (tiered writes
//! strictly fewer blocks, leveled reads strictly fewer blocks) are
//! deterministic and run in `--smoke` mode too.
//!
//! Run from the repo root:
//! `cargo run -p memtree-bench --release --bin bench_lsm`

use memtree_bench::{bench_args, mops, time, write_report};
use memtree_common::key::encode_u64;
use memtree_lsm::{CompactionConfig, Db, DbOptions, FilterKind, SeekResult};
use std::time::Duration;

struct Config {
    n_keys: usize,
    n_probes: usize,
    runs: usize,
    out_path: String,
    smoke: bool,
}

fn config() -> Config {
    let (smoke, out_path) = bench_args("lsm");
    if smoke {
        Config {
            n_keys: 6_000,
            n_probes: 3_000,
            runs: 1,
            out_path,
            smoke,
        }
    } else {
        Config {
            n_keys: 150_000,
            n_probes: 60_000,
            runs: 3,
            out_path,
            smoke,
        }
    }
}

fn kinds() -> [(FilterKind, &'static str); 5] {
    [
        (FilterKind::None, "none"),
        (FilterKind::Bloom(14.0), "bloom14"),
        (FilterKind::SurfHash(8), "surf_hash8"),
        (FilterKind::SurfReal(8), "surf_real8"),
        (FilterKind::SurfMixed(4, 4), "surf_mixed4_4"),
    ]
}

/// Best-of-runs duration (min rejects scheduler noise).
fn best<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    (0..runs).map(|_| time(&mut f)).min().unwrap()
}

/// Stored keys are `i << 12`, so `(j << 12) | 777` is always a miss that
/// falls inside the table range (the interesting negative-lookup case —
/// fence indexes alone can't reject it, only a filter can).
fn stored_key(i: u64) -> [u8; 8] {
    encode_u64(i << 12)
}

fn negative_key(i: u64) -> [u8; 8] {
    encode_u64((i << 12) | 777)
}

fn build_db(cfg: &Config, filter: FilterKind) -> Db {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 32 << 10, // many flushes: leveled shape, several tables
        cache_blocks: 0,          // every block fetch hits the simulated disk
        filter,
        ..Default::default()
    });
    for i in 0..cfg.n_keys as u64 {
        db.put(&stored_key(i), b"valuevalue").unwrap();
    }
    db.flush().unwrap();
    db
}

/// Scattered *clusters* of in-range misses: bases hop around the
/// keyspace, and each cluster of 64 visits consecutive gaps in a
/// scrambled order (37 is coprime to 64, so `j * 37 mod 64` permutes the
/// cluster). Clustering is what makes block sharing possible at all —
/// with one probe per ~2000 stored keys no batch size puts two probes in
/// the same data block — while the scrambled order leaves the batched
/// path real sorting work.
fn negative_probes(cfg: &Config) -> Vec<[u8; 8]> {
    let n = cfg.n_keys as u64;
    (0..cfg.n_probes as u64)
        .map(|i| {
            let base = (i / 64) * 7919 % n;
            let offset = (i * 37) % 64;
            negative_key((base + offset) % n)
        })
        .collect()
}

/// Hits, misses and duplicates interleaved, for the differential gates.
fn mixed_probes(cfg: &Config) -> Vec<[u8; 8]> {
    (0..cfg.n_probes as u64)
        .map(|i| match i % 4 {
            0 => stored_key((i * 31) % cfg.n_keys as u64),
            1 => negative_key((i * 13) % cfg.n_keys as u64),
            2 => stored_key(((i / 4) * 31) % cfg.n_keys as u64), // duplicate of a recent hit
            _ => encode_u64(u64::MAX - i),                       // out of range entirely
        })
        .collect()
}

fn check_differential(db: &Db, name: &str, probes: &[[u8; 8]]) {
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    let expect: Vec<Option<Vec<u8>>> = refs.iter().map(|k| db.get(k)).collect();
    for chunk in [1usize, 16, 64, 333] {
        let mut got = Vec::with_capacity(refs.len());
        for c in refs.chunks(chunk) {
            got.extend(db.multi_get(c));
        }
        assert_eq!(got, expect, "{name}: multi_get differs from per-key gets at chunk {chunk}");
    }

    // multi_scan against a per-range seek-then-next walk.
    let ranges: Vec<(&[u8], usize)> = refs
        .iter()
        .take(200)
        .enumerate()
        .map(|(i, k)| (*k, [0usize, 1, 8, 64][i % 4]))
        .collect();
    let want: Vec<Vec<Vec<u8>>> = ranges
        .iter()
        .map(|&(low, n)| {
            let mut acc: Vec<Vec<u8>> = Vec::new();
            if n == 0 {
                return acc;
            }
            let mut cur = match db.seek(low, None) {
                SeekResult::Found { key } => Some(key),
                SeekResult::NotFound => None,
            };
            while let Some(k) = cur.take() {
                acc.push(k);
                if acc.len() == n {
                    break;
                }
                cur = match db.next_after(acc.last().unwrap(), None) {
                    SeekResult::Found { key } => Some(key),
                    SeekResult::NotFound => None,
                };
            }
            acc
        })
        .collect();
    assert_eq!(db.multi_scan(&ranges), want, "{name}: multi_scan differs from seek walk");
}

struct Counters {
    block_reads: u64,
    probe_passes: u64,
    keys_probed: u64,
}

/// Device block reads so far (measure a phase as a difference).
fn block_reads(db: &Db) -> u64 {
    db.disk_handle().stats().block_reads
}

/// Runs `f` once and returns what it cost, as before/after deltas.
fn counted<F: FnOnce()>(db: &Db, f: F) -> Counters {
    let (reads0, s0) = (block_reads(db), db.stats());
    f();
    let s = db.stats();
    Counters {
        block_reads: block_reads(db) - reads0,
        probe_passes: s.filter_probe_passes - s0.filter_probe_passes,
        keys_probed: s.filter_keys_probed - s0.filter_keys_probed,
    }
}

struct BatchLine {
    batch: usize,
    mops: f64,
    c: Counters,
}

struct KindReport {
    name: &'static str,
    tables: usize,
    per_key_mops: f64,
    per_key: Counters,
    batches: Vec<BatchLine>,
}

fn bench_kind(cfg: &Config, filter: FilterKind, name: &'static str) -> KindReport {
    let db = build_db(cfg, filter);
    check_differential(&db, name, &mixed_probes(cfg));

    let probes = negative_probes(cfg);
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();

    let per_key = counted(&db, || {
        let misses = refs.iter().filter(|k| db.get(k).is_none()).count();
        assert_eq!(misses, refs.len(), "{name}: negative probe unexpectedly hit");
    });
    let per_key_mops = mops(
        refs.len(),
        best(cfg.runs, || {
            let misses = refs.iter().filter(|k| db.get(k).is_none()).count();
            std::hint::black_box(misses);
        }),
    );

    let mut batches = Vec::new();
    for batch in [16usize, 64, 256] {
        let c = counted(&db, || {
            for chunk in refs.chunks(batch) {
                std::hint::black_box(db.multi_get(chunk).len());
            }
        });
        let rate = mops(
            refs.len(),
            best(cfg.runs, || {
                for chunk in refs.chunks(batch) {
                    std::hint::black_box(db.multi_get(chunk).len());
                }
            }),
        );
        batches.push(BatchLine { batch, mops: rate, c });
    }

    let report = KindReport {
        name,
        tables: db.level_sizes().iter().sum(),
        per_key_mops,
        per_key,
        batches,
    };
    println!(
        "{name:<14} {} tables  per-key {:>8.3} Mops/s  {:>7} reads  {:>7} passes",
        report.tables, report.per_key_mops, report.per_key.block_reads, report.per_key.probe_passes
    );
    for b in &report.batches {
        println!(
            "{:<14} batch {:>3}  {:>8.3} Mops/s  {:>7} reads  {:>7} passes  ({:.2}x)",
            "", b.batch, b.mops, b.c.block_reads, b.c.probe_passes, b.mops / report.per_key_mops
        );
    }
    report
}

fn enforce_gates(reports: &[KindReport]) {
    for r in reports {
        let has_filter = r.per_key.keys_probed > 0;
        for b in &r.batches {
            assert!(
                b.c.block_reads <= r.per_key.block_reads,
                "{}: batched gets at batch {} fetched more blocks ({} > {})",
                r.name, b.batch, b.c.block_reads, r.per_key.block_reads
            );
            if has_filter {
                assert_eq!(
                    b.c.keys_probed, r.per_key.keys_probed,
                    "{}: batch {} probed a different key set through the filters",
                    r.name, b.batch
                );
                if b.batch >= 64 {
                    assert!(
                        b.c.probe_passes < r.per_key.probe_passes,
                        "{}: batch {} should need strictly fewer filter passes ({} vs {})",
                        r.name, b.batch, b.c.probe_passes, r.per_key.probe_passes
                    );
                }
            }
        }
    }
    // Aggregate at batch >= 64: strictly fewer block fetches too. The
    // filterless configuration guarantees this (every probe fetches a
    // block per key, and sorted batches share candidate blocks).
    let (mut agg_per_key, mut agg_batched) = (0u64, 0u64);
    for r in reports {
        agg_per_key += r.per_key.block_reads;
        agg_batched += r.batches.iter().filter(|b| b.batch == 64).map(|b| b.c.block_reads).sum::<u64>();
    }
    assert!(
        agg_batched < agg_per_key,
        "batched negative lookups should fetch strictly fewer blocks overall ({agg_batched} vs {agg_per_key})"
    );
}

struct PolicyReport {
    name: &'static str,
    tables: usize,
    levels: Vec<usize>,
    block_writes: u64,
    write_amp: f64,
    probe_reads: u64,
    read_amp: f64,
    used_bytes: u64,
    space_amp: f64,
}

/// The same overwrite-heavy load under one compaction policy, with
/// in-range negative probes interleaved throughout. Filterless with the
/// cache off, so the block counters measure the *level shape* — how much
/// each policy rewrites on the way down and how many runs a lookup must
/// consult — not filter quality.
///
/// Two details make the comparison honest:
///
/// * keys arrive in a scrambled order (stride 7919), so every flushed run
///   spans the whole keyspace and a negative probe has to consult each
///   run that the policy has left standing;
/// * read amplification is sampled *during* the load, not after a final
///   collapse — tiered's stacked runs between merges are its steady
///   state, and a post-load snapshot can catch it at a momentary minimum
///   where both policies look identical. Each probe's cost is the
///   `block_reads` delta across the `get` call alone, so compaction's own
///   reads never pollute the read-amplification number.
fn bench_policy(cfg: &Config, compaction: CompactionConfig, name: &'static str) -> PolicyReport {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 8 << 10, // small memtable: many flushes, deep compaction churn
        cache_blocks: 0,
        filter: FilterKind::None,
        compaction,
        ..Default::default()
    });
    let n = cfg.n_keys as u64;
    let writes0 = db.disk_handle().stats().block_writes;
    let mut probes = 0u64;
    let mut probe_reads = 0u64;
    for round in 0..2u8 {
        let val = [b'0' + round; 10];
        for i in 0..n {
            db.put(&stored_key((i * 7919) % n), &val).unwrap();
            if i % 64 == 63 {
                let before = block_reads(&db);
                assert!(
                    db.get(&negative_key((i * 13) % n)).is_none(),
                    "{name}: negative probe unexpectedly hit"
                );
                probe_reads += block_reads(&db) - before;
                probes += 1;
            }
        }
    }
    db.flush().unwrap();
    let block_writes = db.disk_handle().stats().block_writes - writes0;
    let block_size = DbOptions::default().block_size as f64;
    // User payload: 2 generations of (8-byte key + 10-byte value).
    let user_bytes = (2 * n * 18) as f64;
    let live_bytes = (n * 18) as f64;

    // Correctness sweep (unmeasured): round 1 must win everywhere.
    let mut i = 0u64;
    while i < n {
        let got = db.get(&stored_key(i));
        assert_eq!(got.as_deref(), Some(&[b'1'; 10][..]), "{name}: overwrite lost at key {i}");
        i += 7;
    }

    let report = PolicyReport {
        name,
        tables: db.level_sizes().iter().sum(),
        levels: db.level_sizes(),
        block_writes,
        write_amp: block_writes as f64 * block_size / user_bytes,
        probe_reads,
        read_amp: probe_reads as f64 / probes as f64,
        used_bytes: db.disk_handle().used_bytes(),
        space_amp: db.disk_handle().used_bytes() as f64 / live_bytes,
    };
    println!(
        "policy {:<8} levels {:?}  write-amp {:>6.2} ({} blocks)  read-amp {:>5.2} ({} reads / {} interleaved probes)  space-amp {:>5.2}",
        report.name, report.levels, report.write_amp, report.block_writes,
        report.read_amp, report.probe_reads, probes, report.space_amp
    );
    report
}

/// The classic amplification trade-off, as strict counter inequalities on
/// an identical workload: tiered must *write* strictly fewer blocks
/// (no re-merge of the run below) and leveled must *read* strictly fewer
/// blocks (one disjoint run per level instead of a stack).
fn enforce_policy_gates(leveled: &PolicyReport, tiered: &PolicyReport) {
    assert!(
        tiered.block_writes < leveled.block_writes,
        "tiered compaction should have strictly lower write amplification ({} vs {} blocks written)",
        tiered.block_writes, leveled.block_writes
    );
    assert!(
        leveled.probe_reads < tiered.probe_reads,
        "leveled compaction should have strictly lower read amplification ({} vs {} blocks read)",
        leveled.probe_reads, tiered.probe_reads
    );
}

fn write_json(cfg: &Config, reports: &[KindReport], policies: &[PolicyReport]) {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\n    \"n_keys\": {},\n    \"n_probes\": {},\n    \"runs\": {},\n    \"smoke\": {},\n    \"note\": \"negative point lookups, per-key get loop vs chunked multi_get; cache disabled so block_reads counts every fetch\"\n  }},\n",
        cfg.n_keys, cfg.n_probes, cfg.runs, cfg.smoke
    ));
    json.push_str("  \"kinds\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"kind\": \"{}\",\n      \"tables\": {},\n      \"per_key\": {{ \"mops\": {:.3}, \"block_reads\": {}, \"probe_passes\": {}, \"keys_probed\": {} }},\n      \"batches\": [\n",
            r.name, r.tables, r.per_key_mops, r.per_key.block_reads,
            r.per_key.probe_passes, r.per_key.keys_probed
        ));
        for (j, b) in r.batches.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"batch\": {}, \"mops\": {:.3}, \"block_reads\": {}, \"probe_passes\": {}, \"keys_probed\": {} }}{}\n",
                b.batch, b.mops, b.c.block_reads, b.c.probe_passes, b.c.keys_probed,
                if j + 1 < r.batches.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "      ]\n    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"policies\": [\n");
    for (i, p) in policies.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"policy\": \"{}\", \"tables\": {}, \"levels\": {:?}, \"block_writes\": {}, \"write_amp\": {:.3}, \"probe_reads\": {}, \"read_amp\": {:.3}, \"used_bytes\": {}, \"space_amp\": {:.3} }}{}\n",
            p.name, p.tables, p.levels, p.block_writes, p.write_amp,
            p.probe_reads, p.read_amp, p.used_bytes, p.space_amp,
            if i + 1 < policies.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    write_report(
        &cfg.out_path,
        &json,
        &[
            "\"meta\"", "\"n_keys\"", "\"n_probes\"", "\"smoke\"", "\"kinds\"", "\"kind\"",
            "\"tables\"", "\"per_key\"", "\"batches\"", "\"batch\"", "\"mops\"",
            "\"block_reads\"", "\"probe_passes\"", "\"keys_probed\"",
            "\"policies\"", "\"policy\"", "\"block_writes\"", "\"write_amp\"",
            "\"read_amp\"", "\"space_amp\"", "\"used_bytes\"",
        ],
    );
}

fn main() {
    let cfg = config();
    let reports: Vec<KindReport> =
        kinds().iter().map(|&(filter, name)| bench_kind(&cfg, filter, name)).collect();
    enforce_gates(&reports);
    let leveled = bench_policy(&cfg, CompactionConfig::Leveled { fanout: 10 }, "leveled");
    let tiered = bench_policy(&cfg, CompactionConfig::Tiered { tiers_per_level: 3 }, "tiered");
    enforce_policy_gates(&leveled, &tiered);
    write_json(&cfg, &reports, &[leveled, tiered]);
}
