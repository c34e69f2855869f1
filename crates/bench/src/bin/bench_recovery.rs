//! Durability-cost benchmark, written to `BENCH_recovery.json`.
//!
//! Three questions, all answered with the simulator's exact counters plus
//! wall-clock time:
//!
//! 1. **What does the WAL cost on the write path?** The same insert
//!    workload runs with the WAL off and with group commit 1 / 8 / 64.
//!    Reported: throughput, sync barriers, WAL bytes, and write
//!    amplification (WAL bytes per logical byte — the CRC frame and key
//!    length add a fixed overhead per record).
//! 2. **What does recovery cost?** For each filter kind the same database
//!    is closed cleanly and reopened; recovery time and the block reads
//!    paid to restore filters are reported. Filters persist as one image
//!    block per table, so a clean reopen loads every filter in **O(tables)
//!    meta-sized reads** instead of re-scanning every data block — gated
//!    at `block_reads ≤ 2 × tables`, with every image accounted for.
//! 3. **What survives a crash?** Deterministic gates, enforced in smoke
//!    mode too: a clean shutdown replays **zero** WAL records, and a torn
//!    power-loss recovery loses **only the unsynced suffix** (< one group
//!    commit window), never an acknowledged record.
//!
//! Run from the repo root:
//! `cargo run -p memtree-bench --release --bin bench_recovery`

use memtree_bench::{bench_args, mops, time, write_report};
use memtree_common::key::encode_u64;
use memtree_lsm::{Db, DbOptions, FilterKind};

struct Config {
    n_keys: usize,
    out_path: String,
    smoke: bool,
}

fn config() -> Config {
    let (smoke, out_path) = bench_args("recovery");
    Config {
        n_keys: if smoke { 20_000 } else { 120_000 },
        out_path,
        smoke,
    }
}

fn key_of(i: u64) -> [u8; 8] {
    encode_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) // scattered inserts
}

const VALUE: &[u8] = b"ten-bytes!";

fn opts(filter: FilterKind, wal: bool, group: usize) -> DbOptions {
    DbOptions {
        memtable_bytes: 64 << 10,
        filter,
        wal,
        wal_group_commit: group,
        ..Default::default()
    }
}

struct WalLine {
    name: &'static str,
    wal: bool,
    group: usize,
    mops: f64,
    syncs: u64,
    wal_bytes: u64,
    logical_bytes: u64,
    write_amp: f64,
}

/// The same insert workload under each durability setting.
fn bench_wal_overhead(cfg: &Config) -> Vec<WalLine> {
    let configs: [(&'static str, bool, usize); 4] = [
        ("wal_off", false, 1),
        ("group_1", true, 1),
        ("group_8", true, 8),
        ("group_64", true, 64),
    ];
    let mut lines = Vec::new();
    for (name, wal, group) in configs {
        let mut db = Db::new(opts(FilterKind::None, wal, group));
        let elapsed = time(|| {
            for i in 0..cfg.n_keys as u64 {
                db.put(&key_of(i), VALUE).unwrap();
            }
        });
        let rate = mops(cfg.n_keys, elapsed);
        let w = db.wal_stats();
        let logical = (cfg.n_keys * (8 + VALUE.len())) as u64;
        let line = WalLine {
            name,
            wal,
            group,
            mops: rate,
            syncs: db.io_stats().syncs,
            wal_bytes: w.appended_bytes,
            logical_bytes: logical,
            write_amp: w.appended_bytes as f64 / logical as f64,
        };
        println!(
            "{name:<9} {:>8.3} Mops/s  {:>8} syncs  {:>9} WAL bytes  amp {:.2}",
            line.mops, line.syncs, line.wal_bytes, line.write_amp
        );
        lines.push(line);
    }
    lines
}

struct RecoveryLine {
    kind: &'static str,
    open_ms: f64,
    replayed: u64,
    block_reads: u64,
    tables: u64,
    filters_loaded: u64,
}

/// Clean-shutdown recovery cost per filter kind. Persistent filter
/// images make this O(tables): the gate holds reopen to at most two
/// block reads per table (the filter image, plus slack for an index
/// probe) and requires every filter to come from its image, none from a
/// data-block rebuild.
fn bench_recovery_time(cfg: &Config) -> Vec<RecoveryLine> {
    let kinds: [(FilterKind, &'static str); 3] = [
        (FilterKind::None, "none"),
        (FilterKind::Bloom(14.0), "bloom14"),
        (FilterKind::SurfReal(8), "surf_real8"),
    ];
    let mut lines = Vec::new();
    for (filter, kind) in kinds {
        let o = opts(filter, true, 8);
        let mut db = Db::new(o.clone());
        for i in 0..cfg.n_keys as u64 {
            db.put(&key_of(i), VALUE).unwrap();
        }
        let disk = db.close().expect("clean close");
        disk.reset_stats();
        let mut reopened = None;
        let elapsed = time(|| {
            reopened = Some(Db::open(disk.clone(), o.clone()).expect("clean reopen"));
        });
        let db = reopened.unwrap();
        let w = db.wal_stats();
        assert_eq!(
            w.replayed_records, 0,
            "{kind}: clean shutdown must replay zero WAL records"
        );
        let tables: usize = db.level_sizes().iter().sum();
        let block_reads = db.io_stats().block_reads;
        assert!(
            block_reads <= 2 * tables as u64,
            "{kind}: reopen read {block_reads} blocks for {tables} tables — \
             persistent filter images should make recovery O(tables)"
        );
        if !matches!(filter, FilterKind::None) {
            assert_eq!(
                db.filters_loaded() as usize, tables,
                "{kind}: every filter should load from its persisted image"
            );
            assert_eq!(db.filters_rebuilt(), 0, "{kind}: no filter should need a data-block rebuild");
        }
        let line = RecoveryLine {
            kind,
            open_ms: elapsed.as_secs_f64() * 1e3,
            replayed: w.replayed_records,
            block_reads,
            tables: tables as u64,
            filters_loaded: db.filters_loaded(),
        };
        println!(
            "recover {kind:<11} {:>8.2} ms  {:>3} replayed  {:>7} block reads  ({} tables, {} filters from images)",
            line.open_ms, line.replayed, line.block_reads, line.tables, line.filters_loaded
        );
        lines.push(line);
    }
    lines
}

struct TornReport {
    group: usize,
    issued: u64,
    acked: u64,
    recovered: u64,
    lost: u64,
    replayed: u64,
    torn_truncated: u64,
}

/// Power loss mid-workload with a torn final write: the acknowledged
/// prefix must survive, and only the unsynced suffix may be lost.
fn bench_torn_tail() -> TornReport {
    let group = 8usize;
    // Large memtable: everything rides on the WAL, nothing is flushed —
    // the hardest case for recovery.
    let o = DbOptions {
        memtable_bytes: 1 << 22,
        wal_group_commit: group,
        ..Default::default()
    };
    let issued = 10_001u64; // deliberately not a multiple of the group
    let mut db = Db::new(o.clone());
    for i in 0..issued {
        db.put(&key_of(i), VALUE).unwrap();
    }
    let acked = db.last_synced_seq();
    let disk = db.disk_handle();
    drop(db);
    disk.crash(Some(0xC0FFEE)); // tear the in-flight tail append

    let db = Db::open(disk, o).expect("torn-tail recovery");
    let recovered = db.last_seq();
    let w = db.wal_stats();
    assert!(
        recovered >= acked && recovered <= issued,
        "recovered {recovered} outside [acked {acked}, issued {issued}]"
    );
    let lost = issued - recovered;
    assert!(
        (lost as usize) < group,
        "lost {lost} records — more than one group-commit window ({group})"
    );
    for i in 0..recovered {
        assert_eq!(
            db.get(&key_of(i)).as_deref(),
            Some(VALUE),
            "acknowledged record {i} lost"
        );
    }
    for i in recovered..issued {
        assert_eq!(db.get(&key_of(i)), None, "phantom record {i}");
    }
    let report = TornReport {
        group,
        issued,
        acked,
        recovered,
        lost,
        replayed: w.replayed_records,
        torn_truncated: w.torn_tail_truncated,
    };
    println!(
        "torn tail: issued {issued}, acked {acked}, recovered {recovered}, lost {lost} (< group {group})"
    );
    report
}

fn enforce_gates(wal: &[WalLine]) {
    let by = |n: &str| wal.iter().find(|l| l.name == n).unwrap();
    // Group commit amortizes the sync barrier.
    assert!(
        by("group_64").syncs < by("group_1").syncs,
        "group commit must reduce sync barriers ({} vs {})",
        by("group_64").syncs,
        by("group_1").syncs
    );
    // Same records → same WAL bytes regardless of grouping.
    assert_eq!(
        by("group_1").wal_bytes,
        by("group_64").wal_bytes,
        "grouping changes sync cadence, not log content"
    );
    // Framing overhead is bounded: header (16 B) + key length (4 B) on an
    // 18-byte logical record ≈ 2.1×.
    let amp = by("group_1").write_amp;
    assert!(
        amp > 1.0 && amp < 3.0,
        "WAL write amplification {amp:.2} outside sane bounds"
    );
    assert_eq!(by("wal_off").wal_bytes, 0, "disabled WAL must write nothing");
}

fn write_json(cfg: &Config, wal: &[WalLine], rec: &[RecoveryLine], torn: &TornReport) {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\n    \"n_keys\": {},\n    \"smoke\": {},\n    \"note\": \"WAL write-path overhead, clean-shutdown recovery cost per filter kind, and torn-tail crash-recovery gates on the simulated disk\"\n  }},\n",
        cfg.n_keys, cfg.smoke
    ));
    json.push_str("  \"wal_overhead\": [\n");
    for (i, l) in wal.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"config\": \"{}\", \"wal\": {}, \"group_commit\": {}, \"mops\": {:.3}, \"syncs\": {}, \"wal_bytes\": {}, \"logical_bytes\": {}, \"write_amp\": {:.3} }}{}\n",
            l.name, l.wal, l.group, l.mops, l.syncs, l.wal_bytes, l.logical_bytes, l.write_amp,
            if i + 1 < wal.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"recovery\": [\n");
    for (i, l) in rec.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kind\": \"{}\", \"open_ms\": {:.3}, \"replayed_records\": {}, \"block_reads\": {}, \"tables\": {}, \"filters_loaded\": {} }}{}\n",
            l.kind, l.open_ms, l.replayed, l.block_reads, l.tables, l.filters_loaded,
            if i + 1 < rec.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"torn_tail\": {{ \"group_commit\": {}, \"issued\": {}, \"acked\": {}, \"recovered\": {}, \"lost\": {}, \"replayed_records\": {}, \"torn_tail_truncated\": {} }}\n",
        torn.group, torn.issued, torn.acked, torn.recovered, torn.lost, torn.replayed,
        torn.torn_truncated
    ));
    json.push_str("}\n");

    write_report(
        &cfg.out_path,
        &json,
        &[
            "\"meta\"", "\"n_keys\"", "\"smoke\"", "\"wal_overhead\"", "\"config\"",
            "\"group_commit\"", "\"mops\"", "\"syncs\"", "\"wal_bytes\"", "\"write_amp\"",
            "\"recovery\"", "\"kind\"", "\"open_ms\"", "\"replayed_records\"", "\"block_reads\"",
            "\"tables\"", "\"filters_loaded\"",
            "\"torn_tail\"", "\"issued\"", "\"acked\"", "\"recovered\"", "\"lost\"",
            "\"torn_tail_truncated\"",
        ],
    );
}

fn main() {
    let cfg = config();
    let wal = bench_wal_overhead(&cfg);
    let rec = bench_recovery_time(&cfg);
    let torn = bench_torn_tail();
    enforce_gates(&wal);
    write_json(&cfg, &wal, &rec, &torn);
}
