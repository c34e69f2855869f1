//! Robustness-cost benchmark, written to `BENCH_faults.json`.
//!
//! Four questions, all on exact production paths:
//!
//! 1. **What does checksummed block framing cost?** Static-stage (merge)
//!    build and uncached point reads through `CompressedBTree` with the
//!    CRC32C frame on vs off, plus the raw codec. The unframed variants
//!    exist only here; every production block stays framed.
//! 2. **How fast does scrub verify a database?** `Db::scrub` walks every
//!    manifest-live block plus the WAL and manifest; reported as GB/s of
//!    block data verified. Gate: an undamaged database scrubs fully clean.
//! 3. **What do degraded reads cost?** The same zipfian point-read
//!    workload against a healthy Bloom-filtered database and against the
//!    same database after latent corruption forced one table filterless —
//!    the read tax of graceful degradation.
//! 4. **Is `Enospc` recovery clean?** Fill to a capacity limit, verify the
//!    typed error, verify failing flushes leak nothing across attempts,
//!    then lift the limit and time the retry to success.
//!
//! Run from the repo root: `cargo run -p memtree-bench --release --bin
//! bench_faults` (`--smoke` for the CI-sized run, `--out PATH` to write
//! the JSON elsewhere).

use memtree_bench::{bench_args, mops, time, write_report};
use memtree_btree::CompressedBTree;
use memtree_common::key::encode_u64;
use memtree_common::traits::{OrderedIndex, StaticIndex, Value};
use memtree_compress::{compress, decode_block, decompress, encode_block};
use memtree_hybrid::{HybridCompressedBTree, MergeTrigger};
use memtree_lsm::{Db, DbOptions, FilterKind};
use memtree_workload::keys;
use memtree_workload::zipf::Zipfian;
use std::time::Duration;

const RUNS: usize = 3;

struct Config {
    n_keys: usize,     // CRC-tax sections
    lsm_keys: usize,   // scrub / degraded / enospc sections
    n_reads: usize,
    out_path: String,
    smoke: bool,
}

fn config() -> Config {
    let (smoke, out_path) = bench_args("faults");
    Config {
        n_keys: if smoke { 100_000 } else { 1_000_000 },
        lsm_keys: if smoke { 20_000 } else { 120_000 },
        n_reads: if smoke { 40_000 } else { 200_000 },
        out_path,
        smoke,
    }
}

fn entries(n: usize) -> Vec<(Vec<u8>, Value)> {
    keys::sorted_unique(keys::rand_u64_keys(n, 1))
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u64))
        .collect()
}

/// Best-of-RUNS duration for `f` (min rejects scheduler noise).
fn best<F: FnMut()>(mut f: F) -> Duration {
    (0..RUNS).map(|_| time(&mut f)).min().unwrap()
}

fn pct_overhead(on: f64, off: f64) -> f64 {
    (off / on - 1.0) * 100.0
}

struct CrcTax {
    build_on: f64,
    build_off: f64,
    read_on: f64,
    read_off: f64,
    enc_on: f64,
    enc_off: f64,
    dec_on: f64,
    dec_off: f64,
    merge_mkeys: f64,
}

fn bench_crc_tax(cfg: &Config) -> CrcTax {
    let e = entries(cfg.n_keys);

    // Merge throughput: rebuilding the static stage IS the hybrid merge's
    // dominant cost; build it framed (production) and unframed (baseline).
    // One untimed build first so the allocator and page cache are warm for
    // whichever variant is measured first.
    std::hint::black_box(CompressedBTree::build(&e));
    let framed_build = best(|| {
        std::hint::black_box(CompressedBTree::build(&e));
    });
    let unframed_build = best(|| {
        std::hint::black_box(CompressedBTree::build_unframed(&e));
    });
    let build_on = mops(cfg.n_keys, framed_build);
    let build_off = mops(cfg.n_keys, unframed_build);
    println!(
        "merge build      checksums on {build_on:.2} Mkeys/s   off {build_off:.2} Mkeys/s   tax {:.1}%",
        pct_overhead(build_on, build_off)
    );

    // Uncached point reads: cache capacity 0 forces a block decode (and
    // frame validation when on) for every lookup — the worst-case read tax.
    let mut framed = CompressedBTree::build(&e);
    framed.set_cache_blocks(0);
    let mut unframed = CompressedBTree::build_unframed(&e);
    unframed.set_cache_blocks(0);
    let mut z = Zipfian::new(cfg.n_keys, 5);
    let picks: Vec<usize> = (0..cfg.n_reads).map(|_| z.next_scrambled()).collect();
    let read_framed = best(|| {
        let s: u64 = picks.iter().map(|&i| framed.get(&e[i].0).unwrap()).sum();
        std::hint::black_box(s);
    });
    let read_unframed = best(|| {
        let s: u64 = picks.iter().map(|&i| unframed.get(&e[i].0).unwrap()).sum();
        std::hint::black_box(s);
    });
    let read_on = mops(cfg.n_reads, read_framed);
    let read_off = mops(cfg.n_reads, read_unframed);
    println!(
        "uncached get     checksums on {read_on:.2} Mops/s    off {read_off:.2} Mops/s    tax {:.1}%",
        pct_overhead(read_on, read_off)
    );

    // Raw codec: frame+CRC vs bare LZ block, over many distinct leaf-sized
    // images (distinct inputs keep the pure calls inside the timing loop).
    let leaves: Vec<Vec<u8>> = e
        .chunks(4096)
        .take(64)
        .map(|c| c.iter().flat_map(|(k, _)| k.clone()).collect())
        .collect();
    let total_raw: usize = leaves.iter().map(Vec::len).sum();
    let enc_framed = best(|| {
        for leaf in &leaves {
            std::hint::black_box(encode_block(leaf));
        }
    });
    let enc_raw = best(|| {
        for leaf in &leaves {
            std::hint::black_box(compress(leaf));
        }
    });
    let blocks: Vec<Vec<u8>> = leaves.iter().map(|l| encode_block(l)).collect();
    let raw_blocks: Vec<Vec<u8>> = leaves.iter().map(|l| compress(l)).collect();
    let dec_framed = best(|| {
        for b in &blocks {
            std::hint::black_box(decode_block(b).unwrap());
        }
    });
    let dec_raw = best(|| {
        for b in &raw_blocks {
            std::hint::black_box(decompress(b).unwrap());
        }
    });
    let mbs = |d: Duration| total_raw as f64 / d.as_secs_f64() / 1e6;
    let (enc_on, enc_off) = (mbs(enc_framed), mbs(enc_raw));
    let (dec_on, dec_off) = (mbs(dec_framed), mbs(dec_raw));
    println!(
        "codec encode     checksums on {enc_on:.0} MB/s      off {enc_off:.0} MB/s      tax {:.1}%",
        pct_overhead(enc_on, enc_off)
    );
    println!(
        "codec decode     checksums on {dec_on:.0} MB/s      off {dec_off:.0} MB/s      tax {:.1}%",
        pct_overhead(dec_on, dec_off)
    );

    // End-to-end hybrid merge on the compressed static stage (checksums on
    // is the only production path; recorded for trend tracking).
    let merge = best(|| {
        let mut h = HybridCompressedBTree::with_config(MergeTrigger::Manual, false);
        for (k, v) in &e {
            h.insert(k, *v);
        }
        h.force_merge().unwrap();
        std::hint::black_box(h.static_len());
    });
    let merge_mkeys = mops(cfg.n_keys, merge);
    println!("hybrid merge e2e checksums on {merge_mkeys:.2} Mkeys/s (insert+merge, production path)");

    CrcTax { build_on, build_off, read_on, read_off, enc_on, enc_off, dec_on, dec_off, merge_mkeys }
}

fn key_of(i: u64) -> [u8; 8] {
    encode_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) // scattered inserts
}

const VALUE: &[u8] = b"ten-bytes!";

fn lsm_opts(filter: FilterKind) -> DbOptions {
    DbOptions {
        memtable_bytes: 64 << 10,
        filter,
        ..Default::default()
    }
}

fn build_lsm(n: usize, filter: FilterKind) -> Db {
    let mut db = Db::new(lsm_opts(filter));
    for i in 0..n as u64 {
        db.put(&key_of(i), VALUE).unwrap();
    }
    db.flush().unwrap();
    db
}

struct ScrubLine {
    gb_per_s: f64,
    blocks: u64,
    bytes: u64,
    ms: f64,
}

/// Scrub throughput over an undamaged database. Gate: fully clean.
fn bench_scrub(cfg: &Config) -> ScrubLine {
    let mut db = build_lsm(cfg.lsm_keys, FilterKind::None);
    let mut report = None;
    let elapsed = time(|| {
        report = Some(db.scrub().expect("scrub of a healthy database"));
    });
    let report = report.unwrap();
    assert!(
        report.is_clean(),
        "scrub of an undamaged database must be clean: {report:?}"
    );
    assert!(report.blocks_scanned > 0, "scrub scanned nothing");
    let line = ScrubLine {
        gb_per_s: report.bytes_scanned as f64 / elapsed.as_secs_f64() / 1e9,
        blocks: report.blocks_scanned,
        bytes: report.bytes_scanned,
        ms: elapsed.as_secs_f64() * 1e3,
    };
    println!(
        "scrub            {:.3} GB/s  ({} blocks, {} bytes, {:.2} ms, clean)",
        line.gb_per_s, line.blocks, line.bytes, line.ms
    );
    line
}

struct DegradedLine {
    healthy_mops: f64,
    degraded_mops: f64,
    tax_pct: f64,
    degraded_tables: u64,
}

/// Point-read throughput healthy vs with one table forced filterless by
/// latent corruption — the price of graceful degradation.
fn bench_degraded_reads(cfg: &Config) -> DegradedLine {
    let db = build_lsm(cfg.lsm_keys, FilterKind::Bloom(14.0));
    let disk = db.close().expect("clean close");
    let mut z = Zipfian::new(cfg.lsm_keys, 7);
    let picks: Vec<u64> = (0..cfg.n_reads).map(|_| z.next_scrambled() as u64).collect();

    let db = Db::open(disk.clone(), lsm_opts(FilterKind::Bloom(14.0))).expect("healthy reopen");
    assert_eq!(db.degraded_tables(), 0, "healthy database opened degraded");
    let filter_images = db.filter_block_ids();
    let healthy = best(|| {
        let mut hits = 0usize;
        for &i in &picks {
            hits += usize::from(db.get(&key_of(i)).is_some());
        }
        std::hint::black_box(hits);
    });
    drop(db);

    // Latent corruption that defeats the whole filter-recovery ladder:
    // rot every persisted filter image (so reopen must fall back to
    // rebuilding from data blocks) plus one data block (so at least one
    // rebuild fails). That table is quarantined and runs filterless —
    // a partial filter would lie.
    for &img in &filter_images {
        disk.bitrot_block(img, 42).expect("bitrot filter image");
    }
    let victim = (0..disk.block_slots() as u32)
        .find(|&id| disk.is_live(id) && !filter_images.contains(&id))
        .expect("no live data blocks");
    disk.bitrot_block(victim, 42).expect("bitrot");
    let db = Db::open(disk, lsm_opts(FilterKind::Bloom(14.0))).expect("degraded reopen");
    assert!(db.degraded_tables() > 0, "corruption did not degrade any table");
    let degraded = best(|| {
        let mut hits = 0usize;
        for &i in &picks {
            hits += usize::from(db.get(&key_of(i)).is_some());
        }
        std::hint::black_box(hits);
    });

    let line = DegradedLine {
        healthy_mops: mops(cfg.n_reads, healthy),
        degraded_mops: mops(cfg.n_reads, degraded),
        tax_pct: pct_overhead(mops(cfg.n_reads, healthy), mops(cfg.n_reads, degraded)).abs(),
        degraded_tables: db.degraded_tables(),
    };
    println!(
        "degraded reads   healthy {:.3} Mops/s   degraded {:.3} Mops/s   tax {:.1}%  ({} table filterless)",
        line.healthy_mops, line.degraded_mops, line.tax_pct, line.degraded_tables
    );
    line
}

struct EnospcLine {
    typed: bool,
    leak_free: bool,
    recovery_ms: f64,
}

/// Capacity exhaustion: typed error, leak-free failed flushes, timed
/// recovery after the limit lifts.
fn bench_enospc_recovery(cfg: &Config) -> EnospcLine {
    let mut db = build_lsm(cfg.lsm_keys / 4, FilterKind::None);
    let disk = db.disk_handle();
    disk.set_capacity_bytes(Some(disk.used_bytes() + 256));
    let mut typed = false;
    let mut i = (cfg.lsm_keys / 4) as u64;
    while !typed {
        i += 1;
        match db.put(&key_of(i), VALUE) {
            Ok(_) => {}
            Err(memtree_common::error::MemtreeError::Enospc { .. }) => typed = true,
            Err(e) => panic!("expected Enospc, got {e:?}"),
        }
    }
    // Failed flushes must release their partial blocks: space usage is
    // identical across attempts.
    let _ = db.flush();
    let used_a = disk.used_bytes();
    let _ = db.flush();
    let leak_free = disk.used_bytes() == used_a;
    assert!(leak_free, "failing flushes leak disk space");

    disk.set_capacity_bytes(None);
    let elapsed = time(|| {
        db.flush().expect("flush after capacity lift");
    });
    // Spot-check: nothing acknowledged was lost across the outage.
    for j in (0..i).step_by((i as usize / 64).max(1)) {
        assert_eq!(db.get(&key_of(j)).as_deref(), Some(VALUE), "record {j} lost to Enospc");
    }
    let line = EnospcLine { typed, leak_free, recovery_ms: elapsed.as_secs_f64() * 1e3 };
    println!(
        "enospc           typed error, leak-free retries, recovery {:.2} ms after lift",
        line.recovery_ms
    );
    line
}

/// Perf budgets for the checksum tax, enforced only on full (non-smoke)
/// runs with the hardware CRC kernel active: smoke sizes are noise-bound
/// and the scalar lane intentionally pays the portable-kernel price.
fn enforce_budgets(cfg: &Config, tax: &CrcTax) {
    let dec_pct = pct_overhead(tax.dec_on, tax.dec_off);
    let read_pct = pct_overhead(tax.read_on, tax.read_off);
    if cfg.smoke || memtree_common::crc::active_kernel() != "sse4.2-3way" {
        println!(
            "budgets          skipped (smoke={} kernel={}); decode tax {dec_pct:.1}%, read tax {read_pct:.1}%",
            cfg.smoke,
            memtree_common::crc::active_kernel()
        );
        return;
    }
    assert!(
        dec_pct <= 150.0,
        "codec_decode.overhead_pct budget blown: {dec_pct:.1}% > 150% \
         (fused verify+decode with the sse4.2-3way kernel should keep the \
         checksum tax within 2.5x of the bare codec)"
    );
    assert!(
        read_pct <= 40.0,
        "uncached_point_get.overhead_pct budget blown: {read_pct:.1}% > 40%"
    );
    println!("budgets          decode tax {dec_pct:.1}% <= 150%, uncached read tax {read_pct:.1}% <= 40%");
}

fn write_json(
    cfg: &Config,
    tax: &CrcTax,
    scrub: &ScrubLine,
    degraded: &DegradedLine,
    enospc: &EnospcLine,
) {
    let kernel_mode = match memtree_common::kernel_mode() {
        memtree_common::KernelMode::Auto => "auto",
        memtree_common::KernelMode::Scalar => "scalar",
    };
    let json = format!(
        "{{\n  \"meta\": {{\n    \"n_keys\": {},\n    \"lsm_keys\": {},\n    \"n_reads\": {},\n    \"runs\": {RUNS},\n    \"smoke\": {},\n    \"kernel_mode\": \"{kernel_mode}\",\n    \"crc_kernel\": \"{}\",\n    \"note\": \"robustness costs: CRC32C framing tax, scrub throughput, degraded-read tax, Enospc recovery; overhead_pct = (off/on - 1) * 100\"\n  }},\n  \"merge_build\": {{ \"on_mkeys_per_s\": {:.3}, \"off_mkeys_per_s\": {:.3}, \"overhead_pct\": {:.2} }},\n  \"uncached_point_get\": {{ \"on_mops_per_s\": {:.3}, \"off_mops_per_s\": {:.3}, \"overhead_pct\": {:.2} }},\n  \"codec_encode\": {{ \"on_mb_per_s\": {:.1}, \"off_mb_per_s\": {:.1}, \"overhead_pct\": {:.2} }},\n  \"codec_decode\": {{ \"on_mb_per_s\": {:.1}, \"off_mb_per_s\": {:.1}, \"overhead_pct\": {:.2} }},\n  \"hybrid_merge_end_to_end\": {{ \"on_mkeys_per_s\": {:.3} }},\n  \"scrub_gb_per_s\": {:.4},\n  \"scrub_detail\": {{ \"blocks_scanned\": {}, \"bytes_scanned\": {}, \"elapsed_ms\": {:.3}, \"clean\": true }},\n  \"degraded_read_tax_pct\": {:.2},\n  \"degraded_read_detail\": {{ \"healthy_mops_per_s\": {:.3}, \"degraded_mops_per_s\": {:.3}, \"degraded_tables\": {} }},\n  \"enospc_recovery\": {{ \"typed_error\": {}, \"leak_free_retries\": {}, \"recovery_ms\": {:.3} }}\n}}\n",
        cfg.n_keys,
        cfg.lsm_keys,
        cfg.n_reads,
        cfg.smoke,
        memtree_common::crc::active_kernel(),
        tax.build_on,
        tax.build_off,
        pct_overhead(tax.build_on, tax.build_off),
        tax.read_on,
        tax.read_off,
        pct_overhead(tax.read_on, tax.read_off),
        tax.enc_on,
        tax.enc_off,
        pct_overhead(tax.enc_on, tax.enc_off),
        tax.dec_on,
        tax.dec_off,
        pct_overhead(tax.dec_on, tax.dec_off),
        tax.merge_mkeys,
        scrub.gb_per_s,
        scrub.blocks,
        scrub.bytes,
        scrub.ms,
        degraded.tax_pct,
        degraded.healthy_mops,
        degraded.degraded_mops,
        degraded.degraded_tables,
        enospc.typed,
        enospc.leak_free,
        enospc.recovery_ms,
    );
    write_report(
        &cfg.out_path,
        &json,
        &[
            "\"meta\"", "\"n_keys\"", "\"smoke\"", "\"kernel_mode\"", "\"crc_kernel\"",
            "\"merge_build\"", "\"uncached_point_get\"",
            "\"codec_encode\"", "\"codec_decode\"", "\"hybrid_merge_end_to_end\"",
            "\"scrub_gb_per_s\"", "\"scrub_detail\"", "\"blocks_scanned\"", "\"bytes_scanned\"",
            "\"degraded_read_tax_pct\"", "\"degraded_read_detail\"", "\"degraded_tables\"",
            "\"enospc_recovery\"", "\"typed_error\"", "\"leak_free_retries\"", "\"recovery_ms\"",
        ],
    );
}

fn main() {
    let cfg = config();
    let tax = bench_crc_tax(&cfg);
    let scrub = bench_scrub(&cfg);
    let degraded = bench_degraded_reads(&cfg);
    let enospc = bench_enospc_recovery(&cfg);
    enforce_budgets(&cfg, &tax);
    write_json(&cfg, &tax, &scrub, &degraded, &enospc);
}
