//! SuRF as a Bloom-filter replacement in an LSM engine (Chapter 4's
//! RocksDB scenario, scaled): time-series range queries where SuRF saves
//! the I/O that Bloom filters cannot.
//!
//! ```sh
//! cargo run --release --example range_filter_lsm
//! ```

use memtree::lsm::{Db, DbOptions, FilterKind, SeekResult};
use memtree::workload::timeseries::sensor_events;
use std::time::Duration;

fn build_db(filter: FilterKind) -> Db {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 64 << 10,
        filter,
        cache_blocks: 128,
        io_read_latency: Duration::from_micros(20), // "SSD" block read
        ..Default::default()
    });
    // 200 sensors; one event per ~100µs *across all sensors* (the paper's
    // aggregate λ = 10^5 ns), 10s of recording => ~100k events.
    let events = sensor_events(200, 100_000 * 200, 10_000_000_000, 7);
    for e in &events {
        db.put(&e.key(), b"sensor-record-payload-......").unwrap(); // small value
    }
    db.flush().unwrap();
    db
}

fn closed_seeks(db: &Db, range_ns: u64, queries: usize) -> (usize, u64, f64) {
    let mut state = 99u64;
    let mut hits = 0usize;
    let disk = db.disk_handle();
    let reads0 = disk.stats().block_reads;
    let start = std::time::Instant::now();
    for _ in 0..queries {
        let base = memtree::common::hash::splitmix64(&mut state) % 10_000_000_000;
        let mut lo = [0u8; 16];
        lo[..8].copy_from_slice(&base.to_be_bytes());
        let mut hi = [0u8; 16];
        hi[..8].copy_from_slice(&(base + range_ns).to_be_bytes());
        if let SeekResult::Found { .. } = db.seek(&lo, Some(&hi)) {
            hits += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (hits, disk.stats().block_reads - reads0, queries as f64 / secs)
}

fn main() {
    println!("building three LSM instances (none / Bloom / SuRF-Real)...");
    let configs = [
        ("no filter", FilterKind::None),
        ("Bloom 14bpk", FilterKind::Bloom(14.0)),
        ("SuRF-Real8", FilterKind::SurfReal(8)),
    ];
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>10}",
        "filter", "hits", "block reads", "ops/sec", "IO/op"
    );
    for (name, filter) in configs {
        let db = build_db(filter);
        // Short ranges: most are empty between Poisson events.
        let (hits, ios, tput) = closed_seeks(&db, 20_000, 3000);
        println!(
            "{:<12} {:>8} {:>12} {:>12.0} {:>10.3}",
            name,
            hits,
            ios,
            tput,
            ios as f64 / 3000.0
        );
    }
    println!();
    println!("SuRF prunes empty ranges before any disk access; Bloom cannot");
    println!("help range queries at all (same I/O as no filter).");
}
