//! (T2) The engine replay: the seeded op stream of a run, replayed
//! single-threaded for a fixed op count through one standalone
//! [`Db`] per shard on one shared [`SimDisk`], with a span around every
//! call into the engine. It follows the serve worker's call order for a
//! write — `Db::put`, then `SimDisk::sync` + `Db::mark_synced_through`,
//! then `Db::snapshot`, then `Db::compact_debt` — and serves reads from
//! the owning shard's latest snapshot, so its per-layer times attribute
//! the serving layer's end-to-end latency. With one thread and no timers
//! its counts repeat exactly for a seed.
//!
//! Every answer is checked against a `BTreeMap` model of the same stream.

use crate::gen::{key, value, Op, OpStream, Workload, CLIENTS, KEY_LEN, LOADER};
use crate::stats::{per, Spans};
use memtree_lsm::{Db, DbOptions, DbSnapshot, FilterKind, SimDisk, StallConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards, one per core of the 2-core reference host.
pub const SHARDS: usize = 2;
/// Ops each client stream contributes to the replay.
pub const OPS_PER_CLIENT: usize = 20_000;

/// The engine options of every shard on both sides of a comparison:
/// defaults (256 KB MemTable, 4 KB blocks) with a 256-block (1 MB) cache
/// and the paper's filter, SuRF with 8 hashed suffix bits.
pub fn db_options() -> DbOptions {
    DbOptions {
        cache_blocks: 256,
        filter: FilterKind::SurfHash(8),
        ..DbOptions::default()
    }
}

/// Shard `i`'s options as the serving layer derives them from
/// [`db_options`]: namespaced files, cross-shard GC, syncing left to the
/// caller, compaction paced by the caller, and the serving stall bands.
fn shard_options(i: usize) -> DbOptions {
    let base = db_options();
    DbOptions {
        namespace: format!("s{i}-"),
        gc_orphans: false,
        wal_group_commit: usize::MAX,
        compact_on_flush: false,
        stall: StallConfig::serving(base.l0_tables, base.memtable_bytes),
        ..base
    }
}

/// The shard the serving layer routes `key` to.
fn shard_of(key: &[u8]) -> usize {
    (memtree_common::hash::hash64(key) % SHARDS as u64) as usize
}

/// Counts that repeat exactly for a seed (deltas over the replayed ops,
/// except the end-state sizes).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// `SimDisk` block reads during gets.
    pub get_block_reads: u64,
    /// `SimDisk` block reads during scans.
    pub scan_block_reads: u64,
    /// Block-cache hits, all shards.
    pub cache_hits: u64,
    /// Block-cache misses, all shards.
    pub cache_misses: u64,
    /// `SimDisk` syncs.
    pub syncs: u64,
    /// WAL frame bytes appended.
    pub wal_bytes: u64,
    /// `SimDisk` block writes (flushes and compactions).
    pub block_writes: u64,
    /// Compaction steps run by `compact_debt`.
    pub compact_steps: u64,
    /// Puts during which the MemTable was flushed.
    pub flushes: u64,
    /// `Db::index_filter_mem`, summed over shards, at the end.
    pub index_filter_bytes: u64,
    /// `Db::table_entries`, summed over shards, at the end.
    pub table_entries: u64,
    /// `SimDisk::used_bytes` at the end.
    pub disk_used_bytes: u64,
    /// Live keys in the model at the end.
    pub live_keys: u64,
    /// `SimDisk` virtual-clock advance, in virtual microseconds.
    pub virtual_us: u64,
}

/// Spans and counts of one replay. Span times are real time.
#[derive(Debug, Default)]
pub struct Replay {
    /// Gets replayed.
    pub reads: u64,
    /// Writes replayed.
    pub writes: u64,
    /// Scans replayed.
    pub scans: u64,
    /// `Db::put` calls that did not flush.
    pub put: Spans,
    /// `Db::put` calls during which the MemTable was flushed.
    pub flush: Spans,
    /// `SimDisk::sync` after each write.
    pub sync: Spans,
    /// `Db::snapshot` after each write.
    pub snapshot: Spans,
    /// `Db::compact_debt` after each write.
    pub compact: Spans,
    /// `DbSnapshot::get` calls that read no block from the disk.
    pub get_hit: Spans,
    /// `DbSnapshot::get` calls that read at least one block.
    pub get_miss: Spans,
    /// Per scan op, the summed `DbSnapshot::scan_from` time over shards.
    pub scan: Spans,
    /// Exactly repeating counts.
    pub counts: Counts,
}

impl Replay {
    /// Ops replayed.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes + self.scans
    }

    /// Mean real time of one write's engine calls: put (flushing or
    /// not), sync, snapshot and compaction.
    pub fn write_path_us(&self) -> f64 {
        let total = self.put.total_us()
            + self.flush.total_us()
            + self.sync.total_us()
            + self.snapshot.total_us()
            + self.compact.total_us();
        per(total, self.writes)
    }

    /// Mean real time of one get, hit or miss.
    pub fn get_us(&self) -> f64 {
        per(
            self.get_hit.total_us() + self.get_miss.total_us(),
            self.reads,
        )
    }

    /// Filter and fence-index bytes per table entry at the end: the
    /// paper's space metric.
    pub fn index_filter_bytes_per_key(&self) -> f64 {
        per(
            self.counts.index_filter_bytes as f64,
            self.counts.table_entries,
        )
    }
}

struct Engine {
    workload: Workload,
    disk: Arc<SimDisk>,
    dbs: Vec<Db>,
    snaps: Vec<DbSnapshot>,
    model: BTreeMap<[u8; KEY_LEN], Vec<u8>>,
}

fn engine_err(what: &str) -> impl Fn(memtree_common::error::MemtreeError) -> String + '_ {
    move |e| format!("replay {what}: {e}")
}

impl Engine {
    /// Opens the shards and loads the workload's keys the way the serving
    /// setup does: each put made durable and followed by one compaction
    /// step, then a flush and a republish of every shard.
    fn load(workload: Workload, loaded: u64) -> Result<Self, String> {
        let disk = Arc::new(SimDisk::new(Duration::ZERO));
        let mut dbs = (0..SHARDS)
            .map(|i| Db::open(Arc::clone(&disk), shard_options(i)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(engine_err("open"))?;
        let mut model = BTreeMap::new();
        for idx in 0..loaded {
            let (k, v) = (key(idx), value(idx, LOADER, 0));
            let db = &mut dbs[shard_of(&k)];
            let seq = db.put(&k, &v).map_err(engine_err("load put"))?;
            disk.sync();
            db.mark_synced_through(seq);
            db.compact_debt().map_err(engine_err("load compaction"))?;
            model.insert(k, v);
        }
        for db in &mut dbs {
            db.flush().map_err(engine_err("load flush"))?;
            db.compact_debt().map_err(engine_err("load compaction"))?;
        }
        let snaps = dbs.iter().map(Db::snapshot).collect();
        Ok(Self {
            workload,
            disk,
            dbs,
            snaps,
            model,
        })
    }

    fn block_reads(&self) -> u64 {
        self.disk.stats().block_reads
    }

    fn apply(&mut self, op: Op, client: usize, r: &mut Replay) -> Result<(), String> {
        match op {
            Op::Get { idx } => {
                let k = key(idx);
                let before = self.block_reads();
                let t = Instant::now();
                let got = self.snaps[shard_of(&k)].get(&k);
                let ns = t.elapsed().as_nanos() as u64;
                let reads = self.block_reads() - before;
                r.counts.get_block_reads += reads;
                if reads == 0 {
                    r.get_hit.push(ns);
                } else {
                    r.get_miss.push(ns);
                }
                r.reads += 1;
                if got.as_deref() != self.model.get(&k).map(Vec::as_slice) {
                    return Err(format!(
                        "replay get {} disagrees with the model",
                        String::from_utf8_lossy(&k)
                    ));
                }
            }
            Op::Put { idx, ver } => {
                let (k, v) = (key(idx), value(idx, client as u8, ver));
                let s = shard_of(&k);
                let db = &mut self.dbs[s];
                let mem_before = db.stats().memtable_bytes;
                let t = Instant::now();
                let seq = db.put(&k, &v).map_err(engine_err("put"))?;
                let ns = t.elapsed().as_nanos() as u64;
                if db.stats().memtable_bytes < mem_before {
                    r.flush.push(ns);
                    r.counts.flushes += 1;
                } else {
                    r.put.push(ns);
                }
                let t = Instant::now();
                self.disk.sync();
                r.sync.push(t.elapsed().as_nanos() as u64);
                db.mark_synced_through(seq);
                let t = Instant::now();
                let snap = db.snapshot();
                r.snapshot.push(t.elapsed().as_nanos() as u64);
                self.snaps[s] = snap;
                let t = Instant::now();
                db.compact_debt().map_err(engine_err("compaction"))?;
                r.compact.push(t.elapsed().as_nanos() as u64);
                r.writes += 1;
                self.model.insert(k, v);
            }
            Op::Scan { idx, limit } => {
                let k = key(idx);
                let before = self.block_reads();
                let mut ns = 0u64;
                let mut merged = Vec::new();
                for snap in &self.snaps {
                    let t = Instant::now();
                    let part = snap.scan_from(&k, None, limit);
                    ns += t.elapsed().as_nanos() as u64;
                    merged.extend(part);
                }
                r.scan.push(ns);
                r.counts.scan_block_reads += self.block_reads() - before;
                r.scans += 1;
                // Shards partition the keys, so sorting the union and
                // keeping `limit` is the serving layer's merge.
                merged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                merged.truncate(limit);
                let want = self.model.range(k..).take(limit);
                if !merged
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v))
                    .eq(want.map(|(k, v)| (&k[..], v)))
                {
                    return Err(format!(
                        "replay scan from {} limit {limit} disagrees with the model",
                        String::from_utf8_lossy(&k)
                    ));
                }
            }
        }
        Ok(())
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.dbs
            .iter()
            .map(Db::cache_stats)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    fn wal_bytes(&self) -> u64 {
        self.dbs
            .iter()
            .map(|db| db.wal_stats().appended_bytes)
            .sum()
    }

    fn compact_steps(&self) -> u64 {
        self.dbs.iter().map(|db| db.stats().compact_steps).sum()
    }
}

/// Loads `loaded` keys, then replays `ops_per_client` ops of each client's
/// stream for `seed`, round-robin across clients. Fails on the first
/// answer that disagrees with the model or on any engine error.
pub fn replay(
    workload: Workload,
    loaded: u64,
    seed: u64,
    ops_per_client: usize,
) -> Result<Replay, String> {
    let mut e = Engine::load(workload, loaded)?;
    let io0 = e.disk.stats();
    let cache0 = e.cache_stats();
    let wal0 = e.wal_bytes();
    let steps0 = e.compact_steps();
    let clock0 = e.disk.now_us();
    let mut streams: Vec<OpStream> = (1..=CLIENTS)
        .map(|c| OpStream::new(e.workload, loaded, seed, c))
        .collect();
    let mut r = Replay::default();
    for _ in 0..ops_per_client {
        for s in &mut streams {
            let op = s.next_op();
            e.apply(op, s.client(), &mut r)?;
        }
    }
    let io = e.disk.stats();
    let cache = e.cache_stats();
    let c = &mut r.counts;
    c.cache_hits = cache.0 - cache0.0;
    c.cache_misses = cache.1 - cache0.1;
    c.syncs = io.syncs - io0.syncs;
    c.block_writes = io.block_writes - io0.block_writes;
    c.wal_bytes = e.wal_bytes() - wal0;
    c.compact_steps = e.compact_steps() - steps0;
    c.virtual_us = e.disk.now_us() - clock0;
    c.index_filter_bytes = e.dbs.iter().map(|db| db.index_filter_mem() as u64).sum();
    c.table_entries = e.dbs.iter().map(|db| db.table_entries() as u64).sum();
    c.disk_used_bytes = e.disk.used_bytes();
    c.live_keys = e.model.len() as u64;
    Ok(r)
}
