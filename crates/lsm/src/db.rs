//! The LSM database: MemTable + leveled SSTables + block cache, with the
//! Figure 4.3 query paths and, since the durability PR, a full
//! crash-recovery stack (WAL + manifest + power-loss-aware disk).
//!
//! ## Durability protocol
//!
//! * `put` appends a CRC-framed record to the WAL *before* touching the
//!   MemTable; the record is **acknowledged** once a group commit syncs it
//!   ([`Db::last_synced_seq`]).
//! * `flush` writes the MemTable as an L0 SSTable, syncs the data blocks,
//!   then publishes `AddTable + FlushSeq` as one manifest transaction.
//!   Only after that commit point is the WAL's high-water mark reset — a
//!   crash between the two replays from the old mark and loses nothing.
//! * compaction builds its outputs aside, syncs them, then swaps victims
//!   for outputs in a single manifest transaction before releasing any old
//!   block. A torn transaction drops the whole swap.
//! * [`Db::open`] replays CURRENT → manifest → WAL, garbage-collects
//!   blocks no table references, rebuilds filters, and verifies level
//!   invariants. The crash oracle (`tests/crash_oracle.rs`) drives every
//!   `fail_point!` below through crash + reopen across seeds.

use crate::compaction::{CompactionConfig, CompactionPolicy};
use crate::disk::SimDisk;
use crate::manifest::{Edit, Manifest, Version};
use crate::sstable::{DecodedBlock, SsTable};
use crate::wal::{wal_file_name, Wal, WalStats};
use crate::view::{find_in_block, read_block, seek_in_table, ReadView, READ_ATTEMPTS};
use memtree_common::clock::Clock;
use memtree_common::error::Result;
use memtree_common::hash::fmix64;
use memtree_common::traits::OrderedIndex;
use memtree_faults::{fail_point, Backoff};
use memtree_skiplist::SkipList;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Which filter each SSTable carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// No filter (fence indexes only).
    None,
    /// Bloom filter at the given bits per key.
    Bloom(f64),
    /// SuRF with hashed suffix bits.
    SurfHash(u8),
    /// SuRF with real suffix bits.
    SurfReal(u8),
    /// SuRF with hashed + real suffix bits.
    SurfMixed(u8, u8),
}

/// Engine configuration (defaults scaled from RocksDB's).
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Flush the MemTable when it reaches this many bytes.
    pub memtable_bytes: usize,
    /// Target data-block size.
    pub block_size: usize,
    /// Compact level 0 when it accumulates this many SSTables.
    pub l0_tables: usize,
    /// Max tables at level 1; level `L` holds 10× level `L-1`.
    pub l1_tables: usize,
    /// Per-table filter.
    pub filter: FilterKind,
    /// Block-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Simulated latency charged per block read (used by [`Db::new`] when
    /// it creates the disk; [`Db::open`] inherits the given disk's).
    pub io_read_latency: Duration,
    /// Write-ahead logging. `false` restores the volatile pre-durability
    /// behaviour: a crash loses the MemTable, recovery serves only
    /// flushed tables.
    pub wal: bool,
    /// Group commit: sync the WAL once every this many puts (1 = every
    /// put is acknowledged immediately; larger values amortize the sync
    /// barrier and risk only the unsynced suffix).
    pub wal_group_commit: usize,
    /// File-name namespace prefix for this database's WAL, CURRENT, and
    /// manifest files (`""` = the classic standalone names). Lets several
    /// databases — e.g. the shards of a sharded serving layer — share one
    /// [`SimDisk`] without clobbering each other's metadata.
    pub namespace: String,
    /// Garbage-collect unreferenced disk blocks at open. `true` for a
    /// standalone database; a sharded open sets `false` (one shard must
    /// not free blocks its siblings reference) and runs the cross-shard
    /// [`gc_orphans`](crate::gc_orphans) after every shard is open.
    pub gc_orphans: bool,
    /// Compaction policy shaping the levels. Persisted in the manifest at
    /// creation; on reopen the *persisted* policy wins (the on-disk level
    /// shape was built by it), and this field is updated to match —
    /// [`Db::open_report`] records the override when the two disagree.
    pub compaction: CompactionConfig,
    /// Write-stall triggers (RocksDB-style slowdown/stop bands over L0 run
    /// count and MemTable bytes). Disabled by default: an unconfigured
    /// database never rejects a write for debt.
    pub stall: StallConfig,
    /// Run compaction synchronously at the end of every flush (`true`,
    /// the classic behaviour) or leave flushed runs as compaction *debt*
    /// drained by explicit [`Db::compact_step`] calls (`false` — the
    /// serving layer's model, where debt is what the stall bands measure).
    pub compact_on_flush: bool,
}

/// Write-stall triggers. A write finding the engine at or past a
/// *slowdown* trigger is rejected with a typed
/// [`Backpressure`](memtree_common::error::MemtreeError::Backpressure)
/// (after one bounded compaction step of relief); at or past a *stop*
/// trigger it is rejected with a typed
/// [`Stalled`](memtree_common::error::MemtreeError::Stalled). Neither band
/// ever blocks the caller — the delay is surfaced, not slept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// Slowdown when L0 holds at least this many runs.
    pub slowdown_l0_runs: usize,
    /// Stop when L0 holds at least this many runs.
    pub stop_l0_runs: usize,
    /// Slowdown when the MemTable holds at least this many bytes (it can
    /// only exceed [`DbOptions::memtable_bytes`] while flushes are
    /// failing, so this band catches a flush-starved engine).
    pub slowdown_memtable_bytes: usize,
    /// Stop when the MemTable holds at least this many bytes.
    pub stop_memtable_bytes: usize,
}

impl StallConfig {
    /// No triggers: writes are never rejected for debt.
    pub const fn disabled() -> Self {
        Self {
            slowdown_l0_runs: usize::MAX,
            stop_l0_runs: usize::MAX,
            slowdown_memtable_bytes: usize::MAX,
            stop_memtable_bytes: usize::MAX,
        }
    }

    /// Bands scaled for a serving shard: slowdown at `2 × l0_tables` L0
    /// runs (debt twice the compaction trigger), stop at `4 ×`, and the
    /// byte bands at `4 ×` / `8 ×` the MemTable flush threshold.
    pub fn serving(l0_tables: usize, memtable_bytes: usize) -> Self {
        Self {
            slowdown_l0_runs: l0_tables.saturating_mul(2).max(2),
            stop_l0_runs: l0_tables.saturating_mul(4).max(4),
            slowdown_memtable_bytes: memtable_bytes.saturating_mul(4),
            stop_memtable_bytes: memtable_bytes.saturating_mul(8),
        }
    }
}

impl Default for StallConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Default for DbOptions {
    fn default() -> Self {
        Self {
            memtable_bytes: 256 << 10,
            block_size: 4096,
            l0_tables: 4,
            l1_tables: 4,
            filter: FilterKind::None,
            cache_blocks: 64,
            io_read_latency: Duration::ZERO,
            wal: true,
            wal_group_commit: 1,
            namespace: String::new(),
            gc_orphans: true,
            compaction: CompactionConfig::default(),
            stall: StallConfig::disabled(),
            compact_on_flush: true,
        }
    }
}

/// Every run-time counter of one [`Db`], sampled by [`Db::stats`]: the
/// debt and overload numbers the stall bands measure and reject on, the
/// Get paths' filter probes, and the read path's degradations. Counters
/// run from open and are never reset; callers measure a phase as the
/// difference of two samples. Open-time outcomes live in [`OpenReport`],
/// device counters (block reads and writes, syncs) in
/// [`IoStats`](crate::IoStats) — the disk may be shared by several `Db`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Runs currently at level 0.
    pub l0_runs: usize,
    /// Bytes buffered in the MemTable.
    pub memtable_bytes: usize,
    /// Approximate bytes in runs beyond every level's policy limit — the
    /// work outstanding before the engine is back in shape.
    pub compaction_debt_bytes: usize,
    /// Writes rejected with `Backpressure` (slowdown band).
    pub backpressure_rejections: u64,
    /// Writes rejected with `Stalled` (stop band, after bounded relief).
    pub stall_rejections: u64,
    /// Bounded compaction steps executed ([`Db::compact_step`], including
    /// the relief steps the bands run before rejecting).
    pub compact_steps: u64,
    /// Point-filter traversals started on the Get paths: one per
    /// `may_contain` call, one per whole `may_contain_batch` call. One
    /// batched probe over 64 keys is one pass; a per-key loop over the
    /// same table is 64. Only tables that carry a filter count.
    pub filter_probe_passes: u64,
    /// Keys answered across those passes.
    pub filter_keys_probed: u64,
    /// Block decodes that failed once and succeeded on a re-read.
    pub read_repairs: u64,
    /// Reads retried after a transient I/O fault (healed, not quarantined).
    pub transient_retries: u64,
    /// Blocks currently quarantined after failing validation twice.
    pub quarantined_blocks: u64,
}

/// What one [`Db::flush`] did — previously the flush was observably a
/// silent no-op from the outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// MemTable entries written into the new L0 table.
    pub entries: usize,
    /// WAL bytes reclaimed by the (post-manifest-commit) high-water reset.
    pub wal_bytes_truncated: u64,
    /// Data blocks the new table occupies.
    pub blocks_written: usize,
}

/// Result of a seek.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeekResult {
    /// Smallest entry `>= lk` (and `< hk` for closed seeks).
    Found {
        /// The entry's key.
        key: Vec<u8>,
    },
    /// No qualifying entry.
    NotFound,
}

/// Per-batch cache of exact table lower bounds: table id → `(lk₀,
/// smallest stored key ≥ lk₀)`. See [`Db::seek_candidate`]'s doc for the
/// reuse rule that keeps cached entries exact.
type SeekMemo = HashMap<u64, (Vec<u8>, Option<Vec<u8>>)>;

/// Keeps the smaller of `best` and `k` in `best`.
fn keep_min(best: &mut Option<Vec<u8>>, k: Option<Vec<u8>>) {
    if let Some(k) = k {
        if best.as_deref().is_none_or(|b| k.as_slice() < b) {
            *best = Some(k);
        }
    }
}

/// One lock stripe of the [`BlockCache`]: a CLOCK ring keyed by
/// `(table id, block idx)`.
type CacheStripe = Clock<(u64, usize), Arc<DecodedBlock>>;

/// The decoded-block cache: CLOCK replacement behind a HashMap index,
/// striped across several independently locked rings so concurrent
/// snapshot readers on different blocks never serialize on one lock.
/// Stripe choice is a hash of `(table, block)`, so a given block always
/// lives in exactly one stripe.
pub(crate) struct BlockCache {
    stripes: Vec<Mutex<CacheStripe>>,
}

impl BlockCache {
    /// At most 8 stripes, never more than `capacity` (a tiny cache gains
    /// nothing from extra locks), and a single stripe for capacity 0 so
    /// the miss counters still have a home.
    pub(crate) fn new(capacity: usize) -> Self {
        let n = if capacity == 0 { 1 } else { capacity.min(8) };
        let per = capacity.div_ceil(n);
        Self {
            stripes: (0..n)
                .map(|_| Mutex::new(CacheStripe::new(per)))
                .collect(),
        }
    }

    fn stripe(&self, table: u64, block: usize) -> MutexGuard<'_, CacheStripe> {
        let h = fmix64(table ^ (block as u64).rotate_left(32)) as usize;
        self.stripes[h % self.stripes.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn get(&self, table: u64, block: usize) -> Option<Arc<DecodedBlock>> {
        self.stripe(table, block).get((table, block)).cloned()
    }

    pub(crate) fn insert(&self, table: u64, block: usize, data: Arc<DecodedBlock>) {
        // A capacity-0 stripe hands the block back; the miss still counts.
        let _ = self.stripe(table, block).insert((table, block), data);
    }

    /// Drops one cached block. Production code retires whole tables via
    /// [`BlockCache::invalidate_table`]; the per-block form is kept for the
    /// cache coherence tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn invalidate(&self, table: u64, block: usize) {
        self.stripe(table, block).invalidate((table, block));
    }

    /// Drops every cached block of `table` (table retirement).
    pub(crate) fn invalidate_table(&self, table: u64) {
        for stripe in &self.stripes {
            let mut s = stripe.lock().unwrap_or_else(|e| e.into_inner());
            let keys: Vec<(u64, usize)> =
                s.slots.iter().map(|sl| sl.0).filter(|k| k.0 == table).collect();
            for k in keys {
                s.invalidate(k);
            }
        }
    }

    /// (hits, misses) summed across stripes.
    pub(crate) fn stats(&self) -> (u64, u64) {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()))
            .fold((0, 0), |(h, m), s| {
                let (sh, sm) = s.stats();
                (h + sh, m + sm)
            })
    }

    #[cfg(test)]
    fn slot_count(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).slots.len())
            .sum()
    }
}

/// The LSM key-value store.
///
/// `Db` is `Send` (a shard worker thread can own one) but not `Sync` —
/// its hot-path bookkeeping stays in `Cell`/`RefCell`. Concurrent readers
/// go through [`Db::snapshot`]: an immutable, `Send + Sync` view backed by
/// `Arc`-shared tables, disk, and block cache.
pub struct Db {
    pub(crate) opts: DbOptions,
    /// Levels, quarantine set, disk, and block cache: the state every read
    /// below the MemTable goes through, cloned by [`Db::snapshot`].
    pub(crate) view: ReadView,
    /// MemTable: our paged skip list mapping keys to value-arena slots.
    mem: SkipList,
    /// Value arena; `None` slots are delete tombstones.
    mem_values: Vec<Option<Vec<u8>>>,
    mem_bytes: usize,
    /// Tombstones written into this MemTable generation (upper bound:
    /// overwrites of a tombstone don't decrement it).
    mem_tombstones: usize,
    /// Retired tables still held by outstanding snapshots: their blocks
    /// are released only once the last snapshot drops the `Arc` (reaped at
    /// the next flush / close).
    graveyard: Vec<Arc<SsTable>>,
    pub(crate) next_table_id: u64,
    wal: Wal,
    /// `RefCell` so the `&self` read path can persist quarantine edits.
    pub(crate) manifest: RefCell<Manifest>,
    /// WAL records at or below this seq are covered by flushed tables.
    pub(crate) flushed_seq: u64,
    /// The active compaction policy (instantiated from
    /// [`DbOptions::compaction`] / the manifest's persisted policy).
    policy: Box<dyn CompactionPolicy>,
    /// The counters behind [`Db::stats`] (see [`DbStats`]).
    counters: Counters,
    /// What [`Db::open`] observed while recovering (see [`OpenReport`]).
    open_report: OpenReport,
}

/// The run-time counters behind [`DbStats`], bumped in place on the
/// `&self` read path: plain `Cell`s, since a `Db` is never shared across
/// threads.
#[derive(Default)]
struct Counters {
    backpressure_rejections: Cell<u64>,
    stall_rejections: Cell<u64>,
    compact_steps: Cell<u64>,
    filter_probe_passes: Cell<u64>,
    filter_keys_probed: Cell<u64>,
    read_repairs: Cell<u64>,
    transient_retries: Cell<u64>,
}

/// Adds `n` to a [`Counters`] cell.
fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

/// What [`Db::open`] observed while recovering, kept for the caller to
/// inspect via [`Db::open_report`]. Recovery itself never fails on any of
/// these — they are notes, not errors. Fixed at open; run-time counters
/// live in [`DbStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// `Some((requested, persisted))` when the options asked for a
    /// compaction policy different from the manifest's persisted one. The
    /// persisted policy won (the on-disk level shape was built by it);
    /// switching a policy on reopen is unsupported — rebuild through a
    /// fresh database to change policy.
    pub policy_overridden: Option<(CompactionConfig, CompactionConfig)>,
    /// WAL records replayed past the flushed high-water mark.
    pub wal_records_replayed: u64,
    /// 1 when replay found a torn tail and truncated it, else 0.
    pub wal_torn_tail_truncated: u64,
    /// Filters restored from persisted images (O(1) reads per table).
    pub filters_loaded: u64,
    /// Filters rebuilt from data blocks (no or corrupt image).
    pub filters_rebuilt: u64,
    /// Persisted filter images that failed validation.
    pub filter_images_corrupt: u64,
    /// Tables left filterless because blocks were unreadable/quarantined.
    pub degraded_tables: u64,
}

impl Db {
    /// Opens an empty database on a fresh simulated disk.
    pub fn new(opts: DbOptions) -> Self {
        let disk = Arc::new(SimDisk::new(opts.io_read_latency));
        Self::open(disk, opts).expect("fresh database open cannot fail")
    }

    /// Opens (or recovers) a database from `disk`: reads CURRENT and the
    /// manifest it names, reconstructs the level structure, garbage-
    /// collects unreferenced blocks, rebuilds filters, replays the WAL
    /// past the flushed high-water mark, and rotates the manifest to a
    /// fresh snapshot.
    pub fn open(disk: Arc<SimDisk>, opts: DbOptions) -> Result<Self> {
        let mut opts = opts;
        let (mut manifest, mut version, fresh) = Manifest::open(&disk, &opts.namespace)?;
        // Policy resolution: the manifest's persisted policy wins — the
        // on-disk level shape was built by it, and opening tiered levels
        // with leveled read paths would assume a disjointness that does
        // not hold. A fresh database records its options' policy now, so
        // every later open agrees.
        let requested = opts.compaction;
        let config = version.policy.unwrap_or(opts.compaction);
        let policy_overridden = (config != requested).then_some((requested, config));
        opts.compaction = config;
        let policy = config.policy();
        let overlapping = policy.overlapping_levels();
        if fresh {
            manifest.append(&disk, &[Edit::Policy(config)])?;
        }
        version.policy = Some(config);
        let mut levels: Vec<Vec<SsTable>> = Vec::new();
        for metas in &version.levels {
            levels.push(metas.iter().map(|m| SsTable::from_meta(m.clone())).collect());
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        if !overlapping {
            // Leveled levels ≥ 1 are key-ordered; tiered runs stay in the
            // manifest's age order (newest last) for newest-first reads.
            for level in levels.iter_mut().skip(1) {
                level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
            }
        }
        // Garbage-collect blocks no table references: torn table builds
        // and compactions that crashed before their manifest transaction
        // leave allocated-but-unpublished blocks behind (data and filter-
        // image blocks alike). A sharded open skips this (another shard's
        // tables also reference this disk) and runs the cross-shard
        // [`gc_orphans`] once every shard is open.
        if opts.gc_orphans {
            release_unreferenced(&disk, levels.iter().flatten())?;
        }
        // Filter recovery, fastest path first:
        //
        // 1. **Persisted image** — one block read per table restores the
        //    filter in O(tables) total I/O. A table with quarantined data
        //    blocks may still load its image: the image indexes *every*
        //    key (the quarantined ones included), so it is over-complete —
        //    worst case a false positive on a lost key, never a false
        //    negative.
        // 2. **Rebuild from keys** — tables without an image (written
        //    before the format, or built filterless under a different
        //    configuration) or with a corrupt image re-read their data
        //    blocks, the old O(data) path.
        // 3. **Degrade to filterless** — a rebuild that hits unreadable or
        //    quarantined blocks leaves the table whole-table filterless (a
        //    partial filter would answer false negatives). Freshly
        //    discovered bad blocks are quarantined into the rotation
        //    snapshot below. Wrong answers are impossible in every case.
        let mut degraded = 0u64;
        let mut loaded = 0u64;
        let mut rebuilt = 0u64;
        let mut images_corrupt = 0u64;
        if !matches!(opts.filter, FilterKind::None) {
            for table in levels.iter_mut().flatten() {
                match table.load_persisted_filter(&disk, &opts.filter) {
                    Ok(true) => {
                        loaded += 1;
                        continue;
                    }
                    Ok(false) => {}
                    Err(_) => images_corrupt += 1,
                }
                let mut entries: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                    Vec::with_capacity(table.num_entries);
                let mut table_degraded = false;
                for bi in 0..table.blocks.len() {
                    if version.quarantined.contains(&(table.id, bi as u32)) {
                        table_degraded = true;
                        continue;
                    }
                    match read_block(&disk, table, bi, 4, None) {
                        Ok(blk) => entries.extend(blk),
                        Err(e) => {
                            if !e.is_transient() {
                                version.quarantined.insert((table.id, bi as u32));
                            }
                            table_degraded = true;
                        }
                    }
                }
                if table_degraded {
                    degraded += 1;
                } else {
                    let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
                    table.attach_filter(&keys, &opts.filter);
                    rebuilt += 1;
                }
            }
        }
        let (wal, records, torn) = Wal::replay(&disk, version.flushed_seq, &wal_file_name(&opts.namespace))?;
        let mut db = Self {
            view: ReadView {
                // Filters were attached above, while the tables were still
                // uniquely owned; from here on they are immutable and shared.
                levels: levels
                    .into_iter()
                    .map(|lvl| lvl.into_iter().map(Arc::new).collect())
                    .collect(),
                overlapping,
                quarantine: Mutex::new(Arc::new(version.quarantined.iter().copied().collect())),
                disk,
                cache: Arc::new(BlockCache::new(opts.cache_blocks)),
            },
            opts,
            mem: SkipList::new(),
            mem_values: Vec::new(),
            mem_bytes: 0,
            mem_tombstones: 0,
            graveyard: Vec::new(),
            next_table_id: version.next_table_id,
            wal,
            manifest: RefCell::new(manifest),
            flushed_seq: version.flushed_seq,
            policy,
            counters: Counters::default(),
            open_report: OpenReport {
                policy_overridden,
                wal_records_replayed: records.len() as u64,
                wal_torn_tail_truncated: u64::from(torn),
                filters_loaded: loaded,
                filters_rebuilt: rebuilt,
                filter_images_corrupt: images_corrupt,
                degraded_tables: degraded,
            },
        };
        let mut last_applied = version.flushed_seq;
        for r in &records {
            // `Wal::replay` already enforces monotonic seqs; re-checking
            // here keeps the recovered-prefix guarantee local to `open`.
            if r.seq <= last_applied {
                return Err(memtree_common::error::MemtreeError::corruption(
                    "wal-replay",
                    format!("record seq {} at or below applied seq {last_applied}", r.seq),
                ));
            }
            last_applied = r.seq;
            db.apply_write(&r.key, r.value.as_deref());
        }
        if !fresh {
            db.manifest.borrow_mut().rotate(&db.view.disk, &version)?;
        }
        db.check_invariants()?;
        Ok(db)
    }

    /// Flushes, syncs, and hands back the disk — the clean-shutdown path.
    /// Reopening after `close` replays zero WAL records.
    pub fn close(mut self) -> Result<Arc<SimDisk>> {
        self.flush()?;
        self.reap_graveyard()?;
        // Any table still pinned by an outstanding snapshot keeps its
        // blocks; reopen's orphan GC reclaims them once nothing durable
        // references them.
        self.view.disk.sync();
        Ok(Arc::clone(&self.view.disk))
    }

    /// A handle to the underlying disk (for crash simulation and
    /// reopening; the disk outlives the `Db`).
    pub fn disk_handle(&self) -> Arc<SimDisk> {
        Arc::clone(&self.view.disk)
    }

    /// Retires a table that left the live version: evicts its cached
    /// blocks, then releases its disk blocks — unless a snapshot still
    /// holds the table, in which case the release is parked in the
    /// graveyard until the last reader drops the `Arc`.
    fn retire_table(&mut self, table: Arc<SsTable>) -> Result<()> {
        self.view.cache.invalidate_table(table.id);
        if Arc::strong_count(&table) == 1 {
            table.release(&self.view.disk)?;
        } else {
            self.graveyard.push(table);
        }
        Ok(())
    }

    /// Releases the blocks of graveyard tables no snapshot holds anymore.
    /// Graveyard blocks are never reused while parked (they stay
    /// allocated), so a late release can never free another table's block.
    fn reap_graveyard(&mut self) -> Result<()> {
        let mut keep = Vec::new();
        for t in std::mem::take(&mut self.graveyard) {
            if Arc::strong_count(&t) == 1 {
                t.release(&self.view.disk)?;
            } else {
                keep.push(t);
            }
        }
        self.graveyard = keep;
        Ok(())
    }

    /// MemTable insert without logging (shared by `put`/`delete` and WAL
    /// replay). `None` writes a delete tombstone.
    fn apply_write(&mut self, key: &[u8], value: Option<&[u8]>) {
        let slot = self.mem_values.len() as u64;
        self.mem_values.push(value.map(<[u8]>::to_vec));
        if !self.mem.insert(key, slot) {
            self.mem.update(key, slot);
        }
        self.mem_tombstones += usize::from(value.is_none());
        self.mem_bytes += key.len() + value.map_or(0, <[u8]>::len) + 1;
    }

    /// Inserts or overwrites `key`, returning the write's sequence number.
    /// The record is durable once [`Db::last_synced_seq`] reaches it.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<u64> {
        self.write(key, Some(value))
    }

    /// Deletes `key`: logs and buffers a tombstone that shadows every
    /// older version until bottom-level compaction drops both. Deleting an
    /// absent key is a (logged) no-op with the same durability guarantee.
    pub fn delete(&mut self, key: &[u8]) -> Result<u64> {
        self.write(key, None)
    }

    /// The stall bands ([`StallConfig`]): checked before a write touches
    /// the WAL, so a rejected write has no side effects at all.
    ///
    /// Stop band: one bounded compaction step of relief, then a typed
    /// [`Stalled`](MemtreeError::Stalled) if the debt still exceeds the
    /// trigger — never an unbounded block. Slowdown band: one relief step
    /// and a typed [`Backpressure`](MemtreeError::Backpressure) whose
    /// suggested wait scales with how deep into the band the engine is.
    /// A relief step's own error is swallowed here (the rejection already
    /// tells the caller to back off); flush/compact surface it typed on
    /// their own paths.
    fn check_pressure(&mut self) -> Result<()> {
        use memtree_common::error::MemtreeError;
        let bands = self.opts.stall;
        let over_stop = |l0: usize, mem: usize| {
            l0 >= bands.stop_l0_runs || mem >= bands.stop_memtable_bytes
        };
        let over_slowdown = |l0: usize, mem: usize| {
            l0 >= bands.slowdown_l0_runs || mem >= bands.slowdown_memtable_bytes
        };
        let (l0, mem) = (self.view.levels[0].len(), self.mem_bytes);
        if !over_slowdown(l0, mem) {
            return Ok(());
        }
        let _ = self.compact_step();
        let (l0, mem) = (self.view.levels[0].len(), self.mem_bytes);
        if over_stop(l0, mem) {
            bump(&self.counters.stall_rejections, 1);
            return Err(MemtreeError::Stalled { l0_runs: l0, memtable_bytes: mem });
        }
        if over_slowdown(l0, mem) {
            bump(&self.counters.backpressure_rejections, 1);
            let depth = (l0 + 1).saturating_sub(bands.slowdown_l0_runs).max(1) as u64;
            return Err(MemtreeError::Backpressure { suggested_wait_us: 100 * depth });
        }
        Ok(())
    }

    fn write(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<u64> {
        self.check_pressure()?;
        let seq = if self.opts.wal {
            self.wal
                .append(&self.view.disk, key, value, self.opts.wal_group_commit)?
        } else {
            self.wal.bump_seq()
        };
        self.apply_write(key, value);
        if self.mem_bytes >= self.opts.memtable_bytes {
            // The write itself is already applied and logged; the flush it
            // triggers is best-effort here. Transient faults get a bounded
            // retry; real failures (ENOSPC, injected aborts) propagate
            // typed with the Db still fully serviceable — a later put or
            // explicit `flush` retries the whole flush.
            let mut backoff = Backoff::new(3);
            loop {
                match self.flush() {
                    Ok(_) => break,
                    Err(e) if backoff.retry(&e) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(seq)
    }

    /// Forces every appended WAL record durable (acknowledges the group-
    /// commit tail).
    pub fn sync(&mut self) -> Result<()> {
        if self.opts.wal {
            self.wal.sync(&self.view.disk)?;
        } else {
            self.view.disk.sync();
        }
        Ok(())
    }

    /// Flushes the MemTable into a new level-0 SSTable. Returns `None`
    /// when the MemTable was empty, else what the flush did.
    ///
    /// Durability order: data blocks are synced first, then the
    /// `AddTable + FlushSeq` manifest transaction commits, and only then
    /// is the WAL's high-water mark reset — never before.
    pub fn flush(&mut self) -> Result<Option<FlushStats>> {
        self.reap_graveyard()?;
        if self.mem.is_empty() {
            return Ok(None);
        }
        // The WAL tail mirrors the MemTable exactly, so the table covers
        // every record up to the last appended seq.
        let flush_seq = self.wal.appended_seq();
        let entries = self.memtable_entries();
        let table = SsTable::build(
            self.next_table_id,
            &self.view.disk,
            &entries,
            self.opts.block_size,
            &self.opts.filter,
        )?;
        // Publish: sync the data blocks, then commit the manifest edit. A
        // failure anywhere before the commit point (injected abort, ENOSPC
        // in the manifest append) releases the built blocks — the Db keeps
        // its previous shape, stays serviceable, and the flush is
        // retryable.
        let committed = (|| -> Result<()> {
            // At this point the data blocks *and* the filter-image block
            // are written but unreferenced — a crash here leaves orphans
            // for recovery's GC, the exact scenario the crash oracle's
            // `lsm.flush.filter_block` point exercises.
            fail_point!(self.view.disk.faults(), "lsm.flush.filter_block");
            fail_point!(self.view.disk.faults(), "lsm.flush.sync");
            self.view.disk.sync();
            self.manifest.borrow_mut().append(
                &self.view.disk,
                &[Edit::AddTable(table.meta(0)), Edit::FlushSeq { seq: flush_seq }],
            )
        })();
        if let Err(e) = committed {
            let _ = table.release(&self.view.disk);
            return Err(e);
        }
        // Commit point: the table is durable and referenced. Install it
        // in-memory *before* the WAL reset below — an error there must
        // leave a Db whose levels match the manifest (the stale WAL tail
        // merely replays records the table already shadows).
        self.flushed_seq = flush_seq;
        self.next_table_id += 1;
        let flushed_entries = entries.len();
        let blocks_written = table.blocks.len();
        self.view.levels[0].push(Arc::new(table));
        self.mem.clear();
        self.mem_values.clear();
        self.mem_bytes = 0;
        self.mem_tombstones = 0;
        let mut wal_bytes = 0u64;
        if self.opts.wal {
            fail_point!(self.view.disk.faults(), "lsm.wal.reset");
            wal_bytes = self.view.disk.file_len(self.wal.file()) as u64;
            self.view.disk.truncate_file(self.wal.file(), 0);
            self.view.disk.sync();
            self.wal.note_reset();
        }
        let stats = FlushStats {
            entries: flushed_entries,
            wal_bytes_truncated: wal_bytes,
            blocks_written,
        };
        if self.opts.compact_on_flush {
            self.compact()?;
        }
        Ok(Some(stats))
    }

    fn level_limit(&self, level: usize) -> usize {
        self.policy
            .level_limit(level, self.opts.l0_tables, self.opts.l1_tables)
    }

    /// Approximate bytes in runs beyond every level's policy limit — the
    /// compaction debt outstanding. Only meaningful as a trend; block
    /// counts stand in for exact byte sizes.
    fn compaction_debt_bytes(&self) -> usize {
        let mut debt = 0usize;
        for (level, tables) in self.view.levels.iter().enumerate() {
            let limit = self.level_limit(level);
            if tables.len() > limit {
                let excess = tables.len() - limit;
                // Oldest runs first: those are the ones a merge consumes.
                debt += tables
                    .iter()
                    .take(excess)
                    .map(|t| t.blocks.len() * self.opts.block_size)
                    .sum::<usize>();
            }
        }
        debt
    }

    /// Every run-time counter of this database (see [`DbStats`]).
    pub fn stats(&self) -> DbStats {
        let c = &self.counters;
        DbStats {
            l0_runs: self.view.levels[0].len(),
            memtable_bytes: self.mem_bytes,
            compaction_debt_bytes: self.compaction_debt_bytes(),
            backpressure_rejections: c.backpressure_rejections.get(),
            stall_rejections: c.stall_rejections.get(),
            compact_steps: c.compact_steps.get(),
            filter_probe_passes: c.filter_probe_passes.get(),
            filter_keys_probed: c.filter_keys_probed.get(),
            read_repairs: c.read_repairs.get(),
            transient_retries: c.transient_retries.get(),
            quarantined_blocks: self.view.quarantined().len() as u64,
        }
    }

    /// What [`Db::open`] observed while recovering this database.
    pub fn open_report(&self) -> &OpenReport {
        &self.open_report
    }

    /// One bounded unit of compaction: merges the shallowest level that is
    /// over its policy limit and returns `Ok(true)`, or returns
    /// `Ok(false)` when no level is over (no debt). This is the drain the
    /// serving layer calls between requests when
    /// [`DbOptions::compact_on_flush`] is off — debt shrinks one step at a
    /// time without ever holding a write hostage to a full compaction run.
    pub fn compact_step(&mut self) -> Result<bool> {
        for level in 0..self.view.levels.len() {
            if self.view.levels[level].len() > self.level_limit(level) {
                self.compact_at(level)?;
                bump(&self.counters.compact_steps, 1);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One debt-draining step for overload relief: like
    /// [`Db::compact_step`], but when no level is over its structural
    /// limit it still merges L0 once the stall *slowdown* band is
    /// reached. Without this, bands tighter than the compaction trigger
    /// would reject writes forever with no level ever "over limit" —
    /// this is the drain that guarantees a backpressure retry can
    /// eventually succeed.
    pub fn compact_debt(&mut self) -> Result<bool> {
        if self.compact_step()? {
            return Ok(true);
        }
        let l0 = self.view.levels[0].len();
        if l0 > 0 && l0 >= self.opts.stall.slowdown_l0_runs {
            self.compact_at(0)?;
            bump(&self.counters.compact_steps, 1);
            return Ok(true);
        }
        Ok(false)
    }

    /// Policy-driven compaction. Leveled: L0 merges wholesale into L1,
    /// deeper levels move one table at a time into the overlap below.
    /// Tiered: a full level merges into one new run appended below,
    /// rewriting nothing.
    ///
    /// The in-memory level structure is only mutated — and old blocks only
    /// released — after the swap's manifest transaction is durable, so an
    /// error (or crash) at any step leaves the previous version fully
    /// readable. Outputs built before a failed commit are unreferenced
    /// blocks that recovery garbage-collects.
    fn compact(&mut self) -> Result<()> {
        // Shallowest over-limit level first, to a fixpoint: a merge only
        // ever adds runs *below* its level, so this performs the same
        // ascending sequence of merges the old single-pass loop did.
        while self.compact_step()? {}
        Ok(())
    }

    /// One merge at `level` (the body of a [`Db::compact_step`]).
    fn compact_at(&mut self, level: usize) -> Result<()> {
        {
            fail_point!(self.view.disk.faults(), "lsm.compact.begin");
            if self.view.levels.len() == level + 1 {
                self.view.levels.push(Vec::new());
            }
            let job = self.policy.pick(&self.view.levels, level);
            let (victim_ids, overlapped_ids) = (job.victim_ids, job.overlapped_ids);
            let victims: Vec<&SsTable> = self.view.levels[level]
                .iter()
                .filter(|t| victim_ids.contains(&t.id))
                .map(|t| t.as_ref())
                .collect();
            // Merge newest-first: victims are newer than `overlapped`;
            // within a level, later tables are newer (L0 flush order /
            // tiered run order).
            let mut sources: Vec<DecodedBlock> = Vec::new();
            for t in victims.iter().rev() {
                sources.push(self.read_all(t)?);
            }
            for t in self.view.levels[level + 1]
                .iter()
                .filter(|t| overlapped_ids.contains(&t.id))
            {
                sources.push(self.read_all(t)?);
            }
            let mut merged: Vec<(usize, Vec<u8>, Option<Vec<u8>>)> = Vec::new();
            for (prio, src) in sources.into_iter().enumerate() {
                for (k, v) in src {
                    merged.push((prio, k, v));
                }
            }
            merged.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
            merged.dedup_by(|b, a| a.1 == b.1); // keep lowest prio = newest
            let mut entries: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                merged.into_iter().map(|(_, k, v)| (k, v)).collect();
            // Tombstones are dropped only once nothing deeper can hold an
            // older version of a merged key — otherwise removing the
            // tombstone would resurrect that older version. "Deeper" is
            // everything at the output level and below that is *not*
            // consumed by this merge: under leveled that reduces to the
            // old `level + 2..` check (unconsumed level+1 tables cannot
            // overlap the merge by disjointness), and under tiered it
            // keeps tombstones alive over the older runs they shadow at
            // the output level.
            if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
                let (min, max) = (first.0.clone(), last.0.clone());
                let deeper = self.view.levels[level + 1..]
                    .iter()
                    .flatten()
                    .any(|t| !overlapped_ids.contains(&t.id) && t.overlaps(&min, &max));
                if !deeper {
                    entries.retain(|(_, v)| v.is_some());
                }
            }
            // Build the outputs aside: one run under a single-output
            // policy (the run count is what tiered's level limit bounds),
            // tables of ~10 memtables each otherwise. If every entry was
            // a dropped tombstone this degenerates to a removal-only
            // transaction. A failure before the manifest commit releases
            // every output built so far: the previous version stays live
            // and the Db stays serviceable.
            let per_table = if self.policy.single_output() {
                entries.len()
            } else {
                (self.opts.memtable_bytes * 4 / 64).max(64) // entries per output table
            };
            let mut new_tables: Vec<SsTable> = Vec::new();
            let mut next_id = self.next_table_id;
            let committed = (|| -> Result<()> {
                for chunk in entries.chunks(per_table.max(1)) {
                    new_tables.push(SsTable::build(
                        next_id,
                        &self.view.disk,
                        chunk,
                        self.opts.block_size,
                        &self.opts.filter,
                    )?);
                    next_id += 1;
                }
                fail_point!(self.view.disk.faults(), "lsm.compact.sync");
                self.view.disk.sync();
                let mut edits: Vec<Edit> = victim_ids
                    .iter()
                    .chain(overlapped_ids.iter())
                    .map(|&id| Edit::RemoveTable { id })
                    .collect();
                for t in &new_tables {
                    edits.push(Edit::AddTable(t.meta(level + 1)));
                }
                self.manifest.borrow_mut().append(&self.view.disk, &edits)
            })();
            if let Err(e) = committed {
                for t in &new_tables {
                    let _ = t.release(&self.view.disk);
                }
                return Err(e);
            }
            // Commit point: swap the in-memory version and free victims.
            // Quarantine entries die with the tables that carried them
            // (the manifest's RemoveTable does the same purge).
            self.next_table_id = next_id;
            self.view.edit_quarantine(|q| {
                q.retain(|&(t, _)| !victim_ids.contains(&t) && !overlapped_ids.contains(&t))
            });
            let mut dropped: Vec<Arc<SsTable>> = Vec::new();
            for lvl in [level, level + 1] {
                let keep: Vec<Arc<SsTable>> = std::mem::take(&mut self.view.levels[lvl])
                    .into_iter()
                    .filter_map(|t| {
                        if victim_ids.contains(&t.id) || overlapped_ids.contains(&t.id) {
                            dropped.push(t);
                            None
                        } else {
                            Some(t)
                        }
                    })
                    .collect();
                self.view.levels[lvl] = keep;
            }
            for t in dropped {
                self.retire_table(t)?;
            }
            let next = &mut self.view.levels[level + 1];
            next.extend(new_tables.into_iter().map(Arc::new));
            if !self.view.overlapping {
                next.sort_by(|a, b| a.min_key.cmp(&b.min_key));
            }
        }
        Ok(())
    }

    fn read_all(&self, table: &SsTable) -> Result<DecodedBlock> {
        // Compaction I/O is counted as reads too (as in real systems).
        // A quarantined block gets one last read-repair chance here:
        // quarantine can stem from wire-level rot (the stored bytes are
        // intact and a re-read validates), and this merge is the final
        // moment the entries can be rescued before the input table
        // retires and the loss becomes permanent. A block that still
        // fails is skipped — that loss was already reported when the
        // block was quarantined, and insisting on reading it would wedge
        // every future flush behind the same error. Readable blocks still
        // propagate errors — a *fresh* failure must not silently drop
        // entries.
        let mut out = Vec::with_capacity(table.num_entries);
        let retries = Some(&self.counters.transient_retries);
        for b in 0..table.blocks.len() {
            if self.view.is_quarantined(table.id, b) {
                if let Ok(d) = read_block(&self.view.disk, table, b, 4, retries) {
                    self.view.edit_quarantine(|q| q.remove(&(table.id, b as u32)));
                    bump(&self.counters.read_repairs, 1);
                    out.extend(d);
                }
                continue;
            }
            out.extend(self.view.fetch(table, b, 4, retries)?.iter().cloned());
        }
        Ok(out)
    }

    /// The `Db`'s policy over the shared fetch ladder
    /// ([`ReadView::fetch`]) for the query paths:
    ///
    /// * **transient** read errors are retried under [`Backoff`] until
    ///   they heal — and are *never* quarantined (the on-disk data is
    ///   intact); an exhausted retry budget serves the block as empty for
    ///   this one query only.
    /// * a **persistent** decode failure is retried once more (the read
    ///   repair — media faults injected on the read copy can vanish on
    ///   re-read), and
    /// * a block that still fails is **quarantined**: queries treat it as
    ///   empty, the quarantine is persisted through the manifest so
    ///   reopen skips it, and only scrub can lift it. The counters in
    ///   [`Db::stats`] record every step instead of the process
    ///   panicking.
    fn fetch_block(&self, table: &SsTable, block: usize) -> Arc<DecodedBlock> {
        let retries = Some(&self.counters.transient_retries);
        match self.view.fetch(table, block, READ_ATTEMPTS, retries) {
            Ok(d) => d,
            Err(e) if e.is_transient() => Arc::default(),
            Err(_) => match read_block(&self.view.disk, table, block, READ_ATTEMPTS, retries) {
                Ok(d) => {
                    let d = Arc::new(d);
                    bump(&self.counters.read_repairs, 1);
                    self.view.cache.insert(table.id, block, Arc::clone(&d));
                    d
                }
                Err(_) => {
                    self.view.edit_quarantine(|q| q.insert((table.id, block as u32)));
                    // Best-effort persistence: if the manifest append
                    // itself fails the quarantine still holds in memory
                    // and reopen rediscovers the bad block.
                    let _ = self.manifest.borrow_mut().append(
                        &self.view.disk,
                        &[Edit::Quarantine {
                            table: table.id,
                            block: block as u32,
                        }],
                    );
                    Arc::default()
                }
            },
        }
    }

    /// Per-key filter check, counted in [`DbStats`]; filterless tables
    /// pass through uncounted.
    fn probe_filter(&self, table: &SsTable, key: &[u8]) -> bool {
        if !table.has_filter() {
            return true;
        }
        bump(&self.counters.filter_probe_passes, 1);
        bump(&self.counters.filter_keys_probed, 1);
        table.filter_may_contain(key)
    }

    /// Point lookup (Figure 4.3, Get path). The newest version wins: a
    /// tombstone found at any level answers `None` without consulting
    /// older levels.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(slot) = self.mem.get(key) {
            return self.mem_values[slot as usize].clone();
        }
        self.view
            .get(key, |t| self.probe_filter(t, key), |t, b| self.fetch_block(t, b))
            .flatten()
    }

    /// Resolves the not-yet-answered candidate keys `cand` (indexes into
    /// `keys`) against one table: one batched filter probe over the whole
    /// candidate set, then block fetches shared across survivors that are
    /// sorted into the same block. `out[i]` is written only on a hit
    /// (where a tombstone hit writes `Some(None)`, resolving the key as
    /// deleted).
    fn multi_get_in_table(
        &self,
        table: &SsTable,
        keys: &[&[u8]],
        cand: &[u32],
        out: &mut [Option<Option<Vec<u8>>>],
    ) {
        let mut survivors: Vec<u32>;
        if table.has_filter() {
            let probe: Vec<&[u8]> = cand.iter().map(|&i| keys[i as usize]).collect();
            let bits = table.filter_may_contain_batch(&probe);
            bump(&self.counters.filter_probe_passes, 1);
            bump(&self.counters.filter_keys_probed, probe.len() as u64);
            survivors = cand
                .iter()
                .enumerate()
                .filter(|&(j, _)| bits.get(j))
                .map(|(_, &i)| i)
                .collect();
        } else {
            survivors = cand.to_vec();
        }
        if survivors.is_empty() {
            return;
        }
        // Key order clusters probes of the same data block behind a single
        // fetch — the block-level analogue of the sorted-batch descent.
        survivors.sort_unstable_by(|&a, &b| keys[a as usize].cmp(keys[b as usize]));
        let mut cur: Option<(usize, Arc<DecodedBlock>)> = None;
        for &i in &survivors {
            let key = keys[i as usize];
            let b = table.candidate_block(key);
            let blk = match &cur {
                Some((cb, blk)) if *cb == b => Arc::clone(blk),
                _ => {
                    let blk = self.fetch_block(table, b);
                    cur = Some((b, Arc::clone(&blk)));
                    blk
                }
            };
            if let Some(v) = find_in_block(&blk, key) {
                out[i as usize] = Some(v);
            }
        }
    }

    /// Batched point lookup: one `Option<value>` per key, in input order,
    /// each identical to what [`Db::get`] returns for that key.
    ///
    /// The batch walks the same newest-to-oldest path as `get`, but per
    /// *table* instead of per key: one `may_contain_batch` filter pass over
    /// every still-unresolved candidate key, then shared block fetches over
    /// the survivors. Keys answered by a newer level are dropped from the
    /// batch before older tables are consulted (the short-circuit a per-key
    /// loop gets for free).
    pub fn multi_get(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        // Inner `Option` is the resolution (`Some(None)` = tombstoned);
        // flattened to the public shape at the end.
        let mut out: Vec<Option<Option<Vec<u8>>>> = vec![None; keys.len()];
        let mut unresolved: Vec<u32> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if let Some(slot) = self.mem.get(key) {
                out[i] = Some(self.mem_values[slot as usize].clone());
            } else {
                unresolved.push(i as u32);
            }
        }
        for lvl in 0..self.view.levels.len() {
            if unresolved.is_empty() {
                break;
            }
            let level = &self.view.levels[lvl];
            if self.view.overlaps(lvl) {
                // Overlapping runs, newest first: every unresolved key a
                // run covers is a candidate.
                for table in level.iter().rev() {
                    if unresolved.is_empty() {
                        break;
                    }
                    let cand: Vec<u32> = unresolved
                        .iter()
                        .copied()
                        .filter(|&i| table.covers(keys[i as usize]))
                        .collect();
                    if cand.is_empty() {
                        continue;
                    }
                    self.multi_get_in_table(table, keys, &cand, &mut out);
                    unresolved.retain(|&i| out[i as usize].is_none());
                }
                continue;
            }
            // A leveled level is disjoint: group unresolved keys by the one
            // table whose range can hold them, then batch once per table.
            let mut grouped: Vec<(u32, u32)> = Vec::new(); // (table idx, key idx)
            for &i in &unresolved {
                let key = keys[i as usize];
                if let Some(idx) = self.view.positions(lvl, key, true).next() {
                    if level[idx].covers(key) {
                        grouped.push((idx as u32, i));
                    }
                }
            }
            grouped.sort_unstable();
            for group in grouped.chunk_by(|a, b| a.0 == b.0) {
                let cand: Vec<u32> = group.iter().map(|&(_, i)| i).collect();
                self.multi_get_in_table(&level[group[0].0 as usize], keys, &cand, &mut out);
            }
            unresolved.retain(|&i| out[i as usize].is_none());
        }
        out.into_iter().map(|r| r.flatten()).collect()
    }

    /// Batched range read: for each `(low, n)` pair, the keys of the `n`
    /// smallest entries `>= low`, resolved through the same SuRF-assisted
    /// path as [`Db::seek`] / [`Db::next_after`] and positionally identical
    /// to a per-range seek-then-next loop. Ranges are walked in sorted-low
    /// order so nearby ranges reuse each other's just-cached blocks, and
    /// the whole batch shares one candidate memo (see [`Db::multi_seek`])
    /// so a table's lower bound resolved for one range answers the next
    /// range's seek without re-probing it.
    pub fn multi_scan(&self, ranges: &[(&[u8], usize)]) -> Vec<Vec<Vec<u8>>> {
        let mut results: Vec<Vec<Vec<u8>>> = ranges.iter().map(|_| Vec::new()).collect();
        let mut order: Vec<u32> = (0..ranges.len() as u32).collect();
        order.sort_by(|&a, &b| ranges[a as usize].0.cmp(ranges[b as usize].0));
        let mut memo = SeekMemo::new();
        for &ri in &order {
            let (low, n) = ranges[ri as usize];
            if n == 0 {
                continue;
            }
            let out = &mut results[ri as usize];
            let mut cur = match self.seek_memoized(low, None, &mut memo) {
                SeekResult::Found { key } => key,
                SeekResult::NotFound => continue,
            };
            loop {
                out.push(cur.clone());
                if out.len() == n {
                    break;
                }
                let succ = memtree_common::key::successor(&cur);
                match self.seek_memoized(&succ, None, &mut memo) {
                    SeekResult::Found { key } => cur = key,
                    SeekResult::NotFound => break,
                }
            }
        }
        results
    }

    /// Exact smallest key `>= lk` within one table (1–2 block reads).
    fn table_lower_bound(&self, table: &SsTable, lk: &[u8]) -> Option<Vec<u8>> {
        let (_, blk, pos) = seek_in_table(table, lk, |b| self.fetch_block(table, b));
        blk.get(pos).map(|(k, _)| k.clone())
    }

    /// Seek (Figure 4.3): smallest key `>= lk`, bounded by `hk` when given.
    ///
    /// Tombstone-aware: the structural candidate (smallest stored entry,
    /// live or deleted) is verified against the merged view and, when it
    /// turns out to be a shadowed delete, the seek restarts past it. The
    /// verification `get` is skipped entirely while the store holds no
    /// tombstones, which keeps the delete-free fast path at its original
    /// I/O cost.
    pub fn seek(&self, lk: &[u8], hk: Option<&[u8]>) -> SeekResult {
        // A fresh memo still helps one seek: the tombstone resolution loop
        // re-queries the same tables with a strictly increasing `lk`.
        self.seek_memoized(lk, hk, &mut SeekMemo::new())
    }

    /// Batched closed-range seek: for each `(lk, hk)` pair the smallest
    /// live key in `[lk, hk)`, exactly as [`Db::seek`] would answer it.
    /// The batch is resolved in sorted-`lk` order against one shared
    /// candidate memo, so SuRF's `moveToNext` candidate pruning and the
    /// candidate block fetches are shared across the batch: a table whose
    /// exact lower bound is already known from an earlier (lower) range
    /// reuses it with zero additional I/O.
    pub fn multi_seek(&self, ranges: &[(&[u8], &[u8])]) -> Vec<SeekResult> {
        let mut out = vec![SeekResult::NotFound; ranges.len()];
        let mut order: Vec<u32> = (0..ranges.len() as u32).collect();
        order.sort_by(|&a, &b| ranges[a as usize].0.cmp(ranges[b as usize].0));
        let mut memo = SeekMemo::new();
        for &ri in &order {
            let (lk, hk) = ranges[ri as usize];
            out[ri as usize] = self.seek_memoized(lk, Some(hk), &mut memo);
        }
        out
    }

    /// [`Db::seek`] resolved against a shared candidate memo.
    fn seek_memoized(&self, lk: &[u8], hk: Option<&[u8]>, memo: &mut SeekMemo) -> SeekResult {
        let mut low = lk.to_vec();
        loop {
            let cand = match self.seek_candidate(&low, hk, memo) {
                SeekResult::Found { key } => key,
                SeekResult::NotFound => return SeekResult::NotFound,
            };
            if !self.any_tombstones() || self.get(&cand).is_some() {
                return SeekResult::Found { key: cand };
            }
            low = memtree_common::key::successor(&cand);
            if let Some(hk) = hk {
                if low.as_slice() >= hk {
                    return SeekResult::NotFound;
                }
            }
        }
    }

    /// Cheap gate for the seek resolution loop: any tombstone anywhere?
    fn any_tombstones(&self) -> bool {
        self.mem_tombstones > 0
            || self.view.levels.iter().flatten().any(|t| t.num_tombstones > 0)
    }

    /// The structural part of [`Db::seek`]: smallest *stored* key `>= lk`
    /// across memtable and tables, tombstones included.
    ///
    /// `memo` caches each table's resolved exact lower bound as
    /// `(lk₀, candidate)`. A cached entry answers a later query at
    /// `lk ≥ lk₀` for free: `candidate` (when `≥ lk`) is still exact
    /// because the table holds no key in `[lk₀, candidate)` ⊇
    /// `[lk, candidate)`, and a `None` candidate means the table holds no
    /// key `≥ lk₀` at all. Entries that can't answer (`lk < lk₀`, or a
    /// candidate now below `lk`) are re-resolved and overwritten, so the
    /// memo is correct for *any* query order — sorted batches merely make
    /// it effective.
    fn seek_candidate(&self, lk: &[u8], hk: Option<&[u8]>, memo: &mut SeekMemo) -> SeekResult {
        // Memtable candidate is exact and free.
        let mut best: Option<Vec<u8>> = None;
        self.mem.range_from(lk, &mut |k, _| {
            best = Some(k.to_vec());
            false
        });
        // A table's exact lower bound (block fetch), memoized.
        let resolve = |table: &SsTable, memo: &mut SeekMemo, best: &mut Option<Vec<u8>>| {
            let k = self.table_lower_bound(table, lk);
            memo.insert(table.id, (lk.to_vec(), k.clone()));
            keep_min(best, k);
        };
        // Candidates per table: exact (block fetch) without SuRF, prefix
        // (in-memory moveToNext) with SuRF — those wait in `pending` as
        // (prefix, level, idx). Any overlapping run may hold the lower
        // bound; a leveled level's is in its first table reaching lk.
        let mut pending: Vec<(Vec<u8>, usize, usize)> = Vec::new();
        for lvl in 0..self.view.levels.len() {
            for idx in self.view.positions(lvl, lk, true) {
                let table = &self.view.levels[lvl][idx];
                // A table can serve the seek only if its range meets
                // [lk, hk): without the upper prune, filterless tables
                // above hk paid a block fetch in `table_lower_bound` just
                // to produce an out-of-bound candidate.
                if !table.meets(lk, hk) {
                    continue;
                }
                // Memo hit: an exact lower bound resolved at some lk₀ <= lk
                // answers without touching the filter or a block.
                if let Some((lk0, cached)) = memo.get(&table.id) {
                    if lk >= lk0.as_slice() {
                        match cached {
                            None => continue, // no key >= lk₀ ⇒ none >= lk
                            Some(c) if c.as_slice() >= lk => {
                                keep_min(&mut best, Some(c.clone()));
                                continue;
                            }
                            Some(_) => {} // candidate fell below lk: re-resolve
                        }
                    }
                }
                match table.surf() {
                    Some(surf) => {
                        let (it, _fp) = surf.move_to_next(lk);
                        // Prune candidates definitely past hk.
                        if it.valid() && hk.is_none_or(|hk| it.key() < hk) {
                            pending.push((it.key().to_vec(), lvl, idx));
                        }
                    }
                    // No usable range filter: fetch the candidate block.
                    None => resolve(table, memo, &mut best),
                }
            }
        }
        // Resolve SuRF candidates smallest-prefix-first until the best
        // exact key cannot be beaten.
        pending.sort();
        for (prefix, lvl, idx) in pending {
            if let Some(b) = &best {
                // A prefix >= best exact key cannot yield a smaller key...
                // unless it is a prefix of `best` (its extension could be
                // smaller), so only prune on strictly-greater non-prefixes.
                if prefix.as_slice() >= b.as_slice() && !b.starts_with(&prefix) {
                    break;
                }
            }
            resolve(&self.view.levels[lvl][idx], memo, &mut best);
        }
        match best {
            Some(key) if hk.is_none_or(|hk| key.as_slice() < hk) => SeekResult::Found { key },
            _ => SeekResult::NotFound,
        }
    }

    /// `Next` (Figure 4.3): the smallest entry strictly greater than
    /// `key`, bounded by `hk`. As the thesis observes, `Next` rarely
    /// benefits from filters — the relevant blocks are usually already
    /// cached from the preceding `Seek`.
    pub fn next_after(&self, key: &[u8], hk: Option<&[u8]>) -> SeekResult {
        let succ = memtree_common::key::successor(key);
        self.seek(&succ, hk)
    }

    /// Approximate range count (Figure 4.3, Count path). With SuRF the
    /// count is served from the filters (no data I/O); otherwise data
    /// blocks are scanned.
    pub fn count(&self, lk: &[u8], hk: &[u8]) -> usize {
        let mut total = 0usize;
        self.mem.range_from(lk, &mut |k, slot| {
            if k < hk {
                total += usize::from(self.mem_values[slot as usize].is_some());
                true
            } else {
                false
            }
        });
        for level in &self.view.levels {
            for table in level {
                if !table.overlaps(lk, hk) {
                    continue;
                }
                match table.surf() {
                    Some(surf) => total += surf.count(lk, hk),
                    None => {
                        let mut b = table.candidate_block(lk);
                        'blocks: while b < table.blocks.len() {
                            let blk = self.fetch_block(table, b);
                            let start = blk.partition_point(|(k, _)| k.as_slice() < lk);
                            for (k, v) in &blk[start..] {
                                if k.as_slice() >= hk {
                                    break 'blocks;
                                }
                                total += usize::from(v.is_some());
                            }
                            b += 1;
                        }
                    }
                }
            }
        }
        total
    }

    /// The compaction configuration actually in force (after manifest
    /// resolution — may differ from the options passed to [`Db::open`]).
    pub fn compaction_config(&self) -> CompactionConfig {
        self.opts.compaction
    }

    /// The live version as the manifest would describe it (used by scrub
    /// to rewrite the manifest after repairs).
    pub(crate) fn current_version(&self) -> Version {
        Version {
            levels: self
                .view
                .levels
                .iter()
                .enumerate()
                .map(|(lvl, level)| level.iter().map(|t| t.meta(lvl)).collect())
                .collect(),
            flushed_seq: self.flushed_seq,
            next_table_id: self.next_table_id,
            quarantined: self.view.quarantined().iter().copied().collect(),
            policy: Some(self.opts.compaction),
        }
    }

    pub(crate) fn memtable_is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// The MemTable's entries in key order, tombstones included (what a
    /// flush writes and a snapshot freezes).
    pub(crate) fn memtable_entries(&self) -> DecodedBlock {
        let mut out = Vec::with_capacity(self.mem.len());
        self.mem.for_each_sorted(&mut |k, slot| {
            out.push((k.to_vec(), self.mem_values[slot as usize].clone()));
        });
        out
    }

    /// `[min, max]` of the keys currently buffered in the MemTable
    /// (tombstones included — a buffered delete is newer data too).
    pub(crate) fn memtable_range(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let mut min: Option<Vec<u8>> = None;
        let mut max: Option<Vec<u8>> = None;
        self.mem.for_each_sorted(&mut |k, _| {
            if min.is_none() {
                min = Some(k.to_vec());
            }
            max = Some(k.to_vec());
        });
        min.zip(max)
    }

    /// Truncates the WAL to empty and resets its high-water bookkeeping
    /// (scrub's repair for a damaged log that covers no unflushed data).
    pub(crate) fn discard_wal(&mut self) {
        self.view.disk.truncate_file(self.wal.file(), 0);
        self.view.disk.sync();
        self.wal.note_reset();
    }

    /// This database's WAL file name in the disk namespace.
    pub(crate) fn wal_file(&self) -> String {
        self.wal.file().to_string()
    }

    /// Marks WAL records up to `seq` acknowledged without issuing a sync
    /// barrier of its own — for a caller that proved durability with one
    /// `disk.sync()` covering several databases' appends (the cross-shard
    /// group commit). Clamped and monotone; a no-op with the WAL off.
    pub fn mark_synced_through(&mut self, seq: u64) {
        if self.opts.wal {
            self.wal.mark_synced(seq);
        }
    }

    /// WAL append counters (see [`WalStats`]).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Highest sequence number applied to this database, durable or not.
    /// After recovery this is exactly the length of the put-history prefix
    /// the database equals.
    pub fn last_seq(&self) -> u64 {
        self.wal.appended_seq().max(self.flushed_seq)
    }

    /// Highest *acknowledged* sequence number: every put at or below it is
    /// guaranteed to survive a crash.
    pub fn last_synced_seq(&self) -> u64 {
        self.wal.synced_seq().max(self.flushed_seq)
    }

    /// (cache hits, cache misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.view.cache.stats()
    }

    /// Total SSTables per level (diagnostics).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.view.levels.iter().map(|l| l.len()).collect()
    }

    /// Device ids of every live persisted filter-image block (diagnostics;
    /// the corruption oracles bit-rot these to prove safe degradation).
    pub fn filter_block_ids(&self) -> Vec<u32> {
        self.view.levels.iter().flatten().filter_map(|t| t.filter_block).collect()
    }

    /// Structural invariants the recovery oracle re-checks after every
    /// crash + reopen: per-table geometry is coherent, every referenced
    /// block is allocated, and levels ≥ 1 are sorted and disjoint.
    pub fn check_invariants(&self) -> Result<()> {
        let broken = |detail: String| {
            Err(memtree_common::error::MemtreeError::corruption(
                "lsm-invariant",
                detail,
            ))
        };
        for (lvl, level) in self.view.levels.iter().enumerate() {
            for t in level {
                if t.fences.len() != t.blocks.len() {
                    return broken(format!("table {}: fences != blocks", t.id));
                }
                if t.fences.is_empty() || t.fences[0] != t.min_key || t.min_key > t.max_key {
                    return broken(format!("table {}: bad key range", t.id));
                }
                if t.fences.windows(2).any(|w| w[0] > w[1]) {
                    return broken(format!("table {}: fences unsorted", t.id));
                }
                if t.blocks.iter().any(|&b| !self.view.disk.is_live(b)) {
                    return broken(format!("table {}: references freed block", t.id));
                }
            }
            if lvl >= 1 && !self.view.overlapping {
                for w in level.windows(2) {
                    if w[0].max_key >= w[1].min_key {
                        return broken(format!(
                            "level {lvl}: tables {} and {} overlap",
                            w[0].id, w[1].id
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// In-memory footprint of filters + fence indexes.
    pub fn index_filter_mem(&self) -> usize {
        self.view.levels
            .iter()
            .flatten()
            .map(|t| t.mem_usage())
            .sum::<usize>()
    }

    /// Total entries across all tables (duplicates across levels counted).
    pub fn table_entries(&self) -> usize {
        self.view.levels.iter().flatten().map(|t| t.len()).sum()
    }
}

/// Cross-database orphan-block GC: releases every live disk block that no
/// table of any of `dbs` references. The sharded serving layer opens every
/// shard with [`DbOptions::gc_orphans`] `= false` (a single shard must not
/// free its siblings' blocks) and runs this once, afterwards. Returns the
/// number of blocks freed.
pub fn gc_orphans(disk: &SimDisk, dbs: &[&Db]) -> Result<u64> {
    let tables = dbs.iter().flat_map(|db| db.view.levels.iter().flatten());
    release_unreferenced(disk, tables.map(|t| &**t))
}

/// Releases every live block of `disk` that no table in `tables`
/// references (data and filter-image blocks alike); returns how many.
fn release_unreferenced<'a>(
    disk: &SimDisk,
    tables: impl Iterator<Item = &'a SsTable>,
) -> Result<u64> {
    let referenced: HashSet<u32> = tables
        .flat_map(|t| t.blocks.iter().copied().chain(t.filter_block))
        .collect();
    let mut freed = 0u64;
    for id in 0..disk.block_slots() as u32 {
        if disk.is_live(id) && !referenced.contains(&id) {
            disk.release(id)?;
            freed += 1;
        }
    }
    Ok(freed)
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    fn blk(tag: u8) -> Arc<DecodedBlock> {
        Arc::new(vec![(vec![tag], Some(vec![tag; 4]))])
    }

    /// Regression for the duplicate-slot bug: re-inserting an already-
    /// cached `(table, block)` must refresh the existing slot in place —
    /// the old `insert` blindly indexed a new slot, leaving the previous
    /// one in the CLOCK ring unindexed (capacity silently lost, and
    /// `invalidate` could never find it).
    #[test]
    fn reinsert_refreshes_in_place_without_duplicate_slots() {
        let cache = BlockCache::new(4);
        cache.insert(1, 0, blk(1));
        assert_eq!(cache.slot_count(), 1);
        assert!(cache.get(1, 0).is_some());
        // Re-insert the same block (a racing fill after a concurrent
        // invalidate-miss does exactly this).
        cache.insert(1, 0, blk(2));
        assert_eq!(cache.slot_count(), 1, "duplicate slot for re-inserted block");
        let got = cache.get(1, 0).expect("still cached");
        assert_eq!(got[0].0, vec![2u8], "refresh must install the new payload");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (2, 2), "both inserts count as misses, both gets as hits");
        for s in &cache.stripes {
            s.lock().unwrap().assert_coherent();
        }
        // And invalidate actually removes it — with the duplicate bug the
        // stale twin survived invisibly.
        cache.invalidate(1, 0);
        assert_eq!(cache.slot_count(), 0);
        assert!(cache.get(1, 0).is_none());
    }

    /// Randomized differential test: drive insert/get/invalidate/
    /// invalidate-table schedules against a map model and assert the
    /// index ↔ slot bijection after every operation, across capacities
    /// (0, 1, and the hand-wraparound-prone small sizes).
    #[test]
    fn randomized_cache_vs_model() {
        for capacity in [0usize, 1, 2, 3, 8, 17] {
            for seed in 0..16u64 {
                let cache = BlockCache::new(capacity);
                // Model: what the newest inserted payload for a key is.
                let mut model: HashMap<(u64, usize), u8> = HashMap::new();
                let mut gone: HashSet<(u64, usize)> = HashSet::new();
                let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) + 1;
                for step in 0..400u64 {
                    let r = memtree_common::hash::splitmix64(&mut state);
                    let table = r % 3;
                    let block = (r >> 8) as usize % 5;
                    let tag = (step % 251) as u8;
                    match (r >> 16) % 10 {
                        0..=4 => {
                            cache.insert(table, block, blk(tag));
                            model.insert((table, block), tag);
                            gone.remove(&(table, block));
                        }
                        5..=7 => {
                            if let Some(hit) = cache.get(table, block) {
                                assert!(
                                    !gone.contains(&(table, block)),
                                    "cap {capacity} seed {seed}: invalidated key served"
                                );
                                assert_eq!(
                                    hit[0].0[0], model[&(table, block)],
                                    "cap {capacity} seed {seed}: stale payload"
                                );
                            }
                        }
                        8 => {
                            cache.invalidate(table, block);
                            gone.insert((table, block));
                        }
                        _ => {
                            cache.invalidate_table(table);
                            for b in 0..5 {
                                gone.insert((table, b));
                            }
                        }
                    }
                    for s in &cache.stripes {
                        s.lock().unwrap().assert_coherent();
                    }
                    // Invalidated keys must miss until re-inserted.
                    for &(t, b) in &gone {
                        assert!(
                            cache.get(t, b).is_none(),
                            "cap {capacity} seed {seed}: ghost entry ({t},{b})"
                        );
                    }
                }
                assert!(cache.slot_count() <= capacity.max(1) * 8);
            }
        }
    }

    /// Evict-then-reinsert the same key under a full ring: the CLOCK hand
    /// and index must stay coherent through wraparound after removals.
    #[test]
    fn evict_reinsert_and_hand_wraparound_stay_coherent() {
        let cache = BlockCache::new(1); // one stripe, one slot: maximal churn
        for round in 0..20u64 {
            cache.insert(round % 2, 0, blk(round as u8));
            assert_eq!(cache.slot_count(), 1);
            if round % 3 == 0 {
                cache.invalidate(round % 2, 0);
                assert_eq!(cache.slot_count(), 0);
            }
            for s in &cache.stripes {
                s.lock().unwrap().assert_coherent();
            }
        }
        // Capacity-0 cache: inserts are counted misses, nothing sticks.
        let zero = BlockCache::new(0);
        zero.insert(1, 1, blk(9));
        assert!(zero.get(1, 1).is_none());
        assert_eq!(zero.slot_count(), 0);
        assert_eq!(zero.stats(), (0, 1), "the insert after the miss is what counts it");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    /// Device block reads `f` causes, as a before/after delta.
    pub(super) fn reads_during(db: &Db, f: impl FnOnce()) -> u64 {
        let before = db.view.disk.stats().block_reads;
        f();
        db.view.disk.stats().block_reads - before
    }

    fn db_with(filter: FilterKind, n: u64) -> Db {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 8 << 10,
            filter,
            io_read_latency: Duration::ZERO,
            ..Default::default()
        });
        let mut state = 42u64;
        for _ in 0..n {
            let k = memtree_common::hash::splitmix64(&mut state);
            db.put(&encode_u64(k), &k.to_le_bytes()).unwrap();
        }
        db
    }

    #[test]
    fn put_get_across_levels() {
        for filter in [
            FilterKind::None,
            FilterKind::Bloom(14.0),
            FilterKind::SurfHash(4),
            FilterKind::SurfReal(4),
        ] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                ..Default::default()
            });
            for i in 0..5000u64 {
                db.put(&encode_u64(i * 7), &i.to_le_bytes()).unwrap();
            }
            assert!(db.level_sizes().len() > 1, "{filter:?}: no compaction");
            for i in (0..5000u64).step_by(113) {
                assert_eq!(
                    db.get(&encode_u64(i * 7)),
                    Some(i.to_le_bytes().to_vec()),
                    "{filter:?} get {i}"
                );
                assert_eq!(db.get(&encode_u64(i * 7 + 1)), None);
            }
        }
    }

    #[test]
    fn updates_shadow_older_versions() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 2 << 10,
            ..Default::default()
        });
        for round in 0..5u64 {
            for i in 0..500u64 {
                db.put(&encode_u64(i), &(i + round * 1000).to_le_bytes()).unwrap();
            }
        }
        for i in (0..500u64).step_by(7) {
            assert_eq!(db.get(&encode_u64(i)), Some((i + 4000).to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn seek_open_and_closed() {
        for filter in [FilterKind::None, FilterKind::SurfReal(4)] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                ..Default::default()
            });
            for i in 0..3000u64 {
                db.put(&encode_u64(i * 10), b"v").unwrap();
            }
            // Open seek.
            match db.seek(&encode_u64(995), None) {
                SeekResult::Found { key } => {
                    assert_eq!(memtree_common::key::decode_u64(&key), 1000, "{filter:?}")
                }
                SeekResult::NotFound => panic!("{filter:?}: open seek missed"),
            }
            // Closed seek hit.
            assert!(matches!(
                db.seek(&encode_u64(995), Some(&encode_u64(1005))),
                SeekResult::Found { .. }
            ));
            // Closed seek in a gap.
            assert_eq!(
                db.seek(&encode_u64(991), Some(&encode_u64(999))),
                SeekResult::NotFound,
                "{filter:?}"
            );
            // Past the end.
            assert_eq!(db.seek(&encode_u64(40_000), None), SeekResult::NotFound);
        }
    }

    #[test]
    fn surf_saves_io_on_empty_closed_seeks() {
        let build = |filter| {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                cache_blocks: 0, // isolate I/O counts
                ..Default::default()
            });
            for i in 0..5000u64 {
                db.put(&encode_u64(i << 20), b"value").unwrap();
            }
            db.flush().unwrap();
            db
        };
        let io_for = |db: &Db| {
            reads_during(db, || {
                let mut state = 7u64;
                for _ in 0..200 {
                    let base = (memtree_common::hash::splitmix64(&mut state) % 5000) << 20;
                    // Range strictly inside a gap: almost always empty.
                    let lo = encode_u64(base + 1000);
                    let hi = encode_u64(base + 2000);
                    db.seek(&lo, Some(&hi));
                }
            })
        };
        let none = build(FilterKind::None);
        // 8 real suffix bits reach the byte where these gap queries differ
        // from the stored keys (4 bits cannot refute them — expected FPR
        // behaviour, not a bug).
        let surf = build(FilterKind::SurfReal(8));
        let (io_none, io_surf) = (io_for(&none), io_for(&surf));
        assert!(
            io_surf * 3 < io_none,
            "SuRF should cut empty-seek I/O: {io_surf} vs {io_none}"
        );
    }

    #[test]
    fn count_matches_truth_closely() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 4 << 10,
            filter: FilterKind::SurfReal(8),
            ..Default::default()
        });
        for i in 0..3000u64 {
            db.put(&encode_u64(i * 2), b"v").unwrap();
        }
        db.flush().unwrap();
        let got = db.count(&encode_u64(1000), &encode_u64(3000));
        let truth = 1000; // keys 1000,1002,...,2998
        assert!(
            got >= truth && got <= truth + 2 * db.level_sizes().iter().sum::<usize>(),
            "count {got} vs truth {truth}"
        );
    }

    #[test]
    fn multi_get_matches_per_key_gets() {
        for filter in [
            FilterKind::None,
            FilterKind::Bloom(14.0),
            FilterKind::SurfHash(8),
            FilterKind::SurfReal(8),
            FilterKind::SurfMixed(4, 4),
        ] {
            let mut db = db_with(filter, 6000);
            // Leave some keys in the memtable.
            for i in 0..50u64 {
                db.put(&encode_u64(i * 3), b"memresident").unwrap();
            }
            // Probes mix stored keys, memtable keys, and misses, shuffled
            // with duplicates.
            let mut probes: Vec<Vec<u8>> = Vec::new();
            let mut state = 42u64; // same seed as db_with: every 3rd is a hit
            for j in 0..3000u64 {
                let k = memtree_common::hash::splitmix64(&mut state);
                probes.push(encode_u64(if j % 3 == 0 { k } else { k ^ 0x5555 }).to_vec());
                if j % 7 == 0 {
                    probes.push(encode_u64(j * 3).to_vec()); // memtable hit
                    probes.push(probes[probes.len() - 2].clone()); // duplicate
                }
            }
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let expect: Vec<Option<Vec<u8>>> = refs.iter().map(|k| db.get(k)).collect();
            for chunk in [1usize, 16, 64, 333, refs.len()] {
                let mut got = Vec::new();
                for c in refs.chunks(chunk) {
                    got.extend(db.multi_get(c));
                }
                assert_eq!(got, expect, "{filter:?} chunk {chunk}");
            }
            assert_eq!(db.multi_get(&[]), Vec::<Option<Vec<u8>>>::new());
        }
    }

    #[test]
    fn batched_gets_save_filter_passes_and_block_reads() {
        // Negative lookups against a cold cache: the batched path must do
        // one filter pass per table (not per key) and share block fetches.
        for filter in [FilterKind::Bloom(14.0), FilterKind::SurfReal(8)] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 16 << 10,
                filter,
                cache_blocks: 0,
                ..Default::default()
            });
            for i in 0..8000u64 {
                db.put(&encode_u64(i << 12), b"valuevalue").unwrap();
            }
            db.flush().unwrap();
            let probes: Vec<Vec<u8>> = (0..512u64)
                .map(|i| encode_u64((i * 13 % 8000) << 12 | 777).to_vec())
                .collect();
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();

            // (block reads, filter passes, keys probed) so far.
            let sample = |db: &Db| {
                let s = db.stats();
                (db.view.disk.stats().block_reads, s.filter_probe_passes, s.filter_keys_probed)
            };
            let s0 = sample(&db);
            for k in &refs {
                assert_eq!(db.get(k), None);
            }
            let s1 = sample(&db);
            for c in refs.chunks(64) {
                assert!(db.multi_get(c).iter().all(|r| r.is_none()));
            }
            let s2 = sample(&db);
            let (per_key_io, per_key_passes, per_key_keys) = (s1.0 - s0.0, s1.1 - s0.1, s1.2 - s0.2);
            let (batch_io, batch_passes, batch_keys) = (s2.0 - s1.0, s2.1 - s1.1, s2.2 - s1.2);

            assert_eq!(per_key_keys, batch_keys, "{filter:?}");
            assert!(
                batch_passes < per_key_passes,
                "{filter:?}: batched passes {batch_passes} vs per-key {per_key_passes}"
            );
            assert!(
                batch_io <= per_key_io,
                "{filter:?}: batched reads {batch_io} vs per-key {per_key_io}"
            );
        }
    }

    #[test]
    fn multi_scan_matches_per_range_seek_walk() {
        for filter in [FilterKind::None, FilterKind::SurfReal(8)] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 8 << 10,
                filter,
                ..Default::default()
            });
            for i in 0..4000u64 {
                db.put(&encode_u64(i * 10), b"v").unwrap();
            }
            // Shuffled, overlapping starts; some in gaps, some past the end.
            let mut state = 5u64;
            let mut lows: Vec<Vec<u8>> = (0..120)
                .map(|_| {
                    encode_u64(memtree_common::hash::splitmix64(&mut state) % 45_000).to_vec()
                })
                .collect();
            lows.push(encode_u64(0).to_vec());
            lows.push(encode_u64(u64::MAX).to_vec());
            let ranges: Vec<(&[u8], usize)> = lows
                .iter()
                .enumerate()
                .map(|(i, low)| (low.as_slice(), [0usize, 1, 6, 40][i % 4]))
                .collect();
            let expect: Vec<Vec<Vec<u8>>> = ranges
                .iter()
                .map(|&(low, n)| {
                    let mut one = Vec::new();
                    if n > 0 {
                        let mut cur = match db.seek(low, None) {
                            SeekResult::Found { key } => key,
                            SeekResult::NotFound => return one,
                        };
                        loop {
                            one.push(cur.clone());
                            if one.len() == n {
                                break;
                            }
                            match db.next_after(&cur, None) {
                                SeekResult::Found { key } => cur = key,
                                SeekResult::NotFound => break,
                            }
                        }
                    }
                    one
                })
                .collect();
            assert_eq!(db.multi_scan(&ranges), expect, "{filter:?}");
        }
    }

    #[test]
    fn multi_seek_matches_per_range_seeks_with_less_io() {
        // The batched form must be a pure optimization: identical answers
        // to a per-range seek loop, strictly fewer device reads (the
        // shared memo resolves each table's lower bound once per batch
        // instead of once per range).
        let mut db = Db::new(DbOptions {
            memtable_bytes: 4 << 10,
            cache_blocks: 0, // every fetch hits the device and is counted
            filter: FilterKind::SurfReal(8),
            ..Default::default()
        });
        for i in 0..3000u64 {
            db.put(&encode_u64(i * 8), b"v").unwrap();
        }
        db.flush().unwrap();
        // Clustered, overlapping ranges: nearby lows resolve to the same
        // table lower bounds, which is exactly the sharing the memo sells.
        let mut state = 11u64;
        let bounds: Vec<(Vec<u8>, Vec<u8>)> = (0..64)
            .map(|_| {
                let lo = memtree_common::hash::splitmix64(&mut state) % 2_000;
                (encode_u64(lo).to_vec(), encode_u64(lo + 600).to_vec())
            })
            .collect();
        let ranges: Vec<(&[u8], &[u8])> =
            bounds.iter().map(|(l, h)| (l.as_slice(), h.as_slice())).collect();
        let mut batched = Vec::new();
        let batched_reads = reads_during(&db, || batched = db.multi_seek(&ranges));
        let mut looped = Vec::new();
        let loop_reads = reads_during(&db, || {
            looped = ranges.iter().map(|&(l, h)| db.seek(l, Some(h))).collect();
        });
        assert_eq!(batched, looped);
        assert!(
            batched_reads < loop_reads,
            "batched multi_seek read {batched_reads} blocks, per-range loop {loop_reads}"
        );
    }

    #[test]
    fn closed_seek_skips_tables_above_hk() {
        // Regression: tables entirely at/above `hk` used to pay a block
        // fetch in `table_lower_bound` during closed seeks.
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // flush manually
            l0_tables: 100,          // keep both tables in L0, uncompacted
            filter: FilterKind::None,
            cache_blocks: 0,
            ..Default::default()
        });
        for i in 0..100u64 {
            db.put(&encode_u64(i), b"low-table").unwrap();
        }
        db.flush().unwrap();
        for i in 1000..1100u64 {
            db.put(&encode_u64(i), b"high-table").unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.level_sizes()[0], 2);
        // [200, 300) misses both tables: the low table tops out at 99 and
        // the high table starts at 1000 >= hk.
        let reads = reads_during(&db, || {
            assert_eq!(
                db.seek(&encode_u64(200), Some(&encode_u64(300))),
                SeekResult::NotFound
            );
        });
        assert_eq!(reads, 0, "closed seek into a gap should touch no blocks");
        // Sanity: the same seek unbounded still finds the high table's min.
        match db.seek(&encode_u64(200), None) {
            SeekResult::Found { key } => {
                assert_eq!(memtree_common::key::decode_u64(&key), 1000)
            }
            SeekResult::NotFound => panic!("open seek should find 1000"),
        }
    }

    #[test]
    fn bloom_cuts_point_io_on_misses() {
        let io_for = |filter| {
            let db = db_with(filter, 10_000);
            reads_during(&db, || {
                let mut state = 999u64;
                for _ in 0..2000 {
                    let k = memtree_common::hash::splitmix64(&mut state) | 1;
                    db.get(&encode_u64(k)); // miss with overwhelming probability
                }
            })
        };
        let none = io_for(FilterKind::None);
        let bloom = io_for(FilterKind::Bloom(14.0));
        assert!(
            bloom * 5 < none,
            "bloom {bloom} reads vs none {none} on misses"
        );
    }

    #[test]
    fn flush_reports_stats() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // flush manually
            ..Default::default()
        });
        assert_eq!(db.flush().unwrap(), None, "empty flush is a visible no-op");
        for i in 0..500u64 {
            db.put(&encode_u64(i), b"flush-stats-value").unwrap();
        }
        let stats = db.flush().unwrap().expect("non-empty flush");
        assert_eq!(stats.entries, 500);
        assert!(stats.blocks_written > 0);
        assert!(
            stats.wal_bytes_truncated > 500 * 8,
            "WAL held at least the keys: {}",
            stats.wal_bytes_truncated
        );
        // A first flush truncates everything the WAL ever appended.
        assert_eq!(stats.wal_bytes_truncated, db.wal_stats().appended_bytes);
    }

    #[test]
    fn clean_reopen_recovers_everything() {
        for filter in [FilterKind::None, FilterKind::Bloom(10.0), FilterKind::SurfReal(6)] {
            let opts = DbOptions {
                memtable_bytes: 2 << 10,
                filter,
                ..Default::default()
            };
            let mut db = Db::new(opts.clone());
            for i in 0..2000u64 {
                db.put(&encode_u64(i * 3), &i.to_le_bytes()).unwrap();
            }
            db.flush().unwrap(); // close() would flush anyway; pin the shape now
            let sizes = db.level_sizes();
            let disk = db.close().unwrap();
            let db = Db::open(disk, opts).unwrap();
            assert_eq!(db.open_report().wal_records_replayed, 0, "{filter:?}: clean shutdown");
            assert_eq!(db.level_sizes(), sizes, "{filter:?}: level shape");
            for i in (0..2000u64).step_by(17) {
                assert_eq!(
                    db.get(&encode_u64(i * 3)),
                    Some(i.to_le_bytes().to_vec()),
                    "{filter:?} key {i}"
                );
                assert_eq!(db.get(&encode_u64(i * 3 + 1)), None, "{filter:?}");
            }
        }
    }

    #[test]
    fn crash_without_sync_keeps_acked_prefix() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20, // everything stays in the memtable
            wal_group_commit: 8,
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..100u64 {
            db.put(&encode_u64(i), &i.to_le_bytes()).unwrap();
        }
        let acked = db.last_synced_seq();
        assert_eq!(acked, 96, "group commit of 8 acks in batches");
        let disk = db.disk_handle();
        drop(db);
        disk.crash(None);
        let db = Db::open(disk, opts).unwrap();
        let recovered = db.last_seq();
        assert!(recovered >= acked, "acked writes survive");
        for i in 0..recovered {
            assert_eq!(db.get(&encode_u64(i)), Some(i.to_le_bytes().to_vec()));
        }
        for i in recovered..100 {
            assert_eq!(db.get(&encode_u64(i)), None, "lost suffix is clean");
        }
    }

    #[test]
    fn quarantine_degrades_reads_without_panic() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        // Corrupt every read of one table's first block: first get trips
        // the retry (counted), persistent failure quarantines.
        db.view.disk.faults().enable(7);
        db.view.disk.faults().arm("lsm.disk.read_corrupt", 1.0, None);
        assert_eq!(db.get(&encode_u64(0)), None, "quarantined block reads as absent");
        db.view.disk.faults().disable();
        assert_eq!(db.stats().quarantined_blocks, 1);
        // After disarming, *other* blocks still serve.
        assert_eq!(db.get(&encode_u64(1999)), Some(b"payload".to_vec()));
        // A snapshot taken after the quarantine shares it: every probed
        // key, inside the quarantined block or not, answers as `Db::get`.
        let snap = db.snapshot();
        for i in (0..2000u64).step_by(7).chain([1, 1999, 5000]) {
            let k = encode_u64(i);
            assert_eq!(snap.get(&k), db.get(&k), "snapshot diverges from Db at key {i}");
        }
    }

    /// Two namespaced databases on one disk, the way serve shards share
    /// one: each `Db` counts only its own degradations, while the device's
    /// counters see the reads of both.
    #[test]
    fn shared_disk_keeps_db_counters_apart() {
        let disk = Arc::new(SimDisk::new(Duration::ZERO));
        let open = |namespace: &str| {
            let opts = DbOptions {
                namespace: namespace.to_string(),
                gc_orphans: false,
                memtable_bytes: 1 << 20,
                cache_blocks: 0,
                ..Default::default()
            };
            let mut db = Db::open(Arc::clone(&disk), opts).unwrap();
            for i in 0..2000u64 {
                db.put(&encode_u64(i), b"payload").unwrap();
            }
            db.flush().unwrap();
            db
        };
        let (a, b) = (open("a-"), open("b-"));
        disk.bitrot_block(a.view.levels[0][0].blocks[0], 5).unwrap();
        let reads0 = disk.stats().block_reads;
        assert_eq!(a.get(&encode_u64(0)), None, "rotten block reads as absent");
        let b_gets = (0..2000u64).step_by(97).count() as u64;
        for i in (0..2000u64).step_by(97) {
            assert_eq!(b.get(&encode_u64(i)), Some(b"payload".to_vec()), "key {i}");
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.quarantined_blocks, 1, "A counts its quarantine");
        assert_eq!(
            (sb.quarantined_blocks, sb.read_repairs, sb.transient_retries),
            (0, 0, 0),
            "B saw no degradation"
        );
        // A read the rotten block at least twice (the failed read and the
        // read-repair attempt); every uncached get through B read a block.
        let reads = disk.stats().block_reads - reads0;
        assert!(reads >= 2 + b_gets, "device counted {reads} reads for both Dbs");
    }

    #[test]
    fn compaction_rescues_quarantined_block_when_reread_is_clean() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            l0_tables: 1,
            compact_on_flush: false,
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        // Wire-level rot on every read quarantines the first block; the
        // stored bytes underneath are untouched.
        db.view.disk.faults().enable(7);
        db.view.disk.faults().arm("lsm.disk.read_corrupt", 1.0, None);
        assert_eq!(db.get(&encode_u64(0)), None);
        db.view.disk.faults().disable();
        assert_eq!(db.stats().quarantined_blocks, 1);
        let repairs_before = db.stats().read_repairs;
        // Compacting the table re-reads the quarantined block; the clean
        // re-read rescues its entries into the merged output instead of
        // letting the retirement of the input table make the loss
        // permanent.
        for i in 2000..2100u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        assert!(db.compact_step().unwrap(), "L0 must be over its limit");
        let s = db.stats();
        assert_eq!(s.quarantined_blocks, 0, "rescued block leaves quarantine");
        assert!(s.read_repairs > repairs_before, "rescue is counted as a read repair");
        assert_eq!(db.get(&encode_u64(0)), Some(b"payload".to_vec()));
        db.check_invariants().unwrap();
    }

    #[test]
    fn delete_shadows_across_levels_and_reopen() {
        let opts = DbOptions {
            memtable_bytes: 2 << 10,
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..1500u64 {
            db.put(&encode_u64(i), b"live").unwrap();
        }
        for i in (0..1500u64).step_by(3) {
            db.delete(&encode_u64(i)).unwrap();
        }
        let check = |db: &Db| {
            for i in 0..150u64 {
                let got = db.get(&encode_u64(i));
                if i % 3 == 0 {
                    assert_eq!(got, None, "deleted key {i} resurrected");
                } else {
                    assert_eq!(got, Some(b"live".to_vec()), "live key {i} lost");
                }
            }
            // Batched gets and tombstone-aware seeks agree with `get`.
            let keys: Vec<Vec<u8>> = (0..60u64).map(|i| encode_u64(i).to_vec()).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let batch = db.multi_get(&refs);
            for (i, got) in batch.iter().enumerate() {
                assert_eq!(*got, db.get(refs[i]), "multi_get key {i}");
            }
            match db.seek(&encode_u64(0), None) {
                SeekResult::Found { key } => {
                    assert_eq!(memtree_common::key::decode_u64(&key), 1, "key 0 is deleted")
                }
                SeekResult::NotFound => panic!("seek found nothing"),
            }
            // A range holding only deleted keys (just key 141, = 3*47).
            assert_eq!(
                db.seek(&encode_u64(141), Some(&encode_u64(142))),
                SeekResult::NotFound
            );
        };
        check(&db);
        let disk = db.close().unwrap();
        let db = Db::open(disk, opts).unwrap();
        check(&db);
    }

    #[test]
    fn tombstones_are_dropped_at_the_bottom_level() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // manual flushes
            l0_tables: 0,            // every flush compacts L0 away
            ..Default::default()
        });
        for i in 0..500u64 {
            db.put(&encode_u64(i), b"v").unwrap();
        }
        db.flush().unwrap();
        assert!(db.table_entries() > 0);
        for i in 0..500u64 {
            db.delete(&encode_u64(i)).unwrap();
        }
        // The tombstones merge straight into the bottom level: with
        // nothing deeper to shadow, both the tombstones and the values
        // they deleted must be gone afterwards — and stay gone.
        db.flush().unwrap();
        assert_eq!(db.table_entries(), 0, "bottom-level merge kept dead entries");
        assert_eq!(db.get(&encode_u64(250)), None, "dropping a tombstone resurrected data");
        assert_eq!(db.seek(&encode_u64(0), None), SeekResult::NotFound);
        assert_eq!(db.count(&encode_u64(0), &encode_u64(10_000)), 0);
    }

    #[test]
    fn enospc_flush_is_typed_clean_and_retryable() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 1 << 20, // manual flushes
            ..Default::default()
        });
        for i in 0..2000u64 {
            db.put(&encode_u64(i), &[0x5a; 64]).unwrap();
        }
        let used = db.view.disk.used_bytes();
        db.view.disk.set_capacity_bytes(Some(used + 512));
        let err = db.flush().unwrap_err();
        assert!(
            matches!(err, memtree_common::error::MemtreeError::Enospc { .. }),
            "want Enospc, got {err}"
        );
        // The failed flush left no partial state: usage is back where it
        // was and every write is still served (from the memtable).
        assert_eq!(db.view.disk.used_bytes(), used, "failed flush leaked blocks");
        assert_eq!(db.get(&encode_u64(7)), Some(vec![0x5a; 64]));
        assert_eq!(db.table_entries(), 0);
        // Space frees up: the retried flush succeeds and data lands.
        db.view.disk.set_capacity_bytes(None);
        db.flush().unwrap().expect("retried flush flushes");
        assert!(db.table_entries() > 0);
        assert_eq!(db.get(&encode_u64(1999)), Some(vec![0x5a; 64]));
    }

    #[test]
    fn reopen_cycles_keep_manifest_file_count_bounded() {
        let opts = DbOptions {
            memtable_bytes: 4 << 10,
            ..Default::default()
        };
        let mut disk = Db::new(opts.clone()).close().unwrap();
        let mut next = 0u64;
        for _cycle in 0..8 {
            let mut db = Db::open(disk, opts.clone()).unwrap();
            for _ in 0..200 {
                db.put(&encode_u64(next), b"cycle-value").unwrap();
                next += 1;
            }
            disk = db.close().unwrap();
            let manifests = disk
                .file_names()
                .into_iter()
                .filter(|f| f.starts_with("manifest-"))
                .count();
            assert!(manifests <= 2, "manifest generations piling up: {manifests}");
        }
        let db = Db::open(disk, opts).unwrap();
        for i in (0..next).step_by(97) {
            assert_eq!(db.get(&encode_u64(i)), Some(b"cycle-value".to_vec()));
        }
    }

    #[test]
    fn quarantine_persists_across_reopen_and_degrades_filters() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            filter: FilterKind::Bloom(10.0),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        // Persistent corruption on key 0's block: the read path
        // quarantines it and records the quarantine in the manifest.
        db.view.disk.faults().enable(11);
        db.view.disk.faults().arm("lsm.disk.read_corrupt", 1.0, None);
        assert_eq!(db.get(&encode_u64(0)), None);
        db.view.disk.faults().disable();
        assert_eq!(db.stats().quarantined_blocks, 1);
        let disk = db.close().unwrap();
        let db = Db::open(disk, opts).unwrap();
        // Reopen trusted the persisted quarantine (no read of the bad
        // block) and attached the persisted filter image anyway: the image
        // covers the quarantined keys too, which only means safe false
        // positives — never a wrong miss. No degraded, no rebuild.
        assert_eq!(db.stats().quarantined_blocks, 1);
        let report = db.open_report();
        assert_eq!(report.degraded_tables, 0);
        assert_eq!(report.filters_loaded, 1);
        assert_eq!(report.filters_rebuilt, 0);
        assert_eq!(db.get(&encode_u64(0)), None, "quarantined data stays absent");
        assert_eq!(db.get(&encode_u64(1999)), Some(b"payload".to_vec()));
    }

    #[test]
    fn transient_read_faults_heal_without_quarantine() {
        let db = {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 1 << 20,
                cache_blocks: 0,
                ..Default::default()
            });
            for i in 0..2000u64 {
                db.put(&encode_u64(i), b"payload").unwrap();
            }
            db.flush().unwrap();
            db
        };
        db.view.disk.faults().enable(23);
        db.view.disk.faults().arm("lsm.disk.read_transient", 0.25, None);
        for i in (0..2000u64).step_by(37) {
            assert_eq!(
                db.get(&encode_u64(i)),
                Some(b"payload".to_vec()),
                "transient fault leaked to a query answer at key {i}"
            );
        }
        db.view.disk.faults().disable();
        let s = db.stats();
        assert!(s.transient_retries > 0, "no transient was ever injected");
        assert_eq!(s.quarantined_blocks, 0, "transient faults must never quarantine");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::tests::reads_during;
    use super::*;
    use memtree_common::key::encode_u64;
    use std::collections::BTreeMap;

    fn tiered_opts() -> DbOptions {
        DbOptions {
            memtable_bytes: 2 << 10,
            block_size: 256,
            cache_blocks: 8,
            filter: FilterKind::Bloom(10.0),
            compaction: CompactionConfig::Tiered { tiers_per_level: 3 },
            ..Default::default()
        }
    }

    /// Random puts/overwrites/deletes against an in-memory model, under
    /// tiered compaction, checked through get, seek-walk, snapshot scan,
    /// and a full close/reopen cycle.
    #[test]
    fn tiered_matches_model_across_reopen() {
        let mut db = Db::new(tiered_opts());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut state = 7u64;
        for _ in 0..4000 {
            let r = memtree_common::hash::splitmix64(&mut state);
            let k = encode_u64(r % 600);
            if r % 7 == 0 {
                db.delete(&k).unwrap();
                model.remove(&k[..]);
            } else {
                db.put(&k, &r.to_le_bytes()).unwrap();
                model.insert(k.to_vec(), r.to_le_bytes().to_vec());
            }
        }
        db.flush().unwrap();
        assert!(db.view.overlapping, "tiered config must set overlapping reads");
        assert!(
            db.level_sizes().iter().skip(1).any(|&s| s > 1),
            "workload never produced multiple runs per level: {:?}",
            db.level_sizes()
        );
        let check = |db: &Db| {
            for i in 0..600u64 {
                let k = encode_u64(i);
                assert_eq!(db.get(&k), model.get(&k[..]).cloned(), "key {i}");
            }
            // Seek-walk recovers exactly the model's key sequence.
            let mut low: Vec<u8> = Vec::new();
            let mut walked = Vec::new();
            while let SeekResult::Found { key } = db.seek(&low, None) {
                walked.push(key.clone());
                low = memtree_common::key::successor(&key);
            }
            let want: Vec<Vec<u8>> = model.keys().cloned().collect();
            assert_eq!(walked, want, "seek walk diverged from model");
            let scanned = db.snapshot().scan_from(&[], None, usize::MAX);
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(scanned, want, "snapshot scan diverged from model");
        };
        check(&db);
        db.check_invariants().unwrap();
        let disk = db.close().unwrap();
        let db = Db::open(disk, tiered_opts()).unwrap();
        check(&db);
        db.check_invariants().unwrap();
    }

    /// The manifest's persisted policy wins over mismatched reopen
    /// options: tiered levels opened with leveled options keep running
    /// tiered (and stay correct).
    #[test]
    fn persisted_policy_wins_over_reopen_options() {
        let mut db = Db::new(tiered_opts());
        for i in 0..3000u64 {
            db.put(&encode_u64(i), &i.to_le_bytes()).unwrap();
        }
        db.flush().unwrap();
        let disk = db.close().unwrap();
        let leveled_opts = DbOptions {
            compaction: CompactionConfig::Leveled { fanout: 10 },
            ..tiered_opts()
        };
        let mut db = Db::open(disk, leveled_opts).unwrap();
        assert_eq!(
            db.compaction_config(),
            CompactionConfig::Tiered { tiers_per_level: 3 },
            "manifest policy must override the options"
        );
        assert_eq!(
            db.open_report().policy_overridden,
            Some((
                CompactionConfig::Leveled { fanout: 10 },
                CompactionConfig::Tiered { tiers_per_level: 3 }
            )),
            "the override is reported as (requested, persisted)"
        );
        assert!(db.view.overlapping);
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"round-2").unwrap();
        }
        db.flush().unwrap();
        db.check_invariants().unwrap();
        for i in (0..3000u64).step_by(97) {
            let want = if i < 2000 { b"round-2".to_vec() } else { i.to_le_bytes().to_vec() };
            assert_eq!(db.get(&encode_u64(i)), Some(want), "key {i}");
        }
    }

    /// A bit-rotted filter image is detected by its CRC frame and the
    /// open falls back to rebuilding from data blocks: slower, counted,
    /// never wrong, never filterless.
    #[test]
    fn corrupt_filter_image_falls_back_to_rebuild() {
        let opts = DbOptions {
            memtable_bytes: 1 << 20,
            cache_blocks: 0,
            filter: FilterKind::Bloom(10.0),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..2000u64 {
            db.put(&encode_u64(i), b"payload").unwrap();
        }
        db.flush().unwrap();
        let fb = db.view.levels[0][0].filter_block.expect("flushed table has a filter image");
        let disk = db.close().unwrap();
        let _ = disk.bitrot_block(fb, 99);
        let db = Db::open(disk, opts).unwrap();
        let report = db.open_report();
        assert_eq!(report.filter_images_corrupt, 1);
        assert_eq!(report.filters_loaded, 0);
        assert_eq!(report.filters_rebuilt, 1);
        assert_eq!(report.degraded_tables, 0, "rebuild succeeded, no degrade");
        for i in (0..2000u64).step_by(61) {
            assert_eq!(db.get(&encode_u64(i)), Some(b"payload".to_vec()));
            assert_eq!(db.get(&encode_u64(i + 100_000)), None);
        }
        // The rebuilt filter actually prunes negative lookups.
        let reads = reads_during(&db, || {
            for i in 0..200u64 {
                assert_eq!(db.get(&encode_u64(i + 200_000)), None);
            }
        });
        assert!(reads < 20, "rebuilt filter is not pruning: {reads} reads");
    }

    /// Reopen of a persistent-filter database touches O(tables) blocks,
    /// not O(data): one meta read per table plus fixed file overhead.
    #[test]
    fn reopen_with_images_reads_o_tables_blocks() {
        let opts = DbOptions {
            memtable_bytes: 4 << 10,
            block_size: 512,
            cache_blocks: 0,
            filter: FilterKind::Bloom(10.0),
            ..Default::default()
        };
        let mut db = Db::new(opts.clone());
        for i in 0..20_000u64 {
            db.put(&encode_u64(i), &[0x77; 40]).unwrap();
        }
        db.flush().unwrap();
        let tables: u64 = db.level_sizes().iter().map(|&s| s as u64).sum();
        let data_blocks: u64 = db.view.levels.iter().flatten().map(|t| t.blocks.len() as u64).sum();
        assert!(data_blocks > 4 * tables, "workload too small to distinguish");
        let disk = db.close().unwrap();
        let reads0 = disk.stats().block_reads;
        let db = Db::open(Arc::clone(&disk), opts).unwrap();
        assert_eq!(db.open_report().filters_loaded, tables);
        assert_eq!(db.open_report().filters_rebuilt, 0);
        let reads = disk.stats().block_reads - reads0;
        assert!(
            reads <= 2 * tables,
            "open read {reads} blocks for {tables} tables (data blocks: {data_blocks})"
        );
    }
}

#[cfg(test)]
mod diag_tests {
    use super::*;
    use memtree_common::key::encode_u64;

    #[test]
    fn seek_visits_every_level() {
        let mut db = Db::new(DbOptions {
            memtable_bytes: 8 << 10,
            cache_blocks: 0,
            ..Default::default()
        });
        for i in 0..30_000u64 {
            db.put(&encode_u64(i * 64), b"0123456789012345678901234567890123456789").unwrap();
        }
        db.flush().unwrap();
        let sizes = db.level_sizes();
        println!("level sizes: {sizes:?}");
        assert!(sizes.iter().filter(|&&s| s > 0).count() >= 2, "{sizes:?}");
        let n = 200;
        let reads = super::tests::reads_during(&db, || {
            for i in 0..n {
                let k = encode_u64((i * 9973 % 30_000) * 64 + 1);
                db.seek(&k, None);
            }
        });
        let per_op = reads as f64 / n as f64;
        println!("no-filter seek IO/op = {per_op}");
        assert!(per_op > 1.2, "expected multi-level I/O, got {per_op}");
    }
}

#[cfg(test)]
mod next_tests {
    use super::*;
    use memtree_common::key::encode_u64;

    #[test]
    fn next_after_walks_the_key_sequence() {
        for filter in [FilterKind::None, FilterKind::SurfMixed(4, 4)] {
            let mut db = Db::new(DbOptions {
                memtable_bytes: 4 << 10,
                filter,
                ..Default::default()
            });
            for i in 0..2000u64 {
                db.put(&encode_u64(i * 5), b"v").unwrap();
            }
            db.flush().unwrap();
            // Walk forward from 100 via repeated Next.
            let mut cur = encode_u64(100).to_vec();
            for expect in [105u64, 110, 115, 120] {
                match db.next_after(&cur, None) {
                    SeekResult::Found { key } => {
                        assert_eq!(memtree_common::key::decode_u64(&key), expect, "{filter:?}");
                        cur = key;
                    }
                    SeekResult::NotFound => panic!("{filter:?}: next missed {expect}"),
                }
            }
            // Bounded Next stops at hk.
            assert_eq!(
                db.next_after(&encode_u64(120), Some(&encode_u64(125))),
                SeekResult::NotFound
            );
            assert_eq!(db.next_after(&encode_u64(5 * 1999), None), SeekResult::NotFound);
        }
    }
}
