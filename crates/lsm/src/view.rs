//! The read state shared by [`Db`](crate::Db) and
//! [`DbSnapshot`](crate::DbSnapshot), and the one read path over it
//! (Figure 4.3): the table walk, the in-block lookup, and the block-fetch
//! ladder.
//!
//! The `Db` owns a [`ReadView`]; a snapshot clones it. Cloning costs an
//! `Arc` bump per live table plus one for the quarantine set, which is
//! copy-on-write: the writer copies it only when it quarantines (or lifts)
//! a block while some snapshot still holds the old set.

use crate::db::BlockCache;
use crate::disk::SimDisk;
use crate::sstable::{DecodedBlock, SsTable};
use memtree_common::error::Result;
use memtree_faults::Backoff;
use std::cell::Cell;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Device attempts a query-path block fetch makes before giving up on
/// transient faults.
pub(crate) const READ_ATTEMPTS: u32 = 8;

/// Everything a read below the MemTable needs.
pub(crate) struct ReadView {
    /// `levels[0]` newest-last; levels ≥ 1 key-ordered and disjoint under
    /// leveled compaction, age-ordered newest-last runs under tiered.
    /// Tables are `Arc`-shared with snapshots, which keep reading a
    /// retired table until they drop it.
    pub(crate) levels: Vec<Vec<Arc<SsTable>>>,
    /// True when levels ≥ 1 hold overlapping runs (tiered compaction):
    /// deep levels are read newest-first like L0.
    pub(crate) overlapping: bool,
    /// `(table id, block index)` pairs that failed validation
    /// persistently; reads serve them as empty. The `Db`'s copy is
    /// mirrored in the manifest so reopen skips known-bad blocks.
    pub(crate) quarantine: Mutex<Arc<HashSet<(u64, u32)>>>,
    pub(crate) disk: Arc<SimDisk>,
    pub(crate) cache: Arc<BlockCache>,
}

impl Clone for ReadView {
    fn clone(&self) -> Self {
        Self {
            levels: self.levels.clone(),
            overlapping: self.overlapping,
            quarantine: Mutex::new(self.quarantined()),
            disk: Arc::clone(&self.disk),
            cache: Arc::clone(&self.cache),
        }
    }
}

/// The in-table lookup, key form: `None` = `key` is not in `blk`;
/// `Some(None)` = tombstoned there; `Some(Some(v))` = live value.
pub(crate) fn find_in_block(blk: &DecodedBlock, key: &[u8]) -> Option<Option<Vec<u8>>> {
    blk.binary_search_by(|(k, _)| k.as_slice().cmp(key))
        .ok()
        .map(|i| blk[i].1.clone())
}

/// The in-table lookup, range form: the first entry `>= lk` in `table` as
/// `(block index, block, position)`, reading blocks with `fetch` from
/// `lk`'s candidate block on. The position is the block's length when no
/// such entry exists.
pub(crate) fn seek_in_table(
    table: &SsTable,
    lk: &[u8],
    fetch: impl Fn(usize) -> Arc<DecodedBlock>,
) -> (usize, Arc<DecodedBlock>, usize) {
    let mut block = table.candidate_block(lk);
    loop {
        let data = fetch(block);
        let pos = data.partition_point(|(k, _)| k.as_slice() < lk);
        if pos < data.len() || block + 1 >= table.blocks.len() {
            return (block, data, pos);
        }
        block += 1;
    }
}

/// One uncached device read and decode of `table`'s block `block`,
/// retrying transient faults only (at most `attempts` tries, each retry
/// counted in `retries`); a persistent error returns on the attempt that
/// saw it.
pub(crate) fn read_block(
    disk: &SimDisk,
    table: &SsTable,
    block: usize,
    attempts: u32,
    retries: Option<&Cell<u64>>,
) -> Result<DecodedBlock> {
    let mut backoff = Backoff::new(attempts);
    loop {
        match disk.read(table.blocks[block]).and_then(|raw| SsTable::decode_block(&raw)) {
            Ok(d) => return Ok(d),
            Err(e) if backoff.retry(&e) => {
                if let Some(r) = retries {
                    r.set(r.get() + 1);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

impl ReadView {
    fn quarantine_lock(&self) -> MutexGuard<'_, Arc<HashSet<(u64, u32)>>> {
        self.quarantine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The quarantine set as of now (an `Arc` clone, not a copy).
    pub(crate) fn quarantined(&self) -> Arc<HashSet<(u64, u32)>> {
        Arc::clone(&self.quarantine_lock())
    }

    pub(crate) fn is_quarantined(&self, table: u64, block: usize) -> bool {
        self.quarantine_lock().contains(&(table, block as u32))
    }

    /// Edits the quarantine set, copying it first only when a snapshot
    /// still shares it.
    pub(crate) fn edit_quarantine<R>(&self, f: impl FnOnce(&mut HashSet<(u64, u32)>) -> R) -> R {
        f(Arc::make_mut(&mut self.quarantine_lock()))
    }

    /// True when level `lvl`'s runs overlap (L0, or any level under
    /// tiered compaction) and are read newest-first.
    pub(crate) fn overlaps(&self, lvl: usize) -> bool {
        lvl == 0 || self.overlapping
    }

    /// Positions in `levels[lvl]` of the tables that can hold a key
    /// `>= lk`: every run of an overlapping level; of a disjoint,
    /// key-ordered level the tables from the first whose range reaches
    /// `lk` on — only that one when `first_only` (a point lookup or a seek
    /// needs no more).
    pub(crate) fn positions(&self, lvl: usize, lk: &[u8], first_only: bool) -> Range<usize> {
        let level = &self.levels[lvl];
        if self.overlaps(lvl) {
            return 0..level.len();
        }
        let i = level.partition_point(|t| t.max_key.as_slice() < lk);
        i..if first_only { (i + 1).min(level.len()) } else { level.len() }
    }

    /// The table walk, key form: every table whose range covers `key`,
    /// newest first — L0 and tiered runs in reverse age order, then the
    /// one candidate of each leveled level.
    pub(crate) fn tables_for_key<'a>(
        &'a self,
        key: &'a [u8],
    ) -> impl Iterator<Item = &'a SsTable> + 'a {
        (0..self.levels.len())
            .flat_map(move |lvl| {
                let level = &self.levels[lvl];
                self.positions(lvl, key, true).rev().map(move |i| &*level[i])
            })
            .filter(move |t| t.covers(key))
    }

    /// The table walk, range form: every table whose range meets
    /// `[lk, hk)`, newest first — L0 and tiered runs in reverse age
    /// order; a leveled level's disjoint tables in key order.
    pub(crate) fn tables_in_range<'a>(
        &'a self,
        lk: &'a [u8],
        hk: Option<&'a [u8]>,
    ) -> impl Iterator<Item = &'a SsTable> + 'a {
        (0..self.levels.len())
            .flat_map(move |lvl| {
                let level = &self.levels[lvl];
                let rev = self.overlaps(lvl);
                let Range { start, end } = self.positions(lvl, lk, false);
                (start..end).map(move |i| &*level[if rev { start + end - 1 - i } else { i }])
            })
            .filter(move |t| t.meets(lk, hk))
    }

    /// Point lookup below the MemTable: the newest version of `key`
    /// (`Some(None)` = tombstoned), `None` when no table holds it. Each
    /// table the walk yields is probed with the caller's `may_contain`
    /// filter check, then its candidate block is read with the caller's
    /// `fetch`.
    pub(crate) fn get(
        &self,
        key: &[u8],
        may_contain: impl Fn(&SsTable) -> bool,
        fetch: impl Fn(&SsTable, usize) -> Arc<DecodedBlock>,
    ) -> Option<Option<Vec<u8>>> {
        self.tables_for_key(key)
            .filter(|t| may_contain(t))
            .find_map(|t| find_in_block(&fetch(t, t.candidate_block(key)), key))
    }

    /// The block-fetch ladder every read shares: the cache, then the
    /// quarantine set (a quarantined block reads as empty), then the
    /// device with at most `attempts` tries for transient faults (each
    /// retry counted in `retries`). A good read is cached. A persistent
    /// failure is the caller's to judge: the `Db` read-repairs and then
    /// quarantines, a snapshot serves the block as empty, and compaction
    /// propagates the error.
    pub(crate) fn fetch(
        &self,
        table: &SsTable,
        block: usize,
        attempts: u32,
        retries: Option<&Cell<u64>>,
    ) -> Result<Arc<DecodedBlock>> {
        if let Some(hit) = self.cache.get(table.id, block) {
            return Ok(hit);
        }
        if self.is_quarantined(table.id, block) {
            return Ok(Arc::default());
        }
        let decoded = Arc::new(read_block(&self.disk, table, block, attempts, retries)?);
        self.cache.insert(table.id, block, Arc::clone(&decoded));
        Ok(decoded)
    }

    /// The snapshot policy over [`ReadView::fetch`]: anything still
    /// unreadable is served as empty for this view only. A snapshot never
    /// quarantines, repairs, or persists anything.
    pub(crate) fn fetch_or_empty(&self, table: &SsTable, block: usize) -> Arc<DecodedBlock> {
        self.fetch(table, block, READ_ATTEMPTS, None).unwrap_or_default()
    }
}
