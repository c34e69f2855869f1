//! Immutable point-in-time read views ([`DbSnapshot`]).
//!
//! A snapshot is the MemTable copied into a sorted vector next to a clone
//! of the owning [`Db`]'s [`ReadView`]: the same level structure
//! (`Arc`-shared tables), quarantine set (copy-on-write), device, and
//! block cache that `Db` reads through. Snapshot reads run the very same
//! table walk, in-block lookup, and block-fetch ladder as `Db`'s own
//! reads. The result is `Send + Sync`: any number of threads can run point
//! gets and range scans against it while the owning `Db` keeps absorbing
//! writes, flushing, and compacting on its own thread. Writers never wait
//! for readers and readers never wait for writers; the only shared mutable
//! state is the striped block cache, locked per stripe for microseconds at
//! a time.
//!
//! Retired tables stay alive as long as any snapshot holds their `Arc`
//! (the `Db` parks them in a graveyard and releases their blocks only
//! after the last reference drops), so a snapshot taken before a
//! compaction reads exactly the data it was taken over.
//!
//! ## Fault policy
//!
//! Snapshot reads are *degraded, never escalating*: a quarantined block is
//! served as empty without a read, transient faults are retried under
//! backoff, and a block that stays unreadable is served as empty for this
//! view only ([`ReadView::fetch_or_empty`]). A snapshot never quarantines
//! a block or writes a manifest edit — fault bookkeeping stays with the
//! single writer.

use crate::db::Db;
use crate::sstable::{DecodedBlock, SsTable};
use crate::view::{find_in_block, seek_in_table, ReadView};
use std::sync::Arc;

/// An immutable, `Send + Sync` point-in-time view of a [`Db`].
///
/// Created by [`Db::snapshot`]; see the module docs for semantics.
pub struct DbSnapshot {
    /// The MemTable at snapshot time, sorted; `None` = tombstone.
    pub(crate) mem: Arc<DecodedBlock>,
    /// The `Db`'s read view at snapshot time.
    pub(crate) view: ReadView,
    /// Last WAL sequence number applied to this view.
    pub(crate) seq: u64,
}

impl Db {
    /// Freezes the current state into an immutable [`DbSnapshot`] that
    /// other threads can read while this `Db` keeps writing. Cost is one
    /// copy of the MemTable plus a clone of the `Db`'s read view: `Arc`
    /// bumps on every live table, the quarantine set, the disk, and the
    /// block cache.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            mem: Arc::new(self.memtable_entries()),
            view: self.view.clone(),
            seq: self.last_seq(),
        }
    }
}

/// One ordered source feeding the merge in [`DbSnapshot::scan_from`]: the
/// frozen MemTable (a single block of no table) or a streaming cursor over
/// one table's blocks. Sources are consulted newest-first; on a key tie
/// the newest wins.
struct Cursor<'a> {
    table: Option<&'a SsTable>,
    /// Index into `table.blocks`.
    block: usize,
    data: Arc<DecodedBlock>,
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<&(Vec<u8>, Option<Vec<u8>>)> {
        self.data.get(self.pos)
    }

    fn advance(&mut self, view: &ReadView) {
        self.pos += 1;
        let Some(table) = self.table else { return };
        // Skip exhausted and degraded-empty blocks.
        while self.pos >= self.data.len() && self.block + 1 < table.blocks.len() {
            self.block += 1;
            self.data = view.fetch_or_empty(table, self.block);
            self.pos = 0;
        }
    }
}

impl DbSnapshot {
    /// The last WAL sequence number this view reflects.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Point lookup at snapshot time; newest version wins, a tombstone at
    /// any level answers `None` without consulting older levels.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = find_in_block(&self.mem, key) {
            return v;
        }
        self.view
            .get(key, |t| t.filter_may_contain(key), |t, b| self.view.fetch_or_empty(t, b))
            .flatten()
    }

    /// Merged range scan: up to `limit` live `(key, value)` entries with
    /// `lk <= key` (`< hk` when bounded), in key order, each the newest
    /// version at snapshot time. Tombstones are merged away.
    pub fn scan_from(
        &self,
        lk: &[u8],
        hk: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        // Newest-first sources: the MemTable, then the range walk's tables.
        let mut sources = vec![Cursor {
            table: None,
            block: 0,
            pos: self.mem.partition_point(|(k, _)| k.as_slice() < lk),
            data: Arc::clone(&self.mem),
        }];
        sources.extend(self.view.tables_in_range(lk, hk).map(|table| {
            let (block, data, pos) =
                seek_in_table(table, lk, |b| self.view.fetch_or_empty(table, b));
            Cursor { table: Some(table), block, data, pos }
        }));
        loop {
            // Smallest key across sources; first (= newest) source wins
            // ties and provides the authoritative value.
            let mut best: Option<(usize, &[u8])> = None;
            for (i, s) in sources.iter().enumerate() {
                if let Some((k, _)) = s.peek() {
                    if hk.is_some_and(|hk| k.as_slice() >= hk) {
                        continue;
                    }
                    if best.is_none_or(|(_, b)| k.as_slice() < b) {
                        best = Some((i, k));
                    }
                }
            }
            let Some((winner, key)) = best else { break };
            let key = key.to_vec();
            let value = sources[winner].peek().and_then(|(_, v)| v.clone());
            for s in sources.iter_mut() {
                while s.peek().is_some_and(|(k, _)| *k == key) {
                    s.advance(&self.view);
                }
            }
            if let Some(v) = value {
                out.push((key, v));
                if out.len() == limit {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbOptions;
    use memtree_common::key::encode_u64;

    fn small_opts() -> DbOptions {
        DbOptions {
            memtable_bytes: 512,
            block_size: 128,
            cache_blocks: 8,
            ..DbOptions::default()
        }
    }

    #[test]
    fn snapshot_types_are_thread_safe() {
        fn send<T: Send>() {}
        fn send_sync<T: Send + Sync>() {}
        send::<Db>();
        send_sync::<DbSnapshot>();
        send_sync::<Arc<SsTable>>();
    }

    #[test]
    fn snapshot_is_frozen_while_db_moves_on() {
        let mut db = Db::new(small_opts());
        for i in 0..100u64 {
            db.put(&encode_u64(i), format!("v{i}").as_bytes()).unwrap();
        }
        let snap = db.snapshot();
        let seq_at_snap = snap.seq();
        // Mutate heavily after the snapshot: overwrites, deletes, flushes.
        for i in 0..100u64 {
            db.put(&encode_u64(i), b"overwritten").unwrap();
        }
        for i in 0..50u64 {
            db.delete(&encode_u64(i)).unwrap();
        }
        db.flush().unwrap();
        // The snapshot still answers from its frozen world.
        for i in 0..100u64 {
            assert_eq!(
                snap.get(&encode_u64(i)).as_deref(),
                Some(format!("v{i}").as_bytes()),
                "key {i} must read its snapshot-time version"
            );
        }
        assert_eq!(snap.seq(), seq_at_snap);
        // While the Db sees its own newer state.
        assert_eq!(db.get(&encode_u64(10)), None);
        assert_eq!(db.get(&encode_u64(60)).as_deref(), Some(&b"overwritten"[..]));
    }

    #[test]
    fn snapshot_survives_compaction_of_its_tables() {
        let mut db = Db::new(small_opts());
        for i in 0..400u64 {
            db.put(&encode_u64(i), &[i as u8; 16]).unwrap();
        }
        db.flush().unwrap();
        let snap = db.snapshot();
        // Push enough new data through to force flushes + compactions that
        // retire every table the snapshot references.
        for round in 0..6u64 {
            for i in 0..400u64 {
                db.put(&encode_u64(i), &[round as u8; 24]).unwrap();
            }
            db.flush().unwrap();
        }
        for i in (0..400u64).step_by(7) {
            assert_eq!(
                snap.get(&encode_u64(i)).as_deref(),
                Some(&[i as u8; 16][..]),
                "snapshot read after compaction retired its tables"
            );
        }
        drop(snap);
        // With the snapshot gone the graveyard reaps on the next flush.
        db.put(b"post", b"post").unwrap();
        db.flush().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn scan_merges_newest_versions_and_drops_tombstones() {
        let mut db = Db::new(small_opts());
        for i in 0..60u64 {
            db.put(&encode_u64(i), b"old").unwrap();
        }
        db.flush().unwrap();
        for i in (0..60u64).step_by(2) {
            db.put(&encode_u64(i), b"new").unwrap();
        }
        for i in (0..60u64).step_by(3) {
            db.delete(&encode_u64(i)).unwrap();
        }
        let snap = db.snapshot();
        let got = snap.scan_from(&encode_u64(0), None, usize::MAX);
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..60u64 {
            if i % 3 == 0 {
                continue; // tombstoned
            }
            let v: &[u8] = if i % 2 == 0 { b"new" } else { b"old" };
            want.push((encode_u64(i).to_vec(), v.to_vec()));
        }
        assert_eq!(got, want);
        // Bounded + limited forms agree with the full scan.
        assert_eq!(
            snap.scan_from(&encode_u64(10), Some(&encode_u64(20)), usize::MAX),
            want.iter()
                .filter(|(k, _)| {
                    k.as_slice() >= &encode_u64(10)[..] && k.as_slice() < &encode_u64(20)[..]
                })
                .cloned()
                .collect::<Vec<_>>()
        );
        assert_eq!(snap.scan_from(&encode_u64(0), None, 5), want[..5].to_vec());
    }

    #[test]
    fn scan_matches_db_seek_walk_across_many_levels() {
        let mut db = Db::new(small_opts());
        let mut state = 42u64;
        for _ in 0..800 {
            let r = memtree_common::hash::splitmix64(&mut state);
            let k = encode_u64(r % 300);
            if r % 5 == 0 {
                db.delete(&k).unwrap();
            } else {
                db.put(&k, &r.to_le_bytes()).unwrap();
            }
        }
        let snap = db.snapshot();
        let scanned = snap.scan_from(&[], None, usize::MAX);
        // Reference: walk the Db with seek/get.
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut low: Vec<u8> = Vec::new();
        while let crate::db::SeekResult::Found { key } = db.seek(&low, None) {
            if let Some(v) = db.get(&key) {
                want.push((key.clone(), v));
            }
            low = memtree_common::key::successor(&key);
        }
        assert_eq!(scanned, want);
        for (k, v) in &want {
            assert_eq!(snap.get(k).as_deref(), Some(v.as_slice()));
        }
    }
}
