//! A miniature log-structured merge engine in the image of RocksDB
//! (§4.2, Figure 4.2), built to evaluate SuRF as a drop-in Bloom-filter
//! replacement.
//!
//! Architecture: a MemTable (our own paged skip list) absorbs writes;
//! full MemTables become level-0 SSTables; leveled compaction keeps levels
//! ≥ 1 sorted and disjoint. SSTables are sequences of fixed-size blocks on
//! a **simulated disk** that counts every block read and can charge a
//! configurable per-read latency — the paper's speedups are I/O-count
//! driven, and the simulator measures those counts exactly (substitution
//! #3 in DESIGN.md). Each SSTable carries a fence index (first key per
//! block) and an optional filter: Bloom, SuRF-Hash, or SuRF-Real.
//!
//! `Get`, `Seek` (open and closed) and `Count` follow the Figure 4.3
//! execution paths, including SuRF's `moveToNext`-based candidate pruning
//! for seeks.
//!
//! Since the durability PR the engine is crash-consistent: puts are logged
//! to a CRC-framed WAL before touching the MemTable, flushes and
//! compactions publish their results through a CRC-framed manifest with an
//! atomic `CURRENT` pointer, and [`Db::open`] recovers the exact
//! acknowledged prefix of the put history after a simulated power loss
//! ([`SimDisk::crash`]), including torn final writes.

#![warn(missing_docs)]

mod compaction;
mod db;
mod disk;
mod manifest;
mod scrub;
mod snapshot;
mod sstable;
mod view;
mod wal;

pub use compaction::CompactionConfig;
pub use db::{
    gc_orphans, Db, DbOptions, DbStats, FilterKind, FlushStats, OpenReport,
    SeekResult, StallConfig,
};
pub use disk::{IoStats, SimDisk, SlowIo};
pub use scrub::{FileScrubOutcome, LostRange, ScrubReport};
pub use snapshot::DbSnapshot;
pub use sstable::SsTable;
pub use wal::WalStats;
