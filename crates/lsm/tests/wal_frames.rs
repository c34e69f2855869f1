//! Exhaustive single-bit-flip corruption sweep over the WAL.
//!
//! A 3-record log is corrupted at **every bit position** and recovered.
//! The frame format (CRC32C over length + seq + payload) must map each
//! flip to exactly one of two outcomes:
//!
//! * flip inside the **last** record's frame → clean torn-tail truncation:
//!   recovery succeeds with exactly records 1 and 2;
//! * flip inside an **earlier** frame → typed `Corruption` error from
//!   `Db::open` (the resync scan finds a valid later frame, so this cannot
//!   be a torn tail).
//!
//! In no case may recovery surface a wrong or phantom record.

use memtree_lsm::{Db, DbOptions, SimDisk};
use std::sync::Arc;

const KEYS: [&[u8]; 3] = [b"alpha-key", b"bravo-key", b"charlie-key"];
const VALS: [&[u8]; 3] = [b"value-one", b"value-two", b"value-three"];

fn opts() -> DbOptions {
    DbOptions {
        memtable_bytes: 1 << 20, // keep all records in WAL + memtable
        ..Default::default()
    }
}

/// A fresh database whose WAL holds exactly the three records, synced.
fn build() -> (Arc<SimDisk>, usize) {
    let mut db = Db::new(opts());
    for (k, v) in KEYS.iter().zip(VALS) {
        db.put(k, v).unwrap(); // group commit 1: synced per put
    }
    let disk = db.disk_handle();
    drop(db);
    let wal_len = disk.file_len("wal");
    (disk, wal_len)
}

/// Frame layout mirror: header (len u32 | seq u64 | crc u32) + payload
/// (kind u8 | key_len u32 | key | value). Used only to map a byte offset
/// to the record it belongs to.
fn frame_len(i: usize) -> usize {
    16 + 1 + 4 + KEYS[i].len() + VALS[i].len()
}

#[test]
fn every_single_bit_flip_truncates_or_errors_never_lies() {
    let bounds = [frame_len(0), frame_len(0) + frame_len(1)];
    let (disk0, wal_len) = build();
    assert_eq!(
        wal_len,
        bounds[1] + frame_len(2),
        "frame layout mirror out of sync with the codec"
    );
    drop(disk0);

    let mut torn = 0usize;
    let mut typed = 0usize;
    for byte in 0..wal_len {
        for bit in 0..8u8 {
            let (disk, _) = build();
            let mut wal = disk.read_file("wal");
            wal[byte] ^= 1 << bit;
            disk.write_file_atomic("wal", &wal).unwrap();
            disk.sync();
            let record = if byte < bounds[0] {
                0
            } else if byte < bounds[1] {
                1
            } else {
                2
            };
            match Db::open(disk, opts()) {
                Ok(db) => {
                    // Only a flip in the final frame may recover, and only
                    // by truncating that frame away.
                    assert_eq!(
                        record, 2,
                        "flip at byte {byte} bit {bit} (record {record}) must not recover"
                    );
                    torn += 1;
                    let report = db.open_report();
                    assert_eq!(report.wal_records_replayed, 2, "exactly the intact prefix");
                    assert_eq!(report.wal_torn_tail_truncated, 1);
                    for (i, (k, v)) in KEYS.iter().zip(VALS).enumerate() {
                        let got = db.get(k);
                        if i < 2 {
                            assert_eq!(got.as_deref(), Some(v), "byte {byte} bit {bit}");
                        } else {
                            assert_eq!(got, None, "byte {byte} bit {bit}: phantom record");
                        }
                    }
                }
                Err(e) => {
                    assert_ne!(
                        record, 2,
                        "flip in the tail frame should truncate, got {e:?} at byte {byte} bit {bit}"
                    );
                    typed += 1;
                    assert!(
                        matches!(e, memtree_common::error::MemtreeError::Corruption { .. }),
                        "mid-log flip must be a typed corruption, got {e:?}"
                    );
                }
            }
        }
    }
    // Every flip was classified, and both arms were exercised.
    assert_eq!(torn, frame_len(2) * 8);
    assert_eq!(typed, bounds[1] * 8);
}

#[test]
fn truncated_tails_of_every_length_recover_the_intact_prefix() {
    let (_, wal_len) = build();
    let full_frames = [0, frame_len(0), frame_len(0) + frame_len(1), wal_len];
    for cut in 0..wal_len {
        let (disk, _) = build();
        let mut wal = disk.read_file("wal");
        wal.truncate(cut);
        disk.write_file_atomic("wal", &wal).unwrap();
        disk.sync();
        let db = Db::open(disk, opts()).unwrap_or_else(|e| {
            panic!("truncation to {cut} bytes is a torn tail, not corruption: {e:?}")
        });
        let intact = full_frames.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            db.open_report().wal_records_replayed,
            intact as u64,
            "cut at {cut}"
        );
        for (i, (k, v)) in KEYS.iter().zip(VALS).enumerate() {
            if i < intact {
                assert_eq!(db.get(k).as_deref(), Some(v), "cut {cut}");
            } else {
                assert_eq!(db.get(k), None, "cut {cut}: phantom record");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest-frame sweep: same exhaustive single-bit-flip discipline, applied
// to the other CRC-framed files (`manifest-N` and `CURRENT`).
// ---------------------------------------------------------------------------

/// A database whose manifest holds two flush transactions (one L0 table
/// each) and whose WAL is empty: all data lives behind the manifest.
fn build_flushed() -> Arc<SimDisk> {
    let mut db = Db::new(opts());
    for group in 0..2 {
        for i in 0..8u32 {
            db.put(group_key(group, i).as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
    }
    let disk = db.disk_handle();
    drop(db);
    disk
}

fn group_key(group: u32, i: u32) -> String {
    format!("key-{group}-{i}")
}

/// Byte offsets where each manifest frame starts (frames are
/// self-describing: `len u32 | seq u64 | crc u32 | payload`).
fn frame_starts(buf: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        starts.push(at);
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        at += 16 + len;
    }
    assert_eq!(at, buf.len(), "manifest is not a whole number of frames");
    starts
}

/// Every single-bit flip in the manifest maps to exactly one outcome:
///
/// * flip in the **final** transaction frame → torn-tail truncation. The
///   database opens on the version one commit back (the second flush's
///   table is gone, its blocks are garbage-collected), serves the first
///   flush correctly, and passes invariants and a clean scrub. No wrong
///   or phantom record ever surfaces.
/// * flip in an **earlier** frame → typed `Corruption` from `Db::open`.
#[test]
fn manifest_bit_flips_truncate_or_error_never_lie() {
    let disk0 = build_flushed();
    let manifest = disk0.read_file("manifest-1");
    let starts = frame_starts(&manifest);
    assert!(starts.len() >= 2, "need at least two transactions to sweep");
    let last_frame = *starts.last().unwrap();
    drop(disk0);

    let mut torn = 0usize;
    let mut typed = 0usize;
    for byte in 0..manifest.len() {
        for bit in 0..8u8 {
            let disk = build_flushed();
            let mut m = disk.read_file("manifest-1");
            m[byte] ^= 1 << bit;
            disk.write_file_atomic("manifest-1", &m).unwrap();
            disk.sync();
            match Db::open(disk, opts()) {
                Ok(mut db) => {
                    assert!(
                        byte >= last_frame,
                        "flip at byte {byte} bit {bit} is mid-log and must not recover"
                    );
                    torn += 1;
                    for i in 0..8 {
                        assert_eq!(
                            db.get(group_key(0, i).as_bytes()).as_deref(),
                            Some(b"v".as_slice()),
                            "byte {byte} bit {bit}: first flush must survive"
                        );
                        assert_eq!(
                            db.get(group_key(1, i).as_bytes()),
                            None,
                            "byte {byte} bit {bit}: phantom record from the dropped commit"
                        );
                    }
                    db.check_invariants().unwrap();
                    let report = db.scrub().unwrap();
                    assert!(report.lost_ranges.is_empty(), "byte {byte} bit {bit}");
                }
                Err(e) => {
                    assert!(
                        byte < last_frame,
                        "flip in the tail frame should truncate, got {e:?} at byte {byte} bit {bit}"
                    );
                    typed += 1;
                    assert!(
                        matches!(e, memtree_common::error::MemtreeError::Corruption { .. }),
                        "mid-log flip must be a typed corruption, got {e:?}"
                    );
                }
            }
        }
    }
    assert_eq!(torn, (manifest.len() - last_frame) * 8);
    assert_eq!(typed, last_frame * 8);
}

/// `CURRENT` is one CRC frame naming the live manifest; any single-bit
/// flip must be a typed corruption, never a misdirected open.
#[test]
fn current_pointer_bit_flips_are_typed_corruption() {
    let disk0 = build_flushed();
    let len = disk0.file_len("CURRENT");
    drop(disk0);
    for byte in 0..len {
        for bit in 0..8u8 {
            let disk = build_flushed();
            let mut c = disk.read_file("CURRENT");
            c[byte] ^= 1 << bit;
            disk.write_file_atomic("CURRENT", &c).unwrap();
            disk.sync();
            let e = match Db::open(disk, opts()) {
                Ok(_) => panic!("byte {byte} bit {bit}: corrupt CURRENT must not open"),
                Err(e) => e,
            };
            assert!(
                matches!(e, memtree_common::error::MemtreeError::Corruption { .. }),
                "byte {byte} bit {bit}: expected typed corruption, got {e:?}"
            );
        }
    }
}
