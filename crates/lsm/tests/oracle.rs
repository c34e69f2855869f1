//! Differential LSM oracle: `get` / `multi_get` / `seek` / `next_after` /
//! `count` / `multi_scan`, and a snapshot's `get` / `scan_from`,
//! cross-checked against a `BTreeMap` reference across 32 seeds for every
//! `FilterKind`.
//!
//! Unlike `model.rs` (which interleaves commands and checks), this harness
//! builds a randomized database per seed and then sweeps every read API
//! over the same probe set, so the batched paths are exercised against
//! their per-key twins on identical state.

use memtree_common::check::{prop_check_seeded, Gen};
use memtree_common::{check, check_eq};
use memtree_lsm::{Db, DbOptions, FilterKind, SeekResult};
use std::collections::BTreeMap;

const SEEDS: u64 = 32;

fn all_kinds() -> [FilterKind; 5] {
    [
        FilterKind::None,
        FilterKind::Bloom(12.0),
        FilterKind::SurfHash(6),
        FilterKind::SurfReal(6),
        FilterKind::SurfMixed(4, 4),
    ]
}

fn key(g: &mut Gen) -> Vec<u8> {
    g.bytes_from(b"pqrs", 1..7)
}

/// Builds a DB + model pair with random puts, overwrites, and flushes.
fn build(g: &mut Gen, filter: FilterKind) -> (Db, BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut db = Db::new(DbOptions {
        memtable_bytes: 256, // tiny: force flushes + multi-level shapes
        filter,
        cache_blocks: g.range(0..6),
        ..Default::default()
    });
    let mut model = BTreeMap::new();
    for _ in 0..g.range(20..250) {
        if g.bool(0.04) {
            db.flush().unwrap();
        } else if g.bool(0.15) {
            // Delete a live key half the time (tombstone shadowing real
            // data through flushes), a random key otherwise (tombstone
            // for a key that may never have existed).
            let k = if !model.is_empty() && g.bool(0.5) {
                let stored: Vec<&Vec<u8>> = model.keys().collect();
                (*g.pick(&stored)).clone()
            } else {
                key(g)
            };
            db.delete(&k).unwrap();
            model.remove(&k);
        } else {
            let k = key(g);
            let v = vec![g.u64() as u8; g.range(1..4)];
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
    }
    (db, model)
}

/// Probe set mixing stored keys, their neighbors, random misses, and
/// duplicates — shared by every read API below.
fn probes(g: &mut Gen, model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<Vec<u8>> {
    let stored: Vec<&Vec<u8>> = model.keys().collect();
    let mut out = Vec::new();
    for _ in 0..60 {
        match g.range(0..4) {
            0 if !stored.is_empty() => out.push((*g.pick(&stored)).clone()),
            1 if !stored.is_empty() => {
                let mut k = (*g.pick(&stored)).clone();
                k.push(b'!');
                out.push(k);
            }
            2 => out.push(key(g)),
            _ => {
                if let Some(last) = out.last() {
                    out.push(last.clone()); // duplicate
                } else {
                    out.push(key(g));
                }
            }
        }
    }
    out
}

#[test]
fn oracle_all_filter_kinds() {
    for filter in all_kinds() {
        prop_check_seeded(
            "lsm_oracle",
            0xC0FFEE ^ (format!("{filter:?}").len() as u64), // per-kind stream
            SEEDS,
            |g: &mut Gen| {
                let (db, model) = build(g, filter);
                let probe_keys = probes(g, &model);
                let refs: Vec<&[u8]> = probe_keys.iter().map(|k| k.as_slice()).collect();

                // get ↔ model, and multi_get ↔ per-key get loop.
                let expect: Vec<Option<Vec<u8>>> = refs
                    .iter()
                    .map(|k| {
                        let got = db.get(k);
                        let want = model.get(*k).cloned();
                        check_eq!(got.clone(), want, "{filter:?} get {k:?}");
                        Ok::<_, String>(got)
                    })
                    .collect::<Result<_, _>>()?;
                // A snapshot reads through the same view: DbSnapshot::get
                // and scan_from (open and bounded) ↔ model.
                let snap = db.snapshot();
                for k in &refs {
                    check_eq!(snap.get(k), model.get(*k).cloned(), "{filter:?} snapshot get {k:?}");
                }
                for (i, w) in probe_keys.windows(2).enumerate() {
                    let lk = &w[0];
                    let limit = [usize::MAX, 1, 5, 64][i % 4];
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(lk.clone()..)
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    check_eq!(snap.scan_from(lk, None, limit), want, "{filter:?} scan_from {lk:?}");
                    let hk = &w[1];
                    let want: Vec<(Vec<u8>, Vec<u8>)> = if lk <= hk {
                        model
                            .range(lk.clone()..hk.clone())
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    check_eq!(
                        snap.scan_from(lk, Some(hk), usize::MAX),
                        want,
                        "{filter:?} scan_from {lk:?}..{hk:?}"
                    );
                }

                for chunk in [1usize, 7, 64, refs.len().max(1)] {
                    let mut got = Vec::new();
                    for c in refs.chunks(chunk) {
                        got.extend(db.multi_get(c));
                    }
                    check_eq!(got, expect, "{filter:?} multi_get chunk {chunk}");
                }

                // seek (open + closed) and next_after ↔ model.
                for w in probe_keys.windows(2) {
                    let lk = &w[0];
                    let want_open = model.range(lk.clone()..).next().map(|(k, _)| k.clone());
                    let got_open = match db.seek(lk, None) {
                        SeekResult::Found { key } => Some(key),
                        SeekResult::NotFound => None,
                    };
                    check_eq!(got_open, want_open, "{filter:?} open seek {lk:?}");

                    let (lo, hi) = if w[0] <= w[1] {
                        (w[0].clone(), w[1].clone())
                    } else {
                        (w[1].clone(), w[0].clone())
                    };
                    let want_closed = model
                        .range(lo.clone()..hi.clone())
                        .next()
                        .map(|(k, _)| k.clone());
                    let got_closed = match db.seek(&lo, Some(&hi)) {
                        SeekResult::Found { key } => Some(key),
                        SeekResult::NotFound => None,
                    };
                    check_eq!(got_closed, want_closed, "{filter:?} closed {lo:?}..{hi:?}");

                    let want_next = model
                        .range((
                            std::ops::Bound::Excluded(lk.clone()),
                            std::ops::Bound::Unbounded,
                        ))
                        .next()
                        .map(|(k, _)| k.clone());
                    let got_next = match db.next_after(lk, None) {
                        SeekResult::Found { key } => Some(key),
                        SeekResult::NotFound => None,
                    };
                    check_eq!(got_next, want_next, "{filter:?} next_after {lk:?}");

                    // count may over-approximate, never under-count.
                    let truth = model.range(lo.clone()..hi.clone()).count();
                    let got = db.count(&lo, &hi);
                    check!(got >= truth, "{filter:?} count {got} < {truth}");
                }

                // multi_scan ↔ per-range seek-then-next walk.
                let ranges: Vec<(&[u8], usize)> = refs
                    .iter()
                    .enumerate()
                    .map(|(i, k)| (*k, [0usize, 1, 5, 64][i % 4]))
                    .collect();
                let want: Vec<Vec<Vec<u8>>> = ranges
                    .iter()
                    .map(|&(low, n)| {
                        model
                            .range(low.to_vec()..)
                            .take(n)
                            .map(|(k, _)| k.clone())
                            .collect()
                    })
                    .collect();
                check_eq!(db.multi_scan(&ranges), want, "{filter:?} multi_scan");
                Ok(())
            },
        );
    }
}
