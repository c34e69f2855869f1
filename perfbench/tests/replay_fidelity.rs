//! T2 fidelity: the engine replay answers every get and scan exactly as a
//! `BTreeMap` model of the same op stream does (the replay compares each
//! answer and fails on the first disagreement), and two replays of one
//! seed repeat every count exactly.

use perfbench::gen::Workload;
use perfbench::replay::replay;

/// Small enough for a debug build, large enough that `write_hot` flushes
/// and compacts and `read_uncached` misses the cache.
const LOADED: u64 = 4_000;
const OPS_PER_CLIENT: usize = 4_000;

#[test]
fn replay_matches_the_model_and_repeats_its_counts() {
    for workload in Workload::ALL {
        for seed in [1, 7] {
            let run = || {
                replay(workload, LOADED, seed, OPS_PER_CLIENT)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()))
            };
            let (a, b) = (run(), run());
            assert_eq!(
                a.counts,
                b.counts,
                "{} seed {seed}: counts differ",
                workload.name()
            );
            assert_eq!((a.reads, a.writes, a.scans), (b.reads, b.writes, b.scans));
            assert_eq!(a.ops(), 2 * OPS_PER_CLIENT as u64);
            assert_eq!(
                a.index_filter_bytes_per_key(),
                b.index_filter_bytes_per_key()
            );
            match workload {
                Workload::WriteHot => {
                    assert!(a.reads > 0 && a.writes > 0);
                    assert!(a.counts.flushes > 0, "write_hot must flush: {:?}", a.counts);
                }
                Workload::ReadUncached => {
                    assert_eq!(a.writes, 0);
                    assert!(
                        a.counts.get_block_reads > 0,
                        "read_uncached must miss the cache"
                    );
                }
                Workload::ScanShort => assert!(a.scans > 0 && a.writes > 0),
            }
        }
    }
}

#[test]
fn different_seeds_replay_different_streams() {
    let a = replay(Workload::WriteHot, LOADED, 1, 500).expect("seed 1");
    let b = replay(Workload::WriteHot, LOADED, 2, 500).expect("seed 2");
    assert_ne!(a.counts, b.counts);
}
