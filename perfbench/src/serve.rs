//! The serving side: set-up of a `memtree_serve::ShardedDb` and the
//! closed-loop client run against it, with every answer checked. In a
//! traced run (T1) every other window also records a span around each
//! `ShardedDb::{get,put,scan}` call, so one run yields both the untraced
//! and the traced rates and their difference is the tracing overhead.

use crate::gen::{
    check_final, check_get, check_scan, key, value, AckLog, Op, OpKind, OpStream, Workload,
    CLIENTS, KEY_LEN, LOADER,
};
use crate::replay::{db_options, SHARDS};
use memtree_serve::{ServeOptions, ShardedDb};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// The serving configuration: defaults (committer group commit, serving
/// stall bands, no deadlines) with one shard per core.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        shards: SHARDS,
        db: db_options(),
        ..ServeOptions::default()
    }
}

/// Opens a fresh sharded database and loads `loaded` keys with `CLIENTS`
/// loader threads. Returns it with the wall time of open + load +
/// `flush_all` + `barrier`, in seconds.
pub fn setup(loaded: u64) -> Result<(ShardedDb, f64), String> {
    let t = Instant::now();
    let sdb = ShardedDb::new(serve_options());
    std::thread::scope(|s| {
        let loaders: Vec<_> = (0..CLIENTS as u64)
            .map(|first| {
                let sdb = &sdb;
                s.spawn(move || -> Result<(), String> {
                    for idx in (first..loaded).step_by(CLIENTS) {
                        sdb.put(&key(idx), &value(idx, LOADER, 0))
                            .map_err(|e| format!("load put of index {idx}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "loader thread panicked".to_string())?)
    })?;
    sdb.flush_all()
        .map_err(|e| format!("setup flush_all: {e}"))?;
    sdb.barrier().map_err(|e| format!("setup barrier: {e}"))?;
    Ok((sdb, t.elapsed().as_secs_f64()))
}

/// Timing of one closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Untimed lead-in that lets caches fill, in seconds.
    pub warmup: f64,
    /// Timed length, in seconds.
    pub seconds: f64,
    /// Window length, in seconds; metrics are medians over windows.
    pub window: f64,
    /// Record T1 spans in odd-numbered windows.
    pub trace: bool,
}

impl LoopConfig {
    /// Number of timed windows.
    pub fn windows(&self) -> usize {
        ((self.seconds / self.window).round() as usize).max(1)
    }

    /// Whether window `w` records spans.
    pub fn traced(&self, w: usize) -> bool {
        self.trace && w % 2 == 1
    }
}

/// A T1 span: one call into `ShardedDb`, real time.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub kind: OpKind,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// What a closed-loop run measured.
#[derive(Debug)]
pub struct LoopOut {
    /// Per timed window, ops started in it.
    pub ops: Vec<u64>,
    /// Per op kind, per timed window: latencies in nanoseconds, ascending.
    pub lat: [Vec<Vec<u32>>; 3],
    /// T1 spans (traced windows only).
    pub spans: Vec<Span>,
    /// Ops issued per kind, warm-up included.
    pub issued: [u64; 3],
    /// Ops that returned a typed error.
    pub failed: u64,
    /// Per client (index = client id − 1), what its acknowledged writes
    /// allow each key to hold afterwards.
    pub logs: Vec<AckLog>,
}

impl LoopOut {
    fn new(windows: usize, clients: usize) -> Self {
        Self {
            ops: vec![0; windows],
            lat: std::array::from_fn(|_| vec![Vec::new(); windows]),
            spans: Vec::new(),
            issued: [0; 3],
            failed: 0,
            logs: (0..clients).map(|_| AckLog::default()).collect(),
        }
    }

    /// Ops issued, warm-up included.
    pub fn attempted(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Adds one client's measurements.
    fn absorb(&mut self, other: LoopOut) {
        for (w, ops) in other.ops.into_iter().enumerate() {
            self.ops[w] += ops;
        }
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            for (w, samples) in theirs.into_iter().enumerate() {
                mine[w].extend(samples);
            }
        }
        self.spans.extend(other.spans);
        for (mine, theirs) in self.issued.iter_mut().zip(other.issued) {
            *mine += theirs;
        }
        self.failed += other.failed;
        self.logs.extend(other.logs);
    }
}

/// Runs `CLIENTS` closed-loop clients against `sdb`, each issuing its
/// seeded stream and waiting for every reply, for `cfg.warmup +
/// cfg.seconds`. Every answer is checked as it arrives; the first wrong
/// one stops the run and is returned as the error.
pub fn closed_loop(
    sdb: &ShardedDb,
    workload: Workload,
    loaded: u64,
    seed: u64,
    cfg: LoopConfig,
    loaded_sorted: &[[u8; KEY_LEN]],
) -> Result<LoopOut, String> {
    let nwin = cfg.windows();
    let stop = AtomicBool::new(false);
    let ready = Barrier::new(CLIENTS + 1);
    let start = OnceLock::new();
    let outs: Vec<Result<LoopOut, String>> = std::thread::scope(|s| {
        let clients: Vec<_> = (1..=CLIENTS)
            .map(|client| {
                let (stop, ready) = (&stop, &ready);
                let start = &start;
                s.spawn(move || {
                    ready.wait();
                    let start: Instant = *start.get().expect("set before the barrier");
                    let mut stream = OpStream::new(workload, loaded, seed, client);
                    let mut out = LoopOut::new(nwin, 1);
                    let end = cfg.warmup + cfg.seconds;
                    while !stop.load(Ordering::Relaxed) {
                        let op = stream.next_op();
                        let k = match op {
                            Op::Get { idx } | Op::Put { idx, .. } | Op::Scan { idx, .. } => {
                                key(idx)
                            }
                        };
                        let v = match op {
                            Op::Put { idx, ver } => value(idx, client as u8, ver),
                            _ => Vec::new(),
                        };
                        let t0 = Instant::now();
                        let since = t0.duration_since(start).as_secs_f64();
                        if since >= end {
                            break;
                        }
                        let checked = match op {
                            Op::Get { idx } => {
                                let got = sdb.get(&k);
                                let ns = t0.elapsed();
                                (ns, check_get(workload, loaded, idx, got.as_deref()))
                            }
                            Op::Put { idx, ver } => {
                                let res = sdb.put(&k, &v);
                                let ns = t0.elapsed();
                                match res {
                                    Ok(_) => {
                                        out.logs[0].last.insert(idx, ver);
                                    }
                                    Err(_) => {
                                        out.failed += 1;
                                        out.logs[0].failed.entry(idx).or_default().push(ver);
                                    }
                                }
                                (ns, Ok(()))
                            }
                            Op::Scan { idx, limit } => {
                                let got = sdb.scan(&k, None, limit);
                                let ns = t0.elapsed();
                                (
                                    ns,
                                    check_scan(workload, loaded, idx, limit, &got, loaded_sorted),
                                )
                            }
                        };
                        out.issued[op.kind() as usize] += 1;
                        let (dur, verdict) = checked;
                        if let Err(e) = verdict {
                            stop.store(true, Ordering::Relaxed);
                            return Err(format!("client {client}: {e}"));
                        }
                        if since < cfg.warmup {
                            continue;
                        }
                        let w = (((since - cfg.warmup) / cfg.window) as usize).min(nwin - 1);
                        let kind = op.kind();
                        out.ops[w] += 1;
                        let ns = dur.as_nanos().min(u128::from(u32::MAX)) as u32;
                        out.lat[kind as usize][w].push(ns);
                        if cfg.traced(w) {
                            let start_ns = t0.duration_since(start).as_nanos() as u64;
                            out.spans.push(Span {
                                kind,
                                start_ns,
                                dur_ns: u64::from(ns),
                            });
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        // Start the clock once every client is ready, so window 0 is not
        // charged for thread start-up.
        start.set(Instant::now()).expect("set once");
        ready.wait();
        clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut merged = LoopOut::new(nwin, 0);
    for out in outs {
        merged.absorb(out?);
    }
    for per_kind in &mut merged.lat {
        for w in per_kind {
            w.sort_unstable();
        }
    }
    Ok(merged)
}

/// After a read-visibility barrier, checks every key a client wrote: it
/// must hold the last write some client had acknowledged for it (every
/// acknowledged private insert is readable).
pub fn check_after(sdb: &ShardedDb, logs: &[AckLog]) -> Result<(), String> {
    sdb.barrier()
        .map_err(|e| format!("post-run barrier: {e}"))?;
    let written: BTreeSet<u64> = logs
        .iter()
        .flat_map(|l| l.last.keys().chain(l.failed.keys()).copied())
        .collect();
    let with_ids: Vec<(usize, &AckLog)> =
        logs.iter().enumerate().map(|(i, l)| (i + 1, l)).collect();
    for idx in written {
        check_final(idx, sdb.get(&key(idx)).as_deref(), &with_ids)?;
    }
    Ok(())
}
