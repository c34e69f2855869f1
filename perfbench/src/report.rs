//! Metric names and units, and the JSON lines the benchmark prints.

use crate::gen::{OpKind, Workload};
use crate::replay::Replay;
use crate::serve::{LoopConfig, LoopOut};
use crate::stats::{median, per, quantile};
use memtree_lsm::IoStats;
use memtree_serve::ServeStats;

/// End-to-end metrics (`--trace 0`), real time, measured untraced:
/// `(name, unit)`. `main_*` is the latency of the workload's main op:
/// the put on `write_hot`, the get on `read_uncached`, the scan on
/// `scan_short`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "ops/s"),
    ("main_p50_us", "us"),
    ("main_p95_us", "us"),
    ("setup_s", "s"),
    ("index_filter_bytes_per_key", "B/key"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`. Every unit but
/// `virtual_us/op` is real time or a count; a time with nothing to time
/// on a workload (no writes on `read_uncached`, say) reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("serve.put_us", "us"),
    ("serve.get_us", "us"),
    ("serve.scan_us", "us"),
    ("serve.write_residual_us", "us"),
    ("serve.read_residual_us", "us"),
    ("serve.scan_residual_us", "us"),
    ("serve.syncs_per_write", "syncs/write"),
    ("serve.shed_frac", "frac"),
    ("serve.retry_frac", "frac"),
    ("serve.max_queue_depth", "count"),
    ("trace.overhead_pct", "%"),
    ("lsm.put_us", "us"),
    ("lsm.flush_us", "us"),
    ("lsm.flushes", "count"),
    ("lsm.wal_bytes_per_write", "B/write"),
    ("lsm.snapshot_us", "us"),
    ("lsm.snapshot_p99_us", "us"),
    ("lsm.get_hit_us", "us"),
    ("lsm.get_miss_us", "us"),
    ("lsm.block_reads_per_get", "reads/get"),
    ("lsm.cache_hit_ratio", "frac"),
    ("lsm.scan_us", "us"),
    ("lsm.block_reads_per_scan", "reads/scan"),
    ("lsm.compact_us_per_write", "us/write"),
    ("lsm.compact_steps", "count"),
    ("lsm.block_writes_per_write", "writes/write"),
    ("disk.bytes_per_key", "B/key"),
    ("disk.sync_us", "us"),
    ("disk.virtual_us_per_op", "virtual_us/op"),
];

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` holds. Non-finite values are a
/// bug in the metric and abort the run.
pub fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// A JSON object from already-encoded members.
pub fn json_obj(members: &[(&str, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line: `correct`, `attempted`, `failed` and `metrics`, with
/// exactly the metrics of `table`, in its order.
pub fn result_line(
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((
            name,
            json_obj(&[("value", json_num(v)?), ("unit", json_str(unit))]),
        ));
    }
    if values.len() != table.len() {
        return Err("a measured metric is missing from the metric table".into());
    }
    Ok(json_obj(&[
        ("correct", "true".into()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json_obj(&metrics)),
    ]))
}

/// Median over windows `ws` of each window's throughput, ops/s.
pub fn throughput(out: &LoopOut, cfg: &LoopConfig, ws: &[usize]) -> f64 {
    let mut rates: Vec<f64> = ws.iter().map(|&w| out.ops[w] as f64 / cfg.window).collect();
    median(&mut rates).unwrap_or(0.0)
}

/// Median over windows `ws` of each window's quantile `q` of `kind`'s
/// latency, in microseconds.
pub fn window_quantile_us(out: &LoopOut, kind: OpKind, ws: &[usize], q: f64) -> f64 {
    let mut per_window: Vec<f64> = ws
        .iter()
        .filter_map(|&w| quantile(&out.lat[kind as usize][w], q))
        .map(|ns| f64::from(ns) / 1e3)
        .collect();
    median(&mut per_window).unwrap_or(0.0)
}

/// Each timed window's quantile `q` of `kind`'s latency, in
/// microseconds, as a JSON array (0 for a window without samples).
pub fn window_quantiles_json(out: &LoopOut, kind: OpKind, q: f64) -> String {
    let per_window: Vec<String> = out.lat[kind as usize]
        .iter()
        .map(|w| {
            format!(
                "{:.3}",
                quantile(w, q).map_or(0.0, |ns| f64::from(ns) / 1e3)
            )
        })
        .collect();
    format!("[{}]", per_window.join(", "))
}

/// One op kind's latency over every timed window, with its sample count.
pub fn op_summary(out: &LoopOut, kind: OpKind) -> String {
    let mut all: Vec<u32> = out.lat[kind as usize].iter().flatten().copied().collect();
    all.sort_unstable();
    let us = |q| quantile(&all, q).map_or(0.0, |ns| f64::from(ns) / 1e3);
    let mean = per(
        all.iter().map(|&ns| f64::from(ns)).sum::<f64>() / 1e3,
        all.len() as u64,
    );
    json_obj(&[
        ("samples", all.len().to_string()),
        ("mean_us", format!("{mean:.3}")),
        ("p50_us", format!("{:.3}", us(0.5))),
        ("p95_us", format!("{:.3}", us(0.95))),
        ("p99_us", format!("{:.3}", us(0.99))),
    ])
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    workload: Workload,
    out: &LoopOut,
    cfg: &LoopConfig,
    setup_s: f64,
    t2: &Replay,
) -> Vec<(&'static str, f64)> {
    let all: Vec<usize> = (0..cfg.windows()).collect();
    let main = workload.main_op();
    vec![
        ("throughput_ops_s", throughput(out, cfg, &all)),
        ("main_p50_us", window_quantile_us(out, main, &all, 0.5)),
        ("main_p95_us", window_quantile_us(out, main, &all, 0.95)),
        ("setup_s", setup_s),
        (
            "index_filter_bytes_per_key",
            t2.index_filter_bytes_per_key(),
        ),
    ]
}

/// Mean T1 span of `kind`, in microseconds (0 with none).
pub fn t1_mean_us(out: &LoopOut, kind: OpKind) -> f64 {
    let spans = out.spans.iter().filter(|s| s.kind == kind);
    let (n, ns) = spans.fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.dur_ns));
    per(ns as f64 / 1e3, n)
}

/// Serving-layer counters over the run (deltas).
pub struct ServeDeltas {
    /// `ServeStats` before the run.
    pub stats0: ServeStats,
    /// `ServeStats` after the run.
    pub stats1: ServeStats,
    /// The shared disk's `IoStats` before the run.
    pub io0: IoStats,
    /// The shared disk's `IoStats` after the run.
    pub io1: IoStats,
}

/// The per-layer metrics of a traced run: T1 minus T2 residuals for the
/// serving layer, T2 spans and counts for the engine and the disk.
pub fn per_layer(
    out: &LoopOut,
    cfg: &LoopConfig,
    d: &ServeDeltas,
    t2: &Replay,
) -> Vec<(&'static str, f64)> {
    let (untraced, traced): (Vec<usize>, Vec<usize>) =
        (0..cfg.windows()).partition(|&w| !cfg.traced(w));
    let plain = throughput(out, cfg, &untraced);
    let overhead = if plain > 0.0 {
        (plain - throughput(out, cfg, &traced)) / plain * 100.0
    } else {
        0.0
    };
    let (put, get, scan) = (
        t1_mean_us(out, OpKind::Write),
        t1_mean_us(out, OpKind::Read),
        t1_mean_us(out, OpKind::Scan),
    );
    let residual = |t1: f64, t2: f64| if t1 > 0.0 { t1 - t2 } else { 0.0 };
    let writes = out.issued[OpKind::Write as usize];
    let retries = (d.stats1.overload_retries - d.stats0.overload_retries)
        + (d.stats1.transient_retries - d.stats0.transient_retries);
    let c = &t2.counts;
    vec![
        ("serve.put_us", put),
        ("serve.get_us", get),
        ("serve.scan_us", scan),
        ("serve.write_residual_us", residual(put, t2.write_path_us())),
        ("serve.read_residual_us", residual(get, t2.get_us())),
        ("serve.scan_residual_us", residual(scan, t2.scan.mean_us())),
        (
            "serve.syncs_per_write",
            per((d.io1.syncs - d.io0.syncs) as f64, writes),
        ),
        (
            "serve.shed_frac",
            per((d.stats1.shed - d.stats0.shed) as f64, out.attempted()),
        ),
        ("serve.retry_frac", per(retries as f64, out.attempted())),
        ("serve.max_queue_depth", d.stats1.max_queue_depth as f64),
        ("trace.overhead_pct", overhead),
        ("lsm.put_us", t2.put.mean_us()),
        ("lsm.flush_us", t2.flush.mean_us()),
        ("lsm.flushes", c.flushes as f64),
        (
            "lsm.wal_bytes_per_write",
            per(c.wal_bytes as f64, t2.writes),
        ),
        ("lsm.snapshot_us", t2.snapshot.mean_us()),
        ("lsm.snapshot_p99_us", t2.snapshot.quantile_us(0.99)),
        ("lsm.get_hit_us", t2.get_hit.mean_us()),
        ("lsm.get_miss_us", t2.get_miss.mean_us()),
        (
            "lsm.block_reads_per_get",
            per(c.get_block_reads as f64, t2.reads),
        ),
        (
            "lsm.cache_hit_ratio",
            per(c.cache_hits as f64, c.cache_hits + c.cache_misses),
        ),
        ("lsm.scan_us", t2.scan.mean_us()),
        (
            "lsm.block_reads_per_scan",
            per(c.scan_block_reads as f64, t2.scans),
        ),
        (
            "lsm.compact_us_per_write",
            per(t2.compact.total_us(), t2.writes),
        ),
        ("lsm.compact_steps", c.compact_steps as f64),
        (
            "lsm.block_writes_per_write",
            per(c.block_writes as f64, t2.writes),
        ),
        (
            "disk.bytes_per_key",
            per(c.disk_used_bytes as f64, c.live_keys),
        ),
        ("disk.sync_us", t2.sync.mean_us()),
        ("disk.virtual_us_per_op", per(c.virtual_us as f64, t2.ops())),
    ]
}

/// T2's exactly repeating counts, for the report line.
pub fn counts_json(t2: &Replay) -> String {
    let c = &t2.counts;
    json_obj(&[
        ("reads", t2.reads.to_string()),
        ("writes", t2.writes.to_string()),
        ("scans", t2.scans.to_string()),
        ("get_block_reads", c.get_block_reads.to_string()),
        ("scan_block_reads", c.scan_block_reads.to_string()),
        ("cache_hits", c.cache_hits.to_string()),
        ("cache_misses", c.cache_misses.to_string()),
        ("syncs", c.syncs.to_string()),
        ("wal_bytes", c.wal_bytes.to_string()),
        ("block_writes", c.block_writes.to_string()),
        ("compact_steps", c.compact_steps.to_string()),
        ("flushes", c.flushes.to_string()),
        ("index_filter_bytes", c.index_filter_bytes.to_string()),
        ("table_entries", c.table_entries.to_string()),
        ("disk_used_bytes", c.disk_used_bytes.to_string()),
        ("live_keys", c.live_keys.to_string()),
        ("virtual_us", c.virtual_us.to_string()),
    ])
}
