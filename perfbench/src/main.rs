//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report line (seed, host facts, per-op latency with sample
//! counts, T2 counts) and, last, the result line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A wrong answer ends the run with exit code 1
//! and no result line.

use perfbench::gen::{loaded_sorted, OpKind, Workload};
use perfbench::replay::{replay, OPS_PER_CLIENT, SHARDS};
use perfbench::report::{self, json_num, json_obj, json_str};
use perfbench::serve::{check_after, closed_loop, setup, LoopConfig};
use perfbench::stats::median;

/// Untimed lead-in before the timed windows, seconds.
const WARMUP_S: f64 = 1.0;
/// Window length; every timing is a median over windows, seconds.
const WINDOW_S: f64 = 1.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut rev) = (None, None, None, "unknown".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {val}: want 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: want 0 or 1")),
                })
            }
            "--rev" => rev = val,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rev,
    })
}

/// Returns the report line and the result line.
fn run(a: &Args) -> Result<(String, String), String> {
    let wl = a.workload;
    let loaded = wl.loaded_keys();
    let sorted = loaded_sorted(loaded);
    let cfg = LoopConfig {
        warmup: WARMUP_S,
        seconds: a.seconds,
        window: WINDOW_S,
        trace: a.trace,
    };

    let mut setup_samples = Vec::new();
    let mut sdb: Option<memtree_serve::ShardedDb> = None;
    for _ in 0..if a.trace { 1 } else { SETUPS } {
        if let Some(old) = sdb.take() {
            old.close()
                .map_err(|e| format!("close after set-up: {e}"))?;
        }
        let (db, secs) = setup(loaded)?;
        setup_samples.push(secs);
        sdb = Some(db);
    }
    let sdb = sdb.expect("at least one set-up");
    let disk = sdb.disk_handle();
    let (stats0, io0) = (sdb.stats(), disk.stats());
    let out = closed_loop(&sdb, wl, loaded, a.seed, cfg, &sorted)?;
    let deltas = report::ServeDeltas {
        stats0,
        stats1: sdb.stats(),
        io0,
        io1: disk.stats(),
    };
    check_after(&sdb, &out.logs)?;
    sdb.close().map_err(|e| format!("close after run: {e}"))?;
    let t2 = replay(wl, loaded, a.seed, OPS_PER_CLIENT)?;

    let setup_s = median(&mut setup_samples.clone()).expect("at least one set-up");
    let (table, values): (&[(&str, &str)], _) = if a.trace {
        (
            &report::PER_LAYER,
            report::per_layer(&out, &cfg, &deltas, &t2),
        )
    } else {
        (
            &report::END_TO_END,
            report::end_to_end(wl, &out, &cfg, setup_s, &t2),
        )
    };
    let ops = OpKind::ALL.map(|k| (k.name(), report::op_summary(&out, k)));
    let setups = setup_samples
        .iter()
        .map(|&s| json_num(s))
        .collect::<Result<Vec<_>, _>>()?;
    let main_samples: usize = out.lat[wl.main_op() as usize].iter().map(Vec::len).sum();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let report = json_obj(&[(
        "report",
        json_obj(&[
            ("workload", json_str(wl.name())),
            ("seed", a.seed.to_string()),
            ("trace", u8::from(a.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("crc_kernel", json_str(memtree_common::crc::active_kernel())),
            ("git_rev", json_str(&a.rev)),
            ("clients", perfbench::gen::CLIENTS.to_string()),
            ("shards", SHARDS.to_string()),
            ("loaded_keys", loaded.to_string()),
            ("timed_windows", cfg.windows().to_string()),
            ("window_s", json_num(WINDOW_S)?),
            ("window_ops", format!("{:?}", out.ops)),
            ("window_main_p50_us", report::window_quantiles_json(&out, wl.main_op(), 0.5)),
            ("window_main_p95_us", report::window_quantiles_json(&out, wl.main_op(), 0.95)),
            ("window_main_p99_us", report::window_quantiles_json(&out, wl.main_op(), 0.99)),
            ("main_op", json_str(wl.main_op().name())),
            ("setup_s_samples", format!("[{}]", setups.join(", "))),
            (
                "metric_samples",
                json_obj(&[
                    ("throughput_ops_s", format!("{} windows", cfg.windows())),
                    ("main_p50_us", format!("{main_samples} ops in {} windows", cfg.windows())),
                    ("main_p95_us", format!("{main_samples} ops in {} windows", cfg.windows())),
                    ("setup_s", format!("{} set-ups", setup_samples.len())),
                    ("index_filter_bytes_per_key", "1 exact count".to_string()),
                ]
                .map(|(k, v)| (k, json_str(&v)))),
            ),
            ("failed_frac", json_num(perfbench::stats::per(out.failed as f64, out.attempted()))?),
            ("ops_real_time", json_obj(&ops)),
            ("t1_spans", out.spans.len().to_string()),
            ("t2_counts", report::counts_json(&t2)),
            (
                "time_domains",
                json_str("real time: every *_us, *_s, ops/s and % figure; SimDisk virtual time: disk.virtual_us_per_op and t2_counts.virtual_us only"),
            ),
        ]),
    )]);
    let result = report::result_line(out.attempted(), out.failed, table, &values)?;
    Ok((report, result))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <write_hot|read_uncached|scan_short> --seed <n> --seconds <s> [--trace 0|1] [--rev <git revision>]");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((report, result)) => {
            println!("{report}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
