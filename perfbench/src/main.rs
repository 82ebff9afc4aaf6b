//! The repository benchmark: DeiT-S inference in both nonlinear modes
//! and DeiT-layer serving, driven only through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deit_s_exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` is the timed run (tracing off) and ends with the
//! end-to-end metrics; `--trace 1` is the traced run and ends with the
//! per-layer metrics. The last line of standard output is the result
//! object; the lines before it are a table of every metric with its
//! sample count and in-run quartiles, the per-node ledger, the
//! correctness checks, and a `report` JSON line with the host facts.
//! See `perfbench/README.md`.

mod deit;
mod host;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use bfp_transformer::NonlinearMode;

use crate::report::{Metric, END_TO_END, PER_LAYER};
use crate::spans::SpanRecorder;

const WORKLOADS: [&str; 3] = ["deit_s_exact", "deit_s_fastnl", "serve_deit_layers"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <deit_s_exact|deit_s_fastnl|serve_deit_layers> \
--seed <u64> --seconds <s> --trace <0|1> [--spans-dir <dir>]";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        spans_dir: PathBuf::from("perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans-dir" => args.spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The engine mode of a DeiT workload; `None` for the serving workload.
fn workload(name: &str) -> Option<NonlinearMode> {
    match name {
        "deit_s_exact" => Some(NonlinearMode::Exact),
        "deit_s_fastnl" => Some(NonlinearMode::Fast),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rec = SpanRecorder::new();
    let mut outcome = match (workload(&args.workload), args.trace) {
        (Some(mode), false) => deit::run_timed(mode, args.seed, args.seconds),
        (Some(mode), true) => deit::run_traced(mode, args.seed, args.seconds, &rec),
        (None, false) => serve::run_timed(args.seed, args.seconds),
        (None, true) => serve::run_traced(args.seed, args.seconds, &rec),
    };
    if !outcome.metrics.iter().any(|m| m.name == "peak_rss_mb") {
        outcome.metric(Metric::single("peak_rss_mb", host::peak_rss_mb(), 1));
    }

    let mut header = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
    ];
    header.extend(host::facts());
    if args.trace {
        let path = args
            .spans_dir
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match rec.write(&path) {
            Ok(n) => header.push(("spans".into(), format!("{n} spans in {}", path.display()))),
            Err(e) => {
                eprintln!("writing spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report::render_report(&outcome, &header, catalogue));
    println!("{}", report::result_line(&outcome, catalogue));
    ExitCode::SUCCESS
}
