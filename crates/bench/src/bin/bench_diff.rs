//! `bench_diff` — compares a freshly measured `BENCH_*.json` report
//! against the committed baseline and fails on regressions:
//!
//! ```sh
//! bench_diff BENCH_<suite>.json fresh.json
//! bench_diff --max-regression-pct 30 BENCH_<suite>.json fresh.json
//! ```
//!
//! Every metric the baseline declares with a floor is compared by name
//! under the rule in `sickle_bench::report::diff`. Prints a delta table;
//! exits 1 when any metric regresses by more than the threshold (default
//! 20%), 2 on usage or schema errors.

use std::path::Path;
use std::process::ExitCode;

use sickle_bench::report::{diff, Report};

struct Args {
    baseline: String,
    fresh: String,
    max_regression_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut max_regression_pct = 20.0;
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regression-pct" => {
                max_regression_pct = it
                    .next()
                    .ok_or("--max-regression-pct requires a value")?
                    .parse()
                    .map_err(|e| format!("--max-regression-pct: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_diff [--max-regression-pct P] <baseline.json> <fresh.json>"
                        .to_string(),
                )
            }
            _ => positional.push(arg),
        }
    }
    let [baseline, fresh] = positional
        .try_into()
        .map_err(|p: Vec<String>| format!("expected exactly 2 report paths, got {}", p.len()))?;
    Ok(Args {
        baseline,
        fresh,
        max_regression_pct,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let baseline = Report::load(Path::new(&args.baseline))?;
    let fresh = Report::load(Path::new(&args.fresh))?;
    let d = diff(&baseline, &fresh, args.max_regression_pct)?;
    print!("{d}");
    Ok(d.passed())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "bench_diff: {} regressed vs {} (threshold {:.0}%)",
                args.fresh, args.baseline, args.max_regression_pct
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}
