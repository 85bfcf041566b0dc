//! `sickle-e2ebench`: the end-to-end SICKLE benchmark — curate, serve,
//! train — driven through the library's public API.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload curate --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `e2ebench/README.md` for why each exists and which
//! layer metric should move which end-to-end metric):
//!
//! - `curate` — generate SST-P1F4, sample it through the five fig8 cases
//!   on the rank executor, ingest each case into its own shard store;
//! - `train-maxent` — train the fig8 MLP-Transformer from a loopback
//!   server holding a MaxEnt-curated identity store;
//! - `train-dense-resim` — the same trainer on a dense store coded with
//!   the re-simulation codec, with a cache far below its working set.
//!
//! Each run works in closed loop (one thread issuing requests, one client) for at
//! least `--seconds`, checks the outputs outside the timed region, and
//! prints one JSON line last: the end-to-end metrics with `--trace 0`,
//! the per-layer table from the benchmark's own spans with `--trace 1`.
//! A failed operation or output check fails the run (exit code 1).

mod curate;
mod inputs;
mod report;
mod stats;
mod trace;
mod train;

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Metrics;

const USAGE: &str = "usage: sickle-e2ebench --workload <curate|train-maxent|train-dense-resim> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Where runs put their stores and traces, relative to the working
/// directory (the root of the checkout).
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Curate,
    TrainMaxent,
    TrainDenseResim,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "curate" => Some(Workload::Curate),
            "train-maxent" => Some(Workload::TrainMaxent),
            "train-dense-resim" => Some(Workload::TrainDenseResim),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Curate => "curate",
            Workload::TrainMaxent => "train-maxent",
            Workload::TrainDenseResim => "train-dense-resim",
        }
    }
}

/// What one run is asked to do.
pub struct Run {
    pub seed: u64,
    /// Length of the measuring window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Sampling ranks and server worker threads: one per core.
    pub ranks: usize,
    /// Scratch directory for this run's stores.
    pub dir: PathBuf,
    /// When the run started.
    pub started: Instant,
}

impl Run {
    /// Whether another timed pass starts: passes run until the measuring
    /// window has closed, and the traced run makes at least two (one
    /// untraced, one traced).
    pub fn more(&self, started: Instant, passes: usize) -> bool {
        let min = if self.trace { 2 } else { 1 };
        passes < min || started.elapsed() < self.window
    }

    /// The traced run alternates untraced and traced passes, untraced
    /// first; per-layer numbers come from the traced ones, and the ratio
    /// of their wall times is the tracing overhead.
    pub fn traced_pass(&self, pass: usize) -> bool {
        self.trace && pass % 2 == 1
    }

    /// Runs timed pass number `pass`, with span recording paused if it is
    /// one of the traced run's untraced passes. Set-up and checks are
    /// always recorded in the traced run.
    pub fn pass<T>(&self, pass: usize, body: impl FnOnce(bool) -> T) -> T {
        let traced = self.traced_pass(pass);
        trace::set_recording(traced);
        let out = body(traced);
        trace::set_recording(self.trace);
        out
    }
}

/// Operation and output-check accounting for a run.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    /// Counts one operation; an error is recorded and comes back as `None`.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(format!("check failed: {}", what()));
        }
    }

    fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Wall time of one timed pass and whether it was traced.
#[derive(Clone, Copy)]
pub struct PassWall {
    pub secs: f64,
    pub traced: bool,
}

/// Median wall time of the untraced passes.
pub fn untraced_median(walls: &[PassWall]) -> f64 {
    let secs: Vec<f64> = walls.iter().filter(|w| !w.traced).map(|w| w.secs).collect();
    stats::median(&secs)
}

/// Spans that only group layer calls; their self time is not layer time.
const CONTAINERS: &[&str] = &["setup", "pass"];

/// The per-layer metrics every workload shares: mean traced pass time,
/// trace coverage, and tracing overhead (median traced over median
/// untraced pass time). Coverage is layer-span time over the run's wall
/// time so far, less the untraced passes (they run only to measure the
/// overhead). Returns the total self seconds of each span name.
pub fn record_trace_summary(
    metrics: &mut Metrics,
    run: &Run,
    walls: &[PassWall],
) -> std::collections::BTreeMap<&'static str, f64> {
    let spans = trace::spans();
    let traced: Vec<f64> = walls.iter().filter(|w| w.traced).map(|w| w.secs).collect();
    let untraced_s: f64 = walls.iter().filter(|w| !w.traced).map(|w| w.secs).sum();
    let recorded_s = run.started.elapsed().as_secs_f64() - untraced_s;
    metrics.set(
        "trace.pass_s",
        traced.iter().sum::<f64>() / traced.len() as f64,
    );
    metrics.set(
        "trace.coverage",
        trace::layer_secs(&spans, CONTAINERS) / recorded_s,
    );
    metrics.set(
        "trace.overhead",
        stats::median(&traced) / untraced_median(walls),
    );
    trace::self_secs_by_name(&spans)
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
    started: Instant,
) -> Result<(Workload, Run), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let run = Run {
        seed: seed.ok_or("missing --seed")?,
        window: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: traced.ok_or("missing --trace")?,
        ranks: report::nproc(),
        dir: Path::new(OUT_DIR).join(format!("{}-{}", workload.name(), std::process::id())),
        started,
    };
    Ok((workload, run))
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Pin the environment: no injected faults, and the library's own
    // `sickle_obs` tracing stays off in both runs.
    std::env::remove_var("SICKLE_FAULT_PLAN");
    std::env::remove_var("SICKLE_TRACE");

    let (workload, run) = match parse_args(std::env::args().skip(1), started) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = report::environment(run.seed, workload.name());
    println!("# env {env}");
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }

    let mut ledger = Ledger::default();
    let mut metrics = Metrics::new(run.trace);
    if run.trace {
        trace::install();
        trace::set_recording(true);
    }
    match workload {
        Workload::Curate => curate::run(&run, &mut ledger, &mut metrics),
        Workload::TrainMaxent => train::run(&train::maxent(), &run, &mut ledger, &mut metrics),
        Workload::TrainDenseResim => {
            train::run(&train::dense_resim(), &run, &mut ledger, &mut metrics)
        }
    }
    let removed = std::fs::remove_dir_all(&run.dir);
    ledger.op("removing the run's stores", removed);
    if run.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        let written = trace::write_jsonl(&path, &env, &trace::take());
        ledger.op("writing the trace", written);
    }

    for problem in &ledger.problems {
        eprintln!("{problem}");
    }
    let correct = ledger.ok() && metrics.complete();
    println!(
        "{}",
        report::result_line(correct, ledger.attempted, ledger.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
