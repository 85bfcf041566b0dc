//! Machine-readable cost of fault tolerance, emitted as
//! `BENCH_fault_overhead.json` (see DESIGN.md §9 for the budget).
//!
//! Measures, on a seeded 32³ synthetic dataset:
//! - `serial` — the plain `run_dataset` pipeline (the reference time);
//! - `ranked_8` — the resilient 8-rank executor with no faults;
//! - `ranked_8_kill2` — the same run with 2 of 8 ranks killed mid-snapshot
//!   (retry + work redistribution on the critical path);
//! - `checkpoint_cold` — `run_dataset_resumable` into a fresh directory
//!   (every shard and manifest written);
//! - `checkpoint_resume` — a second resumable run over the same directory
//!   (every snapshot restored from its shard).
//!
//! The acceptance budget is `checkpoint_overhead_pct <= 10` — writing
//! checkpoints must cost at most 10% of the serial run. The binary also
//! re-verifies the determinism contract (killed-rank and resumed outputs
//! bit-identical to serial) and exits nonzero when it is violated.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Serialize;
use sickle_bench::report::{Better, Report};
use sickle_cfd::synth::{generate, SynthConfig};
use sickle_core::pipeline::{
    run_dataset, run_dataset_resumable, CubeMethod, PointMethod, SamplingConfig, SamplingOutput,
    TemporalMethod,
};
use sickle_field::{Dataset, DatasetMeta};
use sickle_hpc::{run_dataset_with_ranks, FaultInjector, FaultPlan, RetryPolicy};

const RANKS: usize = 8;
const SNAPSHOTS: usize = 3;
const REPS: usize = 3;

#[derive(Serialize)]
struct Stage {
    name: String,
    secs: f64,
}

fn dataset() -> Dataset {
    let synth = SynthConfig {
        nx: 32,
        ny: 32,
        nz: 32,
        ..SynthConfig::default()
    };
    let meta = DatasetMeta::new("synth", "fault overhead bench", "u", &["u", "v", "w"], &[]);
    let mut d = Dataset::new(meta);
    for s in 0..SNAPSHOTS {
        let mut snap = generate(&synth, 4242 + s as u64);
        snap.time = s as f64;
        d.push(snap);
    }
    d
}

fn config() -> SamplingConfig {
    SamplingConfig {
        hypercubes: CubeMethod::MaxEnt,
        num_hypercubes: 16,
        cube_edge: 8,
        method: PointMethod::MaxEnt {
            num_clusters: 5,
            bins: 32,
        },
        num_samples: 51,
        cluster_var: "u".to_string(),
        feature_vars: vec!["u".to_string(), "v".to_string(), "w".to_string()],
        seed: 7,
        temporal: TemporalMethod::All,
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_rounds: 4,
        backoff: Duration::from_millis(1),
        multiplier: 1.0,
    }
}

/// Best-of-`REPS` wall time of `f`, so one scheduler hiccup cannot blow the
/// overhead budget, plus the last run's output for identity checks.
fn time_stage<T>(name: &str, mut f: impl FnMut() -> T) -> (Stage, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    println!("  {name:<20} {:>10.1} ms", best * 1e3);
    (
        Stage {
            name: name.to_string(),
            secs: best,
        },
        last.expect("REPS > 0"),
    )
}

fn outputs_identical(a: &SamplingOutput, b: &SamplingOutput) -> bool {
    a.sets.len() == b.sets.len()
        && a.sets.iter().zip(&b.sets).all(|(sa, sb)| {
            sa.len() == sb.len()
                && sa.iter().zip(sb).all(|(x, y)| {
                    x.hypercube == y.hypercube
                        && x.indices == y.indices
                        && x.features.data == y.features.data
                })
        })
}

fn scratch_dir(fresh: bool) -> PathBuf {
    let dir = std::env::temp_dir().join("sickle_perf_fault_overhead");
    if fresh {
        std::fs::remove_dir_all(&dir).ok();
    }
    dir
}

fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();
    let d = dataset();
    let cfg = config();
    println!(
        "perf_fault_overhead: {SNAPSHOTS} x 32^3 snapshots, {} cubes, {RANKS} ranks",
        cfg.num_hypercubes
    );

    let (serial, serial_out) = time_stage("serial", || run_dataset(&d, &cfg));
    let (ranked, _) = time_stage("ranked_8", || {
        run_dataset_with_ranks(&d, &cfg, RANKS, &FaultInjector::none(), &fast_retry())
            .expect("fault-free ranked run")
    });
    let kill_plan = FaultPlan::parse("kill@2:1,kill@5:1").expect("static plan parses");
    let (killed, killed_out) = time_stage("ranked_8_kill2", || {
        run_dataset_with_ranks(
            &d,
            &cfg,
            RANKS,
            &FaultInjector::new(kill_plan.clone()),
            &fast_retry(),
        )
        .expect("2 of 8 killed must recover")
    });
    let (cold, _) = time_stage("checkpoint_cold", || {
        run_dataset_resumable(&d, &cfg, &scratch_dir(true)).expect("checkpointed run")
    });
    let (resume, resume_out) = time_stage("checkpoint_resume", || {
        run_dataset_resumable(&d, &cfg, &scratch_dir(false)).expect("resumed run")
    });

    let checkpoint_overhead_pct = (cold.secs - serial.secs) / serial.secs * 100.0;
    let recovery_overhead_pct = (killed.secs - ranked.secs) / ranked.secs * 100.0;
    let resume_speedup = serial.secs / resume.secs;
    let bit_identical =
        outputs_identical(&serial_out, &killed_out) && outputs_identical(&serial_out, &resume_out);
    println!("  checkpoint overhead: {checkpoint_overhead_pct:+.1}%");
    println!("  recovery overhead:   {recovery_overhead_pct:+.1}%");
    println!("  resume speedup:      {resume_speedup:.1}x");
    println!("  bit identical:       {bit_identical}");

    let mut report = Report::new("fault_overhead");
    report
        .metric(
            "checkpoint_overhead_pct",
            checkpoint_overhead_pct,
            "%",
            Better::Lower,
        )
        .budget(10.0);
    report.check("bit_identical", bit_identical);
    report.detail("ranks", RANKS);
    report.detail("snapshots", SNAPSHOTS);
    report.detail("reps", REPS);
    report.detail("stages", vec![serial, ranked, killed, cold, resume]);
    report.detail("recovery_overhead_pct", recovery_overhead_pct);
    report.detail("resume_speedup", resume_speedup);
    report.finish()
}
