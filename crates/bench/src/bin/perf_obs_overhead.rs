//! Tracing-overhead baseline for the observability layer, emitted as
//! `BENCH_obs_overhead.json` (see DESIGN.md for the `BENCH_*.json`
//! conventions).
//!
//! Measures three instrumented hot paths — a `SpectralSolver` RK2 step,
//! a small `run_dataset` sampling pass, and a warm-cache loopback serving
//! epoch through the full `sickle-store` data plane — with tracing
//! disabled and enabled, and reports:
//!
//! - `disabled_overhead_pct`: the cost of the dormant instrumentation
//!   relative to an uninstrumented build, estimated as
//!   `spans × disabled-span cost / workload time` (a disabled span is one
//!   relaxed atomic load, measured directly). Budget: ≤ 1%.
//! - `enabled_overhead_pct`: the measured slowdown with event recording
//!   on. Budget: ≤ 10% for the compute workloads, ≤ 5% for the serve
//!   path (the per-request spans, queue-wait/encode histograms, and
//!   trace-context trailer must stay cheap relative to real socket I/O).
//!
//! Exits nonzero when any workload violates its budget, so CI catches
//! instrumentation that has grown too heavy.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use sickle_bench::report::{Better, Report};
use sickle_cfd::{SpectralConfig, SpectralSolver};
use sickle_core::pipeline::{run_dataset, CubeMethod, PointMethod};
use sickle_store::batching::{batch_keys, num_batches, BatchSpec};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;

/// One workload measured with tracing off and on.
#[derive(Serialize)]
struct WorkloadResult {
    name: String,
    spans_per_iter: f64,
    disabled_ns_per_iter: f64,
    enabled_ns_per_iter: f64,
}

const ROUNDS: usize = 5;

/// Picks an iteration count sizing one measurement round to ~60 ms
/// (after a warmup call).
fn calibrate_iters(f: &mut impl FnMut()) -> usize {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    ((0.06 / once.max(1e-9)) as usize).clamp(3, 1000)
}

/// Mean ns/iteration over one round of `iters` calls.
fn time_round(f: &mut impl FnMut(), iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e9
}

/// Cost of one `span!` while tracing is disabled (one relaxed atomic
/// load + an inert guard), measured over a tight batch.
fn disabled_span_ns() -> f64 {
    assert!(!sickle_obs::enabled());
    const BATCH: u32 = 100_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..BATCH {
            let g = sickle_obs::span!("obs.overhead.probe");
            std::hint::black_box(&g);
            std::hint::black_box(i);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }
    best
}

/// Times `f` with tracing off and on, declares the workload's two
/// overhead metrics on `report`, and returns the raw timings.
fn measure(
    report: &mut Report,
    name: &str,
    spans_per_iter: f64,
    span_ns: f64,
    enabled_budget_pct: f64,
    mut f: impl FnMut(),
) -> WorkloadResult {
    // Interleave disabled/enabled rounds and take the best of each mode:
    // the serve-path workload crosses real sockets, where a single pass is
    // at the mercy of scheduler noise larger than the effect under test.
    sickle_obs::set_enabled(false);
    let iters = calibrate_iters(&mut f);
    let mut disabled = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    for _ in 0..ROUNDS {
        sickle_obs::set_enabled(false);
        disabled = disabled.min(time_round(&mut f, iters));
        sickle_obs::set_enabled(true);
        enabled = enabled.min(time_round(&mut f, iters));
        sickle_obs::set_enabled(false);
        let _ = sickle_obs::drain(); // discard the recorded events
    }
    // The instrumentation cannot be compiled out at runtime, so the
    // disabled overhead is modeled from the measured per-span cost.
    let disabled_overhead_pct = 100.0 * spans_per_iter * span_ns / disabled;
    let enabled_overhead_pct = 100.0 * (enabled - disabled).max(0.0) / disabled;
    println!(
        "  {name:<24} disabled {disabled:>12.0} ns  enabled {enabled:>12.0} ns  overhead: \
         {disabled_overhead_pct:.4}% off / {enabled_overhead_pct:.2}% on (budget {enabled_budget_pct:.0}%)",
    );
    report
        .metric(
            format!("{name}.enabled_overhead_pct"),
            enabled_overhead_pct,
            "%",
            Better::Lower,
        )
        .budget(enabled_budget_pct)
        .floor(2.0);
    report
        .metric(
            format!("{name}.disabled_overhead_pct"),
            disabled_overhead_pct,
            "%",
            Better::Lower,
        )
        .budget(1.0)
        .floor(0.5);
    WorkloadResult {
        name: name.to_string(),
        spans_per_iter,
        disabled_ns_per_iter: disabled,
        enabled_ns_per_iter: enabled,
    }
}

/// Builds a small fixture store, serves it over loopback TCP, and returns
/// a closure streaming one warm-cache epoch per call — the serve-path
/// workload. The handle and temp root ride along so they outlive the
/// measurement.
fn serve_workload() -> (
    sickle_store::server::ServerHandle,
    std::path::PathBuf,
    impl FnMut(),
    f64,
) {
    const BATCH_SIZE: usize = 32;
    let root = std::env::temp_dir().join(format!("sickle_obs_overhead_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Realistically sized shards/batches: serving cost must be dominated
    // by batch assembly + socket I/O, as in production, not by the
    // per-request fixed costs a toy fixture would exaggerate.
    let out = small_output(2, 8, 4096);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest fixture");
    let keys = store.keys();
    let handle = serve(Arc::new(store), ServeConfig::default()).expect("bind loopback server");
    let addr = handle.addr();
    let mut client = StoreClient::new(
        addr.to_string(),
        ClientConfig {
            timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    );
    let per_epoch = num_batches(keys.len(), BATCH_SIZE);
    let mut epoch = 0u64;
    let f = move || {
        let spec = BatchSpec {
            seed: epoch,
            batch_size: BATCH_SIZE,
            tokens: 256,
        };
        epoch += 1;
        for i in 0..per_epoch {
            let batch = batch_keys(&keys, spec, i).expect("batch in range");
            std::hint::black_box(
                client
                    .tensors(spec.tokens, &batch, &[])
                    .expect("loopback batch"),
            );
        }
    };
    // Per request: client.request + serve.request + serve.encode +
    // serve.write = 4 spans (cache hits skip the disk-read/decode spans
    // on the warm path).
    (handle, root, f, 4.0 * per_epoch as f64)
}

fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();
    let mut report = Report::new("obs_overhead");

    let span_ns = disabled_span_ns();
    println!("  disabled span cost: {span_ns:.2} ns");

    let mut workloads = Vec::new();

    // Spectral step: cfd.step + 2 × (fft_inverse, nonlinear, buoyancy,
    // damp, projection) = 11 spans per iteration.
    let mut solver = SpectralSolver::new(SpectralConfig {
        n: 32,
        dt: 0.002,
        ..Default::default()
    });
    solver.init_taylor_green(1.0);
    workloads.push(measure(
        &mut report,
        "spectral_step_32",
        11.0,
        span_ns,
        10.0,
        || {
            solver.step();
            std::hint::black_box(solver.time());
        },
    ));

    // Sampling pass: run_dataset + temporal + snapshot + phase1 + 4 cubes
    // = 8 spans per iteration (counters excluded: they are cheaper).
    let sst = sickle_bench::workloads::sst_p1f4_small();
    let cfg = sickle_bench::workloads::sampling_config(
        &sst,
        CubeMethod::MaxEnt,
        PointMethod::MaxEnt {
            num_clusters: 5,
            bins: 32,
        },
        4,
        8,
        7,
    );
    let spans_per_run = (4.0 + 3.0) * sst.num_snapshots() as f64 + 2.0;
    workloads.push(measure(
        &mut report,
        "run_dataset_sst_small",
        spans_per_run,
        span_ns,
        10.0,
        || {
            std::hint::black_box(run_dataset(&sst, &cfg));
        },
    ));

    // Serve path: one warm-cache epoch over real loopback TCP, through
    // the instrumented server (per-request spans, queue-wait and encode
    // histograms, trace-context trailer). Budget: ≤ 5% enabled.
    let (handle, root, mut serve_epoch, serve_spans) = serve_workload();
    workloads.push(measure(
        &mut report,
        "serve_epoch_loopback",
        serve_spans,
        span_ns,
        5.0,
        &mut serve_epoch,
    ));
    drop(serve_epoch);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();

    report.detail("disabled_span_ns", span_ns);
    report.detail("workloads", workloads);
    report.finish()
}
