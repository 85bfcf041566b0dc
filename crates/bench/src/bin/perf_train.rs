//! Machine-readable training-throughput baseline, emitted as
//! `BENCH_train_throughput.json` (see DESIGN.md §11 for the schema).
//!
//! Three measurements, each with an enforced budget (nonzero exit on
//! violation, so CI catches regressions):
//!
//! - **GEMM kernels**: naive serial vs blocked+packed on the model's real
//!   shapes and on the 256³ reference — blocked must be ≥ 2× at 256³.
//! - **End-to-end training step**: the fig8 MLP-Transformer config
//!   (64 sampled tokens → 16³ cube reconstruction, batch 4) stepped with
//!   the old path (naive GEMM + fresh tape per step) and the new path
//!   (blocked GEMM + arena-reused tape) — new must be ≥ 1.5× samples/sec.
//! - **Steady-state allocations**: a counting global allocator proves the
//!   new path performs zero tensor-sized heap allocations per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use serde::Serialize;
use sickle_bench::report::{Better, Report};
use sickle_nn::gemm;
use sickle_nn::optim::Adam;
use sickle_nn::{flops, Tape};
use sickle_simd::{set_kernel, Kernel};
use sickle_train::models::Model;
use sickle_train::{Batch, BatchShape, TokenTransformer};

/// Tensor-sized allocation threshold: the smallest recurring activation in
/// the fig8 model is tokens × dim × 4 = 8 KiB; per-step bookkeeping
/// (rayon job headers, node-index groups) stays well under this.
const LARGE: usize = 4096;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static TRACKING: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) != 0 && layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// fig8 reconstruction config: 64 sampled point tokens per 16³ cube.
const TOKENS: usize = 64;
const FEATURES: usize = 4;
const OUTPUTS: usize = 16 * 16 * 16;
const BATCH: usize = 4;

#[derive(Serialize)]
struct GemmResult {
    shape: String,
    layout: String,
    gflops_naive: f64,
    gflops_blocked: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct E2eResult {
    config: String,
    tokens: usize,
    features: usize,
    outputs: usize,
    batch: usize,
    steps: usize,
    samples_per_sec_old: f64,
    samples_per_sec_new: f64,
    gflops_old: f64,
    gflops_new: f64,
}

fn pseudo(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f32) / (1u64 << 31) as f32;
            (u - 0.5) * 2.0 * scale
        })
        .collect()
}

/// Mean ns/iter of `f` over enough iterations to fill ~0.25 s.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    let iters = ((0.25 / once.max(1e-9)) as usize).clamp(3, 2000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e9
}

fn bench_gemm(m: usize, k: usize, n: usize, nt: bool) -> GemmResult {
    let a = pseudo(11, m * k, 0.1);
    let b = pseudo(13, k * n, 0.1);
    let mut c = vec![0.0f32; m * n];
    let fl = (2 * m * k * n) as f64;
    let (ns_naive, ns_blocked) = if nt {
        // B stored (n, k) for the NT layout.
        let bt = pseudo(13, n * k, 0.1);
        (
            time_ns(|| {
                gemm::naive_matmul_nt_into(&mut c, &a, &bt, m, k, n, false);
                std::hint::black_box(&mut c);
            }),
            time_ns(|| {
                gemm::matmul_nt_into(&mut c, &a, &bt, m, k, n, false);
                std::hint::black_box(&mut c);
            }),
        )
    } else {
        (
            time_ns(|| {
                gemm::naive_matmul_into(&mut c, &a, &b, m, k, n, false);
                std::hint::black_box(&mut c);
            }),
            time_ns(|| {
                gemm::matmul_into(&mut c, &a, &b, m, k, n, false);
                std::hint::black_box(&mut c);
            }),
        )
    };
    let layout = if nt { "NT" } else { "NN" };
    let r = GemmResult {
        shape: format!("{m}x{k}x{n}"),
        layout: layout.into(),
        gflops_naive: fl / ns_naive,
        gflops_blocked: fl / ns_blocked,
        speedup: ns_naive / ns_blocked,
    };
    println!(
        "  gemm {layout} {:<14} naive {:>7.2} GF/s  blocked {:>7.2} GF/s  {:>5.2}x",
        r.shape, r.gflops_naive, r.gflops_blocked, r.speedup
    );
    r
}

fn fig8_batch() -> Batch {
    let shape = BatchShape {
        batch: BATCH,
        tokens: TOKENS,
        features: FEATURES,
        outputs: OUTPUTS,
    };
    Batch {
        inputs: pseudo(17, BATCH * TOKENS * FEATURES, 1.0),
        targets: pseudo(19, BATCH * OUTPUTS, 1.0),
        shape,
    }
}

fn fig8_model(seed: u64) -> TokenTransformer {
    TokenTransformer::mlp_transformer(TOKENS, FEATURES, 32, 1, OUTPUTS, seed)
}

/// One optimizer step on `batch` through `tape` (reused or fresh-per-call).
fn train_step(tape: &mut Tape, model: &mut TokenTransformer, opt: &mut Adam, batch: &Batch) {
    tape.reset();
    let loss = model.loss_on_batch(tape, batch);
    std::hint::black_box(tape.value(loss)[0]);
    tape.backward(loss);
    tape.accumulate_grads(model.store_mut());
    opt.step(model.store_mut());
    model.store_mut().zero_grads();
}

/// Times `steps` full training steps, returning (samples/sec, GFLOP/s).
fn run_e2e(steps: usize, reuse_tape: bool, kernel: Kernel, batch: &Batch) -> (f64, f64) {
    set_kernel(kernel);
    let mut model = fig8_model(5);
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();
    // Warmup: populate the arena and optimizer moments.
    for _ in 0..2 {
        train_step(&mut tape, &mut model, &mut opt, batch);
    }
    flops::reset();
    let start = Instant::now();
    for _ in 0..steps {
        if reuse_tape {
            train_step(&mut tape, &mut model, &mut opt, batch);
        } else {
            let mut fresh = Tape::new();
            train_step(&mut fresh, &mut model, &mut opt, batch);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let fl = flops::reset() as f64;
    set_kernel(Kernel::Optimized);
    ((steps * BATCH) as f64 / secs, fl / secs / 1e9)
}

/// Counts tensor-sized allocations per steady-state step on the new path.
fn count_allocs_per_step(steps: usize, batch: &Batch) -> f64 {
    set_kernel(Kernel::Optimized);
    let mut model = fig8_model(5);
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();
    for _ in 0..2 {
        train_step(&mut tape, &mut model, &mut opt, batch);
    }
    LARGE_ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(1, Ordering::SeqCst);
    for _ in 0..steps {
        train_step(&mut tape, &mut model, &mut opt, batch);
    }
    TRACKING.store(0, Ordering::SeqCst);
    LARGE_ALLOCS.load(Ordering::SeqCst) as f64 / steps as f64
}

fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();
    println!(
        "perf_train: {} threads, fig8 config {TOKENS} tokens x {FEATURES} features -> {OUTPUTS} outputs, batch {BATCH}",
        rayon::current_num_threads()
    );

    let gemm_results = vec![
        bench_gemm(256, 256, 256, false),
        bench_gemm(256, 256, 256, true),
        bench_gemm(64, 32, 32, false),    // MLP hidden
        bench_gemm(64, 32, 64, false),    // MLP expand
        bench_gemm(64, 8, 64, true),      // attention scores (per head)
        bench_gemm(256, 32, 4096, false), // output projection (batch x tokens rows)
    ];

    let batch = fig8_batch();
    let steps = 40;
    let (sps_old, gf_old) = run_e2e(steps, false, Kernel::Naive, &batch);
    let (sps_new, gf_new) = run_e2e(steps, true, Kernel::Optimized, &batch);
    let allocs = count_allocs_per_step(8, &batch);
    let e2e_speedup = sps_new / sps_old;
    println!(
        "  e2e old {sps_old:.1} samples/s ({gf_old:.2} GF/s)  new {sps_new:.1} samples/s \
         ({gf_new:.2} GF/s)  {e2e_speedup:.2}x  allocs/step {allocs:.2}"
    );

    let mut report = Report::new("train_throughput");
    report
        .metric(
            "gemm_256_nn_speedup",
            gemm_results[0].speedup,
            "x",
            Better::Higher,
        )
        .budget(2.0);
    report
        .metric("e2e_speedup", e2e_speedup, "x", Better::Higher)
        .budget(1.5);
    // Allocations of at least `LARGE` bytes per steady-state step.
    report
        .metric("large_allocs_per_step", allocs, "allocs", Better::Lower)
        .budget(0.0);
    report.detail("threads", rayon::current_num_threads());
    report.detail("gemm", gemm_results);
    report.detail(
        "e2e",
        E2eResult {
            config: "fig8_mlp_transformer".into(),
            tokens: TOKENS,
            features: FEATURES,
            outputs: OUTPUTS,
            batch: BATCH,
            steps,
            samples_per_sec_old: sps_old,
            samples_per_sec_new: sps_new,
            gflops_old: gf_old,
            gflops_new: gf_new,
        },
    );
    report.finish()
}
