//! `train-maxent` and `train-dense-resim`: the `train.py` phase.
//!
//! Set-up generates a seeded synthetic 128³ stratified snapshot, curates
//! it into a shard store (256 of its 512 16³ cubes), serves the store over
//! loopback, and connects a `RemoteDataset`. A timed pass then trains the
//! fig8 MLP-Transformer for 16 epochs of 64 batches (1024 steps); a step
//! is one batch fetch plus forward, backward and optimizer. The two workloads do the same
//! `nn` work and differ only in the store read path:
//!
//! - `train-maxent`: `Hmaxent-Xmaxent`, identity codec, default cache —
//!   the working set stays cached, so `nn` does nearly all the work;
//! - `train-dense-resim`: `Hrandom-Xfull` coded with resim and a 1 MiB
//!   cache, far below the decoded working set, so every epoch decodes and
//!   re-simulates every shard again (with prefetch competing with GEMM).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_bench::workloads::{fig8_cases, sampling_config};
use sickle_core::pipeline::SamplingOutput;
use sickle_field::{Dataset, DatasetMeta, SampleSet};
use sickle_hpc::executor::{run_dataset_with_ranks, RetryPolicy};
use sickle_hpc::fault::FaultInjector;
use sickle_nn::optim::Adam;
use sickle_nn::Tape;
use sickle_store::batching::tensorize_set;
use sickle_store::{
    serve, set_key, ClientConfig, Codec, ServeConfig, ServerHandle, ShardStore, StatsSnapshot,
    StoreClient, StoreConfig,
};
use sickle_train::models::{Model, TokenTransformer};
use sickle_train::{Batch, RemoteDataset, TensorData};

use crate::report::{self, Metrics};
use crate::{inputs, stats, trace, Ledger, PassWall, Run};

const SNAPSHOT_N: usize = 128;
const CUBE_EDGE: usize = 16;
const CUBES: usize = 256;
const TOKENS: usize = 64;
const BATCH: usize = 4;
const EPOCHS: usize = 16;
/// fig8 MLP-Transformer width and depth, and its learning rate.
const DIM: usize = 32;
const DEPTH: usize = 1;
const LR: f32 = 1e-3;
/// Snapshot generations and curate-serve-connect set-ups per run;
/// `setup_s` is the median of the first plus the median of the second.
const GENERATIONS: usize = 3;
const SETUPS: usize = 5;

/// What distinguishes the two train workloads.
pub struct Spec {
    case: &'static str,
    codec: Codec,
    cache_bytes: usize,
}

/// `Hmaxent-Xmaxent`, identity shards, default cache.
pub fn maxent() -> Spec {
    Spec {
        case: "Hmaxent-Xmaxent",
        codec: Codec::Identity,
        cache_bytes: StoreConfig::default().cache_bytes,
    }
}

/// `Hrandom-Xfull`, resim shards, a 1 MiB cache.
pub fn dense_resim() -> Spec {
    Spec {
        case: "Hrandom-Xfull",
        codec: Codec::resim_default(),
        cache_bytes: 1 << 20,
    }
}

/// The seeded snapshot as a one-snapshot SST dataset whose features are
/// `u, v, w, r, pv`, clustered on `pv`.
fn dataset(seed: u64) -> Dataset {
    let meta = DatasetMeta::new(
        "SST-synthetic",
        "synthetic stratified turbulence snapshot",
        "pv",
        &["u", "v", "w", "r"],
        &["pv"],
    );
    let mut d = Dataset::new(meta);
    d.push(inputs::train_snapshot(SNAPSHOT_N, seed));
    d
}

/// A curated store being served, with the trainer's connection to it.
struct Served {
    output: SamplingOutput,
    root: PathBuf,
    server: ServerHandle,
    remote: RemoteDataset,
}

/// Set-up after generation: curate the snapshot into a store under
/// `root`, serve the store on loopback with one worker per core, and
/// connect the trainer.
fn set_up(
    spec: &Spec,
    dataset: &Dataset,
    seed: u64,
    ranks: usize,
    root: &Path,
    ledger: &mut Ledger,
) -> Option<Served> {
    let _setup = trace::span("setup");
    let (_, cube, point) = fig8_cases()
        .into_iter()
        .find(|c| c.0 == spec.case)
        .expect("spec names a fig8 case");
    let cfg = sampling_config(
        dataset,
        cube,
        point,
        CUBE_EDGE,
        CUBES,
        inputs::subseed(seed, 2),
    );
    let sampled = {
        let _span = trace::span("setup.hpc");
        run_dataset_with_ranks(
            dataset,
            &cfg,
            ranks,
            &FaultInjector::none(),
            &RetryPolicy::default(),
        )
    };
    let output = ledger.op("sampling", sampled)?;
    let store_cfg = StoreConfig {
        cache_bytes: spec.cache_bytes,
        ..StoreConfig::default()
    };
    let store = {
        let _span = trace::span("setup.ingest");
        ShardStore::ingest_with(root, &output, store_cfg, |_| spec.codec)
    };
    let store = ledger.op("ingest", store)?;
    let _serve = trace::span("setup.serve");
    let server = serve(
        Arc::new(store),
        ServeConfig {
            threads: ranks,
            ..ServeConfig::default()
        },
    );
    let server = ledger.op("serve", server)?;
    let remote = RemoteDataset::connect(server.addr().to_string(), TOKENS, ClientConfig::default());
    let remote = ledger.op("connect", remote)?;
    Some(Served {
        output,
        root: root.to_path_buf(),
        server,
        remote,
    })
}

fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    inputs::subseed(seed, 100 + epoch as u64)
}

/// Output check, outside the timed region: epoch 0 streamed through
/// `RemoteDataset` is bit-identical to `TensorData::batches` over the
/// same sets — the curated sets for identity shards, the sets a freshly
/// opened store decodes for lossy ones.
fn check_epoch0(spec: &Spec, served: &mut Served, seed: u64, ledger: &mut Ledger) {
    let _span = trace::span("check");
    let mut keyed: Vec<_> = served
        .output
        .sets
        .iter()
        .flat_map(|sets| sets.iter().enumerate().map(|(p, s)| (set_key(s, p), s)))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let reopened = if spec.codec == Codec::Identity {
        None
    } else {
        let Some(store) = ledger.op(
            "reopen",
            ShardStore::open(&served.root, StoreConfig::default()),
        ) else {
            return;
        };
        Some(store)
    };
    let (mut inputs, mut targets) = (Vec::new(), Vec::new());
    for (key, set) in keyed {
        let decoded;
        let set: &SampleSet = match &reopened {
            None => set,
            Some(store) => match ledger.op("decode", store.get(key)) {
                Some(s) => {
                    decoded = s;
                    &decoded
                }
                None => return,
            },
        };
        let Some((i, t)) = ledger.op("tensorize", tensorize_set(set, TOKENS)) else {
            return;
        };
        inputs.extend(i);
        targets.extend(t);
    }
    let features = served.remote.features;
    let reference = TensorData::new(inputs, targets, TOKENS, features, features);
    let local = reference.batches(BATCH, &mut StdRng::seed_from_u64(epoch_seed(seed, 0)));
    let Some(remote) = ledger.op("epoch 0", served.remote.epoch(epoch_seed(seed, 0), BATCH)) else {
        return;
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let same = |a: &Batch, b: &Batch| {
        a.shape == b.shape
            && bits(&a.inputs) == bits(&b.inputs)
            && bits(&a.targets) == bits(&b.targets)
    };
    ledger.check(
        local.len() == remote.len() && local.iter().zip(&remote).all(|(a, b)| same(a, b)),
        || "epoch 0 through RemoteDataset differs from TensorData::batches".into(),
    );
}

/// One timed pass's raw measurements.
struct PassResult {
    wall: PassWall,
    epoch_s: Vec<f64>,
    step_s: Vec<f64>,
    fetch_s: Vec<f64>,
    final_loss: f64,
    flops: u64,
}

/// One pass: a freshly initialized model trained for `EPOCHS` epochs from
/// the remote dataset.
fn train_pass(
    served: &mut Served,
    seed: u64,
    traced: bool,
    ledger: &mut Ledger,
) -> Option<PassResult> {
    let features = served.remote.features;
    let batches = served.remote.num_batches(BATCH);
    let mut model = TokenTransformer::mlp_transformer(
        TOKENS,
        features,
        DIM,
        DEPTH,
        features,
        inputs::subseed(seed, 3),
    );
    let mut opt = Adam::new(LR);
    let mut tape = Tape::new();
    let mut epoch_s = Vec::with_capacity(EPOCHS);
    let mut step_s = Vec::with_capacity(EPOCHS * batches);
    let mut fetch_s = Vec::with_capacity(EPOCHS * batches);
    let mut epoch_loss = 0.0f64;
    let flops0 = sickle_nn::flops::total();

    let t0 = Instant::now();
    let pass_span = trace::span("pass");
    for epoch in 0..EPOCHS {
        let spec_seed = epoch_seed(seed, epoch);
        let epoch_start = Instant::now();
        epoch_loss = 0.0;
        for index in 0..batches {
            let t = Instant::now();
            let batch = {
                let _span = trace::span("store.fetch");
                served.remote.batch(spec_seed, BATCH, index)
            };
            let batch = ledger.op("batch fetch", batch)?;
            fetch_s.push(t.elapsed().as_secs_f64());
            let (loss, value) = {
                let _span = trace::span("nn.forward");
                tape.reset();
                let loss = model.loss_on_batch(&mut tape, &batch);
                (loss, tape.value(loss)[0])
            };
            {
                let _span = trace::span("nn.backward");
                tape.backward(loss);
                tape.accumulate_grads(model.store_mut());
            }
            {
                let _span = trace::span("nn.optim");
                opt.step(model.store_mut());
                model.store_mut().zero_grads();
            }
            step_s.push(t.elapsed().as_secs_f64());
            ledger.check(value.is_finite(), || {
                format!("loss {value} at epoch {epoch} batch {index}")
            });
            epoch_loss += value as f64;
        }
        epoch_s.push(epoch_start.elapsed().as_secs_f64());
    }
    drop(pass_span);
    Some(PassResult {
        wall: PassWall {
            secs: t0.elapsed().as_secs_f64(),
            traced,
        },
        epoch_s,
        step_s,
        fetch_s,
        final_loss: epoch_loss / batches as f64,
        flops: sickle_nn::flops::total() - flops0,
    })
}

/// Server counters over one traced pass, from `StoreClient::stats`.
#[derive(Default)]
struct ServeDelta {
    requests: f64,
    bytes_out: f64,
    hits: f64,
    misses: f64,
    shed: f64,
}

impl ServeDelta {
    fn add(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.requests += (after.requests_total - before.requests_total) as f64;
        self.bytes_out += (after.bytes_out - before.bytes_out) as f64;
        self.hits += (after.cache_hits - before.cache_hits) as f64;
        self.misses += (after.cache_misses - before.cache_misses) as f64;
        self.shed += (after.requests_shed - before.requests_shed) as f64;
    }
}

/// Generates the workload's snapshot, adding the time it took to `times`.
fn generate(seed: u64, times: &mut Vec<f64>) -> Dataset {
    let t = Instant::now();
    let _span = trace::span("setup.inputs");
    let generated = dataset(seed);
    times.push(t.elapsed().as_secs_f64());
    generated
}

/// A train workload.
pub fn run(spec: &Spec, run: &Run, ledger: &mut Ledger, metrics: &mut Metrics) {
    // A set-up is one generation followed by one curate-serve-connect;
    // the two are timed apart so that the short store writes can be
    // repeated more often than the long generation.
    let mut generations = Vec::with_capacity(GENERATIONS);
    let dataset = generate(run.seed, &mut generations);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        // The previous set-up's server stops and its store goes first.
        if let Some(old) = served.take() {
            let Served { root, server, .. } = old;
            drop(server);
            ledger.op("removing a store", std::fs::remove_dir_all(root));
        }
        let t = Instant::now();
        served = set_up(
            spec,
            &dataset,
            run.seed,
            run.ranks,
            &run.dir.join(format!("store{i}")),
            ledger,
        );
        setups.push(t.elapsed().as_secs_f64());
        if served.is_none() {
            return;
        }
        eprintln!("set-up {i}: {:.3} s", setups[i]);
    }
    // The trainer reads only the store from here on.
    drop(dataset);
    let mut served = served.expect("set-up ran");
    check_epoch0(spec, &mut served, run.seed, ledger);
    let mut stats_client =
        StoreClient::new(served.server.addr().to_string(), ClientConfig::default());

    let started = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut serve_delta = ServeDelta::default();
    while run.more(started, passes.len()) {
        let traced = run.traced_pass(passes.len());
        let mut stats = |ledger: &mut Ledger| {
            let _span = trace::span("store.stats");
            ledger.op("stats", stats_client.stats())
        };
        let before = if traced { stats(ledger) } else { None };
        let result = run.pass(passes.len(), |traced| {
            train_pass(&mut served, run.seed, traced, ledger)
        });
        let Some(result) = result else { return };
        if let Some(before) = before {
            if let Some(after) = stats(ledger) {
                serve_delta.add(&before, &after);
            }
        }
        if let Some(first) = passes.first() {
            ledger.check(
                result.final_loss.to_bits() == first.final_loss.to_bits(),
                || {
                    format!(
                        "final loss {} differs from the first pass's {}",
                        result.final_loss, first.final_loss
                    )
                },
            );
        }
        eprintln!(
            "pass {}: {:.3} s{}",
            passes.len(),
            result.wall.secs,
            if traced { " (traced)" } else { "" }
        );
        passes.push(result);
    }

    // The other generations run last. Freeing a snapshot changes how the
    // allocator places later allocations, and so the peak RSS; the run up
    // to here has made one, as a user's run would.
    if !metrics.traced() {
        metrics.set("peak_rss_mb", report::peak_rss_mb());
    }
    while generations.len() < GENERATIONS {
        drop(generate(run.seed, &mut generations));
    }

    let walls: Vec<PassWall> = passes.iter().map(|p| p.wall).collect();
    if !metrics.traced() {
        let steps: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.step_s.iter().copied())
            .collect();
        // Whole-epoch throughput, so slow steps count as well as typical
        // ones; the median over every epoch of the run drops an epoch
        // that interference from outside the process slowed.
        let batches = served.remote.num_batches(BATCH);
        let rates: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.epoch_s.iter())
            .map(|secs| (BATCH * batches) as f64 / secs)
            .collect();
        let samples_per_s = stats::median(&rates);
        metrics.set(
            "setup_s",
            stats::median(&generations) + stats::median(&setups),
        );
        metrics.set("samples_per_s", samples_per_s);
        metrics.set("mpts_per_s", samples_per_s * CUBE_EDGE.pow(3) as f64 / 1e6);
        metrics.set("step_ms_p50", 1e3 * stats::percentile(&steps, 50.0));
        if let Some(bytes) = ledger.op("sizing the store", report::dir_bytes(&served.root)) {
            metrics.set("stored_mb", bytes as f64 / 1e6);
        }
        return;
    }

    let layer = crate::record_trace_summary(metrics, run, &walls);
    let traced: Vec<&PassResult> = passes.iter().filter(|p| p.wall.traced).collect();
    let count = traced.len() as f64;
    let self_s = |name: &str| layer.get(name).copied().unwrap_or(0.0) / count;
    let per_setup = |name: &str| layer.get(name).copied().unwrap_or(0.0) / SETUPS as f64;
    metrics.set(
        "setup.inputs_s",
        layer.get("setup.inputs").copied().unwrap_or(0.0) / GENERATIONS as f64,
    );
    metrics.set("setup.hpc_s", per_setup("setup.hpc"));
    metrics.set("setup.ingest_s", per_setup("setup.ingest"));
    metrics.set("setup.serve_s", per_setup("setup.serve"));
    let fetches: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.fetch_s.iter().copied())
        .collect();
    let steps: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.step_s.iter().copied())
        .collect();
    metrics.set("loop.step_ms_p90", 1e3 * stats::percentile(&steps, 90.0));
    metrics.set("store.fetch_busy_s", self_s("store.fetch"));
    metrics.set(
        "store.fetch_ms_p50",
        1e3 * stats::percentile(&fetches, 50.0),
    );
    metrics.set(
        "store.fetch_ms_p90",
        1e3 * stats::percentile(&fetches, 90.0),
    );
    metrics.set("store.requests", serve_delta.requests / count);
    metrics.set("store.bytes_out", serve_delta.bytes_out / count);
    let lookups = serve_delta.hits + serve_delta.misses;
    metrics.set(
        "store.cache_hit_rate",
        if lookups > 0.0 {
            serve_delta.hits / lookups
        } else {
            0.0
        },
    );
    // With one client, every request the server sheds is one Busy retry
    // of that client (`RemoteDataset` keeps its `StoreClient` private).
    metrics.set("store.busy_retries", serve_delta.shed / count);
    let nn_busy = self_s("nn.forward") + self_s("nn.backward") + self_s("nn.optim");
    let gflop = traced.iter().map(|p| p.flops as f64).sum::<f64>() / count / 1e9;
    metrics.set("nn.forward_busy_s", self_s("nn.forward"));
    metrics.set("nn.backward_busy_s", self_s("nn.backward"));
    metrics.set("nn.optim_busy_s", self_s("nn.optim"));
    metrics.set("nn.gflop", gflop);
    metrics.set("nn.gflop_per_s", gflop / nn_busy);
    // Deterministic per seed (checked above), so it moves only when the
    // numerics change.
    metrics.set("nn.final_loss", passes[0].final_loss);
}
