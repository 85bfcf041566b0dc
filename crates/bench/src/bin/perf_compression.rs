//! Shard-codec compression sweep, emitted as `BENCH_compression.json`
//! (schema in DESIGN.md §15).
//!
//! For every codec (identity, f16, bf16, u8, resim) over the same sampled
//! SST-P1F4 workload of dense 16³ cubes, measures:
//!
//! - `bytes_ratio` — decoded (index + f64 feature) bytes over bytes on
//!   disk. Budgets: u8 ≥ 3×, resim ≥ 6× (acceptance floors; both land
//!   well above them with affine index headers);
//! - `encode_mb_per_sec` / `decode_mb_per_sec` — codec transcode
//!   throughput in *logical* MiB (so codecs are comparable even though
//!   their on-disk byte counts differ). Resim decode includes the local
//!   solver sweeps;
//! - `cold_mb_per_sec` / `warm_mb_per_sec` — full store passes through
//!   `ShardStore::get` with a fresh cache vs. fully resident (warm reads
//!   never re-run reconstruction — the LRU caches decoded sets);
//! - `spectra_err` / `pdf_kl` — worst-feature energy-spectra relative-L2
//!   and phase-space-PDF KL on a full 32³ snapshot, against the same
//!   per-codec budgets `crates/codec/tests/accuracy.rs` enforces;
//! - `train_loss` / `train_delta_pct` — a fig8-style MLP-Transformer
//!   reconstruction run whose *inputs* come through the codec (targets
//!   stay ground truth), reported as loss delta vs. the identity (f32)
//!   baseline and budgeted per codec.
//!
//! Exits nonzero when any codec misses any budget so CI catches both
//! compression and accuracy regressions.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use sickle_bench::report::{Better, Report};
use sickle_bench::workloads;
use sickle_cfd::synth;
use sickle_codec::{decode_shard, encode_shard, Codec};
use sickle_core::pipeline::{run_dataset, CubeMethod, PointMethod, SamplingOutput};
use sickle_energy::MachineModel;
use sickle_field::points::{FeatureMatrix, SampleSet};
use sickle_field::snapshot::Snapshot;
use sickle_field::stats::{kl_divergence, Histogram};
use sickle_field::Dataset;
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_train::data::reconstruction_data;
use sickle_train::models::TokenTransformer;
use sickle_train::trainer::{train, TrainConfig};

const CUBE_EDGE: usize = 16;
const NUM_CUBES: usize = 8;
const TOKENS: usize = 64;
const EPOCHS: usize = 12;
const SEED: u64 = 8;
const WARM_REPS: usize = 20;
const PDF_BINS: usize = 100;

/// Per-codec budgets: `(codec, bytes-ratio floor, spectra budget, PDF KL
/// budget, |training loss delta| budget in percent)`. The spectra/KL
/// numbers are this workload's calibration of the synthetic-turbulence
/// budgets in `crates/codec/tests/accuracy.rs::budgets` (SST-P1F4 carries
/// derived features with wider dynamic range, so the narrow-mantissa
/// codecs sit a little higher here); the ratio floors for u8 and resim
/// are the repo's acceptance numbers. The ratio and KL budgets double as
/// `bench_diff` floors: ratios are byte arithmetic, not timing, so only a
/// codec or header regression can move them, and phase-space fidelity
/// must not quietly erode.
fn codec_budgets() -> Vec<(Codec, f64, f64, f64, f64)> {
    vec![
        // Identity is lossless: the tiny nonzero KL allowance is histogram
        // pmf-normalization noise, not signal loss.
        (Codec::Identity, 0.9, 1e-9, 1e-9, 1e-9),
        (Codec::F16, 2.5, 1e-3, 2e-2, 5.0),
        (Codec::Bf16, 2.5, 2e-2, 5e-2, 5.0),
        (Codec::U8Block, 3.0, 2e-2, 2e-2, 5.0),
        (Codec::resim_default(), 6.0, 0.35, 0.10, 10.0),
    ]
}

#[derive(Serialize)]
struct CodecReport {
    name: String,
    disk_bytes: usize,
    decoded_bytes: usize,
    encode_mb_per_sec: f64,
    decode_mb_per_sec: f64,
    cold_mb_per_sec: f64,
    warm_mb_per_sec: f64,
    train_loss: f64,
    train_delta_pct: f64,
}

/// Decoded (logical) bytes of a set: u64 index + f64 features per row.
fn logical_bytes(set: &SampleSet) -> usize {
    set.len() * (8 + 8 * set.features.dim())
}

/// The whole snapshot as one raster-ordered sample set, as in the codec
/// accuracy tests — full lattice for resim, full support for the PDFs.
fn full_set(snap: &Snapshot) -> SampleSet {
    let n = snap.num_points();
    let vidx = snap.var_indices(&snap.names.clone());
    let mut features = FeatureMatrix::with_capacity(snap.names.clone(), n);
    let mut row = vec![0.0; vidx.len()];
    for i in 0..n {
        snap.gather_point(&vidx, i, &mut row);
        features.push_row(&row);
    }
    SampleSet::new(features, (0..n).collect(), snap.time, 0)
}

fn spectra_err(snap: &Snapshot, orig: &[f64], recon: &[f64]) -> f64 {
    let eo = synth::measured_spectrum(&snap.grid, orig);
    let er = synth::measured_spectrum(&snap.grid, recon);
    let num: f64 = eo
        .iter()
        .zip(&er)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>();
    let den: f64 = eo.iter().map(|a| a * a).sum::<f64>();
    (num / den).sqrt()
}

fn pdf_kl(orig: &[f64], recon: &[f64]) -> f64 {
    let lo = orig.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = orig.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut ho = Histogram::new(lo, hi, PDF_BINS);
    let mut hr = Histogram::new(lo, hi, PDF_BINS);
    ho.extend(orig);
    hr.extend(recon);
    kl_divergence(&ho.pmf(), &hr.pmf())
}

/// Worst spectra error and PDF KL across all features of a full snapshot
/// pushed through one codec.
fn accuracy_of(snap: &Snapshot, codec: Codec) -> (f64, f64) {
    let set = full_set(snap);
    let bytes = encode_shard(std::slice::from_ref(&set), codec);
    let back = decode_shard(&bytes).expect("accuracy decode");
    let back = &back[0];
    let mut worst_spec: f64 = 0.0;
    let mut worst_kl: f64 = 0.0;
    for c in 0..set.features.dim() {
        let orig = set.features.column(c);
        let recon = back.features.column(c);
        worst_spec = worst_spec.max(spectra_err(snap, &orig, &recon));
        worst_kl = worst_kl.max(pdf_kl(&orig, &recon));
    }
    (worst_spec, worst_kl)
}

/// Fig8-style reconstruction training whose inputs come through `store`
/// (i.e. through the codec); targets stay ground truth from the snapshots.
fn train_loss(store: &ShardStore, dataset: &Dataset) -> f64 {
    let sets: Vec<SampleSet> = store
        .keys()
        .into_iter()
        .map(|k| (*store.get(k).expect("decoded set")).clone())
        .collect();
    let target = dataset.meta.output_vars[0].clone();
    let mut tensor = reconstruction_data(&sets, &dataset.snapshots, CUBE_EDGE, &target, TOKENS);
    tensor.standardize();
    let mut model = TokenTransformer::mlp_transformer(
        tensor.tokens,
        tensor.features,
        32,
        1,
        tensor.outputs,
        SEED,
    );
    let tcfg = TrainConfig {
        epochs: EPOCHS,
        batch: 4,
        lr: 1e-3,
        patience: 20,
        test_frac: 0.15,
        seed: SEED,
        ..Default::default()
    };
    let res = train(&mut model, &tensor, &tcfg, MachineModel::frontier_gcd());
    res.best_test as f64
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_bench_codec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();
    let mut report = Report::new("compression");

    println!("  generating SST-P1F4 workload (dense {CUBE_EDGE}\u{b3} cubes)...");
    let dataset = workloads::sst_p1f4_small();
    let cfg = workloads::sampling_config(
        &dataset,
        CubeMethod::MaxEnt,
        PointMethod::Full,
        CUBE_EDGE,
        NUM_CUBES,
        SEED,
    );
    let out: SamplingOutput = run_dataset(&dataset, &cfg);
    let sets: Vec<&SampleSet> = out.sets.iter().flatten().collect();
    let shards = sets.len();
    let decoded_bytes: usize = sets.iter().map(|s| logical_bytes(s)).sum();
    let logical_mb = decoded_bytes as f64 / (1 << 20) as f64;
    let features = sets[0].features.dim();
    println!(
        "  {shards} shards x {} points x {features} features = {logical_mb:.1} MiB decoded",
        sets[0].len()
    );

    let mut reports: Vec<CodecReport> = Vec::new();
    let mut baseline_loss = f64::NAN;
    for (codec, ratio_floor, spectra_budget, kl_budget, delta_budget) in codec_budgets() {
        // Transcode throughput over every shard, in logical MiB.
        let t0 = Instant::now();
        let blobs: Vec<_> = sets
            .iter()
            .map(|s| encode_shard(std::slice::from_ref(*s), codec))
            .collect();
        let encode_secs = t0.elapsed().as_secs_f64();
        let disk_bytes: usize = blobs.iter().map(|b| b.len()).sum();
        let t1 = Instant::now();
        for b in &blobs {
            decode_shard(b).expect("decode");
        }
        let decode_secs = t1.elapsed().as_secs_f64();

        // Serve throughput through the store (hash verify + codec decode
        // cold; Arc clone warm).
        let root = temp_root(codec.name());
        let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), |_| codec)
            .expect("ingest");
        let keys = store.keys();
        drop(store);
        let cold_store = ShardStore::open(&root, StoreConfig::default()).expect("open");
        let t2 = Instant::now();
        for &key in &keys {
            cold_store.get(key).expect("cold read");
        }
        let cold_secs = t2.elapsed().as_secs_f64();
        let t3 = Instant::now();
        for _ in 0..WARM_REPS {
            for &key in &keys {
                cold_store.get(key).expect("warm read");
            }
        }
        let warm_secs = t3.elapsed().as_secs_f64() / WARM_REPS as f64;

        let (spec, kl) = accuracy_of(&dataset.snapshots[0], codec);
        let loss = train_loss(&cold_store, &dataset);
        if codec == Codec::Identity {
            baseline_loss = loss;
        }
        let train_delta_pct = 100.0 * (loss - baseline_loss) / baseline_loss;
        std::fs::remove_dir_all(&root).ok();

        let bytes_ratio = decoded_bytes as f64 / disk_bytes as f64;
        let name = codec.name();
        report
            .metric(
                format!("{name}.bytes_ratio"),
                bytes_ratio,
                "x",
                Better::Higher,
            )
            .budget(ratio_floor)
            .floor(ratio_floor);
        report
            .metric(format!("{name}.spectra_err"), spec, "rel L2", Better::Lower)
            .budget(spectra_budget);
        report
            .metric(format!("{name}.pdf_kl"), kl, "nats", Better::Lower)
            .budget(kl_budget)
            .floor(kl_budget);
        report
            .metric(
                format!("{name}.abs_train_delta_pct"),
                train_delta_pct.abs(),
                "%",
                Better::Lower,
            )
            .budget(delta_budget);
        println!(
            "  {:<9} {:>7.2}x  enc {:>7.1} MiB/s  dec {:>7.1} MiB/s  cold {:>7.1}  warm {:>8.1}  \
             spectra {:.2e}  kl {:.2e}  loss {:.4} ({:+.1}%)",
            name,
            bytes_ratio,
            logical_mb / encode_secs,
            logical_mb / decode_secs,
            logical_mb / cold_secs,
            logical_mb / warm_secs,
            spec,
            kl,
            loss,
            train_delta_pct,
        );
        reports.push(CodecReport {
            name: name.to_string(),
            disk_bytes,
            decoded_bytes,
            encode_mb_per_sec: logical_mb / encode_secs,
            decode_mb_per_sec: logical_mb / decode_secs,
            cold_mb_per_sec: logical_mb / cold_secs,
            warm_mb_per_sec: logical_mb / warm_secs,
            train_loss: loss,
            train_delta_pct,
        });
    }

    report.detail("dataset", &dataset.meta.label);
    report.detail("shards", shards);
    report.detail("points_per_shard", sets[0].len());
    report.detail("features", features);
    report.detail("workloads", reports);
    report.finish()
}
