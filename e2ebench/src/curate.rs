//! `curate`: the `subsample.py` phase at fig8-medium scale.
//!
//! One pass generates SST-P1F4 (64³; warmup 10, interval 5, 4 snapshots)
//! by stepping the spectral solver and deriving potential vorticity, runs
//! all five `workloads::fig8_cases()` through the rank executor
//! (`run_resilient`, one call per snapshot), and ingests each case into
//! its own shard store: identity for the sampled cases, the resim codec
//! for `Hrandom-Xfull`. It is the only workload where `cfd`, `field`,
//! `core`/`hpc` and store writes do the work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sickle_bench::workloads::{fig8_cases, sampling_config};
use sickle_cfd::datasets::{sst_p1f4, SstParams};
use sickle_cfd::{SpectralConfig, SpectralSolver, Stratification};
use sickle_core::pipeline::{
    run_dataset, temporal_selection, SamplingConfig, SamplingOutput, SamplingStats,
};
use sickle_field::derived::potential_vorticity;
use sickle_field::io::{encode_sample_set, fnv1a64};
use sickle_field::{Axis, Dataset, DatasetMeta, SampleSet};
use sickle_hpc::executor::{run_dataset_with_ranks, run_resilient, RankTiming, RetryPolicy};
use sickle_hpc::fault::FaultInjector;
use sickle_store::{set_key, Codec, ConnRegistry, ShardStore, StatsSnapshot, StoreConfig};

use crate::report::{self, Metrics};
use crate::{inputs, stats, trace, Ledger, PassWall, Run};

/// Problem size of one pass.
pub struct Size {
    /// Grid points per side.
    pub n: usize,
    /// Solver steps before the first snapshot.
    pub warmup: usize,
    /// Solver steps between snapshots.
    pub interval: usize,
    /// Recorded snapshots.
    pub snapshots: usize,
    /// Hypercube edge.
    pub cube_edge: usize,
    /// Hypercubes kept per snapshot.
    pub cubes: usize,
}

/// fig8-medium SST-P1F4. 60 of the 64 cubes per snapshot keeps a real
/// phase-1 selection and puts both generation (`cfd.busy_s`) and
/// sampling (`hpc.busy_s`) above a quarter of a pass.
pub const SIZE: Size = Size {
    n: 64,
    warmup: 10,
    interval: 5,
    snapshots: 4,
    cube_edge: 16,
    cubes: 60,
};

/// The dense case is the one the re-simulation codec stores.
fn codec_for(case: &str) -> Codec {
    if case == "Hrandom-Xfull" {
        Codec::resim_default()
    } else {
        Codec::Identity
    }
}

/// One case's curated output and the store it was ingested into.
pub struct CaseOutput {
    pub name: &'static str,
    pub output: SamplingOutput,
    pub timings: Vec<RankTiming>,
    pub root: PathBuf,
    pub store: ShardStore,
}

/// Set-ups per run beyond the one each pass makes; `setup_s` is the
/// median of all of them.
const SETUPS: usize = 15;

/// Everything one pass produced.
pub struct Pass {
    pub wall_s: f64,
    /// Wall time of the sampling and ingest stage (the `subsample.py`
    /// phase proper, after generation).
    pub sample_s: f64,
    pub step_s: Vec<f64>,
    pub dataset: Dataset,
    pub cases: Vec<CaseOutput>,
}

/// The solver settings of `sickle_cfd::datasets::sst_p1f4`, from its
/// public default parameters. The benchmark steps the solver itself so
/// that each step is timed; `sst_p1f4` runs it to the end in one call.
fn solver_config(n: usize) -> SpectralConfig {
    let p = SstParams::default();
    SpectralConfig {
        n,
        viscosity: p.viscosity,
        diffusivity: p.viscosity,
        dt: p.dt,
        stratification: Stratification::Boussinesq {
            n_bv: p.n_bv,
            gravity: Axis::Z,
        },
        forcing: None,
    }
}

/// The SST-P1F4 metadata, as `sst_p1f4` labels its (here empty) dataset.
fn sst_meta() -> DatasetMeta {
    sst_p1f4(&SstParams {
        n: 8,
        snapshots: 0,
        warmup: 0,
        ..SstParams::default()
    })
    .meta
}

/// The sampling output of one case, assembled from its per-snapshot
/// `run_resilient` results as `run_dataset_with_ranks` assembles it.
/// That entry point does not return the per-snapshot `RankTiming`s the
/// `hpc.*` metrics need; [`check`] proves the two agree.
fn assemble(
    dataset: &Dataset,
    keep: &[usize],
    cfg: SamplingConfig,
    sets: Vec<Vec<SampleSet>>,
    started: Instant,
) -> SamplingOutput {
    let cubes_selected: usize = sets.iter().map(Vec::len).sum();
    let stats = SamplingStats {
        points_in: cubes_selected * cfg.cube_edge.pow(3),
        points_out: sets.iter().flatten().map(SampleSet::len).sum(),
        cubes_selected,
        phase1_points: dataset.grid().len() * keep.len(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    };
    SamplingOutput {
        sets,
        stats,
        config: cfg,
    }
}

fn solver_step(solver: &mut SpectralSolver, step_s: &mut Vec<f64>) {
    let t = Instant::now();
    {
        let _span = trace::span("cfd.run");
        solver.run(1);
    }
    step_s.push(t.elapsed().as_secs_f64());
}

/// Set-up: the seeded initial condition and a solver started from it.
pub fn set_up(size: &Size, seed: u64) -> SpectralSolver {
    let _setup = trace::span("setup");
    let velocity = {
        let _span = trace::span("setup.inputs");
        inputs::curate_velocity(size.n, seed)
    };
    let _span = trace::span("setup.cfd");
    let mut solver = SpectralSolver::new(solver_config(size.n));
    // Taylor–Green sets the buoyancy perturbation; the velocity is then
    // replaced by the seeded initial condition.
    solver.init_taylor_green(1.0);
    solver.set_velocity(&velocity[0], &velocity[1], &velocity[2]);
    solver
}

/// One timed pass from a set-up solver: generate → sample → ingest, with
/// stores under `root`.
pub fn pass(
    mut solver: SpectralSolver,
    size: &Size,
    seed: u64,
    ranks: usize,
    root: &Path,
    ledger: &mut Ledger,
) -> Option<Pass> {
    let t0 = Instant::now();
    let pass_span = trace::span("pass");
    let mut step_s = Vec::new();
    let mut dataset = Dataset::new(sst_meta());
    for _ in 0..size.warmup {
        solver_step(&mut solver, &mut step_s);
    }
    for _ in 0..size.snapshots {
        for _ in 0..size.interval {
            solver_step(&mut solver, &mut step_s);
        }
        let mut snap = {
            let _span = trace::span("cfd.snapshot");
            solver.snapshot()
        };
        let pv = {
            let _span = trace::span("field.derived");
            potential_vorticity(
                &snap.grid,
                snap.expect_var("u"),
                snap.expect_var("v"),
                snap.expect_var("w"),
                snap.expect_var("r"),
            )
        };
        snap.push_var("pv", pv);
        dataset.push(snap);
    }

    let t_sample = Instant::now();
    let mut cases = Vec::new();
    for (name, cube, point) in fig8_cases() {
        let started = Instant::now();
        let cfg = sampling_config(
            &dataset,
            cube,
            point,
            size.cube_edge,
            size.cubes,
            inputs::subseed(seed, 2),
        );
        let keep = temporal_selection(&dataset, &cfg);
        let mut sets = Vec::with_capacity(keep.len());
        let mut timings = Vec::with_capacity(keep.len());
        for &i in &keep {
            let out = {
                let _span = trace::span("hpc.run_resilient");
                run_resilient(
                    &dataset.snapshots[i],
                    i,
                    &cfg,
                    ranks,
                    &FaultInjector::none(),
                    &RetryPolicy::default(),
                )
            };
            let out = ledger.op(name, out)?;
            sets.push(out.sets);
            timings.push(out.timing);
        }
        let output = assemble(&dataset, &keep, cfg, sets, started);
        let case_root = root.join(name);
        let store = {
            let _span = trace::span("store.ingest");
            ShardStore::ingest_with(&case_root, &output, StoreConfig::default(), |_| {
                codec_for(name)
            })
        };
        let store = ledger.op("ingest", store)?;
        cases.push(CaseOutput {
            name,
            output,
            timings,
            root: case_root,
            store,
        });
    }
    drop(pass_span);
    Some(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        sample_s: t_sample.elapsed().as_secs_f64(),
        step_s,
        dataset,
        cases,
    })
}

/// Content digest of a pass's curated output: FNV-1a over every store's
/// shard hashes in manifest order. Shard names are content hashes, so
/// equal digests mean bit-identical stores.
pub fn digest(pass: &Pass) -> u64 {
    let mut text = String::new();
    for case in &pass.cases {
        for entry in &case.store.manifest().entries {
            text.push_str(&entry.hash);
        }
    }
    fnv1a64(text.as_bytes())
}

/// What the output checks measure besides pass/fail.
#[derive(Default)]
pub struct Checked {
    /// Mean squared error of the resim-coded shards against the sets
    /// they encode.
    pub resim_mse: f64,
    /// Dense points scanned by phase 2 and points kept, summed over the
    /// cases, as the library's `run_dataset_with_ranks` counts them.
    pub points_in: usize,
    pub points_out: usize,
}

/// Whether two sampling outputs hold bit-identical sets.
fn same_sets(a: &[Vec<SampleSet>], b: &[Vec<SampleSet>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(s, t)| encode_sample_set(s) == encode_sample_set(t))
        })
}

/// The output checks, outside the timed region.
///
/// - Every case's assembled output equals, sets and counts, what the
///   library's `run_dataset_with_ranks` returns for the same dataset and
///   configuration; the ranked `Hmaxent-Xmaxent` output is also
///   bit-identical to serial `run_dataset`.
/// - Every shard of every store reopens through `ShardStore::open` and
///   decodes through `get`; identity shards decode bit-identically, resim
///   shards to the same points with finite values.
pub fn check(pass: &Pass, ranks: usize, ledger: &mut Ledger) -> Checked {
    let _span = trace::span("check");
    let mut checked = Checked::default();
    for case in &pass.cases {
        let library = run_dataset_with_ranks(
            &pass.dataset,
            &case.output.config,
            ranks,
            &FaultInjector::none(),
            &RetryPolicy::default(),
        );
        let Some(library) = ledger.op(case.name, library) else {
            continue;
        };
        let (ours, theirs) = (&case.output.stats, &library.stats);
        ledger.check(
            same_sets(&case.output.sets, &library.sets)
                && (ours.points_in, ours.points_out, ours.cubes_selected, ours.phase1_points)
                    == (
                        theirs.points_in,
                        theirs.points_out,
                        theirs.cubes_selected,
                        theirs.phase1_points,
                    ),
            || format!("{}: output differs from run_dataset_with_ranks", case.name),
        );
        checked.points_in += theirs.points_in;
        checked.points_out += theirs.points_out;
    }
    let maxent = pass
        .cases
        .iter()
        .find(|c| c.name == "Hmaxent-Xmaxent")
        .expect("fig8 cases include Hmaxent-Xmaxent");
    let serial = run_dataset(&pass.dataset, &maxent.output.config);
    ledger.check(same_sets(&serial.sets, &maxent.output.sets), || {
        "ranked Hmaxent-Xmaxent output differs from serial run_dataset".into()
    });

    let (mut sq_err, mut values) = (0.0f64, 0usize);
    for case in &pass.cases {
        let Some(store) = ledger.op(
            "reopen",
            ShardStore::open(&case.root, StoreConfig::default()),
        ) else {
            continue;
        };
        let originals: Vec<&SampleSet> = case.output.sets.iter().flatten().collect();
        ledger.check(store.keys().len() == originals.len(), || {
            format!(
                "{}: store holds {} shards for {} sets",
                case.name,
                store.keys().len(),
                originals.len()
            )
        });
        for snap_sets in &case.output.sets {
            for (position, original) in snap_sets.iter().enumerate() {
                let Some(decoded) = ledger.op("decode", store.get(set_key(original, position)))
                else {
                    continue;
                };
                if codec_for(case.name) == Codec::Identity {
                    ledger.check(
                        encode_sample_set(&decoded) == encode_sample_set(original),
                        || format!("{}: identity shard does not round-trip", case.name),
                    );
                    continue;
                }
                let shape_ok = decoded.indices == original.indices
                    && decoded.features.data.len() == original.features.data.len();
                ledger.check(shape_ok, || {
                    format!("{}: resim shard decodes to other points", case.name)
                });
                for (d, o) in decoded.features.data.iter().zip(&original.features.data) {
                    sq_err += (d - o) * (d - o);
                }
                values += original.features.data.len();
            }
        }
    }
    let mse = sq_err / values.max(1) as f64;
    ledger.check(mse.is_finite() && values > 0, || {
        format!("resim reconstruction error {mse} over {values} values")
    });
    checked.resim_mse = mse;
    checked
}

/// Per-pass quantities kept after the pass's stores are removed.
struct Summary {
    wall: PassWall,
    sample_s: f64,
    step_s: Vec<f64>,
    sets: usize,
    case_s: BTreeMap<&'static str, f64>,
    timings: Vec<RankTiming>,
    ingest_bytes: usize,
    shards: usize,
    resim_ratio: f64,
}

impl Summary {
    fn of(pass: &Pass, traced: bool) -> Summary {
        let resim = pass
            .cases
            .iter()
            .find(|c| codec_for(c.name) != Codec::Identity)
            .expect("one fig8 case is resim-coded");
        let resim_stats =
            StatsSnapshot::collect(&ConnRegistry::default()).with_manifest(resim.store.manifest());
        Summary {
            wall: PassWall {
                secs: pass.wall_s,
                traced,
            },
            sample_s: pass.sample_s,
            step_s: pass.step_s.clone(),
            sets: pass
                .cases
                .iter()
                .map(|c| c.output.sets.iter().map(Vec::len).sum::<usize>())
                .sum(),
            case_s: pass
                .cases
                .iter()
                .map(|c| (c.name, c.timings.iter().map(|t| t.elapsed_secs).sum()))
                .collect(),
            timings: pass
                .cases
                .iter()
                .flat_map(|c| c.timings.iter().cloned())
                .collect(),
            ingest_bytes: pass
                .cases
                .iter()
                .map(|c| c.store.manifest().total_bytes())
                .sum(),
            shards: pass.cases.iter().map(|c| c.store.manifest().len()).sum(),
            resim_ratio: resim_stats
                .codecs
                .iter()
                .find(|c| c.codec == "resim")
                .map_or(0.0, |c| c.ratio),
        }
    }
}

/// The `curate` workload.
pub fn run(run: &Run, ledger: &mut Ledger, metrics: &mut Metrics) {
    let mut setups = Vec::new();
    let mut timed_set_up = || {
        let t = Instant::now();
        let solver = set_up(&SIZE, run.seed);
        setups.push(t.elapsed().as_secs_f64());
        solver
    };
    for _ in 0..SETUPS {
        drop(timed_set_up());
    }
    let started = Instant::now();
    let mut summaries: Vec<Summary> = Vec::new();
    let (mut first_digest, mut checked, mut stored_bytes) = (None, Checked::default(), 0);
    while run.more(started, summaries.len()) {
        let solver = timed_set_up();
        let root = run.dir.join(format!("pass{}", summaries.len()));
        let (traced, pass) = run.pass(summaries.len(), |traced| {
            let pass = pass(solver, &SIZE, run.seed, run.ranks, &root, ledger);
            (traced, pass)
        });
        let Some(pass) = pass else { return };

        let d = digest(&pass);
        if first_digest.is_none() {
            checked = check(&pass, run.ranks, ledger);
            stored_bytes = ledger
                .op("sizing the stores", report::dir_bytes(&root))
                .unwrap_or(0);
        }
        let first = *first_digest.get_or_insert(d);
        ledger.check(d == first, || {
            "a later pass curated different data from the same inputs".into()
        });
        eprintln!(
            "pass {}: {:.3} s{}",
            summaries.len(),
            pass.wall_s,
            if traced { " (traced)" } else { "" }
        );
        summaries.push(Summary::of(&pass, traced));
        drop(pass);
        ledger.op("removing a pass's stores", std::fs::remove_dir_all(&root));
    }

    let walls: Vec<PassWall> = summaries.iter().map(|s| s.wall).collect();
    if !metrics.traced() {
        let pass_s = crate::untraced_median(&walls);
        let points = (SIZE.n.pow(3) * SIZE.snapshots) as f64;
        let steps: Vec<f64> = summaries
            .iter()
            .flat_map(|s| s.step_s.iter().copied())
            .collect();
        let sample_s: Vec<f64> = summaries.iter().map(|s| s.sample_s).collect();
        metrics.set("setup_s", stats::median(&setups));
        metrics.set("mpts_per_s", points / 1e6 / pass_s);
        metrics.set(
            "samples_per_s",
            summaries[0].sets as f64 / stats::median(&sample_s),
        );
        metrics.set("step_ms_p50", 1e3 * stats::percentile(&steps, 50.0));
        metrics.set("stored_mb", stored_bytes as f64 / 1e6);
        metrics.set("peak_rss_mb", report::peak_rss_mb());
        return;
    }

    let layer = crate::record_trace_summary(metrics, run, &walls);
    let traced: Vec<&Summary> = summaries.iter().filter(|s| s.wall.traced).collect();
    let count = traced.len() as f64;
    let self_s = |name: &str| layer.get(name).copied().unwrap_or(0.0) / count;
    let per_setup = |name: &str| layer.get(name).copied().unwrap_or(0.0) / setups.len() as f64;
    metrics.set("setup.inputs_s", per_setup("setup.inputs"));
    metrics.set("setup.cfd_s", per_setup("setup.cfd"));
    let mean = |f: &dyn Fn(&Summary) -> f64| traced.iter().map(|s| f(s)).sum::<f64>() / count;
    let steps: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.step_s.iter().copied())
        .collect();
    metrics.set("loop.step_ms_p90", 1e3 * stats::percentile(&steps, 90.0));
    metrics.set("cfd.busy_s", self_s("cfd.run") + self_s("cfd.snapshot"));
    metrics.set("cfd.steps", mean(&|s| s.step_s.len() as f64));
    metrics.set("field.derived_busy_s", self_s("field.derived"));
    metrics.set("hpc.busy_s", self_s("hpc.run_resilient"));
    let timing_sum = |f: &dyn Fn(&RankTiming) -> f64| mean(&|s| s.timings.iter().map(f).sum());
    metrics.set(
        "hpc.phase1_s",
        timing_sum(&|t| t.elapsed_secs - t.slowest_rank_secs()),
    );
    metrics.set("hpc.phase2_rank_s", timing_sum(&|t| t.slowest_rank_secs()));
    metrics.set(
        "hpc.imbalance",
        timing_sum(&|t| t.slowest_rank_secs()) / timing_sum(&|t| t.mean_rank_secs()),
    );
    metrics.set("hpc.retry_rounds", timing_sum(&|t| t.retry_rounds as f64));
    metrics.set("core.points_in", checked.points_in as f64);
    metrics.set("core.points_out", checked.points_out as f64);
    for case in traced[0].case_s.keys() {
        metrics.set(report::case_metric(case), mean(&|s| s.case_s[case]));
    }
    metrics.set("store.ingest_busy_s", self_s("store.ingest"));
    metrics.set("store.ingest_bytes", mean(&|s| s.ingest_bytes as f64));
    metrics.set("store.shards_written", mean(&|s| s.shards as f64));
    metrics.set("codec.resim_ratio", mean(&|s| s.resim_ratio));
    metrics.set("codec.resim_mse", checked.resim_mse);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass small enough for a unit test: 32³, one snapshot, 2 cubes.
    const SMALL: Size = Size {
        n: 32,
        warmup: 1,
        interval: 1,
        snapshots: 1,
        cube_edge: 16,
        cubes: 2,
    };

    fn small_pass(seed: u64, root: &Path) -> (Pass, Ledger) {
        let mut ledger = Ledger::default();
        let solver = set_up(&SMALL, seed);
        let pass = pass(solver, &SMALL, seed, 2, root, &mut ledger).expect("pass runs");
        (pass, ledger)
    }

    #[test]
    fn same_seed_curates_the_same_points() {
        let base = std::env::temp_dir().join(format!("e2ebench_curate_{}", std::process::id()));
        let (a, mut la) = small_pass(11, &base.join("a"));
        let (b, _) = small_pass(11, &base.join("b"));
        let (c, _) = small_pass(12, &base.join("c"));
        let points = |p: &Pass| {
            p.cases
                .iter()
                .map(|c| c.output.stats.points_out)
                .collect::<Vec<_>>()
        };
        assert_eq!(points(&a), points(&b));
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        // The full output checks pass on a small pass too.
        let checked = check(&a, 2, &mut la);
        assert!(la.ok(), "{:?}", la.problems);
        assert!(checked.resim_mse > 0.0 && checked.resim_mse.is_finite());
        assert_eq!(checked.points_out, points(&a).iter().sum::<usize>());
        std::fs::remove_dir_all(&base).ok();
    }
}
