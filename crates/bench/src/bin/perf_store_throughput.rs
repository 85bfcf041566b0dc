//! Serving-plane throughput, emitted as `BENCH_store_throughput.json`
//! (schema in DESIGN.md §10).
//!
//! Measures, on a synthetic fixture store:
//! - `cold_mb_per_sec` — first pass over every shard through a fresh
//!   cache (disk read + hash verify + SKLH decode per shard);
//! - `warm_mb_per_sec` — repeated passes once everything is resident
//!   (one lock + one `Arc` clone per shard);
//! - loopback `batches_per_sec` at 1, 4, and 16 concurrent clients, each
//!   streaming full epochs over real TCP.
//!
//! The acceptance budget is `warm_over_cold >= 5` — the block cache must
//! buy at least 5× over re-reading and re-decoding shards. The binary
//! exits nonzero when the budget is violated so CI catches regressions.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use sickle_bench::report::{Better, Report};
use sickle_store::batching::num_batches;
use sickle_store::client::ClientConfig;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_train::RemoteDataset;

const SNAPSHOTS: usize = 4;
const CUBES: usize = 16;
const POINTS: usize = 2048;
const COLD_REPS: usize = 3;
const WARM_REPS: usize = 50;
const BATCH_SIZE: usize = 8;
const TOKENS: usize = 32;
const EPOCHS_PER_CLIENT: usize = 2;

#[derive(Serialize)]
struct ClientScale {
    clients: usize,
    batches: usize,
    secs: f64,
    batches_per_sec: f64,
}

fn temp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Best-of-`reps` seconds for one full pass over all shards through a
/// *fresh* cache (every shard is a miss).
fn bench_cold(root: &Path, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let store = ShardStore::open(root, StoreConfig::default()).expect("open store");
        let keys = store.keys();
        let t0 = Instant::now();
        for key in keys {
            store.get(key).expect("cold read");
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Mean seconds per pass over all shards once fully resident.
fn bench_warm(store: &ShardStore, reps: usize) -> f64 {
    let keys = store.keys();
    for &key in &keys {
        store.get(key).expect("warm-up read");
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        for &key in &keys {
            store.get(key).expect("warm read");
        }
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Aggregate batches/s with `clients` concurrent loopback streamers, each
/// fetching `EPOCHS_PER_CLIENT` full epochs under its own seed.
fn bench_clients(addr: std::net::SocketAddr, n: usize, clients: usize) -> ClientScale {
    let per_epoch = num_batches(n, BATCH_SIZE);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut remote = RemoteDataset::connect(
                    addr.to_string(),
                    TOKENS,
                    ClientConfig {
                        retries: 3,
                        backoff: Duration::from_millis(20),
                        timeout: Duration::from_secs(30),
                        seed: c as u64,
                        ..ClientConfig::default()
                    },
                )
                .expect("connect loopback server");
                for epoch in 0..EPOCHS_PER_CLIENT {
                    let seed = (c * 100 + epoch) as u64;
                    for i in 0..per_epoch {
                        remote.batch(seed, BATCH_SIZE, i).expect("loopback batch");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let secs = t0.elapsed().as_secs_f64();
    let batches = clients * EPOCHS_PER_CLIENT * per_epoch;
    ClientScale {
        clients,
        batches,
        secs,
        batches_per_sec: batches as f64 / secs,
    }
}

fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();

    let root = temp_root();
    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest");
    let store_bytes = store.manifest().total_bytes();
    let shards = store.manifest().len();
    println!(
        "  store: {shards} shards, {:.1} MiB",
        store_bytes as f64 / (1 << 20) as f64
    );

    let cold_secs = bench_cold(&root, COLD_REPS);
    let warm_secs = bench_warm(&store, WARM_REPS);
    let mb = store_bytes as f64 / (1 << 20) as f64;
    let cold_mb_per_sec = mb / cold_secs;
    let warm_mb_per_sec = mb / warm_secs;
    let warm_over_cold = warm_mb_per_sec / cold_mb_per_sec;
    println!("  cold: {cold_mb_per_sec:.1} MiB/s   warm: {warm_mb_per_sec:.1} MiB/s   ratio: {warm_over_cold:.1}x");

    let handle = serve(
        Arc::new(store),
        ServeConfig {
            threads: 16,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let scaling: Vec<ClientScale> = [1usize, 4, 16]
        .into_iter()
        .map(|clients| {
            let s = bench_clients(handle.addr(), shards, clients);
            println!(
                "  {:>2} clients: {:.0} batches/s ({} batches in {:.2}s)",
                s.clients, s.batches_per_sec, s.batches, s.secs
            );
            s
        })
        .collect();
    drop(handle);

    std::fs::remove_dir_all(&root).ok();

    let mut report = Report::new("store_throughput");
    // Floor 20x the budget: hardware moves this ratio, a broken cache
    // collapses it.
    report
        .metric("warm_over_cold", warm_over_cold, "x", Better::Higher)
        .budget(5.0)
        .floor(100.0);
    report.detail("shards", shards);
    report.detail("store_bytes", store_bytes);
    report.detail("cold_secs", cold_secs);
    report.detail("warm_secs", warm_secs);
    report.detail("cold_mb_per_sec", cold_mb_per_sec);
    report.detail("warm_mb_per_sec", warm_mb_per_sec);
    report.detail("scaling", scaling);
    report.finish()
}
