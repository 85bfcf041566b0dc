//! Zero-copy serving data plane vs the legacy copying plane, emitted as
//! `BENCH_serve_path.json` (schema in DESIGN.md §16).
//!
//! Two identical in-process servers are measured over loopback on the
//! same identity-shard fixture store, differing only in
//! `ServeConfig::zero_copy`:
//!
//! - **legacy** — every `GetShard` does an uncached `fs::read`, re-hashes
//!   the bytes, clones them into a contiguous frame buffer, and writes
//!   with copying `write` calls;
//! - **zero_copy** — the shard is mapped (or positionally read) into the
//!   block cache once, hash-verified at residency, and served as iovec
//!   slices of the shared handle through `write_vectored`.
//!
//! Each mode serves a *cold* phase (fresh store, 4 concurrent clients
//! each fetching every shard once — so the legacy plane re-reads and
//! re-hashes every shard 4×, while the zero-copy plane verifies each
//! shard once per residency) and a *warm* phase (same sweep again, cache
//! resident). The instrumented copy shim (`shard_bytes::copytrace`)
//! counts every heap copy of shard payload bytes on the serve path.
//!
//! Acceptance budgets, enforced by exit code for CI:
//! - `cold_ratio >= 1.5` — zero-copy cold serving beats the `fs::read`
//!   plane by at least 1.5×;
//! - `copies_per_identity_byte <= 1.0` — at most one heap copy per
//!   served identity byte (0 when mmap is on; the `read_at` fallback
//!   costs exactly 1).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use sickle_bench::report::{Better, Report};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::manifest::ShardKey;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::shard_bytes::copytrace;
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;

const SNAPSHOTS: usize = 3;
const CUBES: usize = 16;
const POINTS: usize = 16384;
const CLIENTS: usize = 4;

#[derive(Serialize)]
struct Phase {
    secs: f64,
    mb_per_sec: f64,
}

#[derive(Serialize)]
struct Mode {
    cold: Phase,
    warm: Phase,
    /// Heap copies of shard payload bytes per payload byte served, over
    /// both phases (the copytrace shim / bytes-on-the-wire ledger).
    copies_per_identity_byte: f64,
}

fn temp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_bench_serve_path_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One sweep: `CLIENTS` concurrent loopback clients each fetch every
/// shard once (staggered start offsets so requests interleave instead of
/// convoying). Returns (wall seconds, payload bytes received).
fn sweep(addr: SocketAddr, keys: &[ShardKey]) -> (f64, u64) {
    let t0 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let keys = keys.to_vec();
            std::thread::spawn(move || {
                let mut client = StoreClient::new(
                    addr.to_string(),
                    ClientConfig {
                        retries: 3,
                        backoff: Duration::from_millis(20),
                        timeout: Duration::from_secs(30),
                        seed: c as u64,
                        ..ClientConfig::default()
                    },
                );
                let start = c * keys.len() / CLIENTS;
                let mut bytes = 0u64;
                for i in 0..keys.len() {
                    let key = keys[(start + i) % keys.len()];
                    bytes += client.shard(key).expect("loopback shard").len() as u64;
                }
                bytes
            })
        })
        .collect();
    let mut total = 0u64;
    for w in workers {
        total += w.join().expect("client thread");
    }
    (t0.elapsed().as_secs_f64(), total)
}

/// Cold + warm sweeps against a fresh server in the given plane mode.
fn run_mode(root: &Path, zero_copy: bool) -> Mode {
    let store = ShardStore::open(root, StoreConfig::default()).expect("open store");
    let keys = store.keys();
    let handle = serve(
        Arc::new(store),
        ServeConfig {
            threads: 8,
            zero_copy,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    copytrace::reset();
    let (cold_secs, cold_bytes) = sweep(handle.addr(), &keys);
    let (warm_secs, warm_bytes) = sweep(handle.addr(), &keys);
    let copied = copytrace::copied_bytes();
    drop(handle);
    let mb = |b: u64| b as f64 / (1 << 20) as f64;
    Mode {
        cold: Phase {
            secs: cold_secs,
            mb_per_sec: mb(cold_bytes) / cold_secs,
        },
        warm: Phase {
            secs: warm_secs,
            mb_per_sec: mb(warm_bytes) / warm_secs,
        },
        copies_per_identity_byte: copied as f64 / (cold_bytes + warm_bytes) as f64,
    }
}

fn main() -> ExitCode {
    let _obs = sickle_bench::obs_init();

    let root = temp_root();
    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).expect("ingest");
    let store_bytes = store.manifest().total_bytes();
    let shards = store.manifest().len();
    drop(store);
    println!(
        "  store: {shards} identity shards, {:.1} MiB, {CLIENTS} clients",
        store_bytes as f64 / (1 << 20) as f64
    );

    let legacy = run_mode(&root, false);
    println!(
        "  legacy:    cold {:.0} MiB/s   warm {:.0} MiB/s   {:.2} copies/byte",
        legacy.cold.mb_per_sec, legacy.warm.mb_per_sec, legacy.copies_per_identity_byte
    );
    let zero_copy = run_mode(&root, true);
    println!(
        "  zero-copy: cold {:.0} MiB/s   warm {:.0} MiB/s   {:.2} copies/byte",
        zero_copy.cold.mb_per_sec, zero_copy.warm.mb_per_sec, zero_copy.copies_per_identity_byte
    );

    let cold_ratio = zero_copy.cold.mb_per_sec / legacy.cold.mb_per_sec;
    let warm_ratio = zero_copy.warm.mb_per_sec / legacy.warm.mb_per_sec;
    let copies_per_identity_byte = zero_copy.copies_per_identity_byte;
    println!(
        "  cold ratio: {cold_ratio:.2}x   warm ratio: {warm_ratio:.2}x   \
         zero-copy copies/byte: {copies_per_identity_byte:.3}"
    );

    std::fs::remove_dir_all(&root).ok();

    let mut report = Report::new("serve_path");
    // Floor just under the budget: the zero-copy plane must beat the
    // fs::read plane on any hardware; collapsing toward 1x means serving
    // went back to copying or re-hashing per request.
    report
        .metric("cold_ratio", cold_ratio, "x", Better::Higher)
        .budget(1.5)
        .floor(1.4);
    // Warm serving is pure cache + iovec; if it no longer clearly beats
    // the legacy plane, residency or the vectored write path broke.
    report
        .metric("warm_ratio", warm_ratio, "x", Better::Higher)
        .floor(2.0);
    // Byte arithmetic, not timing: more than one heap copy per served
    // identity byte means a copy crept back into the path.
    report
        .metric(
            "copies_per_identity_byte",
            copies_per_identity_byte,
            "copies/B",
            Better::Lower,
        )
        .budget(1.0)
        .floor(1.0);
    report.detail("shards", shards);
    report.detail("store_bytes", store_bytes);
    report.detail("clients", CLIENTS);
    report.detail("legacy", legacy);
    report.detail("zero_copy", zero_copy);
    report.finish()
}
