//! Cluster prefetch: every `GetTensors` a `ClusterClient` sends carries
//! the next batch's keys that member owns, and the member's prefetcher
//! decodes them in the background. Over a resim-coded store — where each
//! cache miss re-runs the reconstruction solve — that lookahead is what
//! keeps the decode off the training step.
//!
//! This file is a test binary of its own on purpose: the
//! `store.prefetch.loaded` counter is process-global, so no other test may
//! run servers in this process while the delta is measured.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_store::batching::BatchSpec;
use sickle_store::cluster::{partition_output, ClusterClient, ClusterConfig, ClusterMember};
use sickle_store::ring::HashRing;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::Codec;

const MEMBERS: [&str; 3] = ["store-0", "store-1", "store-2"];
const REPLICATION: usize = 2;
/// Far below the decoded working set (24 sets of ~6 KiB each), as in a
/// dense resim store: most reads miss and re-simulate.
const CACHE_BYTES: usize = 32 << 10;

/// Current value of the `store.prefetch.loaded` counter (0 until the
/// first prefetch registers it).
fn prefetch_loaded() -> f64 {
    sickle_obs::metrics::snapshot()
        .into_iter()
        .find(|m| m.name == "store.prefetch.loaded")
        .map_or(0.0, |m| m.value)
}

#[test]
fn cluster_epoch_drives_member_prefetch() {
    let root = std::env::temp_dir().join(format!("sickle_cluster_prefetch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = small_output(2, 12, 256);
    let ring = HashRing::new(&MEMBERS);
    let mut servers = Vec::new();
    let mut members = Vec::new();
    for name in MEMBERS {
        let part = partition_output(&out, &ring, name, REPLICATION);
        let store = ShardStore::ingest_with(
            &root.join(name),
            &part,
            StoreConfig {
                cache_bytes: CACHE_BYTES,
                ..StoreConfig::default()
            },
            |_| Codec::resim_default(),
        )
        .expect("ingest member partition");
        let server = serve(
            Arc::new(store),
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
        )
        .expect("bind member");
        members.push(ClusterMember::new(name, server.addr().to_string()));
        servers.push(server);
    }

    let mut cluster = ClusterClient::connect(
        &members,
        ClusterConfig {
            replication: REPLICATION,
            ..ClusterConfig::default()
        },
    )
    .expect("connect cluster");
    let spec = BatchSpec {
        seed: 3,
        batch_size: 4,
        tokens: 8,
    };
    let before = prefetch_loaded();
    let batches = cluster.num_batches(spec.batch_size);
    let mut samples = 0;
    for i in 0..batches {
        samples += cluster.batch(spec, i).expect("batch").shape.batch;
        // Stand-in for the training step the prefetch overlaps with.
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(samples, cluster.n(), "one epoch serves every sample once");

    // Prefetch is asynchronous; give the last loads a moment to land.
    let deadline = Instant::now() + Duration::from_secs(10);
    while prefetch_loaded() <= before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let loaded = prefetch_loaded() - before;
    assert!(
        loaded > 0.0,
        "a {batches}-batch cluster epoch prefetched nothing: members got no hints"
    );

    drop(cluster);
    drop(servers);
    std::fs::remove_dir_all(&root).ok();
}
