//! Hint flood: `GetTensors` hint lists come off the wire, so a client
//! repeating maximum-size lists must not be able to grow the server's
//! prefetch queue without limit.
//!
//! This file is a test binary of its own on purpose: the
//! `store.prefetch.queue_depth` gauge and the serve byte counters are
//! process-global, and the flood's half-megabyte requests would skew any
//! other test's readings of them.

use std::sync::Arc;
use std::time::Duration;

use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::manifest::ShardKey;
use sickle_store::prefetch::QUEUE_CAPACITY;
use sickle_store::protocol::MAX_TENSOR_KEYS;
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::Codec;

/// Last value of the `store.prefetch.queue_depth` gauge.
fn prefetch_queue_depth() -> f64 {
    sickle_obs::metrics::snapshot()
        .into_iter()
        .find(|m| m.name == "store.prefetch.queue_depth")
        .map_or(0.0, |m| m.value)
}

#[test]
fn maximum_size_hint_lists_keep_the_prefetch_queue_bounded() {
    // Hints come off the wire. A client repeating maximum-size hint lists
    // (duplicates and keys the store does not hold included) over a resim
    // store — every prefetch a re-simulation — must not grow the queue
    // past its capacity, and its real requests must still be answered.
    let root = std::env::temp_dir().join(format!("sickle_hint_flood_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = small_output(2, 12, 256);
    let store = ShardStore::ingest_with(
        &root,
        &out,
        StoreConfig {
            cache_bytes: 32 << 10,
            ..StoreConfig::default()
        },
        |_| Codec::resim_default(),
    )
    .unwrap();
    let keys = store.keys();
    let handle = serve(Arc::new(store), ServeConfig::default()).unwrap();
    let hints: Vec<ShardKey> = (0..MAX_TENSOR_KEYS)
        .map(|i| ShardKey {
            snapshot: i % 3,
            cube: (i / 3) % 40,
        })
        .collect();
    let mut client = StoreClient::new(
        handle.addr().to_string(),
        ClientConfig {
            timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    );
    for round in 0..60 {
        let key = keys[round % keys.len()];
        let block = client.tensors(4, &[key], &hints).unwrap();
        assert_eq!(block.count, 1, "round {round}");
        let depth = prefetch_queue_depth();
        assert!(
            depth <= QUEUE_CAPACITY as f64,
            "round {round}: prefetch queue at {depth} keys (capacity {QUEUE_CAPACITY})"
        );
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}
