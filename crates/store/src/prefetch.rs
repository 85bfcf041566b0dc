//! Prefetcher: a background thread that warms the block cache with the
//! shards a client says it will ask for next.
//!
//! Every `GetTensors` request carries a hint list — the keys of the
//! client's next batch that this server owns. Once the request's own
//! shards are resident, the server passes the uncached hint keys here, so
//! batch `i + 1`'s disk reads and decodes (a re-simulation for resim
//! shards) overlap batch `i`'s socket writes and the client's training
//! step. The lookahead depth is therefore one batch, fixed by the client.
//! Hints are best-effort: a failed shard read is recorded on the
//! `store.prefetch.error` counter and otherwise ignored — the foreground
//! `get` will surface the real error to the requester.
//!
//! Hints arrive from the network, so the queue is bounded
//! ([`QUEUE_CAPACITY`] keys): a hint that finds it full is dropped and
//! counted on `store.prefetch.dropped` rather than buffered, so no client
//! can grow the server's memory or queue up unbounded decode work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::manifest::ShardKey;
use crate::store::ShardStore;

/// Most keys the prefetch queue holds. Legitimate traffic hints one
/// batch per request and the worker drains it between requests, so a full
/// queue means hints are arriving faster than they can be decoded — and a
/// hint decoded that late would only evict the working set.
pub const QUEUE_CAPACITY: usize = 1024;

/// Handle to the prefetcher thread. Dropping it stops the thread (the
/// channel disconnects and the worker drains out).
pub struct Prefetcher {
    tx: Option<SyncSender<ShardKey>>,
    worker: Option<JoinHandle<()>>,
    queued: Arc<AtomicU64>,
}

impl Prefetcher {
    /// Spawns a prefetcher over a shared store. Prefetch is best-effort
    /// by contract, so a failed thread spawn (fd/thread exhaustion)
    /// degrades to a prefetcher that drops every hint instead of
    /// panicking the caller.
    pub fn new(store: Arc<ShardStore>) -> Self {
        let (tx, rx) = mpsc::sync_channel::<ShardKey>(QUEUE_CAPACITY);
        let queued = Arc::new(AtomicU64::new(0));
        let worker_queued = Arc::clone(&queued);
        let worker = std::thread::Builder::new()
            .name("sickle-store-prefetch".into())
            .spawn(move || {
                let _span = sickle_obs::span!("store.prefetch.worker");
                while let Ok(key) = rx.recv() {
                    let depth = worker_queued.fetch_sub(1, Ordering::Relaxed) - 1;
                    sickle_obs::gauge!("store.prefetch.queue_depth", depth);
                    if store.is_cached(key) {
                        continue;
                    }
                    let t0 = std::time::Instant::now();
                    match store.warm(key) {
                        Ok(()) => {
                            sickle_obs::counter!("store.prefetch.loaded", 1usize);
                            sickle_obs::histogram!(
                                "store.prefetch.load_us",
                                t0.elapsed().as_micros() as f64
                            );
                        }
                        Err(_) => sickle_obs::counter!("store.prefetch.error", 1usize),
                    }
                }
            });
        match worker {
            Ok(worker) => Prefetcher {
                tx: Some(tx),
                worker: Some(worker),
                queued,
            },
            Err(_) => {
                sickle_obs::counter!("store.prefetch.spawn_failed", 1usize);
                Prefetcher {
                    tx: None,
                    worker: None,
                    queued,
                }
            }
        }
    }

    /// Queues keys for background loading (skips already-resident shards
    /// cheaply on the worker side). Never blocks: keys that find the queue
    /// full are dropped, and if the worker is gone every hint is.
    pub fn hint(&self, keys: &[ShardKey]) {
        if let Some(tx) = &self.tx {
            for &key in keys {
                // Count before sending so the worker's decrement can never
                // observe the counter below its own key.
                let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
                sickle_obs::gauge!("store.prefetch.queue_depth", depth);
                match tx.try_send(key) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        self.queued.fetch_sub(1, Ordering::Relaxed);
                        sickle_obs::counter!("store.prefetch.dropped", 1usize);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.queued.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.tx.take(); // disconnect: worker's recv() errors and it exits
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::testutil::small_output;

    #[test]
    fn hints_warm_the_cache() {
        let root =
            std::env::temp_dir().join(format!("sickle_store_prefetch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let out = small_output(1, 4, 20);
        let store = Arc::new(ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap());
        let keys = store.keys();
        let pf = Prefetcher::new(Arc::clone(&store));
        pf.hint(&keys);
        // The worker is asynchronous; wait briefly for residency.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if keys.iter().all(|&k| store.is_cached(k)) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(keys.iter().all(|&k| store.is_cached(k)));
        drop(pf); // joins cleanly
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_hint_flood_is_dropped_past_the_queue_capacity() {
        let root = std::env::temp_dir().join(format!(
            "sickle_store_prefetch_flood_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // Resim shards and a cache too small to keep any: every key the
        // worker takes is a re-simulation, so it falls far behind.
        let out = small_output(1, 4, 256);
        let cfg = StoreConfig {
            cache_bytes: 1 << 10,
            ..StoreConfig::default()
        };
        let store = Arc::new(
            ShardStore::ingest_with(&root, &out, cfg, |_| sickle_codec::Codec::resim_default())
                .unwrap(),
        );
        let flood: Vec<ShardKey> = store
            .keys()
            .into_iter()
            .cycle()
            .take(8 * QUEUE_CAPACITY)
            .collect();
        let pf = Prefetcher::new(Arc::clone(&store));
        pf.hint(&flood);
        let queued = pf.queued.load(Ordering::Relaxed);
        assert!(
            queued <= QUEUE_CAPACITY as u64,
            "{queued} keys queued, capacity {QUEUE_CAPACITY}"
        );
        drop(pf); // drains the bounded backlog and joins
        std::fs::remove_dir_all(&root).ok();
    }
}
