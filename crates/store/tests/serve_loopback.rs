//! Loopback integration tests for the serving plane: multi-client
//! bit-identity, crash isolation, injected connection drops, and protocol
//! error handling — all over real TCP sockets on 127.0.0.1.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sickle_hpc::FaultPlan;
use sickle_store::batching::{local_batch, num_batches, BatchSpec};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::cluster::{ClusterClient, ClusterConfig, ClusterMember};
use sickle_store::protocol::{read_frame, write_frame, Request, Response, TAG_RESP_ERROR};
use sickle_store::server::{serve, ServeConfig};
use sickle_store::store::{set_key, ShardStore, StoreConfig};
use sickle_store::testutil::small_output;
use sickle_store::Batch;

const SNAPSHOTS: usize = 2;
const CUBES: usize = 6;
const POINTS: usize = 30;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sickle_loopback_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingests the shared fixture and serves it; returns the store root, the
/// canonical-order sets (the in-memory reference), and the server.
fn start_server(
    tag: &str,
    cfg: ServeConfig,
) -> (
    PathBuf,
    Vec<Arc<sickle_field::SampleSet>>,
    sickle_store::ServerHandle,
) {
    let root = temp_root(tag);
    let out = small_output(SNAPSHOTS, CUBES, POINTS);
    let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
    // Canonical (snapshot, cube) order = ShardKey order, which for the
    // fixture is exactly iteration order.
    let mut keyed: Vec<_> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), Arc::new(s.clone())))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let sets = keyed.into_iter().map(|(_, s)| s).collect();
    let handle = serve(Arc::new(store), cfg).unwrap();
    (root, sets, handle)
}

fn fast_client(addr: std::net::SocketAddr) -> StoreClient {
    StoreClient::new(
        addr.to_string(),
        ClientConfig {
            retries: 4,
            backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
}

/// One server as a one-member cluster — how batches are streamed.
fn fast_cluster(addr: std::net::SocketAddr) -> ClusterClient {
    ClusterClient::connect(
        &[ClusterMember::new("store-0", addr.to_string())],
        ClusterConfig {
            replication: 1,
            client: ClientConfig {
                retries: 4,
                backoff: Duration::from_millis(10),
                timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .unwrap()
}

fn assert_bit_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.shape, b.shape, "{what}: shape");
    assert_eq!(a.inputs.len(), b.inputs.len(), "{what}: input length");
    for (i, (x, y)) in a.inputs.iter().zip(&b.inputs).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: input {i}");
    }
    for (i, (x, y)) in a.targets.iter().zip(&b.targets).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: target {i}");
    }
}

#[test]
fn two_concurrent_clients_stream_bit_identical_epochs() {
    let (root, sets, handle) = start_server("two_clients", ServeConfig::default());
    let spec = BatchSpec {
        seed: 42,
        batch_size: 5,
        tokens: 8,
    };
    let n = sets.len();
    let addr = handle.addr();
    let stream_epoch = move || {
        let mut client = fast_cluster(addr);
        (0..num_batches(n, spec.batch_size))
            .map(|i| client.batch(spec, i).unwrap())
            .collect::<Vec<_>>()
    };
    let a = std::thread::spawn(stream_epoch);
    let b = std::thread::spawn(stream_epoch);
    let batches_a = a.join().unwrap();
    let batches_b = b.join().unwrap();
    for (i, (ba, bb)) in batches_a.iter().zip(&batches_b).enumerate() {
        assert_bit_identical(ba, bb, &format!("client A vs B, batch {i}"));
        let reference = local_batch(&sets, spec, i).unwrap();
        assert_bit_identical(ba, &reference, &format!("client A vs in-memory, batch {i}"));
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killing_one_client_does_not_disturb_the_other() {
    let (root, sets, handle) = start_server("kill_client", ServeConfig::default());
    let spec = BatchSpec {
        seed: 7,
        batch_size: 4,
        tokens: 6,
    };
    let addr = handle.addr();

    // The victim: connects, sends *half a frame header*, then vanishes.
    let victim = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0x03, 0xFF]).unwrap();
        // Dropping the stream here resets the connection mid-frame.
    });

    // The survivor streams a full epoch while the victim dies.
    let n = sets.len();
    let mut client = fast_cluster(addr);
    for i in 0..num_batches(n, spec.batch_size) {
        let got = client.batch(spec, i).unwrap();
        let reference = local_batch(&sets, spec, i).unwrap();
        assert_bit_identical(&got, &reference, &format!("survivor batch {i}"));
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.join().unwrap();
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn injected_drops_recover_with_no_duplicate_or_missing_samples() {
    // Connection 0 (the manifest read at connect, then batch 0) is severed
    // on its 2nd request; the retry arrives on connection 1, which is
    // severed on its 1st request; the next retry (connection 2) succeeds.
    // Every batch must still come back exactly once and bit-identical,
    // proving retries neither skip nor duplicate.
    let plan = FaultPlan::parse("drop@0:1,drop@1:0").unwrap();
    let (root, sets, handle) = start_server(
        "drop_fault",
        ServeConfig {
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    );
    let spec = BatchSpec {
        seed: 99,
        batch_size: 3,
        tokens: 5,
    };
    let n = sets.len();
    let mut client = fast_cluster(handle.addr());
    let mut streamed = Vec::new();
    for i in 0..num_batches(n, spec.batch_size) {
        streamed.push(client.batch(spec, i).unwrap());
    }
    let mut total = 0;
    for (i, got) in streamed.iter().enumerate() {
        let reference = local_batch(&sets, spec, i).unwrap();
        assert_bit_identical(got, &reference, &format!("post-drop batch {i}"));
        total += got.shape.batch;
    }
    assert_eq!(total, n, "each sample served exactly once across the epoch");
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_request_gets_error_frame_and_connection_survives() {
    let (root, _sets, handle) = start_server("malformed", ServeConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Unknown tag: answered with an error frame, not a disconnect.
    write_frame(&mut stream, 0x55, b"junk").unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap();
    assert_eq!(tag, TAG_RESP_ERROR);
    match Response::decode(tag, &payload).unwrap() {
        Response::Error { message, .. } => {
            assert!(message.contains("unknown request tag"), "got: {message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Same connection still serves real requests afterwards.
    let (tag, payload) = Request::Manifest.encode();
    write_frame(&mut stream, tag, &payload).unwrap();
    let (tag, payload) = read_frame(&mut stream).unwrap();
    match Response::decode(tag, &payload).unwrap() {
        Response::Manifest(json) => {
            let m: sickle_store::StoreManifest =
                serde_json::from_str(std::str::from_utf8(&json).unwrap()).unwrap();
            assert_eq!(m.len(), SNAPSHOTS * CUBES);
        }
        other => panic!("expected manifest, got {other:?}"),
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shards_roundtrip_over_the_wire() {
    let (root, sets, handle) = start_server("shard_rt", ServeConfig::default());
    let mut client = fast_client(handle.addr());
    let manifest = client.manifest().unwrap();
    assert_eq!(manifest.len(), sets.len());
    for entry in &manifest.entries {
        let bytes = client.shard(entry.key()).unwrap();
        assert_eq!(
            sickle_field::io::fnv1a64_hex(&bytes),
            entry.hash,
            "wire bytes match the manifest hash"
        );
        let decoded = sickle_field::io::decode_sample_sets(&bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].len(), POINTS);
    }
    // Unknown shard key: a NotFound error, and the client stays usable.
    let err = client
        .shard(sickle_store::ShardKey {
            snapshot: 1000,
            cube: 0,
        })
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(client.manifest().is_ok());
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stats_request_reports_live_counters() {
    let (root, sets, handle) = start_server("stats", ServeConfig::default());
    let spec = BatchSpec {
        seed: 5,
        batch_size: 4,
        tokens: 4,
    };
    let mut client = fast_client(handle.addr());
    let mut cluster = fast_cluster(handle.addr());
    let batches = num_batches(sets.len(), spec.batch_size);
    for i in 0..batches {
        cluster.batch(spec, i).unwrap();
    }
    let snap = client.stats().unwrap();
    assert!(
        snap.requests_total >= batches as u64,
        "served {} requests, stats says {}",
        batches,
        snap.requests_total
    );
    assert!(snap.connections_total >= 1);
    assert!(snap.connections_open >= 1, "this connection is live");
    assert!(snap.bytes_out > snap.bytes_in, "batches dwarf requests");
    assert!(
        snap.cache_hits + snap.cache_misses > 0,
        "batch assembly touches the cache"
    );
    let row = snap
        .connections
        .iter()
        .find(|c| c.requests >= batches as u64)
        .expect("the streaming client's connection row");
    assert!(row.bytes_out > 0);
    assert!(
        snap.metric("serve.request_us").is_some(),
        "request latency histogram registered"
    );
    // A second snapshot counts the first stats request itself.
    let again = client.stats().unwrap();
    assert!(again.requests_total > snap.requests_total);
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shutdown_is_refused_by_default_and_honored_when_allowed() {
    let (root, _sets, handle) = start_server("no_shutdown", ServeConfig::default());
    let mut client = fast_client(handle.addr());
    let err = client.shutdown_server().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(!handle.stop_requested());
    assert!(client.manifest().is_ok(), "server still serving");
    drop(handle);
    std::fs::remove_dir_all(&root).ok();

    let (root, _sets, handle) = start_server(
        "shutdown",
        ServeConfig {
            allow_shutdown: true,
            ..ServeConfig::default()
        },
    );
    let mut client = fast_client(handle.addr());
    client.manifest().unwrap();
    let snap = client.shutdown_server().expect("final stats");
    assert!(snap.requests_total >= 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handle.stop_requested() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.stop_requested(), "shutdown request raises stop flag");
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sixteen_concurrent_clients_serve_without_error() {
    let (root, sets, handle) = start_server(
        "sixteen",
        ServeConfig {
            threads: 16,
            ..ServeConfig::default()
        },
    );
    let spec = BatchSpec {
        seed: 1234,
        batch_size: 4,
        tokens: 4,
    };
    let n = sets.len();
    let addr = handle.addr();
    let workers: Vec<_> = (0..16)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = fast_cluster(addr);
                let batches = num_batches(n, spec.batch_size);
                // Stagger start batches so clients hit different shards.
                for i in 0..batches {
                    let idx = (i + w) % batches;
                    client.batch(spec, idx).unwrap_or_else(|e| {
                        panic!("client {w} failed on batch {idx}: {e}");
                    });
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread must not panic");
    }
    drop(handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_bounced_single_server_is_reprobed_on_every_call() {
    // A one-member cluster has nowhere to fail over to: while the server
    // is gone each call must surface the transport error's own kind, and
    // the first call after it returns must reach it — no mark-down window.
    let (root, sets, handle) = start_server("bounce", ServeConfig::default());
    let addr = handle.addr();
    let store = Arc::new(ShardStore::open(&root, StoreConfig::default()).unwrap());
    let spec = BatchSpec {
        seed: 5,
        batch_size: 4,
        tokens: 5,
    };
    let mut client = ClusterClient::connect(
        &[ClusterMember::new("store-0", addr.to_string())],
        ClusterConfig {
            replication: 1,
            client: ClientConfig {
                retries: 1,
                backoff: Duration::from_millis(1),
                timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let first = client.batch(spec, 0).unwrap();
    assert_bit_identical(
        &first,
        &local_batch(&sets, spec, 0).unwrap(),
        "before bounce",
    );

    drop(handle);
    for attempt in 0..2 {
        let err = client.batch(spec, 1).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::ConnectionRefused,
            "call {attempt} while down: {err}"
        );
    }
    assert!(
        client.down_members().is_empty(),
        "a sole owner is never marked down"
    );

    let restarted = serve(
        store,
        ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let got = client
        .batch(spec, 1)
        .expect("first call after restart reaches the server");
    assert_bit_identical(&got, &local_batch(&sets, spec, 1).unwrap(), "after bounce");
    drop(restarted);
    std::fs::remove_dir_all(&root).ok();
}
