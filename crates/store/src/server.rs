//! Multi-client shard and tensor server over plain `std::net` TCP.
//!
//! The server is deliberately std-only, and schedules at **request**
//! granularity: a nonblocking accept loop admits connections (or sheds
//! them with an explicit `Busy` frame past [`ServeConfig::max_conns`]),
//! and a fixed pool of worker threads round-robins every open connection,
//! assembling frames from nonblocking reads into a per-connection buffer
//! and answering each completed request in place. A connection that is
//! idle between requests costs a worker nothing — which is what lets a
//! cluster client hold sockets to N servers at once while each server
//! runs a pool far smaller than its connection count. (The previous
//! design parked one worker per connection for its whole lifetime; with
//! fan-out clients that deadlocks small pools, so it had to go.)
//!
//! Error handling contract: a *request* failure (unknown shard, malformed
//! frame) is answered with an error frame and the connection stays usable;
//! a *connection* failure (EOF, injected drop, idle expiry) closes only
//! that connection. Overload is answered with a `Busy` error frame at
//! accept time — explicit backpressure, never a silent drop. The server
//! never dies because a client did.
//!
//! Fault injection: a [`FaultPlan`] entry `drop@C:R` severs connection `C`
//! mid-way through the response to its `R`-th request (a partial frame is
//! written, then the socket is shut down), exercising client
//! reconnect-and-retry. `delay@C:R:ms` stalls a response; `kill@C:R`
//! closes the connection before responding; `die@C:R` exits the whole
//! server process on the spot (no response, no trace flush), exercising
//! cluster failover. Poison entries are ignored — the data plane has no
//! in-place result to corrupt.

use std::collections::{HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sickle_hpc::fault::{FaultAction, FaultInjector, FaultPlan};
use sickle_obs::TraceContext;

use crate::batching::tensorize_set;
use crate::manifest::ShardKey;
use crate::prefetch::Prefetcher;
use crate::protocol::{
    write_frame, Request, Response, TensorBlock, WireErrorKind, MAX_FRAME, TAG_RESP_SHARD,
};
use crate::shard_bytes::ShardBytes;
use crate::stats::{ConnGuard, ConnRegistry, StatsSnapshot};
use crate::store::ShardStore;

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads. Workers multiplex all open connections, so this
    /// bounds concurrent *request handling*, not connection count.
    pub threads: usize,
    /// Unit of the idle window (kept from the blocking-I/O era so callers
    /// keep their tuning): a silent connection is closed after
    /// `read_timeout * idle_timeouts` without a byte.
    pub read_timeout: Duration,
    /// Multiplier on `read_timeout` for the idle window.
    pub idle_timeouts: u32,
    /// Optional fault plan (`drop@conn:request`, `die@conn:request`, ...)
    /// for resilience tests.
    pub fault_plan: Option<FaultPlan>,
    /// Honor `Request::Shutdown` (off by default: a shared server should
    /// not be stoppable by any client that can reach it).
    pub allow_shutdown: bool,
    /// Admission bound: past this many open connections, new arrivals are
    /// answered with one `Busy` error frame and closed (`0` = unlimited).
    /// Explicit shedding keeps overload visible to clients as retryable
    /// backpressure instead of connect timeouts.
    pub max_conns: usize,
    /// Synthetic service time per shard key served (µs), slept in the
    /// worker while the request is handled. `0` (the default) disables it.
    /// `loadgen` uses this to model per-node disk/NIC bandwidth on a
    /// shared-CPU loopback host, so cluster scaling measures the data
    /// plane's load spreading rather than the host's core count.
    pub model_us_per_key: u64,
    /// Serve the zero-copy data plane (default): `GetShard` ships slices
    /// of the cached `mmap`/`read_at` shard handle through
    /// `write_vectored`, `GetTensors` tensorizes borrowed views, and no
    /// response payload is assembled into a contiguous frame buffer.
    /// `false` selects the legacy path — uncached `fs::read` plus owned
    /// encode plus copying writes — kept as the measured baseline for the
    /// `perf_serve_path` bench.
    pub zero_copy: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 8,
            read_timeout: Duration::from_millis(250),
            idle_timeouts: 40,
            fault_plan: None,
            allow_shutdown: false,
            max_conns: 1024,
            model_us_per_key: 0,
            zero_copy: true,
        }
    }
}

/// How long a worker sleeps after visiting a connection that had nothing
/// to read — the poll cadence for idle connections. Active connections
/// are revisited without sleeping, so throughput never waits on this.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Sleep between retries of a partial nonblocking write (response larger
/// than the socket buffer).
const WRITE_POLL: Duration = Duration::from_millis(1);

/// A peer that stops reading mid-response is cut after this long.
const WRITE_DEADLINE: Duration = Duration::from_secs(30);

/// Bytes of a frame header on the wire (tag + length prefix).
const FRAME_HEADER: usize = 5;

struct Shared {
    store: Arc<ShardStore>,
    injector: FaultInjector,
    prefetcher: Prefetcher,
    cfg: ServeConfig,
    stop: Arc<AtomicBool>,
    conns: ConnRegistry,
    queue: Mutex<VecDeque<Conn>>,
}

/// One open connection's scheduling state, owned by whichever worker is
/// currently visiting it (or parked in the shared queue).
struct Conn {
    stream: TcpStream,
    id: usize,
    /// Partially assembled inbound frame bytes.
    buf: Vec<u8>,
    /// Last instant a byte arrived; drives idle expiry.
    last_activity: Instant,
    /// Accept instant, consumed by the first worker visit to report the
    /// dispatch-queue wait.
    accepted: Option<Instant>,
    /// In-flight response (short-write continuation state). While this is
    /// `Some`, the connection parks between `write_vectored` attempts
    /// instead of pinning a worker — the request-granular scheduler's
    /// contract extends to writes.
    out: Option<PendingWrite>,
    guard: ConnGuard,
}

/// One buffer in an outbound iovec chain: either an owned frame piece
/// (header, tensor block, error frame) or a whole shard's bytes shared
/// straight out of the store cache — the page-cache-backed mapping when
/// mmap is on. Holding the `Arc` here is what keeps a mapped region alive
/// until the last byte has left the socket, even if the LRU evicts the
/// shard mid-write.
enum Chunk {
    Owned(Vec<u8>),
    Shard(Arc<ShardBytes>),
}

impl Chunk {
    fn as_slice(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shard(handle) => handle.as_slice(),
        }
    }
}

/// A response mid-write: the full iovec chain (`chunks[0]` is the 5-byte
/// frame header) plus a cursor into it. `write_vectored` resumes from the
/// cursor on every visit until the chain drains or [`WRITE_DEADLINE`]
/// expires.
struct PendingWrite {
    chunks: Vec<Chunk>,
    /// Index of the first chunk with unsent bytes.
    chunk: usize,
    /// Offset of the first unsent byte within that chunk.
    offset: usize,
    /// When the response was enqueued; bounds how long a non-reading peer
    /// can hold the buffers.
    started: Instant,
}

/// Advances the pending write with as many `write_vectored` calls as the
/// socket accepts. `Ok(true)` = fully flushed, `Ok(false)` = would block
/// (park and retry); errors (including a blown [`WRITE_DEADLINE`]) mean
/// the connection must close.
fn try_flush(conn: &mut Conn) -> io::Result<bool> {
    let Some(out) = conn.out.as_mut() else {
        return Ok(true);
    };
    loop {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(out.chunks.len() - out.chunk);
        for (i, chunk) in out.chunks.iter().enumerate().skip(out.chunk) {
            let bytes = chunk.as_slice();
            let from = if i == out.chunk { out.offset } else { 0 };
            if from < bytes.len() {
                slices.push(IoSlice::new(&bytes[from..]));
            }
        }
        if slices.is_empty() {
            conn.out = None;
            return Ok(true);
        }
        match conn.stream.write_vectored(&slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(mut n) => {
                while n > 0 {
                    let remaining = out.chunks[out.chunk].as_slice().len() - out.offset;
                    if n >= remaining {
                        n -= remaining;
                        out.chunk += 1;
                        out.offset = 0;
                    } else {
                        out.offset += n;
                        n = 0;
                    }
                }
                while out.chunk < out.chunks.len()
                    && out.offset >= out.chunks[out.chunk].as_slice().len()
                {
                    out.chunk += 1;
                    out.offset = 0;
                }
                if out.chunk >= out.chunks.len() {
                    conn.out = None;
                    return Ok(true);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if out.started.elapsed() >= WRITE_DEADLINE {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                return Ok(false);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A running server. [`shutdown`](Self::shutdown) (or drop) stops the
/// accept loop and joins every thread; connections in flight finish their
/// current request first.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once the stop flag is set — by [`shutdown`](Self::shutdown) or
    /// by a client's `Request::Shutdown` when `allow_shutdown` is on. Lets
    /// a hosting process (the `sickle-serve` binary) exit early instead of
    /// sleeping out its deadline.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Signals every thread to stop and joins them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and starts serving a store.
///
/// # Errors
/// I/O errors from binding the listener.
pub fn serve(store: Arc<ShardStore>, cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    sickle_obs::info!("serve", "listening on {addr}");

    let stop = Arc::new(AtomicBool::new(false));
    let plan = cfg.fault_plan.clone().unwrap_or_else(FaultPlan::none);
    let shared = Arc::new(Shared {
        prefetcher: Prefetcher::new(Arc::clone(&store)),
        injector: FaultInjector::new(plan),
        store,
        cfg: cfg.clone(),
        stop: Arc::clone(&stop),
        conns: ConnRegistry::default(),
        queue: Mutex::new(VecDeque::new()),
    });

    // Thread spawns can fail under fd/thread exhaustion; a partial pool
    // must not leak — raise the stop flag, join what started, and report.
    let abort = |spawned: Vec<JoinHandle<()>>, e: io::Error| {
        stop.store(true, Ordering::SeqCst);
        for h in spawned {
            let _ = h.join();
        }
        Err(e)
    };
    let mut workers = Vec::with_capacity(cfg.threads.max(1));
    for w in 0..cfg.threads.max(1) {
        let shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name(format!("sickle-serve-worker-{w}"))
            .spawn(move || worker_loop(&shared))
        {
            Ok(h) => workers.push(h),
            Err(e) => return abort(workers, e),
        }
    }

    let accept_shared = Arc::clone(&shared);
    let accept = match std::thread::Builder::new()
        .name("sickle-serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))
    {
        Ok(h) => h,
        Err(e) => return abort(workers, e),
    };

    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next_conn = 0usize;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let bound = shared.cfg.max_conns;
                if bound > 0 && shared.conns.open_count() >= bound {
                    shed(stream, bound, shared);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = next_conn;
                next_conn += 1;
                sickle_obs::counter!("serve.conn.accepted", 1usize);
                let conn = Conn {
                    stream,
                    id,
                    buf: Vec::new(),
                    last_activity: Instant::now(),
                    accepted: Some(Instant::now()),
                    out: None,
                    guard: shared.conns.register(),
                };
                queue_lock(shared).push_back(conn);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Drain parked connections so shutdown closes promptly.
    queue_lock(shared).clear();
}

/// Answers an over-bound arrival with one `Busy` frame and closes. The
/// socket is still blocking here (fresh from accept, empty send buffer),
/// so the write completes or fails immediately — no worker is tied up.
/// The counter only moves when the whole frame went out: the overload
/// test equates it with client-observed busy retries.
fn shed(mut stream: TcpStream, bound: usize, shared: &Shared) {
    let (tag, payload) = Response::Error {
        kind: WireErrorKind::Busy,
        message: format!("server at its {bound}-connection admission bound; retry with backoff"),
    }
    .encode();
    let _ = stream.set_nodelay(true);
    if write_frame(&mut stream, tag, &payload).is_ok() {
        sickle_obs::counter!("serve.shed", 1usize);
        // Half-close, then drain until the peer hangs up: closing with
        // unread request bytes in the receive buffer would RST the
        // connection and could destroy the Busy frame before the peer
        // reads it — breaking the shed == client-observed-busy ledger the
        // overload test audits. The drain is bounded by the read timeout,
        // so a silent peer cannot stall the accept loop for long.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
        let mut sink = [0u8; 1024];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }
}

fn queue_lock(shared: &Shared) -> std::sync::MutexGuard<'_, VecDeque<Conn>> {
    shared.queue.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: &Shared) {
    // Consecutive idle visits since the last productive one. A worker only
    // sleeps after a full fruitless sweep of the parked connections:
    // sleeping per idle *visit* would make a ready connection wait behind
    // a chain of 200µs naps proportional to how many idle peers happen to
    // sit ahead of it in the queue.
    let mut idle_streak = 0usize;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let conn = queue_lock(shared).pop_front();
        let Some(mut conn) = conn else {
            idle_streak = 0;
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if let Some(accepted) = conn.accepted.take() {
            sickle_obs::histogram!("serve.queue_wait_us", accepted.elapsed().as_micros() as f64);
        }
        match visit(&mut conn, shared) {
            Visit::Active => {
                idle_streak = 0;
                queue_lock(shared).push_back(conn);
            }
            Visit::Idle => {
                let window = shared.cfg.read_timeout * shared.cfg.idle_timeouts.max(1);
                if conn.last_activity.elapsed() > window {
                    sickle_obs::counter!("serve.conn.idle_closed", 1usize);
                    // Dropping conn closes the socket and deregisters.
                } else {
                    let parked = {
                        let mut queue = queue_lock(shared);
                        queue.push_back(conn);
                        queue.len()
                    };
                    idle_streak += 1;
                    if idle_streak >= parked {
                        idle_streak = 0;
                        std::thread::sleep(IDLE_POLL);
                    }
                }
            }
            Visit::Waiting => {
                // Mid-write: the peer's socket buffer is full, not the
                // peer silent — exempt from idle expiry ([`WRITE_DEADLINE`]
                // bounds this state instead) but parked like an idle
                // connection so the worker stays free.
                let parked = {
                    let mut queue = queue_lock(shared);
                    queue.push_back(conn);
                    queue.len()
                };
                idle_streak += 1;
                if idle_streak >= parked {
                    idle_streak = 0;
                    std::thread::sleep(IDLE_POLL);
                }
            }
            Visit::Close => idle_streak = 0,
        }
    }
}

enum Visit {
    /// Bytes or requests moved; revisit without sleeping.
    Active,
    /// Nothing to read; park and poll later.
    Idle,
    /// A response is queued but the socket would block; park and flush on
    /// a later visit without starting the idle-expiry clock.
    Waiting,
    /// Peer gone, fault fired, or protocol breach: drop the connection.
    Close,
}

/// One worker visit: finish any in-flight response, pull whatever bytes
/// are ready, answer every complete frame, put the connection back (or
/// not).
fn visit(conn: &mut Conn, shared: &Shared) -> Visit {
    // Drain the pending write before touching reads: response chunks must
    // leave in order, and the request/response protocol means the peer is
    // blocked on this response anyway.
    if conn.out.is_some() {
        match try_flush(conn) {
            Ok(true) => conn.last_activity = Instant::now(),
            Ok(false) => return Visit::Waiting,
            Err(_) => {
                sickle_obs::counter!("serve.conn.write_stalled", 1usize);
                return Visit::Close;
            }
        }
    }
    let mut moved = false;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // A hostile length prefix closes the connection before any
        // allocation — same discipline as the blocking read_frame had.
        if conn.buf.len() >= FRAME_HEADER {
            let len = frame_len(&conn.buf);
            if len > MAX_FRAME {
                sickle_obs::counter!("serve.request.malformed", 1usize);
                return Visit::Close;
            }
            if conn.buf.len() >= FRAME_HEADER + len {
                break; // complete frame buffered; go answer it
            }
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Visit::Close, // EOF: client is gone
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                moved = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Visit::Close,
        }
    }
    // Answer every complete frame (the protocol is request/response per
    // connection, so normally at most one is waiting). The request is
    // decoded straight out of the connection buffer — no payload copy —
    // and the loop stops if an answer parks a pending write.
    while conn.out.is_none()
        && conn.buf.len() >= FRAME_HEADER
        && conn.buf.len() >= FRAME_HEADER + frame_len(&conn.buf)
    {
        let len = frame_len(&conn.buf);
        let tag = conn.buf[0];
        let decoded =
            Request::decode_with_context(tag, &conn.buf[FRAME_HEADER..FRAME_HEADER + len]);
        conn.buf.drain(..FRAME_HEADER + len);
        moved = true;
        if !handle_request(conn, decoded, len, shared) {
            return Visit::Close;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Visit::Close;
        }
    }
    if moved {
        Visit::Active
    } else {
        Visit::Idle
    }
}

fn frame_len(buf: &[u8]) -> usize {
    u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize
}

/// A computed answer, before any wire bytes exist. `Shard` carries the
/// cached handle by reference count so the payload can go to the socket
/// as an iovec slice with zero intermediate copies; everything else is an
/// owned [`Response`].
enum Reply {
    Message(Response),
    Shard(Arc<ShardBytes>),
}

impl Reply {
    /// Materializes an owned `Response` — the legacy copying path (and the
    /// fault-injected sever, which needs contiguous bytes to truncate).
    fn into_response(self) -> Response {
        match self {
            Reply::Message(resp) => resp,
            Reply::Shard(handle) => {
                crate::shard_bytes::copytrace::note_copy(handle.len());
                Response::Shard(handle.as_slice().to_vec())
            }
        }
    }

    /// Splits into the frame tag plus the payload as a chunk chain for
    /// vectored writes. Shard bytes are shared, never copied.
    fn into_chunks(self) -> (u8, Vec<Chunk>) {
        match self {
            Reply::Shard(handle) => (TAG_RESP_SHARD, vec![Chunk::Shard(handle)]),
            Reply::Message(resp) => {
                let (tag, pieces) = resp.encode_chunks();
                (tag, pieces.into_iter().map(Chunk::Owned).collect())
            }
        }
    }
}

/// Answers one request on `conn`. Returns `false` when the connection
/// must close (fault fired, write failed).
fn handle_request(
    conn: &mut Conn,
    decoded: io::Result<(Request, Option<TraceContext>)>,
    payload_len: usize,
    shared: &Shared,
) -> bool {
    let t0 = Instant::now();
    match shared.injector.on_cube(conn.id) {
        FaultAction::Proceed | FaultAction::Poison => {}
        FaultAction::Delay(d) => std::thread::sleep(d),
        FaultAction::Kill => {
            sickle_obs::counter!("serve.conn.killed", 1usize);
            let _ = conn.stream.shutdown(Shutdown::Both);
            return false;
        }
        FaultAction::Drop => {
            sickle_obs::counter!("serve.conn.dropped", 1usize);
            sever_mid_response(conn, decoded, shared);
            return false;
        }
        FaultAction::Die => {
            // Process-level chaos: no response, no trace flush, no joined
            // threads — exactly what a node loss looks like to clients.
            eprintln!("sickle-serve: injected die fault (conn {})", conn.id);
            std::process::exit(86);
        }
    }

    // A request carrying a trace context parents this span under the
    // *client's* span (cross-process link in the merged trace).
    let parent = match &decoded {
        Ok((_, Some(ctx))) => ctx.span_id,
        _ => sickle_obs::current_span_id(),
    };
    let req_span = sickle_obs::child_span!(parent, "serve.request", conn = conn.id);
    let reply = match decoded {
        Ok((req, _)) => answer(req, shared),
        Err(e) => {
            sickle_obs::counter!("serve.request.malformed", 1usize);
            Reply::Message(Response::from_error(&e))
        }
    };

    if !shared.cfg.zero_copy {
        // Legacy data plane: contiguous encode, copying writes.
        let response = reply.into_response();
        let enc0 = Instant::now();
        let (rtag, rpayload) = {
            let _s = sickle_obs::span!("serve.encode");
            response.encode()
        };
        sickle_obs::histogram!("serve.encode_us", enc0.elapsed().as_micros() as f64);
        let write_ok = {
            let _s = sickle_obs::span!("serve.write", bytes = rpayload.len());
            write_response(&mut conn.stream, rtag, &rpayload).is_ok()
        };
        drop(req_span);
        if !write_ok {
            return false;
        }
        record_request(conn, payload_len, rpayload.len(), t0);
        return true;
    }

    // Zero-copy data plane: frame header + payload pieces go out as one
    // iovec chain; a short write parks continuation state on the
    // connection instead of pinning this worker.
    let enc0 = Instant::now();
    let (rtag, pieces) = {
        let _s = sickle_obs::span!("serve.encode");
        reply.into_chunks()
    };
    sickle_obs::histogram!("serve.encode_us", enc0.elapsed().as_micros() as f64);
    let body_len: usize = pieces.iter().map(|c| c.as_slice().len()).sum();
    if body_len > MAX_FRAME {
        drop(req_span);
        return false;
    }
    let mut header = vec![0u8; FRAME_HEADER];
    header[0] = rtag;
    header[1..].copy_from_slice(&(body_len as u32).to_le_bytes());
    let mut chain = Vec::with_capacity(1 + pieces.len());
    chain.push(Chunk::Owned(header));
    chain.extend(pieces);
    conn.out = Some(PendingWrite {
        chunks: chain,
        chunk: 0,
        offset: 0,
        started: Instant::now(),
    });
    let flushed = {
        let _s = sickle_obs::span!("serve.write", bytes = body_len);
        try_flush(conn)
    };
    drop(req_span);
    if flushed.is_err() {
        sickle_obs::counter!("serve.conn.write_stalled", 1usize);
        return false;
    }
    // The request is answered once its bytes are queued; an unflushed tail
    // drains on later visits.
    record_request(conn, payload_len, body_len, t0);
    true
}

fn record_request(conn: &mut Conn, payload_len: usize, body_len: usize, t0: Instant) {
    let bytes_in = (FRAME_HEADER + payload_len) as u64;
    let bytes_out = (FRAME_HEADER + body_len) as u64;
    conn.guard.counters().record(bytes_in, bytes_out);
    sickle_obs::counter!("store.serve.requests", 1usize);
    sickle_obs::counter!("store.serve.bytes_in", bytes_in);
    sickle_obs::counter!("store.serve.bytes_out", bytes_out);
    sickle_obs::histogram!("serve.request_us", t0.elapsed().as_micros() as f64);
    sickle_obs::counter!("serve.request.ok", 1usize);
}

/// `write_all` over a nonblocking socket: spins on `WouldBlock` with a
/// short sleep, gives up past [`WRITE_DEADLINE`] (a peer that stopped
/// reading must not pin a worker forever).
fn write_poll(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + WRITE_DEADLINE;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                std::thread::sleep(WRITE_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn write_response(stream: &mut TcpStream, tag: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response exceeds MAX_FRAME",
        ));
    }
    let mut header = [0u8; FRAME_HEADER];
    header[0] = tag;
    header[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    write_poll(stream, &header)?;
    write_poll(stream, payload)?;
    stream.flush()
}

/// Builds the real response, writes a deliberately truncated frame, and
/// cuts the socket — the injected `drop` fault. The client observes a
/// mid-frame EOF, which its retry loop must treat as transient.
fn sever_mid_response(
    conn: &mut Conn,
    decoded: io::Result<(Request, Option<TraceContext>)>,
    shared: &Shared,
) {
    let reply = match decoded {
        Ok((req, _)) => answer(req, shared),
        Err(e) => Reply::Message(Response::from_error(&e)),
    };
    let (rtag, rpayload) = reply.into_response().encode();
    let mut header = [0u8; FRAME_HEADER];
    header[0] = rtag;
    header[1..].copy_from_slice(&(rpayload.len() as u32).to_le_bytes());
    let _ = write_poll(&mut conn.stream, &header);
    let _ = write_poll(&mut conn.stream, &rpayload[..rpayload.len() / 2]);
    let _ = conn.stream.flush();
    let _ = conn.stream.shutdown(Shutdown::Both);
}

fn answer(req: Request, shared: &Shared) -> Reply {
    match serve_request(req, shared) {
        Ok(reply) => reply,
        Err(e) => Reply::Message(Response::from_error(&e)),
    }
}

/// Sleeps out the synthetic per-key service time, when configured — the
/// loadgen capacity model (see [`ServeConfig::model_us_per_key`]).
fn model_service(shared: &Shared, keys_served: usize) {
    let us = shared.cfg.model_us_per_key;
    if us > 0 && keys_served > 0 {
        std::thread::sleep(Duration::from_micros(us * keys_served as u64));
    }
}

fn serve_request(req: Request, shared: &Shared) -> io::Result<Reply> {
    match req {
        Request::Manifest => {
            let json = serde_json::to_string(shared.store.manifest())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            Ok(Reply::Message(Response::Manifest(json.into_bytes())))
        }
        Request::GetShard(key) => {
            if shared.cfg.zero_copy {
                // The cached handle's bytes ship straight to the socket;
                // the mapped (or read-once) view is hash-verified at
                // residency, not per request.
                Ok(Reply::Shard(shared.store.shard_handle(key)?))
            } else {
                Ok(Reply::Message(Response::Shard(
                    shared.store.shard_bytes_baseline(key)?,
                )))
            }
        }
        Request::GetTensors {
            tokens,
            keys,
            hints,
        } => {
            let tokens = tokens as usize;
            let mut features = 0usize;
            let mut inputs = Vec::with_capacity(keys.len() * tokens);
            let mut targets = Vec::with_capacity(keys.len());
            for &key in &keys {
                // Zero-copy mode tensorizes borrowed views of the raw
                // shard handle — identity shards never materialize an
                // owned `SampleSet` just to be summed.
                let (i, t, dim) = if shared.cfg.zero_copy {
                    shared.store.tensorized(key, tokens)?
                } else {
                    let set = shared.store.get(key)?;
                    let (i, t) = tensorize_set(&set, tokens)?;
                    let dim = set.features.dim();
                    (i, t, dim)
                };
                if features == 0 {
                    features = dim;
                } else if dim != features {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "feature dimension mismatch across requested keys",
                    ));
                }
                inputs.extend(i);
                targets.extend(t);
            }
            // The request's own shards are resident now: warm what the
            // client says comes next while this response is written and
            // the client computes on it.
            hint_cold(shared, &hints);
            model_service(shared, keys.len());
            Ok(Reply::Message(Response::Tensors(TensorBlock {
                count: keys.len(),
                tokens,
                features,
                inputs,
                targets,
            })))
        }
        Request::Stats => Ok(Reply::Message(Response::Stats(
            StatsSnapshot::collect(&shared.conns)
                .with_manifest(shared.store.manifest())
                .to_json(),
        ))),
        Request::Shutdown => {
            if !shared.cfg.allow_shutdown {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "shutdown not enabled on this server (start with allow_shutdown)",
                ));
            }
            // Snapshot first, then raise the stop flag: the response still
            // goes out (the worker re-checks stop only after answering),
            // and it doubles as the server's final stats.
            let snap = StatsSnapshot::collect(&shared.conns).with_manifest(shared.store.manifest());
            sickle_obs::info!("serve", "shutdown requested by client");
            shared.stop.store(true, Ordering::SeqCst);
            Ok(Reply::Message(Response::Stats(snap.to_json())))
        }
    }
}

/// Hands the hinted keys that are not already resident to the
/// prefetcher. The client hints exactly one batch ahead, so the lookahead
/// depth is 1 by construction. Hints come off the wire, so keys this
/// store does not hold and repeats are dropped here, and the prefetcher's
/// queue bounds whatever is left.
fn hint_cold(shared: &Shared, hints: &[ShardKey]) {
    let mut seen = HashSet::new();
    let cold: Vec<ShardKey> = hints
        .iter()
        .copied()
        .filter(|&k| {
            shared.store.manifest().entry(k).is_some()
                && !shared.store.is_cached(k)
                && seen.insert(k)
        })
        .collect();
    shared.prefetcher.hint(&cold);
}
