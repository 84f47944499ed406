//! The TCP daemon: accept loop, durable request spool, crash recovery,
//! and the two graceful-shutdown modes.
//!
//! # Durability model
//!
//! When a spool directory is configured, each admitted spec owns one entry
//! `req-<hash16>/` inside it:
//!
//! * `request.json` — the request's wire payload, written atomically
//!   (tmp + fsync + rename) right after admission. Its existence is the
//!   daemon's *acceptance record*.
//! * `ckpt/` — `BDDCFCKP` checkpoints, written by the reduction when the
//!   request asked for checkpointing (and always for recovered jobs).
//! * `response.json` — the response's wire payload, written atomically on
//!   completion. Its existence marks the entry *done*.
//!
//! A restarted daemon rescans the spool before accepting connections:
//! every entry with an acceptance record but no completion record is
//! resubmitted (resuming from its latest checkpoint when one exists), so a
//! `SIGKILL` loses no accepted request — the chaos harness asserts exactly
//! this. An entry whose request carried a deadline is the exception: the
//! deadline passed during the outage, so the entry is completed with a
//! `deadline` error record instead of being run. A later request for an
//! already-completed spec replays the spooled response, but only after it
//! passes the same artifact audit a cache hit must pass.
//!
//! # Shutdown
//!
//! `unsafe` is forbidden workspace-wide, so the daemon does not hook
//! signals; shutdown is a protocol operation. `drain` finishes all
//! admitted work, `checkpoint` cancels in-flight jobs at their next
//! resumable boundary and leaves the rest spooled for the next start.

use crate::cache::{CacheStats, ResponseCache};
use crate::job::passes_audit;
use crate::pool::{DoneHook, Job, PoolConfig, PoolCounters, WorkerPool};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, RequestBody, Response, ShutdownMode,
    Status, SynthSpec, DEFAULT_MAX_FRAME,
};
use crate::{json, json::Json};
use bddcf_bdd::vfs::{self, StdVfs, Vfs};
use bddcf_bdd::{Clock, MonotonicClock};
use bddcf_core::quarantine_name;
use std::collections::HashSet;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue depth.
    pub queue_capacity: usize,
    /// Global in-flight node budget.
    pub max_inflight_nodes: usize,
    /// Default per-job node shard.
    pub default_node_limit: usize,
    /// Frame payload cap.
    pub max_frame_len: usize,
    /// Validated response cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Durable spool directory (None disables spooling, checkpointing, and
    /// crash recovery).
    pub spool_dir: Option<PathBuf>,
    /// Circuit-breaker consecutive-failure threshold.
    pub breaker_threshold: u32,
    /// Circuit-breaker open-state cooldown (rejections before a trial).
    pub breaker_cooldown: u32,
    /// Time source (injectable for deterministic deadline tests).
    pub clock: Arc<dyn Clock>,
    /// Test hook: hold picked-up jobs while true (see [`PoolConfig::hold`]).
    pub hold: Option<Arc<AtomicBool>>,
    /// Filesystem behind the spool, cache records, and checkpoints —
    /// [`StdVfs`] in production, a fault-injecting
    /// [`FaultVfs`](bddcf_bdd::vfs::FaultVfs) under `bddcf chaos`.
    pub vfs: Arc<dyn Vfs>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 16,
            max_inflight_nodes: 1 << 22,
            default_node_limit: 1 << 20,
            max_frame_len: DEFAULT_MAX_FRAME,
            cache_capacity: 64,
            spool_dir: None,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            clock: Arc::new(MonotonicClock),
            hold: None,
            vfs: Arc::new(StdVfs),
        }
    }
}

/// Final numbers reported by [`Server::wait`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Pool counters at exit.
    pub pool: PoolCounters,
    /// Cache counters at exit.
    pub cache: CacheStats,
    /// Spool entries resubmitted at startup (crash recovery).
    pub recovered: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Storage faults observed on the spool path (failed request/response
    /// record writes, torn records quarantined on rescan).
    pub storage_faults: u64,
    /// Accepted-and-replied requests whose durable record could not be
    /// written; their responses carried `storage_degraded`.
    pub storage_nondurable: u64,
}

/// Whether the daemon can currently write durable records, plus the fault
/// counters behind the `stats` op. ENOSPC/EIO on the spool flips
/// `degraded` on (storage-degraded mode: admissions keep working, replies
/// carry `storage_degraded`, nothing is cached); the next successful
/// durable write flips it back off — breaker-style recovery, observable by
/// clients polling `stats`.
#[derive(Default)]
struct StorageHealth {
    degraded: AtomicBool,
    faults: AtomicU64,
    nondurable: AtomicU64,
}

impl StorageHealth {
    fn mark_fault(&self) {
        // Monotonic counter, read only for stats; no payload is
        // published through it. xlint: relaxed-ok
        self.faults.fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire load in stats_payload: a client
        // that observes `storage_degraded: true` also observes the fault
        // counters bumped before the flag flipped.
        self.degraded.store(true, Ordering::Release);
    }

    fn mark_ok(&self) {
        self.degraded.store(false, Ordering::Release);
    }

    fn note_nondurable(&self) {
        // xlint: relaxed-ok — monotonic counter, read only for stats.
        self.nondurable.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by connection threads and the pool's completion hook.
struct Store {
    cache: Mutex<ResponseCache>,
    /// Spec hashes whose spool entry is owned by an in-flight job; a
    /// second concurrent request for the same spec runs spool-less (the
    /// artifacts are deterministic, so both replies are byte-identical).
    pending: Mutex<HashSet<u64>>,
    spool: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    health: StorageHealth,
}

struct Inner {
    store: Arc<Store>,
    pool: WorkerPool,
    max_frame_len: usize,
    clock: Arc<dyn Clock>,
    stop: AtomicBool,
    shutdown_mode: Mutex<Option<ShutdownMode>>,
    connections: AtomicU64,
}

/// A running daemon. Dropping it without [`Server::wait`] leaves the
/// accept thread running; long-lived embedders should always `wait`.
pub struct Server {
    inner: Arc<Inner>,
    accept_handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
    recovered: u64,
}

impl Server {
    /// Binds, replays the spool, and starts accepting.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        if let Some(dir) = &config.spool_dir {
            config.vfs.create_dir_all(dir)?;
        }
        let store = Arc::new(Store {
            cache: Mutex::new(ResponseCache::new(config.cache_capacity)),
            pending: Mutex::new(HashSet::new()),
            spool: config.spool_dir.clone(),
            vfs: Arc::clone(&config.vfs),
            health: StorageHealth::default(),
        });
        let done: DoneHook = {
            let store = Arc::clone(&store);
            Arc::new(move |job: &Job, response: &mut Response| {
                if let Some(entry) = &job.spool_entry {
                    // Any terminal outcome is a completion record; failed
                    // specs are re-executed for fresh requests but are not
                    // "lost" for recovery accounting. A failed write flips
                    // the daemon storage-degraded and flags the reply
                    // *before* it is sent: an accepted-and-replied request
                    // is either durably recorded or explicitly non-durable.
                    match vfs::write_atomic(
                        store.vfs.as_ref(),
                        entry,
                        "response.json",
                        &response.to_bytes(),
                    ) {
                        Ok(()) => store.health.mark_ok(),
                        Err(_) => {
                            store.health.mark_fault();
                            store.health.note_nondurable();
                            response.storage_degraded = true;
                        }
                    }
                    lock(&store.pending).remove(&job.spec.hash());
                }
                // Only clean, durably-recorded results are cacheable: a
                // storage-degraded response must be recomputed (and
                // re-recorded) once storage recovers.
                if response.status == Status::Ok && !response.cached && !response.storage_degraded {
                    if let Some(result) = &response.result {
                        lock(&store.cache).insert(&job.spec, result, false);
                    }
                }
            })
        };
        let pool = WorkerPool::start(
            PoolConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                max_inflight_nodes: config.max_inflight_nodes,
                default_node_limit: config.default_node_limit,
                breaker_threshold: config.breaker_threshold,
                breaker_cooldown: config.breaker_cooldown,
                clock: Arc::clone(&config.clock),
                hold: config.hold.clone(),
                vfs: Arc::clone(&config.vfs),
            },
            done,
        );
        let inner = Arc::new(Inner {
            store,
            pool,
            max_frame_len: config.max_frame_len,
            clock: Arc::clone(&config.clock),
            stop: AtomicBool::new(false),
            shutdown_mode: Mutex::new(None),
            connections: AtomicU64::new(0),
        });

        let recovered = match &config.spool_dir {
            Some(dir) => recover_spool(&inner, dir),
            None => 0,
        };

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name("bddcf-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))?;
        Ok(Server {
            inner,
            accept_handle: Some(accept_handle),
            local_addr,
            recovered,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until a protocol shutdown completes, then returns the final
    /// stats. (With no shutdown request this serves forever.)
    pub fn wait(mut self) -> ServerStats {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // The shutdown connection already ran begin_drain/begin_halt; a
        // stop without a recorded mode (not reachable via protocol) drains.
        if lock(&self.inner.shutdown_mode).is_none() {
            self.inner.pool.begin_drain();
        }
        let pool = self.inner.pool.join();
        ServerStats {
            pool,
            cache: lock(&self.inner.store.cache).stats(),
            recovered: self.recovered,
            connections: self.inner.connections.load(Ordering::Relaxed),
            storage_faults: self.inner.store.health.faults.load(Ordering::Relaxed),
            storage_nondurable: self.inner.store.health.nondurable.load(Ordering::Relaxed),
        }
    }
}

/// Locks `mutex`, recovering the guard of a poisoned one.
pub(crate) fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Quarantines a torn or unparsable durable record: rename to
/// `<name>.corrupt` (so rescans skip it) and report on stderr.
fn quarantine(vfs: &dyn Vfs, path: &Path, why: &str) {
    let dest = quarantine_name(path);
    let moved = vfs.rename(path, &dest).is_ok();
    eprintln!(
        "bddcf-serve: quarantining {why}: {}{}",
        path.display(),
        if moved {
            format!(" (moved to {})", dest.display())
        } else {
            String::from(" (rename failed; left in place)")
        }
    );
}

/// Resubmits every accepted-but-incomplete spool entry. Returns the count.
/// An entry whose request carried a deadline is completed with a
/// `deadline` error record instead, and is not counted.
///
/// Salvage rules for a hostile disk: a torn `response.json` is quarantined
/// and its entry re-executed from the acceptance record; an unparsable
/// `request.json` is quarantined and skipped (the acceptance record never
/// durably landed, so the client was never promised anything).
fn recover_spool(inner: &Arc<Inner>, dir: &Path) -> u64 {
    let spool_vfs = Arc::clone(&inner.store.vfs);
    let Ok(entries) = spool_vfs.list(dir) else {
        return 0;
    };
    let mut recovered = 0;
    for path in entries {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if !name.starts_with("req-") || !spool_vfs.is_dir(&path) {
            continue;
        }
        let response_path = path.join("response.json");
        if spool_vfs.exists(&response_path) {
            match spool_vfs.read(&response_path) {
                Ok(bytes) if Response::from_bytes(&bytes).is_ok() => {
                    continue; // completed before the crash
                }
                _ => {
                    // Torn completion record: the outcome is unknown, so
                    // quarantine the record and re-run the entry.
                    inner.store.health.mark_fault();
                    quarantine(spool_vfs.as_ref(), &response_path, "torn spool response");
                }
            }
        }
        let request_path = path.join("request.json");
        let Ok(bytes) = spool_vfs.read(&request_path) else {
            continue; // killed before the acceptance record landed
        };
        let Ok(request) = Request::from_bytes(&bytes) else {
            inner.store.health.mark_fault();
            quarantine(
                spool_vfs.as_ref(),
                &request_path,
                "unparsable spool request",
            );
            continue;
        };
        let RequestBody::Synth {
            spec, deadline_ms, ..
        } = request.body
        else {
            continue;
        };
        if deadline_ms.is_some() {
            // A relative deadline cannot outlive the daemon that accepted
            // it: the entry is completed with a `deadline` error instead
            // of computing (and caching) a result its client was promised
            // would be shed. A failed write leaves it for the next start.
            let mut response = Response::failure(
                request.id,
                ErrorCode::Deadline,
                "deadline passed while the daemon was down",
            );
            response.spec_hash = Some(spec.hash_hex());
            match vfs::write_atomic(
                spool_vfs.as_ref(),
                &path,
                "response.json",
                &response.to_bytes(),
            ) {
                Ok(()) => inner.store.health.mark_ok(),
                Err(_) => inner.store.health.mark_fault(),
            }
            continue;
        }
        let hash = spec.hash();
        lock(&inner.store.pending).insert(hash);
        let mut attempt = 0u32;
        loop {
            let job = Job {
                id: format!("recovered-{:016x}", hash),
                spec: spec.clone(),
                // Only deadline-free entries get here, and they run to
                // completion.
                deadline: None,
                ckpt_dir: Some(path.join("ckpt")),
                spool_entry: Some(path.clone()),
                resume: true,
                reply: None,
            };
            match inner.pool.submit(job) {
                Ok(()) => {
                    recovered += 1;
                    break;
                }
                Err(e) if e.code().is_retryable() && attempt < 10_000 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {
                    // Breaker open (a spec that keeps killing workers):
                    // leave the entry for the next restart.
                    lock(&inner.store.pending).remove(&hash);
                    break;
                }
            }
        }
    }
    recovered
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        if inner.stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Monotonic counter for final stats; `wait` joins the
                // accept thread before reading it. xlint: relaxed-ok
                inner.connections.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(inner);
                // Connection threads are detached: they exit at client EOF
                // and hold only an Arc, so a post-shutdown straggler cannot
                // keep the pool alive.
                let _ = std::thread::Builder::new()
                    .name("bddcf-conn".into())
                    .spawn(move || conn_loop(&conn_inner, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn conn_loop(inner: &Arc<Inner>, stream: TcpStream) {
    // Replies are whole frames written at once; without this a reply's
    // last segment waits for the client's delayed ACK on a kept-alive
    // connection.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader, inner.max_frame_len) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(FrameError::Oversized { len, max }) => {
                // The unread payload desyncs the stream: reply, then close.
                let response = Response::failure(
                    "",
                    ErrorCode::Oversized,
                    format!("frame of {len} bytes exceeds the {max}-byte cap"),
                );
                let _ = write_frame(&mut writer, &response.to_bytes());
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let reply = handle_frame(inner, &payload);
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

/// Dispatches one frame and returns the reply payload.
fn handle_frame(inner: &Arc<Inner>, payload: &[u8]) -> Vec<u8> {
    let request = match Request::from_bytes(payload) {
        Ok(request) => request,
        Err(e) => {
            return Response::failure(e.id.unwrap_or_default(), ErrorCode::Malformed, e.message)
                .to_bytes()
        }
    };
    match request.body {
        RequestBody::Synth {
            spec,
            deadline_ms,
            checkpoint,
        } => handle_synth(inner, request.id, spec, deadline_ms, checkpoint).to_bytes(),
        RequestBody::Stats => stats_payload(inner, &request.id),
        RequestBody::Shutdown(mode) => handle_shutdown(inner, &request.id, mode),
    }
}

fn handle_synth(
    inner: &Arc<Inner>,
    id: String,
    spec: SynthSpec,
    deadline_ms: Option<u64>,
    checkpoint: bool,
) -> Response {
    let hash = spec.hash();
    let hash_hex = spec.hash_hex();

    // 1. Validated cache.
    if let Some(result) = lock(&inner.store.cache).lookup(&spec) {
        return Response {
            id,
            status: Status::Ok,
            spec_hash: Some(hash_hex),
            error: None,
            result: Some(result),
            cached: true,
            resumed: false,
            storage_degraded: false,
        };
    }

    // 2. Spool replay (a prior daemon life already answered this spec).
    let entry = inner
        .store
        .spool
        .as_ref()
        .map(|dir| dir.join(format!("req-{hash_hex}")));
    if let Some(entry_dir) = &entry {
        if let Some(mut replay) = replay_spooled(&inner.store, &spec, entry_dir) {
            replay.id = id;
            return replay;
        }
    }

    // 3. Claim spool ownership (losers run spool-less; same bytes).
    let owner = match &entry {
        Some(_) => lock(&inner.store.pending).insert(hash),
        None => false,
    };
    let entry_existed = owner
        && entry
            .as_deref()
            .is_some_and(|dir| inner.store.vfs.exists(&dir.join("request.json")));
    let (spool_entry, ckpt_dir) = if owner {
        let dir = entry.clone();
        let ckpt = if checkpoint || entry_existed {
            dir.as_ref().map(|d| d.join("ckpt"))
        } else {
            None
        };
        (dir, ckpt)
    } else {
        (None, None)
    };

    let deadline = deadline_ms.map(|ms| inner.clock.now() + Duration::from_millis(ms));
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        id: id.clone(),
        spec: spec.clone(),
        deadline,
        ckpt_dir,
        spool_entry: spool_entry.clone(),
        resume: entry_existed,
        reply: Some(reply_tx),
    };
    match inner.pool.submit(job) {
        Err(e) => {
            if owner {
                lock(&inner.store.pending).remove(&hash);
            }
            let mut response = Response::failure(id, e.code(), e.message());
            response.spec_hash = Some(hash_hex);
            response
        }
        Ok(()) => {
            // A failed acceptance-record write is storage-degraded, not
            // fatal: the job still runs, but its reply is flagged
            // non-durable because a crash would forget the acceptance.
            let mut accept_nondurable = false;
            if let Some(entry_dir) = &spool_entry {
                let record = Request {
                    id: id.clone(),
                    body: RequestBody::Synth {
                        spec: spec.clone(),
                        deadline_ms,
                        checkpoint,
                    },
                };
                match vfs::write_atomic(
                    inner.store.vfs.as_ref(),
                    entry_dir,
                    "request.json",
                    &record.to_bytes(),
                ) {
                    Ok(()) => inner.store.health.mark_ok(),
                    Err(_) => {
                        inner.store.health.mark_fault();
                        accept_nondurable = true;
                    }
                }
            }
            match reply_rx.recv() {
                Ok(mut response) => {
                    if accept_nondurable && !response.storage_degraded {
                        inner.store.health.note_nondurable();
                        response.storage_degraded = true;
                    }
                    response
                }
                // The sender was dropped without a reply: the job parked
                // during a checkpoint-mode shutdown. Its spool entry
                // survives; the next daemon finishes it.
                Err(_) => {
                    let mut response = Response::failure(
                        id,
                        ErrorCode::Draining,
                        "job parked at a checkpoint during shutdown; retry after restart",
                    );
                    response.spec_hash = Some(hash_hex);
                    response
                }
            }
        }
    }
}

/// Replays a spooled completed response for `spec`, but only if it passes
/// the same artifact audit a cache hit must pass. A rotten record is
/// quarantined (`.corrupt`) so the spec re-executes and the evidence
/// survives for inspection.
fn replay_spooled(store: &Store, spec: &SynthSpec, entry_dir: &Path) -> Option<Response> {
    let replay_vfs = store.vfs.as_ref();
    let path = entry_dir.join("response.json");
    let bytes = replay_vfs.read(&path).ok()?;
    let Ok(mut response) = Response::from_bytes(&bytes) else {
        store.health.mark_fault();
        quarantine(replay_vfs, &path, "torn spool response");
        return None;
    };
    if response.status != Status::Ok {
        return None; // errors and degradations are not replayable verdicts
    }
    let ok = response
        .result
        .as_ref()
        .is_some_and(|result| passes_audit(spec, result, &format!("spool:{}", spec.hash_hex())));
    if !ok {
        store.health.mark_fault();
        quarantine(replay_vfs, &path, "audit-failing spool response");
        return None;
    }
    response.resumed = true;
    response.cached = false;
    Some(response)
}

fn stats_payload(inner: &Arc<Inner>, id: &str) -> Vec<u8> {
    let counters = inner.pool.counters();
    let cache = lock(&inner.store.cache).stats();
    let n = |v: u64| Json::Int(v.min(i64::MAX as u64) as i64);
    Json::Obj(vec![
        ("id".into(), Json::Str(id.to_owned())),
        ("status".into(), Json::Str("ok".into())),
        (
            "stats".into(),
            Json::Obj(vec![
                ("queue".into(), Json::Int(inner.pool.queue_len() as i64)),
                ("inflight".into(), Json::Int(inner.pool.inflight() as i64)),
                (
                    "committed_nodes".into(),
                    Json::Int(inner.pool.committed_nodes() as i64),
                ),
                ("submitted".into(), n(counters.submitted)),
                ("completed".into(), n(counters.completed)),
                ("degraded".into(), n(counters.degraded)),
                ("failed".into(), n(counters.failed)),
                ("panicked".into(), n(counters.panicked)),
                ("shed_deadline".into(), n(counters.shed_deadline)),
                ("parked".into(), n(counters.parked)),
                (
                    "rejected_queue_full".into(),
                    n(counters.rejected_queue_full),
                ),
                (
                    "rejected_overloaded".into(),
                    n(counters.rejected_overloaded),
                ),
                ("rejected_draining".into(), n(counters.rejected_draining)),
                ("rejected_breaker".into(), n(counters.rejected_breaker)),
                ("cache_hits".into(), n(cache.hits)),
                ("cache_misses".into(), n(cache.misses)),
                ("cache_invalidated".into(), n(cache.invalidated)),
                (
                    "storage_degraded".into(),
                    Json::Bool(inner.store.health.degraded.load(Ordering::Acquire)),
                ),
                (
                    "storage_faults".into(),
                    n(inner.store.health.faults.load(Ordering::Relaxed)),
                ),
                (
                    "storage_nondurable".into(),
                    n(inner.store.health.nondurable.load(Ordering::Relaxed)),
                ),
                (
                    "storage_degraded_jobs".into(),
                    n(counters.storage_degraded_jobs),
                ),
                ("engine_peak_nodes".into(), n(counters.engine_peak_nodes)),
                (
                    "engine_peak_arena_bytes".into(),
                    n(counters.engine_peak_arena_bytes),
                ),
                (
                    "engine_unique_lookups".into(),
                    n(counters.engine_unique_lookups),
                ),
                (
                    "engine_unique_probes".into(),
                    n(counters.engine_unique_probes),
                ),
                ("engine_cache_hits".into(), n(counters.engine_cache_hits)),
                (
                    "engine_cache_misses".into(),
                    n(counters.engine_cache_misses),
                ),
                ("engine_gc_runs".into(), n(counters.engine_gc_runs)),
                (
                    "engine_gc_reclaimed".into(),
                    n(counters.engine_gc_reclaimed),
                ),
                (
                    "engine_swap_reclaimed".into(),
                    n(counters.engine_swap_reclaimed),
                ),
                ("engine_gc_pause_ns".into(), n(counters.engine_gc_pause_ns)),
            ]),
        ),
    ])
    .render()
    .into_bytes()
}

fn handle_shutdown(inner: &Arc<Inner>, id: &str, mode: ShutdownMode) -> Vec<u8> {
    let first = {
        let mut guard = lock(&inner.shutdown_mode);
        if guard.is_none() {
            *guard = Some(mode);
            true
        } else {
            false
        }
    };
    if first {
        match mode {
            // begin_drain blocks until the pool is idle, so the ack below
            // certifies that every admitted job has a durable outcome.
            ShutdownMode::Drain => inner.pool.begin_drain(),
            ShutdownMode::Checkpoint => inner.pool.begin_halt(),
        }
        // Pure exit flag: the shutdown rendezvous is the pool drain/halt
        // above and the accept-thread join in `wait`; no data is
        // published through `stop` itself. xlint: relaxed-ok
        inner.stop.store(true, Ordering::Relaxed);
    }
    let mode_str = match mode {
        ShutdownMode::Drain => "drain",
        ShutdownMode::Checkpoint => "checkpoint",
    };
    Json::Obj(vec![
        ("id".into(), Json::Str(id.to_owned())),
        ("status".into(), Json::Str("ok".into())),
        ("shutdown".into(), Json::Str(mode_str.into())),
    ])
    .render()
    .into_bytes()
}

/// The `status` of a control reply (a shutdown acknowledgement, say).
pub(crate) fn parse_control_status(payload: &[u8]) -> Option<String> {
    let value = json::parse(payload).ok()?;
    value
        .get("status")
        .and_then(Json::as_str)
        .map(str::to_owned)
}
