//! The fixed worker pool: bounded admission, node-budget sharding,
//! per-spec circuit breaking, and quarantined execution.
//!
//! Overload policy is **reject early, never queue into collapse**: a
//! request is admitted only if (a) the daemon is not draining, (b) the
//! spec's circuit breaker is closed, (c) the bounded queue has room, and
//! (d) its node shard fits under the global in-flight node budget. Every
//! rejection is a typed, retryable-or-not protocol error computed in O(1)
//! under one lock — an overloaded daemon answers *faster*, not slower.
//!
//! Fault isolation is structural: each job runs on its own fresh
//! `BddManager` inside [`run_quarantined`], so a panicking job poisons
//! only an arena that is dropped on the spot; the worker thread itself is
//! recycled for the next job. Repeated failures of the *same* spec hash
//! open a per-spec circuit breaker so one poison request cannot grind the
//! pool down by being retried forever.

use crate::job::{execute_vfs, ExecError};
use crate::protocol::{ErrorCode, Response, Status, SynthSpec};
use bddcf_bdd::vfs::{StdVfs, Vfs};
use bddcf_bdd::{Budget, CancelToken, Clock, MonotonicClock};
use bddcf_check::run_quarantined;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool sizing and robustness knobs.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads (each runs one job at a time on a fresh manager).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are `queue_full`.
    pub queue_capacity: usize,
    /// Global node budget: the sum of the node shards of all queued and
    /// running jobs may not exceed this; submissions beyond it are
    /// `overloaded`.
    pub max_inflight_nodes: usize,
    /// Node shard reserved for a job whose spec carries no `node_limit`.
    pub default_node_limit: usize,
    /// Consecutive failures (panic / internal error) of one spec hash
    /// before its breaker opens.
    pub breaker_threshold: u32,
    /// Rejections an open breaker serves before letting one half-open
    /// trial job through.
    pub breaker_cooldown: u32,
    /// Time source for queue-shedding and in-run deadlines; injectable so
    /// deadline tests are deterministic.
    pub clock: Arc<dyn Clock>,
    /// Chaos/test hook: while `true`, workers hold picked-up jobs without
    /// executing, so tests can fill the queue deterministically.
    pub hold: Option<Arc<AtomicBool>>,
    /// Filesystem used for checkpoint reads/writes (injectable so the
    /// fault harness can fault and crash the storage under real jobs).
    pub vfs: Arc<dyn Vfs>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            queue_capacity: 16,
            max_inflight_nodes: 1 << 22,
            default_node_limit: 1 << 20,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            clock: Arc::new(MonotonicClock),
            hold: None,
            vfs: Arc::new(StdVfs),
        }
    }
}

/// One admitted unit of work.
pub struct Job {
    /// Client-chosen request id, echoed in the response.
    pub id: String,
    /// What to synthesize.
    pub spec: SynthSpec,
    /// Absolute deadline on the pool's clock; expiry in the queue sheds
    /// the job, expiry mid-run degrades or fails in-band.
    pub deadline: Option<Instant>,
    /// Checkpoint directory for this job (enables park/resume).
    pub ckpt_dir: Option<PathBuf>,
    /// Spool entry directory when this job *owns* the durable record for
    /// its spec hash — the completion hook persists the response there.
    pub spool_entry: Option<PathBuf>,
    /// Resume from the latest checkpoint in `ckpt_dir` first.
    pub resume: bool,
    /// Where to deliver the response; dropped without a send when the job
    /// parks (the waiter observes a disconnect, not a result).
    pub reply: Option<mpsc::Sender<Response>>,
}

/// Why a submission was rejected at admission (all O(1) decisions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded queue is full.
    QueueFull,
    /// The job's node shard does not fit under the global budget.
    Overloaded,
    /// The daemon is shutting down.
    Draining,
    /// This spec hash has failed repeatedly; breaker is open.
    CircuitOpen,
}

impl AdmitError {
    /// The protocol error code for this rejection.
    pub fn code(self) -> ErrorCode {
        match self {
            AdmitError::QueueFull => ErrorCode::QueueFull,
            AdmitError::Overloaded => ErrorCode::Overloaded,
            AdmitError::Draining => ErrorCode::Draining,
            AdmitError::CircuitOpen => ErrorCode::CircuitOpen,
        }
    }

    /// Human-readable rejection message.
    pub fn message(self) -> &'static str {
        match self {
            AdmitError::QueueFull => "request queue is full; retry with backoff",
            AdmitError::Overloaded => "in-flight node budget exhausted; retry with backoff",
            AdmitError::Draining => "daemon is draining; retry against a restarted daemon",
            AdmitError::CircuitOpen => "this spec has failed repeatedly; circuit breaker open",
        }
    }
}

/// Monotonic pool counters (a snapshot; see [`WorkerPool::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Jobs admitted past all four gates.
    pub submitted: u64,
    /// Jobs that completed with a clean artifact.
    pub completed: u64,
    /// Jobs that completed with a degradation report.
    pub degraded: u64,
    /// Jobs that failed with a typed error (other than panic/deadline).
    pub failed: u64,
    /// Jobs whose worker panicked (quarantined, manager discarded).
    pub panicked: u64,
    /// Jobs shed because their deadline passed while queued.
    pub shed_deadline: u64,
    /// Jobs parked at a resumable checkpoint (halt-mode shutdown).
    pub parked: u64,
    /// Rejections: bounded queue full.
    pub rejected_queue_full: u64,
    /// Rejections: node budget exhausted.
    pub rejected_overloaded: u64,
    /// Rejections: daemon draining.
    pub rejected_draining: u64,
    /// Rejections: circuit breaker open.
    pub rejected_breaker: u64,
    /// Jobs whose checkpoint storage failed; they completed un-checkpointed
    /// with `storage_degraded` set (never breaker-visible as a fault).
    pub storage_degraded_jobs: u64,
    /// Peak live node count over any single completed job's manager.
    pub engine_peak_nodes: u64,
    /// Peak arena footprint in bytes over any single completed job.
    pub engine_peak_arena_bytes: u64,
    /// Unique-table lookups, summed over completed jobs' managers.
    pub engine_unique_lookups: u64,
    /// Unique-table chain links followed, summed over completed jobs.
    pub engine_unique_probes: u64,
    /// Op-cache hits (all four caches), summed over completed jobs.
    pub engine_cache_hits: u64,
    /// Op-cache misses (all four caches), summed over completed jobs.
    pub engine_cache_misses: u64,
    /// Garbage collections run, summed over completed jobs.
    pub engine_gc_runs: u64,
    /// Wall time inside GC in nanoseconds, summed over completed jobs.
    pub engine_gc_pause_ns: u64,
}

/// Per-spec-hash consecutive-failure breaker.
struct Breaker {
    consecutive: u32,
    open: bool,
    cooldown_left: u32,
}

struct QueuedJob {
    job: Job,
    shard: usize,
    token: CancelToken,
}

struct PoolState {
    queue: VecDeque<QueuedJob>,
    committed_nodes: usize,
    inflight: usize,
    draining: bool,
    stopping: bool,
    breakers: HashMap<u64, Breaker>,
    active: HashMap<usize, CancelToken>,
    counters: PoolCounters,
}

/// Callback invoked (off-lock) with every completed response — the server
/// uses it to write the spool record and feed the response cache. The
/// response is mutable so the hook can flag `storage_degraded` when the
/// durable completion record itself cannot be written, *before* the reply
/// reaches the client.
pub type DoneHook = Arc<dyn Fn(&Job, &mut Response) + Send + Sync>;

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
    idle: Condvar,
    queue_capacity: usize,
    max_inflight_nodes: usize,
    default_node_limit: usize,
    breaker_threshold: u32,
    breaker_cooldown: u32,
    clock: Arc<dyn Clock>,
    hold: Option<Arc<AtomicBool>>,
    vfs: Arc<dyn Vfs>,
    done: DoneHook,
}

fn lock_state(shared: &Shared) -> MutexGuard<'_, PoolState> {
    // A worker never panics while holding the lock (jobs run outside it),
    // but a poisoned lock must not take the whole daemon down.
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pool: a bounded queue drained by a fixed set of worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns the workers. `done` fires for every job that produces a
    /// response (not for parked jobs, whose spool entries stay open).
    pub fn start(config: PoolConfig, done: DoneHook) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                committed_nodes: 0,
                inflight: 0,
                draining: false,
                stopping: false,
                breakers: HashMap::new(),
                active: HashMap::new(),
                counters: PoolCounters::default(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            max_inflight_nodes: config.max_inflight_nodes.max(1),
            default_node_limit: config.default_node_limit.max(1),
            breaker_threshold: config.breaker_threshold.max(1),
            breaker_cooldown: config.breaker_cooldown,
            clock: config.clock,
            hold: config.hold,
            vfs: config.vfs,
            done,
        });
        let workers = config.workers.max(1);
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bddcf-worker-{idx}"))
                    .spawn(move || worker_loop(idx, &shared))
                    .unwrap_or_else(|e| panic!("spawning worker {idx}: {e}"))
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Admission control. All four gates are checked under one lock in
    /// O(1); on success the job's node shard is committed immediately so
    /// concurrent submissions cannot oversubscribe the budget.
    pub fn submit(&self, job: Job) -> Result<(), AdmitError> {
        let shared = &self.shared;
        let mut state = lock_state(shared);
        if state.draining {
            state.counters.rejected_draining += 1;
            return Err(AdmitError::Draining);
        }
        let hash = job.spec.hash();
        if let Some(breaker) = state.breakers.get_mut(&hash) {
            // An open breaker with spent cooldown is half-open: exactly
            // that trial passes; its outcome closes the breaker or
            // re-arms the cooldown.
            if breaker.open && breaker.cooldown_left > 0 {
                breaker.cooldown_left -= 1;
                state.counters.rejected_breaker += 1;
                return Err(AdmitError::CircuitOpen);
            }
        }
        if state.queue.len() >= shared.queue_capacity {
            state.counters.rejected_queue_full += 1;
            return Err(AdmitError::QueueFull);
        }
        let shard = job
            .spec
            .node_limit
            .unwrap_or(shared.default_node_limit)
            .clamp(1, shared.max_inflight_nodes);
        if state.committed_nodes + shard > shared.max_inflight_nodes {
            state.counters.rejected_overloaded += 1;
            return Err(AdmitError::Overloaded);
        }
        state.committed_nodes += shard;
        state.counters.submitted += 1;
        state.queue.push_back(QueuedJob {
            job,
            shard,
            token: CancelToken::new(),
        });
        drop(state);
        shared.work.notify_one();
        Ok(())
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> PoolCounters {
        lock_state(&self.shared).counters
    }

    /// Jobs currently queued (not yet picked up).
    pub fn queue_len(&self) -> usize {
        lock_state(&self.shared).queue.len()
    }

    /// Jobs currently running on workers.
    pub fn inflight(&self) -> usize {
        lock_state(&self.shared).inflight
    }

    /// Node budget currently committed to queued + running jobs.
    pub fn committed_nodes(&self) -> usize {
        lock_state(&self.shared).committed_nodes
    }

    /// Stops admitting and lets every queued and running job finish
    /// (graceful drain). Returns once the pool is idle; call
    /// [`WorkerPool::join`] afterwards.
    pub fn begin_drain(&self) {
        let mut state = lock_state(&self.shared);
        state.draining = true;
        while state.inflight > 0 || !state.queue.is_empty() {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.stopping = true;
        drop(state);
        self.shared.work.notify_all();
    }

    /// Stops admitting, discards the queue (their spool entries survive
    /// for recovery), and fires every running job's cancel token so it
    /// parks at its next resumable checkpoint.
    pub fn begin_halt(&self) {
        let mut state = lock_state(&self.shared);
        state.draining = true;
        state.stopping = true;
        while let Some(queued) = state.queue.pop_front() {
            state.committed_nodes -= queued.shard;
            state.counters.parked += 1;
            // Dropping the job drops its reply sender; the waiting
            // connection observes a disconnect and reports `draining`.
            drop(queued);
        }
        for token in state.active.values() {
            token.cancel();
        }
        drop(state);
        self.shared.work.notify_all();
    }

    /// Waits for the workers to exit (after `begin_drain`/`begin_halt`)
    /// and returns the final counters. Idempotent.
    pub fn join(&self) -> PoolCounters {
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.handles.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        lock_state(&self.shared).counters
    }
}

fn worker_loop(idx: usize, shared: &Shared) {
    loop {
        let queued = {
            let mut state = lock_state(shared);
            loop {
                if let Some(queued) = state.queue.pop_front() {
                    state.inflight += 1;
                    state.active.insert(idx, queued.token.clone());
                    break Some(queued);
                }
                if state.stopping {
                    break None;
                }
                state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(queued) = queued else { return };

        if let Some(hold) = &shared.hold {
            while hold.load(Ordering::Relaxed) && !queued.token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let (response, engine) = run_one(shared, &queued);

        let mut state = lock_state(shared);
        state.inflight -= 1;
        state.committed_nodes -= queued.shard;
        state.active.remove(&idx);
        settle(
            &mut state,
            shared,
            queued.job.spec.hash(),
            response.as_ref(),
            engine.as_ref(),
        );
        drop(state);
        shared.idle.notify_all();

        if let Some(mut response) = response {
            // The hook runs (and may flag storage degradation) before the
            // reply is sent: an accepted-and-replied request is either
            // durably recorded or explicitly marked non-durable.
            (shared.done)(&queued.job, &mut response);
            if let Some(reply) = &queued.job.reply {
                let _ = reply.send(response);
            }
        }
    }
}

/// Updates counters and the spec's circuit breaker for one finished job.
/// `None` means the job parked at a checkpoint.
fn settle(
    state: &mut PoolState,
    shared: &Shared,
    hash: u64,
    response: Option<&Response>,
    engine: Option<&bddcf_bdd::EngineStats>,
) {
    if let Some(stats) = engine {
        let cache = stats.cache_total();
        let c = &mut state.counters;
        c.engine_peak_nodes = c.engine_peak_nodes.max(stats.peak_nodes);
        c.engine_peak_arena_bytes = c.engine_peak_arena_bytes.max(stats.peak_arena_bytes);
        c.engine_unique_lookups += stats.unique_lookups;
        c.engine_unique_probes += stats.unique_probes;
        c.engine_cache_hits += cache.hits;
        c.engine_cache_misses += cache.misses;
        c.engine_gc_runs += stats.gc_runs;
        c.engine_gc_pause_ns += stats.gc_pause_ns;
    }
    let Some(response) = response else {
        state.counters.parked += 1;
        return;
    };
    if response.storage_degraded {
        state.counters.storage_degraded_jobs += 1;
    }
    let fault = match (&response.status, &response.error) {
        (Status::Ok, _) => {
            state.counters.completed += 1;
            false
        }
        (Status::Degraded, _) => {
            state.counters.degraded += 1;
            false
        }
        (Status::Error, Some((code, _))) => {
            match code {
                ErrorCode::Panicked => state.counters.panicked += 1,
                ErrorCode::Deadline => state.counters.shed_deadline += 1,
                _ => state.counters.failed += 1,
            }
            matches!(code, ErrorCode::Panicked | ErrorCode::Internal)
        }
        (Status::Error, None) => {
            state.counters.failed += 1;
            true
        }
    };
    if fault {
        let breaker = state.breakers.entry(hash).or_insert(Breaker {
            consecutive: 0,
            open: false,
            cooldown_left: 0,
        });
        breaker.consecutive += 1;
        if breaker.consecutive >= shared.breaker_threshold {
            breaker.open = true;
            breaker.cooldown_left = shared.breaker_cooldown;
        }
    } else {
        state.breakers.remove(&hash);
    }
}

/// Runs one picked-up job: queue-deadline shed, budget construction,
/// quarantined execution, and response assembly. Also returns the job
/// manager's engine counters when the job produced a result.
fn run_one(
    shared: &Shared,
    queued: &QueuedJob,
) -> (Option<Response>, Option<bddcf_bdd::EngineStats>) {
    let job = &queued.job;
    let hash_hex = job.spec.hash_hex();
    if let Some(deadline) = job.deadline {
        if shared.clock.now() >= deadline {
            let mut response = Response::failure(
                &job.id,
                ErrorCode::Deadline,
                "deadline passed while the request was queued",
            );
            response.spec_hash = Some(hash_hex);
            return (Some(response), None);
        }
    }
    let mut budget = Budget::default()
        .with_node_limit(queued.shard)
        .with_clock(shared.clock.clone())
        .with_cancel(queued.token.clone());
    budget.deadline = job.deadline;
    if let Some(steps) = job.spec.step_limit {
        budget = budget.with_step_limit(steps);
    }

    let label = format!("serve:{hash_hex}");
    let vfs = Arc::clone(&shared.vfs);
    let outcome = run_quarantined(&label, || {
        execute_vfs(
            &job.spec,
            Some(budget),
            job.ckpt_dir.as_deref(),
            job.resume,
            &vfs,
        )
    });
    let mut engine = None;
    let mut response = match outcome {
        Ok(Ok(out)) => {
            engine = Some(out.engine);
            Response {
                id: job.id.clone(),
                status: if out.degraded {
                    Status::Degraded
                } else {
                    Status::Ok
                },
                spec_hash: None,
                error: None,
                result: Some(out.result),
                cached: false,
                resumed: job.resume,
                storage_degraded: out.storage_degraded,
            }
        }
        Ok(Err(ExecError::Reject(code, message))) => Response::failure(&job.id, code, message),
        Ok(Err(ExecError::Parked)) => return (None, None),
        Err(quarantine) => Response::failure(
            &job.id,
            ErrorCode::Panicked,
            format!("worker panicked; manager discarded: {}", quarantine.payload),
        ),
    };
    response.spec_hash = Some(hash_hex);
    (Some(response), engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Source;
    use bddcf_bdd::FakeClock;

    const TINY_PLA: &str = ".i 2\n.o 1\n11 1\n00 1\n.e\n";

    fn tiny_job(id: &str, reply: Option<mpsc::Sender<Response>>) -> Job {
        Job {
            id: id.into(),
            spec: SynthSpec::new(Source::Pla(TINY_PLA.into())),
            deadline: None,
            ckpt_dir: None,
            spool_entry: None,
            resume: false,
            reply,
        }
    }

    fn noop_done() -> DoneHook {
        Arc::new(|_job, _response: &mut Response| {})
    }

    #[test]
    fn jobs_complete_and_counters_track() {
        let pool = WorkerPool::start(PoolConfig::default(), noop_done());
        let (tx, rx) = mpsc::channel();
        pool.submit(tiny_job("a", Some(tx))).expect("admitted");
        let response = rx.recv().expect("reply");
        assert_eq!(response.status, Status::Ok);
        assert!(response.result.is_some());
        pool.begin_drain();
        let counters = pool.join();
        assert_eq!(counters.submitted, 1);
        assert_eq!(counters.completed, 1);
    }

    #[test]
    fn queue_full_and_overload_reject_deterministically() {
        let hold = Arc::new(AtomicBool::new(true));
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 1,
            hold: Some(Arc::clone(&hold)),
            ..PoolConfig::default()
        };
        let pool = WorkerPool::start(config, noop_done());
        let (tx, rx) = mpsc::channel();
        pool.submit(tiny_job("held", Some(tx.clone())))
            .expect("admitted");
        // Wait for the (held) worker to pick the job up so the queue is
        // deterministically empty again.
        while pool.inflight() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.submit(tiny_job("queued", Some(tx.clone())))
            .expect("queued");
        assert_eq!(
            pool.submit(tiny_job("rejected", Some(tx.clone()))),
            Err(AdmitError::QueueFull)
        );
        // An oversized node ask is shed by the node budget even though the
        // queue check passed first for smaller jobs.
        let mut big = tiny_job("big", Some(tx));
        big.spec.node_limit = Some(usize::MAX);
        // queue is full, so this also reports QueueFull (checked first).
        assert!(pool.submit(big).is_err());
        hold.store(false, Ordering::Relaxed);
        let _ = rx.recv().expect("held job completes");
        let _ = rx.recv().expect("queued job completes");
        pool.begin_drain();
        let counters = pool.join();
        assert_eq!(counters.completed, 2);
        assert!(counters.rejected_queue_full >= 1);
    }

    #[test]
    fn node_budget_overload_rejects() {
        let hold = Arc::new(AtomicBool::new(true));
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 8,
            max_inflight_nodes: 1000,
            default_node_limit: 600,
            hold: Some(Arc::clone(&hold)),
            ..PoolConfig::default()
        };
        let pool = WorkerPool::start(config, noop_done());
        let (tx, rx) = mpsc::channel();
        pool.submit(tiny_job("first", Some(tx.clone())))
            .expect("fits");
        assert_eq!(
            pool.submit(tiny_job("second", Some(tx))),
            Err(AdmitError::Overloaded),
            "600 + 600 > 1000"
        );
        hold.store(false, Ordering::Relaxed);
        let _ = rx.recv().expect("first completes");
        pool.begin_drain();
        let counters = pool.join();
        assert_eq!(counters.rejected_overloaded, 1);
    }

    #[test]
    fn queued_deadline_expiry_is_shed_by_the_clock() {
        let clock = Arc::new(FakeClock::new());
        let config = PoolConfig {
            workers: 1,
            clock: clock.clone(),
            ..PoolConfig::default()
        };
        let pool = WorkerPool::start(config, noop_done());
        let (tx, rx) = mpsc::channel();
        let mut job = tiny_job("late", Some(tx));
        job.deadline = Some(clock.now() + Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        pool.submit(job).expect("admitted");
        let response = rx.recv().expect("reply");
        assert_eq!(response.status, Status::Error);
        let (code, _) = response.error.expect("typed error");
        assert_eq!(code, ErrorCode::Deadline);
        pool.begin_drain();
        assert_eq!(pool.join().shed_deadline, 1);
    }

    #[test]
    fn panics_are_quarantined_and_open_the_breaker() {
        let config = PoolConfig {
            workers: 1,
            breaker_threshold: 2,
            breaker_cooldown: 1,
            ..PoolConfig::default()
        };
        let pool = WorkerPool::start(config, noop_done());
        let probe = || SynthSpec::new(Source::Registry("panic probe".into()));
        let outcome = bddcf_check::with_quiet_panics(|| {
            let (tx, rx) = mpsc::channel();
            let mut results = Vec::new();
            for i in 0..2 {
                let mut job = tiny_job(&format!("p{i}"), Some(tx.clone()));
                job.spec = probe();
                pool.submit(job).expect("admitted");
                results.push(rx.recv().expect("reply"));
            }
            results
        });
        for response in &outcome {
            let (code, _) = response.error.clone().expect("typed error");
            assert_eq!(code, ErrorCode::Panicked);
        }
        // Threshold reached: breaker open, next submission rejected.
        let mut job = tiny_job("p2", None);
        job.spec = probe();
        assert_eq!(pool.submit(job), Err(AdmitError::CircuitOpen));
        // Cooldown elapsed: a half-open trial is admitted again.
        let (tx, rx) = mpsc::channel();
        let mut trial = tiny_job("p3", Some(tx));
        trial.spec = probe();
        bddcf_check::with_quiet_panics(|| {
            pool.submit(trial).expect("half-open trial admitted");
            let _ = rx.recv().expect("trial reply");
        });
        // A healthy spec is unaffected by the probe's breaker.
        let (tx, rx) = mpsc::channel();
        pool.submit(tiny_job("ok", Some(tx)))
            .expect("other specs fine");
        assert_eq!(rx.recv().expect("reply").status, Status::Ok);
        pool.begin_drain();
        let counters = pool.join();
        assert!(counters.panicked >= 3);
        assert_eq!(counters.rejected_breaker, 1);
    }

    #[test]
    fn halt_parks_queued_jobs_and_cancels_running_ones() {
        let hold = Arc::new(AtomicBool::new(true));
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 4,
            hold: Some(Arc::clone(&hold)),
            ..PoolConfig::default()
        };
        let pool = WorkerPool::start(config, noop_done());
        let (tx, rx) = mpsc::channel::<Response>();
        pool.submit(tiny_job("running", Some(tx.clone())))
            .expect("admitted");
        while pool.inflight() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.submit(tiny_job("queued", Some(tx))).expect("queued");
        pool.begin_halt();
        hold.store(false, Ordering::Relaxed);
        let counters = pool.join();
        // The queued job was parked without a response: its reply sender
        // was dropped, which a server connection reports as draining.
        assert!(counters.parked >= 1);
        assert_eq!(
            pool_drained(&rx),
            0,
            "no response may be delivered for parked queued jobs"
        );
    }

    /// Counts responses delivered for parked jobs (must be none) once all
    /// senders are gone.
    fn pool_drained(rx: &mpsc::Receiver<Response>) -> usize {
        let mut parked_replies = 0;
        while let Ok(response) = rx.recv_timeout(Duration::from_secs(5)) {
            if response.id == "queued" {
                parked_replies += 1;
            }
        }
        parked_replies
    }
}
