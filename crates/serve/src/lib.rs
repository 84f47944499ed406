//! `bddcf serve` — a fault-tolerant long-running synthesis daemon.
//!
//! The batch pipeline (PR1–PR5) answers one request per process. This
//! crate turns it into a *service*: a daemon that accepts synthesis
//! requests over a length-prefixed JSON protocol ([`protocol`]), runs them
//! on a fixed worker pool of per-job `BddManager`s ([`pool`]), and stays
//! correct and available under every failure mode the batch layers already
//! handle one at a time — overload, deadline expiry, worker panics,
//! process crashes:
//!
//! * **Admission control** — a bounded request queue plus a global
//!   in-flight node budget sharded across workers; requests that do not
//!   fit are rejected *immediately* with typed `queue_full` /
//!   `overloaded` errors rather than queued into collapse.
//! * **Deadlines** — per-request deadlines ride the existing
//!   [`Budget`](bddcf_bdd::Budget) machinery behind an injectable
//!   [`Clock`](bddcf_bdd::Clock), so expiry in the queue sheds the job on
//!   its first charged step and expiry mid-run degrades in-band with a
//!   [`DegradationReport`](bddcf_core::DegradationReport).
//! * **Fault isolation** — each job runs quarantined
//!   ([`bddcf_check::run_quarantined`]); a panic poisons and discards only
//!   that job's manager, and a per-spec circuit breaker opens after
//!   repeated failures of the same spec hash.
//! * **Crash recovery** — accepted requests are spooled atomically
//!   ([`server`]); long reductions checkpoint via the PR4 `BDDCFCKP`
//!   format; a restarted daemon replays the spool and produces
//!   byte-identical responses.
//! * **Storage-fault robustness** — every durable path runs over an
//!   injectable [`Vfs`](bddcf_bdd::vfs::Vfs), and an ENOSPC disk degrades
//!   the daemon to explicit non-durable serving instead of killing it.
//! * **Fault harness** — [`chaos`] injects budget faults into the governed
//!   pipeline, sweeps power-loss crash prefixes and seeded write faults
//!   over checkpoint sequences and the serve spool, and drives a real
//!   daemon process with a seeded request mix, kills it mid-batch and
//!   restarts it, proving that no accepted request was lost and every
//!   artifact passes the full audit stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod job;
pub mod json;
pub mod pool;
pub mod protocol;
pub mod server;

pub use cache::ResponseCache;
pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use job::{build_cf, execute, execute_vfs, resolve_benchmark, ExecError, ExecOutcome};
pub use pool::{AdmitError, PoolConfig, WorkerPool};
pub use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, RequestBody, Response, ShutdownMode,
    Source, Status, SynthResult, SynthSpec, SynthStats, DEFAULT_MAX_FRAME,
};
pub use server::{Server, ServerConfig, ServerStats};
