//! `bddcf chaos` — the fault harness.
//!
//! A width reduction may only complete don't cares (Lemma 3.1), so every
//! cascade must still realize its specification, and a daemon that
//! accepted a request must still answer it. [`run_chaos`] holds the
//! workspace to both under faults, in three phases over one list of
//! registry benchmarks:
//!
//! 1. **budget** — seeded node quotas, step quotas and cancellations on
//!    the governed pipeline ([`inject_budget_faults`]): nothing panics, a
//!    failed construction is a typed error, and every survivor passes
//!    check layers 1–4.
//! 2. **storage** — each checkpointed reduction (a built-in PLA, then each
//!    benchmark) and a spooled serve session run over a journaling
//!    [`FaultVfs`]. For every storage-event prefix the harness
//!    rematerializes, via [`FaultVfs::crash_state`], what a power loss
//!    could leave (fsync-lies model: un-fsynced file data torn or lost,
//!    un-dir-synced renames and creations dropped) and asserts that every
//!    checkpoint save that returned survives, every recovery reproduces
//!    the baseline artifacts or the baseline rejection, and every
//!    accepted-and-replied request keeps its completion record and is
//!    re-served identically. Seeded ENOSPC / EIO / short writes must
//!    degrade with `storage_degraded` set and the baseline artifacts.
//! 3. **process** — a seeded request mix (valid, duplicate, checkpointed,
//!    step-limited, zero-deadline, panic-probe, malformed and oversized)
//!    from several clients with seeded backoff against a daemon that is
//!    killed and restarted on its spool mid-batch: no accepted request is
//!    lost, every success matches a local run byte for byte and passes the
//!    audit stack, every other request gets its typed error, and no client
//!    gives up.
//!
//! Each phase sizes its faults from its own measurement — charged steps
//! and arena high-water, journaled storage events, a wall-clock kill — so
//! each stays a plain function; they share the config, the report and the
//! daemon helpers. A panic inside a phase is a violation, never an abort.
//!
//! [`ChaosConfig::drop_dir_sync`] is the negative control: every directory
//! fsync silently lies, exactly the failure a missing parent-directory
//! fsync would produce, and the storage phase must fail — proof that it
//! checks rename durability rather than passing vacuously.
//!
//! With a server binary the process phase `SIGKILL`s a child daemon;
//! without one (crate tests) the daemon runs in-process and the kill is a
//! checkpoint-mode shutdown plus restart, which exercises the same
//! park/recover path without process isolation.

use crate::job::{execute, execute_vfs, passes_audit, resolve_benchmark, ExecError, ExecOutcome};
use crate::protocol::{
    read_frame, roundtrip, write_frame, ErrorCode, Request, RequestBody, Response, ShutdownMode,
    Source, Status, SynthResult, SynthSpec, DEFAULT_MAX_FRAME,
};
use crate::server::{lock, parse_control_status, Server, ServerConfig};
use bddcf_bdd::vfs::{splitmix64, FaultPlan, FaultVfs, StdVfs, Vfs, WriteFault};
use bddcf_bdd::Budget;
use bddcf_check::{inject_budget_faults, run_quarantined, with_quiet_panics, Quarantine};
use bddcf_core::checkpoint::checkpoint_seq;
use bddcf_core::latest_valid_checkpoint_vfs;
use std::collections::{BTreeSet, HashMap};
use std::fmt::{Display, Write as _};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Client threads of the process phase.
const CLIENTS: usize = 4;
/// Worker threads of the killed daemon (its queue keeps the default 16).
const WORKERS: usize = 2;
/// Requests of the storage phase's recorded serve session.
const SESSION_REQUESTS: usize = 6;
/// Attempts before a client gives up on a request.
const ATTEMPTS: u32 = 80;

/// What [`run_chaos`] faults.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Registry benchmark labels the budget and storage phases run over.
    pub benchmarks: Vec<String>,
    /// Seed of every fault schedule, crash tearing, request mix and kill.
    pub seed: u64,
    /// Budget faults per benchmark.
    pub points: usize,
    /// Requests of the process phase's mix.
    pub requests: usize,
    /// Spool directory of the process phase's daemon.
    pub dir: PathBuf,
    /// Negative control: every directory fsync silently lies, so renames
    /// never become durable. The storage phase must FAIL under this.
    pub drop_dir_sync: bool,
    /// Daemon binary for the process phase (spawned as `<bin> serve …` and
    /// `SIGKILL`ed); `None` runs the daemon in-process.
    pub server_bin: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            benchmarks: Vec::new(),
            seed: 0xb0d0_cf5e,
            points: 100,
            requests: 200,
            dir: std::env::temp_dir().join(format!("bddcf-chaos-{}", std::process::id())),
            drop_dir_sync: false,
            server_bin: None,
        }
    }
}

/// What [`run_chaos`] covered, and every promise it saw broken.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// One summary line per phase subject, in run order.
    pub lines: Vec<String>,
    /// Every broken promise, as `<phase> <subject>: <fault or request>:
    /// <what broke>`.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// True when every phase kept every promise.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The summary lines, the violations, and the verdict (the CLI prints
    /// this verbatim).
    pub fn render(&self) -> String {
        const SHOWN: usize = 20;
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for violation in self.violations.iter().take(SHOWN) {
            let _ = writeln!(out, "VIOLATION {violation}");
        }
        if self.violations.len() > SHOWN {
            let _ = writeln!(out, "(+{} more)", self.violations.len() - SHOWN);
        }
        if self.passed() {
            out + "PASS: no invariant broken under any fault, no accepted request lost, \
                   every artifact byte-identical and audited\n"
        } else {
            out + &format!("FAIL: {} violation(s)\n", self.violations.len())
        }
    }

    fn violation(&mut self, subject: &str, what: impl Display) {
        self.violations.push(format!("{subject}: {what}"));
    }

    /// Records the verdict of one quarantined check of `subject` at
    /// `fault`: a broken promise and a panic are both violations.
    fn verdict(&mut self, subject: &str, fault: &str, run: Result<Result<(), String>, Quarantine>) {
        match run {
            Ok(Ok(())) => {}
            Ok(Err(what)) => self.violation(subject, format!("{fault}: {what}")),
            Err(q) => self.violation(subject, format!("{fault}: panicked: {}", q.payload)),
        }
    }
}

/// Runs the budget, storage and process phases, in that order. `Err` is a
/// harness breakdown (a phase could not even be set up); broken promises,
/// and panics inside a phase, are violations in the report.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, String> {
    with_quiet_panics(|| {
        let mut report = ChaosReport::default();
        let baselines = Baselines::default();
        for label in &config.benchmarks {
            quarantined(&mut report, &format!("budget {label}"), |report| {
                budget_faults(config, label, report)
            })?;
        }
        let builtin = SynthSpec::new(Source::Pla(REDUCTION_PLA.into()));
        let registry = config.benchmarks.iter().map(|label| {
            let spec = SynthSpec::new(Source::Registry(label.clone()));
            (format!("storage reduction {label}"), spec)
        });
        for (subject, spec) in
            std::iter::once(("storage reduction".to_owned(), builtin)).chain(registry)
        {
            quarantined(&mut report, &subject, |report| {
                reduction_sweep(config, &subject, &spec, &baselines, report).map(drop)
            })?;
        }
        quarantined(&mut report, SESSION, |report| {
            serve_sweep(config, &baselines, report).map(drop)
        })?;
        quarantined(&mut report, DAEMON, |report| {
            process_phase(config, &baselines, report).map(drop)
        })?;
        Ok(report)
    })
}

/// Runs one phase subject in a panic quarantine: a panic is a violation
/// of `subject`, an `Err` a harness breakdown.
fn quarantined(
    report: &mut ChaosReport,
    subject: &str,
    phase: impl FnOnce(&mut ChaosReport) -> Result<(), String>,
) -> Result<(), String> {
    match run_quarantined(subject, || phase(report)) {
        Ok(done) => done.map_err(|e| format!("{subject}: {e}")),
        Err(q) => {
            report.violation(subject, format!("panicked: {}", q.payload));
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Phase 1: budget faults
// ---------------------------------------------------------------------

/// Injects `config.points` budget faults into the governed pipeline of
/// the registry benchmark `label`.
fn budget_faults(
    config: &ChaosConfig,
    label: &str,
    report: &mut ChaosReport,
) -> Result<(), String> {
    let benchmark =
        resolve_benchmark(label).ok_or_else(|| format!("no registry benchmark is {label:?}"))?;
    let (summary, findings) = inject_budget_faults(benchmark.as_ref(), config.seed, config.points);
    let subject = format!("budget {label}");
    report.lines.push(format!("{subject}: {summary}"));
    for finding in findings.findings() {
        report.violation(&subject, finding);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Phase 2: storage faults
// ---------------------------------------------------------------------

/// The reduction the storage phase sweeps first: the 5-in/3-out smoke
/// function, big enough to checkpoint at several fixpoint boundaries.
const REDUCTION_PLA: &str = "\
.i 5
.o 3
00000 001
00001 010
00010 011
00011 100
00100 101
01000 110
10000 111
11111 001
10101 1-0
";

/// The storage phase's serve-session subject.
const SESSION: &str = "storage serve session";

/// What one storage sweep covered.
#[derive(Debug, Default)]
struct Sweep {
    /// Storage events journaled by the recorded run.
    events: usize,
    /// Crash prefixes swept: every prefix of the journal, the empty one
    /// included.
    crash_points: usize,
    /// Crash prefixes after a returned checkpoint save, which therefore
    /// resume from a surviving checkpoint instead of rerunning.
    resumed: usize,
    /// Seeded Nth-write fault runs (ENOSPC / EIO / short write).
    fault_runs: usize,
    /// Faults those runs actually injected.
    faults_injected: u64,
    /// Requests the recorded serve session replied to.
    replied: usize,
    /// Distinct surviving artifacts run through the audit stack.
    audited: usize,
}

/// A fault-free plan over a disk whose torn choices derive from
/// `config.seed ^ salt`; under the negative control every directory
/// fsync lies.
fn plan(config: &ChaosConfig, salt: u64) -> FaultPlan {
    FaultPlan {
        seed: splitmix64(config.seed ^ salt),
        ignore_sync_dir: config.drop_dir_sync,
        ..FaultPlan::default()
    }
}

/// Sweeps every crash prefix and seeded write faults over the
/// checkpointed reduction of `spec`, then audits its artifacts.
fn reduction_sweep(
    config: &ChaosConfig,
    subject: &str,
    spec: &SynthSpec,
    baselines: &Baselines,
    report: &mut ChaosReport,
) -> Result<Sweep, String> {
    let dir = PathBuf::from("/ckpt");
    let baseline = baselines.get(spec);

    // Recording run: a fault-free FaultVfs journals every storage event
    // the checkpointed reduction performs.
    let vfs = FaultVfs::with_plan(plan(config, 0));
    let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let recorded = execute_vfs(spec, None, Some(&dir), false, &shared);
    if recorded.as_ref().is_ok_and(|out| out.storage_degraded) {
        return Err("the recording run degraded on a fault-free disk".into());
    }
    if answer(recorded) != baseline {
        report.violation(subject, "the recording run diverged from the baseline");
    }
    let journal = vfs.journal();
    let mut sweep = Sweep {
        events: journal.len(),
        ..Sweep::default()
    };

    // A `Checkpointer::save` returns only after the covering directory
    // fsync, so the SyncDir events on the checkpoint directory mark
    // exactly the saves whose durability was *promised* to the caller.
    let save_returns: Vec<usize> = journal
        .iter()
        .enumerate()
        .filter(|(_, event)| event.is_sync_dir_of(&dir))
        .map(|(index, _)| index)
        .collect();

    // Crash point 0 (an empty disk) is a crash before the first save and
    // reruns from scratch; the last prefix resumes from the
    // `ReductionDone` checkpoint, leaving only cascade synthesis.
    for k in 0..=journal.len() {
        sweep.crash_points += 1;
        let completed_saves = save_returns.iter().filter(|&&index| index < k).count() as u64;
        if completed_saves > 0 {
            sweep.resumed += 1;
        }
        let crashed: Arc<dyn Vfs> =
            Arc::new(vfs.crash_state(k, splitmix64(config.seed ^ 0xa11c_e000 ^ k as u64)));
        let recovery = run_quarantined(subject, || {
            // Saves are sequential from 0, so `completed_saves` returned
            // saves promise a surviving checkpoint of sequence at least
            // `completed_saves - 1`.
            if completed_saves > 0 {
                match latest_valid_checkpoint_vfs(crashed.as_ref(), &dir) {
                    Ok(Some((path, _))) => {
                        if checkpoint_seq(&path).is_none_or(|s| s + 1 < completed_saves) {
                            return Err(format!(
                                "{completed_saves} save(s) returned but the newest surviving \
                                 checkpoint is {}",
                                path.display()
                            ));
                        }
                    }
                    Ok(None) => {
                        return Err(format!(
                            "{completed_saves} save(s) returned but no checkpoint survived the \
                             crash"
                        ))
                    }
                    Err(e) => return Err(format!("the checkpoint rescan failed: {e}")),
                }
            }
            match answer(execute_vfs(spec, None, Some(&dir), true, &crashed)) {
                recovered if recovered == baseline => Ok(()),
                Ok(_) => Err("the recovered artifacts diverge from the baseline".into()),
                Err(e) => Err(format!("recovery failed: {e}")),
            }
        });
        report.verdict(subject, &format!("crash point {k}"), recovery);
    }

    // Seeded Nth-write fault sweep: the job must absorb ENOSPC / EIO /
    // short writes by falling back to an un-checkpointed run — same
    // artifacts, `storage_degraded` raised.
    const FAULTS: [WriteFault; 3] = [WriteFault::Enospc, WriteFault::Eio, WriteFault::ShortWrite];
    let total_writes = vfs.writes_observed();
    sweep.fault_runs = total_writes.min(6) as usize;
    for i in 0..sweep.fault_runs {
        let nth = i as u64 * total_writes / sweep.fault_runs as u64;
        let faulty = FaultVfs::with_plan(FaultPlan {
            fail_write: Some(nth),
            fault: FAULTS[i % FAULTS.len()],
            ..plan(config, 0xfa17 ^ nth)
        });
        let shared: Arc<dyn Vfs> = Arc::new(faulty.clone());
        let run = execute_vfs(spec, None, Some(&dir), false, &shared);
        // A rejection has no flag to raise: it must reproduce the
        // baseline's own rejection.
        let flagged = run.as_ref().map_or(true, |out| out.storage_degraded);
        let fault = format!("write fault at op {nth}");
        match answer(run) {
            got if got != baseline => report.violation(
                subject,
                format!("{fault}: the run diverged from the baseline"),
            ),
            Ok(_) if !flagged => report.violation(
                subject,
                format!("{fault}: absorbed without the storage_degraded flag"),
            ),
            _ => {}
        }
        sweep.faults_injected += faulty.faults_injected();
    }

    // Every recovery above was asserted identical to the baseline, so
    // auditing the baseline audits every surviving artifact (a rejected
    // spec has none).
    if let Ok((result, _)) = &baseline {
        audit(spec, result, subject, &mut sweep, report);
    }
    report.lines.push(format!(
        "{subject}: {} event(s), {} crash point(s) ({} resumed), {} write fault(s) \
         ({} injected), {} artifact(s) audited",
        sweep.events,
        sweep.crash_points,
        sweep.resumed,
        sweep.fault_runs,
        sweep.faults_injected,
        sweep.audited
    ));
    Ok(sweep)
}

/// Runs one surviving artifact through the audit stack.
fn audit(
    spec: &SynthSpec,
    result: &SynthResult,
    subject: &str,
    sweep: &mut Sweep,
    report: &mut ChaosReport,
) {
    sweep.audited += 1;
    if !passes_audit(spec, result, "chaos") {
        let what = format!(
            "req-{}: a surviving artifact fails the audit",
            spec.hash_hex()
        );
        report.violation(subject, what);
    }
}

/// One accepted-and-replied request of the recorded serve session.
struct Replied {
    spec: SynthSpec,
    /// The artifacts its reply carried, equal to a local run's.
    result: SynthResult,
    /// Journal length right after the reply frame was read: every storage
    /// event backing this reply has an index below this.
    events_after: usize,
    /// The daemon explicitly disclaimed durability for this reply.
    storage_degraded: bool,
}

/// The replies of `replied` with distinct specs, first reply first.
fn distinct<'a>(replied: impl Iterator<Item = &'a Replied>) -> Vec<&'a Replied> {
    let mut seen = BTreeSet::new();
    replied.filter(|r| seen.insert(r.spec.hash())).collect()
}

/// Records a spooled serve session over a journaling disk, then sweeps
/// every crash prefix of its journal.
fn serve_sweep(
    config: &ChaosConfig,
    baselines: &Baselines,
    report: &mut ChaosReport,
) -> Result<Sweep, String> {
    let spool = PathBuf::from("/spool");
    let vfs = FaultVfs::with_plan(plan(config, 0x5e12_e000));

    // One worker keeps the session sequential, so `events_after` cleanly
    // separates each reply's storage events from the next request's.
    let daemon = Daemon::start(&spool, 1, Arc::new(vfs.clone()), None)?;
    let mut replied: Vec<Replied> = Vec::new();
    for i in 0..SESSION_REQUESTS {
        // Three distinct tiny functions, repeated: duplicates exercise
        // the cache/replay path on the crashed disk too.
        let spec = SynthSpec::new(Source::Pla(pla_text(i as u64 % 3)));
        // Sent once: on a fault-free disk with one client, a dropped
        // connection or a retryable rejection is already a violation.
        let request = synth_request(format!("dc-{i}"), &spec, None, i % 2 == 0);
        let reply = roundtrip(daemon.addr, &request.to_bytes())
            .and_then(|reply| Response::from_bytes(&reply))
            .and_then(|response| match response.status {
                Status::Error => Err(format!("{:?}", response.error)),
                _ => Ok(response),
            });
        let response = match reply {
            Ok(response) => response,
            Err(e) => {
                report.violation(SESSION, format!("dc-{i}: failed on a fault-free disk: {e}"));
                continue;
            }
        };
        let (result, _) = baselines
            .get(&spec)
            .map_err(|e| format!("the local run of dc-{i} failed: {e}"))?;
        if response.result.as_ref() != Some(&result) {
            report.violation(
                SESSION,
                format!("dc-{i}: the reply diverges from a local run"),
            );
        }
        replied.push(Replied {
            spec,
            result,
            events_after: vfs.events_len(),
            storage_degraded: response.storage_degraded,
        });
    }
    daemon.drain_shutdown()?;
    let mut sweep = Sweep {
        events: vfs.events_len(),
        replied: replied.len(),
        ..Sweep::default()
    };

    for k in 0..=sweep.events {
        sweep.crash_points += 1;
        let crashed = vfs.crash_state(k, splitmix64(config.seed ^ 0xd15c_0000 ^ k as u64));
        let before_crash = || replied.iter().filter(|r| r.events_after <= k);

        // Zero-loss check: every request replied to before the crash —
        // and not explicitly disclaimed as non-durable — must still own a
        // parseable completion record promising the same artifacts. The
        // reply frame is sent only after `response.json` publishes
        // (write + fsync + rename + dir fsync), so the whole publish sits
        // inside this crash prefix.
        for r in distinct(before_crash().filter(|r| !r.storage_degraded)) {
            let record = spool
                .join(format!("req-{}", r.spec.hash_hex()))
                .join("response.json");
            let what = match crashed
                .read(&record)
                .map(|bytes| Response::from_bytes(&bytes))
            {
                Err(_) => "lost its durable record",
                Ok(Err(_)) => "has a torn durable record",
                Ok(Ok(got))
                    if got.status != Status::Error && got.result.as_ref() == Some(&r.result) =>
                {
                    continue
                }
                Ok(Ok(_)) => "has a durable record that diverges from its reply",
            };
            let req = r.spec.hash_hex();
            let what = format!("crash point {k}: accepted-and-replied req-{req} {what}");
            report.violation(SESSION, what);
        }

        // Restart on the crashed disk: recovery must not panic, and every
        // previously replied spec must re-serve the identical result
        // (from the surviving record, a surviving checkpoint, or a clean
        // re-run — the client cannot tell and must not need to).
        let replay = distinct(before_crash());
        let recovery = run_quarantined(SESSION, || {
            let daemon = Daemon::start(&spool, 1, Arc::new(crashed), None)
                .map_err(|e| format!("the restart failed: {e}"))?;
            for (j, r) in replay.iter().enumerate() {
                let request = synth_request(format!("dc-replay-{k}-{j}"), &r.spec, None, false);
                let req = r.spec.hash_hex();
                let response = retry_roundtrip(&|| Some(daemon.addr), &request, config.seed)
                    .ok_or(format!("the replay of req-{req} went unanswered"))?
                    .0;
                if response.status == Status::Error || response.result.as_ref() != Some(&r.result) {
                    let error = response.error;
                    return Err(format!(
                        "the replay of req-{req} diverges from its reply: {error:?}"
                    ));
                }
            }
            daemon.drain_shutdown()
        });
        report.verdict(SESSION, &format!("crash point {k}"), recovery);
    }

    // Every distinct artifact the session promised goes through the full
    // audit stack once (replies and records were asserted identical).
    for r in distinct(replied.iter()) {
        audit(&r.spec, &r.result, SESSION, &mut sweep, report);
    }
    report.lines.push(format!(
        "{SESSION}: {} event(s), {} crash point(s), {} request(s) replied, {} artifact(s) audited",
        sweep.events, sweep.crash_points, sweep.replied, sweep.audited
    ));
    Ok(sweep)
}

// ---------------------------------------------------------------------
// Phase 3: a killed daemon under load
// ---------------------------------------------------------------------

/// The process phase's subject.
const DAEMON: &str = "process daemon";

/// The request mix, derived deterministically from `(seed, index)`.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ReqKind {
    /// A small fully specified PLA function (12 variants → duplicates).
    ValidPla(u64),
    /// Same, with `checkpoint:true` so kills leave resumable state.
    Checkpointed(u64),
    /// A step-limited spec: must complete `degraded`, deterministically.
    StepLimited(u64),
    /// A registry benchmark by label.
    Registry(usize),
    /// `deadline_ms: 0` — must be shed with a `deadline` error.
    DeadlineZero(u64),
    /// The panicking benchmark: quarantine + circuit breaker.
    PanicProbe,
    /// A syntactically broken frame: typed `malformed` rejection.
    Malformed,
    /// A frame above the size cap: typed `oversized` rejection.
    Oversized,
}

const REGISTRY_LABELS: [&str; 2] = ["1-digit decimal adder", "3-5 RNS"];

fn kind_for(seed: u64, index: usize) -> ReqKind {
    let r = splitmix64(seed ^ (index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    match r % 100 {
        0..=34 => ReqKind::ValidPla((r >> 8) % 12),
        35..=49 => ReqKind::Checkpointed((r >> 8) % 6),
        50..=59 => ReqKind::StepLimited((r >> 8) % 4),
        60..=69 => ReqKind::Registry(((r >> 8) % REGISTRY_LABELS.len() as u64) as usize),
        70..=79 => ReqKind::DeadlineZero((r >> 8) % 4),
        80..=86 => ReqKind::PanicProbe,
        87..=93 => ReqKind::Malformed,
        _ => ReqKind::Oversized,
    }
}

/// A fully specified 3-in/2-out PLA whose output column is `variant`'s
/// bits — distinct tiny functions, deterministic on both sides.
fn pla_text(variant: u64) -> String {
    let bits = splitmix64(variant.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xa5a5);
    let mut text = String::from(".i 3\n.o 2\n");
    for minterm in 0..8u64 {
        let o0 = (bits >> minterm) & 1;
        let o1 = (bits >> (minterm + 8)) & 1;
        text.push_str(&format!(
            "{}{}{} {}{}\n",
            (minterm >> 2) & 1,
            (minterm >> 1) & 1,
            minterm & 1,
            o0,
            o1
        ));
    }
    text.push_str(".e\n");
    text
}

/// The spec, deadline and checkpoint flag of a kind, or `None` for
/// protocol abuse.
fn spec_for(kind: &ReqKind) -> Option<(SynthSpec, Option<u64>, bool)> {
    let pla = |variant| SynthSpec::new(Source::Pla(pla_text(variant)));
    match kind {
        ReqKind::ValidPla(v) => Some((pla(*v), None, false)),
        ReqKind::Checkpointed(v) => Some((pla(100 + *v), None, true)),
        ReqKind::StepLimited(v) => {
            let mut spec = pla(200 + *v);
            spec.step_limit = Some(4);
            Some((spec, None, false))
        }
        ReqKind::Registry(i) => Some((
            SynthSpec::new(Source::Registry(REGISTRY_LABELS[*i].into())),
            None,
            false,
        )),
        ReqKind::DeadlineZero(v) => Some((pla(300 + *v), Some(0), false)),
        ReqKind::PanicProbe => Some((
            SynthSpec::new(Source::Registry("panic probe".into())),
            None,
            false,
        )),
        ReqKind::Malformed | ReqKind::Oversized => None,
    }
}

/// What the process phase's clients saw.
#[derive(Debug, Default)]
struct Tally {
    /// Requests sent, protocol abuse included.
    sent: u64,
    /// Clean completions.
    ok: u64,
    /// Budget-degraded completions.
    degraded: u64,
    /// Completions served from the validated cache.
    cached: u64,
    /// Completions served by a restarted daemon (spool replay or resume).
    resumed: u64,
    /// Typed retryable rejections absorbed by backoff.
    retries: u64,
    /// Deadline sheds of the zero-deadline class.
    deadline: u64,
    /// Panic and circuit-breaker rejections of the probe.
    panicked: u64,
    /// Malformed and oversized frames rejected.
    rejected: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.cached += other.cached;
        self.resumed += other.resumed;
        self.retries += other.retries;
        self.deadline += other.deadline;
        self.panicked += other.panicked;
        self.rejected += other.rejected;
    }
}

/// Sends the seeded request mix from [`CLIENTS`] client threads to a
/// daemon on `config.dir`, kills and restarts the daemon once mid-batch,
/// drains it, and audits the spool it leaves.
fn process_phase(
    config: &ChaosConfig,
    baselines: &Baselines,
    report: &mut ChaosReport,
) -> Result<Tally, String> {
    std::fs::create_dir_all(&config.dir)
        .map_err(|e| format!("spool dir {}: {e}", config.dir.display()))?;
    let bin = config.server_bin.as_deref();
    let start = || Daemon::start(&config.dir, WORKERS, Arc::new(StdVfs), bin);
    let daemon = Mutex::new(Some(start()?));
    let mut tally = Tally::default();
    let killer = std::thread::scope(|scope| {
        // The killer: wait a seeded share of the batch, then kill and
        // restart once.
        let killer = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(120 + splitmix64(config.seed) % 180));
            let mut slot = lock(&daemon);
            // Holding `daemon` across the restart is the point: the guard
            // is the barrier that keeps clients from reaching a daemon
            // that is mid-kill; they block here and retry against the
            // restarted instance.
            // xlint: allow(XL202) — intentional barrier, see above.
            kill_and_restart(&mut slot, start)
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let daemon = &daemon;
                scope.spawn(move || run_client(client, config, daemon, baselines))
            })
            .collect();
        for (client, handle) in clients.into_iter().enumerate() {
            match handle.join() {
                Ok((seen, violations)) => {
                    tally.add(&seen);
                    report.violations.extend(violations);
                }
                Err(_) => report.violation(DAEMON, format!("client {client} panicked")),
            }
        }
        killer.join()
    });
    let kills = match killer {
        Ok(restarted) => restarted.map(|()| 1)?,
        Err(_) => {
            report.violation(DAEMON, "the killer panicked");
            0
        }
    };
    if let Some(daemon) = daemon.into_inner().unwrap_or_else(PoisonError::into_inner) {
        daemon.drain_shutdown()?;
    }
    audit_spool(&config.dir, report);
    report.lines.push(format!(
        "{DAEMON}: {} sent | {} ok, {} degraded ({} cached, {} resumed) | {} retries, \
         {} deadline sheds, {} panic/breaker, {} malformed/oversized rejected, {kills} kill(s)",
        tally.sent,
        tally.ok,
        tally.degraded,
        tally.cached,
        tally.resumed,
        tally.retries,
        tally.deadline,
        tally.panicked,
        tally.rejected
    ));
    Ok(tally)
}

/// Kills the daemon in `slot` and starts a new one on the same spool.
fn kill_and_restart(
    slot: &mut Option<Daemon>,
    start: impl Fn() -> Result<Daemon, String>,
) -> Result<(), String> {
    if let Some(daemon) = slot.take() {
        daemon.kill();
    }
    *slot = Some(start()?);
    Ok(())
}

/// One client's share of the mix: every [`CLIENTS`]th request from
/// `client` on. Returns what it saw and the promises it saw broken.
fn run_client(
    client: usize,
    config: &ChaosConfig,
    daemon: &Mutex<Option<Daemon>>,
    baselines: &Baselines,
) -> (Tally, Vec<String>) {
    let addr = || lock(daemon).as_ref().map(|d| d.addr);
    let mut tally = Tally::default();
    let mut violations = Vec::new();
    for index in (client..config.requests).step_by(CLIENTS) {
        let kind = kind_for(config.seed, index);
        let id = format!("c{client}-{index}");
        tally.sent += 1;
        let verdict = match spec_for(&kind) {
            // Protocol abuse: a typed rejection, or no verdict when a kill
            // raced the connection.
            None => {
                let (frame, want) = if kind == ReqKind::Malformed {
                    let mut frame = Vec::new();
                    let _ = write_frame(&mut frame, b"{\"id\":\"m\",\"op\":\"nope\"}");
                    (frame, ErrorCode::Malformed)
                } else {
                    // An honest prefix claiming far more than the cap; the
                    // daemon must reject on the prefix alone.
                    ((64u32 << 20).to_le_bytes().to_vec(), ErrorCode::Oversized)
                };
                match addr().and_then(|addr| typed_error(addr, &frame)) {
                    Some(code) if code != want => Err(format!("answered {code:?}")),
                    Some(_) => {
                        tally.rejected += 1;
                        Ok(())
                    }
                    None => Ok(()),
                }
            }
            Some((spec, deadline_ms, checkpoint)) => {
                let request = synth_request(id.clone(), &spec, deadline_ms, checkpoint);
                match retry_roundtrip(&addr, &request, config.seed ^ index as u64) {
                    None => Err(format!("gave up after {ATTEMPTS} attempts")),
                    Some((response, retries)) => {
                        tally.retries += retries;
                        classify(&id, &kind, &spec, response, baselines, &mut tally)
                    }
                }
            }
        };
        if let Err(what) = verdict {
            violations.push(format!("{DAEMON}: {id} {kind:?}: {what}"));
        }
    }
    (tally, violations)
}

/// Scores one terminal reply to request `id` against the contract of its
/// kind.
fn classify(
    id: &str,
    kind: &ReqKind,
    spec: &SynthSpec,
    response: Response,
    baselines: &Baselines,
    tally: &mut Tally,
) -> Result<(), String> {
    let code = response.error.as_ref().map(|(code, _)| *code);
    match kind {
        ReqKind::DeadlineZero(_) if code == Some(ErrorCode::Deadline) => tally.deadline += 1,
        ReqKind::PanicProbe
            if matches!(code, Some(ErrorCode::Panicked | ErrorCode::CircuitOpen)) =>
        {
            tally.panicked += 1
        }
        ReqKind::DeadlineZero(_) | ReqKind::PanicProbe => {
            return Err(format!("answered {:?} {code:?}", response.status))
        }
        _ if response.status == Status::Error => {
            return Err(format!("failed: {:?}", response.error))
        }
        _ => {
            tally.ok += u64::from(response.status == Status::Ok);
            tally.degraded += u64::from(response.status == Status::Degraded);
            tally.cached += u64::from(response.cached);
            tally.resumed += u64::from(response.resumed);
            let (result, degraded) = baselines
                .get(spec)
                .map_err(|e| format!("the local run failed: {e}"))?;
            // The delivery flags are not artifact bytes; everything else,
            // the echoed id included, must match the request and a local run.
            let want = Response {
                id: id.to_owned(),
                status: if degraded {
                    Status::Degraded
                } else {
                    Status::Ok
                },
                spec_hash: Some(spec.hash_hex()),
                error: None,
                result: Some(result),
                cached: false,
                resumed: false,
                storage_degraded: false,
            };
            if want.artifact_bytes() != response.artifact_bytes() {
                return Err(format!(
                    "the reply ({:?}, cached {}, resumed {}) differs from a local run",
                    response.status, response.cached, response.resumed
                ));
            }
        }
    }
    Ok(())
}

/// The post-mortem of the process phase's spool: every entry with an
/// acceptance record has a completion record, and every persisted success
/// passes the audit stack against a spec rebuilt from its own acceptance
/// record.
fn audit_spool(spool: &Path, report: &mut ChaosReport) {
    let Ok(entries) = std::fs::read_dir(spool) else {
        return;
    };
    for entry in entries.flatten() {
        let (path, name) = (
            entry.path(),
            entry.file_name().to_string_lossy().into_owned(),
        );
        if !name.starts_with("req-") || !path.join("request.json").exists() {
            continue;
        }
        let read = |file| std::fs::read(path.join(file)).ok();
        let Some(response) = read("response.json") else {
            report.violation(DAEMON, format!("{name}: was accepted but never completed"));
            continue;
        };
        let request = read("request.json").map(|bytes| Request::from_bytes(&bytes));
        let what = match (request, Response::from_bytes(&response)) {
            (Some(Ok(Request { body, .. })), Ok(response)) => match body {
                RequestBody::Synth { spec, .. } if response.status == Status::Ok => {
                    let result = response.result;
                    if result.is_some_and(|result| passes_audit(&spec, &result, &name)) {
                        continue;
                    }
                    "persisted a success that fails the audit"
                }
                _ => continue,
            },
            _ => "has an unparsable durable record",
        };
        report.violation(DAEMON, format!("{name}: {what}"));
    }
}

// ---------------------------------------------------------------------
// Daemon helpers
// ---------------------------------------------------------------------

/// A daemon the harness started on a spool.
struct Daemon {
    /// Where it listens.
    addr: SocketAddr,
    process: Process,
}

/// How a [`Daemon`] runs.
enum Process {
    InProcess(Server),
    /// A child process, which can be `SIGKILL`ed.
    Child(Child),
}

impl Daemon {
    /// Starts a daemon with `workers` workers on `spool`: `bin serve …` as
    /// a child process over the real disk when `bin` is given, else
    /// in-process over `vfs`.
    fn start(
        spool: &Path,
        workers: usize,
        vfs: Arc<dyn Vfs>,
        bin: Option<&Path>,
    ) -> Result<Daemon, String> {
        let Some(bin) = bin else {
            let server = Server::start(ServerConfig {
                workers,
                spool_dir: Some(spool.to_path_buf()),
                vfs,
                ..ServerConfig::default()
            })
            .map_err(|e| format!("starting an in-process daemon: {e}"))?;
            return Ok(Daemon {
                addr: server.local_addr(),
                process: Process::InProcess(server),
            });
        };
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--spool")
            .arg(spool)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("child stdout not captured")?;
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .ok_or("the daemon exited before announcing its address")?
                .map_err(|e| format!("reading daemon stdout: {e}"))?;
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest
                    .trim()
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad daemon address {rest:?}: {e}"))?;
            }
        };
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Ok(Daemon {
            addr,
            process: Process::Child(child),
        })
    }

    /// Kills the daemon: `SIGKILL` for a child. An in-process daemon has
    /// no process to kill; a checkpoint-mode shutdown is the closest
    /// chaos — in-flight jobs park, queued jobs stay spooled, and the
    /// restart must recover both.
    fn kill(self) {
        match self.process {
            Process::InProcess(server) => {
                let _ = shutdown(self.addr, ShutdownMode::Checkpoint);
                let _ = server.wait();
            }
            Process::Child(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// A drain shutdown, which the daemon must acknowledge and then exit.
    fn drain_shutdown(self) -> Result<(), String> {
        let ack = shutdown(self.addr, ShutdownMode::Drain)?;
        if parse_control_status(&ack).as_deref() != Some("ok") {
            let ack = String::from_utf8_lossy(&ack);
            return Err(format!("drain shutdown not acknowledged: {ack}"));
        }
        match self.process {
            Process::InProcess(server) => {
                let _ = server.wait();
                Ok(())
            }
            Process::Child(mut child) => {
                for _ in 0..3000 {
                    if child.try_wait().map_err(|e| e.to_string())?.is_some() {
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = child.kill();
                Err("the daemon did not exit after a drain shutdown".into())
            }
        }
    }
}

fn shutdown(addr: SocketAddr, mode: ShutdownMode) -> Result<Vec<u8>, String> {
    let request = Request {
        id: "chaos-shutdown".into(),
        body: RequestBody::Shutdown(mode),
    };
    roundtrip(addr, &request.to_bytes())
}

fn synth_request(
    id: String,
    spec: &SynthSpec,
    deadline_ms: Option<u64>,
    checkpoint: bool,
) -> Request {
    let spec = spec.clone();
    let body = RequestBody::Synth {
        spec,
        deadline_ms,
        checkpoint,
    };
    Request { id, body }
}

/// Sends `request` until a reply that is not a retryable rejection
/// arrives. A connection that dies (a kill mid-request) and a typed
/// `queue_full` / `overloaded` / `draining` rejection are retried after an
/// exponential backoff with jitter drawn from `seed`; `addr` is asked
/// before every attempt, because a restarted daemon listens elsewhere.
/// Returns the reply and the typed rejections absorbed, or `None` once
/// [`ATTEMPTS`] run out.
fn retry_roundtrip(
    addr: &dyn Fn() -> Option<SocketAddr>,
    request: &Request,
    seed: u64,
) -> Option<(Response, u64)> {
    let payload = request.to_bytes();
    let mut rejections = 0;
    for attempt in 1..=ATTEMPTS {
        let reply = addr()
            .ok_or(String::new())
            .and_then(|addr| roundtrip(addr, &payload))
            .and_then(|reply| Response::from_bytes(&reply));
        if let Ok(response) = reply {
            match &response.error {
                Some((code, _)) if code.is_retryable() => rejections += 1,
                _ => return Some((response, rejections)),
            }
        }
        let jitter = splitmix64(seed ^ u64::from(attempt)) % 7;
        std::thread::sleep(Duration::from_millis((1 << attempt.min(6)) + jitter));
    }
    None
}

/// The typed error a daemon answers the raw bytes `frame` with (raw, so an
/// oversized prefix goes out without its payload), or `None` when the
/// connection died first.
fn typed_error(addr: SocketAddr, frame: &[u8]) -> Option<ErrorCode> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    stream.write_all(frame).ok()?;
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).ok().flatten()?;
    Response::from_bytes(&reply)
        .ok()?
        .error
        .map(|(code, _)| code)
}

/// A job's answer: its artifacts and whether they degraded, or its typed
/// rejection (a function no single cascade realizes, say), which a
/// faithful recovery must reproduce just the same.
type Answer = Result<(SynthResult, bool), String>;

fn answer(run: Result<ExecOutcome, ExecError>) -> Answer {
    run.map(|out| (out.result, out.degraded))
        .map_err(|e| format!("{e:?}"))
}

/// Local runs of specs, memoized by spec hash: the answer a reply, a
/// recovery or a replay must reproduce.
#[derive(Default)]
struct Baselines(Mutex<HashMap<u64, Answer>>);

impl Baselines {
    fn get(&self, spec: &SynthSpec) -> Answer {
        let hash = spec.hash();
        if let Some(found) = lock(&self.0).get(&hash) {
            return found.clone();
        }
        let budget = spec
            .step_limit
            .map(|s| Budget::default().with_step_limit(s));
        let computed = answer(execute(spec, budget, None, false));
        lock(&self.0).insert(hash, computed.clone());
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(seed: u64, dir: &str) -> ChaosConfig {
        ChaosConfig {
            seed,
            dir: std::env::temp_dir().join(format!("bddcf-chaos-{dir}-{}", std::process::id())),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn the_mix_is_deterministic_and_diverse() {
        let kinds: Vec<ReqKind> = (0..200).map(|i| kind_for(7, i)).collect();
        let again: Vec<ReqKind> = (0..200).map(|i| kind_for(7, i)).collect();
        assert_eq!(kinds, again);
        let count = |f: fn(&ReqKind) -> bool| kinds.iter().filter(|k| f(k)).count();
        assert!(count(|k| matches!(k, ReqKind::ValidPla(_))) > 20);
        assert!(count(|k| matches!(k, ReqKind::Malformed)) > 3);
        assert!(count(|k| matches!(k, ReqKind::Oversized)) > 3);
        assert!(count(|k| matches!(k, ReqKind::PanicProbe)) > 3);
        assert!(count(|k| matches!(k, ReqKind::DeadlineZero(_))) > 5);
        // Duplicates exist (12 PLA variants over ~70 valid requests).
        let mut hashes: Vec<u64> = kinds
            .iter()
            .filter_map(|k| spec_for(k).map(|(s, _, _)| s.hash()))
            .collect();
        let total = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert!(hashes.len() < total, "the mix must repeat specs");
    }

    #[test]
    fn pla_variants_parse_and_differ() {
        for v in 0..12 {
            let text = pla_text(v);
            bddcf_io::parse_pla(&text).expect("variant parses");
        }
        assert_ne!(pla_text(0), pla_text(1));
    }

    #[test]
    fn small_in_process_chaos_run_passes() {
        let config = ChaosConfig {
            requests: 60,
            ..test_config(11, "process")
        };
        let _ = std::fs::remove_dir_all(&config.dir);
        let mut report = ChaosReport::default();
        let tally =
            with_quiet_panics(|| process_phase(&config, &Baselines::default(), &mut report))
                .expect("harness runs");
        assert!(report.passed(), "{}", report.render());
        assert!(tally.ok + tally.degraded > 0, "{}", report.render());
        assert!(report.render().contains("1 kill(s)"));
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn small_storage_phase_passes() {
        let config = test_config(3, "storage");
        let baselines = Baselines::default();
        let mut report = ChaosReport::default();
        let specs = [
            SynthSpec::new(Source::Pla(REDUCTION_PLA.into())),
            SynthSpec::new(Source::Registry("3-5 RNS".into())),
            // 2-input cells cannot realize the PLA: its recoveries must
            // reproduce the rejection.
            SynthSpec {
                max_in: 2,
                ..SynthSpec::new(Source::Pla(REDUCTION_PLA.into()))
            },
        ];
        let sweeps: Vec<Sweep> = specs
            .iter()
            .map(|spec| reduction_sweep(&config, "storage", spec, &baselines, &mut report))
            .collect::<Result<_, _>>()
            .expect("harness runs");
        let serve = serve_sweep(&config, &baselines, &mut report).expect("harness runs");
        assert!(report.passed(), "{}", report.render());
        assert_eq!(
            report.lines.len(),
            4,
            "one line per reduction + the session"
        );
        for sweep in &sweeps {
            assert!(sweep.events > 0, "{}", report.render());
            // Crash point 0 (an empty disk) reruns from scratch; the last
            // prefix resumes from the `ReductionDone` checkpoint.
            assert!(
                0 < sweep.resumed && sweep.resumed < sweep.crash_points,
                "{}",
                report.render()
            );
        }
        assert!(serve.events > 0);
        assert_eq!(serve.replied, SESSION_REQUESTS);
        assert!(sweeps.iter().map(|s| s.faults_injected).sum::<u64>() > 0);
        assert!(
            sweeps
                .iter()
                .chain([&serve])
                .map(|s| s.audited)
                .sum::<usize>()
                > 0
        );
    }

    #[test]
    fn dropped_directory_fsyncs_are_caught() {
        // The negative control: with every dir fsync a lie, renames never
        // become durable and the storage phase must surface violations.
        // This is the regression proving it checks rename durability.
        let config = ChaosConfig {
            drop_dir_sync: true,
            ..test_config(3, "control")
        };
        let baselines = Baselines::default();
        let mut report = ChaosReport::default();
        let builtin = SynthSpec::new(Source::Pla(REDUCTION_PLA.into()));
        reduction_sweep(&config, "storage", &builtin, &baselines, &mut report).expect("runs");
        serve_sweep(&config, &baselines, &mut report).expect("harness runs");
        assert!(!report.passed(), "a lying directory fsync must break it");
        let storage_violation = |v: &String| {
            v.contains("no checkpoint survived") || v.contains("lost its durable record")
        };
        assert!(
            report.violations.iter().any(storage_violation),
            "{}",
            report.render()
        );
    }

    #[test]
    fn a_panicking_benchmark_is_a_violation_not_an_abort() {
        let config = ChaosConfig {
            benchmarks: vec!["panic probe".into()],
            points: 2,
            requests: 8,
            ..test_config(5, "panic")
        };
        let report = run_chaos(&config).expect("harness runs");
        let _ = std::fs::remove_dir_all(&config.dir);
        assert!(!report.passed());
        let panicked = |subject: &str| {
            report
                .violations
                .iter()
                .any(|v| v.starts_with(subject) && v.contains("panicked"))
        };
        assert!(panicked("budget panic probe"), "{}", report.render());
        assert!(
            panicked("storage reduction panic probe"),
            "{}",
            report.render()
        );
        assert!(report.lines.iter().any(|l| l.starts_with(DAEMON)));
    }
}
