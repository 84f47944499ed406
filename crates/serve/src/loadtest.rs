//! The chaos/load harness (`bddcf loadtest`).
//!
//! Drives a daemon with a seeded mix of hundreds of requests — valid PLA
//! and registry specs (with duplicates, so the cache and spool replay are
//! exercised), step-limited specs (deterministic degradation), zero
//! deadlines (queue shedding), the `"panic probe"` spec (quarantine and
//! circuit breaker), malformed JSON, and oversized frames — from several
//! concurrent client threads with seeded retry + exponential backoff.
//! Mid-batch it kills the daemon and restarts it on the same spool, then
//! finishes with a drain shutdown and audits the aftermath:
//!
//! * **No accepted request lost** — every spool entry with an acceptance
//!   record has a completion record.
//! * **Byte-identical artifacts** — every successful response equals a
//!   locally recomputed one on [`Response::artifact_bytes`], regardless of
//!   whether it came from a worker, the cache, the spool, or a
//!   crash-recovered daemon.
//! * **Audited artifacts** — every persisted success passes
//!   [`bddcf_check::audit_artifact_text`] against a spec χ rebuilt from
//!   its own acceptance record.
//!
//! Two kill modes: with a server *binary* the daemon is a child process
//! killed with `SIGKILL`; in-process (no binary available, e.g. crate
//! tests) the kill is a `checkpoint`-mode shutdown plus restart, which
//! exercises the same park/recover path without process isolation.

use crate::job::{execute, passes_audit};
use crate::protocol::{
    read_frame, roundtrip, ErrorCode, Request, RequestBody, Response, ShutdownMode, Source, Status,
    SynthResult, SynthSpec,
};
use crate::server::{parse_control_status, Server, ServerConfig};
use bddcf_bdd::{splitmix64, Budget};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Harness configuration.
#[derive(Clone)]
pub struct LoadTestConfig {
    /// Total requests across all clients.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Seed for the request mix, retry jitter, and kill timing.
    pub seed: u64,
    /// Spool directory (shared across daemon restarts).
    pub spool_dir: PathBuf,
    /// Daemon binary (spawned as `<bin> serve …` and `SIGKILL`ed); `None`
    /// runs the daemon in-process and "kills" via checkpoint shutdown.
    pub server_bin: Option<PathBuf>,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon queue capacity.
    pub queue_capacity: usize,
}

impl Default for LoadTestConfig {
    fn default() -> Self {
        LoadTestConfig {
            requests: 200,
            clients: 4,
            seed: 0xb0d0_cf5e,
            spool_dir: PathBuf::from("loadtest-spool"),
            server_bin: None,
            workers: 2,
            queue_capacity: 16,
        }
    }
}

/// What the harness observed; [`LoadTestReport::passed`] is the verdict.
#[derive(Clone, Debug, Default)]
pub struct LoadTestReport {
    /// Requests sent (including protocol-abuse ones).
    pub sent: u64,
    /// Clean completions.
    pub ok: u64,
    /// Budget-degraded completions.
    pub degraded: u64,
    /// Completions served from the validated cache.
    pub cached: u64,
    /// Completions served by a restarted daemon (spool replay/resume).
    pub resumed: u64,
    /// Typed retryable rejections absorbed by backoff.
    pub retries: u64,
    /// Deadline sheds (expected for the zero-deadline class).
    pub deadline: u64,
    /// Panic / circuit-breaker rejections (expected for the probe class).
    pub panicked: u64,
    /// Malformed frames correctly rejected.
    pub malformed_rejected: u64,
    /// Oversized frames correctly rejected.
    pub oversized_rejected: u64,
    /// Daemon kills + restarts performed.
    pub kills: u64,
    /// Requests whose clients exhausted retries (harness failure).
    pub gave_up: u64,
    /// Responses that violated the protocol contract (harness failure).
    pub protocol_errors: u64,
    /// Successful responses that did not byte-match the locally
    /// recomputed artifact (harness failure).
    pub mismatches: u64,
    /// Persisted artifacts that failed the audit stack (harness failure).
    pub audit_failures: u64,
    /// Spool entries accepted but never completed (harness failure).
    pub lost: Vec<String>,
}

impl LoadTestReport {
    /// Did the daemon keep every promise under chaos?
    pub fn passed(&self) -> bool {
        self.lost.is_empty()
            && self.mismatches == 0
            && self.audit_failures == 0
            && self.gave_up == 0
            && self.protocol_errors == 0
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadtest: {} sent | {} ok, {} degraded ({} cached, {} resumed)\n",
            self.sent, self.ok, self.degraded, self.cached, self.resumed
        ));
        out.push_str(&format!(
            "          {} retries absorbed, {} deadline sheds, {} panic/breaker, \
             {} malformed + {} oversized rejected, {} kill(s)\n",
            self.retries,
            self.deadline,
            self.panicked,
            self.malformed_rejected,
            self.oversized_rejected,
            self.kills
        ));
        out.push_str(&format!(
            "          failures: {} lost, {} mismatched, {} audit, {} gave-up, {} protocol\n",
            self.lost.len(),
            self.mismatches,
            self.audit_failures,
            self.gave_up,
            self.protocol_errors
        ));
        for name in &self.lost {
            out.push_str(&format!("          LOST {name}\n"));
        }
        out.push_str(if self.passed() {
            "          PASS: no accepted request lost, all artifacts byte-identical and audited\n"
        } else {
            "          FAIL\n"
        });
        out
    }
}

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
/// bits — 12 distinct tiny functions, deterministic on both sides.
pub(crate) fn pla_text(variant: u64) -> String {
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

/// The spec + request knobs for a kind, or `None` for protocol abuse.
fn spec_for(kind: &ReqKind) -> Option<(SynthSpec, Option<u64>, bool)> {
    match kind {
        ReqKind::ValidPla(v) => Some((SynthSpec::new(Source::Pla(pla_text(*v))), None, false)),
        ReqKind::Checkpointed(v) => {
            Some((SynthSpec::new(Source::Pla(pla_text(100 + *v))), None, true))
        }
        ReqKind::StepLimited(v) => {
            let mut spec = SynthSpec::new(Source::Pla(pla_text(200 + *v)));
            spec.step_limit = Some(4);
            Some((spec, None, false))
        }
        ReqKind::Registry(i) => Some((
            SynthSpec::new(Source::Registry(REGISTRY_LABELS[*i].into())),
            None,
            false,
        )),
        ReqKind::DeadlineZero(v) => Some((
            SynthSpec::new(Source::Pla(pla_text(300 + *v))),
            Some(0),
            false,
        )),
        ReqKind::PanicProbe => Some((
            SynthSpec::new(Source::Registry("panic probe".into())),
            None,
            false,
        )),
        ReqKind::Malformed | ReqKind::Oversized => None,
    }
}

// ---------------------------------------------------------------------
// Server control (in-process or child process)
// ---------------------------------------------------------------------

enum Daemon {
    InProcess(Option<Server>),
    Child(Option<Child>),
}

struct Ctl {
    daemon: Daemon,
    addr: SocketAddr,
}

fn server_config(config: &LoadTestConfig) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: config.workers,
        queue_capacity: config.queue_capacity,
        spool_dir: Some(config.spool_dir.clone()),
        ..ServerConfig::default()
    }
}

fn start_daemon(config: &LoadTestConfig) -> Result<Ctl, String> {
    match &config.server_bin {
        None => {
            let server = Server::start(server_config(config))
                .map_err(|e| format!("starting in-process server: {e}"))?;
            let addr = server.local_addr();
            Ok(Ctl {
                daemon: Daemon::InProcess(Some(server)),
                addr,
            })
        }
        Some(bin) => {
            let mut child = Command::new(bin)
                .args([
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    &config.workers.to_string(),
                    "--queue-cap",
                    &config.queue_capacity.to_string(),
                    "--spool",
                ])
                .arg(&config.spool_dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
            let stdout = child
                .stdout
                .take()
                .ok_or("child stdout not captured".to_string())?;
            let mut lines = BufReader::new(stdout).lines();
            let addr = loop {
                let line = lines
                    .next()
                    .ok_or("daemon exited before announcing its address".to_string())?
                    .map_err(|e| format!("reading daemon stdout: {e}"))?;
                if let Some(rest) = line.strip_prefix("listening on ") {
                    break rest
                        .trim()
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad daemon address {rest:?}: {e}"))?;
                }
            };
            // Keep draining stdout so the daemon never blocks on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            Ok(Ctl {
                daemon: Daemon::Child(Some(child)),
                addr,
            })
        }
    }
}

/// Kills the daemon mid-batch and restarts it on the same spool.
fn kill_and_restart(ctl: &mut Ctl, config: &LoadTestConfig) -> Result<(), String> {
    match &mut ctl.daemon {
        Daemon::InProcess(server) => {
            // No process to SIGKILL in-process: a checkpoint-mode shutdown
            // is the closest chaos — in-flight jobs park, queued jobs stay
            // spooled, and the restart must recover both.
            let shutdown = Request {
                id: "chaos-kill".into(),
                body: RequestBody::Shutdown(ShutdownMode::Checkpoint),
            };
            let _ = roundtrip(ctl.addr, &shutdown.to_bytes());
            if let Some(server) = server.take() {
                let _ = server.wait();
            }
        }
        Daemon::Child(child) => {
            if let Some(mut child) = child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    let restarted = start_daemon(config)?;
    ctl.daemon = restarted.daemon;
    ctl.addr = restarted.addr;
    Ok(())
}

/// Final drain shutdown; waits for the daemon to exit.
fn finish_daemon(ctl: &mut Ctl) -> Result<(), String> {
    let shutdown = Request {
        id: "final-drain".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let ack = roundtrip(ctl.addr, &shutdown.to_bytes())?;
    if parse_control_status(&ack).as_deref() != Some("ok") {
        return Err(format!(
            "drain shutdown not acknowledged: {}",
            String::from_utf8_lossy(&ack)
        ));
    }
    match &mut ctl.daemon {
        Daemon::InProcess(server) => {
            if let Some(server) = server.take() {
                let _ = server.wait();
            }
        }
        Daemon::Child(child) => {
            if let Some(mut child) = child.take() {
                for _ in 0..3000 {
                    if child.try_wait().map_err(|e| e.to_string())?.is_some() {
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = child.kill();
                return Err("daemon did not exit after drain shutdown".into());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Expected results (computed locally, once per unique spec)
// ---------------------------------------------------------------------

#[derive(Default)]
struct Expected {
    results: Mutex<HashMap<u64, Option<(SynthResult, bool)>>>,
}

impl Expected {
    /// The locally computed result for `spec` (None if it cannot complete,
    /// e.g. the panic probe).
    fn result_for(&self, spec: &SynthSpec) -> Option<(SynthResult, bool)> {
        let hash = spec.hash();
        if let Some(found) = lock(&self.results).get(&hash) {
            return found.clone();
        }
        let budget = spec
            .step_limit
            .map(|s| Budget::default().with_step_limit(s));
        let computed = execute(spec, budget, None, false)
            .ok()
            .map(|out| (out.result, out.degraded));
        lock(&self.results).insert(hash, computed.clone());
        computed
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// The client side
// ---------------------------------------------------------------------

enum Attempt {
    Done(Box<Response>),
    Retry(Option<ErrorCode>),
}

fn send_once(addr: SocketAddr, payload: &[u8]) -> Attempt {
    // A kill mid-request: the connection just dies. Retry.
    let Ok(reply) = roundtrip(addr, payload) else {
        return Attempt::Retry(None);
    };
    match Response::from_bytes(&reply) {
        Ok(response) => {
            if let Some((code, _)) = &response.error {
                if code.is_retryable() {
                    return Attempt::Retry(Some(*code));
                }
            }
            Attempt::Done(Box::new(response))
        }
        Err(_) => Attempt::Retry(None),
    }
}

struct ClientOutcome {
    report: LoadTestReport,
}

#[allow(clippy::too_many_lines)]
fn run_client(
    client_idx: usize,
    config: &LoadTestConfig,
    ctl: &Mutex<Ctl>,
    expected: &Expected,
) -> ClientOutcome {
    let mut report = LoadTestReport::default();
    let mut index = client_idx;
    while index < config.requests {
        let kind = kind_for(config.seed, index);
        report.sent += 1;
        match &kind {
            ReqKind::Malformed => {
                let addr = lock(ctl).addr;
                match send_raw_expect_error(addr, b"{\"id\":\"m\",\"op\":\"nope\"}") {
                    Some(ErrorCode::Malformed) => report.malformed_rejected += 1,
                    Some(_) => report.protocol_errors += 1,
                    None => {} // connection raced a kill; not a verdict
                }
            }
            ReqKind::Oversized => {
                let addr = lock(ctl).addr;
                let mut frame = Vec::new();
                // An honest prefix claiming far more than the cap; the
                // daemon must reject on the prefix alone.
                frame.extend_from_slice(&(64u32 * 1024 * 1024).to_le_bytes());
                match send_bytes_expect_error(addr, &frame) {
                    Some(ErrorCode::Oversized) => report.oversized_rejected += 1,
                    Some(_) => report.protocol_errors += 1,
                    None => {}
                }
            }
            other => {
                let Some((spec, deadline_ms, checkpoint)) = spec_for(other) else {
                    continue;
                };
                let request = Request {
                    id: format!("c{client_idx}-{index}"),
                    body: RequestBody::Synth {
                        spec: spec.clone(),
                        deadline_ms,
                        checkpoint,
                    },
                };
                let payload = request.to_bytes();
                let mut attempt = 0u32;
                let response = loop {
                    attempt += 1;
                    if attempt > 80 {
                        break None;
                    }
                    let addr = lock(ctl).addr;
                    match send_once(addr, &payload) {
                        Attempt::Done(response) => break Some(*response),
                        Attempt::Retry(code) => {
                            if code.is_some() {
                                report.retries += 1;
                            }
                            let jitter =
                                splitmix64(config.seed ^ (index as u64) ^ u64::from(attempt)) % 7;
                            let base = 2u64.saturating_pow(attempt.min(6));
                            std::thread::sleep(Duration::from_millis(base.min(100) + jitter));
                        }
                    }
                };
                match response {
                    None => report.gave_up += 1,
                    Some(response) => {
                        classify(&kind, &spec, &request.id, response, expected, &mut report)
                    }
                }
            }
        }
        index += config.clients;
    }
    ClientOutcome { report }
}

/// Sends raw bytes and expects a typed error reply (None when the
/// connection died first, e.g. across a kill).
fn send_bytes_expect_error(addr: SocketAddr, bytes: &[u8]) -> Option<ErrorCode> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let read_half = stream.try_clone().ok()?;
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    std::io::Write::write_all(&mut writer, bytes).ok()?;
    std::io::Write::flush(&mut writer).ok()?;
    let reply = read_frame(&mut reader, crate::protocol::DEFAULT_MAX_FRAME)
        .ok()
        .flatten()?;
    let response = Response::from_bytes(&reply).ok()?;
    response.error.map(|(code, _)| code)
}

fn send_raw_expect_error(addr: SocketAddr, payload: &[u8]) -> Option<ErrorCode> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    send_bytes_expect_error(addr, &frame)
}

/// Scores one terminal response against the contract for its kind.
fn classify(
    kind: &ReqKind,
    spec: &SynthSpec,
    id: &str,
    response: Response,
    expected: &Expected,
    report: &mut LoadTestReport,
) {
    match kind {
        ReqKind::DeadlineZero(_) => match &response.error {
            Some((ErrorCode::Deadline, _)) => report.deadline += 1,
            _ => report.protocol_errors += 1,
        },
        ReqKind::PanicProbe => match &response.error {
            Some((ErrorCode::Panicked | ErrorCode::CircuitOpen, _)) => report.panicked += 1,
            _ => report.protocol_errors += 1,
        },
        ReqKind::ValidPla(_)
        | ReqKind::Checkpointed(_)
        | ReqKind::StepLimited(_)
        | ReqKind::Registry(_) => {
            if response.status == Status::Error {
                report.protocol_errors += 1;
                return;
            }
            if response.cached {
                report.cached += 1;
            }
            if response.resumed {
                report.resumed += 1;
            }
            match response.status {
                Status::Ok => report.ok += 1,
                Status::Degraded => report.degraded += 1,
                Status::Error => {}
            }
            let Some((want_result, want_degraded)) = expected.result_for(spec) else {
                report.mismatches += 1;
                return;
            };
            let want = Response {
                id: id.to_owned(),
                status: if want_degraded {
                    Status::Degraded
                } else {
                    Status::Ok
                },
                spec_hash: Some(spec.hash_hex()),
                error: None,
                result: Some(want_result),
                cached: false,
                resumed: false,
                storage_degraded: false,
            };
            if want.artifact_bytes() != response.artifact_bytes() {
                report.mismatches += 1;
            }
        }
        ReqKind::Malformed | ReqKind::Oversized => {}
    }
}

// ---------------------------------------------------------------------
// Post-mortem: spool scan + audits
// ---------------------------------------------------------------------

fn audit_spool(config: &LoadTestConfig, report: &mut LoadTestReport) {
    let Ok(entries) = std::fs::read_dir(&config.spool_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("req-") || !path.is_dir() {
            continue;
        }
        let accepted = path.join("request.json").exists();
        let completed = path.join("response.json").exists();
        if accepted && !completed {
            report.lost.push(name);
            continue;
        }
        if !completed {
            continue;
        }
        // Audit every persisted success against its own acceptance record.
        let Ok(request_bytes) = std::fs::read(path.join("request.json")) else {
            continue;
        };
        let Ok(request) = Request::from_bytes(&request_bytes) else {
            report.audit_failures += 1;
            continue;
        };
        let RequestBody::Synth { spec, .. } = request.body else {
            continue;
        };
        let Ok(response_bytes) = std::fs::read(path.join("response.json")) else {
            report.lost.push(name);
            continue;
        };
        let Ok(response) = Response::from_bytes(&response_bytes) else {
            report.audit_failures += 1;
            continue;
        };
        if response.status != Status::Ok {
            continue;
        }
        let Some(result) = &response.result else {
            report.audit_failures += 1;
            continue;
        };
        if !passes_audit(&spec, result, &name) {
            report.audit_failures += 1;
        }
    }
}

// ---------------------------------------------------------------------
// The harness driver
// ---------------------------------------------------------------------

/// Runs the whole harness; see the module docs for what is asserted.
pub fn run_loadtest(config: &LoadTestConfig) -> Result<LoadTestReport, String> {
    std::fs::create_dir_all(&config.spool_dir)
        .map_err(|e| format!("spool dir {}: {e}", config.spool_dir.display()))?;
    // In-process daemons panic on purpose (the probe spec); keep the test
    // output readable. Child daemons already write stderr to /dev/null.
    if config.server_bin.is_none() {
        bddcf_check::with_quiet_panics(|| drive(config))
    } else {
        drive(config)
    }
}

fn drive(config: &LoadTestConfig) -> Result<LoadTestReport, String> {
    let ctl = Arc::new(Mutex::new(start_daemon(config)?));
    let expected = Arc::new(Expected::default());

    // The killer: wait for a deterministic fraction of wall-progress, then
    // kill + restart once.
    let killer = {
        let ctl = Arc::clone(&ctl);
        let config = config.clone();
        std::thread::spawn(move || {
            let pause = 120 + splitmix64(config.seed) % 180;
            std::thread::sleep(Duration::from_millis(pause));
            let mut guard = lock(&ctl);
            // Holding `ctl` across the restart is the point: the guard
            // is the barrier that keeps clients from reaching a daemon
            // that is mid-kill; they block here and retry against the
            // restarted instance.
            // xlint: allow(XL202) — intentional barrier, see above.
            kill_and_restart(&mut guard, &config).map(|()| 1u64)
        })
    };

    let clients: Vec<_> = (0..config.clients.max(1))
        .map(|client_idx| {
            let ctl = Arc::clone(&ctl);
            let config = config.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || run_client(client_idx, &config, &ctl, &expected))
        })
        .collect();

    let mut report = LoadTestReport::default();
    for handle in clients {
        let outcome = handle
            .join()
            .map_err(|_| "a client thread panicked".to_string())?;
        merge(&mut report, &outcome.report);
    }
    report.kills = killer
        .join()
        .map_err(|_| "the killer thread panicked".to_string())??;

    // Every clone of `ctl` joined above, so take the controller out of
    // its mutex: the final drain shutdown must not run under a guard.
    let mut ctl = Arc::try_unwrap(ctl)
        .map_err(|_| "a daemon-controller handle outlived its thread".to_string())?
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    finish_daemon(&mut ctl)?;
    audit_spool(config, &mut report);
    Ok(report)
}

fn merge(into: &mut LoadTestReport, from: &LoadTestReport) {
    into.sent += from.sent;
    into.ok += from.ok;
    into.degraded += from.degraded;
    into.cached += from.cached;
    into.resumed += from.resumed;
    into.retries += from.retries;
    into.deadline += from.deadline;
    into.panicked += from.panicked;
    into.malformed_rejected += from.malformed_rejected;
    into.oversized_rejected += from.oversized_rejected;
    into.gave_up += from.gave_up;
    into.protocol_errors += from.protocol_errors;
    into.mismatches += from.mismatches;
    into.audit_failures += from.audit_failures;
    into.lost.extend(from.lost.iter().cloned());
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let dir = std::env::temp_dir().join(format!("bddcf-loadtest-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = LoadTestConfig {
            requests: 60,
            clients: 3,
            seed: 11,
            spool_dir: dir.clone(),
            server_bin: None,
            workers: 2,
            queue_capacity: 8,
        };
        let report = run_loadtest(&config).expect("harness runs");
        assert!(report.passed(), "{}", report.render());
        assert!(report.ok + report.degraded > 0, "{}", report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
