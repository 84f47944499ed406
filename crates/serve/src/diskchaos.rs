//! `bddcf diskchaos` — the hostile-disk harness.
//!
//! Where `bddcf loadtest` murders the *process*, this harness
//! murders the *disk*. Both durable paths of the workspace — `BDDCFCKP`
//! checkpoint sequences and the serve spool — are driven over a
//! journaling [`FaultVfs`], and the harness then sweeps *crash points*
//! (the checkpointed reduction of a built-in PLA plus any
//! [`DiskChaosConfig::specs`], then a spooled serve session):
//! for every storage-event prefix it rematerializes, via
//! [`FaultVfs::crash_state`], the state an adversarial power loss could
//! leave behind (fsync-lies model: un-fsynced file data torn or lost,
//! un-dir-synced renames and creations dropped) and asserts the recovery
//! contract on that state:
//!
//! * recovery never panics (violations are typed, panics are quarantined
//!   via [`bddcf_check::run_quarantined`]);
//! * every checkpoint save that *returned* before the crash is still
//!   found by [`latest_valid_checkpoint_vfs`] afterwards, and resuming
//!   from it reproduces the uninterrupted run's artifacts byte for byte
//!   (or, for a spec no single cascade realizes, its typed rejection).
//!   Crash point 0 (an empty disk) is a crash before the first save and
//!   reruns from scratch; the last prefix resumes from the
//!   `ReductionDone` checkpoint, leaving only cascade synthesis;
//! * zero accepted-and-replied serve requests are lost: each one still
//!   owns a parseable `response.json` completion record carrying the
//!   artifacts the client was promised, and a restarted daemon re-serves
//!   the identical result;
//! * every surviving artifact passes the full
//!   [`audit_artifact_text`](bddcf_check::audit_artifact_text) stack.
//!
//! A seeded write-fault sweep (ENOSPC / EIO / short write on the Nth
//! write) additionally asserts the storage-degraded contract: faulted
//! jobs still complete with baseline-identical artifacts and the
//! [`storage_degraded`](crate::job::ExecOutcome::storage_degraded) flag
//! raised.
//!
//! [`DiskChaosConfig::drop_dir_sync`] is the harness's negative control:
//! it makes every directory fsync a silent lie, exactly the failure mode
//! a missing parent-directory fsync would produce, and the sweep must
//! then report violations — proving the harness actually checks rename
//! durability rather than vacuously passing.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bddcf_bdd::vfs::{splitmix64, FaultPlan, FaultVfs, Vfs, WriteFault};
use bddcf_check::{run_quarantined, with_quiet_panics};
use bddcf_core::checkpoint::checkpoint_seq;
use bddcf_core::latest_valid_checkpoint_vfs;

use crate::job::{execute, execute_vfs, passes_audit, ExecError, ExecOutcome};
use crate::protocol::{
    Request, RequestBody, Response, ShutdownMode, Source, Status, SynthResult, SynthSpec,
};
use crate::server::{parse_control_status, Server, ServerConfig};

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct DiskChaosConfig {
    /// Seed for fault plans and crash-torn choices.
    pub seed: u64,
    /// Crash points to sweep per phase (`0` = every storage event).
    pub points: usize,
    /// Requests in the recorded serve session.
    pub requests: usize,
    /// Negative control: every directory fsync silently lies, so renames
    /// never become durable. A correct harness must FAIL under this.
    pub drop_dir_sync: bool,
    /// Specs whose checkpointed reductions are swept after the built-in
    /// PLA's (`bddcf diskchaos <label>…` passes registry benchmarks).
    pub specs: Vec<SynthSpec>,
}

impl Default for DiskChaosConfig {
    fn default() -> Self {
        DiskChaosConfig {
            seed: 0xb0d0_cf5e,
            points: 0,
            requests: 6,
            drop_dir_sync: false,
            specs: Vec::new(),
        }
    }
}

/// What the sweep of one checkpointed reduction covered.
#[derive(Clone, Debug, Default)]
pub struct ReductionSweep {
    /// `reduction` for the built-in PLA, `reduction <label>` for a
    /// registry benchmark, `reduction pla-<spec hash>` for another PLA.
    pub label: String,
    /// Storage events journaled by the checkpointed reduction.
    pub events: usize,
    /// Crash prefixes swept over the journal.
    pub crash_points: usize,
    /// Crash prefixes after at least one returned save, which therefore
    /// resume from a surviving checkpoint instead of rerunning.
    pub resumed: usize,
    /// Seeded Nth-write fault runs (ENOSPC / EIO / short write).
    pub fault_runs: usize,
}

/// What the sweep covered and every contract violation it found.
#[derive(Clone, Debug, Default)]
pub struct DiskChaosReport {
    /// One sweep per checkpointed reduction: the built-in PLA first, then
    /// each of [`DiskChaosConfig::specs`].
    pub reductions: Vec<ReductionSweep>,
    /// Storage events journaled by the serve spool session.
    pub serve_events: usize,
    /// Crash prefixes swept over the serve journal.
    pub serve_crash_points: usize,
    /// Requests the recorded daemon accepted and replied to.
    pub serve_replied: usize,
    /// Faults actually injected across the fault sweep.
    pub faults_injected: u64,
    /// Distinct surviving artifacts run through the audit stack.
    pub artifacts_audited: usize,
    /// Every broken promise, in discovery order.
    pub violations: Vec<String>,
}

impl DiskChaosReport {
    /// True when every crash prefix honored the recovery contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human summary (the CLI prints this verbatim).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, sweep) in self.reductions.iter().enumerate() {
            let _ = writeln!(
                out,
                "{} {}: {} event(s), {} crash point(s) ({} resumed), {} fault run(s)",
                if i == 0 { "diskchaos:" } else { "          " },
                sweep.label,
                sweep.events,
                sweep.crash_points,
                sweep.resumed,
                sweep.fault_runs
            );
        }
        let _ = writeln!(
            out,
            "           serve: {} event(s), {} crash point(s), {} request(s) replied",
            self.serve_events, self.serve_crash_points, self.serve_replied
        );
        let _ = writeln!(
            out,
            "           {} fault(s) injected, {} artifact(s) audited, {} violation(s)",
            self.faults_injected,
            self.artifacts_audited,
            self.violations.len()
        );
        const SHOWN: usize = 12;
        for violation in self.violations.iter().take(SHOWN) {
            let _ = writeln!(out, "           VIOLATION {violation}");
        }
        if self.violations.len() > SHOWN {
            let _ = writeln!(out, "           (+{} more)", self.violations.len() - SHOWN);
        }
        out.push_str(if self.passed() {
            "           PASS: every crash prefix recovered; no accepted-and-replied request lost\n"
        } else {
            "           FAIL: the storage-fault contract was violated\n"
        });
        out
    }
}

/// Runs both sweeps. `Err` is a harness breakdown (the adversary could
/// not even be set up); contract violations land in the report instead.
pub fn run_diskchaos(config: &DiskChaosConfig) -> Result<DiskChaosReport, String> {
    with_quiet_panics(|| {
        let mut report = DiskChaosReport::default();
        let builtin = SynthSpec::new(Source::Pla(REDUCTION_PLA.into()));
        for spec in std::iter::once(&builtin).chain(&config.specs) {
            let label = match &spec.source {
                Source::Registry(label) => format!("reduction {label}"),
                Source::Pla(_) if spec == &builtin => "reduction".to_owned(),
                Source::Pla(_) => format!("reduction pla-{}", spec.hash_hex()),
            };
            reduction_sweep(config, &label, spec, &mut report)
                .map_err(|e| format!("{label}: {e}"))?;
        }
        serve_sweep(config, &mut report)?;
        Ok(report)
    })
}

/// Crash prefixes to sweep: all of `0..=total` when `points` is zero or
/// at least as many, otherwise `points` evenly spaced prefixes plus the
/// boundaries (the empty disk and the clean-shutdown disk).
fn crash_points(total: usize, points: usize) -> Vec<usize> {
    if points == 0 || points > total {
        return (0..=total).collect();
    }
    let mut out: Vec<usize> = (0..points).map(|i| i * total / points).collect();
    out.push(total);
    out.sort_unstable();
    out.dedup();
    out
}

/// The reduction under test: the 5-in/3-out smoke function, big enough
/// to checkpoint at several fixpoint boundaries.
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

/// Phase A: sweep crash prefixes and seeded write faults over the
/// checkpointed reduction of `spec`. Violations carry `label`.
fn reduction_sweep(
    config: &DiskChaosConfig,
    label: &str,
    spec: &SynthSpec,
    report: &mut DiskChaosReport,
) -> Result<(), String> {
    let dir = PathBuf::from("/ckpt");
    let mut sweep = ReductionSweep {
        label: label.to_owned(),
        ..ReductionSweep::default()
    };
    let mut violations = Vec::new();
    let baseline = promised(execute(spec, None, None, false));

    // Recording run: a fault-free FaultVfs journals every storage event
    // the checkpointed reduction performs.
    let vfs = FaultVfs::with_plan(FaultPlan {
        seed: splitmix64(config.seed),
        ignore_sync_dir: config.drop_dir_sync,
        ..FaultPlan::default()
    });
    let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let recorded = execute_vfs(spec, None, Some(&dir), false, &shared);
    if recorded.as_ref().is_ok_and(|out| out.storage_degraded) {
        return Err("diskchaos recording run degraded on a fault-free disk".into());
    }
    if promised(recorded) != baseline {
        violations.push("recording run diverged from the in-memory baseline".into());
    }

    let journal = vfs.journal();
    sweep.events = journal.len();

    // A `Checkpointer::save` returns only after the covering directory
    // fsync, so the SyncDir events on the checkpoint directory mark
    // exactly the saves whose durability was *promised* to the caller.
    let save_returns: Vec<usize> = journal
        .iter()
        .enumerate()
        .filter(|(_, event)| event.is_sync_dir_of(&dir))
        .map(|(index, _)| index)
        .collect();

    for k in crash_points(journal.len(), config.points) {
        sweep.crash_points += 1;
        let completed_saves = save_returns.iter().filter(|&&index| index < k).count() as u64;
        if completed_saves > 0 {
            sweep.resumed += 1;
        }
        let crashed: Arc<dyn Vfs> =
            Arc::new(vfs.crash_state(k, splitmix64(config.seed ^ 0xa11c_e000 ^ k as u64)));
        let outcome = run_quarantined(&format!("reduction crash point {k}"), || {
            // Saves are sequential from 0, so `completed_saves` returned
            // saves promise a surviving checkpoint of sequence at least
            // `completed_saves - 1`.
            if completed_saves > 0 {
                match latest_valid_checkpoint_vfs(crashed.as_ref(), &dir) {
                    Ok(Some((path, _loaded))) => {
                        let seq = checkpoint_seq(&path);
                        if seq.is_none() || seq.is_some_and(|s| s + 1 < completed_saves) {
                            return Err(format!(
                                "crash point {k}: {completed_saves} save(s) returned but the \
                                 newest surviving checkpoint is {}",
                                path.display()
                            ));
                        }
                    }
                    Ok(None) => {
                        return Err(format!(
                            "crash point {k}: {completed_saves} save(s) returned but no \
                             checkpoint survived the crash"
                        ))
                    }
                    Err(e) => {
                        return Err(format!("crash point {k}: checkpoint rescan failed: {e}"))
                    }
                }
            }
            match promised(execute_vfs(spec, None, Some(&dir), true, &crashed)) {
                recovered if recovered == baseline => Ok(()),
                Ok(_) => Err(format!(
                    "crash point {k}: recovered artifacts diverge from the baseline"
                )),
                Err(e) => Err(format!("crash point {k}: recovery failed: {e}")),
            }
        });
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(violation)) => violations.push(violation),
            Err(q) => violations.push(format!("recovery panicked: {q}")),
        }
    }

    // Seeded Nth-write fault sweep: the job must absorb ENOSPC / EIO /
    // short writes by falling back to an un-checkpointed run — same
    // artifacts, `storage_degraded` raised.
    const FAULTS: [WriteFault; 3] = [WriteFault::Enospc, WriteFault::Eio, WriteFault::ShortWrite];
    let total_writes = vfs.writes_observed();
    let fault_runs = (total_writes.min(6)) as usize;
    for i in 0..fault_runs {
        let nth = i as u64 * total_writes / fault_runs as u64;
        sweep.fault_runs += 1;
        let faulty = FaultVfs::with_plan(FaultPlan {
            seed: splitmix64(config.seed ^ 0xfa17 ^ nth),
            fail_write: Some(nth),
            fault: FAULTS[i % FAULTS.len()],
            ignore_sync_dir: config.drop_dir_sync,
            ..FaultPlan::default()
        });
        let faulty_shared: Arc<dyn Vfs> = Arc::new(faulty.clone());
        match execute_vfs(spec, None, Some(&dir), false, &faulty_shared) {
            Ok(out) => {
                if !out.storage_degraded {
                    violations.push(format!(
                        "write fault at op {nth} was absorbed without the storage_degraded flag"
                    ));
                }
                if baseline.as_ref() != Ok(&out.result) {
                    violations.push(format!(
                        "write fault at op {nth}: degraded run diverged from the baseline"
                    ));
                }
            }
            // The fallback run reproduced the baseline's own rejection.
            Err(e) if baseline.as_ref().err() == Some(&format!("{e:?}")) => {}
            Err(e) => violations.push(format!(
                "write fault at op {nth} failed the job instead of degrading: {e:?}"
            )),
        }
        report.faults_injected += faulty.faults_injected();
    }

    // Every crash recovery above was asserted byte-identical to the
    // baseline, so auditing the baseline audits every surviving artifact
    // (a rejected spec has none).
    if let Ok(result) = &baseline {
        audit_result(spec, result, &format!("{label} artifacts"), report);
    }
    let prefixed = violations.into_iter().map(|v| format!("{label}: {v}"));
    report.violations.extend(prefixed);
    report.reductions.push(sweep);
    Ok(())
}

/// What a job promised: its artifacts, or the typed rejection (a function
/// no single cascade realizes, say) that a faithful recovery must
/// reproduce just the same.
fn promised(run: Result<ExecOutcome, ExecError>) -> Result<SynthResult, String> {
    run.map(|out| out.result).map_err(|e| format!("{e:?}"))
}

/// One accepted-and-replied request of the recorded serve session.
struct Replied {
    spec: SynthSpec,
    /// Journal length right after the reply frame was read: every storage
    /// event backing this reply has an index below this.
    events_after: usize,
    /// The daemon explicitly disclaimed durability for this reply.
    storage_degraded: bool,
}

/// Phase B: record a spooled serve session, then sweep crash prefixes
/// over its storage journal.
fn serve_sweep(config: &DiskChaosConfig, report: &mut DiskChaosReport) -> Result<(), String> {
    let spool = PathBuf::from("/spool");
    let vfs = FaultVfs::with_plan(FaultPlan {
        seed: splitmix64(config.seed ^ 0x5e12_e000),
        ignore_sync_dir: config.drop_dir_sync,
        ..FaultPlan::default()
    });

    // One worker keeps the session sequential, so `events_after` cleanly
    // separates each reply's storage events from the next request's.
    let server = Server::start(serve_config(&spool, &vfs))
        .map_err(|e| format!("diskchaos serve start failed: {e}"))?;
    let addr = server.local_addr();

    let mut expected: BTreeMap<u64, (SynthSpec, SynthResult)> = BTreeMap::new();
    let mut replied: Vec<Replied> = Vec::new();
    for i in 0..config.requests.max(1) {
        // Three distinct tiny functions, repeated: duplicates exercise
        // the cache/replay path on the crashed disk too.
        let spec = SynthSpec::new(Source::Pla(crate::loadtest::pla_text(i as u64 % 3)));
        let request = Request {
            id: format!("dc-{i}"),
            body: RequestBody::Synth {
                spec: spec.clone(),
                deadline_ms: None,
                checkpoint: i % 2 == 0,
            },
        };
        let response = roundtrip(addr, &request)?;
        if response.status == Status::Error {
            report.violations.push(format!(
                "request dc-{i} failed on a fault-free disk: {:?}",
                response.error
            ));
            continue;
        }
        let hash = spec.hash();
        if let std::collections::btree_map::Entry::Vacant(slot) = expected.entry(hash) {
            let local = execute(&spec, None, None, false)
                .map_err(|e| format!("local baseline for dc-{i} failed: {e:?}"))?;
            slot.insert((spec.clone(), local.result));
        }
        if response.result.as_ref() != expected.get(&hash).map(|(_, r)| r) {
            report.violations.push(format!(
                "request dc-{i}: reply diverges from the local baseline"
            ));
        }
        replied.push(Replied {
            spec,
            events_after: vfs.events_len(),
            storage_degraded: response.storage_degraded,
        });
    }
    shutdown_drain(addr)?;
    let _ = server.wait();
    report.serve_replied = replied.len();
    report.serve_events = vfs.events_len();

    for k in crash_points(vfs.events_len(), config.points) {
        report.serve_crash_points += 1;
        let crashed = vfs.crash_state(k, splitmix64(config.seed ^ 0xd15c_0000 ^ k as u64));

        // Zero-loss check: every request replied to before the crash —
        // and not explicitly disclaimed as non-durable — must still own a
        // parseable completion record promising the same artifacts. The
        // reply frame is sent only after `response.json` publishes
        // (write + fsync + rename + dir fsync), so the whole publish sits
        // inside this crash prefix.
        let mut checked: BTreeSet<u64> = BTreeSet::new();
        for r in replied
            .iter()
            .filter(|r| r.events_after <= k && !r.storage_degraded)
        {
            let hash = r.spec.hash();
            if !checked.insert(hash) {
                continue;
            }
            let record = spool
                .join(format!("req-{}", r.spec.hash_hex()))
                .join("response.json");
            match crashed.read(&record) {
                Ok(bytes) => match Response::from_bytes(&bytes) {
                    Ok(resp)
                        if resp.status != Status::Error
                            && resp.result.as_ref() == expected.get(&hash).map(|(_, r)| r) => {}
                    Ok(_) => report.violations.push(format!(
                        "crash point {k}: durable record for req-{} diverges from the reply",
                        r.spec.hash_hex()
                    )),
                    Err(e) => report.violations.push(format!(
                        "crash point {k}: durable record for req-{} is torn: {e}",
                        r.spec.hash_hex()
                    )),
                },
                Err(_) => report.violations.push(format!(
                    "crash point {k}: accepted-and-replied req-{} lost its durable record",
                    r.spec.hash_hex()
                )),
            }
        }

        // Restart on the crashed disk: recovery must not panic, and every
        // previously replied spec must re-serve the identical result
        // (from the surviving record, a surviving checkpoint, or a clean
        // re-run — the client cannot tell and must not need to).
        let replay: Vec<(SynthSpec, SynthResult)> = {
            let mut seen = BTreeSet::new();
            replied
                .iter()
                .filter(|r| r.events_after <= k && seen.insert(r.spec.hash()))
                .filter_map(|r| {
                    expected
                        .get(&r.spec.hash())
                        .map(|(_, want)| (r.spec.clone(), want.clone()))
                })
                .collect()
        };
        let spool = spool.clone();
        let outcome = run_quarantined(&format!("serve crash point {k}"), move || {
            let server = Server::start(serve_config(&spool, &crashed))
                .map_err(|e| format!("crash point {k}: restart failed: {e}"))?;
            let addr = server.local_addr();
            for (j, (spec, want)) in replay.iter().enumerate() {
                let request = Request {
                    id: format!("dc-replay-{k}-{j}"),
                    body: RequestBody::Synth {
                        spec: spec.clone(),
                        deadline_ms: None,
                        checkpoint: false,
                    },
                };
                let response = retry_roundtrip(addr, &request)?;
                if response.status == Status::Error {
                    return Err(format!(
                        "crash point {k}: replay of req-{} failed: {:?}",
                        spec.hash_hex(),
                        response.error
                    ));
                }
                if response.result.as_ref() != Some(want) {
                    return Err(format!(
                        "crash point {k}: replay of req-{} diverges from the baseline",
                        spec.hash_hex()
                    ));
                }
            }
            shutdown_drain(addr)?;
            let _ = server.wait();
            Ok(())
        });
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(violation)) => report.violations.push(violation),
            Err(q) => report
                .violations
                .push(format!("serve recovery panicked: {q}")),
        }
    }

    // Every distinct artifact the session promised goes through the full
    // audit stack once (replies and records were asserted identical).
    for (spec, result) in expected.values() {
        audit_result(
            spec,
            result,
            &format!("serve req-{}", spec.hash_hex()),
            report,
        );
    }
    Ok(())
}

fn serve_config(spool: &Path, vfs: &FaultVfs) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 16,
        spool_dir: Some(spool.to_path_buf()),
        vfs: Arc::new(vfs.clone()),
        ..ServerConfig::default()
    }
}

/// Runs one surviving artifact pair through the audit stack.
fn audit_result(spec: &SynthSpec, result: &SynthResult, tag: &str, report: &mut DiskChaosReport) {
    report.artifacts_audited += 1;
    if !passes_audit(spec, result, tag) {
        report
            .violations
            .push(format!("{tag}: surviving artifact failed the audit stack"));
    }
}

/// [`crate::protocol::roundtrip`] of `request`, with the reply parsed.
fn roundtrip(addr: SocketAddr, request: &Request) -> Result<Response, String> {
    let reply = crate::protocol::roundtrip(addr, &request.to_bytes())?;
    Response::from_bytes(&reply).map_err(|e| format!("parse reply: {e}"))
}

/// [`roundtrip`] that waits out retryable admission rejections (a
/// restarted daemon may still be chewing through recovered spool entries).
fn retry_roundtrip(addr: SocketAddr, request: &Request) -> Result<Response, String> {
    for _ in 0..2000 {
        let response = roundtrip(addr, request)?;
        match &response.error {
            Some((code, _)) if code.is_retryable() => {
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => return Ok(response),
        }
    }
    Err("admission retries exhausted".into())
}

fn shutdown_drain(addr: SocketAddr) -> Result<(), String> {
    let request = Request {
        id: "dc-drain".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let ack = crate::protocol::roundtrip(addr, &request.to_bytes())?;
    if parse_control_status(&ack).as_deref() == Some("ok") {
        Ok(())
    } else {
        Err("drain shutdown was not acknowledged".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_sampling_covers_the_boundaries() {
        assert_eq!(crash_points(3, 0), vec![0, 1, 2, 3]);
        assert_eq!(crash_points(3, 10), vec![0, 1, 2, 3]);
        let sampled = crash_points(100, 4);
        assert_eq!(sampled.first(), Some(&0));
        assert_eq!(sampled.last(), Some(&100));
        assert!(sampled.len() <= 5);
        assert!(sampled.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(crash_points(0, 4), vec![0]);
    }

    #[test]
    fn small_diskchaos_run_passes() {
        let config = DiskChaosConfig {
            seed: 3,
            points: 4,
            requests: 3,
            drop_dir_sync: false,
            // The second spec's 2-input cells cannot realize the PLA: its
            // recoveries must reproduce the rejection.
            specs: vec![
                SynthSpec::new(Source::Registry("3-5 RNS".into())),
                SynthSpec {
                    max_in: 2,
                    ..SynthSpec::new(Source::Pla(REDUCTION_PLA.into()))
                },
            ],
        };
        let report = run_diskchaos(&config).expect("harness runs");
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.reductions.len(), 3, "built-in PLA + 2 specs");
        for sweep in &report.reductions {
            assert!(sweep.events > 0, "{}", report.render());
            // Crash point 0 (an empty disk) reruns from scratch; the last
            // prefix resumes from the `ReductionDone` checkpoint.
            assert!(
                0 < sweep.resumed && sweep.resumed < sweep.crash_points,
                "{}",
                report.render()
            );
        }
        assert!(report.serve_events > 0);
        assert_eq!(report.serve_replied, 3);
        assert!(report.faults_injected > 0);
        assert!(report.artifacts_audited > 0);
    }

    #[test]
    fn dropped_directory_fsyncs_are_caught() {
        // The negative control: with every dir fsync a lie, renames never
        // become durable and the sweep must surface violations. This is
        // the regression proving the harness checks rename durability.
        let config = DiskChaosConfig {
            seed: 3,
            points: 4,
            requests: 2,
            drop_dir_sync: true,
            specs: Vec::new(),
        };
        let report = run_diskchaos(&config).expect("harness runs");
        assert!(
            !report.passed(),
            "a lying directory fsync must break the contract"
        );
    }
}
