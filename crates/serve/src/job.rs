//! Executing one synthesis job: spec → reduced `BDD_for_CF` → cascade →
//! deterministic artifacts.
//!
//! This module is the *compute* half of a worker, deliberately free of any
//! pool/server state so the chaos harness can call it directly to compute
//! the expected result of a spec on the client side and byte-compare it
//! against what the daemon returned.
//!
//! Every job builds a **fresh** [`BddManager`](bddcf_bdd::BddManager)
//! (owned by its [`Cf`]): a panic or poisoning contaminates only that
//! arena, which the worker drops — this is what makes worker recycling
//! safe without any cross-job scrubbing.

use crate::protocol::{ErrorCode, Source, SynthResult, SynthSpec, SynthStats};
use bddcf_bdd::vfs::{StdVfs, Vfs};
use bddcf_bdd::{Budget, Error as BudgetError, ReorderCost};
use bddcf_cascade::{synthesize_governed, CascadeOptions, SynthesisError};
use bddcf_check::{audit_artifact_text, PanicProbe};
use bddcf_core::{
    latest_valid_checkpoint_vfs, Alg33Options, Cf, CheckpointError, Checkpointer, DegradationReport,
};
use bddcf_funcs::{build_isf_pieces, small_benchmarks, table4_benchmarks, Benchmark};
use bddcf_io::{cascade_to_verilog, parse_pla, write_cascade};
use std::path::Path;
use std::sync::Arc;

/// Why a job did not produce a result.
#[derive(Debug)]
pub enum ExecError {
    /// The job failed with a typed protocol error.
    Reject(ErrorCode, String),
    /// The job was cancelled at a resumable boundary (halt-mode shutdown
    /// or a simulated kill); its spool entry stays incomplete and a
    /// restarted daemon resumes it from the latest checkpoint.
    Parked,
}

impl ExecError {
    fn internal(message: impl Into<String>) -> Self {
        ExecError::Reject(ErrorCode::Internal, message.into())
    }
}

/// Looks up a registry benchmark by its exact Table-4 label. The extra
/// `"panic probe"` label maps to the deliberately panicking benchmark from
/// `bddcf-check` — the chaos harness uses it to exercise worker quarantine
/// and the circuit breaker over the real wire protocol.
pub fn resolve_benchmark(label: &str) -> Option<Box<dyn Benchmark>> {
    if label == "panic probe" {
        return Some(Box::new(PanicProbe));
    }
    small_benchmarks()
        .into_iter()
        .chain(table4_benchmarks())
        .find(|entry| entry.label == label)
        .map(|entry| entry.benchmark)
}

/// Builds the initial (sifted, unreduced) `BDD_for_CF` of a spec.
pub fn build_cf(spec: &SynthSpec) -> Result<Cf, ExecError> {
    let mut cf = match &spec.source {
        Source::Pla(text) => {
            let pla = parse_pla(text)
                .map_err(|e| ExecError::Reject(ErrorCode::Malformed, format!("pla: {e}")))?;
            pla.to_cf()
                .map_err(|e| ExecError::Reject(ErrorCode::Malformed, format!("pla: {e}")))?
        }
        Source::Registry(label) => {
            let benchmark = resolve_benchmark(label).ok_or_else(|| {
                ExecError::Reject(
                    ErrorCode::Malformed,
                    format!("unknown registry benchmark {label:?}"),
                )
            })?;
            let (mgr, layout, isf) = build_isf_pieces(benchmark.as_ref());
            Cf::from_isf(mgr, layout, isf)
        }
    };
    if spec.sift > 0 {
        cf.optimize_order(ReorderCost::SumOfWidths, spec.sift);
    }
    Ok(cf)
}

/// Does a received `result` for `spec` pass the artifact audit stack
/// ([`audit_artifact_text`]) against a spec χ built fresh by [`build_cf`]?
/// `stem` labels the audited files. A cache hit, a spool replay and the
/// chaos harnesses' post-mortems all accept a result only through here.
pub(crate) fn passes_audit(spec: &SynthSpec, result: &SynthResult, stem: &str) -> bool {
    build_cf(spec).is_ok_and(|mut spec_cf| {
        audit_artifact_text(
            &result.cascade,
            &result.verilog,
            &format!("spec_{}", spec.hash_hex()),
            &mut spec_cf,
            stem,
        )
        .is_clean()
    })
}

/// A completed job: the deterministic artifact payload plus whether budget
/// pressure degraded the reduction along the way.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The response payload.
    pub result: SynthResult,
    /// True when the degradation report is non-empty.
    pub degraded: bool,
    /// Engine-health counters of the job's manager at completion. Not part
    /// of the wire result — the pool folds them into its own counters for
    /// the `stats` op.
    pub engine: bddcf_bdd::EngineStats,
    /// The checkpoint path failed (ENOSPC/EIO/corruption) and the job fell
    /// back to an un-checkpointed run: the result is correct but was not
    /// durably resumable while it ran.
    pub storage_degraded: bool,
}

/// Runs one job to completion (or a typed failure).
///
/// * `budget` — installed on the job's manager before reduction; carries
///   the per-request deadline (absolute, via the pool's [`Clock`]
///   (bddcf_bdd::Clock)), the node shard, and any cancel token.
/// * `ckpt_dir` — when set, the reduction checkpoints into this directory
///   at every resumable boundary and a fired cancel token *parks* the job
///   ([`ExecError::Parked`]) instead of degrading.
/// * `resume` — look for the latest checkpoint in `ckpt_dir` first and
///   continue from it under `budget`; checkpoint resume makes the
///   artifacts byte-identical to an uninterrupted run. A step-limited
///   spec ignores it and runs from scratch.
pub fn execute(
    spec: &SynthSpec,
    budget: Option<Budget>,
    ckpt_dir: Option<&Path>,
    resume: bool,
) -> Result<ExecOutcome, ExecError> {
    let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
    execute_vfs(spec, budget, ckpt_dir, resume, &vfs)
}

/// [`execute`] over an explicit [`Vfs`] (the fault-injection entry point).
///
/// Checkpoint-path storage failures — an unscannable directory, an
/// unopenable checkpointer, an ENOSPC/EIO during a save — do **not** fail
/// the job: it falls back to a fresh un-checkpointed reduction and the
/// outcome is flagged [`storage_degraded`](ExecOutcome::storage_degraded).
/// A corrupt newest checkpoint is quarantined and the previous sequence
/// number resumes instead (see
/// [`latest_valid_checkpoint_vfs`]).
pub fn execute_vfs(
    spec: &SynthSpec,
    budget: Option<Budget>,
    ckpt_dir: Option<&Path>,
    resume: bool,
    vfs: &Arc<dyn Vfs>,
) -> Result<ExecOutcome, ExecError> {
    let options = Alg33Options::default();
    let mut report = DegradationReport::new();
    let mut storage_degraded = false;

    // Retry the checkpoint-path failure once as a plain in-memory run: the
    // artifacts are deterministic either way, only durability is lost.
    let fallback =
        |report: &mut DegradationReport, storage_degraded: &mut bool| -> Result<Cf, ExecError> {
            *storage_degraded = true;
            *report = DegradationReport::new();
            match fresh_reduced_vfs(spec, &options, budget.clone(), None, vfs, report) {
                Ok(cf) => Ok(cf),
                // With no checkpoint dir there is no storage left to fail.
                Err(FreshError::Storage) => Err(ExecError::internal("spool-less run hit storage")),
                Err(FreshError::Exec(e)) => Err(e),
            }
        };

    // A resumed job must answer what a fresh run of its spec answers. A
    // checkpoint does not record the steps already charged, so only a
    // fresh run honours a step limit: a step-limited spec starts over.
    let resume = resume && spec.step_limit.is_none();
    let mut cf = match (resume, ckpt_dir) {
        (true, Some(dir)) => match latest_valid_checkpoint_vfs(vfs.as_ref(), dir) {
            Err(_) => fallback(&mut report, &mut storage_degraded)?,
            Ok(Some((_path, mut loaded))) => {
                match Checkpointer::with_vfs(Arc::clone(vfs), dir) {
                    Err(_) => fallback(&mut report, &mut storage_degraded)?,
                    Ok(mut ck) => {
                        // The checkpoint stores no budget: the request's node
                        // shard, deadline and cancel token govern the resumed
                        // reduction and then synthesis.
                        if let Some(b) = budget.clone() {
                            loaded.cf.manager_mut().set_budget(b);
                        }
                        match loaded.resume(&options, spec.max_iter, &mut ck, true) {
                            Ok((cf, resumed_report, stats)) => {
                                report = resumed_report;
                                if stats.is_none() {
                                    return Err(ExecError::Parked);
                                }
                                cf
                            }
                            Err(CheckpointError::Io(_)) => {
                                fallback(&mut report, &mut storage_degraded)?
                            }
                            Err(e) => {
                                return Err(ExecError::internal(format!("resume failed: {e}")))
                            }
                        }
                    }
                }
            }
            // A crash before the first checkpoint: start over.
            Ok(None) => {
                match fresh_reduced_vfs(spec, &options, budget.clone(), ckpt_dir, vfs, &mut report)
                {
                    Ok(cf) => cf,
                    Err(FreshError::Storage) => fallback(&mut report, &mut storage_degraded)?,
                    Err(FreshError::Exec(e)) => return Err(e),
                }
            }
        },
        _ => match fresh_reduced_vfs(spec, &options, budget.clone(), ckpt_dir, vfs, &mut report) {
            Ok(cf) => cf,
            Err(FreshError::Storage) => fallback(&mut report, &mut storage_degraded)?,
            Err(FreshError::Exec(e)) => return Err(e),
        },
    };

    if parked(&report) {
        return Err(ExecError::Parked);
    }

    let cascade_options = CascadeOptions {
        max_cell_inputs: spec.max_in,
        max_cell_outputs: spec.max_out,
        ..CascadeOptions::default()
    };
    let cascade =
        synthesize_governed(&mut cf, &cascade_options, &mut report).map_err(|e| match e {
            SynthesisError::Budget(BudgetError::Cancelled) => ExecError::Parked,
            SynthesisError::Budget(BudgetError::TimeBudget) => ExecError::Reject(
                ErrorCode::Deadline,
                "deadline passed during synthesis".into(),
            ),
            SynthesisError::Budget(cause) => ExecError::Reject(
                ErrorCode::Budget,
                format!("budget exhausted during synthesis: {cause}"),
            ),
            other => ExecError::Reject(ErrorCode::Infeasible, other.to_string()),
        })?;
    let _ = cf.manager_mut().take_budget();

    let module = format!("spec_{}", spec.hash_hex());
    let verilog = cascade_to_verilog(&cascade, &module)
        .map_err(|e| ExecError::internal(format!("verilog emission: {e}")))?;
    let degradations: Vec<String> = report.render().lines().map(str::to_owned).collect();
    Ok(ExecOutcome {
        engine: cf.manager().engine_stats(),
        degraded: !report.is_clean(),
        storage_degraded,
        result: SynthResult {
            stats: SynthStats {
                cells: cascade.num_cells(),
                lut_outputs: cascade.lut_outputs(),
                memory_bits: cascade.memory_bits(),
                max_rails: cascade.max_rails(),
                width: cf.max_width(),
                nodes: cf.node_count(),
            },
            cascade: write_cascade(&cascade),
            verilog,
            degradations,
        },
    })
}

/// Did the report end in a cancellation (halt-mode shutdown / simulated
/// kill)? Such jobs park rather than degrade.
fn parked(report: &DegradationReport) -> bool {
    matches!(report.terminal_cause(), Some(BudgetError::Cancelled))
}

/// Why a from-scratch reduction did not produce a `Cf`.
enum FreshError {
    /// The checkpoint path failed (dir creation or a save); the caller
    /// retries un-checkpointed and flags the outcome storage-degraded.
    Storage,
    /// A real execution failure.
    Exec(ExecError),
}

impl From<ExecError> for FreshError {
    fn from(e: ExecError) -> Self {
        FreshError::Exec(e)
    }
}

/// Build + reduce from scratch (the non-resume path).
fn fresh_reduced_vfs(
    spec: &SynthSpec,
    options: &Alg33Options,
    budget: Option<Budget>,
    ckpt_dir: Option<&Path>,
    vfs: &Arc<dyn Vfs>,
    report: &mut DegradationReport,
) -> Result<Cf, FreshError> {
    let mut cf = build_cf(spec)?;
    if let Some(b) = budget {
        cf.manager_mut().set_budget(b);
    }
    match ckpt_dir {
        Some(dir) => {
            let Ok(mut ck) = Checkpointer::with_vfs(Arc::clone(vfs), dir) else {
                return Err(FreshError::Storage);
            };
            let finished = cf
                .reduce_to_fixpoint_checkpointed(options, spec.max_iter, report, &mut ck, true)
                .map_err(|e| match e {
                    CheckpointError::Io(_) => FreshError::Storage,
                    other => {
                        FreshError::Exec(ExecError::internal(format!("checkpointing: {other}")))
                    }
                })?;
            if finished.is_none() {
                return Err(FreshError::Exec(ExecError::Parked));
            }
        }
        None => {
            cf.reduce_to_fixpoint_governed(options, spec.max_iter, report);
        }
    }
    Ok(cf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_PLA: &str = "\
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
.e
";

    fn smoke_spec() -> SynthSpec {
        SynthSpec::new(Source::Pla(SMOKE_PLA.into()))
    }

    #[test]
    fn executes_a_pla_spec_deterministically() {
        let spec = smoke_spec();
        let a = execute(&spec, None, None, false).expect("run a");
        let b = execute(&spec, None, None, false).expect("run b");
        assert!(!a.degraded);
        assert_eq!(a.result, b.result, "same spec, same bytes");
        assert!(a
            .result
            .verilog
            .contains(&format!("spec_{}", spec.hash_hex())));
        // The cascade artifact parses back and evaluates.
        let cascade = bddcf_io::read_cascade(&a.result.cascade).expect("cas parses");
        assert_eq!(cascade.num_cells(), a.result.stats.cells);
    }

    #[test]
    fn registry_specs_resolve_and_unknown_labels_reject() {
        let spec = SynthSpec::new(Source::Registry("1-digit decimal adder".into()));
        let out = execute(&spec, None, None, false).expect("registry run");
        assert!(out.result.stats.cells > 0);
        let bad = SynthSpec::new(Source::Registry("no such benchmark".into()));
        match execute(&bad, None, None, false) {
            Err(ExecError::Reject(ErrorCode::Malformed, _)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn step_limited_jobs_degrade_in_band() {
        let mut spec = smoke_spec();
        spec.step_limit = Some(5);
        let out = execute(
            &spec,
            Some(Budget::default().with_step_limit(5)),
            None,
            false,
        )
        .expect("degraded completion");
        assert!(out.degraded);
        assert!(!out.result.degradations.is_empty());
    }

    #[test]
    fn checkpointed_run_parks_on_cancel_and_resumes_byte_identically() {
        use bddcf_bdd::CancelToken;

        let dir = std::env::temp_dir().join(format!("bddcf-serve-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = smoke_spec();

        // Uninterrupted baseline.
        let baseline = execute(&spec, None, None, false).expect("baseline");

        // Kill at a deterministic step count, checkpointing; then kill the
        // resumed run the same way. The request's budget governs the
        // resumed reduction, not only the synthesis after it.
        for resume in [false, true] {
            let budget = Budget::default()
                .with_cancel(CancelToken::new())
                .with_cancel_at_step(40);
            match execute(&spec, Some(budget), Some(&dir), resume) {
                Err(ExecError::Parked) => {}
                other => panic!("resume {resume}: expected a parked job, got {other:?}"),
            }
        }

        // A fresh process resumes from the spooled checkpoint.
        let resumed = execute(&spec, None, Some(&dir), true).expect("resume");
        assert_eq!(resumed.result, baseline.result, "byte-identical recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A resumed job answers what a fresh run of its spec answers. The
    /// checkpoint does not record the steps already charged, so a parked
    /// step-limited job must run again under its limit, not finish the
    /// checkpointed reduction without one.
    #[test]
    fn a_parked_step_limited_job_resumes_to_its_fresh_result() {
        use bddcf_bdd::CancelToken;

        for (limit, cancel_at) in [(5, 2), (5, 3), (5, 4), (8, 3), (40, 20)] {
            let dir = std::env::temp_dir().join(format!(
                "bddcf-serve-job-limited-{}-{limit}-{cancel_at}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut spec = smoke_spec();
            spec.step_limit = Some(limit);
            let budget = Budget::default().with_step_limit(limit);
            let fresh = execute(&spec, Some(budget.clone()), None, false).expect("fresh run");

            // A shutdown parks the job at a checkpoint.
            let killed = Budget::default()
                .with_cancel(CancelToken::new())
                .with_cancel_at_step(cancel_at);
            match execute(&spec, Some(killed), Some(&dir), false) {
                Err(ExecError::Parked) => {}
                other => panic!("{limit}/{cancel_at}: expected a parked job, got {other:?}"),
            }

            let resumed = execute(&spec, Some(budget), Some(&dir), true).expect("resume");
            assert_eq!(resumed.degraded, fresh.degraded, "{limit}/{cancel_at}");
            assert_eq!(resumed.result, fresh.result, "{limit}/{cancel_at}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
