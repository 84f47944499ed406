//! Panic isolation for batch workloads.
//!
//! A bug in one benchmark must not take down a whole `bddcf check` /
//! `bddcf chaos` / bench batch. This module provides the containment
//! pieces:
//!
//! * [`run_quarantined`] wraps one benchmark's work in
//!   [`std::panic::catch_unwind`]; a panic becomes a [`Quarantine`] record
//!   (label + panic payload) and the batch moves on to the next benchmark.
//! * [`quarantine_op`] wraps one operation against a live [`BddManager`];
//!   if the operation panics, the manager is [poisoned]
//!   (BddManager::poison) so every further budgeted operation returns
//!   [`Error::Poisoned`](bddcf_bdd::Error::Poisoned) instead of silently
//!   building on a possibly half-written arena.
//! * [`with_quiet_panics`] suppresses the default panic-hook backtrace
//!   spam for the duration of a batch, so one quarantined benchmark does
//!   not bury the report under stack traces.
//!
//! The workspace forbids `unsafe` code, so the poisoning state machine is
//! the *only* thing standing between a caught panic and reuse of a manager
//! whose invariants may no longer hold — which is why the flag is sticky
//! and checked at the root of every budgeted operation.

use bddcf_bdd::BddManager;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

/// A benchmark removed from a batch after panicking.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// The benchmark's display name.
    pub label: String,
    /// The panic payload, downcast to text when possible.
    pub payload: String,
}

impl std::fmt::Display for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: panicked with {:?}", self.label, self.payload)
    }
}

/// Renders a caught panic payload as text (`&str` and `String` payloads
/// verbatim, anything else a placeholder).
pub fn panic_payload_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs one benchmark's closure inside `catch_unwind`. On panic, returns a
/// [`Quarantine`] instead of unwinding into the batch loop.
///
/// The closure's captured state is considered lost on panic: anything that
/// must survive (e.g. a manager that should be poisoned rather than
/// dropped) belongs outside the closure — see [`quarantine_op`].
pub fn run_quarantined<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, Quarantine> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| Quarantine {
        label: label.to_owned(),
        payload: panic_payload_text(payload.as_ref()),
    })
}

/// Runs one operation against a manager inside `catch_unwind`; if the
/// operation panics, the manager is [poisoned](BddManager::poison) before
/// the panic payload is returned, so the caller may keep the manager
/// around (for diagnostics, snapshots, …) but can never accidentally
/// compute with it again.
pub fn quarantine_op<R>(
    mgr: &mut BddManager,
    op: impl FnOnce(&mut BddManager) -> R,
) -> Result<R, String> {
    match panic::catch_unwind(AssertUnwindSafe(|| op(mgr))) {
        Ok(value) => Ok(value),
        Err(payload) => {
            mgr.poison();
            Err(panic_payload_text(payload.as_ref()))
        }
    }
}

/// Runs `f` with the default panic hook replaced by a silent one, so
/// quarantined panics inside a batch do not print backtraces. The previous
/// hook is restored afterwards, even if `f` itself panics.
///
/// The panic hook is process-global: use this once around a whole batch
/// (as the CLI does), not from concurrently running threads.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let saved = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    panic::set_hook(saved);
    match result {
        Ok(value) => value,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// A deliberately panicking [`Benchmark`](bddcf_funcs::Benchmark): its ISF
/// construction panics before building anything. Batch harnesses append it
/// to prove that one poisoned entry quarantines without aborting the rest
/// of the batch (`bddcf check --panic-probe`, and the quarantine tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct PanicProbe;

/// The panic message [`PanicProbe`] raises.
pub const PANIC_PROBE_MESSAGE: &str = "deliberate panic: quarantine probe";

impl bddcf_logic::MultiOracle for PanicProbe {
    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn respond(&self, _inputs: &[bool]) -> bddcf_logic::Response {
        bddcf_logic::Response::Value(0)
    }
}

impl bddcf_funcs::Benchmark for PanicProbe {
    fn name(&self) -> String {
        "panic probe".to_owned()
    }

    fn build_isf(
        &self,
        _mgr: &mut BddManager,
        _layout: &bddcf_core::CfLayout,
    ) -> bddcf_core::IsfBdds {
        panic!("{PANIC_PROBE_MESSAGE}");
    }

    fn dc_ratio(&self) -> f64 {
        0.0
    }
}

/// A deliberately *finding-producing* [`Benchmark`](bddcf_funcs::Benchmark):
/// its function is `f = x₀`, but its preferred order puts the output
/// variable **above** `x₀`, violating Definition 2.4 (outputs strictly
/// below their essential support). The CF lints must report it — without
/// any panic — so batch harnesses append it (`bddcf check
/// --finding-probe`) to prove the findings exit path (exit code 1) end to
/// end.
#[derive(Clone, Copy, Debug, Default)]
pub struct FindingProbe;

impl bddcf_logic::MultiOracle for FindingProbe {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn respond(&self, inputs: &[bool]) -> bddcf_logic::Response {
        bddcf_logic::Response::Value(u64::from(inputs[0]))
    }
}

impl bddcf_funcs::Benchmark for FindingProbe {
    fn name(&self) -> String {
        "finding probe".to_owned()
    }

    fn build_isf(
        &self,
        mgr: &mut BddManager,
        layout: &bddcf_core::CfLayout,
    ) -> bddcf_core::IsfBdds {
        let x0 = mgr.var(layout.input_var(0));
        bddcf_core::IsfBdds::from_on_dc(mgr, vec![x0], vec![bddcf_bdd::FALSE])
    }

    fn dc_ratio(&self) -> f64 {
        0.0
    }

    fn preferred_order(&self) -> Option<Vec<bddcf_bdd::Var>> {
        let layout = bddcf_funcs::Benchmark::layout(self);
        // Output above its essential support: the Definition 2.4 lint
        // must flag this.
        Some(vec![layout.output_var(0), layout.input_var(0)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_bdd::{Error as BudgetError, Var, FALSE, TRUE};
    use bddcf_funcs::build_isf_pieces;

    #[test]
    fn quarantined_panic_is_contained_and_labelled() {
        let out =
            with_quiet_panics(|| run_quarantined("bad one", || -> usize { panic!("boom {}", 42) }));
        let q = out.expect_err("must quarantine");
        assert_eq!(q.label, "bad one");
        assert_eq!(q.payload, "boom 42");
        // A healthy closure passes through untouched.
        let ok = run_quarantined("good one", || 7usize).expect("no panic");
        assert_eq!(ok, 7);
    }

    #[test]
    fn panicked_manager_is_poisoned_and_refuses_ops() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(Var(0));
        let err = with_quiet_panics(|| {
            quarantine_op(&mut mgr, |m| {
                let _ = m.var(Var(1));
                panic!("mid-operation failure");
            })
        })
        .expect_err("must report the panic");
        assert_eq!(err, "mid-operation failure");
        assert!(mgr.is_poisoned());
        assert_eq!(mgr.try_mk(Var(2), FALSE, TRUE), Err(BudgetError::Poisoned));
        assert_eq!(mgr.try_and(a, a), Err(BudgetError::Poisoned));
        // Poisoning survives a snapshot round trip.
        let restored =
            BddManager::from_snapshot_bytes(&mgr.snapshot_bytes()).expect("snapshot round trip");
        assert!(restored.is_poisoned());
    }

    #[test]
    fn panic_probe_panics_in_build_and_batch_survives() {
        let probe = PanicProbe;
        let quarantined = with_quiet_panics(|| {
            run_quarantined("panic probe", || {
                let (mgr, layout, isf) = build_isf_pieces(&probe);
                (mgr.arena_len(), layout.num_vars(), isf.num_outputs())
            })
        })
        .expect_err("probe must panic");
        assert!(quarantined.payload.contains("quarantine probe"));
    }

    #[test]
    fn panicking_benchmark_quarantines_without_aborting_the_batch() {
        use crate::{check_benchmark, CheckOptions};
        use bddcf_funcs::registry::small_benchmarks;
        use bddcf_funcs::Benchmark;

        let options = CheckOptions::default();
        let mut completed = 0usize;
        let mut quarantined = Vec::new();
        with_quiet_panics(|| {
            // A healthy benchmark, the panic probe, then another healthy
            // one: the probe must not stop the third entry from running.
            let suite = small_benchmarks();
            let probe = PanicProbe;
            let entries: Vec<(&str, &dyn Benchmark)> = vec![
                (suite[1].label, suite[1].benchmark.as_ref()),
                ("panic probe", &probe),
                (suite[4].label, suite[4].benchmark.as_ref()),
            ];
            for (label, benchmark) in entries {
                match run_quarantined(label, || check_benchmark(benchmark, &options)) {
                    Ok(result) => {
                        assert!(result.is_clean(), "{}{}", result.report, result.artifacts);
                        completed += 1;
                    }
                    Err(q) => quarantined.push(q),
                }
            }
        });
        assert_eq!(completed, 2, "both healthy benchmarks must finish");
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].label, "panic probe");
        assert!(quarantined[0].payload.contains("quarantine probe"));
    }
}
