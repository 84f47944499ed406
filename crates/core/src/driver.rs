//! A convenience driver chaining the paper's reductions to a fixpoint.
//!
//! The paper applies support-variable removal, then one of the width
//! reductions (§3.3, §5.1). Reductions can enable each other — removing a
//! variable may create new compatible columns and vice versa — so this
//! driver loops `support → Algorithm 3.1 → Algorithm 3.3` until an
//! iteration stops improving the (max width, nodes) pair.
//!
//! There is one loop, [`Cf::reduce_to_fixpoint_governed_from`]. The plain
//! governed run, the checkpointed run and the resume of a loaded checkpoint
//! all call it; they differ only in where they start and in the boundary
//! hook they pass — a no-op here, a collect-and-save in
//! [`checkpoint`](crate::checkpoint).

use crate::alg33::Alg33Options;
use crate::cf::Cf;
use crate::checkpoint::{FixpointCursor, Progress, CUT_DONE};
use crate::degrade::{DegradationReport, DegradeAction, Phase};
use bddcf_bdd::Error as BudgetError;
use std::convert::Infallible;

/// Outcome of [`Cf::reduce_to_fixpoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixpointStats {
    /// Iterations executed (at least 1).
    pub iterations: usize,
    /// Input variables removed in total.
    pub removed_inputs: usize,
    /// Maximum width before / after.
    pub max_width: (usize, usize),
    /// Node count before / after.
    pub nodes: (usize, usize),
}

impl Cf {
    /// Runs `support reduction → Algorithm 3.1 → Algorithm 3.3` repeatedly
    /// until neither the maximum width nor the node count improves, or
    /// `max_iterations` is reached.
    pub fn reduce_to_fixpoint(&mut self, max_iterations: usize) -> FixpointStats {
        let saved = self.manager_mut().take_budget();
        let mut report = DegradationReport::new();
        let stats = self.reduce_to_fixpoint_governed(max_iterations, &mut report);
        self.manager_mut().resume_budget(saved);
        debug_assert!(report.is_clean(), "unbudgeted runs cannot degrade");
        stats
    }

    /// Budget-governed fixpoint driver: the same loop as
    /// [`reduce_to_fixpoint`](Cf::reduce_to_fixpoint), but every phase
    /// degrades instead of failing when the manager's installed
    /// [`Budget`](bddcf_bdd::Budget) runs out:
    ///
    /// * support reduction skips exhausted variables
    ///   ([`reduce_support_variables_governed`]
    ///   (Cf::reduce_support_variables_governed));
    /// * Algorithm 3.1 gets one GC + retry, then the whole pass is skipped
    ///   (it is an optional strengthening — Algorithm 3.3 subsumes its
    ///   merges level by level);
    /// * Algorithm 3.3 walks its per-cut ladder
    ///   ([`reduce_alg33_governed`](Cf::reduce_alg33_governed));
    /// * a terminal cause (step/time/cancel) recorded by any phase stops
    ///   the iteration at the end of that phase.
    ///
    /// χ after return is always a valid refinement of χ before, whatever
    /// was skipped; `report` says exactly what was.
    pub fn reduce_to_fixpoint_governed(
        &mut self,
        max_iterations: usize,
        report: &mut DegradationReport,
    ) -> FixpointStats {
        match self.reduce_to_fixpoint_governed_from(
            max_iterations,
            report,
            None,
            false,
            |_, _, _, _| Ok::<(), Infallible>(()),
        ) {
            Ok(stats) => stats.expect("invariant: only a crash-simulating run ends without stats"),
            Err(never) => match never {},
        }
    }

    /// The fixpoint loop behind every entry point: the plain governed run,
    /// the checkpointed run and the resume of a loaded checkpoint.
    ///
    /// `resume_from` is the boundary to start at plus the loop-carried
    /// state saved there; `None` starts a fresh run at iteration 1.
    /// `boundary` runs at every resumable boundary — each iteration start,
    /// each Algorithm 3.3 cut (through [`reduce_alg33_governed_from`]
    /// (Cf::reduce_alg33_governed_from)) and completion — with χ valid and
    /// installed; its error aborts the run and is returned verbatim.
    ///
    /// With `abort_on_cancel` set, a terminal
    /// [`Cancelled`](bddcf_bdd::Error::Cancelled) cause returns `Ok(None)`
    /// at once, with no further `boundary` call: exactly what a process
    /// killed at that point leaves behind. Otherwise every terminal cause
    /// stops the iteration gracefully and the result is `Ok(Some(stats))`.
    pub(crate) fn reduce_to_fixpoint_governed_from<E>(
        &mut self,
        max_iterations: usize,
        report: &mut DegradationReport,
        resume_from: Option<(Progress, FixpointCursor)>,
        abort_on_cancel: bool,
        mut boundary: impl FnMut(
            &mut Cf,
            Progress,
            &FixpointCursor,
            &DegradationReport,
        ) -> Result<(), E>,
    ) -> Result<Option<FixpointStats>, E> {
        let max_iterations = max_iterations.max(1) as u32;
        let initial = (self.max_width(), self.node_count());
        let (start, mut cursor) = resume_from.unwrap_or((
            Progress::IterationStart { iteration: 1 },
            FixpointCursor {
                current: (initial.0 as u64, initial.1 as u64),
                removed_inputs: 0,
            },
        ));
        let (mut iteration, mut next_cut) = start.encode();
        #[cfg(feature = "check")]
        self.assert_pipeline_invariants("fixpoint: before reduction");
        let killed = loop {
            if next_cut == CUT_DONE {
                break false;
            }
            if next_cut == 0 {
                boundary(
                    self,
                    Progress::IterationStart { iteration },
                    &cursor,
                    report,
                )?;
                cursor.removed_inputs +=
                    self.reduce_support_variables_governed(report).len() as u64;
                #[cfg(feature = "check")]
                self.assert_pipeline_invariants("fixpoint: after support reduction");
                if let Some(killed) = halt(report, Phase::Alg31, abort_on_cancel) {
                    break killed;
                }
                match self.try_reduce_alg31() {
                    Ok(_) => {}
                    Err(cause) if matches!(cause, BudgetError::NodeLimit { .. }) => {
                        report.record(Phase::Alg31, None, DegradeAction::GcRetry, cause);
                        self.collect();
                        if let Err(cause) = self.try_reduce_alg31() {
                            report.record(Phase::Alg31, None, DegradeAction::SkippedPhase, cause);
                            self.collect();
                        }
                    }
                    Err(cause) => {
                        report.record(Phase::Alg31, None, DegradeAction::SkippedPhase, cause);
                        self.collect();
                    }
                }
                #[cfg(feature = "check")]
                self.assert_pipeline_invariants("fixpoint: after Algorithm 3.1");
                if let Some(killed) = halt(report, Phase::Alg33, abort_on_cancel) {
                    break killed;
                }
                next_cut = 1;
            }
            let defaults = Alg33Options::default();
            self.reduce_alg33_governed_from(&defaults, report, next_cut, |cf, cut, report| {
                boundary(cf, Progress::Alg33Cut { iteration, cut }, &cursor, report)
            })?;
            #[cfg(feature = "check")]
            self.assert_pipeline_invariants("fixpoint: after Algorithm 3.3");
            if let Some(killed) = halt(report, Phase::Alg33, abort_on_cancel) {
                break killed;
            }
            let now = (self.max_width() as u64, self.node_count() as u64);
            if now >= cursor.current || iteration >= max_iterations {
                break false;
            }
            cursor.current = now;
            iteration += 1;
            next_cut = 0;
        };
        if killed {
            return Ok(None);
        }
        boundary(self, Progress::ReductionDone { iteration }, &cursor, report)?;
        Ok(Some(FixpointStats {
            iterations: iteration as usize,
            removed_inputs: cursor.removed_inputs as usize,
            max_width: (initial.0, self.max_width()),
            nodes: (initial.1, self.node_count()),
        }))
    }
}

/// Ends the iteration on a terminal budget cause: `Some(true)` when a
/// crash-simulating run was cancelled (nothing more is recorded),
/// `Some(false)` after recording that the loop stopped before `next`, and
/// `None` while no terminal cause is set.
fn halt(report: &mut DegradationReport, next: Phase, abort_on_cancel: bool) -> Option<bool> {
    let cause = report.terminal_cause()?;
    if abort_on_cancel && matches!(cause, BudgetError::Cancelled) {
        return Some(true);
    }
    report.record(next, None, DegradeAction::StoppedIterating, cause);
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::TruthTable;

    #[test]
    fn fixpoint_is_sound_and_no_worse_than_one_round() {
        let table = TruthTable::paper_table1();
        let mut one = Cf::from_truth_table(&table);
        one.reduce_alg33_default();
        let mut fix = Cf::from_truth_table(&table);
        let stats = fix.reduce_to_fixpoint(5);
        assert!(stats.max_width.1 <= one.max_width());
        assert!(stats.iterations >= 1);
        assert!(fix.is_fully_live());
        let g = fix.complete();
        assert!(fix.realizes_original(&g));
    }

    #[test]
    fn fixpoint_terminates_on_completely_specified_functions() {
        let table = TruthTable::paper_table1().completed(false);
        let mut cf = Cf::from_truth_table(&table);
        let stats = cf.reduce_to_fixpoint(10);
        assert_eq!(stats.removed_inputs, 0);
        assert_eq!(stats.max_width.0, stats.max_width.1);
        assert!(stats.iterations <= 2, "no progress means fast exit");
    }

    #[test]
    fn fixpoint_respects_iteration_cap() {
        let table = TruthTable::paper_table1();
        let mut cf = Cf::from_truth_table(&table);
        let stats = cf.reduce_to_fixpoint(1);
        assert_eq!(stats.iterations, 1);
    }
}
