//! Deterministic, seeded fault injection across the governed pipeline.
//!
//! The robustness claim of the governed entry points
//! ([`Cf::try_from_isf`], [`Cf::reduce_to_fixpoint_governed`]
//! (bddcf_core::Cf::reduce_to_fixpoint_governed),
//! [`synthesize_governed`]) is threefold: under *any* budget exhaustion or
//! cancellation, (a) nothing panics, (b) the manager stays structurally
//! sound, and (c) the surviving χ is still a refinement of the original
//! specification — degraded means *wider cascades*, never *wrong ones*.
//! This module turns that claim into an executable experiment.
//!
//! [`run_injection`] first runs the governed pipeline once without limits
//! to *calibrate* the fault space — the total number of charged operation
//! steps and the arena high-water mark. It then replays the pipeline from
//! scratch for each of [`InjectionOptions::points`] fault points, drawing
//! the fault deterministically from a seeded RNG:
//!
//! * **node quota** in `[2, high-water]` — exercises the GC-retry /
//!   pair-merge-fallback / skip ladder;
//! * **step quota** in `[1, total steps]` — exercises terminal-cause early
//!   exit at every recursion boundary the pipeline ever reaches;
//! * **cancel-at-step** in `[1, total steps]` — the deterministic stand-in
//!   for a user pressing Ctrl-C at an arbitrary moment.
//!
//! After every fault the full analysis stack runs on whatever survived:
//! [`check_manager`], [`check_cf`], [`check_refinement`], and — when a
//! cascade was synthesized — [`check_cascade`]. A fault that aborts
//! construction itself must surface as a typed [`BudgetError`], which the
//! harness counts as a *clean error* rather than a failure.

use crate::{check_cascade, check_cf, check_manager, check_refinement, CheckReport};
use bddcf_bdd::{Budget, CancelToken, Error as BudgetError};
use bddcf_cascade::{synthesize_governed, Cascade, CascadeOptions};
use bddcf_core::degrade::DegradationReport;
use bddcf_core::{Alg33Options, Cf};
use bddcf_funcs::{build_isf_pieces, Benchmark};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Knobs for [`run_injection`].
#[derive(Clone, Debug)]
pub struct InjectionOptions {
    /// RNG seed; equal seeds replay the identical fault schedule.
    pub seed: u64,
    /// Number of fault points to inject.
    pub points: usize,
    /// Iteration cap for the reduction fixpoint.
    pub max_iterations: usize,
    /// Algorithm 3.3 tuning.
    pub alg33: Alg33Options,
    /// Cell constraints for cascade synthesis.
    pub cascade: CascadeOptions,
    /// Random input samples for the cascade semantic lints.
    pub samples: u64,
}

impl Default for InjectionOptions {
    fn default() -> Self {
        InjectionOptions {
            seed: 0xb0d0_cf5e,
            points: 100,
            max_iterations: 4,
            alg33: Alg33Options::default(),
            cascade: CascadeOptions::default(),
            samples: 64,
        }
    }
}

/// One injected fault, drawn from the calibrated fault space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Arena node quota (total slots, terminals included).
    NodeQuota(usize),
    /// Operation-step budget.
    StepQuota(u64),
    /// Deterministic cancellation once the step counter reaches the value.
    CancelAtStep(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::NodeQuota(q) => write!(f, "node-quota={q}"),
            FaultKind::StepQuota(s) => write!(f, "step-quota={s}"),
            FaultKind::CancelAtStep(s) => write!(f, "cancel-at-step={s}"),
        }
    }
}

/// How the pipeline weathered one injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultResult {
    /// Construction itself was aborted by a typed budget error — there is
    /// no χ to check, and none was left half-built.
    CleanError(BudgetError),
    /// The pipeline completed with a non-empty [`DegradationReport`]: some
    /// reduction or synthesis step was downgraded or skipped.
    Degraded {
        /// Number of recorded downgrade events.
        events: usize,
        /// Whether a cascade was still synthesized.
        synthesized: bool,
    },
    /// The fault budget was never exhausted; the run matched an unbudgeted
    /// one.
    Unaffected {
        /// Whether a cascade was synthesized.
        synthesized: bool,
    },
}

/// One fault point's record: what was injected and what happened.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// The injected fault.
    pub kind: FaultKind,
    /// How the pipeline responded.
    pub result: FaultResult,
}

/// Everything [`run_injection`] learned about one benchmark.
#[derive(Debug)]
pub struct InjectionOutcome {
    /// The benchmark's display name.
    pub label: String,
    /// Charged operation steps of the unbudgeted calibration run.
    pub calibration_steps: u64,
    /// Arena high-water mark of the calibration run.
    pub calibration_arena: usize,
    /// Per-fault records, in injection order.
    pub faults: Vec<FaultOutcome>,
    /// All invariant findings across every fault (empty = the governed
    /// pipeline is panic-free *and* sound on this benchmark).
    pub report: CheckReport,
}

impl InjectionOutcome {
    /// Faults that cleanly aborted construction with a typed error.
    pub fn clean_errors(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.result, FaultResult::CleanError(_)))
            .count()
    }

    /// Faults the pipeline absorbed by degrading.
    pub fn degraded(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.result, FaultResult::Degraded { .. }))
            .count()
    }

    /// Faults whose budget was never exhausted.
    pub fn unaffected(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.result, FaultResult::Unaffected { .. }))
            .count()
    }

    /// True when no invariant violation survived any fault.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} fault(s) injected — {} clean error(s), {} degraded, \
             {} unaffected; {}",
            self.label,
            self.faults.len(),
            self.clean_errors(),
            self.degraded(),
            self.unaffected(),
            if self.is_clean() {
                "no invariant violations".to_owned()
            } else {
                format!("{} violation(s)", self.report.findings().len())
            }
        )
    }
}

/// Runs the governed pipeline end to end under `budget`: build the ISF,
/// construct χ fallibly, reduce to a fixpoint with degradation, and attempt
/// cascade synthesis with degradation. An `Err` can only come from
/// construction — everything after it degrades instead of failing.
fn governed_run(
    benchmark: &dyn Benchmark,
    budget: Budget,
    options: &InjectionOptions,
    degradations: &mut DegradationReport,
) -> Result<(Cf, Option<Cascade>), BudgetError> {
    let (mut mgr, layout, isf) = build_isf_pieces(benchmark);
    mgr.set_budget(budget); // resets the step counter: faults are relative
    let mut cf = Cf::try_from_isf(mgr, layout, isf)?;
    cf.reduce_to_fixpoint_governed(&options.alg33, options.max_iterations, degradations);
    // Synthesis capacity errors (cell constraints) are not robustness
    // failures; budget errors here are already recorded in `degradations`
    // or terminal (the fault fired so late that only synthesis saw it).
    let cascade = synthesize_governed(&mut cf, &options.cascade, degradations).ok();
    Ok((cf, cascade))
}

/// Injects [`InjectionOptions::points`] deterministic faults into the
/// governed pipeline for `benchmark` and audits every survivor with the
/// full analysis stack. See the [module docs](self) for the experiment
/// design.
///
/// # Panics
///
/// Panics only if the *calibration* run (unlimited budget) fails to build
/// χ — that is a benchmark bug, not a robustness finding.
pub fn run_injection(benchmark: &dyn Benchmark, options: &InjectionOptions) -> InjectionOutcome {
    // Calibration: one unbudgeted governed run to size the fault space.
    let (calibration_steps, calibration_arena) = {
        let mut degradations = DegradationReport::new();
        let (mut mgr, layout, isf) = build_isf_pieces(benchmark);
        let built = mgr.arena_len();
        mgr.set_budget(Budget::unlimited()); // resets the step counter
        let mut cf = Cf::try_from_isf(mgr, layout, isf)
            .expect("invariant: an unlimited budget cannot be exhausted");
        cf.reduce_to_fixpoint_governed(&options.alg33, options.max_iterations, &mut degradations);
        let mut arena = built.max(cf.manager().arena_len());
        let _ = synthesize_governed(&mut cf, &options.cascade, &mut degradations);
        arena = arena.max(cf.manager().arena_len());
        debug_assert!(
            degradations.is_clean(),
            "unbudgeted calibration degraded:\n{}",
            degradations.render()
        );
        (cf.manager().steps(), arena)
    };

    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut report = CheckReport::new();
    let mut faults = Vec::with_capacity(options.points);
    for i in 0..options.points {
        // Round-robin over the kinds so every kind appears even for tiny
        // `points`; the parameter draw is what the seed randomizes.
        let kind = match i % 3 {
            0 => FaultKind::NodeQuota(rng.gen_range(2..=calibration_arena.max(3))),
            1 => FaultKind::StepQuota(rng.gen_range(1..=calibration_steps.max(2))),
            _ => FaultKind::CancelAtStep(rng.gen_range(1..=calibration_steps.max(2))),
        };
        let budget = match kind {
            FaultKind::NodeQuota(q) => Budget::default().with_node_limit(q),
            FaultKind::StepQuota(s) => Budget::default().with_step_limit(s),
            FaultKind::CancelAtStep(s) => Budget::default()
                .with_cancel(CancelToken::new())
                .with_cancel_at_step(s),
        };

        let mut degradations = DegradationReport::new();
        let result = match governed_run(benchmark, budget, options, &mut degradations) {
            Err(cause) => FaultResult::CleanError(cause),
            Ok((mut cf, cascade)) => {
                // Lift the fault budget so the oracles themselves cannot
                // trip it, then audit everything that survived.
                let _ = cf.manager_mut().take_budget();
                let tag = format!("fault[{i}] {kind}");
                report.absorb(&tag, check_manager(cf.manager()));
                report.absorb(&tag, check_cf(&mut cf));
                report.absorb(&tag, check_refinement(&mut cf));
                if let Some(cascade) = &cascade {
                    report.absorb(&tag, check_cascade(cascade, &cf, options.samples));
                }
                if degradations.is_clean() {
                    FaultResult::Unaffected {
                        synthesized: cascade.is_some(),
                    }
                } else {
                    FaultResult::Degraded {
                        events: degradations.len() as usize,
                        synthesized: cascade.is_some(),
                    }
                }
            }
        };
        faults.push(FaultOutcome { kind, result });
    }

    InjectionOutcome {
        label: benchmark.name(),
        calibration_steps,
        calibration_arena,
        faults,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_funcs::RadixConverter;

    #[test]
    fn injection_is_deterministic_and_clean() {
        let options = InjectionOptions {
            points: 12,
            ..InjectionOptions::default()
        };
        let bench = RadixConverter::new(3, 2);
        let a = run_injection(&bench, &options);
        assert!(a.is_clean(), "{}", a.report);
        assert_eq!(a.faults.len(), 12);
        assert!(a.calibration_steps > 0);
        assert!(a.calibration_arena > 2);
        // Same seed → identical fault schedule and identical outcomes.
        let b = run_injection(&bench, &options);
        let kinds_a: Vec<_> = a.faults.iter().map(|f| f.kind).collect();
        let kinds_b: Vec<_> = b.faults.iter().map(|f| f.kind).collect();
        assert_eq!(kinds_a, kinds_b);
    }

    #[test]
    fn tight_faults_actually_fire() {
        // With quotas drawn from [2, high-water] and steps from
        // [1, total], a majority of the injected faults must actually
        // exhaust something — otherwise the harness is testing nothing.
        let options = InjectionOptions {
            points: 30,
            ..InjectionOptions::default()
        };
        let outcome = run_injection(&RadixConverter::new(3, 2), &options);
        assert!(outcome.is_clean(), "{}", outcome.report);
        let fired = outcome.clean_errors() + outcome.degraded();
        assert!(
            fired * 2 >= outcome.faults.len(),
            "only {fired}/{} faults fired",
            outcome.faults.len()
        );
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let bench = RadixConverter::new(3, 2);
        let a = run_injection(
            &bench,
            &InjectionOptions {
                points: 9,
                seed: 1,
                ..InjectionOptions::default()
            },
        );
        let b = run_injection(
            &bench,
            &InjectionOptions {
                points: 9,
                seed: 2,
                ..InjectionOptions::default()
            },
        );
        assert!(a.is_clean() && b.is_clean());
        let kinds_a: Vec<_> = a.faults.iter().map(|f| f.kind).collect();
        let kinds_b: Vec<_> = b.faults.iter().map(|f| f.kind).collect();
        assert_ne!(kinds_a, kinds_b);
    }
}
