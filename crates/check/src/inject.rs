//! Seeded budget faults on the governed pipeline: the budget phase of
//! `bddcf chaos`.
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
//! [`inject_budget_faults`] first runs the governed pipeline once without
//! limits to *calibrate* the fault space — the total number of charged
//! operation steps and the arena high-water mark. It then replays the
//! pipeline from scratch for each fault point, drawing the fault
//! deterministically from a seeded RNG:
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

/// Iteration cap of every governed reduction fixpoint.
const MAX_ITERATIONS: usize = 4;
/// Random input samples for the cascade semantic lints.
const SAMPLES: u64 = 64;

/// One injected fault, drawn from the calibrated fault space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Arena node quota (total slots, terminals included).
    NodeQuota(usize),
    /// Operation-step budget.
    StepQuota(u64),
    /// Deterministic cancellation once the step counter reaches the value.
    CancelAtStep(u64),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::NodeQuota(q) => write!(f, "node-quota={q}"),
            Fault::StepQuota(s) => write!(f, "step-quota={s}"),
            Fault::CancelAtStep(s) => write!(f, "cancel-at-step={s}"),
        }
    }
}

/// How the pipeline weathered one fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Weathered {
    /// Construction was aborted by a typed budget error: there is no χ to
    /// check, and none was left half-built.
    CleanError,
    /// Some reduction or synthesis step was downgraded or skipped.
    Degraded,
    /// The fault budget was never exhausted.
    Unaffected,
}

/// Everything one benchmark's fault run learned.
struct Injection {
    /// Charged operation steps and arena high-water mark of the unbudgeted
    /// calibration run.
    calibration: (u64, usize),
    /// Each fault and how it was weathered, in injection order.
    faults: Vec<(Fault, Weathered)>,
    /// Every invariant finding, tagged with its fault.
    report: CheckReport,
}

/// Runs the governed pipeline end to end under `budget`: build the ISF,
/// construct χ fallibly, reduce to a fixpoint with degradation, and attempt
/// cascade synthesis with degradation. An `Err` can only come from
/// construction — everything after it degrades instead of failing.
fn governed_run(
    benchmark: &dyn Benchmark,
    budget: Budget,
    degradations: &mut DegradationReport,
) -> Result<(Cf, Option<Cascade>), BudgetError> {
    let (mut mgr, layout, isf) = build_isf_pieces(benchmark);
    mgr.set_budget(budget); // resets the step counter: faults are relative
    let mut cf = Cf::try_from_isf(mgr, layout, isf)?;
    cf.reduce_to_fixpoint_governed(&Alg33Options::default(), MAX_ITERATIONS, degradations);
    // Synthesis capacity errors (cell constraints) are not robustness
    // failures; budget errors here are already recorded in `degradations`
    // or terminal (the fault fired so late that only synthesis saw it).
    let cascade = synthesize_governed(&mut cf, &CascadeOptions::default(), degradations).ok();
    Ok((cf, cascade))
}

/// Calibrates `benchmark`'s fault space, injects `points` faults drawn
/// from `seed`, and audits every survivor.
///
/// # Panics
///
/// Panics only if the *calibration* run (unlimited budget) fails to build
/// χ — that is a benchmark bug, not a robustness finding.
fn inject(benchmark: &dyn Benchmark, seed: u64, points: usize) -> Injection {
    let (steps, arena) = {
        let mut degradations = DegradationReport::new();
        let (mut mgr, layout, isf) = build_isf_pieces(benchmark);
        let built = mgr.arena_len();
        mgr.set_budget(Budget::unlimited()); // resets the step counter
        let mut cf = Cf::try_from_isf(mgr, layout, isf)
            .expect("invariant: an unlimited budget cannot be exhausted");
        cf.reduce_to_fixpoint_governed(&Alg33Options::default(), MAX_ITERATIONS, &mut degradations);
        let mut arena = built.max(cf.manager().arena_len());
        let _ = synthesize_governed(&mut cf, &CascadeOptions::default(), &mut degradations);
        arena = arena.max(cf.manager().arena_len());
        debug_assert!(
            degradations.is_clean(),
            "unbudgeted calibration degraded:\n{}",
            degradations.render()
        );
        (cf.manager().steps(), arena)
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = CheckReport::new();
    let mut faults = Vec::with_capacity(points);
    for i in 0..points {
        // Round-robin over the kinds so every kind appears even for tiny
        // `points`; the parameter draw is what the seed randomizes.
        let (fault, budget) = match i % 3 {
            0 => {
                let q = rng.gen_range(2..=arena.max(3));
                (Fault::NodeQuota(q), Budget::default().with_node_limit(q))
            }
            1 => {
                let s = rng.gen_range(1..=steps.max(2));
                (Fault::StepQuota(s), Budget::default().with_step_limit(s))
            }
            _ => {
                let s = rng.gen_range(1..=steps.max(2));
                let budget = Budget::default().with_cancel(CancelToken::new());
                (Fault::CancelAtStep(s), budget.with_cancel_at_step(s))
            }
        };
        let mut degradations = DegradationReport::new();
        let weathered = match governed_run(benchmark, budget, &mut degradations) {
            Err(_) => Weathered::CleanError,
            Ok((mut cf, cascade)) => {
                // Lift the fault budget so the oracles themselves cannot
                // trip it, then audit everything that survived.
                let _ = cf.manager_mut().take_budget();
                let tag = format!("fault[{i}] {fault}");
                report.absorb(&tag, check_manager(cf.manager()));
                report.absorb(&tag, check_cf(&mut cf));
                report.absorb(&tag, check_refinement(&mut cf));
                if let Some(cascade) = &cascade {
                    report.absorb(&tag, check_cascade(cascade, &cf, SAMPLES));
                }
                if degradations.is_clean() {
                    Weathered::Unaffected
                } else {
                    Weathered::Degraded
                }
            }
        };
        faults.push((fault, weathered));
    }
    Injection {
        calibration: (steps, arena),
        faults,
        report,
    }
}

/// Injects `points` seeded budget faults (node quotas, step quotas and
/// cancellations, drawn from `seed`) into the governed pipeline for
/// `benchmark` and audits every survivor with check layers 1–4. See the
/// [module docs](self) for the experiment design.
///
/// Returns a one-line summary and every finding, tagged with the fault it
/// survived. Equal seeds inject the identical fault schedule.
pub fn inject_budget_faults(
    benchmark: &dyn Benchmark,
    seed: u64,
    points: usize,
) -> (String, CheckReport) {
    let run = inject(benchmark, seed, points);
    let count = |kind| run.faults.iter().filter(|(_, w)| *w == kind).count();
    let summary = format!(
        "{} fault(s) from {} step(s), {} node(s) — {} clean error(s), {} degraded, {} unaffected",
        run.faults.len(),
        run.calibration.0,
        run.calibration.1,
        count(Weathered::CleanError),
        count(Weathered::Degraded),
        count(Weathered::Unaffected)
    );
    (summary, run.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_funcs::RadixConverter;

    fn schedule(run: &Injection) -> Vec<Fault> {
        run.faults.iter().map(|&(fault, _)| fault).collect()
    }

    #[test]
    fn injection_is_deterministic_and_clean() {
        let bench = RadixConverter::new(3, 2);
        let a = inject(&bench, 0xb0d0_cf5e, 12);
        assert!(a.report.is_clean(), "{}", a.report);
        assert_eq!(a.faults.len(), 12);
        assert!(a.calibration.0 > 0);
        assert!(a.calibration.1 > 2);
        // Same seed → identical fault schedule.
        let b = inject(&bench, 0xb0d0_cf5e, 12);
        assert_eq!(schedule(&a), schedule(&b));
    }

    #[test]
    fn tight_faults_actually_fire() {
        // With quotas drawn from [2, high-water] and steps from
        // [1, total], a majority of the injected faults must actually
        // exhaust something — otherwise the harness is testing nothing.
        let run = inject(&RadixConverter::new(3, 2), 0xb0d0_cf5e, 30);
        assert!(run.report.is_clean(), "{}", run.report);
        let fired = run
            .faults
            .iter()
            .filter(|(_, w)| *w != Weathered::Unaffected)
            .count();
        assert!(
            fired * 2 >= run.faults.len(),
            "only {fired}/{} faults fired",
            run.faults.len()
        );
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let bench = RadixConverter::new(3, 2);
        let (a, b) = (inject(&bench, 1, 9), inject(&bench, 2, 9));
        assert!(a.report.is_clean() && b.report.is_clean());
        assert_ne!(schedule(&a), schedule(&b));
    }
}
