//! End-to-end budget-exhaustion tests: every pipeline phase, starved of
//! each resource in turn, must either return a clean typed error or
//! degrade into a valid (refinement-oracle-passing) result with a
//! populated [`DegradationReport`] — never panic, never corrupt the
//! manager.

use bddcf_bdd::{Budget, CancelToken, Error as BudgetError};
use bddcf_cascade::{synthesize_governed, CascadeOptions, SynthesisError};
use bddcf_check::{check_cf, check_manager, check_refinement};
use bddcf_core::degrade::DegradationReport;
use bddcf_core::Cf;
use bddcf_funcs::{build_isf_pieces, Benchmark, DecimalAdder};
use proptest::prelude::*;
use std::time::Duration;

fn bench() -> DecimalAdder {
    DecimalAdder::new(1)
}

/// Builds χ for the benchmark with no budget installed.
fn build_cf(benchmark: &dyn Benchmark) -> Cf {
    let (mgr, layout, isf) = build_isf_pieces(benchmark);
    Cf::from_isf(mgr, layout, isf)
}

/// The full soundness audit: manager integrity, CF lints, refinement.
fn assert_sound(cf: &mut Cf, context: &str) {
    let _ = cf.manager_mut().take_budget();
    check_manager(cf.manager()).assert_clean(context);
    check_cf(cf).assert_clean(context);
    check_refinement(cf).assert_clean(context);
}

#[test]
fn construction_starved_of_nodes_fails_with_typed_error() {
    let (mut mgr, layout, isf) = build_isf_pieces(&bench());
    mgr.set_budget(Budget::default().with_node_limit(mgr.arena_len() + 1));
    match Cf::try_from_isf(mgr, layout, isf) {
        Err(BudgetError::NodeLimit { .. }) => {}
        other => panic!("expected NodeLimit, got {other:?}"),
    }
}

#[test]
fn construction_starved_of_steps_fails_with_typed_error() {
    let (mut mgr, layout, isf) = build_isf_pieces(&bench());
    mgr.set_budget(Budget::default().with_step_limit(3));
    match Cf::try_from_isf(mgr, layout, isf) {
        Err(BudgetError::StepLimit { .. }) => {}
        other => panic!("expected StepLimit, got {other:?}"),
    }
}

#[test]
fn construction_with_expired_deadline_fails_with_typed_error() {
    let (mut mgr, layout, isf) = build_isf_pieces(&bench());
    mgr.set_budget(Budget::default().with_time_budget(Duration::ZERO));
    match Cf::try_from_isf(mgr, layout, isf) {
        Err(BudgetError::TimeBudget) => {}
        other => panic!("expected TimeBudget, got {other:?}"),
    }
}

#[test]
fn alg31_starved_leaves_chi_untouched_and_sound() {
    let mut cf = build_cf(&bench());
    let before = (cf.max_width(), cf.node_count());
    let quota = cf.manager().arena_len();
    cf.manager_mut()
        .set_budget(Budget::default().with_node_limit(quota));
    let err = cf.try_reduce_alg31().expect_err("quota at arena size");
    assert!(matches!(err, BudgetError::NodeLimit { .. }));
    assert_eq!((cf.max_width(), cf.node_count()), before, "χ must not move");
    assert_sound(&mut cf, "alg31 starved");
}

#[test]
fn alg33_starved_degrades_with_populated_report() {
    let mut cf = build_cf(&bench());
    let quota = cf.manager().arena_len() + 2;
    cf.manager_mut()
        .set_budget(Budget::default().with_node_limit(quota));
    let mut report = DegradationReport::new();
    cf.reduce_alg33_governed(&mut report);
    assert!(!report.is_clean(), "a starved run must record downgrades");
    assert_sound(&mut cf, "alg33 starved");
}

#[test]
fn support_reduction_starved_degrades_with_populated_report() {
    let mut cf = build_cf(&bench());
    cf.manager_mut()
        .set_budget(Budget::default().with_step_limit(1));
    let mut report = DegradationReport::new();
    let removed = cf.reduce_support_variables_governed(&mut report);
    assert!(removed.is_empty(), "no room to prove redundancy");
    assert!(!report.is_clean());
    assert_sound(&mut cf, "support starved");
}

#[test]
fn fixpoint_under_node_quota_degrades_but_stays_valid() {
    let mut cf = build_cf(&bench());
    let unreduced_nodes = cf.manager().arena_len();
    cf.manager_mut()
        .set_budget(Budget::default().with_node_limit(unreduced_nodes + 4));
    let mut report = DegradationReport::new();
    cf.reduce_to_fixpoint_governed(4, &mut report);
    assert!(!report.is_clean(), "quota near arena size must bite");
    assert!(
        report.terminal_cause().is_none(),
        "node quotas are never terminal"
    );
    assert_sound(&mut cf, "fixpoint under node quota");
}

#[test]
fn fixpoint_under_step_quota_stops_with_terminal_cause() {
    let mut cf = build_cf(&bench());
    cf.manager_mut()
        .set_budget(Budget::default().with_step_limit(10));
    let mut report = DegradationReport::new();
    cf.reduce_to_fixpoint_governed(4, &mut report);
    assert!(matches!(
        report.terminal_cause(),
        Some(BudgetError::StepLimit { .. })
    ));
    assert_sound(&mut cf, "fixpoint under step quota");
}

#[test]
fn fixpoint_with_fired_cancel_token_stops_cleanly() {
    let mut cf = build_cf(&bench());
    let token = CancelToken::new();
    token.cancel();
    cf.manager_mut()
        .set_budget(Budget::default().with_cancel(token));
    let mut report = DegradationReport::new();
    cf.reduce_to_fixpoint_governed(4, &mut report);
    assert_eq!(report.terminal_cause(), Some(BudgetError::Cancelled));
    assert_sound(&mut cf, "fixpoint cancelled");
}

#[test]
fn synthesis_starved_returns_budget_error_or_degrades() {
    let mut cf = build_cf(&bench());
    cf.reduce_to_fixpoint(4);
    cf.manager_mut()
        .set_budget(Budget::default().with_step_limit(1));
    let mut report = DegradationReport::new();
    match synthesize_governed(&mut cf, &CascadeOptions::default(), &mut report) {
        // Choice analysis needed budgeted BDD work and hit the wall: the
        // step quota is terminal, so synthesis reports it as an error.
        Err(SynthesisError::Budget(BudgetError::StepLimit { .. })) => {}
        // χ had no entangled choices to analyze, so nothing was charged.
        Ok(_) => {}
        other => panic!("unexpected synthesis outcome {other:?}"),
    }
    assert_sound(&mut cf, "synthesis starved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cancelling at an arbitrary operation count anywhere in the pipeline
    /// never corrupts the manager and never breaks the refinement oracle:
    /// either construction fails with the typed `Cancelled` error, or the
    /// surviving (partially reduced) χ is fully sound.
    #[test]
    fn random_cancel_points_never_corrupt_the_manager(cancel_at in 1u64..4000) {
        let (mut mgr, layout, isf) = build_isf_pieces(&bench());
        mgr.set_budget(
            Budget::default()
                .with_cancel(CancelToken::new())
                .with_cancel_at_step(cancel_at),
        );
        let mut report = DegradationReport::new();
        match Cf::try_from_isf(mgr, layout, isf) {
            Err(e) => prop_assert_eq!(e, BudgetError::Cancelled),
            Ok(mut cf) => {
                cf.reduce_to_fixpoint_governed(2, &mut report);
                let _ = synthesize_governed(&mut cf, &CascadeOptions::default(), &mut report);
                let _ = cf.manager_mut().take_budget();
                let m = check_manager(cf.manager());
                prop_assert!(m.is_clean(), "{}", m);
                let c = check_cf(&mut cf);
                prop_assert!(c.is_clean(), "{}", c);
                let r = check_refinement(&mut cf);
                prop_assert!(r.is_clean(), "{}", r);
            }
        }
    }
}
