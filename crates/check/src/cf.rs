//! Layer 2: `BDD_for_CF` semantic lints.
//!
//! Checks the invariants Definition 2.3/2.4 of the paper give a
//! characteristic function χ(X, Y):
//!
//! * **Ordering rule** (Definition 2.4): each output variable `y_j` sits
//!   strictly below the *essential* support of its function (inputs that
//!   only influence the don't-care set impose no constraint — they are
//!   what legitimizes interleaved orders like the decimal adder's carry
//!   chain) in the current variable order.
//! * **Single occurrence**: no path of χ tests an output variable twice
//!   (trivially true in a sound ROBDD, but checked independently here so a
//!   broken manager cannot mask it).
//! * **Partition**: for every output, ON/OFF/DC are pairwise disjoint and
//!   cover the whole input space.
//! * **Validity**: `∀X ∃Y. χ = 1` — every input admits at least one output
//!   word (Definition 2.3 guarantees it on construction; reductions must
//!   preserve it).
//!
//! A sixth lint, [`check_cascade_ready`], is deliberately *not* part of
//! [`check_cf`]: the Fig.-1 forced-output shape (exactly one 0-edge per
//! output node) is a precondition of cascade **cell extraction**, not of χ
//! itself. Constrained sifting keeps outputs below their *essential*
//! support only, so a legal interleaved order — and the reductions run in
//! it — can give an output node two live children while χ stays a perfect
//! narrowing of the specification; synthesis re-orders or reports a typed
//! [`ChoiceError`](bddcf_core::ChoiceError) when it actually matters.
//! Audit cascade inputs (and synthesized partitions) with
//! [`check_cascade_ready`]; audit reduction phase boundaries with
//! [`check_cf`].

use crate::{CheckReport, Layer};
use bddcf_core::{Cf, Role};
use std::collections::HashMap;

/// Runs every CF lint on `cf`. Needs `&mut` because partition and validity
/// checks build scratch BDDs in the shared manager.
pub fn check_cf(cf: &mut Cf) -> CheckReport {
    let mut report = CheckReport::new();
    ordering_rule(cf, &mut report);
    single_occurrence(cf, &mut report);
    partition(cf, &mut report);
    validity(cf, &mut report);
    report
}

/// Definition 2.4: `y_j` strictly below the essential support of its
/// function.
fn ordering_rule(cf: &Cf, report: &mut CheckReport) {
    let mgr = cf.manager();
    let layout = cf.layout();
    for j in 0..layout.num_outputs() {
        let essential = cf.isf().essential_support_of_output(mgr, j);
        let y = layout.output_var(j);
        let y_level = mgr.level_of(y);
        for var in essential {
            if mgr.level_of(var) >= y_level {
                report.push(
                    Layer::CfLints,
                    format!(
                        "Definition 2.4 violated: output {} (level {y_level}) is not \
                         strictly below essential support variable {} (level {})",
                        layout.var_name(y),
                        layout.var_name(var),
                        mgr.level_of(var)
                    ),
                );
            }
        }
    }
}

/// No output variable twice on any path of χ. Computed bottom-up: for each
/// node, the set of output variables occurring anywhere below it; a node
/// testing `y_j` with `y_j` already below it lies on a repeating path.
fn single_occurrence(cf: &Cf, report: &mut CheckReport) {
    let mgr = cf.manager();
    let layout = cf.layout();
    let m = layout.num_outputs();
    let words = m.div_ceil(64).max(1);

    let mut nodes = mgr.descendants(&[cf.root()]);
    // Deepest first, so children are always processed before parents.
    nodes.sort_by_key(|&n| std::cmp::Reverse(mgr.level_of_node(n)));
    let mut below: HashMap<bddcf_bdd::NodeId, Vec<u64>> = HashMap::new();
    for &n in &nodes {
        let mut set = vec![0u64; words];
        for child in [mgr.lo(n), mgr.hi(n)] {
            if let Some(child_set) = below.get(&child) {
                for (acc, w) in set.iter_mut().zip(child_set) {
                    *acc |= w;
                }
            }
        }
        if let Role::Output(j) = layout.role(mgr.var_of(n)) {
            if set[j / 64] >> (j % 64) & 1 == 1 {
                report.push(
                    Layer::CfLints,
                    format!(
                        "output variable {} occurs more than once on a path of χ",
                        layout.var_name(mgr.var_of(n))
                    ),
                );
            }
            set[j / 64] |= 1 << (j % 64);
        }
        below.insert(n, set);
    }
}

/// ON/OFF/DC partition the input space for every output.
fn partition(cf: &mut Cf, report: &mut CheckReport) {
    let isf = cf.isf().clone();
    if !isf.validate(cf.manager_mut()) {
        report.push(
            Layer::CfLints,
            "ON/OFF/DC sets do not partition the input space",
        );
    }
}

/// `∀X ∃Y. χ = 1`: the function admits an output word on every input.
fn validity(cf: &mut Cf, report: &mut CheckReport) {
    if !cf.is_fully_live() {
        report.push(
            Layer::CfLints,
            "χ is not fully live: some input admits no output word (∀X ∃Y χ = 1 violated)",
        );
    }
}

/// Is this χ a sound input for cascade cell extraction? Every reachable
/// output node must be forced (one 0-edge, the Fig.-1 shape) or covered
/// by the cascade choice map. Constrained sifting keeps outputs below
/// their *essential* support only, so a legal order may interleave
/// don't-care structure below an output and give it two live children;
/// such a node is fine as long as one child covers its live set. Only an
/// entangled node — no sound hard-wired choice — is a defect.
///
/// Not part of [`check_cf`]: an entangled node can legally appear after a
/// reduction in an interleaved order, and the remedy (re-order or
/// re-partition) belongs to the synthesis caller. Run this lint on what
/// cascade extraction is actually about to consume.
pub fn check_cascade_ready(cf: &mut Cf) -> CheckReport {
    let mut report = CheckReport::new();
    if cf.output_nodes_well_formed() {
        return report;
    }
    if let Err(node) = cf.cascade_output_choices() {
        report.push(
            Layer::CfLints,
            format!(
                "output node {node:?} of χ is entangled: two live children and \
                 neither covers its live set (no sound cascade choice)"
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::TruthTable;

    #[test]
    fn paper_example_is_clean() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        assert!(check_cf(&mut cf).is_clean());
    }

    #[test]
    fn reduced_paper_example_stays_clean() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        cf.reduce_alg33_default();
        let report = check_cf(&mut cf);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn interleaved_order_with_resolvable_choices_is_cascade_ready() {
        use bddcf_bdd::Var;
        use bddcf_core::{CfLayout, IsfBdds};
        // y1 sits right below its essential support {x1,x2}, above x3/x4
        // which only steer the don't-care set (digit code 3 invalid). The
        // Fig.-1 forced shape breaks, but every two-live-children output
        // node is resolvable, so both lints must stay clean.
        let order = vec![Var(0), Var(1), Var(4), Var(2), Var(3), Var(5)];
        let mut cf = Cf::build_with_order(CfLayout::new(4, 2), &order, |mgr, layout| {
            let x: Vec<_> = (0..4).map(|i| mgr.var(layout.input_var(i))).collect();
            let a_invalid = mgr.and(x[0], x[1]);
            let b_invalid = mgr.and(x[2], x[3]);
            let invalid = mgr.or(a_invalid, b_invalid);
            let valid = mgr.not(invalid);
            let nx0 = mgr.not(x[0]);
            let y1 = mgr.and(nx0, x[1]);
            let y2 = mgr.xor(x[0], x[2]);
            let on = vec![mgr.and(valid, y1), mgr.and(valid, y2)];
            let dc = vec![invalid, invalid];
            IsfBdds::from_on_dc(mgr, on, dc)
        });
        assert!(!cf.output_nodes_well_formed(), "the order must interleave");
        let report = check_cf(&mut cf);
        assert!(report.is_clean(), "{report}");
        let ready = check_cascade_ready(&mut cf);
        assert!(ready.is_clean(), "{ready}");
    }
}
