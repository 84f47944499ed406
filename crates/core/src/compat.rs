//! Compatibility of sub-characteristic-functions — the semantic core of
//! every merge in the width-reduction algorithms.
//!
//! # The merge rule
//!
//! Any node of a BDD_for_CF represents a characteristic function `χᵥ` of a
//! *sub*-ISF over the variables below it. For an input assignment `x`, the
//! *allowed set* `χᵥ(x,·)` is the set of output words the sub-ISF permits;
//! the *live set* `∃Y.χᵥ` is the set of inputs with a non-empty allowed
//! set.
//!
//! Replacing two nodes `a`, `b` by their product `a·b` narrows every
//! allowed set to the intersection. That is sound iff no live input of
//! either operand dies:
//!
//! ```text
//! a ∼ b   ⇔   ∃Y.(a·b) = ∃Y.a = ∃Y.b
//! ```
//!
//! When both operands are fully live (`∃Y = 1` — always true for columns of
//! a chart whose output variables sit below the cut), this is exactly the
//! paper's Definition 3.7: every column entry pair intersects. The equality
//! form additionally handles the zero rows that appear when output
//! variables are interleaved above the cut (an output decision already
//! taken can make some input suffixes invalid), which Definition 3.7 has no
//! vocabulary for. Lemma 3.1 (the product stays compatible with its
//! factors) holds for this relation too: `∃Y.(ab·a) = ∃Y.(ab)`.
//!
//! Liveness is preserved *globally* by induction: if a child's live set is
//! unchanged, every ancestor's live set is unchanged, so the root invariant
//! `∃Y.χ = 1` survives every merge.
//!
//! # Deciding compatibility
//!
//! Once the live sets are known to be equal, `a ∼ b` reduces to
//! `∃Y.(a·b) = ∃Y.a`, and almost every pair a compatibility graph tests
//! fails it. [`BddManager::try_and_exists_keeps`] therefore decides the
//! equality without building `∃Y.(a·b)` when it can. It walks both
//! operands from their top variable, carrying the shared live set `L`:
//!
//! * On an *input* variable `x` it splits both operands and `L`. Input
//!   cofactors commute with `∃Y` (`∃Y.(a|x) = (∃Y.a)|x`), so each cofactor
//!   pair again has equal live sets, `L|x` and `L|x̄`. The pair is
//!   compatible iff both cofactor pairs are, and the walk stops at the
//!   first one that is not.
//! * On an *output* variable `∃Y` ORs the two cofactor pairs' products
//!   together, so no single pair decides and the walk falls back to the
//!   relational product `∃Y.(a·b)` and compares it with `L`.
//! * Equal operands, and a constant operand, are compatible at once: with
//!   equal live sets, a FALSE operand forces the other to FALSE and a TRUE
//!   one makes both live sets TRUE.
//!
//! A pair proved compatible leaves `∃Y.(a·b) = L` in the manager's
//! and-exists cache. That is a valid entry of that cache, so later tests
//! and relational products reuse it. A failed pair leaves nothing, since
//! its product was never built.
//!
//! # Don't-care detection
//!
//! `χᵥ` (viewed from level `l`) has a don't care iff some live input admits
//! more than one word over the outputs below `l`. Counting satisfying
//! assignments gives an exact test:
//! `|χᵥ| · 2^{#outputs below l}  =  |∃Y.χᵥ|`  ⇔  no don't care.

use crate::layout::CfLayout;
use bddcf_bdd::{BddManager, Error as BudgetError, NodeId};

/// Scratch context for compatibility queries: caches the output-variable
/// cube so repeated queries don't rebuild it.
#[derive(Debug, Clone, Copy)]
pub struct CompatCtx {
    ycube: NodeId,
}

impl CompatCtx {
    /// Creates a context for the given layout.
    pub fn new(mgr: &mut BddManager, layout: &CfLayout) -> Self {
        CompatCtx {
            ycube: layout.output_cube(mgr),
        }
    }

    /// The live-input set `∃Y.f`.
    pub fn live(&self, mgr: &mut BddManager, f: NodeId) -> NodeId {
        mgr.exists_cube(f, self.ycube)
    }

    /// Budgeted [`live`](Self::live).
    pub fn try_live(&self, mgr: &mut BddManager, f: NodeId) -> Result<NodeId, BudgetError> {
        mgr.try_exists_cube(f, self.ycube)
    }

    /// The output-variable cube `Y`.
    pub fn ycube(&self) -> NodeId {
        self.ycube
    }

    /// The merge-compatibility relation `a ∼ b` (see module docs): equal
    /// live sets, then [`BddManager::and_exists_keeps`].
    pub fn compatible(&self, mgr: &mut BddManager, a: NodeId, b: NodeId) -> bool {
        self.live(mgr, a) == self.live(mgr, b) && mgr.and_exists_keeps(a, b, self.ycube)
    }

    /// Budgeted [`compatible`](Self::compatible).
    pub fn try_compatible(
        &self,
        mgr: &mut BddManager,
        a: NodeId,
        b: NodeId,
    ) -> Result<bool, BudgetError> {
        Ok(self.try_live(mgr, a)? == self.try_live(mgr, b)?
            && mgr.try_and_exists_keeps(a, b, self.ycube)?)
    }

    /// Merges two compatible functions into their product, or returns
    /// `None` if they are incompatible.
    pub fn merge(&self, mgr: &mut BddManager, a: NodeId, b: NodeId) -> Option<NodeId> {
        self.compatible(mgr, a, b).then(|| mgr.and(a, b))
    }

    /// Budgeted [`merge`](Self::merge): `Ok(None)` means incompatible,
    /// `Err` means the budget ran out before the answer was known.
    pub fn try_merge(
        &self,
        mgr: &mut BddManager,
        a: NodeId,
        b: NodeId,
    ) -> Result<Option<NodeId>, BudgetError> {
        if !self.try_compatible(mgr, a, b)? {
            return Ok(None);
        }
        Ok(Some(mgr.try_and(a, b)?))
    }

    /// Does the sub-ISF of `f`, viewed from just above `view_level`, contain
    /// a don't care? (Step 1 of Algorithm 3.1; see module docs.)
    ///
    /// `view_level` is the level of the node *owning* `f` as a sub-function;
    /// outputs at strictly greater levels belong to the sub-ISF.
    pub fn has_dont_care(
        &self,
        mgr: &mut BddManager,
        layout: &CfLayout,
        f: NodeId,
        view_level: u32,
    ) -> bool {
        let outputs_below = layout.outputs_below_level(mgr, view_level);
        let live = self.live(mgr, f);
        mgr.sat_count(f) << outputs_below != mgr.sat_count(live)
    }

    /// Budgeted [`has_dont_care`](Self::has_dont_care). Only the live-set
    /// quantification allocates; satisfying-assignment counting is read-only.
    pub fn try_has_dont_care(
        &self,
        mgr: &mut BddManager,
        layout: &CfLayout,
        f: NodeId,
        view_level: u32,
    ) -> Result<bool, BudgetError> {
        let outputs_below = layout.outputs_below_level(mgr, view_level);
        let live = self.try_live(mgr, f)?;
        Ok(mgr.sat_count(f) << outputs_below != mgr.sat_count(live))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::Cf;
    use bddcf_bdd::{Var, FALSE, TRUE};
    use bddcf_logic::TruthTable;

    /// Builds the CF of a 1-output table and returns (cf, ctx).
    fn cf_of(rows: &[&str]) -> Cf {
        Cf::from_truth_table(&TruthTable::from_rows(rows))
    }

    #[test]
    fn compatibility_matches_definition_37_for_single_output() {
        // Two ISFs over one input: f = (0, d), g = (d, 1): compatible.
        // h = (1, d): incompatible with f (position 0: 0 vs 1).
        let mut cf = cf_of(&["0", "d"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let f_root = cf.root();
        // Build g's χ directly inside cf's manager (same layout):
        // g = (d, 1) has on = {x=1}, dc = {x=0}, so χ_g = y·x ∨ ¬x = y ∨ ¬x.
        let mgr = cf.manager_mut();
        let x = mgr.var(Var(0));
        let y = mgr.var(Var(1));
        let nx = mgr.not(x);
        let g_chi = mgr.or(y, nx);
        assert!(ctx.compatible(mgr, f_root, g_chi));
        // h: row0 = 1, row1 = d: χ_h = (¬x → y) = x ∨ y
        let h_chi = mgr.or(x, y);
        assert!(!ctx.compatible(mgr, f_root, h_chi));
    }

    #[test]
    fn merge_narrows_but_keeps_liveness() {
        let mut cf = cf_of(&["d", "d"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let all_dc = cf.root();
        assert_eq!(all_dc, TRUE, "all-dc single output CF is the tautology");
        let mgr = cf.manager_mut();
        let y = mgr.var(Var(1));
        let merged = ctx
            .merge(mgr, all_dc, y)
            .expect("TRUE is compatible with y");
        assert_eq!(merged, y);
        assert_eq!(ctx.live(mgr, merged), TRUE);
    }

    #[test]
    fn incompatible_when_liveness_would_shrink() {
        let mut cf = cf_of(&["d", "d"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let mgr = cf.manager_mut();
        let y = mgr.var(Var(1));
        let ny = mgr.not(y);
        // y and ¬y are both fully live but their product is FALSE.
        assert!(!ctx.compatible(mgr, y, ny));
        assert!(ctx.merge(mgr, y, ny).is_none());
    }

    #[test]
    fn false_is_only_compatible_with_false() {
        let mut cf = cf_of(&["0", "1"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let mgr = cf.manager_mut();
        let y = mgr.var(Var(1));
        assert!(!ctx.compatible(mgr, FALSE, y));
        assert!(ctx.compatible(mgr, FALSE, FALSE));
    }

    #[test]
    fn compatibility_is_symmetric_and_reflexive() {
        let mut cf = cf_of(&["d", "1"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let mgr = cf.manager_mut();
        let x = mgr.var(Var(0));
        let y = mgr.var(Var(1));
        let candidates = [TRUE, y, mgr.or(x, y), mgr.iff(x, y)];
        for &a in &candidates {
            assert!(ctx.compatible(mgr, a, a), "reflexive on {a:?}");
            for &b in &candidates {
                assert_eq!(
                    ctx.compatible(mgr, a, b),
                    ctx.compatible(mgr, b, a),
                    "symmetric on {a:?}, {b:?}"
                );
            }
        }
    }

    #[test]
    fn lemma_31_product_stays_compatible_with_factors() {
        let mut cf = cf_of(&["d", "1"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let mgr = cf.manager_mut();
        let x = mgr.var(Var(0));
        let y = mgr.var(Var(1));
        let nx = mgr.not(x);
        let a = mgr.or(y, nx); // χ of (d,1)
        let b = mgr.or(y, x); // χ of (1,d)
        if let Some(c) = ctx.merge(mgr, a, b) {
            assert!(ctx.compatible(mgr, c, a));
            assert!(ctx.compatible(mgr, c, b));
        } else {
            panic!("(d,1) and (1,d) must be compatible");
        }
    }

    #[test]
    fn pairwise_compatibility_does_not_imply_joint() {
        // Three fully-live 2-output columns with allowed sets
        // {00,01}, {00,10}, {01,10}: every pair intersects, the triple is
        // empty — the case Lemma 3.1 does not cover and Algorithm 3.3's
        // incremental validation must catch.
        let mut cf = Cf::from_truth_table(&TruthTable::from_rows(&["dd", "dd"]));
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        let mgr = cf.manager_mut();
        let y1 = mgr.var(Var(1));
        let y2 = mgr.var(Var(2));
        let a = mgr.not(y2); // {00, 10} in (y1,y2) reading
        let b = mgr.not(y1); // {00, 01}
        let c = mgr.xor(y1, y2); // {01, 10}
        assert!(ctx.compatible(mgr, a, b));
        assert!(ctx.compatible(mgr, a, c));
        assert!(ctx.compatible(mgr, b, c));
        let ab = ctx.merge(mgr, a, b).expect("pairwise fine");
        assert!(
            ctx.merge(mgr, ab, c).is_none(),
            "joint intersection is empty; the extension must be rejected"
        );
    }

    #[test]
    fn dont_care_detection_on_paper_example() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        let layout = cf.layout().clone();
        let root = cf.root();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        // The full function has don't cares…
        assert!(ctx.has_dont_care(cf.manager_mut(), &layout, root, 0));
        // …but its DC=0 completion does not.
        let table0 = TruthTable::paper_table1().completed(false);
        let mut cf0 = Cf::from_truth_table(&table0);
        let root0 = cf0.root();
        let ctx0 = CompatCtx::new(cf0.manager_mut(), &layout);
        assert!(!ctx0.has_dont_care(cf0.manager_mut(), &layout, root0, 0));
    }

    #[test]
    fn dont_care_detection_respects_view_level() {
        // One input, one output, fully dc: χ = TRUE.
        let mut cf = cf_of(&["d", "d"]);
        let layout = cf.layout().clone();
        let ctx = CompatCtx::new(cf.manager_mut(), &layout);
        // Viewed from the top (level 0 owner): the output below is free -> dc.
        assert!(ctx.has_dont_care(cf.manager_mut(), &layout, TRUE, 0));
        // Viewed from below the output variable (level 1 owner at the output
        // level; outputs strictly below level 1: none): no dc left.
        assert!(!ctx.has_dont_care(cf.manager_mut(), &layout, TRUE, 1));
    }
}
