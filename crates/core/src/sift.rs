//! Variable-order optimization of a [`Cf`] by constrained sifting.
//!
//! The paper optimizes BDD_for_CF orders "by sifting algorithm \[12\], where
//! the sum of the widths is used as the cost function" (§5.1). A
//! BDD_for_CF order is only valid when every output variable `yⱼ` stays
//! below the support variables of `fⱼ` (Definition 2.4); the constraints
//! are derived from the *original* specification's ternary supports, which
//! stays conservative after reductions shrink χ's support.

#![allow(clippy::needless_range_loop)] // row indices mirror truth-table rows in tests
use crate::cf::{Cf, IsfBdds};
use bddcf_bdd::{ReorderCost, SiftConstraints};

impl Cf {
    /// The Definition-2.4 order constraints: each output below the
    /// *essential* support of its function (see
    /// [`IsfBdds::essential_support_of_output`] — inputs that only steer
    /// the don't-care set do not constrain the output's position).
    pub fn sift_constraints(&self) -> SiftConstraints {
        let mut constraints = SiftConstraints::none();
        let layout = self.layout();
        for j in 0..layout.num_outputs() {
            let y = layout.output_var(j);
            for x in self.isf().essential_support_of_output(self.manager(), j) {
                constraints.require_above(x, y);
            }
        }
        constraints
    }

    /// Optimizes the variable order by repeated constrained sifting passes
    /// (at most `max_passes`), keeping χ and the ISF record consistent and,
    /// once a pass has run, collected. Returns the achieved cost.
    pub fn optimize_order(&mut self, cost: ReorderCost, max_passes: usize) -> usize {
        let constraints = self.sift_constraints();
        let mut roots = vec![self.root()];
        roots.extend(self.isf().roots());
        let remapped = self
            .manager_mut_for_sift()
            .sift(&roots, &constraints, cost, max_passes);
        let isf = IsfBdds::from_roots(&remapped[1..], self.layout().num_outputs());
        self.set_state(remapped[0], isf);
        match cost {
            ReorderCost::NodeCount => self.node_count(),
            ReorderCost::SumOfWidths => self.width_profile().sum(),
        }
    }

    // `manager_mut` is documented as "no reordering behind the Cf's back";
    // this private alias marks the one sanctioned exception.
    fn manager_mut_for_sift(&mut self) -> &mut bddcf_bdd::BddManager {
        self.manager_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::TruthTable;

    #[test]
    fn constraints_keep_outputs_below_supports() {
        let cf = Cf::from_truth_table(&TruthTable::paper_table1());
        let constraints = cf.sift_constraints();
        assert!(constraints.check(cf.manager()));
        // Essential supports: f1 on {x1,x2,x3}; f2 on {x2,x3,x4} (its x1
        // terms collapse: x̄1x̄2x3 ∨ x1x̄2x3 = x̄2x3). Three pairs each.
        for j in 0..2 {
            let pairs = constraints
                .pairs()
                .iter()
                .filter(|&&(_, below)| below == cf.layout().output_var(j))
                .count();
            assert_eq!(pairs, 3, "output {j}");
        }
    }

    #[test]
    fn sifting_preserves_semantics_and_constraints() {
        let table = TruthTable::paper_table1();
        let mut cf = Cf::from_truth_table(&table);
        let words_before: Vec<Vec<u64>> = (0..16usize)
            .map(|r| {
                let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
                cf.allowed_words(&input)
            })
            .collect();
        let cost = cf.optimize_order(ReorderCost::SumOfWidths, 2);
        assert!(cost >= 1);
        assert!(cf.sift_constraints().check(cf.manager()));
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            assert_eq!(cf.allowed_words(&input), words_before[r], "row {r}");
        }
    }

    #[test]
    fn sifting_never_worsens_the_chosen_cost() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        let before = cf.width_profile().sum();
        let after = cf.optimize_order(ReorderCost::SumOfWidths, 3);
        assert!(after <= before, "sifting must not increase sum-of-widths");
    }

    #[test]
    fn sifting_collects_once_at_each_end() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        let before = cf.manager().engine_stats().gc_runs;
        cf.optimize_order(ReorderCost::SumOfWidths, 2);
        assert_eq!(cf.manager().engine_stats().gc_runs, before + 2);
    }

    #[test]
    fn node_count_cost_also_supported() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        let before = cf.node_count();
        let after = cf.optimize_order(ReorderCost::NodeCount, 2);
        assert!(after <= before);
        // The ISF record must have survived the remap intact.
        let g = cf.complete();
        assert!(cf.realizes_original(&g));
    }
}
