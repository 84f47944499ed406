//! Property tests: every reduction path of the paper, applied to random
//! incompletely specified functions, must satisfy the refinement oracle
//! (`χ' ⇒ χ`, width recount) and the `BDD_for_CF` lints (Definition 2.4
//! ordering, ON/OFF/DC partition, validity).

use bddcf_check::{check_cf, check_manager, check_refinement, naive_width_profile};
use bddcf_core::Cf;
use bddcf_logic::{Ternary, TruthTable};
use proptest::prelude::*;
use proptest::TestCaseError;

const NUM_INPUTS: usize = 4;
const NUM_OUTPUTS: usize = 2;

/// Strategy: a random 4-input 2-output ISF as a vector of ternary digits.
fn arb_table() -> impl Strategy<Value = TruthTable> {
    prop::collection::vec(0u8..3, (1 << NUM_INPUTS) * NUM_OUTPUTS).prop_map(|digits| {
        let mut t = TruthTable::new(NUM_INPUTS, NUM_OUTPUTS);
        for r in 0..1 << NUM_INPUTS {
            for j in 0..NUM_OUTPUTS {
                let v = match digits[r * NUM_OUTPUTS + j] {
                    0 => Ternary::Zero,
                    1 => Ternary::One,
                    _ => Ternary::DontCare,
                };
                t.set(r, j, v);
            }
        }
        t
    })
}

/// All layers that apply to a reduced `Cf` at once.
fn assert_reduced_cf_is_sound(cf: &mut Cf) -> Result<(), TestCaseError> {
    let manager_report = check_manager(cf.manager());
    prop_assert!(manager_report.is_clean(), "{manager_report}");
    let cf_report = check_cf(cf);
    prop_assert!(cf_report.is_clean(), "{cf_report}");
    let refinement_report = check_refinement(cf);
    prop_assert!(refinement_report.is_clean(), "{refinement_report}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn alg31_output_passes_refinement_oracle(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg31();
        assert_reduced_cf_is_sound(&mut cf)?;
    }

    #[test]
    fn alg33_output_passes_refinement_oracle(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        assert_reduced_cf_is_sound(&mut cf)?;
    }

    #[test]
    fn support_reduction_passes_refinement_oracle(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_support_variables();
        assert_reduced_cf_is_sound(&mut cf)?;
    }

    #[test]
    fn fixpoint_driver_passes_refinement_oracle(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_to_fixpoint(4);
        assert_reduced_cf_is_sound(&mut cf)?;
    }

    #[test]
    fn width_recount_matches_incremental_profile(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        let reported = cf.width_profile().cuts().to_vec();
        let recount = naive_width_profile(cf.manager(), &[cf.root()]);
        prop_assert_eq!(reported, recount);
    }
}
