//! The bottom-up truth-table build against the minterm construction it
//! replaced: on random tables under random variable orders, with the output
//! variables interleaved among the inputs, `IsfBdds::from_truth_table`
//! must give every ON/OFF/DC set the node `BddManager::from_minterms`
//! gives it, and leave no node outside those sets.

use bddcf_bdd::Var;
use bddcf_core::{CfLayout, IsfBdds};
use bddcf_logic::{Ternary, TruthTable};
use proptest::prelude::*;

/// A random 1–8-input, 1–3-output table (the first `2ⁿ·m` of `digits`)
/// and a random order of all its variables, inputs and outputs alike (the
/// variables sorted by the first `n + m` of `keys`).
fn table_and_order(n: usize, m: usize, digits: &[u8], keys: &[u32]) -> (TruthTable, Vec<Var>) {
    let mut table = TruthTable::new(n, m);
    for (e, &digit) in digits.iter().take((1 << n) * m).enumerate() {
        let v = [Ternary::Zero, Ternary::One, Ternary::DontCare][usize::from(digit)];
        table.set(e / m, e % m, v);
    }
    let mut order: Vec<Var> = (0..(n + m) as u32).map(Var).collect();
    order.sort_by_key(|v| keys[v.0 as usize]);
    (table, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bottom_up_build_equals_per_set_minterms(
        n in 1usize..9,
        m in 1usize..4,
        digits in prop::collection::vec(0u8..3, 256 * 3),
        keys in prop::collection::vec(any::<u32>(), 11),
    ) {
        let (table, order) = table_and_order(n, m, &digits, &keys);
        let layout = CfLayout::new(table.num_inputs(), table.num_outputs());
        let mut mgr = layout.new_manager();
        mgr.set_order(&order);
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        prop_assert_eq!(
            mgr.arena_len(),
            mgr.node_count_multi(&isf.roots()) + 2,
            "the build left nodes outside the ISF"
        );
        let vars = layout.input_vars();
        for j in 0..table.num_outputs() {
            for (value, set) in [
                (Ternary::One, isf.on[j]),
                (Ternary::Zero, isf.off[j]),
                (Ternary::DontCare, isf.dc[j]),
            ] {
                let minterms: Vec<u64> = (0..table.num_rows())
                    .filter(|&r| table.get(r, j) == value)
                    .map(|r| r as u64)
                    .collect();
                prop_assert_eq!(mgr.from_minterms(&vars, &minterms), set, "output {} {:?}", j, value);
            }
        }
    }
}
