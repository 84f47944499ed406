//! Cross-crate property tests: random incompletely specified functions are
//! pushed through every reduction and realization path, and the invariants
//! the paper's algorithms rely on are checked on each.

#![allow(clippy::needless_range_loop)] // row indices mirror truth-table rows
use bddcf::cascade::{synthesize, CascadeOptions};
use bddcf::core::Cf;
use bddcf::decomp::bdd_decomp::decompose_at;
use bddcf::logic::{Ternary, TruthTable};
use proptest::prelude::*;

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

fn admitted(table: &TruthTable, r: usize, word: u64) -> bool {
    (0..NUM_OUTPUTS).all(|j| table.get(r, j).admits(word >> j & 1 == 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg31_preserves_realizability(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg31();
        prop_assert!(cf.is_fully_live());
        for r in 0..1usize << NUM_INPUTS {
            let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
            let words = cf.allowed_words(&input);
            prop_assert!(!words.is_empty());
            for w in words {
                prop_assert!(admitted(&table, r, w), "row {} word {:02b}", r, w);
            }
        }
    }

    #[test]
    fn alg33_preserves_realizability(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        let stats = cf.reduce_alg33_default();
        prop_assert!(stats.max_width_after <= stats.max_width_before);
        prop_assert!(cf.is_fully_live());
        for r in 0..1usize << NUM_INPUTS {
            let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
            for w in cf.allowed_words(&input) {
                prop_assert!(admitted(&table, r, w));
            }
        }
    }

    #[test]
    fn support_reduction_preserves_realizability(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        let removed = cf.reduce_support_variables();
        prop_assert!(cf.is_fully_live());
        prop_assert!(cf.support_inputs().len() <= NUM_INPUTS - removed.len());
        let g = cf.complete();
        prop_assert!(cf.realizes_original(&g));
    }

    #[test]
    fn completion_realizes_after_any_reduction_chain(table in arb_table(), which in 0u8..4) {
        let mut cf = Cf::from_truth_table(&table);
        match which {
            0 => { cf.reduce_alg31(); }
            1 => { cf.reduce_alg33_default(); }
            2 => { cf.reduce_support_variables(); }
            _ => {
                cf.reduce_alg31();
                cf.reduce_alg33_default();
                cf.reduce_support_variables();
            }
        }
        let g = cf.complete();
        prop_assert!(cf.realizes_original(&g));
        // The walk evaluator agrees with the specification too.
        for r in 0..1usize << NUM_INPUTS {
            let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
            prop_assert!(admitted(&table, r, cf.eval_completed(&input)));
        }
    }

    #[test]
    fn cascade_agrees_with_walk(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        let cascade = synthesize(&mut cf, &CascadeOptions {
            max_cell_inputs: 4,
            max_cell_outputs: 4,
            ..CascadeOptions::default()
        }).expect("a 4-input function always fits 4-input cells");
        for r in 0..1usize << NUM_INPUTS {
            let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
            let word = cascade.eval(&input);
            prop_assert!(admitted(&table, r, word), "row {} word {:02b}", r, word);
        }
    }

    #[test]
    fn decomposition_matches_walk_at_every_input_cut(table in arb_table()) {
        let cf = Cf::from_truth_table(&table);
        // Default order: all inputs above all outputs — every input cut works.
        for k in 1..NUM_INPUTS {
            let d = decompose_at(&cf, k);
            prop_assert_eq!(d.columns.len(), cf.width_profile().at_cut(k));
            for r in 0..1usize << NUM_INPUTS {
                let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
                prop_assert_eq!(d.eval(&cf, &input), cf.eval_completed(&input));
            }
        }
    }

    #[test]
    fn sifting_preserves_allowed_words(table in arb_table()) {
        let mut cf = Cf::from_truth_table(&table);
        let before: Vec<Vec<u64>> = (0..1usize << NUM_INPUTS)
            .map(|r| {
                let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
                cf.allowed_words(&input)
            })
            .collect();
        cf.optimize_order(bddcf::bdd::ReorderCost::SumOfWidths, 2);
        for r in 0..1usize << NUM_INPUTS {
            let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
            prop_assert_eq!(cf.allowed_words(&input), before[r].clone(), "row {}", r);
        }
    }

    #[test]
    fn dc0_and_dc1_bound_the_isf(table in arb_table()) {
        // The completions are completely specified functions the ISF admits.
        let mut cf = Cf::from_truth_table(&table);
        let t0 = table.completed(false);
        let t1 = table.completed(true);
        for r in 0..1usize << NUM_INPUTS {
            let input: Vec<bool> = (0..NUM_INPUTS).map(|i| r >> i & 1 == 1).collect();
            let words = cf.allowed_words(&input);
            let w0: u64 = (0..NUM_OUTPUTS as u64)
                .filter(|&j| t0.get(r, j as usize) == Ternary::One)
                .map(|j| 1 << j)
                .sum();
            let w1: u64 = (0..NUM_OUTPUTS as u64)
                .filter(|&j| t1.get(r, j as usize) == Ternary::One)
                .map(|j| 1 << j)
                .sum();
            prop_assert!(words.contains(&w0));
            prop_assert!(words.contains(&w1));
        }
    }

    #[test]
    fn emitted_artifacts_round_trip_and_refine_the_spec(table in arb_table()) {
        // The full translation chain on a random ISF: reduce → synthesize
        // → emit Verilog → parse → lower → lint → reconstruct → re-emit
        // byte-identically, and the symbolic χ of the netlist refines the
        // original specification (Layer 5's contract, end to end).
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        let cascade = synthesize(&mut cf, &CascadeOptions {
            max_cell_inputs: 4,
            max_cell_outputs: 4,
            ..CascadeOptions::default()
        }).expect("a 4-input function always fits 4-input cells");

        let text = bddcf::io::cascade_to_verilog(&cascade, "m")
            .expect("`m` is a valid module name");
        let parsed = bddcf::io::parse_verilog(&text)
            .map_err(|e| proptest::TestCaseError(format!("emitted Verilog must parse: {e}")))?;
        let (net, lowering) = bddcf::check::netlist_from_verilog(&parsed, "prop.v");
        prop_assert!(lowering.is_clean(), "{lowering}");
        // A random ISF may keep spec-vacuous inputs wired into ROM
        // addresses; suppress NL007 for exactly those, as `bddcf check` does.
        let live = cf.support_inputs();
        let spec_vacuous: Vec<usize> = (0..NUM_INPUTS).filter(|i| !live.contains(i)).collect();
        let lint = bddcf::check::lint_netlist_with_spec(&net, "prop.v", &spec_vacuous);
        prop_assert!(lint.is_clean(), "{lint}");

        let rebuilt = bddcf::check::netlist_to_cascade(&net, "prop.v")
            .map_err(|r| proptest::TestCaseError(format!("reconstruction failed: {r}")))?;
        let reemitted = bddcf::io::cascade_to_verilog(&rebuilt, "m")
            .expect("`m` is a valid module name");
        prop_assert_eq!(&reemitted, &text, "emit → parse → re-emit must be byte-faithful");

        let refinement = bddcf::check::check_netlist_refinement(&net, &mut cf, "prop.v");
        prop_assert!(refinement.is_clean(), "{refinement}");
    }
}
