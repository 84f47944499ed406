//! Layer 4: LUT-cascade lints.
//!
//! Structural: walking the cells head to tail, each cell boundary
//! corresponds to a cut of the `BDD_for_CF` the cascade was extracted from
//! (a cell spanning levels `[s, e)` consumes `num_inputs + num_outputs`
//! variables). At each boundary the rail bundle must carry exactly
//! `⌈log₂ W⌉` wires, where `W` is the number of distinct non-zero columns
//! at that cut — Theorem 3.1. The column count is recomputed here from the
//! BDD, independently of the synthesizer's cached values.
//!
//! Semantic: the cell tables, chained through the rails, must agree with
//! the completion of χ the cascade is built to compute on every sampled
//! input, and the full output word must be admitted by the specification
//! oracle. That completion is the *fixed-choice* walk: at an output node
//! with two satisfiable children it takes the edge
//! [`Cf::cascade_output_choices`] hard-wires, which covers the node's
//! whole live set. The prefer-0 walk ([`Cf::eval_completed`]) is another
//! completion: it backtracks per input, so under the decimal adders'
//! interleaved orders it takes a 0-edge that is satisfiable on the sampled
//! input where the cell takes the 1-edge, and both words are admitted.

use crate::{CheckReport, Layer};
use bddcf_bdd::hasher::FastMap;
use bddcf_bdd::{splitmix64, NodeId, FALSE, TRUE};
use bddcf_cascade::Cascade;
use bddcf_core::{Cf, Role};
use bddcf_decomp::bdd_decomp::rails_for;
use bddcf_logic::MultiOracle;
use std::collections::HashSet;

/// Checks one cascade against the (reduced) `Cf` it was synthesized from:
/// Theorem-3.1 rail counts at every cell boundary and sampled agreement
/// with the fixed-choice completion of χ (see the module docs).
pub fn check_cascade(cascade: &Cascade, cf: &mut Cf, samples: u64) -> CheckReport {
    let mut report = CheckReport::new();
    rail_counts(cascade, cf, &mut report);
    sampled_agreement(cascade, cf, samples, &mut report);
    report
}

/// Checks a cascade's sampled behaviour directly against a specification
/// oracle: on every sampled input, the word the cascade computes must be
/// admitted (specified rows must match exactly; don't-care rows admit
/// anything).
///
/// The oracle must have the all-or-nothing don't-care structure of the
/// paper's benchmark generators (a row is either fully specified or fully
/// don't care). `TruthTable`'s pointwise oracle resolves partial don't
/// cares to 0 and would report false positives here — use
/// [`check_cascade`] against the `Cf` for per-output don't-care handling.
pub fn check_cascade_against_oracle(
    cascade: &Cascade,
    oracle: &dyn MultiOracle,
    samples: u64,
) -> CheckReport {
    let mut report = CheckReport::new();
    let n = cascade.num_inputs();
    assert_eq!(n, oracle.num_inputs(), "oracle arity mismatch");
    let mut rng: u64 = 0x5eed_cafe;
    for _ in 0..samples {
        let input = random_input(&mut rng, n);
        let word = cascade.eval(&input);
        if !oracle.respond(&input).admits(word, oracle.num_outputs()) {
            report.push(
                Layer::Cascade,
                format!(
                    "cascade output {word:#b} is rejected by the specification \
                     oracle on input {input:?}"
                ),
            );
            break; // one counterexample is enough
        }
    }
    report
}

/// Sampled check of a partitioned realization against the specification
/// oracle: the reassembled full output word must be admitted on every
/// sampled input.
pub fn check_multi_cascade_against_oracle(
    multi: &bddcf_cascade::MultiCascade,
    oracle: &dyn MultiOracle,
    samples: u64,
) -> CheckReport {
    let mut report = CheckReport::new();
    let n = oracle.num_inputs();
    let mut rng: u64 = 0x0dd_ba11;
    for _ in 0..samples {
        let input = random_input(&mut rng, n);
        let word = multi.eval(&input);
        if !oracle.respond(&input).admits(word, oracle.num_outputs()) {
            report.push(
                Layer::Cascade,
                format!(
                    "partitioned cascade output {word:#b} is rejected by the \
                     specification oracle on input {input:?}"
                ),
            );
            break; // one counterexample is enough
        }
    }
    report
}

/// Theorem 3.1 at every cell boundary: rails = `⌈log₂ W⌉`.
fn rail_counts(cascade: &Cascade, cf: &Cf, report: &mut CheckReport) {
    let t = cf.layout().num_vars();
    let mut cut = 0usize;
    for (i, cell) in cascade.cells().iter().enumerate() {
        let width = columns_below(cf, cut as u32).max(1);
        let expected = rails_for(width);
        if cell.rails_in() != expected {
            report.push(
                Layer::Cascade,
                format!(
                    "cell {i} has {} incoming rails but the BDD_for_CF has \
                     {width} columns at cut {cut} (Theorem 3.1 wants {expected})",
                    cell.rails_in()
                ),
            );
        }
        // A cell spanning levels [s, e) consumes exactly the primary
        // inputs/outputs placed in that range; its rail bits are not
        // variable levels (num_inputs()/num_outputs() include rails).
        cut += cell.input_ids().len() + cell.output_ids().len();
    }
    if cut != t {
        report.push(
            Layer::Cascade,
            format!("cells cover {cut} variable levels but the layout has {t}"),
        );
    }
    if let Some(last) = cascade.cells().last() {
        if last.rails_out() != 0 {
            report.push(
                Layer::Cascade,
                format!("last cell leaves {} dangling rails", last.rails_out()),
            );
        }
    }
}

/// Distinct non-zero nodes hanging below `cut` — the rail alphabet,
/// recomputed from the BDD independently of the synthesizer.
fn columns_below(cf: &Cf, cut: u32) -> usize {
    let mgr = cf.manager();
    let root = cf.root();
    let mut set: HashSet<bddcf_bdd::NodeId> = HashSet::new();
    if root != bddcf_bdd::FALSE && mgr.level_of_node(root) >= cut {
        set.insert(root);
    }
    for n in mgr.descendants(&[root]) {
        if mgr.level_of_node(n) >= cut {
            continue; // edges out of n start at or below the cut
        }
        for child in [mgr.lo(n), mgr.hi(n)] {
            if child != bddcf_bdd::FALSE && mgr.level_of_node(child) >= cut {
                set.insert(child);
            }
        }
    }
    set.len()
}

/// The hardware model must compute exactly the BDD walk's completion.
fn sampled_agreement(cascade: &Cascade, cf: &mut Cf, samples: u64, report: &mut CheckReport) {
    let choices = match cf.cascade_output_choices() {
        Ok(choices) => choices,
        Err(node) => {
            report.push(
                Layer::Cascade,
                format!("output node {node:?} of χ has no edge a cell can hard-wire"),
            );
            return;
        }
    };
    let n = cascade.num_inputs();
    let mut rng: u64 = 0xb0a7_1e55;
    for _ in 0..samples {
        let input = random_input(&mut rng, n);
        let hardware = cascade.eval(&input);
        let Some(software) = fixed_choice_walk(cf, &choices, &input) else {
            report.push(
                Layer::Cascade,
                format!("the fixed-choice walk of χ dies on input {input:?}"),
            );
            break;
        };
        if hardware != software {
            report.push(
                Layer::Cascade,
                format!(
                    "cell tables disagree with χ's completion on input {input:?}: \
                     cascade {hardware:#b}, BDD walk {software:#b}"
                ),
            );
            break; // one counterexample is enough
        }
    }
}

/// The output word of χ's fixed-choice completion on `input`: the walk
/// takes the only satisfiable edge at an output node with a constant-0
/// child and the edge in `choices` at the others. `None` if it reaches 0.
fn fixed_choice_walk(cf: &Cf, choices: &FastMap<NodeId, bool>, input: &[bool]) -> Option<u64> {
    let mgr = cf.manager();
    let mut cur = cf.root();
    let mut word = 0u64;
    while cur != TRUE {
        if cur == FALSE {
            return None;
        }
        let take_hi = match cf.layout().role(mgr.var_of(cur)) {
            Role::Input(i) => input[i],
            Role::Output(j) => {
                let take_hi = mgr.lo(cur) == FALSE
                    || (mgr.hi(cur) != FALSE && choices.get(&cur) == Some(&true));
                word |= u64::from(take_hi) << j;
                take_hi
            }
        };
        cur = if take_hi { mgr.hi(cur) } else { mgr.lo(cur) };
    }
    Some(word)
}

/// The next draw of the splitmix64 stream whose state is `state`.
fn draw(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    out
}

/// `n` sampled input bits, one draw each.
fn random_input(state: &mut u64, n: usize) -> Vec<bool> {
    (0..n).map(|_| draw(state) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_bdd::Var;
    use bddcf_cascade::{synthesize, CascadeOptions};
    use bddcf_core::{CfLayout, IsfBdds};
    use bddcf_logic::TruthTable;

    fn synthesized_paper_example() -> (Cascade, Cf, TruthTable) {
        let table = TruthTable::paper_table1();
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        let cascade = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
        )
        .expect("paper example fits one cascade");
        (cascade, cf, table)
    }

    #[test]
    fn paper_cascade_is_clean() {
        let (cascade, mut cf, table) = synthesized_paper_example();
        let report = check_cascade(&cascade, &mut cf, 64);
        assert!(report.is_clean(), "{report}");
        // Per-output admission against the (partially specified) table.
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            let word = cascade.eval(&input);
            for j in 0..2 {
                assert!(
                    table.get(r, j).admits(word >> j & 1 == 1),
                    "row {r} output {j}"
                );
            }
        }
    }

    #[test]
    fn fully_specified_oracle_check_is_clean() {
        // On a completely specified function every completion is the
        // function itself, so the all-or-nothing oracle check applies.
        let table = TruthTable::paper_table1().completed(false);
        let mut cf = Cf::from_truth_table(&table);
        let cascade = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
        )
        .expect("completed paper example fits one cascade");
        let report = check_cascade_against_oracle(&cascade, &table, 64);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn interleaved_cascade_computes_the_fixed_choice_completion() {
        // One digit pair of the decimal adders: A = x1 + 2·x2 and
        // B = x3 + 2·x4, code 3 invalid (every output don't care). y1 =
        // "A has code 2" sits above x3/x4, which steer only its don't
        // cares. On A = 2, B = 3 the prefer-0 walk takes y1's satisfiable
        // 0-edge, while the cell hard-wires the 1-edge, which covers the
        // node's live set; χ admits both words.
        let order = [Var(0), Var(1), Var(4), Var(2), Var(3), Var(5)];
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
            IsfBdds::from_on_dc(mgr, on, vec![invalid, invalid])
        });
        let cascade = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
        )
        .expect("one digit pair fits one cascade");
        let input = [false, true, true, true];
        assert_eq!(cascade.eval(&input) & 1, 1);
        assert_eq!(cf.eval_completed(&input) & 1, 0);
        let report = check_cascade(&cascade, &mut cf, 64);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn mismatched_cf_is_flagged() {
        // Check the cascade against a *different* function: the sampled
        // semantic layer must notice.
        let (cascade, _, _) = synthesized_paper_example();
        let other = TruthTable::paper_table1().completed(true);
        let mut other_cf = Cf::from_truth_table(&other);
        let report = check_cascade(&cascade, &mut other_cf, 256);
        assert!(
            !report.is_clean(),
            "cascade for the DC=1 completion must differ somewhere"
        );
    }

    #[test]
    fn sampling_streams_are_pinned() {
        // First draws of the three sampling seeds on the stream
        // `out = splitmix64(x); x += γ` from `x = seed`. Changing the
        // stream would change every sampled input of the checks above.
        for (seed, expected) in [
            (0xb0a7_1e55, [0x1361_5584_2d25_ad72, 0x441e_35b6_6809_7f0b]),
            (0x5eed_cafe, [0x432b_1bed_2636_3815, 0xb034_68e8_1b67_16be]),
            (0x0dd_ba11, [0x7473_b6b5_be5e_b057, 0x854a_fa3c_7009_e126]),
        ] {
            let mut state: u64 = seed;
            let drawn = [draw(&mut state), draw(&mut state)];
            assert_eq!(drawn, expected, "seed {seed:#x}");
        }
    }
}
