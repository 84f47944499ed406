//! Domain example: functional decomposition with don't cares.
//!
//! Reproduces §3.1's chart story (Tables 2–3: merging compatible columns
//! halves the column multiplicity) and then performs the same kind of
//! decomposition directly on a BDD_for_CF, checking Theorem 3.1's rail
//! count.
//!
//! Run with: `cargo run --example decomposition`

use bddcf::bdd::Var;
use bddcf::core::{Cf, CfLayout, IsfBdds};
use bddcf::decomp::bdd_decomp::{decompose_at, rails_for};
use bddcf::decomp::DecompositionChart;
use bddcf::logic::TruthTable;

fn main() {
    // --- Chart view (Tables 2 and 3) ---------------------------------
    let chart = DecompositionChart::paper_table2();
    println!(
        "Decomposition chart (Table 2): µ = {}",
        chart.multiplicity()
    );
    for c in 0..chart.num_columns() {
        let pattern: String = chart.column(c).iter().map(|v| v.to_string()).collect();
        println!("  Φ{} = {}", c + 1, pattern);
    }
    let (merged, codes) = chart.merge_compatible();
    println!(
        "After merging compatible columns (Table 3): µ = {}, codes {:?}",
        merged.multiplicity(),
        codes
    );
    println!(
        "h-block outputs: {} -> {} (⌈log₂ µ⌉)",
        chart.rails(),
        merged.rails()
    );

    // --- BDD view (Theorem 3.1) ---------------------------------------
    let table = TruthTable::paper_table1();
    let order = [Var(0), Var(1), Var(2), Var(4), Var(3), Var(5)];
    let mut cf = Cf::build_with_order(CfLayout::new(4, 2), &order, |mgr, layout| {
        IsfBdds::from_truth_table(mgr, layout, &table)
    });
    println!(
        "\nBDD_for_CF of Table 1: width profile {:?}",
        cf.width_profile().cuts()
    );
    for k in [1usize, 2, 3] {
        let d = decompose_at(&cf, k);
        println!(
            "cut below {} input level(s): {} columns -> {} rails (Theorem 3.1: ⌈log₂ {}⌉ = {})",
            k,
            d.columns.len(),
            d.rails,
            d.columns.len(),
            rails_for(d.columns.len())
        );
    }

    // Width reduction narrows the cut, hence the wires between the blocks.
    cf.reduce_alg33_default();
    let d = decompose_at(&cf, 3);
    println!(
        "after Algorithm 3.3: cut below 3 levels has {} columns -> {} rails",
        d.columns.len(),
        d.rails
    );

    // The decomposed network still realizes the specification.
    for r in 0..16usize {
        let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
        let word = d.eval(&cf, &input);
        assert!(
            (0..2).all(|j| table.get(r, j).admits(word >> j & 1 == 1)),
            "row {r}"
        );
    }
    println!("Decomposed network g(h(X1), X2) verified on all 16 inputs.");
}
