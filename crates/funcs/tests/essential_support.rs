//! `IsfBdds::essential_support_of_output` decides Definition 2.1's
//! essential support with a node-free walk over cofactor pairs. It must
//! equal the definition: `x` is essential iff the cofactors are
//! incompatible, `on|ₓ₌₀·off|ₓ₌₁ ∨ on|ₓ₌₁·off|ₓ₌₀ ≠ 0`. The definition is
//! spelled out twice, independently of the library: with restricts and
//! ANDs on the registry's functions, and on the rows of random truth
//! tables.

use bddcf_bdd::{BddManager, Var, FALSE};
use bddcf_core::partition::bipartition;
use bddcf_core::{Cf, CfLayout, IsfBdds};
use bddcf_funcs::{build_isf_pieces, small_benchmarks, table4_benchmarks, Benchmark, WordList};
use bddcf_logic::{Ternary, TruthTable};
use proptest::prelude::*;

/// The definition with restricts and ANDs.
fn by_cofactors(isf: &IsfBdds, mgr: &mut BddManager, j: usize) -> Vec<Var> {
    isf.support_of_output(mgr, j)
        .into_iter()
        .filter(|&x| {
            let on0 = mgr.restrict(isf.on[j], x, false);
            let on1 = mgr.restrict(isf.on[j], x, true);
            let off0 = mgr.restrict(isf.off[j], x, false);
            let off1 = mgr.restrict(isf.off[j], x, true);
            let c01 = mgr.and(on0, off1);
            let c10 = mgr.and(on1, off0);
            c01 != FALSE || c10 != FALSE
        })
        .collect()
}

/// The definition on the rows of `table`: input `x` is essential for
/// output `j` iff flipping it turns some `0` row into a `1` row.
fn by_rows(table: &TruthTable, j: usize) -> Vec<usize> {
    (0..table.num_inputs())
        .filter(|&x| {
            (0..table.num_rows()).any(|r| {
                matches!(
                    (table.get(r, j), table.get(r ^ 1 << x, j)),
                    (Ternary::Zero, Ternary::One)
                )
            })
        })
        .collect()
}

/// Asserts the walk against [`by_cofactors`] on every output of `cf`.
fn assert_walk_matches_cofactors(cf: &mut Cf, what: &str) {
    let isf = cf.isf().clone();
    let mgr = cf.manager_mut();
    for j in 0..isf.num_outputs() {
        let walk = isf.essential_support_of_output(mgr, j);
        assert_eq!(walk, by_cofactors(&isf, mgr, j), "{what}: output {j}");
    }
}

#[test]
fn the_walk_matches_the_cofactors_on_the_registry() {
    let table4 = table4_benchmarks()
        .into_iter()
        .filter(|entry| entry.benchmark.num_inputs() <= 20);
    for entry in small_benchmarks().into_iter().chain(table4) {
        let (mgr, layout, isf) = build_isf_pieces(entry.benchmark.as_ref());
        for (k, mut half) in bipartition(&mgr, &layout, &isf).into_iter().enumerate() {
            let label = format!("{} F{}", entry.label, k + 1);
            assert_walk_matches_cofactors(&mut half, &label);
            for fill in [false, true] {
                let mut variant = half.completion_variant(fill);
                assert_walk_matches_cofactors(
                    &mut variant,
                    &format!("{label} DC={}", u8::from(fill)),
                );
            }
        }
    }
}

/// A completely specified output (`dc = 0`, `off = ¬on`, as in every
/// DC=0/DC=1 completion) has exactly one completion, so its essential
/// support is `support(on)`: the walk must find every variable of `on`.
#[test]
fn completions_take_the_support_fast_path_exactly() {
    for entry in small_benchmarks() {
        let benchmark = entry.benchmark.as_ref();
        let cf = Cf::build(benchmark.layout(), |mgr, layout| {
            benchmark.build_isf(mgr, layout)
        });
        for fill in [false, true] {
            let variant = cf.completion_variant(fill);
            let isf = variant.isf();
            let mgr = variant.manager();
            for j in 0..isf.num_outputs() {
                assert_eq!(isf.dc[j], FALSE, "{}: completions have no DC", entry.label);
                assert_eq!(
                    isf.essential_support_of_output(mgr, j),
                    mgr.support(isf.on[j]),
                    "{} DC={}: output {j}",
                    entry.label,
                    u8::from(fill)
                );
            }
        }
    }
}

/// Deriving the Definition-2.4 constraints builds no node and grows no
/// table.
#[test]
fn sift_constraints_leave_the_manager_as_it_was() {
    // The exact list: no two words of the widened one differ in a single
    // input bit, so it has no constraints to derive.
    let list = WordList::synthetic(12, false);
    let cfs = [
        ("Table 1", Cf::from_truth_table(&TruthTable::paper_table1())),
        (
            "12 words",
            Cf::build(list.layout(), |mgr, layout| list.build_isf(mgr, layout)),
        ),
    ];
    for (label, cf) in cfs {
        let mgr = cf.manager();
        let footprint = || (mgr.arena_len(), mgr.engine_stats().held_bytes);
        let before = footprint();
        assert!(!cf.sift_constraints().pairs().is_empty(), "{label}");
        assert_eq!(footprint(), before, "{label}: (arena, held bytes)");
    }
}

/// A random ISF of `n` inputs and `m` outputs: `digits` below `care` set
/// their row to their low bit, the others leave it don't care.
fn random_table(n: usize, m: usize, care: u8, digits: &[u8]) -> TruthTable {
    let mut table = TruthTable::new(n, m);
    for r in 0..1 << n {
        for j in 0..m {
            let digit = digits[r * m + j];
            let value = match (digit < care, digit & 1) {
                (false, _) => Ternary::DontCare,
                (true, 0) => Ternary::Zero,
                (true, _) => Ternary::One,
            };
            table.set(r, j, value);
        }
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_walk_matches_the_rows_of_random_isfs(
        n in 1usize..7,
        m in 1usize..4,
        care in 0u8..17,
        digits in prop::collection::vec(0u8..16, (1 << 6) * 3),
        keys in prop::collection::vec(any::<u32>(), 6),
    ) {
        let table = random_table(n, m, care, &digits);
        let layout = CfLayout::new(n, m);
        let mut mgr = layout.new_manager();
        // A random input order above the outputs.
        let mut order = layout.input_vars();
        order.sort_by_key(|v| keys[v.0 as usize]);
        order.extend((0..m).map(|j| layout.output_var(j)));
        mgr.set_order(&order);
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        for j in 0..m {
            let walk = isf.essential_support_of_output(&mgr, j);
            prop_assert!(walk.windows(2).all(|w| mgr.level_of(w[0]) < mgr.level_of(w[1])));
            let mut inputs: Vec<usize> = walk.iter().map(|v| v.0 as usize).collect();
            inputs.sort_unstable();
            prop_assert_eq!(inputs, by_rows(&table, j), "output {}", j);
        }
    }
}
