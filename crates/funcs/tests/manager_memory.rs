//! Memory pins for managers. After a collection every table is sized for
//! the live arena, not for the largest operation the manager ran: on a
//! 50-word list, the restricts of the Definition-2.4 essential-support test
//! used to leave the compose cache at 131,072 slots after sifting and
//! Algorithm 3.3, on a reduced χ of 3,235 nodes, and every fork cloned from
//! the manager copied it. And a tabulated ISF makes no node outside itself:
//! the bit-vector product it replaced made 734,442 nodes for the 2-digit
//! multiplier's 13,236.

use bddcf_bdd::{BddManager, ReorderCost};
use bddcf_core::{Alg33Options, Cf};
use bddcf_funcs::words::synthetic_words;
use bddcf_funcs::{build_isf_pieces, Benchmark, DecimalMultiplier, RnsConverter, WordList};

/// Asserts that `mgr`'s compose cache is no larger than its live arena
/// calls for: the smallest power of two holding the live nodes, and at
/// least the 256 slots every cache starts with.
fn assert_live_sized(mgr: &BddManager, what: &str) {
    let stats = mgr.engine_stats();
    let live = stats.unique_len.next_power_of_two().max(256);
    assert!(
        stats.compose.capacity <= live,
        "{what}: a {}-slot compose cache for {} live nodes",
        stats.compose.capacity,
        stats.unique_len
    );
}

#[test]
fn reduced_word_list_managers_hold_live_sized_caches() {
    let list = WordList::new(synthetic_words(50, 1), true);
    let mut cf = Cf::build(list.layout(), |mgr, layout| list.build_isf(mgr, layout));
    cf.optimize_order(ReorderCost::SumOfWidths, 2);
    let mut reduced = cf.clone();
    reduced.reduce_alg33(&Alg33Options::default());
    assert_live_sized(reduced.manager(), "Algorithm 3.3");
    for fill in [false, true] {
        let variant = cf.completion_variant(fill);
        assert_live_sized(
            variant.manager(),
            &format!("DC={} completion fork", u8::from(fill)),
        );
    }
}

#[test]
fn tabulated_isfs_leave_no_garbage() {
    let benchmarks: [&dyn Benchmark; 2] =
        [&DecimalMultiplier::new(2), &RnsConverter::rns_5_7_11_13()];
    for benchmark in benchmarks {
        let (mgr, _, isf) = build_isf_pieces(benchmark);
        assert_eq!(
            mgr.arena_len(),
            mgr.node_count_multi(&isf.roots()) + 2,
            "{}: the build left nodes outside the ISF",
            benchmark.name()
        );
    }
}
