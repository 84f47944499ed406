//! `IsfBdds::essential_support_of_output` answers a completely specified
//! output (`dc = 0`, `off = ¬on`) with `support(on)`. On the DC=0 and DC=1
//! completions of every small-suite benchmark that must equal the general
//! filter of Definition 2.1: `x` is essential iff the cofactors are
//! incompatible, `on|ₓ₌₀·off|ₓ₌₁ ∨ on|ₓ₌₁·off|ₓ₌₀ ≠ 0`.

use bddcf_bdd::{BddManager, Var, FALSE};
use bddcf_core::{Cf, IsfBdds};
use bddcf_funcs::small_benchmarks;

/// The general filter, spelled out independently of the library.
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

#[test]
fn completions_take_the_support_fast_path_exactly() {
    for entry in small_benchmarks() {
        let benchmark = entry.benchmark.as_ref();
        let cf = Cf::build(benchmark.layout(), |mgr, layout| {
            benchmark.build_isf(mgr, layout)
        });
        for fill in [false, true] {
            let mut variant = cf.completion_variant(fill);
            let isf = variant.isf().clone();
            let mgr = variant.manager_mut();
            for j in 0..isf.num_outputs() {
                assert_eq!(isf.dc[j], FALSE, "{}: completions have no DC", entry.label);
                let fast = isf.essential_support_of_output(mgr, j);
                assert_eq!(fast, mgr.support(isf.on[j]), "{}: output {j}", entry.label);
                assert_eq!(
                    fast,
                    by_cofactors(&isf, mgr, j),
                    "{} DC={}: output {j}",
                    entry.label,
                    u8::from(fill)
                );
            }
        }
    }
}
