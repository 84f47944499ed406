//! Quality pin for sifting and the reductions after it: a faster sifter
//! or compatibility test must make the same decisions.
//!
//! `optimize_order(SumOfWidths, 2)` on every small-suite benchmark and on
//! two seeded 50-word lists must reach exactly the recorded order and
//! width profile, and the DC=0/DC=1 completions legalized in that order
//! must keep the recorded maximum width and node count. Algorithm 3.1 and
//! Algorithm 3.3 (with the default options, and with first-fit on every
//! live-set bucket) run on forks of the sifted χ and must keep their
//! recorded maximum width, node count and merge count. A speed-up must
//! leave every figure as it is; a change to one is a change of reduction
//! quality and has to be made on purpose.

use bddcf_bdd::ReorderCost;
use bddcf_core::{Alg33Options, Cf};
use bddcf_funcs::words::synthetic_words;
use bddcf_funcs::{small_benchmarks, Benchmark, WordList};

struct Golden {
    label: &'static str,
    /// Variable ids top to bottom after sifting.
    order: &'static [u32],
    /// `width_profile().cuts()` after sifting.
    cuts: &'static [usize],
    /// (max width, nodes) of the DC=0 completion.
    dc0: (usize, usize),
    /// (max width, nodes) of the DC=1 completion.
    dc1: (usize, usize),
    /// (max width, nodes) after Algorithm 3.1.
    alg31: (usize, usize),
    /// (max width, nodes, columns merged) after Algorithm 3.3 with
    /// `Alg33Options::default()`.
    alg33: (usize, usize, usize),
    /// The same after Algorithm 3.3 with `max_pairwise_group: 0`, which
    /// covers every live-set bucket first-fit.
    alg33_first_fit: (usize, usize, usize),
}

const GOLDEN: [Golden; 7] = [
    Golden {
        label: "3-5 RNS",
        order: &[0, 1, 3, 4, 2, 5, 6, 7, 8],
        cuts: &[1, 2, 4, 7, 10, 16, 9, 5, 3, 1],
        dc0: (15, 50),
        dc1: (16, 51),
        alg31: (15, 43),
        alg33: (15, 48, 3),
        alg33_first_fit: (15, 48, 3),
    },
    Golden {
        label: "2-digit 3-nary to binary",
        order: &[1, 0, 3, 2, 5, 6, 4, 7],
        cuts: &[1, 2, 4, 7, 10, 6, 4, 3, 1],
        dc0: (9, 31),
        dc1: (10, 34),
        alg31: (9, 27),
        alg33: (9, 29, 2),
        alg33_first_fit: (9, 29, 2),
    },
    Golden {
        label: "1-digit decimal adder",
        order: &[0, 4, 15, 3, 1, 2, 5, 7, 6, 11, 13, 12, 14, 10, 9, 8],
        cuts: &[1, 2, 3, 3, 6, 8, 8, 15, 15, 11, 6, 4, 3, 2, 2, 2, 1],
        dc0: (25, 119),
        dc1: (25, 127),
        alg31: (15, 62),
        alg33: (11, 67, 12),
        alg33_first_fit: (11, 66, 12),
    },
    Golden {
        label: "1-digit decimal multiplier",
        order: &[3, 2, 1, 0, 4, 5, 6, 7, 10, 9, 11, 15, 13, 12, 14, 8],
        cuts: &[1, 2, 4, 6, 11, 20, 39, 53, 38, 28, 18, 12, 7, 5, 4, 3, 1],
        dc0: (51, 231),
        dc1: (53, 241),
        alg31: (51, 197),
        alg33: (43, 220, 13),
        alg33_first_fit: (43, 220, 13),
    },
    Golden {
        label: "12 words",
        order: &[
            41, 6, 0, 18, 5, 9, 1, 2, 17, 16, 12, 3, 4, 13, 8, 11, 10, 19, 21, 22, 40, 24, 15, 23,
            42, 43, 7, 20, 14, 26, 27, 28, 29, 25, 30, 33, 32, 31, 34, 39, 37, 36, 38, 35,
        ],
        cuts: &[
            1, 2, 4, 8, 11, 13, 13, 15, 15, 17, 17, 19, 21, 21, 21, 25, 24, 24, 22, 22, 21, 20, 20,
            20, 18, 17, 9, 8, 7, 7, 7, 7, 6, 5, 5, 5, 4, 3, 3, 2, 2, 2, 2, 2, 1,
        ],
        dc0: (13, 431),
        dc1: (13, 432),
        alg31: (22, 290),
        alg33: (14, 300, 63),
        alg33_first_fit: (15, 301, 60),
    },
    Golden {
        label: "50 words seed 1",
        order: &[
            40, 35, 39, 41, 43, 32, 14, 0, 4, 13, 10, 11, 12, 2, 8, 7, 5, 1, 9, 6, 17, 15, 3, 18,
            21, 20, 22, 24, 16, 23, 19, 28, 26, 29, 27, 25, 44, 42, 45, 31, 34, 33, 30, 36, 38, 37,
        ],
        cuts: &[
            1, 2, 4, 5, 7, 11, 13, 22, 31, 43, 56, 67, 78, 85, 89, 94, 95, 95, 93, 92, 92, 89, 86,
            86, 82, 81, 76, 72, 66, 58, 52, 45, 43, 38, 35, 28, 19, 15, 12, 5, 4, 4, 3, 2, 2, 2, 1,
        ],
        dc0: (51, 1665),
        dc1: (51, 1668),
        alg31: (71, 1103),
        alg33: (59, 1194, 165),
        alg33_first_fit: (59, 1192, 162),
    },
    Golden {
        label: "50 words seed 2",
        order: &[
            40, 41, 42, 43, 13, 9, 18, 4, 2, 0, 3, 11, 1, 7, 10, 12, 14, 8, 5, 6, 17, 16, 19, 15,
            23, 21, 22, 26, 27, 24, 20, 29, 28, 25, 32, 34, 30, 31, 33, 38, 35, 36, 39, 37, 45, 44,
        ],
        cuts: &[
            1, 2, 4, 8, 16, 27, 40, 48, 59, 64, 75, 83, 90, 92, 93, 95, 93, 88, 87, 87, 84, 82, 76,
            66, 61, 56, 54, 50, 48, 44, 39, 34, 30, 27, 24, 23, 19, 17, 17, 14, 14, 12, 10, 8, 5,
            3, 1,
        ],
        dc0: (51, 1784),
        dc1: (51, 1787),
        alg31: (66, 1146),
        alg33: (62, 1226, 167),
        alg33_first_fit: (62, 1231, 169),
    },
];

fn check(benchmark: &dyn Benchmark, golden: &Golden) {
    let label = golden.label;
    let mut cf = Cf::build(benchmark.layout(), |mgr, layout| {
        benchmark.build_isf(mgr, layout)
    });
    cf.optimize_order(ReorderCost::SumOfWidths, 2);
    let order: Vec<u32> = cf.manager().order().iter().map(|v| v.0).collect();
    assert_eq!(order, golden.order, "{label}: sifted order");
    assert_eq!(
        cf.width_profile().cuts(),
        golden.cuts,
        "{label}: sifted width profile"
    );
    for (fill, expect) in [(false, golden.dc0), (true, golden.dc1)] {
        let variant = cf.completion_variant(fill);
        assert_eq!(
            (variant.max_width(), variant.node_count()),
            expect,
            "{label}: DC={} completion (max width, nodes)",
            u8::from(fill)
        );
    }
    let mut alg31 = cf.clone();
    alg31.reduce_alg31();
    assert_eq!(
        (alg31.max_width(), alg31.node_count()),
        golden.alg31,
        "{label}: Algorithm 3.1 (max width, nodes)"
    );
    let first_fit = Alg33Options {
        max_pairwise_group: 0,
    };
    for (options, expect) in [
        (Alg33Options::default(), golden.alg33),
        (first_fit, golden.alg33_first_fit),
    ] {
        let stats = cf.clone().reduce_alg33(&options);
        assert_eq!(
            (
                stats.max_width_after,
                stats.nodes_after,
                stats.columns_merged
            ),
            expect,
            "{label}: Algorithm 3.3 with max_pairwise_group {} (max width, nodes, columns merged)",
            options.max_pairwise_group
        );
    }
}

#[test]
fn sifting_reaches_the_recorded_orders_and_widths() {
    let suite = small_benchmarks();
    assert_eq!(suite.len(), 5, "one golden entry per small benchmark");
    for (entry, golden) in suite.iter().zip(&GOLDEN) {
        assert_eq!(entry.label, golden.label);
        check(entry.benchmark.as_ref(), golden);
    }
    for (seed, golden) in [1u64, 2].into_iter().zip(&GOLDEN[5..]) {
        let list = WordList::new(synthetic_words(50, seed), true);
        check(&list, golden);
    }
}
