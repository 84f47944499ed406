//! End-to-end integration: generator → BDD_for_CF → sifting → width
//! reduction → LUT cascade → bit-accurate simulation against the oracle.

#![allow(clippy::single_range_in_vec_init)] // the partition API takes lists of ranges
use bddcf::bdd::ReorderCost;
use bddcf::cascade::{synthesize, synthesize_partitioned, CascadeOptions};
use bddcf::core::partition::bipartition;
use bddcf::core::Cf;
use bddcf::funcs::{build_isf_pieces, Benchmark, DecimalAdder, RadixConverter, RnsConverter};
use bddcf::logic::{MultiOracle, Response};

/// Full pipeline on one benchmark; exhaustive verification over the input
/// space (only for small `n`).
fn pipeline_exhaustive(benchmark: &dyn Benchmark, cells: &CascadeOptions) {
    let n = benchmark.num_inputs();
    assert!(n <= 16, "exhaustive check only for small functions");
    let (mgr, layout, isf) = build_isf_pieces(benchmark);
    let m = layout.num_outputs();
    let half = m.div_ceil(2);
    let parts = if m == 1 {
        vec![0..1]
    } else {
        vec![0..half, half..m]
    };
    let multi = synthesize_partitioned(&mgr, &layout, &isf, &parts, cells, |cf| {
        cf.optimize_order(ReorderCost::SumOfWidths, 1);
        cf.reduce_alg33_default();
    });
    for word in 0..1u64 << n {
        let input: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
        if let Response::Value(expect) = benchmark.respond(&input) {
            assert_eq!(
                multi.eval(&input),
                expect,
                "{} input {word:#x}",
                benchmark.name()
            );
        }
    }
}

#[test]
fn ternary_converter_through_cascade() {
    pipeline_exhaustive(
        &RadixConverter::new(3, 4),
        &CascadeOptions {
            max_cell_inputs: 6,
            max_cell_outputs: 5,
            ..CascadeOptions::default()
        },
    );
}

#[test]
fn five_nary_converter_through_cascade() {
    pipeline_exhaustive(
        &RadixConverter::new(5, 3),
        &CascadeOptions {
            max_cell_inputs: 7,
            max_cell_outputs: 6,
            ..CascadeOptions::default()
        },
    );
}

#[test]
fn small_rns_through_cascade() {
    pipeline_exhaustive(
        &RnsConverter::new(vec![3, 5, 7]),
        &CascadeOptions {
            max_cell_inputs: 7,
            max_cell_outputs: 6,
            ..CascadeOptions::default()
        },
    );
}

#[test]
fn one_digit_adder_through_cascade() {
    pipeline_exhaustive(&DecimalAdder::new(1), &CascadeOptions::default());
}

#[test]
fn two_digit_adder_through_cascade() {
    pipeline_exhaustive(
        &DecimalAdder::new(2),
        &CascadeOptions {
            max_cell_inputs: 9,
            max_cell_outputs: 8,
            ..CascadeOptions::default()
        },
    );
}

#[test]
fn alg31_and_alg33_compose_through_cascade() {
    // Apply both reductions back to back before synthesis.
    let conv = RadixConverter::new(3, 3);
    let (mgr, layout, isf) = build_isf_pieces(&conv);
    let halves = bipartition(&mgr, &layout, &isf);
    let m = layout.num_outputs();
    let half = m.div_ceil(2);
    let ranges = [0..half, half..m];
    let mut cascades = Vec::new();
    for mut cf in halves {
        cf.optimize_order(ReorderCost::SumOfWidths, 2);
        cf.reduce_alg31();
        cf.reduce_support_variables();
        cf.reduce_alg33_default();
        cascades.push(
            synthesize(
                &mut cf,
                &CascadeOptions {
                    max_cell_inputs: 6,
                    max_cell_outputs: 6,
                    ..CascadeOptions::default()
                },
            )
            .expect("small converter fits"),
        );
    }
    for word in 0..1u64 << conv.num_inputs() {
        let input: Vec<bool> = (0..conv.num_inputs()).map(|i| word >> i & 1 == 1).collect();
        if let Response::Value(expect) = conv.respond(&input) {
            let got = cascades[0].eval(&input) | (cascades[1].eval(&input) << ranges[0].len());
            assert_eq!(got, expect, "input {word:#x}");
        }
    }
}

#[test]
fn fixpoint_driver_through_cascade() {
    // Same shape as `pipeline_exhaustive`, but reducing with the full
    // fixpoint driver. With `--features bddcf/check` this test walks the
    // driver's phase-boundary invariant assertions (manager integrity,
    // Definition 2.4, validity, refinement) after every reduction phase.
    for benchmark in [
        Box::new(RadixConverter::new(3, 3)) as Box<dyn Benchmark>,
        Box::new(DecimalAdder::new(1)),
    ] {
        let n = benchmark.num_inputs();
        let (mgr, layout, isf) = build_isf_pieces(benchmark.as_ref());
        let m = layout.num_outputs();
        let half = m.div_ceil(2);
        let parts = [0..half, half..m];
        let cells = CascadeOptions {
            max_cell_inputs: 7,
            max_cell_outputs: 6,
            ..CascadeOptions::default()
        };
        let multi = synthesize_partitioned(&mgr, &layout, &isf, &parts, &cells, |cf| {
            cf.optimize_order(ReorderCost::SumOfWidths, 1);
            cf.reduce_to_fixpoint(3);
        });
        for word in 0..1u64 << n {
            let input: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
            if let Response::Value(expect) = benchmark.respond(&input) {
                assert_eq!(
                    multi.eval(&input),
                    expect,
                    "{} input {word:#x}",
                    benchmark.name()
                );
            }
        }
    }
}

#[test]
fn reductions_only_narrow_the_specification() {
    // On every input (care or don't care), the completed function after
    // reductions must satisfy what the ISF originally allowed.
    let conv = RadixConverter::new(5, 2);
    let (mgr, layout, isf) = build_isf_pieces(&conv);
    let mut cf = Cf::from_isf(mgr, layout, isf);
    cf.optimize_order(ReorderCost::SumOfWidths, 2);
    cf.reduce_alg31();
    cf.reduce_alg33_default();
    let g = cf.complete();
    assert!(cf.realizes_original(&g));
    assert!(cf.is_fully_live());
}
