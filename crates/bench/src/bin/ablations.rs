//! Answers the design questions DESIGN.md lists as ablation candidates,
//! on the paper's own workloads. It prints no timings, so its output is
//! deterministic; CI compares it with `results_ablations.txt`:
//!
//! ```text
//! cargo run --release -p bddcf-bench --bin ablations | diff - results_ablations.txt
//! ```
//!
//! 1. Output partitioning (§5.1): Algorithm 3.3's max width per part of the
//!    5-7-11-13 RNS converter, whole vs halves vs quarters.
//! 2. Sifting cost: the paper's sum of widths vs the node count, one pass
//!    over the 6-digit ternary converter.
//! 3. Algorithm 3.3's cover engine on the RNS first half: the pairwise
//!    graph plus Algorithm 3.2 for every live-set bucket, the default
//!    (pairwise up to 192 columns), and first-fit for every bucket.
//! 4. Cascade segmentation of the RNS first half into 12-input /
//!    10-output cells: greedy vs the minimum-cell DP.
//!
//! EXPERIMENTS.md ("Ablations") discusses the answers.

#![allow(clippy::single_range_in_vec_init)] // the partition API takes lists of ranges
use bddcf_bdd::ReorderCost;
use bddcf_bench::TableWriter;
use bddcf_cascade::{synthesize, CascadeOptions, Segmentation};
use bddcf_core::partition::partition_outputs;
use bddcf_core::{Alg33Options, Cf};
use bddcf_funcs::{build_isf_pieces, RadixConverter, RnsConverter};

fn main() {
    let (mgr, layout, isf) = build_isf_pieces(&RnsConverter::rns_5_7_11_13());
    let m = layout.num_outputs();
    let half = m.div_ceil(2);

    let mut table = TableWriter::new(&["Partition", "parts", "W:Alg3.3 per part"]);
    let quarters = (0..4).map(|q| q * m / 4..(q + 1) * m / 4).collect();
    for (name, parts) in [
        ("whole", vec![0..m]),
        ("halves", vec![0..half, half..m]),
        ("quarters", quarters),
    ] {
        let widths: Vec<String> = partition_outputs(&mgr, &layout, &isf, &parts)
            .into_iter()
            .map(|mut cf| cf.reduce_alg33_default().max_width_after.to_string())
            .collect();
        table.row(&[name.into(), parts.len().to_string(), widths.join(" ")]);
    }
    println!("1. Output partitioning, 5-7-11-13 RNS (no sifting)\n\n{table}");

    let (ternary_mgr, ternary_layout, ternary_isf) = build_isf_pieces(&RadixConverter::new(3, 6));
    let ternary = Cf::from_isf(ternary_mgr, ternary_layout, ternary_isf);
    let mut table = TableWriter::new(&["Sift cost", "max width", "width sum", "nodes"]);
    for (name, cost) in [
        ("sum of widths", ReorderCost::SumOfWidths),
        ("node count", ReorderCost::NodeCount),
    ] {
        let mut cf = ternary.clone();
        cf.optimize_order(cost, 1);
        table.row(&[
            name.into(),
            cf.max_width().to_string(),
            cf.width_profile().sum().to_string(),
            cf.node_count().to_string(),
        ]);
    }
    println!("2. Sifting cost, 6-digit 3-nary to binary, whole function (one pass)\n\n{table}");

    let first_half = partition_outputs(&mgr, &layout, &isf, &[0..half])
        .pop()
        .expect("one part");
    let mut table = TableWriter::new(&["Alg3.3 cover", "max width", "nodes", "merged"]);
    for (name, max_pairwise_group) in [
        ("pairwise graph on every bucket", usize::MAX),
        ("pairwise up to 192 columns (default)", 192),
        ("first-fit on every bucket", 0),
    ] {
        let stats = first_half
            .clone()
            .reduce_alg33(&Alg33Options { max_pairwise_group });
        table.row(&[
            name.into(),
            stats.max_width_after.to_string(),
            stats.nodes_after.to_string(),
            stats.columns_merged.to_string(),
        ]);
    }
    println!("3. Algorithm 3.3 cover engine, 5-7-11-13 RNS F1 (no sifting)\n\n{table}");

    let mut table = TableWriter::new(&["Segmentation", "cells", "memory bits"]);
    for (name, segmentation) in [
        ("greedy", Segmentation::Greedy),
        ("min-cells DP", Segmentation::MinCells),
    ] {
        let options = CascadeOptions {
            segmentation,
            ..CascadeOptions::default()
        };
        let cascade =
            synthesize(&mut first_half.clone(), &options).expect("the RNS half fits 12/10 cells");
        table.row(&[
            name.into(),
            cascade.num_cells().to_string(),
            cascade.memory_bits().to_string(),
        ]);
    }
    println!("4. Segmentation into 12-input / 10-output cells, 5-7-11-13 RNS F1\n\n{table}");
}
