//! Output-partitioned cascade realizations.
//!
//! When a function's BDD_for_CF is too wide for one cascade (more rails
//! than the cell constraints allow), the outputs are partitioned and each
//! group gets its own cascade — the paper's §5.1 uses a bi-partition
//! throughout Table 4, and Table 6's `DC=0` word lists need as many as 12
//! cascades. This module starts from the requested partition and keeps
//! bisecting any group that fails to synthesize.

#![allow(clippy::single_range_in_vec_init)] // the API genuinely takes lists of ranges
use crate::synth::{synthesize, Cascade, CascadeOptions};
use bddcf_bdd::BddManager;
use bddcf_core::partition::partition_outputs;
use bddcf_core::{Cf, CfLayout, IsfBdds};
use std::ops::Range;

/// A set of cascades jointly realizing a multiple-output function.
#[derive(Debug)]
pub struct MultiCascade {
    /// The cascades, one per final output group.
    pub cascades: Vec<Cascade>,
    /// The output range (in the original numbering) each cascade produces.
    pub ranges: Vec<Range<usize>>,
    /// The reduced `Cf` each cascade was synthesized from (kept for
    /// inspection: widths, node counts, removed variables).
    pub parts: Vec<Cf>,
}

impl MultiCascade {
    /// Number of cascades (`#Cas` in Table 6).
    pub fn num_cascades(&self) -> usize {
        self.cascades.len()
    }

    /// Total cells over all cascades (`#Cel`).
    pub fn num_cells(&self) -> usize {
        self.cascades.iter().map(Cascade::num_cells).sum()
    }

    /// Total LUT output bits over all cascades (`#LUT`).
    pub fn lut_outputs(&self) -> usize {
        self.cascades.iter().map(Cascade::lut_outputs).sum()
    }

    /// Total LUT memory bits over all cascades.
    pub fn memory_bits(&self) -> u64 {
        self.cascades.iter().map(Cascade::memory_bits).sum()
    }

    /// Evaluates all cascades and reassembles the full output word in the
    /// original output numbering.
    pub fn eval(&self, input: &[bool]) -> u64 {
        let mut word = 0u64;
        for (cascade, range) in self.cascades.iter().zip(&self.ranges) {
            let part = cascade.eval(input);
            word |= part << range.start;
        }
        word
    }
}

/// Fallible variant of [`synthesize_partitioned`]: returns the offending
/// single-output range and error instead of panicking, so callers can
/// retry with relaxed cell constraints.
///
/// # Errors
///
/// The first single-output group that cannot be synthesized under
/// `options`, with the [`SynthesisError`](crate::SynthesisError) that
/// stopped it.
pub fn try_synthesize_partitioned(
    mgr: &BddManager,
    layout: &CfLayout,
    isf: &IsfBdds,
    initial_parts: &[Range<usize>],
    options: &CascadeOptions,
    mut prepare: impl FnMut(&mut Cf),
) -> Result<MultiCascade, (Range<usize>, crate::SynthesisError)> {
    let mut queue: Vec<Range<usize>> = initial_parts.to_vec();
    let mut done: Vec<(Range<usize>, Cf, Cascade)> = Vec::new();
    while let Some(range) = queue.pop() {
        let mut part = partition_outputs(mgr, layout, isf, std::slice::from_ref(&range))
            .pop()
            .expect("one range in, one part out");
        prepare(&mut part);
        match synthesize(&mut part, options) {
            Ok(cascade) => done.push((range, part, cascade)),
            Err(err) => {
                if range.len() == 1 {
                    return Err((range, err));
                }
                let mid = range.start + range.len().div_ceil(2);
                queue.push(range.start..mid);
                queue.push(mid..range.end);
            }
        }
    }
    done.sort_by_key(|(range, _, _)| range.start);
    Ok(assemble(done))
}

/// Synthesizes a partitioned realization.
///
/// `prepare` is run on each group's [`Cf`] before synthesis — this is where
/// the width reductions go (sifting, Algorithm 3.1/3.3, support-variable
/// removal), exactly like the paper prepares each output half separately.
/// Groups that still fail to synthesize are bisected and re-prepared until
/// every group fits (a single output that does not fit is a hard error —
/// use [`try_synthesize_partitioned`] to recover instead).
///
/// # Panics
///
/// Panics if a single-output group cannot be synthesized under `options`.
pub fn synthesize_partitioned(
    mgr: &BddManager,
    layout: &CfLayout,
    isf: &IsfBdds,
    initial_parts: &[Range<usize>],
    options: &CascadeOptions,
    prepare: impl FnMut(&mut Cf),
) -> MultiCascade {
    match try_synthesize_partitioned(mgr, layout, isf, initial_parts, options, prepare) {
        Ok(multi) => multi,
        Err((range, err)) => panic!(
            "output {} cannot be realized under the cell constraints: {err}",
            range.start
        ),
    }
}

fn assemble(done: Vec<(Range<usize>, Cf, Cascade)>) -> MultiCascade {
    let mut cascades = Vec::with_capacity(done.len());
    let mut ranges = Vec::with_capacity(done.len());
    let mut parts = Vec::with_capacity(done.len());
    for (range, part, cascade) in done {
        ranges.push(range);
        parts.push(part);
        cascades.push(cascade);
    }
    MultiCascade {
        cascades,
        ranges,
        parts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::{MultiOracle, TruthTable};

    fn paper_pieces() -> (BddManager, CfLayout, IsfBdds, TruthTable) {
        let table = TruthTable::paper_table1();
        let layout = CfLayout::new(4, 2);
        let mut mgr = layout.new_manager();
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        (mgr, layout, isf, table)
    }

    #[test]
    fn bi_partition_synthesizes_and_evaluates() {
        let (mgr, layout, isf, table) = paper_pieces();
        let multi = synthesize_partitioned(
            &mgr,
            &layout,
            &isf,
            &[0..1, 1..2],
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
            |cf| {
                cf.reduce_alg33_default();
            },
        );
        assert_eq!(multi.num_cascades(), 2);
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            let word = multi.eval(&input);
            assert!(
                table.respond(&input).admits(word, 2)
                    || (0..2).all(|j| table.get(r, j).admits(word >> j & 1 == 1)),
                "row {r} word {word:02b}"
            );
        }
    }

    #[test]
    fn over_tight_constraints_force_splitting() {
        let (mgr, layout, isf, _) = paper_pieces();
        // max_cell_outputs = 1 cannot host 2 outputs in one group if they
        // ever share a cell — force a start from the whole range and check
        // the splitter makes progress (2 single-output cascades at worst).
        let multi = synthesize_partitioned(
            &mgr,
            &layout,
            &isf,
            &[0..2],
            &CascadeOptions {
                max_cell_inputs: 6,
                max_cell_outputs: 1,
                ..CascadeOptions::default()
            },
            |_| {},
        );
        assert!(multi.num_cascades() >= 1);
        let total_outputs: usize = multi.ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total_outputs, 2);
    }

    #[test]
    fn accounting_sums_over_cascades() {
        let (mgr, layout, isf, _) = paper_pieces();
        let multi = synthesize_partitioned(
            &mgr,
            &layout,
            &isf,
            &[0..1, 1..2],
            &CascadeOptions::default(),
            |_| {},
        );
        let cells: usize = multi.cascades.iter().map(Cascade::num_cells).sum();
        assert_eq!(multi.num_cells(), cells);
        assert!(multi.memory_bits() > 0);
        assert!(multi.lut_outputs() >= 2);
    }

    #[test]
    fn parts_expose_reduced_cfs() {
        let (mgr, layout, isf, _) = paper_pieces();
        let multi = synthesize_partitioned(
            &mgr,
            &layout,
            &isf,
            &[0..1, 1..2],
            &CascadeOptions::default(),
            |cf| {
                cf.reduce_alg31();
            },
        );
        assert_eq!(multi.parts.len(), 2);
        for part in &multi.parts {
            assert!(part.output_nodes_well_formed());
        }
    }
}
