//! Cascade synthesis: segmenting a BDD_for_CF into LUT cells.
//!
//! The variable order of the [`Cf`] is scanned top-down and split into
//! consecutive level groups. Group `i` becomes cell `i`: its address is the
//! rail code at the group's top cut plus the primary inputs inside the
//! group; its word is the primary outputs inside the group plus the rail
//! code at the bottom cut. Rail codes enumerate the column functions at the
//! cut — `⌈log₂ W⌉` bits by Theorem 3.1.
//!
//! Cell tables are *materialized* by walking the BDD segment for every
//! (rail code, input combination). At an output-variable node the emitted
//! bit is forced when one edge is constant 0 (the Fig. 1 invariant, see
//! [`Cf::output_nodes_well_formed`](bddcf_core::Cf::output_nodes_well_formed));
//! under interleaved orders both edges can be satisfiable, and the
//! liveness-validated choice map
//! ([`Cf::cascade_output_choices`](bddcf_core::Cf::cascade_output_choices))
//! fixes the edge a cell may hard-wire. Output variables absent from a
//! path are don't cares realized as 0, and table entries whose walk dies
//! are unreachable at run time (hardware don't cares).
//!
//! A cascade therefore computes χ's *fixed-choice* completion. That equals
//! the prefer-0 walk [`Cf::eval_completed`](bddcf_core::Cf::eval_completed)
//! only when no output node has two satisfiable children, as for the
//! functions of [`synthesize`]'s example and of this module's unit tests.
//! Under the decimal adders' interleaved orders the two completions
//! can differ on inputs χ leaves open, and χ admits both words. Check layer 4
//! (`bddcf_check::check_cascade`) compares a cascade with the fixed-choice
//! walk; its test `interleaved_cascade_computes_the_fixed_choice_completion`
//! pins an input where the two differ.

#![allow(clippy::needless_range_loop)] // cut indices mirror the level arithmetic
use crate::cell::LutCell;
use bddcf_bdd::hasher::FastMap;
use bddcf_bdd::{Error as BudgetError, NodeId, FALSE, TRUE};
use bddcf_core::alg33::collect_columns;
use bddcf_core::degrade::{DegradationReport, DegradeAction, Phase};
use bddcf_core::{Cf, ChoiceError, Role};
use bddcf_decomp::bdd_decomp::rails_for;
use std::fmt;

/// How the level range is split into cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Segmentation {
    /// Greedy: every cell takes as many levels as fit. Fast; can be
    /// suboptimal because a shorter cell sometimes enables a cheaper rest.
    Greedy,
    /// Dynamic programming over cut positions: minimizes the cell count,
    /// breaking ties by total memory bits.
    #[default]
    MinCells,
}

/// Cell size constraints. The paper's Table 6 uses cells with at most 12
/// address bits and 10 word bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CascadeOptions {
    /// Maximum cell address bits (incoming rails + primary inputs).
    pub max_cell_inputs: usize,
    /// Maximum cell word bits (outgoing rails + primary outputs).
    pub max_cell_outputs: usize,
    /// Segmentation strategy.
    pub segmentation: Segmentation,
}

impl Default for CascadeOptions {
    fn default() -> Self {
        CascadeOptions {
            max_cell_inputs: 12,
            max_cell_outputs: 10,
            segmentation: Segmentation::MinCells,
        }
    }
}

/// Why a function cannot be realized as a single cascade under the given
/// constraints (the caller should partition the outputs and retry — see
/// [`crate::multi`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// No feasible segment starts at this cut: the incoming rails plus one
    /// more level already violate a constraint.
    NoFeasibleSegment {
        /// The cut level the segmentation was stuck at.
        level: usize,
        /// The rail count entering that cut.
        rails_in: usize,
    },
    /// An output node has two satisfiable children and neither covers the
    /// node's live inputs: no single cell-table entry is valid for every
    /// continuation (see [`Cf::cascade_output_choices`]).
    OutputEntangled,
    /// The manager's installed [`Budget`](bddcf_bdd::Budget) ran out during
    /// the liveness analysis that validates output-edge choices. The `Cf`
    /// is untouched; retry after a GC, with a larger budget, or via
    /// [`synthesize_governed`], which degrades instead of failing.
    Budget(BudgetError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoFeasibleSegment { level, rails_in } => write!(
                f,
                "no feasible cell starting at level {level} with {rails_in} incoming rails"
            ),
            SynthesisError::OutputEntangled => write!(
                f,
                "an output is entangled below its level: no fixed cell choice covers all continuations"
            ),
            SynthesisError::Budget(e) => {
                write!(f, "budget exhausted during cascade synthesis: {e}")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// A synthesized LUT cascade realizing one (partition of a) multiple-output
/// function.
#[derive(Clone, Debug)]
pub struct Cascade {
    cells: Vec<LutCell>,
    num_inputs: usize,
    num_outputs: usize,
}

impl Cascade {
    /// Assembles a cascade from pre-built cells (e.g. loaded from disk),
    /// validating the structural invariants synthesis would have
    /// guaranteed.
    ///
    /// # Errors
    ///
    /// Returns a description when the rail widths of adjacent cells
    /// disagree, the chain does not start/end with zero rails, a primary
    /// id is out of range, or an output is produced more than once.
    // xlint: allow(XL104): `produced[id]` is guarded by the `id >= num_outputs` rejection immediately above
    pub fn from_cells(
        cells: Vec<LutCell>,
        num_inputs: usize,
        num_outputs: usize,
    ) -> Result<Cascade, String> {
        if cells.is_empty() {
            return Err("a cascade needs at least one cell".into());
        }
        let mut rails = 0usize;
        let mut produced = vec![false; num_outputs];
        for (i, cell) in cells.iter().enumerate() {
            if cell.rails_in() != rails {
                return Err(format!(
                    "cell {i} expects {} incoming rails but the chain provides {rails}",
                    cell.rails_in()
                ));
            }
            for &id in cell.input_ids() {
                if id >= num_inputs {
                    return Err(format!("cell {i} reads input {id} (only {num_inputs})"));
                }
            }
            for &id in cell.output_ids() {
                if id >= num_outputs {
                    return Err(format!("cell {i} drives output {id} (only {num_outputs})"));
                }
                if std::mem::replace(&mut produced[id], true) {
                    return Err(format!("output {id} driven by more than one cell"));
                }
            }
            rails = cell.rails_out();
        }
        if rails != 0 {
            return Err(format!("the last cell leaves {rails} dangling rails"));
        }
        if let Some(missing) = produced.iter().position(|&p| !p) {
            return Err(format!("output {missing} driven by no cell"));
        }
        Ok(Cascade {
            cells,
            num_inputs,
            num_outputs,
        })
    }

    /// The cells, head first.
    pub fn cells(&self) -> &[LutCell] {
        &self.cells
    }

    /// This cascade with hardware no-op cells ([`LutCell::is_noop`])
    /// removed. A no-op cell has no incoming rails and no word bits, so
    /// dropping it preserves the realized function and the rail chain;
    /// the Verilog emitter produces exactly this cascade's cell list.
    /// When every cell is a no-op the cascade is returned unchanged (a
    /// cascade must keep at least one cell).
    pub fn without_noop_cells(&self) -> Cascade {
        let live: Vec<LutCell> = self
            .cells
            .iter()
            .filter(|c| !c.is_noop())
            .cloned()
            .collect();
        if live.is_empty() {
            return self.clone();
        }
        Cascade {
            cells: live,
            num_inputs: self.num_inputs,
            num_outputs: self.num_outputs,
        }
    }

    /// Number of cells (`#Cel` in Table 6).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total LUT output bits over all cells (`#LUT` in Table 6).
    pub fn lut_outputs(&self) -> usize {
        self.cells.iter().map(LutCell::num_outputs).sum()
    }

    /// Total memory bits over all cells.
    pub fn memory_bits(&self) -> u64 {
        self.cells.iter().map(LutCell::memory_bits).sum()
    }

    /// Widest rail bundle between adjacent cells.
    pub fn max_rails(&self) -> usize {
        self.cells.iter().map(LutCell::rails_out).max().unwrap_or(0)
    }

    /// Number of primary inputs of the realized function.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs of the realized function.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Simulates the cascade: `input[i]` is primary input `i`; the result
    /// packs primary output `j` into bit `j`.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong arity.
    // xlint: allow(XL104): input arity is asserted on entry; the panic is the documented contract of this debug helper
    pub fn eval(&self, input: &[bool]) -> u64 {
        assert_eq!(input.len(), self.num_inputs, "input arity mismatch");
        let mut rail = 0u64;
        let mut word = 0u64;
        for cell in &self.cells {
            let cell_inputs: Vec<bool> = cell.input_ids().iter().map(|&i| input[i]).collect();
            let (outs, rail_out) = cell.lookup(rail, &cell_inputs);
            for (k, &j) in cell.output_ids().iter().enumerate() {
                if outs >> k & 1 == 1 {
                    word |= 1 << j;
                }
            }
            rail = rail_out;
        }
        word
    }
}

/// Synthesizes `cf` into a single LUT cascade under `options`.
///
/// Returns [`SynthesisError`] when even a one-level cell is infeasible at
/// some cut — partition the outputs then
/// ([`crate::multi::synthesize_partitioned`]).
///
/// # Example
///
/// ```
/// use bddcf_cascade::{synthesize, CascadeOptions};
/// use bddcf_core::Cf;
/// use bddcf_logic::TruthTable;
///
/// let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
/// let cascade = synthesize(&mut cf, &CascadeOptions {
///     max_cell_inputs: 4,
///     max_cell_outputs: 4,
///     ..CascadeOptions::default()
/// }).unwrap();
/// // No output node of this χ has two satisfiable children, so the
/// // cascade's fixed-choice completion is the prefer-0 walk (module docs).
/// let input = [true, false, true, false];
/// assert_eq!(cascade.eval(&input), cf.eval_completed(&input));
/// ```
pub fn synthesize(cf: &mut Cf, options: &CascadeOptions) -> Result<Cascade, SynthesisError> {
    let choices = cf.try_cascade_output_choices().map_err(|e| match e {
        ChoiceError::Entangled(_) => SynthesisError::OutputEntangled,
        ChoiceError::Budget(b) => SynthesisError::Budget(b),
    })?;
    synthesize_with_choices(cf, options, &choices)
}

/// Budget-governed [`synthesize`]: consumes (and extends) the
/// [`DegradationReport`] of the reduction pipeline, so that a partially
/// reduced χ still yields a correct — just wider — cascade.
///
/// The only allocating step of synthesis is the output-choice liveness
/// analysis; everything after it walks the BDD read-only. The ladder on a
/// node-quota miss there is: GC + retry once, then complete the analysis
/// with the budget suspended (it is linear in the output nodes of χ),
/// recording the overrun as
/// [`CompletedUnbudgeted`](DegradeAction::CompletedUnbudgeted). Terminal
/// causes (step/time/cancel, and a manager poisoned by a caught panic —
/// `Error::Poisoned` — which is terminal like a cancellation) are returned
/// as [`SynthesisError::Budget`]; a cancellation must win even here.
pub fn synthesize_governed(
    cf: &mut Cf,
    options: &CascadeOptions,
    report: &mut DegradationReport,
) -> Result<Cascade, SynthesisError> {
    let choices = match cf.try_cascade_output_choices() {
        Ok(choices) => choices,
        Err(ChoiceError::Entangled(_)) => return Err(SynthesisError::OutputEntangled),
        Err(ChoiceError::Budget(cause @ BudgetError::NodeLimit { .. })) => {
            report.record(Phase::CascadeSynthesis, None, DegradeAction::GcRetry, cause);
            cf.collect();
            match cf.try_cascade_output_choices() {
                Ok(choices) => choices,
                Err(ChoiceError::Entangled(_)) => return Err(SynthesisError::OutputEntangled),
                Err(ChoiceError::Budget(cause @ BudgetError::NodeLimit { .. })) => {
                    report.record(
                        Phase::CascadeSynthesis,
                        None,
                        DegradeAction::CompletedUnbudgeted,
                        cause,
                    );
                    match cf.cascade_output_choices() {
                        Ok(choices) => choices,
                        Err(_) => return Err(SynthesisError::OutputEntangled),
                    }
                }
                Err(ChoiceError::Budget(cause)) => return Err(SynthesisError::Budget(cause)),
            }
        }
        Err(ChoiceError::Budget(cause)) => return Err(SynthesisError::Budget(cause)),
    };
    synthesize_with_choices(cf, options, &choices)
}

/// The read-only remainder of synthesis: segmentation and cell
/// materialization, given a validated choice map.
// xlint: allow(XL104): all indices are cut positions in `0..=t` over vectors allocated with length `t + 1` in this function
fn synthesize_with_choices(
    cf: &mut Cf,
    options: &CascadeOptions,
    choices: &FastMap<NodeId, bool>,
) -> Result<Cascade, SynthesisError> {
    let cf = &*cf;
    let layout = cf.layout();
    let mgr = cf.manager();
    let t = layout.num_vars();

    // Rail widths at every cut.
    let mut rails_at = Vec::with_capacity(t + 1);
    let mut columns_cache: Vec<Option<Vec<NodeId>>> = vec![None; t + 1];
    for cut in 0..=t {
        let cols = collect_columns(mgr, cf.root(), cut as u32);
        rails_at.push(rails_for(cols.len().max(1)));
        columns_cache[cut] = Some(cols);
    }

    // Enumerate the feasible segments [s, e) and their memory cost.
    let feasible = |s: usize| -> Vec<(usize, u64)> {
        let mut inputs_in_segment = 0usize;
        let mut outputs_in_segment = 0usize;
        let mut out = Vec::new();
        for e in s + 1..=t {
            match layout.role(mgr.var_at((e - 1) as u32)) {
                Role::Input(_) => inputs_in_segment += 1,
                Role::Output(_) => outputs_in_segment += 1,
            }
            if rails_at[s] + inputs_in_segment > options.max_cell_inputs {
                break; // inputs only grow with e
            }
            let rails_out = if e == t { 0 } else { rails_at[e] };
            if rails_out + outputs_in_segment <= options.max_cell_outputs {
                let address_bits = rails_at[s] + inputs_in_segment;
                let word_bits = (rails_out + outputs_in_segment) as u64;
                out.push((e, (1u64 << address_bits) * word_bits));
            }
        }
        out
    };

    let boundaries = match options.segmentation {
        Segmentation::Greedy => {
            let mut boundaries = vec![0usize];
            let mut s = 0usize;
            while s < t {
                let Some(&(e, _)) = feasible(s).last() else {
                    return Err(SynthesisError::NoFeasibleSegment {
                        level: s,
                        rails_in: rails_at[s],
                    });
                };
                boundaries.push(e);
                s = e;
            }
            boundaries
        }
        Segmentation::MinCells => {
            // dp[s] = (cells, memory) of the best segmentation of s..t.
            const INFEASIBLE: (usize, u64) = (usize::MAX, u64::MAX);
            let mut dp = vec![INFEASIBLE; t + 1];
            let mut next = vec![usize::MAX; t + 1];
            dp[t] = (0, 0);
            for s in (0..t).rev() {
                for (e, cell_memory) in feasible(s) {
                    if dp[e] == INFEASIBLE {
                        continue;
                    }
                    let candidate = (dp[e].0 + 1, dp[e].1 + cell_memory);
                    if candidate < dp[s] {
                        dp[s] = candidate;
                        next[s] = e;
                    }
                }
            }
            if dp[0] == INFEASIBLE {
                // Report the first stuck cut for diagnosis.
                let level = (0..t).find(|&s| feasible(s).is_empty()).unwrap_or(0);
                return Err(SynthesisError::NoFeasibleSegment {
                    level,
                    rails_in: rails_at[level],
                });
            }
            let mut boundaries = vec![0usize];
            let mut s = 0usize;
            while s < t {
                s = next[s];
                boundaries.push(s);
            }
            boundaries
        }
    };

    // Materialize the cells.
    let mut cells = Vec::with_capacity(boundaries.len() - 1);
    for w in boundaries.windows(2) {
        let (s, e) = (w[0], w[1]);
        cells.push(extract_cell(
            cf,
            s,
            e,
            columns_cache[s].as_ref().expect("cached"),
            if e == t {
                &[]
            } else {
                columns_cache[e].as_ref().expect("cached")
            },
            choices,
        ));
    }
    Ok(Cascade {
        cells,
        num_inputs: layout.num_inputs(),
        num_outputs: layout.num_outputs(),
    })
}

// xlint: allow(XL104): indices range over lengths of the column/table vectors computed in the same function
fn extract_cell(
    cf: &Cf,
    s: usize,
    e: usize,
    in_columns: &[NodeId],
    out_columns: &[NodeId],
    choices: &FastMap<NodeId, bool>,
) -> LutCell {
    let mgr = cf.manager();
    let layout = cf.layout();
    let rails_in = rails_for(in_columns.len().max(1));
    let rails_out = rails_for(out_columns.len().max(1));

    // Primary inputs/outputs inside the segment, in level order.
    let mut input_ids = Vec::new();
    let mut output_ids = Vec::new();
    let mut level_to_input_slot: FastMap<u32, usize> = FastMap::default();
    let mut output_slot_of_id: FastMap<usize, usize> = FastMap::default();
    for level in s..e {
        match layout.role(mgr.var_at(level as u32)) {
            Role::Input(i) => {
                level_to_input_slot.insert(level as u32, input_ids.len());
                input_ids.push(i);
            }
            Role::Output(j) => {
                output_slot_of_id.insert(j, output_ids.len());
                output_ids.push(j);
            }
        }
    }
    let out_code_of: FastMap<NodeId, u64> = out_columns
        .iter()
        .enumerate()
        .map(|(c, &n)| (n, c as u64))
        .collect();

    let address_bits = rails_in + input_ids.len();
    let mut table = vec![0u64; 1 << address_bits];
    for code in 0..in_columns.len() as u64 {
        for combo in 0..1u64 << input_ids.len() {
            let mut cur = in_columns[code as usize];
            let mut out_bits = 0u64;
            while cur != FALSE && mgr.level_of_node(cur) < e as u32 {
                let level = mgr.level_of_node(cur);
                match layout.role(mgr.var_of(cur)) {
                    Role::Input(_) => {
                        let slot = level_to_input_slot[&level];
                        cur = if combo >> slot & 1 == 1 {
                            mgr.hi(cur)
                        } else {
                            mgr.lo(cur)
                        };
                    }
                    Role::Output(j) => {
                        let lo = mgr.lo(cur);
                        let hi = mgr.hi(cur);
                        let take_hi = if lo == FALSE {
                            true
                        } else if hi == FALSE {
                            false
                        } else {
                            // Both satisfiable: use the liveness-validated
                            // choice computed up front.
                            choices[&cur]
                        };
                        if take_hi {
                            out_bits |= 1 << output_slot_of_id[&j];
                            cur = hi;
                        } else {
                            cur = lo;
                        }
                    }
                }
            }
            // A dead walk means this (rail, combo) pair can never occur at
            // run time (the rail delivered for a real input is always a
            // column live at that input); the entry is a hardware don't
            // care and stays 0.
            if cur == FALSE {
                continue;
            }
            let out_code = if out_columns.is_empty() {
                debug_assert_eq!(cur, TRUE, "final segment must end in constant 1");
                0
            } else {
                out_code_of[&cur]
            };
            let address = code | (combo << rails_in);
            table[address as usize] = out_bits | (out_code << output_ids.len());
        }
    }
    LutCell::new(rails_in, input_ids, rails_out, output_ids, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_bdd::Var;
    use bddcf_core::{CfLayout, IsfBdds};
    use bddcf_logic::TruthTable;

    fn paper_cf() -> Cf {
        let table = TruthTable::paper_table1();
        Cf::build_with_order(
            CfLayout::new(4, 2),
            &[Var(0), Var(1), Var(2), Var(4), Var(3), Var(5)],
            |mgr, layout| IsfBdds::from_truth_table(mgr, layout, &table),
        )
    }

    fn tiny_cells() -> CascadeOptions {
        CascadeOptions {
            max_cell_inputs: 3,
            max_cell_outputs: 3,
            ..CascadeOptions::default()
        }
    }

    #[test]
    fn cascade_matches_walk_evaluation() {
        let mut cf = paper_cf();
        let cascade = synthesize(&mut cf, &tiny_cells()).expect("paper example fits tiny cells");
        assert!(cascade.num_cells() >= 2, "tiny cells force a real chain");
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            assert_eq!(cascade.eval(&input), cf.eval_completed(&input), "row {r}");
        }
    }

    #[test]
    fn cascade_realizes_spec_after_reduction() {
        let table = TruthTable::paper_table1();
        let mut cf = paper_cf();
        cf.reduce_alg33_default();
        let cascade = synthesize(&mut cf, &tiny_cells()).expect("reduced example fits");
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            let word = cascade.eval(&input);
            assert!(
                (0..2).all(|j| table.get(r, j).admits(word >> j & 1 == 1)),
                "row {r} word {word:02b}"
            );
        }
    }

    #[test]
    fn width_reduction_shrinks_the_cascade() {
        let mut reduced = paper_cf();
        reduced.reduce_alg33_default();
        let plain = synthesize(&mut paper_cf(), &tiny_cells()).unwrap();
        let small = synthesize(&mut reduced, &tiny_cells()).unwrap();
        assert!(small.memory_bits() <= plain.memory_bits());
        assert!(small.max_rails() <= plain.max_rails());
    }

    #[test]
    fn one_big_cell_when_constraints_allow() {
        let mut cf = paper_cf();
        let cascade = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 16,
                max_cell_outputs: 16,
                ..CascadeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(cascade.num_cells(), 1);
        let cell = &cascade.cells()[0];
        assert_eq!(cell.rails_in(), 0);
        assert_eq!(cell.rails_out(), 0);
        assert_eq!(cell.input_ids().len(), 4);
        assert_eq!(cell.output_ids().len(), 2);
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            assert_eq!(cascade.eval(&input), cf.eval_completed(&input));
        }
    }

    #[test]
    fn infeasible_constraints_are_reported() {
        let mut cf = paper_cf(); // max width 8 -> 3 rails somewhere
        let err = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 3,
                max_cell_outputs: 1,
                ..CascadeOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::NoFeasibleSegment { .. }));
        assert!(err.to_string().contains("no feasible cell"));
    }

    #[test]
    fn memory_accounting_sums_cells() {
        let mut cf = paper_cf();
        let cascade = synthesize(&mut cf, &tiny_cells()).unwrap();
        let by_hand: u64 = cascade.cells().iter().map(|c| c.memory_bits()).sum();
        assert_eq!(cascade.memory_bits(), by_hand);
        let outs: usize = cascade.cells().iter().map(|c| c.num_outputs()).sum();
        assert_eq!(cascade.lut_outputs(), outs);
    }

    #[test]
    fn min_cells_never_worse_than_greedy() {
        for (max_in, max_out) in [(3, 3), (4, 4), (6, 4)] {
            let base = CascadeOptions {
                max_cell_inputs: max_in,
                max_cell_outputs: max_out,
                ..CascadeOptions::default()
            };
            let greedy = synthesize(
                &mut paper_cf(),
                &CascadeOptions {
                    segmentation: Segmentation::Greedy,
                    ..base
                },
            );
            let dp = synthesize(
                &mut paper_cf(),
                &CascadeOptions {
                    segmentation: Segmentation::MinCells,
                    ..base
                },
            );
            match (greedy, dp) {
                (Ok(g), Ok(d)) => {
                    assert!(d.num_cells() <= g.num_cells(), "cells ({max_in},{max_out})");
                    // Both must still realize the function identically.
                    let cf = paper_cf();
                    for r in 0..16usize {
                        let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
                        assert_eq!(g.eval(&input), cf.eval_completed(&input));
                        assert_eq!(d.eval(&input), cf.eval_completed(&input));
                    }
                }
                (Err(_), Err(_)) => {} // both infeasible is consistent
                (Ok(_), Err(e)) => panic!("DP failed where greedy succeeded: {e}"),
                (Err(_), Ok(_)) => {} // DP may succeed where greedy gets stuck
            }
        }
    }

    #[test]
    fn every_primary_signal_appears_exactly_once() {
        let mut cf = paper_cf();
        let cascade = synthesize(&mut cf, &tiny_cells()).unwrap();
        let mut inputs: Vec<usize> = cascade
            .cells()
            .iter()
            .flat_map(|c| c.input_ids().to_vec())
            .collect();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![0, 1, 2, 3]);
        let mut outputs: Vec<usize> = cascade
            .cells()
            .iter()
            .flat_map(|c| c.output_ids().to_vec())
            .collect();
        outputs.sort_unstable();
        assert_eq!(outputs, vec![0, 1]);
    }
}
