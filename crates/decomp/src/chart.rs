//! Explicit decomposition charts for single-output incompletely specified
//! functions (Definition 3.6) and compatible-column merging (Example 3.4).

#![allow(clippy::needless_range_loop)] // row indices mirror the chart coordinates
use bddcf_core::cover::CompatGraph;
use bddcf_logic::{Ternary, TruthTable};

/// A decomposition chart: columns indexed by the bound-set (`X₁`)
/// assignment, rows by the free-set (`X₂`) assignment, entries ternary.
///
/// # Example
///
/// ```
/// use bddcf_decomp::DecompositionChart;
///
/// let chart = DecompositionChart::paper_table2();
/// assert_eq!(chart.multiplicity(), 4); // Example 3.3
/// let (merged, _codes) = chart.merge_compatible();
/// assert_eq!(merged.multiplicity(), 2); // Example 3.4
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecompositionChart {
    bound: Vec<usize>,
    free: Vec<usize>,
    /// `cols[c][r]` = value at column `c`, row `r`.
    cols: Vec<Vec<Ternary>>,
}

impl DecompositionChart {
    /// Builds the chart of output `output` of `table` for the bound set
    /// `bound` (input indices); the free set is every other input, in
    /// increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is empty, covers all inputs, repeats an index, or
    /// is out of range.
    pub fn from_table(table: &TruthTable, output: usize, bound: &[usize]) -> Self {
        let n = table.num_inputs();
        assert!(!bound.is_empty(), "bound set must be non-empty");
        assert!(bound.len() < n, "free set must be non-empty");
        let mut seen = vec![false; n];
        for &b in bound {
            assert!(b < n, "bound input {b} out of range");
            assert!(
                !std::mem::replace(&mut seen[b], true),
                "duplicate bound input {b}"
            );
        }
        let free: Vec<usize> = (0..n).filter(|i| !seen[*i]).collect();
        let mut cols = vec![vec![Ternary::DontCare; 1 << free.len()]; 1 << bound.len()];
        for (c, col) in cols.iter_mut().enumerate() {
            for (r, entry) in col.iter_mut().enumerate() {
                let mut row_index = 0usize;
                for (k, &i) in bound.iter().enumerate() {
                    if c >> k & 1 == 1 {
                        row_index |= 1 << i;
                    }
                }
                for (k, &i) in free.iter().enumerate() {
                    if r >> k & 1 == 1 {
                        row_index |= 1 << i;
                    }
                }
                *entry = table.get(row_index, output);
            }
        }
        DecompositionChart {
            bound: bound.to_vec(),
            free,
            cols,
        }
    }

    /// Builds a chart directly from its columns (each column is the vector
    /// of values down the rows). For tests and worked examples.
    ///
    /// # Panics
    ///
    /// Panics unless there are `2^|X₁|` columns of equal power-of-two
    /// length.
    pub fn from_columns(columns: Vec<Vec<Ternary>>) -> Self {
        assert!(columns.len().is_power_of_two(), "need 2^|X1| columns");
        let rows = columns[0].len();
        assert!(rows.is_power_of_two(), "need 2^|X2| rows");
        assert!(columns.iter().all(|c| c.len() == rows), "ragged columns");
        let nb = columns.len().trailing_zeros() as usize;
        let nf = rows.trailing_zeros() as usize;
        DecompositionChart {
            bound: (0..nb).collect(),
            free: (nb..nb + nf).collect(),
            cols: columns,
        }
    }

    /// Bound-set input indices (column labels).
    pub fn bound(&self) -> &[usize] {
        &self.bound
    }

    /// Free-set input indices (row labels).
    pub fn free(&self) -> &[usize] {
        &self.free
    }

    /// Number of columns, `2^|X₁|`.
    pub fn num_columns(&self) -> usize {
        self.cols.len()
    }

    /// One column pattern.
    pub fn column(&self, c: usize) -> &[Ternary] {
        &self.cols[c]
    }

    /// The column multiplicity `µ`: number of *distinct* column patterns
    /// (Definition 3.6). Don't cares count as their own symbol here; use
    /// [`DecompositionChart::merge_compatible`] to exploit them.
    pub fn multiplicity(&self) -> usize {
        let mut distinct: Vec<&Vec<Ternary>> = Vec::new();
        for col in &self.cols {
            if !distinct.contains(&col) {
                distinct.push(col);
            }
        }
        distinct.len()
    }

    /// Are columns `i` and `j` compatible (Definition 3.7 pointwise)?
    pub fn columns_compatible(&self, i: usize, j: usize) -> bool {
        self.cols[i]
            .iter()
            .zip(&self.cols[j])
            .all(|(a, b)| a.compatible(*b))
    }

    /// The compatibility graph of the columns (Definition 3.8).
    pub fn compatibility_graph(&self) -> CompatGraph {
        let mut g = CompatGraph::new(self.num_columns());
        for i in 0..self.num_columns() {
            for j in i + 1..self.num_columns() {
                if self.columns_compatible(i, j) {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Merges compatible columns via Algorithm 3.2 (Example 3.4): each
    /// clique's columns are replaced by their pointwise intersection.
    /// Returns the merged chart and the clique index (code) of every
    /// original column.
    ///
    /// For single-output ternary columns, pairwise compatibility inside a
    /// clique implies joint intersectability (at most one specified value
    /// per row), so the intersection always exists.
    pub fn merge_compatible(&self) -> (DecompositionChart, Vec<usize>) {
        let graph = self.compatibility_graph();
        let cover = graph.clique_cover();
        let mut code_of_column = vec![usize::MAX; self.num_columns()];
        let mut merged_cols = self.cols.clone();
        for (code, clique) in cover.iter().enumerate() {
            let mut merged = self.cols[clique[0]].clone();
            for &c in &clique[1..] {
                for (m, v) in merged.iter_mut().zip(&self.cols[c]) {
                    *m = m
                        .intersect(*v)
                        .expect("pairwise-compatible ternary cliques intersect");
                }
            }
            for &c in clique {
                code_of_column[c] = code;
                merged_cols[c] = merged.clone();
            }
        }
        (
            DecompositionChart {
                bound: self.bound.clone(),
                free: self.free.clone(),
                cols: merged_cols,
            },
            code_of_column,
        )
    }

    /// Number of `h`-block outputs needed for this chart: `⌈log₂ µ⌉`
    /// (0 when every column is identical).
    pub fn rails(&self) -> usize {
        let mu = self.multiplicity();
        usize::BITS as usize - (mu - 1).leading_zeros() as usize
    }

    /// Does `candidate` narrow this chart? True when every candidate entry
    /// is pointwise compatible with the specification (so any completion of
    /// the candidate realizes the spec wherever the spec is defined and the
    /// candidate is at least as defined).
    pub fn narrowed_by(&self, candidate: &DecompositionChart) -> bool {
        self.cols.len() == candidate.cols.len()
            && self.cols.iter().zip(&candidate.cols).all(|(spec, got)| {
                spec.iter().zip(got).all(|(s, g)| {
                    s.intersect(*g) == Some(*g) // g refines s
                })
            })
    }

    /// Materializes the decomposition `f(X₁,X₂) = g(h(X₁), X₂)` from this
    /// chart: `h` maps each bound assignment to its clique code, `g` maps
    /// `(code, free assignment)` to the merged column's value (don't cares
    /// completed to 0).
    ///
    /// Returns `(h, g)` where `h[a]` is the code of bound assignment `a`
    /// and `g[code][r]` the output on free assignment `r`. The composition
    /// realizes every specified chart entry (checked in tests via
    /// [`DecompositionChart::narrowed_by`]-style admission).
    pub fn realize(&self) -> ChartRealization {
        let (merged, codes) = self.merge_compatible();
        let num_codes = codes.iter().copied().max().map_or(1, |c| c + 1);
        let rows = self.cols[0].len();
        let mut g = vec![vec![false; rows]; num_codes];
        for (c, &code) in codes.iter().enumerate() {
            for r in 0..rows {
                // Merged columns are identical within a clique; completing
                // don't cares to 0.
                g[code][r] = merged.column(c)[r] == Ternary::One;
            }
        }
        ChartRealization { h: codes, g }
    }

    /// The worked example of §3.1 (Tables 2 and 3): a 4-input, 1-output
    /// ISF whose columns Φ₁..Φ₄ are pairwise compatible exactly for
    /// {Φ₁,Φ₂}, {Φ₁,Φ₃}, {Φ₃,Φ₄}.
    pub fn paper_table2() -> DecompositionChart {
        use Ternary::{DontCare as D, One as I, Zero as O};
        DecompositionChart::from_columns(vec![
            vec![I, I, D, O], // Φ1
            vec![D, I, I, O], // Φ2
            vec![I, D, O, O], // Φ3
            vec![I, O, O, D], // Φ4
        ])
    }
}

/// A materialized two-block realization of a chart (see
/// [`DecompositionChart::realize`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChartRealization {
    /// `h[a]` = code of bound-set assignment `a`.
    pub h: Vec<usize>,
    /// `g[code][r]` = output for `(code, free-set assignment r)`.
    pub g: Vec<Vec<bool>>,
}

impl ChartRealization {
    /// Rails between the blocks: `⌈log₂ #codes⌉`.
    pub fn rails(&self) -> usize {
        let mu = self.g.len().max(1);
        usize::BITS as usize - (mu - 1).leading_zeros() as usize
    }

    /// Evaluates the composition on `(bound assignment, free assignment)`.
    pub fn eval(&self, bound: usize, free: usize) -> bool {
        self.g[self.h[bound]][free]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Ternary::{DontCare as D, One as I, Zero as O};

    #[test]
    fn chart_from_table_places_entries() {
        // f(x0,x1,x2) = x0 XOR x2, bound = {x0}, free = {x1, x2}.
        let mut table = TruthTable::new(3, 1);
        for r in 0..8usize {
            let v = (r & 1 == 1) ^ (r >> 2 & 1 == 1);
            table.set(r, 0, Ternary::from_bool(v));
        }
        let chart = DecompositionChart::from_table(&table, 0, &[0]);
        assert_eq!(chart.num_columns(), 2);
        assert_eq!(chart.free(), &[1, 2]);
        // Column 0 (x0=0): rows (x1,x2) -> x2: (0,0,1,1).
        assert_eq!(chart.column(0), &[O, O, I, I]);
        assert_eq!(chart.column(1), &[I, I, O, O]);
        assert_eq!(chart.multiplicity(), 2);
    }

    #[test]
    fn example33_multiplicity_four() {
        let chart = DecompositionChart::paper_table2();
        assert_eq!(chart.multiplicity(), 4, "Example 3.3: µ = 4");
    }

    #[test]
    fn example34_compatibility_pairs() {
        let chart = DecompositionChart::paper_table2();
        assert!(chart.columns_compatible(0, 1), "Φ1 ∼ Φ2");
        assert!(chart.columns_compatible(0, 2), "Φ1 ∼ Φ3");
        assert!(chart.columns_compatible(2, 3), "Φ3 ∼ Φ4");
        assert!(!chart.columns_compatible(1, 2), "Φ2 ≁ Φ3");
        assert!(!chart.columns_compatible(0, 3), "Φ1 ≁ Φ4");
        assert!(!chart.columns_compatible(1, 3), "Φ2 ≁ Φ4");
    }

    #[test]
    fn example34_merge_reduces_multiplicity_to_two() {
        let chart = DecompositionChart::paper_table2();
        let (merged, codes) = chart.merge_compatible();
        assert_eq!(merged.multiplicity(), 2, "Example 3.4: µ = 2");
        // Φ1 and Φ2 share a code, Φ3 and Φ4 share the other.
        assert_eq!(codes[0], codes[1]);
        assert_eq!(codes[2], codes[3]);
        assert_ne!(codes[0], codes[2]);
        // Merged columns narrow every don't care consistently.
        assert_eq!(merged.column(0), merged.column(1));
        assert_eq!(merged.column(0), &[I, I, I, O], "Φ1* = Φ1 · Φ2");
        assert_eq!(merged.column(2), &[I, O, O, O], "Φ3* = Φ3 · Φ4");
    }

    #[test]
    fn merged_chart_realizes_the_original() {
        let chart = DecompositionChart::paper_table2();
        let (merged, _) = chart.merge_compatible();
        for c in 0..chart.num_columns() {
            for r in 0..chart.column(c).len() {
                let spec = chart.column(c)[r];
                let got = merged.column(c)[r];
                assert!(
                    spec.intersect(got).is_some(),
                    "column {c} row {r}: {got} incompatible with spec {spec}"
                );
            }
        }
    }

    #[test]
    fn realization_composes_to_the_spec() {
        let chart = DecompositionChart::paper_table2();
        let realization = chart.realize();
        assert_eq!(realization.rails(), 1, "µ = 2 after merging");
        for c in 0..chart.num_columns() {
            for r in 0..chart.column(c).len() {
                let got = realization.eval(c, r);
                assert!(
                    chart.column(c)[r].admits(got),
                    "column {c} row {r}: g(h) = {got} violates the spec"
                );
            }
        }
    }

    #[test]
    fn realization_of_fully_specified_chart_is_exact() {
        let chart =
            DecompositionChart::from_columns(vec![vec![O, I], vec![I, O], vec![O, O], vec![I, I]]);
        let realization = chart.realize();
        assert_eq!(realization.rails(), 2);
        for c in 0..4 {
            for r in 0..2 {
                assert_eq!(
                    Ternary::from_bool(realization.eval(c, r)),
                    chart.column(c)[r]
                );
            }
        }
    }

    #[test]
    fn rails_is_log2_of_multiplicity() {
        let chart = DecompositionChart::paper_table2();
        assert_eq!(chart.rails(), 2, "µ=4 needs 2 rails");
        let (merged, _) = chart.merge_compatible();
        assert_eq!(merged.rails(), 1, "µ=2 needs 1 rail");
    }

    #[test]
    fn fully_specified_chart_has_no_mergeable_columns() {
        let chart =
            DecompositionChart::from_columns(vec![vec![O, I], vec![I, O], vec![O, O], vec![I, I]]);
        let (merged, codes) = chart.merge_compatible();
        assert_eq!(merged.multiplicity(), 4);
        let mut codes_sorted = codes.clone();
        codes_sorted.sort_unstable();
        codes_sorted.dedup();
        assert_eq!(codes_sorted.len(), 4);
    }

    #[test]
    fn all_dc_chart_merges_to_one() {
        let chart =
            DecompositionChart::from_columns(vec![vec![D, D], vec![D, D], vec![D, D], vec![D, D]]);
        // All columns identical: multiplicity is already 1.
        assert_eq!(chart.multiplicity(), 1);
        let (merged, codes) = chart.merge_compatible();
        assert_eq!(merged.multiplicity(), 1);
        assert!(codes.iter().all(|&c| c == codes[0]));
    }

    #[test]
    #[should_panic(expected = "free set must be non-empty")]
    fn bound_set_cannot_cover_everything() {
        let table = TruthTable::new(2, 1);
        let _ = DecompositionChart::from_table(&table, 0, &[0, 1]);
    }
}
