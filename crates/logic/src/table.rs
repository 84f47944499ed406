//! Explicit truth tables for small multiple-output incompletely specified
//! functions.
//!
//! A [`TruthTable`] stores a `2ⁿ × m` matrix of [`Ternary`] values. It is
//! the ground-truth representation for the paper's worked examples (Table 1,
//! Tables 2–3) and the reference every symbolic construction is validated
//! against in tests.

use crate::oracle::{MultiOracle, Response};
use crate::ternary::Ternary;
use std::fmt;

/// A multiple-output incompletely specified function given extensionally.
///
/// Row index `r` encodes the input assignment with **bit `i` of `r` = value
/// of input `xᵢ₊₁`**... more precisely: bit `i` (LSB = bit 0) of the row
/// index is the value of input `i`. Output `j` of row `r` is
/// `self.get(r, j)`.
#[derive(Clone, PartialEq, Eq)]
pub struct TruthTable {
    num_inputs: usize,
    num_outputs: usize,
    rows: Vec<Ternary>, // row-major, rows.len() == 2^n * m
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TruthTable({} inputs, {} outputs)",
            self.num_inputs, self.num_outputs
        )?;
        for r in 0..self.num_rows() {
            let input: String = (0..self.num_inputs)
                .rev()
                .map(|i| if r >> i & 1 == 1 { '1' } else { '0' })
                .collect();
            let output: String = (0..self.num_outputs)
                .map(|j| self.get(r, j).to_string())
                .collect();
            writeln!(f, "  {input} -> {output}")?;
        }
        Ok(())
    }
}

impl TruthTable {
    /// A table with every entry unspecified (don't care).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 24` (the table would not fit in memory) or
    /// `num_outputs == 0`.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= 24, "explicit tables limited to 24 inputs");
        assert!(num_outputs > 0, "a function needs at least one output");
        TruthTable {
            num_inputs,
            num_outputs,
            rows: vec![Ternary::DontCare; (1usize << num_inputs) * num_outputs],
        }
    }

    /// Parses one string per row (in row-index order), each with one
    /// character per output: `0`, `1`, or `d`/`-`.
    ///
    /// # Panics
    ///
    /// Panics if the number of rows is not a power of two, rows have
    /// differing lengths, or a character is not a ternary digit.
    pub fn from_rows(rows: &[&str]) -> Self {
        assert!(rows.len().is_power_of_two(), "row count must be 2^n");
        let num_inputs = rows.len().trailing_zeros() as usize;
        let num_outputs = rows[0].len();
        let mut table = TruthTable::new(num_inputs, num_outputs);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), num_outputs, "ragged row {r}");
            for (j, c) in row.chars().enumerate() {
                let v = Ternary::from_char(c)
                    .unwrap_or_else(|| panic!("invalid ternary digit {c:?} in row {r}"));
                table.set(r, j, v);
            }
        }
        table
    }

    /// Tabulates an oracle: row `r` holds its answer on the input word `r`,
    /// and every output of a [`Response::DontCare`] row stays don't care.
    ///
    /// # Panics
    ///
    /// Panics as [`TruthTable::new`] does on the oracle's arity.
    pub fn tabulate(oracle: &dyn MultiOracle) -> TruthTable {
        let (num_inputs, num_outputs) = (oracle.num_inputs(), oracle.num_outputs());
        let mut table = TruthTable::new(num_inputs, num_outputs);
        let mut input = vec![false; num_inputs];
        for (r, row) in table.rows.chunks_exact_mut(num_outputs).enumerate() {
            for (i, bit) in input.iter_mut().enumerate() {
                *bit = r >> i & 1 == 1;
            }
            if let Response::Value(word) = oracle.respond(&input) {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = Ternary::from_bool(word >> j & 1 == 1);
                }
            }
        }
        table
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of rows, `2ⁿ`.
    pub fn num_rows(&self) -> usize {
        1 << self.num_inputs
    }

    /// The value of output `j` on row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `j` is out of range.
    pub fn get(&self, r: usize, j: usize) -> Ternary {
        assert!(j < self.num_outputs, "output index out of range");
        self.rows[r * self.num_outputs + j]
    }

    /// Sets the value of output `j` on row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `j` is out of range.
    pub fn set(&mut self, r: usize, j: usize, v: Ternary) {
        assert!(j < self.num_outputs, "output index out of range");
        self.rows[r * self.num_outputs + j] = v;
    }

    /// All outputs on row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Ternary] {
        &self.rows[r * self.num_outputs..(r + 1) * self.num_outputs]
    }

    /// Evaluates the row index for an input assignment (`bit i` = input `i`).
    pub fn row_index(&self, input: &[bool]) -> usize {
        assert_eq!(input.len(), self.num_inputs);
        input
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (usize::from(b) << i))
    }

    /// Fraction of `(row, output)` entries that are don't care — the
    /// quantity the paper's Table 4 reports in its `DC [%]` column when the
    /// don't cares come from unused input combinations.
    pub fn dc_ratio(&self) -> f64 {
        let dc = self.rows.iter().filter(|v| v.is_dont_care()).count();
        dc as f64 / self.rows.len() as f64
    }

    /// Does `candidate` (a completely specified function given as a row
    /// evaluator) realize this specification?
    pub fn is_realized_by(&self, mut candidate: impl FnMut(usize) -> u64) -> bool {
        (0..self.num_rows()).all(|r| {
            let word = candidate(r);
            (0..self.num_outputs).all(|j| self.get(r, j).admits(word >> j & 1 == 1))
        })
    }

    /// Restricts input `i` to `value`, producing a table over the remaining
    /// inputs (their indices shift down above `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the table has a single input.
    pub fn restrict(&self, i: usize, value: bool) -> TruthTable {
        assert!(i < self.num_inputs, "input index out of range");
        assert!(self.num_inputs > 1, "cannot restrict the last input");
        let mut out = TruthTable::new(self.num_inputs - 1, self.num_outputs);
        for r in 0..out.num_rows() {
            let low = r & ((1 << i) - 1);
            let high = (r >> i) << (i + 1);
            let full = high | (usize::from(value) << i) | low;
            for j in 0..self.num_outputs {
                out.set(r, j, self.get(full, j));
            }
        }
        out
    }

    /// Pointwise compatibility with another table of identical shape
    /// (Definition 3.7 lifted to multiple outputs).
    pub fn compatible(&self, other: &TruthTable) -> bool {
        assert_eq!(self.num_inputs, other.num_inputs);
        assert_eq!(self.num_outputs, other.num_outputs);
        self.rows
            .iter()
            .zip(&other.rows)
            .all(|(a, b)| a.compatible(*b))
    }

    /// Pointwise intersection (the "logical product" of Lemma 3.1), or
    /// `None` if the tables are incompatible.
    pub fn intersect(&self, other: &TruthTable) -> Option<TruthTable> {
        if !self.compatible(other) {
            return None;
        }
        let mut out = self.clone();
        for (o, b) in out.rows.iter_mut().zip(&other.rows) {
            *o = o.intersect(*b).expect("checked compatible");
        }
        Some(out)
    }

    /// The completion that maps every don't care to `fill`.
    pub fn completed(&self, fill: bool) -> TruthTable {
        let mut out = self.clone();
        for v in &mut out.rows {
            if v.is_dont_care() {
                *v = Ternary::from_bool(fill);
            }
        }
        out
    }

    /// Projects onto a subset of outputs (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `outputs` is empty.
    pub fn project_outputs(&self, outputs: &[usize]) -> TruthTable {
        assert!(!outputs.is_empty());
        let mut out = TruthTable::new(self.num_inputs, outputs.len());
        for r in 0..self.num_rows() {
            for (k, &j) in outputs.iter().enumerate() {
                out.set(r, k, self.get(r, j));
            }
        }
        out
    }

    /// The paper's running example (Table 1): a 4-input, 2-output
    /// incompletely specified function.
    pub fn paper_table1() -> TruthTable {
        // Row index bit 3 = x1 (leftmost column of Table 1), bit 0 = x4.
        // We store inputs LSB-first, so input 0 = x1 ... input 3 = x4 and the
        // row index here is built from (x1 x2 x3 x4) strings.
        let spec = [
            ("0000", "d1"),
            ("0001", "d1"),
            ("0010", "00"),
            ("0011", "00"),
            ("0100", "dd"),
            ("0101", "dd"),
            ("0110", "10"),
            ("0111", "11"),
            ("1000", "01"),
            ("1001", "01"),
            ("1010", "10"),
            ("1011", "10"),
            ("1100", "1d"),
            ("1101", "1d"),
            ("1110", "d0"),
            ("1111", "d1"),
        ];
        let mut table = TruthTable::new(4, 2);
        for (bits, outs) in spec {
            let mut r = 0usize;
            for (i, c) in bits.chars().enumerate() {
                if c == '1' {
                    r |= 1 << i; // input i = x_{i+1}
                }
            }
            for (j, c) in outs.chars().enumerate() {
                let v = Ternary::from_char(c)
                    .expect("invariant: the Table 1 spec above contains only ternary digits");
                table.set(r, j, v);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use Ternary::*;

    #[test]
    fn new_table_is_all_dont_care() {
        let t = TruthTable::new(3, 2);
        assert_eq!(t.num_rows(), 8);
        assert_eq!(t.dc_ratio(), 1.0);
    }

    #[test]
    fn from_rows_parses() {
        let t = TruthTable::from_rows(&["01", "1d", "d0", "11"]);
        assert_eq!(t.num_inputs(), 2);
        assert_eq!(t.num_outputs(), 2);
        assert_eq!(t.get(0, 0), Zero);
        assert_eq!(t.get(0, 1), One);
        assert_eq!(t.get(1, 1), DontCare);
        assert_eq!(t.get(2, 0), DontCare);
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn from_rows_rejects_non_power_of_two() {
        let _ = TruthTable::from_rows(&["0", "1", "d"]);
    }

    #[test]
    fn row_index_is_lsb_first() {
        let t = TruthTable::new(3, 1);
        assert_eq!(t.row_index(&[true, false, false]), 1);
        assert_eq!(t.row_index(&[false, false, true]), 4);
    }

    #[test]
    fn restrict_splits_cofactors() {
        // f(x0,x1) = x0 XOR x1 fully specified.
        let t = TruthTable::from_rows(&["0", "1", "1", "0"]);
        let f0 = t.restrict(0, false); // rows where x0=0: rows 0,2 -> 0,1
        assert_eq!(f0.get(0, 0), Zero);
        assert_eq!(f0.get(1, 0), One);
        let f1 = t.restrict(1, true); // rows where x1=1: rows 2,3 -> 1,0
        assert_eq!(f1.get(0, 0), One);
        assert_eq!(f1.get(1, 0), Zero);
    }

    #[test]
    fn compatibility_and_intersection() {
        let a = TruthTable::from_rows(&["0", "d", "1", "d"]);
        let b = TruthTable::from_rows(&["d", "1", "d", "d"]);
        assert!(a.compatible(&b));
        let c = a.intersect(&b).unwrap();
        assert_eq!(c.get(0, 0), Zero);
        assert_eq!(c.get(1, 0), One);
        assert_eq!(c.get(2, 0), One);
        assert_eq!(c.get(3, 0), DontCare);
        let d = TruthTable::from_rows(&["1", "d", "d", "d"]);
        assert!(!a.compatible(&d));
        assert!(a.intersect(&d).is_none());
    }

    #[test]
    fn completion_fills_dont_cares() {
        let a = TruthTable::from_rows(&["0", "d", "1", "d"]);
        let c0 = a.completed(false);
        assert_eq!(c0.get(1, 0), Zero);
        assert_eq!(c0.dc_ratio(), 0.0);
        let c1 = a.completed(true);
        assert_eq!(c1.get(3, 0), One);
    }

    #[test]
    fn realization_check_respects_dont_cares() {
        let a = TruthTable::from_rows(&["0", "d", "1", "d"]);
        assert!(a.is_realized_by(|r| u64::from(r >= 2)));
        assert!(a.is_realized_by(|r| u64::from(r != 0)));
        assert!(!a.is_realized_by(|_| 0), "row 2 must be 1");
    }

    #[test]
    fn project_outputs_selects_columns() {
        let t = TruthTable::from_rows(&["01", "10", "dd", "11"]);
        let p = t.project_outputs(&[1]);
        assert_eq!(p.num_outputs(), 1);
        assert_eq!(p.get(0, 0), One);
        assert_eq!(p.get(1, 0), Zero);
    }

    proptest::proptest! {
        /// A table whose rows are each fully specified or all don't care is
        /// exactly what its oracle answers, so tabulating it returns it.
        #[test]
        fn tabulate_returns_a_table_of_whole_rows(
            num_inputs in 0usize..7,
            num_outputs in 1usize..5,
            rows in prop::collection::vec((any::<bool>(), any::<u64>()), 64),
        ) {
            let mut table = TruthTable::new(num_inputs, num_outputs);
            for (r, &(specified, word)) in rows.iter().take(1 << num_inputs).enumerate() {
                if specified {
                    for j in 0..num_outputs {
                        table.set(r, j, Ternary::from_bool(word >> j & 1 == 1));
                    }
                }
            }
            prop_assert_eq!(TruthTable::tabulate(&table), table);
        }
    }

    #[test]
    fn paper_table1_spot_checks() {
        let t = TruthTable::paper_table1();
        assert_eq!(t.num_inputs(), 4);
        assert_eq!(t.num_outputs(), 2);
        // x1x2x3x4 = 0000 -> f1 = d, f2 = 1.
        assert_eq!(t.row(0), &[DontCare, One]);
        // x1x2x3x4 = 1010 -> r = 1 + 4 = 5 -> f1 = 1, f2 = 0.
        assert_eq!(t.row(0b0101), &[One, Zero]);
        // x1x2x3x4 = 0111 -> inputs x2,x3,x4 set -> r = 2+4+8 = 14 -> f = 11.
        assert_eq!(t.row(0b1110), &[One, One]);
        // 22 of the 32 entries are specified (Table 1 has 10 d's).
        let dc = (0..16)
            .flat_map(|r| t.row(r).to_vec())
            .filter(|v| v.is_dont_care())
            .count();
        assert_eq!(dc, 10);
    }

    #[test]
    fn paper_table1_matches_example21_cofunctions() {
        // Example 2.1 lists f1_0, f1_1, f1_d etc. as sums of products.
        // Check a few: f1_d = ¬x1¬x3 ∨ x1x2x3.
        let t = TruthTable::paper_table1();
        for r in 0..16usize {
            let x1 = r & 1 == 1;
            let x2 = r & 2 == 2;
            let x3 = r & 4 == 4;
            let f1_d_expected = (!x1 && !x3) || (x1 && x2 && x3);
            assert_eq!(
                t.get(r, 0).is_dont_care(),
                f1_d_expected,
                "f1 dc mismatch at row {r}"
            );
            let f2_d_expected = x2 && !x3;
            assert_eq!(t.get(r, 1).is_dont_care(), f2_d_expected);
        }
    }
}
