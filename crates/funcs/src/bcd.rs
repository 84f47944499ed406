//! BCD (binary-coded decimal) arithmetic benchmarks: the paper's k-digit
//! decimal adders and the 2-digit decimal multiplier (§4.1).
//!
//! Every decimal digit uses 4 bits; codes `10..15` are input don't cares
//! (§4.1's ratio: `1 − (10/16)^{digits}`).
//!
//! The adders (24 and 32 inputs) are built symbolically, digit by digit
//! with a carry; the multiplier (16 inputs) from its tabulated oracle
//! ([`IsfBdds::from_truth_table`]).

use crate::digits::DigitLayout;
use crate::Benchmark;
use bddcf_bdd::bv::{self, BitVec};
use bddcf_bdd::{BddManager, FALSE};
use bddcf_core::{CfLayout, IsfBdds};
use bddcf_logic::{MultiOracle, Response, TruthTable};

/// Packs a decimal `value` into the output-word convention: the result has
/// `digits` BCD digits, most significant digit first, and within each digit
/// the MSB comes first (so output 0 is the topmost bit of the topmost
/// digit).
fn decimal_to_word(value: u64, digits: usize) -> u64 {
    let mut word = 0u64;
    let mut v = value;
    // Digit index `digits-1` is the units digit.
    for d in (0..digits).rev() {
        let code = v % 10;
        v /= 10;
        for b in 0..4 {
            if code >> b & 1 == 1 {
                // Output index of bit b (LSB) of digit d: digit block d,
                // MSB-first within the block.
                let j = d * 4 + (3 - b);
                word |= 1 << j;
            }
        }
    }
    debug_assert_eq!(v, 0, "value needs more than {digits} decimal digits");
    word
}

/// Truncates a bit-vector, allowing the dropped bits to be non-constant
/// (they are only reachable on invalid inputs).
fn truncate_unchecked(mut value: BitVec, width: usize) -> BitVec {
    value.truncate(width);
    while value.len() < width {
        value.push(FALSE);
    }
    value
}

/// A `k`-digit decimal adder: two BCD operands in, a `(k+1)`-digit BCD sum
/// out.
#[derive(Clone, Debug)]
pub struct DecimalAdder {
    k: usize,
    digits: DigitLayout,
}

impl DecimalAdder {
    /// The `k`-digit adder (the paper uses `k = 3` and `k = 4`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the arity would exceed 64 bits.
    pub fn new(k: usize) -> Self {
        assert!(k > 0 && 8 * k <= 64, "unsupported digit count {k}");
        // Input layout: digit pair i (0 = most significant): aᵢ then bᵢ.
        DecimalAdder {
            k,
            digits: DigitLayout::uniform(10, 2 * k),
        }
    }

    /// Decodes the two operands from an input word; `None` on invalid BCD.
    fn operands(&self, input_word: u64) -> Option<(u64, u64)> {
        let digits = self.digits.decode(input_word)?;
        let mut a = 0u64;
        let mut b = 0u64;
        for i in 0..self.k {
            a = a * 10 + digits[2 * i];
            b = b * 10 + digits[2 * i + 1];
        }
        Some((a, b))
    }
}

impl MultiOracle for DecimalAdder {
    fn num_inputs(&self) -> usize {
        8 * self.k
    }

    fn num_outputs(&self) -> usize {
        4 * (self.k + 1)
    }

    fn respond(&self, input: &[bool]) -> Response {
        let word = input
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        match self.operands(word) {
            None => Response::DontCare,
            Some((a, b)) => Response::Value(decimal_to_word(a + b, self.k + 1)),
        }
    }
}

impl Benchmark for DecimalAdder {
    fn name(&self) -> String {
        format!("{}-digit decimal adder", self.k)
    }

    fn build_isf(&self, mgr: &mut BddManager, layout: &CfLayout) -> IsfBdds {
        // Digit-serial BCD addition from the units digit up.
        let mut carry = FALSE;
        // sum_digits[d] = 4-bit BCD code of result digit d (0 = most
        // significant of the k+1 digits).
        let mut sum_digits: Vec<BitVec> = vec![Vec::new(); self.k + 1];
        for i in (0..self.k).rev() {
            let a = self.digits.digit_bv(mgr, layout, 2 * i);
            let b = self.digits.digit_bv(mgr, layout, 2 * i + 1);
            let ab = bv::add(mgr, &a, &b);
            let s = bv::add(mgr, &ab, &vec![carry]);
            let ge10 = bv::ge_const(mgr, &s, 10);
            let (diff, _) = bv::sub(mgr, &s, &bv::constant(10, s.len()));
            let corrected = bv::select(mgr, ge10, &diff, &s);
            sum_digits[i + 1] = truncate_unchecked(corrected, 4);
            carry = ge10;
        }
        sum_digits[0] = vec![carry, FALSE, FALSE, FALSE];

        let valid = self.digits.valid(mgr, layout);
        let invalid = mgr.not(valid);
        let m = self.num_outputs();
        let mut on = Vec::with_capacity(m);
        let mut dc = Vec::with_capacity(m);
        for j in 0..m {
            let digit = j / 4;
            let bit = 3 - j % 4; // MSB-first within the digit
            let value_bit = sum_digits[digit][bit];
            on.push(mgr.and(valid, value_bit));
            dc.push(invalid);
        }
        IsfBdds::from_on_dc(mgr, on, dc)
    }

    fn dc_ratio(&self) -> f64 {
        self.digits.dc_ratio()
    }

    /// Carry-chain order: units digit pair first, each sum digit directly
    /// below the operand digits it is determined by (together with the
    /// carry from below, whose inputs are above too), the final carry digit
    /// last. This keeps the BDD_for_CF width near the carry-state count —
    /// the structure behind the paper's width-10..27 adder rows.
    fn preferred_order(&self) -> Option<Vec<bddcf_bdd::Var>> {
        let layout = self.layout();
        let mut order = Vec::with_capacity(layout.num_vars());
        for i in (0..self.k).rev() {
            // operand digits aᵢ, bᵢ (digit-layout digits 2i and 2i+1)
            for d in [2 * i, 2 * i + 1] {
                let offset = self.digits.offset(d);
                for b in 0..self.digits.bits(d) {
                    order.push(layout.input_var(offset + b));
                }
            }
            // sum digit i sits at output digit d = i+1 (digit 0 is the
            // final carry), outputs 4d .. 4d+4
            for j in 4 * (i + 1)..4 * (i + 2) {
                order.push(layout.output_var(j));
            }
        }
        for j in 0..4 {
            order.push(layout.output_var(j)); // the carry digit, at the bottom
        }
        Some(order)
    }
}

/// A `k`-digit decimal multiplier: two BCD operands in, a `2k`-digit BCD
/// product out (the paper uses `k = 2`: 16 in, 16 out).
#[derive(Clone, Debug)]
pub struct DecimalMultiplier {
    k: usize,
    digits: DigitLayout,
}

impl DecimalMultiplier {
    /// The `k`-digit multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 2`: the ISF is built from a table of
    /// `2^{8k}` rows, which at `k = 3` would hold 400 million entries.
    pub fn new(k: usize) -> Self {
        assert!(k > 0 && k <= 2, "unsupported digit count {k}");
        DecimalMultiplier {
            k,
            digits: DigitLayout::uniform(10, 2 * k),
        }
    }

    fn operands(&self, input_word: u64) -> Option<(u64, u64)> {
        let digits = self.digits.decode(input_word)?;
        let mut a = 0u64;
        let mut b = 0u64;
        for i in 0..self.k {
            a = a * 10 + digits[2 * i];
            b = b * 10 + digits[2 * i + 1];
        }
        Some((a, b))
    }
}

impl MultiOracle for DecimalMultiplier {
    fn num_inputs(&self) -> usize {
        8 * self.k
    }

    fn num_outputs(&self) -> usize {
        8 * self.k
    }

    fn respond(&self, input: &[bool]) -> Response {
        let word = input
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        match self.operands(word) {
            None => Response::DontCare,
            Some((a, b)) => Response::Value(decimal_to_word(a * b, 2 * self.k)),
        }
    }
}

impl Benchmark for DecimalMultiplier {
    fn name(&self) -> String {
        format!("{}-digit decimal multiplier", self.k)
    }

    fn build_isf(&self, mgr: &mut BddManager, layout: &CfLayout) -> IsfBdds {
        IsfBdds::from_truth_table(mgr, layout, &TruthTable::tabulate(self))
    }

    fn dc_ratio(&self) -> f64 {
        self.digits.dc_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_core::Cf;

    #[test]
    fn decimal_packing() {
        // 3 digits, value 105: digits (1, 0, 5).
        // Digit 0 (MSB) = 1 -> code 0001 -> its LSB (bit 0) sits at output 3.
        // Digit 2 = 5 -> code 0101 -> bits 2 and 0 -> outputs 8+1, 8+3.
        let w = decimal_to_word(105, 3);
        assert_eq!(w, (1 << 3) | (1 << 9) | (1 << 11));
    }

    #[test]
    fn paper_arities() {
        let a3 = DecimalAdder::new(3);
        assert_eq!(a3.num_inputs(), 24);
        assert_eq!(a3.num_outputs(), 16);
        let a4 = DecimalAdder::new(4);
        assert_eq!(a4.num_inputs(), 32);
        assert_eq!(a4.num_outputs(), 20);
        let m2 = DecimalMultiplier::new(2);
        assert_eq!(m2.num_inputs(), 16);
        assert_eq!(m2.num_outputs(), 16);
    }

    #[test]
    fn paper_dc_ratios() {
        assert!((DecimalAdder::new(3).dc_ratio() - 0.940).abs() < 5e-4);
        assert!((DecimalAdder::new(4).dc_ratio() - 0.977).abs() < 5e-4);
        assert!((DecimalMultiplier::new(2).dc_ratio() - 0.847).abs() < 5e-4);
    }

    #[test]
    fn one_digit_adder_exhaustive() {
        let adder = DecimalAdder::new(1);
        let cf = Cf::build(adder.layout(), |mgr, layout| adder.build_isf(mgr, layout));
        for word in 0..1u64 << 8 {
            let input: Vec<bool> = (0..8).map(|i| word >> i & 1 == 1).collect();
            if let Response::Value(expect) = adder.respond(&input) {
                assert_eq!(cf.eval_completed(&input), expect, "input {word:#x}");
            }
        }
    }

    #[test]
    fn two_digit_adder_on_valid_inputs() {
        let adder = DecimalAdder::new(2);
        let cf = Cf::build(adder.layout(), |mgr, layout| adder.build_isf(mgr, layout));
        for a in 0..100u64 {
            for b in 0..100u64 {
                // digit pair layout: (a_hi, b_hi, a_lo, b_lo)
                let digits = [a / 10, b / 10, a % 10, b % 10];
                let word = adder.digits.encode(&digits);
                let input: Vec<bool> = (0..16).map(|i| word >> i & 1 == 1).collect();
                assert_eq!(
                    cf.eval_completed(&input),
                    decimal_to_word(a + b, 3),
                    "{a} + {b}"
                );
            }
        }
    }

    #[test]
    fn one_digit_multiplier_exhaustive() {
        let mult = DecimalMultiplier::new(1);
        let cf = Cf::build(mult.layout(), |mgr, layout| mult.build_isf(mgr, layout));
        for word in 0..1u64 << 8 {
            let input: Vec<bool> = (0..8).map(|i| word >> i & 1 == 1).collect();
            if let Response::Value(expect) = mult.respond(&input) {
                assert_eq!(cf.eval_completed(&input), expect, "input {word:#x}");
            }
        }
    }

    #[test]
    fn two_digit_multiplier_sampled() {
        let mult = DecimalMultiplier::new(2);
        let cf = Cf::build(mult.layout(), |mgr, layout| mult.build_isf(mgr, layout));
        for a in (0..100u64).step_by(7) {
            for b in (0..100u64).step_by(13) {
                let digits = [a / 10, b / 10, a % 10, b % 10];
                let word = mult.digits.encode(&digits);
                let input: Vec<bool> = (0..16).map(|i| word >> i & 1 == 1).collect();
                assert_eq!(
                    cf.eval_completed(&input),
                    decimal_to_word(a * b, 4),
                    "{a} * {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported digit count 3")]
    fn multiplier_rejects_more_digits_than_a_table_serves() {
        let _ = DecimalMultiplier::new(3);
    }

    #[test]
    fn adder_oracle_dc_on_invalid_bcd() {
        let adder = DecimalAdder::new(1);
        // a = 0xF is invalid BCD.
        let input: Vec<bool> = (0..8).map(|i| 0x0Fu64 >> i & 1 == 1).collect();
        assert_eq!(adder.respond(&input), Response::DontCare);
    }
}
