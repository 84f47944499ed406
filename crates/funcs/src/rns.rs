//! Residue-number-system → binary converters (§4.1, Fig. 9).
//!
//! The input is a tuple of binary-coded residues `(r₀ … r_{k−1})` modulo
//! pairwise-coprime `(m₀ … m_{k−1})`; the output is the unique
//! `v ∈ [0, M)`, `M = Π mᵢ`, with `v ≡ rᵢ (mod mᵢ)` — reconstructed by the
//! Chinese Remainder Theorem: `v = (Σ rᵢ·wᵢ) mod M` with
//! `wᵢ = Mᵢ·(Mᵢ⁻¹ mod mᵢ)`, `Mᵢ = M/mᵢ`. Residue codes `≥ mᵢ` are input
//! don't cares.
//!
//! The ISF is built from the tabulated oracle ([`IsfBdds::from_truth_table`]),
//! so [`RnsConverter::new`] admits at most 17 input bits, as many as the
//! paper's largest converter has.

use crate::digits::DigitLayout;
use crate::{value_to_word, Benchmark};
use bddcf_bdd::bv;
use bddcf_bdd::BddManager;
use bddcf_core::{CfLayout, IsfBdds};
use bddcf_logic::{MultiOracle, Response, TruthTable};

/// An RNS-to-binary converter for a fixed modulus set.
///
/// # Example
///
/// ```
/// use bddcf_funcs::{Benchmark, RnsConverter};
/// use bddcf_core::Cf;
///
/// use bddcf_logic::MultiOracle;
///
/// let rns = RnsConverter::new(vec![3, 5]);
/// let cf = Cf::build(rns.layout(), |mgr, layout| rns.build_isf(mgr, layout));
/// // residues (2 mod 3, 4 mod 5) -> 14; inputs are binary-coded residues
/// // over 2 + 3 = 5 bits.
/// assert_eq!(rns.value_of(&[2, 4]), 14);
/// let word = rns.digits().encode(&[2, 4]);
/// let input: Vec<bool> = (0..rns.num_inputs()).map(|i| word >> i & 1 == 1).collect();
/// let out = cf.eval_completed(&input);
/// assert_eq!(out, bddcf_funcs::value_to_word(14, rns.num_outputs()));
/// ```
#[derive(Clone, Debug)]
pub struct RnsConverter {
    digits: DigitLayout,
    moduli: Vec<u64>,
    weights: Vec<u64>,
    modulus_product: u64,
    num_outputs: usize,
}

/// The most input bits a converter's tabulated ISF may have: the largest
/// registry row, `11-13-15-17 RNS`, has 17.
const MAX_INPUT_BITS: usize = 17;

impl RnsConverter {
    /// Converter for the given moduli (must be pairwise coprime, each ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if the moduli are not pairwise coprime, `Π mᵢ` overflows, or
    /// the binary-coded residues take more than 17 input bits (the ISF is
    /// built from a table of `2ⁿ` rows).
    pub fn new(moduli: Vec<u64>) -> Self {
        assert!(!moduli.is_empty());
        for (i, &a) in moduli.iter().enumerate() {
            assert!(a >= 2, "modulus must be at least 2");
            for &b in &moduli[..i] {
                assert_eq!(gcd(a, b), 1, "moduli {a} and {b} are not coprime");
            }
        }
        let modulus_product: u64 = moduli
            .iter()
            .try_fold(1u64, |acc, &m| acc.checked_mul(m))
            .expect("modulus product overflows u64");
        let weights = moduli
            .iter()
            .map(|&m| {
                let mi = modulus_product / m;
                mi * mod_inverse(mi % m, m)
            })
            .collect();
        let digits = DigitLayout::new(moduli.clone());
        assert!(
            digits.total_bits() <= MAX_INPUT_BITS,
            "{} input bits exceed the {MAX_INPUT_BITS} a tabulated converter allows",
            digits.total_bits()
        );
        RnsConverter {
            digits,
            moduli,
            weights,
            modulus_product,
            num_outputs: bv::bits_for(modulus_product - 1),
        }
    }

    /// The paper's `5-7-11-13 RNS` benchmark (14 in, 13 out).
    pub fn rns_5_7_11_13() -> Self {
        RnsConverter::new(vec![5, 7, 11, 13])
    }

    /// The paper's `7-11-13-17 RNS` benchmark (16 in, 15 out).
    pub fn rns_7_11_13_17() -> Self {
        RnsConverter::new(vec![7, 11, 13, 17])
    }

    /// The paper's `11-13-15-17 RNS` benchmark (17 in, 16 out).
    pub fn rns_11_13_15_17() -> Self {
        RnsConverter::new(vec![11, 13, 15, 17])
    }

    /// `M = Π mᵢ`.
    pub fn modulus_product(&self) -> u64 {
        self.modulus_product
    }

    /// The digit layout of the inputs.
    pub fn digits(&self) -> &DigitLayout {
        &self.digits
    }

    /// CRT reconstruction from residue values.
    pub fn value_of(&self, residues: &[u64]) -> u64 {
        residues
            .iter()
            .zip(&self.weights)
            .fold(0u128, |acc, (&r, &w)| acc + u128::from(r) * u128::from(w))
            .rem_euclid(u128::from(self.modulus_product)) as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Modular inverse by exhaustion (moduli here are tiny).
fn mod_inverse(a: u64, m: u64) -> u64 {
    (1..m)
        .find(|&x| a * x % m == 1)
        .unwrap_or_else(|| panic!("{a} has no inverse modulo {m}"))
}

impl MultiOracle for RnsConverter {
    fn num_inputs(&self) -> usize {
        self.digits.total_bits()
    }

    fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    fn respond(&self, input: &[bool]) -> Response {
        let word = input
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        match self.digits.decode(word) {
            None => Response::DontCare,
            Some(residues) => {
                Response::Value(value_to_word(self.value_of(&residues), self.num_outputs))
            }
        }
    }
}

impl Benchmark for RnsConverter {
    fn name(&self) -> String {
        let parts: Vec<String> = self.moduli.iter().map(u64::to_string).collect();
        format!("{} RNS", parts.join("-"))
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
    fn crt_reconstruction() {
        let rns = RnsConverter::new(vec![3, 5, 7]);
        assert_eq!(rns.modulus_product(), 105);
        for v in 0..105u64 {
            let residues = [v % 3, v % 5, v % 7];
            assert_eq!(rns.value_of(&residues), v, "value {v}");
        }
    }

    #[test]
    fn paper_arities() {
        let r1 = RnsConverter::rns_5_7_11_13();
        assert_eq!(r1.num_inputs(), 14);
        assert_eq!(r1.num_outputs(), 13);
        let r2 = RnsConverter::rns_7_11_13_17();
        assert_eq!(r2.num_inputs(), 16);
        assert_eq!(r2.num_outputs(), 15);
        let r3 = RnsConverter::rns_11_13_15_17();
        assert_eq!(r3.num_inputs(), 17);
        assert_eq!(r3.num_outputs(), 16);
    }

    #[test]
    fn paper_dc_ratios() {
        assert!((RnsConverter::rns_5_7_11_13().dc_ratio() - 0.695).abs() < 5e-4);
        assert!((RnsConverter::rns_7_11_13_17().dc_ratio() - 0.740).abs() < 5e-4);
        assert!((RnsConverter::rns_11_13_15_17().dc_ratio() - 0.722).abs() < 5e-4);
    }

    #[test]
    fn construction_matches_oracle_small() {
        let rns = RnsConverter::new(vec![3, 5]);
        let n = rns.num_inputs();
        let mut cf = Cf::build(rns.layout(), |mgr, layout| rns.build_isf(mgr, layout));
        for word in 0..1u64 << n {
            let input: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
            if let Response::Value(expect) = rns.respond(&input) {
                assert_eq!(cf.eval_completed(&input), expect, "input {word:#b}");
            }
        }
        assert!(cf.is_fully_live());
    }

    #[test]
    fn construction_matches_oracle_medium() {
        let rns = RnsConverter::new(vec![3, 5, 7]);
        let n = rns.num_inputs();
        let cf = Cf::build(rns.layout(), |mgr, layout| rns.build_isf(mgr, layout));
        // Exhaustive over the valid combinations.
        for residues in rns.digits().valid_combinations() {
            let word = rns.digits().encode(&residues);
            let input: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
            assert_eq!(
                cf.eval_completed(&input),
                value_to_word(rns.value_of(&residues), rns.num_outputs()),
                "residues {residues:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not coprime")]
    fn rejects_non_coprime_moduli() {
        let _ = RnsConverter::new(vec![4, 6]);
    }

    #[test]
    #[should_panic(expected = "22 input bits exceed the 17")]
    fn rejects_more_input_bits_than_a_table_serves() {
        let _ = RnsConverter::new(vec![11, 13, 15, 17, 19]);
    }
}
