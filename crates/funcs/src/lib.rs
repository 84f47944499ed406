//! Benchmark function generators for the paper's evaluation (§4):
//! residue-number-system converters, p-nary→binary radix converters,
//! BCD (decimal) adders and multipliers, and English word lists.
//!
//! Every generator implements [`Benchmark`]: it can
//!
//! * report its arity and analytic don't-care ratio,
//! * answer point queries ([`MultiOracle`]) — the ground truth for sampled
//!   end-to-end verification, and
//! * build its ON/OFF/DC sets as BDDs ([`Benchmark::build_isf`]). The
//!   radix converters and decimal adders (up to 32 inputs) are constructed
//!   with bit-vector arithmetic ([`bddcf_bdd::bv`]) and the word lists
//!   from their minterms, never by enumerating their up-to-`2^40`-row truth
//!   tables. The RNS converters and the decimal multiplier (at most 17
//!   inputs) tabulate their oracle ([`bddcf_logic::TruthTable::tabulate`])
//!   and reduce it bottom up ([`IsfBdds::from_truth_table`]), which makes
//!   no node outside the result, where bit-vector products and divisions
//!   made up to 55 times the nodes they kept.
//!
//! # Output numbering
//!
//! Output `0` is the **most significant** bit of the numeric result, so the
//! paper's partition `F₁ = (f₁ … f⌈m/2⌉)` (the high half) is output range
//! `0..⌈m/2⌉` and `F₂` (the "least significant bits" the paper highlights)
//! is `⌈m/2⌉..m`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcd;
pub mod digits;
pub mod radix;
pub mod registry;
pub mod rns;
pub mod words;

pub use bcd::{DecimalAdder, DecimalMultiplier};
pub use radix::{BinaryToRadix, RadixConverter};
pub use registry::{small_benchmarks, table4_benchmarks, BenchmarkEntry};
pub use rns::RnsConverter;
pub use words::WordList;

use bddcf_bdd::BddManager;
use bddcf_core::{CfLayout, IsfBdds};
use bddcf_logic::MultiOracle;

/// A named benchmark function that can be queried pointwise and built as
/// BDDs.
pub trait Benchmark: MultiOracle {
    /// Display name, e.g. `"5-7-11-13 RNS"`.
    fn name(&self) -> String;

    /// Builds the ON/OFF/DC sets over the input variables of `mgr`
    /// (laid out per `layout`).
    fn build_isf(&self, mgr: &mut BddManager, layout: &CfLayout) -> IsfBdds;

    /// The layout matching this benchmark's arity.
    fn layout(&self) -> CfLayout {
        CfLayout::new(self.num_inputs(), self.num_outputs())
    }

    /// Analytic input-don't-care ratio (§4.1's formula where applicable).
    fn dc_ratio(&self) -> f64;

    /// A structurally good initial variable order (full layout, inputs and
    /// outputs, top to bottom), when the generator knows one — e.g. the
    /// digit-interleaved order of the decimal adders, whose carry-chain
    /// structure single-variable sifting cannot discover from the block
    /// order. Must satisfy Definition 2.4. `None` means the default
    /// inputs-then-outputs order.
    fn preferred_order(&self) -> Option<Vec<bddcf_bdd::Var>> {
        None
    }
}

/// Creates the manager (honouring the benchmark's preferred order), builds
/// the ISF, and returns all three pieces — the common preamble of every
/// experiment.
pub fn build_isf_pieces(benchmark: &dyn Benchmark) -> (BddManager, CfLayout, IsfBdds) {
    let layout = benchmark.layout();
    let mut mgr = layout.new_manager();
    if let Some(order) = benchmark.preferred_order() {
        mgr.set_order(&order);
    }
    let isf = benchmark.build_isf(&mut mgr, &layout);
    (mgr, layout, isf)
}

/// Packs a numeric `value` of `m` bits into the output word convention
/// (output 0 = MSB ⇒ response bit `j` = value bit `m-1-j`).
pub fn value_to_word(value: u64, m: usize) -> u64 {
    let mut word = 0u64;
    for j in 0..m {
        if value >> (m - 1 - j) & 1 == 1 {
            word |= 1 << j;
        }
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_word_roundtrip() {
        // value 0b101 over 3 outputs: output0 (MSB)=1, output1=0, output2=1.
        assert_eq!(value_to_word(0b101, 3), 0b101);
        // value 0b100: output0=1 -> word bit0 =1; others 0.
        assert_eq!(value_to_word(0b100, 3), 0b001);
        assert_eq!(value_to_word(0b001, 3), 0b100);
    }
}
