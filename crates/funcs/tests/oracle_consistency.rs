//! Sampled consistency between every generator's BDD construction and its
//! arithmetic oracle: on specified inputs the completed BDD_for_CF must
//! equal the oracle word; on don't-care inputs anything is admissible by
//! construction (checked through the allowed-word sets where cheap). The
//! radix converters, adders and word lists are built symbolically, the RNS
//! converters and the multiplier from their tabulated oracles.

use bddcf_core::Cf;
use bddcf_funcs::{
    Benchmark, DecimalAdder, DecimalMultiplier, RadixConverter, RnsConverter, WordList,
};
use bddcf_logic::Response;

/// Deterministic xorshift so failures are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn check(benchmark: &dyn Benchmark, samples: usize) {
    let cf = Cf::build(benchmark.layout(), |mgr, layout| {
        benchmark.build_isf(mgr, layout)
    });
    let n = benchmark.num_inputs();
    let mut rng = Rng(0x1234_5678_9abc_def0 ^ n as u64);
    let mut checked = 0usize;
    let mut guard = 0usize;
    while checked < samples {
        guard += 1;
        assert!(guard < samples * 1000, "not enough specified inputs found");
        let word = rng.next() & ((1u64 << n) - 1);
        let input: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
        if let Response::Value(expect) = benchmark.respond(&input) {
            assert_eq!(
                cf.eval_completed(&input),
                expect,
                "{}: input {word:#x}",
                benchmark.name()
            );
            checked += 1;
        }
    }
}

#[test]
fn rns_5_7_11_13_matches_crt() {
    check(&RnsConverter::rns_5_7_11_13(), 200);
}

#[test]
fn radix_converters_match_horner() {
    check(&RadixConverter::new(11, 4), 150);
    check(&RadixConverter::new(13, 4), 150);
    check(&RadixConverter::new(5, 6), 150);
    check(&RadixConverter::new(3, 10), 150);
}

#[test]
fn three_digit_adder_matches_bcd_arithmetic() {
    check(&DecimalAdder::new(3), 150);
}

#[test]
fn two_digit_multiplier_matches_arithmetic() {
    check(&DecimalMultiplier::new(2), 150);
}

#[test]
fn word_list_matches_dictionary() {
    // Exact variant so random probes are specified (mostly index 0).
    let list = WordList::synthetic(64, false);
    let cf = Cf::build(list.layout(), |mgr, layout| list.build_isf(mgr, layout));
    // All registered words.
    for (i, &w) in list.encoded().iter().enumerate() {
        let input: Vec<bool> = (0..40).map(|b| w >> b & 1 == 1).collect();
        assert_eq!(cf.eval_completed(&input), (i + 1) as u64);
    }
    // Random non-words map to 0.
    let mut rng = Rng(7);
    for _ in 0..100 {
        let w = rng.next() & ((1u64 << 40) - 1);
        if list.encoded().contains(&w) {
            continue;
        }
        let input: Vec<bool> = (0..40).map(|b| w >> b & 1 == 1).collect();
        assert_eq!(cf.eval_completed(&input), 0);
    }
}
