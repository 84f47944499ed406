//! Property tests for the symbolic bit-vector arithmetic: every operation
//! is compared against native `u64` arithmetic over random symbolic
//! operand widths and assignments.

use bddcf_bdd::bv;
use bddcf_bdd::{BddManager, Var};
use proptest::prelude::*;

/// Builds a manager with two symbolic operands of `wa` and `wb` bits.
fn operands(wa: usize, wb: usize) -> (BddManager, bv::BitVec, bv::BitVec) {
    let mut mgr = BddManager::new(wa + wb);
    let a = (0..wa).map(|i| mgr.var(Var(i as u32))).collect();
    let b = (wa..wa + wb).map(|i| mgr.var(Var(i as u32))).collect();
    (mgr, a, b)
}

fn assignment(wa: usize, wb: usize, va: u64, vb: u64) -> Vec<bool> {
    (0..wa)
        .map(|i| va >> i & 1 == 1)
        .chain((0..wb).map(|i| vb >> i & 1 == 1))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_matches_u64(wa in 1usize..7, wb in 1usize..7, seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let (mut mgr, a, b) = operands(wa, wb);
        let sum = bv::add(&mut mgr, &a, &b);
        let va = seed_a & ((1 << wa) - 1);
        let vb = seed_b & ((1 << wb) - 1);
        let assignment = assignment(wa, wb, va, vb);
        prop_assert_eq!(bv::eval(&mgr, &sum, &assignment), va + vb);
    }

    #[test]
    fn sub_matches_u64_when_no_borrow(w in 2usize..7, seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let (mut mgr, a, b) = operands(w, w);
        let (diff, borrow) = bv::sub(&mut mgr, &a, &b);
        let va = seed_a & ((1 << w) - 1);
        let vb = seed_b & ((1 << w) - 1);
        let assignment = assignment(w, w, va, vb);
        prop_assert_eq!(mgr.eval(borrow, &assignment), va < vb);
        if va >= vb {
            prop_assert_eq!(bv::eval(&mgr, &diff, &assignment), va - vb);
        }
    }

    #[test]
    fn mul_const_matches_u64(w in 1usize..8, c in 0u64..100, seed in any::<u64>()) {
        let (mut mgr, a, _) = operands(w, 1);
        let product = bv::mul_const(&mut mgr, &a, c);
        let va = seed & ((1 << w) - 1);
        let assignment = assignment(w, 1, va, 0);
        prop_assert_eq!(bv::eval(&mgr, &product, &assignment), va * c);
    }

    #[test]
    fn divmod_matches_u64(w in 1usize..9, m in 1u64..30, seed in any::<u64>()) {
        let (mut mgr, a, _) = operands(w, 1);
        let (q, r) = bv::divmod_const(&mut mgr, &a, m);
        let va = seed & ((1 << w) - 1);
        let assignment = assignment(w, 1, va, 0);
        prop_assert_eq!(bv::eval(&mgr, &q, &assignment), va / m);
        prop_assert_eq!(bv::eval(&mgr, &r, &assignment), va % m);
    }

    #[test]
    fn comparisons_match_u64(w in 1usize..8, c in 0u64..300, seed in any::<u64>()) {
        let (mut mgr, a, _) = operands(w, 1);
        let lt = bv::lt_const(&mut mgr, &a, c);
        let ge = bv::ge_const(&mut mgr, &a, c);
        let eq = bv::eq_const(&mut mgr, &a, c);
        let va = seed & ((1 << w) - 1);
        let assignment = assignment(w, 1, va, 0);
        prop_assert_eq!(mgr.eval(lt, &assignment), va < c);
        prop_assert_eq!(mgr.eval(ge, &assignment), va >= c);
        prop_assert_eq!(mgr.eval(eq, &assignment), va == c);
    }

    #[test]
    fn horner_digit_composition(digits in prop::collection::vec(0u64..10, 1..5)) {
        // value = Σ dᵢ 10^i built digit-serially must equal direct arithmetic.
        let w = 4 * digits.len();
        let mut mgr = BddManager::new(w);
        let mut value: bv::BitVec = Vec::new();
        for d in 0..digits.len() {
            let scaled = bv::mul_const(&mut mgr, &value, 10);
            let digit: bv::BitVec = (0..4).map(|b| mgr.var(Var((4 * d + b) as u32))).collect();
            value = bv::add(&mut mgr, &scaled, &digit);
        }
        let mut assignment = vec![false; w];
        let mut expect = 0u64;
        for (d, &digit) in digits.iter().enumerate() {
            expect = expect * 10 + digit;
            for b in 0..4 {
                assignment[4 * d + b] = digit >> b & 1 == 1;
            }
        }
        prop_assert_eq!(bv::eval(&mgr, &value, &assignment), expect);
    }
}
