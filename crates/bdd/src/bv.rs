//! Symbolic unsigned bit-vector arithmetic over BDDs.
//!
//! A bit-vector is a `Vec<NodeId>`, least-significant bit first; each bit is
//! a Boolean function of the manager's variables. This module provides the
//! adders, constant multipliers, comparators, and division by a constant
//! needed to construct the paper's radix converters and BCD adders
//! *symbolically*, without enumerating their truth tables — the 4-digit
//! decimal adder alone has 10⁸ care minterms. (The residue-number-system
//! converters and the decimal multiplier, at most 17 inputs, are built
//! from their tabulated oracles instead.)
//!
//! All operations are purely combinational and allocate nodes in the given
//! [`BddManager`].

#![allow(clippy::needless_range_loop)] // index loops mirror the bit-position arithmetic
use crate::manager::{BddManager, NodeId, FALSE, TRUE};

/// A symbolic unsigned integer: bit `i` of the value is `bits[i]`
/// (LSB first). The empty vector denotes the constant 0.
pub type BitVec = Vec<NodeId>;

/// The constant `value` as a bit-vector of exactly `width` bits.
///
/// # Panics
///
/// Panics if `value` does not fit in `width` bits.
pub fn constant(value: u64, width: usize) -> BitVec {
    assert!(
        width >= 64 || value >> width == 0,
        "constant {value} does not fit in {width} bits"
    );
    (0..width)
        .map(|i| if value >> i & 1 == 1 { TRUE } else { FALSE })
        .collect()
}

/// Minimum number of bits to represent `value` (at least 1).
pub fn bits_for(value: u64) -> usize {
    (64 - value.leading_zeros()).max(1) as usize
}

/// Zero-extends (or truncates, asserting the dropped bits are constant
/// false) to `width` bits.
pub fn resize(bv: &BitVec, width: usize) -> BitVec {
    let mut out = bv.clone();
    if out.len() > width {
        assert!(
            out[width..].iter().all(|&b| b == FALSE),
            "resize would truncate non-zero bits"
        );
        out.truncate(width);
    } else {
        out.resize(width, FALSE);
    }
    out
}

/// Left shift by `k` bits (multiply by 2^k).
pub fn shl(bv: &BitVec, k: usize) -> BitVec {
    let mut out = vec![FALSE; k];
    out.extend_from_slice(bv);
    out
}

/// Full addition: `a + b`, with one extra carry-out bit.
pub fn add(mgr: &mut BddManager, a: &BitVec, b: &BitVec) -> BitVec {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    let mut out = Vec::with_capacity(width + 1);
    let mut carry = FALSE;
    for i in 0..width {
        let axb = mgr.xor(a[i], b[i]);
        let sum = mgr.xor(axb, carry);
        let ab = mgr.and(a[i], b[i]);
        let cx = mgr.and(axb, carry);
        carry = mgr.or(ab, cx);
        out.push(sum);
    }
    out.push(carry);
    out
}

/// Adds the constant `c` to `a` (with carry-out).
pub fn add_const(mgr: &mut BddManager, a: &BitVec, c: u64) -> BitVec {
    let width = a.len().max(bits_for(c));
    add(mgr, a, &constant(c, width))
}

/// Subtraction `a - b`, assuming `a ≥ b` whenever `assume_ge` holds; the
/// final borrow bit is returned alongside (`TRUE` iff `a < b`).
pub fn sub(mgr: &mut BddManager, a: &BitVec, b: &BitVec) -> (BitVec, NodeId) {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    let mut out = Vec::with_capacity(width);
    let mut borrow = FALSE;
    for i in 0..width {
        let axb = mgr.xor(a[i], b[i]);
        let diff = mgr.xor(axb, borrow);
        // borrow' = ¬a·b ∨ borrow·¬(a⊕b)
        let na = mgr.not(a[i]);
        let nab = mgr.and(na, b[i]);
        let nx = mgr.not(axb);
        let bx = mgr.and(borrow, nx);
        borrow = mgr.or(nab, bx);
        out.push(diff);
    }
    (out, borrow)
}

/// Per-bit multiplexer: `if cond then a else b`.
pub fn select(mgr: &mut BddManager, cond: NodeId, a: &BitVec, b: &BitVec) -> BitVec {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    (0..width).map(|i| mgr.ite(cond, a[i], b[i])).collect()
}

/// Multiplication by a constant, via shift-and-add over the set bits of `c`.
pub fn mul_const(mgr: &mut BddManager, a: &BitVec, c: u64) -> BitVec {
    if c == 0 || a.is_empty() {
        return Vec::new();
    }
    let mut acc: BitVec = Vec::new();
    for bit in 0..64 {
        if c >> bit & 1 == 1 {
            let shifted = shl(a, bit);
            acc = add(mgr, &acc, &shifted);
        }
    }
    acc
}

/// The predicate `a < c` for a constant `c`.
pub fn lt_const(mgr: &mut BddManager, a: &BitVec, c: u64) -> NodeId {
    // Compare from the most significant bit down.
    let mut result = FALSE; // equality so far falls through to "not less"
    for i in 0..a.len() {
        let cbit = c >> i & 1 == 1;
        result = if cbit {
            // a_i = 0 -> less; a_i = 1 -> defer to lower bits.
            mgr.ite(a[i], result, TRUE)
        } else {
            // a_i = 1 -> greater; a_i = 0 -> defer.
            mgr.ite(a[i], FALSE, result)
        };
    }
    // Bits of c above a's width: if any is 1, a < c whenever the prefix says
    // "equal", and the loop result already assumed those bits equal (0 in a).
    if a.len() < 64 && c >> a.len() != 0 {
        return TRUE;
    }
    result
}

/// The predicate `a ≥ c` for a constant `c`.
pub fn ge_const(mgr: &mut BddManager, a: &BitVec, c: u64) -> NodeId {
    let lt = lt_const(mgr, a, c);
    mgr.not(lt)
}

/// The predicate `a = c` for a constant `c`.
pub fn eq_const(mgr: &mut BddManager, a: &BitVec, c: u64) -> NodeId {
    if a.len() < 64 && c >> a.len() != 0 {
        return FALSE;
    }
    let mut acc = TRUE;
    for (i, &bit) in a.iter().enumerate() {
        let want = c >> i & 1 == 1;
        let lit = if want { bit } else { mgr.not(bit) };
        acc = mgr.and(acc, lit);
    }
    acc
}

/// The predicate `a = b` for two bit-vectors.
pub fn eq(mgr: &mut BddManager, a: &BitVec, b: &BitVec) -> NodeId {
    let width = a.len().max(b.len());
    let a = resize(a, width);
    let b = resize(b, width);
    let mut acc = TRUE;
    for i in 0..width {
        let same = mgr.iff(a[i], b[i]);
        acc = mgr.and(acc, same);
    }
    acc
}

/// Quotient and remainder of `a / m` for a constant `m`, by symbolic
/// restoring division (conditional subtraction of `m · 2^j`).
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn divmod_const(mgr: &mut BddManager, a: &BitVec, m: u64) -> (BitVec, BitVec) {
    assert!(m > 0, "division by zero");
    if a.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut rem = a.clone();
    let mbits = bits_for(m);
    if a.len() < mbits {
        return (vec![FALSE; 1], rem);
    }
    let top = a.len() - mbits;
    let mut quot = vec![FALSE; top + 1];
    for j in (0..=top).rev() {
        let shifted = shl(&constant(m, mbits), j); // the constant m·2^j
        let (diff, borrow) = sub(mgr, &rem, &shifted);
        let fits = mgr.not(borrow); // rem ≥ m·2^j
        rem = select(mgr, fits, &diff, &rem);
        quot[j] = fits;
    }
    // The remainder is < m, so it fits in mbits bits; the upper bits are
    // identically false but we keep the caller's width and let them resize.
    (quot, rem)
}

/// Evaluates a bit-vector under a total assignment, returning its numeric
/// value.
pub fn eval(mgr: &BddManager, bv: &BitVec, assignment: &[bool]) -> u64 {
    let mut v = 0u64;
    for (i, &bit) in bv.iter().enumerate() {
        if mgr.eval(bit, assignment) {
            v |= 1 << i;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Var;

    /// A 4-bit symbolic input over vars v0..v3 plus an exhaustive checker.
    fn with_nibble(
        check: impl Fn(&mut BddManager, &BitVec, &dyn Fn(&BddManager, &BitVec, u64) -> u64),
    ) {
        let mut mgr = BddManager::new(4);
        let x: BitVec = (0..4).map(|i| mgr.var(Var(i))).collect();
        let evaluate = |mgr: &BddManager, bv: &BitVec, input: u64| -> u64 {
            let assignment: Vec<bool> = (0..4).map(|i| input >> i & 1 == 1).collect();
            eval(mgr, bv, &assignment)
        };
        check(&mut mgr, &x, &evaluate);
    }

    #[test]
    fn constant_roundtrip() {
        let c = constant(13, 6);
        let mgr = BddManager::new(1);
        assert_eq!(eval(&mgr, &c, &[false]), 13);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn constant_too_wide_panics() {
        let _ = constant(16, 4);
    }

    #[test]
    fn add_is_correct_exhaustively() {
        with_nibble(|mgr, x, evaluate| {
            let s = add_const(mgr, x, 9);
            for input in 0..16 {
                assert_eq!(evaluate(mgr, &s, input), input + 9);
            }
        });
    }

    #[test]
    fn symbolic_plus_symbolic() {
        // Two independent 3-bit operands over 6 variables.
        let mut mgr = BddManager::new(6);
        let a: BitVec = (0..3).map(|i| mgr.var(Var(i))).collect();
        let b: BitVec = (3..6).map(|i| mgr.var(Var(i))).collect();
        let s = add(&mut mgr, &a, &b);
        for va in 0..8u64 {
            for vb in 0..8u64 {
                let assignment: Vec<bool> = (0..6)
                    .map(|i| {
                        if i < 3 {
                            va >> i & 1 == 1
                        } else {
                            vb >> (i - 3) & 1 == 1
                        }
                    })
                    .collect();
                assert_eq!(eval(&mgr, &s, &assignment), va + vb);
            }
        }
    }

    #[test]
    fn sub_reports_borrow() {
        with_nibble(|mgr, x, evaluate| {
            let seven = constant(7, 4);
            let (d, borrow) = sub(mgr, x, &seven);
            for input in 0..16i64 {
                let assignment: Vec<bool> = (0..4).map(|i| input >> i & 1 == 1).collect();
                let got_borrow = mgr.eval(borrow, &assignment);
                assert_eq!(got_borrow, input < 7, "borrow for {input}");
                if input >= 7 {
                    assert_eq!(evaluate(mgr, &d, input as u64) as i64, input - 7);
                }
            }
        });
    }

    #[test]
    fn mul_const_matches_arithmetic() {
        with_nibble(|mgr, x, evaluate| {
            let m = mul_const(mgr, x, 11);
            for input in 0..16 {
                assert_eq!(evaluate(mgr, &m, input), input * 11);
            }
            assert!(mul_const(mgr, x, 0).is_empty());
        });
    }

    #[test]
    fn comparisons_exhaustive() {
        with_nibble(|mgr, x, _| {
            for c in 0..20u64 {
                let lt = lt_const(mgr, x, c);
                let ge = ge_const(mgr, x, c);
                let eqc = eq_const(mgr, x, c);
                for input in 0..16u64 {
                    let assignment: Vec<bool> = (0..4).map(|i| input >> i & 1 == 1).collect();
                    assert_eq!(mgr.eval(lt, &assignment), input < c, "{input} < {c}");
                    assert_eq!(mgr.eval(ge, &assignment), input >= c);
                    assert_eq!(mgr.eval(eqc, &assignment), input == c);
                }
            }
        });
    }

    #[test]
    fn divmod_exhaustive() {
        with_nibble(|mgr, x, evaluate| {
            for m in 1..=13u64 {
                let (q, r) = divmod_const(mgr, x, m);
                for input in 0..16 {
                    assert_eq!(evaluate(mgr, &q, input), input / m, "{input} / {m}");
                    assert_eq!(evaluate(mgr, &r, input), input % m, "{input} % {m}");
                }
            }
        });
    }

    #[test]
    fn select_muxes() {
        let mut mgr = BddManager::new(1);
        let cond = mgr.var(Var(0));
        let a = constant(5, 4);
        let b = constant(10, 4);
        let s = select(&mut mgr, cond, &a, &b);
        assert_eq!(eval(&mgr, &s, &[true]), 5);
        assert_eq!(eval(&mgr, &s, &[false]), 10);
    }

    #[test]
    fn eq_of_vectors() {
        let mut mgr = BddManager::new(2);
        let a = vec![mgr.var(Var(0))];
        let b = vec![mgr.var(Var(1))];
        let e = eq(&mut mgr, &a, &b);
        assert!(mgr.eval(e, &[true, true]));
        assert!(mgr.eval(e, &[false, false]));
        assert!(!mgr.eval(e, &[true, false]));
    }

    #[test]
    fn resize_pads_and_checks() {
        let c = constant(3, 2);
        let r = resize(&c, 5);
        assert_eq!(r.len(), 5);
        let mgr = BddManager::new(1);
        assert_eq!(eval(&mgr, &r, &[false]), 3);
        let back = resize(&r, 2);
        assert_eq!(back.len(), 2);
    }

    #[test]
    #[should_panic(expected = "truncate")]
    fn resize_refuses_losing_bits() {
        let c = constant(9, 4);
        let _ = resize(&c, 2);
    }
}
