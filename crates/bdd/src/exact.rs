//! Exact minimum-max-width variable ordering for small functions.
//!
//! The width of a BDD at a cut (Definition 3.5) is the number of distinct
//! non-false cofactors of the function with respect to *all* assignments of
//! the variables above the cut — it depends only on the **set** of
//! variables above, not on their order. Minimizing the maximum width over
//! orders is therefore a Friedman–Supowit-style dynamic program over
//! variable subsets: `dp[S] = min over v ∈ S of max(w(S), dp[S − v])`,
//! where `w(S)` is the cofactor count with `S` on top.
//!
//! This is exponential (`O(2ⁿ·n)` plus cofactor bookkeeping) and intended
//! as a *verifier*: it bounds what sifting can achieve on small functions
//! and certifies Theorem-3.1 wire counts. Order constraints (Definition
//! 2.4) are not modelled, so for a BDD_for_CF the result is a lower bound.

use crate::hasher::FastSet;
use crate::manager::{BddManager, NodeId, Var, FALSE};

/// Result of [`BddManager::exact_min_max_width`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactWidth {
    /// The minimum achievable maximum cut width over all variable orders.
    pub max_width: usize,
    /// An order achieving it (top to bottom, all manager variables).
    pub order: Vec<Var>,
}

impl BddManager {
    /// Computes the exact minimum of the maximum cut width of `f` over all
    /// variable orders, and one optimal order.
    ///
    /// # Panics
    ///
    /// Panics if the manager has more than 16 variables (the subset DP
    /// would not fit).
    pub fn exact_min_max_width(&mut self, f: NodeId) -> ExactWidth {
        let n = self.num_vars();
        assert!(n <= 16, "exact width search limited to 16 variables");
        let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

        // cofactors[s] = distinct non-false cofactors of f after assigning
        // the variables of subset s (bit i = Var(i)) in all ways.
        let mut widths = vec![0usize; 1 << n];
        let mut cofactors: Vec<Option<Vec<NodeId>>> = vec![None; 1 << n];
        cofactors[0] = Some(if f == FALSE { vec![] } else { vec![f] });
        widths[0] = 1; // the external pointer to the root
        for s in 1u32..=full {
            // Expand from s with its lowest set bit removed.
            let v = s.trailing_zeros();
            let parent = s & !(1 << v);
            let base = cofactors[parent as usize]
                .clone()
                .expect("parents precede children in numeric order");
            let mut set: FastSet<NodeId> = FastSet::default();
            for g in base {
                for value in [false, true] {
                    let c = self.restrict(g, Var(v), value);
                    if c != FALSE {
                        set.insert(c);
                    }
                }
            }
            let mut list: Vec<NodeId> = set.into_iter().collect();
            list.sort_unstable();
            widths[s as usize] = list.len().max(1);
            cofactors[s as usize] = Some(list);
        }

        // dp[s] = minimal possible maximum width over all cuts once the
        // variables of s are above the cut, given an optimal completion of
        // the prefix; choice[s] = last variable added to reach that.
        let mut dp = vec![usize::MAX; 1 << n];
        let mut choice = vec![u32::MAX; 1 << n];
        dp[0] = widths[0];
        for s in 1u32..=full {
            let mut bits = s;
            while bits != 0 {
                let v = bits.trailing_zeros();
                bits &= bits - 1;
                let prev = s & !(1 << v);
                let candidate = dp[prev as usize].max(widths[s as usize]);
                if candidate < dp[s as usize] {
                    dp[s as usize] = candidate;
                    choice[s as usize] = v;
                }
            }
        }

        // Reconstruct the order, top variable first.
        let mut order = Vec::with_capacity(n);
        let mut s = full;
        while s != 0 {
            let v = choice[s as usize];
            order.push(Var(v));
            s &= !(1 << v);
        }
        order.reverse();
        ExactWidth {
            max_width: dp[full as usize],
            order,
        }
    }

    /// Rebuilds `roots` under the exact target order (a permutation of all
    /// variables, top to bottom) by repeated in-place adjacent swaps, then
    /// collects garbage as [`gc`](Self::gc) does.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the manager's variables.
    pub fn rebuild_order(&mut self, roots: &[NodeId], order: &[Var]) -> Vec<NodeId> {
        assert_eq!(
            order.len(),
            self.num_vars(),
            "order must cover all variables"
        );
        let mut seen = vec![false; self.num_vars()];
        for &v in order {
            assert!(
                !std::mem::replace(&mut seen[v.0 as usize], true),
                "duplicate {v:?} in order"
            );
        }
        self.move_vars_in_place(roots, order.iter().copied().zip(0u32..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TRUE;
    use crate::reorder::{ReorderCost, SiftConstraints};

    fn interleaved(mgr: &mut BddManager) -> NodeId {
        // v0·v2 ∨ v1·v3: optimal orders pair the factors.
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let c = mgr.var(Var(2));
        let d = mgr.var(Var(3));
        let ac = mgr.and(a, c);
        let bd = mgr.and(b, d);
        mgr.or(ac, bd)
    }

    #[test]
    fn exact_finds_the_known_optimum() {
        let mut mgr = BddManager::new(4);
        let f = interleaved(&mut mgr);
        let exact = mgr.exact_min_max_width(f);
        // With (v0 v2 v1 v3) the widths are 1,2,2,2,1: max 2.
        assert_eq!(exact.max_width, 2);
        let roots = mgr.rebuild_order(&[f], &exact.order);
        assert_eq!(mgr.width_profile(&[roots[0]]).max(), exact.max_width);
    }

    #[test]
    fn exact_is_a_lower_bound_for_sifting() {
        let mut mgr = BddManager::new(5);
        // A lopsided function: (v0 XOR v3) AND (v1 OR v4) AND v2.
        let x03 = {
            let a = mgr.var(Var(0));
            let d = mgr.var(Var(3));
            mgr.xor(a, d)
        };
        let o14 = {
            let b = mgr.var(Var(1));
            let e = mgr.var(Var(4));
            mgr.or(b, e)
        };
        let c = mgr.var(Var(2));
        let t = mgr.and(x03, o14);
        let f = mgr.and(t, c);
        let exact = mgr.exact_min_max_width(f);
        let sifted = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::SumOfWidths, 3);
        let sift_width = mgr.width_profile(&[sifted[0]]).max();
        assert!(
            exact.max_width <= sift_width,
            "exact {} must lower-bound sifting {}",
            exact.max_width,
            sift_width
        );
    }

    #[test]
    fn exact_on_constants_and_literals() {
        let mut mgr = BddManager::new(3);
        assert_eq!(mgr.exact_min_max_width(TRUE).max_width, 1);
        assert_eq!(mgr.exact_min_max_width(FALSE).max_width, 1);
        let a = mgr.var(Var(1));
        assert_eq!(mgr.exact_min_max_width(a).max_width, 1);
    }

    #[test]
    fn exact_width_of_parity_is_two() {
        // Parity is width-2 in every order: the DP must report exactly 2.
        let mut mgr = BddManager::new(4);
        let mut f = FALSE;
        for i in 0..4 {
            let v = mgr.var(Var(i));
            f = mgr.xor(f, v);
        }
        let exact = mgr.exact_min_max_width(f);
        assert_eq!(exact.max_width, 2);
    }

    #[test]
    fn rebuild_order_preserves_semantics() {
        let mut mgr = BddManager::new(4);
        let f = interleaved(&mut mgr);
        let truth: Vec<bool> = (0..16u32)
            .map(|bits| {
                let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect();
        let roots = mgr.rebuild_order(&[f], &[Var(3), Var(1), Var(2), Var(0)]);
        assert_eq!(mgr.order(), &[Var(3), Var(1), Var(2), Var(0)]);
        for (bits, expect) in (0..16u32).zip(truth) {
            let a: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(mgr.eval(roots[0], &a), expect);
        }
    }
}
