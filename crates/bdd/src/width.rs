//! BDD width profiles (Definition 3.5 of the paper).
//!
//! The *width* of a BDD at height `k` is the number of edges crossing the
//! horizontal section between the variables at heights `k` and `k+1`, where
//!
//! * edges incident to the same node are counted once (so the width is the
//!   number of *distinct* nodes hanging below the cut),
//! * edges pointing to the constant 0 are not counted (this also implements
//!   the paper's footnote that all-zero columns are ignored, and Theorem
//!   3.1's rule that output-variable edges into constant 0 are ignored), and
//! * the width at height 0 is 1 by definition.
//!
//! Heights count from the bottom: the constant nodes have height 0 and the
//! root variable of a BDD over `t` variables has height `t`. The equivalent
//! *cut index* counts from the top: cut `c` lies just above the variable at
//! level `c` (so cut `0` is above the root variable and cut `t` is below the
//! bottom variable). `height k ⇔ cut t−k`.

use crate::manager::{BddManager, NodeId, FALSE};

/// The widths of a (multi-rooted) BDD at every cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WidthProfile {
    /// `cuts[c]` is the width at cut `c` (see module docs), `0 ≤ c ≤ t`.
    cuts: Vec<usize>,
}

impl WidthProfile {
    /// Width at cut `c` (counted from the top; see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `c > t`.
    pub fn at_cut(&self, c: usize) -> usize {
        self.cuts[c]
    }

    /// Width at height `k` (counted from the bottom, Definition 3.5).
    ///
    /// `at_height(0)` is 1 by definition.
    ///
    /// # Panics
    ///
    /// Panics if `k > t`.
    pub fn at_height(&self, k: usize) -> usize {
        if k == 0 {
            1
        } else {
            self.cuts[self.cuts.len() - 1 - k]
        }
    }

    /// Number of cuts, `t + 1` for a manager with `t` variables.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// True when the profile covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.cuts.len() <= 1
    }

    /// The maximum width over all cuts — the quantity the paper's Table 4
    /// reports as "maximum width".
    pub fn max(&self) -> usize {
        self.cuts.iter().copied().max().unwrap_or(1)
    }

    /// Sum of widths over all cuts — the cost function the paper uses for
    /// sifting ("the sum of the widths is used as the cost function").
    pub fn sum(&self) -> usize {
        self.cuts.iter().sum()
    }

    /// All cut widths, top to bottom.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }
}

impl BddManager {
    /// Computes the width profile of the (shared) BDD rooted at `roots`.
    ///
    /// For a single root this is Definition 3.5. For several roots, the
    /// external pointers to each root count as edges from above the top cut,
    /// which matches how a shared multi-rooted BDD is drawn.
    pub fn width_profile(&self, roots: &[NodeId]) -> WidthProfile {
        let t = self.num_vars();
        // A node n hangs below cut c iff some edge from above c points to
        // it and it lies at or below c: c ∈ (min-parent-level(n), level(n)],
        // where external root pointers count as parents at level −1. Each
        // node therefore contributes one contiguous cut range, accumulated
        // in a difference array — O(nodes), no per-cut sets.
        const UNSEEN: i64 = i64::MAX;
        let mut parent_level = vec![UNSEEN; self.arena_len()];
        let mut stack: Vec<NodeId> = Vec::with_capacity(roots.len());
        for &root in roots {
            if root != FALSE && parent_level[root.0 as usize] == UNSEEN {
                parent_level[root.0 as usize] = -1;
                stack.push(root);
            } else if root != FALSE {
                parent_level[root.0 as usize] = -1;
            }
        }
        while let Some(n) = stack.pop() {
            if self.is_const(n) {
                continue;
            }
            let level = i64::from(self.level_of_node(n));
            for child in [self.lo(n), self.hi(n)] {
                if child == FALSE {
                    continue;
                }
                let slot = &mut parent_level[child.0 as usize];
                if *slot == UNSEEN {
                    *slot = level;
                    stack.push(child);
                } else if level < *slot {
                    *slot = level;
                }
            }
        }
        let mut delta = vec![0i64; t + 2];
        for (idx, &min_parent_level) in parent_level.iter().enumerate() {
            if min_parent_level == UNSEEN {
                continue;
            }
            let n = self.brand(idx as u32);
            let lo = (min_parent_level + 1).max(0) as usize;
            let hi = (self.level_of_node(n) as usize).min(t);
            if lo <= hi {
                delta[lo] += 1;
                delta[hi + 1] -= 1;
            }
        }
        let mut cuts = Vec::with_capacity(t + 1);
        let mut acc = 0i64;
        for d in delta.iter().take(t + 1) {
            acc += d;
            cuts.push((acc.max(1)) as usize);
        }
        WidthProfile { cuts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Var;

    #[test]
    fn profile_of_a_literal() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(Var(0));
        let p = mgr.width_profile(&[a]);
        // Cut 0: root. Cut 1: TRUE (edge v0 -> TRUE skips level 1).
        // Cut 2: TRUE.
        assert_eq!(p.cuts(), &[1, 1, 1]);
        assert_eq!(p.max(), 1);
        assert_eq!(p.at_height(0), 1);
    }

    #[test]
    fn profile_of_xor_chain() {
        // XOR of n variables has width 2 everywhere strictly inside.
        let n = 5;
        let mut mgr = BddManager::new(n);
        let mut f = FALSE;
        for i in 0..n {
            let v = mgr.var(Var(i as u32));
            f = mgr.xor(f, v);
        }
        let p = mgr.width_profile(&[f]);
        assert_eq!(p.at_cut(0), 1, "only the root crosses the top cut");
        for c in 1..n {
            assert_eq!(p.at_cut(c), 2, "two parity classes at cut {c}");
        }
        assert_eq!(p.at_cut(n), 1, "only TRUE at the bottom (FALSE excluded)");
        assert_eq!(p.max(), 2);
        assert_eq!(p.sum(), 2 * (n - 1) + 2);
    }

    #[test]
    fn skipped_levels_still_cross() {
        // f = v0 AND v2 over vars {v0, v1, v2}: the edge from the v0 node to
        // the v2 node crosses the cut above v1.
        let mut mgr = BddManager::new(3);
        let a = mgr.var(Var(0));
        let c = mgr.var(Var(2));
        let f = mgr.and(a, c);
        let p = mgr.width_profile(&[f]);
        assert_eq!(p.cuts(), &[1, 1, 1, 1]);
        // Now f = (v0 AND v2) OR (NOT v0 AND NOT v2): two v2-classes cross cut 1.
        let na = mgr.not(a);
        let nc = mgr.not(c);
        let g0 = mgr.and(na, nc);
        let g = mgr.or(f, g0);
        let p = mgr.width_profile(&[g]);
        assert_eq!(p.at_cut(1), 2);
        assert_eq!(p.at_cut(2), 2);
    }

    #[test]
    fn multi_rooted_profile_unions_roots() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let p = mgr.width_profile(&[a, b]);
        // Cut 0: node(a) and node(b) both hang below the external pointers.
        assert_eq!(p.at_cut(0), 2);
        assert_eq!(p.at_cut(1), 2, "node(b) and TRUE (via a's hi edge)");
    }

    #[test]
    fn width_of_constants() {
        let mgr = BddManager::new(3);
        let p = mgr.width_profile(&[crate::TRUE]);
        assert_eq!(p.max(), 1);
        let p = mgr.width_profile(&[FALSE]);
        // All-zero: every cut is empty, clamped to the defined minimum 1.
        assert_eq!(p.max(), 1);
    }

    #[test]
    fn height_indexing_mirrors_cut_indexing() {
        let mut mgr = BddManager::new(4);
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let f = mgr.or(a, b);
        let p = mgr.width_profile(&[f]);
        let t = 4;
        for c in 0..=t {
            assert_eq!(p.at_cut(c), p.at_height(t - c));
        }
    }
}
