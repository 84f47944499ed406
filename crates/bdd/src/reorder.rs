//! Dynamic variable reordering: adjacent level swaps and Rudell-style
//! sifting with precedence constraints.
//!
//! The paper optimises BDD_for_CF variable orders "by sifting algorithm
//! \[12\], where the sum of the widths is used as the cost function". A
//! BDD_for_CF additionally requires each output variable to stay *below*
//! every support variable of its function (Definition 2.4); the
//! [`SiftConstraints`] type expresses such precedence requirements and the
//! sifter never visits a violating position.
//!
//! # Implementation
//!
//! Every reorder — [`BddManager::sift`], [`BddManager::legalize_order`],
//! [`BddManager::move_var_to_level`] and
//! [`BddManager::rebuild_order`] — runs on one *in-place* adjacent swap
//! (`swap_in_place`, crate-private) over per-cut *crossing sets*: `S(c)`
//! is the set of distinct non-`FALSE` nodes hanging below cut `c`, so
//! `|S(c)|` is the Definition 3.5 width, and the members of `S(l)` at
//! level `l` are exactly the live nodes of that level (their parents all
//! sit above it). By canonicity `S(c)` holds the nodes of the distinct
//! non-zero cofactors with respect to the *set* of variables above cut
//! `c`. The swap of `l` and `l + 1` rewrites those live nodes where they
//! sit, so every live id keeps its function, and every cut except `l + 1`
//! keeps its set of variables above: every `S(k)` with `k ≠ l + 1` is
//! unchanged as a set of ids, and the swap recomputes
//! `S(l + 1) = (S(l) minus its level-l nodes) ∪ (their non-FALSE children)`
//! in the same pass over `S(l)` that rewrites. A swap therefore costs and
//! is priced in O(width). The sets are built in one sweep once per walk.
//!
//! The swap also frees its *orphans*: the live `v`-nodes it leaves with no
//! live parent and no root pointer. After the swap `u` sits below `v`, so
//! no `u`-node points at a `v`-node, and an old `v`-node stays live only if
//! an edge from above cut `l` or a root reaches it, which is membership in
//! `S(l)`. So the orphans are exactly the `v`-labelled members of the old
//! `S(l + 1)` that are not in `S(l)`. Every child of an orphan is a child
//! of a rewritten node's new cofactors (or is one), so nothing deeper is
//! orphaned, and no reference counts are needed. The swap unlinks each
//! orphan and pushes its slot on the walk's free list, which later
//! cofactor `mk`s take before they grow the arena. A walk that starts on a
//! collected arena therefore keeps the unique table at exactly the live
//! nodes after every swap.
//!
//! The swap never reads or rewrites garbage. That is sound because:
//!
//! 1. a member of `S(l)` at level `l` is live, hence tabled, so unlinking
//!    it before its rewrite always succeeds (`debug_assert`-ed), and so
//!    does unlinking an orphan;
//! 2. if the rewritten key `(v, G0, G1)` is already tabled by some `H`,
//!    `H` is garbage — before the swap `u` sat above `v`, so a `v`-node
//!    with a `u`-labelled child broke the order and cannot have been live
//!    — and the swap unlinks it unconditionally;
//! 3. garbage keeps its fields, so it may stay tabled under a key that
//!    breaks the current order, or names a child whose freed slot now holds
//!    another node, but `mk` never returns such a node: it builds its key
//!    from live children below the variable, and a tabled node whose key
//!    matches has exactly the fields `mk` would build, so finding it is a
//!    sound resurrection;
//! 4. nothing else reads the arena mid-walk: every public reorder collects
//!    before returning, and the debug cost recount walks from the roots.
//!
//! Points 2 and 3 arise only in a walk that starts with tabled garbage: the
//! legalize moves, which run before a sift's opening collection, and
//! `legalize_order`, `move_var_to_level` and `rebuild_order` on an arena
//! that was not just collected. Until the walk's closing collection the
//! arena is *staged*: rewritten nodes and reused slots need not follow
//! their children, and garbage from before the walk lingers. A sift
//! collects exactly twice, when it starts and when it ends. The functional
//! [`BddManager::swap_adjacent`] remains as the reference the tests compare
//! against; no reorder uses it. All operation caches are cleared on a swap:
//! the entries stay function-correct, but clearing is an O(1) generation
//! bump and keeps every cached id accountable to the live arena.

use crate::budget::Error;
use crate::manager::{BddManager, NodeId, Var, FALSE};
use crate::table::ScratchMap;

/// Cost function minimised by [`BddManager::sift`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReorderCost {
    /// Total number of distinct nodes reachable from the roots.
    NodeCount,
    /// Sum of the cut widths (the paper's choice for BDD_for_CF sifting).
    SumOfWidths,
}

/// Precedence constraints for sifting: pairs `(above, below)` meaning
/// `above` must stay at a strictly smaller level than `below`.
#[derive(Clone, Debug, Default)]
pub struct SiftConstraints {
    pairs: Vec<(Var, Var)>,
}

impl SiftConstraints {
    /// No constraints: every permutation is allowed.
    pub fn none() -> Self {
        Self::default()
    }

    /// Requires `above` to stay above (smaller level than) `below`.
    pub fn require_above(&mut self, above: Var, below: Var) -> &mut Self {
        self.pairs.push((above, below));
        self
    }

    /// All constraint pairs `(above, below)`.
    pub fn pairs(&self) -> &[(Var, Var)] {
        &self.pairs
    }

    /// The allowed level window `[min, max]` for `var` given the current
    /// positions of all other variables in `mgr`.
    fn window(&self, mgr: &BddManager, var: Var) -> (u32, u32) {
        let mut min = 0u32;
        let mut max = mgr.num_vars() as u32 - 1;
        for &(a, b) in &self.pairs {
            if b == var {
                min = min.max(mgr.level_of(a) + 1);
            }
            if a == var {
                max = max.min(mgr.level_of(b).saturating_sub(1));
            }
        }
        (min, max)
    }

    /// Checks that the current order of `mgr` satisfies every constraint.
    pub fn check(&self, mgr: &BddManager) -> bool {
        self.pairs
            .iter()
            .all(|&(a, b)| mgr.level_of(a) < mgr.level_of(b))
    }
}

impl BddManager {
    /// Swaps the variables at `level` and `level + 1` and rebuilds the BDDs
    /// rooted at `roots`, returning the remapped roots (same order).
    ///
    /// This is the *functional* swap: it rebuilds every ancestor of the
    /// swapped level bottom-up, so the arena stays in
    /// children-precede-parents order throughout, at O(above-cut region)
    /// per swap. The reorders use the in-place swap instead; this one is
    /// kept as the independent reference the tests compare against.
    ///
    /// Roots must cover *every* function the caller wants to keep valid:
    /// nodes not reachable from `roots` are not rebuilt and must not be used
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid level.
    pub fn swap_adjacent(&mut self, level: u32, roots: &[NodeId]) -> Vec<NodeId> {
        let t = self.num_vars() as u32;
        assert!(level + 1 < t, "swap_adjacent: level {level} out of range");
        let u = self.var_at(level);
        let v = self.var_at(level + 1);
        // Install the new order first so mk() builds valid nodes.
        self.swap_order_entries(u, v);
        self.clear_caches();
        // The memo is keyed by pre-swap node ids, all below the arena
        // length now, so it never hashes.
        let mut memo = ScratchMap::default();
        memo.begin(self.arena_len());
        let result = roots
            .iter()
            .map(|&r| self.swap_rebuild(r, u, v, level, &mut memo))
            .collect();
        self.clear_caches();
        result
    }

    /// Swaps the variables at `level` and `level + 1` **in place**, in one
    /// pass over `S(level)` of `sets`, which must be current for the
    /// manager (see the module docs). Each live upper-level node
    /// `X = (u, f0, f1)` with a `v`-labelled child is unlinked, its swapped
    /// cofactors `G0 = mk(u, f00, f10)` and `G1 = mk(u, f01, f11)` are
    /// found or inserted, and `X` is rewritten to `(v, G0, G1)` and
    /// relinked, displacing a garbage twin that holds the key; every other
    /// node slides down a level untouched. The same pass recounts
    /// `S(level + 1)` and marks the `v`-nodes that stay live; the swap then
    /// frees the other live `v`-nodes, its orphans, onto the walk's free
    /// list, which the cofactors of later swaps reuse. Ancestors and roots
    /// keep their ids, and the swap costs O(width at the swapped cuts).
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid level.
    fn swap_in_place(&mut self, sets: &mut CrossingSets, level: u32) {
        let t = self.num_vars() as u32;
        assert!(level + 1 < t, "swap_in_place: level {level} out of range");
        let u = self.var_at(level);
        let v = self.var_at(level + 1);
        // Install the new order first so the cofactors are built valid: u
        // now sits at `level + 1`, v at `level`.
        self.swap_order_entries(u, v);
        self.clear_caches();
        let CrossingSets {
            sets,
            level_nodes,
            seen,
            spare,
            free,
        } = sets;
        let l = level as usize;
        let mut below = std::mem::take(spare);
        seen.begin(self.arena_len());
        let (mut rewrites, mut at_level, mut next_level) = (0, 0, 0);
        for &raw in &sets[l] {
            let (var, lo, hi) = self.fields(raw);
            let hanging = if var == u.0 {
                let (lo_var, lo0, lo1) = self.fields(lo.0);
                let (hi_var, hi0, hi1) = self.fields(hi.0);
                if lo_var != v.0 && hi_var != v.0 {
                    [self.brand(raw), FALSE] // no interaction: X slides down one level
                } else {
                    let (f00, f01) = if lo_var == v.0 { (lo0, lo1) } else { (lo, lo) };
                    let (f10, f11) = if hi_var == v.0 { (hi0, hi1) } else { (hi, hi) };
                    // Unlink first, so the cofactors cannot find X under its old key.
                    let tabled = self.unique_unlink_checked(raw);
                    debug_assert!(tabled, "a live node is always tabled");
                    let g0 = self.find_or_insert(u, f00, f10, free);
                    let g1 = self.find_or_insert(u, f01, f11, free);
                    // X depends on v (a child is v-labelled), so its
                    // v-cofactors differ: the rewritten node is never redundant.
                    debug_assert_ne!(g0, g1);
                    self.relink_as(raw, v, g0, g1);
                    rewrites += 1;
                    at_level += 1;
                    [g0, g1]
                }
            } else if var == v.0 {
                // Reached from above cut `level`, so it stays live. No
                // v-node hangs below cut `level + 1` now, so the mark
                // cannot be mistaken for an admission.
                seen.set(raw, 0);
                at_level += 1;
                [lo, hi]
            } else {
                [self.brand(raw), FALSE] // hangs below the cut from higher up
            };
            for m in hanging {
                if admit(seen, &mut below, m) && self.fields(m.0).0 == u.0 {
                    next_level += 1;
                }
            }
        }
        let mut reclaimed = 0;
        for &raw in &sets[l + 1] {
            if self.fields(raw).0 == v.0 && seen.get(raw).is_none() {
                let tabled = self.unique_unlink_checked(raw);
                debug_assert!(tabled, "a live node is always tabled");
                free.push(raw);
                reclaimed += 1;
            }
        }
        *spare = std::mem::replace(&mut sets[l + 1], below);
        spare.clear();
        level_nodes[l] = at_level;
        level_nodes[l + 1] = next_level;
        self.count_swap(rewrites, reclaimed);
    }

    fn swap_order_entries(&mut self, u: Var, v: Var) {
        let lu = self.level_of(u);
        let lv = self.level_of(v);
        self.set_levels_raw(u, lv, v, lu);
    }

    fn swap_rebuild(
        &mut self,
        n: NodeId,
        u: Var,
        v: Var,
        level: u32,
        memo: &mut ScratchMap,
    ) -> NodeId {
        if self.is_const(n) {
            return n;
        }
        if let Some(r) = memo.get(n.0) {
            return self.brand(r);
        }
        let w = self.var_of(n);
        let r = if w == v {
            // Previously below u; children were strictly below the pair and
            // remain so — the node is untouched.
            n
        } else if w == u {
            let lo = self.lo(n);
            let hi = self.hi(n);
            let lo_is_v = !self.is_const(lo) && self.var_of(lo) == v;
            let hi_is_v = !self.is_const(hi) && self.var_of(hi) == v;
            if !lo_is_v && !hi_is_v {
                // u does not interact with v here; moving u down one level
                // keeps the node valid.
                n
            } else {
                let (f00, f01) = if lo_is_v {
                    (self.lo(lo), self.hi(lo))
                } else {
                    (lo, lo)
                };
                let (f10, f11) = if hi_is_v {
                    (self.lo(hi), self.hi(hi))
                } else {
                    (hi, hi)
                };
                let new_lo = self.mk(u, f00, f10);
                let new_hi = self.mk(u, f01, f11);
                // The function depends on v (some child is v-rooted), so
                // the v-cofactors differ and the node never collapses.
                debug_assert_ne!(new_lo, new_hi);
                self.mk(v, new_lo, new_hi)
            }
        } else if self.level_of(w) > level + 1 {
            // Strictly below the swapped pair (w is neither u nor v, and its
            // level did not change): untouched.
            n
        } else {
            // Above the pair: rebuild children.
            let lo = self.lo(n);
            let hi = self.hi(n);
            let new_lo = self.swap_rebuild(lo, u, v, level, memo);
            let new_hi = self.swap_rebuild(hi, u, v, level, memo);
            if new_lo == lo && new_hi == hi {
                n
            } else {
                self.mk(w, new_lo, new_hi)
            }
        };
        memo.set(n.0, r.0);
        r
    }

    /// Moves `var` to `target_level` by repeated in-place adjacent swaps,
    /// then collects garbage keeping `roots` alive. Returns the remapped
    /// roots; every other id is invalidated, as after [`gc`](Self::gc).
    pub fn move_var_to_level(
        &mut self,
        var: Var,
        target_level: u32,
        roots: &[NodeId],
    ) -> Vec<NodeId> {
        self.move_vars_in_place(roots, [(var, target_level)])
    }

    /// The one reorder loop behind
    /// [`move_var_to_level`](Self::move_var_to_level),
    /// [`legalize_order`](Self::legalize_order) and
    /// [`rebuild_order`](Self::rebuild_order): moves each `(var, level)` in
    /// turn to its level by in-place swaps, then collects once.
    pub(crate) fn move_vars_in_place(
        &mut self,
        roots: &[NodeId],
        moves: impl IntoIterator<Item = (Var, u32)>,
    ) -> Vec<NodeId> {
        self.stage_moves(roots, moves);
        self.gc(roots)
    }

    /// Moves each `(var, level)` in turn to its level by in-place swaps,
    /// leaving the arena staged for the caller's collection.
    fn stage_moves(&mut self, roots: &[NodeId], moves: impl IntoIterator<Item = (Var, u32)>) {
        self.assert_unpoisoned();
        let mut sets = CrossingSets::build(self, roots);
        for (var, level) in moves {
            self.walk_in_place(&mut sets, var, level);
        }
    }

    /// The in-place swap builds nodes without `mk`, whose poison check
    /// would otherwise stop a reorder at its first interacting swap; every
    /// reorder checks once when it starts instead.
    fn assert_unpoisoned(&self) {
        assert!(!self.is_poisoned(), "reorder: {}", Error::Poisoned);
    }

    /// Walks `var` to level `target` by in-place swaps, pricing nothing.
    /// The arena stays staged until the caller collects.
    fn walk_in_place(&mut self, sets: &mut CrossingSets, var: Var, target: u32) {
        let mut level = self.level_of(var);
        while level != target {
            let next = if target > level { level + 1 } else { level - 1 };
            self.swap_in_place(sets, level.min(next));
            level = next;
        }
    }

    /// Full recount of the sifting cost, independent of the crossing sets
    /// (the sifter's debug cross-check).
    fn reorder_cost(&self, roots: &[NodeId], cost: ReorderCost) -> usize {
        match cost {
            ReorderCost::NodeCount => self.node_count_multi(roots),
            ReorderCost::SumOfWidths => self.width_profile(roots).sum(),
        }
    }

    /// Rearranges the current order into the nearest one satisfying
    /// `constraints` (Kahn's topological sort, preferring variables that
    /// currently sit higher), rebuilding `roots` along the way. A no-op if
    /// the order is already legal; otherwise the manager is collected
    /// before returning, as by [`gc`](Self::gc).
    ///
    /// # Panics
    ///
    /// Panics if the constraints are cyclic.
    pub fn legalize_order(
        &mut self,
        roots: &[NodeId],
        constraints: &SiftConstraints,
    ) -> Vec<NodeId> {
        if constraints.check(self) {
            return roots.to_vec();
        }
        let target = self.legal_order(constraints);
        let roots = self.move_vars_in_place(roots, target.into_iter().zip(0u32..));
        debug_assert!(constraints.check(self));
        roots
    }

    /// The legal order [`legalize_order`](Self::legalize_order) moves to.
    fn legal_order(&self, constraints: &SiftConstraints) -> Vec<Var> {
        let t = self.num_vars();
        let mut blockers: Vec<Vec<Var>> = vec![Vec::new(); t]; // per var: must-be-above list
        let mut indegree = vec![0usize; t];
        for &(above, below) in constraints.pairs() {
            blockers[above.0 as usize].push(below);
            indegree[below.0 as usize] += 1;
        }
        // Kahn with a priority queue on current level (smaller = sooner).
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>> = (0..t)
            .filter(|&v| indegree[v] == 0)
            .map(|v| std::cmp::Reverse((self.level_of(Var(v as u32)), v as u32)))
            .collect();
        let mut target = Vec::with_capacity(t);
        while let Some(std::cmp::Reverse((_, v))) = ready.pop() {
            target.push(Var(v));
            for &below in &blockers[v as usize] {
                indegree[below.0 as usize] -= 1;
                if indegree[below.0 as usize] == 0 {
                    ready.push(std::cmp::Reverse((self.level_of(below), below.0)));
                }
            }
        }
        assert_eq!(target.len(), t, "cyclic order constraints");
        target
    }

    /// Repeated sifting passes until the cost stops improving (at most
    /// `max_passes`), after legalizing an order that violates `constraints`
    /// ([`BddManager::legalize_order`]); zero passes only legalize. Returns the
    /// remapped roots. A sift of one or more passes collects exactly twice:
    /// after the legalize moves, which stay staged, and at its end. Between
    /// the two it carries one set of crossing sets and one free list through
    /// every variable and pass, and its swaps free their orphans, so the
    /// unique table holds exactly the live nodes after every swap.
    ///
    /// # Panics
    ///
    /// Panics if the constraints are cyclic, or if the manager is
    /// [poisoned](Self::poison).
    pub fn sift(
        &mut self,
        roots: &[NodeId],
        constraints: &SiftConstraints,
        cost: ReorderCost,
        max_passes: usize,
    ) -> Vec<NodeId> {
        if max_passes == 0 {
            return self.legalize_order(roots, constraints);
        }
        self.assert_unpoisoned();
        if !constraints.check(self) {
            let target = self.legal_order(constraints);
            self.stage_moves(roots, target.into_iter().zip(0u32..));
            debug_assert!(constraints.check(self));
        }
        // Drop what building the roots left, so the table holds only live nodes.
        let roots = self.gc(roots);
        let mut sets = CrossingSets::build(self, &roots);
        let mut best = sets.cost(cost);
        for _ in 0..max_passes {
            self.sift_pass(&mut sets, &roots, constraints, cost);
            let now = sets.cost(cost);
            debug_assert_eq!(now, self.reorder_cost(&roots, cost));
            if now >= best {
                break;
            }
            best = now;
        }
        self.gc(&roots)
    }

    /// One sifting pass: every variable that labels a live node, fattest
    /// first (Rudell's heuristic), is walked through its allowed window and
    /// parked at its best position.
    fn sift_pass(
        &mut self,
        sets: &mut CrossingSets,
        roots: &[NodeId],
        constraints: &SiftConstraints,
        cost: ReorderCost,
    ) {
        let labelled: Vec<usize> = (0..self.num_vars() as u32)
            .map(|v| sets.level_nodes[self.level_of(Var(v)) as usize])
            .collect();
        // Sort bare ids: the unstable sort's tie order depends on the element type.
        let mut vars: Vec<Var> = (0..self.num_vars() as u32).map(Var).collect();
        vars.sort_unstable_by_key(|v| std::cmp::Reverse(labelled[v.0 as usize]));
        for var in vars.into_iter().filter(|v| labelled[v.0 as usize] > 0) {
            self.sift_one(sets, roots, var, constraints, cost);
        }
    }

    /// Walks `var` through its allowed window, pricing each position with
    /// the carried crossing sets, and parks it at the cheapest, in place.
    /// Every swap frees its orphans, so the unique table stays at the live
    /// nodes (`debug_assert`-ed after every walk swap and the park).
    fn sift_one(
        &mut self,
        sets: &mut CrossingSets,
        roots: &[NodeId],
        var: Var,
        constraints: &SiftConstraints,
        cost: ReorderCost,
    ) {
        let (min_level, max_level) = constraints.window(self, var);
        let start = self.level_of(var);
        debug_assert!((min_level..=max_level).contains(&start));
        let mut best_cost = sets.cost(cost);
        let mut best_level = start;

        // Visit the nearer end first to keep the walk short.
        let (first, second) = if start - min_level <= max_level - start {
            (min_level, max_level)
        } else {
            (max_level, min_level)
        };
        for target in [first, second] {
            let mut level = self.level_of(var);
            while level != target {
                let next = if target > level { level + 1 } else { level - 1 };
                self.swap_in_place(sets, level.min(next));
                level = next;
                debug_assert_eq!(self.unique_len(), sets.node_count());
                let c = sets.cost(cost);
                debug_assert_eq!(c, self.reorder_cost(roots, cost));
                // Strictly-better keeps the first (closest) optimum.
                if c < best_cost {
                    best_cost = c;
                    best_level = level;
                }
            }
        }
        self.walk_in_place(sets, var, best_level);
        debug_assert_eq!(self.unique_len(), sets.node_count());
    }

    /// Test hook for the crossing sets: builds them over `roots`, then for
    /// each entry of `levels` swaps that level in place, updates the sets
    /// and hands `check` the manager, the tracked unclamped width of every
    /// cut and the tracked live-node count. Collects before returning the
    /// remapped roots, like every public reorder.
    #[doc(hidden)]
    pub fn crossing_walk_for_testing(
        &mut self,
        roots: &[NodeId],
        levels: &[u32],
        mut check: impl FnMut(&BddManager, &[usize], usize),
    ) -> Vec<NodeId> {
        let mut sets = CrossingSets::build(self, roots);
        for &level in levels {
            self.swap_in_place(&mut sets, level);
            let widths: Vec<usize> = sets.sets.iter().map(Vec::len).collect();
            check(self, &widths, sets.node_count());
        }
        self.gc(roots)
    }
}

/// What one reorder walk carries through every swap: the crossing sets,
/// and the scratch their recount uses. `sets[c]` is `S(c)` (see the module
/// docs), so `sets[c].len()` is the unclamped width at cut `c`,
/// `0 ≤ c ≤ t`, and the in-place swap at `l` takes the live nodes it
/// rewrites from `sets[l]`. `level_nodes[l]` counts the members of `S(l)`
/// at level `l`, so the `NodeCount` cost and the sift's order come from
/// the same sets. A swap at level `l` changes only `S(l + 1)`. The walk's
/// free list and dedup map live and die with it, so a manager holds
/// neither once a reorder returns.
struct CrossingSets {
    sets: Vec<Vec<u32>>,
    level_nodes: Vec<usize>,
    /// The dedup of the set being built; a swap also marks in it the
    /// `v`-nodes that stay live.
    seen: ScratchMap,
    /// An empty set the next swap builds `S(l + 1)` in.
    spare: Vec<u32>,
    /// Slots of the orphans the walk's swaps freed, not yet reused.
    free: Vec<u32>,
}

impl CrossingSets {
    /// Builds every set in one sweep down the cuts.
    fn build(mgr: &BddManager, roots: &[NodeId]) -> Self {
        let t = mgr.num_vars();
        let mut tracker = CrossingSets {
            sets: vec![Vec::new(); t + 1],
            level_nodes: vec![0; t],
            seen: ScratchMap::default(),
            spare: Vec::new(),
            free: Vec::new(),
        };
        tracker.seen.begin(mgr.arena_len());
        for &root in roots {
            admit(&mut tracker.seen, &mut tracker.sets[0], root);
        }
        for level in 0..t as u32 {
            tracker.fill_below(mgr, level);
        }
        tracker
    }

    /// Computes `S(level + 1)` from `S(level)`, and the node counts of both
    /// levels.
    fn fill_below(&mut self, mgr: &BddManager, level: u32) {
        let l = level as usize;
        let (upper, lower) = self.sets.split_at_mut(l + 1);
        let (above, below) = (&upper[l], &mut lower[0]);
        self.seen.begin(mgr.arena_len());
        let (mut at_level, mut next_level) = (0, 0);
        for &raw in above.iter() {
            let n = mgr.brand(raw);
            let hanging = if mgr.level_of_node(n) == level {
                at_level += 1;
                [mgr.lo(n), mgr.hi(n)]
            } else {
                [n, FALSE]
            };
            for m in hanging {
                if admit(&mut self.seen, below, m) && mgr.level_of_node(m) == level + 1 {
                    next_level += 1;
                }
            }
        }
        self.level_nodes[l] = at_level;
        if let Some(count) = self.level_nodes.get_mut(l + 1) {
            *count = next_level;
        }
    }

    fn node_count(&self) -> usize {
        self.level_nodes.iter().sum()
    }

    /// The sifting cost: live nodes, or the sum of widths with every cut
    /// clamped to ≥ 1 (the width at height 0 is 1 by definition, and
    /// all-zero cuts count as 1), exactly as
    /// [`WidthProfile::sum`](crate::WidthProfile::sum) adds them.
    fn cost(&self, cost: ReorderCost) -> usize {
        match cost {
            ReorderCost::NodeCount => self.node_count(),
            ReorderCost::SumOfWidths => self.sets.iter().map(|s| s.len().max(1)).sum(),
        }
    }
}

/// Adds `n` to the set being built unless it is `FALSE` or already in;
/// reports whether it was added.
fn admit(seen: &mut ScratchMap, set: &mut Vec<u32>, n: NodeId) -> bool {
    let fresh = n != FALSE && seen.get(n.0).is_none();
    if fresh {
        seen.set(n.0, 0);
        set.push(n.0);
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{FALSE, TRUE};

    /// Truth-vector of f over all assignments, in variable-id index space
    /// (independent of the order).
    fn truth_vector(mgr: &BddManager, f: NodeId) -> Vec<bool> {
        let n = mgr.num_vars();
        (0..1u32 << n)
            .map(|bits| {
                let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect()
    }

    fn interleaved_function(mgr: &mut BddManager) -> NodeId {
        // f = (v0 AND v2) OR (v1 AND v3): classic order-sensitive function.
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let c = mgr.var(Var(2));
        let d = mgr.var(Var(3));
        let ac = mgr.and(a, c);
        let bd = mgr.and(b, d);
        mgr.or(ac, bd)
    }

    #[test]
    fn swap_preserves_function() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let before = truth_vector(&mgr, f);
        let roots = mgr.swap_adjacent(1, &[f]);
        assert_eq!(mgr.var_at(1), Var(2));
        assert_eq!(mgr.var_at(2), Var(1));
        assert_eq!(truth_vector(&mgr, roots[0]), before);
    }

    #[test]
    fn swap_twice_is_identity_on_order() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let order_before: Vec<Var> = mgr.order().to_vec();
        let r = mgr.swap_adjacent(0, &[f]);
        let r = mgr.swap_adjacent(0, &r);
        assert_eq!(mgr.order(), &order_before[..]);
        // Canonicity: same function, same order => same node count.
        assert_eq!(mgr.node_count(r[0]), mgr.node_count(f));
    }

    #[test]
    fn swap_handles_nodes_skipping_levels() {
        let mut mgr = BddManager::new(3);
        // f = v0 XOR v2 — no v1 node anywhere.
        let a = mgr.var(Var(0));
        let c = mgr.var(Var(2));
        let f = mgr.xor(a, c);
        let before = truth_vector(&mgr, f);
        let r = mgr.swap_adjacent(1, &[f]); // swap v1 (absent) and v2
        assert_eq!(truth_vector(&mgr, r[0]), before);
        let r = mgr.swap_adjacent(0, &r); // now swap v2 above v0
        assert_eq!(truth_vector(&mgr, r[0]), before);
    }

    #[test]
    fn move_var_walks_to_target() {
        let mut mgr = BddManager::new(5);
        let f = {
            let a = mgr.var(Var(0));
            let e = mgr.var(Var(4));
            mgr.and(a, e)
        };
        let before = truth_vector(&mgr, f);
        let r = mgr.move_var_to_level(Var(0), 4, &[f]);
        assert_eq!(mgr.level_of(Var(0)), 4);
        assert_eq!(truth_vector(&mgr, r[0]), before);
    }

    #[test]
    fn sifting_shrinks_interleaved_function() {
        // With order (v0 v1 v2 v3), f = v0v2 ∨ v1v3 needs more nodes than
        // with the order (v0 v2 v1 v3). Sifting must find an optimum.
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let before_nodes = mgr.node_count(f);
        let before_truth = truth_vector(&mgr, f);
        let roots = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::NodeCount, 4);
        assert!(mgr.node_count(roots[0]) < before_nodes);
        assert_eq!(truth_vector(&mgr, roots[0]), before_truth);
    }

    #[test]
    fn sifting_with_width_cost_preserves_function() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let before_truth = truth_vector(&mgr, f);
        let before_sum = mgr.width_profile(&[f]).sum();
        let roots = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::SumOfWidths, 4);
        assert!(mgr.width_profile(&[roots[0]]).sum() <= before_sum);
        assert_eq!(truth_vector(&mgr, roots[0]), before_truth);
    }

    #[test]
    fn constraints_are_respected() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let mut constraints = SiftConstraints::none();
        // Keep v3 below everything, and v0 above v1.
        constraints.require_above(Var(0), Var(1));
        constraints.require_above(Var(0), Var(3));
        constraints.require_above(Var(1), Var(3));
        constraints.require_above(Var(2), Var(3));
        let roots = mgr.sift(&[f], &constraints, ReorderCost::NodeCount, 4);
        assert!(constraints.check(&mgr));
        assert_eq!(mgr.level_of(Var(3)), 3);
        assert!(mgr.level_of(Var(0)) < mgr.level_of(Var(1)));
        let _ = roots;
    }

    #[test]
    fn multiple_roots_stay_consistent() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let g = {
            let b = mgr.var(Var(1));
            let c = mgr.var(Var(2));
            mgr.xor(b, c)
        };
        let tf = truth_vector(&mgr, f);
        let tg = truth_vector(&mgr, g);
        let roots = mgr.sift(&[f, g], &SiftConstraints::none(), ReorderCost::NodeCount, 3);
        assert_eq!(truth_vector(&mgr, roots[0]), tf);
        assert_eq!(truth_vector(&mgr, roots[1]), tg);
    }

    #[test]
    fn sifting_invalidates_caches_by_generation_only() {
        // Every adjacent swap clears all four op caches; the contract is
        // that this is a generation bump, never a physical sweep of the
        // slot arrays (a sweep would make sifting O(cache size) per swap).
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let _ = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::SumOfWidths, 2);
        let total = mgr.engine_stats().cache_total();
        assert!(total.invalidations > 0, "sifting must clear the op caches");
        assert_eq!(
            total.slots_swept, 0,
            "cache invalidation during sifting must never sweep slots"
        );
    }

    #[test]
    fn in_place_swap_preserves_ids_and_functions() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let g = {
            let b = mgr.var(Var(1));
            let c = mgr.var(Var(2));
            mgr.xor(b, c)
        };
        let tf = truth_vector(&mgr, f);
        let tg = truth_vector(&mgr, g);
        let mut sets = CrossingSets::build(&mgr, &[f, g]);
        mgr.swap_in_place(&mut sets, 1);
        assert_eq!(mgr.var_at(1), Var(2));
        assert_eq!(mgr.var_at(2), Var(1));
        // Roots keep their ids *and* their functions — the whole point.
        assert_eq!(truth_vector(&mgr, f), tf);
        assert_eq!(truth_vector(&mgr, g), tg);
        // The staged arena collects back into a fully consistent one.
        let roots = mgr.gc(&[f, g]);
        mgr.check_integrity()
            .expect("collected staged arena is sound");
        assert_eq!(truth_vector(&mgr, roots[0]), tf);
        assert_eq!(truth_vector(&mgr, roots[1]), tg);
    }

    #[test]
    fn in_place_swap_twice_restores_canonical_shape() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let before_count = mgr.node_count(f);
        let order_before: Vec<Var> = mgr.order().to_vec();
        let mut sets = CrossingSets::build(&mgr, &[f]);
        mgr.swap_in_place(&mut sets, 0);
        mgr.swap_in_place(&mut sets, 0);
        assert_eq!(mgr.order(), &order_before[..]);
        // Same function, same order: canonicity forces the same shape.
        assert_eq!(mgr.node_count(f), before_count);
        let roots = mgr.gc(&[f]);
        mgr.check_integrity()
            .expect("collected staged arena is sound");
        assert_eq!(mgr.node_count(roots[0]), before_count);
    }

    #[test]
    fn in_place_swap_handles_nodes_skipping_levels() {
        let mut mgr = BddManager::new(3);
        // f = v0 XOR v2 — no v1 node anywhere.
        let a = mgr.var(Var(0));
        let c = mgr.var(Var(2));
        let f = mgr.xor(a, c);
        let before = truth_vector(&mgr, f);
        let mut sets = CrossingSets::build(&mgr, &[f]);
        mgr.swap_in_place(&mut sets, 1); // swap v1 (absent) and v2
        assert_eq!(truth_vector(&mgr, f), before);
        mgr.swap_in_place(&mut sets, 0); // now swap v2 above v0
        assert_eq!(truth_vector(&mgr, f), before);
        let roots = mgr.gc(&[f]);
        mgr.check_integrity()
            .expect("collected staged arena is sound");
        assert_eq!(truth_vector(&mgr, roots[0]), before);
    }

    #[test]
    fn in_place_swap_rewrites_only_live_nodes() {
        // g is not a root: its interacting nodes at the swapped level are
        // tabled garbage, which the swap must leave alone.
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let g = {
            let b = mgr.var(Var(1));
            let c = mgr.var(Var(2));
            mgr.xor(b, c)
        };
        let level = 1;
        let interacting = |mgr: &BddManager, root: NodeId| {
            mgr.descendants(&[root])
                .into_iter()
                .filter(|&n| {
                    mgr.level_of_node(n) == level
                        && [mgr.lo(n), mgr.hi(n)]
                            .iter()
                            .any(|&c| mgr.level_of_node(c) == level + 1)
                })
                .count() as u64
        };
        let live = interacting(&mgr, f);
        assert!(live > 0 && interacting(&mgr, g) > 0);
        let mut reference = mgr.clone();
        let before = mgr.engine_stats();
        let roots = mgr.crossing_walk_for_testing(&[f], &[level], |_, _, _| {});
        let after = mgr.engine_stats();
        assert_eq!(after.swaps, before.swaps + 1);
        assert_eq!(after.swap_rewrites, before.swap_rewrites + live);
        // Collecting numbers nodes from the roots, so the arenas match.
        let expect = reference.swap_adjacent(level, &[f]);
        let expect = reference.gc(&expect);
        assert_eq!(roots, expect);
        assert_eq!(mgr.order(), reference.order());
        assert!(mgr.raw_nodes().eq(reference.raw_nodes()));
    }

    /// Three roots over seven variables: `f`, `(v1 ⊕ v4)·v5` and
    /// `v2·v6 ∨ (v0 ⊕ v5)`, with their truth vectors.
    fn three_roots() -> (BddManager, Vec<NodeId>, Vec<Vec<bool>>) {
        let mut mgr = BddManager::new(7);
        let f = interleaved_function(&mut mgr);
        let [a, b, c, e, x, y] = [0, 1, 2, 4, 5, 6].map(|i| mgr.var(Var(i)));
        let be = mgr.xor(b, e);
        let g = mgr.and(be, x);
        let cy = mgr.and(c, y);
        let ax = mgr.xor(a, x);
        let h = mgr.or(cy, ax);
        let truths = [f, g, h].iter().map(|&r| truth_vector(&mgr, r)).collect();
        (mgr, vec![f, g, h], truths)
    }

    #[test]
    fn a_sift_collects_exactly_twice() {
        // Every swap frees its orphans, so nothing between the opening and
        // the closing collection needs another; the per-swap debug checks
        // pin the table at the live nodes.
        let mut constraints = SiftConstraints::none();
        constraints.require_above(Var(0), Var(6));
        let (mut mgr, roots, truths) = three_roots();
        let before = mgr.engine_stats();
        let roots = mgr.sift(&roots, &constraints, ReorderCost::SumOfWidths, 2);
        let after = mgr.engine_stats();
        for (&root, truth) in roots.iter().zip(&truths) {
            assert_eq!(&truth_vector(&mgr, root), truth);
        }
        assert_eq!(after.gc_runs - before.gc_runs, 2);
        assert!(after.swaps > before.swaps);
        assert!(after.swap_reclaimed > before.swap_reclaimed);
        assert!(constraints.check(&mgr));
        mgr.check_integrity()
            .expect("a sift returns a collected arena");
    }

    #[test]
    fn a_sift_from_an_illegal_order_still_collects_twice() {
        // The legalize moves stay staged until the sift's opening collection.
        let mut constraints = SiftConstraints::none();
        constraints.require_above(Var(6), Var(0));
        let (mut mgr, roots, truths) = three_roots();
        assert!(!constraints.check(&mgr));
        let before = mgr.engine_stats().gc_runs;
        let roots = mgr.sift(&roots, &constraints, ReorderCost::SumOfWidths, 2);
        assert_eq!(mgr.engine_stats().gc_runs - before, 2);
        assert!(constraints.check(&mgr));
        for (&root, truth) in roots.iter().zip(&truths) {
            assert_eq!(&truth_vector(&mgr, root), truth);
        }
    }

    #[test]
    fn a_swap_frees_its_orphans_and_the_next_reuses_them() {
        // f = v0 ⊕ v1 ⊕ v2: both v2-nodes hang below cut 2 only through
        // the two interacting v1-nodes, so swapping levels 1 and 2 orphans
        // them all. Swapping back rebuilds as many v2-nodes, in their slots.
        let mut mgr = BddManager::new(3);
        let [a, b, c] = [0, 1, 2].map(|i| mgr.var(Var(i)));
        let ab = mgr.xor(a, b);
        let f = mgr.xor(ab, c);
        let roots = mgr.gc(&[f]);
        let truth = truth_vector(&mgr, roots[0]);
        let lower = mgr
            .descendants(&roots)
            .into_iter()
            .filter(|&n| mgr.level_of_node(n) == 2)
            .count() as u64;
        assert_eq!(lower, 2);
        let before = mgr.engine_stats().swap_reclaimed;
        let mut seen = Vec::new();
        let roots = mgr.crossing_walk_for_testing(&roots, &[1, 1], |mgr, _, nodes| {
            let stats = mgr.engine_stats();
            assert_eq!(
                stats.unique_len, nodes as u64,
                "the table holds the live nodes"
            );
            seen.push((stats.swap_reclaimed, mgr.arena_len()));
        });
        assert_eq!(seen[0].0, before + lower, "one swap frees every orphan");
        assert_eq!(seen[1].1, seen[0].1, "freed slots are reused");
        assert_eq!(truth_vector(&mgr, roots[0]), truth);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn a_poisoned_manager_refuses_to_sift() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        mgr.poison();
        let _ = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::SumOfWidths, 1);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn a_poisoned_manager_refuses_to_move_a_variable() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        mgr.poison();
        let _ = mgr.move_var_to_level(Var(0), 3, &[f]);
    }

    #[test]
    fn a_sift_of_zero_passes_only_legalizes() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let before = mgr.engine_stats().gc_runs;
        let roots = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::SumOfWidths, 0);
        assert_eq!(roots, vec![f]);
        assert_eq!(mgr.engine_stats().gc_runs, before);
    }

    #[test]
    fn crossing_sets_of_false_roots_are_empty() {
        // Only an all-FALSE root set has empty cuts; the cost clamps them.
        let mgr = BddManager::new(3);
        let sets = CrossingSets::build(&mgr, &[FALSE]);
        assert!(sets.sets.iter().all(Vec::is_empty));
        assert_eq!(sets.node_count(), 0);
        assert_eq!(
            sets.cost(ReorderCost::SumOfWidths),
            mgr.width_profile(&[FALSE]).sum()
        );
    }

    #[test]
    fn in_place_reorders_match_the_functional_reference() {
        let mut mgr = BddManager::new(5);
        let f = interleaved_function(&mut mgr);
        let g = {
            let b = mgr.var(Var(1));
            let e = mgr.var(Var(4));
            mgr.xor(b, e)
        };
        let order = [Var(4), Var(2), Var(0), Var(3), Var(1)];
        let mut reference = mgr.clone();
        let mut expect = vec![f, g];
        for (level, &var) in order.iter().enumerate() {
            while reference.level_of(var) > level as u32 {
                let l = reference.level_of(var);
                expect = reference.swap_adjacent(l - 1, &expect);
            }
        }
        let got = mgr.rebuild_order(&[f, g], &order);
        assert_eq!(mgr.order(), reference.order());
        for (&a, &b) in got.iter().zip(&expect) {
            assert_eq!(mgr.node_count(a), reference.node_count(b));
            assert_eq!(mgr.width_profile(&[a]), reference.width_profile(&[b]));
        }
        mgr.check_integrity()
            .expect("reorders return a collected arena");
    }

    #[test]
    fn swap_keeps_terminal_roots() {
        let mut mgr = BddManager::new(2);
        let r = mgr.swap_adjacent(0, &[TRUE, FALSE]);
        assert_eq!(r, vec![TRUE, FALSE]);
    }

    #[test]
    fn legalize_repairs_violated_orders() {
        let mut mgr = BddManager::new(4);
        let f = interleaved_function(&mut mgr);
        let truth = truth_vector(&mgr, f);
        // Move v3 to the top, then demand v3 below everything.
        let roots = mgr.move_var_to_level(Var(3), 0, &[f]);
        let mut c = SiftConstraints::none();
        c.require_above(Var(0), Var(3));
        c.require_above(Var(1), Var(3));
        c.require_above(Var(2), Var(3));
        assert!(!c.check(&mgr));
        let roots = mgr.legalize_order(&roots, &c);
        assert!(c.check(&mgr));
        assert_eq!(mgr.level_of(Var(3)), 3);
        assert_eq!(truth_vector(&mgr, roots[0]), truth);
    }

    #[test]
    fn legalize_is_noop_on_valid_orders() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(Var(0));
        let c = mgr.var(Var(2));
        let f = mgr.and(a, c);
        let mut constraints = SiftConstraints::none();
        constraints.require_above(Var(0), Var(2));
        let order_before: Vec<Var> = mgr.order().to_vec();
        let roots = mgr.legalize_order(&[f], &constraints);
        assert_eq!(mgr.order(), &order_before[..]);
        assert_eq!(roots[0], f);
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn legalize_rejects_cycles() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(Var(0));
        let _ = a;
        let mut c = SiftConstraints::none();
        c.require_above(Var(0), Var(1));
        c.require_above(Var(1), Var(0));
        // Force an illegal current order so legalization actually runs:
        // with the cycle, check() is false no matter what.
        let _ = mgr.legalize_order(&[a], &c);
    }

    #[test]
    fn window_respects_pair_constraints() {
        let mgr = BddManager::new(5);
        let _ = mgr; // order 0..4
        let mut c = SiftConstraints::none();
        c.require_above(Var(1), Var(3));
        let mgr = BddManager::new(5);
        let (min, max) = c.window(&mgr, Var(3));
        assert_eq!(min, 2); // must stay below Var(1) at level 1
        assert_eq!(max, 4);
        let (min, max) = c.window(&mgr, Var(1));
        assert_eq!(min, 0);
        assert_eq!(max, 2); // must stay above Var(3) at level 3
    }
}
