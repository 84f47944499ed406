//! Construction of characteristic functions for incompletely specified
//! multiple-output functions (Definitions 2.2–2.4) and the [`Cf`] container
//! that owns a BDD_for_CF end to end.

use crate::layout::CfLayout;
use bddcf_bdd::{BddManager, Error as BudgetError, NodeId, Var, WidthProfile, FALSE, TRUE};
use bddcf_logic::{Ternary, TruthTable};

/// Per-output ON/OFF/DC sets of a multiple-output ISF, as BDDs over the
/// *input* variables of a manager laid out by [`CfLayout`].
///
/// For every output `j`: `on[j] = f_j⁻¹(1)`, `off[j] = f_j⁻¹(0)`,
/// `dc[j] = f_j⁻¹(d)`; the three sets partition the input space
/// (Definition 2.1).
#[derive(Clone, Debug)]
pub struct IsfBdds {
    /// ON sets, one per output.
    pub on: Vec<NodeId>,
    /// OFF sets, one per output.
    pub off: Vec<NodeId>,
    /// Don't-care sets, one per output.
    pub dc: Vec<NodeId>,
}

impl IsfBdds {
    /// Builds the three sets from `on` and `dc` (the OFF set is the
    /// complement of their union).
    pub fn from_on_dc(mgr: &mut BddManager, on: Vec<NodeId>, dc: Vec<NodeId>) -> Self {
        assert_eq!(on.len(), dc.len());
        let off = on
            .iter()
            .zip(&dc)
            .map(|(&o, &d)| {
                debug_assert_eq!(mgr.and(o, d), FALSE, "ON and DC sets must be disjoint");
                let u = mgr.or(o, d);
                mgr.not(u)
            })
            .collect();
        IsfBdds { on, off, dc }
    }

    /// Extracts the ISF of a [`TruthTable`] into `mgr` (which must be laid
    /// out per `layout`).
    ///
    /// # Panics
    ///
    /// Panics if the table shape disagrees with `layout`.
    pub fn from_truth_table(mgr: &mut BddManager, layout: &CfLayout, table: &TruthTable) -> Self {
        let saved = mgr.take_budget();
        let isf = IsfBdds::try_from_truth_table(mgr, layout, table)
            .expect("invariant: unbudgeted construction cannot fail");
        mgr.resume_budget(saved);
        isf
    }

    /// Budgeted [`from_truth_table`](Self::from_truth_table): fails cleanly
    /// if the manager's installed budget runs out while the minterm BDDs
    /// are built. Partially built sets become unreferenced garbage.
    ///
    /// # Panics
    ///
    /// Panics if the table shape disagrees with `layout` (caller bug, not a
    /// resource condition).
    pub fn try_from_truth_table(
        mgr: &mut BddManager,
        layout: &CfLayout,
        table: &TruthTable,
    ) -> Result<Self, BudgetError> {
        assert_eq!(table.num_inputs(), layout.num_inputs());
        assert_eq!(table.num_outputs(), layout.num_outputs());
        let vars = layout.input_vars();
        let mut on = Vec::new();
        let mut off = Vec::new();
        let mut dc = Vec::new();
        for j in 0..layout.num_outputs() {
            let mut on_m = Vec::new();
            let mut off_m = Vec::new();
            let mut dc_m = Vec::new();
            for r in 0..table.num_rows() {
                match table.get(r, j) {
                    Ternary::One => on_m.push(r as u64),
                    Ternary::Zero => off_m.push(r as u64),
                    Ternary::DontCare => dc_m.push(r as u64),
                }
            }
            on.push(mgr.try_from_minterms(&vars, &on_m)?);
            off.push(mgr.try_from_minterms(&vars, &off_m)?);
            dc.push(mgr.try_from_minterms(&vars, &dc_m)?);
        }
        Ok(IsfBdds { on, off, dc })
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.on.len()
    }

    /// Checks the partition invariants: for every output the three sets are
    /// pairwise disjoint and cover the input space.
    pub fn validate(&self, mgr: &mut BddManager) -> bool {
        (0..self.num_outputs()).all(|j| {
            let (on, off, dc) = (self.on[j], self.off[j], self.dc[j]);
            let u1 = mgr.or(on, off);
            mgr.or(u1, dc) == TRUE
                && !mgr.intersects(on, off)
                && !mgr.intersects(on, dc)
                && !mgr.intersects(off, dc)
        })
    }

    /// The completion that assigns the constant `fill` to every don't care
    /// (the paper's `DC=0` / `DC=1` baselines).
    pub fn completed(&self, mgr: &mut BddManager, fill: bool) -> IsfBdds {
        let mut on = self.on.clone();
        let mut off = self.off.clone();
        for j in 0..self.num_outputs() {
            if fill {
                on[j] = mgr.or(on[j], self.dc[j]);
            } else {
                off[j] = mgr.or(off[j], self.dc[j]);
            }
        }
        IsfBdds {
            on,
            off,
            dc: vec![FALSE; self.num_outputs()],
        }
    }

    /// Restriction to a contiguous output range (for §5.1's output
    /// bi-partitioning). The sets stay in the same manager.
    pub fn select_outputs(&self, range: std::ops::Range<usize>) -> IsfBdds {
        IsfBdds {
            on: self.on[range.clone()].to_vec(),
            off: self.off[range.clone()].to_vec(),
            dc: self.dc[range].to_vec(),
        }
    }

    /// The support of output `j` as a *ternary* function: input variables
    /// on which any of the three sets depends.
    pub fn support_of_output(&self, mgr: &BddManager, j: usize) -> Vec<Var> {
        mgr.support_multi(&[self.on[j], self.off[j], self.dc[j]])
    }

    /// The *essential* support of output `j` — Definition 2.1 read the way
    /// Sasao's ISF work does: `x` is a support variable iff no completion
    /// of `f_j` can be independent of it, i.e. the two cofactors are
    /// incompatible (`on|ₓ₌₀·off|ₓ₌₁ ∨ on|ₓ₌₁·off|ₓ₌₀ ≠ 0`). Sorted by
    /// current level.
    ///
    /// Inputs that only influence the *don't-care set* (e.g. the validity
    /// of other digits in the radix benchmarks) are not essential; this is
    /// what legitimizes interleaved orders like the decimal adder's
    /// carry-chain order under Definition 2.4.
    ///
    /// Decided without building a node, by one walk over the reachable
    /// pairs `(on|α, off|α)`, `α` an assignment to the variables above the
    /// pair's top variable `x`: `x` is essential iff some pair labelled `x`
    /// has `on₀·off₁ ≠ 0` or `on₁·off₀ ≠ 0` ([`BddManager::intersects`]).
    /// Every other assignment to the variables above `x` lands on a pair
    /// that does not depend on `x`, where both products are `on|α·off|α`,
    /// which is `0` because `on` and `off` are disjoint, as in every
    /// validated ISF.
    pub fn essential_support_of_output(&self, mgr: &BddManager, j: usize) -> Vec<Var> {
        let mut essential = vec![false; mgr.num_vars()];
        let mut seen = bddcf_bdd::hasher::FastSet::default();
        let mut pending = vec![(self.on[j], self.off[j])];
        while let Some((on, off)) = pending.pop() {
            // A constant side is FALSE, or forces the other side to FALSE.
            if mgr.is_const(on) || mgr.is_const(off) || !seen.insert((on.raw(), off.raw())) {
                continue;
            }
            let top = mgr.level_of_node(on).min(mgr.level_of_node(off));
            let x = mgr.var_at(top).0 as usize;
            let (on0, on1) = mgr.cofactors_at(on, top);
            let (off0, off1) = mgr.cofactors_at(off, top);
            essential[x] = essential[x] || mgr.intersects(on0, off1) || mgr.intersects(on1, off0);
            pending.push((on0, off0));
            pending.push((on1, off1));
        }
        mgr.order()
            .iter()
            .copied()
            .filter(|x| essential[x.0 as usize])
            .collect()
    }

    /// Fraction of input combinations on which *every* output is don't
    /// care — the paper's input-don't-care ratio (`DC [%]` in Table 4).
    pub fn input_dc_ratio(&self, mgr: &mut BddManager, layout: &CfLayout) -> f64 {
        let all_dc = mgr.and_many(&self.dc);
        let count = mgr.sat_count(all_dc);
        // sat_count ranges over all n+m manager variables; normalize away
        // the output variables (the dc sets do not depend on them).
        let total = 1u128 << layout.num_vars();
        count as f64 / total as f64
    }

    /// All nodes that must stay live across garbage collection.
    pub fn roots(&self) -> Vec<NodeId> {
        let mut r = self.on.clone();
        r.extend_from_slice(&self.off);
        r.extend_from_slice(&self.dc);
        r
    }

    /// Rebuilds the struct from the root list produced by
    /// [`IsfBdds::roots`] after a GC or reorder remapped it.
    pub fn from_roots(roots: &[NodeId], num_outputs: usize) -> IsfBdds {
        assert_eq!(roots.len(), 3 * num_outputs);
        IsfBdds {
            on: roots[..num_outputs].to_vec(),
            off: roots[num_outputs..2 * num_outputs].to_vec(),
            dc: roots[2 * num_outputs..].to_vec(),
        }
    }
}

/// A BDD_for_CF bundled with its manager, layout, and originating ISF.
///
/// The characteristic function is
/// `χ(X,Y) = ∧ᵢ ( ȳᵢ·f_i0(X) ∨ yᵢ·f_i1(X) ∨ f_id(X) )` (Definition 2.3).
/// The invariant `∃Y.χ = 1` (every input admits at least one output word)
/// holds on construction and is preserved by all reduction algorithms in
/// this crate; it is what makes the reduced χ realizable.
///
/// # Example
///
/// ```
/// use bddcf_core::Cf;
/// use bddcf_logic::TruthTable;
///
/// // A 2-input, 1-output ISF: f(00)=0, f(01)=d, f(10)=d, f(11)=1.
/// let mut cf = Cf::from_truth_table(&TruthTable::from_rows(&["0", "d", "d", "1"]));
/// let before = cf.max_width();
/// cf.reduce_alg33_default();
/// assert!(cf.max_width() <= before);
/// let realization = cf.complete();
/// assert!(cf.realizes_original(&realization));
/// ```
#[derive(Debug, Clone)]
pub struct Cf {
    mgr: BddManager,
    layout: CfLayout,
    root: NodeId,
    isf: IsfBdds,
}

impl Cf {
    /// Builds the characteristic function of the ISF produced by
    /// `build_isf` inside a fresh manager laid out by `layout`.
    ///
    /// The closure receives the manager (inputs at `Var(0..n)`, outputs at
    /// `Var(n..n+m)`, default order inputs-then-outputs) and must return
    /// ON/OFF/DC sets over the input variables.
    ///
    /// # Panics
    ///
    /// Panics if the returned sets violate the ISF partition invariants or
    /// have the wrong arity.
    pub fn build(
        layout: CfLayout,
        build_isf: impl FnOnce(&mut BddManager, &CfLayout) -> IsfBdds,
    ) -> Cf {
        let mut mgr = layout.new_manager();
        let isf = build_isf(&mut mgr, &layout);
        Cf::from_isf(mgr, layout, isf)
    }

    /// Like [`Cf::build`] but with an explicit initial variable order
    /// (top to bottom, covering all `n + m` variables).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the layout's variables or
    /// violates Definition 2.4 (an output above one of its support
    /// variables).
    pub fn build_with_order(
        layout: CfLayout,
        order: &[Var],
        build_isf: impl FnOnce(&mut BddManager, &CfLayout) -> IsfBdds,
    ) -> Cf {
        let mut mgr = layout.new_manager();
        mgr.set_order(order);
        let isf = build_isf(&mut mgr, &layout);
        let cf = Cf::from_isf(mgr, layout, isf);
        let constraints = cf.sift_constraints();
        assert!(
            constraints.check(cf.manager()),
            "order violates Definition 2.4 (output above its essential support)"
        );
        cf
    }

    /// Wraps an already-built ISF into its characteristic function.
    ///
    /// # Panics
    ///
    /// Panics if the sets violate the partition invariants, have the wrong
    /// arity, or depend on output variables.
    pub fn from_isf(mut mgr: BddManager, layout: CfLayout, isf: IsfBdds) -> Cf {
        let saved = mgr.take_budget();
        let mut cf = Cf::try_from_isf(mgr, layout, isf)
            .expect("invariant: unbudgeted construction cannot fail");
        cf.mgr.resume_budget(saved);
        cf
    }

    /// Budgeted [`from_isf`](Cf::from_isf): fails cleanly (returning the
    /// manager's budget error and dropping the manager) if the budget runs
    /// out while χ is conjoined.
    ///
    /// # Panics
    ///
    /// Panics on the same *caller-bug* conditions as `from_isf`: wrong
    /// arity, invalid partition, or output-variable dependence.
    // xlint: allow(XL104): `remapped` mirrors `roots`, which is built non-empty (the chi root occupies index 0)
    pub fn try_from_isf(
        mut mgr: BddManager,
        layout: CfLayout,
        mut isf: IsfBdds,
    ) -> Result<Cf, BudgetError> {
        assert_eq!(
            isf.num_outputs(),
            layout.num_outputs(),
            "ISF arity disagrees with the layout"
        );
        assert!(
            isf.validate(&mut mgr),
            "ON/OFF/DC must partition the input space"
        );
        for j in 0..isf.num_outputs() {
            for var in isf.support_of_output(&mgr, j) {
                assert!(
                    !layout.is_output(var),
                    "ISF sets must not depend on output variables"
                );
            }
        }
        let root = try_chi_of(&mut mgr, &layout, &isf)?;

        // Compact before handing out.
        let mut roots = vec![root];
        roots.extend(isf.roots());
        let remapped = mgr.gc(&roots);
        let root = remapped[0];
        isf = IsfBdds::from_roots(&remapped[1..], layout.num_outputs());
        let mut cf = Cf {
            mgr,
            layout,
            root,
            isf,
        };
        debug_assert!(cf.is_fully_live(), "Definition 2.3 guarantees ∃Y.χ = 1");
        Ok(cf)
    }

    /// Convenience: characteristic function of an explicit truth table.
    pub fn from_truth_table(table: &TruthTable) -> Cf {
        let layout = CfLayout::new(table.num_inputs(), table.num_outputs());
        Cf::build(layout, |mgr, layout| {
            IsfBdds::from_truth_table(mgr, layout, table)
        })
    }

    /// The BDD root of χ.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The variable layout.
    pub fn layout(&self) -> &CfLayout {
        &self.layout
    }

    /// The owning manager (read-only).
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// The owning manager (mutable). Callers may allocate scratch nodes but
    /// must not reorder or collect garbage behind the `Cf`'s back — use the
    /// methods on `Cf` for that.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// The original specification this χ was built from. Reductions narrow
    /// χ but never this record, so it remains the reference for
    /// realization checks.
    pub fn isf(&self) -> &IsfBdds {
        &self.isf
    }

    /// Rebuilds the χ of the *original* specification (Definition 2.3)
    /// from the preserved ISF record. The record is kept alive through
    /// every garbage collection, so this is valid at any point of a
    /// reduction pipeline — unlike a `NodeId` for the original root, which
    /// [`Cf::collect`] would invalidate. Use it as the right-hand side of
    /// refinement checks: every reduction must keep `root ⇒ original_chi`.
    pub fn original_chi(&mut self) -> NodeId {
        chi_of(&mut self.mgr, &self.layout, &self.isf)
    }

    /// Phase-boundary assertion used by the pipeline driver when the
    /// `check` feature is enabled (and available unconditionally for
    /// tests): panics with `context` unless manager integrity, the
    /// Definition-2.4 ordering rule, the ON/OFF/DC partition, validity
    /// (`∀X ∃Y χ = 1`), and the refinement property (`χ ⇒ χ_original`)
    /// all hold. Collects garbage afterwards to drop the scratch BDDs the
    /// checks build.
    ///
    /// The full four-layer analysis (including cascade lints and the
    /// width-profile recount) lives in the `bddcf-check` crate; this is
    /// the dependency-cycle-free subset `bddcf-core` can check about
    /// itself.
    pub fn assert_pipeline_invariants(&mut self, context: &str) {
        if let Err(violations) = self.mgr.check_integrity() {
            let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "{context}: manager integrity violated: {}",
                rendered.join("; ")
            );
        }
        // Definition 2.4 over the *essential* support: inputs that only
        // influence the don't-care set impose no ordering constraint (this
        // is what legitimizes interleaved orders like the decimal adder's
        // carry chain; the sifting constraints enforce exactly this set).
        for j in 0..self.layout.num_outputs() {
            let y = self.layout.output_var(j);
            for var in self.isf.essential_support_of_output(&self.mgr, j) {
                assert!(
                    self.mgr.level_of(var) < self.mgr.level_of(y),
                    "{context}: Definition 2.4 violated for output {} and essential support {}",
                    self.layout.var_name(y),
                    self.layout.var_name(var)
                );
            }
        }
        let isf = self.isf.clone();
        assert!(
            isf.validate(&mut self.mgr),
            "{context}: ON/OFF/DC no longer partition the input space"
        );
        assert!(
            self.is_fully_live(),
            "{context}: χ is not fully live (∀X ∃Y χ = 1 violated)"
        );
        let original = self.original_chi();
        let root = self.root;
        assert!(
            self.mgr.implies(root, original) == TRUE,
            "{context}: reduction widened χ (χ' ⇒ χ fails)"
        );
        self.collect();
    }

    /// Splits the borrow into (manager, layout, root, isf) for algorithms
    /// that need simultaneous mutable manager access.
    pub(crate) fn parts_mut(&mut self) -> (&mut BddManager, &CfLayout, NodeId, &IsfBdds) {
        (&mut self.mgr, &self.layout, self.root, &self.isf)
    }

    /// Runs `op` with the manager's budget suspended — how the infallible
    /// reduction entry points delegate to their budgeted twins without ever
    /// observing a budget error.
    pub(crate) fn unbudgeted<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, BudgetError>,
    ) -> T {
        let saved = self.mgr.take_budget();
        let result = op(self);
        self.mgr.resume_budget(saved);
        result.expect("invariant: unbudgeted reductions cannot fail")
    }

    /// Replaces root and ISF record simultaneously (used after reorders
    /// remapped every node id).
    pub(crate) fn set_state(&mut self, root: NodeId, isf: IsfBdds) {
        self.root = root;
        self.isf = isf;
    }

    /// Crate-internal reconstruction from checkpoint parts: a restored
    /// manager plus the recorded root and ISF ids. Validates that every id
    /// points into the restored arena and that the layout covers the
    /// manager's variables. Deeper semantic checks (Def. 2.4 invariants,
    /// refinement) happen downstream: under the `check` feature the
    /// fixpoint loop asserts them on the restored state before resuming,
    /// and `bddcf chaos` requires every resumed run's artifacts to be
    /// byte-identical to an uninterrupted run's, then audits them.
    pub(crate) fn from_checkpoint_parts(
        mgr: BddManager,
        layout: CfLayout,
        root: NodeId,
        isf: IsfBdds,
    ) -> Result<Cf, String> {
        if layout.num_vars() != mgr.num_vars() {
            return Err(format!(
                "layout covers {} variables but the manager has {}",
                layout.num_vars(),
                mgr.num_vars()
            ));
        }
        if isf.num_outputs() != layout.num_outputs() {
            return Err(format!(
                "ISF records {} outputs but the layout has {}",
                isf.num_outputs(),
                layout.num_outputs()
            ));
        }
        let arena = mgr.arena_len() as u32;
        for id in std::iter::once(root).chain(isf.roots()) {
            if id.raw() >= arena {
                return Err(format!(
                    "node id {} out of range (arena has {} slots)",
                    id.raw(),
                    arena
                ));
            }
        }
        Ok(Cf {
            mgr,
            layout,
            root,
            isf,
        })
    }

    /// Replaces the root after an algorithm rewrote χ, then collects
    /// garbage.
    pub(crate) fn install_root(&mut self, new_root: NodeId) {
        self.root = new_root;
        self.collect();
    }

    /// Test-only hook: installs an arbitrary root so checkers can be shown
    /// a χ that no longer matches the recorded ISF. Never call this from
    /// production code — it deliberately breaks the `Cf` invariants.
    #[doc(hidden)]
    pub fn set_root_for_testing(&mut self, new_root: NodeId) {
        self.install_root(new_root);
    }

    /// Garbage-collects the manager, keeping χ and the ISF record alive.
    pub fn collect(&mut self) {
        let mut roots = vec![self.root];
        roots.extend(self.isf.roots());
        let remapped = self.mgr.gc(&roots);
        self.root = remapped[0];
        self.isf = IsfBdds::from_roots(&remapped[1..], self.layout.num_outputs());
    }

    /// Builds the `DC=fill` completion of this function as its *own*
    /// [`Cf`]: the don't cares are assigned the constant, χ is rebuilt, and
    /// the variable order is legalized against the completion's (larger)
    /// Definition-2.4 constraints — a completely specified function cannot
    /// keep outputs interleaved above inputs it now depends on.
    ///
    /// The input variables keep their current relative order, so the
    /// variant is measured "in the same order" in the sense of §5.1 while
    /// remaining a valid BDD_for_CF.
    pub fn completion_variant(&self, fill: bool) -> Cf {
        let mut fork = self.clone();
        let completed = {
            let isf = fork.isf.clone();
            isf.completed(&mut fork.mgr, fill)
        };
        let root = chi_of(&mut fork.mgr, &fork.layout, &completed);
        fork.root = root;
        fork.isf = completed;
        fork.collect();
        let constraints = fork.sift_constraints();
        let mut roots = vec![fork.root];
        roots.extend(fork.isf.roots());
        let remapped = fork.mgr.legalize_order(&roots, &constraints);
        let num_outputs = fork.layout.num_outputs();
        fork.root = remapped[0];
        fork.isf = IsfBdds::from_roots(&remapped[1..], num_outputs);
        fork.collect();
        fork
    }

    // -----------------------------------------------------------------
    // Metrics
    // -----------------------------------------------------------------

    /// Width profile of χ (Definition 3.5; constant-0 edges excluded).
    pub fn width_profile(&self) -> WidthProfile {
        self.mgr.width_profile(&[self.root])
    }

    /// Maximum width over all cuts (the paper's Table 4 metric).
    pub fn max_width(&self) -> usize {
        self.width_profile().max()
    }

    /// Number of non-terminal nodes of χ (the paper's Table 4 metric).
    pub fn node_count(&self) -> usize {
        self.mgr.node_count(self.root)
    }

    // -----------------------------------------------------------------
    // Semantics
    // -----------------------------------------------------------------

    /// The live-input set `∃Y.χ` as a BDD over the inputs.
    pub fn live(&mut self) -> NodeId {
        let ycube = self.layout.output_cube(&mut self.mgr);
        self.mgr.exists_cube(self.root, ycube)
    }

    /// Does every input combination admit at least one output word?
    pub fn is_fully_live(&mut self) -> bool {
        self.live() == TRUE
    }

    /// Is the output word `word` allowed on `input` by χ?
    pub fn admits(&mut self, input: &[bool], word: u64) -> bool {
        assert_eq!(input.len(), self.layout.num_inputs());
        let mut assignment = vec![false; self.layout.num_vars()];
        assignment[..input.len()].copy_from_slice(input);
        for j in 0..self.layout.num_outputs() {
            assignment[self.layout.output_var(j).0 as usize] = word >> j & 1 == 1;
        }
        self.mgr.eval(self.root, &assignment)
    }

    /// All output words allowed on `input`, in increasing order. Intended
    /// for small output counts (tests and examples).
    ///
    /// # Panics
    ///
    /// Panics if the function has more than 20 outputs.
    pub fn allowed_words(&mut self, input: &[bool]) -> Vec<u64> {
        assert!(
            self.layout.num_outputs() <= 20,
            "allowed_words enumerates 2^m words"
        );
        (0..1u64 << self.layout.num_outputs())
            .filter(|&w| self.admits(input, w))
            .collect()
    }

    /// Is `other`'s χ a *narrowing* of ours? (Every input-output pair other
    /// allows, we allow.) Reductions must narrow.
    pub fn narrows(&mut self, original_root: NodeId) -> bool {
        let implies = self.mgr.implies(self.root, original_root);
        implies == TRUE
    }

    /// Checks the Fig.-1 structural invariant of a well-formed BDD_for_CF:
    /// every reachable output-variable node has exactly one edge to the
    /// constant 0 (`f=0` or `f=1`; the `f=d` case is a removed node).
    ///
    /// The invariant holds on construction (each output's support is above
    /// its variable, so the path determines the output or leaves it free)
    /// and is preserved by every product-based merge because `0·g = 0`.
    /// It is what makes cascade cell extraction deterministic: at an output
    /// node the emitted bit is forced, independent of later inputs.
    pub fn output_nodes_well_formed(&self) -> bool {
        self.mgr.descendants(&[self.root]).into_iter().all(|n| {
            if !self.layout.is_output(self.mgr.var_of(n)) {
                return true;
            }
            let lo = self.mgr.lo(n);
            let hi = self.mgr.hi(n);
            (lo == FALSE) != (hi == FALSE)
        })
    }

    /// Evaluates a prefer-0 completion on one input by walking χ: at an
    /// output node the 0-edge is tried first and the walk backtracks when a
    /// choice turns out unsatisfiable for this input (which only happens in
    /// interleaved orders where don't-care structure sits below the output
    /// — with outputs below their full ternary support every choice is
    /// forced, see [`Cf::output_nodes_well_formed`]). Skipped output
    /// variables are don't cares and resolve to 0.
    ///
    /// Cost: one root-to-leaf walk, `O(nodes)` in the worst case thanks to
    /// a dead-end memo. On any input the returned word is admitted by χ.
    ///
    /// # Panics
    ///
    /// Panics if χ is unsatisfiable on `input` (cannot happen for a fully
    /// live `Cf`) or the input has the wrong arity.
    pub fn eval_completed(&self, input: &[bool]) -> u64 {
        assert_eq!(input.len(), self.layout.num_inputs());
        self.walk_from(self.root, input)
            .expect("χ is unsatisfiable on this input: liveness invariant broken")
    }

    /// [`Cf::eval_completed`] generalized to start at an arbitrary node of
    /// χ (used by decomposition and cascade evaluation): returns a packed
    /// output word admitted by the sub-function on `input`, or `None` if
    /// the sub-function is unsatisfiable there. Output bits above the node
    /// (already decided on the path to it) are reported as 0.
    pub fn walk_from(&self, node: NodeId, input: &[bool]) -> Option<u64> {
        let mut dead = bddcf_bdd::hasher::FastSet::default();
        self.walk(node, input, &mut dead)
    }

    fn walk(
        &self,
        node: NodeId,
        input: &[bool],
        dead: &mut bddcf_bdd::hasher::FastSet<NodeId>,
    ) -> Option<u64> {
        if node == TRUE {
            return Some(0);
        }
        if node == FALSE || dead.contains(&node) {
            return None;
        }
        let result = match self.layout.role(self.mgr.var_of(node)) {
            crate::layout::Role::Input(i) => {
                let next = if input[i] {
                    self.mgr.hi(node)
                } else {
                    self.mgr.lo(node)
                };
                self.walk(next, input, dead)
            }
            crate::layout::Role::Output(j) => {
                let lo = self.mgr.lo(node);
                let hi = self.mgr.hi(node);
                self.walk(lo, input, dead)
                    .or_else(|| self.walk(hi, input, dead).map(|w| w | 1 << j))
            }
        };
        if result.is_none() {
            dead.insert(node);
        }
        result
    }

    /// Decides, for every reachable output node of χ whose *both* children
    /// are satisfiable, which edge a cascade cell must hard-wire.
    ///
    /// A cell's choice is baked into its table and must therefore be valid
    /// for **every** continuation of the inputs below the cell: the chosen
    /// child's live set must equal the node's. With outputs below their
    /// full ternary support such nodes do not exist (one child is always
    /// constant 0); in interleaved orders they appear when only the
    /// don't-care structure is undecided, and the child carrying the
    /// specified value always covers the live set. The 0-edge is preferred.
    ///
    /// # Errors
    ///
    /// Returns the offending node if neither child covers the node's live
    /// set — χ then has no completion in which this output only depends on
    /// the variables above it, and the caller must re-order or re-partition.
    pub fn cascade_output_choices(
        &mut self,
    ) -> Result<bddcf_bdd::hasher::FastMap<NodeId, bool>, NodeId> {
        let saved = self.mgr.take_budget();
        let result = self.try_cascade_output_choices();
        self.mgr.resume_budget(saved);
        match result {
            Ok(choices) => Ok(choices),
            Err(ChoiceError::Entangled(node)) => Err(node),
            Err(ChoiceError::Budget(_)) => {
                unreachable!("invariant: unbudgeted choice analysis cannot exhaust a budget")
            }
        }
    }

    /// Budgeted [`cascade_output_choices`](Cf::cascade_output_choices):
    /// distinguishes the semantic failure (an entangled output node) from a
    /// budget exhaustion mid-analysis.
    pub fn try_cascade_output_choices(
        &mut self,
    ) -> Result<bddcf_bdd::hasher::FastMap<NodeId, bool>, ChoiceError> {
        let layout = self.layout.clone();
        let ycube = layout.output_cube(&mut self.mgr);
        let mut choices = bddcf_bdd::hasher::FastMap::default();
        for node in self.mgr.descendants(&[self.root]) {
            if !layout.is_output(self.mgr.var_of(node)) {
                continue;
            }
            let lo = self.mgr.lo(node);
            let hi = self.mgr.hi(node);
            if lo == FALSE || hi == FALSE {
                continue; // forced
            }
            let live_node = self.mgr.try_exists_cube(node, ycube)?;
            let live_lo = self.mgr.try_exists_cube(lo, ycube)?;
            if live_lo == live_node {
                choices.insert(node, false);
                continue;
            }
            let live_hi = self.mgr.try_exists_cube(hi, ycube)?;
            if live_hi == live_node {
                choices.insert(node, true);
            } else {
                return Err(ChoiceError::Entangled(node));
            }
        }
        Ok(choices)
    }

    // -----------------------------------------------------------------
    // Completion
    // -----------------------------------------------------------------

    /// Extracts a *completely specified* multiple-output function realizing
    /// χ: output `j` becomes a BDD over the inputs. Don't cares are
    /// resolved by preferring 0.
    ///
    /// # Panics
    ///
    /// Panics if χ is not fully live (some input admits no output — cannot
    /// happen for a `Cf` built by this crate).
    pub fn complete(&mut self) -> Vec<NodeId> {
        assert!(
            self.is_fully_live(),
            "χ must admit an output for every input"
        );
        let ycube = self.layout.output_cube(&mut self.mgr);
        let mut cur = self.root;
        let mut outputs = Vec::with_capacity(self.layout.num_outputs());
        for j in 0..self.layout.num_outputs() {
            let y = self.layout.output_var(j);
            // g_j(x) = 1 iff output j cannot be 0 here (prefer-0 policy).
            let cur0 = self.mgr.restrict(cur, y, false);
            let can_be_zero = self.mgr.exists_cube(cur0, ycube);
            let g = self.mgr.not(can_be_zero);
            cur = self.mgr.compose(cur, y, g);
            outputs.push(g);
        }
        debug_assert_eq!(cur, TRUE, "completion must satisfy χ everywhere");
        outputs
    }

    /// Checks that completed outputs `g` realize the original specification:
    /// `on_j ≤ g_j` and `g_j · off_j = 0` for every output.
    pub fn realizes_original(&mut self, g: &[NodeId]) -> bool {
        assert_eq!(g.len(), self.layout.num_outputs());
        (0..g.len()).all(|j| {
            let viol0 = self.mgr.and(g[j], self.isf.off[j]);
            let ng = self.mgr.not(g[j]);
            let viol1 = self.mgr.and(ng, self.isf.on[j]);
            viol0 == FALSE && viol1 == FALSE
        })
    }
}

impl Cf {
    /// Renders χ as Graphviz DOT in the paper's drawing style: `x`/`y`
    /// labels, dotted 0-edges, constant-0 node omitted.
    pub fn to_dot(&self, name: &str) -> String {
        let layout = self.layout.clone();
        self.mgr.to_dot(
            &[self.root],
            |v| layout.var_name(v),
            &bddcf_bdd::dot::DotOptions {
                hide_false: true,
                name: name.to_owned(),
            },
        )
    }
}

/// Why [`Cf::try_cascade_output_choices`] gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceError {
    /// Neither child of this output node covers its live set: χ has no
    /// completion in which the output only depends on the variables above
    /// it. The caller must re-order or re-partition.
    Entangled(NodeId),
    /// The manager's budget ran out mid-analysis.
    Budget(BudgetError),
}

impl From<BudgetError> for ChoiceError {
    fn from(e: BudgetError) -> Self {
        ChoiceError::Budget(e)
    }
}

impl std::fmt::Display for ChoiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChoiceError::Entangled(node) => {
                write!(
                    f,
                    "output node {node:?} is entangled: no child covers its live set"
                )
            }
            ChoiceError::Budget(e) => write!(f, "budget exhausted during choice analysis: {e}"),
        }
    }
}

impl std::error::Error for ChoiceError {}

/// `χ = ∧_j ( ȳ_j·off_j ∨ y_j·on_j ∨ dc_j )`, conjoined deepest output
/// first to keep intermediate results small near the bottom.
fn chi_of(mgr: &mut BddManager, layout: &CfLayout, isf: &IsfBdds) -> NodeId {
    let saved = mgr.take_budget();
    let root =
        try_chi_of(mgr, layout, isf).expect("invariant: unbudgeted construction cannot fail");
    mgr.resume_budget(saved);
    root
}

/// Budgeted [`chi_of`]: the χ construction of Definition 2.3, failing
/// cleanly when the manager's installed budget runs out.
// xlint: allow(XL104): the ISF on/off/dc vectors are sized `num_outputs` by construction; `j` ranges below that
fn try_chi_of(
    mgr: &mut BddManager,
    layout: &CfLayout,
    isf: &IsfBdds,
) -> Result<NodeId, BudgetError> {
    let mut factors = Vec::with_capacity(layout.num_outputs());
    for j in 0..layout.num_outputs() {
        let y = mgr.try_mk(layout.output_var(j), FALSE, TRUE)?;
        let ny = mgr.try_not(y)?;
        let t0 = mgr.try_and(ny, isf.off[j])?;
        let t1 = mgr.try_and(y, isf.on[j])?;
        let t01 = mgr.try_or(t0, t1)?;
        factors.push(mgr.try_or(t01, isf.dc[j])?);
    }
    factors.sort_by_key(|&f| std::cmp::Reverse(mgr.level_of_node(f)));
    mgr.try_and_many(&factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::MultiOracle;

    fn paper_cf() -> Cf {
        Cf::from_truth_table(&TruthTable::paper_table1())
    }

    #[test]
    fn isf_from_truth_table_validates() {
        let table = TruthTable::paper_table1();
        let layout = CfLayout::new(4, 2);
        let mut mgr = layout.new_manager();
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        assert!(isf.validate(&mut mgr));
        assert_eq!(isf.num_outputs(), 2);
    }

    #[test]
    fn cf_admits_exactly_the_specified_behaviour() {
        let table = TruthTable::paper_table1();
        let mut cf = paper_cf();
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            for word in 0..4u64 {
                let expect = (0..2).all(|j| table.get(r, j).admits(word >> j & 1 == 1));
                assert_eq!(cf.admits(&input, word), expect, "row {r} word {word:02b}");
            }
        }
    }

    #[test]
    fn cf_is_fully_live() {
        let mut cf = paper_cf();
        assert!(cf.is_fully_live());
    }

    #[test]
    fn allowed_words_counts_dont_cares() {
        let mut cf = paper_cf();
        // Row 0100 (x2=1): f1=d, f2=d -> all four words allowed.
        let input = [false, true, false, false];
        assert_eq!(cf.allowed_words(&input), vec![0, 1, 2, 3]);
        // Row 1010 -> r with x1=1,x3=1: f1=1, f2=0 -> only word 01.
        let input = [true, false, true, false];
        assert_eq!(cf.allowed_words(&input), vec![0b01]);
    }

    #[test]
    fn completion_realizes_spec() {
        let table = TruthTable::paper_table1();
        let mut cf = paper_cf();
        let g = cf.complete();
        assert!(cf.realizes_original(&g));
        // Cross-check through the oracle interface.
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            let mut assignment = vec![false; cf.layout().num_vars()];
            assignment[..4].copy_from_slice(&input);
            let mut word = 0u64;
            for (j, &gj) in g.iter().enumerate() {
                if cf.manager().eval(gj, &assignment) {
                    word |= 1 << j;
                }
            }
            assert!(table.respond(&input).admits(word, 2), "row {r}");
        }
    }

    #[test]
    fn completion_prefers_zero() {
        // Single output, always don't care => completion must be constant 0.
        let table = TruthTable::from_rows(&["d", "d"]);
        let mut cf = Cf::from_truth_table(&table);
        let g = cf.complete();
        assert_eq!(g[0], FALSE);
    }

    #[test]
    fn completed_baselines_have_no_dc() {
        let table = TruthTable::paper_table1();
        let layout = CfLayout::new(4, 2);
        let mut mgr = layout.new_manager();
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        let dc0 = isf.completed(&mut mgr, false);
        assert!(dc0.validate(&mut mgr));
        assert!(dc0.dc.iter().all(|&d| d == FALSE));
        let dc1 = isf.completed(&mut mgr, true);
        // DC=1 folds dc into the ON sets.
        let old_on_plus_dc = mgr.or(isf.on[0], isf.dc[0]);
        assert_eq!(dc1.on[0], old_on_plus_dc);
    }

    #[test]
    fn input_dc_ratio_of_paper_example() {
        let table = TruthTable::paper_table1();
        let layout = CfLayout::new(4, 2);
        let mut mgr = layout.new_manager();
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        // Rows 0100 and 0101 are all-dc: 2 of 16.
        let ratio = isf.input_dc_ratio(&mut mgr, &layout);
        assert!((ratio - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn select_outputs_is_a_view() {
        let table = TruthTable::paper_table1();
        let layout = CfLayout::new(4, 2);
        let mut mgr = layout.new_manager();
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        let first = isf.select_outputs(0..1);
        assert_eq!(first.num_outputs(), 1);
        assert_eq!(first.on[0], isf.on[0]);
    }

    #[test]
    fn support_of_output_reflects_ternary_dependence() {
        // f(x0, x1) = x0 (x1 irrelevant, fully specified).
        let table = TruthTable::from_rows(&["0", "1", "0", "1"]);
        let layout = CfLayout::new(2, 1);
        let mut mgr = layout.new_manager();
        let isf = IsfBdds::from_truth_table(&mut mgr, &layout, &table);
        assert_eq!(isf.support_of_output(&mgr, 0), vec![Var(0)]);
    }

    #[test]
    fn collect_preserves_cf() {
        let mut cf = paper_cf();
        let words_before = cf.allowed_words(&[true, true, false, false]);
        // Allocate garbage.
        for i in 0..50 {
            let v = cf.layout().input_var(i % 4);
            let x = cf.manager_mut().var(v);
            let _ = cf.manager_mut().not(x);
        }
        cf.collect();
        assert_eq!(cf.allowed_words(&[true, true, false, false]), words_before);
        assert!(cf.is_fully_live());
    }

    #[test]
    fn dot_export_uses_role_names() {
        let cf = paper_cf();
        let dot = cf.to_dot("table1");
        assert!(dot.contains("digraph table1"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("y2"));
        assert!(!dot.contains("label=\"0\""), "constant 0 hidden");
    }

    #[test]
    fn completion_variants_are_valid_cfs() {
        let cf = paper_cf();
        for fill in [false, true] {
            let mut variant = cf.completion_variant(fill);
            assert!(variant.is_fully_live());
            // Completely specified: exactly one word per input.
            for r in 0..16usize {
                let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
                assert_eq!(
                    variant.allowed_words(&input).len(),
                    1,
                    "fill={fill} row {r}"
                );
            }
            // The variant's word is admitted by the original χ.
            let mut original = paper_cf();
            for r in 0..16usize {
                let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
                let word = variant.eval_completed(&input);
                assert!(original.admits(&input, word), "fill={fill} row {r}");
            }
        }
    }

    #[test]
    fn completely_specified_cf_has_unique_words() {
        // Full adder as a completely specified function.
        let mut table = TruthTable::new(3, 2);
        for r in 0..8usize {
            let ones = (r & 1) + (r >> 1 & 1) + (r >> 2 & 1);
            table.set(r, 0, Ternary::from_bool(ones & 1 == 1));
            table.set(r, 1, Ternary::from_bool(ones >= 2));
        }
        let mut cf = Cf::from_truth_table(&table);
        for r in 0..8usize {
            let input: Vec<bool> = (0..3).map(|i| r >> i & 1 == 1).collect();
            assert_eq!(cf.allowed_words(&input).len(), 1, "row {r}");
        }
    }
}
