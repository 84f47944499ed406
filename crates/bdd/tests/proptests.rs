//! Property-based tests for the ROBDD engine: random Boolean expressions
//! are evaluated both through the BDD and through a direct interpreter, and
//! structural invariants (canonicity, reduction, order) are checked.

use bddcf_bdd::{BddManager, NodeId, ReorderCost, SiftConstraints, Var, FALSE, TRUE};
use proptest::prelude::*;

/// A tiny Boolean expression AST for cross-checking.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            Expr::Var(i) => assignment[*i as usize],
            Expr::Not(e) => !e.eval(assignment),
            Expr::And(a, b) => a.eval(assignment) && b.eval(assignment),
            Expr::Or(a, b) => a.eval(assignment) || b.eval(assignment),
            Expr::Xor(a, b) => a.eval(assignment) ^ b.eval(assignment),
        }
    }

    fn build(&self, mgr: &mut BddManager) -> NodeId {
        match self {
            Expr::Var(i) => mgr.var(Var(*i)),
            Expr::Not(e) => {
                let f = e.build(mgr);
                mgr.not(f)
            }
            Expr::And(a, b) => {
                let fa = a.build(mgr);
                let fb = b.build(mgr);
                mgr.and(fa, fb)
            }
            Expr::Or(a, b) => {
                let fa = a.build(mgr);
                let fb = b.build(mgr);
                mgr.or(fa, fb)
            }
            Expr::Xor(a, b) => {
                let fa = a.build(mgr);
                let fb = b.build(mgr);
                mgr.xor(fa, fb)
            }
        }
    }
}

const NVARS: u32 = 6;

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn all_assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NVARS).map(|bits| (0..NVARS).map(|i| bits >> i & 1 == 1).collect())
}

/// Checks `and_exists_keeps(f, g, cube)`, both ways round, against its
/// definition `∃cube.(f·g) = ∃cube.f` computed on cleared caches. The
/// and-exists entries the op leaves behind must give the same product.
fn check_keeps(
    mgr: &mut BddManager,
    f: NodeId,
    g: NodeId,
    cube: NodeId,
) -> proptest::TestCaseResult {
    mgr.clear_caches();
    let keeps = mgr.and_exists_keeps(f, g, cube);
    let keeps_swapped = mgr.and_exists_keeps(g, f, cube);
    let from_left_entries = mgr.and_exists(f, g, cube);
    mgr.clear_caches();
    let product = mgr.and_exists(f, g, cube);
    prop_assert_eq!(from_left_entries, product, "and-exists entry left behind");
    let expect = product == mgr.exists_cube(f, cube);
    prop_assert_eq!(keeps, expect, "and_exists_keeps({:?}, {:?})", f, g);
    prop_assert_eq!(keeps_swapped, expect, "and_exists_keeps({:?}, {:?})", g, f);
    Ok(())
}

/// Variables of the operation-sequence property: enough for a comb of
/// pair products to outgrow the 256-slot cache floor.
const WIDE: u32 = 16;

/// One step of a random operation sequence over a pool of functions.
/// Pool indices are taken modulo the pool's length.
#[derive(Clone, Debug)]
enum Step {
    /// Push the sum of `x_(s+i)·x_(s+i+WIDE/2)` over `i < k` (indices
    /// modulo `WIDE`): exponential in `k` under the identity order.
    Comb(u32, u32),
    /// Push `pool[i]` and / or / xor (`op` 0 / 1 / 2) `pool[j]`.
    Apply(u8, usize, usize),
    /// Push `∃x_v.pool[i]`.
    Exists(usize, u32),
    /// Push `∃x_v.(pool[i]·pool[j])`.
    AndExists(usize, usize, u32),
    /// Push `pool[i]` with `x_v` fixed to the constant.
    Restrict(usize, u32, bool),
    /// Push `pool[i]` with `x_v` replaced by `pool[j]`.
    Compose(usize, u32, usize),
    /// Drop `pool[i]` (never the last entry), so a collection frees it.
    Forget(usize),
    /// Collect the manager down to the pool (if it collects at all).
    Gc,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..WIDE, 1..WIDE / 2 + 1).prop_map(|(s, k)| Step::Comb(s, k)),
        (0u8..3, any::<usize>(), any::<usize>()).prop_map(|(op, i, j)| Step::Apply(op, i, j)),
        (any::<usize>(), 0..WIDE).prop_map(|(i, v)| Step::Exists(i, v)),
        (any::<usize>(), any::<usize>(), 0..WIDE).prop_map(|(i, j, v)| Step::AndExists(i, j, v)),
        (any::<usize>(), 0..WIDE, any::<bool>()).prop_map(|(i, v, b)| Step::Restrict(i, v, b)),
        (any::<usize>(), 0..WIDE, any::<usize>()).prop_map(|(i, v, j)| Step::Compose(i, v, j)),
        any::<usize>().prop_map(Step::Forget),
        // Listed twice: a collection is twice as likely as any other step.
        Just(Step::Gc),
        Just(Step::Gc),
    ]
}

/// Whether `f` in `a` and `g` in `b` are the same function. Neither
/// manager reorders, so equal functions have isomorphic graphs.
fn same_function(a: &BddManager, f: NodeId, b: &BddManager, g: NodeId) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![(f, g)];
    while let Some((f, g)) = stack.pop() {
        if !seen.insert((f.raw(), g.raw())) {
            continue;
        }
        match (a.is_const(f), b.is_const(g)) {
            (true, true) if (f == TRUE) == (g == TRUE) => {}
            (false, false) if a.var_of(f) == b.var_of(g) => {
                stack.push((a.lo(f), b.lo(g)));
                stack.push((a.hi(f), b.hi(g)));
            }
            _ => return false,
        }
    }
    true
}

/// Runs `step` on `mgr` over `pool`; `Gc` collects only when `collects`.
fn run_step(mgr: &mut BddManager, pool: &mut Vec<NodeId>, step: &Step, collects: bool) {
    let at = |i: usize| pool[i % pool.len()];
    let f = match *step {
        Step::Comb(s, k) => {
            let mut f = FALSE;
            for i in s..s + k {
                let x = mgr.var(Var(i % WIDE));
                let y = mgr.var(Var((i + WIDE / 2) % WIDE));
                let product = mgr.and(x, y);
                f = mgr.or(f, product);
            }
            f
        }
        Step::Apply(op, i, j) => match op {
            0 => mgr.and(at(i), at(j)),
            1 => mgr.or(at(i), at(j)),
            _ => mgr.xor(at(i), at(j)),
        },
        Step::Exists(i, v) => mgr.exists(at(i), &[Var(v)]),
        Step::AndExists(i, j, v) => {
            let cube = mgr.var(Var(v));
            mgr.and_exists(at(i), at(j), cube)
        }
        Step::Restrict(i, v, value) => mgr.restrict(at(i), Var(v), value),
        Step::Compose(i, v, j) => mgr.compose(at(i), Var(v), at(j)),
        Step::Forget(i) => {
            if pool.len() > 1 {
                pool.remove(i % pool.len());
            }
            return;
        }
        Step::Gc => {
            if collects {
                *pool = mgr.gc(pool);
            }
            return;
        }
    };
    pool.push(f);
}

proptest! {
    #[test]
    fn bdd_agrees_with_interpreter(expr in arb_expr()) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        for a in all_assignments() {
            prop_assert_eq!(mgr.eval(f, &a), expr.eval(&a));
        }
    }

    #[test]
    fn canonicity_equal_functions_equal_ids(e1 in arb_expr(), e2 in arb_expr()) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f1 = e1.build(&mut mgr);
        let f2 = e2.build(&mut mgr);
        let equal_semantically = all_assignments().all(|a| e1.eval(&a) == e2.eval(&a));
        prop_assert_eq!(f1 == f2, equal_semantically);
    }

    #[test]
    fn sat_count_matches_enumeration(expr in arb_expr()) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let brute = all_assignments().filter(|a| expr.eval(a)).count() as u128;
        prop_assert_eq!(mgr.sat_count(f), brute);
    }

    #[test]
    fn shannon_expansion_reconstructs(expr in arb_expr(), var in 0..NVARS) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let f0 = mgr.restrict(f, Var(var), false);
        let f1 = mgr.restrict(f, Var(var), true);
        let x = mgr.var(Var(var));
        let rebuilt = mgr.ite(x, f1, f0);
        prop_assert_eq!(rebuilt, f);
    }

    #[test]
    fn quantification_identities(expr in arb_expr(), var in 0..NVARS) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let f0 = mgr.restrict(f, Var(var), false);
        let f1 = mgr.restrict(f, Var(var), true);
        let e = mgr.exists(f, &[Var(var)]);
        let or = mgr.or(f0, f1);
        prop_assert_eq!(e, or, "∃x.f = f|x=0 ∨ f|x=1");
        let u = mgr.forall(f, &[Var(var)]);
        let and = mgr.and(f0, f1);
        prop_assert_eq!(u, and, "∀x.f = f|x=0 ∧ f|x=1");
    }

    #[test]
    fn and_exists_keeps_agrees_with_the_relational_product(
        e1 in arb_expr(),
        e2 in arb_expr(),
        quantified in 1u32..1 << NVARS,
        keys in prop::collection::vec(any::<u64>(), NVARS as usize),
    ) {
        // A random order interleaves the quantified variables with the
        // others, the way outputs sit among inputs in a BDD_for_CF.
        let mut order: Vec<Var> = (0..NVARS).map(Var).collect();
        order.sort_by_key(|v| keys[v.0 as usize]);
        let mut mgr = BddManager::new(NVARS as usize);
        mgr.set_order(&order);
        let lits: Vec<(Var, bool)> = (0..NVARS)
            .filter(|i| quantified >> i & 1 == 1)
            .map(|i| (Var(i), true))
            .collect();
        let cube = mgr.cube(&lits);
        let f = e1.build(&mut mgr);
        let g = e2.build(&mut mgr);
        // Equalize the projections: f' = f·∃g and g' = g·∃f.
        let live_f = mgr.exists_cube(f, cube);
        let live_g = mgr.exists_cube(g, cube);
        let f = mgr.and(f, live_g);
        let g = mgr.and(g, live_f);
        check_keeps(&mut mgr, f, g, cube)?;
        check_keeps(&mut mgr, f, f, cube)?;
        // A constant operand: TRUE against f' made fully live.
        let live = mgr.exists_cube(f, cube);
        let dead = mgr.not(live);
        let full = mgr.or(f, dead);
        check_keeps(&mut mgr, full, TRUE, cube)?;
    }

    #[test]
    fn intersects_agrees_with_the_product_and_builds_nothing(
        e1 in arb_expr(),
        e2 in arb_expr(),
        keys in prop::collection::vec(any::<u64>(), NVARS as usize),
    ) {
        let mut order: Vec<Var> = (0..NVARS).map(Var).collect();
        order.sort_by_key(|v| keys[v.0 as usize]);
        let mut mgr = BddManager::new(NVARS as usize);
        mgr.set_order(&order);
        let f = e1.build(&mut mgr);
        let g = e2.build(&mut mgr);
        // g·¬f is disjoint from f: the walk must prove every pair disjoint.
        let not_f = mgr.not(f);
        let g_off_f = mgr.and(g, not_f);
        for (a, b) in [(f, g), (g, f), (f, g_off_f), (f, f), (f, FALSE), (f, TRUE)] {
            let arena = mgr.arena_len();
            let hit = mgr.intersects(a, b);
            prop_assert_eq!(mgr.arena_len(), arena);
            prop_assert_eq!(hit, mgr.and(a, b) != FALSE);
        }
    }

    #[test]
    fn compose_agrees_with_interpreter(e1 in arb_expr(), e2 in arb_expr(), var in 0..NVARS) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = e1.build(&mut mgr);
        let g = e2.build(&mut mgr);
        let composed = mgr.compose(f, Var(var), g);
        for a in all_assignments() {
            let mut substituted = a.clone();
            substituted[var as usize] = e2.eval(&a);
            prop_assert_eq!(mgr.eval(composed, &a), e1.eval(&substituted));
        }
    }

    #[test]
    fn gc_preserves_semantics(expr in arb_expr()) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let roots = mgr.gc(&[f]);
        for a in all_assignments() {
            prop_assert_eq!(mgr.eval(roots[0], &a), expr.eval(&a));
        }
    }

    #[test]
    fn swap_preserves_semantics_and_canonicity(expr in arb_expr(), level in 0..NVARS - 1) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let roots = mgr.swap_adjacent(level, &[f]);
        for a in all_assignments() {
            prop_assert_eq!(mgr.eval(roots[0], &a), expr.eval(&a));
        }
        // Swapping back must restore the original node (canonicity check).
        let back = mgr.swap_adjacent(level, &roots);
        prop_assert_eq!(back[0], f);
    }

    #[test]
    fn crossing_sets_track_every_in_place_swap(
        garbage in prop::collection::vec(arb_expr(), 1..4),
        exprs in prop::collection::vec(arb_expr(), 1..4),
        constants in prop::collection::vec(any::<bool>(), 0..3),
        walk in prop::collection::vec(0..NVARS - 1, 1..24),
    ) {
        // Multi-rooted, with terminal roots and a repeated root; random
        // expressions over six variables leave plenty of level-skipping
        // edges. The expressions that are not roots leave interacting
        // tabled garbage at every level, which the swaps must not touch.
        let mut mgr = BddManager::new(NVARS as usize);
        for e in &garbage {
            e.build(&mut mgr);
        }
        let mut roots: Vec<NodeId> = exprs.iter().map(|e| e.build(&mut mgr)).collect();
        roots.extend(constants.iter().map(|&c| if c { TRUE } else { FALSE }));
        roots.push(roots[0]);
        let mut truths: Vec<Vec<bool>> = exprs
            .iter()
            .map(|e| all_assignments().map(|a| e.eval(&a)).collect())
            .chain(constants.iter().map(|&c| vec![c; 1 << NVARS]))
            .collect();
        truths.push(truths[0].clone());
        // `width_profile` clamps each cut to ≥ 1; a cut is empty only
        // when every root is FALSE (any other root has a path to TRUE
        // crossing every cut), so that is the unclamped profile.
        let all_false = roots.iter().all(|&r| r == FALSE);
        let mut errors = Vec::new();
        // A swap frees its orphans, so the garbage the table holds beyond
        // the live nodes never grows; from a collected arena it stays 0.
        let mut collected = mgr.clone();
        let collected_roots = collected.gc(&roots);
        collected.crossing_walk_for_testing(&collected_roots, &walk, |mgr, _, nodes| {
            let extra = mgr.engine_stats().unique_len - nodes as u64;
            if extra != 0 {
                errors.push(format!("order {:?}: {extra} tabled garbage after a collection", mgr.order()));
            }
        });
        let mut extra = mgr.engine_stats().unique_len - mgr.node_count_multi(&roots) as u64;
        let remapped = mgr.crossing_walk_for_testing(&roots, &walk, |mgr, widths, nodes| {
            let now = mgr.engine_stats().unique_len - nodes as u64;
            if now > extra {
                errors.push(format!("order {:?}: tabled garbage grew {extra} -> {now}", mgr.order()));
            }
            extra = now;
            let profile = mgr.width_profile(&roots);
            for (c, &width) in widths.iter().enumerate() {
                let expect = if all_false { 0 } else { profile.at_cut(c) };
                if width != expect {
                    errors.push(format!("order {:?}: cut {c} tracked {width}, recount {expect}", mgr.order()));
                }
            }
            let expect = mgr.node_count_multi(&roots);
            if nodes != expect {
                errors.push(format!("order {:?}: tracked {nodes} nodes, recount {expect}", mgr.order()));
            }
            for (&r, truth) in roots.iter().zip(&truths) {
                if !all_assignments().zip(truth).all(|(a, &t)| mgr.eval(r, &a) == t) {
                    errors.push(format!("order {:?}: root {r:?} changed function", mgr.order()));
                }
            }
        });
        prop_assert!(errors.is_empty(), "{}", errors.join("\n"));
        // The collected result matches the functional reference swap.
        let mut reference = BddManager::new(NVARS as usize);
        let mut expect: Vec<NodeId> = exprs.iter().map(|e| e.build(&mut reference)).collect();
        expect.extend(constants.iter().map(|&c| if c { TRUE } else { FALSE }));
        expect.push(expect[0]);
        for &level in &walk {
            expect = reference.swap_adjacent(level, &expect);
        }
        prop_assert_eq!(mgr.order(), reference.order());
        prop_assert_eq!(mgr.width_profile(&remapped), reference.width_profile(&expect));
        prop_assert_eq!(mgr.node_count_multi(&remapped), reference.node_count_multi(&expect));
        prop_assert!(mgr.check_integrity().is_ok());
        // Canonicity: rebuilding a root under the new order finds it.
        for (e, &r) in exprs.iter().zip(&remapped) {
            prop_assert_eq!(e.build(&mut mgr), r);
        }
    }

    #[test]
    fn sifting_preserves_semantics(expr in arb_expr()) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let truth: Vec<bool> = all_assignments().map(|a| expr.eval(&a)).collect();
        let roots = mgr.sift(&[f], &SiftConstraints::none(), ReorderCost::NodeCount, 2);
        for (a, expect) in all_assignments().zip(truth) {
            prop_assert_eq!(mgr.eval(roots[0], &a), expect);
        }
    }

    #[test]
    fn width_profile_bounds_node_count(expr in arb_expr()) {
        let mut mgr = BddManager::new(NVARS as usize);
        let f = expr.build(&mut mgr);
        let profile = mgr.width_profile(&[f]);
        // Max width never exceeds the live node count + 1 (terminal), and
        // the sum of widths is at least the number of cuts.
        prop_assert!(profile.max() <= mgr.node_count(f) + 1);
        prop_assert!(profile.sum() >= profile.len());
    }

    #[test]
    fn from_minterms_equals_naive(minterms in prop::collection::vec(0u64..64, 0..20)) {
        let mut mgr = BddManager::new(NVARS as usize);
        let vars: Vec<Var> = (0..NVARS).map(Var).collect();
        let f = mgr.from_minterms(&vars, &minterms);
        for (idx, a) in all_assignments().enumerate() {
            let expect = minterms.contains(&(idx as u64));
            prop_assert_eq!(mgr.eval(f, &a), expect);
        }
    }

    #[test]
    fn interleaved_gcs_never_change_a_result(steps in prop::collection::vec(arb_step(), 1..40)) {
        // Each gc resizes the caches to the live arena; a manager that
        // never collects keeps its grown ones. Both must compute the same
        // functions, node for node.
        let mut collected = BddManager::new(WIDE as usize);
        let mut plain = BddManager::new(WIDE as usize);
        let mut pool_c: Vec<NodeId> = (0..WIDE).map(|v| collected.var(Var(v))).collect();
        let mut pool_p: Vec<NodeId> = (0..WIDE).map(|v| plain.var(Var(v))).collect();
        for step in &steps {
            run_step(&mut collected, &mut pool_c, step, true);
            run_step(&mut plain, &mut pool_p, step, false);
        }
        prop_assert_eq!(plain.engine_stats().gc_runs, 0);
        for (&f, &g) in pool_c.iter().zip(&pool_p) {
            prop_assert!(same_function(&collected, f, &plain, g));
        }
        prop_assert!(collected.check_integrity().is_ok());
    }

    #[test]
    fn terminal_cases(value in any::<bool>()) {
        let mut mgr = BddManager::new(2);
        let t = if value { TRUE } else { FALSE };
        let nt = mgr.not(t);
        prop_assert_eq!(nt == TRUE, !value);
    }
}
