//! Algorithm 3.3: level-by-level width reduction of a BDD_for_CF by
//! minimal clique cover of the column functions.
//!
//! For every cut (from just below the root down to just above the
//! terminals):
//!
//! 1. collect the *column functions* — the distinct non-zero nodes hanging
//!    below the cut (Definition 3.6 transported to the BDD, and the
//!    footnote: all-zero columns are skipped);
//! 2. build their compatibility graph (Definition 3.8);
//! 3. cover it by cliques with Algorithm 3.2;
//! 4. replace every column of a clique by the AND of the whole clique and
//!    rebuild the BDD above the cut.
//!
//! # Two engineering notes (documented divergences)
//!
//! * *Joint compatibility.* For multi-output columns, pairwise
//!   compatibility does not imply that the whole clique has a non-empty
//!   joint intersection on every live input (the paper's Lemma 3.1 only
//!   covers products of two). Each clique is therefore multiplied out
//!   incrementally and re-validated; members that would break joint
//!   liveness stay unmerged. This keeps the reduction sound unconditionally.
//! * *Scalability.* Building the full pairwise graph costs
//!   `O(W²)` compatibility tests per cut. Columns are first bucketed by
//!   their live set (merging across different live sets is never sound),
//!   and buckets larger than [`Alg33Options::max_pairwise_group`] switch to
//!   a first-fit greedy cover that only tests each column against up to
//!   `FIRST_FIT_TRIES` (64) existing clique products. Every column of a
//!   bucket and every clique product has the bucket's live set, so each
//!   test is one [`BddManager::try_and_exists_keeps`] call, without
//!   comparing live sets first. That call stops at the first cofactor pair
//!   that loses a live input (see [`crate::compat`]). Nearly every test
//!   fails, and a failing one costs a path through the two operands rather
//!   than their whole relational product.

use crate::cf::Cf;
use crate::compat::CompatCtx;
use crate::cover::CompatGraph;
use crate::degrade::{DegradationReport, DegradeAction, Phase};
use bddcf_bdd::hasher::{FastMap, FastSet};
use bddcf_bdd::{BddManager, Error as BudgetError, NodeId, FALSE};

/// The cover engine of [`Cf::reduce_alg33`]. Every other entry point
/// (the governed run, the fixpoint driver, checkpoint resume) uses the
/// default.
#[derive(Clone, Debug)]
pub struct Alg33Options {
    /// Live-set buckets up to this size use the full pairwise
    /// compatibility graph plus Algorithm 3.2; larger buckets use first-fit
    /// greedy merging against clique products.
    pub max_pairwise_group: usize,
}

impl Default for Alg33Options {
    fn default() -> Self {
        Alg33Options {
            max_pairwise_group: 192,
        }
    }
}

/// In first-fit mode, how many existing cliques a column is tested against
/// before it opens a new clique.
const FIRST_FIT_TRIES: usize = 64;

/// Metrics of one [`Cf::reduce_alg33`] run.
#[derive(Clone, Debug)]
pub struct Alg33Stats {
    /// Non-terminal node count before.
    pub nodes_before: usize,
    /// Non-terminal node count after.
    pub nodes_after: usize,
    /// Maximum width before.
    pub max_width_before: usize,
    /// Maximum width after.
    pub max_width_after: usize,
    /// Number of columns eliminated (summed over all cuts).
    pub columns_merged: usize,
}

impl Cf {
    /// Applies Algorithm 3.3 with default options.
    pub fn reduce_alg33_default(&mut self) -> Alg33Stats {
        self.reduce_alg33(&Alg33Options::default())
    }

    /// Applies Algorithm 3.3, rewriting χ in place, and reports the
    /// metrics.
    pub fn reduce_alg33(&mut self, options: &Alg33Options) -> Alg33Stats {
        let saved = self.manager_mut().take_budget();
        let mut report = DegradationReport::new();
        let stats = self.reduce_alg33_governed_with(options, &mut report);
        self.manager_mut().resume_budget(saved);
        debug_assert!(report.is_clean(), "unbudgeted runs cannot degrade");
        stats
    }

    /// Budget-governed Algorithm 3.3: never fails, degrading per cut level
    /// instead. On budget exhaustion at a cut the ladder is:
    ///
    /// 1. collect garbage and retry the same cut with the same cover
    ///    machinery (only for a node-quota miss — GC can free room);
    /// 2. fall back from the Algorithm 3.2 clique cover to Algorithm
    ///    3.1-style incremental pair merging (first-fit, one try);
    /// 3. skip the cut, keeping the last valid χ.
    ///
    /// A *terminal* cause (step, time, or cancellation budget — see
    /// [`DegradationReport::terminal_cause`]) abandons the rest of the phase
    /// immediately: no amount of GC brings those budgets back. Every
    /// downgrade is recorded in `report`; χ after return is always a valid
    /// refinement of χ before, however far the ladder dropped.
    pub fn reduce_alg33_governed(&mut self, report: &mut DegradationReport) -> Alg33Stats {
        self.reduce_alg33_governed_with(&Alg33Options::default(), report)
    }

    /// [`reduce_alg33_governed`](Cf::reduce_alg33_governed) with `options`.
    fn reduce_alg33_governed_with(
        &mut self,
        options: &Alg33Options,
        report: &mut DegradationReport,
    ) -> Alg33Stats {
        match self.reduce_alg33_governed_from(options, report, 1, |_, _, _| {
            Ok::<(), std::convert::Infallible>(())
        }) {
            Ok(stats) => stats,
            Err(never) => match never {},
        }
    }

    /// Resumable variant of [`reduce_alg33_governed`]
    /// (Cf::reduce_alg33_governed): starts at `start_cut` (cuts below it
    /// are assumed already reduced, e.g. by a run this one resumes) and
    /// invokes `boundary` at the top of every cut iteration — after all
    /// work on earlier cuts is installed, before any work on `cut` begins.
    ///
    /// The checkpoint subsystem uses the boundary hook to persist the
    /// pipeline state at exactly the points it can later resume from; a
    /// boundary error (e.g. a failed checkpoint write) aborts the phase and
    /// is returned verbatim. χ is always in a valid, installed state when
    /// `boundary` runs and when this returns, `Ok` or `Err`.
    pub(crate) fn reduce_alg33_governed_from<E>(
        &mut self,
        options: &Alg33Options,
        report: &mut DegradationReport,
        start_cut: u32,
        mut boundary: impl FnMut(&mut Cf, u32, &DegradationReport) -> Result<(), E>,
    ) -> Result<Alg33Stats, E> {
        let nodes_before = self.node_count();
        let max_width_before = self.max_width();
        let layout = self.layout().clone();
        let t = layout.num_vars() as u32;
        let mut columns_merged = 0usize;
        'cuts: for cut in start_cut.max(1)..t {
            boundary(self, cut, report)?;
            let attempt = |cf: &mut Cf, mode: CutCover| -> Result<(NodeId, usize), BudgetError> {
                let mut merged = 0usize;
                let (mgr, _, root, _) = cf.parts_mut();
                let ctx = CompatCtx::new(mgr, &layout);
                let new_root = try_reduce_cut(mgr, &ctx, root, cut, options, &mut merged, mode)?;
                Ok((new_root, merged))
            };
            let outcome = attempt(self, CutCover::PerOptions).or_else(|cause| {
                if is_terminal(cause) {
                    return Err(cause);
                }
                // Rung 1: GC + retry once. The failed attempt left only
                // unreferenced garbage; χ itself is untouched.
                report.record(Phase::Alg33, Some(cut), DegradeAction::GcRetry, cause);
                self.collect();
                attempt(self, CutCover::PerOptions)
            });
            let outcome = outcome.or_else(|cause| {
                if is_terminal(cause) {
                    return Err(cause);
                }
                // Rung 2: cheap pair merging instead of the clique cover.
                report.record(
                    Phase::Alg33,
                    Some(cut),
                    DegradeAction::FellBackToPairMerge,
                    cause,
                );
                self.collect();
                attempt(self, CutCover::PairMergeOnly)
            });
            match outcome {
                Ok((new_root, merged)) => {
                    columns_merged += merged;
                    if new_root != self.root() {
                        self.install_root(new_root);
                    }
                }
                Err(cause) if is_terminal(cause) => {
                    // Rung 3 (terminal): the whole phase is over.
                    report.record(Phase::Alg33, Some(cut), DegradeAction::SkippedPhase, cause);
                    break 'cuts;
                }
                Err(cause) => {
                    // Rung 3: keep the last valid χ for this level only.
                    report.record(Phase::Alg33, Some(cut), DegradeAction::SkippedLevel, cause);
                    self.collect();
                }
            }
        }
        Ok(Alg33Stats {
            nodes_before,
            nodes_after: self.node_count(),
            max_width_before,
            max_width_after: self.max_width(),
            columns_merged,
        })
    }
}

/// Which cover machinery a cut attempt may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CutCover {
    /// Whatever [`Alg33Options`] selects (pairwise graph or first-fit).
    PerOptions,
    /// Degraded mode: first-fit with a single try per column — the
    /// incremental pair merging of Algorithm 3.1, transported to the cut.
    PairMergeOnly,
}

/// Is this budget error unrecoverable within the current phase?
fn is_terminal(e: BudgetError) -> bool {
    !matches!(e, BudgetError::NodeLimit { .. })
}

/// The distinct non-zero nodes hanging below `cut`, sorted by node id —
/// the column functions, and the rail alphabet of a cascade cell boundary
/// at that cut.
pub fn collect_columns(mgr: &BddManager, root: NodeId, cut: u32) -> Vec<NodeId> {
    let mut set: FastSet<NodeId> = FastSet::default();
    if mgr.level_of_node(root) >= cut && root != FALSE {
        set.insert(root);
    }
    for n in mgr.descendants(&[root]) {
        if mgr.level_of_node(n) >= cut {
            continue;
        }
        for child in [mgr.lo(n), mgr.hi(n)] {
            if child != FALSE && mgr.level_of_node(child) >= cut {
                set.insert(child);
            }
        }
    }
    let mut columns: Vec<NodeId> = set.into_iter().collect();
    columns.sort_unstable();
    columns
}

fn try_reduce_cut(
    mgr: &mut BddManager,
    ctx: &CompatCtx,
    root: NodeId,
    cut: u32,
    options: &Alg33Options,
    columns_merged: &mut usize,
    mode: CutCover,
) -> Result<NodeId, BudgetError> {
    let columns = collect_columns(mgr, root, cut);
    if columns.len() <= 1 {
        return Ok(root);
    }
    // Bucket by live set: only identically-live columns can merge.
    let mut buckets: FastMap<NodeId, Vec<NodeId>> = FastMap::default();
    for &col in &columns {
        let live = ctx.try_live(mgr, col)?;
        buckets.entry(live).or_default().push(col);
    }
    let mut bucket_list: Vec<(NodeId, Vec<NodeId>)> = buckets.into_iter().collect();
    bucket_list.sort_unstable_by_key(|(live, _)| *live);

    let ycube = ctx.ycube();
    let mut mapping: FastMap<NodeId, NodeId> = FastMap::default();
    for (_, group) in bucket_list {
        if group.len() < 2 {
            continue;
        }
        let cliques = match mode {
            CutCover::PerOptions if group.len() <= options.max_pairwise_group => {
                cover_by_pairwise_graph(mgr, ycube, &group)?
            }
            CutCover::PerOptions => cover_first_fit(mgr, ycube, &group, FIRST_FIT_TRIES)?,
            CutCover::PairMergeOnly => cover_first_fit(mgr, ycube, &group, 1)?,
        };
        for (product, members) in cliques {
            if members.len() < 2 {
                continue;
            }
            *columns_merged += members.len() - 1;
            for m in members {
                mapping.insert(m, product);
            }
        }
    }
    if mapping.is_empty() {
        return Ok(root);
    }
    let mut memo: FastMap<NodeId, NodeId> = FastMap::default();
    rebuild_above(mgr, root, cut, &mapping, &mut memo)
}

/// Merges `column` into `product` if their product keeps the live set
/// both share (they come from one live-set bucket, so it is the only
/// compatibility condition left; see [`crate::compat`]).
fn try_merge_in_bucket(
    mgr: &mut BddManager,
    ycube: NodeId,
    product: NodeId,
    column: NodeId,
) -> Result<Option<NodeId>, BudgetError> {
    // The column goes first: the test starts from its live set, which
    // bucketing already computed.
    if !mgr.try_and_exists_keeps(column, product, ycube)? {
        return Ok(None);
    }
    Ok(Some(mgr.try_and(product, column)?))
}

/// Full pairwise graph + Algorithm 3.2, then incremental re-validated
/// multiplication of each clique. Returns `(product, members)` pairs.
fn cover_by_pairwise_graph(
    mgr: &mut BddManager,
    ycube: NodeId,
    group: &[NodeId],
) -> Result<Vec<(NodeId, Vec<NodeId>)>, BudgetError> {
    let mut graph = CompatGraph::new(group.len());
    for i in 0..group.len() {
        for j in i + 1..group.len() {
            if mgr.try_and_exists_keeps(group[i], group[j], ycube)? {
                graph.add_edge(i, j);
            }
        }
    }
    let mut result = Vec::new();
    for clique in graph.clique_cover() {
        let mut product = group[clique[0]];
        let mut members = vec![group[clique[0]]];
        let mut spilled = Vec::new();
        for &i in &clique[1..] {
            match try_merge_in_bucket(mgr, ycube, product, group[i])? {
                Some(p) => {
                    product = p;
                    members.push(group[i]);
                }
                None => spilled.push(group[i]),
            }
        }
        result.push((product, members));
        // Spilled members (joint-liveness failures) stay unmerged.
        for s in spilled {
            result.push((s, vec![s]));
        }
    }
    Ok(result)
}

/// First-fit greedy cover for large buckets: each column is tested against
/// up to `tries` existing clique products.
fn cover_first_fit(
    mgr: &mut BddManager,
    ycube: NodeId,
    group: &[NodeId],
    tries: usize,
) -> Result<Vec<(NodeId, Vec<NodeId>)>, BudgetError> {
    let mut cliques: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for &col in group {
        let mut placed = false;
        for (product, members) in cliques.iter_mut().take(tries) {
            if let Some(p) = try_merge_in_bucket(mgr, ycube, *product, col)? {
                *product = p;
                members.push(col);
                placed = true;
                break;
            }
        }
        if !placed {
            cliques.push((col, vec![col]));
        }
    }
    Ok(cliques)
}

/// Rewrites the part of the BDD above `cut`, redirecting every crossing
/// edge through `mapping`.
fn rebuild_above(
    mgr: &mut BddManager,
    n: NodeId,
    cut: u32,
    mapping: &FastMap<NodeId, NodeId>,
    memo: &mut FastMap<NodeId, NodeId>,
) -> Result<NodeId, BudgetError> {
    if mgr.level_of_node(n) >= cut {
        return Ok(*mapping.get(&n).unwrap_or(&n));
    }
    if let Some(&r) = memo.get(&n) {
        return Ok(r);
    }
    let var = mgr.var_of(n);
    let lo = mgr.lo(n);
    let hi = mgr.hi(n);
    let new_lo = rebuild_above(mgr, lo, cut, mapping, memo)?;
    let new_hi = rebuild_above(mgr, hi, cut, mapping, memo)?;
    let r = if new_lo == lo && new_hi == hi {
        n
    } else {
        mgr.try_mk(var, new_lo, new_hi)?
    };
    memo.insert(n, r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::TruthTable;

    #[test]
    fn preserves_realizability_on_paper_example() {
        let table = TruthTable::paper_table1();
        let mut cf = Cf::from_truth_table(&table);
        let stats = cf.reduce_alg33_default();
        assert!(cf.is_fully_live());
        assert!(stats.max_width_after <= stats.max_width_before);
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            let words = cf.allowed_words(&input);
            assert!(!words.is_empty(), "row {r} lost liveness");
            for w in words {
                assert!(
                    (0..2).all(|j| table.get(r, j).admits(w >> j & 1 == 1)),
                    "row {r} word {w:02b} violates the spec"
                );
            }
        }
    }

    #[test]
    fn completion_realizes_after_alg33() {
        let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
        cf.reduce_alg33_default();
        let g = cf.complete();
        assert!(cf.realizes_original(&g));
    }

    #[test]
    fn no_op_on_completely_specified_functions() {
        let table = TruthTable::paper_table1().completed(true);
        let mut cf = Cf::from_truth_table(&table);
        let before_nodes = cf.node_count();
        let stats = cf.reduce_alg33_default();
        assert_eq!(stats.columns_merged, 0);
        assert_eq!(stats.nodes_after, before_nodes);
    }

    #[test]
    fn at_least_as_strong_as_locally_obvious_merges() {
        // Same mergeable-cofactor function as the Algorithm 3.1 test.
        let table = TruthTable::from_rows(&["0", "d", "d", "0"]);
        let mut cf = Cf::from_truth_table(&table);
        let stats = cf.reduce_alg33_default();
        assert!(stats.columns_merged >= 1);
        assert!(stats.max_width_after <= stats.max_width_before);
        assert!(cf.is_fully_live());
    }

    #[test]
    fn column_collection_counts_crossing_nodes() {
        let table = TruthTable::paper_table1();
        let cf = Cf::from_truth_table(&table);
        let mgr = cf.manager();
        let t = cf.layout().num_vars() as u32;
        for cut in 1..t {
            let cols = collect_columns(mgr, cf.root(), cut);
            let width = cf.width_profile().at_cut(cut as usize);
            assert_eq!(cols.len().max(1), width, "cut {cut}");
        }
    }

    #[test]
    fn first_fit_and_pairwise_agree_on_liveness() {
        let table = TruthTable::paper_table1();
        // Run with pairwise only.
        let mut cf1 = Cf::from_truth_table(&table);
        let s1 = cf1.reduce_alg33(&Alg33Options {
            max_pairwise_group: usize::MAX,
        });
        // Run with first-fit only.
        let mut cf2 = Cf::from_truth_table(&table);
        let s2 = cf2.reduce_alg33(&Alg33Options {
            max_pairwise_group: 0,
        });
        assert!(cf1.is_fully_live());
        assert!(cf2.is_fully_live());
        assert!(s1.max_width_after <= s1.max_width_before);
        assert!(s2.max_width_after <= s2.max_width_before);
    }
}
