//! The [`BddManager`]: node arena, unique table, Boolean operations,
//! quantification, composition, counting, and bulk constructors.
//!
//! # Design notes
//!
//! * Nodes are stored in a flat arena ([`Vec`]) and identified by [`NodeId`]
//!   (a `u32` index). The two terminals occupy the first two slots and have
//!   fixed ids [`FALSE`] and [`TRUE`].
//! * Nodes store the *variable* ([`Var`]), not the level. The manager keeps
//!   a `Var ↔ level` permutation, so dynamic reordering (see the
//!   [`reorder`](crate::reorder) module) only has to rebuild the nodes whose
//!   local shape changes.
//! * There is no reference counting. Temporary nodes accumulate in the arena
//!   and are reclaimed by an explicit mark-and-rebuild collection
//!   ([`BddManager::gc`]) which takes the set of live roots and returns their
//!   remapped ids. This is much simpler than per-node reference counts and
//!   entirely adequate for the workloads in this workspace (tens of
//!   thousands of live nodes).
//! * The unique table chains through the nodes themselves (each node
//!   carries a `next`-in-bucket arena index; see [`crate::table`]), so
//!   canonicity lookups touch the same cache lines `mk` is about to read.
//! * Operation results are cached (`ite`, quantification, composition) in
//!   direct-mapped tables with generation-tag invalidation. The caches are
//!   invalidated on garbage collection and on level swaps — after a swap a
//!   cached result may no longer be in canonical variable order — but an
//!   invalidation is a single generation bump, not a sweep.

use crate::budget::{Budget, Error};
use crate::hasher::{FastMap, FastSet};
use crate::table::{held, ComputedTable, EngineStats, Node, UniqueTable, NIL};
use std::fmt;

/// A Boolean variable, identified by a stable index.
///
/// Variable ids never change; the *level* (position in the current variable
/// order) of a variable can change through reordering. Use
/// [`BddManager::level_of`] to translate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a BDD node inside a [`BddManager`].
///
/// A `NodeId` is only meaningful together with the manager that allocated
/// it. Equal ids denote identical functions (the manager maintains a strong
/// canonical form).
///
/// With the `check` feature enabled each id additionally carries a *brand*:
/// the epoch of the manager generation that minted it. Manager accessors
/// verify the brand on every dereference, so using an id against a foreign
/// manager — or after the owning manager's [`gc`](BddManager::gc)
/// invalidated it — panics immediately instead of silently denoting the
/// wrong function. The brand never participates in equality, ordering, or
/// hashing, and release builds carry no second field at all.
#[derive(Clone, Copy)]
pub struct NodeId(
    pub(crate) u32,
    /// Epoch of the minting manager generation; 0 = unbranded (terminals,
    /// wire-format ids), accepted by every manager.
    #[cfg(feature = "check")]
    pub(crate) u32,
);

impl PartialEq for NodeId {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for NodeId {}

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for NodeId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl NodeId {
    /// The raw arena index, for wire formats and diagnostics. Only
    /// meaningful together with the manager that allocated the id.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from a raw arena index, e.g. while decoding a
    /// snapshot. The index is *not* checked here; callers must validate it
    /// against the arena of the manager the id will be used with (a stale
    /// or forged id panics or denotes the wrong function at use sites).
    /// The result is unbranded: `check` builds accept it against any
    /// manager.
    pub fn from_raw(raw: u32) -> NodeId {
        Self::unbranded(raw)
    }

    /// An id with no brand (accepted by every manager in `check` builds).
    pub(crate) fn unbranded(raw: u32) -> NodeId {
        #[cfg(feature = "check")]
        return NodeId(raw, 0);
        #[cfg(not(feature = "check"))]
        NodeId(raw)
    }

    /// Test-only unbranded constructor for table unit tests.
    #[cfg(test)]
    pub(crate) fn test_raw(raw: u32) -> NodeId {
        Self::unbranded(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FALSE {
            write!(f, "n⊥")
        } else if *self == TRUE {
            write!(f, "n⊤")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// The constant-false terminal node.
#[cfg(not(feature = "check"))]
pub const FALSE: NodeId = NodeId(0);
/// The constant-false terminal node.
#[cfg(feature = "check")]
pub const FALSE: NodeId = NodeId(0, 0);
/// The constant-true terminal node.
#[cfg(not(feature = "check"))]
pub const TRUE: NodeId = NodeId(1);
/// The constant-true terminal node.
#[cfg(feature = "check")]
pub const TRUE: NodeId = NodeId(1, 0);

/// Source of manager epochs for `check`-build NodeId brands. Epoch 0 is
/// reserved for unbranded ids, so the counter starts at 1.
#[cfg(feature = "check")]
static NEXT_EPOCH: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);

/// A fresh, never-before-issued manager epoch.
#[cfg(feature = "check")]
fn fresh_epoch() -> u32 {
    NEXT_EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Sentinel variable index used by terminal nodes.
const TERMINAL_VAR: u32 = u32::MAX;

/// Indices of the four operation caches in `BddManager::caches`.
const ITE: usize = 0;
const EXISTS: usize = 1;
const AND_EXISTS: usize = 2;
const COMPOSE: usize = 3;

/// Level reported for terminal nodes: below every variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// A shared ROBDD store.
///
/// All functions built by one manager share structure and may be combined
/// with each other. See the [crate documentation](crate) for an overview and
/// an example.
///
/// Cloning a manager snapshots the whole node store: node ids taken from
/// the original remain valid (and denote the same functions) in the clone,
/// which is how experiments fork one baseline into several independently
/// reduced variants.
#[derive(Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: UniqueTable,
    /// The operation caches, indexed by the `ITE` .. `COMPOSE` constants.
    caches: [ComputedTable; 4],
    /// Largest `nodes.len()` this manager generation ever reached.
    peak_nodes: usize,
    /// Completed [`gc`](Self::gc) passes, and the nodes they dropped.
    gc_runs: u64,
    gc_reclaimed: u64,
    /// Wall-clock nanoseconds spent inside those passes.
    gc_pause_ns: u64,
    /// In-place adjacent swaps (reorder.rs), the live nodes they rewrote,
    /// and the orphans they freed.
    swaps: u64,
    swap_rewrites: u64,
    swap_reclaimed: u64,
    var_at_level: Vec<Var>,
    level_of_var: Vec<u32>,
    budget: Budget,
    steps: u64,
    /// Forces [`poll_interrupts`](Self::poll_interrupts) on the next charged
    /// step, regardless of the 1024-step cadence. Armed whenever a budget is
    /// (re)installed, so an already-expired deadline or fired cancel token
    /// surfaces on the *first* cache-missing step of the next operation —
    /// deterministic for deadline tests, fail-fast for queue-expired
    /// service requests.
    poll_armed: bool,
    poisoned: bool,
    /// Brand epoch for `check` builds: every id this manager generation
    /// mints carries it, and every dereference verifies it. A clone shares
    /// the epoch (its arena is a snapshot, so foreign ids stay valid);
    /// [`gc`](Self::gc) moves to a fresh epoch because it invalidates all
    /// unreturned ids.
    #[cfg(feature = "check")]
    epoch: u32,
    /// `check` builds: a snapshot-restored manager accepts ids of *any*
    /// brand — the wire format erases provenance while the documented
    /// contract keeps original ids valid in the restored arena. The first
    /// [`gc`](Self::gc) re-mints every surviving id under this manager's
    /// own epoch and closes the window.
    #[cfg(feature = "check")]
    open: bool,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.num_vars())
            .field("arena_len", &self.nodes.len())
            .finish()
    }
}

impl BddManager {
    /// Creates a manager with `num_vars` variables `Var(0) .. Var(num_vars-1)`,
    /// initially ordered by index (`Var(0)` on top).
    pub fn new(num_vars: usize) -> Self {
        let mut mgr = BddManager {
            nodes: Vec::with_capacity(1024),
            unique: UniqueTable::with_capacity_log2(UniqueTable::capacity_log2_for(0)),
            caches: Default::default(),
            peak_nodes: 2,
            gc_runs: 0,
            gc_reclaimed: 0,
            gc_pause_ns: 0,
            swaps: 0,
            swap_rewrites: 0,
            swap_reclaimed: 0,
            var_at_level: (0..num_vars as u32).map(Var).collect(),
            level_of_var: (0..num_vars as u32).collect(),
            budget: Budget::default(),
            steps: 0,
            poll_armed: false,
            poisoned: false,
            #[cfg(feature = "check")]
            epoch: fresh_epoch(),
            #[cfg(feature = "check")]
            open: false,
        };
        mgr.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: FALSE,
            hi: FALSE,
            next: NIL,
        });
        mgr.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: TRUE,
            hi: TRUE,
            next: NIL,
        });
        mgr
    }

    /// Appends a fresh variable at the bottom of the current order.
    pub fn add_var(&mut self) -> Var {
        let v = Var(self.level_of_var.len() as u32);
        self.level_of_var.push(self.var_at_level.len() as u32);
        self.var_at_level.push(v);
        v
    }

    /// Number of variables managed.
    pub fn num_vars(&self) -> usize {
        self.var_at_level.len()
    }

    /// Total number of nodes in the arena, live or garbage (terminals
    /// included). Useful for deciding when to [`gc`](Self::gc).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    // ---------------------------------------------------------------------
    // In-place swap support (reorder.rs)
    // ---------------------------------------------------------------------

    /// The raw `(var, lo, hi)` fields of the node at `raw`, unchecked. The
    /// terminals carry a sentinel variable that matches no [`Var`].
    #[inline]
    pub(crate) fn fields(&self, raw: u32) -> (u32, NodeId, NodeId) {
        let n = &self.nodes[raw as usize];
        (n.var, n.lo, n.hi)
    }

    /// Nodes linked in the unique table, live or tabled garbage.
    pub(crate) fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Unlinks the node at `raw` from the unique table, reporting whether
    /// it was linked (see [`UniqueTable::unlink_checked`]).
    pub(crate) fn unique_unlink_checked(&mut self, raw: u32) -> bool {
        self.unique.unlink_checked(&mut self.nodes, raw)
    }

    /// The in-place swap's `mk` for its cofactors: the canonical node for
    /// `(var, lo, hi)`, found or inserted with one hash of the key. A new
    /// node takes a slot from `free` before the arena grows. The budget is
    /// not consulted: `mk` suspends it too, and the reorders check
    /// [`is_poisoned`](Self::is_poisoned) once when they start.
    pub(crate) fn find_or_insert(
        &mut self,
        var: Var,
        lo: NodeId,
        hi: NodeId,
        free: &mut Vec<u32>,
    ) -> NodeId {
        self.check_brand(lo);
        self.check_brand(hi);
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.level_of(var) < self.level_of_node(lo)
                && self.level_of(var) < self.level_of_node(hi),
            "find_or_insert: variable {var:?} not above its children"
        );
        let hash = UniqueTable::hash(var.0, lo.0, hi.0);
        if let Some(raw) = self
            .unique
            .find_hashed(&self.nodes, hash, var.0, lo.0, hi.0)
        {
            return self.brand(raw);
        }
        if self.unique.should_grow() {
            self.unique.grow(&mut self.nodes);
        }
        let node = Node {
            var: var.0,
            lo,
            hi,
            next: NIL,
        };
        let raw = match free.pop() {
            Some(raw) => {
                self.nodes[raw as usize] = node;
                raw
            }
            None => {
                assert!(self.nodes.len() < u32::MAX as usize, "node arena overflow");
                self.nodes.push(node);
                self.peak_nodes = self.peak_nodes.max(self.nodes.len());
                (self.nodes.len() - 1) as u32
            }
        };
        self.unique.insert_hashed(&mut self.nodes, raw, hash);
        self.brand(raw)
    }

    /// Rewrites the unlinked node at `raw` to `(var, lo, hi)` where it sits
    /// and links it under the new key, displacing a garbage twin that holds
    /// the key in the same walk of its chain (see
    /// [`UniqueTable::link_displacing`]).
    pub(crate) fn relink_as(&mut self, raw: u32, var: Var, lo: NodeId, hi: NodeId) {
        self.check_brand(lo);
        self.check_brand(hi);
        self.nodes[raw as usize] = Node {
            var: var.0,
            lo,
            hi,
            next: NIL,
        };
        self.unique.link_displacing(&mut self.nodes, raw);
    }

    /// Records one in-place swap that rewrote `rewrites` live nodes and
    /// freed `reclaimed` orphans.
    pub(crate) fn count_swap(&mut self, rewrites: u64, reclaimed: u64) {
        self.swaps += 1;
        self.swap_rewrites += rewrites;
        self.swap_reclaimed += reclaimed;
    }

    /// Current level (position in the order, `0` = top) of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this manager.
    pub fn level_of(&self, var: Var) -> u32 {
        self.level_of_var[var.0 as usize]
    }

    /// The variable currently at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn var_at(&self, level: u32) -> Var {
        self.var_at_level[level as usize]
    }

    /// The current variable order, top to bottom.
    pub fn order(&self) -> &[Var] {
        &self.var_at_level
    }

    /// Installs a complete variable order (a permutation of all variables,
    /// top to bottom). Only affects *future* node constructions; existing
    /// nodes are not rebuilt, so this should be called before building
    /// functions, or via [`reorder`](crate::reorder) facilities otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of this manager's variables,
    /// or if any non-terminal node exists (rebuilding is the job of the
    /// reordering module). [`try_set_order`](Self::try_set_order) is the
    /// non-panicking variant.
    pub fn set_order(&mut self, order: &[Var]) {
        match self.try_set_order(order) {
            Ok(()) => {}
            Err(OrderError::WrongLength { .. }) => panic!("order must cover all variables"),
            Err(OrderError::DuplicateVar { var }) => {
                panic!("duplicate variable {var:?} in order")
            }
            Err(OrderError::NonEmptyManager { .. }) => {
                panic!("set_order may only be used on an empty manager; use reordering otherwise")
            }
        }
    }

    /// Fallible variant of [`set_order`](Self::set_order): validates the
    /// permutation and refuses to run on a non-empty manager (existing nodes
    /// would silently violate the level invariant — rebuilding under a new
    /// order is the job of the [`reorder`](crate::reorder) module). On
    /// `Err` the manager is unchanged.
    // xlint: allow(XL104): indices are range-checked by the short-circuit `>=` guard and the validation loop above each use
    pub fn try_set_order(&mut self, order: &[Var]) -> Result<(), OrderError> {
        if order.len() != self.num_vars() {
            return Err(OrderError::WrongLength {
                expected: self.num_vars(),
                got: order.len(),
            });
        }
        if self.nodes.len() != 2 {
            return Err(OrderError::NonEmptyManager {
                interior_nodes: self.nodes.len() - 2,
            });
        }
        let mut seen = vec![false; self.num_vars()];
        for &v in order {
            if (v.0 as usize) >= seen.len() || std::mem::replace(&mut seen[v.0 as usize], true) {
                return Err(OrderError::DuplicateVar { var: v });
            }
        }
        for (lvl, &v) in order.iter().enumerate() {
            self.level_of_var[v.0 as usize] = lvl as u32;
        }
        self.var_at_level.copy_from_slice(order);
        Ok(())
    }

    /// Crate-internal raw order update used by level swapping: assigns
    /// `level_a` to `a` and `level_b` to `b` without any rebuilding.
    pub(crate) fn set_levels_raw(&mut self, a: Var, level_a: u32, b: Var, level_b: u32) {
        self.level_of_var[a.0 as usize] = level_a;
        self.level_of_var[b.0 as usize] = level_b;
        self.var_at_level[level_a as usize] = a;
        self.var_at_level[level_b as usize] = b;
    }

    // ---------------------------------------------------------------------
    // Resource governance
    // ---------------------------------------------------------------------

    /// Installs a resource [`Budget`] and resets the step counter.
    ///
    /// The budget only constrains the fallible `try_*` operations; the
    /// infallible operations suspend it for their duration and keep their
    /// historical never-fails behavior. A `time_budget` allowance is
    /// converted to an absolute deadline at install time, read from the
    /// budget's [`Clock`](crate::clock::Clock) (the monotonic system clock
    /// unless a test or the serving layer injected one).
    pub fn set_budget(&mut self, mut budget: Budget) {
        if budget.deadline.is_none() {
            if let Some(allowance) = budget.time_budget {
                budget.deadline = Some(budget.now() + allowance);
            }
        }
        self.budget = budget;
        self.steps = 0;
        self.poll_armed = true;
    }

    /// The currently installed budget (unlimited by default).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Removes and returns the installed budget, leaving the manager
    /// unlimited. The step counter keeps running.
    pub fn take_budget(&mut self) -> Budget {
        std::mem::take(&mut self.budget)
    }

    /// Restores a budget previously removed with
    /// [`take_budget`](Self::take_budget), preserving the step counter and
    /// any already-derived deadline. Higher layers use this pair to suspend
    /// governance around an operation (e.g. to run an oracle or implement an
    /// infallible wrapper) without perturbing step accounting; use
    /// [`set_budget`](Self::set_budget) to install a *fresh* budget instead.
    pub fn resume_budget(&mut self, budget: Budget) {
        self.budget = budget;
        self.poll_armed = true;
    }

    /// Operation steps charged since the budget was last installed (or since
    /// construction). One step is one cache-missing recursive call of a
    /// budgeted operation — a deterministic, machine-independent measure of
    /// work used by the fault-injection harness to place reproducible
    /// faults.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Marks the manager as poisoned. Batch harnesses call this after a
    /// panic unwinds through an operation on this manager: the arena may be
    /// mid-construction, so every further budgeted operation refuses to run
    /// with [`Error::Poisoned`] rather than silently building on a possibly
    /// half-written state. Idempotent; there is no un-poisoning — rebuild
    /// from a snapshot (or from scratch) instead.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Has [`poison`](Self::poison) been called on this manager (directly,
    /// or via a snapshot restore of a poisoned manager)?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Charges one operation step against the budget. Called on every
    /// recursion of the `try_*` operations (after their terminal
    /// short-cuts). Cheap checks (step limit, deterministic cancel hook) run
    /// every step; the clock and the cancellation flag are polled every 1024
    /// steps to keep the hot path tight, plus once on the first charged step
    /// after any budget (re)install — so an operation starting past its
    /// deadline fails on its first cache-missing step, which makes
    /// queue-expired service requests fail fast and deadline tests
    /// deterministic.
    #[inline]
    fn charge(&mut self) -> Result<(), Error> {
        if self.poisoned {
            return Err(Error::Poisoned);
        }
        self.steps += 1;
        if let Some(limit) = self.budget.step_limit {
            if self.steps > limit {
                return Err(Error::StepLimit { limit });
            }
        }
        if let Some(at) = self.budget.cancel_at_step {
            if self.steps >= at {
                if let Some(token) = &self.budget.cancel {
                    token.cancel();
                }
                return Err(Error::Cancelled);
            }
        }
        if self.poll_armed || self.steps & 0x3FF == 0 {
            self.poll_armed = false;
            self.poll_interrupts()?;
        }
        Ok(())
    }

    /// The slow-path half of [`charge`](Self::charge): cancellation flag and
    /// monotonic-clock deadline (via the budget's injectable
    /// [`Clock`](crate::clock::Clock)).
    #[cold]
    fn poll_interrupts(&self) -> Result<(), Error> {
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                return Err(Error::Cancelled);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.budget.now() >= deadline {
                return Err(Error::TimeBudget);
            }
        }
        Ok(())
    }

    /// Runs `op` with the budget suspended. This is how the infallible
    /// operations delegate to their `try_*` twins without ever observing a
    /// budget error.
    /// # Panics
    ///
    /// Panics if the manager is [poisoned](Self::poison): the infallible
    /// wrappers have no error channel, and continuing on a quarantined
    /// manager would defeat the quarantine.
    #[inline]
    fn unbudgeted<T>(&mut self, op: impl FnOnce(&mut Self) -> Result<T, Error>) -> T {
        let saved = std::mem::take(&mut self.budget);
        let result = op(self);
        self.budget = saved;
        // Re-arm the interrupt poll: the next charged step of a budgeted
        // operation re-checks deadline and cancellation, so an expiry that
        // happened while the budget was suspended is not missed for up to
        // 1024 steps.
        self.poll_armed = true;
        match result {
            Ok(value) => value,
            Err(e) => panic!("invariant: unbudgeted BDD operations cannot fail (got: {e})"),
        }
    }

    // ---------------------------------------------------------------------
    // Structural access
    // ---------------------------------------------------------------------

    /// Is `id` one of the two terminal nodes?
    pub fn is_const(&self, id: NodeId) -> bool {
        id == FALSE || id == TRUE
    }

    /// Brands a raw arena index with this manager's current epoch
    /// (`check` builds); a plain constructor otherwise.
    #[inline]
    pub(crate) fn brand(&self, raw: u32) -> NodeId {
        #[cfg(feature = "check")]
        return NodeId(raw, self.epoch);
        #[cfg(not(feature = "check"))]
        NodeId(raw)
    }

    /// Verifies (in `check` builds) that `id` was minted by this manager
    /// generation. Unbranded ids — terminals and wire-format ids — always
    /// pass; everything else must carry the current epoch.
    ///
    /// # Panics
    ///
    /// Panics on a brand mismatch: the id came from a different manager,
    /// or from this manager before its last [`gc`](Self::gc).
    #[inline]
    pub(crate) fn check_brand(&self, id: NodeId) {
        #[cfg(feature = "check")]
        assert!(
            self.open || id.1 == 0 || id.1 == self.epoch,
            "NodeId n{} (brand {}) used against a manager at epoch {}: the id was \
             minted by a different manager, or invalidated by this manager's gc",
            id.0,
            id.1,
            self.epoch,
        );
        #[cfg(not(feature = "check"))]
        let _ = id;
    }

    /// Top variable of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub fn var_of(&self, id: NodeId) -> Var {
        self.check_brand(id);
        assert!(!self.is_const(id), "terminals have no variable");
        Var(self.nodes[id.0 as usize].var)
    }

    /// 0-successor of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub fn lo(&self, id: NodeId) -> NodeId {
        self.check_brand(id);
        assert!(!self.is_const(id), "terminals have no successors");
        self.nodes[id.0 as usize].lo
    }

    /// 1-successor of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub fn hi(&self, id: NodeId) -> NodeId {
        self.check_brand(id);
        assert!(!self.is_const(id), "terminals have no successors");
        self.nodes[id.0 as usize].hi
    }

    /// Level of the node's top variable; `u32::MAX` for terminals.
    pub fn level_of_node(&self, id: NodeId) -> u32 {
        self.check_brand(id);
        let node = self.nodes[id.0 as usize];
        if node.var == TERMINAL_VAR {
            TERMINAL_LEVEL
        } else {
            self.level_of_var[node.var as usize]
        }
    }

    /// All distinct nodes reachable from `roots` (terminals excluded),
    /// in depth-first discovery order.
    pub fn descendants(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if self.is_const(n) || seen[n.0 as usize] {
                continue;
            }
            seen[n.0 as usize] = true;
            out.push(n);
            let node = self.nodes[n.0 as usize];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        out
    }

    /// Number of distinct non-terminal nodes reachable from `root`.
    pub fn node_count(&self, root: NodeId) -> usize {
        self.descendants(&[root]).len()
    }

    /// Number of distinct non-terminal nodes shared among several roots.
    pub fn node_count_multi(&self, roots: &[NodeId]) -> usize {
        self.descendants(roots).len()
    }

    // ---------------------------------------------------------------------
    // Snapshot raw access (see the `snapshot` module for the wire format)
    // ---------------------------------------------------------------------

    /// Interior nodes as raw `(var, lo, hi)` triples in arena order
    /// (terminals excluded). Arena order places every child before its
    /// parent, which the snapshot reader relies on for one-pass validation.
    pub(crate) fn raw_nodes(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.nodes[2..].iter().map(|n| (n.var, n.lo.0, n.hi.0))
    }

    /// log2 of the unique table's bucket count — the geometry word of
    /// snapshot wire format v2.
    pub(crate) fn unique_capacity_log2(&self) -> u32 {
        self.unique.capacity_log2()
    }

    /// Rebuilds a manager from snapshot parts: a variable order and the
    /// interior-node triples in arena order. The unique table is
    /// reconstructed — chains are not serialized, only (in wire format v2)
    /// the bucket-array geometry, passed as `unique_capacity_log2`; `None`
    /// (v1 snapshots) falls back to the deterministic
    /// [`UniqueTable::capacity_log2_for`] geometry. Every triple is
    /// validated — variable in range, no redundant node, children strictly
    /// before their parent in the arena and strictly below in the level
    /// order, no duplicate `(var, lo, hi)` key. On failure, returns the
    /// index of the offending triple (`0` for a bad order) and a
    /// description, so the caller can translate it into a byte offset.
    pub(crate) fn from_snapshot_parts(
        order: &[Var],
        triples: &[(u32, u32, u32)],
        poisoned: bool,
        unique_capacity_log2: Option<u32>,
    ) -> Result<Self, (usize, String)> {
        let num_vars = order.len();
        let mut mgr = BddManager::new(num_vars);
        if let Err(e) = mgr.try_set_order(order) {
            return Err((0, format!("variable order is not a permutation: {e:?}")));
        }
        mgr.poisoned = poisoned;
        #[cfg(feature = "check")]
        {
            // Restored arenas honor the snapshot contract: ids from the
            // manager that produced the bytes stay valid here.
            mgr.open = true;
        }
        mgr.nodes.reserve(triples.len());
        for (i, &(var, lo, hi)) in triples.iter().enumerate() {
            let id = mgr.brand((i + 2) as u32);
            if var as usize >= num_vars {
                return Err((
                    i,
                    format!("node n{}: variable index {var} out of range", id.0),
                ));
            }
            if lo == hi {
                return Err((i, format!("node n{}: redundant node (lo == hi)", id.0)));
            }
            if lo >= id.0 || hi >= id.0 {
                return Err((
                    i,
                    format!("node n{}: child does not precede parent in the arena", id.0),
                ));
            }
            let (lo, hi) = (mgr.brand(lo), mgr.brand(hi));
            let level = mgr.level_of_var[var as usize];
            if level >= mgr.level_of_node(lo) || level >= mgr.level_of_node(hi) {
                return Err((
                    i,
                    format!(
                        "node n{}: variable not above its children in the order",
                        id.0
                    ),
                ));
            }
            if mgr.unique.find_quiet(&mgr.nodes, var, lo.0, hi.0).is_some() {
                return Err((i, format!("node n{}: duplicate of an earlier node", id.0)));
            }
            if mgr.unique.should_grow() {
                mgr.unique.grow(&mut mgr.nodes);
            }
            mgr.nodes.push(Node {
                var,
                lo,
                hi,
                next: NIL,
            });
            mgr.unique.insert(&mut mgr.nodes, id.0);
        }
        // Wire format v2 records the bucket geometry; honoring it keeps a
        // restored manager byte-identical to the one that wrote the bytes.
        let cap = unique_capacity_log2
            .unwrap_or_else(|| UniqueTable::capacity_log2_for(mgr.unique.len()));
        if cap != mgr.unique.capacity_log2() {
            mgr.unique.rebuild(&mut mgr.nodes, cap);
        }
        mgr.peak_nodes = mgr.nodes.len();
        Ok(mgr)
    }

    // ---------------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------------

    /// The canonical node for `if var then hi else lo`.
    ///
    /// Applies the ROBDD reduction rules. `var` must lie strictly above both
    /// children in the current order (checked in debug builds).
    pub fn mk(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_mk(var, lo, hi))
    }

    /// Budgeted variant of [`mk`](Self::mk): fails with
    /// [`Error::NodeLimit`] if a genuinely new node would push the arena
    /// past the quota. Reduction-rule and unique-table hits never fail.
    pub fn try_mk(&mut self, var: Var, lo: NodeId, hi: NodeId) -> Result<NodeId, Error> {
        self.check_brand(lo);
        self.check_brand(hi);
        if self.poisoned {
            return Err(Error::Poisoned);
        }
        if lo == hi {
            return Ok(lo);
        }
        debug_assert!(
            self.level_of(var) < self.level_of_node(lo)
                && self.level_of(var) < self.level_of_node(hi),
            "mk: variable {var:?} (level {}) not above children (levels {}, {})",
            self.level_of(var),
            self.level_of_node(lo),
            self.level_of_node(hi),
        );
        let hash = UniqueTable::hash(var.0, lo.0, hi.0);
        if let Some(raw) = self
            .unique
            .find_hashed(&self.nodes, hash, var.0, lo.0, hi.0)
        {
            return Ok(self.brand(raw));
        }
        if let Some(limit) = self.budget.node_limit {
            if self.nodes.len() >= limit {
                return Err(Error::NodeLimit { limit });
            }
        }
        assert!(self.nodes.len() < u32::MAX as usize, "node arena overflow");
        if self.unique.should_grow() {
            self.unique.grow(&mut self.nodes);
        }
        let raw = self.nodes.len() as u32;
        self.nodes.push(Node {
            var: var.0,
            lo,
            hi,
            next: NIL,
        });
        self.unique.insert_hashed(&mut self.nodes, raw, hash);
        if self.nodes.len() > self.peak_nodes {
            self.peak_nodes = self.nodes.len();
        }
        Ok(self.brand(raw))
    }

    /// The function `var` (a positive literal).
    pub fn var(&mut self, var: Var) -> NodeId {
        self.mk(var, FALSE, TRUE)
    }

    /// The function `¬var` (a negative literal).
    pub fn nvar(&mut self, var: Var) -> NodeId {
        self.mk(var, TRUE, FALSE)
    }

    /// The literal `var` if `positive`, else `¬var`.
    pub fn literal(&mut self, var: Var, positive: bool) -> NodeId {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// Budgeted variant of [`literal`](Self::literal).
    pub fn try_literal(&mut self, var: Var, positive: bool) -> Result<NodeId, Error> {
        if positive {
            self.try_mk(var, FALSE, TRUE)
        } else {
            self.try_mk(var, TRUE, FALSE)
        }
    }

    /// Conjunction of literals. An empty slice yields `TRUE`.
    ///
    /// Literals may be given in any order; duplicates are allowed but a
    /// variable must not appear with both polarities (that would be the
    /// constant false, which is returned in that case).
    pub fn cube(&mut self, literals: &[(Var, bool)]) -> NodeId {
        self.unbudgeted(|m| m.try_cube(literals))
    }

    /// Budgeted variant of [`cube`](Self::cube).
    // xlint: allow(XL104): `pair[0]`/`pair[1]` index `windows(2)` chunks, which always hold exactly two elements
    pub fn try_cube(&mut self, literals: &[(Var, bool)]) -> Result<NodeId, Error> {
        let mut lits: Vec<(u32, Var, bool)> = literals
            .iter()
            .map(|&(v, pos)| (self.level_of(v), v, pos))
            .collect();
        lits.sort_unstable();
        lits.dedup();
        // Detect contradictory literals (same var, both polarities).
        for pair in lits.windows(2) {
            if pair[0].1 == pair[1].1 {
                return Ok(FALSE);
            }
        }
        let mut acc = TRUE;
        for &(_, v, pos) in lits.iter().rev() {
            acc = if pos {
                self.try_mk(v, FALSE, acc)?
            } else {
                self.try_mk(v, acc, FALSE)?
            };
        }
        Ok(acc)
    }

    /// Builds the disjunction of a set of *minterms* over the given
    /// variables in time `O(k·n)` for `k` minterms over `n` variables.
    ///
    /// `minterms[i]` encodes one assignment: bit `j` (LSB = bit 0) is the
    /// value of `vars[j]`. Duplicate minterms are tolerated.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty while `minterms` is not, if `vars` holds
    /// more than 64 variables, or if a minterm sets bits outside
    /// `vars.len()`.
    pub fn from_minterms(&mut self, vars: &[Var], minterms: &[u64]) -> NodeId {
        self.unbudgeted(|m| m.try_from_minterms(vars, minterms))
    }

    /// Budgeted variant of [`from_minterms`](Self::from_minterms); the
    /// documented panics on malformed input apply unchanged.
    // xlint: allow(XL104): `vars[j]` uses `j` drawn from an enumeration of `vars`' own indices
    pub fn try_from_minterms(&mut self, vars: &[Var], minterms: &[u64]) -> Result<NodeId, Error> {
        if minterms.is_empty() {
            return Ok(FALSE);
        }
        assert!(!vars.is_empty(), "minterms over an empty variable set");
        assert!(
            vars.len() <= 64,
            "from_minterms supports at most 64 variables"
        );
        let width = vars.len();
        if width < 64 {
            for &m in minterms {
                assert!(
                    m >> width == 0,
                    "minterm {m:#x} sets bits outside the {width} given variables"
                );
            }
        }
        // Order variables by current level (top first) and remap minterm bits
        // so that the most significant comparison bit is the top variable.
        let mut by_level: Vec<(u32, usize)> = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (self.level_of(v), j))
            .collect();
        by_level.sort_unstable();
        let mut remapped: Vec<u64> = minterms
            .iter()
            .map(|&m| {
                let mut r = 0u64;
                for (rank, &(_, j)) in by_level.iter().enumerate() {
                    if m >> j & 1 == 1 {
                        // top variable -> most significant bit
                        r |= 1 << (width - 1 - rank);
                    }
                }
                r
            })
            .collect();
        remapped.sort_unstable();
        remapped.dedup();
        let sorted_vars: Vec<Var> = by_level.iter().map(|&(_, j)| vars[j]).collect();
        self.build_sorted_minterms(&sorted_vars, &remapped, 0)
    }

    fn build_sorted_minterms(
        &mut self,
        vars: &[Var],
        minterms: &[u64],
        depth: usize,
    ) -> Result<NodeId, Error> {
        if minterms.is_empty() {
            return Ok(FALSE);
        }
        if depth == vars.len() {
            return Ok(TRUE);
        }
        self.charge()?;
        let bit = vars.len() - 1 - depth;
        let split = minterms.partition_point(|&m| m >> bit & 1 == 0);
        let lo = self.build_sorted_minterms(vars, &minterms[..split], depth + 1)?;
        let hi = self.build_sorted_minterms(vars, &minterms[split..], depth + 1)?;
        self.try_mk(vars[depth], lo, hi)
    }

    // ---------------------------------------------------------------------
    // Boolean operations
    // ---------------------------------------------------------------------

    /// If-then-else: `f·g ∨ ¬f·h`. The workhorse all binary operations are
    /// built on.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_ite(f, g, h))
    }

    /// Budgeted variant of [`ite`](Self::ite): charges one step per
    /// cache-missing recursion and respects the node quota.
    // xlint: allow(XL104): `caches[ITE]` is a constant index into the four-cache array
    pub fn try_ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> Result<NodeId, Error> {
        // Terminal short-cuts.
        if f == TRUE {
            return Ok(g);
        }
        if f == FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == TRUE && h == FALSE {
            return Ok(f);
        }
        if let Some(r) = self.caches[ITE].get(f.0, g.0, h.0) {
            return Ok(self.brand(r));
        }
        self.charge()?;
        let top = self
            .level_of_node(f)
            .min(self.level_of_node(g))
            .min(self.level_of_node(h));
        let var = self.var_at(top);
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let lo = self.try_ite(f0, g0, h0)?;
        let hi = self.try_ite(f1, g1, h1)?;
        let r = self.try_mk(var, lo, hi)?;
        self.caches[ITE].put(f.0, g.0, h.0, r.0);
        Ok(r)
    }

    /// The cofactors of `f` with respect to the variable at `level`, which
    /// must not lie below `f`'s top variable: `f`'s children if `f` is
    /// labelled there, else `f` twice.
    #[inline]
    pub fn cofactors_at(&self, f: NodeId, level: u32) -> (NodeId, NodeId) {
        if self.level_of_node(f) == level {
            let n = self.nodes[f.0 as usize];
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// Logical negation.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.ite(f, FALSE, TRUE)
    }

    /// Budgeted variant of [`not`](Self::not).
    pub fn try_not(&mut self, f: NodeId) -> Result<NodeId, Error> {
        self.try_ite(f, FALSE, TRUE)
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, FALSE)
    }

    /// Budgeted variant of [`and`](Self::and).
    pub fn try_and(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, Error> {
        self.try_ite(f, g, FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, TRUE, g)
    }

    /// Budgeted variant of [`or`](Self::or).
    pub fn try_or(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, Error> {
        self.try_ite(f, TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_xor(f, g))
    }

    /// Budgeted variant of [`xor`](Self::xor).
    pub fn try_xor(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, Error> {
        let ng = self.try_not(g)?;
        self.try_ite(f, ng, g)
    }

    /// Equivalence (`f ≡ g`, i.e. XNOR).
    pub fn iff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_iff(f, g))
    }

    /// Budgeted variant of [`iff`](Self::iff).
    pub fn try_iff(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, Error> {
        let ng = self.try_not(g)?;
        self.try_ite(f, g, ng)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, TRUE)
    }

    /// Budgeted variant of [`implies`](Self::implies).
    pub fn try_implies(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, Error> {
        self.try_ite(f, g, TRUE)
    }

    /// Applies a binary Boolean connective. Equivalent to the dedicated
    /// methods ([`and`](Self::and), [`or`](Self::or), …); useful when the
    /// connective is data.
    pub fn apply(&mut self, op: BinOp, f: NodeId, g: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_apply(op, f, g))
    }

    /// Budgeted variant of [`apply`](Self::apply).
    pub fn try_apply(&mut self, op: BinOp, f: NodeId, g: NodeId) -> Result<NodeId, Error> {
        match op {
            BinOp::And => self.try_and(f, g),
            BinOp::Or => self.try_or(f, g),
            BinOp::Xor => self.try_xor(f, g),
            BinOp::Iff => self.try_iff(f, g),
            BinOp::Implies => self.try_implies(f, g),
        }
    }

    /// Conjunction of many operands (TRUE for an empty slice).
    pub fn and_many(&mut self, fs: &[NodeId]) -> NodeId {
        self.unbudgeted(|m| m.try_and_many(fs))
    }

    /// Budgeted variant of [`and_many`](Self::and_many).
    pub fn try_and_many(&mut self, fs: &[NodeId]) -> Result<NodeId, Error> {
        let mut acc = TRUE;
        for &f in fs {
            acc = self.try_and(acc, f)?;
            if acc == FALSE {
                break;
            }
        }
        Ok(acc)
    }

    /// Disjunction of many operands (FALSE for an empty slice).
    pub fn or_many(&mut self, fs: &[NodeId]) -> NodeId {
        self.unbudgeted(|m| m.try_or_many(fs))
    }

    /// Budgeted variant of [`or_many`](Self::or_many).
    pub fn try_or_many(&mut self, fs: &[NodeId]) -> Result<NodeId, Error> {
        let mut acc = FALSE;
        for &f in fs {
            acc = self.try_or(acc, f)?;
            if acc == TRUE {
                break;
            }
        }
        Ok(acc)
    }

    // ---------------------------------------------------------------------
    // Cofactors, composition, quantification
    // ---------------------------------------------------------------------

    /// The cofactor `f|var=value`.
    pub fn restrict(&mut self, f: NodeId, var: Var, value: bool) -> NodeId {
        self.unbudgeted(|m| m.try_restrict(f, var, value))
    }

    /// Budgeted variant of [`restrict`](Self::restrict).
    pub fn try_restrict(&mut self, f: NodeId, var: Var, value: bool) -> Result<NodeId, Error> {
        let lit = self.try_literal(var, value)?;
        self.restrict_rec(f, var, value, self.level_of(var), lit)
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        var: Var,
        value: bool,
        var_level: u32,
        lit: NodeId,
    ) -> Result<NodeId, Error> {
        let level = self.level_of_node(f);
        if level > var_level {
            return Ok(f);
        }
        if level == var_level {
            let n = self.nodes[f.0 as usize];
            return Ok(if value { n.hi } else { n.lo });
        }
        // Reuse the compose cache: restrict(f, v, c) = compose(f, v, const c).
        if let Some(r) = self.caches[COMPOSE].get(f.0, var.0, lit.0) {
            return Ok(self.brand(r));
        }
        self.charge()?;
        let n = self.nodes[f.0 as usize];
        let lo = self.restrict_rec(n.lo, var, value, var_level, lit)?;
        let hi = self.restrict_rec(n.hi, var, value, var_level, lit)?;
        let r = self.try_mk(Var(n.var), lo, hi)?;
        self.caches[COMPOSE].put(f.0, var.0, lit.0, r.0);
        Ok(r)
    }

    /// Simultaneous cofactor by a (partial) assignment given as literals.
    pub fn restrict_cube(&mut self, f: NodeId, assignment: &[(Var, bool)]) -> NodeId {
        self.unbudgeted(|m| m.try_restrict_cube(f, assignment))
    }

    /// Budgeted variant of [`restrict_cube`](Self::restrict_cube).
    pub fn try_restrict_cube(
        &mut self,
        f: NodeId,
        assignment: &[(Var, bool)],
    ) -> Result<NodeId, Error> {
        let mut acc = f;
        for &(v, val) in assignment {
            acc = self.try_restrict(acc, v, val)?;
        }
        Ok(acc)
    }

    /// Functional composition `f[var := g]`.
    pub fn compose(&mut self, f: NodeId, var: Var, g: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_compose(f, var, g))
    }

    /// Budgeted variant of [`compose`](Self::compose).
    pub fn try_compose(&mut self, f: NodeId, var: Var, g: NodeId) -> Result<NodeId, Error> {
        let var_level = self.level_of(var);
        self.compose_rec(f, var, var_level, g)
    }

    fn compose_rec(
        &mut self,
        f: NodeId,
        var: Var,
        var_level: u32,
        g: NodeId,
    ) -> Result<NodeId, Error> {
        let level = self.level_of_node(f);
        if level > var_level {
            return Ok(f); // f cannot depend on var
        }
        if level == var_level {
            let n = self.nodes[f.0 as usize];
            return self.try_ite(g, n.hi, n.lo);
        }
        if let Some(r) = self.caches[COMPOSE].get(f.0, var.0, g.0) {
            return Ok(self.brand(r));
        }
        self.charge()?;
        let n = self.nodes[f.0 as usize];
        let lo = self.compose_rec(n.lo, var, var_level, g)?;
        let hi = self.compose_rec(n.hi, var, var_level, g)?;
        // lo/hi may now depend on variables above n.var, so rebuild with ite.
        let v = self.try_mk(Var(n.var), FALSE, TRUE)?;
        let r = self.try_ite(v, hi, lo)?;
        self.caches[COMPOSE].put(f.0, var.0, g.0, r.0);
        Ok(r)
    }

    /// Existential quantification `∃ vars. f`.
    pub fn exists(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        self.unbudgeted(|m| m.try_exists(f, vars))
    }

    /// Budgeted variant of [`exists`](Self::exists).
    pub fn try_exists(&mut self, f: NodeId, vars: &[Var]) -> Result<NodeId, Error> {
        let lits: Vec<(Var, bool)> = vars.iter().map(|&v| (v, true)).collect();
        let cube = self.try_cube(&lits)?;
        self.try_exists_cube(f, cube)
    }

    /// Existential quantification where the variable set is given as a
    /// positive cube (conjunction of the variables to eliminate).
    pub fn exists_cube(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_exists_cube(f, cube))
    }

    /// Budgeted variant of [`exists_cube`](Self::exists_cube).
    // xlint: allow(XL104): `nodes[f.0]` is the manager representation invariant: every reachable NodeId indexes the arena
    pub fn try_exists_cube(&mut self, f: NodeId, cube: NodeId) -> Result<NodeId, Error> {
        if self.is_const(f) || cube == TRUE {
            return Ok(f);
        }
        debug_assert!(cube != FALSE, "quantification cube must be a positive cube");
        if let Some(r) = self.caches[EXISTS].get(f.0, cube.0, NIL) {
            return Ok(self.brand(r));
        }
        self.charge()?;
        let fl = self.level_of_node(f);
        let cl = self.level_of_node(cube);
        let r = if cl < fl {
            // Quantified variable above f's top variable: f is independent.
            let next = self.hi(cube);
            self.try_exists_cube(f, next)?
        } else if cl == fl {
            let n = self.nodes[f.0 as usize];
            let next = self.hi(cube);
            let lo = self.try_exists_cube(n.lo, next)?;
            let hi = self.try_exists_cube(n.hi, next)?;
            self.try_or(lo, hi)?
        } else {
            let n = self.nodes[f.0 as usize];
            let lo = self.try_exists_cube(n.lo, cube)?;
            let hi = self.try_exists_cube(n.hi, cube)?;
            self.try_mk(Var(n.var), lo, hi)?
        };
        self.caches[EXISTS].put(f.0, cube.0, NIL, r.0);
        Ok(r)
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        self.unbudgeted(|m| m.try_forall(f, vars))
    }

    /// Budgeted variant of [`forall`](Self::forall).
    pub fn try_forall(&mut self, f: NodeId, vars: &[Var]) -> Result<NodeId, Error> {
        let nf = self.try_not(f)?;
        let e = self.try_exists(nf, vars)?;
        self.try_not(e)
    }

    /// Relational product `∃ cube. (f ∧ g)` without materializing the full
    /// conjunction — the workhorse of compatibility checking, where the
    /// conjunction can be much larger than its projection.
    ///
    /// `cube` must be a positive cube as in [`BddManager::exists_cube`].
    pub fn and_exists(&mut self, f: NodeId, g: NodeId, cube: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_and_exists(f, g, cube))
    }

    /// Budgeted variant of [`and_exists`](Self::and_exists).
    // xlint: allow(XL104): `caches[AND_EXISTS]` is a constant index into the four-cache array
    pub fn try_and_exists(&mut self, f: NodeId, g: NodeId, cube: NodeId) -> Result<NodeId, Error> {
        if f == FALSE || g == FALSE {
            return Ok(FALSE);
        }
        if f == TRUE && g == TRUE {
            return Ok(TRUE);
        }
        if cube == TRUE {
            return self.try_and(f, g);
        }
        let (ka, kb) = (f.min(g).0, f.max(g).0);
        if let Some(r) = self.caches[AND_EXISTS].get(ka, kb, cube.0) {
            return Ok(self.brand(r));
        }
        self.charge()?;
        let lf = self.level_of_node(f);
        let lg = self.level_of_node(g);
        let top = lf.min(lg);
        // Skip quantified variables above both operands.
        let mut c = cube;
        while c != TRUE && self.level_of_node(c) < top {
            c = self.hi(c);
        }
        let r = if c == TRUE {
            self.try_and(f, g)?
        } else {
            let (f0, f1) = self.cofactors_at(f, top);
            let (g0, g1) = self.cofactors_at(g, top);
            if self.level_of_node(c) == top {
                let next = self.hi(c);
                let lo = self.try_and_exists(f0, g0, next)?;
                if lo == TRUE {
                    TRUE
                } else {
                    let hi = self.try_and_exists(f1, g1, next)?;
                    self.try_or(lo, hi)?
                }
            } else {
                let var = self.var_at(top);
                let lo = self.try_and_exists(f0, g0, c)?;
                let hi = self.try_and_exists(f1, g1, c)?;
                self.try_mk(var, lo, hi)?
            }
        };
        self.caches[AND_EXISTS].put(ka, kb, cube.0, r.0);
        Ok(r)
    }

    /// Does the relational product keep the projection:
    /// `∃ cube. (f ∧ g) = ∃ cube. f`? Only defined for operands whose
    /// projections are already equal (`∃ cube. f = ∃ cube. g`); it is then
    /// the merge-compatibility test of a BDD_for_CF with the output
    /// variables as `cube`.
    ///
    /// Unlike comparing [`and_exists`](Self::and_exists) with
    /// [`exists_cube`](Self::exists_cube), this stops at the first cofactor
    /// pair whose product loses part of the projection, so a failing test
    /// costs a path rather than the whole product. A pair that keeps its
    /// projection is cached as the and-exists entry `∃ cube. (f ∧ g) =
    /// ∃ cube. f`.
    ///
    /// `cube` must be a positive cube as in [`BddManager::exists_cube`].
    pub fn and_exists_keeps(&mut self, f: NodeId, g: NodeId, cube: NodeId) -> bool {
        self.unbudgeted(|m| m.try_and_exists_keeps(f, g, cube))
    }

    /// Budgeted variant of [`and_exists_keeps`](Self::and_exists_keeps).
    pub fn try_and_exists_keeps(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: NodeId,
    ) -> Result<bool, Error> {
        let live = self.try_exists_cube(f, cube)?;
        debug_assert!(
            self.try_exists_cube(g, cube)
                .map_or(true, |live_g| live_g == live),
            "and_exists_keeps needs operands with equal projections"
        );
        self.and_exists_keeps_rec(f, g, live, cube)
    }

    /// [`try_and_exists_keeps`](Self::try_and_exists_keeps) with
    /// `live = ∃ cube. f = ∃ cube. g` carried along.
    fn and_exists_keeps_rec(
        &mut self,
        f: NodeId,
        g: NodeId,
        live: NodeId,
        cube: NodeId,
    ) -> Result<bool, Error> {
        // Equal projections make these trivial: `f·f = f`, and a FALSE
        // operand forces the other one to FALSE, a TRUE one makes both
        // projections TRUE.
        if f == g || self.is_const(f) || self.is_const(g) {
            return Ok(true);
        }
        let (ka, kb) = (f.min(g).0, f.max(g).0);
        if let Some(r) = self.caches[AND_EXISTS].get(ka, kb, cube.0) {
            return Ok(self.brand(r) == live);
        }
        self.charge()?;
        let top = self.level_of_node(f).min(self.level_of_node(g));
        let mut c = cube;
        while c != TRUE && self.level_of_node(c) < top {
            c = self.hi(c);
        }
        let keeps = if self.level_of_node(c) == top {
            // A quantified top variable ORs the cofactor pairs' products,
            // so no single pair decides: build this product.
            self.try_and_exists(f, g, c)? == live
        } else {
            // An unquantified top variable commutes with `∃ c`: each
            // cofactor pair has the matching cofactor of `live` as its
            // (equal) projections, and the product keeps `live` iff both
            // pairs keep theirs.
            let (f0, f1) = self.cofactors_at(f, top);
            let (g0, g1) = self.cofactors_at(g, top);
            let (l0, l1) = self.cofactors_at(live, top);
            self.and_exists_keeps_rec(f0, g0, l0, c)? && self.and_exists_keeps_rec(f1, g1, l1, c)?
        };
        if keeps {
            self.caches[AND_EXISTS].put(ka, kb, cube.0, live.0);
        }
        Ok(keeps)
    }

    /// The Coudert–Madre *restrict* operator: returns a function that
    /// agrees with `f` on the care set `care` and is (heuristically) a
    /// smaller BDD — the classic single-function don't-care minimization
    /// the literature builds on ([Coudert & Madre 1990], the basis of
    /// Shiple et al.'s heuristics).
    ///
    /// Guarantees `restrict_care(f, care) ∧ care = f ∧ care`; outside the
    /// care set the result is arbitrary.
    pub fn restrict_care(&mut self, f: NodeId, care: NodeId) -> NodeId {
        self.unbudgeted(|m| m.try_restrict_care(f, care))
    }

    /// Budgeted variant of [`restrict_care`](Self::restrict_care).
    pub fn try_restrict_care(&mut self, f: NodeId, care: NodeId) -> Result<NodeId, Error> {
        if care == FALSE {
            return Ok(FALSE); // everything is don't care
        }
        let mut memo: FastMap<(NodeId, NodeId), NodeId> = FastMap::default();
        self.restrict_care_rec(f, care, &mut memo)
    }

    fn restrict_care_rec(
        &mut self,
        f: NodeId,
        care: NodeId,
        memo: &mut FastMap<(NodeId, NodeId), NodeId>,
    ) -> Result<NodeId, Error> {
        if care == TRUE || self.is_const(f) {
            return Ok(f);
        }
        let key = (f, care);
        if let Some(&r) = memo.get(&key) {
            return Ok(r);
        }
        self.charge()?;
        let lf = self.level_of_node(f);
        let lc = self.level_of_node(care);
        let r = if lc < lf {
            // The care set's top variable does not constrain f's top:
            // widen the care set by quantifying it away.
            let c0 = self.lo(care);
            let c1 = self.hi(care);
            let widened = self.try_or(c0, c1)?;
            self.restrict_care_rec(f, widened, memo)?
        } else {
            let (f0, f1) = self.cofactors_at(f, lf);
            let (c0, c1) = self.cofactors_at(care, lf);
            if c0 == FALSE {
                self.restrict_care_rec(f1, c1, memo)?
            } else if c1 == FALSE {
                self.restrict_care_rec(f0, c0, memo)?
            } else {
                let var = self.var_at(lf);
                let lo = self.restrict_care_rec(f0, c0, memo)?;
                let hi = self.restrict_care_rec(f1, c1, memo)?;
                self.try_mk(var, lo, hi)?
            }
        };
        memo.insert(key, r);
        Ok(r)
    }

    // ---------------------------------------------------------------------
    // Analysis
    // ---------------------------------------------------------------------

    /// The set of variables `f` depends on, sorted by current level.
    pub fn support(&self, f: NodeId) -> Vec<Var> {
        let mut present = vec![false; self.num_vars()];
        for n in self.descendants(&[f]) {
            present[self.nodes[n.0 as usize].var as usize] = true;
        }
        let mut vars: Vec<Var> = present
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(Var(i as u32)))
            .collect();
        vars.sort_unstable_by_key(|&v| self.level_of(v));
        vars
    }

    /// Does `f·g ≠ 0`? Decided without building a node or touching a
    /// cache: the walk splits both operands on their top variable, stops at
    /// the first cofactor pair that shares a path to `TRUE`, and memoizes
    /// the pairs it proves disjoint, so it visits each reachable pair at
    /// most once.
    pub fn intersects(&self, f: NodeId, g: NodeId) -> bool {
        self.intersects_rec(f, g, &mut FastSet::default())
    }

    fn intersects_rec(&self, f: NodeId, g: NodeId, disjoint: &mut FastSet<(u32, u32)>) -> bool {
        if f == FALSE || g == FALSE {
            return false;
        }
        if f == TRUE || g == TRUE || f == g {
            return true;
        }
        let key = (f.0.min(g.0), f.0.max(g.0));
        if disjoint.contains(&key) {
            return false;
        }
        let top = self.level_of_node(f).min(self.level_of_node(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        if self.intersects_rec(f0, g0, disjoint) || self.intersects_rec(f1, g1, disjoint) {
            return true;
        }
        disjoint.insert(key);
        false
    }

    /// Union of the supports of several functions, sorted by current level.
    pub fn support_multi(&self, fs: &[NodeId]) -> Vec<Var> {
        let mut present = vec![false; self.num_vars()];
        for n in self.descendants(fs) {
            present[self.nodes[n.0 as usize].var as usize] = true;
        }
        let mut vars: Vec<Var> = present
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(Var(i as u32)))
            .collect();
        vars.sort_unstable_by_key(|&v| self.level_of(v));
        vars
    }

    /// Exact number of satisfying assignments over *all* variables of the
    /// manager.
    ///
    /// # Panics
    ///
    /// Panics if the manager has more than 127 variables (the count would
    /// overflow `u128`).
    pub fn sat_count(&self, f: NodeId) -> u128 {
        let t = self.num_vars() as u32;
        assert!(t < 128, "sat_count overflows u128 beyond 127 variables");
        let mut memo: FastMap<NodeId, u128> = FastMap::default();
        let below_root = self.sat_count_rec(f, &mut memo, t);
        below_root << self.level_of_node(f).min(t)
    }

    fn sat_count_rec(&self, f: NodeId, memo: &mut FastMap<NodeId, u128>, t: u32) -> u128 {
        if f == FALSE {
            return 0;
        }
        if f == TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.nodes[f.0 as usize];
        let level = self.level_of_var[n.var as usize];
        let ll = self.level_of_node(n.lo).min(t);
        let lh = self.level_of_node(n.hi).min(t);
        let c = (self.sat_count_rec(n.lo, memo, t) << (ll - level - 1))
            + (self.sat_count_rec(n.hi, memo, t) << (lh - level - 1));
        memo.insert(f, c);
        c
    }

    /// Evaluates `f` under a total assignment indexed by variable id.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the number of variables.
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_vars(),
            "assignment must cover all {} variables",
            self.num_vars()
        );
        let mut cur = f;
        while !self.is_const(cur) {
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        cur == TRUE
    }

    /// One satisfying partial assignment (variables not mentioned are
    /// irrelevant on that path), or `None` if `f` is unsatisfiable.
    pub fn one_sat(&self, f: NodeId) -> Option<Vec<(Var, bool)>> {
        if f == FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !self.is_const(cur) {
            let n = self.nodes[cur.0 as usize];
            if n.lo != FALSE {
                path.push((Var(n.var), false));
                cur = n.lo;
            } else {
                path.push((Var(n.var), true));
                cur = n.hi;
            }
        }
        debug_assert_eq!(cur, TRUE);
        Some(path)
    }

    // ---------------------------------------------------------------------
    // Garbage collection & cache control
    // ---------------------------------------------------------------------

    /// Drops all cached operation results. Required after level swaps (done
    /// automatically by the reordering module).
    ///
    /// This is a generation-tag bump per cache — O(1), no slot is touched
    /// — which is what makes per-swap invalidation during sifting free.
    pub fn clear_caches(&mut self) {
        for cache in &mut self.caches {
            cache.invalidate();
        }
    }

    /// Total number of entries across all four operation caches. Mostly
    /// useful to *prove* cache invalidation: after
    /// [`clear_caches`](Self::clear_caches) or [`gc`](Self::gc) this is
    /// zero, so no stale pre-compaction result can ever be served.
    pub fn cache_entry_count(&self) -> usize {
        self.caches.iter().map(ComputedTable::live).sum()
    }

    /// Engine-health snapshot: arena peaks, unique-table probe counters,
    /// per-operation cache hit/miss/eviction counters, and GC figures.
    /// Counters are monotone over this manager generation; cloning a
    /// manager clones its counters.
    pub fn engine_stats(&self) -> EngineStats {
        let caches: u64 = self.caches.iter().map(ComputedTable::held_bytes).sum();
        EngineStats {
            peak_nodes: self.peak_nodes as u64,
            peak_arena_bytes: (self.peak_nodes * std::mem::size_of::<Node>()) as u64,
            unique_len: self.unique.len() as u64,
            unique_capacity: self.unique.capacity() as u64,
            unique_lookups: self.unique.lookups(),
            unique_probes: self.unique.probes(),
            ite: self.caches[ITE].stats(),
            exists: self.caches[EXISTS].stats(),
            and_exists: self.caches[AND_EXISTS].stats(),
            compose: self.caches[COMPOSE].stats(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            gc_pause_ns: self.gc_pause_ns,
            swaps: self.swaps,
            swap_rewrites: self.swap_rewrites,
            swap_reclaimed: self.swap_reclaimed,
            held_bytes: held(&self.nodes) + self.unique.held_bytes() + caches,
        }
    }

    /// Mark-and-rebuild garbage collection.
    ///
    /// Keeps exactly the nodes reachable from `roots`, compacts the arena,
    /// and returns the ids of the roots in the new arena (same order as the
    /// input). All previously held [`NodeId`]s — other than the returned
    /// ones and the terminals — are invalidated. In `check` builds the
    /// manager moves to a fresh brand epoch, so dereferencing a stale
    /// pre-gc id panics instead of denoting the wrong function. Every
    /// per-manager table then follows the live arena: the unique table and
    /// the four (emptied) operation caches are sized for the survivors.
    pub fn gc(&mut self, roots: &[NodeId]) -> Vec<NodeId> {
        let pause = std::time::Instant::now();
        for &r in roots {
            self.check_brand(r);
        }
        #[cfg(feature = "check")]
        {
            self.epoch = fresh_epoch();
            // Everything surviving this gc is re-minted under the new
            // epoch, so even a snapshot-restored manager is strict now.
            self.open = false;
        }
        let brand_new = {
            #[cfg(feature = "check")]
            {
                let epoch = self.epoch;
                move |raw: u32| NodeId(raw, epoch)
            }
            #[cfg(not(feature = "check"))]
            {
                NodeId
            }
        };
        // Old-arena index → new-arena index; dense, so the remap is one
        // flat array instead of a hash map on the collection hot path.
        const UNMAPPED: u32 = u32::MAX;
        let mut remap: Vec<u32> = vec![UNMAPPED; self.nodes.len()];
        remap[FALSE.0 as usize] = FALSE.0;
        remap[TRUE.0 as usize] = TRUE.0;
        let mut new_nodes: Vec<Node> = Vec::with_capacity(2 + roots.len());
        new_nodes.push(self.nodes[0]);
        new_nodes.push(self.nodes[1]);
        let mut new_unique = UniqueTable::with_capacity_log2(UniqueTable::capacity_log2_for(0));

        // Iterative post-order copy.
        let mut result = Vec::with_capacity(roots.len());
        for &root in roots {
            let mut stack = vec![(root.0, false)];
            while let Some((n, expanded)) = stack.pop() {
                if remap[n as usize] != UNMAPPED {
                    continue;
                }
                let node = self.nodes[n as usize];
                if expanded {
                    let lo = brand_new(remap[node.lo.0 as usize]);
                    let hi = brand_new(remap[node.hi.0 as usize]);
                    let id = match new_unique.find_quiet(&new_nodes, node.var, lo.0, hi.0) {
                        Some(id) => id,
                        None => {
                            if new_unique.should_grow() {
                                new_unique.grow(&mut new_nodes);
                            }
                            let id = new_nodes.len() as u32;
                            new_nodes.push(Node {
                                var: node.var,
                                lo,
                                hi,
                                next: NIL,
                            });
                            new_unique.insert(&mut new_nodes, id);
                            id
                        }
                    };
                    remap[n as usize] = id;
                } else {
                    stack.push((n, true));
                    stack.push((node.lo.0, false));
                    stack.push((node.hi.0, false));
                }
            }
            result.push(brand_new(remap[root.0 as usize]));
        }
        // Post-compaction geometry is the deterministic function of the
        // live count, so an uninterrupted run and a snapshot-restored one
        // end up with bit-identical tables.
        let cap = UniqueTable::capacity_log2_for(new_unique.len());
        if cap != new_unique.capacity_log2() {
            new_unique.rebuild(&mut new_nodes, cap);
        }
        let live = new_unique.len();
        new_unique.continue_counters(&self.unique);
        self.gc_reclaimed += (self.nodes.len() - new_nodes.len()) as u64;
        self.nodes = new_nodes;
        self.unique = new_unique;
        for cache in &mut self.caches {
            cache.reset_for(live);
        }
        self.gc_runs += 1;
        self.gc_pause_ns += pause.elapsed().as_nanos() as u64;
        result
    }

    // ---------------------------------------------------------------------
    // Integrity audit
    // ---------------------------------------------------------------------

    /// Audits the whole manager against its structural invariants.
    ///
    /// Checks, in order:
    ///
    /// 1. the two terminal slots are well-formed and no interior node uses
    ///    the terminal sentinel variable;
    /// 2. the `Var` ↔ level permutation tables are mutually inverse
    ///    bijections;
    /// 3. every interior node has in-arena children, a strict reduction
    ///    (`lo != hi`), a valid variable index, and children strictly below
    ///    it under the *current* level permutation;
    /// 4. the unique table and the interior arena are in bijection (each
    ///    node registered under exactly its `(var, lo, hi)` key — the
    ///    canonicity that makes `NodeId` equality mean function equality);
    /// 5. every operation-cache entry references only in-arena nodes and
    ///    in-range variables (caches are cleared on [`BddManager::gc`] and
    ///    level swaps, so anything cached must point into the live arena).
    ///
    /// Returns all violations found, or `Ok(())`. Runs in `O(nodes +
    /// cache entries)`; intended for debug assertions and the workspace
    /// `bddcf check` analysis pass, not per-operation use.
    pub fn check_integrity(&self) -> Result<(), Vec<IntegrityViolation>> {
        use IntegrityViolation as V;
        let mut out = Vec::new();
        let len = self.nodes.len();
        let num_vars = self.num_vars() as u32;

        // 1. Terminals.
        if len < 2 {
            out.push(V::MalformedTerminal { id: FALSE });
            return Err(out);
        }
        for id in [FALSE, TRUE] {
            if self.nodes[id.0 as usize].var != TERMINAL_VAR {
                out.push(V::MalformedTerminal { id });
            }
        }

        // 2. Permutation tables.
        if self.var_at_level.len() != self.level_of_var.len() {
            out.push(V::BrokenPermutation { level: 0 });
        } else {
            for (lvl, &v) in self.var_at_level.iter().enumerate() {
                if v.0 >= num_vars || self.level_of_var[v.0 as usize] != lvl as u32 {
                    out.push(V::BrokenPermutation { level: lvl as u32 });
                }
            }
        }

        // 3. Interior nodes.
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            let id = self.brand(i as u32);
            if node.var == TERMINAL_VAR {
                out.push(V::MalformedTerminal { id });
                continue;
            }
            if node.var >= num_vars {
                out.push(V::InvalidVariable { id, var: node.var });
                continue;
            }
            let mut dangling = false;
            for child in [node.lo, node.hi] {
                if child.0 as usize >= len {
                    out.push(V::DanglingChild { id, child });
                    dangling = true;
                }
            }
            if dangling {
                continue;
            }
            if node.lo == node.hi {
                out.push(V::RedundantNode { id });
            }
            let level = self.level_of_var[node.var as usize];
            for child in [node.lo, node.hi] {
                if self.level_of_node(child) <= level {
                    out.push(V::LevelInversion { id, child });
                }
            }
        }

        // 4. Unique table ↔ arena bijection.
        //
        // Forward: every well-formed interior node must be found under its
        // own `(var, lo, hi)` key (`find_quiet` tolerates corrupted chains
        // — a defect there reads as "not found" and is reported by the
        // reverse walk below).
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            let id = self.brand(i as u32);
            if node.var == TERMINAL_VAR || node.lo.0 as usize >= len || node.hi.0 as usize >= len {
                continue; // already reported above
            }
            match self
                .unique
                .find_quiet(&self.nodes, node.var, node.lo.0, node.hi.0)
            {
                Some(mapped) if mapped as usize == i => {}
                Some(mapped) => out.push(V::DuplicateNode {
                    id,
                    canonical: self.brand(mapped),
                }),
                None => out.push(V::UnregisteredNode { id }),
            }
        }
        // Reverse: walk every bucket chain. Each link must be a distinct
        // in-arena interior node sitting in its key's home bucket, and
        // chains must terminate — an out-of-range link, a terminal, a
        // revisit, or a cycle is a stale entry.
        let mut chained = vec![false; len];
        for (bucket, head) in self.unique.bucket_heads() {
            let mut cur = head;
            let mut steps = 0usize;
            while cur != NIL {
                if (cur as usize) >= len || cur < 2 || steps > len {
                    out.push(V::StaleUniqueEntry {
                        id: NodeId::unbranded(cur),
                    });
                    break;
                }
                let node = &self.nodes[cur as usize];
                if chained[cur as usize]
                    || self.unique.home_bucket(node.var, node.lo.0, node.hi.0) != bucket
                {
                    out.push(V::StaleUniqueEntry {
                        id: self.brand(cur),
                    });
                    break;
                }
                chained[cur as usize] = true;
                cur = node.next;
                steps += 1;
            }
        }

        // 5. Operation caches reference only live nodes (only entries of
        // the current generation are observable; anything older is dead by
        // construction).
        let live = |raw: u32| (raw as usize) < len;
        for (f, g, h, r) in self.caches[ITE].live_entries() {
            if ![f, g, h, r].into_iter().all(live) {
                out.push(V::StaleCacheEntry { cache: "ite" });
            }
        }
        for (f, c, _nil, r) in self.caches[EXISTS].live_entries() {
            if ![f, c, r].into_iter().all(live) {
                out.push(V::StaleCacheEntry { cache: "exists" });
            }
        }
        for (f, g, c, r) in self.caches[AND_EXISTS].live_entries() {
            if ![f, g, c, r].into_iter().all(live) {
                out.push(V::StaleCacheEntry {
                    cache: "and_exists",
                });
            }
        }
        for (f, var, g, r) in self.caches[COMPOSE].live_entries() {
            if ![f, g, r].into_iter().all(live) || var >= num_vars {
                out.push(V::StaleCacheEntry { cache: "compose" });
            }
        }

        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }

    /// Deliberately violates one manager invariant. Test-only hook used to
    /// prove that [`BddManager::check_integrity`] (and the `bddcf check`
    /// pass built on it) actually detects corruption; never call this
    /// outside tests.
    #[doc(hidden)]
    pub fn corrupt_for_testing(&mut self, kind: TestCorruption) {
        match kind {
            TestCorruption::RedundantNode => {
                let i = self.nodes.len() - 1;
                assert!(i >= 2, "corrupting needs at least one interior node");
                self.nodes[i].hi = self.nodes[i].lo;
            }
            TestCorruption::UnregisterNode => {
                assert!(self.nodes.len() > 2, "corrupting needs an interior node");
                let last = (self.nodes.len() - 1) as u32;
                self.unique.unlink_checked(&mut self.nodes, last);
            }
            TestCorruption::DanglingCacheEntry => {
                let dangling = self.nodes.len() as u32;
                self.caches[ITE].put(FALSE.0, TRUE.0, FALSE.0, dangling);
            }
            TestCorruption::DanglingExistsEntry => {
                let dangling = self.nodes.len() as u32;
                self.caches[EXISTS].put(FALSE.0, TRUE.0, NIL, dangling);
            }
            TestCorruption::DanglingAndExistsEntry => {
                let dangling = self.nodes.len() as u32;
                self.caches[AND_EXISTS].put(FALSE.0, TRUE.0, TRUE.0, dangling);
            }
            TestCorruption::DanglingComposeEntry => {
                let dangling = self.nodes.len() as u32;
                self.caches[COMPOSE].put(FALSE.0, 0, TRUE.0, dangling);
            }
            TestCorruption::StaleUniqueEntry => {
                let dangling = self.nodes.len() as u32;
                self.unique
                    .corrupt_chain_for_testing(&mut self.nodes, dangling);
            }
            TestCorruption::PermutationClash => {
                assert!(self.num_vars() >= 2, "corrupting needs two variables");
                self.level_of_var[0] = self.level_of_var[1];
            }
        }
    }
}

/// A binary Boolean connective, for [`BddManager::apply`] /
/// [`BddManager::try_apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Exclusive or.
    Xor,
    /// Equivalence (XNOR).
    Iff,
    /// Implication.
    Implies,
}

/// Why [`BddManager::try_set_order`] rejected an order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderError {
    /// The order does not list exactly the manager's variables.
    WrongLength {
        /// Number of variables the manager has.
        expected: usize,
        /// Number of entries in the rejected order.
        got: usize,
    },
    /// A variable appears twice (or is out of range).
    DuplicateVar {
        /// The offending variable.
        var: Var,
    },
    /// The manager already holds interior nodes; installing a new order
    /// would silently break their level invariant.
    NonEmptyManager {
        /// How many interior nodes exist.
        interior_nodes: usize,
    },
}

impl fmt::Display for OrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OrderError::WrongLength { expected, got } => {
                write!(f, "order lists {got} variables, manager has {expected}")
            }
            OrderError::DuplicateVar { var } => {
                write!(f, "duplicate or out-of-range variable {var:?} in order")
            }
            OrderError::NonEmptyManager { interior_nodes } => write!(
                f,
                "cannot re-order a manager holding {interior_nodes} interior nodes; \
                 use the reorder module"
            ),
        }
    }
}

impl std::error::Error for OrderError {}

/// Which invariant [`BddManager::corrupt_for_testing`] should break.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestCorruption {
    /// Make the newest interior node unreduced (`lo == hi`).
    RedundantNode,
    /// Drop the newest interior node's unique-table registration.
    UnregisterNode,
    /// Insert an `ite`-cache entry whose result id is out of the arena.
    DanglingCacheEntry,
    /// Insert an `exists`-cache entry whose result id is out of the arena.
    DanglingExistsEntry,
    /// Insert an `and_exists`-cache entry whose result id is out of the
    /// arena.
    DanglingAndExistsEntry,
    /// Insert a `compose`-cache entry whose result id is out of the arena.
    DanglingComposeEntry,
    /// Insert a unique-table entry that maps to an out-of-arena node.
    StaleUniqueEntry,
    /// Make two variables claim the same level.
    PermutationClash,
}

/// One structural-invariant violation found by
/// [`BddManager::check_integrity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityViolation {
    /// A terminal slot is malformed, or an interior node uses the terminal
    /// sentinel variable.
    MalformedTerminal {
        /// The offending node.
        id: NodeId,
    },
    /// `var_at_level` and `level_of_var` disagree at this level.
    BrokenPermutation {
        /// The level at which the tables disagree.
        level: u32,
    },
    /// An interior node's variable index is out of range.
    InvalidVariable {
        /// The offending node.
        id: NodeId,
        /// Its out-of-range variable index.
        var: u32,
    },
    /// A child id points outside the arena.
    DanglingChild {
        /// The parent node.
        id: NodeId,
        /// The out-of-arena child id.
        child: NodeId,
    },
    /// An interior node with `lo == hi` (the reduction rule forbids these).
    RedundantNode {
        /// The offending node.
        id: NodeId,
    },
    /// A child's level is not strictly below its parent's under the current
    /// variable order.
    LevelInversion {
        /// The parent node.
        id: NodeId,
        /// The child whose level is not strictly below the parent's.
        child: NodeId,
    },
    /// Two arena nodes share one `(var, lo, hi)` triple; `canonical` is the
    /// one the unique table maps the key to.
    DuplicateNode {
        /// The non-canonical duplicate.
        id: NodeId,
        /// The node the unique table considers canonical.
        canonical: NodeId,
    },
    /// An interior node missing from the unique table.
    UnregisteredNode {
        /// The offending node.
        id: NodeId,
    },
    /// A unique-table entry pointing at a nonexistent or mismatched node.
    StaleUniqueEntry {
        /// The target of the stale entry.
        id: NodeId,
    },
    /// An operation-cache entry referencing an out-of-arena node.
    StaleCacheEntry {
        /// Which cache (`"ite"`, `"exists"`, `"and_exists"`, `"compose"`).
        cache: &'static str,
    },
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use IntegrityViolation as V;
        match *self {
            V::MalformedTerminal { id } => write!(f, "malformed terminal slot {id:?}"),
            V::BrokenPermutation { level } => {
                write!(f, "var/level permutation tables disagree at level {level}")
            }
            V::InvalidVariable { id, var } => {
                write!(f, "node {id:?} has out-of-range variable x{var}")
            }
            V::DanglingChild { id, child } => {
                write!(f, "node {id:?} has out-of-arena child {child:?}")
            }
            V::RedundantNode { id } => write!(f, "node {id:?} is unreduced (lo == hi)"),
            V::LevelInversion { id, child } => {
                write!(f, "child {child:?} of {id:?} is not strictly below it")
            }
            V::DuplicateNode { id, canonical } => {
                write!(f, "node {id:?} duplicates canonical node {canonical:?}")
            }
            V::UnregisteredNode { id } => {
                write!(f, "node {id:?} is missing from the unique table")
            }
            V::StaleUniqueEntry { id } => {
                write!(f, "unique-table entry maps to stale node {id:?}")
            }
            V::StaleCacheEntry { cache } => {
                write!(f, "{cache} cache entry references a non-live node")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;

    fn setup3() -> (BddManager, NodeId, NodeId, NodeId) {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let c = mgr.var(Var(2));
        (mgr, a, b, c)
    }

    #[test]
    fn terminals_are_fixed() {
        let mgr = BddManager::new(2);
        assert!(mgr.is_const(FALSE));
        assert!(mgr.is_const(TRUE));
        assert_ne!(FALSE, TRUE);
        assert_eq!(mgr.level_of_node(TRUE), TERMINAL_LEVEL);
    }

    #[test]
    fn mk_is_canonical() {
        let (mut mgr, _, _, _) = setup3();
        let n1 = mgr.mk(Var(1), FALSE, TRUE);
        let n2 = mgr.mk(Var(1), FALSE, TRUE);
        assert_eq!(n1, n2);
        assert_eq!(mgr.mk(Var(0), n1, n1), n1, "redundant test is removed");
    }

    #[test]
    fn basic_boolean_algebra() {
        let (mut mgr, a, b, _) = setup3();
        let ab = mgr.and(a, b);
        let ba = mgr.and(b, a);
        assert_eq!(ab, ba, "AND is commutative by canonicity");
        let na = mgr.not(a);
        assert_eq!(mgr.and(a, na), FALSE);
        assert_eq!(mgr.or(a, na), TRUE);
        let nn = mgr.not(na);
        assert_eq!(nn, a, "double negation");
    }

    #[test]
    fn xor_iff_implies() {
        let (mut mgr, a, b, _) = setup3();
        let x = mgr.xor(a, b);
        let e = mgr.iff(a, b);
        let nx = mgr.not(x);
        assert_eq!(e, nx);
        let imp = mgr.implies(a, b);
        let na = mgr.not(a);
        let alt = mgr.or(na, b);
        assert_eq!(imp, alt);
    }

    #[test]
    fn de_morgan() {
        let (mut mgr, a, b, c) = setup3();
        let abc = mgr.and_many(&[a, b, c]);
        let left = mgr.not(abc);
        let na = mgr.not(a);
        let nb = mgr.not(b);
        let nc = mgr.not(c);
        let right = mgr.or_many(&[na, nb, nc]);
        assert_eq!(left, right);
    }

    #[test]
    fn eval_walks_by_variable_id() {
        let (mut mgr, a, b, c) = setup3();
        let f = {
            let t = mgr.and(a, b);
            mgr.or(t, c)
        };
        assert!(mgr.eval(f, &[true, true, false]));
        assert!(mgr.eval(f, &[false, false, true]));
        assert!(!mgr.eval(f, &[true, false, false]));
    }

    #[test]
    fn sat_count_matches_truth_table() {
        let (mut mgr, a, b, c) = setup3();
        let t = mgr.and(a, b);
        let f = mgr.or(t, c);
        // Brute force.
        let mut count = 0u128;
        for bits in 0..8u32 {
            let assignment = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            if mgr.eval(f, &assignment) {
                count += 1;
            }
        }
        assert_eq!(mgr.sat_count(f), count);
        assert_eq!(mgr.sat_count(TRUE), 8);
        assert_eq!(mgr.sat_count(FALSE), 0);
    }

    #[test]
    fn sat_count_of_single_literal() {
        let (mut mgr, a, _, _) = setup3();
        assert_eq!(mgr.sat_count(a), 4);
        let na = mgr.not(a);
        assert_eq!(mgr.sat_count(na), 4);
    }

    #[test]
    fn cube_builds_conjunction() {
        let (mut mgr, a, b, _) = setup3();
        let cube = mgr.cube(&[(Var(1), true), (Var(0), true)]);
        let ab = mgr.and(a, b);
        assert_eq!(cube, ab);
        assert_eq!(mgr.cube(&[]), TRUE);
        assert_eq!(
            mgr.cube(&[(Var(0), true), (Var(0), false)]),
            FALSE,
            "contradictory cube"
        );
    }

    #[test]
    fn restrict_cofactors() {
        let (mut mgr, a, b, c) = setup3();
        let t = mgr.and(a, b);
        let f = mgr.or(t, c);
        let f_a1 = mgr.restrict(f, Var(0), true);
        let expect = mgr.or(b, c);
        assert_eq!(f_a1, expect);
        let f_a0 = mgr.restrict(f, Var(0), false);
        assert_eq!(f_a0, c);
        // Restricting a variable not in support is identity.
        let g = mgr.and(a, b);
        assert_eq!(mgr.restrict(g, Var(2), true), g);
    }

    #[test]
    fn restrict_cube_applies_all() {
        let (mut mgr, a, b, c) = setup3();
        let t = mgr.and(a, b);
        let f = mgr.or(t, c);
        let r = mgr.restrict_cube(f, &[(Var(0), true), (Var(1), true)]);
        assert_eq!(r, TRUE);
    }

    #[test]
    fn compose_substitutes() {
        let (mut mgr, a, b, c) = setup3();
        // f = a XOR b; f[b := c] = a XOR c
        let f = mgr.xor(a, b);
        let composed = mgr.compose(f, Var(1), c);
        let expect = mgr.xor(a, c);
        assert_eq!(composed, expect);
        // Compose with a function above in the order.
        let g = mgr.xor(b, c);
        let composed = mgr.compose(g, Var(2), a);
        let expect = mgr.xor(b, a);
        assert_eq!(composed, expect);
    }

    #[test]
    fn exists_and_forall() {
        let (mut mgr, a, b, c) = setup3();
        let t = mgr.and(a, b);
        let f = mgr.or(t, c);
        let e = mgr.exists(f, &[Var(2)]);
        assert_eq!(e, TRUE, "∃c. (ab ∨ c) = 1");
        let u = mgr.forall(f, &[Var(2)]);
        assert_eq!(u, t, "∀c. (ab ∨ c) = ab");
        let e2 = mgr.exists(f, &[Var(0), Var(2)]);
        assert_eq!(e2, TRUE);
        // Quantifying a variable outside the support is identity.
        let g = mgr.and(a, b);
        assert_eq!(mgr.exists(g, &[Var(2)]), g);
    }

    #[test]
    fn restrict_care_agrees_on_the_care_set() {
        let (mut mgr, a, b, c) = setup3();
        let candidates = [a, b, mgr.xor(a, c), mgr.and(b, c), mgr.or(a, b)];
        let cares = [TRUE, a, mgr.or(b, c), mgr.xor(a, b), mgr.and(a, c)];
        for &f in &candidates {
            for &care in &cares {
                let r = mgr.restrict_care(f, care);
                let lhs = mgr.and(r, care);
                let rhs = mgr.and(f, care);
                assert_eq!(lhs, rhs, "restrict_care must agree on the care set");
            }
        }
    }

    #[test]
    fn restrict_care_can_shrink() {
        let (mut mgr, a, b, c) = setup3();
        // f = a XOR b XOR c (3 internal nodes per level, 7 total);
        // care = a: on the care set f|a=1 = ¬(b XOR c).
        let ab = mgr.xor(a, b);
        let f = mgr.xor(ab, c);
        let r = mgr.restrict_care(f, a);
        assert!(
            mgr.node_count(r) < mgr.node_count(f),
            "restrict should drop the a-level test"
        );
        assert_eq!(mgr.restrict_care(f, FALSE), FALSE);
        assert_eq!(mgr.restrict_care(f, TRUE), f);
    }

    #[test]
    fn and_exists_equals_and_then_exists() {
        let (mut mgr, a, b, c) = setup3();
        let candidates = [
            a,
            b,
            c,
            mgr.xor(a, b),
            mgr.and(b, c),
            mgr.or(a, c),
            TRUE,
            FALSE,
        ];
        let cube_bc = mgr.cube(&[(Var(1), true), (Var(2), true)]);
        let cube_a = mgr.cube(&[(Var(0), true)]);
        for &f in &candidates {
            for &g in &candidates {
                for &cube in &[cube_bc, cube_a, TRUE] {
                    let fused = mgr.and_exists(f, g, cube);
                    let conj = mgr.and(f, g);
                    let plain = mgr.exists_cube(conj, cube);
                    assert_eq!(fused, plain, "f={f:?} g={g:?} cube={cube:?}");
                }
            }
        }
    }

    #[test]
    fn support_is_sorted_by_level() {
        let (mut mgr, a, _, c) = setup3();
        let f = mgr.xor(a, c);
        assert_eq!(mgr.support(f), vec![Var(0), Var(2)]);
        assert_eq!(mgr.support(TRUE), vec![]);
    }

    #[test]
    fn from_minterms_small() {
        let mut mgr = BddManager::new(3);
        // Majority of (v0, v1, v2): minterms 3,5,6,7 with bit j = value of vars[j].
        let f = mgr.from_minterms(&[Var(0), Var(1), Var(2)], &[0b011, 0b101, 0b110, 0b111]);
        for bits in 0..8u32 {
            let assignment = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let expect = assignment.iter().filter(|&&x| x).count() >= 2;
            assert_eq!(mgr.eval(f, &assignment), expect, "bits={bits:03b}");
        }
        assert_eq!(mgr.from_minterms(&[Var(0)], &[]), FALSE);
    }

    #[test]
    fn from_minterms_matches_cube_or() {
        let mut mgr = BddManager::new(5);
        let vars = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let minterms = [0b00001u64, 0b10101, 0b11111, 0b01110];
        let fast = mgr.from_minterms(&vars, &minterms);
        let mut slow = FALSE;
        for &m in &minterms {
            let lits: Vec<(Var, bool)> = (0..5).map(|j| (vars[j], m >> j & 1 == 1)).collect();
            let cube = mgr.cube(&lits);
            slow = mgr.or(slow, cube);
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn one_sat_finds_model() {
        let (mut mgr, a, b, _) = setup3();
        let nb = mgr.not(b);
        let f = mgr.and(a, nb);
        let model = mgr.one_sat(f).unwrap();
        let mut assignment = [false; 3];
        for (v, val) in model {
            assignment[v.0 as usize] = val;
        }
        assert!(mgr.eval(f, &assignment));
        assert!(mgr.one_sat(FALSE).is_none());
    }

    #[test]
    fn gc_preserves_functions_and_compacts() {
        let (mut mgr, a, b, c) = setup3();
        let keep = {
            let t = mgr.xor(a, b);
            mgr.or(t, c)
        };
        // Create garbage.
        for _ in 0..10 {
            let g = mgr.and(a, c);
            let _ = mgr.xor(g, b);
        }
        let before_eval: Vec<bool> = (0..8u32)
            .map(|bits| mgr.eval(keep, &[(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0]))
            .collect();
        let arena_before = mgr.arena_len();
        let roots = mgr.gc(&[keep]);
        assert!(mgr.arena_len() <= arena_before);
        let after_eval: Vec<bool> = (0..8u32)
            .map(|bits| {
                mgr.eval(
                    roots[0],
                    &[(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0],
                )
            })
            .collect();
        assert_eq!(before_eval, after_eval);
    }

    #[test]
    fn gc_keeps_shared_structure_shared() {
        let (mut mgr, a, b, c) = setup3();
        let f = mgr.and(b, c);
        let g = mgr.or(a, f);
        let roots = mgr.gc(&[f, g]);
        // f is a sub-function of g; after gc the shared node count must not
        // exceed the sum of individual counts and f must still be g's child.
        assert_eq!(
            mgr.node_count_multi(&roots),
            mgr.node_count(roots[1]),
            "f shares all nodes with g"
        );
    }

    #[test]
    fn node_count_counts_distinct_nonterminals() {
        let (mut mgr, a, b, _) = setup3();
        assert_eq!(mgr.node_count(a), 1);
        let f = mgr.xor(a, b);
        assert_eq!(mgr.node_count(f), 3); // one v0 node, two v1 nodes
        assert_eq!(mgr.node_count(TRUE), 0);
    }

    #[test]
    fn add_var_extends_order_at_bottom() {
        let mut mgr = BddManager::new(1);
        let v1 = mgr.add_var();
        assert_eq!(v1, Var(1));
        assert_eq!(mgr.level_of(v1), 1);
        assert_eq!(mgr.num_vars(), 2);
        let x0 = mgr.var(Var(0));
        let x1 = mgr.var(v1);
        let f = mgr.and(x0, x1);
        assert_eq!(mgr.sat_count(f), 1);
    }

    #[test]
    fn set_order_affects_structure() {
        let mut mgr = BddManager::new(4);
        mgr.set_order(&[Var(3), Var(1), Var(2), Var(0)]);
        assert_eq!(mgr.level_of(Var(3)), 0);
        assert_eq!(mgr.var_at(3), Var(0));
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(3));
        let f = mgr.and(a, b);
        // Top variable of f must be Var(3) under the new order.
        assert_eq!(mgr.var_of(f), Var(3));
    }

    #[test]
    #[should_panic(expected = "order must cover all variables")]
    fn set_order_rejects_wrong_length() {
        let mut mgr = BddManager::new(3);
        mgr.set_order(&[Var(0), Var(1)]);
    }

    #[test]
    fn descendants_excludes_terminals() {
        let (mut mgr, a, b, _) = setup3();
        let f = mgr.or(a, b);
        let d = mgr.descendants(&[f]);
        assert_eq!(d.len(), 2);
        assert!(!d.contains(&TRUE));
    }

    fn busy_manager() -> (BddManager, NodeId) {
        let (mut mgr, a, b, c) = setup3();
        let ab = mgr.and(a, b);
        let f = mgr.xor(ab, c);
        let g = mgr.exists(f, &[Var(1)]);
        let h = mgr.or(f, g);
        (mgr, h)
    }

    #[test]
    fn node_limit_fails_cleanly_and_preserves_integrity() {
        let mut mgr = BddManager::new(8);
        let vars: Vec<NodeId> = (0..8).map(|i| mgr.var(Var(i))).collect();
        let quota = mgr.arena_len(); // no room for any new node
        mgr.set_budget(Budget::default().with_node_limit(quota));
        let mut acc = Ok(TRUE);
        for &v in &vars {
            acc = mgr.try_and(acc.unwrap_or(TRUE), v);
            if acc.is_err() {
                break;
            }
        }
        assert_eq!(acc, Err(Error::NodeLimit { limit: quota }));
        mgr.check_integrity()
            .expect("budget failure leaves the manager sound");
        // Infallible ops still succeed with the budget installed.
        let all = mgr.and_many(&vars);
        assert_ne!(all, FALSE);
        // And after removing the budget the same try-op succeeds.
        let _ = mgr.take_budget();
        let all2 = mgr.try_and_many(&vars).expect("unlimited again");
        assert_eq!(all, all2);
    }

    #[test]
    fn step_limit_trips_and_counter_is_deterministic() {
        let build = |limit: Option<u64>| {
            let mut mgr = BddManager::new(12);
            if let Some(l) = limit {
                mgr.set_budget(Budget::default().with_step_limit(l));
            }
            let vars: Vec<NodeId> = (0..12).map(|i| mgr.var(Var(i))).collect();
            let mut acc = TRUE;
            for pair in vars.chunks(2) {
                let x = match mgr.try_xor(pair[0], pair[1]) {
                    Ok(x) => x,
                    Err(e) => return (mgr.steps(), Err(e)),
                };
                acc = match mgr.try_and(acc, x) {
                    Ok(a) => a,
                    Err(e) => return (mgr.steps(), Err(e)),
                };
            }
            (mgr.steps(), Ok(acc))
        };
        let (total, full) = build(None);
        assert!(full.is_ok());
        assert!(total > 4, "workload must charge steps");
        let limit = total / 2;
        let (_, limited) = build(Some(limit));
        assert_eq!(limited, Err(Error::StepLimit { limit }));
        // Determinism: the unlimited run charges the same count every time.
        assert_eq!(build(None).0, total);
    }

    #[test]
    fn cancel_at_step_mimics_token_cancellation() {
        let token = CancelToken::new();
        let mut mgr = BddManager::new(10);
        mgr.set_budget(
            Budget::default()
                .with_cancel(token.clone())
                .with_cancel_at_step(5),
        );
        let vars: Vec<NodeId> = (0..10).map(|i| mgr.var(Var(i))).collect();
        let r = vars.iter().try_fold(TRUE, |acc, &v| mgr.try_and(acc, v));
        assert_eq!(r, Err(Error::Cancelled));
        assert!(token.is_cancelled(), "hook fires the shared token");
        mgr.check_integrity()
            .expect("cancellation leaves no damage");
    }

    #[test]
    fn try_set_order_rejects_bad_orders_without_change() {
        let mut mgr = BddManager::new(3);
        assert_eq!(
            mgr.try_set_order(&[Var(0), Var(1)]),
            Err(OrderError::WrongLength {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            mgr.try_set_order(&[Var(0), Var(1), Var(1)]),
            Err(OrderError::DuplicateVar { var: Var(1) })
        );
        let _ = mgr.var(Var(0));
        assert_eq!(
            mgr.try_set_order(&[Var(2), Var(1), Var(0)]),
            Err(OrderError::NonEmptyManager { interior_nodes: 1 })
        );
        // Original order untouched by the failed attempts.
        assert_eq!(mgr.order(), &[Var(0), Var(1), Var(2)]);
    }

    #[test]
    fn gc_empties_every_operation_cache() {
        let (mut mgr, h) = busy_manager();
        let _ = mgr.compose(h, Var(0), h);
        let cube = mgr.cube(&[(Var(1), true)]);
        let _ = mgr.and_exists(h, h, cube);
        assert!(mgr.cache_entry_count() > 0, "workload must populate caches");
        let _ = mgr.gc(&[h]);
        assert_eq!(
            mgr.cache_entry_count(),
            0,
            "gc must drop all four op caches"
        );
        mgr.check_integrity().expect("post-gc manager is sound");
    }

    /// Builds the four workloads of `gc_sizes_every_cache_to_the_live_arena`
    /// — one per operation cache — and returns each result's truth table.
    fn cache_workload(mgr: &mut BddManager, n: u32) -> Vec<Vec<bool>> {
        // Pairs x_i ∧ x_{i+n/2} in index order: exponential in n/2.
        let mut f = FALSE;
        let mut g = TRUE;
        for i in 0..n / 2 {
            let (a, b) = (mgr.var(Var(i)), mgr.var(Var(i + n / 2)));
            let pair = mgr.and(a, b);
            f = mgr.or(f, pair);
            let parity = mgr.xor(a, b);
            g = mgr.and(g, parity);
        }
        let quantified: Vec<Var> = (0..n).step_by(3).map(Var).collect();
        let cube = mgr.cube(&quantified.iter().map(|&v| (v, true)).collect::<Vec<_>>());
        let results = [
            mgr.exists(f, &quantified),
            mgr.and_exists(f, g, cube),
            mgr.restrict(f, Var(n / 2), true),
            mgr.compose(f, Var(1), g),
            f,
        ];
        results
            .iter()
            .map(|&r| {
                (0..1u32 << n)
                    .map(|m| mgr.eval(r, &(0..n).map(|v| m >> v & 1 == 1).collect::<Vec<_>>()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gc_sizes_every_cache_to_the_live_arena() {
        let n = 16;
        let mut mgr = BddManager::new(n as usize);
        let before_truth = cache_workload(&mut mgr, n);
        let before = mgr.engine_stats();
        let caches = |s: &EngineStats| [s.ite, s.exists, s.and_exists, s.compose];
        for cache in caches(&before) {
            assert!(cache.capacity > 256, "the workload grows every cache");
        }
        let small = mgr.var(Var(3));
        let _ = mgr.gc(&[small]);
        let after = mgr.engine_stats();
        let want = after.unique_len.next_power_of_two().clamp(256, 1 << 20);
        for (old, new) in caches(&before).into_iter().zip(caches(&after)) {
            assert_eq!(
                new.capacity, want,
                "sized for {} live nodes",
                after.unique_len
            );
            assert_eq!(new.live, 0);
            assert_eq!(new.slots_swept, 0);
            assert_eq!(new.invalidations, old.invalidations + 1);
            assert!(new.hits >= old.hits && new.misses >= old.misses);
            assert!(new.insertions >= old.insertions && new.evictions >= old.evictions);
        }
        assert!(
            after.held_bytes < before.held_bytes / 4,
            "the memory went too"
        );
        // The shrunken caches serve a fresh run of the same workload.
        assert_eq!(cache_workload(&mut mgr, n), before_truth);
        mgr.check_integrity().expect("post-gc manager is sound");
    }

    #[test]
    fn gc_carries_the_unique_table_counters_over() {
        // The counters are monotone: a gc replaces the table, not them.
        let mut mgr = BddManager::new(8);
        let mut f = mgr.var(Var(0));
        for i in 1..8 {
            let x = mgr.var(Var(i));
            f = if i % 2 == 0 {
                mgr.and(f, x)
            } else {
                mgr.xor(f, x)
            };
        }
        let before = mgr.engine_stats();
        assert!(before.unique_lookups > 0 && before.unique_probes > 0);
        let _ = mgr.gc(&[f]);
        let after = mgr.engine_stats();
        assert_eq!(after.unique_lookups, before.unique_lookups);
        assert_eq!(after.unique_probes, before.unique_probes);
    }

    #[test]
    fn gc_counts_the_nodes_it_reclaims() {
        // Each projection is one node; all but the kept one are garbage.
        let mut mgr = BddManager::new(6);
        let keep = mgr.var(Var(0));
        for i in 1..6 {
            let _ = mgr.var(Var(i));
        }
        let before = mgr.engine_stats().gc_reclaimed;
        let roots = mgr.gc(&[keep]);
        assert_eq!(mgr.engine_stats().gc_reclaimed, before + 5);
        // A collected arena holds no garbage, and the count only grows.
        let _ = mgr.gc(&roots);
        assert_eq!(mgr.engine_stats().gc_reclaimed, before + 5);
    }

    #[test]
    fn apply_matches_dedicated_ops() {
        let (mut mgr, a, b, _) = setup3();
        for (op, expect) in [
            (BinOp::And, mgr.and(a, b)),
            (BinOp::Or, mgr.or(a, b)),
            (BinOp::Xor, mgr.xor(a, b)),
            (BinOp::Iff, mgr.iff(a, b)),
            (BinOp::Implies, mgr.implies(a, b)),
        ] {
            assert_eq!(mgr.apply(op, a, b), expect, "{op:?}");
        }
    }

    #[test]
    fn integrity_passes_on_healthy_manager() {
        let (mgr, _) = busy_manager();
        mgr.check_integrity().expect("fresh manager is sound");
    }

    #[test]
    fn integrity_passes_after_gc_and_reorder() {
        let (mut mgr, h) = busy_manager();
        let roots = mgr.gc(&[h]);
        mgr.check_integrity().expect("post-gc manager is sound");
        let roots = mgr.swap_adjacent(0, &roots);
        mgr.check_integrity().expect("post-swap manager is sound");
        let not_h = mgr.not(roots[0]);
        assert_ne!(not_h, roots[0]);
        mgr.check_integrity()
            .expect("post-reorder manager is sound");
    }

    #[test]
    fn integrity_detects_each_seeded_corruption() {
        for kind in [
            TestCorruption::RedundantNode,
            TestCorruption::UnregisterNode,
            TestCorruption::DanglingCacheEntry,
            TestCorruption::DanglingExistsEntry,
            TestCorruption::DanglingAndExistsEntry,
            TestCorruption::DanglingComposeEntry,
            TestCorruption::StaleUniqueEntry,
            TestCorruption::PermutationClash,
        ] {
            let (mut mgr, _) = busy_manager();
            mgr.corrupt_for_testing(kind);
            let violations = mgr
                .check_integrity()
                .expect_err("corruption must be detected");
            assert!(!violations.is_empty(), "{kind:?} produced no violations");
            let matched = violations.iter().any(|v| {
                matches!(
                    (kind, v),
                    (
                        TestCorruption::RedundantNode,
                        IntegrityViolation::RedundantNode { .. }
                    ) | (
                        TestCorruption::UnregisterNode,
                        IntegrityViolation::UnregisteredNode { .. }
                    ) | (
                        TestCorruption::DanglingCacheEntry,
                        IntegrityViolation::StaleCacheEntry { cache: "ite" }
                    ) | (
                        TestCorruption::DanglingExistsEntry,
                        IntegrityViolation::StaleCacheEntry { cache: "exists" }
                    ) | (
                        TestCorruption::DanglingAndExistsEntry,
                        IntegrityViolation::StaleCacheEntry {
                            cache: "and_exists"
                        }
                    ) | (
                        TestCorruption::DanglingComposeEntry,
                        IntegrityViolation::StaleCacheEntry { cache: "compose" }
                    ) | (
                        TestCorruption::StaleUniqueEntry,
                        IntegrityViolation::StaleUniqueEntry { .. }
                    ) | (
                        TestCorruption::PermutationClash,
                        IntegrityViolation::BrokenPermutation { .. }
                    )
                )
            });
            assert!(matched, "{kind:?} not matched in {violations:?}");
        }
    }

    #[cfg(feature = "check")]
    #[test]
    #[should_panic(expected = "minted by a different manager")]
    fn brand_check_catches_cross_manager_misuse() {
        let mut a = BddManager::new(2);
        let mut b = BddManager::new(2);
        let in_a = a.var(Var(0));
        let _in_b = b.var(Var(1)); // b's arena is non-trivial too
        let _ = b.lo(in_a); // `in_a` means nothing to `b`
    }

    #[cfg(feature = "check")]
    #[test]
    #[should_panic(expected = "minted by a different manager")]
    fn brand_check_catches_stale_post_gc_id() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let stale = mgr.and(a, b);
        let _ = mgr.gc(&[]); // drops everything; `stale` now dangles
        let _ = mgr.var_of(stale);
    }

    #[cfg(feature = "check")]
    #[test]
    fn brand_check_accepts_clones_and_wire_ids() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(Var(0));
        // Clone snapshots the arena: original ids stay valid in the clone.
        let clone = mgr.clone();
        assert_eq!(clone.var_of(a), Var(0));
        // Wire-format ids are unbranded and accepted.
        let wire = NodeId::from_raw(a.raw());
        assert_eq!(mgr.var_of(wire), Var(0));
    }
}
