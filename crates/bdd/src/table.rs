//! Cache-conscious node storage: the intrusive-chain unique table and the
//! direct-mapped operation caches.
//!
//! The engine core stores interior nodes in a flat arena of packed
//! [`Node`]s. Each node carries, besides its `(var, lo, hi)` triple, the
//! arena index of the *next* node in its unique-table hash bucket — the
//! collision chains thread through the arena itself, so a unique-table
//! probe touches exactly the memory the subsequent `mk` would touch
//! anyway, and the table proper is just one bucket-head array of `u32`s
//! ([`UniqueTable`]).
//!
//! Operation results are memoized in direct-mapped tables
//! ([`ComputedTable`]): one slot per hash index, no chains, stale entries
//! simply overwritten. Each slot carries a *generation tag*; bumping the
//! table's generation invalidates every entry in O(1), which is what makes
//! per-swap cache invalidation during sifting affordable (the previous
//! design dropped and reallocated four `HashMap`s per adjacent-level
//! swap). A table doubles while it fills and is resized to the live arena
//! at every GC. All tables expose monotone counters so `bddcf stats` and
//! the benchmark can report probe lengths and hit rates ([`CacheStats`],
//! [`EngineStats`]).

use crate::manager::NodeId;

/// Sentinel arena index meaning "no node" (end of a bucket chain, or an
/// absent key word in a two-word cache key). The arena overflow guard in
/// `try_mk` keeps real indices strictly below this value.
pub(crate) const NIL: u32 = u32::MAX;

/// One interior (or terminal) node in the arena: decision variable,
/// cofactor edges, and the intrusive unique-table chain link.
///
/// Without the `check` feature this is 16 bytes; the branded `NodeId` of
/// checked builds widens it to 24.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// Decision variable index (`TERMINAL_VAR` for the two terminals).
    pub(crate) var: u32,
    /// Else-edge (`var = 0` cofactor).
    pub(crate) lo: NodeId,
    /// Then-edge (`var = 1` cofactor).
    pub(crate) hi: NodeId,
    /// Arena index of the next node in the same unique-table bucket
    /// ([`NIL`] terminates the chain).
    pub(crate) next: u32,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Mixes three key words into a hash, in the spirit of the workspace's
/// [`FxLikeHasher`](crate::hasher::FxLikeHasher): rotate-xor-multiply per
/// word, then one finalizing xor-shift so that low bits (which index the
/// tables) depend on every input word.
#[inline]
fn mix3(a: u32, b: u32, c: u32) -> u64 {
    let mut h = 0u64;
    for word in [a, b, c] {
        h = (h.rotate_left(5) ^ u64::from(word)).wrapping_mul(SEED);
    }
    h ^ (h >> 33)
}

/// Unique table mapping `(var, lo, hi)` triples to arena indices via
/// intrusive bucket chains threaded through [`Node::next`].
///
/// Capacity is always a power of two; the table grows (doubling) when the
/// measured load factor passes 3/4, and is rebuilt to the deterministic
/// [`UniqueTable::capacity_log2_for`] geometry on GC compaction so that a
/// snapshot-restored manager and an uninterrupted one agree byte for
/// byte.
#[derive(Clone, Debug)]
pub(crate) struct UniqueTable {
    /// Bucket heads: arena index of the first chain node, or [`NIL`].
    buckets: Vec<u32>,
    /// `buckets.len() - 1` (power-of-two capacity).
    mask: u64,
    /// Number of nodes currently linked into buckets.
    len: usize,
    /// Total `find` calls (monotone).
    lookups: u64,
    /// Total chain nodes inspected across all `find` calls (monotone);
    /// `probes / lookups` is the mean probe length.
    probes: u64,
}

impl UniqueTable {
    /// Creates an empty table with `1 << capacity_log2` buckets.
    pub(crate) fn with_capacity_log2(capacity_log2: u32) -> Self {
        let cap = 1usize << capacity_log2;
        UniqueTable {
            buckets: vec![NIL; cap],
            mask: (cap - 1) as u64,
            len: 0,
            lookups: 0,
            probes: 0,
        }
    }

    /// The deterministic rebuild geometry for `n` linked nodes: the
    /// smallest power of two holding them at load factor ≤ 1/2, floored
    /// at 64 buckets. Used after GC compaction and on snapshot restore,
    /// so table shape is a pure function of live-node count.
    pub(crate) fn capacity_log2_for(n: usize) -> u32 {
        let target = (n.max(1) * 2).max(64);
        usize::BITS - (target - 1).leading_zeros()
    }

    /// Current bucket count (always a power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// log2 of the bucket count.
    pub(crate) fn capacity_log2(&self) -> u32 {
        self.buckets.len().trailing_zeros()
    }

    /// Number of nodes linked into the table.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes held by the bucket-head array.
    pub(crate) fn held_bytes(&self) -> u64 {
        held(&self.buckets)
    }

    /// Total `find` calls so far.
    pub(crate) fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total chain nodes inspected across all `find` calls so far.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Continues `old`'s monotone counters in this table, which replaces
    /// it (a `gc` builds a fresh one).
    pub(crate) fn continue_counters(&mut self, old: &UniqueTable) {
        self.lookups = old.lookups;
        self.probes = old.probes;
    }

    /// The hash of a `(var, lo, hi)` key; its low bits pick the bucket at
    /// every capacity, so one hash serves a lookup, a growth and an insert.
    #[inline]
    pub(crate) fn hash(var: u32, lo: u32, hi: u32) -> u64 {
        mix3(var, lo, hi)
    }

    #[inline]
    fn bucket_of(&self, var: u32, lo: u32, hi: u32) -> usize {
        (mix3(var, lo, hi) & self.mask) as usize
    }

    /// [`find_hashed`](Self::find_hashed) that hashes the key itself.
    #[cfg(test)]
    pub(crate) fn find(&mut self, nodes: &[Node], var: u32, lo: u32, hi: u32) -> Option<u32> {
        self.find_hashed(nodes, Self::hash(var, lo, hi), var, lo, hi)
    }

    /// Looks up `(var, lo, hi)` by its [`hash`](Self::hash), recording
    /// lookup/probe counters.
    #[inline]
    pub(crate) fn find_hashed(
        &mut self,
        nodes: &[Node],
        hash: u64,
        var: u32,
        lo: u32,
        hi: u32,
    ) -> Option<u32> {
        self.lookups += 1;
        let mut cur = self.buckets[(hash & self.mask) as usize];
        while cur != NIL {
            self.probes += 1;
            let n = &nodes[cur as usize];
            if n.var == var && n.lo.0 == lo && n.hi.0 == hi {
                return Some(cur);
            }
            cur = n.next;
        }
        None
    }

    /// Counter-free lookup that tolerates corrupted chains (out-of-range
    /// indices, cycles): used by the integrity walk, which must not trust
    /// the structure it is checking. A chain defect reads as "not found".
    pub(crate) fn find_quiet(&self, nodes: &[Node], var: u32, lo: u32, hi: u32) -> Option<u32> {
        let mut cur = self.buckets[self.bucket_of(var, lo, hi)];
        let mut steps = 0usize;
        while cur != NIL && (cur as usize) < nodes.len() && steps <= nodes.len() {
            let n = &nodes[cur as usize];
            if n.var == var && n.lo.0 == lo && n.hi.0 == hi {
                return Some(cur);
            }
            cur = n.next;
            steps += 1;
        }
        None
    }

    /// Links the node at arena index `id` into its bucket (at the head).
    /// The caller guarantees the key is not already present.
    #[inline]
    pub(crate) fn insert(&mut self, nodes: &mut [Node], id: u32) {
        let n = nodes[id as usize];
        self.insert_hashed(nodes, id, Self::hash(n.var, n.lo.0, n.hi.0));
    }

    /// [`insert`](Self::insert) with the node key's [`hash`](Self::hash)
    /// given.
    #[inline]
    pub(crate) fn insert_hashed(&mut self, nodes: &mut [Node], id: u32, hash: u64) {
        let b = (hash & self.mask) as usize;
        nodes[id as usize].next = self.buckets[b];
        self.buckets[b] = id;
        self.len += 1;
    }

    /// Links the untabled node at `id` at the head of its bucket, first
    /// splicing out the other node that holds its key, if one does, in the
    /// same walk of the chain (counted as one lookup). The in-place swap
    /// (reorder.rs) relinks each node it rewrites this way: a node holding
    /// the new key is garbage.
    pub(crate) fn link_displacing(&mut self, nodes: &mut [Node], id: u32) {
        let n = nodes[id as usize];
        let b = self.bucket_of(n.var, n.lo.0, n.hi.0);
        self.lookups += 1;
        let (mut prev, mut cur) = (NIL, self.buckets[b]);
        while cur != NIL {
            self.probes += 1;
            let c = nodes[cur as usize];
            if c.var == n.var && c.lo.0 == n.lo.0 && c.hi.0 == n.hi.0 {
                match prev {
                    NIL => self.buckets[b] = c.next,
                    _ => nodes[prev as usize].next = c.next,
                }
                self.len -= 1;
                break; // one tabled node per key
            }
            (prev, cur) = (cur, c.next);
        }
        nodes[id as usize].next = self.buckets[b];
        self.buckets[b] = id;
        self.len += 1;
    }

    /// True when the next insert should first [`grow`](Self::grow) the
    /// table (measured load factor ≥ 3/4).
    #[inline]
    pub(crate) fn should_grow(&self) -> bool {
        self.len >= self.buckets.len() / 4 * 3
    }

    /// Doubles the bucket array and relinks every tabled node. Chain
    /// order after a grow is descending arena index — deterministic.
    pub(crate) fn grow(&mut self, nodes: &mut [Node]) {
        self.rebuild(nodes, self.capacity_log2() + 1);
    }

    /// Rebuilds the table at `1 << capacity_log2` buckets, relinking the
    /// currently tabled nodes in ascending-index order. Untabled nodes
    /// stay untabled: during an in-place swap walk (reorder.rs) the arena
    /// holds the garbage twins and the freed orphans the swaps unlinked —
    /// and the node being rewritten is unlinked while its cofactors are
    /// found or inserted, which is exactly when a growth rebuild can fire —
    /// so relinking by arena membership instead of table membership would
    /// resurrect them.
    pub(crate) fn rebuild(&mut self, nodes: &mut [Node], capacity_log2: u32) {
        let mut tabled = vec![false; nodes.len()];
        for b in 0..self.buckets.len() {
            let mut cur = self.buckets[b];
            while cur != NIL {
                tabled[cur as usize] = true;
                cur = nodes[cur as usize].next;
            }
        }
        let cap = 1usize << capacity_log2;
        self.buckets.clear();
        self.buckets.resize(cap, NIL);
        self.mask = (cap - 1) as u64;
        self.len = 0;
        for id in 2..nodes.len() as u32 {
            if tabled[id as usize] {
                self.insert(nodes, id);
            }
        }
    }

    /// Splices the node at `id` out of its bucket chain, reporting whether
    /// it was actually linked. The in-place adjacent swap (reorder.rs)
    /// unlinks every node it rewrites, and the `UnregisterNode` corruption
    /// uses it too.
    pub(crate) fn unlink_checked(&mut self, nodes: &mut [Node], id: u32) -> bool {
        let n = nodes[id as usize];
        let b = self.bucket_of(n.var, n.lo.0, n.hi.0);
        let mut cur = self.buckets[b];
        if cur == id {
            self.buckets[b] = n.next;
            self.len -= 1;
            return true;
        }
        while cur != NIL {
            let next = nodes[cur as usize].next;
            if next == id {
                nodes[cur as usize].next = n.next;
                self.len -= 1;
                return true;
            }
            cur = next;
        }
        false
    }

    /// Appends a dangling arena index to the end of the first non-empty
    /// bucket chain (test support for the `StaleUniqueEntry` corruption).
    /// Appending — rather than overwriting a head — keeps every real node
    /// reachable, so the seeded defect is exactly one stale entry. Falls
    /// back to corrupting an empty bucket's head if nothing is chained.
    pub(crate) fn corrupt_chain_for_testing(&mut self, nodes: &mut [Node], dangling: u32) {
        for head in self.buckets.iter_mut() {
            if *head == NIL {
                continue;
            }
            let mut cur = *head;
            loop {
                let next = nodes[cur as usize].next;
                if next == NIL {
                    nodes[cur as usize].next = dangling;
                    return;
                }
                cur = next;
            }
        }
        self.buckets[0] = dangling;
    }

    /// Iterates `(bucket_index, head)` over non-empty buckets — the
    /// integrity walk's entry points into the chains.
    pub(crate) fn bucket_heads(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &h)| h != NIL)
            .map(|(b, &h)| (b, h))
    }

    /// The bucket index a `(var, lo, hi)` key hashes to — lets the
    /// integrity walk verify each chained node is in its home bucket.
    pub(crate) fn home_bucket(&self, var: u32, lo: u32, hi: u32) -> usize {
        self.bucket_of(var, lo, hi)
    }
}

/// One direct-mapped cache slot: three key words, the result, and the
/// generation the entry was written under.
#[derive(Clone, Copy, Debug)]
struct Slot {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
    generation: u32,
}

const EMPTY_SLOT: Slot = Slot {
    a: 0,
    b: 0,
    c: 0,
    r: 0,
    generation: 0,
};

/// Initial computed-table slot count (power of two).
const CACHE_MIN: usize = 1 << 8;
/// Growth ceiling in slots (power of two).
const CACHE_MAX: usize = 1 << 20;

/// Bytes allocated behind `v` (its capacity, not its length).
pub(crate) fn held<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// A direct-mapped operation cache with generation-tag invalidation.
///
/// `invalidate` bumps the table generation instead of touching slots, so
/// wholesale invalidation (GC, adjacent-level swaps during sifting) is
/// O(1). Entries whose tag does not match the current generation are
/// dead. The generation starts at 1 and zeroed slots are therefore never
/// live; on the (astronomically rare) tag wrap the table does one
/// physical sweep, counted in [`CacheStats::slots_swept`].
#[derive(Clone, Debug)]
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    mask: u64,
    generation: u32,
    /// Entries written under the current generation and not yet evicted —
    /// the observable entry count.
    live: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
    slots_swept: u64,
}

impl Default for ComputedTable {
    fn default() -> Self {
        ComputedTable {
            slots: vec![EMPTY_SLOT; CACHE_MIN],
            mask: (CACHE_MIN - 1) as u64,
            generation: 1,
            live: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            invalidations: 0,
            slots_swept: 0,
        }
    }
}

impl ComputedTable {
    /// Looks up `(a, b, c)`; use [`NIL`] for `c` on two-word keys.
    #[inline]
    pub(crate) fn get(&mut self, a: u32, b: u32, c: u32) -> Option<u32> {
        let slot = &self.slots[(mix3(a, b, c) & self.mask) as usize];
        if slot.generation == self.generation && slot.a == a && slot.b == b && slot.c == c {
            self.hits += 1;
            Some(slot.r)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Records `(a, b, c) → r`, evicting whatever lived in the slot.
    pub(crate) fn put(&mut self, a: u32, b: u32, c: u32, r: u32) {
        if self.live >= self.slots.len() / 2 && self.slots.len() < CACHE_MAX {
            self.grow();
        }
        let idx = (mix3(a, b, c) & self.mask) as usize;
        let slot = &mut self.slots[idx];
        if slot.generation == self.generation {
            if slot.a == a && slot.b == b && slot.c == c {
                slot.r = r;
                return;
            }
            self.evictions += 1;
        } else {
            self.live += 1;
        }
        *slot = Slot {
            a,
            b,
            c,
            r,
            generation: self.generation,
        };
        self.insertions += 1;
    }

    /// Doubles the slot array, re-homing live entries (misses cost real
    /// recursion, so growth preserves the working set).
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; doubled]);
        self.mask = (self.slots.len() - 1) as u64;
        self.live = 0;
        for slot in old {
            if slot.generation == self.generation {
                let idx = (mix3(slot.a, slot.b, slot.c) & self.mask) as usize;
                let dst = &mut self.slots[idx];
                if dst.generation != self.generation {
                    self.live += 1;
                }
                *dst = slot;
            }
        }
    }

    /// Invalidates every entry in O(1) by bumping the generation tag.
    pub(crate) fn invalidate(&mut self) {
        self.invalidations += 1;
        self.live = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Tag wrap: old entries written under generation 0 would read
            // as live again; sweep them physically, once per 2^32 bumps.
            self.slots_swept += self.slots.len() as u64;
            for slot in &mut self.slots {
                *slot = EMPTY_SLOT;
            }
            self.generation = 1;
        }
    }

    /// GC-time reset: invalidates every entry and sizes the slot array for
    /// `live` nodes, reallocating only when that size changes.
    pub(crate) fn reset_for(&mut self, live: usize) {
        self.invalidate();
        let cap = live.next_power_of_two().clamp(CACHE_MIN, CACHE_MAX);
        if cap != self.slots.len() {
            self.slots = vec![EMPTY_SLOT; cap];
            self.mask = (cap - 1) as u64;
        }
    }

    /// Entries observable under the current generation.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Bytes held by the slot array.
    pub(crate) fn held_bytes(&self) -> u64 {
        held(&self.slots)
    }

    /// Iterates the live `(a, b, c, r)` entries (integrity walk).
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (u32, u32, u32, u32)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.generation == self.generation)
            .map(|s| (s.a, s.b, s.c, s.r))
    }

    /// Snapshot of this cache's counters and geometry.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            invalidations: self.invalidations,
            slots_swept: self.slots_swept,
            live: self.live as u64,
            capacity: self.slots.len() as u64,
        }
    }
}

/// A stamped raw-id → `u32` map over arena indices, reused from use to use:
/// resetting is one generation bump, so a traversal that visits `k` nodes
/// costs O(k) regardless of arena size — no per-use allocation or memset.
///
/// Its owner scopes it: a reorder walk keeps one for all of its swaps and
/// drops it when the walk ends, and the functional swap makes one per call.
/// Call [`begin`](Self::begin) before each use.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScratchMap {
    stamp: Vec<u32>,
    val: Vec<u32>,
    generation: u32,
}

impl ScratchMap {
    /// Starts a fresh use over an arena of `len` slots, forgetting all
    /// previous entries. O(1) except when the store grows or the
    /// generation wraps (once per 2^32 uses, which rewrites the stamps).
    pub(crate) fn begin(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
            self.val.resize(len, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// The value stored for `raw` in the current use, if any. Ids past
    /// the backing store (minted after [`begin`](Self::begin)) read as
    /// absent.
    pub(crate) fn get(&self, raw: u32) -> Option<u32> {
        match self.stamp.get(raw as usize) {
            Some(&stamp) if stamp == self.generation => Some(self.val[raw as usize]),
            _ => None,
        }
    }

    /// Stores `val` for `raw` in the current use, growing the store when
    /// `raw` was minted after [`begin`](Self::begin) (stamps of grown
    /// slots are dead until written, in every generation).
    pub(crate) fn set(&mut self, raw: u32, val: u32) {
        let i = raw as usize;
        if i >= self.stamp.len() {
            // A fresh stamp of 0 is never current: `begin` skips
            // generation 0 on wrap-around.
            self.stamp.resize(i + 1, 0);
            self.val.resize(i + 1, 0);
        }
        self.stamp[i] = self.generation;
        self.val[i] = val;
    }
}

/// Counters of one operation cache (see [`EngineStats`]). All counters
/// are monotone over a manager's lifetime; `live`/`capacity` are
/// point-in-time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a memoized result.
    pub hits: u64,
    /// Lookups that missed (dead slot or key mismatch).
    pub misses: u64,
    /// Entries written (including evicting writes).
    pub insertions: u64,
    /// Writes that displaced a live entry with a different key.
    pub evictions: u64,
    /// O(1) whole-table invalidations (GC, level swaps).
    pub invalidations: u64,
    /// Slots physically cleared by generation-wrap sweeps (zero in any
    /// realistic run — sifting regressions assert exactly this).
    pub slots_swept: u64,
    /// Entries currently live.
    pub live: u64,
    /// Slot count (power of two).
    pub capacity: u64,
}

impl CacheStats {
    /// Element-wise sum of the monotone counters; `live` and `capacity`
    /// also add, giving workspace totals.
    pub fn combined(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            slots_swept: self.slots_swept + other.slots_swept,
            live: self.live + other.live,
            capacity: self.capacity + other.capacity,
        }
    }
}

/// Engine-health snapshot of one [`BddManager`](crate::BddManager):
/// arena peaks, unique-table probe counters, per-operation cache
/// counters, and GC figures. Returned by
/// [`BddManager::engine_stats`](crate::BddManager::engine_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Largest arena length reached (nodes, terminals included).
    pub peak_nodes: u64,
    /// `peak_nodes` × the packed node size in bytes.
    pub peak_arena_bytes: u64,
    /// Current live interior nodes linked in the unique table.
    pub unique_len: u64,
    /// Current unique-table bucket count.
    pub unique_capacity: u64,
    /// Unique-table `find` calls.
    pub unique_lookups: u64,
    /// Chain nodes inspected across all `find` calls; divide by
    /// `unique_lookups` for the mean probe length.
    pub unique_probes: u64,
    /// The `ite` cache.
    pub ite: CacheStats,
    /// The existential-quantification cache.
    pub exists: CacheStats,
    /// The fused and-exists cache.
    pub and_exists: CacheStats,
    /// The compose/restrict cache.
    pub compose: CacheStats,
    /// Mark-and-rebuild collections completed.
    pub gc_runs: u64,
    /// Nodes those collections dropped from the arena.
    pub gc_reclaimed: u64,
    /// Wall-clock nanoseconds spent inside those collections.
    pub gc_pause_ns: u64,
    /// In-place adjacent-level swaps run by the reorders.
    pub swaps: u64,
    /// Live nodes those swaps rewrote.
    pub swap_rewrites: u64,
    /// Nodes those swaps orphaned and freed for reuse, without a collection.
    pub swap_reclaimed: u64,
    /// Bytes held now by the arena, the unique table's buckets and the four
    /// operation caches.
    pub held_bytes: u64,
}

impl EngineStats {
    /// The four operation caches' counters combined.
    pub fn cache_total(&self) -> CacheStats {
        self.ite
            .combined(&self.exists)
            .combined(&self.and_exists)
            .combined(&self.compose)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::NodeId;

    fn arena() -> Vec<Node> {
        // Two fake terminals + room for interiors.
        let t = Node {
            var: u32::MAX,
            lo: NodeId::test_raw(0),
            hi: NodeId::test_raw(0),
            next: NIL,
        };
        vec![t, t]
    }

    fn push(nodes: &mut Vec<Node>, var: u32, lo: u32, hi: u32) -> u32 {
        let id = nodes.len() as u32;
        nodes.push(Node {
            var,
            lo: NodeId::test_raw(lo),
            hi: NodeId::test_raw(hi),
            next: NIL,
        });
        id
    }

    #[test]
    fn unique_find_insert_roundtrip_and_probe_counters() {
        let mut nodes = arena();
        let mut t = UniqueTable::with_capacity_log2(6);
        assert_eq!(t.find(&nodes, 0, 0, 1), None);
        let id = push(&mut nodes, 0, 0, 1);
        t.insert(&mut nodes, id);
        assert_eq!(t.find(&nodes, 0, 0, 1), Some(id));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookups(), 2);
        assert!(t.probes() >= 1);
    }

    #[test]
    fn scratch_map_resets_by_generation_and_grows() {
        let mut s = ScratchMap::default();
        s.begin(4);
        assert_eq!(s.get(2), None);
        s.set(2, 7);
        assert_eq!(s.get(2), Some(7));
        s.begin(8); // new use over a larger arena: grown, old entries gone
        assert_eq!(s.get(2), None);
        s.set(7, 1);
        assert_eq!(s.get(7), Some(1));
        s.begin(8);
        assert_eq!(s.get(7), None, "a new use forgets the previous one");
    }

    #[test]
    fn unique_grow_preserves_membership() {
        let mut nodes = arena();
        let mut t = UniqueTable::with_capacity_log2(6);
        for v in 0..200u32 {
            let id = push(&mut nodes, v, 0, 1);
            if t.should_grow() {
                t.grow(&mut nodes);
            }
            t.insert(&mut nodes, id);
        }
        assert!(t.capacity() >= 256, "grew past the initial 64 buckets");
        for v in 0..200u32 {
            assert!(t.find(&nodes, v, 0, 1).is_some(), "var {v} lost in grow");
        }
    }

    #[test]
    fn unique_unlink_removes_only_the_target() {
        let mut nodes = arena();
        let mut t = UniqueTable::with_capacity_log2(2); // force shared buckets
        let ids: Vec<u32> = (0..8u32).map(|v| push(&mut nodes, v, 0, 1)).collect();
        for &id in &ids {
            t.insert(&mut nodes, id);
        }
        assert!(t.unlink_checked(&mut nodes, ids[3]));
        assert_eq!(t.find(&nodes, 3, 0, 1), None);
        for v in [0u32, 1, 2, 4, 5, 6, 7] {
            assert!(t.find(&nodes, v, 0, 1).is_some(), "var {v} vanished");
        }
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn link_displacing_splices_out_the_twin_only() {
        let mut nodes = arena();
        let mut t = UniqueTable::with_capacity_log2(2); // force shared buckets
        let ids: Vec<u32> = (0..6u32).map(|v| push(&mut nodes, v, 0, 1)).collect();
        for &id in &ids {
            t.insert(&mut nodes, id);
        }
        let fresh = push(&mut nodes, 7, 0, 1);
        t.link_displacing(&mut nodes, fresh);
        assert_eq!(t.len(), 7, "no twin to displace");
        let twin = push(&mut nodes, 3, 0, 1);
        t.link_displacing(&mut nodes, twin);
        assert_eq!(t.find(&nodes, 3, 0, 1), Some(twin));
        assert!(
            !t.unlink_checked(&mut nodes, ids[3]),
            "the twin is unlinked"
        );
        for v in [0u32, 1, 2, 4, 5, 7] {
            assert!(t.find(&nodes, v, 0, 1).is_some(), "var {v} vanished");
        }
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn deterministic_rebuild_geometry() {
        assert_eq!(UniqueTable::capacity_log2_for(0), 6);
        assert_eq!(UniqueTable::capacity_log2_for(32), 6);
        assert_eq!(UniqueTable::capacity_log2_for(33), 7);
        assert_eq!(UniqueTable::capacity_log2_for(64), 7);
        assert_eq!(UniqueTable::capacity_log2_for(65), 8);
    }

    #[test]
    fn computed_table_hit_miss_and_generation_invalidation() {
        let mut c = ComputedTable::default();
        assert_eq!(c.get(1, 2, 3), None);
        c.put(1, 2, 3, 9);
        assert_eq!(c.get(1, 2, 3), Some(9));
        assert_eq!(c.live(), 1);
        c.invalidate();
        assert_eq!(c.get(1, 2, 3), None, "generation bump kills the entry");
        assert_eq!(c.live(), 0);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.slots_swept, 0, "no physical sweep for a single bump");
    }

    #[test]
    fn computed_table_grow_keeps_live_entries() {
        let mut c = ComputedTable::default();
        let n = CACHE_MIN as u32 + 40;
        for k in 0..n {
            c.put(k, k ^ 0x5555, k.rotate_left(7), k);
        }
        assert!(c.stats().capacity > CACHE_MIN as u64, "table grew");
        // Growth re-homes survivors; at least the last write must live.
        let k = n - 1;
        assert_eq!(c.get(k, k ^ 0x5555, k.rotate_left(7)), Some(k));
    }

    #[test]
    fn reset_for_sizes_by_live_count_and_reuses_an_equal_array() {
        let mut c = ComputedTable::default();
        for k in 0..5000u32 {
            c.put(k, k, NIL, k);
        }
        let grown = c.stats();
        assert!(grown.capacity > 2048, "the table grew");
        c.reset_for(1500);
        let reset = c.stats();
        assert_eq!(reset.capacity, 2048, "smallest power of two ≥ 1500");
        assert_eq!(
            (reset.live, reset.invalidations),
            (0, grown.invalidations + 1)
        );
        assert_eq!(reset.insertions, grown.insertions, "counters carry over");
        assert_eq!(c.get(7, 7, NIL), None, "every entry is dead");
        let slots = c.slots.as_ptr();
        c.reset_for(2048);
        assert_eq!(c.slots.as_ptr(), slots, "an unchanged size keeps its array");
        c.reset_for(0);
        assert_eq!(c.stats().capacity, CACHE_MIN as u64);
        c.reset_for(usize::MAX / 4);
        assert_eq!(c.stats().capacity, CACHE_MAX as u64);
        assert_eq!(c.stats().slots_swept, 0);
    }

    #[test]
    fn generation_wrap_sweeps_physically() {
        let mut c = ComputedTable::default();
        c.put(1, 2, 3, 4);
        // Drive the tag to the wrap point cheaply, then bump across it.
        c.generation = u32::MAX;
        c.invalidate();
        assert_eq!(c.generation, 1);
        assert!(c.stats().slots_swept > 0);
        assert_eq!(c.get(1, 2, 3), None, "swept entry is gone");
    }

    #[test]
    fn mix3_spreads_low_bits() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..32u32 {
            for b in 0..32u32 {
                seen.insert(mix3(a, b, NIL) & 0xFFFF);
            }
        }
        assert!(seen.len() > 900, "low 16 bits nearly collision-free");
    }
}
