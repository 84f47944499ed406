//! Property-based tests for the snapshot wire format: random managers
//! (random expressions under random variable permutations, optionally
//! garbage-collected) must round-trip through `snapshot_bytes` /
//! `from_snapshot_bytes` with an exact arena bijection — and corrupted
//! snapshots must always yield typed, offset-carrying errors, never a
//! panic or a structurally unsound manager.

use bddcf_bdd::snapshot::{fnv1a64, ByteReader};
use bddcf_bdd::{BddManager, NodeId, SnapshotError, Var};
use proptest::prelude::*;

/// A tiny Boolean expression AST, mirroring `tests/proptests.rs`.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
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
    leaf.prop_recursive(5, 48, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

/// A random permutation of the `NVARS` variables, derived from a seed by
/// Fisher–Yates over a splitmix64 stream (the vendored proptest shim has
/// no shuffle strategy).
fn permutation_from_seed(mut seed: u64) -> Vec<Var> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<Var> = (0..NVARS).map(Var).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Builds a manager holding `exprs` under `order`, optionally collected
/// down to the last root.
fn build_manager(exprs: &[Expr], order: &[Var], collect: bool) -> (BddManager, Vec<NodeId>) {
    let mut mgr = BddManager::new(NVARS as usize);
    mgr.set_order(order);
    let mut roots: Vec<NodeId> = exprs.iter().map(|e| e.build(&mut mgr)).collect();
    if collect {
        if let Some(&last) = roots.last() {
            roots = mgr.gc(&[last]);
        }
    }
    (mgr, roots)
}

/// The version 1 form of a version 2 snapshot: the same bytes without the
/// geometry word at offset 24, with version 1 and a fresh checksum.
fn v2_to_v1(v2: &[u8]) -> Vec<u8> {
    let payload = &v2[..v2.len() - 8];
    let mut v1 = [&payload[..24], &payload[28..]].concat();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let checksum = fnv1a64(&v1);
    v1.extend_from_slice(&checksum.to_le_bytes());
    v1
}

proptest! {
    /// Serialize → restore → the restored manager is structurally sound,
    /// has the identical arena (triple for triple, checked via re-encoding
    /// byte equality), the identical order, and evaluates every root to the
    /// same function.
    #[test]
    fn snapshot_round_trip_is_an_arena_bijection(
        exprs in prop::collection::vec(arb_expr(), 1..4),
        order_seed in 0u64..u64::MAX,
        collect in 0u32..2,
    ) {
        let order = permutation_from_seed(order_seed);
        let (mgr, roots) = build_manager(&exprs, &order, collect == 1);
        let bytes = mgr.snapshot_bytes();
        let restored = BddManager::from_snapshot_bytes(&bytes).expect("round trip");

        prop_assert!(restored.check_integrity().is_ok());
        prop_assert_eq!(restored.num_vars(), mgr.num_vars());
        prop_assert_eq!(restored.arena_len(), mgr.arena_len());
        prop_assert_eq!(restored.order(), mgr.order());
        // Arena bijection: identical serialized form means every interior
        // node has the same (var, lo, hi) at the same index.
        prop_assert_eq!(restored.snapshot_bytes(), bytes);
        // Same ids denote the same functions in both managers.
        for bits in 0..1u32 << NVARS {
            let a: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            for &root in &roots {
                prop_assert_eq!(restored.eval(root, &a), mgr.eval(root, &a));
            }
        }
    }

    /// A legacy v1 snapshot (no unique-table geometry word) of any random
    /// manager still loads, is structurally sound, preserves every root's
    /// function, and migrates to a stable v2 form: reserializing writes
    /// version 2 bytes that round-trip byte-identically thereafter.
    #[test]
    fn v1_snapshots_migrate_losslessly(
        exprs in prop::collection::vec(arb_expr(), 1..4),
        order_seed in 0u64..u64::MAX,
        collect in 0u32..2,
    ) {
        let order = permutation_from_seed(order_seed);
        let (mgr, roots) = build_manager(&exprs, &order, collect == 1);
        let v1 = v2_to_v1(&mgr.snapshot_bytes());
        let restored = BddManager::from_snapshot_bytes(&v1).expect("v1 load");
        prop_assert!(restored.check_integrity().is_ok());
        prop_assert_eq!(restored.arena_len(), mgr.arena_len());
        prop_assert_eq!(restored.order(), mgr.order());
        for bits in 0..1u32 << NVARS {
            let a: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            for &root in &roots {
                prop_assert_eq!(restored.eval(root, &a), mgr.eval(root, &a));
            }
        }
        // Migration: the reserialized form is v2 and self-stable.
        let v2 = restored.snapshot_bytes();
        prop_assert_eq!(&v2[8..12], &2u32.to_le_bytes());
        let migrated = BddManager::from_snapshot_bytes(&v2).expect("migrated load");
        prop_assert_eq!(migrated.snapshot_bytes(), v2);
    }

    /// Truncating a valid snapshot anywhere yields a typed error (and
    /// never a panic): `Truncated` with the cut offset when the header or
    /// checksum is cut short, `ChecksumMismatch` or `Malformed` when only
    /// payload is lost.
    #[test]
    fn truncation_always_yields_typed_errors(
        exprs in prop::collection::vec(arb_expr(), 1..3),
        cut_pos in 0usize..100_000,
    ) {
        let (mgr, _) = build_manager(&exprs, &(0..NVARS).map(Var).collect::<Vec<_>>(), false);
        let bytes = mgr.snapshot_bytes();
        let cut = cut_pos % bytes.len();
        let err = BddManager::from_snapshot_bytes(&bytes[..cut])
            .expect_err("truncated snapshot must not parse");
        match err {
            SnapshotError::Truncated { offset, needed } => {
                prop_assert!(offset <= cut);
                prop_assert!(needed > 0);
            }
            SnapshotError::ChecksumMismatch { .. } | SnapshotError::Malformed { .. } => {}
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Flipping any single byte of a valid snapshot is always detected:
    /// header flips surface as magic/version errors, payload flips as a
    /// checksum mismatch (or a typed truncation when the flip lands in a
    /// length-bearing field). Nothing panics; nothing parses silently.
    #[test]
    fn single_byte_corruption_is_always_detected(
        exprs in prop::collection::vec(arb_expr(), 1..3),
        position_pos in 0usize..100_000,
        flip_minus_one in 0u8..255,
    ) {
        let (mgr, _) = build_manager(&exprs, &(0..NVARS).map(Var).collect::<Vec<_>>(), false);
        let mut bytes = mgr.snapshot_bytes();
        let position = position_pos % bytes.len();
        bytes[position] ^= flip_minus_one + 1;
        let err = BddManager::from_snapshot_bytes(&bytes)
            .expect_err("a flipped byte must never parse");
        match err {
            SnapshotError::BadMagic => prop_assert!(position < 8),
            SnapshotError::UnsupportedVersion { found, supported } => {
                prop_assert!(found != supported);
            }
            SnapshotError::ChecksumMismatch { expected, found } => {
                prop_assert!(expected != found);
            }
            SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. } => {}
        }
    }
}

/// One step of the interleaved engine-ops test.
#[derive(Clone, Copy, Debug)]
enum EngineOp {
    /// Combine pooled functions (drives `mk`, `ite`, and unique-table
    /// growth/rehash).
    Combine {
        a: usize,
        b: usize,
        c: usize,
        kind: u8,
    },
    /// Mark-and-rebuild collection (compaction + deterministic rehash).
    Gc,
    /// Adjacent level swap followed by a collection — the sifter's
    /// swap-then-collect cadence (rebuild + O(1) cache invalidation +
    /// compaction rehash). The collection is part of the op because a bare
    /// swap intentionally leaves order-inconsistent *garbage* behind,
    /// which the full-arena integrity walk would flag; the reachable
    /// structure is only auditable at collected boundaries.
    Swap { level: u32 },
    /// Serialize and continue on the restored manager (the snapshot
    /// contract keeps pooled ids valid across the round trip).
    Roundtrip,
}

fn arb_engine_op() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        (any::<usize>(), any::<usize>(), any::<usize>(), any::<u8>())
            .prop_map(|(a, b, c, kind)| EngineOp::Combine { a, b, c, kind }),
        (any::<usize>(), any::<usize>(), any::<usize>(), any::<u8>())
            .prop_map(|(a, b, c, kind)| EngineOp::Combine { a, b, c, kind }),
        Just(EngineOp::Gc),
        (0u32..NVARS - 1).prop_map(|level| EngineOp::Swap { level }),
        Just(EngineOp::Roundtrip),
    ]
}

proptest! {
    /// Random interleavings of `mk`/`ite`, garbage collection, adjacent
    /// swaps, and snapshot round trips: after *every* step the arena must
    /// pass the full integrity walk (which includes unique-table
    /// canonicity — no duplicate or unregistered interior nodes) and every
    /// pooled function must still evaluate to its tracked truth vector.
    #[test]
    fn interleaved_ops_keep_the_arena_canonical(
        ops in prop::collection::vec(arb_engine_op(), 1..20),
        order_seed in 0u64..u64::MAX,
    ) {
        let order = permutation_from_seed(order_seed);
        let mut mgr = BddManager::new(NVARS as usize);
        mgr.set_order(&order);
        // Pool of (root, truth vector over all 2^NVARS assignments).
        let mut pool: Vec<(NodeId, u64)> = (0..NVARS)
            .map(|i| {
                let f = mgr.var(Var(i));
                let mut mask = 0u64;
                for bits in 0..1u64 << NVARS {
                    if bits >> i & 1 == 1 {
                        mask |= 1 << bits;
                    }
                }
                (f, mask)
            })
            .collect();
        for op in ops {
            match op {
                EngineOp::Combine { a, b, c, kind } => {
                    let n = pool.len();
                    let (fa, ma) = pool[a % n];
                    let (fb, mb) = pool[b % n];
                    let (fc, mc) = pool[c % n];
                    let entry = match kind % 4 {
                        0 => (mgr.and(fa, fb), ma & mb),
                        1 => (mgr.or(fa, fb), ma | mb),
                        2 => (mgr.xor(fa, fb), ma ^ mb),
                        _ => (mgr.ite(fa, fb, fc), (ma & mb) | (!ma & mc)),
                    };
                    pool.push(entry);
                    if pool.len() > 10 {
                        pool.remove(0); // dropped roots become gc fodder
                    }
                }
                EngineOp::Gc => {
                    let roots: Vec<NodeId> = pool.iter().map(|e| e.0).collect();
                    let remapped = mgr.gc(&roots);
                    for (entry, id) in pool.iter_mut().zip(remapped) {
                        entry.0 = id;
                    }
                }
                EngineOp::Swap { level } => {
                    let roots: Vec<NodeId> = pool.iter().map(|e| e.0).collect();
                    let swapped = mgr.swap_adjacent(level, &roots);
                    let remapped = mgr.gc(&swapped);
                    for (entry, id) in pool.iter_mut().zip(remapped) {
                        entry.0 = id;
                    }
                }
                EngineOp::Roundtrip => {
                    let bytes = mgr.snapshot_bytes();
                    mgr = BddManager::from_snapshot_bytes(&bytes).expect("roundtrip");
                }
            }
            prop_assert!(mgr.check_integrity().is_ok(), "integrity after {op:?}");
            for (root, mask) in &pool {
                for bits in 0..1u64 << NVARS {
                    let a: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
                    prop_assert!(
                        mgr.eval(*root, &a) == (mask >> bits & 1 == 1),
                        "function drift after {op:?}"
                    );
                }
            }
        }
    }
}

/// The deterministic corruption table from the issue: truncation, bad
/// magic, bad checksum, and version skew all map to their dedicated,
/// offset-carrying variants.
#[test]
fn corruption_table_maps_to_typed_errors() {
    let mut mgr = BddManager::new(4);
    let a = mgr.var(Var(0));
    let b = mgr.var(Var(1));
    let c = mgr.var(Var(2));
    let ab = mgr.and(a, b);
    let _f = mgr.xor(ab, c);
    let good = mgr.snapshot_bytes();
    assert!(BddManager::from_snapshot_bytes(&good).is_ok());

    // Truncation inside the fixed header.
    let err = BddManager::from_snapshot_bytes(&good[..5]).expect_err("truncated header");
    assert!(matches!(err, SnapshotError::Truncated { offset: 0, .. }));

    // Truncation that removes the checksum trailer.
    let err =
        BddManager::from_snapshot_bytes(&good[..good.len() - 4]).expect_err("truncated trailer");
    assert!(matches!(
        err,
        SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
    ));

    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        BddManager::from_snapshot_bytes(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Version skew.
    let mut skewed = good.clone();
    skewed[8] = 99;
    assert!(matches!(
        BddManager::from_snapshot_bytes(&skewed),
        Err(SnapshotError::UnsupportedVersion { found: 99, .. })
    ));

    // Bad checksum: flip one payload byte past the header.
    let mut flipped = good.clone();
    let mid = good.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(matches!(
        BddManager::from_snapshot_bytes(&flipped),
        Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::Malformed { .. })
    ));

    // Empty input.
    assert!(matches!(
        BddManager::from_snapshot_bytes(&[]),
        Err(SnapshotError::Truncated { offset: 0, .. })
    ));
}

/// `ByteReader` reports the absolute offset of a short read even when it
/// was created with a non-zero base (as the checkpoint decoder does for
/// its embedded manager snapshot).
#[test]
fn byte_reader_offsets_account_for_the_base() {
    let mut r = ByteReader::with_base(&[1, 2, 3], 100);
    assert_eq!(r.u32().expect_err("3 < 4 bytes"), {
        SnapshotError::Truncated {
            offset: 100,
            needed: 1, // 3 of the 4 requested bytes were present
        }
    });
}
