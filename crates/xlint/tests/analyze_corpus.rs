//! Seeded-defect corpus for the XL1xx dataflow and XL2xx concurrency
//! passes.
//!
//! Each pass gets a pair of fixtures: a *buggy* source that must produce
//! exactly the expected finding(s), and the same source with the defect
//! reverted that must come back clean. This pins both directions — the
//! pass fires on the defect it was built for, and the fix it recommends
//! actually silences it. A final test re-asserts the real workspace is
//! analysis-clean from outside the crate.

use bddcf_xlint::analyze::{analyze_source, analyze_workspace};
use bddcf_xlint::{
    Finding, XL101_PROVENANCE, XL102_GC_ESCAPE, XL103_BUDGET_POLL, XL104_PANIC_SURFACE,
    XL105_CONCURRENCY, XL106_UNDOC_UNSAFE, XL201_LOCK_ORDER, XL202_BLOCKING_UNDER_GUARD,
    XL203_CONDVAR, XL204_ATOMICS, XL205_SPAWN_CAPTURE,
};
use std::path::Path;

/// Asserts the fixture yields exactly the given `(id, line)` findings.
fn expect(rel: &str, source: &str, expected: &[(&str, usize)]) {
    let findings = analyze_source(rel, source);
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.id, f.line)).collect();
    assert_eq!(
        got,
        expected,
        "fixture `{rel}` produced:\n{}",
        findings
            .iter()
            .map(Finding::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn xl101_flags_cross_manager_node_use_and_accepts_the_fix() {
    // `x` is minted by `a` but consumed through `b`.
    let buggy = "\
fn cross_manager(a: &mut BddManager, b: &mut BddManager) -> NodeId {
    let x = a.literal(Var(0), true);
    let y = b.literal(Var(1), false);
    b.and(x, y)
}
";
    expect(
        "crates/decomp/src/chart.rs",
        buggy,
        &[(XL101_PROVENANCE, 4)],
    );

    // Reverted: every node stays with the manager that created it.
    let clean = "\
fn cross_manager(a: &mut BddManager, _b: &mut BddManager) -> NodeId {
    let x = a.literal(Var(0), true);
    let y = a.literal(Var(1), false);
    a.and(x, y)
}
";
    expect("crates/decomp/src/chart.rs", clean, &[]);
}

#[test]
fn xl102_flags_unrooted_store_across_gc_and_accepts_the_fix() {
    // `x` is retained by `keep` but never handed to `gc`.
    let buggy = "\
fn fill(mgr: &mut BddManager, keep: &mut Vec<NodeId>) -> NodeId {
    let x = mgr.literal(Var(0), true);
    keep.push(x);
    let live = mgr.literal(Var(1), false);
    mgr.gc(&[live])[0]
}
";
    expect("crates/decomp/src/cache.rs", buggy, &[(XL102_GC_ESCAPE, 3)]);

    // Reverted: the stored id is routed through a `roots` set before gc.
    let clean = "\
fn fill(mgr: &mut BddManager, keep: &mut Vec<NodeId>) -> NodeId {
    let x = mgr.literal(Var(0), true);
    keep.push(x);
    let mut roots = Vec::new();
    roots.push(x);
    mgr.gc(&roots)[0]
}
";
    expect("crates/decomp/src/cache.rs", clean, &[]);
}

#[test]
fn xl103_flags_unpolled_working_loop_and_accepts_the_fix() {
    // degrade.rs is on the governed path (XL103/XL104 scope, but not the
    // XL001 whole-file list, so the bare `.and` is not a second finding):
    // the loop does manager work on every iteration but never polls the
    // budget.
    let buggy = "\
fn saturate(mgr: &mut BddManager, mut acc: NodeId) -> NodeId {
    for _ in 0..8 {
        acc = mgr.and(acc, acc);
    }
    acc
}
";
    expect(
        "crates/core/src/degrade.rs",
        buggy,
        &[(XL103_BUDGET_POLL, 2)],
    );

    // Reverted: every iteration path charges the budget first.
    let clean = "\
fn saturate(mgr: &mut BddManager, mut acc: NodeId) -> Result<NodeId, Error> {
    for _ in 0..8 {
        mgr.charge(1)?;
        acc = mgr.and(acc, acc);
    }
    Ok(acc)
}
";
    expect("crates/core/src/degrade.rs", clean, &[]);
}

#[test]
fn xl104_flags_raw_index_on_governed_path_and_accepts_the_fix() {
    // synth.rs is a governed file: raw indexing can panic mid-synthesis.
    let buggy = "\
fn cell_output(table: &[u64], i: usize) -> u64 {
    table[i]
}
";
    expect(
        "crates/cascade/src/synth.rs",
        buggy,
        &[(XL104_PANIC_SURFACE, 2)],
    );

    // Reverted: the lookup degrades instead of panicking.
    let clean = "\
fn cell_output(table: &[u64], i: usize) -> u64 {
    table.get(i).copied().unwrap_or(0)
}
";
    expect("crates/cascade/src/synth.rs", clean, &[]);
}

#[test]
fn xl105_flags_interior_mutability_in_sharding_module_and_accepts_the_fix() {
    // pipeline.rs is scheduled for sharding: RefCell state would not
    // survive the parallel split.
    let buggy = "\
fn widths(shared: &RefCell<Vec<u64>>) -> usize {
    shared.borrow().len()
}
";
    expect(
        "crates/bench/src/pipeline.rs",
        buggy,
        &[(XL105_CONCURRENCY, 1)],
    );

    // Reverted: exclusive ownership, nothing hidden from the split.
    let clean = "\
fn widths(shared: &[u64]) -> usize {
    shared.len()
}
";
    expect("crates/bench/src/pipeline.rs", clean, &[]);
}

#[test]
fn xl106_flags_undocumented_unsafe_and_accepts_the_fix() {
    let buggy = "\
fn first_byte(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
";
    expect("crates/io/src/raw.rs", buggy, &[(XL106_UNDOC_UNSAFE, 2)]);

    // Reverted: the invariant is stated where the unsafe happens.
    let clean = "\
fn first_byte(bytes: &[u8]) -> u8 {
    // SAFETY: callers guarantee `bytes` is non-empty, so the pointer
    // read stays in bounds.
    unsafe { *bytes.as_ptr() }
}
";
    expect("crates/io/src/raw.rs", clean, &[]);
}

#[test]
fn xl201_flags_a_lock_order_inversion_with_both_witnesses_and_accepts_the_fix() {
    // `forward` takes a before b; `backward` takes b before a: the
    // classic two-thread deadlock schedule.
    let buggy = "\
fn forward(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    drop(gb);
    drop(ga);
}
fn backward(a: &Mutex<u64>, b: &Mutex<u64>) {
    let gb = b.lock().unwrap();
    let ga = a.lock().unwrap();
    drop(ga);
    drop(gb);
}
";
    expect(
        "crates/serve/src/worker.rs",
        buggy,
        &[(XL201_LOCK_ORDER, 3)],
    );
    // The one finding carries the witness path for *both* directions of
    // the inversion.
    let finding = analyze_source("crates/serve/src/worker.rs", buggy)
        .into_iter()
        .next()
        .expect("one finding");
    assert!(
        finding.message.contains("witness `a` -> `b`")
            && finding.message.contains("witness `b` -> `a`"),
        "both witness paths must be reported: {}",
        finding.message
    );

    // Reverted: both functions agree on the a-then-b order.
    let clean = "\
fn forward(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    drop(gb);
    drop(ga);
}
fn backward(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    drop(gb);
    drop(ga);
}
";
    expect("crates/serve/src/worker.rs", clean, &[]);
}

#[test]
fn xl202_flags_file_io_under_a_guard_and_accepts_the_fix() {
    // The spool write runs while the events guard is live.
    let buggy = "\
fn drain(events: &Mutex<Vec<u64>>, out: &mut File) {
    let guard = events.lock().unwrap();
    out.write_all(b\"batch\").unwrap();
    drop(guard);
}
";
    expect(
        "crates/serve/src/worker.rs",
        buggy,
        &[(XL202_BLOCKING_UNDER_GUARD, 3)],
    );

    // Reverted: the guard is dropped before the blocking write.
    let clean = "\
fn drain(events: &Mutex<Vec<u64>>, out: &mut File) {
    let guard = events.lock().unwrap();
    drop(guard);
    out.write_all(b\"batch\").unwrap();
}
";
    expect("crates/serve/src/worker.rs", clean, &[]);
}

#[test]
fn xl203_flags_a_bare_if_condvar_wait_and_accepts_the_fix() {
    // An `if` around the wait misses spurious wakeups: the predicate is
    // never re-checked after the wait returns.
    let buggy = "\
fn wait_ready(state: &Mutex<bool>, cv: &Condvar) {
    let mut ready = state.lock().unwrap();
    if !*ready {
        ready = cv.wait(ready).unwrap();
    }
    drop(ready);
}
";
    expect("crates/serve/src/worker.rs", buggy, &[(XL203_CONDVAR, 4)]);

    // Reverted: the canonical predicate loop.
    let clean = "\
fn wait_ready(state: &Mutex<bool>, cv: &Condvar) {
    let mut ready = state.lock().unwrap();
    while !*ready {
        ready = cv.wait(ready).unwrap();
    }
    drop(ready);
}
";
    expect("crates/serve/src/worker.rs", clean, &[]);
}

#[test]
fn xl204_flags_a_relaxed_publish_and_accepts_the_fix() {
    // pool.rs is in the sharding (cross-thread) scope; `flag` is stored
    // Relaxed here and loaded in another function, so the data written
    // before the flag flip is unordered with it.
    let buggy = "\
fn publish(flag: &AtomicBool, data: &AtomicU64) {
    data.store(42, Ordering::Relaxed);
    flag.store(true, Ordering::Relaxed);
}
fn consume(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed)
}
";
    expect("crates/serve/src/pool.rs", buggy, &[(XL204_ATOMICS, 3)]);

    // Reverted: a Release store paired with an Acquire load.
    let clean = "\
fn publish(flag: &AtomicBool, data: &AtomicU64) {
    data.store(42, Ordering::Relaxed);
    flag.store(true, Ordering::Release);
}
fn consume(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Acquire)
}
";
    expect("crates/serve/src/pool.rs", clean, &[]);
}

#[test]
fn xl205_flags_a_node_id_captured_by_spawn_and_accepts_the_waiver() {
    // `root` is minted by the manager, then smuggled into a worker
    // thread by closure capture.
    let buggy = "\
fn fanout(mgr: &mut BddManager) -> NodeId {
    let root = mgr.literal(Var(0), true);
    let h = std::thread::spawn(move || root);
    h.join().unwrap()
}
";
    expect(
        "crates/serve/src/worker.rs",
        buggy,
        &[(XL205_SPAWN_CAPTURE, 3)],
    );

    // Reverted: the capture is declared rooted where it crosses.
    let clean = "\
fn fanout(mgr: &mut BddManager) -> NodeId {
    let root = mgr.literal(Var(0), true);
    // Snapshot is pinned in the root set first. xlint: rooted
    let h = std::thread::spawn(move || root);
    h.join().unwrap()
}
";
    expect("crates/serve/src/worker.rs", clean, &[]);
}

#[test]
fn the_workspace_stays_xl1xx_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xlint sits two levels below the root");
    let findings = analyze_workspace(root).expect("workspace readable");
    let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{}", rendered.join("\n"));
}
