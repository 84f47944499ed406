//! Concurrent access to `BDDCFCKP` checkpoint files.
//!
//! The serve daemon's spool makes checkpoints shared state: several
//! worker threads may load the same file at once (duplicate requests for
//! one spec), and a recovery scan may read a checkpoint while the owning
//! job is atomically replacing it (tmp + fsync + rename, the same
//! discipline `Checkpointer::save` uses). These tests pin down the two
//! guarantees that make that safe without any file locking:
//!
//! * loading is a pure read — any number of concurrent loaders decode
//!   the same bytes and resume to identical results;
//! * an atomic rewrite is all-or-nothing — a reader racing the rename
//!   sees the old version or the new one, never a torn hybrid.

use bddcf_bdd::Var;
use bddcf_core::checkpoint::encode_checkpoint;
use bddcf_core::{
    load_checkpoint, Cf, CfLayout, Checkpointer, DegradationReport, FixpointCursor, IsfBdds,
    Progress,
};
use bddcf_logic::TruthTable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn paper_cf() -> Cf {
    let table = TruthTable::paper_table1();
    let order = vec![Var(0), Var(1), Var(2), Var(4), Var(3), Var(5)];
    Cf::build_with_order(CfLayout::new(4, 2), &order, |mgr, layout| {
        IsfBdds::from_truth_table(mgr, layout, &table)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bddcf-ckpt-concurrent-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes `bytes` to `dir/name` with the spool's atomic discipline.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut file = std::fs::File::create(&tmp).expect("create tmp");
        std::io::Write::write_all(&mut file, bytes).expect("write tmp");
        file.sync_all().expect("sync tmp");
    }
    std::fs::rename(&tmp, dir.join(name)).expect("rename over");
}

#[test]
fn concurrent_loads_of_one_checkpoint_resume_identically() {
    let dir = temp_dir("load");
    // Save a mid-reduction checkpoint: iteration 1 is still ahead, so a
    // resume has real work left to do.
    let cf = paper_cf();
    let cursor = FixpointCursor {
        current: (cf.max_width() as u64, cf.node_count() as u64),
        removed_inputs: 0,
    };
    let mut ck = Checkpointer::new(&dir).expect("open checkpointer");
    let path = ck
        .save(
            &cf,
            Progress::IterationStart { iteration: 1 },
            &cursor,
            &DegradationReport::new(),
        )
        .expect("save checkpoint");

    // The uninterrupted run every loader must agree with.
    let mut reference = paper_cf();
    let mut report = DegradationReport::new();
    reference.reduce_to_fixpoint_governed(4, &mut report);
    assert!(report.is_clean(), "unbudgeted reference must not degrade");
    let want = (reference.max_width(), reference.node_count());

    let results: Vec<_> = (0..2)
        .map(|i| {
            let path = path.clone();
            let dir = dir.join(format!("resume-{i}"));
            std::thread::spawn(move || {
                let loaded = load_checkpoint(&path).expect("concurrent load");
                let mut ck = Checkpointer::new(&dir).expect("per-thread checkpointer");
                let (cf, report, stats) = loaded.resume(4, &mut ck, false).expect("resume");
                assert!(report.is_clean(), "unbudgeted resume must not degrade");
                assert!(stats.is_some(), "iteration 1 had work left");
                (cf.max_width(), cf.node_count())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("loader thread"))
        .collect();

    for got in results {
        assert_eq!(
            got, want,
            "a concurrent loader diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loads_racing_an_atomic_rewrite_never_see_a_torn_checkpoint() {
    let dir = temp_dir("race");
    // Two distinguishable but individually valid snapshots of the same
    // function: unreduced at iteration 1, reduced and done at iteration 2.
    let unreduced = paper_cf();
    let mut reduced = paper_cf();
    let mut report = DegradationReport::new();
    reduced.reduce_to_fixpoint_governed(4, &mut report);
    assert_ne!(
        unreduced.node_count(),
        reduced.node_count(),
        "the two versions must be tellable apart"
    );
    let cursor = |cf: &Cf| FixpointCursor {
        current: (cf.max_width() as u64, cf.node_count() as u64),
        removed_inputs: 0,
    };
    let version_a = encode_checkpoint(
        &unreduced,
        Progress::IterationStart { iteration: 1 },
        &cursor(&unreduced),
        &DegradationReport::new(),
    );
    let version_b = encode_checkpoint(
        &reduced,
        Progress::ReductionDone { iteration: 2 },
        &cursor(&reduced),
        &DegradationReport::new(),
    );
    let name = "race.bddcfck";
    write_atomic(&dir, name, &version_a);

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let done = Arc::clone(&done);
            let path = dir.join(name);
            let (nodes_a, nodes_b) = (unreduced.node_count(), reduced.node_count());
            std::thread::spawn(move || {
                let mut loads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // Every load must decode cleanly to exactly one of the
                    // two versions; a torn file would fail the magic, the
                    // length checks, or yield an impossible node count.
                    let loaded = load_checkpoint(&path).expect("load mid-rewrite");
                    let nodes = loaded.cf.node_count();
                    match loaded.progress {
                        Progress::IterationStart { iteration: 1 } => assert_eq!(nodes, nodes_a),
                        Progress::ReductionDone { iteration: 2 } => assert_eq!(nodes, nodes_b),
                        other => panic!("impossible checkpoint version: {other}"),
                    }
                    loads += 1;
                }
                loads
            })
        })
        .collect();

    for round in 0..200 {
        let bytes = if round % 2 == 0 {
            &version_b
        } else {
            &version_a
        };
        write_atomic(&dir, name, bytes);
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        let loads = reader.join().expect("reader thread");
        assert!(loads > 0, "the race was never exercised");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
