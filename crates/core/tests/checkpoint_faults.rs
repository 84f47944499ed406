//! Hostile-disk tests for the `BDDCFCKP` checkpoint path.
//!
//! The crash-safety story (PR4) assumed the disk itself cooperates; these
//! tests drop that assumption. A checkpoint file may come back truncated,
//! bit-flipped, or not at all — the loader must answer with a typed
//! [`CheckpointError`], never a panic, and the recovery scan must
//! quarantine the wreck and fall back to the previous sequence number.
//! The [`FaultVfs`] tests additionally pin the durability discipline
//! itself: a save that *returned* survives a simulated power loss only
//! because `write_atomic` fsyncs the parent directory after the rename —
//! the `ignore_sync_dir` run is the regression proving that without that
//! fsync the guarantee is gone.

use std::path::PathBuf;
use std::sync::Arc;

use bddcf_bdd::vfs::{splitmix64, FaultPlan, FaultVfs, Vfs, WriteFault};
use bddcf_bdd::Var;
use bddcf_core::checkpoint::{decode_checkpoint, encode_checkpoint};
use bddcf_core::{
    latest_checkpoint_vfs, latest_valid_checkpoint_vfs, load_checkpoint_vfs, quarantine_name, Cf,
    CfLayout, Checkpointer, DegradationReport, FixpointCursor, IsfBdds, Progress,
};
use bddcf_logic::TruthTable;
use proptest::prelude::*;

fn paper_cf() -> Cf {
    let table = TruthTable::paper_table1();
    let order = vec![Var(0), Var(1), Var(2), Var(4), Var(3), Var(5)];
    Cf::build_with_order(CfLayout::new(4, 2), &order, |mgr, layout| {
        IsfBdds::from_truth_table(mgr, layout, &table)
    })
}

/// `(max_width, node_count)` of the uninterrupted reference reduction.
fn reference_shape() -> (usize, usize) {
    let mut cf = paper_cf();
    let mut report = DegradationReport::new();
    cf.reduce_to_fixpoint_governed(4, &mut report);
    assert!(report.is_clean(), "unbudgeted reference must not degrade");
    (cf.max_width(), cf.node_count())
}

fn encoded_checkpoint() -> Vec<u8> {
    let cf = paper_cf();
    let cursor = FixpointCursor {
        current: (cf.max_width() as u64, cf.node_count() as u64),
        removed_inputs: 0,
    };
    encode_checkpoint(
        &cf,
        Progress::IterationStart { iteration: 1 },
        &cursor,
        &DegradationReport::new(),
    )
}

/// Every byte-prefix truncation of a checkpoint is a typed decode error —
/// the magic, the version gate, the length checks, and ultimately the
/// trailing whole-file checksum leave no prefix that parses.
#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = encoded_checkpoint();
    assert!(
        decode_checkpoint(&bytes).is_ok(),
        "the untouched encoding must load"
    );

    let mut lengths: Vec<usize> = (0..bytes.len()).step_by(13).collect();
    // Format boundaries: inside the magic, at the version word, and the
    // bytes around the checksum trailer.
    lengths.extend([
        1,
        7,
        8,
        11,
        12,
        bytes.len() - 9,
        bytes.len() - 8,
        bytes.len() - 1,
    ]);
    for len in lengths {
        let err = decode_checkpoint(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("a {len}-byte prefix of {} must not load", bytes.len()));
        // The error must render (typed, not a panic payload).
        assert!(!err.to_string().is_empty());
    }
}

/// Every single-byte corruption of a checkpoint is a typed decode error:
/// the checksum covers every preceding byte, and a flip inside the
/// checksum trailer breaks the comparison itself.
#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = encoded_checkpoint();
    let mut offsets: Vec<usize> = (0..bytes.len()).step_by(7).collect();
    offsets.extend([bytes.len() - 8, bytes.len() - 1]);
    for offset in offsets {
        for bit in [0x01u8, 0x80u8] {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= bit;
            let err = decode_checkpoint(&corrupt).err().unwrap_or_else(|| {
                panic!("flipping bit {bit:#04x} of byte {offset} must not load")
            });
            assert!(!err.to_string().is_empty());
        }
    }
}

/// The directory-fsync regression. A save that returned survives power
/// loss — and the *only* thing making that true is the parent-directory
/// fsync after the rename, as the `ignore_sync_dir` adversary (every dir
/// fsync silently lies, exactly what removing the fsync call would do)
/// demonstrates by losing the same checkpoint.
#[test]
fn a_returned_save_survives_power_loss_only_through_the_dir_fsync() {
    let dir = PathBuf::from("/ckpt");
    let save_once = |vfs: &FaultVfs| {
        let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let cf = paper_cf();
        let cursor = FixpointCursor {
            current: (cf.max_width() as u64, cf.node_count() as u64),
            removed_inputs: 0,
        };
        let mut ck = Checkpointer::with_vfs(shared, &dir).expect("open checkpointer");
        ck.save(
            &cf,
            Progress::IterationStart { iteration: 1 },
            &cursor,
            &DegradationReport::new(),
        )
        .expect("save checkpoint");
    };

    // Honest disk: the save is durable the moment it returns.
    let honest = FaultVfs::new();
    save_once(&honest);
    let crashed = honest.crash_state(honest.events_len(), 0xfee1);
    let found = latest_checkpoint_vfs(&crashed, &dir).expect("scan crashed dir");
    assert!(
        found.is_some(),
        "a returned save must survive power loss on an honest disk"
    );
    let (_, loaded) = latest_valid_checkpoint_vfs(&crashed, &dir)
        .expect("rescan crashed dir")
        .expect("the surviving checkpoint must load");
    assert_eq!(loaded.progress, Progress::IterationStart { iteration: 1 });

    // Lying disk: identical save sequence, but directory fsyncs are
    // no-ops — the rename never becomes durable and the checkpoint is
    // gone. Deleting the sync_dir call from `write_atomic` would make
    // every disk behave like this one.
    let lying = FaultVfs::with_plan(FaultPlan {
        ignore_sync_dir: true,
        ..FaultPlan::default()
    });
    save_once(&lying);
    let crashed = lying.crash_state(lying.events_len(), 0xfee1);
    let found = latest_checkpoint_vfs(&crashed, &dir).expect("scan crashed dir");
    assert!(
        found.is_none(),
        "without the directory fsync the returned save must be lost — \
         the harness assertion this pins would then fire"
    );
}

/// A corrupt newest checkpoint is quarantined (renamed `.corrupt`) and
/// the scan falls back to the previous sequence number.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_the_previous_sequence() {
    let dir = PathBuf::from("/ckpt");
    let vfs = FaultVfs::new();
    let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let cf = paper_cf();
    let cursor = FixpointCursor {
        current: (cf.max_width() as u64, cf.node_count() as u64),
        removed_inputs: 0,
    };
    let mut ck = Checkpointer::with_vfs(Arc::clone(&shared), &dir).expect("open checkpointer");
    let report = DegradationReport::new();
    let older = ck
        .save(
            &cf,
            Progress::IterationStart { iteration: 1 },
            &cursor,
            &report,
        )
        .expect("save seq 0");
    let newer = ck
        .save(
            &cf,
            Progress::Alg33Cut {
                iteration: 1,
                cut: 2,
            },
            &cursor,
            &report,
        )
        .expect("save seq 1");

    shared
        .write(&newer, b"BDDCFCKP but the rest is rubble")
        .expect("corrupt the newest checkpoint in place");

    let (path, loaded) = latest_valid_checkpoint_vfs(shared.as_ref(), &dir)
        .expect("scan")
        .expect("the older checkpoint must be found");
    assert_eq!(path, older, "recovery must fall back to the previous seq");
    assert_eq!(loaded.progress, Progress::IterationStart { iteration: 1 });
    assert!(
        shared.exists(&quarantine_name(&newer)),
        "the wreck must be parked under a .corrupt name"
    );
    assert!(
        !shared.exists(&newer),
        "the wreck must no longer shadow the sequence"
    );
}

proptest! {
    /// Interleaving a seeded write fault (ENOSPC / EIO / short write on
    /// the Nth storage write) with a checkpointed reduction, then cutting
    /// power at an arbitrary journal prefix, never leaves the directory
    /// in a state recovery cannot handle: every surviving `ckpt-*` file
    /// either loads or is quarantined by the scan, and whatever the scan
    /// settles on resumes to the reference result.
    #[test]
    fn faulted_saves_never_strand_recovery(
        nth in 0u64..48,
        fault_pick in 0usize..3,
        crash_salt in 0u64..1024,
    ) {
        let fault = [WriteFault::Enospc, WriteFault::Eio, WriteFault::ShortWrite][fault_pick];
        let dir = PathBuf::from("/ckpt");
        let vfs = FaultVfs::with_plan(FaultPlan {
            seed: splitmix64(nth ^ (crash_salt << 8)),
            fail_write: Some(nth),
            fault,
            ..FaultPlan::default()
        });
        let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());

        let mut cf = paper_cf();
        let mut report = DegradationReport::new();
        // The core driver surfaces storage errors (absorbing them is the
        // serve layer's job) — either outcome is fine, panics are not.
        if let Ok(mut ck) = Checkpointer::with_vfs(Arc::clone(&shared), &dir) {
            let _ = cf.reduce_to_fixpoint_checkpointed(
                4,
                &mut report,
                &mut ck,
                false,
            );
        }

        // Live directory: a fault may strand a torn `.tmp-*` file, but
        // every published `ckpt-*` checkpoint must load.
        for path in shared.list(&dir).unwrap_or_default() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("ckpt-") && name.ends_with(".bddcfck") {
                prop_assert!(
                    load_checkpoint_vfs(shared.as_ref(), &path).is_ok(),
                    "published checkpoint {name} must load on the live disk"
                );
            }
        }

        // Power loss at an arbitrary prefix: the scan must settle without
        // a panic, and a found checkpoint must resume to the reference.
        let k = (crash_salt as usize) % (vfs.events_len() + 1);
        let crashed = vfs.crash_state(k, splitmix64(crash_salt));
        if let Some((_, loaded)) =
            latest_valid_checkpoint_vfs(&crashed, &dir).expect("crashed scan settles")
        {
            let resume_shared: Arc<dyn Vfs> = Arc::new(crashed.clone());
            let mut ck = Checkpointer::with_vfs(resume_shared, &dir)
                .expect("reopen checkpointer on the crashed disk");
            let (cf, _, stats) = loaded
                .resume(4, &mut ck, false)
                .expect("resume from the surviving checkpoint");
            prop_assert!(stats.is_some(), "an uncancelled resume must finish");
            prop_assert_eq!((cf.max_width(), cf.node_count()), reference_shape());
        }
    }
}
