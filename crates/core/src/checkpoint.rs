//! Crash-safe checkpointing of the reduction pipeline.
//!
//! A *checkpoint* is a versioned, checksummed, endian-stable file capturing
//! everything the fixpoint driver needs to continue a reduction after the
//! process dies: an embedded [`BddManager` snapshot](bddcf_bdd::snapshot),
//! the `Cf` state (layout, root, ISF roots), the pipeline cursor (iteration
//! and next Algorithm 3.3 cut), and the accumulated [`DegradationReport`].
//! Checkpoints are written **atomically** — the bytes go to a temporary
//! file which is fsynced and then renamed into place — so a crash during a
//! write can never leave a half-written checkpoint as the latest one.
//!
//! The checkpointed driver ([`Cf::reduce_to_fixpoint_checkpointed`]) and
//! [`LoadedCheckpoint::resume`] run the one fixpoint loop of
//! [`crate::driver`] — the loop behind [`Cf::reduce_to_fixpoint_governed`]
//! — with a save hook at every resumable boundary:
//!
//! * at the start of each fixpoint iteration (before support reduction),
//! * at every Algorithm 3.3 cut boundary (via
//!   [`Cf::reduce_alg33_governed_from`]),
//! * and once more when the reduction finishes.
//!
//! The hook first garbage-collects χ, which makes the in-memory state
//! *bit-identical* to its own serialized round trip: the resumed run and an
//! uninterrupted run then execute the same deterministic operations on the
//! same arenas, so their final cascades agree byte for byte. `bddcf
//! chaos` asserts exactly that at every storage-event crash prefix of its
//! reductions, over a fault-injecting VFS.
//!
//! # Wire format (version 1)
//!
//! All integers little-endian; see DESIGN.md for the normative layout.
//!
//! ```text
//! magic "BDDCFCKP" · version u32 · iteration u32 · next_cut u32
//! current_width u64 · current_nodes u64 · removed_inputs u64
//! num_inputs u32 · num_outputs u32 · root u32 · isf_roots (3·m) u32
//! report { dropped u64 · terminal_tag u32 · terminal_arg u64
//!          count u32 · events (phase u32 · action u32 · has_locus u32
//!          · locus u32 · cause_tag u32 · cause_arg u64) }
//! manager_len u64 · manager snapshot bytes (self-checksummed)
//! max_width u64 · node_count u64       (validation section)
//! fnv1a-64 checksum u64                (over every preceding byte)
//! ```
//!
//! The trailing validation section stores the width profile summary of the
//! checkpointed χ; the loader recomputes both values from the restored
//! state and refuses the checkpoint on mismatch.

use crate::alg33::Alg33Options;
use crate::cf::{Cf, IsfBdds};
use crate::degrade::{DegradationEvent, DegradationReport, DegradeAction, Phase};
use crate::driver::FixpointStats;
use crate::layout::CfLayout;
use bddcf_bdd::snapshot::{fnv1a64, put_u32, put_u64, ByteReader, SnapshotError};
use bddcf_bdd::vfs::{self, StdVfs, Vfs};
use bddcf_bdd::{BddManager, Error as BudgetError, NodeId};
use std::fmt;
#[cfg(test)]
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every pipeline checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BDDCFCKP";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File extension used for checkpoint files.
pub const CHECKPOINT_EXT: &str = "bddcfck";

/// `next_cut` sentinel meaning the reduction is complete.
pub(crate) const CUT_DONE: u32 = u32::MAX;

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(io::Error),
    /// The checkpoint container (or its embedded manager snapshot) failed
    /// to decode; carries the byte offset.
    Wire(SnapshotError),
    /// The bytes decoded but describe an inconsistent pipeline state (bad
    /// ids, wrong layout, validation-section mismatch, …).
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Wire(e) => write!(f, "checkpoint decode error: {e}"),
            CheckpointError::Invalid(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Wire(e)
    }
}

/// Where in the fixpoint loop a checkpoint was taken — always a boundary
/// the driver can resume from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// Top of fixpoint iteration `iteration` (1-based), before support
    /// reduction.
    IterationStart {
        /// The iteration about to run.
        iteration: u32,
    },
    /// About to attempt Algorithm 3.3 cut `cut` within `iteration`; all
    /// earlier cuts of this iteration are installed.
    Alg33Cut {
        /// The running iteration.
        iteration: u32,
        /// The next cut to attempt (`1 ≤ cut < num_vars`).
        cut: u32,
    },
    /// The reduction reached its fixpoint (or iteration cap / terminal
    /// budget cause); only cascade synthesis remains.
    ReductionDone {
        /// Iterations executed.
        iteration: u32,
    },
}

impl Progress {
    /// The `(iteration, next_cut)` pair the fixpoint loop runs on and the
    /// wire format stores (`next_cut` 0 = iteration start, [`CUT_DONE`] =
    /// reduction done).
    pub(crate) fn encode(self) -> (u32, u32) {
        match self {
            Progress::IterationStart { iteration } => (iteration, 0),
            Progress::Alg33Cut { iteration, cut } => (iteration, cut),
            Progress::ReductionDone { iteration } => (iteration, CUT_DONE),
        }
    }

    fn decode(iteration: u32, next_cut: u32) -> Self {
        match next_cut {
            0 => Progress::IterationStart { iteration },
            CUT_DONE => Progress::ReductionDone { iteration },
            cut => Progress::Alg33Cut { iteration, cut },
        }
    }
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Progress::IterationStart { iteration } => {
                write!(f, "iteration {iteration} start")
            }
            Progress::Alg33Cut { iteration, cut } => {
                write!(f, "iteration {iteration}, alg33 cut {cut}")
            }
            Progress::ReductionDone { iteration } => {
                write!(f, "reduction done after {iteration} iteration(s)")
            }
        }
    }
}

/// The fixpoint driver's loop-carried state, saved alongside the manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixpointCursor {
    /// `(max_width, node_count)` at the end of the previous iteration —
    /// the value the convergence test compares against.
    pub current: (u64, u64),
    /// Input variables removed so far, summed over iterations.
    pub removed_inputs: u64,
}

/// Writes checkpoints into a directory with monotonically increasing
/// sequence numbers, atomically (tmp + fsync + rename).
///
/// Opening a directory that already holds checkpoints continues the
/// sequence after the highest existing number, so a resumed run never
/// overwrites the files it is resuming from.
pub struct Checkpointer {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    seq: u64,
    last: Option<PathBuf>,
}

impl Checkpointer {
    /// Creates (if needed) and opens `dir` for checkpoint writing on the
    /// real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Checkpointer::with_vfs(Arc::new(StdVfs), dir)
    }

    /// Creates (if needed) and opens `dir` for checkpoint writing through
    /// an explicit [`Vfs`] — the hook fault-injection harnesses use.
    pub fn with_vfs(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let seq = match latest_checkpoint_seq(vfs.as_ref(), &dir)? {
            Some((seq, _)) => seq + 1,
            None => 0,
        };
        Ok(Checkpointer {
            vfs,
            dir,
            seq,
            last: None,
        })
    }

    /// The directory checkpoints go to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the most recent checkpoint written by *this* checkpointer.
    pub fn last_path(&self) -> Option<&Path> {
        self.last.as_deref()
    }

    /// Atomically writes one checkpoint and returns its path: temporary
    /// file → fsync → rename → **parent-directory fsync**, so neither the
    /// data nor the rename itself can be lost at power loss once `save`
    /// returns.
    pub fn save(
        &mut self,
        cf: &Cf,
        progress: Progress,
        cursor: &FixpointCursor,
        report: &DegradationReport,
    ) -> io::Result<PathBuf> {
        let bytes = encode_checkpoint(cf, progress, cursor, report);
        let name = format!("ckpt-{:06}.{CHECKPOINT_EXT}", self.seq);
        let path = self.dir.join(&name);
        vfs::write_atomic(self.vfs.as_ref(), &self.dir, &name, &bytes)?;
        self.seq += 1;
        self.last = Some(path.clone());
        Ok(path)
    }

    /// The fixpoint loop's boundary hook: collect χ, then save it. After a
    /// collect the arena equals its serialized round trip, which is what
    /// makes resumed runs byte-identical to uninterrupted ones.
    fn save_hook(
        &mut self,
    ) -> impl FnMut(&mut Cf, Progress, &FixpointCursor, &DegradationReport) -> io::Result<()> + '_
    {
        move |cf, progress, cursor, report| {
            cf.collect();
            self.save(cf, progress, cursor, report).map(drop)
        }
    }
}

/// Sequence number of a `ckpt-NNNNNN` checkpoint path; `None` for any
/// other name, a quarantined `.corrupt` file included.
pub fn checkpoint_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix("ckpt-")?
        .strip_suffix(&format!(".{CHECKPOINT_EXT}"))?;
    stem.parse().ok()
}

fn latest_checkpoint_seq(vfs: &dyn Vfs, dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for path in vfs.list(dir)? {
        if let Some(seq) = checkpoint_seq(&path) {
            if best.as_ref().is_none_or(|(b, _)| seq > *b) {
                best = Some((seq, path));
            }
        }
    }
    Ok(best)
}

/// All checkpoints in `dir`, sorted by descending sequence number.
fn checkpoints_desc(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    match vfs.list(dir) {
        Ok(paths) => {
            for path in paths {
                if let Some(seq) = checkpoint_seq(&path) {
                    found.push((seq, path));
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    found.sort_by_key(|e| std::cmp::Reverse(e.0));
    Ok(found)
}

/// The highest-numbered checkpoint in `dir`, if any. Returns `Ok(None)`
/// for a missing or empty directory (a crash before the first save).
pub fn latest_checkpoint(dir: &Path) -> io::Result<Option<PathBuf>> {
    latest_checkpoint_vfs(&StdVfs, dir)
}

/// [`latest_checkpoint`] through an explicit [`Vfs`].
pub fn latest_checkpoint_vfs(vfs: &dyn Vfs, dir: &Path) -> io::Result<Option<PathBuf>> {
    match latest_checkpoint_seq(vfs, dir) {
        Ok(best) => Ok(best.map(|(_, path)| path)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The newest checkpoint in `dir` that actually loads.
///
/// Scans sequence numbers from highest to lowest; a checkpoint that is
/// truncated, checksum-corrupt, or semantically invalid is **quarantined**
/// — renamed to `<name>.corrupt` so rescans skip it — with a report on
/// stderr, and the scan falls back to the previous sequence number. This
/// is what makes one torn latest checkpoint degrade recovery instead of
/// bricking it. Returns `Ok(None)` when no loadable checkpoint exists.
pub fn latest_valid_checkpoint(dir: &Path) -> io::Result<Option<(PathBuf, LoadedCheckpoint)>> {
    latest_valid_checkpoint_vfs(&StdVfs, dir)
}

/// [`latest_valid_checkpoint`] through an explicit [`Vfs`].
pub fn latest_valid_checkpoint_vfs(
    vfs: &dyn Vfs,
    dir: &Path,
) -> io::Result<Option<(PathBuf, LoadedCheckpoint)>> {
    for (_, path) in checkpoints_desc(vfs, dir)? {
        match load_checkpoint_vfs(vfs, &path) {
            Ok(loaded) => return Ok(Some((path, loaded))),
            Err(err) => {
                let quarantined = quarantine_name(&path);
                let moved = vfs.rename(&path, &quarantined).is_ok();
                eprintln!(
                    "bddcf: quarantining corrupt checkpoint {}: {err}{}",
                    path.display(),
                    if moved {
                        format!(" (moved to {})", quarantined.display())
                    } else {
                        String::from(" (rename failed; left in place)")
                    }
                );
            }
        }
    }
    Ok(None)
}

/// `<path>.corrupt` — the quarantine name for a checkpoint or spool file
/// that failed to decode.
pub fn quarantine_name(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------

fn encode_cause(cause: BudgetError) -> (u32, u64) {
    match cause {
        BudgetError::NodeLimit { limit } => (0, limit as u64),
        BudgetError::StepLimit { limit } => (1, limit),
        BudgetError::TimeBudget => (2, 0),
        BudgetError::Cancelled => (3, 0),
        BudgetError::Poisoned => (4, 0),
    }
}

fn decode_cause(tag: u32, arg: u64, offset: usize) -> Result<BudgetError, CheckpointError> {
    Ok(match tag {
        0 => BudgetError::NodeLimit {
            limit: arg as usize,
        },
        1 => BudgetError::StepLimit { limit: arg },
        2 => BudgetError::TimeBudget,
        3 => BudgetError::Cancelled,
        4 => BudgetError::Poisoned,
        _ => {
            return Err(CheckpointError::Wire(SnapshotError::Malformed {
                offset,
                message: format!("unknown budget-cause tag {tag}"),
            }))
        }
    })
}

fn encode_phase(phase: Phase) -> u32 {
    match phase {
        Phase::Construction => 0,
        Phase::SupportReduction => 1,
        Phase::Alg31 => 2,
        Phase::Alg33 => 3,
        Phase::CascadeSynthesis => 4,
    }
}

fn decode_phase(tag: u32, offset: usize) -> Result<Phase, CheckpointError> {
    Ok(match tag {
        0 => Phase::Construction,
        1 => Phase::SupportReduction,
        2 => Phase::Alg31,
        3 => Phase::Alg33,
        4 => Phase::CascadeSynthesis,
        _ => {
            return Err(CheckpointError::Wire(SnapshotError::Malformed {
                offset,
                message: format!("unknown phase tag {tag}"),
            }))
        }
    })
}

fn encode_action(action: DegradeAction) -> u32 {
    match action {
        DegradeAction::GcRetry => 0,
        DegradeAction::FellBackToPairMerge => 1,
        DegradeAction::SkippedLevel => 2,
        DegradeAction::SkippedVariable => 3,
        DegradeAction::SkippedPhase => 4,
        DegradeAction::StoppedIterating => 5,
        DegradeAction::CompletedUnbudgeted => 6,
    }
}

fn decode_action(tag: u32, offset: usize) -> Result<DegradeAction, CheckpointError> {
    Ok(match tag {
        0 => DegradeAction::GcRetry,
        1 => DegradeAction::FellBackToPairMerge,
        2 => DegradeAction::SkippedLevel,
        3 => DegradeAction::SkippedVariable,
        4 => DegradeAction::SkippedPhase,
        5 => DegradeAction::StoppedIterating,
        6 => DegradeAction::CompletedUnbudgeted,
        _ => {
            return Err(CheckpointError::Wire(SnapshotError::Malformed {
                offset,
                message: format!("unknown degrade-action tag {tag}"),
            }))
        }
    })
}

/// Serializes one checkpoint into the wire format (see module docs).
pub fn encode_checkpoint(
    cf: &Cf,
    progress: Progress,
    cursor: &FixpointCursor,
    report: &DegradationReport,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u32(&mut buf, CHECKPOINT_VERSION);
    let (iteration, next_cut) = progress.encode();
    put_u32(&mut buf, iteration);
    put_u32(&mut buf, next_cut);
    put_u64(&mut buf, cursor.current.0);
    put_u64(&mut buf, cursor.current.1);
    put_u64(&mut buf, cursor.removed_inputs);
    put_u32(&mut buf, cf.layout().num_inputs() as u32);
    put_u32(&mut buf, cf.layout().num_outputs() as u32);
    put_u32(&mut buf, cf.root().raw());
    for id in cf.isf().roots() {
        put_u32(&mut buf, id.raw());
    }
    put_u64(&mut buf, report.dropped());
    match report.terminal_cause() {
        None => {
            put_u32(&mut buf, 0);
            put_u64(&mut buf, 0);
        }
        Some(cause) => {
            let (tag, arg) = encode_cause(cause);
            put_u32(&mut buf, tag + 1);
            put_u64(&mut buf, arg);
        }
    }
    put_u32(&mut buf, report.events().len() as u32);
    for e in report.events() {
        put_u32(&mut buf, encode_phase(e.phase));
        put_u32(&mut buf, encode_action(e.action));
        put_u32(&mut buf, u32::from(e.locus.is_some()));
        put_u32(&mut buf, e.locus.unwrap_or(0));
        let (tag, arg) = encode_cause(e.cause);
        put_u32(&mut buf, tag);
        put_u64(&mut buf, arg);
    }
    let snapshot = cf.manager().snapshot_bytes();
    put_u64(&mut buf, snapshot.len() as u64);
    buf.extend_from_slice(&snapshot);
    put_u64(&mut buf, cf.max_width() as u64);
    put_u64(&mut buf, cf.node_count() as u64);
    let checksum = fnv1a64(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// A checkpoint restored from disk, ready to [`resume`]
/// (LoadedCheckpoint::resume).
pub struct LoadedCheckpoint {
    /// The restored pipeline state (manager budget is unlimited; install
    /// one before resuming if governance is wanted).
    pub cf: Cf,
    /// The boundary the checkpoint was taken at.
    pub progress: Progress,
    /// The loop-carried fixpoint state.
    pub cursor: FixpointCursor,
    /// The degradations accumulated up to the checkpoint.
    pub report: DegradationReport,
}

/// Decodes a checkpoint from bytes, validating the checksum, every node id,
/// and the stored width/node-count summary against the restored state.
// xlint: allow(XL104): every slice offset is validated by an explicit `Truncated` length check before the split
pub fn decode_checkpoint(bytes: &[u8]) -> Result<LoadedCheckpoint, CheckpointError> {
    let mut header = ByteReader::new(bytes);
    let magic = header.take(CHECKPOINT_MAGIC.len())?;
    if magic != CHECKPOINT_MAGIC {
        return Err(SnapshotError::BadMagic.into());
    }
    let version = header.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        }
        .into());
    }
    if bytes.len() < header.pos() + 8 {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
            needed: header.pos() + 8 - bytes.len(),
        }
        .into());
    }
    let payload_len = bytes.len() - 8;
    let expected = fnv1a64(&bytes[..payload_len]);
    let mut tail = ByteReader::with_base(&bytes[payload_len..], payload_len);
    let found = tail.u64()?;
    if expected != found {
        return Err(SnapshotError::ChecksumMismatch { expected, found }.into());
    }

    let mut r = ByteReader::with_base(&bytes[header.pos()..payload_len], header.pos());
    let iteration = r.u32()?;
    let next_cut = r.u32()?;
    let cursor = FixpointCursor {
        current: (r.u64()?, r.u64()?),
        removed_inputs: r.u64()?,
    };
    let num_inputs = r.u32()? as usize;
    let num_outputs = r.u32()? as usize;
    let root = NodeId::from_raw(r.u32()?);
    let mut isf_roots = Vec::with_capacity(3 * num_outputs);
    for _ in 0..3 * num_outputs {
        isf_roots.push(NodeId::from_raw(r.u32()?));
    }
    let dropped = r.u64()?;
    let terminal_tag = r.u32()?;
    let terminal_arg = r.u64()?;
    let first_terminal = if terminal_tag == 0 {
        None
    } else {
        Some(decode_cause(terminal_tag - 1, terminal_arg, r.pos())?)
    };
    let event_count = r.u32()? as usize;
    let mut events = Vec::with_capacity(event_count);
    for _ in 0..event_count {
        let offset = r.pos();
        let phase = decode_phase(r.u32()?, offset)?;
        let action = decode_action(r.u32()?, offset)?;
        let has_locus = r.u32()? != 0;
        let locus = r.u32()?;
        let cause = decode_cause(r.u32()?, r.u64()?, offset)?;
        events.push(DegradationEvent {
            phase,
            locus: has_locus.then_some(locus),
            action,
            cause,
        });
    }
    let report = DegradationReport::from_checkpoint_parts(events, dropped, first_terminal);
    let snapshot_len = r.u64()? as usize;
    let snapshot = r.take(snapshot_len)?;
    let mgr = BddManager::from_snapshot_bytes(snapshot)?;
    let stored_width = r.u64()?;
    let stored_nodes = r.u64()?;
    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed {
            offset: r.pos(),
            message: format!("{} trailing byte(s)", r.remaining()),
        }
        .into());
    }

    let layout = CfLayout::new(num_inputs, num_outputs);
    let cf = Cf::from_checkpoint_parts(
        mgr,
        layout,
        root,
        IsfBdds::from_roots(&isf_roots, num_outputs),
    )
    .map_err(CheckpointError::Invalid)?;
    if (cf.max_width() as u64, cf.node_count() as u64) != (stored_width, stored_nodes) {
        return Err(CheckpointError::Invalid(format!(
            "validation mismatch: checkpoint recorded width {stored_width} / {stored_nodes} \
             nodes, restored state has width {} / {} nodes",
            cf.max_width(),
            cf.node_count()
        )));
    }
    Ok(LoadedCheckpoint {
        cf,
        progress: Progress::decode(iteration, next_cut),
        cursor,
        report,
    })
}

/// Reads and decodes a checkpoint file.
pub fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, CheckpointError> {
    load_checkpoint_vfs(&StdVfs, path)
}

/// [`load_checkpoint`] through an explicit [`Vfs`].
pub fn load_checkpoint_vfs(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<LoadedCheckpoint, CheckpointError> {
    let bytes = vfs.read(path)?;
    decode_checkpoint(&bytes)
}

// ---------------------------------------------------------------------
// The checkpointed fixpoint driver
// ---------------------------------------------------------------------

impl Cf {
    /// The governed fixpoint reduction of
    /// [`reduce_to_fixpoint_governed`](Cf::reduce_to_fixpoint_governed),
    /// checkpointing into `ckpt` at every resumable boundary (iteration
    /// starts, Algorithm 3.3 cut boundaries, completion).
    ///
    /// With `abort_on_cancel` set, a terminal
    /// [`Cancelled`](bddcf_bdd::Error::Cancelled) cause makes the driver
    /// return `Ok(None)` *immediately*, without writing further
    /// checkpoints — this simulates the process dying at that point, and
    /// is how the serve daemon parks a job for a later resume.
    /// Without it, every terminal cause degrades gracefully exactly like
    /// the plain governed driver and `Ok(Some(stats))` is returned.
    pub fn reduce_to_fixpoint_checkpointed(
        &mut self,
        options: &Alg33Options,
        max_iterations: usize,
        report: &mut DegradationReport,
        ckpt: &mut Checkpointer,
        abort_on_cancel: bool,
    ) -> Result<Option<FixpointStats>, CheckpointError> {
        Ok(self.reduce_to_fixpoint_governed_from(
            options,
            max_iterations,
            report,
            None,
            abort_on_cancel,
            ckpt.save_hook(),
        )?)
    }
}

impl LoadedCheckpoint {
    /// Continues the reduction from the recorded boundary, checkpointing
    /// into `ckpt` (typically the same directory — the sequence continues
    /// after the loaded file). Returns the finished state, the full report,
    /// and the stats (`None` only when `abort_on_cancel` tripped again).
    #[allow(clippy::type_complexity)]
    pub fn resume(
        mut self,
        options: &Alg33Options,
        max_iterations: usize,
        ckpt: &mut Checkpointer,
        abort_on_cancel: bool,
    ) -> Result<(Cf, DegradationReport, Option<FixpointStats>), CheckpointError> {
        let stats = self.cf.reduce_to_fixpoint_governed_from(
            options,
            max_iterations,
            &mut self.report,
            Some((self.progress, self.cursor)),
            abort_on_cancel,
            ckpt.save_hook(),
        )?;
        Ok((self.cf, self.report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::TruthTable;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bddcf-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_round_trips_and_validates() {
        let table = TruthTable::paper_table1();
        let cf = Cf::from_truth_table(&table);
        let cursor = FixpointCursor {
            current: (cf.max_width() as u64, cf.node_count() as u64),
            removed_inputs: 0,
        };
        let mut report = DegradationReport::new();
        report.record(
            Phase::Alg33,
            Some(2),
            DegradeAction::SkippedLevel,
            BudgetError::NodeLimit { limit: 9 },
        );
        let bytes = encode_checkpoint(
            &cf,
            Progress::Alg33Cut {
                iteration: 1,
                cut: 3,
            },
            &cursor,
            &report,
        );
        let loaded = decode_checkpoint(&bytes).expect("round trip");
        assert_eq!(
            loaded.progress,
            Progress::Alg33Cut {
                iteration: 1,
                cut: 3
            }
        );
        assert_eq!(loaded.cursor, cursor);
        assert_eq!(loaded.report.events(), report.events());
        assert_eq!(loaded.cf.max_width(), cf.max_width());
        assert_eq!(loaded.cf.node_count(), cf.node_count());
        // The restored state re-serializes to the same bytes.
        assert_eq!(
            encode_checkpoint(&loaded.cf, loaded.progress, &loaded.cursor, &loaded.report),
            bytes
        );
    }

    #[test]
    fn corrupted_checkpoints_error_with_offsets() {
        let table = TruthTable::paper_table1();
        let cf = Cf::from_truth_table(&table);
        let cursor = FixpointCursor {
            current: (0, 0),
            removed_inputs: 0,
        };
        let bytes = encode_checkpoint(
            &cf,
            Progress::IterationStart { iteration: 1 },
            &cursor,
            &DegradationReport::new(),
        );
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CheckpointError::Wire(SnapshotError::BadMagic))
        ));
        // Version skew.
        let mut bad = bytes.clone();
        bad[8] = 7;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CheckpointError::Wire(SnapshotError::UnsupportedVersion {
                found: 7,
                ..
            }))
        ));
        // Flipped payload byte.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 1;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CheckpointError::Wire(
                SnapshotError::ChecksumMismatch { .. }
            ))
        ));
        // Truncated to almost nothing.
        assert!(matches!(
            decode_checkpoint(&bytes[..6]),
            Err(CheckpointError::Wire(SnapshotError::Truncated { .. }))
        ));
    }

    #[test]
    fn checkpoint_seq_parses_checkpoint_names_only() {
        assert_eq!(checkpoint_seq(Path::new("/d/ckpt-000007.bddcfck")), Some(7));
        assert_eq!(
            checkpoint_seq(Path::new("/d/ckpt-000007.bddcfck.corrupt")),
            None
        );
        assert_eq!(checkpoint_seq(Path::new("/d/other.bin")), None);
    }

    #[test]
    fn checkpointer_writes_atomically_and_continues_sequences() {
        let dir = tmpdir("seq");
        let table = TruthTable::paper_table1();
        let cf = Cf::from_truth_table(&table);
        let cursor = FixpointCursor {
            current: (0, 0),
            removed_inputs: 0,
        };
        let report = DegradationReport::new();
        let mut ck = Checkpointer::new(&dir).expect("create");
        let p0 = ck
            .save(
                &cf,
                Progress::IterationStart { iteration: 1 },
                &cursor,
                &report,
            )
            .expect("save");
        let p1 = ck
            .save(
                &cf,
                Progress::ReductionDone { iteration: 1 },
                &cursor,
                &report,
            )
            .expect("save");
        assert_ne!(p0, p1);
        assert_eq!(latest_checkpoint(&dir).expect("scan"), Some(p1.clone()));
        // No temporary files survive a save.
        for entry in fs::read_dir(&dir).expect("readdir") {
            let name = entry.expect("entry").file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "stale tmp file {name:?}"
            );
        }
        // A new checkpointer on the same directory continues numbering.
        let mut ck2 = Checkpointer::new(&dir).expect("reopen");
        let p2 = ck2
            .save(
                &cf,
                Progress::ReductionDone { iteration: 1 },
                &cursor,
                &report,
            )
            .expect("save");
        assert_eq!(latest_checkpoint(&dir).expect("scan"), Some(p2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_matches_plain_governed_run() {
        let dir = tmpdir("parity");
        let table = TruthTable::paper_table1();
        let options = Alg33Options::default();

        let mut plain = Cf::from_truth_table(&table);
        let mut plain_report = DegradationReport::new();
        let plain_stats = plain.reduce_to_fixpoint_governed(&options, 5, &mut plain_report);

        let mut ck = Checkpointer::new(&dir).expect("create");
        let mut cf = Cf::from_truth_table(&table);
        let mut report = DegradationReport::new();
        let stats = cf
            .reduce_to_fixpoint_checkpointed(&options, 5, &mut report, &mut ck, false)
            .expect("no I/O errors")
            .expect("not aborted");
        // Same loop, so the same widths, node counts and iteration count.
        assert_eq!(stats, plain_stats);
        assert_eq!(cf.node_count(), plain.node_count());
        assert!(report.is_clean());
        assert!(plain_report.is_clean());
        assert!(ck.last_path().is_some());

        // The final checkpoint restores to the finished state.
        let latest = latest_checkpoint(&dir).expect("scan").expect("some");
        let mut loaded = load_checkpoint(&latest).expect("load");
        assert!(matches!(loaded.progress, Progress::ReductionDone { .. }));
        assert_eq!(loaded.cf.max_width(), cf.max_width());
        assert_eq!(loaded.cf.node_count(), cf.node_count());
        let g = loaded.cf.complete();
        assert!(loaded.cf.realizes_original(&g));

        // Resumed from any of its checkpoints, the run writes exactly the
        // rest of the sequence, byte for byte: the loop re-enters at the
        // recorded boundary (an Algorithm 3.3 cut too) on an identical arena.
        let files = |dir: &Path| -> Vec<Vec<u8>> {
            let found = checkpoints_desc(&StdVfs, dir).expect("scan");
            let read = |(_, path): (u64, PathBuf)| fs::read(path).expect("read");
            found.into_iter().rev().map(read).collect()
        };
        let full = files(&dir);
        let progress = |bytes: &[u8]| decode_checkpoint(bytes).expect("decode").progress;
        assert!(full
            .iter()
            .any(|b| matches!(progress(b), Progress::Alg33Cut { .. })));
        for (i, bytes) in full.iter().enumerate() {
            let resumed = dir.join(format!("resume-{i}"));
            let mut ck = Checkpointer::new(&resumed).expect("create");
            let loaded = decode_checkpoint(bytes).expect("decode");
            loaded.resume(&options, 5, &mut ck, false).expect("resume");
            assert!(files(&resumed) == full[i..], "resume from checkpoint {i}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
