//! The virtual filesystem behind every durable path in the workspace.
//!
//! Checkpoints, snapshots, and the serve spool all promise crash safety,
//! but those promises are only as good as the filesystem calls beneath
//! them — and `std::fs` cannot be made hostile on demand. This module
//! narrows all durable I/O to one [`Vfs`] trait with two implementations:
//!
//! * [`StdVfs`] — the real filesystem, including the directory fsync that
//!   POSIX requires for a rename to survive power loss. Every public API
//!   defaults to it, so callers that never heard of the trait keep
//!   working.
//! * [`FaultVfs`] — a deterministic in-memory filesystem that injects
//!   seeded faults (ENOSPC/EIO/short writes on the Nth write, matching
//!   the `bddcf chaos` splitmix64 seed discipline), records every
//!   mutating call in an event journal, and can replay any *crash prefix*
//!   of that journal into a new filesystem state.
//!
//! # The crash-prefix (fsync-lies) model
//!
//! [`FaultVfs::crash_state`] rematerializes the durable state an
//! adversarial disk could present after power loss at event `k`:
//!
//! * file data written but never `sync_file`d is **torn**: a seeded choice
//!   between the previous durable contents, a byte prefix of the new
//!   write, or (the kernel got lucky) the full write;
//! * a rename (or create, or remove) whose directory was never
//!   `sync_dir`d is **dropped**: the new name vanishes and any previously
//!   durable file resurfaces under its old name — the classic
//!   missing-directory-fsync failure;
//! * directories themselves are modeled as durable once created (the
//!   interesting torn states in this workspace are all file-level).
//!
//! With [`FaultPlan::ignore_sync_dir`] the replay treats `sync_dir` as a
//! lie — exactly what a caller that forgot the directory fsync would
//! experience — which is how `bddcf chaos` proves the fsync actually
//! matters.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::snapshot::fnv1a64;

/// The splitmix64 mixer, the workspace-wide seed discipline (shared with
/// `bddcf chaos`).
pub fn splitmix64(x: u64) -> u64 {
    let x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Filesystem operations needed by every durable path (checkpoints,
/// snapshots, the serve spool). Implementations must be shareable across
/// threads — the serve daemon calls them from connection threads, workers,
/// and the completion hook concurrently.
pub trait Vfs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path` and writes `bytes`. Durability is
    /// *not* implied — call [`sync_file`](Vfs::sync_file) and
    /// [`sync_dir`](Vfs::sync_dir) for that (or use [`write_atomic`]).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// fsyncs a file's contents.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// fsyncs a directory, making renames/creates/removes inside it
    /// durable. Without this, a rename can silently vanish at power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Renames a file (same filesystem; used for tmp → final and
    /// quarantine renames).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and all missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Lists the entries of a directory (full paths, sorted).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Does `path` exist (file or directory)?
    fn exists(&self, path: &Path) -> bool;
    /// Is `path` an existing directory?
    fn is_dir(&self, path: &Path) -> bool;
}

/// Atomically publishes `dir/name`: tmp file → write → fsync → rename →
/// **parent-directory fsync**. The final step is what makes the rename
/// itself durable; without it a power loss can roll the directory entry
/// back even though the data blocks were synced.
pub fn write_atomic(vfs: &dyn Vfs, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    vfs.create_dir_all(dir)?;
    let tmp = dir.join(format!(".tmp-{name}"));
    vfs.write(&tmp, bytes)?;
    vfs.sync_file(&tmp)?;
    vfs.rename(&tmp, &dir.join(name))?;
    vfs.sync_dir(dir)
}

// ---------------------------------------------------------------------
// StdVfs
// ---------------------------------------------------------------------

/// The real filesystem. The default implementation everywhere a `Vfs` is
/// accepted.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX way
        // to make its entries durable. Platforms that refuse to open
        // directories (e.g. Windows) get best-effort semantics: the open
        // error is swallowed because there is nothing better to do there,
        // and the workspace's durability tests all run on the in-memory
        // FaultVfs anyway.
        match fs::File::open(dir) {
            Ok(handle) => handle.sync_all(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(e),
            Err(_) => Ok(()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(dir)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }
}

// ---------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------

/// What a seeded write fault does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// `write` fails before any byte lands (out of space).
    Enospc,
    /// `write` fails after a seeded prefix of the buffer lands (media
    /// error mid-write).
    Eio,
    /// `write` lands a seeded strict prefix and reports failure — the
    /// short-write case a `write_all` loop surfaces as an error.
    ShortWrite,
}

/// Deterministic fault configuration for a [`FaultVfs`].
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for partial-write lengths and crash-torn choices.
    pub seed: u64,
    /// Inject [`fault`](FaultPlan::fault) on the Nth `write` call
    /// (0-based), once.
    pub fail_write: Option<u64>,
    /// The fault injected at [`fail_write`](FaultPlan::fail_write).
    pub fault: WriteFault,
    /// Every `write` fails with ENOSPC (a full disk; used to drive the
    /// serve daemon into storage-degraded mode deterministically).
    pub fail_all_writes: bool,
    /// `sync_dir` succeeds but confers no durability in
    /// [`crash_state`](FaultVfs::crash_state) — the fsync-lies adversary,
    /// equivalent to a caller that forgot the directory fsync.
    pub ignore_sync_dir: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            fail_write: None,
            fault: WriteFault::Enospc,
            fail_all_writes: false,
            ignore_sync_dir: false,
        }
    }
}

/// One recorded storage event. The journal index of an event is its
/// *crash point*: [`FaultVfs::crash_state`]`(k, …)` replays events
/// `0..k`.
#[derive(Clone, Debug)]
pub enum VfsEvent {
    /// Bytes that reached the page cache for `path` (a faulted write
    /// records only the prefix that landed).
    Write {
        /// Target file.
        path: PathBuf,
        /// The landed bytes.
        bytes: Vec<u8>,
    },
    /// `path`'s contents were fsynced.
    SyncFile {
        /// The synced file.
        path: PathBuf,
    },
    /// `dir`'s entries were fsynced.
    SyncDir {
        /// The synced directory.
        dir: PathBuf,
    },
    /// `from` was renamed to `to`.
    Rename {
        /// Old name.
        from: PathBuf,
        /// New name.
        to: PathBuf,
    },
    /// `path` was unlinked.
    RemoveFile {
        /// The removed file.
        path: PathBuf,
    },
    /// `dir` was created.
    CreateDir {
        /// The new directory.
        dir: PathBuf,
    },
}

impl VfsEvent {
    /// Short tag for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            VfsEvent::Write { .. } => "write",
            VfsEvent::SyncFile { .. } => "sync_file",
            VfsEvent::SyncDir { .. } => "sync_dir",
            VfsEvent::Rename { .. } => "rename",
            VfsEvent::RemoveFile { .. } => "remove",
            VfsEvent::CreateDir { .. } => "mkdir",
        }
    }

    /// Is this a `sync_dir` of `dir`? (How harnesses locate the return
    /// points of atomic publishes.)
    pub fn is_sync_dir_of(&self, dir: &Path) -> bool {
        matches!(self, VfsEvent::SyncDir { dir: d } if d == dir)
    }
}

struct FaultState {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
    journal: Vec<VfsEvent>,
    plan: FaultPlan,
    writes: u64,
    faults_injected: u64,
}

/// The deterministic in-memory fault-injection filesystem. Cloning shares
/// the underlying state (clones are views of the same disk).
#[derive(Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.lock();
        f.debug_struct("FaultVfs")
            .field("files", &state.files.len())
            .field("events", &state.journal.len())
            .field("faults_injected", &state.faults_injected)
            .finish()
    }
}

impl Default for FaultVfs {
    fn default() -> Self {
        FaultVfs::new()
    }
}

impl FaultVfs {
    /// An empty filesystem with no faults planned.
    pub fn new() -> Self {
        FaultVfs::with_plan(FaultPlan::default())
    }

    /// An empty filesystem with the given fault plan.
    pub fn with_plan(plan: FaultPlan) -> Self {
        let mut dirs = BTreeSet::new();
        dirs.insert(PathBuf::from("/"));
        FaultVfs {
            state: Arc::new(Mutex::new(FaultState {
                files: BTreeMap::new(),
                dirs,
                journal: Vec::new(),
                plan,
                writes: 0,
                faults_injected: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of journaled storage events so far (the crash-point space).
    pub fn events_len(&self) -> usize {
        self.lock().journal.len()
    }

    /// A copy of the event journal.
    pub fn journal(&self) -> Vec<VfsEvent> {
        self.lock().journal.clone()
    }

    /// How many faults the plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.lock().faults_injected
    }

    /// `write` calls observed (the fault plan's op counter).
    pub fn writes_observed(&self) -> u64 {
        self.lock().writes
    }

    /// The durable filesystem an adversarial disk could present after
    /// power loss at event `prefix` (replaying journal events `0..prefix`
    /// under the fsync-lies model; see the module docs). `crash_seed`
    /// picks among the legal torn states per file. The returned
    /// filesystem starts with a fresh journal and no write faults, but
    /// keeps [`FaultPlan::ignore_sync_dir`] so a lying stack stays lying
    /// across restarts.
    pub fn crash_state(&self, prefix: usize, crash_seed: u64) -> FaultVfs {
        struct Replay {
            data: Vec<u8>,
            last_durable: Option<Vec<u8>>,
            name_synced: bool,
        }
        let state = self.lock();
        let mut files: BTreeMap<PathBuf, Replay> = BTreeMap::new();
        // Durable contents whose unlink/rename-away was never dir-synced:
        // the adversary resurrects them under the old name.
        let mut ghosts: BTreeMap<PathBuf, Vec<u8>> = BTreeMap::new();
        let mut dirs = BTreeSet::new();
        dirs.insert(PathBuf::from("/"));
        for event in state.journal.iter().take(prefix) {
            match event {
                VfsEvent::Write { path, bytes } => {
                    if let Some(entry) = files.get_mut(path) {
                        entry.data = bytes.clone();
                    } else {
                        files.insert(
                            path.clone(),
                            Replay {
                                data: bytes.clone(),
                                last_durable: None,
                                name_synced: false,
                            },
                        );
                    }
                }
                VfsEvent::SyncFile { path } => {
                    if let Some(entry) = files.get_mut(path) {
                        entry.last_durable = Some(entry.data.clone());
                    }
                }
                VfsEvent::SyncDir { dir } => {
                    if state.plan.ignore_sync_dir {
                        continue; // the lie: the event happened, durability didn't
                    }
                    for (path, entry) in files.iter_mut() {
                        if path.parent() == Some(dir.as_path()) {
                            entry.name_synced = true;
                        }
                    }
                    ghosts.retain(|path, _| path.parent() != Some(dir.as_path()));
                }
                VfsEvent::Rename { from, to } => {
                    if let Some(mut entry) = files.remove(from) {
                        if entry.name_synced {
                            if let Some(durable) = &entry.last_durable {
                                ghosts.insert(from.clone(), durable.clone());
                            }
                        }
                        if let Some(old) = files.get(to) {
                            if old.name_synced {
                                if let Some(durable) = &old.last_durable {
                                    ghosts.insert(to.clone(), durable.clone());
                                }
                            }
                        }
                        entry.name_synced = false;
                        files.insert(to.clone(), entry);
                    }
                }
                VfsEvent::RemoveFile { path } => {
                    if let Some(entry) = files.remove(path) {
                        if entry.name_synced {
                            if let Some(durable) = &entry.last_durable {
                                ghosts.insert(path.clone(), durable.clone());
                            }
                        }
                    }
                }
                VfsEvent::CreateDir { dir } => {
                    let mut ancestors: Vec<PathBuf> =
                        dir.ancestors().map(Path::to_path_buf).collect();
                    ancestors.reverse();
                    dirs.extend(ancestors);
                }
            }
        }
        drop(state);

        let mut durable: BTreeMap<PathBuf, Vec<u8>> = BTreeMap::new();
        for (path, entry) in files {
            if !entry.name_synced {
                continue; // the name itself never became durable
            }
            let fully_synced = entry.last_durable.as_deref() == Some(entry.data.as_slice());
            let data = if fully_synced {
                entry.data
            } else {
                let r = splitmix64(crash_seed ^ fnv1a64(path.to_string_lossy().as_bytes()));
                match r % 3 {
                    0 => match entry.last_durable {
                        Some(durable_bytes) => durable_bytes, // un-synced write lost
                        None => continue,                     // never synced at all: gone
                    },
                    1 => {
                        // Torn: a seeded strict prefix of the new write.
                        let keep = (splitmix64(r) as usize) % (entry.data.len() + 1);
                        let mut torn = entry.data;
                        torn.truncate(keep);
                        torn
                    }
                    _ => entry.data, // the page cache made it out anyway
                }
            };
            durable.insert(path, data);
        }
        for (path, data) in ghosts {
            durable.entry(path).or_insert(data);
        }

        let plan = FaultPlan {
            seed: splitmix64(crash_seed),
            ignore_sync_dir: self.lock().plan.ignore_sync_dir,
            ..FaultPlan::default()
        };
        let crashed = FaultVfs::with_plan(plan);
        {
            let mut state = crashed.lock();
            state.dirs = dirs;
            state.files = durable;
        }
        crashed
    }

    /// Fault decision for the current `write`, advancing the op counter.
    fn write_fault(state: &mut FaultState) -> Option<WriteFault> {
        let op = state.writes;
        state.writes += 1;
        if state.plan.fail_all_writes {
            state.faults_injected += 1;
            return Some(WriteFault::Enospc);
        }
        if state.plan.fail_write == Some(op) {
            state.faults_injected += 1;
            return Some(state.plan.fault);
        }
        None
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file or directory", path.display()),
    )
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.lock();
        state
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        let parent_missing = path
            .parent()
            .is_some_and(|parent| !state.dirs.contains(parent));
        if parent_missing {
            return Err(not_found(path));
        }
        match FaultVfs::write_fault(&mut state) {
            None => {
                state.files.insert(path.to_path_buf(), bytes.to_vec());
                state.journal.push(VfsEvent::Write {
                    path: path.to_path_buf(),
                    bytes: bytes.to_vec(),
                });
                Ok(())
            }
            Some(WriteFault::Enospc) => Err(io::Error::other(format!(
                "{}: simulated ENOSPC (no space left on device)",
                path.display()
            ))),
            Some(fault) => {
                // A seeded prefix lands before the error surfaces.
                let seed = state.plan.seed;
                let op = state.writes;
                let keep = (splitmix64(seed ^ op) as usize) % (bytes.len() + 1);
                let landed = bytes.get(..keep).unwrap_or_default().to_vec();
                state.files.insert(path.to_path_buf(), landed.clone());
                state.journal.push(VfsEvent::Write {
                    path: path.to_path_buf(),
                    bytes: landed,
                });
                let what = match fault {
                    WriteFault::Eio => "EIO (I/O error)",
                    _ => "short write",
                };
                Err(io::Error::other(format!(
                    "{}: simulated {what} after {keep} of {} byte(s)",
                    path.display(),
                    bytes.len()
                )))
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if !state.files.contains_key(path) {
            return Err(not_found(path));
        }
        state.journal.push(VfsEvent::SyncFile {
            path: path.to_path_buf(),
        });
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if !state.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        state.journal.push(VfsEvent::SyncDir {
            dir: dir.to_path_buf(),
        });
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let Some(bytes) = state.files.remove(from) else {
            return Err(not_found(from));
        };
        state.files.insert(to.to_path_buf(), bytes);
        state.journal.push(VfsEvent::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if state.files.remove(path).is_none() {
            return Err(not_found(path));
        }
        state.journal.push(VfsEvent::RemoveFile {
            path: path.to_path_buf(),
        });
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let mut ancestors: Vec<PathBuf> = dir.ancestors().map(Path::to_path_buf).collect();
        ancestors.reverse();
        for ancestor in ancestors {
            if state.dirs.insert(ancestor.clone()) {
                state.journal.push(VfsEvent::CreateDir { dir: ancestor });
            }
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let state = self.lock();
        if !state.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let mut entries: Vec<PathBuf> = state
            .files
            .keys()
            .chain(state.dirs.iter())
            .filter(|path| path.parent() == Some(dir))
            .cloned()
            .collect();
        entries.sort();
        entries.dedup();
        Ok(entries)
    }

    fn exists(&self, path: &Path) -> bool {
        let state = self.lock();
        state.files.contains_key(path) || state.dirs.contains(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.lock().dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn std_vfs_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("bddcf-vfs-std-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let vfs = StdVfs;
        write_atomic(&vfs, &dir, "a.bin", b"hello").expect("atomic write");
        assert_eq!(vfs.read(&dir.join("a.bin")).expect("read"), b"hello");
        assert!(vfs.exists(&dir.join("a.bin")));
        assert!(vfs.is_dir(&dir));
        let listed = vfs.list(&dir).expect("list");
        assert_eq!(listed, vec![dir.join("a.bin")], "no tmp file survives");
        vfs.remove_file(&dir.join("a.bin")).expect("remove");
        assert!(!vfs.exists(&dir.join("a.bin")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_vfs_behaves_like_a_filesystem() {
        let vfs = FaultVfs::new();
        vfs.create_dir_all(&p("/a/b")).expect("mkdir");
        vfs.write(&p("/a/b/x"), b"one").expect("write");
        assert_eq!(vfs.read(&p("/a/b/x")).expect("read"), b"one");
        vfs.rename(&p("/a/b/x"), &p("/a/b/y")).expect("rename");
        assert!(!vfs.exists(&p("/a/b/x")));
        assert_eq!(vfs.read(&p("/a/b/y")).expect("read"), b"one");
        assert_eq!(vfs.list(&p("/a/b")).expect("list"), vec![p("/a/b/y")]);
        assert!(matches!(
            vfs.write(&p("/nope/x"), b""),
            Err(e) if e.kind() == io::ErrorKind::NotFound
        ));
        assert!(vfs.read(&p("/a/b/zzz")).is_err());
    }

    #[test]
    fn nth_write_faults_are_seeded_and_typed() {
        for fault in [WriteFault::Enospc, WriteFault::Eio, WriteFault::ShortWrite] {
            let vfs = FaultVfs::with_plan(FaultPlan {
                seed: 9,
                fail_write: Some(1),
                fault,
                ..FaultPlan::default()
            });
            vfs.create_dir_all(&p("/d")).expect("mkdir");
            vfs.write(&p("/d/first"), b"ok").expect("write 0 clean");
            let err = vfs
                .write(&p("/d/second"), b"payload")
                .expect_err("write 1 faults");
            assert_eq!(err.kind(), io::ErrorKind::Other);
            vfs.write(&p("/d/third"), b"ok")
                .expect("write 2 clean again");
            assert_eq!(vfs.faults_injected(), 1);
            match fault {
                WriteFault::Enospc => assert!(!vfs.exists(&p("/d/second"))),
                // EIO / short write: a (possibly empty) prefix landed.
                _ => {
                    let landed = vfs.read(&p("/d/second")).expect("prefix landed");
                    assert!(landed.len() <= b"payload".len());
                    assert_eq!(b"payload".get(..landed.len()), Some(landed.as_slice()));
                }
            }
        }
    }

    #[test]
    fn unsynced_rename_is_lost_at_crash_and_synced_rename_survives() {
        // Without the directory fsync: the rename vanishes, the file is gone.
        let vfs = FaultVfs::new();
        vfs.create_dir_all(&p("/d")).expect("mkdir");
        vfs.write(&p("/d/.tmp-f"), b"data").expect("write");
        vfs.sync_file(&p("/d/.tmp-f")).expect("sync");
        vfs.rename(&p("/d/.tmp-f"), &p("/d/f")).expect("rename");
        let crashed = vfs.crash_state(vfs.events_len(), 1);
        assert!(
            !crashed.exists(&p("/d/f")),
            "un-dir-synced rename must be dropped by the adversary"
        );

        // With it: the file is durable with exactly its synced contents.
        vfs.sync_dir(&p("/d")).expect("sync dir");
        let crashed = vfs.crash_state(vfs.events_len(), 1);
        assert_eq!(crashed.read(&p("/d/f")).expect("durable"), b"data");
    }

    #[test]
    fn write_atomic_over_fault_vfs_is_crash_durable_at_every_prefix() {
        let vfs = FaultVfs::new();
        write_atomic(&vfs, &p("/d"), "f", b"v1").expect("publish v1");
        let publish_done = vfs.events_len();
        write_atomic(&vfs, &p("/d"), "f", b"v2").expect("publish v2");
        let total = vfs.events_len();
        // At every crash point the file is absent (before the first
        // publish completed) or holds exactly v1 or v2 — never a torn mix.
        for k in 0..=total {
            for seed in 0..4u64 {
                let crashed = vfs.crash_state(k, seed);
                match crashed.read(&p("/d/f")) {
                    Ok(bytes) => assert!(
                        bytes == b"v1" || bytes == b"v2",
                        "torn publish at crash point {k}: {bytes:?}"
                    ),
                    Err(_) => assert!(
                        k < publish_done,
                        "file vanished after its publish returned (crash point {k})"
                    ),
                }
            }
        }
        // After the second publish returned, v2 must be what survives.
        let crashed = vfs.crash_state(total, 3);
        assert_eq!(crashed.read(&p("/d/f")).expect("durable"), b"v2");
    }

    #[test]
    fn ignore_sync_dir_drops_completed_publishes() {
        let vfs = FaultVfs::with_plan(FaultPlan {
            ignore_sync_dir: true,
            ..FaultPlan::default()
        });
        write_atomic(&vfs, &p("/d"), "f", b"data").expect("publish");
        let crashed = vfs.crash_state(vfs.events_len(), 7);
        assert!(
            !crashed.exists(&p("/d/f")),
            "a lying sync_dir must not confer durability"
        );
    }

    #[test]
    fn unsynced_overwrite_tears_but_never_invents_bytes() {
        let vfs = FaultVfs::new();
        vfs.create_dir_all(&p("/d")).expect("mkdir");
        vfs.write(&p("/d/f"), b"old!").expect("write old");
        vfs.sync_file(&p("/d/f")).expect("sync");
        vfs.sync_dir(&p("/d")).expect("sync dir");
        vfs.write(&p("/d/f"), b"newer-bytes").expect("overwrite");
        // No sync after the overwrite: every legal outcome is old, a
        // prefix of new, or full new.
        let mut saw_old = false;
        let mut saw_partial = false;
        for seed in 0..64u64 {
            let crashed = vfs.crash_state(vfs.events_len(), seed);
            let bytes = crashed.read(&p("/d/f")).expect("name is durable");
            let is_old = bytes == b"old!";
            let is_prefix = b"newer-bytes".get(..bytes.len()) == Some(bytes.as_slice());
            assert!(is_old || is_prefix, "invented bytes: {bytes:?}");
            saw_old |= is_old;
            saw_partial |= is_prefix && bytes.len() < b"newer-bytes".len();
        }
        assert!(saw_old, "the seed sweep must exercise the lost-write case");
        assert!(saw_partial, "the seed sweep must exercise the torn case");
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference values from the published splitmix64 (seed 0 stream).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
