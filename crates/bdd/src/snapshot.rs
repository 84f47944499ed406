//! Versioned, checksummed, endian-stable binary snapshots of a
//! [`BddManager`].
//!
//! A snapshot captures everything needed to reconstruct an equivalent
//! manager: the variable permutation, the interior-node arena, and the
//! poisoned flag. The unique table's *chains* are deliberately not
//! serialized — they are a derived index, rebuilt (with full validation)
//! on load — but format v2 records the table's bucket *geometry*, so a
//! restored manager is bit-identical to the one that wrote the bytes
//! (which is what keeps checkpoint resume byte-stable across the
//! arena-table engine core). Operation caches, the installed
//! [`Budget`](crate::Budget), and the step counter are transient and are
//! not part of the wire format.
//!
//! # Wire format (version 2)
//!
//! All integers are little-endian.
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `b"BDDCFSNP"` |
//! | 8      | 4    | format version (`u32`, currently 2) |
//! | 12     | 4    | flags (`u32`; bit 0 = poisoned) |
//! | 16     | 4    | `num_vars` (`u32`) |
//! | 20     | 4    | `interior_count` (`u32`, arena length minus terminals) |
//! | 24     | 4    | `unique_capacity_log2` (`u32`, log2 of the unique-table bucket count) |
//! | 28     | 4·`num_vars` | variable order, top to bottom (`u32` var ids) |
//! | …      | 12·`interior_count` | interior nodes in arena order: `(var, lo, hi)` as three `u32`s |
//! | end−8  | 8    | FNV-1a 64 checksum of every preceding byte (`u64`) |
//!
//! Version 1 — identical except the `unique_capacity_log2` word is absent
//! — is still read (the geometry then defaults to the deterministic
//! post-GC shape), but no longer written.
//!
//! Arena order guarantees every child precedes its parent, so the reader
//! validates structure (variable ranges, redundancy, level order,
//! duplicates) in one pass while rebuilding the unique table. Any defect
//! yields a typed [`SnapshotError`] carrying the byte offset of the
//! offending field — snapshots from untrusted storage can never panic the
//! loader, and the geometry word is plausibility-checked before it sizes
//! an allocation.

use crate::manager::{BddManager, Var};
use crate::table::UniqueTable;
use std::fmt;
use std::io;

/// Magic bytes opening every manager snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BDDCFSNP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The legacy (pre-geometry) snapshot version, still accepted by the
/// reader.
pub const SNAPSHOT_VERSION_V1: u32 = 1;

/// Why a snapshot (or a container embedding one, such as a pipeline
/// checkpoint) failed to decode. Every variant that concerns file contents
/// carries the byte offset where decoding stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before a required field.
    Truncated {
        /// Offset at which the missing field begins.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// The leading magic bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer (or older) than this build understands.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The trailing checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recomputed from the payload.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// The bytes decoded but describe an invalid structure.
    Malformed {
        /// Byte offset of the offending field.
        offset: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { offset, needed } => {
                write!(
                    f,
                    "truncated at offset {offset}: {needed} more byte(s) needed"
                )
            }
            SnapshotError::BadMagic => write!(f, "bad magic: not a bddcf snapshot"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {supported})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: computed {expected:#018x}, file says {found:#018x}"
            ),
            SnapshotError::Malformed { offset, message } => {
                write!(f, "malformed at offset {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash, the checksum used by the snapshot and checkpoint
/// wire formats. Not cryptographic — it detects corruption, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Appends a little-endian `u32` to a wire buffer.
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64` to a wire buffer.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// An offset-tracking cursor over wire-format bytes.
///
/// Every failed read reports the *absolute* offset (the cursor can be based
/// at a non-zero offset when decoding an embedded section), which is how
/// [`SnapshotError`]s carry positions without threading them by hand.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor over `buf`, reporting offsets relative to its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_base(buf, 0)
    }

    /// A cursor over `buf` whose reported offsets are shifted by `base`
    /// (for decoding a section embedded inside a larger file).
    pub fn with_base(buf: &'a [u8], base: usize) -> Self {
        ByteReader { buf, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes, or reports where they were missing.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos(),
                needed: n - self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl BddManager {
    /// Serializes this manager into the versioned snapshot format described
    /// in the [module docs](self).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let interior: Vec<(u32, u32, u32)> = self.raw_nodes().collect();
        let mut buf = Vec::with_capacity(36 + 4 * self.num_vars() + 12 * interior.len());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut buf, SNAPSHOT_VERSION);
        put_u32(&mut buf, u32::from(self.is_poisoned()));
        put_u32(&mut buf, self.num_vars() as u32);
        put_u32(&mut buf, interior.len() as u32);
        put_u32(&mut buf, self.unique_capacity_log2());
        for &v in self.order() {
            put_u32(&mut buf, v.0);
        }
        for (var, lo, hi) in interior {
            put_u32(&mut buf, var);
            put_u32(&mut buf, lo);
            put_u32(&mut buf, hi);
        }
        let checksum = fnv1a64(&buf);
        put_u64(&mut buf, checksum);
        buf
    }

    /// Streams [`snapshot_bytes`](Self::snapshot_bytes) into a writer.
    pub fn write_snapshot<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.snapshot_bytes())
    }

    /// Atomically publishes a snapshot as `dir/name` through a
    /// [`Vfs`](crate::vfs::Vfs): tmp file → fsync → rename →
    /// parent-directory fsync. Once this returns, the snapshot survives
    /// power loss.
    pub fn save_snapshot(
        &self,
        vfs: &dyn crate::vfs::Vfs,
        dir: &std::path::Path,
        name: &str,
    ) -> io::Result<()> {
        crate::vfs::write_atomic(vfs, dir, name, &self.snapshot_bytes())
    }

    /// Reads and reconstructs a snapshot file through a
    /// [`Vfs`](crate::vfs::Vfs). Decode failures come back as
    /// [`io::ErrorKind::InvalidData`] wrapping the typed
    /// [`SnapshotError`] (recoverable by downcast).
    pub fn load_snapshot(vfs: &dyn crate::vfs::Vfs, path: &std::path::Path) -> io::Result<Self> {
        let bytes = vfs.read(path)?;
        Self::from_snapshot_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reconstructs a manager from snapshot bytes, rebuilding the unique
    /// table and validating every node. Never panics on bad input: all
    /// defects come back as a typed, offset-carrying [`SnapshotError`].
    ///
    /// The restored manager has empty operation caches, an unlimited
    /// budget, and a zeroed step counter — only durable state travels
    /// through the wire format.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut header = ByteReader::new(bytes);
        let magic = header.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = header.u32()?;
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_V1 {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if bytes.len() < header.pos() + 8 {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
                needed: header.pos() + 8 - bytes.len(),
            });
        }
        let payload_len = bytes.len() - 8;
        let expected = fnv1a64(&bytes[..payload_len]);
        let mut tail = ByteReader::with_base(&bytes[payload_len..], payload_len);
        let found = tail.u64()?;
        if expected != found {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }

        let mut r = ByteReader::with_base(&bytes[header.pos()..payload_len], header.pos());
        let flags = r.u32()?;
        let num_vars = r.u32()? as usize;
        let interior_count = r.u32()? as usize;
        let unique_capacity_log2 = if version >= 2 {
            let geometry_offset = r.pos();
            let cap = r.u32()?;
            // Plausibility bound before the word sizes an allocation: the
            // writer never leaves the table below the floor geometry or
            // more than 4× the deterministic post-GC shape.
            let ceiling = UniqueTable::capacity_log2_for(interior_count) + 2;
            if cap < UniqueTable::capacity_log2_for(0) || cap > ceiling {
                return Err(SnapshotError::Malformed {
                    offset: geometry_offset,
                    message: format!(
                        "implausible unique-table geometry 2^{cap} for {interior_count} node(s)"
                    ),
                });
            }
            Some(cap)
        } else {
            None
        };
        let order_offset = r.pos();
        let mut order = Vec::with_capacity(num_vars);
        for _ in 0..num_vars {
            order.push(Var(r.u32()?));
        }
        let triples_offset = r.pos();
        let mut triples = Vec::with_capacity(interior_count);
        for _ in 0..interior_count {
            let var = r.u32()?;
            let lo = r.u32()?;
            let hi = r.u32()?;
            triples.push((var, lo, hi));
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                offset: r.pos(),
                message: format!("{} trailing byte(s) after the node section", r.remaining()),
            });
        }
        BddManager::from_snapshot_parts(&order, &triples, flags & 1 != 0, unique_capacity_log2)
            .map_err(|(index, message)| SnapshotError::Malformed {
                offset: if message.starts_with("variable order") {
                    order_offset
                } else {
                    triples_offset + 12 * index
                },
                message,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Var, FALSE, TRUE};

    fn sample_manager() -> BddManager {
        let mut mgr = BddManager::new(4);
        mgr.set_order(&[Var(2), Var(0), Var(3), Var(1)]);
        let a = mgr.var(Var(0));
        let b = mgr.var(Var(1));
        let c = mgr.var(Var(2));
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let _ = mgr.xor(f, a);
        mgr
    }

    #[test]
    fn round_trip_preserves_arena_and_order() {
        let mgr = sample_manager();
        let bytes = mgr.snapshot_bytes();
        let back = BddManager::from_snapshot_bytes(&bytes).expect("round trip");
        assert_eq!(back.num_vars(), mgr.num_vars());
        assert_eq!(back.order(), mgr.order());
        assert_eq!(back.arena_len(), mgr.arena_len());
        assert!(back.check_integrity().is_ok());
        assert!(!back.is_poisoned());
        // Byte-stability: re-serializing produces identical bytes.
        assert_eq!(back.snapshot_bytes(), bytes);
    }

    #[test]
    fn poisoned_flag_travels() {
        let mut mgr = sample_manager();
        mgr.poison();
        let back = BddManager::from_snapshot_bytes(&mgr.snapshot_bytes()).expect("round trip");
        assert!(back.is_poisoned());
        assert_eq!(
            back.clone().try_mk(Var(0), FALSE, TRUE),
            Err(crate::Error::Poisoned)
        );
    }

    #[test]
    fn empty_manager_round_trips() {
        let mgr = BddManager::new(0);
        let back = BddManager::from_snapshot_bytes(&mgr.snapshot_bytes()).expect("round trip");
        assert_eq!(back.arena_len(), 2);
        assert_eq!(back.num_vars(), 0);
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample_manager().snapshot_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            BddManager::from_snapshot_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn version_skew_is_reported() {
        let mut bytes = sample_manager().snapshot_bytes();
        bytes[8] = 99; // version field, little-endian low byte
        match BddManager::from_snapshot_bytes(&bytes) {
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = sample_manager().snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            BddManager::from_snapshot_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// `sample_manager()` as the retired version 1 writer serialized it.
    const SAMPLE_V1: [u8; 156] = [
        66, 68, 68, 67, 70, 83, 78, 80, 1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0,
        0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0,
        0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
        2, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 7, 0, 0, 0,
        21, 48, 115, 137, 125, 150, 109, 14,
    ];

    #[test]
    fn v1_snapshots_still_load_and_reserialize_as_v2() {
        let mgr = sample_manager();
        let v1 = SAMPLE_V1;
        assert_eq!(u32::from_le_bytes([v1[8], v1[9], v1[10], v1[11]]), 1);
        let back = BddManager::from_snapshot_bytes(&v1).expect("v1 load");
        assert_eq!(back.arena_len(), mgr.arena_len());
        assert_eq!(back.order(), mgr.order());
        assert!(back.check_integrity().is_ok());
        let v2 = back.snapshot_bytes();
        assert_eq!(u32::from_le_bytes([v2[8], v2[9], v2[10], v2[11]]), 2);
        assert_eq!(v2.len(), v1.len() + 4, "v2 adds exactly the geometry word");
        let again = BddManager::from_snapshot_bytes(&v2).expect("v2 reload");
        assert_eq!(again.snapshot_bytes(), v2, "byte-stable after migration");
    }

    #[test]
    fn implausible_geometry_word_is_rejected_before_allocating() {
        let mut bytes = sample_manager().snapshot_bytes();
        bytes[24] = 31; // unique_capacity_log2: 2^31 buckets for a tiny arena
        let payload = bytes.len() - 8;
        let fixed = fnv1a64(&bytes[..payload]);
        bytes[payload..].copy_from_slice(&fixed.to_le_bytes());
        match BddManager::from_snapshot_bytes(&bytes) {
            Err(SnapshotError::Malformed { offset, message }) => {
                assert_eq!(offset, 24);
                assert!(message.contains("implausible"), "got: {message}");
            }
            other => panic!("expected malformed geometry, got {other:?}"),
        }
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn terminals_only_semantics_survive() {
        let mut mgr = BddManager::new(2);
        let x = mgr.var(Var(0));
        let nx = mgr.not(x);
        let mut back = BddManager::from_snapshot_bytes(&mgr.snapshot_bytes()).expect("round trip");
        // Same ids denote the same functions in the restored manager.
        assert_eq!(back.and(x, nx), FALSE);
        assert_eq!(back.or(x, nx), TRUE);
    }
}
