//! Warm-state snapshots: checkpoint a simulator at the warm-up boundary
//! once, then fork every run that shares the same pre-measurement history.
//!
//! A run's behaviour up to the warm-up flip is a pure function of the
//! system configuration, the protocol, the benchmark, the seed, and the
//! fault plan — everything [`snapshot_key`] hashes. Two matrix cells (or
//! two CLI invocations) with the same key replay byte-for-byte identical
//! warm-up phases, so the first one to reach the warm boundary serialises
//! its full machine state and every later one restores it instead of
//! re-simulating. The hard invariant, gated by `tests/snapshot.rs`:
//! snapshot → restore → run is bit-for-bit identical to an uninterrupted
//! run — same `RunResult`, same metrics, same stamped artifacts.
//!
//! Snapshots are versioned and fail closed: a corrupted, truncated, or
//! version-mismatched image is rejected with a typed
//! [`SimError::Snapshot`](crate::SimError), never a panic and never a
//! silent fallback to cold execution.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::config::SystemConfig;
use crate::manifest::{digest, hex16};
use crate::replay::config_to_json;
use cmpsim_engine::{SnapError, SnapReader, SnapWriter};
use cmpsim_protocols::ProtocolKind;
use cmpsim_workloads::Benchmark;

/// Leading bytes of every snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CMPSNAP\0";
/// Wire-format version. Bump on any change to the serialised layout of
/// simulator state; readers reject every version but their own.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A snapshot failure: I/O on the snapshot directory, or a rejected
/// image (bad magic, wrong version, corruption, key mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// On-disk snapshot involved, if any (in-memory failures have none).
    pub path: Option<PathBuf>,
    /// Human-readable cause.
    pub detail: String,
    /// Replay artifact stamped by [`run_benchmark`](crate::run_benchmark)
    /// wrappers, when one was written.
    pub artifact: Option<PathBuf>,
}

impl SnapshotError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        Self { path: None, detail: detail.into(), artifact: None }
    }

    pub(crate) fn at(path: &Path, detail: impl Into<String>) -> Self {
        Self { path: Some(path.to_path_buf()), detail: detail.into(), artifact: None }
    }

    pub(crate) fn from_snap(context: &str, e: SnapError) -> Self {
        Self::new(format!("{context}: {e}"))
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.path {
            Some(p) => write!(f, "snapshot {}: {}", p.display(), self.detail),
            None => write!(f, "snapshot: {}", self.detail),
        }
    }
}

/// Content key identifying everything that influences pre-snapshot
/// execution: the canonical config JSON (which already folds in the
/// seed, the fault plan, and `check_invariants`, and already excludes
/// pure-observability knobs), the protocol, the benchmark, and the
/// snapshot schema + tool version so stale images from older builds
/// never match.
pub fn snapshot_key(protocol: ProtocolKind, benchmark: Benchmark, cfg: &SystemConfig) -> u64 {
    let mut keyed = String::new();
    config_to_json(cfg).render_to(&mut keyed);
    keyed.push('\n');
    keyed.push_str(protocol.name());
    keyed.push('\n');
    keyed.push_str(benchmark.name());
    keyed.push('\n');
    keyed.push_str("cmpsim-snapshot-v");
    keyed.push_str(&SNAPSHOT_VERSION.to_string());
    keyed.push('\n');
    keyed.push_str(env!("CARGO_PKG_VERSION"));
    digest(keyed.as_bytes())
}

/// Renders `key` as the 16-hex-digit form used in snapshot file names.
pub fn key_hex(key: u64) -> String {
    hex16(key)
}

/// Writes the snapshot header (magic, version, key) into `w`.
pub(crate) fn write_header(w: &mut SnapWriter, key: u64) {
    w.raw(&SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u64(key);
}

/// Validates the header of a snapshot image and returns a reader
/// positioned at the payload. Rejects bad magic, foreign versions, and
/// images whose embedded key disagrees with `expect_key`.
pub(crate) fn read_header(bytes: &[u8], expect_key: u64) -> Result<SnapReader<'_>, SnapshotError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.raw(SNAPSHOT_MAGIC.len()).map_err(|e| SnapshotError::from_snap("header", e))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::new("bad magic: not a cmpsim snapshot"));
    }
    let version = r.u32().map_err(|e| SnapshotError::from_snap("header", e))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::new(format!(
            "version mismatch: image is v{version}, this build reads v{SNAPSHOT_VERSION}"
        )));
    }
    let key = r.u64().map_err(|e| SnapshotError::from_snap("header", e))?;
    if key != expect_key {
        return Err(SnapshotError::new(format!(
            "key mismatch: image is for {}, expected {}",
            hex16(key),
            hex16(expect_key)
        )));
    }
    Ok(r)
}

/// Checks that `bytes` carries a well-formed header for any key, without
/// consuming the payload. Used to vet disk images before caching them.
fn validate_header(bytes: &[u8]) -> Result<u64, SnapshotError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.raw(SNAPSHOT_MAGIC.len()).map_err(|e| SnapshotError::from_snap("header", e))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::new("bad magic: not a cmpsim snapshot"));
    }
    let version = r.u32().map_err(|e| SnapshotError::from_snap("header", e))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::new(format!(
            "version mismatch: image is v{version}, this build reads v{SNAPSHOT_VERSION}"
        )));
    }
    r.u64().map_err(|e| SnapshotError::from_snap("header", e))
}

/// Keyed store of warm-state snapshot images, shared across the worker
/// threads of a matrix or chaos sweep.
///
/// Always caches in memory; with [`SnapshotStore::with_dir`] images are
/// additionally persisted as `snap-<key>.bin` files so later CLI
/// invocations skip the warm-up phase entirely. Disk writes go through a
/// temp file + rename, so readers never observe a torn image.
pub struct SnapshotStore {
    mem: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
    dir: Option<PathBuf>,
}

impl SnapshotStore {
    /// Store that lives only for this process (intra-sweep reuse).
    pub fn in_memory() -> Self {
        Self { mem: Mutex::new(HashMap::new()), dir: None }
    }

    /// Store backed by `dir` (created if missing) for cross-invocation
    /// reuse.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SnapshotError::at(&dir, format!("create dir: {e}")))?;
        Ok(Self { mem: Mutex::new(HashMap::new()), dir: Some(dir) })
    }

    /// Directory backing this store, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn file_for(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("snap-{}.bin", hex16(key))))
    }

    /// Fetches the image for `key`, consulting memory first and then the
    /// backing directory. A missing image is `Ok(None)`; an unreadable or
    /// malformed on-disk image is an error (fail closed — silently
    /// re-simulating would mask the corruption).
    pub fn get(&self, key: u64) -> Result<Option<Arc<Vec<u8>>>, SnapshotError> {
        if let Some(hit) = self.mem.lock().unwrap().get(&key) {
            return Ok(Some(Arc::clone(hit)));
        }
        let Some(path) = self.file_for(key) else { return Ok(None) };
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(SnapshotError::at(&path, format!("read: {e}"))),
        };
        let embedded =
            validate_header(&bytes).map_err(|mut e| {
                e.path = Some(path.clone());
                e
            })?;
        if embedded != key {
            return Err(SnapshotError::at(
                &path,
                format!("key mismatch: file claims {}, expected {}", hex16(embedded), hex16(key)),
            ));
        }
        let arc = Arc::new(bytes);
        self.mem.lock().unwrap().insert(key, Arc::clone(&arc));
        Ok(Some(arc))
    }

    /// Inserts the image for `key`, persisting it when the store has a
    /// backing directory. Concurrent producers of the same key are
    /// harmless: the images are byte-identical by construction.
    pub fn put(&self, key: u64, bytes: Vec<u8>) -> Result<(), SnapshotError> {
        let arc = Arc::new(bytes);
        if let Some(path) = self.file_for(key) {
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, arc.as_slice())
                .map_err(|e| SnapshotError::at(&tmp, format!("write: {e}")))?;
            std::fs::rename(&tmp, &path)
                .map_err(|e| SnapshotError::at(&path, format!("rename: {e}")))?;
        }
        self.mem.lock().unwrap().insert(key, arc);
        Ok(())
    }

    /// Number of images currently cached in memory.
    pub fn cached(&self) -> usize {
        self.mem.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::smoke()
    }

    #[test]
    fn key_covers_protocol_benchmark_config() {
        let base = snapshot_key(ProtocolKind::Directory, Benchmark::Apache, &cfg());
        assert_ne!(base, snapshot_key(ProtocolKind::DiCo, Benchmark::Apache, &cfg()));
        assert_ne!(base, snapshot_key(ProtocolKind::Directory, Benchmark::Radix, &cfg()));
        let mut seeded = cfg();
        seeded.seed ^= 1;
        assert_ne!(base, snapshot_key(ProtocolKind::Directory, Benchmark::Apache, &seeded));
        // Stable across calls.
        assert_eq!(base, snapshot_key(ProtocolKind::Directory, Benchmark::Apache, &cfg()));
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 0xdead_beef);
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = read_header(&bytes, 0xdead_beef).unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        r.finish().unwrap();

        // Wrong key.
        assert!(read_header(&bytes, 0xdead_beee).is_err());
        // Truncated header.
        assert!(read_header(&bytes[..4], 0xdead_beef).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(read_header(&bad, 0xdead_beef).is_err());
        // Foreign version.
        let mut newer = bytes.clone();
        newer[8] = newer[8].wrapping_add(1);
        let err = read_header(&newer, 0xdead_beef).unwrap_err();
        assert!(err.detail.contains("version mismatch"), "{err}");
    }

    #[test]
    fn store_round_trips_in_memory_and_on_disk() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 7);
        w.u64(99);
        let bytes = w.into_bytes();

        let mem = SnapshotStore::in_memory();
        assert!(mem.get(7).unwrap().is_none());
        mem.put(7, bytes.clone()).unwrap();
        assert_eq!(*mem.get(7).unwrap().unwrap(), bytes);

        let dir = std::env::temp_dir().join(format!("cmpsim-snap-test-{}", std::process::id()));
        let disk = SnapshotStore::with_dir(&dir).unwrap();
        disk.put(7, bytes.clone()).unwrap();
        // A fresh store over the same dir sees the image from disk.
        let disk2 = SnapshotStore::with_dir(&dir).unwrap();
        assert_eq!(*disk2.get(7).unwrap().unwrap(), bytes);
        // Corrupt the file: the store must refuse it, not fall back.
        let path = dir.join(format!("snap-{}.bin", hex16(7)));
        std::fs::write(&path, b"garbage").unwrap();
        let disk3 = SnapshotStore::with_dir(&dir).unwrap();
        assert!(disk3.get(7).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
