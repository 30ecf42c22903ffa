//! Storage backends: where the per-session event logs live.
//!
//! A backend is a map from [`SessionId`] to one append-only byte log. The
//! log's *content* (checksummed frames, record encodings) is entirely the
//! concern of the layers above — a backend only appends, reads, truncates
//! and syncs opaque bytes. Two implementations ship: [`MemoryBackend`]
//! (tests, soak harnesses) and [`FileBackend`] (append-only segment files
//! on disk). The fault-injection wrapper in [`crate::fault`] composes over
//! any backend.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::store::StoreError;

/// Identifies one durable session within a backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:016x}", self.0)
    }
}

/// An append-only per-session byte log.
///
/// Semantics every implementation must provide:
///
/// * [`append`](StorageBackend::append) atomically extends the log of `id`
///   (creating it if absent) — but the bytes are only *guaranteed* durable
///   after a subsequent [`sync`](StorageBackend::sync);
/// * [`read_log`](StorageBackend::read_log) returns the full log;
///   a session that was never appended to reads as an empty log;
/// * [`truncate`](StorageBackend::truncate) discards everything past the
///   given byte length (recovery uses it to drop a corrupt tail);
/// * [`remove`](StorageBackend::remove) deletes the session's log entirely
///   and is a no-op for unknown sessions.
pub trait StorageBackend {
    /// Appends `frame` to the end of `id`'s log.
    fn append(&mut self, id: SessionId, frame: &[u8]) -> Result<(), StoreError>;

    /// Reads the entire log of `id` (empty if never written).
    fn read_log(&self, id: SessionId) -> Result<Vec<u8>, StoreError>;

    /// Truncates `id`'s log to exactly `len` bytes. `len` past the current
    /// end is an error.
    fn truncate(&mut self, id: SessionId, len: u64) -> Result<(), StoreError>;

    /// Makes all previously appended bytes of `id` durable.
    fn sync(&mut self, id: SessionId) -> Result<(), StoreError>;

    /// Lists every session with a (possibly empty) log, ascending.
    fn sessions(&self) -> Result<Vec<SessionId>, StoreError>;

    /// Deletes `id`'s log. No-op when absent.
    fn remove(&mut self, id: SessionId) -> Result<(), StoreError>;

    /// Current length of `id`'s log in bytes (0 if never written).
    fn log_len(&self, id: SessionId) -> Result<u64, StoreError> {
        Ok(self.read_log(id)?.len() as u64)
    }
}

/// In-memory backend: one `Vec<u8>` per session. `sync` is a no-op; the
/// fault wrapper supplies the durability semantics tests care about.
#[derive(Clone, Debug, Default)]
pub struct MemoryBackend {
    logs: BTreeMap<u64, Vec<u8>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn append(&mut self, id: SessionId, frame: &[u8]) -> Result<(), StoreError> {
        self.logs.entry(id.0).or_default().extend_from_slice(frame);
        Ok(())
    }

    fn read_log(&self, id: SessionId) -> Result<Vec<u8>, StoreError> {
        Ok(self.logs.get(&id.0).cloned().unwrap_or_default())
    }

    fn truncate(&mut self, id: SessionId, len: u64) -> Result<(), StoreError> {
        let log = self.logs.entry(id.0).or_default();
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Io(format!("truncate length {len} overflows usize")))?;
        if len > log.len() {
            return Err(StoreError::Io(format!(
                "truncate({id}, {len}) past end of log ({} bytes)",
                log.len()
            )));
        }
        log.truncate(len);
        Ok(())
    }

    fn sync(&mut self, _id: SessionId) -> Result<(), StoreError> {
        Ok(())
    }

    fn sessions(&self) -> Result<Vec<SessionId>, StoreError> {
        Ok(self.logs.keys().map(|&k| SessionId(k)).collect())
    }

    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.logs.remove(&id.0);
        Ok(())
    }

    fn log_len(&self, id: SessionId) -> Result<u64, StoreError> {
        Ok(self.logs.get(&id.0).map_or(0, |l| l.len() as u64))
    }
}

/// Default segment roll size for [`FileBackend`] (4 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// File-system backend: each session is a directory of numbered append-only
/// segment files (`seg-<n>.log`). A segment rolls once it reaches the
/// configured size; an appended frame is never split across segments, so a
/// segment boundary is always a frame boundary. `sync` fsyncs the last
/// segment (earlier segments are sealed and were synced when rolled).
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    segment_bytes: u64,
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{ctx} {}: {e}", path.display()))
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `root` with the
    /// default segment size.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        FileBackend::with_segment_bytes(root, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens a backend with an explicit segment roll size (min 1 byte; a
    /// segment always accepts at least one frame regardless of its size).
    pub fn with_segment_bytes(
        root: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("create backend root", &root, e))?;
        Ok(FileBackend {
            root,
            segment_bytes: segment_bytes.max(1),
        })
    }

    /// The backend's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn session_dir(&self, id: SessionId) -> PathBuf {
        self.root.join(format!("session-{:016x}", id.0))
    }

    fn segment_path(dir: &Path, index: u64) -> PathBuf {
        dir.join(format!("seg-{index:08}.log"))
    }

    /// Sorted `(index, path, len)` of the session's segment files.
    fn segments(&self, id: SessionId) -> Result<Vec<(u64, PathBuf, u64)>, StoreError> {
        let dir = self.session_dir(id);
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read session dir", &dir, e)),
        };
        let mut segs = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read session dir", &dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(index) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let len = entry
                .metadata()
                .map_err(|e| io_err("stat segment", &path, e))?
                .len();
            segs.push((index, path, len));
        }
        segs.sort_unstable_by_key(|&(index, _, _)| index);
        Ok(segs)
    }
}

impl StorageBackend for FileBackend {
    fn append(&mut self, id: SessionId, frame: &[u8]) -> Result<(), StoreError> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir).map_err(|e| io_err("create session dir", &dir, e))?;
        let segs = self.segments(id)?;
        // Roll to a fresh segment when the last one has reached the limit;
        // never split a frame, so an under-limit segment takes the whole
        // frame even if that overshoots.
        let path = match segs.last() {
            Some(&(index, ref path, len)) if len < self.segment_bytes => {
                let _ = (index, len);
                path.clone()
            }
            Some(&(index, ref last, _)) => {
                // Seal the previous segment before rolling past it.
                File::open(last)
                    .and_then(|f| f.sync_all())
                    .map_err(|e| io_err("seal segment", last, e))?;
                FileBackend::segment_path(&dir, index + 1)
            }
            None => FileBackend::segment_path(&dir, 0),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", &path, e))?;
        file.write_all(frame)
            .map_err(|e| io_err("append segment", &path, e))?;
        Ok(())
    }

    fn read_log(&self, id: SessionId) -> Result<Vec<u8>, StoreError> {
        let mut log = Vec::new();
        for (_, path, _) in self.segments(id)? {
            let bytes = fs::read(&path).map_err(|e| io_err("read segment", &path, e))?;
            log.extend_from_slice(&bytes);
        }
        Ok(log)
    }

    fn truncate(&mut self, id: SessionId, len: u64) -> Result<(), StoreError> {
        let segs = self.segments(id)?;
        let total: u64 = segs.iter().map(|&(_, _, l)| l).sum();
        if len > total {
            return Err(StoreError::Io(format!(
                "truncate({id}, {len}) past end of log ({total} bytes)"
            )));
        }
        let mut offset = 0u64;
        for (_, path, seg_len) in segs {
            if offset >= len {
                // Entire segment is past the cut.
                fs::remove_file(&path).map_err(|e| io_err("remove segment", &path, e))?;
            } else if offset + seg_len > len {
                let keep = len - offset;
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("open segment", &path, e))?;
                file.set_len(keep)
                    .map_err(|e| io_err("truncate segment", &path, e))?;
                file.sync_all()
                    .map_err(|e| io_err("sync segment", &path, e))?;
            }
            offset += seg_len;
        }
        Ok(())
    }

    fn sync(&mut self, id: SessionId) -> Result<(), StoreError> {
        let segs = self.segments(id)?;
        if let Some((_, path, _)) = segs.last() {
            File::open(path)
                .and_then(|f| f.sync_all())
                .map_err(|e| io_err("sync segment", path, e))?;
        }
        let dir = self.session_dir(id);
        if dir.exists() {
            File::open(&dir)
                .and_then(|f| f.sync_all())
                .map_err(|e| io_err("sync session dir", &dir, e))?;
        }
        Ok(())
    }

    fn sessions(&self) -> Result<Vec<SessionId>, StoreError> {
        let entries =
            fs::read_dir(&self.root).map_err(|e| io_err("read backend root", &self.root, e))?;
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read backend root", &self.root, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_prefix("session-") {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    ids.push(SessionId(id));
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        let dir = self.session_dir(id);
        match fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove session dir", &dir, e)),
        }
    }

    fn log_len(&self, id: SessionId) -> Result<u64, StoreError> {
        Ok(self.segments(id)?.iter().map(|&(_, _, l)| l).sum())
    }
}
