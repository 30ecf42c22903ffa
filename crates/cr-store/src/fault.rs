//! Fault injection: a storage wrapper that simulates crashes.
//!
//! [`FaultyBackend`] wraps any [`StorageBackend`] and tracks, per session,
//! the byte range of the most recent append and the *synced watermark* —
//! the log length as of the last `sync`. [`FaultyBackend::crash`] then
//! rewrites the inner log the way a real crash would have left it: a torn
//! final write, a chopped tail, a flipped bit, or a lost final fsync. The
//! recovery differential in [`crate::harness`] drives all four modes at
//! every event boundary.

use std::collections::BTreeMap;

use crate::backend::{SessionId, StorageBackend};
use crate::store::StoreError;

/// A simulated crash mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The last append was cut short: only the first `at` bytes of it made
    /// it to storage. `at` past the append's length degrades to a clean
    /// crash after a complete write.
    TornWrite {
        /// Bytes of the final append that survived.
        at: u64,
    },
    /// The final `bytes` bytes of the log are lost (regardless of append
    /// boundaries).
    TruncatedTail {
        /// Bytes chopped off the end.
        bytes: u64,
    },
    /// One bit is flipped in place; the log keeps its length. `byte` is
    /// reduced modulo the log length.
    BitFlip {
        /// Byte offset of the corrupted byte.
        byte: u64,
        /// Bit index 0..8 within that byte.
        bit: u8,
    },
    /// Everything after the last explicit `sync` is lost — the log reverts
    /// to the synced watermark. Surviving bytes are all intact, so recovery
    /// must report **zero** checksum failures for this mode.
    LostSync,
}

/// What a [`FaultyBackend::crash`] actually did to the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashReport {
    /// The injected fault.
    pub fault: Fault,
    /// Log length before the crash.
    pub original_len: u64,
    /// Log length after the crash (equal to `original_len` for
    /// [`Fault::BitFlip`]).
    pub surviving_len: u64,
    /// The `(byte, bit)` actually flipped, when the fault was a bit flip on
    /// a non-empty log.
    pub flipped: Option<(u64, u8)>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Tracked {
    len: u64,
    synced: u64,
    /// Byte range `[start, end)` of the most recent append.
    last_append: Option<(u64, u64)>,
}

/// A [`StorageBackend`] decorator that records append/sync history and can
/// inject crashes. Delegates every operation to the wrapped backend, so a
/// [`crate::store::SessionStore`] runs over it unchanged. Clonable over a
/// clonable backend: harnesses checkpoint the whole (log + watermark)
/// state at an event boundary, then crash the copy.
#[derive(Clone, Debug)]
pub struct FaultyBackend<B: StorageBackend> {
    inner: B,
    tracked: BTreeMap<u64, Tracked>,
}

impl<B: StorageBackend> FaultyBackend<B> {
    /// Wraps `inner`. Pre-existing logs are adopted as fully synced.
    pub fn new(inner: B) -> Result<Self, StoreError> {
        let mut tracked = BTreeMap::new();
        for id in inner.sessions()? {
            let len = inner.log_len(id)?;
            tracked.insert(
                id.0,
                Tracked {
                    len,
                    synced: len,
                    last_append: None,
                },
            );
        }
        Ok(FaultyBackend { inner, tracked })
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Simulates a crash of the given mode on `id`'s log and rewrites the
    /// inner log to the post-crash bytes. After this returns, the backend
    /// behaves like a freshly opened store on the damaged log.
    pub fn crash(&mut self, id: SessionId, fault: Fault) -> Result<CrashReport, StoreError> {
        let mut log = self.inner.read_log(id)?;
        let original_len = log.len() as u64;
        let t = self.tracked.get(&id.0).copied().unwrap_or_default();
        let mut flipped = None;
        match fault {
            Fault::TornWrite { at } => {
                let cut = match t.last_append {
                    Some((start, end)) => (start + at).min(end),
                    None => original_len,
                };
                log.truncate(cut as usize);
            }
            Fault::TruncatedTail { bytes } => {
                let keep = original_len.saturating_sub(bytes);
                log.truncate(keep as usize);
            }
            Fault::BitFlip { byte, bit } => {
                if !log.is_empty() {
                    let at = (byte % log.len() as u64) as usize;
                    let bit = bit % 8;
                    log[at] ^= 1 << bit;
                    flipped = Some((at as u64, bit));
                }
            }
            Fault::LostSync => {
                log.truncate(t.synced.min(original_len) as usize);
            }
        }
        let surviving_len = log.len() as u64;
        self.inner.remove(id)?;
        if !log.is_empty() {
            self.inner.append(id, &log)?;
        }
        self.inner.sync(id)?;
        self.tracked.insert(
            id.0,
            Tracked {
                len: surviving_len,
                synced: surviving_len,
                last_append: None,
            },
        );
        Ok(CrashReport {
            fault,
            original_len,
            surviving_len,
            flipped,
        })
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn append(&mut self, id: SessionId, frame: &[u8]) -> Result<(), StoreError> {
        self.inner.append(id, frame)?;
        let t = self.tracked.entry(id.0).or_default();
        let start = t.len;
        t.len += frame.len() as u64;
        t.last_append = Some((start, t.len));
        Ok(())
    }

    fn read_log(&self, id: SessionId) -> Result<Vec<u8>, StoreError> {
        self.inner.read_log(id)
    }

    fn truncate(&mut self, id: SessionId, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(id, len)?;
        let t = self.tracked.entry(id.0).or_default();
        t.len = len;
        t.synced = t.synced.min(len);
        t.last_append = match t.last_append {
            Some((start, _)) if start < len => Some((start, len.min(t.len))),
            _ => None,
        };
        Ok(())
    }

    fn sync(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.inner.sync(id)?;
        let t = self.tracked.entry(id.0).or_default();
        t.synced = t.len;
        Ok(())
    }

    fn sessions(&self) -> Result<Vec<SessionId>, StoreError> {
        self.inner.sessions()
    }

    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        self.inner.remove(id)?;
        self.tracked.remove(&id.0);
        Ok(())
    }

    fn log_len(&self, id: SessionId) -> Result<u64, StoreError> {
        self.inner.log_len(id)
    }
}
