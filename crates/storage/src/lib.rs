//! Stable-storage substrate for SmartChain.
//!
//! The paper's durability analysis (Observation 1 / §II-C2) hinges on the
//! storage behaviours this crate implements:
//!
//! * the **persistence ladder** (∞/λ/0-1, §V-C) as one type,
//!   [`Engine`] ([`engine`]): the only code that decides when a record is
//!   synced, including the group commit that coalesces many record batches
//!   into one synchronous write — the Dura-SMaRt "parallel logging" trick
//!   that buys the paper its 3.6×. It is consumed by both the simulated
//!   `ChainNode` (over [`mem::MemLog`]) and the real-disk `DurableApp`
//!   (over [`SegmentedLog`], as [`SegmentedEngine`]);
//! * an **append-only segmented record log** with per-record framing and
//!   CRC so a crashed replica recovers the longest valid prefix, and with
//!   checkpoint-driven prefix truncation by whole-segment deletes
//!   ([`segmented`]);
//! * a **snapshot store** with atomic install, used by checkpoints
//!   ([`snapshot`]).
//!
//! Everything works against the [`RecordLog`] trait: a log is a medium that
//! writes and syncs when told to, and the engine above it holds the policy.

pub mod crc32;
pub mod engine;
pub mod mem;
pub mod segmented;
pub mod snapshot;

pub use engine::{DurabilityEngine, Engine, FlushStats, SegmentedEngine};
pub use segmented::{RecoveryStats, SegmentConfig, SegmentedLog};

use std::io;

/// Best-effort fsync of a directory, making a just-renamed file's directory
/// entry durable (rename is atomic but not durable until the directory
/// itself is synced). Errors are ignored: not every platform/filesystem
/// supports opening directories for sync, and the rename already happened.
pub(crate) fn sync_dir(dir: &std::path::Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// How writes reach stable storage — the rung an [`Engine`] runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncPolicy {
    /// Appends queue until the engine's flush writes them with one fsync,
    /// before they are acknowledged (group commit).
    Sync,
    /// Appends are buffered; the OS (or a timer) flushes eventually.
    Async,
    /// Data is kept in memory only (the paper's ∞-Persistence).
    None,
}

/// An append-only log of opaque records.
///
/// Implementations: the media [`SegmentedLog`] (real files + fsync) and
/// [`mem::MemLog`] (heap only), which write on `append` and sync on `sync`,
/// and [`Engine`], which runs a [`SyncPolicy`] over either.
pub trait RecordLog: Send {
    /// Appends one record; returns its zero-based index.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying device.
    fn append(&mut self, record: &[u8]) -> io::Result<u64>;

    /// Forces all buffered records to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying device.
    fn sync(&mut self) -> io::Result<()>;

    /// Number of records currently readable.
    fn len(&self) -> u64;

    /// True when the log holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads record `index`; `None` when out of range.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying device.
    fn read(&self, index: u64) -> io::Result<Option<Vec<u8>>>;

    /// Removes every record with index < `upto` (log truncation after a
    /// checkpoint). Indices of the remaining records are preserved.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying device.
    fn truncate_prefix(&mut self, upto: u64) -> io::Result<()>;

    /// Lowest readable record index: 0 for a fresh log, the truncation
    /// watermark after [`RecordLog::truncate_prefix`] compacted a prefix
    /// away. Reads below it return `None`.
    fn first_index(&self) -> u64 {
        0
    }

    /// Logically skips the log forward so the next append lands at `index`
    /// with everything below it truncated — what installing a checkpoint
    /// that summarizes records this log never held requires. The default
    /// materializes empty pad records and truncates them away; segmented
    /// backends override it with an O(1) manifest update.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying device.
    fn fast_forward(&mut self, index: u64) -> io::Result<()> {
        while self.len() < index {
            self.append(&[])?;
        }
        self.truncate_prefix(index)
    }

    /// Simulated power loss: drop everything that never reached stable
    /// storage. Heap-backed logs ([`mem::MemLog`]) discard their unsynced
    /// suffix, and [`SegmentedLog`] truncates its active segment to the
    /// last sync; [`SegmentedLog::open`] recovers the longest valid prefix
    /// after a real crash.
    fn simulate_crash(&mut self) {}
}
