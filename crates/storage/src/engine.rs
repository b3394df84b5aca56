//! The `DurabilityEngine`: the paper's persistence ladder (§V-C) as one
//! type, consumed by both the simulated `ChainNode` and the real-disk
//! `smr::durability::DurableApp`.
//!
//! The paper's observation is that *where* a commit becomes durable — never
//! (∞-Persistence), eventually (λ-Persistence), or before the reply
//! (0/1-Persistence) — is a policy, orthogonal to consensus. [`Engine`]
//! makes the policy a value and is the only code that decides when a record
//! is synced; the [`RecordLog`] under it ([`MemLog`] or
//! [`SegmentedLog`]) is only the medium:
//!
//! | [`SyncPolicy`] | ladder rung | append | flush | durable |
//! |---|---|---|---|---|
//! | `None` | ∞-Persistence | written | no-op | nothing |
//! | `Async` | λ-Persistence | written | no-op (the OS flushes eventually) | up to the last forced sync |
//! | `Sync` | 0/1-Persistence | queued | one sync for everything queued | everything flushed |
//!
//! Every engine is also a [`RecordLog`], so a `Ledger` (or any other
//! log-structured consumer) can sit directly on top of one and inherit its
//! durability level. [`RecordLog::sync`] means "really force it" on the
//! rungs that have a device — that is what recovery code calls — while
//! [`DurabilityEngine::flush`] is the *policy* commit point the pipeline's
//! persist stage drives.
//!
//! The `Sync` rung is group commit (the Dura-SMaRt "parallel logging"
//! idea): the latency of one synchronous write is roughly independent of
//! how many records it carries, so N appends between flushes cost one
//! fsync — the coalescing the paper credits with a >3.6× throughput gain
//! over per-batch synchronous writes (§IV-B, Observation 1).
//!
//! [`MemLog`]: crate::mem::MemLog

use crate::mem::MemLog;
use crate::segmented::{SegmentConfig, SegmentedLog};
use crate::{RecordLog, SyncPolicy};
use std::io;

/// Append/sync accounting of an [`Engine`], used by the simulator's disk
/// model cross-checks and by benchmarks to count fsyncs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Records written to the log.
    pub records: u64,
    /// fsync operations issued.
    pub syncs: u64,
}

/// A persistence policy over an append-only record log.
pub trait DurabilityEngine: RecordLog {
    /// The ladder rung this engine implements.
    fn policy(&self) -> SyncPolicy;

    /// Drives the policy's commit point: group commit coalesces everything
    /// queued into one device sync; the other rungs do nothing.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn flush(&mut self) -> io::Result<()>;

    /// Drives the commit point for the log prefix up to `records` (an
    /// absolute record count): group commit writes and syncs only the
    /// records that were already queued when the corresponding device sync
    /// was *issued* — records appended while that sync was in flight wait
    /// for their own flush. The other rungs do nothing. Used by pipelined
    /// callers whose sync completions arrive while later records are
    /// already queued.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    fn flush_upto(&mut self, records: u64) -> io::Result<()>;

    /// Records that reached stable storage (survive a crash).
    fn durable_len(&self) -> u64;

    /// Append/sync accounting (the group-commit coalescing proof lives in
    /// `records` vs `syncs`).
    fn stats(&self) -> FlushStats;
}

/// The persistence ladder over a record log `L`: one [`SyncPolicy`] rung,
/// chosen at construction.
#[derive(Debug)]
pub struct Engine<L: RecordLog> {
    log: L,
    policy: SyncPolicy,
    stats: FlushStats,
    /// `Sync` rung: records appended but not yet written to the log (the
    /// group-commit queue; readable, not durable).
    queued: Vec<Vec<u8>>,
    /// `Sync` rung: records written to the log but not yet covered by a
    /// sync (a failed flush leaves them here so a retry syncs without
    /// re-appending).
    unsynced: bool,
    /// `Async` rung: records covered by the last forced sync.
    synced_upto: u64,
}

/// The real-disk engine: the ladder over a [`SegmentedLog`].
pub type SegmentedEngine = Engine<SegmentedLog>;

/// Builds the engine for a [`SyncPolicy`] over heap-backed storage (the
/// simulator's stand-in for a disk).
pub fn engine_for(policy: SyncPolicy) -> Engine<MemLog> {
    Engine::new(MemLog::new(), policy)
}

impl<L: RecordLog> Engine<L> {
    /// Wraps `log` under `policy`. Whatever `log` already holds counts as
    /// synced for the `Async` rung.
    pub fn new(log: L, policy: SyncPolicy) -> Engine<L> {
        let synced_upto = log.len();
        Engine {
            log,
            policy,
            stats: FlushStats::default(),
            queued: Vec::new(),
            unsynced: false,
            synced_upto,
        }
    }

    /// The wrapped log (diagnostics: segment counts, recovery stats).
    pub fn log(&self) -> &L {
        &self.log
    }

    /// Consumes the engine, returning the wrapped log. Queued records that
    /// were never flushed are dropped — exactly what a crash would do.
    pub fn into_inner(self) -> L {
        self.log
    }

    /// Writes the first `count` queued records and syncs once, leaving
    /// later records queued.
    ///
    /// A record that reached the log is never re-queued (re-appending it on
    /// retry would duplicate it); on an append failure the failed record and
    /// everything after it stay queued, and an unsynced append is synced by
    /// the next flush.
    fn flush_first(&mut self, count: usize) -> io::Result<()> {
        let count = count.min(self.queued.len());
        if count == 0 && !self.unsynced {
            return Ok(());
        }
        let mut written = 0usize;
        let mut append_err = None;
        for record in &self.queued[..count] {
            match self.log.append(record) {
                Ok(_) => written += 1,
                Err(e) => {
                    append_err = Some(e);
                    break;
                }
            }
        }
        self.stats.records += written as u64;
        self.queued.drain(..written);
        self.unsynced = self.unsynced || written > 0;
        if let Some(e) = append_err {
            return Err(e);
        }
        self.log.sync()?;
        self.unsynced = false;
        self.stats.syncs += 1;
        Ok(())
    }
}

impl SegmentedEngine {
    /// Opens (or recovers) a segmented log under `dir` and runs it under
    /// `policy`.
    ///
    /// # Errors
    ///
    /// Propagates storage failures from the segment scan.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        policy: SyncPolicy,
        config: SegmentConfig,
    ) -> io::Result<SegmentedEngine> {
        Ok(Engine::new(SegmentedLog::open(dir, config)?, policy))
    }
}

impl<L: RecordLog> RecordLog for Engine<L> {
    fn append(&mut self, record: &[u8]) -> io::Result<u64> {
        if self.policy == SyncPolicy::Sync {
            self.queued.push(record.to_vec());
            return Ok(self.len() - 1);
        }
        let index = self.log.append(record)?;
        self.stats.records += 1;
        Ok(index)
    }
    fn sync(&mut self) -> io::Result<()> {
        match self.policy {
            // ∞-Persistence: there is no stable storage to force anything
            // onto.
            SyncPolicy::None => Ok(()),
            // An *explicit* force (recovery preparation, shutdown); the
            // policy itself never calls this.
            SyncPolicy::Async => {
                self.log.sync()?;
                self.stats.syncs += 1;
                self.synced_upto = self.log.len();
                Ok(())
            }
            SyncPolicy::Sync => self.flush(),
        }
    }
    fn len(&self) -> u64 {
        self.log.len() + self.queued.len() as u64
    }
    fn read(&self, index: u64) -> io::Result<Option<Vec<u8>>> {
        let written = self.log.len();
        if index < written {
            return self.log.read(index);
        }
        Ok(self.queued.get((index - written) as usize).cloned())
    }
    fn truncate_prefix(&mut self, upto: u64) -> io::Result<()> {
        self.log.truncate_prefix(upto)
    }
    fn first_index(&self) -> u64 {
        self.log.first_index()
    }
    fn fast_forward(&mut self, index: u64) -> io::Result<()> {
        // Skipped records are summarized elsewhere (a checkpoint); queued
        // records below the target would land at wrong indices.
        self.queued.clear();
        self.log.fast_forward(index)?;
        self.synced_upto = self.synced_upto.max(self.log.len().min(index));
        Ok(())
    }
    fn simulate_crash(&mut self) {
        // Queued records were never written; the device keeps its synced
        // prefix only (nothing, on a rung that never syncs).
        self.queued.clear();
        self.log.simulate_crash();
    }
}

impl<L: RecordLog> DurabilityEngine for Engine<L> {
    fn policy(&self) -> SyncPolicy {
        self.policy
    }
    fn flush(&mut self) -> io::Result<()> {
        self.flush_upto(self.len())
    }
    fn flush_upto(&mut self, records: u64) -> io::Result<()> {
        // λ-Persistence acks without waiting ("the OS flushes within λ");
        // ∞-Persistence has nothing to flush.
        if self.policy != SyncPolicy::Sync {
            return Ok(());
        }
        let count = records.saturating_sub(self.log.len()) as usize;
        self.flush_first(count)
    }
    fn durable_len(&self) -> u64 {
        match self.policy {
            SyncPolicy::None => 0,
            SyncPolicy::Async => self.synced_upto,
            SyncPolicy::Sync => self.log.len(),
        }
    }
    fn stats(&self) -> FlushStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_engine_reports_nothing_durable() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::None);
        e.append(b"a").unwrap();
        e.sync().unwrap();
        assert_eq!(e.durable_len(), 0);
        assert_eq!(e.stats().syncs, 0);
        assert_eq!(e.policy(), SyncPolicy::None);
    }

    #[test]
    fn async_engine_acks_before_durability() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Async);
        e.append(b"a").unwrap();
        e.flush().unwrap(); // the policy commit point does NOT sync
        assert_eq!(e.len(), 1);
        assert_eq!(
            e.durable_len(),
            0,
            "ack precedes durability in λ-persistence"
        );
        e.sync().unwrap(); // explicit force
        assert_eq!(e.durable_len(), 1);
    }

    #[test]
    fn group_commit_coalesces_to_one_sync() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Sync);
        for i in 0..10u8 {
            e.append(&[i]).unwrap();
        }
        assert_eq!(e.durable_len(), 0);
        e.flush().unwrap();
        assert_eq!(e.durable_len(), 10);
        assert_eq!(
            e.stats(),
            FlushStats {
                records: 10,
                syncs: 1
            }
        );
    }

    #[test]
    fn group_commit_reads_queued_records() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Sync);
        e.append(b"flushed").unwrap();
        e.flush().unwrap();
        e.append(b"queued").unwrap();
        assert_eq!(e.read(0).unwrap().unwrap(), b"flushed");
        assert_eq!(
            e.read(1).unwrap().unwrap(),
            b"queued",
            "pending records stay readable"
        );
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn engine_for_keeps_the_policy() {
        for p in [SyncPolicy::Sync, SyncPolicy::Async, SyncPolicy::None] {
            assert_eq!(engine_for(p).policy(), p);
        }
    }

    /// Pipelined commit points: a sync issued before a record was queued
    /// cannot make that record durable — `flush_upto` commits exactly the
    /// prefix present at issue time, later records wait for their own sync.
    #[test]
    fn group_commit_flush_upto_leaves_later_records_queued() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Sync);
        e.append(b"a").unwrap();
        let boundary = e.len(); // the sync for "a" is issued here
        e.append(b"b").unwrap(); // queued while that sync is in flight
        e.flush_upto(boundary).unwrap();
        assert_eq!(e.durable_len(), 1, "\"b\" must still be volatile");
        assert_eq!(e.read(1).unwrap().unwrap(), b"b", "but still readable");
        e.flush_upto(2).unwrap();
        assert_eq!(e.durable_len(), 2);
        assert_eq!(
            e.stats(),
            FlushStats {
                records: 2,
                syncs: 2
            }
        );
        // The non-sync rungs treat it as their (no-op) flush.
        let mut a = Engine::new(MemLog::new(), SyncPolicy::Async);
        a.append(b"x").unwrap();
        a.flush_upto(1).unwrap();
        assert_eq!(a.durable_len(), 0);
    }

    #[test]
    fn group_commit_one_sync_per_flush() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Sync);
        for i in 0..10u8 {
            e.append(&[i]).unwrap();
        }
        e.flush().unwrap();
        assert_eq!(
            e.stats(),
            FlushStats {
                records: 10,
                syncs: 1
            }
        );
        for i in 10..20u8 {
            e.append(&[i]).unwrap();
        }
        e.flush().unwrap();
        assert_eq!(
            e.stats(),
            FlushStats {
                records: 20,
                syncs: 2
            }
        );
        assert_eq!(e.log().len(), 20);
    }

    #[test]
    fn flush_empty_is_free() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Sync);
        e.flush().unwrap();
        assert_eq!(e.stats(), FlushStats::default());
    }

    #[test]
    fn flush_first_covers_only_the_prefix() {
        let mut e = Engine::new(MemLog::new(), SyncPolicy::Sync);
        for i in 0..5u8 {
            e.append(&[i]).unwrap();
        }
        e.flush_upto(2).unwrap();
        assert_eq!(e.log().len(), 2);
        assert_eq!(e.len() - e.log().len(), 3, "later submissions stay queued");
        assert_eq!(
            e.stats(),
            FlushStats {
                records: 2,
                syncs: 1
            }
        );
        e.flush().unwrap();
        assert_eq!(e.log().len(), 5);
    }

    /// A device that fails on command, for retry-path tests.
    struct FlakyLog {
        inner: MemLog,
        fail_next_append: bool,
        fail_next_sync: bool,
    }

    impl RecordLog for FlakyLog {
        fn append(&mut self, record: &[u8]) -> io::Result<u64> {
            if self.fail_next_append {
                self.fail_next_append = false;
                return Err(io::Error::other("append failed"));
            }
            self.inner.append(record)
        }
        fn sync(&mut self) -> io::Result<()> {
            if self.fail_next_sync {
                self.fail_next_sync = false;
                return Err(io::Error::other("sync failed"));
            }
            self.inner.sync()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read(&self, index: u64) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(index)
        }
        fn truncate_prefix(&mut self, upto: u64) -> io::Result<()> {
            self.inner.truncate_prefix(upto)
        }
    }

    #[test]
    fn failed_sync_retries_without_duplicating_records() {
        let log = FlakyLog {
            inner: MemLog::new(),
            fail_next_append: false,
            fail_next_sync: true,
        };
        let mut e = Engine::new(log, SyncPolicy::Sync);
        for i in 0..3u8 {
            e.append(&[i]).unwrap();
        }
        assert!(e.flush().is_err(), "first flush hits the sync failure");
        // The records reached the log; the retry must only sync.
        e.flush().unwrap();
        assert_eq!(e.log().len(), 3, "no record may be appended twice");
        assert_eq!(
            e.stats(),
            FlushStats {
                records: 3,
                syncs: 1
            }
        );
    }

    #[test]
    fn failed_append_retries_only_the_unwritten_suffix() {
        let log = FlakyLog {
            inner: MemLog::new(),
            fail_next_append: false,
            fail_next_sync: false,
        };
        let mut e = Engine::new(log, SyncPolicy::Sync);
        e.append(&[0]).unwrap();
        e.flush().unwrap();
        for i in 1..4u8 {
            e.append(&[i]).unwrap();
        }
        e.log.fail_next_append = true; // record 1's append fails
        assert!(e.flush().is_err());
        e.flush().unwrap();
        assert_eq!(e.log().len(), 4, "each record lands exactly once");
        for i in 0..4u8 {
            assert_eq!(e.log().read(i as u64).unwrap().unwrap(), vec![i]);
        }
    }
}
