//! Group-commit write-ahead logging (the Dura-SMaRt "parallel logging" idea).
//!
//! The latency of one synchronous disk write is roughly independent of how
//! many record batches it carries, so a durability layer that coalesces all
//! batches that arrived since the previous flush pays one fsync for many
//! batches. The paper credits this design with a >3.6× throughput gain over
//! naive per-batch synchronous writes (§IV-B, Observation 1).
//!
//! [`BatchingWriter`] is that coalescing writer, single-threaded and
//! deterministic; `engine::GroupCommitEngine` runs on it.

use crate::RecordLog;
use std::io;

/// Statistics from a straightforward single-threaded batching writer, used by
/// the simulator's disk model and by benchmarks to count fsyncs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Records appended.
    pub records: u64,
    /// fsync operations issued.
    pub syncs: u64,
}

/// A deterministic (single-threaded) coalescing writer: call
/// [`BatchingWriter::submit`] any number of times, then [`BatchingWriter::flush`];
/// the per-flush fsync count is 1 regardless of the number of submissions —
/// exactly the cost model the paper's durability layer exploits.
#[derive(Debug)]
pub struct BatchingWriter<L: RecordLog> {
    log: L,
    pending: Vec<Vec<u8>>,
    stats: FlushStats,
    /// Records appended to the log but not yet covered by a sync (a failed
    /// flush leaves them here so a retry syncs without re-appending).
    unsynced: bool,
}

impl<L: RecordLog> BatchingWriter<L> {
    /// Wraps a log (opened with [`SyncPolicy::Async`] or equivalent).
    pub fn new(log: L) -> BatchingWriter<L> {
        BatchingWriter {
            log,
            pending: Vec::new(),
            stats: FlushStats::default(),
            unsynced: false,
        }
    }

    /// Queues a record for the next flush.
    pub fn submit(&mut self, record: Vec<u8>) {
        self.pending.push(record);
    }

    /// Writes all queued records with a single sync.
    ///
    /// # Errors
    ///
    /// Propagates device errors. Records that reached the log before the
    /// failure are *not* re-queued (re-appending them on retry would
    /// duplicate them); the failed record and everything after it stay
    /// queued, and an un-synced append is synced by the next flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.flush_first(self.pending.len())
    }

    /// Writes the first `count` queued records with a single sync, leaving
    /// later submissions queued — the commit point for one device sync that
    /// was *issued* before those later records arrived (a sync in flight
    /// cannot cover records submitted after it started).
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchingWriter::flush`].
    pub fn flush_first(&mut self, count: usize) -> io::Result<()> {
        let count = count.min(self.pending.len());
        if count == 0 && !self.unsynced {
            return Ok(());
        }
        let mut appended = 0usize;
        let mut append_err = None;
        for rec in self.pending.iter().take(count) {
            match self.log.append(rec) {
                Ok(_) => appended += 1,
                Err(e) => {
                    append_err = Some(e);
                    break;
                }
            }
        }
        self.stats.records += appended as u64;
        self.pending.drain(..appended);
        self.unsynced = self.unsynced || appended > 0;
        if let Some(e) = append_err {
            return Err(e);
        }
        self.log.sync()?;
        self.unsynced = false;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Records queued for the next flush (not yet durable).
    pub fn pending(&self) -> &[Vec<u8>] {
        &self.pending
    }

    /// Drops all queued records without writing them — what a crash before
    /// the flush point does.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Cumulative write statistics.
    pub fn stats(&self) -> FlushStats {
        self.stats
    }

    /// Consumes the writer, returning the wrapped log.
    pub fn into_inner(self) -> L {
        self.log
    }

    /// Borrows the wrapped log.
    pub fn inner(&self) -> &L {
        &self.log
    }

    /// Mutably borrows the wrapped log (e.g. for prefix truncation after a
    /// checkpoint). Pending (unflushed) records are unaffected.
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemLog;

    #[test]
    fn batching_writer_one_sync_per_flush() {
        let mut w = BatchingWriter::new(MemLog::new());
        for i in 0..10u8 {
            w.submit(vec![i]);
        }
        w.flush().unwrap();
        assert_eq!(
            w.stats(),
            FlushStats {
                records: 10,
                syncs: 1
            }
        );
        for i in 10..20u8 {
            w.submit(vec![i]);
        }
        w.flush().unwrap();
        assert_eq!(
            w.stats(),
            FlushStats {
                records: 20,
                syncs: 2
            }
        );
        assert_eq!(w.inner().len(), 20);
    }

    #[test]
    fn flush_empty_is_free() {
        let mut w = BatchingWriter::new(MemLog::new());
        w.flush().unwrap();
        assert_eq!(w.stats(), FlushStats::default());
    }

    #[test]
    fn flush_first_covers_only_the_prefix() {
        let mut w = BatchingWriter::new(MemLog::new());
        for i in 0..5u8 {
            w.submit(vec![i]);
        }
        w.flush_first(2).unwrap();
        assert_eq!(w.inner().len(), 2);
        assert_eq!(w.pending().len(), 3, "later submissions stay queued");
        assert_eq!(
            w.stats(),
            FlushStats {
                records: 2,
                syncs: 1
            }
        );
        w.flush().unwrap();
        assert_eq!(w.inner().len(), 5);
    }

    /// A device that fails on command, for retry-path tests.
    struct FlakyLog {
        inner: MemLog,
        fail_next_append: bool,
        fail_next_sync: bool,
    }

    impl RecordLog for FlakyLog {
        fn append(&mut self, record: &[u8]) -> std::io::Result<u64> {
            if self.fail_next_append {
                self.fail_next_append = false;
                return Err(std::io::Error::other("append failed"));
            }
            self.inner.append(record)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            if self.fail_next_sync {
                self.fail_next_sync = false;
                return Err(std::io::Error::other("sync failed"));
            }
            self.inner.sync()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read(&self, index: u64) -> std::io::Result<Option<Vec<u8>>> {
            self.inner.read(index)
        }
        fn truncate_prefix(&mut self, upto: u64) -> std::io::Result<()> {
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
        let mut w = BatchingWriter::new(log);
        for i in 0..3u8 {
            w.submit(vec![i]);
        }
        assert!(w.flush().is_err(), "first flush hits the sync failure");
        // The records reached the log; the retry must only sync.
        w.flush().unwrap();
        assert_eq!(w.inner().len(), 3, "no record may be appended twice");
        assert_eq!(
            w.stats(),
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
        let mut w = BatchingWriter::new(log);
        w.submit(vec![0]);
        w.flush().unwrap();
        for i in 1..4u8 {
            w.submit(vec![i]);
        }
        w.inner_mut().fail_next_append = true; // record 1's append fails
        assert!(w.flush().is_err());
        w.flush().unwrap();
        assert_eq!(w.inner().len(), 4, "each record lands exactly once");
        for i in 0..4u8 {
            assert_eq!(w.inner().read(i as u64).unwrap().unwrap(), vec![i]);
        }
    }
}
