//! An in-memory [`RecordLog`] — the paper's ∞-Persistence configuration, and
//! the workhorse for unit tests.

use crate::RecordLog;
use std::collections::VecDeque;
use std::io;

/// Heap-backed record log. Nothing survives a process crash, by design.
#[derive(Debug, Default, Clone)]
pub struct MemLog {
    records: VecDeque<Vec<u8>>,
    prefix_dropped: u64,
    synced_upto: u64,
}

impl MemLog {
    /// Creates an empty log.
    pub fn new() -> MemLog {
        MemLog::default()
    }

    /// Drops every record after the last sync, simulating a crash under an
    /// asynchronous write policy.
    pub fn crash_to_last_sync(&mut self) {
        while self.prefix_dropped + self.records.len() as u64 > self.synced_upto {
            self.records.pop_back();
        }
    }
}

impl RecordLog for MemLog {
    fn append(&mut self, record: &[u8]) -> io::Result<u64> {
        self.records.push_back(record.to_vec());
        Ok(self.prefix_dropped + self.records.len() as u64 - 1)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.synced_upto = self.prefix_dropped + self.records.len() as u64;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.prefix_dropped + self.records.len() as u64
    }

    fn read(&self, index: u64) -> io::Result<Option<Vec<u8>>> {
        if index < self.prefix_dropped {
            return Ok(None);
        }
        Ok(self
            .records
            .get((index - self.prefix_dropped) as usize)
            .cloned())
    }

    fn truncate_prefix(&mut self, upto: u64) -> io::Result<()> {
        while self.prefix_dropped < upto && !self.records.is_empty() {
            self.records.pop_front();
            self.prefix_dropped += 1;
        }
        Ok(())
    }

    fn first_index(&self) -> u64 {
        self.prefix_dropped
    }

    fn fast_forward(&mut self, index: u64) -> io::Result<()> {
        if index <= self.len() {
            return self.truncate_prefix(index);
        }
        self.records.clear();
        self.prefix_dropped = index;
        self.synced_upto = self.synced_upto.max(index);
        Ok(())
    }

    fn simulate_crash(&mut self) {
        self.crash_to_last_sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let mut log = MemLog::new();
        assert_eq!(log.append(b"a").unwrap(), 0);
        assert_eq!(log.append(b"b").unwrap(), 1);
        assert_eq!(log.read(1).unwrap().unwrap(), b"b");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn crash_semantics() {
        let mut log = MemLog::new();
        log.append(b"synced").unwrap();
        log.sync().unwrap();
        log.append(b"lost").unwrap();
        log.crash_to_last_sync();
        assert_eq!(log.len(), 1);
        assert_eq!(log.read(0).unwrap().unwrap(), b"synced");
        assert_eq!(log.read(1).unwrap(), None);
    }

    #[test]
    fn truncate_prefix_keeps_indices_stable() {
        let mut log = MemLog::new();
        for i in 0..5u8 {
            log.append(&[i]).unwrap();
        }
        log.truncate_prefix(3).unwrap();
        assert_eq!(log.read(2).unwrap(), None);
        assert_eq!(log.read(3).unwrap().unwrap(), vec![3]);
        assert_eq!(log.len(), 5);
    }
}
