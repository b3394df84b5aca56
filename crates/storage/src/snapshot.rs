//! Durable snapshot (checkpoint) store.
//!
//! SmartChain stores service snapshots *outside* the blockchain, in their own
//! files, with each snapshot referencing the last block whose transactions it
//! covers (paper §V-B3). Installation is atomic (write-to-temp + rename) so a
//! crash mid-checkpoint leaves the previous snapshot intact.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::crc32::Crc32;

/// File layout: `MAGIC ‖ covered_block ‖ state_len ‖ meta_len` (u64s,
/// little-endian), then `state ‖ meta ‖ crc32(state ‖ meta)`.
const MAGIC: &[u8; 4] = b"SCS2";
const HEADER_BYTES: usize = 28;

/// Metadata + payload of one snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Number of the last block covered by this snapshot (inclusive).
    pub covered_block: u64,
    /// Serialized application state.
    pub state: Vec<u8>,
    /// Opaque consumer metadata stored (and CRC-protected) alongside the
    /// state — e.g. the runtime's dedup frontier and batch chain tip at the
    /// covered point. Empty for consumers that need none.
    pub meta: Vec<u8>,
}

/// A directory-backed snapshot store keeping the most recent snapshot.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SnapshotStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    fn current_path(&self) -> PathBuf {
        self.dir.join("snapshot.current")
    }

    /// Atomically installs `snapshot` as the current one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure the previous snapshot remains.
    pub fn install(&self, snapshot: &Snapshot) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut header = [0u8; HEADER_BYTES];
            header[..4].copy_from_slice(MAGIC);
            header[4..12].copy_from_slice(&snapshot.covered_block.to_le_bytes());
            header[12..20].copy_from_slice(&(snapshot.state.len() as u64).to_le_bytes());
            header[20..28].copy_from_slice(&(snapshot.meta.len() as u64).to_le_bytes());
            let mut crc = Crc32::new();
            crc.update(&snapshot.state);
            crc.update(&snapshot.meta);
            let mut f = File::create(&tmp)?;
            f.write_all(&header)?;
            f.write_all(&snapshot.state)?;
            f.write_all(&snapshot.meta)?;
            f.write_all(&crc.finish().to_le_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.current_path())?;
        crate::sync_dir(&self.dir);
        Ok(())
    }

    /// Loads the current snapshot; `None` when none has been installed.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the snapshot file is corrupt.
    pub fn load(&self) -> io::Result<Option<Snapshot>> {
        let mut f = match File::open(self.current_path()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
        let mut header = [0u8; HEADER_BYTES];
        match f.read_exact(&mut header) {
            Ok(()) if &header[..4] == MAGIC => {}
            Ok(()) => return Err(invalid("bad snapshot header")),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(invalid("bad snapshot header"))
            }
            Err(e) => return Err(e),
        }
        let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let (covered_block, state_len, meta_len) = (field(4), field(12), field(20));
        // Check the lengths against the file before allocating for them.
        let expected = state_len
            .checked_add(meta_len)
            .and_then(|n| n.checked_add(HEADER_BYTES as u64 + 4));
        if expected != Some(f.metadata()?.len()) {
            return Err(invalid("bad snapshot length"));
        }
        let size = |n: u64| usize::try_from(n).map_err(|_| invalid("bad snapshot length"));
        let mut state = vec![0u8; size(state_len)?];
        let mut meta = vec![0u8; size(meta_len)?];
        let mut crc = [0u8; 4];
        f.read_exact(&mut state)?;
        f.read_exact(&mut meta)?;
        f.read_exact(&mut crc)?;
        let mut check = Crc32::new();
        check.update(&state);
        check.update(&meta);
        if check.finish() != u32::from_le_bytes(crc) {
            return Err(invalid("snapshot crc mismatch"));
        }
        Ok(Some(Snapshot {
            covered_block,
            state,
            meta,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;

    fn store() -> (TempDir, SnapshotStore) {
        let dir = TempDir::new("smartchain-snap-test");
        let store = SnapshotStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn empty_store_loads_none() {
        let (_dir, s) = store();
        assert_eq!(s.load().unwrap(), None);
    }

    #[test]
    fn install_load_roundtrip() {
        let (_dir, s) = store();
        let snap = Snapshot {
            covered_block: 42,
            state: vec![1, 2, 3, 4],
            meta: vec![9, 9],
        };
        s.install(&snap).unwrap();
        assert_eq!(s.load().unwrap(), Some(snap));
    }

    #[test]
    fn newer_snapshot_replaces_older() {
        let (_dir, s) = store();
        s.install(&Snapshot {
            covered_block: 1,
            state: vec![1],
            meta: Vec::new(),
        })
        .unwrap();
        s.install(&Snapshot {
            covered_block: 2,
            state: vec![2],
            meta: Vec::new(),
        })
        .unwrap();
        assert_eq!(s.load().unwrap().unwrap().covered_block, 2);
    }

    #[test]
    fn corruption_detected() {
        let (_dir, s) = store();
        s.install(&Snapshot {
            covered_block: 7,
            state: vec![9u8; 100],
            meta: Vec::new(),
        })
        .unwrap();
        let path = s.current_path();
        let mut data = fs::read(&path).unwrap();
        data[50] ^= 0x01;
        fs::write(&path, data).unwrap();
        assert!(s.load().is_err());
    }

    #[test]
    fn truncated_or_lying_header_rejected() {
        let (_dir, s) = store();
        s.install(&Snapshot {
            covered_block: 3,
            state: vec![5u8; 64],
            meta: vec![6u8; 8],
        })
        .unwrap();
        let path = s.current_path();
        let good = fs::read(&path).unwrap();
        for cut in [0, 10, HEADER_BYTES, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            let err = s.load().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // A state length the file cannot hold fails before any allocation.
        let mut lying = good.clone();
        lying[12..20].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        fs::write(&path, &lying).unwrap();
        assert_eq!(s.load().unwrap_err().kind(), io::ErrorKind::InvalidData);
        fs::write(&path, &good).unwrap();
        assert_eq!(s.load().unwrap().unwrap().covered_block, 3);
    }

    #[test]
    fn file_layout_is_pinned() {
        let (_dir, s) = store();
        let (state, meta) = (b"state-bytes".to_vec(), b"meta".to_vec());
        let mut file = b"SCS2".to_vec();
        file.extend_from_slice(&9u64.to_le_bytes());
        file.extend_from_slice(&(state.len() as u64).to_le_bytes());
        file.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        file.extend_from_slice(&state);
        file.extend_from_slice(&meta);
        let crc = crate::crc32::checksum(&[state.as_slice(), &meta].concat());
        file.extend_from_slice(&crc.to_le_bytes());
        let snap = Snapshot {
            covered_block: 9,
            state,
            meta,
        };
        s.install(&snap).unwrap();
        assert_eq!(fs::read(s.current_path()).unwrap(), file);
        fs::write(s.current_path(), &file).unwrap();
        assert_eq!(s.load().unwrap(), Some(snap));
    }
}
