//! A segmented append-only log: fixed-capacity, CRC-framed segment files
//! plus a manifest, so log *compaction* after a checkpoint is an
//! O(segment-delete) operation instead of a full-file rewrite, and recovery
//! scans only the active segment instead of the whole history.
//!
//! Layout under the log directory:
//!
//! ```text
//! manifest            prefix watermark + sealed-segment index + active base
//! seg-<base>.seg      "SCSG" + base, then [len u32][crc u32][payload] frames
//! ```
//!
//! Invariants the crash protocol maintains:
//!
//! * a segment is **sealed** only after its file is fsynced, and only then
//!   referenced by a new manifest — so a sealed segment's `(base, count,
//!   bytes)` triple in the manifest is trusted at recovery without scanning
//!   its records;
//! * the **active** segment is scanned record-by-record at open (CRC), and
//!   a torn tail (crash mid-append) is discarded — the only per-record scan
//!   recovery performs;
//! * **truncation** writes the new manifest (tmp + atomic rename) *before*
//!   deleting dropped segment files; a crash in between leaves orphan files
//!   that the next open removes. A crash before the rename leaves the old
//!   manifest and all files — recovery sees the pre-truncation log, which
//!   is correct (truncation merely re-runs);
//! * a **manifest/segment disagreement** (missing or size-mismatched sealed
//!   file — possible only under external corruption) degrades to the
//!   longest valid prefix: the damaged segment is re-scanned, becomes the
//!   new active tail, and everything after it is dropped.

use crate::{crc32, RecordLog};
use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MANIFEST_MAGIC: &[u8; 4] = b"SCMF";
const SEGMENT_MAGIC: &[u8; 4] = b"SCSG";
const SEGMENT_HEADER_BYTES: u64 = 12; // magic + base
const FRAME_HEADER_BYTES: u64 = 8; // len + crc

/// Sizing of one segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Records per segment before it is sealed and a fresh one opens.
    pub records_per_segment: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            records_per_segment: 1024,
        }
    }
}

/// What the last [`SegmentedLog::open`] had to do — the observable proof
/// that recovery cost is bounded by the segment size, not the history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segment files whose records were scanned (normally 1: the active
    /// segment; more only on manifest loss/disagreement).
    pub segments_scanned: u64,
    /// Record frames read during the scan.
    pub records_scanned: u64,
}

/// A sealed (immutable, fsynced) segment. Its record offsets are rebuilt
/// lazily on first read — recovery never scans it — and its read handle is
/// opened once and reused (positional reads, no per-record open/seek).
#[derive(Debug)]
struct SealedSegment {
    base: u64,
    count: u64,
    bytes: u64,
    path: PathBuf,
    offsets: RefCell<Option<Vec<u64>>>,
    file: RefCell<Option<File>>,
}

#[derive(Debug)]
struct ActiveSegment {
    base: u64,
    path: PathBuf,
    file: File,
    /// Frame start offsets of each record in the file.
    offsets: Vec<u64>,
    /// Byte length of the valid prefix.
    tail: u64,
    /// Records/bytes covered by the last explicit sync (drives
    /// [`RecordLog::simulate_crash`], so the virtual-time simulator can run
    /// this log with faithful crash semantics).
    synced_records: u64,
    synced_tail: u64,
}

/// The segmented log. Record indices are global and stable across rolls and
/// truncation (truncated indices read as `None`).
///
/// A medium, not a policy: `append` writes and `sync` fsyncs the active
/// segment; when to sync is decided by the [`Engine`](crate::Engine) above
/// it. Only sealing a segment fsyncs on its own (the manifest vouches for
/// sealed segments).
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    config: SegmentConfig,
    /// Records with index < this are logically removed.
    prefix_dropped: u64,
    sealed: Vec<SealedSegment>,
    active: ActiveSegment,
    recovery: RecoveryStats,
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:020}.seg"))
}

fn parse_segment_base(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn create_segment(dir: &Path, base: u64) -> io::Result<ActiveSegment> {
    let path = segment_path(dir, base);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&base.to_le_bytes())?;
    Ok(ActiveSegment {
        base,
        path,
        file,
        offsets: Vec::new(),
        tail: SEGMENT_HEADER_BYTES,
        synced_records: 0,
        synced_tail: SEGMENT_HEADER_BYTES,
    })
}

/// Scans a segment file: validates the header, collects the frame offsets of
/// the longest valid (CRC-checked) record prefix, and returns the byte
/// length of that prefix.
fn scan_segment(path: &Path, expect_base: u64) -> io::Result<(Vec<u64>, u64, u64)> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < SEGMENT_HEADER_BYTES as usize
        || &data[..4] != SEGMENT_MAGIC
        || u64::from_le_bytes(data[4..12].try_into().expect("8 bytes")) != expect_base
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad segment header",
        ));
    }
    let mut offsets = Vec::new();
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    let mut scanned = 0u64;
    loop {
        if pos + FRAME_HEADER_BYTES as usize > data.len() {
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if pos + 8 + len > data.len() {
            break; // torn tail
        }
        if crc32::checksum(&data[pos + 8..pos + 8 + len]) != crc {
            break; // corrupt tail
        }
        offsets.push(pos as u64);
        scanned += 1;
        pos += 8 + len;
    }
    Ok((offsets, pos as u64, scanned))
}

/// Scans only the frame headers of a sealed segment (offsets for random
/// reads; payload CRCs are checked per read).
fn index_segment(path: &Path, count: u64) -> io::Result<Vec<u64>> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut offsets = Vec::with_capacity(count as usize);
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    for _ in 0..count {
        if pos + FRAME_HEADER_BYTES as usize > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sealed segment shorter than its manifest entry",
            ));
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        offsets.push(pos as u64);
        pos += 8 + len;
    }
    Ok(offsets)
}

/// Opens the segment at `base` as the active tail: scans its valid record
/// prefix and truncates any torn tail. Falls back to a fresh empty segment
/// ONLY when the file is missing or shorter than its header (the crash
/// window between a roll's manifest write and the new file's creation) —
/// or, with `degrade_invalid` (the manifest/segment-disagreement path),
/// when the header itself is invalid. Any other failure (I/O errors, a
/// corrupt header on a normally-referenced segment) propagates: silently
/// re-creating an existing segment would destroy fsync-acked records.
fn open_active(
    dir: &Path,
    base: u64,
    degrade_invalid: bool,
    recovery: &mut RecoveryStats,
) -> io::Result<ActiveSegment> {
    let path = segment_path(dir, base);
    match scan_segment(&path, base) {
        Ok((offsets, tail, scanned)) => {
            recovery.segments_scanned += 1;
            recovery.records_scanned += scanned;
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            file.set_len(tail)?;
            file.seek(SeekFrom::End(0))?;
            let records = offsets.len() as u64;
            Ok(ActiveSegment {
                base,
                path,
                file,
                offsets,
                tail,
                synced_records: records,
                synced_tail: tail,
            })
        }
        Err(e) => {
            let recreate = match fs::metadata(&path) {
                Err(me) if me.kind() == io::ErrorKind::NotFound => true,
                Ok(m) => {
                    m.len() < SEGMENT_HEADER_BYTES
                        || (degrade_invalid && e.kind() == io::ErrorKind::InvalidData)
                }
                Err(_) => false,
            };
            if recreate {
                create_segment(dir, base)
            } else {
                Err(e)
            }
        }
    }
}

#[derive(Debug)]
struct Manifest {
    prefix_dropped: u64,
    sealed: Vec<(u64, u64, u64)>, // (base, count, bytes)
    active_base: u64,
}

fn read_manifest(path: &Path) -> io::Result<Option<Manifest>> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "corrupt manifest");
    if data.len() < 4 + 8 + 4 + 8 + 4 || &data[..4] != MANIFEST_MAGIC {
        return Err(bad());
    }
    let body_len = data.len() - 4;
    let crc = u32::from_le_bytes(data[body_len..].try_into().expect("4 bytes"));
    if crc32::checksum(&data[..body_len]) != crc {
        return Err(bad());
    }
    let mut pos = 4;
    let read_u64 = |pos: &mut usize| -> io::Result<u64> {
        if *pos + 8 > body_len {
            return Err(bad());
        }
        let v = u64::from_le_bytes(data[*pos..*pos + 8].try_into().expect("8 bytes"));
        *pos += 8;
        Ok(v)
    };
    let prefix_dropped = read_u64(&mut pos)?;
    let count = read_u64(&mut pos)?;
    let mut sealed = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let base = read_u64(&mut pos)?;
        let n = read_u64(&mut pos)?;
        let bytes = read_u64(&mut pos)?;
        sealed.push((base, n, bytes));
    }
    let active_base = read_u64(&mut pos)?;
    Ok(Some(Manifest {
        prefix_dropped,
        sealed,
        active_base,
    }))
}

impl SegmentedLog {
    /// Opens (or creates) the segmented log rooted at `dir`, recovering the
    /// longest valid prefix. Only the active segment is scanned; sealed
    /// segments are trusted from the manifest (see [`RecoveryStats`]).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors opening or scanning the directory.
    pub fn open(dir: impl AsRef<Path>, config: SegmentConfig) -> io::Result<SegmentedLog> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let config = SegmentConfig {
            records_per_segment: config.records_per_segment.max(1),
        };
        let manifest = read_manifest(&dir.join("manifest")).unwrap_or(None);
        let mut recovery = RecoveryStats::default();
        let mut log = match manifest {
            Some(m) => Self::open_from_manifest(&dir, config, m, &mut recovery)?,
            None => Self::rebuild_by_scanning(&dir, config, &mut recovery)?,
        };
        log.recovery = recovery;
        log.remove_orphans()?;
        Ok(log)
    }

    fn open_from_manifest(
        dir: &Path,
        config: SegmentConfig,
        manifest: Manifest,
        recovery: &mut RecoveryStats,
    ) -> io::Result<SegmentedLog> {
        let mut sealed = Vec::with_capacity(manifest.sealed.len());
        let mut expected_base = manifest.sealed.first().map(|&(b, ..)| b);
        let mut damaged: Option<u64> = None;
        for &(base, count, bytes) in &manifest.sealed {
            // Cheap validation only: existence, header-sized, recorded byte
            // length. A disagreement marks the longest-valid-prefix point.
            let path = segment_path(dir, base);
            let ok = expected_base == Some(base)
                && fs::metadata(&path)
                    .map(|m| m.len() == bytes)
                    .unwrap_or(false);
            if !ok {
                damaged = Some(base);
                break;
            }
            expected_base = Some(base + count);
            sealed.push(SealedSegment {
                base,
                count,
                bytes,
                path,
                offsets: RefCell::new(None),
                file: RefCell::new(None),
            });
        }
        if let Some(base) = damaged {
            // Disagreement: fall back to scanning what actually exists up to
            // the damaged point — the damaged segment becomes the active
            // tail (longest valid prefix at segment granularity).
            return Self::recover_damaged(
                dir,
                config,
                manifest.prefix_dropped,
                sealed,
                base,
                recovery,
            );
        }
        let active = open_active(dir, manifest.active_base, false, recovery)?;
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            config,
            prefix_dropped: manifest.prefix_dropped,
            sealed,
            active,
            recovery: RecoveryStats::default(),
        })
    }

    /// A sealed segment disagreed with the manifest: re-scan it for its
    /// valid record prefix and make it the active tail, dropping everything
    /// after it.
    fn recover_damaged(
        dir: &Path,
        config: SegmentConfig,
        prefix_dropped: u64,
        sealed: Vec<SealedSegment>,
        damaged_base: u64,
        recovery: &mut RecoveryStats,
    ) -> io::Result<SegmentedLog> {
        let active = open_active(dir, damaged_base, true, recovery)?;
        let log = SegmentedLog {
            dir: dir.to_path_buf(),
            config,
            prefix_dropped: prefix_dropped.min(damaged_base),
            sealed,
            active,
            recovery: RecoveryStats::default(),
        };
        log.write_manifest()?;
        Ok(log)
    }

    /// No (valid) manifest: rebuild from whatever segment files exist —
    /// every segment is scanned, contiguity decides the longest valid
    /// prefix, and the last contiguous segment becomes active.
    fn rebuild_by_scanning(
        dir: &Path,
        config: SegmentConfig,
        recovery: &mut RecoveryStats,
    ) -> io::Result<SegmentedLog> {
        let mut bases: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_base(&e.file_name().to_string_lossy()))
            .collect();
        bases.sort_unstable();
        let mut sealed: Vec<SealedSegment> = Vec::new();
        let mut active: Option<ActiveSegment> = None;
        let mut expected = bases.first().copied().unwrap_or(0);
        for (i, &base) in bases.iter().enumerate() {
            if base != expected {
                break; // gap: longest contiguous prefix ends here
            }
            let path = segment_path(dir, base);
            let Ok((offsets, tail, scanned)) = scan_segment(&path, base) else {
                break;
            };
            recovery.segments_scanned += 1;
            recovery.records_scanned += scanned;
            expected = base + offsets.len() as u64;
            if i + 1 == bases.len() {
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.set_len(tail)?;
                file.seek(SeekFrom::End(0))?;
                let records = offsets.len() as u64;
                active = Some(ActiveSegment {
                    base,
                    path,
                    file,
                    offsets,
                    tail,
                    synced_records: records,
                    synced_tail: tail,
                });
            } else {
                sealed.push(SealedSegment {
                    base,
                    count: offsets.len() as u64,
                    bytes: tail,
                    path,
                    offsets: RefCell::new(Some(offsets)),
                    file: RefCell::new(None),
                });
            }
        }
        let active = match active {
            Some(a) => a,
            None => {
                let base = sealed.last().map(|s| s.base + s.count).unwrap_or(0);
                create_segment(dir, base)?
            }
        };
        let prefix_dropped = sealed.first().map(|s| s.base).unwrap_or(active.base);
        let log = SegmentedLog {
            dir: dir.to_path_buf(),
            config,
            prefix_dropped,
            sealed,
            active,
            recovery: RecoveryStats::default(),
        };
        log.write_manifest()?;
        Ok(log)
    }

    /// Deletes segment files the manifest no longer references (leftovers of
    /// a truncation that crashed between the manifest write and the
    /// deletes).
    fn remove_orphans(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(base) = parse_segment_base(&name) else {
                continue;
            };
            let referenced = base == self.active.base || self.sealed.iter().any(|s| s.base == base);
            if !referenced {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    fn write_manifest(&self) -> io::Result<()> {
        let mut body = Vec::new();
        body.extend_from_slice(MANIFEST_MAGIC);
        body.extend_from_slice(&self.prefix_dropped.to_le_bytes());
        body.extend_from_slice(&(self.sealed.len() as u64).to_le_bytes());
        for s in &self.sealed {
            body.extend_from_slice(&s.base.to_le_bytes());
            body.extend_from_slice(&s.count.to_le_bytes());
            body.extend_from_slice(&s.bytes.to_le_bytes());
        }
        body.extend_from_slice(&self.active.base.to_le_bytes());
        let crc = crc32::checksum(&body).to_le_bytes();
        let tmp = self.dir.join("manifest.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.write_all(&crc)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join("manifest"))?;
        crate::sync_dir(&self.dir);
        Ok(())
    }

    /// Seals the active segment (fsync, manifest) and opens a fresh one.
    fn roll(&mut self) -> io::Result<()> {
        // Order matters: data durable first, then the manifest that vouches
        // for it, then the new file. Any crash in between recovers.
        self.active.file.sync_data()?;
        let next_base = self.active.base + self.active.offsets.len() as u64;
        let sealed = SealedSegment {
            base: self.active.base,
            count: self.active.offsets.len() as u64,
            bytes: self.active.tail,
            path: self.active.path.clone(),
            offsets: RefCell::new(Some(std::mem::take(&mut self.active.offsets))),
            file: RefCell::new(None),
        };
        self.sealed.push(sealed);
        let previous_active = self.active.base;
        self.active.base = next_base; // manifest below must name the new base
        self.write_manifest().inspect_err(|_| {
            // Roll back the in-memory seal on failure.
            let s = self.sealed.pop().expect("just pushed");
            self.active.base = previous_active;
            self.active.offsets = s.offsets.into_inner().unwrap_or_default();
        })?;
        self.active = create_segment(&self.dir, next_base)?;
        Ok(())
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the last open had to scan.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Lowest readable record index (records below it were truncated).
    pub fn first_index(&self) -> u64 {
        self.prefix_dropped
    }

    /// Segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Bytes currently on disk across all live segments.
    pub fn byte_len(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.tail
    }

    fn read_sealed(&self, seg: &SealedSegment, local: u64) -> io::Result<Option<Vec<u8>>> {
        {
            let mut cache = seg.offsets.borrow_mut();
            if cache.is_none() {
                *cache = Some(index_segment(&seg.path, seg.count)?);
            }
        }
        let offsets = seg.offsets.borrow();
        let offsets = offsets.as_ref().expect("just built");
        let Some(&offset) = offsets.get(local as usize) else {
            return Ok(None);
        };
        {
            let mut handle = seg.file.borrow_mut();
            if handle.is_none() {
                *handle = Some(File::open(&seg.path)?);
            }
        }
        let handle = seg.file.borrow();
        read_frame_in(handle.as_ref().expect("just opened"), &seg.path, offset).map(Some)
    }
}

/// Reads one CRC-checked frame at `offset` from an already-open handle —
/// positional reads on Unix (no seek, no cursor disturbance, so the active
/// segment's append cursor is safe); a one-off reopen elsewhere.
fn read_frame_in(file: &File, path: &Path, offset: u64) -> io::Result<Vec<u8>> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let _ = path;
        let mut header = [0u8; 8];
        file.read_exact_at(&mut header, offset)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let mut payload = vec![0u8; len];
        file.read_exact_at(&mut payload, offset + 8)?;
        if crc32::checksum(&payload) != crc {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "crc mismatch"));
        }
        Ok(payload)
    }
    #[cfg(not(unix))]
    {
        let _ = file;
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; 8];
        file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let mut payload = vec![0u8; len];
        file.read_exact(&mut payload)?;
        if crc32::checksum(&payload) != crc {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "crc mismatch"));
        }
        Ok(payload)
    }
}

impl RecordLog for SegmentedLog {
    fn append(&mut self, record: &[u8]) -> io::Result<u64> {
        if self.active.offsets.len() as u64 >= self.config.records_per_segment {
            self.roll()?;
        }
        let len = (record.len() as u32).to_le_bytes();
        let crc = crc32::checksum(record).to_le_bytes();
        self.active.file.write_all(&len)?;
        self.active.file.write_all(&crc)?;
        self.active.file.write_all(record)?;
        self.active.offsets.push(self.active.tail);
        self.active.tail += FRAME_HEADER_BYTES + record.len() as u64;
        Ok(self.active.base + self.active.offsets.len() as u64 - 1)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.active.file.sync_data()?;
        self.active.synced_records = self.active.offsets.len() as u64;
        self.active.synced_tail = self.active.tail;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.active.base + self.active.offsets.len() as u64
    }

    fn read(&self, index: u64) -> io::Result<Option<Vec<u8>>> {
        if index < self.prefix_dropped || index >= self.len() {
            return Ok(None);
        }
        if index >= self.active.base {
            let local = (index - self.active.base) as usize;
            let Some(&offset) = self.active.offsets.get(local) else {
                return Ok(None);
            };
            return read_frame_in(&self.active.file, &self.active.path, offset).map(Some);
        }
        match self
            .sealed
            .binary_search_by(|s| match (s.base <= index, index < s.base + s.count) {
                (true, true) => std::cmp::Ordering::Equal,
                (false, _) => std::cmp::Ordering::Greater,
                (_, false) => std::cmp::Ordering::Less,
            }) {
            Ok(i) => {
                let seg = &self.sealed[i];
                self.read_sealed(seg, index - seg.base)
            }
            Err(_) => Ok(None),
        }
    }

    fn first_index(&self) -> u64 {
        self.prefix_dropped
    }

    fn truncate_prefix(&mut self, upto: u64) -> io::Result<()> {
        let upto = upto.min(self.len());
        if upto <= self.prefix_dropped {
            return Ok(());
        }
        self.prefix_dropped = upto;
        // Drop fully-covered sealed segments: manifest first (atomic), file
        // deletes second — a crash in between leaves orphans, not data loss.
        let mut dropped = Vec::new();
        self.sealed.retain(|s| {
            if s.base + s.count <= upto {
                dropped.push(s.path.clone());
                false
            } else {
                true
            }
        });
        self.write_manifest()?;
        for path in dropped {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }

    fn fast_forward(&mut self, index: u64) -> io::Result<()> {
        if index <= self.len() {
            return self.truncate_prefix(index);
        }
        // Skip to `index` without materializing pad records: every existing
        // segment is dropped and a fresh active segment opens at the target.
        let old_sealed: Vec<PathBuf> = self.sealed.drain(..).map(|s| s.path).collect();
        let old_active = self.active.path.clone();
        self.prefix_dropped = index;
        self.active = create_segment(&self.dir, index)?;
        self.write_manifest()?;
        for path in old_sealed {
            let _ = fs::remove_file(path);
        }
        if old_active != self.active.path {
            let _ = fs::remove_file(old_active);
        }
        Ok(())
    }

    fn simulate_crash(&mut self) {
        // Modeled power loss (the simulator's crash event): the active
        // segment keeps only its synced prefix. Sealed segments were fsynced
        // when sealed, so they survive — exactly the OS contract.
        self.active
            .offsets
            .truncate(self.active.synced_records as usize);
        self.active.tail = self.active.synced_tail;
        let _ = self.active.file.set_len(self.active.synced_tail);
        let _ = self.active.file.seek(SeekFrom::End(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;

    fn tmpdir(name: &str) -> TempDir {
        TempDir::new(&format!("smartchain-segmented-{name}"))
    }

    fn cfg(n: u64) -> SegmentConfig {
        SegmentConfig {
            records_per_segment: n,
        }
    }

    #[test]
    fn roundtrip_across_rolls_and_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let mut log = SegmentedLog::open(&dir, cfg(4)).unwrap();
            for i in 0..11u64 {
                assert_eq!(log.append(format!("rec-{i}").as_bytes()).unwrap(), i);
            }
            assert_eq!(log.segment_count(), 3); // [0..4) [4..8) active [8..11)
            assert_eq!(log.read(0).unwrap().unwrap(), b"rec-0");
            assert_eq!(log.read(7).unwrap().unwrap(), b"rec-7");
            assert_eq!(log.read(10).unwrap().unwrap(), b"rec-10");
            assert_eq!(log.read(11).unwrap(), None);
        }
        let log = SegmentedLog::open(&dir, cfg(4)).unwrap();
        assert_eq!(log.len(), 11);
        for i in 0..11u64 {
            assert_eq!(
                log.read(i).unwrap().unwrap(),
                format!("rec-{i}").into_bytes()
            );
        }
        // Recovery scanned only the active segment (3 records), not the 8
        // sealed ones.
        assert_eq!(
            log.recovery_stats(),
            RecoveryStats {
                segments_scanned: 1,
                records_scanned: 3
            }
        );
    }

    #[test]
    fn truncate_prefix_deletes_whole_segments() {
        let dir = tmpdir("truncate");
        let mut log = SegmentedLog::open(&dir, cfg(4)).unwrap();
        for i in 0..14u64 {
            log.append(&[i as u8]).unwrap();
        }
        assert_eq!(log.segment_count(), 4);
        log.truncate_prefix(9).unwrap();
        // Segments [0..4) and [4..8) are gone; [8..12) keeps record 8 on
        // disk but hides it behind the watermark.
        assert_eq!(log.segment_count(), 2);
        assert_eq!(log.read(7).unwrap(), None);
        assert_eq!(log.read(8).unwrap(), None);
        assert_eq!(log.read(9).unwrap().unwrap(), vec![9]);
        assert_eq!(log.len(), 14);
        assert_eq!(log.append(&[14]).unwrap(), 14);
        drop(log);
        let log = SegmentedLog::open(&dir, cfg(4)).unwrap();
        assert_eq!(log.read(5).unwrap(), None);
        assert_eq!(log.read(9).unwrap().unwrap(), vec![9]);
        assert_eq!(log.read(14).unwrap().unwrap(), vec![14]);
    }

    #[test]
    fn torn_active_tail_is_discarded() {
        let dir = tmpdir("torn");
        {
            let mut log = SegmentedLog::open(&dir, cfg(8)).unwrap();
            for i in 0..3u64 {
                log.append(&[i as u8; 16]).unwrap();
            }
        }
        // Crash mid-append: half a frame at the active tail.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(segment_path(&dir, 0))
                .unwrap();
            f.write_all(&[0xFF; 5]).unwrap();
        }
        let log = SegmentedLog::open(&dir, cfg(8)).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.read(2).unwrap().unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn corrupt_record_stops_recovery() {
        let dir = tmpdir("corrupt");
        {
            let mut log = SegmentedLog::open(&dir, cfg(8)).unwrap();
            for record in [&b"first"[..], b"second", b"third"] {
                log.append(record).unwrap();
            }
        }
        // Flip a payload byte of the second record in the active segment.
        let path = segment_path(&dir, 0);
        let mut data = fs::read(&path).unwrap();
        let second_payload = SEGMENT_HEADER_BYTES + FRAME_HEADER_BYTES + 5 + FRAME_HEADER_BYTES;
        data[second_payload as usize] ^= 0xff;
        fs::write(&path, data).unwrap();
        // Recovery keeps the longest valid prefix: the record before the
        // corruption, nothing from it on.
        let mut log = SegmentedLog::open(&dir, cfg(8)).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.read(0).unwrap().unwrap(), b"first");
        assert_eq!(log.read(1).unwrap(), None);
        // The log appends from the end of that prefix.
        assert_eq!(log.append(b"again").unwrap(), 1);
        drop(log);
        let log = SegmentedLog::open(&dir, cfg(8)).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.read(1).unwrap().unwrap(), b"again");
    }

    #[test]
    fn empty_records_are_valid() {
        let dir = tmpdir("empty");
        {
            let mut log = SegmentedLog::open(&dir, cfg(8)).unwrap();
            log.append(b"").unwrap();
            log.append(b"after").unwrap();
        }
        let log = SegmentedLog::open(&dir, cfg(8)).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.read(0).unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(log.read(1).unwrap().unwrap(), b"after");
    }

    #[test]
    fn crash_between_manifest_and_deletes_leaves_recoverable_orphans() {
        let dir = tmpdir("orphan");
        let mut log = SegmentedLog::open(&dir, cfg(2)).unwrap();
        for i in 0..6u64 {
            log.append(&[i as u8]).unwrap();
        }
        drop(log);
        // Simulate the crash window: re-create a dropped segment file as it
        // was before a truncation wrote the manifest... i.e. write a
        // manifest that no longer references segment 0 while its file stays.
        {
            let mut log = SegmentedLog::open(&dir, cfg(2)).unwrap();
            // Truncation deletes files after the manifest; emulate the crash
            // by re-creating the dropped file afterwards.
            log.truncate_prefix(4).unwrap();
        }
        let orphan = segment_path(&dir, 0);
        {
            let mut f = File::create(&orphan).unwrap();
            f.write_all(SEGMENT_MAGIC).unwrap();
            f.write_all(&0u64.to_le_bytes()).unwrap();
        }
        let log = SegmentedLog::open(&dir, cfg(2)).unwrap();
        assert!(!orphan.exists(), "orphan segment removed at open");
        assert_eq!(log.read(3).unwrap(), None);
        assert_eq!(log.read(4).unwrap().unwrap(), vec![4]);
        assert_eq!(log.len(), 6);
    }

    #[test]
    fn manifest_segment_disagreement_degrades_to_valid_prefix() {
        let dir = tmpdir("disagree");
        {
            let mut log = SegmentedLog::open(&dir, cfg(3)).unwrap();
            for i in 0..9u64 {
                log.append(&[i as u8; 8]).unwrap();
            }
        }
        // Corrupt sealed segment [3..6): chop its file short.
        let victim = segment_path(&dir, 3);
        let len = fs::metadata(&victim).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap()
            .set_len(len - 4)
            .unwrap();
        let log = SegmentedLog::open(&dir, cfg(3)).unwrap();
        // Records 0..3 intact; segment 3 re-scanned to its valid prefix
        // (records 3, 4 — record 5's frame was chopped); everything after is
        // dropped.
        assert_eq!(log.len(), 5);
        assert_eq!(log.read(2).unwrap().unwrap(), vec![2u8; 8]);
        assert_eq!(log.read(4).unwrap().unwrap(), vec![4u8; 8]);
        assert_eq!(log.read(6).unwrap(), None);
        // And the log still appends from there.
        let mut log = log;
        assert_eq!(log.append(&[55]).unwrap(), 5);
    }

    #[test]
    fn missing_manifest_rebuilds_by_scanning() {
        let dir = tmpdir("rebuild");
        {
            let mut log = SegmentedLog::open(&dir, cfg(3)).unwrap();
            for i in 0..7u64 {
                log.append(&[i as u8]).unwrap();
            }
        }
        fs::remove_file(dir.join("manifest")).unwrap();
        let log = SegmentedLog::open(&dir, cfg(3)).unwrap();
        assert_eq!(log.len(), 7);
        assert_eq!(log.read(6).unwrap().unwrap(), vec![6]);
        assert_eq!(log.recovery_stats().segments_scanned, 3);
    }

    #[test]
    fn simulate_crash_drops_unsynced_active_suffix() {
        let dir = tmpdir("crash");
        let mut log = SegmentedLog::open(&dir, cfg(8)).unwrap();
        log.append(b"keep").unwrap();
        log.sync().unwrap();
        log.append(b"lose").unwrap();
        log.simulate_crash();
        assert_eq!(log.len(), 1);
        assert_eq!(log.read(0).unwrap().unwrap(), b"keep");
        assert_eq!(log.read(1).unwrap(), None);
        // Sealed segments survive a crash (fsynced when sealed); the
        // unsynced suffix of the new active segment does not.
        let mut log = log;
        for i in 0..9u64 {
            log.append(&[i as u8]).unwrap();
        }
        assert_eq!(log.len(), 10); // 1 survivor + 9 new; roll sealed [0..8)
        log.simulate_crash();
        assert_eq!(log.len(), 8, "sealed records survive, active suffix lost");
        assert_eq!(log.read(7).unwrap().unwrap(), vec![6]);
    }

    #[test]
    fn fast_forward_skips_without_padding() {
        let dir = tmpdir("ff");
        let mut log = SegmentedLog::open(&dir, cfg(4)).unwrap();
        log.append(b"a").unwrap();
        log.fast_forward(1_000_000).unwrap();
        assert_eq!(log.len(), 1_000_000);
        assert_eq!(log.segment_count(), 1);
        assert_eq!(log.read(0).unwrap(), None);
        assert_eq!(log.append(b"b").unwrap(), 1_000_000);
        drop(log);
        let log = SegmentedLog::open(&dir, cfg(4)).unwrap();
        assert_eq!(log.read(1_000_000).unwrap().unwrap(), b"b");
    }
}
