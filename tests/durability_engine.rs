//! DurabilityEngine contract tests across the three rungs of the paper's
//! persistence ladder (§V-C), on the heap and on real segment files:
//!
//! * crash recovery returns the longest valid prefix — nothing for
//!   ∞-persistence, the synced prefix for λ-persistence, the flushed prefix
//!   for group commit, and CRC-validated recovery on real segment files;
//! * group commit coalesces N appends into ≤⌈N/batch⌉ fsyncs, observable in
//!   engine statistics, on a real `SegmentedLog`, and in the simulator's
//!   disk accounting.

use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::{NodeConfig, Variant};
use smartchain::sim::SECOND;
use smartchain::smr::app::CounterApp;
use smartchain::smr::ordering::OrderingConfig;
use smartchain::storage::mem::MemLog;
use smartchain::storage::testing::TempDir;
use smartchain::storage::{
    DurabilityEngine, Engine, RecordLog, SegmentConfig, SegmentedEngine, SegmentedLog, SyncPolicy,
};

fn tmp(name: &str) -> TempDir {
    TempDir::new(&format!("smartchain-engine-{name}"))
}

/// Appends five records, drives the policy's commit point after the third,
/// crashes (drops everything after the last real sync), and returns how many
/// records actually survive on the device — cross-checked against the
/// engine's own `durable_len` claim.
fn crash_survivors(mut engine: impl DurabilityEngine) -> u64 {
    for i in 0..3u8 {
        engine.append(&[i]).unwrap();
    }
    engine.flush().unwrap();
    for i in 3..5u8 {
        engine.append(&[i]).unwrap();
    }
    let claimed = engine.durable_len();
    // Crash: the medium keeps its synced prefix; everything else
    // evaporates.
    engine.simulate_crash();
    let survivors = engine.len();
    assert_eq!(
        survivors, claimed,
        "durable_len must equal what the device keeps across a crash"
    );
    for i in 0..survivors {
        assert_eq!(
            engine.read(i).unwrap().unwrap(),
            vec![i as u8],
            "surviving prefix is the written prefix, in order"
        );
    }
    survivors
}

#[test]
fn crash_recovery_longest_valid_prefix_per_backend() {
    for (policy, expected) in [
        // ∞-Persistence: nothing survives, by definition.
        (SyncPolicy::None, 0),
        // λ-Persistence: the policy never syncs on its own — all five
        // records are acknowledged, none are durable.
        (SyncPolicy::Async, 0),
        // Group commit: the flush after record 3 made exactly that prefix
        // durable; the two later appends are still queued.
        (SyncPolicy::Sync, 3),
    ] {
        assert_eq!(
            crash_survivors(Engine::new(MemLog::new(), policy)),
            expected,
            "{policy:?} on the heap"
        );
        let dir = tmp(&format!("ladder-{policy:?}"));
        let engine = SegmentedEngine::open(&dir, policy, SegmentConfig::default()).unwrap();
        assert_eq!(
            crash_survivors(engine),
            expected,
            "{policy:?} on segment files"
        );
    }
}

#[test]
fn crash_recovery_matches_memlog_crash_semantics() {
    // The engine's `durable_len` must agree with what the underlying
    // device actually keeps across a crash.
    let mut engine = Engine::new(MemLog::new(), SyncPolicy::Sync);
    for i in 0..4u8 {
        engine.append(&[i]).unwrap();
    }
    engine.flush().unwrap();
    engine.append(&[4]).unwrap(); // queued, never flushed
    let claimed = engine.durable_len();
    let mut log = engine.into_inner();
    log.crash_to_last_sync();
    assert_eq!(
        log.len(),
        claimed,
        "engine's durability claim must match the device"
    );
    assert_eq!(log.len(), 4);
    assert_eq!(log.read(3).unwrap().unwrap(), vec![3]);
    assert_eq!(log.read(4).unwrap(), None);
}

/// The real-disk segmented log under `dir`, the medium the shipped replica's
/// group commit runs on.
fn segmented(dir: &std::path::Path) -> SegmentedLog {
    SegmentedLog::open(dir, SegmentConfig::default()).unwrap()
}

#[test]
fn segment_recovery_discards_torn_tail() {
    let dir = tmp("torn");
    {
        let mut engine = Engine::new(segmented(&dir), SyncPolicy::Sync);
        for i in 0..6u8 {
            engine.append(&[i; 32]).unwrap();
        }
        engine.flush().unwrap();
    }
    // Every record sits in the active segment: a 12-byte header, then
    // records framed as [len u32][crc u32][payload].
    let active = dir.join("seg-00000000000000000000.seg");
    // Simulate a torn append: a partial frame at the tail (crash mid-write).
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&active)
            .unwrap();
        f.write_all(&[0xFF, 0xFF, 0xFF]).unwrap(); // 3 bytes of a 8+N frame
    }
    let recovered = segmented(&dir);
    assert_eq!(
        recovered.len(),
        6,
        "longest valid prefix: all flushed records"
    );
    for i in 0..6u8 {
        assert_eq!(recovered.read(i as u64).unwrap().unwrap(), vec![i; 32]);
    }
    drop(recovered);
    // A corrupted record payload cuts the prefix at the corruption point.
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&active)
            .unwrap();
        let (header, frame) = (12, 8 + 32);
        f.seek(SeekFrom::Start((header + 3 * frame + 8) as u64))
            .unwrap(); // record 3's payload
        f.write_all(&[0xAA]).unwrap();
    }
    let recovered = segmented(&dir);
    assert_eq!(
        recovered.len(),
        3,
        "CRC failure truncates to the valid prefix"
    );
}

#[test]
fn group_commit_coalesces_n_appends_into_n_over_batch_fsyncs() {
    let dir = tmp("coalesce");
    let mut engine = Engine::new(segmented(&dir), SyncPolicy::Sync);
    let (n, batch) = (40u64, 8u64);
    for i in 0..n {
        engine.append(&[i as u8; 16]).unwrap();
        if (i + 1) % batch == 0 {
            engine.flush().unwrap();
        }
    }
    engine.flush().unwrap(); // final partial batch (empty here: 40 % 8 == 0)
    let stats = engine.stats();
    assert_eq!(stats.records, n);
    assert!(
        stats.syncs <= n.div_ceil(batch),
        "{} appends in batches of {} must need at most {} fsyncs, used {}",
        n,
        batch,
        n.div_ceil(batch),
        stats.syncs
    );
    assert_eq!(engine.durable_len(), n);
    // And the records are really on disk, in order.
    drop(engine);
    let reopened = segmented(&dir);
    assert_eq!(reopened.len(), n);
    assert_eq!(reopened.read(17).unwrap().unwrap(), vec![17u8; 16]);
}

/// The simulator's device accounting and the engine's own statistics are two
/// views of the same persist stage — they must agree. Under Sync persistence
/// every produced block costs exactly one virtual fsync (charged by the disk
/// model) and one engine flush (the group-commit point), plus the genesis
/// sync that only the engine sees.
#[test]
fn sim_disk_accounting_matches_engine_stats() {
    let config = NodeConfig {
        variant: Variant::Weak,
        persistence: SyncPolicy::Sync,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .clients(1, 2, Some(20))
        .build();
    cluster.run_until(30 * SECOND);
    assert_eq!(cluster.total_completed(), 40);
    for r in 0..4 {
        let node = cluster.node::<CounterApp>(r);
        let blocks = node.chain().len() as u64;
        let stats = node.engine_stats().expect("active member");
        assert!(blocks > 0, "replica {r} produced blocks");
        assert_eq!(
            stats.records,
            blocks + 1,
            "replica {r}: genesis + one record per block"
        );
        assert_eq!(
            stats.syncs,
            blocks + 1,
            "replica {r}: one group-commit flush per block (+genesis)"
        );
        assert_eq!(
            cluster.sim().disk_syncs(r),
            blocks,
            "replica {r}: virtual disk charged exactly one fsync per block"
        );
    }
}

/// The ladder is *observable at recovery* (§V-C): after a crash, a Sync
/// replica still holds its flushed chain prefix locally, while a Memory
/// replica comes back empty and must refetch everything from its peers —
/// though both eventually catch up via state transfer.
#[test]
fn crash_recovery_observes_the_persistence_ladder() {
    fn height_right_after_recovery(persistence: SyncPolicy) -> (u64, u64, u64) {
        let config = NodeConfig {
            variant: Variant::Weak,
            persistence,
            ordering: OrderingConfig {
                max_batch: 8,
                ..OrderingConfig::default()
            },
            ..NodeConfig::default()
        };
        let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
            .node_config(config)
            .clients(1, 4, Some(200))
            .build();
        cluster.sim().crash(3, 5 * SECOND);
        cluster.sim().recover(3, 10 * SECOND);
        // Sample at the recovery instant, before state transfer runs: what
        // does the replica's own disk still hold?
        cluster.run_until(10 * SECOND);
        let pre_crash = cluster.node::<CounterApp>(0).height().unwrap_or(0);
        let local = cluster.node::<CounterApp>(3).height().unwrap_or(0);
        cluster.run_until(40 * SECOND);
        let caught_up = cluster.node::<CounterApp>(3).height().unwrap_or(0);
        (pre_crash, local, caught_up)
    }

    let (peers_sync, local_sync, final_sync) = height_right_after_recovery(SyncPolicy::Sync);
    assert!(peers_sync > 0);
    assert!(
        local_sync > 0,
        "Sync rung: the flushed prefix survives the crash locally (got height {local_sync})"
    );
    let (peers_mem, local_mem, final_mem) = height_right_after_recovery(SyncPolicy::None);
    assert!(peers_mem > 0);
    assert_eq!(
        local_mem, 0,
        "Memory rung: nothing survives a crash; recovery starts from genesis"
    );
    // Both rungs converge again through state transfer.
    assert!(final_sync >= peers_sync, "Sync replica caught up");
    assert!(final_mem >= peers_mem, "Memory replica caught up");
}

/// The segmented engine observes the same ladder semantics as the heap
/// engine, against real segment files: flushed prefix survives a
/// crash-and-reopen under group commit, nothing extra does.
#[test]
fn segmented_engine_crash_recovery_ladder() {
    let dir = tmp("seg-ladder");
    let cfg = SegmentConfig {
        records_per_segment: 2,
    };
    {
        let mut engine = SegmentedEngine::open(&dir, SyncPolicy::Sync, cfg).unwrap();
        for i in 0..3u8 {
            engine.append(&[i]).unwrap();
        }
        engine.flush().unwrap();
        for i in 3..5u8 {
            engine.append(&[i]).unwrap();
        }
        assert_eq!(engine.durable_len(), 3, "two appends still queued");
        assert_eq!(engine.len(), 5, "queued records remain readable");
        assert_eq!(engine.read(4).unwrap().unwrap(), vec![4]);
        // Crash without flushing: queued records die with the process.
    }
    let engine = SegmentedEngine::open(&dir, SyncPolicy::Sync, cfg).unwrap();
    assert_eq!(engine.len(), 3, "exactly the flushed prefix survives");
    for i in 0..3u64 {
        assert_eq!(engine.read(i).unwrap().unwrap(), vec![i as u8]);
    }
    // The flush spanned a segment roll ([0..2) sealed, record 2 active):
    // recovery still only scanned the active segment.
    let stats = engine.log().recovery_stats();
    assert_eq!(stats.segments_scanned, 1);
}

/// Crash in the middle of a checkpoint truncation, at every point the
/// manifest-first protocol allows: before the manifest rename (old manifest,
/// all files — the pre-truncation log recovers) and after it (new manifest,
/// dropped files linger as orphans — the truncated log recovers and the
/// orphans are swept). Either way no retained record is lost.
#[test]
fn segmented_crash_mid_truncation_recovers() {
    use std::io::Write;
    let cfg = SegmentConfig {
        records_per_segment: 2,
    };
    // Case 1: crash BEFORE the manifest rename — manifest and every segment
    // file are still the pre-truncation state (the rename is the atomic
    // commit point; deletes happen only after it). Emulated by snapshotting
    // the whole directory before truncating and restoring it afterwards.
    let root = tmp("seg-trunc");
    let dir = root.join("pre");
    {
        let mut log = SegmentedLog::open(&dir, cfg).unwrap();
        for i in 0..6u64 {
            log.append(&[i as u8]).unwrap();
        }
    }
    let saved: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| (e.path(), std::fs::read(e.path()).unwrap()))
        .collect();
    {
        let mut log = SegmentedLog::open(&dir, cfg).unwrap();
        log.truncate_prefix(4).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    for (path, bytes) in &saved {
        std::fs::File::create(path)
            .unwrap()
            .write_all(bytes)
            .unwrap();
    }
    // Recovery sees the pre-truncation log in full: the truncation simply
    // never happened, which is the correct (conservative) outcome.
    let log = SegmentedLog::open(&dir, cfg).unwrap();
    assert_eq!(log.len(), 6);
    for i in 0..6u64 {
        assert_eq!(log.read(i).unwrap().unwrap(), vec![i as u8]);
    }

    // Case 2: crash AFTER the manifest rename, before the deletes — the
    // dropped segment file is still on disk; open must ignore and sweep it.
    let dir2 = root.join("post");
    {
        let mut log = SegmentedLog::open(&dir2, cfg).unwrap();
        for i in 0..6u64 {
            log.append(&[i as u8]).unwrap();
        }
    }
    let seg0 = std::fs::read_dir(&dir2)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains("00.seg"))
        })
        .expect("segment 0 exists");
    let seg0_bytes = std::fs::read(&seg0).unwrap();
    {
        let mut log = SegmentedLog::open(&dir2, cfg).unwrap();
        log.truncate_prefix(4).unwrap();
    }
    // Resurrect the deleted file: this is the state right after the rename.
    std::fs::File::create(&seg0)
        .unwrap()
        .write_all(&seg0_bytes)
        .unwrap();
    let log = SegmentedLog::open(&dir2, cfg).unwrap();
    assert!(!seg0.exists(), "orphan swept at open");
    assert_eq!(log.read(3).unwrap(), None, "truncation sticks");
    assert_eq!(log.read(4).unwrap().unwrap(), vec![4]);
    assert_eq!(log.len(), 6);
}

/// Memory persistence: the engine carries the chain but nothing is durable,
/// and the virtual disk is never touched.
#[test]
fn memory_engine_keeps_chain_volatile() {
    let config = NodeConfig {
        variant: Variant::Weak,
        persistence: SyncPolicy::None,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .clients(1, 2, Some(10))
        .build();
    cluster.run_until(30 * SECOND);
    assert_eq!(cluster.total_completed(), 20);
    for r in 0..4 {
        let node = cluster.node::<CounterApp>(r);
        assert!(!node.chain().is_empty());
        let stats = node.engine_stats().expect("active member");
        assert_eq!(stats.syncs, 0, "∞-persistence never syncs");
        assert_eq!(cluster.sim().disk_syncs(r), 0);
        assert_eq!(
            cluster.sim().disk_bytes(r),
            0,
            "memory mode never touches the disk"
        );
    }
}
