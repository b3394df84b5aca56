//! Micro-benchmarks of the storage substrate — in particular the
//! group-commit coalescing that underlies the Dura-SMaRt durability layer
//! (one fsync covering many batches, paper §II-C2).

use smartchain_bench::micro::bench;
use smartchain_storage::mem::MemLog;
use smartchain_storage::wal::BatchingWriter;
use smartchain_storage::{RecordLog, SegmentConfig, SegmentedLog, SyncPolicy};

fn root() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("smartchain-bench-{}", std::process::id()))
}

/// A fresh segmented log in its own directory under [`root`].
fn segmented(name: &str, policy: SyncPolicy) -> SegmentedLog {
    let dir = root().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    SegmentedLog::open(&dir, policy, SegmentConfig::default()).expect("open")
}

fn main() {
    let record = vec![0xaau8; 512];

    let mut log = MemLog::new();
    bench("log_append_512B/mem", || {
        log.append(&record).expect("append");
    });

    let mut log = segmented("async", SyncPolicy::Async);
    bench("log_append_512B/segmented_async", || {
        log.append(&record).expect("append");
    });

    let mut log = segmented("sync", SyncPolicy::Sync);
    bench("log_append_512B/segmented_sync", || {
        log.append(&record).expect("append");
    });

    // The Dura-SMaRt effect: N records per flush vs one flush per record.
    for batch in [1usize, 10, 100] {
        let mut writer = BatchingWriter::new(segmented(&format!("gc-{batch}"), SyncPolicy::Async));
        let record = vec![0x55u8; 512];
        bench(&format!("group_commit/records_per_flush/{batch}"), || {
            for _ in 0..batch {
                writer.submit(record.clone());
            }
            writer.flush().expect("flush");
        });
    }

    let _ = std::fs::remove_dir_all(root());
}
