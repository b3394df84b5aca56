//! A TCP client spawns no thread: every connection is a nonblocking socket
//! polled from the caller's thread. This is the only test of its binary,
//! because it reads the process-wide thread count, which tests running
//! beside it would move.

use smartchain_crypto::keys::Backend;
use smartchain_smr::app::CounterApp;
use smartchain_smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain_storage::testing::TempDir;
use std::time::{Duration, Instant};

/// The process's live thread count (`/proc/self/status`); 0 where `/proc`
/// is unavailable.
fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

#[test]
fn cluster_client_spawns_no_threads() {
    let dir = TempDir::new("smartchain-tcp-test-client-threads");
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        ..RuntimeConfig::default()
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    // Each replica thread spawns its verify pool as it starts: wait until
    // the count holds still.
    let settle_by = Instant::now() + Duration::from_secs(5);
    let mut before = threads();
    while Instant::now() < settle_by {
        std::thread::sleep(Duration::from_millis(100));
        let now = threads();
        if now == before {
            break;
        }
        before = now;
    }
    for _ in 0..5 {
        cluster
            .execute(vec![1], Duration::from_secs(15))
            .expect("op");
    }
    assert_eq!(threads(), before, "the client must not add threads");
    cluster.shutdown();
}
