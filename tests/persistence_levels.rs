//! The paper's persistence ladder (Observation 2 / §V-C), measured.
//!
//! *External durability* (the weak variant / asynchronous writes) means a
//! client can observe a completed transaction **before** that transaction is
//! durable anywhere — a full-cluster crash would silently undo a committed
//! suffix. The strong variant's PERSIST phase closes the gap: replies only
//! leave a replica after it *knows* a Byzantine quorum wrote the block.
//!
//! These tests make that ordering observable through the simulator's disk
//! accounting.

use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::{NodeConfig, Variant};
use smartchain::sim::SECOND;
use smartchain::smr::app::CounterApp;
use smartchain::smr::ordering::OrderingConfig;
use smartchain::storage::SyncPolicy;

fn run(variant: Variant, persistence: SyncPolicy) -> (u64, Vec<u64>) {
    let config = NodeConfig {
        variant,
        persistence,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .clients(1, 2, Some(25))
        .build();
    cluster.run_until(30 * SECOND);
    let completed = cluster.total_completed();
    let syncs = (0..4).map(|r| cluster.sim().disk_syncs(r)).collect();
    (completed, syncs)
}

/// ∞-Persistence: everything completes, nothing ever touches the disk.
#[test]
fn memory_mode_never_syncs() {
    let (completed, syncs) = run(Variant::Weak, SyncPolicy::None);
    assert_eq!(completed, 50);
    assert!(syncs.iter().all(|&s| s == 0), "{syncs:?}");
}

/// λ-Persistence: clients complete while zero synchronous writes have
/// happened — the committed suffix exists only in volatile buffers. This is
/// the anomaly: a full crash now would lose client-acknowledged history.
#[test]
fn async_mode_acknowledges_before_durability() {
    let (completed, syncs) = run(Variant::Weak, SyncPolicy::Async);
    assert_eq!(completed, 50);
    assert!(
        syncs.iter().all(|&s| s == 0),
        "async mode must not issue synchronous writes, got {syncs:?}"
    );
}

/// 1-Persistence (weak + sync): every block is synced locally before the
/// reply goes out — each replica performed at least one flush per block it
/// produced.
#[test]
fn weak_sync_flushes_every_block() {
    let (completed, syncs) = run(Variant::Weak, SyncPolicy::Sync);
    assert_eq!(completed, 50);
    assert!(syncs.iter().all(|&s| s > 0), "{syncs:?}");
}

/// 0-Persistence (strong): same flush discipline, plus the PERSIST round —
/// completion implies a quorum of replicas flushed. We check the stronger
/// system-wide property: at least a quorum of replicas issued flushes.
#[test]
fn strong_sync_has_quorum_durability() {
    let (completed, syncs) = run(Variant::Strong, SyncPolicy::Sync);
    assert_eq!(completed, 50);
    let flushed = syncs.iter().filter(|&&s| s > 0).count();
    assert!(flushed >= 3, "quorum of replicas must flush, got {syncs:?}");
}

/// The full-crash thought experiment, concretely: in async mode, wiping all
/// unsynced state loses the acknowledged history; in sync mode the blocks
/// survive in every replica's log. We model the disk with `MemLog`'s
/// crash-to-last-sync semantics.
#[test]
fn full_crash_loses_async_suffix_but_not_synced_blocks() {
    use smartchain::core::block::{BlockBody, Genesis, ViewInfo};
    use smartchain::core::ledger::Ledger;
    use smartchain::core::view_keys::KeyStore;
    use smartchain::crypto::keys::{Backend, SecretKey};
    use smartchain::smr::types::Request;
    use smartchain::storage::mem::MemLog;

    let stores: Vec<KeyStore> = (0..4)
        .map(|i| {
            KeyStore::new(
                SecretKey::from_seed(Backend::Sim, &[i as u8 + 77; 32]),
                Backend::Sim,
            )
        })
        .collect();
    let genesis = Genesis {
        view: ViewInfo {
            id: 0,
            members: stores.iter().map(|s| s.certified_key_for(0)).collect(),
        },
        checkpoint_period: 100,
        app_data: Vec::new(),
    };
    let body = |i: u64| BlockBody::Transactions {
        consensus_id: i,
        requests: vec![Request {
            client: 1,
            seq: i,
            payload: vec![i as u8],
            signature: None,
        }],
        proof: smartchain::consensus::proof::DecisionProof {
            instance: i,
            epoch: 0,
            value_hash: [0u8; 32],
            accepts: Vec::new(),
        },
        results: vec![vec![0]],
    };

    // Asynchronous regime: five blocks appended, never synced.
    let mut ledger = Ledger::open(MemLog::new(), genesis.clone()).unwrap();
    for i in 1..=5u64 {
        let b = ledger.build_next(body(i), [0u8; 32]);
        ledger.append(&b).unwrap();
    }
    let mut log = ledger.into_log();
    log.crash_to_last_sync(); // the full-cluster crash
    let recovered = Ledger::open(log, genesis.clone()).unwrap();
    assert_eq!(
        recovered.height(),
        0,
        "acknowledged-but-unsynced suffix is gone after a full crash"
    );

    // Synchronous regime: sync after each block (the weak variant's local
    // flush) — the suffix survives the same crash.
    let mut ledger = Ledger::open(MemLog::new(), genesis.clone()).unwrap();
    for i in 1..=5u64 {
        let b = ledger.build_next(body(i), [0u8; 32]);
        ledger.append(&b).unwrap();
        ledger.sync().unwrap();
    }
    let mut log = ledger.into_log();
    log.crash_to_last_sync();
    let recovered = Ledger::open(log, genesis).unwrap();
    assert_eq!(recovered.height(), 5, "synced blocks survive a full crash");
}
