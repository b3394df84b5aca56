//! Snapshot durability modeling, reconfiguration fsync gating, and dedup
//! continuity across snapshots.
//!
//! * A checkpoint snapshot's device write is tracked while in flight: a
//!   crash before completion loses the snapshot (no more conservative
//!   survive-everything behavior on the Async/Sync rungs).
//! * Under the Sync rung the snapshot write is an fsync whose completion
//!   event promotes the snapshot to durable.
//! * Under the Sync rung a reconfiguration block's synchronous write gates
//!   the view install through the same OpDone hop as transaction blocks.
//! * Checkpoint snapshots ship the per-client dedup frontier, so a
//!   snapshot-anchored joiner rejects retransmissions of requests inside
//!   the summarized prefix.
//! * Replay — from the local ledger after a crash, or of a shipped suffix
//!   at a state-transfer install — executes exactly what live EXECUTE ran:
//!   a request forged under sequential verification stays dropped.

use smartchain::core::block::BlockBody;
use smartchain::core::harness::{ChainClusterBuilder, NodeSchedule};
use smartchain::core::node::{client_id, NodeConfig, SigMode};
use smartchain::crypto::keys::{Backend, SecretKey};
use smartchain::sim::hw::HwSpec;
use smartchain::sim::{Time, MILLI, SECOND};
use smartchain::smr::app::{Application, CounterApp};
use smartchain::smr::client::{CounterFactory, RequestFactory};
use smartchain::smr::ordering::OrderingConfig;
use smartchain::smr::types::Request;
use smartchain::storage::SyncPolicy;

/// Builds a 4-replica cluster with checkpoints every 4 blocks and a modeled
/// 1 GB state (100 ms streaming write on the test-fast disk), serialization
/// cost zeroed so virtual time is dominated by the device write.
fn checkpoint_cluster(persistence: SyncPolicy) -> smartchain::core::harness::ChainCluster {
    let config = NodeConfig {
        persistence,
        ordering: OrderingConfig {
            max_batch: 4,
            ..OrderingConfig::default()
        },
        state_size: 1_000_000_000,
        snapshot_ns_per_byte: 0,
        install_ns_per_byte: 0,
        ..NodeConfig::default()
    };
    ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .checkpoint_period(4)
        .clients(1, 2, Some(30))
        .build()
}

/// Steps the cluster until `replica`'s first checkpoint, returning the
/// virtual time at which it was observed.
fn run_until_first_checkpoint(
    cluster: &mut smartchain::core::harness::ChainCluster,
    replica: usize,
) -> Time {
    let mut deadline = 0;
    while cluster
        .node::<CounterApp>(replica)
        .checkpoint_log()
        .is_empty()
    {
        deadline += 10 * MILLI;
        assert!(deadline < 120 * SECOND, "no checkpoint within horizon");
        cluster.run_until(deadline);
    }
    deadline
}

/// Async rung: the snapshot's buffered device write is modeled at ~100 ms;
/// a crash inside that window must lose the snapshot (previously it
/// conservatively survived).
#[test]
fn async_inflight_snapshot_dies_in_crash() {
    let mut cluster = checkpoint_cluster(SyncPolicy::Async);
    let observed = run_until_first_checkpoint(&mut cluster, 2);
    assert!(cluster.node::<CounterApp>(2).snapshot_covered().is_some());
    // Crash replica 2 right away — far inside the 100 ms write window.
    cluster.sim().crash(2, observed + MILLI);
    cluster.run_until(observed + 5 * MILLI);
    assert_eq!(
        cluster.node::<CounterApp>(2).snapshot_covered(),
        None,
        "a snapshot whose device write was in flight must not survive"
    );
}

/// Sync rung: the snapshot write is an fsync; once its completion event has
/// fired the snapshot survives a crash, while a crash before the completion
/// loses it.
#[test]
fn sync_snapshot_durable_only_after_fsync_completion() {
    // Crash before the fsync completes → gone.
    let mut cluster = checkpoint_cluster(SyncPolicy::Sync);
    let observed = run_until_first_checkpoint(&mut cluster, 2);
    cluster.sim().crash(2, observed + MILLI);
    cluster.run_until(observed + 5 * MILLI);
    assert_eq!(
        cluster.node::<CounterApp>(2).snapshot_covered(),
        None,
        "crash before the snapshot fsync completion must lose it"
    );

    // Crash long after the fsync completed → survives.
    let mut cluster = checkpoint_cluster(SyncPolicy::Sync);
    let observed = run_until_first_checkpoint(&mut cluster, 2);
    let covered = cluster.node::<CounterApp>(2).snapshot_covered();
    assert!(covered.is_some());
    // 1 GB at 10 GB/s is 100 ms; leave generous slack for disk queueing.
    cluster.sim().crash(2, observed + SECOND);
    cluster.run_until(observed + SECOND + 5 * MILLI);
    assert!(
        cluster.node::<CounterApp>(2).snapshot_covered().is_some(),
        "an fsync-completed snapshot must survive the crash"
    );
}

/// Sync rung: a reconfiguration block's synchronous write must gate the
/// view install — with a slow fsync there is an observable window where the
/// reconfiguration block is already in the ledger while the old view is
/// still installed, and only after the completion does the view advance.
#[test]
fn reconfig_install_gated_by_sync_write() {
    let mut hw = HwSpec::test_fast();
    hw.disk.sync_latency_ns = 50 * MILLI; // make the fsync window visible
    let config = NodeConfig {
        persistence: SyncPolicy::Sync,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .hw(hw)
        .extra_node(NodeSchedule {
            join_at: Some(200 * MILLI),
            leave_at: None,
        })
        .clients(1, 1, Some(2))
        .build();
    let mut gating_observed = false;
    let mut deadline = 0;
    while deadline < 20 * SECOND {
        deadline += MILLI;
        cluster.run_until(deadline);
        let node = cluster.node::<CounterApp>(0);
        let has_reconfig_block = node
            .chain()
            .iter()
            .any(|b| matches!(b.body, BlockBody::Reconfiguration { .. }));
        let view_id = node.view().map(|v| v.id).unwrap_or(0);
        if has_reconfig_block && view_id == 0 {
            gating_observed = true;
        }
        if view_id >= 1 {
            break;
        }
    }
    assert!(
        gating_observed,
        "the reconfiguration block must sit in the ledger while its \
         synchronous write delays the install"
    );
    assert_eq!(
        cluster.node::<CounterApp>(0).view().map(|v| v.id),
        Some(1),
        "the view must install once the write completes"
    );
}

/// A joiner that catches up through a snapshot-anchored state transfer must
/// receive the dedup frontier with the snapshot: its duplicate filter ends
/// up identical to an always-present replica's for every client, including
/// requests that only exist inside the summarized prefix.
#[test]
fn snapshot_ships_dedup_frontier_to_joiner() {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 2,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .checkpoint_period(4)
        .extra_node(NodeSchedule {
            join_at: Some(20 * SECOND),
            leave_at: None,
        })
        .clients(1, 2, Some(20))
        .build();
    cluster.run_until(90 * SECOND);
    assert_eq!(cluster.total_completed(), 40);
    let joiner = cluster.node::<CounterApp>(4);
    assert!(joiner.is_active(), "joiner must have been admitted");
    assert!(
        !joiner.is_syncing(),
        "joiner must have finished catching up"
    );
    assert!(
        joiner.snapshot_covered().is_some(),
        "the transfer must have shipped a snapshot"
    );
    // The two logical clients live on client-actor node 5 (4 genesis + 1
    // extra). Their dedup frontier at the joiner must match replica 0's —
    // replica 0 saw every request delivered, the joiner saw a summarized
    // prefix plus a replayed suffix.
    let frontier0 = cluster.node::<CounterApp>(0).dedup_frontier();
    let frontier4 = joiner.dedup_frontier();
    for slot in 0..2u32 {
        let client = client_id(5, slot);
        let at0 = frontier0.iter().find(|(c, _)| *c == client);
        let at4 = frontier4.iter().find(|(c, _)| *c == client);
        assert!(at0.is_some(), "client {client} missing at replica 0");
        assert_eq!(
            at0, at4,
            "joiner's dedup frontier must cover the summarized prefix for \
             client {client}"
        );
    }
}

/// Signs honestly, except that `seq` 1 of client `target` carries a
/// signature by the wrong key (the client's public key is kept).
struct ForgingFactory {
    honest: CounterFactory,
    forger: SecretKey,
    target: u64,
}

impl RequestFactory for ForgingFactory {
    fn make(&mut self, client: u64, seq: u64) -> Request {
        let mut req = self.honest.make(client, seq);
        if client == self.target && seq == 1 {
            let payload = Request::sign_payload(client, seq, &req.payload);
            if let Some((_, signature)) = req.signature.as_mut() {
                *signature = self.forger.sign(&payload);
            }
        }
        req
    }
}

/// Under sequential verification a forged request is ordered and lands in
/// the chain, but EXECUTE drops it. A replica that crashes and recovers
/// must drop it too, whether it replays its own ledger (Sync rung) or
/// installs the suffix shipped by state transfer (Memory rung, whose
/// ledger dies with the crash): otherwise its state forks from the rest.
#[test]
fn replay_skips_forged_requests_like_live_execute() {
    // Client actor node 4 (after the 4 replicas), logical slot 0.
    let target = client_id(4, 0);
    for persistence in [SyncPolicy::Sync, SyncPolicy::None] {
        let config = NodeConfig {
            persistence,
            sig_mode: SigMode::Sequential,
            ordering: OrderingConfig {
                max_batch: 8,
                ..OrderingConfig::default()
            },
            ..NodeConfig::default()
        };
        let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
            .node_config(config)
            .clients(1, 4, Some(50))
            .client_factory(move || {
                Box::new(ForgingFactory {
                    honest: CounterFactory::new(true),
                    forger: SecretKey::from_seed(Backend::Sim, &[0xee; 32]),
                    target,
                })
            })
            .build();
        cluster.sim().crash(3, 3 * SECOND);
        cluster.sim().recover(3, 5 * SECOND);
        cluster.run_until(30 * SECOND);
        let live = cluster.node::<CounterApp>(0);
        let recovered = cluster.node::<CounterApp>(3);
        let forged_in_chain = live.chain().iter().any(|b| match &b.body {
            BlockBody::Transactions { requests, .. } => {
                requests.iter().any(|r| r.client == target && r.seq == 1)
            }
            BlockBody::Reconfiguration { .. } => false,
        });
        assert!(
            forged_in_chain,
            "{persistence:?}: the forged request is ordered"
        );
        assert_eq!(
            recovered.height(),
            live.height(),
            "{persistence:?}: replica 3 caught up"
        );
        assert_eq!(
            recovered.app().take_snapshot(),
            live.app().take_snapshot(),
            "{persistence:?}: replay must drop the forged request like EXECUTE did"
        );
    }
}
