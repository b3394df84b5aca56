//! Deterministic-merge regression for the parallel EXECUTE stage: for
//! identical seeds, the simulator's chains, state snapshots and replies are
//! bit-for-bit independent of the lane count — lanes change *virtual time*
//! (the stage charges the plan's critical path instead of the serial sum),
//! never *content*.

use smartchain::coin::workload::{authorized_minters, CoinFactory};
use smartchain::coin::SmartCoinApp;
use smartchain::core::audit::verify_chain;
use smartchain::core::block::BlockBody;
use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::{client_id, NodeConfig};
use smartchain::sim::SECOND;
use smartchain::smr::app::Application;
use smartchain::smr::ordering::OrderingConfig;
use std::collections::BTreeMap;

/// Replies keyed by (client, seq): comparable across runs even when block
/// boundaries differ.
type Replies = BTreeMap<(u64, u64), Vec<u8>>;

/// One single-wave run: every logical client issues exactly one MINT, all
/// fired simultaneously at start, so batch composition cannot depend on
/// execution timing — chains must be bit-identical across lane counts.
/// Returns (header hashes, node-0 snapshot, per-(client, seq) results,
/// parallel groups planned on node 0).
fn mint_wave(lanes: usize) -> (Vec<[u8; 32]>, Vec<u8>, Replies, u64) {
    run_workload(lanes, 24, 1, 1)
}

/// A longer closed-loop MINT-then-SPEND workload. Chains may differ across
/// lane counts here (reply timing feeds back into batch composition), but
/// final state and every individual reply must not.
fn mixed_workload(lanes: usize) -> (Vec<u8>, Replies) {
    let (_, snapshot, results, _) = run_workload(lanes, 8, 4, 2);
    (snapshot, results)
}

fn run_workload(
    lanes: usize,
    wallets: u32,
    requests_each: u64,
    mints: u64,
) -> (Vec<[u8; 32]>, Vec<u8>, Replies, u64) {
    let replicas = 4usize;
    let wallet_ids: Vec<u64> = (0..wallets).map(|s| client_id(replicas, s)).collect();
    let config = NodeConfig {
        execute_lanes: lanes,
        // Execution-heavy: make laned scheduling actually matter in time.
        execute_ns: 500_000,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(replicas, SmartCoinApp::from_genesis_data)
        .node_config(config)
        .seed(20_260_807)
        .app_data(authorized_minters(wallet_ids.iter().copied()))
        .clients(1, wallets, Some(requests_each))
        .client_factory(move || Box::new(CoinFactory::new(mints)))
        .build();
    cluster.run_until(90 * SECOND);
    assert_eq!(
        cluster.total_completed(),
        wallets as u64 * requests_each,
        "lanes={lanes}: workload must quiesce"
    );
    let node = cluster.node::<SmartCoinApp>(0);
    verify_chain(&node.genesis().clone(), &node.chain()).expect("audit");
    let headers: Vec<[u8; 32]> = node.chain().iter().map(|b| b.header.hash()).collect();
    // Per-request results, keyed (client, seq): comparable across runs even
    // when block boundaries differ.
    let mut results = BTreeMap::new();
    for block in node.chain() {
        if let BlockBody::Transactions {
            requests,
            results: block_results,
            ..
        } = &block.body
        {
            for (req, res) in requests.iter().zip(block_results) {
                results.insert((req.client, req.seq), res.clone());
            }
        }
    }
    // Replicas agree under laned execution too.
    let snapshot = node.app().take_snapshot();
    for r in 1..replicas {
        assert_eq!(
            cluster.node::<SmartCoinApp>(r).app().take_snapshot(),
            snapshot,
            "lanes={lanes}: replica {r} state diverged"
        );
    }
    let groups = node.exec_stats().parallel_groups;
    (headers, snapshot, results, groups)
}

/// The tentpole guarantee: chains, snapshots and replies at 2 and 8 lanes
/// are bit-identical to the serial stage's.
#[test]
fn chains_identical_across_lane_counts() {
    let (h1, s1, r1, g1) = mint_wave(1);
    assert!(!h1.is_empty());
    assert_eq!(g1, 0, "serial stage plans nothing");
    for lanes in [2usize, 8] {
        let (h, s, r, groups) = mint_wave(lanes);
        assert_eq!(h, h1, "lanes={lanes}: chain must be bit-identical");
        assert_eq!(s, s1, "lanes={lanes}: snapshot must be bit-identical");
        assert_eq!(r, r1, "lanes={lanes}: replies must be bit-identical");
        assert!(groups > 0, "lanes={lanes}: the planner must have run");
    }
}

/// Closed-loop workload with spends: state and per-request replies match
/// across lane counts even though block boundaries may not.
#[test]
fn mixed_workload_state_and_replies_lane_invariant() {
    let (s1, r1) = mixed_workload(1);
    for lanes in [2usize, 4] {
        let (s, r) = mixed_workload(lanes);
        assert_eq!(s, s1, "lanes={lanes}: final state diverged");
        assert_eq!(r, r1, "lanes={lanes}: some reply diverged");
    }
}
