//! End-to-end tests of the SmartChain node on the discrete-event simulator:
//! block production, the strong/weak persistence variants, checkpoints,
//! decentralized reconfiguration (join/leave), crash/recovery with state
//! transfer, and third-party auditability of the produced chains.

use smartchain_core::audit::verify_chain;
use smartchain_core::block::{Block, BlockBody};
use smartchain_core::harness::{ChainCluster, ChainClusterBuilder, NodeSchedule};
use smartchain_core::node::{NodeConfig, Variant};
use smartchain_sim::{MILLI, SECOND};
use smartchain_smr::app::CounterApp;
use smartchain_smr::ordering::OrderingConfig;
use smartchain_storage::SyncPolicy;

fn builder(n: usize) -> ChainClusterBuilder<CounterApp> {
    ChainClusterBuilder::new(n, |_| CounterApp::new()).node_config(NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    })
}

/// The per-client dedup frontier a chain implies: each client's highest
/// `seq` over its transaction blocks — the reference a quiescent replica's
/// duplicate filter must match.
fn chain_frontier(chain: &[Block]) -> Vec<(u64, u64)> {
    let mut frontier = std::collections::BTreeMap::new();
    for block in chain {
        if let BlockBody::Transactions { requests, .. } = &block.body {
            for req in requests {
                let seq = frontier.entry(req.client).or_insert(req.seq);
                *seq = (*seq).max(req.seq);
            }
        }
    }
    frontier.into_iter().collect()
}

/// Every active replica's dedup frontier equals the one its chain implies.
fn assert_frontiers_match_chains(cluster: &ChainCluster, replicas: usize) {
    for r in 0..replicas {
        let node = cluster.node::<CounterApp>(r);
        if node.is_active() {
            assert_eq!(
                node.dedup_frontier(),
                chain_frontier(&node.chain()),
                "replica {r}'s dedup frontier must match its chain"
            );
        }
    }
}

#[test]
fn four_nodes_produce_identical_auditable_chains() {
    let mut cluster = builder(4).clients(2, 2, Some(15)).build();
    cluster.run_until(30 * SECOND);
    assert_eq!(cluster.total_completed(), 60, "all requests complete");
    let chain0 = cluster.node::<CounterApp>(0).chain();
    assert!(!chain0.is_empty());
    let genesis = cluster.node::<CounterApp>(0).genesis().clone();
    let report = verify_chain(&genesis, &chain0).expect("audit passes");
    assert_eq!(report.blocks, chain0.len() as u64);
    // Every replica holds the same chain.
    for r in 1..4 {
        let chain = cluster.node::<CounterApp>(r).chain();
        assert_eq!(chain.len(), chain0.len(), "replica {r} height");
        for (a, b) in chain.iter().zip(chain0.iter()) {
            assert_eq!(a.header.hash(), b.header.hash(), "replica {r} diverged");
        }
    }
}

#[test]
fn strong_variant_attaches_certificates() {
    let config = NodeConfig {
        variant: Variant::Strong,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = builder(4)
        .node_config(config)
        .clients(1, 2, Some(10))
        .build();
    cluster.run_until(30 * SECOND);
    assert_eq!(cluster.total_completed(), 20);
    let node = cluster.node::<CounterApp>(0);
    let chain = node.chain();
    let genesis = node.genesis().clone();
    assert!(!chain.is_empty());
    // Every transaction block carries a quorum certificate that verifies.
    let view = &genesis.view;
    for block in &chain {
        assert!(
            block.certificate.signatures.len() >= view.quorum(),
            "block {} lacks a certificate",
            block.header.number
        );
        assert!(block.certificate.verify(&block.header, view));
    }
    verify_chain(&genesis, &chain).expect("audit passes");
}

#[test]
fn weak_variant_has_no_certificates_but_audits_via_proofs() {
    let mut cluster = builder(4).clients(1, 2, Some(10)).build();
    cluster.run_until(30 * SECOND);
    let node = cluster.node::<CounterApp>(0);
    let chain = node.chain();
    assert!(chain.iter().all(|b| b.certificate.signatures.is_empty()));
    // The decision proofs embedded in block bodies carry the authority.
    verify_chain(&node.genesis().clone(), &chain).expect("audit passes");
}

#[test]
fn memory_and_async_persistence_still_order_correctly() {
    for persistence in [SyncPolicy::None, SyncPolicy::Async] {
        let config = NodeConfig {
            persistence,
            ordering: OrderingConfig {
                max_batch: 8,
                ..OrderingConfig::default()
            },
            ..NodeConfig::default()
        };
        let mut cluster = builder(4)
            .node_config(config)
            .clients(1, 2, Some(10))
            .build();
        cluster.run_until(30 * SECOND);
        assert_eq!(cluster.total_completed(), 20, "{persistence:?}");
    }
}

/// A node joining *after* the cluster checkpointed receives a snapshot plus
/// a block suffix it has no prefix for: the ledger must fast-forward through
/// the checkpoint anchor and chain the suffix on, and the joiner must keep
/// up with the live chain afterwards (paper Fig. 7's join scenario).
#[test]
fn node_joins_after_checkpoint_and_catches_up() {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = builder(4)
        .node_config(config)
        .checkpoint_period(8)
        .clients(1, 4, Some(400))
        .extra_node(NodeSchedule {
            join_at: Some(4 * SECOND),
            leave_at: None,
        })
        .build();
    cluster.run_until(30 * SECOND);
    let h0 = cluster.node::<CounterApp>(0).height().expect("active");
    let joiner = cluster.node::<CounterApp>(4);
    assert!(joiner.is_active(), "joiner must be active");
    assert!(!joiner.is_syncing(), "state transfer must complete");
    let h4 = joiner.height().expect("active");
    assert!(
        h0.saturating_sub(h4) <= 2,
        "joiner keeps up with the chain after a snapshot-anchored transfer (h0={h0}, h4={h4})"
    );
    // The joiner's suffix matches the cluster's chain block for block.
    let suffix = joiner
        .chain()
        .iter()
        .map(|b| (b.header.number, b.header.hash()))
        .collect::<Vec<_>>();
    assert!(!suffix.is_empty(), "joiner holds a suffix");
    let full = cluster.node::<CounterApp>(0).chain();
    for (number, hash) in suffix {
        let reference = full.iter().find(|b| b.header.number == number);
        assert_eq!(
            reference.map(|b| b.header.hash()),
            Some(hash),
            "joiner's block {number} matches the cluster's"
        );
    }
}

/// A joiner whose ledger was fast-forwarded through a checkpoint anchor
/// later crashes: recovery must reinstall the covering snapshot before
/// replaying the suffix, or its application state silently loses the
/// summarized prefix while its chain looks intact.
#[test]
fn anchored_joiner_recovers_correct_app_state_after_crash() {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = builder(4)
        .node_config(config)
        .checkpoint_period(8)
        .clients(1, 4, Some(400))
        .extra_node(NodeSchedule {
            join_at: Some(4 * SECOND),
            leave_at: None,
        })
        .build();
    cluster.sim().crash(4, 12 * SECOND);
    cluster.sim().recover(4, 14 * SECOND);
    cluster.run_until(40 * SECOND);
    let joiner = cluster.node::<CounterApp>(4);
    assert!(joiner.is_active() && !joiner.is_syncing());
    // Application state agrees with the cluster for every client the
    // workload used (CounterApp: per-client payload sums).
    let reference = cluster.node::<CounterApp>(0).app().clone();
    let recovered = cluster.node::<CounterApp>(4).app().clone();
    assert_eq!(
        recovered.totals(),
        reference.totals(),
        "recovered joiner's application state must match the cluster"
    );
}

#[test]
fn node_joins_through_decentralized_protocol() {
    let mut cluster = builder(4)
        .clients(1, 2, Some(400))
        .extra_node(NodeSchedule {
            join_at: Some(2 * SECOND),
            leave_at: None,
        })
        .build();
    cluster.run_until(20 * SECOND);
    // The joiner (node 4) became an active member.
    let joiner = cluster.node::<CounterApp>(4);
    assert!(joiner.is_active(), "joiner must be active");
    let view = joiner.view().expect("active").clone();
    assert_eq!(view.n(), 5, "view grew to 5 members");
    assert_eq!(view.id, 1, "one reconfiguration happened");
    // Original members agree.
    let v0 = cluster
        .node::<CounterApp>(0)
        .view()
        .expect("active")
        .clone();
    assert_eq!(v0.id, 1);
    assert_eq!(v0.n(), 5);
    // The chain contains exactly one reconfiguration block, and it audits.
    let chain = cluster.node::<CounterApp>(0).chain();
    let reconfigs = chain
        .iter()
        .filter(|b| matches!(b.body, BlockBody::Reconfiguration { .. }))
        .count();
    assert_eq!(reconfigs, 1);
    let genesis = cluster.node::<CounterApp>(0).genesis().clone();
    let report = verify_chain(&genesis, &chain).expect("audit passes across reconfig");
    assert_eq!(report.final_view_id, 1);
}

#[test]
fn joiner_catches_up_via_state_transfer() {
    let mut cluster = builder(4)
        .clients(1, 2, Some(400))
        .extra_node(NodeSchedule {
            join_at: Some(3 * SECOND),
            leave_at: None,
        })
        .build();
    cluster.run_until(30 * SECOND);
    let joiner = cluster.node::<CounterApp>(4);
    let h4 = joiner.height().expect("active");
    let h0 = cluster.node::<CounterApp>(0).height().expect("active");
    assert!(h4 > 0, "joiner has blocks");
    assert!(h0 - h4 < 20, "joiner caught up (h0={h0}, h4={h4})");
    // The joiner's fresh core was seeded from the installed suffix.
    assert_frontiers_match_chains(&cluster, 5);
}

#[test]
fn member_leaves_through_decentralized_protocol() {
    let mut cluster = builder(4).clients(1, 2, Some(400)).build();
    // Node 3 asks to leave at 2s: schedule via its own timer by rebuilding —
    // instead, drive the leave through the public flow: use an extra node
    // that joins then leaves.
    let mut cluster2 = builder(4)
        .clients(1, 2, Some(400))
        .extra_node(NodeSchedule {
            join_at: Some(2 * SECOND),
            leave_at: Some(8 * SECOND),
        })
        .build();
    cluster.run_until(1);
    cluster2.run_until(30 * SECOND);
    let ex_member = cluster2.node::<CounterApp>(4);
    assert!(!ex_member.is_active(), "node 4 left the consortium");
    let v0 = cluster2
        .node::<CounterApp>(0)
        .view()
        .expect("active")
        .clone();
    assert_eq!(v0.n(), 4, "membership back to 4");
    assert_eq!(v0.id, 2, "two reconfigurations (join + leave)");
    let chain = cluster2.node::<CounterApp>(0).chain();
    let genesis = cluster2.node::<CounterApp>(0).genesis().clone();
    let report = verify_chain(&genesis, &chain).expect("audit passes");
    assert_eq!(report.final_view_id, 2);
}

#[test]
fn replica_crash_and_recovery_with_state_transfer() {
    let mut cluster = builder(4).clients(1, 2, Some(400)).build();
    cluster.sim().crash(3, 2 * SECOND);
    cluster.sim().recover(3, 6 * SECOND);
    cluster.run_until(20 * SECOND);
    // Progress never stopped (f=1 tolerated) ...
    let h0 = cluster.node::<CounterApp>(0).height().expect("active");
    assert!(h0 > 0);
    // ... and the recovered replica caught back up.
    let h3 = cluster.node::<CounterApp>(3).height().expect("active");
    assert!(h0 - h3 < 20, "replica 3 caught up (h0={h0}, h3={h3})");
    // Ledger replay and state transfer leave the duplicate filter in step
    // with the chain.
    assert_frontiers_match_chains(&cluster, 4);
}

/// A crash loses the ordering core, as a restarted process does: requests a
/// follower admitted before it crashed are no longer pending once it
/// recovers. With replicas 0 and 1 down the cluster has no quorum, so
/// nothing is ordered and every admitted request stays pending; the client
/// first retransmits at 2 s, after the check.
#[test]
fn crash_recovery_rebuilds_the_ordering_core() {
    let mut cluster = builder(4).clients(1, 2, Some(10)).build();
    cluster.sim().crash(0, 0);
    cluster.sim().crash(1, 0);
    cluster.sim().crash(3, 500 * MILLI);
    cluster.sim().recover(3, SECOND);
    cluster.run_until(400 * MILLI);
    let pending = |c: &ChainCluster| c.node::<CounterApp>(3).ordering_status().unwrap().1;
    assert_eq!(pending(&cluster), 2, "both clients' requests pending");
    cluster.run_until(SECOND + MILLI);
    assert_eq!(pending(&cluster), 0, "the crash emptied the pending pool");
}

/// Every replica checkpoints at the same blocks, so the `last_checkpoint`
/// field each header carries — and, under the strong variant, the PERSIST
/// certificate signed over the header — agrees cluster-wide.
#[test]
fn checkpoints_cover_blocks_and_link_into_headers() {
    for variant in [Variant::Weak, Variant::Strong] {
        let config = NodeConfig {
            variant,
            ordering: OrderingConfig {
                max_batch: 8,
                ..OrderingConfig::default()
            },
            ..NodeConfig::default()
        };
        let mut cluster = builder(4)
            .node_config(config)
            .checkpoint_period(5)
            .clients(1, 4, Some(40))
            .build();
        cluster.run_until(30 * SECOND);
        assert_eq!(cluster.total_completed(), 160, "{variant:?}");
        let node0 = cluster.node::<CounterApp>(0);
        let genesis = node0.genesis().clone();
        let chain = node0.chain();
        assert!(chain.len() >= 6, "need enough blocks, got {}", chain.len());
        // Each header references the newest checkpoint below it.
        for block in &chain {
            let number = block.header.number;
            assert_eq!(
                block.header.last_checkpoint,
                (number - 1) / 5 * 5,
                "{variant:?}: block {number}"
            );
        }
        let headers = |r: usize| -> Vec<_> {
            let chain = cluster.node::<CounterApp>(r).chain();
            chain.iter().map(|b| b.header).collect()
        };
        let checkpoints = |r: usize| -> Vec<u64> {
            let log = cluster.node::<CounterApp>(r).checkpoint_log();
            log.iter().map(|(_, b)| *b).collect()
        };
        for r in 0..4 {
            assert!(
                headers(r) == headers(0),
                "{variant:?}: replica {r}'s header chain differs from replica 0's"
            );
            assert_eq!(
                checkpoints(r),
                checkpoints(0),
                "{variant:?}: replica {r} snapshots the same blocks"
            );
            let node = cluster.node::<CounterApp>(r);
            let chain = node.chain();
            verify_chain(&genesis, &chain).expect("audit passes");
            if variant == Variant::Strong {
                for block in &chain {
                    assert!(
                        block.certificate.verify(&block.header, &genesis.view),
                        "replica {r}: block {} certificate",
                        block.header.number
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed: u64| {
        let mut cluster = builder(4).seed(seed).clients(1, 2, Some(10)).build();
        cluster.run_until(30 * SECOND);
        cluster
            .node::<CounterApp>(0)
            .chain()
            .iter()
            .map(|b| b.header.hash())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7), "same seed, same chain");
}

#[test]
fn leader_crash_does_not_stop_the_chain() {
    let mut cluster = builder(4).clients(1, 2, Some(400)).build();
    cluster.sim().crash(0, 500 * MILLI);
    cluster.run_until(20 * SECOND);
    let h1 = cluster.node::<CounterApp>(1).height().expect("active");
    assert!(h1 > 0, "chain keeps growing after leader crash");
    let chain = cluster.node::<CounterApp>(1).chain();
    let genesis = cluster.node::<CounterApp>(1).genesis().clone();
    verify_chain(&genesis, &chain).expect("audit passes");
}

#[test]
fn member_excluded_by_group_vote() {
    // Every member except replica 3 submits a signed remove transaction at
    // t = 2s (paper Fig. 5b); once n-f votes are ordered, the view changes.
    let mut cluster = builder(4)
        .clients(1, 2, Some(200))
        .exclude_member(2 * SECOND, 3)
        .build();
    cluster.run_until(20 * SECOND);
    let v0 = cluster
        .node::<CounterApp>(0)
        .view()
        .expect("active")
        .clone();
    assert_eq!(v0.id, 1, "one reconfiguration");
    assert_eq!(v0.n(), 3, "membership shrank to 3");
    assert!(
        !cluster.node::<CounterApp>(3).is_active(),
        "excluded member deactivates"
    );
    // The exclusion is on-chain and the chain audits.
    let chain = cluster.node::<CounterApp>(0).chain();
    let genesis = cluster.node::<CounterApp>(0).genesis().clone();
    let report = verify_chain(&genesis, &chain).expect("audit passes");
    assert_eq!(report.final_view_id, 1);
    let has_exclusion = chain.iter().any(|b| {
        matches!(
            &b.body,
            BlockBody::Reconfiguration { tx, .. }
                if matches!(tx.op, smartchain_core::block::ReconfigOp::Exclude { .. })
        )
    });
    assert!(has_exclusion, "exclusion recorded on-chain");
    // The new view's fresh cores were seeded across the view install.
    assert_frontiers_match_chains(&cluster, 4);
}

/// The whole stack on real RFC 8032 Ed25519: consensus WRITE/ACCEPT
/// signatures, decision proofs, PERSIST certificates and the audit all use
/// actual curve arithmetic (no simulation signer anywhere in the replicas).
#[test]
fn end_to_end_with_real_ed25519() {
    use smartchain_crypto::keys::Backend;

    let config = NodeConfig {
        variant: Variant::Strong,
        ordering: OrderingConfig {
            max_batch: 4,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = builder(4)
        .node_config(config)
        .crypto_backend(Backend::Ed25519)
        .clients(1, 2, Some(5))
        .build();
    cluster.run_until(30 * SECOND);
    assert_eq!(cluster.total_completed(), 10);
    let node = cluster.node::<CounterApp>(0);
    let chain = node.chain();
    assert!(!chain.is_empty());
    // Every certificate verifies under real Ed25519.
    let genesis = node.genesis().clone();
    for block in &chain {
        assert!(block.certificate.verify(&block.header, &genesis.view));
    }
    verify_chain(&genesis, &chain).expect("real-crypto audit passes");
}

/// Regression: a reconfiguration decided in the same batch as application
/// transactions, under the STRONG variant. The view-key rotation must wait
/// for the open block's PERSIST round — applying it immediately orphans the
/// in-flight certificate (pre-rotation signatures no longer verify) and
/// wedges delivery forever.
#[test]
fn strong_variant_join_under_traffic_keeps_progress() {
    let config = NodeConfig {
        variant: Variant::Strong,
        ordering: OrderingConfig {
            max_batch: 8,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = builder(4)
        .node_config(config)
        .clients(2, 4, Some(300))
        .extra_node(NodeSchedule {
            join_at: Some(100 * smartchain_sim::MILLI),
            leave_at: None,
        })
        .build();
    cluster.run_until(60 * SECOND);
    assert_eq!(
        cluster.total_completed(),
        2400,
        "all requests must complete across the mid-traffic reconfiguration"
    );
    let node = cluster.node::<CounterApp>(0);
    assert_eq!(node.view().expect("active").n(), 5, "join landed");
    let chain = node.chain();
    let genesis = node.genesis().clone();
    verify_chain(&genesis, &chain).expect("audit across mixed-batch reconfig");
}
