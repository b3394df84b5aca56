//! Cross-crate property tests: SMaRtCoin's economic invariants hold across
//! the full replicated stack, under arbitrary interleavings of workloads,
//! and the resulting ledgers always audit — in the simulator and over a
//! live [`TcpCluster`].

use smartchain::codec::from_bytes;
use smartchain::coin::tx::TxResult;
use smartchain::coin::workload::{authorized_minters, client_key, CoinFactory};
use smartchain::coin::SmartCoinApp;
use smartchain::core::audit::verify_chain;
use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::{client_id, NodeConfig, SigMode, Variant};
use smartchain::crypto::keys::Backend;
use smartchain::sim::SECOND;
use smartchain::smr::client::RequestFactory;
use smartchain::smr::ordering::OrderingConfig;
use smartchain::smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain::storage::testing::TempDir;
use std::time::Duration;

fn run_coin_cluster(
    seed: u64,
    wallets: u32,
    requests: u64,
    mints: u64,
    variant: Variant,
) -> (u64, u64, u64, usize) {
    let replicas = 4usize;
    let client_node = replicas;
    let wallet_ids: Vec<u64> = (0..wallets).map(|s| client_id(client_node, s)).collect();
    let minters = authorized_minters(wallet_ids.iter().copied());
    let config = NodeConfig {
        variant,
        sig_mode: SigMode::Sequential,
        ordering: OrderingConfig {
            max_batch: 16,
            ..OrderingConfig::default()
        },
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(replicas, SmartCoinApp::from_genesis_data)
        .node_config(config)
        .seed(seed)
        .app_data(minters)
        .clients(1, wallets, Some(requests))
        .client_factory(move || Box::new(CoinFactory::new(mints)))
        .build();
    cluster.run_until(60 * SECOND);
    let node = cluster.node::<SmartCoinApp>(0);
    let app = node.app();
    let chain = node.chain();
    verify_chain(&node.genesis().clone(), &chain).expect("audit");
    // All replicas agree on the application state.
    for r in 1..replicas {
        let other = cluster.node::<SmartCoinApp>(r).app();
        assert_eq!(other.total_value(), app.total_value(), "replica {r} value");
        assert_eq!(other.utxo_count(), app.utxo_count(), "replica {r} utxos");
    }
    (
        app.total_value(),
        app.executed(),
        app.rejected(),
        chain.len(),
    )
}

/// Conservation: total value equals successful MINTs (each mints value
/// 1), regardless of workload shape, seed, or persistence variant.
#[test]
fn prop_value_conservation() {
    // A fixed spread of seeds and workload shapes (8 cases, like the
    // original proptest configuration, but pinned).
    let cases: [(u64, u32, u64); 8] = [
        (1, 1, 1),
        (77, 2, 3),
        (123, 3, 2),
        (245, 4, 5),
        (389, 1, 4),
        (512, 2, 1),
        (700, 3, 5),
        (999, 4, 2),
    ];
    for (seed, wallets, mints) in cases {
        let requests = mints * 2; // mint phase then spend phase
        let (total, executed, rejected, blocks) =
            run_coin_cluster(seed, wallets, requests, mints, Variant::Weak);
        // Every request is a MINT of value 1 or a value-preserving SPEND.
        assert_eq!(total, wallets as u64 * mints, "seed {seed}");
        assert_eq!(executed, wallets as u64 * requests, "seed {seed}");
        assert_eq!(rejected, 0, "seed {seed}");
        assert!(blocks > 0, "seed {seed}");
    }
}

/// The same workload through the strong variant produces the same
/// application state (persistence level must not affect semantics).
#[test]
fn prop_variant_agnostic_state() {
    for seed in [3u64, 42, 617] {
        let weak = run_coin_cluster(seed, 2, 6, 3, Variant::Weak);
        let strong = run_coin_cluster(seed, 2, 6, 3, Variant::Strong);
        assert_eq!(weak.0, strong.0, "seed {seed}");
        assert_eq!(weak.1, strong.1, "seed {seed}");
    }
}

/// Double-spends injected at the client level bounce deterministically: a
/// wallet spending the same coin twice gets exactly one acceptance.
#[test]
fn double_spend_rejected_through_the_stack() {
    use smartchain::codec::to_bytes;
    use smartchain::coin::tx::{coin_id, CoinTx, Output};
    use smartchain::smr::client::RequestFactory;
    use smartchain::smr::types::Request;

    struct DoubleSpender;
    impl RequestFactory for DoubleSpender {
        fn make(&mut self, client: u64, seq: u64) -> Request {
            let sk = client_key(client);
            let tx = match seq {
                0 => CoinTx::Mint {
                    outputs: vec![Output {
                        owner: sk.public_key(),
                        value: 5,
                    }],
                },
                // seq 1 and 2 both spend the coin minted at seq 0.
                _ => CoinTx::Spend {
                    inputs: vec![coin_id(client, 0, 0)],
                    outputs: vec![Output {
                        owner: sk.public_key(),
                        value: 5,
                    }],
                },
            };
            let payload = to_bytes(&tx);
            let sig = sk.sign(&Request::sign_payload(client, seq, &payload));
            Request {
                client,
                seq,
                payload,
                signature: Some((sk.public_key(), sig)),
            }
        }
    }

    let replicas = 4usize;
    let wallet = client_id(replicas, 0);
    let minters = authorized_minters([wallet]);
    let mut cluster = ChainClusterBuilder::new(replicas, SmartCoinApp::from_genesis_data)
        .app_data(minters)
        .clients(1, 1, Some(3))
        .client_factory(|| Box::new(DoubleSpender))
        .build();
    cluster.run_until(30 * SECOND);
    let app = cluster.node::<SmartCoinApp>(0).app();
    assert_eq!(app.executed(), 2, "mint + first spend succeed");
    assert_eq!(app.rejected(), 1, "second spend of the same coin bounces");
    assert_eq!(app.total_value(), 5, "no value was created or destroyed");
}

/// The metal runtime: a live TCP cluster accepts signed coin transactions
/// and answers each with quorum-matching `Created` results.
#[test]
fn tcp_cluster_answers_signed_coin_transactions() {
    let dir = TempDir::new("sc-coin-tcp");
    let wallet = 0xC11E28u64; // TcpCluster's built-in client id: replies route by it
    let minters = authorized_minters([wallet]);
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        ..RuntimeConfig::default()
    };
    let mut cluster = TcpCluster::start(config, Backend::Sim, move || {
        SmartCoinApp::from_genesis_data(&minters)
    })
    .expect("cluster start");
    let mut factory = CoinFactory::new(u64::MAX); // every request is a signed MINT
    for seq in 1..=8u64 {
        let reply = cluster
            .execute_request(factory.make(wallet, seq), Duration::from_secs(10))
            .expect("reply quorum");
        let result: TxResult = from_bytes(&reply).expect("decodable result");
        assert!(matches!(result, TxResult::Created { .. }), "{result:?}");
    }
    cluster.shutdown();
}
