//! Regenerates **Figure 7**: SMARTCHAIN (strong, signatures + synchronous
//! writes) throughput over time with membership events. The paper runs 600
//! wall-clock seconds with events at 120/240/360/480 s; this binary replays
//! the same sequence on a 4×-compressed timeline (join 30 s, crash 60 s,
//! recover 90 s, leave 120 s over 150 s) so the figure regenerates in
//! minutes — the *events and their effects* are identical, only the quiet
//! stretches between them are shortened. 600 clients; the application state
//! is modeled at 100 MB (the paper uses 1 GB/8M UTXOs; scaled with the
//! timeline so state transfers occupy the same *fraction* of the run — a
//! full-size transfer monopolizes the 1 Gbps NIC for ~8 s, which on the
//! compressed timeline would smear across every event window).
//!
//! ```text
//! cargo run --release -p smartchain-bench --bin fig7
//! ```

use smartchain_coin::workload::{authorized_minters, CoinFactory};
use smartchain_coin::SmartCoinApp;
use smartchain_core::harness::{ChainClusterBuilder, NodeSchedule};
use smartchain_core::node::{NodeConfig, SigMode, Variant};
use smartchain_sim::hw::HwSpec;
use smartchain_sim::SECOND;
use smartchain_smr::ordering::OrderingConfig;
use smartchain_storage::SyncPolicy;

fn main() {
    let replicas = 4usize;
    let client_actors = 4usize;
    let logical_per_actor = 150u32; // 600 clients (as in the paper)
                                    // Clients issue effectively unbounded traffic for the 600s window.
    let clients: Vec<u64> = (0..client_actors)
        .flat_map(|a| {
            (0..logical_per_actor)
                .map(move |s| smartchain_core::node::client_id(replicas + 1 + a, s))
        })
        .collect();
    let minters = authorized_minters(clients);
    let config = NodeConfig {
        variant: Variant::Strong,
        persistence: SyncPolicy::Sync,
        sig_mode: SigMode::Parallel,
        ordering: OrderingConfig {
            max_batch: 512,
            ..OrderingConfig::default()
        },
        execute_ns: 8_000,
        reply_size: 380,
        state_size: 100_000_000, // see module docs: scaled with the timeline
        install_ns_per_byte: 20,
        snapshot_ns_per_byte: 20,
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(replicas, SmartCoinApp::from_genesis_data)
        .node_config(config)
        .hw(HwSpec::paper_testbed())
        .seed(7)
        .app_data(minters)
        // Checkpoint every z blocks; calibrated so one lands mid-run.
        .checkpoint_period(1800)
        .extra_node(NodeSchedule {
            join_at: Some(30 * SECOND),
            leave_at: Some(120 * SECOND),
        })
        .clients(client_actors, logical_per_actor, None)
        .client_factory(|| Box::new(CoinFactory::new(100)))
        .build();
    // Replica 3 crashes at 240s and recovers at 360s.
    cluster.sim().crash(3, 60 * SECOND);
    cluster.sim().recover(3, 90 * SECOND);
    println!("Figure 7 — throughput timeline (strong variant, Si+Sy, 600 clients, 100MB state)");
    println!(
        "events (4x-compressed timeline): join@30s crash@60s recover@90s ckpt@~105s leave@120s"
    );
    println!();
    println!("{:>6} {:>10}  bar", "t(s)", "ktxs/s");
    let mut printed = 0u64;
    for window_end in 1..=30u64 {
        let deadline = window_end * 5 * SECOND;
        cluster.run_until(deadline);
        let node = cluster.node::<SmartCoinApp>(0);
        // Committed txs in this 10s window.
        let committed: u64 = node
            .commit_log()
            .iter()
            .filter(|(t, _)| *t >= (window_end - 1) * 5 * SECOND && *t < deadline)
            .map(|(_, c)| *c)
            .sum();
        let ktps = committed as f64 / 5.0 / 1000.0;
        let bar = "#".repeat((ktps * 6.0).round().max(0.0) as usize);
        println!("{:>6} {:>10.2}  {bar}", window_end * 5, ktps);
        printed += committed;
    }
    println!();
    let node0 = cluster.node::<SmartCoinApp>(0);
    println!(
        "total committed: {printed} txs; final height: {:?}",
        node0.height()
    );
    println!(
        "final view: {:?} (id, members)",
        node0.view().map(|v| (v.id, v.n()))
    );
    let joiner = cluster.node::<SmartCoinApp>(4);
    println!(
        "replica 4 active at end: {} (joined @30s, left @120s)",
        joiner.is_active()
    );
}
