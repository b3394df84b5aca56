//! Experiment harness for the paper's evaluation (§VI).
//!
//! One binary per table/figure:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — SMaRtCoin on plain BFT-SMaRt (sig × storage strategies) |
//! | `fig6`   | Fig. 6 — SMARTCHAIN throughput across consortium sizes & persistence |
//! | `table2` | Table II — SMARTCHAIN vs Tendermint vs Fabric |
//! | `fig7`   | Fig. 7 — throughput timeline with join/crash/recover/checkpoint/leave |
//! | `fig8`   | Fig. 8 — replica update time vs chain length & checkpoint period |
//!
//! Run with `cargo run --release -p smartchain-bench --bin <target>`.
//! All runs are deterministic (fixed seeds) on the calibrated
//! [`HwSpec::paper_testbed`] hardware model; see EXPERIMENTS.md for the
//! calibration rationale and paper-vs-measured comparison.

pub mod micro;

use smartchain_baselines::fabric::{FabConfig, FabMsg, FabricNode};
use smartchain_baselines::tendermint::{TendermintNode, TmConfig, TmMsg};
use smartchain_coin::workload::{authorized_minters, CoinFactory};
use smartchain_coin::SmartCoinApp;
use smartchain_core::harness::ChainClusterBuilder;
use smartchain_core::node::{NodeConfig, SigMode, Variant};
use smartchain_sim::hw::HwSpec;
use smartchain_sim::metrics::trimmed_mean;
use smartchain_sim::{Actor, Cluster, NodeId, SECOND};
use smartchain_smr::actor::{client_id, AppLedger, DurabilityMode, ReplicaActor, ReplicaConfig};
use smartchain_smr::client::{ClientActor, ClientConfig};
use smartchain_smr::ordering::{OrderingConfig, SmrMsg};
use smartchain_storage::SyncPolicy;

/// Result of one throughput run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Trimmed-mean throughput (txs/sec) using the paper's methodology.
    pub throughput: f64,
    /// Standard deviation of the kept samples.
    pub std_dev: f64,
    /// Mean client latency in seconds.
    pub latency: f64,
    /// Latency standard deviation in seconds.
    pub latency_std: f64,
    /// Total transactions committed.
    pub total: u64,
}

/// Shared experiment scale (kept below the paper's 1000 requests/client so
/// debug runs stay fast; `--release` sweeps can raise it).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Client actors (the paper spreads clients over 4 machines).
    pub client_actors: usize,
    /// Logical clients per actor (paper total: 2400).
    pub logical_per_actor: u32,
    /// Requests per logical client (MINT phase + SPEND phase).
    pub requests_per_client: u64,
    /// Virtual-time horizon per run.
    pub horizon_s: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            client_actors: 4,
            logical_per_actor: 600,
            requests_per_client: 60,
            horizon_s: 120,
        }
    }
}

impl Scale {
    /// A smaller scale for quick smoke runs and tests.
    pub fn smoke() -> Scale {
        Scale {
            client_actors: 2,
            logical_per_actor: 100,
            requests_per_client: 20,
            horizon_s: 60,
        }
    }

    /// Total logical clients.
    pub fn clients(&self) -> u64 {
        self.client_actors as u64 * self.logical_per_actor as u64
    }

    /// Total requests the workload will issue.
    pub fn total_requests(&self) -> u64 {
        self.clients() * self.requests_per_client
    }
}

/// All logical client ids a scale will use (for minter authorization).
pub fn workload_clients(replicas: usize, scale: Scale) -> Vec<u64> {
    let mut out = Vec::new();
    for a in 0..scale.client_actors {
        let node = replicas + a;
        for slot in 0..scale.logical_per_actor {
            out.push(client_id(node, slot));
        }
    }
    out
}

/// Runs the Table I configuration: SMaRtCoin hosted directly on the SMR
/// stack (`ReplicaActor`) with the given signature / app-ledger / durability
/// policies.
pub fn run_smr_coin(
    n: usize,
    sig_mode: smartchain_smr::actor::SigMode,
    app_ledger: AppLedger,
    durability: DurabilityMode,
    scale: Scale,
    seed: u64,
) -> RunResult {
    use smartchain_consensus::View;
    use smartchain_crypto::keys::{Backend, SecretKey};

    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 90; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    let peers: Vec<NodeId> = (0..n).collect();
    let clients = workload_clients(n, scale);
    let minters = authorized_minters(clients.iter().copied());
    let config = ReplicaConfig {
        sig_mode,
        app_ledger,
        durability,
        ordering: OrderingConfig {
            max_batch: 512,
            ..OrderingConfig::default()
        },
        execute_ns: 8_000,
        // The naive app-level ledger serializes/link-hashes every
        // transaction inside the state machine (Java object serialization in
        // the paper's prototype).
        app_ledger_ns: 175_000,
        reply_size: 380,
        ..ReplicaConfig::default()
    };
    let mut actors: Vec<Box<dyn Actor<SmrMsg>>> = Vec::new();
    #[allow(clippy::needless_range_loop)] // i is the replica id, not just an index
    for i in 0..n {
        actors.push(Box::new(ReplicaActor::new(
            i,
            view.clone(),
            secrets[i].clone(),
            SmartCoinApp::from_genesis_data(&minters),
            config,
            peers.clone(),
        )));
    }
    let f = (n - 1) / 3;
    let mut client_nodes = Vec::new();
    for a in 0..scale.client_actors {
        let node = n + a;
        client_nodes.push(node);
        actors.push(Box::new(ClientActor::<SmrMsg>::new(
            node,
            peers.clone(),
            f,
            ClientConfig {
                logical_clients: scale.logical_per_actor,
                requests_per_client: Some(scale.requests_per_client),
                ..ClientConfig::default()
            },
            Box::new(CoinFactory::new(scale.requests_per_client / 2)),
        )));
    }
    let mut cluster = Cluster::new(actors, HwSpec::paper_testbed(), seed);
    cluster.run_until(scale.horizon_s * SECOND);
    let replica = cluster
        .actor(0)
        .as_any()
        .downcast_ref::<ReplicaActor<SmartCoinApp>>()
        .expect("replica actor");
    let (throughput, std_dev) = replica.meter().trimmed_mean();
    let (latency, latency_std, _) = client_latency::<SmrMsg>(&cluster, &client_nodes);
    RunResult {
        throughput,
        std_dev,
        latency,
        latency_std,
        total: replica.meter().total(),
    }
}

fn client_latency<M: 'static>(cluster: &Cluster<M>, client_nodes: &[NodeId]) -> (f64, f64, u64) {
    let mut means = Vec::new();
    let mut stds = Vec::new();
    let mut total = 0u64;
    for &c in client_nodes {
        let any = cluster.actor(c).as_any();
        // Clients are ClientActor<M> for the experiment's message type.
        if let Some(client) = any.downcast_ref::<ClientActor<SmrMsg>>() {
            means.push(client.latency().mean_seconds());
            stds.push(client.latency().std_dev_seconds());
            total += client.completed();
        } else if let Some(client) =
            any.downcast_ref::<ClientActor<smartchain_core::node::ChainMsg>>()
        {
            means.push(client.latency().mean_seconds());
            stds.push(client.latency().std_dev_seconds());
            total += client.completed();
        } else if let Some(client) = any.downcast_ref::<ClientActor<TmMsg>>() {
            means.push(client.latency().mean_seconds());
            stds.push(client.latency().std_dev_seconds());
            total += client.completed();
        } else if let Some(client) = any.downcast_ref::<ClientActor<FabMsg>>() {
            means.push(client.latency().mean_seconds());
            stds.push(client.latency().std_dev_seconds());
            total += client.completed();
        }
    }
    let mean = if means.is_empty() {
        0.0
    } else {
        means.iter().sum::<f64>() / means.len() as f64
    };
    let std = if stds.is_empty() {
        0.0
    } else {
        stds.iter().sum::<f64>() / stds.len() as f64
    };
    (mean, std, total)
}

/// Runs one SMARTCHAIN configuration (Fig. 6 / Table II) with the coin app.
pub fn run_smartchain(
    n: usize,
    variant: Variant,
    persistence: SyncPolicy,
    signatures: bool,
    scale: Scale,
    seed: u64,
) -> RunResult {
    let clients = workload_clients(n, scale);
    let minters = authorized_minters(clients.iter().copied());
    let config = NodeConfig {
        variant,
        persistence,
        sig_mode: if signatures {
            SigMode::Parallel
        } else {
            SigMode::None
        },
        ordering: OrderingConfig {
            max_batch: 512,
            ..OrderingConfig::default()
        },
        execute_ns: 8_000,
        reply_size: 380,
        ..NodeConfig::default()
    };
    let mints = scale.requests_per_client / 2;
    let mut cluster = ChainClusterBuilder::new(n, SmartCoinApp::from_genesis_data)
        .node_config(config)
        .hw(HwSpec::paper_testbed())
        .seed(seed)
        .app_data(minters)
        .clients(
            scale.client_actors,
            scale.logical_per_actor,
            Some(scale.requests_per_client),
        )
        .client_factory(move || Box::new(CoinFactory::new(mints)))
        .build();
    cluster.run_until(scale.horizon_s * SECOND);
    let node = cluster.node::<SmartCoinApp>(0);
    let (throughput, std_dev) = node.meter().trimmed_mean();
    let total = node.meter().total();
    let mut lat_mean = 0.0;
    let mut lat_std = 0.0;
    let mut count = 0usize;
    for &c in cluster.client_nodes() {
        let client = cluster.client(c);
        lat_mean += client.latency().mean_seconds();
        lat_std += client.latency().std_dev_seconds();
        count += 1;
    }
    if count > 0 {
        lat_mean /= count as f64;
        lat_std /= count as f64;
    }
    RunResult {
        throughput,
        std_dev,
        latency: lat_mean,
        latency_std: lat_std,
        total,
    }
}

/// Runs the Tendermint model (Table II row).
pub fn run_tendermint(n: usize, scale: Scale, seed: u64) -> RunResult {
    use smartchain_smr::app::Application;
    let clients = workload_clients(n, scale);
    let minters = authorized_minters(clients.iter().copied());
    let peers: Vec<NodeId> = (0..n).collect();
    let config = TmConfig {
        max_block: 4000,
        ..TmConfig::default()
    };
    let mut actors: Vec<Box<dyn Actor<TmMsg>>> = Vec::new();
    for i in 0..n {
        let mut app = SmartCoinApp::from_genesis_data(&minters);
        app.reset();
        actors.push(Box::new(TendermintNode::new(i, peers.clone(), app, config)));
    }
    let mut client_nodes = Vec::new();
    for a in 0..scale.client_actors {
        let node = n + a;
        client_nodes.push(node);
        // Each Tendermint client talks to one (its local) node.
        actors.push(Box::new(ClientActor::<TmMsg>::new(
            node,
            vec![a % n],
            0,
            ClientConfig {
                logical_clients: scale.logical_per_actor,
                requests_per_client: Some(scale.requests_per_client),
                ..ClientConfig::default()
            },
            Box::new(CoinFactory::new(scale.requests_per_client / 2)),
        )));
    }
    let mut cluster = Cluster::new(actors, HwSpec::paper_testbed(), seed);
    cluster.run_until(scale.horizon_s * SECOND);
    let node = cluster
        .actor(0)
        .as_any()
        .downcast_ref::<TendermintNode<SmartCoinApp>>()
        .expect("tendermint node");
    let (throughput, std_dev) = trimmed_mean(node.meter().samples());
    let total = node.meter().total();
    let (latency, latency_std, _) = client_latency::<TmMsg>(&cluster, &client_nodes);
    RunResult {
        throughput,
        std_dev,
        latency,
        latency_std,
        total,
    }
}

/// Runs the Fabric model (Table II row). Fabric's server-side ceiling is far
/// below the full client population's closed-loop demand, so the effective
/// concurrency is reduced (see EXPERIMENTS.md).
pub fn run_fabric(n: usize, scale: Scale, seed: u64) -> RunResult {
    let clients = workload_clients(n, scale);
    let minters = authorized_minters(clients.iter().copied());
    let peers: Vec<NodeId> = (0..n).collect();
    let config = FabConfig::default();
    let mut actors: Vec<Box<dyn Actor<FabMsg>>> = Vec::new();
    for i in 0..n {
        actors.push(Box::new(FabricNode::new(
            i,
            peers.clone(),
            SmartCoinApp::from_genesis_data(&minters),
            config,
        )));
    }
    let mut client_nodes = Vec::new();
    for a in 0..scale.client_actors {
        let node = n + a;
        client_nodes.push(node);
        actors.push(Box::new(ClientActor::<FabMsg>::new(
            node,
            vec![0], // all transactions go through the gateway peer
            0,
            ClientConfig {
                logical_clients: scale.logical_per_actor / 4, // 600 of 2400
                requests_per_client: Some(scale.requests_per_client),
                ..ClientConfig::default()
            },
            Box::new(CoinFactory::new(scale.requests_per_client / 2)),
        )));
    }
    let mut cluster = Cluster::new(actors, HwSpec::paper_testbed(), seed);
    cluster.run_until(scale.horizon_s * SECOND);
    let node = cluster
        .actor(1)
        .as_any()
        .downcast_ref::<FabricNode<SmartCoinApp>>()
        .expect("fabric node");
    let (throughput, std_dev) = trimmed_mean(node.meter().samples());
    let total = node.meter().total();
    let (latency, latency_std, _) = client_latency::<FabMsg>(&cluster, &client_nodes);
    RunResult {
        throughput,
        std_dev,
        latency,
        latency_std,
        total,
    }
}

/// Formats a throughput cell like the paper's tables.
pub fn fmt_tput(r: &RunResult) -> String {
    format!("{:>7.0} ± {:>4.0}", r.throughput, r.std_dev)
}

/// Formats a latency cell like Table II.
pub fn fmt_latency(r: &RunResult) -> String {
    format!("{:.3} ± {:.3}", r.latency, r.latency_std)
}
