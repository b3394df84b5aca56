//! The deterministic scenarios behind the `bench_check` CI gate: each
//! reports counts — blocks, completed requests, records replayed, chunks
//! verified, digests per decision, encodes per broadcast — that a change
//! either keeps or moves, so the gate pins each one exactly. Nothing here
//! times anything; wall-clock measurement lives in `benchmark/`.
//!
//! The α-pipeline scenario compares delivered batches per virtual second
//! at windows 1 vs 4 under the GroupCommit rung, where overlapping ORDER of
//! instance `i+1` with PERSIST of instance `i` is the whole win.

use smartchain_consensus::View;
use smartchain_core::harness::ChainClusterBuilder;
use smartchain_core::node::{NodeConfig, Variant};
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_sim::hw::HwSpec;
use smartchain_sim::{MILLI, SECOND};
use smartchain_smr::app::CounterApp;
use smartchain_smr::durability::{ckpt_sign_payload, CheckpointCert, DurableApp};
use smartchain_smr::ordering::{OrderingConfig, OrderingStats};
use smartchain_smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain_smr::transport::{TcpClientPool, TransportStats};
use smartchain_smr::types::Request;
use smartchain_storage::testing::TempDir;
use smartchain_storage::{SegmentConfig, SyncPolicy};
use std::time::Duration;

/// Outcome of one α-pipeline scenario run. Virtual-time measurement: the
/// numbers are bit-for-bit reproducible across machines.
#[derive(Clone, Copy, Debug)]
pub struct AlphaThroughput {
    /// Pipeline window the run used.
    pub window: u64,
    /// Blocks delivered by every replica (minimum across the cluster).
    pub blocks: u64,
    /// Virtual seconds simulated.
    pub virtual_secs: u64,
    /// Delivered batches per virtual second.
    pub batches_per_vsec: f64,
}

/// Runs the α-pipeline scenario: 4 replicas under the GroupCommit rung
/// (`SyncPolicy::Sync`), a closed-loop client fleet, fixed seed, on a
/// latency-dominated network (paper-testbed disk and CPU, 2.5 ms one-way
/// propagation — a metro/WAN deployment of the same machines), with the
/// pipeline `window` and a uniform frame-drop probability `drop`.
///
/// The regime matters: on the 120 µs LAN the pipeline is fsync-bound even
/// at α = 1, because ORDER already overlaps PERSIST through the delivery
/// queue. What α = 1 *cannot* hide is the consensus round latency itself —
/// instance `i+1` is only proposed after `i` decides, so block rate is
/// capped at 1/round. With propagation ≫ fsync that cap binds, and α > 1
/// lifts it by keeping α instances in flight (HotStuff-style chaining).
pub fn alpha_pipeline_throughput(window: u64, drop: f64, virtual_secs: u64) -> AlphaThroughput {
    let mut hw = HwSpec::paper_testbed();
    hw.nic.propagation_ns = 2_500_000; // 2.5 ms one-way
    let config = NodeConfig {
        variant: Variant::Weak,
        persistence: SyncPolicy::Sync,
        ordering: OrderingConfig {
            max_batch: 16,
            window,
        },
        progress_timeout: 800 * MILLI,
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .hw(hw)
        .seed(20_260_730)
        .clients(4, 32, None)
        .build();
    cluster.sim().set_drop_probability(drop);
    cluster.run_until(virtual_secs * SECOND);
    let blocks = (0..4)
        .map(|r| cluster.node::<CounterApp>(r).height().unwrap_or(0))
        .min()
        .unwrap_or(0);
    AlphaThroughput {
        window,
        blocks,
        virtual_secs,
        batches_per_vsec: blocks as f64 / virtual_secs as f64,
    }
}

/// Loss profile of one loss-grid cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossProfile {
    /// No injected loss.
    Clean,
    /// Uniform 5% frame drops for the whole run — the seed-regression
    /// scenario's loss model.
    Drop5,
    /// Bursty loss: 1 virtual second at 80% drops, then 1 s clean,
    /// repeating — the regime where ordering without repair keeps paying
    /// view-change tax during bursts it can't see coming.
    Bursty,
}

impl LossProfile {
    /// Short identifier used in pin names and printed rows.
    pub fn key(self) -> &'static str {
        match self {
            LossProfile::Clean => "clean",
            LossProfile::Drop5 => "drop5",
            LossProfile::Bursty => "bursty",
        }
    }
}

/// Outcome of one loss-grid cell (virtual time, deterministic).
#[derive(Clone, Debug)]
pub struct LossGridCell {
    /// The loss profile the cell ran under.
    pub profile: LossProfile,
    /// The pipeline window the cell ran with.
    pub window: u64,
    /// Client requests completed cluster-wide.
    pub completed: u64,
    /// Per-replica repair counters.
    pub stats: Vec<OrderingStats>,
}

impl LossGridCell {
    /// Short identifier of the window used in pin names and printed rows.
    pub fn window_key(&self) -> String {
        format!("alpha{}", self.window)
    }

    /// Sum of regency changes across the cluster.
    pub fn regency_changes(&self) -> u64 {
        self.stats.iter().map(|s| s.regency_changes).sum()
    }

    /// Sum of repair fetches sent across the cluster.
    pub fn fetches_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.fetches_sent).sum()
    }
}

/// Runs one cell of the loss grid gated in `bench_check`: the pinned
/// seed-regression scenario (4 replicas, max_batch 8, 200 ms progress
/// timeout, seed 7, 4 closed-loop clients × 30 requests, 120 virtual
/// seconds) under `profile` at pipeline `window`. The `Drop5` cells at
/// windows 1 and 4 reproduce the seed pins `PIN_7` and `PIN_7_A4`
/// bit-for-bit — the grid shares one scenario so the windows are measured
/// against exactly the numbers the pins already freeze.
pub fn loss_grid_cell(profile: LossProfile, window: u64) -> LossGridCell {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            window,
        },
        progress_timeout: 200 * MILLI,
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .seed(7)
        .clients(1, 4, Some(30))
        .build();
    match profile {
        LossProfile::Clean => {
            cluster.run_until(120 * SECOND);
        }
        LossProfile::Drop5 => {
            cluster.sim().set_drop_probability(0.05);
            cluster.run_until(120 * SECOND);
        }
        LossProfile::Bursty => {
            // 2 s cycles: 1 s at 80% drops, 1 s clean. Deterministic —
            // the drop schedule is a pure function of virtual time.
            let mut t = 0u64;
            while t < 120_000 {
                cluster.sim().set_drop_probability(0.8);
                t += 1_000;
                cluster.run_until(t * MILLI);
                cluster.sim().set_drop_probability(0.0);
                t += 1_000;
                cluster.run_until(t * MILLI);
            }
            cluster.sim().set_drop_probability(0.0);
        }
    }
    let completed = cluster.total_completed();
    let stats = (0..4)
        .map(|r| {
            cluster
                .node::<CounterApp>(r)
                .ordering_stats()
                .unwrap_or_default()
        })
        .collect();
    LossGridCell {
        profile,
        window,
        completed,
        stats,
    }
}

/// Outcome of the hash-once counting scenario (deterministic).
#[derive(Clone, Copy, Debug)]
pub struct HashOnce {
    /// Consensus instances the cluster decided.
    pub decisions: u64,
    /// SHA-256 value digests actually computed, cluster-wide, during the
    /// run (from the process-global [`hashes_computed`] counter).
    ///
    /// [`hashes_computed`]: smartchain_crypto::value::hashes_computed
    pub digests: u64,
}

impl HashOnce {
    /// Digests per decided value — ≈ 1.0 on the memoized hot path (each
    /// replica used to hash every PROPOSE it validated, ~n per decision).
    pub fn hashes_per_decision(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.digests as f64 / self.decisions as f64
        }
    }
}

/// Counts digest work on the ordering hot path: a 4-replica core-level
/// pump at α = 4 decides eight single-request batches over a clean FIFO
/// network and reads the process-global digest counter around the run.
/// Decided values travel as shared, hash-memoized [`ValueBytes`] handles,
/// so PROPOSE hashing, WRITE/ACCEPT checks, proof validation, and delivery
/// on *all four* replicas cost one digest per decided value total.
///
/// Caller must not run concurrent digest work (the counter is global);
/// `bench_check` is single-threaded, so sequencing is free there.
///
/// [`ValueBytes`]: smartchain_crypto::ValueBytes
pub fn hash_once_scenario() -> HashOnce {
    use smartchain_smr::ordering::{CoreOutput, OrderingCore, SmrMsg};
    let n = 4usize;
    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 70; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    let config = OrderingConfig {
        max_batch: 1,
        window: 4,
    };
    let mut cores: Vec<OrderingCore> = (0..n)
        .map(|i| OrderingCore::new(i, view.clone(), secrets[i].clone(), config, 0))
        .collect();
    let before = smartchain_crypto::value::hashes_computed();
    let mut decisions = 0u64;
    let mut queue: std::collections::VecDeque<(usize, usize, SmrMsg)> =
        std::collections::VecDeque::new();
    let handle = |from: usize,
                  out: CoreOutput,
                  queue: &mut std::collections::VecDeque<(usize, usize, SmrMsg)>,
                  decisions: &mut u64| match out {
        CoreOutput::Broadcast(m) => {
            for to in 0..n {
                if to != from {
                    queue.push_back((from, to, m.clone()));
                }
            }
        }
        CoreOutput::Send(to, m) => queue.push_back((from, to, m)),
        CoreOutput::Deliver(_) if from == 0 => *decisions += 1,
        CoreOutput::Deliver(_) | CoreOutput::NeedStateTransfer { .. } => {}
    };
    for seq in 0..8u64 {
        let request = Request {
            client: 1,
            seq,
            payload: vec![seq as u8],
            signature: None,
        };
        for (r, core) in cores.iter_mut().enumerate() {
            for out in core.submit(request.clone()) {
                handle(r, out, &mut queue, &mut decisions);
            }
        }
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        for out in cores[to].on_message(from, msg) {
            handle(to, out, &mut queue, &mut decisions);
        }
    }
    HashOnce {
        decisions,
        digests: smartchain_crypto::value::hashes_computed() - before,
    }
}

/// Outcome of the deterministic segmented-engine recovery scenario.
#[derive(Clone, Copy, Debug)]
pub struct SegmentedRecovery {
    /// Batches applied before the simulated restart.
    pub applied: u64,
    /// Records the reopened `DurableApp` replayed into the application —
    /// must equal `applied mod checkpoint_period`, not `applied`.
    pub replayed: u64,
    /// Segment files the reopened engine scanned (1 = the active segment).
    pub segments_scanned: u64,
    /// Record frames read during that scan.
    pub records_scanned: u64,
}

/// The segmented-engine recovery-replay scenario gated in
/// `bench_check`: a [`DurableApp`] on the group-commit segmented engine
/// applies `applied` single-request batches (checkpoint period
/// `checkpoint_period`, `records_per_segment` records per segment), is
/// dropped (the SIGKILL stand-in: nothing is flushed beyond what group
/// commit already made durable), and reopened. The recovery counters are
/// deterministic — checkpoints truncate the covered prefix, so the reopen
/// must replay only `applied mod checkpoint_period` records and scan only
/// the active segment.
pub fn segmented_recovery_scenario(
    applied: u64,
    checkpoint_period: u64,
    records_per_segment: u64,
) -> SegmentedRecovery {
    let dir = TempDir::new("smartchain-smoke-segmented");
    let segments = SegmentConfig {
        records_per_segment,
    };
    {
        let mut durable = DurableApp::open_segmented(
            CounterApp::new(),
            &dir,
            checkpoint_period,
            SyncPolicy::Sync,
            segments,
        )
        .expect("open segmented durable app");
        for i in 0..applied {
            durable
                .apply_requests(&[Request {
                    client: 7,
                    seq: i + 1,
                    payload: vec![1],
                    signature: None,
                }])
                .expect("apply batch");
        }
    }
    let durable = DurableApp::open_segmented(
        CounterApp::new(),
        &dir,
        checkpoint_period,
        SyncPolicy::Sync,
        segments,
    )
    .expect("reopen segmented durable app");
    assert_eq!(durable.batches_applied(), applied, "recovery lost batches");
    let stats = durable.segment_recovery_stats();
    SegmentedRecovery {
        applied,
        replayed: durable.replayed_on_recovery(),
        segments_scanned: stats.segments_scanned,
        records_scanned: stats.records_scanned,
    }
}

/// Outcome of the deterministic certified chunked-install scenario.
#[derive(Clone, Copy, Debug)]
pub struct ChunkedInstall {
    /// State chunks the installer hashed and checked against the
    /// quorum-certified root before adopting the snapshot.
    pub chunks_verified: u64,
    /// Size of the installed snapshot state, in bytes.
    pub state_bytes: u64,
}

/// The certified snapshot-install scenario gated in `bench_check`: a source
/// [`DurableApp`] cuts a checkpoint over `clients` counter records, a
/// 3-of-4 quorum signs its state root (what the runtime's share gossip
/// assembles), and a fresh replica installs the shipped snapshot —
/// verifying it chunk-by-chunk against the certified root before adopting
/// anything. The verified-chunk count is a pure function of the state
/// size, so the pin holds exactly: it moves only if the chunking
/// geometry or the install path's verification coverage changes.
pub fn chunked_install_scenario(clients: u64) -> ChunkedInstall {
    let (src_dir, dst_dir) = (
        TempDir::new("smartchain-smoke-install-src"),
        TempDir::new("smartchain-smoke-install-dst"),
    );
    let mut src = DurableApp::open(CounterApp::new(), &src_dir, 1).expect("open source app");
    let batch: Vec<Request> = (0..clients)
        .map(|c| Request {
            client: 1_000 + c,
            seq: 1,
            payload: vec![1],
            signature: None,
        })
        .collect();
    src.apply_requests(&batch).expect("apply batch");

    let secrets: Vec<SecretKey> = (0..4)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 90; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    let (covered, state_root, tip) = src.latest_checkpoint_basis().expect("checkpoint cut");
    let payload = ckpt_sign_payload(covered, &state_root, &tip);
    let cert = CheckpointCert {
        covered,
        state_root,
        tip,
        signatures: (0..view.quorum())
            .map(|r| (r, secrets[r].sign(&payload)))
            .collect(),
    };
    src.store_checkpoint_cert(cert).expect("store certificate");

    let reply = src.state_reply(1).expect("state reply");
    let mut dst = DurableApp::open(CounterApp::new(), &dst_dir, 100).expect("open target");
    dst.install_remote(
        &view,
        reply.covered,
        reply.snapshot,
        reply.cert.as_ref(),
        reply.first_batch,
        &reply.batches,
    )
    .expect("certified install");
    assert_eq!(dst.batches_applied(), src.batches_applied());
    ChunkedInstall {
        chunks_verified: dst.chunks_verified(),
        state_bytes: clients * 16,
    }
}

/// Closed loop over real loopback TCP sockets: `ops` sequential
/// operations against a live 4-replica [`TcpCluster`] (length-framed,
/// HMAC-authenticated links, one poll-based reactor per replica embedded in
/// its loop thread). Returns replica 0's transport counters.
pub fn tcp_smoke(ops: u64) -> Option<TransportStats> {
    let dir = TempDir::new("smartchain-smoke-tcp");
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        ..RuntimeConfig::default()
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    for _ in 0..ops {
        cluster
            .execute(vec![1], Duration::from_secs(30))
            .expect("smoke op");
    }
    let transport = cluster.transport_stats(0);
    cluster.shutdown();
    transport
}

/// Outcome of the many-client loopback soak.
#[derive(Clone, Copy, Debug)]
pub struct ClientSoak {
    /// Logical clients driven concurrently.
    pub clients: usize,
    /// Operations the fleet was asked to complete (`clients × ops each`).
    pub target_ops: u64,
    /// Operations that reached a reply quorum before the deadline.
    pub completed: u64,
    /// Live client sockets after the connect storm (≤ `clients × replicas`).
    pub connections: usize,
    /// Process thread count before any client existed…
    pub threads_before_clients: u64,
    /// …and with the whole fleet connected. Equal by design: the pool and
    /// the replica reactors multiplex every socket over `poll(2)`, so
    /// client scale adds zero threads.
    pub threads_with_clients: u64,
}

/// The 1k-client scale test: `clients` logical clients, each connected to
/// all four replicas of a live [`TcpCluster`], run a closed loop of
/// `ops_per_client` operations from a single caller thread. Fixed request
/// volume, so the completion count is deterministic; the thread counts
/// prove the replica side scales O(replicas), not O(clients).
pub fn tcp_client_soak(clients: usize, ops_per_client: u64) -> ClientSoak {
    let dir = TempDir::new("smartchain-smoke-soak");
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        ..RuntimeConfig::default()
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    // Warm the ordering pipeline up before the connect storm.
    cluster
        .execute(vec![1], Duration::from_secs(30))
        .expect("soak warm-up");
    let threads_before_clients = process_threads();
    let addrs = cluster.cluster_config().replicas.clone();
    let quorum = cluster.cluster_config().f() + 1;
    let mut pool = TcpClientPool::connect(addrs, 1_000_000, clients);
    let connections = pool.connections();
    let threads_with_clients = process_threads();
    let completed = pool.run_closed_loop(ops_per_client, quorum, &[1], Duration::from_secs(120));
    cluster.shutdown();
    ClientSoak {
        clients,
        target_ops: clients as u64 * ops_per_client,
        completed,
        connections,
        threads_before_clients,
        threads_with_clients,
    }
}

/// The process's live thread count (`/proc/self/status`); 0 where `/proc`
/// is unavailable, which disarms the thread-growth gate rather than
/// failing it.
fn process_threads() -> u64 {
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
