//! Minimal micro-benchmark harness (the workspace builds without external
//! crates, so criterion is out). Wall-clock timing with a measured-iteration
//! loop and median-of-samples reporting; good enough to spot order-of-magnitude
//! regressions in the hot paths the `benches/` targets cover.
//!
//! Also hosts the deterministic (virtual-time) α-pipeline scenario used by
//! the `bench_check` CI gate: delivered-batches/virtual-second at windows
//! 1 vs 4 under the GroupCommit rung, where overlapping ORDER of
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
use smartchain_storage::{SegmentConfig, SyncPolicy};
use std::time::{Duration, Instant};

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

/// Outcome of one execution-lane scaling run (virtual time, deterministic).
#[derive(Clone, Copy, Debug)]
pub struct ExecLaneThroughput {
    /// Lane count the run used.
    pub lanes: usize,
    /// Blocks delivered by every replica (minimum across the cluster).
    pub blocks: u64,
    /// Delivered batches per virtual second.
    pub batches_per_vsec: f64,
    /// Node-0's accumulated lane-planner accounting.
    pub stats: smartchain_smr::exec::ConflictStats,
}

/// A [`CounterApp`] whose lane hints model workload *skew*: `hot_lane`
/// pretends every account hash-shards onto lane 0, so the planner finds no
/// parallelism — same transactions, same state, degenerate plan. The
/// scaling scenario's control group.
#[derive(Debug, Default, Clone)]
struct SkewedCounterApp {
    inner: CounterApp,
}

impl smartchain_smr::app::Application for SkewedCounterApp {
    fn execute(&mut self, request: &Request) -> Vec<u8> {
        self.inner.execute(request)
    }
    fn take_snapshot(&self) -> Vec<u8> {
        self.inner.take_snapshot()
    }
    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.inner.install_snapshot(snapshot)
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn lane_hint(&self, _request: &Request, _lanes: usize) -> smartchain_smr::exec::LaneHint {
        smartchain_smr::exec::LaneHint::Single(0)
    }
}

/// Runs the execution-lane scaling scenario gated in `bench_check`: 4
/// replicas under the GroupCommit rung with a deliberately execution-bound
/// stage (3 ms/tx — a contract-VM-grade EXECUTE, dwarfing the ~1 ms batch
/// fsync), closed-loop clients, fixed seed. `skewed` swaps in lane hints
/// that put every account on one lane: same transactions, no parallelism —
/// the planner's critical path degenerates to the serial sum and the
/// speedup must vanish. Content (chains, state) is lane-invariant; only
/// virtual time moves.
pub fn exec_lane_throughput(lanes: usize, skewed: bool, virtual_secs: u64) -> ExecLaneThroughput {
    let config = NodeConfig {
        variant: Variant::Weak,
        persistence: SyncPolicy::Sync,
        ordering: OrderingConfig {
            max_batch: 16,
            ..OrderingConfig::default()
        },
        execute_ns: 3_000_000, // 3 ms/tx: EXECUTE dominates the pipeline
        execute_lanes: lanes,
        progress_timeout: 800 * MILLI,
        ..NodeConfig::default()
    };
    // Metro-area links: with LAN latency the leader proposes the instant one
    // request lands, degenerating to 1-tx blocks nothing can parallelize.
    // 2.5 ms of propagation lets arrivals coalesce into full batches.
    let mut hw = HwSpec::paper_testbed();
    hw.nic.propagation_ns = 2_500_000;
    let build = move |make: fn(&[u8]) -> BenchLaneApp| {
        ChainClusterBuilder::new(4, make)
            .node_config(config)
            .hw(hw)
            .seed(20_260_807)
            // Enough closed-loop clients to keep full 16-tx batches queued:
            // the stage, not client round-trips, must be the bottleneck.
            .clients(4, 64, None)
            .build()
    };
    let mut cluster = if skewed {
        build(|_| BenchLaneApp::Skewed(SkewedCounterApp::default()))
    } else {
        build(|_| BenchLaneApp::Uniform(CounterApp::new()))
    };
    cluster.run_until(virtual_secs * SECOND);
    let blocks = (0..4)
        .map(|r| cluster.node::<BenchLaneApp>(r).height().unwrap_or(0))
        .min()
        .unwrap_or(0);
    let stats = cluster.node::<BenchLaneApp>(0).exec_stats();
    ExecLaneThroughput {
        lanes,
        blocks,
        batches_per_vsec: blocks as f64 / virtual_secs as f64,
        stats,
    }
}

/// Either lane-hint flavor behind one concrete node type (the harness is
/// monomorphic per cluster).
#[derive(Debug, Clone)]
enum BenchLaneApp {
    Uniform(CounterApp),
    Skewed(SkewedCounterApp),
}

impl smartchain_smr::app::Application for BenchLaneApp {
    fn execute(&mut self, request: &Request) -> Vec<u8> {
        match self {
            BenchLaneApp::Uniform(a) => a.execute(request),
            BenchLaneApp::Skewed(a) => a.execute(request),
        }
    }
    fn take_snapshot(&self) -> Vec<u8> {
        match self {
            BenchLaneApp::Uniform(a) => a.take_snapshot(),
            BenchLaneApp::Skewed(a) => a.take_snapshot(),
        }
    }
    fn install_snapshot(&mut self, snapshot: &[u8]) {
        match self {
            BenchLaneApp::Uniform(a) => a.install_snapshot(snapshot),
            BenchLaneApp::Skewed(a) => a.install_snapshot(snapshot),
        }
    }
    fn reset(&mut self) {
        match self {
            BenchLaneApp::Uniform(a) => a.reset(),
            BenchLaneApp::Skewed(a) => a.reset(),
        }
    }
    fn lane_hint(&self, request: &Request, lanes: usize) -> smartchain_smr::exec::LaneHint {
        match self {
            BenchLaneApp::Uniform(a) => a.lane_hint(request, lanes),
            BenchLaneApp::Skewed(a) => a.lane_hint(request, lanes),
        }
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
    /// Wall-clock batches/sec of the apply loop (informational).
    pub batches_per_sec: f64,
}

/// The segmented-engine throughput + recovery-replay scenario gated in
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
    let dir = smoke_dir("segmented");
    let segments = SegmentConfig {
        records_per_segment,
    };
    let start = Instant::now();
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
    let secs = start.elapsed().as_secs_f64();
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
        batches_per_sec: applied as f64 / secs.max(1e-9),
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
/// size, so the pin holds with a band of 0: it moves only if the chunking
/// geometry or the install path's verification coverage changes.
pub fn chunked_install_scenario(clients: u64) -> ChunkedInstall {
    let mut src =
        DurableApp::open(CounterApp::new(), smoke_dir("install-src"), 1).expect("open source app");
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
    let mut dst =
        DurableApp::open(CounterApp::new(), smoke_dir("install-dst"), 100).expect("open target");
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

/// Outcome of a runtime (wall-clock) smoke run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeSmoke {
    /// Operations completed (each is one ordered batch here).
    pub ops: u64,
    /// Wall-clock seconds the run took.
    pub secs: f64,
    /// Committed batches per second.
    pub batches_per_sec: f64,
    /// Replica 0's transport counters (TCP runs only).
    pub transport: Option<TransportStats>,
}

/// Closed-loop smoke over real loopback TCP sockets: `ops` sequential
/// operations against a live 4-replica [`TcpCluster`] (length-framed,
/// HMAC-authenticated links, one poll-based reactor per replica embedded in
/// its loop thread), measured wall-clock.
pub fn tcp_smoke(ops: u64) -> RuntimeSmoke {
    let config = RuntimeConfig {
        storage_dir: Some(smoke_dir("tcp")),
        ..RuntimeConfig::default()
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let start = Instant::now();
    for _ in 0..ops {
        cluster
            .execute(vec![1], Duration::from_secs(30))
            .expect("smoke op");
    }
    let secs = start.elapsed().as_secs_f64();
    let transport = cluster.transport_stats(0);
    cluster.shutdown();
    RuntimeSmoke {
        ops,
        secs,
        batches_per_sec: ops as f64 / secs.max(1e-9),
        transport,
    }
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
    /// Wall-clock seconds the closed loop ran.
    pub secs: f64,
    /// Completed operations per second.
    pub ops_per_sec: f64,
}

/// The 1k-client scale test: `clients` logical clients, each connected to
/// all four replicas of a live [`TcpCluster`], run a closed loop of
/// `ops_per_client` operations from a single caller thread. Fixed request
/// volume, so the completion count is deterministic; the thread counts
/// prove the replica side scales O(replicas), not O(clients).
pub fn tcp_client_soak(clients: usize, ops_per_client: u64) -> ClientSoak {
    let config = RuntimeConfig {
        storage_dir: Some(smoke_dir("soak")),
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
    let target_ops = clients as u64 * ops_per_client;
    let start = Instant::now();
    let completed = pool.run_closed_loop(ops_per_client, quorum, &[1], Duration::from_secs(120));
    let secs = start.elapsed().as_secs_f64();
    cluster.shutdown();
    ClientSoak {
        clients,
        target_ops,
        completed,
        connections,
        threads_before_clients,
        threads_with_clients,
        secs,
        ops_per_sec: completed as f64 / secs.max(1e-9),
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

fn smoke_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smartchain-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f` repeatedly and returns `(median, min, max, iters_per_sample)`
/// per-iteration nanoseconds — calibrated to ~50ms per sample, 7 samples.
pub fn measure(mut f: impl FnMut()) -> (u64, u64, u64, u64) {
    // Warm up + calibrate.
    let start = Instant::now();
    let mut calib_iters = 0u64;
    while start.elapsed().as_millis() < 20 {
        f();
        calib_iters += 1;
    }
    let per_iter = (start.elapsed().as_nanos() as u64 / calib_iters.max(1)).max(1);
    let iters = (50_000_000 / per_iter).clamp(1, 1_000_000);
    let samples = 7usize;
    let mut times: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        times.push(t.elapsed().as_nanos() as u64 / iters);
    }
    times.sort_unstable();
    (times[samples / 2], times[0], times[samples - 1], iters)
}

/// Runs `f` repeatedly and reports the median per-iteration time.
///
/// Calibrates an iteration count targeting ~50ms per sample, takes 7
/// samples, prints `name: <median> ns/iter (min .. max)`.
pub fn bench(name: &str, f: impl FnMut()) {
    let (median, min, max, iters) = measure(f);
    println!("{name}: {median} ns/iter (min {min} .. max {max}, {iters} iters/sample)");
}

/// Prevents the optimizer from discarding a computed value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}
