//! The four fixed-work workloads, and one repetition of one of them.
//!
//! Every repetition boots a fresh 4-replica `TcpCluster<GenesisCoinApp>` on
//! a fresh storage directory with the shipped `RuntimeConfig` defaults
//! (`max_batch` 64, `checkpoint_period` 128, `verify_workers` 2,
//! `execute_lanes` 1) plus `require_signed`, connects the generator, and
//! completes a fixed number of operations on one CPU (see `affinity`):
//! throughput is operations ÷ elapsed, so two commits under comparison
//! execute identical requests and reach identical state.

use crate::affinity::OneCpu;
use crate::generator::{Event, Generator, Outcome, Pacing, RunSpec};
use crate::genesis::GenesisCoinApp;
use crate::procfs::{self, ThreadCpu};
use crate::requests;
use crate::stats::{max, median, quantile};
use crate::trace::{now_ns, Trace};
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey};
use smartchain_smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain_smr::transport::TransportStats;
use std::io;
use std::path::{Path, PathBuf};

/// The `run_seconds` of `BENCHMARK.json`: how long the end-to-end pass of a
/// workload keeps starting repetitions. The operation counts below are sized
/// so that, on the seed commit and a quiet machine, seven or eight
/// repetitions fit (four of the two slower workloads).
pub const RUN_SECONDS: f64 = 25.0;

/// No cluster may be asked for more operations than this (warm-up
/// included): follower memory grows ≈1.4 KB per operation and throughput
/// collapses after ≈360k operations on one cluster (see the README).
pub const MAX_OPS_PER_CLUSTER: u64 = 100_000;

/// One workload's definition.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Signature scheme of client *and* consensus keys.
    pub backend: Backend,
    /// Logical clients, each connected to all four replicas.
    pub clients: usize,
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Unmeasured operations per repetition.
    pub warmup_ops: u64,
    /// Measured operations per repetition.
    pub measured_ops: u64,
    /// Coins in every replica's genesis state.
    pub genesis_coins: u64,
    /// Why the workload exists, in one line (goes to `BENCHMARK.json`).
    pub why: &'static str,
}

/// The benchmark's workloads; the README says more about why each exists.
/// The counts are the issue's, shrunk evenly to the driver's budget.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spend_closed",
        backend: Backend::Sim,
        clients: 64,
        pacing: Pacing::Closed,
        warmup_ops: 4_096,
        measured_ops: 24_576,
        genesis_coins: 0,
        why: "closed loop, 64 Sim-signed clients, full batches: capacity of the replica loop threads (ordering, transport, codec, frame HMAC, inline apply_batch); crypto verify and checkpoints negligible",
    },
    Workload {
        name: "spend_open",
        backend: Backend::Sim,
        clients: 64,
        pacing: Pacing::Open { rate: 2000.0 },
        warmup_ops: 1_024,
        measured_ops: 4_608,
        genesis_coins: 0,
        why: "open loop at 2000 req/s, same clients and requests: ~1/5 of capacity, small batches, latency per hop; a batching delay that lifts spend_closed shows here as worse p50",
    },
    Workload {
        name: "spend_ed25519",
        backend: Backend::Ed25519,
        clients: 16,
        pacing: Pacing::Closed,
        warmup_ops: 48,
        measured_ops: 384,
        genesis_coins: 0,
        why: "closed loop, 16 clients, Ed25519 client and consensus keys: almost all CPU in crypto (verify pool + consensus signatures), which the Sim-signed workloads bypass",
    },
    Workload {
        name: "bigstate_ckpt",
        backend: Backend::Sim,
        clients: 64,
        pacing: Pacing::Closed,
        warmup_ops: 2_048,
        // Two checkpoint periods of full batches (128 × 64 operations): a
        // window of whole periods holds the same number of checkpoints
        // wherever it starts.
        measured_ops: 16_384,
        genesis_coins: 200_000,
        why: "closed loop, 64 clients, 200k genesis coins (~15 MB snapshot): every checkpoint (take_snapshot, chunked_root, SnapshotStore::install) stalls the loop; durability, merkle, storage dominate",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `(warm-up, measured)` operations *per client* at `scale` (1.0, or 0.1
    /// with `--quick`); at least one of each.
    pub fn per_client(&self, scale: f64) -> (u64, u64) {
        let per = |ops: u64| ((ops as f64 * scale / self.clients as f64).round() as u64).max(1);
        (per(self.warmup_ops), per(self.measured_ops))
    }

    /// Operations one cluster executes at `scale`.
    pub fn ops_per_cluster(&self, scale: f64) -> u64 {
        let (warm, measured) = self.per_client(scale);
        (warm + measured) * self.clients as u64
    }
}

/// CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The key that owns the genesis coins.
fn genesis_owner(backend: Backend) -> PublicKey {
    SecretKey::from_seed(backend, &[0x6e; 32]).public_key()
}

/// A running cluster on its own storage directory.
pub struct Deployment {
    /// The cluster.
    pub cluster: TcpCluster<GenesisCoinApp>,
    /// Replica addresses, by replica id.
    pub addrs: Vec<String>,
    /// Matching replies that complete an operation (`f + 1`).
    pub quorum: usize,
    dir: PathBuf,
}

impl Deployment {
    /// Boots four replicas with the shipped defaults on `dir` (created
    /// fresh), authorising `minters` and starting from `genesis_coins`
    /// coins.
    ///
    /// # Errors
    ///
    /// Propagates socket and storage failures.
    pub fn boot(
        dir: PathBuf,
        backend: Backend,
        minters: Vec<PublicKey>,
        genesis_coins: u64,
    ) -> io::Result<Deployment> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let config = RuntimeConfig {
            storage_dir: Some(dir.clone()),
            require_signed: true,
            ..RuntimeConfig::default()
        };
        let owner = genesis_owner(backend);
        let cluster = TcpCluster::start(config, backend, move || {
            GenesisCoinApp::new(minters.clone(), owner, genesis_coins)
        })?;
        let addrs = cluster.cluster_config().replicas.clone();
        let quorum = cluster.cluster_config().f() + 1;
        Ok(Deployment {
            cluster,
            addrs,
            quorum,
            dir,
        })
    }

    /// Transport counters summed over the live replicas.
    pub fn transport_total(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for replica in 0..self.addrs.len() {
            if let Some(s) = self.cluster.transport_stats(replica) {
                total.frames_in += s.frames_in;
                total.frames_out += s.frames_out;
                total.bytes_in += s.bytes_in;
                total.bytes_out += s.bytes_out;
                total.writev_calls += s.writev_calls;
                total.writev_frames += s.writev_frames;
                total.queue_full_drops += s.queue_full_drops;
            }
        }
        total
    }

    /// Stops the replicas, joins their threads and deletes the storage.
    pub fn shutdown(self) {
        self.cluster.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Process counters at one edge of the measured window.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Trace-clock time.
    pub at_ns: u64,
    /// CPU time per thread.
    pub threads: Vec<ThreadCpu>,
    /// CPU time of the process.
    pub process_cpu_s: f64,
    /// Resident set size.
    pub rss_kb: f64,
    /// Transport counters, all replicas.
    pub transport: TransportStats,
}

impl Snapshot {
    fn take(deployment: &Deployment, at_ns: u64) -> Snapshot {
        Snapshot {
            at_ns,
            threads: procfs::threads(),
            process_cpu_s: procfs::process_cpu_s(),
            rss_kb: procfs::rss_kb(),
            transport: deployment.transport_total(),
        }
    }

    fn to_json(&self) -> String {
        use crate::json::{array, num, object, string};
        object([
            ("t_ns", num(self.at_ns as f64)),
            ("rss_kb", num(self.rss_kb)),
            ("process_cpu_s", num(self.process_cpu_s)),
            ("frames_out", num(self.transport.frames_out as f64)),
            ("bytes_out", num(self.transport.bytes_out as f64)),
            ("writev_calls", num(self.transport.writev_calls as f64)),
            (
                "threads",
                array(self.threads.iter().map(|t| {
                    object([
                        ("tid", num(t.tid as f64)),
                        ("name", string(&t.name)),
                        ("cpu_s", num(t.cpu_s)),
                    ])
                })),
            ),
        ])
    }
}

/// CPU seconds by thread group between two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuBreakdown {
    /// Replica 0's loop thread (the leader while nothing fails).
    pub leader_loop_s: f64,
    /// All four replica loop threads.
    pub replica_loops_s: f64,
    /// Every other thread the replicas spawned (verify and exec pools).
    pub pools_s: f64,
    /// The whole process.
    pub process_s: f64,
}

/// Groups per-thread CPU deltas. `TcpCluster` names each loop thread
/// `sc-replica-N`; the pool threads that loop spawns carry no name of their
/// own and inherit it, so within one name the lowest tid is the loop.
pub fn cpu_breakdown(start: &Snapshot, end: &Snapshot) -> CpuBreakdown {
    let before = |tid: u64| {
        start
            .threads
            .iter()
            .find(|t| t.tid == tid)
            .map_or(0.0, |t| t.cpu_s)
    };
    let mut out = CpuBreakdown {
        process_s: end.process_cpu_s - start.process_cpu_s,
        ..CpuBreakdown::default()
    };
    let mut seen_names: Vec<&str> = Vec::new();
    for thread in &end.threads {
        if !thread.name.starts_with("sc-replica-") {
            continue;
        }
        let delta = (thread.cpu_s - before(thread.tid)).max(0.0);
        // `end.threads` is sorted by tid, so the first of a name is its loop.
        if seen_names.contains(&thread.name.as_str()) {
            out.pools_s += delta;
        } else {
            seen_names.push(&thread.name);
            out.replica_loops_s += delta;
            if thread.name == "sc-replica-0" {
                out.leader_loop_s = delta;
            }
        }
    }
    out
}

/// What one repetition measured.
#[derive(Clone, Debug)]
pub struct Repetition {
    /// Request generation + signing + cluster boot + genesis state + client
    /// connects + warm-up, up to the first measured request.
    pub setup_s: f64,
    /// Measured operations completed ÷ the measured window.
    pub throughput_ops_s: f64,
    /// Median of (quorum time − due time), ms.
    pub latency_p50_ms: f64,
    /// Generator thread CPU ÷ measured window (share of one core).
    pub gen_cpu_share: f64,
    /// 99th percentile of the generator's own lateness, ms.
    pub gen_lateness_p99_ms: f64,
    /// CPU time of the whole process (replicas, pools and generator) inside
    /// the measured window ÷ measured operations completed, ms.
    pub cpu_ms_per_op: f64,
    /// Of the CPU time this process was ready to use between the start of
    /// the repetition and its last measured reply, the share the hypervisor
    /// withheld: machine-wide steal ÷ (process CPU + steal).
    pub steal_share: f64,
    /// The generator's full account.
    pub outcome: Outcome,
    /// Counters at the edges of the measured window (traced runs only).
    pub window: Option<(Snapshot, Snapshot)>,
}

/// The numbers of one repetition that its parent process needs: each
/// repetition of the end-to-end pass runs in a process of its own (so that
/// its peak RSS is its own, and the allocator starts fresh), and reports
/// these on one line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// See [`Repetition::setup_s`].
    pub setup_s: f64,
    /// See [`Repetition::throughput_ops_s`].
    pub throughput_ops_s: f64,
    /// See [`Repetition::cpu_ms_per_op`].
    pub cpu_ms_per_op: f64,
    /// See [`Repetition::latency_p50_ms`].
    pub latency_p50_ms: f64,
    /// 99th percentile of the same latencies (printed, not gated).
    pub latency_p99_ms: f64,
    /// Their maximum (printed, not gated).
    pub latency_max_ms: f64,
    /// `VmHWM` of the repetition's process when the cluster was shut down.
    pub peak_rss_mb: f64,
    /// See [`Repetition::steal_share`].
    pub steal_share: f64,
    /// See [`Repetition::gen_cpu_share`].
    pub gen_cpu_share: f64,
    /// See [`Repetition::gen_lateness_p99_ms`].
    pub gen_lateness_p99_ms: f64,
    /// Operations sent.
    pub attempted: f64,
    /// Operations with a correct reply quorum.
    pub completed: f64,
    /// Operations without one.
    pub failed: f64,
    /// Of those, operations that `f + 1` replicas answered wrongly.
    pub wrong: f64,
    /// Requests sent again after 500 ms.
    pub retransmits: f64,
    /// Latency samples (measured operations completed).
    pub samples: f64,
}

impl Summary {
    /// Field names and values, in the order they are written.
    pub fn fields(&self) -> [(&'static str, f64); 16] {
        [
            ("setup_s", self.setup_s),
            ("throughput_ops_s", self.throughput_ops_s),
            ("cpu_ms_per_op", self.cpu_ms_per_op),
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_p99_ms", self.latency_p99_ms),
            ("latency_max_ms", self.latency_max_ms),
            ("peak_rss_mb", self.peak_rss_mb),
            ("steal_share", self.steal_share),
            ("gen_cpu_share", self.gen_cpu_share),
            ("gen_lateness_p99_ms", self.gen_lateness_p99_ms),
            ("attempted", self.attempted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("wrong", self.wrong),
            ("retransmits", self.retransmits),
            ("samples", self.samples),
        ]
    }

    /// One line of JSON.
    pub fn to_json(&self) -> String {
        crate::json::object(
            self.fields()
                .into_iter()
                .map(|(name, value)| (name, crate::json::num(value))),
        )
    }

    /// Reads [`Summary::to_json`]'s output back.
    pub fn from_json(line: &str) -> Option<Summary> {
        let mut values = [0.0; 16];
        for (slot, (name, _)) in values.iter_mut().zip(Summary::default().fields()) {
            *slot = crate::json::number_after(line, &format!("\"{name}\": "))?;
        }
        let [setup_s, throughput_ops_s, cpu_ms_per_op, latency_p50_ms, latency_p99_ms, latency_max_ms, peak_rss_mb, steal_share, gen_cpu_share, gen_lateness_p99_ms, attempted, completed, failed, wrong, retransmits, samples] =
            values;
        Some(Summary {
            setup_s,
            throughput_ops_s,
            cpu_ms_per_op,
            latency_p50_ms,
            latency_p99_ms,
            latency_max_ms,
            peak_rss_mb,
            steal_share,
            gen_cpu_share,
            gen_lateness_p99_ms,
            attempted,
            completed,
            failed,
            wrong,
            retransmits,
            samples,
        })
    }
}

impl Repetition {
    /// This repetition's [`Summary`]; `peak_rss_mb` is read now.
    pub fn summary(&self) -> Summary {
        let latency = ms(&self.outcome.latency_ns);
        Summary {
            setup_s: self.setup_s,
            throughput_ops_s: self.throughput_ops_s,
            cpu_ms_per_op: self.cpu_ms_per_op,
            latency_p50_ms: self.latency_p50_ms,
            latency_p99_ms: quantile(&latency, 0.99),
            latency_max_ms: max(&latency),
            peak_rss_mb: procfs::peak_rss_mb(),
            steal_share: self.steal_share,
            gen_cpu_share: self.gen_cpu_share,
            gen_lateness_p99_ms: self.gen_lateness_p99_ms,
            attempted: self.outcome.attempted as f64,
            completed: self.outcome.completed as f64,
            failed: self.outcome.failed as f64,
            wrong: self.outcome.wrong as f64,
            retransmits: self.outcome.retransmits as f64,
            samples: self.outcome.latency_ns.len() as f64,
        }
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e6).collect()
}

/// Runs one repetition of `workload` on a fresh cluster under
/// `storage_root`. With a `trace`, request spans and per-second counter
/// samples are kept in it.
///
/// # Errors
///
/// Propagates socket and storage failures.
pub fn run_repetition(
    workload: &Workload,
    seed: u64,
    scale: f64,
    storage_root: &Path,
    label: &str,
    trace: Option<&mut Trace>,
) -> io::Result<Repetition> {
    let setup_start_ns = now_ns();
    // The replicas' threads inherit the mask; see `affinity`.
    let one_cpu = OneCpu::pin()?;
    let steal_at_start_s = procfs::machine_steal_s();
    let cpu_at_start_s = procfs::process_cpu_s();
    let (warm, measured) = workload.per_client(scale);
    let plans = requests::build_plans(seed, workload.backend, workload.clients, warm + measured);
    let minters = requests::client_public_keys(seed, workload.backend, workload.clients);
    let deployment = Deployment::boot(
        storage_root.join(format!("{}-{label}", workload.name)),
        workload.backend,
        minters,
        workload.genesis_coins,
    )?;
    let mut generator = Generator::connect(&deployment.addrs, plans, deployment.quorum)?;
    let spec = RunSpec {
        pacing: workload.pacing,
        warmup_per_client: warm,
        measured_per_client: measured,
        trace: trace.is_some(),
        redial: false,
        watch_replica: None,
        stop_at_failure: true,
    };
    let tracing = trace.is_some();
    let mut edges: Vec<Snapshot> = Vec::new();
    let mut samples: Vec<String> = Vec::new();
    let (mut steal_s, mut cpu_s) = (0.0, 0.0);
    let (mut window_cpu_start_s, mut window_cpu_s) = (0.0, 0.0);
    let outcome = generator.run(&spec, &mut |event, at_ns| {
        if event == Event::MeasuredStart {
            window_cpu_start_s = procfs::process_cpu_s();
        }
        if event == Event::MeasuredEnd {
            window_cpu_s = procfs::process_cpu_s() - window_cpu_start_s;
            steal_s = procfs::machine_steal_s() - steal_at_start_s;
            cpu_s = procfs::process_cpu_s() - cpu_at_start_s;
        }
        if !tracing {
            return;
        }
        let snapshot = Snapshot::take(&deployment, at_ns);
        samples.push(snapshot.to_json());
        if event != Event::Tick {
            edges.push(snapshot);
        }
    })?;
    if let Some(trace) = trace {
        trace.add_requests(&outcome.spans);
        for sample in samples {
            trace.add_sample(sample);
        }
    }
    drop(generator);
    deployment.shutdown();
    drop(one_cpu);

    let latency_ms = ms(&outcome.latency_ns);
    let seconds = outcome.measured_seconds();
    let window = match <[Snapshot; 2]>::try_from(edges) {
        Ok([start, end]) => Some((start, end)),
        Err(_) => None,
    };
    Ok(Repetition {
        setup_s: outcome.measured_start_ns.saturating_sub(setup_start_ns) as f64 / 1e9,
        throughput_ops_s: outcome.measured_completed as f64 / seconds,
        cpu_ms_per_op: window_cpu_s * 1e3 / outcome.measured_completed.max(1) as f64,
        latency_p50_ms: median(&latency_ms),
        gen_cpu_share: outcome.gen_cpu_s / seconds,
        gen_lateness_p99_ms: quantile(&ms(&outcome.lateness_ns), 0.99),
        steal_share: steal_s / (cpu_s + steal_s).max(f64::MIN_POSITIVE),
        outcome,
        window,
    })
}

/// A validity guard that did not hold.
pub type Violation = String;

/// Checks the guards that make a run's numbers mean what they claim, over
/// every repetition that ran; an empty result means the run is valid.
pub fn violations(workload: &Workload, scale: f64, reps: &[Summary]) -> Vec<Violation> {
    let mut out = Vec::new();
    let ops = workload.ops_per_cluster(scale);
    if ops > MAX_OPS_PER_CLUSTER {
        out.push(format!(
            "{ops} operations on one cluster exceed the {MAX_OPS_PER_CLUSTER} cap"
        ));
    }
    let failed: f64 = reps.iter().map(|r| r.failed).sum();
    if failed > 0.0 {
        out.push(format!(
            "{failed} operations failed on a fault-free workload"
        ));
    }
    let gen_share = median(&reps.iter().map(|r| r.gen_cpu_share).collect::<Vec<_>>());
    if gen_share > 0.8 {
        out.push(format!(
            "the generator used {:.0} % of a core (limit 80 %): it, not the cluster, may be the bottleneck",
            gen_share * 100.0
        ));
    }
    let samples: f64 = reps.iter().map(|r| r.samples).sum();
    // A scaled-down run cannot reach 1000; it must still deliver half of
    // what it planned.
    let planned = workload.per_client(scale).1 as f64 * workload.clients as f64 * reps.len() as f64;
    let needed = (planned / 2.0).min(1000.0);
    if samples < needed {
        out.push(format!(
            "{samples} latency samples, fewer than the {needed} a median needs"
        ));
    }
    // A generator that cannot keep the schedule is late in every
    // repetition; one that is late in some was kept off the CPU by the
    // machine (a vCPU the hypervisor takes away stalls it like everything
    // else), which the per-repetition lines show. A run too small for the
    // 1000 samples has no 99th percentile to judge.
    if matches!(workload.pacing, Pacing::Open { .. }) && samples >= 1000.0 {
        let late = reps
            .iter()
            .map(|r| r.gen_lateness_p99_ms)
            .fold(f64::INFINITY, f64::min);
        if late > 5.0 {
            out.push(format!(
                "the generator ran at least {late:.2} ms late at p99 in every repetition (limit 5 ms): the offered schedule was not kept"
            ));
        }
    }
    out
}
