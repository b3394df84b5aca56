//! Zero-copy hot path: counting and determinism guarantees.
//!
//! 1. **Hash-once**: ordering a value costs exactly one SHA-256 of its
//!    bytes per decided instance across the *whole* cluster — the decided
//!    value travels as a shared [`ValueBytes`] handle whose digest is
//!    memoized, so PROPOSE hashing, WRITE/ACCEPT validation, proof checks,
//!    and delivery all reuse one computation.
//! 2. **Joint α×batch adaptation**: with `batch_adaptive` on, the batch cap
//!    shrinks as the AIMD window α grows (`max_batch × min_α / α`), keeping
//!    α×batch — the number of in-flight requests — near constant. The cap
//!    is a pure function of observed events, so identically-seeded runs
//!    stay bit-for-bit equal, and the engaged cap is visible as delivered
//!    batches smaller than `max_batch`.

use smartchain::consensus::View;
use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::NodeConfig;
use smartchain::crypto::keys::{Backend, SecretKey};
use smartchain::crypto::value::hashes_computed;
use smartchain::sim::{MILLI, SECOND};
use smartchain::smr::app::CounterApp;
use smartchain::smr::ordering::{
    AlphaBounds, CoreOutput, OrderingConfig, OrderingCore, OrderingStats, SmrMsg,
};
use smartchain::smr::types::Request;
use std::sync::Mutex;

/// The digest counter is process-global, and both tests in this binary
/// order values; serialize them so one test's deliveries cannot leak into
/// the other's before/after window.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn cores(n: usize, config: &OrderingConfig) -> Vec<OrderingCore> {
    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 40; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    (0..n)
        .map(|i| OrderingCore::new(i, view.clone(), secrets[i].clone(), *config, 0))
        .collect()
}

fn req(client: u64, seq: u64) -> Request {
    Request {
        client,
        seq,
        payload: vec![client as u8, seq as u8],
        signature: None,
    }
}

/// Loss-free FIFO pump. Returns, per replica, the sizes of the delivered
/// batches in delivery order (the request ids inside are checked equal
/// across replicas as a side assertion).
fn pump_clean(cores: &mut [OrderingCore], submissions: Vec<(usize, Request)>) -> Vec<Vec<usize>> {
    let n = cores.len();
    let mut batch_sizes: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut delivered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let mut queue: std::collections::VecDeque<(usize, usize, SmrMsg)> =
        std::collections::VecDeque::new();
    let handle = |from: usize,
                  out: CoreOutput,
                  queue: &mut std::collections::VecDeque<(usize, usize, SmrMsg)>,
                  batch_sizes: &mut Vec<Vec<usize>>,
                  delivered: &mut Vec<Vec<(u64, u64)>>| match out {
        CoreOutput::Broadcast(m) => {
            for to in 0..n {
                if to != from {
                    queue.push_back((from, to, m.clone()));
                }
            }
        }
        CoreOutput::Send(to, m) => queue.push_back((from, to, m)),
        CoreOutput::Deliver(b) => {
            batch_sizes[from].push(b.requests.len());
            delivered[from].extend(b.requests.iter().map(Request::id));
        }
        CoreOutput::NeedStateTransfer { .. } => {}
    };
    for (r, request) in submissions {
        for out in cores[r].submit(request) {
            handle(r, out, &mut queue, &mut batch_sizes, &mut delivered);
        }
    }
    let mut step = 0usize;
    while let Some((from, to, msg)) = queue.pop_front() {
        step += 1;
        assert!(step < 200_000, "pump did not quiesce");
        for out in cores[to].on_message(from, msg) {
            handle(to, out, &mut queue, &mut batch_sizes, &mut delivered);
        }
    }
    for r in 1..n {
        assert_eq!(delivered[r], delivered[0], "identical order everywhere");
    }
    batch_sizes
}

/// α = 4 pipelined ordering over 4 replicas: eight one-request decisions
/// cost exactly eight digest computations cluster-wide. Every PROPOSE
/// relay, WRITE/ACCEPT hash check, decision-proof validation, and delivery
/// handle shares the one memoized digest of the decided value — nothing on
/// the ordering path hashes the same bytes twice, on any replica.
#[test]
fn ordering_hashes_each_decided_value_exactly_once() {
    let _g = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = OrderingConfig {
        max_batch: 1,
        alpha: 4,
        ..OrderingConfig::default()
    };
    let mut cores = cores(4, &config);
    assert!(cores[0].is_leader());
    let submissions: Vec<(usize, Request)> = (0..8u64)
        .flat_map(|s| (0..4usize).map(move |r| (r, req(9, s))))
        .collect();
    let before = hashes_computed();
    let batch_sizes = pump_clean(&mut cores, submissions);
    let decided = batch_sizes[0].len() as u64;
    assert_eq!(decided, 8, "eight instances must decide");
    assert_eq!(
        hashes_computed() - before,
        decided,
        "one digest per decided value across the whole 4-replica cluster"
    );
}

/// Joint adaptation engages: as the clean pipeline grows α toward its max,
/// the batch cap shrinks to `max_batch × min_α / α`, so delivered batches
/// get *smaller* while more of them are in flight. At α = 4 with
/// `max_batch = 8` no batch may exceed 2.
#[test]
fn joint_adaptation_caps_batches_as_alpha_grows() {
    let _g = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = OrderingConfig {
        max_batch: 8,
        alpha: 1,
        alpha_adaptive: Some(AlphaBounds { min: 1, max: 4 }),
        batch_adaptive: true,
        ..OrderingConfig::default()
    };
    let mut cores = cores(4, &config);
    // Plenty of standing load: every replica holds all 64 requests, so the
    // leader could always fill max_batch if the cap never engaged.
    let submissions: Vec<(usize, Request)> = (0..64u64)
        .flat_map(|s| (0..4usize).map(move |r| (r, req(3, s))))
        .collect();
    let batch_sizes = pump_clean(&mut cores, submissions);
    let total: usize = batch_sizes[0].iter().sum();
    assert_eq!(total, 64, "every request must be delivered exactly once");
    assert!(
        batch_sizes[0].iter().any(|&s| s < 8),
        "the shrinking cap must be visible as sub-max batches: {:?}",
        batch_sizes[0]
    );
    // Once α reaches its max of 4, the cap is 8 × 1 / 4 = 2. The window
    // only grows on clean decisions, so the tail of the run — everything
    // after the first 4-instance window at max α — obeys the tight cap.
    let alpha_max = cores[0].stats().alpha_max_seen;
    assert_eq!(alpha_max, 4, "clean run must grow the window to its max");
    let tail_violations: Vec<&usize> = batch_sizes[0]
        .iter()
        .rev()
        .take(4)
        .filter(|&&s| s > 2)
        .collect();
    assert!(
        tail_violations.is_empty(),
        "at α = 4 the cap is 2: {:?}",
        batch_sizes[0]
    );
}

/// One joint-adaptation run (α AIMD + batch cap + ranged repair all on)
/// under front-loaded bursty loss, harness-level.
fn joint_bursty_run(seed: u64) -> (u64, Vec<u64>, Vec<OrderingStats>) {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            alpha: 1,
            alpha_adaptive: Some(AlphaBounds { min: 1, max: 8 }),
            batch_adaptive: true,
            repair_range: 4,
        },
        progress_timeout: 200 * MILLI,
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .seed(seed)
        .clients(1, 4, Some(100))
        .build();
    let mut t = 0u64;
    while t < 8_000 {
        cluster.sim().set_drop_probability(0.8);
        t += 1_000;
        cluster.run_until(t * MILLI);
        cluster.sim().set_drop_probability(0.0);
        t += 1_000;
        cluster.run_until(t * MILLI);
    }
    cluster.run_until(12 * SECOND);
    let completed = cluster.total_completed();
    let heights: Vec<u64> = (0..4)
        .map(|r| cluster.node::<CounterApp>(r).height().unwrap_or(0))
        .collect();
    let stats: Vec<OrderingStats> = (0..4)
        .map(|r| {
            cluster
                .node::<CounterApp>(r)
                .ordering_stats()
                .expect("replica has an ordering core")
        })
        .collect();
    (completed, heights, stats)
}

/// The joint α×batch adaptation (and the ranged repair riding with it) is a
/// pure function of observed events: identically-seeded runs reproduce
/// completions, heights, and every adaptation counter bit-for-bit.
#[test]
fn joint_adaptation_is_deterministic_under_bursty_loss() {
    let _g = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = joint_bursty_run(13);
    let b = joint_bursty_run(13);
    assert_eq!(a, b, "a seed fully determines the joint-adaptive run");
    let (completed, _, stats) = a;
    assert!(completed > 0, "clients must make progress");
    assert!(
        stats.iter().map(|s| s.fetches_sent).sum::<u64>() > 0,
        "bursts must trigger (ranged) repair fetches"
    );
}
