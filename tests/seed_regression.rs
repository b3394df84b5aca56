//! Deterministic-seed regression pins: the lossy-network scenario's
//! observable outcomes are pinned for two RNG seeds.
//!
//! The simulator promises bit-for-bit reproducibility from a seed. Pipeline
//! changes that alter virtual-time scheduling (stage reordering, different
//! charge points, new events) legitimately change these numbers — but they
//! must do so *visibly*. If this test fails and the change to event timing
//! was intended, re-pin the constants; if no timing change was intended,
//! something non-deterministic crept in.

use smartchain::core::audit::verify_chain;
use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::NodeConfig;
use smartchain::sim::{MILLI, SECOND};
use smartchain::smr::app::CounterApp;
use smartchain::smr::ordering::OrderingConfig;

/// One lossy-network run (the `tests/lossy_network.rs` scenario, pinned):
/// 4 replicas, 5% drops, 4 clients × 30 requests, 120 virtual seconds.
/// Returns the observables: (completed, heights, delivered_messages).
fn lossy_run(seed: u64) -> (u64, Vec<u64>, u64) {
    lossy_run_alpha(seed, 1)
}

fn lossy_run_alpha(seed: u64, alpha: u64) -> (u64, Vec<u64>, u64) {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            window: alpha,
        },
        progress_timeout: 200 * MILLI,
        ..NodeConfig::default()
    };
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .node_config(config)
        .seed(seed)
        .clients(1, 4, Some(30))
        .build();
    cluster.sim().set_drop_probability(0.05);
    cluster.run_until(120 * SECOND);
    let completed = cluster.total_completed();
    let heights: Vec<u64> = (0..4)
        .map(|r| cluster.node::<CounterApp>(r).height().unwrap_or(0))
        .collect();
    // The run must still be *correct*, not just reproducible.
    let genesis = cluster.node::<CounterApp>(0).genesis().clone();
    for r in 0..4 {
        let chain = cluster.node::<CounterApp>(r).chain();
        verify_chain(&genesis, &chain).unwrap_or_else(|e| panic!("replica {r}: {e}"));
    }
    let delivered = cluster.sim().delivered_messages();
    (completed, heights, delivered)
}

#[test]
fn same_seed_same_outcome() {
    assert_eq!(
        lossy_run(7),
        lossy_run(7),
        "a seed fully determines the run"
    );
}

#[test]
fn seed_7_outcome_pinned() {
    let (completed, heights, delivered) = lossy_run(7);
    assert_eq!(
        (completed, heights, delivered),
        (PIN_7.0, PIN_7.1.to_vec(), PIN_7.2),
        "seed-7 outcome drifted — intended scheduling change? re-pin; otherwise find the nondeterminism"
    );
}

#[test]
fn seed_20260730_outcome_pinned() {
    let (completed, heights, delivered) = lossy_run(20_260_730);
    assert_eq!(
        (completed, heights, delivered),
        (PIN_B.0, PIN_B.1.to_vec(), PIN_B.2),
        "seed-20260730 outcome drifted — intended scheduling change? re-pin; otherwise find the nondeterminism"
    );
}

/// The same scenario with a pipelined ordering core (α = 4): seeds must
/// still fully determine the run — several consensus instances in flight,
/// out-of-order decisions, vector view changes and all.
#[test]
fn same_seed_same_outcome_alpha4() {
    assert_eq!(
        lossy_run_alpha(7, 4),
        lossy_run_alpha(7, 4),
        "a seed fully determines the pipelined run"
    );
}

#[test]
fn seed_7_outcome_pinned_alpha4() {
    let (completed, heights, delivered) = lossy_run_alpha(7, 4);
    assert_eq!(
        (completed, heights, delivered),
        (PIN_7_A4.0, PIN_7_A4.1.to_vec(), PIN_7_A4.2),
        "alpha-4 seed-7 outcome drifted — intended scheduling change? re-pin; otherwise find the nondeterminism"
    );
}

/// Pinned observables: (completed requests, per-replica heights, messages
/// delivered by the kernel). Regenerate with `dump_pins` below.
///
/// Moved from (53, [21, 39, 41, 40], 18 860) when the window 1 began
/// repairing a stalled frontier before changing leader: with the
/// repair-less path put back alone the run reads (69, [21, 44, 49, 49],
/// 18 917), and with the old catch-up window put back too it reads the old
/// pin; the catch-up window or the repair reply's value order alone moves
/// nothing.
const PIN_7: (u64, [u64; 4], u64) = (120, [104, 104, 104, 104], 7_076);
/// Moved from (41, [37, 37, 39, 34], 25 404) by the same repair (61,
/// [58, 36, 57, 52], 21 768 with the repair-less path put back alone).
const PIN_B: (u64, [u64; 4], u64) = (120, [109, 109, 109, 109], 7_040);
/// Moved from (49, [47, 47, 40, 40], 17 621) by the same repair, at the
/// window 4 (43, [42, 39, 39, 38], 33 227 with the repair-less path
/// put back alone).
const PIN_7_A4: (u64, [u64; 4], u64) = (120, [114, 114, 114, 114], 12_082);

#[test]
#[ignore = "pin regeneration helper: cargo test -q --test seed_regression -- --ignored --nocapture"]
fn dump_pins() {
    for seed in [7u64, 20_260_730] {
        let (completed, heights, delivered) = lossy_run(seed);
        println!("seed {seed}: completed={completed} heights={heights:?} delivered={delivered}");
    }
    let (completed, heights, delivered) = lossy_run_alpha(7, 4);
    println!("seed 7 alpha 4: completed={completed} heights={heights:?} delivered={delivered}");
}
