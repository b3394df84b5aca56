//! Zero-copy hot path: ordering a value costs exactly one SHA-256 of its
//! bytes per decided instance across the *whole* cluster — the decided
//! value travels as a shared [`ValueBytes`] handle whose digest is
//! memoized, so PROPOSE hashing, WRITE/ACCEPT validation, proof checks,
//! and delivery all reuse one computation.

mod common;

use common::{cores, pump, req, submit};
use smartchain::crypto::value::hashes_computed;
use smartchain::smr::ordering::OrderingConfig;

/// α = 4 pipelined ordering over 4 replicas: eight one-request decisions
/// cost exactly eight digest computations cluster-wide. Every PROPOSE
/// relay, WRITE/ACCEPT hash check, decision-proof validation, and delivery
/// handle shares the one memoized digest of the decided value — nothing on
/// the ordering path hashes the same bytes twice, on any replica.
#[test]
fn ordering_hashes_each_decided_value_exactly_once() {
    let config = OrderingConfig {
        max_batch: 1,
        window: 4,
    };
    let mut cores = cores(4, config);
    assert!(cores[0].is_leader());
    let submissions = (0..8u64)
        .flat_map(|s| (0..4usize).map(move |r| (r, req(9, s))))
        .collect();
    let before = hashes_computed();
    let initial = submit(&mut cores, submissions);
    let delivered = pump(&mut cores, initial, |_, _, _| false);
    for r in 1..4 {
        assert_eq!(delivered[r], delivered[0], "identical order everywhere");
    }
    let decided = delivered[0].len() as u64;
    assert_eq!(decided, 8, "eight one-request instances must decide");
    assert_eq!(
        hashes_computed() - before,
        decided,
        "one digest per decided value across the whole 4-replica cluster"
    );
}
