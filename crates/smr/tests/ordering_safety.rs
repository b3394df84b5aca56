//! Property tests on the total-order core: under arbitrary message
//! interleavings, duplicate deliveries, and adversarial drop schedules, all
//! replicas deliver identical request sequences (safety), and with no drops
//! everything submitted is eventually delivered (liveness under synchrony).
//!
//! Randomized schedules come from a seeded splitmix64 generator so every run
//! exercises the same 48 cases without an external property-testing crate.

// Replica ids double as vector indices throughout.
#![allow(clippy::needless_range_loop)]

use smartchain_consensus::{ReplicaId, View};
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_smr::ordering::{CoreOutput, OrderingConfig, OrderingCore, SmrMsg};
use smartchain_smr::types::Request;

use smartchain_sim::rng::SimRng;

/// Seeded schedule generator over the simulator's RNG (no external crates).
struct Gen(SimRng);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SimRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

fn make_cluster(n: usize, max_batch: usize, window: u64) -> Vec<OrderingCore> {
    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 40; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    (0..n)
        .map(|i| {
            OrderingCore::new(
                i,
                view.clone(),
                secrets[i].clone(),
                OrderingConfig { max_batch, window },
                0,
            )
        })
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

/// Drives the cluster with a seeded scheduler: `order` decides which queued
/// message is delivered next; `drop_mask` drops some deliveries entirely.
/// Returns each replica's delivered id sequence.
fn pump_randomized(
    cores: &mut [OrderingCore],
    submissions: Vec<(ReplicaId, Request)>,
    order: &[u8],
    drop_mask: &[bool],
) -> Vec<Vec<(u64, u64)>> {
    let n = cores.len();
    let mut delivered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let mut queue: Vec<(ReplicaId, ReplicaId, SmrMsg)> = Vec::new();
    let handle = |from: ReplicaId,
                  out: CoreOutput,
                  queue: &mut Vec<(ReplicaId, ReplicaId, SmrMsg)>,
                  delivered: &mut Vec<Vec<(u64, u64)>>| match out {
        CoreOutput::Broadcast(m) => {
            for to in 0..n {
                if to != from {
                    queue.push((from, to, m.clone()));
                }
            }
        }
        CoreOutput::Send(to, m) => queue.push((from, to, m)),
        CoreOutput::Deliver(b) => delivered[from].extend(b.requests.iter().map(Request::id)),
        CoreOutput::NeedStateTransfer { .. } => {}
    };
    for (r, request) in submissions {
        for out in cores[r].submit(request) {
            handle(r, out, &mut queue, &mut delivered);
        }
    }
    let mut step = 0usize;
    while !queue.is_empty() && step < 100_000 {
        // Pick a pseudo-random queued message.
        let pick = order[step % order.len()] as usize % queue.len();
        let (from, to, msg) = queue.swap_remove(pick);
        let dropped = drop_mask[step % drop_mask.len()];
        step += 1;
        if dropped {
            continue;
        }
        for out in cores[to].on_message(from, msg) {
            handle(to, out, &mut queue, &mut delivered);
        }
    }
    delivered
}

/// SAFETY: any delivery order, any drops — delivered sequences are
/// prefix-compatible across replicas and contain no duplicates.
#[test]
fn prop_no_divergence_under_drops() {
    prop_no_divergence_under_drops_at(1);
}

/// The same safety property with a pipelined core (α = 4): several
/// instances are in flight at once, decisions arrive out of order, and
/// delivery must still be prefix-compatible and duplicate-free everywhere.
#[test]
fn prop_no_divergence_under_drops_alpha4() {
    prop_no_divergence_under_drops_at(4);
}

fn prop_no_divergence_under_drops_at(window: u64) {
    let mut g = Gen::new(0xa1);
    for case in 0..48 {
        let order: Vec<u8> = (0..64).map(|_| g.next_u64() as u8).collect();
        let drop_mask: Vec<bool> = (0..64).map(|_| g.next_u64().is_multiple_of(10)).collect();
        let clients = 1 + g.next_u64() % 4;
        let reqs = 1 + g.next_u64() % 4;
        let max_batch = 1 + (g.next_u64() as usize) % 5;
        let mut cores = make_cluster(4, max_batch, window);
        let mut submissions = Vec::new();
        for c in 0..clients {
            for s in 0..reqs {
                // Submit to every replica, as real clients do.
                for r in 0..4usize {
                    submissions.push((r, req(c, s)));
                }
            }
        }
        let delivered = pump_randomized(&mut cores, submissions, &order, &drop_mask);
        for a in 0..4 {
            // No duplicates within a replica.
            let mut seen = std::collections::HashSet::new();
            for id in &delivered[a] {
                assert!(
                    seen.insert(*id),
                    "case {case}: replica {a} delivered {id:?} twice"
                );
            }
            // Prefix compatibility between replicas.
            for b in (a + 1)..4 {
                let common = delivered[a].len().min(delivered[b].len());
                assert_eq!(
                    &delivered[a][..common],
                    &delivered[b][..common],
                    "case {case}: replicas {a} and {b} diverge"
                );
            }
        }
    }
}

/// LIVENESS (no drops): everything submitted is delivered everywhere.
#[test]
fn prop_all_delivered_without_drops() {
    prop_all_delivered_without_drops_at(1);
}

/// Liveness with a pipelined core (α = 4).
#[test]
fn prop_all_delivered_without_drops_alpha4() {
    prop_all_delivered_without_drops_at(4);
}

/// Liveness at α = 8: a follower a few instances behind the leader must
/// still take part in the in-window traffic, so reordering alone never
/// turns into loss.
#[test]
fn prop_all_delivered_without_drops_alpha8() {
    prop_all_delivered_without_drops_at(8);
}

fn prop_all_delivered_without_drops_at(window: u64) {
    let mut g = Gen::new(0xa2);
    for case in 0..48 {
        let order: Vec<u8> = (0..64).map(|_| g.next_u64() as u8).collect();
        let clients = 1 + g.next_u64() % 4;
        let reqs = 1 + g.next_u64() % 4;
        let max_batch = 1 + (g.next_u64() as usize) % 5;
        let mut cores = make_cluster(4, max_batch, window);
        let mut submissions = Vec::new();
        for c in 0..clients {
            for s in 0..reqs {
                for r in 0..4usize {
                    submissions.push((r, req(c, s)));
                }
            }
        }
        let expected = (clients * reqs) as usize;
        let no_drops = vec![false];
        let delivered = pump_randomized(&mut cores, submissions, &order, &no_drops);
        for r in 0..4 {
            assert_eq!(
                delivered[r].len(),
                expected,
                "case {case}: replica {r} delivered {} of {expected}",
                delivered[r].len()
            );
        }
        // And in the identical order.
        for r in 1..4 {
            assert_eq!(&delivered[r], &delivered[0], "case {case}");
        }
    }
}
