//! Byzantine-safety property tests for VP-Consensus: an equivocating leader
//! sending arbitrary value splits to arbitrary replica subsets, with
//! arbitrary delivery orders, can never produce two conflicting decisions —
//! and whatever decides carries a verifiable quorum proof.
//!
//! Randomized splits and delivery orders come from a seeded splitmix64
//! generator so every run covers the same 64 adversarial schedules.

use smartchain_consensus::instance::{Decision, Instance};
use smartchain_consensus::messages::{ConsensusMsg, Output};
use smartchain_consensus::proof::{write_sign_payload, WriteCertificate};
use smartchain_consensus::synchronizer::{
    LockedReport, StopData, SyncAction, SyncMsg, Synchronizer,
};
use smartchain_consensus::{ReplicaId, View};
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_crypto::sha256;

use smartchain_sim::rng::SimRng;

/// Seeded generator helpers over the simulator's RNG (no external crates).
struct Gen(SimRng);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SimRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        let len = min + self.0.gen_range((max - min + 1) as u64) as usize;
        self.0.gen_bytes(len)
    }
}

fn cluster(n: usize) -> (Vec<Instance>, View) {
    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 180; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    let instances = (0..n)
        .map(|i| Instance::new(1, i, view.clone(), secrets[i].clone(), 0, 0))
        .collect();
    (instances, view)
}

/// Leader 0 is Byzantine: it partitions the followers between two
/// proposals. No two correct replicas may decide different values, and
/// every decision proof must verify.
#[test]
fn equivocation_never_splits_decisions() {
    let mut g = Gen::new(0xb1);
    for case in 0..64 {
        let assignment: Vec<bool> = (0..3).map(|_| g.next_u64().is_multiple_of(2)).collect();
        let value_a = g.bytes(1, 24);
        let mut value_b = g.bytes(1, 24);
        if value_b == value_a {
            value_b.push(0x5a); // force distinct proposals
        }
        let (mut instances, view) = cluster(4);
        // The Byzantine leader sends value A or B to each follower.
        let mut queue: Vec<(ReplicaId, ReplicaId, ConsensusMsg)> = Vec::new();
        for (i, takes_a) in assignment.iter().enumerate() {
            let to = i + 1;
            let value = if *takes_a {
                value_a.clone()
            } else {
                value_b.clone()
            };
            queue.push((
                0,
                to,
                ConsensusMsg::Propose {
                    instance: 1,
                    epoch: 0,
                    value: value.into(),
                },
            ));
        }
        let mut decisions: Vec<Option<Decision>> = vec![None; 4];
        let mut step = 0usize;
        while !queue.is_empty() && step < 20_000 {
            let pick = (g.next_u64() as usize) % queue.len();
            step += 1;
            let (from, to, msg) = queue.swap_remove(pick);
            let (outs, decision) = instances[to].on_message(from, msg);
            if let Some(d) = decision {
                decisions[to] = Some(d);
            }
            for out in outs {
                match out {
                    Output::Broadcast(m) => {
                        // Follower broadcasts reach everyone except the
                        // (silent, Byzantine) leader's honest path — include
                        // the leader anyway; it stays mute.
                        for peer in 0..4 {
                            if peer != to {
                                queue.push((to, peer, m.clone()));
                            }
                        }
                    }
                    Output::Send(peer, m) => queue.push((to, peer, m)),
                }
            }
        }
        let decided: Vec<&Decision> = decisions.iter().flatten().collect();
        let values: std::collections::HashSet<Vec<u8>> =
            decided.iter().map(|d| d.value.to_vec()).collect();
        assert!(
            values.len() <= 1,
            "case {case}: conflicting decisions ({} values)",
            values.len()
        );
        for d in decided {
            assert!(
                d.proof.verify(&view),
                "case {case}: decision proof must verify"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pipelined view-change safety
// ---------------------------------------------------------------------------

fn sync_setup(n: usize) -> (Vec<SecretKey>, View, Vec<Synchronizer>) {
    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 210; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    let syncs = (0..n).map(|i| Synchronizer::new(i, view.clone())).collect();
    (secrets, view, syncs)
}

fn genuine_lock(
    secrets: &[SecretKey],
    signers: &[ReplicaId],
    instance: u64,
    epoch: u32,
    value: &[u8],
) -> LockedReport {
    let h = sha256::digest(value);
    let payload = write_sign_payload(instance, epoch, &h);
    LockedReport {
        value: value.to_vec().into(),
        cert: WriteCertificate {
            instance,
            epoch,
            value_hash: h,
            writes: signers
                .iter()
                .map(|&r| (r, secrets[r].sign(&payload)))
                .collect(),
        },
    }
}

/// An installed adoption vector: `(instance, value)` pairs.
type Adopted = Vec<(u64, smartchain_consensus::ValueBytes)>;

/// Drives a full regency change with per-replica STOPDATA contents and
/// returns each replica's adopted `(instance, value)` vector.
fn run_change(
    syncs: &mut [Synchronizer],
    stopdata: impl Fn(ReplicaId) -> StopData,
) -> Vec<Option<Adopted>> {
    let n = syncs.len();
    let mut adopted: Vec<Option<Adopted>> = vec![None; n];
    let mut queue: Vec<(ReplicaId, ReplicaId, SyncMsg)> = Vec::new();
    for r in [1usize, 2] {
        for a in syncs[r].request_change() {
            if let SyncAction::Broadcast(m) = a {
                for peer in 0..n {
                    if peer != r {
                        queue.push((r, peer, m.clone()));
                    }
                }
            }
        }
    }
    while let Some((from, to, msg)) = queue.pop() {
        for action in syncs[to].on_message(from, msg) {
            match action {
                SyncAction::Broadcast(m) => {
                    for peer in 0..n {
                        if peer != to {
                            queue.push((to, peer, m.clone()));
                        }
                    }
                }
                SyncAction::Send(peer, m) => queue.push((to, peer, m)),
                SyncAction::ProvideStopData { regency, leader } => {
                    let msg = SyncMsg::StopData {
                        regency,
                        data: stopdata(to),
                    };
                    queue.push((to, leader, msg));
                }
                SyncAction::Install { adopt, .. } => adopted[to] = Some(adopt),
            }
        }
    }
    adopted
}

/// With α = 4 in-flight instances, every instance's locked (possibly
/// decided) value must be adopted at its OWN instance — the per-instance
/// choice rule — and all correct replicas must adopt identical vectors.
#[test]
fn pipelined_view_change_adopts_every_locked_instance() {
    let (secrets, _, mut syncs) = sync_setup(4);
    // Quorum-locked values at instances 5..=8, reported unevenly: replica 0
    // holds locks for 5..=8, replica 1 for 5..=6, replica 2 for 7..=8,
    // replica 3 for none. Any n−f = 3 reports still cover all four.
    let locks: Vec<LockedReport> = (5..=8u64)
        .map(|i| genuine_lock(&secrets, &[0, 1, 2], i, 0, format!("value-{i}").as_bytes()))
        .collect();
    let adopted = run_change(&mut syncs, |r| StopData {
        last_decided: 4,
        locked: match r {
            0 => locks.clone(),
            1 => locks[..2].to_vec(),
            2 => locks[2..].to_vec(),
            _ => Vec::new(),
        },
    });
    let expected: Adopted = (5..=8u64)
        .map(|i| (i, format!("value-{i}").into_bytes().into()))
        .collect();
    for (r, a) in adopted.iter().enumerate() {
        assert_eq!(
            a.as_ref(),
            Some(&expected),
            "replica {r} must adopt every in-flight locked value at its instance"
        );
    }
}

/// A forged lock (sub-quorum certificate) for one pipelined instance
/// invalidates only the reports carrying it; genuine locks at the other
/// instances still survive, and the forged instance is adopted from the
/// highest genuine epoch instead.
#[test]
fn pipelined_view_change_drops_forged_locks_keeps_genuine() {
    let (secrets, view, mut syncs) = sync_setup(4);
    let good5 = genuine_lock(&secrets, &[0, 1, 2], 5, 0, b"good-5");
    let good6 = genuine_lock(&secrets, &[0, 1, 3], 6, 1, b"good-6-epoch1");
    let old6 = genuine_lock(&secrets, &[0, 1, 2], 6, 0, b"good-6-epoch0");
    let forged7 = {
        let l = genuine_lock(&secrets, &[3], 7, 0, b"forged-7");
        assert!(!l.cert.verify(&view), "sub-quorum cert must not verify");
        l
    };
    let adopted = run_change(&mut syncs, |r| StopData {
        last_decided: 4,
        locked: match r {
            // Replica 3's report carries a forged lock: the whole report is
            // rejected, but 0..2 suffice for the n−f quorum.
            3 => vec![good5.clone(), forged7.clone()],
            2 => vec![good5.clone(), old6.clone()],
            _ => vec![good5.clone(), good6.clone()],
        },
    });
    for (r, a) in adopted.iter().enumerate().take(3) {
        let a = a
            .as_ref()
            .unwrap_or_else(|| panic!("replica {r} no install"));
        assert_eq!(
            a,
            &vec![
                (5, b"good-5".to_vec().into()),
                (6, b"good-6-epoch1".to_vec().into()),
            ],
            "replica {r}: forged lock dropped, per-instance highest epoch wins"
        );
    }
}

/// A Byzantine new leader cannot smuggle a value to a different instance:
/// followers recompute the per-instance choice from the reports and reject
/// a SYNC whose adoption vector moves a locked value one slot over (the
/// precise way pipelined histories would fork).
#[test]
fn pipelined_sync_with_shifted_adoption_rejected() {
    let (secrets, _, mut syncs) = sync_setup(4);
    let lock = genuine_lock(&secrets, &[0, 1, 2], 5, 0, b"locked-at-5");
    let reports: Vec<(u64, StopData)> = (0..3u64)
        .map(|r| {
            (
                r,
                StopData {
                    last_decided: 4,
                    locked: vec![lock.clone()],
                },
            )
        })
        .collect();
    // Regency 1's leader is replica 1; it re-targets the value at instance 6.
    let actions = syncs[0].on_message(
        1,
        SyncMsg::Sync {
            regency: 1,
            reports: reports.clone(),
            adopted: vec![(6, b"locked-at-5".to_vec().into())],
        },
    );
    assert!(actions.is_empty(), "shifted adoption must be rejected");
    // The honest vector is accepted.
    let actions = syncs[0].on_message(
        1,
        SyncMsg::Sync {
            regency: 1,
            reports,
            adopted: vec![(5, b"locked-at-5".to_vec().into())],
        },
    );
    assert!(actions
        .iter()
        .any(|a| matches!(a, SyncAction::Install { .. })));
}

/// Randomized: under arbitrary subsets of genuinely locked pipelined
/// instances and arbitrary report distributions, the adoption vector every
/// replica installs (a) is identical cluster-wide, (b) never moves a value
/// across instances, and (c) contains every instance that any collected
/// report locked.
#[test]
fn prop_pipelined_adoption_consistent() {
    let mut g = Gen::new(0xc4);
    for case in 0..24 {
        let (secrets, _, mut syncs) = sync_setup(4);
        let mut locks: Vec<LockedReport> = Vec::new();
        for i in 1..=6u64 {
            if !g.next_u64().is_multiple_of(2) {
                continue;
            }
            let epoch = (g.next_u64() % 2) as u32;
            locks.push(genuine_lock(
                &secrets,
                &[0, 1, 2],
                i,
                epoch,
                format!("case-{case}-v{i}-e{epoch}").as_bytes(),
            ));
        }
        let mask: Vec<u64> = (0..4).map(|_| g.next_u64()).collect();
        let adopted = run_change(&mut syncs, |r| StopData {
            last_decided: 0,
            locked: locks
                .iter()
                .enumerate()
                .filter(|(k, _)| r == 0 || mask[r] >> k & 1 == 1)
                .map(|(_, l)| l.clone())
                .collect(),
        });
        let reference = adopted
            .iter()
            .flatten()
            .next()
            .cloned()
            .unwrap_or_else(|| panic!("case {case}: nobody installed"));
        for (r, a) in adopted.iter().enumerate() {
            let a = a
                .as_ref()
                .unwrap_or_else(|| panic!("case {case} replica {r}"));
            assert_eq!(a, &reference, "case {case}: adoption vectors diverge");
            for (instance, value) in a {
                let lock = locks
                    .iter()
                    .find(|l| l.value == *value)
                    .unwrap_or_else(|| panic!("case {case}: unknown value adopted"));
                assert_eq!(
                    lock.cert.instance, *instance,
                    "case {case}: value moved across instances"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-instance repair: replayed messages and fetched values
// ---------------------------------------------------------------------------

/// Decides instance 1 at replicas 0..=2 while replica 3 receives nothing,
/// and returns the instances plus the decided value.
fn decided_with_blind_replica() -> (Vec<Instance>, View, Vec<u8>) {
    let (mut instances, view) = cluster(4);
    let value = b"repair-me".to_vec();
    let mut queue: Vec<(ReplicaId, ReplicaId, ConsensusMsg)> = Vec::new();
    for out in instances[0].propose(value.clone()) {
        if let Output::Broadcast(m) = out {
            for to in 0..4 {
                queue.push((0, to, m.clone()));
            }
        }
    }
    while let Some((from, to, msg)) = queue.pop() {
        if to == 3 {
            continue; // replica 3 is dark
        }
        let (outs, _) = instances[to].on_message(from, msg);
        for out in outs {
            match out {
                Output::Broadcast(m) => {
                    for peer in 0..4 {
                        if peer != to {
                            queue.push((to, peer, m.clone()));
                        }
                    }
                }
                Output::Send(peer, m) => queue.push((to, peer, m)),
            }
        }
    }
    for (r, instance) in instances.iter().enumerate().take(3) {
        assert!(instance.is_decided(), "replica {r} must decide");
    }
    assert!(!instances[3].is_decided(), "replica 3 must be blind");
    (instances, view, value)
}

/// The repair protocol replays a responder's own PROPOSE/WRITE/ACCEPT
/// through the ordinary consensus checks, which bind every signature to the
/// wire sender. A Byzantine replica relaying *someone else's* signed
/// messages under its own identity contributes nothing toward any quorum;
/// the same messages replayed truthfully rebuild the instance and decide
/// it with a verifiable proof.
#[test]
fn repair_replay_binds_messages_to_wire_sender() {
    let (mut instances, view, value) = decided_with_blind_replica();

    // Replica 2 relays replica 1's repair payload as its own.
    for msg in instances[1].own_messages(true) {
        let (_, decision) = instances[3].on_message(2, msg);
        assert!(decision.is_none(), "relabeled replay must not decide");
    }
    assert!(
        !instances[3].is_decided(),
        "relabeled replays must leave the blind replica undecided"
    );

    // Truthful replays from all three responders heal the instance.
    let mut healed = None;
    for r in 0..3usize {
        for msg in instances[r].own_messages(true) {
            let (_, decision) = instances[3].on_message(r, msg);
            if let Some(d) = decision {
                healed = Some(d);
            }
        }
    }
    let healed = healed.expect("truthful replays must decide");
    assert_eq!(healed.value, value, "the decided value survives repair");
    assert!(
        healed.proof.verify(&view),
        "the repair decision proof verifies"
    );
}

/// A fetched value that does not hash to the write/accept quorum's value
/// hash can never complete a decision: a Byzantine responder holding the
/// real quorum votes still cannot smuggle a different value through the
/// repair path.
#[test]
fn tampered_fetched_value_never_decides() {
    let (mut instances, _, value) = decided_with_blind_replica();

    // The tampered value lands first; no quorum vouches for its hash.
    let (_, decision) = instances[3].on_message(
        2,
        ConsensusMsg::ValueReply {
            instance: 1,
            epoch: 0,
            value: b"forged-value".to_vec().into(),
        },
    );
    assert!(decision.is_none(), "a bare value reply never decides");
    assert!(!instances[3].has_value(), "the forged reply is dropped");

    // Genuine votes arrive: full write + accept quorums on the real hash.
    for r in 0..3usize {
        for msg in instances[r].own_messages(false) {
            let (_, decision) = instances[3].on_message(r, msg);
            if let Some(d) = decision {
                assert_eq!(d.value, value, "only the real value decides");
            }
        }
    }
    assert!(
        instances[3].is_decided(),
        "the forged reply must not keep replica 3 from deciding"
    );
}
