//! Per-instance repair at the pipeline window α = 8.
//!
//! Three layers of coverage:
//!
//! 1. Harness: a cluster under bursty loss is bit-for-bit reproducible from
//!    its seed, and the bursts heal through repair fetches.
//! 2. Core: a replica blinded to one instance's PROPOSE heals it through a
//!    single `InstanceFetch`/`InstanceRep` round trip — with **zero**
//!    regency changes — and a reply whose own votes complete the
//!    requester's quorums binds the value it lists after them, with no
//!    `FetchValue` round trip.
//! 3. Adversary: forged repair replies (tampered value, mislabeled
//!    instance, sub-quorum or outsider-signed proof, relabeled replayed
//!    messages) are all rejected; the genuine reply still heals.

mod common;

use common::{cores, pump, req, submit};
use smartchain::consensus::messages::ConsensusMsg;
use smartchain::consensus::proof::DecisionProof;
use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::node::NodeConfig;
use smartchain::crypto::keys::{Backend, SecretKey};
use smartchain::sim::{MILLI, SECOND};
use smartchain::smr::app::CounterApp;
use smartchain::smr::ordering::{CoreOutput, OrderingConfig, OrderingCore, OrderingStats, SmrMsg};
use smartchain::smr::types::Request;

// ---------------------------------------------------------------------------
// 1. Harness: determinism + repair under bursts
// ---------------------------------------------------------------------------

/// One run at α = 8 under front-loaded bursty loss: 8 virtual seconds of
/// alternating 1 s at 80% drops / 1 s clean, then a 4 s clean tail with
/// the remaining requests draining. Returns (completed, heights, stats).
fn bursty_run(seed: u64) -> (u64, Vec<u64>, Vec<OrderingStats>) {
    let config = NodeConfig {
        ordering: OrderingConfig {
            max_batch: 8,
            window: 8,
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

/// Repair is a pure function of observed events: the same seed reproduces
/// completions, heights, and every repair counter exactly.
#[test]
fn bursty_repair_run_is_deterministic() {
    assert_eq!(
        bursty_run(7),
        bursty_run(7),
        "a seed fully determines the run, repair fetches and all"
    );
}

/// Bursts trigger repair fetches, and at least one instance heals by one.
#[test]
fn bursts_heal_through_repair_fetches() {
    let (completed, _, stats) = bursty_run(7);
    assert!(completed > 0, "clients must make progress");
    let fetches: u64 = stats.iter().map(|s| s.fetches_sent).sum();
    let repaired: u64 = stats.iter().map(|s| s.repaired_instances).sum();
    assert!(fetches > 0, "bursts must trigger repair fetches");
    assert!(repaired > 0, "at least one instance must heal via repair");
}

/// The core-level tests' cores: α = 8, one request per batch.
const WINDOW_8: OrderingConfig = OrderingConfig {
    max_batch: 1,
    window: 8,
};

// ---------------------------------------------------------------------------
// 2. Dropped PROPOSE heals via InstanceFetch — no regency change
// ---------------------------------------------------------------------------

/// Replica 3 never sees any consensus message for instance 1 (proposal,
/// writes, accepts — as if a burst ate them all). The pipelined traffic for
/// later instances keeps its quiet clock ticking; at the threshold it
/// broadcasts `InstanceFetch` and a single decided `InstanceRep` heals the
/// gap. No timer fires, so regency changes stay at exactly zero — the
/// one-round-trip alternative to a leader change.
#[test]
fn dropped_propose_heals_via_fetch_without_regency_change() {
    let mut cores = cores(4, WINDOW_8);
    assert!(cores[0].is_leader(), "replica 0 leads regency 0");
    let submissions: Vec<(usize, Request)> = (0..6u64)
        .flat_map(|s| (0..4usize).map(move |r| (r, req(0, s))))
        .collect();
    let initial = submit(&mut cores, submissions);
    let delivered = pump(&mut cores, initial, |_, to, msg| {
        to == 3 && matches!(msg, SmrMsg::Consensus(m) if m.instance() == 1)
    });
    for r in 0..4 {
        assert_eq!(
            delivered[r].len(),
            6,
            "replica {r} must deliver all 6 requests"
        );
        assert_eq!(delivered[r], delivered[0], "identical order everywhere");
    }
    let healed = cores[3].stats();
    assert!(healed.fetches_sent >= 1, "the blinded replica must fetch");
    assert!(
        healed.repaired_instances >= 1,
        "instance 1 must count as repaired"
    );
    let answered: u64 = (0..3).map(|r| cores[r].stats().fetches_answered).sum();
    assert!(answered >= 1, "a peer must have answered the fetch");
    for (r, core) in cores.iter().enumerate() {
        assert_eq!(
            core.stats().regency_changes,
            0,
            "replica {r}: repair must heal the gap without any leader change"
        );
    }
}

/// Replica 3 misses instance 1's PROPOSE and everything replica 2 sends
/// it, so it holds two WRITEs and two ACCEPTs, one short of each quorum,
/// and no value. Replica 2 misses every ACCEPT and stays undecided, so it
/// answers replica 3's fetch with its own votes and the value. The votes
/// come first and complete replica 3's quorums, which then vouch for the
/// value: replica 3 decides on that one reply, with no `FetchValue` round
/// trip.
#[test]
fn value_reply_after_its_votes_binds_without_a_fetch_round() {
    let mut cores = cores(4, WINDOW_8);
    let initial = submit(&mut cores, vec![(0, req(5, 1))]);
    let delivered = pump(&mut cores, initial, |from, to, msg| {
        let SmrMsg::Consensus(m) = msg else {
            return false;
        };
        match to {
            2 => matches!(m, ConsensusMsg::Accept { .. }),
            3 => from == 2 || matches!(m, ConsensusMsg::Propose { .. }),
            _ => false,
        }
    });
    assert_eq!(delivered[0], vec![(5, 1)], "replicas 0 and 1 decide");
    assert!(delivered[2].is_empty() && delivered[3].is_empty());
    let fetch = SmrMsg::InstanceFetch {
        instance: 1,
        have: false,
    };
    let outs = cores[2].on_message(3, fetch);
    let [CoreOutput::Send(3, rep)] = outs.as_slice() else {
        panic!("replica 2 answers the fetch: {outs:?}");
    };
    let outs = cores[3].on_message(2, rep.clone());
    assert!(
        outs.iter()
            .any(|o| matches!(o, CoreOutput::Deliver(b) if b.instance == 1)),
        "the reply's own votes vouch for its value: {outs:?}"
    );
    assert_eq!(cores[3].last_delivered(), 1);
}

// ---------------------------------------------------------------------------
// 3. Forged repair replies are rejected
// ---------------------------------------------------------------------------

/// Decides instance 1 at replicas 0..=2 while replica 3 stays dark, then
/// returns the cores plus the genuine (value, proof) a correct responder
/// ships in its `InstanceRep`.
fn decided_cluster_with_blind_replica() -> (
    Vec<OrderingCore>,
    smartchain::consensus::ValueBytes,
    std::sync::Arc<DecisionProof>,
) {
    let mut cores = cores(4, WINDOW_8);
    let submissions: Vec<(usize, Request)> = (0..4usize).map(|r| (r, req(0, 0))).collect();
    let initial = submit(&mut cores, submissions);
    let delivered = pump(&mut cores, initial, |_, to, _| to == 3);
    assert_eq!(delivered[0].len(), 1, "replicas 0..=2 must decide");
    assert!(delivered[3].is_empty(), "replica 3 must be dark");
    // A genuine fetch against replica 0 yields the reference reply.
    let outs = cores[0].on_message(
        3,
        SmrMsg::InstanceFetch {
            instance: 1,
            have: false,
        },
    );
    let (value, proof) = outs
        .iter()
        .find_map(|o| match o {
            CoreOutput::Send(
                3,
                SmrMsg::InstanceRep {
                    instance: 1,
                    decided: Some((v, p)),
                    ..
                },
            ) => Some((v.clone(), p.clone())),
            _ => None,
        })
        .expect("responder ships the decided value + proof");
    (cores, value, proof)
}

/// Asserts that `rep` produces no delivery and no state change at the blind
/// replica.
fn assert_rejected(core: &mut OrderingCore, from: usize, rep: SmrMsg, label: &str) {
    let outs = core.on_message(from, rep);
    assert!(
        !outs.iter().any(|o| matches!(o, CoreOutput::Deliver(_))),
        "{label}: forged reply must not deliver"
    );
    assert_eq!(core.last_delivered(), 0, "{label}: frontier must not move");
    assert_eq!(
        core.stats().repaired_instances,
        0,
        "{label}: nothing may count as repaired"
    );
}

/// Every forgery a Byzantine responder can attempt on the decided path —
/// tampered value, proof for another instance, truncated (sub-quorum)
/// proof, outsider-signed proof — is rejected; afterwards the genuine reply
/// still heals the instance.
#[test]
fn forged_instance_rep_rejected_genuine_heals() {
    let (mut cores, value, proof) = decided_cluster_with_blind_replica();

    // (a) Tampered value: hash no longer matches the proof.
    let mut tampered = value.to_vec();
    tampered.push(0xff);
    assert_rejected(
        &mut cores[3],
        0,
        SmrMsg::InstanceRep {
            instance: 1,
            decided: Some((tampered.into(), proof.clone())),
            msgs: Vec::new(),
        },
        "tampered value",
    );

    // (b) Proof re-targeted at a different instance.
    assert_rejected(
        &mut cores[3],
        0,
        SmrMsg::InstanceRep {
            instance: 2,
            decided: Some((value.clone(), proof.clone())),
            msgs: Vec::new(),
        },
        "mislabeled instance",
    );

    // (c) Sub-quorum proof (accept set truncated to one signer).
    let mut sub = (*proof).clone();
    sub.accepts.truncate(1);
    assert_rejected(
        &mut cores[3],
        0,
        SmrMsg::InstanceRep {
            instance: 1,
            decided: Some((value.clone(), sub.into())),
            msgs: Vec::new(),
        },
        "sub-quorum proof",
    );

    // (d) Outsider-signed proof: right shape, wrong keys.
    let outsider = SecretKey::from_seed(Backend::Sim, &[0xee; 32]);
    let mut forged = (*proof).clone();
    forged.accepts = forged
        .accepts
        .iter()
        .map(|(r, _)| (*r, outsider.sign(b"anything")))
        .collect();
    assert_rejected(
        &mut cores[3],
        0,
        SmrMsg::InstanceRep {
            instance: 1,
            decided: Some((value.clone(), forged.into())),
            msgs: Vec::new(),
        },
        "outsider-signed proof",
    );

    // The genuine reply heals the instance on the spot.
    let outs = cores[3].on_message(
        0,
        SmrMsg::InstanceRep {
            instance: 1,
            decided: Some((value, proof)),
            msgs: Vec::new(),
        },
    );
    assert!(
        outs.iter().any(|o| matches!(o, CoreOutput::Deliver(_))),
        "genuine reply must deliver"
    );
    assert_eq!(
        cores[3].last_delivered(),
        1,
        "frontier advances past the gap"
    );
}

/// The undecided path replays messages through the ordinary consensus
/// checks: a responder relaying *another* replica's signed WRITE/ACCEPT as
/// its own (wire sender ≠ signer) contributes nothing toward a quorum,
/// while the same messages with truthful senders rebuild the instance and
/// decide it.
#[test]
fn relabeled_replay_messages_rejected_truthful_replay_heals() {
    // Nobody decides: every ACCEPT broadcast is dropped (each replica still
    // tallies its own), and replica 3 is fully dark — instance 1 sits
    // write-quorum-locked but undecided at replicas 0..=2.
    let mut cores = cores(4, WINDOW_8);
    let submissions: Vec<(usize, Request)> = (0..4usize).map(|r| (r, req(0, 0))).collect();
    let initial = submit(&mut cores, submissions);
    let delivered = pump(&mut cores, initial, |_, to, msg| {
        to == 3 || matches!(msg, SmrMsg::Consensus(ConsensusMsg::Accept { .. }))
    });
    assert!(delivered.iter().all(Vec::is_empty), "nobody may decide yet");

    // Collect each responder's undecided-path repair payload.
    let replay: Vec<(usize, Vec<ConsensusMsg>)> = (0..3)
        .map(|r| {
            let outs = cores[r].on_message(
                3,
                SmrMsg::InstanceFetch {
                    instance: 1,
                    have: false,
                },
            );
            let msgs = outs
                .iter()
                .find_map(|o| match o {
                    CoreOutput::Send(
                        3,
                        SmrMsg::InstanceRep {
                            decided: None,
                            msgs,
                            ..
                        },
                    ) => Some(msgs.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("replica {r} must answer undecided"));
            (r, msgs)
        })
        .collect();

    // A Byzantine relay: replica 2 forwards replica 1's signed messages
    // under its own wire identity. Signature checks bind payloads to the
    // wire sender, so nothing is admitted.
    assert_rejected(
        &mut cores[3],
        2,
        SmrMsg::InstanceRep {
            instance: 1,
            decided: None,
            msgs: replay[1].1.clone(),
        },
        "relabeled replay",
    );

    // Truthful replays from all three responders rebuild the instance:
    // value (Propose/ValueReply), a write quorum, and an accept quorum —
    // replica 3 decides and delivers.
    let mut delivered_any = false;
    for (r, msgs) in replay {
        let outs = cores[3].on_message(
            r,
            SmrMsg::InstanceRep {
                instance: 1,
                decided: None,
                msgs,
            },
        );
        delivered_any |= outs.iter().any(|o| matches!(o, CoreOutput::Deliver(_)));
    }
    assert!(delivered_any, "truthful replays must decide the instance");
    assert_eq!(
        cores[3].last_delivered(),
        1,
        "frontier advances past the gap"
    );
}
