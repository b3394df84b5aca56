//! The view change.
//!
//! 1. Lock reports on the wire: a SYNC may adopt more locks than any one
//!    STOPDATA carries, and a STOPDATA may carry at most [`MAX_WINDOW`] of
//!    them. Replica 1 leads regency 1; every message passes through the
//!    codec, as on the transport.
//! 2. Leader changes on `OrderingCore`s: an uncertified echo or a junk
//!    `ValueReply` never pins a later epoch, and a value a crashed leader
//!    decided survives two leader changes as a lock.

mod common;

use common::{cores, pump, req, submit};
use smartchain::codec::{from_bytes, to_bytes};
use smartchain::consensus::messages::ConsensusMsg;
use smartchain::consensus::proof::{write_sign_payload, WriteCertificate};
use smartchain::consensus::synchronizer::{
    LockedReport, StopData, SyncAction, SyncMsg, Synchronizer,
};
use smartchain::consensus::{ValueBytes, View, MAX_WINDOW};
use smartchain::crypto::keys::{Backend, SecretKey};
use smartchain::smr::ordering::{OrderingConfig, OrderingCore, SmrMsg};

fn setup() -> (Vec<SecretKey>, Vec<Synchronizer>) {
    let secrets: Vec<SecretKey> = (0..4u8)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i + 170; 32]))
        .collect();
    let members = secrets.iter().map(|s| s.public_key()).collect();
    let view = View { id: 0, members };
    let syncs = (0..4).map(|i| Synchronizer::new(i, view.clone())).collect();
    (secrets, syncs)
}

fn value(instance: u64) -> ValueBytes {
    format!("batch-{instance}").into_bytes().into()
}

/// A lock at `instance`, epoch 0, certified by WRITEs from replicas 0..=2.
fn lock(secrets: &[SecretKey], instance: u64) -> LockedReport {
    let (value, epoch) = (value(instance), 0);
    let value_hash = value.hash();
    let payload = write_sign_payload(instance, epoch, &value_hash);
    let writes = (0..3).map(|r| (r, secrets[r].sign(&payload))).collect();
    let cert = WriteCertificate {
        instance,
        epoch,
        value_hash,
        writes,
    };
    LockedReport { value, cert }
}

fn data(locked: Vec<LockedReport>) -> StopData {
    StopData {
        last_decided: 0,
        locked,
    }
}

fn wire(msg: &SyncMsg) -> SyncMsg {
    let back: SyncMsg = from_bytes(&to_bytes(msg)).expect("the message must decode");
    assert_eq!(&back, msg);
    back
}

/// Hands each `(sender, locks)` STOPDATA to the leader; returns its actions
/// for each.
fn stopdatas(
    syncs: &mut [Synchronizer],
    reports: Vec<(usize, Vec<LockedReport>)>,
) -> Vec<Vec<SyncAction>> {
    let mut actions = Vec::new();
    for (from, locked) in reports {
        let msg = wire(&SyncMsg::StopData {
            regency: 1,
            data: data(locked),
        });
        actions.push(syncs[1].on_message(from, msg));
    }
    actions
}

fn installed(actions: &[SyncAction]) -> Option<&Vec<(u64, ValueBytes)>> {
    actions.iter().find_map(|a| match a {
        SyncAction::Install { adopt, .. } => Some(adopt),
        _ => None,
    })
}

fn sync_of(actions: &[SyncAction]) -> &SyncMsg {
    actions
        .iter()
        .find_map(|a| match a {
            SyncAction::Broadcast(m @ SyncMsg::Sync { .. }) => Some(m),
            _ => None,
        })
        .expect("the leader broadcasts a SYNC")
}

/// Replica 3 reports 255 genuine locks at instances 1..=255, two honest
/// replicas a lock at instance 300: the SYNC adopting all 256 must reach a
/// follower intact and install there.
#[test]
fn sync_adopting_more_than_255_locks_survives_the_wire() {
    let (secrets, mut syncs) = setup();
    let old = (1..=255).map(|i| lock(&secrets, i)).collect();
    let fresh = vec![lock(&secrets, 300)];
    let leader = stopdatas(&mut syncs, vec![(3, old), (2, fresh.clone()), (1, fresh)]);
    let expected: Vec<_> = (1..=255).chain([300]).map(|i| (i, value(i))).collect();
    assert_eq!(installed(&leader[2]), Some(&expected));
    let follower = syncs[0].on_message(1, wire(sync_of(&leader[2])));
    assert_eq!(installed(&follower), Some(&expected));
}

/// A STOPDATA with `MAX_WINDOW + 1` genuine locks does not count toward the
/// leader's n − f quorum, and a SYNC built on it is not followed.
#[test]
fn stopdata_with_more_than_max_window_locks_is_ignored() {
    let (secrets, mut syncs) = setup();
    let oversized: Vec<_> = (1..=MAX_WINDOW + 1).map(|i| lock(&secrets, i)).collect();
    let reports = vec![
        (3, oversized.clone()),
        (2, vec![]),
        (1, vec![]),
        (0, vec![]),
    ];
    let leader = stopdatas(&mut syncs, reports);
    assert!(leader[..3].iter().all(Vec::is_empty), "two valid reports");
    assert_eq!(installed(&leader[3]), Some(&Vec::new()));
    let SyncMsg::Sync { reports, .. } = sync_of(&leader[3]) else {
        unreachable!()
    };
    assert!(reports.iter().all(|(r, _)| *r != 3), "replica 3 left out");

    let forged = SyncMsg::Sync {
        regency: 1,
        reports: vec![
            (1, data(vec![])),
            (2, data(vec![])),
            (3, data(oversized.clone())),
        ],
        adopted: oversized
            .into_iter()
            .map(|l| (l.cert.instance, l.value))
            .collect(),
    };
    assert!(syncs[2].on_message(1, wire(&forged)).is_empty());
    assert_eq!(syncs[2].regency(), 0);
}

// ---------------------------------------------------------------------------
// 2. Leader changes on ordering cores: n = 4, one request per batch
// ---------------------------------------------------------------------------

const FIXED_1: OrderingConfig = OrderingConfig {
    max_batch: 1,
    window: 1,
};
const FIXED_4: OrderingConfig = OrderingConfig {
    window: 4,
    ..FIXED_1
};
const FIXED_8: OrderingConfig = OrderingConfig {
    window: 8,
    ..FIXED_1
};

/// A PROPOSE, sent directly or replayed in a repair reply.
fn is_propose(msg: &SmrMsg) -> bool {
    let propose = |m: &ConsensusMsg| matches!(m, ConsensusMsg::Propose { .. });
    match msg {
        SmrMsg::Consensus(m) => propose(m),
        SmrMsg::InstanceRep { msgs, .. } => msgs.iter().any(propose),
        _ => false,
    }
}

/// Two progress-timeout rounds with replica 0 crashed: each time the timer
/// fires at replicas 1–3, their traffic runs to quiescence, minus every
/// message `lost` names. A frontier's first timeout sends a repair fetch,
/// its second starts the leader change. Appends what each replica
/// delivers.
fn timeout_round(
    cores: &mut [OrderingCore],
    delivered: &mut [Vec<(u64, u64)>],
    mut lost: impl FnMut(usize, &SmrMsg) -> bool,
) {
    for _ in 0..2 {
        let mut outputs = Vec::new();
        for (r, core) in cores.iter_mut().enumerate().skip(1) {
            outputs.extend(core.on_progress_timeout().into_iter().map(|o| (r, o)));
        }
        let got = pump(cores, outputs, |from, to, msg| {
            from == 0 || to == 0 || lost(from, msg)
        });
        for (all, new) in delivered.iter_mut().zip(got) {
            all.extend(new);
        }
    }
}

/// Leader 0's PROPOSE of `(10, 1)` reaches replica 3 only, so replicas 0
/// and 3 echo it and no write certificate forms; then 0 crashes. The
/// uncertified echo locks nothing: replica 3 accepts the next leader's
/// proposal, and the survivors deliver `(99, 1)` within two timeouts.
fn uncertified_echo_does_not_pin_later_epochs(config: OrderingConfig) {
    let mut cores = cores(4, config);
    let first = submit(&mut cores, vec![(0, req(10, 1))]);
    pump(&mut cores, first, |from, to, msg| {
        from == 0 && (to == 1 || to == 2) && is_propose(msg)
    });
    let retry = submit(&mut cores, (1..4).map(|r| (r, req(99, 1))).collect());
    let mut delivered = pump(&mut cores, retry, |from, to, _| from == 0 || to == 0);
    timeout_round(&mut cores, &mut delivered, |_, _| false);
    for (r, got) in delivered.iter().enumerate().skip(1) {
        assert_eq!(got, &vec![(99, 1)], "replica {r}, {config:?}");
    }
}

#[test]
fn uncertified_echo_does_not_wedge_alpha_1() {
    uncertified_echo_does_not_pin_later_epochs(FIXED_1);
}

#[test]
fn uncertified_echo_does_not_wedge_alpha_4() {
    uncertified_echo_does_not_pin_later_epochs(FIXED_4);
}

#[test]
fn uncertified_echo_does_not_wedge_alpha_8() {
    uncertified_echo_does_not_pin_later_epochs(FIXED_8);
}

/// Every replica forms the write certificate for `(10, 1)`, but only
/// leader 0 sees the ACCEPT quorum and decides: the survivors never see
/// each other's ACCEPTs, not even replayed in a repair reply. Then 0
/// crashes, and every PROPOSE of leader 1 in regency 1 is lost. The
/// certificate survives epoch 1 as a lock, so regency 2 re-proposes
/// `(10, 1)`, and every survivor delivers it before `(99, 1)`.
fn crashed_leaders_decision_survives_two_leader_changes(config: OrderingConfig) {
    let mut cores = cores(4, config);
    let first = submit(&mut cores, vec![(0, req(10, 1))]);
    let at_0 = pump(&mut cores, first, |_, to, msg| {
        to != 0 && matches!(msg, SmrMsg::Consensus(ConsensusMsg::Accept { .. }))
    });
    assert_eq!(at_0[0], vec![(10, 1)], "leader 0 decides alone");
    let retry = submit(&mut cores, (1..4).map(|r| (r, req(99, 1))).collect());
    let mut delivered = pump(&mut cores, retry, |from, to, _| from == 0 || to == 0);
    let lost = |from: usize, msg: &SmrMsg| from == 1 && is_propose(msg);
    timeout_round(&mut cores, &mut delivered, |from, msg| {
        lost(from, msg) || matches!(msg, SmrMsg::InstanceRep { .. })
    });
    assert!(
        delivered.iter().all(Vec::is_empty),
        "regency 1 decides nothing"
    );
    timeout_round(&mut cores, &mut delivered, lost);
    for r in 1..4 {
        assert_eq!(delivered[r], vec![(10, 1), (99, 1)], "replica {r}");
        assert_eq!(cores[r].regency(), 2, "replica {r}");
    }
}

#[test]
fn crashed_leaders_decision_survives_two_leader_changes_alpha_1() {
    crashed_leaders_decision_survives_two_leader_changes(FIXED_1);
}

#[test]
fn crashed_leaders_decision_survives_two_leader_changes_alpha_4() {
    crashed_leaders_decision_survives_two_leader_changes(FIXED_4);
}

/// Byzantine replica 3 sends a junk `ValueReply` for instance 1 to
/// replicas 1 and 2 before leader 0 proposes, then falls silent. No quorum
/// vouches for the junk, so it binds nothing: replicas 0–2 deliver the
/// leader's `(7, 1)` without a leader change.
#[test]
fn junk_value_reply_does_not_silence_the_cluster() {
    let mut cores = cores(4, FIXED_1);
    let junk = ConsensusMsg::ValueReply {
        instance: 1,
        epoch: 0,
        value: b"junk".to_vec().into(),
    };
    for r in [1, 2] {
        let outs = cores[r].on_message(3, SmrMsg::Consensus(junk.clone()));
        assert!(outs.is_empty(), "replica {r} answers nothing");
    }
    let first = submit(&mut cores, vec![(0, req(7, 1))]);
    let delivered = pump(&mut cores, first, |from, _, _| from == 3);
    for r in 0..3 {
        assert_eq!(delivered[r], vec![(7, 1)], "replica {r}");
        assert_eq!(cores[r].regency(), 0, "replica {r}");
    }
}
