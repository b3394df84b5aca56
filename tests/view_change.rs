//! The view change's lock reports on the wire: a SYNC may adopt more locks
//! than any one STOPDATA carries, and a STOPDATA may carry at most
//! [`MAX_WINDOW`] of them. Replica 1 leads regency 1; every message passes
//! through the codec, as on the transport.

use smartchain::codec::{from_bytes, to_bytes};
use smartchain::consensus::proof::{write_sign_payload, WriteCertificate};
use smartchain::consensus::synchronizer::{
    LockedReport, StopData, SyncAction, SyncMsg, Synchronizer,
};
use smartchain::consensus::{ValueBytes, View, MAX_WINDOW};
use smartchain::crypto::keys::{Backend, SecretKey};

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
    LockedReport {
        instance,
        epoch,
        value,
        cert,
    }
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
        let msg = wire(&syncs[from].make_stopdata(1, data(locked)));
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
            .map(|l| (l.instance, l.value))
            .collect(),
    };
    assert!(syncs[2].on_message(1, wire(&forged)).is_empty());
    assert_eq!(syncs[2].regency(), 0);
}
