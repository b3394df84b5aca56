//! The Mod-SMaRt synchronization phase: regency-based leader change.
//!
//! When progress stalls (faulty leader or asynchrony), replicas vote to move
//! to the next *regency*:
//!
//! 1. a replica broadcasts `STOP(r+1)`;
//! 2. any replica seeing more than `f` STOPs for a higher regency joins in
//!    (so one faulty replica cannot trigger changes, but a correct minority
//!    is amplified);
//! 3. on `2f+1` STOPs the replica stops ordering and sends `STOPDATA` — its
//!    last decided instance plus the *lock* of every open instance (the
//!    value with the highest-epoch [`WriteCertificate`] it formed or
//!    received, carried across epochs; at most [`MAX_WINDOW`] of them) — to
//!    the new leader (`regency mod n`);
//! 4. the new leader collects `n−f` STOPDATAs, picks for every reported
//!    instance the certified value with the highest epoch (safety: any
//!    decided value appears in at least one correct STOPDATA, because
//!    decision and STOPDATA quorums intersect in a correct replica), and
//!    broadcasts `SYNC` carrying the reports so followers can re-validate
//!    the choice;
//! 5. everyone installs the regency and the leader re-proposes each carried
//!    value at its own instance.
//!
//! The state machine is sans-IO like [`crate::instance`]; the embedding
//! supplies STOPDATA contents (it owns the log) and performs sends.

use crate::proof::WriteCertificate;
use crate::{ReplicaId, View, MAX_WINDOW};
use smartchain_codec::{codec_enum, codec_struct, Encode};
use smartchain_crypto::ValueBytes;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A replica's lock on one open instance, reported in STOPDATA: a value
/// and the write certificate naming its instance and epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct LockedReport {
    /// The value itself (shared handle; cloning a report into lock
    /// vectors and SYNC messages never copies the bytes).
    pub value: ValueBytes,
    /// Quorum of signed WRITEs justifying the lock.
    pub cert: WriteCertificate,
}

codec_struct!(LockedReport { value, cert });

/// Body of a STOPDATA message.
///
/// With a pipelined ordering core a replica may hold locked values for
/// *several* open instances at once, so the report carries a vector
/// (ascending by instance, at most one entry per instance, at most
/// [`MAX_WINDOW`] entries).
#[derive(Clone, Debug, PartialEq)]
pub struct StopData {
    /// Highest consensus instance the sender has decided.
    pub last_decided: u64,
    /// The sender's locked values for its open instances (ascending).
    pub locked: Vec<LockedReport>,
}

codec_struct!(StopData {
    last_decided,
    locked
});

/// Synchronization-phase messages.
#[derive(Clone, Debug, PartialEq)]
pub enum SyncMsg {
    /// Vote to move to `regency`.
    Stop {
        /// The regency being requested.
        regency: u32,
    },
    /// Replica state handed to the new leader.
    StopData {
        /// The regency this data is for.
        regency: u32,
        /// The sender's state.
        data: StopData,
    },
    /// New leader's installation message.
    Sync {
        /// The regency being installed.
        regency: u32,
        /// The STOPDATA reports the leader based its choice on.
        reports: Vec<(u64, StopData)>,
        /// The locked `(instance, value)` pairs the leader adopted
        /// (ascending by instance; empty = leader free to propose fresh
        /// batches everywhere). The instances matter: only replicas still
        /// open at a carried instance may adopt its value — adopting it into
        /// a *later* instance would re-decide old content and fork the
        /// history.
        adopted: Vec<(u64, ValueBytes)>,
    },
}

impl SyncMsg {
    /// Wire size in bytes, derived from the canonical [`Encode`] output
    /// (plus shared transport framing) — see `ConsensusMsg::wire_size`.
    pub fn wire_size(&self) -> usize {
        smartchain_codec::FRAME_BYTES + self.encoded_len()
    }
}

codec_enum!(SyncMsg {
    0 => Stop { regency },
    1 => StopData { regency, data },
    2 => Sync { regency, reports, adopted },
});

/// Instructions from the synchronizer to its embedding.
#[derive(Clone, Debug, PartialEq)]
pub enum SyncAction {
    /// Broadcast a message to the view.
    Broadcast(SyncMsg),
    /// Send a message to one replica.
    Send(ReplicaId, SyncMsg),
    /// Ordering must stop; the embedding should send a
    /// [`SyncMsg::StopData`] with its log state to `leader`.
    ProvideStopData {
        /// Regency awaiting data.
        regency: u32,
        /// The new leader to send it to.
        leader: ReplicaId,
    },
    /// Install `regency` with `leader`; replicas still open at a carried
    /// instance must adopt (and the leader re-propose) the matching value
    /// there.
    Install {
        /// The regency to install.
        regency: u32,
        /// Leader of the new regency.
        leader: ReplicaId,
        /// Locked `(instance, value)` pairs carried over from the previous
        /// regency, ascending by instance.
        adopt: Vec<(u64, ValueBytes)>,
    },
}

/// The per-replica synchronization state machine.
#[derive(Debug)]
pub struct Synchronizer {
    me: ReplicaId,
    view: View,
    regency: u32,
    /// Highest regency we have broadcast a STOP for.
    sent_stop_for: u32,
    /// Regency we are currently stopped at (awaiting SYNC), if any.
    stopped_at: Option<u32>,
    stops: HashMap<u32, HashSet<ReplicaId>>,
    /// Per-regency STOPDATA reports. The inner map is ordered so the SYNC
    /// message's report list (and thus its bytes on the wire) is identical
    /// on every run — a randomized-hash order here made simulations drift
    /// between identically-seeded runs.
    stopdata: HashMap<u32, BTreeMap<ReplicaId, StopData>>,
    synced: HashSet<u32>,
}

impl Synchronizer {
    /// Creates the synchronizer at regency 0.
    pub fn new(me: ReplicaId, view: View) -> Synchronizer {
        Synchronizer {
            me,
            view,
            regency: 0,
            sent_stop_for: 0,
            stopped_at: None,
            stops: HashMap::new(),
            stopdata: HashMap::new(),
            synced: HashSet::new(),
        }
    }

    /// Current regency.
    pub fn regency(&self) -> u32 {
        self.regency
    }

    /// Leader of the given regency.
    pub fn leader_of(&self, regency: u32) -> ReplicaId {
        regency as usize % self.view.n()
    }

    /// Leader of the current regency.
    pub fn current_leader(&self) -> ReplicaId {
        self.leader_of(self.regency)
    }

    /// True while a regency change is in flight.
    pub fn is_stopped(&self) -> bool {
        self.stopped_at.is_some()
    }

    /// Highest regency this replica has broadcast a STOP for (0 = none).
    /// Exposed so an embedding over a lossy transport can re-send the STOP
    /// when a link to a peer is re-established.
    pub fn sent_stop_for(&self) -> u32 {
        self.sent_stop_for
    }

    /// The regency this replica is currently stopped at (awaiting SYNC), if
    /// any — the embedding re-provides its STOPDATA to that regency's leader
    /// after a link reconnect, since the original may have been lost with
    /// the torn connection.
    pub fn stopped_regency(&self) -> Option<u32> {
        self.stopped_at
    }

    /// Jumps straight to `regency` without running the STOP/STOPDATA
    /// protocol — used by a recovering replica adopting the regency its
    /// state-transfer shipper reported (it slept through the change and
    /// cannot reconstruct it). Liveness-only state: epoch quorums still
    /// guard safety, so a lying shipper can at worst point us at the wrong
    /// leader until the next genuine change.
    pub fn fast_forward_regency(&mut self, regency: u32) {
        if regency <= self.regency {
            return;
        }
        self.regency = regency;
        self.sent_stop_for = self.sent_stop_for.max(regency);
        self.stopped_at = None;
        self.stops.retain(|r, _| *r > regency);
    }

    /// Timeout entry point: ask for the next regency. Repeated timeouts
    /// escalate past a pending (stopped) regency whose new leader is itself
    /// unresponsive — otherwise a crashed next-leader would wedge the view
    /// change forever. There is no regency past `u32::MAX`: a replica there
    /// (one that adopted a shipper's report, say) sends no STOP.
    pub fn request_change(&mut self) -> Vec<SyncAction> {
        let highest = self
            .regency
            .max(self.stopped_at.unwrap_or(0))
            .max(self.sent_stop_for);
        let Some(target) = highest.checked_add(1) else {
            return Vec::new();
        };
        self.sent_stop_for = target;
        let mut actions = vec![SyncAction::Broadcast(SyncMsg::Stop { regency: target })];
        actions.extend(self.record_stop(self.me, target));
        actions
    }

    fn record_stop(&mut self, from: ReplicaId, regency: u32) -> Vec<SyncAction> {
        let mut actions = Vec::new();
        if regency <= self.regency {
            return actions;
        }
        let votes = self.stops.entry(regency).or_default();
        votes.insert(from);
        let count = votes.len();
        let f = self.view.f();
        if count > f && self.sent_stop_for < regency {
            // Join the change: a correct minority amplifies.
            self.sent_stop_for = regency;
            actions.push(SyncAction::Broadcast(SyncMsg::Stop { regency }));
            actions.extend(self.record_stop(self.me, regency));
            return actions;
        }
        if count > 2 * f && self.stopped_at.is_none_or(|s| s < regency) {
            self.stopped_at = Some(regency);
            actions.push(SyncAction::ProvideStopData {
                regency,
                leader: self.leader_of(regency),
            });
        }
        actions
    }

    /// Handles a synchronization message.
    pub fn on_message(&mut self, from: ReplicaId, msg: SyncMsg) -> Vec<SyncAction> {
        match msg {
            SyncMsg::Stop { regency } => self.record_stop(from, regency),
            SyncMsg::StopData { regency, data } => self.on_stopdata(from, regency, data),
            SyncMsg::Sync {
                regency,
                reports,
                adopted,
            } => self.on_sync(from, regency, reports, adopted),
        }
    }

    fn on_stopdata(&mut self, from: ReplicaId, regency: u32, data: StopData) -> Vec<SyncAction> {
        if regency <= self.regency || self.leader_of(regency) != self.me {
            return Vec::new();
        }
        if !Self::locks_well_formed(&self.view, &data) {
            return Vec::new();
        }
        let entry = self.stopdata.entry(regency).or_default();
        entry.insert(from, data);
        if entry.len() >= self.view.reconfig_quorum() && !self.synced.contains(&regency) {
            self.synced.insert(regency);
            let reports: Vec<(u64, StopData)> =
                entry.iter().map(|(r, d)| (*r as u64, d.clone())).collect();
            let adopted = Self::choose(&reports);
            let mut actions = vec![SyncAction::Broadcast(SyncMsg::Sync {
                regency,
                reports: reports.clone(),
                adopted: adopted.clone(),
            })];
            actions.extend(self.install(regency, adopted));
            return actions;
        }
        Vec::new()
    }

    fn lock_valid(view: &View, locked: &LockedReport) -> bool {
        locked.cert.verify(view) && locked.cert.value_hash == locked.value.hash()
    }

    /// At most [`MAX_WINDOW`] locks, strictly ascending by instance (at
    /// most one lock per instance), and every one must verify. The cheap
    /// shape checks run first, so an oversized report costs no signature
    /// checks.
    fn locks_well_formed(view: &View, data: &StopData) -> bool {
        data.locked.len() as u64 <= MAX_WINDOW
            && data
                .locked
                .windows(2)
                .all(|w| w[0].cert.instance < w[1].cert.instance)
            && data.locked.iter().all(|l| Self::lock_valid(view, l))
    }

    /// The leader's (and validators') deterministic choice rule: for
    /// *every* instance that any report locked, the highest-epoch lock for
    /// that instance wins — any value that could have decided at instance
    /// `i` is write-locked at a quorum, so it appears in every `n−f` report
    /// set and is re-adopted at `i` (and only at `i`).
    fn choose(reports: &[(u64, StopData)]) -> Vec<(u64, ValueBytes)> {
        let mut best: BTreeMap<u64, &LockedReport> = BTreeMap::new();
        for (_, d) in reports {
            for l in &d.locked {
                match best.get(&l.cert.instance) {
                    Some(b) if b.cert.epoch >= l.cert.epoch => {}
                    _ => {
                        best.insert(l.cert.instance, l);
                    }
                }
            }
        }
        best.into_values()
            .map(|l| (l.cert.instance, l.value.clone()))
            .collect()
    }

    fn on_sync(
        &mut self,
        from: ReplicaId,
        regency: u32,
        reports: Vec<(u64, StopData)>,
        adopted: Vec<(u64, ValueBytes)>,
    ) -> Vec<SyncAction> {
        if regency <= self.regency || self.leader_of(regency) != from {
            return Vec::new();
        }
        // Re-validate the leader's choice: all locks must verify and the
        // adopted values must equal the deterministic choice.
        for (_, d) in &reports {
            if !Self::locks_well_formed(&self.view, d) {
                return Vec::new();
            }
        }
        if reports.len() < self.view.reconfig_quorum() {
            return Vec::new();
        }
        let expected = Self::choose(&reports);
        if expected != adopted {
            return Vec::new();
        }
        self.install(regency, adopted)
    }

    fn install(&mut self, regency: u32, adopt: Vec<(u64, ValueBytes)>) -> Vec<SyncAction> {
        self.regency = regency;
        self.stopped_at = None;
        self.stops.retain(|r, _| *r > regency);
        vec![SyncAction::Install {
            regency,
            leader: self.leader_of(regency),
            adopt,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::write_sign_payload;
    use smartchain_crypto::keys::{Backend, SecretKey};

    fn setup(n: usize) -> (Vec<SecretKey>, View, Vec<Synchronizer>) {
        let secrets: Vec<SecretKey> = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 100; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        let syncs = (0..n).map(|i| Synchronizer::new(i, view.clone())).collect();
        (secrets, view, syncs)
    }

    fn deliver_all(
        syncs: &mut [Synchronizer],
        mut queue: Vec<(ReplicaId, ReplicaId, SyncMsg)>,
        stopdata: impl Fn(ReplicaId) -> StopData,
    ) -> Vec<Vec<SyncAction>> {
        let n = syncs.len();
        let mut installs: Vec<Vec<SyncAction>> = vec![Vec::new(); n];
        while let Some((from, to, msg)) = queue.pop() {
            let actions = syncs[to].on_message(from, msg);
            for action in actions {
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
                        if leader == to {
                            queue.push((to, to, msg));
                        } else {
                            queue.push((to, leader, msg));
                        }
                    }
                    install @ SyncAction::Install { .. } => installs[to].push(install),
                }
            }
        }
        installs
    }

    /// Triggers `request_change` at the given replicas (modelling their
    /// timeouts firing) and returns the initial message queue.
    fn trigger_change(
        syncs: &mut [Synchronizer],
        requesters: &[ReplicaId],
    ) -> Vec<(ReplicaId, ReplicaId, SyncMsg)> {
        let n = syncs.len();
        let mut queue = Vec::new();
        for &r in requesters {
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
        queue
    }

    #[test]
    fn regency_change_completes_without_locks() {
        // f+1 = 2 replicas time out; the rest join via the amplification rule.
        let (_, _, mut syncs) = setup(4);
        let queue = trigger_change(&mut syncs, &[1, 2]);
        let installs = deliver_all(&mut syncs, queue, |_| StopData {
            last_decided: 9,
            locked: Vec::new(),
        });
        for (i, acts) in installs.iter().enumerate() {
            assert!(
                acts.iter().any(|a| matches!(
                    a,
                    SyncAction::Install {
                        regency: 1,
                        leader: 1,
                        ..
                    }
                )),
                "replica {i} did not install regency 1: {acts:?}"
            );
            for a in acts {
                if let SyncAction::Install { adopt, .. } = a {
                    assert!(adopt.is_empty(), "nothing was locked: {adopt:?}");
                }
            }
        }
        for s in &syncs {
            assert_eq!(s.regency(), 1);
            assert_eq!(s.current_leader(), 1);
        }
    }

    #[test]
    fn one_faulty_stop_does_not_trigger_change() {
        let (_, _, mut syncs) = setup(4);
        // Replica 3 (faulty) sends STOP alone; nobody joins.
        let actions = syncs[0].on_message(3, SyncMsg::Stop { regency: 1 });
        assert!(actions.is_empty());
        assert_eq!(syncs[0].regency(), 0);
    }

    #[test]
    fn f_plus_one_stops_amplify() {
        let (_, _, mut syncs) = setup(4);
        // Two replicas (> f = 1) request the change; replica 0 must join.
        let a1 = syncs[0].on_message(2, SyncMsg::Stop { regency: 1 });
        assert!(a1.is_empty());
        let a2 = syncs[0].on_message(3, SyncMsg::Stop { regency: 1 });
        assert!(
            a2.iter()
                .any(|a| matches!(a, SyncAction::Broadcast(SyncMsg::Stop { regency: 1 }))),
            "{a2:?}"
        );
    }

    #[test]
    fn locked_value_survives_regency_change() {
        let (secrets, view, mut syncs) = setup(4);
        // Build a genuine write certificate for value "locked-batch" at
        // instance 5, epoch 0.
        let value = b"locked-batch".to_vec();
        let h = smartchain_crypto::sha256::digest(&value);
        let payload = write_sign_payload(5, 0, &h);
        let cert = WriteCertificate {
            instance: 5,
            epoch: 0,
            value_hash: h,
            writes: (0..3).map(|r| (r, secrets[r].sign(&payload))).collect(),
        };
        assert!(cert.verify(&view));
        let locked = LockedReport {
            value: value.clone().into(),
            cert,
        };

        let queue = trigger_change(&mut syncs, &[2, 3]);
        // A possibly-decided value is locked at a full quorum (2f+1 = 3) of
        // replicas, so every n-f STOPDATA set the new leader can collect
        // contains at least one report of it — this is the intersection
        // argument that makes decided values survive leader changes.
        let locked_for = locked.clone();
        let installs = deliver_all(&mut syncs, queue, move |r| StopData {
            last_decided: 4,
            locked: (r != 3).then(|| locked_for.clone()).into_iter().collect(),
        });
        for (i, acts) in installs.iter().enumerate() {
            let adopted = acts.iter().find_map(|a| match a {
                SyncAction::Install {
                    regency: 1, adopt, ..
                } => Some(adopt.clone()),
                _ => None,
            });
            assert_eq!(
                adopted,
                Some(vec![(5, value.clone().into())]),
                "replica {i} must adopt the locked value at its instance"
            );
        }
    }

    #[test]
    fn forged_lock_is_ignored() {
        let (secrets, view, mut syncs) = setup(4);
        // A lock whose certificate has only one signature (sub-quorum).
        let value = b"forged".to_vec();
        let h = smartchain_crypto::sha256::digest(&value);
        let payload = write_sign_payload(5, 0, &h);
        let bad_cert = WriteCertificate {
            instance: 5,
            epoch: 0,
            value_hash: h,
            writes: vec![(3, secrets[3].sign(&payload))],
        };
        assert!(!bad_cert.verify(&view));
        let locked = LockedReport {
            value: value.into(),
            cert: bad_cert,
        };

        let queue = trigger_change(&mut syncs, &[2, 0]);
        let locked_for = locked.clone();
        let installs = deliver_all(&mut syncs, queue, move |r| StopData {
            last_decided: 4,
            locked: (r == 3).then(|| locked_for.clone()).into_iter().collect(),
        });
        // STOPDATA from replica 3 is rejected (invalid cert), but the other
        // three suffice for the n-f quorum and nothing is adopted.
        for acts in &installs {
            for a in acts {
                if let SyncAction::Install { adopt, .. } = a {
                    assert!(adopt.is_empty(), "forged lock adopted: {adopt:?}");
                }
            }
        }
    }

    #[test]
    fn sync_from_non_leader_rejected() {
        let (_, _, mut syncs) = setup(4);
        let actions = syncs[0].on_message(
            3, // leader of regency 1 is replica 1, not 3
            SyncMsg::Sync {
                regency: 1,
                reports: Vec::new(),
                adopted: Vec::new(),
            },
        );
        assert!(actions.is_empty());
        assert_eq!(syncs[0].regency(), 0);
    }

    #[test]
    fn sync_with_wrong_choice_rejected() {
        let (_, _, mut syncs) = setup(4);
        // Leader 1 claims adoption of a value not justified by any report.
        let reports: Vec<(u64, StopData)> = (0..3u64)
            .map(|r| {
                (
                    r,
                    StopData {
                        last_decided: 0,
                        locked: Vec::new(),
                    },
                )
            })
            .collect();
        let actions = syncs[0].on_message(
            1,
            SyncMsg::Sync {
                regency: 1,
                reports,
                adopted: vec![(5, b"bogus".to_vec().into())],
            },
        );
        assert!(actions.is_empty());
        assert_eq!(syncs[0].regency(), 0);
    }

    #[test]
    fn messages_roundtrip() {
        let msgs = vec![
            SyncMsg::Stop { regency: 3 },
            SyncMsg::StopData {
                regency: 3,
                data: StopData {
                    last_decided: 8,
                    locked: Vec::new(),
                },
            },
            SyncMsg::Sync {
                regency: 3,
                reports: vec![(
                    0,
                    StopData {
                        last_decided: 8,
                        locked: Vec::new(),
                    },
                )],
                adopted: vec![(9, vec![1, 2, 3].into()), (10, vec![4, 5].into())],
            },
        ];
        for m in msgs {
            let bytes = smartchain_codec::to_bytes(&m);
            let back: SyncMsg = smartchain_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }
}
#[cfg(test)]
mod wire_len_tests {
    use super::*;
    use crate::proof::WriteCertificate;
    use smartchain_crypto::keys::{Backend, SecretKey};

    /// `encoded_len` must stay exact.
    #[test]
    fn len_matches_encoding() {
        let sk = SecretKey::from_seed(Backend::Sim, &[3u8; 32]);
        let cert = WriteCertificate {
            instance: 4,
            epoch: 1,
            value_hash: [5u8; 32],
            writes: vec![(0, sk.sign(b"w")), (1, sk.sign(b"x"))],
        };
        let locked = LockedReport {
            value: vec![7; 40].into(),
            cert: cert.clone(),
        };
        let data = StopData {
            last_decided: 3,
            locked: vec![locked.clone()],
        };
        let msgs = vec![
            SyncMsg::Stop { regency: 2 },
            SyncMsg::StopData {
                regency: 2,
                data: data.clone(),
            },
            SyncMsg::Sync {
                regency: 2,
                reports: vec![
                    (0, data.clone()),
                    (
                        1,
                        StopData {
                            last_decided: 1,
                            locked: Vec::new(),
                        },
                    ),
                ],
                adopted: vec![(4, vec![7; 40].into())],
            },
        ];
        assert_eq!(cert.encoded_len(), cert.to_vec().len());
        assert_eq!(locked.encoded_len(), locked.to_vec().len());
        assert_eq!(data.encoded_len(), data.to_vec().len());
        for m in msgs {
            assert_eq!(m.encoded_len(), m.to_vec().len());
        }
    }
}
