//! The per-instance VP-Consensus state machine.
//!
//! Pure and sans-IO: inputs are protocol messages (plus `propose`/
//! `advance_epoch` calls from the embedding layer), outputs are
//! [`Output`] values and at most one [`Decision`]. All timing, networking and
//! cost accounting live in the embedding (`smartchain-smr` / the simulator).

use crate::messages::{accept_sign_payload, ConsensusMsg, Output};
use crate::proof::{write_sign_payload, DecisionProof, WriteCertificate};
use crate::synchronizer::LockedReport;
use crate::{ReplicaId, View};
use smartchain_crypto::keys::{SecretKey, Signature};
use smartchain_crypto::{Hash, ValueBytes};
use std::collections::HashMap;
use std::sync::Arc;

/// A decided value together with its proof.
///
/// Both fields are shared handles: cloning a `Decision` (delivery
/// buffering, repair replies, durable logging) bumps two refcounts
/// instead of copying the batch bytes and the accept quorum.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Instance that decided.
    pub instance: u64,
    /// Epoch of the decision.
    pub epoch: u32,
    /// The decided value (encoded batch).
    pub value: ValueBytes,
    /// Quorum of signed ACCEPTs.
    pub proof: Arc<DecisionProof>,
}

/// Signed votes per value hash.
type Tally = HashMap<Hash, Vec<(ReplicaId, Signature)>>;

/// Everything one epoch binds: its value and its vote tallies.
#[derive(Debug, Default)]
struct EpochState {
    /// The value this epoch may decide: the leader's echoed PROPOSE, a
    /// SYNC-adopted value, or a fetched value a quorum of this epoch
    /// vouches for. Its hash is memoized inside the handle.
    value: Option<ValueBytes>,
    writes: Tally,
    accepts: Tally,
    sent_write: bool,
    sent_accept: Option<Hash>,
    /// A `FetchValue` went out for this epoch's accept quorum.
    fetch_requested: bool,
}

/// One consensus instance on one replica.
#[derive(Debug)]
pub struct Instance {
    id: u64,
    me: ReplicaId,
    view: View,
    secret: SecretKey,
    epoch: u32,
    leader: ReplicaId,
    epoch_state: EpochState,
    /// The highest-epoch write certificate an earlier epoch formed, with
    /// its value: the lock STOPDATA keeps reporting after that epoch ends.
    lock: Option<LockedReport>,
    decision: Option<Decision>,
}

impl Instance {
    /// Creates the instance for replica `me` under `view`, with `leader`
    /// leading epoch 0 (the current regency's leader).
    pub fn new(
        id: u64,
        me: ReplicaId,
        view: View,
        secret: SecretKey,
        leader: ReplicaId,
        epoch: u32,
    ) -> Instance {
        Instance {
            id,
            me,
            view,
            secret,
            epoch,
            leader,
            epoch_state: EpochState::default(),
            lock: None,
            decision: None,
        }
    }

    /// Instance number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Leader of the current epoch.
    pub fn leader(&self) -> ReplicaId {
        self.leader
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    /// True once this instance decided.
    pub fn is_decided(&self) -> bool {
        self.decision.is_some()
    }

    /// True once this replica learned the current epoch's value (via
    /// PROPOSE, a SYNC adoption, or a vouched ValueReply).
    pub fn has_value(&self) -> bool {
        self.epoch_state.value.is_some()
    }

    /// Re-emittable copies of this replica's own messages for the current
    /// epoch — the per-instance repair payload (and the reconnect resend).
    ///
    /// The set contains at most: this replica's PROPOSE (only while it leads
    /// the epoch — a relayed proposal from anyone else fails the receiver's
    /// leader check), this replica's own signed WRITE and ACCEPT, and last a
    /// ValueReply carrying the value when `include_value` and we are not the
    /// leader. The value comes after the votes so that, when they complete
    /// the receiver's write or accept quorum, that quorum vouches for it and
    /// the receiver binds it without a `FetchValue` round trip. Every
    /// message is exactly what this replica already sent (or was entitled
    /// to send), so the receiver's ordinary signature/leader/epoch checks
    /// authenticate a replay unchanged — a Byzantine replica gains nothing
    /// by asking.
    pub fn own_messages(&self, include_value: bool) -> Vec<ConsensusMsg> {
        let mut msgs = Vec::new();
        let mut value_reply = None;
        if let Some(value) = &self.epoch_state.value {
            let hash = value.hash();
            if self.me == self.leader {
                msgs.push(ConsensusMsg::Propose {
                    instance: self.id,
                    epoch: self.epoch,
                    value: value.clone(),
                });
            } else if include_value {
                value_reply = Some(ConsensusMsg::ValueReply {
                    instance: self.id,
                    epoch: self.epoch,
                    value: value.clone(),
                });
            }
            if self.epoch_state.sent_write {
                let own = self
                    .epoch_state
                    .writes
                    .get(&hash)
                    .and_then(|sigs| sigs.iter().find(|(r, _)| *r == self.me));
                if let Some((_, signature)) = own {
                    msgs.push(ConsensusMsg::Write {
                        instance: self.id,
                        epoch: self.epoch,
                        value_hash: hash,
                        signature: *signature,
                    });
                }
            }
        }
        if let Some(hash) = self.epoch_state.sent_accept {
            let own = self
                .epoch_state
                .accepts
                .get(&hash)
                .and_then(|sigs| sigs.iter().find(|(r, _)| *r == self.me));
            if let Some((_, signature)) = own {
                msgs.push(ConsensusMsg::Accept {
                    instance: self.id,
                    epoch: self.epoch,
                    value_hash: hash,
                    signature: *signature,
                });
            }
        }
        msgs.extend(value_reply);
        msgs
    }

    /// The lock reported in STOPDATA: the value with the highest-epoch
    /// write certificate this replica formed or received — the current
    /// epoch's if it has one, else the one carried from an earlier epoch.
    /// Only a certificate proves a value may have decided; an echo alone
    /// locks nothing.
    pub fn locked_value(&self) -> Option<LockedReport> {
        let current = self.epoch_state.value.as_ref().and_then(|value| {
            let value_hash = value.hash();
            let writes = self.quorum(&self.epoch_state.writes, &value_hash)?;
            Some(LockedReport {
                value: value.clone(),
                cert: WriteCertificate {
                    instance: self.id,
                    epoch: self.epoch,
                    value_hash,
                    writes: writes.clone(),
                },
            })
        });
        current.or_else(|| self.lock.clone())
    }

    /// Leader entry point: proposes `value` for this instance.
    ///
    /// Returns the broadcast to perform. Calling this on a non-leader replica
    /// returns no outputs (defensive; the embedding should not do it).
    pub fn propose(&mut self, value: impl Into<ValueBytes>) -> Vec<Output<ConsensusMsg>> {
        if self.me != self.leader || self.decision.is_some() {
            return Vec::new();
        }
        vec![Output::Broadcast(ConsensusMsg::Propose {
            instance: self.id,
            epoch: self.epoch,
            value: value.into(),
        })]
    }

    /// Moves to a new epoch with a new leader (synchronization phase
    /// outcome). The value, the vote tallies and the value fetch reset; the
    /// lock survives, so STOPDATA still reports it and only a SYNC binds the
    /// new value.
    pub fn advance_epoch(&mut self, epoch: u32, leader: ReplicaId) {
        if epoch < self.epoch {
            return; // never move backwards
        }
        self.lock = self.locked_value();
        self.epoch = epoch;
        self.leader = leader;
        self.epoch_state = EpochState::default();
    }

    /// Adopts `value` as the one to decide in this epoch (used when a SYNC
    /// message certifies a locked value from a previous epoch).
    pub fn adopt_value(&mut self, value: impl Into<ValueBytes>) {
        self.epoch_state.value = Some(value.into());
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: ConsensusMsg,
    ) -> (Vec<Output<ConsensusMsg>>, Option<Decision>) {
        if self.decision.is_some() {
            // Serve value fetches even after deciding; drop the rest.
            if let ConsensusMsg::FetchValue { instance } = msg {
                return (self.serve_fetch(from, instance), None);
            }
            return (Vec::new(), None);
        }
        let mut out = Vec::new();
        let hash = match msg {
            ConsensusMsg::Propose {
                instance,
                epoch,
                value,
            } => {
                debug_assert_eq!(instance, self.id);
                if epoch != self.epoch || from != self.leader || self.epoch_state.sent_write {
                    return (out, None); // stale epoch, usurper, or already echoed
                }
                let hash = value.hash();
                // A SYNC-adopted or vouched value constrains what we echo.
                if self.epoch_state.value.get_or_insert(value).hash() != hash {
                    return (out, None);
                }
                self.epoch_state.sent_write = true;
                let own_sig = self.sign_write(&hash);
                out.push(Output::Broadcast(ConsensusMsg::Write {
                    instance: self.id,
                    epoch: self.epoch,
                    value_hash: hash,
                    signature: own_sig,
                }));
                // Tally our own write immediately (the broadcast above does
                // not loop back to us).
                self.record_write(self.me, hash, own_sig, &mut out);
                hash
            }
            ConsensusMsg::Write {
                instance,
                epoch,
                value_hash,
                signature,
            } => {
                debug_assert_eq!(instance, self.id);
                if epoch != self.epoch {
                    return (out, None);
                }
                // Verify the sender's write signature: these signatures form
                // the WriteCertificates that justify locked values during
                // leader changes, so only genuine ones may be tallied.
                let Some(key) = self.view.members.get(from) else {
                    return (out, None);
                };
                let payload = write_sign_payload(self.id, self.epoch, &value_hash);
                if !key.verify(&payload, &signature) {
                    return (out, None);
                }
                self.record_write(from, value_hash, signature, &mut out);
                value_hash
            }
            ConsensusMsg::Accept {
                instance,
                epoch,
                value_hash,
                signature,
            } => {
                debug_assert_eq!(instance, self.id);
                if epoch != self.epoch {
                    return (out, None);
                }
                let Some(key) = self.view.members.get(from) else {
                    return (out, None);
                };
                let payload = accept_sign_payload(self.id, self.epoch, &value_hash);
                if !key.verify(&payload, &signature) {
                    return (out, None);
                }
                let entry = self.epoch_state.accepts.entry(value_hash).or_default();
                if entry.iter().any(|(r, _)| *r == from) {
                    return (out, None);
                }
                entry.push((from, signature));
                value_hash
            }
            ConsensusMsg::FetchValue { instance } => {
                return (self.serve_fetch(from, instance), None);
            }
            ConsensusMsg::ValueReply {
                instance,
                epoch: _,
                value,
            } => {
                debug_assert_eq!(instance, self.id);
                // Only a quorum of this epoch can vouch for a fetched value;
                // an unsolicited one must not bind the epoch.
                let hash = value.hash();
                if self.quorum(&self.epoch_state.writes, &hash).is_none()
                    && self.quorum(&self.epoch_state.accepts, &hash).is_none()
                {
                    return (out, None);
                }
                self.epoch_state.value = Some(value);
                hash
            }
        };
        self.try_decide(hash, out)
    }

    fn sign_write(&self, hash: &Hash) -> Signature {
        self.secret
            .sign(&write_sign_payload(self.id, self.epoch, hash))
    }

    /// The votes `tally` holds for `hash`, if they make a quorum.
    fn quorum<'a>(&self, tally: &'a Tally, hash: &Hash) -> Option<&'a Vec<(ReplicaId, Signature)>> {
        tally
            .get(hash)
            .filter(|votes| votes.len() >= self.view.quorum())
    }

    /// Records a WRITE vote; on reaching the write quorum, broadcasts and
    /// tallies this replica's ACCEPT.
    fn record_write(
        &mut self,
        from: ReplicaId,
        hash: Hash,
        signature: Signature,
        out: &mut Vec<Output<ConsensusMsg>>,
    ) {
        let entry = self.epoch_state.writes.entry(hash).or_default();
        if entry.iter().any(|(r, _)| *r == from) {
            return;
        }
        entry.push((from, signature));
        if entry.len() < self.view.quorum() || self.epoch_state.sent_accept.is_some() {
            return;
        }
        self.epoch_state.sent_accept = Some(hash);
        let payload = accept_sign_payload(self.id, self.epoch, &hash);
        let signature = self.secret.sign(&payload);
        out.push(Output::Broadcast(ConsensusMsg::Accept {
            instance: self.id,
            epoch: self.epoch,
            value_hash: hash,
            signature,
        }));
        // Tally our own accept immediately.
        let entry = self.epoch_state.accepts.entry(hash).or_default();
        if !entry.iter().any(|(r, _)| *r == self.me) {
            entry.push((self.me, signature));
        }
    }

    /// The one decide trigger: decides once `value_hash` has an accept
    /// quorum and is this epoch's value.
    fn try_decide(
        &mut self,
        value_hash: Hash,
        mut out: Vec<Output<ConsensusMsg>>,
    ) -> (Vec<Output<ConsensusMsg>>, Option<Decision>) {
        let Some(accepts) = self.quorum(&self.epoch_state.accepts, &value_hash) else {
            return (out, None);
        };
        match &self.epoch_state.value {
            Some(value) if value.hash() == value_hash => {
                let decision = Decision {
                    instance: self.id,
                    epoch: self.epoch,
                    value: value.clone(),
                    proof: Arc::new(DecisionProof {
                        instance: self.id,
                        epoch: self.epoch,
                        value_hash,
                        accepts: accepts.clone(),
                    }),
                };
                self.decision = Some(decision.clone());
                (out, Some(decision))
            }
            _ => {
                // Accept-quorum without the value: fetch it. Ask the whole
                // view — an accepter may itself hold only the hash, but the
                // leader and every replica that echoed the proposal have the
                // value, and at least one of those is correct and reachable.
                if !self.epoch_state.fetch_requested {
                    self.epoch_state.fetch_requested = true;
                    out.push(Output::Broadcast(ConsensusMsg::FetchValue {
                        instance: self.id,
                    }));
                }
                (out, None)
            }
        }
    }

    fn serve_fetch(&self, to: ReplicaId, instance: u64) -> Vec<Output<ConsensusMsg>> {
        debug_assert_eq!(instance, self.id);
        let decided = self.decision.as_ref().map(|d| &d.value);
        match decided.or(self.epoch_state.value.as_ref()) {
            Some(value) => vec![Output::Send(
                to,
                ConsensusMsg::ValueReply {
                    instance: self.id,
                    epoch: self.epoch,
                    value: value.clone(),
                },
            )],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_crypto::keys::Backend;
    use smartchain_crypto::sha256;

    struct Net {
        instances: Vec<Instance>,
    }

    impl Net {
        fn new(n: usize) -> Net {
            let secrets: Vec<SecretKey> = (0..n)
                .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 50; 32]))
                .collect();
            let view = View {
                id: 0,
                members: secrets.iter().map(|s| s.public_key()).collect(),
            };
            let instances = (0..n)
                .map(|i| Instance::new(7, i, view.clone(), secrets[i].clone(), 0, 0))
                .collect();
            Net { instances }
        }

        /// Delivers outputs until quiescence; returns decisions per replica.
        fn run(
            &mut self,
            initial: Vec<(ReplicaId, Output<ConsensusMsg>)>,
        ) -> Vec<Option<Decision>> {
            let n = self.instances.len();
            let mut decisions: Vec<Option<Decision>> = vec![None; n];
            let mut queue: Vec<(ReplicaId, ReplicaId, ConsensusMsg)> = Vec::new();
            let push = |q: &mut Vec<(ReplicaId, ReplicaId, ConsensusMsg)>,
                        from: ReplicaId,
                        out: Output<ConsensusMsg>| match out {
                Output::Broadcast(m) => {
                    for to in 0..n {
                        if to != from {
                            q.push((from, to, m.clone()));
                        }
                    }
                }
                Output::Send(to, m) => q.push((from, to, m)),
            };
            for (from, out) in initial {
                push(&mut queue, from, out);
            }
            while let Some((from, to, msg)) = queue.pop() {
                let (outs, dec) = self.instances[to].on_message(from, msg);
                if let Some(d) = dec {
                    decisions[to] = Some(d);
                }
                for out in outs {
                    push(&mut queue, to, out);
                }
            }
            decisions
        }
    }

    #[test]
    fn four_replicas_decide_proposed_value() {
        let mut net = Net::new(4);
        let outs = net.instances[0].propose(b"batch-1".to_vec());
        let initial: Vec<_> = outs.into_iter().map(|o| (0, o)).collect();
        // Leader handles its own proposal too.
        let mut init = initial.clone();
        if let Some((_, Output::Broadcast(m))) = initial.first() {
            let (outs0, _) = net.instances[0].on_message(0, m.clone());
            init.extend(outs0.into_iter().map(|o| (0usize, o)));
        }
        let decisions = net.run(init);
        for (i, d) in decisions.iter().enumerate() {
            let d = d
                .as_ref()
                .unwrap_or_else(|| panic!("replica {i} did not decide"));
            assert_eq!(d.value, b"batch-1");
            assert_eq!(d.instance, 7);
            assert!(d.proof.accepts.len() >= 3);
        }
    }

    #[test]
    fn decision_proofs_verify_against_view() {
        let mut net = Net::new(4);
        let view = net.instances[0].view.clone();
        let outs = net.instances[0].propose(b"batch-2".to_vec());
        let mut init: Vec<_> = outs.clone().into_iter().map(|o| (0, o)).collect();
        if let Some(Output::Broadcast(m)) = outs.first() {
            let (outs0, _) = net.instances[0].on_message(0, m.clone());
            init.extend(outs0.into_iter().map(|o| (0usize, o)));
        }
        let decisions = net.run(init);
        for d in decisions.into_iter().flatten() {
            assert!(d.proof.verify(&view));
        }
    }

    #[test]
    fn non_leader_proposal_ignored() {
        let mut net = Net::new(4);
        assert!(net.instances[1].propose(b"evil".to_vec()).is_empty());
        // A PROPOSE arriving from a non-leader is also ignored.
        let (outs, dec) = net.instances[2].on_message(
            1,
            ConsensusMsg::Propose {
                instance: 7,
                epoch: 0,
                value: b"evil".to_vec().into(),
            },
        );
        assert!(outs.is_empty());
        assert!(dec.is_none());
    }

    #[test]
    fn equivocating_leader_cannot_cause_conflicting_decisions() {
        // Leader sends value A to replicas {1}, value B to {2, 3}.
        let mut net = Net::new(4);
        let prop = |v: &[u8]| ConsensusMsg::Propose {
            instance: 7,
            epoch: 0,
            value: v.to_vec().into(),
        };
        let mut queue: Vec<(ReplicaId, ReplicaId, ConsensusMsg)> =
            vec![(0, 1, prop(b"A")), (0, 2, prop(b"B")), (0, 3, prop(b"B"))];
        let mut decisions: Vec<Option<Decision>> = vec![None; 4];
        while let Some((from, to, msg)) = queue.pop() {
            let (outs, dec) = net.instances[to].on_message(from, msg);
            if let Some(d) = dec {
                decisions[to] = Some(d);
            }
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
        let decided: Vec<&Decision> = decisions.iter().flatten().collect();
        let values: std::collections::HashSet<Vec<u8>> =
            decided.iter().map(|d| d.value.to_vec()).collect();
        assert!(values.len() <= 1, "conflicting decisions: {values:?}");
    }

    #[test]
    fn stale_epoch_messages_ignored() {
        let mut net = Net::new(4);
        net.instances[1].advance_epoch(2, 2);
        let (outs, _) = net.instances[1].on_message(
            0,
            ConsensusMsg::Propose {
                instance: 7,
                epoch: 0,
                value: b"old".to_vec().into(),
            },
        );
        assert!(outs.is_empty());
    }

    #[test]
    fn duplicate_writes_not_double_counted() {
        let mut net = Net::new(4);
        let h = sha256::digest(b"v");
        let sig = net.instances[2].secret.sign(&write_sign_payload(7, 0, &h));
        for _ in 0..10 {
            let (outs, _) = net.instances[1].on_message(
                2,
                ConsensusMsg::Write {
                    instance: 7,
                    epoch: 0,
                    value_hash: h,
                    signature: sig,
                },
            );
            // A single write from one replica never produces an accept.
            assert!(outs.is_empty());
        }
    }

    #[test]
    fn write_with_forged_signature_ignored() {
        let mut net = Net::new(4);
        let h = sha256::digest(b"v");
        let outsider = SecretKey::from_seed(Backend::Sim, &[201u8; 32]);
        let sig = outsider.sign(&write_sign_payload(7, 0, &h));
        // Even a full round of forged writes never yields an accept.
        for from in [0usize, 1, 2, 3] {
            let (outs, _) = net.instances[1].on_message(
                from,
                ConsensusMsg::Write {
                    instance: 7,
                    epoch: 0,
                    value_hash: h,
                    signature: sig,
                },
            );
            assert!(outs.is_empty(), "forged write accepted");
        }
    }

    #[test]
    fn accept_with_bad_signature_rejected() {
        let mut net = Net::new(4);
        let other = SecretKey::from_seed(Backend::Sim, &[200u8; 32]);
        let h = sha256::digest(b"v");
        let sig = other.sign(&accept_sign_payload(7, 0, &h));
        for from in [1usize, 2, 3] {
            let (_, dec) = net.instances[0].on_message(
                from,
                ConsensusMsg::Accept {
                    instance: 7,
                    epoch: 0,
                    value_hash: h,
                    signature: sig,
                },
            );
            assert!(dec.is_none());
        }
    }

    /// A replica that never echoed the proposal (its own WRITE was lost or
    /// the PROPOSE never arrived) but collected a full write certificate and
    /// learned the value must still report the lock — the certificate alone
    /// proves the value may have decided.
    #[test]
    fn write_certificate_without_own_echo_reports_lock() {
        let mut net = Net::new(4);
        let value = b"cert-only".to_vec();
        let h = sha256::digest(&value);
        let reply = ConsensusMsg::ValueReply {
            instance: 7,
            epoch: 0,
            value: value.clone().into(),
        };
        // Replica 3 never sees the leader's PROPOSE, so it never sends its
        // own WRITE; a ValueReply no quorum vouches for yet is dropped.
        let (_, dec) = net.instances[3].on_message(0, reply.clone());
        assert!(dec.is_none());
        assert!(
            !net.instances[3].has_value(),
            "an unvouched reply is dropped"
        );
        assert!(
            net.instances[3].locked_value().is_none(),
            "no value, no certificate: nothing to report yet"
        );
        // A write quorum from the other three replicas arrives.
        for from in 0..3usize {
            let sig = net.instances[from]
                .secret
                .sign(&write_sign_payload(7, 0, &h));
            net.instances[3].on_message(
                from,
                ConsensusMsg::Write {
                    instance: 7,
                    epoch: 0,
                    value_hash: h,
                    signature: sig,
                },
            );
        }
        // Now the quorum vouches for the value's hash: the reply binds it.
        let (_, dec) = net.instances[3].on_message(0, reply);
        assert!(dec.is_none());
        let lock = net.instances[3]
            .locked_value()
            .expect("write certificate alone must surface the lock");
        assert_eq!(lock.value, value);
        assert!(lock.cert.verify(&net.instances[3].view));
        assert_eq!(lock.cert.value_hash, h);
    }

    /// Three genuine ACCEPTs reach a replica before the leader's PROPOSE;
    /// the PROPOSE itself completes the decision, with no fetch round.
    #[test]
    fn late_propose_completes_a_pending_accept_quorum() {
        let mut net = Net::new(4);
        let value = b"late-propose".to_vec();
        let h = sha256::digest(&value);
        for from in 0..3usize {
            let sig = net.instances[from]
                .secret
                .sign(&accept_sign_payload(7, 0, &h));
            let (_, dec) = net.instances[3].on_message(
                from,
                ConsensusMsg::Accept {
                    instance: 7,
                    epoch: 0,
                    value_hash: h,
                    signature: sig,
                },
            );
            assert!(dec.is_none(), "no value yet");
        }
        let (_, dec) = net.instances[3].on_message(
            0,
            ConsensusMsg::Propose {
                instance: 7,
                epoch: 0,
                value: value.clone().into(),
            },
        );
        let d = dec.expect("the PROPOSE completes the pending accept quorum");
        assert_eq!(d.value, value);
        assert!(d.proof.verify(&net.instances[3].view));
    }

    #[test]
    fn late_replica_fetches_value() {
        // Replica 3 misses the proposal but sees an accept quorum; it must
        // emit FetchValue and decide after the reply.
        let mut net = Net::new(4);
        let value = b"late-value".to_vec();
        let h = sha256::digest(&value);
        // Build three genuine accepts by letting 0,1,2 run the protocol.
        let prop = ConsensusMsg::Propose {
            instance: 7,
            epoch: 0,
            value: value.clone().into(),
        };
        let mut msgs: Vec<(ReplicaId, ConsensusMsg)> = Vec::new();
        for r in 0..3usize {
            let (outs, _) = net.instances[r].on_message(0, prop.clone());
            for o in outs {
                if let Output::Broadcast(m) = o {
                    msgs.push((r, m));
                }
            }
        }
        // Cross-deliver writes among 0,1,2 to generate accepts.
        let mut accepts: Vec<(ReplicaId, ConsensusMsg)> = Vec::new();
        let mut pending = msgs;
        while let Some((from, m)) = pending.pop() {
            for r in 0..3usize {
                if r == from {
                    continue;
                }
                let (outs, _) = net.instances[r].on_message(from, m.clone());
                for o in outs {
                    if let Output::Broadcast(mm) = o {
                        if matches!(mm, ConsensusMsg::Accept { .. }) {
                            accepts.push((r, mm));
                        } else {
                            pending.push((r, mm));
                        }
                    }
                }
            }
        }
        assert!(
            accepts.len() >= 3,
            "need an accept quorum, got {}",
            accepts.len()
        );
        // Deliver accepts to replica 3, which never saw the proposal.
        let mut fetch_broadcast = false;
        for (from, m) in accepts.iter().take(3) {
            let (outs, dec) = net.instances[3].on_message(*from, m.clone());
            assert!(dec.is_none());
            for o in outs {
                if matches!(o, Output::Broadcast(ConsensusMsg::FetchValue { .. })) {
                    fetch_broadcast = true;
                }
            }
        }
        assert!(fetch_broadcast, "replica 3 should fetch the value");
        // Replica 0 (which echoed the proposal) serves the fetch.
        let replies = net.instances[0]
            .on_message(3, ConsensusMsg::FetchValue { instance: 7 })
            .0;
        let Some(Output::Send(3, reply)) = replies.into_iter().next() else {
            panic!("no value reply");
        };
        let (_, dec) = net.instances[3].on_message(0, reply);
        let d = dec.expect("replica 3 decides after fetching the value");
        assert_eq!(d.value, value);
        assert_eq!(d.proof.value_hash, h);
    }

    /// A replica that holds an accept quorum but not the value asks for it
    /// once per epoch: the WRITE quorum that follows re-runs the decide
    /// check without a second `FetchValue`, and a later epoch, whose quorum
    /// may be for a value nobody has sent it, asks again.
    #[test]
    fn missing_value_is_fetched_again_in_a_later_epoch() {
        let mut net = Net::new(4);
        let h = sha256::digest(b"never-proposed-here");
        for epoch in [0u32, 1] {
            if epoch > 0 {
                net.instances[3].advance_epoch(epoch, 1);
            }
            let mut fetches = 0;
            for from in 0..3usize {
                let secret = net.instances[from].secret.clone();
                let votes = [
                    ConsensusMsg::Accept {
                        instance: 7,
                        epoch,
                        value_hash: h,
                        signature: secret.sign(&accept_sign_payload(7, epoch, &h)),
                    },
                    ConsensusMsg::Write {
                        instance: 7,
                        epoch,
                        value_hash: h,
                        signature: secret.sign(&write_sign_payload(7, epoch, &h)),
                    },
                ];
                for vote in votes {
                    let (outs, dec) = net.instances[3].on_message(from, vote);
                    assert!(dec.is_none(), "epoch {epoch}: no value, no decision");
                    fetches += outs
                        .iter()
                        .filter(|o| matches!(o, Output::Broadcast(ConsensusMsg::FetchValue { .. })))
                        .count();
                }
            }
            assert_eq!(fetches, 1, "epoch {epoch}: one FetchValue");
        }
    }
}
