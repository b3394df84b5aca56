//! Side stage — decentralized reconfiguration, client side (§V-D, Fig. 5):
//! joining, leaving, and advocating exclusions, plus activation of a fresh
//! membership (genesis or Welcome).
//!
//! The flow is always the same two steps: (1) the interested party asks the
//! membership, (2) members answer with votes signed by their *permanent*
//! keys carrying fresh per-view consensus keys, and a quorum of votes forms
//! the reconfiguration transaction that is ordered like any request. The
//! ordered transaction is applied by the produce stage
//! (`ChainNode::make_reconfig_block`).

use crate::block::{vote_payload, ReconfigOp, ReconfigTx, ReconfigVote, ViewInfo};
use crate::ledger::Ledger;
use crate::messages::ChainMsg;
use crate::node::{client_id, ChainNode, MemberState};
use crate::pipeline::{exclude_vote_payload, reconfig_payload};
use crate::view_keys::CertifiedKey;
use smartchain_crypto::keys::PublicKey;
use smartchain_sim::{Ctx, NodeId, Time};
use smartchain_smr::app::Application;
use smartchain_smr::ordering::{OrderingCore, SmrMsg};
use smartchain_smr::types::Request;

impl<A: Application> ChainNode<A> {
    /// Activates membership in `view` with a fresh ordering core and a
    /// ledger over the configured durability engine (genesis activation and
    /// Welcome-triggered admission share this path).
    pub(crate) fn activate_member(&mut self, view: ViewInfo, last_applied: u64) {
        self.keys.rotate_to(view.id);
        let me = view
            .position_of(&self.keys.permanent_public())
            .expect("activating node must be in the view");
        let core = OrderingCore::new(
            me,
            view.to_consensus_view(),
            self.keys.consensus().clone(),
            self.config.ordering,
            last_applied,
        );
        let engine = self.config.persistence.make_engine();
        let ledger = Ledger::open(engine, self.genesis.clone()).expect("engine ledger opens");
        self.member = Some(MemberState::new(view, core, ledger));
    }

    /// Handles a Welcome: we were admitted; activate and catch up.
    pub(crate) fn on_welcome(&mut self, view: ViewInfo, ctx: &mut Ctx<'_, ChainMsg>) {
        if self.member.is_none() && view.position_of(&self.keys.permanent_public()).is_some() {
            self.activate_member(view, 0);
            self.start_state_transfer(ctx);
        }
    }

    /// Fig. 5a step 1: a prospective member asks the genesis membership in.
    pub(crate) fn ask_to_join(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        if self.member.is_some() {
            return;
        }
        let joiner = self.keys.certified_key_for(self.genesis.view.id + 1);
        let msg = ChainMsg::JoinAsk { joiner };
        for member in &self.genesis.view.members.clone() {
            if member.permanent == self.keys.permanent_public() {
                continue;
            }
            if let Some(&node) = self.directory.get(&member.permanent) {
                ctx.send(node, msg.clone(), msg.wire_size());
            }
        }
    }

    /// Schedules this member to advocate excluding `target` at time `at`
    /// (paper Fig. 5b: each member submits a signed remove transaction; a
    /// quorum of n−f such transactions produces the new view).
    pub fn schedule_exclusion(&mut self, at: Time, target: PublicKey) {
        self.exclude_at = Some((at, target));
    }

    /// Submits this member's exclude vote through the ordering protocol.
    pub(crate) fn submit_exclude_vote(&mut self, target: PublicKey, ctx: &mut Ctx<'_, ChainMsg>) {
        let (new_view_id, me, members) = {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            if m.view.position_of(&target).is_none() {
                return; // target already gone
            }
            let Some(me) = self.my_replica_id() else {
                return;
            };
            (m.view.id + 1, me, m.view.members.clone())
        };
        let op = ReconfigOp::Exclude { target };
        let new_key = self.keys.certified_key_for(new_view_id);
        let payload = vote_payload(new_view_id, &op, &new_key);
        ctx.charge(ctx.hw().cpu.sign_ns * 2);
        let vote = ReconfigVote {
            voter: me,
            new_key,
            signature: self.keys.permanent().sign(&payload),
        };
        self.protocol_seq += 1;
        let request = Request {
            client: client_id(ctx.id(), 0xFFFE),
            seq: self.protocol_seq,
            payload: exclude_vote_payload(&target, &vote),
            signature: None,
        };
        // Order it like any client request (including through ourselves).
        let msg = ChainMsg::Smr(SmrMsg::Request(request.clone()));
        for member in &members {
            if let Some(&node) = self.directory.get(&member.permanent) {
                if node == ctx.id() {
                    self.admit(request.clone(), ctx);
                } else {
                    ctx.send(node, msg.clone(), msg.wire_size());
                }
            }
        }
    }

    /// §V-D leave flow: a member asks the membership out (same message as a
    /// join; members infer the direction from current membership).
    pub(crate) fn ask_to_leave(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let Some(m) = self.member.as_ref() else {
            return;
        };
        let joiner = self.keys.certified_key_for(m.view.id + 1);
        let msg = ChainMsg::JoinAsk { joiner };
        self.send_to_members(&msg, ctx);
    }

    /// Handles a JoinAsk: a non-member asker wants in; a member asker wants
    /// out. Either way, vote with our new key for the next view.
    pub(crate) fn on_join_ask(
        &mut self,
        from_node: NodeId,
        joiner: CertifiedKey,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        let (new_view_id, op, me, current_view) = {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            let Some(me) = self.my_replica_id() else {
                return;
            };
            let new_view_id = m.view.id + 1;
            let op = if m.view.position_of(&joiner.permanent).is_some() {
                ReconfigOp::Leave {
                    leaver: joiner.permanent,
                }
            } else {
                // Admission policy hook: accept-all (the paper leaves the
                // policy to the application: PoW, certification, stake...).
                if !joiner.verify(new_view_id) {
                    return; // badly certified joiner key
                }
                ReconfigOp::Join { joiner }
            };
            (new_view_id, op, me, m.view.clone())
        };
        ctx.charge(ctx.hw().cpu.sign_ns * 2);
        let new_key = self.keys.certified_key_for(new_view_id);
        let payload = vote_payload(new_view_id, &op, &new_key);
        let vote = ReconfigVote {
            voter: me,
            new_key,
            signature: self.keys.permanent().sign(&payload),
        };
        let msg = ChainMsg::JoinVote {
            vote,
            op,
            new_view_id,
            current_view,
        };
        let size = msg.wire_size();
        ctx.send(from_node, msg, size);
    }

    /// Collects votes for our own join/leave; submits the reconfiguration
    /// transaction once a quorum (n−f of the current view) is reached.
    pub(crate) fn on_join_vote(
        &mut self,
        vote: ReconfigVote,
        op: ReconfigOp,
        new_view_id: u64,
        current_view: ViewInfo,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        let my_pk = self.keys.permanent_public();
        let mine = match &op {
            ReconfigOp::Join { joiner } => joiner.permanent == my_pk && self.member.is_none(),
            ReconfigOp::Leave { leaver } => *leaver == my_pk && self.member.is_some(),
            ReconfigOp::Exclude { .. } => false,
        };
        if !mine {
            return;
        }
        self.own_view_seen = Some(current_view.clone());
        let votes = self.own_votes.entry(new_view_id).or_default();
        if votes.iter().any(|v| v.voter == vote.voter) {
            return;
        }
        votes.push(vote);
        let needed = current_view.n() - current_view.f();
        if votes.len() >= needed && !self.own_submitted.contains(&new_view_id) {
            self.own_submitted.insert(new_view_id);
            let tx = ReconfigTx {
                new_view_id,
                op,
                votes: votes.clone(),
            };
            self.protocol_seq += 1;
            let request = Request {
                client: client_id(ctx.id(), 0xFFFF),
                seq: self.protocol_seq,
                payload: reconfig_payload(&tx),
                signature: None,
            };
            let msg = ChainMsg::Smr(SmrMsg::Request(request));
            for member in &current_view.members {
                if let Some(&node) = self.directory.get(&member.permanent) {
                    ctx.send(node, msg.clone(), msg.wire_size());
                }
            }
        }
    }
}
