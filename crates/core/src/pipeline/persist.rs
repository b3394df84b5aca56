//! Stages 4–5 — PERSIST and REPLY: the persistence ladder (§V-C) behind a
//! [`DurabilityEngine`], plus the strong variant's PERSIST certificate round
//! (Fig. 3) and reply release.
//!
//! Every Persistence × Variant combination routes its block bytes through
//! the same engine type the real-disk `smr::DurableApp` uses
//! (`smartchain_storage::Engine`, here over a heap `MemLog`) — the engine
//! owns the *data plane* (what survives a crash) while the simulator's disk
//! model charges the *time plane* according to the engine's policy:
//!
//! * [`Persistence::Memory`] → `SyncPolicy::None` (∞-persistence): no
//!   device time, nothing durable;
//! * [`Persistence::Async`] → `SyncPolicy::Async` (λ-persistence):
//!   buffered device write, reply does not wait;
//! * [`Persistence::Sync`] → `SyncPolicy::Sync` (0/1-persistence): a
//!   synchronous device write gates the reply; the engine's `flush` is the
//!   group-commit point.
//!
//! On top of the ladder, [`Variant::Strong`] adds the PERSIST round: replies
//! release only after a Byzantine quorum certifies the header
//! (0-Persistence); [`Variant::Weak`] releases after the local obligation
//! (1-Persistence).
//!
//! With a pipelined ordering core (α > 1) up to α blocks are open in this
//! stage at once. Device syncs and PERSIST certificates complete in
//! whatever order the disk and the network deliver them — each open block
//! tracks its own obligation — but replies release strictly in block order
//! from the front of the open queue (out-of-order PERSIST completion,
//! in-order REPLY release).

use crate::block::{persist_sign_payload, Certificate};
use crate::messages::ChainMsg;
use crate::node::ChainNode;
use crate::pipeline::KIND_HEADER;
use smartchain_codec::Encode;
use smartchain_consensus::ReplicaId;
use smartchain_crypto::keys::Signature;
use smartchain_crypto::Hash;
use smartchain_sim::{Ctx, NodeId};
use smartchain_smr::app::Application;
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::types::Reply;
use smartchain_storage::mem::MemLog;
use smartchain_storage::{DurabilityEngine, Engine, SyncPolicy};

/// Where blocks are persisted (the paper's persistence ladder, §V-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// Memory only (∞-Persistence).
    Memory,
    /// Asynchronous writes (λ-Persistence).
    Async,
    /// Synchronous header writes (0/1-Persistence depending on variant).
    Sync,
}

impl Persistence {
    /// The engine rung implementing this policy.
    pub fn sync_policy(self) -> SyncPolicy {
        match self {
            Persistence::Memory => SyncPolicy::None,
            Persistence::Async => SyncPolicy::Async,
            Persistence::Sync => SyncPolicy::Sync,
        }
    }

    /// Builds the durability engine for this rung over the simulator's
    /// heap-backed "disk".
    pub fn make_engine(self) -> Engine<MemLog> {
        smartchain_storage::engine::engine_for(self.sync_policy())
    }
}

/// Weak (1-Persistence) or strong (0-Persistence, PERSIST phase) variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Reply after the local synchronous write.
    Weak,
    /// Reply after a quorum certificate over the header is assembled.
    Strong,
}

/// A block mid-pipeline (executed, awaiting persistence/certificate).
pub struct OpenBlock {
    pub(crate) number: u64,
    pub(crate) header_hash: Hash,
    pub(crate) replies: Vec<Reply>,
    pub(crate) cert: Vec<(ReplicaId, Signature)>,
    pub(crate) header_synced: bool,
    /// Engine record count when this block's device sync was issued: the
    /// completing sync can only have covered records queued before it
    /// started, so the commit point flushes exactly this prefix (later open
    /// blocks' records wait for their own completions).
    pub(crate) durable_boundary: u64,
    /// The block's full durability obligation is met; it releases once it
    /// reaches the front of the open queue.
    pub(crate) done: bool,
}

impl<A: Application> ChainNode<A> {
    /// Stage entry: the produce stage appended `number` (`size` encoded
    /// bytes) to the ledger; drive the engine's policy for it. Charges the
    /// device write the policy requires and arranges `header_done` to run
    /// when the policy's obligation is met.
    pub(crate) fn persist_block(&mut self, number: u64, size: usize, ctx: &mut Ctx<'_, ChainMsg>) {
        let sync = {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            m.ledger.log().policy() == SyncPolicy::Sync
        };
        if sync {
            // 0/1-Persistence: the device sync gates the stage hop; the
            // engine's group-commit flush runs on completion (header_done).
            let token = KIND_HEADER | number;
            ctx.disk_write(size, true, token);
        } else {
            if self.config.persistence == Persistence::Async {
                ctx.disk_write(size, false, 0)
            }
            self.header_done(number, ctx);
        }
    }

    /// The header's durability obligation is met (device sync completed, or
    /// the policy required none): flush the engine's commit point and move
    /// to the variant's reply rule. With α > 1 the completing block need not
    /// be the front of the open queue.
    pub(crate) fn header_done(&mut self, number: u64, ctx: &mut Ctx<'_, ChainMsg>) {
        let variant = self.config.variant;
        {
            let Some(m) = self.member.as_mut() else {
                return;
            };
            let Some(open) = m.open.iter_mut().find(|o| o.number == number) else {
                return;
            };
            open.header_synced = true;
            // Data-plane group commit: everything queued when this block's
            // device sync was ISSUED becomes durable — not records later
            // open blocks appended while the sync was in flight; those wait
            // for their own completions. A failed device sync must not
            // release replies as durable; in simulation (a heap-backed
            // engine) it cannot fail.
            let boundary = open.durable_boundary;
            m.ledger
                .log_mut()
                .flush_upto(boundary)
                .expect("durability engine flush");
        }
        match variant {
            Variant::Weak => {
                if let Some(m) = self.member.as_mut() {
                    if let Some(open) = m.open.iter_mut().find(|o| o.number == number) {
                        open.done = true;
                    }
                }
                self.release_open_blocks(ctx);
            }
            Variant::Strong => {
                let (header_hash, me) = {
                    let m = self.member.as_ref().expect("active");
                    let open = m
                        .open
                        .iter()
                        .find(|o| o.number == number)
                        .expect("open block");
                    (open.header_hash, self.my_replica_id())
                };
                ctx.charge(ctx.hw().cpu.sign_ns);
                let payload = persist_sign_payload(number, &header_hash);
                let signature = self.keys.consensus().sign(&payload);
                if let Some(me) = me {
                    let m = self.member.as_mut().expect("active");
                    let open = m
                        .open
                        .iter_mut()
                        .find(|o| o.number == number)
                        .expect("open block");
                    open.cert.push((me, signature));
                    if let Some(stash) = m.persist_stash.remove(&number) {
                        for (r, h, sig) in stash {
                            if h == header_hash && !open.cert.iter().any(|(rr, _)| *rr == r) {
                                open.cert.push((r, sig));
                            }
                        }
                    }
                }
                let msg = ChainMsg::Persist {
                    block: number,
                    header_hash,
                    signature,
                };
                self.send_to_members(&msg, ctx);
                self.check_certificate(number, ctx);
            }
        }
    }

    /// A peer's PERSIST share arrived.
    pub(crate) fn on_persist(
        &mut self,
        from_node: NodeId,
        block: u64,
        header_hash: Hash,
        signature: Signature,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        let sender = {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            (0..m.view.n()).find(|&r| self.node_of(&m.view, r) == Some(from_node))
        };
        let Some(sender) = sender else { return };
        // PERSIST shares are full signatures (they end up in the publicly
        // verifiable certificate), so the verification costs the real thing.
        ctx.charge(ctx.hw().cpu.verify_ns);
        let valid = {
            let m = self.member.as_ref().expect("active");
            let payload = persist_sign_payload(block, &header_hash);
            m.view
                .members
                .get(sender)
                .is_some_and(|mem| mem.consensus.verify(&payload, &signature))
        };
        if !valid {
            return;
        }
        let Some(m) = self.member.as_mut() else {
            return;
        };
        match m
            .open
            .iter_mut()
            .find(|o| o.number == block && o.header_hash == header_hash)
        {
            Some(open) => {
                if !open.cert.iter().any(|(r, _)| *r == sender) {
                    open.cert.push((sender, signature));
                }
                self.check_certificate(block, ctx);
            }
            None => {
                // Shares for blocks whose certificate already completed are
                // useless — stashing them would leak O(f) signatures per
                // block over a long run. Only stash for future blocks.
                if block > m.ledger.height() {
                    m.persist_stash.entry(block).or_default().push((
                        sender,
                        header_hash,
                        signature,
                    ));
                }
            }
        }
    }

    /// Completes the PERSIST round for `number` once a quorum certified its
    /// header. Certificates may complete in any order across the open
    /// blocks; release order is still enforced by the open queue.
    pub(crate) fn check_certificate(&mut self, number: u64, ctx: &mut Ctx<'_, ChainMsg>) {
        let ready = {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            let Some(open) = m.open.iter().find(|o| o.number == number) else {
                return;
            };
            !open.done && open.header_synced && open.cert.len() >= m.view.quorum()
        };
        if !ready {
            return;
        }
        let m = self.member.as_mut().expect("active");
        let open = m
            .open
            .iter_mut()
            .find(|o| o.number == number)
            .expect("open block");
        let cert = Certificate {
            signatures: open.cert.clone(),
        };
        open.done = true;
        let cert_size = cert.encoded_len();
        m.ledger
            .set_certificate(number, cert)
            .expect("ledger certificate");
        if self.config.persistence != Persistence::Memory {
            // Asynchronous write: recoverable after a full crash (§V-C).
            ctx.disk_write(cert_size, false, 0);
        }
        self.release_open_blocks(ctx);
    }

    /// Stage 5 — REPLY: releases every front block whose durability
    /// obligation is fully met, strictly in block order; runs deferred
    /// reconfigurations once the pipeline drains and pulls further ordered
    /// batches into the pipeline. (Checkpoints trigger at EXECUTE time in
    /// the produce stage, where the covered point is deterministic.)
    pub(crate) fn release_open_blocks(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        loop {
            let replies = {
                let Some(m) = self.member.as_mut() else {
                    return;
                };
                match m.open.front() {
                    Some(front) if front.done => m.open.pop_front().expect("front exists").replies,
                    _ => break,
                }
            };
            for reply in replies {
                let node = crate::node::client_node(reply.client);
                let msg = ChainMsg::Smr(SmrMsg::Reply(reply));
                let size = msg.wire_size();
                ctx.send(node, msg, size);
            }
            // A reconfiguration deferred behind the pipeline applies once
            // every open block has cleared, before any further deliveries.
            if self.member.as_ref().is_some_and(|m| m.open.is_empty()) {
                if let Some((cid, tx, proof)) =
                    self.member.as_mut().and_then(|m| m.pending_reconfig.take())
                {
                    self.make_reconfig_block(cid, tx, &proof, ctx);
                }
            }
        }
        self.pump_deliveries(ctx);
    }
}
