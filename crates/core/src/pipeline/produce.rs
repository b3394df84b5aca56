//! Stage 3 — EXECUTE: an ordered batch becomes a block (Algorithm 1,
//! lines 16-29; reconfigurations, lines 37-48).
//!
//! The stage sorts a decided batch into application transactions, exclude
//! votes (tallied here, where total order makes the tally deterministic)
//! and reconfiguration transactions; executes the application payload;
//! seals the block; and hands it to the persist stage. A reconfiguration
//! that shares a batch with application traffic is deferred until the open
//! block clears the persist stage — rotating view keys mid-PERSIST would
//! orphan the in-flight certificate.

use crate::block::{vote_payload, Block, BlockBody, ReconfigOp, ReconfigTx};
use crate::messages::ChainMsg;
use crate::node::{ChainNode, ReconfigInstall};
use crate::pipeline::persist::OpenBlock;
use crate::pipeline::{
    unwrap_app_payload, verify_envelope_signature, KIND_RECONFIG, PAYLOAD_EXCLUDE_VOTE,
    PAYLOAD_RECONFIG,
};
use smartchain_codec::from_bytes;
use smartchain_merkle as merkle;
use smartchain_sim::{Ctx, Time};
use smartchain_smr::actor::SigMode;
use smartchain_smr::app::Application;
use smartchain_smr::ordering::{OrderedBatch, OrderingCore};
use smartchain_smr::types::{Reply, Request};
use smartchain_storage::{DurabilityEngine, RecordLog, SyncPolicy};

/// Whether a request carries protocol traffic (reconfigurations, exclude
/// votes) rather than an application payload.
fn is_protocol_request(req: &Request) -> bool {
    matches!(
        req.payload.first(),
        Some(&PAYLOAD_RECONFIG) | Some(&PAYLOAD_EXCLUDE_VOTE)
    )
}

/// How EXECUTE treats one request of a decided batch; live execution, crash
/// replay and state-transfer install all classify through
/// [`ChainNode::slot`], so replay runs exactly what EXECUTE ran.
enum Slot {
    /// Reconfiguration / exclude vote: empty result, no reply.
    Protocol,
    /// Forged under Sequential verification: dropped at execution.
    Forged,
    /// Application transaction (None = unwrappable payload: empty app
    /// result, but still replied to).
    App(Option<Request>),
}

impl<A: Application> ChainNode<A> {
    /// Classifies one request of a decided batch (see [`Slot`]).
    fn slot(&self, req: &Request) -> Slot {
        if is_protocol_request(req) {
            Slot::Protocol
        } else if self.config.sig_mode == SigMode::Sequential && !verify_envelope_signature(req) {
            Slot::Forged
        } else {
            Slot::App(unwrap_app_payload(&req.payload).map(|bytes| Request {
                client: req.client,
                seq: req.seq,
                payload: bytes.to_vec(),
                signature: req.signature,
            }))
        }
    }

    /// Replays one ledger block: raises the per-client record for every
    /// request and, with `execute`, runs the application slots EXECUTE ran
    /// (none of a block the installed snapshot already summarizes). Returns
    /// how many requests executed.
    pub(crate) fn replay_block(&mut self, block: &Block, execute: bool) -> u64 {
        let BlockBody::Transactions { requests, .. } = &block.body else {
            return 0;
        };
        if let Some(m) = self.member.as_mut() {
            m.raise_executed(requests.iter().map(|r| (r.client, r.seq)));
        }
        if !execute {
            return 0;
        }
        let mut executed = 0;
        for req in requests {
            if let Slot::App(Some(inner)) = self.slot(req) {
                self.app.execute(&inner);
                executed += 1;
            }
        }
        executed
    }

    /// Stage entry (Algorithm 1 lines 16-29, and 37-48 for
    /// reconfigurations): split one ordered batch and produce block(s).
    pub(crate) fn start_block(&mut self, batch: OrderedBatch, ctx: &mut Ctx<'_, ChainMsg>) {
        let mut has_app = false;
        let mut reconfig_tx: Option<ReconfigTx> = None;
        for req in &batch.requests {
            match req.payload.first() {
                Some(&PAYLOAD_RECONFIG) => {
                    if reconfig_tx.is_none() {
                        if let Ok(tx) = from_bytes::<ReconfigTx>(&req.payload[1..]) {
                            reconfig_tx = Some(tx);
                        }
                    }
                }
                Some(&PAYLOAD_EXCLUDE_VOTE) => {
                    if let Some(tx) =
                        self.tally_exclude_vote(&req.payload[1..], reconfig_tx.is_some())
                    {
                        reconfig_tx = Some(tx);
                    }
                }
                _ => has_app = true,
            }
        }
        if has_app {
            // The block carries the *whole* decided batch (protocol requests
            // included), so the decision proof's value hash can be checked
            // against the block content by auditors — protocol requests get
            // empty results and no replies.
            self.make_tx_block(batch.instance, batch.requests, &batch.proof, ctx);
        }
        if let Some(tx) = reconfig_tx {
            // The reconfiguration marks the end of the outgoing view's
            // history: batches its core decided after this instance are void
            // (every correct replica cuts at the same instance), and the
            // requests re-order under the new view via client retransmission.
            if let Some(m) = self.member.as_mut() {
                m.delivery_queue.clear();
            }
            // If blocks are still mid-pipeline (fsync/PERSIST), defer the
            // reconfiguration until the pipeline drains: the view-key
            // rotation must not invalidate an in-flight certificate.
            let open = self.member.as_ref().is_some_and(|m| !m.open.is_empty());
            if open {
                if let Some(m) = self.member.as_mut() {
                    m.pending_reconfig = Some((batch.instance, tx, batch.proof.clone()));
                }
            } else {
                self.make_reconfig_block(batch.instance, tx, &batch.proof, ctx);
            }
        }
    }

    /// Tallies one ordered exclude vote; returns the reconfiguration once a
    /// quorum of n−f members advocated the same exclusion (paper Fig. 5b).
    fn tally_exclude_vote(
        &mut self,
        payload: &[u8],
        already_reconfiguring: bool,
    ) -> Option<ReconfigTx> {
        let (target, vote) = crate::pipeline::parse_exclude_vote(payload).ok()?;
        let m = self.member.as_mut()?;
        // Tally only authentic votes from current members.
        let op = ReconfigOp::Exclude { target };
        let payload = vote_payload(m.view.id + 1, &op, &vote.new_key);
        let authentic = m.view.members.get(vote.voter).is_some_and(|member| {
            member.permanent == vote.new_key.permanent
                && member.permanent.verify(&payload, &vote.signature)
        });
        if !authentic {
            return None;
        }
        let entry = m.exclude_votes.entry(target).or_default();
        if !entry.iter().any(|v| v.voter == vote.voter) {
            entry.push(vote);
        }
        let threshold = m.view.n() - m.view.f();
        if !already_reconfiguring && entry.len() >= threshold {
            let votes = m.exclude_votes.remove(&target).unwrap_or_default();
            return Some(ReconfigTx {
                new_view_id: m.view.id + 1,
                op: ReconfigOp::Exclude { target },
                votes,
            });
        }
        None
    }

    /// Executes application requests and seals a transaction block, handing
    /// it to the persist stage. `requests` is the whole decided batch;
    /// protocol requests (reconfigurations, exclude votes) ride along with
    /// empty results so the block content matches the decision proof's value
    /// hash, but only application requests are metered, charged and replied
    /// to.
    pub(crate) fn make_tx_block(
        &mut self,
        consensus_id: u64,
        requests: Vec<Request>,
        proof: &smartchain_consensus::proof::DecisionProof,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        let count = requests.iter().filter(|r| !is_protocol_request(r)).count();
        self.meter.record(ctx.now(), count as u64);
        self.committed_log.push((ctx.now(), count as u64));
        let lanes = self.config.execute_lanes.max(1);
        let slots: Vec<Slot> = requests.iter().map(|req| self.slot(req)).collect();
        // EXECUTE cost: serial charges one execute_ns per transaction; the
        // laned stage charges the plan's critical path — the longest lane of
        // each parallel group plus one slot per cross-lane barrier. Block
        // contents are identical either way; only virtual time differs.
        let executable: Vec<&Request> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::App(Some(inner)) => Some(inner),
                _ => None,
            })
            .collect();
        let mut exec_outputs: std::collections::VecDeque<Vec<u8>> = if lanes == 1 {
            // Seed cost model: every non-protocol slot is charged, even ones
            // dropped (forged) or unwrappable — they occupied the stage.
            ctx.charge(self.config.execute_ns * count as Time);
            executable
                .iter()
                .map(|inner| self.app.execute(inner))
                .collect()
        } else {
            let hints: Vec<_> = executable
                .iter()
                .map(|inner| self.app.lane_hint(inner, lanes))
                .collect();
            let plan = smartchain_smr::exec::plan_batch(&hints, lanes);
            ctx.charge(self.config.execute_ns * plan.stats.critical_path_txs as Time);
            self.exec_stats.absorb(&plan.stats);
            smartchain_smr::exec::run_plan(&mut self.app, &executable, &plan, None).into()
        };
        if self.config.sig_mode == SigMode::Sequential {
            // The paper's sequential mode verifies inside the state machine
            // (serially — the verify stage is the pipelined alternative).
            ctx.charge(ctx.hw().cpu.verify_ns * count as Time);
        }
        let mut results = Vec::with_capacity(requests.len());
        let mut replies = Vec::with_capacity(count);
        let me = self.my_replica_id().unwrap_or(0);
        for (req, slot) in requests.iter().zip(&slots) {
            let app_result = match slot {
                Slot::Protocol | Slot::Forged => {
                    results.push(Vec::new());
                    continue; // no reply
                }
                Slot::App(Some(_)) => exec_outputs.pop_front().expect("one output per app tx"),
                Slot::App(None) => Vec::new(),
            };
            let mut result = app_result;
            // Pad to the modeled reply size (the paper's replies are
            // 270-380 bytes); longer app results are kept as-is.
            if result.len() < self.config.reply_size {
                result.resize(self.config.reply_size.max(8), 0);
            }
            replies.push(Reply {
                client: req.client,
                seq: req.seq,
                result: result.clone(),
                replica: me,
            });
            results.push(result);
        }
        // The post-block state root goes into the header via `hash_results`,
        // so the PERSIST certificate also certifies the application state —
        // the anchor snapshot installers verify shipped chunks against.
        // Computed on the real CPU only: the paper's pipeline has no such
        // step, so no virtual time is charged.
        let state_root = merkle::chunked_root(&self.app.take_snapshot(), merkle::STATE_CHUNK);
        let Some(m) = self.member.as_mut() else {
            return;
        };
        m.raise_executed(requests.iter().map(|r| (r.client, r.seq)));
        let body = BlockBody::Transactions {
            consensus_id,
            requests,
            proof: proof.clone(),
            results,
        };
        let block = m.ledger.build_next(body, state_root);
        let number = block.header.number;
        let header_hash = block.header.hash();
        let size = block.wire_size();
        ctx.charge(ctx.hw().cpu.hash_time(size));
        m.ledger.append(&block).expect("ledger append");
        // The device sync issued below can only cover what is queued right
        // now (this block and its predecessors) — record the boundary.
        let durable_boundary = m.ledger.log().len();
        m.open.push_back(OpenBlock {
            number,
            header_hash,
            replies,
            cert: Vec::new(),
            header_synced: false,
            durable_boundary,
            done: false,
        });
        self.persist_block(number, size, ctx);
        // Checkpoint trigger at EXECUTE time: the application state right
        // now is exactly blocks 1..=number on every replica, so the covered
        // point (and the last_checkpoint field of subsequent headers) is a
        // deterministic function of the chain — release-time triggering at
        // α > 1 would bake later in-flight blocks into the snapshot.
        self.maybe_checkpoint(number, ctx);
    }

    /// Applies a verified reconfiguration: seals the block and either
    /// installs the new view immediately (Memory/Async rungs) or arms the
    /// [`KIND_RECONFIG`] completion so the install waits for the block's
    /// synchronous write (Sync rung) — the reconfiguration block's modeled
    /// write latency must actually delay the reconfiguration, exactly like
    /// a transaction block's durability gates its replies.
    pub(crate) fn make_reconfig_block(
        &mut self,
        consensus_id: u64,
        tx: ReconfigTx,
        proof: &smartchain_consensus::proof::DecisionProof,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        // Reconfigurations don't touch application state: the block binds
        // the state root as it stands.
        let state_root = merkle::chunked_root(&self.app.take_snapshot(), merkle::STATE_CHUNK);
        let Some(m) = self.member.as_mut() else {
            return;
        };
        if !tx.verify(&m.view) {
            return;
        }
        let new_view = tx.apply(&m.view);
        let body = BlockBody::Reconfiguration {
            consensus_id,
            tx: tx.clone(),
            proof: proof.clone(),
            new_view: new_view.clone(),
        };
        let block = m.ledger.build_next(body, state_root);
        let size = block.wire_size();
        ctx.charge(ctx.hw().cpu.hash_time(size));
        m.ledger.append(&block).expect("ledger append");
        let height = m.ledger.height();
        let joiner = match &tx.op {
            ReconfigOp::Join { joiner } => Some(joiner.permanent),
            _ => None,
        };
        let install = ReconfigInstall {
            consensus_id,
            new_view,
            height,
            joiner,
        };
        if self.config.persistence == SyncPolicy::Sync {
            // The view installs in the synchronous write's completion event
            // (same OpDone hop as a tx block's KIND_HEADER gate).
            m.reconfig_install = Some(install);
            ctx.disk_write(size, true, KIND_RECONFIG | height);
            return;
        }
        if self.config.persistence == SyncPolicy::Async {
            ctx.disk_write(size, false, 0);
        }
        self.install_reconfig(install, ctx);
    }

    /// [`KIND_RECONFIG`] completion: the reconfiguration block is durable;
    /// install the view it decided.
    pub(crate) fn finish_reconfig_install(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let Some(install) = self.member.as_mut().and_then(|m| m.reconfig_install.take()) else {
            return;
        };
        self.install_reconfig(install, ctx);
    }

    /// Installs an applied reconfiguration: rotates the consensus keys (the
    /// forgetting protocol, §V-D), rebuilds the ordering core under the new
    /// view (or deactivates a departing member), and Welcomes a joiner.
    fn install_reconfig(&mut self, install: ReconfigInstall, ctx: &mut Ctx<'_, ChainMsg>) {
        let Some(m) = self.member.as_mut() else {
            return;
        };
        // Reconfiguration blocks commit through the engine at install time:
        // the view change must not depend on a later group-commit point (and
        // a failed sync must not rotate the view keys).
        m.ledger.log_mut().flush().expect("durability engine flush");
        let ReconfigInstall {
            consensus_id,
            new_view,
            height,
            joiner,
        } = install;
        let my_pk = self.keys.permanent_public();
        let am_member = new_view.position_of(&my_pk).is_some();
        if let Some(joiner) = joiner {
            if let Some(&node) = self.directory.get(&joiner) {
                if joiner != my_pk {
                    let msg = ChainMsg::Welcome {
                        view: new_view.clone(),
                    };
                    let size = msg.wire_size();
                    ctx.send(node, msg, size);
                }
            }
        }
        if am_member {
            self.keys.rotate_to(new_view.id);
            let me = new_view.position_of(&my_pk).expect("member");
            let m = self.member.as_mut().expect("active");
            m.generation += 1;
            m.view = new_view;
            m.core = OrderingCore::new(
                me,
                m.view.to_consensus_view(),
                self.keys.consensus().clone(),
                self.config.ordering,
                height.max(consensus_id),
            );
            m.persist_stash.clear();
            m.exclude_votes.clear();
            m.delivery_queue.clear();
            // Requests admitted before the view change (e.g. duplicate
            // reconfiguration submissions) are dropped with the old core;
            // clients retransmit if still relevant. The duplicate filter
            // starts from the per-client record so retransmissions of
            // already-executed requests are not re-decided.
            m.seed_core();
        } else {
            // We left (or were excluded): deactivate, but only after the
            // reconfiguration is installed (the paper requires departing
            // replicas to keep serving until the new view is in place).
            self.member = None;
        }
    }
}
