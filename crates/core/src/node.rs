//! The SMARTCHAIN replica (paper §V, Algorithm 1) as a simulation actor —
//! the *spine* of the staged commit pipeline.
//!
//! This module keeps only what every stage shares: the actor's state
//! ([`ChainNode`], `MemberState`), its configuration, event dispatch, and
//! the routing of ordering-core outputs. The stages themselves live in
//! [`crate::pipeline`]:
//!
//! * verify — batched client-signature checks ([`crate::pipeline::verify`]);
//! * execute/produce — ordered batches become blocks
//!   ([`crate::pipeline::produce`]);
//! * persist — the persistence ladder behind a
//!   [`smartchain_storage::DurabilityEngine`], plus the strong variant's
//!   PERSIST certificate round ([`crate::pipeline::persist`]);
//! * checkpoints ([`crate::pipeline::checkpoint`]), state transfer
//!   ([`crate::pipeline::state_transfer`]) and decentralized
//!   reconfiguration ([`crate::pipeline::reconfig`]).

use crate::block::{Block, Genesis, ViewInfo};
use crate::ledger::Ledger;
use crate::pipeline::checkpoint::SnapshotState;
use crate::pipeline::verify::VerifyStage;
use crate::pipeline::{
    KIND_HEADER, KIND_MASK, KIND_RECONFIG, KIND_SNAPSHOT, KIND_VERIFY, TOKEN_EXCLUDE, TOKEN_JOIN,
    TOKEN_LEAVE, TOKEN_PROGRESS,
};
use crate::view_keys::KeyStore;
use smartchain_consensus::messages::ConsensusMsg;
use smartchain_consensus::ReplicaId;
use smartchain_crypto::keys::PublicKey;
use smartchain_sim::metrics::ThroughputMeter;
use smartchain_sim::{Actor, Ctx, Event, NodeId, Time, MILLI};
use smartchain_smr::app::Application;
use smartchain_smr::ordering::{CoreOutput, OrderedBatch, OrderingConfig, OrderingCore, SmrMsg};
use smartchain_smr::types::Request;
use smartchain_storage::mem::MemLog;
use smartchain_storage::{DurabilityEngine, Engine, RecordLog, SyncPolicy};
use std::collections::{BTreeMap, HashMap, VecDeque};

pub use crate::messages::ChainMsg;
pub use crate::pipeline::persist::{OpenBlock, Variant};
pub use crate::pipeline::{
    app_payload, exclude_vote_payload, unwrap_app_payload, verify_envelope_signature,
};
pub use smartchain_smr::actor::{client_id, client_node, SigMode};

/// SmartChain node configuration.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Weak or strong persistence variant.
    pub variant: Variant,
    /// The persistence ladder's rung (§V-C): `None` (∞-persistence),
    /// `Async` (λ-persistence) or `Sync` (0/1-persistence, by variant).
    pub persistence: SyncPolicy,
    /// Client-signature checking policy.
    pub sig_mode: SigMode,
    /// Batching parameters.
    pub ordering: OrderingConfig,
    /// Leader-change timeout.
    pub progress_timeout: Time,
    /// Per-transaction execution cost.
    pub execute_ns: Time,
    /// Snapshot serialization cost per byte (checkpoint stall, Fig. 7).
    pub snapshot_ns_per_byte: Time,
    /// Snapshot installation cost per byte (state transfer).
    pub install_ns_per_byte: Time,
    /// Reply payload size (bytes).
    pub reply_size: usize,
    /// Modeled application state size (e.g. Fig. 7's 1 GB); `0` = use the
    /// real snapshot length.
    pub state_size: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            variant: Variant::Weak,
            persistence: SyncPolicy::Sync,
            sig_mode: SigMode::None,
            ordering: OrderingConfig::default(),
            progress_timeout: 500 * MILLI,
            execute_ns: 6_000,
            snapshot_ns_per_byte: 20,
            install_ns_per_byte: 40,
            reply_size: 380,
            state_size: 0,
        }
    }
}

/// A decided reconfiguration whose block is written but whose view install
/// waits for the block's synchronous-write completion (Sync rung): the
/// reconfiguration must not take effect before its block is durable.
pub(crate) struct ReconfigInstall {
    pub(crate) consensus_id: u64,
    pub(crate) new_view: ViewInfo,
    pub(crate) height: u64,
    /// Public key of a joining member to Welcome once installed.
    pub(crate) joiner: Option<PublicKey>,
}

/// Per-membership state (exists while the node is an active consortium
/// member). Fields are crate-visible: the pipeline stage modules operate on
/// them directly.
pub(crate) struct MemberState {
    /// Bumped whenever the ordering core is replaced (view change, state
    /// transfer); outputs minted by an older core must be discarded.
    pub(crate) generation: u64,
    /// A reconfiguration decided in the same batch as application
    /// transactions waits here until every open block completes — rotating
    /// the view keys mid-PERSIST would orphan the in-flight certificates.
    pub(crate) pending_reconfig: Option<(
        u64,
        crate::block::ReconfigTx,
        std::sync::Arc<smartchain_consensus::proof::DecisionProof>,
    )>,
    /// A reconfiguration block awaiting its synchronous write (Sync rung).
    pub(crate) reconfig_install: Option<ReconfigInstall>,
    pub(crate) view: ViewInfo,
    pub(crate) core: OrderingCore,
    /// The chain, persisted through the configured durability engine.
    pub(crate) ledger: Ledger<Engine<MemLog>>,
    /// Most recent checkpoint snapshot (served to state transfers; its
    /// crash durability is tracked by the two fields below).
    pub(crate) snapshot: Option<SnapshotState>,
    /// The previous snapshot, kept while the newer one's device write is
    /// still in flight — what a crash falls back to. The paired time is
    /// when *its own* write completed or completes (0 = durable;
    /// `Time::MAX` = awaiting a superseded Sync fsync completion).
    pub(crate) snapshot_fallback: Option<(SnapshotState, Time)>,
    /// `Some(t)`: the current `snapshot`'s device write completes at virtual
    /// time `t` (Async rung, modeled), or at the pending [`KIND_SNAPSHOT`]
    /// completion (`t == Time::MAX`, Sync rung). A crash before completion
    /// loses the snapshot.
    pub(crate) snapshot_inflight: Option<Time>,
    /// Per-client highest `seq` in the chain this replica holds, the
    /// snapshot-summarized prefix included: raised by EXECUTE, replay and an
    /// installed snapshot; it is what a checkpoint ships as its dedup
    /// frontier and what seeds every fresh or recovering ordering core.
    pub(crate) executed: BTreeMap<u64, u64>,
    pub(crate) delivery_queue: VecDeque<OrderedBatch>,
    /// Blocks mid-pipeline (executed, awaiting persistence/certificate),
    /// ascending by number; at most α at once. Durability obligations may
    /// complete out of order, replies release strictly from the front.
    pub(crate) open: VecDeque<OpenBlock>,
    pub(crate) persist_stash: HashMap<
        u64,
        Vec<(
            ReplicaId,
            smartchain_crypto::Hash,
            smartchain_crypto::keys::Signature,
        )>,
    >,
    pub(crate) exclude_votes: HashMap<PublicKey, Vec<crate::block::ReconfigVote>>,
    /// The batched verify stage (stage 1 of the pipeline).
    pub(crate) verify: VerifyStage,
    /// Per-member `(height, chain hash)` digest sets from state replies of
    /// the current sync round (install is gated on `f+1` consistent ones).
    pub(crate) state_acks: HashMap<NodeId, Vec<(u64, smartchain_crypto::Hash)>>,
    /// The full state reply held until enough digests corroborate it.
    pub(crate) pending_state: Option<crate::pipeline::state_transfer::PendingState>,
    pub(crate) timer_armed: bool,
    pub(crate) delivered_at_arm: u64,
    pub(crate) next_token: u64,
    pub(crate) syncing: bool,
}

impl MemberState {
    pub(crate) fn new(
        view: ViewInfo,
        core: OrderingCore,
        ledger: Ledger<Engine<MemLog>>,
    ) -> MemberState {
        MemberState {
            generation: 0,
            pending_reconfig: None,
            reconfig_install: None,
            view,
            core,
            ledger,
            snapshot: None,
            snapshot_fallback: None,
            snapshot_inflight: None,
            executed: BTreeMap::new(),
            delivery_queue: VecDeque::new(),
            open: VecDeque::new(),
            persist_stash: HashMap::new(),
            exclude_votes: HashMap::new(),
            verify: VerifyStage::new(),
            state_acks: HashMap::new(),
            pending_state: None,
            timer_armed: false,
            delivered_at_arm: 0,
            next_token: 100,
            syncing: false,
        }
    }

    /// Raises the per-client record by `(client, seq)` pairs: a block's
    /// requests, or an installed snapshot's frontier.
    pub(crate) fn raise_executed(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        for (client, seq) in pairs {
            let top = self.executed.entry(client).or_insert(seq);
            *top = (*top).max(seq);
        }
    }

    /// The per-client record as a `(client, seq)` frontier, by client id.
    pub(crate) fn executed_frontier(&self) -> Vec<(u64, u64)> {
        self.executed.iter().map(|(&c, &s)| (c, s)).collect()
    }

    /// Seeds the ordering core's duplicate filter from the per-client record
    /// (after a view install, a state-transfer install or crash recovery).
    pub(crate) fn seed_core(&mut self) {
        let frontier = self.executed_frontier();
        self.core.seed_delivered(&frontier);
    }
}

/// The SmartChain replica actor.
pub struct ChainNode<A: Application> {
    pub(crate) directory: HashMap<PublicKey, NodeId>,
    pub(crate) keys: KeyStore,
    pub(crate) config: NodeConfig,
    pub(crate) genesis: Genesis,
    pub(crate) app: A,
    pub(crate) member: Option<MemberState>,
    /// Vote collection for our own join/leave request.
    pub(crate) own_votes: HashMap<u64, Vec<crate::block::ReconfigVote>>,
    pub(crate) own_submitted: std::collections::HashSet<u64>,
    pub(crate) own_view_seen: Option<ViewInfo>,
    pub(crate) join_at: Option<Time>,
    pub(crate) leave_at: Option<Time>,
    pub(crate) exclude_at: Option<(Time, PublicKey)>,
    pub(crate) protocol_seq: u64,
    pub(crate) meter: ThroughputMeter,
    pub(crate) committed_log: Vec<(Time, u64)>,
    pub(crate) checkpoint_log: Vec<(Time, u64)>,
}

impl<A: Application> ChainNode<A> {
    /// Creates a node; it activates immediately if it belongs to the genesis
    /// view, otherwise it stays dormant until `join_at` (if set).
    pub fn new(
        keys: KeyStore,
        genesis: Genesis,
        app: A,
        config: NodeConfig,
        directory: HashMap<PublicKey, NodeId>,
        join_at: Option<Time>,
        leave_at: Option<Time>,
    ) -> ChainNode<A> {
        let mut node = ChainNode {
            directory,
            keys,
            config,
            genesis: genesis.clone(),
            app,
            member: None,
            own_votes: HashMap::new(),
            own_submitted: std::collections::HashSet::new(),
            own_view_seen: None,
            join_at,
            leave_at,
            exclude_at: None,
            protocol_seq: 0,
            meter: ThroughputMeter::new(10_000),
            committed_log: Vec::new(),
            checkpoint_log: Vec::new(),
        };
        if genesis
            .view
            .position_of(&node.keys.permanent_public())
            .is_some()
        {
            let view = node.genesis.view.clone();
            node.activate_member(view, 0);
        }
        node
    }

    /// Throughput meter.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// `(time, count)` commit events for timeline plots (Fig. 7).
    pub fn commit_log(&self) -> &[(Time, u64)] {
        &self.committed_log
    }

    /// `(time, covered_block)` for every checkpoint this replica took.
    pub fn checkpoint_log(&self) -> &[(Time, u64)] {
        &self.checkpoint_log
    }

    /// Chain height, if active.
    pub fn height(&self) -> Option<u64> {
        self.member.as_ref().map(|m| m.ledger.height())
    }

    /// The current view, if active.
    pub fn view(&self) -> Option<&ViewInfo> {
        self.member.as_ref().map(|m| &m.view)
    }

    /// True while this node is an active consortium member.
    pub fn is_active(&self) -> bool {
        self.member.is_some()
    }

    /// True while this node is blocked on state transfer.
    pub fn is_syncing(&self) -> bool {
        self.member.as_ref().is_some_and(|m| m.syncing)
    }

    /// Repair counters from the ordering core (fetches, repaired
    /// instances, regency changes).
    pub fn ordering_stats(&self) -> Option<smartchain_smr::ordering::OrderingStats> {
        self.member.as_ref().map(|m| m.core.stats())
    }

    /// Ordering diagnostics: (last_delivered, pending, regency, leader).
    pub fn ordering_status(&self) -> Option<(u64, usize, u32, usize)> {
        self.member.as_ref().map(|m| {
            (
                m.core.last_delivered(),
                m.core.pending_len(),
                m.core.regency(),
                m.core.leader(),
            )
        })
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Full copy of the chain (for audits in tests/examples).
    pub fn chain(&self) -> Vec<Block> {
        self.member
            .as_ref()
            .map(|m| m.ledger.blocks_from(1).unwrap_or_default())
            .unwrap_or_default()
    }

    /// The genesis configuration.
    pub fn genesis(&self) -> &Genesis {
        &self.genesis
    }

    /// Persistence-engine accounting: `(records, syncs)` at the engine level
    /// (distinct from the simulator's device accounting).
    pub fn engine_stats(&self) -> Option<smartchain_storage::FlushStats> {
        self.member.as_ref().map(|m| m.ledger.log().stats())
    }

    /// Covered block of this replica's current checkpoint snapshot, if any
    /// (what a crash right now would recover from, plus any still-in-flight
    /// write tracked separately).
    pub fn snapshot_covered(&self) -> Option<u64> {
        self.member
            .as_ref()
            .and_then(|m| m.snapshot.as_ref())
            .map(|s| s.covered)
    }

    /// The ordering core's per-client duplicate filter frontier, sorted by
    /// client id (diagnostics: dedup continuity across snapshots).
    pub fn dedup_frontier(&self) -> Vec<(u64, u64)> {
        self.member
            .as_ref()
            .map(|m| m.core.delivered_frontier())
            .unwrap_or_default()
    }

    pub(crate) fn node_of(&self, view: &ViewInfo, replica: ReplicaId) -> Option<NodeId> {
        view.members
            .get(replica)
            .and_then(|m| self.directory.get(&m.permanent))
            .copied()
    }

    pub(crate) fn my_replica_id(&self) -> Option<ReplicaId> {
        let pk = self.keys.permanent_public();
        self.member.as_ref().and_then(|m| m.view.position_of(&pk))
    }

    pub(crate) fn send_to_members(&self, msg: &ChainMsg, ctx: &mut Ctx<'_, ChainMsg>) {
        let Some(m) = self.member.as_ref() else {
            return;
        };
        let me = self.my_replica_id();
        for r in 0..m.view.n() {
            if Some(r) == me {
                continue;
            }
            if let Some(node) = self.node_of(&m.view, r) {
                ctx.send(node, msg.clone(), msg.wire_size());
            }
        }
    }

    pub(crate) fn handle_core_outputs(
        &mut self,
        outputs: Vec<CoreOutput>,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        let generation_at_entry = self.member.as_ref().map(|m| m.generation);
        for out in outputs {
            // A view change mid-loop replaces the core; everything the old
            // core emitted after the reconfiguration batch is stale and must
            // not leak into the new view.
            if self.member.as_ref().map(|m| m.generation) != generation_at_entry {
                break;
            }
            match out {
                CoreOutput::Broadcast(m) => {
                    if matches!(m, SmrMsg::Consensus(ConsensusMsg::Accept { .. })) {
                        ctx.charge(ctx.hw().cpu.sign_ns);
                    }
                    let msg = ChainMsg::Smr(m);
                    self.send_to_members(&msg, ctx);
                }
                CoreOutput::Send(to, m) => {
                    if let Some(member) = self.member.as_ref() {
                        if let Some(node) = self.node_of(&member.view, to) {
                            let msg = ChainMsg::Smr(m);
                            let size = msg.wire_size();
                            ctx.send(node, msg, size);
                        }
                    }
                }
                CoreOutput::Deliver(batch) => {
                    if let Some(m) = self.member.as_mut() {
                        // Once a reconfiguration is decided, batches the
                        // outgoing view's core decides after it are void —
                        // every correct replica cuts at the same instance,
                        // and the requests are re-ordered under the new view
                        // when clients retransmit.
                        if m.pending_reconfig.is_none() && m.reconfig_install.is_none() {
                            m.delivery_queue.push_back(batch);
                        }
                    }
                    self.pump_deliveries(ctx);
                }
                CoreOutput::NeedStateTransfer { .. } => self.start_state_transfer(ctx),
            }
        }
        self.arm_progress_timer(ctx);
    }

    pub(crate) fn arm_progress_timer(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let timeout = self.config.progress_timeout;
        let Some(m) = self.member.as_mut() else {
            return;
        };
        if !m.timer_armed && m.core.pending_len() > 0 {
            m.timer_armed = true;
            m.delivered_at_arm = m.core.last_delivered();
            ctx.set_timer(timeout, TOKEN_PROGRESS);
        }
    }

    pub(crate) fn pump_deliveries(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        // Up to α blocks ride the EXECUTE/PERSIST stages concurrently
        // (α = 1 restores Algorithm 1's strictly sequential processing); a
        // decided reconfiguration drains the pipeline before installing.
        let max_open = self.config.ordering.window.max(1) as usize;
        loop {
            let batch = {
                let Some(m) = self.member.as_mut() else {
                    return;
                };
                if m.pending_reconfig.is_some() || m.reconfig_install.is_some() {
                    return;
                }
                if m.open.len() >= max_open {
                    return;
                }
                let Some(batch) = m.delivery_queue.pop_front() else {
                    return;
                };
                batch
            };
            self.start_block(batch, ctx);
        }
    }

    pub(crate) fn submit_to_core(&mut self, req: Request, ctx: &mut Ctx<'_, ChainMsg>) {
        let outs = {
            let Some(m) = self.member.as_mut() else {
                return;
            };
            m.core.submit(req)
        };
        self.handle_core_outputs(outs, ctx);
    }
}

impl<A: Application> Actor<ChainMsg> for ChainNode<A> {
    fn on_event(&mut self, event: Event<ChainMsg>, ctx: &mut Ctx<'_, ChainMsg>) {
        match event {
            Event::Start => {
                if let Some(at) = self.join_at {
                    ctx.set_timer(at, TOKEN_JOIN);
                }
                if let Some(at) = self.leave_at {
                    ctx.set_timer(at, TOKEN_LEAVE);
                }
                if let Some((at, _)) = self.exclude_at {
                    ctx.set_timer(at, TOKEN_EXCLUDE);
                }
            }
            Event::Timer { token: TOKEN_JOIN } => self.ask_to_join(ctx),
            Event::Timer { token: TOKEN_LEAVE } => self.ask_to_leave(ctx),
            Event::Timer {
                token: TOKEN_EXCLUDE,
            } => {
                if let Some((_, target)) = self.exclude_at {
                    self.submit_exclude_vote(target, ctx);
                }
            }
            Event::Timer {
                token: TOKEN_PROGRESS,
            } => {
                let outs = {
                    let Some(m) = self.member.as_mut() else {
                        return;
                    };
                    m.timer_armed = false;
                    if m.core.last_delivered() == m.delivered_at_arm && m.core.pending_len() > 0 {
                        m.core.on_progress_timeout()
                    } else {
                        Vec::new()
                    }
                };
                if outs.is_empty() {
                    self.arm_progress_timer(ctx);
                } else {
                    self.handle_core_outputs(outs, ctx);
                }
            }
            Event::Timer { .. } => {}
            Event::OpDone { token } => match token & KIND_MASK {
                KIND_HEADER => self.header_done(token & !KIND_MASK, ctx),
                KIND_VERIFY => self.on_verify_done(token, ctx),
                KIND_RECONFIG => self.finish_reconfig_install(ctx),
                KIND_SNAPSHOT => self.snapshot_write_done(token & !KIND_MASK),
                _ => {}
            },
            Event::Message { from, msg } => {
                ctx.charge(ctx.hw().cpu.message_overhead_ns);
                match msg {
                    ChainMsg::Smr(SmrMsg::Request(req)) => self.admit(req, ctx),
                    ChainMsg::Smr(inner) => {
                        let handled = {
                            let Some(m) = self.member.as_ref() else {
                                return;
                            };
                            if m.syncing {
                                None
                            } else {
                                (0..m.view.n()).find(|&r| self.node_of(&m.view, r) == Some(from))
                            }
                        };
                        let Some(sender) = handled else { return };
                        if let SmrMsg::Consensus(ConsensusMsg::Propose { value, .. }) = &inner {
                            ctx.charge(ctx.hw().cpu.hash_time(value.len()));
                        }
                        if matches!(inner, SmrMsg::Consensus(ConsensusMsg::Accept { .. })) {
                            ctx.charge(ctx.hw().cpu.verify_ns / 4);
                        }
                        let outs = {
                            let m = self.member.as_mut().expect("active");
                            m.core.on_message(sender, inner)
                        };
                        self.handle_core_outputs(outs, ctx);
                    }
                    ChainMsg::Persist {
                        block,
                        header_hash,
                        signature,
                    } => {
                        self.on_persist(from, block, header_hash, signature, ctx);
                    }
                    ChainMsg::StateReq { from_block } => {
                        self.serve_state_request(from, from_block, ctx);
                    }
                    ChainMsg::StateRep {
                        snapshot,
                        commit,
                        snapshot_anchor,
                        snapshot_dedup,
                        blocks,
                        modeled_size,
                        full,
                        digests,
                    } => {
                        self.on_state_reply(
                            from,
                            snapshot,
                            commit,
                            snapshot_anchor,
                            snapshot_dedup,
                            blocks,
                            modeled_size,
                            full,
                            digests,
                            ctx,
                        );
                    }
                    ChainMsg::JoinAsk { joiner } => self.on_join_ask(from, joiner, ctx),
                    ChainMsg::JoinVote {
                        vote,
                        op,
                        new_view_id,
                        current_view,
                    } => {
                        self.on_join_vote(vote, op, new_view_id, current_view, ctx);
                    }
                    ChainMsg::Welcome { view } => self.on_welcome(view, ctx),
                }
            }
            Event::Crash => {
                // Volatile state is lost. The durability engine decides what
                // the "disk" keeps: everything flushed under group commit,
                // the explicitly-synced prefix under λ-persistence, nothing
                // under ∞-persistence (§V-C — this is the ladder's whole
                // point, observable at recovery).
                let now = ctx.now();
                if let Some(m) = self.member.as_mut() {
                    m.ledger.log_mut().simulate_crash();
                    // A checkpoint snapshot whose device write was still in
                    // flight dies with the crash; fall back to the previous
                    // one if *its* write had completed by now.
                    let current_durable = match m.snapshot_inflight.take() {
                        None => true,
                        Some(at) => at != Time::MAX && now >= at,
                    };
                    if !current_durable {
                        m.snapshot = m
                            .snapshot_fallback
                            .take()
                            .filter(|&(_, at)| at != Time::MAX && now >= at)
                            .map(|(s, _)| s);
                    }
                    m.snapshot_fallback = None;
                }
            }
            Event::Recover => self.recover_from_ledger(ctx),
        }
    }
}
