//! Simulation actor embedding the ordering core: charges virtual hardware
//! costs, applies the signature-verification and persistence policies under
//! test, executes the application, and replies to clients.
//!
//! The policy knobs mirror the paper's experimental dimensions:
//!
//! * [`SigMode`] — no signatures / sequential verification (inside the state
//!   machine) / parallel verification (worker pool) — Table I columns;
//! * [`AppLedger`] — the *naive* SMaRtCoin design where the application
//!   itself writes a ledger synchronously or asynchronously — Table I rows;
//! * [`DurabilityMode`] — the BFT-SMaRt durability layer with coalesced
//!   group writes (Dura-SMaRt), the right-most Table I column.

use crate::app::Application;
use crate::ordering::{CoreOutput, OrderingConfig, OrderingCore, SmrMsg};
use crate::types::{Reply, Request};
use smartchain_codec::Encode;
use smartchain_consensus::messages::ConsensusMsg;
use smartchain_consensus::{ReplicaId, View};
use smartchain_crypto::keys::SecretKey;
use smartchain_sim::metrics::ThroughputMeter;
use smartchain_sim::{Actor, Ctx, Event, NodeId, Time, MILLI};
use std::collections::HashMap;

/// How client signatures are checked (Table I columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigMode {
    /// Requests carry no signatures.
    None,
    /// Verified inside the sequential state-machine lane.
    Sequential,
    /// Verified by the worker pool (BFT-SMaRt's verification pool).
    Parallel,
}

/// Application-level ledger writes (the naive SMaRtCoin design, §IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppLedger {
    /// The application keeps no ledger.
    None,
    /// Ledger block written synchronously before replying.
    Sync,
    /// Ledger block written asynchronously (buffered).
    Async,
}

/// SMR-layer durability (§II-C2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Nothing persisted by the SMR layer.
    None,
    /// Dura-SMaRt: decided batches logged with coalesced synchronous writes;
    /// replies gated on durability.
    DuraSmart,
}

/// Replica policy configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaConfig {
    /// Signature checking policy.
    pub sig_mode: SigMode,
    /// Application-level ledger policy.
    pub app_ledger: AppLedger,
    /// SMR durability policy.
    pub durability: DurabilityMode,
    /// Ordering (batching) parameters.
    pub ordering: OrderingConfig,
    /// Leader-change timeout.
    pub progress_timeout: Time,
    /// Per-transaction execution cost charged to the sequential lane.
    pub execute_ns: Time,
    /// Per-transaction app-level ledger serialization cost (only charged
    /// when `app_ledger != None`); models the naive design's bookkeeping.
    pub app_ledger_ns: Time,
    /// Reply payload size in bytes (MINT ≈ 270, SPEND ≈ 380 in the paper).
    pub reply_size: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            sig_mode: SigMode::None,
            app_ledger: AppLedger::None,
            durability: DurabilityMode::None,
            ordering: OrderingConfig::default(),
            progress_timeout: 500 * MILLI,
            execute_ns: 6_000,
            app_ledger_ns: 0,
            reply_size: 380,
        }
    }
}

/// Derives the hosting simulation node of a logical client id.
///
/// Client actors host many logical clients; the convention is
/// `client = (node << 20) | slot`.
pub fn client_node(client: u64) -> NodeId {
    (client >> 20) as usize
}

/// Builds a logical client id hosted on `node`.
pub fn client_id(node: NodeId, slot: u32) -> u64 {
    ((node as u64) << 20) | slot as u64
}

const TOKEN_PROGRESS: u64 = 1;
const TOKEN_KIND_SHIFT: u64 = 56;
const KIND_VERIFY: u64 = 1 << TOKEN_KIND_SHIFT;
const KIND_DISK: u64 = 2 << TOKEN_KIND_SHIFT;

/// The replica simulation actor.
pub struct ReplicaActor<A: Application> {
    core: OrderingCore,
    app: A,
    config: ReplicaConfig,
    /// Maps replica ids to simulation node ids (identity by default).
    peers: Vec<NodeId>,
    next_token: u64,
    /// Requests whose pool verification is in flight.
    verifying: HashMap<u64, Request>,
    /// Replies gated on a disk completion.
    gated_replies: HashMap<u64, Vec<Reply>>,
    /// Dura-SMaRt pipeline: queued (bytes, replies) awaiting the next flush.
    wal_queue: Vec<(usize, Vec<Reply>)>,
    wal_in_flight: bool,
    /// Progress-timer bookkeeping.
    timer_armed: bool,
    delivered_at_arm: u64,
    /// Throughput measurement (counts delivered transactions).
    meter: ThroughputMeter,
}

impl<A: Application> ReplicaActor<A> {
    /// Creates a replica actor. `peers[r]` is the sim node of replica `r`.
    pub fn new(
        me: ReplicaId,
        view: View,
        secret: SecretKey,
        app: A,
        config: ReplicaConfig,
        peers: Vec<NodeId>,
    ) -> ReplicaActor<A> {
        ReplicaActor {
            core: OrderingCore::new(me, view, secret, config.ordering, 0),
            app,
            config,
            peers,
            next_token: 10,
            verifying: HashMap::new(),
            gated_replies: HashMap::new(),
            wal_queue: Vec::new(),
            wal_in_flight: false,
            timer_armed: false,
            delivered_at_arm: 0,
            meter: ThroughputMeter::new(10_000),
        }
    }

    /// Throughput meter (read after a run).
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// The embedded ordering core (inspection in tests).
    pub fn core(&self) -> &OrderingCore {
        &self.core
    }

    /// The application (inspection in tests).
    pub fn app(&self) -> &A {
        &self.app
    }

    fn fresh_token(&mut self, kind: u64) -> u64 {
        self.next_token += 1;
        kind | self.next_token
    }

    fn handle_outputs(&mut self, outputs: Vec<CoreOutput>, ctx: &mut Ctx<'_, SmrMsg>) {
        for out in outputs {
            match out {
                CoreOutput::Broadcast(m) => {
                    // Sending an ACCEPT means producing a signature.
                    if matches!(m, SmrMsg::Consensus(ConsensusMsg::Accept { .. })) {
                        ctx.charge(ctx.hw().cpu.sign_ns);
                    }
                    let size = m.wire_size();
                    for r in 0..self.peers.len() {
                        if r != self.core.id() {
                            ctx.send(self.peers[r], m.clone(), size);
                        }
                    }
                }
                CoreOutput::Send(to, m) => {
                    let size = m.wire_size();
                    ctx.send(self.peers[to], m, size);
                }
                CoreOutput::Deliver(batch) => self.deliver(batch, ctx),
                CoreOutput::NeedStateTransfer { .. } => {
                    // The plain SMR actor has no state-transfer protocol; the
                    // blockchain layer (smartchain-core) provides one.
                }
            }
        }
        self.arm_progress_timer(ctx);
    }

    fn arm_progress_timer(&mut self, ctx: &mut Ctx<'_, SmrMsg>) {
        if !self.timer_armed && self.core.pending_len() > 0 {
            self.timer_armed = true;
            self.delivered_at_arm = self.core.last_delivered();
            ctx.set_timer(self.config.progress_timeout, TOKEN_PROGRESS);
        }
    }

    fn deliver(&mut self, batch: crate::ordering::OrderedBatch, ctx: &mut Ctx<'_, SmrMsg>) {
        let count = batch.requests.len();
        if count == 0 {
            return;
        }
        self.meter.record(ctx.now(), count as u64);
        // Execute all transactions on the sequential lane; in Sequential
        // mode the client signatures are verified here, inside the state
        // machine (the paper's "seq. signature verification" column).
        let mut exec_cost = self.config.execute_ns * count as Time;
        if self.config.sig_mode == SigMode::Sequential {
            exec_cost += ctx.hw().cpu.verify_ns * count as Time;
        }
        if self.config.app_ledger != AppLedger::None {
            exec_cost += self.config.app_ledger_ns * count as Time;
        }
        ctx.charge(exec_cost);
        let mut replies = Vec::with_capacity(count);
        let mut block_bytes = 64; // header
        for req in &batch.requests {
            if self.config.sig_mode == SigMode::Sequential && !req.verify_signature() {
                continue; // forged transaction dropped at execution
            }
            let mut result = self.app.execute(req);
            result.resize(self.config.reply_size.min(result.len().max(8)), 0);
            block_bytes += req.encoded_len() + result.len();
            replies.push(Reply {
                client: req.client,
                seq: req.seq,
                result,
                replica: self.core.id(),
            });
        }
        // Hash the block contents (app ledger) or batch (durability layer).
        ctx.charge(ctx.hw().cpu.hash_time(block_bytes));
        match (self.config.app_ledger, self.config.durability) {
            (AppLedger::Sync, _) => {
                let token = self.fresh_token(KIND_DISK);
                ctx.disk_write(block_bytes, true, token);
                self.gated_replies.insert(token, replies);
            }
            (AppLedger::Async, _) => {
                ctx.disk_write(block_bytes, false, 0);
                self.send_replies(replies, ctx);
            }
            (AppLedger::None, DurabilityMode::DuraSmart) => {
                self.wal_queue.push((block_bytes, replies));
                self.maybe_flush_wal(ctx);
            }
            (AppLedger::None, DurabilityMode::None) => {
                self.send_replies(replies, ctx);
            }
        }
    }

    fn maybe_flush_wal(&mut self, ctx: &mut Ctx<'_, SmrMsg>) {
        if self.wal_in_flight || self.wal_queue.is_empty() {
            return;
        }
        // One synchronous write covers every queued batch (group commit).
        let total: usize = self.wal_queue.iter().map(|(b, _)| *b).sum();
        let replies: Vec<Reply> = self.wal_queue.drain(..).flat_map(|(_, r)| r).collect();
        let token = self.fresh_token(KIND_DISK);
        ctx.disk_write(total, true, token);
        self.gated_replies.insert(token, replies);
        self.wal_in_flight = true;
    }

    fn send_replies(&mut self, replies: Vec<Reply>, ctx: &mut Ctx<'_, SmrMsg>) {
        for reply in replies {
            let node = client_node(reply.client);
            let msg = SmrMsg::Reply(reply);
            let size = msg.wire_size();
            ctx.send(node, msg, size);
        }
    }

    fn admit(&mut self, request: Request, ctx: &mut Ctx<'_, SmrMsg>) {
        match self.config.sig_mode {
            SigMode::None => {
                let outs = self.core.submit(request);
                self.handle_outputs(outs, ctx);
            }
            SigMode::Sequential => {
                // Verification happens at execution time (inside the state
                // machine); admission just queues the request.
                let outs = self.core.submit(request);
                self.handle_outputs(outs, ctx);
            }
            SigMode::Parallel => {
                ctx.charge(ctx.hw().cpu.pool_dispatch_ns);
                let delay = ctx.pool_charge(ctx.hw().cpu.verify_ns, 1);
                let token = self.fresh_token(KIND_VERIFY);
                self.verifying.insert(token, request);
                ctx.op_after(delay, token);
            }
        }
    }
}

impl<A: Application> Actor<SmrMsg> for ReplicaActor<A> {
    fn on_event(&mut self, event: Event<SmrMsg>, ctx: &mut Ctx<'_, SmrMsg>) {
        match event {
            Event::Start => {}
            Event::Message { from, msg } => {
                ctx.charge(ctx.hw().cpu.message_overhead_ns);
                match msg {
                    SmrMsg::Request(req) => self.admit(req, ctx),
                    SmrMsg::Consensus(cmsg) => {
                        // Charge crypto costs of the consensus step.
                        match &cmsg {
                            ConsensusMsg::Propose { value, .. } => {
                                ctx.charge(ctx.hw().cpu.hash_time(value.len()));
                            }
                            ConsensusMsg::Accept { .. } => {
                                ctx.charge(ctx.hw().cpu.verify_ns / 4);
                            }
                            _ => {}
                        }
                        let from_replica = self.peers.iter().position(|&p| p == from);
                        if let Some(r) = from_replica {
                            let outs = self.core.on_message(r, SmrMsg::Consensus(cmsg));
                            self.handle_outputs(outs, ctx);
                        }
                    }
                    other @ (SmrMsg::Sync(_)
                    | SmrMsg::InstanceFetch { .. }
                    | SmrMsg::InstanceRep { .. }) => {
                        let from_replica = self.peers.iter().position(|&p| p == from);
                        if let Some(r) = from_replica {
                            let outs = self.core.on_message(r, other);
                            self.handle_outputs(outs, ctx);
                        }
                    }
                    SmrMsg::Reply(_) => {}
                    // Runtime state transfer and checkpoint certification
                    // are metal-deployment concerns; simulated replicas
                    // share fate within the window and use `ChainMsg`-level
                    // transfer instead.
                    SmrMsg::StateReq { .. }
                    | SmrMsg::StateRep { .. }
                    | SmrMsg::CkptShare { .. } => {}
                }
            }
            Event::Timer {
                token: TOKEN_PROGRESS,
            } => {
                self.timer_armed = false;
                if self.core.last_delivered() == self.delivered_at_arm
                    && self.core.pending_len() > 0
                {
                    let outs = self.core.on_progress_timeout();
                    self.handle_outputs(outs, ctx);
                } else {
                    self.arm_progress_timer(ctx);
                }
            }
            Event::Timer { .. } => {}
            Event::OpDone { token } => match token >> TOKEN_KIND_SHIFT {
                k if k == (KIND_VERIFY >> TOKEN_KIND_SHIFT) => {
                    if let Some(req) = self.verifying.remove(&token) {
                        if req.verify_signature() {
                            let outs = self.core.submit(req);
                            self.handle_outputs(outs, ctx);
                        }
                    }
                }
                k if k == (KIND_DISK >> TOKEN_KIND_SHIFT) => {
                    if let Some(replies) = self.gated_replies.remove(&token) {
                        self.send_replies(replies, ctx);
                    }
                    if self.wal_in_flight {
                        self.wal_in_flight = false;
                        self.maybe_flush_wal(ctx);
                    }
                }
                _ => {}
            },
            Event::Crash => {
                // Volatile state is lost; the plain SMR actor restarts from
                // scratch on recovery (no state transfer at this layer).
            }
            Event::Recover => {
                let view = self.core.view().clone();
                // NOTE: consensus keys survive here; the blockchain layer
                // replaces them per view (forgetting protocol).
                self.app.reset();
                self.verifying.clear();
                self.gated_replies.clear();
                self.wal_queue.clear();
                self.wal_in_flight = false;
                self.timer_armed = false;
                let _ = view;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Replica ids double as vector indices throughout these tests.
    #![allow(clippy::needless_range_loop)]
    use super::*;
    use crate::app::CounterApp;
    use crate::client::{ClientActor, ClientConfig, CounterFactory};
    use smartchain_crypto::keys::Backend;
    use smartchain_sim::hw::HwSpec;
    use smartchain_sim::{Cluster, SECOND};

    fn build_cluster(
        n: usize,
        clients: usize,
        per_client: u64,
        config: ReplicaConfig,
    ) -> Cluster<SmrMsg> {
        let secrets: Vec<SecretKey> = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 70; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        let peers: Vec<NodeId> = (0..n).collect();
        let mut actors: Vec<Box<dyn Actor<SmrMsg>>> = Vec::new();
        for i in 0..n {
            actors.push(Box::new(ReplicaActor::new(
                i,
                view.clone(),
                secrets[i].clone(),
                CounterApp::new(),
                config,
                peers.clone(),
            )));
        }
        for c in 0..clients {
            let node = n + c;
            actors.push(Box::new(ClientActor::new(
                node,
                peers.clone(),
                view.f(),
                ClientConfig {
                    logical_clients: 2,
                    requests_per_client: Some(per_client),
                },
                Box::new(CounterFactory::new(false)),
            )));
        }
        Cluster::new(actors, HwSpec::test_fast(), 42)
    }

    fn replica(cluster: &mut Cluster<SmrMsg>, id: usize) -> &ReplicaActor<CounterApp> {
        cluster
            .actor(id)
            .as_any()
            .downcast_ref::<ReplicaActor<CounterApp>>()
            .expect("replica actor")
    }

    #[test]
    fn cluster_processes_all_requests() {
        let mut cluster = build_cluster(4, 2, 25, ReplicaConfig::default());
        cluster.run_until(30 * SECOND);
        let r0 = replica(&mut cluster, 0);
        // 2 client actors x 2 logical clients x 25 requests.
        assert_eq!(r0.meter().total(), 100);
        assert!(r0.core().last_delivered() > 0);
    }

    #[test]
    fn all_replicas_agree_on_totals() {
        let mut cluster = build_cluster(4, 2, 20, ReplicaConfig::default());
        cluster.run_until(30 * SECOND);
        let totals: Vec<u64> = (0..4)
            .map(|i| replica(&mut cluster, i).meter().total())
            .collect();
        assert!(totals.iter().all(|&t| t == totals[0]), "{totals:?}");
    }

    #[test]
    fn sequential_signatures_verified_and_accepted() {
        let config = ReplicaConfig {
            sig_mode: SigMode::Sequential,
            ..ReplicaConfig::default()
        };
        let secrets: Vec<SecretKey> = (0..4)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 70; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        let peers: Vec<NodeId> = (0..4).collect();
        let mut actors: Vec<Box<dyn Actor<SmrMsg>>> = Vec::new();
        for i in 0..4 {
            actors.push(Box::new(ReplicaActor::new(
                i,
                view.clone(),
                secrets[i].clone(),
                CounterApp::new(),
                config,
                peers.clone(),
            )));
        }
        actors.push(Box::new(ClientActor::new(
            4,
            peers.clone(),
            view.f(),
            ClientConfig {
                logical_clients: 1,
                requests_per_client: Some(10),
            },
            Box::new(CounterFactory::new(true)), // signed requests
        )));
        let mut cluster = Cluster::new(actors, HwSpec::test_fast(), 7);
        cluster.run_until(30 * SECOND);
        let r0 = replica(&mut cluster, 0);
        assert_eq!(r0.meter().total(), 10);
    }

    #[test]
    fn parallel_signatures_also_complete() {
        let config = ReplicaConfig {
            sig_mode: SigMode::Parallel,
            ..ReplicaConfig::default()
        };
        let secrets: Vec<SecretKey> = (0..4)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 70; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        let peers: Vec<NodeId> = (0..4).collect();
        let mut actors: Vec<Box<dyn Actor<SmrMsg>>> = Vec::new();
        for i in 0..4 {
            actors.push(Box::new(ReplicaActor::new(
                i,
                view.clone(),
                secrets[i].clone(),
                CounterApp::new(),
                config,
                peers.clone(),
            )));
        }
        actors.push(Box::new(ClientActor::new(
            4,
            peers,
            view.f(),
            ClientConfig {
                logical_clients: 4,
                requests_per_client: Some(5),
            },
            Box::new(CounterFactory::new(true)),
        )));
        let mut cluster = Cluster::new(actors, HwSpec::test_fast(), 7);
        cluster.run_until(30 * SECOND);
        let r0 = replica(&mut cluster, 0);
        assert_eq!(r0.meter().total(), 20);
    }

    #[test]
    fn dura_smart_gates_replies_on_disk() {
        let config = ReplicaConfig {
            durability: DurabilityMode::DuraSmart,
            ..ReplicaConfig::default()
        };
        let mut cluster = build_cluster(4, 1, 10, config);
        cluster.run_until(30 * SECOND);
        // All requests complete (replies released by disk completions) and
        // every replica issued at least one synchronous write.
        let r0 = replica(&mut cluster, 0);
        assert_eq!(r0.meter().total(), 20);
        for i in 0..4 {
            assert!(
                cluster.sim_ref().disk_syncs(i) > 0,
                "replica {i} never synced"
            );
        }
    }

    #[test]
    fn leader_crash_recovers_liveness() {
        let mut cluster = build_cluster(4, 1, 30, ReplicaConfig::default());
        cluster.sim().crash(0, MILLI);
        cluster.run_until(60 * SECOND);
        let r1 = replica(&mut cluster, 1);
        assert_eq!(
            r1.meter().total(),
            60,
            "progress must resume after leader change"
        );
        assert!(
            r1.core().regency() >= 1,
            "a leader change must have happened"
        );
    }
}
