//! A Tendermint-style replica model.
//!
//! Captures the structural cost sources the paper attributes to Tendermint
//! (§VII-a):
//!
//! * clients talk to one node; transactions propagate by **gossip** (each
//!   node forwards new transactions to every peer — per-transaction network
//!   cost instead of SmartChain's batched PROPOSE);
//! * a rotating proposer assembles a block each *height* and runs
//!   prevote/precommit rounds (n² small messages, like PBFT);
//! * each replica writes the block **twice** — once when it commits (before
//!   execution) and once after execution with the results;
//! * a `timeout_commit` pause between heights (Tendermint's default 1 s),
//!   which dominates client latency.

use smartchain_codec::Encode;
use smartchain_sim::metrics::ThroughputMeter;
#[cfg(test)]
use smartchain_sim::MILLI;
use smartchain_sim::{Actor, Ctx, Event, NodeId, Time, SECOND};
use smartchain_smr::app::Application;
use smartchain_smr::ordering::SmrEnvelope;
use smartchain_smr::types::{Reply, Request};
use std::collections::{HashMap, HashSet, VecDeque};

/// Wire messages of the Tendermint model.
#[derive(Clone, Debug)]
pub enum TmMsg {
    /// A transaction from a client (or a peer's gossip).
    Tx(Request),
    /// Gossip relay of a transaction.
    Gossip(Request),
    /// Proposer's block for a height.
    Proposal {
        /// Block height.
        height: u64,
        /// The proposed transactions.
        txs: Vec<Request>,
    },
    /// Prevote (phase 0) / precommit (phase 1) for a height.
    Vote {
        /// Block height.
        height: u64,
        /// 0 = prevote, 1 = precommit.
        phase: u8,
    },
    /// Reply to a client.
    Reply(Reply),
}

impl SmrEnvelope for TmMsg {
    fn from_smr(msg: smartchain_smr::ordering::SmrMsg) -> Self {
        match msg {
            smartchain_smr::ordering::SmrMsg::Request(r) => TmMsg::Tx(r),
            smartchain_smr::ordering::SmrMsg::Reply(r) => TmMsg::Reply(r),
            _ => unreachable!("clients only produce requests"),
        }
    }
    fn as_reply(&self) -> Option<&Reply> {
        match self {
            TmMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn envelope_size(&self) -> usize {
        self.wire_size()
    }
}

impl TmMsg {
    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            TmMsg::Tx(r) | TmMsg::Gossip(r) => 8 + r.encoded_len(),
            TmMsg::Proposal { txs, .. } => 64 + txs.iter().map(Request::encoded_len).sum::<usize>(),
            TmMsg::Vote { .. } => 120, // height + round + block id + signature
            TmMsg::Reply(r) => 8 + r.encoded_len(),
        }
    }
}

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct TmConfig {
    /// Maximum transactions per block.
    pub max_block: usize,
    /// Pause between committed heights (Tendermint `timeout_commit`).
    pub commit_interval: Time,
    /// Per-height protocol overhead beyond message transfer: proposer/vote
    /// timeouts and gossip batching waits (Tendermint's consensus timeouts).
    pub round_overhead: Time,
    /// Whether client signatures are verified on arrival.
    pub verify_signatures: bool,
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            max_block: 512,
            commit_interval: SECOND,
            round_overhead: 300 * 1_000_000, // 300 ms
            verify_signatures: true,
        }
    }
}

const TOKEN_NEXT_HEIGHT: u64 = 1;

/// One Tendermint-model replica.
pub struct TendermintNode<A: Application> {
    me: usize,
    peers: Vec<NodeId>,
    f: usize,
    config: TmConfig,
    app: A,
    mempool: VecDeque<Request>,
    seen: HashSet<(u64, u64)>,
    /// Which node first received each tx (it owes the client the reply).
    origin: HashMap<(u64, u64), bool>,
    height: u64,
    prevotes: HashMap<u64, HashSet<usize>>,
    precommits: HashMap<u64, HashSet<usize>>,
    proposal: HashMap<u64, Vec<Request>>,
    sent_prevote: HashSet<u64>,
    sent_precommit: HashSet<u64>,
    committed: HashSet<u64>,
    /// Set when this node is waiting out `timeout_commit`.
    pausing: bool,
    meter: ThroughputMeter,
}

impl<A: Application> TendermintNode<A> {
    /// Creates replica `me` of `peers.len()` nodes.
    pub fn new(me: usize, peers: Vec<NodeId>, app: A, config: TmConfig) -> TendermintNode<A> {
        let n = peers.len();
        TendermintNode {
            me,
            peers,
            f: (n - 1) / 3,
            config,
            app,
            mempool: VecDeque::new(),
            seen: HashSet::new(),
            origin: HashMap::new(),
            height: 1,
            prevotes: HashMap::new(),
            precommits: HashMap::new(),
            proposal: HashMap::new(),
            sent_prevote: HashSet::new(),
            sent_precommit: HashSet::new(),
            committed: HashSet::new(),
            pausing: false,
            meter: ThroughputMeter::new(1_000),
        }
    }

    /// Throughput meter.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Current block height.
    pub fn height(&self) -> u64 {
        self.height
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    fn proposer(&self, height: u64) -> usize {
        (height as usize) % self.n()
    }

    fn broadcast(&self, msg: &TmMsg, ctx: &mut Ctx<'_, TmMsg>) {
        for (r, &node) in self.peers.iter().enumerate() {
            if r != self.me {
                ctx.send(node, msg.clone(), msg.wire_size());
            }
        }
    }

    fn admit_tx(&mut self, tx: Request, gossip: bool, ctx: &mut Ctx<'_, TmMsg>) {
        if !self.seen.insert(tx.id()) {
            return;
        }
        if self.config.verify_signatures {
            // Mempool CheckTx runs on the (modeled) pool.
            let _ = ctx.pool_charge(ctx.hw().cpu.verify_ns, 1);
            if !tx.verify_signature() {
                return;
            }
        }
        if !gossip {
            self.origin.insert(tx.id(), true);
        }
        // Gossip the transaction to all peers (per-tx network cost).
        let relay = TmMsg::Gossip(tx.clone());
        self.broadcast(&relay, ctx);
        self.mempool.push_back(tx);
        self.maybe_propose(ctx);
    }

    fn maybe_propose(&mut self, ctx: &mut Ctx<'_, TmMsg>) {
        if self.proposer(self.height) != self.me
            || self.pausing
            || self.mempool.is_empty()
            || self.proposal.contains_key(&self.height)
        {
            return;
        }
        let take = self.mempool.len().min(self.config.max_block);
        let txs: Vec<Request> = self.mempool.iter().take(take).cloned().collect();
        self.proposal.insert(self.height, txs.clone());
        let msg = TmMsg::Proposal {
            height: self.height,
            txs,
        };
        ctx.charge(ctx.hw().cpu.sign_ns);
        self.broadcast(&msg, ctx);
        self.on_proposal_ready(self.height, ctx);
    }

    fn on_proposal_ready(&mut self, height: u64, ctx: &mut Ctx<'_, TmMsg>) {
        if height != self.height || !self.sent_prevote.insert(height) {
            return;
        }
        ctx.charge(ctx.hw().cpu.sign_ns);
        let msg = TmMsg::Vote { height, phase: 0 };
        self.broadcast(&msg, ctx);
        self.record_vote(self.me, height, 0, ctx);
    }

    fn record_vote(&mut self, from: usize, height: u64, phase: u8, ctx: &mut Ctx<'_, TmMsg>) {
        ctx.charge(ctx.hw().cpu.verify_ns / 4);
        let quorum = self.quorum();
        let set = if phase == 0 {
            self.prevotes.entry(height).or_default()
        } else {
            self.precommits.entry(height).or_default()
        };
        set.insert(from);
        let count = set.len();
        if phase == 0 && count >= quorum && !self.sent_precommit.contains(&height) {
            self.sent_precommit.insert(height);
            ctx.charge(ctx.hw().cpu.sign_ns);
            let msg = TmMsg::Vote { height, phase: 1 };
            self.broadcast(&msg, ctx);
            self.record_vote(self.me, height, 1, ctx);
        } else if phase == 1 && count >= quorum {
            self.try_commit(height, ctx);
        }
    }

    fn try_commit(&mut self, height: u64, ctx: &mut Ctx<'_, TmMsg>) {
        if height != self.height || self.committed.contains(&height) {
            return;
        }
        let Some(txs) = self.proposal.get(&height).cloned() else {
            return; // block not yet received
        };
        self.committed.insert(height);
        // Consensus-timeout overhead of the round (charged once per height).
        ctx.charge(self.config.round_overhead);
        let block_bytes: usize = 64 + txs.iter().map(Request::encoded_len).sum::<usize>();
        // First write: the committed block, synchronously (WAL + block).
        ctx.disk_write(block_bytes, true, 0);
        ctx.charge(ctx.hw().cpu.disk_stall_placeholder());
        // Execute.
        ctx.charge(ctx.hw().cpu.execute_tx_ns * txs.len() as Time);
        let mut replies = Vec::new();
        for tx in &txs {
            let result = self.app.execute(tx);
            self.mempool.retain(|p| p.id() != tx.id());
            if self.origin.remove(&tx.id()).is_some() {
                replies.push(Reply {
                    client: tx.client,
                    seq: tx.seq,
                    result,
                    replica: self.me,
                });
            }
        }
        self.meter.record(ctx.now(), txs.len() as u64);
        // Second write: results/state, synchronously again.
        ctx.disk_write(block_bytes / 2 + 64, true, 0);
        for reply in replies {
            let node = smartchain_smr::actor::client_node(reply.client);
            let msg = TmMsg::Reply(reply);
            let size = msg.wire_size();
            ctx.send(node, msg, size);
        }
        // Advance after timeout_commit.
        self.pausing = true;
        ctx.set_timer(self.config.commit_interval, TOKEN_NEXT_HEIGHT);
    }
}

/// Cost-model helper: Tendermint models do not stall the CPU on disk — the
/// disk model already charges the device; this hook exists so the call site
/// reads naturally and future calibration can add CPU overhead.
trait DiskStall {
    fn disk_stall_placeholder(&self) -> Time;
}

impl DiskStall for smartchain_sim::hw::CpuModel {
    fn disk_stall_placeholder(&self) -> Time {
        0
    }
}

impl<A: Application> Actor<TmMsg> for TendermintNode<A> {
    fn on_event(&mut self, event: Event<TmMsg>, ctx: &mut Ctx<'_, TmMsg>) {
        match event {
            Event::Start => {}
            Event::Timer {
                token: TOKEN_NEXT_HEIGHT,
            } => {
                self.pausing = false;
                self.height += 1;
                // Old-height bookkeeping can be dropped.
                let h = self.height;
                self.prevotes.retain(|&k, _| k >= h);
                self.precommits.retain(|&k, _| k >= h);
                self.proposal.retain(|&k, _| k >= h);
                self.maybe_propose(ctx);
                // A proposal for this height may already be buffered.
                self.on_proposal_ready(self.height, ctx);
                let precommitted = self
                    .precommits
                    .get(&self.height)
                    .is_some_and(|s| s.len() >= self.quorum());
                if precommitted {
                    self.try_commit(self.height, ctx);
                }
            }
            Event::Timer { .. } => {}
            Event::Message { from, msg } => {
                ctx.charge(ctx.hw().cpu.message_overhead_ns);
                let from_replica = self.peers.iter().position(|&p| p == from);
                match msg {
                    TmMsg::Tx(tx) => self.admit_tx(tx, false, ctx),
                    TmMsg::Gossip(tx) => {
                        // Don't re-gossip what a peer sent us (they already
                        // flooded it); just pool it.
                        if self.seen.insert(tx.id()) {
                            if self.config.verify_signatures {
                                let _ = ctx.pool_charge(ctx.hw().cpu.verify_ns, 1);
                                if !tx.verify_signature() {
                                    return;
                                }
                            }
                            self.mempool.push_back(tx);
                            self.maybe_propose(ctx);
                        }
                    }
                    TmMsg::Proposal { height, txs } => {
                        if from_replica == Some(self.proposer(height)) {
                            ctx.charge(
                                ctx.hw()
                                    .cpu
                                    .hash_time(txs.iter().map(Request::encoded_len).sum::<usize>()),
                            );
                            self.proposal.entry(height).or_insert(txs);
                            self.on_proposal_ready(height, ctx);
                        }
                    }
                    TmMsg::Vote { height, phase } => {
                        if let Some(r) = from_replica {
                            self.record_vote(r, height, phase, ctx);
                        }
                    }
                    TmMsg::Reply(_) => {}
                }
            }
            Event::OpDone { .. } | Event::Crash | Event::Recover => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_sim::hw::HwSpec;
    use smartchain_sim::Cluster;
    use smartchain_smr::app::CounterApp;
    use smartchain_smr::client::{ClientActor, ClientConfig, CounterFactory};

    fn build(n: usize, clients: u32, per_client: u64, config: TmConfig) -> Cluster<TmMsg> {
        let peers: Vec<NodeId> = (0..n).collect();
        let mut actors: Vec<Box<dyn Actor<TmMsg>>> = Vec::new();
        for i in 0..n {
            actors.push(Box::new(TendermintNode::new(
                i,
                peers.clone(),
                CounterApp::new(),
                config,
            )));
        }
        // Tendermint clients talk to ONE node and need a single reply.
        actors.push(Box::new(ClientActor::<TmMsg>::new(
            n,
            vec![0],
            0, // f = 0 -> one matching reply suffices
            ClientConfig {
                logical_clients: clients,
                requests_per_client: Some(per_client),
            },
            Box::new(CounterFactory::new(true)),
        )));
        Cluster::new(actors, HwSpec::test_fast(), 11)
    }

    #[test]
    fn commits_transactions_across_heights() {
        let config = TmConfig {
            commit_interval: 10 * MILLI,
            round_overhead: 0,
            ..TmConfig::default()
        };
        let mut cluster = build(4, 3, 5, config);
        cluster.run_until(10 * SECOND);
        let node0 = cluster
            .actor(0)
            .as_any()
            .downcast_ref::<TendermintNode<CounterApp>>()
            .unwrap();
        assert_eq!(node0.meter().total(), 15, "all txs committed");
        assert!(node0.height() > 1, "heights advanced");
        // All replicas committed the same count.
        for i in 1..4 {
            let node = cluster
                .actor(i)
                .as_any()
                .downcast_ref::<TendermintNode<CounterApp>>()
                .unwrap();
            assert_eq!(node.meter().total(), 15, "replica {i}");
        }
    }

    #[test]
    fn commit_interval_caps_throughput() {
        // With a 100ms interval + 100ms round overhead and 1 client
        // (1 outstanding tx), roughly 2s / 0.2s = ~10 txs complete.
        let config = TmConfig {
            commit_interval: 100 * MILLI,
            round_overhead: 100 * MILLI,
            ..TmConfig::default()
        };
        let mut cluster = build(4, 1, 1000, config);
        cluster.run_until(2 * SECOND);
        let node0 = cluster
            .actor(0)
            .as_any()
            .downcast_ref::<TendermintNode<CounterApp>>()
            .unwrap();
        let total = node0.meter().total();
        assert!(
            (5..=20).contains(&total),
            "expected ~10 txs in 2s, got {total}"
        );
    }

    #[test]
    fn double_write_visible_in_disk_stats() {
        let config = TmConfig {
            commit_interval: 10 * MILLI,
            round_overhead: 0,
            ..TmConfig::default()
        };
        let mut cluster = build(4, 1, 5, config);
        cluster.run_until(5 * SECOND);
        // Two synchronous writes per committed block on every replica.
        for i in 0..4 {
            let syncs = cluster.sim_ref().disk_syncs(i);
            assert!(syncs >= 10, "replica {i}: {syncs} syncs for 5 blocks");
        }
    }
}
