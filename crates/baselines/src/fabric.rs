//! A Hyperledger-Fabric-style execute-order-validate pipeline model.
//!
//! Fabric's transaction flow (§VII-a / the Fabric paper):
//!
//! 1. the client sends the transaction to **endorsing peers**, which
//!    *execute* it speculatively and return a signed endorsement;
//! 2. the client assembles the endorsements and submits the enveloped
//!    transaction to the **ordering service**, which batches transactions
//!    into blocks (here: a BFT ordering round among orderers);
//! 3. every peer then runs the **validation phase**: verify the client
//!    signature and each endorsement signature, run the MVCC read-set check,
//!    and finally append the block to the ledger (synchronous write).
//!
//! The per-transaction cost is therefore several signature operations and an
//! extra round trip *before* ordering even starts — the structural reason the
//! paper measures Fabric at ~33× below SMARTCHAIN under maximum durability.
//!
//! The model folds the client-side endorsement assembly into the peer actors
//! (the simulated client sends its transaction once; peer 0 acts as the
//! submitting gateway) so the standard closed-loop client actor drives it.

use smartchain_crypto::keys::Signature;
use smartchain_sim::metrics::ThroughputMeter;
use smartchain_sim::{Actor, Ctx, Event, NodeId, Time, MILLI};
use smartchain_smr::app::Application;
use smartchain_smr::ordering::SmrEnvelope;
use smartchain_smr::types::{Reply, Request};
use std::collections::{HashMap, HashSet, VecDeque};

/// Wire messages of the Fabric model.
#[derive(Clone, Debug)]
pub enum FabMsg {
    /// Client transaction arriving at the gateway peer.
    Submit(Request),
    /// Gateway -> endorser: please endorse.
    EndorseReq(Request),
    /// Endorser -> gateway: signed endorsement.
    EndorseRep {
        /// The endorsed transaction id.
        tx: (u64, u64),
        /// Which endorser signed.
        endorser: usize,
    },
    /// Gateway -> orderers: enveloped transaction with endorsements.
    Envelope(Request),
    /// Ordering round among orderers (model: single round of echoes).
    OrderEcho {
        /// Block sequence number.
        block: u64,
    },
    /// Orderer -> peers: the ordered block.
    Block {
        /// Block sequence number.
        block: u64,
        /// Ordered transactions.
        txs: Vec<Request>,
    },
    /// Reply to a client.
    Reply(Reply),
}

impl SmrEnvelope for FabMsg {
    fn from_smr(msg: smartchain_smr::ordering::SmrMsg) -> Self {
        match msg {
            smartchain_smr::ordering::SmrMsg::Request(r) => FabMsg::Submit(r),
            smartchain_smr::ordering::SmrMsg::Reply(r) => FabMsg::Reply(r),
            _ => unreachable!("clients only produce requests"),
        }
    }
    fn as_reply(&self) -> Option<&Reply> {
        match self {
            FabMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn envelope_size(&self) -> usize {
        self.wire_size()
    }
}

impl FabMsg {
    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            FabMsg::Submit(r) | FabMsg::EndorseReq(r) => 8 + r.wire_size(),
            FabMsg::EndorseRep { .. } => 8 + 16 + Signature::WIRE_LEN,
            // Envelopes carry the tx plus `endorsements` signatures.
            FabMsg::Envelope(r) => 8 + r.wire_size() + 2 * ENDORSEMENT_BYTES,
            FabMsg::OrderEcho { .. } => 48,
            FabMsg::Block { txs, .. } => {
                64 + txs
                    .iter()
                    .map(|t| t.wire_size() + 2 * ENDORSEMENT_BYTES)
                    .sum::<usize>()
            }
            FabMsg::Reply(r) => 8 + r.wire_size(),
        }
    }
}

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabConfig {
    /// Endorsements required per transaction (a typical policy: 2).
    pub endorsements: usize,
    /// Maximum transactions per ordered block.
    pub max_block: usize,
    /// Block cut timeout (Fabric's `BatchTimeout`, default 2s; deployments
    /// tune it down — we default to 500ms as in the BFT-orderer paper).
    pub batch_timeout: Time,
    /// Extra per-transaction validation cost (VSCC policy evaluation &
    /// MVCC bookkeeping beyond raw signature verification).
    pub vscc_overhead_ns: Time,
}

impl Default for FabConfig {
    fn default() -> Self {
        FabConfig {
            endorsements: 2,
            max_block: 512,
            batch_timeout: 500 * MILLI,
            // VSCC policy evaluation + MVCC + state-DB writes per tx: the
            // dominant Fabric commit-path cost on the paper's testbed.
            vscc_overhead_ns: 2_400_000,
        }
    }
}

const TOKEN_BATCH: u64 = 1;

/// Wire bytes of one endorsement: the endorser id and its signature.
const ENDORSEMENT_BYTES: usize = 8 + Signature::WIRE_LEN;

/// One Fabric-model node (acts as peer + endorser; node 0 also as gateway
/// and lead orderer).
pub struct FabricNode<A: Application> {
    me: usize,
    peers: Vec<NodeId>,
    config: FabConfig,
    app: A,
    /// Gateway state: endorsement tallies per in-flight transaction.
    endorsing: HashMap<(u64, u64), (Request, HashSet<usize>)>,
    /// Orderer state (node 0): queued envelopes and block sequence.
    order_queue: VecDeque<Request>,
    next_block: u64,
    batch_timer_armed: bool,
    /// Peer state: validated ledger height and origin tracking.
    origins: HashSet<(u64, u64)>,
    meter: ThroughputMeter,
    committed_blocks: u64,
}

impl<A: Application> FabricNode<A> {
    /// Creates node `me` of the `peers` organization.
    pub fn new(me: usize, peers: Vec<NodeId>, app: A, config: FabConfig) -> FabricNode<A> {
        FabricNode {
            me,
            peers,
            config,
            app,
            endorsing: HashMap::new(),
            order_queue: VecDeque::new(),
            next_block: 1,
            batch_timer_armed: false,
            origins: HashSet::new(),
            meter: ThroughputMeter::new(1_000),
            committed_blocks: 0,
        }
    }

    /// Throughput meter.
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Blocks committed by this peer.
    pub fn committed_blocks(&self) -> u64 {
        self.committed_blocks
    }

    fn is_gateway(&self) -> bool {
        self.me == 0
    }

    fn cut_block(&mut self, ctx: &mut Ctx<'_, FabMsg>) {
        if self.order_queue.is_empty() {
            return;
        }
        let take = self.order_queue.len().min(self.config.max_block);
        let txs: Vec<Request> = self.order_queue.drain(..take).collect();
        let block = self.next_block;
        self.next_block += 1;
        // Model the BFT ordering round among orderers: an all-to-all echo of
        // the block hash (charged as messages to every peer) plus signing.
        ctx.charge(ctx.hw().cpu.sign_ns);
        let echo = FabMsg::OrderEcho { block };
        for (r, &node) in self.peers.iter().enumerate() {
            if r != self.me {
                ctx.send(node, echo.clone(), echo.wire_size());
            }
        }
        // Deliver the block to all peers (including ourselves, locally).
        let msg = FabMsg::Block {
            block,
            txs: txs.clone(),
        };
        for (r, &node) in self.peers.iter().enumerate() {
            if r != self.me {
                ctx.send(node, msg.clone(), msg.wire_size());
            }
        }
        self.validate_and_commit(block, txs, ctx);
    }

    /// The validation phase + ledger write (every peer).
    fn validate_and_commit(&mut self, _block: u64, txs: Vec<Request>, ctx: &mut Ctx<'_, FabMsg>) {
        let count = txs.len();
        // Per transaction: verify the client signature and each endorsement
        // signature (pool), then VSCC/MVCC on the committer thread.
        let verifies = count * (1 + self.config.endorsements);
        let _pool = ctx.pool_charge(ctx.hw().cpu.verify_ns, verifies);
        ctx.charge(self.config.vscc_overhead_ns * count as Time);
        ctx.charge(ctx.hw().cpu.execute_tx_ns * count as Time);
        let block_bytes = 64
            + txs
                .iter()
                .map(|t| t.wire_size() + 2 * ENDORSEMENT_BYTES)
                .sum::<usize>();
        // Ledger append: synchronous (maximum durability configuration).
        ctx.disk_write(block_bytes, true, 0);
        self.meter.record(ctx.now(), count as u64);
        self.committed_blocks += 1;
        for tx in txs {
            let result = self.app.execute(&tx);
            if self.origins.remove(&tx.id()) {
                let reply = Reply {
                    client: tx.client,
                    seq: tx.seq,
                    result,
                    replica: self.me,
                };
                let node = smartchain_smr::actor::client_node(reply.client);
                let msg = FabMsg::Reply(reply);
                let size = msg.wire_size();
                ctx.send(node, msg, size);
            }
        }
    }
}

impl<A: Application> Actor<FabMsg> for FabricNode<A> {
    fn on_event(&mut self, event: Event<FabMsg>, ctx: &mut Ctx<'_, FabMsg>) {
        match event {
            Event::Start => {}
            Event::Timer { token: TOKEN_BATCH } => {
                self.batch_timer_armed = false;
                self.cut_block(ctx);
            }
            Event::Timer { .. } => {}
            Event::Message { from, msg } => {
                ctx.charge(ctx.hw().cpu.message_overhead_ns);
                match msg {
                    FabMsg::Submit(tx) => {
                        // Gateway: fan out endorsement requests.
                        if !self.is_gateway() {
                            return;
                        }
                        if self.endorsing.contains_key(&tx.id()) {
                            return;
                        }
                        self.origins.insert(tx.id());
                        let req = FabMsg::EndorseReq(tx.clone());
                        for (r, &node) in self.peers.iter().enumerate() {
                            if r != self.me && r <= self.config.endorsements {
                                ctx.send(node, req.clone(), req.wire_size());
                            }
                        }
                        // Gateway endorses locally too.
                        let _ = ctx.pool_charge(ctx.hw().cpu.verify_ns + ctx.hw().cpu.sign_ns, 1);
                        ctx.charge(ctx.hw().cpu.execute_tx_ns);
                        let mut set = HashSet::new();
                        set.insert(self.me);
                        self.endorsing.insert(tx.id(), (tx, set));
                    }
                    FabMsg::EndorseReq(tx) => {
                        // Endorser: verify, execute speculatively, sign.
                        let _ = ctx.pool_charge(ctx.hw().cpu.verify_ns + ctx.hw().cpu.sign_ns, 1);
                        ctx.charge(ctx.hw().cpu.execute_tx_ns);
                        let rep = FabMsg::EndorseRep {
                            tx: tx.id(),
                            endorser: self.me,
                        };
                        ctx.send(from, rep.clone(), rep.wire_size());
                    }
                    FabMsg::EndorseRep { tx, endorser } => {
                        let needed = self.config.endorsements;
                        let ready = {
                            let Some((_, set)) = self.endorsing.get_mut(&tx) else {
                                return;
                            };
                            set.insert(endorser);
                            set.len() > needed // self + `endorsements` peers
                        };
                        if ready {
                            if let Some((tx, _)) = self.endorsing.remove(&tx) {
                                // Enqueue for ordering (we are the orderer).
                                self.order_queue.push_back(tx);
                                if self.order_queue.len() >= self.config.max_block {
                                    self.cut_block(ctx);
                                } else if !self.batch_timer_armed {
                                    self.batch_timer_armed = true;
                                    ctx.set_timer(self.config.batch_timeout, TOKEN_BATCH);
                                }
                            }
                        }
                    }
                    FabMsg::Envelope(tx) => {
                        self.order_queue.push_back(tx);
                    }
                    FabMsg::OrderEcho { .. } => {
                        ctx.charge(ctx.hw().cpu.verify_ns / 4);
                    }
                    FabMsg::Block { block, txs } => {
                        self.validate_and_commit(block, txs, ctx);
                    }
                    FabMsg::Reply(_) => {}
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
    use smartchain_sim::{Cluster, SECOND};
    use smartchain_smr::app::CounterApp;
    use smartchain_smr::client::{ClientActor, ClientConfig, CounterFactory};

    fn build(n: usize, clients: u32, per_client: u64, config: FabConfig) -> Cluster<FabMsg> {
        let peers: Vec<NodeId> = (0..n).collect();
        let mut actors: Vec<Box<dyn Actor<FabMsg>>> = Vec::new();
        for i in 0..n {
            actors.push(Box::new(FabricNode::new(
                i,
                peers.clone(),
                CounterApp::new(),
                config,
            )));
        }
        actors.push(Box::new(ClientActor::<FabMsg>::new(
            n,
            vec![0], // clients talk to the gateway
            0,
            ClientConfig {
                logical_clients: clients,
                requests_per_client: Some(per_client),
                ..ClientConfig::default()
            },
            Box::new(CounterFactory::new(true)),
        )));
        Cluster::new(actors, HwSpec::test_fast(), 13)
    }

    #[test]
    fn pipeline_commits_all_transactions() {
        let config = FabConfig {
            batch_timeout: 5 * MILLI,
            ..FabConfig::default()
        };
        let mut cluster = build(4, 3, 5, config);
        cluster.run_until(10 * SECOND);
        for i in 0..4 {
            let node = cluster
                .actor(i)
                .as_any()
                .downcast_ref::<FabricNode<CounterApp>>()
                .unwrap();
            assert_eq!(node.meter().total(), 15, "peer {i} committed all txs");
            assert!(node.committed_blocks() >= 1);
        }
    }

    #[test]
    fn every_peer_writes_the_ledger() {
        let config = FabConfig {
            batch_timeout: 5 * MILLI,
            ..FabConfig::default()
        };
        let mut cluster = build(4, 2, 5, config);
        cluster.run_until(10 * SECOND);
        for i in 0..4 {
            assert!(cluster.sim_ref().disk_syncs(i) >= 1, "peer {i} never wrote");
        }
    }
}
