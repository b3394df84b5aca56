//! The Mod-SMaRt total-order core: a sans-IO state machine that turns client
//! requests into an ordered stream of batches by running a *windowed
//! pipeline* of VP-Consensus instances with regency-based leader changes.
//!
//! [`OrderingConfig::window`] is how many instances the leader keeps in
//! flight at once (the paper's α; 1 runs one instance at a time).
//! Followers participate in any instance within the catch-up window,
//! decisions are buffered in `undelivered`, and batches are handed to the
//! upper layer strictly in instance order. Every core repairs: a stalled
//! frontier is fetched from peers (`InstanceFetch`) before any leader
//! change. At every α, leader changes collect locked values for **all**
//! open instances (a per-instance STOPDATA/SYNC vector) so no
//! possibly-decided value is lost, and the new leader re-proposes each
//! carried value at its own instance.

use crate::types::{decode_batch, encode_batch, Request};
use smartchain_codec::{codec_enum, DecodeError, Encode};
use smartchain_consensus::instance::{Decision, Instance};
use smartchain_consensus::messages::{ConsensusMsg, Output};
use smartchain_consensus::proof::DecisionProof;
use smartchain_consensus::synchronizer::{StopData, SyncAction, SyncMsg, Synchronizer};
use smartchain_consensus::{ReplicaId, View, MAX_WINDOW};
use smartchain_crypto::keys::{SecretKey, Signature};
use smartchain_crypto::ValueBytes;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Catch-up slack: a replica takes part in instances up to the pipeline
/// window plus this many ahead of `last_delivered`; traffic beyond that
/// requires state transfer.
const INSTANCE_WINDOW: u64 = 8;

/// Quiet period for per-instance repair, measured in consensus events: when
/// a replica observes this many in-window consensus messages for instances
/// *other than* its delivery frontier while the frontier itself stays
/// silent, the frontier's traffic was almost certainly lost and a targeted
/// `InstanceFetch` round fires. Counting events instead of time keeps the
/// trigger a pure function of the message schedule — deterministic under
/// the simulator and free of extra timers on metal.
const QUIET_EVENTS: u32 = 24;

/// Wire messages exchanged by SMR replicas (clients speak
/// [`SmrMsg::Request`]/[`SmrMsg::Reply`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SmrMsg {
    /// Client request (sent by clients to all replicas).
    Request(crate::types::Request),
    /// Consensus-instance traffic.
    Consensus(ConsensusMsg),
    /// Synchronization-phase traffic.
    Sync(SyncMsg),
    /// Reply to a client.
    Reply(crate::types::Reply),
    /// Runtime state transfer: a recovering replica asks a peer for every
    /// applied batch from `from_batch` onward (metal deployments; the
    /// simulated chain uses `ChainMsg::StateReq` instead).
    StateReq {
        /// First batch (consensus instance) the requester is missing.
        from_batch: u64,
    },
    /// Runtime state-transfer reply: an application snapshot (if one covers
    /// part of the gap) plus the logged batch suffix.
    StateRep {
        /// Batches summarized by `snapshot` (0 = no snapshot shipped).
        covered: u64,
        /// Serialized application state covering batches `1..=covered`.
        snapshot: Option<Vec<u8>>,
        /// Batch number of `batches[0]` (consecutive from there).
        first_batch: u64,
        /// Encoded request batches `first_batch..first_batch + len`.
        batches: Vec<Vec<u8>>,
        /// The sender's current regency, so a recovering replica that slept
        /// through leader changes rejoins at the right one.
        regency: u32,
        /// The quorum certificate for the shipped snapshot's checkpoint
        /// (required by the receiver when the snapshot runs ahead of its
        /// local state).
        cert: Option<crate::durability::CheckpointCert>,
    },
    /// A replica's signed share of a checkpoint certificate, gossiped after
    /// each local checkpoint; `quorum` shares matching on
    /// `(covered, state_root, tip)` assemble a
    /// [`CheckpointCert`](crate::durability::CheckpointCert).
    CkptShare {
        /// The signing replica.
        replica: ReplicaId,
        /// Batches the checkpoint summarizes.
        covered: u64,
        /// Chunked Merkle root of the application state at `covered`.
        state_root: [u8; 32],
        /// Batch chain hash after `covered`.
        tip: [u8; 32],
        /// Signature over [`ckpt_sign_payload`](crate::durability::ckpt_sign_payload).
        signature: Signature,
    },
    /// Per-instance repair request: the sender observed traffic for later
    /// instances but none for `instance` over a quiet period, and asks its
    /// peers for the missing messages — one round trip instead of a regency
    /// change.
    InstanceFetch {
        /// The stalled instance.
        instance: u64,
        /// The requester already holds the instance's proposed value
        /// (responders then omit the value-bearing reply).
        have: bool,
    },
    /// Per-instance repair reply. If the responder has seen the decision,
    /// `decided` carries the value plus its quorum proof (the requester
    /// verifies and delivers directly). Otherwise `msgs` carries the
    /// responder's own PROPOSE/ValueReply/WRITE/ACCEPT for the instance —
    /// replays that pass the receiver's ordinary signature/leader checks
    /// unchanged, so a Byzantine responder cannot inject anything it could
    /// not already have sent.
    InstanceRep {
        /// The instance being repaired.
        instance: u64,
        /// Decided value and its decision proof, when known (shared
        /// handles: responders answer straight from their delivery and
        /// undelivered buffers without copying the batch bytes).
        decided: Option<(ValueBytes, Arc<DecisionProof>)>,
        /// The responder's own consensus messages for the instance.
        msgs: Vec<ConsensusMsg>,
    },
}

impl SmrMsg {
    /// Wire size in bytes (transport framing + canonical encoding), derived
    /// from the [`Encode`] output — the encoder is the single source of
    /// truth for the simulator's NIC model.
    pub fn wire_size(&self) -> usize {
        smartchain_codec::FRAME_BYTES + self.encoded_len()
    }

    /// Decodes a payload that may only be an [`SmrMsg::Request`] — what a
    /// client connection carries — without decoding any other variant, so
    /// an unauthenticated sender cannot make a replica build a
    /// replica-to-replica message. Trailing bytes are rejected as in
    /// [`smartchain_codec::from_bytes`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadDiscriminant`] for any other variant, plus the
    /// request's own decode errors.
    pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
        match payload.split_first() {
            Some((0, body)) => smartchain_codec::from_bytes(body),
            Some((&d, _)) => Err(DecodeError::BadDiscriminant(d as u32)),
            None => Err(DecodeError::UnexpectedEnd),
        }
    }
}

codec_enum!(SmrMsg {
    0 => Request(request),
    1 => Consensus(msg),
    2 => Sync(msg),
    3 => Reply(reply),
    4 => StateReq { from_batch },
    5 => StateRep { covered, snapshot, first_batch, batches, regency, cert },
    6 => CkptShare { replica, covered, state_root, tip, signature },
    7 => InstanceFetch { instance, have },
    8 => InstanceRep { instance, decided, msgs },
});

/// A network message type that can carry SMR traffic — lets generic
/// components (e.g. the closed-loop client actor) work over richer message
/// enums such as SmartChain's.
pub trait SmrEnvelope: Clone + 'static {
    /// Wraps an SMR message.
    fn from_smr(msg: SmrMsg) -> Self;
    /// Views this message as a client reply, if it is one.
    fn as_reply(&self) -> Option<&crate::types::Reply>;
    /// Wire size in bytes.
    fn envelope_size(&self) -> usize;
}

impl SmrEnvelope for SmrMsg {
    fn from_smr(msg: SmrMsg) -> Self {
        msg
    }
    fn as_reply(&self) -> Option<&crate::types::Reply> {
        match self {
            SmrMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn envelope_size(&self) -> usize {
        self.wire_size()
    }
}

/// A totally-ordered, decided batch handed to the upper layer.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderedBatch {
    /// Consensus instance that decided this batch.
    pub instance: u64,
    /// Epoch of the decision.
    pub epoch: u32,
    /// The decoded requests in proposal order, with already-delivered
    /// duplicates stripped — what the application executes.
    pub requests: Vec<Request>,
    /// The raw decided value (the encoded proposal, duplicates and all):
    /// `sha256(value)` is exactly the proof's `value_hash`, so a durable log
    /// that stores this instead of the stripped request list stays bound to
    /// the quorum-signed decision — what the runtime's digest-checked state
    /// transfer verifies. A shared, hash-memoized handle: the delivery,
    /// the durable log and repair replies all hold
    /// the same allocation, and its digest is computed once.
    pub value: ValueBytes,
    /// The decision proof (quorum of signed ACCEPTs), shared with the
    /// consensus instance and any repair replies that re-ship it.
    pub proof: Arc<DecisionProof>,
}

/// Outputs of the ordering core.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreOutput {
    /// Broadcast to all replicas in the view.
    Broadcast(SmrMsg),
    /// Point-to-point send.
    Send(ReplicaId, SmrMsg),
    /// In-order delivery of a decided batch.
    Deliver(OrderedBatch),
    /// The replica fell more than the window behind; the embedding must run
    /// state transfer up to (at least) the given instance.
    NeedStateTransfer {
        /// Some replica has decided at least this instance.
        observed_instance: u64,
    },
}

/// Configuration of the ordering core.
#[derive(Clone, Copy, Debug)]
pub struct OrderingConfig {
    /// Maximum requests per proposed batch (the paper/SmartChain use 512).
    pub max_batch: usize,
    /// The pipeline window: how many consensus instances the leader keeps
    /// in flight (α). α = 1 orders one instance at a time; larger values
    /// overlap ORDER of instance `i+1` with EXECUTE/PERSIST of instance
    /// `i` (it also sizes the simulator's open-block pump). Clamped to
    /// `1..=`[`MAX_WINDOW`]` − 8` at construction, so a STOPDATA, which
    /// reports a lock per instance of the catch-up window (the window plus
    /// 8), carries at most [`MAX_WINDOW`] locks.
    pub window: u64,
}

impl Default for OrderingConfig {
    fn default() -> Self {
        OrderingConfig {
            max_batch: 512,
            window: 1,
        }
    }
}

/// Repair counters, maintained by every core. All counters are
/// cumulative since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderingStats {
    /// InstanceFetch requests this replica broadcast.
    pub fetches_sent: u64,
    /// InstanceFetch requests this replica answered with an InstanceRep.
    pub fetches_answered: u64,
    /// Instances delivered after this replica fetched them.
    pub repaired_instances: u64,
    /// Regencies installed (leader changes completed locally).
    pub regency_changes: u64,
}

/// The per-replica ordering state machine.
pub struct OrderingCore {
    me: ReplicaId,
    view: View,
    secret: SecretKey,
    config: OrderingConfig,
    synchronizer: Synchronizer,
    instances: BTreeMap<u64, Instance>,
    /// Highest instance delivered to the upper layer.
    last_delivered: u64,
    /// Decisions that arrived out of order, waiting for their predecessors.
    undelivered: BTreeMap<u64, Decision>,
    /// Admitted requests in arrival order: a leader's batch source, and on
    /// a follower the copies it holds until they are ordered (clients send
    /// each request to every replica). An entry is *live* while its id is
    /// in `pending_ids`; delivery kills it in O(1), and `compact_pending`
    /// drops dead entries once they outnumber the live ones, so the deque
    /// stays proportional to the live requests, not to history.
    pending: VecDeque<Request>,
    /// Ids of the live entries in `pending` — exactly one entry each, since
    /// `submit` admits an id only once and never after its delivery. The
    /// authoritative "admitted, not yet delivered" set.
    pending_ids: std::collections::HashSet<(u64, u64)>,
    /// Instance/epoch pairs we already proposed in (leader bookkeeping).
    proposed: HashMap<u64, u32>,
    /// Requests claimed by one of our in-flight proposals, per instance —
    /// the next slot's batch must not re-propose them.
    claimed: HashMap<u64, Vec<(u64, u64)>>,
    /// Union of the id sets in `claimed` (O(1) batch filtering).
    claimed_ids: HashSet<(u64, u64)>,
    /// Leading entries of `pending` known to be dead or claimed — the next
    /// `take_batch` starts scanning here instead of rescanning the prefix
    /// (rewound whenever a claim is released).
    pending_cursor: usize,
    /// Where the last `take_batch` scan stopped; `claim` promotes it to
    /// `pending_cursor` once the scanned prefix is actually claimed.
    take_scan_end: usize,
    /// Per-client highest delivered sequence number (dedup).
    delivered_seq: HashMap<u64, u64>,
    /// Consensus events observed for in-window instances *other than* the
    /// delivery frontier since the frontier last moved or spoke — the
    /// deterministic quiet clock behind per-instance repair.
    frontier_quiet: u32,
    /// Instances this replica sent an InstanceFetch for and has not yet
    /// delivered (their delivery counts as a repair).
    fetched: HashSet<u64>,
    /// Frontier instance already given one repair round after a progress
    /// timeout — the next timeout for the same frontier escalates to a
    /// leader change.
    timeout_repair: Option<u64>,
    /// Repair counters.
    stats: OrderingStats,
}

impl std::fmt::Debug for OrderingCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderingCore")
            .field("me", &self.me)
            .field("last_delivered", &self.last_delivered)
            .field("pending", &self.pending.len())
            .field("regency", &self.synchronizer.regency())
            .finish()
    }
}

impl OrderingCore {
    /// Creates the core for replica `me` in `view`, using `secret` as this
    /// replica's consensus key. `next_instance` is 1 + the highest instance
    /// already applied (1 for a fresh start; decided instances start at 1 so
    /// that block numbers align with the genesis block being 0).
    pub fn new(
        me: ReplicaId,
        view: View,
        secret: SecretKey,
        config: OrderingConfig,
        last_applied: u64,
    ) -> OrderingCore {
        let mut config = config;
        // A STOPDATA reports at most MAX_WINDOW locks: one per instance of
        // the catch-up window, INSTANCE_WINDOW + window.
        config.window = config.window.clamp(1, MAX_WINDOW - INSTANCE_WINDOW);
        OrderingCore {
            me,
            synchronizer: Synchronizer::new(me, view.clone()),
            view,
            secret,
            config,
            instances: BTreeMap::new(),
            last_delivered: last_applied,
            undelivered: BTreeMap::new(),
            pending: VecDeque::new(),
            pending_ids: std::collections::HashSet::new(),
            proposed: HashMap::new(),
            claimed: HashMap::new(),
            claimed_ids: HashSet::new(),
            pending_cursor: 0,
            take_scan_end: 0,
            delivered_seq: HashMap::new(),
            frontier_quiet: 0,
            fetched: HashSet::new(),
            timeout_repair: None,
            stats: OrderingStats::default(),
        }
    }

    /// Catch-up window: how far ahead of `last_delivered` this replica will
    /// participate — the pipeline window plus [`INSTANCE_WINDOW`] of slack,
    /// so a follower a few instances behind a leader at full α still takes
    /// part instead of dropping in-window traffic for state transfer.
    fn window(&self) -> u64 {
        INSTANCE_WINDOW + self.config.window
    }

    /// Repair counters (cumulative).
    pub fn stats(&self) -> OrderingStats {
        self.stats
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Current regency (for timeout bookkeeping by the embedding).
    pub fn regency(&self) -> u32 {
        self.synchronizer.regency()
    }

    /// Leader of the current regency.
    pub fn leader(&self) -> ReplicaId {
        self.synchronizer.current_leader()
    }

    /// True when this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// Highest instance delivered so far.
    pub fn last_delivered(&self) -> u64 {
        self.last_delivered
    }

    /// Number of admitted, undelivered requests.
    pub fn pending_len(&self) -> usize {
        self.pending_ids.len()
    }

    /// Signs `payload` with this replica's consensus secret key — used by
    /// the embedding to produce checkpoint-certificate shares, so the
    /// certificate verifies against the same view keys as decision proofs.
    pub fn sign(&self, payload: &[u8]) -> Signature {
        self.secret.sign(payload)
    }

    /// Seeds the duplicate filter from a durable `client → seq` frontier
    /// (boot, state-transfer install) and drops every pool entry it covers:
    /// one that is never decided again would keep the progress timer firing.
    pub fn seed_delivered(&mut self, frontier: &[(u64, u64)]) {
        for &(client, seq) in frontier {
            let s = self.delivered_seq.entry(client).or_insert(seq);
            *s = (*s).max(seq);
        }
        let delivered = &self.delivered_seq;
        self.pending_ids
            .retain(|(c, s)| delivered.get(c).is_none_or(|&d| *s > d));
        self.compact_pending();
    }

    /// Drops dead entries (delivered ids) from `pending` in one pass once
    /// they outnumber the live ones. The slack of 64 spares small pools the
    /// pass; the factor of two makes its cost amortised O(1) per delivery.
    /// Live entries keep their relative order, so batches are unchanged.
    /// The whole deque is filtered, not just a dead prefix: one request that
    /// reaches a follower but never the leader stays live at the front, and
    /// a prefix-only drop would then keep everything behind it.
    fn compact_pending(&mut self) {
        if self.pending.len() > 2 * self.pending_ids.len() + 64 {
            self.pending.retain(|r| self.pending_ids.contains(&r.id()));
            self.pending_cursor = 0;
            self.take_scan_end = 0;
        }
    }

    /// The full per-client dedup frontier, sorted by client id
    /// (diagnostics: dedup continuity across snapshots and restarts).
    pub fn delivered_frontier(&self) -> Vec<(u64, u64)> {
        let mut frontier: Vec<(u64, u64)> =
            self.delivered_seq.iter().map(|(&c, &s)| (c, s)).collect();
        frontier.sort_unstable();
        frontier
    }

    /// Fast-forwards after state transfer: everything up to `instance` is
    /// already applied via a snapshot/log replay.
    pub fn fast_forward(&mut self, instance: u64) {
        if instance <= self.last_delivered {
            return;
        }
        self.last_delivered = instance;
        self.undelivered.retain(|&i, _| i > instance);
        self.instances.retain(|&i, _| i > instance);
        self.fetched.retain(|&i| i > instance);
        self.frontier_quiet = 0;
        self.timeout_repair = None;
        let stale: Vec<u64> = self
            .claimed
            .keys()
            .filter(|&&i| i <= instance)
            .copied()
            .collect();
        for slot in stale {
            self.release_claim(slot);
        }
    }

    /// Admits a request for ordering. The embedding is responsible for
    /// signature policy (verify before admitting, or charge pool time).
    /// Returns outputs (a proposal may start immediately).
    pub fn submit(&mut self, request: Request) -> Vec<CoreOutput> {
        // Drop already-delivered or already-pending duplicates.
        if self
            .delivered_seq
            .get(&request.client)
            .is_some_and(|&s| request.seq <= s)
        {
            return Vec::new();
        }
        if !self.pending_ids.insert(request.id()) {
            return Vec::new();
        }
        self.pending.push_back(request);
        self.try_propose()
    }

    /// Called by the embedding when its progress timer fires and nothing was
    /// delivered since the timer was armed. The first timeout for a stalled
    /// frontier tries one cheap per-instance repair round; only a second
    /// timeout for the *same* frontier starts a leader change.
    pub fn on_progress_timeout(&mut self) -> Vec<CoreOutput> {
        if self.pending_ids.is_empty() && self.undelivered.is_empty() {
            return Vec::new();
        }
        let frontier = self.last_delivered + 1;
        if self.timeout_repair != Some(frontier) {
            self.timeout_repair = Some(frontier);
            return self.repair_round(frontier);
        }
        self.timeout_repair = None;
        let actions = self.synchronizer.request_change();
        self.apply_sync_actions(actions)
    }

    /// Handles a message from another replica.
    pub fn on_message(&mut self, from: ReplicaId, msg: SmrMsg) -> Vec<CoreOutput> {
        match msg {
            SmrMsg::Request(req) => self.submit(req),
            SmrMsg::Consensus(cmsg) => self.on_consensus(from, cmsg),
            SmrMsg::Sync(smsg) => {
                let actions = self.synchronizer.on_message(from, smsg);
                self.apply_sync_actions(actions)
            }
            SmrMsg::Reply(_) => Vec::new(), // replicas ignore replies
            SmrMsg::InstanceFetch { instance, have } => {
                self.on_instance_fetch(from, instance, have)
            }
            SmrMsg::InstanceRep {
                instance,
                decided,
                msgs,
            } => self.on_instance_rep(from, instance, decided, msgs),
            // State transfer and checkpoint certification are the
            // embedding's job (it owns the log); the core ignores the
            // messages if they ever reach it.
            SmrMsg::StateReq { .. } | SmrMsg::StateRep { .. } | SmrMsg::CkptShare { .. } => {
                Vec::new()
            }
        }
    }

    /// Called by an embedding whose transport re-established the link to
    /// `peer` (metal deployments on real sockets): messages queued for that
    /// peer may have died with the torn connection, so protocol state the
    /// receiver cannot regenerate on its own is re-sent — our STOP vote
    /// and, if `peer` leads a pending regency, our STOPDATA, plus our own
    /// WRITE/ACCEPT (and value) for every still-open instance so the
    /// reconnecting replica rejoins the pipeline window without waiting for
    /// a fetch round or state transfer.
    pub fn on_peer_reconnect(&mut self, peer: ReplicaId) -> Vec<CoreOutput> {
        if peer == self.me || peer >= self.view.members.len() {
            return Vec::new();
        }
        let mut outputs = Vec::new();
        let sent = self.synchronizer.sent_stop_for();
        if sent > self.synchronizer.regency() {
            outputs.push(CoreOutput::Send(
                peer,
                SmrMsg::Sync(SyncMsg::Stop { regency: sent }),
            ));
        }
        if let Some(regency) = self.synchronizer.stopped_regency() {
            if self.synchronizer.leader_of(regency) == peer {
                outputs.push(CoreOutput::Send(peer, SmrMsg::Sync(self.stopdata(regency))));
            }
        }
        // In-flight consensus traffic: whatever we already said about the
        // open instances, said again point-to-point (with the value, so a
        // peer that missed the PROPOSE can still tally our WRITE).
        for (_, inst) in self.instances.range(self.last_delivered + 1..) {
            if inst.is_decided() {
                continue;
            }
            for m in inst.own_messages(true) {
                outputs.push(CoreOutput::Send(peer, SmrMsg::Consensus(m)));
            }
        }
        outputs
    }

    /// Adopts a regency learned out-of-band (a state-transfer shipper's
    /// report, metal deployments only): jumps the synchronizer forward and
    /// moves every open instance to the new epoch so current-regency
    /// traffic is no longer dropped. A replica that slept through a leader
    /// change cannot reconstruct the STOP/STOPDATA exchange it missed; this
    /// is liveness-only state (epoch quorums still guard safety). No-op
    /// unless `regency` is ahead of ours.
    pub fn adopt_regency(&mut self, regency: u32) {
        if regency <= self.synchronizer.regency() {
            return;
        }
        self.synchronizer.fast_forward_regency(regency);
        let leader = self.synchronizer.current_leader();
        let open: Vec<u64> = self
            .instances
            .range(self.last_delivered + 1..)
            .map(|(&i, _)| i)
            .collect();
        for i in open {
            if let Some(inst) = self.instances.get_mut(&i) {
                inst.advance_epoch(regency, leader);
            }
        }
    }

    /// When in-order delivery is stalled on a hole — decisions are buffered
    /// for later instances but `last_delivered + 1` never decided here —
    /// returns the highest buffered instance. A replica that restarted
    /// within the catch-up window lands in exactly this state (its peers
    /// decided the gap while it was down and will not re-run consensus for
    /// it); the embedding should fetch the gap via state transfer.
    pub fn stalled_behind(&self) -> Option<u64> {
        self.undelivered.keys().next_back().copied()
    }

    fn on_consensus(&mut self, from: ReplicaId, msg: ConsensusMsg) -> Vec<CoreOutput> {
        let instance_id = msg.instance();
        if instance_id <= self.last_delivered {
            // Late traffic for an already-delivered instance: serve fetches
            // (a lagging peer may need the value), drop the rest.
            if let (ConsensusMsg::FetchValue { .. }, Some(inst)) =
                (&msg, self.instances.get_mut(&instance_id))
            {
                let (outs, _) = inst.on_message(from, msg);
                return outs.into_iter().map(Self::net).collect();
            }
            return Vec::new();
        }
        if instance_id > self.last_delivered + self.window() {
            return vec![CoreOutput::NeedStateTransfer {
                observed_instance: instance_id,
            }];
        }
        let mut outputs = self.tick_quiet(instance_id);
        let inst = self.instance_entry(instance_id);
        let (outs, decision) = inst.on_message(from, msg);
        outputs.extend(outs.into_iter().map(Self::net));
        if let Some(d) = decision {
            outputs.extend(self.on_decision(d));
        }
        outputs
    }

    /// The deterministic quiet clock behind per-instance repair: every
    /// in-window consensus event for an instance other than the delivery
    /// frontier ticks the counter; an event for the frontier (or the
    /// frontier moving) resets it. [`QUIET_EVENTS`] ticks of silence mean
    /// the frontier's traffic was lost — fire a targeted fetch round.
    fn tick_quiet(&mut self, instance_id: u64) -> Vec<CoreOutput> {
        let frontier = self.last_delivered + 1;
        if instance_id == frontier {
            self.frontier_quiet = 0;
            return Vec::new();
        }
        self.frontier_quiet += 1;
        if self.frontier_quiet < QUIET_EVENTS {
            return Vec::new();
        }
        self.frontier_quiet = 0;
        self.repair_round(frontier)
    }

    /// Broadcasts an `InstanceFetch` for `frontier` plus, when this replica
    /// leads the instance, a re-broadcast of its own PROPOSE, so a lost
    /// proposal heals even if no peer got it either.
    fn repair_round(&mut self, frontier: u64) -> Vec<CoreOutput> {
        self.stats.fetches_sent += 1;
        let have = self
            .instances
            .get(&frontier)
            .is_some_and(Instance::has_value);
        self.fetched.insert(frontier);
        let mut outputs = vec![CoreOutput::Broadcast(SmrMsg::InstanceFetch {
            instance: frontier,
            have,
        })];
        if let Some(inst) = self.instances.get(&frontier) {
            if inst.leader() == self.me {
                for m in inst.own_messages(false) {
                    outputs.push(CoreOutput::Broadcast(SmrMsg::Consensus(m)));
                }
            }
        }
        outputs
    }

    /// Answers a peer's repair request: ship the decision plus its quorum
    /// proof when we have it (delivered-tail or undelivered buffer) —
    /// cloning only the shared handles, never the batch bytes — otherwise
    /// replay our own message set for the instance.
    fn on_instance_fetch(
        &mut self,
        from: ReplicaId,
        instance: u64,
        requester_has_value: bool,
    ) -> Vec<CoreOutput> {
        if from == self.me || from >= self.view.members.len() {
            return Vec::new();
        }
        let decided = self
            .instances
            .get(&instance)
            .and_then(Instance::decision)
            .map(|d| (d.value.clone(), d.proof.clone()))
            .or_else(|| {
                self.undelivered
                    .get(&instance)
                    .map(|d| (d.value.clone(), d.proof.clone()))
            });
        let msgs = match (&decided, self.instances.get(&instance)) {
            (None, Some(inst)) => inst.own_messages(!requester_has_value),
            _ => Vec::new(),
        };
        if decided.is_none() && msgs.is_empty() {
            return Vec::new();
        }
        self.stats.fetches_answered += 1;
        vec![CoreOutput::Send(
            from,
            SmrMsg::InstanceRep {
                instance,
                decided,
                msgs,
            },
        )]
    }

    /// Applies a repair reply. A decided payload must carry a proof that (a)
    /// names this instance, (b) binds to the shipped value by hash, and (c)
    /// verifies against the view's quorum — a Byzantine responder cannot
    /// forge any of the three. Undecided payloads replay the responder's
    /// own PROPOSE/WRITE/ACCEPTs for this instance through the ordinary
    /// consensus path, as if the responder had just sent them: each
    /// signature is checked against the responder's key, and the
    /// leader/epoch/membership checks apply unchanged.
    fn on_instance_rep(
        &mut self,
        from: ReplicaId,
        instance: u64,
        decided: Option<(ValueBytes, Arc<DecisionProof>)>,
        msgs: Vec<ConsensusMsg>,
    ) -> Vec<CoreOutput> {
        if from == self.me || from >= self.view.members.len() {
            return Vec::new();
        }
        if instance <= self.last_delivered || instance > self.last_delivered + self.window() {
            return Vec::new();
        }
        if let Some((value, proof)) = decided {
            if proof.instance != instance
                || value.hash() != proof.value_hash
                || !proof.verify(&self.view)
            {
                return Vec::new();
            }
            if self.undelivered.contains_key(&instance)
                || self
                    .instances
                    .get(&instance)
                    .is_some_and(Instance::is_decided)
            {
                return Vec::new();
            }
            let epoch = proof.epoch;
            return self.on_decision(Decision {
                instance,
                epoch,
                value,
                proof,
            });
        }
        let mut outputs = Vec::new();
        for m in msgs.into_iter().filter(|m| m.instance() == instance) {
            outputs.extend(self.on_consensus(from, m));
        }
        outputs
    }

    fn instance_entry(&mut self, id: u64) -> &mut Instance {
        let me = self.me;
        let view = self.view.clone();
        let secret = self.secret.clone();
        let regency = self.synchronizer.regency();
        let leader = self.synchronizer.current_leader();
        self.instances
            .entry(id)
            .or_insert_with(|| Instance::new(id, me, view, secret, leader, regency))
    }

    fn on_decision(&mut self, decision: Decision) -> Vec<CoreOutput> {
        self.undelivered.insert(decision.instance, decision);
        let mut outputs = Vec::new();
        // Release contiguous decisions in order.
        while let Some(d) = self.undelivered.remove(&(self.last_delivered + 1)) {
            self.last_delivered = d.instance;
            self.release_claim(d.instance);
            // A fetched instance delivering is a repair. Delivery also
            // restarts the quiet clock and the timeout-repair ratchet.
            if self.fetched.remove(&d.instance) {
                self.stats.repaired_instances += 1;
            }
            self.frontier_quiet = 0;
            self.timeout_repair = None;
            // A malformed decided batch delivers empty.
            let requests = decode_batch(&d.value).unwrap_or_default();
            // Dedup against already-delivered requests and drop them from
            // our own pending pool.
            let mut fresh = Vec::with_capacity(requests.len());
            for req in requests {
                let seen = self
                    .delivered_seq
                    .get(&req.client)
                    .is_some_and(|&s| req.seq <= s);
                self.pending_ids.remove(&req.id());
                if !seen {
                    self.delivered_seq
                        .entry(req.client)
                        .and_modify(|s| *s = (*s).max(req.seq))
                        .or_insert(req.seq);
                    fresh.push(req);
                }
            }
            outputs.push(CoreOutput::Deliver(OrderedBatch {
                instance: d.instance,
                epoch: d.epoch,
                requests: fresh,
                value: d.value.clone(),
                proof: d.proof.clone(),
            }));
        }
        self.compact_pending();
        // Prune old instances (keep a tail to serve FetchValue) and stale
        // leader bookkeeping for delivered slots.
        let keep_from = self.last_delivered.saturating_sub(self.window());
        self.instances.retain(|&i, _| i >= keep_from);
        self.proposed.retain(|&i, _| i > self.last_delivered);
        self.fetched.retain(|&i| i > self.last_delivered);
        outputs.extend(self.try_propose());
        outputs
    }

    /// Starts consensus instances while this replica leads, work is queued,
    /// and the pipeline window (α) has free slots.
    pub fn try_propose(&mut self) -> Vec<CoreOutput> {
        if !self.is_leader() || self.synchronizer.is_stopped() || self.pending_ids.is_empty() {
            return Vec::new();
        }
        let mut outputs = Vec::new();
        loop {
            let regency = self.synchronizer.regency();
            let Some(slot) = self.next_open_slot(regency) else {
                break;
            };
            let batch = self.take_batch();
            if batch.is_empty() {
                break;
            }
            let value = ValueBytes::from(encode_batch(&batch));
            self.claim(slot, &batch);
            outputs.extend(self.propose_at(slot, regency, value));
            if !self.is_leader() || self.synchronizer.is_stopped() || self.pending_ids.is_empty() {
                break;
            }
        }
        outputs
    }

    /// The lowest window slot with no live proposal of ours and no decision.
    fn next_open_slot(&self, regency: u32) -> Option<u64> {
        let first = self.last_delivered + 1;
        let last = self.last_delivered + self.config.window;
        (first..=last).find(|slot| {
            self.proposed.get(slot).is_none_or(|&e| e < regency)
                && !self.instances.get(slot).is_some_and(Instance::is_decided)
        })
    }

    /// Takes up to a batch of live, unclaimed requests (they stay queued
    /// until their own delivery removes them), skipping dead entries —
    /// `compact_pending` keeps those at most twice the live ones plus 64.
    /// The scan starts at `pending_cursor` — every earlier entry is already
    /// dead or claimed — so the slots of one window do not rescan each
    /// other's claims.
    fn take_batch(&mut self) -> Vec<Request> {
        let limit = self.config.max_batch;
        let mut batch = Vec::new();
        let mut scanned = self.pending_cursor;
        for r in self.pending.iter().skip(self.pending_cursor) {
            if batch.len() >= limit {
                break;
            }
            scanned += 1;
            if self.pending_ids.contains(&r.id()) && !self.claimed_ids.contains(&r.id()) {
                batch.push(r.clone());
            }
        }
        self.take_scan_end = scanned;
        batch
    }

    /// Marks `batch`'s requests as claimed by the in-flight proposal for
    /// `slot`, so no other slot's batch re-proposes them.
    fn claim(&mut self, slot: u64, batch: &[Request]) {
        // The prefix the batch's scan covered is now entirely dead or
        // claimed; the next slot's scan starts past it.
        self.pending_cursor = self.pending_cursor.max(self.take_scan_end);
        let ids: Vec<(u64, u64)> = batch.iter().map(Request::id).collect();
        for id in &ids {
            self.claimed_ids.insert(*id);
        }
        self.claimed.insert(slot, ids);
    }

    /// Releases the claim held by `slot`'s proposal (delivery or window
    /// reset). Freed requests may sit anywhere in the queue, so the claim
    /// cursor rewinds to rescan from the front.
    fn release_claim(&mut self, slot: u64) {
        if let Some(ids) = self.claimed.remove(&slot) {
            for id in ids {
                self.claimed_ids.remove(&id);
            }
            self.pending_cursor = 0;
            self.take_scan_end = 0;
        }
    }

    /// Records the proposal bookkeeping for `slot` and runs the leader's
    /// proposal, including handling our own broadcast locally (it does not
    /// loop back).
    fn propose_at(&mut self, slot: u64, regency: u32, value: ValueBytes) -> Vec<CoreOutput> {
        self.proposed.insert(slot, regency);
        let me = self.me;
        let inst = self.instance_entry(slot);
        let mut outputs: Vec<CoreOutput> = inst
            .propose(value.clone())
            .into_iter()
            .map(Self::net)
            .collect();
        let (outs, decision) = inst.on_message(
            me,
            ConsensusMsg::Propose {
                instance: slot,
                epoch: regency,
                value,
            },
        );
        outputs.extend(outs.into_iter().map(Self::net));
        if let Some(d) = decision {
            outputs.extend(self.on_decision(d));
        }
        outputs
    }

    fn apply_sync_actions(&mut self, actions: Vec<SyncAction>) -> Vec<CoreOutput> {
        let mut outputs = Vec::new();
        for action in actions {
            match action {
                SyncAction::Broadcast(m) => outputs.push(CoreOutput::Broadcast(SmrMsg::Sync(m))),
                SyncAction::Send(to, m) => outputs.push(CoreOutput::Send(to, SmrMsg::Sync(m))),
                SyncAction::ProvideStopData { regency, leader } => {
                    let msg = self.stopdata(regency);
                    if leader == self.me {
                        let actions = self.synchronizer.on_message(self.me, msg);
                        outputs.extend(self.apply_sync_actions(actions));
                    } else {
                        outputs.push(CoreOutput::Send(leader, SmrMsg::Sync(msg)));
                    }
                }
                SyncAction::Install {
                    regency,
                    leader,
                    adopt,
                } => outputs.extend(self.install_regency(regency, leader, adopt)),
            }
        }
        outputs
    }

    /// This replica's STOPDATA for `regency`: every open instance in the
    /// window reports its lock, so a new leader can restore all in-flight,
    /// possibly-decided values.
    fn stopdata(&self, regency: u32) -> SyncMsg {
        let locked = self
            .instances
            .range(self.last_delivered + 1..)
            .filter_map(|(_, inst)| inst.locked_value())
            .collect();
        let data = StopData {
            last_decided: self.last_delivered,
            locked,
        };
        SyncMsg::StopData { regency, data }
    }

    /// Installs a new regency: advances open instances into the new epoch,
    /// adopts carried locked values at their instances, and (as the new
    /// leader) re-proposes them — filling any unlocked gap below the highest
    /// carried instance so in-order delivery cannot stall on a hole.
    fn install_regency(
        &mut self,
        regency: u32,
        leader: ReplicaId,
        adopt: Vec<(u64, ValueBytes)>,
    ) -> Vec<CoreOutput> {
        self.stats.regency_changes += 1;
        self.timeout_repair = None;
        // Claims belong to the previous regency's proposals; the new leader
        // re-forms batches from everything still pending.
        let slots: Vec<u64> = self.claimed.keys().copied().collect();
        for slot in slots {
            self.release_claim(slot);
        }
        let mut outputs = Vec::new();
        let next = self.last_delivered + 1;
        // Every open instance moves to the new epoch (fresh instances
        // created below are already born at the new regency — instance_entry
        // reads the installed synchronizer state).
        let open_ids: Vec<u64> = self.instances.range(next..).map(|(&i, _)| i).collect();
        for i in open_ids {
            if let Some(inst) = self.instances.get_mut(&i) {
                inst.advance_epoch(regency, leader);
            }
        }
        self.instance_entry(next); // the next slot must be open either way
                                   // Carried values are adopted at their instances (never at a
                                   // different slot — adopting elsewhere would re-decide old content).
        let mut adopt_map: BTreeMap<u64, ValueBytes> = adopt
            .into_iter()
            .filter(|(instance, _)| *instance >= next)
            .collect();
        for (&instance, value) in &adopt_map {
            self.instance_entry(instance).adopt_value(value.clone());
        }
        if leader == self.me {
            // Claim every carried batch's requests BEFORE filling gaps, so
            // a gap slot's fresh batch cannot re-propose a request that a
            // later carried (possibly decided) value already contains.
            for (&slot, value) in &adopt_map {
                let batch = decode_batch(value).unwrap_or_default();
                self.claim(slot, &batch);
            }
            let max_adopt = adopt_map
                .keys()
                .max()
                .copied()
                .unwrap_or(self.last_delivered);
            let mut slot = next;
            while slot <= max_adopt {
                let value = match adopt_map.remove(&slot) {
                    Some(value) => value,
                    None => {
                        // Unlocked gap below a carried instance: propose
                        // whatever is pending (an empty batch if nothing is)
                        // so the carried decisions above can deliver.
                        let batch = self.take_batch();
                        let value = ValueBytes::from(encode_batch(&batch));
                        self.claim(slot, &batch);
                        value
                    }
                };
                outputs.extend(self.propose_at(slot, regency, value));
                slot += 1;
            }
            // Any remaining window capacity takes fresh batches.
            outputs.extend(self.try_propose());
        }
        outputs
    }

    fn net(out: Output<ConsensusMsg>) -> CoreOutput {
        match out {
            Output::Broadcast(m) => CoreOutput::Broadcast(SmrMsg::Consensus(m)),
            Output::Send(to, m) => CoreOutput::Send(to, SmrMsg::Consensus(m)),
        }
    }
}

#[cfg(test)]
mod tests {
    // Replica ids double as vector indices throughout these tests.
    #![allow(clippy::needless_range_loop)]
    use super::*;
    use smartchain_crypto::keys::Backend;

    fn make_cluster(n: usize) -> Vec<OrderingCore> {
        make_cluster_alpha(n, 4, 1)
    }

    fn make_cluster_alpha(n: usize, max_batch: usize, window: u64) -> Vec<OrderingCore> {
        let secrets: Vec<SecretKey> = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 30; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        (0..n)
            .map(|i| {
                OrderingCore::new(
                    i,
                    view.clone(),
                    secrets[i].clone(),
                    OrderingConfig { max_batch, window },
                    0,
                )
            })
            .collect()
    }

    fn req(client: u64, seq: u64) -> Request {
        Request {
            client,
            seq,
            payload: vec![client as u8, seq as u8],
            signature: None,
        }
    }

    /// Synchronously routes all outputs until quiescence; collects deliveries
    /// per replica. `down` nodes neither send nor receive.
    fn pump(
        cores: &mut [OrderingCore],
        initial: Vec<(ReplicaId, CoreOutput)>,
        down: &[ReplicaId],
    ) -> Vec<Vec<OrderedBatch>> {
        let n = cores.len();
        let mut delivered: Vec<Vec<OrderedBatch>> = vec![Vec::new(); n];
        let mut queue: VecDeque<(ReplicaId, ReplicaId, SmrMsg)> = VecDeque::new();
        let handle = |from: ReplicaId,
                      out: CoreOutput,
                      queue: &mut VecDeque<(ReplicaId, ReplicaId, SmrMsg)>,
                      delivered: &mut Vec<Vec<OrderedBatch>>| {
            match out {
                CoreOutput::Broadcast(m) => {
                    for to in 0..n {
                        if to != from && !down.contains(&to) {
                            queue.push_back((from, to, m.clone()));
                        }
                    }
                }
                CoreOutput::Send(to, m) => {
                    if !down.contains(&to) {
                        queue.push_back((from, to, m));
                    }
                }
                CoreOutput::Deliver(b) => delivered[from].push(b),
                CoreOutput::NeedStateTransfer { .. } => {}
            }
        };
        for (from, out) in initial {
            handle(from, out, &mut queue, &mut delivered);
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            if down.contains(&to) {
                continue;
            }
            for out in cores[to].on_message(from, msg) {
                handle(to, out, &mut queue, &mut delivered);
            }
        }
        delivered
    }

    /// Leader 0 is down: the progress timer fires twice at replicas 1–3,
    /// each round pumped to quiescence. The first timeout sends a repair
    /// fetch, the second starts the leader change. `initial` goes out with
    /// the first round. Returns everything delivered in both rounds.
    fn two_timeout_rounds(
        cores: &mut [OrderingCore],
        mut initial: Vec<(ReplicaId, CoreOutput)>,
    ) -> Vec<Vec<OrderedBatch>> {
        let mut delivered = vec![Vec::new(); cores.len()];
        for _ in 0..2 {
            for r in 1..cores.len() {
                for out in cores[r].on_progress_timeout() {
                    initial.push((r, out));
                }
            }
            let got = pump(cores, std::mem::take(&mut initial), &[0]);
            for (all, new) in delivered.iter_mut().zip(got) {
                all.extend(new);
            }
        }
        delivered
    }

    #[test]
    fn catch_up_window_never_exceeds_max_window() {
        for window in [0, 1, 8, MAX_WINDOW - INSTANCE_WINDOW, MAX_WINDOW, u64::MAX] {
            let config = OrderingConfig {
                max_batch: 1,
                window,
            };
            let secret = SecretKey::from_seed(Backend::Sim, &[30; 32]);
            let view = View {
                id: 0,
                members: vec![secret.public_key()],
            };
            let core = OrderingCore::new(0, view, secret, config, 0);
            assert!(
                core.window() <= MAX_WINDOW,
                "window {window}: {}",
                core.window()
            );
            assert_eq!(
                core.config.window,
                window.clamp(1, MAX_WINDOW - INSTANCE_WINDOW)
            );
        }
    }

    #[test]
    fn requests_are_ordered_and_delivered_everywhere() {
        let mut cores = make_cluster(4);
        let mut initial = Vec::new();
        for i in 0..6u64 {
            for out in cores[0].submit(req(i, 0)) {
                initial.push((0usize, out));
            }
        }
        let delivered = pump(&mut cores, initial, &[]);
        for (r, batches) in delivered.iter().enumerate() {
            let total: usize = batches.iter().map(|b| b.requests.len()).sum();
            assert_eq!(total, 6, "replica {r} delivered {total}");
            // max_batch = 4 so at least two instances ran.
            assert!(batches.len() >= 2, "replica {r}");
            // Instances are delivered in order.
            let ids: Vec<u64> = batches.iter().map(|b| b.instance).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted);
        }
        // All replicas delivered identical sequences.
        let seq0: Vec<(u64, u64)> = delivered[0]
            .iter()
            .flat_map(|b| b.requests.iter().map(Request::id))
            .collect();
        for r in 1..4 {
            let seq: Vec<(u64, u64)> = delivered[r]
                .iter()
                .flat_map(|b| b.requests.iter().map(Request::id))
                .collect();
            assert_eq!(seq, seq0, "replica {r} ordering differs");
        }
    }

    #[test]
    fn duplicate_requests_delivered_once() {
        let mut cores = make_cluster(4);
        let mut initial = Vec::new();
        // The same request admitted twice at the leader plus once elsewhere.
        for out in cores[0].submit(req(7, 1)) {
            initial.push((0usize, out));
        }
        for out in cores[0].submit(req(7, 1)) {
            initial.push((0usize, out));
        }
        for out in cores[1].submit(req(7, 1)) {
            initial.push((1usize, out));
        }
        let delivered = pump(&mut cores, initial, &[]);
        for (r, batches) in delivered.iter().enumerate() {
            let ids: Vec<(u64, u64)> = batches
                .iter()
                .flat_map(|b| b.requests.iter().map(Request::id))
                .collect();
            assert_eq!(ids, vec![(7, 1)], "replica {r}: {ids:?}");
        }
    }

    #[test]
    fn proofs_attached_to_deliveries_verify() {
        let mut cores = make_cluster(4);
        let view = cores[0].view().clone();
        let mut initial = Vec::new();
        for out in cores[0].submit(req(1, 1)) {
            initial.push((0usize, out));
        }
        let delivered = pump(&mut cores, initial, &[]);
        for batches in &delivered {
            for b in batches {
                assert!(b.proof.verify(&view), "delivery proof must verify");
            }
        }
    }

    #[test]
    fn progress_resumes_after_leader_change() {
        let mut cores = make_cluster(4);
        // Leader 0 is down; submit to the others.
        let mut initial = Vec::new();
        for r in 1..4usize {
            for out in cores[r].submit(req(42, 5)) {
                initial.push((r, out));
            }
        }
        // Nothing decides while leader is down.
        let delivered = pump(&mut cores, initial, &[0]);
        assert!(delivered.iter().all(|d| d.is_empty()));
        // Timeouts fire at the live replicas.
        let delivered = two_timeout_rounds(&mut cores, Vec::new());
        for r in 1..4usize {
            let total: usize = delivered[r].iter().map(|b| b.requests.len()).sum();
            assert_eq!(total, 1, "replica {r} must deliver after leader change");
        }
        for r in 1..4usize {
            assert_eq!(cores[r].regency(), 1);
            assert_eq!(cores[r].leader(), 1);
        }
    }

    #[test]
    fn submit_on_follower_does_not_propose() {
        let mut cores = make_cluster(4);
        let outs = cores[2].submit(req(1, 1));
        assert!(
            outs.iter().all(|o| !matches!(
                o,
                CoreOutput::Broadcast(SmrMsg::Consensus(ConsensusMsg::Propose { .. }))
            )),
            "followers must not propose"
        );
    }

    #[test]
    fn far_future_instance_triggers_state_transfer_request() {
        let mut cores = make_cluster(4);
        let sig = SecretKey::from_seed(Backend::Sim, &[30u8; 32]).sign(b"w");
        let outs = cores[3].on_message(
            0,
            SmrMsg::Consensus(ConsensusMsg::Write {
                instance: 100,
                epoch: 0,
                value_hash: [0u8; 32],
                signature: sig,
            }),
        );
        assert!(outs.iter().any(|o| matches!(
            o,
            CoreOutput::NeedStateTransfer {
                observed_instance: 100
            }
        )));
    }

    #[test]
    fn fast_forward_skips_instances() {
        let mut cores = make_cluster(4);
        cores[0].fast_forward(50);
        assert_eq!(cores[0].last_delivered(), 50);
        // Traffic for instance 51 is now in-window.
        let sig = SecretKey::from_seed(Backend::Sim, &[31u8; 32]).sign(b"w");
        let outs = cores[0].on_message(
            1,
            SmrMsg::Consensus(ConsensusMsg::Write {
                instance: 51,
                epoch: 0,
                value_hash: [0u8; 32],
                signature: sig,
            }),
        );
        assert!(outs
            .iter()
            .all(|o| !matches!(o, CoreOutput::NeedStateTransfer { .. })));
    }

    /// Orders `total` requests in closed-loop rounds of 64 (client `i`
    /// sends seq `round + 1`), each submitted to all four cores the way
    /// clients fan out, and checks after every round that no core's request
    /// pool holds more than twice its live requests plus 64 and that every
    /// core delivered the same sequence. With `stray`, one extra request
    /// reaches replica 2 only — never the leader — so it stays live at the
    /// front of that follower's pool for the whole run.
    fn run_fan_out_rounds(alpha: u64, total: u64, stray: bool) {
        let mut cores = make_cluster_alpha(4, 64, alpha);
        if stray {
            assert!(cores[2].submit(req(1_000_000, 1)).is_empty());
        }
        let mut delivered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 4];
        let rounds = total.div_ceil(64);
        for round in 0..rounds {
            let mut initial = Vec::new();
            for client in 0..64.min(total - round * 64) {
                for r in 0..4 {
                    for out in cores[r].submit(req(client, round + 1)) {
                        initial.push((r, out));
                    }
                }
            }
            let batches = pump(&mut cores, initial, &[]);
            for (r, core) in cores.iter().enumerate() {
                delivered[r].extend(
                    batches[r]
                        .iter()
                        .flat_map(|b| b.requests.iter().map(Request::id)),
                );
                assert!(
                    core.pending.len() <= 2 * core.pending_ids.len() + 64,
                    "α={alpha} round {round}: replica {r} holds {} entries for {} live",
                    core.pending.len(),
                    core.pending_ids.len()
                );
            }
        }
        assert_eq!(delivered[0].len() as u64, total, "α={alpha}");
        for r in 1..4 {
            assert_eq!(delivered[r], delivered[0], "α={alpha}: replica {r}");
        }
        for (r, core) in cores.iter().enumerate() {
            let live = usize::from(stray && r == 2);
            assert_eq!(core.pending_len(), live, "α={alpha}: replica {r}");
        }
    }

    /// State transfer past `(c,3)` drops `(c,1)..(c,3)` from a follower's
    /// pool, so its progress timer stops firing STOPs once it is idle.
    #[test]
    fn seeding_the_frontier_drops_every_covered_pending_request() {
        let mut cores = make_cluster(4);
        for r in [req(7, 1), req(7, 2), req(7, 3), req(8, 1)] {
            assert!(cores[2].submit(r).is_empty());
        }
        cores[2].seed_delivered(&[(7, 3)]);
        assert_eq!(cores[2].pending_len(), 1, "only (8,1) is still live");
        cores[2].seed_delivered(&[(8, 1)]);
        assert_eq!(cores[2].pending_len(), 0);
        assert!(cores[2].on_progress_timeout().is_empty(), "no STOP");
        assert!(cores[2].submit(req(7, 2)).is_empty() && cores[2].pending_len() == 0);
    }

    /// Followers drop ordered requests: with every request sent to every
    /// replica, no core's pool grows with the number of requests ordered.
    #[test]
    fn request_pool_stays_bounded_on_every_replica() {
        for alpha in [1, 4] {
            run_fan_out_rounds(alpha, 20_000, false);
        }
    }

    /// A live request at the front of a follower's pool (it reached that
    /// follower only) must not pin the dead entries queued behind it.
    #[test]
    fn request_pool_stays_bounded_behind_a_live_head() {
        for alpha in [1, 4] {
            run_fan_out_rounds(alpha, 5_000, true);
        }
    }

    /// α = 4, max_batch = 1: four submissions open four concurrent
    /// instances immediately, each claiming a distinct request — and the
    /// whole pipeline delivers in instance order everywhere.
    #[test]
    fn pipelined_leader_opens_alpha_instances() {
        let mut cores = make_cluster_alpha(4, 1, 4);
        let mut initial = Vec::new();
        let mut proposed_instances = Vec::new();
        for i in 0..6u64 {
            for out in cores[0].submit(req(20 + i, 1)) {
                if let CoreOutput::Broadcast(SmrMsg::Consensus(ConsensusMsg::Propose {
                    instance,
                    ..
                })) = &out
                {
                    proposed_instances.push(*instance);
                }
                initial.push((0usize, out));
            }
        }
        // Six requests, window of four: exactly instances 1..=4 open.
        assert_eq!(proposed_instances, vec![1, 2, 3, 4]);
        let delivered = pump(&mut cores, initial, &[]);
        for (r, batches) in delivered.iter().enumerate() {
            let ids: Vec<(u64, u64)> = batches
                .iter()
                .flat_map(|b| b.requests.iter().map(Request::id))
                .collect();
            assert_eq!(
                ids,
                (0..6u64).map(|i| (20 + i, 1)).collect::<Vec<_>>(),
                "replica {r} must deliver all six requests in submission order"
            );
            let instances: Vec<u64> = batches.iter().map(|b| b.instance).collect();
            assert_eq!(instances, vec![1, 2, 3, 4, 5, 6], "replica {r}");
        }
    }

    /// Leader crash with α = 4 open instances: replicas 1 and 2 hold write
    /// certificates for all four in-flight values (any of which could have
    /// decided), the leader dies, and the regency change must recover every
    /// locked value at its own instance and deliver them in order — no
    /// decided value lost, no hole, no reordering.
    #[test]
    fn leader_crash_with_pipelined_instances_recovers_all_locked_values() {
        let mut cores = make_cluster_alpha(4, 1, 4);
        let n = 4usize;
        let mut queue: VecDeque<(usize, usize, SmrMsg)> = VecDeque::new();
        fn push_outs(
            n: usize,
            from: usize,
            outs: Vec<CoreOutput>,
            queue: &mut VecDeque<(usize, usize, SmrMsg)>,
        ) -> usize {
            let mut delivered = 0;
            for out in outs {
                match out {
                    CoreOutput::Broadcast(m) => {
                        for to in 0..n {
                            if to != from {
                                queue.push_back((from, to, m.clone()));
                            }
                        }
                    }
                    CoreOutput::Send(to, m) => queue.push_back((from, to, m)),
                    CoreOutput::Deliver(_) => delivered += 1,
                    CoreOutput::NeedStateTransfer { .. } => {}
                }
            }
            delivered
        }
        // Clients broadcast to every replica; the α = 4 leader opens four
        // instances (one request each at max_batch = 1).
        for i in 0..4u64 {
            for r in 0..n {
                let outs = cores[r].submit(req(30 + i, 1));
                push_outs(n, r, outs, &mut queue);
            }
        }
        // Phase 1: deliver everything except ACCEPTs, and nothing to or
        // from replica 3 — replicas 1 and 2 WRITE-lock all four values
        // (full write certificates) but nothing decides anywhere.
        let mut delivered_pre = 0;
        while let Some((from, to, msg)) = queue.pop_front() {
            if to == 3 || from == 3 {
                continue;
            }
            if matches!(msg, SmrMsg::Consensus(ConsensusMsg::Accept { .. })) {
                continue;
            }
            let outs = cores[to].on_message(from, msg);
            delivered_pre += push_outs(n, to, outs, &mut queue);
        }
        assert_eq!(delivered_pre, 0, "nothing may decide in phase 1");
        // Phase 2: leader 0 crashes; progress timeouts fire at the rest.
        let delivered = two_timeout_rounds(&mut cores, Vec::new());
        for r in 1..4usize {
            let ids: Vec<(u64, u64)> = delivered[r]
                .iter()
                .flat_map(|b| b.requests.iter().map(Request::id))
                .collect();
            assert_eq!(
                ids,
                vec![(30, 1), (31, 1), (32, 1), (33, 1)],
                "replica {r}: every locked in-flight value must survive the \
                 leader change at its own instance"
            );
            let instances: Vec<u64> = delivered[r].iter().map(|b| b.instance).collect();
            assert_eq!(instances, vec![1, 2, 3, 4], "replica {r} delivery order");
            assert_eq!(cores[r].regency(), 1, "replica {r}");
            assert_eq!(cores[r].leader(), 1, "replica {r}");
        }
    }

    /// A gap in the recovered window: only instances 2 and 4 were locked
    /// before the leader died. The new leader must fill instances 1 and 3
    /// (here with empty batches — nothing else is pending) so the locked
    /// values can deliver; order and content are preserved.
    #[test]
    fn view_change_fills_unlocked_gaps_below_carried_instances() {
        let mut cores = make_cluster_alpha(4, 1, 4);
        let n = 4usize;
        let mut queue: VecDeque<(usize, usize, SmrMsg)> = VecDeque::new();
        // Only the leader admits the requests (no follower retransmission):
        // after the crash the new leader has nothing pending, so gap slots
        // are filled with empty batches.
        for i in 0..4u64 {
            for out in cores[0].submit(req(40 + i, 1)) {
                match out {
                    CoreOutput::Broadcast(m) => {
                        for to in 0..n {
                            if to != 0 {
                                queue.push_back((0, to, m.clone()));
                            }
                        }
                    }
                    CoreOutput::Send(to, m) => queue.push_back((0, to, m)),
                    _ => {}
                }
            }
        }
        // Deliver only instance-2 and instance-4 traffic (no ACCEPTs, and
        // replica 3 partitioned): locks form at replicas 1 and 2 for
        // instances 2 and 4 only.
        while let Some((from, to, msg)) = queue.pop_front() {
            if to == 3 || from == 3 {
                continue;
            }
            let instance = match &msg {
                SmrMsg::Consensus(c) => c.instance(),
                _ => 0,
            };
            if !matches!(instance, 2 | 4) {
                continue;
            }
            if matches!(msg, SmrMsg::Consensus(ConsensusMsg::Accept { .. })) {
                continue;
            }
            let outs = cores[to].on_message(from, msg);
            for out in outs {
                match out {
                    CoreOutput::Broadcast(m) => {
                        for peer in 0..n {
                            if peer != to {
                                queue.push_back((to, peer, m.clone()));
                            }
                        }
                    }
                    CoreOutput::Send(peer, m) => queue.push_back((to, peer, m)),
                    CoreOutput::Deliver(_) => panic!("nothing may decide in phase 1"),
                    CoreOutput::NeedStateTransfer { .. } => {}
                }
            }
        }
        // A late client request reaches the survivors (they need pending
        // work for the progress timeout to fire), then timeouts fire.
        let mut initial = Vec::new();
        for r in 1..4usize {
            for out in cores[r].submit(req(99, 1)) {
                initial.push((r, out));
            }
        }
        let delivered = two_timeout_rounds(&mut cores, initial);
        for r in 1..3usize {
            let per_instance: Vec<(u64, usize)> = delivered[r]
                .iter()
                .take(4)
                .map(|b| (b.instance, b.requests.len()))
                .collect();
            assert_eq!(
                per_instance,
                vec![(1, 1), (2, 1), (3, 0), (4, 1)],
                "replica {r}: gap 1 takes the pending request, gap 3 fills \
                 empty, locked values stay at their slots"
            );
            let ids: Vec<(u64, u64)> = delivered[r]
                .iter()
                .flat_map(|b| b.requests.iter().map(Request::id))
                .collect();
            assert_eq!(ids, vec![(99, 1), (41, 1), (43, 1)], "replica {r}");
        }
    }

    /// α = 4, max_batch = 2, eight requests queued before leadership: the
    /// pipeline's per-slot claims must be disjoint, consecutive, and in
    /// submission order — pinning that the O(batch) claim cursor neither
    /// rescans nor skips.
    #[test]
    fn pipelined_batches_claim_disjoint_consecutive_requests() {
        let mut cores = make_cluster_alpha(4, 2, 4);
        let mut initial = Vec::new();
        for r in 1..4usize {
            for i in 0..8u64 {
                for out in cores[r].submit(req(60 + i, 1)) {
                    initial.push((r, out));
                }
            }
        }
        // Leader 0 is down; the timeouts hand leadership to replica 1,
        // whose try_propose fills all four slots from the queued backlog.
        let delivered = two_timeout_rounds(&mut cores, initial);
        let expected: Vec<Vec<(u64, u64)>> = (0..4u64)
            .map(|slot| vec![(60 + 2 * slot, 1), (61 + 2 * slot, 1)])
            .collect();
        for r in 1..4usize {
            let batches: Vec<Vec<(u64, u64)>> = delivered[r]
                .iter()
                .map(|b| b.requests.iter().map(Request::id).collect())
                .collect();
            assert_eq!(batches, expected, "replica {r}");
        }
    }

    /// A fetch for a decided instance is answered from the responder's
    /// shared buffers: value and proof ship, and no replayed messages.
    #[test]
    fn instance_fetch_of_a_decided_instance_ships_value_and_proof() {
        let mut cores = make_cluster_alpha(4, 1, 4);
        let initial = cores[0].submit(req(70, 1)).into_iter().map(|o| (0, o));
        // Replica 3 misses everything; the rest decide instance 1.
        pump(&mut cores, initial.collect(), &[3]);
        let fetch = SmrMsg::InstanceFetch {
            instance: 1,
            have: false,
        };
        let outs = cores[1].on_message(3, fetch);
        let [CoreOutput::Send(
            3,
            SmrMsg::InstanceRep {
                instance: 1,
                decided: Some((value, proof)),
                msgs,
            },
        )] = outs.as_slice()
        else {
            panic!("unexpected outputs {outs:?}");
        };
        assert!(msgs.is_empty(), "a decided instance ships no replay");
        assert_eq!(proof.value_hash, value.hash());
        assert!(
            proof.verify(cores[1].view()),
            "the shipped proof must verify"
        );
    }

    /// A replica that adopted the highest regency (a state-transfer
    /// shipper's report) survives two progress timeouts: the first still
    /// sends its repair round, the second finds no next regency and sends
    /// no STOP instead of overflowing.
    #[test]
    fn timeouts_at_the_highest_regency_send_no_stop() {
        let mut cores = make_cluster(4);
        let core = &mut cores[1];
        core.adopt_regency(u32::MAX);
        assert_eq!(core.regency(), u32::MAX);
        assert!(core.submit(req(5, 1)).is_empty(), "a follower only queues");
        let repair = core.on_progress_timeout();
        assert!(
            matches!(
                repair.as_slice(),
                [CoreOutput::Broadcast(SmrMsg::InstanceFetch { .. })]
            ),
            "{repair:?}"
        );
        let change = core.on_progress_timeout();
        assert!(change.is_empty(), "no STOP past u32::MAX: {change:?}");
        assert_eq!(core.regency(), u32::MAX);
    }
}

#[cfg(test)]
mod wire_len_tests {
    use super::*;
    use crate::types::{Reply, Request};
    use smartchain_crypto::keys::Backend;

    fn sig(seed: u8, msg: &[u8]) -> Signature {
        SecretKey::from_seed(Backend::Sim, &[seed; 32]).sign(msg)
    }

    #[test]
    fn len_matches_encoding() {
        let msgs = vec![
            SmrMsg::Request(Request {
                client: 1,
                seq: 2,
                payload: vec![1; 30],
                signature: None,
            }),
            SmrMsg::Consensus(ConsensusMsg::Propose {
                instance: 1,
                epoch: 0,
                value: vec![2; 50].into(),
            }),
            SmrMsg::Reply(Reply {
                client: 1,
                seq: 2,
                result: vec![3; 10],
                replica: 0,
            }),
            SmrMsg::StateReq { from_batch: 17 },
            SmrMsg::StateRep {
                covered: 8,
                snapshot: Some(vec![9; 40]),
                first_batch: 9,
                batches: vec![vec![1; 12], vec![2; 7]],
                regency: 2,
                cert: None,
            },
            SmrMsg::StateRep {
                covered: 8,
                snapshot: Some(vec![9; 40]),
                first_batch: 9,
                batches: Vec::new(),
                regency: 0,
                cert: Some(crate::durability::CheckpointCert {
                    covered: 8,
                    state_root: [7u8; 32],
                    tip: [8u8; 32],
                    signatures: vec![(0, sig(1, b"x")), (2, sig(2, b"y"))],
                }),
            },
            SmrMsg::CkptShare {
                replica: 3,
                covered: 16,
                state_root: [4u8; 32],
                tip: [5u8; 32],
                signature: sig(3, b"z"),
            },
            SmrMsg::InstanceFetch {
                instance: 12,
                have: true,
            },
            SmrMsg::InstanceRep {
                instance: 12,
                decided: Some((
                    vec![6; 20].into(),
                    Arc::new(DecisionProof {
                        instance: 12,
                        epoch: 1,
                        value_hash: [9u8; 32],
                        accepts: vec![(0, sig(4, b"a")), (1, sig(5, b"b")), (2, sig(6, b"c"))],
                    }),
                )),
                msgs: Vec::new(),
            },
            SmrMsg::InstanceRep {
                instance: 13,
                decided: None,
                msgs: vec![
                    ConsensusMsg::Write {
                        instance: 13,
                        epoch: 0,
                        value_hash: [1u8; 32],
                        signature: sig(7, b"w"),
                    },
                    ConsensusMsg::ValueReply {
                        instance: 13,
                        epoch: 0,
                        value: vec![2; 9].into(),
                    },
                ],
            },
        ];
        for m in msgs {
            assert_eq!(m.encoded_len(), m.to_vec().len());
            assert_eq!(
                m.wire_size(),
                smartchain_codec::FRAME_BYTES + m.to_vec().len()
            );
            let bytes = m.to_vec();
            let back: SmrMsg = smartchain_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }
}
