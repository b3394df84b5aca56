//! A real-time deployment of the SMR stack: one replica per OS
//! thread/process, wall-clock progress timeouts, real durable storage
//! through [`DurableApp`], and authenticated, reconnecting TCP links
//! ([`TcpTransport`]) — in-process over loopback ([`TcpCluster`]) or one
//! process per replica ([`serve_replica`]).
//!
//! A replica is one [`ReplicaHost`]: a sans-IO state machine over the
//! ordering core, the durable app, the verify pool, checkpoint-certificate
//! assembly and the runtime's state transfer, by which a replica that
//! restarted (or fell behind a torn link) fetches the missed batch suffix
//! from a peer and rejoins. The host reads no clock and touches no socket:
//! it takes [`NetEvent`]s and deadline ticks with the current instant and
//! writes through a [`NetSink`]. Both deployments run it under the same
//! socket pump — wait on the transport until the host's next deadline,
//! drain what arrived, step the host — and a test can run several hosts
//! over an in-memory net with a clock it advances by hand.

use crate::app::Application;
use crate::durability::{ckpt_sign_payload, CheckpointCert, DurableApp};
use crate::ordering::{CoreOutput, OrderedBatch, OrderingConfig, OrderingCore, SmrMsg};
use crate::transport::{
    ClusterConfig, Injector, NetEvent, NetSink, RecvError, StatsInner, TcpClient, TcpTransport,
    TransportStats,
};
use crate::types::{Reply, Request};
use smartchain_consensus::ReplicaId;
use smartchain_crypto::keys::{Backend, Signature};
use smartchain_crypto::pool::{VerifyItem, VerifyPool};
use smartchain_storage::testing::TempDir;
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads in each replica's signature-verification pool: the
/// verify stage checks client requests in batches off the ordering thread.
const VERIFY_WORKERS: usize = 2;

/// Configuration of an in-process [`TcpCluster`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of replicas (3f+1 for f faults).
    pub replicas: usize,
    /// Batch bound.
    pub max_batch: usize,
    /// Progress timeout: a deadline, reached when nothing was delivered
    /// for this long while requests are pending. The first expiry for a
    /// stalled frontier sends a repair round, the second a leader change.
    pub progress_timeout: Duration,
    /// Storage root (one subdirectory per replica); `None` = a fresh temp
    /// dir, removed when the cluster shuts down or drops.
    pub storage_dir: Option<PathBuf>,
    /// Checkpoint period in batches.
    pub checkpoint_period: u64,
    /// Reject unsigned requests in the verify stage. `false` (the embedded
    /// default) keeps signature-free deployments working; anything serving
    /// an open TCP surface should set it — see the verify stage's forgery
    /// note in [`ReplicaHost`]. `cluster.toml` deployments default to
    /// `true`.
    pub require_signed: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            replicas: 4,
            max_batch: 64,
            progress_timeout: Duration::from_millis(500),
            storage_dir: None,
            checkpoint_period: 128,
            require_signed: false,
        }
    }
}

// ---------------------------------------------------------------------------
// TCP deployment
// ---------------------------------------------------------------------------

struct TcpReplicaHandle {
    injector: Injector,
    stats: std::sync::Arc<StatsInner>,
    handle: JoinHandle<()>,
}

/// A 3f+1 cluster over real loopback sockets, one replica thread each —
/// the in-process stand-in for the multi-process deployment (which runs the
/// identical [`serve_replica`] loop, one process per replica).
pub struct TcpCluster<A: Application> {
    cluster: ClusterConfig,
    backend: Backend,
    root: PathBuf,
    /// The root this cluster created itself (`storage_dir: None`): removed
    /// once the replicas have stopped, kept while a panic unwinds.
    _temp_root: Option<TempDir>,
    make_app: Box<dyn Fn() -> A + Send + Sync>,
    replicas: Vec<Option<TcpReplicaHandle>>,
    client: TcpClient,
    next_seq: u64,
}

impl<A: Application> std::fmt::Debug for TcpCluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("replicas", &self.cluster.n())
            .field("addrs", &self.cluster.replicas)
            .finish_non_exhaustive()
    }
}

impl<A: Application> TcpCluster<A> {
    /// Boots `config.replicas` replica threads over loopback TCP on
    /// OS-assigned ports. `backend` selects the consensus-key scheme —
    /// [`Backend::Sim`] is fine in-process; multi-process deployments need
    /// [`Backend::Ed25519`].
    ///
    /// # Errors
    ///
    /// Propagates socket and storage initialization failures.
    pub fn start(
        config: RuntimeConfig,
        backend: Backend,
        make_app: impl Fn() -> A + Send + Sync + 'static,
    ) -> std::io::Result<TcpCluster<A>> {
        let n = config.replicas;
        // Bind first so every replica learns real ports, then hand each
        // pre-bound listener to its transport.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?.to_string());
            listeners.push(listener);
        }
        let mut secret = [0u8; 32];
        secret[..8].copy_from_slice(&(std::process::id() as u64).to_le_bytes());
        let mut cluster = ClusterConfig::new(addrs.clone(), secret);
        cluster.max_batch = config.max_batch;
        cluster.checkpoint_period = config.checkpoint_period;
        cluster.progress_timeout_ms = config.progress_timeout.as_millis() as u64;
        cluster.require_signed = config.require_signed;
        let (root, temp_root) = match config.storage_dir.clone() {
            Some(dir) => (dir, None),
            None => {
                let dir = TempDir::try_new("smartchain-tcp")?;
                (dir.to_path_buf(), Some(dir))
            }
        };
        let client = TcpClient::new(0xC11E28, addrs);
        let mut this = TcpCluster {
            cluster,
            backend,
            root,
            _temp_root: temp_root,
            make_app: Box::new(make_app),
            replicas: (0..n).map(|_| None).collect(),
            client,
            next_seq: 0,
        };
        for (me, listener) in listeners.into_iter().enumerate() {
            this.spawn_replica(me, Some(listener))?;
        }
        Ok(this)
    }

    /// The deployment descriptor (addresses, secret) this cluster runs on.
    pub fn cluster_config(&self) -> &ClusterConfig {
        &self.cluster
    }

    fn spawn_replica(
        &mut self,
        me: ReplicaId,
        listener: Option<TcpListener>,
    ) -> std::io::Result<()> {
        let listener = match listener {
            Some(l) => l,
            // A restart rebinds the replica's old port; accepted sockets of
            // the previous incarnation may hold it briefly (TIME_WAIT), so
            // retry within a bounded window.
            None => {
                let addr = &self.cluster.replicas[me];
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match TcpListener::bind(addr) {
                        Ok(l) => break l,
                        Err(e) if Instant::now() >= deadline => return Err(e),
                        Err(_) => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
            }
        };
        let transport = TcpTransport::from_listener(self.cluster.tcp_config(me), listener)?;
        let injector = transport.injector();
        let stats = transport.stats_handle();
        let durable = DurableApp::open(
            (self.make_app)(),
            self.root.join(format!("replica-{me}")),
            self.cluster.checkpoint_period,
        )?;
        let (cluster, backend) = (self.cluster.clone(), self.backend);
        let handle = std::thread::Builder::new()
            .name(format!("sc-replica-{me}"))
            .spawn(move || pump(transport, &cluster, me, backend, durable))
            .expect("spawn replica");
        self.replicas[me] = Some(TcpReplicaHandle {
            injector,
            stats,
            handle,
        });
        Ok(())
    }

    /// A snapshot of one live replica's transport counters (frames, bytes,
    /// writev coalescing, drops, admission rejections).
    pub fn transport_stats(&self, replica: ReplicaId) -> Option<TransportStats> {
        self.replicas
            .get(replica)?
            .as_ref()
            .map(|h| h.stats.snapshot())
    }

    /// Kills a replica: its loop exits, its transport tears down every
    /// connection (peers see torn links and redial into nothing until a
    /// restart).
    pub fn kill_replica(&mut self, replica: ReplicaId) {
        if let Some(h) = self.replicas.get_mut(replica).and_then(Option::take) {
            h.injector.send(NetEvent::Shutdown);
            let _ = h.handle.join();
        }
    }

    /// Restarts a previously killed replica on its old address and storage
    /// directory: it recovers its durable prefix locally and state-transfers
    /// the missed suffix from its peers.
    ///
    /// # Errors
    ///
    /// Propagates socket and storage failures.
    pub fn restart_replica(&mut self, replica: ReplicaId) -> std::io::Result<()> {
        if self.replicas[replica].is_some() {
            return Ok(()); // still running
        }
        self.spawn_replica(replica, None)
    }

    /// Submits an operation and waits for `f+1` matching replies.
    ///
    /// # Errors
    ///
    /// Returns `TimedOut` if no quorum forms within `deadline`.
    pub fn execute(&mut self, payload: Vec<u8>, deadline: Duration) -> std::io::Result<Vec<u8>> {
        self.next_seq += 1;
        let request = Request {
            client: 0xC11E28,
            seq: self.next_seq,
            payload,
            signature: None,
        };
        self.execute_request(request, deadline)
    }

    /// Submits a pre-built (e.g. signed) request and waits for `f+1`
    /// matching replies.
    ///
    /// # Errors
    ///
    /// Returns `TimedOut` if no quorum forms within `deadline`.
    pub fn execute_request(
        &mut self,
        request: Request,
        deadline: Duration,
    ) -> std::io::Result<Vec<u8>> {
        self.next_seq = self.next_seq.max(request.seq);
        let quorum = self.cluster.f() + 1;
        self.client.execute_request(request, quorum, deadline)
    }

    /// Shuts every replica down and joins all threads — what dropping the
    /// cluster does.
    pub fn shutdown(self) {}
}

impl<A: Application> Drop for TcpCluster<A> {
    /// Stops every replica before the fields drop, so a temp root goes
    /// only once nothing writes to it.
    fn drop(&mut self) {
        for replica in 0..self.replicas.len() {
            self.kill_replica(replica);
        }
    }
}

/// Runs one replica of a multi-process deployment on the current thread:
/// binds `cluster.replicas[me]`, recovers durable state from `storage_dir`,
/// and pumps the replica's [`ReplicaHost`] until the process is killed.
/// This is what the `replica` example binary calls; pair it with
/// [`TcpClient`] (the `client` example).
///
/// # Errors
///
/// Propagates socket and storage initialization failures.
pub fn serve_replica<A: Application>(
    cluster: &ClusterConfig,
    me: ReplicaId,
    backend: Backend,
    storage_dir: PathBuf,
    app: A,
) -> std::io::Result<()> {
    let transport = TcpTransport::bind(cluster.tcp_config(me))?;
    let durable = DurableApp::open(app, storage_dir, cluster.checkpoint_period)?;
    pump(transport, cluster, me, backend, durable);
    Ok(())
}

// ---------------------------------------------------------------------------
// The replica host
// ---------------------------------------------------------------------------

/// Payload prefix marking a light-client read-proof request. Such requests
/// are served locally from the replica's latest *certified* checkpoint —
/// they are never ordered, never executed, and need no signature: the reply
/// (an encoded [`crate::durability::ReadProof`]) verifies against the
/// view's public keys, so the trust lives in the quorum certificate, not in
/// which replica answered.
pub const READ_PROOF_MAGIC: [u8; 4] = [0xE3, b'r', b'd', 0x01];

/// Builds the request payload asking for chunk `chunk` of the certified
/// state (see [`READ_PROOF_MAGIC`]).
pub fn read_proof_request_payload(chunk: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&READ_PROOF_MAGIC);
    out.extend_from_slice(&chunk.to_le_bytes());
    out
}

/// Parses a read-proof request payload back into its chunk index.
pub fn parse_read_proof_request(payload: &[u8]) -> Option<u64> {
    let rest = payload.strip_prefix(READ_PROOF_MAGIC.as_slice())?;
    Some(u64::from_le_bytes(rest.try_into().ok()?))
}

/// Collects gossiped checkpoint-certificate shares ([`SmrMsg::CkptShare`])
/// until a quorum matches this replica's own newest checkpoint basis, then
/// assembles and stores the [`CheckpointCert`]. Shares for other bases are
/// kept until their covered point is superseded — replicas checkpoint at
/// the same batch numbers but not at the same wall-clock instant.
///
/// What a peer can make it hold is bounded: a peer speaks only for itself,
/// and only its shares for its [`SHARES_PER_REPLICA`] highest covered
/// points are kept, so at most `SHARES_PER_REPLICA × n` entries exist
/// whatever the peers send.
struct CertAssembly {
    /// Per-replica shares `(covered, state_root, tip, signature)`, in
    /// ascending `covered` order.
    shares: HashMap<ReplicaId, Vec<CkptShareEntry>>,
}

type CkptShareEntry = (u64, [u8; 32], [u8; 32], Signature);

/// Covered points kept per replica: its newest checkpoint and the one
/// before, so a peer one checkpoint ahead of us still contributes.
const SHARES_PER_REPLICA: usize = 2;

impl CertAssembly {
    fn new() -> Self {
        CertAssembly {
            shares: HashMap::new(),
        }
    }

    /// Records `replica`'s share as received from `from` (`me` for this
    /// replica's own share). A share naming any replica other than its
    /// authenticated sender is dropped: otherwise a Byzantine peer could
    /// pre-empt a correct replica's genuine share with a junk one.
    fn note(
        &mut self,
        from: ReplicaId,
        replica: ReplicaId,
        covered: u64,
        state_root: [u8; 32],
        tip: [u8; 32],
        signature: Signature,
    ) {
        if replica != from {
            return;
        }
        let entries = self.shares.entry(replica).or_default();
        let Err(at) = entries.binary_search_by_key(&covered, |e| e.0) else {
            return; // first share per replica and covered point wins
        };
        entries.insert(at, (covered, state_root, tip, signature));
        if entries.len() > SHARES_PER_REPLICA {
            entries.remove(0);
        }
    }

    fn try_assemble<A: Application>(&mut self, core: &OrderingCore, durable: &mut DurableApp<A>) {
        let Some((covered, state_root, tip)) = durable.latest_checkpoint_basis() else {
            return;
        };
        if durable.checkpoint_cert().is_some() {
            self.prune(covered);
            return;
        }
        // Only shares agreeing with OUR basis count, and each signature is
        // checked against the signer's view key — a Byzantine replica can
        // neither vote twice nor smuggle a foreign root into the quorum.
        let view = core.view();
        let payload = ckpt_sign_payload(covered, &state_root, &tip);
        let mut signatures: Vec<(ReplicaId, Signature)> = Vec::new();
        for (&replica, entries) in &self.shares {
            let Some((_, _, _, sig)) = entries
                .iter()
                .find(|(c, root, t, _)| *c == covered && *root == state_root && *t == tip)
            else {
                continue;
            };
            let Some(key) = view.members.get(replica) else {
                continue;
            };
            if key.verify(&payload, sig) {
                signatures.push((replica, *sig));
            }
        }
        if signatures.len() >= view.quorum() {
            signatures.sort_unstable_by_key(|(r, _)| *r);
            let _ = durable.store_checkpoint_cert(CheckpointCert {
                covered,
                state_root,
                tip,
                signatures,
            });
            self.prune(covered);
        }
    }

    fn prune(&mut self, covered: u64) {
        for entries in self.shares.values_mut() {
            entries.retain(|e| e.0 > covered);
        }
    }
}

/// Runtime state-transfer bookkeeping: which peer we asked, and when.
struct SyncAttempt {
    asked_at: Instant,
    attempt: usize,
}

/// The shipper for retry `attempt`: highest-id peers first (the designated
/// non-leader shipper rule), rotating on unanswered attempts so one crashed
/// peer cannot wedge recovery.
fn shipper_for(me: ReplicaId, n: usize, attempt: usize) -> ReplicaId {
    let order: Vec<ReplicaId> = (0..n).rev().filter(|&r| r != me).collect();
    order[attempt % order.len()]
}

/// One replica of the deployment as a sans-IO state machine: the ordering
/// core, the durable app, the verify pool, checkpoint-certificate assembly,
/// the runtime's state transfer and the progress deadline.
///
/// It reads no clock and touches no socket. Its caller hands it the
/// transport's [`NetEvent`]s in arrival order ([`step`](Self::step)) and a
/// tick once [`next_deadline`](Self::next_deadline) has passed
/// ([`on_deadline`](Self::on_deadline)), each with the current instant, and
/// it writes through a [`NetSink`]. On sockets that caller is the pump that
/// [`TcpCluster`] and [`serve_replica`] run.
pub struct ReplicaHost<A: Application> {
    core: OrderingCore,
    durable: DurableApp<A>,
    pool: VerifyPool,
    certs: CertAssembly,
    /// In-flight runtime state transfer, if any.
    syncing: Option<SyncAttempt>,
    timeout: Duration,
    require_signed: bool,
    /// The last delivery, or the state transfer that ended a sync.
    last_progress: Instant,
    /// When the timer arm runs next. It is a deadline, not a silence: a
    /// client retransmitting every 500 ms or peers' repair traffic must not
    /// hold off a replica's progress timeout. Each run of the arm and each
    /// delivery pushes it one timeout on.
    next_check: Instant,
    /// Consecutive client requests of the current step, verified as one
    /// pool job (the verify stage's group commit).
    run: Vec<Request>,
    /// `SC_RT_DEBUG` was set at construction: log timeouts and rejected
    /// state replies to stderr.
    debug: bool,
}

impl<A: Application> ReplicaHost<A> {
    /// Recovers replica `me` of `cluster` over its opened `durable` app at
    /// instant `now`: the ordering core resumes at the durable batch count,
    /// and its duplicate filter is seeded from the durable reply records —
    /// a restarted replica must not re-admit (or, once it leads, re-propose)
    /// requests its pre-crash incarnation delivered. Spawns the verify pool,
    /// so its workers carry the calling thread's name.
    pub fn new(
        cluster: &ClusterConfig,
        me: ReplicaId,
        backend: Backend,
        durable: DurableApp<A>,
        now: Instant,
    ) -> ReplicaHost<A> {
        let mut core = OrderingCore::new(
            me,
            cluster.view(backend),
            cluster.replica_secret(me, backend),
            OrderingConfig {
                max_batch: cluster.max_batch,
                ..OrderingConfig::default()
            },
            durable.batches_applied(),
        );
        core.seed_delivered(&durable.delivered_frontier());
        let timeout = Duration::from_millis(cluster.progress_timeout_ms.max(1));
        ReplicaHost {
            core,
            durable,
            pool: VerifyPool::new(VERIFY_WORKERS),
            certs: CertAssembly::new(),
            syncing: None,
            timeout,
            require_signed: cluster.require_signed,
            last_progress: now,
            next_check: now + timeout,
            run: Vec::new(),
            debug: std::env::var_os("SC_RT_DEBUG").is_some(),
        }
    }

    /// The ordering core.
    pub fn core(&self) -> &OrderingCore {
        &self.core
    }

    /// The durable app.
    pub fn durable(&self) -> &DurableApp<A> {
        &self.durable
    }

    /// When [`on_deadline`](Self::on_deadline) is due.
    pub fn next_deadline(&self) -> Instant {
        self.next_check
    }

    /// Handles `events` in arrival order at instant `now`. Each run of
    /// consecutive client requests is verified as one pool job. Returns
    /// `false` once the replica stopped — on [`NetEvent::Shutdown`], or
    /// when a decided batch could not be applied — and must not be stepped
    /// again.
    pub fn step<S: NetSink>(
        &mut self,
        events: impl IntoIterator<Item = NetEvent>,
        now: Instant,
        net: &mut S,
    ) -> bool {
        for event in events {
            if !matches!(event, NetEvent::Client(_)) && !self.flush_run(now, net) {
                return false;
            }
            let outputs = match event {
                NetEvent::Client(request) => {
                    self.run.push(request);
                    continue;
                }
                NetEvent::Shutdown => return false,
                NetEvent::PeerUp(peer) => {
                    // A (re)established link: re-send synchronizer state the
                    // peer cannot regenerate, and nudge our own recovery if
                    // we were waiting on exactly this peer.
                    if let Some(sync) = &self.syncing {
                        if shipper_for(self.core.id(), self.core.view().n(), sync.attempt) == peer {
                            self.request_state(sync.attempt, now, net);
                        }
                    }
                    self.core.on_peer_reconnect(peer)
                }
                NetEvent::Peer { from, msg } => self.on_peer(from, msg, now, net),
            };
            if !self.emit(outputs, now, net) {
                return false;
            }
        }
        self.flush_run(now, net)
    }

    /// The timer arm, due at [`next_deadline`](Self::next_deadline). The
    /// first expiry for a stalled frontier sends a repair round, the second
    /// a STOP; a replica behind a hole, or one whose state request went
    /// unanswered, asks the next shipper instead. Returns `false` once the
    /// replica stopped, as [`step`](Self::step) does.
    pub fn on_deadline<S: NetSink>(&mut self, now: Instant, net: &mut S) -> bool {
        self.next_check = now + self.timeout;
        if let Some(sync) = &self.syncing {
            // Unanswered state request: rotate shippers. Give up —
            // re-enabling the normal timeout/view-change path — once every
            // peer was tried and the delivery gap healed through ordinary
            // consensus, or after two full rotations regardless: if no
            // peer's log can serve the gap (e.g. an instance that died
            // undecided with a crashed leader), only a leader change can
            // fill it, and a replica stuck in `syncing` forever would never
            // vote for one.
            if now.saturating_duration_since(sync.asked_at) >= self.timeout {
                let next = sync.attempt + 1;
                let peers = self.core.view().n().saturating_sub(1).max(1);
                if next >= peers && (self.core.stalled_behind().is_none() || next >= 2 * peers) {
                    self.syncing = None;
                } else {
                    self.request_state(next, now, net);
                }
            }
        } else if now.saturating_duration_since(self.last_progress) < self.timeout {
            // Progress within the last timeout: nothing is due.
        } else if self.core.stalled_behind().is_some() {
            // Decisions are buffered past a hole nobody will re-run
            // consensus for (we restarted or our link dropped the
            // decision): fetch the gap from a peer.
            self.request_state(0, now, net);
        } else if self.core.pending_len() > 0 {
            if self.debug {
                eprintln!(
                    "[rt] replica {} timeout: regency={} leader={} pending={} ld={}",
                    self.core.id(),
                    self.core.regency(),
                    self.core.leader(),
                    self.core.pending_len(),
                    self.core.last_delivered()
                );
            }
            let outputs = self.core.on_progress_timeout();
            return self.emit(outputs, now, net);
        }
        true
    }

    fn on_peer<S: NetSink>(
        &mut self,
        from: ReplicaId,
        msg: SmrMsg,
        now: Instant,
        net: &mut S,
    ) -> Vec<CoreOutput> {
        match msg {
            SmrMsg::StateReq { from_batch } => {
                // Serve from our durable log + snapshot; the requester
                // validates contiguity on its side.
                if let Ok(reply) = self.durable.state_reply(from_batch) {
                    net.send(
                        from,
                        SmrMsg::StateRep {
                            covered: reply.covered,
                            snapshot: reply.snapshot,
                            first_batch: reply.first_batch,
                            batches: reply.batches,
                            regency: self.core.regency(),
                            cert: reply.cert,
                        },
                    );
                }
                Vec::new()
            }
            SmrMsg::StateRep {
                covered,
                snapshot,
                first_batch,
                batches,
                regency,
                cert,
            } => {
                if self.syncing.is_some() {
                    let advanced =
                        self.install_state_reply(covered, snapshot, cert, first_batch, &batches);
                    // The shipper's regency heals a replica that slept
                    // through leader changes and would otherwise drop all
                    // current-epoch traffic (and solo-escalate STOPs).
                    self.core.adopt_regency(regency);
                    if advanced || self.core.stalled_behind().is_none() {
                        // Either we caught up from this reply, or there was
                        // nothing to fetch (a spurious round): resume the
                        // normal timeout/view-change path immediately.
                        self.syncing = None;
                        self.last_progress = now;
                    }
                    // Otherwise stay syncing; the timeout path rotates to
                    // another shipper.
                }
                Vec::new()
            }
            // A peer-forwarded request takes the same verify stage as a
            // client-submitted one — the forwarding link authenticates the
            // *replica*, not the request's client.
            SmrMsg::Request(request) => self.verify_and_submit(std::slice::from_ref(&request)),
            SmrMsg::CkptShare {
                replica,
                covered,
                state_root,
                tip,
                signature,
            } => {
                self.certs
                    .note(from, replica, covered, state_root, tip, signature);
                self.certs.try_assemble(&self.core, &mut self.durable);
                Vec::new()
            }
            msg => {
                // Consensus traffic from an epoch ahead of our regency means
                // we missed a leader change (restart or long partition): the
                // STOP/STOPDATA exchange is gone, so only state transfer —
                // whose reply carries the shipper's regency — can rejoin us.
                if self.syncing.is_none() {
                    if let SmrMsg::Consensus(c) = &msg {
                        if c.epoch().is_some_and(|e| e > self.core.regency()) {
                            self.request_state(0, now, net);
                        }
                    }
                }
                self.core.on_message(from, msg)
            }
        }
    }

    /// Answers from local state what the queued client run can be answered
    /// with, and submits the rest through the verify stage. Returns `false`
    /// once the replica stopped.
    fn flush_run<S: NetSink>(&mut self, now: Instant, net: &mut S) -> bool {
        if self.run.is_empty() {
            return true;
        }
        let me = self.core.id();
        let mut run = std::mem::take(&mut self.run);
        // Light-client read-proof requests are answered locally from the
        // certified checkpoint — never ordered. When we cannot serve one (no
        // certificate assembled yet, index out of range) we stay silent and
        // let the client retry or ask another replica.
        run.retain(|request| {
            let Some(chunk) = parse_read_proof_request(&request.payload) else {
                return true;
            };
            if let Ok(Some(proof)) = self.durable.prove_state_chunk(chunk) {
                net.reply(Reply {
                    client: request.client,
                    seq: request.seq,
                    result: smartchain_codec::to_bytes(&proof),
                    replica: me,
                });
            }
            false
        });
        // A client whose every reply copy was lost retransmits; the
        // retransmission lands inside the dedup frontier, so the durable
        // reply record answers it — silence would wedge the client forever.
        // The record survives restarts and arrives with state transfer, so
        // those deliveries are answered too.
        run.retain(|request| match self.durable.last_reply(request.client) {
            Some((seq, result)) if request.seq <= seq => {
                if request.seq == seq {
                    net.reply(Reply {
                        client: request.client,
                        seq,
                        result: result.to_vec(),
                        replica: me,
                    });
                }
                false
            }
            _ => true,
        });
        let outputs = self.verify_and_submit(&run);
        run.clear();
        self.run = run; // keep the allocation for the next run
        self.emit(outputs, now, net)
    }

    /// Batched verify stage: checks every signed request in `batch` on the
    /// pool lanes at once and feeds the survivors to the order stage.
    /// Unsigned requests pass through only when the deployment does not
    /// `require_signed` — on an open TCP surface an unsigned request would
    /// let any network peer forge another client's `(client, seq)` and
    /// poison its duplicate filter, so public deployments must require
    /// signatures.
    fn verify_and_submit(&mut self, batch: &[Request]) -> Vec<CoreOutput> {
        let mut checks = Vec::new();
        let mut passed = Vec::new();
        for (i, request) in batch.iter().enumerate() {
            match &request.signature {
                Some((key, sig)) => checks.push(VerifyItem {
                    tag: i,
                    public: *key,
                    msg: Request::sign_payload(request.client, request.seq, &request.payload),
                    sig: *sig,
                }),
                None if !self.require_signed => passed.push(i),
                None => {} // unsigned request on a signature-requiring deployment
            }
        }
        passed.extend(
            self.pool
                .verify_tagged(checks)
                .into_iter()
                .filter_map(|(i, ok)| ok.then_some(i)),
        );
        passed.sort_unstable(); // keep arrival order among survivors
        passed
            .into_iter()
            .flat_map(|i| self.core.submit(batch[i].clone()))
            .collect()
    }

    /// Puts the core's outputs on the wire in emission order (a SYNC must
    /// precede the re-proposal it enables) and applies delivered batches.
    /// Returns `false` once the replica stopped.
    fn emit<S: NetSink>(&mut self, outputs: Vec<CoreOutput>, now: Instant, net: &mut S) -> bool {
        for out in outputs {
            match out {
                CoreOutput::Broadcast(msg) => net.broadcast(&msg),
                CoreOutput::Send(to, msg) => net.send(to, msg),
                CoreOutput::Deliver(batch) => {
                    if !self.deliver(&batch, now, net) {
                        return false;
                    }
                }
                CoreOutput::NeedStateTransfer { .. } => {
                    if self.syncing.is_none() {
                        self.request_state(0, now, net);
                    }
                }
            }
        }
        true
    }

    /// Applies a decided batch, answers its clients and, when the batch cut
    /// a checkpoint, signs and gossips the checkpoint's certificate share.
    /// Returns `false` when the batch could not be applied.
    fn deliver<S: NetSink>(&mut self, batch: &OrderedBatch, now: Instant, net: &mut S) -> bool {
        self.last_progress = now;
        self.next_check = now + self.timeout;
        let me = self.core.id();
        let results = match self.durable.apply_batch(batch) {
            Ok(results) => results,
            Err(e) => {
                // The core already advanced past this batch; continuing
                // without the record would shift the record-index ==
                // batch−1 mapping forever (our state replies would carry
                // wrong-numbered proofs). Crash-stop and let recovery +
                // state transfer heal on restart.
                eprintln!("replica {me}: apply_batch failed ({e}); halting");
                return false;
            }
        };
        // One fan-out per decided batch: the reactor queues every reply
        // before flushing.
        let replies = batch
            .requests
            .iter()
            .zip(results)
            .map(|(request, result)| Reply {
                client: request.client,
                seq: request.seq,
                result,
                replica: me,
            })
            .collect::<Vec<Reply>>();
        net.reply_all(replies);
        // A checkpoint was cut while applying: sign its basis and gossip
        // the share so the cluster can assemble the quorum certificate.
        if let Some((covered, state_root, tip)) = self.durable.take_checkpoint_announcement() {
            let signature = self
                .core
                .sign(&ckpt_sign_payload(covered, &state_root, &tip));
            self.certs.note(me, me, covered, state_root, tip, signature);
            self.certs.try_assemble(&self.core, &mut self.durable);
            net.broadcast(&SmrMsg::CkptShare {
                replica: me,
                covered,
                state_root,
                tip,
                signature,
            });
        }
        true
    }

    /// Asks retry `attempt`'s shipper for the batches after our durable
    /// prefix.
    fn request_state<S: NetSink>(&mut self, attempt: usize, now: Instant, net: &mut S) {
        let shipper = shipper_for(self.core.id(), self.core.view().n(), attempt);
        net.send(
            shipper,
            SmrMsg::StateReq {
                from_batch: self.durable.batches_applied() + 1,
            },
        );
        self.syncing = Some(SyncAttempt {
            asked_at: now,
            attempt,
        });
    }

    /// Installs a peer's state reply into the durable app and the ordering
    /// core's duplicate filter. Returns true when the local state advanced.
    ///
    /// The digest check runs first: every shipped record must carry a
    /// decision proof for its own batch number, content-bound
    /// (`sha256(value)` is the quorum-signed `value_hash`) and valid under
    /// the current view — and `install_remote` additionally requires the
    /// suffix to chain-hash onto this replica's tip. An HMAC-authenticated
    /// but Byzantine shipper can therefore no longer feed a recovering
    /// replica forged *batches* — and no longer a forged *snapshot* either:
    /// a snapshot running ahead of local state installs only when the
    /// shipped bytes re-chunk to the state root of a quorum-signed
    /// [`CheckpointCert`] (see [`DurableApp::install_remote`]). The core's
    /// duplicate filter is re-seeded from the installed reply records; those
    /// a shipped snapshot carries are not yet covered by the certificate
    /// (ROADMAP 7(d)).
    fn install_state_reply(
        &mut self,
        covered: u64,
        snapshot: Option<Vec<u8>>,
        cert: Option<CheckpointCert>,
        first_batch: u64,
        batches: &[Vec<u8>],
    ) -> bool {
        if !crate::durability::verify_shipped_suffix(self.core.view(), first_batch, batches) {
            return false; // forged/damaged suffix: rotate to another shipper
        }
        let before = self.durable.batches_applied();
        if let Err(e) = self.durable.install_remote(
            self.core.view(),
            covered,
            snapshot,
            cert.as_ref(),
            first_batch,
            batches,
        ) {
            if self.debug {
                eprintln!("[rt] state reply rejected: {e}");
            }
            return false; // uncertified/tampered snapshot or broken suffix
        }
        // The reply records cover the installed snapshot and suffix.
        self.core.seed_delivered(&self.durable.delivered_frontier());
        self.core.fast_forward(self.durable.batches_applied());
        self.durable.batches_applied() > before
    }
}

// ---------------------------------------------------------------------------
// The socket pump
// ---------------------------------------------------------------------------

/// The most events the pump hands the host in one step.
const DRAIN_MAX: usize = 512;

/// The socket pump both deployments run on a replica's thread: boots the
/// replica's host at the current instant, then until shutdown waits on the
/// transport until the host's next deadline and steps the host with what
/// arrived — or ticks the deadline when nothing did.
fn pump<A: Application>(
    mut transport: TcpTransport,
    cluster: &ClusterConfig,
    me: ReplicaId,
    backend: Backend,
    durable: DurableApp<A>,
) {
    let mut host = ReplicaHost::new(cluster, me, backend, durable, Instant::now());
    let mut drained = Vec::with_capacity(DRAIN_MAX);
    loop {
        let wait = host
            .next_deadline()
            .saturating_duration_since(Instant::now());
        let first = if wait.is_zero() {
            Err(RecvError::Timeout)
        } else {
            transport.recv_timeout(wait)
        };
        match first {
            Ok(event) => {
                // A client request opens a burst: drain what else already
                // queued, through the first other event, so that one pool
                // job verifies the burst (the verify stage's group commit).
                let mut burst = matches!(event, NetEvent::Client(_));
                drained.push(event);
                while burst && drained.len() < DRAIN_MAX {
                    let Some(event) = transport.try_recv() else {
                        break;
                    };
                    burst = matches!(event, NetEvent::Client(_));
                    drained.push(event);
                }
                if !host.step(drained.drain(..), Instant::now(), &mut transport) {
                    return;
                }
            }
            Err(RecvError::Timeout) if host.on_deadline(Instant::now(), &mut transport) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CounterApp;
    use smartchain_consensus::View;
    use smartchain_crypto::keys::SecretKey;
    use smartchain_storage::testing::TempDir;

    fn fresh_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("smartchain-rt-{tag}"))
    }

    /// With no `storage_dir` the cluster makes its own root, and shutting
    /// it down removes that root.
    #[test]
    fn own_temp_root_is_removed_at_shutdown() {
        let cluster = TcpCluster::start(RuntimeConfig::default(), Backend::Sim, CounterApp::new)
            .expect("boot");
        let root = cluster.root.clone();
        assert!(root.join("replica-0").is_dir());
        cluster.shutdown();
        assert!(!root.exists(), "{} left behind", root.display());
    }

    /// The whole cluster shuts down and boots again on the same storage:
    /// every replica recovers from its own disk.
    #[test]
    fn state_survives_restart_from_disk() {
        let dir = fresh_dir("restart");
        let config = RuntimeConfig {
            storage_dir: Some(dir.to_path_buf()),
            ..RuntimeConfig::default()
        };
        let mut cluster =
            TcpCluster::start(config.clone(), Backend::Sim, CounterApp::new).expect("boot");
        cluster
            .execute(vec![9], Duration::from_secs(10))
            .expect("op");
        cluster.shutdown();
        // Reboot on the same directories: the durable logs replay. A reused
        // (client, seq) is never re-executed — the recovered reply records
        // reject it — but they also answer the retransmission with the
        // ORIGINAL result, so a client that lost the reply to a restart
        // isn't wedged.
        let mut cluster = TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("reboot");
        // The cluster's built-in client id: TCP replies route by it.
        let client = 0xC11E28;
        let reused = Request {
            client,
            seq: 1, // the pre-restart op's sequence number
            payload: vec![100],
            signature: None,
        };
        let recorded = cluster
            .execute_request(reused, Duration::from_secs(10))
            .expect("retransmission answered from the recovered reply record");
        assert_eq!(
            u64::from_le_bytes(recorded[..8].try_into().unwrap()),
            9,
            "the recorded reply carries the original result, not a re-execution"
        );
        let fresh = Request {
            client,
            seq: 2,
            payload: vec![1],
            signature: None,
        };
        let r = cluster
            .execute_request(fresh, Duration::from_secs(10))
            .expect("op after reboot");
        assert_eq!(
            u64::from_le_bytes(r[..8].try_into().unwrap()),
            10,
            "9 + 1 across restart"
        );
        cluster.shutdown();
    }

    /// Replica 0's ordering core on an `n`-replica sim-key view, a durable
    /// app that has cut its first checkpoint, and the view's secret keys.
    fn cert_fixture(
        n: usize,
        tag: &str,
    ) -> (
        TempDir,
        OrderingCore,
        DurableApp<CounterApp>,
        Vec<SecretKey>,
    ) {
        let secrets: Vec<SecretKey> = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 70; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        let core = OrderingCore::new(0, view, secrets[0].clone(), OrderingConfig::default(), 0);
        let dir = fresh_dir(tag);
        let mut durable = DurableApp::open(CounterApp::new(), &dir, 2).expect("open");
        for seq in 0..2 {
            let request = Request {
                client: 1,
                seq,
                payload: vec![1],
                signature: None,
            };
            durable.apply_requests(&[request]).expect("apply");
        }
        (dir, core, durable, secrets)
    }

    /// A peer cannot speak for another replica: a junk share claiming to be
    /// replica 1's, sent by the last replica before 1's genuine share, is
    /// dropped, and the genuine share still completes the quorum (3 of 4,
    /// 5 of 7).
    #[test]
    fn forged_sender_ckpt_share_is_ignored() {
        for n in [4, 7] {
            let (_dir, core, mut durable, secrets) = cert_fixture(n, &format!("forged-share-{n}"));
            let quorum = core.view().quorum();
            let (covered, root, tip) = durable.latest_checkpoint_basis().expect("checkpoint");
            let payload = ckpt_sign_payload(covered, &root, &tip);
            let mut certs = CertAssembly::new();
            certs.note(n - 1, 1, covered, root, tip, secrets[n - 1].sign(b"junk"));
            for (r, secret) in secrets.iter().enumerate().take(quorum - 1) {
                certs.note(r, r, covered, root, tip, secret.sign(&payload));
            }
            certs.try_assemble(&core, &mut durable);
            assert!(
                durable.checkpoint_cert().is_none(),
                "n = {n}: {} genuine shares are no quorum",
                quorum - 1
            );
            let last = quorum - 1;
            certs.note(last, last, covered, root, tip, secrets[last].sign(&payload));
            certs.try_assemble(&core, &mut durable);
            let cert = durable
                .checkpoint_cert()
                .expect("a quorum of genuine shares");
            let signers: Vec<ReplicaId> = cert.signatures.iter().map(|(r, _)| *r).collect();
            assert_eq!(signers, (0..quorum).collect::<Vec<_>>(), "n = {n}");
            assert!(cert.verify(core.view()), "n = {n}");
        }
    }

    /// Peers flooding distinct covered points leave at most
    /// `SHARES_PER_REPLICA` shares each — their highest ones.
    #[test]
    fn ckpt_share_flood_stays_bounded() {
        let mut certs = CertAssembly::new();
        let junk = SecretKey::from_seed(Backend::Sim, &[9; 32]).sign(b"junk");
        for covered in 0..100_000u64 {
            for r in 0..4 {
                certs.note(r, r, covered, [0; 32], [0; 32], junk);
                certs.note(r, (r + 1) % 4, covered, [0; 32], [0; 32], junk);
            }
        }
        let held: usize = certs.shares.values().map(Vec::len).sum();
        assert!(held <= SHARES_PER_REPLICA * 4, "{held} shares held");
        for entries in certs.shares.values() {
            let kept: Vec<u64> = entries.iter().map(|e| e.0).collect();
            assert_eq!(kept, vec![99_998, 99_999]);
        }
    }
}
