//! A real-time deployment of the SMR stack: one replica loop per OS
//! thread/process, wall-clock progress timeouts, real durable storage
//! through [`DurableApp`], and authenticated, reconnecting TCP links
//! ([`TcpTransport`]) — in-process over loopback ([`TcpCluster`]) or one
//! process per replica ([`serve_replica`]). Both boot a replica the same
//! way: `open_replica` recovers it from disk and `run_replica` runs its
//! loop.
//!
//! The protocol cores are the same sans-IO state machines the simulator
//! drives; this module shows they run unchanged against real time, real
//! disks and real sockets. On these lossy links the loop also runs the
//! runtime's state transfer: a replica that restarted (or fell behind a
//! torn link) fetches the missed batch suffix from a peer and rejoins.

use crate::app::Application;
use crate::durability::{ckpt_sign_payload, CheckpointCert, DurableApp};
use crate::ordering::{CoreOutput, OrderingConfig, OrderingCore, SmrMsg};
use crate::transport::{
    ClusterConfig, Injector, NetEvent, RecvError, StatsInner, TcpClient, TcpTransport,
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
use std::time::Duration;

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
    /// an open TCP surface should set it — see `verify_and_submit`'s
    /// forgery note. `cluster.toml` deployments default to `true`.
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
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                loop {
                    match TcpListener::bind(addr) {
                        Ok(l) => break l,
                        Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                        Err(_) => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
            }
        };
        let transport = TcpTransport::from_listener(self.cluster.tcp_config(me), listener)?;
        let injector = transport.injector();
        let stats = transport.stats_handle();
        let (core, durable) = open_replica(
            &self.cluster,
            me,
            self.backend,
            self.root.join(format!("replica-{me}")),
            (self.make_app)(),
        )?;
        let cluster = self.cluster.clone();
        let handle = std::thread::Builder::new()
            .name(format!("sc-replica-{me}"))
            .spawn(move || run_replica(core, durable, transport, &cluster))
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
/// and loops until the process is killed. This is what the `replica` example
/// binary calls; pair it with [`TcpClient`] (the `client` example).
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
    let (core, durable) = open_replica(cluster, me, backend, storage_dir, app)?;
    run_replica(core, durable, transport, cluster);
    Ok(())
}

/// Recovers replica `me` from `storage_dir`: opens its [`DurableApp`] and
/// builds an ordering core that resumes at the durable batch count. The
/// core's duplicate filter is seeded from the durable reply records: a
/// restarted replica must not re-admit (or, once it leads, re-propose)
/// requests its pre-crash incarnation delivered.
fn open_replica<A: Application>(
    cluster: &ClusterConfig,
    me: ReplicaId,
    backend: Backend,
    storage_dir: PathBuf,
    app: A,
) -> std::io::Result<(OrderingCore, DurableApp<A>)> {
    let durable = DurableApp::open(app, storage_dir, cluster.checkpoint_period)?;
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
    Ok((core, durable))
}

/// Runs a recovered replica on the calling thread until it is shut down.
/// The verify pool is spawned here, so its workers carry the calling
/// thread's name.
fn run_replica<A: Application>(
    mut core: OrderingCore,
    mut durable: DurableApp<A>,
    mut transport: TcpTransport,
    cluster: &ClusterConfig,
) {
    let pool = std::sync::Arc::new(VerifyPool::new(VERIFY_WORKERS));
    core.set_verify_pool(pool.clone());
    replica_loop(
        &mut core,
        &mut durable,
        &mut transport,
        Duration::from_millis(cluster.progress_timeout_ms.max(1)),
        &pool,
        cluster.require_signed,
    );
}

// ---------------------------------------------------------------------------
// The replica loop
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

/// Batched verify stage (wall-clock backend): checks every signed request in
/// `batch` on the pool lanes at once and feeds the survivors to the order
/// stage. Unsigned requests pass through only when the deployment does not
/// `require_signed` — on an open TCP surface an unsigned request would let
/// any network peer forge another client's `(client, seq)` and poison its
/// duplicate filter, so public deployments must require signatures.
fn verify_and_submit(
    core: &mut OrderingCore,
    pool: &VerifyPool,
    batch: Vec<Request>,
    require_signed: bool,
) -> Vec<CoreOutput> {
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
            None if !require_signed => passed.push(i),
            None => {} // unsigned request on a signature-requiring deployment
        }
    }
    passed.extend(
        pool.verify_tagged(checks)
            .into_iter()
            .filter_map(|(i, ok)| ok.then_some(i)),
    );
    passed.sort_unstable(); // keep arrival order among survivors
    let mut outputs = Vec::new();
    for i in passed {
        outputs.extend(core.submit(batch[i].clone()));
    }
    outputs
}

/// Runtime state-transfer bookkeeping: which peer we asked, and when.
struct SyncAttempt {
    asked_at: std::time::Instant,
    attempt: usize,
}

/// The shipper for retry `attempt`: highest-id peers first (the designated
/// non-leader shipper rule), rotating on unanswered attempts so one crashed
/// peer cannot wedge recovery.
fn shipper_for(me: ReplicaId, n: usize, attempt: usize) -> ReplicaId {
    let order: Vec<ReplicaId> = (0..n).rev().filter(|&r| r != me).collect();
    order[attempt % order.len()]
}

fn send_state_request<A: Application>(
    durable: &DurableApp<A>,
    transport: &mut TcpTransport,
    attempt: usize,
) -> SyncAttempt {
    let me = transport.me();
    let shipper = shipper_for(me, transport.n(), attempt);
    transport.send(
        shipper,
        SmrMsg::StateReq {
            from_batch: durable.batches_applied() + 1,
        },
    );
    SyncAttempt {
        asked_at: std::time::Instant::now(),
        attempt,
    }
}

/// Installs a peer's state reply into the durable app and the ordering
/// core's duplicate filter. Returns true when the local state advanced.
///
/// The digest check runs first: every shipped record must carry a decision
/// proof for its own batch number, content-bound (`sha256(value)` is the
/// quorum-signed `value_hash`) and valid under the current view — and
/// `install_remote` additionally requires the suffix to chain-hash onto this
/// replica's tip. An HMAC-authenticated but Byzantine shipper can therefore
/// no longer feed a recovering replica forged *batches* — and no longer a
/// forged *snapshot* either: a snapshot running ahead of local state
/// installs only when the shipped bytes re-chunk to the state root of a
/// quorum-signed [`CheckpointCert`] (see
/// [`crate::durability::DurableApp::install_remote`]). The core's duplicate
/// filter is re-seeded from the installed reply records; those a shipped
/// snapshot carries are not yet covered by the certificate (ROADMAP 7(d)).
fn install_state_reply<A: Application>(
    core: &mut OrderingCore,
    durable: &mut DurableApp<A>,
    covered: u64,
    snapshot: Option<Vec<u8>>,
    cert: Option<CheckpointCert>,
    first_batch: u64,
    batches: &[Vec<u8>],
) -> bool {
    if !crate::durability::verify_shipped_suffix(core.view(), first_batch, batches) {
        return false; // forged/damaged suffix: rotate to another shipper
    }
    let before = durable.batches_applied();
    if let Err(e) = durable.install_remote(
        core.view(),
        covered,
        snapshot,
        cert.as_ref(),
        first_batch,
        batches,
    ) {
        if std::env::var("SC_RT_DEBUG").is_ok() {
            eprintln!("[rt] state reply rejected: {e}");
        }
        return false; // uncertified/tampered snapshot or broken suffix
    }
    // The reply records cover the installed snapshot and suffix.
    core.seed_delivered(&durable.delivered_frontier());
    core.fast_forward(durable.batches_applied());
    durable.batches_applied() > before
}

fn replica_loop<A: Application>(
    core: &mut OrderingCore,
    durable: &mut DurableApp<A>,
    transport: &mut TcpTransport,
    timeout: Duration,
    pool: &VerifyPool,
    require_signed: bool,
) {
    let me = transport.me();
    let mut last_progress = std::time::Instant::now();
    // When the timer arm runs next. It is a deadline, not a silence: a
    // client retransmitting every 500 ms or peers' repair traffic must not
    // hold off a replica's progress timeout. Each run of the arm and each
    // delivery pushes it one timeout on.
    let mut next_check = last_progress + timeout;
    // Non-client events encountered while draining a verify batch wait here
    // and are processed before blocking on the transport again.
    let mut backlog: std::collections::VecDeque<NetEvent> = std::collections::VecDeque::new();
    // In-flight runtime state transfer, if any.
    let mut syncing: Option<SyncAttempt> = None;
    // Checkpoint-certificate shares gossiped by peers (and ourselves).
    let mut certs = CertAssembly::new();
    loop {
        let event = match backlog.pop_front() {
            Some(ev) => Ok(ev),
            None => match next_check.checked_duration_since(std::time::Instant::now()) {
                Some(left) if !left.is_zero() => transport.recv_timeout(left),
                _ => Err(RecvError::Timeout),
            },
        };
        let outputs = match event {
            Ok(NetEvent::Peer {
                from,
                msg: SmrMsg::StateReq { from_batch },
            }) => {
                // Serve from our durable log + snapshot; the requester
                // validates contiguity on its side.
                if let Ok(reply) = durable.state_reply(from_batch) {
                    transport.send(
                        from,
                        SmrMsg::StateRep {
                            covered: reply.covered,
                            snapshot: reply.snapshot,
                            first_batch: reply.first_batch,
                            batches: reply.batches,
                            regency: core.regency(),
                            cert: reply.cert,
                        },
                    );
                }
                Vec::new()
            }
            Ok(NetEvent::Peer {
                msg:
                    SmrMsg::StateRep {
                        covered,
                        snapshot,
                        first_batch,
                        batches,
                        regency,
                        cert,
                    },
                ..
            }) => {
                if syncing.is_some() {
                    let advanced = install_state_reply(
                        core,
                        durable,
                        covered,
                        snapshot,
                        cert,
                        first_batch,
                        &batches,
                    );
                    // The shipper's regency heals a replica that slept
                    // through leader changes and would otherwise drop all
                    // current-epoch traffic (and solo-escalate STOPs).
                    core.adopt_regency(regency);
                    if advanced || core.stalled_behind().is_none() {
                        // Either we caught up from this reply, or there was
                        // nothing to fetch (a spurious round): resume the
                        // normal timeout/view-change path immediately.
                        syncing = None;
                        last_progress = std::time::Instant::now();
                    }
                    // Otherwise stay syncing; the timeout path rotates to
                    // another shipper.
                }
                Vec::new()
            }
            // A peer-forwarded request takes the same verify stage as a
            // client-submitted one — the forwarding link authenticates the
            // *replica*, not the request's client.
            Ok(NetEvent::Peer {
                msg: SmrMsg::Request(request),
                ..
            }) => verify_and_submit(core, pool, vec![request], require_signed),
            Ok(NetEvent::Peer {
                from,
                msg:
                    SmrMsg::CkptShare {
                        replica,
                        covered,
                        state_root,
                        tip,
                        signature,
                    },
            }) => {
                certs.note(from, replica, covered, state_root, tip, signature);
                certs.try_assemble(core, durable);
                Vec::new()
            }
            Ok(NetEvent::Peer { from, msg }) => {
                // Consensus traffic from an epoch ahead of our regency means
                // we missed a leader change (restart or long partition): the
                // STOP/STOPDATA exchange is gone, so only state transfer —
                // whose reply carries the shipper's regency — can rejoin us.
                if syncing.is_none() {
                    if let SmrMsg::Consensus(c) = &msg {
                        if c.epoch().is_some_and(|e| e > core.regency()) {
                            syncing = Some(send_state_request(durable, transport, 0));
                        }
                    }
                }
                core.on_message(from, msg)
            }
            Ok(NetEvent::Client(request)) => {
                // Drain whatever else already queued so one pool dispatch
                // covers the whole burst (the verify stage's group commit).
                let mut batch = vec![request];
                while batch.len() < 512 {
                    match transport.try_recv() {
                        Some(NetEvent::Client(r)) => batch.push(r),
                        Some(other) => {
                            backlog.push_back(other);
                            break;
                        }
                        None => break,
                    }
                }
                // Light-client read-proof requests are answered locally from
                // the certified checkpoint — never ordered. When we cannot
                // serve one (no certificate assembled yet, index out of
                // range) we stay silent and let the client retry or ask
                // another replica.
                batch.retain(|request| {
                    let Some(chunk) = parse_read_proof_request(&request.payload) else {
                        return true;
                    };
                    if let Ok(Some(proof)) = durable.prove_state_chunk(chunk) {
                        transport.reply(Reply {
                            client: request.client,
                            seq: request.seq,
                            result: smartchain_codec::to_bytes(&proof),
                            replica: me,
                        });
                    }
                    false
                });
                // A client whose every reply copy was lost retransmits; the
                // retransmission lands inside the dedup frontier, so the
                // durable reply record answers it — silence would wedge the
                // client forever. The record survives restarts and arrives
                // with state transfer, so those deliveries are answered too.
                batch.retain(|request| match durable.last_reply(request.client) {
                    Some((seq, result)) if request.seq <= seq => {
                        if request.seq == seq {
                            transport.reply(Reply {
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
                verify_and_submit(core, pool, batch, require_signed)
            }
            Ok(NetEvent::PeerUp(peer)) => {
                // A (re)established link: re-send synchronizer state the
                // peer cannot regenerate, and nudge our own recovery if we
                // were waiting on exactly this peer.
                if let Some(sync) = &mut syncing {
                    if shipper_for(me, transport.n(), sync.attempt) == peer {
                        *sync = send_state_request(durable, transport, sync.attempt);
                    }
                }
                core.on_peer_reconnect(peer)
            }
            Ok(NetEvent::Shutdown) | Err(RecvError::Closed) => return,
            Err(RecvError::Timeout) => {
                next_check = std::time::Instant::now() + timeout;
                if let Some(sync) = &mut syncing {
                    // Unanswered state request: rotate shippers. Give up —
                    // re-enabling the normal timeout/view-change path —
                    // once every peer was tried and the delivery gap healed
                    // through ordinary consensus, or after two full
                    // rotations regardless: if no peer's log can serve the
                    // gap (e.g. an instance that died undecided with a
                    // crashed leader), only a leader change can fill it,
                    // and a replica stuck in `syncing` forever would never
                    // vote for one.
                    if sync.asked_at.elapsed() >= timeout {
                        let next = sync.attempt + 1;
                        let peers = transport.n().saturating_sub(1).max(1);
                        if next >= peers && (core.stalled_behind().is_none() || next >= 2 * peers) {
                            syncing = None;
                        } else {
                            *sync = send_state_request(durable, transport, next);
                        }
                    }
                    Vec::new()
                } else if last_progress.elapsed() >= timeout && core.stalled_behind().is_some() {
                    // Decisions are buffered past a hole nobody will re-run
                    // consensus for (we restarted or our link dropped the
                    // decision): fetch the gap from a peer.
                    syncing = Some(send_state_request(durable, transport, 0));
                    Vec::new()
                } else if core.pending_len() > 0 && last_progress.elapsed() >= timeout {
                    if std::env::var("SC_RT_DEBUG").is_ok() {
                        eprintln!(
                            "[rt] replica {me} timeout: regency={} leader={} pending={} ld={}",
                            core.regency(),
                            core.leader(),
                            core.pending_len(),
                            core.last_delivered()
                        );
                    }
                    core.on_progress_timeout()
                } else {
                    Vec::new()
                }
            }
        };
        // Outputs must hit the wire in emission order (a SYNC must precede
        // the re-proposal it enables).
        for out in outputs {
            match out {
                CoreOutput::Broadcast(msg) => transport.broadcast(&msg),
                CoreOutput::Send(to, msg) => transport.send(to, msg),
                CoreOutput::Deliver(batch) => {
                    last_progress = std::time::Instant::now();
                    next_check = last_progress + timeout;
                    match durable.apply_batch(&batch) {
                        Ok(results) => {
                            // One fan-out per decided batch: the reactor
                            // queues every reply before flushing.
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
                            transport.reply_all(replies);
                            // A checkpoint was cut while applying: sign its
                            // basis and gossip the share so the cluster can
                            // assemble the quorum certificate.
                            if let Some((covered, state_root, tip)) =
                                durable.take_checkpoint_announcement()
                            {
                                let signature =
                                    core.sign(&ckpt_sign_payload(covered, &state_root, &tip));
                                certs.note(me, me, covered, state_root, tip, signature);
                                certs.try_assemble(core, durable);
                                transport.broadcast(&SmrMsg::CkptShare {
                                    replica: me,
                                    covered,
                                    state_root,
                                    tip,
                                    signature,
                                });
                            }
                        }
                        Err(e) => {
                            // The core already advanced past this batch;
                            // continuing without the record would shift the
                            // record-index == batch−1 mapping forever (our
                            // state replies would carry wrong-numbered
                            // proofs). Crash-stop and let recovery +
                            // state transfer heal on restart.
                            eprintln!("replica {me}: apply_batch failed ({e}); halting");
                            return;
                        }
                    }
                }
                CoreOutput::NeedStateTransfer { .. } => {
                    if syncing.is_none() {
                        syncing = Some(send_state_request(durable, transport, 0));
                    }
                }
            }
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
