//! Real-storage durable delivery (the non-simulated counterpart of the
//! Dura-SMaRt pipeline): decided batches are appended to a durability engine
//! — the group-commit [`SegmentedEngine`] on actual files by default —
//! snapshots are cut every `checkpoint_period` batches, the log prefix a
//! snapshot covers is truncated (an O(segment-delete) operation), and
//! recovery replays snapshot + post-checkpoint suffix only: restart cost is
//! bounded by the checkpoint interval, not the chain length.
//!
//! Each logged record is self-describing and decision-bound:
//!
//! ```text
//! LoggedBatch { prev, value, proof }
//!   prev   chain hash of the predecessor record (genesis = zero) — the
//!          batch chain a state-transfer suffix must extend
//!   value  the RAW decided consensus value; sha256(value) is exactly
//!          proof.value_hash, binding the bytes to the quorum decision
//!   proof  the quorum of signed ACCEPTs for this instance
//! ```
//!
//! so the runtime state-transfer path can *verify* a shipped suffix — each
//! record's proof checks under the current view, is bound to the record's
//! content, carries the right instance number, and chains onto the
//! requester's own tip — before anything is appended (see
//! [`verify_shipped_suffix`] and [`DurableApp::install_remote`]).
//!
//! Each client's reply record — `(seq, result)` of its latest executed
//! request, kept in snapshots and rebuilt by replay — is the replica's one
//! per-client state: the dedup frontier and the answer to retransmissions.
//! Live delivery, recovery replay and remote install execute through one
//! path that consults and updates it.
//!
//! The persistence policy is a [`SyncPolicy`]: [`DurableApp::open`] uses the
//! paper's 0/1-Persistence group-commit rung, [`DurableApp::open_with_policy`]
//! takes any rung. Either way the log is a [`SegmentedEngine`] — the same
//! `Engine` type the simulated `ChainNode` runs its persistence ladder on
//! (over a heap log), so both deployments share one durability
//! implementation.

use crate::app::Application;
use crate::ordering::OrderedBatch;
use crate::types::{decode_batch, encode_batch, Request};
use smartchain_codec::{codec_struct, from_bytes, signing_bytes, to_bytes, Encode};
use smartchain_consensus::proof::{verify_quorum, DecisionProof};
use smartchain_consensus::{ReplicaId, View};
use smartchain_crypto::keys::Signature;
use smartchain_crypto::sha256;
use smartchain_merkle as merkle;
use smartchain_storage::segmented::{RecoveryStats, SegmentConfig};
use smartchain_storage::snapshot::{Snapshot, SnapshotStore};
use smartchain_storage::{DurabilityEngine, FlushStats, RecordLog, SegmentedEngine, SyncPolicy};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};

/// The batch chain hash: `tip_k = sha256(tip_{k-1} ‖ sha256(value_k))`.
///
/// Takes the value as a shared handle so the inner digest reuses the
/// memoized value hash (computed once per allocation, usually already paid
/// by consensus) instead of rehashing the batch bytes.
fn chain_tip_shared(prev: &[u8; 32], value: &smartchain_crypto::ValueBytes) -> [u8; 32] {
    sha256::digest_parts(&[prev, &value.hash()])
}

/// One durable log record: the raw decided value plus its decision proof,
/// chained onto the predecessor record.
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedBatch {
    /// Chain hash of the predecessor record ([0; 32] for batch 1).
    pub prev: [u8; 32],
    /// The raw decided consensus value (`sha256` of it = `proof.value_hash`),
    /// held as a shared, hash-memoized handle — replay verification and
    /// chain-tip updates digest it once.
    pub value: smartchain_crypto::ValueBytes,
    /// Quorum of signed ACCEPTs for this instance.
    pub proof: DecisionProof,
}

codec_struct!(LoggedBatch { prev, value, proof });

/// Snapshot sidecar persisted (and shipped) with the application state: the
/// batch chain tip and each client's reply record at the covered point, so
/// replaying the raw-value suffix reproduces exactly the live execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotMeta {
    /// Batch chain hash after the covered batch.
    pub tip: [u8; 32],
    /// Chunked Merkle root of the snapshotted application state
    /// ([`merkle::chunked_root`] over [`merkle::STATE_CHUNK`]-byte chunks) —
    /// the root a [`CheckpointCert`] quorum signs, and what a shipped
    /// snapshot is verified against chunk-by-chunk at install time.
    pub state_root: [u8; 32],
    /// Each client's latest `(client, seq, result)` at the covered batch —
    /// the durable reply record: its `seq` is the client's dedup frontier,
    /// its result answers retransmissions (bounded: one entry per client).
    /// Sorted by client id.
    pub replies: Vec<(u64, u64, Vec<u8>)>,
}

codec_struct!(SnapshotMeta {
    tip,
    state_root,
    replies
});

/// Canonical bytes a replica signs to certify a checkpoint: the covered
/// batch, the chunked state root, and the batch chain tip at that point.
pub fn ckpt_sign_payload(covered: u64, state_root: &[u8; 32], tip: &[u8; 32]) -> Vec<u8> {
    signing_bytes(b"sc-ckpt", (covered, state_root, tip))
}

/// A quorum of replica signatures over one checkpoint's
/// `(covered, state_root, tip)` — the runtime counterpart of the simulated
/// chain's header-bound snapshot commitment. It is what lets a recovering
/// replica install a snapshot-ahead state transfer *without trusting the
/// shipper*: the shipped bytes must re-chunk to the certified root.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointCert {
    /// Batches the certified checkpoint summarizes.
    pub covered: u64,
    /// Chunked Merkle root of the application state at `covered`.
    pub state_root: [u8; 32],
    /// Batch chain hash after `covered`.
    pub tip: [u8; 32],
    /// `(signer, signature)` pairs over [`ckpt_sign_payload`]; valid certs
    /// have ≥ quorum distinct signers from the view.
    pub signatures: Vec<(ReplicaId, Signature)>,
}

impl CheckpointCert {
    /// Checks the certificate against `view` by [`verify_quorum`] over
    /// [`ckpt_sign_payload`].
    pub fn verify(&self, view: &View) -> bool {
        let payload = ckpt_sign_payload(self.covered, &self.state_root, &self.tip);
        verify_quorum(
            &self.signatures,
            &payload,
            |i| &view.members[i],
            view.n(),
            view.quorum(),
        )
    }
}

codec_struct!(CheckpointCert {
    covered,
    state_root,
    tip,
    signatures
});

/// Why [`DurableApp::install_remote`] refused a state-transfer reply.
#[derive(Debug)]
pub enum InstallError {
    /// A snapshot running ahead of local state arrived without a checkpoint
    /// certificate — the shipper is asking to be trusted, which the install
    /// path no longer does.
    MissingCert,
    /// The certificate does not cover this snapshot or does not verify
    /// (sub-quorum, non-member or duplicate signers, invalid signatures).
    BadCert,
    /// The shipped state bytes do not re-chunk to the certified state root
    /// (a tampered or substituted chunk).
    StateRootMismatch,
    /// The shipped meta's batch chain tip differs from the certified tip.
    TipMismatch,
    /// The reply does not line up with local state (a gap, a chain break,
    /// or an undecodable payload) — re-request, nothing was applied beyond
    /// what already succeeded.
    Rejected(&'static str),
    /// Local storage failure.
    Storage(io::Error),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::MissingCert => {
                write!(f, "snapshot-ahead install without a checkpoint certificate")
            }
            InstallError::BadCert => write!(f, "checkpoint certificate does not verify"),
            InstallError::StateRootMismatch => {
                write!(f, "shipped state does not match the certified state root")
            }
            InstallError::TipMismatch => {
                write!(f, "shipped chain tip does not match the certified tip")
            }
            InstallError::Rejected(why) => write!(f, "{why}"),
            InstallError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<io::Error> for InstallError {
    fn from(e: io::Error) -> Self {
        InstallError::Storage(e)
    }
}

/// A verifiable light-client read: one [`merkle::STATE_CHUNK`]-sized chunk
/// of the latest certified checkpoint state, its membership proof under the
/// certified state root, and the quorum certificate that binds the root —
/// everything a client needs to verify the bytes against nothing but the
/// view's public keys.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadProof {
    /// Batches the certified checkpoint summarizes.
    pub covered: u64,
    /// Index of `chunk` in the chunked state.
    pub chunk_index: u64,
    /// The raw state chunk.
    pub chunk: Vec<u8>,
    /// Membership proof of `chunk` under the certified state root.
    pub proof: merkle::Proof,
    /// The quorum certificate over the state root.
    pub cert: CheckpointCert,
}

impl ReadProof {
    /// Verifies the whole bundle against `view`: the certificate carries a
    /// signature quorum, covers the claimed point, and the chunk's
    /// membership proof opens the certified root at the claimed index.
    pub fn verify(&self, view: &View) -> bool {
        self.cert.covered == self.covered
            && self.proof.index as u64 == self.chunk_index
            && self.cert.verify(view)
            && merkle::verify(&self.cert.state_root, &self.chunk, &self.proof)
    }
}

codec_struct!(ReadProof {
    covered,
    chunk_index,
    chunk,
    proof,
    cert
});

/// The snapshot payload of a state-transfer reply: application state plus
/// the covered point's [`SnapshotMeta`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShippedSnapshot {
    /// Serialized application state.
    pub state: Vec<u8>,
    /// Chain tip and reply records at the snapshot's covered batch.
    pub meta: SnapshotMeta,
}

codec_struct!(ShippedSnapshot { state, meta });

/// The durable half of a runtime state-transfer reply (the fields of
/// `SmrMsg::StateRep` sans the shipper's regency).
#[derive(Clone, Debug)]
pub struct StateReply {
    /// Batches summarized by `snapshot` (0 = none shipped).
    pub covered: u64,
    /// Encoded [`ShippedSnapshot`] covering batches `1..=covered`.
    pub snapshot: Option<Vec<u8>>,
    /// Batch number of `batches[0]`.
    pub first_batch: u64,
    /// Encoded [`LoggedBatch`] records, consecutive from `first_batch`.
    pub batches: Vec<Vec<u8>>,
    /// The quorum certificate for the shipped snapshot's checkpoint, when
    /// one has assembled — required by the receiver for snapshot-ahead
    /// installs.
    pub cert: Option<CheckpointCert>,
}

/// Digest check for a shipped batch suffix: every record must decode, carry
/// the decision proof for exactly its own batch number, have its proof
/// *content-bound* (`sha256(value) == proof.value_hash` — the consensus
/// value hash the quorum signed), and verify under the current view's
/// consensus keys. Run this BEFORE [`DurableApp::install_remote`]: an
/// HMAC-authenticated but Byzantine member cannot feed a recovering replica
/// forged *batches* that survive it.
///
/// Scope: this authenticates the suffix only. A reply whose *snapshot*
/// runs ahead of the requester still trusts the shipper for the snapshot
/// state/meta (nothing binds an application state blob to the decisions
/// that produced it without replaying them) — the remaining gap recorded
/// in ROADMAP's state-transfer hardening item.
pub fn verify_shipped_suffix(view: &View, first_batch: u64, batches: &[Vec<u8>]) -> bool {
    batches.iter().enumerate().all(|(i, record)| {
        let Ok(lb) = from_bytes::<LoggedBatch>(record) else {
            return false;
        };
        lb.proof.instance == first_batch + i as u64
            && lb.value.hash() == lb.proof.value_hash
            && lb.proof.verify(view)
    })
}

/// A durable, checkpointed application host.
///
/// Wraps an [`Application`] with a write-ahead batch log and snapshot store:
/// every delivered batch is logged through the engine before (or while)
/// executing, and every `checkpoint_period` batches the application state is
/// snapshotted and the covered log prefix truncated.
pub struct DurableApp<A: Application> {
    app: A,
    engine: SegmentedEngine,
    snapshots: SnapshotStore,
    checkpoint_period: u64,
    batches_applied: u64,
    /// Each client's latest executed `(seq, result)` — the replica's one
    /// per-client record: its `seq` is the dedup frontier, its result
    /// answers retransmissions. Persisted in [`SnapshotMeta`] and rebuilt
    /// by replay, so it survives restarts.
    replies: BTreeMap<u64, (u64, Vec<u8>)>,
    /// Batch chain hash after `batches_applied`.
    tip: [u8; 32],
    /// Records the last open replayed into the application (restart-cost
    /// observability: bounded by the checkpoint interval).
    replayed_on_recovery: u64,
    /// `(covered, state_root, tip)` of the newest local checkpoint — the
    /// basis a [`CheckpointCert`] must match to be adopted.
    basis: Option<(u64, [u8; 32], [u8; 32])>,
    /// Same triple, set when a checkpoint is cut and *taken* by the
    /// embedding loop to gossip its certificate share.
    announce: Option<(u64, [u8; 32], [u8; 32])>,
    /// The assembled certificate for the newest checkpoint, once a quorum's
    /// shares matched — shipped with snapshot-ahead state replies and
    /// served to light clients.
    latest_cert: Option<CheckpointCert>,
    /// Where the certificate is persisted across restarts.
    cert_path: PathBuf,
    /// Chunks verified against a certified state root by remote installs
    /// (observability for the verified-transfer path).
    chunks_verified: u64,
}

impl<A: Application> std::fmt::Debug for DurableApp<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableApp")
            .field("batches_applied", &self.batches_applied)
            .field("policy", &self.engine.policy())
            .finish_non_exhaustive()
    }
}

impl<A: Application> DurableApp<A> {
    /// Opens (or recovers) a durable app rooted at `dir` with the default
    /// group-commit (0/1-Persistence) engine over a segmented log.
    ///
    /// On recovery the newest snapshot is installed and only the logged
    /// post-checkpoint suffix is replayed, restoring exactly the pre-crash
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn open(app: A, dir: impl AsRef<Path>, checkpoint_period: u64) -> io::Result<Self> {
        Self::open_with_policy(app, dir, checkpoint_period, SyncPolicy::Sync)
    }

    /// Opens with an explicit persistence-ladder rung and default segment
    /// sizing.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn open_with_policy(
        app: A,
        dir: impl AsRef<Path>,
        checkpoint_period: u64,
        policy: SyncPolicy,
    ) -> io::Result<Self> {
        Self::open_segmented(
            app,
            dir,
            checkpoint_period,
            policy,
            SegmentConfig::default(),
        )
    }

    /// Opens over a segmented log with explicit segment sizing:
    /// [`SyncPolicy::Sync`] (group commit), [`SyncPolicy::Async`]
    /// (λ-persistence), or [`SyncPolicy::None`] (volatile).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn open_segmented(
        mut app: A,
        dir: impl AsRef<Path>,
        checkpoint_period: u64,
        policy: SyncPolicy,
        segments: SegmentConfig,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if policy == SyncPolicy::None {
            // ∞-persistence: nothing survives a restart — start from empty
            // storage instead of silently replaying a stale log/snapshot.
            let _ = std::fs::remove_dir_all(dir.join("segments"));
            let _ = std::fs::remove_dir_all(dir.join("snapshots"));
        }
        app.reset();
        let mut this = DurableApp {
            app,
            engine: SegmentedEngine::open(dir.join("segments"), policy, segments)?,
            snapshots: SnapshotStore::open(dir.join("snapshots"))?,
            checkpoint_period: checkpoint_period.max(1),
            batches_applied: 0,
            replies: BTreeMap::new(),
            tip: [0u8; 32],
            replayed_on_recovery: 0,
            basis: None,
            announce: None,
            latest_cert: None,
            cert_path: dir.join("ckpt_cert.bin"),
            chunks_verified: 0,
        };
        // Recover: snapshot first, then replay only the post-checkpoint log
        // suffix (the prefix was truncated when the checkpoint was cut).
        // Consistency guards around the snapshot/log pair: checkpoint()
        // installs the snapshot BEFORE truncating (and both renames are
        // followed by a parent-directory fsync), so a meta we cannot read or
        // a log truncated beyond the recovered snapshot means the store lost
        // data — refuse to open rather than resume with the wrong
        // application state or dedup record.
        let inconsistent =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if let Some(snap) = this.snapshots.load()? {
            let meta = from_bytes::<SnapshotMeta>(&snap.meta)
                .map_err(|_| inconsistent("undecodable snapshot meta"))?;
            this.app.install_snapshot(&snap.state);
            this.adopt_snapshot(snap.covered_block, meta);
        }
        if this.engine.first_index() > this.batches_applied {
            return Err(inconsistent("log truncated beyond the recovered snapshot"));
        }
        for index in this.batches_applied..this.engine.len() {
            let Some(record) = this.engine.read(index)? else {
                return Err(inconsistent("unreadable record above the snapshot point"));
            };
            let Ok(lb) = from_bytes::<LoggedBatch>(&record) else {
                return Err(inconsistent("undecodable record above the snapshot point"));
            };
            if lb.prev != this.tip {
                // Resuming here would break the record-index == batch−1
                // invariant for everything the log still holds.
                return Err(inconsistent("log suffix does not chain onto the snapshot"));
            }
            let requests = decode_batch(&lb.value).unwrap_or_default();
            this.execute_decided(&requests, &lb.value);
            this.replayed_on_recovery += 1;
        }
        if this.engine.len() < this.batches_applied {
            // A remote snapshot install crashed between the snapshot write
            // and the engine fast-forward: complete it (idempotent).
            this.engine.fast_forward(this.batches_applied)?;
        }
        this.load_cert();
        Ok(this)
    }

    /// Takes a snapshot's meta as the state at batch `covered`: the chain
    /// tip, the reply records and the checkpoint basis. The caller has
    /// installed the snapshot's application state.
    fn adopt_snapshot(&mut self, covered: u64, meta: SnapshotMeta) {
        self.batches_applied = covered;
        self.replies = meta
            .replies
            .into_iter()
            .map(|(client, seq, result)| (client, (seq, result)))
            .collect();
        self.tip = meta.tip;
        self.basis = Some((covered, meta.state_root, meta.tip));
    }

    /// Restores a persisted checkpoint certificate, keeping it only when it
    /// still describes the recovered snapshot (a stale one would vouch for
    /// state we no longer hold).
    fn load_cert(&mut self) {
        let Ok(bytes) = std::fs::read(&self.cert_path) else {
            return;
        };
        if let Ok(cert) = from_bytes::<CheckpointCert>(&bytes) {
            if self.basis == Some((cert.covered, cert.state_root, cert.tip)) {
                self.latest_cert = Some(cert);
            }
        }
    }

    /// The one execute path of live delivery, recovery replay and remote
    /// install. A request is fresh iff its `seq` is higher than its
    /// client's reply record; each fresh one executes and becomes that
    /// record. Then the chain tip and batch count advance past `value`.
    /// Returns the executed requests' results, keyed by `(client, seq)`.
    fn execute_decided(
        &mut self,
        requests: &[Request],
        value: &smartchain_crypto::ValueBytes,
    ) -> HashMap<(u64, u64), Vec<u8>> {
        let mut executed = HashMap::new();
        for request in requests {
            let fresh = self
                .replies
                .get(&request.client)
                .is_none_or(|(seq, _)| request.seq > *seq);
            if fresh {
                let result = self.app.execute(request);
                self.replies
                    .insert(request.client, (request.seq, result.clone()));
                executed.insert((request.client, request.seq), result);
            }
        }
        self.tip = chain_tip_shared(&self.tip, value);
        self.batches_applied += 1;
        executed
    }

    /// Applies one decided batch durably; returns the per-request results,
    /// aligned with `batch.requests` (the duplicate-stripped list the
    /// ordering core delivered).
    ///
    /// # Errors
    ///
    /// Propagates storage failures; the batch is not considered applied then.
    pub fn apply_batch(&mut self, batch: &OrderedBatch) -> io::Result<Vec<Vec<u8>>> {
        // Log first (write-ahead), then execute. The record stores the RAW
        // decided value + proof, chained onto our tip — encoded field by
        // field (the LoggedBatch layout) so the hot path clones neither the
        // value nor the proof. `flush` is the policy's commit point: one
        // coalesced fsync under group commit, a no-op on the weaker rungs.
        let mut record = Vec::with_capacity(
            self.tip.encoded_len() + batch.value.encoded_len() + batch.proof.encoded_len(),
        );
        self.tip.encode(&mut record);
        batch.value.encode(&mut record);
        batch.proof.encode(&mut record);
        self.engine.append(&record)?;
        self.engine.flush()?;
        // Execute the raw value through the reply records — the same rule
        // (over the same bytes) a post-crash replay applies, so replay
        // reproduces this execution even if the ordering core's duplicate
        // filter ever disagrees with the durable record (e.g. a restart
        // that lost volatile core state).
        let requests = decode_batch(&batch.value).unwrap_or_default();
        let mut executed = self.execute_decided(&requests, &batch.value);
        // Replies align with the core's duplicate-stripped list; a request
        // the durable record rejected as already-executed answers empty
        // (the client's earlier reply carried the real result).
        let results = batch
            .requests
            .iter()
            .map(|r| executed.remove(&(r.client, r.seq)).unwrap_or_default())
            .collect();
        if self.batches_applied.is_multiple_of(self.checkpoint_period) {
            self.checkpoint()?;
        }
        Ok(results)
    }

    /// Each client's highest executed sequence number, sorted by client —
    /// derived from the reply records. What a freshly built (or freshly
    /// state-transferred) ordering core is seeded with, so it does not
    /// re-admit (or re-propose) requests this replica already executed.
    pub fn delivered_frontier(&self) -> Vec<(u64, u64)> {
        self.replies.iter().map(|(&c, (s, _))| (c, *s)).collect()
    }

    /// `client`'s reply record: the sequence number and result of its
    /// latest executed request — what answers a retransmission that the
    /// duplicate filter would otherwise drop silently.
    pub fn last_reply(&self, client: u64) -> Option<(u64, &[u8])> {
        self.replies.get(&client).map(|(s, r)| (*s, r.as_slice()))
    }

    /// Convenience for tests and benchmarks: wraps `requests` in a
    /// synthetic decided batch (empty accept set — fine locally, since
    /// proofs are only *verified* on the state-transfer install path) and
    /// applies it.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn apply_requests(&mut self, requests: &[Request]) -> io::Result<Vec<Vec<u8>>> {
        let value = smartchain_crypto::ValueBytes::from(encode_batch(requests));
        let instance = self.batches_applied + 1;
        let batch = OrderedBatch {
            instance,
            epoch: 0,
            requests: requests.to_vec(),
            proof: std::sync::Arc::new(DecisionProof {
                instance,
                epoch: 0,
                value_hash: value.hash(),
                accepts: Vec::new(),
            }),
            value,
        };
        self.apply_batch(&batch)
    }

    /// Cuts a snapshot now (state + reply records + chain tip) and truncates
    /// the log prefix it covers — O(segment-delete) on the segmented engine.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let state = self.app.take_snapshot();
        let state_root = merkle::chunked_root(&state, merkle::STATE_CHUNK);
        let meta = SnapshotMeta {
            tip: self.tip,
            state_root,
            replies: self
                .replies
                .iter()
                .map(|(&c, (s, r))| (c, *s, r.clone()))
                .collect(),
        };
        let snap = Snapshot {
            covered_block: self.batches_applied,
            state,
            meta: to_bytes(&meta),
        };
        self.snapshots.install(&snap)?;
        let upto = self.batches_applied;
        self.engine.truncate_prefix(upto)?;
        // The new checkpoint obsoletes the previous certificate; announce
        // the new basis so the embedding gossips fresh shares.
        self.basis = Some((self.batches_applied, state_root, self.tip));
        self.announce = self.basis;
        self.latest_cert = None;
        Ok(())
    }

    /// `(covered, state_root, tip)` of the newest local checkpoint.
    pub fn latest_checkpoint_basis(&self) -> Option<(u64, [u8; 32], [u8; 32])> {
        self.basis
    }

    /// One-shot: the basis of a just-cut checkpoint, for the embedding to
    /// sign and gossip as a certificate share. `None` until the next
    /// checkpoint after each take.
    pub fn take_checkpoint_announcement(&mut self) -> Option<(u64, [u8; 32], [u8; 32])> {
        self.announce.take()
    }

    /// The assembled certificate for the newest checkpoint, if any.
    pub fn checkpoint_cert(&self) -> Option<&CheckpointCert> {
        self.latest_cert.as_ref()
    }

    /// Adopts (and persists) an assembled certificate — ignored unless it
    /// matches the newest local checkpoint basis exactly, so a stale or
    /// foreign certificate can never be served for our snapshot.
    ///
    /// # Errors
    ///
    /// Propagates storage failures while persisting.
    pub fn store_checkpoint_cert(&mut self, cert: CheckpointCert) -> io::Result<()> {
        if self.basis != Some((cert.covered, cert.state_root, cert.tip)) {
            return Ok(());
        }
        std::fs::write(&self.cert_path, to_bytes(&cert))?;
        self.latest_cert = Some(cert);
        Ok(())
    }

    /// Chunks verified against a certified state root by remote installs.
    pub fn chunks_verified(&self) -> u64 {
        self.chunks_verified
    }

    /// Builds a light-client [`ReadProof`] for chunk `chunk_index` of the
    /// latest certified checkpoint state. `None` when no certificate has
    /// assembled yet, the snapshot moved on, or the index is out of range —
    /// the caller should simply not answer and let the client retry.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn prove_state_chunk(&self, chunk_index: u64) -> io::Result<Option<ReadProof>> {
        let Some(cert) = self.latest_cert.clone() else {
            return Ok(None);
        };
        let Some(snap) = self.snapshots.load()? else {
            return Ok(None);
        };
        if snap.covered_block != cert.covered {
            return Ok(None);
        }
        let Some(chunk) = snap
            .state
            .chunks(merkle::STATE_CHUNK)
            .nth(chunk_index as usize)
        else {
            return Ok(None);
        };
        let proof = merkle::prove_chunk(&snap.state, merkle::STATE_CHUNK, chunk_index as usize);
        Ok(Some(ReadProof {
            covered: cert.covered,
            chunk_index,
            chunk: chunk.to_vec(),
            proof,
            cert,
        }))
    }

    /// Batches applied since genesis.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// The batch chain hash after the last applied batch.
    pub fn tip(&self) -> [u8; 32] {
        self.tip
    }

    /// Records the last open had to replay into the application (restart
    /// cost; bounded by the checkpoint interval once a checkpoint exists).
    pub fn replayed_on_recovery(&self) -> u64 {
        self.replayed_on_recovery
    }

    /// What the engine's last open had to scan.
    pub fn segment_recovery_stats(&self) -> RecoveryStats {
        self.engine.log().recovery_stats()
    }

    /// The wrapped application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The engine's persistence policy.
    pub fn policy(&self) -> SyncPolicy {
        self.engine.policy()
    }

    /// Engine write/sync accounting (group-commit coalescing shows up here
    /// as `records` outpacing `syncs`).
    pub fn engine_stats(&self) -> FlushStats {
        self.engine.stats()
    }

    /// Builds the payload of a runtime state-transfer reply for a peer
    /// missing everything from batch `from_batch` on: the current snapshot
    /// (state + meta, when it covers part of the gap) plus the readable
    /// logged suffix — served straight from sealed segments, no full-log
    /// rescan.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn state_reply(&self, from_batch: u64) -> io::Result<StateReply> {
        let from_batch = from_batch.max(1);
        let snap = self.snapshots.load()?;
        let (covered, snapshot, cert) = match snap {
            // Ship the snapshot only when it summarizes batches the
            // requester is missing; otherwise the log suffix suffices.
            Some(s) if s.covered_block >= from_batch => {
                let meta = from_bytes::<SnapshotMeta>(&s.meta).unwrap_or_default();
                let shipped = ShippedSnapshot {
                    state: s.state,
                    meta,
                };
                let cert = self
                    .latest_cert
                    .clone()
                    .filter(|c| c.covered == s.covered_block);
                (s.covered_block, Some(to_bytes(&shipped)), cert)
            }
            _ => (0, None, None),
        };
        // Batch k lives at log record k−1; checkpointing truncates the
        // records a snapshot covers, so the readable suffix starts after
        // max(requested, covered).
        let first_batch = from_batch.max(covered + 1);
        let mut batches = Vec::new();
        for k in first_batch..=self.batches_applied {
            match self.engine.read(k - 1)? {
                Some(record) => batches.push(record),
                None => break, // truncated or lost: ship the contiguous part
            }
        }
        Ok(StateReply {
            covered,
            snapshot,
            first_batch,
            batches,
            cert,
        })
    }

    /// Installs a peer's state-transfer reply: snapshot first (if it runs
    /// ahead of us), then the batch suffix — each record must *chain-hash
    /// onto this replica's tip* (`prev` = our running chain hash), and is
    /// appended to the local engine *and* executed through the reply
    /// records, so the transferred history is as durable here as
    /// locally-ordered history. Decision-proof verification happens in the
    /// caller ([`verify_shipped_suffix`] — the caller holds the view);
    /// this method enforces the structural half — contiguity and chain
    /// linkage — plus the *content* half for snapshots: a snapshot running
    /// ahead of local state installs only with a [`CheckpointCert`] whose
    /// quorum-signed state root the shipped bytes re-chunk to exactly.
    /// Afterwards [`delivered_frontier`](Self::delivered_frontier) covers
    /// the installed history; the caller re-seeds its ordering core from it.
    ///
    /// # Errors
    ///
    /// [`InstallError::MissingCert`] / [`BadCert`](InstallError::BadCert) /
    /// [`TipMismatch`](InstallError::TipMismatch) /
    /// [`StateRootMismatch`](InstallError::StateRootMismatch) when the
    /// snapshot's certification fails; [`Rejected`](InstallError::Rejected)
    /// when the reply does not line up with local state (a gap, a chain
    /// break, or an undecodable batch); storage failures propagate as
    /// [`Storage`](InstallError::Storage). On error the caller should
    /// re-request — nothing is half-applied beyond what already succeeded.
    pub fn install_remote(
        &mut self,
        view: &View,
        covered: u64,
        snapshot: Option<Vec<u8>>,
        cert: Option<&CheckpointCert>,
        first_batch: u64,
        batches: &[Vec<u8>],
    ) -> Result<(), InstallError> {
        if let Some(blob) = snapshot {
            let shipped = from_bytes::<ShippedSnapshot>(&blob)
                .map_err(|_| InstallError::Rejected("undecodable shipped snapshot"))?;
            if covered > self.batches_applied {
                if self.engine.len() > covered {
                    return Err(InstallError::Rejected("snapshot older than local log tail"));
                }
                // Trust scope: decision proofs vouch for *batches*; raw
                // snapshot bytes are opaque to them. The shipper must
                // present the quorum's checkpoint certificate, and the
                // shipped state must re-chunk to exactly the certified
                // root — a tampered chunk fails here, before anything is
                // applied.
                let cert = cert.ok_or(InstallError::MissingCert)?;
                if cert.covered != covered || !cert.verify(view) {
                    return Err(InstallError::BadCert);
                }
                if cert.tip != shipped.meta.tip {
                    return Err(InstallError::TipMismatch);
                }
                if shipped.meta.state_root != cert.state_root
                    || merkle::chunked_root(&shipped.state, merkle::STATE_CHUNK) != cert.state_root
                {
                    return Err(InstallError::StateRootMismatch);
                }
                self.chunks_verified +=
                    shipped.state.len().div_ceil(merkle::STATE_CHUNK).max(1) as u64;
                self.app.reset();
                self.app.install_snapshot(&shipped.state);
                self.snapshots.install(&Snapshot {
                    covered_block: covered,
                    state: shipped.state,
                    meta: to_bytes(&shipped.meta),
                })?;
                // Skip the engine to the covered point (O(1) manifest update
                // on segmented logs): the snapshot is the durable
                // representation of that prefix.
                self.engine.fast_forward(covered)?;
                // The certified checkpoint is now ours: adopt its basis and
                // persist the certificate so we can serve it onward.
                self.adopt_snapshot(covered, shipped.meta);
                self.store_checkpoint_cert(cert.clone())?;
            }
        }
        for (i, record) in batches.iter().enumerate() {
            let k = first_batch + i as u64;
            if k <= self.batches_applied {
                continue; // already have it
            }
            if k != self.batches_applied + 1 {
                return Err(InstallError::Rejected("state reply leaves a gap"));
            }
            let lb = from_bytes::<LoggedBatch>(record)
                .map_err(|_| InstallError::Rejected("undecodable shipped batch"))?;
            if lb.prev != self.tip {
                return Err(InstallError::Rejected(
                    "shipped suffix does not chain onto local tip",
                ));
            }
            let requests = decode_batch(&lb.value)
                .map_err(|_| InstallError::Rejected("undecodable shipped value"))?;
            self.engine.append(record)?;
            self.engine.flush()?;
            self.execute_decided(&requests, &lb.value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CounterApp;
    use smartchain_crypto::keys::{Backend, SecretKey};
    use smartchain_storage::testing::TempDir;

    /// A 4-replica view with deterministic sim keys, for certificate tests.
    fn test_view() -> (View, Vec<SecretKey>) {
        let secrets: Vec<SecretKey> = (0..4)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 50; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        (view, secrets)
    }

    /// Signs `d`'s newest checkpoint basis with the first `signers` keys and
    /// stores the assembled certificate (what the runtime's share gossip
    /// produces).
    fn certify(
        d: &mut DurableApp<CounterApp>,
        secrets: &[SecretKey],
        signers: usize,
    ) -> CheckpointCert {
        let (covered, state_root, tip) = d.latest_checkpoint_basis().unwrap();
        let payload = ckpt_sign_payload(covered, &state_root, &tip);
        let cert = CheckpointCert {
            covered,
            state_root,
            tip,
            signatures: (0..signers)
                .map(|r| (r, secrets[r].sign(&payload)))
                .collect(),
        };
        d.store_checkpoint_cert(cert.clone()).unwrap();
        cert
    }

    fn req(client: u64, seq: u64, add: u8) -> Request {
        Request {
            client,
            seq,
            payload: vec![add],
            signature: None,
        }
    }

    /// The reply record is the dedup frontier: `client` is the only client,
    /// both views name `seq`, and the record carries the counter's `sum`.
    fn assert_record(d: &DurableApp<CounterApp>, client: u64, seq: u64, sum: u64) {
        assert_eq!(d.delivered_frontier(), vec![(client, seq)]);
        assert_eq!(
            d.last_reply(client),
            Some((seq, sum.to_le_bytes().as_slice()))
        );
    }

    fn tmp(name: &str) -> TempDir {
        TempDir::new(&format!("smartchain-durable-{name}"))
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmp("reopen");
        {
            let mut d = DurableApp::open(CounterApp::new(), &dir, 100).unwrap();
            d.apply_requests(&[req(1, 0, 5), req(2, 0, 7)]).unwrap();
            d.apply_requests(&[req(1, 1, 3)]).unwrap();
            assert_eq!(d.app().sum(1), 8);
        }
        let d = DurableApp::open(CounterApp::new(), &dir, 100).unwrap();
        assert_eq!(d.app().sum(1), 8);
        assert_eq!(d.app().sum(2), 7);
        assert_eq!(d.batches_applied(), 2);
        assert_eq!(d.replayed_on_recovery(), 2, "no checkpoint: replay all");
    }

    #[test]
    fn checkpoint_then_recover_replays_only_the_suffix() {
        let dir = tmp("ckpt");
        {
            let mut d = DurableApp::open(CounterApp::new(), &dir, 2).unwrap();
            for i in 0..5u64 {
                d.apply_requests(&[req(1, i, 1)]).unwrap();
            }
            assert_eq!(d.app().sum(1), 5);
        }
        let d = DurableApp::open(CounterApp::new(), &dir, 2).unwrap();
        assert_eq!(d.app().sum(1), 5);
        assert_eq!(d.batches_applied(), 5);
        // Checkpoints at 2 and 4 truncated the prefix: recovery replays
        // exactly the one post-checkpoint batch.
        assert_eq!(d.replayed_on_recovery(), 1);
    }

    #[test]
    fn group_commit_engine_syncs_once_per_batch() {
        let dir = tmp("stats");
        let mut d = DurableApp::open(CounterApp::new(), &dir, 100).unwrap();
        for i in 0..4u64 {
            d.apply_requests(&[req(1, i, 1)]).unwrap();
        }
        let stats = d.engine_stats();
        assert_eq!(stats.records, 4);
        assert_eq!(stats.syncs, 4, "sequential batches: one commit point each");
        assert_eq!(d.policy(), SyncPolicy::Sync);
    }

    #[test]
    fn none_policy_is_volatile_across_restarts() {
        let dir = tmp("volatile");
        {
            let mut d =
                DurableApp::open_with_policy(CounterApp::new(), &dir, 100, SyncPolicy::None)
                    .unwrap();
            d.apply_requests(&[req(1, 0, 9)]).unwrap();
            assert_eq!(d.app().sum(1), 9);
        }
        // ∞-persistence: a restart starts from nothing.
        let d =
            DurableApp::open_with_policy(CounterApp::new(), &dir, 100, SyncPolicy::None).unwrap();
        assert_eq!(d.app().sum(1), 0, "no state may survive the volatile rung");
        assert_eq!(d.batches_applied(), 0);
    }

    /// State transfer between two DurableApps: a fresh replica installs a
    /// peer's reply (snapshot + suffix) and converges, durably.
    #[test]
    fn remote_state_install_converges_and_survives_restart() {
        let src_dir = tmp("st-src");
        let dst_dir = tmp("st-dst");
        let mut src = DurableApp::open(CounterApp::new(), &src_dir, 3).unwrap();
        for i in 0..7u64 {
            src.apply_requests(&[req(1, i, 2)]).unwrap();
        }
        // The last batch carries (1, 7) twice: it executes once.
        let results = src.apply_requests(&[req(1, 7, 2), req(1, 7, 2)]).unwrap();
        assert_eq!(results, vec![16u64.to_le_bytes().to_vec(), Vec::new()]);
        assert_eq!(src.app().sum(1), 16);
        assert_record(&src, 1, 7, 16);
        // Checkpoint at period 3 → snapshot covers 6, log holds 7..8. The
        // snapshot runs ahead of the fresh receiver, so the reply must carry
        // the quorum's checkpoint certificate.
        let (view, secrets) = test_view();
        certify(&mut src, &secrets, 3);
        let reply = src.state_reply(1).unwrap();
        assert_eq!(reply.covered, 6);
        assert!(reply.snapshot.is_some());
        assert!(reply.cert.is_some(), "reply ships the stored certificate");
        assert_eq!(reply.first_batch, 7);
        assert_eq!(reply.batches.len(), 2);
        {
            let mut dst = DurableApp::open(CounterApp::new(), &dst_dir, 100).unwrap();
            dst.install_remote(
                &view,
                reply.covered,
                reply.snapshot,
                reply.cert.as_ref(),
                reply.first_batch,
                &reply.batches,
            )
            .unwrap();
            assert_eq!(dst.chunks_verified(), 1, "snapshot verified chunkwise");
            assert_eq!(dst.batches_applied(), 8);
            assert_eq!(dst.app().sum(1), 16, "the suffix's duplicate executed once");
            assert_eq!(dst.tip(), src.tip(), "transferred chains share the tip");
            assert_record(&dst, 1, 7, 16);
        }
        // The transferred state is durable: a reopen recovers it locally.
        let dst = DurableApp::open(CounterApp::new(), &dst_dir, 100).unwrap();
        assert_eq!(dst.batches_applied(), 8);
        assert_eq!(dst.replayed_on_recovery(), 2, "the suffix only");
        assert_eq!(dst.app().sum(1), 16);
        assert_record(&dst, 1, 7, 16);
    }

    /// A replica that already holds a prefix receives only the missing tail.
    #[test]
    fn remote_state_install_skips_known_prefix_and_rejects_gaps() {
        let src_dir = tmp("st2-src");
        let dst_dir = tmp("st2-dst");
        let mut src = DurableApp::open(CounterApp::new(), &src_dir, 100).unwrap();
        let mut dst = DurableApp::open(CounterApp::new(), &dst_dir, 100).unwrap();
        for i in 0..5u64 {
            src.apply_requests(&[req(1, i, 1)]).unwrap();
            if i < 3 {
                dst.apply_requests(&[req(1, i, 1)]).unwrap();
            }
        }
        let (view, _) = test_view();
        let reply = src.state_reply(4).unwrap();
        assert_eq!((reply.covered, reply.first_batch), (0, 4));
        assert!(reply.snapshot.is_none());
        dst.install_remote(
            &view,
            reply.covered,
            reply.snapshot.clone(),
            None,
            reply.first_batch,
            &reply.batches,
        )
        .unwrap();
        assert_eq!(dst.batches_applied(), 5);
        assert_eq!(dst.app().sum(1), 5);
        // A reply that skips ahead is rejected, nothing applied.
        let err = dst
            .install_remote(&view, 0, None, None, 9, &reply.batches)
            .unwrap_err();
        assert!(matches!(err, InstallError::Rejected(_)), "{err}");
        assert_eq!(dst.batches_applied(), 5);
    }

    /// A shipped suffix from a diverging history (its records do not chain
    /// onto the requester's tip) is rejected before anything is appended.
    #[test]
    fn remote_suffix_must_chain_onto_local_tip() {
        let a_dir = tmp("chain-a");
        let b_dir = tmp("chain-b");
        let mut a = DurableApp::open(CounterApp::new(), &a_dir, 100).unwrap();
        let mut b = DurableApp::open(CounterApp::new(), &b_dir, 100).unwrap();
        // Histories diverge at batch 1.
        a.apply_requests(&[req(1, 0, 1)]).unwrap();
        b.apply_requests(&[req(1, 0, 2)]).unwrap();
        a.apply_requests(&[req(1, 1, 1)]).unwrap();
        let reply = a.state_reply(2).unwrap();
        let (view, _) = test_view();
        let err = b
            .install_remote(&view, 0, None, None, reply.first_batch, &reply.batches)
            .unwrap_err();
        assert!(matches!(err, InstallError::Rejected(_)), "{err}");
        assert_eq!(b.batches_applied(), 1, "nothing appended");
        assert_eq!(b.app().sum(1), 2, "state untouched");
    }

    /// The runtime trust scope (issue satellite): a snapshot running ahead
    /// of local state is NOT shipper-trusted. Without a certificate the
    /// install is refused; with a certificate, a single tampered chunk in
    /// the shipped state flips the chunked root and the install is refused
    /// — in both cases before any state is applied.
    #[test]
    fn snapshot_ahead_requires_cert_and_rejects_tampered_chunks() {
        let src_dir = tmp("tamper-src");
        let mut src = DurableApp::open(CounterApp::new(), &src_dir, 4).unwrap();
        // Enough distinct clients that the snapshot spans several chunks
        // (CounterApp serializes one record per client).
        for i in 0..8u64 {
            let reqs: Vec<Request> = (0..24).map(|c| req(100 + c, i, 1)).collect();
            src.apply_requests(&reqs).unwrap();
        }
        let (view, secrets) = test_view();
        let cert = certify(&mut src, &secrets, 3);
        assert!(cert.verify(&view));
        let reply = src.state_reply(1).unwrap();
        assert_eq!(reply.covered, 8);
        let dst_root = tmp("tamper-dst");
        let fresh =
            |tag: &str| DurableApp::open(CounterApp::new(), dst_root.join(tag), 100).unwrap();

        // No certificate → refused.
        let err = fresh("tamper-nocert")
            .install_remote(
                &view,
                reply.covered,
                reply.snapshot.clone(),
                None,
                reply.first_batch,
                &reply.batches,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::MissingCert), "{err}");

        // Sub-quorum certificate → refused.
        let weak = CheckpointCert {
            signatures: cert.signatures[..2].to_vec(),
            ..cert.clone()
        };
        let err = fresh("tamper-weak")
            .install_remote(
                &view,
                reply.covered,
                reply.snapshot.clone(),
                Some(&weak),
                reply.first_batch,
                &reply.batches,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::BadCert), "{err}");

        // Tamper one chunk of the shipped state → StateRootMismatch.
        let shipped: ShippedSnapshot = from_bytes(reply.snapshot.as_ref().unwrap()).unwrap();
        assert!(
            shipped.state.len() > merkle::STATE_CHUNK,
            "state must span multiple chunks for the test to bite"
        );
        let mut tampered = shipped.clone();
        tampered.state[merkle::STATE_CHUNK + 3] ^= 0x40;
        let mut dst = fresh("tamper-chunk");
        let err = dst
            .install_remote(
                &view,
                reply.covered,
                Some(to_bytes(&tampered)),
                Some(&cert),
                reply.first_batch,
                &reply.batches,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::StateRootMismatch), "{err}");
        assert_eq!(dst.batches_applied(), 0, "nothing applied");
        assert_eq!(dst.chunks_verified(), 0);

        // The untampered reply with the real certificate installs fine.
        let mut ok = fresh("tamper-ok");
        ok.install_remote(
            &view,
            reply.covered,
            reply.snapshot.clone(),
            Some(&cert),
            reply.first_batch,
            &reply.batches,
        )
        .unwrap();
        assert_eq!(ok.batches_applied(), 8);
        assert_eq!(ok.app().sum(100), 8);
        assert!(ok.chunks_verified() > 1);
        // The receiver adopted the certificate and can now serve it onward.
        assert_eq!(ok.checkpoint_cert(), Some(&cert));
    }

    /// Light-client read proofs: a certified replica proves a state chunk;
    /// the proof verifies against nothing but the view, and dies under any
    /// tampering (chunk bytes, index, or certificate).
    #[test]
    fn read_proofs_verify_and_reject_tampering() {
        let dir = tmp("readproof");
        let mut d = DurableApp::open(CounterApp::new(), &dir, 4).unwrap();
        for i in 0..4u64 {
            let reqs: Vec<Request> = (0..24).map(|c| req(300 + c, i, 2)).collect();
            d.apply_requests(&reqs).unwrap();
        }
        let (view, secrets) = test_view();
        assert!(
            d.prove_state_chunk(0).unwrap().is_none(),
            "no proof before a certificate assembles"
        );
        certify(&mut d, &secrets, 3);
        let proof = d.prove_state_chunk(1).unwrap().expect("certified chunk");
        assert!(proof.verify(&view));
        // Round-trips through the wire encoding.
        let back: ReadProof = from_bytes(&to_bytes(&proof)).unwrap();
        assert_eq!(back, proof);
        // Tampered chunk bytes fail.
        let mut bad = proof.clone();
        bad.chunk[0] ^= 1;
        assert!(!bad.verify(&view));
        // A proof replayed at another index fails.
        let mut moved = proof.clone();
        moved.chunk_index = 0;
        assert!(!moved.verify(&view));
        // A certificate signed by too few replicas fails.
        let mut weak = proof.clone();
        weak.cert.signatures.truncate(2);
        assert!(!weak.verify(&view));
        // Out-of-range chunks are unanswerable, not panics.
        assert!(d.prove_state_chunk(1 << 20).unwrap().is_none());
    }

    /// The stored certificate survives a restart alongside its snapshot.
    #[test]
    fn checkpoint_cert_persists_across_reopen() {
        let dir = tmp("certpersist");
        let cert = {
            let mut d = DurableApp::open(CounterApp::new(), &dir, 2).unwrap();
            for i in 0..4u64 {
                d.apply_requests(&[req(1, i, 1)]).unwrap();
            }
            let (_, secrets) = test_view();
            certify(&mut d, &secrets, 3)
        };
        let d = DurableApp::open(CounterApp::new(), &dir, 2).unwrap();
        assert_eq!(d.checkpoint_cert(), Some(&cert));
        assert_eq!(
            d.latest_checkpoint_basis(),
            Some((cert.covered, cert.state_root, cert.tip))
        );
    }

    #[test]
    fn async_policy_skips_syncs() {
        let dir = tmp("async");
        let mut d =
            DurableApp::open_with_policy(CounterApp::new(), &dir, 100, SyncPolicy::Async).unwrap();
        for i in 0..4u64 {
            d.apply_requests(&[req(1, i, 1)]).unwrap();
        }
        let stats = d.engine_stats();
        assert_eq!(stats.records, 4);
        assert_eq!(stats.syncs, 0, "λ-persistence never fsyncs on the ack path");
    }

    /// Replaying the raw decided values reproduces the live execution even
    /// when a decided batch contained a duplicate the core had stripped.
    #[test]
    fn recovery_replay_dedups_like_live_delivery() {
        let dir = tmp("dedup");
        {
            let mut d = DurableApp::open(CounterApp::new(), &dir, 100).unwrap();
            d.apply_requests(&[req(1, 1, 5)]).unwrap();
            // A later decided value carries a retransmission of (1, 1): the
            // core delivered only the fresh request; the raw value keeps
            // both. Emulate by logging the raw value with the dup inside.
            let dup = req(1, 1, 5);
            let fresh = req(1, 2, 3);
            let value = smartchain_crypto::ValueBytes::from(encode_batch(&[dup, fresh.clone()]));
            let instance = d.batches_applied() + 1;
            let batch = OrderedBatch {
                instance,
                epoch: 0,
                requests: vec![fresh],
                proof: std::sync::Arc::new(DecisionProof {
                    instance,
                    epoch: 0,
                    value_hash: value.hash(),
                    accepts: Vec::new(),
                }),
                value,
            };
            d.apply_batch(&batch).unwrap();
            assert_eq!(d.app().sum(1), 8, "duplicate executed once");
            // A duplicate inside one decided value executes once too.
            let results = d.apply_requests(&[req(1, 3, 2), req(1, 3, 2)]).unwrap();
            assert_eq!(results, vec![10u64.to_le_bytes().to_vec(), Vec::new()]);
            assert_record(&d, 1, 3, 10);
        }
        let d = DurableApp::open(CounterApp::new(), &dir, 100).unwrap();
        assert_eq!(d.app().sum(1), 10, "replay also executes each once");
        assert_record(&d, 1, 3, 10);
    }

    /// A snapshot whose meta cannot be decoded (written in another layout)
    /// refuses to open instead of resuming with a zero chain tip and an
    /// empty dedup record.
    #[test]
    fn undecodable_snapshot_meta_refuses_to_open() {
        let dir = tmp("badmeta");
        let state = {
            let mut d = DurableApp::open(CounterApp::new(), &dir, 100).unwrap();
            d.apply_requests(&[req(1, 0, 4)]).unwrap();
            d.app().take_snapshot()
        };
        SnapshotStore::open(dir.join("snapshots"))
            .unwrap()
            .install(&Snapshot {
                covered_block: 1,
                state,
                meta: vec![0xFF; 3],
            })
            .unwrap();
        let err = DurableApp::open(CounterApp::new(), &dir, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn segmented_recovery_scans_only_the_tail() {
        let dir = tmp("seg-stats");
        let segments = SegmentConfig {
            records_per_segment: 4,
        };
        {
            let mut d =
                DurableApp::open_segmented(CounterApp::new(), &dir, 8, SyncPolicy::Sync, segments)
                    .unwrap();
            for i in 0..18u64 {
                d.apply_requests(&[req(1, i, 1)]).unwrap();
            }
        }
        let d = DurableApp::open_segmented(CounterApp::new(), &dir, 8, SyncPolicy::Sync, segments)
            .unwrap();
        assert_eq!(d.app().sum(1), 18);
        // Checkpoint at 16 truncated records 0..16 (segments [0..4) ..
        // [12..16) deleted); recovery replays batches 17..18 and scans only
        // the active segment.
        assert_eq!(d.replayed_on_recovery(), 2);
        let stats = d.segment_recovery_stats();
        assert_eq!(stats.segments_scanned, 1);
        assert_eq!(stats.records_scanned, 2);
    }
}
