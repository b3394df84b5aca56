//! The SmartChain block structure (paper Fig. 2) and genesis configuration.
//!
//! A block has three parts:
//!
//! * **header** — block number, number of the last reconfiguration block,
//!   number of the last checkpoint block, hash of the transactions, hash of
//!   the results, hash of the previous block;
//! * **body** — the consensus metadata, the ordered transactions with their
//!   decision proof, and the per-transaction results (reconfiguration blocks
//!   carry the reconfiguration transaction and the new view instead);
//! * **certificate** — ⌈(n+f+1)/2⌉ signatures over the header by the view's
//!   consensus keys (strong variant; the weak variant relies on the decision
//!   proof in the body).

use crate::view_keys::CertifiedKey;
use smartchain_codec::{codec_enum, codec_struct, signing_bytes, Encode};
use smartchain_consensus::proof::{verify_quorum, DecisionProof};
use smartchain_consensus::{ReplicaId, View};
use smartchain_crypto::keys::{PublicKey, Signature};
use smartchain_crypto::{sha256, Hash};
use smartchain_merkle as merkle;
use smartchain_smr::types::Request;

/// Members and key material of one consortium view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewInfo {
    /// Monotonic view number (0 = genesis view).
    pub id: u64,
    /// The members' certified consensus keys, indexed by replica id.
    pub members: Vec<CertifiedKey>,
}

impl ViewInfo {
    /// Number of members.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Tolerated faults ⌊(n-1)/3⌋.
    pub fn f(&self) -> usize {
        (self.n().saturating_sub(1)) / 3
    }

    /// Certificate quorum ⌈(n+f+1)/2⌉.
    pub fn quorum(&self) -> usize {
        (self.n() + self.f() + 2) / 2
    }

    /// The consensus-layer view (consensus public keys only).
    pub fn to_consensus_view(&self) -> View {
        View {
            id: self.id,
            members: self.members.iter().map(|m| m.consensus).collect(),
        }
    }

    /// All key certifications are valid for this view id.
    pub fn keys_certified(&self) -> bool {
        self.members.iter().all(|m| m.verify(self.id))
    }

    /// Index of the member with the given permanent key.
    pub fn position_of(&self, permanent: &PublicKey) -> Option<ReplicaId> {
        self.members.iter().position(|m| m.permanent == *permanent)
    }
}

codec_struct!(ViewInfo { id, members });

/// Genesis configuration: initial consortium, checkpoint period, app data.
#[derive(Clone, Debug, PartialEq)]
pub struct Genesis {
    /// The initial view (vinit), with certified consensus keys.
    pub view: ViewInfo,
    /// Checkpoint period `z` in blocks (paper §V-B3: defined in genesis).
    pub checkpoint_period: u64,
    /// Application bootstrap data (e.g. SMaRtCoin's authorized minters).
    pub app_data: Vec<u8>,
}

codec_struct!(Genesis {
    view,
    checkpoint_period,
    app_data
});

impl Genesis {
    /// Hash of the genesis configuration — the chain's trust anchor and the
    /// `hash_last_block` of block 1.
    pub fn hash(&self) -> Hash {
        sha256::digest_parts(&[b"sc-genesis", &smartchain_codec::to_bytes(self)])
    }
}

/// Block header (paper Fig. 2, top).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block number (genesis = 0).
    pub number: u64,
    /// Number of the closest reconfiguration block at or before this one
    /// (0 = none since genesis).
    pub last_reconfig: u64,
    /// Number of the last block covered by the most recent checkpoint at
    /// creation time (0 = no checkpoint yet).
    pub last_checkpoint: u64,
    /// Merkle root over the transaction leaves (consensus id, then each
    /// encoded request), so single transactions are provable to light
    /// clients without the whole block.
    pub hash_transactions: Hash,
    /// `node_hash(results root, state root)`: binds both the per-request
    /// execution results and the application state root after this block.
    pub hash_results: Hash,
    /// SHA-256 of the previous block's header (genesis hash for block 1).
    pub hash_last_block: Hash,
}

impl BlockHeader {
    /// Hash of this header (chained into the next block).
    pub fn hash(&self) -> Hash {
        sha256::digest_parts(&[b"sc-header", &smartchain_codec::to_bytes(self)])
    }
}

codec_struct!(BlockHeader {
    number,
    last_reconfig,
    last_checkpoint,
    hash_transactions,
    hash_results,
    hash_last_block
});

/// The reconfiguration operation carried by a reconfiguration block.
#[derive(Clone, Debug, PartialEq)]
pub enum ReconfigOp {
    /// A new node joins; it collected acceptance votes from the view.
    Join {
        /// The joining node's certified consensus key for the new view.
        joiner: CertifiedKey,
    },
    /// A member leaves voluntarily.
    Leave {
        /// Permanent key of the departing member.
        leaver: PublicKey,
    },
    /// The view expels a member (requires n-f remove votes).
    Exclude {
        /// Permanent key of the expelled member.
        target: PublicKey,
    },
}

codec_enum!(ReconfigOp {
    0 => Join { joiner },
    1 => Leave { leaver },
    2 => Exclude { target },
});

/// A member's signed acceptance of a reconfiguration, carrying its own new
/// consensus key for the next view (paper §V-D, step 2 of the join flow).
#[derive(Clone, Debug, PartialEq)]
pub struct ReconfigVote {
    /// The voting member's replica id in the current view.
    pub voter: ReplicaId,
    /// The voter's certified consensus key for the *new* view.
    pub new_key: CertifiedKey,
    /// Signature by the voter's permanent key over [`vote_payload`].
    pub signature: Signature,
}

codec_struct!(ReconfigVote {
    voter,
    new_key,
    signature
});

/// Canonical bytes a member signs when voting for a reconfiguration.
pub fn vote_payload(new_view_id: u64, op: &ReconfigOp, new_key: &CertifiedKey) -> Vec<u8> {
    signing_bytes(b"sc-recvote", (new_view_id, op, new_key))
}

/// A complete reconfiguration transaction: the operation plus a quorum
/// (n-f of the current view) of acceptance votes.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconfigTx {
    /// The view this reconfiguration creates (current view id + 1).
    pub new_view_id: u64,
    /// The operation.
    pub op: ReconfigOp,
    /// Acceptance votes carrying new consensus keys.
    pub votes: Vec<ReconfigVote>,
}

impl ReconfigTx {
    /// Validates the vote certificate against the current view: at least
    /// n−f distinct members, correct signatures, certified new keys.
    pub fn verify(&self, current: &ViewInfo) -> bool {
        if self.new_view_id != current.id + 1 {
            return false;
        }
        let mut seen = vec![false; current.n()];
        let mut valid = 0usize;
        for vote in &self.votes {
            let Some(member) = current.members.get(vote.voter) else {
                return false;
            };
            if seen[vote.voter] {
                return false;
            }
            seen[vote.voter] = true;
            if vote.new_key.permanent != member.permanent {
                return false;
            }
            if !vote.new_key.verify(self.new_view_id) {
                return false;
            }
            let payload = vote_payload(self.new_view_id, &self.op, &vote.new_key);
            if !member.permanent.verify(&payload, &vote.signature) {
                return false;
            }
            valid += 1;
        }
        if let ReconfigOp::Join { joiner } = &self.op {
            if !joiner.verify(self.new_view_id) {
                return false;
            }
        }
        valid >= current.n() - current.f()
    }

    /// Derives the new view from the current one by applying the operation:
    /// voters' keys are rotated to their published new keys; joiners are
    /// appended; leavers/excluded members are removed. Members who did not
    /// manage to get a vote into the transaction keep their slot but their
    /// old key is *not* trusted for the new view's certificates (their
    /// fresh key is disseminated in-band; see DESIGN.md).
    pub fn apply(&self, current: &ViewInfo) -> ViewInfo {
        let mut members: Vec<CertifiedKey> = Vec::new();
        for (idx, member) in current.members.iter().enumerate() {
            // Drop leaving/excluded members.
            let drop = match &self.op {
                ReconfigOp::Leave { leaver } => member.permanent == *leaver,
                ReconfigOp::Exclude { target } => member.permanent == *target,
                ReconfigOp::Join { .. } => false,
            };
            if drop {
                continue;
            }
            let rotated = self
                .votes
                .iter()
                .find(|v| v.voter == idx)
                .map(|v| v.new_key)
                .unwrap_or(*member);
            members.push(rotated);
        }
        if let ReconfigOp::Join { joiner } = &self.op {
            members.push(*joiner);
        }
        ViewInfo {
            id: self.new_view_id,
            members,
        }
    }
}

codec_struct!(ReconfigTx {
    new_view_id,
    op,
    votes
});

/// Block body (paper Fig. 2, middle).
#[derive(Clone, Debug, PartialEq)]
pub enum BlockBody {
    /// An ordinary batch of application transactions.
    Transactions {
        /// Consensus instance that decided the batch.
        consensus_id: u64,
        /// Ordered requests.
        requests: Vec<Request>,
        /// Decision proof for the batch.
        proof: DecisionProof,
        /// Per-request execution results (auditability, paper §V-A1 req. 3).
        results: Vec<Vec<u8>>,
    },
    /// A reconfiguration (paper Fig. 2, block l).
    Reconfiguration {
        /// Consensus instance that ordered the reconfiguration.
        consensus_id: u64,
        /// The reconfiguration transaction with its vote certificate.
        tx: ReconfigTx,
        /// Decision proof.
        proof: DecisionProof,
        /// The view the reconfiguration installs.
        new_view: ViewInfo,
    },
}

impl BlockBody {
    /// Encoded transactions (what `hash_transactions` commits to).
    ///
    /// Deliberately excludes the decision proof: each replica assembles its
    /// own quorum of ACCEPT signatures, so proofs differ across replicas
    /// while the *decided content* is identical. Headers must hash equally
    /// everywhere (the PERSIST phase signs them), so only the content is
    /// committed; proofs remain in the body as transferable authority
    /// evidence.
    pub fn transactions_bytes(&self) -> Vec<u8> {
        match self {
            BlockBody::Transactions {
                consensus_id,
                requests,
                ..
            } => {
                let mut out = Vec::new();
                consensus_id.encode(&mut out);
                requests.encode(&mut out);
                out
            }
            BlockBody::Reconfiguration {
                consensus_id, tx, ..
            } => {
                let mut out = Vec::new();
                consensus_id.encode(&mut out);
                tx.encode(&mut out);
                out
            }
        }
    }

    /// The Merkle leaves `hash_transactions` commits to: the consensus id
    /// first, then each request (or the reconfiguration transaction),
    /// individually — so a light client can verify one transaction's
    /// inclusion with a log-sized proof.
    ///
    /// Like [`BlockBody::transactions_bytes`], the decision proof is
    /// excluded: proofs differ across replicas while the decided content is
    /// identical, and headers must hash equally everywhere.
    pub fn transaction_leaves(&self) -> Vec<Vec<u8>> {
        match self {
            BlockBody::Transactions {
                consensus_id,
                requests,
                ..
            } => {
                let mut leaves = Vec::with_capacity(1 + requests.len());
                leaves.push(smartchain_codec::to_bytes(consensus_id));
                leaves.extend(requests.iter().map(smartchain_codec::to_bytes));
                leaves
            }
            BlockBody::Reconfiguration {
                consensus_id, tx, ..
            } => {
                vec![
                    smartchain_codec::to_bytes(consensus_id),
                    smartchain_codec::to_bytes(tx),
                ]
            }
        }
    }

    /// Merkle root over [`BlockBody::transaction_leaves`].
    pub fn transactions_root(&self) -> Hash {
        merkle::root(&self.transaction_leaves())
    }

    /// The per-result Merkle leaves that `hash_results` commits to.
    ///
    /// Using a Merkle root (instead of a flat hash) implements the paper's
    /// footnote 4: results become individually provable, so light verifiers
    /// can check one transaction's outcome without the whole block — the
    /// hook for EVM-style execution engines.
    pub fn results_leaves(&self) -> Vec<Vec<u8>> {
        match self {
            BlockBody::Transactions { results, .. } => results.clone(),
            BlockBody::Reconfiguration { new_view, .. } => {
                vec![smartchain_codec::to_bytes(new_view)]
            }
        }
    }

    /// Merkle root over [`BlockBody::results_leaves`].
    pub fn results_root(&self) -> Hash {
        merkle::root(&self.results_leaves())
    }
}

codec_enum!(BlockBody {
    0 => Transactions { consensus_id, requests, proof, results },
    1 => Reconfiguration { consensus_id, tx, proof, new_view },
});

/// Canonical bytes signed by replicas in the PERSIST phase.
pub fn persist_sign_payload(block_number: u64, header_hash: &Hash) -> Vec<u8> {
    signing_bytes(b"sc-persist", (block_number, header_hash))
}

/// A block certificate: signatures over the header hash by the view's
/// consensus keys (paper §V-C).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Certificate {
    /// `(replica, signature)` pairs.
    pub signatures: Vec<(ReplicaId, Signature)>,
}

impl Certificate {
    /// Checks the certificate for a block's header under `view` by
    /// [`verify_quorum`] over [`persist_sign_payload`], with the members'
    /// consensus keys.
    pub fn verify(&self, header: &BlockHeader, view: &ViewInfo) -> bool {
        let payload = persist_sign_payload(header.number, &header.hash());
        verify_quorum(
            &self.signatures,
            &payload,
            |i| &view.members[i].consensus,
            view.n(),
            view.quorum(),
        )
    }
}

codec_struct!(Certificate { signatures });

/// A complete block.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The body.
    pub body: BlockBody,
    /// The certificate (may be empty in the weak variant).
    pub certificate: Certificate,
}

impl Block {
    /// Builds a block, computing the commitment hashes. `state_root` is the
    /// Merkle root of the application state after executing this block
    /// ([`merkle::chunked_root`] with [`merkle::STATE_CHUNK`]-byte leaves);
    /// it is folded into `hash_results`, so the PERSIST certificate over the
    /// header also certifies the post-block state — the anchor snapshot
    /// installers verify chunks against.
    pub fn build(
        number: u64,
        last_reconfig: u64,
        last_checkpoint: u64,
        hash_last_block: Hash,
        body: BlockBody,
        state_root: Hash,
    ) -> Block {
        let header = BlockHeader {
            number,
            last_reconfig,
            last_checkpoint,
            hash_transactions: body.transactions_root(),
            hash_results: merkle::node_hash(&body.results_root(), &state_root),
            hash_last_block,
        };
        Block {
            header,
            body,
            certificate: Certificate::default(),
        }
    }

    /// Header/body consistency: the transaction commitment matches the body.
    ///
    /// `hash_results` folds in the state root, which is not carried by the
    /// block itself — use [`Block::commitments_valid_with_state`] when the
    /// expected state root is known (checkpoint verification, audits with
    /// replay).
    pub fn commitments_valid(&self) -> bool {
        self.header.hash_transactions == self.body.transactions_root()
    }

    /// Full header/body consistency given the expected post-block state
    /// root: transaction commitment plus the results/state binding.
    pub fn commitments_valid_with_state(&self, state_root: &Hash) -> bool {
        self.commitments_valid()
            && self.header.hash_results == merkle::node_hash(&self.body.results_root(), state_root)
    }

    /// Merkle inclusion proof for result `index` (light-client API).
    ///
    /// The final path element is the block's state root, so the proof folds
    /// up to `hash_results` and verifies against the header alone.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this block's results.
    pub fn prove_result(&self, index: usize, state_root: &Hash) -> merkle::Proof {
        let mut proof = merkle::prove(&self.body.results_leaves(), index);
        proof.path.push((*state_root, true));
        proof
    }

    /// Verifies a result inclusion proof against a (trusted) header.
    pub fn verify_result(header: &BlockHeader, result: &[u8], proof: &merkle::Proof) -> bool {
        merkle::verify(&header.hash_results, result, proof)
    }

    /// Merkle inclusion proof for transaction leaf `index` of
    /// [`BlockBody::transaction_leaves`] (leaf 0 is the consensus id; leaf
    /// `i + 1` is the `i`-th request).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this block's leaves.
    pub fn prove_transaction(&self, index: usize) -> merkle::Proof {
        merkle::prove(&self.body.transaction_leaves(), index)
    }

    /// Verifies a transaction inclusion proof against a (trusted) header.
    pub fn verify_transaction(header: &BlockHeader, leaf: &[u8], proof: &merkle::Proof) -> bool {
        merkle::verify(&header.hash_transactions, leaf, proof)
    }
}

codec_struct!(Block {
    header,
    body,
    certificate
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_keys::KeyStore;
    use smartchain_crypto::keys::{Backend, SecretKey};

    pub(crate) fn stores(n: usize) -> Vec<KeyStore> {
        (0..n)
            .map(|i| {
                KeyStore::new(
                    SecretKey::from_seed(Backend::Sim, &[i as u8 + 120; 32]),
                    Backend::Sim,
                )
            })
            .collect()
    }

    pub(crate) fn view_info(stores: &[KeyStore], id: u64) -> ViewInfo {
        ViewInfo {
            id,
            members: stores.iter().map(|s| s.certified_key_for(id)).collect(),
        }
    }

    fn dummy_proof() -> DecisionProof {
        DecisionProof {
            instance: 1,
            epoch: 0,
            value_hash: [0u8; 32],
            accepts: Vec::new(),
        }
    }

    fn tx_body() -> BlockBody {
        BlockBody::Transactions {
            consensus_id: 1,
            requests: vec![Request {
                client: 1,
                seq: 0,
                payload: vec![1, 2],
                signature: None,
            }],
            proof: dummy_proof(),
            results: vec![vec![9]],
        }
    }

    /// `encoded_len` must stay exact — it is the NIC/disk models' size
    /// source and must never drift from encode().
    #[test]
    fn len_matches_encoding() {
        let st = stores(4);
        let view = view_info(&st, 1);
        let vote = ReconfigVote {
            voter: 2,
            new_key: st[2].certified_key_for(1),
            signature: st[2].permanent().sign(b"v"),
        };
        let tx = ReconfigTx {
            new_view_id: 1,
            op: ReconfigOp::Join {
                joiner: st[0].certified_key_for(1),
            },
            votes: vec![vote.clone()],
        };
        let genesis = Genesis {
            view: view.clone(),
            checkpoint_period: 10,
            app_data: vec![1, 2, 3],
        };
        let body = tx_body();
        let block = Block::build(1, 0, 0, [7u8; 32], body.clone(), [8u8; 32]);
        let cert = Certificate {
            signatures: vec![(0, st[0].consensus().sign(b"c"))],
        };
        fn check<T: Encode + ?Sized>(v: &T, what: &str) {
            assert_eq!(v.encoded_len(), v.to_vec().len(), "{what}");
        }
        check(&view, "ViewInfo");
        check(&genesis, "Genesis");
        check(&block.header, "BlockHeader");
        check(&body, "BlockBody");
        check(&block, "Block");
        check(&cert, "Certificate");
        check(&vote, "ReconfigVote");
        check(&tx, "ReconfigTx");
        check(&tx.op, "ReconfigOp");
        check(&st[0].certified_key_for(1), "CertifiedKey");
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let base = BlockHeader {
            number: 1,
            last_reconfig: 0,
            last_checkpoint: 0,
            hash_transactions: [1u8; 32],
            hash_results: [2u8; 32],
            hash_last_block: [3u8; 32],
        };
        let h = base.hash();
        let variants = [
            BlockHeader { number: 2, ..base },
            BlockHeader {
                last_reconfig: 1,
                ..base
            },
            BlockHeader {
                last_checkpoint: 1,
                ..base
            },
            BlockHeader {
                hash_transactions: [9u8; 32],
                ..base
            },
            BlockHeader {
                hash_results: [9u8; 32],
                ..base
            },
            BlockHeader {
                hash_last_block: [9u8; 32],
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.hash(), h);
        }
    }

    #[test]
    fn block_build_commits_to_body() {
        let state_root = [5u8; 32];
        let b = Block::build(1, 0, 0, [0u8; 32], tx_body(), state_root);
        assert!(b.commitments_valid());
        assert!(b.commitments_valid_with_state(&state_root));
        // The header binds the state root even though the block doesn't
        // carry it: a different root fails the full check.
        assert!(!b.commitments_valid_with_state(&[6u8; 32]));
        let mut tampered = b.clone();
        if let BlockBody::Transactions { requests, .. } = &mut tampered.body {
            requests[0].payload = vec![9, 9];
        }
        assert!(!tampered.commitments_valid());
    }

    #[test]
    fn block_codec_roundtrip() {
        let b = Block::build(3, 1, 2, [7u8; 32], tx_body(), [0u8; 32]);
        let bytes = smartchain_codec::to_bytes(&b);
        let back: Block = smartchain_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn certificate_quorum_rules() {
        let ks = stores(4);
        let view = view_info(&ks, 0);
        let block = Block::build(1, 0, 0, [0u8; 32], tx_body(), [0u8; 32]);
        let payload = persist_sign_payload(1, &block.header.hash());
        let sign = |i: usize| (i, ks[i].consensus().sign(&payload));
        let full = Certificate {
            signatures: (0..4).map(sign).collect(),
        };
        assert!(full.verify(&block.header, &view));
        let quorum = Certificate {
            signatures: (0..3).map(sign).collect(),
        };
        assert!(quorum.verify(&block.header, &view));
        let sub = Certificate {
            signatures: (0..2).map(sign).collect(),
        };
        assert!(!sub.verify(&block.header, &view));
    }

    #[test]
    fn certificate_rejects_wrong_view_keys() {
        let ks = stores(4);
        let view0 = view_info(&ks, 0);
        let view1 = view_info(&ks, 1); // rotated keys
        let block = Block::build(1, 0, 0, [0u8; 32], tx_body(), [0u8; 32]);
        let payload = persist_sign_payload(1, &block.header.hash());
        // Signatures with view-0 keys must not verify under view 1.
        let cert = Certificate {
            signatures: (0..3)
                .map(|i| (i, ks[i].consensus().sign(&payload)))
                .collect(),
        };
        assert!(cert.verify(&block.header, &view0));
        assert!(!cert.verify(&block.header, &view1));
    }

    #[test]
    fn reconfig_tx_join_verify_and_apply() {
        let ks = stores(4);
        let current = view_info(&ks, 0);
        let joiner_store = KeyStore::new(
            SecretKey::from_seed(Backend::Sim, &[200u8; 32]),
            Backend::Sim,
        );
        let joiner = joiner_store.certified_key_for(1);
        let op = ReconfigOp::Join { joiner };
        let votes: Vec<ReconfigVote> = (0..3)
            .map(|i| {
                let new_key = ks[i].certified_key_for(1);
                let payload = vote_payload(1, &op, &new_key);
                ReconfigVote {
                    voter: i,
                    new_key,
                    signature: ks[i].permanent().sign(&payload),
                }
            })
            .collect();
        let tx = ReconfigTx {
            new_view_id: 1,
            op,
            votes,
        };
        assert!(tx.verify(&current));
        let next = tx.apply(&current);
        assert_eq!(next.id, 1);
        assert_eq!(next.n(), 5);
        assert_eq!(next.members[4].permanent, joiner_store.permanent_public());
        // Voters' keys rotated; member 3 (no vote) kept its old entry.
        assert_ne!(next.members[0].consensus, current.members[0].consensus);
        assert_eq!(next.members[3].consensus, current.members[3].consensus);
    }

    #[test]
    fn reconfig_tx_subquorum_rejected() {
        let ks = stores(4);
        let current = view_info(&ks, 0);
        let op = ReconfigOp::Leave {
            leaver: ks[3].permanent_public(),
        };
        let votes: Vec<ReconfigVote> = (0..2)
            .map(|i| {
                let new_key = ks[i].certified_key_for(1);
                let payload = vote_payload(1, &op, &new_key);
                ReconfigVote {
                    voter: i,
                    new_key,
                    signature: ks[i].permanent().sign(&payload),
                }
            })
            .collect();
        let tx = ReconfigTx {
            new_view_id: 1,
            op,
            votes,
        };
        assert!(!tx.verify(&current), "2 < n-f = 3 votes");
    }

    #[test]
    fn reconfig_leave_removes_member() {
        let ks = stores(4);
        let current = view_info(&ks, 0);
        let op = ReconfigOp::Leave {
            leaver: ks[2].permanent_public(),
        };
        let votes: Vec<ReconfigVote> = [0usize, 1, 3]
            .iter()
            .map(|&i| {
                let new_key = ks[i].certified_key_for(1);
                let payload = vote_payload(1, &op, &new_key);
                ReconfigVote {
                    voter: i,
                    new_key,
                    signature: ks[i].permanent().sign(&payload),
                }
            })
            .collect();
        let tx = ReconfigTx {
            new_view_id: 1,
            op,
            votes,
        };
        assert!(tx.verify(&current));
        let next = tx.apply(&current);
        assert_eq!(next.n(), 3);
        assert!(next.position_of(&ks[2].permanent_public()).is_none());
    }

    #[test]
    fn vote_from_non_member_rejected() {
        let ks = stores(4);
        let current = view_info(&ks, 0);
        let outsider = KeyStore::new(
            SecretKey::from_seed(Backend::Sim, &[222u8; 32]),
            Backend::Sim,
        );
        let op = ReconfigOp::Leave {
            leaver: ks[3].permanent_public(),
        };
        let mut votes: Vec<ReconfigVote> = [0usize, 1]
            .iter()
            .map(|&i| {
                let new_key = ks[i].certified_key_for(1);
                let payload = vote_payload(1, &op, &new_key);
                ReconfigVote {
                    voter: i,
                    new_key,
                    signature: ks[i].permanent().sign(&payload),
                }
            })
            .collect();
        // The outsider pretends to be voter 2.
        let fake_key = outsider.certified_key_for(1);
        let payload = vote_payload(1, &op, &fake_key);
        votes.push(ReconfigVote {
            voter: 2,
            new_key: fake_key,
            signature: outsider.permanent().sign(&payload),
        });
        let tx = ReconfigTx {
            new_view_id: 1,
            op,
            votes,
        };
        assert!(!tx.verify(&current));
    }

    #[test]
    fn genesis_hash_is_stable_and_binding() {
        let ks = stores(4);
        let g = Genesis {
            view: view_info(&ks, 0),
            checkpoint_period: 100,
            app_data: vec![1, 2, 3],
        };
        assert_eq!(g.hash(), g.clone().hash());
        let g2 = Genesis {
            checkpoint_period: 101,
            ..g.clone()
        };
        assert_ne!(g.hash(), g2.hash());
    }
}

#[cfg(test)]
mod merkle_result_tests {
    use super::*;
    use smartchain_consensus::proof::DecisionProof;
    use smartchain_smr::types::Request;

    fn body(results: Vec<Vec<u8>>) -> BlockBody {
        BlockBody::Transactions {
            consensus_id: 1,
            requests: results
                .iter()
                .enumerate()
                .map(|(i, _)| Request {
                    client: 1,
                    seq: i as u64,
                    payload: vec![i as u8],
                    signature: None,
                })
                .collect(),
            proof: DecisionProof {
                instance: 1,
                epoch: 0,
                value_hash: [0u8; 32],
                accepts: vec![],
            },
            results,
        }
    }

    #[test]
    fn result_proofs_verify() {
        let state_root = [3u8; 32];
        let results: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 20]).collect();
        let block = Block::build(1, 0, 0, [0u8; 32], body(results.clone()), state_root);
        for (i, result) in results.iter().enumerate() {
            let proof = block.prove_result(i, &state_root);
            assert!(
                Block::verify_result(&block.header, result, &proof),
                "result {i}"
            );
            assert!(!Block::verify_result(&block.header, b"forged", &proof));
        }
    }

    #[test]
    fn transaction_proofs_verify() {
        let results: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 9]).collect();
        let block = Block::build(1, 0, 0, [0u8; 32], body(results), [0u8; 32]);
        let leaves = block.body.transaction_leaves();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = block.prove_transaction(i);
            assert!(
                Block::verify_transaction(&block.header, leaf, &proof),
                "leaf {i}"
            );
            assert!(!Block::verify_transaction(&block.header, b"forged", &proof));
        }
    }

    #[test]
    fn tampered_result_breaks_commitment() {
        let state_root = [4u8; 32];
        let mut block = Block::build(1, 0, 0, [0u8; 32], body(vec![vec![1], vec![2]]), state_root);
        assert!(block.commitments_valid_with_state(&state_root));
        if let BlockBody::Transactions { results, .. } = &mut block.body {
            results[1] = vec![9];
        }
        assert!(!block.commitments_valid_with_state(&state_root));
    }

    #[test]
    fn proof_from_one_block_fails_on_another() {
        let state_root = [0u8; 32];
        let a = Block::build(1, 0, 0, [0u8; 32], body(vec![vec![1], vec![2]]), state_root);
        let b = Block::build(1, 0, 0, [0u8; 32], body(vec![vec![3], vec![4]]), state_root);
        let proof = a.prove_result(0, &state_root);
        assert!(!Block::verify_result(&b.header, &[1], &proof));
    }
}
