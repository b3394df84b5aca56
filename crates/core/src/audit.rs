//! Third-party chain verification (self-verifiability, paper Observation 2
//! and §V-B).
//!
//! An auditor holds nothing but the genesis configuration and a sequence of
//! blocks. It verifies, block by block:
//!
//! 1. **linkage** — `hash_last_block` chains correctly and the transaction
//!    Merkle commitment matches the body;
//! 2. **binding** — a transaction block's decision proof certifies *this*
//!    block's content: its value hash must equal the hash of the encoded
//!    request batch. Without this check a replayed proof (a valid quorum of
//!    ACCEPT signatures for some other decided value) would lend authority
//!    to arbitrary forged requests;
//! 3. **authority** — the block is vouched for by the view in force at its
//!    position: the strong-variant certificate (or, failing that, the
//!    decision proof) must carry a quorum of signatures under the *consensus
//!    keys published for that view*;
//! 4. **reconfigurations** — reconfiguration blocks carry a valid n−f vote
//!    certificate from the previous view, and the new view is exactly the
//!    deterministic application of the reconfiguration transaction.
//!
//! Because consensus keys rotate per view and the old secrets are destroyed
//! (the forgetting protocol), a coalition of *ex*-members cannot mint a
//! competing suffix: their signatures no longer count toward any view's
//! quorum. [`verify_chain`] therefore rejects the Figure-4 fork.

use crate::block::{Block, BlockBody, Genesis, ViewInfo};
use smartchain_consensus::proof::DecisionProof;
use smartchain_crypto::{sha256, Hash};
use smartchain_smr::types::encode_batch;

/// Why a chain failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// Genesis key certifications are invalid.
    BadGenesis,
    /// Block numbering is not consecutive.
    BadNumber {
        /// Expected block number.
        expected: u64,
        /// Number found in the header.
        found: u64,
    },
    /// `hash_last_block` does not match the previous block.
    BrokenLink {
        /// Block where the break occurred.
        number: u64,
    },
    /// `hash_transactions` does not match the body.
    BadCommitment {
        /// Offending block.
        number: u64,
    },
    /// The decision proof's value hash does not cover the block's request
    /// batch — a replayed proof attached to forged content.
    ProofMismatch {
        /// Offending block.
        number: u64,
    },
    /// Neither the certificate nor the decision proof carries a quorum of
    /// valid signatures under the view in force.
    NoAuthority {
        /// Offending block.
        number: u64,
    },
    /// A reconfiguration block's vote certificate is invalid.
    BadReconfig {
        /// Offending block.
        number: u64,
    },
    /// The recorded new view differs from applying the reconfiguration.
    WrongNewView {
        /// Offending block.
        number: u64,
    },
    /// `last_reconfig` bookkeeping in a header is wrong.
    BadReconfigPointer {
        /// Offending block.
        number: u64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::BadGenesis => write!(f, "genesis key certifications invalid"),
            AuditError::BadNumber { expected, found } => {
                write!(f, "expected block {expected}, found {found}")
            }
            AuditError::BrokenLink { number } => write!(f, "hash chain broken at block {number}"),
            AuditError::BadCommitment { number } => {
                write!(f, "commitment hashes wrong at block {number}")
            }
            AuditError::ProofMismatch { number } => {
                write!(f, "decision proof does not cover block {number}'s requests")
            }
            AuditError::NoAuthority { number } => {
                write!(f, "no valid quorum authority for block {number}")
            }
            AuditError::BadReconfig { number } => {
                write!(f, "invalid reconfiguration certificate at block {number}")
            }
            AuditError::WrongNewView { number } => {
                write!(f, "recorded new view mismatches at block {number}")
            }
            AuditError::BadReconfigPointer { number } => {
                write!(f, "last_reconfig pointer wrong at block {number}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Result of a successful audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Number of blocks verified (excluding genesis).
    pub blocks: u64,
    /// The view in force after the last verified block.
    pub final_view_id: u64,
    /// Hash of the last verified block.
    pub tip: Hash,
}

/// Checks a decision proof against a view's consensus keys (the weak
/// variant's authority evidence).
fn proof_has_authority(proof: &DecisionProof, view: &ViewInfo) -> bool {
    proof.verify(&view.to_consensus_view())
}

/// A verifier's position in a chain: the view in force, and what the next
/// block must carry as its number, parent hash and `last_reconfig`. The
/// auditor starts it at genesis; state transfer starts it at a replica's
/// own tip.
#[derive(Clone, Debug)]
pub(crate) struct ChainCursor {
    pub(crate) view: ViewInfo,
    pub(crate) prev_hash: Hash,
    pub(crate) next_number: u64,
    pub(crate) last_reconfig: u64,
}

impl ChainCursor {
    /// The position before block 1.
    pub(crate) fn at_genesis(genesis: &Genesis) -> ChainCursor {
        ChainCursor {
            view: genesis.view.clone(),
            prev_hash: genesis.hash(),
            next_number: 1,
            last_reconfig: 0,
        }
    }

    /// Checks `block` as the next block — the module docs' four checks —
    /// and advances past it (into the new view after a reconfiguration).
    pub(crate) fn verify_next(&mut self, block: &Block) -> Result<(), AuditError> {
        let number = block.header.number;
        if number != self.next_number {
            return Err(AuditError::BadNumber {
                expected: self.next_number,
                found: number,
            });
        }
        if block.header.hash_last_block != self.prev_hash {
            return Err(AuditError::BrokenLink { number });
        }
        if !block.commitments_valid() {
            return Err(AuditError::BadCommitment { number });
        }
        if block.header.last_reconfig != self.last_reconfig {
            return Err(AuditError::BadReconfigPointer { number });
        }
        let view = &self.view;
        let has_authority = |proof: &DecisionProof| {
            proof_has_authority(proof, view) || block.certificate.verify(&block.header, view)
        };
        match &block.body {
            BlockBody::Transactions {
                requests, proof, ..
            } => {
                // The proof must certify *this* batch: proof.verify() alone
                // only checks signatures over the proof's own value hash,
                // which nothing would otherwise tie to the block content.
                if proof.value_hash != sha256::digest(&encode_batch(requests)) {
                    return Err(AuditError::ProofMismatch { number });
                }
                if !has_authority(proof) {
                    return Err(AuditError::NoAuthority { number });
                }
            }
            BlockBody::Reconfiguration {
                tx,
                proof,
                new_view,
                ..
            } => {
                if !tx.verify(view) {
                    return Err(AuditError::BadReconfig { number });
                }
                if !has_authority(proof) {
                    return Err(AuditError::NoAuthority { number });
                }
                let derived = tx.apply(view);
                if &derived != new_view {
                    return Err(AuditError::WrongNewView { number });
                }
                self.view = derived;
                self.last_reconfig = number;
            }
        }
        self.prev_hash = block.header.hash();
        self.next_number += 1;
        Ok(())
    }
}

/// Verifies a full chain against its genesis. See the module docs for the
/// exact checks.
///
/// # Errors
///
/// Returns the first [`AuditError`] encountered.
pub fn verify_chain(genesis: &Genesis, blocks: &[Block]) -> Result<AuditReport, AuditError> {
    if !genesis.view.keys_certified() {
        return Err(AuditError::BadGenesis);
    }
    let mut cursor = ChainCursor::at_genesis(genesis);
    for block in blocks {
        cursor.verify_next(block)?;
    }
    Ok(AuditReport {
        blocks: blocks.len() as u64,
        final_view_id: cursor.view.id,
        tip: cursor.prev_hash,
    })
}

/// Compares a suspect suffix against an audited chain: returns true when the
/// suspect chain forks (diverges from) the reference at or after
/// `fork_point`, yet both pass naive linkage checks — used in tests to show
/// that linkage alone does not prevent forks but authority checks do.
pub fn is_link_valid_fork(genesis: &Genesis, reference: &[Block], suspect: &[Block]) -> bool {
    // Linkage-only check of the suspect chain.
    let mut prev = genesis.hash();
    let mut expected = 1u64;
    #[allow(clippy::explicit_counter_loop)]
    for b in suspect {
        if b.header.number != expected || b.header.hash_last_block != prev || !b.commitments_valid()
        {
            return false;
        }
        prev = b.header.hash();
        expected += 1;
    }
    // A fork exists if some position differs from the reference.
    suspect
        .iter()
        .zip(reference.iter())
        .any(|(s, r)| s.header.hash() != r.header.hash())
        || suspect.len() != reference.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{
        persist_sign_payload, vote_payload, BlockBody, Certificate, ReconfigOp, ReconfigTx,
        ReconfigVote,
    };
    use crate::view_keys::KeyStore;
    use smartchain_consensus::messages::accept_sign_payload;
    use smartchain_crypto::keys::{Backend, SecretKey};
    use smartchain_crypto::sha256;
    use smartchain_smr::types::Request;

    struct Harness {
        stores: Vec<KeyStore>,
        genesis: Genesis,
        chain: Vec<Block>,
        view: ViewInfo,
    }

    impl Harness {
        fn new(n: usize) -> Harness {
            let stores: Vec<KeyStore> = (0..n)
                .map(|i| {
                    KeyStore::new(
                        SecretKey::from_seed(Backend::Sim, &[i as u8 + 140; 32]),
                        Backend::Sim,
                    )
                })
                .collect();
            let view = ViewInfo {
                id: 0,
                members: stores.iter().map(|s| s.certified_key_for(0)).collect(),
            };
            let genesis = Genesis {
                view: view.clone(),
                checkpoint_period: 100,
                app_data: Vec::new(),
            };
            Harness {
                stores,
                genesis,
                chain: Vec::new(),
                view,
            }
        }

        fn prev_hash(&self) -> Hash {
            self.chain
                .last()
                .map(|b| b.header.hash())
                .unwrap_or_else(|| self.genesis.hash())
        }

        fn last_reconfig(&self) -> u64 {
            self.chain
                .iter()
                .rev()
                .find(|b| matches!(b.body, BlockBody::Reconfiguration { .. }))
                .map(|b| b.header.number)
                .unwrap_or(0)
        }

        /// Appends a tx block properly signed by the current view.
        fn push_tx_block(&mut self) {
            let number = self.chain.len() as u64 + 1;
            let requests = vec![Request {
                client: 1,
                seq: number,
                payload: vec![number as u8],
                signature: None,
            }];
            let value_hash = sha256::digest(&smartchain_smr::types::encode_batch(&requests));
            // Genuine decision proof from the current view's consensus keys.
            let payload = accept_sign_payload(number, 0, &value_hash);
            let accepts = self
                .view
                .members
                .iter()
                .enumerate()
                .take(self.view.quorum())
                .map(|(i, _)| {
                    let idx = self
                        .stores
                        .iter()
                        .position(|s| {
                            s.certified_key_for(self.view.id).consensus
                                == self.view.members[i].consensus
                        })
                        .expect("store for member");
                    (
                        i,
                        self.stores[idx]
                            .consensus_for_view(self.view.id)
                            .sign(&payload),
                    )
                })
                .collect();
            let proof = DecisionProof {
                instance: number,
                epoch: 0,
                value_hash,
                accepts,
            };
            let body = BlockBody::Transactions {
                consensus_id: number,
                requests,
                proof,
                results: vec![vec![0]],
            };
            let mut block = Block::build(
                number,
                self.last_reconfig(),
                0,
                self.prev_hash(),
                body,
                [0u8; 32],
            );
            // Strong certificate too.
            let cert_payload = persist_sign_payload(number, &block.header.hash());
            block.certificate = Certificate {
                signatures: (0..self.view.quorum())
                    .map(|i| {
                        (
                            i,
                            self.stores[i]
                                .consensus_for_view(self.view.id)
                                .sign(&cert_payload),
                        )
                    })
                    .collect(),
            };
            self.chain.push(block);
        }

        /// Appends a reconfiguration block removing member `leaver`.
        fn push_leave_block(&mut self, leaver: usize) {
            let number = self.chain.len() as u64 + 1;
            let new_view_id = self.view.id + 1;
            let op = ReconfigOp::Leave {
                leaver: self.view.members[leaver].permanent,
            };
            let votes: Vec<ReconfigVote> = (0..self.view.n())
                .filter(|&i| i != leaver)
                .take(self.view.n() - self.view.f())
                .map(|i| {
                    let new_key = self.stores[i].certified_key_for(new_view_id);
                    let payload = vote_payload(new_view_id, &op, &new_key);
                    ReconfigVote {
                        voter: i,
                        new_key,
                        signature: self.stores[i].permanent().sign(&payload),
                    }
                })
                .collect();
            let tx = ReconfigTx {
                new_view_id,
                op,
                votes,
            };
            assert!(tx.verify(&self.view));
            let new_view = tx.apply(&self.view);
            let tx_bytes = smartchain_codec::to_bytes(&tx);
            let value_hash = sha256::digest(&tx_bytes);
            let payload = accept_sign_payload(number, 0, &value_hash);
            let proof = DecisionProof {
                instance: number,
                epoch: 0,
                value_hash,
                accepts: (0..self.view.quorum())
                    .map(|i| {
                        (
                            i,
                            self.stores[i]
                                .consensus_for_view(self.view.id)
                                .sign(&payload),
                        )
                    })
                    .collect(),
            };
            let body = BlockBody::Reconfiguration {
                consensus_id: number,
                tx,
                proof,
                new_view: new_view.clone(),
            };
            let mut block = Block::build(
                number,
                self.last_reconfig(),
                0,
                self.prev_hash(),
                body,
                [0u8; 32],
            );
            let cert_payload = persist_sign_payload(number, &block.header.hash());
            block.certificate = Certificate {
                signatures: (0..self.view.quorum())
                    .map(|i| {
                        (
                            i,
                            self.stores[i]
                                .consensus_for_view(self.view.id)
                                .sign(&cert_payload),
                        )
                    })
                    .collect(),
            };
            self.chain.push(block);
            self.view = new_view;
        }
    }

    // Expose per-view consensus secrets for test-side signing.
    trait ConsensusForView {
        fn consensus_for_view(&self, view_id: u64) -> SecretKey;
    }
    impl ConsensusForView for KeyStore {
        fn consensus_for_view(&self, view_id: u64) -> SecretKey {
            self.leak_old_key_for_attack(view_id)
        }
    }

    #[test]
    fn valid_chain_passes() {
        let mut h = Harness::new(4);
        for _ in 0..5 {
            h.push_tx_block();
        }
        let report = verify_chain(&h.genesis, &h.chain).expect("chain verifies");
        assert_eq!(report.blocks, 5);
        assert_eq!(report.final_view_id, 0);
    }

    #[test]
    fn chain_with_reconfig_passes_and_tracks_view() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        h.push_leave_block(3);
        h.push_tx_block();
        let report = verify_chain(&h.genesis, &h.chain).expect("chain verifies");
        assert_eq!(report.final_view_id, 1);
        assert_eq!(report.blocks, 3);
    }

    #[test]
    fn tampered_transaction_detected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        h.push_tx_block();
        if let BlockBody::Transactions { requests, .. } = &mut h.chain[0].body {
            requests[0].payload = vec![99];
        }
        assert_eq!(
            verify_chain(&h.genesis, &h.chain),
            Err(AuditError::BadCommitment { number: 1 })
        );
    }

    #[test]
    fn reordered_blocks_detected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        h.push_tx_block();
        h.chain.swap(0, 1);
        assert!(matches!(
            verify_chain(&h.genesis, &h.chain),
            Err(AuditError::BadNumber { .. })
        ));
    }

    #[test]
    fn block_without_authority_detected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        // Strip both the certificate and the proof signatures.
        h.chain[0].certificate = Certificate::default();
        if let BlockBody::Transactions { proof, .. } = &mut h.chain[0].body {
            proof.accepts.clear();
        }
        // Rebuild commitments so only authority fails.
        let body = h.chain[0].body.clone();
        let rebuilt = Block::build(1, 0, 0, h.genesis.hash(), body, [0u8; 32]);
        h.chain[0].header = rebuilt.header;
        assert_eq!(
            verify_chain(&h.genesis, &h.chain),
            Err(AuditError::NoAuthority { number: 1 })
        );
    }

    /// The value-hash binding gap: a decision proof is a quorum of ACCEPT
    /// signatures over `(instance, epoch, value_hash)` — valid *standalone*
    /// no matter what requests sit next to it. An attacker who replays a
    /// genuine proof beside forged requests (header rebuilt so commitments
    /// hold, certificate stripped as in the weak variant) must be caught by
    /// the batch-hash binding check, not slip through on proof authority.
    #[test]
    fn replayed_proof_with_forged_requests_rejected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        let forged_requests = vec![Request {
            client: 66,
            seq: 0,
            payload: vec![6, 6],
            signature: None,
        }];
        let (proof, results) = match &h.chain[0].body {
            BlockBody::Transactions { proof, results, .. } => (proof.clone(), results.clone()),
            _ => unreachable!(),
        };
        // The replayed proof still carries quorum authority on its own.
        assert!(proof_has_authority(&proof, &h.view));
        let body = BlockBody::Transactions {
            consensus_id: 1,
            requests: forged_requests,
            proof,
            results,
        };
        h.chain[0] = Block::build(1, 0, 0, h.genesis.hash(), body, [0u8; 32]);
        assert_eq!(
            verify_chain(&h.genesis, &h.chain),
            Err(AuditError::ProofMismatch { number: 1 })
        );
    }

    /// State transfer installs a suffix from one shipper without the
    /// `f + 1` digest round only if it passes this module's per-block
    /// checks from the requester's tip. Two forged suffixes that carry a
    /// quorum-signed proof at every block's own number (all the check
    /// looked at before it shared the auditor's rule) must not.
    #[test]
    fn state_transfer_rejects_forged_suffixes() {
        type Node = crate::node::ChainNode<smartchain_smr::app::CounterApp>;
        let accepts = |h: &Harness, blocks: &[Block]| {
            Node::suffix_self_authenticating(ChainCursor::at_genesis(&h.genesis), blocks)
        };
        let mut h = Harness::new(4);
        h.push_tx_block();
        h.push_leave_block(3);
        let honest = h.chain.clone();
        assert!(accepts(&h, &honest));

        // A swapped batch under the copied genuine proof, commitments
        // rebuilt (the replayed-proof forgery above).
        let mut swapped = honest.clone();
        let BlockBody::Transactions { proof, results, .. } = swapped[0].body.clone() else {
            unreachable!()
        };
        let body = BlockBody::Transactions {
            consensus_id: 1,
            requests: vec![Request {
                client: 66,
                seq: 0,
                payload: vec![6, 6],
                signature: None,
            }],
            proof,
            results,
        };
        swapped[0] = Block::build(1, 0, 0, h.genesis.hash(), body, [0u8; 32]);
        assert!(!accepts(&h, &swapped[..1]));

        // A reconfiguration whose recorded new view is not the one its
        // transaction derives, commitments resealed.
        let mut reviewed = honest.clone();
        if let BlockBody::Reconfiguration { new_view, .. } = &mut reviewed[1].body {
            new_view.members.swap(0, 1);
        }
        let body = reviewed[1].body.clone();
        reviewed[1] = Block::build(2, 0, 0, honest[0].header.hash(), body, [0u8; 32]);
        assert!(!accepts(&h, &reviewed));

        // Blocks at or below the tip are skipped (installing skips them
        // too), and a suffix past a view change falls back to the digest
        // rule.
        let mut tip = ChainCursor::at_genesis(&h.genesis);
        tip.verify_next(&honest[0]).expect("block 1 verifies");
        assert!(Node::suffix_self_authenticating(tip, &honest));
        h.push_tx_block();
        assert!(verify_chain(&h.genesis, &h.chain).is_ok());
        assert!(!accepts(&h, &h.chain));
    }

    /// The paper's Figure-4 attack: after a reconfiguration removes nodes,
    /// the removed (now compromised) nodes try to extend the chain from just
    /// before the reconfiguration block, using their *old view* keys.
    #[test]
    fn figure4_fork_rejected_with_key_rotation() {
        let mut h = Harness::new(4);
        h.push_tx_block(); // block 1
        let fork_base = h.chain.clone(); // chain ending at block 1
        h.push_leave_block(3); // block 2: node 3 leaves, keys rotate
        h.push_tx_block(); // block 3 under view 1
        assert!(verify_chain(&h.genesis, &h.chain).is_ok());

        // Attack: nodes 1, 2, 3 are compromised *after* the reconfiguration.
        // They still know their view-0 keys ONLY if they skipped the
        // forgetting protocol; with rotation done correctly, the adversary
        // can re-derive nothing. Model the strongest plausible attacker: it
        // holds node 3's old key (node 3 never rotated: it left) plus f = 1
        // compromised-from-the-start member (node 2). That is 2 < quorum 3.
        let mut fork = fork_base;
        let number = 2u64;
        let requests = vec![Request {
            client: 66,
            seq: 0,
            payload: vec![6, 6],
            signature: None,
        }];
        let value_hash = sha256::digest(&smartchain_smr::types::encode_batch(&requests));
        let payload = accept_sign_payload(number, 0, &value_hash);
        let accepts = vec![
            (2usize, h.stores[2].consensus_for_view(0).sign(&payload)),
            (3usize, h.stores[3].consensus_for_view(0).sign(&payload)),
        ];
        let proof = DecisionProof {
            instance: number,
            epoch: 0,
            value_hash,
            accepts,
        };
        let body = BlockBody::Transactions {
            consensus_id: number,
            requests,
            proof,
            results: vec![vec![0]],
        };
        let prev = fork.last().map(|b| b.header.hash()).unwrap();
        let mut fork_block = Block::build(number, 0, 0, prev, body, [0u8; 32]);
        let cert_payload = persist_sign_payload(number, &fork_block.header.hash());
        fork_block.certificate = Certificate {
            signatures: vec![
                (2, h.stores[2].consensus_for_view(0).sign(&cert_payload)),
                (3, h.stores[3].consensus_for_view(0).sign(&cert_payload)),
            ],
        };
        fork.push(fork_block);
        // The fork is link-valid (hash chain is fine)...
        assert!(is_link_valid_fork(&h.genesis, &h.chain, &fork));
        // ...but the auditor rejects it: no quorum authority at block 2.
        assert_eq!(
            verify_chain(&h.genesis, &fork),
            Err(AuditError::NoAuthority { number: 2 })
        );
    }

    #[test]
    fn bad_reconfig_pointer_detected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        h.push_tx_block();
        // Claim block 2's last reconfiguration was block 1 (a lie).
        let body = h.chain[1].body.clone();
        let mut forged = Block::build(2, 1, 0, h.chain[0].header.hash(), body, [0u8; 32]);
        forged.header.last_reconfig = 1;
        // Rebuild to keep commitments valid while keeping the bad pointer.
        let hdr = crate::block::BlockHeader {
            last_reconfig: 1,
            ..forged.header
        };
        forged.header = hdr;
        h.chain[1] = forged;
        assert_eq!(
            verify_chain(&h.genesis, &h.chain),
            Err(AuditError::BadReconfigPointer { number: 2 })
        );
    }

    #[test]
    fn wrong_new_view_detected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        h.push_leave_block(3);
        // Tamper with the recorded new view: swap two members.
        let reconfig_index = 1usize;
        if let BlockBody::Reconfiguration { new_view, .. } = &mut h.chain[reconfig_index].body {
            new_view.members.swap(0, 1);
        }
        // Re-seal commitments so only the view derivation check fires.
        let body = h.chain[reconfig_index].body.clone();
        let prev = h.chain[reconfig_index - 1].header.hash();
        let resealed = Block::build(2, 0, 0, prev, body, [0u8; 32]);
        h.chain[reconfig_index].header = resealed.header;
        assert_eq!(
            verify_chain(&h.genesis, &h.chain[..2]),
            Err(AuditError::WrongNewView { number: 2 })
        );
    }

    #[test]
    fn bad_genesis_certification_detected() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        // Corrupt one genesis key certification: swap two members' certs.
        let c0 = h.genesis.view.members[0].cert;
        h.genesis.view.members[0].cert = h.genesis.view.members[1].cert;
        h.genesis.view.members[1].cert = c0;
        assert_eq!(
            verify_chain(&h.genesis, &h.chain),
            Err(AuditError::BadGenesis)
        );
    }

    #[test]
    fn empty_chain_audits_trivially() {
        let h = Harness::new(4);
        let report = verify_chain(&h.genesis, &[]).expect("empty chain is valid");
        assert_eq!(report.blocks, 0);
        assert_eq!(report.tip, h.genesis.hash());
    }

    /// Ablation: WITHOUT key rotation (consensus keys never change), the
    /// same coalition of removed nodes plus one faulty member reaches the
    /// old-view quorum and the fork *verifies* — demonstrating exactly the
    /// vulnerability the forgetting protocol removes.
    #[test]
    fn figure4_fork_succeeds_without_key_rotation() {
        let mut h = Harness::new(4);
        h.push_tx_block();
        let fork_base = h.chain.clone();
        // No reconfiguration at all: keys never rotate, so view-0 keys stay
        // authoritative forever. Nodes 1, 2, 3 become compromised later.
        let number = 2u64;
        let requests = vec![Request {
            client: 66,
            seq: 0,
            payload: vec![6, 6],
            signature: None,
        }];
        let value_hash = sha256::digest(&smartchain_smr::types::encode_batch(&requests));
        let payload = accept_sign_payload(number, 0, &value_hash);
        let accepts = (1..4usize)
            .map(|i| (i, h.stores[i].consensus_for_view(0).sign(&payload)))
            .collect();
        let proof = DecisionProof {
            instance: number,
            epoch: 0,
            value_hash,
            accepts,
        };
        let body = BlockBody::Transactions {
            consensus_id: number,
            requests,
            proof,
            results: vec![vec![0]],
        };
        let mut fork = fork_base;
        let prev = fork.last().map(|b| b.header.hash()).unwrap();
        let fork_block = Block::build(number, 0, 0, prev, body, [0u8; 32]);
        fork.push(fork_block);
        // Three old keys = quorum: the fork passes verification. This is the
        // unsafe world the paper warns about.
        assert!(verify_chain(&h.genesis, &fork).is_ok());
    }
}
