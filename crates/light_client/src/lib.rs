//! Light client: headers + quorum certificates only (paper §II / §V-C).
//!
//! A light client never replays consensus and never holds application
//! state. Its trust anchor is the view's public keys; everything else is
//! *proved* to it:
//!
//! * [`HeaderTracker`] follows the simulated chain's header sequence,
//!   admitting a header only when its PERSIST [`Certificate`] carries a
//!   quorum of view signatures and its `hash_last_block` chains onto the
//!   previously accepted header (genesis hash for block 1). Against a
//!   tracked header, transaction and result membership proofs verify with
//!   [`HeaderTracker::verify_transaction`] / [`HeaderTracker::verify_result`]
//!   — the full node supplies the proof, the light client checks it against
//!   32 bytes of commitment.
//! * [`TcpLightClient`] drives the runtime deployment's verifiable-read
//!   path: it asks any single replica for a chunk of the latest certified
//!   checkpoint state and accepts the reply only if the bundled
//!   [`ReadProof`] verifies — a [`CheckpointCert`] signature quorum over the
//!   state root plus a Merkle membership proof for the chunk. Because the
//!   reply proves itself, a reply quorum of **one** suffices; a lying
//!   replica can only stay silent, not deceive.
//!
//! What this does NOT give: freshness. A certificate quorum proves the state
//! *was* checkpointed by the cluster, not that it is the newest checkpoint —
//! a stale-but-certified answer is detectable only by asking more replicas
//! (or tracking headers). That is the classic light-client trade-off and is
//! out of scope here.

use smartchain_codec::from_bytes;
use smartchain_consensus::View;
use smartchain_core::block::{Block, BlockHeader, Certificate, Genesis, ViewInfo};
use smartchain_crypto::Hash;
use smartchain_merkle as merkle;
use smartchain_smr::durability::ReadProof;
use smartchain_smr::runtime::read_proof_request_payload;
use smartchain_smr::transport::TcpClient;
use smartchain_smr::types::Request;
use std::io;
use std::time::Duration;

/// Why [`HeaderTracker::accept`] refused a header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LightClientError {
    /// The certificate is not a valid signature quorum for this header
    /// under the tracked view.
    BadCertificate,
    /// The header's number is not the next expected block.
    OutOfOrder,
    /// The header's `hash_last_block` does not chain onto the previously
    /// accepted header (or the genesis hash for block 1).
    BrokenChain,
}

impl std::fmt::Display for LightClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LightClientError::BadCertificate => write!(f, "certificate does not verify"),
            LightClientError::OutOfOrder => write!(f, "header is not the next expected block"),
            LightClientError::BrokenChain => write!(f, "header does not chain onto the chain tip"),
        }
    }
}

impl std::error::Error for LightClientError {}

/// Tracks the certified header sequence of a SmartChain instance, holding
/// headers and the view only — no bodies, no application state, no
/// consensus replay. O(header) per block instead of O(block).
#[derive(Clone, Debug)]
pub struct HeaderTracker {
    view: ViewInfo,
    /// Hash the next header must chain onto.
    anchor: Hash,
    /// Accepted headers; `headers[i]` is block `i + 1`.
    headers: Vec<BlockHeader>,
}

impl HeaderTracker {
    /// Starts a tracker from the genesis configuration — the same trust
    /// anchor every full node starts from.
    pub fn new(genesis: &Genesis) -> HeaderTracker {
        HeaderTracker {
            view: genesis.view.clone(),
            anchor: genesis.hash(),
            headers: Vec::new(),
        }
    }

    /// Accepts the next header if its certificate carries a signature
    /// quorum of the view and it chains onto the current tip.
    ///
    /// # Errors
    ///
    /// [`LightClientError`] describing the first check that failed; the
    /// tracker is unchanged then.
    pub fn accept(
        &mut self,
        header: BlockHeader,
        certificate: &Certificate,
    ) -> Result<(), LightClientError> {
        if header.number != self.headers.len() as u64 + 1 {
            return Err(LightClientError::OutOfOrder);
        }
        if header.hash_last_block != self.anchor {
            return Err(LightClientError::BrokenChain);
        }
        if !certificate.verify(&header, &self.view) {
            return Err(LightClientError::BadCertificate);
        }
        self.anchor = header.hash();
        self.headers.push(header);
        Ok(())
    }

    /// Highest accepted block number (0 = none yet).
    pub fn height(&self) -> u64 {
        self.headers.len() as u64
    }

    /// The accepted header for block `number`, if tracked.
    pub fn header(&self, number: u64) -> Option<&BlockHeader> {
        number
            .checked_sub(1)
            .and_then(|i| self.headers.get(i as usize))
    }

    /// Verifies a transaction membership proof against the tracked header
    /// of block `number` (leaf 0 is the consensus id, leaf `i + 1` the
    /// `i`-th encoded request — see
    /// [`smartchain_core::block::BlockBody::transaction_leaves`]).
    pub fn verify_transaction(&self, number: u64, leaf: &[u8], proof: &merkle::Proof) -> bool {
        self.header(number)
            .is_some_and(|h| Block::verify_transaction(h, leaf, proof))
    }

    /// Verifies a result membership proof against the tracked header of
    /// block `number` (proofs from
    /// [`smartchain_core::block::Block::prove_result`] fold the state root
    /// in as their final path element).
    pub fn verify_result(&self, number: u64, result: &[u8], proof: &merkle::Proof) -> bool {
        self.header(number)
            .is_some_and(|h| Block::verify_result(h, result, proof))
    }
}

/// A light client of a runtime (TCP) deployment: verifiable reads of the
/// cluster's certified checkpoint state with a reply quorum of one.
pub struct TcpLightClient {
    client: TcpClient,
    view: View,
    client_id: u64,
    next_seq: u64,
}

impl std::fmt::Debug for TcpLightClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpLightClient")
            .field("client_id", &self.client_id)
            .finish_non_exhaustive()
    }
}

impl TcpLightClient {
    /// Creates a light client of the cluster at `addrs`, trusting only the
    /// view's public keys. Connections are dialed lazily per request.
    pub fn connect(client_id: u64, addrs: Vec<String>, view: View) -> TcpLightClient {
        TcpLightClient {
            client: TcpClient::new(client_id, addrs),
            view,
            client_id,
            next_seq: 0,
        }
    }

    /// Fetches chunk `chunk` of the latest certified checkpoint state and
    /// verifies the returned [`ReadProof`] end-to-end: certificate quorum,
    /// root binding, membership proof, claimed index. A single reply
    /// suffices because the proof — not the replier — carries the trust;
    /// replicas that cannot serve (no certificate assembled yet) stay
    /// silent and the built-in retransmission retries until `deadline`.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no replica answers within `deadline`; `InvalidData`
    /// when a reply arrives but its proof does not verify.
    pub fn read_chunk(&mut self, chunk: u64, deadline: Duration) -> io::Result<ReadProof> {
        self.next_seq += 1;
        let request = Request {
            client: self.client_id,
            seq: self.next_seq,
            payload: read_proof_request_payload(chunk),
            signature: None,
        };
        let result = self.client.execute_request(request, 1, deadline)?;
        let proof: ReadProof = from_bytes(&result)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "undecodable read proof"))?;
        if proof.chunk_index != chunk || !proof.verify(&self.view) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "read proof does not verify against the view",
            ));
        }
        Ok(proof)
    }

    /// Closes every connection.
    pub fn shutdown(self) {
        self.client.shutdown();
    }
}

// Re-exported so embedders of the light client need not depend on the smr
// crate directly for verification types.
pub use smartchain_smr::durability::CheckpointCert;

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_core::block::BlockBody;
    use smartchain_core::harness::ChainClusterBuilder;
    use smartchain_core::node::{ChainNode, NodeConfig};
    use smartchain_core::pipeline::persist::Variant;
    use smartchain_smr::app::CounterApp;
    use smartchain_smr::ordering::OrderingConfig;

    const SECOND: u64 = 1_000_000_000;

    /// Runs a strong-variant sim cluster and returns (genesis, chain): real
    /// quorum certificates over every header, produced by the full
    /// consensus + PERSIST pipeline.
    fn certified_chain() -> (Genesis, Vec<Block>) {
        let config = NodeConfig {
            variant: Variant::Strong,
            ordering: OrderingConfig {
                max_batch: 8,
                ..OrderingConfig::default()
            },
            ..NodeConfig::default()
        };
        let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
            .node_config(config)
            .clients(1, 2, Some(10))
            .build();
        cluster.run_until(30 * SECOND);
        assert_eq!(cluster.total_completed(), 20);
        let node: &ChainNode<CounterApp> = cluster.node(0);
        (node.genesis().clone(), node.chain())
    }

    /// The acceptance criterion: a light client holding only genesis +
    /// headers verifies a transaction's membership via a full node's proof,
    /// with every header admitted purely on its quorum certificate.
    #[test]
    fn tracker_follows_certified_headers_and_verifies_membership() {
        let (genesis, chain) = certified_chain();
        let mut tracker = HeaderTracker::new(&genesis);
        for block in &chain {
            tracker
                .accept(block.header, &block.certificate)
                .unwrap_or_else(|e| panic!("block {}: {e}", block.header.number));
        }
        assert_eq!(tracker.height(), chain.len() as u64);
        // A full node proves one transaction of a transaction block; the
        // light client verifies it against its tracked header alone.
        let block = chain
            .iter()
            .find(|b| matches!(&b.body, BlockBody::Transactions { requests, .. } if !requests.is_empty()))
            .expect("a transaction block");
        let leaves = block.body.transaction_leaves();
        let index = leaves.len() - 1; // last request leaf
        let proof = block.prove_transaction(index);
        assert!(tracker.verify_transaction(block.header.number, &leaves[index], &proof));
        // The wrong leaf, a replayed proof at another block, and a
        // tampered sibling all fail.
        assert!(!tracker.verify_transaction(block.header.number, b"forged", &proof));
        assert!(!tracker.verify_transaction(block.header.number + 1, &leaves[index], &proof));
        let mut tampered = proof.clone();
        tampered.path[0].0[0] ^= 1;
        assert!(!tracker.verify_transaction(block.header.number, &leaves[index], &tampered));
    }

    #[test]
    fn tracker_rejects_uncertified_reordered_and_forked_headers() {
        let (genesis, chain) = certified_chain();
        let mut tracker = HeaderTracker::new(&genesis);
        let first = &chain[0];
        // Stripped certificate → rejected.
        assert_eq!(
            tracker.accept(first.header, &Certificate::default()),
            Err(LightClientError::BadCertificate)
        );
        // Sub-quorum certificate → rejected.
        let weak = Certificate {
            signatures: first.certificate.signatures[..genesis.view.quorum() - 1].to_vec(),
        };
        assert_eq!(
            tracker.accept(first.header, &weak),
            Err(LightClientError::BadCertificate)
        );
        // Skipping ahead → rejected.
        assert_eq!(
            tracker.accept(chain[1].header, &chain[1].certificate),
            Err(LightClientError::OutOfOrder)
        );
        // A forked block 1 (tampered content, even with the real
        // certificate) → the certificate no longer matches the header.
        let mut forged = first.header;
        forged.hash_transactions = [0xAB; 32];
        assert_eq!(
            tracker.accept(forged, &first.certificate),
            Err(LightClientError::BadCertificate)
        );
        // The genuine sequence is accepted afterwards; a header whose
        // parent link does not match the tip is a broken chain.
        tracker.accept(first.header, &first.certificate).unwrap();
        let mut reparented = chain[1].header;
        reparented.hash_last_block = [0xCD; 32];
        assert_eq!(
            tracker.accept(reparented, &chain[1].certificate),
            Err(LightClientError::BrokenChain)
        );
        tracker
            .accept(chain[1].header, &chain[1].certificate)
            .unwrap();
        assert_eq!(tracker.height(), 2);
    }
}
