//! The SmartChain wire vocabulary: [`ChainMsg`], a superset of the SMR
//! messages carrying the PERSIST phase, state transfer, and decentralized
//! reconfiguration.
//!
//! Sizes for the simulator's NIC model derive from the canonical
//! [`Encode`] output (`FRAME_BYTES + encoded_len`), with one deliberate
//! exception: `StateRep` carries *modeled* state (the paper's Fig. 7 uses a
//! 1 GB application state that is never materialized), so its wire size is
//! the modeled transfer size.

use crate::block::{Block, ReconfigOp, ReconfigVote, ViewInfo};
use crate::pipeline::checkpoint::SnapshotCommit;
use crate::view_keys::CertifiedKey;
use smartchain_codec::{codec_enum, Encode};
use smartchain_crypto::keys::Signature;
use smartchain_crypto::Hash;
use smartchain_smr::ordering::SmrMsg;

/// Messages exchanged by SmartChain nodes (a superset of the SMR messages).
// Variant sizes intentionally differ (StateRep carries whole block suffixes);
// the simulator moves messages by value and boxing would only add churn.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ChainMsg {
    /// Ordering/SMR traffic.
    Smr(SmrMsg),
    /// PERSIST-phase signature share (strong variant).
    Persist {
        /// Block number being certified.
        block: u64,
        /// Hash of the block header.
        header_hash: Hash,
        /// Signature with the sender's consensus key.
        signature: Signature,
    },
    /// Request for state from `from_block` onward.
    StateReq {
        /// First block the requester is missing.
        from_block: u64,
    },
    /// State transfer reply.
    StateRep {
        /// Application snapshot (bytes) and the block it covers.
        snapshot: Option<(u64, Vec<u8>)>,
        /// The snapshot's certified commitment (covered block's header plus
        /// the results/state roots that open its `hash_results`): the
        /// receiver verifies the shipped state chunk-by-chunk against it
        /// before installing.
        commit: Option<SnapshotCommit>,
        /// Hash of the snapshot's covered block, so the receiver's ledger
        /// can chain the shipped suffix onto the summarized prefix.
        snapshot_anchor: Option<Hash>,
        /// The ordering core's per-client dedup frontier at the snapshot's
        /// covered block, so the receiver rejects retransmissions of
        /// requests inside the summarized prefix.
        snapshot_dedup: Vec<(u64, u64)>,
        /// Block suffix after the snapshot.
        blocks: Vec<Block>,
        /// Modeled wire size (1 GB states are modeled, not materialized).
        modeled_size: u64,
        /// Only one designated replica sends the full state; the rest send
        /// hash-sized acknowledgements (PBFT-style optimization).
        full: bool,
        /// The sender's chain digests: `(height, chain hash)` at its tip and
        /// at exponentially receding heights (tip−1, tip−2, tip−4, …), so a
        /// requester can find a common height with senders ahead of or
        /// behind the shipped suffix. The requester installs a full reply
        /// only once `f+1` distinct members (the shipper included) report
        /// digests consistent with the shipped content — the PBFT rule: at
        /// least one correct replica vouches for the installed history.
        digests: Vec<(u64, Hash)>,
    },
    /// A prospective member asks to join — or a member asks to leave
    /// (paper Fig. 5a, step 1; §V-D leave flow).
    JoinAsk {
        /// The asker's certified consensus key for the next view.
        joiner: CertifiedKey,
    },
    /// A member's signed acceptance (step 2).
    JoinVote {
        /// The vote (carries the voter's new consensus key).
        vote: ReconfigVote,
        /// The operation being voted for.
        op: ReconfigOp,
        /// The view id the vote creates.
        new_view_id: u64,
        /// Current view (so the asker learns the membership).
        current_view: ViewInfo,
    },
    /// Tells a just-admitted member it is part of `view` (triggers its
    /// state transfer).
    Welcome {
        /// The view that now includes the recipient.
        view: ViewInfo,
    },
}

impl ChainMsg {
    /// Wire size in bytes for the simulator's NIC model, derived from the
    /// canonical [`Encode`] output plus shared transport framing.
    ///
    /// `StateRep` is the exception: its payload is a *modeled* transfer
    /// (snapshot sizes are configured, not materialized), so the modeled
    /// size wins.
    pub fn wire_size(&self) -> usize {
        match self {
            ChainMsg::StateRep { modeled_size, .. } => (*modeled_size as usize).max(64),
            _ => smartchain_codec::FRAME_BYTES + self.encoded_len(),
        }
    }
}

codec_enum!(ChainMsg {
    0 => Smr(msg),
    1 => Persist { block, header_hash, signature },
    2 => StateReq { from_block },
    3 => StateRep {
        snapshot,
        commit,
        snapshot_anchor,
        snapshot_dedup,
        blocks,
        modeled_size,
        full,
        digests,
    },
    4 => JoinAsk { joiner },
    5 => JoinVote { vote, op, new_view_id, current_view },
    6 => Welcome { view },
});

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_codec::{from_bytes, to_bytes};
    use smartchain_smr::types::Request;

    #[test]
    fn wire_size_matches_encoding() {
        let msgs = vec![
            ChainMsg::Smr(SmrMsg::Request(Request {
                client: 7,
                seq: 1,
                payload: vec![1, 2, 3],
                signature: None,
            })),
            ChainMsg::StateReq { from_block: 4 },
        ];
        for m in msgs {
            assert_eq!(
                m.wire_size(),
                smartchain_codec::FRAME_BYTES + to_bytes(&m).len(),
                "wire_size must equal framed canonical encoding"
            );
        }
    }

    #[test]
    fn state_rep_uses_modeled_size() {
        let m = ChainMsg::StateRep {
            snapshot: None,
            commit: None,
            snapshot_anchor: None,
            snapshot_dedup: Vec::new(),
            blocks: Vec::new(),
            modeled_size: 1_000_000_000,
            full: true,
            digests: vec![(9, [7u8; 32])],
        };
        assert_eq!(m.wire_size(), 1_000_000_000);
        let ack = ChainMsg::StateRep {
            snapshot: None,
            commit: None,
            snapshot_anchor: None,
            snapshot_dedup: Vec::new(),
            blocks: Vec::new(),
            modeled_size: 0,
            full: false,
            digests: vec![(9, [7u8; 32])],
        };
        assert_eq!(ack.wire_size(), 64, "hash-sized acknowledgement floor");
    }

    #[test]
    fn chain_msgs_roundtrip() {
        let msgs = vec![
            ChainMsg::Smr(SmrMsg::Request(Request {
                client: 9,
                seq: 2,
                payload: vec![5; 10],
                signature: None,
            })),
            ChainMsg::StateReq { from_block: 11 },
            ChainMsg::StateRep {
                snapshot: Some((3, vec![1, 2])),
                commit: None,
                snapshot_anchor: Some([9u8; 32]),
                snapshot_dedup: vec![(7, 3), (9, 1)],
                blocks: Vec::new(),
                modeled_size: 128,
                full: true,
                digests: vec![(3, [4u8; 32]), (2, [5u8; 32])],
            },
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            let back: ChainMsg = from_bytes(&bytes).unwrap();
            assert_eq!(to_bytes(&back), bytes, "canonical roundtrip");
        }
    }
}
