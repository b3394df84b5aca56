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
use smartchain_codec::{decode_seq, encode_seq, seq_encoded_len, Decode, DecodeError, Encode};
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

impl Encode for ChainMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChainMsg::Smr(m) => {
                0u8.encode(out);
                m.encode(out);
            }
            ChainMsg::Persist {
                block,
                header_hash,
                signature,
            } => {
                1u8.encode(out);
                block.encode(out);
                header_hash.encode(out);
                signature.encode(out);
            }
            ChainMsg::StateReq { from_block } => {
                2u8.encode(out);
                from_block.encode(out);
            }
            ChainMsg::StateRep {
                snapshot,
                commit,
                snapshot_anchor,
                snapshot_dedup,
                blocks,
                modeled_size,
                full,
                digests,
            } => {
                3u8.encode(out);
                snapshot.encode(out);
                commit.encode(out);
                snapshot_anchor.encode(out);
                encode_seq(snapshot_dedup, out);
                encode_seq(blocks, out);
                modeled_size.encode(out);
                full.encode(out);
                encode_seq(digests, out);
            }
            ChainMsg::JoinAsk { joiner } => {
                4u8.encode(out);
                joiner.encode(out);
            }
            ChainMsg::JoinVote {
                vote,
                op,
                new_view_id,
                current_view,
            } => {
                5u8.encode(out);
                vote.encode(out);
                op.encode(out);
                new_view_id.encode(out);
                current_view.encode(out);
            }
            ChainMsg::Welcome { view } => {
                6u8.encode(out);
                view.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        // Compose from per-field `encoded_len` so large payloads (blocks,
        // proposals) are sized without materializing a copy.
        1 + match self {
            ChainMsg::Smr(m) => m.encoded_len(),
            ChainMsg::Persist {
                block,
                header_hash,
                signature,
            } => block.encoded_len() + header_hash.encoded_len() + signature.encoded_len(),
            ChainMsg::StateReq { from_block } => from_block.encoded_len(),
            ChainMsg::StateRep {
                snapshot,
                commit,
                snapshot_anchor,
                snapshot_dedup,
                blocks,
                modeled_size,
                full,
                digests,
            } => {
                snapshot.encoded_len()
                    + commit.encoded_len()
                    + snapshot_anchor.encoded_len()
                    + seq_encoded_len(snapshot_dedup)
                    + seq_encoded_len(blocks)
                    + modeled_size.encoded_len()
                    + full.encoded_len()
                    + seq_encoded_len(digests)
            }
            ChainMsg::JoinAsk { joiner } => joiner.encoded_len(),
            ChainMsg::JoinVote {
                vote,
                op,
                new_view_id,
                current_view,
            } => {
                vote.encoded_len()
                    + op.encoded_len()
                    + new_view_id.encoded_len()
                    + current_view.encoded_len()
            }
            ChainMsg::Welcome { view } => view.encoded_len(),
        }
    }
}

impl Decode for ChainMsg {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(ChainMsg::Smr(SmrMsg::decode(input)?)),
            1 => Ok(ChainMsg::Persist {
                block: u64::decode(input)?,
                header_hash: <[u8; 32]>::decode(input)?,
                signature: Signature::decode(input)?,
            }),
            2 => Ok(ChainMsg::StateReq {
                from_block: u64::decode(input)?,
            }),
            3 => Ok(ChainMsg::StateRep {
                snapshot: Option::<(u64, Vec<u8>)>::decode(input)?,
                commit: Option::<SnapshotCommit>::decode(input)?,
                snapshot_anchor: Option::<Hash>::decode(input)?,
                snapshot_dedup: decode_seq(input)?,
                blocks: decode_seq(input)?,
                modeled_size: u64::decode(input)?,
                full: bool::decode(input)?,
                digests: decode_seq(input)?,
            }),
            4 => Ok(ChainMsg::JoinAsk {
                joiner: CertifiedKey::decode(input)?,
            }),
            5 => Ok(ChainMsg::JoinVote {
                vote: ReconfigVote::decode(input)?,
                op: ReconfigOp::decode(input)?,
                new_view_id: u64::decode(input)?,
                current_view: ViewInfo::decode(input)?,
            }),
            6 => Ok(ChainMsg::Welcome {
                view: ViewInfo::decode(input)?,
            }),
            d => Err(DecodeError::BadDiscriminant(d as u32)),
        }
    }
}

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
