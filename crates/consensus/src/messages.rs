//! Wire messages of VP-Consensus and the synchronization phase.

use crate::ReplicaId;
use smartchain_codec::{codec_enum, signing_bytes, Encode};
use smartchain_crypto::keys::Signature;
use smartchain_crypto::{Hash, ValueBytes};

/// A consensus-protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum ConsensusMsg {
    /// Leader's proposal of a value for an instance/epoch.
    Propose {
        /// Consensus instance number.
        instance: u64,
        /// Epoch (regency) in which this proposal is made.
        epoch: u32,
        /// The proposed value (an encoded request batch), shared and
        /// hash-memoized so relays and repair replies never re-copy it.
        value: ValueBytes,
    },
    /// Echo of the proposal hash (Byzantine-leader detection round).
    Write {
        /// Consensus instance number.
        instance: u64,
        /// Epoch of the proposal being echoed.
        epoch: u32,
        /// SHA-256 of the proposed value.
        value_hash: Hash,
        /// Signature over [`crate::proof::write_sign_payload`] with the
        /// sender's consensus key; a quorum of these forms the
        /// [`crate::proof::WriteCertificate`] used in leader changes.
        signature: Signature,
    },
    /// Signed commitment to a value; a quorum of these is a decision proof.
    Accept {
        /// Consensus instance number.
        instance: u64,
        /// Epoch of the commitment.
        epoch: u32,
        /// SHA-256 of the value being committed.
        value_hash: Hash,
        /// Signature over [`accept_sign_payload`] with the sender's
        /// consensus key.
        signature: Signature,
    },
    /// Request to retransmit a decided/proposed value the sender is missing.
    FetchValue {
        /// Consensus instance number.
        instance: u64,
    },
    /// Reply to [`ConsensusMsg::FetchValue`].
    ValueReply {
        /// Consensus instance number.
        instance: u64,
        /// Epoch the value was proposed in.
        epoch: u32,
        /// The value itself (shared handle; see [`ValueBytes`]).
        value: ValueBytes,
    },
}

impl ConsensusMsg {
    /// Instance this message belongs to.
    pub fn instance(&self) -> u64 {
        match self {
            ConsensusMsg::Propose { instance, .. }
            | ConsensusMsg::Write { instance, .. }
            | ConsensusMsg::Accept { instance, .. }
            | ConsensusMsg::FetchValue { instance }
            | ConsensusMsg::ValueReply { instance, .. } => *instance,
        }
    }

    /// The epoch (regency) this message was sent in, when it carries one.
    /// A message from an epoch above our regency means we missed a leader
    /// change — metal deployments use this to trigger state transfer.
    pub fn epoch(&self) -> Option<u32> {
        match self {
            ConsensusMsg::Propose { epoch, .. }
            | ConsensusMsg::Write { epoch, .. }
            | ConsensusMsg::Accept { epoch, .. }
            | ConsensusMsg::ValueReply { epoch, .. } => Some(*epoch),
            ConsensusMsg::FetchValue { .. } => None,
        }
    }

    /// Wire size in bytes (transport framing + canonical encoding), used by
    /// the simulator's NIC model. Derived from the [`Encode`] output so the
    /// encoder is the single source of truth.
    pub fn wire_size(&self) -> usize {
        smartchain_codec::FRAME_BYTES + self.encoded_len()
    }

    /// For signed messages (WRITE/ACCEPT), the canonical sign payload and
    /// the carried signature — the inputs a batch verifier needs. `None`
    /// for unsigned messages (PROPOSE/FETCH/VALUE-REPLY are authenticated
    /// structurally, not by signature).
    pub fn sign_check(&self) -> Option<(Vec<u8>, &Signature)> {
        match self {
            ConsensusMsg::Write {
                instance,
                epoch,
                value_hash,
                signature,
            } => Some((
                crate::proof::write_sign_payload(*instance, *epoch, value_hash),
                signature,
            )),
            ConsensusMsg::Accept {
                instance,
                epoch,
                value_hash,
                signature,
            } => Some((
                accept_sign_payload(*instance, *epoch, value_hash),
                signature,
            )),
            _ => None,
        }
    }
}

/// Canonical bytes a replica signs in an ACCEPT message: the tuple
/// (domain tag, instance, epoch, value hash). Every correct replica signs the
/// same bytes, so any third party can later validate decision proofs.
pub fn accept_sign_payload(instance: u64, epoch: u32, value_hash: &Hash) -> Vec<u8> {
    signing_bytes(b"sc-accept", (instance, epoch, value_hash))
}

codec_enum!(ConsensusMsg {
    0 => Propose { instance, epoch, value },
    1 => Write { instance, epoch, value_hash, signature },
    2 => Accept { instance, epoch, value_hash, signature },
    3 => FetchValue { instance },
    4 => ValueReply { instance, epoch, value },
});

/// Output of the instance/synchronizer state machines — the embedding layer
/// translates these into actual network operations.
#[derive(Clone, Debug, PartialEq)]
pub enum Output<M> {
    /// Send `msg` to every replica in the view (including self, which the
    /// embedding may short-circuit).
    Broadcast(M),
    /// Send `msg` to one replica.
    Send(ReplicaId, M),
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_codec::{from_bytes, to_bytes};
    use smartchain_crypto::keys::{Backend, SecretKey};

    #[test]
    fn messages_roundtrip() {
        let sk = SecretKey::from_seed(Backend::Sim, &[1u8; 32]);
        let msgs = vec![
            ConsensusMsg::Propose {
                instance: 3,
                epoch: 1,
                value: vec![1, 2, 3].into(),
            },
            ConsensusMsg::Write {
                instance: 3,
                epoch: 1,
                value_hash: [7u8; 32],
                signature: sk.sign(b"w"),
            },
            ConsensusMsg::Accept {
                instance: 3,
                epoch: 1,
                value_hash: [7u8; 32],
                signature: sk.sign(b"x"),
            },
            ConsensusMsg::FetchValue { instance: 9 },
            ConsensusMsg::ValueReply {
                instance: 9,
                epoch: 0,
                value: vec![].into(),
            },
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            let back: ConsensusMsg = from_bytes(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn len_matches_encoding() {
        let sk = SecretKey::from_seed(Backend::Sim, &[2u8; 32]);
        let msgs = vec![
            ConsensusMsg::Propose {
                instance: 1,
                epoch: 2,
                value: vec![9; 100].into(),
            },
            ConsensusMsg::Write {
                instance: 1,
                epoch: 2,
                value_hash: [1u8; 32],
                signature: sk.sign(b"w"),
            },
            ConsensusMsg::Accept {
                instance: 1,
                epoch: 2,
                value_hash: [1u8; 32],
                signature: sk.sign(b"a"),
            },
            ConsensusMsg::FetchValue { instance: 5 },
            ConsensusMsg::ValueReply {
                instance: 5,
                epoch: 0,
                value: vec![1].into(),
            },
        ];
        for m in msgs {
            assert_eq!(m.encoded_len(), to_bytes(&m).len(), "{m:?}");
        }
    }

    #[test]
    fn accept_payload_binds_all_fields() {
        let base = accept_sign_payload(1, 2, &[3u8; 32]);
        assert_ne!(accept_sign_payload(9, 2, &[3u8; 32]), base);
        assert_ne!(accept_sign_payload(1, 9, &[3u8; 32]), base);
        assert_ne!(accept_sign_payload(1, 2, &[9u8; 32]), base);
    }

    #[test]
    fn wire_size_tracks_value() {
        let small = ConsensusMsg::Propose {
            instance: 0,
            epoch: 0,
            value: vec![0; 10].into(),
        };
        let big = ConsensusMsg::Propose {
            instance: 0,
            epoch: 0,
            value: vec![0; 10_000].into(),
        };
        assert!(big.wire_size() > small.wire_size() + 9_000);
    }
}
