//! SMaRtCoin transactions (MINT / SPEND) and their results.

use smartchain_codec::{codec_enum, codec_struct};
use smartchain_crypto::keys::PublicKey;
use smartchain_crypto::{sha256, Hash};

/// Identifies one unspent transaction output.
pub type CoinId = Hash;

/// Derives the id of output `index` of the transaction issued by
/// `(client, seq)` — deterministic, so issuers can predict their coin ids.
pub fn coin_id(client: u64, seq: u64, index: u32) -> CoinId {
    let mut buf = [0u8; 20];
    buf[..8].copy_from_slice(&client.to_le_bytes());
    buf[8..16].copy_from_slice(&seq.to_le_bytes());
    buf[16..].copy_from_slice(&index.to_le_bytes());
    sha256::digest_parts(&[b"sc-coin", &buf])
}

/// A coin transfer output: `(recipient, amount)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Output {
    /// Receiving address (a public key).
    pub owner: PublicKey,
    /// Amount.
    pub value: u64,
}

codec_struct!(Output { owner, value });

/// A SMaRtCoin transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum CoinTx {
    /// Creates coins (issuer must be an authorized minter).
    Mint {
        /// The coins to create.
        outputs: Vec<Output>,
    },
    /// Transfers coins: consumes `inputs` (owned by the issuer), creates
    /// `outputs`.
    Spend {
        /// Input coin ids.
        inputs: Vec<CoinId>,
        /// New outputs.
        outputs: Vec<Output>,
    },
}

codec_enum!(CoinTx {
    0 => Mint { outputs },
    1 => Spend { inputs, outputs },
});

impl CoinTx {
    /// The coin ids this transaction reads or writes when issued by
    /// `(client, seq)` — its complete static read/write set. Inputs are
    /// explicit in a SPEND; output ids are derived (the same
    /// [`coin_id`] derivation `create` uses), so the footprint is known
    /// *before* execution. This is what makes conflict-free parallel
    /// execution plannable from the ordered batch alone.
    pub fn touched_ids(&self, client: u64, seq: u64) -> Vec<CoinId> {
        let outputs_of =
            |outputs: &[Output]| (0..outputs.len()).map(|i| coin_id(client, seq, i as u32));
        match self {
            CoinTx::Mint { outputs } => outputs_of(outputs).collect(),
            CoinTx::Spend { inputs, outputs } => {
                inputs.iter().copied().chain(outputs_of(outputs)).collect()
            }
        }
    }
}

/// Hash-shards a coin id onto one of `lanes` execution lanes: the first 8
/// bytes of the (SHA-256) id, little-endian, mod the lane count. Ids are
/// uniformly distributed, so so are the lanes.
pub fn lane_of(id: &CoinId, lanes: usize) -> usize {
    if lanes <= 1 {
        return 0;
    }
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&id[..8]);
    (u64::from_le_bytes(prefix) % lanes as u64) as usize
}

/// Result of executing a coin transaction (stored in the block body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxResult {
    /// Coins created with these ids.
    Created {
        /// Ids of the new coins, in output order.
        coins: Vec<CoinId>,
    },
    /// The transaction was rejected.
    Rejected {
        /// Machine-readable reason.
        reason: RejectReason,
    },
}

/// Why a coin transaction was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// MINT from a key not on the minter list.
    NotAMinter,
    /// SPEND referencing a missing (or already spent) input.
    UnknownInput,
    /// SPEND of a coin the issuer does not own.
    NotOwner,
    /// Output total exceeds input total.
    ValueMismatch,
    /// Request carried no signature (ownership unprovable).
    Unsigned,
    /// Payload did not decode as a coin transaction.
    Malformed,
}

codec_enum!(TxResult {
    0 => Created { coins },
    1 => Rejected { reason },
});

codec_enum!(RejectReason {
    0 => NotAMinter,
    1 => UnknownInput,
    2 => NotOwner,
    3 => ValueMismatch,
    4 => Unsigned,
    5 => Malformed,
});

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_crypto::keys::{Backend, SecretKey};

    fn pk(seed: u8) -> PublicKey {
        SecretKey::from_seed(Backend::Sim, &[seed; 32]).public_key()
    }

    #[test]
    fn tx_codec_roundtrip() {
        let txs = vec![
            CoinTx::Mint {
                outputs: vec![Output {
                    owner: pk(1),
                    value: 100,
                }],
            },
            CoinTx::Spend {
                inputs: vec![coin_id(1, 2, 0), coin_id(1, 3, 1)],
                outputs: vec![
                    Output {
                        owner: pk(2),
                        value: 60,
                    },
                    Output {
                        owner: pk(1),
                        value: 40,
                    },
                ],
            },
        ];
        for tx in txs {
            let bytes = smartchain_codec::to_bytes(&tx);
            assert_eq!(smartchain_codec::from_bytes::<CoinTx>(&bytes).unwrap(), tx);
        }
    }

    #[test]
    fn result_codec_roundtrip() {
        let results = vec![
            TxResult::Created {
                coins: vec![coin_id(1, 0, 0)],
            },
            TxResult::Rejected {
                reason: RejectReason::NotOwner,
            },
        ];
        for r in results {
            let bytes = smartchain_codec::to_bytes(&r);
            assert_eq!(smartchain_codec::from_bytes::<TxResult>(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn touched_ids_cover_inputs_and_derived_outputs() {
        let spend = CoinTx::Spend {
            inputs: vec![coin_id(9, 4, 0)],
            outputs: vec![
                Output {
                    owner: pk(2),
                    value: 1,
                },
                Output {
                    owner: pk(3),
                    value: 2,
                },
            ],
        };
        let ids = spend.touched_ids(7, 11);
        assert_eq!(
            ids,
            vec![coin_id(9, 4, 0), coin_id(7, 11, 0), coin_id(7, 11, 1)]
        );
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: pk(1),
                value: 5,
            }],
        };
        assert_eq!(mint.touched_ids(3, 0), vec![coin_id(3, 0, 0)]);
    }

    #[test]
    fn lane_of_is_stable_and_in_range() {
        for lanes in [1usize, 2, 3, 8] {
            for seq in 0..32u64 {
                let id = coin_id(1, seq, 0);
                let lane = lane_of(&id, lanes);
                assert!(lane < lanes);
                assert_eq!(lane, lane_of(&id, lanes), "pure function of the id");
            }
        }
        // With one lane everything lands on lane 0.
        assert_eq!(lane_of(&coin_id(5, 5, 0), 1), 0);
    }

    #[test]
    fn coin_ids_unique_per_output() {
        assert_ne!(coin_id(1, 1, 0), coin_id(1, 1, 1));
        assert_ne!(coin_id(1, 1, 0), coin_id(1, 2, 0));
        assert_ne!(coin_id(1, 1, 0), coin_id(2, 1, 0));
    }

    #[test]
    fn tx_sizes_match_paper_scale() {
        // Paper: MINT ≈ 180 B, SPEND ≈ 310 B (request side, with signature
        // overhead added by the Request wrapper).
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: pk(1),
                value: 10,
            }],
        };
        let spend = CoinTx::Spend {
            inputs: vec![coin_id(1, 0, 0)],
            outputs: vec![Output {
                owner: pk(2),
                value: 10,
            }],
        };
        let mint_len = smartchain_codec::to_bytes(&mint).len();
        let spend_len = smartchain_codec::to_bytes(&spend).len();
        assert!(mint_len < spend_len);
        assert!((30..200).contains(&mint_len), "{mint_len}");
        assert!((60..320).contains(&spend_len), "{spend_len}");
    }

    #[test]
    fn coin_id_hashes_the_codec_encoding() {
        for (client, seq, index) in [
            (0, 0, 0),
            (1, 2, 3),
            (u64::MAX, 7, 0),
            (9, u64::MAX, u32::MAX),
        ] {
            let encoded = smartchain_codec::to_bytes(&(client, seq, index));
            assert_eq!(
                coin_id(client, seq, index),
                sha256::digest_parts(&[b"sc-coin", &encoded])
            );
        }
    }
}
