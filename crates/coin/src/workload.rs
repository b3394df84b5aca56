//! The paper's two-phase workload (§VI-A): a MINT phase creating coins,
//! followed by a SPEND phase issuing single-input single-output transfers of
//! the previously minted coins.

use crate::tx::{coin_id, CoinTx, Output};
use smartchain_codec::to_bytes;
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey};
use smartchain_smr::client::RequestFactory;
use smartchain_smr::types::Request;
use std::collections::HashMap;

/// Derives the deterministic wallet key of a logical client.
pub fn client_key(client: u64) -> SecretKey {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&client.to_le_bytes());
    seed[8] = 0xc0;
    seed[9] = 0x1e;
    SecretKey::from_seed(Backend::Sim, &seed)
}

/// Request factory implementing the MINT-then-SPEND workload.
///
/// Each logical client's first `mints_per_client` requests are MINTs of one
/// coin each (issued with the shared minter key in the paper's first phase —
/// here each client mints for itself using the minter identity registered at
/// genesis); subsequent requests SPEND those coins one at a time to a peer
/// address, single-input single-output, exactly like the evaluation setup.
pub struct CoinFactory {
    mints_per_client: u64,
    /// Pad MINT payloads to ≈ this size (paper: 180 B requests).
    mint_pad: usize,
    /// Pad SPEND payloads to ≈ this size (paper: 310 B requests).
    spend_pad: usize,
    keys: HashMap<u64, SecretKey>,
}

impl CoinFactory {
    /// Creates the workload; clients mint `mints_per_client` coins then
    /// spend them.
    pub fn new(mints_per_client: u64) -> CoinFactory {
        CoinFactory {
            mints_per_client,
            mint_pad: 180,
            spend_pad: 310,
            keys: HashMap::new(),
        }
    }

    fn key_for(&mut self, client: u64) -> &SecretKey {
        self.keys
            .entry(client)
            .or_insert_with(|| client_key(client))
    }

    /// The recipient address a client spends to (its "peer").
    fn peer_address(client: u64) -> PublicKey {
        client_key(client ^ 1).public_key()
    }
}

impl RequestFactory for CoinFactory {
    fn make(&mut self, client: u64, seq: u64) -> Request {
        // The workload authorizes every client as a minter via genesis data
        // produced by `authorized_minters`.
        let sk = self.key_for(client).clone();
        let (tx, pad) = if seq < self.mints_per_client {
            (
                CoinTx::Mint {
                    outputs: vec![Output {
                        owner: sk.public_key(),
                        value: 1,
                    }],
                },
                self.mint_pad,
            )
        } else {
            // Spend the coin minted in request (seq - mints_per_client).
            let mint_seq = seq - self.mints_per_client;
            let input = coin_id(client, mint_seq, 0);
            (
                CoinTx::Spend {
                    inputs: vec![input],
                    outputs: vec![Output {
                        owner: Self::peer_address(client),
                        value: 1,
                    }],
                },
                self.spend_pad,
            )
        };
        let mut payload = to_bytes(&tx);
        if payload.len() < pad {
            payload.resize(pad, 0);
        }
        let sig = sk.sign(&Request::sign_payload(client, seq, &payload));
        Request {
            client,
            seq,
            payload,
            signature: Some((sk.public_key(), sig)),
        }
    }
}

/// Builds genesis app data authorizing the workload clients as minters.
///
/// `clients` lists the logical client ids that will issue MINTs.
pub fn authorized_minters(clients: impl IntoIterator<Item = u64>) -> Vec<u8> {
    let keys: Vec<PublicKey> = clients
        .into_iter()
        .map(|c| client_key(c).public_key())
        .collect();
    crate::app::SmartCoinApp::encode_minters(&keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SmartCoinApp;
    use crate::tx::TxResult;
    use smartchain_codec::{from_bytes, Encode};
    use smartchain_smr::app::Application;

    /// Trailing zero padding must not break transaction decoding.
    #[test]
    fn padded_payloads_still_execute() {
        let mut factory = CoinFactory::new(2);
        let data = authorized_minters([7]);
        let mut app = SmartCoinApp::from_genesis_data(&data);
        // Two mints then two spends.
        for seq in 0..4u64 {
            let req = factory.make(7, seq);
            // The app must tolerate padded payloads: decode prefix.
            let trimmed = Request {
                payload: req.payload.clone(),
                ..req.clone()
            };
            let result: TxResult = from_bytes(&app.execute(&trimmed)).unwrap();
            assert!(
                matches!(result, TxResult::Created { .. }),
                "seq {seq}: {result:?}"
            );
        }
        assert_eq!(app.executed(), 4);
    }

    #[test]
    fn workload_is_deterministic() {
        let mut f1 = CoinFactory::new(1);
        let mut f2 = CoinFactory::new(1);
        assert_eq!(f1.make(3, 0), f2.make(3, 0));
        assert_eq!(f1.make(3, 1), f2.make(3, 1));
    }

    #[test]
    fn sizes_match_paper() {
        let mut f = CoinFactory::new(1);
        let mint = f.make(1, 0);
        let spend = f.make(1, 1);
        assert!(
            mint.encoded_len() >= 180 && mint.encoded_len() < 350,
            "{}",
            mint.encoded_len()
        );
        assert!(
            spend.encoded_len() >= 310 && spend.encoded_len() < 480,
            "{}",
            spend.encoded_len()
        );
    }
}
