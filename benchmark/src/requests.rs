//! Workload inputs: every request is generated and signed here, during
//! set-up, from the `--seed` argument. The cluster receives nothing else.
//!
//! Client `c`'s op 1 MINTs one coin to itself; op `k > 1` SPENDs the coin op
//! `k − 1` created back to itself (single input, single output, padded to the
//! paper's 310 B). State size is therefore constant, every request is valid,
//! and the expected reply of every op is known in advance: `Created` with the
//! coin id derived from `(client, seq)`.

use smartchain_codec::{to_bytes, to_shared_bytes};
use smartchain_coin::tx::{coin_id, CoinTx, Output, TxResult};
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey};
use smartchain_crypto::sha256;
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::transport::frame::{frame_header, FrameKey, HEADER_BYTES};
use smartchain_smr::types::Request;
use std::sync::Arc;

/// Request payload sizes of the paper's §VI-A workload.
const MINT_PAD: usize = 180;
const SPEND_PAD: usize = 310;

/// Logical client ids start here (any value clear of `TcpCluster`'s own
/// built-in client id works).
pub const FIRST_CLIENT_ID: u64 = 0xB0_0000;

/// The wallet key of logical client `index` under `seed`.
pub fn client_key(seed: u64, backend: Backend, index: usize) -> SecretKey {
    let material = sha256::digest_parts(&[
        b"benchmark-client",
        &seed.to_le_bytes(),
        &(index as u64).to_le_bytes(),
    ]);
    SecretKey::from_seed(backend, &material)
}

/// Public keys of the first `clients` logical clients — the minter list the
/// cluster's genesis must authorise.
pub fn client_public_keys(seed: u64, backend: Backend, clients: usize) -> Vec<PublicKey> {
    (0..clients)
        .map(|i| client_key(seed, backend, i).public_key())
        .collect()
}

/// The value of the one coin each client circulates; seed-derived so that
/// different seeds give different request bytes beyond the keys.
fn coin_value(seed: u64) -> u64 {
    1 + seed % 1000
}

/// Client `index`'s signed op `seq` (1-based).
pub fn make_request(seed: u64, key: &SecretKey, index: usize, seq: u64) -> Request {
    let client = FIRST_CLIENT_ID + index as u64;
    let output = Output {
        owner: key.public_key(),
        value: coin_value(seed),
    };
    let (tx, pad) = if seq == 1 {
        (
            CoinTx::Mint {
                outputs: vec![output],
            },
            MINT_PAD,
        )
    } else {
        (
            CoinTx::Spend {
                inputs: vec![coin_id(client, seq - 1, 0)],
                outputs: vec![output],
            },
            SPEND_PAD,
        )
    };
    let mut payload = to_bytes(&tx);
    if payload.len() < pad {
        payload.resize(pad, 0);
    }
    let signature = key.sign(&Request::sign_payload(client, seq, &payload));
    Request {
        client,
        seq,
        payload,
        signature: Some((key.public_key(), signature)),
    }
}

/// The reply bytes a correct replica returns for `(client, seq)`: the
/// canonical encoding of `Created { coins: [coin_id(client, seq, 0)] }`.
/// Byte equality with this is the reply check — the encoding is canonical,
/// so equal bytes mean `TxResult::Created` with exactly the expected coin.
pub fn expected_result(client: u64, seq: u64) -> Vec<u8> {
    to_bytes(&TxResult::Created {
        coins: vec![coin_id(client, seq, 0)],
    })
}

/// One request as the generator sends it: framed once (the client frame key
/// is the same towards every replica), payload shared across the four
/// connections' write queues.
#[derive(Clone, Debug)]
pub struct PreparedOp {
    /// Length prefix + client-key tag.
    pub header: [u8; HEADER_BYTES],
    /// The encoded `SmrMsg::Request`.
    pub body: Arc<[u8]>,
    /// What every correct replica must answer.
    pub expected: Box<[u8]>,
}

/// Everything one logical client will send, in order (`ops[k]` has
/// `seq = k + 1`).
#[derive(Clone, Debug)]
pub struct ClientPlan {
    /// The logical client id.
    pub id: u64,
    /// Prepared operations, op 1 first.
    pub ops: Vec<PreparedOp>,
}

/// Encodes and frames `request` for the wire.
pub fn prepare(request: Request) -> PreparedOp {
    let expected = expected_result(request.client, request.seq).into_boxed_slice();
    let body = to_shared_bytes(&SmrMsg::Request(request));
    let header = frame_header(&FrameKey::client(), &body).expect("request below MAX_FRAME");
    PreparedOp {
        header,
        body,
        expected,
    }
}

/// Generates, signs and frames `ops_per_client` operations for each of
/// `clients` logical clients.
pub fn build_plans(
    seed: u64,
    backend: Backend,
    clients: usize,
    ops_per_client: u64,
) -> Vec<ClientPlan> {
    (0..clients)
        .map(|index| {
            let key = client_key(seed, backend, index);
            ClientPlan {
                id: FIRST_CLIENT_ID + index as u64,
                ops: (1..=ops_per_client)
                    .map(|seq| prepare(make_request(seed, &key, index, seq)))
                    .collect(),
            }
        })
        .collect()
}

/// The same requests as [`build_plans`] in round-robin submission order
/// (all clients' op 1, then all op 2, …), unframed — the layer probes feed
/// these to `OrderingCore`, `DurableApp` and `SmartCoinApp` directly.
pub fn build_requests(
    seed: u64,
    backend: Backend,
    clients: usize,
    ops_per_client: u64,
) -> Vec<Request> {
    let keys: Vec<SecretKey> = (0..clients).map(|i| client_key(seed, backend, i)).collect();
    (1..=ops_per_client)
        .flat_map(|seq| {
            keys.iter()
                .enumerate()
                .map(move |(index, key)| make_request(seed, key, index, seq))
        })
        .collect()
}
