//! The SMaRtCoin service: a deterministic UTXO wallet as an SMR
//! [`Application`] — with its coin table hash-sharded into execution lanes
//! for the deterministic parallel EXECUTE stage.
//!
//! The UTXO table lives in `lanes` shards keyed by [`lane_of`] over the
//! coin id. Transaction semantics run through one generic evaluator
//! (`eval_tx`) over a `CoinStore` view, used by BOTH paths:
//!
//! * **serial** — the whole app is the store (lane count 1, barriers,
//!   recovery replay);
//! * **laned** — each lane of a parallel group evaluates against a
//!   copy-on-write `LaneView` (cheap `Arc` clones of every shard + a
//!   private write overlay) and returns an owned `LaneDelta`; deltas
//!   merge back in lane order. The planner guarantees lanes of one group
//!   touch disjoint coin ids, so the merged state — and the globally
//!   sorted snapshot encoding — is bit-for-bit independent of lane count
//!   and of real-thread scheduling.

use crate::tx::{coin_id, lane_of, CoinId, CoinTx, Output, RejectReason, TxResult};
use smartchain_codec::{decode_seq, encode_seq, to_bytes, Decode, Encode};
use smartchain_crypto::keys::PublicKey;
use smartchain_smr::app::Application;
use smartchain_smr::exec::{ExecPool, Job, LaneHint};
use smartchain_smr::types::Request;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One unspent output in the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Coin {
    owner: PublicKey,
    value: u64,
}

/// Mutable coin-state access during execution — implemented by the whole
/// app (serial path) and by one lane's overlay (parallel path), so both
/// run the *same* transaction semantics ([`eval_tx`]) and cannot drift.
trait CoinStore {
    fn get(&self, id: &CoinId) -> Option<Coin>;
    fn insert(&mut self, id: CoinId, coin: Coin);
    fn remove(&mut self, id: &CoinId);
    fn is_minter(&self, key: &PublicKey) -> bool;
}

/// Evaluates one transaction against a store. Pure transaction semantics:
/// counters (executed/rejected) are derived from the result by the caller.
fn eval_tx<S: CoinStore>(store: &mut S, request: &Request) -> TxResult {
    let rejected = |reason| TxResult::Rejected { reason };
    let Some((issuer, _)) = &request.signature else {
        return rejected(RejectReason::Unsigned);
    };
    // Decode a transaction prefix; workloads pad payloads to model the
    // paper's wire sizes, so trailing bytes are permitted.
    let mut payload = request.payload.as_slice();
    let Ok(tx) = CoinTx::decode(&mut payload) else {
        return rejected(RejectReason::Malformed);
    };
    match tx {
        CoinTx::Mint { outputs } => {
            if !store.is_minter(issuer) {
                return rejected(RejectReason::NotAMinter);
            }
            create(store, request, &outputs)
        }
        CoinTx::Spend { inputs, outputs } => {
            // Validate inputs: all present, all owned by the issuer.
            let mut total_in = 0u64;
            for input in &inputs {
                match store.get(input) {
                    None => return rejected(RejectReason::UnknownInput),
                    Some(coin) if coin.owner != *issuer => return rejected(RejectReason::NotOwner),
                    Some(coin) => total_in += coin.value,
                }
            }
            let total_out: u64 = outputs.iter().map(|o| o.value).sum();
            if total_out > total_in {
                return rejected(RejectReason::ValueMismatch);
            }
            for input in &inputs {
                store.remove(input);
            }
            create(store, request, &outputs)
        }
    }
}

fn create<S: CoinStore>(store: &mut S, request: &Request, outputs: &[Output]) -> TxResult {
    let mut coins = Vec::with_capacity(outputs.len());
    for (i, output) in outputs.iter().enumerate() {
        let id = coin_id(request.client, request.seq, i as u32);
        store.insert(
            id,
            Coin {
                owner: output.owner,
                value: output.value,
            },
        );
        coins.push(id);
    }
    TxResult::Created { coins }
}

/// One lane's view of the sharded state during a parallel group: reads
/// fall through a private write overlay to the shared (`Arc`) shards,
/// writes stay in the overlay. `'static` and `Send`, so it can run on an
/// [`ExecPool`] worker.
struct LaneView {
    shards: Vec<Arc<BTreeMap<CoinId, Coin>>>,
    minters: Arc<Vec<PublicKey>>,
    /// Buffered writes: `Some(coin)` = inserted/updated, `None` = removed.
    writes: BTreeMap<CoinId, Option<Coin>>,
}

impl CoinStore for LaneView {
    fn get(&self, id: &CoinId) -> Option<Coin> {
        match self.writes.get(id) {
            Some(slot) => *slot,
            None => self.shards[lane_of(id, self.shards.len())].get(id).copied(),
        }
    }

    fn insert(&mut self, id: CoinId, coin: Coin) {
        self.writes.insert(id, Some(coin));
    }

    fn remove(&mut self, id: &CoinId) {
        self.writes.insert(*id, None);
    }

    fn is_minter(&self, key: &PublicKey) -> bool {
        self.minters.contains(key)
    }
}

/// What one lane's execution produced: per-request results (tagged with
/// their original batch indices), buffered writes, counter increments.
struct LaneDelta {
    results: Vec<(usize, Vec<u8>)>,
    writes: BTreeMap<CoinId, Option<Coin>>,
    executed: u64,
    rejected: u64,
}

/// Runs one lane's requests (in batch order) against a [`LaneView`].
fn run_lane(mut view: LaneView, requests: Vec<(usize, Request)>) -> LaneDelta {
    let mut results = Vec::with_capacity(requests.len());
    let (mut executed, mut rejected) = (0u64, 0u64);
    for (index, request) in &requests {
        let result = eval_tx(&mut view, request);
        match result {
            TxResult::Created { .. } => executed += 1,
            TxResult::Rejected { .. } => rejected += 1,
        }
        results.push((*index, to_bytes(&result)));
    }
    LaneDelta {
        results,
        writes: view.writes,
        executed,
        rejected,
    }
}

/// The SMaRtCoin application state.
#[derive(Debug, Clone)]
pub struct SmartCoinApp {
    /// UTXO table, hash-sharded by [`lane_of`] into one shard per
    /// configured execution lane (length 1 = the seed's single table).
    /// `Arc` makes shard handles cheap to share with lane workers;
    /// mutation goes through `Arc::make_mut` (copy-on-write, in-place
    /// once the workers dropped their handles).
    shards: Vec<Arc<BTreeMap<CoinId, Coin>>>,
    minters: Arc<Vec<PublicKey>>,
    executed: u64,
    rejected: u64,
}

impl SmartCoinApp {
    /// Creates the service with the given authorized minters (from the
    /// genesis block's app data).
    pub fn new(minters: Vec<PublicKey>) -> SmartCoinApp {
        SmartCoinApp {
            shards: vec![Arc::new(BTreeMap::new())],
            minters: Arc::new(minters),
            executed: 0,
            rejected: 0,
        }
    }

    /// Decodes the minter list from genesis app data (see
    /// [`SmartCoinApp::encode_minters`]).
    pub fn from_genesis_data(data: &[u8]) -> SmartCoinApp {
        let minters = Self::decode_minters(data).unwrap_or_default();
        SmartCoinApp::new(minters)
    }

    /// Encodes a minter list for embedding in the genesis block.
    pub fn encode_minters(minters: &[PublicKey]) -> Vec<u8> {
        let wires: Vec<[u8; 33]> = minters.iter().map(PublicKey::to_wire).collect();
        let mut out = Vec::new();
        encode_seq(&wires, &mut out);
        out
    }

    fn decode_minters(mut data: &[u8]) -> Option<Vec<PublicKey>> {
        let wires: Vec<[u8; 33]> = decode_seq(&mut data).ok()?;
        Some(wires.iter().map(PublicKey::from_wire).collect())
    }

    /// Number of execution lanes the state is currently sharded for.
    pub fn lanes(&self) -> usize {
        self.shards.len()
    }

    fn shard_mut(&mut self, id: &CoinId) -> &mut BTreeMap<CoinId, Coin> {
        let lane = lane_of(id, self.shards.len());
        Arc::make_mut(&mut self.shards[lane])
    }

    /// A lane's copy-on-write view for parallel execution.
    fn lane_view(&self) -> LaneView {
        LaneView {
            shards: self.shards.clone(),
            minters: Arc::clone(&self.minters),
            writes: BTreeMap::new(),
        }
    }

    /// Pre-populates the UTXO table with `count` synthetic coins owned by
    /// `owner` (the Fig. 7 experiment boots with 8M UTXOs ≈ 1 GB of state).
    pub fn populate_synthetic(&mut self, owner: PublicKey, count: u64) {
        for i in 0..count {
            let id = coin_id(u64::MAX, i, 0);
            self.shard_mut(&id).insert(id, Coin { owner, value: 1 });
        }
    }

    /// Number of unspent outputs.
    pub fn utxo_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Sum of all coin values owned by `owner`.
    pub fn balance(&self, owner: &PublicKey) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.values())
            .filter(|c| c.owner == *owner)
            .map(|c| c.value)
            .sum()
    }

    /// Transactions executed (accepted).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Transactions rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total value in circulation (conservation invariant in tests).
    pub fn total_value(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.values())
            .map(|c| c.value)
            .sum()
    }

    fn apply(&mut self, request: &Request) -> TxResult {
        let result = eval_tx(self, request);
        match result {
            TxResult::Created { .. } => self.executed += 1,
            TxResult::Rejected { .. } => self.rejected += 1,
        }
        result
    }

    /// Globally sorted UTXO entries — a k-way merge over the (individually
    /// sorted) shards, so the snapshot encoding is byte-identical to the
    /// single-table original regardless of the lane count.
    fn sorted_entries(&self) -> Vec<([u8; 32], [u8; 33], u64)> {
        let entry = |id: &CoinId, c: &Coin| (*id, c.owner.to_wire(), c.value);
        if self.shards.len() == 1 {
            return self.shards[0].iter().map(|(id, c)| entry(id, c)).collect();
        }
        let mut iters: Vec<_> = self.shards.iter().map(|s| s.iter().peekable()).collect();
        let mut out = Vec::with_capacity(self.utxo_count());
        loop {
            let mut best: Option<(usize, CoinId)> = None;
            for (i, it) in iters.iter_mut().enumerate() {
                if let Some(&(id, _)) = it.peek() {
                    if best.is_none_or(|(_, b)| *id < b) {
                        best = Some((i, *id));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let (id, c) = iters[i].next().expect("peeked entry");
            out.push(entry(id, c));
        }
        out
    }
}

impl CoinStore for SmartCoinApp {
    fn get(&self, id: &CoinId) -> Option<Coin> {
        self.shards[lane_of(id, self.shards.len())].get(id).copied()
    }

    fn insert(&mut self, id: CoinId, coin: Coin) {
        self.shard_mut(&id).insert(id, coin);
    }

    fn remove(&mut self, id: &CoinId) {
        self.shard_mut(id).remove(id);
    }

    fn is_minter(&self, key: &PublicKey) -> bool {
        self.minters.contains(key)
    }
}

impl Application for SmartCoinApp {
    fn execute(&mut self, request: &Request) -> Vec<u8> {
        let result = self.apply(request);
        to_bytes(&result)
    }

    /// A transaction's lane is derived from its static footprint
    /// ([`CoinTx::touched_ids`]): single-lane if every touched coin id
    /// hash-shards to one lane, [`LaneHint::Cross`] otherwise. Requests
    /// rejected before touching coin state (unsigned, undecodable) only
    /// bump the rejected counter — which merges commutatively — so they
    /// spread over a deterministic fallback lane.
    fn lane_hint(&self, request: &Request, lanes: usize) -> LaneHint {
        if lanes <= 1 {
            return LaneHint::Single(0);
        }
        let fallback = LaneHint::Single(((request.client ^ request.seq) % lanes as u64) as usize);
        if request.signature.is_none() {
            return fallback;
        }
        let mut payload = request.payload.as_slice();
        let Ok(tx) = CoinTx::decode(&mut payload) else {
            return fallback;
        };
        let mut lane: Option<usize> = None;
        for id in tx.touched_ids(request.client, request.seq) {
            let l = lane_of(&id, lanes);
            match lane {
                None => lane = Some(l),
                Some(prev) if prev != l => return LaneHint::Cross,
                Some(_) => {}
            }
        }
        match lane {
            Some(l) => LaneHint::Single(l),
            None => fallback,
        }
    }

    /// Re-shards the UTXO table for `lanes` lanes (content unchanged).
    fn configure_lanes(&mut self, lanes: usize) {
        let lanes = lanes.max(1);
        if lanes == self.shards.len() {
            return;
        }
        let mut maps: Vec<BTreeMap<CoinId, Coin>> = vec![BTreeMap::new(); lanes];
        for shard in &self.shards {
            for (id, coin) in shard.iter() {
                maps[lane_of(id, lanes)].insert(*id, *coin);
            }
        }
        self.shards = maps.into_iter().map(Arc::new).collect();
    }

    /// Executes one parallel group: each occupied lane evaluates against
    /// its own copy-on-write view — on the pool when one is provided and
    /// more than one lane has work, inline otherwise — then the owned
    /// deltas merge back in lane order. Lanes touch disjoint coin ids (the
    /// planner's guarantee) and counters add commutatively, so the merged
    /// state is independent of worker scheduling.
    fn execute_group(
        &mut self,
        group: &[Vec<(usize, &Request)>],
        pool: Option<&ExecPool>,
    ) -> Vec<(usize, Vec<u8>)> {
        let lanes: Vec<Vec<(usize, Request)>> = group
            .iter()
            .filter(|lane| !lane.is_empty())
            .map(|lane| lane.iter().map(|&(i, r)| (i, r.clone())).collect())
            .collect();
        let deltas: Vec<LaneDelta> = match pool {
            Some(pool) if lanes.len() > 1 => {
                let jobs: Vec<Job<LaneDelta>> = lanes
                    .into_iter()
                    .map(|requests| {
                        let view = self.lane_view();
                        Box::new(move || run_lane(view, requests)) as Job<LaneDelta>
                    })
                    .collect();
                pool.run(jobs)
            }
            _ => lanes
                .into_iter()
                .map(|requests| run_lane(self.lane_view(), requests))
                .collect(),
        };
        let mut out = Vec::new();
        for delta in deltas {
            for (id, slot) in delta.writes {
                match slot {
                    Some(coin) => {
                        self.shard_mut(&id).insert(id, coin);
                    }
                    None => {
                        self.shard_mut(&id).remove(&id);
                    }
                }
            }
            self.executed += delta.executed;
            self.rejected += delta.rejected;
            out.extend(delta.results);
        }
        out
    }

    fn take_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_seq(&self.sorted_entries(), &mut out);
        let minters: Vec<[u8; 33]> = self.minters.iter().map(PublicKey::to_wire).collect();
        encode_seq(&minters, &mut out);
        self.executed.encode(&mut out);
        self.rejected.encode(&mut out);
        out
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) {
        let mut input = snapshot;
        let Ok(entries) = decode_seq::<([u8; 32], [u8; 33], u64)>(&mut input) else {
            return;
        };
        let Ok(minters) = decode_seq::<[u8; 33]>(&mut input) else {
            return;
        };
        let lanes = self.shards.len();
        let mut maps: Vec<BTreeMap<CoinId, Coin>> = vec![BTreeMap::new(); lanes];
        for (id, owner, value) in entries {
            maps[lane_of(&id, lanes)].insert(
                id,
                Coin {
                    owner: PublicKey::from_wire(&owner),
                    value,
                },
            );
        }
        self.shards = maps.into_iter().map(Arc::new).collect();
        self.minters = Arc::new(minters.iter().map(PublicKey::from_wire).collect());
        self.executed = u64::decode(&mut input).unwrap_or(0);
        self.rejected = u64::decode(&mut input).unwrap_or(0);
    }

    fn reset(&mut self) {
        self.shards = (0..self.shards.len())
            .map(|_| Arc::new(BTreeMap::new()))
            .collect();
        self.executed = 0;
        self.rejected = 0;
        // The minter list comes from genesis and survives resets.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_codec::from_bytes;
    use smartchain_crypto::keys::{Backend, SecretKey};

    fn key(seed: u8) -> SecretKey {
        SecretKey::from_seed(Backend::Sim, &[seed; 32])
    }

    fn signed_request(sk: &SecretKey, client: u64, seq: u64, tx: &CoinTx) -> Request {
        let payload = to_bytes(tx);
        let sig = sk.sign(&Request::sign_payload(client, seq, &payload));
        Request {
            client,
            seq,
            payload,
            signature: Some((sk.public_key(), sig)),
        }
    }

    fn setup() -> (SmartCoinApp, SecretKey, SecretKey) {
        let minter = key(1);
        let user = key(2);
        let app = SmartCoinApp::new(vec![minter.public_key()]);
        (app, minter, user)
    }

    #[test]
    fn mint_and_spend_happy_path() {
        let (mut app, minter, user) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 100,
            }],
        };
        let req = signed_request(&minter, 10, 0, &mint);
        let result: TxResult = from_bytes(&app.execute(&req)).unwrap();
        let TxResult::Created { coins } = result else {
            panic!("mint rejected: {result:?}")
        };
        assert_eq!(app.balance(&minter.public_key()), 100);
        // Spend 60 to the user, 40 back.
        let spend = CoinTx::Spend {
            inputs: coins,
            outputs: vec![
                Output {
                    owner: user.public_key(),
                    value: 60,
                },
                Output {
                    owner: minter.public_key(),
                    value: 40,
                },
            ],
        };
        let req = signed_request(&minter, 10, 1, &spend);
        let result: TxResult = from_bytes(&app.execute(&req)).unwrap();
        assert!(matches!(result, TxResult::Created { .. }), "{result:?}");
        assert_eq!(app.balance(&user.public_key()), 60);
        assert_eq!(app.balance(&minter.public_key()), 40);
        assert_eq!(app.total_value(), 100, "value conserved");
    }

    #[test]
    fn non_minter_cannot_mint() {
        let (mut app, _minter, user) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: user.public_key(),
                value: 5,
            }],
        };
        let req = signed_request(&user, 11, 0, &mint);
        let result: TxResult = from_bytes(&app.execute(&req)).unwrap();
        assert_eq!(
            result,
            TxResult::Rejected {
                reason: RejectReason::NotAMinter
            }
        );
        assert_eq!(app.total_value(), 0);
    }

    #[test]
    fn cannot_spend_others_coins() {
        let (mut app, minter, user) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 10,
            }],
        };
        let req = signed_request(&minter, 10, 0, &mint);
        let result: TxResult = from_bytes(&app.execute(&req)).unwrap();
        let TxResult::Created { coins } = result else {
            panic!()
        };
        // The user tries to spend the minter's coin.
        let theft = CoinTx::Spend {
            inputs: coins,
            outputs: vec![Output {
                owner: user.public_key(),
                value: 10,
            }],
        };
        let req = signed_request(&user, 11, 0, &theft);
        let result: TxResult = from_bytes(&app.execute(&req)).unwrap();
        assert_eq!(
            result,
            TxResult::Rejected {
                reason: RejectReason::NotOwner
            }
        );
        assert_eq!(app.balance(&minter.public_key()), 10);
    }

    #[test]
    fn double_spend_rejected() {
        let (mut app, minter, user) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 10,
            }],
        };
        let req = signed_request(&minter, 10, 0, &mint);
        let TxResult::Created { coins } = from_bytes(&app.execute(&req)).unwrap() else {
            panic!()
        };
        let spend = CoinTx::Spend {
            inputs: coins.clone(),
            outputs: vec![Output {
                owner: user.public_key(),
                value: 10,
            }],
        };
        let req1 = signed_request(&minter, 10, 1, &spend);
        let r1: TxResult = from_bytes(&app.execute(&req1)).unwrap();
        assert!(matches!(r1, TxResult::Created { .. }));
        // Second spend of the same input.
        let req2 = signed_request(&minter, 10, 2, &spend);
        let r2: TxResult = from_bytes(&app.execute(&req2)).unwrap();
        assert_eq!(
            r2,
            TxResult::Rejected {
                reason: RejectReason::UnknownInput
            }
        );
        assert_eq!(app.total_value(), 10);
    }

    #[test]
    fn cannot_create_value_from_nothing() {
        let (mut app, minter, user) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 10,
            }],
        };
        let req = signed_request(&minter, 10, 0, &mint);
        let TxResult::Created { coins } = from_bytes(&app.execute(&req)).unwrap() else {
            panic!()
        };
        let inflate = CoinTx::Spend {
            inputs: coins,
            outputs: vec![Output {
                owner: user.public_key(),
                value: 11,
            }],
        };
        let req = signed_request(&minter, 10, 1, &inflate);
        let r: TxResult = from_bytes(&app.execute(&req)).unwrap();
        assert_eq!(
            r,
            TxResult::Rejected {
                reason: RejectReason::ValueMismatch
            }
        );
    }

    #[test]
    fn unsigned_requests_rejected() {
        let (mut app, minter, _) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 10,
            }],
        };
        let req = Request {
            client: 1,
            seq: 0,
            payload: to_bytes(&mint),
            signature: None,
        };
        let r: TxResult = from_bytes(&app.execute(&req)).unwrap();
        assert_eq!(
            r,
            TxResult::Rejected {
                reason: RejectReason::Unsigned
            }
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let (mut app, minter, user) = setup();
        let mint = CoinTx::Mint {
            outputs: vec![
                Output {
                    owner: minter.public_key(),
                    value: 7,
                },
                Output {
                    owner: user.public_key(),
                    value: 3,
                },
            ],
        };
        let req = signed_request(&minter, 10, 0, &mint);
        app.execute(&req);
        let snap = app.take_snapshot();
        let mut restored = SmartCoinApp::new(Vec::new());
        restored.install_snapshot(&snap);
        assert_eq!(restored.balance(&minter.public_key()), 7);
        assert_eq!(restored.balance(&user.public_key()), 3);
        assert_eq!(restored.total_value(), 10);
        // The minter list travels with the snapshot.
        let mint2 = CoinTx::Mint {
            outputs: vec![Output {
                owner: user.public_key(),
                value: 1,
            }],
        };
        let req2 = signed_request(&minter, 10, 1, &mint2);
        let r: TxResult = from_bytes(&restored.execute(&req2)).unwrap();
        assert!(matches!(r, TxResult::Created { .. }));
    }

    #[test]
    fn genesis_data_roundtrip() {
        let minters = vec![key(1).public_key(), key(2).public_key()];
        let data = SmartCoinApp::encode_minters(&minters);
        let app = SmartCoinApp::from_genesis_data(&data);
        assert!(app.minters.contains(&minters[0]));
        assert!(app.minters.contains(&minters[1]));
    }

    #[test]
    fn synthetic_population() {
        let (mut app, minter, _) = setup();
        app.populate_synthetic(minter.public_key(), 1000);
        assert_eq!(app.utxo_count(), 1000);
        assert_eq!(app.total_value(), 1000);
    }

    #[test]
    fn deterministic_across_replicas() {
        let (mut a, minter, user) = setup();
        let (mut b, _, _) = setup();
        for seq in 0..10u64 {
            let tx = if seq % 2 == 0 {
                CoinTx::Mint {
                    outputs: vec![Output {
                        owner: user.public_key(),
                        value: seq,
                    }],
                }
            } else {
                CoinTx::Spend {
                    inputs: vec![coin_id(10, seq - 1, 0)],
                    outputs: vec![Output {
                        owner: minter.public_key(),
                        value: seq - 1,
                    }],
                }
            };
            let req = signed_request(if seq % 2 == 0 { &minter } else { &user }, 10, seq, &tx);
            assert_eq!(a.execute(&req), b.execute(&req), "seq {seq}");
        }
        assert_eq!(a.take_snapshot(), b.take_snapshot());
    }

    #[test]
    fn resharding_preserves_state_and_snapshot_bytes() {
        let (mut app, minter, _) = setup();
        app.populate_synthetic(minter.public_key(), 100);
        let baseline = app.take_snapshot();
        for lanes in [4usize, 8, 3, 1] {
            app.configure_lanes(lanes);
            assert_eq!(app.lanes(), lanes);
            assert_eq!(app.utxo_count(), 100);
            assert_eq!(
                app.take_snapshot(),
                baseline,
                "{lanes}-lane snapshot must be byte-identical to the single-table encoding"
            );
        }
    }

    #[test]
    fn lane_hint_matches_footprint() {
        let (mut app, minter, _) = setup();
        app.configure_lanes(4);
        // A single-output mint touches exactly one derived id.
        let mint = CoinTx::Mint {
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 1,
            }],
        };
        let req = signed_request(&minter, 3, 0, &mint);
        let expected = lane_of(&coin_id(3, 0, 0), 4);
        assert_eq!(app.lane_hint(&req, 4), LaneHint::Single(expected));
        // A spend whose input and output shard differently is cross-lane.
        let (mut input_seq, mut lanes_differ) = (0u64, None);
        while lanes_differ.is_none() {
            let input = coin_id(3, input_seq, 0);
            if lane_of(&input, 4) != lane_of(&coin_id(3, 1000, 0), 4) {
                lanes_differ = Some(input);
            }
            input_seq += 1;
        }
        let spend = CoinTx::Spend {
            inputs: vec![lanes_differ.unwrap()],
            outputs: vec![Output {
                owner: minter.public_key(),
                value: 1,
            }],
        };
        let req = signed_request(&minter, 3, 1000, &spend);
        assert_eq!(app.lane_hint(&req, 4), LaneHint::Cross);
        // One lane: everything is Single(0).
        assert_eq!(app.lane_hint(&req, 1), LaneHint::Single(0));
    }
}
