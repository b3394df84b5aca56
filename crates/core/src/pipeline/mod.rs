//! The staged commit pipeline — the replica decomposed into the five stages
//! every request traverses (paper Algorithm 1, restructured for pipelining):
//!
//! ```text
//!   client request
//!        │
//!   [1] VERIFY    (verify.rs)    batched client-signature checks on the
//!        │                       worker-pool lanes (Table I's parallel
//!        │                       verification; CpuModel lanes in virtual
//!        │                       time, crypto::pool::VerifyPool on metal)
//!   [2] ORDER     (node.rs)      the Mod-SMaRt core totally orders batches
//!        │                       (smartchain-smr::OrderingCore) in a
//!        │                       windowed pipeline: up to α consensus
//!        │                       instances in flight, in-order delivery
//!   [3] EXECUTE   (produce.rs)   an ordered batch becomes a block:
//!        │                       transactions run, results are committed to
//!        │                       the block body (Algorithm 1 lines 16-29)
//!   [4] PERSIST   (persist.rs)   the persistence ladder: the block is
//!        │                       appended through a DurabilityEngine
//!        │                       (Memory/Async/GroupCommit); the strong
//!        │                       variant adds the PERSIST certificate round.
//!        │                       Up to α blocks are open concurrently;
//!        │                       device syncs and certificates complete
//!        │                       out of order
//!   [5] REPLY     (persist.rs)   replies release once the configured rung's
//!        │                       durability obligation is met — strictly in
//!        │                       block order, whatever order PERSIST
//!        │                       completions arrive in
//!        ▼
//!   side stages: checkpoint.rs (chain-linked snapshots, §V-B3),
//!                state_transfer.rs (snapshot + suffix shipping),
//!                reconfig.rs (join/leave/exclude, §V-D)
//! ```
//!
//! Each stage lives in its own module as an `impl` block on
//! [`crate::node::ChainNode`]; `node.rs` keeps only the actor spine (event
//! dispatch, ordering-core output routing, configuration). The stages share
//! state through `MemberState` and communicate *only* via
//! simulator events (disk completions, pool completions, timers), which is
//! what makes them independently schedulable — and what lets the ordering
//! core run α > 1 instances while earlier blocks are still executing and
//! persisting.

pub mod checkpoint;
pub mod persist;
pub mod produce;
pub mod reconfig;
pub mod state_transfer;
pub mod verify;

use smartchain_codec::{Decode, DecodeError, Encode};
use smartchain_crypto::keys::PublicKey;
use smartchain_smr::types::Request;

use crate::block::{ReconfigTx, ReconfigVote};

/// Timer/operation token namespaces (one per asynchronous stage hop).
pub(crate) const TOKEN_PROGRESS: u64 = 1;
pub(crate) const TOKEN_JOIN: u64 = 2;
pub(crate) const TOKEN_LEAVE: u64 = 3;
pub(crate) const TOKEN_EXCLUDE: u64 = 4;
pub(crate) const KIND_SHIFT: u64 = 56;
pub(crate) const KIND_VERIFY: u64 = 1 << KIND_SHIFT;
pub(crate) const KIND_HEADER: u64 = 2 << KIND_SHIFT;
/// Completion of a reconfiguration block's synchronous write (Sync rung):
/// the view installs only once its block is durable.
pub(crate) const KIND_RECONFIG: u64 = 3 << KIND_SHIFT;
/// Completion of a checkpoint snapshot's synchronous write (Sync rung).
pub(crate) const KIND_SNAPSHOT: u64 = 4 << KIND_SHIFT;
pub(crate) const KIND_MASK: u64 = 0xff << KIND_SHIFT;

/// Request payload envelope markers (first byte of every ordered payload).
pub(crate) const PAYLOAD_APP: u8 = 0;
pub(crate) const PAYLOAD_RECONFIG: u8 = 1;
pub(crate) const PAYLOAD_EXCLUDE_VOTE: u8 = 2;

/// Wraps an application payload for ordering through a SmartChain node.
pub fn app_payload(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() + 1);
    out.push(PAYLOAD_APP);
    out.extend_from_slice(bytes);
    out
}

/// Extracts the application bytes from an envelope (`None` for protocol
/// payloads).
pub fn unwrap_app_payload(payload: &[u8]) -> Option<&[u8]> {
    match payload.first() {
        Some(&PAYLOAD_APP) => Some(&payload[1..]),
        _ => None,
    }
}

pub(crate) fn reconfig_payload(tx: &ReconfigTx) -> Vec<u8> {
    let mut out = vec![PAYLOAD_RECONFIG];
    tx.encode(&mut out);
    out
}

/// Builds the ordered payload for one member's exclude vote (paper Fig. 5b).
pub fn exclude_vote_payload(target: &PublicKey, vote: &ReconfigVote) -> Vec<u8> {
    let mut out = vec![PAYLOAD_EXCLUDE_VOTE];
    target.to_wire().encode(&mut out);
    vote.encode(&mut out);
    out
}

/// Verifies a request's client signature, accounting for the app envelope:
/// clients sign `(client, seq, app_payload)`; the envelope byte is added by
/// the transport wrapper afterwards.
pub fn verify_envelope_signature(req: &Request) -> bool {
    match unwrap_app_payload(&req.payload) {
        Some(inner) => match &req.signature {
            None => true,
            Some((key, sig)) => key.verify(&Request::sign_payload(req.client, req.seq, inner), sig),
        },
        None => req.verify_signature(),
    }
}

pub(crate) fn parse_exclude_vote(
    mut input: &[u8],
) -> Result<(PublicKey, ReconfigVote), DecodeError> {
    let target = PublicKey::from_wire(&<[u8; 33]>::decode(&mut input)?);
    let vote = ReconfigVote::decode(&mut input)?;
    Ok((target, vote))
}
