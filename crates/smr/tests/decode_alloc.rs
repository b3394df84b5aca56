//! Allocation accounting for decoders that read attacker-controlled bytes.
//!
//! A sequence's length prefix is bounded only by the bytes remaining, so a
//! frame of N bytes can claim N elements. Decoding must not reserve
//! `N × size_of::<T>()` on that claim: a 64 MiB frame claiming 64 Mi
//! 112-byte `ConsensusMsg`s would otherwise reserve ≈ 7.5 GB before its
//! first element fails to decode — an abort on any host that does not
//! overcommit. This binary installs a counting global allocator (hence one
//! test: other tests would allocate concurrently) and checks that crafted
//! frames fail on the peer path (full `SmrMsg` decode) reserving at most
//! twice their own length, and on the client path
//! (`SmrMsg::decode_request`) reserving nothing. The same holds for the
//! signer lists of checkpoint, decision-proof and block certificates, which
//! share one generic decoder, and for every other sequence field of a wire
//! record or message: one row each, crafted after the fields that precede
//! the sequence.

use smartchain_codec::{from_bytes, to_bytes, Decode, Encode};
use smartchain_coin::tx::CoinTx;
use smartchain_consensus::messages::accept_sign_payload;
use smartchain_consensus::proof::DecisionProof;
use smartchain_consensus::synchronizer::{StopData, SyncMsg};
use smartchain_consensus::View;
use smartchain_core::block::{persist_sign_payload, BlockBody, BlockHeader, Certificate, ViewInfo};
use smartchain_core::messages::ChainMsg;
use smartchain_core::view_keys::KeyStore;
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_merkle::{Proof, RangeProof};
use smartchain_smr::durability::{ckpt_sign_payload, CheckpointCert};
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::types::decode_batch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns how far the live heap rose above its level at the
/// start (bytes requested and not yet freed, at the worst moment).
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

/// An `SmrMsg` payload: `head` (discriminant and fixed fields), then a
/// sequence prefix claiming one element per remaining byte, then filler
/// that fails to decode as the first element.
fn crafted(head: &[u8], total: usize) -> Vec<u8> {
    let mut payload = head.to_vec();
    let claim = total - head.len() - 4;
    (claim as u32).encode(&mut payload);
    payload.resize(total, 0xFF);
    payload
}

#[test]
fn crafted_frames_reserve_at_most_twice_their_length() {
    const LEN: usize = 8 << 20;
    // InstanceRep { instance, decided: None, msgs: <claim> }.
    let mut instance_rep = vec![8u8];
    7u64.encode(&mut instance_rep);
    instance_rep.push(0);
    // StateRep { covered, snapshot: None, first_batch, batches: <claim> }.
    let mut state_rep = vec![5u8];
    0u64.encode(&mut state_rep);
    state_rep.push(0);
    1u64.encode(&mut state_rep);
    for head in [instance_rep, state_rep] {
        let payload = crafted(&head, LEN);
        let peer = peak_growth(|| assert!(from_bytes::<SmrMsg>(&payload).is_err()));
        assert!(
            peer <= 2 * LEN,
            "discriminant {}: peer decode reserved {peer} bytes for a {LEN}-byte frame",
            head[0]
        );
        // The client path does not decode replica-to-replica variants at
        // all, so it reserves nothing for them.
        let client = peak_growth(|| assert!(SmrMsg::decode_request(&payload).is_err()));
        assert_eq!(
            client, 0,
            "discriminant {}: client decode reserved {client} bytes",
            head[0]
        );
    }
    signer_lists_reserve_at_most_twice_their_length();
    sequence_fields_reserve_at_most_twice_their_length();
}

/// Decodes `payload` as `T`, asserting the outcome (`Ok` when `decodes`)
/// and that the live heap never rose by more than twice the input length.
fn decode_bounded<T: Decode>(name: &str, payload: &[u8], decodes: bool) -> Option<T> {
    let mut out = None;
    bounded(name, payload.len(), decodes, || {
        out = from_bytes::<T>(payload).ok();
        out.is_some()
    });
    out
}

/// Runs `decode` (true when it succeeded), asserting its outcome and that
/// the live heap never rose by more than twice the `len`-byte input.
fn bounded(name: &str, len: usize, decodes: bool, decode: impl FnOnce() -> bool) {
    let mut ok = false;
    let grew = peak_growth(|| ok = decode());
    assert_eq!(ok, decodes, "{name}: decode outcome");
    assert!(
        grew <= 2 * len,
        "{name}: reserved {grew} bytes for a {len}-byte input"
    );
}

/// The remaining sequence fields, one row each: the bytes of the fields
/// before the sequence (the tag first, for a message), then a count
/// claiming one element per remaining byte over filler that runs out or
/// fails to decode, decoded as the record or message holding the field.
fn sequence_fields_reserve_at_most_twice_their_length() {
    const LEN: usize = 8 << 20;
    fn is<T: Decode>(payload: &[u8]) -> bool {
        from_bytes::<T>(payload).is_ok()
    }
    let empty_proof = DecisionProof {
        instance: 0,
        epoch: 0,
        value_hash: [0; 32],
        accepts: Vec::new(),
    };
    // StateRep's tag, then `snapshot`, `commit` and `snapshot_anchor`, all
    // `None`.
    let state_rep = [3u8, 0, 0, 0];
    // The field, the bytes before it, and a decode of its holder.
    type Row = (&'static str, Vec<u8>, fn(&[u8]) -> bool);
    let rows: [Row; 14] = [
        (
            "SyncMsg::Sync reports",
            to_bytes(&(2u8, 0u32)),
            is::<SyncMsg>,
        ),
        (
            "SyncMsg::Sync adopted",
            to_bytes(&(2u8, 0u32, 0u32)),
            is::<SyncMsg>,
        ),
        ("StopData locked", to_bytes(&0u64), is::<StopData>),
        (
            "ChainMsg::StateRep snapshot_dedup",
            to_bytes(&state_rep),
            is::<ChainMsg>,
        ),
        (
            "ChainMsg::StateRep blocks",
            to_bytes(&(state_rep, 0u32)),
            is::<ChainMsg>,
        ),
        (
            "ChainMsg::StateRep digests",
            to_bytes(&(state_rep, 0u32, 0u32, 0u64, false)),
            is::<ChainMsg>,
        ),
        (
            "BlockBody requests",
            to_bytes(&(0u8, 0u64)),
            is::<BlockBody>,
        ),
        (
            "BlockBody results",
            to_bytes(&(0u8, 0u64, 0u32, empty_proof)),
            is::<BlockBody>,
        ),
        ("CoinTx::Mint outputs", to_bytes(&0u8), is::<CoinTx>),
        ("CoinTx::Spend inputs", to_bytes(&1u8), is::<CoinTx>),
        (
            "CoinTx::Spend outputs",
            to_bytes(&(1u8, 0u32)),
            is::<CoinTx>,
        ),
        ("merkle::Proof path", to_bytes(&0u64), is::<Proof>),
        (
            "merkle::RangeProof siblings",
            to_bytes(&(0u64, 0u64, 0u64)),
            is::<RangeProof>,
        ),
        ("decode_batch", Vec::new(), |p| decode_batch(p).is_ok()),
    ];
    for (name, head, decodes) in rows {
        let payload = crafted(&head, LEN);
        bounded(name, LEN, false, || decodes(&payload));
    }
}

/// Signer lists crafted after each certificate's fixed fields: a count of
/// `u32::MAX` over a short input, an entry cut off inside its signature, a
/// count of one entry per remaining byte, and a quorum of valid entries plus
/// one naming signer `u64::MAX` — which decodes on a 64-bit host and so must
/// never verify.
fn signer_lists_reserve_at_most_twice_their_length() {
    let stores: Vec<KeyStore> = (0..4u8)
        .map(|i| KeyStore::new(SecretKey::from_seed(Backend::Sim, &[i; 32]), Backend::Sim))
        .collect();
    let view_info = ViewInfo {
        id: 0,
        members: stores.iter().map(|s| s.certified_key_for(0)).collect(),
    };
    let view: View = view_info.to_consensus_view();
    let header = BlockHeader {
        number: 3,
        last_reconfig: 0,
        last_checkpoint: 0,
        hash_transactions: [1; 32],
        hash_results: [2; 32],
        hash_last_block: [3; 32],
    };
    let quorum_over = |payload: &[u8]| -> Vec<_> {
        (0..view.quorum())
            .map(|i| (i, stores[i].consensus().sign(payload)))
            .collect()
    };

    let ckpt = CheckpointCert {
        covered: 9,
        state_root: [4; 32],
        tip: [5; 32],
        signatures: quorum_over(&ckpt_sign_payload(9, &[4; 32], &[5; 32])),
    };
    let proof = DecisionProof {
        instance: 2,
        epoch: 0,
        value_hash: [6; 32],
        accepts: quorum_over(&accept_sign_payload(2, 0, &[6; 32])),
    };
    let block_cert = Certificate {
        signatures: quorum_over(&persist_sign_payload(header.number, &header.hash())),
    };
    assert!(ckpt.verify(&view) && proof.verify(&view) && block_cert.verify(&header, &view_info));

    let ckpt_head = 8 + 32 + 32;
    let proof_head = 8 + 4 + 32;
    let with_max_signer = |valid: Vec<u8>, head: usize| {
        let mut bytes = valid[..head].to_vec();
        (view.quorum() as u32 + 1).encode(&mut bytes);
        bytes.extend_from_slice(&valid[head + 4..]);
        u64::MAX.encode(&mut bytes);
        stores[3].consensus().sign(b"any").encode(&mut bytes);
        bytes
    };
    let ckpt_bytes = with_max_signer(ckpt.to_vec(), ckpt_head);
    let decoded: CheckpointCert = decode_bounded("CheckpointCert", &ckpt_bytes, true).unwrap();
    assert!(
        !decoded.verify(&view),
        "CheckpointCert with signer u64::MAX"
    );
    let proof_bytes = with_max_signer(proof.to_vec(), proof_head);
    let decoded: DecisionProof = decode_bounded("DecisionProof", &proof_bytes, true).unwrap();
    assert!(!decoded.verify(&view), "DecisionProof with signer u64::MAX");
    let cert_bytes = with_max_signer(block_cert.to_vec(), 0);
    let decoded: Certificate = decode_bounded("Certificate", &cert_bytes, true).unwrap();
    assert!(
        !decoded.verify(&header, &view_info),
        "Certificate with signer u64::MAX"
    );

    malformed_lists::<CheckpointCert>("CheckpointCert", &ckpt.to_vec()[..ckpt_head]);
    malformed_lists::<DecisionProof>("DecisionProof", &proof.to_vec()[..proof_head]);
    malformed_lists::<Certificate>("Certificate", &[]);
}

/// Malformed signer lists after `head` (the fields before the list), each
/// of which must fail to decode as `T` within the allocation bound.
fn malformed_lists<T: Decode>(name: &str, head: &[u8]) {
    let mut huge_count = head.to_vec();
    u32::MAX.encode(&mut huge_count);
    huge_count.resize(huge_count.len() + 100, 0xFF);
    let mut cut = head.to_vec();
    1u32.encode(&mut cut);
    0u64.encode(&mut cut);
    cut.push(1); // signature tag, then 30 of its 64 bytes
    cut.resize(cut.len() + 30, 0xAB);
    for (case, payload) in [
        ("count u32::MAX", huge_count),
        ("entry cut inside its signature", cut),
        ("one entry claimed per byte", crafted(head, 1 << 20)),
    ] {
        decode_bounded::<T>(&format!("{name}, {case}"), &payload, false);
    }
}
