//! The one quorum rule and the one signer-list wire form, checked on every
//! certificate type.
//!
//! Decision proofs, WRITE certificates, checkpoint certificates and PERSIST
//! (block) certificates all verify through `consensus::proof::verify_quorum`
//! and encode their signer lists as the codec's one sequence form. The
//! quorum tests below run each type against the same adversarial signer
//! lists at n = 4 and n = 7; the wire tests pin each encoding to its explicit
//! byte layout, so "byte-identical" is checked rather than assumed.

use smartchain::codec::{from_bytes, Decode, Encode};
use smartchain::consensus::messages::{accept_sign_payload, ConsensusMsg};
use smartchain::consensus::proof::{write_sign_payload, DecisionProof, WriteCertificate};
use smartchain::consensus::View;
use smartchain::core::block::{persist_sign_payload, BlockHeader, Certificate, ViewInfo};
use smartchain::core::view_keys::CertifiedKey;
use smartchain::crypto::keys::{Backend, PublicKey, SecretKey, Signature};
use smartchain::smr::durability::{ckpt_sign_payload, CheckpointCert};
use smartchain::smr::ordering::SmrMsg;
use smartchain::smr::types::Request;
use std::fmt::Debug;

type Signers = Vec<(usize, Signature)>;

fn secrets(n: usize, seed: u8) -> Vec<SecretKey> {
    (0..n)
        .map(|i| {
            let mut bytes = [seed; 32];
            bytes[0] = i as u8;
            SecretKey::from_seed(Backend::Sim, &bytes)
        })
        .collect()
}

fn header() -> BlockHeader {
    BlockHeader {
        number: 12,
        last_reconfig: 0,
        last_checkpoint: 8,
        hash_transactions: [1; 32],
        hash_results: [2; 32],
        hash_last_block: [3; 32],
    }
}

/// One certificate type under test: the bytes its signers sign, and its
/// `verify` run on a signer list against the view whose consensus keys are
/// `members`.
struct Kind {
    name: &'static str,
    payload: Vec<u8>,
    verify: fn(Signers, &[PublicKey]) -> bool,
}

fn consensus_view(members: &[PublicKey]) -> View {
    View {
        id: 0,
        members: members.to_vec(),
    }
}

/// A view whose members' consensus keys are `members` (the permanent key
/// and its certification play no part in a block certificate's check).
fn view_info(members: &[PublicKey]) -> ViewInfo {
    let cert = SecretKey::from_seed(Backend::Sim, &[0xee; 32]).sign(b"unused");
    ViewInfo {
        id: 0,
        members: members
            .iter()
            .map(|&key| CertifiedKey {
                permanent: key,
                consensus: key,
                cert,
            })
            .collect(),
    }
}

const HASH: [u8; 32] = [9; 32];

fn kinds() -> Vec<Kind> {
    vec![
        Kind {
            name: "DecisionProof",
            payload: accept_sign_payload(5, 1, &HASH),
            verify: |accepts, members| {
                let proof = DecisionProof {
                    instance: 5,
                    epoch: 1,
                    value_hash: HASH,
                    accepts,
                };
                proof.verify(&consensus_view(members))
            },
        },
        Kind {
            name: "WriteCertificate",
            payload: write_sign_payload(5, 1, &HASH),
            verify: |writes, members| {
                let cert = WriteCertificate {
                    instance: 5,
                    epoch: 1,
                    value_hash: HASH,
                    writes,
                };
                cert.verify(&consensus_view(members))
            },
        },
        Kind {
            name: "CheckpointCert",
            payload: ckpt_sign_payload(40, &[4; 32], &HASH),
            verify: |signatures, members| {
                let cert = CheckpointCert {
                    covered: 40,
                    state_root: [4; 32],
                    tip: HASH,
                    signatures,
                };
                cert.verify(&consensus_view(members))
            },
        },
        Kind {
            name: "block::Certificate",
            payload: persist_sign_payload(header().number, &header().hash()),
            verify: |signatures, members| {
                Certificate { signatures }.verify(&header(), &view_info(members))
            },
        },
    ]
}

fn signed(keys: &[SecretKey], ids: impl IntoIterator<Item = usize>, payload: &[u8]) -> Signers {
    ids.into_iter()
        .map(|i| (i, keys[i].sign(payload)))
        .collect()
}

#[test]
fn every_certificate_applies_one_quorum_rule_at_n4_and_n7() {
    for (n, quorum) in [(4, 3), (7, 5)] {
        let keys = secrets(n, 1);
        let members: Vec<PublicKey> = keys.iter().map(SecretKey::public_key).collect();
        let other_view = secrets(n, 2);
        assert_eq!(consensus_view(&members).quorum(), quorum);
        assert_eq!(view_info(&members).quorum(), quorum);
        for kind in kinds() {
            let verify = |signers: Signers| (kind.verify)(signers, &members);
            let at = format!("{} at n = {n}", kind.name);
            let p = &kind.payload;

            assert!(verify(signed(&keys, 0..quorum, p)), "{at}: exact quorum");
            assert!(verify(signed(&keys, (0..n).rev(), p)), "{at}: every member");
            assert!(!verify(signed(&keys, 0..quorum - 1, p)), "{at}: quorum - 1");

            let mut duplicate = signed(&keys, 0..quorum - 1, p);
            duplicate.push(duplicate[0]);
            assert!(!verify(duplicate), "{at}: duplicate signer");

            // Index n with member 0's signature: a bound that wrapped or
            // clamped the index would count it as the missing quorum share.
            let mut outside = signed(&keys, 1..quorum, p);
            outside.push((n, keys[0].sign(p)));
            assert!(!verify(outside), "{at}: signer index n");
            let mut far_outside = signed(&keys, 0..quorum, p);
            far_outside[0].0 = usize::MAX;
            assert!(!verify(far_outside), "{at}: signer index usize::MAX");

            let mut forged = signed(&keys, 0..quorum, p);
            forged[quorum / 2].1 = keys[quorum / 2].sign(b"some other payload");
            assert!(!verify(forged), "{at}: one forged signature");
            let mut misattributed = signed(&keys, 0..quorum, p);
            misattributed[0].1 = keys[n - 1].sign(p);
            assert!(
                !verify(misattributed),
                "{at}: signature under another member's key"
            );

            assert!(
                !verify(signed(&other_view, 0..quorum, p)),
                "{at}: quorum under another view's keys"
            );
        }
    }
}

/// The explicit signer-list layout: `u32` LE count, then per entry a `u64`
/// LE signer, the signature's backend tag byte and its 64 bytes.
fn signer_list(signers: &[(usize, Signature)], tag: u8) -> Vec<u8> {
    let mut out = (signers.len() as u32).to_le_bytes().to_vec();
    for (signer, signature) in signers {
        out.extend_from_slice(&(*signer as u64).to_le_bytes());
        out.push(tag);
        out.extend_from_slice(signature.as_bytes());
    }
    out
}

fn sig_bytes(signature: &Signature, tag: u8) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(signature.as_bytes());
    out
}

/// `value` encodes to exactly `expected`, `encoded_len` agrees, and the
/// bytes decode back to `value`.
fn assert_wire<T: Encode + Decode + PartialEq + Debug>(name: &str, value: &T, expected: &[u8]) {
    assert_eq!(value.to_vec(), expected, "{name}: encoding");
    assert_eq!(value.encoded_len(), expected.len(), "{name}: encoded_len");
    assert_eq!(&from_bytes::<T>(expected).unwrap(), value, "{name}: decode");
}

const SIM_TAG: u8 = 1;
const ED25519_TAG: u8 = 0;

#[test]
fn certificates_and_signed_messages_match_their_explicit_layout() {
    let keys = secrets(7, 3);
    let signers = signed(&keys, [0, 2, 6, 3, 5], b"any payload");
    let list = signer_list(&signers, SIM_TAG);

    let proof = DecisionProof {
        instance: 0x0102_0304_0506_0708,
        epoch: 0x0a0b_0c0d,
        value_hash: HASH,
        accepts: signers.clone(),
    };
    let head = [
        &0x0102_0304_0506_0708u64.to_le_bytes()[..],
        &0x0a0b_0c0du32.to_le_bytes(),
        &HASH,
    ]
    .concat();
    assert_wire("DecisionProof", &proof, &[&head[..], &list].concat());
    let write_cert = WriteCertificate {
        instance: proof.instance,
        epoch: proof.epoch,
        value_hash: HASH,
        writes: signers.clone(),
    };
    assert_wire(
        "WriteCertificate",
        &write_cert,
        &[&head[..], &list].concat(),
    );

    let ckpt = CheckpointCert {
        covered: 77,
        state_root: [4; 32],
        tip: HASH,
        signatures: signers.clone(),
    };
    let ckpt_bytes = [&77u64.to_le_bytes()[..], &[4; 32], &HASH, &list].concat();
    assert_wire("CheckpointCert", &ckpt, &ckpt_bytes);

    let block_cert = Certificate {
        signatures: signers.clone(),
    };
    assert_wire("block::Certificate", &block_cert, &list);
    assert_wire("empty block::Certificate", &Certificate::default(), &[0; 4]);

    let signature = signers[0].1;
    let write = ConsensusMsg::Write {
        instance: 9,
        epoch: 2,
        value_hash: HASH,
        signature,
    };
    let write_bytes = [
        &[1u8][..],
        &9u64.to_le_bytes(),
        &2u32.to_le_bytes(),
        &HASH,
        &sig_bytes(&signature, SIM_TAG),
    ]
    .concat();
    assert_wire("ConsensusMsg::Write", &write, &write_bytes);

    let share = SmrMsg::CkptShare {
        replica: 3,
        covered: 77,
        state_root: [4; 32],
        tip: HASH,
        signature,
    };
    let share_bytes = [
        &[6u8][..],
        &3u64.to_le_bytes(),
        &77u64.to_le_bytes(),
        &[4; 32],
        &HASH,
        &sig_bytes(&signature, SIM_TAG),
    ]
    .concat();
    assert_eq!(share.to_vec(), share_bytes, "SmrMsg::CkptShare: encoding");
    assert_eq!(
        share.encoded_len(),
        share_bytes.len(),
        "SmrMsg::CkptShare: encoded_len"
    );

    let client = SecretKey::from_seed(Backend::Ed25519, &[8; 32]);
    let payload = vec![0xab, 0xcd, 0xef];
    let request_sig = client.sign(&Request::sign_payload(41, 6, &payload));
    let request = Request {
        client: 41,
        seq: 6,
        payload: payload.clone(),
        signature: Some((client.public_key(), request_sig)),
    };
    assert!(request.verify_signature());
    let request_bytes = [
        &41u64.to_le_bytes()[..],
        &6u64.to_le_bytes(),
        &3u32.to_le_bytes(),
        &payload,
        &[1],
        &[ED25519_TAG],
        client.public_key().as_bytes(),
        &sig_bytes(&request_sig, ED25519_TAG),
    ]
    .concat();
    assert_wire("signed Request", &request, &request_bytes);
    assert_eq!(
        request_bytes.len(),
        8 + 8 + 4 + payload.len() + 1 + 33 + 65,
        "a key is 33 bytes and a signature 65"
    );
}
