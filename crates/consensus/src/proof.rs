//! Decision proofs: quorums of signed ACCEPT (or WRITE) messages.
//!
//! Every value decided by VP-Consensus comes with a proof that a Byzantine
//! quorum committed to it. The blockchain layer stores these proofs next to
//! each batch (Algorithm 1, line 18), which is what makes a *single* correct
//! replica's log sufficient evidence of the committed history.

use crate::messages::accept_sign_payload;
use crate::{ReplicaId, View};
use smartchain_codec::{codec_struct, Encode};
use smartchain_crypto::keys::{PublicKey, Signature};
use smartchain_crypto::Hash;

/// Canonical bytes a replica signs in a WRITE message.
pub fn write_sign_payload(instance: u64, epoch: u32, value_hash: &Hash) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 32 + 8);
    b"sc-write".as_slice().encode(&mut out);
    instance.encode(&mut out);
    epoch.encode(&mut out);
    value_hash.encode(&mut out);
    out
}

/// A quorum of signed ACCEPTs for one `(instance, epoch, value_hash)`.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionProof {
    /// Consensus instance this proof belongs to.
    pub instance: u64,
    /// Epoch in which the decision happened.
    pub epoch: u32,
    /// Hash of the decided value.
    pub value_hash: Hash,
    /// `(signer, signature)` pairs; valid proofs have ≥ quorum distinct
    /// signers from the view.
    pub accepts: Vec<(ReplicaId, Signature)>,
}

/// The one quorum rule every certificate shares — decision proofs, write
/// certificates, checkpoint certificates and PERSIST certificates: valid
/// when at least `quorum` distinct signers below `n` signed `payload`, each
/// signature checking under `key(signer)`. A signer outside the view, a
/// repeated signer or one bad signature rejects the whole certificate.
/// `key` is only called with ids below `n`.
pub fn verify_quorum<'k>(
    signers: &[(ReplicaId, Signature)],
    payload: &[u8],
    key: impl Fn(ReplicaId) -> &'k PublicKey,
    n: usize,
    quorum: usize,
) -> bool {
    let mut seen = vec![false; n];
    for &(signer, ref signature) in signers {
        if signer >= n || seen[signer] || !key(signer).verify(payload, signature) {
            return false;
        }
        seen[signer] = true;
    }
    signers.len() >= quorum
}

impl DecisionProof {
    /// Checks the proof against `view` by [`verify_quorum`] over the
    /// canonical accept payload.
    pub fn verify(&self, view: &View) -> bool {
        let payload = accept_sign_payload(self.instance, self.epoch, &self.value_hash);
        verify_quorum(
            &self.accepts,
            &payload,
            |i| &view.members[i],
            view.n(),
            view.quorum(),
        )
    }

    /// Wire size (for the simulator and for block storage accounting) —
    /// the canonical encoding's exact length.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

codec_struct!(DecisionProof {
    instance,
    epoch,
    value_hash,
    accepts
});

/// A quorum of signed WRITEs — carried in STOPDATA during leader changes to
/// justify a replica's locked value.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteCertificate {
    /// Consensus instance.
    pub instance: u64,
    /// Epoch the writes happened in.
    pub epoch: u32,
    /// Hash of the certified value.
    pub value_hash: Hash,
    /// `(signer, signature)` pairs over the canonical write payload.
    pub writes: Vec<(ReplicaId, Signature)>,
}

impl WriteCertificate {
    /// Checks the certificate against `view` by [`verify_quorum`] over the
    /// canonical write payload.
    pub fn verify(&self, view: &View) -> bool {
        let payload = write_sign_payload(self.instance, self.epoch, &self.value_hash);
        verify_quorum(
            &self.writes,
            &payload,
            |i| &view.members[i],
            view.n(),
            view.quorum(),
        )
    }
}

codec_struct!(WriteCertificate {
    instance,
    epoch,
    value_hash,
    writes
});

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_crypto::keys::{Backend, SecretKey};

    fn keys(n: usize) -> (Vec<SecretKey>, View) {
        let secrets: Vec<SecretKey> = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 10; 32]))
            .collect();
        let view = View {
            id: 0,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        (secrets, view)
    }

    fn proof(secrets: &[SecretKey], signers: &[usize], h: Hash) -> DecisionProof {
        let payload = accept_sign_payload(5, 0, &h);
        DecisionProof {
            instance: 5,
            epoch: 0,
            value_hash: h,
            accepts: signers
                .iter()
                .map(|&r| (r, secrets[r].sign(&payload)))
                .collect(),
        }
    }

    #[test]
    fn quorum_proof_verifies() {
        let (secrets, view) = keys(4);
        assert!(proof(&secrets, &[0, 1, 2], [9u8; 32]).verify(&view));
        assert!(proof(&secrets, &[0, 1, 2, 3], [9u8; 32]).verify(&view));
    }

    #[test]
    fn subquorum_proof_rejected() {
        let (secrets, view) = keys(4);
        assert!(!proof(&secrets, &[0, 1], [9u8; 32]).verify(&view));
    }

    #[test]
    fn duplicate_signer_rejected() {
        let (secrets, view) = keys(4);
        let mut p = proof(&secrets, &[0, 1], [9u8; 32]);
        p.accepts.push(p.accepts[0]);
        assert!(!p.verify(&view));
    }

    #[test]
    fn wrong_signer_index_rejected() {
        let (secrets, view) = keys(4);
        let mut p = proof(&secrets, &[0, 1, 2], [9u8; 32]);
        // Signature from replica 2 attributed to replica 3.
        p.accepts[2].0 = 3;
        assert!(!p.verify(&view));
    }

    #[test]
    fn out_of_view_signer_rejected() {
        let (secrets, view) = keys(4);
        let mut p = proof(&secrets, &[0, 1, 2], [9u8; 32]);
        p.accepts[0].0 = 11;
        assert!(!p.verify(&view));
    }

    #[test]
    fn proof_does_not_verify_in_other_view() {
        let (secrets, _) = keys(4);
        let (_, other_view) = keys_with_offset(4, 99);
        assert!(!proof(&secrets, &[0, 1, 2], [9u8; 32]).verify(&other_view));
    }

    fn keys_with_offset(n: usize, offset: u8) -> (Vec<SecretKey>, View) {
        let secrets: Vec<SecretKey> = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + offset; 32]))
            .collect();
        let view = View {
            id: 1,
            members: secrets.iter().map(|s| s.public_key()).collect(),
        };
        (secrets, view)
    }

    #[test]
    fn proof_codec_roundtrip() {
        let (secrets, _) = keys(4);
        let p = proof(&secrets, &[0, 1, 2], [3u8; 32]);
        let bytes = smartchain_codec::to_bytes(&p);
        let back: DecisionProof = smartchain_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn write_certificate_verifies() {
        let (secrets, view) = keys(4);
        let h = [4u8; 32];
        let payload = write_sign_payload(2, 1, &h);
        let cert = WriteCertificate {
            instance: 2,
            epoch: 1,
            value_hash: h,
            writes: (0..3).map(|r| (r, secrets[r].sign(&payload))).collect(),
        };
        assert!(cert.verify(&view));
        // Accept signatures are domain-separated from write signatures.
        let wrong_domain = WriteCertificate {
            writes: (0..3)
                .map(|r| (r, secrets[r].sign(&accept_sign_payload(2, 1, &h))))
                .collect(),
            ..cert
        };
        assert!(!wrong_domain.verify(&view));
    }
}

#[cfg(test)]
mod wire_len_tests {
    use super::*;
    use smartchain_crypto::keys::{Backend, SecretKey};

    #[test]
    fn len_matches_encoding() {
        let sk = SecretKey::from_seed(Backend::Sim, &[4u8; 32]);
        let proof = DecisionProof {
            instance: 9,
            epoch: 2,
            value_hash: [6u8; 32],
            accepts: vec![(0, sk.sign(b"a")), (2, sk.sign(b"b"))],
        };
        assert_eq!(proof.encoded_len(), proof.to_vec().len());
        assert_eq!(proof.wire_size(), proof.to_vec().len());
    }
}
