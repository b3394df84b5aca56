//! Per-view consensus keys and the forgetting protocol (paper §V-D).
//!
//! Every replica holds a *permanent* keypair (its long-term identity) and a
//! *consensus* keypair that is regenerated for every view it participates in.
//! Consensus public keys are certified by the permanent key and published in
//! reconfiguration blocks; the private halves are **destroyed on view
//! change**, so a node compromised after leaving the consortium cannot vouch
//! for blocks in views it used to belong to — the mechanism that prevents the
//! Figure-4 fork.

use smartchain_codec::{codec_struct, signing_bytes};
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey, Signature};
use smartchain_crypto::sha256;

/// Canonical bytes certified when a permanent key vouches for a consensus
/// key in a given view.
pub fn key_cert_payload(view_id: u64, consensus_key: &PublicKey) -> Vec<u8> {
    signing_bytes(b"sc-viewkey", (view_id, consensus_key))
}

/// A consensus public key certified by its owner's permanent key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CertifiedKey {
    /// The owner's permanent public key.
    pub permanent: PublicKey,
    /// The consensus public key for the view.
    pub consensus: PublicKey,
    /// Signature by `permanent` over [`key_cert_payload`].
    pub cert: Signature,
}

impl CertifiedKey {
    /// Validates the certification for `view_id`.
    pub fn verify(&self, view_id: u64) -> bool {
        self.permanent
            .verify(&key_cert_payload(view_id, &self.consensus), &self.cert)
    }
}

codec_struct!(CertifiedKey {
    permanent,
    consensus,
    cert
});

/// A replica's key material: the permanent identity plus the consensus key of
/// the current view. Old consensus secrets are destroyed on rotation.
pub struct KeyStore {
    permanent: SecretKey,
    backend: Backend,
    view_id: u64,
    consensus: SecretKey,
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            .field("permanent", &self.permanent.public_key())
            .field("view_id", &self.view_id)
            .finish_non_exhaustive()
    }
}

impl KeyStore {
    /// Creates a key store from a permanent secret, deriving the view-0
    /// consensus key.
    pub fn new(permanent: SecretKey, backend: Backend) -> KeyStore {
        let consensus = Self::derive(&permanent, backend, 0);
        KeyStore {
            permanent,
            backend,
            view_id: 0,
            consensus,
        }
    }

    fn derive(permanent: &SecretKey, backend: Backend, view_id: u64) -> SecretKey {
        // Deterministic per-(identity, view) derivation keeps simulations
        // reproducible. Real deployments may use fresh randomness — the
        // protocol only requires that old secrets are destroyed.
        let pk = permanent.public_key();
        let mut seed_input = Vec::new();
        seed_input.extend_from_slice(b"sc-consensus-key");
        seed_input.extend_from_slice(pk.as_bytes());
        seed_input.extend_from_slice(&view_id.to_le_bytes());
        // Sign to bind the derivation to the *secret* (public inputs alone
        // would let anyone derive the key).
        let sig = permanent.sign(&seed_input);
        let seed = sha256::digest(sig.as_bytes());
        SecretKey::from_seed(backend, &seed)
    }

    /// The permanent public identity.
    pub fn permanent_public(&self) -> PublicKey {
        self.permanent.public_key()
    }

    /// The permanent secret (for reconfiguration votes).
    pub fn permanent(&self) -> &SecretKey {
        &self.permanent
    }

    /// The view this store currently holds a consensus key for.
    pub fn view_id(&self) -> u64 {
        self.view_id
    }

    /// The current consensus secret key.
    pub fn consensus(&self) -> &SecretKey {
        &self.consensus
    }

    /// Certified public consensus key for `view_id` (current or precomputed
    /// next view during reconfiguration voting).
    pub fn certified_key_for(&self, view_id: u64) -> CertifiedKey {
        let consensus = if view_id == self.view_id {
            self.consensus.clone()
        } else {
            Self::derive(&self.permanent, self.backend, view_id)
        };
        let consensus_pub = consensus.public_key();
        let cert = self
            .permanent
            .sign(&key_cert_payload(view_id, &consensus_pub));
        CertifiedKey {
            permanent: self.permanent.public_key(),
            consensus: consensus_pub,
            cert,
        }
    }

    /// Rotates to `view_id`: derives the new consensus key and **destroys**
    /// the previous one (the forgetting protocol). Rotating backwards is a
    /// no-op — old keys cannot be resurrected.
    pub fn rotate_to(&mut self, view_id: u64) {
        if view_id <= self.view_id {
            return;
        }
        let next = Self::derive(&self.permanent, self.backend, view_id);
        // Overwrite: the old secret is dropped here and cannot be rebuilt
        // without the permanent secret *and* this code path (which refuses
        // to go backwards).
        self.consensus = next;
        self.view_id = view_id;
    }

    /// TEST/ATTACK USE ONLY: re-derives an old view's consensus secret,
    /// modelling an adversary that compromised a machine which *failed to
    /// run the forgetting protocol*. The fork-prevention tests use this to
    /// show the attack works without rotation and fails with it.
    #[doc(hidden)]
    pub fn leak_old_key_for_attack(&self, view_id: u64) -> SecretKey {
        Self::derive(&self.permanent, self.backend, view_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(seed: u8) -> KeyStore {
        KeyStore::new(
            SecretKey::from_seed(Backend::Sim, &[seed; 32]),
            Backend::Sim,
        )
    }

    #[test]
    fn certified_key_verifies() {
        let ks = store(1);
        let ck = ks.certified_key_for(0);
        assert!(ck.verify(0));
        assert!(!ck.verify(1), "cert is view-specific");
    }

    #[test]
    fn rotation_changes_key_and_is_deterministic() {
        let mut a = store(2);
        let mut b = store(2);
        let k0 = a.consensus().public_key();
        a.rotate_to(1);
        b.rotate_to(1);
        assert_ne!(a.consensus().public_key(), k0);
        assert_eq!(a.consensus().public_key(), b.consensus().public_key());
    }

    #[test]
    fn rotation_never_goes_backwards() {
        let mut ks = store(3);
        ks.rotate_to(5);
        let k5 = ks.consensus().public_key();
        ks.rotate_to(2);
        assert_eq!(ks.consensus().public_key(), k5);
        assert_eq!(ks.view_id(), 5);
    }

    #[test]
    fn different_identities_different_keys() {
        let a = store(4);
        let b = store(5);
        assert_ne!(
            a.certified_key_for(0).consensus,
            b.certified_key_for(0).consensus
        );
    }

    #[test]
    fn codec_roundtrip() {
        let ck = store(6).certified_key_for(3);
        let bytes = smartchain_codec::to_bytes(&ck);
        let back: CertifiedKey = smartchain_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        assert!(back.verify(3));
    }

    #[test]
    fn forged_cert_rejected() {
        let a = store(7);
        let b = store(8);
        let mut ck = a.certified_key_for(0);
        // Swap in another node's permanent key: cert no longer matches.
        ck.permanent = b.permanent_public();
        assert!(!ck.verify(0));
    }
}
