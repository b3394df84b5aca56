//! Unified signing API over the two backends:
//!
//! * [`Backend::Ed25519`] — the real RFC 8032 implementation in
//!   [`crate::ed25519`]; cryptographically sound, the only backend a
//!   multi-process deployment may use (sign 27 µs, verify 62 µs on a
//!   310-byte message).
//! * [`Backend::Sim`] — a registry-backed keyed-hash scheme
//!   ([`crate::sim_signer`]); sound *within a single-process simulation*
//!   (forgery requires reading the process-global registry, which simulated
//!   adversaries never do) and two orders of magnitude faster (0.35 / 0.4 µs).
//!   Large parameter sweeps use this backend while the simulator's cost model
//!   charges realistic virtual time for every operation.

use crate::ed25519;
use crate::sim_signer;
use smartchain_codec::{Decode, DecodeError, Encode};

/// Which signature scheme a key belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Real Ed25519 (RFC 8032).
    Ed25519,
    /// Registry-backed simulation signer.
    Sim,
}

/// A public key (32 bytes plus a backend tag).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey {
    backend_tag: u8,
    bytes: [u8; 32],
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({}…)", &crate::hex(&self.bytes)[..12])
    }
}

impl std::fmt::Display for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", crate::hex(&self.bytes))
    }
}

impl PublicKey {
    const TAG_ED25519: u8 = 0;
    const TAG_SIM: u8 = 1;

    /// The backend this key belongs to.
    pub fn backend(&self) -> Backend {
        if self.backend_tag == Self::TAG_ED25519 {
            Backend::Ed25519
        } else {
            Backend::Sim
        }
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Serializes to 33 bytes (tag || key).
    pub fn to_wire(&self) -> [u8; 33] {
        let mut out = [0u8; 33];
        out[0] = self.backend_tag;
        out[1..].copy_from_slice(&self.bytes);
        out
    }

    /// Parses the 33-byte wire form.
    pub fn from_wire(wire: &[u8; 33]) -> PublicKey {
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(&wire[1..]);
        PublicKey {
            backend_tag: wire[0],
            bytes,
        }
    }

    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.backend_tag != self.backend_tag {
            return false;
        }
        match self.backend() {
            Backend::Ed25519 => {
                let mut s = [0u8; 64];
                s.copy_from_slice(&sig.bytes);
                ed25519::verify(&self.bytes, msg, &s)
            }
            Backend::Sim => sim_signer::verify(&self.bytes, msg, &sig.bytes),
        }
    }
}

/// A signature (64 bytes plus a backend tag).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    backend_tag: u8,
    bytes: [u8; 64],
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({}…)", &crate::hex(&self.bytes)[..12])
    }
}

impl Signature {
    /// Raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.bytes
    }

    /// Serializes to 65 bytes (tag || sig).
    pub fn to_wire(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[0] = self.backend_tag;
        out[1..].copy_from_slice(&self.bytes);
        out
    }

    /// Parses the 65-byte wire form.
    pub fn from_wire(wire: &[u8; 65]) -> Signature {
        let mut bytes = [0u8; 64];
        bytes.copy_from_slice(&wire[1..]);
        Signature {
            backend_tag: wire[0],
            bytes,
        }
    }
}

/// The canonical wire form of keys and signatures, the same bytes as
/// `to_wire`: the backend tag, then the raw bytes. Any tag decodes; a key
/// whose tag names no backend verifies only signatures with the same tag.
macro_rules! impl_tagged_codec {
    ($($ty:ident: $len:literal),*) => {$(
        impl $ty {
            /// Bytes of the wire form: the backend tag, then the raw bytes.
            pub const WIRE_LEN: usize = 1 + $len;
        }
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.backend_tag);
                out.extend_from_slice(&self.bytes);
            }
            fn encoded_len(&self) -> usize {
                Self::WIRE_LEN
            }
        }
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok($ty {
                    backend_tag: u8::decode(input)?,
                    bytes: <[u8; $len]>::decode(input)?,
                })
            }
        }
    )*};
}

impl_tagged_codec!(PublicKey: 32, Signature: 64);

/// A secret (signing) key.
#[derive(Clone)]
pub enum SecretKey {
    /// Real Ed25519 signing key.
    Ed25519(Box<ed25519::SigningKey>),
    /// Simulation signer secret.
    Sim(sim_signer::SimSecret),
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretKey")
            .field("public", &self.public_key())
            .finish_non_exhaustive()
    }
}

impl SecretKey {
    /// Deterministically derives a key of the given backend from a seed.
    pub fn from_seed(backend: Backend, seed: &[u8; 32]) -> SecretKey {
        match backend {
            Backend::Ed25519 => SecretKey::Ed25519(Box::new(ed25519::SigningKey::from_seed(seed))),
            Backend::Sim => SecretKey::Sim(sim_signer::SimSecret::from_seed(seed)),
        }
    }

    /// Generates a fresh key from caller-provided entropy: `fill` receives a
    /// zeroed 32-byte seed buffer and must fill it with OS/user randomness.
    pub fn generate(backend: Backend, fill: impl FnOnce(&mut [u8; 32])) -> SecretKey {
        let mut seed = [0u8; 32];
        fill(&mut seed);
        SecretKey::from_seed(backend, &seed)
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        match self {
            SecretKey::Ed25519(k) => PublicKey {
                backend_tag: PublicKey::TAG_ED25519,
                bytes: k.public_key(),
            },
            SecretKey::Sim(k) => PublicKey {
                backend_tag: PublicKey::TAG_SIM,
                bytes: k.public_key(),
            },
        }
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        match self {
            SecretKey::Ed25519(k) => Signature {
                backend_tag: PublicKey::TAG_ED25519,
                bytes: k.sign(msg),
            },
            SecretKey::Sim(k) => Signature {
                backend_tag: PublicKey::TAG_SIM,
                bytes: k.sign(msg),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_roundtrip() {
        for backend in [Backend::Ed25519, Backend::Sim] {
            let sk = SecretKey::from_seed(backend, &[42u8; 32]);
            let pk = sk.public_key();
            let sig = sk.sign(b"hello");
            assert!(pk.verify(b"hello", &sig), "{backend:?}");
            assert!(!pk.verify(b"goodbye", &sig), "{backend:?}");
        }
    }

    #[test]
    fn backends_do_not_cross_verify() {
        let ed = SecretKey::from_seed(Backend::Ed25519, &[1u8; 32]);
        let sim = SecretKey::from_seed(Backend::Sim, &[1u8; 32]);
        let sig = ed.sign(b"m");
        assert!(!sim.public_key().verify(b"m", &sig));
    }

    #[test]
    fn wire_roundtrip() {
        let sk = SecretKey::from_seed(Backend::Sim, &[3u8; 32]);
        let pk = sk.public_key();
        let sig = sk.sign(b"m");
        assert_eq!(PublicKey::from_wire(&pk.to_wire()), pk);
        assert_eq!(Signature::from_wire(&sig.to_wire()), sig);
    }

    #[test]
    fn codec_matches_wire_form_for_every_tag() {
        let sk = SecretKey::from_seed(Backend::Sim, &[3u8; 32]);
        let (pk, sig) = (sk.public_key(), sk.sign(b"m"));
        assert_eq!(pk.to_vec(), pk.to_wire());
        assert_eq!(sig.to_vec(), sig.to_wire());
        assert_eq!((pk.encoded_len(), sig.encoded_len()), (33, 65));
        for tag in [0u8, 1, 7, 255] {
            let mut wire = pk.to_wire();
            wire[0] = tag;
            let decoded: PublicKey = smartchain_codec::from_bytes(&wire).unwrap();
            assert_eq!(decoded, PublicKey::from_wire(&wire));
            let mut wire = sig.to_wire();
            wire[0] = tag;
            let decoded: Signature = smartchain_codec::from_bytes(&wire).unwrap();
            assert_eq!(decoded, Signature::from_wire(&wire));
        }
        assert!(smartchain_codec::from_bytes::<Signature>(&sig.to_wire()[..64]).is_err());
    }

    #[test]
    fn deterministic_derivation() {
        let a = SecretKey::from_seed(Backend::Ed25519, &[9u8; 32]);
        let b = SecretKey::from_seed(Backend::Ed25519, &[9u8; 32]);
        assert_eq!(a.public_key(), b.public_key());
    }
}
