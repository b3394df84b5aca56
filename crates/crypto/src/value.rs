//! Shared, hash-memoized value bytes — the zero-copy handle for decided
//! consensus values.
//!
//! A decided value is touched by many stages — ordering, delivery
//! buffering, repair replies, view-change lock vectors, durable logging —
//! and historically each stage deep-cloned the bytes and recomputed
//! `sha256(value)`. [`ValueBytes`] wraps the bytes in an `Arc` so every
//! stage shares one allocation, and memoizes the digest so it is computed
//! at most once per allocation no matter how many paths ask for it.
//!
//! The wire encoding is byte-identical to `Vec<u8>` (u32 length prefix +
//! raw bytes), so swapping a message field from `Vec<u8>` to `ValueBytes`
//! changes nothing on the wire — simulator NIC models and seed pins are
//! unaffected.
//!
//! [`hashes_computed`] exposes a process-wide counter of *actual* digest
//! computations (memoized hits don't count), which is what lets tests and
//! `bench_check` assert the hash-once invariant instead of trusting it.

use crate::{sha256, Hash};
use smartchain_codec::{Decode, DecodeError, Encode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide count of real SHA-256 value digests (memo misses).
static HASHES_COMPUTED: AtomicU64 = AtomicU64::new(0);

/// Total `sha256(value)` computations performed through [`ValueBytes::hash`]
/// since process start. Memoized lookups do not increment it; the
/// hash-per-decision gates in `bench_check` are deltas of this counter.
pub fn hashes_computed() -> u64 {
    HASHES_COMPUTED.load(Ordering::Relaxed)
}

struct Inner {
    bytes: Vec<u8>,
    hash: OnceLock<Hash>,
}

/// Immutable, reference-counted value bytes with a memoized SHA-256 digest.
///
/// Cloning is an `Arc` bump; equality compares the underlying bytes.
#[derive(Clone)]
pub struct ValueBytes(Arc<Inner>);

impl ValueBytes {
    /// Wraps `bytes` in a fresh shared handle (digest not yet computed).
    pub fn new(bytes: Vec<u8>) -> ValueBytes {
        ValueBytes(Arc::new(Inner {
            bytes,
            hash: OnceLock::new(),
        }))
    }

    /// SHA-256 of the bytes, computed on first call and memoized for the
    /// lifetime of the allocation (all clones share the memo).
    pub fn hash(&self) -> Hash {
        *self.0.hash.get_or_init(|| {
            HASHES_COMPUTED.fetch_add(1, Ordering::Relaxed);
            sha256::digest(&self.0.bytes)
        })
    }

    /// The raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0.bytes
    }

    /// Length of the raw bytes.
    pub fn len(&self) -> usize {
        self.0.bytes.len()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.bytes.is_empty()
    }

    /// An owned copy of the bytes (allocates; off the hot path only).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.bytes.clone()
    }
}

impl std::ops::Deref for ValueBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl AsRef<[u8]> for ValueBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl From<Vec<u8>> for ValueBytes {
    fn from(bytes: Vec<u8>) -> ValueBytes {
        ValueBytes::new(bytes)
    }
}

impl From<&[u8]> for ValueBytes {
    fn from(bytes: &[u8]) -> ValueBytes {
        ValueBytes::new(bytes.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for ValueBytes {
    fn from(bytes: &[u8; N]) -> ValueBytes {
        ValueBytes::new(bytes.to_vec())
    }
}

impl PartialEq for ValueBytes {
    fn eq(&self, other: &ValueBytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.bytes == other.0.bytes
    }
}

impl Eq for ValueBytes {}

impl PartialEq<[u8]> for ValueBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.0.bytes == other
    }
}

impl PartialEq<Vec<u8>> for ValueBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.0.bytes == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for ValueBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.0.bytes == *other
    }
}

impl std::fmt::Debug for ValueBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ValueBytes({} bytes)", self.0.bytes.len())
    }
}

impl Encode for ValueBytes {
    fn encode(&self, out: &mut Vec<u8>) {
        // Byte-identical to the Vec<u8> encoding.
        self.0.bytes.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.bytes.encoded_len()
    }
}

impl Decode for ValueBytes {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ValueBytes::new(Vec::<u8>::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_codec::{from_bytes, to_bytes};

    #[test]
    fn wire_identical_to_vec() {
        let raw = vec![1u8, 2, 3, 4, 5];
        let vb = ValueBytes::new(raw.clone());
        assert_eq!(to_bytes(&vb), to_bytes(&raw));
        assert_eq!(vb.encoded_len(), raw.encoded_len());
        let back: ValueBytes = from_bytes(&to_bytes(&raw)).unwrap();
        assert_eq!(back, raw);
    }

    #[test]
    fn hash_computed_once_per_allocation() {
        let vb = ValueBytes::new(vec![9u8; 1024]);
        let before = hashes_computed();
        let h1 = vb.hash();
        let clone = vb.clone();
        let h2 = clone.hash();
        assert_eq!(h1, h2);
        assert_eq!(h1, sha256::digest(&vec![9u8; 1024]));
        assert_eq!(
            hashes_computed() - before,
            1,
            "clones share the memoized digest"
        );
    }

    #[test]
    fn equality_compares_bytes() {
        let a = ValueBytes::new(vec![1, 2, 3]);
        let b = ValueBytes::new(vec![1, 2, 3]);
        let c = ValueBytes::new(vec![4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, b"\x01\x02\x03");
    }
}
