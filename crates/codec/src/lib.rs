//! Deterministic binary encoding for SmartChain.
//!
//! Blocks are hashed, signed, and persisted; all three require a *canonical*
//! byte representation — two replicas encoding the same logical value must
//! produce identical bytes. This module provides a small, explicit codec:
//! fixed-width little-endian integers, `u32`-length-prefixed byte strings and
//! sequences, and manual [`Encode`]/[`Decode`] implementations for every wire
//! type (no derive magic, no implicit versioning).
//!
//! # Examples
//!
//! ```
//! use smartchain_codec::{Decode, Encode};
//!
//! let value = (42u64, String::from("genesis"), vec![1u8, 2, 3]);
//! let bytes = smartchain_codec::to_bytes(&value);
//! let back: (u64, String, Vec<u8>) = smartchain_codec::from_bytes(&bytes)?;
//! assert_eq!(value, back);
//! # Ok::<(), smartchain_codec::DecodeError>(())
//! ```

/// Error returned when decoding malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input (or a sanity limit).
    BadLength(u64),
    /// An enum discriminant was not recognized.
    BadDiscriminant(u32),
    /// Bytes were not valid UTF-8 where a string was expected.
    BadUtf8,
    /// Input had trailing garbage after a complete value.
    TrailingBytes(usize),
    /// A domain-specific invariant failed during decoding.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadLength(n) => write!(f, "length prefix {n} exceeds remaining input"),
            DecodeError::BadDiscriminant(d) => write!(f, "unknown discriminant {d}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A value with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Exact length of the canonical encoding in bytes.
    ///
    /// This is the single source of truth for wire sizes: simulator NIC
    /// models derive message sizes from it instead of keeping hand-rolled
    /// per-variant estimates in sync with the encoders. The default
    /// materializes the encoding; cheap types override it.
    fn encoded_len(&self) -> usize {
        self.to_vec().len()
    }
}

/// Exact encoded length of `value` (see [`Encode::encoded_len`]).
pub fn encoded_len<T: Encode + ?Sized>(value: &T) -> usize {
    value.encoded_len()
}

/// Per-message transport framing (length prefix + type/auth overhead) that
/// the simulator's NIC model charges on top of [`Encode::encoded_len`].
/// One shared constant so every message enum's `wire_size` is
/// `FRAME_BYTES + encoded_len` — no per-variant hand-rolled estimates.
pub const FRAME_BYTES: usize = 8;

/// A value that can be decoded from its canonical encoding.
pub trait Decode: Sized {
    /// Reads a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Encodes any [`Encode`] value into a fresh buffer.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    value.to_vec()
}

/// Decodes a value and requires the input to be fully consumed.
///
/// # Errors
///
/// Returns [`DecodeError::TrailingBytes`] when the input is longer than one
/// encoded value, plus any error from the value's own decoder.
pub fn from_bytes<T: Decode>(mut input: &[u8]) -> Result<T, DecodeError> {
    let value = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(DecodeError::TrailingBytes(input.len()));
    }
    Ok(value)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::UnexpectedEnd);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! impl_int {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let bytes = take(input, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized read")))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::BadDiscriminant(other as u32)),
        }
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for usize {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| DecodeError::BadLength(v))
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = take(input, N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

/// Shared values encode exactly like the value they point at, so swapping a
/// field from `T` to `Arc<T>` never changes the wire format. `Decode`
/// allocates a fresh `Arc`; sharing across decoded messages is established
/// by the layers that hold the handles, not by the codec.
impl<T: Encode + ?Sized> Encode for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Decode> Decode for std::sync::Arc<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(std::sync::Arc::new(T::decode(input)?))
    }
}

/// Encodes `value` once into a reference-counted buffer that can be fanned
/// out to many consumers (e.g. one frame body shared by every peer's write
/// queue) without further copies.
pub fn to_shared_bytes<T: Encode + ?Sized>(value: &T) -> std::sync::Arc<[u8]> {
    value.to_vec().into()
}

/// An empty vector for a sequence whose prefix claims `len` elements,
/// reserving no more memory than `input` has bytes: a small, hostile input
/// claiming many large elements must not make the decoder reserve
/// `len × size_of::<T>()` before the first element fails to decode.
/// Sequences whose elements take at least `size_of::<T>()` bytes on the
/// wire still get their whole capacity up front; others grow as they
/// decode.
fn seq_with_capacity<T>(len: usize, input: &[u8]) -> Vec<T> {
    Vec::with_capacity(len.min(input.len() / std::mem::size_of::<T>().max(1)))
}

fn decode_len(input: &mut &[u8]) -> Result<usize, DecodeError> {
    let len = u32::decode(input)? as usize;
    if len > input.len() {
        return Err(DecodeError::BadLength(len as u64));
    }
    Ok(len)
}

impl Encode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for Vec<u8> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = decode_len(input)?;
        Ok(take(input, len)?.to_vec())
    }
}

impl Encode for [u8] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = Vec::<u8>::decode(input)?;
        String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Sequences of encodable values (length-prefixed).
///
/// Note the deliberate absence of a blanket `Vec<u8>` conflict: byte vectors
/// use the compact raw encoding above, while `Vec<T>` for structured `T`
/// encodes each element in turn.
macro_rules! impl_vec_like {
    ($($ty:ty),*) => {$(
        impl Encode for Vec<$ty> {
            fn encode(&self, out: &mut Vec<u8>) {
                (self.len() as u32).encode(out);
                for item in self {
                    item.encode(out);
                }
            }
            fn encoded_len(&self) -> usize {
                4 + self.iter().map(Encode::encoded_len).sum::<usize>()
            }
        }
        impl Decode for Vec<$ty> {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let len = u32::decode(input)? as usize;
                // Each element takes at least one byte.
                if len > input.len() {
                    return Err(DecodeError::BadLength(len as u64));
                }
                let mut out = seq_with_capacity(len, input);
                for _ in 0..len {
                    out.push(<$ty>::decode(input)?);
                }
                Ok(out)
            }
        }
    )*};
}

impl_vec_like!(u16, u32, u64, String);

/// Generic helpers for encoding sequences of structured values, avoiding
/// coherence clashes with the specialized `Vec<u8>` impl.
pub fn encode_seq<T: Encode>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Encoded length of a sequence written by [`encode_seq`].
pub fn seq_encoded_len<T: Encode>(items: &[T]) -> usize {
    4 + items.iter().map(Encode::encoded_len).sum::<usize>()
}

/// Decodes a sequence written by [`encode_seq`].
///
/// # Errors
///
/// Propagates element decode errors and rejects length prefixes larger than
/// the remaining input.
pub fn decode_seq<T: Decode>(input: &mut &[u8]) -> Result<Vec<T>, DecodeError> {
    let len = u32::decode(input)? as usize;
    if len > input.len() {
        return Err(DecodeError::BadLength(len as u64));
    }
    let mut out = seq_with_capacity(len, input);
    for _ in 0..len {
        out.push(T::decode(input)?);
    }
    Ok(out)
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(DecodeError::BadDiscriminant(other as u32)),
        }
    }
}

macro_rules! impl_tuple {
    ($($name:ident),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn encoded_len(&self) -> usize {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                0 $(+ $name.encoded_len())+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}

impl_tuple!(A);
impl_tuple!(A, B);
impl_tuple!(A, B, C);
impl_tuple!(A, B, C, D);
impl_tuple!(A, B, C, D, E);

#[cfg(test)]
mod tests {
    use super::*;

    use smartchain_sim::rng::SimRng;

    /// Seeded generator helpers standing in for proptest (the workspace
    /// builds without external crates).
    struct Gen(SimRng);

    impl Gen {
        fn new(seed: u64) -> Gen {
            Gen(SimRng::seed_from_u64(seed))
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        fn bytes(&mut self, max_len: usize) -> Vec<u8> {
            let len = self.0.gen_range(max_len as u64 + 1) as usize;
            self.0.gen_bytes(len)
        }

        fn string(&mut self, max_len: usize) -> String {
            let len = self.0.gen_range(max_len as u64 + 1);
            (0..len)
                .map(|_| char::from_u32((self.0.gen_range(0xd7ff)) as u32).unwrap_or('x'))
                .collect()
        }
    }

    #[test]
    fn ints_roundtrip() {
        let bytes = to_bytes(&(1u8, 2u16, 3u32, 4u64, -5i64));
        let back: (u8, u16, u32, u64, i64) = from_bytes(&bytes).unwrap();
        assert_eq!(back, (1, 2, 3, 4, -5));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0xff);
        assert_eq!(
            from_bytes::<u32>(&bytes),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&0xdead_beefu64);
        assert_eq!(
            from_bytes::<u64>(&bytes[..5]),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = Vec::new();
        (1_000_000u32).encode(&mut bytes); // claims 1MB follows
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(DecodeError::BadLength(_))
        ));
    }

    #[test]
    fn bool_rejects_junk() {
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(DecodeError::BadDiscriminant(2))
        ));
    }

    #[test]
    fn option_roundtrip() {
        let v: Option<u64> = Some(9);
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&v)).unwrap(), v);
        let n: Option<u64> = None;
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&n)).unwrap(), n);
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![3u64, 1, 2], String::from("x"));
        assert_eq!(to_bytes(&v), to_bytes(&v.clone()));
    }

    #[test]
    fn seq_helpers_roundtrip() {
        let items = vec![(1u64, vec![1u8, 2]), (2u64, vec![])];
        let mut out = Vec::new();
        encode_seq(&items, &mut out);
        let mut input = out.as_slice();
        let back: Vec<(u64, Vec<u8>)> = decode_seq(&mut input).unwrap();
        assert_eq!(back, items);
        assert!(input.is_empty());
    }

    #[test]
    fn prop_bytes_roundtrip() {
        let mut g = Gen::new(1);
        for _ in 0..256 {
            let data = g.bytes(512);
            let bytes = to_bytes(&data);
            assert_eq!(from_bytes::<Vec<u8>>(&bytes).unwrap(), data);
        }
    }

    #[test]
    fn prop_strings_roundtrip() {
        let mut g = Gen::new(2);
        for _ in 0..256 {
            let s = g.string(128);
            let bytes = to_bytes(&s);
            assert_eq!(from_bytes::<String>(&bytes).unwrap(), s);
        }
    }

    #[test]
    fn prop_tuples_roundtrip() {
        let mut g = Gen::new(3);
        for _ in 0..256 {
            let c = if g.next_u64().is_multiple_of(2) {
                None
            } else {
                Some(g.next_u64() as u32)
            };
            let v = (g.next_u64(), g.bytes(64), c);
            let bytes = to_bytes(&v);
            assert_eq!(
                from_bytes::<(u64, Vec<u8>, Option<u32>)>(&bytes).unwrap(),
                v
            );
        }
    }

    #[test]
    fn prop_u64_vecs_roundtrip() {
        let mut g = Gen::new(4);
        for _ in 0..256 {
            let len = (g.next_u64() as usize) % 64;
            let v: Vec<u64> = (0..len).map(|_| g.next_u64()).collect();
            let bytes = to_bytes(&v);
            assert_eq!(from_bytes::<Vec<u64>>(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn encoded_len_matches_materialized_encoding() {
        let mut g = Gen::new(6);
        for _ in 0..256 {
            let tup = (g.next_u64(), g.bytes(64), g.string(32));
            assert_eq!(tup.encoded_len(), tup.to_vec().len());
            let opt = if g.next_u64().is_multiple_of(2) {
                None
            } else {
                Some(g.bytes(16))
            };
            assert_eq!(opt.encoded_len(), opt.to_vec().len());
            let v: Vec<u64> = (0..(g.next_u64() % 8)).map(|_| g.next_u64()).collect();
            assert_eq!(v.encoded_len(), v.to_vec().len());
            let arr = [7u8; 33];
            assert_eq!(arr.encoded_len(), arr.to_vec().len());
            assert_eq!(true.encoded_len(), 1);
            assert_eq!(3usize.encoded_len(), 8);
        }
    }

    #[test]
    fn prop_decode_never_panics() {
        // Decoding arbitrary junk must return an error, never panic.
        let mut g = Gen::new(5);
        for _ in 0..1024 {
            let data = g.bytes(96);
            let _ = from_bytes::<(u64, Vec<u8>, String)>(&data);
            let _ = from_bytes::<Vec<u64>>(&data);
            let _ = from_bytes::<Option<Vec<u8>>>(&data);
        }
    }
}
