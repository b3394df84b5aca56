//! Deterministic binary encoding for SmartChain.
//!
//! Blocks are hashed, signed, and persisted; all three require a *canonical*
//! byte representation — two replicas encoding the same logical value must
//! produce identical bytes. The wire rule is stated once, here:
//!
//! * integers are fixed-width little-endian (`usize` as `u64`), `bool` one
//!   byte 0 or 1, `[u8; N]` its raw bytes;
//! * a **sequence** (`[T]`, `Vec<T>`, `String`) is a `u32` count followed
//!   by its elements — for `u8` elements, its raw bytes;
//! * `Option<T>` is a `0`/`1` byte followed by the value when present;
//! * a **record** (tuple or struct) is its fields in order;
//! * a **message** (enum) is a `u8` tag followed by its variant's fields.
//!
//! Every wire type of the workspace states its format once, as a field
//! list: [`codec_struct!`] for records, [`codec_enum!`] for messages. Both
//! derive `encode`, the exact [`Encode::encoded_len`] and [`Decode`] from
//! that list, so the three cannot drift apart. There is no implicit
//! versioning.
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

    /// Convenience: encodes into a fresh buffer, allocated once at exactly
    /// [`Encode::encoded_len`] bytes.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Exact length of the canonical encoding in bytes.
    ///
    /// This is the single source of truth for wire sizes: simulator NIC
    /// models derive message sizes from it instead of keeping hand-rolled
    /// per-variant estimates in sync with the encoders, and
    /// [`Encode::to_vec`] sizes its buffer by it.
    fn encoded_len(&self) -> usize;

    /// Appends a sequence's elements (its count excluded). Elements encode
    /// one by one; `u8` copies the whole slice at once.
    #[doc(hidden)]
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }

    /// Encoded length of a sequence's elements (its count excluded).
    #[doc(hidden)]
    fn slice_encoded_len(items: &[Self]) -> usize
    where
        Self: Sized,
    {
        items.iter().map(Encode::encoded_len).sum()
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

    /// Reads a sequence's `len` elements (its count already read and
    /// checked against the input). Elements decode one by one into a
    /// vector reserved by [`seq_with_capacity`]; `u8` copies the bytes at
    /// once.
    #[doc(hidden)]
    fn decode_vec(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, DecodeError> {
        let mut out = seq_with_capacity(len, input);
        for _ in 0..len {
            out.push(Self::decode(input)?);
        }
        Ok(out)
    }
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

impl_int!(u16, u32, u64, u128, i8, i16, i32, i64);

/// A sequence of `u8` is a byte string: its bytes move as one slice.
impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn slice_encoded_len(items: &[u8]) -> usize {
        items.len()
    }
}

impl Decode for u8 {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(take(input, 1)?[0])
    }
    fn decode_vec(len: usize, input: &mut &[u8]) -> Result<Vec<u8>, DecodeError> {
        Ok(take(input, len)?.to_vec())
    }
}

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

/// A reference encodes exactly like the value it points at, so a record of
/// borrowed fields has the owned record's bytes.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// The bytes a signature covers: the `domain` tag as a byte sequence, then
/// the record `fields`, in one exactly sized allocation. A distinct tag per
/// payload kind keeps a signature over one kind from verifying as another.
pub fn signing_bytes(domain: &[u8], fields: impl Encode) -> Vec<u8> {
    let mut out = Vec::with_capacity(domain.encoded_len() + fields.encoded_len());
    domain.encode(&mut out);
    fields.encode(&mut out);
    out
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

/// A sequence: a `u32` count, then the elements.
impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }
    fn encoded_len(&self) -> usize {
        (self.len() as u32).encoded_len() + T::slice_encoded_len(self)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::decode(input)? as usize;
        // Every element takes at least one byte.
        if len > input.len() {
            return Err(DecodeError::BadLength(len as u64));
        }
        T::decode_vec(len, input)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_bytes().encoded_len()
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = Vec::<u8>::decode(input)?;
        String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
    }
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

/// Implements [`Encode`] (with the exact [`Encode::encoded_len`]) and
/// [`Decode`] for a struct whose wire form is the listed fields, in order —
/// a tuple with names. Each field decodes through its type's [`Decode`].
///
/// ```
/// use smartchain_codec::{codec_struct, from_bytes, to_bytes, Encode};
///
/// #[derive(Debug, PartialEq)]
/// struct Entry {
///     id: u64,
///     tags: Vec<u16>,
/// }
/// codec_struct!(Entry { id, tags });
///
/// let entry = Entry { id: 7, tags: vec![1, 2] };
/// let bytes = to_bytes(&entry);
/// assert_eq!(bytes, to_bytes(&(7u64, vec![1u16, 2])));
/// assert_eq!(entry.encoded_len(), bytes.len());
/// assert_eq!(from_bytes::<Entry>(&bytes)?, entry);
/// # Ok::<(), smartchain_codec::DecodeError>(())
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::Encode::encode(&self.$field, out);)*
            }
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::Encode::encoded_len(&self.$field))*
            }
        }
        impl $crate::Decode for $ty {
            fn decode(input: &mut &[u8]) -> ::std::result::Result<Self, $crate::DecodeError> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::Decode::decode(input)?,)*
                })
            }
        }
    };
}

/// Implements [`Encode`] (with the exact [`Encode::encoded_len`]) and
/// [`Decode`] for an enum whose wire form is a `u8` tag followed by the
/// variant's fields, in the listed order. Each variant is listed as
/// `tag => Name(a, b)` (tuple; the names only bind the fields),
/// `tag => Name { a, b }` (struct) or `tag => Name` (unit). An unknown tag
/// decodes to [`DecodeError::BadDiscriminant`].
///
/// ```
/// use smartchain_codec::{codec_enum, from_bytes, to_bytes, DecodeError};
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping(u64),
///     Data { seq: u32, body: Vec<u8> },
///     Stop,
/// }
/// codec_enum!(Msg {
///     0 => Ping(nonce),
///     1 => Data { seq, body },
///     7 => Stop,
/// });
///
/// let msg = Msg::Data { seq: 3, body: vec![9] };
/// assert_eq!(to_bytes(&msg), to_bytes(&(1u8, 3u32, vec![9u8])));
/// assert_eq!(from_bytes::<Msg>(&[7])?, Msg::Stop);
/// assert_eq!(from_bytes::<Msg>(&[2]), Err(DecodeError::BadDiscriminant(2)));
/// # Ok::<(), DecodeError>(())
/// ```
#[macro_export]
macro_rules! codec_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident
            $(( $($tuple_field:ident),* $(,)? ))?
            $({ $($field:ident),* $(,)? })?
    ),* $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($ty::$variant $(($($tuple_field),*))? $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::Encode::encode($tuple_field, out);)*)?
                        $($($crate::Encode::encode($field, out);)*)?
                    })*
                }
            }
            fn encoded_len(&self) -> usize {
                1 + match self {
                    $($ty::$variant $(($($tuple_field),*))? $({ $($field),* })? => {
                        0 $($(+ $crate::Encode::encoded_len($tuple_field))*)?
                            $($(+ $crate::Encode::encoded_len($field))*)?
                    })*
                }
            }
        }
        impl $crate::Decode for $ty {
            fn decode(input: &mut &[u8]) -> ::std::result::Result<Self, $crate::DecodeError> {
                match <u8 as $crate::Decode>::decode(input)? {
                    $($tag => ::std::result::Result::Ok($ty::$variant
                        $(($({
                            let $tuple_field = $crate::Decode::decode(input)?;
                            $tuple_field
                        }),*))?
                        $({ $($field: $crate::Decode::decode(input)?),* })?
                    ),)*
                    tag => ::std::result::Result::Err(
                        $crate::DecodeError::BadDiscriminant(u32::from(tag)),
                    ),
                }
            }
        }
    };
}

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
    fn structured_seq_roundtrip() {
        let items = vec![(1u64, vec![1u8, 2]), (2u64, vec![])];
        let bytes = to_bytes(&items);
        assert_eq!(bytes.len(), items.encoded_len());
        assert_eq!(from_bytes::<Vec<(u64, Vec<u8>)>>(&bytes).unwrap(), items);
    }

    #[test]
    fn signing_bytes_are_tag_then_fields_in_one_allocation() {
        let hash = [9u8; 32];
        let bytes = signing_bytes(b"sc-test", (5u64, 2u32, &hash, &[1u8, 2][..]));
        assert_eq!(bytes.capacity(), bytes.len());
        let mut expected = to_bytes(&b"sc-test"[..]);
        (5u64, 2u32, hash, vec![1u8, 2]).encode(&mut expected);
        assert_eq!(bytes, expected);
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
