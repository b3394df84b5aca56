//! Arithmetic modulo the edwards25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Scalars are four little-endian 64-bit words. Reductions use simple binary
//! shift-and-subtract long division — not the fastest approach, but compact,
//! obviously correct, and cheap relative to the curve operations that dominate
//! signing and verification.

// Field/scalar arithmetic uses the literature's method names (`add`, `mul`,
// `sub`, `neg`) by value, and fixed-index loops that mirror the constant-time
// word-by-word algorithms they implement.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

/// The group order L as four little-endian 64-bit words.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// A scalar modulo the group order L.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

/// Compares two 4-word little-endian integers.
fn cmp4(a: &[u64; 4], b: &[u64; 4]) -> std::cmp::Ordering {
    for i in (0..4).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// a -= b on 4-word little-endian integers; caller guarantees a >= b.
fn sub4(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (r1, b1) = a[i].overflowing_sub(b[i]);
        let (r2, b2) = r1.overflowing_sub(borrow);
        a[i] = r2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0, "sub4 requires a >= b");
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Builds a scalar from a small integer.
    pub fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// L - 1, the largest canonical scalar (handy in tests).
    pub fn order_minus_one() -> Scalar {
        let mut w = L;
        w[0] -= 1;
        Scalar(w)
    }

    /// Parses 32 little-endian bytes, reducing modulo L.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_wide_bytes(&wide)
    }

    /// Parses 32 little-endian bytes, returning `None` unless the value is
    /// already canonical (strictly less than L). Required when validating the
    /// `s` component of signatures (RFC 8032 §5.1.7 malleability check).
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut w = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            w[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if cmp4(&w, &L) == std::cmp::Ordering::Less {
            Some(Scalar(w))
        } else {
            None
        }
    }

    /// Reduces a 512-bit little-endian integer modulo L (used on SHA-512
    /// outputs during signing and verification).
    pub fn from_wide_bytes(bytes: &[u8; 64]) -> Scalar {
        let mut n = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            n[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Scalar(reduce_wide(n))
    }

    /// Serializes to 32 little-endian bytes (canonical).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Addition modulo L.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut w = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (r1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (r2, c2) = r1.overflowing_add(carry);
            w[i] = r2;
            carry = u64::from(c1) + u64::from(c2);
        }
        // Inputs are < L < 2^253 so the sum fits in 4 words (no carry out).
        debug_assert_eq!(carry, 0);
        if cmp4(&w, &L) != std::cmp::Ordering::Less {
            sub4(&mut w, &L);
        }
        Scalar(w)
    }

    /// Multiplication modulo L.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        // Schoolbook 256x256 -> 512-bit multiply.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = prod[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                prod[i + j] = cur as u64;
                carry = cur >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        Scalar(reduce_wide(prod))
    }

    /// Computes `self * b + c (mod L)` — the core of signature generation.
    pub fn mul_add(self, b: Scalar, c: Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// Breaks the scalar into 64 little-endian 4-bit nibbles for windowed
    /// scalar multiplication.
    pub fn to_nibbles(self) -> [u8; 64] {
        let bytes = self.to_bytes();
        let mut out = [0u8; 64];
        for (i, b) in bytes.iter().enumerate() {
            out[2 * i] = b & 0x0f;
            out[2 * i + 1] = b >> 4;
        }
        out
    }

    /// Signed radix-16 digits, little-endian: `self = Σ d[i]·16^i` with every
    /// `d[i]` in -8..=8. No branch or index depends on the scalar.
    pub(crate) fn to_radix16(self) -> [i8; 64] {
        let mut d = self.to_nibbles().map(|n| n as i8);
        // Recentre 0..=15 to -8..=7; a scalar below 2^253 leaves d[63] <= 2.
        for i in 0..63 {
            let carry = (d[i] + 8) >> 4;
            d[i] -= carry << 4;
            d[i + 1] += carry;
        }
        d
    }

    /// Width-`w` non-adjacent form, little-endian: `self = Σ d[i]·2^i` with
    /// every non-zero `d[i]` odd, `|d[i]| < 2^(w-1)`, and at least `w - 1`
    /// zeros after it. Variable time: for public scalars only.
    pub(crate) fn naf(self, w: u32) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        let mut words = [0u64; 5];
        words[..4].copy_from_slice(&self.0);
        let width = 1i16 << w;
        let mut d = [0i8; 256];
        let (mut pos, mut carry) = (0usize, 0i16);
        while pos < 256 {
            let (word, bit) = (pos / 64, pos % 64);
            let mut bits = words[word] >> bit;
            if bit + w as usize > 64 {
                bits |= words[word + 1] << (64 - bit);
            }
            let window = carry + (bits & (width as u64 - 1)) as i16;
            if window & 1 == 0 {
                // An even window keeps its carry: 1 + 1 here is 1 one bit up.
                pos += 1;
                continue;
            }
            // Width 8 spans -127..=127: subtract in i16, then narrow.
            carry = i16::from(window >= width / 2);
            d[pos] = (window - carry * width) as i8;
            pos += w as usize;
        }
        assert_eq!(carry, 0, "a scalar below 2^253 fits 256 digits");
        d
    }

    /// True for the zero scalar.
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }
}

/// Reduces an 8-word (512-bit) little-endian integer modulo L using binary
/// long division: subtract `L << shift` whenever it fits, from the highest
/// shift down.
fn reduce_wide(n: [u64; 8]) -> [u64; 4] {
    // Work in a 9-word buffer so `L << shift` comparisons are easy.
    let mut r = [0u64; 9];
    r[..8].copy_from_slice(&n);
    // L occupies 253 bits; n occupies up to 512. Max useful shift: 512-253=259.
    for shift in (0..=259u32).rev() {
        let ls = shl_l(shift);
        if cmp9(&r, &ls) != std::cmp::Ordering::Less {
            sub9(&mut r, &ls);
        }
    }
    let mut out = [0u64; 4];
    out.copy_from_slice(&r[..4]);
    debug_assert_eq!(&r[4..], &[0u64; 5]);
    out
}

/// Computes `L << shift` as a 9-word little-endian integer.
fn shl_l(shift: u32) -> [u64; 9] {
    let word_shift = (shift / 64) as usize;
    let bit_shift = shift % 64;
    let mut out = [0u64; 9];
    for i in 0..4 {
        let idx = i + word_shift;
        if idx < 9 {
            out[idx] |= L[i] << bit_shift;
        }
        if bit_shift > 0 && idx + 1 < 9 {
            out[idx + 1] |= L[i] >> (64 - bit_shift);
        }
    }
    out
}

fn cmp9(a: &[u64; 9], b: &[u64; 9]) -> std::cmp::Ordering {
    for i in (0..9).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

fn sub9(a: &mut [u64; 9], b: &[u64; 9]) {
    let mut borrow = 0u64;
    for i in 0..9 {
        let (r1, b1) = a[i].overflowing_sub(b[i]);
        let (r2, b2) = r1.overflowing_sub(borrow);
        a[i] = r2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0, "sub9 requires a >= b");
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_sim::rng::SimRng;

    #[test]
    fn l_reduces_to_zero() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&Scalar(L).to_bytes());
        assert!(Scalar::from_wide_bytes(&wide).is_zero());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let s = Scalar::order_minus_one();
        assert_eq!(Scalar::from_canonical_bytes(&s.to_bytes()), Some(s));
        // L itself is not canonical.
        assert_eq!(Scalar::from_canonical_bytes(&Scalar(L).to_bytes()), None);
    }

    #[test]
    fn add_wraps_at_l() {
        let lm1 = Scalar::order_minus_one();
        assert!(lm1.add(Scalar::ONE).is_zero());
        assert_eq!(lm1.add(Scalar::from_u64(2)), Scalar::ONE);
    }

    #[test]
    fn mul_small() {
        assert_eq!(
            Scalar::from_u64(6).mul(Scalar::from_u64(7)),
            Scalar::from_u64(42)
        );
    }

    #[test]
    fn mul_by_l_minus_one_is_negation() {
        // (L-1)*x = -x (mod L)
        let x = Scalar::from_u64(12345);
        let neg = Scalar::order_minus_one().mul(x);
        assert!(neg.add(x).is_zero());
    }

    #[test]
    fn wide_reduction_matches_mod_arithmetic() {
        // (2^256) mod L computed two ways: via from_wide_bytes, and via
        // repeated doubling of 1.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let direct = Scalar::from_wide_bytes(&wide);
        let mut doubled = Scalar::ONE;
        for _ in 0..256 {
            doubled = doubled.add(doubled);
        }
        assert_eq!(direct, doubled);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Scalar::from_u64(0xdeadbeef);
        let b = Scalar::from_u64(0xcafebabe);
        let c = Scalar::from_u64(0x12345678);
        assert_eq!(a.mul_add(b, c), a.mul(b).add(c));
    }

    /// 0, 1, 8, 2^64 - 1, L - 1 and 500 seeded scalars.
    fn sample_scalars() -> Vec<Scalar> {
        let mut rng = SimRng::seed_from_u64(0xd191);
        let mut out = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(8),
            Scalar::from_u64(u64::MAX),
            Scalar::order_minus_one(),
        ];
        out.extend((0..500).map(|_| {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            Scalar::from_bytes_mod_order(&bytes)
        }));
        out
    }

    /// `Σ digits[i]·2^(i·shift)`, exactly, as four little-endian words.
    fn from_digits(digits: &[i8], shift: usize) -> [u64; 4] {
        let mut wide = [0i128; 4];
        for (i, &d) in digits.iter().enumerate() {
            wide[i * shift / 64] += i128::from(d) << (i * shift % 64);
        }
        let mut out = [0u64; 4];
        let mut carry = 0i128;
        for j in 0..4 {
            let v = wide[j] + carry;
            out[j] = v as u64;
            carry = v >> 64;
        }
        assert_eq!(carry, 0);
        out
    }

    #[test]
    fn radix16_digits_reconstruct_scalar_within_bounds() {
        for s in sample_scalars() {
            let digits = s.to_radix16();
            assert_eq!(from_digits(&digits, 4), s.0);
            assert!(digits[..63].iter().all(|d| (-8..8).contains(d)), "{s:?}");
            assert!((0..=8).contains(&digits[63]), "{s:?}");
        }
    }

    #[test]
    fn naf_digits_reconstruct_scalar_within_bounds() {
        for s in sample_scalars() {
            for w in 2..=8u32 {
                let digits = s.naf(w);
                assert_eq!(from_digits(&digits, 1), s.0, "width {w}, {s:?}");
                for (i, &d) in digits.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d & 1 == 1 && i16::from(d).abs() < 1 << (w - 1), "width {w}");
                    let gap = &digits[i + 1..digits.len().min(i + w as usize)];
                    assert!(gap.iter().all(|&z| z == 0), "width {w}, {s:?}");
                }
            }
        }
    }

    #[test]
    fn nibbles_reconstruct_scalar() {
        let s = Scalar::from_u64(0x1234_5678_9abc_def0);
        let nibbles = s.to_nibbles();
        let mut bytes = [0u8; 32];
        for i in 0..32 {
            bytes[i] = nibbles[2 * i] | (nibbles[2 * i + 1] << 4);
        }
        assert_eq!(bytes, s.to_bytes());
    }
}
