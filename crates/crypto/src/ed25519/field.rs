//! Arithmetic in GF(2^255 - 19), the base field of Curve25519/edwards25519.
//!
//! Elements are represented with five 51-bit limbs (radix 2^51). This is the
//! classic representation from the "ref10" family of implementations: limb
//! products fit comfortably in `u128` and carries are cheap.

// Field/scalar arithmetic uses the literature's method names (`add`, `mul`,
// `sub`, `neg`) by value, and fixed-index loops that mirror the constant-time
// word-by-word algorithms they implement.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

/// 2^51 - 1: mask for one limb.
const MASK: u64 = (1u64 << 51) - 1;

/// A field element in GF(2^255 - 19).
///
/// Internal limbs are kept *loosely reduced* (each `< 2^52`); canonical byte
/// encodings are produced by [`Fe::to_bytes`], which performs a full reduction.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Builds an element from a `u64` (must fit the field trivially).
    pub fn from_u64(x: u64) -> Fe {
        let mut out = Fe::ZERO;
        out.0[0] = x & MASK;
        out.0[1] = x >> 51;
        out
    }

    /// Decodes 32 little-endian bytes, ignoring the top bit (per RFC 8032).
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            let mut v = [0u8; 8];
            v[..b.len()].copy_from_slice(b);
            u64::from_le_bytes(v)
        };
        let l0 = load(&bytes[0..8]) & MASK;
        let l1 = (load(&bytes[6..14]) >> 3) & MASK;
        let l2 = (load(&bytes[12..20]) >> 6) & MASK;
        let l3 = (load(&bytes[19..27]) >> 1) & MASK;
        // Masking with MASK keeps global bits 204..254 and drops bit 255 (the
        // sign bit, per RFC 8032).
        let l4 = (load(&bytes[24..32]) >> 12) & MASK;
        Fe([l0, l1, l2, l3, l4])
    }

    /// Encodes to the canonical 32-byte little-endian representation.
    pub fn to_bytes(self) -> [u8; 32] {
        // First make limbs < 2^51 (plus a tiny slack in limb 0) via carry
        // propagation, folding final carries back through the *19 wraparound.
        let h = self.carry().carry();
        // Compute q = value + 19 with full carry propagation; bit 255 of q
        // tells us whether value >= p (p = 2^255 - 19).
        let mut q = [h.0[0] + 19, h.0[1], h.0[2], h.0[3], h.0[4]];
        for i in 0..4 {
            q[i + 1] += q[i] >> 51;
            q[i] &= MASK;
        }
        let ge_p = (q[4] >> 51) & 1; // 1 iff value >= p
        q[4] &= MASK; // q is now (value + 19) mod 2^255, limbs all < 2^51
                      // Pack the five 51-bit limbs into four 64-bit words.
        let mut w = [
            q[0] | (q[1] << 51),
            (q[1] >> 13) | (q[2] << 38),
            (q[2] >> 26) | (q[3] << 25),
            (q[3] >> 39) | (q[4] << 12),
        ];
        if ge_p == 0 {
            // value < p: the canonical value is q - 19 (undo the +19).
            let mut borrow = 19u64;
            for word in &mut w {
                let (r, b) = word.overflowing_sub(borrow);
                *word = r;
                borrow = u64::from(b);
                if borrow == 0 {
                    break;
                }
            }
        }
        // When ge_p == 1 the canonical value is value - p = q - 2^255, and the
        // masking of q[4] above already removed bit 255.
        let mut out = [0u8; 32];
        for (i, word) in w.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn carry(self) -> Fe {
        let mut l = self.0;
        let mut c: u64;
        c = l[0] >> 51;
        l[0] &= MASK;
        l[1] += c;
        c = l[1] >> 51;
        l[1] &= MASK;
        l[2] += c;
        c = l[2] >> 51;
        l[2] &= MASK;
        l[3] += c;
        c = l[3] >> 51;
        l[3] &= MASK;
        l[4] += c;
        c = l[4] >> 51;
        l[4] &= MASK;
        l[0] += c * 19;
        Fe(l)
    }

    /// Field addition.
    pub fn add(self, rhs: Fe) -> Fe {
        Fe([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
        .carry()
    }

    /// Field subtraction.
    pub fn sub(self, rhs: Fe) -> Fe {
        // Add 2*p before subtracting so limbs stay positive. In 51-bit limbs,
        // 2p = [2^52-38, 2^52-2, 2^52-2, 2^52-2, 2^52-2].
        let p2 = [
            (MASK + 1) * 2 - 38,
            (MASK + 1) * 2 - 2,
            (MASK + 1) * 2 - 2,
            (MASK + 1) * 2 - 2,
            (MASK + 1) * 2 - 2,
        ];
        Fe([
            self.0[0] + p2[0] - rhs.0[0],
            self.0[1] + p2[1] - rhs.0[1],
            self.0[2] + p2[2] - rhs.0[2],
            self.0[3] + p2[3] - rhs.0[3],
            self.0[4] + p2[4] - rhs.0[4],
        ])
        .carry()
        .carry()
    }

    /// Field negation.
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let t0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let t1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let t2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let t3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let t4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Fe::carry_wide([t0, t1, t2, t3, t4])
    }

    /// Field squaring: the 25 limb products of [`Fe::mul`] folded to 15 by
    /// symmetry.
    pub fn square(self) -> Fe {
        let a = self.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        let t0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let t1 = m(a0_2, a[1]) + 2 * m(a[2], a4_19) + m(a[3], a3_19);
        let t2 = m(a0_2, a[2]) + m(a[1], a[1]) + 2 * m(a[3], a4_19);
        let t3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19);
        let t4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Fe::carry_wide([t0, t1, t2, t3, t4])
    }

    /// The carry chain over the `u128` accumulators of a product.
    fn carry_wide(mut t: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mask = MASK as u128;
        for i in 0..4 {
            t[i + 1] += t[i] >> 51;
            out[i] = (t[i] & mask) as u64;
        }
        let carry = (t[4] >> 51) as u64;
        out[4] = (t[4] & mask) as u64;
        // One more step leaves limb 1 a few bits over 2^51: loosely reduced.
        out[0] += carry * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    /// Repeated squaring: `self^(2^n)`.
    pub fn square_n(self, n: u32) -> Fe {
        let mut x = self;
        for _ in 0..n {
            x = x.square();
        }
        x
    }

    /// Multiplicative inverse via Fermat's little theorem (`self^(p-2)`).
    ///
    /// Returns `Fe::ZERO` for input zero (0 has no inverse; callers that care
    /// must check [`Fe::is_zero`] first).
    pub fn invert(self) -> Fe {
        // p - 2 = 2^255 - 21. Use the standard addition chain.
        let z = self;
        let z2 = z.square(); // 2
        let z9 = z2.square().square().mul(z); // 9 = 2^3 + 1
        let z11 = z9.mul(z2); // 11
        let z2_5_0 = z11.square().mul(z9); // 2^5 - 1
        let z2_10_0 = z2_5_0.square_n(5).mul(z2_5_0); // 2^10 - 1
        let z2_20_0 = z2_10_0.square_n(10).mul(z2_10_0); // 2^20 - 1
        let z2_40_0 = z2_20_0.square_n(20).mul(z2_20_0); // 2^40 - 1
        let z2_50_0 = z2_40_0.square_n(10).mul(z2_10_0); // 2^50 - 1
        let z2_100_0 = z2_50_0.square_n(50).mul(z2_50_0); // 2^100 - 1
        let z2_200_0 = z2_100_0.square_n(100).mul(z2_100_0); // 2^200 - 1
        let z2_250_0 = z2_200_0.square_n(50).mul(z2_50_0); // 2^250 - 1
        z2_250_0.square_n(5).mul(z11) // 2^255 - 21
    }

    /// Computes `self^((p-5)/8)`, the core of the square-root algorithm.
    pub fn pow_p58(self) -> Fe {
        // (p - 5) / 8 = 2^252 - 3
        let z = self;
        let z2 = z.square();
        let z9 = z2.square().square().mul(z);
        let z11 = z9.mul(z2);
        let z2_5_0 = z11.square().mul(z9);
        let z2_10_0 = z2_5_0.square_n(5).mul(z2_5_0);
        let z2_20_0 = z2_10_0.square_n(10).mul(z2_10_0);
        let z2_40_0 = z2_20_0.square_n(20).mul(z2_20_0);
        let z2_50_0 = z2_40_0.square_n(10).mul(z2_10_0);
        let z2_100_0 = z2_50_0.square_n(50).mul(z2_50_0);
        let z2_200_0 = z2_100_0.square_n(100).mul(z2_100_0);
        let z2_250_0 = z2_200_0.square_n(50).mul(z2_50_0);
        z2_250_0.square_n(2).mul(z) // 2^252 - 3
    }

    /// True if the canonical encoding is all zeros.
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// The "sign" of a field element: the least-significant bit of its
    /// canonical encoding (used for point compression per RFC 8032).
    pub fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Constant-ish equality through canonical encodings.
    pub fn ct_eq(self, other: Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// `self` where `mask` is 0 and `other` where it is all ones, with no
    /// branch on `mask`.
    pub(crate) fn select(self, other: Fe, mask: u64) -> Fe {
        let mut l = self.0;
        for i in 0..5 {
            l[i] ^= mask & (l[i] ^ other.0[i]);
        }
        Fe(l)
    }
}

/// `sqrt(-1)` in the field: `2^((p-1)/4)`, a square root of -1 because
/// p = 5 (mod 8).
pub const SQRT_M1: Fe = Fe([
    1718705420411056,
    234908883556509,
    2233514472574048,
    2117202627021982,
    765476049583133,
]);

/// The Edwards curve constant `d = -121665/121666 (mod p)`.
pub const D: Fe = Fe([
    929955233495203,
    466365720129213,
    1662059464998953,
    2033849074728123,
    1442794654840575,
]);

/// `2 * d (mod p)`, used in the extended-coordinate addition formulas.
pub const D2: Fe = Fe([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe::from_u64(n)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(123456789);
        let b = fe(987654321);
        assert!(a.add(b).sub(b).ct_eq(a));
        assert!(a.sub(b).add(b).ct_eq(a));
    }

    #[test]
    fn mul_matches_small_ints() {
        assert!(fe(7).mul(fe(6)).ct_eq(fe(42)));
        assert!(fe(1 << 30).mul(fe(1 << 30)).ct_eq(fe(1 << 60)));
    }

    #[test]
    fn invert_is_inverse() {
        let a = fe(1234567890123456789);
        assert!(a.mul(a.invert()).ct_eq(Fe::ONE));
    }

    #[test]
    fn zero_has_no_inverse_but_is_zero() {
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        assert!(SQRT_M1.square().ct_eq(Fe::ONE.neg()));
    }

    /// The literal constants are the canonical limbs of the values the
    /// formulas they replaced compute.
    #[test]
    fn constants_match_their_formulas() {
        let two = fe(2);
        // (p-1)/4 = 2^253 - 5 = 2 * (2^252 - 3) + 1
        assert!(SQRT_M1.ct_eq(two.pow_p58().square().mul(two)));
        let d = fe(121_665).neg().mul(fe(121_666).invert());
        assert!(D.ct_eq(d));
        assert!(D2.ct_eq(d.add(d)));
        for c in [SQRT_M1, D, D2] {
            assert_eq!(Fe::from_bytes(&c.to_bytes()).0, c.0, "canonical limbs");
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut a = fe(0x1234_5678_9abc_def1);
        for _ in 0..200 {
            assert_eq!(a.square().0, a.mul(a).0);
            a = a.mul(a).add(fe(3)).neg();
        }
        // Loosely reduced limbs (every limb at its 2^52 - 1 bound) too, and
        // the product is loosely reduced again.
        let loose = Fe([(1 << 52) - 1; 5]);
        assert!(loose.square().ct_eq(loose.mul(loose)));
        assert!(loose.square().0.iter().all(|&l| l < 1 << 52));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(5);
        }
        bytes[31] &= 0x7f;
        let a = Fe::from_bytes(&bytes);
        // The value may exceed p, so compare via a double round-trip.
        let canon = a.to_bytes();
        assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    }

    #[test]
    fn p_minus_one_encodes_canonically() {
        // p - 1 = 2^255 - 20
        let mut b = [0xffu8; 32];
        b[0] = 0xec;
        b[31] = 0x7f;
        let a = Fe::from_bytes(&b);
        assert_eq!(a.to_bytes(), b);
        assert!(a.add(Fe::ONE).is_zero());
    }

    #[test]
    fn d_constant_matches_reference() {
        // The canonical little-endian encoding of d from RFC 8032.
        let expected = "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352";
        let got: String = D.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn distributivity() {
        let a = fe(0xdead_beef);
        let b = fe(0xcafe_babe);
        let c = fe(0x1234_5678);
        let left = a.mul(b.add(c));
        let right = a.mul(b).add(a.mul(c));
        assert!(left.ct_eq(right));
    }
}
