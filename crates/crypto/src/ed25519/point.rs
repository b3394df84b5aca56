//! Group operations on edwards25519 in extended twisted-Edwards coordinates.
//!
//! A point (x, y) is stored as (X : Y : Z : T) with x = X/Z, y = Y/Z and
//! T = XY/Z. The unified addition formulas used here are complete for
//! edwards25519 (they have no exceptional cases), which keeps the logic simple
//! and branch-free.
//!
//! Every addition and doubling first yields a `Completed` quadruple, from
//! which the next step takes what it needs: a doubling reads only
//! (X : Y : Z) — a `Projective`, three multiplications — an addition also
//! T, a fourth. The right-hand operand of an addition is prepared once as a
//! `Cached` (any point) or an `Affine` (Z = 1: the basepoint and comb tables).

use super::field::{Fe, D, D2, SQRT_M1};
use super::scalar::Scalar;
use std::sync::OnceLock;

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// (X : Y : Z) without T: all a doubling reads. It has no addition, so a
/// point whose T was never computed cannot reach one.
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The result of an addition or doubling before its final multiplications:
/// X = EF, Y = GH, Z = FG, T = EH.
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

/// (Y+X, Y-X, Z, 2dT): the right-hand operand of an 8-multiplication
/// addition.
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// (y+x, y-x, 2dxy) of an affine point: the right-hand operand of a
/// 7-multiplication addition.
#[derive(Clone, Copy)]
struct Affine {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// Multiples of the basepoint, built from [`Point::add`] and
/// [`Point::double`] at first use (320 entries, 37.5 KB).
struct BaseTables {
    /// `radix16[i][j] = (j+1)·256^i·B`, for signing's fixed-base product;
    /// rows 0, 4, …, 28 are also the B half of [`Point::mul_double_comb`].
    radix16: [[Affine; 8]; 32],
    /// `odd[j] = (2j+1)·B`, for verification's width-8 NAF.
    odd: [Affine; 64],
}

/// The canonical basepoint: y = 4/5, x even (`58 66 … 66` compressed).
const BASEPOINT: Point = Point {
    x: Fe([
        1738742601995546,
        1146398526822698,
        2070867633025821,
        562264141797630,
        587772402128613,
    ]),
    y: Fe([
        1801439850948184,
        1351079888211148,
        450359962737049,
        900719925474099,
        1801439850948198,
    ]),
    z: Fe::ONE,
    t: Fe([
        1841354044333475,
        16398895984059,
        755974180946558,
        900171276175154,
        1821297809914039,
    ]),
};

/// The comb table of one point P: `rows[r][j] = (j+1)·16^(8r)·P` for r, j
/// in 0..8, affine (64 entries, 7 680 B). With it, [`Point::mul_double_comb`]
/// computes `[k]P + [s]B` in 28 doublings instead of 256.
pub struct CombTable {
    /// On the heap, like the build's temporaries: tables are built on
    /// whichever thread verifies, and its stack should not keep their pages.
    rows: Box<[[Affine; 8]]>,
}

impl CombTable {
    /// Builds P's table: 224 doublings, 56 additions and one batched
    /// inversion, about the cost of one [`Point::mul_double_base`].
    pub fn new(point: &Point) -> CombTable {
        // points[8r + j] = (j+1)·16^(8r)·P.
        let mut points = vec![Point::identity(); 64];
        let mut base = *point;
        for (r, row) in points.chunks_exact_mut(8).enumerate() {
            if r > 0 {
                for _ in 0..32 {
                    base = base.double();
                }
            }
            let step = base.to_cached();
            row[0] = base;
            for j in 1..8 {
                row[j] = row[j - 1].add_cached(&step).to_point();
            }
        }
        // Montgomery's trick: one inversion for all 64 Zs.
        let mut prefix = vec![Fe::ONE; 64];
        let mut product = Fe::ONE;
        for (p, point) in prefix.iter_mut().zip(&points) {
            *p = product;
            product = product.mul(point.z);
        }
        let mut inverse = product.invert();
        let mut rows = vec![[Affine::IDENTITY; 8]; 8].into_boxed_slice();
        for i in (0..64).rev() {
            rows[i / 8][i % 8] = points[i].to_affine_with(inverse.mul(prefix[i]));
            inverse = inverse.mul(points[i].z);
        }
        CombTable { rows }
    }
}

fn base_tables() -> &'static BaseTables {
    static TABLES: OnceLock<BaseTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = BaseTables {
            radix16: [[Affine::IDENTITY; 8]; 32],
            odd: [Affine::IDENTITY; 64],
        };
        let mut base = Point::basepoint();
        for row in &mut tables.radix16 {
            let mut multiple = base;
            for entry in row.iter_mut() {
                *entry = multiple.to_affine();
                multiple = multiple.add(&base);
            }
            for _ in 0..8 {
                base = base.double();
            }
        }
        let mut multiple = Point::basepoint();
        let twice = multiple.double();
        for entry in &mut tables.odd {
            *entry = multiple.to_affine();
            multiple = multiple.add(&twice);
        }
        tables
    })
}

impl Projective {
    fn double(&self) -> Completed {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let h = a.add(b);
        let g = a.sub(b);
        Completed {
            e: h.sub(self.x.add(self.y).square()),
            f: zz.add(zz).add(g),
            g,
            h,
        }
    }
}

impl Completed {
    /// The neutral element (0 : 1 : 1 : 0).
    const IDENTITY: Completed = Completed {
        e: Fe::ZERO,
        f: Fe::ONE,
        g: Fe::ONE,
        h: Fe::ONE,
    };

    fn to_point(&self) -> Point {
        Point {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
            t: self.e.mul(self.h),
        }
    }

    fn to_projective(&self) -> Projective {
        Projective {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
        }
    }
}

impl Cached {
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl Affine {
    /// The neutral element (0, 1).
    const IDENTITY: Affine = Affine {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    /// `self` where `mask` is 0, `other` where it is all ones.
    fn select(&self, other: &Affine, mask: u64) -> Affine {
        Affine {
            y_plus_x: self.y_plus_x.select(other.y_plus_x, mask),
            y_minus_x: self.y_minus_x.select(other.y_minus_x, mask),
            xy2d: self.xy2d.select(other.xy2d, mask),
        }
    }

    /// `-self` where `mask` is all ones, `self` where it is 0.
    fn neg_if(&self, mask: u64) -> Affine {
        Affine {
            y_plus_x: self.y_plus_x.select(self.y_minus_x, mask),
            y_minus_x: self.y_minus_x.select(self.y_plus_x, mask),
            xy2d: self.xy2d.select(self.xy2d.neg(), mask),
        }
    }

    /// `digit·P` from `multiples = [P, 2P, …, 8P]` for a non-zero digit in
    /// -8..=8, indexed by the digit: for public scalars only.
    fn signed(multiples: &[Affine; 8], digit: i8) -> Affine {
        let q = multiples[usize::from(digit.unsigned_abs() - 1)];
        q.neg_if((digit >> 7) as u64)
    }

    /// `digit·P` from `multiples = [P, 2P, …, 8P]` for a digit in -8..=8,
    /// reading every entry so that neither a branch nor an address depends
    /// on the digit.
    fn lookup(multiples: &[Affine; 8], digit: i8) -> Affine {
        let sign = digit >> 7; // -1 when negative
        let magnitude = ((digit ^ sign) - sign) as u8;
        let mut out = Affine::IDENTITY;
        for (j, entry) in multiples.iter().enumerate() {
            let differs = u64::from(magnitude ^ (j as u8 + 1));
            out = out.select(entry, (differs.wrapping_sub(1) >> 63).wrapping_neg());
        }
        out.neg_if(sign as u64)
    }
}

impl Point {
    /// The neutral element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (with y = 4/5 and x even).
    pub fn basepoint() -> Point {
        BASEPOINT
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(D2),
        }
    }

    /// Normalizes to Z = 1 (one inversion: for building tables).
    fn to_affine(self) -> Affine {
        self.to_affine_with(self.z.invert())
    }

    /// Normalizes to Z = 1 given `zinv = 1/Z`.
    fn to_affine_with(self, zinv: Fe) -> Affine {
        let (x, y) = (self.x.mul(zinv), self.y.mul(zinv));
        Affine {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(D2),
        }
    }

    /// `self + Q` given Q's (Y+X, Y-X, 2dT) and the product of the two Zs.
    fn add_parts(&self, y_plus_x: Fe, y_minus_x: Fe, t2d: Fe, zz: Fe) -> Completed {
        let a = self.y.sub(self.x).mul(y_minus_x);
        let b = self.y.add(self.x).mul(y_plus_x);
        let c = self.t.mul(t2d);
        let dd = zz.add(zz);
        Completed {
            e: b.sub(a),
            f: dd.sub(c),
            g: dd.add(c),
            h: b.add(a),
        }
    }

    fn add_cached(&self, q: &Cached) -> Completed {
        self.add_parts(q.y_plus_x, q.y_minus_x, q.t2d, self.z.mul(q.z))
    }

    fn add_affine(&self, q: &Affine) -> Completed {
        self.add_parts(q.y_plus_x, q.y_minus_x, q.xy2d, self.z)
    }

    /// Point addition (complete formulas; works for any pair of points).
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_point()
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        let Point { x, y, z, .. } = *self;
        Projective { x, y, z }.double().to_point()
    }

    /// Additive inverse.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication `[k]P` via 4-bit windowed double-and-add: the
    /// general variable-base routine, and the reference [`Point::mul_base`]
    /// and [`Point::mul_double_base`] are tested against. Its table index
    /// depends on `k`: not for secret scalars.
    pub fn mul(&self, k: &Scalar) -> Point {
        // Precompute 0P..15P.
        let mut table = [Point::identity(); 16];
        for i in 1..16 {
            table[i] = table[i - 1].add(self);
        }
        let nibbles = k.to_nibbles();
        let mut acc = Point::identity();
        for (i, nib) in nibbles.iter().enumerate().rev() {
            if i != nibbles.len() - 1 {
                acc = acc.double().double().double().double();
            }
            acc = acc.add(&table[*nib as usize]);
        }
        acc
    }

    /// Fixed-base multiplication `[k]B`, the secret-scalar product of key
    /// derivation and signing: 64 table additions and 4 doublings over
    /// signed radix-16 digits, every table entry picked by a masked scan.
    pub fn mul_base(k: &Scalar) -> Point {
        let table = &base_tables().radix16;
        let digits = k.to_radix16();
        let add_digits = |mut acc: Point, first: usize| {
            for i in (first..64).step_by(2) {
                let entry = Affine::lookup(&table[i / 2], digits[i]);
                acc = acc.add_affine(&entry).to_point();
            }
            acc
        };
        // Σ d[2i+1]·256^i·B, times 16, plus Σ d[2i]·256^i·B.
        let odd = add_digits(Point::identity(), 1);
        add_digits(odd.double().double().double().double(), 0)
    }

    /// Computes `[a]A + [b]B` for the basepoint B (the double-scalar
    /// multiplication of signature verification) in one pass of doublings
    /// over the width-5 NAF of `a` and the width-8 NAF of `b`. Not constant
    /// time; verification inputs are public.
    pub fn mul_double_base(a: &Scalar, point_a: &Point, b: &Scalar) -> Point {
        let (naf_a, naf_b) = (a.naf(5), b.naf(8));
        // A, 3A, …, 15A.
        let twice = point_a.double().to_cached();
        let mut multiple = *point_a;
        let mut odd_a = [multiple.to_cached(); 8];
        for entry in &mut odd_a[1..] {
            multiple = multiple.add_cached(&twice).to_point();
            *entry = multiple.to_cached();
        }
        let odd_b = &base_tables().odd;
        let mut acc = Completed::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.to_projective().double();
            let (da, db) = (naf_a[i], naf_b[i]);
            if da != 0 {
                let q = odd_a[usize::from(da.unsigned_abs() / 2)];
                acc = acc.to_point().add_cached(&if da < 0 { q.neg() } else { q });
            }
            if db != 0 {
                let q = odd_b[usize::from(db.unsigned_abs() / 2)];
                acc = acc.to_point().add_affine(&q.neg_if((db >> 7) as u64));
            }
        }
        // The last step computes T as well: the caller may add to the result.
        acc.to_point()
    }

    /// Computes `[k]P + [s]B` from P's [`CombTable`]: the same product as
    /// [`Point::mul_double_base`], walking the signed radix-16 digits of `k`
    /// and `s` column by column — digit `8r + c` of each scalar is one table
    /// addition in row r, and the columns are 16 apart: 28 shared doublings
    /// and at most 128 additions. Not constant time; verification inputs
    /// are public.
    pub fn mul_double_comb(k: &Scalar, table: &CombTable, s: &Scalar) -> Point {
        let (digits_k, digits_s) = (k.to_radix16(), s.to_radix16());
        let base = &base_tables().radix16;
        let mut acc = Completed::IDENTITY;
        for c in (0..8).rev() {
            if c < 7 {
                for _ in 0..4 {
                    acc = acc.to_projective().double();
                }
            }
            for r in 0..8 {
                let (dk, ds) = (digits_k[8 * r + c], digits_s[8 * r + c]);
                if dk != 0 {
                    acc = acc
                        .to_point()
                        .add_affine(&Affine::signed(&table.rows[r], dk));
                }
                if ds != 0 {
                    acc = acc.to_point().add_affine(&Affine::signed(&base[4 * r], ds));
                }
            }
        }
        acc.to_point()
    }

    /// Compresses to the 32-byte RFC 8032 wire format.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding; `None` if it is not a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let y = Fe::from_bytes(bytes);
        let sign = (bytes[31] >> 7) == 1;
        // Solve x^2 = (y^2 - 1) / (d*y^2 + 1).
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = D.mul(y2).add(Fe::ONE);
        // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vx2 = v.mul(x.square());
        if !vx2.ct_eq(u) {
            if vx2.ct_eq(u.neg()) {
                x = x.mul(SQRT_M1);
            } else {
                return None;
            }
        }
        if x.is_zero() && sign {
            // -0 is a non-canonical encoding.
            return None;
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        let t = x.mul(y);
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t,
        })
    }

    /// Equality in the group (projective comparison).
    pub fn eq_point(&self, other: &Point) -> bool {
        // X1/Z1 == X2/Z2  <=>  X1*Z2 == X2*Z1, likewise for Y.
        self.x.mul(other.z).ct_eq(other.x.mul(self.z))
            && self.y.mul(other.z).ct_eq(other.y.mul(self.z))
    }

    /// True if this is the neutral element.
    pub fn is_identity(&self) -> bool {
        self.eq_point(&Point::identity())
    }

    /// Multiplies by the cofactor (8) — used to reject small-order components.
    pub fn mul_by_cofactor(&self) -> Point {
        self.double().double().double()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let b = Point::basepoint();
        assert!(b.add(&Point::identity()).eq_point(&b));
        assert!(Point::identity().add(&b).eq_point(&b));
    }

    #[test]
    fn double_matches_add() {
        let b = Point::basepoint();
        assert!(b.double().eq_point(&b.add(&b)));
        let b4 = b.double().double();
        assert!(b4.eq_point(&b.add(&b).add(&b).add(&b)));
    }

    #[test]
    fn neg_cancels() {
        let b = Point::basepoint();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn compress_roundtrip() {
        let b = Point::basepoint();
        let p = b.double().add(&b); // 3B
        let enc = p.compress();
        let q = Point::decompress(&enc).expect("valid point");
        assert!(p.eq_point(&q));
        assert_eq!(q.compress(), enc);
    }

    #[test]
    fn basepoint_has_order_l() {
        // [L]B == identity.
        let l_bytes = Scalar::order_minus_one();
        let lb = Point::basepoint().mul(&l_bytes);
        // [L-1]B == -B
        assert!(lb.eq_point(&Point::basepoint().neg()));
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = Point::basepoint();
        let k = Scalar::from_u64(17);
        let mut acc = Point::identity();
        for _ in 0..17 {
            acc = acc.add(&b);
        }
        assert!(b.mul(&k).eq_point(&acc));
    }

    #[test]
    fn mul_distributes_over_add() {
        let b = Point::basepoint();
        let k5 = Scalar::from_u64(5);
        let k7 = Scalar::from_u64(7);
        let k12 = Scalar::from_u64(12);
        assert!(b.mul(&k5).add(&b.mul(&k7)).eq_point(&b.mul(&k12)));
    }

    #[test]
    fn constant_basepoint_is_the_decompressed_encoding() {
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        let b = Point::decompress(&enc).expect("the standard basepoint decompresses");
        for (literal, computed) in [(BASEPOINT.x, b.x), (BASEPOINT.y, b.y), (BASEPOINT.t, b.t)] {
            assert!(literal.ct_eq(computed));
            assert_eq!(Fe::from_bytes(&literal.to_bytes()).0, literal.0);
        }
        assert_eq!(BASEPOINT.z.0, Fe::ONE.0);
        assert_eq!(BASEPOINT.compress(), enc);
    }

    /// Pins what `decompress` does today with the encodings RFC 8032 calls
    /// non-canonical: `x = 0` with the sign bit is refused; `y >= p`
    /// (p + 0 … p + 18) is taken as `y mod p`.
    #[test]
    fn decompress_refuses_negative_zero_and_reduces_large_y() {
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut minus_one = [0xffu8; 32];
        (minus_one[0], minus_one[31]) = (0xec, 0x7f);
        for mut enc in [one, minus_one] {
            assert!(Point::decompress(&enc).is_some());
            enc[31] |= 0x80;
            assert!(Point::decompress(&enc).is_none());
        }
        let mut taken = 0;
        for k in 0..19u8 {
            for sign in [0u8, 0x80] {
                let mut large = [0xffu8; 32];
                (large[0], large[31]) = (0xed + k, 0x7f | sign);
                let mut reduced = [0u8; 32];
                (reduced[0], reduced[31]) = (k, sign);
                let got = Point::decompress(&large).map(|p| p.compress());
                assert_eq!(got, Point::decompress(&reduced).map(|p| p.compress()));
                assert_eq!(got.is_some().then_some(reduced), got, "y = p + {k}");
                taken += usize::from(got.is_some());
            }
        }
        // At least (±sqrt(-1), 0) and (0, 1).
        assert!(taken >= 3);
    }

    #[test]
    fn decompress_rejects_non_points() {
        // y = 7 does not correspond to a curve point on edwards25519... check
        // by construction: flip through candidate ys and require decompress to
        // be internally consistent when it succeeds.
        let mut found_invalid = false;
        for yv in 2u64..40 {
            let mut enc = Fe::from_u64(yv).to_bytes();
            enc[31] &= 0x7f;
            match Point::decompress(&enc) {
                Some(p) => assert_eq!(p.compress()[..31], enc[..31]),
                None => found_invalid = true,
            }
        }
        assert!(found_invalid, "expected at least one non-point y in range");
    }
}
