//! Ed25519 signatures per RFC 8032, implemented from scratch.
//!
//! The only backend a multi-process deployment may use (certificates, chain
//! self-verification, fork prevention); single-process simulations may swap
//! in the cheap [`crate::sim_signer`] backend with identical semantics.
//!
//! Scalar multiplication is the standard fast kind, kept auditable: curve
//! constants are literals, signing multiplies the basepoint through a
//! radix-16 table ([`Point::mul_base`]: 64 additions, 4 doublings, no branch
//! or table index that depends on the secret scalar), and verification checks
//! the cofactored equation `[8]([s]B - [k]A - R) = 0`, variable time (its
//! inputs are public). The first time a key is seen, that takes one pass of
//! 256 doublings over two non-adjacent forms ([`Point::mul_double_base`]).
//! Once two signatures under the key have verified, [`cache`] keeps the
//! key's comb table (64 affine multiples of `−A`, 7 680 B), and later
//! signatures under it go through [`Point::mul_double_comb`]: 28 doublings
//! and at most 128 additions, with no decompression of A. An invalid
//! signature never admits a key, and a key that signs once costs a set
//! insert, not a table; the second valid signature costs one table build,
//! about 1.1 first-sighting verifications. The cache admits at most
//! [`cache::CAPACITY`] keys (7.9 MB) and then stops, so a process builds at
//! most that many tables. Measured on a 2-vCPU x86-64 host, 310-byte
//! message, when quiet: sign 27 µs, verify 62 µs on first sighting and 35
//! µs cached (a busy host measured 45–52, 97–117 and 51–67). The reduction
//! mod L (binary long division in `scalar.rs`, 2–4 µs a call: three per
//! signature, one per verification) still branches on secret bits; the
//! 4-bit ladder [`Point::mul`] remains as the general routine and as the
//! reference the fast paths are tested against.
//!
//! Verified against the RFC 8032 test vectors in the unit tests below, which
//! also pin the accepted set to the two-ladder `verify` this one replaced.

pub mod cache;
pub mod field;
pub mod point;
pub mod scalar;

use crate::sha512::Sha512;
use point::Point;
use scalar::Scalar;

/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// An Ed25519 signing key, expanded from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    scalar: Scalar,
    prefix: [u8; 32],
    public: [u8; PUBLIC_KEY_LEN],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        f.debug_struct("SigningKey")
            .field("public", &crate::hex(&self.public))
            .finish_non_exhaustive()
    }
}

impl SigningKey {
    /// Derives the signing key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(seed);
        let digest = h.finalize();
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&digest[..32]);
        // Clamp per RFC 8032.
        scalar_bytes[0] &= 0xf8;
        scalar_bytes[31] &= 0x7f;
        scalar_bytes[31] |= 0x40;
        let scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);
        let public = Point::mul_base(&scalar).compress();
        SigningKey {
            seed: *seed,
            scalar,
            prefix,
            public,
        }
    }

    /// The corresponding 32-byte public key.
    pub fn public_key(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.public
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// Signs `msg`, producing a 64-byte signature (RFC 8032 §5.1.6).
    pub fn sign(&self, msg: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_wide_bytes(&h.finalize());
        let big_r = Point::mul_base(&r).compress();

        let mut h = Sha512::new();
        h.update(&big_r);
        h.update(&self.public);
        h.update(msg);
        let k = Scalar::from_wide_bytes(&h.finalize());

        let s = k.mul_add(self.scalar, r);
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&big_r);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }
}

/// Verifies an Ed25519 signature (RFC 8032 §5.1.7, with the canonical-`s`
/// malleability check). Under a key that has signed validly before, the
/// check runs through the key's cached comb table; see [`cache`].
pub fn verify(public_key: &[u8; PUBLIC_KEY_LEN], msg: &[u8], sig: &[u8; SIGNATURE_LEN]) -> bool {
    verify_with(cache::keys(), public_key, msg, sig)
}

/// [`verify`] against the given cache: through the comb if `public_key` is
/// in it, else the slow way, noting the key with the cache if the
/// signature holds.
fn verify_with(
    keys: &cache::KeyCache,
    public_key: &[u8; PUBLIC_KEY_LEN],
    msg: &[u8],
    sig: &[u8; SIGNATURE_LEN],
) -> bool {
    if let Some(table) = keys.get(public_key) {
        return parse(public_key, msg, sig).is_some_and(|(s, big_r, k)| {
            is_cofactored_zero(Point::mul_double_comb(&k, &table, &s), &big_r)
        });
    }
    let a = verify_first_sighting(public_key, msg, sig);
    if let Some(a) = &a {
        keys.note_valid(public_key, a);
    }
    a.is_some()
}

/// The uncached check, through [`Point::mul_double_base`]: the decompressed
/// A if the signature holds.
fn verify_first_sighting(
    public_key: &[u8; PUBLIC_KEY_LEN],
    msg: &[u8],
    sig: &[u8; SIGNATURE_LEN],
) -> Option<Point> {
    let a = Point::decompress(public_key)?;
    let (s, big_r, k) = parse(public_key, msg, sig)?;
    is_cofactored_zero(Point::mul_double_base(&k, &a.neg(), &s), &big_r).then_some(a)
}

/// `(s, R, k = H(R ‖ A ‖ M))` of a signature; `None` if `s` is not
/// canonical or R is not a point.
fn parse(
    public_key: &[u8; PUBLIC_KEY_LEN],
    msg: &[u8],
    sig: &[u8; SIGNATURE_LEN],
) -> Option<(Scalar, Point, Scalar)> {
    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&sig[..32]);
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&sig[32..]);
    let s = Scalar::from_canonical_bytes(&s_bytes)?;
    let big_r = Point::decompress(&r_bytes)?;

    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(public_key);
    h.update(msg);
    Some((s, big_r, Scalar::from_wide_bytes(&h.finalize())))
}

/// Checks `[8]([s]B - [k]A - R) == 0` given `[s]B - [k]A`, i.e. [8][s]B ==
/// [8]R + [8][k]A, to tolerate small-order components the same way
/// batchable verifiers do.
fn is_cofactored_zero(sb_minus_ka: Point, big_r: &Point) -> bool {
    sb_minus_ka
        .add(&big_r.neg())
        .mul_by_cofactor()
        .is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_sim::rng::SimRng;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn arr32(v: &[u8]) -> [u8; 32] {
        v.try_into().expect("32 bytes")
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed = arr32(&unhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.public_key().to_vec(),
            unhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = key.sign(b"");
        assert_eq!(
            sig.to_vec(),
            unhex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(verify(&key.public_key(), b"", &sig));
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test2() {
        let seed = arr32(&unhex(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.public_key().to_vec(),
            unhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = unhex("72");
        let sig = key.sign(&msg);
        assert_eq!(
            sig.to_vec(),
            unhex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(verify(&key.public_key(), &msg, &sig));
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test3() {
        let seed = arr32(&unhex(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.public_key().to_vec(),
            unhex("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let msg = unhex("af82");
        let sig = key.sign(&msg);
        assert_eq!(
            sig.to_vec(),
            unhex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(verify(&key.public_key(), &msg, &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"pay alice 10 coins");
        assert!(verify(&key.public_key(), b"pay alice 10 coins", &sig));
        assert!(!verify(&key.public_key(), b"pay alice 99 coins", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let mut sig = key.sign(b"message");
        sig[10] ^= 0x01;
        assert!(!verify(&key.public_key(), b"message", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let key_a = SigningKey::from_seed(&[1u8; 32]);
        let key_b = SigningKey::from_seed(&[2u8; 32]);
        let sig = key_a.sign(b"message");
        assert!(!verify(&key_b.public_key(), b"message", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Take a valid signature and add L to s: must be rejected.
        let key = SigningKey::from_seed(&[3u8; 32]);
        let mut sig = key.sign(b"m");
        let s_plus_l = plus_l(&sig[32..]);
        sig[32..].copy_from_slice(&s_plus_l);
        assert!(!verify(&key.public_key(), b"m", &sig));
    }

    /// `verify` as it stood before the one-pass rewrite — two 4-bit ladders
    /// and a projective comparison of the cofactored sides: the oracle the
    /// accepted set is pinned to.
    fn verify_reference(public_key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
        let r_bytes = arr32(&sig[..32]);
        let Some(s) = Scalar::from_canonical_bytes(&arr32(&sig[32..])) else {
            return false;
        };
        let Some(a) = Point::decompress(public_key) else {
            return false;
        };
        let Some(big_r) = Point::decompress(&r_bytes) else {
            return false;
        };
        let k = hash_to_scalar(&[&r_bytes, public_key, msg]);
        let sb = Point::basepoint().mul(&s);
        let rhs = big_r.add(&a.mul(&k));
        sb.mul_by_cofactor().eq_point(&rhs.mul_by_cofactor())
    }

    fn hash_to_scalar(parts: &[&[u8]]) -> Scalar {
        let mut h = Sha512::new();
        for part in parts {
            h.update(part);
        }
        Scalar::from_wide_bytes(&h.finalize())
    }

    /// The signature `(R, r + H(R ‖ A ‖ M)·a)` over any encodings of R and
    /// A: what a signer that picks its own (mixed-order, non-canonical)
    /// encodings produces. It satisfies the cofactored equation whenever
    /// `R = [r]B + T` and `A = [a]B + T'` for small-order T, T'.
    fn craft(a: Scalar, r: Scalar, a_enc: &[u8; 32], r_enc: &[u8; 32], msg: &[u8]) -> [u8; 64] {
        let s = hash_to_scalar(&[r_enc, a_enc, msg]).mul_add(a, r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }

    fn random32(rng: &mut SimRng) -> [u8; 32] {
        let mut out = [0u8; 32];
        rng.fill_bytes(&mut out);
        out
    }

    fn random_scalar(rng: &mut SimRng) -> Scalar {
        Scalar::from_bytes_mod_order(&random32(rng))
    }

    /// The eight points of order dividing 8: the multiples of `T = [L]P` for
    /// a seeded `P` whose `T` has order 8. The last is the identity.
    fn small_order_points(rng: &mut SimRng) -> [Point; 8] {
        loop {
            let Some(p) = Point::decompress(&random32(rng)) else {
                continue;
            };
            let t = p.mul(&Scalar::order_minus_one()).add(&p);
            if t.double().double().is_identity() {
                continue;
            }
            let mut out = [t; 8];
            for i in 1..8 {
                out[i] = out[i - 1].add(&t);
            }
            assert!(out[7].is_identity() && !out[3].is_identity());
            return out;
        }
    }

    /// One input to `verify`, with the verdict the case was built to get
    /// (`None`: whatever the reference says).
    struct Case {
        class: &'static str,
        public: [u8; 32],
        msg: Vec<u8>,
        sig: [u8; 64],
        expect: Option<bool>,
    }

    fn flip_bit(bytes: &mut [u8], rng: &mut SimRng) {
        let bit = rng.gen_range(bytes.len() as u64 * 8) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// `s + L` as 32 little-endian bytes (`s < L < 2^253`: it always fits).
    fn plus_l(s: &[u8]) -> [u8; 32] {
        let mut l_bytes = Scalar::order_minus_one().to_bytes();
        l_bytes[0] += 1;
        let mut out = [0u8; 32];
        let mut carry = 0u16;
        for i in 0..32 {
            let v = u16::from(s[i]) + u16::from(l_bytes[i]) + carry;
            out[i] = v as u8;
            carry = v >> 8;
        }
        assert_eq!(carry, 0);
        out
    }

    fn accept_set_cases() -> Vec<Case> {
        let mut rng = SimRng::seed_from_u64(0xacce97);
        let mut cases = Vec::new();
        let mut push = |class, public: [u8; 32], msg: &[u8], sig: [u8; 64], expect| {
            cases.push(Case {
                class,
                public,
                msg: msg.to_vec(),
                sig,
                expect,
            });
        };
        let small = small_order_points(&mut rng);
        let base = Point::basepoint();

        // Honest signatures; one flipped bit in R, S, A or the message;
        // S + L and S = L.
        for i in 0..100 {
            let key = SigningKey::from_seed(&random32(&mut rng));
            let msg = rng.gen_bytes(1 + i % 90);
            let (public, sig) = (key.public_key(), key.sign(&msg));
            push("valid", public, &msg, sig, Some(true));
            let mut bad = sig;
            flip_bit(&mut bad[..32], &mut rng);
            push("bit flip in R", public, &msg, bad, Some(false));
            let mut bad = sig;
            flip_bit(&mut bad[32..], &mut rng);
            push("bit flip in S", public, &msg, bad, Some(false));
            let mut bad = public;
            flip_bit(&mut bad, &mut rng);
            push("bit flip in A", bad, &msg, sig, Some(false));
            let mut bad = msg.clone();
            flip_bit(&mut bad, &mut rng);
            push("bit flip in M", public, &bad, sig, Some(false));
            let mut bad = sig;
            bad[32..].copy_from_slice(&plus_l(&sig[32..]));
            push("S + L", public, &msg, bad, Some(false));
            if i < 20 {
                bad[32..].copy_from_slice(&plus_l(&[0u8; 32]));
                push("S = L", public, &msg, bad, Some(false));
            }
        }

        // Small-order and mixed-order A and R. The cofactored equation
        // accepts `craft`'s signatures over them; a flipped message bit
        // must still fail wherever A keeps a prime-order part.
        for (i, t_a) in small.iter().enumerate() {
            for (j, t_r) in small.iter().enumerate() {
                let (a, r) = (random_scalar(&mut rng), random_scalar(&mut rng));
                let msg = rng.gen_bytes(1 + 8 * i + j);
                let (a_small, r_small) = (t_a.compress(), t_r.compress());
                let a_mixed = base.mul(&a).add(t_a).compress();
                let r_mixed = base.mul(&r).add(t_r).compress();
                let sig = craft(Scalar::ZERO, r, &a_small, &r_mixed, &msg);
                push("small-order A", a_small, &msg, sig, Some(true));
                let sig = craft(Scalar::ZERO, Scalar::ZERO, &a_small, &r_small, &msg);
                push("small-order A and R", a_small, &msg, sig, Some(true));
                let sig = craft(a, r, &a_mixed, &r_mixed, &msg);
                push("mixed-order A and R", a_mixed, &msg, sig, Some(true));
                let mut bad = msg.clone();
                flip_bit(&mut bad, &mut rng);
                push("mixed-order, flipped M", a_mixed, &bad, sig, Some(false));
                if j < 4 {
                    let public = base.mul(&a).compress();
                    let sig = craft(a, Scalar::ZERO, &public, &r_small, &msg);
                    push("small-order R", public, &msg, sig, Some(true));
                    let sig = SigningKey::from_seed(&random32(&mut rng)).sign(&msg);
                    push("small-order A, honest sig", a_small, &msg, sig, None);
                }
            }
        }

        // Encodings `decompress` must refuse or reduce: non-points, x = 0
        // with the sign bit (y = 1 and y = -1), y >= p (p + 0 … p + 18, with
        // either sign bit). Each stands once as A and once as R, under the
        // signature that would pass if the encoding were taken as small-order.
        let mut odd = Vec::new();
        while odd.len() < 30 {
            let enc = random32(&mut rng);
            if Point::decompress(&enc).is_none() {
                odd.push(("non-point", enc, Some(false)));
            }
        }
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        let mut one = [0u8; 32];
        one[0] = 1;
        one[31] = 0x80;
        for enc in [one, minus_one] {
            for _ in 0..4 {
                odd.push(("x = 0 with sign bit", enc, Some(false)));
            }
        }
        for k in 0..19u8 {
            for sign in [0x7f, 0xff] {
                let mut enc = [0xffu8; 32];
                enc[0] = 0xed + k; // p = 2^255 - 19 ends in 0xed
                enc[31] = sign;
                odd.push(("y >= p", enc, None));
            }
        }
        for (class, enc, expect) in odd {
            let (a, r) = (random_scalar(&mut rng), random_scalar(&mut rng));
            let msg = rng.gen_bytes(20);
            let r_enc = base.mul(&r).compress();
            let sig = craft(Scalar::ZERO, r, &enc, &r_enc, &msg);
            push(class, enc, &msg, sig, expect);
            let public = base.mul(&a).compress();
            let sig = craft(a, Scalar::ZERO, &public, &enc, &msg);
            push(class, public, &msg, sig, expect);
        }
        cases
    }

    /// The accepted set did not move, on either path: on every class of
    /// input above, each case verified three times against one cache (the
    /// slow way twice, then the comb wherever the second call admitted the
    /// key) and once uncached answers what the reference answers; and so
    /// does the comb once every key that decompresses has been admitted.
    #[test]
    fn verify_agrees_with_reference_on_every_edge_class() {
        let cases = accept_set_cases();
        assert!(cases.len() >= 1000, "{} cases", cases.len());
        let keys = cache::KeyCache::new(cases.len());
        let mut accepted = std::collections::BTreeMap::new();
        let mut signed_validly = std::collections::HashSet::new();
        for (i, case) in cases.iter().enumerate() {
            let (public, msg, sig) = (&case.public, &case.msg[..], &case.sig);
            let want = verify_reference(public, msg, sig);
            for call in 1..=3 {
                let got = verify_with(&keys, public, msg, sig);
                assert_eq!(got, want, "case {i} ({}), call {call}", case.class);
            }
            let slow = verify_first_sighting(public, msg, sig).is_some();
            assert_eq!(slow, want, "case {i} ({}), uncached", case.class);
            if let Some(expect) = case.expect {
                assert_eq!(want, expect, "case {i} ({})", case.class);
            }
            *accepted.entry(case.class).or_insert(0usize) += usize::from(want);
            if want {
                signed_validly.insert(*public);
            }
        }
        // y = p and y = p + 1 are the order-4 points (±sqrt(-1), 0) and the
        // identity under a second name: taken as y mod p, they pass.
        assert!(accepted["y >= p"] >= 6, "{accepted:?}");

        // A key is in the cache exactly when a signature under it verified.
        for case in &cases {
            let admitted = keys.get(&case.public).is_some();
            let valid = signed_validly.contains(&case.public);
            assert_eq!(admitted, valid, "{}", case.class);
        }
        for case in &cases {
            if let Some(a) = Point::decompress(&case.public) {
                keys.admit(&case.public, &a);
            }
        }
        for (i, case) in cases.iter().enumerate() {
            let (public, msg, sig) = (&case.public, &case.msg[..], &case.sig);
            if keys.get(public).is_some() {
                let got = verify_with(&keys, public, msg, sig);
                let want = verify_reference(public, msg, sig);
                assert_eq!(got, want, "case {i} ({}), comb", case.class);
            }
        }
    }

    /// The comb computes `[k]P + [s]B` exactly as the NAF pass does, on
    /// seeded scalars and on points with and without small-order parts.
    #[test]
    fn mul_double_comb_matches_mul_double_base() {
        let mut rng = SimRng::seed_from_u64(0xc0b);
        let small = small_order_points(&mut rng);
        let base = Point::basepoint();
        let mut points: Vec<Point> = small.to_vec();
        for t in &small {
            let p = base.mul(&random_scalar(&mut rng));
            points.extend([p, p.add(t), p.neg().add(t)]);
        }
        let edges = [Scalar::ZERO, Scalar::ONE, Scalar::order_minus_one()];
        for (i, p) in points.iter().enumerate() {
            let table = point::CombTable::new(p);
            let mut pairs: Vec<(Scalar, Scalar)> = (0..8)
                .map(|_| (random_scalar(&mut rng), random_scalar(&mut rng)))
                .collect();
            pairs.extend(
                edges
                    .iter()
                    .flat_map(|&k| edges.iter().map(move |&s| (k, s))),
            );
            for (k, s) in pairs {
                let comb = Point::mul_double_comb(&k, &table, &s);
                let naf = Point::mul_double_base(&k, p, &s);
                assert!(comb.eq_point(&naf), "point {i}, k {k:?}, s {s:?}");
            }
        }
    }

    /// A key is admitted on its second valid signature, never on one valid
    /// signature or on any number of bad ones; the cache stops at its
    /// capacity, and the seen-once set never passes it.
    #[test]
    fn key_cache_admits_on_the_second_valid_signature_up_to_capacity() {
        const CAP: usize = 8;
        let keys = cache::KeyCache::new(CAP);
        let mut rng = SimRng::seed_from_u64(0xb0d);
        let mut fresh = || {
            let key = SigningKey::from_seed(&random32(&mut rng));
            (key.public_key(), key.sign(b"fresh"))
        };
        for i in 0..10 * CAP {
            let (public, sig) = fresh();
            assert!(verify_with(&keys, &public, b"fresh", &sig));
            assert!(keys.get(&public).is_none(), "one-shot key {i} admitted");
            assert!(keys.seen_once_len() <= CAP, "one-shot key {i}");
        }
        assert_eq!(keys.len(), 0);
        for i in 0..10 * CAP {
            let (public, mut sig) = fresh();
            sig[40] ^= 1;
            for _ in 0..3 {
                assert!(!verify_with(&keys, &public, b"fresh", &sig));
            }
            assert!(
                keys.get(&public).is_none(),
                "key {i} admitted on bad signatures"
            );
            sig[40] ^= 1;
            for call in 1..=3 {
                assert!(verify_with(&keys, &public, b"fresh", &sig));
                let cached = keys.get(&public).is_some();
                assert_eq!(cached, call >= 2 && i < CAP, "key {i}, call {call}");
            }
            assert!(keys.len() <= CAP, "{} keys after key {i}", keys.len());
            assert!(keys.seen_once_len() <= CAP, "key {i}");
        }
        assert_eq!(keys.len(), CAP);
        // Two verifiers racing past the fullness check still keep the bound.
        let (public, _) = fresh();
        keys.admit(&public, &Point::decompress(&public).expect("a key"));
        assert_eq!(keys.len(), CAP);
    }

    /// Fixed-base key derivation and signing are byte-identical to the same
    /// computation with `[a]B` and `[r]B` from the 4-bit ladder.
    #[test]
    fn keys_and_signatures_match_the_ladder_reference() {
        let mut rng = SimRng::seed_from_u64(0x519);
        let base = Point::basepoint();
        for i in 0..500 {
            let key = SigningKey::from_seed(&random32(&mut rng));
            let msg = rng.gen_bytes(i % 120);
            let public = base.mul(&key.scalar).compress();
            let r = hash_to_scalar(&[&key.prefix, &msg]);
            let big_r = base.mul(&r).compress();
            assert_eq!(key.public_key(), public, "pair {i}");
            let sig = craft(key.scalar, r, &public, &big_r, &msg);
            assert_eq!(key.sign(&msg), sig, "pair {i}");
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let key = SigningKey::from_seed(&[5u8; 32]);
        assert_eq!(key.sign(b"x"), key.sign(b"x"));
        assert_ne!(key.sign(b"x"), key.sign(b"y"));
    }
}
