//! Property-based tests of the cryptographic substrate: algebraic laws of
//! the Ed25519 field/scalar arithmetic, group laws on the curve, signature
//! round-trips across backends, and Merkle proof soundness.
//!
//! Randomized inputs come from a seeded splitmix64 generator, so every run
//! exercises the same cases (the workspace carries no external test deps).

use smartchain_crypto::ed25519::field::Fe;
use smartchain_crypto::ed25519::point::Point;
use smartchain_crypto::ed25519::scalar::Scalar;
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_crypto::sha256;
use smartchain_merkle as merkle;

use smartchain_sim::rng::SimRng;

/// Seeded generator helpers over the simulator's RNG (no external crates).
struct Gen(SimRng);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SimRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn array32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.0.fill_bytes(&mut out);
        out
    }

    fn bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        let len = min + self.0.gen_range((max - min + 1) as u64) as usize;
        self.0.gen_bytes(len)
    }

    fn fe(&mut self) -> Fe {
        let mut b = self.array32();
        b[31] &= 0x7f;
        Fe::from_bytes(&b)
    }

    fn scalar(&mut self) -> Scalar {
        Scalar::from_bytes_mod_order(&self.array32())
    }
}

const CASES: usize = 64;

#[test]
fn fe_add_commutes() {
    let mut g = Gen::new(0xf1);
    for _ in 0..CASES {
        let (a, b) = (g.fe(), g.fe());
        assert!(a.add(b).ct_eq(b.add(a)));
    }
}

#[test]
fn fe_mul_commutes_and_associates() {
    let mut g = Gen::new(0xf2);
    for _ in 0..CASES {
        let (a, b, c) = (g.fe(), g.fe(), g.fe());
        assert!(a.mul(b).ct_eq(b.mul(a)));
        assert!(a.mul(b).mul(c).ct_eq(a.mul(b.mul(c))));
    }
}

#[test]
fn fe_distributes() {
    let mut g = Gen::new(0xf3);
    for _ in 0..CASES {
        let (a, b, c) = (g.fe(), g.fe(), g.fe());
        assert!(a.mul(b.add(c)).ct_eq(a.mul(b).add(a.mul(c))));
    }
}

#[test]
fn fe_sub_is_add_neg() {
    let mut g = Gen::new(0xf4);
    for _ in 0..CASES {
        let (a, b) = (g.fe(), g.fe());
        assert!(a.sub(b).ct_eq(a.add(b.neg())));
    }
}

#[test]
fn fe_inverse_law() {
    let mut g = Gen::new(0xf5);
    for _ in 0..CASES {
        let a = g.fe();
        if a.is_zero() {
            continue;
        }
        assert!(a.mul(a.invert()).ct_eq(Fe::ONE));
    }
}

#[test]
fn fe_canonical_roundtrip() {
    let mut g = Gen::new(0xf6);
    for _ in 0..CASES {
        let canon = g.fe().to_bytes();
        assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    }
}

#[test]
fn scalar_ring_laws() {
    let mut g = Gen::new(0xf7);
    for _ in 0..CASES {
        let (a, b, c) = (g.scalar(), g.scalar(), g.scalar());
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }
}

#[test]
fn scalar_bytes_roundtrip() {
    let mut g = Gen::new(0xf8);
    for _ in 0..CASES {
        let a = g.scalar();
        assert_eq!(Scalar::from_bytes_mod_order(&a.to_bytes()), a);
    }
}

#[test]
fn point_scalar_homomorphism() {
    let mut g = Gen::new(0xf9);
    let base = Point::basepoint();
    for _ in 0..16 {
        // [a]B + [b]B == [a+b]B
        let a = g.next_u64() % 1000;
        let b = g.next_u64() % 1000;
        let left = base
            .mul(&Scalar::from_u64(a))
            .add(&base.mul(&Scalar::from_u64(b)));
        let right = base.mul(&Scalar::from_u64(a + b));
        assert!(left.eq_point(&right));
    }
}

#[test]
fn point_compress_roundtrip() {
    let mut g = Gen::new(0xfa);
    for _ in 0..16 {
        let k = 1 + g.next_u64() % 5000;
        let p = Point::basepoint().mul(&Scalar::from_u64(k));
        let enc = p.compress();
        let q = Point::decompress(&enc).expect("valid encoding");
        assert!(p.eq_point(&q));
        assert_eq!(q.compress(), enc);
    }
}

/// `[k]B` from the fixed-base table and `[a]A + [b]B` from the one-pass
/// NAF loop equal the 4-bit ladder on 0, 1, 8, 2^64 - 1, L - 1 and 500
/// seeded scalars, each standing once as `a` and once as `b`. Results are
/// compared as `compress(result + B)`: `eq_point` reads X, Y, Z only, and a
/// result with a wrong T passes it and then poisons the caller's next
/// addition.
#[test]
fn fast_scalar_products_match_the_ladder() {
    let mut g = Gen::new(0xfb5);
    let base = Point::basepoint();
    let plus_b = |p: Point| p.add(&base).compress();
    let mut scalars = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(8),
        Scalar::from_u64(u64::MAX),
        Scalar::order_minus_one(),
    ];
    scalars.extend((0..500).map(|_| g.scalar()));
    // Any curve point, small-order component and all.
    let mut point_a = loop {
        if let Some(p) = Point::decompress(&g.array32()) {
            break p;
        }
    };
    let (mut b, mut b_base) = (Scalar::ZERO, Point::identity());
    for a in scalars {
        let a_base = base.mul(&a);
        assert_eq!(plus_b(Point::mul_base(&a)), plus_b(a_base), "{a:?}");
        let fast = Point::mul_double_base(&a, &point_a, &b);
        let ladder = point_a.mul(&a).add(&b_base);
        assert_eq!(plus_b(fast), plus_b(ladder), "{a:?} {b:?}");
        (b, b_base) = (a, a_base);
        point_a = point_a.double().add(&base);
    }
}

#[test]
fn signatures_roundtrip_any_message() {
    let mut g = Gen::new(0xfb);
    for _ in 0..8 {
        let msg = g.bytes(0, 200);
        let seed = g.array32();
        for backend in [Backend::Ed25519, Backend::Sim] {
            let sk = SecretKey::from_seed(backend, &seed);
            let sig = sk.sign(&msg);
            assert!(sk.public_key().verify(&msg, &sig));
        }
    }
}

#[test]
fn tampered_messages_never_verify() {
    let mut g = Gen::new(0xfc);
    let sk = SecretKey::from_seed(Backend::Ed25519, &[5u8; 32]);
    for _ in 0..8 {
        let msg = g.bytes(1, 100);
        let sig = sk.sign(&msg);
        let mut tampered = msg.clone();
        let idx = (g.next_u64() as usize) % tampered.len();
        tampered[idx] ^= 0x01;
        assert!(!sk.public_key().verify(&tampered, &sig));
    }
}

#[test]
fn merkle_proofs_sound() {
    let mut g = Gen::new(0xfd);
    for _ in 0..CASES {
        let n = 1 + (g.next_u64() as usize) % 23;
        let leaves: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0, 40)).collect();
        let root = merkle::root(&leaves);
        let index = (g.next_u64() as usize) % leaves.len();
        let proof = merkle::prove(&leaves, index);
        assert!(merkle::verify(&root, &leaves[index], &proof));
        // A proof never validates different content.
        let mut other = leaves[index].clone();
        other.push(0xff);
        assert!(!merkle::verify(&root, &other, &proof));
    }
}

#[test]
fn sha256_incremental_equals_oneshot() {
    let mut g = Gen::new(0xfe);
    for _ in 0..CASES {
        let chunk_count = (g.next_u64() as usize) % 8;
        let chunks: Vec<Vec<u8>> = (0..chunk_count).map(|_| g.bytes(0, 200)).collect();
        let mut hasher = sha256::Sha256::new();
        let mut all = Vec::new();
        for c in &chunks {
            hasher.update(c);
            all.extend_from_slice(c);
        }
        assert_eq!(hasher.finalize(), sha256::digest(&all));
    }
}
