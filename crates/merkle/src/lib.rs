//! Binary Merkle trees over SHA-256 — the commitment subsystem.
//!
//! One tree shape, three access patterns:
//!
//! * [`root`] / [`prove`] / [`verify`] — one-shot roots and membership
//!   proofs over a list of leaves (block transaction and result
//!   commitments).
//! * [`MerkleTree`] — incremental append: the binary-carry peak set (one
//!   peak per set bit of the leaf count, bagged right-to-left) produces
//!   the *same* root as a full rebuild, in O(log n) memory.
//! * [`chunked_root`] / [`prove_chunk`] / [`prove_range`] — fixed-size
//!   chunking of an opaque byte string (application snapshots), with
//!   single-chunk membership proofs and contiguous range proofs, so a
//!   shipped snapshot can be verified chunk-by-chunk against a certified
//!   state root.
//!
//! Leaves and interior nodes are domain-separated (`0x00`/`0x01` prefixes)
//! and odd nodes are promoted unchanged — Bitcoin-style duplication would
//! enable CVE-2012-2459-class mutations (the unit tests pin this). The resulting
//! tree is the RFC 6962 shape: the root of `n > 1` leaves splits at the
//! largest power of two strictly below `n`.

use smartchain_codec::codec_struct;
use smartchain_crypto::sha256;

/// 32-byte hash value.
pub type Hash = [u8; 32];

const LEAF_PREFIX: &[u8] = b"\x00";
const NODE_PREFIX: &[u8] = b"\x01";

/// Chunk size (bytes) used for snapshot state roots throughout the
/// workspace. One leaf per 256-byte chunk keeps proofs log-sized while a
/// tampered byte invalidates exactly one identifiable chunk.
pub const STATE_CHUNK: usize = 256;

/// Hashes a leaf with domain separation from interior nodes.
pub fn leaf_hash(data: &[u8]) -> Hash {
    sha256::digest_parts(&[LEAF_PREFIX, data])
}

/// Hashes an interior node.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    sha256::digest_parts(&[NODE_PREFIX, left, right])
}

/// Computes the Merkle root of a list of leaves.
///
/// The empty list hashes to `leaf_hash(b"")` so that every input has a
/// well-defined root. Odd levels promote the unpaired node unchanged
/// (Bitcoin-style duplication would enable CVE-2012-2459-class mutations).
pub fn root(leaves: &[Vec<u8>]) -> Hash {
    root_of_hashes(leaves.iter().map(|l| leaf_hash(l)).collect())
}

fn root_of_hashes(mut level: Vec<Hash>) -> Hash {
    if level.is_empty() {
        return leaf_hash(b"");
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(node_hash(&pair[0], &pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// A Merkle inclusion proof: the sibling hashes from leaf to root, with a
/// direction flag (`true` = sibling is on the right).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes bottom-up; the flag is true when the sibling sits to
    /// the right of the running hash.
    pub path: Vec<(Hash, bool)>,
}

codec_struct!(Proof { index, path });

/// Builds an inclusion proof for `leaves[index]`.
///
/// # Panics
///
/// Panics if `index >= leaves.len()`.
pub fn prove(leaves: &[Vec<u8>], index: usize) -> Proof {
    prove_hashes(leaves.iter().map(|l| leaf_hash(l)).collect(), index)
}

fn prove_hashes(mut level: Vec<Hash>, index: usize) -> Proof {
    assert!(index < level.len(), "proof index out of range");
    let mut idx = index;
    let mut path = Vec::new();
    while level.len() > 1 {
        let sibling = idx ^ 1;
        if sibling < level.len() {
            path.push((level[sibling], sibling > idx));
        }
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(node_hash(&pair[0], &pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
        idx /= 2;
    }
    Proof { index, path }
}

/// Verifies that `leaf_data` is included under `expected_root` at the proof's
/// position.
pub fn verify(expected_root: &Hash, leaf_data: &[u8], proof: &Proof) -> bool {
    let mut h = leaf_hash(leaf_data);
    for (sibling, sibling_right) in &proof.path {
        h = if *sibling_right {
            node_hash(&h, sibling)
        } else {
            node_hash(sibling, &h)
        };
    }
    &h == expected_root
}

/// An incrementally-built Merkle tree.
///
/// Appending a leaf is O(1) amortized: leaves accumulate into *peaks* — one
/// perfect subtree per set bit of the leaf count, merged binary-carry style
/// whenever two peaks reach the same height. [`MerkleTree::root`] bags the
/// peaks right-to-left, which reproduces exactly the promote-the-odd-node
/// root of a full [`root`] rebuild over the same leaves.
#[derive(Clone, Debug, Default)]
pub struct MerkleTree {
    /// `(height, hash)` peaks, heights strictly decreasing left to right.
    peaks: Vec<(u32, Hash)>,
    len: u64,
}

impl MerkleTree {
    /// An empty tree (root = `leaf_hash(b"")`, like [`root`] of no leaves).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaves appended so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one leaf (hashed with the leaf domain prefix).
    pub fn append(&mut self, leaf: &[u8]) {
        self.append_leaf_hash(leaf_hash(leaf));
    }

    /// Appends an already-hashed leaf.
    pub fn append_leaf_hash(&mut self, hash: Hash) {
        self.peaks.push((0, hash));
        while self.peaks.len() >= 2 {
            let (hb, b) = self.peaks[self.peaks.len() - 1];
            let (ha, a) = self.peaks[self.peaks.len() - 2];
            if ha != hb {
                break;
            }
            self.peaks.truncate(self.peaks.len() - 2);
            self.peaks.push((ha + 1, node_hash(&a, &b)));
        }
        self.len += 1;
    }

    /// Current root — identical to `root(&leaves_so_far)`.
    pub fn root(&self) -> Hash {
        match self.peaks.split_last() {
            None => leaf_hash(b""),
            Some(((_, last), rest)) => {
                let mut acc = *last;
                for (_, peak) in rest.iter().rev() {
                    acc = node_hash(peak, &acc);
                }
                acc
            }
        }
    }
}

/// Merkle root of `data` split into `chunk_size`-byte chunks.
pub fn chunked_root(data: &[u8], chunk_size: usize) -> Hash {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut tree = MerkleTree::new();
    for chunk in data.chunks(chunk_size) {
        tree.append(chunk);
    }
    tree.root()
}

/// Membership proof for chunk `index` of `data` under [`chunked_root`],
/// hashing the chunks in place.
///
/// # Panics
///
/// Panics if `chunk_size == 0` or chunk `index` does not exist.
pub fn prove_chunk(data: &[u8], chunk_size: usize, index: usize) -> Proof {
    assert!(chunk_size > 0, "chunk size must be positive");
    prove_hashes(data.chunks(chunk_size).map(leaf_hash).collect(), index)
}

/// A proof that a contiguous run of leaves `[start, end)` belongs to a tree
/// of `total` leaves: the subtree roots covering everything *outside* the
/// range, in recursion order over the RFC 6962 tree shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeProof {
    /// First proven leaf index.
    pub start: usize,
    /// One past the last proven leaf index.
    pub end: usize,
    /// Total number of leaves in the tree.
    pub total: usize,
    /// Subtree roots for the parts of the tree outside `[start, end)`.
    pub siblings: Vec<Hash>,
}

codec_struct!(RangeProof {
    start,
    end,
    total,
    siblings
});

/// Largest power of two strictly below `n` — the RFC 6962 split point.
fn split_point(n: usize) -> usize {
    debug_assert!(n >= 2);
    1 << (usize::BITS - 1 - (n - 1).leading_zeros())
}

/// Root of the implicit subtree over `hashes[lo..hi]`.
fn sub_root(hashes: &[Hash], lo: usize, hi: usize) -> Hash {
    if hi - lo == 1 {
        return hashes[lo];
    }
    let mid = lo + split_point(hi - lo);
    node_hash(&sub_root(hashes, lo, mid), &sub_root(hashes, mid, hi))
}

fn collect_range_siblings(
    hashes: &[Hash],
    lo: usize,
    hi: usize,
    start: usize,
    end: usize,
    out: &mut Vec<Hash>,
) {
    if lo >= start && hi <= end {
        return; // fully inside the range: the verifier recomputes this part
    }
    if hi <= start || lo >= end {
        out.push(sub_root(hashes, lo, hi)); // fully outside: one subtree root
        return;
    }
    let mid = lo + split_point(hi - lo);
    collect_range_siblings(hashes, lo, mid, start, end, out);
    collect_range_siblings(hashes, mid, hi, start, end, out);
}

/// Builds a range proof for `leaves[start..end]`.
///
/// # Panics
///
/// Panics on an empty or out-of-range interval.
pub fn prove_range(leaves: &[Vec<u8>], start: usize, end: usize) -> RangeProof {
    assert!(start < end && end <= leaves.len(), "range out of bounds");
    let hashes: Vec<Hash> = leaves.iter().map(|l| leaf_hash(l)).collect();
    let mut siblings = Vec::new();
    collect_range_siblings(&hashes, 0, leaves.len(), start, end, &mut siblings);
    RangeProof {
        start,
        end,
        total: leaves.len(),
        siblings,
    }
}

fn reconstruct_range(
    range_hashes: &[Hash],
    lo: usize,
    hi: usize,
    start: usize,
    end: usize,
    siblings: &mut std::slice::Iter<'_, Hash>,
) -> Option<Hash> {
    if lo >= start && hi <= end {
        return Some(sub_root(range_hashes, lo - start, hi - start));
    }
    if hi <= start || lo >= end {
        return siblings.next().copied();
    }
    let mid = lo + split_point(hi - lo);
    let left = reconstruct_range(range_hashes, lo, mid, start, end, siblings)?;
    let right = reconstruct_range(range_hashes, mid, hi, start, end, siblings)?;
    Some(node_hash(&left, &right))
}

/// Verifies that `range_leaves` occupy positions `[proof.start, proof.end)`
/// of a `proof.total`-leaf tree with root `expected_root`.
pub fn verify_range(expected_root: &Hash, range_leaves: &[Vec<u8>], proof: &RangeProof) -> bool {
    if proof.start >= proof.end
        || proof.end > proof.total
        || range_leaves.len() != proof.end - proof.start
    {
        return false;
    }
    let hashes: Vec<Hash> = range_leaves.iter().map(|l| leaf_hash(l)).collect();
    let mut siblings = proof.siblings.iter();
    let Some(computed) = reconstruct_range(
        &hashes,
        0,
        proof.total,
        proof.start,
        proof.end,
        &mut siblings,
    ) else {
        return false;
    };
    siblings.next().is_none() && &computed == expected_root
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_codec::Encode;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(root(&[]), leaf_hash(b""));
        let one = leaves(1);
        assert_eq!(root(&one), leaf_hash(b"leaf-0"));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = leaves(8);
        let r = root(&base);
        for i in 0..8 {
            let mut tampered = base.clone();
            tampered[i].push(b'!');
            assert_ne!(root(&tampered), r, "leaf {i}");
        }
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..20usize {
            let ls = leaves(n);
            let r = root(&ls);
            for i in 0..n {
                let p = prove(&ls, i);
                assert!(verify(&r, &ls[i], &p), "n={n} i={i}");
                // Wrong leaf data must fail.
                assert!(!verify(&r, b"bogus", &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_from_other_index_fails() {
        let ls = leaves(8);
        let r = root(&ls);
        let p = prove(&ls, 3);
        assert!(!verify(&r, &ls[4], &p));
    }

    #[test]
    fn forged_and_truncated_proofs_rejected() {
        for n in [2usize, 5, 8, 13] {
            let ls = leaves(n);
            let r = root(&ls);
            let p = prove(&ls, 1);
            // Forged sibling hash.
            let mut forged = p.clone();
            forged.path[0].0[0] ^= 0xff;
            assert!(!verify(&r, &ls[1], &forged), "n={n}");
            // Flipped direction flag.
            let mut flipped = p.clone();
            flipped.path[0].1 = !flipped.path[0].1;
            assert!(!verify(&r, &ls[1], &flipped), "n={n}");
            // Truncated path (claims a shallower tree).
            let mut truncated = p.clone();
            truncated.path.pop();
            assert!(!verify(&r, &ls[1], &truncated), "n={n}");
            // Extended path (claims a deeper tree).
            let mut extended = p.clone();
            extended.path.push(([0xab; 32], true));
            assert!(!verify(&r, &ls[1], &extended), "n={n}");
        }
    }

    #[test]
    fn unbalanced_tree_no_duplication_mutation() {
        // With promote-the-odd-node trees, [a, b, c] and [a, b, c, c] must
        // have different roots (the classic duplication bug makes them equal).
        let three = leaves(3);
        let mut four = leaves(3);
        four.push(three[2].clone());
        assert_ne!(root(&three), root(&four));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prove_out_of_range_panics() {
        prove(&leaves(3), 3);
    }

    #[test]
    fn incremental_append_matches_full_rebuild() {
        let all = leaves(65);
        let mut tree = MerkleTree::new();
        assert_eq!(tree.root(), root(&[]));
        for n in 0..all.len() {
            tree.append(&all[n]);
            assert_eq!(tree.len(), n as u64 + 1);
            assert_eq!(tree.root(), root(&all[..=n]), "n={}", n + 1);
        }
    }

    fn chunks(data: &[u8], size: usize) -> Vec<Vec<u8>> {
        data.chunks(size).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn chunked_root_equals_leaf_root() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for chunk in [1usize, 7, 64, 256, 1000, 2000] {
            assert_eq!(
                chunked_root(&data, chunk),
                root(&chunks(&data, chunk)),
                "chunk={chunk}"
            );
        }
        assert_eq!(chunked_root(&[], 256), root(&[]));
    }

    #[test]
    fn chunk_proofs_verify_and_reject_tampering() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let r = chunked_root(&data, 64);
        let leaves = chunks(&data, 64);
        for (i, chunk) in leaves.iter().enumerate() {
            let p = prove_chunk(&data, 64, i);
            assert_eq!(p, prove(&leaves, i), "chunk {i}");
            assert!(verify(&r, chunk, &p), "chunk {i}");
            let mut tampered = chunk.clone();
            tampered[0] ^= 1;
            assert!(!verify(&r, &tampered, &p), "tampered chunk {i}");
        }
    }

    #[test]
    fn range_proofs_verify_for_all_ranges() {
        for n in 1..=12usize {
            let ls = leaves(n);
            let r = root(&ls);
            for start in 0..n {
                for end in start + 1..=n {
                    let p = prove_range(&ls, start, end);
                    assert!(
                        verify_range(&r, &ls[start..end], &p),
                        "n={n} [{start},{end})"
                    );
                    // A shifted range with the same proof must fail.
                    if end < n {
                        assert!(
                            !verify_range(&r, &ls[start + 1..end + 1], &p),
                            "n={n} [{start},{end}) shifted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_proof_rejects_tampering() {
        let ls = leaves(9);
        let r = root(&ls);
        let p = prove_range(&ls, 2, 6);
        let mut tampered: Vec<Vec<u8>> = ls[2..6].to_vec();
        tampered[1][0] ^= 1;
        assert!(!verify_range(&r, &tampered, &p));
        let mut short = p.clone();
        short.siblings.pop();
        assert!(!verify_range(&r, &ls[2..6], &short));
        let mut long = p.clone();
        long.siblings.push([9; 32]);
        assert!(!verify_range(&r, &ls[2..6], &long));
    }

    #[test]
    fn proof_codec_roundtrip() {
        let ls = leaves(11);
        let p = prove(&ls, 5);
        let bytes = smartchain_codec::to_bytes(&p);
        assert_eq!(bytes.len(), p.encoded_len());
        assert_eq!(smartchain_codec::from_bytes::<Proof>(&bytes).unwrap(), p);

        let rp = prove_range(&ls, 3, 8);
        let bytes = smartchain_codec::to_bytes(&rp);
        assert_eq!(bytes.len(), rp.encoded_len());
        assert_eq!(
            smartchain_codec::from_bytes::<RangeProof>(&bytes).unwrap(),
            rp
        );
    }
}
