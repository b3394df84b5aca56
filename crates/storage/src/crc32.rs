//! CRC-32 (IEEE 802.3 polynomial) for record framing.
//!
//! Slicing-by-8: eight 256-entry tables fold eight input bytes per step
//! instead of one, with the same CRC-32/IEEE values as the bytewise
//! algorithm. [`Crc32`] is the incremental form, so a checksum can cover
//! several buffers without concatenating them.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// An incremental CRC-32: `update` with each piece, then `finish`.
/// Feeding `a` then `b` gives `checksum(a ‖ b)`.
///
/// # Examples
///
/// ```
/// use smartchain_storage::crc32::{checksum, Crc32};
/// let mut crc = Crc32::new();
/// crc.update(b"12345");
/// crc.update(b"6789");
/// assert_eq!(crc.finish(), checksum(b"123456789"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: 0xffff_ffff }
    }
}

impl Crc32 {
    /// The checksum of no bytes so far.
    pub fn new() -> Crc32 {
        Crc32::default()
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// Computes the CRC-32 checksum of `data`.
///
/// # Examples
///
/// ```
/// assert_eq!(smartchain_storage::crc32::checksum(b"123456789"), 0xcbf43926);
/// ```
pub fn checksum(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bitwise CRC-32, independent of the tables.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xffff_ffff
    }

    fn bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"123456789"), 0xcbf43926);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414fa339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        let data = bytes(1024);
        for n in 0..=data.len() {
            assert_eq!(checksum(&data[..n]), reference(&data[..n]), "length {n}");
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        let data = bytes(300);
        let whole = reference(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = checksum(b"block-payload");
        let b = checksum(b"block-pbyload");
        assert_ne!(a, b);
    }
}
