//! CRC-32/ISO-HDLC (the zlib polynomial), table-driven slicing-by-8.
//!
//! One checksum guards every durable byte in the workspace: `.twgc` chunk,
//! directory and footer checksums, journal frames and checkpoint records.
//! The tables are built at compile time from the reflected polynomial
//! `0xEDB8_8320`; eight of them let the inner loop fold eight input bytes
//! per step instead of one bit, with results identical to the bitwise
//! definition (the tests compare against it).
//!
//! # Examples
//!
//! ```
//! use twig_types::crc::{crc32, Crc32};
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! let mut hasher = Crc32::new();
//! hasher.update(b"1234");
//! hasher.update(b"56789");
//! assert_eq!(hasher.finish(), 0xCBF4_3926);
//! ```

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// Incremental CRC-32: [`update`](Crc32::update) over consecutive slices
/// gives the checksum of their concatenation without materializing it.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A hasher over the empty input.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_proptest::prelude::*;

    /// The bitwise definition the tables are derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Slicing-by-8 equals the bitwise definition on any buffer, and
        /// the incremental form equals the one-shot form at any split.
        #[test]
        fn matches_bitwise_reference_at_every_split(
            bytes in prop::collection::vec(any::<u8>(), 0..4097),
            a in 0usize..4097,
            b in 0usize..4097,
        ) {
            let expected = crc32_bitwise(&bytes);
            prop_assert_eq!(crc32(&bytes), expected);
            let (mut lo, mut hi) = (a.min(bytes.len()), b.min(bytes.len()));
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let mut hasher = Crc32::new();
            hasher.update(&bytes[..lo]);
            hasher.update(&bytes[lo..hi]);
            hasher.update(&bytes[hi..]);
            prop_assert_eq!(hasher.finish(), expected);
        }
    }
}
