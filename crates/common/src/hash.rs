//! Deterministic FNV-1a hashing, and the CRC-32C checksum.
//!
//! `std`'s `DefaultHasher` is seeded per process, so partition and shard
//! choices differ across runs. The trackers and the lock table instead
//! partition by this in-repo FNV-1a implementation: cheap (one multiply
//! per byte, no setup), stable across runs and platforms, and therefore
//! reproducible in benchmarks and debuggable from a log.
//!
//! [`crc32c`] (Castagnoli) checksums the WAL's frames, so a torn write
//! that leaves zeros or stale bytes inside a frame is detected instead of
//! decoded.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a [`Hasher`].
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher at the standard FNV offset basis.
    pub fn new() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Hashes raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::new();
    h.write(bytes);
    h.finish()
}

/// Hashes any `Hash` value deterministically.
pub fn fnv_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FnvHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The reflected CRC-32C (Castagnoli) polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `CRC32C_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC32C_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold in with eight lookups.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_extend(0, bytes)
}

/// Extends a CRC-32C over more bytes: `crc32c_extend(crc32c(a), b)` is
/// `crc32c` of `a` followed by `b`, so a checksum can run over a message
/// held in pieces.
pub fn crc32c_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn matches_known_crc32c_vectors() {
        // RFC 3720 (iSCSI) B.4 and the usual check value.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn crc32c_extends_across_any_split() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = crc32c(&data);
        for cut in [0, 1, 7, 8, 9, 63, 100, 200] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32c_extend(crc32c(a), b), whole, "split at {cut}");
        }
        // A single flipped bit changes the checksum.
        let mut flipped = data.clone();
        flipped[77] ^= 0x10;
        assert_ne!(crc32c(&flipped), whole);
    }

    #[test]
    fn hash_one_is_deterministic_and_spreads() {
        assert_eq!(fnv_hash_one(&(1u64, 2u64)), fnv_hash_one(&(1u64, 2u64)));
        // Adjacent keys land in different low bits often enough to shard.
        let buckets: std::collections::HashSet<u64> =
            (0..64u64).map(|i| fnv_hash_one(&i) & 63).collect();
        assert!(buckets.len() > 16, "degenerate spread: {}", buckets.len());
    }
}
