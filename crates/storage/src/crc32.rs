//! CRC-32 (IEEE 802.3 polynomial) guarding WAL frames, run data blocks,
//! run tails and the MANIFEST.
//!
//! Implemented locally so the storage engine stays dependency-free. The
//! loop is slicing-by-8: eight input bytes fold into the state per step
//! through eight independent table lookups, instead of one byte per
//! dependent lookup. Polynomial, initial value, final xor and therefore
//! every checksum on disk are the classic byte-at-a-time CRC-32's; the
//! tests keep that loop as the oracle.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC
/// state after byte `i` followed by `k` zero bytes, so byte `j` of an
/// eight-byte word is looked up in `TABLES[7 - j]`.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Compute the CRC-32 of `data` in one shot.
pub fn checksum(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Start a fresh checksum computation.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The byte-at-a-time CRC-32 every checksum on disk was written
    /// with, table and all: the oracle the slicing-by-8 loop must match.
    fn bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            let idx = ((state ^ b as u32) & 0xFF) as usize;
            state = (state >> 8) ^ table[idx];
        }
        state ^ 0xFFFF_FFFF
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Hasher::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), checksum(data));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(checksum(b"fnjv:1"), checksum(b"fnjv:2"));
    }

    /// The on-disk-format guard: WAL frames, run blocks, run tails and
    /// the MANIFEST all carry this checksum, so every length (each
    /// alignment of the eight-byte loop and its tail) must agree with
    /// the byte-at-a-time oracle.
    #[test]
    fn slicing_by_8_equals_bytewise_at_every_length() {
        let data = random_bytes(0x5EED, 2048);
        for len in 0..=data.len() {
            let d = &data[..len];
            assert_eq!(checksum(d), bytewise(d), "length {len}");
        }
    }

    #[test]
    fn incremental_update_equals_bytewise_at_every_split() {
        for len in [1usize, 7, 8, 9, 4096] {
            let data = random_bytes(len as u64, len);
            let want = bytewise(&data);
            for split in 0..=len {
                let mut h = Hasher::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), want, "length {len}, split at {split}");
            }
        }
    }
}
