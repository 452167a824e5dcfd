//! CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) over byte
//! slices.  Every WAL record and every snapshot file carries one of these
//! checksums; recovery treats a mismatch as the torn tail of a crashed
//! write and stops replaying there.
//!
//! Hand-rolled (reflected polynomial `0xEDB8_8320`) because the build
//! environment is offline and the workspace vendors no checksum crate.  The
//! constants are the standard ones, so the on-disk format is checkable with
//! any external CRC-32 tool.
//!
//! The loop is *slicing-by-16*: sixteen 256-entry tables, where
//! `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k` zero
//! bytes, let one iteration fold 16 input bytes with 16 independent table
//! lookups instead of a 16-step serial dependency chain.  The tail (fewer
//! than 16 bytes) falls back to the classic one-table bytewise step.

const POLY: u32 = 0xEDB8_8320;
const SLICES: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A CRC-32 over data that arrives in pieces; the result equals [`crc32`]
/// of the pieces concatenated.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(!0)
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(SLICES);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][c[4] as usize]
                ^ t[10][c[5] as usize]
                ^ t[9][c[6] as usize]
                ^ t[8][c[7] as usize]
                ^ t[7][c[8] as usize]
                ^ t[6][c[9] as usize]
                ^ t[5][c[10] as usize]
                ^ t[4][c[11] as usize]
                ^ t[3][c[12] as usize]
                ^ t[2][c[13] as usize]
                ^ t[1][c[14] as usize]
                ^ t[0][c[15] as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    pub(crate) fn finish(&self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::crc32;

    /// The textbook bit-at-a-time CRC-32, kept as the oracle for the sliced
    /// implementation.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ super::POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The one-table bytewise CRC-32 the sliced loop replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ super::TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        // A deterministic, non-repeating byte pattern.
        let mut state = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..316)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                let expected = crc32_bytewise(slice);
                assert_eq!(crc32(slice), expected, "start {start} len {len}");
                if start == 0 {
                    assert_eq!(crc32_bitwise(slice), expected, "len {len}");
                }
            }
        }
    }

    #[test]
    fn pieces_checksum_like_the_whole() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 15, 16, 17, 500, 999, 1000] {
            let mut crc = super::Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"exspan-store");
        let mut corrupted = b"exspan-store".to_vec();
        corrupted[3] ^= 0x01;
        assert_ne!(base, crc32(&corrupted));
    }
}
