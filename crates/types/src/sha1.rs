//! A from-scratch SHA-1 implementation.
//!
//! ExSPAN identifies every vertex of the distributed provenance graph with a
//! 20-byte SHA-1 digest of its contents (paper §4.1): tuple vertices hash the
//! relation name, location and attribute values; rule-execution vertices hash
//! the rule label, location and the VIDs of their input tuples.  Only
//! collision resistance for identification purposes is required, so a compact
//! local implementation avoids an external cryptography dependency.

/// A 20-byte SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the `null` RID that marks
    /// base tuples in the `prov` table).
    pub const ZERO: Digest = Digest([0u8; 20]);

    /// Returns the digest as a hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Returns a short (8 hex character) prefix, convenient for display.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Number of bytes a digest occupies on the wire.
    pub const WIRE_SIZE: usize = 20;
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}..)", self.short())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Streaming SHA-1 hasher.
///
/// ```
/// use exspan_types::sha1::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize().to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher initialized with the standard SHA-1 IV.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially-full buffer first.
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
        }
        // Process whole blocks directly from the input.
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            self.process_block(block.try_into().expect("64-byte block"));
        }
        input = blocks.remainder();
        // Stash the remainder.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // The 0x80 terminator and zero padding up to 56 mod 64 in one
        // update, then the message length closes the last block.
        let pad = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        self.update(&PADDING[..pad]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        // Four 20-round phases, each with its own boolean function and
        // round constant.
        let mut s = self.state;
        for &wi in &w[..20] {
            let [_, b, c, d, _] = s;
            round(&mut s, (b & c) | (!b & d), 0x5A82_7999, wi);
        }
        for &wi in &w[20..40] {
            let [_, b, c, d, _] = s;
            round(&mut s, b ^ c ^ d, 0x6ED9_EBA1, wi);
        }
        for &wi in &w[40..60] {
            let [_, b, c, d, _] = s;
            round(&mut s, (b & c) | (b & d) | (c & d), 0x8F1B_BCDC, wi);
        }
        for &wi in &w[60..] {
            let [_, b, c, d, _] = s;
            round(&mut s, b ^ c ^ d, 0xCA62_C1D6, wi);
        }
        for (h, v) in self.state.iter_mut().zip(s) {
            *h = h.wrapping_add(v);
        }
    }
}

/// The terminator byte followed by zeros: the longest padding is a whole
/// block, when 56 bytes are already buffered.
const PADDING: [u8; 64] = {
    let mut p = [0u8; 64];
    p[0] = 0x80;
    p
};

/// One SHA-1 round over the working state `[a, b, c, d, e]`.
#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, wi: u32) {
    let [a, b, c, d, e] = *s;
    let temp = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(wi);
    *s = [temp, a, b.rotate_left(30), c, d];
}

/// One-shot convenience wrapper: hashes `data` and returns the digest.
pub fn sha1_digest(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Standard FIPS-180 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha1_digest(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha1_digest(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha1_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1_digest(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha1_digest(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 130] {
            let mut h = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn digest_display_and_short() {
        let d = sha1_digest(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert_eq!(d.short().len(), 8);
        assert!(format!("{d:?}").contains(&d.short()));
    }

    /// Test oracle: the straightforward formulation — pad one byte at a
    /// time, then run 80 rounds choosing the function and constant per
    /// round.
    fn reference_digest(data: &[u8]) -> [u8; 20] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 80];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let [mut a, mut b, mut c, mut d, mut e] = state;
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let temp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = temp;
            }
            for (h, v) in state.iter_mut().zip([a, b, c, d, e]) {
                *h = h.wrapping_add(v);
            }
        }
        let mut out = [0u8; 20];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn every_length_across_the_padding_boundaries_matches_the_oracle() {
        // 55/56 and 63/64 bytes are where the padding spills into a second
        // block; 0..=130 covers them for one, two and three blocks.
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            assert_eq!(
                sha1_digest(&data).0,
                reference_digest(&data),
                "length {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random contents of every length up to 130 bytes, fed in two
        /// pieces split at a random point, digest as the oracle does.
        #[test]
        fn random_inputs_match_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..131),
            split in any::<usize>(),
        ) {
            let cut = if data.is_empty() { 0 } else { split % (data.len() + 1) };
            let mut h = Sha1::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            prop_assert_eq!(h.finalize().0, reference_digest(&data));
        }
    }

    #[test]
    fn zero_digest_is_zero() {
        assert_eq!(Digest::ZERO.0, [0u8; 20]);
        assert_ne!(sha1_digest(b""), Digest::ZERO);
    }
}
