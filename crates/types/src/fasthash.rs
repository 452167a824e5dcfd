//! A small multiplicative hasher for hot in-memory maps.
//!
//! `std`'s default SipHash resists hash flooding, which only matters for
//! keys an adversary chooses.  The maps that use [`FastHasher`] are keyed by
//! the engine's own tuples and BDD node ids — serve clients submit queries,
//! never tuples — so a cheaper word-at-a-time hash is safe there: each word
//! is folded in with one rotate, one xor and one multiply (the scheme of the
//! Firefox/rustc "Fx" hash), and [`Hasher::finish`] rotates the state so the
//! well-mixed high bits reach the low bits hash tables index by.
//!
//! Hash values are never observable: no map using this hasher is iterated
//! on a path that feeds a figure, a digest or an event order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (`2^64 / φ` rounded to odd).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time multiplicative hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in too, so trailing zero bytes still count.
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A [`HashMap`] hashed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tuple, Value};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FastBuildHasher::default().hash_one(t)
    }

    #[test]
    fn equal_values_hash_equally_and_neighbours_differ() {
        let a = Tuple::new("path", 3, vec![Value::Node(4), Value::Int(7)]);
        assert_eq!(hash_of(&a), hash_of(&a.clone()));
        let b = Tuple::new("path", 3, vec![Value::Node(4), Value::Int(8)]);
        assert_ne!(hash_of(&a), hash_of(&b));
        // Trailing zero bytes are not lost in the partial last word.
        let raw = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(raw(&[0u8; 3]), raw(&[0u8; 4]));
    }

    #[test]
    fn map_round_trips_through_borrowed_keys() {
        let mut m: FastHashMap<std::sync::Arc<Tuple>, u32> = FastHashMap::default();
        let t = Tuple::new("link", 1, vec![Value::Node(2), Value::Int(3)]);
        m.insert(std::sync::Arc::new(t.clone()), 9);
        assert_eq!(m.get(&t), Some(&9));
    }
}
