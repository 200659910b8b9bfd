//! A fast, non-cryptographic hasher for integer-keyed hot paths.
//!
//! The engine hashes millions of `u32`/`u64` keys per query (hash joins,
//! DISTINCT) and PerfectRef tens of thousands of packed canonical keys per
//! reformulation; SipHash (std default) is needlessly slow for that. This is
//! the word-folding multiply hash popularized by rustc's `FxHasher`,
//! reimplemented here to stay within the workspace's allowed dependency
//! set. HashDoS is not a concern: keys are dictionary-encoded ids, not
//! attacker-controlled strings.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: rotate, xor, multiply per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// The [`FxHasher`] hash of `words` fed one `write_u32` at a time, without
/// going through the `Hash` trait (no length prefix). The high bits mix
/// every input bit; open-addressing tables index by them.
#[inline]
pub fn hash_words(words: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.add_to_hash(w as u64);
    }
    h.hash
}

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinguishing() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        assert_ne!(h(0), h(1));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
        let s: FxHashSet<u32> = (0..100).collect();
        assert!(s.contains(&99));
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
    }
}
