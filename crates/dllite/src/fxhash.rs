//! A fast, non-cryptographic hasher for integer-keyed hot paths.
//!
//! The engine hashes millions of `u32`/`u64` keys per query (hash joins,
//! DISTINCT), PerfectRef tens of thousands of packed canonical keys per
//! reformulation, and constraint pruning a mined inclusion or two per
//! search node; SipHash (std default) is needlessly slow for that. This
//! is the word-folding multiply hash popularized by rustc's `FxHasher`,
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

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;
