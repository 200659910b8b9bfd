//! Fx hashing for the query kernels: the [`FxHasher`] and its map and
//! set aliases (defined in `obda_dllite`, whose constraint sets hash with
//! them too, and re-exported here), [`hash_words`] over packed canonical
//! keys, and the [`WordSet`] of such keys PerfectRef and minimisation
//! deduplicate with.

use std::hash::Hasher;

pub use obda_dllite::fxhash::{FxHashMap, FxHashSet, FxHasher};

/// The [`FxHasher`] hash of `words` fed one `write_u32` at a time, without
/// going through the `Hash` trait (no length prefix). The high bits mix
/// every input bit; open-addressing tables index by them.
#[inline]
pub fn hash_words(words: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.write_u32(w);
    }
    h.finish()
}

/// Words in the first chunk of a [`WordSet`]; each chunk after it is
/// twice the size of the one before, up to [`WORD_CHUNK_MAX`].
const WORD_CHUNK_FIRST: usize = 32;
/// The largest chunk, in words (64 KiB).
const WORD_CHUNK_MAX: usize = 1 << 14;
/// An entry's start is its chunk in the top bits and its offset below.
const WORD_OFFSET_BITS: u32 = 24;

/// A set of `u32` word strings — packed canonical keys — kept in chunks
/// and found through an open-addressing table of their [`hash_words`]
/// hashes. Against a hash set of boxed slices it allocates only to open
/// a chunk or grow the table, not once per key, and keeps no pointer per
/// key. Chunks are filled and never moved, so a large set (PerfectRef's
/// tens of thousands of keys) never holds a full copy of its words
/// while it grows, and a small one (a union's keys) stays small.
/// Entries are numbered in insertion order and [`get`](Self::get)
/// returns them.
#[derive(Clone, Debug, Default)]
pub struct WordSet {
    /// Each entry is its length, then its words, inside one chunk.
    chunks: Vec<Vec<u32>>,
    /// Where entry `i` starts: chunk `<< WORD_OFFSET_BITS | offset`.
    starts: Vec<u32>,
    /// One more than an entry's number, or 0 for an empty slot; the
    /// length is zero or a power of two, at least twice the entries.
    slots: Vec<u32>,
}

impl WordSet {
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The words of entry `i`.
    pub fn get(&self, i: usize) -> &[u32] {
        let start = self.starts[i];
        let chunk = &self.chunks[(start >> WORD_OFFSET_BITS) as usize];
        let offset = (start & ((1 << WORD_OFFSET_BITS) - 1)) as usize;
        &chunk[offset + 1..][..chunk[offset] as usize]
    }

    pub fn contains(&self, key: &[u32]) -> bool {
        !self.slots.is_empty() && self.find(key).is_ok()
    }

    /// Add `key`; `true` when it was not there yet.
    pub fn insert(&mut self, key: &[u32]) -> bool {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(key) {
            Ok(_) => false,
            Err(slot) => {
                let start = self.append(key);
                self.starts.push(start);
                self.slots[slot] = self.len() as u32;
                true
            }
        }
    }

    /// Write `key` behind its length into the last chunk, or into a new
    /// one when it does not fit; returns where it starts.
    fn append(&mut self, key: &[u32]) -> u32 {
        let need = key.len() + 1;
        let fits = self
            .chunks
            .last()
            .is_some_and(|c| c.capacity() - c.len() >= need);
        if !fits {
            let size = match self.chunks.last() {
                Some(c) => (2 * c.capacity()).min(WORD_CHUNK_MAX),
                None => WORD_CHUNK_FIRST,
            };
            self.chunks.push(Vec::with_capacity(size.max(need)));
        }
        let index = self.chunks.len() - 1;
        let chunk = &mut self.chunks[index];
        let offset = chunk.len();
        assert!(
            index < 1 << (32 - WORD_OFFSET_BITS) && offset < 1 << WORD_OFFSET_BITS,
            "word set full"
        );
        chunk.push(key.len() as u32);
        chunk.extend_from_slice(key);
        (index as u32) << WORD_OFFSET_BITS | offset as u32
    }

    /// The entry equal to `key`, or the empty slot where it belongs.
    /// Linear probing from the top bits of the hash.
    fn find(&self, key: &[u32]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let bits = self.slots.len().trailing_zeros();
        let mut slot = (hash_words(key) >> (64 - bits)) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                entry if self.get(entry as usize - 1) == key => return Ok(entry as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the table (16 slots at first) and put every entry back.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        self.slots = vec![0; size];
        for i in 0..self.len() {
            let Err(slot) = self.find(self.get(i)) else {
                unreachable!("entries are distinct")
            };
            self.slots[slot] = i as u32 + 1;
        }
    }
}

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
    fn word_set_keeps_distinct_strings_in_order() {
        let mut set = WordSet::default();
        assert!(!set.contains(&[1]));
        // Strings that are prefixes of one another, many that differ only
        // in their last word, and some longer than the first chunks,
        // across several growths of the table and many chunks.
        let keys: Vec<Vec<u32>> = (0..3000u32)
            .map(|i| (0..i % 5).chain([i]).collect())
            .chain([
                vec![],
                vec![7, 7, 7],
                vec![0, 0],
                vec![9; 100],
                vec![9; 20_000],
            ])
            .collect();
        for key in &keys {
            assert!(set.insert(key), "{key:?} is new");
            assert!(!set.insert(key), "{key:?} is not");
        }
        assert_eq!(set.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert!(set.contains(key));
            assert_eq!(set.get(i), &key[..]);
        }
        assert!(!set.contains(&[0, 0, 0]));
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
