//! Small-inline posting lists for the hash indexes of the storage
//! layouts.
//!
//! A delta copies each table it writes the first time it writes to it
//! ([`super::Storage::apply_delta`] on a clone that shares its tables
//! with the previous generation). With `HashMap<key, Vec<u32>>` indexes
//! that copy pays one heap allocation per *key*, and entity-shaped data
//! (LUBM: advisors, memberships, types) has enormous numbers of keys
//! with fan-out 1–2. [`Posting`] inlines up to two values in the map
//! entry itself, so copying an index is one table memcpy plus
//! allocations only for the rare high-fan-out keys; a bulk load, which
//! builds every index once, saves the same allocations.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::fxhash::FxHashMap;

/// A multiset of `u32` values, inline up to two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Posting {
    /// Up to two values, stored inline (no heap allocation).
    Few { len: u8, vals: [u32; 2] },
    /// Spilled: three or more values. Once spilled, a posting stays
    /// spilled until it empties (no shrink hysteresis to pay on the
    /// delete path).
    Many(Vec<u32>),
}

impl Posting {
    /// A one-element posting.
    pub fn one(v: u32) -> Self {
        Posting::Few {
            len: 1,
            vals: [v, 0],
        }
    }

    /// The values as a slice (uniform read path for both shapes).
    pub fn slice(&self) -> &[u32] {
        match self {
            Posting::Few { len, vals } => &vals[..*len as usize],
            Posting::Many(v) => v,
        }
    }

    pub fn len(&self) -> usize {
        self.slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, v: u32) -> bool {
        self.slice().contains(&v)
    }

    /// Append one value (duplicates allowed — the caller guarantees
    /// multiset semantics match its own dedup discipline).
    pub fn push(&mut self, v: u32) {
        match self {
            Posting::Few { len: len @ 0, vals } => {
                vals[0] = v;
                *len = 1;
            }
            Posting::Few { len: len @ 1, vals } => {
                vals[1] = v;
                *len = 2;
            }
            Posting::Few { vals, .. } => *self = Posting::Many(vec![vals[0], vals[1], v]),
            Posting::Many(vec) => vec.push(v),
        }
    }

    /// Remove one occurrence of `v` (order not preserved). Returns
    /// `true` if an occurrence was found.
    pub fn remove_one(&mut self, v: u32) -> bool {
        match self {
            Posting::Few { len, vals } => {
                let n = *len as usize;
                match vals[..n].iter().position(|&x| x == v) {
                    Some(pos) => {
                        vals[pos] = vals[n - 1];
                        *len -= 1;
                        true
                    }
                    None => false,
                }
            }
            Posting::Many(vec) => match vec.iter().position(|&x| x == v) {
                Some(pos) => {
                    vec.swap_remove(pos);
                    true
                }
                None => false,
            },
        }
    }
}

/// Append `value` to the posting list of `key` (shared by the simple
/// and triple layouts' hash indexes).
pub fn push_posting<K: Eq + Hash>(index: &mut FxHashMap<K, Posting>, key: K, value: u32) {
    match index.entry(key) {
        Entry::Occupied(mut e) => e.get_mut().push(value),
        Entry::Vacant(e) => {
            e.insert(Posting::one(value));
        }
    }
}

/// Drop one occurrence of `value` from the posting list of `key`,
/// removing the entry when it empties — probe-miss accounting then
/// matches a freshly loaded table. Panics if the occurrence is absent
/// (the caller feeds *effective* deltas, so it must be present).
pub fn remove_posting<K: Eq + Hash>(index: &mut FxHashMap<K, Posting>, key: &K, value: u32) {
    let list = index.get_mut(key).expect("posting list exists");
    assert!(list.remove_one(value), "posting list holds the value");
    if list.is_empty() {
        index.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_inline_then_spills() {
        let mut p = Posting::one(10);
        assert_eq!(p.slice(), &[10]);
        p.push(20);
        assert!(matches!(p, Posting::Few { len: 2, .. }));
        assert_eq!(p.slice(), &[10, 20]);
        p.push(30);
        assert!(matches!(p, Posting::Many(_)), "third value spills");
        assert_eq!(p.slice(), &[10, 20, 30]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn remove_covers_both_shapes_and_misses() {
        let mut p = Posting::one(1);
        p.push(2);
        assert!(p.remove_one(1));
        assert!(!p.remove_one(99));
        assert_eq!(p.slice(), &[2]);
        assert!(p.remove_one(2));
        assert!(p.is_empty());

        let mut m = Posting::one(1);
        m.push(2);
        m.push(3);
        m.push(2); // duplicate occurrence
        assert!(m.remove_one(2));
        assert_eq!(m.len(), 3);
        assert!(m.contains(2), "only one occurrence removed");
        assert!(m.remove_one(2));
        assert!(!m.contains(2));
    }

    #[test]
    fn duplicates_inline() {
        let mut p = Posting::one(5);
        p.push(5);
        assert_eq!(p.slice(), &[5, 5]);
        assert!(p.remove_one(5));
        assert_eq!(p.slice(), &[5]);
    }
}
