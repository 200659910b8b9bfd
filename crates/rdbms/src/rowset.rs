//! The executor's answer set: fixed-arity `u32` rows in one flat buffer,
//! deduplicated through an open-addressing index.
//!
//! Every DISTINCT the executor performs — a conjunction's projection, a
//! union's merge, a materialized JUCQ component, the final join
//! projection — inserts into a [`RowSet`]. Row `i` is
//! `data[i * arity..(i + 1) * arity]`; the index holds `u32` row numbers
//! hashed with the crate's Fx multiply ([`crate::fxhash`]), probed
//! linearly and kept at most half full. Inserting a row copies its values
//! and allocates nothing per row; growing doubles the index and re-hashes
//! row numbers without moving a row. Rows iterate in first-insertion
//! order.
//!
//! An arity-0 set (a boolean query's answer) holds at most one, empty,
//! row.

use crate::fxhash::hash_words;

/// An index slot holding no row.
const EMPTY: u32 = u32::MAX;

/// The smallest index allocated on first insert (a power of two).
const MIN_SLOTS: usize = 8;

/// A set of rows of one fixed arity.
#[derive(Debug, Clone)]
pub(crate) struct RowSet {
    arity: usize,
    len: usize,
    /// `len * arity` values, row after row.
    data: Vec<u32>,
    /// Row numbers or [`EMPTY`]; empty or a power of two at least twice
    /// `len`, so a probe always reaches an empty slot.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a row's home slot is its hash's top bits.
    shift: u32,
}

impl RowSet {
    /// An empty set of `arity`-wide rows.
    pub(crate) fn new(arity: usize) -> Self {
        RowSet {
            arity,
            len: 0,
            data: Vec::new(),
            slots: Vec::new(),
            shift: 64,
        }
    }

    /// An empty set sized to take `rows` rows without growing.
    pub(crate) fn with_capacity(arity: usize, rows: usize) -> Self {
        let mut set = RowSet::new(arity);
        set.data.reserve(rows * arity);
        if rows > 0 {
            set.resize_index((rows * 2).next_power_of_two().max(MIN_SLOTS));
        }
        set
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, in insertion order.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Every row, in insertion order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Insert `row`; `true` if it was not already present.
    pub(crate) fn insert(&mut self, row: &[u32]) -> bool {
        self.insert_full(row).1
    }

    /// Insert `row`, returning its row number and whether it is new.
    pub(crate) fn insert_full(&mut self, row: &[u32]) -> (usize, bool) {
        assert_eq!(row.len(), self.arity, "row arity must match the set's");
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize_index((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(row);
        loop {
            match self.slots[at] {
                EMPTY => break,
                r if self.row(r as usize) == row => return (r as usize, false),
                _ => at = (at + 1) & mask,
            }
        }
        let number = self.len;
        assert!(number < EMPTY as usize, "a row set holds < u32::MAX rows");
        self.slots[at] = number as u32;
        self.data.extend_from_slice(row);
        self.len += 1;
        (number, true)
    }

    /// The row number of `row`, if present.
    pub(crate) fn get_index_of(&self, row: &[u32]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(row);
        loop {
            match self.slots[at] {
                EMPTY => return None,
                r if self.row(r as usize) == row => return Some(r as usize),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Union `other` into `self`. An empty `self` takes `other` whole, so
    /// the first non-empty union arm is never re-inserted.
    pub(crate) fn extend(&mut self, other: RowSet) {
        assert_eq!(other.arity, self.arity, "union arms share one arity");
        if self.is_empty() {
            *self = other;
        } else {
            for row in other.iter() {
                self.insert(row);
            }
        }
    }

    /// The rows as one `Vec` each — the executor's API edge.
    pub(crate) fn into_rows(self) -> Vec<Vec<u32>> {
        self.iter().map(<[u32]>::to_vec).collect()
    }

    fn home(&self, row: &[u32]) -> usize {
        (hash_words(row) >> self.shift) as usize
    }

    /// Rebuild the index with `slots` slots (a power of two above
    /// `2 * len`), re-hashing every row number.
    fn resize_index(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= 2 * (self.len + 1));
        self.slots = vec![EMPTY; slots];
        self.shift = 64 - slots.trailing_zeros();
        let mask = slots - 1;
        for i in 0..self.len {
            let mut at = self.home(self.row(i));
            while self.slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn arity_zero_holds_at_most_one_empty_row() {
        let mut set = RowSet::new(0);
        assert!(set.get_index_of(&[]).is_none());
        assert!(set.insert(&[]));
        assert!(!set.insert(&[]));
        assert_eq!(set.len(), 1);
        assert_eq!(set.get_index_of(&[]), Some(0));
        assert_eq!(set.into_rows(), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn extend_into_an_empty_set_takes_the_other_whole() {
        let mut other = RowSet::new(2);
        other.insert(&[1, 2]);
        other.insert(&[3, 4]);
        let mut set = RowSet::with_capacity(2, 100);
        set.extend(other.clone());
        assert_eq!(set.into_rows(), other.clone().into_rows());
        let mut set = RowSet::new(2);
        set.insert(&[3, 4]);
        set.insert(&[5, 6]);
        set.extend(other);
        assert_eq!(set.into_rows(), vec![vec![3, 4], vec![5, 6], vec![1, 2]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random insert sequences against a `BTreeSet<Vec<u32>>` model:
        /// arity 0–4, sizes that cross every index growth up to 8192
        /// slots, long runs of one repeated row, and values drawn from a
        /// tiny domain (mostly duplicates), the top of the `u32` range
        /// (next to the index's empty marker), or anywhere.
        #[test]
        fn row_set_matches_a_btreeset_model(seed in 0u64..u64::MAX, arity in 0usize..5) {
            let mut rng = seed;
            let ops = (next(&mut rng) % 2_500) as usize;
            let domain = next(&mut rng) % 3;
            let value = |rng: &mut u64| -> u32 {
                let r = next(rng);
                match domain {
                    0 => (r % 4) as u32,
                    1 => u32::MAX - (r % 4_096) as u32,
                    _ => r as u32,
                }
            };
            let mut set = if next(&mut rng).is_multiple_of(2) {
                RowSet::new(arity)
            } else {
                RowSet::with_capacity(arity, ops / 2)
            };
            let mut model: BTreeSet<Vec<u32>> = BTreeSet::new();
            let mut order: Vec<Vec<u32>> = Vec::new();
            let mut row: Vec<u32> = (0..arity).map(|_| value(&mut rng)).collect();
            let mut step = 0;
            while step < ops {
                // A run re-inserts one row up to 40 times in a row.
                let run = if next(&mut rng).is_multiple_of(8) { 1 + next(&mut rng) % 40 } else { 1 };
                for _ in 0..run {
                    let fresh = model.insert(row.clone());
                    let (number, inserted) = set.insert_full(&row);
                    prop_assert_eq!(inserted, fresh);
                    if fresh {
                        order.push(row.clone());
                    }
                    prop_assert_eq!(set.row(number), &row[..]);
                    prop_assert_eq!(set.len(), model.len());
                    step += 1;
                }
                row = (0..arity).map(|_| value(&mut rng)).collect();
                prop_assert_eq!(set.get_index_of(&row).is_some(), model.contains(&row));
            }
            prop_assert_eq!(set.arity(), arity);
            let rows: Vec<Vec<u32>> = set.iter().map(<[u32]>::to_vec).collect();
            prop_assert_eq!(&rows, &order);
            for (i, r) in order.iter().enumerate() {
                prop_assert_eq!(set.get_index_of(r), Some(i));
            }
            let half = order.len() / 2;
            let (mut left, mut right) = (RowSet::new(arity), RowSet::new(arity));
            for r in &order[..half] {
                left.insert(r);
            }
            for r in &order[half / 2..] {
                right.insert(r);
            }
            left.extend(right);
            let union: BTreeSet<Vec<u32>> = left.into_rows().into_iter().collect();
            prop_assert_eq!(union, model);
        }
    }
}
