//! A list that keeps a sole entry inline.
//!
//! Most per-object lists of a hosting service hold one entry: a cold
//! object has one replica, requested from one gateway per placement
//! period. A `Vec` spends a heap block on each of them; [`OneOrMany`]
//! keeps a sole entry in its own 24 bytes (a `Vec`'s size: the tag
//! lives in the `Vec`'s capacity niche) and spills to a `Vec` at the
//! second entry.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A list of small `Copy` entries, stored inline while it holds one
/// entry and has never spilled.
///
/// - Empty is an unallocated `Many`.
/// - The first entry of a never-allocated list goes inline (`One`).
/// - A second entry spills to `Many`, allocating once.
/// - `remove` and `clear` keep a `Many`'s capacity, so a list that
///   spilled once refills without allocating; on `One` they return to
///   the unallocated empty list.
///
/// Entries are read as a slice (`Deref`), and equality compares
/// contents, so how a list came by them never shows.
#[derive(Clone)]
pub(crate) enum OneOrMany<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Default for OneOrMany<T> {
    fn default() -> Self {
        Self::Many(Vec::new())
    }
}

impl<T: Copy> OneOrMany<T> {
    /// Inserts `value` at `index`, shifting the entries after it right.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub(crate) fn insert(&mut self, index: usize, value: T) {
        match self {
            Self::Many(many) if many.capacity() > 0 => many.insert(index, value),
            Self::Many(_) => {
                assert_eq!(index, 0, "insertion index beyond an empty list");
                *self = Self::One(value);
            }
            Self::One(first) => {
                // The first push allocates `Vec`'s smallest block (four
                // entries of a small `T`), so the insert fits in it.
                let mut many = Vec::new();
                many.push(*first);
                many.insert(index, value);
                *self = Self::Many(many);
            }
        }
    }

    /// Removes and returns the entry at `index`, shifting the entries
    /// after it left.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub(crate) fn remove(&mut self, index: usize) -> T {
        match self {
            Self::Many(many) => many.remove(index),
            Self::One(only) => {
                assert_eq!(index, 0, "removal index beyond a one-entry list");
                let only = *only;
                *self = Self::default();
                only
            }
        }
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        match self {
            Self::One(_) => *self = Self::default(),
            Self::Many(many) => many.clear(),
        }
    }
}

impl<T> Deref for OneOrMany<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Self::One(one) => std::slice::from_ref(one),
            Self::Many(many) => many,
        }
    }
}

impl<T> DerefMut for OneOrMany<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Self::One(one) => std::slice::from_mut(one),
            Self::Many(many) => many,
        }
    }
}

impl<T: PartialEq> PartialEq for OneOrMany<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for OneOrMany<T> {}

impl<T: fmt::Debug> fmt::Debug for OneOrMany<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simcore::SimRng;

    /// Heap slots held: zero for an inline or never-allocated list.
    fn heap_capacity<T>(list: &OneOrMany<T>) -> usize {
        match list {
            OneOrMany::One(_) => 0,
            OneOrMany::Many(many) => many.capacity(),
        }
    }

    #[test]
    fn a_sole_entry_lives_inline_and_equals_its_spilled_form() {
        let mut list = OneOrMany::default();
        assert_eq!(heap_capacity(&list), 0);
        list.insert(0, 7u32);
        assert!(matches!(list, OneOrMany::One(7)));
        assert_eq!(
            heap_capacity(&list),
            0,
            "no allocation before a second entry"
        );
        assert_eq!(list, OneOrMany::Many(vec![7]));
        assert_eq!(format!("{list:?}"), "[7]");

        list.insert(0, 3);
        assert_eq!(&*list, &[3, 7]);
        let spilled = heap_capacity(&list);
        assert!(spilled >= 2);
        list.clear();
        assert_eq!(heap_capacity(&list), spilled, "clear keeps a spilled block");
        list.insert(0, 9);
        assert!(
            matches!(list, OneOrMany::Many(_)),
            "a spilled list stays spilled"
        );
        assert_eq!(list.remove(0), 9);
        assert_eq!(
            heap_capacity(&list),
            spilled,
            "remove keeps a spilled block"
        );

        let mut one = OneOrMany::default();
        one.insert(0, 5u32);
        assert_eq!(one.remove(0), 5);
        assert_eq!(
            heap_capacity(&one),
            0,
            "emptying an inline list frees nothing"
        );
        one.insert(0, 6);
        one.clear();
        assert!(one.is_empty());
        assert_eq!(heap_capacity(&one), 0);
    }

    /// Random insert-at / remove-at / clear sequences against a plain
    /// `Vec`: the same contents after every step, a list that never held
    /// two entries never allocated, and a spilled list never gives its
    /// block back.
    #[test]
    fn random_edits_match_a_vec() {
        let mut spills = 0;
        for seed in 0..64 {
            let mut rng = SimRng::seed_from(0x0AE0_0000 + seed);
            let mut list = OneOrMany::default();
            let mut oracle: Vec<u64> = Vec::new();
            let mut spilled = 0;
            for step in 0..400 {
                let roll = rng.index(16);
                if roll == 0 {
                    list.clear();
                    oracle.clear();
                } else if roll < 8 && !oracle.is_empty() {
                    let i = rng.index(oracle.len());
                    assert_eq!(list.remove(i), oracle.remove(i), "seed {seed} step {step}");
                } else if oracle.len() < 6 {
                    let i = rng.index(oracle.len() + 1);
                    let value = rng.next_u64();
                    list.insert(i, value);
                    oracle.insert(i, value);
                }
                assert_eq!(&*list, oracle.as_slice(), "seed {seed} step {step}");
                assert_eq!(list, OneOrMany::Many(oracle.clone()));
                if oracle.len() == 1 && spilled == 0 {
                    assert!(matches!(list, OneOrMany::One(_)), "seed {seed} step {step}");
                }
                if spilled == 0 {
                    spilled = heap_capacity(&list);
                    assert!(
                        spilled == 0 || oracle.len() >= 2,
                        "seed {seed} step {step}: allocated before a second entry"
                    );
                    spills += usize::from(spilled > 0);
                } else {
                    assert!(heap_capacity(&list) >= spilled, "seed {seed} step {step}");
                }
            }
        }
        assert!(spills > 32, "only {spills} of 64 sequences spilled");
    }
}
