//! Id-indexed tables for the folds that touch them once or more per
//! traced event: a lookup is a bounds check and an index, not a tree
//! walk, and index order is id order.

use std::collections::BTreeMap;

/// `v[i]`, first growing `v` with defaults so the index exists.
pub(crate) fn at<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Ids below this live in the vector. A run's object ids are dense from
/// zero, so in practice all do; the tree only keeps a corrupt log that
/// names object 4 000 000 000 from allocating the gap.
const DENSE_IDS: usize = 1 << 20;

/// Object-id-indexed table. Never-touched ids read as absent or
/// default (`get`) and are created as `V::default()` on first `entry`;
/// iteration is in id order, as in the `BTreeMap` it replaces.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdTable<V> {
    dense: Vec<V>,
    sparse: BTreeMap<u32, V>,
}

impl<V: Default> IdTable<V> {
    pub(crate) fn get(&self, id: u32) -> Option<&V> {
        match self.dense.get(id as usize) {
            Some(v) => Some(v),
            None => self.sparse.get(&id),
        }
    }

    pub(crate) fn entry(&mut self, id: u32) -> &mut V {
        if id as usize >= DENSE_IDS {
            return self.sparse.entry(id).or_default();
        }
        at(&mut self.dense, id as usize)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        let dense = self.dense.iter().enumerate().map(|(i, v)| (i as u32, v));
        dense.chain(self.sparse.iter().map(|(&id, v)| (id, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_ids_share_one_ordered_view() {
        let mut t: IdTable<Option<u8>> = IdTable::default();
        *t.entry(u32::MAX) = Some(3);
        *t.entry(5) = Some(1);
        *t.entry(DENSE_IDS as u32) = Some(2);
        assert_eq!(t.get(5), Some(&Some(1)));
        assert_eq!(t.get(4), Some(&None), "gap below a touched id");
        assert_eq!(t.get(6), None);
        assert_eq!(t.get(u32::MAX), Some(&Some(3)));
        assert_eq!(t.dense.len(), 6, "the far ids allocated no gap");
        let touched: Vec<u32> = t.iter().filter_map(|(id, v)| v.map(|_| id)).collect();
        assert_eq!(touched, vec![5, DENSE_IDS as u32, u32::MAX]);
    }
}
