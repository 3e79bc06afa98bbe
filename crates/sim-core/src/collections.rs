//! Flat, allocation-friendly replacements for the std ordered maps on
//! the simulators' per-event hot paths.
//!
//! [`IdMap`] is a sorted `Vec<(K, V)>` that mirrors the slice of the
//! `BTreeMap` API the simulators use. The keys on every hot path are
//! small monotonic ids (task ids, instance ids, reclaim tokens), so:
//!
//! * inserts are almost always appends (the new key compares greater
//!   than the current maximum) — O(1), no rebalancing, no per-node
//!   allocation;
//! * the maps stay tiny (tasks and instances per VM number in the tens),
//!   so the occasional binary search beats pointer-chasing tree nodes;
//! * removals shift within one contiguous buffer whose capacity is
//!   retained, so a warmed-up map never allocates again.
//!
//! Iteration order is key order — exactly the `BTreeMap` order — which
//! keeps every ordering-sensitive simulator loop (and therefore every
//! golden digest) byte-identical after the swap.

/// An ordered map over a sorted `Vec`, for small monotonic-id keys.
#[derive(Clone, Debug)]
pub struct IdMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> IdMap<K, V> {
    /// Creates an empty map (no allocation until first insert).
    pub fn new() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, k: &K) -> Result<usize, usize> {
        // Fast paths first: hot-path keys are monotonic ids, so lookups
        // skew heavily toward the tail.
        match self.entries.last() {
            None => Err(0),
            Some((last, _)) if *k > *last => Err(self.entries.len()),
            Some((last, _)) if *k == *last => Ok(self.entries.len() - 1),
            _ => self.entries.binary_search_by(|(ek, _)| ek.cmp(k)),
        }
    }

    /// Returns a reference to the value for `k`, if present.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.position(k).ok().map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value for `k`, if present.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        match self.position(k) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts `v` under `k`, returning the previous value if any.
    ///
    /// Keys larger than the current maximum append in O(1) — the common
    /// case for monotonic ids.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.position(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (k, v));
                None
            }
        }
    }

    /// Removes `k`, returning its value if it was present.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        match self.position(k) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    // The iterators below return concrete `Map` types (not opaque
    // `impl Iterator`) so the borrow checker can see they carry no
    // destructor — callers may re-borrow the map as soon as the
    // iterator chain's value is extracted, exactly as with `BTreeMap`.

    /// Iterates entries in key order (the `BTreeMap` iteration order).
    #[allow(clippy::type_complexity)]
    pub fn iter(&self) -> std::iter::Map<std::slice::Iter<'_, (K, V)>, fn(&(K, V)) -> (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn keys(&self) -> std::iter::Map<std::slice::Iter<'_, (K, V)>, fn(&(K, V)) -> &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in key order.
    #[allow(clippy::type_complexity)]
    pub fn values(&self) -> std::iter::Map<std::slice::Iter<'_, (K, V)>, fn(&(K, V)) -> &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates mutable values in key order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn values_mut(
        &mut self,
    ) -> std::iter::Map<std::slice::IterMut<'_, (K, V)>, fn(&mut (K, V)) -> &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Removes the entries for which `f` returns `true`, yielding them in
    /// key order; entries the iterator does not reach stay.
    pub(crate) fn extract_if<'a>(
        &'a mut self,
        mut f: impl FnMut(&K, &mut V) -> bool + 'a,
    ) -> impl Iterator<Item = (K, V)> + 'a {
        self.entries.extract_if(.., move |(k, v)| f(k, v))
    }
}

impl<K: Ord + Copy, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<K: Ord + Copy, V> std::ops::Index<&K> for IdMap<K, V> {
    type Output = V;

    fn index(&self, k: &K) -> &V {
        self.get(k).expect("no entry found for key")
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a IdMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn behaves_like_btreemap_on_point_ops() {
        let mut idm: IdMap<u64, u32> = IdMap::new();
        let mut btm: BTreeMap<u64, u32> = BTreeMap::new();
        // A deterministic mix of appends, overwrites, mid-inserts and
        // removals, checked against the reference after every step.
        let ops: Vec<(u8, u64)> = (0..400u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                ((h % 4) as u8, h % 64)
            })
            .collect();
        for (i, &(op, k)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    assert_eq!(idm.insert(k, i as u32), btm.insert(k, i as u32));
                }
                2 => assert_eq!(idm.remove(&k), btm.remove(&k)),
                _ => {
                    assert_eq!(idm.get(&k), btm.get(&k));
                }
            }
            assert_eq!(idm.len(), btm.len());
            assert!(idm.iter().eq(btm.iter()), "iteration order must match");
            assert!(idm.keys().eq(btm.keys()));
            assert!(idm.values().eq(btm.values()));
        }
    }

    #[test]
    fn monotonic_inserts_append() {
        let mut m = IdMap::new();
        for k in 0..100u64 {
            assert_eq!(m.insert(k, k * 2), None);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&99), Some(&198));
        assert_eq!(m[&42], 84);
    }

    #[test]
    fn get_mut_and_values_mut_edit_in_place() {
        let mut m = IdMap::new();
        m.insert(3u64, 1u32);
        m.insert(1, 2);
        *m.get_mut(&1).unwrap() += 10;
        for v in m.values_mut() {
            *v *= 2;
        }
        assert_eq!(m.iter().map(|(_, v)| *v).collect::<Vec<_>>(), [24, 2]);
    }

    #[test]
    fn tuple_keys_sort_lexicographically() {
        let mut m = IdMap::new();
        m.insert((1usize, 5u64), 'a');
        m.insert((0, 9), 'b');
        m.insert((1, 2), 'c');
        assert_eq!(
            m.keys().copied().collect::<Vec<_>>(),
            [(0, 9), (1, 2), (1, 5)]
        );
        assert_eq!(m.remove(&(1, 2)), Some('c'));
        assert_eq!(m.remove(&(1, 2)), None);
    }
}
