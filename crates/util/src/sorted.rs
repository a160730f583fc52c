//! Small sets of `u64` keys kept as ascending vectors, and the free list
//! of emptied vectors they grow into.
//!
//! A [`SortedSet`] iterates in key order whatever its history, so code
//! that walks one (the DEZ index's pages, a pending row's pages) makes the
//! same choices however the set was built or recycled. Its storage grows
//! only through a [`SpareVecs`], which hands out emptied vectors by
//! capacity: nothing is allocated while a spare with room waits, so a
//! history holds no more vectors of a capacity than it ever had live.

/// A set of `u64` keys as an ascending `Vec`. Reads go through `Deref` to
/// the sorted slice; inserts take the free list. There is no `DerefMut`, so
/// the keys stay sorted and no insert grows the set behind the free list.
#[derive(Debug, Clone, Default)]
pub struct SortedSet(Vec<u64>);

impl std::ops::Deref for SortedSet {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl SortedSet {
    /// Whether `key` is in the set.
    pub fn contains(&self, key: u64) -> bool {
        self.0.binary_search(&key).is_ok()
    }

    /// Keys the set holds before it must grow.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Insert `key` at its place, growing through `spare` when full;
    /// whether it was new.
    pub fn insert(&mut self, spare: &mut SpareVecs, key: u64) -> bool {
        let Err(at) = self.0.binary_search(&key) else { return false };
        if self.0.len() == self.0.capacity() {
            spare.grow(&mut self.0);
        }
        self.0.insert(at, key);
        true
    }

    /// Remove `key`; whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Ok(at) = self.0.binary_search(&key) else { return false };
        self.0.remove(at);
        true
    }

    /// Drop every key, keeping the storage.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Emptied vectors of every capacity, for [`SortedSet`]s to grow into.
#[derive(Debug, Default)]
pub struct SpareVecs {
    /// `free[n]`: emptied vectors whose capacity lies in `[2^n, 2^(n+1))`.
    free: Vec<Vec<Vec<u64>>>,
}

impl SpareVecs {
    /// Keep `set`'s storage, emptied, for a later growth step.
    pub fn give(&mut self, set: SortedSet) {
        self.keep(set.0);
    }

    /// Capacities of the vectors waiting.
    pub fn capacities(&self) -> impl Iterator<Item = usize> + '_ {
        self.free.iter().flatten().map(Vec::capacity)
    }

    fn keep(&mut self, mut keys: Vec<u64>) {
        keys.clear();
        let Some(n) = keys.capacity().checked_ilog2() else { return }; // never allocated
        let n = n as usize;
        if self.free.len() <= n {
            self.free.resize_with(n + 1, Vec::new);
        }
        if let Some(class) = self.free.get_mut(n) {
            class.push(keys);
        }
    }

    /// Room for one more key in the full `keys`: the smallest waiting
    /// vector that holds twice as many (four at least), or a new one of
    /// that size only when none waits. The old vector goes on the list.
    fn grow(&mut self, keys: &mut Vec<u64>) {
        let want = (2 * keys.len()).max(4).next_power_of_two();
        let class = want.trailing_zeros() as usize;
        let mut room = self
            .free
            .iter_mut()
            .skip(class)
            .find_map(Vec::pop)
            .unwrap_or_else(|| Vec::with_capacity(want));
        room.extend_from_slice(keys);
        self.keep(std::mem::replace(keys, room));
    }
}

/// Clones start with an empty free list, as [`PagePool`](crate::PagePool)
/// clones do: reuse in one never depends on activity in another.
impl Clone for SpareVecs {
    fn clone(&self) -> Self {
        SpareVecs::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_stay_ascending_and_growth_takes_the_smallest_spare_with_room() {
        let caps = |spare: &SpareVecs| {
            let mut caps: Vec<usize> = spare.capacities().collect();
            caps.sort_unstable();
            caps
        };
        let mut spare = SpareVecs::default();
        let mut set = SortedSet::default();
        for key in [5, 1, 9, 3, 1] {
            set.insert(&mut spare, key);
        }
        assert_eq!((&*set, set.capacity()), (&[1, 3, 5, 9][..], 4));
        assert!(set.contains(9) && !set.contains(4));
        assert!(set.remove(3) && !set.remove(3));
        // Past four keys a new 8 is allocated and the 4 is kept.
        set.insert(&mut spare, 3);
        set.insert(&mut spare, 7);
        assert_eq!((&*set, set.capacity()), (&[1, 3, 5, 7, 9][..], 8));
        assert_eq!(caps(&spare), [4]);
        // A fresh set takes the waiting 4.
        let mut fresh = SortedSet::default();
        fresh.insert(&mut spare, 20);
        assert_eq!((fresh.capacity(), caps(&spare)), (4, vec![]));
        // A set growing to 16 keeps the 4 and the 8 it passed through.
        let mut wide = SortedSet::default();
        for key in 0..9 {
            wide.insert(&mut spare, key);
        }
        assert_eq!((wide.capacity(), caps(&spare)), (16, vec![4, 8]));
        spare.give(wide);
        // Of the 16 and the 8 waiting, growth past four keys takes the 8.
        for key in 21..25 {
            fresh.insert(&mut spare, key);
        }
        assert_eq!((fresh.len(), fresh.capacity(), caps(&spare)), (5, 8, vec![4, 4, 16]));
    }

    #[test]
    fn clone_starts_empty() {
        let mut spare = SpareVecs::default();
        let mut set = SortedSet::default();
        set.insert(&mut spare, 1);
        spare.give(set.clone());
        assert_eq!((spare.capacities().count(), spare.clone().capacities().count()), (1, 0));
        assert_eq!(&*set, &[1]);
    }
}
