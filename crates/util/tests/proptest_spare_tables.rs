//! Model test: a table taken from [`SpareTables`] iterates exactly like a
//! fresh `default()` table given the same history, whatever the recycled
//! table went through before it was given back — and a table that grew is
//! never kept, because cleared it iterates in another order.

use kdd_util::hash::{FastMap, FastSet, SpareTables, Table};
use proptest::prelude::*;

/// One step of a table's history.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64),
    Remove(u64),
    /// `extend` reserves room for the iterator's length before inserting.
    Extend(Vec<u64>),
    Drain,
    Clear,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0u64..48).prop_map(Step::Insert),
        3 => (0u64..48).prop_map(Step::Remove),
        2 => proptest::collection::vec(0u64..48, 0..10).prop_map(Step::Extend),
        1 => Just(Step::Drain),
        1 => Just(Step::Clear),
    ]
}

/// What the model does to a set and a map alike.
trait Model: Table {
    fn apply(&mut self, step: &Step);
    /// Keys in iteration order.
    fn order(&self) -> Vec<u64>;
}

impl Model for FastSet<u64> {
    fn apply(&mut self, step: &Step) {
        match step {
            Step::Insert(k) => {
                self.insert(*k);
            }
            Step::Remove(k) => {
                self.remove(k);
            }
            Step::Extend(ks) => self.extend(ks.iter().copied()),
            Step::Drain => self.drain().for_each(drop),
            Step::Clear => self.clear(),
        }
    }
    fn order(&self) -> Vec<u64> {
        self.iter().copied().collect()
    }
}

impl Model for FastMap<u64, u32> {
    fn apply(&mut self, step: &Step) {
        let value = |k: u64| u32::try_from(k).unwrap_or(u32::MAX);
        match step {
            Step::Insert(k) => {
                self.insert(*k, value(*k));
            }
            Step::Remove(k) => {
                self.remove(k);
            }
            Step::Extend(ks) => self.extend(ks.iter().map(|&k| (k, value(k)))),
            Step::Drain => self.drain().for_each(drop),
            Step::Clear => self.clear(),
        }
    }
    fn order(&self) -> Vec<u64> {
        self.keys().copied().collect()
    }
}

/// Run `before` on a table and give it to a free list; take a table back
/// and run `after` on it and on a `default()` table side by side. After
/// every step both iterate in the same order, and once the fresh table has
/// allocated, both have the same capacity.
fn recycled_matches_fresh<T: Model>(before: &[Step], after: &[Step]) {
    let mut used = T::default();
    for s in before {
        used.apply(s);
    }
    let mut probe = T::default();
    probe.insert_default();
    let kept = used.capacity() == probe.capacity();
    let mut spare = SpareTables::<T>::default();
    spare.give(used);
    assert_eq!(spare.len(), usize::from(kept), "only a smallest-size table is kept");
    let mut recycled = spare.take();
    assert!(spare.is_empty() && recycled.order().is_empty());
    let mut fresh = T::default();
    for s in after {
        recycled.apply(s);
        fresh.apply(s);
        assert_eq!(recycled.order(), fresh.order(), "after {s:?} (history before: {before:?})");
        if fresh.capacity() > 0 {
            assert_eq!(recycled.capacity(), fresh.capacity(), "after {s:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recycled_set_iterates_like_a_fresh_one(
        before in proptest::collection::vec(step(), 0..12),
        after in proptest::collection::vec(step(), 1..60),
    ) {
        recycled_matches_fresh::<FastSet<u64>>(&before, &after);
    }

    #[test]
    fn recycled_map_iterates_like_a_fresh_one(
        before in proptest::collection::vec(step(), 0..12),
        after in proptest::collection::vec(step(), 1..60),
    ) {
        recycled_matches_fresh::<FastMap<u64, u32>>(&before, &after);
    }
}

/// Why `give` refuses a grown table: four inserts take a set past its
/// first allocation, and once cleared it lays keys out in another order
/// than a fresh set does for some three-key history.
#[test]
fn grown_table_iterates_differently_and_is_refused() {
    let order = |s: &FastSet<u64>| s.iter().copied().collect::<Vec<_>>();
    let grown = || {
        let mut t = FastSet::<u64>::default();
        t.extend([100, 101, 102, 103]);
        t.clear();
        t
    };
    let differs = (0..64u64).any(|k| {
        let (mut g, mut fresh) = (grown(), FastSet::<u64>::default());
        for key in [k, k + 1, k + 2] {
            g.insert(key);
            fresh.insert(key);
        }
        order(&g) != order(&fresh)
    });
    assert!(differs, "a grown table reorders some fresh history");

    let mut spare = SpareTables::<FastSet<u64>>::default();
    spare.give(grown());
    assert!(spare.is_empty(), "a grown table is dropped");
    assert_eq!(spare.take().capacity(), 0, "`take` falls back to `default()`");
}

/// A clone shares no spare tables with its original.
#[test]
fn clone_starts_empty() {
    let mut spare = SpareTables::<FastMap<u64, u32>>::default();
    let mut table = spare.take();
    table.insert(1, 1);
    spare.give(table);
    assert_eq!(spare.len(), 1);
    assert!(spare.clone().is_empty());
}
