//! Model test: tables that share one [`SpareTables`] and grow through it
//! iterate, and report `capacity()`, exactly like plain std tables given
//! the same history, at every bucket count and with tombstones; and a
//! table is allocated only when no spare of the bucket count it needs is
//! waiting.

// Indexing here is audited: per-class arrays are indexed by bucket-count
// classes below `CLASSES`, and tables by indices below `TABLES`.
#![allow(clippy::indexing_slicing)]

use kdd_util::hash::{FastMap, FastSet, Recycled, SpareTables, Table};
use kdd_util::seeded_rng;
use rand::RngExt;

/// Inserts, removals and extends draw keys below this, so they alone take
/// a table to 256 buckets; fill and churn steps add fresh keys above it.
const KEYS: u64 = 160;
/// Tables sharing one free list.
const TABLES: usize = 8;
/// Bucket counts are powers of two below `1 << CLASSES`.
const CLASSES: usize = 16;

/// One step of a table's history.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64),
    /// Insert the key at this position of the table's iteration order
    /// (modulo its length): a present key, so a full table grows anyway.
    InsertPresent(usize),
    Remove(u64),
    /// `exact` passes the keys' length as the size hint; otherwise the
    /// hint is 0 and every growth happens mid-`extend`.
    Extend {
        keys: Vec<u64>,
        exact: bool,
    },
    /// Insert keys from this one up until the table is full, then remove
    /// keys in iteration order until fewer than half its capacity remain.
    /// Removals from a full table leave tombstones.
    FillThenThin(u64),
    /// Remove the first key in iteration order, then insert this one. A
    /// run of these at a steady size leaves tombstones, until an insert
    /// rehashes in place.
    Churn(u64),
    Drain,
    Clear,
    /// Give the table back and start a fresh one in its place.
    GiveBack,
}

/// One step, or a fill-then-thin step and a run of churn steps, for one
/// table.
fn random_steps(rng: &mut impl RngExt) -> Vec<Step> {
    let step = match rng.random_range(0..34u32) {
        0..=11 => Step::Insert(rng.random_range(0..KEYS)),
        12..=14 => Step::InsertPresent(rng.random_range(0..256usize)),
        15..=23 => Step::Remove(rng.random_range(0..KEYS)),
        24..=28 => {
            let n = rng.random_range(0..64usize);
            Step::Extend {
                keys: (0..n).map(|_| rng.random_range(0..KEYS)).collect(),
                exact: rng.random_bool(0.5),
            }
        }
        29..=30 => {
            let thin = Step::FillThenThin(rng.random_range(KEYS..1 << 20));
            let n = rng.random_range(0..64usize);
            let churn = (0..n).map(|_| Step::Churn(rng.random_range(KEYS..1 << 20)));
            return std::iter::once(thin).chain(churn).collect();
        }
        31 => Step::Drain,
        32 => Step::Clear,
        _ => Step::GiveBack,
    };
    vec![step]
}

/// The operations whose form differs between a set and a map.
trait Model: Table + Clone {
    fn entry(key: u64) -> Self::Entry;
    /// Keys in iteration order.
    fn order(&self) -> Vec<u64>;
    fn plain_insert(&mut self, key: u64);
    fn plain_extend(&mut self, keys: impl Iterator<Item = u64>);
    fn plain_remove(&mut self, key: u64);
    fn plain_drain(&mut self);
    fn plain_clear(&mut self);
    fn recycled_remove(t: &mut Recycled<Self>, key: u64);
    fn recycled_drain(t: &mut Recycled<Self>);
    fn recycled_clear(t: &mut Recycled<Self>);
}

impl Model for FastSet<u64> {
    fn entry(key: u64) -> u64 {
        key
    }
    fn order(&self) -> Vec<u64> {
        self.iter().copied().collect()
    }
    fn plain_insert(&mut self, key: u64) {
        self.insert(key);
    }
    fn plain_extend(&mut self, keys: impl Iterator<Item = u64>) {
        self.extend(keys);
    }
    fn plain_remove(&mut self, key: u64) {
        self.remove(&key);
    }
    fn plain_drain(&mut self) {
        self.drain().for_each(drop);
    }
    fn plain_clear(&mut self) {
        self.clear();
    }
    fn recycled_remove(t: &mut Recycled<Self>, key: u64) {
        t.remove(&key);
    }
    fn recycled_drain(t: &mut Recycled<Self>) {
        t.drain().for_each(drop);
    }
    fn recycled_clear(t: &mut Recycled<Self>) {
        t.clear();
    }
}

fn value(key: u64) -> u32 {
    u32::try_from(key).unwrap_or(u32::MAX)
}

impl Model for FastMap<u64, u32> {
    fn entry(key: u64) -> (u64, u32) {
        (key, value(key))
    }
    fn order(&self) -> Vec<u64> {
        self.keys().copied().collect()
    }
    fn plain_insert(&mut self, key: u64) {
        self.insert(key, value(key));
    }
    fn plain_extend(&mut self, keys: impl Iterator<Item = u64>) {
        self.extend(keys.map(|k| (k, value(k))));
    }
    fn plain_remove(&mut self, key: u64) {
        self.remove(&key);
    }
    fn plain_drain(&mut self) {
        self.drain().for_each(drop);
    }
    fn plain_clear(&mut self) {
        self.clear();
    }
    fn recycled_remove(t: &mut Recycled<Self>, key: u64) {
        t.remove(&key);
    }
    fn recycled_drain(t: &mut Recycled<Self>) {
        t.drain().for_each(drop);
    }
    fn recycled_clear(t: &mut Recycled<Self>) {
        t.clear();
    }
}

/// The size-hint behaviour `Step::Extend` asks for, identical on both sides.
fn keys_of(keys: &[u64], exact: bool) -> Box<dyn Iterator<Item = u64> + '_> {
    if exact {
        Box::new(keys.iter().copied())
    } else {
        Box::new(keys.iter().copied().filter(|_| true))
    }
}

/// What a set of histories exercised, so a test can tell that it reached
/// every case it is meant to check.
#[derive(Debug, Default)]
struct Coverage {
    max_buckets: usize,
    /// Steps that rehashed a table in place: one insert raised its
    /// capacity by more than the one tombstone it can reuse, at the same
    /// bucket count.
    rehashed_in_place: usize,
    /// Growth steps to `1 << n` buckets served by a waiting spare.
    served: [usize; CLASSES],
    /// Inserts of a present key that grew the table.
    grew_on_present_key: usize,
}

/// `TABLES` recycled tables on one free list, each beside a plain std
/// table given the same history.
struct Group<T: Model> {
    spare: SpareTables<T>,
    recycled: Vec<Recycled<T>>,
    plain: Vec<T>,
    /// Per bucket-count class: most tables live at once, counting a
    /// class a growing table may pass through mid-step.
    peak: [usize; CLASSES],
}

fn class(buckets: usize) -> Option<usize> {
    (buckets > 0).then(|| buckets.trailing_zeros() as usize)
}

impl<T: Model> Group<T> {
    fn new() -> Self {
        Group {
            spare: SpareTables::default(),
            recycled: vec![Recycled::default(); TABLES],
            plain: vec![T::default(); TABLES],
            peak: [0; CLASSES],
        }
    }

    /// Live tables per class.
    fn live(&self) -> [usize; CLASSES] {
        let mut live = [0; CLASSES];
        for n in self.recycled.iter().filter_map(|t| class(t.buckets())) {
            live[n] += 1;
        }
        live
    }

    fn spares(&self) -> [usize; CLASSES] {
        std::array::from_fn(|n| self.spare.spares(1 << n))
    }

    fn apply(&mut self, i: usize, step: &Step) {
        let (t, p, spare) = (&mut self.recycled[i], &mut self.plain[i], &mut self.spare);
        match step {
            Step::Insert(k) => {
                t.insert(spare, T::entry(*k));
                p.plain_insert(*k);
            }
            Step::InsertPresent(at) => {
                let order = p.order();
                let k = if order.is_empty() { 0 } else { order[at % order.len()] };
                t.insert(spare, T::entry(k));
                p.plain_insert(k);
            }
            Step::Remove(k) => {
                T::recycled_remove(t, *k);
                p.plain_remove(*k);
            }
            Step::Extend { keys, exact } => {
                t.extend(spare, keys_of(keys, *exact).map(T::entry));
                p.plain_extend(keys_of(keys, *exact));
            }
            Step::FillThenThin(first) => {
                let full = p.capacity();
                for k in (*first..).take(full.saturating_sub(p.len())) {
                    t.insert(spare, T::entry(k));
                    p.plain_insert(k);
                }
                for k in p.order().into_iter().take((p.len() + 1).saturating_sub(full / 2)) {
                    T::recycled_remove(t, k);
                    p.plain_remove(k);
                }
            }
            Step::Churn(k) => {
                if let Some(&first) = p.order().first() {
                    T::recycled_remove(t, first);
                    p.plain_remove(first);
                }
                t.insert(spare, T::entry(*k));
                p.plain_insert(*k);
            }
            Step::Drain => {
                T::recycled_drain(t);
                p.plain_drain();
            }
            Step::Clear => {
                T::recycled_clear(t);
                p.plain_clear();
            }
            Step::GiveBack => {
                spare.give(std::mem::take(t));
                *p = T::default();
            }
        }
    }

    /// Apply `step` to table `i` and its twin, then check the twins agree
    /// and that no table was allocated while a spare of its size waited.
    fn step(&mut self, i: usize, step: &Step, seen: &mut Coverage) {
        let (live, spares) = (self.live(), self.spares());
        let (buckets, capacity) = (self.recycled[i].buckets(), self.recycled[i].capacity());
        let present = match step {
            Step::InsertPresent(_) => !self.plain[i].is_empty(),
            _ => false,
        };
        self.apply(i, step);

        let (t, p) = (&self.recycled[i], &self.plain[i]);
        assert_eq!(t.order(), p.order(), "table {i} after {step:?}");
        assert_eq!(t.capacity(), p.capacity(), "table {i} after {step:?}");

        let grown = t.buckets();
        // A table growing from `buckets` to `grown` passes through any
        // class in between, and may allocate a table there.
        for n in (0..CLASSES).filter(|&n| buckets < 1 << n && 1 << n < grown) {
            self.peak[n] = self.peak[n].max(live[n] + 1);
        }
        let (live_now, spares_now) = (self.live(), self.spares());
        for n in 0..CLASSES {
            self.peak[n] = self.peak[n].max(live_now[n]);
            let (before, after) = (live[n] + spares[n], live_now[n] + spares_now[n]);
            if spares[n] > 0 {
                assert_eq!(
                    after,
                    before,
                    "a {}-bucket table was allocated while one was spare",
                    1 << n
                );
            } else {
                assert!(after <= before + 1, "{step:?} allocated two {}-bucket tables", 1 << n);
            }
            assert!(after <= self.peak[n], "more {}-bucket tables than were ever live", 1 << n);
        }

        seen.max_buckets = seen.max_buckets.max(grown);
        let one_insert = matches!(step, Step::Insert(_) | Step::InsertPresent(_) | Step::Churn(_));
        if one_insert && grown == buckets && t.capacity() > capacity + 1 {
            seen.rehashed_in_place += 1;
        }
        if let Some(n) = class(grown).filter(|_| grown != buckets) {
            seen.served[n] += usize::from(spares[n] > 0);
            seen.grew_on_present_key += usize::from(present);
        }
    }
}

/// Run `rounds` seeded histories of `steps` steps over a fresh group each,
/// then check they reached 256 buckets, rehashed in place, grew on a
/// present key and served a growth step to every size from a spare.
fn seeded_histories<T: Model>(seed: u64, rounds: u64, steps: usize) {
    let mut seen = Coverage::default();
    for round in 0..rounds {
        let mut rng = seeded_rng(seed ^ round);
        let mut group = Group::<T>::new();
        for _ in 0..steps {
            let i = rng.random_range(0..TABLES);
            for step in random_steps(&mut rng) {
                group.step(i, &step, &mut seen);
            }
        }
    }
    assert!(seen.max_buckets >= 256, "{seen:?}");
    assert!(seen.rehashed_in_place > 0, "{seen:?}");
    assert!(seen.grew_on_present_key > 0, "{seen:?}");
    for n in 2..=8 {
        assert!(seen.served[n] > 0, "no growth to {} buckets took a spare: {seen:?}", 1 << n);
    }
}

#[test]
fn recycled_set_iterates_like_a_fresh_one() {
    seeded_histories::<FastSet<u64>>(0x5e7, 300, 400);
}

#[test]
fn recycled_map_iterates_like_a_fresh_one() {
    seeded_histories::<FastMap<u64, u32>>(0x3a9, 300, 400);
}

/// A grown table given back is kept for growth steps to its own size
/// only: a fresh table's first insert allocates 4 buckets beside it, and
/// growing past 7 keys takes it.
#[test]
fn grown_table_is_kept_for_its_own_size() {
    let mut spare = SpareTables::<FastSet<u64>>::default();
    let mut grown = Recycled::<FastSet<u64>>::default();
    for key in 100..104 {
        grown.insert(&mut spare, key);
    }
    assert_eq!((grown.buckets(), spare.spares(4)), (8, 1), "growing kept the 4-bucket table");
    spare.give(grown);
    assert_eq!((spare.spares(4), spare.spares(8)), (1, 1));

    let mut fresh = Recycled::<FastSet<u64>>::default();
    fresh.insert(&mut spare, 1);
    assert_eq!((fresh.buckets(), spare.spares(4), spare.spares(8)), (4, 0, 1));
    fresh.extend(&mut spare, 2..=7);
    assert_eq!((fresh.buckets(), spare.spares(4), spare.spares(8)), (8, 1, 0));
}

/// A clone shares no spare tables with its original.
#[test]
fn clone_starts_empty() {
    let mut spare = SpareTables::<FastMap<u64, u32>>::default();
    let mut table = Recycled::<FastMap<u64, u32>>::default();
    table.insert(&mut spare, (1, 1));
    spare.give(table);
    assert_eq!(spare.len(), 1);
    assert!(spare.clone().is_empty());
}
