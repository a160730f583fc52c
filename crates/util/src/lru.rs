//! An intrusive, index-based LRU list.
//!
//! The set-associative cache keeps one recency list per cache set. A
//! pointer-based `LinkedList` would cost an allocation per entry and chase
//! pointers on every touch; instead [`LruList`] stores `prev`/`next` as
//! `u32` indices into a contiguous slab, so a "touch" is a few cache-line
//! reads. Slots are managed by the caller (they are the cache-page indices
//! themselves), which keeps the list fully intrusive.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
    linked: bool,
}

impl Default for Node {
    fn default() -> Self {
        Node { prev: NIL, next: NIL, linked: false }
    }
}

/// Intrusive LRU over externally-owned slots `0..capacity`.
///
/// Front = most recently used; back = least recently used.
#[derive(Clone, Debug, Default)]
pub struct LruList {
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruList {
    /// Create a list able to track slots `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity < NIL as usize, "capacity exceeds u32 index space");
        LruList { nodes: vec![Node::default(); capacity], head: NIL, tail: NIL, len: 0 }
    }

    /// Number of linked slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is linked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `slot` is currently linked.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.nodes.get(slot).is_some_and(|n| n.linked)
    }

    /// Grow tracking capacity (new slots start unlinked).
    pub fn grow(&mut self, capacity: usize) {
        assert!(capacity < NIL as usize);
        if capacity > self.nodes.len() {
            self.nodes.resize(capacity, Node::default());
        }
    }

    /// Link `slot` at the MRU position.
    ///
    /// # Panics
    /// Panics if the slot is already linked or out of range.
    pub fn push_front(&mut self, slot: usize) {
        let idx = slot as u32;
        let node = &mut self.nodes[slot];
        assert!(!node.linked, "slot {slot} already linked");
        node.linked = true;
        node.prev = NIL;
        node.next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
        self.len += 1;
    }

    /// Link `slot` immediately on the LRU side of the linked slot `newer`
    /// (for a caller that keeps the list sorted by its own recency stamps
    /// and re-admits a slot at its old rank).
    ///
    /// # Panics
    /// Panics if `slot` is already linked, `newer` is not, or either is out
    /// of range.
    pub fn insert_older(&mut self, slot: usize, newer: usize) {
        assert!(!self.nodes[slot].linked, "slot {slot} already linked");
        assert!(self.nodes[newer].linked, "slot {newer} not linked");
        let next = std::mem::replace(&mut self.nodes[newer].next, slot as u32);
        self.nodes[slot] = Node { prev: newer as u32, next, linked: true };
        if next != NIL {
            self.nodes[next as usize].prev = slot as u32;
        } else {
            self.tail = slot as u32;
        }
        self.len += 1;
    }

    /// Unlink `slot` from the list.
    ///
    /// # Panics
    /// Panics if the slot is not linked.
    pub fn remove(&mut self, slot: usize) {
        let node = self.nodes[slot];
        assert!(node.linked, "slot {slot} not linked");
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
        self.nodes[slot] = Node::default();
        self.len -= 1;
    }

    /// Move an already-linked slot to the MRU position.
    pub fn touch(&mut self, slot: usize) {
        if self.head == slot as u32 {
            return;
        }
        self.remove(slot);
        self.push_front(slot);
    }

    /// The LRU slot, if any.
    #[inline]
    pub fn back(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail as usize)
    }

    /// The MRU slot, if any.
    #[inline]
    pub fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head as usize)
    }

    /// Unlink and return the LRU slot.
    pub fn pop_back(&mut self) -> Option<usize> {
        let slot = self.back()?;
        self.remove(slot);
        Some(slot)
    }

    /// Iterate slots from LRU to MRU (eviction order).
    pub fn iter_lru(&self) -> LruIter<'_> {
        LruIter { list: self, cur: self.tail, reverse: true }
    }

    /// Iterate slots from MRU to LRU.
    pub fn iter_mru(&self) -> LruIter<'_> {
        LruIter { list: self, cur: self.head, reverse: false }
    }
}

/// A bounded recency set of keys ("ghost" entries): remembers the most
/// recent `capacity` distinct keys without storing any data. Used by
/// LARC-style lazy admission — a page is admitted to the cache only on
/// its second miss within the ghost window.
#[derive(Debug, Clone)]
pub struct GhostList {
    capacity: usize,
    queue: std::collections::VecDeque<(u64, u64)>,
    live: crate::hash::FastMap<u64, u64>,
    gen: u64,
}

impl GhostList {
    /// A ghost list remembering up to `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        GhostList {
            capacity: capacity.max(1),
            queue: std::collections::VecDeque::new(),
            live: crate::hash::FastMap::default(),
            gen: 0,
        }
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `key` is remembered.
    pub fn contains(&self, key: u64) -> bool {
        self.live.contains_key(&key)
    }

    /// Remember `key` (refreshing it if present), evicting the oldest
    /// entry beyond capacity.
    pub fn insert(&mut self, key: u64) {
        self.gen += 1;
        self.live.insert(key, self.gen);
        self.queue.push_back((key, self.gen));
        while self.live.len() > self.capacity {
            // Lazily pop stale queue entries until a live victim emerges.
            let Some((k, g)) = self.queue.pop_front() else { break };
            if self.live.get(&k) == Some(&g) {
                self.live.remove(&k);
            }
        }
    }

    /// Forget `key` (it got admitted to the real cache).
    pub fn remove(&mut self, key: u64) -> bool {
        self.live.remove(&key).is_some()
    }
}

/// Iterator over linked slots of an [`LruList`].
pub struct LruIter<'a> {
    list: &'a LruList,
    cur: u32,
    reverse: bool,
}

impl Iterator for LruIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur as usize;
        let node = self.list.nodes[slot];
        self.cur = if self.reverse { node.prev } else { node.next };
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_touch_pop_order() {
        let mut l = LruList::with_capacity(4);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        // LRU order now: 0, 1, 2
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![0, 1, 2]);
        l.touch(0); // 0 becomes MRU
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![1, 2, 0]);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(0));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle() {
        let mut l = LruList::with_capacity(3);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        l.remove(1);
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!l.contains(1));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn insert_older_links_behind_its_anchor() {
        let mut l = LruList::with_capacity(5);
        l.push_front(0);
        l.push_front(1);
        l.insert_older(2, 1); // between 1 and 0
        l.insert_older(3, 0); // new LRU end
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![3, 0, 2, 1]);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![1, 2, 0, 3]);
        assert_eq!((l.back(), l.len()), (Some(3), 4));
        l.remove(3);
        l.remove(2);
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::with_capacity(2);
        l.push_front(0);
        l.push_front(1);
        l.touch(1);
        assert_eq!(l.front(), Some(1));
        assert_eq!(l.back(), Some(0));
    }

    #[test]
    fn grow_preserves_links() {
        let mut l = LruList::with_capacity(1);
        l.push_front(0);
        l.grow(3);
        l.push_front(2);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "already linked")]
    fn double_push_panics() {
        let mut l = LruList::with_capacity(1);
        l.push_front(0);
        l.push_front(0);
    }

    #[test]
    #[should_panic(expected = "not linked")]
    fn remove_unlinked_panics() {
        let mut l = LruList::with_capacity(1);
        l.remove(0);
    }

    #[test]
    fn single_element_list() {
        let mut l = LruList::with_capacity(1);
        l.push_front(0);
        assert_eq!(l.front(), l.back());
        assert_eq!(l.len(), 1);
        l.remove(0);
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
    }
}
