// A metadata log that finds a key's newest entry by keeping a copy of it:
// every push clones the entry into the index. Linted as
// crates/core/src/metalog.rs, the clone is a KDD006 finding.

use kdd_util::hash::FastMap;
use std::collections::VecDeque;

pub struct Log<E> {
    buffer: VecDeque<E>,
    latest: FastMap<u64, E>,
}

impl<E: Clone> Log<E> {
    pub fn push(&mut self, key: u64, entry: E) {
        self.latest.insert(key, entry.clone());
        self.buffer.push_back(entry);
    }
}
