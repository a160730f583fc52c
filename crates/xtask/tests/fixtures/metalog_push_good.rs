// The position-keyed log: the index holds where the newest entry sits, a
// push copies nothing, and the one copy a page cut makes (the log keeps the
// page, the caller gets the batch) carries its waiver. Clean under KDD006
// when linted as crates/core/src/metalog.rs.

use kdd_util::hash::FastMap;
use std::collections::VecDeque;

pub struct Log<E> {
    buffer: VecDeque<E>,
    buffer_base: u64,
    latest: FastMap<u64, u64>,
    pages: VecDeque<Vec<E>>,
}

impl<E: Clone> Log<E> {
    pub fn push(&mut self, key: u64, entry: E) {
        let end = self.buffer_base + self.buffer.len() as u64;
        self.latest.insert(key, end);
        self.buffer.push_back(entry);
    }

    pub fn cut(&mut self, n: usize) -> Vec<E> {
        let batch: Vec<E> = self.buffer.drain(..n).collect();
        self.buffer_base += n as u64;
        // kdd-waiver(KDD006): one copy per page cut, not per entry.
        self.pages.push_back(batch.clone());
        batch
    }
}
