// The discrete-event replayer's old phase list: a heap-allocated target
// vector per request, cloned for the second round of a read-modify-write.
// Linted as crates/sim/src/des.rs, the clone is a KDD006 finding.

use std::collections::VecDeque;

type Target = (usize, u64);

pub fn phases_for(data: Target, parity: Option<Target>, rounds: u32) -> VecDeque<Vec<Target>> {
    let mut phases = VecDeque::new();
    let mut targets = vec![data];
    targets.extend(parity);
    if rounds >= 2 {
        phases.push_back(targets.clone());
    }
    phases.push_back(targets);
    phases
}
