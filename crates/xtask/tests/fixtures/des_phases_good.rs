// The replayer's inline phase state: both rounds of a read-modify-write
// share one fixed-size target array, so a request allocates nothing.
// Clean under KDD006 when linted as crates/sim/src/des.rs.

#[derive(Clone, Copy)]
pub struct Phases {
    pub targets: [(usize, u64); 3],
    pub count: u8,
    pub rounds_left: u8,
}

pub fn phases_for(data: (usize, u64), parity: Option<usize>, rounds: u32) -> Phases {
    let mut phases = Phases { targets: [data; 3], count: 1, rounds_left: 1 };
    if rounds >= 2 {
        phases.rounds_left = 2;
        if let Some(disk) = parity {
            phases.targets[1].0 = disk;
            phases.count = 2;
        }
    }
    phases
}
