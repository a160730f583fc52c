//! Known-bad fixture for KDD000 (waiver hygiene). Linted as crate `core`.

pub fn reasonless(b: &[u8]) -> u64 {
    // kdd-lint: allow(no-panic)
    u64::from_le_bytes(b[..8].try_into().unwrap()) // line 5: waiver had no reason
}

pub fn unknown_rule(b: &[u8]) -> u64 {
    // kdd-lint: allow(no-such-rule) -- the rule name is wrong
    u64::from_le_bytes(b[..8].try_into().unwrap()) // line 10: unwaived unwrap
}

pub fn wrong_rule() {
    // kdd-lint: allow(layering) -- waives a rule this line does not hit
    panic!("still a violation"); // line 15: KDD001 not covered by that waiver
}

pub fn retired_rules(v: &[u8]) -> u8 {
    // kdd-lint: allow(indexing-slicing) -- line 19: KDD005 is retired (clippy checks this)
    let first = v[0];
    // kdd-waiver(KDD008): line 21: retired (a const `Send` assertion checks this)
    first
}
