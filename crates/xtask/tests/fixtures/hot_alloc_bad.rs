// Per-op page-buffer allocations: every line below is a KDD006 finding
// when linted under a hot-path rel_path such as crates/core/src/engine.rs.

pub fn write_path(data: &[u8]) -> Vec<u8> {
    let mut page = vec![0u8; 4096];
    page[..data.len()].copy_from_slice(data);
    let staged = data.to_vec();
    let replay = staged.clone();
    drop(replay);
    page
}

// A hash-chain match finder that rebuilds its scratch tables on every
// call: the table fills dominate the compress cost, so each is a finding.
pub fn compress_once(data: &[u8]) -> usize {
    let head = vec![0u64; 1 << 13];
    let chain = vec![u32::MAX; data.len()];
    let window = vec![0u16; 256];
    let offsets = vec![0u32; 64];
    let links = vec![u16::MAX; data.len()];
    head.len() + chain.len() + window.len() + offsets.len() + links.len()
}
