// Pool-recycled buffers plus one shorthand-waived copy: clean under KDD006.

pub fn write_path(pool: &mut kdd_util::PagePool, data: &[u8]) -> u64 {
    let mut page = pool.acquire();
    page[..data.len()].copy_from_slice(data);
    let sum = page.iter().map(|&b| u64::from(b)).sum();
    pool.release(page);
    sum
}

pub fn snapshot(data: &[u8]) -> Vec<u8> {
    // kdd-waiver(KDD006): the snapshot is returned to the caller by value.
    data.to_vec()
}

/// Scratch tables built once and reused across calls — the sanctioned
/// shape for match-finder state (cf. `delta::codec::Compressor`).
pub struct Finder {
    head: Vec<u16>,
    chain: Vec<u16>,
}

impl Finder {
    pub fn new() -> Finder {
        // kdd-waiver(KDD006): one-time scratch construction, reused per call.
        let head = vec![u16::MAX; 1 << 13];
        Finder { head, chain: Vec::new() }
    }

    pub fn find(&mut self, data: &[u8]) -> usize {
        self.chain.resize(data.len(), u16::MAX); // grows once, then reused
        self.head.len() + self.chain.len()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_buffers_may_allocate() {
        let buf = vec![0u8; 16];
        assert_eq!(buf.to_vec().len(), buf.clone().len());
    }
}
