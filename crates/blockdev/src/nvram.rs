//! Battery-backed RAM with capacity accounting.
//!
//! KDD keeps three things in NVRAM (§III-B): the delta *staging buffer*,
//! the *metadata buffer*, and the metadata log's *head/tail counters* —
//! "all stored in the NVRAM (e.g., battery-backed RAM) which is commonly
//! used in storage arrays". NVRAM survives power failures but not much of
//! it exists (it is expensive), so [`Nvram`] enforces a byte budget: every
//! insertion declares its size and overflow is an error the caller must
//! handle by flushing to flash first.
//!
//! The wrapper is generic over the resident state so the recovery tests
//! can "power-cycle" a cache and get back exactly the NVRAM-resident part.

use crate::error::DevError;

/// A typed NVRAM region with a byte budget.
#[derive(Debug, Clone)]
pub struct Nvram<T> {
    state: T,
    capacity_bytes: u64,
    used_bytes: u64,
}

impl<T> Nvram<T> {
    /// Wrap `state` in an NVRAM region of `capacity_bytes`.
    pub fn new(state: T, capacity_bytes: u64) -> Self {
        Nvram { state, capacity_bytes, used_bytes: 0 }
    }

    /// Budget in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently accounted as used.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes still available.
    fn available_bytes(&self) -> u64 {
        self.capacity_bytes - self.used_bytes
    }

    /// Reserve `bytes` of budget; errors with [`DevError::NvramFull`] if it
    /// does not fit (caller must flush and [`Nvram::release`] first).
    pub fn reserve(&mut self, bytes: u64) -> Result<(), DevError> {
        if self.used_bytes + bytes > self.capacity_bytes {
            return Err(DevError::NvramFull {
                requested: bytes,
                available: self.available_bytes(),
            });
        }
        self.used_bytes += bytes;
        Ok(())
    }

    /// Return `bytes` of budget after flushing content to flash.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.used_bytes, "releasing more than reserved");
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }

    /// Whether a reservation of `bytes` would fit.
    pub fn fits(&self, bytes: u64) -> bool {
        self.used_bytes + bytes <= self.capacity_bytes
    }

    /// Access the resident state.
    pub fn get(&self) -> &T {
        &self.state
    }

    /// Mutably access the resident state. Budget accounting is the
    /// caller's job via [`Nvram::reserve`]/[`Nvram::release`].
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_enforced() {
        let mut nv = Nvram::new(Vec::<u32>::new(), 100);
        assert!(nv.fits(100));
        nv.reserve(60).unwrap();
        assert_eq!(nv.used_bytes(), 60);
        assert_eq!(nv.available_bytes(), 40);
        assert!(matches!(nv.reserve(41), Err(DevError::NvramFull { .. })));
        nv.reserve(40).unwrap();
        assert_eq!(nv.available_bytes(), 0);
    }

    #[test]
    fn release_returns_budget() {
        let mut nv = Nvram::new((), 10);
        nv.reserve(10).unwrap();
        nv.release(4);
        assert_eq!(nv.used_bytes(), 6);
        nv.reserve(4).unwrap();
    }

    #[test]
    fn state_survives_power_failure() {
        let mut nv = Nvram::new(vec![1u8, 2, 3], 64);
        nv.get_mut().push(4);
        assert_eq!(nv.get(), &vec![1, 2, 3, 4]);
    }
}
