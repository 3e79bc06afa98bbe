//! Host physical memory accounting.
//!
//! The memory-limited experiment (§6.2.2, Figure 10) restricts the host
//! to ~70 % of the peak footprint, forcing scale-up events to wait for
//! reclamation. [`HostMemory`] is the single source of truth for how many
//! host bytes are committed to VMs; EPT populate operations reserve from
//! it and unplug/madvise releases back into it.

/// Errors from host memory operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostMemError {
    /// The host has no free memory for the reservation.
    HostOom,
}

impl core::fmt::Display for HostMemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("host out of memory")
    }
}

impl std::error::Error for HostMemError {}

/// Host physical memory: capacity and usage.
pub struct HostMemory {
    capacity: u64,
    used: u64,
}

impl HostMemory {
    /// Creates a host with `capacity` bytes (`u64::MAX` ≈ unlimited).
    pub fn new(capacity: u64) -> Self {
        HostMemory { capacity, used: 0 }
    }

    /// Returns the bytes currently committed to VMs.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Returns the free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Reserves `bytes`, failing if the host is out of memory.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), HostMemError> {
        if self.used + bytes > self.capacity {
            return Err(HostMemError::HostOom);
        }
        self.used += bytes;
        Ok(())
    }

    /// Releases `bytes` back to the host.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than is used (accounting bug).
    pub fn release(&mut self, bytes: u64) {
        assert!(bytes <= self.used, "releasing {bytes} > used {}", self.used);
        self.used -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let mut h = HostMemory::new(1000);
        assert_eq!(h.free_bytes(), 1000);
        h.reserve(400).unwrap();
        assert_eq!(h.used_bytes(), 400);
        assert_eq!(h.free_bytes(), 600);
        h.release(100);
        assert_eq!(h.used_bytes(), 300);
    }

    #[test]
    fn reserve_fails_at_capacity() {
        let mut h = HostMemory::new(100);
        h.reserve(100).unwrap();
        assert_eq!(h.reserve(1), Err(HostMemError::HostOom));
        // Failed reserve leaves accounting untouched.
        assert_eq!(h.used_bytes(), 100);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut h = HostMemory::new(100);
        h.release(1);
    }
}
