//! Swap-based VM memory elasticity (the related-work baseline of §8).
//!
//! Before hot(un)plug interfaces matured, VM memory elasticity was
//! commonly realized with swapping — vSwapper, Memflex, and the
//! transcendent-memory/frontswap line of work. Instead of removing
//! memory from the guest, cold pages are written out to a host-side
//! swap backend and their host backing is released (fully, for a disk
//! backend; partially, for a compressed in-memory pool). The guest's
//! logical memory stays the same; touching a swapped page pays a major
//! fault.
//!
//! Two backends are modelled:
//!
//! * [`SwapBackend::Disk`] — classic swap to SSD: host memory fully
//!   released, slow synchronous swap-ins;
//! * [`SwapBackend::Compressed`] — zswap/frontswap-style pool: faster
//!   both ways, but the host retains `retain_ratio` of every swapped
//!   byte.
//!
//! Unlike unplugging, swap can reclaim memory that is *still in use* —
//! its niche is idle-but-alive instances (keep-alive), which is exactly
//! where the paper's §7 soft-memory proposal competes: swap preserves
//! the state it evicts (slow to restore), soft revocation discards it
//! (cheap to reclaim, rebuilt on demand).

use guest_mm::Pid;
use mem_types::PAGE_SIZE;
use sim_core::{CostModel, SimDuration};
use vmm::{HostMemory, Vm, VmmError};

/// Where swapped pages go on the host.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SwapBackend {
    /// SSD-backed swap: host memory fully released.
    Disk,
    /// Compressed in-memory pool retaining `retain_ratio` of each page.
    Compressed {
        /// Fraction of each swapped byte the host still holds
        /// (typical zswap ratios: 0.3-0.5).
        retain_ratio: f64,
    },
}

/// Report of one swap operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwapReport {
    /// Pages moved.
    pub pages: u64,
    /// Host bytes released (swap-out) or re-reserved (swap-in).
    pub host_bytes: u64,
    /// Wall latency of the operation.
    pub latency: SimDuration,
}

/// Cumulative device statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwapStats {
    /// Pages ever swapped out.
    pub pages_out: u64,
    /// Pages ever swapped back in.
    pub pages_in: u64,
}

/// The host-side swap device of one VM.
pub struct SwapDevice {
    backend: SwapBackend,
    /// Pages currently held by the device, per process.
    held: std::collections::HashMap<u32, u64>,
    /// Host bytes pinned by the compressed pool.
    pool_bytes: u64,
    stats: SwapStats,
}

impl SwapDevice {
    /// Creates a swap device with the given backend.
    pub fn new(backend: SwapBackend) -> Self {
        SwapDevice {
            backend,
            held: std::collections::HashMap::new(),
            pool_bytes: 0,
            stats: SwapStats::default(),
        }
    }

    /// Returns the device statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &SwapStats {
        &self.stats
    }

    /// Returns the pages the device currently holds for `pid`.
    pub(crate) fn held_pages(&self, pid: Pid) -> u64 {
        self.held.get(&pid.0).copied().unwrap_or(0)
    }

    /// Host bytes pinned by the compressed pool (0 for disk swap).
    pub fn pool_bytes(&self) -> u64 {
        self.pool_bytes
    }

    /// Swaps out the `pages` oldest anonymous pages of `pid`, releasing
    /// their host backing (minus the compressed pool's retained share).
    pub fn swap_out(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        pid: Pid,
        pages: u64,
        cost: &CostModel,
    ) -> Result<SwapReport, VmmError> {
        let victims = vm.guest.swap_out_anon(pid, pages)?;
        let n = victims.len() as u64;
        let freed = vm.ept.release_pages(&victims);
        let released = match self.backend {
            SwapBackend::Disk => freed * PAGE_SIZE,
            SwapBackend::Compressed { retain_ratio } => {
                let retained = (n as f64 * PAGE_SIZE as f64 * retain_ratio) as u64;
                self.pool_bytes += retained;
                (freed * PAGE_SIZE).saturating_sub(retained)
            }
        };
        host.release(released);
        *self.held.entry(pid.0).or_default() += n;
        self.stats.pages_out += n;
        let per_page = match self.backend {
            SwapBackend::Disk => cost.swap_out_page_disk_ns,
            SwapBackend::Compressed { .. } => cost.swap_compress_page_ns,
        };
        Ok(SwapReport {
            pages: n,
            host_bytes: released,
            latency: SimDuration::nanos(per_page * n),
        })
    }

    /// Swaps up to `pages` of `pid`'s pages back in: fresh guest pages
    /// are faulted, host backing re-reserved, and the major-fault read
    /// (or decompression) charged.
    pub fn swap_in(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        pid: Pid,
        pages: u64,
        cost: &CostModel,
    ) -> Result<SwapReport, VmmError> {
        let want = pages.min(self.held_pages(pid));
        let gfns = vm.guest.swap_in_anon(pid, want)?;
        let n = gfns.len() as u64;
        // Back the faulted pages with host memory.
        let fresh: Vec<_> = gfns
            .iter()
            .copied()
            .filter(|&g| !vm.ept.is_backed(g))
            .collect();
        host.reserve(fresh.len() as u64 * PAGE_SIZE)?;
        vm.ept.populate(&fresh);
        // The pool gives back its retained share.
        if let SwapBackend::Compressed { retain_ratio } = self.backend {
            let retained = (n as f64 * PAGE_SIZE as f64 * retain_ratio) as u64;
            let give_back = retained.min(self.pool_bytes);
            self.pool_bytes -= give_back;
            host.release(give_back);
        }
        *self.held.entry(pid.0).or_default() -= n;
        self.stats.pages_in += n;
        let per_page = match self.backend {
            SwapBackend::Disk => cost.swap_in_page_disk_ns,
            SwapBackend::Compressed { .. } => cost.swap_decompress_page_ns,
        };
        Ok(SwapReport {
            pages: n,
            host_bytes: fresh.len() as u64 * PAGE_SIZE,
            latency: SimDuration::nanos(per_page * n) + cost.ept_faults(fresh.len() as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::{AllocPolicy, GuestMmConfig};
    use mem_types::{GIB, MIB};
    use vmm::VmConfig;

    fn setup() -> (Vm, HostMemory, CostModel) {
        let cost = CostModel::default();
        let mut host = HostMemory::new(8 * GIB);
        let vm = Vm::boot(
            VmConfig {
                guest: GuestMmConfig {
                    boot_bytes: 512 * MIB,
                    hotplug_bytes: GIB,
                    kernel_bytes: 64 * MIB,
                    init_on_alloc: true,
                },
                vcpus: 2.0,
            },
            &mut host,
        )
        .unwrap();
        (vm, host, cost)
    }

    #[test]
    fn disk_swap_round_trip_releases_and_restores() {
        let (mut vm, mut host, cost) = setup();
        let mut dev = SwapDevice::new(SwapBackend::Disk);
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 10_000, &cost).unwrap();
        let rss0 = vm.host_rss();

        let out = dev
            .swap_out(&mut vm, &mut host, pid, 10_000, &cost)
            .unwrap();
        assert_eq!(out.pages, 10_000);
        assert_eq!(out.host_bytes, 10_000 * PAGE_SIZE);
        assert_eq!(vm.host_rss(), rss0 - 10_000 * PAGE_SIZE);
        assert_eq!(host.used_bytes(), vm.host_rss());
        assert_eq!(dev.held_pages(pid), 10_000);

        let back = dev.swap_in(&mut vm, &mut host, pid, 10_000, &cost).unwrap();
        assert_eq!(back.pages, 10_000);
        assert_eq!(vm.guest.process(pid).unwrap().rss_pages(), 10_000);
        assert_eq!(dev.held_pages(pid), 0);
        // Major faults are dearer than the write-out.
        assert!(back.latency > out.latency);
        vm.guest.assert_consistent();
    }

    #[test]
    fn compressed_pool_retains_a_share() {
        let (mut vm, mut host, cost) = setup();
        let mut dev = SwapDevice::new(SwapBackend::Compressed { retain_ratio: 0.4 });
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 10_000, &cost).unwrap();
        let used0 = host.used_bytes();

        let out = dev
            .swap_out(&mut vm, &mut host, pid, 10_000, &cost)
            .unwrap();
        let full = 10_000 * PAGE_SIZE;
        assert!(out.host_bytes < full, "pool retains a share");
        assert_eq!(out.host_bytes, full - dev.pool_bytes());
        assert_eq!(host.used_bytes(), used0 - out.host_bytes);

        // Swap-in gives the retained share back.
        dev.swap_in(&mut vm, &mut host, pid, 10_000, &cost).unwrap();
        assert_eq!(dev.pool_bytes(), 0);
        assert_eq!(host.used_bytes(), used0);
    }

    #[test]
    fn compressed_is_faster_but_saves_less() {
        let (mut vm, mut host, cost) = setup();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 20_000, &cost).unwrap();
        let mut disk = SwapDevice::new(SwapBackend::Disk);
        let d = disk
            .swap_out(&mut vm, &mut host, pid, 10_000, &cost)
            .unwrap();
        let mut comp = SwapDevice::new(SwapBackend::Compressed { retain_ratio: 0.4 });
        let c = comp
            .swap_out(&mut vm, &mut host, pid, 10_000, &cost)
            .unwrap();
        assert!(c.latency < d.latency, "compression beats SSD writes");
        assert!(c.host_bytes < d.host_bytes, "but releases less");
    }

    #[test]
    fn swap_in_caps_at_held_pages() {
        let (mut vm, mut host, cost) = setup();
        let mut dev = SwapDevice::new(SwapBackend::Disk);
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 100, &cost).unwrap();
        dev.swap_out(&mut vm, &mut host, pid, 40, &cost).unwrap();
        let r = dev.swap_in(&mut vm, &mut host, pid, 1000, &cost).unwrap();
        assert_eq!(r.pages, 40);
        assert_eq!(dev.stats().pages_out, 40);
        assert_eq!(dev.stats().pages_in, 40);
    }
}
