//! The memhog microbenchmark (§5.1).
//!
//! memhog repeatedly (de)allocates fixed-size chunks of memory, stressing
//! both CPU and memory. The reclamation microbenchmarks (Figures 5-7) run
//! 32 instances on a 32:1 VM sized so they occupy all of guest memory,
//! then kill them one by one and reclaim.

use guest_mm::Pid;
use mem_types::bytes_to_pages_ceil;
use sim_core::CostModel;
use vmm::{FaultCharge, HostMemory, Vm, VmmError};

/// One memhog instance: a process with a fixed-size footprint.
#[derive(Clone, Copy, Debug)]
pub struct Memhog {
    /// The guest process backing this instance.
    pub pid: Pid,
    /// Target footprint in pages.
    pub pages: u64,
    /// Back the footprint with 2 MiB transparent huge pages.
    pub huge: bool,
}

impl Memhog {
    /// Spawns a memhog of `bytes` with the given allocation policy
    /// already configured on the process (callers set Squeezy policies
    /// through the manager).
    pub fn spawn(vm: &mut Vm, bytes: u64) -> Memhog {
        let pid = vm
            .guest
            .spawn_process(guest_mm::AllocPolicy::MovableDefault);
        Memhog {
            pid,
            pages: bytes_to_pages_ceil(bytes),
            huge: false,
        }
    }

    /// Spawns a memhog whose footprint is THP-backed (§7's 2 MiB fault
    /// granularity). `bytes` is rounded up to whole huge pages.
    pub fn spawn_huge(vm: &mut Vm, bytes: u64) -> Memhog {
        let pid = vm
            .guest
            .spawn_process(guest_mm::AllocPolicy::MovableDefault);
        let pages = bytes_to_pages_ceil(bytes).next_multiple_of(guest_mm::PAGES_PER_HUGE);
        Memhog {
            pid,
            pages,
            huge: true,
        }
    }

    /// Faults the full footprint in (the warm-up phase of §6.1.1).
    pub fn warm_up(
        &self,
        vm: &mut Vm,
        host: &mut HostMemory,
        cost: &CostModel,
    ) -> Result<FaultCharge, VmmError> {
        if self.huge {
            vm.touch_anon_huge(host, self.pid, self.pages / guest_mm::PAGES_PER_HUGE, cost)
        } else {
            vm.touch_anon(host, self.pid, self.pages, cost)
        }
    }

    /// Kills the instance, freeing its guest memory. Returns freed pages.
    pub fn kill(&self, vm: &mut Vm) -> Result<u64, VmmError> {
        Ok(vm.guest.exit_process(self.pid)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::GuestMmConfig;
    use mem_types::{GIB, MIB, PAGE_SIZE};
    use vmm::VmConfig;

    fn vm_and_host() -> (Vm, HostMemory) {
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
        (vm, host)
    }

    #[test]
    fn warm_up_faults_full_footprint() {
        let (mut vm, mut host) = vm_and_host();
        let cost = CostModel::default();
        let hog = Memhog::spawn(&mut vm, 128 * MIB);
        let c = hog.warm_up(&mut vm, &mut host, &cost).unwrap();
        assert_eq!(c.pages, 128 * MIB / PAGE_SIZE);
        assert_eq!(
            vm.guest.process(hog.pid).unwrap().rss_pages(),
            128 * MIB / PAGE_SIZE
        );
    }

    #[test]
    fn huge_memhog_maps_huge_pages() {
        let (mut vm, mut host) = vm_and_host();
        let cost = CostModel::default();
        vm.plug(256 * MIB, &cost).unwrap();
        let hog = Memhog::spawn_huge(&mut vm, 100 * MIB);
        assert_eq!(hog.pages % guest_mm::PAGES_PER_HUGE, 0, "rounded to huge");
        let c = hog.warm_up(&mut vm, &mut host, &cost).unwrap();
        assert_eq!(c.huge_mapped, hog.pages / guest_mm::PAGES_PER_HUGE);
        assert_eq!(vm.guest.process(hog.pid).unwrap().rss_huge(), c.huge_mapped);
    }

    #[test]
    fn kill_frees_guest_memory() {
        let (mut vm, mut host) = vm_and_host();
        let cost = CostModel::default();
        let hog = Memhog::spawn(&mut vm, 32 * MIB);
        hog.warm_up(&mut vm, &mut host, &cost).unwrap();
        let used = vm.guest.used_bytes();
        assert_eq!(hog.kill(&mut vm).unwrap(), 32 * MIB / PAGE_SIZE);
        assert_eq!(vm.guest.used_bytes(), used - 32 * MIB);
    }
}
