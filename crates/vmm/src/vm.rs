//! The VM composite: guest kernel + EPT + paravirtual memory devices.
//!
//! [`Vm`] wires a [`GuestMm`] to its [`Ept`] and devices and owns the
//! host-visible consequences of guest activity:
//!
//! * guest faults lazily back pages with host memory (nested faults);
//! * guest frees are *invisible* to the host — backing stays until
//!   virtio-mem unplug or balloon inflation releases it (the Figure-1
//!   "host line stays flat" effect);
//! * unplugged block ranges are `madvise(MADV_DONTNEED)`d away,
//!   shrinking host usage.

use balloon::{BalloonDevice, BalloonReport};
use guest_mm::{FileId, GuestMm, GuestMmConfig, MmError, Pid, ZONE_MOVABLE};
use mem_types::{FrameRange, Gfn, PAGES_PER_BLOCK, PAGE_SIZE};
use sim_core::{CostModel, SimDuration};
use virtio_mem::{PlugReport, UnplugReport, VirtioMemDevice, VirtioMemError};

use crate::ept::Ept;
use crate::hostmem::{HostMemError, HostMemory};

/// Errors surfaced by VM-level operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmmError {
    /// The host ran out of physical memory.
    HostOom,
    /// A guest memory-management error.
    Guest(MmError),
    /// A virtio-mem device error.
    Virtio(VirtioMemError),
}

impl From<HostMemError> for VmmError {
    fn from(_: HostMemError) -> Self {
        VmmError::HostOom
    }
}

impl From<MmError> for VmmError {
    fn from(e: MmError) -> Self {
        VmmError::Guest(e)
    }
}

impl From<VirtioMemError> for VmmError {
    fn from(e: VirtioMemError) -> Self {
        VmmError::Virtio(e)
    }
}

impl core::fmt::Display for VmmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmmError::HostOom => f.write_str("host out of memory"),
            VmmError::Guest(e) => write!(f, "guest: {e}"),
            VmmError::Virtio(e) => write!(f, "virtio-mem: {e}"),
        }
    }
}

impl std::error::Error for VmmError {}

/// Cost and backing effects of a fault burst.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCharge {
    /// Guest pages faulted (minor faults), in 4 KiB units.
    pub pages: u64,
    /// Pages that were newly backed by host memory (nested faults), in
    /// 4 KiB units.
    pub newly_backed: u64,
    /// Page-cache hits (file touches only).
    pub cache_hits: u64,
    /// Huge pages mapped as real 2 MiB mappings (huge touches only).
    pub huge_mapped: u64,
    /// Huge requests that fell back to base pages (huge touches only).
    pub huge_fallbacks: u64,
    /// Total latency of the burst.
    pub latency: SimDuration,
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Guest memory layout.
    pub guest: GuestMmConfig,
    /// Number of vCPUs (drives the FaaS CPU pools).
    pub vcpus: f64,
}

/// A running VM: guest kernel, EPT, virtio-mem and balloon devices.
pub struct Vm {
    /// The guest kernel memory manager.
    pub guest: GuestMm,
    /// The nested page table.
    pub ept: Ept,
    /// The virtio-mem device (managed region = the hotplug range).
    pub virtio_mem: VirtioMemDevice,
    /// The balloon device.
    pub balloon: BalloonDevice,
    /// vCPU count.
    pub vcpus: f64,
    /// Reusable scratch for run-based fault paths (capacity persists
    /// across touches, so warmed-up VMs fault without allocating).
    fault_runs: Vec<FrameRange>,
}

impl Vm {
    /// Boots a VM, reserving host backing for the guest kernel's
    /// boot-time working set.
    pub fn boot(config: VmConfig, host: &mut HostMemory) -> Result<Vm, VmmError> {
        let guest = GuestMm::new(config.guest);
        let boot_frames = config.guest.boot_bytes / PAGE_SIZE;
        let hotplug_frames = config.guest.hotplug_bytes / PAGE_SIZE;
        let mut ept = Ept::new(boot_frames + hotplug_frames);
        let kernel = guest.kernel_pages();
        host.reserve(kernel.iter().map(|r| r.count).sum::<u64>() * PAGE_SIZE)?;
        for &run in kernel {
            ept.populate_range(run);
        }
        let region = FrameRange::new(Gfn(boot_frames), hotplug_frames);
        Ok(Vm {
            guest,
            ept,
            virtio_mem: VirtioMemDevice::new(region, ZONE_MOVABLE),
            balloon: BalloonDevice::new(),
            vcpus: config.vcpus,
            fault_runs: Vec::new(),
        })
    }

    /// Returns the VM's host-resident set (bytes the host has committed).
    pub fn host_rss(&self) -> u64 {
        self.ept.backed_bytes()
    }

    /// Faults `pages` anonymous pages into `pid`, backing fresh ones with
    /// host memory.
    pub fn touch_anon(
        &mut self,
        host: &mut HostMemory,
        pid: Pid,
        pages: u64,
        cost: &CostModel,
    ) -> Result<FaultCharge, VmmError> {
        let mut runs = std::mem::take(&mut self.fault_runs);
        runs.clear();
        let backed = self
            .guest
            .fault_anon_runs(pid, pages, &mut runs)
            .map_err(VmmError::from)
            .and_then(|()| self.back_runs(host, &runs, cost));
        self.fault_runs = runs;
        let charge = backed?;
        Ok(FaultCharge {
            pages,
            newly_backed: charge.newly_backed,
            latency: SimDuration::nanos(cost.guest_minor_fault_ns * pages) + charge.latency,
            ..FaultCharge::default()
        })
    }

    /// Faults `n_huge` 2 MiB huge pages into `pid`, backing each mapped
    /// huge page with a single 2 MiB nested fault (THP on the host, §5.1)
    /// and any fallback base pages with 4 KiB nested faults.
    pub fn touch_anon_huge(
        &mut self,
        host: &mut HostMemory,
        pid: Pid,
        n_huge: u64,
        cost: &CostModel,
    ) -> Result<FaultCharge, VmmError> {
        let outcome = self.guest.fault_anon_huge(pid, n_huge)?;
        let mut latency = SimDuration::ZERO;
        let mut newly_backed = 0;
        // Huge mappings: one reservation + one 2 MiB nested fault per
        // head whose range is not yet fully backed.
        for &h in &outcome.huge_heads {
            let range = FrameRange::new(h, guest_mm::PAGES_PER_HUGE);
            let fresh = self.ept.count_unbacked(range);
            if fresh > 0 {
                host.reserve(fresh * PAGE_SIZE)?;
                self.ept.populate_range(range);
                newly_backed += fresh;
                latency += cost.ept_faults_huge(1);
            } else {
                latency += SimDuration::nanos(cost.guest_minor_fault_ns);
            }
        }
        // Fallback base pages go through the ordinary path.
        let base = self.back_pages(host, &outcome.fallback_pages, cost)?;
        newly_backed += base.newly_backed;
        latency += base.latency
            + SimDuration::nanos(cost.guest_minor_fault_ns * outcome.fallback_pages.len() as u64);
        Ok(FaultCharge {
            pages: outcome.total_pages(),
            newly_backed,
            cache_hits: 0,
            huge_mapped: outcome.huge_heads.len() as u64,
            huge_fallbacks: n_huge - outcome.huge_heads.len() as u64,
            latency,
        })
    }

    /// Touches the first `want_pages` of `file`: cache hits are nearly
    /// free, misses pay a storage read plus nested faults.
    pub fn touch_file(
        &mut self,
        host: &mut HostMemory,
        file: FileId,
        want_pages: u64,
        cost: &CostModel,
    ) -> Result<FaultCharge, VmmError> {
        let mut runs = std::mem::take(&mut self.fault_runs);
        runs.clear();
        let result = self
            .guest
            .fault_file_runs(file, want_pages, &mut runs)
            .map_err(VmmError::from)
            .and_then(|outcome| Ok((outcome, self.back_runs(host, &runs, cost)?)));
        self.fault_runs = runs;
        let (outcome, backing) = result?;
        debug_assert_eq!(
            self.fault_runs.iter().map(|r| r.count).sum::<u64>(),
            outcome.new_pages
        );
        let miss_bytes_mib = outcome.new_pages * PAGE_SIZE / (1 << 20);
        let hit_bytes_mib = outcome.cached_pages * PAGE_SIZE / (1 << 20);
        let latency = SimDuration::nanos(cost.disk_read_mib_ns * miss_bytes_mib)
            + SimDuration::nanos(cost.cached_read_mib_ns * hit_bytes_mib)
            + backing.latency;
        Ok(FaultCharge {
            pages: outcome.new_pages + outcome.cached_pages,
            newly_backed: backing.newly_backed,
            cache_hits: outcome.cached_pages,
            latency,
            ..FaultCharge::default()
        })
    }

    /// Plugs `bytes` of memory via virtio-mem (no host backing yet:
    /// memory is backed on first touch, §3 "Physical memory allocation").
    pub fn plug(&mut self, bytes: u64, cost: &CostModel) -> Result<PlugReport, VmmError> {
        Ok(self.virtio_mem.plug(&mut self.guest, bytes, cost)?)
    }

    /// Unplugs up to `bytes` via vanilla virtio-mem, releasing the host
    /// backing of removed blocks.
    pub fn unplug(
        &mut self,
        host: &mut HostMemory,
        bytes: u64,
        deadline: Option<SimDuration>,
        cost: &CostModel,
    ) -> Result<UnplugReport, VmmError> {
        let report = self
            .virtio_mem
            .unplug(&mut self.guest, bytes, deadline, cost)?;
        self.release_blocks(host, &report.blocks);
        Ok(report)
    }

    /// Squeezy-style instant unplug of specific empty blocks, releasing
    /// their host backing. A request with a block that cannot go fails
    /// before any block is unplugged, so every block stays plugged and
    /// backed.
    pub fn unplug_blocks_instant(
        &mut self,
        host: &mut HostMemory,
        blocks: &[mem_types::BlockId],
        cost: &CostModel,
    ) -> Result<UnplugReport, VmmError> {
        let report = self
            .virtio_mem
            .unplug_blocks_instant(&mut self.guest, blocks, cost)?;
        self.release_blocks(host, &report.blocks);
        Ok(report)
    }

    /// Runs one free-page-reporting cycle (\[21\]): the guest reports
    /// unreported free chunks and the host releases their backing.
    /// Capacity stays plugged — only the backing shrinks.
    pub fn report_free_pages(
        &mut self,
        host: &mut HostMemory,
        reporter: &mut balloon::FreePageReporter,
        cost: &CostModel,
    ) -> balloon::ReportingCycle {
        let ept = &self.ept;
        let cycle = reporter.cycle(
            &self.guest,
            |g, o| ept.count_unbacked(FrameRange::new(g, 1 << o)) < (1 << o),
            cost,
        );
        let mut freed = 0;
        for &(g, o) in &cycle.chunks {
            freed += self.ept.release_range(FrameRange::new(g, 1 << o));
        }
        host.release(freed * PAGE_SIZE);
        cycle
    }

    /// Reclaims `bytes` by balloon inflation, releasing each inflated
    /// page's host backing individually.
    pub fn balloon_reclaim(
        &mut self,
        host: &mut HostMemory,
        bytes: u64,
        cost: &CostModel,
    ) -> Result<BalloonReport, VmmError> {
        let before = self.balloon.held_pages().len();
        let report = self.balloon.inflate(&mut self.guest, bytes, cost)?;
        let fresh: Vec<Gfn> = self.balloon.held_pages()[before..].to_vec();
        let freed = self.ept.release_pages(&fresh);
        host.release(freed * PAGE_SIZE);
        Ok(report)
    }

    /// Backs `gfns` with host memory, returning the nested-fault charge.
    fn back_pages(
        &mut self,
        host: &mut HostMemory,
        gfns: &[Gfn],
        cost: &CostModel,
    ) -> Result<FaultCharge, VmmError> {
        let fresh: Vec<Gfn> = gfns
            .iter()
            .copied()
            .filter(|&g| !self.ept.is_backed(g))
            .collect();
        host.reserve(fresh.len() as u64 * PAGE_SIZE)?;
        let newly = self.ept.populate(&fresh);
        debug_assert_eq!(newly, fresh.len() as u64);
        Ok(FaultCharge {
            newly_backed: newly,
            latency: cost.ept_faults(newly),
            ..FaultCharge::default()
        })
    }

    /// Backs contiguous frame runs with host memory — the range-based
    /// sibling of [`Vm::back_pages`]: one reservation for the whole
    /// burst, then word-granular EPT populates per run.
    fn back_runs(
        &mut self,
        host: &mut HostMemory,
        runs: &[FrameRange],
        cost: &CostModel,
    ) -> Result<FaultCharge, VmmError> {
        let fresh: u64 = runs.iter().map(|&r| self.ept.count_unbacked(r)).sum();
        host.reserve(fresh * PAGE_SIZE)?;
        let mut newly = 0;
        for &r in runs {
            newly += self.ept.populate_range(r);
        }
        debug_assert_eq!(newly, fresh);
        Ok(FaultCharge {
            newly_backed: newly,
            latency: cost.ept_faults(newly),
            ..FaultCharge::default()
        })
    }

    /// Releases host backing of unplugged blocks.
    fn release_blocks(&mut self, host: &mut HostMemory, blocks: &[mem_types::BlockId]) {
        let mut freed = 0;
        for b in blocks {
            freed += self
                .ept
                .release_range(FrameRange::new(b.first_frame(), PAGES_PER_BLOCK));
        }
        host.release(freed * PAGE_SIZE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::AllocPolicy;
    use mem_types::{BlockId, GIB, MIB};

    fn config() -> VmConfig {
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: 256 * MIB,
                hotplug_bytes: GIB,
                kernel_bytes: 64 * MIB,
                init_on_alloc: true,
            },
            vcpus: 2.0,
        }
    }

    #[test]
    fn boot_backs_kernel_memory() {
        let mut host = HostMemory::new(8 * GIB);
        let vm = Vm::boot(config(), &mut host).unwrap();
        assert_eq!(vm.host_rss(), 64 * MIB);
        assert_eq!(host.used_bytes(), 64 * MIB);
    }

    #[test]
    fn anon_touch_backs_host_memory_once() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let c = vm.touch_anon(&mut host, pid, 1000, &cost).unwrap();
        assert_eq!(c.pages, 1000);
        assert_eq!(c.newly_backed, 1000);
        assert!(c.latency > SimDuration::ZERO);
        let rss = vm.host_rss();
        assert_eq!(rss, 64 * MIB + 1000 * PAGE_SIZE);

        // Guest free + refault: pages reused, no new host backing.
        vm.guest.free_anon(pid, 1000).unwrap();
        assert_eq!(vm.host_rss(), rss, "host blind to guest frees");
        let c2 = vm.touch_anon(&mut host, pid, 500, &cost).unwrap();
        assert_eq!(c2.newly_backed, 0, "reused pages were already backed");
        assert_eq!(vm.host_rss(), rss);
    }

    #[test]
    fn plug_then_unplug_releases_host_memory() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        vm.plug(512 * MIB, &cost).unwrap();
        assert_eq!(vm.host_rss(), 64 * MIB, "plug does not back memory");

        // Touch the plugged memory.
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 2 * PAGES_PER_BLOCK, &cost)
            .unwrap();
        let rss_peak = vm.host_rss();
        assert_eq!(rss_peak, 64 * MIB + 256 * MIB);

        // Kill the process and reclaim.
        vm.guest.exit_process(pid).unwrap();
        let report = vm.unplug(&mut host, 256 * MIB, None, &cost).unwrap();
        assert_eq!(report.blocks.len(), 2);
        assert!(vm.host_rss() < rss_peak, "unplug released backing");
        assert_eq!(host.used_bytes(), vm.host_rss());
    }

    #[test]
    fn balloon_reclaim_releases_per_page() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 10_000, &cost).unwrap();
        vm.guest.free_anon(pid, 10_000).unwrap();
        let rss = vm.host_rss();
        let report = vm.balloon_reclaim(&mut host, 32 * MIB, &cost).unwrap();
        assert_eq!(report.bytes(), 32 * MIB);
        // Balloon grabbed (mostly) previously-backed free pages.
        assert!(vm.host_rss() < rss);
        assert_eq!(host.used_bytes(), vm.host_rss());
    }

    #[test]
    fn host_oom_propagates() {
        let mut host = HostMemory::new(80 * MIB);
        let vm = Vm::boot(config(), &mut host).unwrap();
        let mut vm = vm;
        let cost = CostModel::default();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        // 80 MiB host, 64 MiB kernel: ~16 MiB of slack.
        let r = vm.touch_anon(&mut host, pid, 10_000, &cost);
        assert_eq!(r.unwrap_err(), VmmError::HostOom);
    }

    #[test]
    fn file_touch_uses_cache() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        let f = FileId(1);
        let c1 = vm.touch_file(&mut host, f, 25_600, &cost).unwrap(); // 100 MiB
        assert_eq!(c1.cache_hits, 0);
        assert_eq!(c1.newly_backed, 25_600);
        let c2 = vm.touch_file(&mut host, f, 25_600, &cost).unwrap();
        assert_eq!(c2.cache_hits, 25_600);
        assert_eq!(c2.newly_backed, 0);
        assert!(
            c2.latency < c1.latency / 10,
            "cache hit ({}) ≫ faster than miss ({})",
            c2.latency,
            c1.latency
        );
    }

    #[test]
    fn free_page_reporting_releases_backing_without_unplug() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        vm.plug(512 * MIB, &cost).unwrap();
        let mut fpr = balloon::FreePageReporter::new(balloon::DEFAULT_REPORT_ORDER);
        // Converge on the initial state (plugged-but-untouched memory
        // has no backing to release).
        vm.report_free_pages(&mut host, &mut fpr, &cost);
        // A workload touches 256 MiB then exits: backing stays (Fig. 1).
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 256 * MIB / PAGE_SIZE, &cost)
            .unwrap();
        vm.guest.exit_process(pid).unwrap();
        let rss_before = vm.host_rss();
        // Reporting cycles recover the freed memory — without any
        // unplug: the guest's plugged capacity is unchanged.
        let plugged = vm.virtio_mem.plugged_bytes();
        let cycle = vm.report_free_pages(&mut host, &mut fpr, &cost);
        assert!(cycle.bytes() >= 256 * MIB);
        assert!(vm.host_rss() + 256 * MIB <= rss_before + MIB);
        assert_eq!(vm.virtio_mem.plugged_bytes(), plugged);
        assert_eq!(host.used_bytes(), vm.host_rss());
        // Refaulting pays nested faults again.
        let pid2 = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let c = vm.touch_anon(&mut host, pid2, 1000, &cost).unwrap();
        assert_eq!(c.newly_backed, 1000);
        vm.guest.assert_consistent();
    }

    #[test]
    fn huge_touch_backs_2mib_at_a_time() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        vm.plug(256 * MIB, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let c = vm.touch_anon_huge(&mut host, pid, 16, &cost).unwrap();
        assert_eq!(c.huge_mapped, 16);
        assert_eq!(c.huge_fallbacks, 0);
        assert_eq!(c.pages, 16 * 512);
        assert_eq!(c.newly_backed, 16 * 512);
        assert_eq!(vm.host_rss(), 64 * MIB + 32 * MIB);
        // 16 huge nested faults are much cheaper than 8192 base faults.
        let base_cost = cost.ept_faults(16 * 512);
        assert!(
            c.latency < base_cost / 5,
            "huge backing {} vs base {}",
            c.latency,
            base_cost
        );
    }

    #[test]
    fn huge_retouch_is_minor() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        vm.plug(256 * MIB, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon_huge(&mut host, pid, 4, &cost).unwrap();
        vm.guest.free_anon_huge(pid, 4).unwrap();
        let rss = vm.host_rss();
        // Refault: the buddy hands back the same (already backed) range.
        let c = vm.touch_anon_huge(&mut host, pid, 4, &cost).unwrap();
        assert_eq!(c.newly_backed, 0);
        assert_eq!(vm.host_rss(), rss);
    }

    #[test]
    fn squeezy_blocks_instant_path() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        let plugged = vm.plug(256 * MIB, &cost).unwrap();
        let blocks: Vec<BlockId> = plugged.blocks.clone();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, PAGES_PER_BLOCK, &cost)
            .unwrap();
        vm.guest.exit_process(pid).unwrap();
        vm.guest.unplug_aware_zeroing_skip = true;
        let report = vm.unplug_blocks_instant(&mut host, &blocks, &cost).unwrap();
        assert_eq!(report.outcome.migrated, 0);
        assert_eq!(vm.host_rss(), 64 * MIB, "backing fully released");
    }

    #[test]
    fn a_failed_instant_batch_leaves_every_block_plugged_and_backed() {
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = Vm::boot(config(), &mut host).unwrap();
        let cost = CostModel::default();
        let blocks = vm.plug(512 * MIB, &cost).unwrap().blocks;
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        vm.touch_anon(&mut host, pid, 4 * PAGES_PER_BLOCK, &cost)
            .unwrap();
        vm.guest.free_anon(pid, 4 * PAGES_PER_BLOCK - 1).unwrap();
        // The one page left is the first faulted, in the highest block:
        // the batch's last.
        let last = *blocks.last().unwrap();
        assert_eq!(vm.guest.blocks().counters(last).used_movable, 1);
        let used = host.used_bytes();
        let err = vm
            .unplug_blocks_instant(&mut host, &blocks, &cost)
            .unwrap_err();
        assert_eq!(
            err,
            VmmError::Virtio(VirtioMemError::Guest(MmError::BlockNotEmpty))
        );
        assert_eq!(host.used_bytes(), used);
        assert_eq!(vm.host_rss(), used);
        for &b in &blocks {
            assert!(vm.virtio_mem.is_plugged(b), "{b:?} unplugged");
            assert!(matches!(
                vm.guest.blocks().state(b),
                guest_mm::blocks::BlockState::Online { .. }
            ));
            assert_eq!(vm.ept.count_unbacked(b.frames()), 0, "{b:?} lost backing");
        }
        vm.guest.assert_consistent();
    }
}
