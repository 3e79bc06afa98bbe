//! A virtio-mem device + guest-driver model.
//!
//! virtio-mem (Hildenbrand & Schulz, VEE '21) exposes a paravirtual DIMM
//! sliced into blocks that can be (un)plugged independently. The device
//! tracks a `plugged` bitmap over its managed region; the guest driver
//! reacts to resize requests by hot-adding + onlining blocks (plug) or
//! offlining + hot-removing them (unplug), using the native Linux
//! mechanisms modelled in [`guest_mm`].
//!
//! Every operation returns a report with
//!
//! * a [`LatencyBreakdown`] in the paper's Figure-5 buckets (zeroing /
//!   migration / VM exits / rest),
//! * guest and host CPU time (for the Figure-7/9 interference model), and
//! * the affected blocks, so the VMM can release or prepare host backing.
//!
//! The model is synchronous: it mutates the guest memory manager and
//! charges calibrated costs; the caller decides how charged CPU time maps
//! to wall-clock time (directly for microbenchmarks, through a
//! [`sim_core::CpuPool`] when the driver thread shares vCPUs with
//! function instances).

use guest_mm::{CandidateStrategy, GuestMm, MmError, OfflineOutcome};
use mem_types::{BlockId, FrameRange, MEM_BLOCK_SIZE, PAGES_PER_BLOCK};
use sim_core::{CostModel, LatencyBreakdown, SimDuration};

/// Errors from virtio-mem operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VirtioMemError {
    /// The request exceeds the device's managed region.
    RegionExhausted,
    /// The request is not a multiple of the 128 MiB block size.
    Misaligned,
    /// A guest-side memory-management operation failed.
    Guest(MmError),
}

impl core::fmt::Display for VirtioMemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VirtioMemError::RegionExhausted => f.write_str("managed region exhausted"),
            VirtioMemError::Misaligned => f.write_str("request not block-aligned"),
            VirtioMemError::Guest(e) => write!(f, "guest error: {e}"),
        }
    }
}

impl std::error::Error for VirtioMemError {}

/// Report of a plug operation.
#[derive(Clone, Debug, Default)]
pub struct PlugReport {
    /// Blocks hot-added and onlined, in order.
    pub blocks: Vec<BlockId>,
    /// Latency breakdown (plugging has no migration/zeroing).
    pub breakdown: LatencyBreakdown,
    /// Guest-side CPU time consumed (driver + onlining).
    pub guest_cpu: SimDuration,
    /// Host-side CPU time consumed (device emulation).
    pub host_cpu: SimDuration,
}

impl PlugReport {
    /// Bytes plugged.
    pub fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * MEM_BLOCK_SIZE
    }

    /// Total wall latency when run unconstrained.
    pub fn latency(&self) -> SimDuration {
        self.breakdown.total()
    }
}

/// Report of an unplug operation.
#[derive(Clone, Debug, Default)]
pub struct UnplugReport {
    /// Blocks offlined and hot-removed, in order.
    pub blocks: Vec<BlockId>,
    /// Aggregate mechanical counts across all offlined blocks.
    pub outcome: OfflineOutcome,
    /// Latency breakdown in Figure-5 buckets.
    pub breakdown: LatencyBreakdown,
    /// Guest-side CPU time (driver kthread: scans, migration, zeroing).
    pub guest_cpu: SimDuration,
    /// Host-side CPU time (exit service, `madvise`).
    pub host_cpu: SimDuration,
    /// Bytes that could not be reclaimed (timeout / no candidates).
    pub shortfall_bytes: u64,
    /// Offline attempts that failed and were rolled back.
    pub failed_attempts: u64,
}

impl UnplugReport {
    /// Bytes actually unplugged.
    pub fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * MEM_BLOCK_SIZE
    }

    /// Total wall latency when run unconstrained.
    pub fn latency(&self) -> SimDuration {
        self.breakdown.total()
    }
}

/// Cumulative device statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct VirtioMemStats {
    /// Total bytes ever plugged.
    pub plugged_bytes: u64,
    /// Total bytes ever unplugged.
    pub unplugged_bytes: u64,
    /// Plug operations served.
    pub plug_ops: u64,
    /// Unplug operations served.
    pub unplug_ops: u64,
    /// Unplug operations that fell short of their target.
    pub unplug_shortfalls: u64,
}

/// The virtio-mem device model.
pub struct VirtioMemDevice {
    /// Managed guest-physical region (block-aligned).
    region: FrameRange,
    /// Plugged state per block of the region.
    plugged: mem_types::Bitmap,
    /// Zone blocks are onlined into on the vanilla path.
    default_zone: u8,
    /// Candidate selection strategy for vanilla unplug.
    pub strategy: CandidateStrategy,
    stats: VirtioMemStats,
}

impl VirtioMemDevice {
    /// Creates a device managing `region` (must be block-aligned), with
    /// vanilla plugs onlining into `default_zone`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not block-aligned.
    pub fn new(region: FrameRange, default_zone: u8) -> Self {
        assert_eq!(region.start.0 % PAGES_PER_BLOCK, 0, "region misaligned");
        assert_eq!(region.count % PAGES_PER_BLOCK, 0, "region not block-sized");
        let nblocks = (region.count / PAGES_PER_BLOCK) as usize;
        VirtioMemDevice {
            region,
            plugged: mem_types::Bitmap::new(nblocks),
            default_zone,
            strategy: CandidateStrategy::HighestFirst,
            stats: VirtioMemStats::default(),
        }
    }

    /// Returns the managed region.
    pub fn region(&self) -> FrameRange {
        self.region
    }

    /// Returns the currently plugged size in bytes.
    pub fn plugged_bytes(&self) -> u64 {
        self.plugged.count_ones() as u64 * MEM_BLOCK_SIZE
    }

    /// Returns the device statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &VirtioMemStats {
        &self.stats
    }

    /// Returns `true` if `b` lies in the managed region and is plugged.
    pub fn is_plugged(&self, b: BlockId) -> bool {
        self.block_index(b)
            .map(|i| self.plugged.get(i))
            .unwrap_or(false)
    }

    fn block_index(&self, b: BlockId) -> Option<usize> {
        let first = self.region.start.0 / PAGES_PER_BLOCK;
        let n = self.region.count / PAGES_PER_BLOCK;
        if b.0 >= first && b.0 < first + n {
            Some((b.0 - first) as usize)
        } else {
            None
        }
    }

    fn block_at(&self, index: usize) -> BlockId {
        BlockId(self.region.start.0 / PAGES_PER_BLOCK + index as u64)
    }

    // --- Plug paths -----------------------------------------------------

    /// Vanilla plug: adds `bytes` of memory, onlining into the default
    /// zone. Blocks are chosen lowest-address-first like the real driver.
    pub fn plug(
        &mut self,
        guest: &mut GuestMm,
        bytes: u64,
        cost: &CostModel,
    ) -> Result<PlugReport, VirtioMemError> {
        if !bytes.is_multiple_of(MEM_BLOCK_SIZE) {
            return Err(VirtioMemError::Misaligned);
        }
        let want = (bytes / MEM_BLOCK_SIZE) as usize;
        let mut chosen = Vec::with_capacity(want);
        for i in 0..self.plugged.len() {
            if chosen.len() == want {
                break;
            }
            if !self.plugged.get(i) {
                chosen.push(self.block_at(i));
            }
        }
        if chosen.len() < want {
            return Err(VirtioMemError::RegionExhausted);
        }
        let zone = self.default_zone;
        self.plug_blocks(guest, &chosen, zone, cost)
    }

    /// Plugs a specific set of blocks, onlining them into `zone`
    /// (Squeezy populates partitions through this path, §4.1 "Plugging a
    /// Squeezy partition").
    pub fn plug_blocks(
        &mut self,
        guest: &mut GuestMm,
        blocks: &[BlockId],
        zone: u8,
        cost: &CostModel,
    ) -> Result<PlugReport, VirtioMemError> {
        let mut report = PlugReport {
            // Request round trip: runtime → VMM → device config → driver.
            breakdown: LatencyBreakdown {
                rest: SimDuration::nanos(cost.resize_request_fixed_ns),
                ..LatencyBreakdown::default()
            },
            host_cpu: SimDuration::nanos(cost.resize_request_fixed_ns / 2),
            ..PlugReport::default()
        };
        for &b in blocks {
            let idx = self.block_index(b).ok_or(VirtioMemError::RegionExhausted)?;
            if self.plugged.get(idx) {
                return Err(VirtioMemError::Guest(MmError::BadBlockState));
            }
            guest
                .hot_add_online_block(b, zone)
                .map_err(VirtioMemError::Guest)?;
            self.plugged.set(idx);
            let block_cost = SimDuration::nanos(cost.hot_add_block_ns + cost.online_block_ns);
            report.breakdown.rest += block_cost;
            report.guest_cpu += block_cost;
            // One exit per block to acknowledge the plugged range.
            report.breakdown.vmexits += SimDuration::nanos(cost.vmexit_ns);
            report.host_cpu += SimDuration::nanos(cost.vmexit_ns);
            report.blocks.push(b);
        }
        self.stats.plugged_bytes += report.bytes();
        self.stats.plug_ops += 1;
        Ok(report)
    }

    // --- Unplug paths ---------------------------------------------------

    /// Vanilla unplug: reclaims up to `bytes`, scanning candidates and
    /// migrating occupied pages out of chosen blocks (§2.2).
    ///
    /// Stops early when `deadline` (if given) is exceeded — the
    /// reclamation timeouts the paper observes under memory pressure
    /// (§6.2.2). The report's `shortfall_bytes` says how much was left
    /// unreclaimed.
    pub fn unplug(
        &mut self,
        guest: &mut GuestMm,
        bytes: u64,
        deadline: Option<SimDuration>,
        cost: &CostModel,
    ) -> Result<UnplugReport, VirtioMemError> {
        if !bytes.is_multiple_of(MEM_BLOCK_SIZE) {
            return Err(VirtioMemError::Misaligned);
        }
        let want = (bytes / MEM_BLOCK_SIZE) as usize;
        let mut report = UnplugReport {
            breakdown: LatencyBreakdown {
                rest: SimDuration::nanos(cost.resize_request_fixed_ns),
                ..LatencyBreakdown::default()
            },
            host_cpu: SimDuration::nanos(cost.resize_request_fixed_ns / 2),
            ..UnplugReport::default()
        };

        // The driver iterates over candidate blocks; candidates come from
        // the guest's zone state, filtered to the managed region.
        let candidates: Vec<BlockId> = guest
            .offline_candidates(self.default_zone, usize::MAX, self.strategy)
            .into_iter()
            .filter(|&b| self.is_plugged(b))
            .collect();

        for b in candidates {
            if report.blocks.len() == want {
                break;
            }
            if let Some(dl) = deadline {
                if report.breakdown.total() >= dl {
                    break;
                }
            }
            match guest.offline_block(b) {
                Ok(outcome) => {
                    self.charge_offline(&outcome, &mut report, cost);
                    guest.hot_remove_block(b).map_err(VirtioMemError::Guest)?;
                    let idx = self.block_index(b).expect("candidate in region");
                    self.plugged.clear(idx);
                    report.outcome.accumulate(&outcome);
                    report.blocks.push(b);
                    // Per-block device notification + host madvise.
                    report.breakdown.vmexits += SimDuration::nanos(cost.virtio_block_exit_ns);
                    report.host_cpu += SimDuration::nanos(cost.virtio_block_exit_ns);
                    let fixed =
                        SimDuration::nanos(cost.offline_block_fixed_ns + cost.hot_remove_block_ns);
                    report.breakdown.rest += fixed;
                    report.guest_cpu += fixed;
                }
                Err(failure) => {
                    // Wasted work still costs CPU time.
                    self.charge_offline(&failure.partial, &mut report, cost);
                    report.outcome.accumulate(&failure.partial);
                    report.failed_attempts += 1;
                }
            }
        }

        report.shortfall_bytes = (want as u64 - report.blocks.len() as u64) * MEM_BLOCK_SIZE;
        self.stats.unplugged_bytes += report.bytes();
        self.stats.unplug_ops += 1;
        if report.shortfall_bytes > 0 {
            self.stats.unplug_shortfalls += 1;
        }
        Ok(report)
    }

    /// Squeezy's partition-aware unplug: offlines the given *known-empty*
    /// blocks instantly — zero migrations (§4.1 "Unplugging a Squeezy
    /// partition").
    pub fn unplug_blocks_instant(
        &mut self,
        guest: &mut GuestMm,
        blocks: &[BlockId],
        cost: &CostModel,
    ) -> Result<UnplugReport, VirtioMemError> {
        self.unplug_blocks_instant_opts(guest, blocks, false, cost)
    }

    /// Like [`VirtioMemDevice::unplug_blocks_instant`], optionally
    /// *batching* the device notifications: one VM exit for the whole
    /// request instead of one per block, with only the host-side
    /// `madvise` still paid per range — the §8 future optimization
    /// ("batching ... to further reduce the VMexit overheads, when
    /// multiple instances need to be reclaimed concurrently").
    ///
    /// Every block is checked before any is unplugged: a block outside
    /// the region or not plugged, then (through
    /// [`GuestMm::offline_blocks_instant`], which offlines the whole
    /// request in one call) a block the guest cannot offline instantly,
    /// fails the request with nothing unplugged.
    pub fn unplug_blocks_instant_opts(
        &mut self,
        guest: &mut GuestMm,
        blocks: &[BlockId],
        batched: bool,
        cost: &CostModel,
    ) -> Result<UnplugReport, VirtioMemError> {
        for &b in blocks {
            let idx = self.block_index(b).ok_or(VirtioMemError::RegionExhausted)?;
            if !self.plugged.get(idx) {
                return Err(VirtioMemError::Guest(MmError::BadBlockState));
            }
        }
        let outcome = guest
            .offline_blocks_instant(blocks)
            .map_err(VirtioMemError::Guest)?;
        let mut report = UnplugReport {
            breakdown: LatencyBreakdown {
                rest: SimDuration::nanos(cost.resize_request_fixed_ns),
                ..LatencyBreakdown::default()
            },
            host_cpu: SimDuration::nanos(cost.resize_request_fixed_ns / 2),
            ..UnplugReport::default()
        };
        for &b in blocks {
            self.charge_offline(&outcome, &mut report, cost);
            guest.hot_remove_block(b).map_err(VirtioMemError::Guest)?;
            self.plugged
                .clear(self.block_index(b).expect("checked above"));
            report.outcome.accumulate(&outcome);
            report.blocks.push(b);
            if batched {
                // Host still madvises each range; the exit round trip is
                // shared by the batch (added once below).
                let madvise = cost.madvise(mem_types::MEM_BLOCK_SIZE);
                report.breakdown.vmexits += madvise;
                report.host_cpu += madvise;
            } else {
                report.breakdown.vmexits += SimDuration::nanos(cost.virtio_block_exit_ns);
                report.host_cpu += SimDuration::nanos(cost.virtio_block_exit_ns);
            }
            let fixed = SimDuration::nanos(cost.offline_block_fixed_ns + cost.hot_remove_block_ns);
            report.breakdown.rest += fixed;
            report.guest_cpu += fixed;
        }
        if batched && !report.blocks.is_empty() {
            report.breakdown.vmexits += SimDuration::nanos(cost.virtio_block_exit_ns);
            report.host_cpu += SimDuration::nanos(cost.virtio_block_exit_ns);
        }
        self.stats.unplugged_bytes += report.bytes();
        self.stats.unplug_ops += 1;
        Ok(report)
    }

    /// Converts an offline outcome's mechanical counts into charged time.
    fn charge_offline(
        &self,
        outcome: &OfflineOutcome,
        report: &mut UnplugReport,
        cost: &CostModel,
    ) {
        let scan = SimDuration::nanos(cost.offline_scan_page_ns * outcome.scanned);
        let migration = cost.migrate_pages(outcome.migrated)
            + cost.migrate_huge(outcome.migrated_huge, outcome.huge_splits);
        let zeroing = cost.zero_pages(outcome.zeroed);
        report.breakdown.rest += scan;
        report.breakdown.migration += migration;
        report.breakdown.zeroing += zeroing;
        report.guest_cpu += scan + migration + zeroing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::{AllocPolicy, GuestMmConfig, ZONE_MOVABLE};
    use mem_types::{Gfn, GIB, MIB};

    fn setup(hotplug_mib: u64) -> (GuestMm, VirtioMemDevice) {
        let config = GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: hotplug_mib * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        };
        let guest = GuestMm::new(config);
        let region = FrameRange::new(
            Gfn(256 * MIB / mem_types::PAGE_SIZE),
            hotplug_mib * MIB / mem_types::PAGE_SIZE,
        );
        let dev = VirtioMemDevice::new(region, ZONE_MOVABLE);
        (guest, dev)
    }

    #[test]
    fn plug_makes_memory_usable() {
        let (mut guest, mut dev) = setup(512);
        let cost = CostModel::default();
        let report = dev.plug(&mut guest, 256 * MIB, &cost).unwrap();
        assert_eq!(report.blocks.len(), 2);
        assert_eq!(report.bytes(), 256 * MIB);
        assert_eq!(dev.plugged_bytes(), 256 * MIB);
        assert_eq!(guest.zone(ZONE_MOVABLE).free_pages, 2 * PAGES_PER_BLOCK);
        assert!(report.latency() > SimDuration::ZERO);
        // Plug cost stays within the paper's 35-45 ms ballpark.
        let r2 = dev.plug(&mut guest, 256 * MIB, &cost).unwrap();
        assert!(r2.latency() < SimDuration::millis(60));
        guest.assert_consistent();
    }

    #[test]
    fn plug_rejects_misaligned_and_exhausted() {
        let (mut guest, mut dev) = setup(256);
        let cost = CostModel::default();
        assert_eq!(
            dev.plug(&mut guest, MIB, &cost).unwrap_err(),
            VirtioMemError::Misaligned
        );
        assert_eq!(
            dev.plug(&mut guest, GIB, &cost).unwrap_err(),
            VirtioMemError::RegionExhausted
        );
    }

    #[test]
    fn unplug_empty_memory_has_no_migrations() {
        let (mut guest, mut dev) = setup(512);
        let cost = CostModel::default();
        dev.plug(&mut guest, 512 * MIB, &cost).unwrap();
        let report = dev.unplug(&mut guest, 256 * MIB, None, &cost).unwrap();
        assert_eq!(report.blocks.len(), 2);
        assert_eq!(report.outcome.migrated, 0);
        assert_eq!(report.shortfall_bytes, 0);
        // Zeroing still charged: isolated free pages are zeroed by
        // init_on_alloc obliviousness.
        assert!(report.breakdown.zeroing > SimDuration::ZERO);
        assert_eq!(dev.plugged_bytes(), 256 * MIB);
        guest.assert_consistent();
    }

    #[test]
    fn unplug_occupied_memory_migrates() {
        let (mut guest, mut dev) = setup(512);
        let cost = CostModel::default();
        dev.plug(&mut guest, 512 * MIB, &cost).unwrap();
        let pid = guest.spawn_process(AllocPolicy::MovableDefault);
        // Occupy half the hotplugged memory.
        guest.fault_anon(pid, 2 * PAGES_PER_BLOCK).unwrap();
        let report = dev.unplug(&mut guest, 256 * MIB, None, &cost).unwrap();
        assert_eq!(report.blocks.len(), 2);
        assert!(report.outcome.migrated > 0, "occupied pages migrated");
        assert!(report.breakdown.migration > SimDuration::ZERO);
        // Process kept its memory.
        assert_eq!(guest.process(pid).unwrap().rss_pages(), 2 * PAGES_PER_BLOCK);
        guest.assert_consistent();
    }

    #[test]
    fn unplug_huge_backed_memory_migrates_whole() {
        let (mut guest, mut dev) = setup(512);
        let cost = CostModel::default();
        dev.plug(&mut guest, 512 * MIB, &cost).unwrap();
        let pid = guest.spawn_process(AllocPolicy::MovableDefault);
        // 128 MiB of THP-backed memory: 64 huge pages in one block.
        guest.fault_anon_huge(pid, 64).unwrap();
        let report = dev.unplug(&mut guest, 512 * MIB, None, &cost).unwrap();
        // The huge pages had order-9 targets (other blocks + normal
        // zone), so they moved whole, never split. The linear
        // highest-first scan cascades them through each successive
        // block, so the count exceeds the 64 resident huge pages —
        // exactly the repeated-migration pathology §2.2 describes.
        assert!(report.outcome.migrated_huge >= 64, "whole-huge migrations");
        assert_eq!(report.outcome.huge_splits, 0, "targets always existed");
        assert_eq!(report.outcome.migrated, 0, "no base-page migrations");
        // Whole-huge migration must be far cheaper than splitting each
        // of those migrations into 512 base-page moves.
        assert!(
            report.breakdown.migration
                < cost.migrate_pages(report.outcome.migrated_huge * guest_mm::PAGES_PER_HUGE) / 2,
            "huge migration not amortized: {}",
            report.breakdown.migration
        );
        assert_eq!(guest.process(pid).unwrap().rss_huge(), 64);
        guest.assert_consistent();
    }

    #[test]
    fn unplug_respects_deadline() {
        let (mut guest, mut dev) = setup(1024);
        let cost = CostModel::default();
        dev.plug(&mut guest, 1024 * MIB, &cost).unwrap();
        let pid = guest.spawn_process(AllocPolicy::MovableDefault);
        guest.fault_anon(pid, 4 * PAGES_PER_BLOCK).unwrap();
        // A deadline shorter than one migration-heavy block forces a
        // shortfall.
        let report = dev
            .unplug(&mut guest, 512 * MIB, Some(SimDuration::millis(20)), &cost)
            .unwrap();
        assert!(report.shortfall_bytes > 0, "deadline forced a shortfall");
        assert!(dev.stats().unplug_shortfalls > 0);
        guest.assert_consistent();
    }

    #[test]
    fn instant_unplug_of_empty_blocks() {
        let (mut guest, mut dev) = setup(512);
        let cost = CostModel::default();
        let plugged = dev.plug(&mut guest, 512 * MIB, &cost).unwrap();
        guest.unplug_aware_zeroing_skip = true;
        let report = dev
            .unplug_blocks_instant(&mut guest, &plugged.blocks, &cost)
            .unwrap();
        assert_eq!(report.blocks.len(), 4);
        assert_eq!(report.outcome.migrated, 0);
        assert_eq!(report.outcome.zeroed, 0);
        assert_eq!(report.breakdown.migration, SimDuration::ZERO);
        assert_eq!(report.breakdown.zeroing, SimDuration::ZERO);
        assert_eq!(dev.plugged_bytes(), 0);
        guest.assert_consistent();
    }

    #[test]
    fn instant_unplug_rejects_occupied_block() {
        let (mut guest, mut dev) = setup(256);
        let cost = CostModel::default();
        let plugged = dev.plug(&mut guest, 128 * MIB, &cost).unwrap();
        let pid = guest.spawn_process(AllocPolicy::MovableDefault);
        guest.fault_anon(pid, 1).unwrap();
        let err = dev
            .unplug_blocks_instant(&mut guest, &plugged.blocks, &cost)
            .unwrap_err();
        assert_eq!(err, VirtioMemError::Guest(MmError::BlockNotEmpty));
    }

    #[test]
    fn squeezy_unplug_is_much_faster_than_vanilla() {
        // The headline comparison in miniature: unplug 256 MiB after a
        // process died, vanilla (interleaved) vs instant (partitioned).
        let cost = CostModel::default();

        // Vanilla: another process's pages interleave in the same blocks.
        let (mut guest, mut dev) = setup(512);
        dev.plug(&mut guest, 512 * MIB, &cost).unwrap();
        let keep = guest.spawn_process(AllocPolicy::MovableDefault);
        let die = guest.spawn_process(AllocPolicy::MovableDefault);
        // Interleave allocations of the two processes.
        for _ in 0..(PAGES_PER_BLOCK / 256) {
            guest.fault_anon(keep, 512).unwrap();
            guest.fault_anon(die, 512).unwrap();
        }
        guest.exit_process(die).unwrap();
        let vanilla = dev.unplug(&mut guest, 256 * MIB, None, &cost).unwrap();
        assert_eq!(vanilla.shortfall_bytes, 0);
        assert!(vanilla.outcome.migrated > 0);

        // Squeezy-style: the dying process lived alone in its blocks.
        let (mut guest2, mut dev2) = setup(512);
        let plugged = dev2.plug(&mut guest2, 256 * MIB, &cost).unwrap();
        guest2.unplug_aware_zeroing_skip = true;
        let squeezy = dev2
            .unplug_blocks_instant(&mut guest2, &plugged.blocks, &cost)
            .unwrap();

        let speedup = vanilla.latency().as_nanos() as f64 / squeezy.latency().as_nanos() as f64;
        assert!(
            speedup > 3.0,
            "expected large speedup, got {speedup:.2}x ({} vs {})",
            vanilla.latency(),
            squeezy.latency()
        );
    }

    #[test]
    fn stats_track_operations() {
        let (mut guest, mut dev) = setup(512);
        let cost = CostModel::default();
        dev.plug(&mut guest, 256 * MIB, &cost).unwrap();
        dev.unplug(&mut guest, 128 * MIB, None, &cost).unwrap();
        let s = dev.stats();
        assert_eq!(s.plug_ops, 1);
        assert_eq!(s.unplug_ops, 1);
        assert_eq!(s.plugged_bytes, 256 * MIB);
        assert_eq!(s.unplugged_bytes, 128 * MIB);
    }
}
