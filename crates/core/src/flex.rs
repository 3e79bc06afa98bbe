//! Variable-sized, application-triggered partitions (§7 "Static
//! partitioning").
//!
//! The paper's static scheme sizes all N partitions identically at boot,
//! which fits FaaS (the user declares the function's memory limit) but
//! "for longer-running workloads, with less predictable memory
//! requirements, ... it would need to be extended, to allow for the
//! plugging and unplugging of variably-sized partitions. The trigger for
//! plugging and unplugging would also need to change and be controlled
//! by the application running inside the VM instead."
//!
//! [`FlexManager`] is that extension:
//!
//! * partitions are **created at runtime** with a per-partition *rated*
//!   (maximum) size — a reserved guest-physical span, not an allocation;
//! * the application **grows** its partition by plugging more blocks of
//!   the span and **shrinks** it by releasing whatever blocks have
//!   drained empty (`shrink_to_fit`), both on its own triggers;
//! * destroyed partitions return their span to a first-fit free list
//!   (adjacent spans merge) and recycle their zone slot, so create /
//!   destroy churn does not exhaust the guest zone table.
//!
//! Isolation and instant reclaim are preserved exactly as in the static
//! scheme: allocations never cross partitions, and every unplug is the
//! migration-free instant path.

use std::collections::HashMap;

use guest_mm::{AllocPolicy, Pid, ZoneKind};
use mem_types::{align_up_to_block, BlockId, FrameRange, MEM_BLOCK_SIZE, PAGES_PER_BLOCK};
use sim_core::CostModel;
use virtio_mem::{PlugReport, UnplugReport};
use vmm::{HostMemory, Vm};

use crate::partition::PartitionId;
use crate::SqueezyError;

/// One variable-sized partition.
#[derive(Clone, Debug)]
pub struct FlexPartition {
    /// Stable identifier.
    pub id: PartitionId,
    /// The guest zone implementing the partition.
    pub zone: u8,
    /// First block of the reserved span.
    pub start_block: u64,
    /// Reserved span length in blocks (the rated size).
    pub span_blocks: u64,
    /// Currently plugged blocks (populated subset of the span).
    pub plugged: Vec<BlockId>,
    /// Attached processes (`partition_users`).
    pub users: u32,
}

impl FlexPartition {
    /// Rated (maximum) size in bytes.
    pub fn rated_bytes(&self) -> u64 {
        self.span_blocks * MEM_BLOCK_SIZE
    }

    /// Currently plugged size in bytes.
    pub fn plugged_bytes(&self) -> u64 {
        self.plugged.len() as u64 * MEM_BLOCK_SIZE
    }
}

/// Cumulative flex-manager statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlexStats {
    /// Partitions created.
    pub creates: u64,
    /// Partitions destroyed.
    pub destroys: u64,
    /// Grow operations served.
    pub grows: u64,
    /// Shrink operations served.
    pub shrinks: u64,
    /// Blocks reclaimed by shrinks.
    pub shrunk_blocks: u64,
}

/// Manager for variable-sized application-triggered partitions.
pub struct FlexManager {
    /// First block of the managed (virtio-mem) region.
    region_start: u64,
    /// Free spans `(start_block, nblocks)`, sorted by start, coalesced.
    free_spans: Vec<(u64, u64)>,
    /// Live partitions by id.
    parts: HashMap<u32, FlexPartition>,
    /// Zone slots of destroyed partitions, ready for recycling.
    spare_zones: Vec<u8>,
    /// pid → partition for attached processes.
    attached: HashMap<u32, PartitionId>,
    next_id: u32,
    stats: FlexStats,
}

impl FlexManager {
    /// Installs a flex manager over a booted VM's whole virtio-mem
    /// region. Must not be combined with the static [`SqueezyManager`]
    /// (both would claim the same blocks).
    ///
    /// [`SqueezyManager`]: crate::SqueezyManager
    pub fn install(vm: &mut Vm) -> FlexManager {
        let region = vm.virtio_mem.region();
        let start = region.start.0 / PAGES_PER_BLOCK;
        let nblocks = region.count / PAGES_PER_BLOCK;
        vm.guest.unplug_aware_zeroing_skip = true;
        FlexManager {
            region_start: start,
            free_spans: vec![(start, nblocks)],
            parts: HashMap::new(),
            spare_zones: Vec::new(),
            attached: HashMap::new(),
            next_id: 0,
            stats: FlexStats::default(),
        }
    }

    // --- Accessors -------------------------------------------------------

    /// Returns the partition with `id`, if alive.
    pub fn partition(&self, id: PartitionId) -> Option<&FlexPartition> {
        self.parts.get(&id.0)
    }

    /// Returns the number of live partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> &FlexStats {
        &self.stats
    }

    /// Returns the largest contiguous free span in blocks (what the
    /// biggest `create` could currently reserve).
    pub fn largest_free_blocks(&self) -> u64 {
        self.free_spans.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    // --- Lifecycle ---------------------------------------------------------

    /// Creates a partition rated at `rated_bytes` (rounded up to whole
    /// blocks), plugging an initial `initial_bytes` prefix. The span is
    /// reserved first-fit from the free list.
    pub fn create(
        &mut self,
        vm: &mut Vm,
        rated_bytes: u64,
        initial_bytes: u64,
        cost: &CostModel,
    ) -> Result<(PartitionId, PlugReport), SqueezyError> {
        let span_blocks = align_up_to_block(rated_bytes) / MEM_BLOCK_SIZE;
        let initial_blocks = align_up_to_block(initial_bytes) / MEM_BLOCK_SIZE;
        if span_blocks == 0 || initial_blocks > span_blocks {
            return Err(SqueezyError::RegionTooSmall);
        }
        let start = self
            .take_span(span_blocks)
            .ok_or(SqueezyError::RegionTooSmall)?;
        let id = PartitionId(self.next_id);
        self.next_id += 1;
        let span = FrameRange::new(BlockId(start).first_frame(), span_blocks * PAGES_PER_BLOCK);
        let kind = ZoneKind::SqueezyPrivate { partition: id.0 };
        let zone = match self.spare_zones.pop() {
            Some(z) => {
                vm.guest.retarget_zone(z, kind, span);
                z
            }
            None => vm.guest.create_zone(kind, span),
        };
        let blocks: Vec<BlockId> = (start..start + initial_blocks).map(BlockId).collect();
        let report = match vm
            .virtio_mem
            .plug_blocks(&mut vm.guest, &blocks, zone, cost)
        {
            Ok(r) => r,
            Err(e) => {
                self.spare_zones.push(zone);
                self.put_span(start, span_blocks);
                return Err(e.into());
            }
        };
        self.parts.insert(
            id.0,
            FlexPartition {
                id,
                zone,
                start_block: start,
                span_blocks,
                plugged: blocks,
                users: 0,
            },
        );
        self.stats.creates += 1;
        Ok((id, report))
    }

    /// Binds `pid`'s anonymous faults to partition `id`.
    pub fn attach(&mut self, vm: &mut Vm, id: PartitionId, pid: Pid) -> Result<(), SqueezyError> {
        if self.attached.contains_key(&pid.0) {
            return Err(SqueezyError::AlreadyAttached);
        }
        let part = self
            .parts
            .get_mut(&id.0)
            .ok_or(SqueezyError::NoReclaimablePartition)?;
        vm.guest
            .set_policy(pid, AllocPolicy::PinnedZone(part.zone))?;
        part.users += 1;
        self.attached.insert(pid.0, id);
        Ok(())
    }

    /// Detaches an exited process from its partition.
    pub fn detach(&mut self, pid: Pid) -> Result<PartitionId, SqueezyError> {
        let id = self
            .attached
            .remove(&pid.0)
            .ok_or(SqueezyError::NotAttached)?;
        let part = self
            .parts
            .get_mut(&id.0)
            .expect("attached to live partition");
        debug_assert!(part.users > 0);
        part.users -= 1;
        Ok(id)
    }

    /// Application-triggered growth: plugs up to `bytes` more of the
    /// partition's reserved span. Fails with
    /// [`SqueezyError::RatedSizeExceeded`] when the span is exhausted.
    pub fn grow(
        &mut self,
        vm: &mut Vm,
        id: PartitionId,
        bytes: u64,
        cost: &CostModel,
    ) -> Result<PlugReport, SqueezyError> {
        let part = self
            .parts
            .get_mut(&id.0)
            .ok_or(SqueezyError::NoReclaimablePartition)?;
        let want = align_up_to_block(bytes) / MEM_BLOCK_SIZE;
        // Candidate blocks: span members not currently plugged.
        let plugged: std::collections::HashSet<u64> = part.plugged.iter().map(|b| b.0).collect();
        let fresh: Vec<BlockId> = (part.start_block..part.start_block + part.span_blocks)
            .filter(|b| !plugged.contains(b))
            .take(want as usize)
            .map(BlockId)
            .collect();
        if (fresh.len() as u64) < want {
            return Err(SqueezyError::RatedSizeExceeded);
        }
        let zone = part.zone;
        let report = vm
            .virtio_mem
            .plug_blocks(&mut vm.guest, &fresh, zone, cost)?;
        self.parts
            .get_mut(&id.0)
            .expect("still live")
            .plugged
            .extend(fresh);
        self.stats.grows += 1;
        Ok(report)
    }

    /// Application-triggered shrink: instantly unplugs every plugged
    /// block of the partition that has drained empty. Returns `None`
    /// when nothing was reclaimable.
    pub fn shrink_to_fit(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        id: PartitionId,
        cost: &CostModel,
    ) -> Result<Option<UnplugReport>, SqueezyError> {
        let part = self
            .parts
            .get(&id.0)
            .ok_or(SqueezyError::NoReclaimablePartition)?;
        let empty: Vec<BlockId> = part
            .plugged
            .iter()
            .copied()
            .filter(|&b| {
                let c = vm.guest.blocks().counters(b);
                c.used_movable == 0 && c.used_unmovable == 0
            })
            .collect();
        if empty.is_empty() {
            return Ok(None);
        }
        let report = vm.unplug_blocks_instant(host, &empty, cost)?;
        let removed: std::collections::HashSet<u64> = empty.iter().map(|b| b.0).collect();
        let part = self.parts.get_mut(&id.0).expect("still live");
        part.plugged.retain(|b| !removed.contains(&b.0));
        self.stats.shrinks += 1;
        self.stats.shrunk_blocks += empty.len() as u64;
        Ok(Some(report))
    }

    /// Destroys a partition with no attached processes: instantly
    /// unplugs whatever is still plugged and returns the span (and zone
    /// slot) for reuse.
    pub fn destroy(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        id: PartitionId,
        cost: &CostModel,
    ) -> Result<UnplugReport, SqueezyError> {
        let part = self
            .parts
            .get(&id.0)
            .ok_or(SqueezyError::NoReclaimablePartition)?;
        if part.users > 0 {
            return Err(SqueezyError::PartitionBusy);
        }
        let blocks = part.plugged.clone();
        let report = if blocks.is_empty() {
            UnplugReport::default()
        } else {
            vm.unplug_blocks_instant(host, &blocks, cost)?
        };
        let part = self.parts.remove(&id.0).expect("checked above");
        self.spare_zones.push(part.zone);
        self.put_span(part.start_block, part.span_blocks);
        self.stats.destroys += 1;
        Ok(report)
    }

    // --- Span free-list internals ------------------------------------------

    /// First-fit span reservation.
    fn take_span(&mut self, nblocks: u64) -> Option<u64> {
        let idx = self
            .free_spans
            .iter()
            .position(|&(_, len)| len >= nblocks)?;
        let (start, len) = self.free_spans[idx];
        if len == nblocks {
            self.free_spans.remove(idx);
        } else {
            self.free_spans[idx] = (start + nblocks, len - nblocks);
        }
        Some(start)
    }

    /// Returns a span to the free list, merging with neighbours.
    fn put_span(&mut self, start: u64, nblocks: u64) {
        debug_assert!(start >= self.region_start);
        let pos = self.free_spans.partition_point(|&(s, _)| s < start);
        self.free_spans.insert(pos, (start, nblocks));
        // Merge with the next span.
        if pos + 1 < self.free_spans.len() {
            let (s, n) = self.free_spans[pos];
            let (s2, n2) = self.free_spans[pos + 1];
            debug_assert!(s + n <= s2, "overlapping free spans");
            if s + n == s2 {
                self.free_spans[pos] = (s, n + n2);
                self.free_spans.remove(pos + 1);
            }
        }
        // Merge with the previous span.
        if pos > 0 {
            let (s0, n0) = self.free_spans[pos - 1];
            let (s, n) = self.free_spans[pos];
            debug_assert!(s0 + n0 <= s, "overlapping free spans");
            if s0 + n0 == s {
                self.free_spans[pos - 1] = (s0, n0 + n);
                self.free_spans.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::GuestMmConfig;
    use mem_types::{GIB, MIB};
    use vmm::VmConfig;

    fn setup() -> (Vm, HostMemory, FlexManager, CostModel) {
        let cost = CostModel::default();
        let mut host = HostMemory::new(32 * GIB);
        let mut vm = Vm::boot(
            VmConfig {
                guest: GuestMmConfig {
                    boot_bytes: 512 * MIB,
                    hotplug_bytes: 4 * GIB,
                    kernel_bytes: 128 * MIB,
                    init_on_alloc: true,
                },
                vcpus: 4.0,
            },
            &mut host,
        )
        .unwrap();
        let flex = FlexManager::install(&mut vm);
        (vm, host, flex, cost)
    }

    #[test]
    fn create_plugs_initial_prefix_only() {
        let (mut vm, _host, mut flex, cost) = setup();
        let (id, plug) = flex.create(&mut vm, 1024 * MIB, 256 * MIB, &cost).unwrap();
        let p = flex.partition(id).unwrap();
        assert_eq!(p.rated_bytes(), 1024 * MIB);
        assert_eq!(p.plugged_bytes(), 256 * MIB);
        assert_eq!(plug.blocks.len(), 2);
        assert_eq!(vm.guest.zone(p.zone).managed_pages, 256 * MIB / 4096);
        vm.guest.assert_consistent();
    }

    #[test]
    fn grow_on_demand_after_oom() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (id, _) = flex.create(&mut vm, GIB, 128 * MIB, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        flex.attach(&mut vm, id, pid).unwrap();
        // 128 MiB plugged = 32768 pages; the workload wants more.
        let want = 40_000;
        let r = vm.touch_anon(&mut host, pid, want, &cost);
        assert!(r.is_err(), "partition initially too small");
        let missing = want - vm.guest.process(pid).unwrap().rss_pages();
        // Application-triggered growth, then the fault retry succeeds.
        flex.grow(&mut vm, id, 128 * MIB, &cost).unwrap();
        vm.touch_anon(&mut host, pid, missing, &cost).unwrap();
        assert_eq!(vm.guest.process(pid).unwrap().rss_pages(), want);
        assert_eq!(flex.partition(id).unwrap().plugged_bytes(), 256 * MIB);
        vm.guest.assert_consistent();
    }

    #[test]
    fn grow_stops_at_rated_size() {
        let (mut vm, _host, mut flex, cost) = setup();
        let (id, _) = flex.create(&mut vm, 256 * MIB, 128 * MIB, &cost).unwrap();
        flex.grow(&mut vm, id, 128 * MIB, &cost).unwrap();
        assert!(matches!(
            flex.grow(&mut vm, id, 128 * MIB, &cost),
            Err(SqueezyError::RatedSizeExceeded)
        ));
    }

    #[test]
    fn shrink_to_fit_reclaims_empty_blocks_only() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (id, _) = flex.create(&mut vm, GIB, 512 * MIB, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        flex.attach(&mut vm, id, pid).unwrap();
        // Fill 3 of the 4 plugged blocks, then free back down to ~0.5.
        vm.touch_anon(&mut host, pid, 3 * mem_types::PAGES_PER_BLOCK, &cost)
            .unwrap();
        vm.guest
            .free_anon(pid, (3 * mem_types::PAGES_PER_BLOCK) / 2)
            .unwrap();
        // LIFO frees drain the upper blocks; at least one block is empty
        // plus the never-touched fourth one.
        let report = flex
            .shrink_to_fit(&mut vm, &mut host, id, &cost)
            .unwrap()
            .expect("something reclaimable");
        assert!(report.blocks.len() >= 2, "empty blocks reclaimed");
        assert_eq!(report.outcome.migrated, 0, "instant path only");
        // The workload's memory is untouched.
        assert_eq!(
            vm.guest.process(pid).unwrap().rss_pages(),
            (3 * mem_types::PAGES_PER_BLOCK) / 2
        );
        // Second shrink with nothing empty returns None.
        assert!(flex
            .shrink_to_fit(&mut vm, &mut host, id, &cost)
            .unwrap()
            .is_none());
        vm.guest.assert_consistent();
    }

    #[test]
    fn destroy_requires_detached_users() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (id, _) = flex.create(&mut vm, 256 * MIB, 256 * MIB, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        flex.attach(&mut vm, id, pid).unwrap();
        assert!(matches!(
            flex.destroy(&mut vm, &mut host, id, &cost),
            Err(SqueezyError::PartitionBusy)
        ));
        vm.guest.exit_process(pid).unwrap();
        flex.detach(pid).unwrap();
        let report = flex.destroy(&mut vm, &mut host, id, &cost).unwrap();
        assert_eq!(report.blocks.len(), 2);
        assert_eq!(flex.partition_count(), 0);
    }

    #[test]
    fn spans_merge_and_zones_recycle() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let zones_before = vm.guest.zone_count();
        let total = flex.largest_free_blocks();
        // Create three adjacent partitions, destroy them out of order.
        let (a, _) = flex.create(&mut vm, 512 * MIB, 0, &cost).unwrap();
        let (b, _) = flex.create(&mut vm, 512 * MIB, 0, &cost).unwrap();
        let (c, _) = flex.create(&mut vm, 512 * MIB, 0, &cost).unwrap();
        flex.destroy(&mut vm, &mut host, a, &cost).unwrap();
        flex.destroy(&mut vm, &mut host, c, &cost).unwrap();
        flex.destroy(&mut vm, &mut host, b, &cost).unwrap();
        assert_eq!(flex.largest_free_blocks(), total, "spans coalesced");
        // Churning create/destroy reuses zone slots instead of growing
        // the zone table.
        for _ in 0..10 {
            let (id, _) = flex.create(&mut vm, GIB, 128 * MIB, &cost).unwrap();
            flex.destroy(&mut vm, &mut host, id, &cost).unwrap();
        }
        assert!(
            vm.guest.zone_count() <= zones_before + 3,
            "zone table grew: {} -> {}",
            zones_before,
            vm.guest.zone_count()
        );
    }

    #[test]
    fn region_exhaustion_rejected() {
        let (mut vm, _host, mut flex, cost) = setup();
        // 4 GiB region: a 5 GiB rated span cannot be reserved.
        assert!(matches!(
            flex.create(&mut vm, 5 * GIB, 0, &cost),
            Err(SqueezyError::RegionTooSmall)
        ));
        // Fill the region with two 2 GiB spans, then fail on a third.
        let (_a, _) = flex.create(&mut vm, 2 * GIB, 0, &cost).unwrap();
        let (_b, _) = flex.create(&mut vm, 2 * GIB, 0, &cost).unwrap();
        assert!(matches!(
            flex.create(&mut vm, 128 * MIB, 0, &cost),
            Err(SqueezyError::RegionTooSmall)
        ));
    }

    #[test]
    fn isolation_between_flex_partitions() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (a, _) = flex.create(&mut vm, 256 * MIB, 256 * MIB, &cost).unwrap();
        let (b, _) = flex.create(&mut vm, 256 * MIB, 256 * MIB, &cost).unwrap();
        let pa = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let pb = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        flex.attach(&mut vm, a, pa).unwrap();
        flex.attach(&mut vm, b, pb).unwrap();
        vm.touch_anon(&mut host, pa, 1000, &cost).unwrap();
        vm.touch_anon(&mut host, pb, 1000, &cost).unwrap();
        let za = flex.partition(a).unwrap().zone;
        let zb = flex.partition(b).unwrap().zone;
        assert_eq!(vm.guest.zone(za).used_pages(), 1000);
        assert_eq!(vm.guest.zone(zb).used_pages(), 1000);
        // A's overflow cannot spill into B.
        let r = vm.touch_anon(&mut host, pa, 256 * MIB / 4096, &cost);
        assert!(r.is_err());
        assert_eq!(vm.guest.zone(zb).used_pages(), 1000);
    }

    #[test]
    fn double_attach_and_unknown_partition_rejected() {
        let (mut vm, _host, mut flex, cost) = setup();
        let (id, _) = flex.create(&mut vm, 256 * MIB, 128 * MIB, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        flex.attach(&mut vm, id, pid).unwrap();
        assert!(matches!(
            flex.attach(&mut vm, id, pid),
            Err(SqueezyError::AlreadyAttached)
        ));
        let other = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        assert!(matches!(
            flex.attach(&mut vm, PartitionId(99), other),
            Err(SqueezyError::NoReclaimablePartition)
        ));
        assert!(matches!(
            flex.detach(Pid(4242)),
            Err(SqueezyError::NotAttached)
        ));
    }
}
