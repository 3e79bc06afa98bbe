//! **Squeezy** — rapid VM memory reclamation for serverless functions.
//!
//! This crate is the paper's core contribution (§3-§4): an extension to
//! the guest OS memory manager that segregates the footprints of
//! co-located function instances so their memory can be unplugged
//! instantly — no page migrations, no zeroing — when they terminate.
//!
//! The pieces, mapped to the paper:
//!
//! * [`Partition`]s implemented as dedicated zones, sized to the
//!   function's memory limit, plus one *shared* partition backing file
//!   mappings (libraries/runtime deps) of all instances;
//! * the **syscall interface** ([`SqueezyManager::attach`]) that binds a
//!   process to an empty populated partition, with a **waitqueue** for
//!   requests racing ahead of plug completions;
//! * `partition_users` refcounting with [`SqueezyManager::fork_attach`]
//!   co-locating children on the parent's partition;
//! * **partition-aware unplug** ([`SqueezyManager::unplug_partition`]):
//!   empty partitions offline instantly via `virtio-mem`'s instant path,
//!   and the allocator's zeroing of about-to-be-unplugged pages is
//!   skipped;
//! * OOM containment: a process exceeding its partition gets
//!   `OutOfMemory` instead of spilling into other zones.
//!
//! # Examples
//!
//! ```
//! use guest_mm::GuestMmConfig;
//! use mem_types::{GIB, MIB};
//! use sim_core::CostModel;
//! use squeezy::{AttachOutcome, SqueezyConfig, SqueezyManager};
//! use vmm::{HostMemory, Vm, VmConfig};
//!
//! let cost = CostModel::default();
//! let mut host = HostMemory::new(16 * GIB);
//! let mut vm = Vm::boot(
//!     VmConfig {
//!         guest: GuestMmConfig {
//!             boot_bytes: 512 * MIB,
//!             hotplug_bytes: 4 * GIB,
//!             kernel_bytes: 128 * MIB,
//!             init_on_alloc: true,
//!         },
//!         vcpus: 2.0,
//!     },
//!     &mut host,
//! )
//! .unwrap();
//! let mut sq = SqueezyManager::install(
//!     &mut vm,
//!     SqueezyConfig {
//!         partition_bytes: 768 * MIB,
//!         shared_bytes: 256 * MIB,
//!         concurrency: 4,
//!     },
//!     &cost,
//! )
//! .unwrap();
//! // Scale up: plug a partition, spawn an instance, attach it.
//! let (part, _plug) = sq.plug_partition(&mut vm, &cost).unwrap();
//! let pid = vm.guest.spawn_process(guest_mm::AllocPolicy::MovableDefault);
//! let attached = sq.attach(&mut vm, pid).unwrap();
//! assert_eq!(attached, AttachOutcome::Attached(part));
//! ```

pub mod flex;
pub mod partition;
pub mod soft;
pub mod temporal;

use std::collections::{HashMap, VecDeque};

use guest_mm::{AllocPolicy, MmError, Pid, ZoneKind};
use mem_types::{align_up_to_block, BlockId, FrameRange, PAGES_PER_BLOCK};
use sim_core::{CostModel, SimDuration};
use virtio_mem::{PlugReport, UnplugReport};
use vmm::{HostMemory, Vm, VmmError};

pub use flex::{FlexManager, FlexPartition, FlexStats};
pub use partition::{Partition, PartitionId, PartitionState};
pub use soft::SoftWake;
pub use temporal::TemporalInstance;

/// Errors from the Squeezy layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SqueezyError {
    /// The hotplug region cannot fit shared + N private partitions.
    RegionTooSmall,
    /// No unpopulated partition left to plug (concurrency N reached).
    NoUnpopulatedPartition,
    /// No free populated partition to unplug.
    NoReclaimablePartition,
    /// The process is not attached to any partition.
    NotAttached,
    /// The process is already attached.
    AlreadyAttached,
    /// A flex partition cannot grow beyond its rated span (§7).
    RatedSizeExceeded,
    /// The partition still has attached processes.
    PartitionBusy,
    /// An underlying VM/guest error.
    Vm(VmmError),
}

impl From<VmmError> for SqueezyError {
    fn from(e: VmmError) -> Self {
        SqueezyError::Vm(e)
    }
}

impl From<virtio_mem::VirtioMemError> for SqueezyError {
    fn from(e: virtio_mem::VirtioMemError) -> Self {
        SqueezyError::Vm(VmmError::Virtio(e))
    }
}

impl From<MmError> for SqueezyError {
    fn from(e: MmError) -> Self {
        SqueezyError::Vm(VmmError::Guest(e))
    }
}

impl core::fmt::Display for SqueezyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SqueezyError::RegionTooSmall => f.write_str("hotplug region too small"),
            SqueezyError::NoUnpopulatedPartition => {
                f.write_str("no unpopulated partition (concurrency limit)")
            }
            SqueezyError::NoReclaimablePartition => {
                f.write_str("no free populated partition to reclaim")
            }
            SqueezyError::NotAttached => f.write_str("process not attached"),
            SqueezyError::AlreadyAttached => f.write_str("process already attached"),
            SqueezyError::RatedSizeExceeded => f.write_str("flex partition rated size exceeded"),
            SqueezyError::PartitionBusy => f.write_str("partition still has attached processes"),
            SqueezyError::Vm(e) => write!(f, "vm: {e}"),
        }
    }
}

impl std::error::Error for SqueezyError {}

/// Result of an attach (Squeezy syscall) request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttachOutcome {
    /// Bound to a populated partition.
    Attached(PartitionId),
    /// No populated free partition yet: parked on the waitqueue until a
    /// plug completes (§4.1 "Squeezy waitqueue").
    Queued,
}

/// Boot-time Squeezy parameters (set by the serverless runtime, §4.2
/// "VM creation").
#[derive(Clone, Copy, Debug)]
pub struct SqueezyConfig {
    /// Private partition size = the function's memory limit (rounded up
    /// to whole 128 MiB blocks).
    pub partition_bytes: u64,
    /// Shared partition size (runtime/language dependencies).
    pub shared_bytes: u64,
    /// Concurrency factor N: the maximum co-resident instances.
    pub concurrency: u32,
}

/// Cumulative Squeezy statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SqueezyStats {
    /// Partitions plugged.
    pub plugs: u64,
    /// Partitions unplugged.
    pub unplugs: u64,
    /// Successful attaches.
    pub attaches: u64,
    /// Attach requests that had to wait on the queue.
    pub queued_attaches: u64,
    /// Detaches.
    pub detaches: u64,
    /// Partitions marked soft by idle instances (§7).
    pub soft_marks: u64,
    /// Soft partitions revoked under memory pressure.
    pub soft_revocations: u64,
    /// Revoked partitions re-plugged on instance re-use.
    pub replugs: u64,
}

/// The Squeezy guest memory-manager extension for one VM.
pub struct SqueezyManager {
    partitions: Vec<Partition>,
    /// pid → partition for attached processes.
    attached: HashMap<u32, PartitionId>,
    /// Processes waiting for a populated partition.
    waitqueue: VecDeque<Pid>,
    stats: SqueezyStats,
}

impl SqueezyManager {
    /// Installs Squeezy into a booted VM.
    ///
    /// Lays out the shared partition followed by N private partitions
    /// over the virtio-mem managed region, creates their zones, redirects
    /// file (page-cache) allocations to the shared partition, enables the
    /// allocator's unplug-aware zeroing skip, and populates the shared
    /// partition (§4.1).
    pub fn install(
        vm: &mut Vm,
        config: SqueezyConfig,
        cost: &CostModel,
    ) -> Result<SqueezyManager, SqueezyError> {
        let region = vm.virtio_mem.region();
        let region_blocks = region.count / PAGES_PER_BLOCK;
        let shared_blocks = align_up_to_block(config.shared_bytes) / mem_types::MEM_BLOCK_SIZE;
        let part_blocks = align_up_to_block(config.partition_bytes) / mem_types::MEM_BLOCK_SIZE;
        let need = shared_blocks + part_blocks * config.concurrency as u64;
        if need > region_blocks {
            return Err(SqueezyError::RegionTooSmall);
        }
        let first_block = region.start.0 / PAGES_PER_BLOCK;

        // Shared partition zone over the first blocks of the region.
        let shared_zone = vm.guest.create_zone(
            ZoneKind::SqueezyShared,
            FrameRange::new(
                BlockId(first_block).first_frame(),
                shared_blocks * PAGES_PER_BLOCK,
            ),
        );
        vm.guest
            .set_file_policy(AllocPolicy::PinnedZone(shared_zone));
        vm.guest.unplug_aware_zeroing_skip = true;

        // N private partitions, each over `part_blocks` consecutive blocks.
        let mut partitions = Vec::with_capacity(config.concurrency as usize);
        for i in 0..config.concurrency as u64 {
            let start_block = first_block + shared_blocks + i * part_blocks;
            let blocks: Vec<BlockId> = (start_block..start_block + part_blocks)
                .map(BlockId)
                .collect();
            let zone = vm.guest.create_zone(
                ZoneKind::SqueezyPrivate {
                    partition: i as u32,
                },
                FrameRange::new(
                    BlockId(start_block).first_frame(),
                    part_blocks * PAGES_PER_BLOCK,
                ),
            );
            partitions.push(Partition {
                id: PartitionId(i as u32),
                zone,
                blocks,
                state: PartitionState::Unpopulated,
                users: 0,
            });
        }

        // Pre-populate the shared partition at boot (§3 "This partition
        // is pre-populated at boot time").
        if shared_blocks > 0 {
            let blocks: Vec<BlockId> = (first_block..first_block + shared_blocks)
                .map(BlockId)
                .collect();
            vm.virtio_mem
                .plug_blocks(&mut vm.guest, &blocks, shared_zone, cost)?;
        }

        Ok(SqueezyManager {
            partitions,
            attached: HashMap::new(),
            waitqueue: VecDeque::new(),
            stats: SqueezyStats::default(),
        })
    }

    // --- Accessors -------------------------------------------------------

    /// Returns all partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Returns the partition a process is attached to, if any.
    pub fn partition_of(&self, pid: Pid) -> Option<PartitionId> {
        self.attached.get(&pid.0).copied()
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> &SqueezyStats {
        &self.stats
    }

    /// Returns the number of populated partitions (the *effective*
    /// concurrency factor, §7).
    #[cfg(test)]
    pub(crate) fn populated_count(&self) -> usize {
        self.partitions
            .iter()
            .filter(|p| {
                !matches!(
                    p.state,
                    PartitionState::Unpopulated | PartitionState::Revoked
                )
            })
            .count()
    }

    /// Returns the number of free populated partitions (reclaimable).
    #[cfg(test)]
    pub(crate) fn reclaimable_count(&self) -> usize {
        self.partitions
            .iter()
            .filter(|p| p.state == PartitionState::Free)
            .count()
    }

    /// Returns the number of queued attach requests.
    pub fn waitqueue_len(&self) -> usize {
        self.waitqueue.len()
    }

    // --- Plug / unplug -----------------------------------------------------

    /// Plugs (populates) one unpopulated partition; triggered by the
    /// runtime on scale-up (§4.2 step 2). Returns the partition and the
    /// plug report for cost accounting.
    pub fn plug_partition(
        &mut self,
        vm: &mut Vm,
        cost: &CostModel,
    ) -> Result<(PartitionId, PlugReport), SqueezyError> {
        let part = self
            .partitions
            .iter_mut()
            .find(|p| p.state == PartitionState::Unpopulated)
            .ok_or(SqueezyError::NoUnpopulatedPartition)?;
        let id = part.id;
        part.state = PartitionState::Free;
        let report = match vm
            .virtio_mem
            .plug_blocks(&mut vm.guest, &part.blocks, part.zone, cost)
        {
            Ok(r) => r,
            Err(e) => {
                part.state = PartitionState::Unpopulated;
                return Err(e.into());
            }
        };
        self.stats.plugs += 1;
        Ok((id, report))
    }

    /// Unplugs one free (empty) partition instantly; triggered by the
    /// runtime on scale-down (§4.2 steps 5-6). Zero migrations by
    /// construction.
    pub fn unplug_partition(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        cost: &CostModel,
    ) -> Result<(PartitionId, UnplugReport), SqueezyError> {
        let part = self
            .partitions
            .iter_mut()
            .find(|p| p.state == PartitionState::Free)
            .ok_or(SqueezyError::NoReclaimablePartition)?;
        let id = part.id;
        let report = vm.unplug_blocks_instant(host, &part.blocks, cost)?;
        part.state = PartitionState::Unpopulated;
        self.stats.unplugs += 1;
        Ok((id, report))
    }

    /// Unplugs up to `max` free partitions in one *batched* request:
    /// one device notification round trip for the whole batch instead of
    /// one per block — the §8 future optimization for reclaiming
    /// multiple terminated instances concurrently.
    ///
    /// Returns the reclaimed partitions and a combined report. With no
    /// free partition it returns [`SqueezyError::NoReclaimablePartition`].
    pub fn unplug_partitions_batched(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        max: usize,
        cost: &CostModel,
    ) -> Result<(Vec<PartitionId>, UnplugReport), SqueezyError> {
        let free: Vec<PartitionId> = self
            .partitions
            .iter()
            .filter(|p| p.state == PartitionState::Free)
            .map(|p| p.id)
            .take(max)
            .collect();
        if free.is_empty() {
            return Err(SqueezyError::NoReclaimablePartition);
        }
        let blocks: Vec<BlockId> = free
            .iter()
            .flat_map(|id| self.partitions[id.0 as usize].blocks.iter().copied())
            .collect();
        let report = vm
            .virtio_mem
            .unplug_blocks_instant_opts(&mut vm.guest, &blocks, true, cost)
            .map_err(|e| SqueezyError::Vm(VmmError::Virtio(e)))?;
        // Release the EPT backing of the whole batch.
        let mut freed_pages = 0;
        for b in &blocks {
            freed_pages += vm.ept.release_range(b.frames());
        }
        host.release(freed_pages * mem_types::PAGE_SIZE);
        for id in &free {
            self.partitions[id.0 as usize].state = PartitionState::Unpopulated;
            self.stats.unplugs += 1;
        }
        Ok((free, report))
    }

    // --- The Squeezy syscall interface --------------------------------------

    /// The Squeezy syscall: requests a populated free partition for
    /// `pid`. If none is available the process parks on the waitqueue
    /// (§4.1) and is bound later by [`SqueezyManager::wake_waiters`].
    pub fn attach(&mut self, vm: &mut Vm, pid: Pid) -> Result<AttachOutcome, SqueezyError> {
        if self.attached.contains_key(&pid.0) {
            return Err(SqueezyError::AlreadyAttached);
        }
        match self.grab_free_partition() {
            Some(id) => {
                self.bind(vm, pid, id)?;
                Ok(AttachOutcome::Attached(id))
            }
            None => {
                self.waitqueue.push_back(pid);
                self.stats.queued_attaches += 1;
                Ok(AttachOutcome::Queued)
            }
        }
    }

    /// Binds queued waiters to newly populated partitions. Call after
    /// plug completions; returns the `(process, partition)` bindings
    /// made.
    pub fn wake_waiters(&mut self, vm: &mut Vm) -> Vec<(Pid, PartitionId)> {
        let mut woken = Vec::new();
        while !self.waitqueue.is_empty() {
            let Some(id) = self.grab_free_partition() else {
                break;
            };
            let pid = self.waitqueue.pop_front().expect("checked non-empty");
            if self.bind(vm, pid, id).is_ok() {
                woken.push((pid, id));
            }
        }
        woken
    }

    /// `fork()` handling: the child joins the parent's partition and
    /// bumps `partition_users` (§4.1).
    pub fn fork_attach(
        &mut self,
        vm: &mut Vm,
        parent: Pid,
        child: Pid,
    ) -> Result<PartitionId, SqueezyError> {
        let id = *self
            .attached
            .get(&parent.0)
            .ok_or(SqueezyError::NotAttached)?;
        if self.attached.contains_key(&child.0) {
            return Err(SqueezyError::AlreadyAttached);
        }
        let zone = self.partitions[id.0 as usize].zone;
        vm.guest.set_policy(child, AllocPolicy::PinnedZone(zone))?;
        self.partitions[id.0 as usize].users += 1;
        self.attached.insert(child.0, id);
        Ok(id)
    }

    /// Detaches an exiting process. When `partition_users` drops to zero
    /// the partition becomes free — i.e. instantly reclaimable.
    ///
    /// The caller must have already terminated the process in the guest
    /// (`exit_process`), which returns its pages to the partition's
    /// buddy.
    pub fn detach(&mut self, pid: Pid) -> Result<PartitionId, SqueezyError> {
        let id = self
            .attached
            .remove(&pid.0)
            .ok_or(SqueezyError::NotAttached)?;
        let part = &mut self.partitions[id.0 as usize];
        debug_assert!(part.users > 0);
        part.users -= 1;
        if part.users == 0 {
            part.state = match part.state {
                // A revoked partition's blocks are already unplugged.
                PartitionState::Revoked => PartitionState::Unpopulated,
                _ => PartitionState::Free,
            };
        }
        self.stats.detaches += 1;
        Ok(id)
    }

    /// Returns the syscall cost for one attach (callers charge time).
    pub fn syscall_cost(cost: &CostModel) -> SimDuration {
        SimDuration::nanos(cost.squeezy_syscall_ns)
    }

    // --- Internals -----------------------------------------------------------

    /// Attached-process map (soft-memory extension plumbing).
    pub(crate) fn attached(&self) -> &HashMap<u32, PartitionId> {
        &self.attached
    }

    /// Mutable partition access (soft-memory extension plumbing).
    pub(crate) fn partition_mut(&mut self, id: PartitionId) -> &mut Partition {
        &mut self.partitions[id.0 as usize]
    }

    /// Mutable stats access (soft-memory extension plumbing).
    pub(crate) fn stats_mut(&mut self) -> &mut SqueezyStats {
        &mut self.stats
    }

    /// Finds a free populated partition and marks it assigned.
    fn grab_free_partition(&mut self) -> Option<PartitionId> {
        let part = self
            .partitions
            .iter_mut()
            .find(|p| p.state == PartitionState::Free)?;
        part.state = PartitionState::Assigned;
        part.users = 0;
        Some(part.id)
    }

    /// Binds `pid` to partition `id` (already marked assigned).
    fn bind(&mut self, vm: &mut Vm, pid: Pid, id: PartitionId) -> Result<(), SqueezyError> {
        let zone = self.partitions[id.0 as usize].zone;
        match vm.guest.set_policy(pid, AllocPolicy::PinnedZone(zone)) {
            Ok(()) => {
                self.partitions[id.0 as usize].users = 1;
                self.attached.insert(pid.0, id);
                self.stats.attaches += 1;
                Ok(())
            }
            Err(e) => {
                // Process died before binding: partition returns to free.
                self.partitions[id.0 as usize].state = PartitionState::Free;
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::GuestMmConfig;
    use mem_types::{GIB, MIB};

    /// The zone of the shared partition.
    fn shared_zone(vm: &Vm) -> &guest_mm::Zone {
        (0..vm.guest.zone_count())
            .map(|z| vm.guest.zone(z))
            .find(|z| z.kind == ZoneKind::SqueezyShared)
            .expect("Squeezy is installed")
    }

    fn setup(concurrency: u32) -> (Vm, HostMemory, SqueezyManager, CostModel) {
        let cost = CostModel::default();
        let mut host = HostMemory::new(32 * GIB);
        let mut vm = Vm::boot(
            vmm::VmConfig {
                guest: GuestMmConfig {
                    boot_bytes: 512 * MIB,
                    hotplug_bytes: 8 * GIB,
                    kernel_bytes: 128 * MIB,
                    init_on_alloc: true,
                },
                vcpus: 4.0,
            },
            &mut host,
        )
        .unwrap();
        let sq = SqueezyManager::install(
            &mut vm,
            SqueezyConfig {
                partition_bytes: 768 * MIB,
                shared_bytes: 256 * MIB,
                concurrency,
            },
            &cost,
        )
        .unwrap();
        (vm, host, sq, cost)
    }

    #[test]
    fn install_lays_out_partitions() {
        let (vm, _host, sq, _cost) = setup(4);
        assert_eq!(sq.partitions().len(), 4);
        // 768 MiB = 6 blocks each.
        for p in sq.partitions() {
            assert_eq!(p.blocks.len(), 6);
            assert_eq!(p.state, PartitionState::Unpopulated);
        }
        // Shared partition populated at boot: 256 MiB onlined.
        assert_eq!(
            shared_zone(&vm).managed_pages,
            256 * MIB / mem_types::PAGE_SIZE
        );
        // Partitions do not overlap.
        let mut all_blocks: Vec<BlockId> = sq
            .partitions()
            .iter()
            .flat_map(|p| p.blocks.clone())
            .collect();
        let n = all_blocks.len();
        all_blocks.sort();
        all_blocks.dedup();
        assert_eq!(all_blocks.len(), n, "partition blocks overlap");
    }

    #[test]
    fn install_rejects_oversized_layout() {
        let cost = CostModel::default();
        let mut host = HostMemory::new(32 * GIB);
        let mut vm = Vm::boot(
            vmm::VmConfig {
                guest: GuestMmConfig {
                    boot_bytes: 512 * MIB,
                    hotplug_bytes: GIB,
                    kernel_bytes: 128 * MIB,
                    init_on_alloc: true,
                },
                vcpus: 1.0,
            },
            &mut host,
        )
        .unwrap();
        let r = SqueezyManager::install(
            &mut vm,
            SqueezyConfig {
                partition_bytes: 768 * MIB,
                shared_bytes: 256 * MIB,
                concurrency: 4,
            },
            &cost,
        );
        assert!(matches!(r, Err(SqueezyError::RegionTooSmall)));
    }

    #[test]
    fn plug_attach_detach_unplug_cycle() {
        let (mut vm, mut host, mut sq, cost) = setup(4);
        // Scale up.
        let (part, plug) = sq.plug_partition(&mut vm, &cost).unwrap();
        assert_eq!(plug.blocks.len(), 6);
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let out = sq.attach(&mut vm, pid).unwrap();
        assert_eq!(out, AttachOutcome::Attached(part));
        assert_eq!(sq.partition_of(pid), Some(part));

        // The instance faults memory: it lands in the partition zone.
        let zone = sq.partitions()[part.0 as usize].zone;
        vm.touch_anon(&mut host, pid, 10_000, &cost).unwrap();
        assert_eq!(vm.guest.zone(zone).used_pages(), 10_000);

        // Scale down: exit, detach, unplug — instantly.
        vm.guest.exit_process(pid).unwrap();
        let freed_part = sq.detach(pid).unwrap();
        assert_eq!(freed_part, part);
        assert_eq!(sq.reclaimable_count(), 1);
        let (unplugged, report) = sq.unplug_partition(&mut vm, &mut host, &cost).unwrap();
        assert_eq!(unplugged, part);
        assert_eq!(report.outcome.migrated, 0, "zero migrations");
        assert_eq!(report.outcome.zeroed, 0, "zeroing skipped");
        assert_eq!(sq.populated_count(), 0);
        vm.guest.assert_consistent();
    }

    #[test]
    fn attach_queues_until_plug() {
        let (mut vm, _host, mut sq, cost) = setup(2);
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        // No populated partition yet: queued.
        assert_eq!(sq.attach(&mut vm, pid).unwrap(), AttachOutcome::Queued);
        assert_eq!(sq.waitqueue_len(), 1);
        // Plug completes; waiter binds.
        let (part, _) = sq.plug_partition(&mut vm, &cost).unwrap();
        let woken = sq.wake_waiters(&mut vm);
        assert_eq!(woken, vec![(pid, part)]);
        assert_eq!(sq.waitqueue_len(), 0);
        assert_eq!(sq.partition_of(pid), Some(part));
    }

    #[test]
    fn fork_children_share_partition() {
        let (mut vm, mut host, mut sq, cost) = setup(2);
        let (part, _) = sq.plug_partition(&mut vm, &cost).unwrap();
        let parent = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, parent).unwrap();
        let child = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let got = sq.fork_attach(&mut vm, parent, child).unwrap();
        assert_eq!(got, part);
        assert_eq!(sq.partitions()[part.0 as usize].users, 2);

        // Both allocate from the same zone.
        let zone = sq.partitions()[part.0 as usize].zone;
        vm.touch_anon(&mut host, parent, 100, &cost).unwrap();
        vm.touch_anon(&mut host, child, 100, &cost).unwrap();
        assert_eq!(vm.guest.zone(zone).used_pages(), 200);

        // Partition frees only after BOTH exit.
        vm.guest.exit_process(parent).unwrap();
        sq.detach(parent).unwrap();
        assert_eq!(sq.reclaimable_count(), 0, "child still attached");
        vm.guest.exit_process(child).unwrap();
        sq.detach(child).unwrap();
        assert_eq!(sq.reclaimable_count(), 1);
    }

    #[test]
    fn partition_limit_ooms_contained() {
        let (mut vm, mut host, mut sq, cost) = setup(2);
        sq.plug_partition(&mut vm, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).unwrap();
        // 768 MiB partition = 196608 pages; ask for more.
        let r = vm.touch_anon(&mut host, pid, 196_608 + 1, &cost);
        assert!(matches!(r, Err(VmmError::Guest(MmError::OutOfMemory))));
        // Other zones untouched by the overflow.
        assert!(vm.guest.free_bytes() > 0);
    }

    #[test]
    fn concurrency_limit_enforced() {
        let (mut vm, _host, mut sq, cost) = setup(2);
        sq.plug_partition(&mut vm, &cost).unwrap();
        sq.plug_partition(&mut vm, &cost).unwrap();
        assert!(matches!(
            sq.plug_partition(&mut vm, &cost),
            Err(SqueezyError::NoUnpopulatedPartition)
        ));
    }

    #[test]
    fn unplug_requires_free_partition() {
        let (mut vm, mut host, mut sq, cost) = setup(2);
        assert!(matches!(
            sq.unplug_partition(&mut vm, &mut host, &cost),
            Err(SqueezyError::NoReclaimablePartition)
        ));
        // Assigned partitions are not reclaimable either.
        sq.plug_partition(&mut vm, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).unwrap();
        assert!(matches!(
            sq.unplug_partition(&mut vm, &mut host, &cost),
            Err(SqueezyError::NoReclaimablePartition)
        ));
    }

    #[test]
    fn file_pages_go_to_shared_partition() {
        let (mut vm, mut host, mut sq, cost) = setup(2);
        sq.plug_partition(&mut vm, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).unwrap();
        let f = guest_mm::FileId(9);
        vm.touch_file(&mut host, f, 1000, &cost).unwrap();
        assert_eq!(shared_zone(&vm).used_pages(), 1000);
        // A second touch of the file hits the cache: the shared
        // partition holds it once.
        vm.touch_file(&mut host, f, 1000, &cost).unwrap();
        assert_eq!(shared_zone(&vm).used_pages(), 1000);
    }

    #[test]
    fn double_attach_rejected() {
        let (mut vm, _host, mut sq, cost) = setup(2);
        sq.plug_partition(&mut vm, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).unwrap();
        assert!(matches!(
            sq.attach(&mut vm, pid),
            Err(SqueezyError::AlreadyAttached)
        ));
        assert!(sq.detach(pid).is_ok());
        assert!(matches!(sq.detach(pid), Err(SqueezyError::NotAttached)));
    }

    #[test]
    fn freed_partition_can_be_reused_without_replug() {
        let (mut vm, mut host, mut sq, cost) = setup(2);
        let (part, _) = sq.plug_partition(&mut vm, &cost).unwrap();
        let a = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, a).unwrap();
        vm.touch_anon(&mut host, a, 500, &cost).unwrap();
        vm.guest.exit_process(a).unwrap();
        sq.detach(a).unwrap();
        // Reuse the populated free partition directly.
        let b = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        assert_eq!(
            sq.attach(&mut vm, b).unwrap(),
            AttachOutcome::Attached(part)
        );
        assert_eq!(sq.stats().plugs, 1, "no second plug needed");
    }

    #[test]
    fn stats_track_lifecycle() {
        let (mut vm, mut host, mut sq, cost) = setup(2);
        sq.plug_partition(&mut vm, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).unwrap();
        vm.guest.exit_process(pid).unwrap();
        sq.detach(pid).unwrap();
        sq.unplug_partition(&mut vm, &mut host, &cost).unwrap();
        let s = sq.stats();
        assert_eq!((s.plugs, s.unplugs, s.attaches, s.detaches), (1, 1, 1, 1));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use guest_mm::{AllocPolicy, GuestMmConfig};
    use mem_types::{GIB, MIB};

    fn setup() -> (Vm, HostMemory, SqueezyManager, CostModel) {
        let cost = CostModel::default();
        let mut host = HostMemory::new(32 * GIB);
        let mut vm = Vm::boot(
            vmm::VmConfig {
                guest: GuestMmConfig {
                    boot_bytes: 512 * MIB,
                    hotplug_bytes: 8 * GIB,
                    kernel_bytes: 128 * MIB,
                    init_on_alloc: true,
                },
                vcpus: 4.0,
            },
            &mut host,
        )
        .unwrap();
        let sq = SqueezyManager::install(
            &mut vm,
            SqueezyConfig {
                partition_bytes: 768 * MIB,
                shared_bytes: 0,
                concurrency: 6,
            },
            &cost,
        )
        .unwrap();
        (vm, host, sq, cost)
    }

    /// Populates `n` partitions with instances and immediately frees them.
    fn make_free_partitions(
        vm: &mut Vm,
        host: &mut HostMemory,
        sq: &mut SqueezyManager,
        n: usize,
        cost: &CostModel,
    ) {
        for _ in 0..n {
            sq.plug_partition(vm, cost).unwrap();
            let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
            sq.attach(vm, pid).unwrap();
            vm.touch_anon(host, pid, 10_000, cost).unwrap();
            vm.guest.exit_process(pid).unwrap();
            sq.detach(pid).unwrap();
        }
    }

    #[test]
    fn batched_unplug_reclaims_all_free_partitions() {
        let (mut vm, mut host, mut sq, cost) = setup();
        make_free_partitions(&mut vm, &mut host, &mut sq, 4, &cost);
        let rss_before = vm.host_rss();
        let (parts, report) = sq
            .unplug_partitions_batched(&mut vm, &mut host, usize::MAX, &cost)
            .unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(report.blocks.len(), 4 * 6);
        assert_eq!(report.outcome.migrated, 0);
        assert!(vm.host_rss() < rss_before, "backing released");
        assert_eq!(sq.populated_count(), 0);
        assert_eq!(host.used_bytes(), vm.host_rss());
        vm.guest.assert_consistent();
    }

    #[test]
    fn batched_unplug_is_faster_than_sequential() {
        // Batch of 4 partitions: one exit round trip instead of 24.
        let (mut vm, mut host, mut sq, cost) = setup();
        make_free_partitions(&mut vm, &mut host, &mut sq, 4, &cost);
        let (_, batched) = sq
            .unplug_partitions_batched(&mut vm, &mut host, usize::MAX, &cost)
            .unwrap();

        let (mut vm2, mut host2, mut sq2, _) = setup();
        make_free_partitions(&mut vm2, &mut host2, &mut sq2, 4, &cost);
        let mut sequential = sim_core::SimDuration::ZERO;
        for _ in 0..4 {
            let (_, r) = sq2.unplug_partition(&mut vm2, &mut host2, &cost).unwrap();
            sequential += r.latency();
        }
        assert!(
            batched.latency() < sequential,
            "batched {} < sequential {}",
            batched.latency(),
            sequential
        );
        // The exit bucket specifically shrinks.
        assert!(batched.breakdown.vmexits < sequential / 4);
    }

    #[test]
    fn batched_unplug_respects_max() {
        let (mut vm, mut host, mut sq, cost) = setup();
        make_free_partitions(&mut vm, &mut host, &mut sq, 3, &cost);
        let (parts, _) = sq
            .unplug_partitions_batched(&mut vm, &mut host, 2, &cost)
            .unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(sq.reclaimable_count(), 1);
    }

    #[test]
    fn batched_unplug_empty_errors() {
        let (mut vm, mut host, mut sq, cost) = setup();
        assert!(matches!(
            sq.unplug_partitions_batched(&mut vm, &mut host, 8, &cost),
            Err(SqueezyError::NoReclaimablePartition)
        ));
    }
}
