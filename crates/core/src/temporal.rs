//! Temporal segregation of invocation memory (§7, FaaSMem \[78\]).
//!
//! FaaSMem observes that a function instance's footprint splits in two:
//! long-lived *base* memory (runtime, loaded modules) that persists
//! across invocations, and *ephemeral* memory allocated during one
//! invocation and garbage immediately after. The paper's §7 proposes
//! integrating that temporal split with Squeezy partitions, "extend\[ing\]
//! the Squeezy VM reclamation benefits to function invocations as well
//! as function instance creations and evictions".
//!
//! [`TemporalInstance`] implements the split over two
//! [flex partitions](crate::FlexManager):
//!
//! * a **persistent** partition holding the instance's base memory for
//!   its whole lifetime;
//! * an **ephemeral** partition plugged at invocation start
//!   ([`TemporalInstance::begin_invocation`]) and drained + instantly
//!   unplugged at invocation end ([`TemporalInstance::end_invocation`]).
//!
//! Between invocations the instance holds only its base memory — the
//! host gets the ephemeral blocks back within the usual migration-free
//! instant path, at *invocation* granularity rather than instance
//! granularity.

use guest_mm::{AllocPolicy, Pid};
use sim_core::CostModel;
use virtio_mem::{PlugReport, UnplugReport};
use vmm::{HostMemory, Vm};

use crate::flex::FlexManager;
use crate::partition::PartitionId;
use crate::SqueezyError;

/// One instance with temporally segregated memory.
#[derive(Clone, Copy, Debug)]
pub struct TemporalInstance {
    /// The instance's process.
    pub pid: Pid,
    /// Partition holding cross-invocation base memory.
    pub persistent: PartitionId,
    /// Partition holding per-invocation scratch memory.
    pub ephemeral: PartitionId,
    /// Whether an invocation is currently running.
    in_invocation: bool,
}

impl TemporalInstance {
    /// Creates a temporally segregated instance: a fully plugged
    /// persistent partition of `base_bytes` and an (initially empty)
    /// ephemeral partition rated at `scratch_bytes`. The process is
    /// bound to the persistent partition for its base allocations.
    pub fn create(
        flex: &mut FlexManager,
        vm: &mut Vm,
        pid: Pid,
        base_bytes: u64,
        scratch_bytes: u64,
        cost: &CostModel,
    ) -> Result<(TemporalInstance, PlugReport), SqueezyError> {
        let (persistent, plug) = flex.create(vm, base_bytes, base_bytes, cost)?;
        let (ephemeral, _) = match flex.create(vm, scratch_bytes, 0, cost) {
            Ok(x) => x,
            Err(e) => {
                flex.destroy(vm, &mut HostMemory::new(0), persistent, cost)
                    .ok();
                return Err(e);
            }
        };
        flex.attach(vm, persistent, pid)?;
        Ok((
            TemporalInstance {
                pid,
                persistent,
                ephemeral,
                in_invocation: false,
            },
            plug,
        ))
    }

    /// Starts an invocation: plugs the ephemeral partition (if needed)
    /// and redirects the process's faults into it. Base memory faulted
    /// so far stays in the persistent partition.
    pub fn begin_invocation(
        &mut self,
        flex: &mut FlexManager,
        vm: &mut Vm,
        cost: &CostModel,
    ) -> Result<Option<PlugReport>, SqueezyError> {
        debug_assert!(!self.in_invocation, "invocations do not nest");
        let part = flex
            .partition(self.ephemeral)
            .ok_or(SqueezyError::NoReclaimablePartition)?;
        let missing = part.rated_bytes() - part.plugged_bytes();
        let report = if missing > 0 {
            Some(flex.grow(vm, self.ephemeral, missing, cost)?)
        } else {
            None
        };
        let zone = flex.partition(self.ephemeral).expect("just grown").zone;
        vm.guest
            .set_policy(self.pid, AllocPolicy::PinnedZone(zone))?;
        self.in_invocation = true;
        Ok(report)
    }

    /// Ends an invocation: frees every ephemeral page the invocation
    /// faulted, rebinds the process to its persistent partition, and
    /// instantly unplugs the drained ephemeral blocks.
    pub fn end_invocation(
        &mut self,
        flex: &mut FlexManager,
        vm: &mut Vm,
        host: &mut HostMemory,
        cost: &CostModel,
    ) -> Result<Option<UnplugReport>, SqueezyError> {
        debug_assert!(self.in_invocation, "no invocation in progress");
        let eph_zone = flex
            .partition(self.ephemeral)
            .ok_or(SqueezyError::NoReclaimablePartition)?
            .zone;
        // Drop the invocation's scratch: every page of the process that
        // lives in the ephemeral zone. The invocation faulted them all
        // while pinned there, so they are the tail of the process.
        let (mut scratch, mut tail) = (0, 0);
        for r in vm
            .guest
            .process(self.pid)
            .ok_or(SqueezyError::NotAttached)?
            .runs()
        {
            if vm.guest.memmap().page(r.start).zone == eph_zone {
                scratch += r.count;
                tail += r.count;
            } else {
                tail = 0;
            }
        }
        debug_assert_eq!(scratch, tail, "scratch pages are the process's tail");
        vm.guest.free_anon_tail(self.pid, scratch)?;
        // Faults go back to base memory between invocations.
        let pers_zone = flex
            .partition(self.persistent)
            .expect("persistent partition lives as long as the instance")
            .zone;
        vm.guest
            .set_policy(self.pid, AllocPolicy::PinnedZone(pers_zone))?;
        self.in_invocation = false;
        // Give the drained blocks back to the host, instantly.
        flex.shrink_to_fit(vm, host, self.ephemeral, cost)
    }

    /// Tears the instance down after its process exited: detaches and
    /// destroys both partitions.
    pub fn destroy(
        self,
        flex: &mut FlexManager,
        vm: &mut Vm,
        host: &mut HostMemory,
        cost: &CostModel,
    ) -> Result<UnplugReport, SqueezyError> {
        flex.detach(self.pid)?;
        flex.destroy(vm, host, self.ephemeral, cost)?;
        flex.destroy(vm, host, self.persistent, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::GuestMmConfig;
    use mem_types::{GIB, MIB, PAGE_SIZE};
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

    fn instance(vm: &mut Vm, flex: &mut FlexManager, cost: &CostModel) -> (TemporalInstance, Pid) {
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let (inst, _) =
            TemporalInstance::create(flex, vm, pid, 256 * MIB, 256 * MIB, cost).unwrap();
        (inst, pid)
    }

    #[test]
    fn invocation_scratch_reclaimed_between_invocations() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (mut inst, pid) = instance(&mut vm, &mut flex, &cost);
        // Base memory: persists across invocations.
        vm.touch_anon(&mut host, pid, 10_000, &cost).unwrap();
        let base_rss = vm.host_rss();

        for round in 0..3 {
            inst.begin_invocation(&mut flex, &mut vm, &cost).unwrap();
            vm.touch_anon(&mut host, pid, 20_000, &cost).unwrap();
            assert_eq!(
                vm.guest.process(pid).unwrap().rss_pages(),
                10_000 + 20_000,
                "round {round}: base + scratch resident during invocation"
            );
            let report = inst
                .end_invocation(&mut flex, &mut vm, &mut host, &cost)
                .unwrap()
                .expect("scratch blocks drained");
            assert_eq!(report.outcome.migrated, 0, "instant path");
            // Between invocations: only base memory resident, scratch
            // backing returned to the host.
            assert_eq!(vm.guest.process(pid).unwrap().rss_pages(), 10_000);
            assert_eq!(vm.host_rss(), base_rss, "round {round}");
        }
        vm.guest.assert_consistent();
    }

    #[test]
    fn base_memory_survives_invocations() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (mut inst, pid) = instance(&mut vm, &mut flex, &cost);
        vm.touch_anon(&mut host, pid, 5000, &cost).unwrap();
        inst.begin_invocation(&mut flex, &mut vm, &cost).unwrap();
        vm.touch_anon(&mut host, pid, 8000, &cost).unwrap();
        // Base pages live in the persistent zone, scratch in ephemeral.
        let pers_zone = flex.partition(inst.persistent).unwrap().zone;
        let eph_zone = flex.partition(inst.ephemeral).unwrap().zone;
        assert_eq!(vm.guest.zone(pers_zone).used_pages(), 5000);
        assert_eq!(vm.guest.zone(eph_zone).used_pages(), 8000);
        inst.end_invocation(&mut flex, &mut vm, &mut host, &cost)
            .unwrap();
        assert_eq!(vm.guest.zone(pers_zone).used_pages(), 5000);
        assert_eq!(vm.guest.zone(eph_zone).used_pages(), 0);
    }

    #[test]
    fn scratch_overflow_cannot_spill_into_base() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (mut inst, pid) = instance(&mut vm, &mut flex, &cost);
        inst.begin_invocation(&mut flex, &mut vm, &cost).unwrap();
        // 256 MiB scratch = 65536 pages; ask for more.
        let r = vm.touch_anon(&mut host, pid, 256 * MIB / PAGE_SIZE + 1, &cost);
        assert!(r.is_err(), "scratch overflow contained");
        let pers_zone = flex.partition(inst.persistent).unwrap().zone;
        assert_eq!(
            vm.guest.zone(pers_zone).used_pages(),
            0,
            "no spill into the persistent partition"
        );
    }

    #[test]
    fn repeated_cycles_do_not_leak() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (mut inst, pid) = instance(&mut vm, &mut flex, &cost);
        vm.touch_anon(&mut host, pid, 1000, &cost).unwrap();
        let mut idle_rss = None;
        for _ in 0..10 {
            inst.begin_invocation(&mut flex, &mut vm, &cost).unwrap();
            vm.touch_anon(&mut host, pid, 30_000, &cost).unwrap();
            inst.end_invocation(&mut flex, &mut vm, &mut host, &cost)
                .unwrap();
            match idle_rss {
                None => idle_rss = Some(vm.host_rss()),
                Some(r) => assert_eq!(vm.host_rss(), r, "idle footprint stable"),
            }
        }
        vm.guest.assert_consistent();
    }

    #[test]
    fn destroy_returns_everything() {
        let (mut vm, mut host, mut flex, cost) = setup();
        let (mut inst, pid) = instance(&mut vm, &mut flex, &cost);
        vm.touch_anon(&mut host, pid, 1000, &cost).unwrap();
        inst.begin_invocation(&mut flex, &mut vm, &cost).unwrap();
        vm.touch_anon(&mut host, pid, 1000, &cost).unwrap();
        inst.end_invocation(&mut flex, &mut vm, &mut host, &cost)
            .unwrap();
        vm.guest.exit_process(pid).unwrap();
        inst.destroy(&mut flex, &mut vm, &mut host, &cost).unwrap();
        assert_eq!(flex.partition_count(), 0);
        // The whole region is reusable again.
        let blocks = flex.largest_free_blocks();
        assert_eq!(blocks, 4 * GIB / mem_types::MEM_BLOCK_SIZE);
    }
}
