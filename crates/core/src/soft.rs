//! Soft-memory partitions for keep-alive instances (§7 future work).
//!
//! Keep-alive policies trade memory for cold-start avoidance: an idle
//! instance ties its partition down for the whole keep-alive window.
//! The paper proposes using Squeezy to soften that trade: "Applications
//! could request Squeezy partitions to use as soft-memory ... Under
//! memory pressure, the hypervisor could rapidly reclaim soft-memory
//! Squeezy partitions", and likewise reclaim "unused memory of
//! garbage-collected runtimes ... for VM-sandboxed function instances".
//!
//! The protocol implemented here:
//!
//! 1. When an instance goes idle, the runtime (or the GC'd language
//!    runtime itself) calls [`SqueezyManager::mark_soft`] — the instance
//!    keeps running, its partition stays populated, but it is now
//!    revocable.
//! 2. Under host memory pressure, [`SqueezyManager::revoke_soft`] drops
//!    the soft instances' anonymous pages inside the guest (the
//!    app-managed soft state is discarded) and instantly unplugs their
//!    partitions — the usual migration-free path.
//! 3. On the next invocation the runtime calls
//!    [`SqueezyManager::mark_firm`]: a still-populated partition wakes
//!    warm ([`SoftWake::Warm`]); a revoked one reports
//!    [`SoftWake::NeedsReplug`], and [`SqueezyManager::replug`] restores
//!    its backing before the instance rebuilds its state (a *soft-cold*
//!    start: container and runtime survive, only the heap is rebuilt).

use guest_mm::Pid;
use sim_core::CostModel;
use virtio_mem::{PlugReport, UnplugReport};
use vmm::{HostMemory, Vm};

use crate::partition::{PartitionId, PartitionState};
use crate::{SqueezyError, SqueezyManager};

/// What `mark_firm` found when waking a soft instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SoftWake {
    /// The partition was never revoked: all state intact, warm start.
    Warm,
    /// The partition was revoked: re-plug and rebuild state.
    NeedsReplug,
}

impl SqueezyManager {
    /// Marks the partition of idle instance `pid` as soft (revocable
    /// under pressure). The instance keeps running.
    pub fn mark_soft(&mut self, pid: Pid) -> Result<PartitionId, SqueezyError> {
        let id = *self
            .attached()
            .get(&pid.0)
            .ok_or(SqueezyError::NotAttached)?;
        let part = self.partition_mut(id);
        if part.state != PartitionState::Assigned {
            return Err(SqueezyError::PartitionBusy);
        }
        part.state = PartitionState::Soft;
        self.stats_mut().soft_marks += 1;
        Ok(id)
    }

    /// Wakes instance `pid` for a new invocation. Returns whether its
    /// soft state survived ([`SoftWake::Warm`]) or was revoked and needs
    /// a re-plug ([`SoftWake::NeedsReplug`]).
    pub fn mark_firm(&mut self, pid: Pid) -> Result<SoftWake, SqueezyError> {
        let id = *self
            .attached()
            .get(&pid.0)
            .ok_or(SqueezyError::NotAttached)?;
        let part = self.partition_mut(id);
        match part.state {
            PartitionState::Soft => {
                part.state = PartitionState::Assigned;
                Ok(SoftWake::Warm)
            }
            PartitionState::Revoked => Ok(SoftWake::NeedsReplug),
            PartitionState::Assigned => Ok(SoftWake::Warm),
            _ => Err(SqueezyError::NotAttached),
        }
    }

    /// Hypervisor-side pressure handler: revokes up to `max` soft
    /// partitions — dropping their instances' anonymous pages in the
    /// guest and instantly unplugging their blocks. Returns one report
    /// per revoked partition.
    pub fn revoke_soft(
        &mut self,
        vm: &mut Vm,
        host: &mut HostMemory,
        max: usize,
        cost: &CostModel,
    ) -> Result<Vec<(PartitionId, UnplugReport)>, SqueezyError> {
        let victims: Vec<PartitionId> = self
            .partitions()
            .iter()
            .filter(|p| p.state == PartitionState::Soft)
            .map(|p| p.id)
            .take(max)
            .collect();
        let mut out = Vec::with_capacity(victims.len());
        for id in victims {
            // Drop the soft state of every process attached to this
            // partition (the app relinquished it when marking soft).
            // Sorted so the release order into the buddy is
            // deterministic (the map iterates in random order).
            let mut pids: Vec<Pid> = self
                .attached()
                .iter()
                .filter(|&(_, &p)| p == id)
                .map(|(&raw, _)| Pid(raw))
                .collect();
            pids.sort_unstable();
            for pid in pids {
                vm.guest.drop_anon(pid)?;
            }
            let blocks = self.partition_mut(id).blocks.clone();
            let report = vm.unplug_blocks_instant(host, &blocks, cost)?;
            self.partition_mut(id).state = PartitionState::Revoked;
            self.stats_mut().soft_revocations += 1;
            self.stats_mut().unplugs += 1;
            out.push((id, report));
        }
        Ok(out)
    }

    /// Re-plugs the revoked partition of instance `pid` so it can
    /// rebuild its state (the soft-cold start path).
    pub fn replug(
        &mut self,
        vm: &mut Vm,
        pid: Pid,
        cost: &CostModel,
    ) -> Result<PlugReport, SqueezyError> {
        let id = *self
            .attached()
            .get(&pid.0)
            .ok_or(SqueezyError::NotAttached)?;
        let part = self.partition_mut(id);
        if part.state != PartitionState::Revoked {
            return Err(SqueezyError::PartitionBusy);
        }
        let zone = part.zone;
        let blocks = part.blocks.clone();
        let report = vm
            .virtio_mem
            .plug_blocks(&mut vm.guest, &blocks, zone, cost)?;
        self.partition_mut(id).state = PartitionState::Assigned;
        self.stats_mut().replugs += 1;
        self.stats_mut().plugs += 1;
        Ok(report)
    }

    /// Returns the number of partitions currently marked soft.
    #[cfg(test)]
    pub(crate) fn soft_count(&self) -> usize {
        self.partitions()
            .iter()
            .filter(|p| p.state == PartitionState::Soft)
            .count()
    }

    /// Returns the number of partitions currently revoked.
    #[cfg(test)]
    pub(crate) fn revoked_count(&self) -> usize {
        self.partitions()
            .iter()
            .filter(|p| p.state == PartitionState::Revoked)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::{AllocPolicy, GuestMmConfig};
    use mem_types::{GIB, MIB, PAGE_SIZE};
    use vmm::VmConfig;

    use crate::SqueezyConfig;

    fn setup() -> (Vm, HostMemory, SqueezyManager, CostModel) {
        let cost = CostModel::default();
        let mut host = HostMemory::new(32 * GIB);
        let mut vm = Vm::boot(
            VmConfig {
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
                concurrency: 4,
            },
            &cost,
        )
        .unwrap();
        (vm, host, sq, cost)
    }

    /// Plug + attach + warm one instance; returns its pid.
    fn warm_instance(
        vm: &mut Vm,
        host: &mut HostMemory,
        sq: &mut SqueezyManager,
        pages: u64,
        cost: &CostModel,
    ) -> Pid {
        sq.plug_partition(vm, cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(vm, pid).unwrap();
        vm.touch_anon(host, pid, pages, cost).unwrap();
        pid
    }

    #[test]
    fn soft_survives_without_pressure() {
        let (mut vm, mut host, mut sq, cost) = setup();
        let pid = warm_instance(&mut vm, &mut host, &mut sq, 10_000, &cost);
        sq.mark_soft(pid).unwrap();
        assert_eq!(sq.soft_count(), 1);
        // No pressure: next wake is warm with all pages intact.
        assert_eq!(sq.mark_firm(pid).unwrap(), SoftWake::Warm);
        assert_eq!(vm.guest.process(pid).unwrap().rss_pages(), 10_000);
        assert_eq!(sq.soft_count(), 0);
    }

    #[test]
    fn revoke_reclaims_soft_partition_instantly() {
        let (mut vm, mut host, mut sq, cost) = setup();
        let pid = warm_instance(&mut vm, &mut host, &mut sq, 10_000, &cost);
        sq.mark_soft(pid).unwrap();
        let rss_before = vm.host_rss();

        let reports = sq
            .revoke_soft(&mut vm, &mut host, usize::MAX, &cost)
            .unwrap();
        assert_eq!(reports.len(), 1);
        let (_, report) = &reports[0];
        assert_eq!(report.outcome.migrated, 0, "instant path");
        assert_eq!(report.outcome.zeroed, 0, "zeroing skipped");
        // Host memory came back; the guest process is alive but empty.
        assert!(vm.host_rss() < rss_before);
        assert_eq!(vm.guest.process(pid).unwrap().rss_pages(), 0);
        assert_eq!(sq.revoked_count(), 1);
        assert_eq!(sq.populated_count(), 0);
        vm.guest.assert_consistent();
    }

    #[test]
    fn revoked_instance_replugs_and_rebuilds() {
        let (mut vm, mut host, mut sq, cost) = setup();
        let pid = warm_instance(&mut vm, &mut host, &mut sq, 10_000, &cost);
        sq.mark_soft(pid).unwrap();
        sq.revoke_soft(&mut vm, &mut host, usize::MAX, &cost)
            .unwrap();

        // Next invocation: wake reports the revocation.
        assert_eq!(sq.mark_firm(pid).unwrap(), SoftWake::NeedsReplug);
        // Touching memory before re-plug fails: the partition is gone.
        assert!(vm.touch_anon(&mut host, pid, 1, &cost).is_err());
        sq.replug(&mut vm, pid, &cost).unwrap();
        assert_eq!(sq.mark_firm(pid).unwrap(), SoftWake::Warm);
        // Rebuild the soft state.
        vm.touch_anon(&mut host, pid, 10_000, &cost).unwrap();
        assert_eq!(vm.guest.process(pid).unwrap().rss_pages(), 10_000);
        assert_eq!(sq.stats().replugs, 1);
        vm.guest.assert_consistent();
    }

    #[test]
    fn revoke_respects_max_and_skips_firm_partitions() {
        let (mut vm, mut host, mut sq, cost) = setup();
        let idle_a = warm_instance(&mut vm, &mut host, &mut sq, 1000, &cost);
        let idle_b = warm_instance(&mut vm, &mut host, &mut sq, 1000, &cost);
        let busy = warm_instance(&mut vm, &mut host, &mut sq, 1000, &cost);
        sq.mark_soft(idle_a).unwrap();
        sq.mark_soft(idle_b).unwrap();

        let reports = sq.revoke_soft(&mut vm, &mut host, 1, &cost).unwrap();
        assert_eq!(reports.len(), 1, "max respected");
        assert_eq!(sq.soft_count(), 1);
        // The busy instance is untouched.
        assert_eq!(vm.guest.process(busy).unwrap().rss_pages(), 1000);
        let _ = idle_a;
    }

    #[test]
    fn detached_revoked_partition_returns_unpopulated() {
        let (mut vm, mut host, mut sq, cost) = setup();
        let pid = warm_instance(&mut vm, &mut host, &mut sq, 1000, &cost);
        sq.mark_soft(pid).unwrap();
        sq.revoke_soft(&mut vm, &mut host, usize::MAX, &cost)
            .unwrap();
        // The runtime decides to evict the instance outright instead of
        // re-warming it.
        vm.guest.exit_process(pid).unwrap();
        sq.detach(pid).unwrap();
        // The partition is reusable by a fresh plug (not double-unplug).
        assert_eq!(sq.reclaimable_count(), 0);
        let (id, _) = sq.plug_partition(&mut vm, &cost).unwrap();
        let p2 = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, p2).unwrap();
        vm.touch_anon(&mut host, p2, 500, &cost).unwrap();
        let zone = sq.partitions()[id.0 as usize].zone;
        assert_eq!(vm.guest.zone(zone).used_pages(), 500);
    }

    #[test]
    fn mark_soft_requires_assigned_partition() {
        let (mut vm, mut host, mut sq, cost) = setup();
        assert!(matches!(
            sq.mark_soft(Pid(99)),
            Err(SqueezyError::NotAttached)
        ));
        let pid = warm_instance(&mut vm, &mut host, &mut sq, 100, &cost);
        sq.mark_soft(pid).unwrap();
        // Double-soft is rejected (already Soft, not Assigned).
        assert!(matches!(
            sq.mark_soft(pid),
            Err(SqueezyError::PartitionBusy)
        ));
    }

    #[test]
    fn soft_memory_saves_bytes_during_idle() {
        let (mut vm, mut host, mut sq, cost) = setup();
        let pages = 100_000u64;
        let pid = warm_instance(&mut vm, &mut host, &mut sq, pages, &cost);
        let held_firm = vm.host_rss();
        sq.mark_soft(pid).unwrap();
        sq.revoke_soft(&mut vm, &mut host, usize::MAX, &cost)
            .unwrap();
        let held_soft = vm.host_rss();
        assert!(
            held_firm - held_soft >= pages * PAGE_SIZE,
            "idle instance footprint released: {held_firm} -> {held_soft}"
        );
    }
}
