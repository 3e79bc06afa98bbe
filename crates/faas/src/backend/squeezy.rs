//! Squeezy: partitioned guest memory with instant, migration-free
//! partition unplug (§4-§5), optionally with §7 soft memory.
//!
//! With `soft` on, idle instances mark their partitions soft, so the
//! host can revoke them under pressure without evicting the instances;
//! revoked ("hollow") instances re-plug and rebuild on their next
//! request — the soft-cold start that stays cheaper than a full cold
//! start. With `soft` off nothing is ever marked soft, so there is
//! nothing to revoke and no instance goes hollow.

use ::squeezy::{AttachOutcome, SoftWake, SqueezyConfig, SqueezyManager};
use guest_mm::Pid;
use mem_types::align_up_to_block;
use sim_core::{CostModel, SimDuration, SimTime};
use vmm::{HostMemory, Vm};

use crate::config::VmSpec;
use crate::sim::host::VmRt;
use crate::sim::instance::{InstState, PendingReclaim};

use super::{ElasticityBackend, PlugResolution, PlugStart, RebuildStart, ReclaimStart};

/// One [`SqueezyManager`] per VM, installed at boot.
pub(crate) struct SqueezyBackend {
    managers: Vec<SqueezyManager>,
    /// §7 soft memory: idle instances offer their partitions back.
    soft: bool,
}

impl SqueezyBackend {
    pub(crate) fn new(soft: bool) -> Self {
        SqueezyBackend {
            managers: Vec::new(),
            soft,
        }
    }
}

impl ElasticityBackend for SqueezyBackend {
    /// Partitioned region: the shared slab plus one partition per
    /// admitted instance — no headroom needed, unplug never falls
    /// short. Partitions are uniformly sized at the VM's largest
    /// hosted limit, so a heterogeneous tenant mix needs
    /// `max_limit × Σ concurrency` (for homogeneous limits this equals
    /// the plain per-deployment sum).
    fn hotplug_bytes(
        &self,
        spec: &VmSpec,
        _total_limit: u64,
        shared_bytes: u64,
        max_limit: u64,
    ) -> u64 {
        let n: u64 = spec.deployments.iter().map(|d| d.concurrency as u64).sum();
        shared_bytes + max_limit * n
    }

    fn install_vm(
        &mut self,
        vm: &mut Vm,
        spec: &VmSpec,
        shared_bytes: u64,
        _hotplug_bytes: u64,
        cost: &CostModel,
    ) {
        // One partition size per VM: the largest hosted limit
        // (co-located functions share limits in the paper's
        // co-location experiment).
        let part = spec
            .deployments
            .iter()
            .map(|d| align_up_to_block(d.kind.profile().memory_limit.bytes()))
            .max()
            .expect("VM hosts at least one deployment");
        let n: u32 = spec.deployments.iter().map(|d| d.concurrency).sum();
        self.managers.push(
            SqueezyManager::install(
                vm,
                SqueezyConfig {
                    partition_bytes: part,
                    shared_bytes,
                    concurrency: n,
                },
                cost,
            )
            .expect("squeezy layout fits the sized region"),
        );
    }

    fn begin_plug(
        &mut self,
        vm_idx: usize,
        v: &mut VmRt,
        pid: Pid,
        _bytes: u64,
        cost: &CostModel,
    ) -> PlugStart {
        let sq = &mut self.managers[vm_idx];
        match sq.attach(&mut v.vm, pid).expect("fresh pid attaches") {
            AttachOutcome::Attached(part) => {
                // Reused an already-populated partition.
                PlugStart::Ready {
                    partition: Some(part),
                }
            }
            AttachOutcome::Queued => {
                let (_, report) = sq
                    .plug_partition(&mut v.vm, cost)
                    .expect("concurrency bound leaves a partition");
                PlugStart::Scheduled {
                    latency: report.latency(),
                }
            }
        }
    }

    /// Binds queued waiters to freshly populated partition(s). A
    /// concurrent scale-up may have reused the partition this plug
    /// populated; binding goes FIFO and an instance left unbound
    /// re-plugs.
    fn finish_plug(
        &mut self,
        vm_idx: usize,
        v: &mut VmRt,
        inst: u64,
        cost: &CostModel,
    ) -> PlugResolution {
        let sq = &mut self.managers[vm_idx];
        let woken = sq.wake_waiters(&mut v.vm);
        let mut ready = Vec::new();
        for (pid, part) in woken {
            if let Some((&id, _)) = v.instances.iter().find(|(_, i)| i.pid == pid) {
                let i = v.instances.get_mut(&id).expect("exists");
                i.partition = Some(part);
                i.plug_done = true;
                ready.push(id);
            }
        }
        // A rebuild re-plug (§7 soft memory) completes directly: the
        // instance kept its partition across the revocation.
        let rebuilt = v
            .instances
            .get(&inst)
            .map(|i| i.state == InstState::Starting && !i.plug_done && i.partition.is_some())
            .unwrap_or(false);
        if rebuilt {
            v.instances.get_mut(&inst).expect("checked above").plug_done = true;
            ready.push(inst);
        }
        // If this event's instance is still unbound (its partition was
        // taken), plug a replacement partition for it.
        let unbound = v
            .instances
            .get(&inst)
            .map(|i| i.state == InstState::Starting && i.partition.is_none())
            .unwrap_or(false);
        let replug = if unbound {
            let (_, report) = sq
                .plug_partition(&mut v.vm, cost)
                .expect("a starving instance implies an unpopulated partition");
            Some(report.latency())
        } else {
            None
        };
        PlugResolution { ready, replug }
    }

    fn on_dispatch(&mut self, vm_idx: usize, pid: Pid) {
        // Firm the partition up while the instance works.
        if self.soft {
            let _ = self.managers[vm_idx].mark_firm(pid);
        }
    }

    fn on_idle(&mut self, vm_idx: usize, pid: Pid) {
        // Newly idle instances offer their partition back.
        if self.soft {
            let _ = self.managers[vm_idx].mark_soft(pid);
        }
    }

    fn on_exit(&mut self, vm_idx: usize, pid: Pid) {
        let _ = self.managers[vm_idx].detach(pid);
    }

    fn reclaim_on_evict(
        &mut self,
        vm_idx: usize,
        v: &mut VmRt,
        host: &mut HostMemory,
        _bytes: u64,
        now: SimTime,
        _deadline: SimDuration,
        cost: &CostModel,
    ) -> ReclaimStart {
        let sq = &mut self.managers[vm_idx];
        match sq.unplug_partition(&mut v.vm, host, cost) {
            Ok((_, report)) => {
                // Squeezy reclaims synchronously (§6.2.2): the freed
                // memory is available immediately — "the drops
                // preceding spikes". The ReclaimDone event only closes
                // the latency accounting.
                ReclaimStart::Timed {
                    pending: PendingReclaim {
                        host_bytes: 0,
                        guest_bytes: report.bytes(),
                        started: now,
                        shortfall: false,
                        pages_migrated: 0,
                        shortfall_bytes: 0,
                        retries_left: 0,
                    },
                    latency: report.latency(),
                }
            }
            Err(_) => {
                // Partition reused concurrently: nothing to reclaim.
                ReclaimStart::None
            }
        }
    }

    /// Pressure valve: revoke soft partitions of idle instances
    /// (without evicting them) until `deficit` host bytes are covered
    /// or nothing soft is left. Revoked instances go hollow.
    fn revoke_for_pressure(
        &mut self,
        vms: &mut [VmRt],
        host: &mut HostMemory,
        deficit: u64,
        cost: &CostModel,
    ) {
        let mut released = 0u64;
        for (sq, v) in self.managers.iter_mut().zip(vms.iter_mut()) {
            while released < deficit {
                let used_before = host.used_bytes();
                let revoked = sq.revoke_soft(&mut v.vm, host, 1, cost).unwrap_or_default();
                let Some((part, report)) = revoked.into_iter().next() else {
                    break;
                };
                released += used_before - host.used_bytes();
                // The partition's instance goes hollow.
                if let Some((&id, _)) = v
                    .instances
                    .iter()
                    .find(|(_, i)| i.partition == Some(part) && i.state == InstState::Warm)
                {
                    v.instances.get_mut(&id).expect("exists").state = InstState::Hollow;
                }
                let r = &mut v.reclaim;
                r.bytes += report.bytes();
                r.wall += report.latency();
                r.ops += 1;
            }
            if released >= deficit {
                break;
            }
        }
    }

    /// Re-plugs a hollow (soft-revoked) instance: the container and
    /// runtime survived, so only the partition plug and the
    /// working-set rebuild are paid (the §7 soft-cold start).
    fn rebuild(&mut self, vm_idx: usize, v: &mut VmRt, pid: Pid, cost: &CostModel) -> RebuildStart {
        let sq = &mut self.managers[vm_idx];
        match sq.mark_firm(pid).expect("hollow instance is attached") {
            SoftWake::NeedsReplug => {
                let report = sq.replug(&mut v.vm, pid, cost).expect("revoked");
                RebuildStart::Replug {
                    latency: report.latency(),
                }
            }
            SoftWake::Warm => {
                // The partition was never unplugged after all.
                RebuildStart::Warm
            }
        }
    }
}
