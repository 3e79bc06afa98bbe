//! The pluggable memory-elasticity backend layer.
//!
//! Each reclamation mechanism of §5.2 lives in its own module and
//! implements [`ElasticityBackend`]: how guest memory is sized, plugged
//! on scale-up, reclaimed on evict, and (for §7 soft memory) revoked
//! under host pressure. There are three mechanisms for the five
//! [`BackendKind`]s:
//!
//! * `statik` — everything plugged at boot, nothing reclaimed;
//! * `virtio_mem` — deadline-bounded unplug with page migrations;
//!   HarvestVM-opts is the same backend with a slack buffer and
//!   proactive eviction;
//! * `squeezy` — instant partition unplug; Squeezy+soft is the same
//!   backend with soft marking of idle partitions on.
//!
//! The host runtime (`crate::sim::host`) is backend agnostic — it
//! drives these hooks and never dispatches on [`BackendKind`]; the only
//! `BackendKind` match in the runtime is the [`make`] factory below.

pub(crate) mod squeezy;
pub(crate) mod statik;
pub(crate) mod virtio_mem;

use ::squeezy::PartitionId;
use guest_mm::Pid;
use mem_types::align_up_to_block;
use sim_core::{CostModel, SimDuration, SimTime};
use vmm::{HostMemory, Vm};

use crate::config::{BackendKind, HarvestConfig, SimConfig, VmSpec};
use crate::sim::host::VmRt;
use crate::sim::instance::PendingReclaim;

/// How a fresh instance's memory plug started.
pub(crate) enum PlugStart {
    /// Memory is available immediately (static plug, reused partition).
    Ready { partition: Option<PartitionId> },
    /// An asynchronous plug was issued; a `PlugDone` event fires after
    /// `latency`.
    Scheduled { latency: SimDuration },
    /// The plug failed (device region exhausted): cancel the scale-up.
    Failed,
}

/// What a `PlugDone` event resolved to.
pub(crate) struct PlugResolution {
    /// Instances whose plug completed with this event (init may
    /// proceed).
    pub ready: Vec<u64>,
    /// A replacement plug for the event's instance (its partition was
    /// taken by a concurrent scale-up): `PlugDone` fires again after
    /// this latency.
    pub replug: Option<SimDuration>,
}

/// How a reclaim operation started.
pub(crate) enum ReclaimStart {
    /// Nothing to reclaim.
    None,
    /// The reclaim completes after a fixed wall latency (Squeezy's
    /// synchronous partition unplug).
    Timed {
        pending: PendingReclaim,
        latency: SimDuration,
    },
    /// The reclaim completes when the in-guest driver kthread finishes
    /// `cpu_s` seconds of page-migration work on the VM's vCPUs (the
    /// Figure-9 interference).
    Kthread { pending: PendingReclaim, cpu_s: f64 },
}

/// How a hollow (soft-revoked) instance wakes back up.
pub(crate) enum RebuildStart {
    /// The partition was revoked: a re-plug is in flight and `PlugDone`
    /// fires after `latency`.
    Replug { latency: SimDuration },
    /// The partition survived; the instance is warm again.
    Warm,
}

/// One memory-elasticity backend driving a host's VMs.
///
/// Hooks with defaults are optional behaviors (reserve buffers,
/// soft-memory revocation) or the behavior shared by the
/// non-partitioned backends; the required hooks are the plug/reclaim
/// paths every backend must define. Implementations own all their
/// backend-specific state (Squeezy managers, slack buffers) — the host
/// loop holds none.
pub(crate) trait ElasticityBackend {
    /// Hotplug-region size for a VM hosting `spec`'s deployments. The
    /// default is the non-partitioned sizing: extra device headroom
    /// because reclaim shortfalls leave blocks plugged and the VM must
    /// keep growing past them (the paper's virtio-mem "uses the maximum
    /// memory available").
    fn hotplug_bytes(
        &self,
        _spec: &VmSpec,
        total_limit: u64,
        shared_bytes: u64,
        max_limit: u64,
    ) -> u64 {
        align_up_to_block(total_limit + shared_bytes + 256 * (1 << 20) + 2 * max_limit)
    }

    /// Called once per VM right after boot: install managers, perform
    /// boot-time plugs.
    fn install_vm(
        &mut self,
        _vm: &mut Vm,
        _spec: &VmSpec,
        _shared_bytes: u64,
        _hotplug_bytes: u64,
        _cost: &CostModel,
    ) {
    }

    /// Called once after every VM has booted (e.g. reserve the
    /// HarvestVM slack buffer).
    fn after_boot(&mut self, _host: &mut HostMemory) {}

    /// Admit one instance of `estimate` bytes from backend-held
    /// reserves (HarvestVM's slack buffer). Returns `true` when the
    /// admission is covered.
    fn admit_from_reserve(&mut self, _host: &mut HostMemory, _estimate: u64) -> bool {
        false
    }

    /// Release revocable memory under host pressure without evicting
    /// instances (§7 soft memory). Best effort: the host loop
    /// re-checks free memory afterwards.
    fn revoke_for_pressure(
        &mut self,
        _vms: &mut [VmRt],
        _host: &mut HostMemory,
        _deficit: u64,
        _cost: &CostModel,
    ) {
    }

    /// Extra idle instances to proactively evict after a keep-alive
    /// eviction (HarvestVM's aggressive reclamation).
    fn proactive_eviction_quota(&self) -> u32 {
        0
    }

    /// A reclaim completed and its memory returned to the host.
    fn on_reclaim_complete(&mut self, _host: &mut HostMemory) {}

    /// Start the memory plug for a fresh instance (`bytes` = the
    /// user-defined limit, block aligned).
    fn begin_plug(
        &mut self,
        vm_idx: usize,
        v: &mut VmRt,
        pid: Pid,
        bytes: u64,
        cost: &CostModel,
    ) -> PlugStart;

    /// A `PlugDone` event fired for instance `inst`: mark completed
    /// plugs (and bind partitions to waiters). The default marks
    /// `inst`'s plug done and lets its init proceed.
    fn finish_plug(
        &mut self,
        _vm_idx: usize,
        v: &mut VmRt,
        inst: u64,
        _cost: &CostModel,
    ) -> PlugResolution {
        if let Some(i) = v.instances.get_mut(&inst) {
            i.plug_done = true;
        }
        PlugResolution {
            ready: vec![inst],
            replug: None,
        }
    }

    /// A request was dispatched to `pid` (soft memory firms the
    /// partition up).
    fn on_dispatch(&mut self, _vm_idx: usize, _pid: Pid) {}

    /// `pid` went idle (soft memory offers the partition back).
    fn on_idle(&mut self, _vm_idx: usize, _pid: Pid) {}

    /// `pid` is exiting (evicted or killed): drop backend bookkeeping.
    fn on_exit(&mut self, _vm_idx: usize, _pid: Pid) {}

    /// Reclaim after an eviction of a limit-sized (`bytes`) instance.
    #[allow(clippy::too_many_arguments)]
    fn reclaim_on_evict(
        &mut self,
        vm_idx: usize,
        v: &mut VmRt,
        host: &mut HostMemory,
        bytes: u64,
        now: SimTime,
        deadline: SimDuration,
        cost: &CostModel,
    ) -> ReclaimStart;

    /// Background retry of a shortfall the unplug deadline left behind
    /// (the virtio driver's ongoing requests).
    #[allow(clippy::too_many_arguments)]
    fn retry_reclaim(
        &mut self,
        _vm_idx: usize,
        _v: &mut VmRt,
        _host: &mut HostMemory,
        _bytes: u64,
        _retries: u8,
        _now: SimTime,
        _deadline: SimDuration,
        _cost: &CostModel,
    ) -> ReclaimStart {
        ReclaimStart::None
    }

    /// Rebuild a hollow (soft-revoked) instance on its next request.
    fn rebuild(
        &mut self,
        _vm_idx: usize,
        _v: &mut VmRt,
        _pid: Pid,
        _cost: &CostModel,
    ) -> RebuildStart {
        unreachable!("only soft-memory backends produce hollow instances")
    }
}

/// Instantiates the configured backend — the one `BackendKind` dispatch
/// in the runtime.
pub(crate) fn make(config: &SimConfig) -> Box<dyn ElasticityBackend> {
    match config.backend {
        BackendKind::Static => Box::new(statik::StaticBackend),
        // Vanilla virtio-mem: no slack buffer, no proactive eviction.
        BackendKind::VirtioMem => Box::new(virtio_mem::VirtioMemBackend::new(HarvestConfig {
            buffer_bytes: 0,
            proactive_evictions: 0,
        })),
        BackendKind::HarvestOpts => Box::new(virtio_mem::VirtioMemBackend::new(config.harvest)),
        BackendKind::Squeezy => Box::new(squeezy::SqueezyBackend::new(false)),
        BackendKind::SqueezySoft => Box::new(squeezy::SqueezyBackend::new(true)),
    }
}
