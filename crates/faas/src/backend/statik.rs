//! The statically over-provisioned baseline (Figure 1's motivation).
//!
//! All memory is plugged at boot and never reclaimed: instant
//! scale-ups, maximal host footprint.

use guest_mm::Pid;
use sim_core::{CostModel, SimDuration, SimTime};
use vmm::{HostMemory, Vm};

use crate::config::VmSpec;
use crate::sim::host::VmRt;

use super::{ElasticityBackend, PlugStart, ReclaimStart};

pub(crate) struct StaticBackend;

impl ElasticityBackend for StaticBackend {
    fn install_vm(
        &mut self,
        vm: &mut Vm,
        _spec: &VmSpec,
        _shared_bytes: u64,
        hotplug_bytes: u64,
        cost: &CostModel,
    ) {
        // Over-provisioned VM: everything plugged at boot.
        vm.plug(hotplug_bytes, cost)
            .expect("static plug fits region");
    }

    fn begin_plug(
        &mut self,
        _vm_idx: usize,
        _v: &mut VmRt,
        _pid: Pid,
        _bytes: u64,
        _cost: &CostModel,
    ) -> PlugStart {
        // Memory is already there; no `PlugDone` is ever scheduled.
        PlugStart::Ready { partition: None }
    }

    fn reclaim_on_evict(
        &mut self,
        _vm_idx: usize,
        _v: &mut VmRt,
        _host: &mut HostMemory,
        _bytes: u64,
        _now: SimTime,
        _deadline: SimDuration,
        _cost: &CostModel,
    ) -> ReclaimStart {
        // Never reclaims (the flat host line of Figure 1).
        ReclaimStart::None
    }
}
