//! virtio-mem hot-unplug with page migrations, optionally with the
//! HarvestVM optimizations (§6.2.2).
//!
//! Scale-ups plug limit-sized chunks asynchronously; scale-downs unplug
//! under a deadline, migrating interleaved pages on the guest's vCPUs
//! (the Figure-9 interference) and retrying shortfalls in the
//! background like the real driver's ongoing requests.
//!
//! HarvestVM-opts adds a reserved slack buffer for instant scale-ups,
//! refilled by proactive eviction of idle instances — the
//! memory-for-latency trade the paper compares against. Vanilla
//! virtio-mem is the same backend with a zero buffer and no proactive
//! evictions: every buffer hook then reduces to the host's own free
//! check.

use guest_mm::Pid;
use sim_core::{CostModel, SimDuration, SimTime};
use vmm::HostMemory;

use crate::config::HarvestConfig;
use crate::sim::host::VmRt;
use crate::sim::instance::PendingReclaim;

use super::{ElasticityBackend, PlugStart, ReclaimStart};

pub(crate) struct VirtioMemBackend {
    cfg: HarvestConfig,
    /// Slack buffer currently held (host bytes reserved).
    buffer: u64,
}

impl VirtioMemBackend {
    pub(crate) fn new(cfg: HarvestConfig) -> Self {
        VirtioMemBackend { cfg, buffer: 0 }
    }
}

/// One deadline-bounded virtio-mem unplug of `bytes`, with `retries`
/// more background attempts for whatever the deadline leaves behind.
fn unplug(
    v: &mut VmRt,
    host: &mut HostMemory,
    bytes: u64,
    deadline: SimDuration,
    retries: u8,
    now: SimTime,
    cost: &CostModel,
) -> ReclaimStart {
    let used_before = host.used_bytes();
    let report = match v.vm.unplug(host, bytes, Some(deadline), cost) {
        Ok(r) => r,
        Err(_) => return ReclaimStart::None,
    };
    if report.bytes() == 0 && report.outcome.migrated == 0 {
        // Nothing reclaimable (no candidates): drop silently.
        return ReclaimStart::None;
    }
    let released = used_before - host.used_bytes();
    host.reserve(released).expect("just freed");
    ReclaimStart::Kthread {
        pending: PendingReclaim {
            host_bytes: released,
            guest_bytes: report.bytes(),
            started: now,
            shortfall: report.shortfall_bytes > 0,
            pages_migrated: report.outcome.migrated,
            shortfall_bytes: report.shortfall_bytes,
            retries_left: retries,
        },
        cpu_s: report.guest_cpu.as_secs_f64(),
    }
}

impl ElasticityBackend for VirtioMemBackend {
    fn after_boot(&mut self, host: &mut HostMemory) {
        // The slack buffer is reserved up front — idle memory traded
        // for instant scale-ups (§6.2.2).
        let want = self.cfg.buffer_bytes.min(host.free_bytes());
        host.reserve(want).expect("checked free");
        self.buffer = want;
    }

    fn admit_from_reserve(&mut self, host: &mut HostMemory, estimate: u64) -> bool {
        if self.buffer >= estimate {
            // Draw from the slack buffer: memory is already reserved;
            // hand it to the VM by releasing it for its faults.
            self.buffer -= estimate;
            host.release(estimate);
            return true;
        }
        if self.buffer + host.free_bytes() >= estimate {
            // Drain what the buffer has and cover the rest from the
            // free pool.
            host.release(self.buffer);
            self.buffer = 0;
            return true;
        }
        false
    }

    fn proactive_eviction_quota(&self) -> u32 {
        // Refill the slack buffer by evicting extra idle instances —
        // the "aggressive reclamation" that penalizes their functions
        // later.
        if self.buffer < self.cfg.buffer_bytes {
            self.cfg.proactive_evictions
        } else {
            0
        }
    }

    fn on_reclaim_complete(&mut self, host: &mut HostMemory) {
        // Siphon freed memory into the slack buffer.
        let want = self
            .cfg
            .buffer_bytes
            .saturating_sub(self.buffer)
            .min(host.free_bytes());
        if want > 0 {
            host.reserve(want).expect("checked free");
            self.buffer += want;
        }
    }

    fn begin_plug(
        &mut self,
        _vm_idx: usize,
        v: &mut VmRt,
        _pid: Pid,
        bytes: u64,
        cost: &CostModel,
    ) -> PlugStart {
        match v.vm.plug(bytes, cost) {
            Ok(report) => PlugStart::Scheduled {
                latency: report.latency(),
            },
            // Region exhausted (reclaim shortfalls): the request stays
            // queued for a warm instance.
            Err(_) => PlugStart::Failed,
        }
    }

    fn reclaim_on_evict(
        &mut self,
        _vm_idx: usize,
        v: &mut VmRt,
        host: &mut HostMemory,
        bytes: u64,
        now: SimTime,
        deadline: SimDuration,
        cost: &CostModel,
    ) -> ReclaimStart {
        unplug(v, host, bytes, deadline, 1, now, cost)
    }

    fn retry_reclaim(
        &mut self,
        _vm_idx: usize,
        v: &mut VmRt,
        host: &mut HostMemory,
        bytes: u64,
        retries: u8,
        now: SimTime,
        deadline: SimDuration,
        cost: &CostModel,
    ) -> ReclaimStart {
        unplug(v, host, bytes, deadline, retries, now, cost)
    }
}
