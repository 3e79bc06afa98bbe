//! Per-instance state: lifecycle, and in-flight reclaim accounting.

use ::squeezy::PartitionId;
use guest_mm::Pid;
use sim_core::SimTime;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum InstState {
    Starting,
    Warm,
    Busy,
    /// Alive but its soft partition was revoked (§7): serves nothing
    /// until it re-plugs and rebuilds on the next request.
    Hollow,
}

pub(crate) struct Instance {
    pub dep: usize,
    pub pid: Pid,
    /// The instance's keep-alive timer key, host-local: held while it
    /// lives, returned to the host's free list when it is removed.
    pub keepalive: usize,
    pub state: InstState,
    pub last_used: SimTime,
    pub started_at: SimTime,
    pub plug_done: bool,
    pub container_done: bool,
    pub first_exec_pending: bool,
    pub partition: Option<PartitionId>,
}

pub(crate) struct PendingReclaim {
    /// Host bytes to release when the reclaim completes.
    pub host_bytes: u64,
    /// Guest bytes unplugged (Figure-8 throughput accounting).
    pub guest_bytes: u64,
    pub started: SimTime,
    pub shortfall: bool,
    pub pages_migrated: u64,
    /// Bytes the deadline left unreclaimed (virtio backends retry them
    /// in the background, like the real driver's ongoing requests).
    pub shortfall_bytes: u64,
    /// Background retries left for the shortfall.
    pub retries_left: u8,
}
