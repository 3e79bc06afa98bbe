//! The event vocabulary of the host runtime.
//!
//! Handlers never own the queue: the fleet engine hands them a
//! [`HostSink`](crate::fleet::HostSink) that tags each event with its
//! host and schedules it on the one shared queue.

use sim_core::SimTime;

/// Events driving one host's simulation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// A request for deployment `dep` on VM `vm` arrives.
    Arrival { vm: usize, dep: usize },
    /// The earliest predicted CPU-pool completion on VM `vm` is due.
    CpuDone { vm: usize },
    /// The memory plug for instance `inst` finished.
    PlugDone { vm: usize, inst: u64 },
    /// Instance `inst`'s keep-alive timer fired: evict it if it sat
    /// idle for the whole window.
    KeepAlive { vm: usize, inst: u64 },
    /// A reclaim operation completed; release its host memory.
    ReclaimDone { vm: usize, token: u64 },
    /// Background retry of an unplug request the deadline cut short.
    RetryReclaim { vm: usize, bytes: u64, retries: u8 },
    /// Periodic metrics sampling.
    Sample,
}

/// What a CPU-pool task is doing.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Work {
    ContainerInit { inst: u64 },
    FunctionInit { inst: u64 },
    Exec { inst: u64, arrival: SimTime },
    ReclaimKthread { token: u64 },
}
