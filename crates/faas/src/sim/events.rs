//! The event vocabulary of the host runtime and the sink the handlers
//! schedule into.
//!
//! Handlers never own the queue: the fleet engine hands them a sink
//! that tags each event with its host and pushes it onto the one shared
//! queue, so a host's scheduling order is the queue's FIFO tie-break
//! order.

use sim_core::SimTime;

/// Events driving one host's simulation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// A request for deployment `dep` on VM `vm` arrives.
    Arrival { vm: usize, dep: usize },
    /// A CPU-pool completion may have occurred on VM `vm`.
    CpuDone { vm: usize, gen: u64 },
    /// The memory plug for instance `inst` finished.
    PlugDone { vm: usize, inst: u64 },
    /// Keep-alive check for instance `inst`.
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

/// Where host handlers schedule future events.
pub(crate) trait EventSink {
    /// Schedules `ev` at absolute time `at`.
    fn push(&mut self, at: SimTime, ev: Event);
}
