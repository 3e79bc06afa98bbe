//! The event vocabulary of the host runtime and the sink the handlers
//! schedule into.
//!
//! Handlers never own the queue: the fleet engine hands them a sink
//! that tags each event with its host and schedules it on the one
//! shared queue, so a host's scheduling order is the queue's FIFO
//! tie-break order.

use sim_core::{SimDuration, SimTime};

/// Events driving one host's simulation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// A request for deployment `dep` on VM `vm` arrives.
    Arrival { vm: usize, dep: usize },
    /// The earliest predicted CPU-pool completion on VM `vm` is due.
    CpuDone { vm: usize },
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
    /// Schedules `ev` one fixed `delay` after the handler's `now`.
    fn push_after(&mut self, now: SimTime, delay: SimDuration, ev: Event);
    /// Arms VM `vm`'s one CPU-completion timer at `at`, replacing its
    /// pending prediction; `None` disarms it.
    fn set_cpu_timer(&mut self, vm: usize, at: Option<SimTime>);
}
