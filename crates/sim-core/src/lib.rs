//! Deterministic discrete-event simulation core for the Squeezy workspace.
//!
//! The paper evaluates Squeezy on a 40-core Xeon host running Linux 6.6 and
//! Cloud Hypervisor. This crate replaces the physical testbed with a
//! deterministic simulator:
//!
//! * [`time`] — virtual nanosecond clock ([`SimTime`], [`SimDuration`]).
//! * [`events`] — a deterministic event queue with FIFO tie-breaking:
//!   one indexed heap on `(time, seq)` holding re-armable timers and
//!   one-shot pushes alike.
//! * [`collections`] — flat sorted-`Vec` maps ([`IdMap`]) for the
//!   per-event hot paths; `BTreeMap` iteration order without the
//!   per-node allocation.
//! * [`rng`] — seeded random streams plus the samplers the workloads need
//!   (exponential, Zipf, log-normal) so no extra crates are required.
//! * [`cost`] — the calibrated cost model: every nanosecond the simulator
//!   ever charges is a named constant here (the module doc gives the
//!   calibration targets; the README's "Reproducing the paper" shows
//!   how to regenerate them).
//! * [`cpu`] — a generalized-processor-sharing CPU pool with per-task rate
//!   caps, each task carrying its caller's payload; reproduces the vCPU
//!   interference effects of Figures 7 and 9.
//! * [`metrics`] — histograms/quantiles, time series and busy-interval
//!   recorders used by the benchmark harness.
//! * [`experiment`] — the multi-trial, multi-point experiment engine the
//!   bench harness runs on: one [`run_experiment`] call maps a closure
//!   over a `points × trials` grid, deriving each cell's RNG stream, on
//!   a parallel runner whose results are bit-identical to the serial
//!   path.
//! * [`stats`] — deterministic inference for experiment comparison:
//!   Welch's t-test and its Student-t confidence interval.
//! * [`table`] — aligned plain-text tables for experiment reports.
//!
//! Each simulation is single-threaded and fully deterministic: the same
//! seed regenerates the same figures bit-for-bit, and the experiment
//! runner only parallelizes *across* independent simulations.

pub mod collections;
pub mod cost;
pub mod cpu;
pub mod events;
pub mod experiment;
pub mod metrics;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use collections::IdMap;
pub use cost::{CostModel, LatencyBreakdown};
pub use cpu::{CpuPool, TaskId};
pub use events::EventQueue;
pub use experiment::{run_experiment, ExpOpts, Summary, TrialCtx};
pub use metrics::{fnv1a, BusyRecorder, Fnv1a, Histogram, Reservoir, TimeSeries};
pub use rng::{nhpp_thinned_arrivals, poisson_arrivals_into, DetRng};
pub use stats::{welch, welch_ci, Welch};
pub use table::TextTable;
pub use time::{SimDuration, SimTime};
