//! An OpenWhisk-style FaaS runtime model over dynamically resized VMs.
//!
//! Reproduces the paper's deployment (§4.2, §5) in four explicit
//! layers:
//!
//! * **Backend layer** ([`backend`], internal): the pluggable
//!   [`BackendKind`] elasticity backends — Static, vanilla virtio-mem,
//!   HarvestVM-opts, Squeezy, Squeezy+soft — each in its own module
//!   behind one `ElasticityBackend` trait (plug/scale-up cost,
//!   reclaim-on-evict, pressure/revocation hooks).
//! * **Host layer** ([`sim`]): one host's backend-agnostic event
//!   handlers — a controller routes invocations to per-VM agents that
//!   reuse warm instances, scale up with memory plugs, keep idle
//!   instances alive and scale down with memory reclamation.
//!   [`FaasSim`] runs a single host, the paper's deployment.
//! * **Cluster layer** ([`cluster`]): [`ClusterSim`] runs N hosts with
//!   a pluggable [`Router`] (round-robin, least-loaded, warm-affinity,
//!   power-of-two-choices).
//! * **Fleet layer** ([`fleet`]): [`FleetSim`] is the crate's one event
//!   engine. It merges the arrival feed with one shared queue, routes
//!   requests at pop time, and runs a control plane over the hosts —
//!   host lifecycle (Booting → Active → Draining → Retired, plus
//!   injected Failed), pluggable [`AutoscalePolicy`]s
//!   (target-utilization, queue-depth, SLAM-style SLO-aware), graceful
//!   drains and seeded failure injection. [`FaasSim`] and
//!   [`ClusterSim`] are shells that run a fixed fleet on it (one host
//!   under [`cluster::SingleHost`], or N hosts under the caller's
//!   router) and project its result.
//!
//! The **scenario front door** ([`scenario`]) sits above all four:
//! a declarative, serializable [`Scenario`] spec names a workload, a
//! topology, backends, a router, a policy and SLOs, and
//! [`SweepSpec::run`] runs it (or a grid of it) on the fleet engine —
//! every layer
//! gains a `from_scenario` constructor and every experiment becomes a
//! data change.
//!
//! Also provides the 1:1 microVM cold-start model for the Figure-11
//! comparison.

pub(crate) mod backend;
pub mod cluster;
pub mod config;
pub(crate) mod feed;
pub mod fleet;
pub mod hybrid;
pub mod metrics;
pub mod microvm;
pub mod scenario;
pub mod sim;

pub use cluster::{
    ClusterConfig, ClusterResult, ClusterSim, HostLoad, LeastLoaded, PowerOfTwoChoices, RoundRobin,
    Router, RouterKind, SingleHost, TenantTrace, WarmAffinity, LATENCY_RESERVOIR_CAP,
};
pub use config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
pub use fleet::{
    default_slos, AutoscaleOpts, AutoscalePolicy, FailureConfig, FixedFleet, FleetConfig,
    FleetResult, FleetSim, FleetView, HostOutcome, HostState, LatencyObs, PolicyKind, QueueDepth,
    ScaleDecision, SlamSlo, TargetUtilization,
};
pub use hybrid::{absorb_burst, BurstOutcome, ScaleStrategy};
pub use metrics::{FuncMetrics, ReclaimTotals, SimResult};
pub use microvm::{microvm_cold_start, n_to_one_cold_start, ColdStartBreakdown};
pub use scenario::{
    compare_results, render_verdicts, AxisValues, CompareReport, ExpectKind, ExpectVerdict,
    Expectation, FleetStats, GridOutcome, MetricDiff, Scenario, ScenarioOutcome, ScenarioResult,
    SweepAxis, SweepCell, SweepSpec, Topology, WorkloadSpec,
};
pub use sim::FaasSim;
