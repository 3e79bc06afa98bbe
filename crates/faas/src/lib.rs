//! An OpenWhisk-style FaaS runtime model over dynamically resized VMs.
//!
//! Reproduces the paper's deployment (§4.2, §5) in four explicit
//! layers:
//!
//! * **Backend layer** (`backend`, internal): the five [`BackendKind`]s
//!   run on three elasticity backends, one module per reclamation
//!   mechanism, behind one `ElasticityBackend` trait (plug/scale-up
//!   cost, reclaim-on-evict, pressure/revocation hooks): Static;
//!   virtio-mem, which with a slack buffer and proactive eviction is
//!   HarvestVM-opts; and Squeezy, which with soft marking on is
//!   Squeezy+soft.
//! * **Host layer** ([`sim`]): one host's backend-agnostic event
//!   handlers — a controller routes invocations to per-VM agents that
//!   reuse warm instances, scale up with memory plugs, keep idle
//!   instances alive and scale down with memory reclamation.
//! * **Cluster layer** ([`cluster`]): the pluggable [`Router`]s
//!   (round-robin, least-loaded, warm-affinity, power-of-two-choices)
//!   and the multi-host [`ClusterConfig`].
//! * **Fleet layer** ([`fleet`]): [`FleetSim`] is the crate's one event
//!   engine. It merges the arrival feed with one shared queue, routes
//!   requests at pop time, and runs a control plane over the hosts —
//!   host lifecycle (Booting → Active → Draining → Retired, plus
//!   injected Failed), pluggable [`AutoscalePolicy`]s
//!   (target-utilization, queue-depth, SLAM-style SLO-aware), graceful
//!   drains and seeded failure injection.
//!
//! The **scenario front door** ([`scenario`]) sits above all four:
//! a declarative, serializable [`Scenario`] spec names a workload, a
//! topology, backends, a router, a policy and SLOs, and
//! [`SweepSpec::run`] runs it (or a grid of it). Every topology takes
//! one path to the engine: [`Scenario::fleet_plan`] builds the
//! [`FleetConfig`], router and policy, [`Scenario::boot`] boots one
//! [`FleetSim`], and its one [`FleetResult`] projects onto a
//! [`ScenarioOutcome`]. Every experiment is a data change.
//!
//! [`FaasSim`] (one host) and [`ClusterSim`] (N hosts under a caller's
//! router) are shells that run a hand-built [`SimConfig`] or
//! [`ClusterConfig`] as a fixed fleet on the same engine and project
//! its result. No spec-driven path uses them: they remain for the
//! figure modules that hand-build a host config, for the benchmark
//! harness and for their tests.
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
    Expectation, FleetPlan, FleetStats, GridOutcome, MetricDiff, Scenario, ScenarioOutcome,
    ScenarioResult, SweepAxis, SweepCell, SweepSpec, Topology, WorkloadSpec,
};
pub use sim::FaasSim;
