//! The multi-host cluster: N hosts with a fixed host set, a pluggable
//! [`Router`] and the tenant traces it spreads over them.
//!
//! The router assigns each arriving request to a host at pop time, so
//! dynamic policies (least-loaded, warm-affinity) see real-time load,
//! not a static partition of the trace. A `cluster(n)` scenario runs
//! as a frozen fleet ([`FleetConfig::fixed`], no autoscaling, no
//! failures) built by
//! [`Scenario::fleet_plan`](crate::scenario::Scenario::fleet_plan).
//! [`ClusterSim`] is a shell that runs a hand-built [`ClusterConfig`]
//! the same way on [`crate::FleetSim`] and projects the
//! [`crate::FleetResult`] onto a [`ClusterResult`]; it remains for the
//! benchmark harness, the figure modules that hand-build one host
//! (run under the [`SingleHost`] router) and the tests.

mod router;

pub use router::{
    HostLoad, LeastLoaded, PowerOfTwoChoices, RoundRobin, Router, RouterKind, SingleHost,
    WarmAffinity,
};

use sim_core::Reservoir;
use vmm::VmmError;

use crate::config::SimConfig;
use crate::fleet::{FixedFleet, FleetConfig, FleetResult, FleetSim};
use crate::metrics::{self, SimResult};

/// One tenant's invocation trace, addressed to a deployment slot every
/// host exposes.
#[derive(Clone, Debug)]
pub struct TenantTrace {
    /// VM index of the tenant's deployment on each host.
    pub vm: usize,
    /// Deployment index within that VM.
    pub dep: usize,
    /// Sorted arrival times in seconds.
    pub arrivals: Vec<f64>,
}

/// A cluster: per-host simulation configs plus the tenant traces the
/// router spreads over them.
///
/// Every host must expose each tenant's `(vm, dep)` deployment slot.
/// Hosts share `duration_s`. A hand-built single host is a one-host
/// cluster run with the [`SingleHost`] router.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-host simulation configs.
    pub hosts: Vec<SimConfig>,
    /// The tenant traces routed across the hosts.
    pub tenants: Vec<TenantTrace>,
}

impl ClusterConfig {
    /// The hosts and tenant traces of a `cluster(n)` scenario: a view
    /// of [`Scenario::fleet_plan`](crate::scenario::Scenario::fleet_plan),
    /// the one builder every spec-driven run goes through. It is kept
    /// for the benchmark harness, which boots a [`ClusterSim`] itself.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's topology is not `cluster(n)`.
    pub fn from_scenario(
        spec: &crate::scenario::Scenario,
        backend: crate::config::BackendKind,
        trial: u64,
    ) -> ClusterConfig {
        assert!(
            matches!(spec.topology, crate::scenario::Topology::Cluster(_)),
            "ClusterConfig::from_scenario needs a cluster(n) topology, got {}",
            spec.topology.key()
        );
        let fleet = spec.fleet_plan(backend, trial).config;
        ClusterConfig {
            hosts: fleet.initial_hosts,
            tenants: fleet.tenants,
        }
    }

    /// The frozen fleet this cluster runs as; the fleet's reservoir
    /// stream derives from the first host's seed.
    pub(crate) fn into_fixed_fleet(self) -> FleetConfig {
        assert!(!self.hosts.is_empty(), "a cluster needs at least one host");
        let seed = self.hosts[0].seed;
        FleetConfig::fixed(self, seed)
    }
}

/// Retained capacity of the cluster/fleet time-resolved latency
/// reservoirs: enough for windowed means over any run length, constant
/// memory no matter how many requests complete.
pub const LATENCY_RESERVOIR_CAP: usize = 4096;

/// Everything a cluster run produces.
pub struct ClusterResult {
    /// Per-host simulation results, in host order.
    pub hosts: Vec<SimResult>,
    /// Requests routed to `[host][tenant]`.
    pub routed: Vec<Vec<u64>>,
    /// Total requests completed across the cluster.
    pub completed: u64,
    /// Bounded uniform sample of `(arrival_s, latency_ms)` across the
    /// whole cluster — time-resolved latency for long runs without
    /// per-request memory (see [`LATENCY_RESERVOIR_CAP`]).
    pub latency_over_time: Reservoir,
    /// Total events the shared engine processed — queue pops plus fed
    /// arrivals (the events/sec numerator of `repro perf`).
    pub events_processed: u64,
    /// High-water mark of the shared event queue.
    pub peak_queue_depth: usize,
    /// Arrivals the feed injected (the offered load actually replayed,
    /// whether from materialized traces or a streamed file).
    pub injected: u64,
}

impl ClusterResult {
    /// Projects a fixed fleet's result onto the cluster's fields.
    pub(crate) fn from_fleet(fleet: FleetResult) -> ClusterResult {
        ClusterResult {
            hosts: fleet.hosts.into_iter().map(|h| h.result).collect(),
            routed: fleet.routed,
            completed: fleet.completed,
            latency_over_time: fleet.latency_over_time,
            events_processed: fleet.events_processed,
            peak_queue_depth: fleet.peak_queue_depth,
            injected: fleet.injected,
        }
    }

    /// Cluster-wide cold and warm start counts.
    pub fn cold_warm_starts(&self) -> (u64, u64) {
        metrics::cold_warm_starts(&self.hosts)
    }

    /// Integrated host memory footprint across the cluster (GiB·s).
    pub fn total_gib_seconds(&self) -> f64 {
        metrics::total_gib_seconds(&self.hosts)
    }

    /// Requests routed per host (imbalance diagnostics).
    pub fn routed_per_host(&self) -> Vec<u64> {
        self.routed
            .iter()
            .map(|per_tenant| per_tenant.iter().sum())
            .collect()
    }
}

/// The multi-host FaaS cluster simulator: a fixed fleet under a
/// caller-chosen router.
pub struct ClusterSim {
    fleet: FleetSim,
}

impl ClusterSim {
    /// Boots every host and takes the tenant traces into a lazy feed
    /// (tenant-ordered); only the per-host sample chains enter the
    /// queue up front.
    pub fn new(config: ClusterConfig, router: Box<dyn Router>) -> Result<ClusterSim, VmmError> {
        let fleet = FleetSim::new(config.into_fixed_fleet(), router, Box::new(FixedFleet))?;
        Ok(ClusterSim { fleet })
    }

    /// Runs the cluster to completion.
    pub fn run(self) -> ClusterResult {
        ClusterResult::from_fleet(self.fleet.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, Deployment, HarvestConfig, VmSpec};
    use workloads::FunctionKind;

    fn host_cfg(backend: BackendKind, tenants: usize, seed: u64) -> SimConfig {
        SimConfig {
            backend,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: (0..tenants)
                    .map(|_| Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                    })
                    .collect(),
                vcpus: Some(2.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 20.0,
            duration_s: 60.0,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial: 0,
        }
    }

    fn two_host_cluster(router: Box<dyn Router>) -> ClusterResult {
        let config = ClusterConfig {
            hosts: vec![
                host_cfg(BackendKind::Squeezy, 2, 1),
                host_cfg(BackendKind::Squeezy, 2, 2),
            ],
            tenants: vec![
                TenantTrace {
                    vm: 0,
                    dep: 0,
                    arrivals: vec![1.0, 1.1, 1.2, 1.3, 20.0, 20.1],
                },
                TenantTrace {
                    vm: 0,
                    dep: 1,
                    arrivals: vec![2.0, 2.1, 30.0],
                },
            ],
        };
        ClusterSim::new(config, router).expect("boot").run()
    }

    #[test]
    fn round_robin_spreads_over_hosts() {
        let result = two_host_cluster(Box::new(RoundRobin::default()));
        assert_eq!(result.completed, 9, "every request served");
        let per_host = result.routed_per_host();
        assert_eq!(per_host, vec![5, 4], "alternating assignment");
    }

    #[test]
    fn single_host_router_leaves_other_hosts_idle() {
        let result = two_host_cluster(Box::new(SingleHost));
        assert_eq!(result.completed, 9);
        assert_eq!(result.routed_per_host()[1], 0);
        assert_eq!(result.hosts[1].completed, 0);
    }

    #[test]
    fn warm_affinity_reuses_warm_instances_more() {
        let warm = two_host_cluster(Box::new(WarmAffinity));
        let rr = two_host_cluster(Box::new(RoundRobin::default()));
        assert_eq!(warm.completed, rr.completed);
        let (_, warm_hits) = warm.cold_warm_starts();
        let (_, rr_hits) = rr.cold_warm_starts();
        assert!(
            warm_hits >= rr_hits,
            "affinity warm hits {warm_hits} ≥ round-robin {rr_hits}"
        );
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let a = two_host_cluster(Box::new(LeastLoaded));
        let b = two_host_cluster(Box::new(LeastLoaded));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.routed, b.routed);
        let da: Vec<u64> = a.hosts.iter().map(SimResult::digest).collect();
        let db: Vec<u64> = b.hosts.iter().map(SimResult::digest).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn latency_reservoir_sees_every_completion() {
        let result = two_host_cluster(Box::new(RoundRobin::default()));
        assert_eq!(result.latency_over_time.seen(), result.completed);
        assert_eq!(result.latency_over_time.len() as u64, result.completed);
        assert!(result
            .latency_over_time
            .points()
            .iter()
            .all(|&(t, l)| t >= 0.0 && l > 0.0));
    }
}
