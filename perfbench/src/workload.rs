//! The three benchmark workloads, each a [`Scenario`] spec run through
//! the simulator's public front door, and the timed set-up and run of
//! one.
//!
//! Why these three (NOTES.md has the full layer map):
//!
//! * `warm-cluster` — 32 Squeezy hosts under a round-robin Poisson
//!   stream whose per-host gaps sit far inside keep-alive: the event
//!   queue, router and warm dispatch dominate, reclaim is bypassed until
//!   the run ends, and booting 32 hosts dominates set-up and memory.
//! * `trace-fleet` — a 4-hour prefix of the committed Azure-like trace
//!   streamed through a frozen 4-host Squeezy fleet: the trace parser
//!   feeds the engine and partition plug/unplug (bulk guest-mm work) is
//!   the hot path.
//! * `churn-virtio` — sparse Poisson churn on 2 vanilla virtio-mem hosts
//!   with a short keep-alive: every reclaim migrates pages, so per-page
//!   guest-mm migration work dominates.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use faas::{
    BackendKind, ClusterConfig, ClusterSim, FleetConfig, FleetSim, HostLoad, PolicyKind,
    ReclaimTotals, Router, RouterKind, Scenario, SimResult, Topology, WorkloadSpec,
};
use sim_core::{Fnv1a, Histogram, Reservoir, SimDuration};
use workloads::{Arrival, FunctionKind, TraceError, TraceSource, WorkloadKind};

/// The committed trace `trace-fleet` replays a prefix of, relative to
/// the repository root (the working directory `run.py` gives the
/// binary).
pub const TRACE_PATH: &str = "examples/traces/azure_3day.csv";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmCluster,
    TraceFleet,
    ChurnVirtio,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmCluster,
        Workload::TraceFleet,
        Workload::ChurnVirtio,
    ];

    pub fn key(self) -> &'static str {
        match self {
            Workload::WarmCluster => "warm-cluster",
            Workload::TraceFleet => "trace-fleet",
            Workload::ChurnVirtio => "churn-virtio",
        }
    }

    pub fn from_key(key: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.key() == key)
            .ok_or_else(|| {
                let valid: Vec<_> = Workload::ALL.iter().map(|w| w.key()).collect();
                format!("unknown workload {key:?} (valid: {})", valid.join(", "))
            })
    }

    /// The workload's spec, with every random stream derived from
    /// `seed`. `tiny` shrinks the host count and simulated duration for
    /// the benchmark's own smoke test; the shape stays the same.
    pub fn scenario(self, seed: u64, tiny: bool) -> Scenario {
        let mut s = match self {
            Workload::WarmCluster => {
                // One Html tenant at 5 requests/s per host: each host's
                // two instances stay warm for the whole run.
                let hosts = if tiny { 2 } else { 32 };
                let mut s =
                    Scenario::new(self.key(), Topology::Cluster(hosts), WorkloadKind::Churn);
                s.params.tenants = 1;
                s.params.rps = 5.0 * hosts as f64;
                s.params.duration_s = if tiny { 300.0 } else { 5000.0 };
                s.keepalive_s = 60.0;
                s.host_capacity = 16 * mem_types::GIB;
                s.router = RouterKind::RoundRobin;
                s
            }
            Workload::TraceFleet => {
                let mut s = Scenario::new(
                    self.key(),
                    Topology::Fleet,
                    WorkloadSpec::Trace(TRACE_PATH.to_string()),
                );
                let hosts = if tiny { 2 } else { 4 };
                s.params.duration_s = if tiny { 1800.0 } else { 4.0 * 3600.0 };
                s.concurrency = 8;
                s.keepalive_s = 60.0;
                s.host_capacity = 16 * mem_types::GIB;
                s.router = RouterKind::RoundRobin;
                s.policy = PolicyKind::Fixed;
                s.min_hosts = hosts;
                s.max_hosts = hosts;
                s
            }
            Workload::ChurnVirtio => {
                // The committed churn_cluster.scn shape on vanilla
                // virtio-mem, long enough for 1,000+ requests.
                let mut s = Scenario::new(self.key(), Topology::Cluster(2), WorkloadKind::Churn);
                s.params.tenants = 6;
                s.params.rps = if tiny { 12.0 } else { 3.0 };
                s.params.duration_s = if tiny { 120.0 } else { 600.0 };
                s.keepalive_s = 10.0;
                s.host_capacity = 5 * mem_types::GIB;
                s.router = RouterKind::LeastLoaded;
                s.backends = vec![BackendKind::VirtioMem];
                s
            }
        };
        s.seed = seed;
        s.validate().expect("benchmark specs are valid");
        s
    }
}

/// Counters a [`TimedRouter`] or [`TimedSource`] shares with the
/// harness: calls made and host nanoseconds spent inside them.
#[derive(Clone, Default)]
pub struct CallTimer {
    calls: Rc<Cell<u64>>,
    ns: Rc<Cell<u64>>,
}

impl CallTimer {
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// Times every call the engine makes into the wrapped router.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    timer: CallTimer,
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_loads(&self) -> bool {
        self.inner.needs_loads()
    }

    fn route(&mut self, tenant: usize, hosts: &[HostLoad]) -> usize {
        let inner = &mut self.inner;
        self.timer.time(|| inner.route(tenant, hosts))
    }
}

/// Times every arrival the engine pulls from the wrapped trace source.
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    timer: CallTimer,
}

impl TraceSource for TimedSource {
    fn kinds(&self) -> &[FunctionKind] {
        self.inner.kinds()
    }

    fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
        let inner = &mut self.inner;
        self.timer.time(|| inner.next_arrival())
    }
}

/// Timers a traced run installs (absent on untraced runs).
#[derive(Clone, Default)]
pub struct Tracing {
    pub router: CallTimer,
    pub source: CallTimer,
}

/// A booted simulator, ready to run.
enum Sim {
    Cluster(Box<ClusterSim>),
    Fleet(Box<FleetSim>),
}

/// The result of the timed set-up phase.
pub struct Setup {
    sim: Sim,
    /// Arrivals within the horizon, counted by the harness from the
    /// inputs, independently of the engine.
    offered: u64,
    pub setup_s: f64,
}

/// Generates the inputs and boots every host, up to `run()`. The timed
/// phase covers input generation (or opening the trace) and boot; the
/// harness's own count of the offered load does not.
pub fn setup(spec: &Scenario, tracing: Option<&Tracing>) -> Setup {
    let backend = spec.backends[0];
    let trial = 0;
    let mut router = spec.router.build(spec.router_seed(trial));
    if let Some(t) = tracing {
        router = Box::new(TimedRouter {
            inner: router,
            timer: t.router.clone(),
        });
    }
    match &spec.workload {
        WorkloadSpec::Named(_) => {
            let t0 = Instant::now();
            let cfg = ClusterConfig::from_scenario(spec, backend, trial);
            let generate_s = t0.elapsed().as_secs_f64();
            let duration_s = spec.params.duration_s;
            let offered = cfg
                .tenants
                .iter()
                .map(|t| t.arrivals.iter().filter(|&&a| a < duration_s).count() as u64)
                .sum();
            let t0 = Instant::now();
            let sim = ClusterSim::new(cfg, router).expect("benchmark hosts boot");
            Setup {
                sim: Sim::Cluster(Box::new(sim)),
                offered,
                setup_s: generate_s + t0.elapsed().as_secs_f64(),
            }
        }
        WorkloadSpec::Trace(path) => {
            // The seed also picks the trace's within-minute jitter.
            let offered = count_arrivals(path, spec.seed, spec.params.duration_s);
            let t0 = Instant::now();
            let cfg = FleetConfig::from_scenario(spec, backend, trial);
            let mut source = workloads::open_trace(path, spec.seed).expect("committed trace opens");
            if let Some(t) = tracing {
                source = Box::new(TimedSource {
                    inner: source,
                    timer: t.source.clone(),
                });
            }
            let sim = FleetSim::with_source(cfg, router, spec.policy.build(), source, path)
                .expect("benchmark fleet boots");
            Setup {
                sim: Sim::Fleet(Box::new(sim)),
                offered,
                setup_s: t0.elapsed().as_secs_f64(),
            }
        }
    }
}

/// What one timed set-up and run produced, reduced to the fields both
/// simulators share.
pub struct Outcome {
    pub hosts: usize,
    pub setup_s: f64,
    pub run_s: f64,
    pub offered: u64,
    pub injected: u64,
    pub routed: u64,
    pub completed: u64,
    pub lost: u64,
    pub events: u64,
    pub peak_queue_depth: usize,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub gib_seconds: f64,
    pub reclaims: ReclaimTotals,
    /// All functions' latencies merged (capped per host and function
    /// at [`faas::LATENCY_RESERVOIR_CAP`] on streamed runs).
    pub latency: Histogram,
    /// Whether `latency` holds capped reservoirs rather than every
    /// request.
    pub latency_capped: bool,
    pub digest: u64,
}

/// Runs a set-up simulator to completion, timing `run()` alone.
pub fn run(setup: Setup) -> Outcome {
    let Setup {
        sim,
        offered,
        setup_s,
    } = setup;
    let t0 = Instant::now();
    match sim {
        Sim::Cluster(sim) => {
            let r = sim.run();
            let run_s = t0.elapsed().as_secs_f64();
            let hosts: Vec<&SimResult> = r.hosts.iter().collect();
            let (cold_starts, warm_starts) = r.cold_warm_starts();
            let mut o = Outcome {
                hosts: hosts.len(),
                setup_s,
                run_s,
                offered,
                injected: r.injected,
                routed: r.routed.iter().flatten().sum(),
                completed: r.completed,
                lost: 0,
                events: r.events_processed,
                peak_queue_depth: r.peak_queue_depth,
                cold_starts,
                warm_starts,
                gib_seconds: r.total_gib_seconds(),
                reclaims: total_reclaims(&hosts),
                latency: merged(&hosts),
                latency_capped: false,
                digest: 0,
            };
            o.digest = digest(&o, &hosts, &r.routed_per_host(), &r.latency_over_time, &[]);
            o
        }
        Sim::Fleet(sim) => {
            let r = sim.run();
            let run_s = t0.elapsed().as_secs_f64();
            let hosts: Vec<&SimResult> = r.hosts.iter().map(|h| &h.result).collect();
            let (cold_starts, warm_starts) = r.cold_warm_starts();
            let routed_per_host: Vec<u64> = r.routed.iter().map(|t| t.iter().sum()).collect();
            let mut o = Outcome {
                hosts: hosts.len(),
                setup_s,
                run_s,
                offered,
                injected: r.injected,
                routed: routed_per_host.iter().sum(),
                completed: r.completed,
                lost: r.lost,
                events: r.events_processed,
                peak_queue_depth: r.peak_queue_depth,
                cold_starts,
                warm_starts,
                gib_seconds: r.total_gib_seconds(),
                reclaims: total_reclaims(&hosts),
                latency: merged(&hosts),
                latency_capped: true,
                digest: 0,
            };
            let fleet = [
                r.host_hours().to_bits(),
                r.slo_violations,
                r.slo_total,
                r.scale_ups,
                r.scale_downs,
                r.crashes,
                r.requeued,
                r.lost,
                r.deferred,
            ];
            o.digest = digest(&o, &hosts, &routed_per_host, &r.latency_over_time, &fleet);
            o
        }
    }
}

/// Arrivals a trace yields before `duration_s` at jitter trial `trial`,
/// counted by draining a fresh source.
pub fn count_arrivals(path: &str, trial: u64, duration_s: f64) -> u64 {
    let horizon_ns = SimDuration::from_secs_f64(duration_s).0;
    let mut src = workloads::open_trace(path, trial).expect("committed trace opens");
    let mut n = 0;
    while let Some(a) = src.next_arrival().expect("committed trace parses") {
        if a.t_ns >= horizon_ns {
            break;
        }
        n += 1;
    }
    n
}

fn total_reclaims(hosts: &[&SimResult]) -> ReclaimTotals {
    let mut acc = ReclaimTotals::default();
    for r in hosts.iter().map(|h| h.total_reclaims()) {
        acc.bytes += r.bytes;
        acc.wall += r.wall;
        acc.ops += r.ops;
        acc.shortfalls += r.shortfalls;
        acc.pages_migrated += r.pages_migrated;
    }
    acc
}

fn merged(hosts: &[&SimResult]) -> Histogram {
    let mut all = Histogram::new();
    for h in hosts {
        for m in h.per_func.values() {
            all.merge(&m.latency);
        }
    }
    all
}

/// An FNV-1a digest over the simulated outcome, over the fields
/// `faas::ScenarioOutcome::digest` takes: counts, footprint, per-host
/// result digests, routing, the latency reservoir and the fleet
/// counters. Equal digests mean identical simulated behaviour.
fn digest(
    o: &Outcome,
    hosts: &[&SimResult],
    routed_per_host: &[u64],
    reservoir: &Reservoir,
    fleet: &[u64],
) -> u64 {
    let mut h = Fnv1a::new();
    for v in [o.offered, o.completed, o.cold_starts, o.warm_starts] {
        h.write_u64(v);
    }
    h.write_f64(o.gib_seconds);
    h.write_u64(hosts.len() as u64);
    for r in hosts {
        h.write_u64(r.digest());
    }
    for &r in routed_per_host {
        h.write_u64(r);
    }
    h.write_u64(reservoir.seen());
    for (t, v) in reservoir.sorted_points() {
        h.write_f64(t);
        h.write_f64(v);
    }
    for &v in fleet {
        h.write_u64(v);
    }
    h.finish()
}
