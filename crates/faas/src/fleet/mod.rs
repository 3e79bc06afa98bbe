//! The fleet simulator: the crate's one event engine, with an elastic
//! host set.
//!
//! [`FleetSim`] merges the arrival feed with one shared [`EventQueue`]
//! and dispatches every host's events. Every scenario topology boots
//! one through
//! [`Scenario::fleet_plan`](crate::scenario::Scenario::fleet_plan) and
//! [`Scenario::boot`](crate::scenario::Scenario::boot); the
//! [`crate::FaasSim`] (one host) and [`crate::ClusterSim`] (N hosts)
//! shells run hand-built configs on it as a fixed fleet, for the figure
//! modules and the benchmark harness. On top of that data plane it
//! runs the control plane a real serverless fleet has:
//!
//! * **Host lifecycle** — every host moves through
//!   [`HostState::Booting`] → [`HostState::Active`] →
//!   [`HostState::Draining`] → [`HostState::Retired`], or is forced to
//!   [`HostState::Failed`] by injected crashes. Routers only ever see
//!   Active hosts.
//! * **Autoscaling** — an [`AutoscalePolicy`] ticks on a fixed control
//!   period and decides to grow (boot new hosts from a template config,
//!   ready after a provisioning delay) or shrink (gracefully drain).
//!   The fleet clamps decisions to `[min_hosts, max_hosts]` and
//!   enforces a cooldown, so policies only express intent.
//! * **Graceful drains** — a draining host stops receiving requests but
//!   keeps serving its queue and in-flight executions; its warm
//!   instances expire through the ordinary keep-alive path, their
//!   memory is reclaimed through the backend, and only when the host is
//!   fully quiescent does it retire. Nothing is lost on a drain.
//! * **Failure injection** — seeded crash times (see
//!   [`FailureConfig`]) kill a host outright: its queued requests are
//!   requeued to the surviving fleet (fresh arrival clocks, as a
//!   client retry would), its in-flight executions are counted lost.
//!
//! Determinism is structural: the shared queue breaks time ties FIFO,
//! arrivals are routed at pop time, and every random choice (crash
//! times, victims, power-of-two probes, reservoir replacement) draws
//! from its own derived [`DetRng`] stream. A fixed fleet
//! ([`FixedFleet`], failures off) schedules no control or crash event,
//! so its run is exactly the plain multi-host data plane.

mod failure;
mod policy;

pub use failure::FailureConfig;
pub use policy::{
    default_slos, AutoscalePolicy, FixedFleet, FleetView, LatencyObs, PolicyKind, QueueDepth,
    ScaleDecision, SlamSlo, TargetUtilization,
};

use std::collections::BTreeMap;

use sim_core::{DetRng, EventQueue, Histogram, Reservoir, SimDuration, SimTime, TimeSeries};
use vmm::VmmError;
use workloads::{FunctionKind, MaterializedSource, TenantLoad, TraceSource};

use crate::cluster::{ClusterConfig, HostLoad, Router, TenantTrace, LATENCY_RESERVOIR_CAP};
use crate::config::SimConfig;
use crate::feed::ArrivalFeed;
use crate::metrics::{self, SimResult};
use crate::sim::events::Event;
use crate::sim::host::HostSim;
use failure::FailureInjector;

/// Derivation tag of the failure injector's stream (from the fleet
/// seed).
const FAILURE_STREAM: u64 = 0xFA11;

/// Derivation tag of the latency reservoir's replacement stream (from
/// the fleet seed), distinct from every per-host jitter stream.
const RESERVOIR_STREAM: u64 = 0x5E5E;

/// Derivation tag of booted-host config seeds (from the template
/// seed).
const BOOT_STREAM: u64 = 0xB007;

/// How long an unroutable arrival waits before retrying while capacity
/// is provisioning.
const DEFER_RETRY_S: f64 = 1.0;

/// Where a host is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostState {
    /// Provisioning: booted by the autoscaler, not yet routable.
    Booting,
    /// Serving traffic.
    Active,
    /// No longer routable; finishing queued/in-flight work and letting
    /// warm instances expire before retiring.
    Draining,
    /// Drained to quiescence and removed from the fleet.
    Retired,
    /// Crashed by failure injection.
    Failed,
}

/// Fleet-wide autoscaling limits, applied to every policy decision.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleOpts {
    /// The fleet never drains below this many provisioned hosts.
    pub min_hosts: usize,
    /// The fleet never grows above this many provisioned hosts.
    pub max_hosts: usize,
    /// Provisioning delay between the boot decision and the host
    /// becoming routable, in seconds.
    pub boot_delay_s: f64,
    /// Minimum spacing between scale actions, in seconds.
    pub cooldown_s: f64,
}

impl Default for AutoscaleOpts {
    fn default() -> Self {
        AutoscaleOpts {
            min_hosts: 1,
            max_hosts: 16,
            boot_delay_s: 30.0,
            cooldown_s: 20.0,
        }
    }
}

/// A fleet: the hosts present at time zero, a template for hosts the
/// autoscaler boots later, the tenant traces, and the control-plane
/// knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Hosts active at the start of the run.
    pub initial_hosts: Vec<SimConfig>,
    /// Config cloned for every autoscaler-booted host; its jitter seed
    /// is re-derived per host so no two hosts share a stream.
    pub template: SimConfig,
    /// The tenant traces routed across the fleet. Every host (initial
    /// and template) must expose each tenant's `(vm, dep)` slot.
    pub tenants: Vec<TenantTrace>,
    /// Autoscaling limits.
    pub autoscale: AutoscaleOpts,
    /// Failure injection.
    pub failures: FailureConfig,
    /// Per-function latency targets in milliseconds (SLO accounting
    /// and the SLAM-style policy).
    pub slo: Vec<(FunctionKind, f64)>,
    /// Root seed of the fleet's own streams (failures, reservoir).
    pub seed: u64,
}

impl FleetConfig {
    /// Wraps a [`ClusterConfig`] into a frozen fleet: same hosts, same
    /// tenants, autoscaling, failures and SLO accounting off. Run with
    /// the [`FixedFleet`] policy, this is how single-vm and `cluster(n)`
    /// scenarios and the [`crate::ClusterSim`] shell run.
    pub fn fixed(cluster: ClusterConfig, seed: u64) -> FleetConfig {
        let template = cluster.hosts[0].clone();
        let n = cluster.hosts.len();
        FleetConfig {
            initial_hosts: cluster.hosts,
            template,
            tenants: cluster.tenants,
            autoscale: AutoscaleOpts {
                min_hosts: n,
                max_hosts: n,
                ..AutoscaleOpts::default()
            },
            failures: FailureConfig::off(),
            slo: Vec::new(),
            seed,
        }
    }

    /// The fleet config of a scenario: a view of
    /// [`Scenario::fleet_plan`](crate::scenario::Scenario::fleet_plan),
    /// the one builder every spec-driven run goes through. It is kept
    /// for the benchmark harness, which boots a [`FleetSim`] itself.
    pub fn from_scenario(
        spec: &crate::scenario::Scenario,
        backend: crate::config::BackendKind,
        trial: u64,
    ) -> FleetConfig {
        spec.fleet_plan(backend, trial).config
    }

    /// Instance slots per host (Σ deployment concurrency of the
    /// template) — the autoscaler's capacity unit.
    pub fn slots_per_host(&self) -> usize {
        self.template
            .vms
            .iter()
            .flat_map(|v| &v.deployments)
            .map(|d| d.concurrency as usize)
            .sum()
    }
}

/// Events of the shared fleet engine.
enum FleetEvent {
    /// A tenant request arrives and must be routed.
    Incoming { tenant: usize },
    /// A host-internal event.
    Host { host: usize, ev: Event },
    /// Autoscaler control tick.
    Control,
    /// A booting host finishes provisioning.
    HostReady { host: usize },
    /// The next injected crash fires.
    Crash,
}

/// Where one host's handlers schedule future events: the sink tags
/// each event with its host and schedules it on the one shared queue,
/// so a host's scheduling order is the queue's FIFO tie-break order.
pub(crate) struct HostSink<'a> {
    q: &'a mut EventQueue<FleetEvent>,
    host: usize,
    /// The host's first CPU-timer key (see [`Slot::cpu_timers`]).
    cpu_timers: usize,
}

impl HostSink<'_> {
    /// Schedules `ev` at absolute time `at`.
    pub(crate) fn push(&mut self, at: SimTime, ev: Event) {
        self.q.push(
            at,
            FleetEvent::Host {
                host: self.host,
                ev,
            },
        );
    }

    /// Schedules `ev` one fixed `delay` after the handler's `now`.
    pub(crate) fn push_after(&mut self, now: SimTime, delay: SimDuration, ev: Event) {
        self.q.push_after(
            now,
            delay,
            FleetEvent::Host {
                host: self.host,
                ev,
            },
        );
    }

    /// Arms VM `vm`'s one CPU-completion timer at `at`, replacing its
    /// pending prediction; `None` disarms it.
    pub(crate) fn set_cpu_timer(&mut self, vm: usize, at: Option<SimTime>) {
        let ev = FleetEvent::Host {
            host: self.host,
            ev: Event::CpuDone { vm },
        };
        self.q.set_timer(self.cpu_timers + vm, at, ev);
    }
}

/// One host's slot in the fleet.
struct Slot {
    sim: HostSim,
    /// First of the host's queue timer keys, one per VM: VM `v`'s CPU
    /// completion timer is key `cpu_timers + v`.
    cpu_timers: usize,
    state: HostState,
    boot_at: SimTime,
    stop_at: Option<SimTime>,
}

impl Slot {
    /// A slot for `sim`, with its CPU timer keys reserved in `events`.
    fn new(
        sim: HostSim,
        events: &mut EventQueue<FleetEvent>,
        state: HostState,
        boot_at: SimTime,
    ) -> Slot {
        Slot {
            cpu_timers: events.timer_keys(sim.config.vms.len()),
            sim,
            state,
            boot_at,
            stop_at: None,
        }
    }

    /// Still processes its own events (Booting hosts have none yet).
    fn is_live(&self) -> bool {
        matches!(
            self.state,
            HostState::Booting | HostState::Active | HostState::Draining
        )
    }
}

/// One host's contribution to the fleet outcome.
pub struct HostOutcome {
    /// The host's simulation results.
    pub result: SimResult,
    /// Lifecycle state at the end of the run.
    pub final_state: HostState,
    /// When the host started provisioning, in seconds.
    pub boot_s: f64,
    /// When it retired/failed — or the end of the run if it never did.
    pub stop_s: f64,
}

/// Everything a fleet run produces.
pub struct FleetResult {
    /// Every host that ever existed, in boot order.
    pub hosts: Vec<HostOutcome>,
    /// Requests routed to `[host][tenant]`.
    pub routed: Vec<Vec<u64>>,
    /// Total requests completed across the fleet.
    pub completed: u64,
    /// Hosts booted by the autoscaler.
    pub scale_ups: u64,
    /// Hosts gracefully drained by the autoscaler.
    pub scale_downs: u64,
    /// Hosts killed by failure injection.
    pub crashes: u64,
    /// Queued requests re-routed off crashed hosts.
    pub requeued: u64,
    /// In-flight executions lost to crashes (plus arrivals dropped
    /// when no host could ever serve them).
    pub lost: u64,
    /// Deferral retries: how many times an arrival found no routable
    /// host and parked for a retry interval while capacity was
    /// provisioning (one request can defer repeatedly).
    pub deferred: u64,
    /// Completions that breached their function's SLO target.
    pub slo_violations: u64,
    /// Completions with an SLO target (the violation denominator).
    pub slo_total: u64,
    /// Bounded uniform sample of `(arrival_s, latency_ms)` across the
    /// fleet (see [`LATENCY_RESERVOIR_CAP`]).
    pub latency_over_time: Reservoir,
    /// Active (routable) host count over time.
    pub active_hosts_over_time: TimeSeries,
    /// Total events handled: queue pops plus fed arrivals.
    pub events_processed: u64,
    /// High-water mark of the pending event queue — with arrivals fed
    /// lazily this tracks O(in-flight work), not O(trace length).
    pub peak_queue_depth: usize,
    /// Arrivals injected from the feed (trace or materialized).
    pub injected: u64,
    /// Simulated end time.
    pub end: SimTime,
}

impl FleetResult {
    /// Integrated provisioned-host time in host-hours — the fleet cost
    /// metric ("Squeezy needs fewer hosts for the same SLO").
    pub fn host_hours(&self) -> f64 {
        self.hosts
            .iter()
            .map(|h| (h.stop_s - h.boot_s).max(0.0))
            .sum::<f64>()
            / 3600.0
    }

    /// Largest number of simultaneously active hosts.
    pub fn peak_active(&self) -> usize {
        self.active_hosts_over_time.max_value() as usize
    }

    /// Smallest number of simultaneously active hosts.
    pub fn min_active(&self) -> usize {
        self.active_hosts_over_time
            .points()
            .iter()
            .map(|&(_, v)| v as usize)
            .min()
            .unwrap_or(0)
    }

    /// Fraction of SLO-tracked completions that breached their target.
    pub fn slo_violation_rate(&self) -> f64 {
        self.slo_violations as f64 / self.slo_total.max(1) as f64
    }

    /// Fleet-wide request-latency histograms, merged per function.
    pub fn merged_latency(&self) -> BTreeMap<FunctionKind, Histogram> {
        metrics::merged_latency(self.hosts.iter().map(|h| &h.result))
    }

    /// Fleet-wide cold and warm start counts.
    pub fn cold_warm_starts(&self) -> (u64, u64) {
        metrics::cold_warm_starts(self.hosts.iter().map(|h| &h.result))
    }

    /// Integrated host memory footprint across the fleet (GiB·s).
    pub fn total_gib_seconds(&self) -> f64 {
        metrics::total_gib_seconds(self.hosts.iter().map(|h| &h.result))
    }
}

/// The elastic multi-host fleet simulator.
pub struct FleetSim {
    duration_s: f64,
    template: SimConfig,
    tenants: Vec<TenantTrace>,
    /// `(vm, dep)` deployment slot → tenant index (crash requeueing),
    /// flattened to direct indexing; `usize::MAX` marks unmapped slots.
    tenant_of_slot: Vec<Vec<usize>>,
    router: Box<dyn Router>,
    /// Cached [`Router::needs_loads`]: load-blind routers skip the
    /// per-arrival snapshot sweep entirely.
    router_needs_loads: bool,
    /// Indices of the Active hosts in ascending order: the routable
    /// set, kept in step with every lifecycle transition so routing
    /// never sweeps the whole fleet.
    active: Vec<usize>,
    /// Per-arrival routing scratch (reused, never reallocated in
    /// steady state). Load-blind routers only see its length, so its
    /// placeholder entries are resized only when `active` changes size.
    route_loads: Vec<HostLoad>,
    policy: Box<dyn AutoscalePolicy>,
    /// Cached `policy.period_s().is_some()`: whether the control loop
    /// runs at all.
    control_loop: bool,
    opts: AutoscaleOpts,
    slo: Vec<(FunctionKind, f64)>,
    slots_per_host: usize,
    hosts: Vec<Slot>,
    events: EventQueue<FleetEvent>,
    feed: ArrivalFeed,
    /// Streamed-trace runs bound their metric memory; booted hosts
    /// must inherit the discipline.
    bounded_metrics: bool,
    routed: Vec<Vec<u64>>,
    injector: FailureInjector,
    /// Completions since the last control tick (policy window);
    /// only fed when the control loop is on.
    recent_window: Vec<LatencyObs>,
    last_action_at: Option<SimTime>,
    latency_over_time: Reservoir,
    active_hosts_over_time: TimeSeries,
    scale_ups: u64,
    scale_downs: u64,
    crashes: u64,
    requeued: u64,
    lost: u64,
    deferred: u64,
    slo_violations: u64,
    slo_total: u64,
}

impl FleetSim {
    /// Boots the initial hosts and takes the tenant traces into a lazy
    /// feed (tenant-ordered); one sample chain per host, the control
    /// loop (if the policy has one) and the crash plan enter the queue
    /// up front.
    ///
    /// # Panics
    ///
    /// Panics if the first initial host lacks a tenant's `(vm, dep)`
    /// slot, which [`FleetConfig::tenants`] requires every host to
    /// expose.
    pub fn new(
        mut config: FleetConfig,
        router: Box<dyn Router>,
        policy: Box<dyn AutoscalePolicy>,
    ) -> Result<FleetSim, VmmError> {
        let duration_s = Self::check(&config);
        let vms = &config.initial_hosts[0].vms;
        let loads: Vec<TenantLoad> = config
            .tenants
            .iter_mut()
            .map(|t| TenantLoad {
                kind: vms[t.vm].deployments[t.dep].kind,
                // The horizon cut in seconds, as the arrival lists are
                // written: `injected` counts exactly the `a < duration_s`
                // arrivals.
                arrivals: std::mem::take(&mut t.arrivals)
                    .into_iter()
                    .filter(|&a| a < duration_s)
                    .collect(),
            })
            .collect();
        let feed = ArrivalFeed::new(
            Box::new(MaterializedSource::new(loads)),
            duration_s,
            "materialized arrivals",
        );
        Self::build(config, router, policy, feed, false)
    }

    /// Builds a fleet whose arrivals stream from a [`TraceSource`]:
    /// tenant index = the source's tenant column, mapped through
    /// [`FleetConfig::tenants`] for `(vm, dep)` slots. The source is
    /// pulled lazily during [`Self::run`], so queue depth — and with it
    /// memory — stays proportional to in-flight work, never to trace
    /// length. Per-host metrics run in bounded mode (reservoir
    /// histograms, streamed usage integral), booted hosts included.
    ///
    /// `origin` labels mid-run parse failures (the path, usually).
    pub fn with_source(
        mut config: FleetConfig,
        router: Box<dyn Router>,
        policy: Box<dyn AutoscalePolicy>,
        source: Box<dyn TraceSource>,
        origin: &str,
    ) -> Result<FleetSim, VmmError> {
        let duration_s = Self::check(&config);
        for t in config.tenants.iter_mut() {
            t.arrivals.clear();
        }
        let feed = ArrivalFeed::new(source, duration_s, origin);
        Self::build(config, router, policy, feed, true)
    }

    fn check(config: &FleetConfig) -> f64 {
        assert!(
            !config.initial_hosts.is_empty(),
            "a fleet needs at least one initial host"
        );
        assert!(config.autoscale.min_hosts >= 1, "min_hosts must be ≥ 1");
        assert!(
            config.autoscale.max_hosts >= config.autoscale.min_hosts,
            "max_hosts must be ≥ min_hosts"
        );
        config.initial_hosts[0].duration_s
    }

    fn build(
        config: FleetConfig,
        router: Box<dyn Router>,
        policy: Box<dyn AutoscalePolicy>,
        feed: ArrivalFeed,
        bounded_metrics: bool,
    ) -> Result<FleetSim, VmmError> {
        let duration_s = config.initial_hosts[0].duration_s;
        let slots_per_host = config.slots_per_host().max(1);
        let reservoir_rng = DetRng::new(config.seed).derive(RESERVOIR_STREAM);
        let mut injector = FailureInjector::new(DetRng::new(config.seed).derive(FAILURE_STREAM));

        let mut events = EventQueue::new();
        let mut hosts = Vec::new();
        for cfg in config.initial_hosts {
            let mut sim = HostSim::new(cfg)?;
            if bounded_metrics {
                sim.enable_bounded_metrics();
            }
            hosts.push(Slot::new(
                sim,
                &mut events,
                HostState::Active,
                SimTime::ZERO,
            ));
        }

        for host in 0..hosts.len() {
            events.push(
                SimTime::ZERO,
                FleetEvent::Host {
                    host,
                    ev: Event::Sample,
                },
            );
        }
        if let Some(period) = policy.period_s() {
            assert!(period > 0.0, "control period must be positive");
            if period <= duration_s {
                events.push_after(
                    SimTime::ZERO,
                    SimDuration::from_secs_f64(period),
                    FleetEvent::Control,
                );
            }
        }
        for t in injector.sample_times(&config.failures, duration_s) {
            events.push(
                SimTime::ZERO + SimDuration::from_secs_f64(t),
                FleetEvent::Crash,
            );
        }

        let mut tenant_of_slot: Vec<Vec<usize>> = Vec::new();
        for (ti, t) in config.tenants.iter().enumerate() {
            if tenant_of_slot.len() <= t.vm {
                tenant_of_slot.resize(t.vm + 1, Vec::new());
            }
            if tenant_of_slot[t.vm].len() <= t.dep {
                tenant_of_slot[t.vm].resize(t.dep + 1, usize::MAX);
            }
            tenant_of_slot[t.vm][t.dep] = ti;
        }
        let routed = vec![vec![0; config.tenants.len()]; hosts.len()];
        let mut active_hosts_over_time = TimeSeries::new();
        active_hosts_over_time.push(SimTime::ZERO, hosts.len() as f64);
        Ok(FleetSim {
            duration_s,
            template: config.template,
            tenants: config.tenants,
            tenant_of_slot,
            router_needs_loads: router.needs_loads(),
            router,
            active: (0..hosts.len()).collect(),
            route_loads: Vec::new(),
            control_loop: policy.period_s().is_some(),
            policy,
            opts: config.autoscale,
            slo: config.slo,
            slots_per_host,
            hosts,
            events,
            feed,
            bounded_metrics,
            routed,
            injector,
            recent_window: Vec::new(),
            last_action_at: None,
            latency_over_time: Reservoir::new(LATENCY_RESERVOIR_CAP, reservoir_rng),
            active_hosts_over_time,
            scale_ups: 0,
            scale_downs: 0,
            crashes: 0,
            requeued: 0,
            lost: 0,
            deferred: 0,
            slo_violations: 0,
            slo_total: 0,
        })
    }

    /// Runs the fleet to completion.
    pub fn run(mut self) -> FleetResult {
        // Two-stream merge: arrivals are pulled from the feed the
        // moment they are due (ties go to the arrival — fed arrivals
        // always sorted before same-tick queue events in the pre-push
        // era, whose total order this loop reproduces byte-for-byte),
        // everything else pops from the queue one event at a time in
        // (time, seq) order. Deferral retries and crash requeues still
        // travel as queued [`FleetEvent::Incoming`] events.
        loop {
            let due = match self.feed.peek() {
                Some((at, _)) => self.events.pop_before(at),
                None => self.events.pop(),
            };
            match due {
                Some((now, ev)) => self.on_event(now, ev),
                None => match self.feed.pop() {
                    Some((at, tenant)) => self.on_incoming(at, tenant),
                    None => break,
                },
            }
        }
        let injected = self.feed.injected();
        let events_processed = self.events.processed() + injected;
        let peak_queue_depth = self.events.peak_len();
        let end = SimTime::ZERO + SimDuration::from_secs_f64(self.duration_s);
        let hosts: Vec<HostOutcome> = self
            .hosts
            .into_iter()
            .map(|slot| HostOutcome {
                final_state: slot.state,
                boot_s: slot.boot_at.as_secs_f64(),
                stop_s: slot
                    .stop_at
                    .map(|t| t.as_secs_f64())
                    .unwrap_or(self.duration_s),
                result: slot.sim.finish(),
            })
            .collect();
        let completed = hosts.iter().map(|h| h.result.completed).sum();
        FleetResult {
            hosts,
            routed: self.routed,
            completed,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            crashes: self.crashes,
            requeued: self.requeued,
            lost: self.lost,
            deferred: self.deferred,
            slo_violations: self.slo_violations,
            slo_total: self.slo_total,
            latency_over_time: self.latency_over_time,
            active_hosts_over_time: self.active_hosts_over_time,
            events_processed,
            peak_queue_depth,
            injected,
            end,
        }
    }

    // --- Data plane --------------------------------------------------------

    fn on_event(&mut self, now: SimTime, ev: FleetEvent) {
        match ev {
            FleetEvent::Incoming { tenant } => self.on_incoming(now, tenant),
            FleetEvent::Host { host, ev } => {
                // Retired and failed hosts are gone: their residual
                // events (keep-alives, sample chains) evaporate.
                if self.hosts[host].is_live() {
                    self.dispatch(now, host, ev);
                    self.drain_tap(host);
                    self.maybe_retire(now, host);
                }
            }
            FleetEvent::Control => self.on_control(now),
            FleetEvent::HostReady { host } => self.on_host_ready(now, host),
            FleetEvent::Crash => self.on_crash(now),
        }
    }

    /// Hands `ev` to host `host`, with a sink into the shared queue.
    fn dispatch(&mut self, now: SimTime, host: usize, ev: Event) {
        let slot = &mut self.hosts[host];
        let mut sink = HostSink {
            q: &mut self.events,
            host,
            cpu_timers: slot.cpu_timers,
        };
        slot.sim.handle(now, ev, &mut sink);
    }

    fn on_incoming(&mut self, now: SimTime, tenant: usize) {
        debug_assert!(
            self.active.iter().copied().eq(self
                .hosts
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state == HostState::Active)
                .map(|(i, _)| i)),
            "active-host index out of step with host states"
        );
        if self.active.is_empty() {
            // No routable host. If capacity is provisioning — or the
            // control loop is still alive to provision some — park the
            // request briefly; otherwise it is genuinely unservable.
            let provisioning = self.hosts.iter().any(|s| s.state == HostState::Booting);
            let loop_alive = self.control_loop && now.as_secs_f64() < self.duration_s;
            if provisioning || loop_alive {
                self.deferred += 1;
                self.events.push_after(
                    now,
                    SimDuration::from_secs_f64(DEFER_RETRY_S),
                    FleetEvent::Incoming { tenant },
                );
            } else {
                self.lost += 1;
            }
            return;
        }
        let t = &self.tenants[tenant];
        if self.router_needs_loads {
            self.route_loads.clear();
            self.route_loads.extend(
                self.active
                    .iter()
                    .map(|&i| self.hosts[i].sim.load_snapshot(t.vm, t.dep)),
            );
        } else if self.route_loads.len() != self.active.len() {
            self.route_loads.resize(
                self.active.len(),
                HostLoad {
                    warm_idle: 0,
                    alive: 0,
                    queued: 0,
                    active: 0,
                    free_bytes: 0,
                },
            );
        }
        let r = self.router.route(tenant, &self.route_loads);
        assert!(
            r < self.active.len(),
            "router returned host {r} of {}",
            self.active.len()
        );
        let h = self.active[r];
        self.routed[h][tenant] += 1;
        let (vm, dep) = (t.vm, t.dep);
        self.dispatch(now, h, Event::Arrival { vm, dep });
        self.drain_tap(h);
    }

    /// Moves the host's freshly recorded completions into the fleet's
    /// reservoir, SLO counters and (when the control loop is on) the
    /// policy's latency window.
    fn drain_tap(&mut self, host: usize) {
        let window_on = self.control_loop;
        for &(kind, arrival_s, latency_ms) in self.hosts[host].sim.recent_latencies() {
            self.latency_over_time.offer(arrival_s, latency_ms);
            if let Some(&(_, target)) = self.slo.iter().find(|(k, _)| *k == kind) {
                self.slo_total += 1;
                if latency_ms > target {
                    self.slo_violations += 1;
                }
            }
            if window_on {
                self.recent_window.push((kind, latency_ms));
            }
        }
        self.hosts[host].sim.clear_recent_latencies();
    }

    // --- Control plane -----------------------------------------------------

    fn on_control(&mut self, now: SimTime) {
        // Self-healing comes before policy: crashes can sink the fleet
        // below its floor (even to zero hosts, where no load-driven
        // policy gets a signal to act on), so the control loop boots
        // replacements up to `min_hosts` outside the policy and its
        // cooldown. A fixed fleet has no control loop and therefore no
        // healing — its crash losses are permanent by design.
        let provisioned = self.active.len() + self.count(HostState::Booting);
        if provisioned < self.opts.min_hosts {
            self.boot_hosts(now, self.opts.min_hosts - provisioned);
        }
        let active_loads: Vec<HostLoad> = self
            .active
            .iter()
            .map(|&i| self.hosts[i].sim.total_load())
            .collect();
        let booting = self.count(HostState::Booting);
        let draining = self.count(HostState::Draining);
        let view = FleetView {
            now_s: now.as_secs_f64(),
            active: &active_loads,
            booting,
            draining,
            slots_per_host: self.slots_per_host,
            recent: &self.recent_window,
            slo: &self.slo,
        };
        let decision = self.policy.decide(&view);
        self.recent_window.clear();

        let in_cooldown = self
            .last_action_at
            .is_some_and(|t| now.since(t).as_secs_f64() < self.opts.cooldown_s);
        if !in_cooldown {
            match decision {
                ScaleDecision::Hold => {}
                ScaleDecision::Up(n) => self.scale_up(now, n),
                ScaleDecision::Down(n) => self.scale_down(now, n),
            }
        }

        if let Some(period) = self.policy.period_s() {
            let period = SimDuration::from_secs_f64(period);
            if (now + period).as_secs_f64() <= self.duration_s {
                self.events.push_after(now, period, FleetEvent::Control);
            }
        }
    }

    fn count(&self, state: HostState) -> usize {
        self.hosts.iter().filter(|s| s.state == state).count()
    }

    fn scale_up(&mut self, now: SimTime, n: u32) {
        let provisioned = self.active.len() + self.count(HostState::Booting);
        let room = self.opts.max_hosts.saturating_sub(provisioned);
        let n = (n as usize).min(room);
        if n > 0 {
            self.boot_hosts(now, n);
            self.last_action_at = Some(now);
        }
    }

    /// Boots `n` hosts from the template (provisioning delay applies).
    /// Used by both policy scale-ups and min-floor self-healing;
    /// cooldown bookkeeping stays with the caller.
    fn boot_hosts(&mut self, now: SimTime, n: usize) {
        for _ in 0..n {
            // Each booted host re-derives its jitter seed from the
            // template by global host ordinal: deterministic, and no
            // two hosts ever share a stream.
            let ordinal = self.hosts.len() as u64;
            let mut cfg = self.template.clone();
            cfg.seed = DetRng::new(self.template.seed)
                .derive(BOOT_STREAM)
                .derive(ordinal)
                .seed();
            let mut sim = HostSim::new(cfg).expect("fleet template host boots");
            if self.bounded_metrics {
                sim.enable_bounded_metrics();
            }
            let slot = Slot::new(sim, &mut self.events, HostState::Booting, now);
            self.hosts.push(slot);
            self.routed.push(vec![0; self.tenants.len()]);
            let host = self.hosts.len() - 1;
            self.events.push_after(
                now,
                SimDuration::from_secs_f64(self.opts.boot_delay_s),
                FleetEvent::HostReady { host },
            );
            self.scale_ups += 1;
        }
    }

    fn scale_down(&mut self, now: SimTime, n: u32) {
        let provisioned = self.active.len() + self.count(HostState::Booting);
        let allowed = provisioned.saturating_sub(self.opts.min_hosts);
        let n = (n as usize).min(allowed).min(self.active.len());
        if n == 0 {
            return;
        }
        // Drain the least-pressured hosts: they quiesce fastest and
        // carry the least warm state worth keeping.
        let mut candidates: Vec<(usize, usize)> = self
            .active
            .iter()
            .map(|&i| (self.hosts[i].sim.total_load().pressure(), i))
            .collect();
        candidates.sort_unstable();
        for &(_, host) in candidates.iter().take(n) {
            self.hosts[host].state = HostState::Draining;
            self.active.retain(|&i| i != host);
            self.scale_downs += 1;
            self.maybe_retire(now, host);
        }
        self.last_action_at = Some(now);
        self.push_active_count(now);
    }

    fn on_host_ready(&mut self, now: SimTime, host: usize) {
        if self.hosts[host].state != HostState::Booting {
            return;
        }
        self.hosts[host].state = HostState::Active;
        let at = self.active.partition_point(|&i| i < host);
        self.active.insert(at, host);
        // Start the host's metrics sample chain.
        self.events.push(
            now,
            FleetEvent::Host {
                host,
                ev: Event::Sample,
            },
        );
        self.push_active_count(now);
    }

    /// Retires a draining host once it has nothing left to do.
    fn maybe_retire(&mut self, now: SimTime, host: usize) {
        let slot = &mut self.hosts[host];
        if slot.state == HostState::Draining && slot.sim.is_quiescent() {
            slot.state = HostState::Retired;
            slot.stop_at = Some(now);
        }
    }

    // --- Failure plane -----------------------------------------------------

    fn on_crash(&mut self, now: SimTime) {
        // Any serving host can die — draining ones included.
        let candidates: Vec<usize> = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.state, HostState::Active | HostState::Draining))
            .map(|(i, _)| i)
            .collect();
        let Some(victim) = self.injector.pick_victim(&candidates) else {
            return;
        };
        // Flush completions that happened before the crash.
        self.drain_tap(victim);
        self.active.retain(|&i| i != victim);
        let slot = &mut self.hosts[victim];
        slot.state = HostState::Failed;
        slot.stop_at = Some(now);
        self.crashes += 1;
        // In-flight executions die with the host.
        self.lost += slot.sim.busy_instances() as u64;
        // Queued requests are re-routed to the survivors, as a client
        // retry would: their latency clocks restart at the crash.
        for (vm, dep) in slot.sim.drain_queued_requests() {
            let tenant = self.tenant_of_slot[vm][dep];
            assert_ne!(tenant, usize::MAX, "queued request belongs to a tenant");
            self.requeued += 1;
            self.events.push(now, FleetEvent::Incoming { tenant });
        }
        self.push_active_count(now);
    }

    // --- Accounting --------------------------------------------------------

    fn push_active_count(&mut self, now: SimTime) {
        self.active_hosts_over_time
            .push(now, self.active.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{LeastLoaded, PowerOfTwoChoices, RoundRobin, WarmAffinity};
    use crate::config::{BackendKind, Deployment, HarvestConfig, VmSpec};

    fn host_cfg(tenants: usize, seed: u64, duration_s: f64) -> SimConfig {
        SimConfig {
            backend: BackendKind::Squeezy,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: (0..tenants)
                    .map(|_| Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                        arrivals: Vec::new(),
                    })
                    .collect(),
                vcpus: Some(2.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 15.0,
            duration_s,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial: 0,
        }
    }

    fn fleet_cfg(
        initial: usize,
        tenants: Vec<TenantTrace>,
        duration_s: f64,
        opts: AutoscaleOpts,
    ) -> FleetConfig {
        let template = host_cfg(tenants.len(), 0xF0, duration_s);
        FleetConfig {
            initial_hosts: (0..initial)
                .map(|h| host_cfg(tenants.len(), 1 + h as u64, duration_s))
                .collect(),
            template,
            tenants,
            autoscale: opts,
            failures: FailureConfig::off(),
            slo: default_slos([FunctionKind::Html]),
            seed: 0xF1EE7,
        }
    }

    fn burst_tenants(n_arrivals: usize, start: f64, gap: f64) -> Vec<TenantTrace> {
        vec![TenantTrace {
            vm: 0,
            dep: 0,
            arrivals: (0..n_arrivals).map(|i| start + i as f64 * gap).collect(),
        }]
    }

    /// Scale-down test policy: drains one host at a fixed tick.
    struct DrainOnce {
        ticks: u32,
        at: u32,
    }

    impl AutoscalePolicy for DrainOnce {
        fn name(&self) -> &'static str {
            "drain-once"
        }

        fn period_s(&self) -> Option<f64> {
            Some(5.0)
        }

        fn decide(&mut self, _view: &FleetView) -> ScaleDecision {
            self.ticks += 1;
            if self.ticks == self.at {
                ScaleDecision::Down(1)
            } else {
                ScaleDecision::Hold
            }
        }
    }

    #[test]
    fn fixed_fleet_serves_everything_and_never_scales() {
        let tenants = burst_tenants(8, 1.0, 0.2);
        let cfg = fleet_cfg(
            2,
            tenants,
            80.0,
            AutoscaleOpts {
                min_hosts: 2,
                max_hosts: 2,
                ..AutoscaleOpts::default()
            },
        );
        let routers: [Box<dyn Router>; 4] = [
            Box::new(RoundRobin::default()),
            Box::new(LeastLoaded),
            Box::new(WarmAffinity),
            Box::new(PowerOfTwoChoices::from_seed(7)),
        ];
        for router in routers {
            let name = router.name();
            let r = FleetSim::new(cfg.clone(), router, Box::new(FixedFleet))
                .expect("boot")
                .run();
            assert_eq!(
                r.scale_ups + r.scale_downs + r.crashes + r.lost + r.deferred,
                0,
                "{name}: a fixed fleet takes no control action"
            );
            assert_eq!(r.completed, 8);
            assert_eq!(r.peak_active(), 2);
            assert_eq!(r.min_active(), 2);
            assert!(r.hosts.iter().all(|h| h.final_state == HostState::Active));
            assert_eq!(
                r.latency_over_time.seen(),
                8,
                "reservoir sees every completion"
            );
            assert!(r.slo_total == 8, "every completion is SLO-tracked");
        }
    }

    #[test]
    fn autoscaler_grows_under_backlog_and_boot_delay_gates_readiness() {
        // One host, 30 near-simultaneous arrivals at concurrency 2: the
        // queue-depth policy must boot more hosts; they become routable
        // only after the provisioning delay.
        let tenants = burst_tenants(30, 1.0, 0.05);
        let cfg = fleet_cfg(
            1,
            tenants,
            240.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 4,
                boot_delay_s: 10.0,
                cooldown_s: 6.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(LeastLoaded),
            Box::new(QueueDepth::default_policy()),
        )
        .expect("boot")
        .run();
        assert!(
            r.scale_ups >= 1,
            "backlog triggered growth: {}",
            r.scale_ups
        );
        assert!(r.peak_active() >= 2, "peak {}", r.peak_active());
        assert_eq!(r.completed, 30, "every request eventually served");
        assert_eq!(r.lost, 0);
        // Booted hosts were not routable before the delay: the first
        // activation can be no earlier than boot_delay after t=0.
        let first_boot = r
            .hosts
            .iter()
            .skip(1)
            .map(|h| h.boot_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            first_boot >= 5.0,
            "first boot decision at a tick: {first_boot}"
        );
    }

    #[test]
    fn autoscaler_shrinks_an_idle_fleet_to_the_floor() {
        // Load only in the first seconds of a long run: queue-depth
        // sheds idle hosts down to min_hosts, gracefully.
        let tenants = burst_tenants(6, 1.0, 0.1);
        let cfg = fleet_cfg(
            3,
            tenants,
            200.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 3,
                boot_delay_s: 10.0,
                cooldown_s: 5.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(RoundRobin::default()),
            Box::new(QueueDepth::default_policy()),
        )
        .expect("boot")
        .run();
        assert_eq!(r.completed, 6, "drains lose nothing");
        assert!(
            r.scale_downs >= 2,
            "idle fleet shed hosts: {}",
            r.scale_downs
        );
        assert_eq!(r.min_active(), 1, "never below the floor");
        let retired = r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Retired)
            .count();
        assert_eq!(retired, 2, "drained hosts reached Retired");
        assert!(
            r.host_hours() < 3.0 * 200.0 / 3600.0 - 1e-9,
            "retiring early saves host-hours: {}",
            r.host_hours()
        );
    }

    #[test]
    fn graceful_drain_finishes_inflight_work_before_retiring() {
        // Drain fires at the first tick (t=5) while the burst from t=4
        // is still queued/executing on both hosts: the draining host
        // must finish its share, then expire its warm instances
        // (keepalive 15 s) before retiring.
        let tenants = burst_tenants(8, 4.0, 0.05);
        let cfg = fleet_cfg(
            2,
            tenants,
            120.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 2,
                boot_delay_s: 10.0,
                cooldown_s: 1.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(RoundRobin::default()),
            Box::new(DrainOnce { ticks: 0, at: 1 }),
        )
        .expect("boot")
        .run();
        assert_eq!(r.completed, 8, "no request dropped by the drain");
        assert_eq!(r.scale_downs, 1);
        let drained: Vec<&HostOutcome> = r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Retired)
            .collect();
        assert_eq!(drained.len(), 1);
        // Retirement waits for the keepalive window (instances warm
        // until ~ last_use + 15 s), so it lands well after the drain
        // decision at t=5 — and the host completed work after t=5.
        assert!(
            drained[0].stop_s > 15.0,
            "retired at {:.1}s only after quiescence",
            drained[0].stop_s
        );
        assert!(drained[0].result.completed > 0, "served before retiring");
    }

    #[test]
    fn crashes_requeue_queued_work_to_survivors() {
        // Two hosts, a long arrival train, and a forced crash window:
        // the victim's queued requests must re-route to the survivor.
        let tenants = burst_tenants(40, 1.0, 0.5);
        let mut cfg = fleet_cfg(
            2,
            tenants,
            120.0,
            AutoscaleOpts {
                min_hosts: 2,
                max_hosts: 2,
                ..AutoscaleOpts::default()
            },
        );
        cfg.failures = FailureConfig { mtbf_s: 40.0 };
        let run = || {
            FleetSim::new(
                cfg.clone(),
                Box::new(RoundRobin::default()),
                Box::new(FixedFleet),
            )
            .expect("boot")
            .run()
        };
        let r = run();
        assert!(r.crashes >= 1, "at least one injected crash");
        let failed = r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Failed)
            .count();
        assert_eq!(failed as u64, r.crashes);
        // Conservation: every arrival completed, died in-flight, or
        // (if every host crashed) was dropped as unservable.
        assert!(r.completed + r.lost <= 40 + r.requeued);
        assert!(r.completed > 0, "survivors keep serving");
        for h in r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Failed)
        {
            assert!(h.stop_s < 120.0, "crash recorded mid-run");
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let tenants = burst_tenants(20, 1.0, 0.3);
        let mk = || {
            let mut cfg = fleet_cfg(
                2,
                tenants.clone(),
                150.0,
                AutoscaleOpts {
                    min_hosts: 1,
                    max_hosts: 4,
                    boot_delay_s: 8.0,
                    cooldown_s: 5.0,
                },
            );
            cfg.failures = FailureConfig { mtbf_s: 60.0 };
            FleetSim::new(
                cfg,
                Box::new(LeastLoaded),
                Box::new(TargetUtilization::default_policy()),
            )
            .expect("boot")
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.routed, b.routed);
        assert_eq!(
            (a.scale_ups, a.scale_downs, a.crashes, a.requeued, a.lost),
            (b.scale_ups, b.scale_downs, b.crashes, b.requeued, b.lost)
        );
        assert_eq!(a.slo_violations, b.slo_violations);
        assert_eq!(
            a.latency_over_time.sorted_points(),
            b.latency_over_time.sorted_points()
        );
        let da: Vec<u64> = a.hosts.iter().map(|h| h.result.digest()).collect();
        let db: Vec<u64> = b.hosts.iter().map(|h| h.result.digest()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn slam_policy_scales_on_slo_pressure() {
        // A sustained train at ~4 rps against one 2-slot host: queueing
        // pushes p99 over the SLO and the SLAM policy must grow the
        // fleet.
        let tenants = burst_tenants(200, 1.0, 0.25);
        let cfg = fleet_cfg(
            1,
            tenants,
            180.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 5,
                boot_delay_s: 8.0,
                cooldown_s: 5.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(LeastLoaded),
            Box::new(SlamSlo::default_policy()),
        )
        .expect("boot")
        .run();
        assert!(r.scale_ups >= 1, "SLO pressure grew the fleet");
        assert!(r.slo_total > 0);
        assert_eq!(r.completed, 200);
    }
}
