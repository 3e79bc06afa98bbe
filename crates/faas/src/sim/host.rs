//! One host's runtime: the backend-agnostic event handlers.
//!
//! [`HostSim`] owns the host memory, the per-VM agents ([`VmRt`]) and
//! the elasticity backend, and handles [`Event`]s: route arrivals to
//! warm instances, scale up through the backend's plug hook, keep
//! instances alive, scale down through the backend's reclaim hook. It
//! never dispatches on `BackendKind` — all backend behavior goes
//! through the [`ElasticityBackend`] hooks.
//!
//! The handlers are driven externally: [`crate::FleetSim`], the
//! crate's one event engine, hands each host its events and drains its
//! latency tap.

use std::collections::{BTreeMap, VecDeque};

use mem_types::align_up_to_block;
use sim_core::{
    CostModel, CpuPool, DetRng, Histogram, IdMap, SimDuration, SimTime, TaskId, TimeSeries,
};
use vmm::{HostMemory, Vm, VmConfig, VmmError};
use workloads::FunctionKind;

use crate::backend::{self, ElasticityBackend, PlugStart, RebuildStart, ReclaimStart};
use crate::cluster::HostLoad;
use crate::config::SimConfig;
use crate::fleet::HostSink;
use crate::metrics::{FuncMetrics, ReclaimTotals, SimResult};
use crate::sim::events::{Event, Work};
use crate::sim::instance::{InstState, Instance, PendingReclaim};

const EPS_CPU: f64 = 1e-9;

/// Period of the host's metrics sample chain (usage series, or the
/// usage integral of a streamed replay).
const SAMPLE_PERIOD: SimDuration = SimDuration::secs(1);

/// Derivation tag of the bounded-metrics histogram streams (from the
/// host config's seed), distinct from the jitter/trace/reservoir tags.
const METRICS_STREAM: u64 = 0xB0D5;

/// Per-VM agent state: the booted VM, its CPU pool, live instances and
/// request queues.
pub(crate) struct VmRt {
    pub vm: Vm,
    pub pool: CpuPool,
    pub work: IdMap<TaskId, Work>,
    pub instances: IdMap<u64, Instance>,
    /// Per-deployment FIFO of queued request arrival times.
    pub queues: Vec<VecDeque<SimTime>>,
    pub reclaim: ReclaimTotals,
    pub guest_series: TimeSeries,
    pub inst_series: TimeSeries,
}

impl VmRt {
    fn alive_of(&self, dep: usize) -> usize {
        self.instances.values().filter(|i| i.dep == dep).count()
    }

    fn starting_of(&self, dep: usize) -> usize {
        self.instances
            .values()
            .filter(|i| i.dep == dep && i.state == InstState::Starting)
            .count()
    }

    fn idle_instance_of(&self, dep: usize) -> Option<u64> {
        self.instances
            .iter()
            .filter(|(_, i)| i.dep == dep && i.state == InstState::Warm)
            .map(|(&id, _)| id)
            .next()
    }

    fn hollow_instance_of(&self, dep: usize) -> Option<u64> {
        self.instances
            .iter()
            .filter(|(_, i)| i.dep == dep && i.state == InstState::Hollow)
            .map(|(&id, _)| id)
            .next()
    }
}

/// One host of the FaaS runtime: VMs, backend, metrics.
pub(crate) struct HostSim {
    pub config: SimConfig,
    cost: CostModel,
    host: HostMemory,
    pub vms: Vec<VmRt>,
    backend: Box<dyn ElasticityBackend>,
    /// Per-function metrics, indexed by `FunctionKind as usize` so the
    /// per-completion bookkeeping is an array index, not a tree walk.
    /// `finish` rebuilds the result's `BTreeMap` in declaration order —
    /// identical to `Ord` order, so digests are unchanged.
    per_func: [FuncMetrics; FunctionKind::ALL.len()],
    /// Which `per_func` slots a deployment or arrival ever touched.
    per_func_live: [bool; FunctionKind::ALL.len()],
    host_series: TimeSeries,
    /// In-flight reclaims keyed by `(vm, token)`. Tokens are globally
    /// monotonic, so the flat map is both deterministic (key-ordered,
    /// unlike the `HashMap` it replaced) and append-cheap.
    pending_reclaims: IdMap<(usize, u64), PendingReclaim>,
    next_inst: u64,
    next_token: u64,
    completed: u64,
    /// Scratch for `on_cpu_done`'s finished-task sweep (reused so the
    /// steady-state completion path does not allocate).
    finished_scratch: Vec<(TaskId, Work)>,
    rng: DetRng,
    /// Latency tap: completed requests since the engine last drained
    /// it, as `(kind, arrival_s, latency_ms)`.
    recent_latencies: Vec<(FunctionKind, f64, f64)>,
    /// Bounded-metrics mode (streamed trace replays): per-function
    /// histograms become capped reservoirs and the memory/instance
    /// time series stay empty.
    bounded_metrics: bool,
    /// Streaming host-usage integral (bytes·s), accumulated on every
    /// run: `(last sample time, last sample value)` plus the area
    /// accumulated so far.
    usage_last: Option<(SimTime, f64)>,
    usage_acc: f64,
}

impl HostSim {
    /// Boots the VMs and installs the configured backend. Schedules
    /// nothing: the driver decides how arrivals reach [`Self::handle`].
    pub fn new(config: SimConfig) -> Result<HostSim, VmmError> {
        let cost = CostModel::default();
        let mut host = HostMemory::new(config.host_capacity);
        let mut backend = backend::make(&config);
        let mut vms = Vec::new();

        for spec in config.vms.iter() {
            // Size the VM: boot memory + hotplug region for N instances.
            let total_limit: u64 = spec
                .deployments
                .iter()
                .map(|d| {
                    align_up_to_block(d.kind.profile().memory_limit.bytes()) * d.concurrency as u64
                })
                .sum();
            let shared_need: u64 = spec
                .deployments
                .iter()
                .map(|d| {
                    let p = d.kind.profile();
                    p.deps_bytes + p.rootfs_bytes
                })
                .sum::<u64>()
                + 128 * (1 << 20);
            let shared_bytes = align_up_to_block(shared_need);
            let max_limit: u64 = spec
                .deployments
                .iter()
                .map(|d| align_up_to_block(d.kind.profile().memory_limit.bytes()))
                .max()
                .unwrap_or(0);
            let hotplug = backend.hotplug_bytes(spec, total_limit, shared_bytes, max_limit);
            let vm_config = VmConfig {
                guest: guest_mm::GuestMmConfig {
                    boot_bytes: 1 << 30,
                    hotplug_bytes: hotplug,
                    kernel_bytes: 192 * (1 << 20),
                    init_on_alloc: true,
                },
                vcpus: spec.effective_vcpus(),
            };
            let mut vm = Vm::boot(vm_config, &mut host)?;
            backend.install_vm(&mut vm, spec, shared_bytes, hotplug, &cost);

            let ndeps = spec.deployments.len();
            vms.push(VmRt {
                vm,
                pool: CpuPool::new(spec.effective_vcpus()),
                work: IdMap::new(),
                instances: IdMap::new(),
                queues: vec![VecDeque::new(); ndeps],
                reclaim: ReclaimTotals::default(),
                guest_series: TimeSeries::new(),
                inst_series: TimeSeries::new(),
            });
        }

        let per_func = std::array::from_fn(|_| FuncMetrics::default());
        let mut per_func_live = [false; FunctionKind::ALL.len()];
        for spec in &config.vms {
            for d in &spec.deployments {
                per_func_live[d.kind as usize] = true;
            }
        }

        backend.after_boot(&mut host);

        let rng = config.jitter_rng();
        Ok(HostSim {
            config,
            cost,
            host,
            vms,
            backend,
            per_func,
            per_func_live,
            host_series: TimeSeries::new(),
            pending_reclaims: IdMap::new(),
            next_inst: 0,
            next_token: 0,
            completed: 0,
            finished_scratch: Vec::new(),
            rng,
            recent_latencies: Vec::new(),
            bounded_metrics: false,
            usage_last: None,
            usage_acc: 0.0,
        })
    }

    /// Switches every per-request accumulator to the bounded
    /// discipline, for streamed trace replays whose invocation counts
    /// dwarf any acceptable memory footprint:
    ///
    /// * per-function latency histograms become capped reservoirs
    ///   (exact count and mean, sampled quantiles) on seeded streams
    ///   derived from the config seed under [`METRICS_STREAM`];
    /// * the host/guest/instance time series stay empty; the
    ///   host-usage integral (the `gib_seconds` numerator) does not
    ///   need them, as it is accumulated while the run samples.
    ///
    /// Must be called before any event is handled.
    pub fn enable_bounded_metrics(&mut self) {
        self.bounded_metrics = true;
        // Exact per-request latency points grow with the trace; the
        // reservoir timeline covers the time-resolved view instead.
        self.config.record_latency_points = false;
        let base = DetRng::new(self.config.seed).derive(METRICS_STREAM);
        for (i, m) in self.per_func.iter_mut().enumerate() {
            *m = FuncMetrics {
                latency: Histogram::bounded(
                    crate::cluster::LATENCY_RESERVOIR_CAP,
                    base.derive(i as u64 * 2).seed(),
                ),
                cold_start_latency: Histogram::bounded(
                    crate::cluster::LATENCY_RESERVOIR_CAP,
                    base.derive(i as u64 * 2 + 1).seed(),
                ),
                ..FuncMetrics::default()
            };
        }
    }

    /// Handles one event at time `now`, scheduling follow-ups into `q`.
    pub fn handle(&mut self, now: SimTime, ev: Event, q: &mut HostSink<'_>) {
        match ev {
            Event::Arrival { vm, dep } => self.on_arrival(now, vm, dep, q),
            Event::CpuDone { vm } => {
                self.on_cpu_done(now, vm, q);
            }
            Event::PlugDone { vm, inst } => {
                self.on_plug_done(now, vm, inst, q);
            }
            Event::KeepAlive { vm, inst } => {
                self.on_keepalive(now, vm, inst, q);
            }
            Event::ReclaimDone { vm, token } => self.on_reclaim_done(now, vm, token, q),
            Event::RetryReclaim { vm, bytes, retries } => {
                self.sync_pool(vm, now);
                let start = self.backend.retry_reclaim(
                    vm,
                    &mut self.vms[vm],
                    &mut self.host,
                    bytes,
                    retries,
                    now,
                    SimDuration::millis(self.config.unplug_deadline_ms),
                    &self.cost,
                );
                self.launch_reclaim(now, vm, start, q);
                self.reschedule_cpu(vm, now, q);
            }
            Event::Sample => {
                self.on_sample(now, q);
            }
        }
    }

    /// Consumes the host and produces its results.
    pub fn finish(self) -> SimResult {
        let end = SimTime::ZERO + SimDuration::from_secs_f64(self.config.duration_s);
        // Rebuild the result map in declaration order == `Ord` order —
        // byte-identical to the former `BTreeMap` accumulator.
        let live = self.per_func_live;
        let mut per_func = BTreeMap::new();
        for (i, m) in self.per_func.into_iter().enumerate() {
            if live[i] {
                per_func.insert(FunctionKind::ALL[i], m);
            }
        }
        // Close out the streaming host-usage integral with the final
        // step's tail.
        let mut host_usage_integral = self.usage_acc;
        if let Some((t0, v0)) = self.usage_last {
            if end > t0 {
                host_usage_integral += v0 * end.since(t0).as_secs_f64();
            }
        }
        SimResult {
            per_func,
            host_usage: self.host_series,
            guest_usage: self.vms.iter().map(|v| v.guest_series.clone()).collect(),
            instance_counts: self.vms.iter().map(|v| v.inst_series.clone()).collect(),
            reclaims: self.vms.iter().map(|v| v.reclaim).collect(),
            completed: self.completed,
            end,
            host_usage_integral,
        }
    }

    // --- Router / autoscaler views ----------------------------------------

    /// The single [`HostLoad`] constructor: one deterministic snapshot
    /// of this host, taken for the arriving tenant's `(vm, dep)` slot.
    /// Routers (via the cluster/fleet drivers) and the fleet autoscaler
    /// (via [`Self::total_load`]) both read host load through here, so
    /// the two control planes can never disagree on what "load" means.
    pub fn load_snapshot(&self, vm: usize, dep: usize) -> HostLoad {
        self.snapshot_impl(Some((vm, dep)))
    }

    /// Whole-host load snapshot: the deployment-specific fields
    /// (`warm_idle`, `alive`) are summed across every deployment — the
    /// autoscaler's view, which cares about total warm capacity rather
    /// than any one tenant's.
    pub fn total_load(&self) -> HostLoad {
        self.snapshot_impl(None)
    }

    fn snapshot_impl(&self, slot: Option<(usize, usize)>) -> HostLoad {
        let dep_matches = |vi: usize, dep: usize| match slot {
            Some((sv, sd)) => vi == sv && dep == sd,
            None => true,
        };
        let mut warm_idle = 0;
        let mut alive = 0;
        let mut queued = 0;
        let mut active = 0;
        for (vi, v) in self.vms.iter().enumerate() {
            queued += v.queues.iter().map(VecDeque::len).sum::<usize>();
            for i in v.instances.values() {
                if matches!(i.state, InstState::Busy | InstState::Starting) {
                    active += 1;
                }
                if dep_matches(vi, i.dep) {
                    alive += 1;
                    if i.state == InstState::Warm {
                        warm_idle += 1;
                    }
                }
            }
        }
        HostLoad {
            warm_idle,
            alive,
            queued,
            active,
            free_bytes: self.host.free_bytes(),
        }
    }

    // --- Fleet lifecycle hooks --------------------------------------------

    /// The `(kind, arrival_s, latency_ms)` completions recorded since
    /// the last drain. The engine feeds them to its reservoir and SLO
    /// accounting; the tap is not part of [`SimResult`], so it never
    /// perturbs digests.
    pub fn recent_latencies(&self) -> &[(FunctionKind, f64, f64)] {
        &self.recent_latencies
    }

    /// Forgets the drained latencies, keeping the buffer's capacity so
    /// the steady-state completion path never reallocates it.
    pub fn clear_recent_latencies(&mut self) {
        self.recent_latencies.clear();
    }

    /// `true` when the host holds no queued requests, no instances, no
    /// CPU work and no in-flight reclaims — a draining host in this
    /// state can retire without losing anything.
    pub fn is_quiescent(&self) -> bool {
        self.pending_reclaims.is_empty()
            && self.vms.iter().all(|v| {
                v.instances.is_empty()
                    && v.work.is_empty()
                    && v.queues.iter().all(VecDeque::is_empty)
            })
    }

    /// Empties every request queue, returning one `(vm, dep)` entry per
    /// queued request in deterministic (vm, dep, FIFO) order. Crash
    /// handling: the fleet re-routes these to surviving hosts.
    pub fn drain_queued_requests(&mut self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (vi, v) in self.vms.iter_mut().enumerate() {
            for (di, q) in v.queues.iter_mut().enumerate() {
                out.extend(std::iter::repeat_n((vi, di), q.len()));
                q.clear();
            }
        }
        out
    }

    /// Requests currently executing (one per busy instance) — the work
    /// a host crash genuinely loses.
    pub fn busy_instances(&self) -> usize {
        self.vms
            .iter()
            .flat_map(|v| v.instances.values())
            .filter(|i| i.state == InstState::Busy)
            .count()
    }

    // --- Event handlers ---------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, vm: usize, dep: usize, q: &mut HostSink<'_>) {
        self.sync_pool(vm, now);
        let kind = self.dep_kind(vm, dep);
        if let Some(inst) = self.vms[vm].idle_instance_of(dep) {
            self.metrics(kind).warm_starts += 1;
            self.dispatch_exec(now, vm, inst, now);
        } else {
            self.vms[vm].queues[dep].push_back(now);
            self.metrics(kind).cold_starts += 1;
            self.maybe_scale_up(now, vm, dep, q);
        }
        self.reschedule_cpu(vm, now, q);
    }

    fn on_cpu_done(&mut self, now: SimTime, vm: usize, q: &mut HostSink<'_>) {
        self.sync_pool(vm, now);
        // Collect finished tasks into the reusable scratch buffer.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        finished.clear();
        finished.extend(
            self.vms[vm]
                .work
                .iter()
                .filter(|(tid, _)| {
                    self.vms[vm]
                        .pool
                        .remaining(**tid)
                        .map(|r| r <= EPS_CPU)
                        .unwrap_or(false)
                })
                .map(|(&tid, &w)| (tid, w)),
        );
        for (tid, work) in finished.drain(..) {
            self.vms[vm].pool.remove(tid);
            self.vms[vm].work.remove(&tid);
            match work {
                Work::ContainerInit { inst } => {
                    if let Some(i) = self.vms[vm].instances.get_mut(&inst) {
                        i.container_done = true;
                    }
                    self.check_init_ready(now, vm, inst);
                }
                Work::FunctionInit { inst } => self.on_instance_warm(now, vm, inst, q),
                Work::Exec { inst, arrival } => self.on_exec_done(now, vm, inst, arrival, q),
                Work::ReclaimKthread { token } => {
                    q.push(now, Event::ReclaimDone { vm, token });
                }
            }
        }
        self.finished_scratch = finished;
        self.reschedule_cpu(vm, now, q);
    }

    fn on_plug_done(&mut self, now: SimTime, vm: usize, inst: u64, q: &mut HostSink<'_>) {
        self.sync_pool(vm, now);
        let res = self
            .backend
            .finish_plug(vm, &mut self.vms[vm], inst, &self.cost);
        if let Some(latency) = res.replug {
            q.push(now + latency, Event::PlugDone { vm, inst });
        }
        for id in res.ready {
            self.check_init_ready(now, vm, id);
        }
        self.reschedule_cpu(vm, now, q);
    }

    fn on_keepalive(&mut self, now: SimTime, vm: usize, inst: u64, q: &mut HostSink<'_>) {
        self.sync_pool(vm, now);
        let expired = match self.vms[vm].instances.get(&inst) {
            Some(i) => {
                matches!(i.state, InstState::Warm | InstState::Hollow)
                    && now.since(i.last_used).as_secs_f64() + 1e-6 >= self.config.keepalive_s
            }
            None => false,
        };
        if expired {
            self.evict_instance(now, vm, inst, q);
            // Proactive scale-down (HarvestVM-opts): evict extra idle
            // instances to refill the slack buffer (§6.2.2) — the
            // "aggressive reclamation" that penalizes their functions
            // later.
            for _ in 0..self.backend.proactive_eviction_quota() {
                let extra = self.vms[vm]
                    .instances
                    .iter()
                    .filter(|(_, i)| i.state == InstState::Warm)
                    .min_by_key(|(_, i)| i.last_used)
                    .map(|(&id, _)| id);
                match extra {
                    Some(id) => self.evict_instance(now, vm, id, q),
                    None => break,
                }
            }
            self.retry_scale_ups(now, q);
        }
        self.reschedule_cpu(vm, now, q);
    }

    fn on_reclaim_done(&mut self, now: SimTime, vm: usize, token: u64, q: &mut HostSink<'_>) {
        self.sync_pool(vm, now);
        if let Some(p) = self.pending_reclaims.remove(&(vm, token)) {
            self.host.release(p.host_bytes);
            if p.shortfall_bytes > 0 && p.retries_left > 0 {
                // The driver retries the remaining request periodically
                // in the background (the paper's reclamation timeouts:
                // the memory is not available when the scale-up needs
                // it, but the VM recovers eventually).
                q.push_after(
                    now,
                    SimDuration::secs(5),
                    Event::RetryReclaim {
                        vm,
                        bytes: p.shortfall_bytes,
                        retries: p.retries_left - 1,
                    },
                );
            }
            let r = &mut self.vms[vm].reclaim;
            r.bytes += p.guest_bytes;
            r.wall += now.since(p.started);
            r.ops += 1;
            r.pages_migrated += p.pages_migrated;
            if p.shortfall {
                r.shortfalls += 1;
            }
            self.backend.on_reclaim_complete(&mut self.host);
        }
        // Freed memory may unblock waiting scale-ups.
        self.retry_scale_ups(now, q);
        self.reschedule_cpu(vm, now, q);
    }

    fn on_sample(&mut self, now: SimTime, q: &mut HostSink<'_>) {
        // Safety net for queues whose deployment has no instance left and
        // no reclaim in flight: retry their scale-ups periodically.
        self.retry_scale_ups(now, q);
        // The host-usage integral, as a step function over the samples.
        let used = self.host.used_bytes() as f64;
        if let Some((t0, v0)) = self.usage_last {
            self.usage_acc += v0 * now.since(t0).as_secs_f64();
        }
        self.usage_last = Some((now, used));
        // Streamed replays keep no per-sample points.
        if !self.bounded_metrics {
            self.host_series.push(now, used);
            for v in &mut self.vms {
                v.guest_series.push(now, v.vm.guest.used_bytes() as f64);
                v.inst_series.push(now, v.instances.len() as f64);
            }
        }
        if (now + SAMPLE_PERIOD).as_secs_f64() <= self.config.duration_s {
            q.push_after(now, SAMPLE_PERIOD, Event::Sample);
        }
    }

    // --- Scale-up path ------------------------------------------------------

    fn maybe_scale_up(&mut self, now: SimTime, vm: usize, dep: usize, q: &mut HostSink<'_>) {
        loop {
            let queued = self.vms[vm].queues[dep].len();
            let starting = self.vms[vm].starting_of(dep);
            if queued <= starting {
                break;
            }
            // Soft backend: a hollow (revoked) instance is cheaper to
            // rebuild than a fresh instance is to start.
            if let Some(hollow) = self.vms[vm].hollow_instance_of(dep) {
                if self.admit(now, vm, dep, q) {
                    self.rebuild_instance(now, vm, hollow, q);
                    continue;
                }
                break;
            }
            let alive = self.vms[vm].alive_of(dep);
            let n = self.config.vms[vm].deployments[dep].concurrency as usize;
            if alive >= n {
                break;
            }
            if !self.admit(now, vm, dep, q) {
                break;
            }
            if !self.start_instance(now, vm, dep, q) {
                break;
            }
        }
    }

    /// Wakes a hollow (soft-revoked) instance through the backend's
    /// rebuild hook.
    fn rebuild_instance(&mut self, now: SimTime, vm: usize, inst: u64, q: &mut HostSink<'_>) {
        let pid = self.vms[vm].instances[&inst].pid;
        match self.backend.rebuild(vm, &mut self.vms[vm], pid, &self.cost) {
            RebuildStart::Replug { latency } => {
                let i = self.vms[vm].instances.get_mut(&inst).expect("exists");
                i.state = InstState::Starting;
                i.plug_done = false;
                i.container_done = true;
                i.first_exec_pending = true;
                i.started_at = now;
                q.push(now + latency, Event::PlugDone { vm, inst });
            }
            RebuildStart::Warm => {
                let i = self.vms[vm].instances.get_mut(&inst).expect("exists");
                i.state = InstState::Warm;
                i.last_used = now;
            }
        }
    }

    /// Host-memory admission for one new instance: the runtime reserves
    /// the instance's user-defined memory limit (§4.2 — plug requests
    /// carry "the memory size pre-defined by the user"). May trigger
    /// backend revocations or evictions and return `false` (the
    /// scale-up is retried on reclaim completions).
    fn admit(&mut self, now: SimTime, vm: usize, dep: usize, q: &mut HostSink<'_>) -> bool {
        let estimate = align_up_to_block(self.dep_kind(vm, dep).profile().memory_limit.bytes());
        // Backend-held reserves (HarvestVM's slack buffer) first.
        if self.backend.admit_from_reserve(&mut self.host, estimate) {
            return true;
        }
        if self.host.free_bytes() >= estimate {
            return true;
        }
        // Revocable memory next: idle instances donate without dying
        // (§7), so the later warm/soft-cold starts stay cheaper than
        // full cold starts.
        let deficit = estimate.saturating_sub(self.host.free_bytes());
        self.backend
            .revoke_for_pressure(&mut self.vms, &mut self.host, deficit, &self.cost);
        if self.host.free_bytes() >= estimate {
            return true;
        }
        // Evict idle instances (oldest first, across all VMs) until the
        // expected release covers the deficit.
        let mut deficit = estimate.saturating_sub(self.host.free_bytes()) as i64;
        while deficit > 0 {
            let victim = self.oldest_idle_instance();
            let Some((v, id)) = victim else { break };
            // Predict the victim's release: its limit-sized reclaim
            // covers roughly the blocks its footprint pinned.
            let released_estimate = {
                let i = &self.vms[v].instances[&id];
                self.config.vms[v].deployments[i.dep]
                    .kind
                    .profile()
                    .anon_bytes
            };
            self.sync_pool(v, now);
            self.evict_instance(now, v, id, q);
            self.reschedule_cpu(v, now, q);
            deficit -= released_estimate as i64;
        }
        // Squeezy's synchronous unplug may have freed enough already.
        self.host.free_bytes() >= estimate
    }

    fn oldest_idle_instance(&self) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64, SimTime)> = None;
        for (vi, v) in self.vms.iter().enumerate() {
            for (&id, i) in &v.instances {
                if i.state == InstState::Warm {
                    match best {
                        Some((_, _, t)) if t <= i.last_used => {}
                        _ => best = Some((vi, id, i.last_used)),
                    }
                }
            }
        }
        best.map(|(v, id, _)| (v, id))
    }

    fn retry_scale_ups(&mut self, now: SimTime, q: &mut HostSink<'_>) {
        for vi in 0..self.vms.len() {
            self.sync_pool(vi, now);
            for di in 0..self.vms[vi].queues.len() {
                if !self.vms[vi].queues[di].is_empty() {
                    self.maybe_scale_up(now, vi, di, q);
                }
            }
            self.reschedule_cpu(vi, now, q);
        }
    }

    /// Starts one instance. Returns `false` (cancelling the scale-up)
    /// when the memory plug fails — e.g. the virtio-mem region is
    /// exhausted because earlier reclaims timed out short (§6.2.2's
    /// "virtio-mem fails to reclaim the necessary memory ... forcing
    /// [requests] to be served by already alive instances").
    fn start_instance(
        &mut self,
        now: SimTime,
        vm: usize,
        dep: usize,
        q: &mut HostSink<'_>,
    ) -> bool {
        let kind = self.dep_kind(vm, dep);
        let profile = kind.profile();
        let pid = self.vms[vm]
            .vm
            .guest
            .spawn_process(guest_mm::AllocPolicy::MovableDefault);
        let id = self.next_inst;
        self.next_inst += 1;

        let mut inst = Instance {
            dep,
            pid,
            state: InstState::Starting,
            last_used: now,
            started_at: now,
            plug_done: false,
            container_done: false,
            first_exec_pending: true,
            partition: None,
        };

        // Backend-specific memory plug, in parallel with container init.
        let bytes = align_up_to_block(profile.memory_limit.bytes());
        match self
            .backend
            .begin_plug(vm, &mut self.vms[vm], pid, bytes, &self.cost)
        {
            PlugStart::Ready { partition } => {
                inst.partition = partition;
                inst.plug_done = true;
                self.vms[vm].instances.insert(id, inst);
            }
            PlugStart::Scheduled { latency } => {
                self.vms[vm].instances.insert(id, inst);
                q.push(now + latency, Event::PlugDone { vm, inst: id });
            }
            PlugStart::Failed => {
                let _ = self.vms[vm].vm.guest.exit_process(pid);
                return false;
            }
        }

        // Container (sandbox) init starts immediately — §6.2.1: sandbox
        // setup proceeds in parallel with the plug.
        let rootfs_latency = {
            let v = &mut self.vms[vm];
            match v.vm.touch_file(
                &mut self.host,
                kind.rootfs_file(),
                profile.rootfs_pages(),
                &self.cost,
            ) {
                Ok(c) => c.latency.as_secs_f64(),
                Err(_) => 0.05, // Host pressure: fall back to a nominal read.
            }
        };
        let demand = (profile.container_init_cpu_s + rootfs_latency).max(1e-6);
        let tid = self.vms[vm].pool.add_task(demand, 1.0, 1.0);
        self.vms[vm]
            .work
            .insert(tid, Work::ContainerInit { inst: id });
        true
    }

    fn check_init_ready(&mut self, now: SimTime, vm: usize, inst: u64) {
        let ready = match self.vms[vm].instances.get(&inst) {
            Some(i) => i.state == InstState::Starting && i.plug_done && i.container_done,
            None => false,
        };
        if !ready {
            return;
        }
        let (dep, pid) = {
            let i = &self.vms[vm].instances[&inst];
            (i.dep, i.pid)
        };
        let kind = self.dep_kind(vm, dep);
        let profile = kind.profile();
        // Function init touches the runtime deps (page cache / shared
        // partition) and most of the anonymous working set.
        let mut extra = 0.0;
        {
            let v = &mut self.vms[vm];
            if let Ok(c) = v.vm.touch_file(
                &mut self.host,
                kind.deps_file(),
                profile.deps_pages(),
                &self.cost,
            ) {
                extra += c.latency.as_secs_f64();
            }
            match v.vm.touch_anon(
                &mut self.host,
                pid,
                profile.anon_pages() * 6 / 10,
                &self.cost,
            ) {
                Ok(c) => extra += c.latency.as_secs_f64(),
                Err(_) => {
                    // OOM (partition or host): the instance dies.
                    self.kill_instance(now, vm, inst);
                    return;
                }
            }
        }
        let demand = (profile.function_init_cpu_s + extra).max(1e-6);
        let tid = self.vms[vm].pool.add_task(demand, 1.0, 1.0);
        self.vms[vm].work.insert(tid, Work::FunctionInit { inst });
    }

    fn on_instance_warm(&mut self, now: SimTime, vm: usize, inst: u64, q: &mut HostSink<'_>) {
        let dep = {
            let Some(i) = self.vms[vm].instances.get_mut(&inst) else {
                return;
            };
            i.state = InstState::Warm;
            i.last_used = now;
            i.dep
        };
        self.mark_idle(vm, inst);
        let kind = self.dep_kind(vm, dep);
        let cold_ms = now
            .since(self.vms[vm].instances[&inst].started_at)
            .as_millis_f64();
        self.metrics(kind).cold_start_latency.record(cold_ms);
        self.schedule_keepalive(now, vm, inst, q);
        self.drain_queue(now, vm, dep);
    }

    fn drain_queue(&mut self, now: SimTime, vm: usize, dep: usize) {
        while let Some(&arrival) = self.vms[vm].queues[dep].front() {
            let Some(inst) = self.vms[vm].idle_instance_of(dep) else {
                break;
            };
            self.vms[vm].queues[dep].pop_front();
            self.dispatch_exec(now, vm, inst, arrival);
        }
    }

    fn dispatch_exec(&mut self, now: SimTime, vm: usize, inst: u64, arrival: SimTime) {
        let (dep, pid, first) = {
            let i = self.vms[vm]
                .instances
                .get_mut(&inst)
                .expect("dispatch target");
            debug_assert_eq!(i.state, InstState::Warm);
            i.state = InstState::Busy;
            let first = i.first_exec_pending;
            i.first_exec_pending = false;
            (i.dep, i.pid, first)
        };
        // Soft backend: firm the partition up while the instance works.
        self.backend.on_dispatch(vm, pid);
        let kind = self.dep_kind(vm, dep);
        let profile = kind.profile();
        let mut extra = 0.0005; // Agent dispatch overhead.
        if first {
            // First execution touches the rest of the working set.
            let v = &mut self.vms[vm];
            if let Ok(c) = v.vm.touch_anon(
                &mut self.host,
                pid,
                profile.anon_pages() - profile.anon_pages() * 6 / 10,
                &self.cost,
            ) {
                extra += c.latency.as_secs_f64();
            }
        }
        let jitter = self.rng.log_normal(0.0, 0.08);
        let demand = (profile.exec_cpu_s * jitter + extra).max(1e-6);
        let tid = self.vms[vm]
            .pool
            .add_task(demand, profile.vcpu_shares, profile.vcpu_shares);
        self.vms[vm].work.insert(tid, Work::Exec { inst, arrival });
        let _ = now; // Dispatch itself is instantaneous at `now`.
    }

    fn on_exec_done(
        &mut self,
        now: SimTime,
        vm: usize,
        inst: u64,
        arrival: SimTime,
        q: &mut HostSink<'_>,
    ) {
        let dep = {
            let i = self.vms[vm].instances.get_mut(&inst).expect("exec owner");
            i.state = InstState::Warm;
            i.last_used = now;
            i.dep
        };
        self.mark_idle(vm, inst);
        let kind = self.dep_kind(vm, dep);
        let latency_ms = now.since(arrival).as_millis_f64();
        self.recent_latencies
            .push((kind, arrival.as_secs_f64(), latency_ms));
        let record_points = self.config.record_latency_points;
        let m = self.metrics(kind);
        m.latency.record(latency_ms);
        if record_points {
            m.latency_points.push((arrival.as_secs_f64(), latency_ms));
        }
        self.completed += 1;
        self.schedule_keepalive(now, vm, inst, q);
        self.drain_queue(now, vm, dep);
        // A newly idle instance may satisfy queued work elsewhere via
        // memory that eviction would free; retry pending scale-ups.
        if !self.vms[vm].queues[dep].is_empty() {
            self.maybe_scale_up(now, vm, dep, q);
        }
    }

    fn schedule_keepalive(&mut self, now: SimTime, vm: usize, inst: u64, q: &mut HostSink<'_>) {
        let keepalive = SimDuration::from_secs_f64(self.config.keepalive_s);
        q.push_after(now, keepalive, Event::KeepAlive { vm, inst });
    }

    /// A newly idle instance reports to the backend (soft memory offers
    /// its partition back).
    fn mark_idle(&mut self, vm: usize, inst: u64) {
        let pid = self.vms[vm].instances[&inst].pid;
        self.backend.on_idle(vm, pid);
    }

    // --- Scale-down path ------------------------------------------------------

    /// Evicts one instance and starts the backend's reclaim.
    fn evict_instance(&mut self, now: SimTime, vm: usize, inst: u64, q: &mut HostSink<'_>) {
        let Some(i) = self.vms[vm].instances.remove(&inst) else {
            return;
        };
        debug_assert_ne!(i.state, InstState::Busy, "never evict busy instances");
        self.vms[vm]
            .vm
            .guest
            .exit_process(i.pid)
            .expect("instance process alive");
        self.backend.on_exit(vm, i.pid);
        // A hollow instance's partition was already reclaimed when its
        // soft memory was revoked: nothing further to unplug.
        if i.state != InstState::Hollow {
            self.start_reclaim(now, vm, i.dep, q);
        }
    }

    /// An instance died mid-init (OOM): clean up without reclaim.
    fn kill_instance(&mut self, now: SimTime, vm: usize, inst: u64) {
        let Some(i) = self.vms[vm].instances.remove(&inst) else {
            return;
        };
        let _ = self.vms[vm].vm.guest.exit_process(i.pid);
        self.backend.on_exit(vm, i.pid);
        let _ = now;
    }

    /// Launches the backend reclaim for one evicted instance of `dep`.
    fn start_reclaim(&mut self, now: SimTime, vm: usize, dep: usize, q: &mut HostSink<'_>) {
        let kind = self.dep_kind(vm, dep);
        // The runtime resizes by "the function memory requirements
        // (Table 1)" (§6.2): plug and unplug requests are both
        // limit-sized, so the VM's plugged size tracks its instance
        // count. Squeezy's unit is the whole partition by construction.
        let freed = align_up_to_block(kind.profile().memory_limit.bytes());
        let deadline = SimDuration::millis(self.config.unplug_deadline_ms);
        let start = self.backend.reclaim_on_evict(
            vm,
            &mut self.vms[vm],
            &mut self.host,
            freed,
            now,
            deadline,
            &self.cost,
        );
        self.launch_reclaim(now, vm, start, q);
    }

    /// Books a started reclaim: pending accounting, its completion
    /// event or kthread task.
    fn launch_reclaim(
        &mut self,
        now: SimTime,
        vm: usize,
        start: ReclaimStart,
        q: &mut HostSink<'_>,
    ) {
        match start {
            ReclaimStart::None => {}
            ReclaimStart::Timed { pending, latency } => {
                let token = self.next_token;
                self.next_token += 1;
                self.pending_reclaims.insert((vm, token), pending);
                q.push(now + latency, Event::ReclaimDone { vm, token });
            }
            ReclaimStart::Kthread { pending, cpu_s } => {
                let token = self.next_token;
                self.next_token += 1;
                self.pending_reclaims.insert((vm, token), pending);
                // The driver kthread migrates pages on the VM's vCPUs —
                // the Figure-9 interference.
                let demand = cpu_s.max(1e-6);
                let tid = self.vms[vm].pool.add_task(demand, 1.0, 1.0);
                self.vms[vm]
                    .work
                    .insert(tid, Work::ReclaimKthread { token });
            }
        }
    }

    // --- Plumbing ---------------------------------------------------------------

    fn dep_kind(&self, vm: usize, dep: usize) -> FunctionKind {
        self.config.vms[vm].deployments[dep].kind
    }

    fn metrics(&mut self, kind: FunctionKind) -> &mut FuncMetrics {
        self.per_func_live[kind as usize] = true;
        &mut self.per_func[kind as usize]
    }

    fn sync_pool(&mut self, vm: usize, now: SimTime) {
        if self.vms[vm].pool.now() < now {
            self.vms[vm].pool.advance_to(now);
        }
    }

    /// Re-arms the VM's CPU-completion timer at the pool's earliest
    /// predicted completion, or disarms it when the pool is idle.
    fn reschedule_cpu(&mut self, vm: usize, now: SimTime, q: &mut HostSink<'_>) {
        let at = self.vms[vm].pool.next_completion().map(|(_, t)| t.max(now));
        q.set_cpu_timer(vm, at);
    }
}
