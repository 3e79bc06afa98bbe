//! The declarative scenario API: one front door to every topology.
//!
//! A [`Scenario`] names everything an experiment needs — a workload
//! from the [`workloads::registry`], a topology
//! ([`Topology::SingleVm`] | [`Topology::Cluster`] | [`Topology::Fleet`]),
//! an elasticity backend per host (or a sweep list of them), a router,
//! an autoscale policy, SLOs, duration/seed/trials — and
//! [`SweepSpec::run`] runs its cells on the fleet engine
//! ([`crate::FleetSim`]); a spec without sweep axes is one cell that
//! yields one unified [`ScenarioResult`]. Every future experiment
//! becomes a data change: a spec file (see [`Scenario::parse`] /
//! [`Scenario::render`] for the line-oriented `key = value` format)
//! instead of another ~100 lines of hand-wired config glue.
//!
//! Determinism contract: a scenario's RNG streams are derived from
//! `(seed, trial)` through the *same* stream tags the bench harness
//! has always used, so
//!
//! * every backend of a sweep sees identical tenant traces and crash
//!   plans (paired comparison), and
//! * `Scenario::run_trial` is byte-identical to a hand-built
//!   `SimConfig`/`ClusterConfig`/`FleetConfig` — the
//!   `scenario_equivalence` tests pin all three topologies.
//!
//! Every topology reaches the engine through one path:
//! [`Scenario::fleet_plan`] builds the fleet config, router and policy,
//! [`Scenario::boot`] boots one [`FleetSim`], and
//! [`Scenario::run_trial`] projects its one result onto a
//! [`ScenarioOutcome`].

mod compare;
mod expect;
mod format;
mod result;
mod sweep;

pub use compare::{compare_results, CompareReport, MetricDiff, ALPHA};
pub use expect::{ExpectKind, ExpectVerdict, Expectation};
pub use result::{FleetStats, ScenarioOutcome, ScenarioResult};
pub use sweep::{AxisValues, GridOutcome, SweepAxis, SweepCell, SweepSpec, MAX_CELLS};

use mem_types::align_up_to_block;
use sim_core::DetRng;
use workloads::{FunctionKind, TenantLoad, WorkloadKind, WorkloadParams};

use crate::cluster::{ClusterConfig, Router, RouterKind, SingleHost, TenantTrace};
use crate::config::{BackendKind, HarvestConfig, SimConfig};
use crate::fleet::{
    default_slos, AutoscaleOpts, AutoscalePolicy, FailureConfig, FixedFleet, FleetConfig, FleetSim,
    PolicyKind,
};

/// Derivation tag of the tenant-trace stream: traces depend on
/// `(seed, trial)` only, never on the backend or router under test.
pub(crate) const TRACE_STREAM: u64 = 0x77;

/// Base tag of the flat host jitter seeds: host `h` below
/// [`FLAT_HOSTS`] derives `seed → 0x40 + h`, and the fleet's boot
/// template `seed → 0x40 + TEMPLATE_TAG` (see [`Scenario::host_seed`]).
pub(crate) const HOST_SEED_BASE: u64 = 0x40;

/// Hosts below this index keep the flat tags `0x40 + h`, which every
/// spec of at most 32 hosts has always used. A flat tag for a higher
/// index would reach [`TEMPLATE_TAG`]'s `0x40 + 0x3E` and then
/// [`TRACE_STREAM`], aliasing streams that must stay independent.
const FLAT_HOSTS: usize = 0x20;

/// Derivation tag of the nested stream that seeds hosts from index
/// [`FLAT_HOSTS`] up: host `h` derives `seed → HOST_STREAM → h`.
const HOST_STREAM: u64 = 0x4057;

/// Largest host count a spec may ask for (`cluster(n)`, `max_hosts`).
/// A sanity bound, not a seeding limit: every host boots up front and
/// the 1000-host `perf_cluster.scn` peaks near 330 MiB, so this keeps
/// a typo like `cluster(1000000000)` a validation error instead of an
/// allocation that runs until the process is killed.
pub(crate) const MAX_HOSTS: usize = 4096;

/// The most arrivals a generated workload may draw: its generator's
/// highest rate times `duration_s` (see [`Scenario::arrival_envelope`]).
/// Every arrival is drawn, and nearly every one simulated, so a spec
/// above it is rejected up front instead of running until it is killed.
/// It is 25× the 2,000,000 invocations of the `repro perf` cluster. A
/// `trace(<path>)` workload takes its arrivals from the file, whose rows
/// are capped by [`workloads::MAX_ROW_ARRIVALS`], and is not held to it.
pub(crate) const MAX_OFFERED_INVOCATIONS: f64 = 50_000_000.0;

/// Longest span any time-valued key may take, in seconds (about 31.7
/// years). Simulated time is whole nanoseconds in a `u64`, which ends
/// near 1.8e10 s; this cap keeps every key — and a sum of a few of
/// them — well inside it, so a value like `keepalive_s = 1e12` is a
/// validation error naming its key instead of a deadline past the end
/// of time.
pub(crate) const MAX_TIME_S: f64 = 1e9;

/// The most instance slots (Σ concurrency) one Squeezy VM can hold.
/// Every slot is a partition with its own guest zone, beside the two
/// boot zones and the shared partition's zone, and zone ids are `u8`s
/// below [`guest_mm::page::NO_ZONE`]: 255 − 2 − 1 = 252. Every tenant
/// of a spec deploys into one VM, so `tenants × concurrency` is held to
/// it under the squeezy backends.
pub(crate) const MAX_SQUEEZY_SLOTS: u64 =
    guest_mm::page::NO_ZONE as u64 - (guest_mm::ZONE_MOVABLE as u64 + 1) - 1;

/// The largest hotplug region one VM may reserve, Σ concurrency ×
/// block-aligned memory limit as `HostSim::new` sizes it: 8 TiB. The
/// per-block bookkeeping for the whole region is built at boot, before
/// any of it is plugged (about 2.5 MiB resident per TiB), and its
/// per-page bitmaps are reserved in full, so `concurrency = 1000000`
/// asked for a 245 GB bitmap and aborted. The cap is not the host's
/// capacity: virtio-mem VMs plug on demand and may reserve far more
/// than the host holds (five tenants at concurrency 1000 and the
/// largest limit reserve 7.3 TiB); the committed specs reserve at most
/// 36 GiB.
pub(crate) const MAX_HOTPLUG_BYTES: u64 = 8 << 40;

/// The most host crashes a fleet spec may expect, `duration_s /
/// mtbf_s`. The fleet samples every crash instant and queues it before
/// the first event, so the plan's memory and set-up time grow with this
/// ratio (`mtbf_s = 1e-9` would never finish sampling). A fleet that
/// loses a host every few seconds already does little but reboot; the
/// committed specs expect 2.
pub(crate) const MAX_EXPECTED_CRASHES: f64 = 100_000.0;

/// Flat host-seed tag of the fleet's boot template (`seed → 0x40 +
/// 0x3E`), above every flat host index (see [`FLAT_HOSTS`]), so booted
/// hosts never share an initial host's stream.
const TEMPLATE_TAG: u64 = 0x3E;

/// Derivation tag of the fleet's own streams (crash plan, reservoir).
pub(crate) const FLEET_STREAM: u64 = 0xF1EE;

/// The workload a scenario drives: a named generator from the
/// [`workloads::registry`], or a trace file streamed from disk.
///
/// Named workloads materialize their arrival lists up front — fine at
/// experiment scale. `trace(<path>)` replays an on-disk trace
/// (azure-minute or opendc, see [`workloads::TRACE_MAGIC`]) through
/// the lazy [`workloads::TraceSource`] path instead, so a multi-day,
/// multi-million-invocation replay never holds more than the pending
/// events in memory. The trace file also replaces the `tenants`/`rps`
/// workload params: its `# tenants = ...` directive defines the
/// deployment slots.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// A named generator ([`WorkloadKind`]).
    Named(WorkloadKind),
    /// A trace file, replayed lazily from disk.
    Trace(String),
}

impl WorkloadSpec {
    /// Registry key used by spec files (`trace(<path>)` carries its
    /// path).
    pub fn key(&self) -> String {
        match self {
            WorkloadSpec::Named(k) => k.key().to_string(),
            WorkloadSpec::Trace(path) => format!("trace({path})"),
        }
    }

    /// Parses a workload key; `Err` carries the valid forms.
    pub(crate) fn from_key(key: &str) -> Result<WorkloadSpec, String> {
        if let Some(inner) = key
            .strip_prefix("trace(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            if inner.is_empty() {
                return Err("trace(<path>) needs a file path".to_string());
            }
            return Ok(WorkloadSpec::Trace(inner.to_string()));
        }
        match WorkloadKind::from_key(key) {
            Ok(k) => Ok(WorkloadSpec::Named(k)),
            Err(e) => Err(format!("{e}, or trace(<path>)")),
        }
    }
}

impl From<WorkloadKind> for WorkloadSpec {
    fn from(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec::Named(kind)
    }
}

/// Named-workload comparisons read naturally at call sites
/// (`spec.workload == WorkloadKind::Diurnal`).
impl PartialEq<WorkloadKind> for WorkloadSpec {
    fn eq(&self, other: &WorkloadKind) -> bool {
        matches!(self, WorkloadSpec::Named(k) if k == other)
    }
}

/// The host set a scenario runs on the fleet engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// One host (the paper's deployment).
    SingleVm,
    /// `n` hosts under a router, a frozen fleet.
    Cluster(usize),
    /// An elastic host set with a control plane.
    Fleet,
}

impl Topology {
    /// Registry key used by spec files (`cluster(4)` carries its size).
    pub(crate) fn key(self) -> String {
        match self {
            Topology::SingleVm => "single-vm".to_string(),
            Topology::Cluster(n) => format!("cluster({n})"),
            Topology::Fleet => "fleet".to_string(),
        }
    }

    /// Parses a topology key; `Err` carries the valid forms.
    pub(crate) fn from_key(key: &str) -> Result<Topology, String> {
        match key {
            "single-vm" => Ok(Topology::SingleVm),
            "fleet" => Ok(Topology::Fleet),
            other => {
                let inner = other
                    .strip_prefix("cluster(")
                    .and_then(|rest| rest.strip_suffix(')'));
                match inner.and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => Ok(Topology::Cluster(n)),
                    None => Err(format!(
                        "unknown topology {key:?} (valid: single-vm, cluster(N), fleet)"
                    )),
                }
            }
        }
    }
}

/// A declarative experiment specification — the single public entry
/// point to the single-VM, cluster and fleet topologies.
///
/// Build one in code (start from [`Scenario::new`] and set fields) or
/// load one from a spec file with [`Scenario::parse`]. Fields that a
/// topology does not use are simply ignored by it (`policy` on a
/// cluster, `router` on a single VM); [`Scenario::validate`] checks
/// values and cross-field consistency up front with real error
/// messages.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Display name (also the report-section title under `repro run`).
    pub name: String,
    /// Which simulator runs the spec.
    pub topology: Topology,
    /// The elasticity backends to sweep — one [`ScenarioResult`] cell
    /// per backend, all under identical traces (paired comparison).
    pub backends: Vec<BackendKind>,
    /// The workload: a named generator or a streamed trace file.
    pub workload: WorkloadSpec,
    /// The workload parameter block (tenants, rates, duration, ...).
    pub params: WorkloadParams,
    /// Per-tenant max concurrent instances on each host.
    pub concurrency: u32,
    /// Keep-alive window before evicting idle instances, in seconds.
    pub keepalive_s: f64,
    /// Physical memory per host, in bytes.
    pub host_capacity: u64,
    /// Routing policy (cluster and fleet topologies).
    pub router: RouterKind,
    /// Autoscale policy (fleet topology).
    pub policy: PolicyKind,
    /// Fleet size floor (fleet topology).
    pub min_hosts: usize,
    /// Fleet size ceiling; the `fixed` policy provisions at this peak.
    pub max_hosts: usize,
    /// Provisioning delay for booted hosts, in seconds.
    pub boot_delay_s: f64,
    /// Cooldown between scale actions, in seconds.
    pub cooldown_s: f64,
    /// Mean time between injected host crashes (0 disables; fleet
    /// topology).
    pub mtbf_s: f64,
    /// Per-function SLO target overrides in milliseconds; functions
    /// without an override use [`default_slos`].
    pub slo: Vec<(FunctionKind, f64)>,
    /// Root seed of every derived stream.
    pub seed: u64,
    /// Repeated trials on derived RNG streams (a `repro run --trials`
    /// flag larger than 1 overrides this).
    pub trials: u32,
}

impl Scenario {
    /// A scenario with the registry defaults: Squeezy backend,
    /// least-loaded router, fixed fleet policy, 6 GiB hosts, seed 42,
    /// one trial.
    pub fn new(name: &str, topology: Topology, workload: impl Into<WorkloadSpec>) -> Scenario {
        Scenario {
            name: name.to_string(),
            topology,
            backends: vec![BackendKind::Squeezy],
            workload: workload.into(),
            params: WorkloadParams::default(),
            concurrency: 2,
            keepalive_s: 20.0,
            host_capacity: 6 * mem_types::GIB,
            router: RouterKind::LeastLoaded,
            policy: PolicyKind::Fixed,
            min_hosts: 1,
            max_hosts: 4,
            boot_delay_s: 15.0,
            cooldown_s: 10.0,
            mtbf_s: 0.0,
            slo: Vec::new(),
            seed: 42,
            trials: 1,
        }
    }

    /// Returns the most arrivals the generated workload may draw, with
    /// the rate that bounds them: its generator's highest rate times
    /// `duration_s`. Churn, memhog and drumbeat draw at `rps`;
    /// azure-trace and zipf-cluster tenants burst at 4× their share of
    /// it; diurnal draws candidates at the peak times `burst_factor` and
    /// thins them.
    /// `None` for a trace replay, whose arrivals come from its file.
    pub(crate) fn arrival_envelope(&self) -> Option<(f64, &'static str)> {
        let p = &self.params;
        let (factor, rate) = match &self.workload {
            WorkloadSpec::Trace(_) => return None,
            WorkloadSpec::Named(
                WorkloadKind::Churn | WorkloadKind::Memhog | WorkloadKind::Drumbeat,
            ) => (1.0, "rps"),
            WorkloadSpec::Named(WorkloadKind::AzureTrace | WorkloadKind::ZipfCluster) => {
                (4.0, "4 × rps")
            }
            WorkloadSpec::Named(WorkloadKind::Diurnal) => (p.burst_factor, "rps × burst_factor"),
        };
        Some((p.rps * factor * p.duration_s, rate))
    }

    /// Validates the spec up front; `Err` lists *every* problem, one
    /// per line, so a spec file is fixed in one pass.
    pub fn validate(&self) -> Result<(), String> {
        let mut errs: Vec<String> = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                errs.push(msg);
            }
        };
        let p = &self.params;
        // The spec format stores the name as one `key = value` line
        // with trimmed ends, so only names that survive that trip are
        // valid — `parse(render(s)) == s` depends on it.
        check(
            !self.name.is_empty() && !self.name.contains('\n') && self.name.trim() == self.name,
            "name must be non-empty and single-line, without leading/trailing whitespace"
                .to_string(),
        );
        check(
            !self.backends.is_empty(),
            "backend list must not be empty".to_string(),
        );
        for (i, b) in self.backends.iter().enumerate() {
            check(
                !self.backends[..i].contains(b),
                format!("backend {} listed twice", b.key()),
            );
        }
        check(
            p.tenants >= 1,
            format!("tenants must be ≥ 1 (got {})", p.tenants),
        );
        let positive = |v: f64| v.is_finite() && v > 0.0;
        check(
            positive(p.duration_s),
            format!("duration_s must be positive (got {})", p.duration_s),
        );
        check(
            positive(p.rps),
            format!("rps must be positive (got {})", p.rps),
        );
        check(
            p.zipf_exponent.is_finite() && p.zipf_exponent >= 0.0,
            format!("zipf_exponent must be ≥ 0 (got {})", p.zipf_exponent),
        );
        if let Some((drawn, rate)) = self.arrival_envelope() {
            check(
                drawn <= MAX_OFFERED_INVOCATIONS,
                format!(
                    "{rate} × duration_s draws up to {drawn:.3e} arrivals (rps = {}, \
                     duration_s = {}), above the cap of {MAX_OFFERED_INVOCATIONS:.0e}: \
                     lower one of its factors",
                    p.rps, p.duration_s
                ),
            );
        }
        if let WorkloadSpec::Trace(path) = &self.workload {
            // Same round-trip constraint as the name: the path lives
            // inside one `workload = trace(<path>)` line.
            check(
                !path.is_empty() && !path.contains('\n') && path.trim() == path,
                "trace path must be non-empty and single-line, without leading/trailing whitespace"
                    .to_string(),
            );
        }
        if self.workload == WorkloadKind::Diurnal {
            check(
                positive(p.trough_rps),
                format!("trough_rps must be positive (got {})", p.trough_rps),
            );
            check(
                p.trough_rps <= p.rps,
                format!(
                    "trough_rps ({}) must be ≤ rps ({}, the diurnal peak)",
                    p.trough_rps, p.rps
                ),
            );
            check(
                positive(p.period_s),
                format!("period_s must be positive (got {})", p.period_s),
            );
            check(
                p.burst_factor.is_finite() && p.burst_factor >= 1.0,
                format!("burst_factor must be ≥ 1 (got {})", p.burst_factor),
            );
            check(
                (0.0..1.0).contains(&p.burst_duty),
                format!("burst_duty must be in [0, 1) (got {})", p.burst_duty),
            );
        }
        check(
            self.concurrency >= 1,
            format!("concurrency must be ≥ 1 (got {})", self.concurrency),
        );
        // A trace's tenants come from its header, checked in `run_trial`.
        // A named workload picks its tenants' kinds as it generates
        // them, so the region is bounded by the largest limit of any.
        if let WorkloadSpec::Named(_) = &self.workload {
            for e in [
                self.check_slots(p.tenants),
                self.check_hotplug(p.tenants, &FunctionKind::ALL),
            ] {
                if let Err(e) = e {
                    check(false, e);
                }
            }
        }
        check(
            self.keepalive_s.is_finite() && self.keepalive_s >= 0.0,
            format!("keepalive_s must be ≥ 0 (got {})", self.keepalive_s),
        );
        check(
            self.host_capacity > 0,
            "host_capacity must be positive".to_string(),
        );
        if let Topology::Cluster(n) = self.topology {
            check(n >= 1, format!("cluster size must be ≥ 1 (got {n})"));
            check(
                n <= MAX_HOSTS,
                format!("topology cluster({n}): cluster size must be ≤ {MAX_HOSTS}"),
            );
        }
        if self.topology == Topology::Fleet {
            check(
                self.min_hosts >= 1,
                format!("min_hosts must be ≥ 1 (got {})", self.min_hosts),
            );
            check(
                self.max_hosts >= self.min_hosts,
                format!(
                    "max_hosts ({}) must be ≥ min_hosts ({})",
                    self.max_hosts, self.min_hosts
                ),
            );
            check(
                self.max_hosts <= MAX_HOSTS,
                format!("max_hosts must be ≤ {MAX_HOSTS} (got {})", self.max_hosts),
            );
            check(
                positive(self.boot_delay_s),
                format!("boot_delay_s must be positive (got {})", self.boot_delay_s),
            );
            check(
                self.cooldown_s.is_finite() && self.cooldown_s >= 0.0,
                format!("cooldown_s must be ≥ 0 (got {})", self.cooldown_s),
            );
            check(
                self.mtbf_s.is_finite() && self.mtbf_s >= 0.0,
                format!("mtbf_s must be ≥ 0 (got {}; 0 disables)", self.mtbf_s),
            );
            let crashes = if self.mtbf_s > 0.0 {
                p.duration_s / self.mtbf_s
            } else {
                0.0
            };
            check(
                crashes <= MAX_EXPECTED_CRASHES,
                format!(
                    "duration_s / mtbf_s expects {crashes:.3e} host crashes (duration_s = {}, \
                     mtbf_s = {}), above the cap of {MAX_EXPECTED_CRASHES:.0e}: raise mtbf_s \
                     or lower duration_s",
                    p.duration_s, self.mtbf_s
                ),
            );
        }
        for (key, v) in [
            ("duration_s", p.duration_s),
            ("period_s", p.period_s),
            ("keepalive_s", self.keepalive_s),
            ("boot_delay_s", self.boot_delay_s),
            ("cooldown_s", self.cooldown_s),
            ("mtbf_s", self.mtbf_s),
        ] {
            // Non-finite values are reported by the checks above.
            check(
                !v.is_finite() || v <= MAX_TIME_S,
                format!("{key} must be ≤ {MAX_TIME_S:.0e} s (got {v})"),
            );
        }
        for (i, &(kind, target)) in self.slo.iter().enumerate() {
            check(
                positive(target),
                format!("slo.{} must be positive (got {target})", kind.key()),
            );
            check(
                !self.slo[..i].iter().any(|&(k, _)| k == kind),
                format!("slo.{} listed twice", kind.key()),
            );
        }
        check(
            self.trials >= 1,
            format!("trials must be ≥ 1 (got {})", self.trials),
        );
        if errs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scenario {:?} is invalid:\n  - {}",
                self.name,
                errs.join("\n  - ")
            ))
        }
    }

    /// `Err` naming `tenants` and `concurrency` when `tenants` of them
    /// overflow a Squeezy VM's zone table under a squeezy backend of
    /// this spec (see [`MAX_SQUEEZY_SLOTS`]).
    fn check_slots(&self, tenants: usize) -> Result<(), String> {
        let slots = (tenants as u64).saturating_mul(u64::from(self.concurrency));
        if slots <= MAX_SQUEEZY_SLOTS || !self.backends.iter().any(|b| b.is_squeezy()) {
            return Ok(());
        }
        Err(format!(
            "tenants × concurrency = {tenants} × {} = {slots} instance slots in one Squeezy VM, \
             above the {MAX_SQUEEZY_SLOTS} its guest zone table holds: lower tenants or concurrency",
            self.concurrency
        ))
    }

    /// `Err` naming `tenants`, `concurrency` and the memory limit when
    /// `tenants` of them, each at the largest block-aligned limit of
    /// `kinds`, would reserve a VM hotplug region above
    /// [`MAX_HOTPLUG_BYTES`].
    fn check_hotplug(&self, tenants: usize, kinds: &[FunctionKind]) -> Result<(), String> {
        let limit = kinds
            .iter()
            .map(|k| align_up_to_block(k.profile().memory_limit.bytes()))
            .max()
            .unwrap_or(0);
        let region = (tenants as u64)
            .saturating_mul(u64::from(self.concurrency))
            .saturating_mul(limit);
        if region <= MAX_HOTPLUG_BYTES {
            return Ok(());
        }
        const GIB: f64 = (1u64 << 30) as f64;
        Err(format!(
            "tenants × concurrency × memory limit = {tenants} × {} × {} MiB = {:.1} GiB of \
             hotplug region in one VM, above the {} GiB cap: lower tenants or concurrency",
            self.concurrency,
            limit >> 20,
            region as f64 / GIB,
            MAX_HOTPLUG_BYTES >> 30
        ))
    }

    /// A CI-scale variant: duration capped at 120 simulated seconds,
    /// one trial. Deterministic, so `repro run --quick` output stays
    /// byte-identical across job counts.
    pub(crate) fn quick(&self) -> Scenario {
        let mut s = self.clone();
        s.params.duration_s = s.params.duration_s.min(120.0);
        s.params.period_s = s.params.period_s.min(120.0);
        s.trials = 1;
        s
    }

    /// Synthesizes this scenario's tenant traces for one trial —
    /// derived from `(seed, trial)` alone, so every backend of the
    /// sweep sees identical load.
    ///
    /// For a `trace(<path>)` workload this only reads the file's
    /// header: the tenant slots come back with *empty* arrival lists
    /// (the body streams lazily at run time, never materialized).
    ///
    /// # Panics
    ///
    /// Panics if a trace file's header cannot be read — [`SweepSpec::run`]
    /// preflights the whole file and [`Scenario::run_trial`] checks the
    /// header first, so this only fires when [`Scenario::fleet_plan`] is
    /// called directly on a bad path.
    pub fn tenant_loads(&self, trial: u64) -> Vec<TenantLoad> {
        match &self.workload {
            WorkloadSpec::Named(kind) => {
                let mut rng = DetRng::new(self.seed).derive(TRACE_STREAM).derive(trial);
                kind.generate(&self.params, &mut rng)
            }
            WorkloadSpec::Trace(path) => workloads::read_trace_header(path)
                .unwrap_or_else(|e| panic!("trace {path}: {e}"))
                .kinds
                .into_iter()
                .map(|kind| TenantLoad {
                    kind,
                    arrivals: Vec::new(),
                })
                .collect(),
        }
    }

    /// Jitter seed of host `h`: the flat tag `0x40 + h` below
    /// [`FLAT_HOSTS`], the nested stream `HOST_STREAM → h` from there up.
    pub(crate) fn host_seed(&self, h: usize) -> u64 {
        let root = DetRng::new(self.seed);
        if h < FLAT_HOSTS {
            root.derive(HOST_SEED_BASE + h as u64).seed()
        } else {
            root.derive(HOST_STREAM).derive(h as u64).seed()
        }
    }

    /// Jitter seed of the fleet's boot template.
    pub(crate) fn template_seed(&self) -> u64 {
        DetRng::new(self.seed)
            .derive(HOST_SEED_BASE + TEMPLATE_TAG)
            .seed()
    }

    /// Seed of the router's probe stream for one trial.
    pub fn router_seed(&self, trial: u64) -> u64 {
        DetRng::new(self.seed).derive(trial).seed()
    }

    /// Seed of the fleet's own streams (crash plan, reservoir) for one
    /// trial.
    pub(crate) fn fleet_seed(&self, trial: u64) -> u64 {
        DetRng::new(self.seed)
            .derive(FLEET_STREAM)
            .derive(trial)
            .seed()
    }

    /// The per-host base config every topology clones: one deployment
    /// slot per tenant (the fleet owns the traces).
    pub(crate) fn host_config(
        &self,
        tenants: &[TenantLoad],
        backend: BackendKind,
        seed: u64,
        trial: u64,
    ) -> SimConfig {
        SimConfig {
            backend,
            harvest: HarvestConfig::default(),
            vms: vec![crate::config::VmSpec {
                deployments: tenants
                    .iter()
                    .map(|t| crate::config::Deployment {
                        kind: t.kind,
                        concurrency: self.concurrency,
                    })
                    .collect(),
                vcpus: None,
            }],
            host_capacity: self.host_capacity,
            keepalive_s: self.keepalive_s,
            duration_s: self.params.duration_s,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial,
        }
    }

    /// Effective per-function SLO targets: [`default_slos`] over the
    /// workload's function kinds, with this spec's overrides applied.
    pub(crate) fn effective_slos(
        &self,
        kinds: impl IntoIterator<Item = FunctionKind>,
    ) -> Vec<(FunctionKind, f64)> {
        let mut slos = default_slos(kinds);
        for &(kind, target) in &self.slo {
            match slos.iter_mut().find(|(k, _)| *k == kind) {
                Some(entry) => entry.1 = target,
                None => slos.push((kind, target)),
            }
        }
        slos
    }

    /// Builds what one `(backend, trial)` cell runs on the fleet
    /// engine, whatever the topology — the one spec-to-engine builder:
    ///
    /// * `single-vm` is `cluster(1)` under the [`SingleHost`] router,
    ///   recording exact per-request latency points (the
    ///   Figure-9-style time-resolved view; multi-host topologies use
    ///   the bounded reservoir instead);
    /// * `cluster(n)` is a frozen fleet ([`FleetConfig::fixed`]) of `n`
    ///   identical hosts on derived jitter seeds, whose reservoir
    ///   stream derives from the first host's seed;
    /// * `fleet` provisions `max_hosts` up front under the `fixed`
    ///   policy (the static peak-capacity baseline) and `min_hosts`
    ///   under every other policy, which earns its capacity; the boot
    ///   template sits on its own seed tag so autoscaler-booted hosts
    ///   never share an initial host's jitter stream.
    pub fn fleet_plan(&self, backend: BackendKind, trial: u64) -> FleetPlan {
        let loads = self.tenant_loads(trial);
        let n = match self.topology {
            Topology::SingleVm => 1,
            Topology::Cluster(n) => n,
            Topology::Fleet if self.policy == PolicyKind::Fixed => self.max_hosts,
            Topology::Fleet => self.min_hosts,
        };
        let mut hosts: Vec<SimConfig> = (0..n)
            .map(|h| self.host_config(&loads, backend, self.host_seed(h), trial))
            .collect();
        hosts[0].record_latency_points = self.topology == Topology::SingleVm;
        let template = self.host_config(&loads, backend, self.template_seed(), trial);
        let slo = self.effective_slos(loads.iter().map(|t| t.kind));
        let tenants = loads
            .into_iter()
            .enumerate()
            .map(|(ti, t)| TenantTrace {
                vm: 0,
                dep: ti,
                arrivals: t.arrivals,
            })
            .collect();
        let cluster = ClusterConfig { hosts, tenants };
        let router = || self.router.build(self.router_seed(trial));
        match self.topology {
            Topology::SingleVm => FleetPlan {
                config: cluster.into_fixed_fleet(),
                router: Box::new(SingleHost),
                policy: Box::new(FixedFleet),
            },
            Topology::Cluster(_) => FleetPlan {
                config: cluster.into_fixed_fleet(),
                router: router(),
                policy: Box::new(FixedFleet),
            },
            Topology::Fleet => FleetPlan {
                config: FleetConfig {
                    initial_hosts: cluster.hosts,
                    template,
                    tenants: cluster.tenants,
                    autoscale: AutoscaleOpts {
                        min_hosts: n,
                        max_hosts: self.max_hosts,
                        boot_delay_s: self.boot_delay_s,
                        cooldown_s: self.cooldown_s,
                    },
                    failures: FailureConfig {
                        mtbf_s: self.mtbf_s,
                    },
                    slo,
                    seed: self.fleet_seed(trial),
                },
                router: router(),
                policy: self.policy.build(),
            },
        }
    }

    /// Boots `plan` on the fleet engine: a named workload's arrivals
    /// feed from its materialized lists ([`FleetSim::new`]), a
    /// `trace(<path>)` workload streams trial `trial` of the file
    /// ([`FleetSim::with_source`]).
    ///
    /// `Err` names `host_capacity` and carries the VMM error when the
    /// hosts cannot boot (e.g. a capacity below the VMs' boot memory),
    /// or names the trace file when it cannot be opened.
    pub fn boot(&self, plan: FleetPlan, trial: u64) -> Result<FleetSim, String> {
        let FleetPlan {
            config,
            router,
            policy,
        } = plan;
        let backend = config.template.backend;
        let sim = match &self.workload {
            WorkloadSpec::Named(_) => FleetSim::new(config, router, policy),
            WorkloadSpec::Trace(path) => {
                let source =
                    workloads::open_trace(path, trial).map_err(|e| format!("trace {path}: {e}"))?;
                FleetSim::with_source(config, router, policy, source, path)
            }
        };
        sim.map_err(|e| {
            format!(
                "scenario {:?}: hosts do not boot with host_capacity = {} ({} backend): {e}",
                self.name,
                format::render_bytes(self.host_capacity),
                backend.key()
            )
        })
    }

    /// Runs one `(backend, trial)` cell — the unit [`SweepSpec::run`]
    /// shards over the experiment engine: builds its
    /// [`Scenario::fleet_plan`], boots it, runs it and projects the
    /// result onto the topology's [`ScenarioOutcome`]. Streamed
    /// arrivals are never materialized, and their metrics are bounded.
    ///
    /// `Err` names the trace file when its header cannot be read or
    /// declares more tenants than a Squeezy VM's zone table holds or
    /// than fit one VM's 8 TiB hotplug region at this concurrency, is
    /// [`Scenario::boot`]'s, or names the trace file and line when a row
    /// fails to read mid-run
    /// ([`FleetResult::trace_error`](crate::FleetResult::trace_error)).
    pub fn run_trial(&self, backend: BackendKind, trial: u64) -> Result<ScenarioOutcome, String> {
        if let WorkloadSpec::Trace(path) = &self.workload {
            let header =
                workloads::read_trace_header(path).map_err(|e| format!("trace {path}: {e}"))?;
            self.check_slots(header.kinds.len())
                .and_then(|()| self.check_hotplug(header.kinds.len(), &header.kinds))
                .map_err(|e| format!("trace {path}: {e}"))?;
        }
        let mut result = self.boot(self.fleet_plan(backend, trial), trial)?.run();
        if let Some(e) = result.trace_error.take() {
            return Err(e);
        }
        Ok(ScenarioOutcome::new(self.topology, backend, trial, result))
    }
}

/// What one scenario cell runs on the fleet engine, as
/// [`Scenario::fleet_plan`] builds it and [`Scenario::boot`] boots it.
pub struct FleetPlan {
    /// The hosts, tenant traces and control-plane knobs.
    pub config: FleetConfig,
    /// Routes each arrival to a host.
    pub router: Box<dyn Router>,
    /// Grows and shrinks the fleet ([`FixedFleet`] outside the fleet
    /// topology).
    pub policy: Box<dyn AutoscalePolicy>,
}

/// The registry listing `repro scenarios` prints: every name the spec
/// format resolves, with one-line workload descriptions and the full
/// key set.
pub fn registry_help() -> String {
    let mut out = String::from("Scenario registry — the names a spec file may use\n\n");
    out.push_str("topologies:  single-vm, cluster(N), fleet\n");
    out.push_str("workloads:\n");
    for w in WorkloadKind::ALL {
        out.push_str(&format!("  {:<13} {}\n", w.key(), w.describe()));
    }
    out.push_str(
        "  trace(<path>) replay a trace file lazily from disk (azure-minute or opendc; \
         write one with `repro gen-trace`)\n",
    );
    let keys = |items: Vec<&'static str>| items.join(", ");
    out.push_str(&format!(
        "backends:    {}\n",
        keys(BackendKind::ALL.iter().map(|b| b.key()).collect())
    ));
    out.push_str(&format!(
        "routers:     {}\n",
        keys(RouterKind::ALL.iter().map(|r| r.key()).collect())
    ));
    out.push_str(&format!(
        "policies:    {}\n",
        keys(PolicyKind::ALL.iter().map(|p| p.key()).collect())
    ));
    out.push_str("\nspec keys (line-oriented `key = value`, `#` comments):\n  ");
    out.push_str(&format::KEYS.join(", "));
    out.push_str("\n  plus per-function SLO overrides: ");
    let slo_keys: Vec<String> = FunctionKind::ALL
        .iter()
        .map(|k| format!("slo.{}", k.key()))
        .collect();
    out.push_str(&slo_keys.join(", "));
    out.push('\n');
    out.push_str(
        "\nsweep axes — any of these keys also accepts a list `a, b, c` or a range \
         `lo..hi step N` / `lo..hi step Nx` (multiplicative), expanding the spec into a \
         named grid of cells:\n  ",
    );
    out.push_str(&sweep::SWEEPABLE.join(", "));
    out.push_str(
        "\n  (`hosts` sweeps cluster size or fleet max_hosts; a `backend` list sweeps \
         as before, crossed in as the outermost grid dimension)\n",
    );
    out.push_str(
        "\nexpectation gates (evaluated per cell after the run; `repro run` exits \
         nonzero when one fails):\n",
    );
    for e in expect::ExpectKind::ALL {
        out.push_str(&format!("  {:<22} {}\n", e.key(), e.describe()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_keys_round_trip() {
        for t in [Topology::SingleVm, Topology::Cluster(7), Topology::Fleet] {
            assert_eq!(Topology::from_key(&t.key()), Ok(t));
        }
        assert!(Topology::from_key("cluster(x)").is_err());
        assert!(Topology::from_key("mesh").unwrap_err().contains("fleet"));
    }

    #[test]
    fn validate_collects_every_problem() {
        let mut s = Scenario::new("bad", Topology::Fleet, WorkloadKind::Diurnal);
        s.params.rps = -1.0;
        s.params.trough_rps = 5.0;
        s.min_hosts = 3;
        s.max_hosts = 2;
        s.trials = 0;
        let err = s.validate().unwrap_err();
        assert!(err.contains("rps must be positive"), "{err}");
        assert!(
            err.contains("max_hosts (2) must be ≥ min_hosts (3)"),
            "{err}"
        );
        assert!(err.contains("trials must be ≥ 1"), "{err}");
    }

    #[test]
    fn validate_rejects_unroundtrippable_names_and_host_counts_above_the_bound() {
        let mut s = Scenario::new(
            " padded ",
            Topology::Cluster(MAX_HOSTS + 1),
            WorkloadKind::ZipfCluster,
        );
        let err = s.validate().unwrap_err();
        assert!(err.contains("without leading/trailing whitespace"), "{err}");
        assert!(
            err.contains(&format!("topology cluster({})", MAX_HOSTS + 1)),
            "{err}"
        );
        s = Scenario::new("multi\nline", Topology::Fleet, WorkloadKind::Diurnal);
        s.max_hosts = MAX_HOSTS + 1;
        let err = s.validate().unwrap_err();
        assert!(err.contains("single-line"), "{err}");
        assert!(
            err.contains(&format!("max_hosts must be ≤ {MAX_HOSTS}")),
            "{err}"
        );
        s.max_hosts = MAX_HOSTS;
        s.name = "ok".to_string();
        s.validate().expect("max_hosts at the bound");
    }

    #[test]
    fn a_thousand_host_cluster_validates() {
        let mut s = Scenario::new("big", Topology::Cluster(1000), WorkloadKind::Drumbeat);
        s.validate().expect("1000 hosts are within the bound");
        s.topology = Topology::Cluster(MAX_HOSTS);
        s.validate().expect("at the bound");
    }

    #[test]
    fn flat_host_seeds_keep_their_tags() {
        let s = Scenario::new("seeds", Topology::Cluster(32), WorkloadKind::Churn);
        for h in 0..32 {
            assert_eq!(
                s.host_seed(h),
                DetRng::new(42).derive(0x40 + h as u64).seed()
            );
        }
        assert_eq!(s.template_seed(), DetRng::new(42).derive(0x7E).seed());
    }

    #[test]
    fn no_two_host_or_stream_seeds_coincide() {
        let s = Scenario::new("seeds", Topology::Cluster(2), WorkloadKind::Churn);
        let root = DetRng::new(s.seed);
        let mut seeds: Vec<u64> = (0..MAX_HOSTS).map(|h| s.host_seed(h)).collect();
        seeds.extend([
            s.template_seed(),
            root.derive(TRACE_STREAM).seed(),
            root.derive(FLEET_STREAM).seed(),
        ]);
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "a host seed aliases another stream");
    }

    #[test]
    fn validate_caps_offered_work() {
        // Diurnal draws candidates at rps × burst_factor and thins them.
        let mut d = Scenario::new("d", Topology::Cluster(2), WorkloadKind::Diurnal);
        d.params.rps = 1.0;
        d.params.trough_rps = 0.5;
        d.params.duration_s = 30.0;
        d.params.burst_factor = 1e12;
        let err = d.validate().unwrap_err();
        assert!(err.contains("rps × burst_factor × duration_s"), "{err}");
        assert!(err.contains("above the cap"), "{err}");
        // Azure-trace and zipf-cluster tenants burst at 4× their share.
        for kind in [WorkloadKind::AzureTrace, WorkloadKind::ZipfCluster] {
            let mut a = Scenario::new("a", Topology::Cluster(2), kind);
            a.params.duration_s = 100.0;
            a.params.rps = MAX_OFFERED_INVOCATIONS / 400.0;
            a.validate().expect("at the cap");
            a.params.rps = MAX_OFFERED_INVOCATIONS / 100.0;
            let err = a.validate().unwrap_err();
            assert!(err.contains("4 × rps × duration_s"), "{err}");
        }
        let mut s = Scenario::new("hot", Topology::Cluster(2), WorkloadKind::Churn);
        s.params.duration_s = 30.0;
        s.params.rps = 1e12;
        let err = s.validate().unwrap_err();
        assert!(err.contains("rps × duration_s"), "{err}");
        assert!(err.contains("above the cap"), "{err}");
        // Exactly at the cap passes; just above it fails.
        s.params.duration_s = 100.0;
        s.params.rps = MAX_OFFERED_INVOCATIONS / 100.0;
        s.validate().expect("at the cap");
        s.params.rps *= 1.0 + 1e-9;
        assert!(s.validate().is_err());
        // Non-finite products are caught by the positivity checks and
        // this one alike.
        s.params.rps = f64::INFINITY;
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("rps must be positive") && err.contains("above the cap"),
            "{err}"
        );
        // A trace replay's arrivals come from its file, not rps.
        let mut t = Scenario::new("t", Topology::SingleVm, WorkloadSpec::Trace("x.csv".into()));
        t.params.duration_s = 1e9;
        t.validate()
            .expect("trace workloads are not held to rps × duration_s");
    }

    #[test]
    fn validate_caps_every_time_valued_key() {
        // A rate low enough that `duration_s` at the cap stays under
        // the arrival cap.
        let fleet = || {
            let mut s = Scenario::new("f", Topology::Fleet, WorkloadKind::Diurnal);
            s.params.rps = 1e-3;
            s.params.trough_rps = 1e-3;
            s
        };
        fleet().validate().expect("defaults are valid");
        let set = |s: &mut Scenario, key: &str, v: f64| match key {
            "duration_s" => s.params.duration_s = v,
            "period_s" => s.params.period_s = v,
            "keepalive_s" => s.keepalive_s = v,
            "boot_delay_s" => s.boot_delay_s = v,
            "cooldown_s" => s.cooldown_s = v,
            "mtbf_s" => s.mtbf_s = v,
            _ => unreachable!("{key}"),
        };
        for key in [
            "duration_s",
            "period_s",
            "keepalive_s",
            "boot_delay_s",
            "cooldown_s",
            "mtbf_s",
        ] {
            let mut s = fleet();
            set(&mut s, key, MAX_TIME_S);
            s.validate()
                .unwrap_or_else(|e| panic!("{key} at the cap: {e}"));
            set(&mut s, key, 1e12);
            let err = s.validate().unwrap_err();
            assert!(err.contains(&format!("{key} must be ≤ 1e9 s")), "{err}");
        }
        // The committed spec with a keep-alive past the end of time is
        // rejected at parse time, naming the key.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/fleet_slam.scn"
        );
        let text = std::fs::read_to_string(path).expect("committed spec");
        assert!(text.contains("keepalive_s = 20.0\n"));
        let text = text.replace("keepalive_s = 20.0\n", "keepalive_s = 1e12\n");
        let err = SweepSpec::parse(&text).unwrap_err();
        assert!(err.contains("keepalive_s must be ≤ 1e9 s"), "{err}");
    }

    #[test]
    fn validate_caps_squeezy_slots_per_vm() {
        assert_eq!(MAX_SQUEEZY_SLOTS, 252);
        let mut s = Scenario::new("z", Topology::Fleet, WorkloadKind::Diurnal);
        s.concurrency = 2;
        for backend in [BackendKind::Squeezy, BackendKind::SqueezySoft] {
            s.backends = vec![BackendKind::VirtioMem, backend];
            s.params.tenants = 126;
            s.validate().expect("252 slots fit");
            s.params.tenants = 127;
            let err = s.validate().unwrap_err();
            assert!(
                err.contains("tenants × concurrency = 127 × 2 = 254"),
                "{err}"
            );
        }
        s.backends = vec![BackendKind::VirtioMem];
        s.validate().expect("virtio-mem has no per-slot zones");
        // A trace declares its tenants in its header.
        let kinds = vec!["html"; 127].join(", ");
        let text = format!(
            "# squeezy-trace v1 azure-minute\n# seed = 0x1\n# tenants = {kinds}\nminute,tenant,count\n0,0,1\n"
        );
        let path = std::env::temp_dir().join(format!("wide-{}.csv", std::process::id()));
        std::fs::write(&path, text).expect("write trace");
        let path = path.to_string_lossy().into_owned();
        let t = Scenario::new(
            "wide",
            Topology::SingleVm,
            WorkloadSpec::Trace(path.clone()),
        );
        t.validate().expect("the header is read at run time");
        let err = t.run_trial(BackendKind::Squeezy, 0).err();
        std::fs::remove_file(&path).expect("remove trace");
        let err = err.expect("127 tenants overflow the zone table");
        assert!(err.contains("tenants × concurrency = 127 × 2"), "{err}");
    }

    #[test]
    fn validate_caps_the_hotplug_region_per_vm() {
        let mut s = Scenario::new("h", Topology::Fleet, WorkloadKind::Diurnal);
        s.backends = vec![BackendKind::VirtioMem];
        s.params.tenants = 5;
        // Five tenants at the largest limit (1536 MiB): 1092 fit 8 TiB.
        s.concurrency = 1_092;
        s.validate().expect("at the cap");
        s.concurrency = 1_093;
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("tenants × concurrency × memory limit = 5 × 1093 × 1536 MiB = 8197.5 GiB"),
            "{err}"
        );
        // A trace's region is sized by its header's kinds.
        let text = "# squeezy-trace v1 azure-minute\n# seed = 0x1\n# tenants = html, cnn\n\
                    minute,tenant,count\n0,0,1\n";
        let path = std::env::temp_dir().join(format!("region-{}.csv", std::process::id()));
        std::fs::write(&path, text).expect("write trace");
        let mut t = Scenario::new(
            "region",
            Topology::SingleVm,
            WorkloadSpec::Trace(path.to_string_lossy().into_owned()),
        );
        t.backends = vec![BackendKind::VirtioMem];
        t.params.duration_s = 60.0;
        t.concurrency = 5_461;
        t.validate().expect("the header is read at run time");
        let fits = t.run_trial(BackendKind::VirtioMem, 0).map(|o| o.completed);
        t.concurrency = 5_462;
        let err = t.run_trial(BackendKind::VirtioMem, 0).err();
        std::fs::remove_file(&path).expect("remove trace");
        assert_eq!(fits, Ok(1), "2 × 5461 × 768 MiB fit the cap");
        let err = err.expect("2 × 5462 × 768 MiB do not");
        assert!(err.contains("= 2 × 5462 × 768 MiB = 8193.0 GiB"), "{err}");
    }

    #[test]
    fn validate_caps_the_expected_crash_count() {
        let mut s = Scenario::new("c", Topology::Fleet, WorkloadKind::Diurnal);
        s.params.duration_s = 300.0;
        s.mtbf_s = 300.0 / MAX_EXPECTED_CRASHES;
        s.validate().expect("at the cap");
        s.mtbf_s = 1e-9;
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("duration_s / mtbf_s expects 3.000e11"),
            "{err}"
        );
        assert!(err.contains("mtbf_s = 0.000000001"), "{err}");
        // Outside the fleet topology nothing crashes.
        s.topology = Topology::Cluster(2);
        s.validate().expect("crashes are a fleet feature");
    }

    #[test]
    fn committed_specs_and_sweep_cells_validate() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
        let mut specs = 0;
        for entry in std::fs::read_dir(dir).expect("examples/scenarios is committed") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "scn") {
                let text = std::fs::read_to_string(&path).unwrap();
                // Parsing a sweep validates every expanded cell.
                let spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                for cell in spec.cells() {
                    let drawn = cell.scenario.arrival_envelope().map_or(0.0, |(n, _)| n);
                    assert!(drawn <= MAX_OFFERED_INVOCATIONS, "{path:?}");
                }
                specs += 1;
            }
        }
        assert!(specs >= 10, "found {specs} committed specs");
    }

    #[test]
    fn validate_accepts_the_defaults() {
        for topo in [Topology::SingleVm, Topology::Cluster(2), Topology::Fleet] {
            for w in WorkloadKind::ALL {
                Scenario::new("ok", topo, w).validate().expect("valid");
            }
        }
    }

    #[test]
    fn quick_caps_duration_and_trials() {
        let mut s = Scenario::new("q", Topology::Fleet, WorkloadKind::Diurnal);
        s.params.duration_s = 600.0;
        s.params.period_s = 600.0;
        s.trials = 5;
        let q = s.quick();
        assert_eq!(q.params.duration_s, 120.0);
        assert_eq!(q.params.period_s, 120.0, "quick still sees a full cycle");
        assert_eq!(q.trials, 1);
        // Already-small durations are untouched.
        let mut small = Scenario::new("s", Topology::SingleVm, WorkloadKind::AzureTrace);
        small.params.duration_s = 60.0;
        small.params.period_s = 60.0;
        assert_eq!(small.quick(), small);
    }

    #[test]
    fn a_trace_row_that_fails_mid_run_ends_the_trial_with_an_error() {
        // Four good minutes, then a malformed row on line 9. Driving
        // `run_trial` directly skips the preflight `SweepSpec::run`
        // does, as a file changed during the run would.
        let mut text = String::from(
            "# squeezy-trace v1 azure-minute\n# seed = 0x1\n# tenants = html\nminute,tenant,count\n",
        );
        for minute in 0..4 {
            text.push_str(&format!("{minute},0,3\n"));
        }
        text.push_str("4,0,three\n");
        let path = std::env::temp_dir().join(format!("bad-row-{}.csv", std::process::id()));
        std::fs::write(&path, text).expect("write trace");
        let path = path.to_string_lossy().into_owned();
        let mut s = Scenario::new("bad", Topology::SingleVm, WorkloadSpec::Trace(path.clone()));
        s.params.duration_s = 600.0;
        let err = s.run_trial(BackendKind::Squeezy, 0).err();
        std::fs::remove_file(&path).expect("remove trace");
        let err = err.expect("the bad row is an error");
        assert!(err.contains(&format!("trace {path}: line 9:")), "{err}");
    }

    #[test]
    fn a_missing_trace_file_is_an_error_not_a_panic() {
        let path = "/nonexistent/x.csv";
        let s = Scenario::new("gone", Topology::SingleVm, WorkloadSpec::Trace(path.into()));
        let err = s.run_trial(BackendKind::Squeezy, 0).err();
        let err = err.expect("a missing trace is an error");
        assert!(err.starts_with(&format!("trace {path}: ")), "{err}");
    }

    #[test]
    fn traces_are_paired_across_backends_and_independent_across_trials() {
        let s = Scenario::new("t", Topology::Cluster(2), WorkloadKind::ZipfCluster);
        let a = s.tenant_loads(0);
        let b = s.tenant_loads(0);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.arrivals, tb.arrivals);
        }
        let c = s.tenant_loads(1);
        assert_ne!(
            a.iter().map(|t| t.arrivals.len()).sum::<usize>(),
            usize::MAX,
            "sanity"
        );
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.arrivals != y.arrivals),
            "trials draw distinct traces"
        );
    }

    #[test]
    fn effective_slos_apply_overrides() {
        let mut s = Scenario::new("slo", Topology::Fleet, WorkloadKind::Diurnal);
        s.slo = vec![(FunctionKind::Html, 99.0)];
        let slos = s.effective_slos([FunctionKind::Html, FunctionKind::Cnn]);
        let get = |k| slos.iter().find(|(kk, _)| *kk == k).unwrap().1;
        assert_eq!(get(FunctionKind::Html), 99.0, "override wins");
        assert!(get(FunctionKind::Cnn) > 300.0, "default kept");
    }

    #[test]
    fn registry_help_lists_everything() {
        let help = registry_help();
        for needle in [
            "single-vm",
            "cluster(N)",
            "fleet",
            "diurnal",
            "squeezy-soft",
            "power-of-two",
            "slam-slo",
            "host_capacity",
            "slo.bert",
            "hosts",
            "lo..hi step N",
            "expect.p99_ms_max",
            "expect.slo_viol_max",
            "expect.completion_min",
        ] {
            assert!(help.contains(needle), "missing {needle} in:\n{help}");
        }
        // Help is sourced from the registries, so every gate is listed.
        for e in expect::ExpectKind::ALL {
            assert!(help.contains(e.key()), "missing {} in help", e.key());
        }
    }
}
