//! Autoscaling policies: the fleet's control plane.
//!
//! An [`AutoscalePolicy`] looks at a [`FleetView`] — per-host load
//! snapshots plus the latency observations since the last tick — and
//! decides whether the fleet should grow, shrink, or hold. The fleet
//! simulator clamps every decision to `[min_hosts, max_hosts]`,
//! enforces a cooldown between actions, and turns "shrink" into a
//! graceful drain, so policies only express intent.
//!
//! Three production-shaped policies ship here:
//!
//! * [`TargetUtilization`] — classic proportional control toward a
//!   target busy-slot fraction (what most FaaS fleet managers run);
//! * [`QueueDepth`] — reactive: grow when requests queue, shrink when
//!   the fleet idles (fast to react, blind to latency);
//! * [`SlamSlo`] — SLAM-style (IEEE CLOUD'22) SLO-aware sizing: grow
//!   when any function's observed tail latency breaches its target,
//!   shrink only when every function is comfortably inside it. This is
//!   the policy that exposes the paper's fleet-level claim: a backend
//!   with cheaper cold starts meets the same SLO with fewer hosts.
//!
//! [`FixedFleet`] disables the loop entirely ([`AutoscalePolicy::period_s`]
//! returns `None`), which is the mode the `FleetSim ≡ ClusterSim`
//! equivalence property runs in.

use workloads::FunctionKind;

use crate::cluster::HostLoad;

/// What the control loop decides at one tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Leave the fleet as it is.
    Hold,
    /// Boot this many additional hosts.
    Up(u32),
    /// Gracefully drain this many hosts.
    Down(u32),
}

/// One `(kind, latency_ms)` completion observed since the last tick.
pub type LatencyObs = (FunctionKind, f64);

/// The deterministic snapshot a policy decides from.
pub struct FleetView<'a> {
    /// Simulation time of the tick, in seconds.
    pub now_s: f64,
    /// Load snapshots of the routable (Active) hosts, via the same
    /// [`HostLoad`] helper the routers read.
    pub active: &'a [HostLoad],
    /// Hosts currently provisioning (booted but not yet routable).
    pub booting: usize,
    /// Hosts draining toward retirement.
    pub draining: usize,
    /// Instance slots per host (Σ deployment concurrency): the
    /// capacity unit utilization is measured against.
    pub slots_per_host: usize,
    /// Completions observed since the previous tick.
    pub recent: &'a [LatencyObs],
    /// Per-function latency targets in milliseconds.
    pub slo: &'a [(FunctionKind, f64)],
}

impl FleetView<'_> {
    /// Hosts that are (or will shortly be) serving: active + booting.
    pub(crate) fn provisioned(&self) -> usize {
        self.active.len() + self.booting
    }

    /// Requests queued across the active hosts.
    pub(crate) fn queued(&self) -> usize {
        self.active.iter().map(|h| h.queued).sum()
    }

    /// Busy/starting instances across the active hosts.
    pub(crate) fn busy(&self) -> usize {
        self.active.iter().map(|h| h.active).sum()
    }

    /// Fraction of provisioned instance slots doing work (queued
    /// requests count: they represent demand the slots owe). Can
    /// exceed 1.0 under overload; 0 when nothing is provisioned.
    pub(crate) fn utilization(&self) -> f64 {
        let slots = (self.provisioned() * self.slots_per_host).max(1);
        (self.busy() + self.queued()) as f64 / slots as f64
    }

    /// Observed p99 (nearest-rank over the tick window) per function
    /// kind, for the kinds with at least one observation.
    pub(crate) fn recent_p99_by_kind(&self) -> Vec<(FunctionKind, f64)> {
        let mut out: Vec<(FunctionKind, f64)> = Vec::new();
        for &(kind, _) in self.slo {
            let mut lats: Vec<f64> = self
                .recent
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|&(_, l)| l)
                .collect();
            if lats.is_empty() {
                continue;
            }
            lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let rank = ((lats.len() as f64) * 0.99).ceil() as usize;
            out.push((kind, lats[rank.saturating_sub(1).min(lats.len() - 1)]));
        }
        out
    }
}

/// Decides, every `period_s`, how the host fleet should change.
///
/// Implementations must be deterministic functions of the view and
/// their own state: fleet reproducibility (and `--jobs` byte-identity
/// of the bench tables) depends on it.
pub trait AutoscalePolicy {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// Control-loop period in seconds. `None` disables the loop — no
    /// tick events are ever scheduled, which keeps a fixed fleet's
    /// event stream byte-identical to [`crate::ClusterSim`]'s.
    fn period_s(&self) -> Option<f64>;

    /// One control tick.
    fn decide(&mut self, view: &FleetView) -> ScaleDecision;
}

/// The autoscale-policy registry: construction recipes addressable by
/// the string key scenario specs and result tables use.
///
/// Policies are stateful, so grids and scenarios carry a `PolicyKind`
/// and build a fresh instance per run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Frozen fleet — the static peak-capacity baseline every elastic
    /// policy is judged against (and the `FleetSim ≡ ClusterSim`
    /// equivalence mode).
    Fixed,
    TargetUtil,
    QueueDepth,
    SlamSlo,
}

impl PolicyKind {
    /// All policies, in table order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fixed,
        PolicyKind::TargetUtil,
        PolicyKind::QueueDepth,
        PolicyKind::SlamSlo,
    ];

    /// Registry key — the policy's own display name, so spec files and
    /// result tables cannot drift from the implementations.
    pub fn key(self) -> &'static str {
        self.build().name()
    }

    /// Looks a policy up by key; `Err` carries the full list of valid
    /// keys.
    pub(crate) fn from_key(key: &str) -> Result<PolicyKind, String> {
        sim_core::registry::lookup("policy", &PolicyKind::ALL, PolicyKind::key, key)
    }

    /// Builds a fresh policy instance (bench defaults).
    pub fn build(self) -> Box<dyn AutoscalePolicy> {
        match self {
            PolicyKind::Fixed => Box::new(FixedFleet),
            PolicyKind::TargetUtil => Box::new(TargetUtilization::default_policy()),
            PolicyKind::QueueDepth => Box::new(QueueDepth::default_policy()),
            PolicyKind::SlamSlo => Box::new(SlamSlo::default_policy()),
        }
    }
}

/// No autoscaling: the host set never changes (except for injected
/// failures). The equivalence-property mode and the bench baseline.
pub struct FixedFleet;

impl AutoscalePolicy for FixedFleet {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn period_s(&self) -> Option<f64> {
        None
    }

    fn decide(&mut self, _view: &FleetView) -> ScaleDecision {
        ScaleDecision::Hold
    }
}

/// Proportional control toward a target slot utilization.
///
/// Sizes the fleet to `ceil(demand / (target × slots_per_host))` hosts,
/// where demand = busy instances + queued requests, with a ±1-host
/// deadband so measurement noise doesn't flap the fleet.
pub struct TargetUtilization {
    /// Desired busy fraction of provisioned slots (0 < target ≤ 1).
    pub target: f64,
    /// Control period in seconds.
    pub period: f64,
}

impl TargetUtilization {
    /// The bench default: 60% target, 5 s ticks.
    pub(crate) fn default_policy() -> Self {
        TargetUtilization {
            target: 0.6,
            period: 5.0,
        }
    }
}

impl AutoscalePolicy for TargetUtilization {
    fn name(&self) -> &'static str {
        "target-util"
    }

    fn period_s(&self) -> Option<f64> {
        Some(self.period)
    }

    fn decide(&mut self, view: &FleetView) -> ScaleDecision {
        let demand = (view.busy() + view.queued()) as f64;
        let per_host = self.target * view.slots_per_host as f64;
        let desired = (demand / per_host).ceil().max(1.0) as usize;
        let have = view.provisioned();
        if desired > have {
            ScaleDecision::Up((desired - have) as u32)
        } else if desired + 1 < have {
            // Deadband: only shrink past a one-host slack margin.
            ScaleDecision::Down((have - desired - 1).max(1) as u32)
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Reactive queue-depth control: grow while requests wait, shrink one
/// host at a time when the fleet idles.
pub struct QueueDepth {
    /// Queued requests per active host that trigger a scale-up.
    pub high: f64,
    /// Utilization below which an empty-queue fleet sheds one host.
    pub idle_util: f64,
    /// Control period in seconds.
    pub period: f64,
}

impl QueueDepth {
    /// The bench default: grow at 2 queued/host, shrink under 30%
    /// utilization, 5 s ticks.
    pub(crate) fn default_policy() -> Self {
        QueueDepth {
            high: 2.0,
            idle_util: 0.3,
            period: 5.0,
        }
    }
}

impl AutoscalePolicy for QueueDepth {
    fn name(&self) -> &'static str {
        "queue-depth"
    }

    fn period_s(&self) -> Option<f64> {
        Some(self.period)
    }

    fn decide(&mut self, view: &FleetView) -> ScaleDecision {
        let queued = view.queued() as f64;
        let hosts = view.active.len().max(1) as f64;
        if queued > self.high * hosts {
            // One new host per `high` excess queued requests.
            let excess = queued - self.high * hosts;
            return ScaleDecision::Up((excess / self.high).ceil().max(1.0) as u32);
        }
        if view.queued() == 0 && view.utilization() < self.idle_util && view.booting == 0 {
            return ScaleDecision::Down(1);
        }
        ScaleDecision::Hold
    }
}

/// SLAM-style SLO-aware sizing, after "SLAM: SLO-Aware Memory
/// Allocation" (IEEE CLOUD'22): per-function latency targets drive the
/// fleet size directly.
///
/// Grow when any function's observed tail latency breaches its target;
/// shrink only when *every* function sits inside `shrink_margin` of
/// its target and utilization is low — conservative down, aggressive
/// up, the shape SLO-bound operators actually run.
pub struct SlamSlo {
    /// Fraction of the SLO below which a function counts as
    /// comfortable (e.g. 0.5 = p99 under half its target).
    pub shrink_margin: f64,
    /// Utilization gate for shrinking.
    pub idle_util: f64,
    /// Minimum completions in the window before latency is trusted.
    pub min_window: usize,
    /// Control period in seconds.
    pub period: f64,
}

impl SlamSlo {
    /// The bench default: shrink under 50% of target and 40%
    /// utilization, trust windows of ≥ 5 completions, 5 s ticks.
    pub fn default_policy() -> Self {
        SlamSlo {
            shrink_margin: 0.5,
            idle_util: 0.4,
            min_window: 5,
            period: 5.0,
        }
    }

    fn target_of(slo: &[(FunctionKind, f64)], kind: FunctionKind) -> Option<f64> {
        slo.iter().find(|(k, _)| *k == kind).map(|&(_, t)| t)
    }
}

impl AutoscalePolicy for SlamSlo {
    fn name(&self) -> &'static str {
        "slam-slo"
    }

    fn period_s(&self) -> Option<f64> {
        Some(self.period)
    }

    fn decide(&mut self, view: &FleetView) -> ScaleDecision {
        let p99s = view.recent_p99_by_kind();
        let violated = p99s
            .iter()
            .filter(|&&(kind, p99)| Self::target_of(view.slo, kind).is_some_and(|t| p99 > t))
            .count();
        // Growing needs a trustworthy window: a single unlucky request
        // in a sparse tick must not boot a host.
        if violated > 0 && view.recent.len() >= self.min_window {
            // Scale with the breadth of the violation: one host per
            // two violating functions, at least one.
            return ScaleDecision::Up(violated.div_ceil(2) as u32);
        }
        // Shrinking needs the opposite: sparse windows are exactly what
        // the post-peak trough looks like (a few comfortable
        // completions per tick), so any breach-free window — including
        // an empty one, where no latency can breach anything — may shed
        // a host once the fleet idles. Requiring a full window here
        // would pin the fleet at peak size all night.
        let all_comfortable = p99s.iter().all(|&(kind, p99)| {
            Self::target_of(view.slo, kind).is_some_and(|t| p99 < t * self.shrink_margin)
        });
        if violated == 0
            && all_comfortable
            && view.utilization() < self.idle_util
            && view.booting == 0
        {
            return ScaleDecision::Down(1);
        }
        ScaleDecision::Hold
    }
}

/// Default per-function latency SLOs in milliseconds: four times the
/// uncontended warm-path latency (`exec_cpu_s / vcpu_shares`) plus a
/// flat 300 ms budget — tight enough that queueing or a slow cold
/// start breaches it, loose enough that a warm fleet never does.
pub fn default_slos(kinds: impl IntoIterator<Item = FunctionKind>) -> Vec<(FunctionKind, f64)> {
    let mut out: Vec<(FunctionKind, f64)> = Vec::new();
    for kind in kinds {
        if out.iter().any(|(k, _)| *k == kind) {
            continue;
        }
        let p = kind.profile();
        let warm_ms = p.exec_cpu_s / p.vcpu_shares * 1000.0;
        out.push((kind, 4.0 * warm_ms + 300.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(queued: usize, active: usize) -> HostLoad {
        HostLoad {
            warm_idle: 0,
            alive: active,
            queued,
            active,
            free_bytes: 0,
        }
    }

    fn view<'a>(
        active: &'a [HostLoad],
        recent: &'a [LatencyObs],
        slo: &'a [(FunctionKind, f64)],
    ) -> FleetView<'a> {
        FleetView {
            now_s: 100.0,
            active,
            booting: 0,
            draining: 0,
            slots_per_host: 4,
            recent,
            slo,
        }
    }

    #[test]
    fn fixed_fleet_never_scales() {
        let hosts = [load(50, 4)];
        let mut p = FixedFleet;
        assert_eq!(p.period_s(), None);
        assert_eq!(p.decide(&view(&hosts, &[], &[])), ScaleDecision::Hold);
    }

    #[test]
    fn target_utilization_tracks_demand() {
        let mut p = TargetUtilization::default_policy();
        // demand 12 over 1 host of 4 slots at 60% → desired ceil(12/2.4)=5.
        let hot = [load(8, 4)];
        assert_eq!(p.decide(&view(&hot, &[], &[])), ScaleDecision::Up(4));
        // Demand 1 over 4 hosts → desired 1, deadband leaves 2.
        let cold = [load(0, 1), load(0, 0), load(0, 0), load(0, 0)];
        assert_eq!(p.decide(&view(&cold, &[], &[])), ScaleDecision::Down(2));
        // In-band (demand 4 → desired ceil(4/2.4) = 2 = have): hold.
        let ok = [load(0, 2), load(0, 2)];
        assert_eq!(p.decide(&view(&ok, &[], &[])), ScaleDecision::Hold);
    }

    #[test]
    fn queue_depth_reacts_to_backlog_and_idleness() {
        let mut p = QueueDepth::default_policy();
        let backed_up = [load(7, 4)];
        assert_eq!(p.decide(&view(&backed_up, &[], &[])), ScaleDecision::Up(3));
        let idle = [load(0, 0), load(0, 1)];
        assert_eq!(p.decide(&view(&idle, &[], &[])), ScaleDecision::Down(1));
        let busy = [load(0, 4)];
        assert_eq!(p.decide(&view(&busy, &[], &[])), ScaleDecision::Hold);
    }

    #[test]
    fn slam_scales_up_on_slo_breach_only() {
        let slo = default_slos([FunctionKind::Html]);
        let target = slo[0].1;
        let mut p = SlamSlo::default_policy();
        let hosts = [load(1, 2)];
        let bad: Vec<LatencyObs> = (0..10)
            .map(|_| (FunctionKind::Html, target * 2.0))
            .collect();
        assert_eq!(p.decide(&view(&hosts, &bad, &slo)), ScaleDecision::Up(1));
        // Comfortable latencies + low utilization → shrink.
        let idle_hosts = [load(0, 0), load(0, 1)];
        let good: Vec<LatencyObs> = (0..10)
            .map(|_| (FunctionKind::Html, target * 0.2))
            .collect();
        assert_eq!(
            p.decide(&view(&idle_hosts, &good, &slo)),
            ScaleDecision::Down(1)
        );
        // Comfortable latencies but hot fleet → hold.
        let hot = [load(3, 4)];
        assert_eq!(p.decide(&view(&hot, &good, &slo)), ScaleDecision::Hold);
    }

    #[test]
    fn slam_sheds_an_idle_silent_fleet() {
        let slo = default_slos([FunctionKind::Html]);
        let mut p = SlamSlo::default_policy();
        let idle = [load(0, 0), load(0, 0)];
        assert_eq!(p.decide(&view(&idle, &[], &slo)), ScaleDecision::Down(1));
    }

    #[test]
    fn default_slos_scale_with_the_warm_path() {
        let slos = default_slos(FunctionKind::ALL);
        assert_eq!(slos.len(), 4);
        let get = |k: FunctionKind| slos.iter().find(|(kk, _)| *kk == k).unwrap().1;
        // HTML warm ≈ 220 ms → 1180 ms; Bert warm ≈ 800 ms → 3500 ms.
        assert!((get(FunctionKind::Html) - 1180.0).abs() < 1.0);
        assert!((get(FunctionKind::Bert) - 3500.0).abs() < 1.0);
        assert!(get(FunctionKind::Bert) > get(FunctionKind::Html));
        // Duplicate kinds collapse.
        assert_eq!(
            default_slos([FunctionKind::Html, FunctionKind::Html]).len(),
            1
        );
    }

    #[test]
    fn policy_registry_round_trips() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_key(p.key()), Ok(p));
        }
        let err = PolicyKind::from_key("slam").unwrap_err();
        assert!(err.contains("slam-slo"), "error lists keys: {err}");
        assert_eq!(PolicyKind::Fixed.key(), "fixed");
        assert_eq!(PolicyKind::TargetUtil.key(), "target-util");
    }

    #[test]
    fn view_statistics() {
        let hosts = [load(2, 3), load(0, 1)];
        let v = FleetView {
            booting: 1,
            ..view(&hosts, &[], &[])
        };
        assert_eq!(v.provisioned(), 3);
        assert_eq!(v.queued(), 2);
        assert_eq!(v.busy(), 4);
        // (4 busy + 2 queued) / (3 hosts × 4 slots).
        assert!((v.utilization() - 0.5).abs() < 1e-9);
    }
}
