//! Request routing policies for the cluster simulator.
//!
//! A [`Router`] maps each arriving request to a host, deterministically,
//! from a snapshot of per-host load ([`HostLoad`]). Ties always break
//! toward the lowest host index so runs are reproducible; randomized
//! policies ([`PowerOfTwoChoices`]) draw from their own seeded
//! [`DetRng`] stream, which keeps them deterministic too.

use sim_core::DetRng;

/// A deterministic snapshot of one host's load, taken at routing time
/// for the arriving tenant.
#[derive(Clone, Copy, Debug)]
pub struct HostLoad {
    /// Idle warm instances of the tenant's deployment on this host.
    pub warm_idle: usize,
    /// Live instances (any state) of the tenant's deployment.
    pub alive: usize,
    /// Queued requests across all of the host's deployments.
    pub queued: usize,
    /// Busy or starting instances across the host.
    pub active: usize,
    /// Free host memory in bytes.
    pub free_bytes: u64,
}

impl HostLoad {
    /// The scalar load metric the default policies order hosts by.
    pub(crate) fn pressure(&self) -> usize {
        self.queued + self.active
    }
}

/// Chooses a host for each arriving request.
///
/// Implementations must be deterministic functions of their own state
/// and the provided snapshot: the cluster simulator's reproducibility
/// (and its byte-identity property with one host) depends on it.
pub trait Router {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// Whether [`route`](Router::route) reads the load snapshots.
    /// Policies that ignore them (round-robin, single-host) return
    /// `false`, and the simulators skip the O(hosts) snapshot per
    /// arrival — the snapshots' *contents* never reach such a policy,
    /// so the routing decisions (and the run) are unchanged.
    fn needs_loads(&self) -> bool {
        true
    }

    /// Returns the index of the host that serves this request.
    /// `hosts` is never empty; the returned index must be in range.
    fn route(&mut self, tenant: usize, hosts: &[HostLoad]) -> usize;
}

/// The router registry: construction recipes for every routing policy,
/// addressable by the string key scenario specs and result tables use.
///
/// `Box<dyn Router>` is stateful, so grids and scenarios carry a
/// `RouterKind` and build a fresh instance per run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouterKind {
    /// Everything to host 0 (the single-host equivalence mode).
    SingleHost,
    RoundRobin,
    LeastLoaded,
    WarmAffinity,
    PowerOfTwo,
}

impl RouterKind {
    /// All routing policies, in table order.
    pub const ALL: [RouterKind; 5] = [
        RouterKind::SingleHost,
        RouterKind::RoundRobin,
        RouterKind::LeastLoaded,
        RouterKind::WarmAffinity,
        RouterKind::PowerOfTwo,
    ];

    /// Registry key — the router's own display name, so spec files and
    /// result tables cannot drift from the implementations.
    pub fn key(self) -> &'static str {
        self.build(0).name()
    }

    /// Looks a router up by key; `Err` carries the full list of valid
    /// keys.
    pub(crate) fn from_key(key: &str) -> Result<RouterKind, String> {
        sim_core::registry::lookup("router", &RouterKind::ALL, RouterKind::key, key)
    }

    /// Builds a fresh router instance. Randomized policies derive their
    /// probe stream from `seed`; the deterministic ones ignore it.
    pub fn build(self, seed: u64) -> Box<dyn Router> {
        match self {
            RouterKind::SingleHost => Box::new(SingleHost),
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::LeastLoaded => Box::new(LeastLoaded),
            RouterKind::WarmAffinity => Box::new(WarmAffinity),
            RouterKind::PowerOfTwo => Box::new(PowerOfTwoChoices::from_seed(seed)),
        }
    }
}

/// Routes everything to host 0 — the passthrough router that makes a
/// one-host cluster reproduce the single-host simulator exactly.
pub struct SingleHost;

impl Router for SingleHost {
    fn name(&self) -> &'static str {
        "single-host"
    }

    fn needs_loads(&self) -> bool {
        false
    }

    fn route(&mut self, _tenant: usize, _hosts: &[HostLoad]) -> usize {
        0
    }
}

/// Classic round-robin: hosts take turns regardless of load.
#[derive(Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn needs_loads(&self) -> bool {
        false
    }

    fn route(&mut self, _tenant: usize, hosts: &[HostLoad]) -> usize {
        let h = self.next % hosts.len();
        self.next = (self.next + 1) % hosts.len();
        h
    }
}

/// Sends each request to the host with the least queued + active work.
pub struct LeastLoaded;

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _tenant: usize, hosts: &[HostLoad]) -> usize {
        hosts
            .iter()
            .enumerate()
            .min_by_key(|(i, h)| (h.pressure(), *i))
            .map(|(i, _)| i)
            .expect("at least one host")
    }
}

/// Warm-affinity (locality) routing: prefer a host holding an idle warm
/// instance of the tenant's function — reusing warm state beats raw
/// balance — falling back to least-loaded when nothing is warm.
pub struct WarmAffinity;

impl Router for WarmAffinity {
    fn name(&self) -> &'static str {
        "warm-affinity"
    }

    fn route(&mut self, tenant: usize, hosts: &[HostLoad]) -> usize {
        let warm = hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.warm_idle > 0)
            .min_by_key(|(i, h)| (h.pressure(), *i))
            .map(|(i, _)| i);
        match warm {
            Some(i) => i,
            None => LeastLoaded.route(tenant, hosts),
        }
    }
}

/// Power-of-two-choices: sample two hosts uniformly from a private
/// seeded stream and send the request to the less pressured of the
/// pair (ties toward the lower index).
///
/// The classic result (Mitzenmacher '01) is that two random probes cut
/// the maximum queue imbalance exponentially versus one, while staying
/// *stale-view tolerant*: the policy compares only the two sampled
/// hosts, so a control plane whose [`HostLoad`] snapshots lag reality —
/// or a fleet whose host set churns between requests — never herds
/// every arrival onto one "least loaded" victim the way a full argmin
/// over a stale view does. Sampling is positional: the router needs no
/// stable host identities, which is exactly what a fleet with booting,
/// draining and failing hosts can't provide.
pub struct PowerOfTwoChoices {
    rng: DetRng,
}

impl PowerOfTwoChoices {
    /// Builds the router on its own derived stream.
    pub(crate) fn new(rng: DetRng) -> Self {
        PowerOfTwoChoices { rng }
    }

    /// Builds the router from a root seed (stream tag `0xD2C`).
    pub fn from_seed(seed: u64) -> Self {
        PowerOfTwoChoices::new(DetRng::new(seed).derive(0xD2C))
    }
}

impl Router for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(&mut self, _tenant: usize, hosts: &[HostLoad]) -> usize {
        let n = hosts.len() as u64;
        // Two draws are always consumed, even for a one-host fleet, so
        // the stream position — and thus every later decision — depends
        // only on how many requests were routed, not on fleet size.
        let a = self.rng.range(0, n) as usize;
        let b = self.rng.range(0, n) as usize;
        let (lo, hi) = (a.min(b), a.max(b));
        if (hosts[lo].pressure(), lo) <= (hosts[hi].pressure(), hi) {
            lo
        } else {
            hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(warm_idle: usize, queued: usize, active: usize) -> HostLoad {
        HostLoad {
            warm_idle,
            alive: warm_idle,
            queued,
            active,
            free_bytes: 0,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let hosts = vec![load(0, 0, 0); 3];
        let mut r = RoundRobin::default();
        let picks: Vec<usize> = (0..7).map(|_| r.route(0, &hosts)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_picks_minimum_with_stable_ties() {
        let hosts = vec![load(0, 2, 1), load(0, 0, 1), load(0, 1, 0), load(0, 0, 1)];
        assert_eq!(LeastLoaded.route(0, &hosts), 1, "tie breaks to index 1");
    }

    #[test]
    fn warm_affinity_prefers_warm_host_else_least_loaded() {
        let hosts = vec![load(0, 0, 0), load(1, 5, 5), load(2, 8, 0)];
        // Hosts 1 and 2 have warm instances; host 2 is less pressured
        // (8 < 10), and the idle host 0 does not qualify.
        assert_eq!(WarmAffinity.route(0, &hosts), 2);
        let cold = vec![load(0, 3, 0), load(0, 1, 1), load(0, 0, 1)];
        assert_eq!(WarmAffinity.route(0, &cold), 2, "falls back to load");
    }

    #[test]
    fn single_host_pins_zero() {
        let hosts = vec![load(0, 9, 9), load(5, 0, 0)];
        assert_eq!(SingleHost.route(3, &hosts), 0);
    }

    #[test]
    fn power_of_two_is_deterministic_in_its_seed() {
        let hosts: Vec<HostLoad> = (0..8).map(|i| load(0, i % 3, i % 2)).collect();
        let picks = |seed: u64| -> Vec<usize> {
            let mut r = PowerOfTwoChoices::from_seed(seed);
            (0..64).map(|t| r.route(t, &hosts)).collect()
        };
        assert_eq!(picks(0xC1), picks(0xC1), "same seed, same stream");
        assert_ne!(picks(0xC1), picks(0xC2), "different seeds diverge");
    }

    #[test]
    fn power_of_two_prefers_the_lighter_probe() {
        // Host 0 is drowning; every pair that includes any other host
        // must avoid it, so host 0 wins only when both probes hit it.
        let hosts = vec![load(0, 100, 100), load(0, 0, 0), load(0, 0, 0)];
        let mut r = PowerOfTwoChoices::from_seed(7);
        let n = 300;
        let hot = (0..n).filter(|&t| r.route(t, &hosts) == 0).count();
        // P(both probes = 0) = 1/9 ≈ 33 of 300; allow generous slack.
        assert!(hot < n / 5, "overloaded host picked {hot}/{n} times");
    }

    #[test]
    fn power_of_two_spreads_across_equal_hosts() {
        let hosts = vec![load(0, 0, 0); 4];
        let mut r = PowerOfTwoChoices::from_seed(9);
        let mut counts = [0usize; 4];
        for t in 0..400 {
            counts[r.route(t, &hosts)] += 1;
        }
        // Ties break low, so the pick is min(a, b): host k is chosen
        // with probability (2(4-k)-1)/16 — every host still gets a
        // non-trivial share (host 3's is 1/16 ≈ 25).
        assert!(
            counts.iter().all(|&c| c > 8),
            "every host sees traffic: {counts:?}"
        );
        assert!(counts[0] > counts[3], "low indices win ties: {counts:?}");
    }

    #[test]
    fn power_of_two_handles_one_host() {
        let hosts = vec![load(0, 3, 3)];
        let mut r = PowerOfTwoChoices::from_seed(1);
        assert_eq!(r.route(0, &hosts), 0);
    }

    #[test]
    fn router_registry_round_trips() {
        for r in RouterKind::ALL {
            assert_eq!(RouterKind::from_key(r.key()), Ok(r));
        }
        let err = RouterKind::from_key("p2c").unwrap_err();
        assert!(err.contains("power-of-two"), "error lists keys: {err}");
        assert_eq!(RouterKind::PowerOfTwo.key(), "power-of-two");
        assert_eq!(RouterKind::SingleHost.key(), "single-host");
    }
}
