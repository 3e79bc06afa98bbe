//! Seeded deterministic host-failure injection.
//!
//! Failures are part of fleet life: a serverless control plane must
//! keep meeting SLOs while machines disappear mid-burst. The injector
//! pre-samples crash instants as a Poisson process on a [`DetRng`]
//! stream derived from the fleet seed, and picks each victim from the
//! same stream at fire time — so an identical seed always crashes the
//! same hosts at the same instants, and failure experiments stay
//! byte-identical across `--jobs` values like everything else.

use sim_core::DetRng;

/// Failure-injection parameters.
#[derive(Clone, Copy, Debug)]
pub struct FailureConfig {
    /// Mean time between host crashes in seconds; `0.0` disables
    /// injection entirely (no events are ever scheduled, preserving
    /// the fixed-fleet byte-identity with `ClusterSim`).
    pub mtbf_s: f64,
}

impl FailureConfig {
    /// No failures.
    pub(crate) fn off() -> Self {
        FailureConfig { mtbf_s: 0.0 }
    }

    /// Returns `true` when crashes will be injected.
    pub(crate) fn enabled(&self) -> bool {
        self.mtbf_s > 0.0
    }
}

/// The crash scheduler/victim picker (one per fleet run).
pub(crate) struct FailureInjector {
    rng: DetRng,
}

impl FailureInjector {
    pub(crate) fn new(rng: DetRng) -> Self {
        FailureInjector { rng }
    }

    /// Samples the crash instants in `[0, duration_s)` as a Poisson
    /// process with rate `1 / mtbf_s`. Empty when disabled.
    pub(crate) fn sample_times(&mut self, cfg: &FailureConfig, duration_s: f64) -> Vec<f64> {
        let mut times = Vec::new();
        if !cfg.enabled() {
            return times;
        }
        let mut t = self.rng.exp(1.0 / cfg.mtbf_s);
        while t < duration_s {
            times.push(t);
            t += self.rng.exp(1.0 / cfg.mtbf_s);
        }
        times
    }

    /// Picks the crash victim uniformly among `candidates` (host
    /// indices); `None` when nothing is left to kill.
    pub(crate) fn pick_victim(&mut self, candidates: &[usize]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let i = self.rng.range(0, candidates.len() as u64) as usize;
        Some(candidates[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_schedules_nothing() {
        let mut inj = FailureInjector::new(DetRng::new(1));
        assert!(!FailureConfig::off().enabled());
        assert!(inj.sample_times(&FailureConfig::off(), 10_000.0).is_empty());
    }

    #[test]
    fn crash_times_are_deterministic_and_sorted() {
        let sample = |seed| {
            FailureInjector::new(DetRng::new(seed))
                .sample_times(&FailureConfig { mtbf_s: 100.0 }, 1000.0)
        };
        let a = sample(7);
        assert_eq!(a, sample(7));
        assert_ne!(a, sample(8));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted");
        assert!(a.iter().all(|&t| t > 0.0 && t < 1000.0));
        // ~10 expected; stay inside a loose Poisson band.
        assert!((3..=25).contains(&a.len()), "{} crashes", a.len());
    }

    #[test]
    fn victims_come_from_the_candidate_set() {
        let mut inj = FailureInjector::new(DetRng::new(3));
        assert_eq!(inj.pick_victim(&[]), None);
        for _ in 0..50 {
            let v = inj.pick_victim(&[2, 5, 9]).unwrap();
            assert!([2, 5, 9].contains(&v));
        }
    }
}
