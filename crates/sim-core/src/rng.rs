//! Deterministic random streams and the samplers used by the workloads.
//!
//! Trace generation needs exponential inter-arrivals (Poisson processes),
//! Zipf-distributed function popularity (Azure trace analyses report
//! heavy-tailed popularity) and log-normal service times. Rather than pull
//! in extra dependencies, the samplers are implemented here from first
//! principles on top of `rand::rngs::SmallRng`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded deterministic random stream.
///
/// Each simulation component derives its own stream via
/// [`DetRng::derive`], so adding random draws to one component never
/// perturbs another (a requirement for figure-to-figure reproducibility).
pub struct DetRng {
    seed: u64,
    rng: SmallRng,
}

/// SplitMix64 finalizer: the avalanche step that separates child seeds
/// (also the bounded histogram's replacement walk).
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Returns the seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `tag`.
    ///
    /// The child seed mixes the *parent seed* with the tag (SplitMix64
    /// finalizer over both), so children of differently-seeded parents
    /// never coincide, and deriving does not consume parent draws —
    /// `derive` is a pure function of `(parent seed, tag)`.
    pub fn derive(&self, tag: u64) -> DetRng {
        DetRng::new(splitmix(self.seed ^ splitmix(tag)))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.rng.gen_range(lo..hi)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Exponential draw with rate `lambda` (mean `1 / lambda`).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exp(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.unit(); // in (0, 1]
        -u.ln() / lambda
    }

    /// Log-normal draw with the given parameters of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        // Box-Muller transform.
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        (mu + sigma * z).exp()
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

/// Appends homogeneous-Poisson arrivals with rate `rate` over
/// `[start, end)` to `out`.
///
/// The single shared definition of "draw a Poisson arrival train" used
/// by every workload generator (bursty phases, churn drumbeats), so the
/// draw sequence — one [`DetRng::exp`] per candidate, first candidate at
/// `start + exp` — is identical everywhere and pinned by the golden
/// digests. A non-positive `rate` consumes no draws and appends nothing.
pub fn poisson_arrivals_into(
    rng: &mut DetRng,
    start: f64,
    end: f64,
    rate: f64,
    out: &mut Vec<f64>,
) {
    if rate <= 0.0 {
        return;
    }
    let mut a = start + rng.exp(rate);
    while a < end {
        out.push(a);
        a += rng.exp(rate);
    }
}

/// Samples a non-homogeneous Poisson process over `[0, duration_s)` by
/// thinning a rate-`lambda_max` homogeneous process.
///
/// `rate_at(rng, t)` returns the instantaneous rate `λ(t) ≤ lambda_max`
/// at candidate time `t`; it receives the same stream so stateful rate
/// models (e.g. burst phases advanced by their own exponential draws)
/// stay on one per-tenant stream. Draw order per candidate: one
/// [`DetRng::exp`], then whatever `rate_at` draws, then one
/// [`DetRng::unit`] for the accept test — the exact sequence the diurnal
/// generator has always used, pinned by the golden digests.
pub fn nhpp_thinned_arrivals(
    rng: &mut DetRng,
    lambda_max: f64,
    duration_s: f64,
    mut rate_at: impl FnMut(&mut DetRng, f64) -> f64,
) -> Vec<f64> {
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(lambda_max);
        if t >= duration_s {
            break;
        }
        let lambda_t = rate_at(rng, t);
        if rng.unit() < lambda_t / lambda_max {
            arrivals.push(t);
        }
    }
    arrivals
}

/// A Zipf(`s`) sampler over ranks `0..n`, built on a precomputed CDF.
///
/// Rank 0 is the most popular item. Used to assign invocation rates to
/// functions when synthesizing Azure-like traces (Figure 2).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Returns the probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let root = DetRng::new(7);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let xs: Vec<u64> = (0..16).map(|_| a.range(0, 1_000_000)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.range(0, 1_000_000)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derived_streams_depend_on_parent_seed() {
        // Regression: children of differently-seeded parents must not
        // coincide (the original derive mixed only the tag).
        let mut a = DetRng::new(1).derive(5);
        let mut b = DetRng::new(2).derive(5);
        let xs: Vec<u64> = (0..16).map(|_| a.range(0, 1_000_000)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.range(0, 1_000_000)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_is_pure_and_stateless() {
        let mut root = DetRng::new(9);
        let before: Vec<u64> = {
            let mut c = root.derive(3);
            (0..8).map(|_| c.range(0, 1 << 20)).collect()
        };
        // Consuming parent draws must not perturb the child stream.
        for _ in 0..100 {
            root.unit();
        }
        let after: Vec<u64> = {
            let mut c = root.derive(3);
            (0..8).map(|_| c.range(0, 1 << 20)).collect()
        };
        assert_eq!(before, after);
    }

    #[test]
    fn exp_mean_is_reciprocal_rate() {
        let mut rng = DetRng::new(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn log_normal_is_positive_with_sane_median() {
        let mut rng = DetRng::new(2);
        let mut xs: Vec<f64> = (0..10_001).map(|_| rng.log_normal(0.0, 0.5)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.1, "median {median}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(10, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(5));
        // PMF sums to one.
        let total: f64 = (0..10).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(4);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn poisson_arrivals_match_the_naive_loop() {
        // The helper must be draw-for-draw identical to the open-coded
        // loop it replaced (byte-identity of the golden digests).
        let mut a = DetRng::new(11);
        let mut got = Vec::new();
        poisson_arrivals_into(&mut a, 3.0, 40.0, 2.5, &mut got);
        let mut b = DetRng::new(11);
        let mut want = Vec::new();
        let mut t = 3.0 + b.exp(2.5);
        while t < 40.0 {
            want.push(t);
            t += b.exp(2.5);
        }
        assert_eq!(got, want);
        assert!(!got.is_empty());
        assert!(got.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(got.iter().all(|&x| (3.0..40.0).contains(&x)), "in range");
    }

    #[test]
    fn poisson_arrivals_zero_rate_draws_nothing() {
        let mut rng = DetRng::new(12);
        let mut out = Vec::new();
        poisson_arrivals_into(&mut rng, 0.0, 100.0, 0.0, &mut out);
        assert!(out.is_empty());
        // No draws consumed: the stream is still at its origin.
        let mut fresh = DetRng::new(12);
        assert_eq!(rng.unit().to_bits(), fresh.unit().to_bits());
    }

    #[test]
    fn nhpp_thinning_accepts_by_rate_ratio() {
        // A constant rate_at == lambda_max accepts every candidate, so
        // thinning degenerates to the homogeneous process.
        let mut a = DetRng::new(13);
        let all = nhpp_thinned_arrivals(&mut a, 4.0, 50.0, |_, _| 4.0);
        let mut b = DetRng::new(13);
        let mut expect = Vec::new();
        let mut t = 0.0;
        loop {
            t += b.exp(4.0);
            if t >= 50.0 {
                break;
            }
            b.unit(); // the accept draw still happens
            expect.push(t);
        }
        assert_eq!(all, expect);
        // Half rate keeps roughly half the candidates.
        let mut c = DetRng::new(13);
        let half = nhpp_thinned_arrivals(&mut c, 4.0, 50.0, |_, _| 2.0);
        assert!(half.len() < all.len());
        assert!(half.len() > all.len() / 4, "about half survive");
        assert!(half.iter().all(|x| all.contains(x)), "a thinned subset");
    }

    #[test]
    fn nhpp_rate_at_shares_the_stream() {
        // rate_at may draw from the stream; those draws must land
        // between the candidate exp and the accept unit.
        let mut a = DetRng::new(14);
        let got = nhpp_thinned_arrivals(&mut a, 3.0, 20.0, |rng, _| {
            let _ = rng.unit();
            3.0
        });
        let mut b = DetRng::new(14);
        let mut expect = Vec::new();
        let mut t = 0.0;
        loop {
            t += b.exp(3.0);
            if t >= 20.0 {
                break;
            }
            b.unit(); // rate_at's draw
            b.unit(); // accept draw (λ == λ_max always accepts)
            expect.push(t);
        }
        assert_eq!(got, expect);
    }
}
