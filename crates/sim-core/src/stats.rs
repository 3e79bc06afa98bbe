//! Deterministic statistics for significance-aware experiment
//! comparison.
//!
//! `repro run --compare` judges a metric difference between two
//! scenario runs on per-trial samples, so it needs real inference, not
//! just means: Welch's unequal-variance t-test ([`welch`]), confidence
//! intervals from the Student t distribution ([`welch_ci`],
//! [`mean_ci`]) and a seeded percentile bootstrap
//! ([`bootstrap_diff_ci`]) for when distributional assumptions feel
//! too brave. Everything here is closed-form or fixed-iteration
//! numerics over `f64` — no RNG except the bootstrap's explicit
//! [`DetRng`], so compare tables are byte-identical across runs and
//! job counts.
//!
//! The t CDF is computed through the regularized incomplete beta
//! function (continued fraction per Numerical Recipes §6.4); the
//! inverse CDF by bisection on that CDF. Both are pinned against
//! closed-form special cases (`df = 1` is Cauchy, `df = 2` has an
//! elementary CDF) and classic critical values.

use crate::metrics::mean;
use crate::rng::DetRng;

/// Unbiased sample variance (`n - 1` denominator; 0 when `n < 2`).
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Natural log of the gamma function (Lanczos approximation, accurate
/// to ~1e-10 for positive arguments — plenty for p-values).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    let mut y = x;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Continued-fraction evaluation of the incomplete beta function
/// (modified Lentz; Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_IT: usize = 300;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_IT {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Panics
///
/// Panics if `a` or `b` is not strictly positive.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_bt = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let bt = ln_bt.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * beta_cf(a, b, x) / a
    } else {
        1.0 - bt * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Two-sided tail probability `P(|T| > |t|)` of the Student t
/// distribution with `df` degrees of freedom.
///
/// # Panics
///
/// Panics if `df` is not strictly positive.
pub fn t_two_sided_p(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t.is_infinite() {
        return 0.0;
    }
    reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))
}

/// CDF of the Student t distribution with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    let p = t_two_sided_p(t, df);
    if t >= 0.0 {
        1.0 - p / 2.0
    } else {
        p / 2.0
    }
}

/// The two-sided critical value `c` with `P(|T| ≤ c) = conf` —
/// `t_{α/2, df}` for `conf = 1 - α`. Bisection on [`t_two_sided_p`];
/// deterministic and accurate to ~1e-10.
///
/// # Panics
///
/// Panics if `conf` is outside `(0, 1)` or `df` is not positive.
pub fn t_critical(conf: f64, df: f64) -> f64 {
    assert!((0.0..1.0).contains(&conf) && conf > 0.0, "conf in (0, 1)");
    assert!(df > 0.0, "degrees of freedom must be positive");
    let alpha = 1.0 - conf;
    let mut hi = 1.0;
    while t_two_sided_p(hi, df) > alpha {
        hi *= 2.0;
        if hi > 1e12 {
            return hi;
        }
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_two_sided_p(mid, df) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Welch's unequal-variance t-test between two samples.
#[derive(Clone, Copy, Debug)]
pub struct Welch {
    /// `mean(b) - mean(a)` — positive means B is larger.
    pub diff: f64,
    /// Standard error of the difference.
    pub se: f64,
    /// The t statistic (`diff / se`; signed infinity when both
    /// variances are zero but the means differ).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
}

/// Runs Welch's t-test on two samples; `None` when either side has
/// fewer than two observations (no variance estimate exists).
///
/// Degenerate zero-variance samples are handled deterministically:
/// equal means give `t = 0, p = 1`, unequal means give an infinite t
/// and `p = 0`.
pub fn welch(a: &[f64], b: &[f64]) -> Option<Welch> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let diff = mean(b) - mean(a);
    let (va, vb) = (sample_variance(a), sample_variance(b));
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        let (t, p) = if diff == 0.0 {
            (0.0, 1.0)
        } else {
            (f64::INFINITY * diff.signum(), 0.0)
        };
        return Some(Welch {
            diff,
            se: 0.0,
            t,
            df: na + nb - 2.0,
            p,
        });
    }
    let se = se2.sqrt();
    let t = diff / se;
    let df = se2 * se2
        / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0))
            .max(f64::MIN_POSITIVE);
    let p = t_two_sided_p(t, df);
    Some(Welch { diff, se, t, df, p })
}

/// The Welch confidence interval of the mean difference at confidence
/// `conf`: `diff ± t_{α/2, df} · se`. Degenerate (zero-width) when the
/// samples carry no variance.
pub fn welch_ci(w: &Welch, conf: f64) -> (f64, f64) {
    if w.se == 0.0 {
        return (w.diff, w.diff);
    }
    let half = t_critical(conf, w.df) * w.se;
    (w.diff - half, w.diff + half)
}

/// t-distribution confidence interval of a single sample mean; `None`
/// when `n < 2`.
pub fn mean_ci(xs: &[f64], conf: f64) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let m = mean(xs);
    let se = (sample_variance(xs) / n).sqrt();
    if se == 0.0 {
        return Some((m, m));
    }
    let half = t_critical(conf, n - 1.0) * se;
    Some((m - half, m + half))
}

/// Percentile-bootstrap confidence interval of `mean(b) - mean(a)`
/// from `iters` seeded resamples; `None` when either sample is empty.
///
/// Resampling is fully deterministic in `rng` (one
/// [`DetRng::range`] draw per resampled element, B after A within each
/// iteration), so a compare table quoting bootstrap intervals is
/// byte-identical across runs.
pub fn bootstrap_diff_ci(
    a: &[f64],
    b: &[f64],
    iters: usize,
    conf: f64,
    rng: &mut DetRng,
) -> Option<(f64, f64)> {
    if a.is_empty() || b.is_empty() || iters == 0 {
        return None;
    }
    let resample_mean = |xs: &[f64], rng: &mut DetRng| -> f64 {
        let mut acc = 0.0;
        for _ in 0..xs.len() {
            acc += xs[rng.range(0, xs.len() as u64) as usize];
        }
        acc / xs.len() as f64
    };
    let mut diffs: Vec<f64> = (0..iters)
        .map(|_| {
            let ma = resample_mean(a, rng);
            let mb = resample_mean(b, rng);
            mb - ma
        })
        .collect();
    diffs.sort_by(|x, y| x.partial_cmp(y).expect("bootstrap means are finite"));
    let alpha = 1.0 - conf;
    let rank = |q: f64| {
        diffs[((iters as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(iters - 1)]
    };
    Some((rank(alpha / 2.0), rank(1.0 - alpha / 2.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn sample_variance_matches_hand_computation() {
        assert_eq!(sample_variance(&[5.0]), 0.0);
        // var([1,2,3,4]) with n-1 = (2.25+0.25+0.25+2.25)/3 = 5/3.
        assert!(close(
            sample_variance(&[1.0, 2.0, 3.0, 4.0]),
            5.0 / 3.0,
            1e-12
        ));
    }

    #[test]
    fn t_cdf_matches_closed_forms() {
        // df = 1 is Cauchy: CDF(t) = 1/2 + atan(t)/π, so CDF(1) = 3/4.
        assert!(close(t_cdf(1.0, 1.0), 0.75, 1e-10));
        assert!(close(t_cdf(-1.0, 1.0), 0.25, 1e-10));
        // df = 2: CDF(t) = 1/2 + t / (2·√(2 + t²)); at t = √2 this is
        // 1/2 + √2/4.
        let t = 2.0f64.sqrt();
        assert!(close(t_cdf(t, 2.0), 0.5 + t / 4.0, 1e-10));
        // Large df converges to the normal: Φ(1.96) ≈ 0.9750.
        assert!(close(t_cdf(1.959_964, 1e6), 0.975, 1e-4));
        assert_eq!(t_two_sided_p(f64::INFINITY, 3.0), 0.0);
        assert!(close(t_two_sided_p(0.0, 7.0), 1.0, 1e-12));
    }

    #[test]
    fn t_critical_matches_the_tables() {
        // Classic two-sided 95% critical values: 12.706 (df 1),
        // 4.303 (df 2), 2.776 (df 4), 2.228 (df 10), 1.960 (df → ∞).
        assert!(close(t_critical(0.95, 1.0), 12.7062, 1e-3));
        assert!(close(t_critical(0.95, 2.0), 4.3027, 1e-3));
        assert!(close(t_critical(0.95, 4.0), 2.7764, 1e-3));
        assert!(close(t_critical(0.95, 10.0), 2.2281, 1e-3));
        assert!(close(t_critical(0.95, 1e6), 1.9600, 1e-3));
        // Inverse property: P(|T| > t_crit) = α.
        let c = t_critical(0.9, 5.0);
        assert!(close(t_two_sided_p(c, 5.0), 0.1, 1e-9));
    }

    #[test]
    fn welch_matches_hand_computation() {
        // a = [1,2,3]: mean 2, var 1. b = [2,4,6]: mean 4, var 4.
        // se² = 1/3 + 4/3 = 5/3, t = 2/√(5/3) = √(12/5),
        // df = (5/3)² / ((1/3)²/2 + (4/3)²/2) = 50/17.
        let w = welch(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).expect("n ≥ 2");
        assert!(close(w.diff, 2.0, 1e-12));
        assert!(close(w.t, (12.0f64 / 5.0).sqrt(), 1e-12));
        assert!(close(w.df, 50.0 / 17.0, 1e-12));
        // p ≈ 0.22 for t ≈ 1.549 at df ≈ 2.94 (between the df=2 and
        // df=3 closed forms).
        assert!(w.p > 0.20 && w.p < 0.25, "p = {}", w.p);
        // Symmetric in direction.
        let r = welch(&[2.0, 4.0, 6.0], &[1.0, 2.0, 3.0]).unwrap();
        assert!(close(r.t, -w.t, 1e-12));
        assert!(close(r.p, w.p, 1e-12));
    }

    #[test]
    fn welch_handles_degenerate_samples() {
        assert!(welch(&[1.0], &[1.0, 2.0]).is_none());
        let same = welch(&[2.0, 2.0], &[2.0, 2.0]).unwrap();
        assert_eq!(same.t, 0.0);
        assert_eq!(same.p, 1.0);
        let apart = welch(&[2.0, 2.0], &[3.0, 3.0]).unwrap();
        assert!(apart.t.is_infinite() && apart.t > 0.0);
        assert_eq!(apart.p, 0.0);
        assert_eq!(welch_ci(&apart, 0.95), (1.0, 1.0));
    }

    #[test]
    fn welch_ci_and_mean_ci_match_hand_computation() {
        // mean_ci([1,2,3], 95%): 2 ± 4.3027·(1/√3) = 2 ± 2.4841.
        let (lo, hi) = mean_ci(&[1.0, 2.0, 3.0], 0.95).unwrap();
        assert!(close(lo, 2.0 - 2.4841, 1e-3), "lo = {lo}");
        assert!(close(hi, 2.0 + 2.4841, 1e-3), "hi = {hi}");
        assert!(mean_ci(&[1.0], 0.95).is_none());
        // Welch CI covers the true difference for its own samples.
        let w = welch(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        let (lo, hi) = welch_ci(&w, 0.95);
        assert!(lo < 2.0 && 2.0 < hi);
        // Tighter confidence gives a narrower interval.
        let (l2, h2) = welch_ci(&w, 0.5);
        assert!(h2 - l2 < hi - lo);
    }

    #[test]
    fn bootstrap_is_seeded_and_sane() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [11.0, 12.0, 13.0, 14.0, 15.0];
        let ci1 = bootstrap_diff_ci(&a, &b, 500, 0.95, &mut DetRng::new(7)).unwrap();
        let ci2 = bootstrap_diff_ci(&a, &b, 500, 0.95, &mut DetRng::new(7)).unwrap();
        assert_eq!(ci1, ci2, "same seed, same interval");
        let ci3 = bootstrap_diff_ci(&a, &b, 500, 0.95, &mut DetRng::new(8)).unwrap();
        assert_ne!(ci1, ci3, "different seed resamples differently");
        // The interval brackets the true difference of 10 and stays
        // within the extreme resample range.
        assert!(ci1.0 < 10.0 && 10.0 < ci1.1, "{ci1:?}");
        assert!(ci1.0 > 6.0 && ci1.1 < 14.0, "{ci1:?}");
        assert!(bootstrap_diff_ci(&[], &b, 100, 0.95, &mut DetRng::new(1)).is_none());
    }
}
