//! Zipf-skewed multi-tenant cluster workloads.
//!
//! A production FaaS cluster serves many tenants whose popularity is
//! heavy-tailed: the Azure trace analyses the paper builds on \[34, 66\]
//! report Zipf-like invocation shares with bursts concentrating on hot
//! functions. This module synthesizes that shape for the cluster
//! simulator: `n` tenants, rank-`r` tenant carrying a Zipf(`s`) share
//! of the total request rate through a bursty on/off process, with
//! function types cycled over the Table-1 mix so every run exercises
//! heterogeneous footprints.

use sim_core::rng::Zipf;
use sim_core::{nhpp_thinned_arrivals, DetRng};

use crate::functions::FunctionKind;
use crate::trace::zipf_function_traces;

/// Parameters of a multi-tenant cluster workload.
#[derive(Clone, Copy, Debug)]
pub struct MultiTenantConfig {
    /// Number of tenant functions (rank 0 is the hottest).
    pub tenants: usize,
    /// Trace length in seconds.
    pub duration_s: f64,
    /// Total average request rate across all tenants.
    pub total_rps: f64,
    /// Zipf popularity exponent (1.0 ≈ the published Azure fits).
    pub zipf_exponent: f64,
}

/// One tenant's synthesized load.
#[derive(Clone, Debug)]
pub struct TenantLoad {
    /// The tenant's function type (cycled over the Table-1 mix by
    /// popularity rank).
    pub kind: FunctionKind,
    /// Sorted arrival times in seconds.
    pub arrivals: Vec<f64>,
}

/// Synthesizes the tenant mix: Zipf-ranked bursty traces, one per
/// tenant, deterministic in `rng`.
///
/// # Panics
///
/// Panics if `cfg.tenants == 0`.
pub(crate) fn multi_tenant_workload(cfg: &MultiTenantConfig, rng: &mut DetRng) -> Vec<TenantLoad> {
    assert!(cfg.tenants > 0, "a cluster workload needs tenants");
    let traces = zipf_function_traces(
        cfg.tenants,
        cfg.duration_s,
        cfg.total_rps,
        cfg.zipf_exponent,
        rng,
    );
    traces
        .into_iter()
        .enumerate()
        .map(|(rank, arrivals)| TenantLoad {
            kind: FunctionKind::ALL[rank % FunctionKind::ALL.len()],
            arrivals,
        })
        .collect()
}

/// Parameters of a diurnal multi-tenant workload.
///
/// The fleet autoscaler only earns its keep against load that actually
/// moves: the Azure production traces show a pronounced day/night cycle
/// on top of per-function bursts. This generator modulates the total
/// request rate sinusoidally between `trough_rps` and `peak_rps` over
/// `period_s` (one "day", compressed to simulation scale), splits it
/// across tenants by Zipf popularity rank, and overlays short bursts so
/// scale-up decisions see both slow tides and fast spikes.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalConfig {
    /// Number of tenant functions (rank 0 is the hottest).
    pub tenants: usize,
    /// Trace length in seconds.
    pub duration_s: f64,
    /// Total request rate at the trough of the cycle.
    pub trough_rps: f64,
    /// Total request rate at the peak of the cycle.
    pub peak_rps: f64,
    /// Length of one full trough→peak→trough cycle in seconds.
    pub period_s: f64,
    /// Zipf popularity exponent across tenants.
    pub zipf_exponent: f64,
    /// Multiplier applied to the instantaneous rate during bursts
    /// (1.0 disables bursts).
    pub burst_factor: f64,
    /// Fraction of time spent bursting (mean burst 10 s).
    pub burst_duty: f64,
}

/// The total fleet-wide rate (requests/second) at time `t` — the
/// sinusoid the generator thins against, exposed so experiments can
/// plot offered load against scaling decisions.
pub(crate) fn diurnal_rate(cfg: &DiurnalConfig, t: f64) -> f64 {
    let mid = (cfg.peak_rps + cfg.trough_rps) / 2.0;
    let amp = (cfg.peak_rps - cfg.trough_rps) / 2.0;
    // Starts at the trough so short runs still see a rising edge.
    mid - amp * (2.0 * core::f64::consts::PI * t / cfg.period_s).cos()
}

/// Synthesizes the diurnal tenant mix: one trace per Zipf-ranked
/// tenant, deterministic in `rng`.
///
/// Each tenant's arrivals are a non-homogeneous Poisson process,
/// sampled by thinning against the tenant's share of the peak rate,
/// with on/off bursts multiplying the instantaneous rate by
/// `burst_factor`. Tenant function kinds cycle over the Table-1 mix by
/// rank, like [`multi_tenant_workload`].
///
/// # Panics
///
/// Panics if `cfg.tenants == 0`, rates are not positive,
/// `peak_rps < trough_rps`, `burst_factor < 1`, or `burst_duty` is
/// outside `[0, 1)`.
pub(crate) fn diurnal_workload(cfg: &DiurnalConfig, rng: &mut DetRng) -> Vec<TenantLoad> {
    assert!(cfg.tenants > 0, "a fleet workload needs tenants");
    assert!(
        cfg.trough_rps > 0.0 && cfg.peak_rps >= cfg.trough_rps,
        "need 0 < trough_rps <= peak_rps"
    );
    assert!(cfg.burst_factor >= 1.0, "bursts only add load");
    assert!(
        (0.0..1.0).contains(&cfg.burst_duty),
        "burst_duty must be in [0, 1): a full-duty \"burst\" is just a \
         higher base rate (fold it into trough/peak_rps instead)"
    );
    let zipf = Zipf::new(cfg.tenants, cfg.zipf_exponent);
    (0..cfg.tenants)
        .map(|rank| {
            let kind = FunctionKind::ALL[rank % FunctionKind::ALL.len()];
            let share = zipf.pmf(rank);
            let mut trng = rng.derive(rank as u64 + 1);
            // Envelope for thinning: the tenant's peak rate with the
            // burst multiplier always applied.
            let lambda_max = share * cfg.peak_rps * cfg.burst_factor;
            if lambda_max == 0.0 {
                // A tail share that underflows to zero draws nothing.
                return TenantLoad {
                    kind,
                    arrivals: Vec::new(),
                };
            }
            // On/off burst phases, like `bursty_arrivals`: mean burst
            // 10 s, mean gap sized to hit `burst_duty`.
            let mean_burst_s = 10.0;
            let mean_idle_s = if cfg.burst_duty > 0.0 && cfg.burst_duty < 1.0 {
                mean_burst_s * (1.0 - cfg.burst_duty) / cfg.burst_duty
            } else {
                f64::INFINITY
            };
            let mut bursting = false;
            let mut phase_end = if mean_idle_s.is_finite() {
                trng.exp(1.0 / mean_idle_s)
            } else {
                cfg.duration_s
            };
            let arrivals = nhpp_thinned_arrivals(&mut trng, lambda_max, cfg.duration_s, |r, t| {
                while t >= phase_end && phase_end < cfg.duration_s {
                    bursting = !bursting;
                    let mean_len = if bursting { mean_burst_s } else { mean_idle_s };
                    phase_end = if mean_len.is_finite() {
                        phase_end + r.exp(1.0 / mean_len)
                    } else {
                        cfg.duration_s
                    };
                }
                let burst = if bursting { cfg.burst_factor } else { 1.0 };
                share * diurnal_rate(cfg, t) * burst
            });
            TenantLoad { kind, arrivals }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MultiTenantConfig {
        MultiTenantConfig {
            tenants: 8,
            duration_s: 1800.0,
            total_rps: 20.0,
            zipf_exponent: 1.0,
        }
    }

    #[test]
    fn tenant_popularity_is_heavy_tailed() {
        let tenants = multi_tenant_workload(&cfg(), &mut DetRng::new(5));
        assert_eq!(tenants.len(), 8);
        let hot = tenants[0].arrivals.len();
        let cold = tenants[7].arrivals.len();
        assert!(hot > 3 * cold, "rank 0 ({hot}) dominates rank 7 ({cold})");
    }

    #[test]
    fn function_mix_cycles_over_ranks() {
        let tenants = multi_tenant_workload(&cfg(), &mut DetRng::new(5));
        assert_eq!(tenants[0].kind, FunctionKind::Html);
        assert_eq!(tenants[1].kind, FunctionKind::Cnn);
        assert_eq!(tenants[4].kind, FunctionKind::Html, "wraps around");
    }

    #[test]
    fn deterministic_in_the_stream() {
        let a = multi_tenant_workload(&cfg(), &mut DetRng::new(9));
        let b = multi_tenant_workload(&cfg(), &mut DetRng::new(9));
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.arrivals, tb.arrivals);
        }
    }

    fn dcfg() -> DiurnalConfig {
        DiurnalConfig {
            tenants: 6,
            duration_s: 1200.0,
            trough_rps: 2.0,
            peak_rps: 20.0,
            period_s: 1200.0,
            zipf_exponent: 1.0,
            burst_factor: 3.0,
            burst_duty: 0.1,
        }
    }

    #[test]
    fn diurnal_rate_cycles_between_trough_and_peak() {
        let c = dcfg();
        assert!(
            (diurnal_rate(&c, 0.0) - 2.0).abs() < 1e-9,
            "starts at trough"
        );
        assert!(
            (diurnal_rate(&c, 600.0) - 20.0).abs() < 1e-9,
            "peaks mid-cycle"
        );
        assert!(
            (diurnal_rate(&c, 1200.0) - 2.0).abs() < 1e-9,
            "returns to trough"
        );
    }

    #[test]
    fn diurnal_load_swells_toward_the_peak() {
        let tenants = diurnal_workload(&dcfg(), &mut DetRng::new(3));
        assert_eq!(tenants.len(), 6);
        let count_in = |lo: f64, hi: f64| -> usize {
            tenants
                .iter()
                .flat_map(|t| &t.arrivals)
                .filter(|&&a| a >= lo && a < hi)
                .count()
        };
        let trough = count_in(0.0, 200.0) + count_in(1000.0, 1200.0);
        let peak = count_in(400.0, 800.0);
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak window {peak} ≫ trough windows {trough}"
        );
        for t in &tenants {
            assert!(t.arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted");
        }
    }

    #[test]
    fn diurnal_popularity_is_heavy_tailed_and_deterministic() {
        let a = diurnal_workload(&dcfg(), &mut DetRng::new(4));
        let b = diurnal_workload(&dcfg(), &mut DetRng::new(4));
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.arrivals, tb.arrivals);
        }
        assert!(
            a[0].arrivals.len() > 3 * a[5].arrivals.len(),
            "rank 0 ({}) dominates rank 5 ({})",
            a[0].arrivals.len(),
            a[5].arrivals.len()
        );
    }

    #[test]
    fn a_tenant_whose_share_underflows_draws_nothing() {
        // At exponent 1e300 every rank past the first weighs 1/∞ = 0.
        let c = DiurnalConfig {
            zipf_exponent: 1e300,
            ..dcfg()
        };
        let tenants = diurnal_workload(&c, &mut DetRng::new(4));
        assert_eq!(tenants.len(), 6);
        assert!(tenants[1..].iter().all(|t| t.arrivals.is_empty()));
        // The head tenant draws exactly what it draws alone.
        let alone = diurnal_workload(&DiurnalConfig { tenants: 1, ..c }, &mut DetRng::new(4));
        assert!(!alone[0].arrivals.is_empty());
        assert_eq!(tenants[0].arrivals, alone[0].arrivals);
    }

    #[test]
    fn diurnal_volume_matches_the_envelope() {
        // Expected volume = mean rate × duration; thinning should land
        // in the vicinity (bursts add burst_duty × (factor-1) × mean).
        let c = DiurnalConfig {
            burst_factor: 1.0,
            burst_duty: 0.0,
            ..dcfg()
        };
        let tenants = diurnal_workload(&c, &mut DetRng::new(5));
        let total: usize = tenants.iter().map(|t| t.arrivals.len()).sum();
        let expected = (c.trough_rps + c.peak_rps) / 2.0 * c.duration_s;
        let ratio = total as f64 / expected;
        assert!(
            (0.7..1.3).contains(&ratio),
            "total {total} vs expected {expected}"
        );
    }
}
