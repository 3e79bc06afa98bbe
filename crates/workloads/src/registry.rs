//! The named workload registry: one string key per generator, one
//! parameter block shared by all of them.
//!
//! The scenario layer (`faas::scenario`) names workloads in spec files
//! (`workload = diurnal`); this registry is the single place those
//! names resolve, so adding a generator here makes it reachable from
//! every simulator topology without touching the scenario code.

use sim_core::{poisson_arrivals_into, DetRng};

use crate::cluster::{diurnal_workload, multi_tenant_workload, DiurnalConfig, MultiTenantConfig};
use crate::functions::FunctionKind;
use crate::trace::{bursty_arrivals, BurstyTraceConfig};
use crate::TenantLoad;

/// The unified parameter block every registered workload draws from.
///
/// Generators read the fields they understand and ignore the rest
/// (`trough_rps`/`period_s`/`burst_*` only shape the diurnal tide);
/// the scenario spec format renders all of them so a spec file is
/// self-contained.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Number of tenant functions (rank 0 is the hottest where the
    /// generator is popularity-ranked).
    pub tenants: usize,
    /// Trace length in seconds.
    pub duration_s: f64,
    /// Total request rate across tenants — the average rate for flat
    /// generators, the *peak* rate for `diurnal`.
    pub rps: f64,
    /// Total request rate at the trough of the diurnal cycle.
    pub trough_rps: f64,
    /// Length of one diurnal cycle in seconds.
    pub period_s: f64,
    /// Zipf popularity exponent for the skewed generators.
    pub zipf_exponent: f64,
    /// Burst multiplier of the diurnal generator (1.0 disables).
    pub burst_factor: f64,
    /// Fraction of time the diurnal generator spends bursting.
    pub burst_duty: f64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            tenants: 4,
            duration_s: 120.0,
            rps: 4.0,
            trough_rps: 1.0,
            period_s: 300.0,
            zipf_exponent: 1.0,
            burst_factor: 2.0,
            burst_duty: 0.15,
        }
    }
}

/// A named workload generator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// Azure-like bursty traces, one per tenant, equal average rates:
    /// the single-host workload of the paper's §6.2 experiments.
    AzureTrace,
    /// Zipf-skewed bursty multi-tenant mix (the cluster workload):
    /// rank-`r` tenant carries a Zipf share of the total rate.
    ZipfCluster,
    /// Sinusoidal day/night tide × Zipf shares × on/off bursts (the
    /// fleet autoscaling workload).
    Diurnal,
    /// Memory-stress drumbeat: every tenant is the anonymous-heavy BFS
    /// function invoked on a fixed deterministic cadence, keeping
    /// footprints resident and the host's reclaim path busy.
    Memhog,
    /// The same fixed cadence with Html tenants: a light, all-warm
    /// drumbeat that loads the event engine and warm dispatch (the
    /// `repro perf` cluster, `examples/scenarios/perf_cluster.scn`).
    Drumbeat,
    /// Instance-churn stress: sparse independent Poisson arrivals so
    /// warm instances keep expiring between requests (Figure-2-style
    /// create/evict churn).
    Churn,
}

impl WorkloadKind {
    /// All registered workloads, in listing order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::AzureTrace,
        WorkloadKind::ZipfCluster,
        WorkloadKind::Diurnal,
        WorkloadKind::Memhog,
        WorkloadKind::Drumbeat,
        WorkloadKind::Churn,
    ];

    /// Registry key used by scenario spec files.
    pub fn key(self) -> &'static str {
        match self {
            WorkloadKind::AzureTrace => "azure-trace",
            WorkloadKind::ZipfCluster => "zipf-cluster",
            WorkloadKind::Diurnal => "diurnal",
            WorkloadKind::Memhog => "memhog",
            WorkloadKind::Drumbeat => "drumbeat",
            WorkloadKind::Churn => "churn",
        }
    }

    /// One-line description for `repro scenarios`.
    pub fn describe(self) -> &'static str {
        match self {
            WorkloadKind::AzureTrace => "Azure-like bursty traces, equal per-tenant rates",
            WorkloadKind::ZipfCluster => "Zipf-skewed bursty multi-tenant mix",
            WorkloadKind::Diurnal => "day/night tide x Zipf x bursts (NHPP thinning)",
            WorkloadKind::Memhog => "deterministic memory-stress drumbeat (all-BFS)",
            WorkloadKind::Drumbeat => "deterministic all-warm drumbeat (all-Html)",
            WorkloadKind::Churn => "sparse Poisson arrivals, cold-start/eviction churn",
        }
    }

    /// Looks a workload up by key; `Err` carries the full list of
    /// valid keys.
    pub fn from_key(key: &str) -> Result<WorkloadKind, String> {
        sim_core::registry::lookup("workload", &WorkloadKind::ALL, WorkloadKind::key, key)
    }

    /// Synthesizes the tenant mix, deterministic in `rng`.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are out of range for the generator
    /// (`tenants == 0`, non-positive rates, a diurnal trough above the
    /// peak) — the scenario layer validates specs before reaching this.
    pub fn generate(self, params: &WorkloadParams, rng: &mut DetRng) -> Vec<TenantLoad> {
        assert!(params.tenants > 0, "a workload needs tenants");
        assert!(params.rps > 0.0, "a workload needs a positive rate");
        let n = params.tenants;
        let per_tenant = params.rps / n as f64;
        match self {
            WorkloadKind::AzureTrace => (0..n)
                .map(|rank| {
                    let mut trng = rng.derive(rank as u64 + 1);
                    let cfg = BurstyTraceConfig {
                        duration_s: params.duration_s,
                        base_rps: per_tenant * 0.4,
                        burst_rps: per_tenant * 4.0,
                        mean_burst_s: 20.0,
                        mean_idle_s: 40.0,
                    };
                    TenantLoad {
                        kind: FunctionKind::ALL[rank % FunctionKind::ALL.len()],
                        arrivals: bursty_arrivals(&cfg, &mut trng),
                    }
                })
                .collect(),
            WorkloadKind::ZipfCluster => multi_tenant_workload(
                &MultiTenantConfig {
                    tenants: n,
                    duration_s: params.duration_s,
                    total_rps: params.rps,
                    zipf_exponent: params.zipf_exponent,
                },
                rng,
            ),
            WorkloadKind::Diurnal => diurnal_workload(
                &DiurnalConfig {
                    tenants: n,
                    duration_s: params.duration_s,
                    trough_rps: params.trough_rps,
                    peak_rps: params.rps,
                    period_s: params.period_s,
                    zipf_exponent: params.zipf_exponent,
                    burst_factor: params.burst_factor,
                    burst_duty: params.burst_duty,
                },
                rng,
            ),
            WorkloadKind::Memhog | WorkloadKind::Drumbeat => (0..n)
                .map(|rank| {
                    // Fixed cadence with a per-tenant phase offset so
                    // tenants never fire simultaneously: a deterministic
                    // drumbeat of one function kind.
                    let gap = 1.0 / per_tenant;
                    let phase = gap * (rank as f64 + 0.5) / n as f64;
                    let mut arrivals = Vec::new();
                    let mut t = phase;
                    while t < params.duration_s {
                        arrivals.push(t);
                        t += gap;
                    }
                    TenantLoad {
                        kind: if self == WorkloadKind::Memhog {
                            FunctionKind::Bfs
                        } else {
                            FunctionKind::Html
                        },
                        arrivals,
                    }
                })
                .collect(),
            WorkloadKind::Churn => (0..n)
                .map(|rank| {
                    let mut trng = rng.derive(rank as u64 + 1);
                    let mut arrivals = Vec::new();
                    poisson_arrivals_into(
                        &mut trng,
                        0.0,
                        params.duration_s,
                        per_tenant,
                        &mut arrivals,
                    );
                    TenantLoad {
                        kind: FunctionKind::ALL[rank % FunctionKind::ALL.len()],
                        arrivals,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams {
            tenants: 4,
            duration_s: 200.0,
            rps: 6.0,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn registry_keys_round_trip() {
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_key(w.key()), Ok(w));
        }
        let err = WorkloadKind::from_key("azure").unwrap_err();
        assert!(err.contains("azure-trace"), "error lists valid keys: {err}");
        assert!(err.contains("diurnal"));
    }

    #[test]
    fn every_workload_generates_sorted_in_range_traces() {
        for w in WorkloadKind::ALL {
            let p = params();
            let tenants = w.generate(&p, &mut DetRng::new(3));
            assert_eq!(tenants.len(), p.tenants, "{}", w.key());
            let total: usize = tenants.iter().map(|t| t.arrivals.len()).sum();
            assert!(total > 0, "{} produced no arrivals", w.key());
            for t in &tenants {
                assert!(t.arrivals.windows(2).all(|a| a[0] <= a[1]), "{}", w.key());
                assert!(
                    t.arrivals.iter().all(|&a| (0.0..p.duration_s).contains(&a)),
                    "{}",
                    w.key()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_stream() {
        for w in WorkloadKind::ALL {
            let a = w.generate(&params(), &mut DetRng::new(7));
            let b = w.generate(&params(), &mut DetRng::new(7));
            for (ta, tb) in a.iter().zip(&b) {
                assert_eq!(ta.kind, tb.kind);
                assert_eq!(ta.arrivals, tb.arrivals, "{}", w.key());
            }
        }
    }

    #[test]
    fn zipf_cluster_matches_the_underlying_generator() {
        // The registry must be a pure renaming of the existing
        // generators: the bench byte-identity across the scenario
        // rebase depends on it.
        let p = params();
        let via_registry = WorkloadKind::ZipfCluster.generate(&p, &mut DetRng::new(9));
        let direct = multi_tenant_workload(
            &MultiTenantConfig {
                tenants: p.tenants,
                duration_s: p.duration_s,
                total_rps: p.rps,
                zipf_exponent: p.zipf_exponent,
            },
            &mut DetRng::new(9),
        );
        for (a, b) in via_registry.iter().zip(&direct) {
            assert_eq!(a.arrivals, b.arrivals);
        }
    }

    #[test]
    fn memhog_is_a_deterministic_all_bfs_drumbeat() {
        let tenants = WorkloadKind::Memhog.generate(&params(), &mut DetRng::new(1));
        assert!(tenants.iter().all(|t| t.kind == FunctionKind::Bfs));
        // Fixed cadence: constant inter-arrival gap per tenant.
        let gaps: Vec<f64> = tenants[0]
            .arrivals
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert!(gaps.windows(2).all(|g| (g[0] - g[1]).abs() < 1e-9));
    }

    #[test]
    fn drumbeat_is_memhog_with_html_tenants() {
        let memhog = WorkloadKind::Memhog.generate(&params(), &mut DetRng::new(1));
        let drumbeat = WorkloadKind::Drumbeat.generate(&params(), &mut DetRng::new(1));
        assert_eq!(drumbeat.len(), memhog.len());
        for (d, m) in drumbeat.iter().zip(&memhog) {
            assert_eq!(d.kind, FunctionKind::Html);
            assert_eq!(d.arrivals, m.arrivals, "same cadence and phases");
        }
    }
}
