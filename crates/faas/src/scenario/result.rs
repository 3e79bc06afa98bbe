//! The unified result every scenario run returns, whatever simulator
//! ran it.
//!
//! One [`ScenarioOutcome`] per `(backend, trial)` cell: request
//! accounting, merged latency histograms, memory footprint, and the
//! layer-specific extras as `Option`s — a field a topology doesn't
//! produce reports as absent, never as a zero that could be mistaken
//! for a measurement. [`ScenarioResult`] groups the cells per backend
//! and renders the comparison table.

use std::collections::BTreeMap;

use sim_core::experiment::mean_over;
use sim_core::{Fnv1a, Histogram, Reservoir, TextTable};
use workloads::FunctionKind;

use super::{Scenario, Topology};
use crate::config::BackendKind;
use crate::fleet::FleetResult;

/// Control-plane numbers only a fleet run produces.
#[derive(Clone, Copy, Debug)]
pub struct FleetStats {
    /// Integrated provisioned-host time in host-hours.
    pub host_hours: f64,
    /// Completions that breached their function's SLO target.
    pub slo_violations: u64,
    /// Completions with an SLO target (the violation denominator).
    pub slo_total: u64,
    /// Hosts booted by the autoscaler.
    pub scale_ups: u64,
    /// Hosts gracefully drained by the autoscaler.
    pub scale_downs: u64,
    /// Hosts killed by failure injection.
    pub crashes: u64,
    /// Queued requests re-routed off crashed hosts.
    pub requeued: u64,
    /// In-flight executions lost to crashes (plus unservable drops).
    pub lost: u64,
    /// Arrival deferrals while capacity was provisioning.
    pub deferred: u64,
    /// Smallest number of simultaneously active hosts.
    pub min_active: usize,
    /// Largest number of simultaneously active hosts.
    pub peak_active: usize,
}

impl FleetStats {
    /// Fraction of SLO-tracked completions over their target.
    pub fn slo_violation_rate(&self) -> f64 {
        self.slo_violations as f64 / self.slo_total.max(1) as f64
    }
}

/// Everything one `(backend, trial)` cell of a scenario produces.
pub struct ScenarioOutcome {
    /// The elasticity backend this cell ran.
    pub backend: BackendKind,
    /// Trial number within the sweep.
    pub trial: u64,
    /// Requests offered by the trace within the duration.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests that triggered a new instance.
    pub cold_starts: u64,
    /// Requests served by a warm instance.
    pub warm_starts: u64,
    /// Integrated host memory footprint (GiB·s) across all hosts.
    pub gib_seconds: f64,
    /// Request-latency histograms, merged per function across hosts.
    pub latency: BTreeMap<FunctionKind, Histogram>,
    /// Bounded `(arrival_s, latency_ms)` reservoir — the time-resolved
    /// latency timeline. Absent for a single VM (the single-host
    /// simulator records exact per-request points instead).
    pub latency_over_time: Option<Reservoir>,
    /// Requests routed per host. Absent for a single VM.
    pub routed_per_host: Option<Vec<u64>>,
    /// Control-plane numbers. Absent outside the fleet topology.
    pub fleet: Option<FleetStats>,
    /// Per-host [`crate::SimResult::digest`]s, in host order — the
    /// byte-identity anchor the equivalence tests compare.
    pub host_digests: Vec<u64>,
}

impl ScenarioOutcome {
    /// Projects a fleet-engine run of one `(backend, trial)` cell onto
    /// the outcome of its topology: a single VM reports no routing and
    /// no reservoir (it records exact per-request points instead), and
    /// only the fleet topology reports control-plane numbers. The
    /// offered load is the number of arrivals the feed injected.
    pub(crate) fn new(
        topology: Topology,
        backend: BackendKind,
        trial: u64,
        result: FleetResult,
    ) -> ScenarioOutcome {
        let multi_host = topology != Topology::SingleVm;
        let (cold, warm) = result.cold_warm_starts();
        let fleet = (topology == Topology::Fleet).then(|| FleetStats {
            host_hours: result.host_hours(),
            slo_violations: result.slo_violations,
            slo_total: result.slo_total,
            scale_ups: result.scale_ups,
            scale_downs: result.scale_downs,
            crashes: result.crashes,
            requeued: result.requeued,
            lost: result.lost,
            deferred: result.deferred,
            min_active: result.min_active(),
            peak_active: result.peak_active(),
        });
        ScenarioOutcome {
            backend,
            trial,
            offered: result.injected,
            completed: result.completed,
            cold_starts: cold,
            warm_starts: warm,
            gib_seconds: result.total_gib_seconds(),
            latency: result.merged_latency(),
            routed_per_host: multi_host.then(|| {
                result
                    .routed
                    .iter()
                    .map(|per_tenant| per_tenant.iter().sum())
                    .collect()
            }),
            host_digests: result.hosts.iter().map(|h| h.result.digest()).collect(),
            latency_over_time: multi_host.then_some(result.latency_over_time),
            fleet,
        }
    }

    /// All functions' latencies merged into one histogram.
    pub fn merged_latency(&self) -> Histogram {
        let mut all = Histogram::new();
        for h in self.latency.values() {
            all.merge(h);
        }
        all
    }

    /// Fraction of requests that triggered a cold start.
    pub fn cold_ratio(&self) -> f64 {
        self.cold_starts as f64 / (self.cold_starts + self.warm_starts).max(1) as f64
    }

    /// Share of all routed requests landing on the hottest host
    /// (`None` for a single VM).
    pub fn hot_share(&self) -> Option<f64> {
        let routed = self.routed_per_host.as_ref()?;
        let max = routed.iter().copied().max().unwrap_or(0) as f64;
        let total: u64 = routed.iter().sum();
        Some(max / total.max(1) as f64)
    }

    /// A stable FNV-1a digest over the whole outcome — per-host result
    /// digests, routing, reservoir points (in sorted order) and
    /// control-plane counters. Equal digests mean the scenario run is
    /// byte-identical to another construction of the same experiment.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.offered);
        h.write_u64(self.completed);
        h.write_u64(self.cold_starts);
        h.write_u64(self.warm_starts);
        h.write_f64(self.gib_seconds);
        h.write_u64(self.host_digests.len() as u64);
        for &d in &self.host_digests {
            h.write_u64(d);
        }
        if let Some(routed) = &self.routed_per_host {
            for &r in routed {
                h.write_u64(r);
            }
        }
        if let Some(res) = &self.latency_over_time {
            h.write_u64(res.seen());
            for (t, v) in res.sorted_points() {
                h.write_f64(t);
                h.write_f64(v);
            }
        }
        if let Some(f) = &self.fleet {
            h.write_f64(f.host_hours);
            for v in [
                f.slo_violations,
                f.slo_total,
                f.scale_ups,
                f.scale_downs,
                f.crashes,
                f.requeued,
                f.lost,
                f.deferred,
                f.min_active as u64,
                f.peak_active as u64,
            ] {
                h.write_u64(v);
            }
        }
        h.finish()
    }
}

/// The unified outcome of one scenario cell of [`super::SweepSpec::run`]:
/// one column of trials per backend, plus the spec that produced them.
pub struct ScenarioResult {
    /// The scenario that ran.
    pub spec: Scenario,
    /// `(backend, per-trial outcomes)` in spec order.
    pub cells: Vec<(BackendKind, Vec<ScenarioOutcome>)>,
}

impl ScenarioResult {
    /// FNV-1a digest over every cell (spec order, trial order).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (backend, trials) in &self.cells {
            h.write(backend.key().as_bytes());
            for t in trials {
                h.write_u64(t.digest());
            }
        }
        h.finish()
    }

    /// Renders the scenario header and the backend-comparison table
    /// (see `render_table`).
    pub fn render(&self) -> String {
        let spec = &self.spec;
        let trials = self.cells.first().map(|(_, t)| t.len()).unwrap_or(0);
        let mut out = format!(
            "Scenario {:?}: {} topology, {} workload ({} tenants, {:.0}s), seed {}, {} trial(s)\n",
            spec.name,
            spec.topology.key(),
            spec.workload.key(),
            spec.params.tenants,
            spec.params.duration_s,
            spec.seed,
            trials,
        );
        match spec.topology {
            Topology::SingleVm => {}
            Topology::Cluster(_) => out.push_str(&format!("router {}\n", spec.router.key())),
            Topology::Fleet => out.push_str(&format!(
                "router {}, policy {}, hosts {}..{}, mtbf {}\n",
                spec.router.key(),
                spec.policy.key(),
                spec.min_hosts,
                spec.max_hosts,
                if spec.mtbf_s > 0.0 {
                    format!("{:.0}s", spec.mtbf_s)
                } else {
                    "off".to_string()
                },
            )),
        }

        let rows: Vec<TableRow> = self
            .cells
            .iter()
            .map(|(backend, trials)| {
                (
                    backend.name().to_string(),
                    spec.params.duration_s,
                    trials.as_slice(),
                )
            })
            .collect();
        out.push_str(&render_table("Backend", spec.topology, &rows));
        out
    }
}

/// One row of a results table: its label, the run's duration in
/// seconds (the time-resolved quarters split it) and the trials whose
/// means the row shows.
pub(super) type TableRow<'a> = (String, f64, &'a [ScenarioOutcome]);

/// Renders the results table (trial means per row) and the
/// time-resolved latency quarters: the shared body of
/// [`ScenarioResult::render`] (one row per backend) and
/// [`super::GridOutcome::render`] (one row per cell). Columns a
/// topology doesn't produce are omitted entirely rather than shown as
/// zeros.
pub(super) fn render_table(first: &str, topology: Topology, rows: &[TableRow]) -> String {
    let cluster = matches!(topology, Topology::Cluster(_));
    let fleet = topology == Topology::Fleet;
    let mut header = vec![first, "Served", "p50(ms)", "p99(ms)", "Cold(%)", "GiB*s"];
    if cluster {
        header.push("Hot(%)");
    }
    if fleet {
        header.extend([
            "Hosts", "Host-hrs", "SLOv(%)", "Scale+", "Scale-", "Crash", "Lost",
        ]);
    }
    let mut table = TextTable::new(&header);
    for (label, _, trials) in rows {
        // One merge pass per trial serves both percentiles.
        let mut merged: Vec<Histogram> =
            trials.iter().map(ScenarioOutcome::merged_latency).collect();
        let quantile_mean = |merged: &mut [Histogram], q: f64| {
            let qs: Vec<f64> = merged.iter_mut().map(|h| h.quantile(q)).collect();
            sim_core::metrics::mean(&qs)
        };
        let mut row = vec![
            label.clone(),
            format!(
                "{:.0}/{:.0}",
                mean_over(trials, |t| t.completed as f64),
                mean_over(trials, |t| t.offered as f64)
            ),
            format!("{:.0}", quantile_mean(&mut merged, 0.5)),
            format!("{:.0}", quantile_mean(&mut merged, 0.99)),
            format!("{:.1}", 100.0 * mean_over(trials, |t| t.cold_ratio())),
            format!("{:.1}", mean_over(trials, |t| t.gib_seconds)),
        ];
        if cluster {
            row.push(format!(
                "{:.1}",
                100.0 * mean_over(trials, |t| t.hot_share().unwrap_or(0.0))
            ));
        }
        if fleet {
            let f = |get: fn(&FleetStats) -> f64| {
                mean_over(trials, |t| t.fleet.as_ref().map(get).unwrap_or(0.0))
            };
            row.push(format!(
                "{:.0}→{:.0}",
                f(|s| s.min_active as f64),
                f(|s| s.peak_active as f64)
            ));
            row.push(format!("{:.2}", f(|s| s.host_hours)));
            row.push(format!("{:.1}", 100.0 * f(|s| s.slo_violation_rate())));
            row.push(format!("{:.0}", f(|s| s.scale_ups as f64)));
            row.push(format!("{:.0}", f(|s| s.scale_downs as f64)));
            row.push(format!("{:.0}", f(|s| s.crashes as f64)));
            row.push(format!("{:.0}", f(|s| s.lost as f64)));
        }
        table.row(row);
    }
    let mut out = table.render();

    // The time-resolved view, where the topology records one.
    let quarters: Vec<String> = rows
        .iter()
        .filter_map(|(label, duration_s, trials)| {
            let q = duration_s / 4.0;
            let means: Vec<Vec<f64>> = trials
                .iter()
                .filter_map(|t| {
                    t.latency_over_time.as_ref().map(|res| {
                        (0..4)
                            .map(|i| res.mean_in(i as f64 * q, (i + 1) as f64 * q).unwrap_or(0.0))
                            .collect()
                    })
                })
                .collect();
            if means.is_empty() {
                return None;
            }
            let avg = |i: usize| means.iter().map(|m| m[i]).sum::<f64>() / means.len() as f64;
            Some(format!(
                "  {label}: {:.0} / {:.0} / {:.0} / {:.0} ms",
                avg(0),
                avg(1),
                avg(2),
                avg(3)
            ))
        })
        .collect();
    if !quarters.is_empty() {
        out.push_str("Time-resolved mean latency (reservoir-sampled quarters):\n");
        for line in quarters {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}
