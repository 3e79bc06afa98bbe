//! Figure 1: the N:1 model's idle-memory problem. A 50:1 VM serves a
//! bursty trace; guest memory usage tracks the instance count, but the
//! host keeps the peak allocated because nothing reclaims it.

use faas::{BackendKind, Deployment, HarvestConfig, SimConfig, SimResult, VmSpec};
use sim_core::experiment::{run_experiment, ExpOpts, TrialCtx};
use sim_core::{SimDuration, TextTable};
use workloads::{bursty_arrivals, BurstyTraceConfig, FunctionKind};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig1Config {
    /// Concurrency factor of the VM (paper: 50).
    pub concurrency: u32,
    /// Trace length (paper: ~450 s shown).
    pub duration_s: f64,
    /// Peak burst rate in requests/second.
    pub burst_rps: f64,
    /// Keep-alive window before idle eviction.
    pub keepalive_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Fig1Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Fig1Config {
            concurrency: 50,
            duration_s: 450.0,
            burst_rps: 160.0,
            keepalive_s: 120.0,
            seed: 11,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig1Config {
            concurrency: 10,
            duration_s: 150.0,
            burst_rps: 30.0,
            keepalive_s: 40.0,
            seed: 11,
        }
    }
}

/// Runs the motivation experiment on the static (vanilla N:1) backend.
/// The output is a single timeline, so it runs one trial.
pub fn run(cfg: &Fig1Config, opts: &ExpOpts) -> SimResult {
    run_experiment(&[()], 1, cfg.seed, opts.effective_jobs(), |_, ctx| {
        run_trial(cfg, ctx)
    })
    .remove(0)
    .remove(0)
}

fn run_trial(cfg: &Fig1Config, ctx: &mut TrialCtx) -> SimResult {
    let rng = &mut ctx.rng;
    // A strong burst early, then decaying load: instances pile up and
    // then go idle.
    let trace_cfg = BurstyTraceConfig {
        duration_s: cfg.duration_s * 0.45,
        base_rps: 1.0,
        burst_rps: cfg.burst_rps,
        mean_burst_s: 25.0,
        mean_idle_s: 20.0,
    };
    let mut arrivals = bursty_arrivals(&trace_cfg, rng);
    // Light tail traffic afterwards.
    let tail = BurstyTraceConfig {
        duration_s: cfg.duration_s,
        base_rps: 0.5,
        burst_rps: 2.0,
        mean_burst_s: 10.0,
        mean_idle_s: 60.0,
    };
    arrivals.extend(
        bursty_arrivals(&tail, rng)
            .into_iter()
            .filter(|&t| t > cfg.duration_s * 0.45),
    );
    arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let host = SimConfig {
        backend: BackendKind::Static,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: vec![Deployment {
                kind: FunctionKind::Html,
                concurrency: cfg.concurrency,
            }],
            vcpus: Some((cfg.concurrency as f64 * 0.25).ceil().max(2.0)),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: cfg.keepalive_s,
        duration_s: cfg.duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed: cfg.seed,
        trial: ctx.trial,
    };
    crate::setup::run_host(host, vec![(0, 0, arrivals)])
}

/// Renders guest/host usage and instance count over time.
pub fn render(result: &SimResult) -> String {
    let step = SimDuration::secs(15);
    let guest = result.guest_usage[0].downsample(step);
    let host = result.host_usage.downsample(step);
    let insts = result.instance_counts[0].downsample(step);
    let mut t = TextTable::new(&["Time(s)", "Guest(GiB)", "Host(GiB)", "#Instances"]);
    for i in 0..guest.len().min(host.len()).min(insts.len()) {
        t.row(vec![
            format!("{:.0}", guest[i].0),
            format!("{:.2}", guest[i].1 / (1u64 << 30) as f64),
            format!("{:.2}", host[i].1 / (1u64 << 30) as f64),
            format!("{:.0}", insts[i].1),
        ]);
    }
    let guest_peak = result.guest_usage[0].max_value() / (1u64 << 30) as f64;
    let guest_last = result.guest_usage[0]
        .last()
        .map_or(0.0, |(_, v)| v / (1u64 << 30) as f64);
    let host_last = result
        .host_usage
        .last()
        .map_or(0.0, |(_, v)| v / (1u64 << 30) as f64);
    let mut out = String::from(
        "Figure 1: N:1 VM memory usage (guest vs host) under a bursty trace, static backend\n",
    );
    out.push_str(&t.render());
    out.push_str(&format!(
        "guest peak {guest_peak:.2} GiB -> ends at {guest_last:.2} GiB after evictions; \
         host stays at {host_last:.2} GiB (idle memory, paper Figure 1)\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_keeps_peak_while_guest_shrinks() {
        let result = run(&Fig1Config::quick(), &ExpOpts::serial());
        assert!(result.completed > 20, "trace served");
        let guest = &result.guest_usage[0];
        let host = &result.host_usage;
        let guest_peak = guest.max_value();
        let guest_end = guest.last().unwrap().1;
        let host_peak = host.max_value();
        let host_end = host.last().unwrap().1;
        // Evictions shrank guest usage well below its peak…
        assert!(
            guest_end < guest_peak * 0.7,
            "guest {guest_end} vs peak {guest_peak}"
        );
        // …but host usage never came down.
        assert!(
            host_end > host_peak * 0.98,
            "host {host_end} vs peak {host_peak}"
        );
    }

    #[test]
    fn instances_scale_up_and_down() {
        let result = run(&Fig1Config::quick(), &ExpOpts::serial());
        let insts = &result.instance_counts[0];
        let peak = insts.max_value();
        assert!(peak >= 3.0, "burst created instances: peak {peak}");
        let last = insts.last().unwrap().1;
        assert!(last < peak, "keep-alive evicted idle instances");
    }
}
