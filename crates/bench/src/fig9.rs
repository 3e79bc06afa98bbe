//! Figure 9: CNN request latency during an HTML scale-down event on the
//! same VM. Vanilla virtio-mem's migrations run on shared vCPUs and more
//! than double CNN latency; Squeezy does not interfere.

use faas::{BackendKind, Deployment, SimConfig, VmSpec};
use sim_core::experiment::{run_experiment, ExpOpts};
use sim_core::{DetRng, TextTable};
use workloads::FunctionKind;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig9Config {
    /// Total duration.
    pub duration_s: f64,
    /// The HTML burst ends here; evictions land `keepalive_s` later.
    pub html_burst_end_s: f64,
    /// Keep-alive window.
    pub keepalive_s: f64,
    /// CNN request rate during the observation window.
    pub cnn_rps: f64,
    /// Number of HTML instances created by the burst.
    pub html_instances: u32,
    /// vCPUs of the shared VM (scarce enough for contention to show).
    pub vcpus: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Fig9Config {
    /// Paper-shaped configuration: scale-down lands around t ≈ 125 s.
    pub fn paper() -> Self {
        Fig9Config {
            duration_s: 200.0,
            html_burst_end_s: 105.0,
            keepalive_s: 20.0,
            cnn_rps: 5.0,
            html_instances: 20,
            vcpus: 6.0,
            seed: 9,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig9Config {
            duration_s: 120.0,
            html_burst_end_s: 45.0,
            keepalive_s: 15.0,
            cnn_rps: 4.0,
            html_instances: 10,
            vcpus: 4.0,
            seed: 9,
        }
    }

    /// The second in which evictions (the scale-down) begin.
    pub(crate) fn scaledown_s(&self) -> f64 {
        self.html_burst_end_s + self.keepalive_s
    }
}

/// Per-second mean CNN latency for one backend.
#[derive(Clone, Debug)]
pub struct Fig9Series {
    /// Backend under test.
    pub backend: BackendKind,
    /// `(second, mean_latency_ms)` samples over the observation window.
    pub per_second: Vec<(f64, f64)>,
}

impl Fig9Series {
    /// Mean latency over seconds in `[from, to)`.
    pub(crate) fn window_mean(&self, from: f64, to: f64) -> f64 {
        let xs: Vec<f64> = self
            .per_second
            .iter()
            .filter(|(s, _)| *s >= from && *s < to)
            .map(|&(_, l)| l)
            .collect();
        sim_core::metrics::mean(&xs)
    }
}

/// Runs the co-location experiment for both backends. Both backends
/// must see the same arrival jitter (the figure is a paired
/// comparison), so the trace stream is derived from the seed alone,
/// not the point; the output is a per-second timeline, so it runs one
/// trial.
pub fn run(cfg: &Fig9Config, opts: &ExpOpts) -> Vec<Fig9Series> {
    // A dedicated tag separates the trace stream from the FaaS sim's
    // jitter stream (`DetRng::new(seed).derive(trial)`) — without it
    // the two noise sources would replay the same draws.
    const TRACE_STREAM: u64 = 0x9A;
    let backends = [BackendKind::VirtioMem, BackendKind::Squeezy];
    run_experiment(
        &backends,
        1,
        cfg.seed,
        opts.effective_jobs(),
        |&backend, ctx| {
            let mut rng = DetRng::new(cfg.seed).derive(TRACE_STREAM).derive(ctx.trial);
            run_one(backend, cfg, &mut rng)
        },
    )
    .into_iter()
    .map(|mut trials| trials.remove(0))
    .collect()
}

fn run_one(backend: BackendKind, cfg: &Fig9Config, rng: &mut DetRng) -> Fig9Series {
    // HTML: a dense burst that spins up `html_instances` and then stops.
    let mut html = Vec::new();
    let mut t = 1.0;
    while t < cfg.html_burst_end_s {
        // Keep all instances busy so none idles out early.
        for i in 0..cfg.html_instances {
            html.push(t + i as f64 * 0.01 + rng.range_f64(0.0, 0.005));
        }
        t += 1.0;
    }
    // CNN: steady load through the scale-down window.
    let mut cnn = Vec::new();
    let mut t = 20.0;
    while t < cfg.duration_s - 10.0 {
        cnn.push(t);
        t += 1.0 / cfg.cnn_rps;
    }

    let host = SimConfig {
        backend,
        harvest: faas::HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: vec![
                Deployment {
                    kind: FunctionKind::Cnn,
                    concurrency: 8,
                },
                Deployment {
                    kind: FunctionKind::Html,
                    concurrency: cfg.html_instances,
                },
            ],
            vcpus: Some(cfg.vcpus),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: cfg.keepalive_s,
        duration_s: cfg.duration_s,
        unplug_deadline_ms: 30_000,
        // Figure 9 is a time-resolved plot: it needs the per-request
        // latency points.
        record_latency_points: true,
        seed: cfg.seed,
        trial: 0,
    };
    let result = crate::setup::run_host(host, vec![(0, 0, cnn), (0, 1, html)]);
    let m = &result.per_func[&FunctionKind::Cnn];
    let mut per_second = Vec::new();
    let mut s = 20.0;
    while s < cfg.duration_s {
        if let Some(mean) = m.mean_latency_in(s, s + 1.0) {
            per_second.push((s, mean));
        }
        s += 1.0;
    }
    Fig9Series {
        backend,
        per_second,
    }
}

/// Renders the per-second series around the scale-down plus a summary.
pub fn render(series: &[Fig9Series], cfg: &Fig9Config) -> String {
    let down = cfg.scaledown_s();
    let mut t = TextTable::new(&["Time(s)", "Virtio-mem(ms)", "Squeezy(ms)"]);
    let virtio = series
        .iter()
        .find(|s| s.backend == BackendKind::VirtioMem)
        .expect("virtio series");
    let squeezy = series
        .iter()
        .find(|s| s.backend == BackendKind::Squeezy)
        .expect("squeezy series");
    let from = (down - 15.0).max(0.0);
    let to = down + 25.0;
    let mut s = from;
    while s < to {
        let v = virtio.window_mean(s, s + 2.0);
        let q = squeezy.window_mean(s, s + 2.0);
        if v > 0.0 || q > 0.0 {
            t.row(vec![
                format!("{s:.0}"),
                format!("{v:.0}"),
                format!("{q:.0}"),
            ]);
        }
        s += 2.0;
    }
    let baseline = virtio.window_mean(from - 20.0, down - 2.0);
    let spike = peak_in(virtio, down - 2.0, to);
    let squeezy_spike = peak_in(squeezy, down - 2.0, to);
    let squeezy_base = squeezy.window_mean(from - 20.0, down - 2.0);
    let mut out =
        format!("Figure 9: CNN request latency around the HTML scale-down (t ≈ {down:.0} s)\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "virtio-mem: {baseline:.0} ms baseline -> {spike:.0} ms peak ({:.1}x slowdown; paper: >2x)\n\
         Squeezy:    {squeezy_base:.0} ms baseline -> {squeezy_spike:.0} ms peak ({:.2}x; paper: no interference)\n",
        spike / baseline.max(1.0),
        squeezy_spike / squeezy_base.max(1.0),
    ));
    out
}

/// Peak per-second latency in a window.
pub(crate) fn peak_in(series: &Fig9Series, from: f64, to: f64) -> f64 {
    series
        .per_second
        .iter()
        .filter(|(s, _)| *s >= from && *s < to)
        .map(|&(_, l)| l)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtio_scale_down_spikes_cnn_latency() {
        let cfg = Fig9Config::quick();
        let series = run(&cfg, &ExpOpts::serial());
        let virtio = series
            .iter()
            .find(|s| s.backend == BackendKind::VirtioMem)
            .unwrap();
        let squeezy = series
            .iter()
            .find(|s| s.backend == BackendKind::Squeezy)
            .unwrap();
        let down = cfg.scaledown_s();

        let v_base = virtio.window_mean(30.0, down - 5.0);
        let v_peak = peak_in(virtio, down - 2.0, down + 20.0);
        assert!(v_base > 0.0, "baseline measured");
        assert!(
            v_peak > 1.5 * v_base,
            "virtio spike {v_peak:.0} over baseline {v_base:.0}"
        );

        let s_base = squeezy.window_mean(30.0, down - 5.0);
        let s_peak = peak_in(squeezy, down - 2.0, down + 20.0);
        assert!(
            s_peak < 1.4 * s_base.max(1.0),
            "squeezy stays flat: {s_peak:.0} vs {s_base:.0}"
        );
    }

    #[test]
    fn render_summarizes_slowdown() {
        let cfg = Fig9Config::quick();
        let s = render(&run(&cfg, &ExpOpts::serial()), &cfg);
        assert!(s.contains("Figure 9"));
        assert!(s.contains("slowdown"));
    }
}
