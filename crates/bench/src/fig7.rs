//! Figure 7: CPU utilization (%) of the kernel threads serving
//! downsizing requests, in the guest and in the host, while repeatedly
//! reclaiming 512 MiB. Balloon spikes host CPU; vanilla virtio-mem
//! hammers the guest vCPU with migrations; Squeezy needs almost nothing.

use mem_types::MIB;
use sim_core::experiment::{run_experiment, ExpOpts};
use sim_core::metrics::mean;
use sim_core::{BusyRecorder, CostModel, DetRng, SimDuration, SimTime, TextTable};

use crate::setup::{FarmKind, MemhogFarm};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig7Config {
    /// Reclaim size per step (paper: 512 MiB).
    pub reclaim_bytes: u64,
    /// Memhog instances loading the VM.
    pub instances: u32,
    /// Per-instance footprint.
    pub hog_bytes: u64,
    /// Experiment length in seconds (paper: 200 s).
    pub duration_s: u64,
    /// Seconds between reclaim steps.
    pub period_s: u64,
}

impl Fig7Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Fig7Config {
            reclaim_bytes: 512 * MIB,
            instances: 16,
            hog_bytes: 512 * MIB,
            duration_s: 200,
            period_s: 10,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig7Config {
            reclaim_bytes: 256 * MIB,
            instances: 4,
            hog_bytes: 256 * MIB,
            duration_s: 40,
            period_s: 10,
        }
    }
}

/// Per-method utilization series (fraction of one CPU, per second).
#[derive(Clone, Debug)]
pub struct Fig7Series {
    /// Method name.
    pub method: &'static str,
    /// Guest kernel-thread utilization per second.
    pub guest_util: Vec<f64>,
    /// Host (VMM) thread utilization per second.
    pub host_util: Vec<f64>,
}

impl Fig7Series {
    /// Mean utilization over the experiment.
    pub(crate) fn mean_guest(&self) -> f64 {
        mean(&self.guest_util)
    }

    /// Mean host utilization over the experiment.
    pub(crate) fn mean_host(&self) -> f64 {
        mean(&self.host_util)
    }

    /// Peak guest utilization.
    pub(crate) fn peak_guest(&self) -> f64 {
        self.guest_util.iter().copied().fold(0.0, f64::max)
    }

    /// Peak host utilization.
    pub(crate) fn peak_host(&self) -> f64 {
        self.host_util.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs the experiment for all three methods. The output is a
/// utilization timeline, so it runs one trial. The farm stream is
/// derived from the trial only — NOT the method — so all three methods
/// are measured on an identically churned farm.
pub fn run(cfg: &Fig7Config, opts: &ExpOpts) -> Vec<Fig7Series> {
    let seed = crate::setup::CHURN_SEED;
    let methods = ["Balloon", "Virtio-mem", "Squeezy"];
    run_experiment(&methods, 1, seed, opts.effective_jobs(), |&method, ctx| {
        let mut rng = DetRng::new(seed).derive(ctx.trial);
        run_method(method, cfg, &mut rng)
    })
    .into_iter()
    .map(|mut trials| trials.remove(0))
    .collect()
}

/// One reclaim/re-add cycle per period; kernel threads are pinned to
/// dedicated cores (§6.1.2), so their busy time maps directly onto the
/// recorder.
fn run_method(method: &'static str, cfg: &Fig7Config, rng: &mut DetRng) -> Fig7Series {
    let cost = CostModel::default();
    let kind = if method == "Squeezy" {
        FarmKind::Squeezy
    } else {
        FarmKind::Vanilla
    };
    let mut farm = MemhogFarm::build_seeded(kind, cfg.instances, cfg.hog_bytes, 1, &cost, rng);
    // Free one instance's worth so there is reclaimable memory; the rest
    // keeps running (loaded vCPUs).
    farm.kill(0);

    let mut guest_busy = BusyRecorder::new(SimDuration::secs(1));
    let mut host_busy = BusyRecorder::new(SimDuration::secs(1));
    let end = SimTime::ZERO + SimDuration::secs(cfg.duration_s);

    let mut t = SimTime::ZERO + SimDuration::secs(cfg.period_s / 2);
    while t < end {
        let (guest_cpu, host_cpu) = match method {
            "Balloon" => {
                let r = farm
                    .vm
                    .balloon_reclaim(&mut farm.host, cfg.reclaim_bytes, &cost)
                    .expect("free memory available");
                let cpu = (r.guest_cpu, r.host_cpu);
                // Re-add for the next cycle.
                farm.vm
                    .balloon
                    .deflate(&mut farm.vm.guest, cfg.reclaim_bytes, &cost);
                cpu
            }
            "Virtio-mem" => {
                let bytes = mem_types::align_up_to_block(cfg.reclaim_bytes);
                let r = farm
                    .vm
                    .unplug(&mut farm.host, bytes, None, &cost)
                    .expect("unplug");
                let cpu = (r.guest_cpu, r.host_cpu);
                farm.vm.plug(bytes, &cost).expect("replug");
                cpu
            }
            "Squeezy" => {
                let sq = farm.squeezy.as_mut().expect("squeezy farm");
                let (_, r) = sq
                    .unplug_partition(&mut farm.vm, &mut farm.host, &cost)
                    .expect("free partition");
                let cpu = (r.guest_cpu, r.host_cpu);
                sq.plug_partition(&mut farm.vm, &cost).expect("replug");
                cpu
            }
            _ => unreachable!(),
        };
        guest_busy.add_busy(t, t + guest_cpu);
        host_busy.add_busy(t, t + host_cpu);
        t += SimDuration::secs(cfg.period_s);
    }

    Fig7Series {
        method,
        guest_util: guest_busy.utilization(end),
        host_util: host_busy.utilization(end),
    }
}

/// Renders per-method summary plus a sampled timeline.
pub fn render(series: &[Fig7Series]) -> String {
    let mut t = TextTable::new(&[
        "Method",
        "Guest mean(%)",
        "Guest peak(%)",
        "Host mean(%)",
        "Host peak(%)",
    ]);
    for s in series {
        t.row(vec![
            s.method.to_string(),
            format!("{:.1}", 100.0 * s.mean_guest()),
            format!("{:.1}", 100.0 * s.peak_guest()),
            format!("{:.1}", 100.0 * s.mean_host()),
            format!("{:.1}", 100.0 * s.peak_host()),
        ]);
    }
    let mut out =
        String::from("Figure 7: CPU utilization of the reclaim kernel threads (guest and host)\n");
    out.push_str(&t.render());
    out.push_str(
        "(paper: balloon spikes host CPU, virtio-mem's guest kthread migrates heavily,\n\
         Squeezy requires negligible CPU resources)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtio_guest_heavy_balloon_host_heavy_squeezy_negligible() {
        let series = run(&Fig7Config::quick(), &ExpOpts::serial());
        let get = |m: &str| series.iter().find(|s| s.method == m).unwrap();
        let balloon = get("Balloon");
        let virtio = get("Virtio-mem");
        let squeezy = get("Squeezy");

        // Balloon is host-side dominated.
        assert!(
            balloon.peak_host() > balloon.peak_guest(),
            "balloon host {:.3} vs guest {:.3}",
            balloon.peak_host(),
            balloon.peak_guest()
        );
        // virtio-mem is guest-side dominated (migrations).
        assert!(
            virtio.peak_guest() > virtio.peak_host(),
            "virtio guest {:.3} vs host {:.3}",
            virtio.peak_guest(),
            virtio.peak_host()
        );
        // Squeezy uses far less CPU than either.
        assert!(squeezy.mean_guest() < virtio.mean_guest() / 10.0);
        assert!(squeezy.mean_host() < balloon.mean_host() / 10.0);
        assert!(squeezy.peak_guest() < 0.05, "{:.4}", squeezy.peak_guest());
    }

    #[test]
    fn utilization_series_cover_duration() {
        let cfg = Fig7Config::quick();
        let series = run(&cfg, &ExpOpts::serial());
        for s in &series {
            assert_eq!(s.guest_util.len() as u64, cfg.duration_s);
            assert!(s.guest_util.iter().all(|&u| (0.0..=1.0).contains(&u)));
        }
    }

    #[test]
    fn render_has_all_methods() {
        let s = render(&run(&Fig7Config::quick(), &ExpOpts::serial()));
        for m in ["Balloon", "Virtio-mem", "Squeezy"] {
            assert!(s.contains(m));
        }
    }
}
