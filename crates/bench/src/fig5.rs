//! Figure 5: average latency to reclaim memory of different sizes from a
//! memhog-loaded guest, broken into zeroing / migration / VM exits /
//! rest, for Balloon, vanilla virtio-mem and Squeezy.

use mem_types::MIB;
use sim_core::experiment::{run_experiment, ExpOpts};
use sim_core::{CostModel, DetRng, LatencyBreakdown, TextTable};

use crate::setup::{FarmKind, MemhogFarm};

/// The reclamation methods under comparison.
const METHODS: [&str; 3] = ["Balloon", "Virtio-mem", "Squeezy"];

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig5Config {
    /// Reclaim sizes to sweep (the paper uses 128 MiB - 2 GiB).
    pub sizes_mib: Vec<u64>,
    /// Concurrent memhog instances (paper: 32 on a 32:1 VM).
    pub instances: u32,
    /// Footprint-scattering churn rounds during warm-up.
    pub churn_rounds: u32,
}

impl Fig5Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Fig5Config {
            sizes_mib: vec![128, 256, 512, 1024, 2048],
            instances: 32,
            churn_rounds: 2,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig5Config {
            sizes_mib: vec![128, 256],
            instances: 8,
            churn_rounds: 1,
        }
    }
}

/// One bar of the figure.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Reclaimed memory size (MiB).
    pub size_mib: u64,
    /// Reclamation method.
    pub method: &'static str,
    /// Average per-step latency breakdown.
    pub breakdown: LatencyBreakdown,
}

/// Runs the experiment: for each size and method, fill a VM with
/// memhogs, kill them iteratively, reclaim the killed instance's size at
/// every step, and average the latency across steps (and trials).
///
/// Trials re-churn the farm from independent streams. The farm stream
/// is derived from `(size, trial)` only — NOT the method — so the three
/// methods of one size are always measured on an identically churned
/// farm (the paired comparison the figure reports).
pub fn run(cfg: &Fig5Config, opts: &ExpOpts) -> Vec<Fig5Row> {
    let points: Vec<(u64, u64, &'static str)> = (0u64..)
        .zip(&cfg.sizes_mib)
        .flat_map(|(idx, &size)| METHODS.iter().map(move |&m| (idx, size, m)))
        .collect();
    let seed = crate::setup::CHURN_SEED;
    let cells = run_experiment(
        &points,
        opts.trials,
        seed,
        opts.effective_jobs(),
        |&(size_idx, size_mib, method), ctx| {
            let mut rng = DetRng::new(seed).derive(size_idx).derive(ctx.trial);
            run_method(method, size_mib * MIB, cfg, &CostModel::default(), &mut rng)
        },
    );
    points
        .into_iter()
        .zip(cells)
        .map(|((_, size_mib, method), trials)| {
            let mut acc = LatencyBreakdown::default();
            for b in &trials {
                acc.accumulate(b);
            }
            Fig5Row {
                size_mib,
                method,
                breakdown: acc.scale_down(trials.len() as u64),
            }
        })
        .collect()
}

fn run_method(
    method: &str,
    bytes: u64,
    cfg: &Fig5Config,
    cost: &CostModel,
    rng: &mut DetRng,
) -> LatencyBreakdown {
    let kind = if method == "Squeezy" {
        FarmKind::Squeezy
    } else {
        FarmKind::Vanilla
    };
    let mut farm =
        MemhogFarm::build_seeded(kind, cfg.instances, bytes, cfg.churn_rounds, cost, rng);
    let mut acc = LatencyBreakdown::default();
    let steps = cfg.instances as usize;
    for k in 0..steps {
        farm.kill(k);
        let step = match method {
            "Balloon" => {
                let r = farm
                    .vm
                    .balloon_reclaim(&mut farm.host, bytes, cost)
                    .expect("freed memory available");
                r.breakdown
            }
            "Virtio-mem" => {
                let r = farm
                    .vm
                    .unplug(
                        &mut farm.host,
                        mem_types::align_up_to_block(bytes),
                        None,
                        cost,
                    )
                    .expect("unplug");
                r.breakdown
            }
            "Squeezy" => {
                let sq = farm.squeezy.as_mut().expect("squeezy farm");
                let (_, r) = sq
                    .unplug_partition(&mut farm.vm, &mut farm.host, cost)
                    .expect("freed partition");
                r.breakdown
            }
            _ => unreachable!(),
        };
        acc.accumulate(&step);
    }
    acc.scale_down(steps as u64)
}

/// Renders the figure as a text table (ms per bucket).
pub fn render(rows: &[Fig5Row]) -> String {
    let mut t = TextTable::new(&[
        "Size",
        "Method",
        "Total(ms)",
        "Zeroing",
        "Migration",
        "VMExits",
        "Rest",
    ]);
    for r in rows {
        t.row(vec![
            format!("{} MiB", r.size_mib),
            r.method.to_string(),
            format!("{:.1}", r.breakdown.total().as_millis_f64()),
            format!("{:.1}", r.breakdown.zeroing.as_millis_f64()),
            format!("{:.1}", r.breakdown.migration.as_millis_f64()),
            format!("{:.1}", r.breakdown.vmexits.as_millis_f64()),
            format!("{:.1}", r.breakdown.rest.as_millis_f64()),
        ]);
    }
    let mut out = String::from(
        "Figure 5: average latency (ms) to reclaim memory from a memhog-loaded guest\n",
    );
    out.push_str(&t.render());
    out.push_str(&summary(rows));
    out
}

/// Headline ratios the paper reports in §6.1.1.
pub(crate) fn summary(rows: &[Fig5Row]) -> String {
    let mut balloon_total = 0.0;
    let mut virtio_total = 0.0;
    let mut squeezy_total = 0.0;
    let mut virtio_migration = 0.0;
    let mut virtio_zeroing = 0.0;
    let mut balloon_exits = 0.0;
    let mut n = 0.0;
    for r in rows {
        let total = r.breakdown.total().as_millis_f64();
        match r.method {
            "Balloon" => {
                balloon_total += total;
                balloon_exits += r.breakdown.fractions()[2];
                n += 1.0;
            }
            "Virtio-mem" => {
                virtio_total += total;
                let f = r.breakdown.fractions();
                virtio_zeroing += f[0];
                virtio_migration += f[1];
            }
            "Squeezy" => squeezy_total += total,
            _ => {}
        }
    }
    format!(
        "virtio-mem vs balloon: {:.2}x faster (paper: 2.34x)\n\
         Squeezy vs virtio-mem: {:.1}x faster (paper: 10.9x)\n\
         virtio-mem migration share: {:.1}% (paper: 61.5%)\n\
         virtio-mem zeroing share: {:.1}% (paper: 24%)\n\
         balloon VM-exit share: {:.1}% (paper: 81%)\n",
        balloon_total / virtio_total,
        virtio_total / squeezy_total,
        100.0 * virtio_migration / n,
        100.0 * virtio_zeroing / n,
        100.0 * balloon_exits / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_ordering() {
        let rows = run(&Fig5Config::quick(), &ExpOpts::serial());
        assert_eq!(rows.len(), 6);
        for size in [128u64, 256] {
            let get = |m: &str| {
                rows.iter()
                    .find(|r| r.size_mib == size && r.method == m)
                    .map(|r| r.breakdown.total())
                    .unwrap()
            };
            let balloon = get("Balloon");
            let virtio = get("Virtio-mem");
            let squeezy = get("Squeezy");
            assert!(balloon > virtio, "{size}: balloon slowest");
            assert!(virtio > squeezy, "{size}: squeezy fastest");
        }
    }

    #[test]
    fn virtio_breakdown_is_migration_dominated() {
        let rows = run(&Fig5Config::quick(), &ExpOpts::serial());
        let v = rows
            .iter()
            .find(|r| r.size_mib == 256 && r.method == "Virtio-mem")
            .unwrap();
        let f = v.breakdown.fractions();
        assert!(f[1] > 0.4, "migration share {:.2}", f[1]);
        assert!(f[0] > 0.1, "zeroing share {:.2}", f[0]);
    }

    #[test]
    fn squeezy_has_no_migration_or_zeroing() {
        let rows = run(&Fig5Config::quick(), &ExpOpts::serial());
        for r in rows.iter().filter(|r| r.method == "Squeezy") {
            assert_eq!(r.breakdown.migration.as_nanos(), 0);
            assert_eq!(r.breakdown.zeroing.as_nanos(), 0);
        }
    }

    #[test]
    fn render_produces_table() {
        let rows = run(&Fig5Config::quick(), &ExpOpts::serial());
        let s = render(&rows);
        assert!(s.contains("Figure 5"));
        assert!(s.contains("Squeezy"));
        assert!(s.contains("paper: 10.9x"));
    }
}
