//! Ablation: free page reporting vs the paper's reclaim interfaces.
//!
//! Free page reporting (\[21\], `VIRTIO_BALLOON_F_REPORTING`) is the
//! fourth state-of-practice interface next to ballooning, virtio-mem
//! and Squeezy: the guest periodically reports 2 MiB-contiguous free
//! chunks and the host drops their backing, without shrinking the VM.
//!
//! The experiment: a 16:1 VM of 256 MiB memhogs loses every other
//! instance; each interface then reclaims the freed half. Reported per
//! interface: how much host memory came back, how long it took, the
//! guest CPU burned, and whether the guest keeps its capacity (balloon
//! pins pages; unplug shrinks the VM; reporting keeps everything
//! usable).

use mem_types::MIB;
use sim_core::experiment::{mean_over, run_experiment, ExpOpts};
use sim_core::{CostModel, DetRng, SimDuration, TextTable};
use vmm::Vm;

use crate::setup::{FarmKind, MemhogFarm};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct FprConfig {
    /// Co-resident memhog instances.
    pub instances: u32,
    /// Per-instance footprint.
    pub hog_bytes: u64,
    /// Churn rounds before the kill (fragmentation knob).
    pub churn_rounds: u32,
}

impl FprConfig {
    /// Full-scale configuration.
    pub fn paper() -> Self {
        FprConfig {
            instances: 16,
            hog_bytes: 256 * MIB,
            churn_rounds: 1,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        FprConfig {
            instances: 8,
            hog_bytes: 128 * MIB,
            churn_rounds: 1,
        }
    }
}

/// One interface's measured outcome.
#[derive(Clone, Copy, Debug)]
pub struct FprRow {
    /// Interface name.
    pub method: &'static str,
    /// Host memory actually released (MiB).
    pub reclaimed_mib: f64,
    /// Wall latency of the reclaim (ms).
    pub latency_ms: f64,
    /// Guest CPU consumed (ms) — the Figure-7 interference currency.
    pub guest_cpu_ms: f64,
    /// Guest capacity still plugged and allocatable afterwards (MiB).
    pub usable_after_mib: f64,
}

/// Runs the four interfaces over identical farms. Trials re-churn the
/// farms from independent streams and the numeric columns are averaged.
/// The farm stream is derived from the trial only — NOT the interface —
/// so all four interfaces really do reclaim from identical farms.
pub fn run(cfg: &FprConfig, opts: &ExpOpts) -> Vec<FprRow> {
    let seed = crate::setup::CHURN_SEED;
    let methods = ["free-page-reporting", "balloon", "virtio-mem", "squeezy"];
    run_experiment(
        &methods,
        opts.trials,
        seed,
        opts.effective_jobs(),
        |&method, ctx| {
            let cost = CostModel::default();
            let mut rng = DetRng::new(seed).derive(ctx.trial);
            match method {
                "free-page-reporting" => fpr_row(cfg, &cost, &mut rng),
                "balloon" => balloon_row(cfg, &cost, &mut rng),
                "virtio-mem" => virtio_row(cfg, &cost, &mut rng),
                _ => squeezy_row(cfg, &cost, &mut rng),
            }
        },
    )
    .into_iter()
    .map(|trials| FprRow {
        method: trials[0].method,
        reclaimed_mib: mean_over(&trials, |r| r.reclaimed_mib),
        latency_ms: mean_over(&trials, |r| r.latency_ms),
        guest_cpu_ms: mean_over(&trials, |r| r.guest_cpu_ms),
        usable_after_mib: mean_over(&trials, |r| r.usable_after_mib),
    })
    .collect()
}

/// Kills every other hog, returning the freed bytes.
fn kill_half(farm: &mut MemhogFarm) -> u64 {
    let mut freed_pages = 0;
    for i in (0..farm.hogs.len()).step_by(2) {
        freed_pages += farm.kill(i);
    }
    freed_pages * mem_types::PAGE_SIZE
}

/// Usable guest memory: present and either free or reclaimable.
fn usable_mib(vm: &Vm) -> f64 {
    vm.guest.free_bytes() as f64 / MIB as f64
}

fn fpr_row(cfg: &FprConfig, cost: &CostModel, rng: &mut DetRng) -> FprRow {
    let mut farm = MemhogFarm::build_seeded(
        FarmKind::Vanilla,
        cfg.instances,
        cfg.hog_bytes,
        cfg.churn_rounds,
        cost,
        rng,
    );
    kill_half(&mut farm);
    let used0 = farm.host.used_bytes();
    let mut fpr = balloon::FreePageReporter::new(balloon::DEFAULT_REPORT_ORDER);
    let mut latency = SimDuration::ZERO;
    let mut guest_cpu = SimDuration::ZERO;
    // Cycles until convergence (an idle cycle reports nothing new).
    loop {
        let c = farm.vm.report_free_pages(&mut farm.host, &mut fpr, cost);
        latency += c.latency();
        guest_cpu += c.guest_cpu;
        if c.chunks.is_empty() {
            break;
        }
    }
    FprRow {
        method: "free-page-reporting",
        reclaimed_mib: (used0 - farm.host.used_bytes()) as f64 / MIB as f64,
        latency_ms: latency.as_millis_f64(),
        guest_cpu_ms: guest_cpu.as_millis_f64(),
        usable_after_mib: usable_mib(&farm.vm),
    }
}

fn balloon_row(cfg: &FprConfig, cost: &CostModel, rng: &mut DetRng) -> FprRow {
    let mut farm = MemhogFarm::build_seeded(
        FarmKind::Vanilla,
        cfg.instances,
        cfg.hog_bytes,
        cfg.churn_rounds,
        cost,
        rng,
    );
    let freed = kill_half(&mut farm);
    let used0 = farm.host.used_bytes();
    let report = farm
        .vm
        .balloon_reclaim(&mut farm.host, freed, cost)
        .expect("free memory exists");
    FprRow {
        method: "balloon",
        reclaimed_mib: (used0 - farm.host.used_bytes()) as f64 / MIB as f64,
        latency_ms: report.latency().as_millis_f64(),
        guest_cpu_ms: report.guest_cpu.as_millis_f64(),
        // Inflated pages are pinned: not usable until deflation.
        usable_after_mib: usable_mib(&farm.vm),
    }
}

fn virtio_row(cfg: &FprConfig, cost: &CostModel, rng: &mut DetRng) -> FprRow {
    let mut farm = MemhogFarm::build_seeded(
        FarmKind::Vanilla,
        cfg.instances,
        cfg.hog_bytes,
        cfg.churn_rounds,
        cost,
        rng,
    );
    let freed = kill_half(&mut farm);
    let used0 = farm.host.used_bytes();
    let report = farm
        .vm
        .unplug(
            &mut farm.host,
            mem_types::align_up_to_block(freed) - mem_types::MEM_BLOCK_SIZE,
            None,
            cost,
        )
        .expect("candidates exist");
    FprRow {
        method: "virtio-mem",
        reclaimed_mib: (used0 - farm.host.used_bytes()) as f64 / MIB as f64,
        latency_ms: report.latency().as_millis_f64(),
        guest_cpu_ms: report.guest_cpu.as_millis_f64(),
        usable_after_mib: usable_mib(&farm.vm),
    }
}

fn squeezy_row(cfg: &FprConfig, cost: &CostModel, rng: &mut DetRng) -> FprRow {
    let mut farm = MemhogFarm::build_seeded(
        FarmKind::Squeezy,
        cfg.instances,
        cfg.hog_bytes,
        cfg.churn_rounds,
        cost,
        rng,
    );
    kill_half(&mut farm);
    let used0 = farm.host.used_bytes();
    let mut latency = SimDuration::ZERO;
    let mut guest_cpu = SimDuration::ZERO;
    let mut sq = farm.squeezy.take().expect("squeezy farm");
    let (_, report) = sq
        .unplug_partitions_batched(&mut farm.vm, &mut farm.host, usize::MAX, cost)
        .expect("freed partitions exist");
    latency += report.latency();
    guest_cpu += report.guest_cpu;
    FprRow {
        method: "squeezy",
        reclaimed_mib: (used0 - farm.host.used_bytes()) as f64 / MIB as f64,
        latency_ms: latency.as_millis_f64(),
        guest_cpu_ms: guest_cpu.as_millis_f64(),
        usable_after_mib: usable_mib(&farm.vm),
    }
}

/// Renders the comparison.
pub fn render(rows: &[FprRow]) -> String {
    let mut t = TextTable::new(&[
        "Method",
        "Reclaimed(MiB)",
        "Latency(ms)",
        "GuestCPU(ms)",
        "UsableAfter(MiB)",
    ]);
    for r in rows {
        t.row(vec![
            r.method.to_string(),
            format!("{:.0}", r.reclaimed_mib),
            format!("{:.0}", r.latency_ms),
            format!("{:.0}", r.guest_cpu_ms),
            format!("{:.0}", r.usable_after_mib),
        ]);
    }
    let mut s = String::from(
        "Ablation: free page reporting [21] vs balloon / virtio-mem / Squeezy\n\
         (16:1 memhog VM loses every other instance; each interface reclaims the half)\n",
    );
    s.push_str(&t.render());
    s.push_str(
        "reporting keeps the guest's capacity usable but converges over cycles;\n\
         balloon pins what it reclaims; unplug shrinks the VM; Squeezy does it instantly\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interfaces_reclaim_comparable_memory() {
        let rows = run(&FprConfig::quick(), &ExpOpts::serial());
        let get = |m: &str| *rows.iter().find(|r| r.method == m).unwrap();
        let fpr = get("free-page-reporting");
        let blln = get("balloon");
        let virt = get("virtio-mem");
        let sq = get("squeezy");
        let target = (FprConfig::quick().instances / 2) as f64
            * (FprConfig::quick().hog_bytes as f64 / MIB as f64);
        for r in [&fpr, &blln, &virt, &sq] {
            assert!(
                r.reclaimed_mib >= target * 0.5,
                "{}: only {} of {} MiB reclaimed",
                r.method,
                r.reclaimed_mib,
                target
            );
        }
        // Squeezy beats the synchronous baselines outright; reporting's
        // *mechanical* cost is small too (its deployment latency is the
        // reporting period, not the cycle cost), and it burns far less
        // guest CPU than migration or per-page inflation.
        assert!(sq.latency_ms < virt.latency_ms);
        assert!(sq.latency_ms < blln.latency_ms);
        assert!(fpr.guest_cpu_ms < virt.guest_cpu_ms);
        assert!(fpr.guest_cpu_ms < blln.guest_cpu_ms);
        assert!(sq.guest_cpu_ms < virt.guest_cpu_ms);
    }

    #[test]
    fn reporting_preserves_usable_capacity() {
        let rows = run(&FprConfig::quick(), &ExpOpts::serial());
        let get = |m: &str| *rows.iter().find(|r| r.method == m).unwrap();
        // Reporting leaves the freed memory allocatable in the guest;
        // balloon pins it; unplug removes it.
        assert!(
            get("free-page-reporting").usable_after_mib > get("balloon").usable_after_mib + 100.0
        );
        assert!(
            get("free-page-reporting").usable_after_mib
                > get("virtio-mem").usable_after_mib + 100.0
        );
    }

    #[test]
    fn render_mentions_all_methods() {
        let s = render(&run(&FprConfig::quick(), &ExpOpts::serial()));
        for m in ["free-page-reporting", "balloon", "virtio-mem", "squeezy"] {
            assert!(s.contains(m), "{m} missing");
        }
    }
}
