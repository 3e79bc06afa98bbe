//! Ablation: transparent huge pages (2 MiB) × reclamation method.
//!
//! The paper's testbed enables THP on the host (§5.1) and notes guest
//! allocation happens "in page granularity (4KiB or 2MiB)" (§7). This
//! ablation quantifies the three interactions:
//!
//! * **Cold touch** — first-touch latency of an instance footprint with
//!   4 KiB vs 2 MiB nested faults (the cold-start tax of §6.2.1 shrinks
//!   when 512 base faults collapse into one huge fault);
//! * **Reclaim** — vanilla virtio-mem must migrate huge pages whole (or
//!   split them when contiguity runs out) while Squeezy's partition
//!   unplug stays instant regardless of the backing granularity;
//! * **Contiguity** — after base-page churn ages a vanilla VM, huge
//!   faults start falling back; a freshly plugged Squeezy partition is
//!   whole-block free, so its huge faults always succeed.

use guest_mm::{GuestMmConfig, PAGES_PER_HUGE};
use mem_types::{align_up_to_block, GIB, MIB};
use sim_core::experiment::{run_experiment, ExpOpts};
use sim_core::{CostModel, DetRng, TextTable};
use squeezy::{SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::Memhog;

use crate::setup::fill_interleaved;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ThpConfig {
    /// Per-instance footprint (Table 1 default: 768 MiB).
    pub instance_bytes: u64,
    /// Co-resident instances in the reclaim experiment.
    pub instances: u32,
    /// Churn rounds used to age the vanilla VM for the contiguity part.
    pub aging_rounds: u32,
}

impl ThpConfig {
    /// Full-scale configuration (CNN-sized instances, 8:1 VM).
    pub fn paper() -> Self {
        ThpConfig {
            instance_bytes: 768 * MIB,
            instances: 8,
            aging_rounds: 4,
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        ThpConfig {
            instance_bytes: 256 * MIB,
            instances: 4,
            aging_rounds: 2,
        }
    }
}

/// One reclaim row of the ablation.
#[derive(Clone, Copy, Debug)]
pub struct ReclaimRow {
    /// Backing granularity under test.
    pub huge: bool,
    /// Vanilla virtio-mem reclaim latency (ms).
    pub virtio_ms: f64,
    /// Whole-huge migrations performed by the vanilla path.
    pub virtio_migrated_huge: u64,
    /// Huge pages the vanilla path had to split.
    pub virtio_huge_splits: u64,
    /// Squeezy reclaim latency (ms).
    pub squeezy_ms: f64,
}

/// Full ablation results.
#[derive(Clone, Debug)]
pub struct ThpResult {
    /// First-touch latency of one instance footprint, 4 KiB faults (ms).
    pub cold_touch_4k_ms: f64,
    /// First-touch latency of one instance footprint, 2 MiB faults (ms).
    pub cold_touch_2m_ms: f64,
    /// Reclaim rows for base-page and huge-page backed instances.
    pub reclaim: Vec<ReclaimRow>,
    /// Huge fault success rate on an aged vanilla VM (0..=1).
    pub aged_success_rate: f64,
    /// Huge fault success rate on a fresh Squeezy partition (0..=1).
    pub partition_success_rate: f64,
}

/// One independent part of the ablation grid.
#[derive(Clone, Copy, Debug)]
enum ThpPart {
    /// First-touch latency with base or huge faults.
    Cold { huge: bool },
    /// Reclaim comparison over base- or huge-backed instances.
    Reclaim { huge: bool },
    /// Huge-fault success on an aged VM vs a fresh partition.
    Contiguity,
}

/// The heterogeneous output of one part.
enum ThpPartOut {
    ColdMs { huge: bool, ms: f64 },
    Reclaim(ReclaimRow),
    Contiguity { aged: f64, partition: f64 },
}

/// Runs all three parts of the ablation as a five-point sweep (cold
/// touch and reclaim split per backing); the aging shuffle draws from
/// the trial stream.
pub fn run(cfg: &ThpConfig, opts: &ExpOpts) -> ThpResult {
    let parts = [
        ThpPart::Cold { huge: false },
        ThpPart::Cold { huge: true },
        ThpPart::Reclaim { huge: false },
        ThpPart::Reclaim { huge: true },
        ThpPart::Contiguity,
    ];
    let parts = run_experiment(&parts, 1, 0x7867, opts.effective_jobs(), |&part, ctx| {
        let cost = CostModel::default();
        match part {
            ThpPart::Cold { huge } => ThpPartOut::ColdMs {
                huge,
                ms: cold_touch(cfg, huge, &cost),
            },
            ThpPart::Reclaim { huge } => ThpPartOut::Reclaim(reclaim_row(cfg, huge, &cost)),
            ThpPart::Contiguity => {
                let (aged, partition) = contiguity(cfg, &cost, &mut ctx.rng);
                ThpPartOut::Contiguity { aged, partition }
            }
        }
    });
    let mut result = ThpResult {
        cold_touch_4k_ms: 0.0,
        cold_touch_2m_ms: 0.0,
        reclaim: Vec::new(),
        aged_success_rate: 0.0,
        partition_success_rate: 0.0,
    };
    for mut trials in parts {
        match trials.remove(0) {
            ThpPartOut::ColdMs { huge: false, ms } => result.cold_touch_4k_ms = ms,
            ThpPartOut::ColdMs { huge: true, ms } => result.cold_touch_2m_ms = ms,
            ThpPartOut::Reclaim(row) => result.reclaim.push(row),
            ThpPartOut::Contiguity { aged, partition } => {
                result.aged_success_rate = aged;
                result.partition_success_rate = partition;
            }
        }
    }
    result
}

/// Part 1: first-touch latency of a full instance footprint.
fn cold_touch(cfg: &ThpConfig, huge: bool, cost: &CostModel) -> f64 {
    let (mut vm, mut host) = plugged_vm(cfg.instance_bytes, cost);
    let hog = if huge {
        Memhog::spawn_huge(&mut vm, cfg.instance_bytes)
    } else {
        Memhog::spawn(&mut vm, cfg.instance_bytes)
    };
    let charge = hog.warm_up(&mut vm, &mut host, cost).expect("fits");
    charge.latency.as_millis_f64()
}

/// Part 2: kill one of `instances` co-resident hogs and reclaim its
/// memory, for both backings and both methods.
fn reclaim_row(cfg: &ThpConfig, huge: bool, cost: &CostModel) -> ReclaimRow {
    // Vanilla: all instances share ZONE_MOVABLE; warm up interleaved so
    // footprints mix at chunk granularity.
    let part_bytes = align_up_to_block(cfg.instance_bytes);
    let hotplug = part_bytes * cfg.instances as u64;
    let (mut vm, mut host) = plugged_vm(hotplug, cost);
    vm.guest.unplug_aware_zeroing_skip = false;
    let mut hogs = Vec::new();
    for _ in 0..cfg.instances {
        hogs.push(if huge {
            Memhog::spawn_huge(&mut vm, cfg.instance_bytes)
        } else {
            Memhog::spawn(&mut vm, cfg.instance_bytes)
        });
    }
    fill_interleaved(&mut vm, &mut host, &hogs, cost);
    hogs[0].kill(&mut vm).expect("alive");
    let before = *vm.guest.stats();
    let report = vm
        .unplug(&mut host, part_bytes, None, cost)
        .expect("reclaimable");
    let virtio_ms = report.latency().as_millis_f64();
    let after = *vm.guest.stats();

    // Squeezy: identical layout but partitioned; unplug is instant.
    let (mut svm, mut shost) = fresh_vm(hotplug);
    let mut sq = SqueezyManager::install(
        &mut svm,
        SqueezyConfig {
            partition_bytes: part_bytes,
            shared_bytes: 0,
            concurrency: cfg.instances,
        },
        cost,
    )
    .expect("layout fits");
    let mut shogs = Vec::new();
    for _ in 0..cfg.instances {
        let hog = if huge {
            Memhog::spawn_huge(&mut svm, cfg.instance_bytes)
        } else {
            Memhog::spawn(&mut svm, cfg.instance_bytes)
        };
        sq.plug_partition(&mut svm, cost).expect("partition");
        sq.attach(&mut svm, hog.pid).expect("attach");
        shogs.push(hog);
    }
    fill_interleaved(&mut svm, &mut shost, &shogs, cost);
    shogs[0].kill(&mut svm).expect("alive");
    sq.detach(shogs[0].pid).expect("attached");
    let (_, sreport) = sq
        .unplug_partition(&mut svm, &mut shost, cost)
        .expect("free partition");

    ReclaimRow {
        huge,
        virtio_ms,
        virtio_migrated_huge: after.huge_migrated - before.huge_migrated,
        virtio_huge_splits: after.huge_splits - before.huge_splits,
        squeezy_ms: sreport.latency().as_millis_f64(),
    }
}

/// Part 3: huge fault success after aging vs on a fresh partition.
fn contiguity(cfg: &ThpConfig, cost: &CostModel, rng: &mut DetRng) -> (f64, f64) {
    // Age a vanilla VM: fill the whole movable zone with base pages,
    // then punch single-page holes at random so free runs shrink below
    // 2 MiB — the allocator-induced fragmentation of §2.2.
    let hotplug = align_up_to_block(cfg.instance_bytes) * 2;
    let (mut vm, mut host) = plugged_vm(hotplug, cost);
    let pid = vm
        .guest
        .spawn_process(guest_mm::AllocPolicy::PinnedZone(guest_mm::ZONE_MOVABLE));
    let zone_pages = vm.guest.zone(guest_mm::ZONE_MOVABLE).free_pages;
    vm.touch_anon(&mut host, pid, zone_pages, cost)
        .expect("fits");
    let mut freed = 0u64;
    for _ in 0..cfg.aging_rounds.max(1) {
        let held: Vec<_> = vm.guest.process(pid).unwrap().pages().collect();
        for g in held {
            // Free a sixth of the resident pages per round, scattered.
            if rng.range(0, 6) == 0 {
                vm.guest.free_anon_page(pid, g).expect("owned");
                freed += 1;
            }
        }
    }
    // Probe for half the freed memory as huge pages: plenty of free
    // pages exist, but almost none of it is 2 MiB-contiguous.
    let want_huge = (freed / 2) / PAGES_PER_HUGE;
    let prober = vm
        .guest
        .spawn_process(guest_mm::AllocPolicy::PinnedZone(guest_mm::ZONE_MOVABLE));
    let aged_out = vm.guest.fault_anon_huge(prober, want_huge).expect("fits");
    let aged_rate = aged_out.huge_success_rate().unwrap_or(0.0);

    // Fresh Squeezy partition: plug and probe.
    let (mut svm, _shost) = fresh_vm(hotplug);
    let mut sq = SqueezyManager::install(
        &mut svm,
        SqueezyConfig {
            partition_bytes: align_up_to_block(cfg.instance_bytes),
            shared_bytes: 0,
            concurrency: 2,
        },
        cost,
    )
    .expect("layout fits");
    sq.plug_partition(&mut svm, cost).expect("partition");
    let sprober = svm
        .guest
        .spawn_process(guest_mm::AllocPolicy::MovableDefault);
    sq.attach(&mut svm, sprober).expect("attach");
    let part_out = svm.guest.fault_anon_huge(sprober, want_huge).expect("fits");
    (aged_rate, part_out.huge_success_rate().unwrap_or(0.0))
}

/// Boots a VM with `hotplug` bytes of pluggable memory and plugs it all.
fn plugged_vm(hotplug: u64, cost: &CostModel) -> (Vm, HostMemory) {
    let (mut vm, host) = fresh_vm(hotplug);
    vm.plug(align_up_to_block(hotplug), cost).expect("plugs");
    (vm, host)
}

/// Boots a VM with `hotplug` bytes of pluggable memory, nothing plugged.
fn fresh_vm(hotplug: u64) -> (Vm, HostMemory) {
    let hotplug = align_up_to_block(hotplug);
    let mut host = HostMemory::new(hotplug + 8 * GIB);
    let vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: GIB,
                hotplug_bytes: hotplug,
                kernel_bytes: 192 * MIB,
                init_on_alloc: true,
            },
            vcpus: 8.0,
        },
        &mut host,
    )
    .expect("host fits");
    (vm, host)
}

/// Renders the ablation as text tables.
pub fn render(r: &ThpResult) -> String {
    let mut out = String::from("Ablation: transparent huge pages (2 MiB)\n\n");
    out.push_str(&format!(
        "Cold touch of one instance footprint: 4 KiB faults {:.1} ms, \
         2 MiB faults {:.1} ms ({:.1}x faster)\n\n",
        r.cold_touch_4k_ms,
        r.cold_touch_2m_ms,
        r.cold_touch_4k_ms / r.cold_touch_2m_ms.max(1e-9),
    ));
    let mut t = TextTable::new(&[
        "Backing",
        "Virtio-mem(ms)",
        "HugeMoves",
        "HugeSplits",
        "Squeezy(ms)",
    ]);
    for row in &r.reclaim {
        t.row(vec![
            if row.huge { "2MiB" } else { "4KiB" }.to_string(),
            format!("{:.0}", row.virtio_ms),
            format!("{}", row.virtio_migrated_huge),
            format!("{}", row.virtio_huge_splits),
            format!("{:.0}", row.squeezy_ms),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nHuge fault success: aged vanilla VM {:.0}%, fresh Squeezy partition {:.0}%\n",
        r.aged_success_rate * 100.0,
        r.partition_success_rate * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_cold_touch_is_faster() {
        let r = run(&ThpConfig::quick(), &ExpOpts::serial());
        assert!(
            r.cold_touch_2m_ms * 3.0 < r.cold_touch_4k_ms,
            "2M {} vs 4K {}",
            r.cold_touch_2m_ms,
            r.cold_touch_4k_ms
        );
    }

    #[test]
    fn squeezy_reclaim_indifferent_to_backing() {
        let r = run(&ThpConfig::quick(), &ExpOpts::serial());
        let base = &r.reclaim[0];
        let huge = &r.reclaim[1];
        // Squeezy: instant either way.
        let ratio = huge.squeezy_ms / base.squeezy_ms.max(1e-9);
        assert!((0.8..1.2).contains(&ratio), "squeezy varies: {ratio}");
        // Vanilla pays migrations for both backings; huge moves show up.
        assert!(base.virtio_ms > base.squeezy_ms);
        assert!(huge.virtio_ms > huge.squeezy_ms);
        assert!(huge.virtio_migrated_huge > 0 || huge.virtio_huge_splits > 0);
        assert_eq!(base.virtio_migrated_huge, 0);
    }

    #[test]
    fn partition_preserves_contiguity() {
        let r = run(&ThpConfig::quick(), &ExpOpts::serial());
        assert_eq!(r.partition_success_rate, 1.0, "fresh partition is whole");
        assert!(
            r.aged_success_rate < 0.7,
            "aged VM should fragment: {}",
            r.aged_success_rate
        );
    }

    #[test]
    fn render_mentions_all_parts() {
        let r = run(&ThpConfig::quick(), &ExpOpts::serial());
        let s = render(&r);
        assert!(s.contains("Cold touch"));
        assert!(s.contains("Huge fault success"));
        assert!(s.contains("2MiB"));
    }
}
