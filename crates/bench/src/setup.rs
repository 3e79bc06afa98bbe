//! Shared experiment scaffolding: memhog farms on differently-backed
//! VMs, and the one-host runner of the FaaS figures.

use faas::{ClusterConfig, ClusterSim, SimConfig, SimResult, SingleHost, TenantTrace};
use guest_mm::{GuestMmConfig, PAGES_PER_HUGE};
use mem_types::{align_up_to_block, GIB, MIB, PAGE_SIZE};
use sim_core::{CostModel, DetRng};
use squeezy::{SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::Memhog;

/// Runs one hand-built host beside its `(vm, dep, arrivals)` tenant
/// traces (a one-host cluster under the [`SingleHost`] router) and
/// returns its result.
pub(crate) fn run_host(host: SimConfig, tenants: Vec<(usize, usize, Vec<f64>)>) -> SimResult {
    let tenants = tenants
        .into_iter()
        .map(|(vm, dep, arrivals)| TenantTrace { vm, dep, arrivals })
        .collect();
    let cluster = ClusterConfig {
        hosts: vec![host],
        tenants,
    };
    let mut result = ClusterSim::new(cluster, Box::new(SingleHost))
        .expect("boot")
        .run();
    result.hosts.remove(0)
}

/// A VM fully loaded with memhog instances, ready for kill/reclaim steps.
pub struct MemhogFarm {
    /// The VM under test.
    pub vm: Vm,
    /// Host memory backing it.
    pub host: HostMemory,
    /// Squeezy manager when the farm is partitioned.
    pub squeezy: Option<SqueezyManager>,
    /// The running memhog instances.
    pub hogs: Vec<Memhog>,
    /// Per-instance footprint in bytes.
    pub hog_bytes: u64,
}

/// How the farm's VM manages hot-plugged memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FarmKind {
    /// Hotplug region plugged wholesale into `ZONE_MOVABLE` (the setup
    /// for balloon and vanilla virtio-mem experiments).
    Vanilla,
    /// Squeezy partitions, one per memhog.
    Squeezy,
}

impl MemhogFarm {
    /// Builds a farm of `instances` memhogs of `hog_bytes` each and
    /// warms them up so the VM is fully occupied (§6.1.1).
    ///
    /// For the vanilla kind the instances fault their memory in
    /// interleaved chunks and then churn, reproducing the footprint
    /// interleaving of Figure 3; for Squeezy each instance is confined
    /// to its partition.
    pub fn build(
        kind: FarmKind,
        instances: u32,
        hog_bytes: u64,
        churn_rounds: u32,
        cost: &CostModel,
    ) -> MemhogFarm {
        Self::build_seeded(
            kind,
            instances,
            hog_bytes,
            churn_rounds,
            cost,
            &mut DetRng::new(CHURN_SEED),
        )
    }

    /// [`MemhogFarm::build`] with an explicit churn stream, so repeated
    /// experiment trials scatter footprints differently.
    pub(crate) fn build_seeded(
        kind: FarmKind,
        instances: u32,
        hog_bytes: u64,
        churn_rounds: u32,
        cost: &CostModel,
        rng: &mut DetRng,
    ) -> MemhogFarm {
        let part_bytes = align_up_to_block(hog_bytes);
        let hotplug = part_bytes * instances as u64;
        let mut host = HostMemory::new(hotplug + 64 * GIB);
        let mut vm = Vm::boot(
            VmConfig {
                guest: GuestMmConfig {
                    boot_bytes: GIB,
                    hotplug_bytes: hotplug,
                    kernel_bytes: 192 * MIB,
                    init_on_alloc: true,
                },
                vcpus: instances as f64,
            },
            &mut host,
        )
        .expect("host sized for the farm");

        let squeezy = match kind {
            FarmKind::Vanilla => {
                vm.plug(hotplug, cost).expect("region plugs");
                None
            }
            FarmKind::Squeezy => Some(
                SqueezyManager::install(
                    &mut vm,
                    SqueezyConfig {
                        partition_bytes: part_bytes,
                        shared_bytes: 0,
                        concurrency: instances,
                    },
                    cost,
                )
                .expect("layout fits"),
            ),
        };

        let mut farm = MemhogFarm {
            vm,
            host,
            squeezy,
            hogs: Vec::new(),
            hog_bytes,
        };

        // Spawn and (for Squeezy) attach all instances.
        for _ in 0..instances {
            let hog = Memhog::spawn(&mut farm.vm, hog_bytes);
            if let Some(sq) = farm.squeezy.as_mut() {
                sq.plug_partition(&mut farm.vm, cost).expect("partition");
                match sq.attach(&mut farm.vm, hog.pid).expect("attach") {
                    squeezy::AttachOutcome::Attached(_) => {}
                    squeezy::AttachOutcome::Queued => {
                        sq.wake_waiters(&mut farm.vm);
                    }
                }
            }
            farm.hogs.push(hog);
        }

        // Warm up in interleaved chunks so footprints mix across blocks
        // (vanilla) — Squeezy's pinned policies keep them apart anyway.
        let hogs = farm.hogs.clone();
        fill_interleaved(&mut farm.vm, &mut farm.host, &hogs, cost);
        churn_seeded(&mut farm.vm, &mut farm.host, &hogs, churn_rounds, cost, rng);
        farm
    }

    /// Kills memhog `idx` (guest exit + Squeezy detach). Returns its pid
    /// footprint in pages.
    pub fn kill(&mut self, idx: usize) -> u64 {
        let hog = self.hogs[idx];
        let freed = self.vm.guest.exit_process(hog.pid).expect("hog alive");
        if let Some(sq) = self.squeezy.as_mut() {
            sq.detach(hog.pid).expect("hog attached");
        }
        freed
    }
}

/// Warms up `hogs` by faulting their footprints in interleaved 16 MiB
/// chunks — concurrent warm-up, the source of the Figure-3 interleaving.
/// Huge-backed hogs fault each chunk as 2 MiB pages.
pub fn fill_interleaved(vm: &mut Vm, host: &mut HostMemory, hogs: &[Memhog], cost: &CostModel) {
    let mut faulted = vec![0u64; hogs.len()];
    loop {
        let mut progressed = false;
        for (i, hog) in hogs.iter().enumerate() {
            let left = hog.pages - faulted[i];
            if left == 0 {
                continue;
            }
            let n = left.min(16 * MIB / PAGE_SIZE);
            if hog.huge {
                vm.touch_anon_huge(host, hog.pid, n / PAGES_PER_HUGE, cost)
                    .expect("workload sized to fit");
            } else {
                vm.touch_anon(host, hog.pid, n, cost)
                    .expect("workload sized to fit");
            }
            faulted[i] += n;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
}

/// The default churn stream seed, used when no trial stream is given.
pub const CHURN_SEED: u64 = 0xC0FFEE;

/// Runs `rounds` of concurrent free/refault churn over a quarter of each
/// hog's footprint, scattering footprints the way long-running memhogs
/// do. `rng` orders the frees and refaults, so repeated trials differ.
pub(crate) fn churn_seeded(
    vm: &mut Vm,
    host: &mut HostMemory,
    hogs: &[Memhog],
    rounds: u32,
    cost: &CostModel,
    rng: &mut DetRng,
) {
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..hogs.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            vm.guest
                .free_anon(hogs[i].pid, hogs[i].pages / 4)
                .expect("alive");
        }
        rng.shuffle(&mut order);
        for &i in &order {
            vm.touch_anon(host, hogs[i].pid, hogs[i].pages / 4, cost)
                .expect("refault fits");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_types::BlockId;

    #[test]
    fn vanilla_farm_interleaves_footprints() {
        let cost = CostModel::default();
        let farm = MemhogFarm::build(FarmKind::Vanilla, 4, 128 * MIB, 1, &cost);
        // Count blocks containing pages from more than one owner.
        let mm = farm.vm.guest.memmap();
        let mut mixed = 0;
        for bi in 8..farm.vm.guest.blocks().len() {
            let b = BlockId(bi);
            let mut owners = std::collections::HashSet::new();
            for g in b.frames().iter() {
                let d = mm.page(g);
                if d.state == guest_mm::PageState::Anon {
                    owners.insert(d.a);
                }
            }
            if owners.len() > 1 {
                mixed += 1;
            }
        }
        assert!(mixed > 0, "churned memhogs share blocks");
    }

    #[test]
    fn squeezy_farm_keeps_footprints_apart() {
        let cost = CostModel::default();
        let farm = MemhogFarm::build(FarmKind::Squeezy, 4, 128 * MIB, 1, &cost);
        let mm = farm.vm.guest.memmap();
        for bi in 8..farm.vm.guest.blocks().len() {
            let b = BlockId(bi);
            let mut owners = std::collections::HashSet::new();
            for g in b.frames().iter() {
                let d = mm.page(g);
                if d.state == guest_mm::PageState::Anon {
                    owners.insert(d.a);
                }
            }
            assert!(owners.len() <= 1, "block {bi} mixes instances");
        }
    }

    #[test]
    fn kill_frees_instance_memory() {
        let cost = CostModel::default();
        let mut farm = MemhogFarm::build(FarmKind::Vanilla, 2, 128 * MIB, 0, &cost);
        let used0 = farm.vm.guest.used_bytes();
        let freed = farm.kill(0);
        assert_eq!(freed, 128 * MIB / PAGE_SIZE);
        assert_eq!(farm.vm.guest.used_bytes(), used0 - 128 * MIB);
    }
}
