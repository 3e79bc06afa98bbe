//! The 1:1 (single-container-per-VM) model and the N:1 cold-start path —
//! the Figure-11 comparison.
//!
//! The 1:1 model boots a dedicated microVM per instance: it pays the VMM
//! boot delay, reads the container rootfs and runtime dependencies from
//! storage with a cold page cache, and replicates guest-OS state per
//! instance. The N:1 path plugs a Squeezy partition into an already
//! running VM whose shared partition has the dependencies cached.

use guest_mm::{AllocPolicy, GuestMmConfig};
use mem_types::{align_up_to_block, MIB};
use sim_core::{CostModel, SimDuration};
use squeezy::{AttachOutcome, SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig, VmmError};
use workloads::FunctionKind;

/// Guest OS footprint of a dedicated microVM (kernel, init, agent) that
/// the 1:1 model replicates per instance (§6.3 "replicating the guest OS
/// state").
pub const MICROVM_OS_BYTES: u64 = 144 * MIB;

/// Cold-start latency broken into the Figure-11a components.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColdStartBreakdown {
    /// VMM cold delays: microVM boot (1:1) or memory plug (N:1).
    pub vmm_delay: SimDuration,
    /// Sandbox (container) initialization.
    pub container_init: SimDuration,
    /// Runtime + function initialization.
    pub function_init: SimDuration,
    /// First request execution.
    pub function_exec: SimDuration,
}

impl ColdStartBreakdown {
    /// End-to-end cold-start latency.
    pub fn total(&self) -> SimDuration {
        self.vmm_delay + self.container_init + self.function_init + self.function_exec
    }

    /// VMM share of the total (the paper reports 20.2 % for 1:1 and
    /// 1.19 % for N:1 on average).
    pub fn vmm_fraction(&self) -> f64 {
        self.vmm_delay.as_nanos() as f64 / self.total().as_nanos() as f64
    }
}

/// Boots a dedicated 1:1 microVM for one instance of `kind` on
/// `host`, with the minimum memory for one instance (§6.3): the
/// Table-1 limit plus the guest OS footprint. Returns the VM and its
/// VMM cold delay: fixed boot work plus faulting the guest kernel's
/// working set into fresh host memory.
pub(crate) fn boot_microvm(
    kind: FunctionKind,
    host: &mut HostMemory,
    cost: &CostModel,
) -> Result<(Vm, SimDuration), VmmError> {
    let boot = align_up_to_block(kind.profile().memory_limit.bytes() + MICROVM_OS_BYTES);
    let vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: boot,
                hotplug_bytes: 0,
                kernel_bytes: MICROVM_OS_BYTES,
                init_on_alloc: true,
            },
            vcpus: 1.0,
        },
        host,
    )?;
    let delay = SimDuration::nanos(cost.microvm_boot_fixed_ns)
        + cost.ept_faults(MICROVM_OS_BYTES / mem_types::PAGE_SIZE);
    Ok((vm, delay))
}

/// Boots an N:1 Squeezy VM on `host` with `n` partition slots sized
/// for `kind` and `vcpus` vCPUs, and installs its manager. The shared
/// partition holds the dependencies, the rootfs and 64 MiB of slack.
pub(crate) fn boot_squeezy_vm(
    kind: FunctionKind,
    n: u32,
    vcpus: f64,
    host: &mut HostMemory,
    cost: &CostModel,
) -> Result<(Vm, SqueezyManager), VmmError> {
    let profile = kind.profile();
    let part_bytes = align_up_to_block(profile.memory_limit.bytes());
    let shared_bytes = align_up_to_block(profile.deps_bytes + profile.rootfs_bytes + 64 * MIB);
    let mut vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: 1 << 30,
                hotplug_bytes: shared_bytes + part_bytes * n as u64,
                kernel_bytes: 192 * MIB,
                init_on_alloc: true,
            },
            vcpus,
        },
        host,
    )?;
    let sq = SqueezyManager::install(
        &mut vm,
        SqueezyConfig {
            partition_bytes: part_bytes,
            shared_bytes,
            concurrency: n,
        },
        cost,
    )
    .expect("region sized for the layout");
    Ok((vm, sq))
}

/// Runs one cold start on a fresh 1:1 microVM.
///
/// Returns the latency breakdown and the instance's host memory
/// footprint (guest OS + dependencies + private memory — all
/// per-instance in this model).
pub fn microvm_cold_start(
    kind: FunctionKind,
    cost: &CostModel,
) -> Result<(ColdStartBreakdown, u64), VmmError> {
    let profile = kind.profile();
    let mut host = HostMemory::new(u64::MAX / 2);
    let (mut vm, vmm_delay) = boot_microvm(kind, &mut host, cost)?;
    let mut b = ColdStartBreakdown {
        vmm_delay,
        ..ColdStartBreakdown::default()
    };

    // Container init: rootfs read from storage (cold page cache).
    let rootfs = vm.touch_file(&mut host, kind.rootfs_file(), profile.rootfs_pages(), cost)?;
    b.container_init = SimDuration::from_secs_f64(profile.container_init_cpu_s) + rootfs.latency;

    // Function init: dependencies from storage + most of the anon set.
    let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    let deps = vm.touch_file(&mut host, kind.deps_file(), profile.deps_pages(), cost)?;
    let anon_init = vm.touch_anon(&mut host, pid, profile.anon_pages() * 6 / 10, cost)?;
    b.function_init =
        SimDuration::from_secs_f64(profile.function_init_cpu_s) + deps.latency + anon_init.latency;

    // First execution: the rest of the working set + the run itself at
    // the container's CPU share.
    let anon_rest = vm.touch_anon(
        &mut host,
        pid,
        profile.anon_pages() - profile.anon_pages() * 6 / 10,
        cost,
    )?;
    b.function_exec =
        SimDuration::from_secs_f64(profile.exec_cpu_s / profile.vcpu_shares) + anon_rest.latency;

    let footprint = vm.host_rss();
    Ok((b, footprint))
}

/// Runs one cold start on a warm N:1 Squeezy VM (Figure 11's N:1 bars).
///
/// A first instance is started and evicted to warm the shared caches —
/// the steady state of an N:1 VM — then the measured instance scales up:
/// partition plug, container init against a cached rootfs, function init
/// against cached dependencies, first execution.
///
/// Returns the breakdown and the instance's *marginal* host footprint.
pub fn n_to_one_cold_start(
    kind: FunctionKind,
    cost: &CostModel,
) -> Result<(ColdStartBreakdown, u64), VmmError> {
    let profile = kind.profile();
    let mut host = HostMemory::new(u64::MAX / 2);
    let (mut vm, mut sq) = boot_squeezy_vm(kind, 4, 2.0, &mut host, cost)?;

    // Warm-up instance: populates the shared partition's page cache.
    {
        let (_, _) = sq
            .plug_partition(&mut vm, cost)
            .expect("partition available");
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).expect("attach");
        vm.touch_file(&mut host, kind.rootfs_file(), profile.rootfs_pages(), cost)?;
        vm.touch_file(&mut host, kind.deps_file(), profile.deps_pages(), cost)?;
        vm.touch_anon(&mut host, pid, profile.anon_pages(), cost)?;
        vm.guest.exit_process(pid).expect("alive");
        sq.detach(pid).expect("attached");
        sq.unplug_partition(&mut vm, &mut host, cost)
            .expect("free partition");
    }

    let rss_before = vm.host_rss();
    let mut b = ColdStartBreakdown::default();

    // Scale-up: plug a Squeezy partition (the N:1 "VMM delay").
    let (_, plug) = sq
        .plug_partition(&mut vm, cost)
        .expect("partition available");
    b.vmm_delay = plug.latency();

    // Container init: rootfs is already in the guest page cache.
    let rootfs = vm.touch_file(&mut host, kind.rootfs_file(), profile.rootfs_pages(), cost)?;
    b.container_init = SimDuration::from_secs_f64(profile.container_init_cpu_s) + rootfs.latency;

    // Function init: dependencies cached; anon faults hit freshly
    // plugged memory (nested-fault tax, §6.2.1).
    let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    match sq.attach(&mut vm, pid).expect("attach succeeds") {
        AttachOutcome::Attached(_) => {}
        AttachOutcome::Queued => unreachable!("partition was just plugged"),
    }
    let deps = vm.touch_file(&mut host, kind.deps_file(), profile.deps_pages(), cost)?;
    let anon_init = vm.touch_anon(&mut host, pid, profile.anon_pages() * 6 / 10, cost)?;
    b.function_init =
        SimDuration::from_secs_f64(profile.function_init_cpu_s) + deps.latency + anon_init.latency;

    let anon_rest = vm.touch_anon(
        &mut host,
        pid,
        profile.anon_pages() - profile.anon_pages() * 6 / 10,
        cost,
    )?;
    b.function_exec =
        SimDuration::from_secs_f64(profile.exec_cpu_s / profile.vcpu_shares) + anon_rest.latency;

    let footprint = vm.host_rss() - rss_before;
    Ok((b, footprint))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_pays_boot_delay() {
        let cost = CostModel::default();
        let (b, footprint) = microvm_cold_start(FunctionKind::Html, &cost).unwrap();
        assert!(b.vmm_delay > SimDuration::millis(300), "{}", b.vmm_delay);
        assert!(b.vmm_fraction() > 0.10, "vmm share {:.2}", b.vmm_fraction());
        // Footprint includes the replicated guest OS.
        assert!(footprint > MICROVM_OS_BYTES);
    }

    #[test]
    fn n_to_one_plug_is_cheap() {
        let cost = CostModel::default();
        let (b, _) = n_to_one_cold_start(FunctionKind::Html, &cost).unwrap();
        // Paper: plug costs 35-45 ms across function sizes.
        let ms = b.vmm_delay.as_millis_f64();
        assert!((20.0..60.0).contains(&ms), "plug took {ms} ms");
        assert!(b.vmm_fraction() < 0.05, "vmm share {:.3}", b.vmm_fraction());
    }

    #[test]
    fn n_to_one_cold_start_is_faster() {
        let cost = CostModel::default();
        for kind in FunctionKind::ALL {
            let (one, _) = microvm_cold_start(kind, &cost).unwrap();
            let (n, _) = n_to_one_cold_start(kind, &cost).unwrap();
            let speedup = one.total().as_nanos() as f64 / n.total().as_nanos() as f64;
            assert!(
                speedup > 1.2,
                "{}: N:1 should win, got {speedup:.2}x",
                kind.name()
            );
            // Container init benefits from the cached rootfs.
            assert!(n.container_init < one.container_init, "{}", kind.name());
            assert!(n.function_init < one.function_init, "{}", kind.name());
        }
    }

    #[test]
    fn one_to_one_footprint_is_larger() {
        let cost = CostModel::default();
        let mut ratios = Vec::new();
        for kind in FunctionKind::ALL {
            let (_, one) = microvm_cold_start(kind, &cost).unwrap();
            let (_, n) = n_to_one_cold_start(kind, &cost).unwrap();
            assert!(one > n, "{}: 1:1 {one} ≤ N:1 {n}", kind.name());
            ratios.push(one as f64 / n as f64);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        // Paper: 2.53x on average.
        assert!(
            (1.8..3.5).contains(&avg),
            "average footprint ratio {avg:.2} out of band"
        );
    }

    #[test]
    fn bert_suffers_most_from_replication() {
        let cost = CostModel::default();
        let mut worst: Option<(FunctionKind, u64)> = None;
        for kind in FunctionKind::ALL {
            let (_, one) = microvm_cold_start(kind, &cost).unwrap();
            let (_, n) = n_to_one_cold_start(kind, &cost).unwrap();
            let overhead = one - n;
            match worst {
                Some((_, w)) if w >= overhead => {}
                _ => worst = Some((kind, overhead)),
            }
        }
        assert_eq!(
            worst.unwrap().0,
            FunctionKind::Bert,
            "largest-deps function replicates the most"
        );
    }
}
