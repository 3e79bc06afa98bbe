//! Hybrid horizontal + vertical scaling (§7 "Maximum concurrency", \[56\]).
//!
//! The concurrency factor N caps how many instances one N:1 VM can
//! host. When a burst needs more, the runtime has three options:
//!
//! * **Vertical only** — scale within the VM (plug Squeezy partitions);
//!   starts beyond N are simply not served by this VM.
//! * **Horizontal (1:1)** — boot a dedicated microVM per instance:
//!   unlimited capacity, but every start pays the boot delay and
//!   replicates guest OS + dependencies.
//! * **Hybrid** — fill the running VM vertically; when it reaches N,
//!   *clone* it (Snowflock-style CoW fork, \[56\]) and keep scaling
//!   vertically in the clone. The clone inherits the parent's page
//!   cache, so instances in it still find dependencies warm.
//!
//! [`absorb_burst`] runs one burst of instance starts through the real
//! memory stack under each strategy and reports latency, served count,
//! host footprint and VM count — who wins, and where the crossovers
//! fall, as burst size sweeps past N.

use guest_mm::AllocPolicy;
use mem_types::MIB;
use sim_core::{CostModel, SimDuration};
use squeezy::SqueezyManager;
use vmm::{HostMemory, Vm, VmmError};
use workloads::FunctionKind;

use crate::microvm::{boot_microvm, boot_squeezy_vm};

/// Scale-up strategy under comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleStrategy {
    /// Vertical only: one N:1 VM, starts beyond N are unserved.
    Vertical,
    /// Horizontal only: one microVM per instance (the 1:1 model).
    Horizontal,
    /// Vertical until N, then clone the VM and continue (hybrid, \[56\]).
    Hybrid,
}

impl ScaleStrategy {
    /// All strategies in presentation order.
    pub const ALL: [ScaleStrategy; 3] = [
        ScaleStrategy::Vertical,
        ScaleStrategy::Horizontal,
        ScaleStrategy::Hybrid,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleStrategy::Vertical => "vertical",
            ScaleStrategy::Horizontal => "horizontal",
            ScaleStrategy::Hybrid => "hybrid",
        }
    }
}

/// Outcome of absorbing one burst.
#[derive(Clone, Copy, Debug)]
pub struct BurstOutcome {
    /// Strategy used.
    pub strategy: ScaleStrategy,
    /// Burst size requested.
    pub burst: u32,
    /// Instances actually started.
    pub served: u32,
    /// Mean start latency across served instances (ms).
    pub mean_start_ms: f64,
    /// Worst single-instance start latency (ms).
    pub max_start_ms: f64,
    /// Total host memory in use after absorption (MiB).
    pub host_mib: f64,
    /// Number of VMs running after absorption.
    pub vms: u32,
}

/// One running N:1 VM in the hybrid cluster.
struct NVm {
    vm: Vm,
    sq: SqueezyManager,
    instances: u32,
}

/// Absorbs a burst of `burst` instance starts of `kind` with per-VM
/// concurrency factor `n_per_vm`, under `strategy`.
///
/// The first N:1 VM starts warm (caches populated by prior activity),
/// mirroring the steady state an autoscaler sees at burst arrival.
pub fn absorb_burst(
    kind: FunctionKind,
    strategy: ScaleStrategy,
    n_per_vm: u32,
    burst: u32,
    cost: &CostModel,
) -> Result<BurstOutcome, VmmError> {
    let mut host = HostMemory::new(u64::MAX / 2);
    let mut latencies: Vec<SimDuration> = Vec::new();
    let mut served = 0u32;
    let mut vms = 0u32;

    match strategy {
        ScaleStrategy::Horizontal => {
            // Each instance boots its own microVM with a cold cache.
            for _ in 0..burst {
                let (lat, _) = one_to_one_start(kind, &mut host, cost)?;
                latencies.push(lat);
                served += 1;
                vms += 1;
            }
        }
        ScaleStrategy::Vertical | ScaleStrategy::Hybrid => {
            let mut cluster: Vec<NVm> = vec![boot_n_vm(kind, n_per_vm, true, &mut host, cost)?];
            vms = 1;
            for _ in 0..burst {
                // Find (or make) a VM with a free partition slot.
                let slot = cluster.iter().position(|v| v.instances < n_per_vm);
                let (idx, clone_delay) = match slot {
                    Some(i) => (i, SimDuration::ZERO),
                    None if strategy == ScaleStrategy::Hybrid => {
                        // Clone the newest VM: CoW fork, caches inherited.
                        let nvm = boot_n_vm(kind, n_per_vm, true, &mut host, cost)?;
                        cluster.push(nvm);
                        vms += 1;
                        (
                            cluster.len() - 1,
                            SimDuration::nanos(cost.vm_clone_fixed_ns),
                        )
                    }
                    None => break, // Vertical: out of capacity.
                };
                let lat = vertical_start(kind, &mut cluster[idx], &mut host, cost)?;
                latencies.push(lat + clone_delay);
                served += 1;
            }
        }
    }

    let total_ms: f64 = latencies.iter().map(|l| l.as_millis_f64()).sum();
    let max_ms = latencies
        .iter()
        .map(|l| l.as_millis_f64())
        .fold(0.0, f64::max);
    Ok(BurstOutcome {
        strategy,
        burst,
        served,
        mean_start_ms: if served > 0 {
            total_ms / served as f64
        } else {
            0.0
        },
        max_start_ms: max_ms,
        host_mib: host.used_bytes() as f64 / MIB as f64,
        vms,
    })
}

/// Boots one N:1 VM sized for `n` partitions. With `warm`, a throwaway
/// instance populates the shared caches first (clone inheritance /
/// steady-state warmth).
fn boot_n_vm(
    kind: FunctionKind,
    n: u32,
    warm: bool,
    host: &mut HostMemory,
    cost: &CostModel,
) -> Result<NVm, VmmError> {
    let profile = kind.profile();
    let (mut vm, sq) = boot_squeezy_vm(kind, n, n as f64, host, cost)?;
    if warm {
        vm.touch_file(host, kind.rootfs_file(), profile.rootfs_pages(), cost)?;
        vm.touch_file(host, kind.deps_file(), profile.deps_pages(), cost)?;
    }
    Ok(NVm {
        vm,
        sq,
        instances: 0,
    })
}

/// Starts one instance vertically in `nvm`: plug partition, attach,
/// container + function init against (possibly) warm caches.
fn vertical_start(
    kind: FunctionKind,
    nvm: &mut NVm,
    host: &mut HostMemory,
    cost: &CostModel,
) -> Result<SimDuration, VmmError> {
    let profile = kind.profile();
    let (_, plug) = nvm
        .sq
        .plug_partition(&mut nvm.vm, cost)
        .expect("capacity checked by caller");
    let pid = nvm.vm.guest.spawn_process(AllocPolicy::MovableDefault);
    nvm.sq.attach(&mut nvm.vm, pid).expect("fresh partition");
    let rootfs = nvm
        .vm
        .touch_file(host, kind.rootfs_file(), profile.rootfs_pages(), cost)?;
    let deps = nvm
        .vm
        .touch_file(host, kind.deps_file(), profile.deps_pages(), cost)?;
    let anon = nvm.vm.touch_anon(host, pid, profile.anon_pages(), cost)?;
    nvm.instances += 1;
    Ok(plug.latency()
        + rootfs.latency
        + deps.latency
        + anon.latency
        + SimDuration::from_secs_f64(profile.container_init_cpu_s + profile.function_init_cpu_s))
}

/// Starts one instance on a fresh 1:1 microVM (cold caches).
fn one_to_one_start(
    kind: FunctionKind,
    host: &mut HostMemory,
    cost: &CostModel,
) -> Result<(SimDuration, u64), VmmError> {
    let profile = kind.profile();
    let (mut vm, mut lat) = boot_microvm(kind, host, cost)?;
    let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    let rootfs = vm.touch_file(host, kind.rootfs_file(), profile.rootfs_pages(), cost)?;
    let deps = vm.touch_file(host, kind.deps_file(), profile.deps_pages(), cost)?;
    let anon = vm.touch_anon(host, pid, profile.anon_pages(), cost)?;
    lat += rootfs.latency
        + deps.latency
        + anon.latency
        + SimDuration::from_secs_f64(profile.container_init_cpu_s + profile.function_init_cpu_s);
    let rss = vm.host_rss();
    // The microVM keeps running (leaks into `host` accounting), exactly
    // what we want: the footprint after absorption includes it.
    std::mem::forget(vm);
    Ok((lat, rss))
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u32 = 4;

    fn outcome(strategy: ScaleStrategy, burst: u32) -> BurstOutcome {
        let cost = CostModel::default();
        absorb_burst(FunctionKind::Cnn, strategy, N, burst, &cost).unwrap()
    }

    #[test]
    fn vertical_caps_at_concurrency_factor() {
        let o = outcome(ScaleStrategy::Vertical, 2 * N);
        assert_eq!(o.served, N, "beyond N not served");
        assert_eq!(o.vms, 1);
    }

    #[test]
    fn hybrid_serves_everything_with_clones() {
        let o = outcome(ScaleStrategy::Hybrid, 2 * N + 1);
        assert_eq!(o.served, 2 * N + 1);
        assert_eq!(o.vms, 3, "two clones on top of the first VM");
    }

    #[test]
    fn horizontal_serves_everything_with_microvms() {
        let o = outcome(ScaleStrategy::Horizontal, N + 2);
        assert_eq!(o.served, N + 2);
        assert_eq!(o.vms, N + 2);
    }

    #[test]
    fn hybrid_starts_faster_than_horizontal() {
        let hybrid = outcome(ScaleStrategy::Hybrid, 2 * N);
        let horizontal = outcome(ScaleStrategy::Horizontal, 2 * N);
        assert!(
            hybrid.mean_start_ms < horizontal.mean_start_ms,
            "hybrid {} vs horizontal {}",
            hybrid.mean_start_ms,
            horizontal.mean_start_ms
        );
        // And uses less host memory (no per-instance OS replication).
        assert!(hybrid.host_mib < horizontal.host_mib);
    }

    #[test]
    fn hybrid_matches_vertical_below_capacity() {
        let hybrid = outcome(ScaleStrategy::Hybrid, N - 1);
        let vertical = outcome(ScaleStrategy::Vertical, N - 1);
        assert_eq!(hybrid.served, vertical.served);
        assert_eq!(hybrid.vms, 1, "no clone needed below N");
        let ratio = hybrid.mean_start_ms / vertical.mean_start_ms;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn clone_delay_shows_up_at_the_boundary() {
        let o = outcome(ScaleStrategy::Hybrid, N + 1);
        // The N+1-th start pays the clone: max > mean.
        assert!(o.max_start_ms > o.mean_start_ms);
        assert_eq!(o.vms, 2);
    }
}
