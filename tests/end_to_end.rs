//! Cross-crate integration tests: the paper's headline claims exercised
//! through the full stack (guest mm + devices + VMM + Squeezy + FaaS).

use faas::{
    BackendKind, ClusterConfig, ClusterSim, Deployment, SimConfig, SimResult, SingleHost,
    TenantTrace,
};
use guest_mm::{AllocPolicy, GuestMmConfig};
use mem_types::{GIB, MIB, PAGES_PER_BLOCK};
use sim_core::CostModel;
use squeezy::{SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::{FunctionKind, Memhog};

fn boot(hotplug_gib: u64, host: &mut HostMemory) -> Vm {
    Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: GIB,
                hotplug_bytes: hotplug_gib * GIB,
                kernel_bytes: 192 * MIB,
                init_on_alloc: true,
            },
            vcpus: 4.0,
        },
        host,
    )
    .expect("host sized")
}

/// The core claim (§6.1.1): reclaiming a terminated instance's memory is
/// an order of magnitude faster with Squeezy than with vanilla
/// virtio-mem, because partitioning eliminates migrations and zeroing.
#[test]
fn headline_order_of_magnitude_speedup() {
    let cost = CostModel::default();

    // Vanilla: two interleaved memhogs, one dies, unplug its share.
    let mut host = HostMemory::new(64 * GIB);
    let mut vm = boot(4, &mut host);
    vm.plug(4 * GIB, &cost).expect("plug");
    let keep = Memhog::spawn(&mut vm, GIB);
    let die = Memhog::spawn(&mut vm, GIB);
    squeezy_bench::setup::fill_interleaved(&mut vm, &mut host, &[keep, die], &cost);
    die.kill(&mut vm).expect("alive");
    let vanilla = vm.unplug(&mut host, GIB, None, &cost).expect("unplug");
    assert!(
        vanilla.outcome.migrated > 0,
        "interleaving forces migrations"
    );

    // Squeezy: same workload, partitioned.
    let mut host2 = HostMemory::new(64 * GIB);
    let mut vm2 = boot(4, &mut host2);
    let mut sq = SqueezyManager::install(
        &mut vm2,
        SqueezyConfig {
            partition_bytes: GIB,
            shared_bytes: 0,
            concurrency: 3,
        },
        &cost,
    )
    .expect("fits");
    for _ in 0..2 {
        sq.plug_partition(&mut vm2, &cost).expect("partition");
    }
    let keep = Memhog::spawn(&mut vm2, GIB - 64 * MIB);
    let die = Memhog::spawn(&mut vm2, GIB - 64 * MIB);
    sq.attach(&mut vm2, keep.pid).expect("attach");
    sq.attach(&mut vm2, die.pid).expect("attach");
    keep.warm_up(&mut vm2, &mut host2, &cost).expect("fits");
    die.warm_up(&mut vm2, &mut host2, &cost).expect("fits");
    die.kill(&mut vm2).expect("alive");
    sq.detach(die.pid).expect("attached");
    let squeezy = sq
        .unplug_partition(&mut vm2, &mut host2, &cost)
        .expect("free partition")
        .1;
    assert_eq!(squeezy.outcome.migrated, 0);
    assert_eq!(squeezy.outcome.zeroed, 0);

    let speedup = vanilla.latency().as_nanos() as f64 / squeezy.latency().as_nanos() as f64;
    assert!(
        speedup > 5.0,
        "expected order-of-magnitude-ish speedup, got {speedup:.1}x"
    );
}

/// §6.1.1: virtio-mem beats ballooning because it reclaims in 128 MiB
/// blocks instead of pages.
#[test]
fn virtio_mem_beats_ballooning() {
    let cost = CostModel::default();
    let mut host = HostMemory::new(64 * GIB);
    let mut vm = boot(2, &mut host);
    vm.plug(2 * GIB, &cost).expect("plug");
    let hog = Memhog::spawn(&mut vm, GIB);
    hog.warm_up(&mut vm, &mut host, &cost).expect("fits");
    hog.kill(&mut vm).expect("alive");

    let balloon = vm
        .balloon_reclaim(&mut host, GIB, &cost)
        .expect("free memory");
    vm.balloon.deflate(&mut vm.guest, GIB, &cost);
    let virtio = vm.unplug(&mut host, GIB, None, &cost).expect("unplug");
    assert!(
        balloon.latency() > virtio.latency(),
        "balloon {} should exceed virtio {}",
        balloon.latency(),
        virtio.latency()
    );
}

/// Guest frees are invisible to the host until reclamation (Figure 1):
/// the full stack keeps host accounting consistent through a lifecycle.
#[test]
fn host_accounting_consistent_through_lifecycle() {
    let cost = CostModel::default();
    let mut host = HostMemory::new(64 * GIB);
    let mut vm = boot(2, &mut host);
    vm.plug(2 * GIB, &cost).expect("plug");

    let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    vm.touch_anon(&mut host, pid, 4 * PAGES_PER_BLOCK, &cost)
        .expect("fits");
    let peak = host.used_bytes();
    assert_eq!(peak, vm.host_rss());

    // Guest-side free: host unchanged.
    vm.guest.exit_process(pid).expect("alive");
    assert_eq!(host.used_bytes(), peak);

    // Reclaim: host shrinks; guest and host agree.
    let report = vm
        .unplug(&mut host, 512 * MIB, None, &cost)
        .expect("unplug");
    assert_eq!(report.blocks.len(), 4);
    assert_eq!(host.used_bytes(), vm.host_rss());
    assert!(host.used_bytes() < peak);
    vm.guest.assert_consistent();
}

/// Runs a one-VM, one-deployment host with `arrivals` on its one slot.
fn run_single_vm(cfg: SimConfig, arrivals: Vec<f64>) -> SimResult {
    let cluster = ClusterConfig {
        hosts: vec![cfg],
        tenants: vec![TenantTrace {
            vm: 0,
            dep: 0,
            arrivals,
        }],
    };
    ClusterSim::new(cluster, Box::new(SingleHost))
        .expect("boot")
        .run()
        .hosts
        .remove(0)
}

/// The FaaS runtime keeps every invariant across backends: every request
/// completes and the host never leaks memory.
#[test]
fn faas_runtime_serves_all_backends() {
    let arrivals: Vec<f64> = (0..30).map(|i| 1.0 + i as f64 * 2.0).collect();
    for backend in [
        BackendKind::Static,
        BackendKind::VirtioMem,
        BackendKind::HarvestOpts,
        BackendKind::Squeezy,
    ] {
        let cfg = SimConfig {
            keepalive_s: 15.0,
            ..SimConfig::single_vm(
                backend,
                Deployment {
                    kind: FunctionKind::Bfs,
                    concurrency: 4,
                },
                120.0,
            )
        };
        let result = run_single_vm(cfg, arrivals.clone());
        assert_eq!(result.completed, 30, "{backend:?} served everything");
    }
}

/// Squeezy's partition OOM containment holds through the whole stack: an
/// instance overrunning its limit dies without damaging its neighbours.
#[test]
fn oom_containment_under_full_stack() {
    let cost = CostModel::default();
    let mut host = HostMemory::new(64 * GIB);
    let mut vm = boot(4, &mut host);
    let mut sq = SqueezyManager::install(
        &mut vm,
        SqueezyConfig {
            partition_bytes: 512 * MIB,
            shared_bytes: 128 * MIB,
            concurrency: 4,
        },
        &cost,
    )
    .expect("fits");

    // Two instances; one overruns.
    sq.plug_partition(&mut vm, &cost).expect("p0");
    sq.plug_partition(&mut vm, &cost).expect("p1");
    let good = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    let bad = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    sq.attach(&mut vm, good).expect("attach");
    sq.attach(&mut vm, bad).expect("attach");
    vm.touch_anon(&mut host, good, 1000, &cost).expect("fits");
    let r = vm.touch_anon(&mut host, bad, 600 * MIB / mem_types::PAGE_SIZE, &cost);
    assert!(r.is_err(), "overrun of the 512 MiB partition OOMs");
    // The neighbour is untouched and the guest stays consistent.
    assert_eq!(vm.guest.process(good).unwrap().rss_pages(), 1000);
    vm.guest
        .exit_process(bad)
        .expect("oom-killed process cleaned");
    sq.detach(bad).expect("detach");
    vm.guest.assert_consistent();
}

/// Cold starts on dynamically resized VMs pay the plug + nested-fault
/// tax the paper quantifies (§6.2.1: 3-35 % slower than a static VM).
#[test]
fn dynamic_resize_cold_start_tax_is_bounded() {
    let arrivals = vec![1.0];
    let mut results = Vec::new();
    for backend in [BackendKind::Static, BackendKind::Squeezy] {
        let cfg = SimConfig::single_vm(
            backend,
            Deployment {
                kind: FunctionKind::Cnn,
                concurrency: 2,
            },
            60.0,
        );
        let result = run_single_vm(cfg, arrivals.clone());
        // One request: its latency is the histogram's only sample.
        let latency = &result.per_func[&FunctionKind::Cnn].latency;
        assert_eq!(latency.count(), 1);
        results.push(latency.mean());
    }
    let (static_ms, squeezy_ms) = (results[0], results[1]);
    let tax = squeezy_ms / static_ms - 1.0;
    assert!(
        (0.0..0.40).contains(&tax),
        "cold-start tax {:.1}% outside the paper's 3-35% band",
        tax * 100.0
    );
}
