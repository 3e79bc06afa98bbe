//! Isolated per-layer probes: timed calls into the public functions of
//! `sim_core`, `workloads`, `vmm`, `squeezy`, `guest_mm` and
//! `virtio_mem`, with inputs shaped like one workload — its queue
//! depth, its arrivals, and the VM layout its hosts boot with.

use std::hint::black_box;
use std::time::Instant;

use faas::{BackendKind, Scenario, WorkloadSpec};
use guest_mm::{AllocPolicy, GuestMmConfig};
use mem_types::{align_up_to_block, FrameRange, GIB, MIB, PAGE_SIZE};
use sim_core::{CostModel, DetRng, EventQueue, SimDuration, SimTime};
use squeezy::{AttachOutcome, SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::{FunctionKind, MaterializedSource, TraceSource};

use crate::workload::{count_arrivals, Workload};
use crate::{rss_mib, Json};

/// Hold-model operations timed on the event queue.
const QUEUE_OPS: u64 = 1_000_000;
/// Plug → fault → exit → unplug cycles timed per partition probe.
const PARTITION_CYCLES: usize = 64;
/// Vanilla virtio-mem unplugs timed.
const VIRTIO_UNPLUGS: usize = 5;
/// Boot memory of every benchmark VM (the host runtime's fixed value).
const BOOT_BYTES: u64 = GIB;
/// Guest kernel footprint of every benchmark VM.
const KERNEL_BYTES: u64 = 192 * MIB;

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The VM layout a workload's hosts boot: one VM whose deployments are
/// the workload's tenants at the spec's concurrency. Mirrors the
/// sizing rule of the host runtime's boot path (`faas::sim::host`):
/// the shared slab holds every tenant's dependencies and root
/// filesystem plus 128 MiB; Squeezy adds one max-limit partition per
/// admitted instance; vanilla virtio-mem adds headroom instead.
struct Layout {
    kinds: Vec<FunctionKind>,
    concurrency: u32,
    shared_bytes: u64,
    partition_bytes: u64,
    vcpus: f64,
}

impl Layout {
    fn of(spec: &Scenario) -> Layout {
        let kinds: Vec<FunctionKind> = spec.tenant_loads(0).iter().map(|t| t.kind).collect();
        let shared: u64 = kinds
            .iter()
            .map(|k| k.profile().deps_bytes + k.profile().rootfs_bytes)
            .sum::<u64>()
            + 128 * MIB;
        let partition_bytes = kinds
            .iter()
            .map(|k| align_up_to_block(k.profile().memory_limit.bytes()))
            .max()
            .expect("a workload has tenants");
        let shares: f64 = kinds.iter().map(|k| k.profile().vcpu_shares).sum();
        Layout {
            concurrency: spec.concurrency,
            shared_bytes: align_up_to_block(shared),
            partition_bytes,
            vcpus: (shares * spec.concurrency as f64).ceil().max(1.0),
            kinds,
        }
    }

    fn instances(&self) -> u64 {
        self.kinds.len() as u64 * self.concurrency as u64
    }

    fn hotplug_bytes(&self, backend: BackendKind) -> u64 {
        if backend.is_squeezy() {
            self.shared_bytes + self.partition_bytes * self.instances()
        } else {
            let total_limit: u64 = self
                .kinds
                .iter()
                .map(|k| align_up_to_block(k.profile().memory_limit.bytes()))
                .sum::<u64>()
                * self.concurrency as u64;
            align_up_to_block(
                total_limit + self.shared_bytes + 256 * MIB + 2 * self.partition_bytes,
            )
        }
    }

    fn vm_config(&self, backend: BackendKind) -> VmConfig {
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: BOOT_BYTES,
                hotplug_bytes: self.hotplug_bytes(backend),
                kernel_bytes: KERNEL_BYTES,
                init_on_alloc: true,
            },
            vcpus: self.vcpus,
        }
    }
}

/// Runs every probe for workload `w` and returns the per-layer numbers.
/// `depth` is the peak event-queue depth a run of the workload reached.
pub fn run(w: Workload, spec: &Scenario, depth: usize) -> Json {
    let mut j = Json::default();
    let layout = Layout::of(spec);
    let backend = spec.backends[0];
    let cost = CostModel::default();

    j.num(
        "sim_core.queue_push_pop_ns",
        queue_push_pop_ns(depth, spec.seed),
    );
    probe_arrivals(&mut j, w, spec);

    let hosts = match spec.topology {
        faas::Topology::Cluster(n) => n,
        _ => spec.max_hosts,
    };
    let (boot_ms, boot_rss) = boot(&layout.vm_config(backend), hosts, spec.host_capacity);
    j.num("vmm.boot_ms", boot_ms);
    j.num("vmm.boot_rss_mib", boot_rss);

    probe_partitions(&mut j, &layout, spec.host_capacity, &cost);
    j.num(
        "virtio_mem.unplug_ns_per_migrated_page",
        virtio_unplug_ns_per_page(&layout, spec.host_capacity, &cost),
    );
    j
}

/// Mean cost of one pop + one push on a queue held at `depth` pending
/// events spread over one simulated second (the classic hold model).
fn queue_push_pop_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = DetRng::new(seed).derive(0x9E);
    let mut q: EventQueue<u64> = EventQueue::new();
    let spread = |rng: &mut DetRng| SimDuration::nanos(rng.range(0, 1_000_000_000));
    for i in 0..depth.max(1) as u64 {
        q.push(SimTime::ZERO + spread(&mut rng), i);
    }
    let t0 = Instant::now();
    for _ in 0..QUEUE_OPS {
        let (at, ev) = q.pop().expect("the hold model keeps the queue full");
        q.push(at + spread(&mut rng), black_box(ev));
    }
    t0.elapsed().as_nanos() as f64 / QUEUE_OPS as f64
}

/// The input layer: how fast the workload's arrivals are produced
/// (trace parsing for a streamed workload, generation for a named one)
/// and what one `next_arrival` costs when drained in isolation.
fn probe_arrivals(j: &mut Json, w: Workload, spec: &Scenario) {
    let t0 = Instant::now();
    let (mut source, horizon): (Box<dyn TraceSource>, f64) = match &spec.workload {
        WorkloadSpec::Trace(path) => (
            workloads::open_trace(path, spec.seed).expect("committed trace opens"),
            spec.params.duration_s,
        ),
        WorkloadSpec::Named(_) => (
            Box::new(MaterializedSource::new(spec.tenant_loads(0))),
            f64::INFINITY,
        ),
    };
    let opened = Instant::now();
    let horizon_ns = if horizon.is_finite() {
        SimDuration::from_secs_f64(horizon).0
    } else {
        u64::MAX
    };
    let mut n = 0u64;
    while let Some(a) = source.next_arrival().expect("benchmark inputs parse") {
        if a.t_ns >= horizon_ns {
            break;
        }
        black_box(a);
        n += 1;
    }
    let drained = opened.elapsed().as_secs_f64();
    let total = t0.elapsed().as_secs_f64();
    if let WorkloadSpec::Trace(path) = &spec.workload {
        assert_eq!(n, count_arrivals(path, spec.seed, horizon), "{}", w.key());
    }
    j.int("workloads.arrivals", n);
    j.num("workloads.parse_arrivals_per_s", n as f64 / total);
    j.num("workloads.drain_ns_per_arrival", drained * 1e9 / n as f64);
}

/// Boots `n` VMs of one layout, keeping them all alive as a host set
/// does, and returns the median boot time (ms) and the resident memory
/// each added (MiB).
fn boot(config: &VmConfig, n: usize, capacity: u64) -> (f64, f64) {
    let rss0 = rss_mib("VmRSS:");
    let mut hosts = Vec::new();
    let mut times = Vec::new();
    for _ in 0..n {
        let mut host = HostMemory::new(capacity);
        let t0 = Instant::now();
        let vm = Vm::boot(*config, &mut host).expect("benchmark VM boots");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        hosts.push((host, vm));
    }
    let per_vm = (rss_mib("VmRSS:") - rss0) / n as f64;
    drop(black_box(hosts));
    (median(times), per_vm)
}

/// Squeezy partition cycles on a Squeezy-layout VM: plug a partition,
/// fault one tenant's anonymous working set into it, exit the process,
/// unplug the partition. Tenants take turns.
fn probe_partitions(j: &mut Json, layout: &Layout, capacity: u64, cost: &CostModel) {
    let mut host = HostMemory::new(capacity);
    let mut vm =
        Vm::boot(layout.vm_config(BackendKind::Squeezy), &mut host).expect("benchmark VM boots");
    let mut sq = SqueezyManager::install(
        &mut vm,
        SqueezyConfig {
            partition_bytes: layout.partition_bytes,
            shared_bytes: layout.shared_bytes,
            concurrency: layout.instances() as u32,
        },
        cost,
    )
    .expect("the layout fits its region");
    let (mut plug, mut unplug, mut touch, mut exit) = (0.0, 0.0, 0.0, 0.0);
    let mut pages_total = 0u64;
    let mut runs: Vec<FrameRange> = Vec::new();
    for i in 0..PARTITION_CYCLES {
        let kind = layout.kinds[i % layout.kinds.len()];
        let pages = kind.profile().anon_bytes / PAGE_SIZE;
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);

        let t = Instant::now();
        sq.plug_partition(&mut vm, cost)
            .expect("a partition is free");
        plug += t.elapsed().as_secs_f64();
        assert!(
            matches!(sq.attach(&mut vm, pid), Ok(AttachOutcome::Attached(_))),
            "the plugged partition takes the process"
        );

        runs.clear();
        let t = Instant::now();
        vm.guest
            .fault_anon_runs(pid, pages, &mut runs)
            .expect("the working set fits its partition");
        touch += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let freed = vm.guest.exit_process(pid).expect("the process exists");
        exit += t.elapsed().as_secs_f64();
        assert_eq!(freed, pages);
        sq.detach(pid).expect("the process was attached");

        let t = Instant::now();
        sq.unplug_partition(&mut vm, &mut host, cost)
            .expect("the emptied partition unplugs");
        unplug += t.elapsed().as_secs_f64();
        pages_total += pages;
    }
    let gib = (PARTITION_CYCLES as u64 * layout.partition_bytes) as f64 / GIB as f64;
    j.num("squeezy.plug_partition_us_per_gib", plug * 1e6 / gib);
    j.num("squeezy.unplug_partition_us_per_gib", unplug * 1e6 / gib);
    j.num(
        "guest_mm.touch_anon_ns_per_page",
        touch * 1e9 / pages_total as f64,
    );
    j.num(
        "guest_mm.exit_process_ns_per_page",
        exit * 1e9 / pages_total as f64,
    );
}

/// Vanilla virtio-mem unplugs that must migrate: two processes fault
/// interleaved chunks over twice one partition's worth of plugged
/// memory, one exits, and half the plugged memory is unplugged, which
/// migrates the survivor's pages out of the chosen blocks.
fn virtio_unplug_ns_per_page(layout: &Layout, capacity: u64, cost: &CostModel) -> f64 {
    const CHUNK: u64 = 512;
    let bytes = layout.partition_bytes;
    let mut ns = 0.0;
    let mut migrated = 0u64;
    for _ in 0..VIRTIO_UNPLUGS {
        let mut host = HostMemory::new(capacity);
        let mut vm = Vm::boot(layout.vm_config(BackendKind::VirtioMem), &mut host)
            .expect("benchmark VM boots");
        vm.plug(2 * bytes, cost).expect("the region has room");
        let a = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        let b = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        for _ in 0..bytes / PAGE_SIZE / CHUNK {
            for pid in [a, b] {
                vm.touch_anon(&mut host, pid, CHUNK, cost)
                    .expect("plugged memory holds both processes");
            }
        }
        vm.guest.exit_process(a).expect("the process exists");
        let t = Instant::now();
        let report = vm
            .unplug(&mut host, bytes, None, cost)
            .expect("unplug runs");
        ns += t.elapsed().as_nanos() as f64;
        assert_eq!(report.bytes(), bytes, "the unplug is served in full");
        migrated += report.outcome.migrated;
    }
    assert!(migrated > 0, "the interleaved layout forces migrations");
    ns / migrated as f64
}
