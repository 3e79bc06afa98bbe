//! Steady-state allocation audit of the event engine.
//!
//! The perf tentpole's contract: once a host is warmed up, the
//! per-event path — arrival, dispatch, CPU completion, keep-alive —
//! performs no heap allocation. The event queue's heap and key free
//! list, the flat `IdMap`s and the CPU pool's task set and
//! water-filling scratch all reuse capacity, so the only
//! allocations left are amortized buffer growth (logarithmic in run
//! length) and per-sample metrics appends.
//!
//! The test pins that by differencing: two identical drumbeat runs, one
//! twice as long as the other. The extra invocations ride entirely on
//! warmed-up buffers, so the allocation *delta* per extra invocation
//! must be far below one — a per-event allocation anywhere in the
//! engine would push it to one or more. The drumbeat runs on a single
//! host and on a 2-host least-loaded cluster, whose per-arrival path
//! also takes load snapshots for the router.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use faas::config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
use faas::{ClusterConfig, ClusterSim, LeastLoaded, Router, SingleHost, TenantTrace};
use workloads::FunctionKind;

/// A pass-through allocator that counts allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A warm drumbeat: fixed-cadence arrivals on one Html deployment, far
/// inside the keep-alive window, so after the first cold start every
/// invocation runs the steady-state dispatch/complete path.
fn drumbeat(duration_s: f64) -> (ClusterConfig, u64) {
    let gap = 0.1;
    let mut arrivals = Vec::new();
    let mut t = 0.05;
    while t < duration_s {
        arrivals.push(t);
        t += gap;
    }
    let n = arrivals.len() as u64;
    let cfg = SimConfig {
        backend: BackendKind::Squeezy,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: vec![Deployment {
                kind: FunctionKind::Html,
                concurrency: 2,
            }],
            vcpus: Some(4.0),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: 60.0,
        duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed: 0x57EAD,
        trial: 0,
    };
    let cluster = ClusterConfig {
        hosts: vec![cfg],
        tenants: vec![TenantTrace {
            vm: 0,
            dep: 0,
            arrivals,
        }],
    };
    (cluster, n)
}

/// Allocation calls spent inside `run()` for a drumbeat of `duration_s`
/// on `hosts` hosts (setup is excluded: booting VMs legitimately
/// allocates). One host runs under the single-host router; more run
/// as a least-loaded cluster, the drumbeat's deployment on every host.
fn allocs_for(duration_s: f64, hosts: u64) -> (u64, u64) {
    let (mut cluster, n) = drumbeat(duration_s);
    let router: Box<dyn Router> = if hosts == 1 {
        Box::new(SingleHost)
    } else {
        let template = cluster.hosts[0].clone();
        cluster.hosts.extend((1..hosts).map(|h| SimConfig {
            seed: template.seed + h,
            ..template.clone()
        }));
        Box::new(LeastLoaded)
    };
    let sim = ClusterSim::new(cluster, router).expect("hosts boot");
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = sim.run();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.completed, n, "drumbeat must be fully served");
    (spent, n)
}

#[test]
fn steady_state_invocations_do_not_allocate_per_event() {
    for hosts in [1, 2] {
        let (short, n_short) = allocs_for(100.0, hosts);
        let (long, n_long) = allocs_for(200.0, hosts);
        let extra_invocations = (n_long - n_short) as f64;
        // The longer run's extra invocations are pure steady state; allow a
        // generous budget for amortized growth and per-sample metrics, but
        // a true per-event allocation (≥1 per invocation, usually several)
        // is far outside it.
        let delta = long.saturating_sub(short) as f64;
        let per_invocation = delta / extra_invocations;
        assert!(
            per_invocation < 0.5,
            "{hosts} host(s): steady state allocates {per_invocation:.2} times per invocation \
             (short run: {short} allocs / {n_short} inv, \
             long run: {long} allocs / {n_long} inv)"
        );
    }
}
