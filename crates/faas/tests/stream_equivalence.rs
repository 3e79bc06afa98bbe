//! The streaming arrival path adds zero behavioral drift.
//!
//! Two pins, per the trace-ingestion design:
//!
//! * **Streamed ≡ materialized** — a workload generated in memory and
//!   replayed through [`workloads::MaterializedSource`] produces the
//!   same completions, routing, and reservoir timeline as the legacy
//!   path that hands the simulators materialized arrival lists. The
//!   only sanctioned difference is the metrics discipline: streamed
//!   runs bound their per-function accumulators (capped reservoir
//!   histograms, streamed usage integral, empty time series), so the
//!   order-sensitive outcomes are compared field by field instead of
//!   by whole-result digest.
//! * **File-streamed ≡ in-memory-streamed** — the same arrival stream
//!   read back from an on-disk trace file is *byte-identical* (full
//!   per-host digests) to streaming it from memory: the parser adds
//!   nothing and loses nothing.

use std::fs;
use std::path::PathBuf;

use faas::{
    ClusterConfig, ClusterSim, FaasSim, FixedFleet, FleetConfig, FleetResult, FleetSim, RoundRobin,
    Router, SimConfig, SingleHost, TenantTrace, LATENCY_RESERVOIR_CAP,
};
use sim_core::DetRng;
use workloads::{
    render_opendc, MaterializedSource, OpenDcRow, TenantLoad, TraceSource, WorkloadKind,
    WorkloadParams,
};

/// A small multi-tenant workload on the documented trace stream.
fn loads(seed: u64) -> Vec<TenantLoad> {
    let params = WorkloadParams {
        tenants: 3,
        duration_s: 90.0,
        rps: 2.5,
        ..WorkloadParams::default()
    };
    let mut rng = DetRng::new(seed).derive(0x77).derive(0);
    WorkloadKind::ZipfCluster.generate(&params, &mut rng)
}

fn host_cfg(tenants: &[TenantLoad], seed: u64, duration_s: f64) -> SimConfig {
    use faas::{BackendKind, Deployment, HarvestConfig, VmSpec};
    SimConfig {
        backend: BackendKind::Squeezy,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: tenants
                .iter()
                .map(|t| Deployment {
                    kind: t.kind,
                    concurrency: 2,
                    arrivals: Vec::new(),
                })
                .collect(),
            vcpus: Some(2.0),
        }],
        host_capacity: 6 * mem_types::GIB,
        keepalive_s: 15.0,
        duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed,
        trial: 0,
    }
}

fn cluster_cfg(tenants: &[TenantLoad], with_arrivals: bool) -> ClusterConfig {
    ClusterConfig {
        hosts: (0..2).map(|h| host_cfg(tenants, 0xE0 + h, 90.0)).collect(),
        tenants: tenants
            .iter()
            .enumerate()
            .map(|(ti, t)| TenantTrace {
                vm: 0,
                dep: ti,
                arrivals: if with_arrivals {
                    t.arrivals.clone()
                } else {
                    Vec::new()
                },
            })
            .collect(),
    }
}

/// Streams `source` through the fixed fleet `cluster` runs as under
/// `ClusterSim` (reservoir seeded from the first host's seed).
fn stream_cluster(
    cluster: ClusterConfig,
    router: Box<dyn Router>,
    source: Box<dyn TraceSource>,
    origin: &str,
) -> FleetResult {
    let seed = cluster.hosts[0].seed;
    FleetSim::with_source(
        FleetConfig::fixed(cluster, seed),
        router,
        Box::new(FixedFleet),
        source,
        origin,
    )
    .expect("boot")
    .run()
}

#[test]
fn cluster_streamed_replay_matches_the_materialized_path() {
    let tenants = loads(0x5C);
    let offered: usize = tenants
        .iter()
        .map(|t| t.arrivals.iter().filter(|&&a| a < 90.0).count())
        .sum();

    let legacy = ClusterSim::new(cluster_cfg(&tenants, true), Box::new(RoundRobin::default()))
        .expect("boot")
        .run();
    let streamed = stream_cluster(
        cluster_cfg(&tenants, false),
        Box::new(RoundRobin::default()),
        Box::new(MaterializedSource::new(tenants.clone())),
        "materialized",
    );

    assert_eq!(streamed.injected, offered as u64, "feed replays the trace");
    assert_eq!(streamed.completed, legacy.completed);
    assert_eq!(streamed.routed, legacy.routed, "routing order preserved");
    assert_eq!(
        streamed.events_processed, legacy.events_processed,
        "fed arrivals count as processed events"
    );
    assert_eq!(
        streamed.latency_over_time.sorted_points(),
        legacy.latency_over_time.sorted_points(),
        "the reservoir timeline sees identical completions in identical order"
    );
    for (s, l) in streamed.hosts.iter().map(|h| &h.result).zip(&legacy.hosts) {
        assert_eq!(s.completed, l.completed);
        assert!(
            s.host_usage.points().is_empty(),
            "bounded mode records no series"
        );
        assert!(
            (s.gib_seconds() - l.gib_seconds()).abs() <= 1e-9 * l.gib_seconds().abs().max(1.0),
            "streamed usage integral matches the series integral: {} vs {}",
            s.gib_seconds(),
            l.gib_seconds()
        );
        for ((ks, ms), (kl, ml)) in s.per_func.iter().zip(&l.per_func) {
            assert_eq!(ks, kl);
            assert_eq!(ms.cold_starts, ml.cold_starts);
            assert_eq!(ms.warm_starts, ml.warm_starts);
            assert_eq!(
                ms.latency.seen(),
                ml.latency.count() as u64,
                "bounded histograms still count every sample"
            );
            assert!(ms.latency.count() <= LATENCY_RESERVOIR_CAP);
            assert!(
                (ms.latency.mean() - ml.latency.mean()).abs() <= 1e-9,
                "capped mean is exact (streaming moments)"
            );
        }
    }
}

#[test]
fn fleet_streamed_replay_matches_the_materialized_path() {
    let tenants = loads(0xF1);
    let cluster = cluster_cfg(&tenants, true);
    let legacy = FleetSim::new(
        FleetConfig::fixed(cluster, 0xF1EE7),
        Box::new(RoundRobin::default()),
        Box::new(FixedFleet),
    )
    .expect("boot")
    .run();
    let streamed = FleetSim::with_source(
        FleetConfig::fixed(cluster_cfg(&tenants, false), 0xF1EE7),
        Box::new(RoundRobin::default()),
        Box::new(FixedFleet),
        Box::new(MaterializedSource::new(tenants.clone())),
        "materialized",
    )
    .expect("boot")
    .run();

    assert_eq!(streamed.completed, legacy.completed);
    assert_eq!(streamed.routed, legacy.routed);
    assert_eq!(streamed.events_processed, legacy.events_processed);
    assert_eq!(streamed.injected, legacy.injected);
    assert_eq!(
        (streamed.lost, streamed.deferred),
        (legacy.lost, legacy.deferred)
    );
    assert_eq!(
        streamed.latency_over_time.sorted_points(),
        legacy.latency_over_time.sorted_points()
    );
    assert!(
        streamed.peak_queue_depth <= legacy.peak_queue_depth,
        "lazy injection never deepens the queue ({} vs {})",
        streamed.peak_queue_depth,
        legacy.peak_queue_depth
    );
}

#[test]
fn single_vm_streamed_replay_matches_the_materialized_path() {
    let tenants = loads(0x51);
    let mut cfg = host_cfg(&tenants, 0xAB, 90.0);
    for (dep, t) in cfg.vms[0].deployments.iter_mut().zip(&tenants) {
        dep.arrivals = t.arrivals.clone();
    }
    let legacy = FaasSim::new(cfg).expect("boot").run();
    let fleet = stream_cluster(
        ClusterConfig::from_single(host_cfg(&tenants, 0xAB, 90.0)),
        Box::new(SingleHost),
        Box::new(MaterializedSource::new(tenants.clone())),
        "materialized",
    );
    let injected = fleet.injected;
    let streamed = fleet.hosts.into_iter().next().expect("one host").result;

    let offered: usize = tenants
        .iter()
        .map(|t| t.arrivals.iter().filter(|&&a| a < 90.0).count())
        .sum();
    assert_eq!(injected, offered as u64);
    assert_eq!(streamed.completed, legacy.completed);
    for ((ks, ms), (kl, ml)) in streamed.per_func.iter().zip(&legacy.per_func) {
        assert_eq!(ks, kl);
        assert_eq!(
            (ms.cold_starts, ms.warm_starts),
            (ml.cold_starts, ml.warm_starts)
        );
        assert_eq!(ms.latency.seen(), ml.latency.count() as u64);
    }
}

/// Writes `text` under the workspace target dir (inside the repo) and
/// returns its path.
fn temp_trace(name: &str, text: &str) -> String {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.push("../../target/test-traces");
    fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    fs::write(&path, text).expect("write trace");
    path.to_string_lossy().into_owned()
}

#[test]
fn file_streamed_run_is_byte_identical_to_memory_streamed() {
    // An opendc trace carries exact timestamps, so the same arrivals
    // can be expressed both as a file and as materialized lists —
    // whole-millisecond times convert to identical nanoseconds on both
    // paths.
    use workloads::FunctionKind;
    let kinds = [FunctionKind::Html, FunctionKind::Cnn];
    let rows: Vec<OpenDcRow> = (0..120)
        .map(|i| OpenDcRow {
            timestamp_ms: 250 * i,
            tenant: (i % 2) as usize,
            invocations: 1 + i % 3,
            avg_exec_ms: 80.0,
            memory_mb: 128,
        })
        .collect();
    let text = render_opendc(&kinds, &rows);
    let path = temp_trace("equiv_opendc.csv", &text);

    let mut loads: Vec<TenantLoad> = kinds
        .iter()
        .map(|&kind| TenantLoad {
            kind,
            arrivals: Vec::new(),
        })
        .collect();
    for r in &rows {
        for _ in 0..r.invocations {
            loads[r.tenant].arrivals.push(r.timestamp_ms as f64 / 1e3);
        }
    }

    let tenants = loads.clone();
    let from_file = stream_cluster(
        cluster_cfg(&tenants, false),
        Box::new(RoundRobin::default()),
        workloads::open_trace(&path, 0).expect("trace opens"),
        &path,
    );
    let from_memory = stream_cluster(
        cluster_cfg(&tenants, false),
        Box::new(RoundRobin::default()),
        Box::new(MaterializedSource::new(loads)),
        "materialized",
    );

    let df: Vec<u64> = from_file.hosts.iter().map(|h| h.result.digest()).collect();
    let dm: Vec<u64> = from_memory
        .hosts
        .iter()
        .map(|h| h.result.digest())
        .collect();
    assert_eq!(df, dm, "file and memory streams replay byte-identically");
    assert_eq!(from_file.injected, from_memory.injected);
    assert_eq!(from_file.routed, from_memory.routed);
    assert_eq!(
        from_file.latency_over_time.sorted_points(),
        from_memory.latency_over_time.sorted_points()
    );
}
