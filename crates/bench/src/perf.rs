//! The pinned event-engine throughput benchmark (`repro perf`).
//!
//! One large, fully deterministic cluster — many identical hosts, a
//! steady all-warm drumbeat of invocations round-robined across them —
//! run single-threaded and timed with a wall clock. The figure of merit
//! is **events/sec** through the shared engine, reported next to
//! **invocations/sec**: the event count depends on how the engine
//! schedules (a re-armed CPU timer is one event, not one per
//! prediction), so only invocations/sec compares across engine
//! changes. The simulation outcome (completions, events processed,
//! peak queue depth) is byte-stable across machines, only the wall
//! time varies. This is the permanent
//! perf baseline later PRs diff against, so the scenario must never
//! change: `paper()` and `quick()` are pinned.
//!
//! The workload is deliberately warm-path heavy: per-host per-tenant
//! gaps sit far below the keep-alive window, so after the first round
//! of cold starts every invocation exercises the steady-state
//! dispatch/complete path the engine optimizations target.

use std::time::Instant;

use faas::cluster::{ClusterConfig, ClusterSim, RoundRobin, TenantTrace, LATENCY_RESERVOIR_CAP};
use faas::config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
use faas::fleet::{FixedFleet, FleetConfig, FleetSim};
use sim_core::{DetRng, TextTable};
use workloads::FunctionKind;

/// Root seed of the pinned scenario's per-host jitter streams.
const PERF_SEED: u64 = 0x9EF0;

/// Experiment scale. The rates are fixed; only the host count differs
/// between the pinned tiers, so quick runs exercise the same per-host
/// dynamics as the full one.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Offered request rate per host (requests/sec).
    pub per_host_rps: f64,
    /// Trace length in seconds.
    pub duration_s: f64,
    /// Tenant functions (one deployment slot each on every host's VM).
    pub tenants: usize,
}

impl PerfConfig {
    /// Full scale: ~1000 hosts, ~2M invocations.
    pub fn paper() -> Self {
        PerfConfig {
            hosts: 1000,
            per_host_rps: 5.0,
            duration_s: 400.0,
            tenants: 4,
        }
    }

    /// CI scale: 32 hosts, ~64K invocations.
    pub fn quick() -> Self {
        PerfConfig {
            hosts: 32,
            per_host_rps: 5.0,
            duration_s: 400.0,
            tenants: 4,
        }
    }

    /// The hand-built cluster the benchmark runs (the scenario layer
    /// caps cluster sizes well below 1000 hosts, so the perf scenario
    /// assembles its `ClusterConfig` directly).
    pub fn cluster(&self) -> ClusterConfig {
        let host = |seed: u64| SimConfig {
            backend: BackendKind::Squeezy,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: (0..self.tenants)
                    .map(|_| Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                        arrivals: Vec::new(),
                    })
                    .collect(),
                vcpus: Some(4.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 60.0,
            duration_s: self.duration_s,
            sample_period_s: 1.0,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial: 0,
        };
        // A deterministic drumbeat: fixed per-tenant cadence with a
        // phase offset so tenants never fire simultaneously. Round-robin
        // routing then spreads each tenant evenly over the hosts,
        // keeping every per-host instance inside its keep-alive window.
        let per_tenant_rps = self.hosts as f64 * self.per_host_rps / self.tenants as f64;
        let tenants = (0..self.tenants)
            .map(|ti| {
                let gap = 1.0 / per_tenant_rps;
                let phase = gap * (ti as f64 + 0.5) / self.tenants as f64;
                let mut arrivals = Vec::new();
                let mut t = phase;
                while t < self.duration_s {
                    arrivals.push(t);
                    t += gap;
                }
                TenantTrace {
                    vm: 0,
                    dep: ti,
                    arrivals,
                }
            })
            .collect();
        ClusterConfig {
            hosts: (0..self.hosts)
                .map(|h| host(DetRng::new(PERF_SEED).derive(h as u64).seed()))
                .collect(),
            tenants,
        }
    }
}

/// One timed run of the pinned scenario.
#[derive(Clone, Debug)]
pub struct PerfCell {
    pub hosts: usize,
    /// Invocations offered by the traces.
    pub invocations: u64,
    /// Invocations completed (sanity: must equal offered).
    pub completed: u64,
    /// Events popped by the shared engine.
    pub events: u64,
    /// High-water mark of the event queue.
    pub peak_depth: usize,
    /// Process peak RSS (`VmHWM`) in MiB, where the platform exposes it.
    pub peak_rss_mib: Option<f64>,
    /// Wall time to boot the hosts (not part of the throughput figure).
    pub setup_s: f64,
    /// Wall time of the event loop + result assembly.
    pub run_s: f64,
    /// The North Star: `events / run_s`.
    pub events_per_sec: f64,
    /// `invocations / run_s`, comparable across engine changes.
    pub invocations_per_sec: f64,
}

/// Runs the pinned scenario once, single-threaded, and times it.
pub fn run(cfg: &PerfConfig) -> PerfCell {
    let cluster = cfg.cluster();
    let invocations: u64 = cluster
        .tenants
        .iter()
        .map(|t| t.arrivals.len() as u64)
        .sum();
    let t0 = Instant::now();
    let sim = ClusterSim::new(cluster, Box::new(RoundRobin::default())).expect("hosts boot");
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    PerfCell {
        hosts: cfg.hosts,
        invocations,
        completed: out.completed,
        events: out.events_processed,
        peak_depth: out.peak_queue_depth,
        peak_rss_mib: peak_rss_mib(),
        setup_s,
        run_s,
        events_per_sec: out.events_processed as f64 / run_s,
        invocations_per_sec: invocations as f64 / run_s,
    }
}

/// Formats an optional peak RSS as a table cell.
fn rss_cell(mib: Option<f64>) -> String {
    mib.map_or_else(|| "n/a".to_string(), |m| format!("{m:.0}"))
}

/// Renders the perf summary. Wall-time figures vary by machine, so this
/// section is excluded from the digest-stable `repro all` report.
pub fn render(c: &PerfCell) -> String {
    let mut t = TextTable::new(&[
        "Hosts",
        "Invocations",
        "Completed",
        "Events",
        "PeakQ",
        "PeakRSS(MiB)",
        "Setup(s)",
        "Run(s)",
        "Events/s",
        "Invocations/s",
    ]);
    t.row(vec![
        format!("{}", c.hosts),
        format!("{}", c.invocations),
        format!("{}", c.completed),
        format!("{}", c.events),
        format!("{}", c.peak_depth),
        rss_cell(c.peak_rss_mib),
        format!("{:.2}", c.setup_s),
        format!("{:.2}", c.run_s),
        format!("{:.0}", c.events_per_sec),
        format!("{:.0}", c.invocations_per_sec),
    ]);
    let mut out = String::from(
        "Perf: pinned event-engine throughput scenario (single-core, single-thread)\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "Events/s is the engine North Star; Invocations/s compares across \
         engine changes. The simulation outcome is deterministic, only wall \
         time varies by machine.\n",
    );
    out
}

/// Scale of the streaming-replay benchmark (`repro perf --trace`): a
/// fixed fleet fed lazily from an on-disk azure-minute trace. Unlike
/// the drumbeat scenario above, the arrivals are never materialized —
/// the figure of merit is that a multi-day, multi-million-invocation
/// replay finishes with every per-function accumulator still under its
/// reservoir cap and the event queue tracking in-flight work only.
#[derive(Clone, Debug)]
pub struct TracePerfConfig {
    /// Trace length in minutes (the simulated duration is `minutes *
    /// 60` seconds).
    pub minutes: u64,
    /// Hosts in the frozen fleet.
    pub hosts: usize,
    /// Peak of the diurnal per-minute invocation envelope.
    pub peak_per_minute: f64,
}

impl TracePerfConfig {
    /// Full scale: the committed 3-day trace (~2.1M invocations). The
    /// rendered text is byte-identical to
    /// [`workloads::sample_azure_3day`] — i.e. to
    /// `examples/traces/azure_3day.csv` — which a test pins.
    pub fn paper() -> Self {
        TracePerfConfig {
            minutes: 3 * 1440,
            hosts: 4,
            peak_per_minute: 900.0,
        }
    }

    /// CI scale: the first 4 hours of the same envelope (~100K
    /// invocations), same per-minute dynamics.
    pub fn quick() -> Self {
        TracePerfConfig {
            minutes: 240,
            hosts: 4,
            peak_per_minute: 900.0,
        }
    }

    /// Renders the trace text (azure-minute format, same seed and
    /// tenant mix as the committed sample at every scale).
    fn trace_text(&self) -> String {
        let kinds = [
            FunctionKind::Html,
            FunctionKind::Cnn,
            FunctionKind::Bfs,
            FunctionKind::Bert,
        ];
        workloads::render_azure_minute(
            0xA2_2026,
            &kinds,
            &workloads::sample_azure_rows(self.minutes, kinds.len(), self.peak_per_minute),
        )
    }
}

/// One timed streaming replay.
#[derive(Clone, Debug)]
pub struct TracePerfCell {
    pub hosts: usize,
    pub minutes: u64,
    /// Arrivals the feed expanded out of the trace file.
    pub invocations: u64,
    pub completed: u64,
    pub events: u64,
    /// High-water mark of the event queue — O(in-flight), not O(trace).
    pub peak_depth: usize,
    /// Fleet-wide latency reservoir size (≤ [`LATENCY_RESERVOIR_CAP`]).
    pub reservoir_len: usize,
    /// Largest per-function latency sample count on any host (≤ cap).
    pub max_func_samples: usize,
    /// Process peak RSS (`VmHWM`) in MiB, where the platform exposes it.
    pub peak_rss_mib: Option<f64>,
    pub setup_s: f64,
    pub run_s: f64,
    pub events_per_sec: f64,
    pub invocations_per_sec: f64,
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes the trace, replays it through a frozen fleet pulling arrivals
/// lazily off disk, and asserts the memory-boundedness contract: capped
/// reservoirs, no time series, queue depth independent of trace length.
pub fn run_trace(cfg: &TracePerfConfig) -> TracePerfCell {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/perf-traces");
    std::fs::create_dir_all(dir).expect("create perf trace dir");
    let path = format!("{dir}/azure_{}m.csv", cfg.minutes);
    std::fs::write(&path, cfg.trace_text()).expect("write perf trace");

    let header = workloads::read_trace_header(&path).expect("trace header");
    let duration_s = cfg.minutes as f64 * 60.0;
    let host = |seed: u64| SimConfig {
        backend: BackendKind::Squeezy,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: header
                .kinds
                .iter()
                .map(|&kind| Deployment {
                    kind,
                    concurrency: 8,
                    arrivals: Vec::new(),
                })
                .collect(),
            vcpus: Some(8.0),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: 60.0,
        duration_s,
        sample_period_s: 1.0,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed,
        trial: 0,
    };
    let cluster = ClusterConfig {
        hosts: (0..cfg.hosts)
            .map(|h| host(DetRng::new(PERF_SEED).derive(0x7A).derive(h as u64).seed()))
            .collect(),
        tenants: header
            .kinds
            .iter()
            .enumerate()
            .map(|(ti, _)| TenantTrace {
                vm: 0,
                dep: ti,
                arrivals: Vec::new(),
            })
            .collect(),
    };

    let t0 = Instant::now();
    let source = workloads::open_trace(&path, 0).expect("trace opens");
    let sim = FleetSim::with_source(
        FleetConfig::fixed(cluster, PERF_SEED),
        Box::new(RoundRobin::default()),
        Box::new(FixedFleet),
        source,
        &path,
    )
    .expect("hosts boot");
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = sim.run();
    let run_s = t1.elapsed().as_secs_f64();

    // Boundedness is the whole point of this benchmark: fail loudly if
    // any accumulator ever grows with the trace again.
    assert!(
        out.latency_over_time.len() <= LATENCY_RESERVOIR_CAP,
        "fleet reservoir exceeded its cap"
    );
    let max_func_samples = out
        .hosts
        .iter()
        .flat_map(|h| h.result.per_func.values().map(|m| m.latency.count()))
        .max()
        .unwrap_or(0);
    assert!(
        max_func_samples <= LATENCY_RESERVOIR_CAP,
        "a per-function histogram exceeded its cap"
    );
    for h in &out.hosts {
        assert!(
            h.result.host_usage.points().is_empty(),
            "streamed replays must not record usage series"
        );
    }
    assert_eq!((out.lost, out.deferred), (0, 0), "unsaturated frozen fleet");

    TracePerfCell {
        hosts: cfg.hosts,
        minutes: cfg.minutes,
        invocations: out.injected,
        completed: out.completed,
        events: out.events_processed,
        peak_depth: out.peak_queue_depth,
        reservoir_len: out.latency_over_time.len(),
        max_func_samples,
        peak_rss_mib: peak_rss_mib(),
        setup_s,
        run_s,
        events_per_sec: out.events_processed as f64 / run_s,
        invocations_per_sec: out.injected as f64 / run_s,
    }
}

/// Renders the streaming-replay summary.
pub fn render_trace(c: &TracePerfCell) -> String {
    let mut t = TextTable::new(&[
        "Hosts",
        "Minutes",
        "Invocations",
        "Completed",
        "Events",
        "PeakQ",
        "Reservoir",
        "MaxFunc",
        "PeakRSS(MiB)",
        "Setup(s)",
        "Run(s)",
        "Events/s",
        "Invocations/s",
    ]);
    t.row(vec![
        format!("{}", c.hosts),
        format!("{}", c.minutes),
        format!("{}", c.invocations),
        format!("{}", c.completed),
        format!("{}", c.events),
        format!("{}", c.peak_depth),
        format!("{}/{}", c.reservoir_len, LATENCY_RESERVOIR_CAP),
        format!("{}/{}", c.max_func_samples, LATENCY_RESERVOIR_CAP),
        rss_cell(c.peak_rss_mib),
        format!("{:.2}", c.setup_s),
        format!("{:.2}", c.run_s),
        format!("{:.0}", c.events_per_sec),
        format!("{:.0}", c.invocations_per_sec),
    ]);
    let mut out = String::from(
        "Perf (trace replay): streamed multi-day fleet replay, arrivals pulled \
         lazily off disk\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "Reservoir/MaxFunc are hard caps: tracked samples stay bounded no \
         matter how many invocations the trace expands to.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-sized pinned scenario (same construction, tiny scale).
    fn tiny() -> PerfConfig {
        PerfConfig {
            hosts: 2,
            per_host_rps: 2.0,
            duration_s: 30.0,
            tenants: 2,
        }
    }

    #[test]
    fn perf_scenario_serves_every_invocation() {
        let cell = run(&tiny());
        assert!(cell.invocations > 0);
        assert_eq!(
            cell.completed, cell.invocations,
            "an unsaturated warm cluster serves everything"
        );
        assert!(cell.events >= cell.invocations, "≥ 1 event per invocation");
        assert!(cell.peak_depth > 0);
        assert!(cell.events_per_sec > 0.0);
        assert!(cell.invocations_per_sec > 0.0);
    }

    #[test]
    fn perf_scenario_outcome_is_deterministic() {
        let a = run(&tiny());
        let b = run(&tiny());
        assert_eq!(a.invocations, b.invocations);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_depth, b.peak_depth);
    }

    /// A test-sized trace replay (same construction, ~20 minutes of
    /// trace at a low peak).
    fn tiny_trace() -> TracePerfConfig {
        TracePerfConfig {
            minutes: 20,
            hosts: 2,
            peak_per_minute: 120.0,
        }
    }

    #[test]
    fn trace_replay_is_bounded_and_deterministic() {
        let a = run_trace(&tiny_trace());
        let b = run_trace(&tiny_trace());
        assert!(a.invocations > 0);
        assert_eq!(a.completed, a.invocations, "unsaturated fleet serves all");
        assert_eq!(a.invocations, b.invocations);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_depth, b.peak_depth);
        assert_eq!(a.reservoir_len, b.reservoir_len);
    }

    #[test]
    fn paper_trace_text_is_the_committed_sample() {
        // `repro gen-trace` writes `workloads::sample_azure_3day()`;
        // the paper-scale replay must benchmark that exact file.
        assert_eq!(
            TracePerfConfig::paper().trace_text(),
            workloads::sample_azure_3day()
        );
    }

    /// The reservoir-bound audit at full scale: a multi-day replay
    /// expanding to 2M+ invocations, every tracked-sample accumulator
    /// still under its cap and the queue high-water mark independent of
    /// trace length. The `run_trace` asserts do the enforcement; this
    /// test supplies the scale.
    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy simulation; enable with --features slow-tests"
    )]
    fn full_scale_trace_replay_stays_bounded() {
        let cell = run_trace(&TracePerfConfig::paper());
        assert!(
            cell.invocations >= 2_000_000,
            "the 3-day trace expands to 2M+ invocations (got {})",
            cell.invocations
        );
        assert_eq!(cell.completed, cell.invocations);
        assert!(cell.reservoir_len <= LATENCY_RESERVOIR_CAP);
        assert!(cell.max_func_samples <= LATENCY_RESERVOIR_CAP);
        assert!(
            cell.peak_depth < cell.invocations as usize / 100,
            "queue tracks in-flight work, not the trace ({} vs {})",
            cell.peak_depth,
            cell.invocations
        );
    }
}
