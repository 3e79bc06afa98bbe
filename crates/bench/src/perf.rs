//! The end-to-end throughput benchmark (`repro perf`): a wall clock
//! around a committed scenario spec.
//!
//! * `repro perf` runs [`CLUSTER_SPEC`] (`perf_cluster.scn`): 1000
//!   Squeezy hosts under a deterministic all-warm Html drumbeat, 2M
//!   invocations round-robined so that after the first round of cold
//!   starts every invocation takes the steady-state dispatch/complete
//!   path.
//! * `repro perf --trace` runs [`TRACE_SPEC`] (`trace_replay.scn`): the
//!   committed 3-day azure-minute trace streamed lazily off disk
//!   through a frozen 4-host fleet. Its figure of merit is that a
//!   multi-million-invocation replay finishes with every per-function
//!   accumulator under its reservoir cap and the event queue tracking
//!   in-flight work only; [`run`] asserts that contract.
//!
//! The spec runs once, single-threaded, at trial 0, built and booted
//! through the same [`Scenario::fleet_plan`] and [`Scenario::boot`]
//! calls every scenario run makes. Only the wall time varies by
//! machine: the outcome (completions, events, peak queue depth) is
//! byte-stable. Events/sec counts what the engine pops, which depends
//! on how it schedules (a re-armed CPU timer is one event, not one per
//! prediction), so only invocations/sec compares across engine changes.

use std::path::Path;
use std::time::Instant;

use faas::{Scenario, Topology, WorkloadSpec, LATENCY_RESERVOIR_CAP};
use sim_core::TextTable;

/// The drumbeat cluster `repro perf` times, repo-relative.
pub const CLUSTER_SPEC: &str = "examples/scenarios/perf_cluster.scn";

/// The streamed replay `repro perf --trace` times, repo-relative.
pub const TRACE_SPEC: &str = "examples/scenarios/trace_replay.scn";

/// Hosts in the `--quick` tier of a cluster spec, at the full tier's
/// per-host rate.
const QUICK_HOSTS: usize = 32;

/// Simulated seconds of the `--quick` tier of a trace replay: the
/// trace's first 4 hours.
const QUICK_TRACE_S: f64 = 4.0 * 3600.0;

/// The repository root, anchored on the crate manifest so the specs
/// and the trace files they name resolve whatever the working
/// directory.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Loads and validates a committed spec (`rel` is repo-relative, as is
/// a relative trace path inside it). `quick` picks the CI tier: a
/// cluster shrinks to 32 hosts at the same per-host rate, a trace
/// replay to its first 4 hours.
pub fn load(rel: &str, quick: bool) -> Result<Scenario, String> {
    let root = Path::new(REPO_ROOT);
    let path = root.join(rel);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spec = Scenario::parse(&text).map_err(|e| format!("{rel}: {e}"))?;
    if let WorkloadSpec::Trace(trace) = &mut spec.workload {
        *trace = root.join(&*trace).display().to_string();
    }
    if quick {
        match (&spec.workload, spec.topology) {
            (WorkloadSpec::Trace(_), _) => {
                spec.params.duration_s = spec.params.duration_s.min(QUICK_TRACE_S);
            }
            (_, Topology::Cluster(n)) if n > QUICK_HOSTS => {
                spec.params.rps = spec.params.rps * QUICK_HOSTS as f64 / n as f64;
                spec.topology = Topology::Cluster(QUICK_HOSTS);
            }
            _ => {}
        }
    }
    Ok(spec)
}

/// One timed run of a spec.
#[derive(Clone, Debug)]
pub struct PerfCell {
    /// The spec's name.
    pub name: String,
    pub hosts: usize,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Arrivals the feed injected.
    pub invocations: u64,
    /// Invocations completed (sanity: must equal offered).
    pub completed: u64,
    /// Events popped by the shared engine.
    pub events: u64,
    /// High-water mark of the event queue: O(in-flight), not O(trace).
    pub peak_depth: usize,
    /// Run-wide latency reservoir size (≤ [`LATENCY_RESERVOIR_CAP`]).
    pub reservoir_len: usize,
    /// Largest per-function latency sample count on any host (≤ the
    /// cap on streamed runs).
    pub max_func_samples: usize,
    /// Process peak RSS (`VmHWM`) in MiB, where the platform exposes it.
    pub peak_rss_mib: Option<f64>,
    /// Wall time to boot the hosts (not part of the throughput figure).
    pub setup_s: f64,
    /// Wall time of the event loop + result assembly.
    pub run_s: f64,
    /// `events / run_s`.
    pub events_per_sec: f64,
    /// `invocations / run_s`, comparable across engine changes.
    pub invocations_per_sec: f64,
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs trial 0 of `spec` on its first backend and times it: the boot
/// (and the trace open) is the set-up, the event loop and result
/// assembly the run. The fleet plan is built, and a named workload's
/// arrivals generated, before the clock starts. A `trace(<path>)`
/// workload must stay bounded: capped reservoirs, no time series,
/// nothing lost or deferred.
///
/// # Panics
///
/// Panics if the hosts do not boot, the trace does not open, or a
/// streamed run breaks its bounds.
pub fn run(spec: &Scenario) -> PerfCell {
    let plan = spec.fleet_plan(spec.backends[0], 0);
    let t0 = Instant::now();
    let sim = spec.boot(plan, 0).unwrap_or_else(|e| panic!("{e}"));
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    let hosts = || out.hosts.iter().map(|h| &h.result);
    let max_func_samples = hosts()
        .flat_map(|h| h.per_func.values().map(|m| m.latency.count()))
        .max()
        .unwrap_or(0);
    if matches!(spec.workload, WorkloadSpec::Trace(_)) {
        assert_eq!((out.lost, out.deferred), (0, 0), "unsaturated frozen fleet");
        assert!(
            out.latency_over_time.len() <= LATENCY_RESERVOIR_CAP,
            "fleet reservoir exceeded its cap"
        );
        assert!(
            max_func_samples <= LATENCY_RESERVOIR_CAP,
            "a per-function histogram exceeded its cap"
        );
        assert!(
            hosts().all(|h| h.host_usage.points().is_empty()),
            "streamed replays must not record usage series"
        );
    }
    PerfCell {
        name: spec.name.clone(),
        hosts: out.hosts.len(),
        duration_s: spec.params.duration_s,
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

/// Formats an optional peak RSS as a table cell.
fn rss_cell(mib: Option<f64>) -> String {
    mib.map_or_else(|| "n/a".to_string(), |m| format!("{m:.0}"))
}

/// Renders the perf summary. Wall-time figures vary by machine, so
/// this section is excluded from the digest-stable `repro all` report.
pub fn render(c: &PerfCell) -> String {
    let mut t = TextTable::new(&[
        "Hosts",
        "Sim(s)",
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
        format!("{}", c.duration_s),
        format!("{}", c.invocations),
        format!("{}", c.completed),
        format!("{}", c.events),
        format!("{}", c.peak_depth),
        format!("{}", c.reservoir_len),
        format!("{}", c.max_func_samples),
        rss_cell(c.peak_rss_mib),
        format!("{:.2}", c.setup_s),
        format!("{:.2}", c.run_s),
        format!("{:.0}", c.events_per_sec),
        format!("{:.0}", c.invocations_per_sec),
    ]);
    let mut out = format!("Perf: {} timed single-core, single-thread\n", c.name);
    out.push_str(&t.render());
    out.push_str(&format!(
        "Invocations/s compares across engine changes; Events/s counts what the \
         engine pops. The simulation outcome is deterministic, only wall time \
         varies by machine. A streamed replay holds Reservoir and MaxFunc at or \
         under {LATENCY_RESERVOIR_CAP} samples however long the trace.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed cluster spec at test scale: 2 hosts at 2
    /// requests/s each, 2 tenants, 30 s.
    fn tiny() -> Scenario {
        let mut s = load(CLUSTER_SPEC, false).expect("committed spec loads");
        s.topology = Topology::Cluster(2);
        s.params.tenants = 2;
        s.params.rps = 4.0;
        s.params.duration_s = 30.0;
        s
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

    #[test]
    fn quick_keeps_the_per_host_rate() {
        let full = load(CLUSTER_SPEC, false).expect("loads");
        let quick = load(CLUSTER_SPEC, true).expect("loads");
        assert_eq!(full.topology, Topology::Cluster(1000));
        assert_eq!(quick.topology, Topology::Cluster(QUICK_HOSTS));
        assert_eq!(full.params.rps / 1000.0, quick.params.rps / 32.0);
        assert_eq!(quick.params.duration_s, full.params.duration_s);
        let trace = load(TRACE_SPEC, true).expect("loads");
        assert_eq!(trace.params.duration_s, QUICK_TRACE_S);
        assert_eq!(trace.max_hosts, 4);
    }

    /// The committed replay at test scale: its first 20 minutes on 2
    /// hosts.
    fn tiny_trace() -> Scenario {
        let mut s = load(TRACE_SPEC, false).expect("committed spec loads");
        s.params.duration_s = 20.0 * 60.0;
        s.min_hosts = 2;
        s.max_hosts = 2;
        s
    }

    #[test]
    fn trace_replay_is_bounded_and_deterministic() {
        let a = run(&tiny_trace());
        let b = run(&tiny_trace());
        assert!(a.invocations > 0);
        assert_eq!(a.completed, a.invocations, "unsaturated fleet serves all");
        assert_eq!(a.invocations, b.invocations);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_depth, b.peak_depth);
        assert_eq!(a.reservoir_len, b.reservoir_len);
    }

    /// The reservoir-bound audit at full scale: the committed 3-day
    /// replay expanding to 2M+ invocations, every tracked-sample
    /// accumulator still under its cap and the queue high-water mark
    /// independent of trace length. The `run` asserts do the
    /// enforcement; this test supplies the scale.
    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy simulation; enable with --features slow-tests"
    )]
    fn full_scale_trace_replay_stays_bounded() {
        let cell = run(&load(TRACE_SPEC, false).expect("committed spec loads"));
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
