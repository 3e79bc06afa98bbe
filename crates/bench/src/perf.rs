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
//! The spec runs single-threaded at trial 0, built and booted through
//! the same [`Scenario::fleet_plan`] and [`Scenario::boot`] calls every
//! scenario run makes, once or (`repro perf --runs N`) N times, each on
//! a freshly booted fleet; the rates reported are medians, with their
//! quartiles. Only the wall time varies by machine: the outcome
//! (completions, events, peak queue depth, result digest) is
//! byte-stable, and [`run`] asserts it repeats in every run.
//! Events/sec counts what the engine pops, which depends on how it
//! schedules (a re-armed CPU timer is one event, not one per
//! prediction), so only invocations/sec compares across engine changes.

use std::path::Path;
use std::time::Instant;

use faas::{Scenario, Topology, WorkloadSpec, LATENCY_RESERVOIR_CAP};
use sim_core::{Fnv1a, Histogram, TextTable};

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

/// A spec timed over one or more runs.
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
    /// Process peak RSS (`VmHWM`) in MiB at the end of the first run,
    /// where the platform exposes it. Later runs reuse a heap the first
    /// one fragmented, so a high-water mark over all of them would read
    /// higher than any one run needs (456 against 256 MiB over three
    /// full-tier runs).
    pub peak_rss_mib: Option<f64>,
    /// Runs timed; the wall times and rates below are medians over them.
    pub runs: usize,
    /// Wall time to boot the hosts (not part of the throughput figure).
    pub setup_s: f64,
    /// Wall time of the event loop + result assembly.
    pub run_s: f64,
    /// `events / run_s`.
    pub events_per_sec: f64,
    /// `invocations / run_s`, comparable across engine changes.
    pub invocations_per_sec: f64,
    /// Lower and upper quartiles of `events_per_sec` over the runs.
    pub events_per_sec_iqr: (f64, f64),
    /// Lower and upper quartiles of `invocations_per_sec` over the runs.
    pub invocations_per_sec_iqr: (f64, f64),
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs trial 0 of `spec` on its first backend `runs` times, each on a
/// freshly booted fleet, and reports the medians and quartiles. In each
/// run the boot (and the trace open) is the set-up, the event loop and
/// result assembly the run. The fleet plan is built, and a named
/// workload's arrivals generated, before the clock starts. A
/// `trace(<path>)` workload must stay bounded: capped reservoirs, no
/// time series, nothing lost or deferred.
///
/// # Panics
///
/// Panics if `runs` is 0, the hosts do not boot, the trace does not
/// open, a streamed run breaks its bounds, or two runs simulate
/// different outcomes.
pub fn run(spec: &Scenario, runs: usize) -> PerfCell {
    assert!(runs >= 1, "perf needs at least one run");
    let cells: Vec<(PerfCell, u64)> = (0..runs).map(|_| run_once(spec)).collect();
    let outcome = |(c, digest): &(PerfCell, u64)| {
        let counts = (c.invocations, c.completed, c.events, c.peak_depth);
        (counts, c.reservoir_len, c.max_func_samples, *digest)
    };
    for (i, cell) in cells.iter().enumerate().skip(1) {
        assert_eq!(
            outcome(cell),
            outcome(&cells[0]),
            "{}: run {i} simulated a different outcome than run 0",
            spec.name
        );
    }
    let quartiles = |f: fn(&PerfCell) -> f64| {
        let mut h = Histogram::new();
        for (c, _) in &cells {
            h.record(f(c));
        }
        (h.quantile(0.25), h.p50(), h.quantile(0.75))
    };
    let (events_q1, events_per_sec, events_q3) = quartiles(|c| c.events_per_sec);
    let (inv_q1, invocations_per_sec, inv_q3) = quartiles(|c| c.invocations_per_sec);
    let first = &cells[0].0;
    PerfCell {
        runs,
        setup_s: quartiles(|c| c.setup_s).1,
        run_s: quartiles(|c| c.run_s).1,
        events_per_sec,
        invocations_per_sec,
        events_per_sec_iqr: (events_q1, events_q3),
        invocations_per_sec_iqr: (inv_q1, inv_q3),
        name: first.name.clone(),
        ..*first
    }
}

/// One timed run on a freshly booted fleet, with a digest of what it
/// simulated.
fn run_once(spec: &Scenario) -> (PerfCell, u64) {
    let plan = spec.fleet_plan(spec.backends[0], 0);
    let t0 = Instant::now();
    let sim = spec.boot(plan, 0).unwrap_or_else(|e| panic!("{e}"));
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    if let Some(e) = &out.trace_error {
        panic!("{e}");
    }
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
            hosts().all(|h| h.host_usage.is_empty()),
            "streamed replays must not record usage series"
        );
    }
    let mut digest = Fnv1a::new();
    for h in hosts() {
        digest.write_u64(h.digest());
    }
    for n in [out.injected, out.completed, out.lost, out.deferred] {
        digest.write_u64(n);
    }
    let cell = PerfCell {
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
        runs: 1,
        setup_s,
        run_s,
        events_per_sec: out.events_processed as f64 / run_s,
        invocations_per_sec: out.injected as f64 / run_s,
        events_per_sec_iqr: (0.0, 0.0),
        invocations_per_sec_iqr: (0.0, 0.0),
    };
    (cell, digest.finish())
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
    if c.runs > 1 {
        let (e1, e3) = c.events_per_sec_iqr;
        let (i1, i3) = c.invocations_per_sec_iqr;
        out.push_str(&format!(
            "Setup, Run and the rates are medians of {} runs, each on a freshly booted \
             fleet, with an identical outcome; quartiles: Events/s {e1:.0}–{e3:.0}, \
             Invocations/s {i1:.0}–{i3:.0}.\n",
            c.runs
        ));
    }
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
        let cell = run(&tiny(), 1);
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
        let a = run(&tiny(), 1);
        // `run` asserts the three runs simulate one outcome.
        let b = run(&tiny(), 3);
        assert_eq!(a.invocations, b.invocations);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peak_depth, b.peak_depth);
        assert_eq!(b.runs, 3);
        let (q1, q3) = b.invocations_per_sec_iqr;
        assert!(q1 <= b.invocations_per_sec && b.invocations_per_sec <= q3);
        let (q1, q3) = b.events_per_sec_iqr;
        assert!(q1 <= b.events_per_sec && b.events_per_sec <= q3);
        assert!(render(&b).contains("medians of 3 runs"));
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
        let a = run(&tiny_trace(), 1);
        let b = run(&tiny_trace(), 1);
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
        let cell = run(&load(TRACE_SPEC, false).expect("committed spec loads"), 1);
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
