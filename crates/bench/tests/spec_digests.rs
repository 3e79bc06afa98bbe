//! Pins the outcome of every committed spec at quick scale: each
//! `examples/scenarios/*.scn` is parsed, scaled with `quick()` as
//! `repro run <spec> --quick` does, run through `SweepSpec::run`, and
//! its `GridOutcome::digest` must equal the pinned value. A refactor of
//! the scenario layer or the engine that changes one simulated byte of
//! a committed experiment fails here.
//!
//! The digest covers every cell's per-host results, routing, latency
//! reservoir and control-plane counters, and is independent of the
//! worker count. A spec that is slow in a debug build runs only under
//! the `slow-tests` feature.

use std::path::Path;

use faas::{SweepSpec, WorkloadSpec};
use sim_core::ExpOpts;

/// The repository root, anchored on the crate manifest so the specs
/// and the trace files they name resolve whatever the working
/// directory.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every committed spec's quick-scale grid digest, by file name.
const PINS: [(&str, u64); 11] = [
    ("churn_cluster.scn", 0xa3b58893fddb96eb),
    ("cluster_grid.scn", 0x64a164e248e01780),
    ("cluster_routing.scn", 0x4e9c4c89c93673e4),
    ("fleet_fixed_crashes.scn", 0x3d5652d3bfcfd28b),
    ("fleet_grid.scn", 0x7d2099620fe3db94),
    ("fleet_slam.scn", 0x7d24f1701f1cce2a),
    ("memhog_pressure.scn", 0x6985d0a56d6a805a),
    ("perf_cluster.scn", 0xbf2dafa0203c6eec),
    ("single_azure.scn", 0x4b4b97b988339cd9),
    ("sweep_policy_grid.scn", 0xc19404c5fb92f683),
    ("trace_replay.scn", 0x4546372d0a1b9778),
];

/// Specs too slow for a debug-build default run (1000 hosts).
const SLOW: [&str; 1] = ["perf_cluster.scn"];

/// Loads a committed spec at quick scale; a relative trace path inside
/// it resolves against the repository root, as `repro run` resolves it
/// against its working directory.
fn load(name: &str) -> SweepSpec {
    let root = Path::new(REPO_ROOT);
    let path = root.join("examples/scenarios").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    if let WorkloadSpec::Trace(trace) = &mut spec.base.workload {
        *trace = root.join(&*trace).display().to_string();
    }
    spec.quick()
}

/// Runs each named spec and reports every drifted digest at once.
fn assert_pins(names: &[&str]) {
    let opts = ExpOpts::auto().with_jobs(2);
    let drifted: Vec<String> = names
        .iter()
        .filter_map(|&name| {
            let want = PINS
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} has no pinned digest"))
                .1;
            let got = load(name)
                .run(&opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .digest();
            (got != want).then(|| format!("{name}: {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "committed spec output changed:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn every_committed_spec_is_pinned() {
    let dir = Path::new(REPO_ROOT).join("examples/scenarios");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("scenario directory lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".scn"))
        .collect();
    found.sort();
    let pinned: Vec<&str> = PINS.iter().map(|(n, _)| *n).collect();
    assert_eq!(found, pinned, "pin every committed spec, in name order");
}

#[test]
fn committed_specs_match_their_pinned_digests() {
    let names: Vec<&str> = PINS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !SLOW.contains(n))
        .collect();
    assert_pins(&names);
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "heavy simulation; enable with --features slow-tests"
)]
fn slow_committed_specs_match_their_pinned_digests() {
    assert_pins(&SLOW);
}
