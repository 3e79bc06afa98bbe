//! End-to-end grid runs: a sweep expands, runs byte-identically for
//! any job count, evaluates its `expect.*` gates per cell, and the
//! compare report is deterministic — the behavioral contract `repro
//! run` builds on. The committed cluster and fleet grids
//! (`examples/scenarios/{cluster,fleet}_grid.scn`) run here at test
//! scale: their axes and gates as committed, their base shrunk.

use faas::{
    compare_results, BackendKind, GridOutcome, PolicyKind, RouterKind, Scenario, ScenarioOutcome,
    SweepSpec, Topology,
};
use mem_types::GIB;
use sim_core::ExpOpts;
use workloads::WorkloadKind;

/// A grid small enough for the debug test tier: 2 backends × 2 hosts
/// × 2 keepalives = 8 cells of a short cluster trace.
fn grid_text() -> String {
    "name = grid-it\n\
     topology = cluster(2)\n\
     workload = zipf-cluster\n\
     backend = virtio-mem, squeezy\n\
     hosts = 2, 3\n\
     tenants = 2\n\
     duration_s = 30\n\
     rps = 1.5\n\
     keepalive_s = 10, 20\n\
     seed = 77\n"
        .to_string()
}

#[test]
fn grid_runs_byte_identically_for_any_job_count() {
    let spec = SweepSpec::parse(&grid_text()).expect("parses");
    let serial = spec.run(&ExpOpts::serial()).expect("runs");
    let parallel = spec.run(&ExpOpts::serial().with_jobs(5)).expect("runs");
    assert_eq!(serial.cells.len(), 8, "2 backends x 2 hosts x 2 keepalives");
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.digest(), parallel.digest());
}

#[test]
fn trials_flag_overrides_per_cell_trial_counts() {
    let spec = SweepSpec::parse(&grid_text()).expect("parses");
    let opts = ExpOpts::serial().with_jobs(2);
    let mut opts3 = opts;
    opts3.trials = 3;
    let out = spec.run(&opts3).expect("runs");
    for (name, result) in &out.cells {
        for (_, trials) in &result.cells {
            assert_eq!(trials.len(), 3, "{name}");
        }
    }
}

#[test]
fn gates_fail_the_grid_and_render_per_cell_verdicts() {
    let text = format!(
        "{}expect.completion_min = 99.9\nexpect.p99_ms_max = 0.001\n",
        grid_text()
    );
    let spec = SweepSpec::parse(&text).expect("parses");
    let out = spec.run(&ExpOpts::serial()).expect("runs");
    // Sub-microsecond p99 is impossible; full completion at this load
    // is expected — both verdict polarities appear, and any failure
    // fails the grid.
    assert_eq!(out.verdicts.len(), 16, "2 gates x 8 cells");
    assert!(out
        .verdicts
        .iter()
        .all(|v| v.kind.key() != "expect.p99_ms_max" || !v.pass));
    assert!(out.failed());
    let rendered = out.render();
    assert!(rendered.contains("FAIL"), "{rendered}");
    assert!(rendered.contains("expectations:"), "{rendered}");
}

#[test]
fn passing_gates_leave_the_grid_green() {
    let text = format!(
        "{}expect.completion_min = 10\nexpect.p99_ms_max = 1000000\n",
        grid_text()
    );
    let spec = SweepSpec::parse(&text).expect("parses");
    let out = spec.run(&ExpOpts::serial()).expect("runs");
    assert!(!out.failed(), "{}", out.render());
    assert!(out.verdicts.iter().all(|v| v.pass));
}

#[test]
fn compare_is_deterministic_and_marks_direction() {
    // Two scalar specs differing only in keepalive; paired seeds make
    // the diff meaningful, and two runs must render identically
    // (Welch's test and its interval are closed-form over the seeded
    // trials).
    let mut a = Scenario::new("a", faas::Topology::Cluster(2), WorkloadKind::ZipfCluster);
    a.params.tenants = 2;
    a.params.duration_s = 30.0;
    a.params.rps = 1.5;
    a.trials = 3;
    a.seed = 77;
    let mut b = a.clone();
    b.name = "b".to_string();
    b.keepalive_s = 1.0;
    let opts = ExpOpts::serial();
    let run = |s: Scenario| {
        let spec = SweepSpec::new(s, Vec::new(), Vec::new()).expect("valid spec");
        let mut grid = spec.run(&opts).expect("runs");
        grid.cells.remove(0).1
    };
    let ra = run(a);
    let rb = run(b);
    let r1 = compare_results("a", &ra, "b", &rb).render();
    let r2 = compare_results("a", &ra, "b", &rb).render();
    assert_eq!(r1, r2, "compare is deterministic");
    assert!(r1.contains("p99_ms"), "{r1}");
    let self_cmp = compare_results("a", &ra, "a", &ra);
    for (_, diffs) in &self_cmp.rows {
        for d in diffs {
            assert_eq!(d.diff(), 0.0, "self-compare has zero deltas");
            assert!(!d.significant(), "self-compare is never significant");
        }
    }
}

/// Parses a committed grid spec from `examples/scenarios/`.
fn committed_grid(file: &str) -> SweepSpec {
    let path = format!(
        "{}/../../examples/scenarios/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed cluster grid on a test-sized base: two hosts, two
/// tenants, 40 simulated seconds.
fn tiny_cluster_grid() -> SweepSpec {
    let spec = committed_grid("cluster_grid.scn");
    let mut base = spec.base;
    base.topology = Topology::Cluster(2);
    base.params.tenants = 2;
    base.params.duration_s = 40.0;
    base.params.rps = 1.5;
    base.host_capacity = 5 * GIB;
    base.concurrency = 2;
    base.keepalive_s = 15.0;
    SweepSpec::new(base, spec.axes, spec.expect).expect("valid grid")
}

/// The committed fleet grid on a test-sized base: one 60 s diurnal
/// cycle over at most three hosts, crashes every ~45 s.
fn tiny_fleet_grid() -> SweepSpec {
    let spec = committed_grid("fleet_grid.scn");
    let mut base = spec.base;
    base.params.tenants = 3;
    base.params.duration_s = 60.0;
    base.params.trough_rps = 0.5;
    base.params.rps = 3.5;
    base.params.period_s = 60.0;
    base.host_capacity = 5 * GIB;
    base.concurrency = 2;
    base.keepalive_s = 12.0;
    base.max_hosts = 3;
    base.boot_delay_s = 8.0;
    base.cooldown_s = 6.0;
    base.mtbf_s = 45.0;
    SweepSpec::new(base, spec.axes, spec.expect).expect("valid grid")
}

/// Each grid cell's scenario and its single trial.
fn cell_outcomes(grid: &GridOutcome) -> Vec<(&Scenario, BackendKind, &ScenarioOutcome)> {
    grid.cells
        .iter()
        .map(|(_, result)| {
            let (backend, trials) = &result.cells[0];
            (&result.spec, *backend, &trials[0])
        })
        .collect()
}

#[test]
fn committed_grids_are_twelve_cell_specs_with_a_completion_gate() {
    for file in ["cluster_grid.scn", "fleet_grid.scn"] {
        let spec = committed_grid(file);
        assert_eq!(spec.cells().len(), 12, "{file}: 4 axis values x 3 backends");
        assert_eq!(SweepSpec::parse(&spec.render()), Ok(spec.clone()), "{file}");
        let gates: Vec<(&str, f64)> = spec
            .expect
            .iter()
            .map(|e| (e.kind.key(), e.limit))
            .collect();
        assert_eq!(gates, [("expect.completion_min", 95.0)], "{file}");
    }
}

#[test]
fn cluster_grid_serves_the_offered_load() {
    let grid = tiny_cluster_grid().run(&ExpOpts::serial()).expect("runs");
    let cells = cell_outcomes(&grid);
    assert_eq!(cells.len(), 12, "4 routers x 3 backends");
    for &(spec, backend, c) in &cells {
        let (offered, completed) = (c.offered as f64, c.completed as f64);
        assert!(offered > 0.0);
        assert!(
            completed >= offered * 0.95,
            "{}/{} served {}/{}",
            spec.router.key(),
            backend.name(),
            completed,
            offered
        );
        assert!(c.p99_ms >= c.p50_ms);
    }
    let cold = |r: RouterKind| {
        cells
            .iter()
            .find(|(spec, backend, _)| spec.router == r && *backend == BackendKind::Squeezy)
            .map(|(_, _, c)| c.cold_ratio())
            .expect("cell present")
    };
    assert!(
        cold(RouterKind::WarmAffinity) <= cold(RouterKind::RoundRobin) + 1e-9,
        "affinity {} ≤ round-robin {}",
        cold(RouterKind::WarmAffinity),
        cold(RouterKind::RoundRobin)
    );
}

#[test]
fn fleet_grid_serves_the_load_and_scales() {
    let spec = tiny_fleet_grid();
    let grid = spec.run(&ExpOpts::serial()).expect("runs");
    let cells = cell_outcomes(&grid);
    assert_eq!(cells.len(), 12, "4 policies x 3 backends");
    for &(cell, backend, c) in &cells {
        let stats = c.fleet.as_ref().expect("fleet outcomes carry stats");
        let (offered, completed, lost) = (c.offered as f64, c.completed as f64, stats.lost as f64);
        assert!(offered > 0.0);
        // A loose bound until the exact request ledger
        // (offered = completed + lost + unfinished) is checked.
        assert!(
            completed + lost >= offered * 0.8,
            "{}/{} accounted for {}+{} of {}",
            cell.policy.key(),
            backend.name(),
            completed,
            lost,
            offered
        );
        assert!(stats.host_hours > 0.0);
        assert!(stats.peak_active >= stats.min_active);
        if cell.policy == PolicyKind::Fixed {
            assert_eq!(stats.scale_ups + stats.scale_downs, 0, "fixed never scales");
        }
    }
    // Elastic sizing must undercut undegraded peak provisioning
    // (max_hosts for the whole run). The fixed baseline's *row* can
    // come in under that bound too, but only by losing crashed hosts
    // forever — degraded capacity, not efficiency — so the fair cost
    // yardstick is the full peak-provisioned burn.
    let peak_hours = spec.base.max_hosts as f64 * spec.base.params.duration_s / 3600.0;
    let slam_hours = cells
        .iter()
        .find(|(cell, backend, _)| {
            cell.policy == PolicyKind::SlamSlo && *backend == BackendKind::Squeezy
        })
        .and_then(|(_, _, c)| c.fleet.as_ref())
        .expect("cell present")
        .host_hours;
    assert!(
        slam_hours < peak_hours,
        "slam {slam_hours} < peak-provisioned {peak_hours}"
    );
}

#[test]
fn committed_grids_render_byte_identically_for_any_job_count() {
    for spec in [tiny_cluster_grid(), tiny_fleet_grid()] {
        let serial = spec.run(&ExpOpts::serial()).expect("runs");
        let parallel = spec.run(&ExpOpts::serial().with_jobs(4)).expect("runs");
        assert_eq!(serial.render(), parallel.render());
        assert!(!serial.failed(), "{}", serial.render());
    }
}
