//! Multi-axis sweep grids over the scenario spec format.
//!
//! Any scalar spec key can carry a *list* (`keepalive_s = 10, 30, 60`,
//! `router = least-loaded, power-of-two`) or a *numeric range*
//! (`hosts = 2..8 step 2x`, `tenants = 4..16 step 4`), and the virtual
//! `hosts` axis sweeps cluster size (cluster topology) or `max_hosts`
//! (fleet topology). A [`SweepSpec`] expands deterministically into
//! named cells — `name/backend=squeezy/policy=fixed/hosts=4` — each a
//! plain single-backend [`Scenario`], all sharing the base seed so
//! every cell sees identical tenant traces (paired comparison). The
//! whole grid runs through one [`run_experiment`] call, so output is
//! byte-identical for any `--jobs`, and `expect.*` gates are evaluated
//! per cell afterwards.
//!
//! `parse(render(s)) == s` holds for every valid sweep spec, exactly
//! like the scalar format — the roundtrip property test covers list
//! and range axes and `expect.*` lines too.

use sim_core::experiment::{run_experiment, ExpOpts};

use super::expect::{self, ExpectVerdict, Expectation};
use super::result::{render_table, TableRow};
use super::{compare, format, Scenario, ScenarioOutcome, ScenarioResult, Topology, WorkloadSpec};
use crate::config::BackendKind;

/// Keys that may carry a list or range axis: every scalar spec key
/// except the shape keys (`name`, `topology`, `workload`) and
/// `backend` (whose list form is the existing backend sweep, crossed
/// into the grid as the outermost dimension), plus the virtual
/// `hosts` axis. Canonical axis order is this array's order.
pub(crate) const SWEEPABLE: [&str; 21] = [
    "hosts",
    "tenants",
    "rps",
    "trough_rps",
    "period_s",
    "zipf_exponent",
    "burst_factor",
    "burst_duty",
    "duration_s",
    "concurrency",
    "keepalive_s",
    "host_capacity",
    "router",
    "policy",
    "min_hosts",
    "max_hosts",
    "boot_delay_s",
    "cooldown_s",
    "mtbf_s",
    "seed",
    "trials",
];

/// Hard ceiling on grid size — a typo'd range should fail fast, not
/// enqueue a million simulations.
pub const MAX_CELLS: usize = 512;

/// The values one axis sweeps: an explicit list or a numeric range.
#[derive(Clone, Debug, PartialEq)]
pub enum AxisValues {
    /// Comma-separated values, kept as the strings the key's parser
    /// will consume.
    List(Vec<String>),
    /// `start..end step N` (additive) or `start..end step Nx`
    /// (multiplicative), inclusive of `end` when the walk lands on it.
    Range {
        /// First value.
        start: u64,
        /// Inclusive upper bound.
        end: u64,
        /// Additive increment or multiplicative factor.
        step: u64,
        /// Whether `step` multiplies instead of adds.
        mult: bool,
    },
}

impl AxisValues {
    /// Canonical spec-file form (`a, b, c` / `lo..hi step N[x]`).
    pub fn render(&self) -> String {
        match self {
            AxisValues::List(vs) => vs.join(", "),
            AxisValues::Range {
                start,
                end,
                step,
                mult,
            } => format!("{start}..{end} step {step}{}", if *mult { "x" } else { "" }),
        }
    }

    /// The concrete value strings, in sweep order. Range walks are
    /// clamped at [`MAX_CELLS`] + 1 entries so a runaway range is
    /// caught by the grid-size check, never by memory.
    pub fn expanded(&self) -> Vec<String> {
        match self {
            AxisValues::List(vs) => vs.clone(),
            AxisValues::Range {
                start,
                end,
                step,
                mult,
            } => {
                let mut out = Vec::new();
                let mut v = *start;
                while v <= *end && out.len() <= MAX_CELLS {
                    out.push(format!("{v}"));
                    let next = if *mult {
                        v.checked_mul(*step)
                    } else {
                        v.checked_add(*step)
                    };
                    match next {
                        Some(n) => v = n,
                        None => break,
                    }
                }
                out
            }
        }
    }

    /// Structural checks (value shape, range direction/step). The
    /// key-aware checks live in [`SweepSpec::new`].
    fn validate(&self) -> Result<(), String> {
        match self {
            AxisValues::List(vs) => {
                if vs.is_empty() {
                    return Err("axis needs at least one value".to_string());
                }
                for (i, v) in vs.iter().enumerate() {
                    // Each value must survive the `a, b, c` render trip
                    // and must not be mistaken for a range on re-parse.
                    if v.is_empty()
                        || v.trim() != v
                        || v.contains(',')
                        || v.contains('\n')
                        || v.contains("..")
                    {
                        return Err(format!(
                            "axis value {v:?} must be a single trimmed token (no commas or `..`)"
                        ));
                    }
                    if vs[..i].contains(v) {
                        return Err(format!("axis value {v:?} listed twice"));
                    }
                }
                Ok(())
            }
            AxisValues::Range {
                start,
                end,
                step,
                mult,
            } => {
                if end < start {
                    return Err(format!("range end ({end}) must be ≥ start ({start})"));
                }
                if *mult {
                    if *start < 1 {
                        return Err("multiplicative range must start ≥ 1".to_string());
                    }
                    if *step < 2 {
                        return Err(format!("multiplicative step must be ≥ 2 (got {step}x)"));
                    }
                } else if *step < 1 {
                    return Err("range step must be ≥ 1".to_string());
                }
                Ok(())
            }
        }
    }
}

/// One sweep axis: a sweepable key and its values.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// The spec key being swept (must be in `SWEEPABLE`).
    pub key: String,
    /// The values it takes, one grid dimension.
    pub values: AxisValues,
}

/// A scenario plus its sweep axes and `expect.*` gates — what
/// [`SweepSpec::parse`] reads from a spec file. With no axes it
/// behaves exactly like the plain [`Scenario`] it wraps.
///
/// Invariant (maintained by [`SweepSpec::new`] / [`SweepSpec::parse`]):
/// `base` already carries each axis's first value, axes and gates are
/// in canonical order, and every cell validates.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The cell-0 scenario every cell is cloned from.
    pub base: Scenario,
    /// Grid axes in canonical (`SWEEPABLE`) order.
    pub axes: Vec<SweepAxis>,
    /// Behavioral gates, in [`expect::ExpectKind::ALL`] order.
    pub expect: Vec<Expectation>,
}

/// One expanded grid cell: its full name and the single-backend
/// scenario that runs it.
pub struct SweepCell {
    /// `base-name/backend=k/axis=value/...` (just the base name when
    /// the spec has no axes).
    pub name: String,
    /// The concrete scenario (named after the cell).
    pub scenario: Scenario,
}

/// Applies one axis value to a scenario: the virtual `hosts` key maps
/// to cluster size or fleet `max_hosts`; everything else is the plain
/// scalar key.
fn apply_axis(s: &mut Scenario, key: &str, value: &str) -> Result<(), String> {
    if key != "hosts" {
        return Scenario::apply_key(s, key, value);
    }
    let n: usize = format::parse_int(value)?;
    match s.topology {
        Topology::Cluster(_) => s.topology = Topology::Cluster(n),
        Topology::Fleet => s.max_hosts = n,
        Topology::SingleVm => {
            return Err("`hosts` needs a cluster(N) or fleet topology".to_string())
        }
    }
    Ok(())
}

/// Whether a raw spec value spells an axis (list or range) rather
/// than a scalar.
fn is_axis_value(v: &str) -> bool {
    v.contains(',') || v.contains("..")
}

/// Parses one axis value string into [`AxisValues`].
fn parse_axis_values(v: &str) -> Result<AxisValues, String> {
    if !v.contains(',') {
        if let Some((start, rest)) = v.split_once("..") {
            let (end, step) = match rest.split_once("step") {
                Some((e, s)) => (e.trim(), Some(s.trim())),
                None => (rest.trim(), None),
            };
            let start = format::parse_u64(start.trim())?;
            let end = format::parse_u64(end)?;
            let (step, mult) = match step {
                None => (1, false),
                Some(s) => match s.strip_suffix('x') {
                    Some(n) => (format::parse_u64(n.trim())?, true),
                    None => (format::parse_u64(s)?, false),
                },
            };
            return Ok(AxisValues::Range {
                start,
                end,
                step,
                mult,
            });
        }
    }
    let mut vals = Vec::new();
    for part in v.split(',') {
        let p = part.trim();
        if p.is_empty() {
            return Err(format!("empty value in list {v:?}"));
        }
        vals.push(p.to_string());
    }
    Ok(AxisValues::List(vals))
}

impl SweepSpec {
    /// Builds and canonicalizes a sweep spec: axes are ordered and
    /// checked, each axis's first value is applied to `base` (so the
    /// stored base *is* cell 0's scenario shape), gates are validated
    /// against the topology, and every expanded cell must validate.
    pub fn new(
        base: Scenario,
        axes: Vec<SweepAxis>,
        expect: Vec<Expectation>,
    ) -> Result<SweepSpec, String> {
        let mut errs: Vec<String> = Vec::new();
        for (i, a) in axes.iter().enumerate() {
            if !SWEEPABLE.contains(&a.key.as_str()) {
                errs.push(format!(
                    "`{}` is not a sweepable axis (axes: {})",
                    a.key,
                    SWEEPABLE.join(", ")
                ));
                continue;
            }
            if axes[..i].iter().any(|b| b.key == a.key) {
                errs.push(format!("axis `{}` listed twice", a.key));
            }
            if a.key != "hosts" && matches!(&a.values, AxisValues::List(vs) if vs.len() < 2) {
                errs.push(format!(
                    "axis `{}` needs ≥ 2 values (a single value is just the scalar key)",
                    a.key
                ));
            }
            if let Err(e) = a.values.validate() {
                errs.push(format!("axis `{}`: {e}", a.key));
            }
        }
        let has = |k: &str| axes.iter().any(|a| a.key == k);
        if has("hosts") && has("max_hosts") {
            errs.push("axis `hosts` conflicts with axis `max_hosts` (pick one)".to_string());
        }
        for e in expect::validate(&expect, &base) {
            errs.push(e);
        }
        if !errs.is_empty() {
            return Err(errs.join("\n"));
        }

        let mut axes = axes;
        axes.sort_by_key(|a| SWEEPABLE.iter().position(|&k| k == a.key.as_str()));
        let mut expect = expect;
        expect.sort_by_key(|e| {
            expect::ExpectKind::ALL
                .iter()
                .position(|&k| k == e.kind)
                .expect("every kind is in ALL")
        });
        let mut base = base;
        for a in &axes {
            let first = &a.values.expanded()[0];
            apply_axis(&mut base, &a.key, first)
                .map_err(|e| format!("axis `{}`: value {first:?}: {e}", a.key))?;
        }
        let spec = SweepSpec { base, axes, expect };
        for cell in spec.try_cells()? {
            cell.scenario.validate()?;
        }
        Ok(spec)
    }

    /// Parses a spec file that may carry axes and `expect.*` gates.
    /// Plain scalar specs parse to a spec with no axes — this is a
    /// strict superset of [`Scenario::parse`].
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let mut errs: Vec<String> = Vec::new();
        let pairs = format::scan_pairs(text, &mut errs);
        let mut scalars: Vec<(usize, &str, &str)> = Vec::new();
        let mut axes: Vec<SweepAxis> = Vec::new();
        let mut expect: Vec<Expectation> = Vec::new();
        for &(ln, k, v) in &pairs {
            if k.starts_with("expect.") {
                match Expectation::parse(k, v) {
                    Ok(e) => expect.push(e),
                    Err(e) => errs.push(format!("line {ln}: {k}: {e}")),
                }
            } else if k == "hosts" || (SWEEPABLE.contains(&k) && is_axis_value(v)) {
                match parse_axis_values(v) {
                    Ok(values) => axes.push(SweepAxis {
                        key: k.to_string(),
                        values,
                    }),
                    Err(e) => errs.push(format!("line {ln}: {k}: {e}")),
                }
            } else {
                scalars.push((ln, k, v));
            }
        }
        let base = format::build_scenario(&scalars, &mut errs);
        match base {
            Some(base) if errs.is_empty() => SweepSpec::new(base, axes, expect),
            _ => Err(errs.join("\n")),
        }
    }

    /// Canonical spec-file form: the base's render with axis keys in
    /// their multi-value form, `hosts` after `topology`, and `expect.*`
    /// lines before `seed`. `parse(render(s)) == s`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in self.base.render().lines() {
            let key = line.split(" = ").next().unwrap_or("");
            if key == "seed" {
                for e in &self.expect {
                    out.push_str(&format!("{} = {:?}\n", e.kind.key(), e.limit));
                }
            }
            match self.axes.iter().find(|a| a.key == key) {
                Some(a) => out.push_str(&format!("{key} = {}\n", a.values.render())),
                None => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            if key == "topology" {
                if let Some(a) = self.axes.iter().find(|a| a.key == "hosts") {
                    out.push_str(&format!("hosts = {}\n", a.values.render()));
                }
            }
        }
        out
    }

    /// The CI-scale variant: the base is capped like
    /// [`Scenario::quick`]; axes and gates are kept as declared.
    pub fn quick(&self) -> SweepSpec {
        SweepSpec {
            base: self.base.quick(),
            axes: self.axes.clone(),
            expect: self.expect.clone(),
        }
    }

    /// Expands the grid into named cells, backends outermost, then
    /// axes in canonical order (last axis fastest). Every cell keeps
    /// the base seed, so the whole grid is a paired comparison.
    ///
    /// # Panics
    ///
    /// Panics if the spec was mutated into an unexpandable state after
    /// construction — [`SweepSpec::new`] and [`SweepSpec::parse`]
    /// guarantee expansion succeeds.
    pub fn cells(&self) -> Vec<SweepCell> {
        self.try_cells().expect("constructed sweep specs expand")
    }

    fn try_cells(&self) -> Result<Vec<SweepCell>, String> {
        if self.axes.is_empty() {
            return Ok(vec![SweepCell {
                name: self.base.name.clone(),
                scenario: self.base.clone(),
            }]);
        }
        let expanded: Vec<(&str, Vec<String>)> = self
            .axes
            .iter()
            .map(|a| (a.key.as_str(), a.values.expanded()))
            .collect();
        let sizes: Vec<usize> = expanded.iter().map(|(_, v)| v.len()).collect();
        let per_backend = sizes
            .iter()
            .try_fold(1usize, |acc, &s| acc.checked_mul(s))
            .unwrap_or(usize::MAX);
        let total = per_backend.saturating_mul(self.base.backends.len().max(1));
        if total > MAX_CELLS {
            return Err(format!(
                "grid expands to {total} cells (max {MAX_CELLS}) — shrink an axis"
            ));
        }
        let mut cells = Vec::with_capacity(total);
        for &backend in &self.base.backends {
            for flat in 0..per_backend {
                let mut idx = vec![0usize; sizes.len()];
                let mut rem = flat;
                for d in (0..sizes.len()).rev() {
                    idx[d] = rem % sizes[d];
                    rem /= sizes[d];
                }
                let mut sc = self.base.clone();
                sc.backends = vec![backend];
                let mut name = format!("{}/backend={}", self.base.name, backend.key());
                for (d, (key, values)) in expanded.iter().enumerate() {
                    let v = &values[idx[d]];
                    apply_axis(&mut sc, key, v)
                        .map_err(|e| format!("axis `{key}`: value {v:?}: {e}"))?;
                    name.push_str(&format!("/{key}={v}"));
                }
                sc.name = name.clone();
                cells.push(SweepCell { name, scenario: sc });
            }
        }
        Ok(cells)
    }

    /// Runs the whole grid — every cell × backend × trial — through
    /// *one* experiment-engine call, so output is byte-identical for
    /// any `opts.jobs`, then evaluates the `expect.*` gates per cell.
    ///
    /// `opts.trials > 1` overrides every cell's own trial count.
    pub fn run(&self, opts: &ExpOpts) -> Result<GridOutcome, String> {
        let cells = self.try_cells()?;
        for c in &cells {
            c.scenario.validate()?;
        }
        let gate_errs = expect::validate(&self.expect, &self.base);
        if !gate_errs.is_empty() {
            return Err(gate_errs.join("\n"));
        }
        if let WorkloadSpec::Trace(path) = &self.base.workload {
            // Preflight the whole file (every row parsed, time order
            // checked) so a malformed trace fails here with a line
            // number instead of mid-simulation.
            workloads::validate_trace(path).map_err(|e| format!("trace {path}: {e}"))?;
        }
        let trials_of = |c: &SweepCell| {
            if opts.trials > 1 {
                opts.trials
            } else {
                c.scenario.trials
            }
        };
        // One flat unit per (cell, backend, trial): a single
        // experiment over the whole grid keeps the parallel/serial
        // byte-identity guarantee the engine already provides.
        let mut units: Vec<(usize, BackendKind, u64)> = Vec::new();
        for (ci, c) in cells.iter().enumerate() {
            for &b in &c.scenario.backends {
                for t in 0..u64::from(trials_of(c)) {
                    units.push((ci, b, t));
                }
            }
        }
        // The grid's trial dimension is flattened into the point, so
        // per-cell trial counts can differ: the engine runs one trial.
        let grouped = run_experiment(
            &units,
            1,
            self.base.seed,
            opts.effective_jobs(),
            |&(ci, backend, trial), _ctx| cells[ci].scenario.run_trial(backend, trial),
        );
        // The first failed unit in expansion order is the error, so it
        // does not depend on the job count.
        let mut flat = grouped
            .into_iter()
            .map(|mut per_point| per_point.pop().expect("one trial per unit"))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter();
        let mut results: Vec<(String, ScenarioResult)> = Vec::with_capacity(cells.len());
        for c in &cells {
            let trials_n = trials_of(c) as usize;
            let sr_cells: Vec<(BackendKind, Vec<ScenarioOutcome>)> = c
                .scenario
                .backends
                .iter()
                .map(|&b| {
                    (
                        b,
                        (0..trials_n)
                            .map(|_| flat.next().expect("unit count matches"))
                            .collect(),
                    )
                })
                .collect();
            results.push((
                c.name.clone(),
                ScenarioResult {
                    spec: c.scenario.clone(),
                    cells: sr_cells,
                },
            ));
        }
        let verdicts = expect::evaluate(&self.expect, &results);
        Ok(GridOutcome {
            spec: self.clone(),
            cells: results,
            verdicts,
        })
    }
}

/// Everything one grid run produced: per-cell results and gate
/// verdicts.
pub struct GridOutcome {
    /// The spec that ran.
    pub spec: SweepSpec,
    /// `(cell name, result)` in expansion order.
    pub cells: Vec<(String, ScenarioResult)>,
    /// One verdict per declared gate per cell column.
    pub verdicts: Vec<ExpectVerdict>,
}

impl GridOutcome {
    /// Whether any gate failed — `repro run` exits nonzero on this.
    pub fn failed(&self) -> bool {
        self.verdicts.iter().any(|v| !v.pass)
    }

    /// FNV-1a digest over every cell result, in expansion order.
    pub fn digest(&self) -> u64 {
        let mut h = sim_core::Fnv1a::new();
        for (name, result) in &self.cells {
            h.write(name.as_bytes());
            h.write_u64(result.digest());
        }
        h.finish()
    }

    /// Renders the grid summary (or, with no axes, the plain scenario
    /// table), the baseline-delta view, and the gate verdicts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.spec.axes.is_empty() {
            out.push_str(&self.cells[0].1.render());
        } else {
            let base = &self.spec.base;
            let axes: Vec<String> = self
                .spec
                .axes
                .iter()
                .map(|a| format!("{}={}", a.key, a.values.render()))
                .collect();
            let backends: Vec<&str> = base.backends.iter().map(|b| b.key()).collect();
            out.push_str(&format!(
                "Grid {:?}: {} cells — backend={} × {} ({} workload, seed {})\n",
                base.name,
                self.cells.len(),
                backends.join(","),
                axes.join(" × "),
                base.workload.key(),
                base.seed,
            ));
            let prefix = format!("{}/", base.name);
            let rows: Vec<TableRow> = self
                .cells
                .iter()
                .filter_map(|(name, result)| {
                    let (_, trials) = result.cells.first()?;
                    Some((
                        name.strip_prefix(&prefix).unwrap_or(name).to_string(),
                        result.spec.params.duration_s,
                        trials.as_slice(),
                    ))
                })
                .collect();
            out.push_str(&render_table("Cell", base.topology, &rows));
            if self.cells.len() > 1 {
                out.push_str(&compare::render_grid_baseline(&self.cells, &prefix));
            }
        }
        if !self.spec.expect.is_empty() {
            out.push_str(&expect::render_verdicts(&self.verdicts));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::RouterKind;
    use crate::fleet::PolicyKind;
    use workloads::WorkloadKind;

    fn fleet_grid_text() -> String {
        "name = grid\ntopology = fleet\nworkload = diurnal\nbackend = squeezy\n\
         policy = fixed, slam-slo\nhosts = 2..8 step 2x\nmin_hosts = 1\n\
         expect.p99_ms_max = 900\nexpect.completion_min = 50\n"
            .to_string()
    }

    #[test]
    fn ranges_expand_inclusively() {
        let mult = AxisValues::Range {
            start: 2,
            end: 8,
            step: 2,
            mult: true,
        };
        assert_eq!(mult.expanded(), ["2", "4", "8"]);
        let add = AxisValues::Range {
            start: 10,
            end: 31,
            step: 10,
            mult: false,
        };
        assert_eq!(
            add.expanded(),
            ["10", "20", "30"],
            "end is a bound, not a member"
        );
        assert_eq!(
            parse_axis_values("4..64 step 2x").unwrap(),
            AxisValues::Range {
                start: 4,
                end: 64,
                step: 2,
                mult: true
            }
        );
        assert_eq!(
            parse_axis_values("10..60 step 25").unwrap(),
            AxisValues::Range {
                start: 10,
                end: 60,
                step: 25,
                mult: false
            }
        );
        assert_eq!(
            parse_axis_values("10, 30, 60").unwrap(),
            AxisValues::List(vec!["10".into(), "30".into(), "60".into()])
        );
    }

    #[test]
    fn grid_expansion_pins_count_names_and_seeds() {
        let spec = SweepSpec::parse(&fleet_grid_text()).expect("parses");
        let cells = spec.cells();
        assert_eq!(cells.len(), 6, "2 policies × 3 host counts");
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        // hosts is canonically the first axis, last axis fastest.
        assert_eq!(
            names,
            [
                "grid/backend=squeezy/hosts=2/policy=fixed",
                "grid/backend=squeezy/hosts=2/policy=slam-slo",
                "grid/backend=squeezy/hosts=4/policy=fixed",
                "grid/backend=squeezy/hosts=4/policy=slam-slo",
                "grid/backend=squeezy/hosts=8/policy=fixed",
                "grid/backend=squeezy/hosts=8/policy=slam-slo",
            ]
        );
        for c in &cells {
            assert_eq!(c.scenario.seed, spec.base.seed, "paired comparison");
            assert_eq!(c.scenario.backends, [BackendKind::Squeezy]);
            assert_eq!(c.scenario.name, c.name);
        }
        assert_eq!(
            cells[4].scenario.max_hosts, 8,
            "hosts maps to fleet max_hosts"
        );
        assert_eq!(cells[1].scenario.policy, PolicyKind::SlamSlo);
        // The stored base is cell 0's shape.
        assert_eq!(spec.base.max_hosts, 2);
        assert_eq!(spec.base.policy, PolicyKind::Fixed);
    }

    #[test]
    fn hosts_axis_resizes_clusters() {
        let text = "name = c\ntopology = cluster(2)\nworkload = zipf-cluster\n\
                    hosts = 2, 4\nrouter = least-loaded\n";
        let spec = SweepSpec::parse(text).expect("parses");
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].scenario.topology, Topology::Cluster(4));
        let err =
            SweepSpec::parse("name = s\ntopology = single-vm\nworkload = memhog\nhosts = 2, 4\n")
                .unwrap_err();
        assert!(err.contains("cluster(N) or fleet"), "{err}");
    }

    #[test]
    fn sweep_render_parse_round_trips() {
        let spec = SweepSpec::parse(&fleet_grid_text()).expect("parses");
        let text = spec.render();
        let back = SweepSpec::parse(&text).expect("round-trip parses");
        assert_eq!(back, spec);
        // A plain scalar spec is the degenerate grid.
        let scalar = Scenario::new("plain", Topology::Fleet, WorkloadKind::Diurnal);
        let spec = SweepSpec::parse(&scalar.render()).expect("parses");
        assert!(spec.axes.is_empty() && spec.expect.is_empty());
        assert_eq!(spec.base, scalar);
        assert_eq!(spec.render(), scalar.render());
    }

    #[test]
    fn axis_lists_sweep_routers_and_floats() {
        let text = "name = r\ntopology = cluster(2)\nworkload = zipf-cluster\n\
                    router = least-loaded, power-of-two\nkeepalive_s = 10, 30\n";
        let spec = SweepSpec::parse(text).expect("parses");
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].scenario.router, RouterKind::LeastLoaded);
        assert_eq!(cells[3].scenario.router, RouterKind::PowerOfTwo);
        assert_eq!(
            cells[1].scenario.keepalive_s, 10.0,
            "router is the fast axis"
        );
        assert_eq!(cells[2].scenario.keepalive_s, 30.0);
        assert_eq!(
            cells[3].name, "r/backend=squeezy/keepalive_s=30/router=power-of-two",
            "axes order canonically by key, not by line order"
        );
    }

    #[test]
    fn sweep_errors_are_specific() {
        let base = "name = x\ntopology = fleet\nworkload = diurnal\n";
        let err = SweepSpec::parse(&format!("{base}rps = 4, 4\n")).unwrap_err();
        assert!(err.contains("listed twice"), "{err}");
        let err = SweepSpec::parse(&format!("{base}hosts = 8..2\n")).unwrap_err();
        assert!(err.contains("must be ≥ start"), "{err}");
        let err = SweepSpec::parse(&format!("{base}hosts = 2..8 step 1x\n")).unwrap_err();
        assert!(err.contains("≥ 2"), "{err}");
        let err = SweepSpec::parse(&format!("{base}router = ring, mesh\n")).unwrap_err();
        assert!(err.contains("unknown router"), "{err}");
        let err = SweepSpec::parse(&format!("{base}expect.p99_max = 5\n")).unwrap_err();
        assert!(err.contains("did you mean \"expect.p99_ms_max\""), "{err}");
        let err = SweepSpec::parse(&format!("{base}expect.p99_ms_max = -1\n")).unwrap_err();
        assert!(err.contains("≥ 0"), "{err}");
        let err = SweepSpec::parse(
            "name = x\ntopology = cluster(2)\nworkload = zipf-cluster\nexpect.slo_viol_max = 5\n",
        )
        .unwrap_err();
        assert!(err.contains("needs the fleet topology"), "{err}");
        let err = SweepSpec::parse(&format!("{base}seed = 1..100000\n")).unwrap_err();
        assert!(err.contains("shrink an axis"), "{err}");
        let err = SweepSpec::parse(&format!("{base}hosts = 2, 4\nmax_hosts = 2, 4\n")).unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
    }

    #[test]
    fn invalid_cells_fail_with_errors() {
        // hosts above the sanity bound is rejected per cell, up front.
        let err = SweepSpec::parse(
            "name = x\ntopology = fleet\nworkload = diurnal\nhosts = 2048..8192 step 2x\n",
        )
        .unwrap_err();
        assert!(err.contains("max_hosts must be ≤ 4096 (got 8192)"), "{err}");
        // Hosts too small to boot their VMs fail the run with an error
        // naming the key, not a panic.
        let spec = SweepSpec::parse(
            "name = tiny-hosts\ntopology = cluster(2)\nworkload = churn\n\
             host_capacity = 64MiB\nduration_s = 10\n",
        )
        .expect("parses");
        let err = spec
            .run(&ExpOpts::serial())
            .err()
            .expect("hosts cannot boot");
        assert!(err.contains("host_capacity = 64MiB"), "{err}");
        assert!(err.contains("out of memory"), "{err}");
    }

    #[test]
    fn quick_caps_the_base_and_keeps_the_grid() {
        let spec = SweepSpec::parse(&fleet_grid_text()).expect("parses");
        let quick = spec.quick();
        assert_eq!(quick.base.trials, 1);
        assert!(quick.base.params.duration_s <= 120.0);
        assert_eq!(quick.axes, spec.axes);
        assert_eq!(quick.expect, spec.expect);
    }
}
