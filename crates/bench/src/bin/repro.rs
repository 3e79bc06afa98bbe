//! Regenerates every table and figure of the paper as text output, and
//! runs declarative scenario specs.
//!
//! Usage:
//!
//! ```text
//! repro [all|table1|fig1|...|fig11|thp|soft|fpr|temporal|hybrid]
//!       [--quick] [--jobs N] [--trials N] [--json <path>]
//! repro perf [--trace] [--quick] [--json <path>]
//! repro run <spec.scn>... [--compare] [--quick] [--jobs N] [--trials N] [--json <path>]
//! repro gen-trace
//! repro scenarios
//! ```
//!
//! * `repro all` — every paper section, plus the committed cluster and
//!   fleet grids (`examples/scenarios/{cluster,fleet}_grid.scn`), run
//!   like `repro run` would.
//! * `repro run` — execute scenario spec files (`faas::SweepSpec`
//!   format; see `examples/scenarios/`) with one report section per
//!   spec. Specs are parsed and validated up front: a bad file fails
//!   before anything runs. A spec may sweep axes
//!   (`hosts = 4..64 step 2x`, `router = least-loaded, power-of-two`)
//!   into a grid of cells, and may declare `expect.*` gates
//!   (`expect.p99_ms_max = 250`) — any failed gate makes the whole run
//!   exit 1 after the per-cell verdict table prints.
//! * `repro run --compare a.scn b.scn` — run exactly two single-cell
//!   specs and append a significance-aware diff table (Welch's t-test
//!   plus a seeded bootstrap CI per metric; see `faas::scenario`).
//! * `repro perf --trace` — the streaming-replay benchmark: a frozen
//!   fleet pulls a multi-day azure-minute trace lazily off disk and the
//!   run asserts every tracked-sample accumulator stays under its cap.
//! * `repro gen-trace` — (re)write the committed example traces under
//!   `examples/traces/` from their pinned generators, byte-identically.
//! * `repro scenarios` — list the scenario registry (workloads,
//!   topologies, backends, routers, policies, spec keys).
//! * `--jobs N` — shard each experiment grid over `N` worker threads
//!   (default: all cores). Output is byte-identical for every value of
//!   `N`; only wall time changes.
//! * `--trials N` — repeat stochastic experiments `N` times on derived
//!   RNG streams and report trial means (default: 1).
//! * `--json <path>` — additionally write a machine-readable summary
//!   (per-section wall time + output digest) for bench-trajectory
//!   tracking and `--jobs` byte-identity checks.

use std::time::Instant;

use std::sync::{Arc, Mutex};

use faas::{compare_results, CompareReport, ExpectVerdict, GridOutcome, SweepSpec};
use sim_core::experiment::{run_experiment, Experiment, TrialCtx};
use sim_core::{fnv1a, ExpOpts};
use squeezy_bench as bench;

/// Every target the CLI accepts, in help order. Unknown targets are
/// rejected at parse time against this list.
const TARGETS: [&str; 20] = [
    "all",
    "table1",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "thp",
    "soft",
    "fpr",
    "temporal",
    "hybrid",
    "perf",
    "run",
    "gen-trace",
    "scenarios",
];

struct Args {
    what: String,
    /// Spec files following the `run` target.
    files: Vec<String>,
    quick: bool,
    /// `perf --trace`: run the streaming-replay benchmark instead of
    /// the drumbeat cluster.
    trace: bool,
    /// `run --compare`: diff exactly two single-cell specs with
    /// significance tests.
    compare: bool,
    opts: ExpOpts,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut what: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut quick = false;
    let mut trace = false;
    let mut compare = false;
    let mut opts = ExpOpts::auto();
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--compare" => compare = true,
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| die("--jobs needs a value"));
                opts.jobs = v.parse().unwrap_or_else(|_| die("--jobs expects a number"));
            }
            "--trials" => {
                let v = it.next().unwrap_or_else(|| die("--trials needs a value"));
                let t: u32 = v
                    .parse()
                    .unwrap_or_else(|_| die("--trials expects a number"));
                opts.trials = t.max(1);
            }
            "--json" => {
                json = Some(it.next().unwrap_or_else(|| die("--json needs a path")));
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            positional => match &what {
                // Extra positionals are spec files — but only the
                // `run` target takes them.
                Some(first) if first == "run" => files.push(positional.to_string()),
                Some(first) => die(&format!(
                    "multiple targets ({first:?} and {positional:?}); pass one"
                )),
                None if TARGETS.contains(&positional) => what = Some(positional.to_string()),
                // A typo'd target dies here, at parse time, with the
                // full valid list — not after the run completes.
                None => die(&format!(
                    "unknown target {positional:?} (valid targets: {})",
                    TARGETS.join(", ")
                )),
            },
        }
    }
    let what = what.unwrap_or_else(|| "all".to_string());
    if what == "run" && files.is_empty() {
        die("run needs at least one scenario spec file (see `repro scenarios`)");
    }
    if trace && what != "perf" {
        die("--trace only applies to the perf target");
    }
    if compare && what != "run" {
        die("--compare only applies to the run target");
    }
    if compare && files.len() != 2 {
        die("--compare needs exactly two scenario spec files (baseline, candidate)");
    }
    Args {
        what,
        files,
        quick,
        trace,
        compare,
        opts,
        json,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// One rendered section and its cost. The `fnv1a` digest over the
/// rendered text makes `--jobs` byte-identity checkable from the JSON
/// alone.
struct Section {
    name: String,
    wall_s: f64,
    bytes: usize,
    digest: u64,
    text: String,
}

/// A renderable section of the report.
type Renderer = Box<dyn Fn() -> String + Sync>;

/// The report itself is an experiment: each section is a sweep point,
/// so `--jobs` pipelines whole figures against each other (a section
/// with a serial phase, like Figure 10's abundant baseline, no longer
/// blocks the machine) while the ordered reduction prints them in
/// canonical order.
struct Report {
    sections: Vec<(String, Renderer)>,
}

impl Experiment for Report {
    type Point = usize;
    type Output = Section;

    fn points(&self) -> Vec<usize> {
        (0..self.sections.len()).collect()
    }

    fn run_trial(&self, &i: &usize, _ctx: &mut TrialCtx) -> Section {
        let (name, render) = &self.sections[i];
        let t = Instant::now();
        let text = render();
        // Progress goes to stderr in completion order; stdout stays
        // buffered and byte-identical in canonical order.
        eprintln!("[repro] {name} done in {:.1}s", t.elapsed().as_secs_f64());
        Section {
            name: name.clone(),
            wall_s: t.elapsed().as_secs_f64(),
            digest: fnv1a(&text),
            bytes: text.len(),
            text,
        }
    }
}

/// Loads, optionally quick-scales, and validates every spec file; any
/// bad file dies before the first simulation starts. Specs may be
/// plain scenarios or sweep grids — `SweepSpec::parse` is a strict
/// superset of the scalar format. Each entry is `(section name, path)`.
fn load_specs(files: &[(String, String)], quick: bool) -> Vec<(String, SweepSpec)> {
    files
        .iter()
        .map(|(name, path)| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            let spec = SweepSpec::parse(&text).unwrap_or_else(|e| die(&format!("{name}: {e}")));
            (name.clone(), if quick { spec.quick() } else { spec })
        })
        .collect()
}

/// The repository root, anchored on the crate manifest so committed
/// files resolve whatever the working directory.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The committed grid specs `repro all` runs, repo-relative: section
/// names stay the same wherever the repository is checked out.
const ALL_GRIDS: [&str; 2] = [
    "examples/scenarios/cluster_grid.scn",
    "examples/scenarios/fleet_grid.scn",
];

/// (Re)writes the committed example traces from their pinned in-crate
/// generators. Paths are anchored on the crate manifest, so this lands
/// in `examples/traces/` whatever the working directory; the output is
/// byte-deterministic and a bench test pins the committed files to it.
fn gen_traces() {
    let dir = format!("{REPO_ROOT}/examples/traces");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("creating {dir}: {e}")));
    let files = [
        ("azure_3day.csv", workloads::sample_azure_3day()),
        ("opendc_sample.csv", workloads::sample_opendc()),
    ];
    for (name, text) in files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, &text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!(
            "wrote {name} ({} bytes, fnv1a {:016x})",
            text.len(),
            fnv1a(&text)
        );
    }
}

fn main() {
    let args = parse_args();
    if args.what == "scenarios" {
        print!("{}", faas::scenario::registry_help());
        return;
    }
    if args.what == "gen-trace" {
        gen_traces();
        return;
    }
    let all = args.what == "all";
    let quick = args.quick;
    let opts = args.opts;

    let mut report = Report {
        sections: Vec::new(),
    };
    let mut add = |name: &str, enabled: bool, render: Renderer| {
        if enabled {
            report.sections.push((name.to_string(), render));
        }
    };

    let files: Vec<(String, String)> = if all {
        ALL_GRIDS
            .iter()
            .map(|rel| (rel.to_string(), format!("{REPO_ROOT}/{rel}")))
            .collect()
    } else {
        args.files.iter().map(|f| (f.clone(), f.clone())).collect()
    };
    let specs = load_specs(&files, quick);
    if args.compare {
        for (path, spec) in &specs {
            let cells = spec.cells().len();
            if cells != 1 {
                die(&format!(
                    "--compare needs single-cell specs; {path} expands to {cells} cells \
                     (drop the sweep axes)"
                ));
            }
        }
    }
    // Grid outcomes (per-cell results, gate verdicts) are captured out
    // of the render closures for the compare block, the JSON summary
    // and the gate exit code.
    let grids: Arc<Mutex<Vec<Option<GridOutcome>>>> =
        Arc::new(Mutex::new(specs.iter().map(|_| None).collect()));
    add(
        "Table 1",
        all || args.what == "table1",
        Box::new(bench::table1::render),
    );
    add(
        "Figure 1",
        all || args.what == "fig1",
        Box::new(move || {
            let cfg = if quick {
                bench::fig1::Fig1Config::quick()
            } else {
                bench::fig1::Fig1Config::paper()
            };
            bench::fig1::render(&bench::fig1::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 2",
        all || args.what == "fig2",
        Box::new(move || {
            let cfg = if quick {
                bench::fig2::Fig2Config::quick()
            } else {
                bench::fig2::Fig2Config::paper()
            };
            bench::fig2::render(&bench::fig2::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 5",
        all || args.what == "fig5",
        Box::new(move || {
            let cfg = if quick {
                bench::fig5::Fig5Config::quick()
            } else {
                bench::fig5::Fig5Config::paper()
            };
            bench::fig5::render(&bench::fig5::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 6",
        all || args.what == "fig6",
        Box::new(move || {
            let cfg = if quick {
                bench::fig6::Fig6Config::quick()
            } else {
                bench::fig6::Fig6Config::paper()
            };
            bench::fig6::render(&bench::fig6::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 7",
        all || args.what == "fig7",
        Box::new(move || {
            let cfg = if quick {
                bench::fig7::Fig7Config::quick()
            } else {
                bench::fig7::Fig7Config::paper()
            };
            bench::fig7::render(&bench::fig7::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 8",
        all || args.what == "fig8",
        Box::new(move || {
            let cfg = if quick {
                bench::fig8::Fig8Config::quick()
            } else {
                bench::fig8::Fig8Config::paper()
            };
            bench::fig8::render(&bench::fig8::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 9",
        all || args.what == "fig9",
        Box::new(move || {
            let cfg = if quick {
                bench::fig9::Fig9Config::quick()
            } else {
                bench::fig9::Fig9Config::paper()
            };
            bench::fig9::render(&bench::fig9::run_with(&cfg, &opts), &cfg)
        }),
    );
    add(
        "Figure 10",
        all || args.what == "fig10",
        Box::new(move || {
            let cfg = if quick {
                bench::fig10::Fig10Config::quick()
            } else {
                bench::fig10::Fig10Config::paper()
            };
            bench::fig10::render(&bench::fig10::run_with(&cfg, &opts))
        }),
    );
    add(
        "Figure 11",
        all || args.what == "fig11",
        Box::new(move || bench::fig11::render(&bench::fig11::run_with(&opts))),
    );
    add(
        "Ablation: THP",
        all || args.what == "thp",
        Box::new(move || {
            let cfg = if quick {
                bench::thp::ThpConfig::quick()
            } else {
                bench::thp::ThpConfig::paper()
            };
            bench::thp::render(&bench::thp::run_with(&cfg, &opts))
        }),
    );
    add(
        "Ablation: soft memory",
        all || args.what == "soft",
        Box::new(move || bench::soft::render(&bench::soft::run_with(&opts))),
    );
    add(
        "Ablation: free page reporting",
        all || args.what == "fpr",
        Box::new(move || {
            let cfg = if quick {
                bench::fpr::FprConfig::quick()
            } else {
                bench::fpr::FprConfig::paper()
            };
            bench::fpr::render(&bench::fpr::run_with(&cfg, &opts))
        }),
    );
    add(
        "Ablation: temporal segregation",
        all || args.what == "temporal",
        Box::new(move || bench::temporal::render(&bench::temporal::run_with(&opts))),
    );
    // Spec sections: the files of `run`, or the committed grids of `all`.
    for (i, (path, spec)) in specs.into_iter().enumerate() {
        let spec_opts = opts;
        let grids = grids.clone();
        add(
            &path.clone(),
            true,
            Box::new(move || {
                let outcome = spec
                    .run(&spec_opts)
                    .unwrap_or_else(|e| die(&format!("{path}: {e}")));
                let text = outcome.render();
                grids.lock().expect("grid lock")[i] = Some(outcome);
                text
            }),
        );
    }
    // The perf target is wall-time-dependent by design (events/sec),
    // so it is NOT part of `all` — the `all` report stays byte-stable
    // across machines. The cell is captured for the JSON summary.
    let perf_cell: std::sync::Arc<std::sync::Mutex<Option<bench::perf::PerfCell>>> =
        std::sync::Arc::new(std::sync::Mutex::new(None));
    {
        let perf_cell = perf_cell.clone();
        add(
            "Perf",
            args.what == "perf" && !args.trace,
            Box::new(move || {
                let cfg = if quick {
                    bench::perf::PerfConfig::quick()
                } else {
                    bench::perf::PerfConfig::paper()
                };
                let cell = bench::perf::run(&cfg);
                let text = bench::perf::render(&cell);
                *perf_cell.lock().expect("perf cell lock") = Some(cell);
                text
            }),
        );
    }
    // The streaming-replay variant (`perf --trace`): wall-time numbers
    // vary by machine like the drumbeat benchmark, and the cell lands
    // in the JSON summary the same way.
    let trace_cell: std::sync::Arc<std::sync::Mutex<Option<bench::perf::TracePerfCell>>> =
        std::sync::Arc::new(std::sync::Mutex::new(None));
    {
        let trace_cell = trace_cell.clone();
        add(
            "Perf (trace replay)",
            args.what == "perf" && args.trace,
            Box::new(move || {
                let cfg = if quick {
                    bench::perf::TracePerfConfig::quick()
                } else {
                    bench::perf::TracePerfConfig::paper()
                };
                let cell = bench::perf::run_trace(&cfg);
                let text = bench::perf::render_trace(&cell);
                *trace_cell.lock().expect("trace cell lock") = Some(cell);
                text
            }),
        );
    }
    add(
        "Ablation: hybrid scaling",
        all || args.what == "hybrid",
        Box::new(move || {
            let cfg = if quick {
                bench::hybrid::HybridConfig::quick()
            } else {
                bench::hybrid::HybridConfig::paper()
            };
            bench::hybrid::render(&cfg, &bench::hybrid::run_with(&cfg, &opts))
        }),
    );

    // Parse-time target validation means every valid invocation has
    // sections; this is a belt-and-braces guard for new targets wired
    // into TARGETS but not into the section list.
    if report.sections.is_empty() {
        die(&format!("target {:?} produced no sections", args.what));
    }

    let t0 = Instant::now();
    // The outer section level is capped at 4 workers: only one section
    // (Figure 10) is long enough to need overlap, and an uncapped outer
    // level would multiply with each section's inner workers into
    // jobs^2 busy threads on big machines.
    let sections: Vec<Section> = run_experiment(&report, opts.effective_jobs().min(4))
        .into_iter()
        .map(|mut trials| trials.remove(0))
        .collect();
    for sec in &sections {
        println!("{}", "=".repeat(72));
        println!("== {}", sec.name);
        println!("{}", "=".repeat(72));
        println!("{}", sec.text);
    }
    let grids: Vec<Option<GridOutcome>> = std::mem::take(&mut *grids.lock().expect("grid lock"));
    let compare = args.compare.then(|| {
        // Validated at parse time: exactly two single-cell specs, and
        // every run section stores its outcome before rendering.
        let a = grids[0].as_ref().expect("run section stored outcome");
        let b = grids[1].as_ref().expect("run section stored outcome");
        let report = compare_results(&args.files[0], &a.cells[0].1, &args.files[1], &b.cells[0].1);
        println!("{}", "=".repeat(72));
        println!("== Compare");
        println!("{}", "=".repeat(72));
        println!("{}", report.render());
        report
    });
    let total_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "[repro] done in {total_s:.1}s (jobs={}, trials={})",
        opts.effective_jobs(),
        opts.trials
    );

    let verdicts: Vec<&ExpectVerdict> = grids
        .iter()
        .flatten()
        .flat_map(|g| g.verdicts.iter())
        .collect();
    if let Some(path) = args.json {
        let perf = perf_cell.lock().expect("perf cell lock");
        let trace = trace_cell.lock().expect("trace cell lock");
        let json = to_json(
            &sections,
            total_s,
            quick,
            &opts,
            perf.as_ref(),
            trace.as_ref(),
            &verdicts,
            compare.as_ref(),
        );
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("[repro] wrote {path}");
    }
    // Behavioral gates make the process fail *after* the full report
    // and JSON land — exit 1 (distinct from usage errors' exit 2).
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    if failed > 0 {
        eprintln!("[repro] {failed} expectation gate(s) FAILED — see verdict table above");
        std::process::exit(1);
    }
}

/// Minimal JSON string escaping: section names are figure titles or
/// user-supplied spec paths, so quotes, backslashes and control bytes
/// must not corrupt the summary.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `null` for non-finite values — bare JSON numbers cannot spell NaN
/// or infinity.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats an optional peak RSS as a JSON value.
fn json_rss(mib: Option<f64>) -> String {
    mib.map_or_else(|| "null".to_string(), |m| format!("{m:.1}"))
}

/// Serializes the run summary (no external crates: the schema is flat
/// and the only free-form strings — section names, cell labels — are
/// escaped).
#[allow(clippy::too_many_arguments)]
fn to_json(
    sections: &[Section],
    total_s: f64,
    quick: bool,
    opts: &ExpOpts,
    perf: Option<&bench::perf::PerfCell>,
    perf_trace: Option<&bench::perf::TracePerfCell>,
    verdicts: &[&ExpectVerdict],
    compare: Option<&CompareReport>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"suite\": \"squeezy-repro\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"jobs\": {},\n", opts.effective_jobs()));
    s.push_str(&format!("  \"trials\": {},\n", opts.trials));
    s.push_str(&format!("  \"total_wall_s\": {total_s:.3},\n"));
    if let Some(p) = perf {
        s.push_str(&format!(
            "  \"perf\": {{\"hosts\": {}, \"invocations\": {}, \"completed\": {}, \
             \"events_processed\": {}, \"peak_queue_depth\": {}, \"peak_rss_mib\": {}, \
             \"setup_wall_s\": {:.3}, \"run_wall_s\": {:.3}, \"events_per_sec\": {:.0}}},\n",
            p.hosts,
            p.invocations,
            p.completed,
            p.events,
            p.peak_depth,
            json_rss(p.peak_rss_mib),
            p.setup_s,
            p.run_s,
            p.events_per_sec
        ));
    }
    if let Some(p) = perf_trace {
        s.push_str(&format!(
            "  \"perf_trace\": {{\"hosts\": {}, \"minutes\": {}, \"invocations\": {}, \
             \"completed\": {}, \"events_processed\": {}, \"peak_queue_depth\": {}, \
             \"reservoir_len\": {}, \"max_func_samples\": {}, \"peak_rss_mib\": {}, \
             \"setup_wall_s\": {:.3}, \"run_wall_s\": {:.3}, \"events_per_sec\": {:.0}}},\n",
            p.hosts,
            p.minutes,
            p.invocations,
            p.completed,
            p.events,
            p.peak_depth,
            p.reservoir_len,
            p.max_func_samples,
            json_rss(p.peak_rss_mib),
            p.setup_s,
            p.run_s,
            p.events_per_sec
        ));
    }
    if !verdicts.is_empty() {
        s.push_str("  \"expectations\": [\n");
        for (i, v) in verdicts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"cell\": \"{}\", \"gate\": \"{}\", \"limit\": {}, \"actual\": {}, \
                 \"pass\": {}}}{}\n",
                json_escape(&v.cell),
                v.kind.key(),
                json_f64(v.limit),
                json_f64(v.actual),
                v.pass,
                if i + 1 < verdicts.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
    }
    if let Some(c) = compare {
        s.push_str(&format!(
            "  \"compare\": {{\"a\": \"{}\", \"b\": \"{}\", \"alpha\": {}, \"rows\": [\n",
            json_escape(&c.label_a),
            json_escape(&c.label_b),
            faas::scenario::ALPHA
        ));
        let n: usize = c.rows.iter().map(|(_, diffs)| diffs.len()).sum();
        let mut i = 0;
        for (backend, diffs) in &c.rows {
            for d in diffs {
                i += 1;
                s.push_str(&format!(
                    "    {{\"backend\": \"{}\", \"metric\": \"{}\", \"mean_a\": {}, \
                     \"mean_b\": {}, \"diff\": {}, \"p\": {}, \"significant\": {}, \
                     \"verdict\": \"{}\"}}{}\n",
                    backend.key(),
                    d.metric,
                    json_f64(d.mean_a),
                    json_f64(d.mean_b),
                    json_f64(d.diff()),
                    d.welch
                        .map(|w| json_f64(w.p))
                        .unwrap_or_else(|| "null".to_string()),
                    d.significant(),
                    d.verdict(),
                    if i < n { "," } else { "" }
                ));
            }
        }
        s.push_str("  ]},\n");
    }
    s.push_str("  \"sections\": [\n");
    for (i, sec) in sections.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"bytes\": {}, \"fnv1a\": \"{:016x}\"}}{}\n",
            json_escape(&sec.name),
            sec.wall_s,
            sec.bytes,
            sec.digest,
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
