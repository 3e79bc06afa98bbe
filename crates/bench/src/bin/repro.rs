//! Regenerates every table and figure of the paper as text output, and
//! runs declarative scenario specs.
//!
//! Usage:
//!
//! ```text
//! repro [all|table1|fig1|...|fig11|thp|soft|fpr|temporal|hybrid]
//!       [--quick] [--jobs N] [--trials N] [--json <path>]
//! repro perf [--trace] [--quick] [--runs N] [--json <path>]
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
//!   and its Student-t CI per metric; see `faas::scenario`).
//! * `repro perf` — time the committed
//!   `examples/scenarios/perf_cluster.scn` (1000 hosts; 32 at the same
//!   per-host rate with `--quick`); `--trace` times
//!   `examples/scenarios/trace_replay.scn` instead (3 days streamed
//!   lazily off disk; its first 4 hours with `--quick`), asserting every
//!   tracked-sample accumulator stays under its cap. `--runs N` times
//!   N runs, each on a freshly booted fleet, and reports the medians
//!   and quartiles (default: 1). See `squeezy_bench::perf`.
//! * `repro gen-trace` — (re)write the committed example traces under
//!   `examples/traces/` from their pinned generators, byte-identically.
//! * `repro scenarios` — list the scenario registry (workloads,
//!   topologies, backends, routers, policies, spec keys).
//! * `--jobs N` — shard each experiment grid over `N` worker threads,
//!   at most 256 (default and `0`: all cores). Output is byte-identical
//!   for every value of `N`; only wall time changes.
//! * `--trials N` — repeat stochastic experiments `N` times (1 to
//!   1000) on derived RNG streams and report trial means (default: 1).
//! * `--json <path>` — additionally write a machine-readable summary
//!   (per-section wall time + output digest) for bench-trajectory
//!   tracking and `--jobs` byte-identity checks.

use std::time::Instant;

use std::sync::{Arc, Mutex};

use faas::{compare_results, CompareReport, ExpectVerdict, GridOutcome, SweepSpec};
use sim_core::{fnv1a, run_experiment, ExpOpts};
use squeezy_bench as bench;

/// A report section of the paper or an ablation: its target key, its
/// title, and how to render it at quick or paper scale.
type PaperSection = (&'static str, &'static str, fn(bool, &ExpOpts) -> String);

/// The paper's tables and figures and the ablations, in report order.
/// `repro all` renders every one; `repro <key>` renders one.
const SECTIONS: [PaperSection; 15] = [
    ("table1", "Table 1", |_, _| bench::table1::render()),
    ("fig1", "Figure 1", |quick, opts| {
        use bench::fig1::*;
        let cfg = pick(quick, Fig1Config::quick, Fig1Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig2", "Figure 2", |quick, opts| {
        use bench::fig2::*;
        let cfg = pick(quick, Fig2Config::quick, Fig2Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig5", "Figure 5", |quick, opts| {
        use bench::fig5::*;
        let cfg = pick(quick, Fig5Config::quick, Fig5Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig6", "Figure 6", |quick, opts| {
        use bench::fig6::*;
        let cfg = pick(quick, Fig6Config::quick, Fig6Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig7", "Figure 7", |quick, opts| {
        use bench::fig7::*;
        let cfg = pick(quick, Fig7Config::quick, Fig7Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig8", "Figure 8", |quick, opts| {
        use bench::fig8::*;
        let cfg = pick(quick, Fig8Config::quick, Fig8Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig9", "Figure 9", |quick, opts| {
        use bench::fig9::*;
        let cfg = pick(quick, Fig9Config::quick, Fig9Config::paper);
        render(&run(&cfg, opts), &cfg)
    }),
    ("fig10", "Figure 10", |quick, opts| {
        use bench::fig10::*;
        let cfg = pick(quick, Fig10Config::quick, Fig10Config::paper);
        render(&run(&cfg, opts))
    }),
    ("fig11", "Figure 11", |_, opts| {
        bench::fig11::render(&bench::fig11::run(opts))
    }),
    ("thp", "Ablation: THP", |quick, opts| {
        use bench::thp::*;
        let cfg = pick(quick, ThpConfig::quick, ThpConfig::paper);
        render(&run(&cfg, opts))
    }),
    ("soft", "Ablation: soft memory", |_, opts| {
        bench::soft::render(&bench::soft::run(opts))
    }),
    ("fpr", "Ablation: free page reporting", |quick, opts| {
        use bench::fpr::*;
        let cfg = pick(quick, FprConfig::quick, FprConfig::paper);
        render(&run(&cfg, opts))
    }),
    ("temporal", "Ablation: temporal segregation", |_, opts| {
        bench::temporal::render(&bench::temporal::run(opts))
    }),
    ("hybrid", "Ablation: hybrid scaling", |quick, opts| {
        use bench::hybrid::*;
        let cfg = pick(quick, HybridConfig::quick, HybridConfig::paper);
        render(&cfg, &run(&cfg, opts))
    }),
];

/// The targets besides `all` that are not paper sections.
const COMMANDS: [&str; 4] = ["perf", "run", "gen-trace", "scenarios"];

/// A config preset: `quick()` at CI scale, `paper()` otherwise.
fn pick<C>(quick: bool, quick_cfg: fn() -> C, paper_cfg: fn() -> C) -> C {
    if quick {
        quick_cfg()
    } else {
        paper_cfg()
    }
}

/// Ceilings on `--jobs` and `--trials`, checked while parsing: every
/// worker is an OS thread and every `(point, trial)` cell a result
/// slot, so an unbounded value would ask for that many before any
/// experiment runs.
const MAX_JOBS: usize = 256;
const MAX_TRIALS: u32 = 1000;

struct Args {
    what: String,
    /// Spec files following the `run` target.
    files: Vec<String>,
    quick: bool,
    /// `perf --trace`: time the streamed replay spec instead of the
    /// drumbeat cluster spec.
    trace: bool,
    /// `perf --runs N`: timed runs, reported as medians and quartiles.
    runs: usize,
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
    let mut runs = None;
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
                let n: usize = v.parse().unwrap_or_else(|_| die("--jobs expects a number"));
                if n > MAX_JOBS {
                    die(&format!(
                        "--jobs must be at most {MAX_JOBS} (0 = all cores)"
                    ));
                }
                opts.jobs = n;
            }
            "--runs" => {
                let v = it.next().unwrap_or_else(|| die("--runs needs a value"));
                let n: usize = v.parse().unwrap_or_else(|_| die("--runs expects a number"));
                if n == 0 {
                    die("--runs must be at least 1");
                }
                runs = Some(n);
            }
            "--trials" => {
                let v = it.next().unwrap_or_else(|| die("--trials needs a value"));
                let t: u32 = v
                    .parse()
                    .unwrap_or_else(|_| die("--trials expects a number"));
                if !(1..=MAX_TRIALS).contains(&t) {
                    die(&format!("--trials must be between 1 and {MAX_TRIALS}"));
                }
                opts.trials = t;
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
                None => {
                    let valid: Vec<&str> = std::iter::once("all")
                        .chain(SECTIONS.iter().map(|s| s.0))
                        .chain(COMMANDS)
                        .collect();
                    // A typo'd target dies here, at parse time, with the
                    // full valid list — not after the run completes.
                    if !valid.contains(&positional) {
                        die(&format!(
                            "unknown target {positional:?} (valid targets: {})",
                            valid.join(", ")
                        ));
                    }
                    what = Some(positional.to_string());
                }
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
    if runs.is_some() && what != "perf" {
        die("--runs only applies to the perf target");
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
        runs: runs.unwrap_or(1),
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

    let mut report: Vec<(String, Renderer)> = SECTIONS
        .iter()
        .filter(|(key, _, _)| all || args.what == *key)
        .map(|&(_, title, render)| {
            let r: Renderer = Box::new(move || render(quick, &opts));
            (title.to_string(), r)
        })
        .collect();

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
    // Spec sections: the files of `run`, or the committed grids of `all`.
    for (i, (path, spec)) in specs.into_iter().enumerate() {
        let grids = grids.clone();
        report.push((
            path.clone(),
            Box::new(move || {
                let outcome = spec
                    .run(&opts)
                    .unwrap_or_else(|e| die(&format!("{path}: {e}")));
                let text = outcome.render();
                grids.lock().expect("grid lock")[i] = Some(outcome);
                text
            }),
        ));
    }
    // The perf target is wall-time-dependent by design (events/sec),
    // so it is NOT part of `all` — the `all` report stays byte-stable
    // across machines. The cell is captured for the JSON summary.
    let perf_cell: Arc<Mutex<Option<bench::perf::PerfCell>>> = Arc::new(Mutex::new(None));
    if args.what == "perf" {
        let rel = if args.trace {
            bench::perf::TRACE_SPEC
        } else {
            bench::perf::CLUSTER_SPEC
        };
        let spec = bench::perf::load(rel, quick).unwrap_or_else(|e| die(&e));
        let perf_cell = perf_cell.clone();
        let runs = args.runs;
        report.push((
            rel.to_string(),
            Box::new(move || {
                let cell = bench::perf::run(&spec, runs);
                let text = bench::perf::render(&cell);
                *perf_cell.lock().expect("perf cell lock") = Some(cell);
                text
            }),
        ));
    }

    let t0 = Instant::now();
    // The report itself is an experiment: each section is a sweep
    // point, so `--jobs` pipelines whole figures against each other (a
    // section with a serial phase, like Figure 10's abundant baseline,
    // no longer blocks the machine) while the ordered reduction prints
    // them in canonical order. The outer section level is capped at 4
    // workers: only one section (Figure 10) is long enough to need
    // overlap, and an uncapped outer level would multiply with each
    // section's inner workers into jobs^2 busy threads on big machines.
    let sections: Vec<Section> = run_experiment(
        &report,
        1,
        0,
        opts.effective_jobs().min(4),
        |(name, render), _ctx| {
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
        },
    )
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
        // CI reads the cluster tier's cell as `perf`, the replay's as
        // `perf_trace`.
        let perf_key = if args.trace { "perf_trace" } else { "perf" };
        let json = to_json(
            &sections,
            total_s,
            quick,
            &opts,
            perf.as_ref().map(|cell| (perf_key, cell)),
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
fn to_json(
    sections: &[Section],
    total_s: f64,
    quick: bool,
    opts: &ExpOpts,
    perf: Option<(&str, &bench::perf::PerfCell)>,
    verdicts: &[&ExpectVerdict],
    compare: Option<&CompareReport>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"suite\": \"squeezy-repro\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"jobs\": {},\n", opts.effective_jobs()));
    s.push_str(&format!("  \"trials\": {},\n", opts.trials));
    s.push_str(&format!("  \"total_wall_s\": {total_s:.3},\n"));
    if let Some((key, p)) = perf {
        s.push_str(&format!(
            "  \"{key}\": {{\"spec\": \"{}\", \"hosts\": {}, \"duration_s\": {}, \
             \"invocations\": {}, \"completed\": {}, \"events_processed\": {}, \
             \"peak_queue_depth\": {}, \"reservoir_len\": {}, \"max_func_samples\": {}, \
             \"peak_rss_mib\": {}, \"setup_wall_s\": {:.3}, \"run_wall_s\": {:.3}, \
             \"events_per_sec\": {:.0}, \"invocations_per_sec\": {:.0}, \"runs\": {}, \
             \"events_per_sec_q1\": {:.0}, \"events_per_sec_q3\": {:.0}, \
             \"invocations_per_sec_q1\": {:.0}, \"invocations_per_sec_q3\": {:.0}}},\n",
            json_escape(&p.name),
            p.hosts,
            json_f64(p.duration_s),
            p.invocations,
            p.completed,
            p.events,
            p.peak_depth,
            p.reservoir_len,
            p.max_func_samples,
            json_rss(p.peak_rss_mib),
            p.setup_s,
            p.run_s,
            p.events_per_sec,
            p.invocations_per_sec,
            p.runs,
            p.events_per_sec_iqr.0,
            p.events_per_sec_iqr.1,
            p.invocations_per_sec_iqr.0,
            p.invocations_per_sec_iqr.1
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
