//! One measurement of one benchmark workload, printed as a single JSON
//! line for `run.py` to check and aggregate.
//!
//! ```text
//! perfbench run   <workload> --seed N [--tiny] [--traced]
//! perfbench setup <workload> --seed N [--tiny]
//! perfbench probe <workload> --seed N [--tiny] --depth D
//! ```
//!
//! `run` sets up and runs the workload once through the simulator's
//! public entry points (with `--traced`, through timing wrappers around
//! the router and trace source) and checks the outcome. `setup` only
//! sets up, for extra set-up samples. `probe` times isolated calls into
//! the layer crates with inputs shaped like the workload and the queue
//! depth `D` a run reached. Each invocation is a fresh process, so
//! peak RSS and allocator state belong to one workload only.

mod probe;
mod workload;

use std::process::ExitCode;

use workload::{Outcome, Tracing, Workload};

/// A flat JSON object: keys in insertion order, numbers at full
/// precision.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.0.push((key.to_string(), format!("{v:?}")));
    }

    fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.to_string(), v.to_string()));
    }

    fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), format!("{v:?}")));
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Peak (`VmHWM`) or current (`VmRSS`) resident set of this process.
pub fn rss_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("numeric kB value");
    kb / 1024.0
}

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    tiny: bool,
    traced: bool,
    depth: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let usage =
        "usage: perfbench run|setup|probe <workload> --seed N [--tiny] [--traced] [--depth D]";
    let cmd = it.next().ok_or(usage)?;
    if !["run", "setup", "probe"].contains(&cmd.as_str()) {
        return Err(usage.to_string());
    }
    let workload = Workload::from_key(&it.next().ok_or(usage)?)?;
    let mut args = Args {
        cmd,
        workload,
        seed: 0,
        tiny: false,
        traced: false,
        depth: 1,
    };
    let mut seeded = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                seeded = true;
            }
            "--depth" => {
                let v = it.next().ok_or("--depth needs a value")?;
                args.depth = v.parse().map_err(|_| format!("bad --depth {v:?}"))?;
            }
            "--tiny" => args.tiny = true,
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other:?}; {usage}")),
        }
    }
    if !seeded {
        return Err("--seed is required".to_string());
    }
    Ok(args)
}

/// Every check a run must pass; `Err` names the first that failed.
fn check(o: &Outcome) -> Result<(), String> {
    let ledger = [
        ("offered == injected", o.offered == o.injected),
        ("injected == routed", o.injected == o.routed),
        (
            "completed + lost <= injected",
            o.completed + o.lost <= o.injected,
        ),
        ("completed == offered", o.completed == o.offered),
        (
            "completions have latency samples",
            o.latency.seen() == o.completed,
        ),
    ];
    for (name, ok) in ledger {
        if !ok {
            return Err(format!(
                "ledger check failed: {name} (offered {}, injected {}, routed {}, completed {}, lost {})",
                o.offered, o.injected, o.routed, o.completed, o.lost
            ));
        }
    }
    // The p99 needs at least 10 retained samples beyond it.
    let beyond_p99 = o.latency.count() / 100;
    if beyond_p99 < 10 {
        return Err(format!(
            "p99 rests on {} samples ({beyond_p99} beyond it; need 10)",
            o.latency.count()
        ));
    }
    Ok(())
}

fn report_run(o: &mut Outcome, tracing: Option<&Tracing>) -> Json {
    let mut j = Json::default();
    j.int("hosts", o.hosts as u64);
    j.num("setup_s", o.setup_s);
    j.num("run_s", o.run_s);
    j.int("offered", o.offered);
    j.int("completed", o.completed);
    j.num("invocations_per_s", o.offered as f64 / o.run_s);
    j.num("peak_rss_mib", rss_mib("VmHWM:"));
    j.text("digest", &format!("{:016x}", o.digest));

    let gib = o.reclaims.bytes as f64 / mem_types::GIB as f64;
    let starts = (o.cold_starts + o.warm_starts).max(1) as f64;
    j.num("sim_p50_ms", o.latency.p50());
    j.num("sim_p99_ms", o.latency.p99());
    j.int("sim_latency_samples", o.latency.count() as u64);
    j.int("sim_latency_requests", o.latency.seen());
    j.int("sim_latency_capped", o.latency_capped as u64);
    j.num("sim_cold_start_pct", 100.0 * o.cold_starts as f64 / starts);
    j.num("sim_gib_s", o.gib_seconds);
    j.num(
        "sim_reclaim_ms_per_gib",
        if gib > 0.0 {
            o.reclaims.wall.as_millis_f64() / gib
        } else {
            0.0
        },
    );
    j.num(
        "sim_served_pct",
        100.0 * o.completed as f64 / o.offered as f64,
    );

    j.int("sim_core.events", o.events);
    j.int("sim_core.peak_queue_depth", o.peak_queue_depth as u64);
    j.int("faas.backend.reclaim_ops", o.reclaims.ops);
    j.num("faas.backend.reclaimed_gib", gib);
    j.int("faas.backend.reclaim_shortfalls", o.reclaims.shortfalls);
    j.int("faas.backend.pages_migrated", o.reclaims.pages_migrated);
    j.num(
        "virtio_mem.migrated_pages_per_gib",
        if gib > 0.0 {
            o.reclaims.pages_migrated as f64 / gib
        } else {
            0.0
        },
    );
    j.int("faas.cold_starts", o.cold_starts);
    j.num("faas.warm_hit_pct", 100.0 * o.warm_starts as f64 / starts);
    if let Some(t) = tracing {
        let wrapped_ns = t.router.ns() + t.source.ns();
        j.int("faas.router.calls", t.router.calls());
        j.num(
            "faas.router.route_ns",
            t.router.ns() as f64 / t.router.calls().max(1) as f64,
        );
        j.int("workloads.source_calls", t.source.calls());
        j.int("workloads.source_ns", t.source.ns());
        j.num("faas.engine.self_s", o.run_s - wrapped_ns as f64 * 1e-9);
    }
    j
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.scenario(args.seed, args.tiny);
    let json = match args.cmd.as_str() {
        "run" => {
            let tracing = args.traced.then(Tracing::default);
            let mut o = workload::run(workload::setup(&spec, tracing.as_ref()));
            if let Err(e) = check(&o) {
                eprintln!("perfbench: {} seed {}: {e}", args.workload.key(), args.seed);
                return ExitCode::FAILURE;
            }
            report_run(&mut o, tracing.as_ref())
        }
        "setup" => {
            let mut j = Json::default();
            j.num("setup_s", workload::setup(&spec, None).setup_s);
            j
        }
        _ => probe::run(args.workload, &spec, args.depth),
    };
    println!("{}", json.render());
    ExitCode::SUCCESS
}
