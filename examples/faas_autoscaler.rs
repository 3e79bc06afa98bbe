//! Drives the FaaS runtime through the declarative scenario front
//! door: the whole experiment — workload, topology, backend sweep,
//! duration, seed — is the spec string below, not hand-wired configs.
//! Edit the string (or load a `.scn` file with
//! `std::fs::read_to_string`) and re-run; no other code changes.
//!
//! ```text
//! cargo run --release --example faas_autoscaler
//! ```

use faas::SweepSpec;
use sim_core::ExpOpts;

const SPEC: &str = "\
# A bursty CNN-and-friends service on one N:1 VM, Squeezy against the
# static baseline under identical traces.
name = autoscaler-demo
topology = single-vm
backend = static, squeezy
workload = azure-trace
tenants = 1
rps = 2.5
duration_s = 240.0
concurrency = 10
keepalive_s = 30.0
host_capacity = 16GiB
seed = 7
";

fn main() {
    let spec = SweepSpec::parse(SPEC).expect("spec is valid");
    println!("spec (canonical render):\n\n{}", spec.render());

    // No sweep axes: the grid is the one scenario cell.
    let outcome = spec.run(&ExpOpts::auto()).expect("scenario runs");
    println!("{}", outcome.render());
    let (_, result) = &outcome.cells[0];

    // The unified result keeps per-cell detail: show what the
    // elasticity bought, backend by backend.
    for (backend, trials) in &result.cells {
        let out = &trials[0];
        println!(
            "{:<12} {:>4} served, {:>3} cold / {:>3} warm, {:>7.1} GiB*s, p99 {:>5.0} ms",
            backend.name(),
            out.completed,
            out.cold_starts,
            out.warm_starts,
            out.gib_seconds,
            out.p99_ms,
        );
    }
}
