//! Azure-like trace churn analysis (the Figure-2 motivation): how many
//! instances are created and evicted per minute for the most popular
//! functions.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use sim_core::ExpOpts;
use squeezy_bench::fig2::{run, Fig2Config};

fn main() {
    let cfg = Fig2Config::paper();
    let result = run(&cfg, &ExpOpts::serial());
    println!("{}", squeezy_bench::fig2::render(&result));
    let avg_per_min =
        (result.total_creations() + result.total_evictions()) as f64 / (cfg.duration_s / 60.0);
    println!(
        "average churn: {avg_per_min:.0} instance events/minute across {} functions — \
         memory must move between instances continuously",
        cfg.functions,
    );
}
