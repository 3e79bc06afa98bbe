//! End-to-end comparison under restricted host memory (the §6.2.2
//! scenario): scale-ups must wait for reclamation of evicted instances.
//!
//! ```text
//! cargo run --release --example memory_pressure
//! ```

use sim_core::ExpOpts;
use squeezy_bench::fig10::{run, Fig10Config};

fn main() {
    let out = run(&Fig10Config::quick(), &ExpOpts::serial());
    println!("{}", squeezy_bench::fig10::render(&out));
    println!(
        "abundant-memory peak: {:.2} GiB; restricted capacity: {:.2} GiB",
        out.abundant_peak_bytes / (1u64 << 30) as f64,
        out.abundant_peak_bytes * 0.7 / (1u64 << 30) as f64,
    );
}
