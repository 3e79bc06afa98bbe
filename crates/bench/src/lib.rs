//! The benchmark harness: one module per table/figure of the paper.
//!
//! Every module exposes a `Config` with `paper()` (full scale) and
//! `quick()` (CI scale) presets, one `run(cfg, opts)` driver that runs
//! its sweep through `sim_core::run_experiment` and returns structured
//! results, and a `render()` that prints the same rows/series the paper
//! reports. The `repro` binary regenerates everything:
//!
//! ```text
//! cargo run --release -p squeezy-bench --bin repro -- all
//! ```
//!
//! The multi-host grids beyond the paper (routing × backend on a
//! cluster, autoscale policy × backend on a fleet) are not modules:
//! they are the committed sweep specs
//! `examples/scenarios/{cluster,fleet}_grid.scn`, which `repro all`
//! and `repro run` execute through `faas::SweepSpec::run`.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fpr;
pub mod hybrid;
pub mod perf;
pub mod setup;
pub mod soft;
pub mod table1;
pub mod temporal;
pub mod thp;
