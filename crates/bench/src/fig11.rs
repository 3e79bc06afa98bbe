//! Figure 11: the N:1 vs 1:1 model trade-offs — cold-start latency
//! breakdown (a) and per-instance host memory footprint (b).

use faas::{microvm_cold_start, n_to_one_cold_start, ColdStartBreakdown};
use sim_core::experiment::{run_experiment, ExpOpts};
use sim_core::metrics::mean;
use sim_core::{CostModel, TextTable};
use workloads::FunctionKind;

/// One function's comparison.
pub struct Fig11Row {
    /// Function under test.
    pub kind: FunctionKind,
    /// 1:1 microVM cold start.
    pub one_to_one: ColdStartBreakdown,
    /// N:1 (Squeezy) cold start.
    pub n_to_one: ColdStartBreakdown,
    /// 1:1 per-instance host footprint (bytes).
    pub one_footprint: u64,
    /// N:1 marginal per-instance host footprint (bytes).
    pub n_footprint: u64,
}

/// Runs both cold-start paths for every Table-1 function. The
/// cold-start model is deterministic, so it runs one trial.
pub fn run(opts: &ExpOpts) -> Vec<Fig11Row> {
    run_experiment(
        &FunctionKind::ALL,
        1,
        0,
        opts.effective_jobs(),
        |&kind, _ctx| {
            let cost = CostModel::default();
            let (one, one_fp) = microvm_cold_start(kind, &cost).expect("1:1 runs");
            let (n, n_fp) = n_to_one_cold_start(kind, &cost).expect("N:1 runs");
            Fig11Row {
                kind,
                one_to_one: one,
                n_to_one: n,
                one_footprint: one_fp,
                n_footprint: n_fp,
            }
        },
    )
    .into_iter()
    .map(|mut trials| trials.remove(0))
    .collect()
}

/// Renders both subfigures.
pub fn render(rows: &[Fig11Row]) -> String {
    let mut a = TextTable::new(&[
        "Function",
        "Model",
        "VMM(ms)",
        "Container(ms)",
        "FuncInit(ms)",
        "Exec(ms)",
        "Total(s)",
    ]);
    for r in rows {
        for (label, b) in [("1:1", &r.one_to_one), ("N:1", &r.n_to_one)] {
            a.row(vec![
                r.kind.name().to_string(),
                label.to_string(),
                format!("{:.0}", b.vmm_delay.as_millis_f64()),
                format!("{:.0}", b.container_init.as_millis_f64()),
                format!("{:.0}", b.function_init.as_millis_f64()),
                format!("{:.0}", b.function_exec.as_millis_f64()),
                format!("{:.2}", b.total().as_secs_f64()),
            ]);
        }
    }
    let mut b = TextTable::new(&["Function", "1:1 (MiB)", "N:1 (MiB)", "Ratio"]);
    for r in rows {
        b.row(vec![
            r.kind.name().to_string(),
            format!("{}", r.one_footprint >> 20),
            format!("{}", r.n_footprint >> 20),
            format!("{:.2}x", r.one_footprint as f64 / r.n_footprint as f64),
        ]);
    }

    let speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.one_to_one.total().as_nanos() as f64 / r.n_to_one.total().as_nanos() as f64)
        .collect();
    let mean_speedup = mean(&speedups);
    let max_speedup = speedups.iter().copied().fold(0.0, f64::max);
    let fp_ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.one_footprint as f64 / r.n_footprint as f64)
        .collect();
    let mean_fp = mean(&fp_ratios);
    let vmm_1to1 = mean(
        &rows
            .iter()
            .map(|r| r.one_to_one.vmm_fraction())
            .collect::<Vec<_>>(),
    );
    let vmm_n = mean(
        &rows
            .iter()
            .map(|r| r.n_to_one.vmm_fraction())
            .collect::<Vec<_>>(),
    );

    let mut out = String::from("Figure 11a: cold-start latency breakdown, 1:1 vs N:1\n");
    out.push_str(&a.render());
    out.push_str("\nFigure 11b: per-instance host memory footprint\n");
    out.push_str(&b.render());
    out.push_str(&format!(
        "\nN:1 cold start {mean_speedup:.2}x faster on average, up to {max_speedup:.2}x \
         (paper: 1.6x avg, up to 2.35x)\n\
         1:1 footprint {mean_fp:.2}x larger on average (paper: 2.53x)\n\
         VMM share of cold start: 1:1 {:.1}% (paper: 20.2%), N:1 {:.2}% (paper: 1.19%)\n",
        100.0 * vmm_1to1,
        100.0 * vmm_n,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_to_one_wins_on_both_axes() {
        let rows = run(&ExpOpts::serial());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.n_to_one.total() < r.one_to_one.total(),
                "{}: N:1 cold start faster",
                r.kind.name()
            );
            assert!(
                r.n_footprint < r.one_footprint,
                "{}: N:1 footprint smaller",
                r.kind.name()
            );
        }
    }

    #[test]
    fn average_ratios_near_paper() {
        let rows = run(&ExpOpts::serial());
        let mean_speedup: f64 = rows
            .iter()
            .map(|r| r.one_to_one.total().as_nanos() as f64 / r.n_to_one.total().as_nanos() as f64)
            .sum::<f64>()
            / rows.len() as f64;
        assert!(
            (1.2..2.6).contains(&mean_speedup),
            "cold-start speedup {mean_speedup:.2} (paper 1.6x)"
        );
        let mean_fp: f64 = rows
            .iter()
            .map(|r| r.one_footprint as f64 / r.n_footprint as f64)
            .sum::<f64>()
            / rows.len() as f64;
        assert!(
            (1.8..3.5).contains(&mean_fp),
            "footprint ratio {mean_fp:.2} (paper 2.53x)"
        );
    }

    #[test]
    fn render_contains_both_subfigures() {
        let s = render(&run(&ExpOpts::serial()));
        assert!(s.contains("Figure 11a"));
        assert!(s.contains("Figure 11b"));
        assert!(s.contains("paper: 2.53x"));
    }
}
