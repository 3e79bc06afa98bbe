//! Significance-aware comparison between scenario results.
//!
//! `repro run --compare a.scn b.scn` (and the within-grid baseline
//! table) answers "did B actually regress over A, or is that noise?"
//! with inference over per-trial samples instead of eyeballed means:
//! Welch's unequal-variance t-test per metric, a Student-t confidence
//! interval on the difference, and a seeded percentile bootstrap as
//! the distribution-free second opinion. Everything is deterministic
//! — the bootstrap resamples through a [`DetRng`] stream derived from
//! the baseline's seed — so compare tables are byte-identical across
//! runs and job counts. With single-trial runs there is no variance to
//! test against; the table still shows the deltas and says so.

use sim_core::metrics::mean;
use sim_core::stats::{bootstrap_diff_ci, welch, welch_ci, Welch};
use sim_core::{DetRng, TextTable};

use super::{ScenarioOutcome, ScenarioResult};
use crate::config::BackendKind;

/// Two-sided significance level of the `Verdict` column.
pub const ALPHA: f64 = 0.05;

/// Confidence of the reported intervals.
const CONF: f64 = 0.95;

/// Bootstrap resamples per metric.
const BOOT_ITERS: usize = 1000;

/// Derivation tag of the bootstrap resampling stream — outside every
/// simulation stream tag, so comparison never perturbs results.
const BOOT_STREAM: u64 = 0xB007;

/// Metrics compared per backend: name, higher-is-worse, per-trial
/// samples. Fleet metrics appear only when every trial carries them.
fn metric_samples(trials: &[ScenarioOutcome]) -> Vec<(&'static str, bool, Vec<f64>)> {
    let quantiles = |q: f64| -> Vec<f64> {
        trials
            .iter()
            .map(|t| t.merged_latency().quantile(q))
            .collect()
    };
    let mut out = vec![
        (
            "served",
            false,
            trials
                .iter()
                .map(|t| t.completed as f64)
                .collect::<Vec<f64>>(),
        ),
        ("p50_ms", true, quantiles(0.5)),
        ("p99_ms", true, quantiles(0.99)),
        (
            "cold_pct",
            true,
            trials.iter().map(|t| 100.0 * t.cold_ratio()).collect(),
        ),
        (
            "gib_s",
            true,
            trials.iter().map(|t| t.gib_seconds).collect(),
        ),
    ];
    if trials.iter().all(|t| t.fleet.is_some()) {
        let f = |get: fn(&super::FleetStats) -> f64| -> Vec<f64> {
            trials
                .iter()
                .map(|t| get(t.fleet.as_ref().expect("checked above")))
                .collect()
        };
        out.push(("slo_viol_pct", true, f(|s| 100.0 * s.slo_violation_rate())));
        out.push(("host_hours", true, f(|s| s.host_hours)));
        out.push(("lost", true, f(|s| s.lost as f64)));
    }
    out
}

/// One metric's A-vs-B difference with its inference.
pub struct MetricDiff {
    /// Metric name (`p99_ms`, `cold_pct`, ...).
    pub metric: &'static str,
    /// Whether an increase is a regression (false for `served`).
    pub higher_is_worse: bool,
    /// Trial mean on side A (the baseline).
    pub mean_a: f64,
    /// Trial mean on side B (the candidate).
    pub mean_b: f64,
    /// Welch's test over the per-trial samples; `None` below 2 trials
    /// a side.
    pub welch: Option<Welch>,
    /// 95% Student-t confidence interval of `mean_b - mean_a`.
    pub ci: Option<(f64, f64)>,
    /// 95% seeded percentile-bootstrap interval of the same difference.
    pub boot_ci: Option<(f64, f64)>,
}

impl MetricDiff {
    /// `mean_b - mean_a`.
    pub fn diff(&self) -> f64 {
        self.mean_b - self.mean_a
    }

    /// Relative difference in percent of the baseline mean (infinite
    /// when the baseline is zero and B is not).
    pub fn pct(&self) -> f64 {
        if self.mean_a == 0.0 && self.diff() == 0.0 {
            0.0
        } else {
            100.0 * self.diff() / self.mean_a.abs()
        }
    }

    /// Whether Welch's test rejects "no difference" at [`ALPHA`].
    pub fn significant(&self) -> bool {
        self.welch.map(|w| w.p < ALPHA).unwrap_or(false)
    }

    /// Table verdict: `regressed*` / `improved*` when significant,
    /// `~` when not, `n/a` when trials are too few to test.
    pub fn verdict(&self) -> &'static str {
        if !self.significant() {
            return if self.welch.is_none() { "n/a" } else { "~" };
        }
        if (self.diff() > 0.0) == self.higher_is_worse {
            "regressed*"
        } else {
            "improved*"
        }
    }
}

/// The full A-vs-B diff: one [`MetricDiff`] list per backend present
/// on both sides.
pub struct CompareReport {
    /// Baseline label (spec name or file).
    pub label_a: String,
    /// Candidate label.
    pub label_b: String,
    /// Trials per cell on side A.
    pub trials_a: usize,
    /// Trials per cell on side B.
    pub trials_b: usize,
    /// Per-backend metric diffs, in side A's backend order.
    pub rows: Vec<(BackendKind, Vec<MetricDiff>)>,
}

/// Diffs two metric-sample sets (positionally matched by name).
fn diff_samples(
    sa: &[(&'static str, bool, Vec<f64>)],
    sb: &[(&'static str, bool, Vec<f64>)],
    rng: &DetRng,
) -> Vec<MetricDiff> {
    let mut diffs = Vec::new();
    for (mi, &(name, higher_is_worse, ref xs)) in sa.iter().enumerate() {
        let Some((_, _, ys)) = sb.iter().find(|&&(n, _, _)| n == name) else {
            continue;
        };
        let w = welch(xs, ys);
        let ci = w.as_ref().map(|w| welch_ci(w, CONF));
        let boot_ci = if xs.len() >= 2 && ys.len() >= 2 {
            bootstrap_diff_ci(xs, ys, BOOT_ITERS, CONF, &mut rng.derive(mi as u64))
        } else {
            None
        };
        diffs.push(MetricDiff {
            metric: name,
            higher_is_worse,
            mean_a: mean(xs),
            mean_b: mean(ys),
            welch: w,
            ci,
            boot_ci,
        });
    }
    diffs
}

/// Compares two scenario results metric-by-metric, matching backends
/// by key (backends on only one side are skipped).
pub fn compare_results(
    label_a: &str,
    a: &ScenarioResult,
    label_b: &str,
    b: &ScenarioResult,
) -> CompareReport {
    let mut rows = Vec::new();
    for (bi, (backend, trials_a)) in a.cells.iter().enumerate() {
        let Some((_, trials_b)) = b.cells.iter().find(|(bk, _)| bk == backend) else {
            continue;
        };
        let rng = DetRng::new(a.spec.seed)
            .derive(BOOT_STREAM)
            .derive(bi as u64);
        let diffs = diff_samples(&metric_samples(trials_a), &metric_samples(trials_b), &rng);
        rows.push((*backend, diffs));
    }
    CompareReport {
        label_a: label_a.to_string(),
        label_b: label_b.to_string(),
        trials_a: a.cells.first().map(|(_, t)| t.len()).unwrap_or(0),
        trials_b: b.cells.first().map(|(_, t)| t.len()).unwrap_or(0),
        rows,
    }
}

fn fmt(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn fmt_pct(v: f64) -> String {
    if v.is_finite() {
        format!("{v:+.1}%")
    } else {
        "—".to_string()
    }
}

impl CompareReport {
    /// Renders the diff table with the significance column.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Compare: A = {} ({} trial(s)) vs B = {} ({} trial(s)), α = {ALPHA}\n",
            self.label_a, self.trials_a, self.label_b, self.trials_b,
        );
        if self.rows.is_empty() {
            out.push_str("no backend appears on both sides — nothing to compare\n");
            return out;
        }
        let mut table = TextTable::new(&[
            "Backend", "Metric", "A", "B", "Δ", "Δ%", "CI95(Δ)", "p", "Verdict",
        ]);
        for (backend, diffs) in &self.rows {
            for d in diffs {
                table.row(vec![
                    backend.key().to_string(),
                    d.metric.to_string(),
                    fmt(d.mean_a),
                    fmt(d.mean_b),
                    fmt(d.diff()),
                    fmt_pct(d.pct()),
                    d.ci.map(|(lo, hi)| format!("[{}, {}]", fmt(lo), fmt(hi)))
                        .unwrap_or_else(|| "—".to_string()),
                    d.welch
                        .map(|w| format!("{:.3}", w.p))
                        .unwrap_or_else(|| "—".to_string()),
                    d.verdict().to_string(),
                ]);
            }
        }
        out.push_str(&table.render());
        if self.trials_a < 2 || self.trials_b < 2 {
            out.push_str("significance needs ≥ 2 trials per side (rerun with --trials N)\n");
        }
        out
    }
}

/// Compact within-grid view: every cell's key metrics as percent
/// deltas against the first cell, `*`-marked when Welch says the
/// difference is significant at [`ALPHA`]. `prefix` is stripped from
/// cell labels for readability.
pub(crate) fn render_grid_baseline(cells: &[(String, ScenarioResult)], prefix: &str) -> String {
    let Some(((base_name, base), rest)) = cells.split_first() else {
        return String::new();
    };
    if rest.is_empty() || base.cells.is_empty() {
        return String::new();
    }
    let short = |name: &str| name.strip_prefix(prefix).unwrap_or(name).to_string();
    let base_samples = metric_samples(&base.cells[0].1);
    const SHOW: [&str; 4] = ["p99_ms", "cold_pct", "gib_s", "slo_viol_pct"];
    let shown: Vec<&str> = base_samples
        .iter()
        .map(|&(n, _, _)| n)
        .filter(|n| SHOW.contains(n))
        .collect();
    let mut header = vec!["Cell"];
    header.extend(&shown);
    let mut table = TextTable::new(&header);
    let rng = DetRng::new(base.spec.seed).derive(BOOT_STREAM);
    for (ci, (name, result)) in rest.iter().enumerate() {
        let Some((_, trials)) = result.cells.first() else {
            continue;
        };
        let diffs = diff_samples(
            &base_samples,
            &metric_samples(trials),
            &rng.derive(ci as u64),
        );
        let mut row = vec![short(name)];
        for n in &shown {
            row.push(match diffs.iter().find(|d| d.metric == *n) {
                Some(d) => format!(
                    "{}{}",
                    fmt_pct(d.pct()),
                    if d.significant() { "*" } else { "" }
                ),
                None => "—".to_string(),
            });
        }
        table.row(row);
    }
    format!(
        "Deltas vs baseline cell {:?} (Welch-significant at α = {ALPHA} marked *):\n{}",
        short(base_name),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(mean_a: f64, mean_b: f64, welch: Option<Welch>, higher_is_worse: bool) -> MetricDiff {
        MetricDiff {
            metric: "m",
            higher_is_worse,
            mean_a,
            mean_b,
            welch,
            ci: None,
            boot_ci: None,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_significance() {
        let sig = welch(&[1.0, 1.1, 0.9], &[5.0, 5.1, 4.9]);
        assert!(sig.unwrap().p < ALPHA, "fixture is significant");
        assert_eq!(diff(1.0, 5.0, sig, true).verdict(), "regressed*");
        assert_eq!(diff(1.0, 5.0, sig, false).verdict(), "improved*");
        let flat = welch(&[1.0, 2.0, 3.0], &[1.1, 2.1, 2.9]);
        assert_eq!(diff(2.0, 2.03, flat, true).verdict(), "~");
        assert_eq!(diff(1.0, 5.0, None, true).verdict(), "n/a");
    }

    #[test]
    fn pct_handles_zero_baselines() {
        assert_eq!(diff(0.0, 0.0, None, true).pct(), 0.0);
        assert!(diff(0.0, 3.0, None, true).pct().is_infinite());
        assert_eq!(diff(4.0, 5.0, None, true).pct(), 25.0);
    }
}
