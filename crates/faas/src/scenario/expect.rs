//! Behavioral `expect.*` gates: per-cell assertions a spec file makes
//! about its own results.
//!
//! A spec line like `expect.p99_ms_max = 250` turns a scenario (or
//! every cell of a sweep grid) into a pass/fail check: the limit is
//! validated up front with the rest of the spec, the actual value is
//! the mean over the cell's trials, and `repro run` exits nonzero when
//! any cell fails — so CI gates on *behavior*, not just byte-identity.
//! Each gate is a registry entry ([`ExpectKind::ALL`]), so
//! `repro scenarios` help and the parser can never drift apart.

use sim_core::experiment::mean_over;
use sim_core::{registry, TextTable};

use super::{Scenario, ScenarioOutcome, ScenarioResult, Topology};

/// Every behavioral gate a spec may declare. All are ceilings
/// (`actual ≤ limit`) except [`ExpectKind::CompletionMin`], a floor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpectKind {
    /// Mean-over-trials p50 latency, milliseconds.
    P50Max,
    /// Mean-over-trials p99 latency, milliseconds.
    P99Max,
    /// Cold-start share of all starts, percent.
    ColdRateMax,
    /// Completed/offered, percent — a floor, not a ceiling.
    CompletionMin,
    /// Integrated memory footprint, GiB·s.
    GibSecondsMax,
    /// SLO-violation share of tracked completions, percent (fleet only).
    SloViolMax,
    /// Requests lost to crashes and unservable drops (fleet only).
    LostMax,
}

impl ExpectKind {
    /// Every gate, in canonical render order.
    pub const ALL: [ExpectKind; 7] = [
        ExpectKind::P50Max,
        ExpectKind::P99Max,
        ExpectKind::ColdRateMax,
        ExpectKind::CompletionMin,
        ExpectKind::GibSecondsMax,
        ExpectKind::SloViolMax,
        ExpectKind::LostMax,
    ];

    /// Spec key, `expect.` prefix included.
    pub fn key(self) -> &'static str {
        match self {
            ExpectKind::P50Max => "expect.p50_ms_max",
            ExpectKind::P99Max => "expect.p99_ms_max",
            ExpectKind::ColdRateMax => "expect.cold_rate_max",
            ExpectKind::CompletionMin => "expect.completion_min",
            ExpectKind::GibSecondsMax => "expect.gib_s_max",
            ExpectKind::SloViolMax => "expect.slo_viol_max",
            ExpectKind::LostMax => "expect.lost_max",
        }
    }

    /// Parses a gate key; `Err` lists every valid gate (with a
    /// did-you-mean hint on near misses).
    pub(crate) fn from_key(key: &str) -> Result<ExpectKind, String> {
        registry::lookup("expectation", &Self::ALL, Self::key, key)
    }

    /// One-line help text for `repro scenarios`.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            ExpectKind::P50Max => "mean-over-trials p50 latency ≤ limit (ms)",
            ExpectKind::P99Max => "mean-over-trials p99 latency ≤ limit (ms)",
            ExpectKind::ColdRateMax => "cold-start share ≤ limit (%)",
            ExpectKind::CompletionMin => "completed/offered ≥ limit (%)",
            ExpectKind::GibSecondsMax => "integrated memory footprint ≤ limit (GiB·s)",
            ExpectKind::SloViolMax => "SLO-violation share ≤ limit (%; fleet only)",
            ExpectKind::LostMax => "requests lost to crashes ≤ limit (fleet only)",
        }
    }

    /// Gates over control-plane metrics only a fleet run produces.
    pub fn fleet_only(self) -> bool {
        matches!(self, ExpectKind::SloViolMax | ExpectKind::LostMax)
    }

    /// True when the gate is a floor (`actual ≥ limit`).
    pub(crate) fn is_min(self) -> bool {
        matches!(self, ExpectKind::CompletionMin)
    }

    /// The actual value of this gate's metric over one cell's trials
    /// (latencies are per-trial percentiles, shares in percent).
    fn actual(self, trials: &[ScenarioOutcome]) -> f64 {
        match self {
            ExpectKind::P50Max => mean_over(trials, |t| t.p50_ms),
            ExpectKind::P99Max => mean_over(trials, |t| t.p99_ms),
            ExpectKind::ColdRateMax => 100.0 * mean_over(trials, |t| t.cold_ratio()),
            ExpectKind::CompletionMin => {
                100.0 * mean_over(trials, |t| t.completed as f64 / t.offered.max(1) as f64)
            }
            ExpectKind::GibSecondsMax => mean_over(trials, |t| t.gib_seconds),
            ExpectKind::SloViolMax => {
                100.0
                    * mean_over(trials, |t| {
                        t.fleet
                            .as_ref()
                            .map(|f| f.slo_violation_rate())
                            .unwrap_or(0.0)
                    })
            }
            ExpectKind::LostMax => mean_over(trials, |t| {
                t.fleet.as_ref().map(|f| f.lost as f64).unwrap_or(0.0)
            }),
        }
    }
}

/// One declared gate: a kind and its limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expectation {
    /// Which metric is gated.
    pub kind: ExpectKind,
    /// The threshold (ceiling, or floor for `*_min` gates).
    pub limit: f64,
}

impl Expectation {
    /// Parses one `expect.* = limit` spec pair.
    pub(crate) fn parse(key: &str, value: &str) -> Result<Expectation, String> {
        let kind = ExpectKind::from_key(key)?;
        let limit: f64 = value
            .parse()
            .map_err(|_| format!("expected a number, got {value:?}"))?;
        Ok(Expectation { kind, limit })
    }
}

/// Validates a gate list against its base scenario; one error string
/// per problem.
pub(crate) fn validate(expect: &[Expectation], base: &Scenario) -> Vec<String> {
    let mut errs = Vec::new();
    for (i, e) in expect.iter().enumerate() {
        if !(e.limit.is_finite() && e.limit >= 0.0) {
            errs.push(format!(
                "{} must be a finite number ≥ 0 (got {})",
                e.kind.key(),
                e.limit
            ));
        }
        if expect[..i].iter().any(|p| p.kind == e.kind) {
            errs.push(format!("{} listed twice", e.kind.key()));
        }
        if e.kind.fleet_only() && base.topology != Topology::Fleet {
            errs.push(format!(
                "{} needs the fleet topology (control-plane metric)",
                e.kind.key()
            ));
        }
    }
    errs
}

/// One evaluated gate on one cell.
#[derive(Clone, Debug)]
pub struct ExpectVerdict {
    /// Cell label (backend-qualified when the cell swept backends).
    pub cell: String,
    /// Which gate was checked.
    pub kind: ExpectKind,
    /// The declared threshold.
    pub limit: f64,
    /// The measured trial-mean value.
    pub actual: f64,
    /// Whether the gate held.
    pub pass: bool,
}

/// Evaluates every gate against every `(cell, backend)` column.
pub(crate) fn evaluate(
    expect: &[Expectation],
    cells: &[(String, ScenarioResult)],
) -> Vec<ExpectVerdict> {
    let mut out = Vec::new();
    for (name, result) in cells {
        for (backend, trials) in &result.cells {
            let label = if result.cells.len() > 1 {
                format!("{name}/backend={}", backend.key())
            } else {
                name.clone()
            };
            for e in expect {
                let actual = e.kind.actual(trials);
                let pass = if e.kind.is_min() {
                    actual >= e.limit
                } else {
                    actual <= e.limit
                };
                out.push(ExpectVerdict {
                    cell: label.clone(),
                    kind: e.kind,
                    limit: e.limit,
                    actual,
                    pass,
                });
            }
        }
    }
    out
}

/// Renders the per-cell verdict table plus a one-line summary.
pub(crate) fn render_verdicts(verdicts: &[ExpectVerdict]) -> String {
    if verdicts.is_empty() {
        return String::new();
    }
    let mut table = TextTable::new(&["Cell", "Expectation", "Limit", "Actual", "Verdict"]);
    for v in verdicts {
        table.row(vec![
            v.cell.clone(),
            v.kind.key().to_string(),
            format!("{} {:.2}", if v.kind.is_min() { "≥" } else { "≤" }, v.limit),
            format!("{:.2}", v.actual),
            if v.pass { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    let mut out = String::from("Expectations:\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "expectations: {} passed, {} failed\n",
        verdicts.len() - failed,
        failed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    #[test]
    fn keys_round_trip_and_hint_on_typos() {
        for k in ExpectKind::ALL {
            assert_eq!(ExpectKind::from_key(k.key()), Ok(k));
        }
        let err = ExpectKind::from_key("expect.p99_max").unwrap_err();
        assert!(err.contains("did you mean \"expect.p99_ms_max\""), "{err}");
    }

    #[test]
    fn validate_rejects_bad_limits_dups_and_misplaced_fleet_gates() {
        let fleet = Scenario::new("f", Topology::Fleet, WorkloadKind::Diurnal);
        let single = Scenario::new("s", Topology::SingleVm, WorkloadKind::Memhog);
        let gate = |kind, limit| Expectation { kind, limit };
        assert!(validate(&[gate(ExpectKind::SloViolMax, 5.0)], &fleet).is_empty());
        let errs = validate(&[gate(ExpectKind::SloViolMax, 5.0)], &single);
        assert!(errs[0].contains("needs the fleet topology"), "{errs:?}");
        let errs = validate(&[gate(ExpectKind::P99Max, f64::NAN)], &fleet);
        assert!(errs[0].contains("finite"), "{errs:?}");
        let errs = validate(
            &[gate(ExpectKind::P99Max, 1.0), gate(ExpectKind::P99Max, 2.0)],
            &fleet,
        );
        assert!(errs[0].contains("listed twice"), "{errs:?}");
    }

    #[test]
    fn completion_is_a_floor_the_rest_are_ceilings() {
        assert!(ExpectKind::CompletionMin.is_min());
        for k in ExpectKind::ALL {
            if k != ExpectKind::CompletionMin {
                assert!(!k.is_min(), "{:?}", k.key());
            }
        }
    }
}
