//! Property: [`TimeSeries`], stored as runs of bit-equal values at even
//! spacing, reads back exactly as the plain point list it replaced —
//! `points`, `len`, `last`, `max_value`, `value_at` and `downsample` —
//! over random pushes with repeated values, equal, irregular and zero
//! spacing, and ±0.0 and NaN bit patterns that must not merge with one
//! another.

use proptest::prelude::*;
use sim_core::{SimDuration, SimTime, TimeSeries};

/// The point list the runs must reproduce: one entry per push, read
/// the straightforward way.
#[derive(Default)]
struct PointList {
    points: Vec<(SimTime, f64)>,
}

impl PointList {
    fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// The value of the last point at or before `t`.
    fn value_at(&self, t: SimTime) -> Option<f64> {
        self.points
            .iter()
            .rev()
            .find(|&&(pt, _)| pt <= t)
            .map(|&(_, v)| v)
    }

    fn downsample(&self, step: SimDuration) -> Vec<(f64, f64)> {
        let Some(&(end, _)) = self.points.last() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            let next = t + step;
            let vals: Vec<f64> = self
                .points
                .iter()
                .filter(|&&(pt, _)| pt >= t && pt < next)
                .map(|&(_, v)| v)
                .collect();
            let v = if vals.is_empty() {
                self.value_at(t).unwrap_or(0.0)
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            };
            out.push((t.as_secs_f64(), v));
            t = next;
        }
        out
    }
}

/// The next value: half the time the previous one again, so that runs
/// form; otherwise one of a small palette, with the bit patterns that
/// compare equal (±0.0) or unequal to themselves (NaN, two payloads) as
/// `f64`s but must stay distinct by bits, or an arbitrary value.
fn value(raw: u64, prev: f64) -> f64 {
    const PALETTE: [f64; 6] = [0.0, -0.0, 1.0, 2.5, 1e12, -3.0];
    match raw % 12 {
        0..=5 => prev,
        6..=8 => PALETTE[(raw >> 8) as usize % PALETTE.len()],
        9 => f64::NAN,
        10 => f64::from_bits(0x7FF8_0000_0000_0001),
        _ => ((raw >> 16) % 1000) as f64 / 8.0,
    }
}

/// The gap to the next push: mostly the previous gap again, so that a
/// run's spacing continues; otherwise zero, one of a few even spacings,
/// or irregular.
fn gap(raw: u64, prev: u64) -> u64 {
    match raw % 8 {
        0..=3 => prev,
        4 => 0,
        5 | 6 => [1, 7, 1_000][(raw >> 8) as usize % 3],
        _ => (raw >> 16) % 5_000,
    }
}

/// Bit patterns, so NaN and ±0.0 compare exactly.
fn bits(points: &[(SimTime, f64)]) -> Vec<(u64, u64)> {
    points.iter().map(|&(t, v)| (t.0, v.to_bits())).collect()
}

fn check(pushes: &[(u64, u64)], probes: &[u64], step_raw: u64) {
    let mut ts = TimeSeries::new();
    let mut reference = PointList::default();
    let mut t = (pushes.first().map_or(0, |p| p.0) >> 32) % 50;
    let (mut g, mut v) = (1_000, 0.0);
    for &(g_raw, v_raw) in pushes {
        (g, v) = (gap(g_raw, g), value(v_raw, v));
        t += g;
        ts.push(SimTime(t), v);
        reference.points.push((SimTime(t), v));
    }
    let points: Vec<_> = ts.points().collect();
    assert_eq!(bits(&points), bits(&reference.points));
    assert_eq!(ts.len(), reference.points.len());
    assert_eq!(ts.is_empty(), reference.points.is_empty());
    assert!(ts.run_count() <= ts.len());
    assert_eq!(
        ts.last().map(|(t, v)| (t.0, v.to_bits())),
        reference.points.last().map(|&(t, v)| (t.0, v.to_bits()))
    );
    assert_eq!(ts.max_value().to_bits(), reference.max_value().to_bits());
    for &p in probes {
        // Probe exact sample times and the gaps between them, before
        // the first and past the last.
        let at = match reference
            .points
            .get(p as usize % (reference.points.len() + 1))
        {
            Some(&(pt, _)) if p % 3 != 0 => SimTime(pt.0 + (p >> 40) % 2),
            _ => SimTime((p >> 8) % (t + 100)),
        };
        assert_eq!(
            ts.value_at(at).map(f64::to_bits),
            reference.value_at(at).map(f64::to_bits),
            "value_at({})",
            at.0
        );
    }
    // At most a few hundred bins however far the pushes reach.
    let step = SimDuration(1 + t / 200 + step_raw % (t / 20 + 1));
    let ours = ts.downsample(step);
    let theirs = reference.downsample(step);
    let as_bits = |d: &[(f64, f64)]| -> Vec<(u64, u64)> {
        d.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
    };
    assert_eq!(as_bits(&ours), as_bits(&theirs), "downsample by {}", step.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn runs_read_back_as_the_point_list(
        pushes in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..300),
        probes in proptest::collection::vec(0u64..u64::MAX, 1..40),
        step_raw in 0u64..u64::MAX,
    ) {
        check(&pushes, &probes, step_raw);
    }
}

#[test]
fn equal_evenly_spaced_samples_share_one_run() {
    let mut ts = TimeSeries::new();
    for s in 0..5_001u64 {
        ts.push(SimTime(s * 1_000_000_000), 7.0);
    }
    assert_eq!((ts.len(), ts.run_count()), (5_001, 1));
    // A change of value, of spacing, or of sign bit starts a run.
    ts.push(SimTime(5_001_000_000_000), 8.0);
    ts.push(SimTime(5_002_000_000_000), 8.0);
    ts.push(SimTime(5_002_500_000_000), 8.0);
    ts.push(SimTime(5_003_000_000_000), 0.0);
    ts.push(SimTime(5_004_000_000_000), -0.0);
    assert_eq!((ts.len(), ts.run_count()), (5_006, 5));
    assert_eq!(ts.value_at(SimTime(5_002_400_000_000)), Some(8.0));
    assert_eq!(
        ts.last().map(|(_, v)| v.to_bits()),
        Some((-0.0f64).to_bits())
    );
}
