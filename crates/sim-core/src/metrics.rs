//! Measurement utilities: histograms, time series (stored as runs of
//! equal, evenly spaced samples), busy-interval windows, bounded
//! reservoirs.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// A sample histogram with exact quantiles.
///
/// Stores raw samples and sorts lazily; experiments collect at most a few
/// hundred thousand latencies, so exact quantiles are affordable and avoid
/// binning artefacts in reported P99s.
///
/// For trace-driven runs with millions of completions, a *bounded*
/// histogram ([`Histogram::bounded`]) retains a fixed-size uniform
/// sample (Vitter's algorithm R on a seeded deterministic stream) while
/// the count and mean stay exact via streaming moments — the same
/// discipline as [`Reservoir`]. Quantiles and the max then come from
/// the retained sample, i.e. they are estimates.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    /// Total samples offered (== `samples.len()` when unbounded).
    seen: u64,
    /// Exact running sum of every offered sample.
    sum: f64,
    /// Retention cap; `None` keeps everything.
    cap: Option<usize>,
    /// Deterministic replacement stream (splitmix walk) for the
    /// bounded mode.
    replace_state: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Creates an empty bounded histogram retaining at most `cap`
    /// samples, replacing uniformly on the deterministic stream seeded
    /// by `seed`.
    pub fn bounded(cap: usize, seed: u64) -> Self {
        Histogram {
            cap: Some(cap.max(1)),
            replace_state: seed,
            ..Histogram::default()
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.seen += 1;
        self.sum += v;
        match self.cap {
            Some(cap) if self.samples.len() >= cap => {
                // Algorithm R: replace a uniformly random slot with
                // probability cap/seen.
                self.replace_state = crate::rng::splitmix(self.replace_state);
                let j = self.replace_state % self.seen;
                if (j as usize) < cap {
                    self.samples[j as usize] = v;
                    self.sorted = false;
                }
            }
            _ => {
                self.samples.push(v);
                self.sorted = false;
            }
        }
    }

    /// Returns the raw samples in insertion order (or sorted order if a
    /// quantile has been taken since the last insert).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Absorbs all of `other`'s samples (e.g. merging per-host
    /// histograms into a cluster-wide one). Merging into an unbounded
    /// histogram keeps every retained sample; the exact `seen`/`sum`
    /// moments always add.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.seen += other.seen;
        self.sum += other.sum;
        self.sorted = false;
    }

    /// Returns the number of *retained* samples (equals the number of
    /// recorded samples unless the histogram is bounded).
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns the exact number of samples ever recorded, including
    /// those a bounded histogram no longer retains.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Returns the arithmetic mean, or 0 for an empty histogram. Exact
    /// even for bounded histograms (streaming sum over every sample).
    pub fn mean(&self) -> f64 {
        if self.cap.is_some() {
            return if self.seen == 0 {
                0.0
            } else {
                self.sum / self.seen as f64
            };
        }
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Returns the `q`-quantile (`0.0..=1.0`) by nearest-rank, or 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
        let rank = ((self.samples.len() as f64) * q).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// Returns the 99th-percentile sample.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Returns the median sample.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }
}

/// A timestamped series of values, e.g. memory usage over time.
///
/// Stored as runs of bit-equal values at evenly spaced times: a host's
/// 1 s memory samples hold one value for minutes at a time, so a
/// series costs memory in the number of changes, not of samples.
/// [`Self::points`] still yields every sample, in push order.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    runs: Vec<Run>,
}

/// `count` samples of `value` at `start`, `start + step`, … (`step` in
/// ns; 0 while the run holds one sample, or for samples at one instant).
#[derive(Clone, Copy, Debug)]
struct Run {
    start: SimTime,
    step: u64,
    count: u64,
    value: f64,
}

impl Run {
    fn last_time(&self) -> SimTime {
        SimTime(self.start.0 + self.step * (self.count - 1))
    }
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point; timestamps must be non-decreasing. A point
    /// whose value is bit-equal to the last run's and whose time keeps
    /// its spacing extends that run in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded timestamp.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(run) = self.runs.last_mut() {
            let last = run.last_time();
            assert!(t >= last, "time series must be monotonic");
            if v.to_bits() == run.value.to_bits() {
                if run.count == 1 {
                    run.step = t.0 - last.0;
                }
                if t.0 - last.0 == run.step {
                    run.count += 1;
                    return;
                }
            }
        }
        self.runs.push(Run {
            start: t,
            step: 0,
            count: 1,
            value: v,
        });
    }

    /// Yields every recorded point in push order.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.count).map(move |i| (SimTime(r.start.0 + r.step * i), r.value)))
    }

    /// Returns the last recorded point.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.runs.last().map(|r| (r.last_time(), r.value))
    }

    /// Returns the number of points.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.count as usize).sum()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Returns the number of stored runs, which is what the series
    /// costs in memory.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Returns the maximum value, or 0 for an empty series.
    pub fn max_value(&self) -> f64 {
        self.runs.iter().map(|r| r.value).fold(0.0, f64::max)
    }

    /// Returns the step-function value at `t` (last point at or before
    /// `t`), or `None` before the first point.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.runs.partition_point(|r| r.start <= t) {
            0 => None,
            i => Some(self.runs[i - 1].value),
        }
    }

    /// Downsamples to one point per `step` (mean of values in each bin),
    /// returning `(bin_start_seconds, mean)` pairs. Bins with no points
    /// carry the previous step value forward.
    pub fn downsample(&self, step: SimDuration) -> Vec<(f64, f64)> {
        let Some((end, _)) = self.last() else {
            return Vec::new();
        };
        let mut points = self.points().peekable();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            let next = t + step;
            let mut n = 0usize;
            // Summed point by point in push order, as a mean over the
            // bin's sample list would be.
            let sum: f64 = std::iter::from_fn(|| points.next_if(|&(pt, _)| pt < next))
                .map(|(_, v)| {
                    n += 1;
                    v
                })
                .sum();
            let v = if n == 0 {
                self.value_at(t).unwrap_or(0.0)
            } else {
                sum / n as f64
            };
            out.push((t.as_secs_f64(), v));
            t = next;
        }
        out
    }
}

/// A bounded uniform sample of `(time_s, value)` points.
///
/// Long cluster/fleet runs complete millions of requests; recording one
/// time-resolved latency point per request (as the single-host Figure-9
/// plots do via `record_latency_points`) would grow without bound. The
/// reservoir keeps a fixed-capacity uniform sample instead: after `n`
/// offers each point survives with probability `cap / n` (Vitter's
/// Algorithm R), so downstream windowed statistics stay unbiased while
/// memory stays O(cap).
///
/// Determinism: replacement decisions come from the [`DetRng`] stream
/// the reservoir is built with, so the same offer sequence always keeps
/// the same sample — reservoirs in simulation results stay
/// byte-identical across runs and `--jobs` values.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    points: Vec<(f64, f64)>,
    rng: DetRng,
}

impl Reservoir {
    /// Creates an empty reservoir holding at most `cap` points.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize, rng: DetRng) -> Self {
        assert!(cap > 0, "a reservoir needs capacity");
        Reservoir {
            cap,
            seen: 0,
            points: Vec::new(),
            rng,
        }
    }

    /// Offers one `(time_s, value)` point; it is kept with probability
    /// `cap / seen`.
    pub fn offer(&mut self, t: f64, v: f64) {
        self.seen += 1;
        if self.points.len() < self.cap {
            self.points.push((t, v));
        } else {
            let j = self.rng.range(0, self.seen);
            if (j as usize) < self.cap {
                self.points[j as usize] = (t, v);
            }
        }
    }

    /// Total points offered so far (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of currently retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The retained points, in no particular order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The retained points sorted by time.
    pub fn sorted_points(&self) -> Vec<(f64, f64)> {
        let mut pts = self.points.clone();
        pts.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite points"));
        pts
    }

    /// Mean value of retained points with `from_s <= t < to_s`, or
    /// `None` when the window holds no points.
    pub fn mean_in(&self, from_s: f64, to_s: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from_s && *t < to_s)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(&vals))
        }
    }
}

/// Accumulates cpu-seconds into fixed-width wall-clock windows.
///
/// Figure 7 reports the utilization (%) of the reclaim kernel threads in
/// one-second windows; device models feed their busy intervals here.
#[derive(Clone, Debug)]
pub struct BusyRecorder {
    window: SimDuration,
    /// cpu-seconds accumulated per window index.
    windows: Vec<f64>,
}

impl BusyRecorder {
    /// Creates a recorder with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        BusyRecorder {
            window,
            windows: Vec::new(),
        }
    }

    /// Records that the tracked entity ran at `rate` vCPUs during
    /// `[start, end)`, splitting across window boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub(crate) fn add_interval(&mut self, start: SimTime, end: SimTime, rate: f64) {
        assert!(end >= start, "interval ends before it starts");
        if rate == 0.0 || end == start {
            return;
        }
        let w = self.window.as_nanos();
        let mut t = start.0;
        while t < end.0 {
            let idx = (t / w) as usize;
            let window_end = (idx as u64 + 1) * w;
            let stop = window_end.min(end.0);
            if idx >= self.windows.len() {
                self.windows.resize(idx + 1, 0.0);
            }
            self.windows[idx] += rate * (stop - t) as f64 / 1e9;
            t = stop;
        }
    }

    /// Records a fully-busy interval (`rate = 1.0`).
    pub fn add_busy(&mut self, start: SimTime, end: SimTime) {
        self.add_interval(start, end, 1.0);
    }

    /// Returns per-window utilization as a fraction of one CPU, padded
    /// with zeros up to `until`.
    pub fn utilization(&self, until: SimTime) -> Vec<f64> {
        let n = (until.0.div_ceil(self.window.as_nanos())) as usize;
        let wsecs = self.window.as_secs_f64();
        (0..n)
            .map(|i| self.windows.get(i).copied().unwrap_or(0.0) / wsecs)
            .collect()
    }
}

/// An incremental 64-bit FNV-1a hasher.
///
/// The single shared digest primitive of the workspace: result digests
/// (`faas::SimResult::digest`), the `repro` CLI's per-section output
/// digests and the scenario-equivalence tests all feed this hasher, so
/// "byte-identical" means the same thing everywhere.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x100_0000_01B3;

    /// Starts a fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs one `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs one `f64` at full bit precision.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Returns the digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a digest of a string in one call (the `repro` CLI's
/// section-output digest).
pub fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(s.as_bytes());
    h.finish()
}

/// Returns the arithmetic mean of `xs` (0 if empty).
///
/// The single shared definition of "mean" used by the bench tables, so
/// figure modules don't each carry their own divide-by-len helper.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Returns the geometric mean of `xs` (0 if empty).
///
/// # Panics
///
/// Panics if any sample is non-positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean requires positive samples"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.mean(), 50.5);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_records_after_quantile() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.p50(), 5.0);
        h.record(1.0);
        assert_eq!(h.p50(), 1.0, "re-sorts after new samples");
    }

    #[test]
    fn time_series_value_at() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime(10), 1.0);
        ts.push(SimTime(20), 2.0);
        assert_eq!(ts.value_at(SimTime(5)), None);
        assert_eq!(ts.value_at(SimTime(10)), Some(1.0));
        assert_eq!(ts.value_at(SimTime(15)), Some(1.0));
        assert_eq!(ts.value_at(SimTime(20)), Some(2.0));
        assert_eq!(ts.value_at(SimTime(100)), Some(2.0));
        assert_eq!(ts.max_value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn time_series_rejects_backwards_time() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime(10), 1.0);
        ts.push(SimTime(5), 1.0);
    }

    #[test]
    fn busy_recorder_splits_across_windows() {
        let mut b = BusyRecorder::new(SimDuration::secs(1));
        // Busy 0.5 s in window 0 and 0.25 s in window 1.
        b.add_busy(SimTime(500_000_000), SimTime(1_250_000_000));
        let u = b.utilization(SimTime(2_000_000_000));
        assert_eq!(u.len(), 2);
        assert!((u[0] - 0.5).abs() < 1e-9);
        assert!((u[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn busy_recorder_rate_scaling() {
        let mut b = BusyRecorder::new(SimDuration::secs(1));
        b.add_interval(SimTime::ZERO, SimTime(1_000_000_000), 0.5);
        let u = b.utilization(SimTime(1_000_000_000));
        assert!((u[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_samples_and_merge() {
        let mut a = Histogram::new();
        a.record(1.0);
        a.record(3.0);
        let mut b = Histogram::new();
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.samples(), &[1.0, 3.0, 2.0]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.p50(), 2.0, "merged samples participate in quantiles");
        assert_eq!(b.count(), 1, "merge leaves the source untouched");
    }

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[4.0]), 4.0);
        assert!((mean(&[1.0, 2.0, 6.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basic() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_keeps_everything_under_capacity() {
        let mut r = Reservoir::new(16, DetRng::new(1));
        for i in 0..10 {
            r.offer(i as f64, (i * 2) as f64);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 10);
        assert_eq!(r.sorted_points()[3], (3.0, 6.0));
        assert_eq!(r.mean_in(0.0, 2.0), Some(1.0), "mean of 0 and 2");
        assert_eq!(r.mean_in(50.0, 60.0), None);
    }

    #[test]
    fn reservoir_is_bounded_and_roughly_uniform() {
        let cap = 200;
        let n = 20_000u64;
        let mut r = Reservoir::new(cap, DetRng::new(7));
        for i in 0..n {
            r.offer(i as f64, 1.0);
        }
        assert_eq!(r.len(), cap);
        assert_eq!(r.seen(), n);
        // A uniform sample puts about half the survivors in each half
        // of the stream; a sampler biased to early or late offers would
        // concentrate far outside this band.
        let early = r
            .points()
            .iter()
            .filter(|(t, _)| *t < n as f64 / 2.0)
            .count();
        assert!(
            (60..=140).contains(&early),
            "early-half survivors {early} of {cap}"
        );
    }

    #[test]
    fn reservoir_is_deterministic_in_its_stream() {
        let run = |seed| {
            let mut r = Reservoir::new(32, DetRng::new(seed));
            for i in 0..1000 {
                r.offer(i as f64, (i % 17) as f64);
            }
            r.sorted_points()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different streams keep different samples");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn reservoir_rejects_zero_capacity() {
        let _ = Reservoir::new(0, DetRng::new(1));
    }

    #[test]
    fn downsample_bins() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::ZERO, 1.0);
        ts.push(SimTime(500_000_000), 3.0);
        ts.push(SimTime(1_500_000_000), 5.0);
        let d = ts.downsample(SimDuration::secs(1));
        assert_eq!(d.len(), 2);
        assert!((d[0].1 - 2.0).abs() < 1e-9, "mean of 1 and 3");
        assert!((d[1].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a("foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn fnv1a_incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a("foobar"));
        // write_u64 is the little-endian byte expansion.
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
