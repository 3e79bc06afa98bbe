//! Simulation metrics: request latencies, memory timelines, reclaim
//! accounting.

use std::collections::BTreeMap;

use sim_core::{Fnv1a, Histogram, SimDuration, SimTime, TimeSeries};
use workloads::FunctionKind;

/// Per-function request metrics.
#[derive(Default)]
pub struct FuncMetrics {
    /// End-to-end request latency (ms), arrival → completion.
    pub latency: Histogram,
    /// `(arrival_s, latency_ms)` pairs for time-resolved plots (Fig. 9).
    pub latency_points: Vec<(f64, f64)>,
    /// Requests that triggered a new instance (cold starts).
    pub cold_starts: u64,
    /// Requests served by a warm instance.
    pub warm_starts: u64,
    /// Cold-start latency (ms): scale-up trigger → instance warm.
    pub cold_start_latency: Histogram,
}

impl FuncMetrics {
    /// Mean latency of requests arriving in `[from_s, to_s)`.
    ///
    /// Needs [`SimConfig::record_latency_points`] enabled — returns
    /// `None` for empty windows (or when points were not recorded).
    ///
    /// [`SimConfig::record_latency_points`]: crate::SimConfig::record_latency_points
    pub fn mean_latency_in(&self, from_s: f64, to_s: f64) -> Option<f64> {
        let pts: Vec<f64> = self
            .latency_points
            .iter()
            .filter(|(a, _)| *a >= from_s && *a < to_s)
            .map(|&(_, l)| l)
            .collect();
        if pts.is_empty() {
            None
        } else {
            Some(sim_core::metrics::mean(&pts))
        }
    }
}

/// Per-VM reclaim accounting (drives the Figure-8 throughput numbers).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReclaimTotals {
    /// Bytes successfully reclaimed to the host.
    pub bytes: u64,
    /// Wall time spent by reclaim operations.
    pub wall: SimDuration,
    /// Reclaim operations issued.
    pub ops: u64,
    /// Operations that reclaimed less than requested.
    pub shortfalls: u64,
    /// Pages migrated along the way.
    pub pages_migrated: u64,
}

impl ReclaimTotals {
    /// Reclamation throughput in MiB/s (0 when no time was spent).
    pub fn throughput_mibs(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.bytes as f64 / (1 << 20) as f64) / secs
        }
    }
}

/// Everything a simulation run produces.
pub struct SimResult {
    /// Per-function request metrics.
    pub per_func: BTreeMap<FunctionKind, FuncMetrics>,
    /// Host memory usage over time (bytes).
    pub host_usage: TimeSeries,
    /// Per-VM guest memory usage over time (bytes).
    pub guest_usage: Vec<TimeSeries>,
    /// Per-VM live instance counts over time.
    pub instance_counts: Vec<TimeSeries>,
    /// Per-VM reclaim accounting.
    pub reclaims: Vec<ReclaimTotals>,
    /// Total requests completed.
    pub completed: u64,
    /// Simulated end time.
    pub end: SimTime,
    /// Host-usage integral in bytes·s over `[first sample, end]`, the
    /// step function of the host samples, accumulated while the run
    /// samples (so bounded-metrics runs, whose `host_usage` stays
    /// empty, have it too). Not part of [`Self::digest`].
    pub host_usage_integral: f64,
}

impl SimResult {
    /// Integrated host memory footprint in GiB·s (Figure 10 right).
    pub fn gib_seconds(&self) -> f64 {
        self.host_usage_integral / (1u64 << 30) as f64
    }

    /// P99 latency (ms) for one function.
    pub fn p99_ms(&mut self, kind: FunctionKind) -> f64 {
        self.per_func
            .get_mut(&kind)
            .map(|m| m.latency.p99())
            .unwrap_or(0.0)
    }

    /// A stable FNV-1a digest (via [`sim_core::Fnv1a`], the workspace's
    /// one hashing primitive) over every field of the result —
    /// latencies and time series at full f64 bit precision.
    ///
    /// Histogram samples are hashed in sorted order so the digest is
    /// independent of quantile queries ([`Histogram::quantile`] sorts
    /// its samples in place): querying `p99_ms` before or after
    /// digesting never changes the value. Equal digests mean equal
    /// sample multisets, point lists, series and counters — what the
    /// golden-regression tests pin across refactors and what the
    /// cluster/single-host equivalence property compares.
    ///
    /// Each `u64`/`f64` field enters the hasher as its little-endian
    /// bytes and each name byte as a zero-extended `u64` — the exact
    /// byte stream of the original hand-rolled implementation, so the
    /// pinned golden digests survived the switch to the shared hasher
    /// unchanged.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let put_histogram = |h: &mut Fnv1a, hist: &Histogram| {
            h.write_u64(hist.count() as u64);
            let mut sorted = hist.samples().to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            for s in sorted {
                h.write_f64(s);
            }
        };
        let put_series = |h: &mut Fnv1a, ts: &TimeSeries| {
            h.write_u64(ts.len() as u64);
            for &(t, v) in ts.points() {
                h.write_u64(t.0);
                h.write_f64(v);
            }
        };
        h.write_u64(self.completed);
        h.write_u64(self.end.0);
        h.write_u64(self.per_func.len() as u64);
        for (kind, m) in &self.per_func {
            for b in kind.name().bytes() {
                h.write_u64(b as u64);
            }
            h.write_u64(m.cold_starts);
            h.write_u64(m.warm_starts);
            put_histogram(&mut h, &m.latency);
            put_histogram(&mut h, &m.cold_start_latency);
            h.write_u64(m.latency_points.len() as u64);
            for &(a, l) in &m.latency_points {
                h.write_f64(a);
                h.write_f64(l);
            }
        }
        put_series(&mut h, &self.host_usage);
        h.write_u64(self.guest_usage.len() as u64);
        for ts in &self.guest_usage {
            put_series(&mut h, ts);
        }
        h.write_u64(self.instance_counts.len() as u64);
        for ts in &self.instance_counts {
            put_series(&mut h, ts);
        }
        h.write_u64(self.reclaims.len() as u64);
        for r in &self.reclaims {
            h.write_u64(r.bytes);
            h.write_u64(r.wall.0);
            h.write_u64(r.ops);
            h.write_u64(r.shortfalls);
            h.write_u64(r.pages_migrated);
        }
        h.finish()
    }

    /// Aggregate reclaim totals across VMs.
    pub fn total_reclaims(&self) -> ReclaimTotals {
        let mut acc = ReclaimTotals::default();
        for r in &self.reclaims {
            acc.bytes += r.bytes;
            acc.wall += r.wall;
            acc.ops += r.ops;
            acc.shortfalls += r.shortfalls;
            acc.pages_migrated += r.pages_migrated;
        }
        acc
    }
}

/// Request-latency histograms of `hosts`, merged per function.
pub(crate) fn merged_latency<'a>(
    hosts: impl IntoIterator<Item = &'a SimResult>,
) -> BTreeMap<FunctionKind, Histogram> {
    let mut merged: BTreeMap<FunctionKind, Histogram> = BTreeMap::new();
    for host in hosts {
        for (&kind, m) in &host.per_func {
            merged.entry(kind).or_default().merge(&m.latency);
        }
    }
    merged
}

/// Cold and warm start counts summed over `hosts`.
pub(crate) fn cold_warm_starts<'a>(hosts: impl IntoIterator<Item = &'a SimResult>) -> (u64, u64) {
    hosts
        .into_iter()
        .flat_map(|h| h.per_func.values())
        .fold((0, 0), |(c, w), m| (c + m.cold_starts, w + m.warm_starts))
}

/// Integrated host memory footprint summed over `hosts` (GiB·s).
pub(crate) fn total_gib_seconds<'a>(hosts: impl IntoIterator<Item = &'a SimResult>) -> f64 {
    hosts.into_iter().map(SimResult::gib_seconds).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_throughput() {
        let r = ReclaimTotals {
            bytes: 512 << 20,
            wall: SimDuration::millis(250),
            ops: 2,
            shortfalls: 0,
            pages_migrated: 0,
        };
        assert!((r.throughput_mibs() - 2048.0).abs() < 1e-9);
        assert_eq!(ReclaimTotals::default().throughput_mibs(), 0.0);
    }

    #[test]
    fn mean_latency_in_window() {
        let mut m = FuncMetrics::default();
        m.latency_points.push((1.0, 100.0));
        m.latency_points.push((2.0, 200.0));
        m.latency_points.push((10.0, 1000.0));
        assert_eq!(m.mean_latency_in(0.0, 5.0), Some(150.0));
        assert_eq!(m.mean_latency_in(5.0, 20.0), Some(1000.0));
        assert_eq!(m.mean_latency_in(20.0, 30.0), None);
    }

    #[test]
    fn gib_seconds_integration() {
        // 2 GiB held for 10 s.
        let result = SimResult {
            per_func: BTreeMap::new(),
            host_usage: TimeSeries::new(),
            guest_usage: vec![],
            instance_counts: vec![],
            reclaims: vec![],
            completed: 0,
            end: SimTime::ZERO + SimDuration::secs(10),
            host_usage_integral: (2u64 << 30) as f64 * 10.0,
        };
        assert!((result.gib_seconds() - 20.0).abs() < 1e-9);
    }
}
