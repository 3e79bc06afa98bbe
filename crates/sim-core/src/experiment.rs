//! Generic multi-trial, multi-point experiment engine.
//!
//! Every figure of the paper is a grid: sweep points (sizes,
//! utilizations, backends, functions) × repeated trials. This module
//! factors that shape out of the bench harness:
//!
//! * [`run_experiment`] — the runner. It takes the sweep points, the
//!   trial count, a root seed and a closure computing one
//!   `(point, trial)` cell from its own deterministic [`DetRng`]
//!   stream. Serial or parallel (`std::thread::scope`, a shared cursor
//!   over a fixed unit list — no work stealing), it always produces
//!   *bit-identical* results: each cell's RNG stream is derived purely
//!   from `(seed, point, trial)` and outputs are reduced in index
//!   order, so thread count and scheduling cannot leak into results.
//! * [`Summary`] — mean/stddev/min/max/percentile aggregation over
//!   per-trial samples.
//!
//! ```
//! use sim_core::experiment::run_experiment;
//!
//! let out = run_experiment(&[1u64, 2, 3], 1, 0, 4, |p, _ctx| p * p);
//! assert_eq!(out, vec![vec![1], vec![4], vec![9]]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::DetRng;

/// Runner options threaded from the CLI (`repro --jobs N --trials N`)
/// into every experiment: each figure's `run(cfg, opts)` passes
/// [`ExpOpts::effective_jobs`] and its trial count to
/// [`run_experiment`]. Tests and examples that want the reference
/// single-threaded timing use [`ExpOpts::serial`].
#[derive(Clone, Copy, Debug)]
pub struct ExpOpts {
    /// Worker threads sharding the `points × trials` grid. Results are
    /// bit-identical for every value; `0` means "all available cores".
    pub jobs: usize,
    /// Repeated trials per sweep point. Trial `t` of point `p` always
    /// sees the stream `root.derive(p).derive(t)`, so adding trials
    /// never perturbs earlier ones. Experiments whose output is a
    /// single deterministic artifact (timelines, tables) ignore it and
    /// run one trial.
    pub trials: u32,
}

impl ExpOpts {
    /// One worker, one trial: the reference serial configuration.
    pub fn serial() -> Self {
        ExpOpts { jobs: 1, trials: 1 }
    }

    /// All available cores, one trial.
    pub fn auto() -> Self {
        ExpOpts { jobs: 0, trials: 1 }
    }

    /// Replaces the trial count.
    pub fn with_trials(self, trials: u32) -> Self {
        ExpOpts { trials, ..self }
    }

    /// Replaces the job count.
    pub fn with_jobs(self, jobs: usize) -> Self {
        ExpOpts { jobs, ..self }
    }

    /// The effective worker count: `jobs`, or the machine's available
    /// parallelism when `jobs == 0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Per-cell context handed to the [`run_experiment`] closure.
pub struct TrialCtx {
    /// Trial number within the point (`0..trials`).
    pub trial: u64,
    /// This cell's private deterministic stream:
    /// `DetRng::new(seed).derive(point).derive(trial)`. Never shared
    /// between cells, so parallel execution cannot perturb draws.
    pub rng: DetRng,
}

/// Runs every `(point, trial)` cell of the grid on up to `jobs`
/// workers and returns, per point (in `points` order), the per-trial
/// outputs (in trial order). Bit-identical for every `jobs` value.
///
/// `run_trial` must depend only on its point and context (plus
/// captured read-only config) — never on other cells' results or
/// shared mutable state — so that sharding is sound. `trials` is
/// clamped to at least one.
pub fn run_experiment<P, O, F>(
    points: &[P],
    trials: u32,
    seed: u64,
    jobs: usize,
    run_trial: F,
) -> Vec<Vec<O>>
where
    P: Sync,
    O: Send,
    F: Fn(&P, &mut TrialCtx) -> O + Sync,
{
    let trials = trials.max(1) as usize;
    let units = points.len() * trials;
    let root = DetRng::new(seed);
    let cell = |i: usize| -> O {
        let (p, t) = (i / trials, i % trials);
        let mut ctx = TrialCtx {
            trial: t as u64,
            rng: root.derive(p as u64).derive(t as u64),
        };
        run_trial(&points[p], &mut ctx)
    };

    let mut flat: Vec<Option<O>> = Vec::with_capacity(units);
    if jobs <= 1 || units <= 1 {
        // Serial reference path: plain loop in index order.
        for i in 0..units {
            flat.push(Some(cell(i)));
        }
    } else {
        // Parallel path: a fixed unit list and a shared cursor. Each
        // worker claims the next unassigned cell and writes it into
        // its slot; no work stealing, no shared RNG, and the ordered
        // reduction below is independent of completion order.
        let slots: Vec<Mutex<Option<O>>> = (0..units).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(units) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= units {
                        break;
                    }
                    let out = cell(i);
                    *slots[i].lock().expect("no panics while holding the slot") = Some(out);
                });
            }
        });
        for slot in slots {
            flat.push(slot.into_inner().expect("worker scope joined"));
        }
    }

    // Ordered reduction: regroup the flat unit list per point.
    let mut grouped: Vec<Vec<O>> = Vec::with_capacity(points.len());
    for chunk in &mut flat.chunks_mut(trials) {
        grouped.push(
            chunk
                .iter_mut()
                .map(|o| o.take().expect("every unit ran"))
                .collect(),
        );
    }
    grouped
}

/// Mean/stddev/percentile summary of per-trial samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty or singleton).
    pub stddev: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median by nearest rank (0 when empty).
    pub p50: f64,
    /// 99th percentile by nearest rank (0 when empty).
    pub p99: f64,
}

impl Summary {
    /// Summarizes a sample set.
    pub(crate) fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let rank = |q: f64| {
            sorted[((n as f64 * q).ceil() as usize)
                .saturating_sub(1)
                .min(n - 1)]
        };
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: rank(0.5),
            p99: rank(0.99),
        }
    }

    /// Summarizes one metric extracted from per-trial outputs.
    pub(crate) fn over<O, F: Fn(&O) -> f64>(outputs: &[O], metric: F) -> Summary {
        let samples: Vec<f64> = outputs.iter().map(metric).collect();
        Summary::of(&samples)
    }
}

/// Mean of one metric over per-trial outputs (0 when empty).
pub fn mean_over<O, F: Fn(&O) -> f64>(outputs: &[O], metric: F) -> f64 {
    Summary::over(outputs, metric).mean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy stochastic experiment: every cell draws from its private
    /// stream, so any cross-cell interference or RNG sharing would
    /// change results between serial and parallel runs.
    fn toy(trials: u32, jobs: usize) -> Vec<Vec<Vec<u64>>> {
        let points: Vec<u64> = (0..7).collect();
        run_experiment(&points, trials, 0xE47, jobs, |&point, ctx| {
            (0..64).map(|_| ctx.rng.range(0, 1 << 32) ^ point).collect()
        })
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = toy(5, 1);
        for jobs in [2, 3, 8, 64] {
            let parallel = toy(5, jobs);
            assert_eq!(serial, parallel, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn grid_shape_and_ordering() {
        let out = toy(3, 4);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|trials| trials.len() == 3));
        // Distinct cells get distinct streams.
        assert_ne!(out[0][0], out[0][1]);
        assert_ne!(out[0][0], out[1][0]);
    }

    #[test]
    fn adding_trials_preserves_earlier_ones() {
        let three = toy(3, 2);
        let five = toy(5, 2);
        for (p3, p5) in three.iter().zip(five.iter()) {
            assert_eq!(p3.as_slice(), &p5[..3]);
        }
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn opts_builders() {
        let o = ExpOpts::serial().with_trials(4).with_jobs(2);
        assert_eq!(o.trials, 4);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.effective_jobs(), 2);
        assert!(ExpOpts::auto().effective_jobs() >= 1);
    }
}
