//! Path independence of [`CpuPool`] completions: advancing a pool
//! straight to an instant, or through an intermediate instant on the
//! way, predicts the same next completion once rounded to whole
//! nanoseconds.
//!
//! A pool's `remaining` demand is path-dependent at the ulp level (each
//! advance subtracts `rate × dt` in floating point), so a host that
//! syncs its pool at an extra instant — a keep-alive check that does
//! not expire, say — could in principle move a later completion. This
//! test pins that it does not, over fixed seeded random pools: the
//! extra sync may be dropped without changing any simulated time.

use sim_core::{CpuPool, DetRng, SimDuration, SimTime};

const POOLS: u64 = 20_000;

/// Adds one random task: finite demand from 1 ms to 5 cpu-s (or, one
/// time in ten, open-ended background load), a container-style rate
/// cap and a GPS weight.
fn add_random_task(pool: &mut CpuPool, rng: &mut DetRng) {
    let demand = if rng.chance(0.1) {
        f64::INFINITY
    } else {
        rng.range_f64(1e-3, 5.0)
    };
    pool.add_task(demand, rng.range_f64(0.1, 2.0), rng.range_f64(0.5, 2.0));
}

/// An instant a fraction `f` of the way from `from` to `to`, in whole
/// nanoseconds.
fn between(from: SimTime, to: SimTime, f: f64) -> SimTime {
    from + SimDuration::nanos((to.since(from).as_nanos() as f64 * f) as u64)
}

/// Builds pool number `case`: a random start time, a first batch of
/// tasks, an advance short of their first completion, and a second
/// batch. Returns `None` when no finite task is running.
fn random_pool(case: u64) -> Option<(CpuPool, DetRng)> {
    let mut rng = DetRng::new(0xC0FFEE).derive(case);
    let mut pool = CpuPool::new(rng.range_f64(0.5, 8.0));
    pool.advance_to(SimTime(rng.range(0, 1_000_000_000_000)));
    for _ in 0..rng.range(1, 6) {
        add_random_task(&mut pool, &mut rng);
    }
    if let Some((_, done)) = pool.next_completion() {
        let f = rng.unit();
        pool.advance_to(between(pool.now(), done, f));
    }
    for _ in 0..rng.range(0, 6) {
        add_random_task(&mut pool, &mut rng);
    }
    pool.next_completion().map(|_| (pool, rng))
}

#[test]
fn next_completion_is_independent_of_intermediate_advances() {
    let (mut checked, mut diverged) = (0, 0);
    for case in 0..POOLS {
        // Two identical pools from the same seed.
        let Some((mut direct, mut rng)) = random_pool(case) else {
            continue;
        };
        let (mut stepped, _) = random_pool(case).expect("same seed, same pool");
        let start = direct.now();
        let (_, done) = direct.next_completion().expect("checked");
        // A target short of the next completion, and a stop on the way.
        let target = between(start, done, rng.unit());
        let mid = between(start, target, rng.unit());
        direct.advance_to(target);
        stepped.advance_to(mid);
        stepped.advance_to(target);
        let next = direct.next_completion();
        assert_eq!(
            next,
            stepped.next_completion(),
            "pool {case}: start {start}, stop {mid}, target {target}"
        );
        let (id, _) = next.expect("target is short of the completion");
        if direct.remaining(id) != stepped.remaining(id) {
            diverged += 1;
        }
        checked += 1;
    }
    assert!(checked > POOLS * 9 / 10, "only {checked} pools had work");
    // The two paths do leave different remaining demand in many pools;
    // the rounding to whole nanoseconds absorbs it.
    assert!(diverged > checked / 10, "{diverged} of {checked} diverged");
}
