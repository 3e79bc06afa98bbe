//! A fluid CPU model: generalized processor sharing with per-task caps.
//!
//! The paper's interference results (Figures 7 and 9) hinge on *who runs
//! where*: the virtio-mem driver's kernel thread migrating pages steals
//! vCPU time from co-located function instances, while Squeezy's driver
//! needs almost none. We model each vCPU set as a [`CpuPool`] in which
//! every runnable task progresses at a *rate* (in vCPUs) determined by
//! water-filling: capacity is divided in proportion to task weights,
//! subject to each task's rate cap (the container CPU-share limit of
//! Table 1). Rates only change when the runnable set changes, so the
//! simulation advances in O(changes), not in ticks.
//!
//! Each task carries its caller's payload `W` — what the work is for —
//! so the pool is the one owner of pending CPU work: a caller takes the
//! finished tasks' payloads back in one [`CpuPool::take_finished`]
//! sweep instead of keeping a map beside the pool.

use crate::collections::IdMap;
use crate::time::{SimDuration, SimTime};

/// Identifier of a task inside a [`CpuPool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(u64);

#[derive(Clone, Debug)]
struct Task<W> {
    /// Remaining service demand in cpu-seconds (`f64::INFINITY` for
    /// background tasks that never finish on their own).
    remaining: f64,
    /// Maximum rate in vCPUs (container CPU-share limit).
    cap: f64,
    /// GPS weight.
    weight: f64,
    /// Current rate in vCPUs, recomputed on every set change.
    rate: f64,
    /// Total cpu-seconds consumed so far.
    consumed: f64,
    /// The caller's payload.
    work: W,
}

/// A pool of vCPUs shared by tasks under capped processor sharing; each
/// task carries a payload `W`.
pub struct CpuPool<W = ()> {
    capacity: f64,
    now: SimTime,
    tasks: IdMap<TaskId, Task<W>>,
    next_id: u64,
    total_consumed: f64,
    /// Water-filling scratch buffers, reused across recomputations so
    /// the per-event path never allocates once warmed up.
    unfixed: Vec<TaskId>,
    still: Vec<TaskId>,
}

impl<W> CpuPool<W> {
    /// Creates a pool with `capacity` vCPUs starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "pool needs positive capacity");
        CpuPool {
            capacity,
            now: SimTime::ZERO,
            tasks: IdMap::new(),
            next_id: 0,
            total_consumed: 0.0,
            unfixed: Vec::new(),
            still: Vec::new(),
        }
    }

    /// Returns the time the pool was last advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns `true` if no tasks are runnable.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a runnable task carrying `work` at the current instant.
    ///
    /// `demand` is the total service demand in cpu-seconds
    /// (`f64::INFINITY` for open-ended background load); `cap` is the
    /// task's maximum rate in vCPUs; `weight` its GPS weight.
    ///
    /// # Panics
    ///
    /// Panics if `demand < 0`, `cap <= 0` or `weight <= 0`.
    pub fn add_task(&mut self, demand: f64, cap: f64, weight: f64, work: W) -> TaskId {
        assert!(demand >= 0.0, "negative demand");
        assert!(cap > 0.0, "cap must be positive");
        assert!(weight > 0.0, "weight must be positive");
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.tasks.insert(
            id,
            Task {
                remaining: demand,
                cap,
                weight,
                rate: 0.0,
                consumed: 0.0,
                work,
            },
        );
        self.recompute_rates();
        id
    }

    /// Removes a task, returning the cpu-seconds it consumed.
    ///
    /// # Panics
    ///
    /// Panics if the task does not exist.
    pub fn remove(&mut self, id: TaskId) -> f64 {
        let t = self.tasks.remove(&id).expect("no such task");
        self.recompute_rates();
        t.consumed
    }

    /// Removes every task with at most `eps` cpu-seconds of demand left,
    /// appending their payloads to `out` in task order, and recomputes
    /// the survivors' rates once. The pool ends as a [`Self::remove`] of
    /// each such task in turn would leave it: rates are a function of
    /// the task set alone.
    pub fn take_finished(&mut self, eps: f64, out: &mut Vec<W>) {
        let before = out.len();
        out.extend(
            self.tasks
                .extract_if(|_, t| t.remaining <= eps)
                .map(|(_, t)| t.work),
        );
        if out.len() > before {
            self.recompute_rates();
        }
    }

    /// Returns the current rate of `id` in vCPUs, or `None` if absent.
    pub fn rate_of(&self, id: TaskId) -> Option<f64> {
        self.tasks.get(&id).map(|t| t.rate)
    }

    /// Returns the remaining demand of `id`, or `None` if absent.
    pub fn remaining(&self, id: TaskId) -> Option<f64> {
        self.tasks.get(&id).map(|t| t.remaining)
    }

    /// Returns the sum of all current task rates (instantaneous pool
    /// utilization in vCPUs).
    pub fn total_rate(&self) -> f64 {
        self.tasks.values().map(|t| t.rate).sum()
    }

    /// Returns total cpu-seconds consumed by all tasks ever in the pool.
    pub fn total_consumed(&self) -> f64 {
        self.total_consumed
    }

    /// Advances the pool clock to `t`, charging consumption at current
    /// rates.
    ///
    /// The caller must not advance past the next task completion (use
    /// [`CpuPool::next_completion`]); in debug builds this is asserted.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "pool time went backwards");
        let dt = t.since(self.now).as_secs_f64();
        if dt > 0.0 {
            for task in self.tasks.values_mut() {
                let used = task.rate * dt;
                debug_assert!(
                    task.remaining.is_infinite() || task.remaining - used > -1e-6,
                    "advanced past completion: remaining {} used {used}",
                    task.remaining
                );
                if task.remaining.is_finite() {
                    task.remaining = (task.remaining - used).max(0.0);
                }
                task.consumed += used;
                self.total_consumed += used;
            }
        }
        self.now = t;
    }

    /// Returns the earliest task completion `(task, time)` under current
    /// rates, or `None` if no finite-demand task is running.
    pub fn next_completion(&self) -> Option<(TaskId, SimTime)> {
        let mut best: Option<(TaskId, f64)> = None;
        for (&id, t) in self.tasks.iter() {
            if !t.remaining.is_finite() || t.rate <= 0.0 {
                continue;
            }
            let eta = t.remaining / t.rate;
            match best {
                Some((_, b)) if b <= eta => {}
                _ => best = Some((id, eta)),
            }
        }
        best.map(|(id, eta)| (id, self.now + SimDuration::from_secs_f64(eta)))
    }

    /// Recomputes all task rates by water-filling.
    ///
    /// Capacity is split in proportion to weights; any task whose
    /// proportional share exceeds its cap is pinned at the cap and the
    /// leftover is redistributed among the rest.
    fn recompute_rates(&mut self) {
        // Reuse the scratch buffers (taken out of `self` so the task map
        // stays borrowable): the floating-point operation order below is
        // deliberately identical to the original BTreeMap formulation,
        // so rates — and every digest downstream — are bit-exact.
        let mut unfixed = std::mem::take(&mut self.unfixed);
        let mut still = std::mem::take(&mut self.still);
        unfixed.clear();
        unfixed.extend(self.tasks.keys().copied());
        let mut cap_left = self.capacity;
        // Water-filling terminates in at most `n` rounds because each
        // round fixes at least one task.
        loop {
            let wsum: f64 = unfixed.iter().map(|id| self.tasks[id].weight).sum();
            if wsum <= 0.0 || unfixed.is_empty() {
                break;
            }
            let mut fixed_any = false;
            still.clear();
            for id in unfixed.drain(..) {
                let t = &self.tasks[&id];
                let share = cap_left * t.weight / wsum;
                if share >= t.cap {
                    let cap = t.cap;
                    self.tasks.get_mut(&id).expect("present").rate = cap;
                    cap_left -= cap;
                    fixed_any = true;
                } else {
                    still.push(id);
                }
            }
            std::mem::swap(&mut unfixed, &mut still);
            if !fixed_any {
                // No task is capped: split what is left proportionally.
                let wsum: f64 = unfixed.iter().map(|id| self.tasks[id].weight).sum();
                for id in &unfixed {
                    let w = self.tasks[id].weight;
                    self.tasks.get_mut(id).expect("present").rate = cap_left * w / wsum;
                }
                break;
            }
            if unfixed.is_empty() {
                break;
            }
        }
        self.unfixed = unfixed;
        self.still = still;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_task_runs_at_cap() {
        let mut pool = CpuPool::new(4.0);
        let t = pool.add_task(1.0, 0.25, 1.0, ());
        assert_close(pool.rate_of(t).unwrap(), 0.25);
        let (id, when) = pool.next_completion().unwrap();
        assert_eq!(id, t);
        assert_close(when.as_secs_f64(), 4.0);
    }

    #[test]
    fn uncontended_tasks_all_run_at_cap() {
        let mut pool = CpuPool::new(4.0);
        let a = pool.add_task(f64::INFINITY, 1.0, 1.0, ());
        let b = pool.add_task(f64::INFINITY, 1.0, 1.0, ());
        let c = pool.add_task(f64::INFINITY, 0.25, 1.0, ());
        assert_close(pool.rate_of(a).unwrap(), 1.0);
        assert_close(pool.rate_of(b).unwrap(), 1.0);
        assert_close(pool.rate_of(c).unwrap(), 0.25);
        assert_close(pool.total_rate(), 2.25);
    }

    #[test]
    fn contended_tasks_share_fairly() {
        let mut pool = CpuPool::new(2.0);
        let ids: Vec<_> = (0..4)
            .map(|_| pool.add_task(f64::INFINITY, 1.0, 1.0, ()))
            .collect();
        for id in &ids {
            assert_close(pool.rate_of(*id).unwrap(), 0.5);
        }
    }

    #[test]
    fn capped_task_leftover_goes_to_others() {
        // Capacity 2, one task capped at 0.25, one uncapped: the uncapped
        // task should get min(1.75, its cap=2.0) = 1.75... but caps are
        // per-vCPU, so cap it at 1.0.
        let mut pool = CpuPool::new(2.0);
        let small = pool.add_task(f64::INFINITY, 0.25, 1.0, ());
        let big = pool.add_task(f64::INFINITY, 1.0, 1.0, ());
        assert_close(pool.rate_of(small).unwrap(), 0.25);
        assert_close(pool.rate_of(big).unwrap(), 1.0);
    }

    #[test]
    fn overload_respects_weights() {
        let mut pool = CpuPool::new(1.0);
        let heavy = pool.add_task(f64::INFINITY, 1.0, 3.0, ());
        let light = pool.add_task(f64::INFINITY, 1.0, 1.0, ());
        assert_close(pool.rate_of(heavy).unwrap(), 0.75);
        assert_close(pool.rate_of(light).unwrap(), 0.25);
    }

    #[test]
    fn advance_consumes_and_completes() {
        let mut pool = CpuPool::new(1.0);
        let a = pool.add_task(0.5, 1.0, 1.0, ());
        let b = pool.add_task(f64::INFINITY, 1.0, 1.0, ());
        // Both run at 0.5; `a` finishes after 1 s.
        let (id, when) = pool.next_completion().unwrap();
        assert_eq!(id, a);
        assert_close(when.as_secs_f64(), 1.0);
        pool.advance_to(when);
        assert_close(pool.remaining(a).unwrap(), 0.0);
        let used = pool.remove(a);
        assert_close(used, 0.5);
        // `b` now gets the whole CPU.
        assert_close(pool.rate_of(b).unwrap(), 1.0);
        assert_close(pool.total_consumed(), 1.0);
    }

    #[test]
    fn interference_slows_everyone() {
        // One function at cap 1.0 on a 1-vCPU pool, then a kthread with
        // equal weight arrives: the function drops to 0.5 vCPU, doubling
        // its completion time — the Figure 9 effect in miniature.
        let mut pool = CpuPool::new(1.0);
        let func = pool.add_task(1.0, 1.0, 1.0, ());
        assert_close(pool.next_completion().unwrap().1.as_secs_f64(), 1.0);
        let kthread = pool.add_task(f64::INFINITY, 1.0, 1.0, ());
        assert_close(pool.rate_of(func).unwrap(), 0.5);
        let (_, when) = pool.next_completion().unwrap();
        assert_close(when.as_secs_f64(), 2.0);
        pool.advance_to(when);
        pool.remove(kthread);
    }

    #[test]
    fn empty_pool_has_no_completion() {
        let pool: CpuPool = CpuPool::new(1.0);
        assert!(pool.next_completion().is_none());
        assert!(pool.is_empty());
    }

    /// Over seeded random pools, one `take_finished` sweep hands back
    /// the finished payloads in task order and leaves every survivor's
    /// rate and the next completion bit-identical to removing the same
    /// tasks one by one.
    #[test]
    fn take_finished_matches_one_by_one_removal() {
        const POOLS: u64 = 2_000;
        let build = |case: u64| {
            let mut rng = DetRng::new(0x7A5C).derive(case);
            let mut pool = CpuPool::new(rng.range_f64(0.5, 4.0));
            let mut ids = Vec::new();
            for tag in 0..rng.range(1, 12) {
                let demand = if rng.chance(0.1) {
                    f64::INFINITY
                } else {
                    rng.range_f64(1e-3, 2.0)
                };
                let (cap, weight) = (rng.range_f64(0.1, 2.0), rng.range_f64(0.5, 2.0));
                ids.push(pool.add_task(demand, cap, weight, tag));
            }
            if let Some((_, first)) = pool.next_completion() {
                pool.advance_to(first);
            }
            (pool, ids, rng.range_f64(0.0, 1.0))
        };
        let rates = |pool: &CpuPool<u64>, ids: &[TaskId]| -> Vec<Option<u64>> {
            ids.iter()
                .map(|&id| pool.rate_of(id).map(f64::to_bits))
                .collect()
        };
        let mut moved = 0;
        for case in 0..POOLS {
            let (mut batch, ids, eps) = build(case);
            let (mut single, _, _) = build(case);
            let before = rates(&single, &ids);
            let mut taken = Vec::new();
            batch.take_finished(eps, &mut taken);
            let mut expect = Vec::new();
            for (tag, &id) in ids.iter().enumerate() {
                if single.remaining(id).is_some_and(|r| r <= eps) {
                    single.remove(id);
                    expect.push(tag as u64);
                }
            }
            assert_eq!(taken, expect, "pool {case}");
            let after = rates(&single, &ids);
            assert_eq!(rates(&batch, &ids), after, "pool {case}");
            assert_eq!(batch.next_completion(), single.next_completion());
            let survivor_moved = before
                .iter()
                .zip(&after)
                .any(|(b, a)| a.is_some() && a != b);
            moved += u64::from(survivor_moved);
        }
        // Removals often change the survivors' shares, so a sweep that
        // skipped the recompute would fail above.
        assert!(moved > POOLS / 10, "survivor rates moved in {moved} pools");
    }

    #[test]
    #[should_panic(expected = "no such task")]
    fn remove_unknown_task_panics() {
        let mut pool = CpuPool::new(1.0);
        let t = pool.add_task(1.0, 1.0, 1.0, ());
        pool.remove(t);
        pool.remove(t);
    }
}
