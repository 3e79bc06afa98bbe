//! Property: [`EventQueue`] — re-armable timers and one-shot pushes in
//! one indexed heap behind one (time, seq) order — pops in exactly the
//! order of a reference binary heap over arbitrary interleavings of
//! pushes, timer arms/re-arms/disarms and pops (unconditional and
//! bounded), including same-instant ties between timers and pushes,
//! far-future events up to `u64::MAX`, and keep-alive-shaped traffic:
//! many keys re-armed one fixed window ahead, some disarmed before they
//! fire.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sim_core::{DetRng, EventQueue, SimTime};

/// The straightforward event queue the real one is pinned to: a binary
/// heap ordered by (time, push sequence), O(log n) per operation. A
/// timer re-arm drops the key's pending entry and pushes a new one.
struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    /// Per timer key: the sequence number of its pending entry.
    armed: Vec<Option<u64>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Ord> BinaryHeapQueue<E> {
    fn new(timer_keys: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            armed: vec![None; timer_keys],
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, at: SimTime, event: E) -> u64 {
        assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq;
        self.heap.push(Reverse((at, seq, event)));
        self.next_seq += 1;
        seq
    }

    fn set_timer(&mut self, key: usize, at: Option<SimTime>, event: E) {
        if let Some(seq) = self.armed[key].take() {
            self.heap.retain(|Reverse((_, s, _))| *s != seq);
        }
        if let Some(at) = at {
            self.armed[key] = Some(self.push(at, event));
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, seq, event)) = self.heap.pop()?;
        if let Some(k) = self.armed.iter().position(|&s| s == Some(seq)) {
            self.armed[k] = None;
        }
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Timer keys the interleavings drive.
const KEYS: usize = 4;

/// The queue under test and its reference, driven in lockstep.
struct Pair {
    q: EventQueue<u32>,
    r: BinaryHeapQueue<u32>,
    keys: usize,
    tag: u32,
}

impl Pair {
    fn new(timer_keys: usize) -> Pair {
        let mut q = EventQueue::new();
        let keys = q.timer_keys(timer_keys);
        Pair {
            q,
            r: BinaryHeapQueue::new(timer_keys),
            keys,
            tag: 0,
        }
    }

    fn next_tag(&mut self) -> u32 {
        self.tag += 1;
        self.tag
    }

    fn push(&mut self, dt: u64) {
        let at = SimTime(self.q.now().0 + dt);
        let tag = self.next_tag();
        self.q.push(at, tag);
        self.r.push(at, tag);
    }

    fn set_timer(&mut self, key: usize, dt: Option<u64>) {
        let at = dt.map(|dt| SimTime(self.q.now().0 + dt));
        let tag = self.next_tag();
        self.q.set_timer(self.keys + key, at, tag);
        self.r.set_timer(key, at, tag);
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let (a, b) = (self.q.pop(), self.r.pop());
        assert_eq!(a, b);
        a
    }

    /// Pops only an event due strictly before `now + dt`.
    fn pop_before(&mut self, dt: u64) {
        let limit = SimTime(self.q.now().0.saturating_add(dt));
        let expect = match self.r.peek_time() {
            Some(at) if at < limit => self.r.pop(),
            _ => None,
        };
        assert_eq!(self.q.pop_before(limit), expect);
    }

    fn check(&self) {
        assert_eq!(self.q.len(), self.r.len());
        assert_eq!(self.q.peek_time(), self.r.peek_time());
    }

    /// Drains both to the end: the full pop order must agree.
    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert_eq!(self.q.now(), self.r.now());
    }
}

/// Maps one `(kind, raw)` step onto an operation. Time offsets favour
/// same-instant ties and the near future, with mid-range and far-future
/// outliers.
fn step(p: &mut Pair, kind: u8, raw: u64) {
    let dt = match (raw >> 56) % 8 {
        0..=2 => 0,
        3..=5 => raw % (1 << 12),
        6 => raw % (1 << 30),
        _ => raw % (1 << 52),
    };
    match kind {
        0..=3 => p.push(dt),
        4..=6 => {
            let armed = !raw.is_multiple_of(5);
            p.set_timer((raw >> 4) as usize % KEYS, armed.then_some(dt));
        }
        7 | 8 => {
            p.pop();
        }
        _ => p.pop_before(dt),
    }
    p.check();
}

proptest! {
    #[test]
    fn queue_pops_in_reference_heap_order(
        ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX), 0..500)
    ) {
        let mut p = Pair::new(KEYS);
        for &(kind, raw) in &ops {
            step(&mut p, kind, raw);
        }
        p.drain();
    }
}

/// Differential check against the reference heap on seeded random
/// interleavings of all four operations (the proptest suite widens
/// this further).
#[test]
fn queue_matches_reference_heap_on_random_interleavings() {
    for seed in 0..8 {
        let mut rng = DetRng::new(0xE0E0 + seed);
        let mut p = Pair::new(KEYS);
        for _ in 0..4_000 {
            let kind = rng.range(0, 10) as u8;
            let raw = rng.range(0, u64::MAX);
            step(&mut p, kind, raw);
        }
        p.drain();
    }
}

/// Timers and pushes hold events at one instant: they pop in the order they
/// were scheduled, a re-arm counting as a fresh schedule.
#[test]
fn equal_instant_ties_across_sources_pop_in_schedule_order() {
    let mut p = Pair::new(KEYS);
    p.push(100);
    p.set_timer(0, Some(100));
    p.set_timer(1, Some(100));
    p.push(100);
    p.set_timer(0, Some(100));
    p.set_timer(2, Some(100));
    p.set_timer(2, None);
    p.push(100);
    p.check();
    p.drain();
}

/// Far-future timers and pushes — one per 6-bit digit of the u64
/// timeline, plus `u64::MAX` itself — come back in time order.
#[test]
fn far_future_events_pop_in_time_order_from_both_sources() {
    let mut p = Pair::new(5);
    let times: Vec<u64> = (0..11).map(|l| 1u64 << (6 * l)).collect();
    for (i, &t) in times.iter().enumerate().rev() {
        if i % 2 == 0 {
            p.push(t);
        } else {
            p.set_timer(i / 2, Some(t));
        }
    }
    p.push(u64::MAX);
    // Key 3 holds the 2^42 timer: re-arm it to the end of time.
    p.set_timer(3, Some(u64::MAX));
    p.check();
    p.drain();
}

/// Keep-alive-shaped traffic: a drumbeat of completions, each re-arming
/// its instance's key one fixed window `K` ahead (superseding the
/// pending expiry), some instances removed before they expire (a
/// disarm), interleaved with short-delay pushes and pops. The queue's
/// length tracks the reference's — one entry per armed key, however
/// often it was re-armed — and it pops in reference order.
#[test]
fn keepalive_rearms_and_disarms_match_reference_heap() {
    const INSTANCES: usize = 64;
    const K: u64 = 1 << 20;
    let mut p = Pair::new(INSTANCES);
    let mut rng = DetRng::new(0x4A11);
    for _ in 0..20_000 {
        let key = rng.range(0, INSTANCES as u64) as usize;
        match rng.range(0, 10) {
            0..=5 => p.set_timer(key, Some(K)),
            6 => p.set_timer(key, None),
            7 => p.push(rng.range(0, K)),
            _ => {
                p.pop();
            }
        }
        p.check();
    }
    p.drain();
}
