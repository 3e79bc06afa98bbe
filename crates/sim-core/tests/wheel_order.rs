//! Property: the timer-wheel [`EventQueue`] pops in exactly the same
//! (time, seq) order as a reference binary heap over arbitrary push/pop
//! interleavings — including same-instant FIFO ties and far-future
//! events that rest in the wheel's overflow levels and cascade down
//! through every level on their way out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sim_core::{DetRng, EventQueue, SimTime};

/// The straightforward event queue the wheel is pinned to: a binary
/// heap ordered by (time, push sequence), O(log n) per operation.
struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Ord> BinaryHeapQueue<E> {
    fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, event)) = self.heap.pop()?;
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

/// One step of an interleaving: `kind` selects push flavor vs pop,
/// `raw` supplies the time offset entropy.
fn apply(ops: &[(u8, u64)]) {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
    let mut tag = 0u32;
    for &(kind, raw) in ops {
        let pop = kind >= 7 && !wheel.is_empty();
        if pop {
            prop_assert_eq!(wheel.pop(), heap.pop());
        } else {
            // Push flavors: same-instant ties, near-future (dominant in
            // FaaS traces), mid-range, and far-future overflow that
            // exercises the upper wheel levels.
            let dt = match kind % 7 {
                0 | 1 => 0,
                2..=4 => raw % (1 << 12),
                5 => raw % (1 << 30),
                _ => raw % (1 << 52),
            };
            let at = SimTime(wheel.now().0 + dt);
            wheel.push(at, tag);
            heap.push(at, tag);
            tag += 1;
        }
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    // Drain both to the end: the full pop order must agree.
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        prop_assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    prop_assert_eq!(wheel.now(), heap.now());
}

proptest! {
    #[test]
    fn wheel_pops_in_reference_heap_order(
        ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX), 0..500)
    ) {
        apply(&ops);
    }

    // Batch pops are the sequential order, chunked by instant:
    // flattening the batches of `pop_batch` reproduces the reference
    // pop order, and every batch holds exactly the events of one
    // timestamp.
    #[test]
    fn batch_pops_flatten_to_reference_order(
        ops in proptest::collection::vec((0u8..6, 0u64..u64::MAX), 0..300)
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        for (i, &(kind, raw)) in ops.iter().enumerate() {
            let dt = match kind % 6 {
                0 | 1 => 0,
                2 | 3 => raw % (1 << 10),
                4 => raw % (1 << 26),
                _ => raw % (1 << 52),
            };
            let at = SimTime(wheel.now().0 + dt);
            wheel.push(at, i as u32);
            heap.push(at, i as u32);
        }
        let mut batch = Vec::new();
        while let Some(t) = wheel.pop_batch(&mut batch) {
            for &tagged in &batch {
                prop_assert_eq!(heap.pop(), Some((t, tagged)));
            }
            // The next pending event (if any) is strictly later.
            if let Some(next) = heap.peek_time() {
                prop_assert!(next > t);
            }
            batch.clear();
        }
        prop_assert!(heap.pop().is_none());
    }
}

/// Differential check against the reference heap on a seeded random
/// interleaving of pushes and pops with heavy time ties and
/// far-future outliers (the proptest suite widens this further).
#[test]
fn wheel_matches_reference_heap_on_random_interleavings() {
    for seed in 0..8 {
        let mut rng = DetRng::new(0xE0E0 + seed);
        let mut wheel = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut tag = 0u32;
        for _ in 0..2_000 {
            if rng.range(0, 3) > 0 || wheel.is_empty() {
                let base = wheel.now().0;
                let dt = match rng.range(0, 10) {
                    0 => 0,
                    1..=6 => rng.range(0, 1 << 12),
                    7 | 8 => rng.range(0, 1 << 30),
                    _ => rng.range(0, 1 << 45),
                };
                wheel.push(SimTime(base + dt), tag);
                heap.push(SimTime(base + dt), tag);
                tag += 1;
            } else {
                assert_eq!(wheel.pop(), heap.pop());
                assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
