//! A deterministic event queue.
//!
//! [`EventQueue<E>`] pops events in `(time, seq)` order: earliest
//! instant first, and among events at one instant, the one scheduled
//! first. Both ways of scheduling draw `seq` from one counter, so this
//! FIFO tie-break holds across the whole queue, and it is what makes
//! whole-system runs reproducible.
//!
//! Pending events live in two sources, chosen by how they are timed:
//!
//! * **Re-armable timers** ([`EventQueue::set_timer`]): at most one
//!   pending entry per key, replaced or cancelled in place (Linux's
//!   `mod_timer`), in an indexed binary heap over the armed keys. A
//!   re-arm takes the next sequence number exactly as a fresh push
//!   would, so it orders like one; the superseded entry is gone rather
//!   than left to pop stale. A prediction that later events keep
//!   moving — a VM's next CPU completion, an idle instance's
//!   keep-alive expiry — is a timer.
//! * **A binary heap** ([`EventQueue::push`]) for everything else.
//!
//! A pop takes the smaller `(time, seq)` of the timer heap's root and
//! the heap's root, so the queue pops in exactly the order of one
//! reference binary heap — a property the differential tests in
//! `tests/queue_order.rs` pin.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Marks a disarmed key in [`Timers::pos`].
const DISARMED: usize = usize::MAX;

/// One pending event of the heap.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

// Reversed, so the max-heap `BinaryHeap` pops the smallest (at, seq).
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

/// Re-armable timers: an indexed binary min-heap over the armed keys.
struct Timers<E> {
    /// `(at, seq, key)` of every armed timer, heap-ordered on `(at, seq)`.
    heap: Vec<(u64, u64, usize)>,
    /// Per key: its index in `heap`, or [`DISARMED`].
    pos: Vec<usize>,
    /// Per key: the armed timer's event.
    events: Vec<Option<E>>,
}

impl<E> Timers<E> {
    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].2] = i;
        self.pos[self.heap[j].2] = j;
    }

    fn less(&self, i: usize, j: usize) -> bool {
        let (a, b) = (&self.heap[i], &self.heap[j]);
        (a.0, a.1) < (b.0, b.1)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(i, parent) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.heap.len() && self.less(l, min) {
                min = l;
            }
            if r < self.heap.len() && self.less(r, min) {
                min = r;
            }
            if min == i {
                return;
            }
            self.swap(i, min);
            i = min;
        }
    }

    /// Moves heap node `i` to where its (changed) key belongs.
    fn fix(&mut self, i: usize) {
        if i > 0 && self.less(i, (i - 1) / 2) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Disarms the timer at heap index `i`, returning its `(at, event)`.
    fn remove_at(&mut self, i: usize) -> (u64, E) {
        let last = self.heap.len() - 1;
        self.swap(i, last);
        let (at, _, key) = self.heap.pop().expect("i is a heap index");
        self.pos[key] = DISARMED;
        if i < self.heap.len() {
            self.fix(i);
        }
        (
            at,
            self.events[key].take().expect("armed timers hold an event"),
        )
    }
}

/// Where the next event to pop waits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Timer,
}

/// A time-ordered, deterministic event queue: re-armable timers and a
/// binary heap behind one `(time, seq)` order.
///
/// # Examples
///
/// ```
/// use sim_core::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// let cpu = q.timer_keys(1);
/// q.push(SimTime::ZERO + SimDuration::millis(3), "plug done");
/// q.push(SimTime::ZERO + SimDuration::millis(2), "sample");
/// q.set_timer(cpu, Some(SimTime::ZERO + SimDuration::millis(4)), "cpu");
/// // Re-armed earlier: the 4 ms prediction is replaced, not left stale.
/// q.set_timer(cpu, Some(SimTime::ZERO + SimDuration::millis(1)), "cpu");
/// assert_eq!(q.pop().unwrap().1, "cpu");
/// assert_eq!(q.pop().unwrap().1, "sample");
/// assert_eq!(q.pop().unwrap().1, "plug done");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    timers: Timers<E>,
    next_seq: u64,
    now: SimTime,
    len: usize,
    processed: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            timers: Timers {
                heap: Vec::new(),
                pos: Vec::new(),
                events: Vec::new(),
            },
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
            processed: 0,
            peak_len: 0,
        }
    }

    /// Returns the current simulation time (the timestamp of the last
    /// popped event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn check_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule in the past: {at} < now {}",
            self.now
        );
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn grew(&mut self) {
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.check_not_past(at);
        let seq = self.take_seq();
        self.heap.push(Entry {
            at: at.0,
            seq,
            event,
        });
        self.grew();
    }

    /// Reserves `n` fresh timer keys, disarmed, and returns the first:
    /// the keys are `first..first + n`.
    pub fn timer_keys(&mut self, n: usize) -> usize {
        let first = self.timers.pos.len();
        self.timers.pos.resize(first + n, DISARMED);
        self.timers.events.resize_with(first + n, || None);
        first
    }

    /// Arms timer `key` to deliver `event` at `at`, replacing its
    /// pending entry if it has one; `None` disarms it and drops
    /// `event`. An armed entry takes the next sequence number, so it
    /// orders exactly as a fresh [`Self::push`] at `at` would.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not reserved by [`Self::timer_keys`] or `at`
    /// is in the past.
    pub fn set_timer(&mut self, key: usize, at: Option<SimTime>, event: E) {
        let i = self.timers.pos[key];
        let Some(at) = at else {
            if i != DISARMED {
                self.timers.remove_at(i);
                self.len -= 1;
            }
            return;
        };
        self.check_not_past(at);
        let seq = self.take_seq();
        self.timers.events[key] = Some(event);
        if i == DISARMED {
            let i = self.timers.heap.len();
            self.timers.heap.push((at.0, seq, key));
            self.timers.pos[key] = i;
            self.timers.sift_up(i);
            self.grew();
        } else {
            self.timers.heap[i] = (at.0, seq, key);
            self.timers.fix(i);
        }
    }

    /// The source holding the smaller pending `(time, seq)`, and its
    /// time.
    fn next(&self) -> Option<(u64, Source)> {
        let mut best = self.heap.peek().map(|e| (e.key(), Source::Heap));
        if let Some(&(at, seq, _)) = self.timers.heap.first() {
            if best.is_none_or(|(k, _)| (at, seq) < k) {
                best = Some(((at, seq), Source::Timer));
            }
        }
        best.map(|((at, _), src)| (at, src))
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, src) = self.next()?;
        Some(self.take(src))
    }

    /// Pops the earliest event if it is due strictly before `limit`, as
    /// [`Self::pop`] does; otherwise leaves the queue as it is. One
    /// search where [`Self::peek_time`] and a pop would take two.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (at, src) = self.next()?;
        (at < limit.0).then(|| self.take(src))
    }

    /// Removes the front event of `src` and advances the clock to it.
    fn take(&mut self, src: Source) -> (SimTime, E) {
        let (at, event) = match src {
            Source::Heap => {
                let e = self.heap.pop().expect("peeked");
                (e.at, e.event)
            }
            Source::Timer => self.timers.remove_at(0),
        };
        self.len -= 1;
        self.processed += 1;
        debug_assert!(at >= self.now.0);
        self.now = SimTime(at);
        (self.now, event)
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(at, _)| SimTime(at))
    }

    /// Returns the number of pending events (armed timers included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events popped over the queue's lifetime (the events/sec
    /// numerator of `repro perf`). Re-armed and disarmed timer entries
    /// never pop, so they are not counted.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), 'c');
        q.push(SimTime(10), 'a');
        q.push(SimTime(20), 'b');
        assert_eq!(q.pop(), Some((SimTime(10), 'a')));
        assert_eq!(q.pop(), Some((SimTime(20), 'b')));
        assert_eq!(q.pop(), Some((SimTime(30), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime(100), ());
        q.pop();
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), ());
        q.pop();
        q.push(SimTime(50), ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn rejects_past_timers() {
        let mut q = EventQueue::new();
        let k = q.timer_keys(1);
        q.push(SimTime(100), ());
        q.pop();
        q.set_timer(k, Some(SimTime(50)), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::ZERO + SimDuration::secs(1), 1);
        q.push(SimTime::ZERO + SimDuration::millis(1), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(1_000_000)));
    }

    #[test]
    fn same_instant_push_following_a_pop_goes_behind_pending() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), 0);
        q.push(SimTime(7), 1);
        assert_eq!(q.pop(), Some((SimTime(7), 0)));
        // A push at the live instant carries a higher sequence number
        // than everything already pending there.
        q.push(SimTime(7), 2);
        assert_eq!(q.pop(), Some((SimTime(7), 1)));
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_across_sources_pop_in_push_order() {
        let mut q = EventQueue::new();
        let k = q.timer_keys(2);
        q.push(SimTime(7), 0);
        q.set_timer(k, Some(SimTime(7)), 1);
        q.push(SimTime(7), 2);
        q.set_timer(k + 1, Some(SimTime(7)), 3);
        // Re-arming at the same instant moves the timer behind the rest.
        q.set_timer(k, Some(SimTime(7)), 4);
        q.push(SimTime(7), 5);
        assert_eq!(q.len(), 5);
        for tag in [0, 2, 3, 4, 5] {
            assert_eq!(q.pop(), Some((SimTime(7), tag)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn disarmed_and_superseded_timers_never_pop() {
        let mut q = EventQueue::new();
        let k = q.timer_keys(3);
        for key in k..k + 3 {
            q.set_timer(key, Some(SimTime(10 + key as u64)), key);
        }
        q.set_timer(k + 1, None, 0);
        q.set_timer(k + 2, Some(SimTime(3)), k + 2);
        q.set_timer(k + 2, Some(SimTime(30)), k + 2);
        // Disarming a disarmed key is a no-op.
        q.set_timer(k + 1, None, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime(10), k)));
        assert_eq!(q.pop(), Some((SimTime(30), k + 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 2);
        // A fired timer is disarmed and can be armed again.
        q.set_timer(k, Some(SimTime(40)), k);
        assert_eq!(q.pop(), Some((SimTime(40), k)));
    }

    #[test]
    fn far_future_events_pop_last_from_both_sources() {
        let mut q = EventQueue::new();
        let k = q.timer_keys(2);
        q.set_timer(k, Some(SimTime(u64::MAX)), 2);
        q.push(SimTime(u64::MAX), 1);
        q.push(SimTime(1 << 40) + SimDuration(1 << 62), 0);
        // A delay past the end of time saturates at `u64::MAX`.
        q.set_timer(k + 1, Some(SimTime(1 << 40) + SimDuration(u64::MAX)), 3);
        assert_eq!(q.pop(), Some((SimTime((1 << 40) + (1 << 62)), 0)));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), 2)));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), 1)));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_leaves_events_at_or_after_the_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 'a');
        q.push(SimTime(9), 'b');
        assert_eq!(q.pop_before(SimTime(5)), None);
        assert_eq!(q.pop_before(SimTime(6)), Some((SimTime(5), 'a')));
        assert_eq!(q.pop_before(SimTime(9)), None);
        assert_eq!((q.len(), q.now()), (1, SimTime(5)));
        assert_eq!(q.pop_before(SimTime(u64::MAX)), Some((SimTime(9), 'b')));
        assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
    }

    #[test]
    fn counters_track_processed_and_peak() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(i), i);
        }
        assert_eq!(q.peak_len(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 10);
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 0);
    }
}
