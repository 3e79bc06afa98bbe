//! A deterministic event queue.
//!
//! [`EventQueue<E>`] pops events in `(time, seq)` order: earliest
//! instant first, and among events at one instant, the one scheduled
//! first. Both ways of scheduling draw `seq` from one counter, so this
//! FIFO tie-break holds across the whole queue, and it is what makes
//! whole-system runs reproducible.
//!
//! Every pending event sits in one indexed binary min-heap on
//! `(time, seq)`, under a key. A key is scheduled one of two ways:
//!
//! * **Re-armable timers** ([`EventQueue::set_timer`]): a key reserved
//!   by [`EventQueue::timer_keys`] holds at most one pending event,
//!   replaced or cancelled in place (Linux's `mod_timer`). A re-arm
//!   takes the next sequence number exactly as a fresh push would, so
//!   it orders like one; the superseded entry is gone rather than left
//!   to pop stale. A prediction that later events keep moving — a VM's
//!   next CPU completion, an idle instance's keep-alive expiry — is a
//!   timer.
//! * **One-shot events** ([`EventQueue::push`]) for everything else: a
//!   push takes a key from a free list and arms it as a timer; the key
//!   goes back to the list when its event pops.
//!
//! So the queue pops in exactly the order of one reference binary heap
//! — a property the differential tests in `tests/queue_order.rs` pin.

use crate::time::SimTime;

/// Marks a disarmed key in [`EventQueue::pos`].
const DISARMED: usize = usize::MAX;

/// A time-ordered, deterministic event queue: re-armable timers and
/// one-shot events in one indexed heap behind one `(time, seq)` order.
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
    /// `(at, seq, key)` of every pending event, heap-ordered on
    /// `(at, seq)`.
    heap: Vec<(u64, u64, usize)>,
    /// Per key: its index in `heap`, or [`DISARMED`].
    pos: Vec<usize>,
    /// Per key: its pending event.
    events: Vec<Option<E>>,
    /// Per key: `true` for a one-shot key of [`Self::push`].
    one_shot: Vec<bool>,
    /// One-shot keys holding no event.
    free: Vec<usize>,
    next_seq: u64,
    now: SimTime,
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
            heap: Vec::new(),
            pos: Vec::new(),
            events: Vec::new(),
            one_shot: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
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

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.check_not_past(at);
        let key = self.free.pop().unwrap_or_else(|| {
            let key = self.timer_keys(1);
            self.one_shot[key] = true;
            key
        });
        self.events[key] = Some(event);
        self.arm(key, at);
    }

    /// Reserves `n` fresh timer keys, disarmed, and returns the first:
    /// the keys are `first..first + n`.
    pub fn timer_keys(&mut self, n: usize) -> usize {
        let first = self.pos.len();
        self.pos.resize(first + n, DISARMED);
        self.events.resize_with(first + n, || None);
        self.one_shot.resize(first + n, false);
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
        assert!(!self.one_shot[key], "key {key} is not a timer key");
        let Some(at) = at else {
            let i = self.pos[key];
            if i != DISARMED {
                self.remove_at(i);
                self.events[key] = None;
            }
            return;
        };
        self.check_not_past(at);
        self.events[key] = Some(event);
        self.arm(key, at);
    }

    /// Schedules `key`'s event at `at` under the next sequence number,
    /// moving its heap entry if it has one.
    fn arm(&mut self, key: usize, at: SimTime) {
        let entry = (at.0, self.next_seq, key);
        self.next_seq += 1;
        let i = self.pos[key];
        if i == DISARMED {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
            self.peak_len = self.peak_len.max(self.heap.len());
        } else {
            self.heap[i] = entry;
            self.fix(i);
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        (!self.heap.is_empty()).then(|| self.take_front())
    }

    /// Pops the earliest event if it is due strictly before `limit`, as
    /// [`Self::pop`] does; otherwise leaves the queue as it is. One
    /// look at the heap's root where [`Self::peek_time`] and a pop would
    /// take two.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let &(at, _, _) = self.heap.first()?;
        (at < limit.0).then(|| self.take_front())
    }

    /// Removes the heap's root, frees its key if it is one-shot and
    /// advances the clock to it.
    fn take_front(&mut self) -> (SimTime, E) {
        let (at, key) = self.remove_at(0);
        let event = self.events[key].take().expect("armed keys hold an event");
        if self.one_shot[key] {
            self.free.push(key);
        }
        self.processed += 1;
        debug_assert!(at >= self.now.0);
        self.now = SimTime(at);
        (self.now, event)
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&(at, _, _)| SimTime(at))
    }

    /// Returns the number of pending events (armed timers included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    // --- The indexed heap ---------------------------------------------------

    /// The `(at, seq)` order of heap node `i`.
    fn order(&self, i: usize) -> (u64, u64) {
        let (at, seq, _) = self.heap[i];
        (at, seq)
    }

    /// Puts `entry` at heap index `i`, recording its position.
    fn place(&mut self, i: usize, entry: (u64, u64, usize)) {
        self.heap[i] = entry;
        self.pos[entry.2] = i;
    }

    /// Moves heap node `i` towards the root, shifting each later parent
    /// it passes down a level.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if (entry.0, entry.1) >= self.order(parent) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Moves heap node `i` towards the leaves, shifting each earlier
    /// child it passes up a level.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.order(child + 1) < self.order(child) {
                child += 1;
            }
            if (entry.0, entry.1) <= self.order(child) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    /// Moves heap node `i` to where its (changed) entry belongs.
    fn fix(&mut self, i: usize) {
        if i > 0 && self.order(i) < self.order((i - 1) / 2) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Unlinks heap node `i` and disarms its key, returning its
    /// `(at, key)`; the key's event stays for the caller.
    fn remove_at(&mut self, i: usize) -> (u64, usize) {
        let (at, _, key) = self.heap[i];
        let last = self.heap.pop().expect("i is a heap index");
        self.pos[key] = DISARMED;
        if i < self.heap.len() {
            self.place(i, last);
            self.fix(i);
        }
        (at, key)
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

    /// A long hold model — every pop followed by a push, so the pending
    /// count stays fixed, with timers re-armed and disarmed in between —
    /// must recycle popped one-shot keys: the key space never grows
    /// beyond the peak pending count plus the reserved timer keys.
    #[test]
    fn hold_model_recycles_one_shot_keys() {
        const DEPTH: u64 = 128;
        const TIMERS: usize = 8;
        let mut q = EventQueue::new();
        let k = q.timer_keys(TIMERS);
        for i in 0..DEPTH {
            q.push(SimTime(i * 7 % 97), None);
        }
        for i in 0..100_000u64 {
            let (now, timer) = q.pop().expect("the hold model keeps events pending");
            if timer.is_none() {
                q.push(now + SimDuration(1 + i * 31 % 1_000), None);
            }
            let key = k + (i as usize % TIMERS);
            let at = (i % 5 != 0).then(|| now + SimDuration(i * 17 % 2_000));
            q.set_timer(key, at, Some(key));
            assert!(
                q.pos.len() <= q.peak_len() + TIMERS,
                "{} keys for a peak of {} pending",
                q.pos.len(),
                q.peak_len()
            );
        }
        // The pushes never held more than `DEPTH` one-shot keys at once.
        assert_eq!(q.pos.len(), DEPTH as usize + TIMERS);
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
