//! Pull-based arrival feeds: the simulators draw arrivals lazily
//! instead of pre-pushing the whole trace into the event queue.
//!
//! Pre-pushing costs O(total invocations) queue memory up front — fine
//! for synthetic minute-scale traces, fatal for multi-day replays with
//! millions of invocations. A feed holds either the materialized
//! per-slot arrival lists (legacy generators) or a streaming
//! [`TraceSource`] (file-backed replays), and the fleet engine merges it
//! with the event queue one arrival at a time, so queue memory stays
//! O(pending events).
//!
//! # Byte-identity with the pre-push era
//!
//! The old constructors pushed arrivals slot-major *before* any other
//! event, so at any tick the arrivals held the lowest sequence numbers
//! and popped first, in slot order then FIFO. The merge reproduces that
//! exactly: a fed arrival is processed whenever its time is `<=` the
//! queue's next tick (the arrival wins ties), and the feed itself
//! yields in `(converted SimTime, slot, position)` order — the same
//! total order the queue's `(time, seq)` tie-break produced. The
//! `golden` and `stream_equivalence` suites pin this.

use sim_core::{SimDuration, SimTime};
use workloads::TraceSource;

/// A source of `(time, slot)` arrivals in non-decreasing time order.
///
/// `slot` is the feed-local arrival address: the index of a
/// [`crate::TenantTrace`] (for a single host, its flattened `(vm, dep)`
/// deployment index).
pub(crate) enum ArrivalFeed {
    Merged(MergedFeed),
    Stream(StreamFeed),
}

impl ArrivalFeed {
    /// A feed over materialized per-slot arrival lists (each sorted,
    /// in seconds). Arrivals at or past `duration_s` are dropped,
    /// mirroring the pre-push filter.
    pub fn merged(slots: Vec<Vec<f64>>, duration_s: f64) -> ArrivalFeed {
        ArrivalFeed::Merged(MergedFeed {
            cursors: vec![0; slots.len()],
            slots,
            duration_s,
            injected: 0,
        })
    }

    /// A feed over a streaming trace source. `origin` names the trace
    /// (its path) in mid-run parse panics; traces are expected to be
    /// validated up front, so an error here means the file changed
    /// underneath the run.
    pub fn stream(
        source: Box<dyn TraceSource>,
        duration_s: f64,
        origin: impl Into<String>,
    ) -> ArrivalFeed {
        ArrivalFeed::Stream(StreamFeed {
            source,
            origin: origin.into(),
            duration_ns: SimDuration::from_secs_f64(duration_s).0,
            next: None,
            primed: false,
            injected: 0,
        })
    }

    /// The next arrival's `(time, slot)` without consuming it.
    pub fn peek(&mut self) -> Option<(SimTime, usize)> {
        match self {
            ArrivalFeed::Merged(f) => f.peek(),
            ArrivalFeed::Stream(f) => f.peek(),
        }
    }

    /// Consumes and returns the next arrival.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let next = self.peek();
        if next.is_some() {
            match self {
                ArrivalFeed::Merged(f) => f.advance(),
                ArrivalFeed::Stream(f) => f.advance(),
            }
        }
        next
    }

    /// Arrivals handed to the simulator so far — the offered-load count
    /// and the feed's share of `events_processed`.
    pub fn injected(&self) -> u64 {
        match self {
            ArrivalFeed::Merged(f) => f.injected,
            ArrivalFeed::Stream(f) => f.injected,
        }
    }
}

/// Merge over materialized per-slot arrival lists.
pub(crate) struct MergedFeed {
    slots: Vec<Vec<f64>>,
    cursors: Vec<usize>,
    duration_s: f64,
    injected: u64,
}

impl MergedFeed {
    fn peek(&mut self) -> Option<(SimTime, usize)> {
        // Skip filtered-out arrivals first so they never shadow a live
        // one behind them (lists are sorted, so this only trims tails).
        for (slot, arr) in self.slots.iter().enumerate() {
            let c = &mut self.cursors[slot];
            while *c < arr.len() && arr[*c] >= self.duration_s {
                *c += 1;
            }
        }
        let mut best: Option<(SimTime, usize)> = None;
        for (slot, arr) in self.slots.iter().enumerate() {
            let c = self.cursors[slot];
            if c >= arr.len() {
                continue;
            }
            let at = SimTime::ZERO + SimDuration::from_secs_f64(arr[c]);
            // Strict `<`: on converted-time ties the lowest slot wins,
            // matching the old slot-major push order.
            if best.is_none_or(|(bt, _)| at < bt) {
                best = Some((at, slot));
            }
        }
        best
    }

    fn advance(&mut self) {
        if let Some((_, slot)) = self.peek() {
            self.cursors[slot] += 1;
            self.injected += 1;
        }
    }
}

/// Streaming trace feed with a one-arrival lookahead.
pub(crate) struct StreamFeed {
    source: Box<dyn TraceSource>,
    origin: String,
    duration_ns: u64,
    next: Option<(SimTime, usize)>,
    primed: bool,
    injected: u64,
}

impl StreamFeed {
    fn peek(&mut self) -> Option<(SimTime, usize)> {
        if !self.primed {
            self.primed = true;
            self.refill();
        }
        self.next
    }

    fn advance(&mut self) {
        if self.next.take().is_some() {
            self.injected += 1;
            self.refill();
        }
    }

    fn refill(&mut self) {
        match self.source.next_arrival() {
            Ok(Some(a)) => {
                // Trace times are non-decreasing, so the first arrival
                // past the horizon ends the feed.
                if a.t_ns < self.duration_ns {
                    self.next = Some((SimTime(a.t_ns), a.tenant));
                } else {
                    self.next = None;
                }
            }
            Ok(None) => self.next = None,
            Err(e) => panic!(
                "trace {}: {e} (mid-run parse failure — the trace was \
                 validated before the run, so the file changed underneath it)",
                self.origin
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arrival, FunctionKind, TraceError};

    fn drain(mut f: ArrivalFeed) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some((at, slot)) = f.pop() {
            out.push((at.0, slot));
        }
        assert_eq!(f.injected(), out.len() as u64);
        out
    }

    #[test]
    fn merged_feed_orders_by_time_then_slot() {
        let feed = ArrivalFeed::merged(vec![vec![1.0, 2.0, 2.0], vec![0.5, 2.0], vec![]], 10.0);
        let got = drain(feed);
        let ns = |s: f64| SimDuration::from_secs_f64(s).0;
        assert_eq!(
            got,
            vec![
                (ns(0.5), 1),
                (ns(1.0), 0),
                (ns(2.0), 0),
                (ns(2.0), 0),
                (ns(2.0), 1),
            ],
            "ties break by slot, then FIFO within a slot"
        );
    }

    #[test]
    fn merged_feed_filters_past_the_horizon() {
        let feed = ArrivalFeed::merged(vec![vec![1.0, 5.0, 9.0]], 5.0);
        assert_eq!(drain(feed).len(), 1, "t >= duration_s dropped");
    }

    struct FakeSource {
        kinds: Vec<FunctionKind>,
        arrivals: std::vec::IntoIter<Arrival>,
    }

    impl TraceSource for FakeSource {
        fn kinds(&self) -> &[FunctionKind] {
            &self.kinds
        }

        fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
            Ok(self.arrivals.next())
        }
    }

    #[test]
    fn stream_feed_cuts_off_at_the_horizon() {
        let mk = |t_ns: u64, tenant: usize| Arrival {
            t_ns,
            function: FunctionKind::Html,
            tenant,
            duration_s: None,
            memory_bytes: None,
        };
        let source = FakeSource {
            kinds: vec![FunctionKind::Html],
            arrivals: vec![mk(5, 0), mk(7, 1), mk(2_000_000_000, 0)].into_iter(),
        };
        let feed = ArrivalFeed::stream(Box::new(source), 2.0, "test");
        assert_eq!(drain(feed), vec![(5, 0), (7, 1)]);
    }
}
