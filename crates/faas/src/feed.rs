//! Pull-based arrival feeds: the simulators draw arrivals lazily
//! instead of pre-pushing the whole trace into the event queue.
//!
//! Pre-pushing costs O(total invocations) queue memory up front — fine
//! for synthetic minute-scale traces, fatal for multi-day replays with
//! millions of invocations. A feed wraps a [`TraceSource`] — a
//! file-backed replay, or materialized per-tenant arrival lists behind
//! [`workloads::MaterializedSource`] — and the fleet engine merges it
//! with the event queue one arrival at a time, so queue memory stays
//! O(pending events).
//!
//! # Byte-identity with the pre-push era
//!
//! The old constructors pushed arrivals slot-major *before* any other
//! event, so at any tick the arrivals held the lowest sequence numbers
//! and popped first, in slot order then FIFO. The merge reproduces that
//! exactly: a fed arrival is processed whenever its time is `<=` the
//! queue's next tick (the arrival wins ties), and sources yield in
//! `(converted SimTime, slot, position)` order — the same total order
//! the queue's `(time, seq)` tie-break produced. The `golden` and
//! `stream_equivalence` suites pin this.

use sim_core::{SimDuration, SimTime};
use workloads::TraceSource;

/// A source of `(time, slot)` arrivals in non-decreasing time order,
/// with a one-arrival lookahead.
///
/// `slot` is the feed-local arrival address: the index of a
/// [`crate::TenantTrace`] (for a single host, its flattened `(vm, dep)`
/// deployment index).
pub(crate) struct ArrivalFeed {
    source: Box<dyn TraceSource>,
    origin: String,
    duration_ns: u64,
    next: Option<(SimTime, usize)>,
    primed: bool,
    injected: u64,
    error: Option<String>,
}

impl ArrivalFeed {
    /// A feed over a trace source, cut off at `duration_s`. `origin`
    /// names the trace (its path) in a mid-run read failure
    /// ([`Self::error`]).
    pub(crate) fn new(
        source: Box<dyn TraceSource>,
        duration_s: f64,
        origin: impl Into<String>,
    ) -> ArrivalFeed {
        ArrivalFeed {
            source,
            origin: origin.into(),
            duration_ns: SimDuration::from_secs_f64(duration_s).0,
            next: None,
            primed: false,
            injected: 0,
            error: None,
        }
    }

    /// The next arrival's `(time, slot)` without consuming it.
    pub(crate) fn peek(&mut self) -> Option<(SimTime, usize)> {
        if !self.primed {
            self.primed = true;
            self.refill();
        }
        self.next
    }

    /// Consumes and returns the next arrival.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, usize)> {
        let next = self.peek();
        if next.is_some() {
            self.next = None;
            self.injected += 1;
            self.refill();
        }
        next
    }

    /// Arrivals handed to the simulator so far — the offered-load count
    /// and the feed's share of `events_processed`.
    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }

    /// The read failure that ended the feed early, naming the trace
    /// and the offending line. A run preflights its trace, so this is
    /// set only when the file was not checked or changed during the
    /// run; the arrivals before the bad row were still fed.
    pub(crate) fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn refill(&mut self) {
        self.next = match self.source.next_arrival() {
            // Trace times are non-decreasing, so the first arrival past
            // the horizon ends the feed.
            Ok(Some(a)) => (a.t_ns < self.duration_ns).then_some((SimTime(a.t_ns), a.tenant)),
            Ok(None) => None,
            Err(e) => {
                self.error = Some(format!("trace {}: {e} (read during the run)", self.origin));
                None
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Arrival, FunctionKind, MaterializedSource, TenantLoad, TraceError};

    fn drain(mut f: ArrivalFeed) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some((at, slot)) = f.pop() {
            out.push((at.0, slot));
        }
        assert_eq!(f.injected(), out.len() as u64);
        out
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
        let mk = |t_ns: u64, tenant: usize| Arrival { t_ns, tenant };
        let source = FakeSource {
            kinds: vec![FunctionKind::Html],
            arrivals: vec![mk(5, 0), mk(7, 1), mk(2_000_000_000, 0)].into_iter(),
        };
        let feed = ArrivalFeed::new(Box::new(source), 2.0, "test");
        assert_eq!(drain(feed), vec![(5, 0), (7, 1)]);

        // Materialized lists end at the horizon too: `t >= duration_s`
        // is never fed.
        let source = MaterializedSource::new(vec![TenantLoad {
            kind: FunctionKind::Html,
            arrivals: vec![1.0, 5.0, 9.0],
        }]);
        let feed = ArrivalFeed::new(Box::new(source), 5.0, "test");
        assert_eq!(drain(feed), vec![(1_000_000_000, 0)]);
    }

    struct FailingSource(u64);

    impl TraceSource for FailingSource {
        fn kinds(&self) -> &[FunctionKind] {
            &[FunctionKind::Html]
        }

        fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
            self.0 += 1;
            if self.0 == 3 {
                return Err(TraceError {
                    line: 7,
                    msg: "bad count".to_string(),
                });
            }
            Ok(Some(Arrival {
                t_ns: self.0,
                tenant: 0,
            }))
        }
    }

    #[test]
    fn a_read_failure_ends_the_feed_and_is_recorded() {
        let mut feed = ArrivalFeed::new(Box::new(FailingSource(0)), 2.0, "t.csv");
        assert_eq!(feed.pop(), Some((SimTime(1), 0)));
        assert_eq!(feed.error(), None);
        assert_eq!(feed.pop(), Some((SimTime(2), 0)));
        assert_eq!(feed.pop(), None);
        assert_eq!(feed.injected(), 2);
        let e = feed.error().expect("recorded");
        assert!(e.starts_with("trace t.csv: line 7: bad count"), "{e}");
    }
}
