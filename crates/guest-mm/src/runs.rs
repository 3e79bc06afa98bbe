//! Owned memory as ordered frame runs.
//!
//! A process's resident base pages and a cached file's pages are held
//! as a [`RunList`]: runs of frame-consecutive pages, kept in *slot
//! order*, the order in which the owner came to hold them. Faults
//! append, so a cold start that the buddy serves as long sequential
//! chunks costs one run per chunk, and exit frees one run at a time.
//!
//! Each run has a stable handle, its index in the list's slab. The
//! run's memmap extent names the handle in its `PageDesc.b` word, so a
//! page finds its place in the order as `handle` plus its offset from
//! the run's start. Runs are linked in order through the slab, which
//! makes inserting or splitting a run O(1); a split moves one side of
//! one run to an extent of its own.
//!
//! Two invariants hold for every run: its frames ascend from `start`,
//! and it never straddles a 128 MiB memory block, so one block's
//! counters serve it and the memmap holds it as exactly one extent
//! (growing, cutting or moving a run here is mirrored on that extent).

use mem_types::{FrameRange, Gfn, PAGES_PER_BLOCK};

use crate::page::NIL;

/// One run in the slab; a vacant slot chains the free slots through
/// `next`.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u64,
    len: u32,
    prev: u32,
    next: u32,
}

/// An owner's pages as an ordered, linked list of frame runs.
#[derive(Debug)]
pub struct RunList {
    slab: Vec<Run>,
    /// First vacant slab slot, or [`NIL`].
    vacant: u32,
    head: u32,
    tail: u32,
    pages: u64,
}

impl Default for RunList {
    fn default() -> Self {
        RunList {
            slab: Vec::new(),
            vacant: NIL,
            head: NIL,
            tail: NIL,
            pages: 0,
        }
    }
}

/// What [`RunList::swap_remove`] did, for the caller to mirror in the
/// pages' `b` words.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SwapRemoved {
    /// The owner's last page, now in the removed page's place, and the
    /// handle of the run that holds it there.
    pub moved: Option<(Gfn, u32)>,
    /// Pages split off into a new run, and that run's handle.
    pub split: Option<(FrameRange, u32)>,
}

/// Returns `true` if pages at `start` may join a run ending at `end`:
/// they continue it within its memory block.
pub(crate) fn continues(end: u64, start: Gfn) -> bool {
    end == start.0 && !start.0.is_multiple_of(PAGES_PER_BLOCK)
}

impl RunList {
    /// Creates an empty list.
    pub(crate) fn new() -> Self {
        RunList::default()
    }

    /// Returns the number of pages held.
    pub(crate) fn len(&self) -> u64 {
        self.pages
    }

    /// Returns the runs in order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = FrameRange> + '_ {
        self.handles().map(|(_, r)| r)
    }

    /// Returns the pages in order.
    pub(crate) fn pages(&self) -> impl Iterator<Item = Gfn> + '_ {
        self.runs()
            .flat_map(|r| (r.start.0..r.start.0 + r.count).map(Gfn))
    }

    /// Returns each run in order with its handle.
    pub(crate) fn handles(&self) -> impl Iterator<Item = (u32, FrameRange)> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let h = cur;
            let r = self.slab.get(h as usize)?;
            cur = r.next;
            Some((h, FrameRange::new(Gfn(r.start), r.len as u64)))
        })
    }

    /// Returns the run with handle `h`.
    pub(crate) fn run(&self, h: u32) -> FrameRange {
        let r = self.slab[h as usize];
        FrameRange::new(Gfn(r.start), r.len as u64)
    }

    /// Links a new run of `len` pages at `start` between `prev` and
    /// `next` (either may be [`NIL`]), returning its handle.
    fn link(&mut self, prev: u32, next: u32, start: Gfn, len: u64) -> u32 {
        let run = Run {
            start: start.0,
            len: len as u32,
            prev,
            next,
        };
        let h = match self.vacant {
            NIL => {
                self.slab.push(run);
                u32::try_from(self.slab.len() - 1).expect("run handles fit a page's b word")
            }
            h => {
                self.vacant = self.slab[h as usize].next;
                self.slab[h as usize] = run;
                h
            }
        };
        match prev {
            NIL => self.head = h,
            p => self.slab[p as usize].next = h,
        }
        match next {
            NIL => self.tail = h,
            n => self.slab[n as usize].prev = h,
        }
        h
    }

    /// Unlinks the (empty) run `h` and vacates its slot.
    fn unlink(&mut self, h: u32) {
        let Run { prev, next, .. } = self.slab[h as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
        self.slab[h as usize].next = self.vacant;
        self.vacant = h;
    }

    /// Appends `len` frame-consecutive pages at `start` (within one
    /// block) after the last page, returning the handle of the run that
    /// holds them: the last run, if they continue it, else a new one.
    pub(crate) fn append(&mut self, start: Gfn, len: u64) -> u32 {
        debug_assert_eq!(start.block(), Gfn(start.0 + len - 1).block());
        self.pages += len;
        if let Some(t) = self.slab.get_mut(self.tail as usize) {
            if continues(t.start + t.len as u64, start) {
                t.len += len as u32;
                return self.tail;
            }
        }
        self.link(self.tail, NIL, start, len)
    }

    /// Inserts `len` frame-consecutive pages at `start` (within one
    /// block) just before run `at`, returning the handle of the run that
    /// holds them: the preceding run, if they continue it, else a new
    /// one.
    pub(crate) fn insert_before(&mut self, at: u32, start: Gfn, len: u64) -> u32 {
        debug_assert_eq!(start.block(), Gfn(start.0 + len - 1).block());
        self.pages += len;
        let prev = self.slab[at as usize].prev;
        if let Some(p) = self.slab.get_mut(prev as usize) {
            if continues(p.start + p.len as u64, start) {
                p.len += len as u32;
                return prev;
            }
        }
        self.link(prev, at, start, len)
    }

    /// Drops the first `n` pages of run `h` (at most its length),
    /// unlinking it once empty. The remaining pages keep their handle.
    pub(crate) fn trim_front(&mut self, h: u32, n: u64) {
        let r = &mut self.slab[h as usize];
        debug_assert!(n <= r.len as u64);
        r.start += n;
        r.len -= n as u32;
        self.pages -= n;
        if r.len == 0 {
            self.unlink(h);
        }
    }

    /// Removes and returns up to `max` pages from the front of the
    /// first run (`None` when empty).
    pub(crate) fn pop_front(&mut self, max: u64) -> Option<FrameRange> {
        let r = self.slab.get(self.head as usize)?;
        let taken = FrameRange::new(Gfn(r.start), max.min(r.len as u64));
        self.trim_front(self.head, taken.count);
        Some(taken)
    }

    /// Removes and returns up to `max` pages from the back of the last
    /// run (`None` when empty).
    pub(crate) fn pop_back(&mut self, max: u64) -> Option<FrameRange> {
        let h = self.tail;
        let r = self.slab.get_mut(h as usize)?;
        let n = max.min(r.len as u64);
        r.len -= n as u32;
        let taken = FrameRange::new(Gfn(r.start + r.len as u64), n);
        self.pages -= n;
        if r.len == 0 {
            self.unlink(h);
        }
        Some(taken)
    }

    /// Removes page `g` of run `h`, moving the last page into its place
    /// (`Vec::swap_remove` on the flattened order).
    ///
    /// Run `h` splits around `g`. Of the two sides, the shorter one
    /// moves to a new run, whose pages the caller must re-point, so the
    /// cost is bounded by half of one run.
    pub(crate) fn swap_remove(&mut self, h: u32, g: Gfn) -> SwapRemoved {
        let pages = self.pages - 1;
        let last = self.pop_back(1).expect("the list holds g").start;
        let mut out = SwapRemoved {
            moved: None,
            split: None,
        };
        if last == g {
            return out;
        }
        // `g` is not the last page, so its run survived the pop.
        let r = self.slab[h as usize];
        debug_assert!(
            (r.start..r.start + r.len as u64).contains(&g.0),
            "{g:?} not in run {h}"
        );
        let before = g.0 - r.start;
        let after = r.len as u64 - before - 1;
        if before == 0 && after == 0 {
            // `g` is the whole run: `last` takes it over.
            self.slab[h as usize].start = last.0;
            out.moved = Some((last, h));
            return out;
        }
        if before <= after {
            // The prefix (possibly empty) moves out ahead of `last`; run
            // `h` keeps the suffix.
            let run = &mut self.slab[h as usize];
            run.start = g.0 + 1;
            run.len = after as u32;
            if before > 0 {
                let split = FrameRange::new(Gfn(g.0 - before), before);
                out.split = Some((split, self.insert_before(h, split.start, before)));
            }
            out.moved = Some((last, self.insert_before(h, last, 1)));
        } else {
            // Run `h` keeps the prefix; `last`, then the suffix (possibly
            // empty), follow it.
            self.slab[h as usize].len = before as u32;
            let next = self.slab[h as usize].next;
            let m = self.link(h, next, last, 1);
            out.moved = Some((last, m));
            if after > 0 {
                let split = FrameRange::new(Gfn(g.0 + 1), after);
                out.split = Some((split, self.link(m, next, split.start, after)));
            }
        }
        self.pages = pages;
        out
    }

    /// Returns the position in the order of page `g`, which run `h`
    /// holds (O(runs)), or `None` if `h` is no run holding `g`.
    pub(crate) fn slot(&self, h: u32, g: Gfn) -> Option<u64> {
        let r = self.slab.get(h as usize)?;
        if r.len == 0 || !(r.start..r.start + r.len as u64).contains(&g.0) {
            return None;
        }
        let before: u64 = self
            .handles()
            .take_while(|&(x, _)| x != h)
            .map(|(_, r)| r.count)
            .sum();
        Some(before + g.0 - r.start)
    }

    /// Checks the list's structure: links agree both ways, runs are
    /// non-empty and within one block, and their lengths sum to the
    /// page count.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    pub(crate) fn assert_consistent(&self) {
        let (mut prev, mut pages, mut runs) = (NIL, 0u64, 0usize);
        for (h, r) in self.handles() {
            assert_eq!(self.slab[h as usize].prev, prev, "run {h} back link");
            assert!(r.count > 0, "empty run {h}");
            assert_eq!(
                r.start.block(),
                Gfn(r.end().0 - 1).block(),
                "run {h} straddles a block"
            );
            pages += r.count;
            runs += 1;
            prev = h;
            assert!(runs <= self.slab.len(), "run list loops");
        }
        assert_eq!(self.tail, prev, "tail link");
        assert_eq!(pages, self.pages, "run lengths drifted from the count");
        let mut vacant = 0;
        let mut cur = self.vacant;
        while cur != NIL {
            vacant += 1;
            cur = self.slab[cur as usize].next;
            assert!(vacant <= self.slab.len(), "vacant chain loops");
        }
        assert_eq!(runs + vacant, self.slab.len(), "slab slots leaked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(l: &RunList) -> Vec<u64> {
        l.pages().map(|g| g.0).collect()
    }

    #[test]
    fn appends_extend_within_a_block_only() {
        let mut l = RunList::new();
        assert_eq!(l.append(Gfn(10), 4), 0);
        assert_eq!(l.append(Gfn(14), 2), 0, "continues the last run");
        assert_eq!(l.append(Gfn(3), 1), 1);
        let edge = PAGES_PER_BLOCK;
        assert_eq!(l.append(Gfn(edge - 2), 2), 2);
        assert_eq!(l.append(Gfn(edge), 2), 3, "a block boundary splits");
        assert_eq!(l.len(), 11);
        assert_eq!(l.runs().count(), 4);
        l.assert_consistent();
    }

    #[test]
    fn pops_take_from_either_end() {
        let mut l = RunList::new();
        l.append(Gfn(0), 3);
        l.append(Gfn(8), 2);
        assert_eq!(l.pop_back(1), Some(FrameRange::new(Gfn(9), 1)));
        assert_eq!(l.pop_back(5), Some(FrameRange::new(Gfn(8), 1)));
        l.append(Gfn(5), 2);
        assert_eq!(l.pop_back(1), Some(FrameRange::new(Gfn(6), 1)));
        assert_eq!(l.pop_front(2), Some(FrameRange::new(Gfn(0), 2)));
        assert_eq!(flat(&l), vec![2, 5]);
        assert_eq!(l.pop_back(3), Some(FrameRange::new(Gfn(5), 1)));
        assert_eq!(l.pop_front(5), Some(FrameRange::new(Gfn(2), 1)));
        assert_eq!((l.pop_back(1), l.pop_front(1)), (None, None));
        l.assert_consistent();
    }

    #[test]
    fn swap_remove_matches_the_vector_rule() {
        // Every position of a 3-run list, checked against Vec::swap_remove.
        for victim in 0..9usize {
            let mut l = RunList::new();
            l.append(Gfn(100), 4);
            l.append(Gfn(200), 3);
            l.append(Gfn(300), 2);
            let mut want = flat(&l);
            let g = Gfn(want[victim]);
            let h = l.handles().find(|(_, r)| r.contains(g)).unwrap().0;
            let out = l.swap_remove(h, g);
            want.swap_remove(victim);
            assert_eq!(flat(&l), want, "victim {victim}");
            if let Some((moved, mh)) = out.moved {
                assert!(l.run(mh).contains(moved));
            }
            if let Some((split, sh)) = out.split {
                assert_eq!(l.run(sh), split);
                assert!(split.count <= 1, "the shorter side moves");
            }
            l.assert_consistent();
        }
    }

    #[test]
    fn insert_before_joins_a_preceding_run() {
        let mut l = RunList::new();
        let a = l.append(Gfn(100), 4);
        let h = l.insert_before(a, Gfn(50), 2);
        assert_eq!(
            l.insert_before(a, Gfn(52), 3),
            h,
            "continues its predecessor"
        );
        l.trim_front(a, 4);
        assert_eq!(flat(&l), vec![50, 51, 52, 53, 54]);
        assert_eq!(l.runs().count(), 1);
        assert_eq!(l.append(Gfn(60), 1), a, "the vacated slot is reused");
        assert_eq!(flat(&l), vec![50, 51, 52, 53, 54, 60]);
        assert_eq!(l.slot(a, Gfn(60)), Some(5));
        assert_eq!(l.slot(h, Gfn(53)), Some(3));
        assert_eq!(l.slot(h, Gfn(60)), None, "another run's page");
        l.assert_consistent();
    }
}
