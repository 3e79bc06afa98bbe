//! Contiguous guest-frame ranges.

use core::fmt;

use crate::Gfn;

/// A contiguous range of guest page frames `[start, start + count)`.
///
/// Ranges are how plug/unplug requests, EPT populate/release operations
/// and `madvise` calls describe memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FrameRange {
    /// First frame in the range.
    pub start: Gfn,
    /// Number of frames.
    pub count: u64,
}

impl FrameRange {
    /// Creates a range from its first frame and length in frames.
    pub const fn new(start: Gfn, count: u64) -> Self {
        FrameRange { start, count }
    }

    /// Returns the first frame past the end of the range.
    pub const fn end(&self) -> Gfn {
        Gfn(self.start.0 + self.count)
    }

    /// Returns `true` if `g` lies within the range.
    pub const fn contains(&self, g: Gfn) -> bool {
        g.0 >= self.start.0 && g.0 < self.start.0 + self.count
    }

    /// Returns `true` if the two ranges share at least one frame.
    pub const fn overlaps(&self, other: &FrameRange) -> bool {
        self.start.0 < other.start.0 + other.count && other.start.0 < self.start.0 + self.count
    }

    /// Iterates over every frame in the range.
    pub fn iter(&self) -> impl Iterator<Item = Gfn> + '_ {
        (self.start.0..self.start.0 + self.count).map(Gfn)
    }

    /// Returns the intersection of the two ranges, or `None` if disjoint.
    pub fn intersect(&self, other: &FrameRange) -> Option<FrameRange> {
        let lo = self.start.0.max(other.start.0);
        let hi = (self.start.0 + self.count).min(other.start.0 + other.count);
        if lo < hi {
            Some(FrameRange {
                start: Gfn(lo),
                count: hi - lo,
            })
        } else {
            None
        }
    }
}

impl fmt::Display for FrameRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gfn[{:#x}..{:#x})",
            self.start.0,
            self.start.0 + self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_overlaps() {
        let a = FrameRange::new(Gfn(10), 5);
        assert!(a.contains(Gfn(10)));
        assert!(a.contains(Gfn(14)));
        assert!(!a.contains(Gfn(15)));
        assert!(!a.contains(Gfn(9)));

        let b = FrameRange::new(Gfn(14), 2);
        let c = FrameRange::new(Gfn(15), 2);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn intersect() {
        let a = FrameRange::new(Gfn(0), 10);
        let b = FrameRange::new(Gfn(5), 10);
        assert_eq!(a.intersect(&b), Some(FrameRange::new(Gfn(5), 5)));
        let c = FrameRange::new(Gfn(20), 1);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn iter_yields_every_frame() {
        let r = FrameRange::new(Gfn(3), 3);
        let v: Vec<_> = r.iter().collect();
        assert_eq!(v, vec![Gfn(3), Gfn(4), Gfn(5)]);
        assert_eq!(r.end(), Gfn(6));
    }
}
