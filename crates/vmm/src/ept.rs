//! The nested (second-stage) page table of one VM.
//!
//! Guest frames are backed by host memory lazily: the first guest touch
//! of a fresh page triggers a nested page fault (a VM exit) that maps a
//! host frame. This is why plugging is cheap but first-touch of freshly
//! plugged memory taxes cold starts by 3-35 % (§6.2.1), and why the host
//! does not see guest frees until the VMM `madvise`s ranges away
//! (Figure 1's flat host line).
//!
//! Besides the bitmap of backed frames, the EPT keeps a count of backed
//! frames per 128 MiB memory block, so the common whole-block cases cost
//! no bitmap work beyond the writes themselves:
//!
//! * releasing a whole block returns its count and clears its words
//!   without a popcount, and writes nothing when the count is 0 (a
//!   Squeezy partition's untouched blocks);
//! * a range of a block with no backed frame is backed, or counted as
//!   unbacked, without reading the bitmap, and a range of a fully backed
//!   block is neither read nor written;
//! * only a range of a partly backed block reads and popcounts its
//!   words.
//!
//! A release from a block with no backed frame, or a populate of a fully
//! backed one, writes no bitmap word, so the pages of an idle region's
//! bitmap are never touched. The bitmap's count of set bits stays
//! exact, so `Ept::backed_pages` is O(1).

use mem_types::{Bitmap, FrameRange, Gfn, PAGES_PER_BLOCK, PAGE_SIZE};

/// Per-VM EPT state: which guest frames have host backing.
pub struct Ept {
    backed: Bitmap,
    /// Backed frames of each memory block.
    per_block: Vec<u32>,
}

/// Splits `range` at block boundaries into `(block, first frame,
/// frames)` pieces, in address order.
fn pieces(range: FrameRange) -> impl Iterator<Item = (usize, usize, u64)> {
    let (mut g, end) = (range.start.0, range.end().0);
    std::iter::from_fn(move || {
        (g < end).then(|| {
            let s = g / PAGES_PER_BLOCK;
            let stop = end.min((s + 1) * PAGES_PER_BLOCK);
            let piece = (s as usize, g as usize, stop - g);
            g = stop;
            piece
        })
    })
}

impl Ept {
    /// Creates an EPT covering `frames` guest frames, none backed.
    pub(crate) fn new(frames: u64) -> Self {
        Ept {
            backed: Bitmap::new(frames as usize),
            per_block: vec![0; frames.div_ceil(PAGES_PER_BLOCK) as usize],
        }
    }

    /// Returns the number of frames of block `s` (the last block of a
    /// map that is not a whole number of blocks is short).
    fn block_len(&self, s: usize) -> u64 {
        (self.backed.len() as u64 - s as u64 * PAGES_PER_BLOCK).min(PAGES_PER_BLOCK)
    }

    /// Returns the number of backed guest pages.
    pub(crate) fn backed_pages(&self) -> u64 {
        self.backed.count_ones() as u64
    }

    /// Returns the backed bytes (the VM's host RSS).
    pub(crate) fn backed_bytes(&self) -> u64 {
        self.backed_pages() * PAGE_SIZE
    }

    /// Returns `true` if `g` currently has host backing.
    pub fn is_backed(&self, g: Gfn) -> bool {
        self.backed.get(g.0 as usize)
    }

    /// Backs the given frames, returning how many were *newly* backed
    /// (each newly backed frame cost one nested fault).
    pub fn populate(&mut self, gfns: &[Gfn]) -> u64 {
        let mut new = 0;
        for &g in gfns {
            if !self.backed.set(g.0 as usize) {
                self.per_block[(g.0 / PAGES_PER_BLOCK) as usize] += 1;
                new += 1;
            }
        }
        new
    }

    /// Backs every frame of `range`, returning the newly backed count.
    pub(crate) fn populate_range(&mut self, range: FrameRange) -> u64 {
        let mut newly = 0;
        for (s, start, n) in pieces(range) {
            let count = self.per_block[s] as u64;
            let fresh = if count == 0 {
                self.backed.set_clear_range(start, n as usize);
                n
            } else if count == self.block_len(s) {
                0
            } else {
                self.backed.set_range(start, n as usize) as u64
            };
            self.per_block[s] += fresh as u32;
            newly += fresh;
        }
        newly
    }

    /// Returns how many frames of `range` currently lack host backing
    /// (what a populate of the range would need to reserve).
    pub(crate) fn count_unbacked(&self, range: FrameRange) -> u64 {
        pieces(range)
            .map(|(s, start, n)| match self.per_block[s] as u64 {
                0 => n,
                count if count == self.block_len(s) => 0,
                _ => self.backed.count_zeros_in(start, n as usize) as u64,
            })
            .sum()
    }

    /// Releases backing for every frame of `range`
    /// (`madvise(MADV_DONTNEED)` after unplug), returning freed pages.
    pub fn release_range(&mut self, range: FrameRange) -> u64 {
        let mut freed = 0;
        for (s, start, n) in pieces(range) {
            let count = self.per_block[s] as u64;
            let len = self.block_len(s);
            // A whole block drops its count, and any piece of a full
            // block all of its frames; otherwise only a partly backed
            // block counts what it drops.
            let known = if n == len {
                Some(count)
            } else if count == len {
                Some(n)
            } else {
                (count == 0).then_some(0)
            };
            let dropped = match known {
                Some(dropped) => {
                    self.backed
                        .clear_counted_range(start, n as usize, dropped as usize);
                    dropped
                }
                None => self.backed.clear_range(start, n as usize) as u64,
            };
            self.per_block[s] -= dropped as u32;
            freed += dropped;
        }
        freed
    }

    /// Releases backing for individual frames (balloon inflation),
    /// returning freed pages.
    pub fn release_pages(&mut self, gfns: &[Gfn]) -> u64 {
        let mut freed = 0;
        for &g in gfns {
            if self.backed.clear(g.0 as usize) {
                self.per_block[(g.0 / PAGES_PER_BLOCK) as usize] -= 1;
                freed += 1;
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_counts_only_new() {
        let mut e = Ept::new(100);
        assert_eq!(e.populate(&[Gfn(1), Gfn(2), Gfn(3)]), 3);
        assert_eq!(e.populate(&[Gfn(2), Gfn(3), Gfn(4)]), 1);
        assert_eq!(e.backed_pages(), 4);
        assert!(e.is_backed(Gfn(1)));
        assert!(!e.is_backed(Gfn(0)));
    }

    #[test]
    fn range_populate_and_release() {
        let mut e = Ept::new(1000);
        let r = FrameRange::new(Gfn(100), 50);
        assert_eq!(e.populate_range(r), 50);
        assert_eq!(e.populate_range(r), 0, "idempotent");
        assert_eq!(e.backed_bytes(), 50 * PAGE_SIZE);
        assert_eq!(e.release_range(FrameRange::new(Gfn(100), 10)), 10);
        assert_eq!(e.backed_pages(), 40);
        assert_eq!(e.release_range(r), 40);
        assert_eq!(e.backed_pages(), 0);
    }

    /// Runs `ops` random populates, releases and unbacked counts, per
    /// page and per range, on an EPT of three and a bit blocks, checking
    /// every return value, the backed count and the per-block counts
    /// against a per-frame reference. Returns which kinds of range it
    /// met: (whole block, crossing blocks, in an empty block, in a full
    /// one).
    fn differential(seed: u64, ops: usize) -> [bool; 4] {
        let frames = 3 * PAGES_PER_BLOCK + 1000;
        let mut e = Ept::new(frames);
        let mut reference = vec![false; frames as usize];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut seen = [false; 4];
        for _ in 0..ops {
            let s = rnd(4);
            let block = FrameRange::new(Gfn(s * PAGES_PER_BLOCK), e.block_len(s as usize));
            let range = match rnd(5) {
                0 => block,
                1 => FrameRange::new(Gfn(0), frames),
                2 => {
                    let start = rnd(frames);
                    FrameRange::new(
                        Gfn(start),
                        rnd(1 + (frames - start).min(3 * PAGES_PER_BLOCK)),
                    )
                }
                _ => {
                    let start = block.start.0 + rnd(block.count);
                    let end = block.end().0.min(start + 1 + rnd(2000));
                    FrameRange::new(Gfn(start), rnd(1 + end - start))
                }
            };
            let backed = |r: &[bool]| r.iter().filter(|&&b| b).count() as u64;
            let before = backed(&reference[block.start.0 as usize..block.end().0 as usize]);
            let inside =
                range.count > 0 && block.contains(range.start) && range.end().0 <= block.end().0;
            seen[0] |= range == block;
            seen[1] |= range.start.block() != Gfn(range.end().0.saturating_sub(1)).block();
            seen[2] |= inside && before == 0;
            seen[3] |= inside && before == block.count && range.count < block.count;
            let r = &mut reference[range.start.0 as usize..range.end().0 as usize];
            let gfns: Vec<Gfn> = (0..rnd(20)).map(|_| Gfn(rnd(frames))).collect();
            match rnd(5) {
                0 => {
                    let fresh = r.len() as u64 - backed(r);
                    assert_eq!(e.count_unbacked(range), fresh, "count {range:?}");
                    r.fill(true);
                    assert_eq!(e.populate_range(range), fresh, "populate {range:?}");
                }
                1 => {
                    let held = backed(r);
                    r.fill(false);
                    assert_eq!(e.release_range(range), held, "release {range:?}");
                }
                2 => {
                    assert_eq!(e.count_unbacked(range), r.len() as u64 - backed(r));
                }
                3 => {
                    let fresh = gfns
                        .iter()
                        .filter(|g| !std::mem::replace(&mut reference[g.0 as usize], true))
                        .count();
                    assert_eq!(e.populate(&gfns), fresh as u64, "populate {gfns:?}");
                }
                _ => {
                    let held = gfns
                        .iter()
                        .filter(|g| std::mem::replace(&mut reference[g.0 as usize], false))
                        .count();
                    assert_eq!(e.release_pages(&gfns), held as u64, "release {gfns:?}");
                }
            }
            assert_eq!(e.backed_pages(), backed(&reference));
            for (s, &count) in e.per_block.iter().enumerate() {
                let from = s * PAGES_PER_BLOCK as usize;
                let to = (from + PAGES_PER_BLOCK as usize).min(frames as usize);
                assert_eq!(count as u64, backed(&reference[from..to]), "block {s}");
            }
        }
        for (g, &b) in reference.iter().enumerate() {
            assert_eq!(e.is_backed(Gfn(g as u64)), b, "frame {g}");
        }
        seen
    }

    #[test]
    fn per_block_counts_match_a_per_frame_reference() {
        let mut seen = [false; 4];
        for seed in 0..3 {
            let s = differential(seed, 150);
            seen.iter_mut().zip(s).for_each(|(a, b)| *a |= b);
        }
        assert_eq!(
            seen, [true; 4],
            "whole, crossing, empty-block, full-block ranges"
        );
    }

    /// The differential run over many more seeds, for release builds:
    /// `cargo test --release -p vmm -- --include-ignored`.
    #[test]
    #[ignore = "slow; run in release"]
    fn per_block_counts_match_a_per_frame_reference_many_seeds() {
        for seed in 0..64 {
            differential(seed, 600);
        }
    }

    #[test]
    fn release_pages_individual() {
        let mut e = Ept::new(10);
        e.populate(&[Gfn(1), Gfn(5)]);
        assert_eq!(e.release_pages(&[Gfn(1), Gfn(2)]), 1);
        assert_eq!(e.backed_pages(), 1);
    }
}
