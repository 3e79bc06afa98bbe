//! The guest memory map: one [`PageDesc`] per present guest frame, held
//! in one section per 128 MiB memory block.

use mem_types::{BlockId, FrameRange, Gfn, PAGES_PER_BLOCK};

use crate::page::{PageDesc, PageState};

/// What [`MemMap::page`] returns for a frame of an absent block.
static ABSENT: PageDesc = PageDesc::ABSENT;

/// The simulator's `memmap`, sparse like Linux `SPARSEMEM`: the guest
/// physical address space (boot memory plus the hot-pluggable device
/// region) is split into 128 MiB memory blocks, and only blocks that
/// are present hold a section of descriptors.
///
/// Hot-add *materializes* a block's section (Absent → Offline) and
/// hot-remove *retires* it again, like the kernel populating and
/// tearing down `struct page` ranges (§2.2), so the map's footprint
/// follows plugged memory rather than the address space. Retired
/// sections go on a spare list and are handed to the next hot-add
/// instead of being freed: re-plugging then reuses memory that is
/// already faulted in, and the spare list never grows past the peak
/// number of present sections.
///
/// Every frame of an absent block reads as [`PageDesc::ABSENT`];
/// writing to one is a bug and panics.
pub struct MemMap {
    frames: u64,
    /// One section per block; an empty slice (no allocation) is absent.
    sections: Vec<Box<[PageDesc]>>,
    /// Retired sections awaiting reuse.
    spare: Vec<Box<[PageDesc]>>,
}

/// Splits `g` into its section index and the offset inside it.
#[inline]
fn locate(g: Gfn) -> (usize, usize) {
    (
        (g.0 / PAGES_PER_BLOCK) as usize,
        (g.0 % PAGES_PER_BLOCK) as usize,
    )
}

#[cold]
#[inline(never)]
#[track_caller]
fn not_present(range: FrameRange) -> ! {
    panic!("frames {range:?} are absent or leave their block's section")
}

impl MemMap {
    /// Creates a map covering `frames` guest frames, all absent. No
    /// descriptor is allocated until a block is materialized.
    pub fn new(frames: u64) -> Self {
        let blocks = frames.div_ceil(PAGES_PER_BLOCK);
        MemMap {
            frames,
            sections: (0..blocks).map(|_| Box::default()).collect(),
            spare: Vec::new(),
        }
    }

    /// Returns the number of frames covered.
    pub fn len(&self) -> u64 {
        self.frames
    }

    /// Returns `true` if the map covers zero frames.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Returns `true` if block `b` has a materialized section.
    pub fn is_present(&self, b: BlockId) -> bool {
        !self.sections[b.0 as usize].is_empty()
    }

    /// Returns the number of materialized sections.
    pub fn present_sections(&self) -> usize {
        self.sections.iter().filter(|s| !s.is_empty()).count()
    }

    /// Returns the number of retired sections kept for reuse.
    pub fn spare_sections(&self) -> usize {
        self.spare.len()
    }

    /// Returns block `b`'s descriptors, or `None` if it is absent.
    pub fn section(&self, b: BlockId) -> Option<&[PageDesc]> {
        let s = &self.sections[b.0 as usize];
        (!s.is_empty()).then_some(&**s)
    }

    /// Materializes block `b`'s section, reusing a retired one when
    /// there is one, and returns its descriptors. Their contents are
    /// unspecified (a reused section keeps its retired block's
    /// descriptors): the caller overwrites every one.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already present or beyond the covered space.
    pub fn materialize(&mut self, b: BlockId) -> &mut [PageDesc] {
        let start = b.0 * PAGES_PER_BLOCK;
        let len = (self.frames - start).min(PAGES_PER_BLOCK) as usize;
        assert!(!self.is_present(b), "block {b:?} is already materialized");
        let section = match self.spare.pop() {
            Some(s) if s.len() == len => s,
            _ => vec![PageDesc::ABSENT; len].into_boxed_slice(),
        };
        let slot = &mut self.sections[b.0 as usize];
        *slot = section;
        slot
    }

    /// Retires block `b`'s section to the spare list; every frame of
    /// the block reads as [`PageDesc::ABSENT`] again.
    ///
    /// # Panics
    ///
    /// Panics if `b` is absent.
    pub fn retire(&mut self, b: BlockId) {
        let section = std::mem::take(&mut self.sections[b.0 as usize]);
        assert!(!section.is_empty(), "block {b:?} is not materialized");
        self.spare.push(section);
    }

    /// Returns the descriptor of `g` ([`PageDesc::ABSENT`] if its block
    /// is absent).
    ///
    /// # Panics
    ///
    /// Panics if `g` is beyond the covered address space.
    #[inline]
    pub fn page(&self, g: Gfn) -> &PageDesc {
        let (s, i) = locate(g);
        let section = &self.sections[s];
        match section.get(i) {
            Some(d) => d,
            None if section.is_empty() && g.0 < self.frames => &ABSENT,
            None => not_present(FrameRange::new(g, 1)),
        }
    }

    /// Returns the mutable descriptor of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s block is absent or `g` is beyond the covered
    /// address space.
    #[inline]
    pub fn page_mut(&mut self, g: Gfn) -> &mut PageDesc {
        let (s, i) = locate(g);
        match self.sections[s].get_mut(i) {
            Some(d) => d,
            None => not_present(FrameRange::new(g, 1)),
        }
    }

    /// Returns the state of `g`.
    #[inline]
    pub fn state(&self, g: Gfn) -> PageState {
        self.page(g).state
    }

    /// Returns the descriptors of `range` as one mutable slice — the
    /// bulk paths (onlining, buddy frees, run claims) sweep descriptors
    /// through this instead of taking a section lookup per page.
    ///
    /// # Panics
    ///
    /// Panics if `range` is absent or leaves its block (buddy chunks
    /// and process runs never straddle a block).
    #[inline]
    pub fn range_mut(&mut self, range: FrameRange) -> &mut [PageDesc] {
        let (s, i) = locate(range.start);
        match self.sections[s].get_mut(i..i + range.count as usize) {
            Some(d) => d,
            None => not_present(range),
        }
    }

    /// Returns the descriptors of two equally long ranges in different
    /// blocks as two mutable slices (a migration's sources and targets).
    ///
    /// # Panics
    ///
    /// Panics if the ranges share a block, or either is absent or
    /// leaves its block.
    pub(crate) fn range_pair_mut(
        &mut self,
        a: FrameRange,
        b: FrameRange,
    ) -> (&mut [PageDesc], &mut [PageDesc]) {
        let ((sa, ia), (sb, ib)) = (locate(a.start), locate(b.start));
        let [xa, xb] = self
            .sections
            .get_disjoint_mut([sa, sb])
            .expect("ranges in distinct blocks");
        match (
            xa.get_mut(ia..ia + a.count as usize),
            xb.get_mut(ib..ib + b.count as usize),
        ) {
            (Some(da), Some(db)) => (da, db),
            (None, _) => not_present(a),
            (_, None) => not_present(b),
        }
    }

    /// Counts pages in `range` matching `pred`.
    pub fn count_in(&self, range: FrameRange, pred: impl Fn(&PageDesc) -> bool) -> u64 {
        range.iter().filter(|&g| pred(self.page(g))).count() as u64
    }

    /// Finds the head of the free buddy block containing free page `g`.
    ///
    /// Walks candidate heads of increasing order; at most
    /// [`MAX_ORDER`](crate::page::MAX_ORDER) + 1 probes.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not part of any free buddy block (caller must
    /// check the page is free first).
    pub fn free_block_head(&self, g: Gfn) -> (Gfn, u8) {
        debug_assert!(self.state(g).is_free(), "page {g:?} is not free");
        for order in 0..=crate::page::MAX_ORDER {
            let head = Gfn(g.0 & !((1u64 << order) - 1));
            let d = self.page(head);
            if d.state == PageState::FreeHead && d.order == order {
                return (head, order);
            }
        }
        panic!("free page {g:?} has no containing buddy block");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_absent() {
        let m = MemMap::new(100);
        assert_eq!(m.len(), 100);
        assert!(!m.is_empty());
        for i in 0..100 {
            assert_eq!(m.state(Gfn(i)), PageState::Absent);
        }
    }

    #[test]
    fn count_in_counts_matching_pages() {
        let mut m = MemMap::new(16);
        m.materialize(BlockId(0));
        m.page_mut(Gfn(3)).state = PageState::Anon;
        m.page_mut(Gfn(4)).state = PageState::Anon;
        m.page_mut(Gfn(5)).state = PageState::Kernel;
        let r = FrameRange::new(Gfn(0), 16);
        assert_eq!(m.count_in(r, |p| p.state == PageState::Anon), 2);
        assert_eq!(m.count_in(r, |p| p.state.is_used()), 3);
        let r2 = FrameRange::new(Gfn(4), 2);
        assert_eq!(m.count_in(r2, |p| p.state == PageState::Anon), 1);
    }

    #[test]
    fn free_block_head_finds_head() {
        let mut m = MemMap::new(1024);
        m.materialize(BlockId(0));
        // Make pages [512, 1024) a free order-9 block.
        let head = Gfn(512);
        m.page_mut(head).state = PageState::FreeHead;
        m.page_mut(head).order = 9;
        for i in 513..1024 {
            m.page_mut(Gfn(i)).state = PageState::FreeTail;
        }
        assert_eq!(m.free_block_head(Gfn(512)), (head, 9));
        assert_eq!(m.free_block_head(Gfn(777)), (head, 9));
        assert_eq!(m.free_block_head(Gfn(1023)), (head, 9));
    }

    #[test]
    fn free_block_head_order_zero() {
        let mut m = MemMap::new(8);
        m.materialize(BlockId(0));
        m.page_mut(Gfn(5)).state = PageState::FreeHead;
        m.page_mut(Gfn(5)).order = 0;
        assert_eq!(m.free_block_head(Gfn(5)), (Gfn(5), 0));
    }

    #[test]
    fn sections_materialize_retire_and_reuse() {
        let mut m = MemMap::new(3 * PAGES_PER_BLOCK);
        assert_eq!(m.present_sections(), 0);
        m.materialize(BlockId(1)).fill(PageDesc::OFFLINE);
        assert!(m.is_present(BlockId(1)));
        assert!(m.section(BlockId(0)).is_none());
        assert_eq!(
            m.section(BlockId(1)).map(<[_]>::len),
            Some(PAGES_PER_BLOCK as usize)
        );
        assert_eq!(m.state(Gfn(PAGES_PER_BLOCK)), PageState::Offline);
        m.retire(BlockId(1));
        assert_eq!((m.present_sections(), m.spare_sections()), (0, 1));
        assert_eq!(m.state(Gfn(PAGES_PER_BLOCK)), PageState::Absent);
        // The next materialization takes the spare, contents and all.
        let reused = m.materialize(BlockId(2));
        assert_eq!(reused[0].state, PageState::Offline);
        assert_eq!((m.present_sections(), m.spare_sections()), (1, 0));
    }

    #[test]
    fn partial_last_section_is_bounded() {
        let mut m = MemMap::new(PAGES_PER_BLOCK + 8);
        assert_eq!(m.materialize(BlockId(1)).len(), 8);
        assert_eq!(m.state(Gfn(PAGES_PER_BLOCK + 7)), PageState::Absent);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn page_beyond_a_partial_section_panics() {
        let mut m = MemMap::new(16);
        m.materialize(BlockId(0));
        m.page(Gfn(16));
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn range_crossing_a_block_panics() {
        let mut m = MemMap::new(2 * PAGES_PER_BLOCK);
        m.materialize(BlockId(0));
        m.materialize(BlockId(1));
        m.range_mut(FrameRange::new(Gfn(PAGES_PER_BLOCK - 1), 2));
    }
}
