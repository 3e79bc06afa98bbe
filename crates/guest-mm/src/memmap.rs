//! The guest memory map: the descriptors of every online guest frame,
//! held in one section per online 128 MiB memory block.
//!
//! Free buddy memory costs O(chunks), not O(frames). Like Linux's
//! `PageBuddy` flag, only the head of a free buddy chunk carries state
//! ([`PageState::FreeHead`], its order and zone, the free-list links);
//! every other frame of the chunk keeps whatever its descriptor last
//! held. A frame's real state is *resolved* by looking for an aligned
//! free head that covers it, as the kernel's `is_free_buddy_page` does,
//! which takes at most [`MAX_ORDER`] + 1 probes. That works because
//! of one invariant the buddy allocator keeps: a raw descriptor whose
//! state is `FreeHead` is always a head on its zone's free list, so
//! every path that ends a chunk's head status overwrites the head's
//! state.

use mem_types::{BlockId, FrameRange, Gfn, PAGES_PER_BLOCK};

use crate::page::{PageDesc, PageState, MAX_ORDER};

/// What a memory block is to the memory map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tag {
    /// Not hot-added: every frame reads as [`PageDesc::ABSENT`].
    Absent,
    /// Hot-added but not online: every frame reads as
    /// [`PageDesc::OFFLINE`].
    Offline,
    /// Online: the block holds a section of descriptors.
    Online,
}

/// The simulator's `memmap`, sparse like Linux `SPARSEMEM`: the guest
/// physical address space (boot memory plus the hot-pluggable device
/// region) is split into 128 MiB memory blocks, and only online blocks
/// hold a section of descriptors.
///
/// Hot-add and hot-remove only retag a block. Onlining *materializes*
/// its section and offlining *retires* it again, so the map's
/// footprint follows online memory rather than the address space, and
/// a whole block moves in or out of the buddy without a per-frame
/// write. Retired sections go on a spare list and are handed to the
/// next online instead of being freed: re-plugging then reuses memory
/// that is already faulted in, and the spare list never grows past the
/// peak number of online blocks.
///
/// Reads of a block without a section return [`PageDesc::ABSENT`] or
/// [`PageDesc::OFFLINE`]; writing to one is a bug and panics.
pub struct MemMap {
    frames: u64,
    tags: Vec<Tag>,
    /// One section per block; an empty slice (no allocation) means the
    /// block is not online.
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

/// Returns the offset of the free chunk head covering offset `i` of
/// `section`, or `None` if `i` is not free. Sections are block-aligned,
/// so an offset's alignment is its frame's.
#[inline]
fn chunk_head(section: &[PageDesc], i: usize) -> Option<usize> {
    (0..=MAX_ORDER).find_map(|order| {
        let h = i & !((1usize << order) - 1);
        let d = &section[h];
        (d.state == PageState::FreeHead && d.order >= order).then_some(h)
    })
}

/// The resolved descriptor of a frame inside a free chunk of `zone`.
#[inline]
fn free_tail(zone: u8) -> PageDesc {
    PageDesc {
        state: PageState::FreeTail,
        zone,
        ..PageDesc::ABSENT
    }
}

#[cold]
#[inline(never)]
#[track_caller]
fn not_present(range: FrameRange) -> ! {
    panic!("frames {range:?} are absent or leave their block's section")
}

impl MemMap {
    /// Creates a map covering `frames` guest frames, all absent. No
    /// descriptor is allocated until a block is onlined.
    pub fn new(frames: u64) -> Self {
        let blocks = frames.div_ceil(PAGES_PER_BLOCK);
        MemMap {
            frames,
            tags: vec![Tag::Absent; blocks as usize],
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

    /// Returns `true` if block `b` holds a section (it is online).
    pub fn has_section(&self, b: BlockId) -> bool {
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

    /// Returns block `b`'s raw descriptors, or `None` if it has no
    /// section. Frames inside free chunks hold unspecified contents.
    pub(crate) fn section(&self, b: BlockId) -> Option<&[PageDesc]> {
        let s = &self.sections[b.0 as usize];
        (!s.is_empty()).then_some(&**s)
    }

    /// Hot-adds block `b`: its frames read as [`PageDesc::OFFLINE`].
    ///
    /// # Panics
    ///
    /// Panics if `b` is not absent.
    pub(crate) fn hot_add(&mut self, b: BlockId) {
        self.retag(b, Tag::Absent, Tag::Offline);
    }

    /// Hot-removes block `b`: its frames read as [`PageDesc::ABSENT`].
    ///
    /// # Panics
    ///
    /// Panics if `b` is not hot-added and offline.
    pub(crate) fn hot_remove(&mut self, b: BlockId) {
        self.retag(b, Tag::Offline, Tag::Absent);
    }

    /// Onlines block `b`: materializes its section, reusing a retired
    /// one when there is one. The section's contents are unspecified
    /// (a reused one keeps its retired block's descriptors) but hold no
    /// `FreeHead`, so the caller makes the block free by linking its
    /// chunk heads alone.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not hot-added and offline.
    pub(crate) fn online(&mut self, b: BlockId) {
        self.retag(b, Tag::Offline, Tag::Online);
        let start = b.0 * PAGES_PER_BLOCK;
        let len = (self.frames - start).min(PAGES_PER_BLOCK) as usize;
        let section = match self.spare.pop() {
            Some(s) if s.len() == len => s,
            _ => vec![PageDesc::ABSENT; len].into_boxed_slice(),
        };
        self.sections[b.0 as usize] = section;
    }

    /// Offlines block `b`: retires its section to the spare list, and
    /// its frames read as [`PageDesc::OFFLINE`]. The caller has taken
    /// every chunk of the block off the free lists first.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not online.
    pub(crate) fn offline(&mut self, b: BlockId) {
        self.retag(b, Tag::Online, Tag::Offline);
        let section = std::mem::take(&mut self.sections[b.0 as usize]);
        debug_assert!(
            section.iter().all(|d| d.state != PageState::FreeHead),
            "block {b:?} retired with a free chunk still linked"
        );
        self.spare.push(section);
    }

    /// What every frame of block `s` reads as while it has no section.
    fn blank(&self, s: usize) -> PageDesc {
        match self.tags[s] {
            Tag::Absent => PageDesc::ABSENT,
            _ => PageDesc::OFFLINE,
        }
    }

    fn retag(&mut self, b: BlockId, from: Tag, to: Tag) {
        let tag = &mut self.tags[b.0 as usize];
        assert_eq!(*tag, from, "block {b:?} cannot go from {tag:?} to {to:?}");
        *tag = to;
    }

    /// Returns the resolved descriptor of `g`: [`PageDesc::ABSENT`] or
    /// [`PageDesc::OFFLINE`] if its block has no section, a `FreeTail`
    /// of the chunk's zone if a free chunk head covers it, and the raw
    /// descriptor otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `g` is beyond the covered address space.
    #[inline]
    pub fn page(&self, g: Gfn) -> PageDesc {
        let (s, i) = locate(g);
        let section = &self.sections[s];
        match section.get(i) {
            Some(&d) if d.state == PageState::FreeHead => d,
            Some(&d) => chunk_head(section, i).map_or(d, |h| free_tail(section[h].zone)),
            None if section.is_empty() && g.0 < self.frames => self.blank(s),
            None => not_present(FrameRange::new(g, 1)),
        }
    }

    /// Returns the resolved state of `g` (see [`MemMap::page`]).
    #[inline]
    pub fn state(&self, g: Gfn) -> PageState {
        self.page(g).state
    }

    /// Returns the raw descriptor of `g`, for pages known to be used or
    /// free chunk heads (anything else may hold stale contents).
    ///
    /// # Panics
    ///
    /// Panics if `g`'s block has no section.
    #[inline]
    pub(crate) fn raw(&self, g: Gfn) -> &PageDesc {
        let (s, i) = locate(g);
        match self.sections[s].get(i) {
            Some(d) => d,
            None => not_present(FrameRange::new(g, 1)),
        }
    }

    /// Returns the mutable raw descriptor of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s block has no section.
    #[inline]
    pub(crate) fn raw_mut(&mut self, g: Gfn) -> &mut PageDesc {
        let (s, i) = locate(g);
        match self.sections[s].get_mut(i) {
            Some(d) => d,
            None => not_present(FrameRange::new(g, 1)),
        }
    }

    /// Returns the raw descriptors of `range` as one mutable slice —
    /// the bulk paths (run claims, isolation) sweep descriptors through
    /// this instead of taking a section lookup per page.
    ///
    /// # Panics
    ///
    /// Panics if `range` has no section or leaves its block (buddy
    /// chunks and process runs never straddle a block).
    #[inline]
    pub(crate) fn range_mut(&mut self, range: FrameRange) -> &mut [PageDesc] {
        let (s, i) = locate(range.start);
        match self.sections[s].get_mut(i..i + range.count as usize) {
            Some(d) => d,
            None => not_present(range),
        }
    }

    /// Returns the raw descriptors of two equally long ranges in
    /// different blocks as two mutable slices (a migration's sources and
    /// targets).
    ///
    /// # Panics
    ///
    /// Panics if the ranges share a block, or either has no section or
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

    /// Returns the resolved descriptors of every frame of block `b`, in
    /// address order. One pass over the section: a free chunk never
    /// straddles a block, so the walk meets each one at its head and
    /// skips its frames.
    pub fn block_pages(&self, b: BlockId) -> impl Iterator<Item = PageDesc> + '_ {
        let start = b.0 * PAGES_PER_BLOCK;
        let len = (self.frames - start).min(PAGES_PER_BLOCK) as usize;
        let section = &*self.sections[b.0 as usize];
        let blank = self.blank(b.0 as usize);
        let (mut i, mut tails, mut tail) = (0, 0usize, blank);
        std::iter::from_fn(move || {
            if i == len {
                return None;
            }
            i += 1;
            if section.is_empty() {
                return Some(blank);
            }
            if tails > 0 {
                tails -= 1;
                return Some(tail);
            }
            let d = section[i - 1];
            if d.state == PageState::FreeHead {
                (tails, tail) = ((1 << d.order) - 1, free_tail(d.zone));
            }
            Some(d)
        })
    }

    /// Counts pages in `range` whose resolved descriptor matches `pred`.
    pub fn count_in(&self, range: FrameRange, pred: impl Fn(&PageDesc) -> bool) -> u64 {
        range.iter().filter(|&g| pred(&self.page(g))).count() as u64
    }

    /// Returns the head and order of the free buddy chunk containing
    /// `g`, or `None` if `g` is not free.
    ///
    /// Walks candidate heads of increasing order; at most
    /// [`MAX_ORDER`] + 1 probes.
    pub fn free_chunk_of(&self, g: Gfn) -> Option<(Gfn, u8)> {
        let (s, i) = locate(g);
        let section = self.section(BlockId(s as u64))?;
        let h = chunk_head(section.get(..=i)?, i)?;
        Some((Gfn(g.0 - (i - h) as u64), section[h].order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map of `frames` frames whose first block is online.
    fn online(frames: u64) -> MemMap {
        let mut m = MemMap::new(frames);
        m.hot_add(BlockId(0));
        m.online(BlockId(0));
        m
    }

    /// Makes `[head, head + 2^order)` a free chunk of zone 3 by writing
    /// its head alone.
    fn make_free(m: &mut MemMap, head: u64, order: u8) {
        let d = m.raw_mut(Gfn(head));
        d.state = PageState::FreeHead;
        d.order = order;
        d.zone = 3;
    }

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
        let mut m = online(16);
        m.raw_mut(Gfn(3)).state = PageState::Anon;
        m.raw_mut(Gfn(4)).state = PageState::Anon;
        m.raw_mut(Gfn(5)).state = PageState::Kernel;
        let r = FrameRange::new(Gfn(0), 16);
        assert_eq!(m.count_in(r, |p| p.state == PageState::Anon), 2);
        assert_eq!(m.count_in(r, |p| p.state.is_used()), 3);
        let r2 = FrameRange::new(Gfn(4), 2);
        assert_eq!(m.count_in(r2, |p| p.state == PageState::Anon), 1);
    }

    #[test]
    fn free_chunk_of_finds_head() {
        let mut m = online(1024);
        // Stale used descriptors inside the chunk do not matter: the
        // head alone makes [512, 1024) a free order-9 chunk.
        m.raw_mut(Gfn(777)).state = PageState::Anon;
        make_free(&mut m, 512, 9);
        let head = Some((Gfn(512), 9));
        assert_eq!(m.free_chunk_of(Gfn(512)), head);
        assert_eq!(m.free_chunk_of(Gfn(777)), head);
        assert_eq!(m.free_chunk_of(Gfn(1023)), head);
        assert_eq!(m.free_chunk_of(Gfn(511)), None);
    }

    #[test]
    fn free_chunk_of_order_zero() {
        let mut m = online(8);
        make_free(&mut m, 5, 0);
        assert_eq!(m.free_chunk_of(Gfn(5)), Some((Gfn(5), 0)));
        assert_eq!(m.free_chunk_of(Gfn(4)), None);
        assert_eq!(MemMap::new(8).free_chunk_of(Gfn(5)), None, "absent");
    }

    #[test]
    fn pages_resolve_through_their_chunk_head() {
        let mut m = online(64);
        for g in 0..64 {
            *m.raw_mut(Gfn(g)) = PageDesc {
                state: PageState::Anon,
                zone: 1,
                a: 7,
                b: g as u32,
                ..PageDesc::ABSENT
            };
        }
        make_free(&mut m, 16, 4);
        make_free(&mut m, 33, 0);
        let resolved: Vec<PageDesc> = m.block_pages(BlockId(0)).collect();
        for g in 0..64u64 {
            let (d, want) = (m.page(Gfn(g)), resolved[g as usize]);
            assert_eq!((d.state, d.zone, d.a), (want.state, want.zone, want.a));
            let (state, zone) = match g {
                16 | 33 => (PageState::FreeHead, 3),
                17..=31 => (PageState::FreeTail, 3),
                _ => (PageState::Anon, 1),
            };
            assert_eq!((d.state, d.zone), (state, zone), "frame {g}");
        }
        // A head does not cover frames past its order.
        assert_eq!(m.state(Gfn(32)), PageState::Anon);
        assert_eq!(m.state(Gfn(34)), PageState::Anon);
    }

    #[test]
    fn blocks_read_by_their_tag_and_reuse_sections() {
        let mut m = MemMap::new(3 * PAGES_PER_BLOCK);
        let g = Gfn(PAGES_PER_BLOCK);
        m.hot_add(BlockId(1));
        assert_eq!((m.state(g), m.present_sections()), (PageState::Offline, 0));
        assert!(m
            .block_pages(BlockId(1))
            .all(|d| d.state == PageState::Offline));
        m.online(BlockId(1));
        assert!(m.has_section(BlockId(1)));
        assert!(m.section(BlockId(0)).is_none());
        assert_eq!(
            m.section(BlockId(1)).map(<[_]>::len),
            Some(PAGES_PER_BLOCK as usize)
        );
        m.raw_mut(g).state = PageState::Kernel;
        m.offline(BlockId(1));
        assert_eq!((m.present_sections(), m.spare_sections()), (0, 1));
        assert_eq!(m.state(g), PageState::Offline);
        m.hot_remove(BlockId(1));
        assert_eq!(m.state(g), PageState::Absent);
        assert_eq!(m.spare_sections(), 1, "hot-add and remove keep spares");
        // The next online takes the spare, contents and all.
        m.hot_add(BlockId(2));
        m.online(BlockId(2));
        assert_eq!(m.section(BlockId(2)).unwrap()[0].state, PageState::Kernel);
        assert_eq!((m.present_sections(), m.spare_sections()), (1, 0));
    }

    #[test]
    #[should_panic(expected = "cannot go from Absent to Online")]
    fn onlining_an_absent_block_panics() {
        MemMap::new(PAGES_PER_BLOCK).online(BlockId(0));
    }

    #[test]
    fn partial_last_section_is_bounded() {
        let mut m = MemMap::new(PAGES_PER_BLOCK + 8);
        m.hot_add(BlockId(1));
        m.online(BlockId(1));
        assert_eq!(m.section(BlockId(1)).map(<[_]>::len), Some(8));
        assert_eq!(m.block_pages(BlockId(1)).count(), 8);
        assert_eq!(m.state(Gfn(PAGES_PER_BLOCK - 1)), PageState::Absent);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn page_beyond_a_partial_section_panics() {
        online(16).page(Gfn(16));
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn range_crossing_a_block_panics() {
        let mut m = MemMap::new(2 * PAGES_PER_BLOCK);
        for b in [BlockId(0), BlockId(1)] {
            m.hot_add(b);
            m.online(b);
        }
        m.range_mut(FrameRange::new(Gfn(PAGES_PER_BLOCK - 1), 2));
    }
}
