//! The guest memory map: the state of every online guest frame, held as
//! extents rather than one descriptor per frame.
//!
//! An *extent* is a head descriptor plus a length: a run of frames in
//! one 128 MiB memory block whose states all follow from the head. The
//! extents of an online block tile it exactly, so memory costs map
//! entries per extent, not per frame, and every bulk path (onlining, a
//! fault claiming a buddy run, an exit freeing one, offlining,
//! migration) touches a few extents. The kinds are:
//!
//! * a free buddy chunk ([`PageState::FreeHead`], its order and zone and
//!   the free-list links), `2^order` frames long. Like Linux's
//!   `PageBuddy` flag, only the head is a head; the other frames
//!   resolve as [`PageState::FreeTail`];
//! * an owner run ([`PageState::Anon`] or [`PageState::File`]): exactly
//!   one extent per run of the owner's run list, naming the owner and
//!   the run's handle;
//! * a kernel run, or a run of device drivers' unmovable pages
//!   ([`PageState::Kernel`], owner word [`NIL`](crate::page::NIL)) that were claimed one
//!   after another, like a balloon's;
//! * a 2 MiB huge page ([`PageState::HugeHead`]), whose 511 tails
//!   resolve as [`PageState::HugeTail`] with the head's owner words;
//! * an isolated range ([`PageState::Isolated`]) inside an offlining
//!   block. Adjacent isolated extents merge.
//!
//! Absent and offline blocks hold no extents at all.
//!
//! Each online block keeps its extents in a table of its own: a hash
//! table keyed by the head's offset in the block, so the buddy
//! allocator's exact lookups (a chunk, its buddy, its list neighbours)
//! cost one probe each, and a bitmap of the extent heads, 4 KiB against
//! the 384 KiB a descriptor per frame would take, which finds the
//! extent covering any frame and walks the block's extents in address
//! order. A block comes online tiled by its 32 MAX_ORDER chunks, and as
//! the keys and head bits of that tiling are the same in every block,
//! onlining copies a table built once with them and writes only the 32
//! descriptors, instead of zeroing a new table and inserting each
//! chunk. Offlining a block drops
//! its table whole, so a migrating offline leaves the extents of the
//! free chunks it takes and of the pages it migrates as they were,
//! rather than isolating them for a table about to go; only a failed
//! offline isolates them, to hand them back to the buddy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::LazyLock;

use mem_types::{BlockId, FrameRange, Gfn, PAGES_PER_BLOCK};

use crate::page::{PageDesc, PageState};

/// A run of frames, within one block, that resolve from one head
/// descriptor (see the module docs for the kinds).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Extent {
    /// The first frame's descriptor.
    pub head: PageDesc,
    /// Number of frames.
    pub len: u32,
}

impl Extent {
    /// Returns the resolved descriptor of the frame `i` frames past the
    /// head.
    #[inline]
    fn frame(&self, i: u64) -> PageDesc {
        match self.head.state {
            _ if i == 0 => self.head,
            PageState::FreeHead => free_tail(self.head.zone),
            PageState::HugeHead => PageDesc {
                state: PageState::HugeTail,
                ..self.head
            },
            _ => self.head,
        }
    }

    /// Returns `true` if every frame reads as the head, so the extent
    /// may be cut anywhere.
    fn uniform(&self) -> bool {
        !matches!(self.head.state, PageState::FreeHead | PageState::HugeHead)
    }
}

/// Words in a block's head bitmap, one bit per frame.
const WORDS: usize = (PAGES_PER_BLOCK / 64) as usize;

/// Words in the summary of a block's head bitmap, one bit per word.
const SUMMARY: usize = WORDS.div_ceil(64);

/// One online block's extents: by their heads' offsets in the block,
/// and as a bitmap of their heads, one bit per frame offset. Forward searches read whole
/// words, a word per 64 frames between the starting frame and the head
/// found. Backward searches, which find the extent covering a frame,
/// skip empty words through a summary with a bit per nonzero word, as a
/// block may hold a single extent 32,768 frames long.
#[derive(Clone)]
struct Table {
    summary: [u64; SUMMARY],
    heads: [u64; WORDS],
    extents: HashMap<u32, Extent, BuildHasherDefault<FrameHasher>>,
}

/// Free chunks per block when onlined: the block in MAX_ORDER chunks.
const ONLINE_CHUNKS: usize = (PAGES_PER_BLOCK >> crate::page::MAX_ORDER) as usize;

impl Table {
    fn new() -> Box<Self> {
        Box::new(Table {
            summary: [0; SUMMARY],
            heads: [0; WORDS],
            extents: HashMap::with_capacity_and_hasher(ONLINE_CHUNKS, Default::default()),
        })
    }

    /// Returns a table tiled by the block's MAX_ORDER chunks, each a
    /// free extent whose head descriptor `head_of` gives for the chunk's
    /// offset: a copy of a table built once, with only the descriptors
    /// written, rather than a chunk at a time.
    fn in_chunks(head_of: impl Fn(u64) -> PageDesc) -> Box<Self> {
        static CHUNKS: LazyLock<Table> = LazyLock::new(|| {
            let mut t = *Table::new();
            let len = (PAGES_PER_BLOCK / ONLINE_CHUNKS as u64) as u32;
            for i in 0..ONLINE_CHUNKS as u64 {
                let head = free_tail(0);
                t.insert(i * len as u64, Extent { head, len });
            }
            t
        });
        let mut t = Box::new(CHUNKS.clone());
        for (&i, e) in t.extents.iter_mut() {
            e.head = head_of(i as u64);
        }
        t
    }

    #[inline]
    fn insert(&mut self, head: u64, e: Extent) {
        let i = offset(head);
        self.heads[i / 64] |= 1 << (i % 64);
        self.summary[i / 4096] |= 1 << (i / 64 % 64);
        self.extents.insert(i as u32, e);
    }

    #[inline]
    fn remove(&mut self, head: u64) -> Option<Extent> {
        let e = self.extents.remove(&(offset(head) as u32))?;
        let i = offset(head);
        self.heads[i / 64] &= !(1 << (i % 64));
        if self.heads[i / 64] == 0 {
            self.summary[i / 4096] &= !(1 << (i / 64 % 64));
        }
        Some(e)
    }

    /// Returns the extent headed at frame `k`, if any.
    #[inline]
    fn get(&self, k: u64) -> Option<&Extent> {
        self.extents.get(&(offset(k) as u32))
    }

    /// Returns the extent headed at frame `k` for update, if any.
    #[inline]
    fn get_mut(&mut self, k: u64) -> Option<&mut Extent> {
        self.extents.get_mut(&(offset(k) as u32))
    }

    /// Returns the extent headed at frame `k`, whose head bit is set.
    #[inline]
    fn at(&self, k: u64) -> &Extent {
        self.get(k).expect("every head bit has an extent")
    }

    /// Returns the highest head offset at or below `i`.
    #[inline]
    fn last_at_or_below(&self, i: usize) -> Option<usize> {
        let w = i / 64;
        if let Some(b) = highest_at_or_below(self.heads[w], i % 64) {
            return Some(w * 64 + b);
        }
        // The nearest nonzero word below `w`, through the summary.
        let w = w.checked_sub(1)?;
        let w = (0..=w / 64).rev().find_map(|s| {
            let top = if s == w / 64 { w % 64 } else { 63 };
            highest_at_or_below(self.summary[s], top).map(|b| s * 64 + b)
        })?;
        Some(w * 64 + 63 - self.heads[w].leading_zeros() as usize)
    }

    /// Returns the lowest head offset in `[i, end)`.
    #[inline]
    fn first_in(&self, i: usize, end: usize) -> Option<usize> {
        if i >= end {
            return None;
        }
        let w = i / 64;
        let x = self.heads[w] & (u64::MAX << (i % 64));
        let (w, x) = match x {
            0 => (w + 1..end.div_ceil(64))
                .map(|w| (w, self.heads[w]))
                .find(|&(_, x)| x != 0)?,
            x => (w, x),
        };
        Some(w * 64 + x.trailing_zeros() as usize).filter(|&k| k < end)
    }
}

/// Hashes a head frame for the extent table, or an owner id for the
/// guest's owner maps: one multiply, folded so that the low bits, which
/// pick the bucket, depend on every key bit (heads are often aligned, so
/// their own low bits are zero). The keys are frames the allocator
/// picked or ids the guest issued, never input, so the tables need no
/// protection against crafted collisions.
#[derive(Default)]
pub(crate) struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = n as u64;
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        let m = self.0 as u128 * 0x9E37_79B9_7F4A_7C15;
        m as u64 ^ (m >> 64) as u64
    }
}

/// Returns the highest set bit of `x` at or below bit `i`.
#[inline]
fn highest_at_or_below(x: u64, i: usize) -> Option<usize> {
    let m = x & (u64::MAX >> (63 - i));
    (m != 0).then(|| 63 - m.leading_zeros() as usize)
}

/// What a memory block is to the memory map.
enum Block {
    /// Not hot-added: every frame reads as [`PageDesc::ABSENT`].
    Absent,
    /// Hot-added but not online: every frame reads as
    /// [`PageDesc::OFFLINE`].
    Offline,
    /// Online: the block's extents tile it.
    Online(Box<Table>),
}

impl Block {
    fn name(&self) -> &'static str {
        match self {
            Block::Absent => "Absent",
            Block::Offline => "Offline",
            Block::Online(_) => "Online",
        }
    }
}

/// The simulator's `memmap`, sparse like Linux `SPARSEMEM`: the guest
/// physical address space (boot memory plus the hot-pluggable device
/// region) is split into 128 MiB memory blocks, and each online block
/// is tiled by extents.
///
/// Hot-add and hot-remove only retag a block. Onlining starts a bare
/// block that the buddy tiles with one free extent per chunk, and
/// offlining drops its extents, so the memory map's footprint follows
/// the number of extents and online blocks, not the address space or
/// the online frames.
///
/// Reads of a block that is not online return [`PageDesc::ABSENT`] or
/// [`PageDesc::OFFLINE`].
pub struct MemMap {
    frames: u64,
    blocks: Vec<Block>,
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

/// Returns the index of `g`'s block.
#[inline]
fn block_of(g: u64) -> usize {
    (g / PAGES_PER_BLOCK) as usize
}

/// Returns `g`'s offset inside its block.
#[inline]
fn offset(g: u64) -> usize {
    (g % PAGES_PER_BLOCK) as usize
}

#[cold]
#[inline(never)]
#[track_caller]
fn not_covered(g: u64) -> ! {
    panic!("frame {g:#x} is absent or covered by no extent")
}

impl MemMap {
    /// Creates a map covering `frames` guest frames, all absent.
    pub(crate) fn new(frames: u64) -> Self {
        let blocks = frames.div_ceil(PAGES_PER_BLOCK) as usize;
        MemMap {
            frames,
            blocks: (0..blocks).map(|_| Block::Absent).collect(),
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

    /// Returns the number of extents held across all blocks.
    #[cfg(test)]
    pub(crate) fn extent_count(&self) -> usize {
        (0..self.blocks.len())
            .filter_map(|s| self.table(s))
            .map(|t| t.extents.len())
            .sum()
    }

    /// Returns block `b`'s extents in address order, each as its frames
    /// and its head's descriptor. Blocks that are not online have none.
    pub(crate) fn extents(&self, b: BlockId) -> impl Iterator<Item = (FrameRange, PageDesc)> + '_ {
        self.extents_from(b.first_frame().0)
            .map(|(k, e)| (FrameRange::new(Gfn(k), e.len as u64), e.head))
    }

    /// Returns the extents of `g`'s block headed at `g` or above, in
    /// address order.
    fn extents_from(&self, g: u64) -> impl Iterator<Item = (u64, &Extent)> + '_ {
        let base = g - offset(g) as u64;
        self.table(block_of(g)).into_iter().flat_map(move |t| {
            std::iter::successors(t.first_in(offset(g), WORDS * 64), |&j| {
                t.first_in(j + 1, WORDS * 64)
            })
            .map(move |i| (base + i as u64, t.at(base + i as u64)))
        })
    }

    /// Returns block `s`'s table if it is online.
    #[inline]
    fn table(&self, s: usize) -> Option<&Table> {
        match self.blocks.get(s)? {
            Block::Online(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the table of `g`'s block for update.
    ///
    /// # Panics
    ///
    /// Panics if the block is not online.
    #[inline]
    fn table_mut(&mut self, g: u64) -> &mut Table {
        match self.blocks.get_mut(block_of(g)) {
            Some(Block::Online(t)) => t,
            _ => not_covered(g),
        }
    }

    /// Moves block `b` from state `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not in state `from`.
    fn retag(&mut self, b: BlockId, from: &'static str, to: Block) -> Block {
        let block = &mut self.blocks[b.0 as usize];
        let (is, to_name) = (block.name(), to.name());
        assert_eq!(is, from, "block {b:?} cannot go from {is} to {to_name}");
        std::mem::replace(block, to)
    }

    /// Hot-adds block `b`: its frames read as [`PageDesc::OFFLINE`].
    ///
    /// # Panics
    ///
    /// Panics if `b` is not absent.
    pub(crate) fn hot_add(&mut self, b: BlockId) {
        self.retag(b, "Absent", Block::Offline);
    }

    /// Hot-removes block `b`: its frames read as [`PageDesc::ABSENT`].
    ///
    /// # Panics
    ///
    /// Panics if `b` is not hot-added and offline.
    pub(crate) fn hot_remove(&mut self, b: BlockId) {
        self.retag(b, "Offline", Block::Absent);
    }

    /// Onlines block `b` with no extents, for a test that tiles it
    /// itself (a block is onlined by [`Zone::link_block`]).
    ///
    /// [`Zone::link_block`]: crate::zone::Zone::link_block
    ///
    /// # Panics
    ///
    /// Panics if `b` is not hot-added and offline.
    #[cfg(test)]
    pub(crate) fn online(&mut self, b: BlockId) {
        self.retag(b, "Offline", Block::Online(Table::new()));
    }

    /// Onlines block `b` tiled by its MAX_ORDER chunks, each a free
    /// extent whose head descriptor `head_of` gives for the chunk's head
    /// frame: what onlining a bare block and inserting each chunk leave.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not hot-added and offline.
    pub(crate) fn online_in_chunks(&mut self, b: BlockId, head_of: impl Fn(Gfn) -> PageDesc) {
        let base = b.first_frame().0;
        let t = Table::in_chunks(|i| head_of(Gfn(base + i)));
        self.retag(b, "Offline", Block::Online(t));
    }

    /// Offlines block `b`, dropping its table whole: its frames read as
    /// [`PageDesc::OFFLINE`]. The caller has taken every chunk of the
    /// block off the free lists first, leaving the block tiled either by
    /// free chunks that are on no list (an instant offline, see
    /// [`Zone::unlink_block`], or [`Zone::unlist_all`] when the offline
    /// takes all of a zone, whose chunks keep stale list links) or, for
    /// a migrating one, also by the stale extents of the pages it
    /// migrated, which its debug check collapses to one isolated extent
    /// before calling this.
    ///
    /// [`Zone::unlink_block`]: crate::zone::Zone::unlink_block
    /// [`Zone::unlist_all`]: crate::zone::Zone::unlist_all
    ///
    /// # Panics
    ///
    /// Panics if `b` is not online, and (debug) if its extents are not
    /// one of those two tilings.
    pub(crate) fn offline(&mut self, b: BlockId) {
        let Block::Online(t) = self.retag(b, "Online", Block::Offline) else {
            unreachable!("retag checked the block was online");
        };
        if cfg!(debug_assertions) {
            let heads: u32 = t.heads.iter().map(|w| w.count_ones()).sum();
            let frames: u64 = t.extents.values().map(|e| e.len as u64).sum();
            let all = |s| t.extents.values().all(|e| e.head.state == s);
            assert_eq!(heads as usize, t.extents.len(), "block {b:?}: head bits");
            assert_eq!(frames, PAGES_PER_BLOCK, "block {b:?} offlined untiled");
            assert!(
                all(PageState::FreeHead) || (all(PageState::Isolated) && t.extents.len() == 1),
                "block {b:?} offlined with used or mixed extents left"
            );
        }
    }

    /// Replaces the extents of the online block `b` with one isolated
    /// extent of `zone` over the whole block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not online.
    pub(crate) fn isolate_block(&mut self, b: BlockId, zone: u8) {
        self.retag(b, "Online", Block::Online(Table::new()));
        self.isolate(b.frames(), zone);
    }

    /// What every frame of block `s` reads as while it is not online.
    fn blank(&self, s: usize) -> PageDesc {
        match self.blocks[s] {
            Block::Absent => PageDesc::ABSENT,
            _ => PageDesc::OFFLINE,
        }
    }

    /// Returns the head of the last extent of `g`'s block that starts at
    /// or below `g`.
    #[inline]
    fn head_at_or_below(&self, g: u64) -> Option<u64> {
        let i = self.table(block_of(g))?.last_at_or_below(offset(g))?;
        Some(g - (offset(g) - i) as u64)
    }

    /// Returns the first extent head in `[from, end)`, which lies within
    /// one block.
    #[inline]
    fn head_in(&self, from: u64, end: u64) -> Option<u64> {
        let base = from - offset(from) as u64;
        let i = self
            .table(block_of(from))?
            .first_in(offset(from), (end - base) as usize)?;
        Some(base + i as u64)
    }

    /// Returns the head of the extent ending at `g`, if one does, with
    /// the extent, for update.
    #[inline]
    fn ending_at(&mut self, g: u64) -> Option<(u64, &mut Extent)> {
        let k = self.head_at_or_below(g.checked_sub(1).filter(|_| offset(g) > 0)?)?;
        let e = self
            .table_mut(k)
            .get_mut(k)
            .expect("every head bit has an extent");
        (k + e.len as u64 == g).then_some((k, e))
    }

    /// Returns the extent covering `g` with its head frame, if any.
    #[inline]
    pub(crate) fn covering(&self, g: Gfn) -> Option<(u64, &Extent)> {
        let t = self.table(block_of(g.0))?;
        let k = g.0 - (offset(g.0) - t.last_at_or_below(offset(g.0))?) as u64;
        let e = t.at(k);
        (g.0 < k + e.len as u64).then_some((k, e))
    }

    /// Returns the extent headed exactly at `head`, if any.
    #[inline]
    pub(crate) fn extent(&self, head: Gfn) -> Option<&Extent> {
        self.table(block_of(head.0))?.get(head.0)
    }

    /// Returns the extent headed exactly at `head` for update.
    ///
    /// # Panics
    ///
    /// Panics if no extent starts at `head`.
    #[inline]
    pub(crate) fn extent_mut(&mut self, head: Gfn) -> &mut Extent {
        match self.table_mut(head.0).get_mut(head.0) {
            Some(e) => e,
            None => not_covered(head.0),
        }
    }

    /// Inserts an extent over the uncovered frames `[head, head + len)`
    /// of one online block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not online, and (debug) if the extent
    /// leaves its block or overlaps another.
    #[inline]
    pub(crate) fn insert(&mut self, head: Gfn, e: Extent) {
        debug_assert!(e.len > 0);
        debug_assert_eq!(
            block_of(head.0),
            block_of(head.0 + e.len as u64 - 1),
            "extent at {head:?} leaves its block"
        );
        debug_assert!(
            self.is_uncovered(FrameRange::new(head, e.len as u64)),
            "extent at {head:?} overlaps another"
        );
        self.table_mut(head.0).insert(head.0, e);
    }

    /// Removes and returns the extent headed exactly at `head`.
    ///
    /// # Panics
    ///
    /// Panics if no extent starts at `head`.
    #[inline]
    pub(crate) fn remove(&mut self, head: Gfn) -> Extent {
        match self.table_mut(head.0).remove(head.0) {
            Some(e) => e,
            None => not_covered(head.0),
        }
    }

    /// Returns `true` if no extent covers any frame of `range`, which
    /// lies within one block.
    pub(crate) fn is_uncovered(&self, range: FrameRange) -> bool {
        self.covering(range.start).is_none() && self.head_in(range.start.0, range.end().0).is_none()
    }

    /// Covers the uncovered frames `[head, head + len)` with the used
    /// descriptor `d`, growing the extent that ends at `head` instead of
    /// inserting one when it has the same descriptor: an owner run, a
    /// kernel run or a run of device pages that grew.
    pub(crate) fn claim(&mut self, head: Gfn, len: u64, d: PageDesc) {
        debug_assert!(d.state.is_used() && d.state != PageState::HugeHead);
        debug_assert!(self.is_uncovered(FrameRange::new(head, len)));
        if let Some((_, e)) = self.ending_at(head.0) {
            if (e.head.state, e.head.zone, e.head.a, e.head.b) == (d.state, d.zone, d.a, d.b) {
                e.len += len as u32;
                return;
            }
        }
        self.insert(
            head,
            Extent {
                head: d,
                len: len as u32,
            },
        );
    }

    /// Covers the uncovered frames of `range`, in one block of `zone`,
    /// as isolated, merging with isolated extents on either side.
    pub(crate) fn isolate(&mut self, range: FrameRange, zone: u8) {
        let (start, end) = (range.start.0, range.end().0);
        let mut len = range.count;
        let after = offset(end) > 0
            && self
                .extent(Gfn(end))
                .is_some_and(|e| e.head.state == PageState::Isolated);
        if after {
            len += self.remove(Gfn(end)).len as u64;
        }
        if let Some((_, e)) = self.ending_at(start) {
            if e.head.state == PageState::Isolated {
                e.len += len as u32;
                return;
            }
        }
        let head = PageDesc {
            state: PageState::Isolated,
            zone,
            ..PageDesc::ABSENT
        };
        self.insert(
            range.start,
            Extent {
                head,
                len: len as u32,
            },
        );
    }

    /// Uncovers `range`, which lies within one block and whose first
    /// frame is covered: extents inside it go, and one reaching past
    /// either end is cut there. Only extents whose frames all read alike
    /// are cut (not free chunks or huge pages). Returns the descriptor
    /// of the extent that covered the first frame.
    pub(crate) fn carve(&mut self, range: FrameRange) -> PageDesc {
        let (start, end) = (range.start.0, range.end().0);
        let k = self
            .head_at_or_below(start)
            .unwrap_or_else(|| not_covered(start));
        let t = self.table_mut(start);
        let e = *t.at(k);
        let e_end = k + e.len as u64;
        if e_end <= start {
            not_covered(start);
        }
        let mut rest = (e_end > end).then_some((e_end, e.head));
        if k == start {
            t.remove(k);
        } else {
            debug_assert!(e.uniform(), "cutting {:?} at {start:#x}", e.head.state);
            t.get_mut(k).expect("just read").len = (start - k) as u32;
        }
        // Extents headed inside the range go; the last may reach past it.
        while let Some(k) = self.head_in(start, end) {
            let e = self.remove(Gfn(k));
            if k + e.len as u64 > end {
                rest = Some((k + e.len as u64, e.head));
            }
        }
        if let Some((e_end, head)) = rest {
            debug_assert!(
                Extent { head, len: 1 }.uniform(),
                "cutting {:?} at {end:#x}",
                head.state
            );
            self.insert(
                Gfn(end),
                Extent {
                    head,
                    len: (e_end - end) as u32,
                },
            );
        }
        e.head
    }

    /// Returns the resolved descriptor of `g`: [`PageDesc::ABSENT`] or
    /// [`PageDesc::OFFLINE`] if its block is not online, and otherwise
    /// the frame's reading of the extent covering it.
    ///
    /// # Panics
    ///
    /// Panics if `g` is beyond the covered address space, or no extent
    /// covers it in an online block (only mid-operation).
    #[inline]
    pub fn page(&self, g: Gfn) -> PageDesc {
        match self.covering(g) {
            Some((k, e)) => e.frame(g.0 - k),
            None if g.0 < self.frames && self.table(block_of(g.0)).is_none() => {
                self.blank(block_of(g.0))
            }
            None => not_covered(g.0),
        }
    }

    /// Returns the resolved state of `g` (see [`MemMap::page`]).
    #[inline]
    pub fn state(&self, g: Gfn) -> PageState {
        self.page(g).state
    }

    /// Returns the resolved descriptors of every frame of block `b`, in
    /// address order, expanding one extent at a time.
    #[cfg(test)]
    pub(crate) fn block_pages(&self, b: BlockId) -> impl Iterator<Item = PageDesc> + '_ {
        let s = b.0 as usize;
        let len = (self.frames - b.0 * PAGES_PER_BLOCK).min(PAGES_PER_BLOCK) as usize;
        let blank = self.table(s).is_none().then(|| self.blank(s));
        let blank = blank
            .into_iter()
            .flat_map(move |d| std::iter::repeat_n(d, len));
        let extents = self.extents_from(b.first_frame().0).flat_map(|(_, e)| {
            std::iter::once(e.head).chain(std::iter::repeat_n(e.frame(1), e.len as usize - 1))
        });
        blank.chain(extents)
    }

    /// Counts pages in `range` whose resolved descriptor matches `pred`,
    /// testing each extent's head and tails once.
    pub(crate) fn count_in(&self, range: FrameRange, pred: impl Fn(&PageDesc) -> bool) -> u64 {
        let (start, end) = (range.start.0, range.end().0);
        let mut n = 0;
        let mut g = start;
        while g < end {
            let s = block_of(g);
            let stop = end.min((s as u64 + 1) * PAGES_PER_BLOCK);
            if self.table(s).is_none() {
                n += (stop - g) * pred(&self.blank(s)) as u64;
                g = stop;
                continue;
            }
            let first = self.covering(Gfn(g)).map_or(g, |(k, _)| k);
            for (k, e) in self.extents_from(first).take_while(|&(k, _)| k < stop) {
                let (from, to) = (k.max(g), (k + e.len as u64).min(stop));
                if from == k {
                    n += pred(&e.head) as u64;
                }
                let tails = to - from - (from == k) as u64;
                if tails > 0 {
                    n += tails * pred(&e.frame(1)) as u64;
                }
            }
            g = stop;
        }
        n
    }

    /// Returns the head and order of the free buddy chunk containing
    /// `g`, or `None` if `g` is not free.
    #[cfg(test)]
    pub(crate) fn free_chunk_of(&self, g: Gfn) -> Option<(Gfn, u8)> {
        let (k, e) = self.covering(g)?;
        (e.head.state == PageState::FreeHead).then_some((Gfn(k), e.head.order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::NIL;

    /// A map of `frames` frames whose first block is online and bare.
    fn online(frames: u64) -> MemMap {
        let mut m = MemMap::new(frames);
        m.hot_add(BlockId(0));
        m.online(BlockId(0));
        m
    }

    /// An anonymous page descriptor of `owner`'s run `run` in zone 1.
    fn anon(owner: u32, run: u32) -> PageDesc {
        PageDesc {
            state: PageState::Anon,
            zone: 1,
            a: owner,
            b: run,
            ..PageDesc::ABSENT
        }
    }

    /// Covers `[head, head + 2^order)` with a free chunk of zone 3.
    fn make_free(m: &mut MemMap, head: u64, order: u8) {
        let d = PageDesc {
            state: PageState::FreeHead,
            order,
            zone: 3,
            ..PageDesc::ABSENT
        };
        m.insert(
            Gfn(head),
            Extent {
                head: d,
                len: 1 << order,
            },
        );
    }

    /// Each extent of block 0 as `(start, len, state)`.
    fn layout(m: &MemMap) -> Vec<(u64, u64, PageState)> {
        m.extents(BlockId(0))
            .map(|(r, d)| (r.start.0, r.count, d.state))
            .collect()
    }

    #[test]
    fn new_map_is_absent() {
        let m = MemMap::new(100);
        assert_eq!(m.len(), 100);
        assert!(!m.is_empty());
        for i in 0..100 {
            assert_eq!(m.state(Gfn(i)), PageState::Absent);
        }
        assert_eq!(m.extent_count(), 0);
    }

    #[test]
    fn count_in_counts_matching_pages() {
        let mut m = online(16);
        make_free(&mut m, 0, 1);
        m.claim(Gfn(2), 1, anon(7, 0));
        m.claim(Gfn(3), 2, anon(7, 1));
        let kernel = PageDesc {
            state: PageState::Kernel,
            a: 0,
            ..anon(0, 0)
        };
        m.claim(Gfn(5), 11, kernel);
        let r = FrameRange::new(Gfn(0), 16);
        assert_eq!(m.count_in(r, |p| p.state == PageState::Anon), 3);
        assert_eq!(m.count_in(r, |p| p.state.is_used()), 14);
        assert_eq!(m.count_in(r, |p| p.state.is_free()), 2);
        let r2 = FrameRange::new(Gfn(4), 2);
        assert_eq!(m.count_in(r2, |p| p.state == PageState::Anon), 1);
        assert_eq!(
            m.count_in(FrameRange::new(Gfn(1), 1), |p| p.state.is_free()),
            1
        );
    }

    #[test]
    fn free_chunk_of_finds_head() {
        let mut m = online(1024);
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
    fn pages_resolve_through_their_extent() {
        let mut m = online(64);
        m.claim(Gfn(0), 16, anon(7, 0));
        make_free(&mut m, 16, 4);
        m.claim(Gfn(32), 1, anon(7, 1));
        make_free(&mut m, 33, 0);
        m.claim(Gfn(34), 30, anon(7, 1));
        let resolved: Vec<PageDesc> = m.block_pages(BlockId(0)).collect();
        assert_eq!(resolved.len(), 64);
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
        // Five extents: the two runs of handle 1 are not adjacent.
        assert_eq!(m.extent_count(), 5);
    }

    #[test]
    fn covering_finds_heads_across_the_bitmap() {
        // The searches cross empty bitmap words and empty summary words
        // (4,096 frames each) on their way down to the head.
        let mut m = online(PAGES_PER_BLOCK);
        m.claim(Gfn(0), 5000, anon(7, 0));
        m.claim(Gfn(5000), PAGES_PER_BLOCK - 5000, anon(7, 1));
        let head = |m: &MemMap, g| m.covering(Gfn(g)).map(|(k, _)| k);
        for g in [0, 63, 64, 4095, 4096, 4999] {
            assert_eq!(head(&m, g), Some(0), "frame {g}");
        }
        for g in [5000, 8191, 8192, PAGES_PER_BLOCK - 1] {
            assert_eq!(head(&m, g), Some(5000), "frame {g}");
        }
        // Removed heads leave no summary bit behind.
        m.carve(FrameRange::new(Gfn(0), 5000));
        assert_eq!(head(&m, 4999), None);
        assert_eq!(head(&m, PAGES_PER_BLOCK - 1), Some(5000));
        m.carve(FrameRange::new(Gfn(5000), PAGES_PER_BLOCK - 5000));
        assert_eq!(head(&m, PAGES_PER_BLOCK - 1), None);
    }

    #[test]
    fn claims_grow_the_extent_they_continue() {
        let mut m = online(64);
        m.claim(Gfn(0), 4, anon(7, 0));
        m.claim(Gfn(4), 4, anon(7, 0));
        m.claim(Gfn(8), 4, anon(7, 1));
        m.claim(Gfn(12), 2, anon(8, 1));
        let device = PageDesc {
            state: PageState::Kernel,
            a: NIL,
            ..anon(0, 0)
        };
        m.claim(Gfn(14), 1, device);
        m.claim(Gfn(15), 1, device);
        m.claim(Gfn(17), 1, device);
        assert_eq!(
            layout(&m),
            [
                (0, 8, PageState::Anon),
                (8, 4, PageState::Anon),
                (12, 2, PageState::Anon),
                (14, 2, PageState::Kernel),
                (17, 1, PageState::Kernel),
            ]
        );
    }

    #[test]
    fn carve_cuts_extents_at_both_ends() {
        let mut m = online(64);
        m.claim(Gfn(0), 10, anon(7, 0));
        m.claim(Gfn(10), 10, anon(7, 1));
        m.carve(FrameRange::new(Gfn(4), 2));
        m.carve(FrameRange::new(Gfn(8), 5));
        assert_eq!(
            layout(&m),
            [
                (0, 4, PageState::Anon),
                (6, 2, PageState::Anon),
                (13, 7, PageState::Anon),
            ]
        );
        assert_eq!((m.page(Gfn(7)).b, m.page(Gfn(13)).b), (0, 1));
        assert!(m.is_uncovered(FrameRange::new(Gfn(8), 5)));
        // A whole extent goes without a cut.
        m.carve(FrameRange::new(Gfn(13), 7));
        assert_eq!(m.extent_count(), 2);
    }

    #[test]
    fn isolated_extents_merge_on_both_sides() {
        let mut m = online(64);
        m.claim(Gfn(0), 64, anon(7, 0));
        for r in [(8, 8), (24, 8), (16, 8), (0, 8)] {
            m.carve(FrameRange::new(Gfn(r.0), r.1));
            m.isolate(FrameRange::new(Gfn(r.0), r.1), 1);
        }
        assert_eq!(
            layout(&m),
            [(0, 32, PageState::Isolated), (32, 32, PageState::Anon)]
        );
        let d = m.page(Gfn(31));
        assert_eq!((d.zone, d.a, d.b), (1, NIL, NIL));
    }

    #[test]
    fn onlining_in_chunks_matches_inserting_each_chunk() {
        let d = |g: Gfn| PageDesc {
            state: PageState::FreeHead,
            order: crate::page::MAX_ORDER,
            zone: 3,
            a: g.0 as u32 + 1,
            b: g.0 as u32 + 2,
            ..PageDesc::ABSENT
        };
        let len = (PAGES_PER_BLOCK / ONLINE_CHUNKS as u64) as u32;
        let (mut chunks, mut each) = (
            MemMap::new(3 * PAGES_PER_BLOCK),
            MemMap::new(3 * PAGES_PER_BLOCK),
        );
        for b in [BlockId(1), BlockId(2)] {
            chunks.hot_add(b);
            each.hot_add(b);
            each.online(b);
            for g in b.frames().iter().step_by(len as usize) {
                each.insert(g, Extent { head: d(g), len });
            }
        }
        let extents = |m: &MemMap, b| {
            m.extents(b)
                .map(|(r, d)| (r, d.state, d.order, d.zone, d.a, d.b))
                .collect::<Vec<_>>()
        };
        chunks.online_in_chunks(BlockId(1), d);
        assert_eq!(extents(&chunks, BlockId(1)).len(), ONLINE_CHUNKS);
        assert_eq!(extents(&chunks, BlockId(1)), extents(&each, BlockId(1)));
        for g in BlockId(1).frames().iter().step_by(333) {
            let (x, y) = (chunks.covering(g).unwrap(), each.covering(g).unwrap());
            assert_eq!((x.0, x.1.len), (y.0, y.1.len), "frame {g:?}");
        }
        // Each block gets a table of its own: changing one leaves the
        // next block onlined whole.
        chunks.remove(BlockId(1).first_frame());
        chunks.online_in_chunks(BlockId(2), d);
        assert_eq!(extents(&chunks, BlockId(2)), extents(&each, BlockId(2)));
        assert_eq!(extents(&chunks, BlockId(1)).len(), ONLINE_CHUNKS - 1);
    }

    #[test]
    fn blocks_read_by_their_tag_and_hold_extents_only_online() {
        let mut m = MemMap::new(3 * PAGES_PER_BLOCK);
        let g = Gfn(PAGES_PER_BLOCK);
        m.hot_add(BlockId(1));
        assert_eq!((m.state(g), m.extent_count()), (PageState::Offline, 0));
        assert!(m
            .block_pages(BlockId(1))
            .all(|d| d.state == PageState::Offline));
        m.online(BlockId(1));
        m.claim(g, PAGES_PER_BLOCK, anon(7, 0));
        m.carve(FrameRange::new(g, PAGES_PER_BLOCK));
        m.isolate(FrameRange::new(g, PAGES_PER_BLOCK), 1);
        assert_eq!(m.extent_count(), 1);
        m.offline(BlockId(1));
        assert_eq!((m.state(g), m.extent_count()), (PageState::Offline, 0));
        m.hot_remove(BlockId(1));
        assert_eq!(m.state(g), PageState::Absent);
        assert_eq!(
            m.count_in(BlockId(1).frames(), |d| d.state == PageState::Absent),
            PAGES_PER_BLOCK
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "used or mixed extents")]
    fn offlining_a_block_with_used_extents_panics() {
        let mut m = online(PAGES_PER_BLOCK);
        m.claim(Gfn(0), PAGES_PER_BLOCK, anon(7, 0));
        m.offline(BlockId(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "offlined untiled")]
    fn offlining_a_block_with_a_stray_extent_panics() {
        let mut m = online(PAGES_PER_BLOCK);
        m.isolate(FrameRange::new(Gfn(64), 64), 1);
        m.offline(BlockId(0));
    }

    #[test]
    #[should_panic(expected = "cannot go from Absent to Online")]
    fn onlining_an_absent_block_panics() {
        MemMap::new(PAGES_PER_BLOCK).online(BlockId(0));
    }

    #[test]
    fn partial_last_block_is_bounded() {
        let m = MemMap::new(PAGES_PER_BLOCK + 8);
        assert_eq!(m.block_pages(BlockId(1)).count(), 8);
        assert_eq!(m.state(Gfn(PAGES_PER_BLOCK - 1)), PageState::Absent);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn page_beyond_the_map_panics() {
        MemMap::new(16).page(Gfn(16));
    }

    #[test]
    #[should_panic(expected = "covered by no extent")]
    fn removing_a_missing_extent_panics() {
        online(16).remove(Gfn(3));
    }
}
