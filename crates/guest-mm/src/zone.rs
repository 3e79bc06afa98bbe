//! Memory zones and the buddy allocator.
//!
//! Zones mirror the Linux physical memory zones the paper builds on:
//! `ZONE_NORMAL` for boot memory, `ZONE_MOVABLE` for hot-plugged memory
//! (§2.2), and — the paper's contribution — one extra zone per Squeezy
//! partition ("We implement Squeezy partitions as different zones (zone
//! structs), similar to ZONE_MOVABLE", §4.1).
//!
//! Each zone owns per-order intrusive free lists threaded through the
//! head descriptors of free chunk extents, exactly like the kernel's
//! `free_area[]`, giving O(1) allocation, free and buddy merging up to
//! the memory map's lookups. Linking a chunk inserts its one free extent
//! into the [`MemMap`] and unlinking removes it, so freeing, merging and
//! onlining cost O(chunks), not O(frames); an offline only joins its
//! chunks' list neighbours and leaves their extents for the memory map
//! to drop with the block, and an instant offline of all of a zone's
//! blocks (a Squeezy partition) empties its lists in O(MAX_ORDER).
//! Frames a zone hands out are left uncovered by any extent; the caller
//! covers them when it claims them, and uncovers frames before it frees
//! them.

use mem_types::{BlockId, FrameRange, Gfn, PAGES_PER_BLOCK};

use crate::memmap::{Extent, MemMap};
use crate::page::{PageDesc, PageState, MAX_ORDER, NIL};

/// What a zone is used for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ZoneKind {
    /// Boot memory serving kernel and fallback user allocations.
    Normal,
    /// Hot-plugged memory for movable allocations (`ZONE_MOVABLE`).
    Movable,
    /// A Squeezy private partition dedicated to one function instance.
    SqueezyPrivate {
        /// Partition id (assigned by the Squeezy layer).
        partition: u32,
    },
    /// The per-VM shared Squeezy partition backing file mappings.
    SqueezyShared,
}

/// A memory zone: a contiguous span of guest frames with buddy free lists.
pub struct Zone {
    /// Index of this zone in the `GuestMm` zone table.
    pub id: u8,
    /// Purpose of the zone.
    pub kind: ZoneKind,
    /// The guest-physical span the zone may ever cover.
    pub span: FrameRange,
    /// Head frame of the free list per order ([`NIL`] when empty).
    free_heads: [u32; MAX_ORDER as usize + 1],
    /// Number of free pages currently in the buddy lists.
    pub free_pages: u64,
    /// Number of pages currently onlined into this zone.
    pub managed_pages: u64,
    /// Runs [`Zone::alloc_run`] cut from the front of a bigger chunk
    /// (the twin tests check that an offline reaches this path).
    #[cfg(test)]
    pub(crate) split_runs: u64,
    /// Times [`Zone::unlist_all`] emptied the free lists (the twin
    /// tests check that a batch offline reaches the whole-zone path).
    #[cfg(test)]
    pub(crate) lists_emptied: u64,
}

impl Zone {
    /// Creates an empty zone covering `span`.
    pub(crate) fn new(id: u8, kind: ZoneKind, span: FrameRange) -> Self {
        Zone {
            id,
            kind,
            span,
            free_heads: [NIL; MAX_ORDER as usize + 1],
            free_pages: 0,
            managed_pages: 0,
            #[cfg(test)]
            split_runs: 0,
            #[cfg(test)]
            lists_emptied: 0,
        }
    }

    /// Returns the number of pages in use (`managed - free`).
    pub fn used_pages(&self) -> u64 {
        self.managed_pages - self.free_pages
    }

    /// Returns `true` if no free list holds any block.
    pub(crate) fn buddy_is_empty(&self) -> bool {
        self.free_heads.iter().all(|&h| h == NIL)
    }

    /// Unlinks free block `head` (of `order`) from its free list and
    /// removes its extent, leaving its frames uncovered.
    fn unlink(&mut self, mm: &mut MemMap, head: Gfn, order: u8) {
        let d = mm.remove(head).head;
        debug_assert_eq!(d.order, order);
        self.splice_out(mm, d);
    }

    /// Joins the free-list neighbours of the chunk whose head descriptor
    /// is `d`, taking the chunk off its list.
    fn splice_out(&mut self, mm: &mut MemMap, d: PageDesc) {
        debug_assert_eq!(d.state, PageState::FreeHead);
        debug_assert_eq!(d.zone, self.id);
        let (prev, next) = (d.a, d.b);
        if prev == NIL {
            self.free_heads[d.order as usize] = next;
        } else {
            mm.extent_mut(Gfn(prev as u64)).head.b = next;
        }
        if next != NIL {
            mm.extent_mut(Gfn(next as u64)).head.a = prev;
        }
    }

    /// Links the uncovered frames at `head` as a free block of `order` at
    /// the front of its list, as one free extent.
    fn link(&mut self, mm: &mut MemMap, head: Gfn, order: u8) {
        let old = self.free_heads[order as usize];
        let d = PageDesc {
            state: PageState::FreeHead,
            order,
            zone: self.id,
            flags: 0,
            a: NIL,
            b: old,
        };
        mm.insert(
            head,
            Extent {
                head: d,
                len: 1 << order,
            },
        );
        if old != NIL {
            mm.extent_mut(Gfn(old as u64)).head.a = head.0 as u32;
        }
        self.free_heads[order as usize] = head.0 as u32;
    }

    /// Frees the 2^`order` pages starting at `head` into the buddy,
    /// merging with free buddies as far as possible.
    ///
    /// No extent may cover the range: the caller has uncovered a
    /// released allocation or a rolled-back isolated range, or is
    /// onlining fresh frames. Merged buddies' extents give way to one
    /// extent for the merged chunk.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `head` is not `order`-aligned or a page of the
    /// range is covered.
    pub(crate) fn free_block(&mut self, mm: &mut MemMap, head: Gfn, order: u8) {
        debug_assert_eq!(head.0 & ((1 << order) - 1), 0, "misaligned free");
        debug_assert!(order <= MAX_ORDER);
        debug_assert!(
            mm.is_uncovered(FrameRange::new(head, 1 << order)),
            "double free near {head:?}"
        );
        self.free_pages += 1 << order;

        let mut head = head;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = Gfn(head.0 ^ (1u64 << order));
            if !self.span.contains(buddy) {
                break;
            }
            // Below MAX_ORDER a buddy shares its block, which is online.
            let free = mm.extent(buddy).is_some_and(|e| {
                let d = e.head;
                d.state == PageState::FreeHead && d.order == order && d.zone == self.id
            });
            if !free {
                break;
            }
            self.unlink(mm, buddy, order);
            head = Gfn(head.0.min(buddy.0));
            order += 1;
        }
        self.link(mm, head, order);
    }

    /// Onlines block `b` in the memory map as its MAX_ORDER chunks,
    /// linked at the front of the MAX_ORDER list, the lowest deepest:
    /// the onlining of a block.
    ///
    /// Equivalent to onlining a bare block and [`Zone::free_block`] of
    /// each chunk in ascending order (a MAX_ORDER chunk never merges),
    /// with each chunk's final links written once, through
    /// [`MemMap::online_in_chunks`], rather than a chunk at a time and
    /// patched by the chunk linked after it.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not hot-added and offline.
    pub(crate) fn link_block(&mut self, mm: &mut MemMap, b: BlockId) {
        let chunk = 1u64 << MAX_ORDER;
        let (start, end) = (b.first_frame().0, b.frames().end().0);
        let old = self.free_heads[MAX_ORDER as usize];
        let zone = self.id;
        mm.online_in_chunks(b, |head| {
            let (above, below) = (head.0 + chunk, head.0.wrapping_sub(chunk));
            PageDesc {
                state: PageState::FreeHead,
                order: MAX_ORDER,
                zone,
                flags: 0,
                a: if above < end { above as u32 } else { NIL },
                b: if head.0 > start { below as u32 } else { old },
            }
        });
        if old != NIL {
            mm.extent_mut(Gfn(old as u64)).head.a = start as u32;
        }
        self.free_heads[MAX_ORDER as usize] = (end - chunk) as u32;
        self.free_pages += PAGES_PER_BLOCK;
    }

    /// Frees the `len` contiguous pages starting at `head`, decomposed
    /// into maximal naturally-aligned power-of-two chunks in ascending
    /// address order.
    ///
    /// Exactly equivalent to `len` sequential order-0 [`Zone::free_block`]
    /// calls over `head..head+len`: eager buddy merging is confluent (the
    /// final free lists are the canonical maximal merge of the free page
    /// set), adjacent chunks of a maximal decomposition are never buddies,
    /// and each chunk completes — and is therefore linked — in the same
    /// ascending order the per-page path would link it, so even the
    /// intra-list ordering matches.
    pub(crate) fn free_run(&mut self, mm: &mut MemMap, head: Gfn, len: u64) {
        let mut g = head.0;
        let end = head.0 + len;
        while g < end {
            let align = if g == 0 {
                MAX_ORDER
            } else {
                (g.trailing_zeros() as u8).min(MAX_ORDER)
            };
            let fit = (63 - (end - g).leading_zeros()) as u8;
            let order = align.min(fit);
            self.free_block(mm, Gfn(g), order);
            g += 1 << order;
        }
    }

    /// Frees the `len` contiguous pages starting at `head` as
    /// [`Zone::free_run`] does, but in descending address order: exactly
    /// equivalent to `len` sequential order-0 [`Zone::free_block`] calls
    /// from `head+len-1` down to `head`.
    ///
    /// The run is cut from the top into naturally-aligned chunks. Freed
    /// downwards, a chunk's pages merge only with each other (every
    /// buddy below the chunk's order lies inside it) until its lowest
    /// page completes it; the partial chunks linked on the way are all
    /// unlinked again, which leaves every other list entry in place. So
    /// freeing each chunk whole, in the order they complete, is the same.
    pub(crate) fn free_run_rev(&mut self, mm: &mut MemMap, head: Gfn, len: u64) {
        let mut g = head.0 + len;
        while g > head.0 {
            let align = if g == 0 {
                MAX_ORDER
            } else {
                (g.trailing_zeros() as u8).min(MAX_ORDER)
            };
            let fit = (63 - (g - head.0).leading_zeros()) as u8;
            let order = align.min(fit);
            g -= 1 << order;
            self.free_block(mm, Gfn(g), order);
        }
    }

    /// Allocates a contiguous 2^`order` block, splitting larger blocks as
    /// needed. Returns the head frame, with the block's frames left
    /// uncovered for the caller to claim, or `None` if the zone cannot
    /// satisfy the request.
    pub(crate) fn alloc_block(&mut self, mm: &mut MemMap, order: u8) -> Option<Gfn> {
        let mut have = None;
        for o in order..=MAX_ORDER {
            if self.free_heads[o as usize] != NIL {
                have = Some(o);
                break;
            }
        }
        let mut o = have?;
        let head = Gfn(self.free_heads[o as usize] as u64);
        self.unlink(mm, head, o);
        // Split down, freeing upper halves.
        while o > order {
            o -= 1;
            let upper = Gfn(head.0 + (1 << o));
            self.link(mm, upper, o);
        }
        self.free_pages -= 1 << order;
        Some(head)
    }

    /// Allocates a contiguous run of up to `want` pages with one buddy
    /// operation. Returns the head frame and run length, with the run's
    /// frames left uncovered for the caller to claim, or `None` if the
    /// zone is empty.
    ///
    /// Exactly equivalent to draining the run via repeated
    /// `alloc_block(mm, 0)` calls: order-0 allocation always consumes
    /// the smallest free block, and because splitting links the upper
    /// halves into the (empty) lower-order lists, it consumes that block
    /// *sequentially* — head, head+1, … — before touching any other
    /// block. A block no bigger than `want` is therefore taken whole. Of
    /// a bigger block (order `o`) the run is its first `want` pages, and
    /// the rest is linked as the aligned power-of-two pieces that `want`
    /// per-page allocations leave: every list below `o` was empty, so
    /// each piece is alone on its list and the order-`o` list lost only
    /// its head. Either way the pages, their order and every free list,
    /// down to list order, match the per-page path, without its
    /// split/link churn.
    pub(crate) fn alloc_run(&mut self, mm: &mut MemMap, want: u64) -> Option<(Gfn, u64)> {
        debug_assert!(want > 0);
        let mut have = None;
        for o in 0..=MAX_ORDER {
            if self.free_heads[o as usize] != NIL {
                have = Some(o);
                break;
            }
        }
        let o = have?;
        let head = Gfn(self.free_heads[o as usize] as u64);
        self.unlink(mm, head, o);
        let len = want.min(1 << o);
        #[cfg(test)]
        if len < 1 << o {
            self.split_runs += 1;
        }
        // The tail [head+len, head+2^o): at each offset the largest
        // piece its alignment allows, which always fits below the end.
        let end = head.0 + (1 << o);
        let mut g = head.0 + len;
        while g < end {
            let order = (g - head.0).trailing_zeros() as u8;
            self.link(mm, Gfn(g), order);
            g += 1 << order;
        }
        self.free_pages -= len;
        Some((head, len))
    }

    /// Carves a specific free page `g` out of the buddy (the isolation
    /// primitive of a per-page offline). The page is left uncovered for
    /// the caller to cover.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not currently free in this zone.
    #[cfg(test)]
    pub(crate) fn take_free_page(&mut self, mm: &mut MemMap, g: Gfn) {
        let (head, order) = mm
            .free_chunk_of(g)
            .unwrap_or_else(|| panic!("page {g:?} is not free"));
        debug_assert!(
            mm.extent(head).is_some_and(|e| e.head.zone == self.id),
            "page in wrong zone"
        );
        self.unlink(mm, head, order);
        // Repeatedly halve, keeping the half containing `g` out of the
        // lists and freeing the other half.
        let mut head = head;
        let mut order = order;
        while order > 0 {
            order -= 1;
            let upper = Gfn(head.0 + (1 << order));
            if g.0 >= upper.0 {
                self.link(mm, head, order);
                head = upper;
            } else {
                self.link(mm, upper, order);
            }
        }
        debug_assert_eq!(head, g);
        self.free_pages -= 1;
    }

    /// Takes every chunk of the entirely free block `b` off the free
    /// lists, leaving their extents for [`MemMap::offline`] to drop with
    /// the block's table: the isolation of an instant offline, whose
    /// caller offlines `b` next.
    ///
    /// Equivalent to [`Zone::take_free_page`] on every page of `b`: the
    /// per-page path's intermediate splits only ever link and unlink
    /// chunks inside the block, all of which are gone at the end, so the
    /// surviving free lists match exactly.
    pub(crate) fn unlink_block(&mut self, mm: &mut MemMap, b: BlockId) {
        let range = b.frames();
        let mut g = range.start;
        while g.0 < range.end().0 {
            g.0 += self.unlist_free_chunk(mm, g);
        }
    }

    /// Takes every chunk off the free lists, leaving their extents and
    /// links as they are: the isolation of an instant offline of all of
    /// the zone's blocks, which are entirely free and whose tables go
    /// next. Equivalent to [`Zone::unlink_block`] on each of them.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a managed page of the zone is not free.
    pub(crate) fn unlist_all(&mut self) {
        debug_assert_eq!(
            self.free_pages, self.managed_pages,
            "zone {} in use",
            self.id
        );
        self.free_heads = [NIL; MAX_ORDER as usize + 1];
        self.free_pages = 0;
        #[cfg(test)]
        {
            self.lists_emptied += 1;
        }
    }

    /// Takes the whole free buddy chunk headed by `head` off its free
    /// list, leaving its extent in place, off every list: the isolation
    /// of a migrating offline, which drops the extent with the block's
    /// table or, if the offline fails, isolates it before rolling back.
    /// Returns the chunk's length in pages.
    ///
    /// Equivalent to [`Zone::take_free_page`] on each of its pages in
    /// ascending order: the first take unlinks the chunk and pushes the
    /// split-off halves to the fronts of the lower-order lists, and
    /// every later take pops exactly the half it needs back off a front,
    /// so the other chunks' free lists end as they began.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a free chunk head, and (debug) if it is
    /// not of this zone.
    pub(crate) fn unlist_free_chunk(&mut self, mm: &mut MemMap, head: Gfn) -> u64 {
        let d = mm.extent(head).expect("a free chunk head").head;
        self.splice_out(mm, d);
        self.free_pages -= 1 << d.order;
        1 << d.order
    }

    /// Returns the number of free blocks currently on the `order` list
    /// (O(list length); used by tests and fragmentation metrics).
    #[cfg(test)]
    pub(crate) fn free_list_len(&self, mm: &MemMap, order: u8) -> usize {
        let mut n = 0;
        let mut cur = self.free_heads[order as usize];
        while cur != NIL {
            n += 1;
            cur = next_link(mm, cur);
        }
        n
    }

    /// Returns the head frames on the `order` free list, front first
    /// (twin tests compare intra-list order with this).
    #[cfg(test)]
    pub(crate) fn free_list(&self, mm: &MemMap, order: u8) -> Vec<Gfn> {
        let mut out = Vec::new();
        let mut cur = self.free_heads[order as usize];
        while cur != NIL {
            out.push(Gfn(cur as u64));
            cur = next_link(mm, cur);
        }
        out
    }

    /// Returns the head frames of every free chunk of order at least
    /// `min_order`, in address order — what a free-page-reporting scan
    /// walks.
    pub(crate) fn free_chunks(&self, mm: &MemMap, min_order: u8) -> Vec<(Gfn, u8)> {
        let mut out = Vec::new();
        for order in min_order..=MAX_ORDER {
            let mut cur = self.free_heads[order as usize];
            while cur != NIL {
                out.push((Gfn(cur as u64), order));
                cur = next_link(mm, cur);
            }
        }
        out.sort_unstable_by_key(|&(g, _)| g.0);
        out
    }

    /// Debug validation: walks every free list and checks link integrity,
    /// head state, the free-page count, and that every free extent of
    /// this zone in its span is on a list.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    pub(crate) fn assert_consistent(&self, mm: &MemMap) {
        let (mut counted, mut listed) = (0u64, 0usize);
        for order in 0..=MAX_ORDER {
            let mut prev = NIL;
            let mut cur = self.free_heads[order as usize];
            while cur != NIL {
                let g = Gfn(cur as u64);
                let e = mm.extent(g).expect("list node has an extent");
                let d = e.head;
                assert_eq!(d.state, PageState::FreeHead, "list node not a head");
                assert_eq!(e.len, 1 << order, "chunk extent length");
                assert_eq!(d.order, order, "order mismatch");
                assert_eq!(d.zone, self.id, "zone mismatch");
                assert_eq!(d.a, prev, "broken prev link");
                assert_eq!(g.0 & ((1 << order) - 1), 0, "misaligned block");
                counted += 1 << order;
                listed += 1;
                prev = cur;
                cur = d.b;
            }
        }
        assert_eq!(counted, self.free_pages, "free_pages count drifted");
        let blocks = self.span.start.block().0..self.span.end().0.div_ceil(PAGES_PER_BLOCK);
        let heads = blocks
            .flat_map(|b| mm.extents(BlockId(b)))
            .filter(|(_, d)| d.state == PageState::FreeHead && d.zone == self.id)
            .count();
        assert_eq!(heads, listed, "a free extent is not on a free list");
    }
}

/// Returns the next link of the free chunk headed at frame `cur`.
fn next_link(mm: &MemMap, cur: u32) -> u32 {
    mm.extent(Gfn(cur as u64)).expect("a listed chunk").head.b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zone over a fresh online block. The tests leave the pages they
    /// allocate uncovered, as the zone reads free extents alone.
    fn make(span_pages: u64) -> (MemMap, Zone) {
        let mut mm = MemMap::new(span_pages);
        mm.hot_add(BlockId(0));
        mm.online(BlockId(0));
        let zone = Zone::new(0, ZoneKind::Normal, FrameRange::new(Gfn(0), span_pages));
        (mm, zone)
    }

    /// Onlines `pages` frames into the zone as max-order chunks.
    fn fill(mm: &mut MemMap, zone: &mut Zone, pages: u64) {
        assert_eq!(pages % (1 << MAX_ORDER), 0);
        let chunk = 1u64 << MAX_ORDER;
        let mut g = 0;
        while g < pages {
            // free_block covers the chunk with one extent.
            zone.free_block(mm, Gfn(g), MAX_ORDER);
            g += chunk;
        }
        zone.managed_pages += pages;
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let (mut mm, mut zone) = make(2048);
        fill(&mut mm, &mut zone, 2048);
        assert_eq!(zone.free_pages, 2048);
        zone.assert_consistent(&mm);

        let p = zone.alloc_block(&mut mm, 0).unwrap();
        assert_eq!(zone.free_pages, 2047);
        zone.assert_consistent(&mm);

        zone.free_block(&mut mm, p, 0);
        assert_eq!(zone.free_pages, 2048);
        zone.assert_consistent(&mm);
        // Everything merged back to max order.
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 2);
        for o in 0..MAX_ORDER {
            assert_eq!(zone.free_list_len(&mm, o), 0, "order {o} not merged");
        }
    }

    #[test]
    fn split_produces_correct_orders() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let _p = zone.alloc_block(&mut mm, 0).unwrap();
        // One order-10 block split into 0..=9 remainders.
        for o in 0..MAX_ORDER {
            assert_eq!(zone.free_list_len(&mm, o), 1, "order {o}");
        }
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 0);
        assert_eq!(zone.free_pages, 1023);
        zone.assert_consistent(&mm);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        for _ in 0..1024 {
            zone.alloc_block(&mut mm, 0).unwrap();
        }
        assert_eq!(zone.free_pages, 0);
        assert!(zone.alloc_block(&mut mm, 0).is_none());
        assert!(zone.buddy_is_empty());
    }

    #[test]
    fn higher_order_alloc() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let g = zone.alloc_block(&mut mm, 4).unwrap();
        assert_eq!(g.0 & 15, 0, "order-4 block is 16-page aligned");
        assert_eq!(zone.free_pages, 1024 - 16);
        zone.assert_consistent(&mm);
    }

    #[test]
    fn take_free_page_carves_target() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let target = Gfn(777);
        zone.take_free_page(&mut mm, target);
        assert_eq!(zone.free_pages, 1023);
        assert_eq!(mm.free_chunk_of(target), None);
        zone.assert_consistent(&mm);
        // Freeing it back restores full merge.
        zone.free_block(&mut mm, target, 0);
        assert_eq!(zone.free_pages, 1024);
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 1);
        zone.assert_consistent(&mm);
    }

    #[test]
    fn take_every_page_one_by_one() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        for g in 0..1024 {
            zone.take_free_page(&mut mm, Gfn(g));
        }
        assert_eq!(zone.free_pages, 0);
        assert!(zone.buddy_is_empty());
        zone.assert_consistent(&mm);
    }

    #[test]
    fn free_chunks_reflect_buddy_state() {
        let (mut mm, mut zone) = make(4096);
        fill(&mut mm, &mut zone, 4096);
        // Fully merged: four order-10 chunks, in address order.
        let chunks = zone.free_chunks(&mm, 9);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(chunks.iter().all(|&(_, o)| o == MAX_ORDER));
        // An order-0 allocation splits one chunk: the order-9 remainder
        // appears, the order-10 count drops.
        let g = zone.alloc_block(&mut mm, 0).unwrap();
        let chunks = zone.free_chunks(&mm, 9);
        assert_eq!(chunks.iter().filter(|&&(_, o)| o == MAX_ORDER).count(), 3);
        assert_eq!(chunks.iter().filter(|&&(_, o)| o == 9).count(), 1);
        // Below the threshold nothing of order < 9 is reported.
        assert!(chunks.iter().all(|&(_, o)| o >= 9));
        // Freeing restores the fully merged view.
        zone.free_block(&mut mm, g, 0);
        assert_eq!(zone.free_chunks(&mm, 9).len(), 4);
    }

    #[test]
    fn merge_does_not_cross_span() {
        // Zone covering only the upper half of a would-be order-10 pair:
        // merging must stop at the span edge.
        let mut mm = MemMap::new(2048);
        mm.hot_add(BlockId(0));
        mm.online(BlockId(0));
        let mut zone = Zone::new(0, ZoneKind::Normal, FrameRange::new(Gfn(1024), 1024));
        zone.free_block(&mut mm, Gfn(1024), MAX_ORDER);
        zone.managed_pages += 1024;
        zone.assert_consistent(&mm);
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 1);
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn take_used_page_panics() {
        let (mut mm, mut zone) = make(1024);
        fill(&mut mm, &mut zone, 1024);
        let g = zone.alloc_block(&mut mm, 0).unwrap();
        zone.take_free_page(&mut mm, g);
    }

    #[test]
    fn alloc_run_matches_sequential_order_zero_allocs() {
        // Drive two identical zones through mixed run/free traffic; the
        // run path must produce the same page sequence and the same
        // buddy state as repeated order-0 allocation. Wants reach past
        // a MAX_ORDER chunk, and frees scatter pages so that runs end
        // both inside and at the end of chunks of every order.
        let (mut mm_a, mut za) = make(16384);
        let (mut mm_b, mut zb) = make(16384);
        fill(&mut mm_a, &mut za, 16384);
        fill(&mut mm_b, &mut zb, 16384);
        let mut x = 0xDEAD_BEEFu64;
        let mut held: Vec<Gfn> = Vec::new();
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(4) && !held.is_empty() {
                // Free pseudo-random pages from both zones alike.
                for _ in 0..1 + (x / 7) % 3000 {
                    if held.is_empty() {
                        break;
                    }
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let idx = (x >> 33) as usize % held.len();
                    let g = held.swap_remove(idx);
                    za.free_block(&mut mm_a, g, 0);
                    zb.free_block(&mut mm_b, g, 0);
                }
                continue;
            }
            // Allocate a run of 1..=3000 pages via both paths.
            let mut want = 1 + (x / 3) % 3000;
            let mut run_pages = Vec::new();
            while want > 0 {
                let Some((head, len)) = za.alloc_run(&mut mm_a, want) else {
                    break;
                };
                run_pages.extend((head.0..head.0 + len).map(Gfn));
                want -= len;
            }
            let seq_pages: Vec<Gfn> = (0..run_pages.len())
                .map(|_| zb.alloc_block(&mut mm_b, 0).unwrap())
                .collect();
            assert_eq!(run_pages, seq_pages, "allocation sequence must match");
            held.extend(run_pages);
        }
        assert!(za.split_runs > 0, "no run was cut from a bigger chunk");
        assert_eq!(za.free_pages, zb.free_pages);
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        // Identical free lists, down to list order.
        for o in 0..=MAX_ORDER {
            assert_eq!(
                za.free_list(&mm_a, o),
                zb.free_list(&mm_b, o),
                "order {o} free list diverged"
            );
        }
    }

    #[test]
    fn alloc_run_takes_a_short_run_from_the_front_of_a_bigger_chunk() {
        // One order-10 chunk and a want of 600: the run is the chunk's
        // first 600 pages, and its tail is left as the aligned pieces
        // 600 order-0 allocations leave, one per list.
        let (mut mm_a, mut za) = make(1024);
        let (mut mm_b, mut zb) = make(1024);
        fill(&mut mm_a, &mut za, 1024);
        fill(&mut mm_b, &mut zb, 1024);
        assert_eq!(za.alloc_run(&mut mm_a, 600), Some((Gfn(0), 600)));
        let seq: Vec<Gfn> = (0..600)
            .map(|_| zb.alloc_block(&mut mm_b, 0).unwrap())
            .collect();
        assert_eq!(seq, (0..600).map(Gfn).collect::<Vec<_>>());
        let tail = vec![(Gfn(600), 3), (Gfn(608), 5), (Gfn(640), 7), (Gfn(768), 8)];
        assert_eq!(za.free_chunks(&mm_a, 0), tail);
        assert_eq!(zb.free_chunks(&mm_b, 0), tail);
        for o in 0..=MAX_ORDER {
            assert_eq!(za.free_list(&mm_a, o), zb.free_list(&mm_b, o), "order {o}");
        }
        assert_eq!((za.free_pages, zb.free_pages), (424, 424));
        za.assert_consistent(&mm_a);
    }

    #[test]
    fn free_run_matches_sequential_order_zero_frees() {
        // Drive two identical zones: one frees whole runs via
        // `free_run`, the other frees the same pages one at a time.
        // Buddy merging must land in the same canonical state either
        // way, down to intra-list ordering.
        let (mut mm_a, mut za) = make(4096);
        let (mut mm_b, mut zb) = make(4096);
        fill(&mut mm_a, &mut za, 4096);
        fill(&mut mm_b, &mut zb, 4096);
        let mut x = 0xC0FF_EE00u64;
        let mut held: Vec<(Gfn, u64)> = Vec::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(3) && !held.is_empty() {
                let idx = (x as usize / 5) % held.len();
                let (head, len) = held.swap_remove(idx);
                za.free_run(&mut mm_a, head, len);
                for g in head.0..head.0 + len {
                    zb.free_block(&mut mm_b, Gfn(g), 0);
                }
                continue;
            }
            // Allocate the same runs from both zones to stay in sync.
            let want = 1 + (x / 3) % 200;
            if let Some((head, len)) = za.alloc_run(&mut mm_a, want) {
                let (hb, lb) = zb.alloc_run(&mut mm_b, want).unwrap();
                assert_eq!((head, len), (hb, lb));
                held.push((head, len));
            }
        }
        // Drain everything still held so the whole zone is exercised.
        for (head, len) in held {
            za.free_run(&mut mm_a, head, len);
            for g in head.0..head.0 + len {
                zb.free_block(&mut mm_b, Gfn(g), 0);
            }
        }
        assert_eq!(za.free_pages, zb.free_pages);
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        for o in 0..=MAX_ORDER {
            assert_eq!(
                za.free_chunks(&mm_a, o),
                zb.free_chunks(&mm_b, o),
                "order {o} free list diverged"
            );
        }
    }

    #[test]
    fn free_run_rev_matches_descending_order_zero_frees() {
        // As above, with every run freed from its last page down.
        let (mut mm_a, mut za) = make(4096);
        let (mut mm_b, mut zb) = make(4096);
        fill(&mut mm_a, &mut za, 4096);
        fill(&mut mm_b, &mut zb, 4096);
        let mut x = 0x0DD_BA11u64;
        let mut held: Vec<(Gfn, u64)> = Vec::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(3) && !held.is_empty() {
                let idx = (x as usize / 5) % held.len();
                let (head, len) = held.swap_remove(idx);
                // Free a random-length tail, keeping the rest held.
                let n = 1 + (x / 7) % len;
                let tail = Gfn(head.0 + len - n);
                za.free_run_rev(&mut mm_a, tail, n);
                for g in (tail.0..tail.0 + n).rev() {
                    zb.free_block(&mut mm_b, Gfn(g), 0);
                }
                if n < len {
                    held.push((head, len - n));
                }
                continue;
            }
            let want = 1 + (x / 3) % 200;
            if let Some((head, len)) = za.alloc_run(&mut mm_a, want) {
                assert_eq!(zb.alloc_run(&mut mm_b, want), Some((head, len)));
                held.push((head, len));
            }
        }
        for (head, len) in held {
            za.free_run_rev(&mut mm_a, head, len);
            for g in (head.0..head.0 + len).rev() {
                zb.free_block(&mut mm_b, Gfn(g), 0);
            }
        }
        assert_eq!(za.free_pages, 4096);
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        for o in 0..=MAX_ORDER {
            assert_eq!(
                za.free_list(&mm_a, o),
                zb.free_list(&mm_b, o),
                "order {o} free list diverged"
            );
        }
    }

    #[test]
    fn unlink_block_matches_per_page_takes() {
        // Fragment two identical two-block zones the same way, then take
        // the same entirely free block off the lists: unlinking its
        // chunks in place must leave the same free lists, in the same
        // order, as per-page carving.
        let twin = || {
            let mut mm = MemMap::new(2 * PAGES_PER_BLOCK);
            for b in [BlockId(0), BlockId(1)] {
                mm.hot_add(b);
                mm.online(b);
            }
            let span = FrameRange::new(Gfn(0), 2 * PAGES_PER_BLOCK);
            let mut zone = Zone::new(0, ZoneKind::Normal, span);
            fill(&mut mm, &mut zone, 2 * PAGES_PER_BLOCK);
            (mm, zone)
        };
        let (mut mm_a, mut za) = twin();
        let (mut mm_b, mut zb) = twin();
        let mut x = 0x5EED_5EEDu64;
        // Allocate scattered pages outside block 0 so it stays free but
        // the surrounding buddy state is ragged.
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (ga, gb) = (
                za.alloc_block(&mut mm_a, 0).unwrap(),
                zb.alloc_block(&mut mm_b, 0).unwrap(),
            );
            assert_eq!(ga, gb);
            if ga.0 < PAGES_PER_BLOCK || x.is_multiple_of(5) {
                za.free_block(&mut mm_a, ga, 0);
                zb.free_block(&mut mm_b, gb, 0);
            }
        }
        let block = BlockId(0);
        za.unlink_block(&mut mm_a, block);
        mm_a.offline(block);
        for g in block.frames().iter() {
            zb.take_free_page(&mut mm_b, g);
        }
        mm_b.isolate(block.frames(), 0);
        mm_b.offline(block);
        assert_eq!(za.free_pages, zb.free_pages);
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        for o in 0..=MAX_ORDER {
            let list = za.free_list(&mm_a, o);
            assert_eq!(list, zb.free_list(&mm_b, o), "order {o} free list diverged");
            assert!(list.iter().all(|g| g.0 >= PAGES_PER_BLOCK));
        }
        // Onlining the block again links its chunks in front of the
        // ragged lists as freeing them one by one does.
        za.link_block(&mut mm_a, block);
        mm_b.online(block);
        for c in block.frames().iter().step_by(1 << MAX_ORDER) {
            zb.free_block(&mut mm_b, c, MAX_ORDER);
        }
        za.assert_consistent(&mm_a);
        zb.assert_consistent(&mm_b);
        assert_eq!(za.free_pages, zb.free_pages);
        for o in 0..=MAX_ORDER {
            let list = za.free_list(&mm_a, o);
            assert_eq!(
                list,
                zb.free_list(&mm_b, o),
                "order {o} list after onlining"
            );
        }
    }

    #[test]
    fn interleaved_alloc_free_stays_consistent() {
        let (mut mm, mut zone) = make(4096);
        fill(&mut mm, &mut zone, 4096);
        let mut held = Vec::new();
        // Deterministic pseudo-random interleaving.
        let mut x = 0x12345678u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !x.is_multiple_of(3) || held.is_empty() {
                if let Some(g) = zone.alloc_block(&mut mm, 0) {
                    held.push(g);
                }
            } else {
                let idx = (x as usize / 7) % held.len();
                let g = held.swap_remove(idx);
                zone.free_block(&mut mm, g, 0);
            }
        }
        zone.assert_consistent(&mm);
        for g in held {
            zone.free_block(&mut mm, g, 0);
        }
        zone.assert_consistent(&mm);
        assert_eq!(zone.free_pages, 4096);
        assert_eq!(zone.free_list_len(&mm, MAX_ORDER), 4);
    }
}
