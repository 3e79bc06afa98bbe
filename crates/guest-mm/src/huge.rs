//! Transparent huge pages (2 MiB) in the guest memory manager.
//!
//! The paper's testbed enables THP on the host and notes that guest
//! memory is allocated "in page granularity (4KiB or 2MiB)" (§7). This
//! module adds the guest half of that: anonymous faults may be served by
//! order-9 buddy allocations when the zone has the contiguity, falling
//! back to base pages when it does not — the fallback rate is itself a
//! fragmentation metric (cf. the fragmentation pathologies of §2.2).
//!
//! Huge pages interact with hot-unplug the way they do in Linux:
//!
//! * a huge page inside an offlining block is migrated *as a unit* when
//!   an order-9 target exists elsewhere;
//! * otherwise it is **split** into 512 base pages that migrate
//!   individually — slower, and the reason THP and dense memory
//!   hot-unplug compose poorly on vanilla paths. Squeezy side-steps both
//!   cases: partitions are reclaimed only when empty.

use mem_types::{FrameRange, Gfn};

use crate::memmap::Extent;
use crate::page::{PageDesc, PageState, HUGE_ORDER, PAGES_PER_HUGE};
use crate::{GuestMm, MmError, Pid};

/// Result of a huge-backed anonymous fault burst.
#[derive(Clone, Debug, Default)]
pub struct HugeFaultOutcome {
    /// Head frames mapped as real 2 MiB huge pages.
    pub huge_heads: Vec<Gfn>,
    /// Base pages allocated by fallback when no order-9 contiguity was
    /// available (whole huge requests fall back as 512 base pages).
    pub fallback_pages: Vec<Gfn>,
}

impl HugeFaultOutcome {
    /// Total 4 KiB pages mapped by the burst.
    pub fn total_pages(&self) -> u64 {
        self.huge_heads.len() as u64 * PAGES_PER_HUGE + self.fallback_pages.len() as u64
    }

    /// Fraction of requested huge pages actually mapped huge (1.0 when
    /// nothing fell back; 0.0 when everything did). `None` if the burst
    /// mapped nothing.
    pub fn huge_success_rate(&self) -> Option<f64> {
        let total = self.total_pages();
        if total == 0 {
            return None;
        }
        Some(self.huge_heads.len() as u64 as f64 * PAGES_PER_HUGE as f64 / total as f64)
    }
}

/// How one huge page inside an offlining block was evacuated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum HugeEvacuation {
    /// Migrated whole to an order-9 target.
    Whole,
    /// Split in place; the caller must migrate the resulting base pages.
    Split,
}

impl GuestMm {
    /// Faults `n_huge` 2 MiB huge pages into `pid`'s address space.
    ///
    /// Each huge request tries an order-9 allocation from the process's
    /// zonelist first; when no zone has the contiguity the request falls
    /// back to 512 base-page allocations (Linux's THP fault fallback).
    /// On `Err(OutOfMemory)` the memory mapped before exhaustion remains
    /// attached to the process, as with [`GuestMm::fault_anon`].
    pub fn fault_anon_huge(&mut self, pid: Pid, n_huge: u64) -> Result<HugeFaultOutcome, MmError> {
        let policy = self.procs.get(&pid.0).ok_or(MmError::NoSuchProcess)?.policy;
        let (zonelist, zones) = crate::zonelist_for(policy);
        let mut out = HugeFaultOutcome::default();
        for _ in 0..n_huge {
            match self.alloc_order_from_zonelist(&zonelist[..zones], HUGE_ORDER) {
                Some((head, zone)) => {
                    let proc = self.procs.get_mut(&pid.0).expect("checked above");
                    let slot = proc.huge_pages.len() as u32;
                    proc.huge_pages.push(head);
                    self.claim_huge(head, zone, pid.0, slot);
                    out.huge_heads.push(head);
                    self.stats.huge_faults += 1;
                }
                None => {
                    // THP fallback: 512 base pages instead.
                    self.stats.huge_fallbacks += 1;
                    match self.fault_anon(pid, PAGES_PER_HUGE) {
                        Ok(pages) => out.fallback_pages.extend(pages),
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        self.stats.anon_faults += out.huge_heads.len() as u64 * PAGES_PER_HUGE;
        Ok(out)
    }

    /// Releases the `n` most recently faulted huge pages of `pid`.
    /// Returns the number of huge pages actually freed.
    pub fn free_anon_huge(&mut self, pid: Pid, n: u64) -> Result<u64, MmError> {
        let mut freed = 0;
        for _ in 0..n {
            let Some(head) = self
                .procs
                .get_mut(&pid.0)
                .ok_or(MmError::NoSuchProcess)?
                .huge_pages
                .pop()
            else {
                break;
            };
            self.release_huge(head);
            freed += 1;
        }
        Ok(freed)
    }

    /// Claims an order-9 block freshly allocated from `zone` (already
    /// out of the buddy) as a huge page for `owner`: one extent, whose
    /// tails read as the head's.
    pub(crate) fn claim_huge(&mut self, head: Gfn, zone: u8, owner: u32, slot: u32) {
        debug_assert_eq!(head.0 % PAGES_PER_HUGE, 0, "huge head misaligned");
        let d = PageDesc {
            state: PageState::HugeHead,
            order: 0,
            zone,
            flags: 0,
            a: owner,
            b: slot,
        };
        self.memmap.insert(
            head,
            Extent {
                head: d,
                len: PAGES_PER_HUGE as u32,
            },
        );
        // A 2 MiB huge page never straddles a 128 MiB block.
        let c = self.blocks.counters_mut(head.block());
        c.free -= PAGES_PER_HUGE as u32;
        c.used_movable += PAGES_PER_HUGE as u32;
    }

    /// Frees a whole huge page back to its zone's buddy.
    pub(crate) fn release_huge(&mut self, head: Gfn) {
        let d = self.memmap.remove(head).head;
        debug_assert_eq!(d.state, PageState::HugeHead);
        let zone = d.zone;
        let c = self.blocks.counters_mut(head.block());
        c.used_movable -= PAGES_PER_HUGE as u32;
        c.free += PAGES_PER_HUGE as u32;
        self.zones[zone as usize].free_block(&mut self.memmap, head, HUGE_ORDER);
    }

    /// Evacuates the huge page at `head` out of an offlining block:
    /// whole-unit migration to an order-9 target when one exists,
    /// otherwise an in-place split (the caller migrates the resulting
    /// base pages individually).
    pub(crate) fn evacuate_huge(&mut self, head: Gfn) -> HugeEvacuation {
        let d = self.memmap.page(head);
        debug_assert_eq!(d.state, PageState::HugeHead);
        let (zone, owner, slot) = (d.zone, d.a, d.b);
        let (zonelist, n) = crate::migration_zonelist(zone);
        if let Some((target, target_zone)) =
            self.alloc_order_from_zonelist(&zonelist[..n], HUGE_ORDER)
        {
            // Whole-huge migration: claim the target, patch the owner's
            // huge set, isolate the source range.
            self.claim_huge(target, target_zone, owner, slot);
            let proc = self
                .procs
                .get_mut(&owner)
                .expect("huge page owned by live process");
            proc.huge_pages[slot as usize] = target;
            let from = head.block();
            self.memmap.remove(head);
            self.memmap
                .isolate(FrameRange::new(head, PAGES_PER_HUGE), zone);
            let c = self.blocks.counters_mut(from);
            c.used_movable -= PAGES_PER_HUGE as u32;
            c.isolated += PAGES_PER_HUGE as u32;
            self.stats.huge_migrated += 1;
            HugeEvacuation::Whole
        } else {
            self.split_huge(head);
            HugeEvacuation::Split
        }
    }

    /// Splits the huge page at `head` into 512 independent base `Anon`
    /// pages in place (block counters are unchanged: the pages stay
    /// used-movable). The owner's bookkeeping moves from the huge set to
    /// the base-page set, appended as one 512-page run.
    pub(crate) fn split_huge(&mut self, head: Gfn) {
        let d = self.memmap.remove(head).head;
        debug_assert_eq!(d.state, PageState::HugeHead);
        let (owner, slot) = (d.a, d.b);
        // Remove from the owner's huge set (swap_remove + patch the
        // moved entry's slot, as the migration path does for base pages).
        let moved = {
            let proc = self
                .procs
                .get_mut(&owner)
                .expect("huge page owned by live process");
            debug_assert_eq!(proc.huge_pages[slot as usize], head);
            proc.huge_pages.swap_remove(slot as usize);
            proc.huge_pages.get(slot as usize).copied()
        };
        if let Some(m) = moved {
            self.memmap.extent_mut(m).head.b = slot;
        }
        // The frames become base Anon pages of the same process: one run
        // (or the growth of the run they continue).
        let proc = self.procs.get_mut(&owner).expect("owner alive");
        let run = proc.base.append(head, PAGES_PER_HUGE);
        let base = PageDesc {
            state: PageState::Anon,
            b: run,
            ..d
        };
        self.memmap.claim(head, PAGES_PER_HUGE, base);
        self.stats.huge_splits += 1;
    }

    /// Allocates one order-`order` block from the first zone in
    /// `zonelist` that can serve it, returning the block and that zone.
    pub(crate) fn alloc_order_from_zonelist(
        &mut self,
        zonelist: &[u8],
        order: u8,
    ) -> Option<(Gfn, u8)> {
        for &z in zonelist {
            if let Some(g) = self.zones[z as usize].alloc_block(&mut self.memmap, order) {
                return Some((g, z));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::AllocPolicy;
    use crate::{BlockState, GuestMmConfig, ZONE_MOVABLE};
    use mem_types::{BlockId, PAGE_SIZE};

    const MIB: u64 = 1 << 20;

    fn config() -> GuestMmConfig {
        GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: 512 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        }
    }

    fn mm_with_movable_blocks(n: u64) -> GuestMm {
        let mut mm = GuestMm::new(config());
        for i in 2..2 + n {
            mm.hot_add_block(BlockId(i)).unwrap();
            mm.online_block(BlockId(i), ZONE_MOVABLE).unwrap();
        }
        mm
    }

    #[test]
    fn huge_fault_maps_aligned_heads() {
        let mut mm = mm_with_movable_blocks(1);
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        let out = mm.fault_anon_huge(pid, 4).unwrap();
        assert_eq!(out.huge_heads.len(), 4);
        assert!(out.fallback_pages.is_empty());
        assert_eq!(out.huge_success_rate(), Some(1.0));
        for h in &out.huge_heads {
            assert_eq!(h.0 % PAGES_PER_HUGE, 0, "head misaligned");
            assert_eq!(mm.memmap().state(*h), PageState::HugeHead);
            assert_eq!(mm.memmap().state(Gfn(h.0 + 1)), PageState::HugeTail);
            assert_eq!(
                mm.memmap().state(Gfn(h.0 + PAGES_PER_HUGE - 1)),
                PageState::HugeTail
            );
        }
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 4 * PAGES_PER_HUGE);
        assert_eq!(mm.process(pid).unwrap().rss_huge(), 4);
        assert_eq!(mm.used_bytes(), 32 * MIB + 4 * PAGES_PER_HUGE * PAGE_SIZE);
        mm.assert_consistent();
    }

    #[test]
    fn huge_fault_falls_back_when_fragmented() {
        let mut mm = mm_with_movable_blocks(1);
        // Fragment the movable zone: claim base pages so that no free
        // order-9 chunk remains, then free every other one.
        let frag = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        let total = mem_types::PAGES_PER_BLOCK;
        mm.fault_anon(frag, total).unwrap();
        let held: Vec<Gfn> = mm.process(frag).unwrap().pages().collect();
        for g in held.iter().filter(|g| g.0 % 2 == 0) {
            // Free even frames: every free run is 1 page long.
            mm.free_anon_page(frag, *g).unwrap();
        }

        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        let out = mm.fault_anon_huge(pid, 1).unwrap();
        assert!(out.huge_heads.is_empty(), "no contiguity for huge");
        assert_eq!(out.fallback_pages.len(), PAGES_PER_HUGE as usize);
        assert_eq!(out.huge_success_rate(), Some(0.0));
        assert_eq!(mm.stats().huge_fallbacks, 1);
        mm.assert_consistent();
    }

    #[test]
    fn free_anon_huge_returns_contiguity() {
        let mut mm = mm_with_movable_blocks(1);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        mm.fault_anon_huge(pid, 8).unwrap();
        assert_eq!(mm.free_anon_huge(pid, 3).unwrap(), 3);
        assert_eq!(mm.process(pid).unwrap().rss_huge(), 5);
        // Freeing more than resident frees what is there.
        assert_eq!(mm.free_anon_huge(pid, 100).unwrap(), 5);
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 0);
        // Everything merged back: another full-block huge run succeeds.
        let out = mm
            .fault_anon_huge(pid, mem_types::PAGES_PER_BLOCK / PAGES_PER_HUGE)
            .unwrap();
        assert!(out.fallback_pages.is_empty());
        mm.assert_consistent();
    }

    #[test]
    fn exit_frees_huge_pages_too() {
        let mut mm = mm_with_movable_blocks(1);
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 100).unwrap();
        mm.fault_anon_huge(pid, 2).unwrap();
        let used0 = mm.used_bytes();
        let freed = mm.exit_process(pid).unwrap();
        assert_eq!(freed, 100 + 2 * PAGES_PER_HUGE);
        assert_eq!(mm.used_bytes(), used0 - freed * PAGE_SIZE);
        mm.assert_consistent();
    }

    #[test]
    fn offline_migrates_huge_whole_when_target_exists() {
        let mut mm = mm_with_movable_blocks(2);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        mm.fault_anon_huge(pid, 3).unwrap();
        let b = mm.process(pid).unwrap().huge_pages[0].block();
        let out = mm.offline_block(b).unwrap();
        assert_eq!(out.migrated_huge, 3, "all three moved whole");
        assert_eq!(out.huge_splits, 0);
        assert_eq!(out.migrated, 0, "no base-page migrations");
        // The process still owns 3 huge pages, now in the other block.
        let p = mm.process(pid).unwrap();
        assert_eq!(p.rss_huge(), 3);
        for h in &p.huge_pages {
            assert_ne!(h.block(), b);
            assert_eq!(mm.memmap().state(*h), PageState::HugeHead);
        }
        assert_eq!(mm.blocks().state(b), BlockState::AddedOffline);
        mm.assert_consistent();
    }

    #[test]
    fn offline_splits_huge_when_no_order9_target() {
        // Single movable block holding the huge page; the only fallback
        // (ZONE_NORMAL) is too fragmented for order-9 but has base pages.
        let mut mm = mm_with_movable_blocks(1);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        mm.fault_anon_huge(pid, 1).unwrap();
        let b = mm.process(pid).unwrap().huge_pages[0].block();

        // Fragment ZONE_NORMAL: exhaust it, then free scattered pages.
        let frag = mm.spawn_process(AllocPolicy::PinnedZone(crate::ZONE_NORMAL));
        let free_now = mm.zone(crate::ZONE_NORMAL).free_pages;
        mm.fault_anon(frag, free_now).unwrap();
        let held: Vec<Gfn> = mm.process(frag).unwrap().pages().collect();
        for g in held.iter().filter(|g| g.0 % 2 == 0) {
            mm.free_anon_page(frag, *g).unwrap();
        }

        let out = mm.offline_block(b).unwrap();
        assert_eq!(out.migrated_huge, 0);
        assert_eq!(out.huge_splits, 1, "huge page split before migrating");
        assert_eq!(out.migrated, PAGES_PER_HUGE, "512 base migrations");
        let p = mm.process(pid).unwrap();
        assert_eq!(p.rss_huge(), 0, "huge page demoted");
        assert_eq!(p.rss_pages(), PAGES_PER_HUGE);
        // The split pages migrated in order, each to its own slot.
        for (slot, g) in p.pages().enumerate() {
            assert_ne!(g.block(), b);
            assert_eq!(mm.page_slot(g), Some(slot as u64));
        }
        mm.assert_consistent();
    }

    #[test]
    fn instant_offline_rejects_huge_occupied_block() {
        let mut mm = mm_with_movable_blocks(1);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        mm.fault_anon_huge(pid, 1).unwrap();
        let b = mm.process(pid).unwrap().huge_pages[0].block();
        assert_eq!(mm.offline_blocks_instant(&[b]), Err(MmError::BlockNotEmpty));
        mm.exit_process(pid).unwrap();
        assert!(mm.offline_blocks_instant(&[b]).is_ok());
        mm.assert_consistent();
    }

    #[test]
    fn huge_stats_accumulate() {
        let mut mm = mm_with_movable_blocks(2);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        mm.fault_anon_huge(pid, 2).unwrap();
        let b = mm.process(pid).unwrap().huge_pages[0].block();
        mm.offline_block(b).unwrap();
        let s = mm.stats();
        assert_eq!(s.huge_faults, 2);
        assert_eq!(s.huge_migrated, 2);
        assert_eq!(s.huge_splits, 0);
        assert_eq!(s.anon_faults, 2 * PAGES_PER_HUGE);
    }

    #[test]
    fn mixed_base_and_huge_offline() {
        let mut mm = mm_with_movable_blocks(2);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        // Base pages land first, then huge pages from the same block.
        mm.fault_anon(pid, 64).unwrap();
        mm.fault_anon_huge(pid, 1).unwrap();
        let b = mm.process(pid).unwrap().huge_pages[0].block();
        let out = mm.offline_block(b).unwrap();
        assert_eq!(out.migrated_huge, 1);
        assert_eq!(out.migrated, 64);
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 64 + PAGES_PER_HUGE);
        mm.assert_consistent();
    }

    #[test]
    fn huge_success_rate_reporting() {
        let out = HugeFaultOutcome::default();
        assert_eq!(out.huge_success_rate(), None);
        let out = HugeFaultOutcome {
            huge_heads: vec![Gfn(0)],
            fallback_pages: (0..PAGES_PER_HUGE).map(Gfn).collect(),
        };
        assert_eq!(out.huge_success_rate(), Some(0.5));
        assert_eq!(out.total_pages(), 2 * PAGES_PER_HUGE);
    }
}
