//! Per-page metadata: the simulator's `struct page`.
//!
//! A [`PageDesc`] is what one 4 KiB frame reads as, mirroring the Linux
//! `memmap` entry the paper discusses in §2.2. The guest memory map
//! ([`crate::memmap::MemMap`]) stores one per *extent*, not per frame:
//! an extent's head descriptor and length give every frame it covers
//! ([`MemMap::page`](crate::memmap::MemMap::page) resolves them). The
//! two word fields are overloaded the way the kernel overloads `struct
//! page`: free chunk heads use them as intrusive free-list links, used
//! pages as owner back-references (the owner's id, and the handle of
//! the owner run holding the page — see the `runs` module).

/// Sentinel for "no link" in intrusive free lists.
pub const NIL: u32 = u32::MAX;

/// Maximum buddy order (order 10 = 4 MiB), the Linux `MAX_PAGE_ORDER`.
pub const MAX_ORDER: u8 = 10;

/// Buddy order of a 2 MiB transparent huge page (`HPAGE_PMD_ORDER`).
pub const HUGE_ORDER: u8 = 9;

/// Number of 4 KiB base pages in one 2 MiB huge page.
pub const PAGES_PER_HUGE: u64 = 1 << HUGE_ORDER;

/// Zone index meaning "no zone" (page not onlined anywhere).
pub const NO_ZONE: u8 = u8::MAX;

/// The allocation state of a guest page frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageState {
    /// No backing `memmap` entry: the block is not hot-added.
    Absent = 0,
    /// Hot-added but not onlined (or offlined): invisible to the buddy.
    Offline = 1,
    /// Head page of a free buddy block of `order` pages.
    FreeHead = 2,
    /// Interior page of a free buddy block (its head is below it). A
    /// resolved state: the memmap derives it from the head.
    FreeTail = 3,
    /// Anonymous page owned by a process (`a` = pid, `b` = the handle
    /// of its run in the process's run list).
    Anon = 4,
    /// Page-cache page owned by a file (`a` = file id, `b` = the handle
    /// of its run in the file's run list).
    File = 5,
    /// Unmovable allocation: a kernel page (`a` = 0, `b` = its run's
    /// index in the kernel's run table) or a device's single page
    /// (`a` = [`NIL`]).
    Kernel = 6,
    /// Pulled out of the buddy by the offlining path; not allocatable
    /// and owned by nobody (`a` = `b` = [`NIL`]).
    Isolated = 7,
    /// Head page of a 2 MiB anonymous transparent huge page
    /// (`a` = pid, `b` = index in the process's huge-page set).
    HugeHead = 8,
    /// Interior page of a huge page; its 512-aligned head carries the
    /// mapping. A resolved state, with the head's owner fields: the
    /// memmap derives it from the huge page's extent.
    HugeTail = 9,
}

impl PageState {
    /// Returns `true` for pages sitting in buddy free lists.
    pub fn is_free(self) -> bool {
        matches!(self, PageState::FreeHead | PageState::FreeTail)
    }

    /// Returns `true` for pages holding data that must be migrated before
    /// their block can be offlined.
    pub(crate) fn is_used(self) -> bool {
        matches!(
            self,
            PageState::Anon
                | PageState::File
                | PageState::Kernel
                | PageState::HugeHead
                | PageState::HugeTail
        )
    }

    /// Returns `true` if the page's contents can be migrated elsewhere.
    #[cfg(test)]
    pub(crate) fn is_movable(self) -> bool {
        matches!(
            self,
            PageState::Anon | PageState::File | PageState::HugeHead | PageState::HugeTail
        )
    }
}

/// Per-frame metadata (12 bytes).
#[derive(Clone, Copy, Debug)]
pub struct PageDesc {
    /// Allocation state.
    pub state: PageState,
    /// Buddy order; meaningful only when `state == FreeHead`.
    pub order: u8,
    /// Index of the zone this page currently belongs to, or [`NO_ZONE`].
    pub zone: u8,
    /// Spare flags byte (keeps the struct naturally aligned).
    pub flags: u8,
    /// `FreeHead`: previous free-list link. Used pages: owner id.
    pub a: u32,
    /// `FreeHead`: next free-list link. `Anon`/`File`: handle of the
    /// owner run holding the page. Huge pages: index in the owner's
    /// huge-page set.
    pub b: u32,
}

impl PageDesc {
    /// An absent page (no memmap coverage).
    pub const ABSENT: PageDesc = PageDesc {
        state: PageState::Absent,
        order: 0,
        zone: NO_ZONE,
        flags: 0,
        a: NIL,
        b: NIL,
    };

    /// A hot-added page that is not onlined: no zone, no links.
    pub const OFFLINE: PageDesc = PageDesc {
        state: PageState::Offline,
        ..PageDesc::ABSENT
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_desc_is_small() {
        assert!(
            core::mem::size_of::<PageDesc>() <= 12,
            "PageDesc grew to {} bytes; every memmap extent would grow with it",
            core::mem::size_of::<PageDesc>()
        );
    }

    #[test]
    fn state_predicates() {
        assert!(PageState::FreeHead.is_free());
        assert!(PageState::FreeTail.is_free());
        assert!(!PageState::Anon.is_free());
        assert!(PageState::Anon.is_used());
        assert!(PageState::File.is_used());
        assert!(PageState::Kernel.is_used());
        assert!(!PageState::Offline.is_used());
        assert!(PageState::Anon.is_movable());
        assert!(PageState::File.is_movable());
        assert!(!PageState::Kernel.is_movable());
        assert!(!PageState::Isolated.is_movable());
    }

    #[test]
    fn huge_state_predicates() {
        assert!(PageState::HugeHead.is_used());
        assert!(PageState::HugeTail.is_used());
        assert!(PageState::HugeHead.is_movable());
        assert!(PageState::HugeTail.is_movable());
        assert!(!PageState::HugeHead.is_free());
    }

    #[test]
    fn huge_geometry() {
        assert_eq!(PAGES_PER_HUGE, 512);
        assert_eq!(PAGES_PER_HUGE * 4096, 2 * 1024 * 1024);
        const { assert!(HUGE_ORDER < MAX_ORDER, "huge pages fit the buddy") }
    }
}
