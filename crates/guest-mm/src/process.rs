//! Process address spaces: the simulator's `mm_struct`.
//!
//! A process owns a set of anonymous pages (its resident set), held as
//! ordered frame runs, and an allocation policy deciding which zones
//! serve its faults — the paper's Squeezy extension adds a partition id
//! to Linux's `mm_struct` so the fault path can "only allocate pages
//! from the specific partition for the process" (§4.1). Here the policy
//! enum plays that role.

use mem_types::{FrameRange, Gfn};

use crate::runs::RunList;

/// Process identifier inside one guest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

/// Where a process's anonymous faults are served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocPolicy {
    /// Default Linux behaviour: movable zones first, normal as fallback.
    MovableDefault,
    /// Squeezy: allocate only from the given zone (partition); OOM-kill
    /// rather than spill into other zones (§4.1 "OS mechanisms (e.g. the
    /// OOM Killer) are triggered ... to prevent violations of partition
    /// isolation").
    PinnedZone(u8),
}

/// A process address space (the simulator's `mm_struct`).
pub struct Process {
    /// The process id.
    pub pid: Pid,
    /// Allocation policy for anonymous faults.
    pub policy: AllocPolicy,
    /// Resident anonymous base pages, in fault order. `PageDesc.b` of
    /// each page names its run here.
    pub(crate) base: RunList,
    /// Head frames of resident 2 MiB transparent huge pages.
    /// `PageDesc.b` of each head stores its index here.
    pub huge_pages: Vec<Gfn>,
    /// Pages currently swapped out to the host swap device (counts, not
    /// identities: swap slots live host-side).
    pub swapped: u64,
}

impl Process {
    /// Creates an empty address space.
    pub(crate) fn new(pid: Pid, policy: AllocPolicy) -> Self {
        Process {
            pid,
            policy,
            base: RunList::new(),
            huge_pages: Vec::new(),
            swapped: 0,
        }
    }

    /// Returns the resident base pages in fault order (the order that
    /// `free_anon` pops from the back and `swap_out_anon` takes from the
    /// front).
    pub fn pages(&self) -> impl Iterator<Item = Gfn> + '_ {
        self.base.pages()
    }

    /// Returns the resident base pages as frame runs, in the order of
    /// [`Process::pages`].
    pub fn runs(&self) -> impl Iterator<Item = FrameRange> + '_ {
        self.base.runs()
    }

    /// Returns the anonymous resident set size in 4 KiB pages (huge pages
    /// count as 512 each).
    pub fn rss_pages(&self) -> u64 {
        self.base.len() + self.huge_pages.len() as u64 * crate::page::PAGES_PER_HUGE
    }

    /// Returns the number of resident huge pages.
    pub fn rss_huge(&self) -> u64 {
        self.huge_pages.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_empty() {
        let p = Process::new(Pid(7), AllocPolicy::MovableDefault);
        assert_eq!(p.pid, Pid(7));
        assert_eq!(p.rss_pages(), 0);
        assert_eq!(p.rss_huge(), 0);
        assert_eq!(p.policy, AllocPolicy::MovableDefault);
    }

    #[test]
    fn huge_pages_count_512_base_pages_each() {
        let mut p = Process::new(Pid(1), AllocPolicy::MovableDefault);
        p.base.append(Gfn(3), 1);
        p.huge_pages.push(Gfn(512));
        p.huge_pages.push(Gfn(1024));
        assert_eq!(p.rss_pages(), 1 + 2 * 512);
        assert_eq!(p.rss_huge(), 2);
    }

    #[test]
    fn pinned_policy_carries_zone() {
        let p = Process::new(Pid(1), AllocPolicy::PinnedZone(5));
        match p.policy {
            AllocPolicy::PinnedZone(z) => assert_eq!(z, 5),
            _ => panic!("wrong policy"),
        }
    }
}
