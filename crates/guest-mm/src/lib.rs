//! A guest-kernel memory-manager simulator.
//!
//! This crate reimplements, over simulated state, the slice of the Linux
//! physical memory manager that the Squeezy paper patches and measures:
//!
//! * a `memmap` that holds each online memory block as extents (free
//!   buddy chunks, owner runs, kernel runs, huge pages), not as one
//!   descriptor per frame ([`memmap::MemMap`]);
//! * zones with buddy free lists ([`zone::Zone`]) — `ZONE_NORMAL`,
//!   `ZONE_MOVABLE`, and (created by the `squeezy` crate) one zone per
//!   Squeezy partition;
//! * the 128 MiB memory-block hot(un)plug state machine
//!   ([`blocks::BlockTable`]): hot-add → online → offline → hot-remove;
//! * the on-demand fault path that lazily backs process and page-cache
//!   memory, interleaving footprints across blocks exactly as §2.2 and
//!   Figure 3 describe. Each owner holds its pages as ordered frame
//!   runs (the `runs` module), one memmap extent each, so faults, exits
//!   and migrations do bookkeeping per run, not per page;
//! * offline-with-migration: isolating a block's free pages, migrating
//!   its occupied movable pages elsewhere, and the zeroing that
//!   `init_on_alloc=1` hardening incurs along the way.
//!
//! The crate is purely *mechanical*: it mutates state and returns
//! operation counts ([`OfflineOutcome`], fault results). Devices and the
//! VMM translate counts into simulated time using
//! [`sim_core::CostModel`](../sim_core/cost/struct.CostModel.html), which
//! keeps mechanism and calibration apart.

pub mod blocks;
pub mod huge;
pub mod memmap;
pub mod page;
pub mod pagecache;
pub mod process;
mod runs;
pub mod zone;

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use mem_types::{bytes_to_pages, BlockId, FrameRange, Gfn, PAGES_PER_BLOCK, PAGE_SIZE};

pub use blocks::{BlockState, BlockTable};
pub use huge::HugeFaultOutcome;
pub use memmap::MemMap;
use memmap::{Extent, FrameHasher};
pub use page::{PageDesc, PageState, HUGE_ORDER, MAX_ORDER, PAGES_PER_HUGE};
pub use pagecache::{CachedFile, FileId};
pub use process::{AllocPolicy, Pid, Process};
use runs::RunList;
pub use zone::{Zone, ZoneKind};

/// Errors returned by memory-manager operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MmError {
    /// No zone in the allocation path could satisfy the request.
    OutOfMemory,
    /// The process id is unknown (or already exited).
    NoSuchProcess,
    /// The file id is unknown.
    NoSuchFile,
    /// The block is not in the state the operation requires.
    BadBlockState,
    /// The block holds unmovable (kernel) pages and cannot be offlined.
    BlockPinned,
    /// The block still holds used pages (instant offline requires empty).
    BlockNotEmpty,
    /// The page is not owned by the given process/file as claimed.
    NotOwner,
}

impl core::fmt::Display for MmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            MmError::OutOfMemory => "out of memory",
            MmError::NoSuchProcess => "no such process",
            MmError::NoSuchFile => "no such file",
            MmError::BadBlockState => "bad memory-block state",
            MmError::BlockPinned => "block pinned by unmovable pages",
            MmError::BlockNotEmpty => "block not empty",
            MmError::NotOwner => "page not owned as claimed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MmError {}

/// How the unplug path picks blocks to offline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CandidateStrategy {
    /// virtio-mem default: unplug from the highest block address down.
    HighestFirst,
    /// Optimization ablation: prefer blocks with the fewest used pages
    /// (fewest migrations).
    EmptiestFirst,
}

/// Counts produced by offlining one block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OfflineOutcome {
    /// Pages examined while scanning/isolating the block.
    pub scanned: u64,
    /// Free pages isolated straight out of the buddy.
    pub isolated_free: u64,
    /// Occupied movable base pages migrated out of the block
    /// (including base pages produced by huge-page splits).
    pub migrated: u64,
    /// 2 MiB huge pages migrated whole to an order-9 target.
    pub migrated_huge: u64,
    /// Huge pages split into base pages for lack of an order-9 target.
    pub huge_splits: u64,
    /// Pages zeroed by `init_on_alloc` hardening along the way
    /// (isolation pseudo-allocations + migration-target allocations).
    pub zeroed: u64,
}

impl OfflineOutcome {
    /// Accumulates another outcome into this one.
    pub fn accumulate(&mut self, o: &OfflineOutcome) {
        self.scanned += o.scanned;
        self.isolated_free += o.isolated_free;
        self.migrated += o.migrated;
        self.migrated_huge += o.migrated_huge;
        self.huge_splits += o.huge_splits;
        self.zeroed += o.zeroed;
    }
}

/// A failed offline attempt, with the work wasted before the failure.
///
/// The wasted scans/migrations/zeroings still cost CPU time — the paper's
/// virtio-mem timeouts (§6.2.2) burn cycles exactly this way — so callers
/// need the partial counts to charge them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfflineFailure {
    /// Why the offline failed.
    pub error: MmError,
    /// Work performed (and rolled back) before failing.
    pub partial: OfflineOutcome,
}

/// Result of a file fault: how much was already cached vs. newly read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileFaultOutcome {
    /// Pages newly allocated and read from storage.
    pub new_pages: u64,
    /// Pages that were already resident (page-cache hits).
    pub cached_pages: u64,
}

/// Cumulative mechanical statistics (monotonic counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MmStats {
    /// Anonymous pages ever faulted in (4 KiB units; huge faults add 512).
    pub anon_faults: u64,
    /// File pages ever faulted in (cache misses).
    pub file_faults: u64,
    /// Pages migrated by offline operations.
    pub pages_migrated: u64,
    /// Pages zeroed on the offline path.
    pub pages_zeroed: u64,
    /// Blocks onlined.
    pub blocks_onlined: u64,
    /// Blocks offlined.
    pub blocks_offlined: u64,
    /// Offline attempts that failed (rolled back).
    pub offline_failures: u64,
    /// Huge pages successfully faulted as 2 MiB mappings.
    pub huge_faults: u64,
    /// Huge fault requests that fell back to base pages (fragmentation).
    pub huge_fallbacks: u64,
    /// Huge pages migrated whole by offline operations.
    pub huge_migrated: u64,
    /// Huge pages split by offline operations.
    pub huge_splits: u64,
    /// Pages swapped out to the host swap device.
    pub swap_outs: u64,
    /// Pages swapped back in (major faults).
    pub swap_ins: u64,
}

/// Static configuration of a guest's memory layout.
#[derive(Clone, Copy, Debug)]
pub struct GuestMmConfig {
    /// Boot (non-hotpluggable) memory, onlined to `ZONE_NORMAL`.
    pub boot_bytes: u64,
    /// Size of the hot-pluggable device region after boot memory.
    pub hotplug_bytes: u64,
    /// Unmovable kernel footprint carved out of boot memory at boot.
    pub kernel_bytes: u64,
    /// `CONFIG_INIT_ON_ALLOC_DEFAULT_ON`: zero pages on allocation (§2.2).
    pub init_on_alloc: bool,
}

impl Default for GuestMmConfig {
    fn default() -> Self {
        GuestMmConfig {
            boot_bytes: 2 * 1024 * 1024 * 1024,
            hotplug_bytes: 8 * 1024 * 1024 * 1024,
            kernel_bytes: 192 * 1024 * 1024,
            init_on_alloc: true,
        }
    }
}

/// Zone index of `ZONE_NORMAL` (always created at boot).
pub const ZONE_NORMAL: u8 = 0;
/// Zone index of `ZONE_MOVABLE` (always created at boot).
pub const ZONE_MOVABLE: u8 = 1;

/// The zones a fault under `policy` tries, in order. The first `len`
/// entries of the returned array are the list.
fn zonelist_for(policy: AllocPolicy) -> ([u8; 2], usize) {
    match policy {
        AllocPolicy::MovableDefault => ([ZONE_MOVABLE, ZONE_NORMAL], 2),
        AllocPolicy::PinnedZone(z) => ([z, 0], 1),
    }
}

/// The zones a page of `zone` migrates to, in the order the kernel's
/// migration-target selection tries them: the page's own zone first,
/// then `ZONE_MOVABLE`, then `ZONE_NORMAL`, each once. The first `len`
/// entries of the returned array are the list.
pub(crate) fn migration_zonelist(zone: u8) -> ([u8; 3], usize) {
    match zone {
        ZONE_NORMAL => ([ZONE_NORMAL, ZONE_MOVABLE, 0], 2),
        ZONE_MOVABLE => ([ZONE_MOVABLE, ZONE_NORMAL, 0], 2),
        z => ([z, ZONE_MOVABLE, ZONE_NORMAL], 3),
    }
}

/// A run of frame-consecutive used base pages sharing one state, owner
/// and owner run, gathered by [`GuestMm::offline_block`] for run-wise
/// migration. Its pages are therefore consecutive in the owner's order
/// too.
struct UsedRun {
    start: Gfn,
    len: u64,
    /// `(state, owner, run handle)` of every page in the run.
    key: (PageState, u32, u32),
}

impl UsedRun {
    /// Appends the `len` pages at `g`, whose state, owner and run are
    /// `d`'s, to the last run of `runs` if they continue it, else opens a
    /// run.
    fn push(runs: &mut Vec<UsedRun>, g: Gfn, len: u64, d: PageDesc) {
        let key = (d.state, d.a, d.b);
        match runs.last_mut() {
            Some(r) if r.key == key && r.start.0 + r.len == g.0 => r.len += len,
            _ => runs.push(UsedRun { start: g, len, key }),
        }
    }
}

/// The guest kernel memory manager.
pub struct GuestMm {
    config: GuestMmConfig,
    memmap: MemMap,
    zones: Vec<Zone>,
    blocks: BlockTable,
    procs: HashMap<u32, Process, BuildHasherDefault<FrameHasher>>,
    files: HashMap<u32, CachedFile, BuildHasherDefault<FrameHasher>>,
    /// The kernel's unmovable pages as frame runs; `PageDesc.b` of each
    /// page is its run's index here.
    kernel_pages: Vec<FrameRange>,
    next_pid: u32,
    /// Policy used for page-cache allocations (Squeezy redirects this to
    /// the shared partition).
    file_policy: AllocPolicy,
    /// Squeezy's allocator fix: skip `init_on_alloc` zeroing for pages
    /// the hot-unplug path is about to pull out (§4.1).
    pub unplug_aware_zeroing_skip: bool,
    stats: MmStats,
}

impl GuestMm {
    /// Boots a guest memory manager with the given layout.
    ///
    /// Boot memory is onlined to `ZONE_NORMAL` immediately (minus the
    /// kernel's own unmovable footprint); the hotplug region starts
    /// absent and is populated by hot-add/online calls from the device
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not 128 MiB block-aligned or the kernel
    /// footprint exceeds boot memory.
    pub fn new(config: GuestMmConfig) -> Self {
        let boot_blocks = mem_types::bytes_to_blocks(config.boot_bytes);
        let hotplug_blocks = mem_types::bytes_to_blocks(config.hotplug_bytes);
        assert!(
            config.kernel_bytes <= config.boot_bytes,
            "kernel footprint exceeds boot memory"
        );
        let total_frames = (boot_blocks + hotplug_blocks) * PAGES_PER_BLOCK;
        let boot_frames = boot_blocks * PAGES_PER_BLOCK;

        let mut mm = GuestMm {
            config,
            memmap: MemMap::new(total_frames),
            zones: vec![
                Zone::new(
                    ZONE_NORMAL,
                    ZoneKind::Normal,
                    FrameRange::new(Gfn(0), boot_frames),
                ),
                Zone::new(
                    ZONE_MOVABLE,
                    ZoneKind::Movable,
                    FrameRange::new(Gfn(boot_frames), hotplug_blocks * PAGES_PER_BLOCK),
                ),
            ],
            blocks: BlockTable::new(boot_blocks + hotplug_blocks),
            procs: HashMap::default(),
            files: HashMap::default(),
            kernel_pages: Vec::new(),
            next_pid: 1,
            file_policy: AllocPolicy::MovableDefault,
            unplug_aware_zeroing_skip: false,
            stats: MmStats::default(),
        };

        // Materialize and online all boot blocks into ZONE_NORMAL.
        for b in 0..boot_blocks {
            mm.hot_add_online_block(BlockId(b), ZONE_NORMAL)
                .expect("boot block onlines");
        }
        mm.stats.blocks_onlined = 0; // Boot onlining is not a hotplug op.

        // Reserve the kernel's unmovable footprint.
        mm.alloc_kernel(bytes_to_pages(config.kernel_bytes))
            .expect("boot memory fits the kernel");
        mm
    }

    // --- Accessors -------------------------------------------------------

    /// Returns the cumulative statistics.
    pub fn stats(&self) -> &MmStats {
        &self.stats
    }

    /// Returns the zone with index `z`.
    ///
    /// # Panics
    ///
    /// Panics if the zone does not exist.
    pub fn zone(&self, z: u8) -> &Zone {
        &self.zones[z as usize]
    }

    /// Returns the number of zones.
    pub fn zone_count(&self) -> u8 {
        self.zones.len() as u8
    }

    /// Returns the block table.
    pub fn blocks(&self) -> &BlockTable {
        &self.blocks
    }

    /// Returns the memory map (tests and invariant checks).
    pub fn memmap(&self) -> &MemMap {
        &self.memmap
    }

    /// Returns the process with id `pid`, if alive.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid.0)
    }

    /// Returns a file's cached pages, if any.
    #[cfg(test)]
    pub(crate) fn file(&self, f: FileId) -> Option<&CachedFile> {
        self.files.get(&f.0)
    }

    /// Returns the slot of anonymous or file page `g` in its owner's
    /// order — its position in [`Process::pages`] or
    /// `CachedFile::pages` — found through the run its descriptor
    /// names, in O(runs). `None` for any other page.
    pub fn page_slot(&self, g: Gfn) -> Option<u64> {
        let d = self.memmap.page(g);
        let list = match d.state {
            PageState::Anon => &self.procs.get(&d.a)?.base,
            PageState::File => &self.files.get(&d.a)?.pages,
            _ => return None,
        };
        list.slot(d.b, g)
    }

    /// Returns the kernel's unmovable pages as frame runs (the VMM
    /// populates their host backing during guest boot).
    pub fn kernel_pages(&self) -> &[FrameRange] {
        &self.kernel_pages
    }

    /// Total bytes currently used (allocated) across all zones.
    pub fn used_bytes(&self) -> u64 {
        self.zones.iter().map(|z| z.used_pages()).sum::<u64>() * PAGE_SIZE
    }

    /// Total bytes currently free across all zones.
    pub fn free_bytes(&self) -> u64 {
        self.zones.iter().map(|z| z.free_pages).sum::<u64>() * PAGE_SIZE
    }

    /// Total bytes present (onlined) across all zones.
    pub fn present_bytes(&self) -> u64 {
        self.zones.iter().map(|z| z.managed_pages).sum::<u64>() * PAGE_SIZE
    }

    /// Sets the allocation policy for page-cache (file) pages.
    pub fn set_file_policy(&mut self, p: AllocPolicy) {
        self.file_policy = p;
    }

    /// Creates a new zone (used by the Squeezy layer for partitions).
    ///
    /// # Panics
    ///
    /// Panics if `span` is not block-aligned, exceeds the address space,
    /// or more than 254 zones exist.
    pub fn create_zone(&mut self, kind: ZoneKind, span: FrameRange) -> u8 {
        assert!(
            span.start.0.is_multiple_of(PAGES_PER_BLOCK),
            "span not block-aligned"
        );
        assert!(
            span.count.is_multiple_of(PAGES_PER_BLOCK),
            "span not block-sized"
        );
        assert!(span.end().0 <= self.memmap.len(), "span beyond memory");
        let id = u8::try_from(self.zones.len()).expect("zone table full");
        assert!(id < u8::MAX, "zone table full");
        self.zones.push(Zone::new(id, kind, span));
        id
    }

    /// Re-targets an *empty* zone onto a new span (the flex-partition
    /// layer recycles zone slots of destroyed partitions this way,
    /// keeping long create/destroy churn within the 254-zone table).
    ///
    /// # Panics
    ///
    /// Panics if the zone still manages pages, or if `span` is not
    /// block-aligned or exceeds the address space.
    pub fn retarget_zone(&mut self, z: u8, kind: ZoneKind, span: FrameRange) {
        assert!(
            span.start.0.is_multiple_of(PAGES_PER_BLOCK),
            "span not block-aligned"
        );
        assert!(
            span.count.is_multiple_of(PAGES_PER_BLOCK),
            "span not block-sized"
        );
        assert!(span.end().0 <= self.memmap.len(), "span beyond memory");
        let zone = &mut self.zones[z as usize];
        assert_eq!(zone.managed_pages, 0, "retargeting a non-empty zone");
        assert!(zone.buddy_is_empty(), "retargeting a zone with free pages");
        *zone = Zone::new(z, kind, span);
    }

    // --- Process lifecycle ------------------------------------------------

    /// Spawns a process with the given allocation policy.
    pub fn spawn_process(&mut self, policy: AllocPolicy) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid.0, Process::new(pid, policy));
        pid
    }

    /// Changes the allocation policy of a live process (the Squeezy
    /// syscall binds a process to its partition this way).
    pub fn set_policy(&mut self, pid: Pid, policy: AllocPolicy) -> Result<(), MmError> {
        self.procs
            .get_mut(&pid.0)
            .map(|p| p.policy = policy)
            .ok_or(MmError::NoSuchProcess)
    }

    /// Faults `n` anonymous pages into `pid`'s address space, returning
    /// the freshly allocated frames (for EPT population by the VMM).
    ///
    /// On `Err(OutOfMemory)` the pages allocated before exhaustion remain
    /// attached to the process — the OOM killer (or caller) decides what
    /// dies, mirroring §4.1.
    pub fn fault_anon(&mut self, pid: Pid, n: u64) -> Result<Vec<Gfn>, MmError> {
        let mut runs = Vec::new();
        self.fault_anon_runs(pid, n, &mut runs)?;
        let mut got = Vec::with_capacity(n as usize);
        for r in runs {
            got.extend(r.iter());
        }
        Ok(got)
    }

    /// Run-based variant of [`GuestMm::fault_anon`]: appends the faulted
    /// frames to `runs` as contiguous ranges instead of building
    /// a per-page list — the cold-start fast path. Each step takes the
    /// smallest free chunk whole, or as many pages as are still wanted
    /// from its front, so a 200 MiB first touch on a fresh buddy is ~50
    /// range operations instead of ~50 000 page operations, and a fault
    /// shorter than the chunk it lands in is one.
    ///
    /// Page states, allocation order and the final buddy state are
    /// identical to per-page order-0 allocation (see
    /// `Zone::alloc_run`), and the process gains one owner run per
    /// buddy run at most.
    pub fn fault_anon_runs(
        &mut self,
        pid: Pid,
        n: u64,
        runs: &mut Vec<FrameRange>,
    ) -> Result<(), MmError> {
        let policy = self.procs.get(&pid.0).ok_or(MmError::NoSuchProcess)?.policy;
        let (zonelist, zones) = zonelist_for(policy);
        let mut remaining = n;
        while remaining > 0 {
            match self.alloc_run_from_zonelist(&zonelist[..zones], remaining) {
                Some((head, len, zone)) => {
                    let proc = self.procs.get_mut(&pid.0).expect("checked above");
                    let run = proc.base.append(head, len);
                    self.claim_run(head, len, zone, PageState::Anon, pid.0, run);
                    runs.push(FrameRange::new(head, len));
                    remaining -= len;
                }
                None => {
                    self.stats.anon_faults += n - remaining;
                    return Err(MmError::OutOfMemory);
                }
            }
        }
        self.stats.anon_faults += n;
        Ok(())
    }

    /// Releases the `n` most recently faulted anonymous pages of `pid`
    /// (e.g. memhog freeing a chunk), last first, a run at a time (see
    /// `Zone::free_run_rev`). Returns the number actually freed.
    pub fn free_anon(&mut self, pid: Pid, n: u64) -> Result<u64, MmError> {
        let mut freed = 0;
        while freed < n {
            let Some(run) = self
                .procs
                .get_mut(&pid.0)
                .ok_or(MmError::NoSuchProcess)?
                .base
                .pop_back(n - freed)
            else {
                break;
            };
            self.release_used_run_rev(run);
            freed += run.count;
        }
        Ok(freed)
    }

    /// Releases the last `n` anonymous base pages of `pid` in process
    /// order, first of them first, a run at a time. Identical to `n`
    /// [`GuestMm::free_anon_page`] calls over those pages in order: each
    /// such call only swaps a later page of the tail into the freed
    /// slot, so the pages before the tail keep their order, and freeing
    /// a run equals freeing its pages in ascending order (see
    /// `Zone::free_run`). Returns the number actually freed.
    pub fn free_anon_tail(&mut self, pid: Pid, n: u64) -> Result<u64, MmError> {
        let base = &mut self
            .procs
            .get_mut(&pid.0)
            .ok_or(MmError::NoSuchProcess)?
            .base;
        let mut tail = Vec::new();
        let mut left = n;
        while let Some(run) = base.pop_back(left) {
            left -= run.count;
            tail.push(run);
            if left == 0 {
                break;
            }
        }
        for &run in tail.iter().rev() {
            self.release_used_run(run);
        }
        Ok(n - left)
    }

    /// Releases one specific anonymous page of `pid` (a page-granular
    /// `munmap`/`MADV_DONTNEED`; fragmentation workloads punch holes with
    /// this). The process's last page takes `g`'s place in its order, as
    /// `Vec::swap_remove` would; `g`'s run splits, and the shorter side
    /// moves to a run of its own, so at most three extents change.
    pub fn free_anon_page(&mut self, pid: Pid, g: Gfn) -> Result<(), MmError> {
        let d = self.memmap.page(g);
        if d.state != PageState::Anon || d.a != pid.0 {
            return Err(MmError::NotOwner);
        }
        let proc = self.procs.get_mut(&pid.0).ok_or(MmError::NoSuchProcess)?;
        let out = proc.base.swap_remove(d.b, g);
        self.release_used_run(FrameRange::new(g, 1));
        if let Some((split, run)) = out.split {
            self.rehome(split, run);
        }
        if let Some((moved, run)) = out.moved {
            self.rehome(FrameRange::new(moved, 1), run);
        }
        Ok(())
    }

    /// Swaps out the `n` *oldest* anonymous base pages of `pid` (LRU
    /// approximation: pages fault in append-order, so the front of the
    /// set is the coldest). The pages return to the buddy — their data
    /// now lives host-side in the swap device — and the owner's
    /// `swapped` count grows. Returns the evicted frames so the VMM can
    /// release (or repurpose) their host backing.
    pub fn swap_out_anon(&mut self, pid: Pid, n: u64) -> Result<Vec<Gfn>, MmError> {
        let proc = self.procs.get_mut(&pid.0).ok_or(MmError::NoSuchProcess)?;
        let take = n.min(proc.base.len());
        proc.swapped += take;
        let mut victims = Vec::with_capacity(take as usize);
        while (victims.len() as u64) < take {
            // The remaining pages keep their runs, so no back-reference
            // changes; freeing a run equals freeing its pages in order.
            let run = self
                .procs
                .get_mut(&pid.0)
                .expect("checked above")
                .base
                .pop_front(take - victims.len() as u64)
                .expect("take is at most the resident count");
            victims.extend(run.iter());
            self.release_used_run(run);
        }
        self.stats.swap_outs += take;
        Ok(victims)
    }

    /// Swaps `n` of `pid`'s pages back in (major faults): fresh pages
    /// are allocated under the process's policy and its `swapped` count
    /// shrinks. Returns the frames faulted in, for EPT population.
    ///
    /// On `Err(OutOfMemory)` the pages faulted before exhaustion stay
    /// attached (and counted out of `swapped`), as with
    /// [`GuestMm::fault_anon`].
    pub fn swap_in_anon(&mut self, pid: Pid, n: u64) -> Result<Vec<Gfn>, MmError> {
        let (avail, before) = {
            let proc = self.procs.get(&pid.0).ok_or(MmError::NoSuchProcess)?;
            (proc.swapped.min(n), proc.base.len())
        };
        let result = self.fault_anon(pid, avail);
        let proc = self.procs.get_mut(&pid.0).expect("checked above");
        let faulted = proc.base.len() - before;
        proc.swapped -= faulted;
        self.stats.swap_ins += faulted;
        result
    }

    /// Drops `pid`'s whole anonymous resident set (base and huge) while
    /// keeping the process alive — the guest half of a soft-memory
    /// revocation (§7: discarding application-controlled soft state or a
    /// GC'd runtime's unused heap). Returns the number of 4 KiB pages
    /// freed.
    pub fn drop_anon(&mut self, pid: Pid) -> Result<u64, MmError> {
        let proc = self.procs.get_mut(&pid.0).ok_or(MmError::NoSuchProcess)?;
        let base = std::mem::take(&mut proc.base);
        let huge = std::mem::take(&mut proc.huge_pages);
        Ok(self.release_anon(&base, huge))
    }

    /// Terminates `pid`, freeing its whole anonymous resident set (base
    /// and huge). Returns the number of 4 KiB pages freed.
    pub fn exit_process(&mut self, pid: Pid) -> Result<u64, MmError> {
        let proc = self.procs.remove(&pid.0).ok_or(MmError::NoSuchProcess)?;
        Ok(self.release_anon(&proc.base, proc.huge_pages))
    }

    /// Frees an anonymous resident set, base runs in order and then huge
    /// pages, returning its size in 4 KiB pages.
    fn release_anon(&mut self, base: &RunList, huge: Vec<Gfn>) -> u64 {
        for run in base.runs() {
            self.release_used_run(run);
        }
        for &h in &huge {
            self.release_huge(h);
        }
        base.len() + huge.len() as u64 * PAGES_PER_HUGE
    }

    // --- Page cache -------------------------------------------------------

    /// Faults the first `want_pages` pages of `file` into the cache,
    /// allocating whatever is not yet resident.
    pub fn fault_file(
        &mut self,
        file: FileId,
        want_pages: u64,
    ) -> Result<FileFaultOutcome, MmError> {
        let mut runs = Vec::new();
        self.fault_file_runs(file, want_pages, &mut runs)
    }

    /// Run-based variant of [`GuestMm::fault_file`]: the newly read
    /// pages are also appended to `runs` as contiguous ranges, claimed
    /// with the same sequential-sweep fast path as
    /// [`GuestMm::fault_anon_runs`].
    pub fn fault_file_runs(
        &mut self,
        file: FileId,
        want_pages: u64,
        runs: &mut Vec<FrameRange>,
    ) -> Result<FileFaultOutcome, MmError> {
        let resident = self.files.entry(file.0).or_default().resident_pages();
        let cached = resident.min(want_pages);
        let missing = want_pages.saturating_sub(resident);
        if missing == 0 {
            return Ok(FileFaultOutcome {
                new_pages: 0,
                cached_pages: cached,
            });
        }
        let (zonelist, zones) = zonelist_for(self.file_policy);
        let mut remaining = missing;
        while remaining > 0 {
            let (head, len, zone) = self
                .alloc_run_from_zonelist(&zonelist[..zones], remaining)
                .ok_or(MmError::OutOfMemory)?;
            let entry = self.files.get_mut(&file.0).expect("created above");
            let run = entry.pages.append(head, len);
            self.claim_run(head, len, zone, PageState::File, file.0, run);
            runs.push(FrameRange::new(head, len));
            remaining -= len;
        }
        self.stats.file_faults += missing;
        Ok(FileFaultOutcome {
            new_pages: missing,
            cached_pages: cached,
        })
    }

    /// Drops every cached page of `file`, returning how many were freed.
    #[cfg(test)]
    pub(crate) fn drop_file(&mut self, file: FileId) -> Result<u64, MmError> {
        let f = self.files.remove(&file.0).ok_or(MmError::NoSuchFile)?;
        for run in f.pages.runs() {
            self.release_used_run(run);
        }
        Ok(f.resident_pages())
    }

    // --- Kernel (unmovable) allocations ------------------------------------

    /// Allocates `n` unmovable kernel pages from `ZONE_NORMAL` (pins
    /// their blocks against offlining), a buddy run at a time — a whole
    /// smallest free chunk, or the front of one for the last pages: the
    /// same pages, in the same order, as `n` order-0 allocations (see
    /// [`Zone::alloc_run`]). On `Err(OutOfMemory)` the pages allocated
    /// before exhaustion stay claimed.
    pub(crate) fn alloc_kernel(&mut self, n: u64) -> Result<(), MmError> {
        let mut remaining = n;
        while remaining > 0 {
            let (head, len, zone) = self
                .alloc_run_from_zonelist(&[ZONE_NORMAL], remaining)
                .ok_or(MmError::OutOfMemory)?;
            match self.kernel_pages.last_mut() {
                Some(last) if runs::continues(last.end().0, head) => last.count += len,
                _ => self.kernel_pages.push(FrameRange::new(head, len)),
            }
            let run = self.kernel_pages.len() as u32 - 1;
            self.claim_run(head, len, zone, PageState::Kernel, 0, run);
            remaining -= len;
        }
        Ok(())
    }

    /// Allocates one unmovable page for a device driver (e.g. the balloon
    /// inflating). Tries movable zones first like `GFP_HIGHUSER` balloon
    /// allocations, but the page pins its block either way — one of the
    /// fragmentation pathologies of ballooning (§2.2).
    pub fn alloc_unmovable(&mut self) -> Result<Gfn, MmError> {
        let (g, zone) = self
            .alloc_from_zonelist(&[ZONE_MOVABLE, ZONE_NORMAL])
            .ok_or(MmError::OutOfMemory)?;
        self.claim_run(g, 1, zone, PageState::Kernel, page::NIL, 0);
        Ok(g)
    }

    /// Frees a page obtained from [`GuestMm::alloc_unmovable`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if the page is not an unmovable allocation.
    pub fn free_unmovable(&mut self, g: Gfn) {
        debug_assert_eq!(self.memmap.state(g), PageState::Kernel);
        self.release_used_run(FrameRange::new(g, 1));
    }

    // --- Hot(un)plug ---------------------------------------------------------

    /// Hot-adds block `b` (Absent → offline). The block holds no memmap
    /// extents until it is onlined.
    pub fn hot_add_block(&mut self, b: BlockId) -> Result<(), MmError> {
        if self.blocks.state(b) != BlockState::Absent {
            return Err(MmError::BadBlockState);
        }
        self.memmap.hot_add(b);
        self.blocks.set_state(b, BlockState::AddedOffline);
        Ok(())
    }

    /// Hot-adds and immediately onlines block `b` into zone `z` — what a
    /// plug request does. A rejected plug leaves the block absent.
    pub fn hot_add_online_block(&mut self, b: BlockId, z: u8) -> Result<(), MmError> {
        if self.blocks.state(b) != BlockState::Absent {
            return Err(MmError::BadBlockState);
        }
        self.check_span(b, z)?;
        self.memmap.hot_add(b);
        self.online_pages_of(b, z);
        Ok(())
    }

    /// Onlines block `b` into zone `z`: releases its pages to the buddy.
    pub fn online_block(&mut self, b: BlockId, z: u8) -> Result<(), MmError> {
        if self.blocks.state(b) != BlockState::AddedOffline {
            return Err(MmError::BadBlockState);
        }
        self.check_span(b, z)?;
        self.online_pages_of(b, z);
        Ok(())
    }

    /// Rejects onlining block `b` into a zone whose span misses it.
    fn check_span(&self, b: BlockId, z: u8) -> Result<(), MmError> {
        let span = self.zones[z as usize].span;
        if span.contains(b.first_frame()) && span.contains(Gfn(b.frames().end().0 - 1)) {
            Ok(())
        } else {
            Err(MmError::BadBlockState)
        }
    }

    /// Shared tail of the online paths: hands `b`'s pages to zone `z`'s
    /// buddy as one free extent per MAX_ORDER chunk, and marks the block
    /// online.
    fn online_pages_of(&mut self, b: BlockId, z: u8) {
        let zone = &mut self.zones[z as usize];
        zone.link_block(&mut self.memmap, b);
        zone.managed_pages += PAGES_PER_BLOCK;
        self.blocks.mark_online(b, z);
        self.stats.blocks_onlined += 1;
    }

    /// Offlines block `b`, migrating its occupied movable pages away.
    ///
    /// Fails with [`MmError::BlockPinned`] if unmovable pages live in the
    /// block, and with [`MmError::OutOfMemory`] (after rolling isolated
    /// pages back into the buddy) if migration targets run out; the
    /// failure carries the counts of the wasted work.
    pub fn offline_block(&mut self, b: BlockId) -> Result<OfflineOutcome, OfflineFailure> {
        let fail = |error| OfflineFailure {
            error,
            partial: OfflineOutcome::default(),
        };
        let BlockState::Online { zone } = self.blocks.state(b) else {
            return Err(fail(MmError::BadBlockState));
        };
        if self.blocks.counters(b).used_unmovable > 0 {
            return Err(fail(MmError::BlockPinned));
        }

        let mut out = OfflineOutcome {
            scanned: PAGES_PER_BLOCK,
            ..OfflineOutcome::default()
        };
        let zero_on_isolate = self.config.init_on_alloc && !self.unplug_aware_zeroing_skip;

        // Phase 1: take every free chunk of the block out of the buddy
        // so nothing new is allocated inside it. One ascending walk of
        // the block's extents gathers its free buddy chunks, its huge
        // heads and its owner runs, each of which is one `UsedRun` for
        // phase 2b. Taking a chunk off its list rewrites only its list
        // neighbours' links, none of which the walk read, so doing it
        // after the walk leaves what doing it during the walk would (see
        // `Zone::unlist_free_chunk`). The chunks keep their extents.
        let mut free: Vec<FrameRange> = Vec::new();
        let mut used: Vec<UsedRun> = Vec::new();
        let mut used_huge: Vec<Gfn> = Vec::new();
        let mut blocker = None;
        for (r, d) in self.memmap.extents(b) {
            match d.state {
                PageState::FreeHead => free.push(r),
                PageState::HugeHead => used_huge.push(r.start),
                PageState::Anon | PageState::File => UsedRun::push(&mut used, r.start, r.count, d),
                PageState::Kernel => {
                    blocker = Some(MmError::BlockPinned);
                    break;
                }
                _ => {
                    blocker = Some(MmError::BadBlockState);
                    break;
                }
            }
        }
        for r in &free {
            let n = self.zones[zone as usize].unlist_free_chunk(&mut self.memmap, r.start);
            let c = self.blocks.counters_mut(b);
            c.free -= n as u32;
            c.isolated += n as u32;
            out.isolated_free += n;
            if zero_on_isolate {
                out.zeroed += n;
            }
        }
        if let Some(error) = blocker {
            self.abort_offline(b, zone, free);
            return Err(OfflineFailure {
                error,
                partial: out,
            });
        }

        // Phase 2a: evacuate huge pages — whole-unit migration when an
        // order-9 target exists, split into base pages otherwise (the
        // split pages join the base migration list below).
        for h in used_huge {
            match self.evacuate_huge(h) {
                huge::HugeEvacuation::Whole => {
                    out.migrated_huge += 1;
                    // The order-9 target allocation is zeroed by
                    // init_on_alloc before the copy, like base targets.
                    if zero_on_isolate {
                        out.zeroed += PAGES_PER_HUGE;
                    }
                }
                huge::HugeEvacuation::Split => {
                    out.huge_splits += 1;
                    let d = self.memmap.page(h);
                    UsedRun::push(&mut used, h, PAGES_PER_HUGE, d);
                }
            }
        }

        // Phase 2b: migrate the occupied movable base pages elsewhere, a
        // run at a time. The sources keep their extents.
        for (i, run) in used.iter().enumerate() {
            let mut done = 0;
            while done < run.len {
                let src = Gfn(run.start.0 + done);
                let Some(len) = self.migrate_run(src, run.len - done, run.key, zone) else {
                    // Out of targets: roll isolated pages back into the
                    // buddy; pages that already migrated stay migrated
                    // (partial progress, as in the kernel).
                    let moved = used[..i].iter().map(|r| FrameRange::new(r.start, r.len));
                    let moved = moved.chain([FrameRange::new(run.start, done)]);
                    self.abort_offline(b, zone, free.into_iter().chain(moved));
                    self.stats.offline_failures += 1;
                    self.stats.pages_migrated += out.migrated;
                    self.stats.pages_zeroed += out.zeroed;
                    return Err(OfflineFailure {
                        error: MmError::OutOfMemory,
                        partial: out,
                    });
                };
                done += len;
                out.migrated += len;
                // Migration target allocation is zeroed by init_on_alloc
                // before the copy overwrites it — the waste §2.2 calls
                // out.
                if zero_on_isolate {
                    out.zeroed += len;
                }
            }
        }

        // Phase 3: the block holds no live page; take it offline, its
        // table going whole with the stale extents of phases 1 and 2b.
        if cfg!(debug_assertions) {
            self.assert_evacuated(b, &free, &used);
            self.memmap.isolate_block(b, zone);
        }
        self.finish_offline(b, zone);
        self.stats.blocks_offlined += 1;
        self.stats.pages_migrated += out.migrated;
        self.stats.pages_zeroed += out.zeroed;
        Ok(out)
    }

    /// Squeezy's fast path: instantly offlines every block of `blocks`,
    /// in order, each *known empty* (no used pages), isolating its free
    /// pages without any migration and — with the allocator fix —
    /// without zeroing. Returns the outcome of one block, which is that
    /// of each.
    ///
    /// Every block is checked before any is changed: if one is not
    /// online ([`MmError::BadBlockState`], as is a block listed twice)
    /// or holds a used page ([`MmError::BlockNotEmpty`]), the call
    /// fails and the guest is as it was.
    ///
    /// A run of consecutive blocks of one zone that holds all of the
    /// zone's managed pages — a Squeezy partition — holds every chunk
    /// on the zone's free lists, so the lists are emptied whole in
    /// O(MAX_ORDER) instead of splicing out each block's chunks; their
    /// links die with the blocks' tables. Any other run takes its
    /// blocks' chunks off the lists one by one.
    /// Either way the zone, block and memory-map state equal the
    /// one-at-a-time offlines'.
    pub fn offline_blocks_instant(
        &mut self,
        blocks: &[BlockId],
    ) -> Result<OfflineOutcome, MmError> {
        for &b in blocks {
            self.instant_offline_zone(b)?;
        }
        let distinct = blocks.windows(2).all(|w| w[0] < w[1]) || {
            let mut sorted = blocks.to_vec();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        };
        if !distinct {
            return Err(MmError::BadBlockState);
        }
        let mut out = OfflineOutcome {
            isolated_free: PAGES_PER_BLOCK,
            ..OfflineOutcome::default()
        };
        if self.config.init_on_alloc && !self.unplug_aware_zeroing_skip {
            out.zeroed = out.isolated_free;
        }
        let mut rest = blocks;
        while let Some(&first) = rest.first() {
            let zone = self.instant_offline_zone(first).expect("checked above");
            let n = rest
                .iter()
                .take_while(|&&b| self.blocks.state(b) == BlockState::Online { zone })
                .count();
            let (run, tail) = rest.split_at(n);
            rest = tail;
            let z = &mut self.zones[zone as usize];
            if n as u64 * PAGES_PER_BLOCK == z.managed_pages {
                z.unlist_all();
            } else {
                for &b in run {
                    z.unlink_block(&mut self.memmap, b);
                }
            }
            for &b in run {
                let c = self.blocks.counters_mut(b);
                c.isolated += c.free;
                c.free = 0;
                self.finish_offline(b, zone);
            }
        }
        self.stats.blocks_offlined += blocks.len() as u64;
        self.stats.pages_zeroed += out.zeroed * blocks.len() as u64;
        Ok(out)
    }

    /// Returns the zone of block `b` if an instant offline may take it:
    /// it is online and holds no used page.
    fn instant_offline_zone(&self, b: BlockId) -> Result<u8, MmError> {
        let BlockState::Online { zone } = self.blocks.state(b) else {
            return Err(MmError::BadBlockState);
        };
        let c = self.blocks.counters(b);
        if c.used_movable > 0 || c.used_unmovable > 0 {
            return Err(MmError::BlockNotEmpty);
        }
        Ok(zone)
    }

    /// Hot-removes block `b` (offline → absent).
    pub fn hot_remove_block(&mut self, b: BlockId) -> Result<(), MmError> {
        if self.blocks.state(b) != BlockState::AddedOffline {
            return Err(MmError::BadBlockState);
        }
        self.memmap.hot_remove(b);
        self.blocks.set_state(b, BlockState::Absent);
        self.blocks.reset_counters(b);
        Ok(())
    }

    /// Returns the head frames of every free buddy chunk of order at
    /// least `min_order` across all zones, in address order — the scan a
    /// free-page-reporting cycle performs.
    pub fn free_chunks(&self, min_order: u8) -> Vec<(Gfn, u8)> {
        let mut out: Vec<(Gfn, u8)> = self
            .zones
            .iter()
            .flat_map(|z| z.free_chunks(&self.memmap, min_order))
            .collect();
        out.sort_unstable_by_key(|&(g, _)| g.0);
        out
    }

    /// Returns up to `n` offline candidates in zone `z` under `strategy`.
    ///
    /// Blocks pinned by unmovable pages are skipped, mirroring the
    /// kernel's movability checks.
    pub fn offline_candidates(&self, z: u8, n: usize, strategy: CandidateStrategy) -> Vec<BlockId> {
        let mut cands: Vec<BlockId> = self
            .blocks
            .online_in_zone(z)
            .filter(|&b| self.blocks.counters(b).used_unmovable == 0)
            .collect();
        match strategy {
            CandidateStrategy::HighestFirst => cands.reverse(),
            CandidateStrategy::EmptiestFirst => {
                cands.sort_by_key(|&b| self.blocks.counters(b).used_movable)
            }
        }
        cands.truncate(n);
        cands
    }

    // --- Internals ----------------------------------------------------------

    /// Allocates one order-0 page from the first zone that can serve
    /// it, returning the page and that zone.
    fn alloc_from_zonelist(&mut self, zonelist: &[u8]) -> Option<(Gfn, u8)> {
        self.alloc_order_from_zonelist(zonelist, 0)
    }

    /// Allocates a contiguous run of up to `want` pages from the first
    /// zone that can serve it, returning the run and that zone (see
    /// [`Zone::alloc_run`] for why this is order-identical to repeated
    /// [`GuestMm::alloc_from_zonelist`]).
    fn alloc_run_from_zonelist(&mut self, zonelist: &[u8], want: u64) -> Option<(Gfn, u64, u8)> {
        for &z in zonelist {
            if let Some((g, len)) = self.zones[z as usize].alloc_run(&mut self.memmap, want) {
                return Some((g, len, z));
            }
        }
        None
    }

    /// Claims a contiguous run freshly allocated from `zone` (already
    /// out of the buddy) for one owner run: one extent, or the growth of
    /// the run's extent when the pages continue it, and one counter
    /// update — a buddy run (≤ 4 MiB, size-aligned) never straddles a
    /// 128 MiB block boundary.
    fn claim_run(&mut self, head: Gfn, len: u64, zone: u8, state: PageState, owner: u32, run: u32) {
        debug_assert_eq!(head.block(), Gfn(head.0 + len - 1).block());
        self.memmap
            .claim(head, len, used_page(state, zone, owner, run));
        let c = self.blocks.counters_mut(head.block());
        c.free -= len as u32;
        match state {
            PageState::Anon | PageState::File => c.used_movable += len as u32,
            PageState::Kernel => c.used_unmovable += len as u32,
            _ => unreachable!("claim called with non-used state"),
        }
    }

    /// Frees a run of used pages, which never straddles a block or an
    /// extent, back to its zone's buddy with one counter update: the
    /// same buddy state as freeing its pages one by one in ascending
    /// order (see [`Zone::free_run`]).
    fn release_used_run(&mut self, run: FrameRange) {
        let zone = self.uncover_used_run(run);
        self.zones[zone as usize].free_run(&mut self.memmap, run.start, run.count);
    }

    /// [`GuestMm::release_used_run`], freeing the pages last first.
    fn release_used_run_rev(&mut self, run: FrameRange) {
        let zone = self.uncover_used_run(run);
        self.zones[zone as usize].free_run_rev(&mut self.memmap, run.start, run.count);
    }

    /// Uncovers a run of used pages about to be freed and moves it from
    /// its block's used counter to the free one, returning its zone.
    fn uncover_used_run(&mut self, run: FrameRange) -> u8 {
        let d = self.memmap.carve(run);
        debug_assert!(d.state.is_used(), "releasing non-used page {:?}", run.start);
        let len = run.count as u32;
        let c = self.blocks.counters_mut(run.start.block());
        match d.state {
            PageState::Anon | PageState::File => c.used_movable -= len,
            PageState::Kernel => c.used_unmovable -= len,
            _ => unreachable!(),
        }
        c.free += len;
        d.zone
    }

    /// Moves the pages of `range`, which lie in one extent of an owner,
    /// to that owner's run `run`.
    fn rehome(&mut self, range: FrameRange, run: u32) {
        let d = self.memmap.carve(range);
        self.memmap
            .claim(range.start, range.count, PageDesc { b: run, ..d });
    }

    /// Migrates up to `want` frame-consecutive used pages starting at
    /// `src` (inside an offlining block of `zone`, all with state, owner
    /// and owner run `key`) to one run of targets: the smallest free
    /// chunk of the first zone that has one, whole, or its first `want`
    /// pages when it is longer, so a source run that fits in that chunk
    /// moves in one step. Returns how many pages moved, or `None` when
    /// no zone the pages may migrate to has a free page.
    ///
    /// Identical to migrating the pages one at a time: the targets are
    /// the pages repeated order-0 allocations would return (see
    /// [`Zone::alloc_run`]), and a buddy run never straddles a block, so
    /// both blocks' counters move by the run length at once. The sources
    /// are the front of their owner run (earlier pages of the run, all
    /// in this block, moved out first), so the targets take their place
    /// in the owner's order as a run linked just before it. The sources
    /// keep their extent, now stale: the offline drops it with the
    /// block's table, or isolates it if it fails.
    fn migrate_run(
        &mut self,
        src: Gfn,
        want: u64,
        key: (PageState, u32, u32),
        zone: u8,
    ) -> Option<u64> {
        let (zonelist, n) = migration_zonelist(zone);
        let (target, len, target_zone) = self.alloc_run_from_zonelist(&zonelist[..n], want)?;
        debug_assert_ne!(target.block(), src.block(), "isolation left frees behind");
        let (state, owner, run) = key;
        let list = match state {
            PageState::Anon => {
                &mut self
                    .procs
                    .get_mut(&owner)
                    .expect("anon page owned by live process")
                    .base
            }
            PageState::File => {
                &mut self
                    .files
                    .get_mut(&owner)
                    .expect("file page owned by cached file")
                    .pages
            }
            _ => unreachable!("migrating a non-movable base page"),
        };
        debug_assert_eq!(list.run(run).start, src, "sources lead their run");
        let moved = list.insert_before(run, target, len);
        list.trim_front(run, len);
        // The targets are the run `moved`, new or continued, whose
        // extent is its own.
        let head = list.run(moved).start;
        if head == target {
            let head = used_page(state, target_zone, owner, moved);
            let e = Extent {
                head,
                len: len as u32,
            };
            self.memmap.insert(target, e);
        } else {
            self.memmap.extent_mut(head).len += len as u32;
        }
        let c = self.blocks.counters_mut(target.block());
        c.free -= len as u32;
        c.used_movable += len as u32;
        let c = self.blocks.counters_mut(src.block());
        c.used_movable -= len as u32;
        c.isolated += len as u32;
        Some(len)
    }

    /// Rolls back a failed offline of `b`: isolates `taken`, the free
    /// chunks it took off the free lists and the pages that migrated
    /// away, whose extents it left in place, then returns every isolated
    /// page to the buddy.
    fn abort_offline(&mut self, b: BlockId, zone: u8, taken: impl IntoIterator<Item = FrameRange>) {
        for r in taken.into_iter().filter(|r| r.count > 0) {
            self.memmap.carve(r);
            self.memmap.isolate(r, zone);
        }
        self.rollback_isolation(b, zone);
    }

    /// Debug check before a migrating offline drops `b`'s table: every
    /// frame is isolated, in one of the chunks `free` that phase 1 took
    /// off the free lists, or in the sources of `used`, all of which
    /// migrated, under their owner run's key.
    ///
    /// # Panics
    ///
    /// Panics if any other frame is left: memory still in use.
    fn assert_evacuated(&self, b: BlockId, free: &[FrameRange], used: &[UsedRun]) {
        let mm = &self.memmap;
        let chunks = free.iter().map(|&r| mm.count_in(r, |d| d.state.is_free()));
        let sources = used.iter().map(|u| {
            let r = FrameRange::new(u.start, u.len);
            mm.count_in(r, |d| (d.state, d.a, d.b) == u.key)
        });
        let isolated = mm.count_in(b.frames(), |d| d.state == PageState::Isolated);
        let evacuated = chunks.chain(sources).sum::<u64>() + isolated;
        assert_eq!(
            evacuated, PAGES_PER_BLOCK,
            "block {b:?} offlined with live pages left"
        );
    }

    /// Returns all isolated pages of `b` to the buddy (offline failure),
    /// freeing each isolated extent with [`Zone::free_run`] — the same
    /// buddy state, down to list order, as per-page frees in ascending
    /// order.
    fn rollback_isolation(&mut self, b: BlockId, zone: u8) {
        // Gather the extents first: freeing one replaces only its own
        // frames and free buddies, never another isolated extent.
        let isolated: Vec<FrameRange> = self
            .memmap
            .extents(b)
            .filter(|(_, d)| d.state == PageState::Isolated)
            .map(|(r, _)| r)
            .collect();
        for r in isolated {
            self.memmap.remove(r.start);
            let c = self.blocks.counters_mut(b);
            c.isolated -= r.count as u32;
            c.free += r.count as u32;
            self.zones[zone as usize].free_run(&mut self.memmap, r.start, r.count);
        }
    }

    /// Completes an offline: with every page isolated, the block drops
    /// its extents and reads offline.
    fn finish_offline(&mut self, b: BlockId, zone: u8) {
        debug_assert_eq!(self.blocks.counters(b).isolated as u64, PAGES_PER_BLOCK);
        self.memmap.offline(b);
        self.zones[zone as usize].managed_pages -= PAGES_PER_BLOCK;
        self.blocks.set_state(b, BlockState::AddedOffline);
        self.blocks.reset_counters(b);
    }

    /// Debug validation of all zones' free lists, the memmap's extents,
    /// block counters and the owned-memory ledger.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    pub fn assert_consistent(&self) {
        // Each zone checks that its free extents are all on its lists.
        for z in &self.zones {
            z.assert_consistent(&self.memmap);
        }
        // The owned-memory ledger: every owner run, huge page and kernel
        // run is exactly one extent that names it. Per block, these
        // owned extents and the runs of device pages (`alloc_unmovable`)
        // are all its used extents, and their lengths add up to the
        // block's used counters.
        let blocks = self.blocks.len() as usize;
        let (mut movable, mut unmovable) = (vec![0u64; blocks], vec![0u64; blocks]);
        let mut owned = vec![0usize; blocks];
        let mut tally = |counts: &mut [u64], key: (PageState, u32, u32), r: FrameRange| {
            let e = self
                .memmap
                .extent(r.start)
                .unwrap_or_else(|| panic!("{r} of {key:?} heads no extent"));
            assert_eq!(e.len as u64, r.count, "{r} of {key:?} is not one extent");
            assert_eq!((e.head.state, e.head.a, e.head.b), key, "extent {r}");
            let bi = r.start.block().0 as usize;
            counts[bi] += r.count;
            owned[bi] += 1;
        };
        for proc in self.procs.values() {
            proc.base.assert_consistent();
            for (run, r) in proc.base.handles() {
                tally(&mut movable, (PageState::Anon, proc.pid.0, run), r);
            }
            for (slot, &h) in proc.huge_pages.iter().enumerate() {
                let key = (PageState::HugeHead, proc.pid.0, slot as u32);
                tally(&mut movable, key, FrameRange::new(h, PAGES_PER_HUGE));
            }
        }
        for (&id, f) in &self.files {
            f.pages.assert_consistent();
            for (run, r) in f.pages.handles() {
                tally(&mut movable, (PageState::File, id, run), r);
            }
        }
        for (run, &r) in self.kernel_pages.iter().enumerate() {
            tally(&mut unmovable, (PageState::Kernel, 0, run as u32), r);
        }
        for bi in 0..self.blocks.len() {
            let b = BlockId(bi);
            let c = self.blocks.counters(b);
            let i = bi as usize;
            let zone = match self.blocks.state(b) {
                BlockState::Online { zone } => zone,
                state => {
                    let reads = match state {
                        BlockState::Absent => PageState::Absent,
                        _ => PageState::Offline,
                    };
                    assert_eq!(self.memmap.state(b.first_frame()), reads, "block {bi} tag");
                    assert_eq!(
                        self.memmap.extents(b).count(),
                        0,
                        "{state:?} block {bi} holds extents"
                    );
                    assert_eq!(movable[i] + unmovable[i], 0, "block {bi} owned");
                    continue;
                }
            };
            // The block's extents tile it, in its zone; outside an
            // offline none is isolated.
            let (mut at, mut free, mut device, mut used) = (b.first_frame().0, 0u64, 0u64, 0usize);
            for (r, d) in self.memmap.extents(b) {
                assert_eq!(
                    r.start.0, at,
                    "block {bi}: extents gap or overlap at {at:#x}"
                );
                assert!(r.count > 0, "empty extent at {at:#x}");
                at = r.end().0;
                assert_eq!(d.zone, zone, "extent {r} outside block {bi}'s zone");
                match d.state {
                    PageState::FreeHead => {
                        assert_eq!(
                            r.count,
                            1 << d.order,
                            "free extent {r} of order {}",
                            d.order
                        );
                        assert_eq!(r.start.0 % r.count, 0, "free extent {r} misaligned");
                        free += r.count;
                    }
                    PageState::Kernel if d.a == page::NIL => device += r.count,
                    PageState::Anon | PageState::File | PageState::Kernel => used += 1,
                    PageState::HugeHead => {
                        assert_eq!(r.start.0 % PAGES_PER_HUGE, 0, "huge extent {r} misaligned");
                        used += 1;
                    }
                    s => panic!("{s:?} extent {r} outside an offline"),
                }
            }
            assert_eq!(at, b.frames().end().0, "block {bi} is not tiled to its end");
            assert_eq!(
                used, owned[i],
                "block {bi} holds a used extent no owner names"
            );
            assert_eq!(c.total(), PAGES_PER_BLOCK, "block {bi} counters drifted");
            assert_eq!(free, c.free as u64, "block {bi} free count drifted");
            assert_eq!(
                movable[i], c.used_movable as u64,
                "block {bi} owned movable pages drifted"
            );
            assert_eq!(
                unmovable[i] + device,
                c.used_unmovable as u64,
                "block {bi} unmovable pages drifted"
            );
        }
    }
}

/// The descriptor of a used base page: `state`, in `zone`, of `owner`'s
/// run `run`.
fn used_page(state: PageState, zone: u8, owner: u32, run: u32) -> PageDesc {
    PageDesc {
        state,
        order: 0,
        zone,
        flags: 0,
        a: owner,
        b: run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_types::MIB;

    fn small_config() -> GuestMmConfig {
        GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: 512 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        }
    }

    #[test]
    fn boot_reserves_kernel_and_onlines_normal() {
        let mm = GuestMm::new(small_config());
        assert_eq!(mm.present_bytes(), 256 * MIB);
        assert_eq!(mm.used_bytes(), 32 * MIB);
        assert_eq!(mm.zone(ZONE_NORMAL).managed_pages, 256 * MIB / PAGE_SIZE);
        assert_eq!(mm.zone(ZONE_MOVABLE).managed_pages, 0);
        mm.assert_consistent();
    }

    #[test]
    fn anon_fault_allocates_and_exit_frees() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        let used0 = mm.used_bytes();
        let got = mm.fault_anon(pid, 100).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(mm.used_bytes(), used0 + 100 * PAGE_SIZE);
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 100);
        mm.assert_consistent();
        let freed = mm.exit_process(pid).unwrap();
        assert_eq!(freed, 100);
        assert_eq!(mm.used_bytes(), used0);
        mm.assert_consistent();
    }

    #[test]
    fn fault_falls_back_to_normal_when_movable_empty() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        // ZONE_MOVABLE has no present pages yet; allocation must come
        // from ZONE_NORMAL.
        let got = mm.fault_anon(pid, 1).unwrap();
        assert_eq!(mm.memmap().page(got[0]).zone, ZONE_NORMAL);
    }

    #[test]
    fn free_anon_lifo() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 10).unwrap();
        assert_eq!(mm.free_anon(pid, 4).unwrap(), 4);
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 6);
        // Freeing more than resident frees what is there.
        assert_eq!(mm.free_anon(pid, 100).unwrap(), 6);
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 0);
        mm.assert_consistent();
    }

    #[test]
    fn hotplug_lifecycle() {
        let mut mm = GuestMm::new(small_config());
        let first_hot = BlockId(2); // Boot covers blocks 0..2.
        assert_eq!(mm.blocks().state(first_hot), BlockState::Absent);

        mm.hot_add_block(first_hot).unwrap();
        assert_eq!(mm.blocks().state(first_hot), BlockState::AddedOffline);
        assert_eq!(mm.present_bytes(), 256 * MIB);

        mm.online_block(first_hot, ZONE_MOVABLE).unwrap();
        assert_eq!(
            mm.blocks().state(first_hot),
            BlockState::Online { zone: ZONE_MOVABLE }
        );
        assert_eq!(mm.present_bytes(), 384 * MIB);
        assert_eq!(mm.zone(ZONE_MOVABLE).free_pages, PAGES_PER_BLOCK);
        mm.assert_consistent();

        let out = mm.offline_block(first_hot).unwrap();
        assert_eq!(out.isolated_free, PAGES_PER_BLOCK);
        assert_eq!(out.migrated, 0);
        assert_eq!(
            out.zeroed, PAGES_PER_BLOCK,
            "init_on_alloc zeroes isolated frees"
        );
        assert_eq!(mm.present_bytes(), 256 * MIB);
        mm.assert_consistent();

        mm.hot_remove_block(first_hot).unwrap();
        assert_eq!(mm.blocks().state(first_hot), BlockState::Absent);
    }

    #[test]
    fn hotplug_bad_transitions_rejected() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        assert_eq!(
            mm.offline_block(b).unwrap_err().error,
            MmError::BadBlockState
        );
        assert_eq!(mm.hot_remove_block(b), Err(MmError::BadBlockState));
        mm.hot_add_block(b).unwrap();
        assert_eq!(mm.hot_add_block(b), Err(MmError::BadBlockState));
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        assert_eq!(
            mm.online_block(b, ZONE_MOVABLE),
            Err(MmError::BadBlockState)
        );
        // Onlining into a zone that does not span the block fails.
        let b2 = BlockId(3);
        mm.hot_add_block(b2).unwrap();
        assert_eq!(
            mm.online_block(b2, ZONE_NORMAL),
            Err(MmError::BadBlockState)
        );
    }

    #[test]
    fn offline_migrates_occupied_pages() {
        let mut mm = GuestMm::new(small_config());
        // Online two hotplug blocks, fill one partially from a process.
        let b1 = BlockId(2);
        let b2 = BlockId(3);
        mm.hot_add_block(b1).unwrap();
        mm.online_block(b1, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 1000).unwrap();
        // Pages land in b1 (only movable block online).
        assert_eq!(mm.blocks().counters(b1).used_movable, 1000);
        mm.hot_add_block(b2).unwrap();
        mm.online_block(b2, ZONE_MOVABLE).unwrap();

        let out = mm.offline_block(b1).unwrap();
        assert_eq!(out.migrated, 1000);
        assert_eq!(out.isolated_free, PAGES_PER_BLOCK - 1000);
        // Zeroed = isolated frees + migration targets.
        assert_eq!(out.zeroed, PAGES_PER_BLOCK);
        // The process still owns 1000 pages, now in b2.
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 1000);
        assert_eq!(mm.blocks().counters(b2).used_movable, 1000);
        mm.assert_consistent();
        // Squeezy's zeroing skip suppresses the zeroing count.
        mm.unplug_aware_zeroing_skip = true;
        // b2 holds the 1000 pages; migration falls back to ZONE_NORMAL.
        let out2 = mm.offline_block(b2).unwrap();
        assert_eq!(out2.migrated, 1000);
        assert_eq!(out2.zeroed, 0);
        mm.assert_consistent();
    }

    #[test]
    fn offline_fails_when_no_target_memory() {
        let mut mm = GuestMm::new(GuestMmConfig {
            boot_bytes: 128 * MIB,
            hotplug_bytes: 256 * MIB,
            kernel_bytes: 16 * MIB,
            init_on_alloc: true,
        });
        let b = BlockId(1);
        mm.hot_add_block(b).unwrap();
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        // Fill both the block and nearly all of ZONE_NORMAL so that
        // migration targets run out.
        let total_free = mm.free_bytes() / PAGE_SIZE;
        mm.fault_anon(pid, total_free - 100).unwrap();
        let before = mm.stats().offline_failures;
        let failure = mm.offline_block(b).unwrap_err();
        assert_eq!(failure.error, MmError::OutOfMemory);
        assert!(
            failure.partial.migrated > 0,
            "some pages migrated before exhaustion"
        );
        assert_eq!(mm.stats().offline_failures, before + 1);
        // Rollback: block is still online and consistent.
        assert!(matches!(mm.blocks().state(b), BlockState::Online { .. }));
        mm.assert_consistent();
        // The rollback returned every isolated page, so a second one
        // finds nothing to return.
        let isolated = |mm: &GuestMm| {
            mm.memmap()
                .count_in(b.frames(), |d| d.state == PageState::Isolated)
        };
        assert_eq!(isolated(&mm), 0);
        let counters = *mm.blocks().counters(b);
        mm.rollback_isolation(b, ZONE_MOVABLE);
        assert_eq!(*mm.blocks().counters(b), counters);
        mm.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "offlined with live pages left")]
    fn evacuation_check_refuses_a_used_run_not_migrated() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        mm.hot_add_block(b).unwrap();
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        let (p, q) = (
            mm.spawn_process(AllocPolicy::MovableDefault),
            mm.spawn_process(AllocPolicy::MovableDefault),
        );
        mm.fault_anon(p, 100).unwrap();
        mm.fault_anon(q, 100).unwrap();
        let free: Vec<FrameRange> = mm
            .memmap
            .extents(b)
            .filter(|(_, d)| d.state == PageState::FreeHead)
            .map(|(r, _)| r)
            .collect();
        let runs = |pids: &[Pid]| {
            let mut used = Vec::new();
            for (r, d) in mm.memmap.extents(b) {
                if d.state == PageState::Anon && pids.contains(&Pid(d.a)) {
                    UsedRun::push(&mut used, r.start, r.count, d);
                }
            }
            used
        };
        // Both processes' runs migrated: the block holds nothing live.
        mm.assert_evacuated(b, &free, &runs(&[p, q]));
        // `q`'s run did not.
        mm.assert_evacuated(b, &free, &runs(&[p]));
    }

    #[test]
    fn instant_offline_requires_empty_block() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        mm.hot_add_block(b).unwrap();
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 1).unwrap();
        assert_eq!(mm.offline_blocks_instant(&[b]), Err(MmError::BlockNotEmpty));
        mm.exit_process(pid).unwrap();
        mm.unplug_aware_zeroing_skip = true;
        let out = mm.offline_blocks_instant(&[b]).unwrap();
        assert_eq!(out.migrated, 0);
        assert_eq!(out.zeroed, 0, "Squeezy skips zeroing");
        assert_eq!(out.isolated_free, PAGES_PER_BLOCK);
        mm.assert_consistent();
    }

    #[test]
    fn kernel_pages_pin_blocks() {
        let mut mm = GuestMm::new(small_config());
        // Kernel pages live in boot blocks; those blocks are pinned.
        let pinned = (0..2)
            .map(BlockId)
            .find(|&b| mm.blocks().counters(b).used_unmovable > 0)
            .expect("some boot block holds kernel pages");
        assert_eq!(
            mm.offline_block(pinned).unwrap_err().error,
            MmError::BlockPinned
        );
        mm.alloc_kernel(10).unwrap();
        mm.assert_consistent();
    }

    #[test]
    fn file_faults_hit_cache_on_refault() {
        let mut mm = GuestMm::new(small_config());
        let f = FileId(7);
        let o1 = mm.fault_file(f, 100).unwrap();
        assert_eq!(o1.new_pages, 100);
        assert_eq!(o1.cached_pages, 0);
        let o2 = mm.fault_file(f, 100).unwrap();
        assert_eq!(o2.new_pages, 0);
        assert_eq!(o2.cached_pages, 100);
        let o3 = mm.fault_file(f, 150).unwrap();
        assert_eq!(o3.new_pages, 50);
        assert_eq!(o3.cached_pages, 100);
        assert_eq!(mm.file(f).unwrap().resident_pages(), 150);
        assert_eq!(mm.drop_file(f).unwrap(), 150);
        assert!(mm.file(f).is_none());
        mm.assert_consistent();
    }

    #[test]
    fn pinned_zone_policy_ooms_instead_of_spilling() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        mm.hot_add_block(b).unwrap();
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(ZONE_MOVABLE));
        // One block = 32768 pages; asking for more must OOM even though
        // ZONE_NORMAL has plenty free.
        let r = mm.fault_anon(pid, PAGES_PER_BLOCK + 1);
        assert_eq!(r, Err(MmError::OutOfMemory));
        assert!(mm.free_bytes() > 0, "normal zone still has memory");
        // The process keeps what it got; exit releases it.
        assert_eq!(mm.process(pid).unwrap().rss_pages(), PAGES_PER_BLOCK);
        mm.exit_process(pid).unwrap();
        mm.assert_consistent();
    }

    #[test]
    fn offline_candidates_strategies() {
        let mut mm = GuestMm::new(small_config());
        for i in 2..6 {
            mm.hot_add_block(BlockId(i)).unwrap();
            mm.online_block(BlockId(i), ZONE_MOVABLE).unwrap();
        }
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 10).unwrap();
        let highest = mm.offline_candidates(ZONE_MOVABLE, 2, CandidateStrategy::HighestFirst);
        assert_eq!(highest, vec![BlockId(5), BlockId(4)]);
        let emptiest = mm.offline_candidates(ZONE_MOVABLE, 4, CandidateStrategy::EmptiestFirst);
        // The block holding the 10 faulted pages sorts last.
        let last = *emptiest.last().unwrap();
        assert_eq!(mm.blocks().counters(last).used_movable, 10);
    }

    #[test]
    fn stats_accumulate() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        mm.hot_add_block(b).unwrap();
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 50).unwrap();
        mm.offline_block(b).unwrap();
        let s = mm.stats();
        assert_eq!(s.anon_faults, 50);
        assert_eq!(s.pages_migrated, 50);
        assert_eq!(s.blocks_onlined, 1);
        assert_eq!(s.blocks_offlined, 1);
        assert!(s.pages_zeroed >= 50);
    }

    #[test]
    fn swap_out_evicts_oldest_pages_first() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        let got = mm.fault_anon(pid, 100).unwrap();
        let used0 = mm.used_bytes();
        let victims = mm.swap_out_anon(pid, 30).unwrap();
        assert_eq!(
            victims,
            got[..30].to_vec(),
            "oldest (first-faulted) go first"
        );
        let p = mm.process(pid).unwrap();
        assert_eq!(p.rss_pages(), 70);
        assert_eq!(p.swapped, 30);
        assert_eq!(mm.used_bytes(), used0 - 30 * PAGE_SIZE);
        mm.assert_consistent();
        // Run back-references survived the drain (exercise free path).
        let some = mm.process(pid).unwrap().pages().nth(5).unwrap();
        mm.free_anon_page(pid, some).unwrap();
        assert_eq!(mm.process(pid).unwrap().pages().nth(5), Some(got[99]));
        mm.assert_consistent();
    }

    #[test]
    fn swap_in_restores_resident_set() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 100).unwrap();
        mm.swap_out_anon(pid, 60).unwrap();
        let back = mm.swap_in_anon(pid, 40).unwrap();
        assert_eq!(back.len(), 40);
        let p = mm.process(pid).unwrap();
        assert_eq!(p.rss_pages(), 80);
        assert_eq!(p.swapped, 20);
        // Swapping in more than is swapped caps at the swapped count.
        assert_eq!(mm.swap_in_anon(pid, 100).unwrap().len(), 20);
        assert_eq!(mm.process(pid).unwrap().swapped, 0);
        assert_eq!(mm.stats().swap_outs, 60);
        assert_eq!(mm.stats().swap_ins, 60);
        mm.assert_consistent();
    }

    #[test]
    fn swap_out_more_than_resident_caps() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 10).unwrap();
        let victims = mm.swap_out_anon(pid, 100).unwrap();
        assert_eq!(victims.len(), 10);
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 0);
        assert_eq!(mm.swap_out_anon(Pid(999), 1), Err(MmError::NoSuchProcess));
    }

    #[test]
    fn create_zone_and_pin_process_to_it() {
        let mut mm = GuestMm::new(small_config());
        let boot_frames = 2 * PAGES_PER_BLOCK;
        let z = mm.create_zone(
            ZoneKind::SqueezyPrivate { partition: 0 },
            FrameRange::new(Gfn(boot_frames), PAGES_PER_BLOCK),
        );
        assert_eq!(z, 2);
        assert_eq!(mm.zone(z).managed_pages, 0);
        // Online the block into the new zone and allocate from it.
        mm.hot_add_block(BlockId(2)).unwrap();
        mm.online_block(BlockId(2), z).unwrap();
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(z));
        let got = mm.fault_anon(pid, 5).unwrap();
        for g in got {
            assert_eq!(mm.memmap().page(g).zone, z);
        }
        mm.assert_consistent();
    }

    fn fields(d: &PageDesc) -> (PageState, u8, u8, u8, u32, u32) {
        (d.state, d.order, d.zone, d.flags, d.a, d.b)
    }

    /// The blocks holding extents, in address order.
    fn blocks_with_extents(mm: &GuestMm) -> Vec<u64> {
        (0..mm.blocks().len())
            .filter(|&b| mm.memmap().extents(BlockId(b)).next().is_some())
            .collect()
    }

    #[test]
    fn boot_holds_extents_only_in_boot_blocks() {
        let mm = GuestMm::new(GuestMmConfig {
            boot_bytes: 1024 * MIB,
            hotplug_bytes: 256 * 1024 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        });
        assert_eq!(mm.blocks().len(), 8 + 2048);
        assert_eq!(blocks_with_extents(&mm), (0..8).collect::<Vec<_>>());
        // Each block onlines as 32 free chunks; the kernel's 8 chunks
        // became 8 kernel runs in their place.
        assert_eq!(mm.memmap().extent_count(), 8 * 32);
        assert_eq!(mm.kernel_pages().len(), 8);
        mm.assert_consistent();
    }

    #[test]
    fn a_fresh_block_holds_one_extent_per_chunk() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        mm.hot_add_block(b).unwrap();
        assert_eq!(mm.memmap().extents(b).count(), 0, "hot-add adds no extent");
        mm.online_block(b, ZONE_MOVABLE).unwrap();
        let chunks: Vec<_> = mm.memmap().extents(b).collect();
        assert_eq!(chunks.len(), 32);
        for (i, (r, d)) in chunks.into_iter().enumerate() {
            assert_eq!(
                r,
                FrameRange::new(Gfn(b.first_frame().0 + i as u64 * 1024), 1024)
            );
            assert_eq!(
                (d.state, d.order, d.zone),
                (PageState::FreeHead, MAX_ORDER, ZONE_MOVABLE)
            );
        }
        mm.assert_consistent();
    }

    #[test]
    fn a_partition_fault_holds_extents_per_run() {
        // An Html-sized instance: 200 MiB of anon faulted into a 768 MiB
        // (6-block) partition zone, then exit and instant offline.
        let mut mm = GuestMm::new(GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: 768 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        });
        let span = FrameRange::new(Gfn(2 * PAGES_PER_BLOCK), 6 * PAGES_PER_BLOCK);
        let z = mm.create_zone(ZoneKind::SqueezyPrivate { partition: 0 }, span);
        let partition: Vec<BlockId> = (2..8).map(BlockId).collect();
        let boot = mm.memmap().extent_count();
        for &b in &partition {
            mm.hot_add_online_block(b, z).unwrap();
        }
        assert_eq!(mm.memmap().extent_count(), boot + 6 * 32);
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(z));
        let pages = 200 * MIB / PAGE_SIZE;
        mm.fault_anon(pid, pages).unwrap();
        let runs = mm.process(pid).unwrap().runs().count();
        assert_eq!(runs as u64, pages / 1024, "one run per max-order chunk");
        // Each run took the place of one free chunk.
        assert_eq!(mm.memmap().extent_count(), boot + 6 * 32);
        mm.assert_consistent();
        mm.exit_process(pid).unwrap();
        for &b in &partition {
            mm.offline_blocks_instant(&[b]).unwrap();
            mm.hot_remove_block(b).unwrap();
        }
        assert_eq!(mm.memmap().extent_count(), boot);
        assert_eq!(blocks_with_extents(&mm), [0, 1]);
        mm.assert_consistent();
    }

    #[test]
    fn plug_cycles_hold_extents_only_in_online_blocks() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..80 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Hotplug covers blocks 2..6.
            let b = BlockId(2 + x % 4);
            match mm.blocks().state(b) {
                BlockState::Absent if x & 16 == 0 => mm.hot_add_block(b).unwrap(),
                BlockState::Absent => {
                    mm.hot_add_online_block(b, ZONE_MOVABLE).unwrap();
                    // Leave pages behind for the offline to migrate.
                    mm.fault_anon(pid, 300).unwrap();
                }
                BlockState::AddedOffline => mm.hot_remove_block(b).unwrap(),
                BlockState::Online { .. } => {
                    let _ = mm.offline_block(b);
                }
            }
            let online: Vec<u64> = (0..mm.blocks().len())
                .filter(|&i| matches!(mm.blocks().state(BlockId(i)), BlockState::Online { .. }))
                .collect();
            assert_eq!(blocks_with_extents(&mm), online);
            // 300-page faults leave a few runs per block, never a
            // descriptor per page.
            assert!(mm.memmap().extent_count() <= online.len() * 64);
            mm.assert_consistent();
        }
        assert!(mm.stats().blocks_offlined > 0 && mm.stats().pages_migrated > 0);
    }

    #[test]
    fn removed_block_reads_absent() {
        let mut mm = GuestMm::new(small_config());
        let b = BlockId(2);
        mm.hot_add_online_block(b, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 100).unwrap();
        mm.offline_block(b).unwrap();
        mm.hot_remove_block(b).unwrap();
        for g in b.frames().iter() {
            assert_eq!(fields(&mm.memmap().page(g)), fields(&PageDesc::ABSENT));
        }
        mm.assert_consistent();
    }

    #[test]
    fn onlining_after_an_offline_reads_free() {
        let mut mm = GuestMm::new(small_config());
        let (b, c) = (BlockId(2), BlockId(3));
        mm.hot_add_online_block(b, ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, 64).unwrap();
        assert_eq!(mm.offline_block(b).unwrap().migrated, 64);
        for g in b.frames().iter() {
            assert_eq!(fields(&mm.memmap().page(g)), fields(&PageDesc::OFFLINE));
        }
        mm.hot_add_block(c).unwrap();
        for g in c.frames().iter() {
            assert_eq!(fields(&mm.memmap().page(g)), fields(&PageDesc::OFFLINE));
        }
        mm.online_block(c, ZONE_MOVABLE).unwrap();
        for (i, g) in c.frames().iter().enumerate() {
            let (state, zone) = (mm.memmap().state(g), mm.memmap().page(g).zone);
            let head = i % (1 << MAX_ORDER) == 0;
            assert_eq!(
                state,
                [PageState::FreeTail, PageState::FreeHead][head as usize]
            );
            assert_eq!(zone, ZONE_MOVABLE);
        }
        mm.assert_consistent();
    }

    #[test]
    fn freeing_a_page_inside_a_free_chunk_is_refused() {
        let mut mm = GuestMm::new(small_config());
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        let got = mm.fault_anon(pid, 8).unwrap();
        // Free an even frame, then its odd buddy: the odd one merges
        // into a chunk below its head.
        let i = (0..7)
            .find(|&i| got[i].0.is_multiple_of(2) && got[i + 1].0 == got[i].0 + 1)
            .unwrap();
        mm.free_anon_page(pid, got[i]).unwrap();
        mm.free_anon_page(pid, got[i + 1]).unwrap();
        let g = got[i + 1];
        assert_eq!(mm.memmap().state(g), PageState::FreeTail);
        assert_eq!(mm.free_anon_page(pid, g), Err(MmError::NotOwner));
        assert_eq!(mm.process(pid).unwrap().rss_pages(), 6);
        mm.assert_consistent();
    }
}

/// The per-page offline path, kept as the reference the run-based
/// [`GuestMm::offline_block`] is pinned to: free pages are carved out one
/// [`Zone::take_free_page`] at a time, used pages migrate one order-0
/// target at a time, and a rollback frees isolated pages one by one.
/// Both guests are also held, after every operation, to a reference
/// page order per owner kept by the per-page vector rules the run lists
/// replace.
#[cfg(test)]
mod offline_twin {
    use super::*;
    use mem_types::MIB;
    use std::collections::BTreeMap;

    /// An owner of base pages: its page state (`Anon` or `File`) and id.
    type Owner = (u8, u32);

    /// What an offline did to owners' page orders, in the order it
    /// happened (every split precedes every base-page migration).
    #[derive(Clone, Copy, Debug)]
    enum Moved {
        /// A huge page of this process split into 512 base pages.
        Split(u32, Gfn),
        /// A base page of this owner migrated from the first frame to
        /// the second.
        Page(PageState, u32, Gfn, Gfn),
    }

    impl GuestMm {
        fn offline_block_per_page(
            &mut self,
            b: BlockId,
            log: &mut Vec<Moved>,
        ) -> Result<OfflineOutcome, OfflineFailure> {
            let fail = |error| OfflineFailure {
                error,
                partial: OfflineOutcome::default(),
            };
            let BlockState::Online { zone } = self.blocks.state(b) else {
                return Err(fail(MmError::BadBlockState));
            };
            if self.blocks.counters(b).used_unmovable > 0 {
                return Err(fail(MmError::BlockPinned));
            }
            let mut out = OfflineOutcome {
                scanned: PAGES_PER_BLOCK,
                ..OfflineOutcome::default()
            };
            let zero_on_isolate = self.config.init_on_alloc && !self.unplug_aware_zeroing_skip;

            let mut used: Vec<Gfn> = Vec::new();
            let mut used_huge: Vec<Gfn> = Vec::new();
            for g in b.frames().iter() {
                match self.memmap.state(g) {
                    s if s.is_free() => {
                        self.zones[zone as usize].take_free_page(&mut self.memmap, g);
                        self.memmap.isolate(FrameRange::new(g, 1), zone);
                        let c = self.blocks.counters_mut(b);
                        c.free -= 1;
                        c.isolated += 1;
                        out.isolated_free += 1;
                        if zero_on_isolate {
                            out.zeroed += 1;
                        }
                    }
                    PageState::HugeHead => used_huge.push(g),
                    PageState::HugeTail => {}
                    s if s.is_movable() => used.push(g),
                    PageState::Kernel => {
                        self.rollback_isolation_per_page(b, zone);
                        return Err(OfflineFailure {
                            error: MmError::BlockPinned,
                            partial: out,
                        });
                    }
                    _ => {
                        self.rollback_isolation_per_page(b, zone);
                        return Err(OfflineFailure {
                            error: MmError::BadBlockState,
                            partial: out,
                        });
                    }
                }
            }
            for h in used_huge {
                let owner = self.memmap.page(h).a;
                match self.evacuate_huge(h) {
                    huge::HugeEvacuation::Whole => {
                        out.migrated_huge += 1;
                        if zero_on_isolate {
                            out.zeroed += PAGES_PER_HUGE;
                        }
                    }
                    huge::HugeEvacuation::Split => {
                        out.huge_splits += 1;
                        log.push(Moved::Split(owner, h));
                        used.extend((h.0..h.0 + PAGES_PER_HUGE).map(Gfn));
                    }
                }
            }
            for g in used {
                match self.migrate_page(g, b) {
                    Ok(moved) => {
                        log.push(moved);
                        out.migrated += 1;
                        if zero_on_isolate {
                            out.zeroed += 1;
                        }
                    }
                    Err(e) => {
                        self.rollback_isolation_per_page(b, zone);
                        self.stats.offline_failures += 1;
                        self.stats.pages_migrated += out.migrated;
                        self.stats.pages_zeroed += out.zeroed;
                        return Err(OfflineFailure {
                            error: e,
                            partial: out,
                        });
                    }
                }
            }
            self.finish_offline(b, zone);
            self.stats.blocks_offlined += 1;
            self.stats.pages_migrated += out.migrated;
            self.stats.pages_zeroed += out.zeroed;
            Ok(out)
        }

        fn migrate_page(&mut self, g: Gfn, from: BlockId) -> Result<Moved, MmError> {
            let d = self.memmap.page(g);
            let (zonelist, n) = migration_zonelist(d.zone);
            let (target, target_zone) = self
                .alloc_from_zonelist(&zonelist[..n])
                .ok_or(MmError::OutOfMemory)?;
            assert_ne!(target.block(), from, "isolation left frees behind");
            let list = match d.state {
                PageState::Anon => &mut self.procs.get_mut(&d.a).unwrap().base,
                PageState::File => &mut self.files.get_mut(&d.a).unwrap().pages,
                _ => unreachable!(),
            };
            // The run's earlier pages lie lower in this block (or are
            // split pages that joined it earlier) and migrated first.
            assert_eq!(list.run(d.b).start, g, "migration source leads its run");
            let run = list.insert_before(d.b, target, 1);
            list.trim_front(d.b, 1);
            self.claim_run(target, 1, target_zone, d.state, d.a, run);
            self.memmap.carve(FrameRange::new(g, 1));
            self.memmap.isolate(FrameRange::new(g, 1), d.zone);
            let c = self.blocks.counters_mut(from);
            c.used_movable -= 1;
            c.isolated += 1;
            Ok(Moved::Page(d.state, d.a, g, target))
        }

        /// The instant offline a block at a time, each block's chunks
        /// spliced off their lists: the reference for the batch's
        /// whole-zone path.
        fn offline_blocks_instant_per_block(
            &mut self,
            blocks: &[BlockId],
        ) -> Result<OfflineOutcome, MmError> {
            let mut out = OfflineOutcome::default();
            for &b in blocks {
                let zone = self.instant_offline_zone(b)?;
                self.zones[zone as usize].unlink_block(&mut self.memmap, b);
                out.isolated_free = PAGES_PER_BLOCK;
                if self.config.init_on_alloc && !self.unplug_aware_zeroing_skip {
                    out.zeroed = out.isolated_free;
                    self.stats.pages_zeroed += out.zeroed;
                }
                let c = self.blocks.counters_mut(b);
                c.isolated += c.free;
                c.free = 0;
                self.finish_offline(b, zone);
                self.stats.blocks_offlined += 1;
            }
            Ok(out)
        }

        fn rollback_isolation_per_page(&mut self, b: BlockId, zone: u8) {
            for g in b.frames().iter() {
                if self.memmap.state(g) == PageState::Isolated {
                    let c = self.blocks.counters_mut(b);
                    c.isolated -= 1;
                    c.free += 1;
                    self.memmap.carve(FrameRange::new(g, 1));
                    self.zones[zone as usize].free_block(&mut self.memmap, g, 0);
                }
            }
        }

        /// Every owner of base pages.
        fn owners(&self) -> impl Iterator<Item = Owner> + '_ {
            let procs = self.procs.keys().map(|&p| (PageState::Anon as u8, p));
            procs.chain(self.files.keys().map(|&f| (PageState::File as u8, f)))
        }

        /// Owner `k`'s run list.
        fn owned(&self, k: Owner) -> &RunList {
            match k.0 {
                x if x == PageState::Anon as u8 => &self.procs[&k.1].base,
                _ => &self.files[&k.1].pages,
            }
        }
    }

    /// Each owner's page order as per-page vectors kept it: faults
    /// extend, `free_anon` pops the back, `free_anon_page` swap-removes,
    /// swap-out drains the front, a huge split appends its 512 pages and
    /// a migration target takes its source's slot.
    #[derive(Default)]
    struct Orders(BTreeMap<Owner, Vec<Gfn>>);

    impl Orders {
        fn of(&mut self, state: PageState, owner: u32) -> &mut Vec<Gfn> {
            self.0.entry((state as u8, owner)).or_default()
        }

        /// Replays an offline's splits and migrations; returns whether a
        /// target took a slot strictly inside its owner's order.
        fn replay(&mut self, log: &[Moved]) -> bool {
            let mut mid = false;
            let mut slots: BTreeMap<Owner, HashMap<Gfn, usize>> = BTreeMap::new();
            for &m in log {
                match m {
                    Moved::Split(owner, head) => {
                        assert!(slots.is_empty(), "a split after a migration");
                        let v = self.of(PageState::Anon, owner);
                        v.extend((head.0..head.0 + PAGES_PER_HUGE).map(Gfn));
                    }
                    Moved::Page(state, owner, s, t) => {
                        let v = self
                            .0
                            .get_mut(&(state as u8, owner))
                            .expect("owner has an order");
                        let at = slots.entry((state as u8, owner)).or_insert_with(|| {
                            v.iter().enumerate().map(|(i, &g)| (g, i)).collect()
                        });
                        let i = at.remove(&s).expect("source in its owner's order");
                        at.insert(t, i);
                        v[i] = t;
                        mid |= i > 0 && i + 1 < v.len();
                    }
                }
            }
            mid
        }

        /// Asserts that owner `k` of `mm` holds exactly its reference
        /// order, and that the end pages of each of its runs name the
        /// owner and the run.
        fn assert_owner(&self, mm: &GuestMm, k: Owner, ctx: &str) {
            let list = mm.owners().any(|o| o == k).then(|| mm.owned(k));
            let (list, want) = match (list, self.0.get(&k)) {
                (None, None) => return,
                (Some(l), Some(w)) => (l, w),
                (l, w) => panic!(
                    "{ctx}: {k:?} held {} vs reference {}",
                    l.is_some(),
                    w.is_some()
                ),
            };
            let mut i = 0;
            for (run, r) in list.handles() {
                for g in [r.start, Gfn(r.end().0 - 1)] {
                    let d = mm.memmap.page(g);
                    assert_eq!(
                        (d.state as u8, d.a, d.b),
                        (k.0, k.1, run),
                        "{ctx}: {g:?} of {r}"
                    );
                }
                let seg = &want[i.min(want.len())..(i + r.count as usize).min(want.len())];
                if let Some(j) =
                    (0..r.count as usize).find(|&j| seg.get(j) != Some(&Gfn(r.start.0 + j as u64)))
                {
                    panic!(
                        "{ctx}: {k:?} order differs at slot {} of {} (reference {}): {:?} vs reference {:?}",
                        i + j,
                        list.len(),
                        want.len(),
                        Gfn(r.start.0 + j as u64),
                        seg.get(j)
                    );
                }
                i += r.count as usize;
            }
            assert_eq!(i, want.len(), "{ctx}: {k:?} length");
        }

        /// Asserts that `mm`'s owners hold exactly these orders.
        fn assert_held_by(&self, mm: &GuestMm, ctx: &str) {
            let mut owners: Vec<Owner> = mm.owners().collect();
            owners.sort();
            assert_eq!(
                owners,
                self.0.keys().copied().collect::<Vec<_>>(),
                "{ctx}: owners"
            );
            for k in owners {
                self.assert_owner(mm, k, ctx);
            }
        }
    }

    /// Asserts the two guests are indistinguishable: every frame's
    /// resolved state and zone; the owner of every used page, its place
    /// in its owner's order (anonymous and file pages) or its `b`
    /// word (huge and kernel pages); the links and order of free heads
    /// (elsewhere `a`/`b`/`order` carry nothing); every zone's free lists
    /// in order, block states and counters, huge sets, kernel runs and
    /// statistics. (Owners' page orders are held to the reference orders
    /// after every operation.)
    fn assert_twins(a: &GuestMm, b: &GuestMm) {
        // Every owned frame's slot in its owner's order.
        let slots = |mm: &GuestMm| {
            let mut at = vec![u64::MAX; mm.memmap.len() as usize];
            for k in mm.owners() {
                let mut slot = 0;
                for r in mm.owned(k).runs() {
                    for s in &mut at[r.start.0 as usize..r.end().0 as usize] {
                        *s = slot;
                        slot += 1;
                    }
                }
            }
            at
        };
        let (sa, sb) = (slots(a), slots(b));
        for blk in (0..a.blocks.len()).map(BlockId) {
            let pages = a.memmap.block_pages(blk).zip(b.memmap.block_pages(blk));
            for ((x, y), i) in pages.zip(blk.frames().start.0..) {
                assert_eq!((x.state, x.zone), (y.state, y.zone), "frame {i:#x}");
                if x.state.is_used() || x.state == PageState::FreeHead {
                    assert_eq!(x.a, y.a, "frame {i:#x} owner word");
                }
                if matches!(x.state, PageState::Anon | PageState::File) {
                    let (sa, sb) = (sa[i as usize], sb[i as usize]);
                    assert_eq!(sa, sb, "frame {i:#x} slot");
                    assert_ne!(sa, u64::MAX, "frame {i:#x} in no owner's order");
                } else if x.state.is_used() || x.state == PageState::FreeHead {
                    assert_eq!(x.b, y.b, "frame {i:#x} b word");
                }
                if x.state == PageState::FreeHead {
                    assert_eq!(x.order, y.order, "frame {i:#x} order");
                }
            }
        }
        assert_eq!(a.zones.len(), b.zones.len());
        for (za, zb) in a.zones.iter().zip(&b.zones) {
            assert_eq!(
                (za.free_pages, za.managed_pages),
                (zb.free_pages, zb.managed_pages)
            );
            for o in 0..=MAX_ORDER {
                assert_eq!(
                    za.free_list(&a.memmap, o),
                    zb.free_list(&b.memmap, o),
                    "zone {} order {o} list",
                    za.id
                );
            }
        }
        for i in 0..a.blocks.len() {
            let blk = BlockId(i);
            assert_eq!(a.blocks.state(blk), b.blocks.state(blk), "block {i}");
            assert_eq!(a.blocks.counters(blk), b.blocks.counters(blk), "block {i}");
        }
        assert_eq!(a.procs.len(), b.procs.len());
        for (pid, p) in &a.procs {
            let q = &b.procs[pid];
            assert_eq!(p.huge_pages, q.huge_pages, "pid {pid} huge pages");
            assert_eq!(p.swapped, q.swapped);
        }
        assert_eq!(a.kernel_pages, b.kernel_pages);
        assert_eq!(a.stats, b.stats);
    }

    /// One guest operation, applied identically to both twins.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Spawn(AllocPolicy),
        Anon(Pid, u64),
        Huge(Pid, u64),
        File(FileId, u64),
        Punch(Pid, Gfn),
        FreeAnon(Pid, u64),
        FreeTail(Pid, u64),
        Exit(Pid),
        DropAnon(Pid),
        DropFile(FileId),
        SwapOut(Pid, u64),
        SwapIn(Pid, u64),
        Pin,
        Online(BlockId, u8),
        Offline(BlockId),
        Plug(BlockId, u8),
        InstantOffline(BlockId),
    }

    /// What an operation returned, compared across the twins.
    #[derive(Debug, PartialEq)]
    enum Effect {
        None,
        /// Pages appended to the operated owner's order.
        Appended(Vec<Gfn>),
        /// Pages taken from the front of the process's order.
        SwappedOut(Vec<Gfn>),
        Offline(Result<OfflineOutcome, OfflineFailure>),
    }

    /// Applies `op`, logging the per-page reference offline's moves.
    fn apply(mm: &mut GuestMm, op: Op, reference: bool, log: &mut Vec<Moved>) -> Effect {
        // Pages a failed fault left attached are not returned; take them
        // from the back of the order.
        let tail = |mm: &GuestMm, pid: Pid, from: u64| -> Vec<Gfn> {
            mm.process(pid)
                .unwrap()
                .pages()
                .skip(from as usize)
                .collect()
        };
        let resident = |mm: &GuestMm, pid: Pid| mm.process(pid).unwrap().base.len();
        match op {
            Op::Spawn(p) => {
                mm.spawn_process(p);
            }
            Op::Anon(pid, n) => {
                let mut runs = Vec::new();
                let _ = mm.fault_anon_runs(pid, n, &mut runs);
                return Effect::Appended(runs.iter().flat_map(|r| r.iter()).collect());
            }
            Op::Huge(pid, n) => {
                let before = resident(mm, pid);
                return Effect::Appended(match mm.fault_anon_huge(pid, n) {
                    Ok(out) => out.fallback_pages,
                    Err(_) => tail(mm, pid, before),
                });
            }
            Op::File(f, n) => {
                let mut runs = Vec::new();
                let _ = mm.fault_file_runs(f, n, &mut runs);
                return Effect::Appended(runs.iter().flat_map(|r| r.iter()).collect());
            }
            Op::Punch(pid, g) => mm.free_anon_page(pid, g).unwrap(),
            Op::FreeAnon(pid, n) => {
                mm.free_anon(pid, n).unwrap();
            }
            Op::FreeTail(pid, n) if reference => {
                let len = resident(mm, pid);
                for g in tail(mm, pid, len.saturating_sub(n)) {
                    mm.free_anon_page(pid, g).unwrap();
                }
            }
            Op::FreeTail(pid, n) => {
                mm.free_anon_tail(pid, n).unwrap();
            }
            Op::Exit(pid) => {
                mm.exit_process(pid).unwrap();
            }
            Op::DropAnon(pid) => {
                mm.drop_anon(pid).unwrap();
            }
            Op::DropFile(f) => {
                let _ = mm.drop_file(f);
            }
            Op::SwapOut(pid, n) => return Effect::SwappedOut(mm.swap_out_anon(pid, n).unwrap()),
            Op::SwapIn(pid, n) => {
                let before = resident(mm, pid);
                return Effect::Appended(match mm.swap_in_anon(pid, n) {
                    Ok(pages) => pages,
                    Err(_) => tail(mm, pid, before),
                });
            }
            Op::Pin => {
                let _ = mm.alloc_unmovable();
            }
            Op::Online(blk, z) => mm.online_block(blk, z).unwrap(),
            Op::Plug(blk, z) => mm.hot_add_online_block(blk, z).unwrap(),
            Op::InstantOffline(blk) => {
                let out = if reference {
                    mm.offline_blocks_instant_per_block(&[blk])
                } else {
                    mm.offline_blocks_instant(&[blk])
                };
                if out.is_ok() {
                    mm.hot_remove_block(blk).unwrap();
                }
                return Effect::Offline(out.map_err(|error| OfflineFailure {
                    error,
                    partial: OfflineOutcome::default(),
                }));
            }
            Op::Offline(blk) => {
                return Effect::Offline(if reference {
                    mm.offline_block_per_page(blk, log)
                } else {
                    mm.offline_block(blk)
                })
            }
        }
        Effect::None
    }

    /// Replays `op`'s effect on the reference orders; returns whether a
    /// migration target took a slot inside its owner's order.
    fn replay(orders: &mut Orders, op: Op, effect: &Effect, log: &[Moved]) -> bool {
        fn proc(orders: &mut Orders, pid: Pid) -> &mut Vec<Gfn> {
            orders.of(PageState::Anon, pid.0)
        }
        match (op, effect) {
            (Op::Anon(pid, _) | Op::Huge(pid, _) | Op::SwapIn(pid, _), Effect::Appended(v)) => {
                proc(orders, pid).extend(v)
            }
            (Op::File(f, _), Effect::Appended(v)) => orders.of(PageState::File, f.0).extend(v),
            (Op::Punch(pid, g), _) => {
                let v = proc(orders, pid);
                let i = v
                    .iter()
                    .position(|&x| x == g)
                    .expect("punched page is owned");
                v.swap_remove(i);
            }
            (Op::FreeAnon(pid, n) | Op::FreeTail(pid, n), _) => {
                let v = proc(orders, pid);
                v.truncate(v.len().saturating_sub(n as usize));
            }
            (Op::Exit(pid), _) => {
                orders.0.remove(&(PageState::Anon as u8, pid.0));
            }
            (Op::DropAnon(pid), _) => proc(orders, pid).clear(),
            (Op::DropFile(f), _) => {
                orders.0.remove(&(PageState::File as u8, f.0));
            }
            (Op::SwapOut(pid, _), Effect::SwappedOut(victims)) => {
                let v = proc(orders, pid);
                assert_eq!(victims[..], v[..victims.len()], "swap-out takes the front");
                v.drain(..victims.len());
            }
            (Op::Offline(_), _) => return orders.replay(log),
            _ => {}
        }
        false
    }

    /// Which code paths the randomized guests reached.
    #[derive(Default, Debug)]
    struct Coverage {
        migrated: bool,
        file_migrated: bool,
        cross_zone: bool,
        oom_mid_run: bool,
        pinned: bool,
        huge_whole: bool,
        huge_split: bool,
        instant: bool,
        replugged: bool,
        punch_split: bool,
        mid_order: bool,
        swap_in: bool,
        multi_run_tail: bool,
        /// A migration's source run was shorter than the smallest free
        /// target chunk, so its targets were cut from that chunk's front.
        split_target: bool,
        /// A target run of an offline reused the handle of a source run
        /// that migrated whole, so that run's stale extent named a live
        /// run.
        handle_reused: bool,
        /// An offline ran out of targets after a whole source run and
        /// the front of another had moved, so its rollback isolated both.
        rollback_after_full_run: bool,
    }

    /// Drives two identical guests through one seeded random history,
    /// offlining and freeing process tails with the run-based path on
    /// one and the per-page reference on the other. Both guests' page
    /// orders are checked against the reference orders after every
    /// operation, and the guests against each other after every
    /// offline, tail free or plug (instant offlines and plugs take the
    /// same path on both).
    fn run_twins(seed: u64, cov: &mut Coverage) {
        let config = GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: 768 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: seed.is_multiple_of(2),
        };
        let (mut a, mut b) = (GuestMm::new(config), GuestMm::new(config));
        a.unplug_aware_zeroing_skip = seed % 4 == 3;
        b.unplug_aware_zeroing_skip = a.unplug_aware_zeroing_skip;
        // Hot-plug blocks 2..8; every third seed carves a partition zone
        // out of the last two, whose migrations fall back across zones.
        let partition = FrameRange::new(Gfn(6 * PAGES_PER_BLOCK), 2 * PAGES_PER_BLOCK);
        let part = seed.is_multiple_of(3).then(|| {
            let kind = ZoneKind::SqueezyPrivate { partition: 0 };
            b.create_zone(kind, partition);
            a.create_zone(kind, partition)
        });
        let zone_for = |blk: u64| match part {
            Some(z) if blk >= 6 => z,
            _ => ZONE_MOVABLE,
        };
        for blk in 2..8 {
            for mm in [&mut a, &mut b] {
                mm.hot_add_block(BlockId(blk)).unwrap();
                mm.online_block(BlockId(blk), zone_for(blk)).unwrap();
            }
        }

        let mut orders = Orders::default();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for step in 0..120 {
            let pids: Vec<Pid> = {
                let mut v: Vec<Pid> = a.procs.keys().map(|&p| Pid(p)).collect();
                v.sort();
                v
            };
            let pid = (!pids.is_empty()).then(|| pids[rnd(pids.len() as u64) as usize]);
            let op = match (rnd(100), pid) {
                (0..=5, _) | (_, None) => Op::Spawn(match part {
                    Some(z) if rnd(2) == 0 => AllocPolicy::PinnedZone(z),
                    _ => AllocPolicy::MovableDefault,
                }),
                (6..=35, Some(p)) => Op::Anon(p, 1 + rnd(600)),
                (36..=41, Some(p)) => Op::Huge(p, 1 + rnd(3)),
                (42..=49, _) => {
                    let f = FileId(rnd(3) as u32);
                    let have = a.file(f).map_or(0, |c| c.resident_pages());
                    Op::File(f, have + 1 + rnd(400))
                }
                (50..=59, Some(p)) => match a.process(p).unwrap().base.len() {
                    0 => Op::Anon(p, 1 + rnd(50)),
                    n => Op::Punch(
                        p,
                        a.process(p).unwrap().pages().nth(rnd(n) as usize).unwrap(),
                    ),
                },
                (60, Some(p)) => Op::FreeAnon(p, 1 + rnd(300)),
                (61, Some(p)) => Op::FreeTail(p, 1 + rnd(300)),
                (62..=63, Some(p)) => Op::Exit(p),
                (64, Some(p)) => match rnd(2) {
                    0 => Op::DropAnon(p),
                    _ => Op::DropFile(FileId(rnd(3) as u32)),
                },
                (65..=66, Some(p)) => Op::SwapOut(p, rnd(100)),
                (67..=68, Some(p)) => Op::SwapIn(p, 1 + rnd(100)),
                (69, _) => Op::Pin,
                (70..=73, Some(p)) => {
                    // Fill memory to within a few hundred pages so a later
                    // offline runs out of targets part-way (or, below 512,
                    // must split its huge pages).
                    Op::Anon(p, (a.free_bytes() / PAGE_SIZE).saturating_sub(rnd(2000)))
                }
                _ => {
                    let pick =
                        |want: fn(BlockState, &blocks::BlockCounters) -> bool| -> Vec<BlockId> {
                            (2..8)
                                .map(BlockId)
                                .filter(|&blk| want(a.blocks.state(blk), a.blocks.counters(blk)))
                                .collect()
                        };
                    let offline = pick(|s, _| s == BlockState::AddedOffline);
                    let absent = pick(|s, _| s == BlockState::Absent);
                    let empty = pick(|s, c| {
                        matches!(s, BlockState::Online { .. })
                            && c.used_movable + c.used_unmovable == 0
                    });
                    // 60 is a multiple of every list length (at most 6).
                    let (arm, k) = (rnd(6), rnd(60) as usize);
                    let any = |v: &[BlockId]| v[k % v.len()];
                    match arm {
                        0 | 1 if !offline.is_empty() => {
                            let blk = any(&offline);
                            Op::Online(blk, zone_for(blk.0))
                        }
                        2 if !absent.is_empty() => {
                            let blk = any(&absent);
                            Op::Plug(blk, zone_for(blk.0))
                        }
                        3 if !empty.is_empty() => Op::InstantOffline(any(&empty)),
                        _ => Op::Offline(BlockId(rnd(8))),
                    }
                }
            };

            let before = match op {
                Op::Offline(blk) => {
                    let c = a.blocks.counters(blk);
                    let own_free = match a.blocks.state(blk) {
                        BlockState::Online { zone } => a.zone(zone).free_pages - c.free as u64,
                        _ => 0,
                    };
                    let files = a
                        .memmap
                        .count_in(blk.frames(), |d| d.state == PageState::File);
                    let sources: Vec<(FrameRange, Owner, u32)> = a
                        .memmap
                        .extents(blk)
                        .filter(|(_, d)| matches!(d.state, PageState::Anon | PageState::File))
                        .map(|(r, d)| (r, (d.state as u8, d.a), d.b))
                        .collect();
                    Some((blk, own_free, files, sources))
                }
                Op::Punch(p, g) => {
                    let run = a.procs[&p.0].base.run(a.memmap.page(g).b);
                    cov.punch_split |= g != run.start && g.0 + 1 != run.end().0;
                    None
                }
                Op::FreeTail(p, n) => {
                    let last = a.procs[&p.0].base.runs().last();
                    cov.multi_run_tail |= last.is_some_and(|r| r.count < n);
                    None
                }
                _ => None,
            };
            let offlined = a.stats.blocks_offlined > 0;
            let split_runs = |mm: &GuestMm| mm.zones.iter().map(|z| z.split_runs).sum::<u64>();
            let splits = split_runs(&a);
            let mut log = Vec::new();
            let got = apply(&mut a, op, false, &mut Vec::new());
            let want = apply(&mut b, op, true, &mut log);
            assert_eq!(got, want, "seed {seed}: {op:?}");
            if let Op::Spawn(_) = op {
                orders.of(PageState::Anon, *a.procs.keys().max().unwrap());
            }
            cov.mid_order |= replay(&mut orders, op, &got, &log);
            cov.swap_in |=
                matches!((op, &got), (Op::SwapIn(..), Effect::Appended(v)) if !v.is_empty());
            // An offline moves any owner's pages; every other operation
            // changes at most the one owner it names.
            let ctx = format!("seed {seed} step {step}: {op:?}");
            let touched = match op {
                Op::Spawn(_) => Some((PageState::Anon, *a.procs.keys().max().unwrap())),
                Op::Anon(p, _)
                | Op::Huge(p, _)
                | Op::Punch(p, _)
                | Op::FreeAnon(p, _)
                | Op::FreeTail(p, _)
                | Op::Exit(p)
                | Op::DropAnon(p)
                | Op::SwapOut(p, _)
                | Op::SwapIn(p, _) => Some((PageState::Anon, p.0)),
                Op::File(f, _) | Op::DropFile(f) => Some((PageState::File, f.0)),
                _ => None,
            };
            for mm in [&a, &b] {
                match (op, touched) {
                    (Op::Offline(_), _) => orders.assert_held_by(mm, &ctx),
                    (_, Some((state, id))) => orders.assert_owner(mm, (state as u8, id), &ctx),
                    _ => {}
                }
            }
            match (op, &got) {
                (Op::Plug(..), _) => {
                    cov.replugged |= offlined;
                    assert_twins(&a, &b);
                }
                (Op::InstantOffline(_), Effect::Offline(out)) => {
                    cov.instant |= out.is_ok();
                    assert_twins(&a, &b);
                }
                (Op::FreeTail(..), _) => assert_twins(&a, &b),
                _ => {}
            }
            if let (Effect::Offline(out), Some((blk, own_free, files, sources))) = (&got, before) {
                let migrated = match out {
                    Ok(o) => {
                        cov.huge_whole |= o.migrated_huge > 0;
                        cov.huge_split |= o.huge_splits > 0;
                        o.migrated
                    }
                    Err(f) => {
                        cov.huge_split |= f.partial.huge_splits > 0;
                        cov.pinned |= f.error == MmError::BlockPinned;
                        cov.oom_mid_run |=
                            f.error == MmError::OutOfMemory && f.partial.migrated > 0;
                        f.partial.migrated
                    }
                };
                cov.migrated |= migrated > 0;
                cov.file_migrated |= migrated > 0 && files > 0;
                cov.cross_zone |= migrated > own_free;
                // During an offline only base-page migrations allocate runs.
                cov.split_target |= split_runs(&a) > splits;
                // A source run's handle now names a run outside the block.
                cov.handle_reused |= sources.iter().any(|&(_, k, h)| {
                    a.owners().any(|o| o == k)
                        && a.owned(k)
                            .handles()
                            .any(|(x, r)| x == h && r.start.block() != blk)
                });
                if matches!(out, Err(f) if f.error == MmError::OutOfMemory) {
                    let used = |r| a.memmap.count_in(r, |d| d.state.is_used());
                    let whole = sources.iter().any(|&(r, ..)| used(r) == 0);
                    let front = sources
                        .iter()
                        .any(|&(r, ..)| !a.memmap.state(r.start).is_used() && used(r) > 0);
                    cov.rollback_after_full_run |= whole && front;
                }
                assert_twins(&a, &b);
            }
        }
        assert_twins(&a, &b);
        a.assert_consistent();
        b.assert_consistent();
    }

    #[test]
    fn run_based_offline_matches_per_page_reference() {
        run_seeds(0..12);
    }

    /// The twin run over many more seeds, for release builds:
    /// `cargo test --release -p guest-mm -- --ignored`.
    #[test]
    #[ignore = "slow; run in release"]
    fn run_based_offline_matches_per_page_reference_many_seeds() {
        run_seeds(0..96);
    }

    /// Runs the twins over `seeds` and asserts that the randomized
    /// guests reached every path.
    fn run_seeds(seeds: std::ops::Range<u64>) {
        let mut cov = Coverage::default();
        for seed in seeds {
            run_twins(seed, &mut cov);
        }
        let Coverage {
            migrated,
            file_migrated,
            cross_zone,
            oom_mid_run,
            pinned,
            huge_whole,
            huge_split,
            instant,
            replugged,
            punch_split,
            mid_order,
            swap_in,
            multi_run_tail,
            split_target,
            handle_reused,
            rollback_after_full_run,
        } = cov;
        assert!(
            migrated
                && file_migrated
                && cross_zone
                && oom_mid_run
                && pinned
                && huge_whole
                && huge_split
                && instant
                && replugged
                && punch_split
                && mid_order
                && swap_in
                && multi_run_tail
                && split_target
                && handle_reused
                && rollback_after_full_run,
            "randomized guests missed a path: {cov:?}"
        );
    }

    /// Twin guests with two two-block partition zones (blocks 4–5 and
    /// 6–7), each zone's free lists scrambled by pinned processes that
    /// fault and free in random order and then exit.
    fn scrambled_partitions(seed: u64) -> (GuestMm, GuestMm, [u8; 2]) {
        let config = GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: 768 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: seed.is_multiple_of(2),
        };
        let (mut a, mut b) = (GuestMm::new(config), GuestMm::new(config));
        let mut zones = [0; 2];
        for (i, z) in zones.iter_mut().enumerate() {
            let span = FrameRange::new(
                Gfn((4 + 2 * i as u64) * PAGES_PER_BLOCK),
                2 * PAGES_PER_BLOCK,
            );
            let kind = ZoneKind::SqueezyPrivate {
                partition: i as u32,
            };
            for mm in [&mut a, &mut b] {
                *z = mm.create_zone(kind, span);
                for blk in span.start.block().0..span.end().block().0 {
                    mm.hot_add_online_block(BlockId(blk), *z).unwrap();
                }
            }
        }
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for mm in [&mut a, &mut b] {
            mm.unplug_aware_zeroing_skip = seed % 4 == 3;
        }
        let mut pids: Vec<Pid> = Vec::new();
        for _ in 0..400 {
            let op = rnd(8);
            if pids.is_empty() || op == 0 {
                let z = zones[rnd(2) as usize];
                let pid = a.spawn_process(AllocPolicy::PinnedZone(z));
                assert_eq!(b.spawn_process(AllocPolicy::PinnedZone(z)), pid);
                pids.push(pid);
                continue;
            }
            let i = rnd(pids.len() as u64) as usize;
            let pid = pids[i];
            let rss = a.process(pid).unwrap().rss_pages();
            let cap = 1 + rnd(4096);
            let n = 1 + rnd(cap);
            for mm in [&mut a, &mut b] {
                match op {
                    1..=3 => {
                        let _ = mm.fault_anon(pid, n);
                    }
                    4 => {
                        mm.free_anon(pid, n.min(rss)).unwrap();
                    }
                    5 => {
                        mm.free_anon_tail(pid, n.min(rss)).unwrap();
                    }
                    6 => {
                        let g = mm
                            .process(pid)
                            .unwrap()
                            .pages()
                            .nth((n % rss.max(1)) as usize);
                        if let Some(g) = g {
                            mm.free_anon_page(pid, g).unwrap();
                        }
                    }
                    _ => {
                        mm.exit_process(pid).unwrap();
                    }
                }
            }
            if op == 7 {
                pids.swap_remove(i);
            }
        }
        for pid in pids {
            a.exit_process(pid).unwrap();
            b.exit_process(pid).unwrap();
        }
        assert_twins(&a, &b);
        (a, b, zones)
    }

    /// Instantly offlines `batch` in both twins, the first through the
    /// batch path and the second a block at a time; compares them,
    /// re-plugs the blocks and compares again, free lists in list order
    /// included. Returns how many zones the batch emptied whole.
    fn batch_twins(seed: u64, batch: &[BlockId]) -> u64 {
        let (mut a, mut b, _) = scrambled_partitions(seed);
        let zones: Vec<u8> = batch
            .iter()
            .map(|&blk| match a.blocks.state(blk) {
                BlockState::Online { zone } => zone,
                s => panic!("block {blk:?} is {s:?}"),
            })
            .collect();
        let emptied = |mm: &GuestMm| mm.zones.iter().map(|z| z.lists_emptied).sum::<u64>();
        let before = emptied(&a);
        assert_eq!(
            a.offline_blocks_instant(batch),
            b.offline_blocks_instant_per_block(batch)
        );
        let whole = emptied(&a) - before;
        for mm in [&mut a, &mut b] {
            for &blk in batch {
                mm.hot_remove_block(blk).unwrap();
            }
        }
        assert_twins(&a, &b);
        for mm in [&mut a, &mut b] {
            for (&blk, &z) in batch.iter().zip(&zones) {
                mm.hot_add_online_block(blk, z).unwrap();
            }
            mm.assert_consistent();
        }
        assert_twins(&a, &b);
        whole
    }

    /// The whole-zone path of a batch instant offline leaves the state
    /// a block-at-a-time offline does, and a batch that is not whole
    /// zones takes the fallback.
    #[test]
    fn whole_zone_instant_offline_matches_per_block() {
        let [b4, b5, b6, b7] = [4, 5, 6, 7].map(BlockId);
        for seed in 0..4 {
            // One partition, and two in one batch.
            assert_eq!(batch_twins(seed, &[b4, b5]), 1, "seed {seed}");
            assert_eq!(batch_twins(seed, &[b5, b4, b6, b7]), 2, "seed {seed}");
            // Half a partition: the fallback.
            assert_eq!(batch_twins(seed, &[b5]), 0, "seed {seed}");
            // Interleaved zones: runs of one block, the first of each
            // zone a fallback and the second then its zone's last.
            assert_eq!(batch_twins(seed, &[b4, b6, b5, b7]), 2, "seed {seed}");
        }
    }

    /// A batch with a used, offline or repeated block fails before it
    /// offlines any block.
    #[test]
    fn a_failed_batch_instant_offline_changes_nothing() {
        let (mut a, mut b, [z, _]) = scrambled_partitions(1);
        let mut pid = Pid(0);
        for mm in [&mut a, &mut b] {
            pid = mm.spawn_process(AllocPolicy::PinnedZone(z));
            mm.fault_anon(pid, 1).unwrap();
        }
        let used = a.process(pid).unwrap().pages().next().unwrap().block();
        let other = BlockId(9 - used.0);
        assert_eq!(
            a.offline_blocks_instant(&[other, used]),
            Err(MmError::BlockNotEmpty)
        );
        assert_twins(&a, &b);
        for mm in [&mut a, &mut b] {
            mm.exit_process(pid).unwrap();
        }
        for batch in [&[BlockId(4), BlockId(4)][..], &[BlockId(5), BlockId(3)]] {
            assert_eq!(a.offline_blocks_instant(batch), Err(MmError::BadBlockState));
        }
        assert_twins(&a, &b);
    }

    /// Boot claims the kernel a buddy run at a time; the pages, their
    /// order and the buddy state equal per-page order-0 claims.
    #[test]
    fn kernel_runs_match_per_page_claims() {
        let config = GuestMmConfig {
            boot_bytes: 512 * MIB,
            hotplug_bytes: 0,
            kernel_bytes: 300 * MIB + 12 * PAGE_SIZE,
            init_on_alloc: true,
        };
        let runs = GuestMm::new(config);
        let mut pages = GuestMm::new(GuestMmConfig {
            kernel_bytes: 0,
            ..config
        });
        let mut want = Vec::new();
        for _ in 0..bytes_to_pages(config.kernel_bytes) {
            let (g, zone) = pages.alloc_from_zonelist(&[ZONE_NORMAL]).unwrap();
            pages.claim_run(g, 1, zone, PageState::Kernel, 0, 0);
            want.push(g);
        }
        let got: Vec<Gfn> = runs.kernel_pages().iter().flat_map(|r| r.iter()).collect();
        assert_eq!(got, want);
        // Boot hands the kernel whole MAX_ORDER chunks.
        let chunks = bytes_to_pages(config.kernel_bytes).div_ceil(1 << MAX_ORDER);
        assert_eq!(runs.kernel_pages().len() as u64, chunks);
        for (za, zb) in runs.zones.iter().zip(&pages.zones) {
            for o in 0..=MAX_ORDER {
                assert_eq!(
                    za.free_list(&runs.memmap, o),
                    zb.free_list(&pages.memmap, o)
                );
            }
        }
        for i in 0..runs.blocks.len() {
            let blk = BlockId(i);
            assert_eq!(runs.blocks.counters(blk), pages.blocks.counters(blk));
        }
        runs.assert_consistent();
    }

    /// `free_anon` frees a run at a time, last page first; the buddy
    /// state, down to list order, equals popping and freeing one page
    /// at a time.
    #[test]
    fn free_anon_by_runs_matches_per_page_pops() {
        let config = GuestMmConfig {
            boot_bytes: 256 * MIB,
            hotplug_bytes: 256 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        };
        let (mut runs, mut pages) = (GuestMm::new(config), GuestMm::new(config));
        let mut x = 0x5151_7A7Au64;
        let mut rnd = move |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) % n
        };
        for mm in [&mut runs, &mut pages] {
            mm.hot_add_online_block(BlockId(2), ZONE_MOVABLE).unwrap();
        }
        let pids: Vec<Pid> = (0..3)
            .map(|_| {
                pages.spawn_process(AllocPolicy::MovableDefault);
                runs.spawn_process(AllocPolicy::MovableDefault)
            })
            .collect();
        for step in 0..200 {
            let pid = pids[rnd(3) as usize];
            if rnd(3) == 0 {
                let n = 1 + rnd(700);
                assert_eq!(
                    runs.fault_anon(pid, n),
                    pages.fault_anon(pid, n),
                    "step {step}"
                );
                continue;
            }
            let n = 1 + rnd(500);
            let freed = runs.free_anon(pid, n).unwrap();
            let mut popped = 0;
            while popped < n {
                let Some(g) = pages.procs.get_mut(&pid.0).unwrap().base.pop_back(1) else {
                    break;
                };
                pages.release_used_run(g);
                popped += 1;
            }
            assert_eq!(freed, popped, "step {step}");
            for (za, zb) in runs.zones.iter().zip(&pages.zones) {
                for o in 0..=MAX_ORDER {
                    assert_eq!(
                        za.free_list(&runs.memmap, o),
                        zb.free_list(&pages.memmap, o),
                        "step {step}: zone {} order {o}",
                        za.id
                    );
                }
            }
        }
        runs.assert_consistent();
        pages.assert_consistent();
    }
}
