//! The calibrated cost model.
//!
//! Every nanosecond the simulator charges comes from a named constant in
//! [`CostModel`]. The defaults are calibrated so that the microbenchmark
//! experiments land on the absolute numbers the paper reports on its Xeon
//! E5-2630 testbed (§6.1): balloon ≈ 5-6 s, virtio-mem ≈ 2.5 s and Squeezy
//! ≈ 127 ms when reclaiming 2 GiB, with virtio-mem's latency split ≈ 61.5 %
//! migration / 24 % zeroing. The `repro` sections that reproduce those
//! figures print the model's values next to the paper's (see the
//! README's "Reproducing the paper"); nothing else in the workspace
//! hard-codes a duration.

use crate::time::SimDuration;

/// Calibrated per-operation costs (all in nanoseconds unless noted).
#[derive(Clone, Debug)]
pub struct CostModel {
    // --- Generic virtualization costs -----------------------------------
    /// Base cost of a VM exit round trip (world switch + host dispatch).
    pub vmexit_ns: u64,
    /// Host-side cost to handle a nested (EPT) page fault and back a fresh
    /// 4 KiB guest page with host memory. Dominates the cold-start tax of
    /// dynamically resized VMs (§6.2.1: 3-35 % slower cold starts).
    pub ept_fault_4k_ns: u64,
    /// Host-side cost to handle a nested fault backing a whole 2 MiB huge
    /// page (THP on the host, §5.1): one exit amortized over 512 base
    /// pages, which is why the paper's testbed enables THP.
    pub ept_fault_2m_ns: u64,
    /// Guest-side cost of a minor page fault that hits already-backed
    /// memory (buddy allocation + page-table update).
    pub guest_minor_fault_ns: u64,

    // --- Guest kernel memory-management costs ---------------------------
    /// Zeroing one 4 KiB page (`init_on_alloc=1` hardening, §2.2): the
    /// calibrated ~3.5 GiB/s the paper's zeroing share implies.
    pub zero_page_ns: u64,
    /// Migrating one occupied 4 KiB page during offlining: target
    /// allocation, copy, remap and TLB shootdown share.
    pub migrate_page_ns: u64,
    /// Migrating one 2 MiB huge page as a unit: one 2 MiB copy plus a
    /// single remap — far cheaper than 512 base-page migrations.
    pub migrate_huge_page_ns: u64,
    /// Splitting a huge page into base pages before migration (PMD
    /// unmap, per-page remap setup) when no order-9 target exists.
    pub huge_split_ns: u64,
    /// Per-page scan/isolate work while offlining a block (LRU isolation,
    /// pcp drain, movability checks).
    pub offline_scan_page_ns: u64,
    /// Fixed per-block cost of `offline_pages()` bookkeeping (memory
    /// notifier chain, zone span shrink).
    pub offline_block_fixed_ns: u64,
    /// Fixed per-block cost of hot-remove (memmap teardown, sysfs).
    pub hot_remove_block_ns: u64,
    /// Fixed per-block cost of hot-add (memmap init, sysfs).
    pub hot_add_block_ns: u64,
    /// Fixed per-block cost of onlining (releasing pages to the buddy).
    pub online_block_ns: u64,

    // --- virtio-mem device costs -----------------------------------------
    /// Host-side handling of one unplugged 128 MiB block: config update,
    /// `madvise(MADV_DONTNEED)` on the range, response. The paper reports
    /// ~3 ms per 128 MiB chunk (§8).
    pub virtio_block_exit_ns: u64,
    /// Fixed latency of a resize request round trip (runtime → VMM →
    /// device config → guest driver wakeup).
    pub resize_request_fixed_ns: u64,

    // --- virtio-balloon costs --------------------------------------------
    /// Number of page-frame numbers per balloon descriptor array (the
    /// virtio-balloon `VIRTIO_BALLOON_ARRAY_PFNS_MAX`).
    pub balloon_pages_per_desc: u64,
    /// Free-page-reporting: ranges per report request (the kernel's
    /// `PAGE_REPORTING_CAPACITY` scatter-gather limit).
    pub fpr_ranges_per_report: u64,
    /// Free-page-reporting: guest cost to isolate, queue and return one
    /// free chunk during a reporting cycle.
    pub fpr_chunk_ns: u64,
    /// Guest-side per-page inflate work (allocate + queue the pfn).
    pub balloon_guest_page_ns: u64,
    /// Host-side per-page release during inflate (leak-page accounting and
    /// per-page `madvise`). Charged to the VM-exit bucket: the paper
    /// attributes 81 % of balloon latency to serving exits.
    pub balloon_host_page_ns: u64,

    // --- Swap-device costs --------------------------------------------------
    /// Writing one 4 KiB page to a disk-backed swap device (batched SSD
    /// writeback share).
    pub swap_out_page_disk_ns: u64,
    /// Major fault reading one 4 KiB page back from disk swap
    /// (synchronous read + fault handling).
    pub swap_in_page_disk_ns: u64,
    /// Compressing one page into a memory-backed (zswap/frontswap)
    /// pool.
    pub swap_compress_page_ns: u64,
    /// Decompressing one page out of the memory-backed pool.
    pub swap_decompress_page_ns: u64,

    // --- Host / VMM costs --------------------------------------------------
    /// Fixed cost of one `madvise(MADV_DONTNEED)` call.
    pub madvise_fixed_ns: u64,
    /// Per-MiB cost of unmapping host pages in `madvise(MADV_DONTNEED)`.
    pub madvise_per_mib_ns: u64,
    /// microVM boot: VMM setup + guest kernel boot + init, before any
    /// container work starts (1:1 model, Figure 11a "VMM cold delays").
    pub microvm_boot_fixed_ns: u64,
    /// Cloning a running N:1 VM (Snowflock-style copy-on-write fork,
    /// the hybrid scaling approach of §7 \[56\]): much cheaper than a
    /// cold boot because guest state is shared CoW with the parent.
    pub vm_clone_fixed_ns: u64,
    /// Reading one MiB of image/dependency data from backing storage on a
    /// page-cache miss (container rootfs pulls, runtime deps).
    pub disk_read_mib_ns: u64,
    /// Touching one MiB of data already resident in the guest page cache.
    pub cached_read_mib_ns: u64,

    // --- Squeezy-specific costs -------------------------------------------
    /// The Squeezy partition-assignment syscall (zonelist scan + lock).
    pub squeezy_syscall_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            vmexit_ns: 1_500,
            ept_fault_4k_ns: 2_200,
            ept_fault_2m_ns: 16_000,
            guest_minor_fault_ns: 750,

            zero_page_ns: 1_120,
            migrate_page_ns: 3_100,
            migrate_huge_page_ns: 230_000,
            huge_split_ns: 30_000,
            offline_scan_page_ns: 200,
            offline_block_fixed_ns: 2_000_000,
            hot_remove_block_ns: 1_500_000,
            hot_add_block_ns: 1_000_000,
            online_block_ns: 800_000,

            virtio_block_exit_ns: 3_000_000,
            resize_request_fixed_ns: 15_000_000,

            balloon_pages_per_desc: 256,
            fpr_ranges_per_report: 32,
            fpr_chunk_ns: 1_600,
            balloon_guest_page_ns: 1_900,
            balloon_host_page_ns: 8_200,

            swap_out_page_disk_ns: 8_000,
            swap_in_page_disk_ns: 26_000,
            swap_compress_page_ns: 2_500,
            swap_decompress_page_ns: 1_500,

            madvise_fixed_ns: 2_000,
            madvise_per_mib_ns: 500,
            microvm_boot_fixed_ns: 380_000_000,
            vm_clone_fixed_ns: 85_000_000,
            disk_read_mib_ns: 1_800_000,
            cached_read_mib_ns: 60_000,

            squeezy_syscall_ns: 4_000,
        }
    }
}

impl CostModel {
    /// Cost to zero `n` pages.
    pub fn zero_pages(&self, n: u64) -> SimDuration {
        SimDuration(self.zero_page_ns * n)
    }

    /// Cost to migrate `n` pages.
    pub fn migrate_pages(&self, n: u64) -> SimDuration {
        SimDuration(self.migrate_page_ns * n)
    }

    /// Cost to fault `n` fresh 4 KiB guest pages whose backing requires a
    /// nested EPT fault each.
    pub fn ept_faults(&self, n: u64) -> SimDuration {
        SimDuration(self.ept_fault_4k_ns * n)
    }

    /// Cost to back `n` huge pages with one 2 MiB nested fault each.
    pub fn ept_faults_huge(&self, n: u64) -> SimDuration {
        SimDuration(self.ept_fault_2m_ns * n)
    }

    /// Cost to migrate `n` huge pages whole, plus splitting `splits`
    /// huge pages whose base pages migrate individually (the base-page
    /// migrations themselves are charged via [`CostModel::migrate_pages`]).
    pub fn migrate_huge(&self, n: u64, splits: u64) -> SimDuration {
        SimDuration(self.migrate_huge_page_ns * n + self.huge_split_ns * splits)
    }

    /// Cost of the host `madvise(MADV_DONTNEED)` releasing `bytes`.
    pub fn madvise(&self, bytes: u64) -> SimDuration {
        SimDuration(self.madvise_fixed_ns + self.madvise_per_mib_ns * (bytes >> 20))
    }
}

/// Where the nanoseconds of a reclamation operation went.
///
/// Mirrors the stacked bars of Figure 5: page zeroing (guest), page
/// migration (guest), serving VM exits (host) and the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Guest time spent zeroing pages.
    pub zeroing: SimDuration,
    /// Guest time spent migrating occupied pages.
    pub migration: SimDuration,
    /// Host time spent serving VM exits (including host-side page release
    /// for ballooning, per the paper's attribution).
    pub vmexits: SimDuration,
    /// Everything else: scans, offline/remove bookkeeping, request fixed
    /// costs.
    pub rest: SimDuration,
}

impl LatencyBreakdown {
    /// Total latency across all buckets.
    pub fn total(&self) -> SimDuration {
        self.zeroing + self.migration + self.vmexits + self.rest
    }

    /// Adds another breakdown bucket-wise.
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.zeroing += other.zeroing;
        self.migration += other.migration;
        self.vmexits += other.vmexits;
        self.rest += other.rest;
    }

    /// Returns each bucket as a fraction of the total (zeroing, migration,
    /// vmexits, rest). Returns zeros for an empty breakdown.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total().as_nanos() as f64;
        if t == 0.0 {
            return [0.0; 4];
        }
        [
            self.zeroing.as_nanos() as f64 / t,
            self.migration.as_nanos() as f64 / t,
            self.vmexits.as_nanos() as f64 / t,
            self.rest.as_nanos() as f64 / t,
        ]
    }

    /// Divides every bucket by `n` (averaging across repeated steps).
    pub fn scale_down(&self, n: u64) -> LatencyBreakdown {
        assert!(n > 0, "cannot average over zero steps");
        LatencyBreakdown {
            zeroing: self.zeroing / n,
            migration: self.migration / n,
            vmexits: self.vmexits / n,
            rest: self.rest / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_matches_calibration_targets() {
        let c = CostModel::default();
        // Zeroing 2 GiB should be in the vicinity of 0.6 s (24 % of the
        // ~2.5 s virtio-mem unplug the paper reports).
        let pages_2g = 2 * 1024 * 1024 * 1024u64 / 4096;
        let z = c.zero_pages(pages_2g);
        assert!(
            (0.5..0.7).contains(&z.as_secs_f64()),
            "zeroing 2 GiB took {z}"
        );
        // Ballooning 2 GiB should be several seconds.
        let balloon = (c.balloon_guest_page_ns + c.balloon_host_page_ns) * pages_2g;
        assert!(balloon > 4_000_000_000, "balloon cost {balloon} ns");
    }

    #[test]
    fn breakdown_total_and_fractions() {
        let b = LatencyBreakdown {
            zeroing: SimDuration::millis(24),
            migration: SimDuration::millis(61),
            vmexits: SimDuration::millis(5),
            rest: SimDuration::millis(10),
        };
        assert_eq!(b.total(), SimDuration::millis(100));
        let f = b.fractions();
        assert!((f[0] - 0.24).abs() < 1e-9);
        assert!((f[1] - 0.61).abs() < 1e-9);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_accumulate_and_scale() {
        let mut acc = LatencyBreakdown::default();
        let step = LatencyBreakdown {
            zeroing: SimDuration::millis(10),
            migration: SimDuration::millis(20),
            vmexits: SimDuration::millis(2),
            rest: SimDuration::millis(4),
        };
        for _ in 0..4 {
            acc.accumulate(&step);
        }
        assert_eq!(acc.total(), SimDuration::millis(144));
        let avg = acc.scale_down(4);
        assert_eq!(avg, step);
    }

    #[test]
    fn empty_breakdown_fractions_are_zero() {
        assert_eq!(LatencyBreakdown::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn huge_costs_beat_base_equivalents() {
        let c = CostModel::default();
        // Backing 2 MiB as one huge fault must be far cheaper than 512
        // base nested faults, but dearer than a single 4 KiB fault.
        assert!(c.ept_fault_2m_ns < 512 * c.ept_fault_4k_ns / 10);
        assert!(c.ept_fault_2m_ns > c.ept_fault_4k_ns);
        // Whole-huge migration beats split + 512 base migrations.
        let whole = c.migrate_huge(1, 0);
        let split = c.migrate_huge(0, 1) + c.migrate_pages(512);
        assert!(whole < split / 3, "whole {whole} vs split {split}");
    }

    #[test]
    fn madvise_scales_with_size() {
        let c = CostModel::default();
        let small = c.madvise(1 << 20);
        let big = c.madvise(128 << 20);
        assert!(big > small);
        assert_eq!(
            big.as_nanos(),
            c.madvise_fixed_ns + 128 * c.madvise_per_mib_ns
        );
    }
}
