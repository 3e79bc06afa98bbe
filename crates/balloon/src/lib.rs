//! A virtio-balloon driver model.
//!
//! Ballooning is the state-of-practice VM memory elasticity interface the
//! paper baselines against (§2.2): a guest driver allocates (inflates)
//! guest pages and reports their frame numbers to the hypervisor, which
//! releases them to the host. The interface works at *page granularity* —
//! pfns travel in 256-entry descriptor arrays, and the host releases each
//! page individually — which is why serving VM exits dominates its
//! latency (81 % on average in Figure 5).
//!
//! Inflated pages are pinned, unmovable allocations: they fragment the
//! guest and pin memory blocks, one of the documented pathologies of
//! ballooning [21, 30, 47].

pub mod reporting;

use guest_mm::{GuestMm, MmError};
use mem_types::{Gfn, PAGE_SIZE};
use sim_core::{CostModel, LatencyBreakdown, SimDuration};

pub use reporting::{FreePageReporter, ReportingCycle, ReportingStats, DEFAULT_REPORT_ORDER};

/// Report of an inflate or deflate operation.
#[derive(Clone, Debug, Default)]
pub struct BalloonReport {
    /// Pages moved into (inflate) or out of (deflate) the balloon.
    pub pages: u64,
    /// Latency in Figure-5 buckets: host-side per-page release is charged
    /// to `vmexits` (the paper's attribution), guest allocation to `rest`.
    pub breakdown: LatencyBreakdown,
    /// Guest-side CPU time (driver thread allocating and queueing pfns).
    pub guest_cpu: SimDuration,
    /// Host-side CPU time (exit handling, per-page release).
    pub host_cpu: SimDuration,
    /// VM exits taken (one per pfn descriptor array).
    pub exits: u64,
}

impl BalloonReport {
    /// Bytes covered by this operation.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// Total wall latency when run unconstrained.
    pub fn latency(&self) -> SimDuration {
        self.breakdown.total()
    }
}

/// Cumulative balloon statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalloonStats {
    /// Total pages ever inflated.
    pub inflated_pages: u64,
    /// Total pages ever deflated.
    pub deflated_pages: u64,
    /// Total VM exits taken.
    pub exits: u64,
}

/// The guest balloon driver.
pub struct BalloonDevice {
    /// Pages currently held by the balloon (released to the host).
    held: Vec<Gfn>,
    stats: BalloonStats,
}

impl Default for BalloonDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl BalloonDevice {
    /// Creates an empty (deflated) balloon.
    pub fn new() -> Self {
        BalloonDevice {
            held: Vec::new(),
            stats: BalloonStats::default(),
        }
    }

    /// Returns the ballooned size in bytes.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> u64 {
        self.held.len() as u64 * PAGE_SIZE
    }

    /// Returns the pages currently held (host has released their backing).
    pub fn held_pages(&self) -> &[Gfn] {
        &self.held
    }

    /// Returns the statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &BalloonStats {
        &self.stats
    }

    /// Inflates the balloon by `bytes` (page-aligned): allocates guest
    /// pages and reports them to the host for release.
    ///
    /// On partial allocation failure the balloon keeps what it got and
    /// returns `Ok` with the smaller page count — real balloon drivers
    /// simply stop inflating when the guest runs dry.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not page-aligned.
    pub fn inflate(
        &mut self,
        guest: &mut GuestMm,
        bytes: u64,
        cost: &CostModel,
    ) -> Result<BalloonReport, MmError> {
        let want = mem_types::bytes_to_pages(bytes);
        let mut report = BalloonReport::default();
        for _ in 0..want {
            match guest.alloc_unmovable() {
                Ok(g) => {
                    self.held.push(g);
                    report.pages += 1;
                }
                Err(MmError::OutOfMemory) => break,
                Err(e) => return Err(e),
            }
        }
        // Guest driver work: allocate + queue each pfn.
        let guest_work = SimDuration::nanos(cost.balloon_guest_page_ns * report.pages);
        report.breakdown.rest += guest_work;
        report.guest_cpu += guest_work;
        // One exit per full descriptor array; host releases each page.
        report.exits = report.pages.div_ceil(cost.balloon_pages_per_desc);
        let exit_time = SimDuration::nanos(
            cost.vmexit_ns * report.exits + cost.balloon_host_page_ns * report.pages,
        );
        report.breakdown.vmexits += exit_time;
        report.host_cpu += exit_time;
        self.stats.inflated_pages += report.pages;
        self.stats.exits += report.exits;
        Ok(report)
    }

    /// Deflates the balloon by `bytes` (page-aligned), returning pages to
    /// the guest. The host re-populates backing lazily on next touch.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not page-aligned.
    pub fn deflate(&mut self, guest: &mut GuestMm, bytes: u64, cost: &CostModel) -> BalloonReport {
        let want = mem_types::bytes_to_pages(bytes).min(self.held.len() as u64);
        let mut report = BalloonReport {
            pages: want,
            ..BalloonReport::default()
        };
        for _ in 0..want {
            let g = self.held.pop().expect("count checked");
            guest.free_unmovable(g);
        }
        let guest_work = SimDuration::nanos(cost.balloon_guest_page_ns * want / 2);
        report.breakdown.rest += guest_work;
        report.guest_cpu += guest_work;
        report.exits = want.div_ceil(cost.balloon_pages_per_desc);
        let exit_time = SimDuration::nanos(cost.vmexit_ns * report.exits);
        report.breakdown.vmexits += exit_time;
        report.host_cpu += exit_time;
        self.stats.deflated_pages += want;
        self.stats.exits += report.exits;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::GuestMmConfig;
    use mem_types::MIB;

    fn guest() -> GuestMm {
        GuestMm::new(GuestMmConfig {
            boot_bytes: 512 * MIB,
            hotplug_bytes: 128 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        })
    }

    #[test]
    fn inflate_reclaims_guest_memory() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        let free0 = g.free_bytes();
        let r = b.inflate(&mut g, 128 * MIB, &cost).unwrap();
        assert_eq!(r.pages, 128 * MIB / PAGE_SIZE);
        assert_eq!(b.held_bytes(), 128 * MIB);
        assert_eq!(g.free_bytes(), free0 - 128 * MIB);
        assert!(r.exits > 0);
        g.assert_consistent();
    }

    #[test]
    fn vmexits_dominate_inflate_latency() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        let r = b.inflate(&mut g, 256 * MIB, &cost).unwrap();
        let f = r.breakdown.fractions();
        // Paper: 81 % of balloon latency is serving VM exits.
        assert!(
            f[2] > 0.7 && f[2] < 0.9,
            "vmexit fraction {:.2} outside expected band",
            f[2]
        );
    }

    #[test]
    fn deflate_returns_pages() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        b.inflate(&mut g, 64 * MIB, &cost).unwrap();
        let free_after_inflate = g.free_bytes();
        let r = b.deflate(&mut g, 32 * MIB, &cost);
        assert_eq!(r.pages, 32 * MIB / PAGE_SIZE);
        assert_eq!(b.held_bytes(), 32 * MIB);
        assert_eq!(g.free_bytes(), free_after_inflate + 32 * MIB);
        g.assert_consistent();
    }

    #[test]
    fn deflate_caps_at_held_size() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        b.inflate(&mut g, 16 * MIB, &cost).unwrap();
        let r = b.deflate(&mut g, 64 * MIB, &cost);
        assert_eq!(r.bytes(), 16 * MIB);
        assert_eq!(b.held_bytes(), 0);
    }

    #[test]
    fn inflate_stops_at_guest_exhaustion() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        // Ask for more than the guest has.
        let r = b.inflate(&mut g, 1024 * MIB, &cost).unwrap();
        assert!(r.bytes() < 1024 * MIB);
        assert_eq!(g.free_bytes(), 0);
        g.assert_consistent();
    }

    #[test]
    fn inflated_pages_pin_blocks() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        b.inflate(&mut g, 64 * MIB, &cost).unwrap();
        // Some block now holds unmovable balloon pages.
        let pinned = (0..g.blocks().len())
            .map(mem_types::BlockId)
            .filter(|&blk| g.blocks().counters(blk).used_unmovable > 0)
            .count();
        assert!(pinned > 0, "balloon pages pin at least one block");
    }

    #[test]
    fn stats_accumulate() {
        let mut g = guest();
        let mut b = BalloonDevice::new();
        let cost = CostModel::default();
        b.inflate(&mut g, 32 * MIB, &cost).unwrap();
        b.deflate(&mut g, 32 * MIB, &cost);
        assert_eq!(b.stats().inflated_pages, 32 * MIB / PAGE_SIZE);
        assert_eq!(b.stats().deflated_pages, 32 * MIB / PAGE_SIZE);
        assert!(b.stats().exits >= 2);
    }
}
