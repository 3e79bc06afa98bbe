//! Free page reporting (virtio-balloon `VIRTIO_BALLOON_F_REPORTING`).
//!
//! The modern alternative to inflation that the paper cites among the
//! state-of-practice interfaces \[21\]: the guest periodically scans its
//! buddy free lists for chunks of at least the reporting order
//! (2 MiB by default), queues them to the host in bounded
//! scatter-gather requests, and the host `madvise`s the ranges away.
//! A chunk needs reporting only while its range still has host backing
//! (the kernel's `PageReported` flag plays this role), so an idle guest
//! converges to zero reporting work; reallocating, touching and
//! re-freeing a chunk makes it reportable again.
//!
//! Contrast with the paper's approaches: reporting reclaims *backing*
//! without shrinking the VM (capacity stays plugged), only finds
//! free memory that is contiguous at the reporting order (fragmented
//! frees are invisible), and is asynchronous — convergence takes
//! reporting cycles, not one synchronous operation.

use guest_mm::GuestMm;
use mem_types::{Gfn, PAGE_SIZE};
use sim_core::{CostModel, LatencyBreakdown, SimDuration};

/// Default reporting order: 2 MiB chunks (`pageblock_order`-ish).
pub const DEFAULT_REPORT_ORDER: u8 = 9;

/// Report of one reporting cycle.
#[derive(Clone, Debug, Default)]
pub struct ReportingCycle {
    /// Chunks newly reported this cycle `(head, order)`.
    pub chunks: Vec<(Gfn, u8)>,
    /// Report requests sent (one VM exit each).
    pub requests: u64,
    /// Latency in the usual buckets (scan in `rest`, host handling in
    /// `vmexits`).
    pub breakdown: LatencyBreakdown,
    /// Guest CPU consumed by the scan/isolate/return work.
    pub guest_cpu: SimDuration,
    /// Host CPU consumed serving the report requests.
    pub host_cpu: SimDuration,
}

impl ReportingCycle {
    /// Bytes newly reported this cycle.
    pub fn bytes(&self) -> u64 {
        self.chunks
            .iter()
            .map(|&(_, o)| (1u64 << o) * PAGE_SIZE)
            .sum()
    }

    /// Total wall latency of the cycle when run unconstrained.
    pub fn latency(&self) -> SimDuration {
        self.breakdown.total()
    }
}

/// Cumulative reporting statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReportingStats {
    /// Chunks ever reported.
    pub chunks_reported: u64,
    /// Bytes ever reported.
    pub bytes_reported: u64,
    /// Report requests (VM exits) ever sent.
    pub requests: u64,
    /// Cycles that found nothing new (the idle steady state).
    pub idle_cycles: u64,
}

/// The guest free-page-reporting worker.
pub struct FreePageReporter {
    /// Minimum chunk order worth reporting.
    order: u8,
    stats: ReportingStats,
}

impl FreePageReporter {
    /// Creates a reporter for chunks of at least `order`.
    pub fn new(order: u8) -> Self {
        FreePageReporter {
            order,
            stats: ReportingStats::default(),
        }
    }

    /// Returns the statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &ReportingStats {
        &self.stats
    }

    /// Runs one reporting cycle: scans the buddy for free chunks that
    /// still `need_report` (their range has host backing) and reports
    /// them. Chunks whose backing is already gone are skipped, which is
    /// how the worker converges on an idle guest.
    pub fn cycle(
        &mut self,
        guest: &GuestMm,
        mut needs_report: impl FnMut(Gfn, u8) -> bool,
        cost: &CostModel,
    ) -> ReportingCycle {
        let fresh: Vec<(Gfn, u8)> = guest
            .free_chunks(self.order)
            .into_iter()
            .filter(|&(g, o)| needs_report(g, o))
            .collect();
        let mut cycle = ReportingCycle {
            requests: (fresh.len() as u64).div_ceil(cost.fpr_ranges_per_report),
            ..ReportingCycle::default()
        };
        // Guest work: isolate, queue and return each chunk.
        let scan = SimDuration::nanos(cost.fpr_chunk_ns * fresh.len() as u64);
        cycle.breakdown.rest += scan;
        cycle.guest_cpu += scan;
        // Host work: one exit per request plus a madvise per chunk.
        let mut host = SimDuration::nanos(cost.vmexit_ns * cycle.requests);
        for &(_, o) in &fresh {
            host += cost.madvise((1u64 << o) * PAGE_SIZE);
        }
        cycle.breakdown.vmexits += host;
        cycle.host_cpu += host;

        self.stats.chunks_reported += fresh.len() as u64;
        self.stats.requests += cycle.requests;
        cycle.chunks = fresh;
        self.stats.bytes_reported += cycle.bytes();
        if cycle.chunks.is_empty() {
            self.stats.idle_cycles += 1;
        }
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_mm::{AllocPolicy, GuestMmConfig};
    use mem_types::MIB;
    use std::collections::HashSet;

    fn guest() -> GuestMm {
        GuestMm::new(GuestMmConfig {
            boot_bytes: 512 * MIB,
            hotplug_bytes: 128 * MIB,
            kernel_bytes: 32 * MIB,
            init_on_alloc: true,
        })
    }

    /// A miniature EPT for the unit tests: every frame starts backed;
    /// reported ranges lose their backing.
    struct Backing(HashSet<u64>);

    impl Backing {
        fn all(frames: u64) -> Backing {
            Backing((0..frames).collect())
        }

        fn needs_report(&self, g: Gfn, o: u8) -> bool {
            (g.0..g.0 + (1 << o)).any(|f| self.0.contains(&f))
        }

        fn apply(&mut self, cycle: &ReportingCycle) {
            for &(g, o) in &cycle.chunks {
                for f in g.0..g.0 + (1 << o) {
                    self.0.remove(&f);
                }
            }
        }
    }

    #[test]
    fn first_cycle_reports_free_memory_then_idles() {
        let g = guest();
        let mut fpr = FreePageReporter::new(DEFAULT_REPORT_ORDER);
        let cost = CostModel::default();
        let mut ept = Backing::all(g.memmap().len());
        let c1 = fpr.cycle(&g, |h, o| ept.needs_report(h, o), &cost);
        // Most of the 480 MiB of free boot memory is 2 MiB-contiguous.
        assert!(c1.bytes() > 400 * MIB, "reported {} MiB", c1.bytes() / MIB);
        assert!(c1.requests > 0);
        assert!(c1.latency() > SimDuration::ZERO);
        ept.apply(&c1);
        // Nothing changed: the next cycle is free of charge.
        let c2 = fpr.cycle(&g, |h, o| ept.needs_report(h, o), &cost);
        assert_eq!(c2.bytes(), 0);
        assert_eq!(c2.requests, 0);
        assert_eq!(fpr.stats().idle_cycles, 1);
    }

    #[test]
    fn alloc_free_makes_chunks_reportable_again() {
        let mut g = guest();
        let mut fpr = FreePageReporter::new(DEFAULT_REPORT_ORDER);
        let cost = CostModel::default();
        let mut ept = Backing::all(g.memmap().len());
        let c = fpr.cycle(&g, |h, o| ept.needs_report(h, o), &cost);
        ept.apply(&c);
        // A process uses 64 MiB (touching re-backs the frames) and exits.
        let pid = g.spawn_process(AllocPolicy::MovableDefault);
        let got = g.fault_anon(pid, 64 * MIB / 4096).unwrap();
        for f in &got {
            ept.0.insert(f.0);
        }
        let mid = fpr.cycle(&g, |h, o| ept.needs_report(h, o), &cost);
        assert_eq!(mid.bytes(), 0, "used memory is not reportable");
        g.exit_process(pid).unwrap();
        let after = fpr.cycle(&g, |h, o| ept.needs_report(h, o), &cost);
        assert!(
            after.bytes() >= 64 * MIB,
            "freed chunks re-reported: {} MiB",
            after.bytes() / MIB
        );
    }

    #[test]
    fn fragmented_frees_are_invisible() {
        let mut g = guest();
        let mut fpr = FreePageReporter::new(DEFAULT_REPORT_ORDER);
        let cost = CostModel::default();
        // Fill everything, then punch single-page holes: lots of free
        // memory, none of it 2 MiB-contiguous.
        let pid = g.spawn_process(AllocPolicy::MovableDefault);
        let free = g.free_bytes() / 4096;
        g.fault_anon(pid, free).unwrap();
        let held: Vec<_> = g.process(pid).unwrap().pages().collect();
        for gfn in held.iter().filter(|p| p.0 % 2 == 0) {
            g.free_anon_page(pid, *gfn).unwrap();
        }
        assert!(g.free_bytes() > 200 * MIB, "plenty is free");
        let c = fpr.cycle(&g, |_, _| true, &cost);
        assert_eq!(
            c.bytes(),
            0,
            "reporting cannot see sub-order frees — the coverage gap \
             Squeezy's whole-partition reclaim does not have"
        );
    }

    #[test]
    fn report_requests_are_batched() {
        let g = guest();
        let mut fpr = FreePageReporter::new(DEFAULT_REPORT_ORDER);
        let cost = CostModel::default();
        let c = fpr.cycle(&g, |_, _| true, &cost);
        assert!(
            c.requests <= c.chunks.len() as u64 / cost.fpr_ranges_per_report + 1,
            "{} requests for {} chunks",
            c.requests,
            c.chunks.len()
        );
        assert_eq!(
            fpr.stats().bytes_reported,
            c.bytes(),
            "stats track the cycle"
        );
    }
}
