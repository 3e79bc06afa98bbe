//! Property-based tests over the extension subsystems: transparent huge
//! pages, swap, flex partitions, soft memory, temporal segregation and
//! the experiment engine's RNG stream derivation.

use guest_mm::{AllocPolicy, GuestMm, GuestMmConfig, PageState, PAGES_PER_HUGE};
use mem_types::{BlockId, Gfn, GIB, MIB, PAGE_SIZE};
use proptest::prelude::*;
use sim_core::experiment::run_experiment;
use sim_core::DetRng;
use squeezy::{FlexManager, PartitionId, SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};

fn small_mm() -> GuestMm {
    GuestMm::new(GuestMmConfig {
        boot_bytes: 256 * MIB,
        hotplug_bytes: 256 * MIB,
        kernel_bytes: 32 * MIB,
        init_on_alloc: true,
    })
}

fn small_vm(host: &mut HostMemory) -> Vm {
    Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: 256 * MIB,
                hotplug_bytes: 2 * GIB,
                kernel_bytes: 32 * MIB,
                init_on_alloc: true,
            },
            vcpus: 2.0,
        },
        host,
    )
    .expect("host fits")
}

/// Operations mixing base pages, huge pages and swap.
#[derive(Clone, Debug)]
enum HugeOp {
    Fault { proc_idx: u8, pages: u16 },
    FaultHuge { proc_idx: u8, n: u8 },
    Free { proc_idx: u8, pages: u16 },
    FreeHuge { proc_idx: u8, n: u8 },
    SwapOut { proc_idx: u8, pages: u16 },
    SwapIn { proc_idx: u8, pages: u16 },
    Exit { proc_idx: u8 },
    Offline { block: u8 },
    Online { block: u8 },
}

fn huge_op() -> impl Strategy<Value = HugeOp> {
    prop_oneof![
        (0u8..3, 1u16..600).prop_map(|(p, n)| HugeOp::Fault {
            proc_idx: p,
            pages: n
        }),
        (0u8..3, 1u8..4).prop_map(|(p, n)| HugeOp::FaultHuge { proc_idx: p, n }),
        (0u8..3, 1u16..600).prop_map(|(p, n)| HugeOp::Free {
            proc_idx: p,
            pages: n
        }),
        (0u8..3, 1u8..4).prop_map(|(p, n)| HugeOp::FreeHuge { proc_idx: p, n }),
        (0u8..3, 1u16..400).prop_map(|(p, n)| HugeOp::SwapOut {
            proc_idx: p,
            pages: n
        }),
        (0u8..3, 1u16..400).prop_map(|(p, n)| HugeOp::SwapIn {
            proc_idx: p,
            pages: n
        }),
        (0u8..3).prop_map(|p| HugeOp::Exit { proc_idx: p }),
        (0u8..2).prop_map(|b| HugeOp::Offline { block: b }),
        (0u8..2).prop_map(|b| HugeOp::Online { block: b }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of base faults, huge faults, frees, swap
    /// in/out, exits and block hot(un)plug keep every invariant: buddy
    /// integrity, block counters, huge-page structure (512-aligned heads
    /// with exactly 511 tails), owner back-references and conservation.
    #[test]
    fn huge_and_swap_ops_preserve_invariants(ops in prop::collection::vec(huge_op(), 1..50)) {
        let mut mm = small_mm();
        let boot_blocks = 2u64;
        let mut pids = vec![
            mm.spawn_process(AllocPolicy::MovableDefault),
            mm.spawn_process(AllocPolicy::MovableDefault),
            mm.spawn_process(AllocPolicy::MovableDefault),
        ];
        for op in ops {
            match op {
                HugeOp::Fault { proc_idx, pages } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.fault_anon(pid, pages as u64);
                }
                HugeOp::FaultHuge { proc_idx, n } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.fault_anon_huge(pid, n as u64);
                }
                HugeOp::Free { proc_idx, pages } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.free_anon(pid, pages as u64);
                }
                HugeOp::FreeHuge { proc_idx, n } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.free_anon_huge(pid, n as u64);
                }
                HugeOp::SwapOut { proc_idx, pages } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.swap_out_anon(pid, pages as u64);
                }
                HugeOp::SwapIn { proc_idx, pages } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.swap_in_anon(pid, pages as u64);
                }
                HugeOp::Exit { proc_idx } => {
                    let idx = proc_idx as usize % pids.len();
                    let _ = mm.exit_process(pids[idx]);
                    pids[idx] = mm.spawn_process(AllocPolicy::MovableDefault);
                }
                HugeOp::Offline { block } => {
                    let _ = mm.offline_block(BlockId(boot_blocks + block as u64));
                }
                HugeOp::Online { block } => {
                    let b = BlockId(boot_blocks + block as u64);
                    let _ = mm.hot_add_block(b);
                    let _ = mm.online_block(b, guest_mm::ZONE_MOVABLE);
                }
            }
            mm.assert_consistent();
        }
        prop_assert_eq!(mm.present_bytes(), mm.free_bytes() + mm.used_bytes());
        // Every process's rss is consistent with its swapped count:
        // swapped pages are not resident.
        for pid in pids {
            if let Some(p) = mm.process(pid) {
                prop_assert_eq!(
                    p.rss_pages(),
                    p.pages().count() as u64 + p.huge_pages.len() as u64 * PAGES_PER_HUGE
                );
            }
        }
    }

    /// Splitting a huge page (forced by offline with a fragmented
    /// fallback) conserves the owner's resident set exactly.
    #[test]
    fn huge_split_conserves_rss(n_huge in 1u64..4) {
        let mut mm = small_mm();
        let b = BlockId(2);
        mm.hot_add_block(b).unwrap();
        mm.online_block(b, guest_mm::ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::PinnedZone(guest_mm::ZONE_MOVABLE));
        mm.fault_anon_huge(pid, n_huge).unwrap();
        let rss0 = mm.process(pid).unwrap().rss_pages();

        // Fragment ZONE_NORMAL so no order-9 targets exist.
        let frag = mm.spawn_process(AllocPolicy::PinnedZone(guest_mm::ZONE_NORMAL));
        let free = mm.zone(guest_mm::ZONE_NORMAL).free_pages;
        mm.fault_anon(frag, free).unwrap();
        let held: Vec<_> = mm.process(frag).unwrap().pages().collect();
        for g in held.iter().filter(|g| g.0 % 2 == 0) {
            mm.free_anon_page(frag, *g).unwrap();
        }

        let out = mm.offline_block(b).unwrap();
        prop_assert_eq!(out.huge_splits, n_huge);
        prop_assert_eq!(mm.process(pid).unwrap().rss_pages(), rss0);
        prop_assert_eq!(mm.process(pid).unwrap().rss_huge(), 0);
        mm.assert_consistent();
    }

    /// The flex span allocator never loses or duplicates blocks: after
    /// any create/destroy sequence, destroying the survivors restores
    /// the full region as one span.
    #[test]
    fn flex_spans_conserve_region(
        sizes in prop::collection::vec(1u64..8, 1..10),
        destroy_order in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        let cost = sim_core::CostModel::default();
        let mut host = HostMemory::new(8 * GIB);
        let mut vm = small_vm(&mut host);
        let mut flex = FlexManager::install(&mut vm);
        let total = flex.largest_free_blocks();

        let mut live: Vec<PartitionId> = Vec::new();
        for blocks in &sizes {
            if let Ok((id, _)) =
                flex.create(&mut vm, blocks * mem_types::MEM_BLOCK_SIZE, 0, &cost)
            {
                live.push(id);
            }
        }
        // Destroy some in arbitrary order.
        for d in destroy_order {
            if live.is_empty() {
                break;
            }
            let idx = d as usize % live.len();
            let id = live.swap_remove(idx);
            flex.destroy(&mut vm, &mut host, id, &cost).unwrap();
        }
        // Destroy the rest.
        for id in live {
            flex.destroy(&mut vm, &mut host, id, &cost).unwrap();
        }
        prop_assert_eq!(flex.largest_free_blocks(), total);
        prop_assert_eq!(flex.partition_count(), 0);
        vm.guest.assert_consistent();
    }

    /// Host accounting stays exact through random soft mark / revoke /
    /// replug / exit interleavings: `host.used == Σ vm.host_rss()`.
    #[test]
    fn soft_lifecycle_keeps_host_accounting_exact(
        script in prop::collection::vec((0u8..4, 0u8..3), 1..25),
    ) {
        let cost = sim_core::CostModel::default();
        let mut host = HostMemory::new(16 * GIB);
        let mut vm = small_vm(&mut host);
        let mut sq = SqueezyManager::install(
            &mut vm,
            SqueezyConfig {
                partition_bytes: 256 * MIB,
                shared_bytes: 0,
                concurrency: 3,
            },
            &cost,
        )
        .unwrap();
        // Three instances, all warm.
        let mut pids = Vec::new();
        for _ in 0..3 {
            sq.plug_partition(&mut vm, &cost).unwrap();
            let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
            sq.attach(&mut vm, pid).unwrap();
            vm.touch_anon(&mut host, pid, 5_000, &cost).unwrap();
            pids.push(pid);
        }
        for (action, who) in script {
            let pid = pids[who as usize % pids.len()];
            match action {
                0 => {
                    let _ = sq.mark_soft(pid);
                }
                1 => {
                    let _ = sq.revoke_soft(&mut vm, &mut host, 1, &cost);
                }
                2 => {
                    if sq.mark_firm(pid) == Ok(squeezy::SoftWake::NeedsReplug) {
                        sq.replug(&mut vm, pid, &cost).unwrap();
                        vm.touch_anon(&mut host, pid, 5_000, &cost).unwrap();
                    }
                }
                _ => {
                    // Touch some memory if the partition is populated.
                    let _ = vm.touch_anon(&mut host, pid, 100, &cost);
                }
            }
            prop_assert_eq!(host.used_bytes(), vm.host_rss());
            vm.guest.assert_consistent();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Free page reporting invariants under random guest activity:
    /// every reported chunk is genuinely free and aligned, reported
    /// bytes never exceed free bytes, and with a backing-aware
    /// predicate the worker converges (the cycle after a quiet period
    /// reports nothing).
    #[test]
    fn free_page_reporting_sound_and_convergent(
        script in prop::collection::vec((0u8..3, 1u16..2000), 1..20),
    ) {
        let cost = sim_core::CostModel::default();
        let mut mm = small_mm();
        let mut fpr = balloon::FreePageReporter::new(balloon::DEFAULT_REPORT_ORDER);
        // Mini-EPT: frames with host backing.
        let mut backed: std::collections::HashSet<u64> =
            (0..mm.memmap().len()).collect();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        for (op, n) in script {
            match op {
                0 => {
                    if let Ok(got) = mm.fault_anon(pid, n as u64) {
                        for g in got {
                            backed.insert(g.0);
                        }
                    }
                }
                1 => {
                    let _ = mm.free_anon(pid, n as u64);
                }
                _ => {
                    let cycle = fpr.cycle(
                        &mm,
                        |g, o| (g.0..g.0 + (1 << o)).any(|f| backed.contains(&f)),
                        &cost,
                    );
                    for &(g, o) in &cycle.chunks {
                        // Soundness: aligned, free, within memory.
                        prop_assert_eq!(g.0 % (1 << o), 0, "misaligned report");
                        for f in g.0..g.0 + (1 << o) {
                            prop_assert!(
                                mm.memmap().state(Gfn(f)).is_free(),
                                "reported a non-free page"
                            );
                            backed.remove(&f);
                        }
                    }
                    prop_assert!(cycle.bytes() <= mm.free_bytes());
                }
            }
        }
        // Convergence: two quiet cycles in a row — the second is idle.
        let c1 = fpr.cycle(
            &mm,
            |g, o| (g.0..g.0 + (1 << o)).any(|f| backed.contains(&f)),
            &cost,
        );
        for &(g, o) in &c1.chunks {
            for f in g.0..g.0 + (1 << o) {
                backed.remove(&f);
            }
        }
        let c2 = fpr.cycle(
            &mm,
            |g, o| (g.0..g.0 + (1 << o)).any(|f| backed.contains(&f)),
            &cost,
        );
        prop_assert_eq!(c2.chunks.len(), 0, "worker failed to converge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `DetRng::derive` stream independence: child streams are a pure
    /// function of `(parent seed, tag)` — different tags give different
    /// streams, different parent seeds give different streams under the
    /// same tag (the seed-blind derivation bug the experiment engine
    /// would amplify across every trial), and consuming parent draws
    /// never perturbs a child.
    #[test]
    fn derive_streams_are_independent(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        tag_a in any::<u64>(),
        tag_b in any::<u64>(),
        burn in 0usize..64,
    ) {
        let draws = |rng: &mut DetRng| -> Vec<u64> {
            (0..24).map(|_| rng.range(0, u64::MAX)).collect()
        };

        // Determinism: the same (seed, tag) always gives the same stream.
        prop_assert_eq!(
            draws(&mut DetRng::new(seed_a).derive(tag_a)),
            draws(&mut DetRng::new(seed_a).derive(tag_a))
        );

        // Tag independence under one parent.
        if tag_a != tag_b {
            prop_assert_ne!(
                draws(&mut DetRng::new(seed_a).derive(tag_a)),
                draws(&mut DetRng::new(seed_a).derive(tag_b))
            );
        }

        // Seed independence under one tag.
        if seed_a != seed_b {
            prop_assert_ne!(
                draws(&mut DetRng::new(seed_a).derive(tag_a)),
                draws(&mut DetRng::new(seed_b).derive(tag_a))
            );
        }

        // Deriving is stateless: parent draws do not shift the child.
        let mut parent = DetRng::new(seed_a);
        let before = draws(&mut parent.derive(tag_a));
        for _ in 0..burn {
            parent.unit();
        }
        prop_assert_eq!(before, draws(&mut parent.derive(tag_a)));

        // Child streams differ from their parent's own draw sequence.
        prop_assert_ne!(
            draws(&mut DetRng::new(seed_a)),
            draws(&mut DetRng::new(seed_a).derive(tag_a))
        );
    }
}

/// A toy stochastic experiment for the engine's bit-identity contract:
/// every cell mixes heavy RNG consumption with per-cell state, so any
/// cross-thread leakage or order dependence would change its output.
fn shuffle_sum(points: u64, trials: u32, seed: u64, jobs: usize) -> Vec<Vec<(u64, Vec<u64>)>> {
    let points: Vec<u64> = (0..points).collect();
    run_experiment(&points, trials, seed, jobs, |&p, ctx| {
        let mut xs: Vec<u64> = (0..256).map(|i| i * (p + 1) + ctx.trial).collect();
        ctx.rng.shuffle(&mut xs);
        let checksum = xs.iter().enumerate().fold(0u64, |acc, (i, &x)| {
            acc.wrapping_mul(31).wrapping_add(x ^ i as u64)
        });
        (checksum, xs.into_iter().take(8).collect())
    })
}

/// Engine bit-identity: for any grid shape, seed and worker count, the
/// parallel runner reproduces the serial path exactly — the tentpole
/// guarantee that lets `repro --jobs N` keep byte-identical tables.
#[test]
fn experiment_engine_parallel_is_bit_identical_to_serial() {
    for (points, trials, seed) in [(1, 1, 0), (3, 4, 42), (7, 2, 0xDEAD), (16, 3, 9)] {
        let serial = shuffle_sum(points, trials, seed, 1);
        for jobs in [2, 3, 5, 32] {
            assert_eq!(
                serial,
                shuffle_sum(points, trials, seed, jobs),
                "grid ({points}x{trials}, seed {seed}) diverged at jobs={jobs}"
            );
        }
    }
}

/// Deterministic regression: a huge page allocated, swapped around and
/// split never corrupts neighbouring owners' pages.
#[test]
fn huge_neighbours_unaffected_by_split() {
    let mut mm = small_mm();
    let b = BlockId(2);
    mm.hot_add_block(b).unwrap();
    mm.online_block(b, guest_mm::ZONE_MOVABLE).unwrap();
    let a = mm.spawn_process(AllocPolicy::PinnedZone(guest_mm::ZONE_MOVABLE));
    let h = mm.spawn_process(AllocPolicy::PinnedZone(guest_mm::ZONE_MOVABLE));
    mm.fault_anon(a, 300).unwrap();
    mm.fault_anon_huge(h, 2).unwrap();
    mm.fault_anon(a, 300).unwrap();
    let a_pages: Vec<_> = mm.process(a).unwrap().pages().collect();

    // Fragment the fallback so the offline splits h's huge pages.
    let frag = mm.spawn_process(AllocPolicy::PinnedZone(guest_mm::ZONE_NORMAL));
    let free = mm.zone(guest_mm::ZONE_NORMAL).free_pages;
    mm.fault_anon(frag, free - 700).unwrap();
    let held: Vec<_> = mm.process(frag).unwrap().pages().collect();
    for g in held.iter().filter(|g| g.0 % 2 == 0) {
        mm.free_anon_page(frag, *g).unwrap();
    }

    mm.offline_block(b).unwrap();
    // Process a still owns 600 pages, all Anon, slots intact: each
    // page's descriptor locates it at its place in a's order.
    let a_proc = mm.process(a).unwrap();
    assert_eq!(a_proc.rss_pages(), 600);
    for (slot, g) in a_proc.pages().enumerate() {
        let d = mm.memmap().page(g);
        assert_eq!(d.state, PageState::Anon);
        assert_eq!(d.a, a.0);
        assert_eq!(mm.page_slot(g), Some(slot as u64));
    }
    // h's huge pages became base pages with the same total size.
    assert_eq!(mm.process(h).unwrap().rss_pages(), 2 * PAGES_PER_HUGE);
    drop(a_pages);
    mm.assert_consistent();
}

/// Deterministic regression: swapping out everything and exiting does
/// not double-free.
#[test]
fn swap_then_exit_is_clean() {
    let mut mm = small_mm();
    let pid = mm.spawn_process(AllocPolicy::MovableDefault);
    mm.fault_anon(pid, 1000).unwrap();
    mm.swap_out_anon(pid, 600).unwrap();
    let freed = mm.exit_process(pid).unwrap();
    assert_eq!(freed, 400, "only resident pages freed on exit");
    assert_eq!(mm.present_bytes(), mm.free_bytes() + mm.used_bytes());
    mm.assert_consistent();
}

/// Deterministic regression: a flex partition graveyard (create/destroy
/// loop) keeps working after 100 cycles without exhausting zones.
#[test]
fn flex_churn_hundred_cycles() {
    let cost = sim_core::CostModel::default();
    let mut host = HostMemory::new(8 * GIB);
    let mut vm = small_vm(&mut host);
    let mut flex = FlexManager::install(&mut vm);
    for i in 0..100 {
        let (id, _) = flex
            .create(&mut vm, 256 * MIB, 128 * MIB, &cost)
            .unwrap_or_else(|e| panic!("cycle {i}: {e}"));
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        flex.attach(&mut vm, id, pid).unwrap();
        vm.touch_anon(&mut host, pid, 1000, &cost).unwrap();
        vm.guest.exit_process(pid).unwrap();
        flex.detach(pid).unwrap();
        flex.destroy(&mut vm, &mut host, id, &cost).unwrap();
    }
    assert_eq!(host.used_bytes(), vm.host_rss());
    assert_eq!(vm.host_rss(), 32 * MIB, "only the kernel stays resident");
    assert_eq!(flex.stats().creates, 100);
    assert_eq!(flex.stats().destroys, 100);
}

/// Deterministic regression: PAGE_SIZE-scale accounting across the
/// whole stack after a busy mixed workload.
#[test]
fn mixed_workload_exact_accounting() {
    let cost = sim_core::CostModel::default();
    let mut host = HostMemory::new(16 * GIB);
    let mut vm = small_vm(&mut host);
    vm.plug(GIB, &cost).unwrap();
    let mut dev = swap::SwapDevice::new(swap::SwapBackend::Compressed { retain_ratio: 0.5 });
    let a = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    let b = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    vm.touch_anon(&mut host, a, 20_000, &cost).unwrap();
    vm.touch_anon_huge(&mut host, b, 16, &cost).unwrap();
    dev.swap_out(&mut vm, &mut host, a, 10_000, &cost).unwrap();
    dev.swap_in(&mut vm, &mut host, a, 5_000, &cost).unwrap();
    vm.guest.free_anon_huge(b, 8).unwrap();
    // Exact: host usage = VM rss + compressed pool.
    assert_eq!(host.used_bytes(), vm.host_rss() + dev.pool_bytes());
    assert_eq!(
        vm.guest.process(a).unwrap().rss_pages() + vm.guest.process(a).unwrap().swapped,
        20_000
    );
    assert_eq!(vm.guest.process(b).unwrap().rss_pages(), 8 * PAGES_PER_HUGE);
    let _ = PAGE_SIZE;
    vm.guest.assert_consistent();
}
