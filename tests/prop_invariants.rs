//! Property-based tests over the core data-structure invariants.

use guest_mm::{AllocPolicy, GuestMm, GuestMmConfig, PageState};
use mem_types::{Bitmap, BlockId, FrameRange, Gfn, MIB, PAGES_PER_BLOCK};
use proptest::prelude::*;
use sim_core::CpuPool;

fn small_mm() -> GuestMm {
    GuestMm::new(GuestMmConfig {
        boot_bytes: 256 * MIB,
        hotplug_bytes: 256 * MIB,
        kernel_bytes: 32 * MIB,
        init_on_alloc: true,
    })
}

/// Operations a random workload may apply to the memory manager.
#[derive(Clone, Debug)]
enum MmOp {
    Fault { proc_idx: u8, pages: u16 },
    Free { proc_idx: u8, pages: u16 },
    Exit { proc_idx: u8 },
    FileFault { file: u8, pages: u16 },
    Online { block: u8 },
    Offline { block: u8 },
}

fn op_strategy() -> impl Strategy<Value = MmOp> {
    prop_oneof![
        (0u8..4, 1u16..512).prop_map(|(p, n)| MmOp::Fault {
            proc_idx: p,
            pages: n
        }),
        (0u8..4, 1u16..512).prop_map(|(p, n)| MmOp::Free {
            proc_idx: p,
            pages: n
        }),
        (0u8..4).prop_map(|p| MmOp::Exit { proc_idx: p }),
        (0u8..3, 1u16..256).prop_map(|(f, n)| MmOp::FileFault { file: f, pages: n }),
        (0u8..2).prop_map(|b| MmOp::Online { block: b }),
        (0u8..2).prop_map(|b| MmOp::Offline { block: b }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of faults, frees, exits, file faults and block
    /// hot(un)plug operations leaves the buddy free lists, page states
    /// and block counters mutually consistent, and conserves pages.
    #[test]
    fn guest_mm_invariants_hold_under_random_ops(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut mm = small_mm();
        let boot_blocks = 2u64;
        let mut pids = [mm.spawn_process(AllocPolicy::MovableDefault),
            mm.spawn_process(AllocPolicy::MovableDefault),
            mm.spawn_process(AllocPolicy::MovableDefault),
            mm.spawn_process(AllocPolicy::MovableDefault)];
        for op in ops {
            match op {
                MmOp::Fault { proc_idx, pages } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.fault_anon(pid, pages as u64);
                }
                MmOp::Free { proc_idx, pages } => {
                    let pid = pids[proc_idx as usize % pids.len()];
                    let _ = mm.free_anon(pid, pages as u64);
                }
                MmOp::Exit { proc_idx } => {
                    let idx = proc_idx as usize % pids.len();
                    let _ = mm.exit_process(pids[idx]);
                    // Respawn so later ops have a target.
                    pids[idx] = mm.spawn_process(AllocPolicy::MovableDefault);
                }
                MmOp::FileFault { file, pages } => {
                    let _ = mm.fault_file(guest_mm::FileId(file as u32), pages as u64);
                }
                MmOp::Online { block } => {
                    let b = BlockId(boot_blocks + block as u64);
                    let _ = mm.hot_add_block(b);
                    let _ = mm.online_block(b, guest_mm::ZONE_MOVABLE);
                }
                MmOp::Offline { block } => {
                    let b = BlockId(boot_blocks + block as u64);
                    let _ = mm.offline_block(b);
                }
            }
            mm.assert_consistent();
        }
        // Conservation: present = free + used everywhere.
        prop_assert_eq!(
            mm.present_bytes(),
            mm.free_bytes() + mm.used_bytes()
        );
    }

    /// Offlining then re-onlining a block is lossless: every process
    /// keeps its full resident set, and the zone sizes return.
    #[test]
    fn offline_online_roundtrip_preserves_memory(pages in 1u64..2048) {
        let mut mm = small_mm();
        let b1 = BlockId(2);
        let b2 = BlockId(3);
        mm.hot_add_block(b1).unwrap();
        mm.online_block(b1, guest_mm::ZONE_MOVABLE).unwrap();
        mm.hot_add_block(b2).unwrap();
        mm.online_block(b2, guest_mm::ZONE_MOVABLE).unwrap();
        let pid = mm.spawn_process(AllocPolicy::MovableDefault);
        mm.fault_anon(pid, pages).unwrap();
        let present0 = mm.present_bytes();

        let out = mm.offline_block(b1).unwrap();
        prop_assert_eq!(out.scanned, PAGES_PER_BLOCK);
        prop_assert_eq!(mm.process(pid).unwrap().rss_pages(), pages);
        mm.hot_remove_block(b1).unwrap();
        mm.hot_add_block(b1).unwrap();
        mm.online_block(b1, guest_mm::ZONE_MOVABLE).unwrap();
        prop_assert_eq!(mm.present_bytes(), present0);
        mm.assert_consistent();
    }

    /// The CPU pool conserves work: what tasks consume equals capacity ×
    /// time when oversubscribed, and rates never exceed caps.
    #[test]
    fn cpu_pool_conserves_work(
        demands in prop::collection::vec(0.05f64..2.0, 2..10),
        caps in prop::collection::vec(0.25f64..1.0, 2..10),
    ) {
        let n = demands.len().min(caps.len());
        let mut pool = CpuPool::new(2.0);
        let ids: Vec<_> = (0..n)
            .map(|i| pool.add_task(demands[i], caps[i], 1.0, ()))
            .collect();
        for &id in &ids {
            let rate = pool.rate_of(id).unwrap();
            prop_assert!(rate <= caps[ids.iter().position(|&x| x == id).unwrap()] + 1e-9);
        }
        prop_assert!(pool.total_rate() <= 2.0 + 1e-9);
        // Run to completion.
        let mut guard = 0;
        while let Some((_, t)) = pool.next_completion() {
            pool.advance_to(t);
            let finished: Vec<_> = ids
                .iter()
                .filter(|&&id| pool.remaining(id).map(|r| r <= 1e-9).unwrap_or(false))
                .copied()
                .collect();
            for id in finished {
                pool.remove(id);
            }
            guard += 1;
            prop_assert!(guard < 1000, "pool failed to drain");
        }
        let total: f64 = demands[..n].iter().sum();
        prop_assert!((pool.total_consumed() - total).abs() < 1e-6);
    }

    /// Bitmap set/clear operations agree with a model `Vec<bool>`.
    #[test]
    fn bitmap_matches_model(ops in prop::collection::vec((0usize..300, any::<bool>()), 1..100)) {
        let mut bm = Bitmap::new(300);
        let mut model = vec![false; 300];
        for (i, set) in ops {
            if set {
                bm.set(i);
                model[i] = true;
            } else {
                bm.clear(i);
                model[i] = false;
            }
        }
        #[allow(clippy::needless_range_loop)]
        for i in 0..300 {
            prop_assert_eq!(bm.get(i), model[i]);
        }
        prop_assert_eq!(bm.count_ones(), model.iter().filter(|&&b| b).count());
        prop_assert_eq!(bm.first_zero(), model.iter().position(|&b| !b));
    }

    /// Frame ranges: intersection is symmetric and contained in both.
    #[test]
    fn frame_range_intersection(a in 0u64..1000, alen in 1u64..500, b in 0u64..1000, blen in 1u64..500) {
        let ra = FrameRange::new(Gfn(a), alen);
        let rb = FrameRange::new(Gfn(b), blen);
        let i1 = ra.intersect(&rb);
        let i2 = rb.intersect(&ra);
        prop_assert_eq!(i1, i2);
        if let Some(i) = i1 {
            prop_assert!(ra.contains(i.start) && rb.contains(i.start));
            let last = Gfn(i.end().0 - 1);
            prop_assert!(ra.contains(last) && rb.contains(last));
            prop_assert!(ra.overlaps(&rb));
        } else {
            prop_assert!(!ra.overlaps(&rb));
        }
    }
}

/// Page-state transitions never corrupt the memmap even at exhaustion.
#[test]
fn exhaustion_roundtrip() {
    let mut mm = small_mm();
    let pid = mm.spawn_process(AllocPolicy::MovableDefault);
    let free = mm.free_bytes() / mem_types::PAGE_SIZE;
    assert!(mm.fault_anon(pid, free + 1).is_err());
    assert_eq!(mm.free_bytes(), 0);
    mm.assert_consistent();
    mm.exit_process(pid).unwrap();
    mm.assert_consistent();
    // Everything is free again and merged.
    let pid2 = mm.spawn_process(AllocPolicy::MovableDefault);
    assert!(mm.fault_anon(pid2, free).is_ok());
    mm.assert_consistent();
}

/// Squeezy's zones never contain another instance's pages.
#[test]
fn partition_isolation_exhaustive_check() {
    use squeezy::{SqueezyConfig, SqueezyManager};
    use vmm::{HostMemory, Vm, VmConfig};

    let cost = sim_core::CostModel::default();
    let mut host = HostMemory::new(16 * (1 << 30));
    let mut vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: 512 * MIB,
                hotplug_bytes: 2048 * MIB,
                kernel_bytes: 64 * MIB,
                init_on_alloc: true,
            },
            vcpus: 2.0,
        },
        &mut host,
    )
    .unwrap();
    let mut sq = SqueezyManager::install(
        &mut vm,
        SqueezyConfig {
            partition_bytes: 512 * MIB,
            shared_bytes: 256 * MIB,
            concurrency: 3,
        },
        &cost,
    )
    .unwrap();

    let mut pids = Vec::new();
    for _ in 0..3 {
        sq.plug_partition(&mut vm, &cost).unwrap();
        let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
        sq.attach(&mut vm, pid).unwrap();
        vm.touch_anon(&mut host, pid, 5000, &cost).unwrap();
        pids.push(pid);
    }
    // Exhaustively verify: every anon page in a partition zone belongs
    // to the instance attached to that partition.
    for p in sq.partitions() {
        let Some((owner_idx, _)) = pids
            .iter()
            .enumerate()
            .find(|(_, &pid)| sq.partition_of(pid) == Some(p.id))
        else {
            continue;
        };
        let owner = pids[owner_idx];
        for blk in &p.blocks {
            for g in blk.frames().iter() {
                let d = vm.guest.memmap().page(g);
                if d.state == PageState::Anon {
                    assert_eq!(d.a, owner.0, "foreign page in partition {:?}", p.id);
                }
            }
        }
    }
}
