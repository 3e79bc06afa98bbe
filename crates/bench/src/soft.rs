//! Ablation: soft-memory partitions for keep-alive instances (§7).
//!
//! Keep-alive ties down an idle instance's memory for the whole window;
//! eviction frees the memory but pays a full cold start on the next
//! invocation. The paper's §7 proposes a third point: mark the idle
//! instance's partition *soft* and let the hypervisor revoke it under
//! pressure — the instance (container + runtime) survives, only its
//! anonymous state is rebuilt on the next invocation.
//!
//! For every Table-1 function this ablation measures, on the real stack:
//!
//! * `reclaim_ms` — time to release the idle instance's memory
//!   (0 for firm keep-alive, which releases nothing);
//! * `released_mib` — how much host memory the idle policy returns;
//! * `restart_ms` — latency of the next invocation's start phase
//!   (warm wake, soft-cold rebuild, or full cold start).

use guest_mm::{AllocPolicy, GuestMmConfig};
use mem_types::{GIB, MIB};
use sim_core::experiment::{run_experiment, ExpOpts};
use sim_core::{CostModel, SimDuration, TextTable};
use squeezy::{SoftWake, SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::FunctionKind;

/// The idle-instance policies under comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IdlePolicy {
    /// Paper baseline: keep the instance and its memory (warm start).
    KeepAliveFirm,
    /// Evict the instance, unplug its partition (full cold start).
    Evict,
    /// §7 soft memory: revoke the partition, keep the instance
    /// (soft-cold start: re-plug + rebuild anonymous state).
    Soft,
    /// Related work: swap the idle working set to SSD (state preserved,
    /// slow synchronous swap-ins on restart).
    SwapDisk,
    /// Related work: swap into a compressed in-memory pool
    /// (zswap/frontswap): fast restore, partial memory saving.
    SwapCompressed,
}

impl IdlePolicy {
    /// All policies, in presentation order.
    pub const ALL: [IdlePolicy; 5] = [
        IdlePolicy::KeepAliveFirm,
        IdlePolicy::Evict,
        IdlePolicy::Soft,
        IdlePolicy::SwapDisk,
        IdlePolicy::SwapCompressed,
    ];

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            IdlePolicy::KeepAliveFirm => "keep-alive",
            IdlePolicy::Evict => "evict",
            IdlePolicy::Soft => "soft",
            IdlePolicy::SwapDisk => "swap-disk",
            IdlePolicy::SwapCompressed => "swap-zpool",
        }
    }
}

/// One measured row.
#[derive(Clone, Copy, Debug)]
pub struct SoftRow {
    /// Function under test.
    pub kind: FunctionKind,
    /// Idle policy under test.
    pub policy: IdlePolicy,
    /// Time to release the idle instance's memory (ms).
    pub reclaim_ms: f64,
    /// Host memory released while idle (MiB).
    pub released_mib: f64,
    /// Start latency of the next invocation (ms).
    pub restart_ms: f64,
}

/// Runs the ablation over every Table-1 function × policy. The
/// warm/idle/restart cycle is deterministic, so it runs one trial.
pub fn run(opts: &ExpOpts) -> Vec<SoftRow> {
    let points: Vec<(FunctionKind, IdlePolicy)> = FunctionKind::ALL
        .into_iter()
        .flat_map(|k| IdlePolicy::ALL.into_iter().map(move |p| (k, p)))
        .collect();
    run_experiment(
        &points,
        1,
        0,
        opts.effective_jobs(),
        |&(kind, policy), _ctx| measure(kind, policy, &CostModel::default()),
    )
    .into_iter()
    .map(|mut trials| trials.remove(0))
    .collect()
}

/// Measures one function × policy cycle: warm instance → idle → restart.
fn measure(kind: FunctionKind, policy: IdlePolicy, cost: &CostModel) -> SoftRow {
    let profile = kind.profile();
    let mut host = HostMemory::new(16 * GIB);
    let mut vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: 512 * MIB,
                hotplug_bytes: 8 * GIB,
                kernel_bytes: 128 * MIB,
                init_on_alloc: true,
            },
            vcpus: 2.0,
        },
        &mut host,
    )
    .expect("host fits");
    let mut sq = SqueezyManager::install(
        &mut vm,
        SqueezyConfig {
            partition_bytes: profile.memory_limit.bytes(),
            shared_bytes: mem_types::align_up_to_block(profile.deps_bytes + profile.rootfs_bytes),
            concurrency: 2,
        },
        cost,
    )
    .expect("layout fits");

    // Warm instance: plug, attach, fault rootfs + deps (shared
    // partition, cached for later instances) + anon (private).
    sq.plug_partition(&mut vm, cost).expect("partition");
    let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);
    sq.attach(&mut vm, pid).expect("attach");
    vm.touch_file(&mut host, kind.rootfs_file(), profile.rootfs_pages(), cost)
        .expect("rootfs fits");
    vm.touch_file(&mut host, kind.deps_file(), profile.deps_pages(), cost)
        .expect("deps fit");
    vm.touch_anon(&mut host, pid, profile.anon_pages(), cost)
        .expect("anon fits");

    let rss_warm = vm.host_rss();
    let used_warm = host.used_bytes();
    let mut swap_dev = swap::SwapDevice::new(match policy {
        IdlePolicy::SwapCompressed => swap::SwapBackend::Compressed { retain_ratio: 0.4 },
        _ => swap::SwapBackend::Disk,
    });

    // Go idle under the policy.
    let (reclaim, released) = match policy {
        IdlePolicy::KeepAliveFirm => (SimDuration::ZERO, 0),
        IdlePolicy::Evict => {
            vm.guest.exit_process(pid).expect("alive");
            sq.detach(pid).expect("attached");
            let (_, report) = sq
                .unplug_partition(&mut vm, &mut host, cost)
                .expect("free partition");
            (report.latency(), rss_warm - vm.host_rss())
        }
        IdlePolicy::Soft => {
            sq.mark_soft(pid).expect("attached");
            let reports = sq
                .revoke_soft(&mut vm, &mut host, usize::MAX, cost)
                .expect("revocable");
            (reports[0].1.latency(), rss_warm - vm.host_rss())
        }
        IdlePolicy::SwapDisk | IdlePolicy::SwapCompressed => {
            let report = swap_dev
                .swap_out(&mut vm, &mut host, pid, profile.anon_pages(), cost)
                .expect("swappable");
            // Compressed pools retain a share: count the *net* release.
            (report.latency, used_warm - host.used_bytes())
        }
    };

    // Next invocation arrives: restart under the policy.
    let restart = match policy {
        IdlePolicy::KeepAliveFirm => {
            // Warm start: wake the instance, nothing to rebuild.
            assert_eq!(sq.mark_firm(pid).expect("attached"), SoftWake::Warm);
            SqueezyManager::syscall_cost(cost)
        }
        IdlePolicy::Evict => {
            // Full cold start: plug, new container, runtime + function
            // init, anon fault-in. Deps stay cached in the shared
            // partition (the N:1 advantage survives eviction).
            let (_, plug) = sq.plug_partition(&mut vm, cost).expect("partition");
            let pid2 = vm.guest.spawn_process(AllocPolicy::MovableDefault);
            sq.attach(&mut vm, pid2).expect("attach");
            let rootfs = vm
                .touch_file(&mut host, kind.rootfs_file(), profile.rootfs_pages(), cost)
                .expect("rootfs fits");
            let deps = vm
                .touch_file(&mut host, kind.deps_file(), profile.deps_pages(), cost)
                .expect("deps cached");
            let anon = vm
                .touch_anon(&mut host, pid2, profile.anon_pages(), cost)
                .expect("anon fits");
            plug.latency()
                + rootfs.latency
                + deps.latency
                + anon.latency
                + SimDuration::from_secs_f64(
                    (profile.container_init_cpu_s + profile.function_init_cpu_s)
                        / profile.vcpu_shares.min(1.0),
                )
        }
        IdlePolicy::Soft => {
            // Soft-cold start: the wake discovers the revocation,
            // re-plugs, and rebuilds only the anonymous state; the
            // container and runtime process survived.
            assert_eq!(sq.mark_firm(pid).expect("attached"), SoftWake::NeedsReplug);
            let plug = sq.replug(&mut vm, pid, cost).expect("revoked");
            let deps = vm
                .touch_file(&mut host, kind.deps_file(), profile.deps_pages(), cost)
                .expect("deps cached");
            let anon = vm
                .touch_anon(&mut host, pid, profile.anon_pages(), cost)
                .expect("anon fits");
            plug.latency()
                + deps.latency
                + anon.latency
                + SimDuration::from_secs_f64(
                    profile.function_init_cpu_s / profile.vcpu_shares.min(1.0),
                )
        }
        IdlePolicy::SwapDisk | IdlePolicy::SwapCompressed => {
            // State preserved: restart is the major-fault storm that
            // pulls the working set back, nothing to rebuild.
            let report = swap_dev
                .swap_in(&mut vm, &mut host, pid, profile.anon_pages(), cost)
                .expect("held by the device");
            report.latency
        }
    };

    SoftRow {
        kind,
        policy,
        reclaim_ms: reclaim.as_millis_f64(),
        released_mib: released as f64 / MIB as f64,
        restart_ms: restart.as_millis_f64(),
    }
}

/// Renders the ablation as a text table plus a summary line.
pub fn render(rows: &[SoftRow]) -> String {
    let mut t = TextTable::new(&[
        "Function",
        "Policy",
        "Reclaim(ms)",
        "Released(MiB)",
        "Restart(ms)",
    ]);
    for r in rows {
        t.row(vec![
            r.kind.name().to_string(),
            r.policy.name().to_string(),
            format!("{:.0}", r.reclaim_ms),
            format!("{:.0}", r.released_mib),
            format!("{:.0}", r.restart_ms),
        ]);
    }
    let mut out = String::from("Ablation: soft-memory partitions for keep-alive instances (§7)\n");
    out.push_str(&t.render());
    // Geomean speedup of soft restart over evict restart.
    let mut ratio = 1.0;
    let mut n = 0;
    for kind in FunctionKind::ALL {
        let evict = rows
            .iter()
            .find(|r| r.kind == kind && r.policy == IdlePolicy::Evict)
            .expect("complete grid");
        let soft = rows
            .iter()
            .find(|r| r.kind == kind && r.policy == IdlePolicy::Soft)
            .expect("complete grid");
        ratio *= evict.restart_ms / soft.restart_ms;
        n += 1;
    }
    out.push_str(&format!(
        "soft restart is {:.2}x faster than evict cold start (geomean) \
         while releasing the same idle memory\n",
        ratio.powf(1.0 / n as f64),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_types::PAGE_SIZE;

    #[test]
    fn soft_releases_like_evict_but_restarts_faster() {
        let rows = run(&ExpOpts::serial());
        for kind in FunctionKind::ALL {
            let get = |p: IdlePolicy| {
                *rows
                    .iter()
                    .find(|r| r.kind == kind && r.policy == p)
                    .unwrap()
            };
            let firm = get(IdlePolicy::KeepAliveFirm);
            let evict = get(IdlePolicy::Evict);
            let soft = get(IdlePolicy::Soft);
            // Firm holds everything; evict and soft release the
            // instance's private footprint.
            assert_eq!(firm.released_mib, 0.0);
            let anon_mib = kind.profile().anon_pages() as f64 * PAGE_SIZE as f64 / MIB as f64;
            assert!(
                evict.released_mib >= anon_mib,
                "{kind:?} evict releases anon"
            );
            assert!(soft.released_mib >= anon_mib, "{kind:?} soft releases anon");
            // Restart order: firm < soft < evict.
            assert!(firm.restart_ms < soft.restart_ms);
            assert!(
                soft.restart_ms < evict.restart_ms,
                "{kind:?}: soft {} vs evict {}",
                soft.restart_ms,
                evict.restart_ms
            );
            // Reclaim itself is instant for both reclaiming policies.
            assert!(soft.reclaim_ms < 200.0);
            assert!(evict.reclaim_ms < 200.0);
        }
    }

    #[test]
    fn swap_policies_trade_restore_speed_for_savings() {
        let rows = run(&ExpOpts::serial());
        for kind in FunctionKind::ALL {
            let get = |p: IdlePolicy| {
                *rows
                    .iter()
                    .find(|r| r.kind == kind && r.policy == p)
                    .unwrap()
            };
            let disk = get(IdlePolicy::SwapDisk);
            let zpool = get(IdlePolicy::SwapCompressed);
            let soft = get(IdlePolicy::Soft);
            // Disk swap releases the full anon set; the pool retains.
            assert!(
                zpool.released_mib < disk.released_mib,
                "{kind:?}: pool retains a share"
            );
            // The pool restores faster than disk.
            assert!(zpool.restart_ms < disk.restart_ms);
            // Swap preserves state but soft rebuild includes function
            // init — for compute-light functions swap-disk's fault storm
            // can still lose; at minimum the compressed pool must beat
            // disk swap and the full rebuild path.
            assert!(
                zpool.restart_ms < soft.restart_ms,
                "{kind:?}: zpool {} vs soft {}",
                zpool.restart_ms,
                soft.restart_ms
            );
        }
    }

    #[test]
    fn render_covers_grid() {
        let rows = run(&ExpOpts::serial());
        assert_eq!(rows.len(), 20);
        let s = render(&rows);
        assert!(s.contains("soft restart is"));
        assert!(s.contains("keep-alive"));
        assert!(s.contains("swap-disk"));
        assert!(s.contains("Bert"));
    }
}
