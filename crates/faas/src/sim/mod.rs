//! The FaaS runtime discrete-event simulation.
//!
//! Models the paper's OpenWhisk-based deployment (§5, §6.2): a host
//! controller routes invocations to per-VM agents; agents reuse warm
//! instances, scale up (plug + container init + function init) when none
//! is idle, keep instances alive for a fixed window, and scale down
//! (evict + reclaim) when the window expires. The elasticity backend —
//! Static, vanilla virtio-mem, HarvestVM-opts, Squeezy, or Squeezy with
//! §7 soft memory — decides how guest memory is plugged and reclaimed
//! and at what cost, through the crate-internal `backend` hook layer.
//!
//! The module is split by concern:
//!
//! * `events` — the event vocabulary;
//! * `instance` — per-instance lifecycle state;
//! * `host` — one host's event handlers (`HostSim`), backend agnostic.
//!
//! Every host runs on [`crate::FleetSim`], the crate's one event
//! engine; a `single-vm` scenario is a one-host fixed fleet built by
//! [`Scenario::fleet_plan`](crate::scenario::Scenario::fleet_plan).
//! [`FaasSim`] is a shell that runs a hand-built [`SimConfig`] the same
//! way; it remains for the figure modules that hand-build a host
//! config, and for the tests.
//!
//! Time is event-driven; CPU contention inside each VM is the fluid
//! model of [`sim_core::CpuPool`], so a virtio-mem driver kthread
//! migrating pages visibly slows co-located instances (Figure 9), while
//! Squeezy's instant unplug does not.

pub(crate) mod events;
pub(crate) mod host;
pub(crate) mod instance;

use vmm::VmmError;

use crate::cluster::{ClusterConfig, SingleHost};
use crate::config::SimConfig;
use crate::fleet::{FixedFleet, FleetSim};
use crate::metrics::SimResult;

/// The single-host FaaS runtime simulator.
pub struct FaasSim {
    fleet: FleetSim,
}

impl FaasSim {
    /// Builds a simulation: boots the VMs, installs the backend, and
    /// takes the configured arrival traces into a lazy feed.
    pub fn new(config: SimConfig) -> Result<FaasSim, VmmError> {
        let fleet = FleetSim::new(
            ClusterConfig::from_single(config).into_fixed_fleet(),
            Box::new(SingleHost),
            Box::new(FixedFleet),
        )?;
        Ok(FaasSim { fleet })
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(self) -> SimResult {
        let fleet = self.fleet.run();
        fleet.hosts.into_iter().next().expect("one host").result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, Deployment, HarvestConfig, VmSpec};
    use mem_types::GIB;
    use workloads::FunctionKind;

    fn simple_config(backend: BackendKind, arrivals: Vec<f64>) -> SimConfig {
        SimConfig {
            backend,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: vec![Deployment {
                    kind: FunctionKind::Html,
                    concurrency: 4,
                    arrivals,
                }],
                vcpus: Some(2.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 20.0,
            duration_s: 120.0,
            unplug_deadline_ms: 5_000,
            record_latency_points: true,
            seed: 1,
            trial: 0,
        }
    }

    #[test]
    fn single_request_completes() {
        for backend in [
            BackendKind::Static,
            BackendKind::VirtioMem,
            BackendKind::Squeezy,
            BackendKind::HarvestOpts,
            BackendKind::SqueezySoft,
        ] {
            let sim = FaasSim::new(simple_config(backend, vec![1.0])).unwrap();
            let mut result = sim.run();
            assert_eq!(result.completed, 1, "{backend:?}");
            let p99 = result.p99_ms(FunctionKind::Html);
            assert!(p99 > 0.0, "{backend:?} latency recorded");
            // Cold start: includes container+function init (~1 s of work).
            assert!(p99 > 500.0, "{backend:?} cold start visible: {p99} ms");
        }
    }

    #[test]
    fn warm_requests_are_fast() {
        // Two requests 5 s apart: the second reuses the warm instance.
        let sim = FaasSim::new(simple_config(BackendKind::Squeezy, vec![1.0, 6.0])).unwrap();
        let result = sim.run();
        assert_eq!(result.completed, 2);
        let m = &result.per_func[&FunctionKind::Html];
        assert_eq!(m.warm_starts, 1);
        assert_eq!(m.cold_starts, 1);
        let warm_latency = m.latency_points[1].1;
        let cold_latency = m.latency_points[0].1;
        assert!(
            warm_latency < cold_latency / 2.0,
            "warm {warm_latency} ≪ cold {cold_latency}"
        );
        // HTML at 0.25 share: 0.055 cpu-s → ≈ 220 ms wall.
        assert!(
            warm_latency > 150.0 && warm_latency < 400.0,
            "{warm_latency}"
        );
    }

    #[test]
    fn latency_points_are_opt_in() {
        // With recording off, memory stays bounded by the histogram
        // sample count and the points vector never grows — but the
        // aggregate latency metrics are unaffected.
        let mut on = simple_config(BackendKind::Squeezy, vec![1.0, 6.0, 7.0]);
        on.record_latency_points = true;
        let mut off = on.clone();
        off.record_latency_points = false;
        let r_on = FaasSim::new(on).unwrap().run();
        let r_off = FaasSim::new(off).unwrap().run();
        let m_on = &r_on.per_func[&FunctionKind::Html];
        let m_off = &r_off.per_func[&FunctionKind::Html];
        assert_eq!(m_on.latency_points.len(), 3);
        assert!(m_off.latency_points.is_empty());
        assert_eq!(m_on.latency.count(), m_off.latency.count());
        assert_eq!(
            m_on.latency.samples(),
            m_off.latency.samples(),
            "recording points does not perturb the histogram"
        );
    }

    #[test]
    fn keepalive_evicts_and_squeezy_reclaims() {
        let sim = FaasSim::new(simple_config(BackendKind::Squeezy, vec![1.0])).unwrap();
        let result = sim.run();
        let r = result.total_reclaims();
        assert_eq!(r.ops, 1, "one eviction-driven reclaim");
        assert!(r.bytes >= 768 << 20, "whole partition unplugged");
        assert_eq!(r.pages_migrated, 0, "Squeezy never migrates");
    }

    #[test]
    fn virtio_reclaim_migrates_under_colocation() {
        // Two staggered instances: the second keeps running while the
        // first is evicted, so its pages interleave with the victim's
        // blocks and must be migrated.
        let sim = FaasSim::new(simple_config(
            BackendKind::VirtioMem,
            vec![1.0, 1.1, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0],
        ))
        .unwrap();
        let result = sim.run();
        assert!(result.completed >= 9);
        let r = result.total_reclaims();
        assert!(r.ops >= 1);
        assert!(
            r.pages_migrated > 0,
            "vanilla virtio-mem migrates interleaved pages"
        );
    }

    #[test]
    fn squeezy_reclaim_throughput_beats_virtio() {
        let arrivals: Vec<f64> = vec![1.0, 1.05, 1.1, 1.15]; // 4 concurrent cold starts
        let sq = FaasSim::new(simple_config(BackendKind::Squeezy, arrivals.clone()))
            .unwrap()
            .run();
        let vt = FaasSim::new(simple_config(BackendKind::VirtioMem, arrivals))
            .unwrap()
            .run();
        let sq_tp = sq.total_reclaims().throughput_mibs();
        let vt_tp = vt.total_reclaims().throughput_mibs();
        assert!(sq_tp > 0.0 && vt_tp > 0.0);
        assert!(
            sq_tp > 2.0 * vt_tp,
            "Squeezy throughput {sq_tp:.0} MiB/s ≫ virtio {vt_tp:.0} MiB/s"
        );
    }

    #[test]
    fn static_backend_never_releases_host_memory() {
        let sim = FaasSim::new(simple_config(BackendKind::Static, vec![1.0])).unwrap();
        let result = sim.run();
        assert_eq!(result.total_reclaims().ops, 0);
        // Host usage never decreases (Figure 1's flat host line).
        let pts = result.host_usage.points();
        let peak = result.host_usage.max_value();
        let last = pts.last().unwrap().1;
        assert_eq!(last, peak, "host memory stays at peak");
    }

    #[test]
    fn host_usage_integral_is_the_step_integral_of_the_samples() {
        for backend in BackendKind::ALL {
            let mut cfg = simple_config(backend, vec![1.0, 1.05, 80.0, 80.05]);
            cfg.keepalive_s = 10.0;
            let result = FaasSim::new(cfg).unwrap().run();
            // Each sample's value holds until the next sample, the last
            // one until the end of the run.
            let pts = result.host_usage.points();
            assert!(pts.len() > 2, "{backend:?}");
            let mut expect = 0.0;
            for (i, &(t0, v0)) in pts.iter().enumerate() {
                let t1 = pts.get(i + 1).map_or(result.end, |&(t, _)| t);
                if t1 > t0 {
                    expect += v0 * t1.since(t0).as_secs_f64();
                }
            }
            assert_eq!(result.host_usage_integral, expect, "{backend:?}");
        }
    }

    #[test]
    fn concurrency_limit_caps_instances() {
        // 10 simultaneous arrivals but concurrency 4.
        let arrivals: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.01).collect();
        let sim = FaasSim::new(simple_config(BackendKind::Squeezy, arrivals)).unwrap();
        let result = sim.run();
        assert_eq!(result.completed, 10, "all requests eventually served");
        let peak_instances = result.instance_counts[0].max_value();
        assert!(peak_instances <= 4.0, "peak {peak_instances} ≤ N");
    }

    #[test]
    fn restricted_host_forces_evictions() {
        // Host fits the VM boot + ~2 instances; 4 sequential bursts force
        // evict-to-scale cycles.
        let mut cfg = simple_config(BackendKind::Squeezy, vec![1.0, 1.05, 80.0, 80.05]);
        cfg.keepalive_s = 10.0;
        cfg.host_capacity = 3 * GIB;
        let sim = FaasSim::new(cfg).unwrap();
        let result = sim.run();
        assert_eq!(result.completed, 4, "all served despite pressure");
    }

    #[test]
    fn soft_backend_revokes_idle_memory_under_pressure() {
        // Two co-resident deployments on a tight host: when the second
        // function's burst arrives, the first function's idle instances
        // donate their partitions via soft revocation instead of dying.
        let mut cfg = SimConfig {
            backend: BackendKind::SqueezySoft,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: vec![
                    Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                        arrivals: vec![1.0, 1.05],
                    },
                    Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                        arrivals: vec![40.0, 40.05],
                    },
                ],
                vcpus: Some(2.0),
            }],
            host_capacity: 4 * GIB + 512 * (1 << 20),
            keepalive_s: 300.0, // Longer than the run: no evictions.
            duration_s: 120.0,
            unplug_deadline_ms: 5_000,
            record_latency_points: true,
            seed: 1,
            trial: 0,
        };
        // Calibrate the host so the second burst cannot fit without
        // reclaiming the first burst's idle memory.
        cfg.host_capacity = 3 * GIB;
        let sim = FaasSim::new(cfg).unwrap();
        let result = sim.run();
        assert_eq!(result.completed, 4, "all served under pressure");
        let r = result.total_reclaims();
        assert!(r.ops >= 1, "soft revocations reclaimed idle memory");
        assert_eq!(r.pages_migrated, 0, "revocation is migration-free");
    }

    #[test]
    fn soft_backend_rebuilds_hollow_instances() {
        // Same function, two bursts; pressure between them revokes the
        // idle instances, and the second burst rebuilds them (soft-cold
        // start) rather than paying full cold starts.
        let mut cfg = simple_config(BackendKind::SqueezySoft, vec![1.0, 1.05, 60.0, 60.05]);
        cfg.keepalive_s = 300.0;
        cfg.host_capacity = 3 * GIB;
        let sim = FaasSim::new(cfg).unwrap();
        let result = sim.run();
        assert_eq!(result.completed, 4);
        let m = &result.per_func[&FunctionKind::Html];
        // The second burst found the instances alive (hollow or warm):
        // at most the two initial cold starts are full ones.
        assert_eq!(m.cold_starts + m.warm_starts, 4);
    }

    #[test]
    fn soft_backend_without_pressure_behaves_like_squeezy() {
        let soft = FaasSim::new(simple_config(BackendKind::SqueezySoft, vec![1.0, 6.0]))
            .unwrap()
            .run();
        let base = FaasSim::new(simple_config(BackendKind::Squeezy, vec![1.0, 6.0]))
            .unwrap()
            .run();
        assert_eq!(soft.completed, base.completed);
        let ls = soft.per_func[&FunctionKind::Html].latency_points[1].1;
        let lb = base.per_func[&FunctionKind::Html].latency_points[1].1;
        let ratio = ls / lb;
        assert!(
            (0.9..1.1).contains(&ratio),
            "warm path unchanged: {ls} vs {lb}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = FaasSim::new(simple_config(BackendKind::VirtioMem, vec![1.0, 2.0, 3.0]))
            .unwrap()
            .run();
        let b = FaasSim::new(simple_config(BackendKind::VirtioMem, vec![1.0, 2.0, 3.0]))
            .unwrap()
            .run();
        assert_eq!(a.completed, b.completed);
        let la: Vec<_> = a.per_func[&FunctionKind::Html]
            .latency_points
            .iter()
            .map(|&(_, l)| l.to_bits())
            .collect();
        let lb: Vec<_> = b.per_func[&FunctionKind::Html]
            .latency_points
            .iter()
            .map(|&(_, l)| l.to_bits())
            .collect();
        assert_eq!(la, lb);
    }
}
