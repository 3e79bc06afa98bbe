//! Simulation configuration: deployments, backends, host limits.

use workloads::FunctionKind;

/// Which memory-elasticity backend the runtime drives (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// Statically over-provisioned N:1 VM: all memory plugged at boot and
    /// never reclaimed (the Figure-1 motivation baseline).
    Static,
    /// Vanilla virtio-mem hot-unplug with migrations.
    VirtioMem,
    /// virtio-mem + HarvestVM optimizations: proactive reclamation and a
    /// reserved memory buffer (§6.2.2).
    HarvestOpts,
    /// Squeezy partitions with instant partition-aware unplug.
    Squeezy,
    /// Squeezy plus §7 soft memory: idle instances' partitions are
    /// revocable under host pressure without evicting the instances;
    /// revoked instances re-plug and rebuild on their next request.
    SqueezySoft,
}

impl BackendKind {
    /// All backends, in evaluation order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Static,
        BackendKind::VirtioMem,
        BackendKind::HarvestOpts,
        BackendKind::Squeezy,
        BackendKind::SqueezySoft,
    ];

    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Static => "Static",
            BackendKind::VirtioMem => "Virtio-mem",
            BackendKind::HarvestOpts => "HarvestVM-opts",
            BackendKind::Squeezy => "Squeezy",
            BackendKind::SqueezySoft => "Squeezy+soft",
        }
    }

    /// Lowercase registry key used by scenario spec files
    /// (`backend = squeezy, virtio-mem`).
    pub fn key(self) -> &'static str {
        match self {
            BackendKind::Static => "static",
            BackendKind::VirtioMem => "virtio-mem",
            BackendKind::HarvestOpts => "harvest",
            BackendKind::Squeezy => "squeezy",
            BackendKind::SqueezySoft => "squeezy-soft",
        }
    }

    /// Looks a backend up by its registry key; `Err` carries the full
    /// list of valid keys.
    pub fn from_key(key: &str) -> Result<BackendKind, String> {
        sim_core::registry::lookup("backend", &BackendKind::ALL, BackendKind::key, key)
    }

    /// Returns `true` for the backends that install a Squeezy manager.
    pub fn is_squeezy(self) -> bool {
        matches!(self, BackendKind::Squeezy | BackendKind::SqueezySoft)
    }
}

/// HarvestVM-opts parameters.
#[derive(Clone, Copy, Debug)]
pub struct HarvestConfig {
    /// Target size of the reserved slack buffer (host bytes).
    pub buffer_bytes: u64,
    /// Extra idle instances proactively evicted per scale-down event.
    pub proactive_evictions: u32,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig {
            buffer_bytes: 2 * 1024 * 1024 * 1024,
            proactive_evictions: 2,
        }
    }
}

/// One function deployed on a VM, with its invocation trace.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The function (Table 1).
    pub kind: FunctionKind,
    /// Max concurrent instances of this function on its VM (the paper
    /// calibrates N to the trace's peak concurrency, 9-36).
    pub concurrency: u32,
    /// Sorted arrival times in seconds.
    pub arrivals: Vec<f64>,
}

/// One N:1 VM hosting one or more deployments (Figure 9 co-locates two).
#[derive(Clone, Debug)]
pub struct VmSpec {
    /// Functions hosted by this VM.
    pub deployments: Vec<Deployment>,
    /// vCPUs assigned; `None` derives `max(1, ceil(Σ shares × N))`.
    pub vcpus: Option<f64>,
}

impl VmSpec {
    /// Derived vCPU count (§5.1: vCPUs follow the CPU shares of the
    /// target function and the max concurrency factor).
    pub fn effective_vcpus(&self) -> f64 {
        self.vcpus.unwrap_or_else(|| {
            let total: f64 = self
                .deployments
                .iter()
                .map(|d| d.kind.profile().vcpu_shares * d.concurrency as f64)
                .sum();
            total.ceil().max(1.0)
        })
    }
}

/// Whole-simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Elasticity backend driven by the runtime.
    pub backend: BackendKind,
    /// HarvestVM-opts parameters (used when `backend == HarvestOpts`).
    pub harvest: HarvestConfig,
    /// The N:1 VMs and their deployments.
    pub vms: Vec<VmSpec>,
    /// Host physical memory capacity in bytes.
    pub host_capacity: u64,
    /// Keep-alive window before evicting idle instances (the paper's
    /// agent uses 2 minutes).
    pub keepalive_s: f64,
    /// Simulated duration (arrivals past this are ignored).
    pub duration_s: f64,
    /// virtio-mem unplug deadline (reclaim timeout) in milliseconds.
    pub unplug_deadline_ms: u64,
    /// Record one `(arrival, latency)` point per completed request in
    /// [`crate::FuncMetrics::latency_points`] (needed only by
    /// time-resolved plots like Figure 9). Opt-in: long cluster runs
    /// leave this off so memory stays bounded by the sample count of
    /// the aggregate histograms, not the request count.
    pub record_latency_points: bool,
    /// RNG seed for execution-time jitter.
    pub seed: u64,
    /// Trial number within a repeated experiment. The simulation's
    /// jitter stream is *derived* as `DetRng::new(seed).derive(trial)`,
    /// never hardcoded, so trial `t` of an experiment is reproducible in
    /// isolation and independent of every other trial.
    pub trial: u64,
}

impl SimConfig {
    /// A single-VM configuration with sensible defaults.
    pub fn single_vm(backend: BackendKind, deployment: Deployment, duration_s: f64) -> Self {
        SimConfig {
            backend,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: vec![deployment],
                vcpus: None,
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 120.0,
            duration_s,
            unplug_deadline_ms: 5_000,
            record_latency_points: true,
            seed: 42,
            trial: 0,
        }
    }

    /// Returns this configuration's derived jitter stream.
    pub fn jitter_rng(&self) -> sim_core::DetRng {
        sim_core::DetRng::new(self.seed).derive(self.trial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_vcpus_from_shares() {
        let spec = VmSpec {
            deployments: vec![Deployment {
                kind: FunctionKind::Html, // 0.25 shares
                concurrency: 10,
                arrivals: vec![],
            }],
            vcpus: None,
        };
        assert_eq!(spec.effective_vcpus(), 3.0, "ceil(0.25 * 10)");
        let spec2 = VmSpec {
            deployments: spec.deployments.clone(),
            vcpus: Some(8.0),
        };
        assert_eq!(spec2.effective_vcpus(), 8.0);
    }

    #[test]
    fn backend_names() {
        assert_eq!(BackendKind::Squeezy.name(), "Squeezy");
        assert_eq!(BackendKind::VirtioMem.name(), "Virtio-mem");
    }

    #[test]
    fn trial_derives_distinct_jitter_streams() {
        let base = SimConfig::single_vm(
            BackendKind::Squeezy,
            Deployment {
                kind: FunctionKind::Html,
                concurrency: 1,
                arrivals: vec![],
            },
            10.0,
        );
        let mut t0 = base.jitter_rng();
        let mut t1 = SimConfig { trial: 1, ..base }.jitter_rng();
        let a: Vec<u64> = (0..16).map(|_| t0.range(0, 1 << 30)).collect();
        let b: Vec<u64> = (0..16).map(|_| t1.range(0, 1 << 30)).collect();
        assert_ne!(a, b, "trials draw from independent streams");
    }

    #[test]
    fn single_vm_defaults() {
        let cfg = SimConfig::single_vm(
            BackendKind::Squeezy,
            Deployment {
                kind: FunctionKind::Cnn,
                concurrency: 4,
                arrivals: vec![1.0],
            },
            100.0,
        );
        assert_eq!(cfg.vms.len(), 1);
        assert_eq!(cfg.keepalive_s, 120.0);
        assert!(cfg.host_capacity > 1 << 50, "effectively unlimited");
    }
}
