//! The serverless functions of Table 1 and their resource profiles.
//!
//! The paper evaluates four functions — CNN (FunctionBench JPEG
//! classification), Bert (ML inference), BFS (graph traversal) and HTML
//! (web serving) — with the vCPU shares and memory limits of Table 1.
//! The footprint split between anonymous memory and file-backed
//! dependencies follows §5.1: BFS is anonymous-heavy, while HTML, Bert
//! and CNN lean on file-backed page cache; Bert has the largest runtime
//! dependencies (§6.3 "Workloads with larger dependencies (e.g., Bert)
//! suffer the most").

use guest_mm::FileId;
use mem_types::{ByteSize, MIB};

/// Identifier of a function type in the evaluation set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FunctionKind {
    /// Web service endpoint (low CPU share).
    Html,
    /// JPEG classification CNN.
    Cnn,
    /// Breadth-first search over a generated graph.
    Bfs,
    /// BERT ML inference.
    Bert,
}

impl FunctionKind {
    /// All Table-1 functions, in the paper's column order.
    pub const ALL: [FunctionKind; 4] = [
        FunctionKind::Html,
        FunctionKind::Cnn,
        FunctionKind::Bfs,
        FunctionKind::Bert,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FunctionKind::Html => "HTML",
            FunctionKind::Cnn => "Cnn",
            FunctionKind::Bfs => "BFS",
            FunctionKind::Bert => "Bert",
        }
    }

    /// Lowercase registry key used by scenario spec files
    /// (`slo.html = 500`).
    pub fn key(self) -> &'static str {
        match self {
            FunctionKind::Html => "html",
            FunctionKind::Cnn => "cnn",
            FunctionKind::Bfs => "bfs",
            FunctionKind::Bert => "bert",
        }
    }

    /// Looks a function up by its registry key; `Err` carries the full
    /// list of valid keys.
    pub fn from_key(key: &str) -> Result<FunctionKind, String> {
        sim_core::registry::lookup("function", &FunctionKind::ALL, FunctionKind::key, key)
    }

    /// Returns the full resource/behaviour profile.
    pub fn profile(self) -> FunctionProfile {
        match self {
            FunctionKind::Html => FunctionProfile {
                kind: self,
                vcpu_shares: 0.25,
                memory_limit: ByteSize::mib(768),
                anon_bytes: 200 * MIB,
                deps_bytes: 160 * MIB,
                rootfs_bytes: 48 * MIB,
                container_init_cpu_s: 0.55,
                function_init_cpu_s: 0.35,
                exec_cpu_s: 0.055,
            },
            FunctionKind::Cnn => FunctionProfile {
                kind: self,
                vcpu_shares: 1.0,
                memory_limit: ByteSize::mib(768),
                anon_bytes: 280 * MIB,
                deps_bytes: 280 * MIB,
                rootfs_bytes: 64 * MIB,
                container_init_cpu_s: 0.6,
                function_init_cpu_s: 0.9,
                exec_cpu_s: 0.35,
            },
            FunctionKind::Bfs => FunctionProfile {
                kind: self,
                vcpu_shares: 1.0,
                memory_limit: ByteSize::mib(768),
                anon_bytes: 420 * MIB,
                deps_bytes: 90 * MIB,
                rootfs_bytes: 40 * MIB,
                container_init_cpu_s: 0.5,
                function_init_cpu_s: 0.45,
                exec_cpu_s: 0.5,
            },
            FunctionKind::Bert => FunctionProfile {
                kind: self,
                vcpu_shares: 1.0,
                memory_limit: ByteSize::mib(1536),
                anon_bytes: 420 * MIB,
                deps_bytes: 720 * MIB,
                rootfs_bytes: 72 * MIB,
                container_init_cpu_s: 0.7,
                function_init_cpu_s: 1.6,
                exec_cpu_s: 0.8,
            },
        }
    }

    /// File id of the function's runtime/language dependencies.
    pub fn deps_file(self) -> FileId {
        FileId(100 + self as u32 * 2)
    }

    /// File id of the function's container root filesystem.
    pub fn rootfs_file(self) -> FileId {
        FileId(101 + self as u32 * 2)
    }
}

/// Resource limits and behaviour of one function (Table 1 + §5.1).
#[derive(Clone, Copy, Debug)]
pub struct FunctionProfile {
    /// Which function this is.
    pub kind: FunctionKind,
    /// vCPU shares per instance (Table 1).
    pub vcpu_shares: f64,
    /// User-defined memory limit per instance (Table 1) — this becomes
    /// the Squeezy partition size.
    pub memory_limit: ByteSize,
    /// Private anonymous working set per instance.
    pub anon_bytes: u64,
    /// File-backed runtime/language dependencies (shared across
    /// instances in the N:1 model).
    pub deps_bytes: u64,
    /// Container root filesystem read during sandbox creation.
    pub rootfs_bytes: u64,
    /// CPU work of container (sandbox) initialization, in cpu-seconds.
    pub container_init_cpu_s: f64,
    /// CPU work of runtime + function initialization, in cpu-seconds.
    pub function_init_cpu_s: f64,
    /// CPU work per request execution, in cpu-seconds.
    pub exec_cpu_s: f64,
}

impl FunctionProfile {
    /// Anonymous working set in pages.
    pub fn anon_pages(&self) -> u64 {
        self.anon_bytes / mem_types::PAGE_SIZE
    }

    /// Dependency footprint in pages.
    pub fn deps_pages(&self) -> u64 {
        self.deps_bytes / mem_types::PAGE_SIZE
    }

    /// Rootfs footprint in pages.
    pub fn rootfs_pages(&self) -> u64 {
        self.rootfs_bytes / mem_types::PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_limits_match_paper() {
        assert_eq!(
            FunctionKind::Html.profile().memory_limit,
            ByteSize::mib(768)
        );
        assert_eq!(FunctionKind::Cnn.profile().memory_limit, ByteSize::mib(768));
        assert_eq!(FunctionKind::Bfs.profile().memory_limit, ByteSize::mib(768));
        assert_eq!(
            FunctionKind::Bert.profile().memory_limit,
            ByteSize::mib(1536)
        );
        assert_eq!(FunctionKind::Html.profile().vcpu_shares, 0.25);
        assert_eq!(FunctionKind::Bert.profile().vcpu_shares, 1.0);
    }

    #[test]
    fn profiles_fit_their_limits() {
        for k in FunctionKind::ALL {
            let p = k.profile();
            assert!(p.anon_bytes <= p.memory_limit.bytes(), "{}", k.name());
        }
    }

    #[test]
    fn bfs_is_anon_heavy_others_file_heavy() {
        let bfs = FunctionKind::Bfs.profile();
        assert!(bfs.anon_bytes > bfs.deps_bytes);
        for k in [FunctionKind::Html, FunctionKind::Cnn, FunctionKind::Bert] {
            let p = k.profile();
            assert!(
                p.deps_bytes * 2 > p.anon_bytes,
                "{} should lean on the page cache",
                k.name()
            );
        }
    }

    #[test]
    fn bert_has_largest_dependencies() {
        let bert = FunctionKind::Bert.profile().deps_bytes;
        for k in [FunctionKind::Html, FunctionKind::Cnn, FunctionKind::Bfs] {
            assert!(bert > k.profile().deps_bytes);
        }
    }

    #[test]
    fn file_ids_are_distinct() {
        let mut ids: Vec<u32> = FunctionKind::ALL
            .iter()
            .flat_map(|k| [k.deps_file().0, k.rootfs_file().0])
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
