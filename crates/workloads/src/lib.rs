//! Workload models for the Squeezy evaluation.
//!
//! * [`functions`] — the Table-1 serverless functions (CNN, Bert, BFS,
//!   HTML) with vCPU shares, memory limits and anon/file footprint
//!   splits;
//! * [`memhog`] — the memhog microbenchmark driving Figures 5-7;
//! * [`trace`] — Azure-like bursty invocation trace synthesis;
//! * [`cluster`] — Zipf-skewed multi-tenant mixes for the cluster
//!   simulator;
//! * [`churn`] — the Figure-2 creations/evictions-per-minute analysis;
//! * [`registry`] — the named workload registry the scenario specs
//!   resolve against (`workload = diurnal`);
//! * [`source`] — streaming trace ingestion: the [`TraceSource`] trait
//!   plus file parsers/writers and generator adapters, so
//!   multi-million-invocation replays stay memory-bounded.

pub mod churn;
pub mod cluster;
pub mod functions;
pub mod memhog;
pub mod registry;
pub mod source;
pub mod trace;

pub use churn::{analyze_churn, ChurnResult, MinuteChurn};
pub use cluster::{DiurnalConfig, MultiTenantConfig, TenantLoad};
pub use functions::{FunctionKind, FunctionProfile};
pub use memhog::Memhog;
pub use registry::{WorkloadKind, WorkloadParams};
pub use source::{
    open_trace, read_trace_header, render_azure_minute, render_opendc, sample_azure_3day,
    sample_opendc, validate_trace, Arrival, AzureMinuteSource, MaterializedSource, OpenDcRow,
    OpenDcSource, TraceError, TraceFormat, TraceHeader, TraceSource, TraceStats, MAX_ROW_ARRIVALS,
    TRACE_MAGIC,
};
pub use trace::{bursty_arrivals, zipf_function_traces, BurstyTraceConfig};
