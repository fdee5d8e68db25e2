//! Multi-core NPU execution engine — the *HW simulator* half of mNPUsim.
//!
//! The engine replays per-core [`mnpu_systolic::WorkloadTrace`]s against a
//! shared memory system built from [`mnpu_dram`] and [`mnpu_mmu`],
//! modeling:
//!
//! * the double-buffered tile pipeline (load *i+1* overlaps compute *i*,
//!   store *i* overlaps compute *i+1*, layer barrier for cross-layer RAW);
//! * per-transaction address translation (TLB lookup, page-table walks whose
//!   per-level reads consume real DRAM bandwidth, walk coalescing);
//! * dynamic contention on the three shareable resources — DRAM bandwidth,
//!   page-table walkers, TLB capacity — under the paper's sharing levels
//!   [`SharingLevel::Static`], [`SharingLevel::PlusD`],
//!   [`SharingLevel::PlusDw`], [`SharingLevel::PlusDwt`], plus the
//!   monopolized [`SharingLevel::Ideal`] baseline;
//! * arbitrary static partitions of channels and walkers for the paper's
//!   Figs. 9/10/13/14 sweeps;
//! * per-core clock domains (core-local compute cycles are converted to the
//!   global DRAM clock).
//!
//! [`SystemConfig::memory`] picks the memory backend: the banked
//! [`mnpu_dram::Dram`] model, driven directly ([`MemoryModel::Timing`], the
//! default), or a fixed-latency, infinite-bandwidth ideal memory
//! ([`MemoryModel::Ideal`]).
//!
//! The loop is event-driven: between events the clock jumps, so compute-bound
//! phases and idle memory cost nothing.
//!
//! Each simulation is single-threaded; [`FanOut`] is the workspace's one
//! way to run many independent simulations on worker threads, with
//! results that do not depend on the worker count.
//!
//! # Example
//!
//! ```
//! use mnpu_engine::{SystemConfig, SharingLevel, Simulation};
//! use mnpu_model::{zoo, Scale};
//!
//! // Run the ncf+ncf dual-core mix with everything shared (+DWT).
//! let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
//! let nets = [zoo::ncf(Scale::Bench), zoo::ncf(Scale::Bench)];
//! let report = Simulation::execute_networks(&cfg, &nets);
//! assert_eq!(report.cores.len(), 2);
//! assert!(report.cores[0].cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod core_rt;
mod emit;
mod fanout;
mod json;
mod memmap;
mod memory;
mod report;
mod shadow;
mod sharing;
mod sim;
mod snapshot;
mod stage;
mod system;

pub use emit::{Emit, Format};
pub use fanout::FanOut;
pub use memmap::PageTable;
pub use memory::MemoryModel;
pub use report::{ChipEnergy, CoreReport, EnergyModel, LogEvent, LogKind, RunReport};
pub use sharing::SharingLevel;
pub use sim::{Advance, Simulation};
pub use snapshot::{config_fingerprint, trace_fingerprint};
pub use stage::expected_data_transactions;
pub use system::{ConfigError, ProbeMode, SystemConfig};

// Re-exported so snapshot consumers (sweep executors, schedulers, external
// tools) need no direct `mnpu_snapshot` dependency for the common flow.
pub use mnpu_snapshot::{SimSnapshot, SnapError, SNAPSHOT_VERSION};

// The observability vocabulary is part of the engine's public API surface:
// callers matching on probe events or reading [`RunReport::stats`] should
// not need a separate `mnpu_probe` dependency.
pub use mnpu_probe::{
    CoreState, CoreStats, DramContention, Event, Histogram, JobSpan, NullProbe, Phase, Probe,
    SchedStats, Span, StallBreakdown, StatsProbe, StatsReport,
};

// Likewise for the runtime-observability vocabulary behind
// [`ProbeMode::Flight`]: drivers install a [`TraceHandle`] and dispatch
// over [`FlightProbe`] without a direct `mnpu_trace` dependency.
pub use mnpu_trace::{FlightProbe, TraceHandle};
