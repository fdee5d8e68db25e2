//! # mNPUsim-rs
//!
//! A cycle-level, multi-core NPU simulator with detailed shared-memory
//! modeling — a from-scratch Rust reproduction of *mNPUsim: Evaluating the
//! Effect of Sharing Resources in Multi-core NPUs* (IISWC 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — DNN layers, im2col lowering, the eight-benchmark zoo and
//!   random network generation;
//! * [`systolic`] — the output-stationary systolic-array timing model, SPM
//!   tiling, and the per-tile memory-trace generator;
//! * [`dram`] — an event-driven, command-level DRAM simulator (FR-FCFS,
//!   bank groups, refresh, channel partitioning);
//! * [`mmu`] — NeuMMU-style TLBs and page-table walkers with walk
//!   coalescing and shared/partitioned pools;
//! * [`engine`] — the multi-core execution engine tying it all together
//!   under the paper's sharing levels (`Ideal`/`Static`/`+D`/`+DW`/`+DWT`);
//! * [`metrics`] — speedup, the Eq. 1 fairness metric, CDFs, box stats;
//! * [`predict`] — the §4.6 co-runner slowdown predictor and mapping search;
//! * [`sched`] — dynamic multi-tenant serving (arrivals, placement
//!   policies, resumable serve sessions);
//! * [`config`] — file-based configuration loading in the original
//!   simulator's formats.
//!
//! The most common types are re-exported at the crate root, and
//! [`prelude`] bundles the working set — including the [`RunRequest`]
//! facade, the single entry point for every run shape.
//!
//! # Quickstart
//!
//! Every run shape — batch or serve — goes through one builder, the
//! [`RunRequest`] facade (see [`run`] and [`prelude`]):
//!
//! ```
//! use mnpusim::prelude::*;
//! use mnpusim::{zoo, Scale};
//!
//! // Simulate ncf and gpt2 sharing a dual-core NPU with everything shared.
//! let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
//! let nets = vec![zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)];
//! let report = RunRequest::networks(&cfg, nets).run().batch();
//! for core in &report.cores {
//!     println!("{}: {} cycles ({:.1}% PE util)", core.workload, core.cycles,
//!              core.pe_utilization * 100.0);
//! }
//! ```
//!
//! See `examples/` for complete studies and `crates/bench/benches/` for the
//! per-figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod prelude;
pub mod run;

pub use mnpu_config as config;
pub use mnpu_dram as dram;
pub use mnpu_engine as engine;
pub use mnpu_metrics as metrics;
pub use mnpu_mmu as mmu;
pub use mnpu_model as model;
pub use mnpu_predict as predict;
pub use mnpu_sched as sched;
pub use mnpu_systolic as systolic;

pub use job::{JobCheckpoint, RunControl, RunProgress, JOB_CHECKPOINT_VERSION};
pub use mnpu_trace as trace;
pub use run::{RequestError, RunOutcome, RunRequest, Runner};

pub use mnpu_dram::{Dram, DramConfig};
pub use mnpu_engine::{
    ConfigError, Emit, Format, ProbeMode, RunReport, SharingLevel, SimSnapshot, Simulation,
    SnapError, StatsReport, SystemConfig,
};
pub use mnpu_metrics::{fairness, geomean, BoxStats, Cdf, Speedup};
pub use mnpu_mmu::{Mmu, MmuConfig};
pub use mnpu_model::{zoo, Layer, Network, Scale};
pub use mnpu_predict::{SlowdownModel, WorkloadProfile};
pub use mnpu_systolic::{ArchConfig, WorkloadTrace};
