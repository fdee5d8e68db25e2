//! The one-line import for simulator programs.
//!
//! `use mnpusim::prelude::*;` brings in the [`RunRequest`] facade and the
//! handful of types almost every program touches: the configuration
//! surface, the reports each run shape produces, and the workload types
//! requests are built from.
//!
//! ```
//! use mnpusim::prelude::*;
//! use mnpusim::{zoo, Scale};
//!
//! let cfg = SystemConfig::bench(1, SharingLevel::Static);
//! let report = RunRequest::networks(&cfg, vec![zoo::ncf(Scale::Bench)]).run().batch();
//! assert_eq!(report.cores.len(), 1);
//! ```

pub use crate::job::{JobCheckpoint, RunControl, RunProgress};
pub use crate::run::{RequestError, RunOutcome, RunRequest, Runner};
pub use mnpu_config::{ArrivalSpec, JobSpec, PolicySpec, ScenarioSpec};
pub use mnpu_engine::{
    ConfigError, Emit, Format, ProbeMode, RunReport, SharingLevel, SimSnapshot, Simulation,
    SnapError, SystemConfig,
};
pub use mnpu_model::{Network, Scale};
pub use mnpu_sched::{JobRecord, ServeReport};
pub use mnpu_systolic::{ArchConfig, WorkloadTrace};
