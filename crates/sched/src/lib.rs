//! Dynamic multi-tenant scheduling on top of the batch engine.
//!
//! The engine executes a fixed set of workloads, one per core, from cycle 0
//! to completion. This crate lifts that into a *serve* model: jobs arrive
//! over (simulated) time, wait in a FIFO queue, get bound to a free core by
//! a pluggable policy, run, and release the core for the next job — the
//! operating mode of a shared NPU pool, where the paper's contention
//! effects show up as *latency* rather than makespan.
//!
//! The moving parts:
//!
//! * [`arrivals`] expands a scenario's arrival pattern into concrete cycles
//!   — a pure function of the scenario (seeded, no wall-clock), so a given
//!   scenario is exactly reproducible;
//! * [`Policy`] picks which queued job goes to which free core
//!   ([`PolicySpec::FirstFree`], [`PolicySpec::RoundRobin`],
//!   [`PolicySpec::Pinned`], and [`PolicySpec::Predictor`], which reuses
//!   `mnpu-predict`'s slowdown model to avoid destructive co-runner
//!   pairings);
//! * [`serve`] drives [`mnpu_engine::Simulation::advance`] between
//!   scheduler decision points and assembles a [`ServeReport`] with
//!   per-job queueing / service / completion latency and p50/p95/p99
//!   distributions.
//!
//! The key invariant, enforced by a golden fixture: a scenario where every
//! job arrives at cycle 0 pinned to its own core produces a [`RunReport`]
//! byte-identical to batch mode — serve mode is a strict superset, not a
//! fork, of the validated engine.
//!
//! # Example
//!
//! ```
//! use mnpu_config::parse_scenario;
//! use mnpu_sched::serve;
//!
//! let spec = parse_scenario(
//!     "demo",
//!     "cores = 2\npattern = fixed:2000\njob = ncf\njob = ncf\njob = ncf\n",
//! )
//! .unwrap();
//! let report = serve(&spec);
//! assert_eq!(report.jobs.len(), 3);
//! // arrival + queueing + service = completion, exactly, for every job.
//! for j in &report.jobs {
//!     assert_eq!(j.arrival + j.queueing() + j.service(), j.completion);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod policy;
mod report;
mod server;

pub use arrival::arrivals;
pub use policy::Policy;
pub use report::{JobRecord, ServeReport};
pub use server::{scenario_fingerprint, serve, ServeSession, ServeSnapshot};

// Re-export the scenario vocabulary so scheduler callers need only this
// crate and `mnpu-config`'s parser entry points.
pub use mnpu_config::{ArrivalSpec, JobSpec, PolicySpec, ScenarioSpec};
pub use mnpu_engine::RunReport;
