//! The unified run facade: one builder for every way to run the simulator.
//!
//! [`RunRequest`] describes a batch run (one trace or network per core) or
//! a dynamic serve scenario, validates it into a [`Runner`], and runs it:
//!
//! ```
//! use mnpusim::prelude::*;
//! use mnpusim::{zoo, Scale};
//!
//! let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
//! let nets = vec![zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)];
//! let report = RunRequest::networks(&cfg, nets).run().batch();
//! assert_eq!(report.cores.len(), 2);
//! ```
//!
//! Every run — straight, controlled, observed or resumed — goes through
//! the one chunked drive behind [`Runner::run_with`], which steps the
//! engine's one event loop ([`mnpu_engine::Simulation::advance`]), so a
//! facade run is byte-identical to [`mnpu_engine::Simulation::execute`]
//! and [`mnpu_sched::serve`]; `tests/facade.rs` fences that under every
//! probe mode.

use crate::job::RunControl;
use mnpu_config::ScenarioSpec;
use mnpu_engine::{ConfigError, RunReport, SystemConfig};
use mnpu_model::Network;
use mnpu_sched::ServeReport;
use mnpu_systolic::WorkloadTrace;

/// What to run: one variant per request shape.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    /// One pre-generated trace per core.
    Traces(SystemConfig, Vec<WorkloadTrace>),
    /// One network per core; traces are generated with each core's
    /// [`mnpu_systolic::ArchConfig`].
    Networks(SystemConfig, Vec<Network>),
    /// A dynamic multi-tenant serve scenario (arrivals + placement policy).
    Serve(Box<ScenarioSpec>),
}

/// A single description of a simulation run, whatever its shape.
///
/// Build one with [`RunRequest::traces`], [`RunRequest::networks`] or
/// [`RunRequest::serve`], then either [`build`](RunRequest::build) a
/// validated [`Runner`] or [`run`](RunRequest::run) directly.
#[derive(Debug, Clone)]
pub struct RunRequest {
    pub(crate) payload: Payload,
}

impl RunRequest {
    /// Run `traces[c]` on core `c` of `cfg`.
    pub fn traces(cfg: &SystemConfig, traces: impl Into<Vec<WorkloadTrace>>) -> Self {
        RunRequest { payload: Payload::Traces(cfg.clone(), traces.into()) }
    }

    /// Run `networks[c]` on core `c` of `cfg`, generating each core's trace
    /// from its [`mnpu_systolic::ArchConfig`]. A fleet of independent chips
    /// (the paper's §4.6 multi-chip system) is one such request per chip.
    pub fn networks(cfg: &SystemConfig, networks: impl Into<Vec<Network>>) -> Self {
        RunRequest { payload: Payload::Networks(cfg.clone(), networks.into()) }
    }

    /// Run a dynamic serve scenario — jobs arriving over time, placed by a
    /// scheduling policy (the facade form of [`mnpu_sched::serve`]).
    pub fn serve(spec: ScenarioSpec) -> Self {
        RunRequest { payload: Payload::Serve(Box::new(spec)) }
    }

    /// Validate the request into a [`Runner`].
    ///
    /// Checks the system configuration (via [`SystemConfig::validate`]) and
    /// the request shape: workload counts must match the core count.
    pub fn build(self) -> Result<Runner, RequestError> {
        let shape = |expected: usize, got: usize, what: &'static str| {
            if expected == got {
                Ok(())
            } else {
                Err(RequestError::Shape { what, expected, got })
            }
        };
        match &self.payload {
            Payload::Traces(cfg, traces) => {
                cfg.validate()?;
                shape(cfg.cores, traces.len(), "traces")?;
            }
            Payload::Networks(cfg, nets) => {
                cfg.validate()?;
                shape(cfg.cores, nets.len(), "networks")?;
            }
            Payload::Serve(spec) => spec.system.validate()?,
        }
        Ok(Runner { request: self })
    }

    /// [`build`](RunRequest::build) then [`Runner::run`], panicking on an
    /// invalid request. The ergonomic path for static configurations;
    /// programs assembling configurations at runtime should `build()` and
    /// handle the error.
    ///
    /// # Panics
    ///
    /// Panics if the request fails validation.
    pub fn run(self) -> RunOutcome {
        match self.build() {
            Ok(runner) => runner.run(),
            Err(e) => panic!("invalid run request: {e}"),
        }
    }
}

/// Why a [`RunRequest`] failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The system configuration itself is invalid.
    Config(ConfigError),
    /// A workload list's length disagrees with the core count.
    Shape {
        /// Which list (`"traces"` or `"networks"`).
        what: &'static str,
        /// The configured core count.
        expected: usize,
        /// The supplied length.
        got: usize,
    },
}

impl From<ConfigError> for RequestError {
    fn from(e: ConfigError) -> Self {
        RequestError::Config(e)
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Config(e) => write!(f, "{e}"),
            RequestError::Shape { what, expected, got } => {
                write!(f, "{what}: expected one per core ({expected}), got {got}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// A validated [`RunRequest`], ready to execute.
#[derive(Debug, Clone)]
pub struct Runner {
    pub(crate) request: RunRequest,
}

impl Runner {
    /// Execute the request on this thread and return its outcome:
    /// [`Runner::run_with`] from scratch, unobserved, never stopping.
    ///
    /// Deterministic: the same request always produces the same outcome,
    /// byte for byte.
    pub fn run(self) -> RunOutcome {
        self.run_with(None, None, &mut || RunControl::Continue)
            .expect("a fresh run has no checkpoint to reject")
            .done()
    }
}

/// What a [`Runner`] produced — one variant per request shape.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// A batch run ([`RunRequest::traces`] / [`RunRequest::networks`]).
    Batch(Box<RunReport>),
    /// A serve run: the engine report plus per-job scheduling records.
    Serve(Box<ServeReport>),
}

impl RunOutcome {
    /// The batch report.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`RunOutcome::Batch`].
    pub fn batch(self) -> RunReport {
        match self {
            RunOutcome::Batch(r) => *r,
            RunOutcome::Serve(_) => panic!("expected a batch outcome, got serve"),
        }
    }

    /// The serve report.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`RunOutcome::Serve`].
    pub fn serve(self) -> ServeReport {
        match self {
            RunOutcome::Serve(r) => *r,
            RunOutcome::Batch(_) => panic!("expected a serve outcome, got batch"),
        }
    }

    /// The underlying engine report, whatever the shape: the batch report
    /// or a serve run's engine report.
    pub fn report(&self) -> &RunReport {
        match self {
            RunOutcome::Batch(r) => r,
            RunOutcome::Serve(s) => &s.run,
        }
    }
}
