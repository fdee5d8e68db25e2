//! Co-runner interference prediction and workload mapping (paper §4.6).
//!
//! When several multi-core NPUs serve heterogeneous models, *which* models
//! are paired on the same chip determines both throughput and fairness. The
//! paper proposes a simple profile-based predictor:
//!
//! 1. profile each workload solo (PE utilization, memory traffic per
//!    execution, execution time) — [`WorkloadProfile`];
//! 2. fit a multi-factor linear regression from the two co-runners'
//!    profiles to each one's slowdown — [`SlowdownModel`], trained on
//!    *randomly generated* networks (DeepSniffer-style, via
//!    [`mnpu_model::randnet`]) to avoid overfitting the evaluation set;
//! 3. for every candidate assignment of 8 workloads to 4 dual-core chips
//!    (a perfect matching, [`mapping::perfect_matchings`]), predict system
//!    performance and schedule the best-looking one.
//!
//! The regression itself is an ordinary least-squares fit with a small ridge
//! term ([`linreg::LinearModel`]) — no external linear-algebra crates.
//! Profiles and trained models are memoized per process
//! ([`PredictorMemo`]), so the serve policy and the mapping study each
//! simulate a given set-up once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linreg;
pub mod mapping;
mod memo;
mod model;
mod profile;

pub use memo::PredictorMemo;
pub use model::{SlowdownModel, TrainingSample};
pub use profile::WorkloadProfile;
