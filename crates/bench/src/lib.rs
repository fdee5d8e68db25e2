//! Experiment harness regenerating every figure of the mNPUsim paper.
//!
//! Each figure has one markdown table ([`figures::Table`]): its `figNN_*`
//! bench target (a plain-harness binary under `benches/`) calls one
//! function from [`figures`] and prints that table, and the `mnpu_report`
//! binary writes the same tables by iterating [`figures::FIGURES`]. Every
//! figure that reads cycles runs its simulations through [`run_mixes`]'s
//! fan-out first. The [`harness`] module provides the shared machinery:
//! the workload zoo at the active scale, Ideal baselines, mix enumeration
//! and a per-process run cache so that figures sharing sweeps (e.g. Figs. 4
//! and 6 both need the 36-mix dual sweep) don't re-simulate within one
//! `mnpu_report` run. The [`history`] module keeps the `BENCH_*.json` perf
//! trajectories the `mnpu_hotpath` and `mnpu_serve` binaries append to.
//!
//! Environment knobs (read once per process):
//!
//! * `MNPU_FULL=1` — run the *full* quad-core (330 mixes) and mapping
//!   (6435 multisets) sweeps instead of the deterministic samples;
//! * `MNPU_QUAD_STRIDE=k` — sample every *k*-th quad mix (default 10);
//! * `MNPU_JOBS=n` — worker threads for [`mnpu_engine::FanOut`], the one
//!   fan-out that every sweep driver ([`run_counts`], [`run_mixes`] and
//!   the figure sweeps, the `mnpu_serve` scenario list) and the serve
//!   predictor's set-up go through (default: available parallelism;
//!   `1` = serial on the calling thread; a fan-out started inside a
//!   fan-out unit runs inline). Results are byte-identical for any `n`; wall times are not,
//!   so report them with the worker count and
//!   [`std::thread::available_parallelism`];
//! * `MNPU_NO_PREFIX_SHARE=1` — disable warm-start prefix sharing (the
//!   [`prefix`] module), forcing every sweep point to simulate from
//!   cycle 0. Results are bit-exact either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod history;
pub mod prefix;
pub mod sweeps;

pub use harness::Harness;
pub use prefix::{plan_units, prefix_share_enabled, SweepUnit};
pub use sweeps::{run_counts, run_counts_observed, run_mixes, SweepCounts, SweepRequest};
