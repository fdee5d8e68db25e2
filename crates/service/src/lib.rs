//! `mnpu-service`: the always-on simulation service behind
//! `mnpu-serviced`.
//!
//! The rest of the workspace runs simulations as batch processes: build a
//! request, run it, exit. This crate keeps a simulator *resident* — a
//! std-only daemon (threads and TCP, no async runtime) that accepts
//! [`RunRequest`](mnpusim::RunRequest)-shaped jobs as JSON over HTTP/1.1
//! and executes them on a bounded worker pool:
//!
//! * `POST /v1/jobs` — submit; `202` with a job id, or `429` +
//!   `Retry-After` when the admission queue is at its bound;
//! * `GET /v1/jobs/<id>` — status and lifecycle timeline;
//! * `GET /v1/jobs/<id>/report` — the result, byte-identical to what an
//!   in-process facade run of the same body would produce;
//! * `GET /v1/jobs/<id>/checkpoint` — the resumable checkpoint of a
//!   cancelled / over-budget / drained job (resubmit it under `resume`);
//! * `DELETE /v1/jobs/<id>` — cancel (running jobs checkpoint first);
//! * `GET /v1/jobs/<id>/progress` — live progress: cycles simulated,
//!   lifecycle phase, stall attribution, sim-cycles/sec;
//! * `GET /v1/jobs/<id>/flight` — the job's flight-recorder ring (the
//!   same black box dumped to `flight-<id>.json` on abnormal stops);
//! * `GET /v1/jobs/<id>/trace` — the ring as a Chrome-trace document
//!   (load in `chrome://tracing` / Perfetto);
//! * `GET /v1/version` — build identity, snapshot format version, and
//!   the state of the determinism escape hatches;
//! * `GET /metrics` — Prometheus text exposition: counters, queue
//!   gauges, latency and queue-depth histograms, simulator internals.
//!
//! The load-bearing invariant is inherited from the snapshot subsystem:
//! **stopping never changes the answer**. Cancellation, wall-clock budgets
//! and the SIGTERM drain all stop jobs at bit-exact checkpoint boundaries
//! ([`Runner::run_with`](mnpusim::Runner::run_with)), so no
//! accepted work is ever silently lost — it either finishes, or comes back
//! as a checkpoint that finishes later with identical bytes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod jobs;
pub mod queue;
pub mod server;
pub mod signal;
pub mod wire;

pub use jobs::{JobRecord, JobState, JobTable};
pub use queue::{Admission, AdmissionQueue};
pub use server::{DrainReport, Service, ServiceConfig};
pub use wire::{parse_job, ExecPlan, WireError, WireJob};
