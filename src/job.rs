//! Controlled execution: run a [`Runner`] with an external stop signal,
//! checkpoint where it stops, and resume later — the primitive a
//! long-lived service builds cancellation, wall-clock budgets and graceful
//! drain out of.
//!
//! [`Runner::run_with`] is the facade's one drive; [`Runner::run`] is that
//! drive with nothing to resume, nothing watching, and a callback that
//! never stops. The drive consults its poll callback at every safe
//! boundary (a parked chunk of a batch run, a scheduler decision point of
//! a serve run); when the callback asks for a stop, the run is
//! snapshotted into a [`JobCheckpoint`] instead of being thrown away, and
//! handing that checkpoint back to `run_with` finishes it — in the same
//! process or, via [`JobCheckpoint::to_json`], any other one. The contract
//! is the one that fenced the snapshot subsystem: *stopping never changes
//! the answer*. A run completed across any number of checkpoint/resume
//! round-trips emits a report byte-identical to the uninterrupted run.
//!
//! ```
//! use mnpusim::prelude::*;
//! use mnpusim::{zoo, Scale};
//!
//! let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
//! let nets = vec![zoo::ncf(Scale::Bench)];
//! let straight = RunRequest::networks(&cfg, nets.clone()).run().batch();
//!
//! // Stop at the first safe boundary, checkpoint, resume to completion.
//! let runner = RunRequest::networks(&cfg, nets.clone()).build().unwrap();
//! let stopped = runner.run_with(None, None, &mut || RunControl::Checkpoint).unwrap();
//! let runner = RunRequest::networks(&cfg, nets).build().unwrap();
//! let resumed = runner
//!     .run_with(Some(stopped.checkpoint()), None, &mut || RunControl::Continue)
//!     .unwrap();
//! assert_eq!(resumed.done().batch().to_json(), straight.to_json());
//! ```

use crate::run::{Payload, RunOutcome, Runner};
use mnpu_config::ScenarioSpec;
use mnpu_engine::{
    dispatch_probe, Advance, SimSnapshot, Simulation, SnapError, SystemConfig, TraceHandle,
    SNAPSHOT_VERSION,
};
use mnpu_sched::{ServeSession, ServeSnapshot};
use mnpu_snapshot::json::Value;
use mnpu_snapshot::{from_json_wrapper, to_json_wrapper};
use mnpu_systolic::WorkloadTrace;

/// Cycles a controlled batch run advances between two polls of the control
/// callback. Small enough that a stop request lands within milliseconds of
/// wall clock; large enough that polling is invisible in the profile.
const POLL_CHUNK: u64 = 1 << 16;

/// Format version of the [`JobCheckpoint`] JSON wrapper (locked to the
/// snapshot subsystem's version: a checkpoint embeds engine snapshots, so
/// the two formats move together).
pub const JOB_CHECKPOINT_VERSION: u32 = SNAPSHOT_VERSION;

/// What the control callback tells a running job at each safe boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep running.
    Continue,
    /// Stop here and checkpoint (cancellation, budget expiry, drain).
    Checkpoint,
}

/// How far a controlled run got.
#[derive(Debug, Clone, PartialEq)]
pub enum RunProgress {
    /// Ran to completion; the outcome is byte-identical to [`Runner::run`].
    Done(RunOutcome),
    /// Stopped on request; hand the checkpoint back to [`Runner::run_with`]
    /// on a runner built from the same request to finish.
    Checkpointed(JobCheckpoint),
}

/// The shape-tagged snapshot of a stopped run.
#[derive(Debug, Clone, PartialEq)]
enum CkptPayload {
    /// A single-chip batch run's engine snapshot.
    Batch(SimSnapshot),
    /// A serve run's engine + scheduler snapshot.
    Serve(ServeSnapshot),
}

/// A resumable checkpoint of a stopped run, produced and consumed by
/// [`Runner::run_with`].
///
/// The checkpoint does not carry the workload itself — resuming requires
/// re-presenting the same [`RunRequest`](crate::RunRequest), and the
/// embedded snapshot's fingerprints (system configuration, per-core
/// traces, scenario) verify the match. [`JobCheckpoint::to_json`] /
/// [`JobCheckpoint::from_value`] give it a stable wire form, so a
/// checkpoint can cross process boundaries (the service hands it to
/// clients and accepts it back on a resume request).
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    payload: CkptPayload,
}

impl JobCheckpoint {
    /// Which request shape this checkpoint belongs to: `"batch"`
    /// ([`RunRequest::traces`](crate::RunRequest::traces) /
    /// [`RunRequest::networks`](crate::RunRequest::networks)) or
    /// `"serve"`.
    pub fn kind(&self) -> &'static str {
        match &self.payload {
            CkptPayload::Batch(_) => "batch",
            CkptPayload::Serve(_) => "serve",
        }
    }

    /// The wire form: a JSON object with a hex-encoded snapshot payload,
    /// the same framing as [`SimSnapshot::to_json`].
    pub fn to_json(&self) -> String {
        let bytes = match &self.payload {
            CkptPayload::Batch(s) => s.to_bytes(),
            CkptPayload::Serve(s) => s.to_bytes(),
        };
        to_json_wrapper(
            "mnpu-job-checkpoint",
            JOB_CHECKPOINT_VERSION,
            ("kind", self.kind()),
            &bytes,
        )
    }

    /// Decode the wrapper written by [`JobCheckpoint::to_json`], once
    /// parsed with [`mnpu_snapshot::json::parse`] — a service hands over
    /// the `resume` member of a request body as it stands.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadJson`] on anything but the exact wrapper shape (a
    /// wrapper nested under another key, or one with an extra field, is
    /// rejected), [`SnapError::VersionMismatch`] on a foreign format
    /// version, and any decode error from the embedded snapshot.
    pub fn from_value(v: &Value) -> Result<JobCheckpoint, SnapError> {
        let (kind, bytes) = from_json_wrapper(v, "mnpu-job-checkpoint", "kind")?;
        let payload = match kind {
            "batch" => CkptPayload::Batch(SimSnapshot::from_bytes(&bytes)?),
            "serve" => CkptPayload::Serve(ServeSnapshot::from_bytes(&bytes)?),
            _ => return Err(SnapError::BadJson("unknown checkpoint kind")),
        };
        Ok(JobCheckpoint { payload })
    }
}

impl Runner {
    /// Execute the request, consulting `poll` at every safe boundary — the
    /// facade's one drive. [`Runner::run`] is this with no checkpoint, no
    /// handle, and a callback that always continues.
    ///
    /// * `from` resumes a run stopped earlier. The runner must be built
    ///   from the request that produced the checkpoint; the snapshot's
    ///   fingerprints enforce it.
    /// * `trace`, when given, is installed as the driving thread's ambient
    ///   sink (so a [`mnpu_engine::ProbeMode::Flight`] run's probes record
    ///   into it), and the engine clock is published to its progress cell
    ///   at every boundary before `poll` is consulted.
    /// * `poll` returning [`RunControl::Checkpoint`] stops the run into
    ///   [`RunProgress::Checkpointed`].
    ///
    /// Batch runs reach a boundary every 2^16 cycles, serve runs at every
    /// scheduler decision round. Neither stopping nor watching changes the
    /// answer: the report equals [`Runner::run`]'s byte for byte, and a
    /// checkpoint's bytes are the same with or without a handle.
    ///
    /// ```
    /// use mnpusim::prelude::*;
    /// use mnpusim::trace::TraceHandle;
    /// use mnpusim::{zoo, Scale};
    ///
    /// let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    /// let nets = vec![zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)];
    /// let trace = TraceHandle::new();
    /// let progress = RunRequest::networks(&cfg, nets)
    ///     .build()
    ///     .unwrap()
    ///     .run_with(None, Some(&trace), &mut || RunControl::Continue)
    ///     .unwrap();
    /// assert!(matches!(progress, RunProgress::Done(_)));
    /// println!("{}", trace.progress().snapshot().to_json());
    /// println!("{}", trace.dump_json("my-job"));
    /// ```
    ///
    /// # Errors
    ///
    /// Only when resuming: [`SnapError::BadValue`] when the checkpoint's
    /// shape does not match the request shape,
    /// [`SnapError::ConfigMismatch`] / [`SnapError::TraceMismatch`] when it
    /// was captured from a different request, or any decode error from the
    /// snapshot payload.
    pub fn run_with(
        self,
        from: Option<JobCheckpoint>,
        trace: Option<&TraceHandle>,
        poll: &mut dyn FnMut() -> RunControl,
    ) -> Result<RunProgress, SnapError> {
        // While a handle observes this run it doubles as the thread's
        // ambient probe sink, and every poll boundary updates its
        // progress cell before the caller decides whether to stop.
        let _guard = trace.map(mnpu_trace::install);
        let mut poll = |cycles: u64| {
            if let Some(h) = trace {
                h.publish_poll(cycles);
            }
            poll()
        };
        match self.request.payload {
            Payload::Traces(cfg, traces) => drive_batch(&cfg, &traces, from, &mut poll),
            Payload::Networks(cfg, nets) => {
                let traces: Vec<WorkloadTrace> = nets
                    .iter()
                    .zip(&cfg.arch)
                    .map(|(n, a)| WorkloadTrace::generate(n, a))
                    .collect();
                drive_batch(&cfg, &traces, from, &mut poll)
            }
            Payload::Serve(spec) => drive_serve(&spec, from, &mut poll),
        }
    }
}

/// Drive a batch simulation in [`POLL_CHUNK`]-cycle slices of
/// [`Simulation::advance`], consulting `poll` with the engine clock at
/// every parked boundary.
fn drive_batch(
    cfg: &SystemConfig,
    traces: &[WorkloadTrace],
    from: Option<JobCheckpoint>,
    poll: &mut dyn FnMut(u64) -> RunControl,
) -> Result<RunProgress, SnapError> {
    let from = match from.map(|c| c.payload) {
        None => None,
        Some(CkptPayload::Batch(s)) => Some(s),
        Some(CkptPayload::Serve(_)) => {
            return Err(SnapError::BadValue("serve checkpoint offered to a batch request"))
        }
    };
    dispatch_probe!(cfg.probe, P => {
        let mut sim = Simulation::with_probe(cfg, traces, P::default());
        if let Some(snap) = &from {
            sim.restore(snap)?;
        }
        loop {
            if poll(sim.now()) == RunControl::Checkpoint {
                let payload = CkptPayload::Batch(sim.snapshot());
                return Ok(RunProgress::Checkpointed(JobCheckpoint { payload }));
            }
            let stop = sim.now().saturating_add(POLL_CHUNK);
            loop {
                match sim.advance(stop) {
                    Advance::CoreFinished { .. } => {}
                    Advance::Parked => break,
                    Advance::Drained => {
                        let report = Box::new(sim.into_report());
                        return Ok(RunProgress::Done(RunOutcome::Batch(report)));
                    }
                }
            }
        }
    })
}

/// Drive a serve session one scheduler decision round at a time,
/// consulting `poll` with the engine clock between rounds.
fn drive_serve(
    spec: &ScenarioSpec,
    from: Option<JobCheckpoint>,
    poll: &mut dyn FnMut(u64) -> RunControl,
) -> Result<RunProgress, SnapError> {
    let from = match from.map(|c| c.payload) {
        None => None,
        Some(CkptPayload::Serve(s)) => Some(s),
        Some(CkptPayload::Batch(_)) => {
            return Err(SnapError::BadValue("batch checkpoint offered to a serve request"))
        }
    };
    dispatch_probe!(spec.system.probe, P => {
        let mut session = match from {
            Some(snap) => ServeSession::restore_with_probe(spec, P::default(), snap)?,
            None => ServeSession::with_probe(spec, P::default()),
        };
        loop {
            if poll(session.now()) == RunControl::Checkpoint {
                let payload = CkptPayload::Serve(session.snapshot());
                return Ok(RunProgress::Checkpointed(JobCheckpoint { payload }));
            }
            if !session.step() {
                let report = Box::new(session.into_report());
                return Ok(RunProgress::Done(RunOutcome::Serve(report)));
            }
        }
    })
}

impl RunProgress {
    /// The completed outcome.
    ///
    /// # Panics
    ///
    /// Panics unless the progress is [`RunProgress::Done`].
    pub fn done(self) -> RunOutcome {
        match self {
            RunProgress::Done(o) => o,
            RunProgress::Checkpointed(_) => panic!("expected a completed run, got a checkpoint"),
        }
    }

    /// The checkpoint.
    ///
    /// # Panics
    ///
    /// Panics unless the progress is [`RunProgress::Checkpointed`].
    pub fn checkpoint(self) -> JobCheckpoint {
        match self {
            RunProgress::Checkpointed(c) => c,
            RunProgress::Done(_) => panic!("expected a checkpoint, but the run completed"),
        }
    }
}
