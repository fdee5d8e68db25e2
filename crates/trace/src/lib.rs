//! Runtime observability for the mNPUsim reproduction: a flight recorder,
//! live progress telemetry and Chrome-trace export.
//!
//! The probe layer (`mnpu-probe`) explains a run *after* it finishes; this
//! crate makes a run observable *while* it executes and *when* it dies.
//! Everything hangs off a [`TraceHandle`] — one per job, cheaply cloned:
//!
//! * a [`FlightRecorder`] ring holding the job's most recent structural
//!   events, double-stamped with wall clock and simulated cycle, dumped as
//!   a `flight-<job>.json` black box when a worker panics, a budget trips,
//!   a cancellation lands or the daemon drains — and exportable as a
//!   Chrome trace;
//! * a [`ProgressCell`] of lock-free atomics the driver publishes into at
//!   its 2^16-cycle poll boundary (cycles simulated, lifecycle phase,
//!   stall attribution, traffic counters, a sim-cycles/sec rate);
//! * process-global [`counters`] for simulator internals the daemon's
//!   `/metrics` endpoint cannot otherwise see (prefix-shared
//!   simulations, fast-forward commits).
//!
//! The engine feeds a handle through [`FlightProbe`], which splits the
//! probe taxonomy by frequency — dense events become counters, structural
//! events enter the ring. A simulation's probe is built via `Default` on
//! the thread that runs it, so a job installs its handle thread-locally
//! ([`install`]) and the probe binds to it.
//!
//! Everything here is determinism-neutral by construction: wall-clock
//! readings live only in telemetry, never in simulation state, reports or
//! checkpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod counters;
mod probe;
mod progress;
mod recorder;

pub use chrome::chrome_trace;
pub use probe::FlightProbe;
pub use progress::{JobPhase, ProgressCell, ProgressSnapshot, TrafficSnapshot};
pub use recorder::{FlightEvent, FlightKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The telemetry state shared by everything observing one job.
#[derive(Debug)]
struct JobTelemetry {
    epoch: Instant,
    recorder: Mutex<FlightRecorder>,
    progress: ProgressCell,
}

/// A cheaply-clonable handle to one job's telemetry (ring + progress).
///
/// Clones share the same ring and progress cell; [`TraceHandle::same_ring`]
/// tells two handles apart.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<JobTelemetry>);

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::new()
    }
}

impl TraceHandle {
    /// A fresh handle with the default ring capacity.
    pub fn new() -> Self {
        TraceHandle::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A fresh handle whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceHandle(Arc::new(JobTelemetry {
            epoch: Instant::now(),
            recorder: Mutex::new(FlightRecorder::new(capacity)),
            progress: ProgressCell::default(),
        }))
    }

    /// Milliseconds since this handle was created (the wall stamp every
    /// recorded event carries).
    pub fn wall_ms(&self) -> u64 {
        self.0.epoch.elapsed().as_millis() as u64
    }

    /// The job's live-progress cell.
    pub fn progress(&self) -> &ProgressCell {
        &self.0.progress
    }

    /// Record a structural event into the ring, stamped with the current
    /// wall clock and the given simulated cycle.
    pub fn record(&self, cycle: u64, kind: FlightKind, core: u32, id: u64) {
        let wall = self.wall_ms();
        self.0.recorder.lock().unwrap().push(wall, cycle, kind, core, id);
    }

    /// Record a job-lifecycle edge: enters the ring *and* updates the
    /// progress cell's phase.
    pub fn record_lifecycle(&self, phase: JobPhase) {
        self.0.progress.set_phase(phase);
        self.record(0, FlightKind::Lifecycle(phase), 0, 0);
    }

    /// Publish a driver poll boundary: updates the progress cycles/rate
    /// and drops a poll mark into the ring.
    pub fn publish_poll(&self, cycles: u64) {
        let wall = self.wall_ms();
        self.0.progress.publish_poll(cycles, wall);
        let polls = self.0.progress.snapshot().polls;
        self.0.recorder.lock().unwrap().push(wall, cycles, FlightKind::Poll, 0, polls);
    }

    /// Publish sweep-level progress (finished simulations / units plus
    /// accumulated simulated cycles).
    pub fn publish_sweep(&self, sims: u64, units: u64, cycles: u64) {
        let wall = self.wall_ms();
        self.0.progress.publish_sweep(sims, units, cycles, wall);
        self.0.recorder.lock().unwrap().push(wall, cycles, FlightKind::Poll, 0, sims);
    }

    /// The ring's surviving events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.0.recorder.lock().unwrap().events()
    }

    /// The black-box dump for `job` (see [`FlightRecorder::to_json`]).
    pub fn dump_json(&self, job: &str) -> String {
        self.0.recorder.lock().unwrap().to_json(job)
    }

    /// The ring rendered as a Chrome-trace document for `job` on `worker`.
    pub fn chrome_json(&self, job: &str, worker: usize) -> String {
        chrome_trace(job, worker, &self.events())
    }

    /// `true` when `other` shares this handle's ring (clone of the same
    /// handle).
    pub fn same_ring(&self, other: &TraceHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

thread_local! {
    static INSTALLED: RefCell<Option<TraceHandle>> = const { RefCell::new(None) };
}

/// Install `handle` as this thread's ambient telemetry sink for the
/// guard's lifetime. While installed, every [`FlightProbe`] constructed
/// via `Default` on this thread binds to it — the probe every run on this
/// thread builds for its simulation. The previous handle (if any) is
/// restored on drop, so installs nest, and the guard restores on unwind.
pub fn install(handle: &TraceHandle) -> InstallGuard {
    let prev = INSTALLED.with(|slot| slot.replace(Some(handle.clone())));
    InstallGuard { prev }
}

/// The handle currently installed on this thread, if any.
pub fn installed() -> Option<TraceHandle> {
    INSTALLED.with(|slot| slot.borrow().clone())
}

/// RAII guard for [`install`]; restores the previously installed handle
/// (or none) when dropped.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<TraceHandle>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        INSTALLED.with(|slot| *slot.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_nests_and_restores() {
        let a = TraceHandle::new();
        let b = TraceHandle::new();
        assert!(installed().is_none());
        {
            let _ga = install(&a);
            assert!(installed().unwrap().same_ring(&a));
            {
                let _gb = install(&b);
                assert!(installed().unwrap().same_ring(&b));
            }
            assert!(installed().unwrap().same_ring(&a));
        }
        assert!(installed().is_none());
    }

    #[test]
    fn install_restores_across_unwind() {
        let a = TraceHandle::new();
        let caught = std::panic::catch_unwind(|| {
            let _g = install(&a);
            panic!("boom");
        });
        assert!(caught.is_err());
        assert!(installed().is_none());
    }

    #[test]
    fn lifecycle_edges_hit_ring_and_progress() {
        let h = TraceHandle::new();
        h.record_lifecycle(JobPhase::Dispatched);
        h.publish_poll(1 << 16);
        h.record_lifecycle(JobPhase::Completed);
        let s = h.progress().snapshot();
        assert_eq!(s.phase, JobPhase::Completed);
        assert_eq!(s.cycles, 1 << 16);
        assert_eq!(s.polls, 1);
        let kinds: Vec<&str> = h.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, vec!["dispatched", "poll", "completed"]);
        let dump = h.dump_json("job-1");
        assert!(dump.contains("\"kind\":\"completed\""));
    }

    #[test]
    fn dumps_escape_the_job_name() {
        let h = TraceHandle::new();
        h.record_lifecycle(JobPhase::Failed);
        let job = "a\"b";
        let dump = mnpu_snapshot::json::parse(&h.dump_json(job)).expect("the dump is JSON");
        assert_eq!(dump.get("job").and_then(|v| v.as_str()), Some(job));
        let trace = mnpu_snapshot::json::parse(&h.chrome_json(job, 0)).expect("the trace is JSON");
        let events = trace.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events[1].get("name").and_then(|v| v.as_str()), Some(job));
    }

    #[test]
    fn clones_share_the_ring() {
        let h = TraceHandle::new();
        let c = h.clone();
        c.record(5, FlightKind::Refresh, 0, 0);
        assert!(h.same_ring(&c));
        assert_eq!(h.events().len(), 1);
        assert!(!h.same_ring(&TraceHandle::new()));
    }
}
