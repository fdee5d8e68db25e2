//! The daemon's job table: every submission the service has accepted,
//! from admission to terminal state, as plain data.
//!
//! Concurrency lives in `server.rs`; this module is single-threaded and
//! value-semantic so the state machine can be tested without a socket in
//! sight. A [`JobRecord`] keeps the original submission body (the drain
//! manifest and the result cache both key on it), the
//! [`JobTimeline`] of lifecycle events, and —
//! once terminal — exactly one of a result, a resumable checkpoint, or an
//! error message.

use mnpu_probe::{JobPhase, JobTimeline};
use mnpu_snapshot::json;
use mnpu_trace::TraceHandle;
use std::collections::HashMap;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; the result is available.
    Completed,
    /// Stopped by a cancellation request (checkpointed if it was running).
    Cancelled,
    /// Stopped at its wall-clock budget, checkpointed.
    OverBudget,
    /// Died with an execution error.
    Failed,
    /// Checkpointed (or returned to the backlog) by a daemon drain.
    Suspended,
}

impl JobState {
    /// Stable lowercase name used in status JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::OverBudget => "over_budget",
            JobState::Failed => "failed",
            JobState::Suspended => "suspended",
        }
    }

    /// `true` once the job will never run again under this daemon (it may
    /// still be resumable from its checkpoint via a new submission).
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The terminal [`JobPhase`] this state records on the timeline.
    ///
    /// # Panics
    ///
    /// Panics on the non-terminal states, which map to
    /// [`JobPhase::Submitted`] / [`JobPhase::Dispatched`] at transition
    /// time instead.
    pub fn terminal_phase(self) -> JobPhase {
        match self {
            JobState::Completed => JobPhase::Completed,
            JobState::Cancelled => JobPhase::Cancelled,
            JobState::OverBudget => JobPhase::OverBudget,
            JobState::Failed => JobPhase::Failed,
            JobState::Suspended => JobPhase::Suspended,
            JobState::Queued | JobState::Running => {
                panic!("{} is not a terminal state", self.as_str())
            }
        }
    }
}

/// One accepted submission and everything the service knows about it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The numeric id (rendered as `job-<id>` on the wire).
    pub id: u64,
    /// The submission body, verbatim.
    pub body: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Set by `DELETE`; a running job observes it at its next poll.
    pub cancel_requested: bool,
    /// `true` when the submission carried a `resume` checkpoint.
    pub resumed: bool,
    /// Wall-clock budget from the submission, if any.
    pub budget_ms: Option<u64>,
    /// `true` when the result came from the daemon's result cache.
    pub from_cache: bool,
    /// Lifecycle events in service time.
    pub timeline: JobTimeline,
    /// The rendered result JSON (terminal `Completed` only).
    pub result: Option<String>,
    /// The resumable checkpoint JSON (stopped-but-resumable terminals).
    pub checkpoint: Option<String>,
    /// The failure message (terminal `Failed` only).
    pub error: Option<String>,
    /// Live telemetry (flight ring + progress cell), attached at dispatch;
    /// `None` while the job has only ever been queued.
    pub telemetry: Option<TraceHandle>,
    /// Index of the worker that executed (or is executing) the job.
    pub worker: Option<usize>,
}

impl JobRecord {
    /// The wire id, `job-<id>`.
    pub fn wire_id(&self) -> String {
        format!("job-{}", self.id)
    }

    /// Milliseconds between admission and the latest recorded event —
    /// the job's service latency once it is terminal.
    pub fn elapsed_ms(&self) -> u64 {
        let events = self.timeline.events();
        match (events.first(), events.last()) {
            (Some(first), Some(last)) => last.at_ms - first.at_ms,
            _ => 0,
        }
    }

    /// The status document returned by `GET /v1/jobs/<id>`.
    pub fn status_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"state\":\"{}\",\"cancel_requested\":{},\
             \"resumed\":{},\"from_cache\":{},\"timeline\":{}",
            self.wire_id(),
            self.state.as_str(),
            self.cancel_requested,
            self.resumed,
            self.from_cache,
            self.timeline.to_json(),
        );
        if let Some(b) = self.budget_ms {
            out.push_str(&format!(",\"budget_ms\":{b}"));
        }
        // The result and checkpoint are JSON already; the error is text.
        out.push_str(&format!(",\"has_result\":{}", self.result.is_some()));
        out.push_str(&format!(",\"has_checkpoint\":{}", self.checkpoint.is_some()));
        if let Some(e) = &self.error {
            out.push_str(&format!(",\"error\":\"{}\"", json::escape(e)));
        }
        out.push('}');
        out
    }
}

/// All jobs the daemon has admitted, by id.
#[derive(Debug, Default)]
pub struct JobTable {
    next_id: u64,
    jobs: HashMap<u64, JobRecord>,
}

impl JobTable {
    /// An empty table; ids start at 1.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Admit a new job in `Queued` state, recording `Submitted` at
    /// `now_ms`. Returns the assigned id.
    pub fn admit(
        &mut self,
        body: String,
        budget_ms: Option<u64>,
        resumed: bool,
        now_ms: u64,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let mut timeline = JobTimeline::new();
        timeline.record(now_ms, JobPhase::Submitted);
        self.jobs.insert(
            id,
            JobRecord {
                id,
                body,
                state: JobState::Queued,
                cancel_requested: false,
                resumed,
                budget_ms,
                from_cache: false,
                timeline,
                result: None,
                checkpoint: None,
                error: None,
                telemetry: None,
                worker: None,
            },
        );
        id
    }

    /// Look up a job.
    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// Look up a job mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.jobs.get_mut(&id)
    }

    /// Parse a `job-<id>` wire id.
    pub fn parse_wire_id(wire: &str) -> Option<u64> {
        wire.strip_prefix("job-")?.parse().ok()
    }

    /// All ids currently in the given state, ascending.
    pub fn ids_in_state(&self, state: JobState) -> Vec<u64> {
        let mut ids: Vec<u64> =
            self.jobs.values().filter(|j| j.state == state).map(|j| j.id).collect();
        ids.sort_unstable();
        ids
    }

    /// `true` while any job is `Running` (drain must wait for these).
    pub fn any_running(&self) -> bool {
        self.jobs.values().any(|j| j.state == JobState::Running)
    }

    /// Number of admitted jobs, ever.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no job was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_assigns_sequential_ids() {
        let mut t = JobTable::new();
        let a = t.admit("{}".into(), None, false, 0);
        let b = t.admit("{}".into(), Some(5), true, 1);
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.get(a).unwrap().state, JobState::Queued);
        assert_eq!(t.get(b).unwrap().budget_ms, Some(5));
        assert!(t.get(b).unwrap().resumed);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn wire_ids_round_trip() {
        let mut t = JobTable::new();
        let id = t.admit("{}".into(), None, false, 0);
        let wire = t.get(id).unwrap().wire_id();
        assert_eq!(wire, "job-1");
        assert_eq!(JobTable::parse_wire_id(&wire), Some(id));
        assert_eq!(JobTable::parse_wire_id("job-x"), None);
        assert_eq!(JobTable::parse_wire_id("1"), None);
    }

    #[test]
    fn status_json_reflects_the_record() {
        let mut t = JobTable::new();
        let id = t.admit("{}".into(), Some(7), false, 3);
        let job = t.get_mut(id).unwrap();
        job.state = JobState::Failed;
        job.error = Some("boom \"quoted\"".into());
        job.timeline.record(9, JobPhase::Failed);
        let s = job.status_json();
        assert!(s.contains("\"id\":\"job-1\""));
        assert!(s.contains("\"state\":\"failed\""));
        assert!(s.contains("\"budget_ms\":7"));
        assert!(s.contains("\"error\":\"boom \\\"quoted\\\"\""));
        assert!(s.contains("\"at_ms\":3"));
        assert_eq!(job.elapsed_ms(), 6);
        // The status document is itself valid JSON.
        assert!(json::parse(&s).is_ok());
    }

    #[test]
    fn terminal_bookkeeping() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Suspended.is_terminal());
        assert_eq!(JobState::OverBudget.terminal_phase(), JobPhase::OverBudget);
        let mut t = JobTable::new();
        let a = t.admit("{}".into(), None, false, 0);
        t.get_mut(a).unwrap().state = JobState::Running;
        assert!(t.any_running());
        assert_eq!(t.ids_in_state(JobState::Running), vec![a]);
        t.get_mut(a).unwrap().state = JobState::Completed;
        assert!(!t.any_running());
    }

    #[test]
    #[should_panic(expected = "not a terminal state")]
    fn terminal_phase_rejects_live_states() {
        let _ = JobState::Running.terminal_phase();
    }
}
