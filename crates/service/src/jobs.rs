//! The daemon's job table: every submission the service has accepted,
//! from admission to terminal state, as plain data.
//!
//! Concurrency lives in `server.rs`; this module is single-threaded and
//! value-semantic so the state machine can be tested without a socket in
//! sight. A [`JobRecord`] keeps the original submission body (the drain
//! manifest and the result cache both key on it), its timeline of
//! lifecycle phases, and — once terminal — exactly one of a result, a
//! resumable checkpoint, or an error message.
//!
//! The timeline is the job's one lifecycle record, and
//! [`JobRecord::enter`] is the one transition: it appends the timeline
//! entry, records the edge on the job's telemetry handle, and counts it
//! in [`ServiceStats`]. The status `state`, the flight ring, the progress
//! phase and every `/metrics` counter are read off what it wrote.

use crate::wire::WireJob;
use mnpu_metrics::ExpHistogram;
use mnpu_snapshot::json;
use mnpu_trace::{JobPhase, TraceHandle};
use std::collections::HashMap;

/// One recorded lifecycle step: which phase, and when (milliseconds since
/// the service's own epoch — wall-clock, not simulated cycles).
#[derive(Debug, Clone, Copy)]
struct JobEvent {
    at_ms: u64,
    phase: JobPhase,
}

/// An append-only record of one job's lifecycle, returned verbatim by the
/// status endpoint so a client can audit the exact phase sequence.
#[derive(Debug, Clone, Default)]
struct JobTimeline {
    events: Vec<JobEvent>,
}

impl JobTimeline {
    /// Append a phase transition (only [`JobRecord::enter`] does).
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` precedes the previous event — timelines are
    /// recorded by a single service clock and never reorder.
    fn record(&mut self, at_ms: u64, phase: JobPhase) {
        if let Some(last) = self.events.last() {
            assert!(at_ms >= last.at_ms, "timeline must be monotone: {} < {}", at_ms, last.at_ms);
        }
        self.events.push(JobEvent { at_ms, phase });
    }

    /// The most recently entered phase.
    fn current(&self) -> Option<JobPhase> {
        self.events.last().map(|e| e.phase)
    }

    /// The timeline as a JSON array of `{"at_ms":..,"phase":".."}` objects.
    fn to_json(&self) -> String {
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| format!("{{\"at_ms\":{},\"phase\":\"{}\"}}", e.at_ms, e.phase.as_str()))
            .collect();
        format!("[{}]", events.join(","))
    }
}

/// The daemon's `/metrics` accounting. Every job counter is a count of
/// [`JobRecord::enter`] calls, so the exported numbers are a function of
/// the status timelines: `completions` is the number of timelines that
/// end in `completed`, and so on.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    entries: [u64; JobPhase::ALL.len()],
    cache_hits: u64,
    latency: ExpHistogram,
    queue_depths: ExpHistogram,
    /// Submissions bounced by admission control (they never get a record).
    pub rejects: u64,
    /// Wall milliseconds workers spent executing jobs (busy time, summed
    /// across workers — the numerator of a utilization gauge).
    pub worker_busy_ms: u64,
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            entries: [0; JobPhase::ALL.len()],
            cache_hits: 0,
            latency: ExpHistogram::latency_seconds(),
            queue_depths: ExpHistogram::default(),
            rejects: 0,
            worker_busy_ms: 0,
        }
    }
}

impl ServiceStats {
    /// How many times any job entered `phase`.
    pub fn entries(&self, phase: JobPhase) -> u64 {
        self.entries[phase as usize]
    }

    /// Submissions received: admitted plus bounced.
    pub fn submissions(&self) -> u64 {
        self.entries(JobPhase::Submitted) + self.rejects
    }

    /// Jobs handed to a worker, fresh or resumed.
    pub fn dispatches(&self) -> u64 {
        self.entries(JobPhase::Dispatched) + self.entries(JobPhase::Resumed)
    }

    /// Completions answered from the result cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Jobs that reached a terminal phase, whatever it was.
    pub fn finished(&self) -> u64 {
        JobPhase::ALL.into_iter().filter(|p| p.is_terminal()).map(|p| self.entries(p)).sum()
    }

    /// Jobs admitted but not yet terminal (queued or running).
    pub fn in_system(&self) -> u64 {
        self.entries(JobPhase::Submitted) - self.finished()
    }

    /// Record the backlog left behind at one dispatch.
    pub fn record_queue_depth(&mut self, depth: u64) {
        self.queue_depths.observe(depth as f64);
    }

    /// The dispatch queue-depth histogram.
    pub fn queue_depth_hist(&self) -> &ExpHistogram {
        &self.queue_depths
    }

    /// Admission-to-completion latency in seconds, one observation per
    /// completion in completion order.
    pub fn latency_hist(&self) -> &ExpHistogram {
        &self.latency
    }
}

/// One accepted submission and everything the service knows about it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The numeric id (rendered as `job-<id>` on the wire).
    pub id: u64,
    /// The submission body, verbatim (the result cache's key, and what a
    /// drain file holds).
    pub body: String,
    /// The body as parsed at admission, until a worker takes it at
    /// dispatch.
    pub parsed: Option<WireJob>,
    /// Set by `DELETE`; a running job observes it at its next poll.
    pub cancel_requested: bool,
    /// `true` when the submission carried a `resume` checkpoint.
    pub resumed: bool,
    /// Wall-clock budget from the submission, if any.
    pub budget_ms: Option<u64>,
    /// `true` when the result came from the daemon's result cache.
    pub from_cache: bool,
    /// Lifecycle events in service time; its last phase is the job's
    /// state. Private so that [`JobRecord::enter`] is its only writer.
    timeline: JobTimeline,
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

    /// The status `state`, read off the last phase on the timeline:
    /// `queued` until dispatch, `running` while a worker holds the job,
    /// then the terminal phase's own name.
    pub fn state(&self) -> &'static str {
        match self.timeline.current().expect("admission records Submitted") {
            JobPhase::Submitted => "queued",
            JobPhase::Dispatched | JobPhase::Resumed | JobPhase::Checkpointed => "running",
            terminal => terminal.as_str(),
        }
    }

    /// Move the job into `phase` at `now_ms`: append it to the timeline,
    /// record the edge on the attached telemetry handle (its flight ring
    /// and progress phase), and count it in `stats`. A completion also
    /// counts a cache hit when the result came from the cache, and
    /// observes the job's latency.
    pub fn enter(&mut self, phase: JobPhase, now_ms: u64, stats: &mut ServiceStats) {
        self.timeline.record(now_ms, phase);
        if let Some(t) = &self.telemetry {
            t.record_lifecycle(phase);
        }
        stats.entries[phase as usize] += 1;
        if phase == JobPhase::Completed {
            stats.cache_hits += u64::from(self.from_cache);
            stats.latency.observe(self.elapsed_ms() as f64 / 1000.0);
        }
    }

    /// Milliseconds between admission and the latest recorded event —
    /// the job's service latency once it is terminal.
    pub fn elapsed_ms(&self) -> u64 {
        let events = &self.timeline.events;
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
            self.state(),
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

    /// Admit a new job, entering [`JobPhase::Submitted`] at `now_ms`.
    /// Returns the assigned id.
    pub fn admit(
        &mut self,
        body: String,
        budget_ms: Option<u64>,
        resumed: bool,
        now_ms: u64,
        stats: &mut ServiceStats,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let job = self.jobs.entry(id).or_insert(JobRecord {
            id,
            body,
            parsed: None,
            cancel_requested: false,
            resumed,
            budget_ms,
            from_cache: false,
            timeline: JobTimeline::default(),
            result: None,
            checkpoint: None,
            error: None,
            telemetry: None,
            worker: None,
        });
        job.enter(JobPhase::Submitted, now_ms, stats);
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

    /// All ids whose status `state` is `state`, ascending.
    pub fn ids_in_state(&self, state: &str) -> Vec<u64> {
        let mut ids: Vec<u64> =
            self.jobs.values().filter(|j| j.state() == state).map(|j| j.id).collect();
        ids.sort_unstable();
        ids
    }

    /// `true` while any job is `running` (drain must wait for these).
    pub fn any_running(&self) -> bool {
        self.jobs.values().any(|j| j.state() == "running")
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
        let mut stats = ServiceStats::default();
        let mut t = JobTable::new();
        let a = t.admit("{}".into(), None, false, 0, &mut stats);
        let b = t.admit("{}".into(), Some(5), true, 1, &mut stats);
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.get(a).unwrap().state(), "queued");
        assert_eq!(t.get(b).unwrap().budget_ms, Some(5));
        assert!(t.get(b).unwrap().resumed);
        assert_eq!(t.len(), 2);
        assert_eq!(stats.submissions(), 2);
    }

    #[test]
    fn wire_ids_round_trip() {
        let mut t = JobTable::new();
        let id = t.admit("{}".into(), None, false, 0, &mut ServiceStats::default());
        let wire = t.get(id).unwrap().wire_id();
        assert_eq!(wire, "job-1");
        assert_eq!(JobTable::parse_wire_id(&wire), Some(id));
        assert_eq!(JobTable::parse_wire_id("job-x"), None);
        assert_eq!(JobTable::parse_wire_id("1"), None);
    }

    #[test]
    fn status_json_reflects_the_record() {
        let mut stats = ServiceStats::default();
        let mut t = JobTable::new();
        let id = t.admit("{}".into(), Some(7), false, 3, &mut stats);
        let job = t.get_mut(id).unwrap();
        job.error = Some("boom \"quoted\"".into());
        job.enter(JobPhase::Failed, 9, &mut stats);
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
        let mut stats = ServiceStats::default();
        let mut t = JobTable::new();
        let a = t.admit("{}".into(), None, false, 0, &mut stats);
        let trace = TraceHandle::new();
        let job = t.get_mut(a).unwrap();
        job.telemetry = Some(trace.clone());
        job.enter(JobPhase::Resumed, 1, &mut stats);
        assert!(t.any_running());
        assert_eq!(t.ids_in_state("running"), vec![a]);
        let job = t.get_mut(a).unwrap();
        job.enter(JobPhase::Checkpointed, 2, &mut stats);
        assert_eq!(job.state(), "running");
        job.enter(JobPhase::OverBudget, 2, &mut stats);
        assert_eq!(job.state(), "over_budget");
        assert!(!t.any_running());
        assert_eq!(t.ids_in_state("over_budget"), vec![a]);
        // The same edges reached the job's flight ring and progress cell.
        let labels: Vec<&str> = trace.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["resumed", "checkpointed", "over_budget"]);
        assert_eq!(trace.progress().snapshot().phase, JobPhase::OverBudget);
    }

    #[test]
    fn timeline_records_in_order() {
        let mut t = JobTimeline::default();
        assert_eq!(t.current(), None);
        t.record(0, JobPhase::Submitted);
        t.record(2, JobPhase::Dispatched);
        t.record(2, JobPhase::Checkpointed);
        t.record(5, JobPhase::Resumed);
        t.record(9, JobPhase::Completed);
        let phases: Vec<JobPhase> = t.events.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            [
                JobPhase::Submitted,
                JobPhase::Dispatched,
                JobPhase::Checkpointed,
                JobPhase::Resumed,
                JobPhase::Completed
            ]
        );
        assert_eq!(t.current(), Some(JobPhase::Completed));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn timeline_rejects_time_travel() {
        let mut t = JobTimeline::default();
        t.record(5, JobPhase::Submitted);
        t.record(4, JobPhase::Dispatched);
    }

    #[test]
    fn json_shape() {
        let mut t = JobTimeline::default();
        t.record(1, JobPhase::Submitted);
        t.record(4, JobPhase::OverBudget);
        assert_eq!(
            t.to_json(),
            "[{\"at_ms\":1,\"phase\":\"submitted\"},{\"at_ms\":4,\"phase\":\"over_budget\"}]"
        );
        assert_eq!(JobTimeline::default().to_json(), "[]");
    }

    #[test]
    fn service_stats_accounting() {
        let mut stats = ServiceStats::default();
        let mut t = JobTable::new();
        assert_eq!(stats.in_system(), 0);
        let ids: Vec<u64> =
            (0..7).map(|i| t.admit("{}".into(), None, false, i, &mut stats)).collect();
        stats.rejects = 3;
        let ends =
            [JobPhase::Completed, JobPhase::Completed, JobPhase::Cancelled, JobPhase::OverBudget];
        for (&id, end) in ids.iter().zip(ends) {
            let job = t.get_mut(id).unwrap();
            job.enter(JobPhase::Dispatched, 10, &mut stats);
            job.enter(end, 15, &mut stats);
        }
        assert_eq!(stats.submissions(), 10);
        assert_eq!(stats.dispatches(), 4);
        assert_eq!(stats.finished(), 4);
        assert_eq!(stats.in_system(), 3);
        assert_eq!(stats.entries(JobPhase::Completed), 2);
        assert_eq!(stats.cache_hits(), 0);
        // One latency observation per completion: 15 ms and 14 ms.
        assert_eq!(stats.latency_hist().count(), 2);
        assert!((stats.latency_hist().sum() - 0.029).abs() < 1e-12);
    }
}
