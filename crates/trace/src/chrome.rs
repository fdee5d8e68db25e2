//! Chrome-trace export of a flight recorder's contents.
//!
//! Renders the surviving [`FlightEvent`]s as a `chrome://tracing` /
//! Perfetto document: one worker span enclosing one job span on the
//! control lane, one lane per `(core, phase)` pair carrying the matched
//! tile-phase `B`/`E` spans, and instants for the point events (refreshes,
//! serve-queue edges, polls, lifecycle transitions). Timestamps are the
//! recorded simulation cycles, interpreted as microseconds — the exporter
//! visualizes sim time, wall time stays in the `args`.
//!
//! Invariants the test suite pins down: the output parses as JSON, events
//! are `ts`-sorted, every `B` has a matching `E` on its thread, and the
//! job span nests inside the worker span.

use crate::recorder::{FlightEvent, FlightKind};
use mnpu_probe::Phase;
use mnpu_snapshot::json::escape;
use std::collections::HashMap;

/// The control lane (worker + job spans and all instant events).
const CONTROL_TID: u32 = 1;

fn phase_idx(p: Phase) -> u32 {
    match p {
        Phase::Load => 0,
        Phase::Compute => 1,
        Phase::Store => 2,
    }
}

fn lane_tid(core: u32, p: Phase) -> u32 {
    10 + core * 3 + phase_idx(p)
}

fn span(name: &str, ph: char, ts: u64, tid: u32) -> (u64, String) {
    (
        ts,
        format!(
            "{{\"name\":\"{}\",\"cat\":\"mnpu\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
            escape(name),
            ph,
            ts,
            tid
        ),
    )
}

fn instant(name: &str, ts: u64, id: u64, wall_ms: u64) -> (u64, String) {
    (
        ts,
        format!(
            "{{\"name\":\"{}\",\"cat\":\"mnpu\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\
             \"tid\":{},\"args\":{{\"id\":{},\"wall_ms\":{}}}}}",
            escape(name),
            ts,
            CONTROL_TID,
            id,
            wall_ms
        ),
    )
}

/// Render `events` (a recorder's surviving events, oldest first) as a
/// Chrome-trace JSON document for `job`, attributed to worker `worker`.
pub fn chrome_trace(job: &str, worker: usize, events: &[FlightEvent]) -> String {
    let min_ts = events.iter().map(|e| e.cycle).min().unwrap_or(0);
    let max_ts = events.iter().map(|e| e.cycle).max().unwrap_or(0);

    // Construction order is the nesting order; a stable sort by ts keeps
    // it for ties, so equal-timestamp events stay correctly stacked.
    let mut out: Vec<(u64, String)> = Vec::with_capacity(events.len() + 4);
    out.push(span(&format!("worker-{worker}"), 'B', min_ts, CONTROL_TID));
    out.push(span(job, 'B', min_ts, CONTROL_TID));

    // Per-lane open tile phases (tile id -> begin cycle) and the end of
    // the last emitted span, to drop anything that would overlap it.
    let mut open: HashMap<u32, HashMap<u64, u64>> = HashMap::new();
    let mut lane_end: HashMap<u32, u64> = HashMap::new();

    for e in events {
        match e.kind {
            FlightKind::PhaseBegin(p) => {
                open.entry(lane_tid(e.core, p)).or_default().insert(e.id, e.cycle);
            }
            FlightKind::PhaseEnd(p) => {
                let tid = lane_tid(e.core, p);
                let Some(begin) = open.entry(tid).or_default().remove(&e.id) else { continue };
                // A span overlapping the lane's previous span (possible
                // after ring truncation) would break B/E nesting: drop it.
                if begin < lane_end.get(&tid).copied().unwrap_or(0) {
                    continue;
                }
                lane_end.insert(tid, e.cycle);
                let name = format!("core{}:{}", e.core, p.name());
                out.push(span(&name, 'B', begin, tid));
                out.push(span(&name, 'E', e.cycle, tid));
            }
            _ => out.push(instant(e.kind.label(), e.cycle, e.id, e.wall_ms)),
        }
    }

    out.push(span(job, 'E', max_ts, CONTROL_TID));
    out.push(span(&format!("worker-{worker}"), 'E', max_ts, CONTROL_TID));
    out.sort_by_key(|(ts, _)| *ts);

    let bodies: Vec<String> = out.into_iter().map(|(_, b)| b).collect();
    format!("{{\"traceEvents\":[{}]}}", bodies.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::JobPhase;
    use crate::recorder::FlightRecorder;

    fn sample_events() -> Vec<FlightEvent> {
        let mut r = FlightRecorder::new(64);
        r.push(0, 0, FlightKind::Lifecycle(JobPhase::Dispatched), 0, 0);
        r.push(1, 100, FlightKind::PhaseBegin(Phase::Load), 0, 0);
        r.push(2, 250, FlightKind::PhaseEnd(Phase::Load), 0, 0);
        r.push(2, 250, FlightKind::PhaseBegin(Phase::Compute), 0, 0);
        r.push(3, 400, FlightKind::Refresh, 1, 0);
        r.push(4, 600, FlightKind::PhaseEnd(Phase::Compute), 0, 0);
        r.push(5, 700, FlightKind::Poll, 0, 1);
        r.push(6, 700, FlightKind::Lifecycle(JobPhase::Completed), 0, 0);
        r.events()
    }

    #[test]
    fn trace_is_sorted_and_nested() {
        let doc = chrome_trace("job-1", 2, &sample_events());
        // ts values appear in non-decreasing order.
        let ts: Vec<u64> = doc
            .split("\"ts\":")
            .skip(1)
            .map(|s| s.split([',', '}']).next().unwrap().parse().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
        // The control lane opens with worker-then-job and closes in
        // reverse (the job span nests inside the worker span).
        let worker_b = doc.find("\"name\":\"worker-2\",\"cat\":\"mnpu\",\"ph\":\"B\"").unwrap();
        let job_b = doc.find("\"name\":\"job-1\",\"cat\":\"mnpu\",\"ph\":\"B\"").unwrap();
        let job_e = doc.find("\"name\":\"job-1\",\"cat\":\"mnpu\",\"ph\":\"E\"").unwrap();
        let worker_e = doc.find("\"name\":\"worker-2\",\"cat\":\"mnpu\",\"ph\":\"E\"").unwrap();
        assert!(worker_b < job_b && job_b < job_e && job_e < worker_e);
    }

    #[test]
    fn unmatched_phase_edges_are_dropped() {
        let mut r = FlightRecorder::new(8);
        // An end without its begin (lost to ring truncation) and a begin
        // without its end (job died mid-phase).
        r.push(0, 100, FlightKind::PhaseEnd(Phase::Store), 0, 9);
        r.push(1, 200, FlightKind::PhaseBegin(Phase::Load), 1, 3);
        let doc = chrome_trace("job-7", 0, &r.events());
        assert!(!doc.contains("core0:store"));
        assert!(!doc.contains("core1:load"));
        // Only the worker/job control spans survive as B/E.
        assert_eq!(doc.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(doc.matches("\"ph\":\"E\"").count(), 2);
    }
}
