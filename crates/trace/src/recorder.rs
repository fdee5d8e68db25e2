//! The flight recorder: a fixed-capacity ring of recent trace events.
//!
//! A [`FlightRecorder`] is the black box a long-running job carries: it
//! holds the most recent [`FlightEvent`]s — structural probe events (tile
//! phases, refreshes), job-lifecycle edges and poll-boundary marks — each
//! stamped with both the wall clock (milliseconds since the recorder's
//! owner was created) and the simulated cycle. Capacity is fixed at
//! construction; once full, every push overwrites the oldest event and
//! bumps [`FlightRecorder::dropped`], so memory stays bounded no matter
//! how long a sweep runs. When a worker dies mid-job the ring is dumped to
//! a `flight-<job>.json` file whose tail is the job's last observable
//! moments.
//!
//! The recorder is pure data — no clocks, no locks — so its cap and
//! overwrite-oldest semantics can be pinned down by property tests.

use crate::progress::JobPhase;
use mnpu_probe::Phase;
use mnpu_snapshot::json;
use std::collections::VecDeque;

/// Default ring capacity (events) when a service does not configure one.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What kind of moment a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A tile phase opened (`core` = owning core, `id` = flat tile index).
    PhaseBegin(Phase),
    /// A tile phase closed.
    PhaseEnd(Phase),
    /// An all-bank DRAM refresh blocked a channel (`core` = channel).
    Refresh,
    /// A serve-mode job entered the scheduler queue (`id` = job id).
    JobArrive,
    /// A serve-mode job was bound to `core` (`id` = job id).
    JobDispatch,
    /// A serve-mode job completed on `core` (`id` = job id).
    JobComplete,
    /// A driver poll boundary; `cycle` is the simulation clock at the poll.
    Poll,
    /// A service-level lifecycle edge (dispatched, checkpointed, failed…).
    Lifecycle(JobPhase),
}

impl FlightKind {
    /// Stable lowercase name used in the JSON dump.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::PhaseBegin(Phase::Load) => "load_begin",
            FlightKind::PhaseBegin(Phase::Compute) => "compute_begin",
            FlightKind::PhaseBegin(Phase::Store) => "store_begin",
            FlightKind::PhaseEnd(Phase::Load) => "load_end",
            FlightKind::PhaseEnd(Phase::Compute) => "compute_end",
            FlightKind::PhaseEnd(Phase::Store) => "store_end",
            FlightKind::Refresh => "refresh",
            FlightKind::JobArrive => "job_arrive",
            FlightKind::JobDispatch => "job_dispatch",
            FlightKind::JobComplete => "job_complete",
            FlightKind::Poll => "poll",
            FlightKind::Lifecycle(p) => p.as_str(),
        }
    }
}

/// One recorded moment: double-stamped (wall + sim), sequence-numbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number, never reused; gaps in a dump reveal how
    /// many events the ring overwrote between survivors.
    pub seq: u64,
    /// Milliseconds since the owning telemetry handle was created.
    pub wall_ms: u64,
    /// Simulated cycle (0 for service-side lifecycle edges).
    pub cycle: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Owning core / channel / worker, by kind.
    pub core: u32,
    /// Kind-specific id (tile index, serve job id, poll count).
    pub id: u64,
}

impl FlightEvent {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"wall_ms\":{},\"cycle\":{},\"kind\":\"{}\",\"core\":{},\"id\":{}}}",
            self.seq,
            self.wall_ms,
            self.cycle,
            self.kind.label(),
            self.core,
            self.id
        )
    }
}

/// The fixed-capacity, overwrite-oldest event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<FlightEvent>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// An empty ring holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder { cap, next_seq: 0, dropped: 0, buf: VecDeque::with_capacity(cap) }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Record one event, assigning it the next sequence number. At
    /// capacity, the oldest event is overwritten.
    pub fn push(&mut self, wall_ms: u64, cycle: u64, kind: FlightKind, core: u32, id: u64) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(FlightEvent { seq, wall_ms, cycle, kind, core, id });
    }

    /// The surviving events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.buf.iter().copied().collect()
    }

    /// The black-box dump: a self-describing JSON document with the ring's
    /// surviving events oldest-first.
    pub fn to_json(&self, job: &str) -> String {
        let events: Vec<String> = self.buf.iter().map(FlightEvent::to_json).collect();
        format!(
            "{{\"format\":\"mnpu-flight\",\"version\":1,\"job\":\"{}\",\"capacity\":{},\
             \"pushed\":{},\"dropped\":{},\"events\":[{}]}}",
            json::escape(job),
            self.cap,
            self.next_seq,
            self.dropped,
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(r: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            r.push(i, i * 10, FlightKind::Poll, 0, i);
        }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut r = FlightRecorder::new(4);
        push_n(&mut r, 10);
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.pushed(), 10);
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        push_n(&mut r, 3);
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].seq, 2);
    }

    #[test]
    fn dump_is_self_describing() {
        let mut r = FlightRecorder::new(8);
        r.push(5, 100, FlightKind::PhaseBegin(Phase::Compute), 2, 7);
        r.push(6, 200, FlightKind::Lifecycle(JobPhase::Failed), 0, 0);
        let doc = r.to_json("job-3");
        assert!(doc.contains("\"format\":\"mnpu-flight\""));
        assert!(doc.contains("\"job\":\"job-3\""));
        assert!(doc.contains("\"kind\":\"compute_begin\""));
        assert!(doc.contains("\"kind\":\"failed\""));
        assert!(doc.contains("\"capacity\":8"));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The deflake/bound contract: whatever the push count and
        /// capacity, the ring holds at most `cap` events, they are exactly
        /// the newest `min(n, cap)` pushes in order, and the dropped
        /// counter accounts for every overwritten event.
        #[test]
        fn prop_cap_and_overwrite_oldest(cap in 0usize..64, n in 0u64..512) {
            let mut r = FlightRecorder::new(cap);
            let cap = cap.max(1);
            for i in 0..n {
                r.push(i, i, FlightKind::Poll, 0, i);
            }
            prop_assert!(r.len() <= cap);
            prop_assert_eq!(r.len() as u64, n.min(cap as u64));
            prop_assert_eq!(r.dropped(), n.saturating_sub(cap as u64));
            prop_assert_eq!(r.pushed(), n);
            let first = n.saturating_sub(cap as u64);
            let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
            let want: Vec<u64> = (first..n).collect();
            prop_assert_eq!(seqs, want);
        }

        /// Memory never grows past the capacity, even across interleaved
        /// pushes of every kind.
        #[test]
        fn prop_dump_counts_survivors(cap in 1usize..32, n in 0u64..200) {
            let mut r = FlightRecorder::new(cap);
            for i in 0..n {
                let kind = match i % 3 {
                    0 => FlightKind::Poll,
                    1 => FlightKind::Refresh,
                    _ => FlightKind::PhaseBegin(Phase::Load),
                };
                r.push(i, i, kind, (i % 4) as u32, i);
            }
            let doc = r.to_json("job-1");
            prop_assert!(doc.contains(&format!("\"dropped\":{}", r.dropped())));
            let survivors = doc.matches("\"seq\":").count();
            prop_assert_eq!(survivors, r.len());
        }
    }
}
