//! Live progress telemetry: a lock-free cell a running job publishes into
//! and an HTTP handler reads from.
//!
//! A [`ProgressCell`] is a bundle of atomics. The worker publishes at its
//! poll boundary (every 2^16 simulated cycles) and the probe folds in its
//! stall/traffic deltas at the same granularity; readers take a
//! [`ProgressSnapshot`] without blocking the run. Each field is
//! individually consistent (a reader may observe fields from two adjacent
//! polls, never a torn value), and the cycle counter is monotone — the
//! property the conformance suite polls for.
//!
//! The cell also carries the job's [`JobPhase`], the daemon lifecycle step
//! that the flight ring records too.

use mnpu_probe::StallBreakdown;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// One step in a daemon job's lifecycle, as the flight ring and the
/// progress cell record it. The discriminant is the phase's index in
/// [`JobPhase::ALL`], which is how the progress cell stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum JobPhase {
    /// Accepted by admission control and queued.
    Submitted,
    /// Handed to a worker; the simulation is running.
    Dispatched,
    /// Snapshotted mid-run (budget, cancel or drain) — resumable.
    Checkpointed,
    /// Restored from a checkpoint and running again.
    Resumed,
    /// Ran to completion; the report is available.
    Completed,
    /// Stopped by a cancellation request.
    Cancelled,
    /// Stopped at its wall-clock budget.
    OverBudget,
    /// Died with an execution error.
    Failed,
    /// Checkpointed (or left in the backlog) by a daemon drain.
    Suspended,
}

impl JobPhase {
    /// Every phase, in discriminant order: `ALL[p as usize] == p`.
    pub const ALL: [JobPhase; 9] = [
        JobPhase::Submitted,
        JobPhase::Dispatched,
        JobPhase::Checkpointed,
        JobPhase::Resumed,
        JobPhase::Completed,
        JobPhase::Cancelled,
        JobPhase::OverBudget,
        JobPhase::Failed,
        JobPhase::Suspended,
    ];

    /// Stable lowercase name (status JSON, flight labels, progress).
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Submitted => "submitted",
            JobPhase::Dispatched => "dispatched",
            JobPhase::Checkpointed => "checkpointed",
            JobPhase::Resumed => "resumed",
            JobPhase::Completed => "completed",
            JobPhase::Cancelled => "cancelled",
            JobPhase::OverBudget => "over_budget",
            JobPhase::Failed => "failed",
            JobPhase::Suspended => "suspended",
        }
    }

    /// `true` when the phase ends the job's current incarnation (it may
    /// still be resumable: `Cancelled`, `OverBudget` and `Suspended` jobs
    /// with a checkpoint can come back as `Resumed`).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed
                | JobPhase::Cancelled
                | JobPhase::OverBudget
                | JobPhase::Failed
                | JobPhase::Suspended
        )
    }
}

/// Dense-event traffic counters (the events too frequent to ring-buffer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// DRAM commands serviced (row hits + misses + conflicts).
    pub dram_txns: u64,
    /// TLB lookups that hit.
    pub tlb_hits: u64,
    /// TLB lookups that missed.
    pub tlb_misses: u64,
    /// Page-table walks started.
    pub walks: u64,
    /// DMA transactions bounced off a full DRAM queue.
    pub dma_retries: u64,
    /// Walks stalled on an exhausted walker pool.
    pub walker_stalls: u64,
}

/// A coherent-enough view of a job's live progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Simulated cycles completed so far (monotone within a job).
    pub cycles: u64,
    /// Poll boundaries crossed so far.
    pub polls: u64,
    /// The job's current lifecycle phase.
    pub phase: JobPhase,
    /// Wall milliseconds since the telemetry handle was created.
    pub wall_ms: u64,
    /// Simulated cycles per wall-clock second, cumulative over the run.
    pub cycles_per_sec: f64,
    /// Stall attribution so far, in simulated cycles summed over cores.
    pub stall: StallBreakdown,
    /// Traffic counters so far.
    pub traffic: TrafficSnapshot,
    /// Sweep jobs: simulations finished so far (0 for facade jobs).
    pub sweep_sims: u64,
    /// Sweep jobs: execution units finished so far.
    pub sweep_units: u64,
}

impl ProgressSnapshot {
    /// Render as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycles\":{},\"polls\":{},\"phase\":\"{}\",\"wall_ms\":{},\
             \"cycles_per_sec\":{:.1},\"stall\":{{\"compute\":{},\"wait_translation\":{},\
             \"wait_load\":{},\"wait_store\":{}}},\"traffic\":{{\"dram_txns\":{},\
             \"tlb_hits\":{},\"tlb_misses\":{},\"walks\":{},\"dma_retries\":{},\
             \"walker_stalls\":{}}},\"sweep\":{{\"sims\":{},\"units\":{}}}}}",
            self.cycles,
            self.polls,
            self.phase.as_str(),
            self.wall_ms,
            self.cycles_per_sec,
            self.stall.compute,
            self.stall.wait_translation,
            self.stall.wait_load,
            self.stall.wait_store,
            self.traffic.dram_txns,
            self.traffic.tlb_hits,
            self.traffic.tlb_misses,
            self.traffic.walks,
            self.traffic.dma_retries,
            self.traffic.walker_stalls,
            self.sweep_sims,
            self.sweep_units,
        )
    }
}

/// The lock-free publication cell behind a telemetry handle.
#[derive(Debug, Default)]
pub struct ProgressCell {
    cycles: AtomicU64,
    polls: AtomicU64,
    phase: AtomicU8,
    wall_ms: AtomicU64,
    stall: [AtomicU64; 4],
    traffic: [AtomicU64; 6],
    sweep_sims: AtomicU64,
    sweep_units: AtomicU64,
}

impl ProgressCell {
    /// Publish a poll boundary: the driver's authoritative cycle count and
    /// the wall clock it was observed at. Cycles are monotone by
    /// construction (`fetch_max`), so a reader never sees them go back.
    pub fn publish_poll(&self, cycles: u64, wall_ms: u64) {
        self.cycles.fetch_max(cycles, Ordering::Relaxed);
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.wall_ms.fetch_max(wall_ms, Ordering::Relaxed);
    }

    /// Record the job's lifecycle phase.
    pub fn set_phase(&self, phase: JobPhase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// Fold stall-attribution deltas in (probe-side, per publish window).
    pub fn add_stall(&self, delta: &StallBreakdown) {
        self.stall[0].fetch_add(delta.compute, Ordering::Relaxed);
        self.stall[1].fetch_add(delta.wait_translation, Ordering::Relaxed);
        self.stall[2].fetch_add(delta.wait_load, Ordering::Relaxed);
        self.stall[3].fetch_add(delta.wait_store, Ordering::Relaxed);
    }

    /// Fold traffic-counter deltas in (probe-side, per publish window).
    pub fn add_traffic(&self, delta: &TrafficSnapshot) {
        self.traffic[0].fetch_add(delta.dram_txns, Ordering::Relaxed);
        self.traffic[1].fetch_add(delta.tlb_hits, Ordering::Relaxed);
        self.traffic[2].fetch_add(delta.tlb_misses, Ordering::Relaxed);
        self.traffic[3].fetch_add(delta.walks, Ordering::Relaxed);
        self.traffic[4].fetch_add(delta.dma_retries, Ordering::Relaxed);
        self.traffic[5].fetch_add(delta.walker_stalls, Ordering::Relaxed);
    }

    /// Publish sweep-level progress (sims / execution units finished) and
    /// the accumulated simulated cycles.
    pub fn publish_sweep(&self, sims: u64, units: u64, cycles: u64, wall_ms: u64) {
        self.sweep_sims.fetch_max(sims, Ordering::Relaxed);
        self.sweep_units.fetch_max(units, Ordering::Relaxed);
        self.publish_poll(cycles, wall_ms);
    }

    /// Take a snapshot. Fields may straddle two publications; each field
    /// on its own is consistent and `cycles` is monotone across reads.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let cycles = self.cycles.load(Ordering::Relaxed);
        let wall_ms = self.wall_ms.load(Ordering::Relaxed);
        let rate = if wall_ms == 0 { 0.0 } else { cycles as f64 / (wall_ms as f64 / 1000.0) };
        ProgressSnapshot {
            cycles,
            polls: self.polls.load(Ordering::Relaxed),
            phase: JobPhase::ALL[usize::from(self.phase.load(Ordering::Relaxed))],
            wall_ms,
            cycles_per_sec: rate,
            stall: StallBreakdown {
                compute: self.stall[0].load(Ordering::Relaxed),
                wait_translation: self.stall[1].load(Ordering::Relaxed),
                wait_load: self.stall[2].load(Ordering::Relaxed),
                wait_store: self.stall[3].load(Ordering::Relaxed),
            },
            traffic: TrafficSnapshot {
                dram_txns: self.traffic[0].load(Ordering::Relaxed),
                tlb_hits: self.traffic[1].load(Ordering::Relaxed),
                tlb_misses: self.traffic[2].load(Ordering::Relaxed),
                walks: self.traffic[3].load(Ordering::Relaxed),
                dma_retries: self.traffic[4].load(Ordering::Relaxed),
                walker_stalls: self.traffic[5].load(Ordering::Relaxed),
            },
            sweep_sims: self.sweep_sims.load(Ordering::Relaxed),
            sweep_units: self.sweep_units.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_monotone_under_stale_publishes() {
        let c = ProgressCell::default();
        c.publish_poll(1000, 5);
        c.publish_poll(500, 3); // a stale publish must not move anything back
        let s = c.snapshot();
        assert_eq!(s.cycles, 1000);
        assert_eq!(s.wall_ms, 5);
        assert_eq!(s.polls, 2);
    }

    #[test]
    fn phases_round_trip() {
        let c = ProgressCell::default();
        assert_eq!(c.snapshot().phase, JobPhase::Submitted);
        for (i, p) in JobPhase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
            c.set_phase(p);
            assert_eq!(c.snapshot().phase, p);
        }
    }

    #[test]
    fn terminal_phases() {
        assert!(!JobPhase::Submitted.is_terminal());
        assert!(!JobPhase::Dispatched.is_terminal());
        assert!(!JobPhase::Resumed.is_terminal());
        assert!(!JobPhase::Checkpointed.is_terminal());
        assert!(JobPhase::Completed.is_terminal());
        assert!(JobPhase::Suspended.is_terminal());
        assert!(JobPhase::Cancelled.is_terminal());
    }

    #[test]
    fn deltas_accumulate_and_render() {
        let c = ProgressCell::default();
        c.add_stall(&StallBreakdown {
            compute: 10,
            wait_translation: 2,
            wait_load: 3,
            wait_store: 1,
        });
        c.add_stall(&StallBreakdown { compute: 5, ..Default::default() });
        c.add_traffic(&TrafficSnapshot { dram_txns: 7, tlb_hits: 4, ..Default::default() });
        c.publish_poll(2000, 2);
        let s = c.snapshot();
        assert_eq!(s.stall.compute, 15);
        assert_eq!(s.stall.wait_load, 3);
        assert_eq!(s.traffic.dram_txns, 7);
        assert!(s.cycles_per_sec > 0.0);
        let j = s.to_json();
        assert!(j.contains("\"cycles\":2000"));
        assert!(j.contains("\"compute\":15"));
        assert!(j.contains("\"dram_txns\":7"));
    }

    #[test]
    fn sweep_progress_publishes() {
        let c = ProgressCell::default();
        c.publish_sweep(3, 2, 1_000_000, 10);
        let s = c.snapshot();
        assert_eq!((s.sweep_sims, s.sweep_units), (3, 2));
        assert_eq!(s.cycles, 1_000_000);
    }
}
