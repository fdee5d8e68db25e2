//! Zero-cost observability probes for the simulation pipeline.
//!
//! Every timing-relevant component of the simulator — the DRAM channel
//! scheduler, the MMU/TLB path, the DMA arbiter, the per-core tile
//! pipeline — emits typed [`Event`]s into a [`Probe`]. The probe type is a
//! *generic parameter* of the emitting component, so the dispatch is
//! monomorphized: with the default [`NullProbe`] every emission site
//! compiles to nothing (the `Probe::ENABLED` constant guards each one and
//! `record` is an empty inline function), and the hot path is bit- and
//! perf-identical to a build without instrumentation. With [`StatsProbe`]
//! the same sites aggregate counters, latency histograms, per-epoch series,
//! a cycle-exact per-core stall breakdown, and phase spans exportable as a
//! Chrome `chrome://tracing` timeline.
//!
//! A simulation owns exactly one probe. The engine records into it
//! directly and lends it to the memory system on every call, so DRAM row
//! outcomes and the engine's own events land in the same aggregate, which
//! [`Probe::into_report`] freezes into a [`StatsReport`] when the run
//! report is assembled.
//!
//! The crate holds simulation events only, stamped in simulated cycles.
//! The wall-clock lifecycle of a daemon job around a run lives above it:
//! `mnpu_trace::JobPhase` and the job timeline of `mnpu-service`.
//!
//! ```
//! use mnpu_probe::{Event, NullProbe, Probe, StatsProbe};
//!
//! fn hot_path<P: Probe>(probe: &mut P) {
//!     if P::ENABLED {
//!         probe.record(100, Event::TlbHit { core: 0 });
//!     }
//! }
//!
//! let mut off = NullProbe; // compiles to nothing
//! hot_path(&mut off);
//! let mut on = StatsProbe::default();
//! hot_path(&mut on);
//! assert_eq!(on.into_report().unwrap().cores[0].tlb_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod stats;

pub use hist::Histogram;
pub use stats::{
    CoreStats, DramContention, JobSpan, SchedStats, Span, StallBreakdown, StatsProbe, StatsReport,
};

/// A tile-pipeline phase, bounding one [`Event::PhaseBegin`] /
/// [`Event::PhaseEnd`] span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// DMA load of a tile's inputs into the scratchpad.
    Load,
    /// Systolic-array compute of one tile.
    Compute,
    /// DMA store of a tile's outputs back to DRAM.
    Store,
}

impl Phase {
    /// Stable lowercase name (used by the Chrome-trace exporter).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::Compute => "compute",
            Phase::Store => "store",
        }
    }
}

/// What a core is doing at a sampling point, for the stall breakdown.
///
/// The engine classifies with a fixed priority — `Compute` beats
/// `WaitTranslation` beats `WaitLoad` beats `WaitStore` — so each cycle of
/// a core's execution lands in exactly one category and the categories sum
/// to the core's active cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoreState {
    /// Before the core's configured start cycle.
    Idle,
    /// The systolic array is busy.
    Compute,
    /// Stalled with at least one transaction parked on a page-table walk.
    WaitTranslation,
    /// Stalled on an in-flight tile load.
    WaitLoad,
    /// Stalled draining stores (including the cross-layer store barrier).
    WaitStore,
    /// The workload has finished.
    Finished,
}

/// A typed observability event. The `cycle` it occurred at is passed
/// separately to [`Probe::record`] (always in global DRAM-clock cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A transaction entered a DRAM channel queue; `queue_depth` is the
    /// occupancy after insertion (the scheduler's reorder-window pressure).
    DramIssue {
        /// Target channel.
        channel: usize,
        /// Queue occupancy including the new arrival.
        queue_depth: usize,
    },
    /// A DRAM command committed to an already-open row. `residency` is the
    /// cycles the transaction waited in the channel queue before its CAS.
    DramRowHit {
        /// Servicing channel.
        channel: usize,
        /// Requesting core.
        core: usize,
        /// Queue residency in DRAM cycles (arrival to CAS).
        residency: u64,
    },
    /// A DRAM command that had to activate a closed row first.
    DramRowMiss {
        /// Servicing channel.
        channel: usize,
        /// Requesting core.
        core: usize,
        /// Queue residency in DRAM cycles (arrival to CAS).
        residency: u64,
    },
    /// A DRAM command that had to precharge another core-open row first —
    /// the contention signature the paper's §4.2 analysis rests on.
    DramRowConflict {
        /// Servicing channel.
        channel: usize,
        /// Requesting core.
        core: usize,
        /// Queue residency in DRAM cycles (arrival to CAS).
        residency: u64,
    },
    /// An all-bank refresh blocked a channel for tRFC.
    DramRefresh {
        /// Refreshing channel.
        channel: usize,
    },
    /// A TLB lookup hit.
    TlbHit {
        /// Requesting core.
        core: usize,
    },
    /// A TLB lookup missed.
    TlbMiss {
        /// Requesting core.
        core: usize,
    },
    /// A TLB entry was evicted; `core` is the entry's *owner* (under a
    /// shared TLB the evictor may be a different core — TLB thrashing).
    TlbEvict {
        /// Core whose translation was evicted.
        core: usize,
    },
    /// A page-table walk acquired a walker and issued its first access.
    WalkStart {
        /// Requesting core.
        core: usize,
        /// Raw walk id, paired with the matching [`Event::WalkDone`].
        walk: u64,
    },
    /// A page-table walk completed and filled the TLB.
    WalkDone {
        /// Requesting core.
        core: usize,
        /// Raw walk id from the matching [`Event::WalkStart`].
        walk: u64,
    },
    /// A walk could not start because the walker pool was exhausted.
    WalkerStall {
        /// Requesting core.
        core: usize,
    },
    /// The DMA arbiter enqueued a transaction into the memory system.
    DmaGrant {
        /// Requesting core.
        core: usize,
    },
    /// The DMA arbiter bounced a transaction off a full DRAM queue.
    DmaRetry {
        /// Requesting core.
        core: usize,
    },
    /// A tile phase opened (load issued / compute started / store opened).
    PhaseBegin {
        /// Owning core.
        core: usize,
        /// Which phase.
        phase: Phase,
        /// Flattened tile index, pairing begin with end.
        id: u64,
    },
    /// A tile phase closed.
    PhaseEnd {
        /// Owning core.
        core: usize,
        /// Which phase.
        phase: Phase,
        /// Flattened tile index from the matching begin.
        id: u64,
    },
    /// A core transitioned into (or re-sampled) `state`; the engine emits
    /// one per core per event-loop iteration, so states are piecewise
    /// constant between samples and the integration is cycle-exact.
    CoreState {
        /// Sampled core.
        core: usize,
        /// Its classified state.
        state: CoreState,
    },
    /// A job entered the scheduler's FIFO queue (serve mode).
    JobArrive {
        /// Scheduler-assigned job id, unique within a scenario.
        job: u64,
        /// Queue occupancy including the new arrival.
        queue_depth: usize,
    },
    /// A queued job was bound to a core and started executing.
    JobDispatch {
        /// Job id from the matching [`Event::JobArrive`].
        job: u64,
        /// Core the job was bound to.
        core: usize,
        /// Queue occupancy after removal.
        queue_depth: usize,
    },
    /// A dispatched job's workload ran to completion.
    JobComplete {
        /// Job id from the matching [`Event::JobDispatch`].
        job: u64,
        /// Core the job ran on.
        core: usize,
    },
}

/// The observability sink. Emission sites are written as
///
/// ```ignore
/// if P::ENABLED {
///     probe.record(now, Event::TlbMiss { core });
/// }
/// ```
///
/// so a [`NullProbe`] build const-folds the whole block away — the
/// zero-cost gating contract the golden fixtures and the hot-path benchmark
/// pin down.
pub trait Probe: std::fmt::Debug + Clone + Send + Default + 'static {
    /// `false` only for [`NullProbe`]; guards every emission site.
    const ENABLED: bool;

    /// Record one event at `cycle` (global DRAM-clock cycles).
    fn record(&mut self, cycle: u64, event: Event);

    /// Finalize into a [`StatsReport`]; `None` for probes that aggregate
    /// nothing.
    fn into_report(self) -> Option<StatsReport>;

    /// Serialize all accumulated probe state for a checkpoint. A probe
    /// that aggregates nothing writes nothing.
    fn save_state(&self, w: &mut mnpu_snapshot::Writer);

    /// Restore state saved by [`Probe::save_state`] into a freshly built
    /// probe of the same type.
    ///
    /// # Errors
    ///
    /// [`mnpu_snapshot::SnapError`] when the payload is malformed.
    fn load_state(
        &mut self,
        r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<(), mnpu_snapshot::SnapError>;
}

/// Replay a batch of synthesized per-command events into `probe`, in index
/// order: `f(i)` produces the `(cycle, event)` pair the uninstrumented
/// per-command path would have emitted for the batch's `i`-th command.
///
/// Batched fast paths (the DRAM steady-state fast-forward) retire many
/// commands in one step; this helper reconstructs the identical event
/// stream — same events, same cycles, same order — so instrumented runs
/// cannot tell the fast path apart from the slow one. Under [`NullProbe`]
/// (`ENABLED == false`) the whole call, closure included, const-folds away,
/// preserving the zero-cost contract.
#[inline]
pub fn replay_batch<P: Probe>(probe: &mut P, n: usize, mut f: impl FnMut(usize) -> (u64, Event)) {
    if P::ENABLED {
        for i in 0..n {
            let (cycle, event) = f(i);
            probe.record(cycle, event);
        }
    }
}

/// The default probe: records nothing, costs nothing. `ENABLED == false`
/// lets the compiler eliminate every guarded emission site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _cycle: u64, _event: Event) {}

    fn into_report(self) -> Option<StatsReport> {
        None
    }

    #[inline(always)]
    fn save_state(&self, _w: &mut mnpu_snapshot::Writer) {}

    #[inline(always)]
    fn load_state(
        &mut self,
        _r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<(), mnpu_snapshot::SnapError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_and_empty() {
        const { assert!(!NullProbe::ENABLED) }
        let mut p = NullProbe;
        p.record(0, Event::TlbHit { core: 0 });
        assert_eq!(p.into_report(), None);
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
    }

    #[test]
    fn stats_probe_is_enabled() {
        const { assert!(StatsProbe::ENABLED) }
    }
}
