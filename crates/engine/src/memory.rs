//! The memory system behind the cores' DMA engines and page-table walkers.
//!
//! [`SystemConfig::memory`] picks one of two backends, and the simulation
//! holds it as the crate-private `Memory` enum:
//!
//! * `Timing` — the full FR-FCFS banked-DRAM model from [`mnpu_dram`] (the
//!   paper's configuration), including channel partitioning for
//!   non-DRAM-sharing levels and windowed bandwidth tracing;
//! * `Ideal` — a fixed-latency, infinite-bandwidth memory, useful as a
//!   contention-free upper bound and for isolating compute effects.

use crate::sharing::partition_channels;
use crate::snapshot::sorted_heap;
use crate::system::SystemConfig;
use mnpu_dram::{BandwidthTrace, Completion, Dram, DramStats, EnqueueError, TRANSACTION_BYTES};
use mnpu_probe::Probe;
use mnpu_snapshot::{Reader, SnapError, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Section tag for the memory backend's snapshot payload.
const MEMORY_TAG: u8 = 0xB0;

/// An in-flight ideal-memory transaction:
/// `(done_at, seq, core, addr, is_write, meta)`.
type InFlightTxn = (u64, u64, usize, u64, bool, u64);

/// Which memory backend a [`SystemConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryModel {
    /// The full banked-DRAM timing model (default; the paper's setup).
    Timing,
    /// Fixed-latency, infinite-bandwidth memory: every transaction
    /// completes exactly `latency` DRAM cycles after it is enqueued and
    /// nothing ever queues. An upper bound with all memory contention
    /// removed.
    Ideal {
        /// Service latency in DRAM cycles (clamped to at least 1).
        latency: u64,
    },
}

/// The backend selected by [`SystemConfig::memory`], driven by the event
/// loop in three steps:
///
/// 1. [`enqueue`](Memory::enqueue) submits one 64-byte transaction; the
///    DRAM model may refuse it with [`EnqueueError::QueueFull`], and the
///    caller retries after the next event;
/// 2. [`advance_into`](Memory::advance_into) moves the device to cycle
///    `now` and appends every serviced transaction, in service order, to
///    the caller's buffer;
/// 3. [`next_event`](Memory::next_event) names the next cycle at which
///    the device state can change, `None` only when it is idle.
///
/// `enqueue` and `advance_into` borrow the simulation's one probe, so a run
/// has exactly one; with [`mnpu_probe::NullProbe`] every emission site
/// compiles away.
#[derive(Debug)]
pub(crate) enum Memory {
    /// Boxed: a `Dram` is more than twice the size of an `IdealMemory`.
    Timing(Box<Dram>),
    Ideal(IdealMemory),
}

impl Memory {
    /// Build the backend for `cfg`: for the DRAM model, the total channel
    /// count, bandwidth tracing and — for non-DRAM-sharing levels — the
    /// static channel partition.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        if let MemoryModel::Ideal { latency } = cfg.memory {
            return Memory::Ideal(IdealMemory::new(cfg.cores, latency, cfg.trace_window));
        }
        let mut dram_cfg = cfg.dram.clone();
        dram_cfg.channels = cfg.total_channels();
        let mut dram = Dram::new(dram_cfg);
        if let Some(w) = cfg.trace_window {
            dram.enable_trace(w, cfg.cores);
        }
        if !cfg.sharing.shares_dram() {
            let counts = cfg
                .channel_partition
                .clone()
                .unwrap_or_else(|| vec![cfg.channels_per_core; cfg.cores]);
            for (core, subset) in
                partition_channels(cfg.total_channels(), &counts).into_iter().enumerate()
            {
                dram.set_core_channels(core, subset);
            }
        }
        Memory::Timing(Box::new(dram))
    }

    /// Submit a transaction at device cycle `now`. `meta` is an opaque tag
    /// handed back in the matching [`Completion`].
    pub(crate) fn enqueue<P: Probe>(
        &mut self,
        now: u64,
        core: usize,
        addr: u64,
        is_write: bool,
        meta: u64,
        probe: &mut P,
    ) -> Result<(), EnqueueError> {
        match self {
            Memory::Timing(dram) => dram.try_enqueue_probed(now, core, addr, is_write, meta, probe),
            Memory::Ideal(mem) => {
                mem.enqueue(now, core, addr, is_write, meta);
                Ok(())
            }
        }
    }

    /// Advance device time to `now`, appending the transactions serviced
    /// by then to `out` in service order.
    pub(crate) fn advance_into<P: Probe>(
        &mut self,
        now: u64,
        out: &mut Vec<Completion>,
        probe: &mut P,
    ) {
        match self {
            Memory::Timing(dram) => dram.advance_into_probed(now, out, probe),
            Memory::Ideal(mem) => mem.advance_into(now, out),
        }
    }

    /// The next cycle at which the device needs attention, if any.
    pub(crate) fn next_event(&self) -> Option<u64> {
        match self {
            Memory::Timing(dram) => dram.next_event(),
            Memory::Ideal(mem) => mem.in_flight.peek().map(|&Reverse((done_at, ..))| done_at),
        }
    }

    /// Device statistics.
    pub(crate) fn stats(&self) -> DramStats {
        match self {
            Memory::Timing(dram) => dram.stats(),
            Memory::Ideal(mem) => {
                let mut s = mem.stats.clone();
                s.total = s.per_channel[0].clone();
                s
            }
        }
    }

    /// Transactions enqueued or in flight (deadlock diagnostics).
    pub(crate) fn pending(&self) -> usize {
        match self {
            Memory::Timing(dram) => dram.pending(),
            Memory::Ideal(mem) => mem.in_flight.len(),
        }
    }

    /// The windowed bandwidth trace, when tracing is enabled.
    pub(crate) fn bandwidth_trace(&self) -> Option<BandwidthTrace> {
        match self {
            Memory::Timing(dram) => dram.trace().cloned(),
            Memory::Ideal(mem) => mem.trace.clone(),
        }
    }

    /// Commands the DRAM model retired through its steady-state
    /// fast-forward path (telemetry only; 0 for the ideal memory).
    pub(crate) fn fastfwd_commits(&self) -> u64 {
        match self {
            Memory::Timing(dram) => dram.fastfwd_commits(),
            Memory::Ideal(_) => 0,
        }
    }

    /// Serialize every piece of mutable device state into `w`.
    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.tag(MEMORY_TAG);
        match self {
            Memory::Timing(dram) => dram.save_state(w),
            Memory::Ideal(mem) => mem.save_state(w),
        }
    }

    /// Restore state saved by [`save_state`](Memory::save_state) into a
    /// device built from the same configuration.
    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(MEMORY_TAG)?;
        match self {
            Memory::Timing(dram) => dram.load_state(r),
            Memory::Ideal(mem) => mem.load_state(r),
        }
    }
}

/// Fixed-latency, infinite-bandwidth memory: the service time of every
/// transaction is a constant and requests never queue against each other.
/// It has no row buffers or queues, so it reports no device events.
#[derive(Debug)]
pub(crate) struct IdealMemory {
    latency: u64,
    /// In-flight transactions ordered by `(done_at, seq)`; the sequence
    /// number keeps completion order deterministic within a cycle.
    in_flight: BinaryHeap<Reverse<InFlightTxn>>,
    seq: u64,
    stats: DramStats,
    trace: Option<BandwidthTrace>,
}

impl IdealMemory {
    /// A device serving `cores` requesters with a fixed `latency` (DRAM
    /// cycles, clamped to at least 1). `trace_window` enables the windowed
    /// bandwidth trace.
    pub(crate) fn new(cores: usize, latency: u64, trace_window: Option<u64>) -> Self {
        let stats = DramStats {
            // One pseudo-channel so per-channel consumers see the totals.
            per_channel: vec![Default::default()],
            per_core_bytes: vec![0; cores],
            ..Default::default()
        };
        IdealMemory {
            latency: latency.max(1),
            in_flight: BinaryHeap::new(),
            seq: 0,
            stats,
            trace: trace_window.map(|w| BandwidthTrace::new(w, cores)),
        }
    }

    fn enqueue(&mut self, now: u64, core: usize, addr: u64, is_write: bool, meta: u64) {
        let done_at = now + self.latency;
        self.in_flight.push(Reverse((done_at, self.seq, core, addr, is_write, meta)));
        self.seq += 1;
        let ch = &mut self.stats.per_channel[0];
        if is_write {
            ch.writes += 1;
        } else {
            ch.reads += 1;
        }
        ch.bytes += TRANSACTION_BYTES;
        ch.latency_sum += self.latency;
        ch.latency_max = ch.latency_max.max(self.latency);
        if let Some(c) = self.stats.per_core_bytes.get_mut(core) {
            *c += TRANSACTION_BYTES;
        }
    }

    fn advance_into(&mut self, now: u64, out: &mut Vec<Completion>) {
        while let Some(&Reverse((done_at, _, core, addr, is_write, meta))) = self.in_flight.peek() {
            if done_at > now {
                break;
            }
            self.in_flight.pop();
            if let Some(t) = &mut self.trace {
                t.record(done_at, core, TRANSACTION_BYTES);
            }
            out.push(Completion { meta, core, addr, is_write, completed_at: done_at });
        }
    }

    fn save_state(&self, w: &mut Writer) {
        w.u64(self.latency);
        w.seq(&sorted_heap(&self.in_flight), |w, &(done_at, seq, core, addr, is_write, meta)| {
            w.u64(done_at);
            w.u64(seq);
            w.usize(core);
            w.u64(addr);
            w.bool(is_write);
            w.u64(meta);
        });
        w.u64(self.seq);
        let ch = &self.stats.per_channel[0];
        for v in [
            ch.reads,
            ch.writes,
            ch.row_hits,
            ch.row_misses,
            ch.row_conflicts,
            ch.busy_cycles,
            ch.bytes,
            ch.latency_sum,
            ch.latency_max,
            ch.refreshes,
        ] {
            w.u64(v);
        }
        w.seq(&self.stats.per_core_bytes, |w, &b| w.u64(b));
        w.opt(&self.trace, |w, t| t.save_state(w));
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        if r.u64()? != self.latency {
            return Err(SnapError::BadValue("ideal memory latency mismatch"));
        }
        let items =
            r.seq(|r| Ok((r.u64()?, r.u64()?, r.usize()?, r.u64()?, r.bool()?, r.u64()?)))?;
        self.in_flight = items.into_iter().map(Reverse).collect();
        self.seq = r.u64()?;
        let ch = &mut self.stats.per_channel[0];
        ch.reads = r.u64()?;
        ch.writes = r.u64()?;
        ch.row_hits = r.u64()?;
        ch.row_misses = r.u64()?;
        ch.row_conflicts = r.u64()?;
        ch.busy_cycles = r.u64()?;
        ch.bytes = r.u64()?;
        ch.latency_sum = r.u64()?;
        ch.latency_max = r.u64()?;
        ch.refreshes = r.u64()?;
        let per_core = r.seq(|r| r.u64())?;
        if per_core.len() != self.stats.per_core_bytes.len() {
            return Err(SnapError::BadValue("per-core byte counter count mismatch"));
        }
        self.stats.per_core_bytes = per_core;
        let trace = r.opt(BandwidthTrace::load_state)?;
        if trace.is_some() != self.trace.is_some() {
            return Err(SnapError::BadValue("bandwidth trace enablement mismatch"));
        }
        self.trace = trace;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_probe::NullProbe;

    fn ideal(cores: usize, latency: u64, trace_window: Option<u64>) -> Memory {
        Memory::Ideal(IdealMemory::new(cores, latency, trace_window))
    }

    fn drive(mem: &mut Memory, until: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for now in 0..=until {
            mem.advance_into(now, &mut all, &mut NullProbe);
        }
        all
    }

    #[test]
    fn ideal_memory_fixed_latency() {
        let mut mem = ideal(2, 10, None);
        mem.enqueue(0, 0, 0x40, false, 7, &mut NullProbe).unwrap();
        mem.enqueue(3, 1, 0x80, true, 8, &mut NullProbe).unwrap();
        assert_eq!(mem.next_event(), Some(10));
        let done = drive(&mut mem, 20);
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].meta, done[0].completed_at), (7, 10));
        assert_eq!((done[1].meta, done[1].completed_at), (8, 13));
        assert_eq!(mem.pending(), 0);
    }

    #[test]
    fn ideal_memory_never_rejects() {
        let mut mem = ideal(1, 5, None);
        for i in 0..10_000u64 {
            assert!(mem.enqueue(0, 0, i * 64, i % 2 == 0, i, &mut NullProbe).is_ok());
        }
        assert_eq!(mem.pending(), 10_000);
        let done = drive(&mut mem, 5);
        assert_eq!(done.len(), 10_000, "infinite bandwidth: all complete together");
    }

    #[test]
    fn ideal_memory_counts_stats() {
        let mut mem = ideal(2, 4, Some(8));
        mem.enqueue(0, 0, 0x0, false, 0, &mut NullProbe).unwrap();
        mem.enqueue(0, 1, 0x40, true, 1, &mut NullProbe).unwrap();
        drive(&mut mem, 8);
        let s = mem.stats();
        assert_eq!(s.total.reads, 1);
        assert_eq!(s.total.writes, 1);
        assert_eq!(s.total.bytes, 2 * TRANSACTION_BYTES);
        assert_eq!(s.per_core_bytes, vec![TRANSACTION_BYTES, TRANSACTION_BYTES]);
        let t = mem.bandwidth_trace().expect("tracing enabled");
        assert_eq!(t.total_series().iter().sum::<u64>(), 2 * TRANSACTION_BYTES);
    }
}
