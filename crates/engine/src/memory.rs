//! The pluggable memory-system boundary.
//!
//! The simulation loop talks to DRAM only through [`MemorySystem`], so the
//! timing model behind the chip's memory controller can be swapped without
//! touching the pipeline, translation, or arbitration logic. Two backends
//! ship with the engine:
//!
//! * [`DramMemory`] — the full FR-FCFS banked-DRAM model from [`mnpu_dram`]
//!   (the paper's configuration), including channel partitioning for
//!   non-DRAM-sharing levels and windowed bandwidth tracing;
//! * [`IdealMemory`] — a fixed-latency, infinite-bandwidth memory, useful
//!   as a contention-free upper bound and for isolating compute effects.

use crate::sharing::partition_channels;
use crate::system::SystemConfig;
use mnpu_dram::{BandwidthTrace, Completion, Dram, DramStats, EnqueueError, TRANSACTION_BYTES};
use mnpu_probe::{NullProbe, Probe};
use mnpu_snapshot::{Reader, SnapError, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Section tag for the memory backend's snapshot payload.
const MEMORY_TAG: u8 = 0xB0;

/// An in-flight ideal-memory transaction:
/// `(done_at, seq, core, addr, is_write, meta)`.
type InFlightTxn = (u64, u64, usize, u64, bool, u64);

/// Which [`MemorySystem`] backend a [`SystemConfig`] builds.
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

/// The memory system behind the cores' DMA engines and page-table walkers.
///
/// The contract mirrors how the event loop drives memory:
///
/// 1. [`enqueue`](MemorySystem::enqueue) submits one 64-byte transaction;
///    it may be refused with [`EnqueueError::QueueFull`], in which case the
///    caller must retry after the next event.
/// 2. [`tick`](MemorySystem::tick) advances the device to cycle `now`,
///    moving any serviced transactions into an internal completion buffer.
/// 3. [`drain_completions`](MemorySystem::drain_completions) takes that
///    buffer. Completion order must be deterministic for a given request
///    sequence — simulations are replayed across threads and compared.
/// 4. [`next_event_cycle`](MemorySystem::next_event_cycle) names the next
///    cycle at which the device state can change, letting the event loop
///    skip idle gaps. It must be strictly in the future once `tick` has
///    run, and `None` only when the device is completely idle.
///
/// The `P` parameter is the observability probe the backend feeds with
/// device events (DRAM row outcomes, refreshes, queue depths). A backend
/// owns no probe: [`enqueue`](MemorySystem::enqueue) and
/// [`tick`](MemorySystem::tick) borrow the simulation's on every call, as
/// [`Dram`]'s probed entry points do, so a run has exactly one probe. With
/// the default [`NullProbe`] every emission site compiles away; the trait
/// stays object-safe for any concrete `P`, so the engine holds a
/// `Box<dyn MemorySystem<P>>`.
pub trait MemorySystem<P: Probe = NullProbe>: std::fmt::Debug + Send {
    /// Submit a transaction at device cycle `now`, reporting device events
    /// into `probe`. `meta` is an opaque tag handed back in the matching
    /// [`Completion`].
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] when the target queue has no free slot.
    fn enqueue(
        &mut self,
        now: u64,
        core: usize,
        addr: u64,
        is_write: bool,
        meta: u64,
        probe: &mut P,
    ) -> Result<(), EnqueueError>;

    /// Advance device time to `now`, retiring due transactions into the
    /// completion buffer and reporting device events into `probe`.
    fn tick(&mut self, now: u64, probe: &mut P);

    /// Move all buffered completions into `out` (appending, in service
    /// order), leaving the internal buffer empty but with its capacity
    /// intact — the event loop passes one reused buffer so the steady
    /// state allocates nothing.
    fn drain_completions_into(&mut self, out: &mut Vec<Completion>);

    /// Take all buffered completions, in service order. Convenience form
    /// of [`drain_completions_into`](MemorySystem::drain_completions_into)
    /// for callers outside the hot loop.
    fn drain_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(&mut out);
        out
    }

    /// The next cycle at which the device needs attention, if any.
    fn next_event_cycle(&self) -> Option<u64>;

    /// Snapshot of device statistics.
    fn stats(&self) -> DramStats;

    /// Transactions enqueued or in flight (deadlock diagnostics).
    fn pending(&self) -> usize;

    /// The windowed bandwidth trace, when tracing is enabled.
    fn bandwidth_trace(&self) -> Option<BandwidthTrace>;

    /// Commands retired through the steady-state fast-forward path so far
    /// (telemetry only — reported into the process-global counters when
    /// the run's report is assembled). Backends without a fast path
    /// return 0.
    fn fastfwd_commits(&self) -> u64 {
        0
    }

    /// Serialize every piece of mutable device state into `w`, so a
    /// restored simulation's memory system is bit-identical to the
    /// snapshotted one.
    fn save_state(&self, w: &mut Writer);

    /// Restore state saved by [`save_state`](MemorySystem::save_state)
    /// into a device built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or shaped for a
    /// different device configuration.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError>;
}

fn save_completions(w: &mut Writer, ready: &[Completion]) {
    w.seq(ready, |w, c| {
        w.u64(c.meta);
        w.usize(c.core);
        w.u64(c.addr);
        w.bool(c.is_write);
        w.u64(c.completed_at);
    });
}

fn load_completions(r: &mut Reader<'_>) -> Result<Vec<Completion>, SnapError> {
    r.seq(|r| {
        Ok(Completion {
            meta: r.u64()?,
            core: r.usize()?,
            addr: r.u64()?,
            is_write: r.bool()?,
            completed_at: r.u64()?,
        })
    })
}

/// The banked FR-FCFS DRAM timing model, adapted to [`MemorySystem`].
#[derive(Debug)]
pub struct DramMemory {
    dram: Dram,
    ready: Vec<Completion>,
}

impl DramMemory {
    /// Wrap an already-configured [`Dram`] device.
    pub fn new(dram: Dram) -> Self {
        DramMemory { dram, ready: Vec::new() }
    }

    /// Build the device for `cfg`: total channel count, bandwidth tracing,
    /// and — for non-DRAM-sharing levels — the static channel partition.
    pub fn from_config(cfg: &SystemConfig) -> Self {
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
        DramMemory::new(dram)
    }
}

impl<P: Probe> MemorySystem<P> for DramMemory {
    fn enqueue(
        &mut self,
        now: u64,
        core: usize,
        addr: u64,
        is_write: bool,
        meta: u64,
        probe: &mut P,
    ) -> Result<(), EnqueueError> {
        self.dram.try_enqueue_probed(now, core, addr, is_write, meta, probe)
    }

    fn tick(&mut self, now: u64, probe: &mut P) {
        self.dram.advance_into_probed(now, &mut self.ready, probe);
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        // The caller's buffer is normally empty here, so a whole batch —
        // e.g. a fast-forwarded run of row hits — changes hands as one
        // pointer swap instead of a copy.
        if out.is_empty() {
            std::mem::swap(out, &mut self.ready);
        } else {
            out.append(&mut self.ready);
        }
    }

    fn next_event_cycle(&self) -> Option<u64> {
        self.dram.next_event()
    }

    fn stats(&self) -> DramStats {
        self.dram.stats()
    }

    fn pending(&self) -> usize {
        self.dram.pending()
    }

    fn bandwidth_trace(&self) -> Option<BandwidthTrace> {
        self.dram.trace().cloned()
    }

    fn fastfwd_commits(&self) -> u64 {
        self.dram.fastfwd_commits()
    }

    fn save_state(&self, w: &mut Writer) {
        w.tag(MEMORY_TAG);
        self.dram.save_state(w);
        save_completions(w, &self.ready);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(MEMORY_TAG)?;
        self.dram.load_state(r)?;
        self.ready = load_completions(r)?;
        Ok(())
    }
}

/// Fixed-latency, infinite-bandwidth memory: the service time of every
/// transaction is a constant and requests never queue against each other.
#[derive(Debug)]
pub struct IdealMemory {
    latency: u64,
    /// In-flight transactions ordered by `(done_at, seq)`; the sequence
    /// number keeps completion order deterministic within a cycle.
    in_flight: BinaryHeap<Reverse<InFlightTxn>>,
    ready: Vec<Completion>,
    seq: u64,
    stats: DramStats,
    trace: Option<BandwidthTrace>,
}

impl IdealMemory {
    /// A device serving `cores` requesters with a fixed `latency` (DRAM
    /// cycles, clamped to at least 1). `trace_window` enables the windowed
    /// bandwidth trace.
    pub fn new(cores: usize, latency: u64, trace_window: Option<u64>) -> Self {
        let stats = DramStats {
            // One pseudo-channel so per-channel consumers see the totals.
            per_channel: vec![Default::default()],
            per_core_bytes: vec![0; cores],
            ..Default::default()
        };
        IdealMemory {
            latency: latency.max(1),
            in_flight: BinaryHeap::new(),
            ready: Vec::new(),
            seq: 0,
            stats,
            trace: trace_window.map(|w| BandwidthTrace::new(w, cores)),
        }
    }
}

/// An ideal memory has no row buffers or queues, so it reports no device
/// events: the probe argument is unused.
impl<P: Probe> MemorySystem<P> for IdealMemory {
    fn enqueue(
        &mut self,
        now: u64,
        core: usize,
        addr: u64,
        is_write: bool,
        meta: u64,
        _probe: &mut P,
    ) -> Result<(), EnqueueError> {
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
        Ok(())
    }

    fn tick(&mut self, now: u64, _probe: &mut P) {
        while let Some(&Reverse((done_at, _, core, addr, is_write, meta))) = self.in_flight.peek() {
            if done_at > now {
                break;
            }
            self.in_flight.pop();
            if let Some(t) = &mut self.trace {
                t.record(done_at, core, TRANSACTION_BYTES);
            }
            self.ready.push(Completion { meta, core, addr, is_write, completed_at: done_at });
        }
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        if out.is_empty() {
            std::mem::swap(out, &mut self.ready);
        } else {
            out.append(&mut self.ready);
        }
    }

    fn next_event_cycle(&self) -> Option<u64> {
        self.in_flight.peek().map(|&Reverse((done_at, ..))| done_at)
    }

    fn stats(&self) -> DramStats {
        let mut s = self.stats.clone();
        s.total = s.per_channel[0].clone();
        s
    }

    fn pending(&self) -> usize {
        self.in_flight.len() + self.ready.len()
    }

    fn bandwidth_trace(&self) -> Option<BandwidthTrace> {
        self.trace.clone()
    }

    fn save_state(&self, w: &mut Writer) {
        w.tag(MEMORY_TAG);
        w.u64(self.latency);
        // The heap as its sorted key multiset: `(done_at, seq)` is unique
        // per entry, so pop order is a pure function of this set.
        let mut items: Vec<InFlightTxn> = self.in_flight.iter().map(|&Reverse(t)| t).collect();
        items.sort_unstable();
        w.seq(&items, |w, &(done_at, seq, core, addr, is_write, meta)| {
            w.u64(done_at);
            w.u64(seq);
            w.usize(core);
            w.u64(addr);
            w.bool(is_write);
            w.u64(meta);
        });
        save_completions(w, &self.ready);
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
        r.tag(MEMORY_TAG)?;
        if r.u64()? != self.latency {
            return Err(SnapError::BadValue("ideal memory latency mismatch"));
        }
        let items =
            r.seq(|r| Ok((r.u64()?, r.u64()?, r.usize()?, r.u64()?, r.bool()?, r.u64()?)))?;
        self.in_flight = items.into_iter().map(Reverse).collect();
        self.ready = load_completions(r)?;
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

/// Build the backend selected by `cfg.memory`, reporting into whichever
/// probe the simulation hands each call.
pub(crate) fn build_memory<P: Probe>(cfg: &SystemConfig) -> Box<dyn MemorySystem<P>> {
    match cfg.memory {
        MemoryModel::Timing => Box::new(DramMemory::from_config(cfg)),
        MemoryModel::Ideal { latency } => {
            Box::new(IdealMemory::new(cfg.cores, latency, cfg.trace_window))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(mem: &mut dyn MemorySystem, until: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for now in 0..=until {
            mem.tick(now, &mut NullProbe);
            all.extend(mem.drain_completions());
        }
        all
    }

    #[test]
    fn ideal_memory_fixed_latency() {
        let mem: &mut dyn MemorySystem = &mut IdealMemory::new(2, 10, None);
        mem.enqueue(0, 0, 0x40, false, 7, &mut NullProbe).unwrap();
        mem.enqueue(3, 1, 0x80, true, 8, &mut NullProbe).unwrap();
        assert_eq!(mem.next_event_cycle(), Some(10));
        let done = drive(mem, 20);
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].meta, done[0].completed_at), (7, 10));
        assert_eq!((done[1].meta, done[1].completed_at), (8, 13));
        assert_eq!(mem.pending(), 0);
    }

    #[test]
    fn ideal_memory_never_rejects() {
        let mem: &mut dyn MemorySystem = &mut IdealMemory::new(1, 5, None);
        for i in 0..10_000u64 {
            assert!(mem.enqueue(0, 0, i * 64, i % 2 == 0, i, &mut NullProbe).is_ok());
        }
        assert_eq!(mem.pending(), 10_000);
        let done = drive(mem, 5);
        assert_eq!(done.len(), 10_000, "infinite bandwidth: all complete together");
    }

    #[test]
    fn ideal_memory_counts_stats() {
        let mem: &mut dyn MemorySystem = &mut IdealMemory::new(2, 4, Some(8));
        mem.enqueue(0, 0, 0x0, false, 0, &mut NullProbe).unwrap();
        mem.enqueue(0, 1, 0x40, true, 1, &mut NullProbe).unwrap();
        drive(mem, 8);
        let s = mem.stats();
        assert_eq!(s.total.reads, 1);
        assert_eq!(s.total.writes, 1);
        assert_eq!(s.total.bytes, 2 * TRANSACTION_BYTES);
        assert_eq!(s.per_core_bytes, vec![TRANSACTION_BYTES, TRANSACTION_BYTES]);
        let t = mem.bandwidth_trace().expect("tracing enabled");
        assert_eq!(t.total_series().iter().sum::<u64>(), 2 * TRANSACTION_BYTES);
    }
}
