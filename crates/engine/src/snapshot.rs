//! Bit-exact checkpoint/restore of a whole [`Simulation`].
//!
//! [`Simulation::snapshot`] serializes every piece of mutable state the
//! event loop can observe — per-core pipeline state, DMA stages, walk
//! parking lots, arbitration pointers, page tables, MMU, NoC links and
//! in-flight queues, the request log, the memory backend and the
//! simulation's one probe — into a versioned [`SimSnapshot`].
//! [`Simulation::restore`] reinstates it into a
//! *freshly built* simulation of the same configuration and workloads;
//! resuming from the restored state then yields a byte-identical
//! [`crate::RunReport`], the property the validation suite's lockstep laws
//! fence.
//!
//! What is deliberately *not* serialized:
//!
//! * structural state derivable from the configuration and traces (trace
//!   contents, `flat_tiles`, `layer_store_total`, channel partitions) —
//!   the snapshot instead carries fingerprints that restore validates;
//! * performance caches with no observable effect (`waiter_pool`,
//!   `retry_scratch`, the arbiter's `walker_blocked` scratch) — restore
//!   resets them empty;
//! * memos the event loop rebuilds (each core's `needs_progress`, the
//!   arbiter's `walker_event`, the DRAM attention and earliest-action
//!   caches, each channel's scheduler pick, the MMU's eviction mailbox) —
//!   restore sets them to their conservative values, whose only effect is
//!   an extra pass that the skip paths' invariants make a no-op;
//! * `completion_buf`, which is provably empty between pump passes.
//!
//! Maps are serialized in sorted key order so equal states produce equal
//! bytes, making snapshot equality a usable determinism oracle.

use crate::arbiter::{Arbiter, RetryTxn};
use crate::core_rt::CoreRt;
use crate::report::{LogEvent, LogKind};
use crate::sim::{RequestLog, Simulation};
use crate::stage::Stage;
use crate::system::SystemConfig;
use mnpu_mmu::Mmu;
use mnpu_probe::Probe;
use mnpu_snapshot::{fingerprint, fingerprint_u64, Reader, SimSnapshot, SnapError, Writer};
use mnpu_systolic::WorkloadTrace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Section tag for the engine's own state.
const ENGINE_TAG: u8 = 0xC0;

/// Fingerprint of a system configuration — the compatibility key stamped
/// into every snapshot. Derived from the `Debug` rendering of the full
/// config, which covers every field deterministically.
pub fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    fingerprint(&format!("{cfg:?}"))
}

/// Structural fingerprint of a workload trace: name, layer count, tile
/// count, total compute cycles, footprint and total traffic. Restoring a
/// snapshot validates each core's bound trace against this, catching the
/// overwhelmingly likely mismatches (different workload, different scale,
/// different tiling) without serializing whole traces.
pub fn trace_fingerprint(trace: &WorkloadTrace) -> u64 {
    let mut h = fingerprint(trace.name());
    h = fingerprint_u64(h, trace.layers().len() as u64);
    h = fingerprint_u64(h, trace.total_tiles() as u64);
    h = fingerprint_u64(h, trace.total_compute_cycles());
    h = fingerprint_u64(h, trace.footprint_bytes());
    h = fingerprint_u64(h, trace.total_traffic_bytes());
    h
}

/// The elements of a min-heap in ascending order — the snapshot form of
/// the ideal memory's in-flight list and the NoC queues. Pop order is a
/// pure function of this list, so collecting it back into a heap restores
/// the same queue.
pub(crate) fn sorted_heap<T: Ord + Copy>(heap: &BinaryHeap<Reverse<T>>) -> Vec<T> {
    let mut items: Vec<T> = heap.iter().map(|&Reverse(t)| t).collect();
    items.sort_unstable();
    items
}

fn log_kind_code(k: LogKind) -> u8 {
    match k {
        LogKind::TlbHit => 0,
        LogKind::TlbMiss => 1,
        LogKind::WalkStart => 2,
        LogKind::WalkDone => 3,
        LogKind::DramReadDone => 4,
        LogKind::DramWriteDone => 5,
    }
}

fn log_kind_from(code: u8) -> Result<LogKind, SnapError> {
    Ok(match code {
        0 => LogKind::TlbHit,
        1 => LogKind::TlbMiss,
        2 => LogKind::WalkStart,
        3 => LogKind::WalkDone,
        4 => LogKind::DramReadDone,
        5 => LogKind::DramWriteDone,
        _ => return Err(SnapError::BadValue("unknown log kind")),
    })
}

fn save_core(w: &mut Writer, rt: &CoreRt) {
    w.u64(trace_fingerprint(&rt.trace));
    w.seq(&rt.layer_store_remaining, |w, &v| w.u64(v));
    w.seq(&rt.layer_finish, |w, &v| w.u64(v));
    w.seq(&rt.tile_loaded, |w, &b| w.bool(b));
    w.usize(rt.next_load);
    w.usize(rt.next_compute);
    w.usize(rt.computed);
    w.opt(&rt.load_stage, |w, &s| w.usize(s));
    w.seq(&rt.active_stores, |w, &s| w.usize(s));
    w.opt(&rt.computing, |w, &(flat, at)| {
        w.usize(flat);
        w.u64(at);
    });
    w.usize(rt.outstanding);
    w.u64(rt.iter);
    w.u64(rt.start_cycle);
    w.opt(&rt.finished_at, |w, &v| w.u64(v));
    w.u64(rt.compute_cycles_total);
    w.u64(rt.data_txns);
    w.u64(rt.walk_txns);
}

/// Restore one core's mutable state in place. The trace (and everything
/// derived from it) stays as built; the fingerprint check ties the
/// serialized state to it.
fn load_core(r: &mut Reader<'_>, core: usize, rt: &mut CoreRt) -> Result<(), SnapError> {
    if r.u64()? != trace_fingerprint(&rt.trace) {
        return Err(SnapError::TraceMismatch { core });
    }
    let layer_store_remaining = r.seq(|r| r.u64())?;
    let layer_finish = r.seq(|r| r.u64())?;
    let tile_loaded = r.seq(|r| r.bool())?;
    if layer_store_remaining.len() != rt.layer_store_total.len()
        || layer_finish.len() != rt.layer_finish.len()
        || tile_loaded.len() != rt.flat_tiles.len()
    {
        return Err(SnapError::BadValue("core pipeline shape mismatch"));
    }
    rt.layer_store_remaining = layer_store_remaining;
    rt.layer_finish = layer_finish;
    rt.tile_loaded = tile_loaded;
    rt.next_load = r.usize()?;
    rt.next_compute = r.usize()?;
    rt.computed = r.usize()?;
    rt.load_stage = r.opt(|r| r.usize())?;
    rt.active_stores = r.seq(|r| r.usize())?;
    rt.computing = r.opt(|r| Ok((r.usize()?, r.u64()?)))?;
    rt.outstanding = r.usize()?;
    rt.iter = r.u64()?;
    rt.start_cycle = r.u64()?;
    rt.finished_at = r.opt(|r| r.u64())?;
    rt.compute_cycles_total = r.u64()?;
    rt.data_txns = r.u64()?;
    rt.walk_txns = r.u64()?;
    rt.needs_progress = true;
    Ok(())
}

fn save_arbiter(w: &mut Writer, a: &Arbiter) {
    w.usize(a.rr_start);
    let retry: Vec<RetryTxn> = a.dram_retry.iter().copied().collect();
    w.seq(&retry, |w, &(core, paddr, is_write, meta)| {
        w.usize(core);
        w.u64(paddr);
        w.bool(is_write);
        w.u64(meta);
    });
    w.seq(&a.walker_wait_order, |w, q| {
        let vpns: Vec<u64> = q.iter().copied().collect();
        w.seq(&vpns, |w, &v| w.u64(v));
    });
    type WaiterEntry<'a> = (&'a (usize, u64), &'a Vec<(usize, u64)>);
    let waiters: Vec<WaiterEntry<'_>> = a.walker_waiters.iter().collect();
    w.seq(&waiters, |w, &(&(core, vpn), parked)| {
        w.usize(core);
        w.u64(vpn);
        w.seq(parked, |w, &(stage, vaddr)| {
            w.usize(stage);
            w.u64(vaddr);
        });
    });
}

fn load_arbiter(r: &mut Reader<'_>, a: &mut Arbiter, cores: usize) -> Result<(), SnapError> {
    a.rr_start = r.usize()?;
    if a.rr_start >= cores {
        return Err(SnapError::BadValue("round-robin pointer out of range"));
    }
    a.dram_retry = r
        .seq(|r| Ok((r.usize()?, r.u64()?, r.bool()?, r.u64()?)))?
        .into_iter()
        .collect::<VecDeque<RetryTxn>>();
    let wait_order = r.seq(|r| Ok(r.seq(|r| r.u64())?.into_iter().collect::<VecDeque<u64>>()))?;
    if wait_order.len() != cores {
        return Err(SnapError::BadValue("walker wait queue core count mismatch"));
    }
    a.walker_wait_order = wait_order;
    let waiters = r.seq(|r| {
        let key = (r.usize()?, r.u64()?);
        let parked = r.seq(|r| Ok((r.usize()?, r.u64()?)))?;
        Ok((key, parked))
    })?;
    a.walker_waiters = waiters.into_iter().collect();
    // A memo: the drain it forces finds nothing to do (see `walker_event`).
    a.walker_event = true;
    // Pure scratch: rebuilt empty/false, matching what a native run holds
    // outside `drain_walker_wait` / `issue_all`.
    a.walker_blocked = vec![false; cores];
    a.retry_scratch = VecDeque::new();
    Ok(())
}

fn save_request_log(w: &mut Writer, log: &RequestLog) {
    let events: Vec<LogEvent> = log.events.iter().cloned().collect();
    w.seq(&events, |w, e| {
        w.u64(e.cycle);
        w.usize(e.core);
        w.u8(log_kind_code(e.kind));
        w.u64(e.addr);
    });
    w.bool(log.truncated);
}

fn load_request_log(r: &mut Reader<'_>, log: &mut RequestLog) -> Result<(), SnapError> {
    let events = r.seq(|r| {
        Ok(LogEvent {
            cycle: r.u64()?,
            core: r.usize()?,
            kind: log_kind_from(r.u8()?)?,
            addr: r.u64()?,
        })
    })?;
    if let Some(cap) = log.cap {
        if events.len() > cap {
            return Err(SnapError::BadValue("request log exceeds its cap"));
        }
    }
    log.events = events.into_iter().collect();
    log.truncated = r.bool()?;
    Ok(())
}

impl<P: Probe> Simulation<P> {
    /// Capture the complete mutable state of this simulation as a
    /// [`SimSnapshot`] — the restore target is a freshly built simulation
    /// of the same configuration and workload bindings (see
    /// [`Simulation::restore`]). The snapshot is self-contained and
    /// versioned; [`SimSnapshot::to_bytes`] / [`SimSnapshot::to_json`]
    /// serialize it across process restarts.
    ///
    /// Snapshots of equal states are byte-equal: all internal maps are
    /// written in sorted key order and heaps as their sorted key multisets.
    pub fn snapshot(&self) -> SimSnapshot {
        self.snapshot_as(self.mmu.as_ref(), config_fingerprint(&self.cfg))
    }

    /// [`Simulation::snapshot`] with the MMU section and config
    /// fingerprint substituted — the fork primitive behind shadow-variant
    /// prefix sharing ([`Simulation::fork_snapshot`]).
    pub(crate) fn snapshot_as(&self, mmu: Option<&Mmu>, config_fp: u64) -> SimSnapshot {
        debug_assert!(
            self.completion_buf.is_empty(),
            "snapshot taken mid-pump: completion buffer not drained"
        );
        let mut w = Writer::new();
        w.tag(ENGINE_TAG);
        w.u64(self.now);
        w.bool(self.pumped);
        w.seq(&self.finish_reported, |w, &b| w.bool(b));
        w.seq(&self.cores, save_core);
        w.seq(&self.stages, |w, s| s.save(w));
        let parked: Vec<(&u64, &Vec<(usize, u64)>)> = self.walk_waiters.iter().collect();
        w.seq(&parked, |w, &(&walk, waiters)| {
            w.u64(walk);
            w.seq(waiters, |w, &(stage, vaddr)| {
                w.usize(stage);
                w.u64(vaddr);
            });
        });
        save_arbiter(&mut w, &self.arbiter);
        w.seq(&self.page_tables, |w, pt| pt.save_state(w));
        w.opt(&mmu, |w, m| m.save_state(w));
        w.opt(&self.noc, |w, n| n.save_state(w));
        w.seq(&sorted_heap(&self.noc_requests), |w, &(t, core, paddr, is_write, meta)| {
            w.u64(t);
            w.usize(core);
            w.u64(paddr);
            w.bool(is_write);
            w.u64(meta);
        });
        w.seq(&sorted_heap(&self.noc_responses), |w, &(t, meta, core)| {
            w.u64(t);
            w.u64(meta);
            w.usize(core);
        });
        w.opt(&self.log, save_request_log);
        self.memory.save_state(&mut w);
        self.probe.save_state(&mut w);
        SimSnapshot::new(config_fp, w.finish())
    }

    /// Restore a snapshot taken by [`Simulation::snapshot`] (or forked by
    /// [`Simulation::fork_snapshot`]) into this simulation, which must be
    /// freshly built from the same configuration and workload bindings.
    /// Afterwards, driving this simulation is byte-equivalent to driving
    /// the one the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// * [`SnapError::VersionMismatch`] — snapshot from an incompatible
    ///   format version;
    /// * [`SnapError::ConfigMismatch`] — snapshot of a different system
    ///   configuration;
    /// * [`SnapError::TraceMismatch`] — a core's bound workload differs
    ///   from the one the snapshot expects;
    /// * any other [`SnapError`] — malformed or corrupt payload.
    ///
    /// On error the simulation is left in an unspecified (possibly
    /// partially restored) state and must be discarded — restore into a
    /// freshly built instance, not one you need to keep.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapError> {
        if snap.version != mnpu_snapshot::SNAPSHOT_VERSION {
            return Err(SnapError::VersionMismatch {
                found: snap.version,
                expected: mnpu_snapshot::SNAPSHOT_VERSION,
            });
        }
        let expected = config_fingerprint(&self.cfg);
        if snap.config_fp != expected {
            return Err(SnapError::ConfigMismatch { found: snap.config_fp, expected });
        }
        let mut r = Reader::new(&snap.payload);
        r.tag(ENGINE_TAG)?;
        self.now = r.u64()?;
        self.pumped = r.bool()?;
        let finish_reported = r.seq(|r| r.bool())?;
        if finish_reported.len() != self.cores.len() {
            return Err(SnapError::BadValue("core count mismatch"));
        }
        self.finish_reported = finish_reported;
        let ncores = self.cores.len();
        {
            let mut idx = 0usize;
            let n = r.usize()?;
            if n != ncores {
                return Err(SnapError::BadValue("core count mismatch"));
            }
            while idx < n {
                load_core(&mut r, idx, &mut self.cores[idx])?;
                idx += 1;
            }
        }
        self.stages = r.seq(Stage::load)?;
        let parked = r.seq(|r| {
            let walk = r.u64()?;
            let waiters = r.seq(|r| Ok((r.usize()?, r.u64()?)))?;
            Ok((walk, waiters))
        })?;
        self.walk_waiters = parked.into_iter().collect();
        load_arbiter(&mut r, &mut self.arbiter, ncores)?;
        {
            let n = r.usize()?;
            if n != self.page_tables.len() {
                return Err(SnapError::BadValue("page table count mismatch"));
            }
            for pt in &mut self.page_tables {
                pt.load_state(&mut r)?;
            }
        }
        let has_mmu = r.bool()?;
        if has_mmu != self.mmu.is_some() {
            return Err(SnapError::BadValue("translation enablement mismatch"));
        }
        if let Some(mmu) = &mut self.mmu {
            mmu.load_state(&mut r)?;
        }
        let has_noc = r.bool()?;
        if has_noc != self.noc.is_some() {
            return Err(SnapError::BadValue("NoC enablement mismatch"));
        }
        if let Some(noc) = &mut self.noc {
            noc.load_state(&mut r)?;
        }
        let requests = r.seq(|r| Ok((r.u64()?, r.usize()?, r.u64()?, r.bool()?, r.u64()?)))?;
        self.noc_requests = requests.into_iter().map(Reverse).collect();
        let responses = r.seq(|r| Ok((r.u64()?, r.u64()?, r.usize()?)))?;
        self.noc_responses = responses.into_iter().map(Reverse).collect();
        let has_log = r.bool()?;
        if has_log != self.log.is_some() {
            return Err(SnapError::BadValue("request log enablement mismatch"));
        }
        if let Some(log) = &mut self.log {
            load_request_log(&mut r, log)?;
        }
        self.memory.load_state(&mut r)?;
        self.probe.load_state(&mut r)?;
        r.done()?;
        // Performance caches carry no observable state; start them fresh.
        self.completion_buf = Vec::new();
        self.waiter_pool = Vec::new();
        self.shadows = None;
        Ok(())
    }
}
