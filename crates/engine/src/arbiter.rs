//! Arbitration between cores for the shared memory path: round-robin DMA
//! issue order, the DRAM-full retry queue, and the freed-walker grant
//! policy for the shared page-table-walker pool.

use crate::report::LogKind;
use crate::sim::{Simulation, META_WALK};
use mnpu_dram::{EnqueueError, TRANSACTION_BYTES};
use mnpu_mmu::WalkStart;
use mnpu_probe::{Event, Probe};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// A transaction rejected by a full DRAM queue, waiting to be retried:
/// `(core, paddr, is_write, meta)`.
pub(crate) type RetryTxn = (usize, u64, bool, u64);

/// Shared-resource arbitration state: who goes first this round, which
/// transactions bounced off a full DRAM queue, and which page-table walks
/// are parked waiting for a free walker.
#[derive(Debug)]
pub(crate) struct Arbiter {
    /// Rotating start index for round-robin fairness across cores (used by
    /// both DMA issue order and freed-walker grants).
    pub(crate) rr_start: usize,
    /// FCFS queue of transactions rejected with [`EnqueueError::QueueFull`].
    pub(crate) dram_retry: VecDeque<RetryTxn>,
    /// Per-core FCFS order of VPNs waiting for a free walker.
    pub(crate) walker_wait_order: Vec<VecDeque<u64>>,
    /// Transactions parked on each waiting `(core, vpn)`: `(stage, vaddr)`.
    /// A `BTreeMap` so any future iteration is deterministic by
    /// construction (see `Simulation::walk_waiters`).
    pub(crate) walker_waiters: BTreeMap<(usize, u64), Vec<(usize, u64)>>,
    /// Reused per-core "pool exhausted" scratch for `drain_walker_wait`.
    pub(crate) walker_blocked: Vec<bool>,
    /// `true` when a walk finished since the last `drain_walker_wait` —
    /// the only event that can free a walker or make a parked page
    /// resident. While it is `false`, the drain body is a provable no-op
    /// (`Mmu::probe` is `&self`, a failed `try_acquire` mutates nothing)
    /// and `issue_all` skips it, keeping only its round-robin rotation so
    /// the arbitration sequence stays bit-identical.
    pub(crate) walker_event: bool,
    /// Reused scratch for the retry-queue drain in `issue_all`.
    pub(crate) retry_scratch: VecDeque<RetryTxn>,
}

impl Arbiter {
    pub(crate) fn new(cores: usize) -> Self {
        Arbiter {
            rr_start: 0,
            dram_retry: VecDeque::new(),
            walker_wait_order: vec![VecDeque::new(); cores],
            walker_waiters: BTreeMap::new(),
            walker_blocked: vec![false; cores],
            walker_event: true,
            retry_scratch: VecDeque::new(),
        }
    }

    /// Advance the round-robin pointer and return the new starting core.
    pub(crate) fn rotate(&mut self, cores: usize) -> usize {
        self.rr_start = (self.rr_start + 1) % cores;
        self.rr_start
    }

    /// `true` if any core has walks parked waiting for a walker.
    pub(crate) fn has_walker_waiters(&self) -> bool {
        self.walker_wait_order.iter().any(|q| !q.is_empty())
    }
}

impl<P: Probe> Simulation<P> {
    /// Route a memory-bound transaction: across the interconnect when one
    /// is modeled, then into the DRAM queue (or the retry list when full).
    pub(crate) fn enqueue_or_retry(&mut self, core: usize, paddr: u64, is_write: bool, meta: u64) {
        if let Some(noc) = &mut self.noc {
            let arrival = noc.request_delivery(self.now, core, TRANSACTION_BYTES);
            if arrival > self.now {
                self.noc_requests.push(Reverse((arrival, core, paddr, is_write, meta)));
                return;
            }
        }
        self.enqueue_direct(core, paddr, is_write, meta);
    }

    pub(crate) fn enqueue_direct(&mut self, core: usize, paddr: u64, is_write: bool, meta: u64) {
        match self.memory.enqueue(self.now, core, paddr, is_write, meta, &mut self.probe) {
            Ok(()) => {
                if P::ENABLED {
                    self.probe.record(self.now, Event::DmaGrant { core });
                }
            }
            Err(EnqueueError::QueueFull { .. }) => {
                if P::ENABLED {
                    self.probe.record(self.now, Event::DmaRetry { core });
                }
                self.arbiter.dram_retry.push_back((core, paddr, is_write, meta));
            }
        }
    }

    /// Grant freed walkers to waiting walks, round-robin across cores so a
    /// walk-hungry core cannot head-of-line-block its co-runners at the
    /// shared pool (each per-core queue stays FCFS internally).
    pub(crate) fn drain_walker_wait(&mut self) {
        let ncores = self.cores.len();
        let mut blocked = std::mem::take(&mut self.arbiter.walker_blocked);
        blocked.iter_mut().for_each(|b| *b = false);
        // Rotate the starting core so freed walkers are granted round-robin
        // rather than by fixed core priority.
        let first = self.arbiter.rotate(ncores);
        loop {
            let mut progressed = false;
            for k in 0..ncores {
                let core = (first + k) % ncores;
                if blocked[core] || self.arbiter.walker_wait_order[core].is_empty() {
                    continue;
                }
                let vpn = self.arbiter.walker_wait_order[core][0];
                // The page may have become resident through a walk that
                // finished while this entry waited; never start a redundant
                // walk.
                let resident = self.mmu.as_ref().expect("walker wait without MMU").probe(core, vpn);
                self.mirror_probe(core, vpn, resident);
                if resident {
                    self.arbiter.walker_wait_order[core].pop_front();
                    let mut waiters =
                        self.arbiter.walker_waiters.remove(&(core, vpn)).unwrap_or_default();
                    for (stage_id, vaddr) in waiters.drain(..) {
                        let is_write = self.stages[stage_id].is_store;
                        let paddr = self.page_tables[core].translate(vaddr);
                        self.enqueue_or_retry(core, paddr, is_write, stage_id as u64);
                    }
                    self.recycle_waiters(waiters);
                    progressed = true;
                    continue;
                }
                let started = self.mmu.as_mut().expect("checked above").retry_walk(core, vpn);
                self.mirror_retry_walk(core, vpn, started);
                match started {
                    WalkStart::Started { walk, pt_addr } => {
                        if P::ENABLED {
                            self.probe
                                .record(self.now, Event::WalkStart { core, walk: walk.raw() });
                        }
                        self.log(core, LogKind::WalkStart, pt_addr);
                        self.arbiter.walker_wait_order[core].pop_front();
                        let waiters =
                            self.arbiter.walker_waiters.remove(&(core, vpn)).unwrap_or_default();
                        self.walk_waiters.insert(walk.raw(), waiters);
                        self.enqueue_or_retry(core, pt_addr, false, META_WALK | walk.raw());
                        progressed = true;
                    }
                    WalkStart::Joined(walk) => {
                        self.arbiter.walker_wait_order[core].pop_front();
                        let mut waiters =
                            self.arbiter.walker_waiters.remove(&(core, vpn)).unwrap_or_default();
                        self.walk_waiters.entry(walk.raw()).or_default().append(&mut waiters);
                        self.recycle_waiters(waiters);
                        progressed = true;
                    }
                    WalkStart::NoWalker => {
                        blocked[core] = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.arbiter.walker_blocked = blocked;
        // Progress from here on requires another walk completion.
        self.arbiter.walker_event = false;
    }

    /// One arbitration round: drain the retry queue (FCFS), grant freed
    /// walkers, then let each unfinished core issue, starting from the
    /// rotating round-robin index.
    pub(crate) fn issue_all(&mut self) {
        // Retry previously blocked transactions first (FCFS).
        if !self.arbiter.dram_retry.is_empty() {
            let mut remaining = std::mem::take(&mut self.arbiter.retry_scratch);
            debug_assert!(remaining.is_empty());
            while let Some((core, paddr, is_write, meta)) = self.arbiter.dram_retry.pop_front() {
                if self
                    .memory
                    .enqueue(self.now, core, paddr, is_write, meta, &mut self.probe)
                    .is_err()
                {
                    if P::ENABLED {
                        self.probe.record(self.now, Event::DmaRetry { core });
                    }
                    remaining.push_back((core, paddr, is_write, meta));
                } else if P::ENABLED {
                    self.probe.record(self.now, Event::DmaGrant { core });
                }
            }
            // The drained (now empty) queue becomes next round's scratch.
            std::mem::swap(&mut self.arbiter.dram_retry, &mut remaining);
            self.arbiter.retry_scratch = remaining;
        }
        if self.arbiter.has_walker_waiters() {
            if self.arbiter.walker_event {
                self.drain_walker_wait();
            } else {
                // No walk finished since the last drain, so no walker can
                // have freed and no parked page can have become resident —
                // the drain body would probe every queue and do nothing.
                // Its round-robin rotation is kept so the arbitration
                // sequence (and thus the report) is bit-identical.
                self.arbiter.rotate(self.cores.len());
            }
        }

        // Rotate the starting core so no core gets systematic first pick of
        // DRAM queue slots (FCFS arbitration, not fixed priority).
        let n = self.cores.len();
        let start = self.arbiter.rotate(n);
        for k in 0..n {
            let ci = (start + k) % n;
            if self.cores[ci].finished() || self.cores[ci].start_cycle > self.now {
                continue;
            }
            self.progress_core_if_woken(ci);
            self.issue_core(ci);
        }
    }

    fn issue_core(&mut self, ci: usize) {
        let budget = self.cfg.arch[ci].max_outstanding;
        self.cores[ci].blocked_on_dram = false;
        loop {
            if self.cores[ci].outstanding >= budget || self.cores[ci].blocked_on_dram {
                return;
            }
            // Pick the next transaction: the load stage first (it gates
            // compute), then the oldest store stage.
            let stage_id = {
                let rt = &self.cores[ci];
                let load = rt.load_stage.filter(|&s| self.stages[s].peek().is_some());
                let store =
                    rt.active_stores.iter().copied().find(|&s| self.stages[s].peek().is_some());
                match load.or(store) {
                    Some(s) => s,
                    None => return,
                }
            };
            let vaddr = self.stages[stage_id].peek().expect("peeked above");
            if !self.try_issue_txn(ci, stage_id, vaddr) {
                return;
            }
        }
    }

    /// Issue one transaction; returns `false` when the core must stop
    /// issuing (DRAM queue full).
    fn try_issue_txn(&mut self, ci: usize, stage_id: usize, vaddr: u64) -> bool {
        let is_write = self.stages[stage_id].is_store;
        if self.mmu.is_none() {
            // Translation disabled: direct mapping, no MMU timing.
            let paddr = self.page_tables[ci].translate(vaddr);
            match self.memory.enqueue(
                self.now,
                ci,
                paddr,
                is_write,
                stage_id as u64,
                &mut self.probe,
            ) {
                Ok(()) => {
                    if P::ENABLED {
                        self.probe.record(self.now, Event::DmaGrant { core: ci });
                    }
                    self.stages[stage_id].advance();
                    self.cores[ci].outstanding += 1;
                    true
                }
                Err(EnqueueError::QueueFull { .. }) => {
                    if P::ENABLED {
                        self.probe.record(self.now, Event::DmaRetry { core: ci });
                    }
                    self.cores[ci].blocked_on_dram = true;
                    false
                }
            }
        } else {
            let mmu = self.mmu.as_mut().expect("checked above");
            let vpn = mmu.vpn_of(vaddr);
            let hit = mmu.lookup(ci, vpn);
            self.mirror_lookup(ci, vpn, hit);
            if P::ENABLED {
                let ev = if hit { Event::TlbHit { core: ci } } else { Event::TlbMiss { core: ci } };
                self.probe.record(self.now, ev);
            }
            self.log(ci, if hit { LogKind::TlbHit } else { LogKind::TlbMiss }, vaddr);
            if hit {
                let paddr = self.page_tables[ci].translate(vaddr);
                match self.memory.enqueue(
                    self.now,
                    ci,
                    paddr,
                    is_write,
                    stage_id as u64,
                    &mut self.probe,
                ) {
                    Ok(()) => {
                        if P::ENABLED {
                            self.probe.record(self.now, Event::DmaGrant { core: ci });
                        }
                        self.stages[stage_id].advance();
                        self.cores[ci].outstanding += 1;
                        true
                    }
                    Err(EnqueueError::QueueFull { .. }) => {
                        if P::ENABLED {
                            self.probe.record(self.now, Event::DmaRetry { core: ci });
                        }
                        self.cores[ci].blocked_on_dram = true;
                        false
                    }
                }
            } else {
                // TLB miss: the transaction parks on a walk.
                self.stages[stage_id].advance();
                self.cores[ci].outstanding += 1;
                let started = self.mmu.as_mut().expect("checked above").start_or_join_walk(ci, vpn);
                self.mirror_start_walk(ci, vpn, started);
                match started {
                    WalkStart::Started { walk, pt_addr } => {
                        if P::ENABLED {
                            self.probe
                                .record(self.now, Event::WalkStart { core: ci, walk: walk.raw() });
                        }
                        self.log(ci, LogKind::WalkStart, pt_addr);
                        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
                        waiters.push((stage_id, vaddr));
                        self.walk_waiters.insert(walk.raw(), waiters);
                        self.enqueue_or_retry(ci, pt_addr, false, META_WALK | walk.raw());
                    }
                    WalkStart::Joined(walk) => {
                        self.walk_waiters.entry(walk.raw()).or_default().push((stage_id, vaddr));
                    }
                    WalkStart::NoWalker => {
                        if P::ENABLED {
                            self.probe.record(self.now, Event::WalkerStall { core: ci });
                        }
                        let entry = self.arbiter.walker_waiters.entry((ci, vpn)).or_default();
                        if entry.is_empty() {
                            self.arbiter.walker_wait_order[ci].push_back(vpn);
                        }
                        entry.push((stage_id, vaddr));
                    }
                }
                true
            }
        }
    }
}
