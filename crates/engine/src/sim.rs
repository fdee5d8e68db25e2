//! The event-driven multi-core simulation loop.
//!
//! The loop itself lives here; the moving parts it coordinates are split
//! into sibling modules: [`crate::stage`] (DMA burst expansion),
//! [`crate::core_rt`] (the per-core tile pipeline), [`crate::arbiter`]
//! (round-robin issue order and walker grants) and [`crate::memory`] (the
//! DRAM and ideal memory backends).

use crate::arbiter::Arbiter;
use crate::core_rt::CoreRt;
use crate::dispatch_probe;
use crate::memmap::PageTable;
use crate::memory::Memory;
use crate::report::{CoreReport, LogEvent, LogKind, RunReport};
use crate::stage::Stage;
use crate::system::SystemConfig;
use mnpu_dram::{Completion, TRANSACTION_BYTES};
use mnpu_mmu::{Mmu, WalkStep};
use mnpu_model::Network;
use mnpu_probe::{CoreState, Event, NullProbe, Phase, Probe};
use mnpu_systolic::WorkloadTrace;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Tag bit distinguishing page-table walk reads from data transactions.
pub(crate) const META_WALK: u64 = 1 << 63;

/// A request in flight on the interconnect: (arrival, core, paddr, is_write, meta).
pub(crate) type NocRequest = (u64, usize, u64, bool, u64);

/// The request log: optionally a bounded ring buffer. With a cap, the
/// *oldest* entries are dropped once full and `truncated` is latched, so a
/// long run keeps the most recent window instead of growing without bound.
#[derive(Debug)]
pub(crate) struct RequestLog {
    pub(crate) events: VecDeque<LogEvent>,
    pub(crate) cap: Option<usize>,
    pub(crate) truncated: bool,
}

impl RequestLog {
    fn new(cap: Option<usize>) -> Self {
        RequestLog { events: VecDeque::new(), cap, truncated: false }
    }

    fn push(&mut self, e: LogEvent) {
        if let Some(cap) = self.cap {
            if cap == 0 {
                self.truncated = true;
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
                self.truncated = true;
            }
        }
        self.events.push_back(e);
    }
}

/// An event-driven simulation of one multi-core NPU chip executing one
/// workload per core.
///
/// Most callers use [`Simulation::execute`] / [`Simulation::execute_networks`],
/// which pick the probe from [`SystemConfig::probe`]; the struct itself is
/// exposed for step-wise driving. The state is `Send`, so whole
/// simulations can be farmed out to worker threads (each simulation is
/// still single-threaded and deterministic).
///
/// `P` is the observability probe threaded through every subsystem. The
/// default [`NullProbe`] has `ENABLED = false`, so all emission sites
/// (`if P::ENABLED { ... }`) constant-fold away and the instrumented build
/// is bit- and speed-identical to the uninstrumented one.
#[derive(Debug)]
pub struct Simulation<P: Probe = NullProbe> {
    pub(crate) cfg: SystemConfig,
    pub(crate) memory: Memory,
    pub(crate) mmu: Option<Mmu>,
    pub(crate) page_tables: Vec<PageTable>,
    pub(crate) cores: Vec<CoreRt>,
    pub(crate) stages: Vec<Stage>,
    /// Transactions parked on each in-flight walk: raw walk id →
    /// `(stage, vaddr)` list. A `BTreeMap` so any future iteration is in
    /// deterministic key order by construction — replay determinism must
    /// not hinge on which accessor someone reaches for.
    pub(crate) walk_waiters: BTreeMap<u64, Vec<(usize, u64)>>,
    pub(crate) arbiter: Arbiter,
    pub(crate) log: Option<RequestLog>,
    pub(crate) probe: P,
    pub(crate) noc: Option<mnpu_noc::Crossbar>,
    /// Requests in flight on the interconnect, popped in full-tuple order.
    pub(crate) noc_requests: BinaryHeap<Reverse<NocRequest>>,
    /// Responses in flight back to cores: (arrival, meta, core), popped in
    /// full-tuple order.
    pub(crate) noc_responses: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// The one completion buffer: the memory backend appends to it and
    /// [`Simulation::pump`] drains it back to empty in the same pass,
    /// which is why snapshots may skip it.
    pub(crate) completion_buf: Vec<Completion>,
    /// Shadow MMUs mirroring the primary's call sequence for warm-start
    /// prefix sharing (`None` outside prefix-shared sweeps; see
    /// [`crate::shadow`]).
    pub(crate) shadows: Option<crate::shadow::ShadowMmus>,
    /// Recycled waiter vectors for `walk_waiters`: registration on
    /// walk-heavy configs (4 KB pages) parks transactions every few cycles,
    /// and each parking used to allocate a fresh `Vec`. Mirrors the
    /// arbiter's `retry_scratch` reuse pattern.
    pub(crate) waiter_pool: Vec<Vec<(usize, u64)>>,
    pub(crate) now: u64,
    /// Whether the current cycle has already had its fixpoint pass
    /// ([`Simulation::pump`]). Stepping via [`Simulation::advance`] must
    /// not pump the same cycle twice unless a new binding demands it: a
    /// redundant pass would rotate the round-robin arbiter and perturb an
    /// otherwise identical run.
    pub(crate) pumped: bool,
    /// Which cores' finishes have been surfaced through
    /// [`Advance::CoreFinished`] — each is reported exactly once.
    pub(crate) finish_reported: Vec<bool>,
}

/// What stopped a [`Simulation::advance`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// A core ran its bound workload to completion. Each finish is
    /// reported exactly once; the core is then free for
    /// [`Simulation::attach`].
    CoreFinished {
        /// The newly free core.
        core: usize,
        /// Global cycle the workload finished at.
        at: u64,
    },
    /// The next internal event lies beyond `stop_at`; the clock was moved
    /// to exactly `stop_at` so the caller can act there (e.g. admit a job
    /// arrival).
    Parked,
    /// Every core is finished or vacant and all finishes have been
    /// reported: nothing is left to simulate at any future cycle.
    Drained,
}

/// Build the MMU for `cfg` (when translation is enabled), deriving the
/// sharing-level flags and per-core page-table bases exactly as the
/// simulation constructor does. Shadow MMUs for warm-start prefix sharing
/// ([`Simulation::add_shadow_config`]) go through this same path so a
/// shadow is indistinguishable from the MMU a native run would build.
pub(crate) fn build_mmu(cfg: &SystemConfig, page_tables: &[PageTable]) -> Option<Mmu> {
    cfg.translation.then(|| {
        let mut m = cfg.mmu.clone();
        m.tlb_shared = cfg.sharing.shares_tlb();
        m.ptw_shared = cfg.sharing.shares_ptw();
        m.ptw_partition = if m.ptw_shared { None } else { cfg.ptw_partition.clone() };
        m.ptw_bounds = cfg.ptw_bounds.clone();
        let bases: Vec<u64> = page_tables.iter().map(PageTable::pt_region_base).collect();
        Mmu::new(m, cfg.cores, &bases)
    })
}

impl Simulation<NullProbe> {
    /// Build an uninstrumented simulation of `cfg` executing `traces[c]` on
    /// core `c`. (This constructor always uses [`NullProbe`] regardless of
    /// [`SystemConfig::probe`]; use [`Simulation::execute`] or
    /// [`Simulation::with_probe`] for instrumented runs.)
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does not
    /// match the core count.
    pub fn new(cfg: &SystemConfig, traces: &[WorkloadTrace]) -> Self {
        Simulation::with_probe(cfg, traces, NullProbe)
    }

    /// Run `traces` to completion with the probe selected by
    /// [`SystemConfig::probe`] (see [`crate::dispatch_probe`]): the
    /// default [`crate::ProbeMode::None`] runs the zero-cost [`NullProbe`]
    /// build, [`crate::ProbeMode::Stats`] fills [`RunReport::stats`].
    ///
    /// This is the engine's canonical batch entry point.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Simulation::new`].
    pub fn execute(cfg: &SystemConfig, traces: &[WorkloadTrace]) -> RunReport {
        dispatch_probe!(cfg.probe, P => Simulation::with_probe(cfg, traces, P::default()).run())
    }

    /// Convenience over [`Simulation::execute`]: generate traces for
    /// `networks` with each core's [`mnpu_systolic::ArchConfig`] first.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Simulation::new`].
    pub fn execute_networks(cfg: &SystemConfig, networks: &[Network]) -> RunReport {
        assert_eq!(networks.len(), cfg.cores, "one network per core");
        let traces: Vec<WorkloadTrace> =
            networks.iter().zip(&cfg.arch).map(|(n, a)| WorkloadTrace::generate(n, a)).collect();
        Simulation::execute(cfg, &traces)
    }

    /// [`Simulation::execute`], but checkpointed at cycle `at`: drive to
    /// `at`, snapshot, restore the snapshot into a *freshly built*
    /// simulation, and finish the run there.
    ///
    /// [`Simulation::run`] is itself an [`Simulation::advance`] loop, and
    /// restore reinstates every bit of mutable state, so the returned
    /// report is byte-identical to [`Simulation::execute`] for every `at`
    /// — the lockstep property the validation suite fences.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Simulation::new`], or if the
    /// engine produced a snapshot its twin refuses to restore (a bug).
    pub fn execute_checkpointed(
        cfg: &SystemConfig,
        traces: &[WorkloadTrace],
        at: u64,
    ) -> RunReport {
        dispatch_probe!(cfg.probe, P => {
            let mut sim = Simulation::with_probe(cfg, traces, P::default());
            while let Advance::CoreFinished { .. } = sim.advance(at) {}
            let snap = sim.snapshot();
            drop(sim);
            let mut resumed = Simulation::with_probe(cfg, traces, P::default());
            resumed.restore(&snap).expect("snapshot restores into its twin");
            resumed.run()
        })
    }
}

impl<P: Probe> Simulation<P> {
    /// Build a simulation instrumented by `probe`: the one probe of the
    /// run, fed by the engine and lent to the memory backend on every
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does not
    /// match the core count.
    pub fn with_probe(cfg: &SystemConfig, traces: &[WorkloadTrace], probe: P) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one workload trace per core");
        let cores = traces
            .iter()
            .enumerate()
            .map(|(c, t)| {
                let start = cfg.start_cycles.get(c).copied().unwrap_or(0);
                CoreRt::new(t.clone(), start)
            })
            .collect();
        Simulation::build(cfg, cores, vec![false; cfg.cores], probe)
    }

    /// Build a simulation instrumented by `probe` with every core vacant
    /// (already finished, finish pre-reported) — the starting point for
    /// serve mode, where workloads are bound later with
    /// [`Simulation::attach`] as jobs are dispatched.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_probe_idle(cfg: &SystemConfig, probe: P) -> Self {
        let cores = (0..cfg.cores).map(|_| CoreRt::vacant()).collect();
        Simulation::build(cfg, cores, vec![true; cfg.cores], probe)
    }

    fn build(cfg: &SystemConfig, cores: Vec<CoreRt>, finish_reported: Vec<bool>, probe: P) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid system config: {e}");
        }

        let memory = Memory::new(cfg);

        let cap = cfg.capacity_per_core();
        let page_tables: Vec<PageTable> = (0..cfg.cores)
            .map(|c| {
                PageTable::new(c as u64 * cap, cap, cfg.mmu.page_bytes, cfg.mmu.pt_region_bytes)
            })
            .collect();

        let mmu = build_mmu(cfg, &page_tables);

        Simulation {
            memory,
            mmu,
            page_tables,
            cores,
            stages: Vec::new(),
            walk_waiters: BTreeMap::new(),
            arbiter: Arbiter::new(cfg.cores),
            log: cfg.request_log.then(|| RequestLog::new(cfg.request_log_cap)),
            probe,
            noc: cfg.noc.as_ref().map(|n| mnpu_noc::Crossbar::new(n, cfg.cores)),
            noc_requests: BinaryHeap::new(),
            noc_responses: BinaryHeap::new(),
            completion_buf: Vec::new(),
            shadows: None,
            waiter_pool: Vec::new(),
            now: 0,
            pumped: false,
            finish_reported,
            cfg: cfg.clone(),
        }
    }

    /// Convert `cycles` in core `c`'s clock domain to global (DRAM) cycles.
    pub(crate) fn to_global(&self, core: usize, cycles: u64) -> u64 {
        let f = self.cfg.arch[core].freq_mhz as u128;
        let g = self.cfg.dram.freq_mhz as u128;
        ((cycles as u128 * g).div_ceil(f)) as u64
    }

    /// Convert global cycles to core `c`'s clock domain.
    fn to_core(&self, core: usize, cycles: u64) -> u64 {
        let f = self.cfg.arch[core].freq_mhz as u128;
        let g = self.cfg.dram.freq_mhz as u128;
        ((cycles as u128 * f).div_ceil(g)) as u64
    }

    /// Run the simulation to completion and produce the report: an
    /// [`Simulation::advance`] loop with no stop cycle, so a straight run
    /// and a chunked or checkpointed one share the one event loop.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (a bug) with a state dump.
    pub fn run(mut self) -> RunReport {
        while self.advance(u64::MAX) != Advance::Drained {}
        self.report()
    }

    /// One fixpoint pass at the current cycle: deliver interconnect
    /// traffic due by now, tick memory, retire completions, progress every
    /// woken core, and let the arbiter issue. Marks the cycle pumped so
    /// [`Simulation::advance`] never double-arbitrates it.
    fn pump(&mut self) {
        // Interconnect deliveries due by now.
        while let Some(&Reverse((t, core, paddr, is_write, meta))) = self.noc_requests.peek() {
            if t > self.now {
                break;
            }
            self.noc_requests.pop();
            self.enqueue_direct(core, paddr, is_write, meta);
        }
        while let Some(&Reverse((t, meta, core))) = self.noc_responses.peek() {
            if t > self.now {
                break;
            }
            self.noc_responses.pop();
            self.handle_completion(meta, core);
        }

        // Reused completion buffer: taken out for the duration of the walk
        // because `handle_completion` needs `&mut self`.
        let mut ready = std::mem::take(&mut self.completion_buf);
        self.memory.advance_into(self.now, &mut ready, &mut self.probe);
        for c in ready.drain(..) {
            if let Some(noc) = &mut self.noc {
                let arrival =
                    noc.response_delivery(c.completed_at.min(self.now), c.core, TRANSACTION_BYTES);
                if arrival > self.now {
                    self.noc_responses.push(Reverse((arrival, c.meta, c.core)));
                    continue;
                }
            }
            self.handle_completion(c.meta, c.core);
        }
        self.completion_buf = ready;
        for core in 0..self.cores.len() {
            self.progress_core_if_woken(core);
        }
        self.issue_all();

        // One state sample per core per pass. State only changes inside
        // passes, so the piecewise-constant integration in the probe is
        // cycle-exact (free with `NullProbe`).
        if P::ENABLED {
            self.sample_core_states();
        }
        self.pumped = true;
    }

    /// The next cycle at which simulation state can change; `None` when
    /// nothing is in flight anywhere.
    fn next_event(&self) -> Option<u64> {
        let mut next: Option<u64> = self.memory.next_event();
        if let Some(&Reverse((t, ..))) = self.noc_requests.peek() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        if let Some(&Reverse((t, ..))) = self.noc_responses.peek() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        for core in &self.cores {
            if let Some((_, done_at)) = core.computing {
                next = Some(next.map_or(done_at, |n| n.min(done_at)));
            }
            if core.start_cycle > self.now && !core.finished() {
                next = Some(next.map_or(core.start_cycle, |n| n.min(core.start_cycle)));
            }
        }
        next
    }

    /// Advance the clock to event time `t`, entering a fresh (un-pumped)
    /// cycle.
    fn advance_now(&mut self, t: u64) {
        debug_assert!(t > self.now, "event time must advance");
        self.now = t.max(self.now + 1);
        if let Some(limit) = self.cfg.max_cycles {
            assert!(self.now <= limit, "simulation exceeded max_cycles = {limit} (watchdog)");
        }
        self.pumped = false;
    }

    /// Move the clock to `t` without simulating the gap — callers use this
    /// only when no event lies in `(now, t]`, so the skipped cycles are
    /// genuinely empty. The current cycle's pumped state is kept: nothing
    /// changed, so re-arbitrating would only perturb the round-robin
    /// pointers.
    fn park_at(&mut self, t: u64) {
        debug_assert!(t >= self.now, "cannot rewind the clock");
        self.now = t;
        if let Some(limit) = self.cfg.max_cycles {
            assert!(self.now <= limit, "simulation exceeded max_cycles = {limit} (watchdog)");
        }
    }

    // --- dynamic core binding (serve mode) ---------------------------------

    /// Step the simulation until a core finishes, the next event passes
    /// `stop_at`, or nothing is left to simulate.
    ///
    /// This is the engine's one event loop: [`Simulation::run`] is
    /// `advance(u64::MAX)` until [`Advance::Drained`], and chunked,
    /// checkpointed and serve drivers cut the same loop at their own stop
    /// cycles. Finish notifications only flip a bookkeeping bit, which is
    /// what keeps serve mode byte-identical to batch mode when every job
    /// arrives at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `stop_at` is in the past, on deadlock, or when the
    /// watchdog limit is exceeded.
    pub fn advance(&mut self, stop_at: u64) -> Advance {
        assert!(stop_at >= self.now, "stop_at must not be in the past");
        loop {
            if !self.pumped {
                self.pump();
            }
            if let Some(core) = (0..self.cores.len())
                .find(|&c| self.cores[c].finished() && !self.finish_reported[c])
            {
                self.finish_reported[core] = true;
                let at = self.cores[core].finished_at.expect("core finished");
                return Advance::CoreFinished { core, at };
            }
            if self.cores.iter().all(CoreRt::finished) {
                return Advance::Drained;
            }
            match self.next_event() {
                Some(t) if t > stop_at => {
                    if stop_at > self.now {
                        self.park_at(stop_at);
                    }
                    return Advance::Parked;
                }
                Some(t) => self.advance_now(t),
                None => self.deadlock_panic(),
            }
        }
    }

    /// Bind `trace` to `core` starting at `start_cycle`. The core must be
    /// free: vacant, or finished with its completion already surfaced
    /// through [`Advance::CoreFinished`]. The core's TLB entries are
    /// flushed (its address space is reused), its pipeline state is
    /// rebuilt from the new trace, and the current cycle is re-pumped so a
    /// same-cycle dispatch starts issuing immediately instead of sleeping
    /// until the next unrelated event.
    ///
    /// MMU, DRAM and link statistics accumulate across bindings — they
    /// describe the core, not the job. Per-job timing belongs to the
    /// scheduler driving this API.
    ///
    /// # Panics
    ///
    /// Panics if the core is still running, its finish has not been
    /// observed, transactions are still in flight, or `start_cycle` is in
    /// the past.
    pub fn attach(&mut self, core: usize, trace: &WorkloadTrace, start_cycle: u64) {
        let rt = &self.cores[core];
        assert!(rt.finished(), "attach to a busy core");
        assert!(self.finish_reported[core], "attach before the finish was observed");
        assert_eq!(rt.outstanding, 0, "attach with transactions in flight");
        assert!(start_cycle >= self.now, "start_cycle must not be in the past");
        if let Some(mmu) = &mut self.mmu {
            mmu.flush_core(core);
            self.mirror_flush_core(core);
        }
        self.cores[core] = CoreRt::new(trace.clone(), start_cycle);
        self.finish_reported[core] = false;
        self.pumped = false;
    }

    /// The current global (DRAM-clock) cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jump an idle simulation's clock forward to `cycle` — e.g. to the
    /// next job arrival after [`Advance::Drained`].
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is in the past or beyond the watchdog limit.
    pub fn skip_to(&mut self, cycle: u64) {
        assert!(cycle >= self.now, "cannot rewind the clock");
        self.park_at(cycle);
    }

    /// Feed one external event (a scheduler's job-lifecycle marker) into
    /// the simulation's probe at the current cycle. Free with
    /// [`NullProbe`].
    pub fn record_event(&mut self, event: Event) {
        if P::ENABLED {
            self.probe.record(self.now, event);
        }
    }

    /// Consume a drained simulation and assemble the final [`RunReport`] —
    /// the serve-mode counterpart of [`Simulation::run`]'s return value.
    ///
    /// # Panics
    ///
    /// Panics if any core is still running.
    pub fn into_report(self) -> RunReport {
        assert!(self.cores.iter().all(CoreRt::finished), "cores still running");
        self.report()
    }

    fn deadlock_panic(&self) -> ! {
        let states: Vec<String> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "core {i}: loaded_tile={}/{} computed={} outstanding={} finished={}",
                    c.next_load,
                    c.flat_tiles.len(),
                    c.computed,
                    c.outstanding,
                    c.finished()
                )
            })
            .collect();
        panic!(
            "simulation deadlock at cycle {}: no pending events but cores unfinished\n{}\nwalker_wait={} dram_retry={} dram_pending={}",
            self.now,
            states.join("\n"),
            self.arbiter.walker_wait_order.iter().map(std::collections::VecDeque::len).sum::<usize>(),
            self.arbiter.dram_retry.len(),
            self.memory.pending()
        );
    }

    // --- observability -----------------------------------------------------

    /// Emit one [`Event::CoreState`] per core at the current cycle.
    fn sample_core_states(&mut self) {
        for ci in 0..self.cores.len() {
            let state = self.classify_core(ci);
            self.probe.record(self.now, Event::CoreState { core: ci, state });
        }
    }

    /// What is core `ci` doing *right now*? Priority order matters: a core
    /// that is computing is `Compute` even if a store is also draining —
    /// the stall buckets answer "what would have to speed up for this core
    /// to finish sooner".
    fn classify_core(&self, ci: usize) -> CoreState {
        let rt = &self.cores[ci];
        if rt.finished() {
            return CoreState::Finished;
        }
        if rt.start_cycle > self.now {
            return CoreState::Idle;
        }
        if rt.computing.is_some() {
            return CoreState::Compute;
        }
        if self.translation_pending(ci) {
            return CoreState::WaitTranslation;
        }
        if rt.next_compute < rt.flat_tiles.len() && !rt.tile_loaded[rt.next_compute] {
            return CoreState::WaitLoad;
        }
        CoreState::WaitStore
    }

    /// `true` when core `ci` has transactions parked on an in-flight or
    /// walker-starved page-table walk. Only called from the probed sampling
    /// path, so the linear scan is outside the `NullProbe` hot path.
    fn translation_pending(&self, ci: usize) -> bool {
        if self.mmu.is_none() {
            return false;
        }
        if !self.arbiter.walker_wait_order[ci].is_empty() {
            return true;
        }
        self.walk_waiters.values().flatten().any(|&(stage, _)| self.stages[stage].core == ci)
    }

    // --- event handling ----------------------------------------------------

    /// Return a drained waiter vector to the reuse pool. Bounded so a
    /// pathological workload cannot hoard memory through the pool; beyond
    /// the cap the vector just drops, which is the old behavior.
    pub(crate) fn recycle_waiters(&mut self, waiters: Vec<(usize, u64)>) {
        debug_assert!(waiters.is_empty(), "recycled waiter vec must be drained");
        if self.waiter_pool.len() < 64 {
            self.waiter_pool.push(waiters);
        }
    }

    fn handle_completion(&mut self, meta: u64, core: usize) {
        if meta & META_WALK != 0 {
            self.cores[core].walk_txns += 1;
            let walk = mnpu_mmu::WalkId::from_raw(meta & !META_WALK);
            let mmu = self.mmu.as_mut().expect("walk completion without MMU");
            let step = mmu.advance_walk(walk);
            self.mirror_advance_walk(walk, step);
            match step {
                WalkStep::Access(addr) => {
                    self.enqueue_or_retry(core, addr, false, meta);
                }
                WalkStep::Done { core: wcore, vpn } => {
                    debug_assert_eq!(core, wcore);
                    if P::ENABLED {
                        self.probe.record(self.now, Event::WalkDone { core, walk: walk.raw() });
                        let evicted = self.mmu.as_mut().expect("checked").take_last_eviction();
                        self.mirror_take_eviction(evicted);
                        if let Some((owner, _vpn)) = evicted {
                            self.probe.record(self.now, Event::TlbEvict { core: owner as usize });
                        }
                    }
                    let page = self.mmu.as_ref().expect("checked").page_bytes();
                    self.log(core, LogKind::WalkDone, vpn * page);
                    if let Some(mut waiters) = self.walk_waiters.remove(&walk.raw()) {
                        for (stage_id, vaddr) in waiters.drain(..) {
                            let is_write = self.stages[stage_id].is_store;
                            let paddr = self.page_tables[core].translate(vaddr);
                            self.enqueue_or_retry(core, paddr, is_write, stage_id as u64);
                        }
                        self.recycle_waiters(waiters);
                    }
                    // A walker was freed: try to start queued walks.
                    self.arbiter.walker_event = true;
                    self.drain_walker_wait();
                }
            }
        } else {
            let stage_id = meta as usize;
            if self.log.is_some() {
                let kind = if self.stages[stage_id].is_store {
                    LogKind::DramWriteDone
                } else {
                    LogKind::DramReadDone
                };
                self.log(core, kind, 0);
            }
            let (done, is_store, layer, flat, score) = {
                let s = &mut self.stages[stage_id];
                s.completed += 1;
                (s.done(), s.is_store, s.layer, s.flat_tile, s.core)
            };
            {
                let rt = &mut self.cores[score];
                // A data completion can unblock the tile pipeline (tile
                // loaded, store drained, layer barrier released): wake the
                // core for the next progress pass.
                rt.needs_progress = true;
                rt.outstanding -= 1;
                rt.data_txns += 1;
                rt.blocked_on_dram = false;
                if is_store {
                    rt.layer_store_remaining[layer] -= 1;
                    if rt.layer_store_remaining[layer] == 0 {
                        rt.layer_finish[layer] = self.now;
                    }
                }
                if done {
                    if is_store {
                        rt.active_stores.retain(|&s| s != stage_id);
                    } else {
                        rt.tile_loaded[flat] = true;
                        if rt.load_stage == Some(stage_id) {
                            rt.load_stage = None;
                        }
                    }
                }
            }
            if done {
                if P::ENABLED {
                    let phase = if is_store { Phase::Store } else { Phase::Load };
                    self.probe
                        .record(self.now, Event::PhaseEnd { core: score, phase, id: flat as u64 });
                }
                self.stages[stage_id].spans = Vec::new(); // release memory
            }
        }
    }

    pub(crate) fn log(&mut self, core: usize, kind: LogKind, addr: u64) {
        if let Some(log) = &mut self.log {
            log.push(LogEvent { cycle: self.now, core, kind, addr });
        }
    }

    // --- reporting -----------------------------------------------------------

    fn report(mut self) -> RunReport {
        // Telemetry, not simulation state: the global fast-forward commit
        // counter feeds the daemon's `/metrics`, never the report.
        mnpu_trace::counters::add_fastfwd_commits(self.memory.fastfwd_commits());
        let total_cycles = self.cores.iter().filter_map(|c| c.finished_at).max().unwrap_or(0);
        let stats = if P::ENABLED {
            std::mem::take(&mut self.probe).into_report().map(|mut r| {
                // `active_cycles` is set from the engine's own clock rather
                // than integrated from samples, so the stall-sum invariant
                // (four buckets == active cycles) is a genuine cross-check.
                for (ci, rt) in self.cores.iter().enumerate() {
                    let finish = rt.finished_at.unwrap_or(self.now);
                    r.core_mut(ci).active_cycles = finish.saturating_sub(rt.start_cycle);
                }
                r
            })
        } else {
            None
        };
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(ci, rt)| {
                let finish = rt.finished_at.expect("core finished");
                let global = finish.saturating_sub(rt.start_cycle).max(1);
                let cycles = self.to_core(ci, global);
                let arch = &self.cfg.arch[ci];
                let macs: u64 =
                    rt.trace.layers().iter().flat_map(|l| &l.tiles).map(|t| t.macs).sum::<u64>()
                        * self.cfg.iterations;
                let mut layer_cycles = Vec::with_capacity(rt.layer_finish.len());
                let mut prev = rt.start_cycle;
                for (l, &fin) in rt.layer_finish.iter().enumerate() {
                    let fin = fin.max(prev);
                    layer_cycles
                        .push((rt.trace.layers()[l].name.clone(), self.to_core(ci, fin - prev)));
                    prev = fin;
                }
                CoreReport {
                    workload: rt.trace.name().to_string(),
                    cycles,
                    compute_cycles: rt.compute_cycles_total,
                    pe_utilization: macs as f64 / (arch.rows * arch.cols * cycles) as f64,
                    traffic_bytes: rt.data_txns * TRANSACTION_BYTES,
                    walk_bytes: rt.walk_txns * TRANSACTION_BYTES,
                    mmu: self.mmu.as_ref().map(|m| *m.stats(ci)).unwrap_or_default(),
                    layer_cycles,
                    footprint_bytes: rt.trace.footprint_bytes(),
                    noc_queue_cycles: self
                        .noc
                        .as_ref()
                        .map(|x| {
                            x.request_link(ci).queue_cycles() + x.response_link(ci).queue_cycles()
                        })
                        .unwrap_or(0),
                }
            })
            .collect();
        let (request_log, request_log_truncated) = match self.log {
            Some(log) => (log.events.into_iter().collect(), log.truncated),
            None => (Vec::new(), false),
        };
        RunReport {
            cores,
            total_cycles,
            dram: self.memory.stats(),
            bandwidth_trace: self.memory.bandwidth_trace(),
            request_log,
            request_log_truncated,
            stats,
        }
    }
}
