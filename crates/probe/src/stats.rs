//! The aggregating probe and the report it produces.

use crate::hist::Histogram;
use crate::{CoreState, Event, Phase, Probe};
use mnpu_snapshot::{Reader, SnapError, Writer};
use std::collections::HashMap;

/// Default per-epoch bucketing window (global DRAM cycles) for the
/// per-core time series.
pub const DEFAULT_EPOCH_CYCLES: u64 = 4096;

/// Cycle-exact attribution of a core's active cycles to one of four
/// mutually exclusive categories. The categories sum to the core's active
/// cycles ([`CoreStats::active_cycles`]) — a property the engine test suite
/// asserts on randomized workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles with the systolic array busy.
    pub compute: u64,
    /// Cycles stalled with a transaction parked on a page-table walk.
    pub wait_translation: u64,
    /// Cycles stalled on an in-flight tile load.
    pub wait_load: u64,
    /// Cycles stalled draining stores (including the layer barrier).
    pub wait_store: u64,
}

impl StallBreakdown {
    /// Sum of all four categories.
    pub fn total(&self) -> u64 {
        self.compute + self.wait_translation + self.wait_load + self.wait_store
    }

    /// Attribute `cycles` spent in `state` to its category. `Idle` and
    /// `Finished` cycles are not active cycles and count nowhere.
    pub fn add(&mut self, state: CoreState, cycles: u64) {
        match state {
            CoreState::Compute => self.compute += cycles,
            CoreState::WaitTranslation => self.wait_translation += cycles,
            CoreState::WaitLoad => self.wait_load += cycles,
            CoreState::WaitStore => self.wait_store += cycles,
            CoreState::Idle | CoreState::Finished => {}
        }
    }
}

/// Per-core aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Global cycles between the core's start and finish (filled in by the
    /// engine when the report is assembled; the stall categories sum to it).
    pub active_cycles: u64,
    /// Cycle-exact stall breakdown.
    pub stall: StallBreakdown,
    /// TLB lookup hits.
    pub tlb_hits: u64,
    /// TLB lookup misses.
    pub tlb_misses: u64,
    /// This core's TLB entries evicted (by any core, under a shared TLB).
    pub tlb_evictions: u64,
    /// Page-table walks started.
    pub walks_started: u64,
    /// Page-table walks completed.
    pub walks_done: u64,
    /// Walk attempts deferred because the walker pool was exhausted.
    pub walker_stalls: u64,
    /// Transactions accepted by the memory system.
    pub dma_grants: u64,
    /// Transactions bounced off a full DRAM queue.
    pub dma_retries: u64,
    /// DRAM commands for this core that hit an open row.
    pub row_hits: u64,
    /// DRAM commands for this core that opened a closed row.
    pub row_misses: u64,
    /// DRAM commands for this core that displaced an open row.
    pub row_conflicts: u64,
    /// Page-table walk latency (issue of the first access to TLB fill),
    /// in global cycles.
    pub walk_latency: Histogram,
    /// DRAM transactions serviced per epoch.
    pub epoch_dram_txns: Vec<u64>,
    /// TLB misses per epoch.
    pub epoch_tlb_misses: Vec<u64>,
}

impl CoreStats {
    /// TLB hit rate in `[0, 1]` (0 when never probed).
    pub fn tlb_hit_rate(&self) -> f64 {
        let t = self.tlb_hits + self.tlb_misses;
        if t == 0 {
            return 0.0;
        }
        self.tlb_hits as f64 / t as f64
    }

    /// DRAM row-buffer hit rate in `[0, 1]` of this core's commands.
    pub fn row_hit_rate(&self) -> f64 {
        let t = self.row_hits + self.row_misses + self.row_conflicts;
        if t == 0 {
            return 0.0;
        }
        self.row_hits as f64 / t as f64
    }
}

/// Chip-level DRAM contention aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramContention {
    /// Commands that hit an open row.
    pub row_hits: u64,
    /// Commands that opened a closed row.
    pub row_misses: u64,
    /// Commands that displaced an open row.
    pub row_conflicts: u64,
    /// All-bank refreshes committed.
    pub refreshes: u64,
    /// Transactions that entered a channel queue.
    pub issues: u64,
    /// Cycles each transaction waited in its channel queue before its CAS.
    pub queue_residency: Histogram,
    /// Channel-queue occupancy observed at each arrival (reorder-window
    /// pressure).
    pub queue_depth: Histogram,
}

impl DramContention {
    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let t = self.row_hits + self.row_misses + self.row_conflicts;
        if t == 0 {
            return 0.0;
        }
        self.row_hits as f64 / t as f64
    }
}

/// One closed tile-phase interval, for the Chrome-trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Start cycle (global clock).
    pub start: u64,
    /// End cycle (global clock); `end >= start`.
    pub end: u64,
    /// Owning core.
    pub core: usize,
    /// Which pipeline phase.
    pub phase: Phase,
    /// Flattened tile index.
    pub id: u64,
}

/// One completed job lifetime in serve mode: arrival into the scheduler
/// queue, dispatch onto a core, workload completion. All cycles are on the
/// global clock, with `arrival <= dispatch <= completion`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobSpan {
    /// Arrival cycle (the matching [`Event::JobArrive`]).
    pub arrival: u64,
    /// Dispatch cycle (the matching [`Event::JobDispatch`]).
    pub dispatch: u64,
    /// Completion cycle (the matching [`Event::JobComplete`]).
    pub completion: u64,
    /// Core the job ran on.
    pub core: usize,
    /// Scheduler-assigned job id.
    pub job: u64,
}

/// Scheduler-level aggregates (serve mode only; all zero for batch runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// Jobs that entered the queue.
    pub arrivals: u64,
    /// Jobs dispatched onto a core.
    pub dispatches: u64,
    /// Jobs that ran to completion.
    pub completions: u64,
    /// Queue occupancy sampled at every arrival and dispatch.
    pub queue_depth: Histogram,
}

/// Everything a [`StatsProbe`] aggregated over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReport {
    /// Window (global cycles) of the per-epoch series.
    pub epoch_cycles: u64,
    /// Per-core aggregates, indexed by core.
    pub cores: Vec<CoreStats>,
    /// Chip-level DRAM contention counters.
    pub dram: DramContention,
    /// Closed tile-phase spans, sorted by `(start, end, core, phase, id)`.
    pub spans: Vec<Span>,
    /// Completed job lifetimes, sorted by `(arrival, dispatch, completion,
    /// core, job)`. Empty for batch runs.
    pub jobs: Vec<JobSpan>,
    /// Scheduler counters. All zero for batch runs.
    pub sched: SchedStats,
}

impl StatsReport {
    /// Mutable access to core `core`'s aggregates, growing the vector with
    /// zeroed entries as needed (a core that never emitted an event still
    /// deserves a row in the report).
    pub fn core_mut(&mut self, core: usize) -> &mut CoreStats {
        if self.cores.len() <= core {
            self.cores.resize_with(core + 1, CoreStats::default);
        }
        &mut self.cores[core]
    }
}

/// Per-core state-integration bookkeeping.
#[derive(Debug, Clone, Copy)]
struct StateTrack {
    state: CoreState,
    since: u64,
}

impl Default for StateTrack {
    fn default() -> Self {
        StateTrack { state: CoreState::Idle, since: 0 }
    }
}

/// The aggregating probe: counters, histograms, per-epoch series, the
/// stall-state integration, and phase spans. Everything it keeps is
/// bounded by core count, bucket count and tile count — never by cycle
/// count — so long runs stay cheap.
#[derive(Debug, Clone)]
pub struct StatsProbe {
    report: StatsReport,
    track: Vec<StateTrack>,
    open_phases: HashMap<(usize, Phase, u64), u64>,
    walk_starts: HashMap<u64, u64>,
    /// Jobs seen arriving but not yet completed:
    /// job id → (arrival, dispatch/core once dispatched).
    open_jobs: HashMap<u64, (u64, Option<(u64, usize)>)>,
}

impl Default for StatsProbe {
    fn default() -> Self {
        StatsProbe::new(DEFAULT_EPOCH_CYCLES)
    }
}

impl StatsProbe {
    /// A probe bucketing its time series into `epoch_cycles`-cycle epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is zero.
    pub fn new(epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "epoch must be positive");
        StatsProbe {
            report: StatsReport { epoch_cycles, ..StatsReport::default() },
            track: Vec::new(),
            open_phases: HashMap::new(),
            walk_starts: HashMap::new(),
            open_jobs: HashMap::new(),
        }
    }

    fn core_mut(&mut self, core: usize) -> &mut CoreStats {
        if self.report.cores.len() <= core {
            self.report.cores.resize_with(core + 1, CoreStats::default);
            self.track.resize_with(core + 1, StateTrack::default);
        }
        &mut self.report.cores[core]
    }

    fn bump_epoch(series: &mut Vec<u64>, epoch: usize) {
        if series.len() <= epoch {
            series.resize(epoch + 1, 0);
        }
        series[epoch] += 1;
    }
}

/// Section tag for a serialized [`StatsProbe`].
const PROBE_TAG: u8 = 0xA0;

fn phase_code(p: Phase) -> u8 {
    match p {
        Phase::Load => 0,
        Phase::Compute => 1,
        Phase::Store => 2,
    }
}

fn phase_from(c: u8) -> Result<Phase, SnapError> {
    Ok(match c {
        0 => Phase::Load,
        1 => Phase::Compute,
        2 => Phase::Store,
        _ => return Err(SnapError::BadValue("unknown phase code")),
    })
}

fn state_code(s: CoreState) -> u8 {
    match s {
        CoreState::Idle => 0,
        CoreState::Compute => 1,
        CoreState::WaitTranslation => 2,
        CoreState::WaitLoad => 3,
        CoreState::WaitStore => 4,
        CoreState::Finished => 5,
    }
}

fn state_from(c: u8) -> Result<CoreState, SnapError> {
    Ok(match c {
        0 => CoreState::Idle,
        1 => CoreState::Compute,
        2 => CoreState::WaitTranslation,
        3 => CoreState::WaitLoad,
        4 => CoreState::WaitStore,
        5 => CoreState::Finished,
        _ => return Err(SnapError::BadValue("unknown core-state code")),
    })
}

impl StallBreakdown {
    fn save(&self, w: &mut Writer) {
        w.u64(self.compute);
        w.u64(self.wait_translation);
        w.u64(self.wait_load);
        w.u64(self.wait_store);
    }

    fn load(r: &mut Reader<'_>) -> Result<StallBreakdown, SnapError> {
        Ok(StallBreakdown {
            compute: r.u64()?,
            wait_translation: r.u64()?,
            wait_load: r.u64()?,
            wait_store: r.u64()?,
        })
    }
}

impl CoreStats {
    fn save(&self, w: &mut Writer) {
        w.u64(self.active_cycles);
        self.stall.save(w);
        w.u64(self.tlb_hits);
        w.u64(self.tlb_misses);
        w.u64(self.tlb_evictions);
        w.u64(self.walks_started);
        w.u64(self.walks_done);
        w.u64(self.walker_stalls);
        w.u64(self.dma_grants);
        w.u64(self.dma_retries);
        w.u64(self.row_hits);
        w.u64(self.row_misses);
        w.u64(self.row_conflicts);
        self.walk_latency.save_state(w);
        w.seq(&self.epoch_dram_txns, |w, &v| w.u64(v));
        w.seq(&self.epoch_tlb_misses, |w, &v| w.u64(v));
    }

    fn load(r: &mut Reader<'_>) -> Result<CoreStats, SnapError> {
        Ok(CoreStats {
            active_cycles: r.u64()?,
            stall: StallBreakdown::load(r)?,
            tlb_hits: r.u64()?,
            tlb_misses: r.u64()?,
            tlb_evictions: r.u64()?,
            walks_started: r.u64()?,
            walks_done: r.u64()?,
            walker_stalls: r.u64()?,
            dma_grants: r.u64()?,
            dma_retries: r.u64()?,
            row_hits: r.u64()?,
            row_misses: r.u64()?,
            row_conflicts: r.u64()?,
            walk_latency: Histogram::load_state(r)?,
            epoch_dram_txns: r.seq(|r| r.u64())?,
            epoch_tlb_misses: r.seq(|r| r.u64())?,
        })
    }
}

impl DramContention {
    fn save(&self, w: &mut Writer) {
        w.u64(self.row_hits);
        w.u64(self.row_misses);
        w.u64(self.row_conflicts);
        w.u64(self.refreshes);
        w.u64(self.issues);
        self.queue_residency.save_state(w);
        self.queue_depth.save_state(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<DramContention, SnapError> {
        Ok(DramContention {
            row_hits: r.u64()?,
            row_misses: r.u64()?,
            row_conflicts: r.u64()?,
            refreshes: r.u64()?,
            issues: r.u64()?,
            queue_residency: Histogram::load_state(r)?,
            queue_depth: Histogram::load_state(r)?,
        })
    }
}

impl SchedStats {
    fn save(&self, w: &mut Writer) {
        w.u64(self.arrivals);
        w.u64(self.dispatches);
        w.u64(self.completions);
        self.queue_depth.save_state(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<SchedStats, SnapError> {
        Ok(SchedStats {
            arrivals: r.u64()?,
            dispatches: r.u64()?,
            completions: r.u64()?,
            queue_depth: Histogram::load_state(r)?,
        })
    }
}

impl Probe for StatsProbe {
    const ENABLED: bool = true;

    fn record(&mut self, cycle: u64, event: Event) {
        let epoch = (cycle / self.report.epoch_cycles) as usize;
        match event {
            Event::DramIssue { channel: _, queue_depth } => {
                self.report.dram.issues += 1;
                self.report.dram.queue_depth.record(queue_depth as u64);
            }
            Event::DramRowHit { core, residency, .. } => {
                self.report.dram.row_hits += 1;
                self.report.dram.queue_residency.record(residency);
                let c = self.core_mut(core);
                c.row_hits += 1;
                StatsProbe::bump_epoch(&mut self.report.cores[core].epoch_dram_txns, epoch);
            }
            Event::DramRowMiss { core, residency, .. } => {
                self.report.dram.row_misses += 1;
                self.report.dram.queue_residency.record(residency);
                let c = self.core_mut(core);
                c.row_misses += 1;
                StatsProbe::bump_epoch(&mut self.report.cores[core].epoch_dram_txns, epoch);
            }
            Event::DramRowConflict { core, residency, .. } => {
                self.report.dram.row_conflicts += 1;
                self.report.dram.queue_residency.record(residency);
                let c = self.core_mut(core);
                c.row_conflicts += 1;
                StatsProbe::bump_epoch(&mut self.report.cores[core].epoch_dram_txns, epoch);
            }
            Event::DramRefresh { .. } => self.report.dram.refreshes += 1,
            Event::TlbHit { core } => self.core_mut(core).tlb_hits += 1,
            Event::TlbMiss { core } => {
                self.core_mut(core).tlb_misses += 1;
                StatsProbe::bump_epoch(&mut self.report.cores[core].epoch_tlb_misses, epoch);
            }
            Event::TlbEvict { core } => self.core_mut(core).tlb_evictions += 1,
            Event::WalkStart { core, walk } => {
                self.core_mut(core).walks_started += 1;
                self.walk_starts.insert(walk, cycle);
            }
            Event::WalkDone { core, walk } => {
                let c = self.core_mut(core);
                c.walks_done += 1;
                if let Some(start) = self.walk_starts.remove(&walk) {
                    self.report.cores[core].walk_latency.record(cycle.saturating_sub(start));
                }
            }
            Event::WalkerStall { core } => self.core_mut(core).walker_stalls += 1,
            Event::DmaGrant { core } => self.core_mut(core).dma_grants += 1,
            Event::DmaRetry { core } => self.core_mut(core).dma_retries += 1,
            Event::PhaseBegin { core, phase, id } => {
                self.core_mut(core); // ensure the core exists in the report
                self.open_phases.insert((core, phase, id), cycle);
            }
            Event::PhaseEnd { core, phase, id } => {
                if let Some(start) = self.open_phases.remove(&(core, phase, id)) {
                    self.report.spans.push(Span { start, end: cycle, core, phase, id });
                }
            }
            Event::CoreState { core, state } => {
                self.core_mut(core);
                let t = &mut self.track[core];
                let (prev, since) = (t.state, t.since);
                t.state = state;
                t.since = cycle;
                self.report.cores[core].stall.add(prev, cycle - since);
            }
            Event::JobArrive { job, queue_depth } => {
                self.report.sched.arrivals += 1;
                self.report.sched.queue_depth.record(queue_depth as u64);
                self.open_jobs.insert(job, (cycle, None));
            }
            Event::JobDispatch { job, core, queue_depth } => {
                self.report.sched.dispatches += 1;
                self.report.sched.queue_depth.record(queue_depth as u64);
                if let Some(open) = self.open_jobs.get_mut(&job) {
                    open.1 = Some((cycle, core));
                }
            }
            Event::JobComplete { job, core } => {
                self.report.sched.completions += 1;
                if let Some((arrival, Some((dispatch, dcore)))) = self.open_jobs.remove(&job) {
                    debug_assert_eq!(core, dcore, "job completed on a different core");
                    self.report.jobs.push(JobSpan {
                        arrival,
                        dispatch,
                        completion: cycle,
                        core,
                        job,
                    });
                }
            }
        }
    }

    fn into_report(mut self) -> Option<StatsReport> {
        self.report.spans.sort_unstable();
        self.report.jobs.sort_unstable();
        Some(self.report)
    }

    fn save_state(&self, w: &mut Writer) {
        w.tag(PROBE_TAG);
        w.u64(self.report.epoch_cycles);
        w.seq(&self.report.cores, |w, c| c.save(w));
        self.report.dram.save(w);
        w.seq(&self.report.spans, |w, s| {
            w.u64(s.start);
            w.u64(s.end);
            w.usize(s.core);
            w.u8(phase_code(s.phase));
            w.u64(s.id);
        });
        w.seq(&self.report.jobs, |w, j| {
            w.u64(j.arrival);
            w.u64(j.dispatch);
            w.u64(j.completion);
            w.usize(j.core);
            w.u64(j.job);
        });
        self.report.sched.save(w);
        w.seq(&self.track, |w, t| {
            w.u8(state_code(t.state));
            w.u64(t.since);
        });
        // The open-interval maps are HashMaps whose iteration order is not
        // deterministic; serialize in sorted key order so equal probes
        // produce byte-equal payloads.
        let mut phases: Vec<_> = self.open_phases.iter().collect();
        phases.sort_unstable_by_key(|&(k, _)| *k);
        w.seq(&phases, |w, &(&(core, phase, id), &start)| {
            w.usize(core);
            w.u8(phase_code(phase));
            w.u64(id);
            w.u64(start);
        });
        let mut walks: Vec<_> = self.walk_starts.iter().collect();
        walks.sort_unstable_by_key(|&(k, _)| *k);
        w.seq(&walks, |w, &(&walk, &start)| {
            w.u64(walk);
            w.u64(start);
        });
        let mut jobs: Vec<_> = self.open_jobs.iter().collect();
        jobs.sort_unstable_by_key(|&(k, _)| *k);
        w.seq(&jobs, |w, &(&job, &(arrival, dispatched))| {
            w.u64(job);
            w.u64(arrival);
            w.opt(&dispatched, |w, &(cycle, core)| {
                w.u64(cycle);
                w.usize(core);
            });
        });
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(PROBE_TAG)?;
        let epoch_cycles = r.u64()?;
        if epoch_cycles == 0 {
            return Err(SnapError::BadValue("probe epoch must be positive"));
        }
        let cores = r.seq(CoreStats::load)?;
        let dram = DramContention::load(r)?;
        let spans = r.seq(|r| {
            Ok(Span {
                start: r.u64()?,
                end: r.u64()?,
                core: r.usize()?,
                phase: phase_from(r.u8()?)?,
                id: r.u64()?,
            })
        })?;
        let jobs = r.seq(|r| {
            Ok(JobSpan {
                arrival: r.u64()?,
                dispatch: r.u64()?,
                completion: r.u64()?,
                core: r.usize()?,
                job: r.u64()?,
            })
        })?;
        let sched = SchedStats::load(r)?;
        let track = r.seq(|r| Ok(StateTrack { state: state_from(r.u8()?)?, since: r.u64()? }))?;
        if track.len() != cores.len() {
            return Err(SnapError::BadValue("probe track/core length mismatch"));
        }
        let open_phases = r
            .seq(|r| Ok(((r.usize()?, phase_from(r.u8()?)?, r.u64()?), r.u64()?)))?
            .into_iter()
            .collect();
        let walk_starts = r.seq(|r| Ok((r.u64()?, r.u64()?)))?.into_iter().collect();
        let open_jobs = r
            .seq(|r| {
                let job = r.u64()?;
                let arrival = r.u64()?;
                let dispatched = r.opt(|r| Ok((r.u64()?, r.usize()?)))?;
                Ok((job, (arrival, dispatched)))
            })?
            .into_iter()
            .collect();
        self.report = StatsReport { epoch_cycles, cores, dram, spans, jobs, sched };
        self.track = track;
        self.open_phases = open_phases;
        self.walk_starts = walk_starts;
        self.open_jobs = open_jobs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_integration_is_cycle_exact() {
        let mut p = StatsProbe::default();
        // Idle [0,10), Compute [10,25), WaitLoad [25,40), Compute [40,60),
        // WaitStore [60,70), Finished at 70.
        for (t, s) in [
            (0, CoreState::Idle),
            (10, CoreState::Compute),
            (25, CoreState::WaitLoad),
            (40, CoreState::Compute),
            (60, CoreState::WaitStore),
            (70, CoreState::Finished),
        ] {
            p.record(t, Event::CoreState { core: 0, state: s });
        }
        let r = p.into_report().unwrap();
        let s = &r.cores[0].stall;
        assert_eq!(s.compute, 35);
        assert_eq!(s.wait_load, 15);
        assert_eq!(s.wait_store, 10);
        assert_eq!(s.wait_translation, 0);
        assert_eq!(s.total(), 60);
    }

    #[test]
    fn resampling_same_state_accumulates() {
        let mut p = StatsProbe::default();
        for t in [0, 5, 9, 12] {
            p.record(t, Event::CoreState { core: 0, state: CoreState::Compute });
        }
        p.record(20, Event::CoreState { core: 0, state: CoreState::Finished });
        let r = p.into_report().unwrap();
        assert_eq!(r.cores[0].stall.compute, 20);
    }

    #[test]
    fn walk_latency_pairs_start_and_done() {
        let mut p = StatsProbe::default();
        p.record(100, Event::WalkStart { core: 1, walk: 7 });
        p.record(340, Event::WalkDone { core: 1, walk: 7 });
        let r = p.into_report().unwrap();
        assert_eq!(r.cores[1].walk_latency.count(), 1);
        assert_eq!(r.cores[1].walk_latency.sum(), 240);
        assert_eq!(r.cores[1].walks_started, 1);
        assert_eq!(r.cores[1].walks_done, 1);
    }

    #[test]
    fn spans_pair_and_sort() {
        let mut p = StatsProbe::default();
        p.record(50, Event::PhaseBegin { core: 0, phase: Phase::Compute, id: 1 });
        p.record(10, Event::PhaseBegin { core: 0, phase: Phase::Load, id: 0 });
        p.record(45, Event::PhaseEnd { core: 0, phase: Phase::Load, id: 0 });
        p.record(90, Event::PhaseEnd { core: 0, phase: Phase::Compute, id: 1 });
        let r = p.into_report().unwrap();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0], Span { start: 10, end: 45, core: 0, phase: Phase::Load, id: 0 });
        assert_eq!(r.spans[1].phase, Phase::Compute);
    }

    #[test]
    fn merge_sums_both_halves() {
        // Engine-side and DRAM-side events of one run land in the one
        // probe the simulation owns.
        let mut p = StatsProbe::default();
        p.record(0, Event::TlbMiss { core: 0 });
        p.record(1, Event::TlbHit { core: 0 });
        p.record(5, Event::DramRowConflict { channel: 0, core: 0, residency: 12 });
        p.record(6, Event::DramRowHit { channel: 1, core: 1, residency: 2 });
        let r = p.into_report().unwrap();
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.cores[0].tlb_misses, 1);
        assert_eq!(r.cores[0].row_conflicts, 1);
        assert_eq!(r.cores[1].row_hits, 1);
        assert_eq!(r.dram.row_conflicts, 1);
        assert_eq!(r.dram.queue_residency.count(), 2);
        assert!((r.dram.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_series_buckets_by_cycle() {
        let mut p = StatsProbe::new(100);
        p.record(10, Event::TlbMiss { core: 0 });
        p.record(150, Event::TlbMiss { core: 0 });
        p.record(199, Event::TlbMiss { core: 0 });
        p.record(901, Event::TlbMiss { core: 0 });
        let r = p.into_report().unwrap();
        assert_eq!(r.cores[0].epoch_tlb_misses.len(), 10);
        assert_eq!(r.cores[0].epoch_tlb_misses[0], 1);
        assert_eq!(r.cores[0].epoch_tlb_misses[1], 2);
        assert_eq!(r.cores[0].epoch_tlb_misses[9], 1);
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn zero_epoch_rejected() {
        let _ = StatsProbe::new(0);
    }

    #[test]
    fn job_lifetimes_pair_arrive_dispatch_complete() {
        let mut p = StatsProbe::default();
        p.record(0, Event::JobArrive { job: 0, queue_depth: 1 });
        p.record(5, Event::JobArrive { job: 1, queue_depth: 2 });
        p.record(5, Event::JobDispatch { job: 0, core: 2, queue_depth: 1 });
        p.record(9, Event::JobDispatch { job: 1, core: 0, queue_depth: 0 });
        p.record(100, Event::JobComplete { job: 1, core: 0 });
        p.record(120, Event::JobComplete { job: 0, core: 2 });
        let r = p.into_report().unwrap();
        assert_eq!(r.sched.arrivals, 2);
        assert_eq!(r.sched.dispatches, 2);
        assert_eq!(r.sched.completions, 2);
        assert_eq!(r.sched.queue_depth.count(), 4);
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(
            r.jobs[0],
            JobSpan { arrival: 0, dispatch: 5, completion: 120, core: 2, job: 0 }
        );
        assert_eq!(
            r.jobs[1],
            JobSpan { arrival: 5, dispatch: 9, completion: 100, core: 0, job: 1 }
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_open_state() {
        let mut p = StatsProbe::new(128);
        // Closed state of every kind...
        p.record(10, Event::TlbHit { core: 0 });
        p.record(20, Event::TlbMiss { core: 1 });
        p.record(30, Event::DramRowConflict { channel: 0, core: 0, residency: 7 });
        p.record(31, Event::DramIssue { channel: 0, queue_depth: 3 });
        p.record(40, Event::PhaseBegin { core: 0, phase: Phase::Load, id: 0 });
        p.record(90, Event::PhaseEnd { core: 0, phase: Phase::Load, id: 0 });
        p.record(50, Event::CoreState { core: 0, state: CoreState::Compute });
        // ...plus dangling open intervals that only matter after resume.
        p.record(100, Event::PhaseBegin { core: 1, phase: Phase::Store, id: 9 });
        p.record(110, Event::WalkStart { core: 1, walk: 42 });
        p.record(120, Event::JobArrive { job: 0, queue_depth: 1 });
        p.record(130, Event::JobDispatch { job: 0, core: 1, queue_depth: 0 });
        p.record(140, Event::JobArrive { job: 1, queue_depth: 1 });

        let mut w = Writer::new();
        p.save_state(&mut w);
        let bytes = w.finish();
        let mut q = StatsProbe::default();
        let mut r = Reader::new(&bytes);
        q.load_state(&mut r).unwrap();
        r.done().unwrap();

        // Identical futures close the open intervals identically.
        for probe in [&mut p, &mut q] {
            probe.record(200, Event::PhaseEnd { core: 1, phase: Phase::Store, id: 9 });
            probe.record(210, Event::WalkDone { core: 1, walk: 42 });
            probe.record(220, Event::JobComplete { job: 0, core: 1 });
            probe.record(230, Event::CoreState { core: 0, state: CoreState::Finished });
        }
        assert_eq!(p.into_report(), q.into_report());
    }

    #[test]
    fn snapshot_rejects_garbage_codes() {
        let p = StatsProbe::default();
        let mut w = Writer::new();
        p.save_state(&mut w);
        let mut bytes = w.finish();
        bytes[0] = 0xFF; // clobber the section tag
        let mut q = StatsProbe::default();
        assert!(q.load_state(&mut Reader::new(&bytes)).is_err());
    }
}
