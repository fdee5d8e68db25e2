//! [`FlightProbe`]: the engine-facing probe that feeds the flight
//! recorder and the live-progress cell.
//!
//! The probe splits the event taxonomy by frequency. *Dense* events (DRAM
//! row outcomes, TLB lookups, walks, DMA arbitration, core-state samples)
//! are folded into plain local counters and a cycle-exact stall
//! integration, then published to the telemetry handle's atomics once per
//! 2^16-cycle window — they never touch a lock. *Structural* events (tile
//! phase edges, refreshes, serve-queue transitions) are rare — a handful
//! per tile — and go to the ring under its mutex. That split is what
//! keeps the recorder cheap enough for the CI overhead gate.
//!
//! Determinism neutrality: the probe saves and loads nothing and reports
//! no stats, so checkpoints and `RunReport`s are byte-identical to a
//! [`mnpu_probe::NullProbe`] run. Wall-clock readings exist only inside
//! the telemetry handle.

use crate::progress::TrafficSnapshot;
use crate::recorder::FlightKind;
use crate::TraceHandle;
use mnpu_probe::{CoreState, Event, Probe, StallBreakdown, StatsReport};

/// Dense-event deltas are pushed to the handle's atomics every
/// `1 << PUBLISH_SHIFT` cycles — the same granularity as the job driver's
/// poll loop, so a `/progress` read after a poll sees fresh attribution.
const PUBLISH_SHIFT: u32 = 16;

/// A probe that records flight events and live progress. It aggregates
/// nothing into the run report and carries no checkpoint state.
#[derive(Debug, Clone)]
pub struct FlightProbe {
    handle: TraceHandle,
    /// Per-core (current state, since-cycle) for stall integration.
    states: Vec<(CoreState, u64)>,
    stall: StallBreakdown,
    traffic: TrafficSnapshot,
    last_window: u64,
    max_cycle: u64,
}

impl Default for FlightProbe {
    /// Binds to the telemetry handle installed on this thread (a
    /// simulation's probe is built via `Default` on the thread that runs
    /// it), or a private handle when none is installed — recording always
    /// happens, so benchmarks measure its true cost.
    fn default() -> Self {
        FlightProbe::with_handle(crate::installed().unwrap_or_default())
    }
}

impl FlightProbe {
    /// A probe publishing into `handle`.
    pub fn with_handle(handle: TraceHandle) -> Self {
        FlightProbe {
            handle,
            states: Vec::new(),
            stall: StallBreakdown::default(),
            traffic: TrafficSnapshot::default(),
            last_window: 0,
            max_cycle: 0,
        }
    }

    /// The telemetry handle this probe publishes into.
    pub fn handle(&self) -> &TraceHandle {
        &self.handle
    }

    fn integrate_state(&mut self, core: usize, state: CoreState, cycle: u64) {
        if self.states.len() <= core {
            self.states.resize(core + 1, (CoreState::Idle, cycle));
        }
        let (prev, since) = self.states[core];
        self.stall.add(prev, cycle.saturating_sub(since));
        self.states[core] = (state, cycle);
    }

    /// Push the accumulated dense-event deltas to the handle's atomics.
    fn flush(&mut self) {
        if self.stall != StallBreakdown::default() {
            self.handle.progress().add_stall(&std::mem::take(&mut self.stall));
        }
        if self.traffic != TrafficSnapshot::default() {
            self.handle.progress().add_traffic(&std::mem::take(&mut self.traffic));
        }
    }

    /// Close open core-state spans at the last seen cycle and flush.
    fn finalize(&mut self) {
        for core in 0..self.states.len() {
            let cycle = self.max_cycle;
            let state = self.states[core].0;
            self.integrate_state(core, state, cycle);
        }
        self.flush();
    }
}

impl Probe for FlightProbe {
    const ENABLED: bool = true;

    fn record(&mut self, cycle: u64, event: Event) {
        self.max_cycle = self.max_cycle.max(cycle);
        match event {
            // Dense events: counter bumps and stall integration only.
            Event::DramRowHit { .. }
            | Event::DramRowMiss { .. }
            | Event::DramRowConflict { .. } => {
                self.traffic.dram_txns += 1;
            }
            Event::TlbHit { .. } => self.traffic.tlb_hits += 1,
            Event::TlbMiss { .. } => self.traffic.tlb_misses += 1,
            Event::WalkStart { .. } => self.traffic.walks += 1,
            Event::WalkerStall { .. } => self.traffic.walker_stalls += 1,
            Event::DmaRetry { .. } => self.traffic.dma_retries += 1,
            Event::CoreState { core, state } => self.integrate_state(core, state, cycle),
            Event::DramIssue { .. }
            | Event::TlbEvict { .. }
            | Event::WalkDone { .. }
            | Event::DmaGrant { .. } => {}
            // Structural events: into the ring.
            Event::PhaseBegin { core, phase, id } => {
                self.handle.record(cycle, FlightKind::PhaseBegin(phase), core as u32, id);
            }
            Event::PhaseEnd { core, phase, id } => {
                self.handle.record(cycle, FlightKind::PhaseEnd(phase), core as u32, id);
            }
            Event::DramRefresh { channel } => {
                self.handle.record(cycle, FlightKind::Refresh, channel as u32, 0);
            }
            Event::JobArrive { job, queue_depth } => {
                self.handle.record(cycle, FlightKind::JobArrive, queue_depth as u32, job);
            }
            Event::JobDispatch { job, core, .. } => {
                self.handle.record(cycle, FlightKind::JobDispatch, core as u32, job);
            }
            Event::JobComplete { job, core } => {
                self.handle.record(cycle, FlightKind::JobComplete, core as u32, job);
            }
        }
        let window = cycle >> PUBLISH_SHIFT;
        if window != self.last_window {
            self.last_window = window;
            self.flush();
        }
    }

    fn into_report(mut self) -> Option<StatsReport> {
        self.finalize();
        None
    }

    // Telemetry is not simulation state: checkpoints written through a
    // flight probe are byte-identical to a `NullProbe` run's.
    fn save_state(&self, _w: &mut mnpu_snapshot::Writer) {}

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
    use mnpu_probe::Phase;

    #[test]
    fn dense_events_publish_at_window_boundaries() {
        let handle = TraceHandle::new();
        let mut p = FlightProbe::with_handle(handle.clone());
        p.record(10, Event::TlbHit { core: 0 });
        p.record(20, Event::TlbMiss { core: 0 });
        p.record(30, Event::DramRowHit { channel: 0, core: 0, residency: 5 });
        // Nothing published until a window boundary crosses.
        assert_eq!(handle.progress().snapshot().traffic.tlb_hits, 0);
        // The boundary-crossing event flushes, itself included.
        p.record(1 << 16, Event::TlbHit { core: 1 });
        let t = handle.progress().snapshot().traffic;
        assert_eq!(t.tlb_hits, 2);
        assert_eq!(t.tlb_misses, 1);
        assert_eq!(t.dram_txns, 1);
    }

    #[test]
    fn core_state_samples_integrate_into_stall_attribution() {
        let handle = TraceHandle::new();
        let mut p = FlightProbe::with_handle(handle.clone());
        p.record(0, Event::CoreState { core: 0, state: CoreState::Compute });
        p.record(100, Event::CoreState { core: 0, state: CoreState::WaitLoad });
        p.record(150, Event::CoreState { core: 0, state: CoreState::Finished });
        assert_eq!(p.into_report(), None);
        let s = handle.progress().snapshot().stall;
        assert_eq!(s.compute, 100);
        assert_eq!(s.wait_load, 50);
    }

    #[test]
    fn structural_events_land_in_the_ring() {
        let handle = TraceHandle::new();
        let mut p = FlightProbe::with_handle(handle.clone());
        p.record(100, Event::PhaseBegin { core: 2, phase: Phase::Load, id: 7 });
        p.record(200, Event::PhaseEnd { core: 2, phase: Phase::Load, id: 7 });
        p.record(300, Event::DramRefresh { channel: 1 });
        let events = handle.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FlightKind::PhaseBegin(Phase::Load));
        assert_eq!(events[0].core, 2);
        assert_eq!(events[2].kind, FlightKind::Refresh);
    }

    #[test]
    fn default_binds_the_installed_handle() {
        let handle = TraceHandle::new();
        let bound = {
            let _guard = crate::install(&handle);
            let p = FlightProbe::default();
            p.handle().same_ring(&handle)
        };
        assert!(bound);
        // Outside the guard a fresh default gets a private ring.
        let p = FlightProbe::default();
        assert!(!p.handle().same_ring(&handle));
    }
}
