//! Per-core runtime: the double-buffered tile pipeline over a flattened
//! tile list, and its progression rules.

use crate::sim::Simulation;
use crate::stage::{span_txns, Stage};
use mnpu_probe::{Event, Phase, Probe};
use mnpu_systolic::WorkloadTrace;

/// Per-core pipeline state over the flattened tile list.
#[derive(Debug)]
pub(crate) struct CoreRt {
    pub(crate) trace: WorkloadTrace,
    pub(crate) flat_tiles: Vec<(usize, usize)>,
    /// Store transactions still outstanding per layer (this iteration) —
    /// the cross-layer RAW barrier.
    pub(crate) layer_store_remaining: Vec<u64>,
    pub(crate) layer_store_total: Vec<u64>,
    /// Global cycle at which each layer retired its last store (final
    /// iteration) — the paper's layer-wise execution-cycle output.
    pub(crate) layer_finish: Vec<u64>,
    pub(crate) tile_loaded: Vec<bool>,
    pub(crate) next_load: usize,
    pub(crate) next_compute: usize,
    pub(crate) computed: usize,
    pub(crate) load_stage: Option<usize>,
    pub(crate) active_stores: Vec<usize>,
    pub(crate) computing: Option<(usize, u64)>,
    pub(crate) outstanding: usize,
    pub(crate) iter: u64,
    pub(crate) start_cycle: u64,
    pub(crate) finished_at: Option<u64>,
    pub(crate) compute_cycles_total: u64,
    pub(crate) data_txns: u64,
    pub(crate) walk_txns: u64,
    /// Set whenever an external event (a data completion) may have
    /// unblocked the pipeline; cleared after a full `progress_core` pass.
    /// Between the two, `progress_core` is a guaranteed no-op unless a
    /// running compute has retired — which the wake check tests directly —
    /// so the event loop skips the call entirely. A memo, never
    /// checkpointed: restore sets it, and the extra pass is that no-op.
    pub(crate) needs_progress: bool,
}

impl CoreRt {
    pub(crate) fn new(trace: WorkloadTrace, start_cycle: u64) -> Self {
        let mut flat = Vec::new();
        let mut store_total = vec![0u64; trace.layers().len()];
        for (li, l) in trace.layers().iter().enumerate() {
            for (ti, tile) in l.tiles.iter().enumerate() {
                flat.push((li, ti));
                store_total[li] += tile.stores.iter().map(span_txns).sum::<u64>();
            }
        }
        let n = flat.len();
        CoreRt {
            trace,
            flat_tiles: flat,
            layer_finish: vec![0; store_total.len()],
            layer_store_remaining: store_total.clone(),
            layer_store_total: store_total,
            tile_loaded: vec![false; n],
            next_load: 0,
            next_compute: 0,
            computed: 0,
            load_stage: None,
            active_stores: Vec::new(),
            computing: None,
            outstanding: 0,
            iter: 0,
            start_cycle,
            finished_at: None,
            compute_cycles_total: 0,
            data_txns: 0,
            walk_txns: 0,
            needs_progress: true,
        }
    }

    /// The state of a core with nothing bound to it: the empty workload,
    /// already finished at cycle 0 with no wake condition. Every event-loop
    /// path (progress, issue, next-event scan) skips finished cores, so a
    /// vacant core generates no events and costs nothing.
    pub(crate) fn vacant() -> Self {
        let mut rt = CoreRt::new(WorkloadTrace::empty(), 0);
        rt.finished_at = Some(0);
        rt.needs_progress = false;
        rt
    }

    pub(crate) fn tile(&self, flat: usize) -> &mnpu_systolic::Tile {
        let (l, t) = self.flat_tiles[flat];
        &self.trace.layers()[l].tiles[t]
    }

    pub(crate) fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// `true` when every layer before `layer` has retired all its stores.
    pub(crate) fn barrier_open(&self, layer: usize) -> bool {
        self.layer_store_remaining[..layer].iter().all(|&r| r == 0)
    }

    pub(crate) fn reset_for_next_iteration(&mut self) {
        self.layer_store_remaining = self.layer_store_total.clone();
        self.tile_loaded.iter_mut().for_each(|b| *b = false);
        self.next_load = 0;
        self.next_compute = 0;
        self.computed = 0;
        self.iter += 1;
    }
}

impl<P: Probe> Simulation<P> {
    /// Advance core `ci`'s pipeline as far as the current cycle allows:
    /// retire a finished compute, start the next compute, open the next
    /// load stage (double buffering, gated by the cross-layer store
    /// barrier), and handle iteration / workload completion.
    pub(crate) fn progress_core(&mut self, ci: usize) {
        if self.cores[ci].finished() || self.cores[ci].start_cycle > self.now {
            // Not started yet: leave `needs_progress` set so the first
            // pass at/after `start_cycle` runs unconditionally.
            return;
        }
        // The pass below runs to a fixpoint, so afterwards only a new
        // external event (tracked by `needs_progress`) or a compute
        // retirement at a later cycle can enable further progress.
        self.cores[ci].needs_progress = false;
        loop {
            let mut made_progress = false;

            // Compute completion.
            if let Some((flat, done_at)) = self.cores[ci].computing {
                if done_at <= self.now {
                    self.cores[ci].computing = None;
                    self.cores[ci].computed = flat + 1;
                    if P::ENABLED {
                        self.probe.record(
                            self.now,
                            Event::PhaseEnd { core: ci, phase: Phase::Compute, id: flat as u64 },
                        );
                    }
                    let (layer, _) = self.cores[ci].flat_tiles[flat];
                    let stores = self.cores[ci].tile(flat).stores.clone();
                    if !stores.is_empty() {
                        let id = self.stages.len();
                        self.stages.push(Stage::new(ci, layer, flat, true, stores));
                        self.cores[ci].active_stores.push(id);
                        if P::ENABLED {
                            self.probe.record(
                                self.now,
                                Event::PhaseBegin {
                                    core: ci,
                                    phase: Phase::Store,
                                    id: flat as u64,
                                },
                            );
                        }
                    }
                    made_progress = true;
                }
            }

            // Compute start.
            if self.cores[ci].computing.is_none() {
                let flat = self.cores[ci].next_compute;
                if flat < self.cores[ci].flat_tiles.len() && self.cores[ci].tile_loaded[flat] {
                    let cycles = self.cores[ci].tile(flat).compute_cycles;
                    let dur = self.to_global(ci, cycles);
                    self.cores[ci].computing = Some((flat, self.now + dur.max(1)));
                    self.cores[ci].next_compute = flat + 1;
                    self.cores[ci].compute_cycles_total += cycles;
                    if P::ENABLED {
                        self.probe.record(
                            self.now,
                            Event::PhaseBegin { core: ci, phase: Phase::Compute, id: flat as u64 },
                        );
                    }
                    made_progress = true;
                }
            }

            // Load-stage creation (double buffering: at most one tile ahead
            // of compute, gated by the cross-layer store barrier).
            if self.cores[ci].load_stage.is_none() {
                let flat = self.cores[ci].next_load;
                let rt = &self.cores[ci];
                if flat < rt.flat_tiles.len() && flat <= rt.next_compute {
                    let (layer, _) = rt.flat_tiles[flat];
                    if rt.barrier_open(layer) {
                        let loads = rt.tile(flat).loads.clone();
                        let id = self.stages.len();
                        let stage = Stage::new(ci, layer, flat, false, loads);
                        let rt = &mut self.cores[ci];
                        if stage.total == 0 {
                            // No transactions: nothing observable happens,
                            // so no Load span is opened either.
                            rt.tile_loaded[flat] = true;
                        } else {
                            rt.load_stage = Some(id);
                            self.stages.push(stage);
                            if P::ENABLED {
                                self.probe.record(
                                    self.now,
                                    Event::PhaseBegin {
                                        core: ci,
                                        phase: Phase::Load,
                                        id: flat as u64,
                                    },
                                );
                            }
                        }
                        rt.next_load = flat + 1;
                        made_progress = true;
                    }
                }
            }

            // Iteration / workload completion.
            {
                let rt = &self.cores[ci];
                if rt.computing.is_none()
                    && rt.computed == rt.flat_tiles.len()
                    && rt.active_stores.is_empty()
                    && rt.layer_store_remaining.iter().all(|&r| r == 0)
                    && rt.load_stage.is_none()
                    && !rt.finished()
                {
                    if rt.iter + 1 < self.cfg.iterations {
                        self.cores[ci].reset_for_next_iteration();
                        made_progress = true;
                    } else {
                        self.cores[ci].finished_at = Some(self.now);
                    }
                }
            }

            if !made_progress {
                break;
            }
        }
    }

    /// `true` when `progress_core(ci)` could do anything at the current
    /// cycle: an external event arrived since the last pass, or the
    /// running compute has retired.
    pub(crate) fn core_woken(&self, ci: usize) -> bool {
        let rt = &self.cores[ci];
        if rt.finished() {
            return false;
        }
        rt.needs_progress || rt.computing.is_some_and(|(_, done_at)| done_at <= self.now)
    }

    /// [`Simulation::progress_core`], skipped when the core has no wake
    /// condition — the common case for compute-bound cores between events.
    pub(crate) fn progress_core_if_woken(&mut self, ci: usize) {
        if self.core_woken(ci) {
            self.progress_core(ci);
        }
    }
}
