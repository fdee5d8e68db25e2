//! The serve loop: admit arrivals, dispatch via the policy, step the
//! engine between scheduler decision points — as a resumable
//! [`ServeSession`] with checkpoint/restore, and the one-shot [`serve`]
//! convenience on top.

use crate::arrival::arrivals;
use crate::policy::Policy;
use crate::report::{JobRecord, ServeReport};
use mnpu_config::ScenarioSpec;
use mnpu_engine::{Advance, Event, NullProbe, Probe, Simulation};
use mnpu_model::zoo;
use mnpu_snapshot::{fingerprint, Reader, SimSnapshot, SnapError, Writer, SNAPSHOT_VERSION};
use mnpu_systolic::{ArchConfig, WorkloadTrace};
use std::collections::{HashMap, VecDeque};

/// Payload discriminator for the scheduler section of a [`ServeSnapshot`].
const SCHED_TAG: u8 = 0xF0;

/// Stable fingerprint of a scenario, embedded in every [`ServeSnapshot`]
/// so a checkpoint can only be restored against the scenario that produced
/// it (same chip, same jobs, same arrival pattern, same policy).
pub fn scenario_fingerprint(spec: &ScenarioSpec) -> u64 {
    // `ScenarioSpec` derives `Debug` structurally, so the render covers
    // every field that affects scheduling — the same idiom as
    // [`mnpu_engine::config_fingerprint`].
    fingerprint(&format!("{spec:?}"))
}

/// Run `spec` to completion and return the serve report.
///
/// The probe is chosen by the scenario's chip configuration exactly as in
/// batch mode ([`mnpu_engine::dispatch_probe`]; `ProbeMode::Stats` adds
/// job-lifetime spans to [`mnpu_engine::RunReport::stats`]).
///
/// Scheduling is deterministic: arrivals are a pure function of the
/// scenario ([`arrivals`]), ties are broken by declaration order, and the
/// engine itself is the validated deterministic batch engine stepped
/// through [`Simulation::advance`]. Running the same scenario twice yields
/// byte-identical reports.
///
/// # Panics
///
/// Panics if the chip configuration is invalid or a simulation watchdog
/// trips — never on any well-formed scenario.
pub fn serve(spec: &ScenarioSpec) -> ServeReport {
    mnpu_engine::dispatch_probe!(spec.system.probe, P => {
        let mut s = ServeSession::with_probe(spec, P::default());
        s.run();
        s.into_report()
    })
}

/// A serve checkpoint: the engine's [`SimSnapshot`] plus the scheduler's
/// own state (queue, bindings, per-job timestamps, policy cursor), bound
/// to the scenario by fingerprint. Produced by [`ServeSession::snapshot`],
/// consumed by [`ServeSession::restore`]; survives process restarts via
/// [`ServeSnapshot::to_bytes`] / [`ServeSnapshot::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Fingerprint of the scenario this checkpoint belongs to.
    pub scenario_fp: u64,
    /// The engine state at the captured decision point.
    pub sim: SimSnapshot,
    /// The scheduler state (opaque; decoded by [`ServeSession::restore`]).
    pub sched: Vec<u8>,
}

impl ServeSnapshot {
    /// Serialize to the stable binary wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.tag(SCHED_TAG);
        w.u32(SNAPSHOT_VERSION);
        w.u64(self.scenario_fp);
        let sim = self.sim.to_bytes();
        w.seq(&sim, |w, &b| w.u8(b));
        w.seq(&self.sched, |w, &b| w.u8(b));
        w.finish()
    }

    /// Decode a checkpoint produced by [`ServeSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`]: truncation, a foreign tag, or a version from a
    /// different build of the format ([`SnapError::VersionMismatch`] —
    /// checked here *and* again on the embedded engine snapshot).
    pub fn from_bytes(bytes: &[u8]) -> Result<ServeSnapshot, SnapError> {
        let mut r = Reader::new(bytes);
        r.tag(SCHED_TAG)?;
        let found = r.u32()?;
        if found != SNAPSHOT_VERSION {
            return Err(SnapError::VersionMismatch { found, expected: SNAPSHOT_VERSION });
        }
        let scenario_fp = r.u64()?;
        let sim_bytes = r.seq(|r| r.u8())?;
        let sim = SimSnapshot::from_bytes(&sim_bytes)?;
        let sched = r.seq(|r| r.u8())?;
        r.done()?;
        Ok(ServeSnapshot { scenario_fp, sim, sched })
    }
}

/// A resumable serve run: the state of [`serve`]'s loop reified so it can
/// be stepped one scheduler decision at a time, checkpointed between
/// steps, and restored — in the same process or a new one — to finish
/// byte-identically.
///
/// ```
/// use mnpu_config::parse_scenario;
/// use mnpu_sched::ServeSession;
///
/// let spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\n").unwrap();
/// let mut session = ServeSession::new(&spec);
/// session.step(); // first decision round
/// let snap = session.snapshot();
/// // ... process dies; later, possibly elsewhere ...
/// let mut resumed = ServeSession::restore(&spec, snap).unwrap();
/// resumed.run();
/// session.run();
/// assert_eq!(session.into_report().to_json(), resumed.into_report().to_json());
/// ```
pub struct ServeSession<'s, P: Probe = NullProbe> {
    spec: &'s ScenarioSpec,
    sim: Simulation<P>,
    /// Arrival cycle per job (declaration order) — pure from the spec.
    arr: Vec<u64>,
    /// Job indices by admission order (arrival cycle, declaration tiebreak).
    order: Vec<usize>,
    policy: Policy,
    queue: VecDeque<usize>,
    core_job: Vec<Option<usize>>,
    running: Vec<Option<String>>,
    /// Network currently *attached* to each core. Unlike `running`, this
    /// survives job completion (a finished core stays bound until its next
    /// attach), which is exactly what restore needs: it rebuilds the
    /// engine's trace bindings before handing the payload to
    /// [`Simulation::restore`], whose per-core trace fingerprints then
    /// verify the reconstruction.
    bound: Vec<Option<String>>,
    dispatch_at: Vec<u64>,
    complete_at: Vec<u64>,
    job_core: Vec<usize>,
    /// Traces memoized per (network, core architecture): cores with the
    /// same architecture share one trace (its layers are shared, not
    /// copied, on every attach), while a heterogeneous chip compiles the
    /// network against the arch of the core it actually lands on.
    traces: HashMap<(String, ArchConfig), WorkloadTrace>,
    next_arr: usize,
    done: usize,
}

impl<'s> ServeSession<'s, NullProbe> {
    /// Start a session with the zero-cost probe (see
    /// [`ServeSession::with_probe`] for the general form).
    pub fn new(spec: &'s ScenarioSpec) -> Self {
        ServeSession::with_probe(spec, NullProbe)
    }

    /// Rebuild a session from a checkpoint, with the zero-cost probe.
    ///
    /// # Errors
    ///
    /// See [`ServeSession::restore_with_probe`].
    pub fn restore(spec: &'s ScenarioSpec, snap: ServeSnapshot) -> Result<Self, SnapError> {
        ServeSession::restore_with_probe(spec, NullProbe, snap)
    }
}

impl<'s, P: Probe> ServeSession<'s, P> {
    /// Start a fresh session for `spec`: idle chip, clock at 0, nothing
    /// admitted yet.
    pub fn with_probe(spec: &'s ScenarioSpec, probe: P) -> Self {
        let n = spec.jobs.len();
        let arr = arrivals(spec);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (arr[i], i));
        ServeSession {
            spec,
            sim: Simulation::with_probe_idle(&spec.system, probe),
            arr,
            order,
            policy: Policy::new(spec),
            queue: VecDeque::new(),
            core_job: vec![None; spec.system.cores],
            running: vec![None; spec.system.cores],
            bound: vec![None; spec.system.cores],
            dispatch_at: vec![0; n],
            complete_at: vec![0; n],
            job_core: vec![0; n],
            traces: HashMap::new(),
            next_arr: 0,
            done: 0,
        }
    }

    /// Whether every job has completed.
    pub fn is_done(&self) -> bool {
        self.done == self.spec.jobs.len()
    }

    /// The current simulated cycle.
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    fn trace_for(
        traces: &mut HashMap<(String, ArchConfig), WorkloadTrace>,
        spec: &ScenarioSpec,
        name: &str,
        core: usize,
    ) -> WorkloadTrace {
        let arch = &spec.system.arch[core];
        traces
            .entry((name.to_string(), arch.clone()))
            .or_insert_with(|| {
                let net = zoo::by_name(name, spec.scale)
                    .expect("scenario parser validated workload names");
                WorkloadTrace::generate(&net, arch)
            })
            .clone()
    }

    /// Run one scheduler decision round: admit due arrivals, dispatch
    /// until the policy rests, then advance the engine to the next
    /// decision point. Returns `false` once every job has completed (the
    /// session is then ready for [`ServeSession::into_report`]).
    ///
    /// Between any two `step` calls the session is at a consistent
    /// checkpoint boundary for [`ServeSession::snapshot`].
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        let n = self.spec.jobs.len();
        // Admit everything that has arrived by now.
        while self.next_arr < n && self.arr[self.order[self.next_arr]] <= self.sim.now() {
            let j = self.order[self.next_arr];
            self.next_arr += 1;
            self.queue.push_back(j);
            self.sim
                .record_event(Event::JobArrive { job: j as u64, queue_depth: self.queue.len() });
        }
        // Dispatch until the policy has nothing to place.
        loop {
            let free: Vec<usize> =
                (0..self.spec.system.cores).filter(|&c| self.core_job[c].is_none()).collect();
            let Some((pos, core)) =
                self.policy.pick(&self.queue, &self.spec.jobs, &free, &self.running)
            else {
                break;
            };
            let j = self.queue.remove(pos).expect("policy returned a valid queue position");
            let name = self.spec.jobs[j].network.clone();
            let trace = Self::trace_for(&mut self.traces, self.spec, &name, core);
            let now = self.sim.now();
            self.sim.attach(core, &trace, now);
            self.dispatch_at[j] = now;
            self.job_core[j] = core;
            self.core_job[core] = Some(j);
            self.running[core] = Some(name.clone());
            self.bound[core] = Some(name);
            self.sim.record_event(Event::JobDispatch {
                job: j as u64,
                core,
                queue_depth: self.queue.len(),
            });
        }
        // Step the engine to the next scheduler decision point.
        let stop = if self.next_arr < n { self.arr[self.order[self.next_arr]] } else { u64::MAX };
        match self.sim.advance(stop) {
            Advance::CoreFinished { core, at } => {
                let j = self.core_job[core].take().expect("finished core had a job bound");
                self.running[core] = None;
                self.complete_at[j] = at;
                self.done += 1;
                self.sim.record_event(Event::JobComplete { job: j as u64, core });
                // The finished core stays bound until its next attach: a
                // finished core already costs nothing in the event loop,
                // the final report then describes the core's last job, and
                // — decisively — an eager detach would flush the *shared*
                // TLB mid-run and break byte-identity with batch mode.
            }
            // Parked at the next arrival, or drained with arrivals still
            // pending: loop back to admission.
            Advance::Parked => {}
            Advance::Drained => {
                if self.queue.is_empty() && self.next_arr < n {
                    self.sim.skip_to(self.arr[self.order[self.next_arr]]);
                }
                // A non-empty queue with every core drained means the next
                // policy pass must dispatch (all cores are free).
            }
        }
        !self.is_done()
    }

    /// Step until every job has completed.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Capture the full serve state at the current decision boundary.
    pub fn snapshot(&self) -> ServeSnapshot {
        let mut w = Writer::new();
        w.tag(SCHED_TAG);
        w.usize(self.next_arr);
        w.usize(self.done);
        let queue: Vec<usize> = self.queue.iter().copied().collect();
        w.seq(&queue, |w, &j| w.usize(j));
        w.seq(&self.core_job, |w, v| w.opt(v, |w, &j| w.usize(j)));
        w.seq(&self.bound, |w, v| w.opt(v, |w, s| w.str(s)));
        w.seq(&self.dispatch_at, |w, &v| w.u64(v));
        w.seq(&self.complete_at, |w, &v| w.u64(v));
        w.seq(&self.job_core, |w, &v| w.usize(v));
        self.policy.save_state(&mut w);
        ServeSnapshot {
            scenario_fp: scenario_fingerprint(self.spec),
            sim: self.sim.snapshot(),
            sched: w.finish(),
        }
    }

    /// Rebuild a session from a checkpoint taken by
    /// [`ServeSession::snapshot`] against the *same* scenario: build the
    /// chip idle, re-attach the traces that were bound at capture time,
    /// then restore the engine payload on top (whose per-core trace
    /// fingerprints verify the re-attachment).
    ///
    /// # Errors
    ///
    /// [`SnapError::ConfigMismatch`] when `spec` is not the scenario the
    /// checkpoint was captured from; otherwise any decode error from the
    /// scheduler payload or the embedded engine snapshot. On error the
    /// checkpoint is unusable with this scenario — nothing was partially
    /// applied to any live simulation.
    pub fn restore_with_probe(
        spec: &'s ScenarioSpec,
        probe: P,
        snap: ServeSnapshot,
    ) -> Result<Self, SnapError> {
        let expected = scenario_fingerprint(spec);
        if snap.scenario_fp != expected {
            return Err(SnapError::ConfigMismatch { found: snap.scenario_fp, expected });
        }
        let mut s = ServeSession::with_probe(spec, probe);
        let n = spec.jobs.len();
        let cores = spec.system.cores;

        let mut r = Reader::new(&snap.sched);
        r.tag(SCHED_TAG)?;
        s.next_arr = r.usize()?;
        s.done = r.usize()?;
        if s.next_arr > n || s.done > n {
            return Err(SnapError::BadValue("job progress exceeds the job count"));
        }
        s.queue = r.seq(|r| r.usize())?.into();
        if s.queue.iter().any(|&j| j >= n) {
            return Err(SnapError::BadValue("queued job out of range"));
        }
        let core_job = r.seq(|r| r.opt(|r| r.usize()))?;
        let bound = r.seq(|r| r.opt(|r| r.str()))?;
        if core_job.len() != cores || bound.len() != cores {
            return Err(SnapError::BadValue("core binding count mismatch"));
        }
        if core_job.iter().flatten().any(|&j| j >= n) {
            return Err(SnapError::BadValue("bound job out of range"));
        }
        s.core_job = core_job;
        s.dispatch_at = r.seq(|r| r.u64())?;
        s.complete_at = r.seq(|r| r.u64())?;
        let job_core = r.seq(|r| r.usize())?;
        if s.dispatch_at.len() != n || s.complete_at.len() != n || job_core.len() != n {
            return Err(SnapError::BadValue("per-job record count mismatch"));
        }
        if job_core.iter().any(|&c| c >= cores) {
            return Err(SnapError::BadValue("job core out of range"));
        }
        s.job_core = job_core;
        s.policy.load_state(&mut r)?;
        r.done()?;

        // `running` mirrors `core_job` exactly (set on dispatch, cleared
        // on completion), so it is derived rather than serialized.
        for (core, slot) in s.core_job.iter().enumerate() {
            s.running[core] = slot.map(|j| spec.jobs[j].network.clone());
        }
        // Rebind the engine's traces, then lay the captured state on top.
        for (core, name) in bound.iter().enumerate() {
            if let Some(name) = name {
                if !zoo::MODEL_NAMES.contains(&name.as_str()) {
                    return Err(SnapError::BadValue("bound network unknown to the scenario scale"));
                }
                let trace = Self::trace_for(&mut s.traces, spec, name, core);
                s.sim.attach(core, &trace, 0);
            } else if s.core_job[core].is_some() {
                return Err(SnapError::BadValue("running core has no bound network"));
            }
        }
        s.bound = bound;
        s.sim.restore(&snap.sim)?;
        Ok(s)
    }

    /// Consume the completed session and assemble the serve report.
    ///
    /// # Panics
    ///
    /// Panics if jobs are still pending ([`ServeSession::is_done`]).
    pub fn into_report(self) -> ServeReport {
        assert!(self.is_done(), "into_report on an unfinished serve session");
        let records = (0..self.spec.jobs.len())
            .map(|j| JobRecord {
                job: j as u64,
                workload: self.spec.jobs[j].network.clone(),
                core: self.job_core[j],
                arrival: self.arr[j],
                dispatch: self.dispatch_at[j],
                completion: self.complete_at[j],
            })
            .collect();
        ServeReport::new(self.sim.into_report(), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_config::parse_scenario;

    #[test]
    fn conservation_holds_for_every_job() {
        let spec = parse_scenario(
            "t",
            "cores = 2\npattern = fixed:500\njob = ncf\njob = ncf\njob = ncf\njob = ncf\n",
        )
        .unwrap();
        let r = serve(&spec);
        assert_eq!(r.jobs.len(), 4);
        for j in &r.jobs {
            assert_eq!(j.arrival + j.queueing() + j.service(), j.completion);
            assert!(j.dispatch >= j.arrival);
        }
        assert_eq!(r.makespan, r.jobs.iter().map(|j| j.completion).max().unwrap());
    }

    #[test]
    fn more_jobs_than_cores_queue_up() {
        // Four simultaneous arrivals on one core: strictly serialized, so
        // queueing delay must be nonzero for all but the first job.
        let spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\njob = ncf\n").unwrap();
        let r = serve(&spec);
        let mut by_dispatch = r.jobs.clone();
        by_dispatch.sort_by_key(|j| j.dispatch);
        assert_eq!(by_dispatch[0].queueing(), 0);
        for w in by_dispatch.windows(2) {
            assert_eq!(
                w[1].dispatch, w[0].completion,
                "next job must start the cycle its predecessor finished"
            );
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let text = "cores = 2\nseed = 5\npattern = bursty:2:3000\npolicy = round_robin\n\
                    job = ncf\njob = dlrm\njob = ncf\njob = dlrm\n";
        let spec = parse_scenario("t", text).unwrap();
        let a = serve(&spec).to_json();
        let b = serve(&spec).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_probe_records_job_lifecycle() {
        let mut spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\n").unwrap();
        spec.system.probe = mnpu_engine::ProbeMode::Stats;
        let r = serve(&spec);
        let stats = r.run.stats.as_ref().expect("stats probe requested");
        assert_eq!(stats.jobs.len(), 2, "one JobSpan per job");
        assert_eq!(stats.sched.arrivals, 2);
        assert_eq!(stats.sched.dispatches, 2);
        assert_eq!(stats.sched.completions, 2);
        for (span, rec) in stats.jobs.iter().zip(&r.jobs) {
            assert_eq!(span.arrival, rec.arrival);
            assert_eq!(span.dispatch, rec.dispatch);
            assert_eq!(span.completion, rec.completion);
        }
    }

    #[test]
    fn restore_reuses_the_memoized_predictor() {
        // A seed no other test uses, so this test owns its memo keys.
        let spec = parse_scenario(
            "t",
            "cores = 2\nseed = 2718\npattern = bursty:3:5000\npolicy = predictor\n\
             job = ncf\njob = yt\njob = ncf\njob = yt\n",
        )
        .unwrap();
        let mut session = ServeSession::new(&spec);
        session.step();
        let mut restored = ServeSession::restore(&spec, session.snapshot()).unwrap();
        let (a, b) = (session.policy.model(), restored.policy.model());
        assert!(std::sync::Arc::ptr_eq(a.unwrap(), b.unwrap()), "restore trained a new model");
        session.run();
        restored.run();
        assert_eq!(session.into_report().to_json(), restored.into_report().to_json());
    }

    #[test]
    fn late_arrival_finds_an_idle_chip() {
        // One job at 0, one far beyond the first's completion: the chip
        // drains, skips to the second arrival, and serves it immediately.
        let spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf @ 100000000\n").unwrap();
        let r = serve(&spec);
        assert!(r.jobs[0].completion < 100_000_000, "first job must finish before the gap");
        assert_eq!(r.jobs[1].arrival, 100_000_000);
        assert_eq!(r.jobs[1].queueing(), 0, "idle chip serves a new arrival at once");
    }
}
