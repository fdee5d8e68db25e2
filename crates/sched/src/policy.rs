//! Core-assignment policies: which queued job goes to which free core.

use mnpu_config::{JobSpec, PolicySpec, ScenarioSpec};
use mnpu_engine::{FanOut, SystemConfig};
use mnpu_predict::{PredictorMemo, SlowdownModel, WorkloadProfile};
use mnpu_snapshot::{Reader, SnapError, Writer};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// A stateful core-assignment policy, built from a scenario's
/// [`PolicySpec`] and consulted by the server at every decision point.
#[derive(Debug)]
pub struct Policy {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    FirstFree,
    RoundRobin {
        /// Next core to try, advanced on every dispatch so consecutive
        /// jobs spread across the chip even when lower cores free up
        /// first.
        next: usize,
    },
    Pinned,
    Predictor {
        /// Solo profile per distinct network in the scenario.
        profiles: HashMap<String, Arc<WorkloadProfile>>,
        model: Arc<SlowdownModel>,
    },
}

impl Inner {
    /// The predictor for `spec`: the solo profile of every distinct
    /// network on the scenario chip, and the slowdown model trained on
    /// the chip's dual-core derivative (the model's features are
    /// pairwise). Whatever [`PredictorMemo::global`] lacks is simulated on
    /// [`FanOut::new`]'s workers.
    fn predictor(spec: &ScenarioSpec) -> Self {
        let (memo, fan) = (PredictorMemo::global(), FanOut::new());
        let mut names: Vec<&str> = spec.jobs.iter().map(|j| j.network.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let profiles = memo.profiles(&spec.system, spec.scale, &names, fan);
        let rig = SystemConfig::bench(2, spec.system.sharing);
        let model = memo.model(&rig, 6, 8, spec.seed, fan);
        let profiles = names.iter().map(|n| n.to_string()).zip(profiles).collect();
        Inner::Predictor { profiles, model }
    }
}

impl Policy {
    /// Build the policy for `spec`. The predictor policy profiles every
    /// distinct network in the job list and trains the slowdown model up
    /// front (deterministically, seeded from the scenario), so `pick`
    /// itself never simulates anything. Its set-up runs on
    /// [`FanOut::new`]'s workers and is memoized per process in
    /// [`PredictorMemo::global`] (at most 16 models and 256 profiles), so a
    /// later policy on the same chip with the same seed simulates nothing.
    pub fn new(spec: &ScenarioSpec) -> Self {
        let inner = match spec.policy {
            PolicySpec::FirstFree => Inner::FirstFree,
            PolicySpec::RoundRobin => Inner::RoundRobin { next: 0 },
            PolicySpec::Pinned => Inner::Pinned,
            PolicySpec::Predictor => Inner::predictor(spec),
        };
        Policy { inner }
    }

    /// The predictor's trained model (`None` for the other policies).
    #[cfg(test)]
    pub(crate) fn model(&self) -> Option<&Arc<SlowdownModel>> {
        match &self.inner {
            Inner::Predictor { model, .. } => Some(model),
            _ => None,
        }
    }

    /// Serialize the policy's mutable state. Only the round-robin cursor
    /// is mutable; the predictor's profiles and model are deterministic
    /// functions of the scenario and are rebuilt by [`Policy::new`] (from
    /// the memo, when it still holds them) on restore rather than
    /// serialized.
    pub(crate) fn save_state(&self, w: &mut Writer) {
        match &self.inner {
            Inner::FirstFree => w.u8(0),
            Inner::RoundRobin { next } => {
                w.u8(1);
                w.usize(*next);
            }
            Inner::Pinned => w.u8(2),
            Inner::Predictor { .. } => w.u8(3),
        }
    }

    /// Restore state written by [`Policy::save_state`] into a policy
    /// freshly built for the *same* scenario.
    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let kind = r.u8()?;
        match (&mut self.inner, kind) {
            (Inner::FirstFree, 0) | (Inner::Pinned, 2) | (Inner::Predictor { .. }, 3) => Ok(()),
            (Inner::RoundRobin { next }, 1) => {
                *next = r.usize()?;
                Ok(())
            }
            _ => Err(SnapError::BadValue("policy kind mismatch")),
        }
    }

    /// Choose one dispatch: `Some((queue_position, core))`, or `None` when
    /// nothing can be dispatched (empty queue, no free core, or — under
    /// [`PolicySpec::Pinned`] — every queued job's core is busy).
    ///
    /// `free` lists free cores in ascending order; `running[c]` names the
    /// network currently bound to core `c`. FIFO policies always take the
    /// queue head; the predictor may *reorder* the queue (documented — it
    /// trades FIFO fairness for co-runner compatibility), and pinned jobs
    /// wait for their named core regardless of queue position.
    pub fn pick(
        &mut self,
        queue: &VecDeque<usize>,
        jobs: &[JobSpec],
        free: &[usize],
        running: &[Option<String>],
    ) -> Option<(usize, usize)> {
        if queue.is_empty() || free.is_empty() {
            return None;
        }
        match &mut self.inner {
            Inner::FirstFree => Some((0, free[0])),
            Inner::RoundRobin { next } => {
                let cores = running.len();
                // First free core at or after the rotating pointer.
                let core = (0..cores)
                    .map(|off| (*next + off) % cores)
                    .find(|c| free.contains(c))
                    .expect("free list is non-empty");
                *next = (core + 1) % cores;
                Some((0, core))
            }
            Inner::Pinned => queue.iter().enumerate().find_map(|(pos, &j)| {
                let core = jobs[j].core.expect("scenario parser enforced pins");
                free.contains(&core).then_some((pos, core))
            }),
            Inner::Predictor { profiles, model } => {
                // Cost of a candidate: the worst predicted slowdown, in
                // either direction, against any currently running workload.
                // With an idle chip every cost is the clamped 1.0, so the
                // choice degrades to FIFO order (strict inequality below).
                let cost = |j: &JobSpec| -> f64 {
                    let cand = &profiles[&j.network];
                    running
                        .iter()
                        .flatten()
                        .map(|name| {
                            let run = &profiles[name.as_str()];
                            model.predict_slowdown(cand, run).max(model.predict_slowdown(run, cand))
                        })
                        .fold(1.0_f64, f64::max)
                };
                let mut best = (0, cost(&jobs[queue[0]]));
                for (pos, &j) in queue.iter().enumerate().skip(1) {
                    let c = cost(&jobs[j]);
                    if c < best.1 {
                        best = (pos, c);
                    }
                }
                Some((best.0, free[0]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_config::parse_scenario;

    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n).map(|_| JobSpec { network: "ncf".into(), arrival: None, core: None }).collect()
    }

    #[test]
    fn first_free_takes_head_and_lowest_core() {
        let spec = parse_scenario("t", "cores = 4\njob = ncf\n").unwrap();
        let mut p = Policy::new(&spec);
        let q: VecDeque<usize> = [5, 6].into();
        let running: Vec<Option<String>> = vec![None; 4];
        assert_eq!(p.pick(&q, &jobs(8), &[1, 3], &running), Some((0, 1)));
    }

    #[test]
    fn round_robin_rotates_across_dispatches() {
        let spec = parse_scenario("t", "cores = 3\npolicy = round_robin\njob = ncf\n").unwrap();
        let mut p = Policy::new(&spec);
        let q: VecDeque<usize> = [0, 1, 2].into();
        let running: Vec<Option<String>> = vec![None, None, None];
        assert_eq!(p.pick(&q, &jobs(3), &[0, 1, 2], &running), Some((0, 0)));
        assert_eq!(p.pick(&q, &jobs(3), &[0, 1, 2], &running), Some((0, 1)));
        assert_eq!(p.pick(&q, &jobs(3), &[0, 2], &running), Some((0, 2)));
        // Pointer wrapped past the end: back to core 0.
        assert_eq!(p.pick(&q, &jobs(3), &[0, 1], &running), Some((0, 0)));
    }

    #[test]
    fn pinned_skips_jobs_whose_core_is_busy() {
        let spec =
            parse_scenario("t", "cores = 2\npolicy = pinned\njob = ncf on 0\njob = ncf on 1\n")
                .unwrap();
        let mut p = Policy::new(&spec);
        let q: VecDeque<usize> = [0, 1].into();
        let running: Vec<Option<String>> = vec![Some("ncf".into()), None];
        // Job 0 is pinned to busy core 0; job 1 (queue position 1) runs.
        assert_eq!(p.pick(&q, &spec.jobs, &[1], &running), Some((1, 1)));
        // Nothing dispatchable when only the busy core's job remains.
        let q: VecDeque<usize> = [0].into();
        assert_eq!(p.pick(&q, &spec.jobs, &[1], &running), None);
    }

    #[test]
    fn empty_queue_or_no_free_core_yields_none() {
        let spec = parse_scenario("t", "cores = 2\njob = ncf\n").unwrap();
        let mut p = Policy::new(&spec);
        let running: Vec<Option<String>> = vec![None, None];
        assert_eq!(p.pick(&VecDeque::new(), &jobs(1), &[0, 1], &running), None);
        let q: VecDeque<usize> = [0].into();
        assert_eq!(p.pick(&q, &jobs(1), &[], &running), None);
    }
}
