//! Parallel sweep execution over `std::thread` workers.
//!
//! The figure sweeps are embarrassingly parallel — hundreds of independent
//! simulations whose results meet only in the run cache or a running sum.
//! [`SweepExecutor`] owns the one fan-out every parallel driver goes
//! through: [`SweepExecutor::run_mixes`] here,
//! [`crate::sweeps::run_counts_observed`] and
//! [`crate::ServeExecutor::run_scenarios`]. Every simulation is
//! single-threaded and deterministic, so results are byte-identical to the
//! serial path regardless of the worker count or scheduling.

use crate::harness::Harness;
use crate::prefix::{plan_units, SweepUnit};
use crate::sweeps::SweepRequest;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Fans sweep requests out across worker threads.
///
/// The worker count comes from the `MNPU_JOBS` environment variable when
/// set (minimum 1), otherwise from [`std::thread::available_parallelism`].
/// `MNPU_JOBS=1` degenerates to the plain serial loop on the calling
/// thread.
#[derive(Debug, Clone, Copy)]
pub struct SweepExecutor {
    jobs: usize,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        SweepExecutor::new()
    }
}

impl SweepExecutor {
    /// An executor sized by `MNPU_JOBS`, defaulting to the machine's
    /// available parallelism.
    pub fn new() -> Self {
        let jobs = std::env::var("MNPU_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        SweepExecutor::with_jobs(jobs)
    }

    /// An executor with an explicit worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        SweepExecutor { jobs: jobs.max(1) }
    }

    /// The worker count this executor fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `work` once per unit, in order, on up to [`SweepExecutor::jobs`]
    /// scoped worker threads. Returns `false` when `should_stop` fired.
    ///
    /// The calling thread hands the units out: it waits for a free worker,
    /// then consults `should_stop`, then hands over the next unit. Once
    /// `should_stop` returns `true` no further unit starts; units already
    /// running finish before the call returns. A panic in `should_stop` or
    /// in a unit stops the hand-out the same way and then resumes on the
    /// caller with its original payload. Workers run under the caller's
    /// installed [`mnpu_trace::TraceHandle`], if any, so probes built
    /// inside `work` feed the caller's ring.
    ///
    /// With one worker (or one unit) everything runs inline on the calling
    /// thread and no thread is spawned.
    pub(crate) fn fan_out<T: Sync>(
        &self,
        units: &[T],
        should_stop: &mut dyn FnMut() -> bool,
        work: impl Fn(&T) + Sync,
    ) -> bool {
        let workers = self.jobs.min(units.len());
        if workers <= 1 {
            for unit in units {
                if should_stop() {
                    return false;
                }
                work(unit);
            }
            return true;
        }
        let installed = mnpu_trace::installed();
        let (unit_tx, unit_rx) = mpsc::channel::<&T>();
        let unit_rx = Mutex::new(unit_rx);
        let (done_tx, done_rx) = mpsc::channel::<std::thread::Result<()>>();
        let mut panicked = None;
        let finished = std::thread::scope(|scope| {
            for _ in 0..workers {
                let done_tx = done_tx.clone();
                let (unit_rx, work, installed) = (&unit_rx, &work, &installed);
                scope.spawn(move || {
                    let _guard = installed.as_ref().map(mnpu_trace::install);
                    loop {
                        // A statement of its own, so the lock is released
                        // before the unit runs.
                        let next =
                            unit_rx.lock().expect("no worker panics holding the queue").recv();
                        let Ok(unit) = next else { break };
                        let outcome = catch_unwind(AssertUnwindSafe(|| work(unit)));
                        if done_tx.send(outcome).is_err() {
                            break;
                        }
                    }
                });
            }
            // Moved in, so returning or unwinding from here closes the
            // queue and idle workers exit before the scope joins them.
            let unit_tx = unit_tx;
            let mut in_flight = 0;
            for unit in units {
                // Collect finished units; block only while every worker is
                // busy, so `should_stop` runs right before a unit can start.
                loop {
                    let outcome = if in_flight == workers {
                        done_rx.recv().ok()
                    } else {
                        done_rx.try_recv().ok()
                    };
                    let Some(outcome) = outcome else { break };
                    in_flight -= 1;
                    if let Err(payload) = outcome {
                        panicked.get_or_insert(payload);
                    }
                }
                if panicked.is_some() || should_stop() {
                    return false;
                }
                unit_tx.send(unit).expect("the workers' queue outlives the hand-out");
                in_flight += 1;
            }
            true
        });
        // The scope joined every worker, so every outcome has been sent.
        for outcome in done_rx.try_iter() {
            if let Err(payload) = outcome {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        finished
    }

    /// Run every request (deduplicated, cache hits skipped), then return
    /// per-core cycle counts in request order. Results are memoized in the
    /// harness cache exactly as [`Harness::run_mix`] would.
    ///
    /// Uncached requests that differ only in MMU organization are coalesced
    /// into warm-start prefix groups (see [`crate::prefix`]) — each group
    /// is one unit of worker parallelism, its members simulated from one
    /// shared prefix. `MNPU_NO_PREFIX_SHARE=1` restores the one-request-
    /// per-unit plan; results are byte-identical either way.
    pub fn run_mixes(&self, h: &Harness, requests: &[SweepRequest]) -> Vec<Vec<u64>> {
        // Dedup by cache key and drop already-memoized runs so workers only
        // see fresh work.
        let mut seen = std::collections::HashSet::new();
        let todo: Vec<&SweepRequest> = requests
            .iter()
            .filter(|(cfg, ws)| seen.insert(Harness::key(cfg, ws)) && h.cached(cfg, ws).is_none())
            .collect();
        let units = plan_units(todo.iter().map(|(cfg, ws)| (cfg, ws.as_slice())));
        self.fan_out(&units, &mut || false, |unit| match unit {
            SweepUnit::Single(i) => {
                let (cfg, ws) = todo[*i];
                h.run_mix(cfg, ws);
            }
            SweepUnit::Group(members) => {
                let cfgs: Vec<_> = members.iter().map(|&i| todo[i].0.clone()).collect();
                h.run_mix_group(&cfgs, &todo[members[0]].1);
            }
        });

        // Everything is cached now; assemble results in request order.
        requests.iter().map(|(cfg, ws)| h.run_mix(cfg, ws)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_engine::SharingLevel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executor_clamps_to_one_job() {
        assert_eq!(SweepExecutor::with_jobs(0).jobs(), 1);
        assert!(SweepExecutor::new().jobs() >= 1);
    }

    #[test]
    fn run_mixes_preserves_request_order_and_dedups() {
        std::env::set_var("MNPU_NO_CACHE", "1");
        let h = Harness::new();
        let cfg = Harness::dual(SharingLevel::Static);
        let reqs: Vec<SweepRequest> = vec![
            (cfg.clone(), vec![6, 6]),
            (cfg.clone(), vec![6, 7]),
            (cfg.clone(), vec![6, 6]), // duplicate
        ];
        let out = SweepExecutor::with_jobs(2).run_mixes(&h, &reqs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2], "duplicate requests share one run");
        assert_eq!(out[0], h.run_mix(&cfg, &[6, 6]));
        assert_eq!(out[1], h.run_mix(&cfg, &[6, 7]));
    }

    #[test]
    fn fan_out_runs_every_unit_once_or_stops_before_handing_out() {
        let units: Vec<usize> = (0..20).collect();
        for jobs in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            let exec = SweepExecutor::with_jobs(jobs);
            let finished = exec.fan_out(&units, &mut || false, |&u| {
                ran.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(u, Ordering::Relaxed);
            });
            assert!(finished);
            assert_eq!(ran.load(Ordering::Relaxed), 20, "{jobs} workers");
            assert_eq!(sum.load(Ordering::Relaxed), 190, "{jobs} workers");

            let ran = AtomicUsize::new(0);
            let mut calls = 0;
            let finished = exec.fan_out(
                &units,
                &mut || {
                    calls += 1;
                    calls == 6
                },
                |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(!finished);
            assert_eq!((calls, ran.load(Ordering::Relaxed)), (6, 5), "{jobs} workers");
        }
    }

    #[test]
    fn fan_out_panics_keep_their_payload() {
        let units: Vec<usize> = (0..8).collect();
        for jobs in [1, 2, 4] {
            let exec = SweepExecutor::with_jobs(jobs);
            let in_unit = catch_unwind(AssertUnwindSafe(|| {
                exec.fan_out(&units, &mut || false, |&u| {
                    if u == 3 {
                        panic!("unit three failed");
                    }
                })
            }))
            .expect_err("a unit panic reaches the caller");
            assert_eq!(in_unit.downcast_ref::<&str>(), Some(&"unit three failed"), "{jobs}");

            let mut calls = 0;
            let in_stop = catch_unwind(AssertUnwindSafe(|| {
                exec.fan_out(
                    &units,
                    &mut || {
                        calls += 1;
                        if calls > 2 {
                            panic!("stop check failed");
                        }
                        false
                    },
                    |_| {},
                )
            }))
            .expect_err("a stop-check panic reaches the caller");
            assert_eq!(in_stop.downcast_ref::<&str>(), Some(&"stop check failed"), "{jobs}");
        }
    }

    #[test]
    fn fan_out_workers_run_under_the_callers_trace_handle() {
        let handle = mnpu_trace::TraceHandle::new();
        let _guard = mnpu_trace::install(&handle);
        let units: Vec<usize> = (0..4).collect();
        let bound = AtomicUsize::new(0);
        SweepExecutor::with_jobs(2).fan_out(&units, &mut || false, |_| {
            if mnpu_trace::installed().is_some_and(|h| h.same_ring(&handle)) {
                bound.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(bound.load(Ordering::Relaxed), 4);
    }
}
