//! The workspace's one parallel fan-out over scoped `std::thread` workers.
//!
//! Sweeps, serve scenario lists and predictor set-up are fleets of
//! independent deterministic simulations. Every driver hands them to
//! [`FanOut`]: the simulations are single-threaded, and results are either
//! assembled by unit index ([`FanOut::map`]) or combined commutatively, so
//! every answer is byte-identical to the serial loop for any worker count.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

thread_local! {
    /// Set on fan-out worker threads for their lifetime.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Fans independent units of work out across worker threads.
///
/// The worker count comes from the `MNPU_JOBS` environment variable when
/// set (minimum 1), otherwise from [`std::thread::available_parallelism`].
/// With one worker, or one unit, the units run inline on the calling
/// thread and no thread is spawned.
///
/// A fan-out started *on a fan-out worker* also runs inline: the outer
/// fan-out already occupies every worker, so a unit that fans out again
/// (a serve scenario building its predictor, say) must not multiply the
/// thread count.
#[derive(Debug, Clone, Copy)]
pub struct FanOut {
    jobs: usize,
}

impl Default for FanOut {
    fn default() -> Self {
        FanOut::new()
    }
}

impl FanOut {
    /// A fan-out sized by `MNPU_JOBS`, defaulting to the machine's
    /// available parallelism.
    pub fn new() -> Self {
        let jobs = std::env::var("MNPU_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        FanOut::with_jobs(jobs)
    }

    /// A fan-out with an explicit worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        FanOut { jobs: jobs.max(1) }
    }

    /// The worker count this fan-out spreads units over.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` on every unit and return the results in unit order.
    ///
    /// # Panics
    ///
    /// A panic in `f` resumes on the caller with its original payload,
    /// after every running unit has finished.
    pub fn map<T: Sync, R: Send>(&self, units: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = units.iter().map(|_| Mutex::new(None)).collect();
        let indexed: Vec<(usize, &T)> = units.iter().enumerate().collect();
        self.run(&indexed, &mut || false, |&(i, unit)| {
            let r = f(unit);
            *slots[i].lock().expect("one writer per slot") = Some(r);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("one writer per slot").expect("every unit ran"))
            .collect()
    }

    /// Run `work` once per unit, in order, on up to [`FanOut::jobs`]
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
    pub fn run<T: Sync>(
        &self,
        units: &[T],
        should_stop: &mut dyn FnMut() -> bool,
        work: impl Fn(&T) + Sync,
    ) -> bool {
        let workers = if ON_WORKER.get() { 1 } else { self.jobs.min(units.len()) };
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
                    ON_WORKER.set(true);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_clamps_to_one_job() {
        assert_eq!(FanOut::with_jobs(0).jobs(), 1);
        assert!(FanOut::new().jobs() >= 1);
    }

    #[test]
    fn run_runs_every_unit_once_or_stops_before_handing_out() {
        let units: Vec<usize> = (0..20).collect();
        for jobs in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            let fan = FanOut::with_jobs(jobs);
            let finished = fan.run(&units, &mut || false, |&u| {
                ran.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(u, Ordering::Relaxed);
            });
            assert!(finished);
            assert_eq!(ran.load(Ordering::Relaxed), 20, "{jobs} workers");
            assert_eq!(sum.load(Ordering::Relaxed), 190, "{jobs} workers");

            let ran = AtomicUsize::new(0);
            let mut calls = 0;
            let finished = fan.run(
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
    fn map_returns_results_in_unit_order() {
        let units: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 4] {
            let squares = FanOut::with_jobs(jobs).map(&units, |&u| u * u);
            assert_eq!(squares, units.iter().map(|u| u * u).collect::<Vec<_>>(), "{jobs}");
        }
        assert!(FanOut::with_jobs(2).map(&[] as &[u8], |&u| u).is_empty());
    }

    #[test]
    fn panics_keep_their_payload() {
        let units: Vec<usize> = (0..8).collect();
        for jobs in [1, 2, 4] {
            let fan = FanOut::with_jobs(jobs);
            let in_unit = catch_unwind(AssertUnwindSafe(|| {
                fan.run(&units, &mut || false, |&u| {
                    if u == 3 {
                        panic!("unit three failed");
                    }
                })
            }))
            .expect_err("a unit panic reaches the caller");
            assert_eq!(in_unit.downcast_ref::<&str>(), Some(&"unit three failed"), "{jobs}");

            let mut calls = 0;
            let in_stop = catch_unwind(AssertUnwindSafe(|| {
                fan.run(
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
    fn workers_run_under_the_callers_trace_handle() {
        let handle = mnpu_trace::TraceHandle::new();
        let _guard = mnpu_trace::install(&handle);
        let units: Vec<usize> = (0..4).collect();
        let bound = AtomicUsize::new(0);
        FanOut::with_jobs(2).run(&units, &mut || false, |_| {
            if mnpu_trace::installed().is_some_and(|h| h.same_ring(&handle)) {
                bound.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(bound.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_fan_out_on_a_worker_runs_inline_and_spawns_no_thread() {
        let outer: Vec<usize> = (0..4).collect();
        let inner: Vec<usize> = (0..8).collect();
        let fan = FanOut::with_jobs(4);
        let threads = fan.map(&outer, |_| {
            let me = std::thread::current().id();
            let ran_on = fan.map(&inner, |_| std::thread::current().id());
            assert!(ran_on.iter().all(|&id| id == me), "nested units ran on another thread");
            me
        });
        assert!(threads.iter().all(|&id| id != std::thread::current().id()));
        // Off a worker, the same fan-out spreads again.
        let ids = fan.map(&inner, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != std::thread::current().id()));
    }
}
