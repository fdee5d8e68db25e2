//! Parallel sweep execution over `std::thread` workers.
//!
//! The figure sweeps are embarrassingly parallel — hundreds of independent
//! simulations whose results meet only in the run cache. [`SweepExecutor`]
//! fans a request list out across worker threads (each worker clones the
//! [`Harness`], sharing its mutex-guarded caches) and returns results in
//! request order. Every simulation is single-threaded and deterministic,
//! so the results are byte-identical to the serial path regardless of the
//! worker count or scheduling.

use crate::harness::Harness;
use crate::prefix::{plan_units, SweepUnit};
use crate::sweeps::SweepRequest;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fans sweep requests out across worker threads.
///
/// The worker count comes from the `MNPU_JOBS` environment variable when
/// set (minimum 1), otherwise from [`std::thread::available_parallelism`].
/// `MNPU_JOBS=1` degenerates to the plain serial loop.
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

        fn run_unit(h: &Harness, todo: &[&SweepRequest], unit: &SweepUnit) {
            match unit {
                SweepUnit::Single(i) => {
                    let (cfg, ws) = todo[*i];
                    h.run_mix(cfg, ws);
                }
                SweepUnit::Group(members) => {
                    let cfgs: Vec<_> = members.iter().map(|&i| todo[i].0.clone()).collect();
                    h.run_mix_group(&cfgs, &todo[members[0]].1);
                }
            }
        }

        let workers = self.jobs.min(units.len());
        if workers <= 1 {
            for unit in &units {
                run_unit(h, &todo, unit);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let worker = h.clone();
                    let next = &next;
                    let (todo, units) = (&todo, &units);
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units.get(i) else { break };
                        run_unit(&worker, todo, unit);
                    });
                }
            });
        }

        // Everything is cached now; assemble results in request order.
        requests.iter().map(|(cfg, ws)| h.run_mix(cfg, ws)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_engine::SharingLevel;

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
}
