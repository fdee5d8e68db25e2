//! Parallel execution of serve-mode scenario lists.
//!
//! [`ServeExecutor`] is the scheduling-layer sibling of
//! [`crate::run_mixes`]: it fans a list of [`ScenarioSpec`]s out through
//! the same [`FanOut`], memoizes each distinct scenario's [`ServeReport`],
//! and returns results in request order. Every serve run is
//! single-threaded and deterministic, so the reports are byte-identical to
//! the serial path regardless of worker count — the `serve_parallel`
//! integration test pins that down. A scenario whose predictor policy
//! fans its own set-up out runs that set-up inline on its worker, so a
//! scenario list never spawns more than [`ServeExecutor::jobs`] threads.

use crate::harness::fnv1a;
use mnpu_config::ScenarioSpec;
use mnpu_engine::FanOut;
use mnpu_sched::{serve, ServeReport};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Fans serve-mode scenarios out across worker threads, memoizing reports.
///
/// The worker count is [`FanOut`]'s: `MNPU_JOBS` when set (minimum 1),
/// otherwise [`std::thread::available_parallelism`]. Unlike the sweep
/// cache, the scenario memo is in-memory only: a [`ServeReport`] carries
/// full per-core run state and is not worth persisting across processes.
#[derive(Clone)]
pub struct ServeExecutor {
    fan: FanOut,
    memo: Arc<Mutex<HashMap<u64, Arc<ServeReport>>>>,
    hits: Arc<AtomicUsize>,
}

impl Default for ServeExecutor {
    fn default() -> Self {
        ServeExecutor::new()
    }
}

impl ServeExecutor {
    /// An executor sized by `MNPU_JOBS`, defaulting to the machine's
    /// available parallelism.
    pub fn new() -> Self {
        ServeExecutor::with_jobs(FanOut::new().jobs())
    }

    /// An executor with an explicit worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        ServeExecutor {
            fan: FanOut::with_jobs(jobs),
            memo: Arc::new(Mutex::new(HashMap::new())),
            hits: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The worker count this executor fans out to.
    pub fn jobs(&self) -> usize {
        self.fan.jobs()
    }

    /// How many requested scenarios were answered from the memo instead of
    /// simulated — duplicates within one list and repeats across calls both
    /// count. Deterministic for a given request history, independent of the
    /// worker count.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Structural memo key: the scenario's `Debug` form hashed, matching
    /// the sweep cache's keying idiom.
    fn key(spec: &ScenarioSpec) -> u64 {
        fnv1a(&format!("{spec:?}"))
    }

    /// Serve every scenario (deduplicated, memo hits skipped) and return
    /// the reports in request order.
    pub fn run_scenarios(&self, specs: &[ScenarioSpec]) -> Vec<Arc<ServeReport>> {
        // Drop duplicates and already-memoized scenarios so workers only
        // see fresh work; every skipped request is a memo hit.
        let mut seen = HashSet::new();
        let todo: Vec<&ScenarioSpec> = {
            let memo = self.memo.lock().expect("serve memo lock");
            specs
                .iter()
                .filter(|s| {
                    let k = ServeExecutor::key(s);
                    if seen.insert(k) && !memo.contains_key(&k) {
                        true
                    } else {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        false
                    }
                })
                .collect()
        };

        self.fan.run(&todo, &mut || false, |spec| {
            let report = Arc::new(serve(spec));
            self.memo.lock().expect("serve memo lock").insert(ServeExecutor::key(spec), report);
        });

        // Everything is memoized now; assemble results in request order.
        let memo = self.memo.lock().expect("serve memo lock");
        specs
            .iter()
            .map(|s| Arc::clone(memo.get(&ServeExecutor::key(s)).expect("memoized above")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_config::parse_scenario;

    fn tiny(pattern: &str) -> ScenarioSpec {
        parse_scenario("t", &format!("cores = 2\npattern = {pattern}\njob = ncf\njob = ncf\n"))
            .unwrap()
    }

    #[test]
    fn serve_executor_clamps_to_one_job() {
        assert_eq!(ServeExecutor::with_jobs(0).jobs(), 1);
        assert!(ServeExecutor::new().jobs() >= 1);
    }

    #[test]
    fn duplicates_and_repeats_hit_the_memo() {
        let ex = ServeExecutor::with_jobs(1);
        let specs = vec![tiny("fixed:1000"), tiny("fixed:2000"), tiny("fixed:1000")];
        let out = ex.run_scenarios(&specs);
        assert_eq!(out.len(), 3);
        assert_eq!(ex.cache_hits(), 1, "third request duplicates the first");
        assert!(Arc::ptr_eq(&out[0], &out[2]), "duplicates share one report");
        ex.run_scenarios(&specs);
        assert_eq!(ex.cache_hits(), 4, "every repeat is a hit");
    }
}
