//! Parallel serve-mode execution is byte-identical to the serial path.
//!
//! Each serve run is single-threaded and deterministic, so fanning a
//! scenario list across workers must change nothing but wall-clock time:
//! same reports, byte-for-byte, and the same memo-hit count.

use mnpu_bench::ServeExecutor;
use mnpu_config::{parse_scenario, ScenarioSpec};

fn scenario(name: &str, text: &str) -> ScenarioSpec {
    parse_scenario(name, text).unwrap()
}

/// A small list with queueing, both FIFO policies, the predictor (whose
/// set-up fans out inline on its scenario's worker), and a duplicate entry.
fn scenario_list() -> Vec<ScenarioSpec> {
    vec![
        scenario("a", "cores = 1\npattern = fixed:1000\njob = ncf\njob = ncf\n"),
        scenario(
            "b",
            "cores = 2\npattern = bursty:2:100000\nseed = 3\npolicy = round_robin\n\
             job = ncf\njob = dlrm\njob = ncf\n",
        ),
        scenario("c", "cores = 2\nsharing = Static\njob = ncf\njob = dlrm\n"),
        scenario(
            "d",
            "cores = 2\npattern = bursty:3:20000\nseed = 3\npolicy = predictor\n\
             job = ncf\njob = dlrm\njob = ncf\njob = yt\n",
        ),
        scenario("a2", "cores = 1\npattern = fixed:1000\njob = ncf\njob = ncf\n"), // dup of a
    ]
}

#[test]
fn parallel_and_serial_serve_runs_are_byte_identical() {
    let specs = scenario_list();
    let serial = ServeExecutor::with_jobs(1);
    let parallel = ServeExecutor::with_jobs(4);
    let a = serial.run_scenarios(&specs);
    let b = parallel.run_scenarios(&specs);
    assert_eq!(a.len(), b.len());
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra.to_json(), rb.to_json(), "scenario {i} diverged across worker counts");
    }
    assert_eq!(
        serial.cache_hits(),
        parallel.cache_hits(),
        "memo-hit accounting must not depend on the worker count"
    );
    assert_eq!(serial.cache_hits(), 1, "the duplicate scenario is the only hit");
}

#[test]
fn repeating_a_list_is_all_memo_hits_and_identical() {
    let specs = scenario_list();
    let ex = ServeExecutor::with_jobs(2);
    let first = ex.run_scenarios(&specs);
    let hits_after_first = ex.cache_hits();
    let second = ex.run_scenarios(&specs);
    assert_eq!(ex.cache_hits(), hits_after_first + specs.len());
    for (ra, rb) in first.iter().zip(&second) {
        assert!(std::sync::Arc::ptr_eq(ra, rb), "repeat must reuse the memoized report");
    }
}

#[test]
fn executor_worker_count_comes_from_mnpu_jobs() {
    std::env::set_var("MNPU_JOBS", "3");
    assert_eq!(ServeExecutor::new().jobs(), 3);
    std::env::remove_var("MNPU_JOBS");
}
