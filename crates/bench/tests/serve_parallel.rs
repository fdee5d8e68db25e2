//! Parallel serve-mode execution is byte-identical to the serial path.
//!
//! Each serve run is single-threaded and deterministic, so fanning a
//! scenario list across workers must change nothing but wall-clock time:
//! same reports, byte-for-byte, in scenario order.

use mnpu_config::{parse_scenario, ScenarioSpec};
use mnpu_engine::FanOut;
use mnpu_sched::serve;

fn scenario(name: &str, text: &str) -> ScenarioSpec {
    parse_scenario(name, text).unwrap()
}

/// A small list with queueing, both FIFO policies, and the predictor
/// (whose set-up fans out inline on its scenario's worker).
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
    ]
}

#[test]
fn parallel_and_serial_serve_runs_are_byte_identical() {
    let specs = scenario_list();
    let a = FanOut::with_jobs(1).map(&specs, serve);
    let b = FanOut::with_jobs(4).map(&specs, serve);
    assert_eq!(a.len(), specs.len());
    assert_eq!(b.len(), specs.len());
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra.to_json(), rb.to_json(), "scenario {i} diverged across worker counts");
    }
}
