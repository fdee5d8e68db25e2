//! Parallel-sweep determinism: fanning the dual-core sweep across worker
//! threads must produce byte-identical per-core cycle counts to the plain
//! serial path. (Every simulation is single-threaded and deterministic;
//! the executor only changes *which thread* runs it.)

use mnpu_bench::{sweeps, Harness, SweepRequest};
use mnpu_engine::{FanOut, SharingLevel};
use mnpu_predict::mapping::multisets;

#[test]
fn parallel_dual_sweep_matches_serial_exactly() {
    // Isolate from the on-disk cache and pin the worker count.
    std::env::set_var("MNPU_NO_CACHE", "1");
    std::env::set_var("MNPU_JOBS", "4");

    let reqs: Vec<(mnpu_engine::SystemConfig, Vec<usize>)> =
        multisets(8, 2).into_iter().map(|ws| (Harness::dual(SharingLevel::PlusDwt), ws)).collect();
    assert_eq!(reqs.len(), 36, "all dual-core mixes");

    let serial_h = Harness::new();
    let serial: Vec<Vec<u64>> = reqs.iter().map(|(cfg, ws)| serial_h.run_mix(cfg, ws)).collect();

    let parallel_h = Harness::new();
    let fan = FanOut::new();
    assert_eq!(fan.jobs(), 4, "MNPU_JOBS override");
    let parallel = sweeps::run_mixes(&parallel_h, &reqs, fan);

    assert_eq!(serial, parallel, "per-core cycle counts must be byte-identical");
}

#[test]
fn sweep_counts_are_identical_for_any_worker_count() {
    // The first 12 fig04 requests are the eight Ideal solos plus one mix
    // under all four co-run levels: singles and a prefix group.
    let fig04_head: Vec<SweepRequest> = sweeps::fig04().into_iter().take(12).collect();
    let h = Harness::new();
    for reqs in [sweeps::tiny(), fig04_head] {
        let counts = |jobs| {
            sweeps::run_counts_observed(&h, &reqs, FanOut::with_jobs(jobs), None, &mut || false)
                .expect("an unstoppable sweep completes")
        };
        let serial = counts(1);
        assert_eq!(serial.sims, reqs.len());
        let serial_json = serial.last_report.as_ref().map(|r| r.to_json());
        for jobs in [2, 4] {
            let parallel = counts(jobs);
            assert_eq!(parallel, serial, "{jobs} workers changed the counts");
            let parallel_json = parallel.last_report.as_ref().map(|r| r.to_json());
            assert_eq!(parallel_json, serial_json, "{jobs} workers changed the last report");
        }
    }
}
