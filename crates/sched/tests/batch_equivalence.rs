//! The serve-mode keystone invariant: a scenario where every job arrives
//! at cycle 0 pinned to its own core must produce an engine report
//! byte-identical to batch mode. The comparison target is the *existing*
//! quad-core golden fixture from `mnpu-engine` — the same bytes that pin
//! batch behavior pin serve mode, so the two modes can never drift apart
//! silently.

use mnpu_config::parse_scenario;
use mnpu_engine::{Simulation, SystemConfig};
use mnpu_model::{zoo, Scale};
use mnpu_sched::serve;

/// The golden scenario: the fixture's four benchmarks (ncf, gpt2,
/// yolo-tiny, dlrm) on the +DWT bench chip with bandwidth tracing on.
fn golden_scenario() -> mnpu_sched::ScenarioSpec {
    let mut spec = parse_scenario(
        "golden",
        "cores = 4\nsharing = +DWT\npolicy = pinned\n\
         job = ncf on 0\njob = gpt2 on 1\njob = yt on 2\njob = dlrm on 3\n",
    )
    .unwrap();
    spec.system.trace_window = Some(4096);
    spec
}

fn golden_fixture() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../engine/tests/fixtures/quad_golden.json");
    std::fs::read_to_string(path).expect("engine golden fixture present")
}

#[test]
fn all_jobs_at_cycle_zero_is_byte_identical_to_batch_mode() {
    let report = serve(&golden_scenario());
    let json = report.run.to_json();
    let expected = golden_fixture();
    assert_eq!(json.len(), expected.len(), "serialized report size diverged from batch");
    assert_eq!(json, expected, "serve(all-at-0, pinned) must be byte-identical to batch");
    // And the scheduling layer saw what batch mode implies: no queueing.
    for j in &report.jobs {
        assert_eq!(j.arrival, 0);
        assert_eq!(j.queueing(), 0);
    }
}

#[test]
fn scenario_chip_equals_the_batch_preset() {
    // The scenario goes through `mnpu-config`'s parser; the fixture was
    // produced from the preset directly. Equality here localizes any
    // future divergence to the config layer rather than the engine.
    let spec = golden_scenario();
    let mut preset = SystemConfig::bench(4, mnpu_engine::SharingLevel::PlusDwt);
    preset.trace_window = Some(4096);
    assert_eq!(spec.system, preset);
}

#[test]
fn first_free_matches_pinned_for_the_identity_layout() {
    // With simultaneous arrivals and a free chip, first-free assigns jobs
    // to cores in declaration order — the same layout the pins force.
    let mut spec = parse_scenario(
        "ff",
        "cores = 4\nsharing = +DWT\njob = ncf\njob = gpt2\njob = yt\njob = dlrm\n",
    )
    .unwrap();
    spec.system.trace_window = Some(4096);
    assert_eq!(serve(&spec).run.to_json(), golden_fixture());
}

#[test]
fn staggered_arrivals_change_the_report() {
    // Sanity for the invariant's contrapositive: once arrivals are
    // staggered, serve mode genuinely schedules (cores start late) and the
    // report must differ from batch.
    let mut spec = parse_scenario(
        "stagger",
        "cores = 4\nsharing = +DWT\npattern = fixed:100000\npolicy = pinned\n\
         job = ncf on 0\njob = gpt2 on 1\njob = yt on 2\njob = dlrm on 3\n",
    )
    .unwrap();
    spec.system.trace_window = Some(4096);
    let staggered = serve(&spec);
    assert_ne!(staggered.run.to_json(), golden_fixture());
    assert_eq!(staggered.jobs[3].arrival, 300_000);
    assert_eq!(staggered.jobs[3].queueing(), 0, "own core is free: no queueing");
}

#[test]
fn batch_equivalence_also_holds_against_a_fresh_batch_run() {
    // Independent of the checked-in fixture: serve == batch for a config
    // the fixture does not cover (2 cores, Static sharing).
    let cfg = SystemConfig::bench(2, mnpu_engine::SharingLevel::Static);
    let nets = [zoo::ncf(Scale::Bench), zoo::dlrm(Scale::Bench)];
    let batch = Simulation::execute_networks(&cfg, &nets).to_json();

    let spec = parse_scenario(
        "fresh",
        "cores = 2\nsharing = Static\npolicy = pinned\njob = ncf on 0\njob = dlrm on 1\n",
    )
    .unwrap();
    assert_eq!(serve(&spec).run.to_json(), batch);
}
