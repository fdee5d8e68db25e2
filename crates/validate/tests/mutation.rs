//! Mutation coverage for the oracle suite: deliberately break a timing
//! constant or tamper with a field of a genuine report, and assert that a
//! specific oracle notices. This is the proof the validation layer has
//! teeth — an oracle suite that accepts everything would also pass the
//! stock-preset tests.

use mnpu_engine::{ProbeMode, SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, Network, Scale};
use mnpu_validate::check_run;

fn setup() -> (SystemConfig, Vec<Network>, mnpu_engine::RunReport) {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.probe = ProbeMode::Stats;
    cfg.validate().unwrap();
    let nets = vec![zoo::ncf(Scale::Bench), zoo::dlrm(Scale::Bench)];
    let report = Simulation::execute_networks(&cfg, &nets);
    (cfg, nets, report)
}

fn oracles_fired(violations: &[mnpu_validate::Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.oracle).collect()
}

/// The ISSUE's acceptance mutation: a broken DRAM timing constant. The
/// report was produced with `burst_cycles = 8`; validating it against a
/// configuration claiming `burst_cycles = 1` must trip the per-channel
/// bandwidth equality (`busy_cycles == transactions x burst`).
#[test]
fn broken_burst_constant_is_caught() {
    let (cfg, nets, report) = setup();
    let mut broken = cfg.clone();
    broken.dram.timing.burst_cycles = 1;
    let fired = oracles_fired(&check_run(&broken, &nets, &report));
    assert!(
        fired.contains(&"dram-bandwidth"),
        "dram-bandwidth oracle missed a broken burst constant; fired: {fired:?}"
    );
}

#[test]
fn impossibly_fast_core_is_caught() {
    let (cfg, nets, mut report) = setup();
    report.cores[0].cycles = report.cores[0].compute_cycles - 1;
    let fired = oracles_fired(&check_run(&cfg, &nets, &report));
    assert!(
        fired.contains(&"compute-roofline"),
        "compute-roofline missed a core beating its own systolic array; fired: {fired:?}"
    );
}

#[test]
fn tampered_walk_bytes_are_caught() {
    let (cfg, nets, mut report) = setup();
    report.cores[0].walk_bytes += 64;
    let fired = oracles_fired(&check_run(&cfg, &nets, &report));
    assert!(
        fired.contains(&"walk-conservation"),
        "walk-conservation missed an extra PTE line; fired: {fired:?}"
    );
}

#[test]
fn tampered_traffic_is_caught() {
    let (cfg, nets, mut report) = setup();
    report.cores[0].traffic_bytes += 64;
    let fired = oracles_fired(&check_run(&cfg, &nets, &report));
    assert!(
        fired.contains(&"traffic-exact"),
        "traffic-exact missed a phantom transaction; fired: {fired:?}"
    );
    assert!(
        fired.contains(&"dram-conservation"),
        "core-vs-DRAM conservation missed a phantom transaction; fired: {fired:?}"
    );
}

#[test]
fn tampered_stall_breakdown_is_caught() {
    let (cfg, nets, mut report) = setup();
    let stats = report.stats.as_mut().expect("probe stats enabled");
    stats.cores[0].stall.compute += 1;
    let fired = oracles_fired(&check_run(&cfg, &nets, &report));
    assert!(
        fired.contains(&"stall-partition"),
        "stall-partition missed a non-partitioning breakdown; fired: {fired:?}"
    );
}

#[test]
fn tampered_channel_fold_is_caught() {
    let (cfg, nets, mut report) = setup();
    report.dram.per_channel[0].row_hits += 1;
    let fired = oracles_fired(&check_run(&cfg, &nets, &report));
    assert!(
        fired.contains(&"dram-conservation"),
        "per-channel fold mismatch not caught; fired: {fired:?}"
    );
}

#[test]
fn dropped_core_report_is_caught() {
    let (cfg, nets, mut report) = setup();
    report.cores.pop();
    let fired = oracles_fired(&check_run(&cfg, &nets, &report));
    assert!(fired.contains(&"report-shape"), "missing core report not caught; fired: {fired:?}");
}
