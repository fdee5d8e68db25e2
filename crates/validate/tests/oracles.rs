//! The analytical oracle suite must pass on every bundled preset: the
//! oracles are derived from the configuration and trace alone, so a
//! violation on a stock configuration means the engine (or an oracle) is
//! wrong, not the workload.

use mnpu_engine::{MemoryModel, ProbeMode, SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, Network, Scale};
use mnpu_validate::check_run;

fn assert_clean(cfg: &SystemConfig, nets: &[Network]) {
    let report = Simulation::execute_networks(cfg, nets);
    let violations = check_run(cfg, nets, &report);
    assert!(
        violations.is_empty(),
        "oracle violations on a stock configuration:\n{}",
        violations.iter().map(|v| format!("  {v}")).collect::<Vec<_>>().join("\n")
    );
}

fn bench_nets(n: usize) -> Vec<Network> {
    let pool = [
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
        zoo::yolo_tiny(Scale::Bench),
        zoo::dlrm(Scale::Bench),
    ];
    (0..n).map(|i| pool[i % pool.len()].clone()).collect()
}

#[test]
fn single_core_bench_is_clean() {
    assert_clean(&SystemConfig::bench(1, SharingLevel::PlusDwt), &bench_nets(1));
}

#[test]
fn quad_core_all_sharing_levels_are_clean() {
    for sharing in
        [SharingLevel::Static, SharingLevel::PlusD, SharingLevel::PlusDw, SharingLevel::PlusDwt]
    {
        assert_clean(&SystemConfig::bench(4, sharing), &bench_nets(4));
    }
}

#[test]
fn ddr4_preset_is_clean() {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.dram = mnpu_dram::DramConfig::ddr4(4);
    assert_clean(&cfg, &bench_nets(2));
}

#[test]
fn large_page_sizes_are_clean() {
    for pages in [65536u64, 1_048_576] {
        let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt).with_page_size(pages);
        assert_clean(&cfg, &bench_nets(2));
    }
}

#[test]
fn translation_off_is_clean() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusD).without_translation();
    assert_clean(&cfg, &bench_nets(2));
}

#[test]
fn ideal_memory_is_clean() {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.memory = MemoryModel::Ideal { latency: 16 };
    assert_clean(&cfg, &bench_nets(2));
}

#[test]
fn probe_stats_cross_checks_are_clean() {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.probe = ProbeMode::Stats;
    cfg.trace_window = Some(1024);
    cfg.validate().unwrap();
    assert_clean(&cfg, &bench_nets(2));
}

#[test]
fn channel_partition_is_clean() {
    let cfg = SystemConfig::bench(2, SharingLevel::Static).with_channel_partition(vec![6, 2]);
    assert_clean(&cfg, &bench_nets(2));
}

#[test]
fn multi_iteration_run_is_clean() {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.iterations = 3;
    assert_clean(&cfg, &bench_nets(2));
}

#[test]
fn full_zoo_quad_is_clean() {
    // Every zoo workload, cycled over a shared-everything quad chip.
    let nets = zoo::all(Scale::Bench);
    for chunk in nets.chunks(4) {
        let cfg = SystemConfig::bench(chunk.len(), SharingLevel::PlusDwt);
        assert_clean(&cfg, chunk);
    }
}
