//! Golden equivalence suite: quad-core mixed-benchmark runs, serialized
//! to JSON, must stay byte-identical across simulator changes.
//!
//! The fixtures under `tests/fixtures/` pin the simulator's visible
//! behavior exactly: any hot-path change (next-event caching, scheduler
//! candidate caches, buffer reuse) that alters even one cycle, one stat
//! counter, or one completion ordering fails these tests. Together with
//! the serial/parallel determinism test in `mnpu-bench`, they are the
//! regression net under every optimization PR.
//!
//! Four variants of the same quad-core mixed workload are pinned:
//! the HBM2-class bench chip (the original fixture), the DDR4 preset
//! (longer CAS, slower clock, deeper refresh — a different event
//! schedule shape), and the 64 KB and 1 MB page sizes (3- and 2-level
//! walks, different TLB reach). A fifth runs the original chip under
//! [`ProbeMode::Stats`], pinning the report's `stats` section: the
//! counters, histograms, stall breakdown and epoch series the probe
//! aggregates from engine and DRAM events alike. A sixth swaps the DRAM
//! model for the fixed-latency ideal memory, pinning that backend's
//! completion order and its one pseudo-channel's statistics.
//!
//! Regenerate intentionally (after a *semantic* model change, never for
//! an optimization) with:
//!
//! ```text
//! MNPU_BLESS=1 cargo test -p mnpu-engine --test golden
//! ```
//!
//! which rewrites every fixture in one pass and prints the new sizes.

use mnpu_dram::DramConfig;
use mnpu_engine::{ProbeMode, SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, Scale};

/// The pinned run: four different benchmarks (memory-bound ds2, the two
/// language models, and compute-bound ncf) on a quad-core chip with every
/// resource shared (+DWT) — the configuration that exercises DRAM FR-FCFS
/// scheduling, refresh, TLB sharing, walk coalescing, and the walker pool
/// all at once. Bandwidth tracing is enabled so completion *timing*, not
/// just totals, is captured in the fixture.
fn golden_config() -> SystemConfig {
    let mut cfg = SystemConfig::bench(4, SharingLevel::PlusDwt);
    cfg.trace_window = Some(4096);
    cfg
}

fn golden_report(cfg: &SystemConfig) -> String {
    let nets = [
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
        zoo::yolo_tiny(Scale::Bench),
        zoo::dlrm(Scale::Bench),
    ];
    Simulation::execute_networks(cfg, &nets).to_json()
}

/// Compare `json` against the named fixture, or rewrite the fixture when
/// `MNPU_BLESS=1` is set.
fn check_fixture(name: &str, json: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let path = format!("{dir}/{name}");
    if std::env::var("MNPU_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(&path, json).unwrap();
        eprintln!("blessed fixture {name}: {} bytes", json.len());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("fixture {name} missing — generate with MNPU_BLESS=1 (see module docs)")
    });
    // Compare lengths first for a readable failure before the full diff.
    assert_eq!(json.len(), expected.len(), "{name}: serialized report size changed");
    assert_eq!(json, &expected, "{name}: golden report must be byte-identical");
}

#[test]
fn quad_mixed_run_matches_golden_fixture() {
    check_fixture("quad_golden.json", &golden_report(&golden_config()));
}

#[test]
fn quad_mixed_ddr4_matches_golden_fixture() {
    let mut cfg = golden_config();
    cfg.dram = DramConfig::ddr4(4);
    check_fixture("quad_golden_ddr4.json", &golden_report(&cfg));
}

#[test]
fn quad_mixed_64k_pages_matches_golden_fixture() {
    let cfg = golden_config().with_page_size(65536);
    check_fixture("quad_golden_64k.json", &golden_report(&cfg));
}

#[test]
fn quad_mixed_1m_pages_matches_golden_fixture() {
    let cfg = golden_config().with_page_size(1_048_576);
    check_fixture("quad_golden_1m.json", &golden_report(&cfg));
}

#[test]
fn quad_mixed_stats_matches_golden_fixture() {
    let mut cfg = golden_config();
    cfg.probe = ProbeMode::Stats;
    check_fixture("quad_golden_stats.json", &golden_report(&cfg));
}

#[test]
fn quad_ideal_memory_matches_golden_fixture() {
    let cfg = golden_config().with_ideal_memory(60);
    check_fixture("quad_golden_ideal.json", &golden_report(&cfg));
}
