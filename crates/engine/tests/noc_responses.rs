//! Integration tests for the NoC *response* delivery path — the
//! `noc_responses` heap in the engine that holds memory completions whose
//! crossbar ejection finishes after the current cycle.
//!
//! Every response crosses its core's ejection link, and only takes the
//! heap detour when that link pushes its arrival past `now`. Requests do
//! not all cross the injection link: page-table walk reads and the
//! transactions a finished walk releases do, but TLB-hit data
//! transactions (and every transaction when translation is off) enter the
//! DRAM queue directly, so the request links carry only part of the
//! traffic. These tests pin the response path three ways: a byte-exact
//! golden fixture of a contended crossbar run, directional laws (a
//! response link can only add time, a pure hop delay shifts completions
//! without queueing), and full-report determinism.
//!
//! Regenerate the fixture intentionally with:
//!
//! ```text
//! MNPU_BLESS=1 cargo test -p mnpu-engine --test noc_responses
//! ```

use mnpu_engine::{SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, Scale};
use mnpu_noc::NocConfig;

/// The contended configuration: the quad golden chip plus a narrow
/// crossbar, so 64 B DRAM bursts queue on every 16 B/cycle ejection link
/// and the response heap is hot for the whole run.
fn contended_config() -> SystemConfig {
    let mut cfg = SystemConfig::bench(4, SharingLevel::PlusDwt).with_noc(NocConfig::narrow());
    cfg.trace_window = Some(4096);
    cfg
}

fn quad_report(cfg: &SystemConfig) -> mnpu_engine::RunReport {
    let nets = [
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
        zoo::yolo_tiny(Scale::Bench),
        zoo::dlrm(Scale::Bench),
    ];
    Simulation::execute_networks(cfg, &nets)
}

/// Compare `json` against the named fixture, or rewrite it when
/// `MNPU_BLESS=1` is set (same protocol as the golden suite).
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
    assert_eq!(json.len(), expected.len(), "{name}: serialized report size changed");
    assert_eq!(json, &expected, "{name}: golden report must be byte-identical");
}

#[test]
fn contended_crossbar_run_matches_golden_fixture() {
    check_fixture("quad_noc_narrow.json", &quad_report(&contended_config()).to_json());
}

#[test]
fn contended_crossbar_full_report_is_deterministic() {
    let cfg = contended_config();
    assert_eq!(quad_report(&cfg).to_json(), quad_report(&cfg).to_json());
}

#[test]
fn response_links_queue_under_contention_and_only_add_time() {
    let base = {
        let mut cfg = SystemConfig::bench(4, SharingLevel::PlusDwt);
        cfg.trace_window = Some(4096);
        quad_report(&cfg)
    };
    let contended = quad_report(&contended_config());
    for (core, (n, b)) in contended.cores.iter().zip(&base.cores).enumerate() {
        assert!(n.noc_queue_cycles > 0, "core {core}: narrow links must queue");
        assert!(
            n.cycles >= b.cycles,
            "core {core}: interconnect delay sped the core up ({} < {})",
            n.cycles,
            b.cycles
        );
        assert_eq!(n.traffic_bytes, b.traffic_bytes, "core {core}: same work either way");
    }
}

/// A crossbar with ample bandwidth isolates the *hop* component: every
/// response arrives `hop_latency` after its (1-cycle) ejection, so each
/// one detours through the response heap, and growing the hop alone must
/// grow end-to-end time — the pure response-path delay, no bandwidth
/// change involved.
#[test]
fn pure_hop_latency_delay_is_visible_end_to_end() {
    let net = [zoo::ncf(Scale::Bench)];
    let ideal = Simulation::execute_networks(&SystemConfig::bench(1, SharingLevel::Ideal), &net);

    let run = |hop_latency: u64| {
        let noc = NocConfig { bytes_per_cycle: 4096, hop_latency };
        let cfg = SystemConfig::bench(1, SharingLevel::Ideal).with_noc(noc);
        Simulation::execute_networks(&cfg, &net)
    };
    let short = run(1);
    let long = run(256);

    assert!(
        long.cores[0].cycles > short.cores[0].cycles,
        "a 256x hop must cost more than a 1-cycle hop ({} <= {})",
        long.cores[0].cycles,
        short.cores[0].cycles
    );
    assert!(long.cores[0].cycles > ideal.cores[0].cycles, "hops only add time over no NoC");
    assert_eq!(long.cores[0].traffic_bytes, ideal.cores[0].traffic_bytes, "same work");
}

/// The narrow crossbar is dominated by the wide one (less bandwidth, more
/// hop latency), so it can never beat the wide one on any core.
#[test]
fn narrower_links_are_monotonically_slower() {
    let wide = quad_report(&{
        let mut cfg = SystemConfig::bench(4, SharingLevel::PlusDwt).with_noc(NocConfig::wide());
        cfg.trace_window = Some(4096);
        cfg
    });
    let narrow = quad_report(&contended_config());
    for (core, (n, w)) in narrow.cores.iter().zip(&wide.cores).enumerate() {
        assert!(
            n.cycles >= w.cycles,
            "core {core}: narrow crossbar beat the wide one ({} < {})",
            n.cycles,
            w.cycles
        );
    }
}
