//! The predictor policy's output, pinned: the report bytes of a small
//! predictor scenario and the bits of the slowdown model the serve rig
//! trains at seed 1. Everything the predictor decides flows from those
//! coefficients, so any change to how the policy profiles, pairs or fits
//! shows up here before it reaches a serve digest.
//!
//! Regenerate the fixtures intentionally with:
//!
//! ```text
//! MNPU_BLESS=1 cargo test -p mnpu-sched --test predictor
//! ```

use mnpu_config::parse_scenario;
use mnpu_engine::{FanOut, SharingLevel, SystemConfig};
use mnpu_predict::SlowdownModel;
use mnpu_sched::serve;

/// Two cores, bursts of four: two jobs wait while two run, so every
/// dispatch after the first burst is a predictor choice among co-runners.
const SCENARIO: &str = "cores = 2\nsharing = +DWT\nseed = 1\npattern = bursty:4:20000\n\
                        policy = predictor\njob = ncf\njob = dlrm\njob = res\njob = ncf\n\
                        job = dlrm\njob = gpt2\njob = res\njob = ncf\n";

/// Compare `text` against the named fixture, or rewrite it when
/// `MNPU_BLESS=1` is set (the engine golden suite's protocol).
fn check_fixture(name: &str, text: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let path = format!("{dir}/{name}");
    if std::env::var("MNPU_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed fixture {name}: {} bytes", text.len());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("fixture {name} missing — generate with MNPU_BLESS=1 (see module docs)")
    });
    assert_eq!(text, expected, "{name}: pinned bytes changed");
}

/// The model's weights, one `f64::to_bits` per line in hex.
fn weight_bits(model: &SlowdownModel) -> String {
    model.linear().weights().iter().map(|w| format!("{:#018x}\n", w.to_bits())).collect()
}

#[test]
fn predictor_scenario_report_matches_golden_fixture() {
    let spec = parse_scenario("predictor", SCENARIO).unwrap();
    check_fixture("predictor_dual.json", &serve(&spec).to_json());
}

#[test]
fn serve_rig_coefficients_at_seed_1_are_pinned() {
    // The rig `Policy::new` trains on: the scenario chip's dual-core
    // derivative, 6 random networks, 8 pairs.
    let rig = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let model = SlowdownModel::train_on_random_networks(&rig, 6, 8, 1, FanOut::with_jobs(1));
    check_fixture("serve_rig_seed1_weights.txt", &weight_bits(&model));
}

#[test]
fn trained_coefficients_are_bit_identical_at_any_worker_count() {
    let rig = SystemConfig::bench(2, SharingLevel::PlusDwt);
    for jobs in [2, 4] {
        let model = SlowdownModel::train_on_random_networks(&rig, 6, 8, 1, FanOut::with_jobs(jobs));
        check_fixture("serve_rig_seed1_weights.txt", &weight_bits(&model));
    }
}
