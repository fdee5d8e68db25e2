//! Serve-mode checkpoint/restore fencing: a session snapshotted at an
//! arbitrary decision boundary and resumed — in-process or through the
//! binary wire format — must finish byte-identical to the uninterrupted
//! run, and a checkpoint must refuse to load against the wrong scenario.

use mnpu_config::parse_scenario;
use mnpu_engine::{ProbeMode, SnapError, StatsProbe};
use mnpu_sched::{serve, ServeSession, ServeSnapshot};

/// Run `text`, snapshotting after `k` decision rounds, resuming through a
/// `to_bytes`/`from_bytes` round trip, and comparing against [`serve`].
fn assert_resume_exact(text: &str, k: usize) {
    let spec = parse_scenario("t", text).unwrap();
    let native = serve(&spec).to_json();

    let mut session = ServeSession::new(&spec);
    for _ in 0..k {
        if !session.step() {
            break;
        }
    }
    let wire = session.snapshot().to_bytes();
    drop(session);

    let snap = ServeSnapshot::from_bytes(&wire).expect("wire round-trip");
    let mut resumed = ServeSession::restore(&spec, snap).expect("restore against own scenario");
    resumed.run();
    assert_eq!(resumed.into_report().to_json(), native, "resume after step {k} diverged");
}

#[test]
fn resume_is_byte_exact_at_every_phase() {
    // Queueing, mid-service, and post-drain boundaries on a contended
    // single core; k far past the end exercises snapshot-at-done.
    let text = "cores = 1\njob = ncf\njob = ncf\njob = ncf\n";
    for k in [0, 1, 2, 3, 50] {
        assert_resume_exact(text, k);
    }
}

#[test]
fn resume_preserves_the_round_robin_cursor() {
    // Bursty arrivals under round-robin: the policy cursor is live state;
    // losing it would re-dispatch onto the wrong cores after restore.
    let text = "cores = 2\nseed = 5\npattern = bursty:2:3000\npolicy = round_robin\n\
                job = ncf\njob = dlrm\njob = ncf\njob = dlrm\n";
    for k in [1, 3, 5] {
        assert_resume_exact(text, k);
    }
}

#[test]
fn resume_rebuilds_the_predictor_policy() {
    // Two jobs queue behind two running ones, so the restored policy
    // must pick among co-runners exactly as the uninterrupted one did.
    let text = "cores = 2\nseed = 1\npattern = bursty:4:20000\npolicy = predictor\n\
                job = ncf\njob = dlrm\njob = res\njob = ncf\njob = dlrm\njob = gpt2\n";
    for k in [1, 4] {
        assert_resume_exact(text, k);
    }
}

#[test]
fn resume_with_stats_probe_carries_job_spans() {
    let mut spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\n").unwrap();
    spec.system.probe = ProbeMode::Stats;
    let native = {
        let mut s = ServeSession::with_probe(&spec, StatsProbe::default());
        s.run();
        s.into_report()
    };

    let mut session = ServeSession::with_probe(&spec, StatsProbe::default());
    session.step();
    session.step();
    let snap = session.snapshot();
    let mut resumed = ServeSession::restore_with_probe(&spec, StatsProbe::default(), snap).unwrap();
    resumed.run();
    let report = resumed.into_report();
    assert_eq!(report.to_json(), native.to_json());
    let stats = report.run.stats.as_ref().expect("stats probe requested");
    assert_eq!(stats.jobs.len(), 2, "both job spans survive the checkpoint");
}

#[test]
fn wrong_scenario_is_rejected() {
    let spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\n").unwrap();
    let mut session = ServeSession::new(&spec);
    session.step();
    let snap = session.snapshot();

    let other = parse_scenario("t", "cores = 1\njob = ncf\njob = dlrm\n").unwrap();
    assert!(matches!(ServeSession::restore(&other, snap), Err(SnapError::ConfigMismatch { .. })));
}

#[test]
fn foreign_version_is_rejected_on_the_wire() {
    let spec = parse_scenario("t", "cores = 1\njob = ncf\n").unwrap();
    let session = ServeSession::new(&spec);
    let mut wire = session.snapshot().to_bytes();
    // Byte 0 is the section tag; bytes 1..5 are the little-endian format
    // version. Bump it and the decoder must refuse.
    wire[1] ^= 0xFF;
    assert!(matches!(ServeSnapshot::from_bytes(&wire), Err(SnapError::VersionMismatch { .. })));
}
