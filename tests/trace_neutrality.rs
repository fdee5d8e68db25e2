//! Determinism-neutrality suite for the mnpu-trace layer.
//!
//! The observability contract is that watching a run never changes it:
//! attaching a [`TraceHandle`](mnpusim::trace::TraceHandle) to the driver,
//! switching the engine probe to [`ProbeMode::Flight`], or doing both at
//! once must leave every simulation artifact — reports, checkpoints, the
//! bytes a resume produces — byte-identical to the unobserved run. Each
//! test here pins one face of that contract.

use mnpusim::engine::FlightProbe;
use mnpusim::prelude::*;
use mnpusim::sched::ServeSession;
use mnpusim::trace::TraceHandle;
use mnpusim::{zoo, ProbeMode, RunControl};

fn dual_config() -> SystemConfig {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.trace_window = Some(4096);
    cfg
}

fn dual_nets() -> Vec<Network> {
    vec![zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)]
}

fn runner(cfg: &SystemConfig) -> Runner {
    RunRequest::networks(cfg, dual_nets()).build().expect("valid request")
}

fn outcome_json(outcome: RunOutcome) -> String {
    outcome.batch().to_json()
}

#[test]
fn observed_run_is_byte_identical_and_publishes_progress() {
    let cfg = dual_config();
    let plain = outcome_json(runner(&cfg).run());
    let trace = TraceHandle::new();
    let observed = match runner(&cfg).run_with(None, Some(&trace), &mut || RunControl::Continue) {
        Ok(RunProgress::Done(o)) => outcome_json(o),
        other => panic!("unstoppable run must finish, got {other:?}"),
    };
    assert_eq!(plain, observed, "attaching telemetry changed the report bytes");
    // The observation side effects are real: cycles advanced and at least
    // one poll boundary was published into the progress cell.
    let snap = trace.progress().snapshot();
    assert!(snap.cycles > 0, "observed run published no cycles");
    assert!(snap.polls >= 1, "observed run published no polls");
    assert!(!trace.events().is_empty(), "observed run left no ring events");
}

#[test]
fn flight_probe_report_matches_probe_none() {
    let mut none_cfg = dual_config();
    none_cfg.probe = ProbeMode::None;
    let mut flight_cfg = dual_config();
    flight_cfg.probe = ProbeMode::Flight;
    let none = RunRequest::networks(&none_cfg, dual_nets()).run().batch().to_json();
    let trace = TraceHandle::new();
    let flight = {
        let _g = mnpusim::trace::install(&trace);
        RunRequest::networks(&flight_cfg, dual_nets()).run().batch().to_json()
    };
    assert_eq!(none, flight, "ProbeMode::Flight leaked telemetry into the report");
    // And the probe really ran: dense traffic reached the progress cell
    // and phase edges reached the ring.
    let snap = trace.progress().snapshot();
    assert!(snap.traffic.dram_txns > 0, "flight probe recorded no DRAM traffic");
    assert!(
        trace.events().iter().any(|e| e.kind.label().ends_with("_begin")),
        "flight probe recorded no phase edges"
    );
}

#[test]
fn traced_checkpoint_resumes_to_untraced_bytes() {
    let cfg = dual_config();
    let uninterrupted = outcome_json(runner(&cfg).run());
    // Stop the traced run at its first poll boundary.
    let trace = TraceHandle::new();
    let ckpt = match runner(&cfg).run_with(None, Some(&trace), &mut || RunControl::Checkpoint) {
        Ok(RunProgress::Checkpointed(c)) => c,
        other => panic!("a checkpoint-at-first-poll run must checkpoint, got {other:?}"),
    };
    // Resume without any telemetry; the answer must match.
    let resumed = match runner(&cfg).run_with(Some(ckpt), None, &mut || RunControl::Continue) {
        Ok(RunProgress::Done(o)) => outcome_json(o),
        other => panic!("resumed run must finish, got {other:?}"),
    };
    assert_eq!(uninterrupted, resumed, "a traced stop changed the resumed answer");
}

#[test]
fn checkpoint_bytes_ignore_telemetry() {
    let cfg = dual_config();
    let plain = match runner(&cfg).run_with(None, None, &mut || RunControl::Checkpoint) {
        Ok(RunProgress::Checkpointed(c)) => c.to_json(),
        other => panic!("expected a checkpoint, got {other:?}"),
    };
    let trace = TraceHandle::new();
    let traced = match runner(&cfg).run_with(None, Some(&trace), &mut || RunControl::Checkpoint) {
        Ok(RunProgress::Checkpointed(c)) => c.to_json(),
        other => panic!("expected a checkpoint, got {other:?}"),
    };
    assert_eq!(plain, traced, "telemetry leaked into checkpoint bytes");
}

#[test]
fn flight_probe_checkpoint_round_trips_like_none() {
    // A run under ProbeMode::Flight that checkpoints and resumes must land
    // on the ProbeMode::None answer: the probe saves/loads only its inner
    // (null) state, so the snapshot carries no telemetry.
    let mut cfg = dual_config();
    cfg.probe = ProbeMode::Flight;
    let mut none_cfg = dual_config();
    none_cfg.probe = ProbeMode::None;
    let expected = RunRequest::networks(&none_cfg, dual_nets()).run().batch().to_json();
    let trace = TraceHandle::new();
    let _g = mnpusim::trace::install(&trace);
    let ckpt = match runner(&cfg).run_with(None, Some(&trace), &mut || RunControl::Checkpoint) {
        Ok(RunProgress::Checkpointed(c)) => c,
        other => panic!("expected a checkpoint, got {other:?}"),
    };
    let resumed =
        match runner(&cfg).run_with(Some(ckpt), Some(&trace), &mut || RunControl::Continue) {
            Ok(RunProgress::Done(o)) => outcome_json(o),
            other => panic!("resumed run must finish, got {other:?}"),
        };
    assert_eq!(expected, resumed, "flight-probe checkpoint/resume diverged from probe-none");
}

#[test]
fn predictor_set_up_records_nothing_into_the_jobs_telemetry() {
    // A chip and a seed no other test uses, so the predictor's profiles
    // and model are simulated here, under the installed handle, rather
    // than read back from the per-process memo.
    let telemetry_after_set_up = |policy: &str| {
        let text = format!(
            "cores = 3\nsharing = +DW\nseed = 1619\npolicy = {policy}\njob = ncf\njob = dlrm\n"
        );
        let mut spec = mnpusim::config::parse_scenario("t", &text).unwrap();
        spec.system.probe = ProbeMode::Flight;
        spec.system.request_log = true;
        spec.system.trace_window = Some(4096);
        let trace = TraceHandle::new();
        let _g = mnpusim::trace::install(&trace);
        let session = ServeSession::with_probe(&spec, FlightProbe::default());
        assert_eq!(session.now(), 0, "set-up simulated no cycle of the session");
        (trace.events().len(), trace.progress().snapshot().traffic)
    };
    // Whatever building the idle chip records, the predictor's profiling
    // and training simulations add nothing to it.
    assert_eq!(telemetry_after_set_up("predictor"), telemetry_after_set_up("first_free"));
}
