//! The `RunRequest` facade must be a pure re-routing layer: every shape
//! emits reports byte-identical to the engine entry point it wraps
//! (golden-fixture equality on the emitted JSON), under every probe mode,
//! and invalid requests fail in `build()` with a telling error instead of
//! deep in the engine.

use mnpusim::prelude::*;
use mnpusim::{zoo, Scale};

fn dual_nets() -> Vec<Network> {
    vec![zoo::ncf(Scale::Bench), zoo::dlrm(Scale::Bench)]
}

fn scenario() -> ScenarioSpec {
    ScenarioSpec {
        system: SystemConfig::bench(2, SharingLevel::PlusDwt),
        scale: Scale::Bench,
        seed: 7,
        arrival: ArrivalSpec::FixedIncrement { increment: 50_000 },
        policy: PolicySpec::RoundRobin,
        jobs: ["ncf", "dlrm", "ncf"]
            .iter()
            .map(|n| JobSpec { network: n.to_string(), arrival: None, core: None })
            .collect(),
    }
}

// `Runner::run` is the chunked `run_with` drive; the engine's straight
// entry points are `Simulation::execute`, `Simulation::execute_networks`
// (which replaced the retired `run_traces`/`run_networks`) and
// `mnpu_sched::serve`. Every comparison runs under all three probe modes;
// under `ProbeMode::Stats` it covers `RunReport::stats` too — no other
// suite pins the chunked path's statistics.
const PROBES: [ProbeMode; 3] = [ProbeMode::None, ProbeMode::Stats, ProbeMode::Flight];

#[test]
fn traces_mode_matches_the_retired_run_traces() {
    for probe in PROBES {
        // With the request log and bandwidth trace on.
        let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
        cfg.probe = probe;
        cfg.request_log = true;
        cfg.trace_window = Some(4096);
        let traces: Vec<WorkloadTrace> =
            dual_nets().iter().zip(&cfg.arch).map(|(n, a)| WorkloadTrace::generate(n, a)).collect();
        let engine = Simulation::execute(&cfg, &traces);
        let facade = RunRequest::traces(&cfg, traces).run().batch();
        assert_eq!(facade.to_json(), engine.to_json(), "traces under {probe:?}");
        assert_eq!(facade, engine, "traces under {probe:?}");
        assert_eq!(facade.stats.is_some(), probe == ProbeMode::Stats);
    }
}

#[test]
fn networks_mode_matches_the_retired_run_networks() {
    for probe in PROBES {
        let mut cfg = SystemConfig::bench(2, SharingLevel::PlusD);
        cfg.probe = probe;
        let engine = Simulation::execute_networks(&cfg, &dual_nets());
        let facade = RunRequest::networks(&cfg, dual_nets()).run().batch();
        assert_eq!(facade.to_json(), engine.to_json(), "networks under {probe:?}");
        assert_eq!(facade, engine, "networks under {probe:?}");
    }
}

#[test]
fn serve_mode_matches_the_direct_serve_call() {
    for probe in PROBES {
        let mut spec = scenario();
        spec.system.probe = probe;
        let engine = mnpusim::sched::serve(&spec);
        let facade = RunRequest::serve(spec).run().serve();
        assert_eq!(facade.to_json(), engine.to_json(), "serve under {probe:?}");
        assert_eq!(facade, engine, "serve under {probe:?}");
    }
}

#[test]
fn outcome_report_reaches_every_shape() {
    let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
    let batch = RunRequest::networks(&cfg, vec![zoo::ncf(Scale::Bench)]).run();
    assert!(batch.report().total_cycles > 0);
    let serve = RunRequest::serve(scenario()).run();
    assert!(serve.report().total_cycles > 0);
}

#[test]
fn build_rejects_malformed_requests() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);

    // Workload count must match the core count.
    let wrong = RunRequest::networks(&cfg, vec![zoo::ncf(Scale::Bench)]).build();
    assert_eq!(wrong.unwrap_err(), RequestError::Shape { what: "networks", expected: 2, got: 1 });

    // An invalid system configuration surfaces the config validator's error.
    let mut broken = cfg.clone();
    broken.channels_per_core = 0;
    let err = RunRequest::networks(&broken, dual_nets()).build().unwrap_err();
    assert!(matches!(err, RequestError::Config(_)), "got {err:?}");
}
