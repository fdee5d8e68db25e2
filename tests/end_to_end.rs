//! Cross-crate integration tests: model → trace → multi-core simulation →
//! metrics, exercised through the `mnpusim` facade.

use mnpusim::{
    fairness, geomean, zoo, Scale, SharingLevel, Simulation, Speedup, SystemConfig, WorkloadTrace,
};

#[test]
fn facade_reexports_compose() {
    // The facade's types interoperate: build a trace with the systolic
    // re-export, run it with the engine re-export, summarize with metrics.
    let net = zoo::ncf(Scale::Bench);
    let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
    let trace = WorkloadTrace::generate(&net, &cfg.arch[0]);
    let report = Simulation::new(&cfg, &[trace]).run();
    let s = Speedup::new(report.cores[0].cycles, report.cores[0].cycles);
    assert_eq!(s.value(), 1.0);
}

#[test]
fn every_benchmark_simulates_end_to_end() {
    for net in zoo::all(Scale::Bench) {
        if matches!(net.name(), "ncf" | "gpt2" | "yt") {
            // Keep the debug-profile suite fast; the heavier five run in the
            // release-mode engine tests and the bench harness.
            let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
            let r = Simulation::execute_networks(&cfg, std::slice::from_ref(&net));
            assert!(r.cores[0].cycles > 0, "{}", net.name());
            assert!(r.cores[0].traffic_bytes > 0, "{}", net.name());
        }
    }
}

#[test]
fn headline_result_sharing_beats_static() {
    // The paper's central claim, end to end: across a sample of mixes,
    // fully dynamic sharing (+DWT) yields higher geomean speedup than
    // static partitioning, while Ideal bounds both from above.
    let pairs = [("ncf", "gpt2"), ("yt", "ncf")];
    let mut static_scores = Vec::new();
    let mut shared_scores = Vec::new();
    for (a, b) in pairs {
        let na = zoo::by_name(a, Scale::Bench).unwrap();
        let nb = zoo::by_name(b, Scale::Bench).unwrap();
        let ideal_cfg = SystemConfig::bench(2, SharingLevel::PlusDwt).ideal_solo();
        let ia =
            Simulation::execute_networks(&ideal_cfg, std::slice::from_ref(&na)).cores[0].cycles;
        let ib =
            Simulation::execute_networks(&ideal_cfg, std::slice::from_ref(&nb)).cores[0].cycles;
        for (level, scores) in [
            (SharingLevel::Static, &mut static_scores),
            (SharingLevel::PlusDwt, &mut shared_scores),
        ] {
            let cfg = SystemConfig::bench(2, level);
            let r = Simulation::execute_networks(&cfg, &[na.clone(), nb.clone()]);
            let sa = Speedup::new(ia, r.cores[0].cycles).value();
            let sb = Speedup::new(ib, r.cores[1].cycles).value();
            assert!(sa <= 1.02 && sb <= 1.02, "Ideal bounds sharing: {sa} {sb}");
            scores.push(geomean(&[sa, sb]));
        }
    }
    assert!(
        geomean(&shared_scores) > geomean(&static_scores),
        "+DWT {:?} must beat Static {:?}",
        shared_scores,
        static_scores
    );
}

#[test]
fn fairness_of_static_is_near_perfect_for_twin_mix() {
    // Two copies of the same workload under Static see identical resources,
    // so their slowdowns match and fairness approaches 1 (paper Fig. 6).
    let net = zoo::ncf(Scale::Bench);
    let ideal_cfg = SystemConfig::bench(2, SharingLevel::Static).ideal_solo();
    let ideal =
        Simulation::execute_networks(&ideal_cfg, std::slice::from_ref(&net)).cores[0].cycles;
    let r = Simulation::execute_networks(
        &SystemConfig::bench(2, SharingLevel::Static),
        &[net.clone(), net],
    );
    let slowdowns: Vec<f64> = r.cores.iter().map(|c| c.cycles as f64 / ideal as f64).collect();
    assert!(fairness(&slowdowns) > 0.98, "{slowdowns:?}");
}

#[test]
fn trace_and_simulation_agree_on_traffic() {
    let net = zoo::gpt2(Scale::Bench);
    let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
    let trace = WorkloadTrace::generate(&net, &cfg.arch[0]);
    let r = Simulation::new(&cfg, std::slice::from_ref(&trace)).run();
    // The engine moves every trace byte, rounded up to 64B transactions.
    assert!(r.cores[0].traffic_bytes >= trace.total_traffic_bytes());
    assert!(r.cores[0].traffic_bytes <= trace.total_traffic_bytes() * 11 / 10);
}

#[test]
fn quad_core_end_to_end_with_metrics() {
    let nets = [
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
    ];
    let chip = SystemConfig::bench(4, SharingLevel::PlusDw);
    let ideal_cfg = chip.ideal_solo();
    let ideals: Vec<u64> = nets
        .iter()
        .map(|n| Simulation::execute_networks(&ideal_cfg, std::slice::from_ref(n)).cores[0].cycles)
        .collect();
    let r = Simulation::execute_networks(&chip, &nets);
    let slowdowns: Vec<f64> =
        r.cores.iter().zip(&ideals).map(|(c, &i)| c.cycles as f64 / i as f64).collect();
    let f = fairness(&slowdowns);
    assert!(f > 0.0 && f <= 1.0, "{f}");
    // Symmetric mix: the two ncf copies behave alike, as do the gpt2 copies.
    assert!((slowdowns[0] / slowdowns[2] - 1.0).abs() < 0.1, "{slowdowns:?}");
    assert!((slowdowns[1] / slowdowns[3] - 1.0).abs() < 0.1, "{slowdowns:?}");
}

#[test]
fn prediction_pipeline_runs_end_to_end() {
    use mnpusim::{SlowdownModel, WorkloadProfile};
    let chip = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let model =
        SlowdownModel::train_on_random_networks(&chip, 4, 4, 99, mnpusim::engine::FanOut::new());
    let a = WorkloadProfile::measure(&chip, &zoo::ncf(Scale::Bench));
    let b = WorkloadProfile::measure(&chip, &zoo::gpt2(Scale::Bench));
    let s = model.predict_slowdown(&a, &b);
    assert!((1.0..10.0).contains(&s), "plausible slowdown: {s}");
}
