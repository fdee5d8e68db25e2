//! End-to-end predictor quality: trained on random networks, the slowdown
//! model must rank real co-runner interference in the right order.

use mnpu_engine::{FanOut, SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, Scale};
use mnpu_predict::{SlowdownModel, WorkloadProfile};

#[test]
fn predictions_correlate_with_measured_slowdowns() {
    let chip = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let model = SlowdownModel::train_on_random_networks(&chip, 8, 16, 42, FanOut::new());

    // Measure a handful of real pairs and compare rankings.
    let names = ["res", "dlrm", "ncf", "gpt2"];
    let nets: Vec<_> = names.iter().map(|n| zoo::by_name(n, Scale::Bench).unwrap()).collect();
    let profiles: Vec<WorkloadProfile> =
        nets.iter().map(|n| WorkloadProfile::measure(&chip, n)).collect();

    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    for i in 0..nets.len() {
        for j in 0..nets.len() {
            let r = Simulation::execute_networks(&chip, &[nets[i].clone(), nets[j].clone()]);
            measured.push(r.cores[0].cycles as f64 / profiles[i].solo_cycles as f64);
            predicted.push(model.predict_slowdown(&profiles[i], &profiles[j]));
        }
    }

    // Spearman-style check: rank correlation must be clearly positive.
    let rank = |xs: &[f64]| {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let mut r = vec![0.0; xs.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (rp, rm) = (rank(&predicted), rank(&measured));
    let n = rp.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut dp = 0.0;
    let mut dm = 0.0;
    for (a, b) in rp.iter().zip(&rm) {
        num += (a - mean) * (b - mean);
        dp += (a - mean).powi(2);
        dm += (b - mean).powi(2);
    }
    let rho = num / (dp.sqrt() * dm.sqrt());
    assert!(rho > 0.3, "rank correlation too weak: {rho}");
}

#[test]
fn predictor_identifies_the_noisiest_coruner() {
    let chip = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let model = SlowdownModel::train_on_random_networks(&chip, 8, 16, 42, FanOut::new());
    let victim = WorkloadProfile::measure(&chip, &zoo::yolo_tiny(Scale::Bench));
    let quiet = WorkloadProfile::measure(&chip, &zoo::ncf(Scale::Bench));
    let noisy = WorkloadProfile::measure(&chip, &zoo::dlrm(Scale::Bench));
    assert!(
        model.predict_slowdown(&victim, &noisy) > model.predict_slowdown(&victim, &quiet),
        "dlrm must be predicted more disruptive than ncf"
    );
}
