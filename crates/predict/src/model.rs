//! The slowdown regression model.

use crate::linreg::LinearModel;
use crate::profile::WorkloadProfile;
use mnpu_engine::{FanOut, Simulation, SystemConfig};
use mnpu_model::randnet::{generate_batch, RandNetConfig};

/// One training observation: workload `a` co-ran with workload `b` and
/// experienced `slowdown_a` (actual cycles / solo cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// Profile of the workload whose slowdown is being predicted.
    pub a: WorkloadProfile,
    /// Profile of its co-runner.
    pub b: WorkloadProfile,
    /// Measured slowdown of `a` (≥ 1.0 in the absence of noise).
    pub slowdown_a: f64,
}

/// Predicts the slowdown a workload will suffer from a given co-runner on a
/// dual-core chip, from solo profiles only.
///
/// Features follow the paper's §4.6.1: PE utilization of both workloads
/// (low utilization ⇒ memory intensity ⇒ contention), memory traffic per
/// cycle of both, and the execution-time ratio as a correction factor.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownModel {
    inner: LinearModel,
}

impl SlowdownModel {
    /// The feature vector for "how much does `a` suffer next to `b`".
    pub fn features(a: &WorkloadProfile, b: &WorkloadProfile) -> Vec<f64> {
        let ratio = a.solo_cycles as f64 / b.solo_cycles.max(1) as f64;
        vec![
            1.0,
            a.pe_utilization,
            b.pe_utilization,
            a.bytes_per_cycle(),
            b.bytes_per_cycle(),
            // Saturating transform of the time ratio: co-runners that finish
            // much earlier stop interfering.
            ratio.min(4.0),
            a.bytes_per_cycle() * b.bytes_per_cycle(),
        ]
    }

    /// Fit the regression on observed co-run slowdowns.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[TrainingSample]) -> Self {
        assert!(!samples.is_empty(), "no training samples");
        let xs: Vec<Vec<f64>> = samples.iter().map(|s| Self::features(&s.a, &s.b)).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.slowdown_a).collect();
        SlowdownModel { inner: LinearModel::fit(&xs, &ys, 1e-6) }
    }

    /// Predict the slowdown of `a` when co-running with `b` (clamped to
    /// ≥ 1.0: co-running never speeds a workload up).
    pub fn predict_slowdown(&self, a: &WorkloadProfile, b: &WorkloadProfile) -> f64 {
        self.inner.predict(&Self::features(a, b)).max(1.0)
    }

    /// Predicted speedup (vs Ideal) of `a` next to `b`.
    pub fn predict_speedup(&self, a: &WorkloadProfile, b: &WorkloadProfile) -> f64 {
        1.0 / self.predict_slowdown(a, b)
    }

    /// The underlying linear model.
    pub fn linear(&self) -> &LinearModel {
        &self.inner
    }

    /// Train on randomly generated networks, as the paper does to avoid
    /// overfitting the eight evaluation benchmarks: generate `n_networks`
    /// random nets, profile each solo, co-run `n_pairs` deterministic
    /// pairings on the dual-core `chip`, and fit on both sides of each pair.
    ///
    /// The solo profiles and the distinct co-runs are independent
    /// simulations, so they run as one `fan` fan-out (each distinct co-run
    /// once: pairing `p` and `p + n_networks` repeat). Results are
    /// assembled by index, so the fit is bit-identical for any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `n_networks < 2` or `n_pairs == 0`.
    pub fn train_on_random_networks(
        chip: &SystemConfig,
        n_networks: usize,
        n_pairs: usize,
        seed: u64,
        fan: FanOut,
    ) -> Self {
        assert!(n_networks >= 2, "need at least two networks");
        assert!(n_pairs > 0, "need at least one pair");
        let nets = generate_batch(&RandNetConfig::small(), seed, n_networks);
        // Deterministic low-discrepancy pairing over the network set.
        let pairs: Vec<(usize, usize)> = (0..n_pairs)
            .map(|p| {
                let i = p % n_networks;
                let j = (p * 7 + 3) % n_networks;
                if i == j {
                    (i, (j + 1) % n_networks)
                } else {
                    (i, j)
                }
            })
            .collect();
        let mut coruns = pairs.clone();
        coruns.sort_unstable();
        coruns.dedup();

        let solo = WorkloadProfile::solo_config(chip);
        let runs: Vec<(&SystemConfig, Vec<_>)> = nets
            .iter()
            .map(|n| (&solo, vec![n.clone()]))
            .chain(coruns.iter().map(|&(i, j)| (chip, vec![nets[i].clone(), nets[j].clone()])))
            .collect();
        let reports = fan.map(&runs, |(cfg, ws)| Simulation::execute_networks(cfg, ws));
        let (solos, coran) = reports.split_at(n_networks);
        let profiles: Vec<WorkloadProfile> = solos.iter().map(WorkloadProfile::of_solo).collect();

        let mut samples = Vec::with_capacity(2 * n_pairs);
        for &(i, j) in &pairs {
            let r = &coran[coruns.binary_search(&(i, j)).expect("every pairing ran")];
            let sa = r.cores[0].cycles as f64 / profiles[i].solo_cycles as f64;
            let sb = r.cores[1].cycles as f64 / profiles[j].solo_cycles as f64;
            samples.push(TrainingSample {
                a: profiles[i].clone(),
                b: profiles[j].clone(),
                slowdown_a: sa,
            });
            samples.push(TrainingSample {
                a: profiles[j].clone(),
                b: profiles[i].clone(),
                slowdown_a: sb,
            });
        }
        SlowdownModel::train(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(name: &str, util: f64, bpc: f64, cycles: u64) -> WorkloadProfile {
        WorkloadProfile {
            name: name.into(),
            pe_utilization: util,
            traffic_bytes: (bpc * cycles as f64) as u64,
            solo_cycles: cycles,
        }
    }

    #[test]
    fn training_fits_synthetic_interference_law() {
        // Synthetic ground truth: slowdown grows with the co-runner's
        // memory demand. The model must learn the direction.
        let mut samples = Vec::new();
        for i in 0..40 {
            let a = prof("a", 0.3, 1.0 + (i % 5) as f64, 10_000 + i * 13);
            let b = prof("b", 0.2, (i % 7) as f64, 12_000);
            let truth = 1.0 + 0.1 * b.bytes_per_cycle();
            samples.push(TrainingSample { a, b, slowdown_a: truth });
        }
        let m = SlowdownModel::train(&samples);
        let quiet = prof("q", 0.2, 0.5, 12_000);
        let noisy = prof("n", 0.2, 6.0, 12_000);
        let victim = prof("v", 0.3, 2.0, 10_000);
        assert!(m.predict_slowdown(&victim, &noisy) > m.predict_slowdown(&victim, &quiet));
    }

    #[test]
    fn prediction_clamped_to_at_least_one() {
        let samples = vec![TrainingSample {
            a: prof("a", 0.5, 1.0, 1000),
            b: prof("b", 0.5, 1.0, 1000),
            slowdown_a: 0.2, // nonsense label
        }];
        let m = SlowdownModel::train(&samples);
        assert!(m.predict_slowdown(&prof("x", 0.5, 1.0, 1000), &prof("y", 0.5, 1.0, 1000)) >= 1.0);
    }

    #[test]
    fn speedup_is_inverse_of_slowdown() {
        let samples: Vec<TrainingSample> = (0..10)
            .map(|i| TrainingSample {
                a: prof("a", 0.1 * i as f64, 1.0, 1000 + i * 100),
                b: prof("b", 0.5, 2.0, 2000),
                slowdown_a: 1.0 + 0.05 * i as f64,
            })
            .collect();
        let m = SlowdownModel::train(&samples);
        let (a, b) = (prof("p", 0.4, 1.5, 1500), prof("q", 0.2, 2.5, 1800));
        let s = m.predict_slowdown(&a, &b);
        assert!((m.predict_speedup(&a, &b) - 1.0 / s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn empty_training_rejected() {
        let _ = SlowdownModel::train(&[]);
    }
}
