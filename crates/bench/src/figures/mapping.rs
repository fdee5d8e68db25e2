//! Figures 17–18: the co-runner mapping study (§4.6).

use super::{prefetch, quantile_rows, Table};
use crate::harness::Harness;
use mnpu_engine::{FanOut, SharingLevel};
use mnpu_metrics::{fairness, Cdf};
use mnpu_model::Scale;
use mnpu_predict::mapping::{multisets, study_multiset};
use mnpu_predict::PredictorMemo;

/// Everything needed to evaluate one multiset mapping: the measured and
/// predicted pairwise slowdown tables over the eight benchmarks.
#[derive(Debug)]
struct PairTables {
    n: usize,
    /// `actual[i][j]` = measured slowdown of *i* when paired with *j*.
    actual: Vec<Vec<f64>>,
    /// `predicted[i][j]` = model-predicted slowdown of *i* next to *j*.
    predicted: Vec<Vec<f64>>,
}

impl PairTables {
    /// Simulate all 36 unordered benchmark pairs under dual-core `+DWT`
    /// (reusing the Fig. 4 cache), profile the benchmarks, and train the
    /// slowdown model on random networks. Profiles and model come from
    /// [`PredictorMemo::global`], so Figs. 17 and 18 in one process train
    /// once.
    fn build(h: &Harness) -> Self {
        let chip = Harness::dual(SharingLevel::PlusDwt);
        let n = h.names().len();
        prefetch(h, std::slice::from_ref(&chip), &multisets(n, 2));

        let mut actual = vec![vec![0.0; n]; n];
        // Each pair fills the (i, j) and (j, i) cells at once, so the
        // indices cannot be replaced by iterators.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in i..n {
                let speedups = h.mix_speedups(&chip, &[i, j]);
                actual[i][j] = 1.0 / speedups[0];
                actual[j][i] = 1.0 / speedups[1];
            }
        }

        let (memo, fan) = (PredictorMemo::global(), FanOut::new());
        let profiles = memo.profiles(&chip, Scale::Bench, &h.names(), fan);
        let model = memo.model(&chip, 10, 20, 2023, fan);
        let mut predicted = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                predicted[i][j] = model.predict_slowdown(&profiles[i], &profiles[j]);
            }
        }
        PairTables { n, actual, predicted }
    }

    /// Measured `(slowdown_i, slowdown_j)` of pairing benchmarks `i`, `j`.
    fn actual(&self, i: usize, j: usize) -> (f64, f64) {
        (self.actual[i][j], self.actual[j][i])
    }

    /// Predicted `(slowdown_i, slowdown_j)`.
    fn predicted(&self, i: usize, j: usize) -> (f64, f64) {
        (self.predicted[i][j], self.predicted[j][i])
    }
}

/// Result of the mapping study over the eight-workload multisets.
#[derive(Debug)]
struct MappingStudy {
    /// CDF of the predictor's score normalized to random assignment.
    prediction: Cdf,
    /// CDF of the oracle's score normalized to random assignment.
    oracle: Cdf,
    /// CDF of the worst assignment's score normalized to random.
    worst: Cdf,
    /// Fraction of multisets where the predictor beat random assignment.
    frac_better_than_random: f64,
    /// Multisets evaluated (6435 with `MNPU_FULL=1`).
    sampled: usize,
    /// Total multisets in the full study.
    total: usize,
}

fn run_study(tables: &PairTables, score: &dyn Fn(&[f64]) -> f64) -> MappingStudy {
    let all = multisets(tables.n, 8);
    let total = all.len();
    let stride = if Harness::full_sweeps() { 1 } else { 10 };
    let sample: Vec<&Vec<usize>> = all.iter().step_by(stride).collect();

    let mut pred = Vec::with_capacity(sample.len());
    let mut oracle = Vec::with_capacity(sample.len());
    let mut worst = Vec::with_capacity(sample.len());
    let mut better = 0usize;
    for ws in &sample {
        let out =
            study_multiset(ws, &|i, j| tables.actual(i, j), &|i, j| tables.predicted(i, j), score);
        pred.push(out.chosen / out.expected);
        oracle.push(out.oracle / out.expected);
        worst.push(out.worst / out.expected);
        if out.chosen > out.expected {
            better += 1;
        }
    }
    MappingStudy {
        prediction: Cdf::new(pred),
        oracle: Cdf::new(oracle),
        worst: Cdf::new(worst),
        frac_better_than_random: better as f64 / sample.len() as f64,
        sampled: sample.len(),
        total,
    }
}

/// The mapped system's performance: geomean speedup.
fn performance(slowdowns: &[f64]) -> f64 {
    let log: f64 = slowdowns.iter().map(|s| (1.0 / s).ln()).sum();
    (log / slowdowns.len() as f64).exp()
}

/// The study's CDFs of the worst, predicted and oracle assignments, as
/// quantile rows at four decimals.
fn mapping_table(h: &Harness, title: &str, score: &dyn Fn(&[f64]) -> f64) -> Table {
    let s = run_study(&PairTables::build(h), score);
    let qs = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95];
    let rows = quantile_rows(&qs, &[s.worst, s.prediction, s.oracle]);
    let mut t = Table::new(title, "quantile", &["worst", "prediction", "oracle"], rows);
    t.precision = 4;
    t.notes = vec![
        format!("({} of {} eight-workload multisets; MNPU_FULL=1 for all)", s.sampled, s.total),
        format!(
            "prediction beats random in {:.1}% of multisets",
            s.frac_better_than_random * 100.0
        ),
    ];
    t
}

/// Fig. 17: CDF of mapped-system *performance* (geomean speedup) for the
/// prediction model vs the oracle, worst, and random assignments.
pub fn fig17_mapping_performance(h: &Harness) -> Table {
    let title = "Fig. 17 — mapping study, performance normalized to random assignment";
    mapping_table(h, title, &performance)
}

/// Fig. 18: CDF of mapped-system *fairness* for the same four schedulers.
pub fn fig18_mapping_fairness(h: &Harness) -> Table {
    let title = "Fig. 18 — mapping study, fairness normalized to random assignment";
    mapping_table(h, title, &fairness)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_tables() -> PairTables {
        let n = 8;
        let mut actual = vec![vec![0.0; n]; n];
        let mut predicted = vec![vec![0.0; n]; n];
        for (i, row) in actual.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = 1.0 + ((i * 13 + j * 7) % 10) as f64 / 10.0;
            }
        }
        for (i, row) in predicted.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                // A noisy but correlated predictor.
                *v = actual[i][j] + ((i + j) % 3) as f64 * 0.05;
            }
        }
        PairTables { n, actual, predicted }
    }

    #[test]
    fn oracle_dominates_prediction_dominates_worst() {
        let t = toy_tables();
        let s = run_study(&t, &performance);
        for q in [0.1, 0.5, 0.9] {
            assert!(s.oracle.quantile(q) >= s.prediction.quantile(q) - 1e-9);
            assert!(s.prediction.quantile(q) >= s.worst.quantile(q) - 1e-9);
        }
        assert!(s.sampled > 0 && s.total == 6435);
    }

    #[test]
    fn correlated_predictor_beats_random_often() {
        let t = toy_tables();
        let s = run_study(&t, &performance);
        assert!(s.frac_better_than_random > 0.4, "{}", s.frac_better_than_random);
    }

    #[test]
    fn fairness_study_produces_valid_cdfs() {
        let t = toy_tables();
        let s = run_study(&t, &fairness);
        assert_eq!(s.prediction.len(), s.oracle.len());
        assert!(s.oracle.quantile(0.5) >= 1.0 - 1e-9, "oracle at least random");
    }
}
