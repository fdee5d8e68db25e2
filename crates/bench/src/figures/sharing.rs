//! Figures 4–8: the sharing-level study.

use crate::executor::SweepExecutor;
use crate::harness::Harness;
use crate::sweeps::{self, SweepRequest};
use mnpu_engine::SharingLevel;
use mnpu_metrics::{fairness, geomean, BoxStats, Cdf};
use mnpu_predict::mapping::multisets;

/// Run every simulation the dual-core sweep needs ([`sweeps::fig04`]: all
/// 36 mixes × 4 co-run levels, plus the 8 Ideal solos) on the parallel
/// executor, so the serial aggregation loops below only hit the cache.
fn prefetch_dual(h: &Harness) {
    SweepExecutor::new().run_mixes(h, &sweeps::fig04());
}

/// Same for the (sampled) quad-core sweep.
fn prefetch_quad(h: &Harness) {
    let n = h.names().len();
    let solo = Harness::quad(SharingLevel::Static).ideal_solo();
    let mut reqs: Vec<SweepRequest> = (0..n).map(|w| (solo.clone(), vec![w])).collect();
    for ws in multisets(n, 4).iter().step_by(Harness::quad_stride()) {
        for lvl in SharingLevel::CO_RUN_LEVELS {
            reqs.push((Harness::quad(lvl), ws.clone()));
        }
    }
    SweepExecutor::new().run_mixes(h, &reqs);
}

/// Result of a dual-core sweep: one row per mix, one column per co-run
/// sharing level (`Static`, `+D`, `+DW`, `+DWT`), plus the overall geomean.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSweep {
    /// `(mix label, metric per sharing level)`.
    pub mixes: Vec<(String, [f64; 4])>,
    /// Geometric mean of each column.
    pub overall: [f64; 4],
}

impl DualSweep {
    fn from_rows(mixes: Vec<(String, [f64; 4])>) -> Self {
        let overall =
            std::array::from_fn(|i| geomean(&mixes.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()));
        DualSweep { mixes, overall }
    }
}

/// Labels of the four co-run sharing levels, in plot order.
pub const LEVEL_LABELS: [&str; 4] = ["Static", "+D", "+DW", "+DWT"];

fn mix_label(h: &Harness, ws: &[usize]) -> String {
    ws.iter().map(|&w| h.names()[w]).collect::<Vec<_>>().join("+")
}

/// Fig. 4: geomean speedup (vs Ideal) of every dual-core mix under each
/// sharing level. All 36 mixes are evaluated.
pub fn fig04_dual_performance(h: &mut Harness) -> DualSweep {
    prefetch_dual(h);
    let mut rows = Vec::new();
    for ws in multisets(8, 2) {
        let label = mix_label(h, &ws);
        let vals = std::array::from_fn(|i| {
            let cfg = Harness::dual(SharingLevel::CO_RUN_LEVELS[i]);
            geomean(&h.mix_speedups(&cfg, &ws))
        });
        rows.push((label, vals));
    }
    DualSweep::from_rows(rows)
}

/// Fig. 6: fairness (Eq. 1) of every dual-core mix under each sharing level.
pub fn fig06_dual_fairness(h: &mut Harness) -> DualSweep {
    prefetch_dual(h);
    let mut rows = Vec::new();
    for ws in multisets(8, 2) {
        let label = mix_label(h, &ws);
        let vals = std::array::from_fn(|i| {
            let cfg = Harness::dual(SharingLevel::CO_RUN_LEVELS[i]);
            let slowdowns: Vec<f64> = h.mix_speedups(&cfg, &ws).iter().map(|s| 1.0 / s).collect();
            fairness(&slowdowns)
        });
        rows.push((label, vals));
    }
    DualSweep::from_rows(rows)
}

/// Result of a quad-core sweep: the metric's CDF per sharing level.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadSweep {
    /// One CDF per level, `LEVEL_LABELS` order.
    pub cdfs: [Cdf; 4],
    /// Mixes actually simulated.
    pub sampled: usize,
    /// Mixes in the full sweep (330).
    pub total: usize,
}

fn quad_sweep(h: &mut Harness, metric: impl Fn(&[f64]) -> f64) -> QuadSweep {
    prefetch_quad(h);
    let all = multisets(8, 4);
    let total = all.len();
    let stride = Harness::quad_stride();
    let sample: Vec<&Vec<usize>> = all.iter().step_by(stride).collect();
    let mut per_level: [Vec<f64>; 4] = Default::default();
    for ws in &sample {
        for (i, lvl) in SharingLevel::CO_RUN_LEVELS.iter().enumerate() {
            let cfg = Harness::quad(*lvl);
            let speedups = h.mix_speedups(&cfg, ws);
            per_level[i].push(metric(&speedups));
        }
    }
    QuadSweep { cdfs: per_level.map(Cdf::new), sampled: sample.len(), total }
}

/// Fig. 5: CDF of per-mix geomean speedup for the quad-core sweep
/// (sampled by [`Harness::quad_stride`] unless `MNPU_FULL=1`).
pub fn fig05_quad_performance_cdf(h: &mut Harness) -> QuadSweep {
    quad_sweep(h, geomean)
}

/// Fig. 7: CDF of per-mix fairness for the quad-core sweep.
pub fn fig07_quad_fairness_cdf(h: &mut Harness) -> QuadSweep {
    quad_sweep(h, |speedups| {
        let slowdowns: Vec<f64> = speedups.iter().map(|s| 1.0 / s).collect();
        fairness(&slowdowns)
    })
}

/// Fig. 8: each workload's speedup distribution under `+DWT` across all
/// eight possible dual-core co-runners.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// `(workload, five-number summary of its speedups)`.
    pub per_workload: Vec<(String, BoxStats)>,
}

/// Compute Fig. 8.
pub fn fig08_sensitivity(h: &mut Harness) -> Sensitivity {
    let cfg = Harness::dual(SharingLevel::PlusDwt);
    let n = h.names().len();
    let mut per_workload = Vec::new();
    for w in 0..n {
        let mut speedups = Vec::new();
        for co in 0..n {
            // Keep the canonical (sorted) mix so cache entries are shared
            // with Fig. 4; read the position of `w` in it.
            let ws = if w <= co { vec![w, co] } else { vec![co, w] };
            let pos = if w <= co { 0 } else { 1 };
            speedups.push(h.mix_speedups(&cfg, &ws)[pos]);
        }
        per_workload.push((h.names()[w].to_string(), BoxStats::from_sample(&speedups)));
    }
    Sensitivity { per_workload }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_labels_match_paper() {
        assert_eq!(LEVEL_LABELS, ["Static", "+D", "+DW", "+DWT"]);
    }

    #[test]
    fn dual_sweep_overall_is_columnwise_geomean() {
        let s = DualSweep::from_rows(vec![
            ("a".into(), [1.0, 2.0, 3.0, 4.0]),
            ("b".into(), [4.0, 2.0, 3.0, 1.0]),
        ]);
        assert!((s.overall[0] - 2.0).abs() < 1e-12);
        assert!((s.overall[1] - 2.0).abs() < 1e-12);
        assert!((s.overall[3] - 2.0).abs() < 1e-12);
    }
}
