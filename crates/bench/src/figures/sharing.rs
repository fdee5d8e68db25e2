//! Figures 4–8: the sharing-level study.

use super::{mix_sweep, prefetch, quantile_rows, Metric, Table};
use crate::harness::Harness;
use mnpu_engine::SharingLevel;
use mnpu_metrics::{mean, BoxStats, Cdf};
use mnpu_predict::mapping::multisets;

/// Labels of the four co-run sharing levels, in plot order.
pub const LEVEL_LABELS: [&str; 4] = ["Static", "+D", "+DW", "+DWT"];

fn dual_levels(h: &Harness, title: &str, metric: Metric) -> Table {
    let chips = SharingLevel::CO_RUN_LEVELS.map(Harness::dual);
    let rows = mix_sweep(h, &chips, metric);
    Table::new(title, "mix", &LEVEL_LABELS, rows).with_geomean()
}

/// Fig. 4: geomean speedup (vs Ideal) of every dual-core mix under each
/// sharing level. All 36 mixes are evaluated.
pub fn fig04_dual_performance(h: &Harness) -> Table {
    let title = "Fig. 4 — dual-core mix performance (speedup vs Ideal) per sharing level";
    dual_levels(h, title, Metric::Performance)
}

/// Fig. 6: fairness (Eq. 1) of every dual-core mix under each sharing level.
pub fn fig06_dual_fairness(h: &Harness) -> Table {
    dual_levels(h, "Fig. 6 — dual-core mix fairness (Eq. 1) per sharing level", Metric::Fairness)
}

/// The metric's CDF over the (sampled) quad-core mixes at each sharing
/// level: quantile rows and a mean row.
fn quad_levels(h: &Harness, title: &str, metric: Metric) -> Table {
    let all = multisets(h.names().len(), 4);
    let sample: Vec<Vec<usize>> = all.iter().step_by(Harness::quad_stride()).cloned().collect();
    let chips = SharingLevel::CO_RUN_LEVELS.map(Harness::quad);
    prefetch(h, &chips, &sample);
    let cdfs = chips.map(|chip| {
        Cdf::new(sample.iter().map(|ws| metric.of(&h.mix_speedups(&chip, ws))).collect())
    });
    let mut rows = quantile_rows(&[0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0], &cdfs);
    rows.push(("mean".into(), cdfs.iter().map(|c| mean(c.values())).collect()));
    let mut t = Table::new(title, "quantile", &LEVEL_LABELS, rows);
    t.notes.push(format!(
        "({} of {} quad-core mixes; MNPU_FULL=1 for all)",
        sample.len(),
        all.len()
    ));
    t
}

/// Fig. 5: CDF of per-mix geomean speedup for the quad-core sweep
/// (sampled by [`Harness::quad_stride`] unless `MNPU_FULL=1`).
pub fn fig05_quad_performance_cdf(h: &Harness) -> Table {
    quad_levels(h, "Fig. 5 — quad-core performance CDF per sharing level", Metric::Performance)
}

/// Fig. 7: CDF of per-mix fairness for the quad-core sweep.
pub fn fig07_quad_fairness_cdf(h: &Harness) -> Table {
    quad_levels(h, "Fig. 7 — quad-core fairness CDF per sharing level", Metric::Fairness)
}

/// Fig. 8: each workload's speedup distribution (five-number summary and
/// range) under `+DWT` across all eight possible dual-core co-runners.
pub fn fig08_sensitivity(h: &Harness) -> Table {
    let chip = Harness::dual(SharingLevel::PlusDwt);
    let n = h.names().len();
    prefetch(h, std::slice::from_ref(&chip), &multisets(n, 2));
    let rows = (0..n)
        .map(|w| {
            let speedups: Vec<f64> = (0..n)
                .map(|co| {
                    // The canonical (sorted) mix shares its cache entry
                    // with Fig. 4; read the position of `w` in it.
                    let (ws, pos) = if w <= co { ([w, co], 0) } else { ([co, w], 1) };
                    h.mix_speedups(&chip, &ws)[pos]
                })
                .collect();
            let b = BoxStats::from_sample(&speedups);
            (h.names()[w].to_string(), vec![b.min, b.q1, b.median, b.q3, b.max, b.range()])
        })
        .collect();
    let title = "Fig. 8 — per-workload +DWT speedup distribution over co-runners";
    Table::new(title, "wl", &["min", "q1", "median", "q3", "max", "range"], rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_labels_match_paper() {
        assert_eq!(LEVEL_LABELS, ["Static", "+D", "+DW", "+DWT"]);
    }
}
