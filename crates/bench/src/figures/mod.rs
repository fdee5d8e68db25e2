//! One function per paper figure, each returning the figure's one
//! [`Table`]. Its `figNN_*` bench target prints that table, and
//! `mnpu_report` writes every figure's table by iterating [`FIGURES`].
//!
//! | Figure | Function |
//! |--------|----------|
//! | Fig. 2b | [`bandwidth::fig02_burstiness`] |
//! | Fig. 4 | [`sharing::fig04_dual_performance`] |
//! | Fig. 5 | [`sharing::fig05_quad_performance_cdf`] |
//! | Fig. 6 | [`sharing::fig06_dual_fairness`] |
//! | Fig. 7 | [`sharing::fig07_quad_fairness_cdf`] |
//! | Fig. 8 | [`sharing::fig08_sensitivity`] |
//! | Fig. 9 | [`bandwidth::fig09_bw_partition_performance`] |
//! | Fig. 10 | [`bandwidth::fig10_bw_partition_fairness`] |
//! | Fig. 11 | [`bandwidth::fig11_bandwidth_sweep`] |
//! | Fig. 12 | [`bandwidth::fig12_bw_timeline`] |
//! | Fig. 13 | [`translation::fig13_ptw_partition_performance`] |
//! | Fig. 14 | [`translation::fig14_ptw_partition_fairness`] |
//! | Fig. 15 | [`translation::fig15_page_size_single`] |
//! | Fig. 16 | [`translation::fig16_page_size_multi`] |
//! | Fig. 17 | [`mapping::fig17_mapping_performance`] |
//! | Fig. 18 | [`mapping::fig18_mapping_fairness`] |

pub mod bandwidth;
pub mod mapping;
pub mod sharing;
pub mod translation;

use crate::harness::Harness;
use crate::sweeps::{self, SweepRequest};
use mnpu_engine::{FanOut, SystemConfig};
use mnpu_metrics::{fairness, geomean, Cdf};
use mnpu_predict::mapping::multisets;
use std::fmt;

/// A figure function: runs its sweep on the harness and returns its table.
pub type Figure = fn(&Harness) -> Table;

/// Every figure, keyed by the name of the `figNN_*` bench target that
/// prints it, in paper order.
pub const FIGURES: [(&str, Figure); 16] = [
    ("fig02_burstiness", bandwidth::fig02_burstiness),
    ("fig04_dual_perf", sharing::fig04_dual_performance),
    ("fig05_quad_perf_cdf", sharing::fig05_quad_performance_cdf),
    ("fig06_dual_fairness", sharing::fig06_dual_fairness),
    ("fig07_quad_fairness_cdf", sharing::fig07_quad_fairness_cdf),
    ("fig08_sensitivity", sharing::fig08_sensitivity),
    ("fig09_bw_partition_perf", bandwidth::fig09_bw_partition_performance),
    ("fig10_bw_partition_fairness", bandwidth::fig10_bw_partition_fairness),
    ("fig11_bw_sweep", bandwidth::fig11_bandwidth_sweep),
    ("fig12_bw_timeline", bandwidth::fig12_bw_timeline),
    ("fig13_ptw_partition_perf", translation::fig13_ptw_partition_performance),
    ("fig14_ptw_partition_fairness", translation::fig14_ptw_partition_fairness),
    ("fig15_page_size_single", translation::fig15_page_size_single),
    ("fig16_page_size_multi", translation::fig16_page_size_multi),
    ("fig17_mapping_perf", mapping::fig17_mapping_performance),
    ("fig18_mapping_fairness", mapping::fig18_mapping_fairness),
];

/// A figure's result: a titled table of labelled rows, rendered as
/// markdown by its `Display` impl.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Heading, e.g. `Fig. 4 — dual-core mix performance …`.
    pub title: String,
    /// Paragraphs between the heading and the table: sample sizes and
    /// summary figures.
    pub notes: Vec<String>,
    /// Header cells: the row-label column first, then one per value.
    pub columns: Vec<String>,
    /// `(label, one value per value column)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Decimal places every value is printed with.
    pub precision: usize,
}

impl Table {
    /// A table with no notes and values at three decimals, under the
    /// row-label `header` and one header per value column.
    pub fn new<S: AsRef<str>>(
        title: &str,
        header: &str,
        columns: &[S],
        rows: Vec<(String, Vec<f64>)>,
    ) -> Self {
        let columns = std::iter::once(header).chain(columns.iter().map(AsRef::as_ref));
        Table {
            title: title.into(),
            notes: Vec::new(),
            columns: columns.map(String::from).collect(),
            rows,
            precision: 3,
        }
    }

    /// Append a `geomean` row holding each column's geometric mean.
    pub fn with_geomean(mut self) -> Self {
        let cols = self.columns.len() - 1;
        let overall =
            (0..cols).map(|i| geomean(&self.rows.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()));
        self.rows.push(("geomean".into(), overall.collect()));
        self
    }
}

impl fmt::Display for Table {
    /// Markdown with padded cells: labels left-aligned, values
    /// right-aligned at [`Table::precision`] decimals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}\n", self.title)?;
        for note in &self.notes {
            writeln!(f, "{note}\n")?;
        }
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, vals)| {
                let vals = vals.iter().map(|v| format!("{v:.*}", self.precision));
                std::iter::once(label.clone()).chain(vals).collect()
            })
            .collect();
        let width: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                cells.iter().map(|r| r[i].len()).fold(self.columns[i].len().max(3), usize::max)
            })
            .collect();
        let line = |f: &mut fmt::Formatter<'_>, row: &[String]| {
            write!(f, "| {:<w$} |", row[0], w = width[0])?;
            for (cell, w) in row[1..].iter().zip(&width[1..]) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        write!(f, "|:{}|", "-".repeat(width[0] + 1))?;
        for w in &width[1..] {
            write!(f, "{}:|", "-".repeat(w + 1))?;
        }
        writeln!(f)?;
        cells.iter().try_for_each(|row| line(f, row))
    }
}

/// What a sweep reports for one mix, from each workload's speedup vs
/// Ideal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Metric {
    /// Geomean speedup.
    Performance,
    /// Fairness (Eq. 1) of the slowdowns.
    Fairness,
}

impl Metric {
    /// The metric of one mix's per-workload `speedups`.
    pub(crate) fn of(self, speedups: &[f64]) -> f64 {
        match self {
            Metric::Performance => geomean(speedups),
            Metric::Fairness => fairness(&speedups.iter().map(|s| 1.0 / s).collect::<Vec<_>>()),
        }
    }
}

/// Run every workload alone on each chip's [`SystemConfig::ideal_solo`],
/// then each of `mixes` on every chip, through [`sweeps::run_mixes`]'s
/// fan-out, so a figure's serial aggregation afterwards only hits the
/// cache. Once `run_mixes` drops duplicates, Fig. 4's requests are
/// [`sweeps::fig04`]'s, in its order.
pub(crate) fn prefetch(h: &Harness, chips: &[SystemConfig], mixes: &[Vec<usize>]) {
    let solos = chips.iter().flat_map(|c| (0..h.names().len()).map(|w| (c.ideal_solo(), vec![w])));
    let runs = mixes.iter().flat_map(|ws| chips.iter().map(|c| (c.clone(), ws.clone())));
    let reqs: Vec<SweepRequest> = solos.chain(runs).collect();
    sweeps::run_mixes(h, &reqs, FanOut::new());
}

/// The dual-core mix sweep behind Figs. 4, 6, 9, 10, 13 and 14: one row
/// per mix (all 36), labelled like `res+ncf`, holding `metric` of the
/// mix's speedups on each of `chips`, in order.
pub(crate) fn mix_sweep(
    h: &Harness,
    chips: &[SystemConfig],
    metric: Metric,
) -> Vec<(String, Vec<f64>)> {
    let mixes = multisets(h.names().len(), 2);
    prefetch(h, chips, &mixes);
    let names = h.names();
    mixes
        .iter()
        .map(|ws| {
            let label = ws.iter().map(|&w| names[w]).collect::<Vec<_>>().join("+");
            (label, chips.iter().map(|chip| metric.of(&h.mix_speedups(chip, ws))).collect())
        })
        .collect()
}

/// Quantile rows (labelled `0.05` … at two decimals), one value per CDF.
pub(crate) fn quantile_rows(qs: &[f64], cdfs: &[Cdf]) -> Vec<(String, Vec<f64>)> {
    qs.iter().map(|&q| (format!("{q:.2}"), cdfs.iter().map(|c| c.quantile(q)).collect())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_padded_markdown() {
        let t = Table::new(
            "Toy",
            "mix",
            &["A", "Bee"],
            vec![("x".into(), vec![1.0, 2.5]), ("long-label".into(), vec![10.0, 0.125])],
        );
        assert_eq!(
            t.to_string(),
            "## Toy\n\n\
             | mix        |      A |   Bee |\n\
             |:-----------|-------:|------:|\n\
             | x          |  1.000 | 2.500 |\n\
             | long-label | 10.000 | 0.125 |\n"
        );
    }

    #[test]
    fn dual_sweep_overall_is_columnwise_geomean() {
        let t = Table::new(
            "",
            "mix",
            &["a", "b", "c", "d"],
            vec![("a".into(), vec![1.0, 2.0, 3.0, 4.0]), ("b".into(), vec![4.0, 2.0, 3.0, 1.0])],
        )
        .with_geomean();
        let (label, overall) = t.rows.last().expect("geomean row");
        assert_eq!(label, "geomean");
        for (got, want) in overall.iter().zip([2.0, 2.0, 3.0, 2.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn every_figure_has_one_bench_target() {
        let manifest = include_str!("../../Cargo.toml");
        let targets: Vec<&str> = manifest
            .lines()
            .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .filter(|name| name.starts_with("fig"))
            .collect();
        assert_eq!(FIGURES.map(|(name, _)| name).to_vec(), targets);
    }
}
