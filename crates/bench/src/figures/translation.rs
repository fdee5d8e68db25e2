//! Figures 13–16: page-table-walker partitioning and page-size scaling.

use super::{mix_sweep, prefetch, Metric, Table};
use crate::harness::Harness;
use mnpu_engine::{SharingLevel, SystemConfig};
use mnpu_metrics::geomean;
use mnpu_predict::mapping::multisets;

/// The static walker splits of Figs. 13/14 over the dual-core chip's
/// 4 walkers (the paper's eighths of 16 walkers become quarters at bench
/// scale; see EXPERIMENTS.md).
pub const PTW_PARTITIONS: [[usize; 2]; 3] = [[1, 3], [2, 2], [3, 1]];

/// Column labels: static splits plus the dynamic shared pool (`+DW`).
pub const PTW_LABELS: [&str; 4] = ["1:3", "2:2", "3:1", "Dynamic"];

/// The walker-partitioning sweep. DRAM is shared in all columns (as in
/// +D/+DW); only the walker policy varies, isolating the PTW effect like
/// the paper's §4.4.1.
fn ptw_partitions(h: &Harness, title: &str, metric: Metric) -> Table {
    let statics = PTW_PARTITIONS
        .iter()
        .map(|p| Harness::dual(SharingLevel::PlusD).with_ptw_partition(p.to_vec()));
    let chips: Vec<SystemConfig> = statics.chain([Harness::dual(SharingLevel::PlusDw)]).collect();
    Table::new(title, "mix", &PTW_LABELS, mix_sweep(h, &chips, metric)).with_geomean()
}

/// Fig. 13: geomean performance of each walker-partitioning scheme in the
/// dual-core chip, normalized to Ideal.
pub fn fig13_ptw_partition_performance(h: &Harness) -> Table {
    let title = "Fig. 13 — PTW partitioning, performance (normalized to Ideal)";
    ptw_partitions(h, title, Metric::Performance)
}

/// Fig. 14: fairness of each walker-partitioning scheme.
pub fn fig14_ptw_partition_fairness(h: &Harness) -> Table {
    ptw_partitions(h, "Fig. 14 — PTW partitioning, fairness", Metric::Fairness)
}

/// The page sizes of §4.5, bytes.
pub const PAGE_SIZES: [u64; 3] = [4096, 65536, 1 << 20];

/// Fig. 15: single-core speedup of 64 KB and 1 MB pages over 4 KB pages.
pub fn fig15_page_size_single(h: &Harness) -> Table {
    let chips =
        PAGE_SIZES.map(|p| Harness::dual(SharingLevel::PlusDwt).ideal_solo().with_page_size(p));
    let n = h.names().len();
    prefetch(h, &chips, &(0..n).map(|w| vec![w]).collect::<Vec<_>>());
    let rows = (0..n)
        .map(|w| {
            let c: Vec<f64> = chips.iter().map(|chip| h.run_mix(chip, &[w])[0] as f64).collect();
            (h.names()[w].to_string(), vec![c[0] / c[1], c[0] / c[2]])
        })
        .collect();
    let title = "Fig. 15 — page-size speedup over 4KB (single core)";
    Table::new(title, "wl", &["64KB", "1MB"], rows).with_geomean()
}

/// Fig. 16: page-size scaling for dual- and quad-core chips under `+DWT`:
/// per-core performance of 64 KB and 1 MB pages vs 4 KB, and per-mix
/// fairness (vs the Ideal of the same page size) at each size, as
/// geomeans. Both mix lists are sampled; the quad one by
/// [`Harness::quad_stride`] too.
pub fn fig16_page_size_multi(h: &Harness) -> Table {
    let mut rows = Vec::new();
    let mut sampled = Vec::new();
    for (cores, stride) in [(2usize, 3usize), (4, Harness::quad_stride() * 3)] {
        let mixes: Vec<Vec<usize>> =
            multisets(h.names().len(), cores).into_iter().step_by(stride).collect();
        let chips =
            PAGE_SIZES.map(|p| SystemConfig::bench(cores, SharingLevel::PlusDwt).with_page_size(p));
        prefetch(h, &chips, &mixes);
        let mut perf = [Vec::new(), Vec::new()];
        let mut fair = [Vec::new(), Vec::new(), Vec::new()];
        for ws in &mixes {
            for (f, chip) in fair.iter_mut().zip(&chips) {
                f.push(Metric::Fairness.of(&h.mix_speedups(chip, ws)));
            }
            let cycles = chips.each_ref().map(|chip| h.run_mix(chip, ws));
            for (p, large) in perf.iter_mut().zip(&cycles[1..]) {
                p.extend(cycles[0].iter().zip(large).map(|(&base, &c)| base as f64 / c as f64));
            }
        }
        rows.push((cores.to_string(), perf.iter().chain(&fair).map(|v| geomean(v)).collect()));
        sampled.push(mixes.len());
    }
    let title = format!(
        "Fig. 16 — page-size scaling under +DWT ({} dual / {} quad mixes)",
        sampled[0], sampled[1]
    );
    let columns = ["perf 64KB", "perf 1MB", "fair 4KB", "fair 64KB", "fair 1MB"];
    Table::new(&title, "cores", &columns, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptw_partitions_cover_four_walkers() {
        for p in PTW_PARTITIONS {
            assert_eq!(p.iter().sum::<usize>(), 4);
        }
    }

    #[test]
    fn page_sizes_match_arm64_granules() {
        assert_eq!(PAGE_SIZES, [4096, 65536, 1048576]);
    }
}
