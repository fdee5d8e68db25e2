//! Figures 13–16: page-table-walker partitioning and page-size scaling.

use crate::harness::Harness;
use mnpu_engine::SharingLevel;
use mnpu_metrics::{fairness, geomean};
use mnpu_predict::mapping::multisets;

/// The static walker splits of Figs. 13/14 over the dual-core chip's
/// 4 walkers (the paper's eighths of 16 walkers become quarters at bench
/// scale; see EXPERIMENTS.md).
pub const PTW_PARTITIONS: [[usize; 2]; 3] = [[1, 3], [2, 2], [3, 1]];

/// Column labels: static splits plus the dynamic shared pool (`+DW`).
pub const PTW_LABELS: [&str; 4] = ["1:3", "2:2", "3:1", "Dynamic"];

/// Result of the PTW-partitioning sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PtwPartitionSweep {
    /// `(mix, metric per PTW_LABELS column)`.
    pub mixes: Vec<(String, [f64; 4])>,
    /// Column-wise geomean.
    pub overall: [f64; 4],
}

fn ptw_sweep(h: &mut Harness, metric: impl Fn(&[f64]) -> f64) -> PtwPartitionSweep {
    // DRAM is shared in all columns (as in +D/+DW); only the walker policy
    // varies, isolating the PTW effect like the paper's §4.4.1.
    let statics =
        PTW_PARTITIONS.map(|p| Harness::dual(SharingLevel::PlusD).with_ptw_partition(p.to_vec()));
    let dynamic = Harness::dual(SharingLevel::PlusDw);
    let mut mixes = Vec::new();
    for ws in multisets(8, 2) {
        let label: String = ws.iter().map(|&w| h.names()[w]).collect::<Vec<_>>().join("+");
        let mut vals = [0.0f64; 4];
        for (i, cfg) in statics.iter().enumerate() {
            vals[i] = metric(&h.mix_speedups(cfg, &ws));
        }
        vals[3] = metric(&h.mix_speedups(&dynamic, &ws));
        mixes.push((label, vals));
    }
    let overall =
        std::array::from_fn(|i| geomean(&mixes.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()));
    PtwPartitionSweep { mixes, overall }
}

/// Fig. 13: geomean performance of each walker-partitioning scheme in the
/// dual-core chip, normalized to Ideal.
pub fn fig13_ptw_partition_performance(h: &mut Harness) -> PtwPartitionSweep {
    ptw_sweep(h, geomean)
}

/// Fig. 14: fairness of each walker-partitioning scheme.
pub fn fig14_ptw_partition_fairness(h: &mut Harness) -> PtwPartitionSweep {
    ptw_sweep(h, |s| {
        let slowdowns: Vec<f64> = s.iter().map(|x| 1.0 / x).collect();
        fairness(&slowdowns)
    })
}

/// The page sizes of §4.5, bytes.
pub const PAGE_SIZES: [u64; 3] = [4096, 65536, 1 << 20];

/// Fig. 15 data: single-core speedup of large pages over 4 KB pages.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSizeSingle {
    /// `(workload, speedup of 64 KB over 4 KB, speedup of 1 MB over 4 KB)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Geomeans of the two columns.
    pub overall: (f64, f64),
}

/// Compute Fig. 15.
pub fn fig15_page_size_single(h: &mut Harness) -> PageSizeSingle {
    let mut rows = Vec::new();
    for w in 0..h.names().len() {
        let cycles: Vec<f64> = PAGE_SIZES
            .iter()
            .map(|&p| {
                let cfg = Harness::dual(SharingLevel::PlusDwt).ideal_solo().with_page_size(p);
                h.run_mix(&cfg, &[w])[0] as f64
            })
            .collect();
        rows.push((h.names()[w].to_string(), cycles[0] / cycles[1], cycles[0] / cycles[2]));
    }
    let overall = (
        geomean(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
    );
    PageSizeSingle { rows, overall }
}

/// Fig. 16 data: page-size scaling for dual- and quad-core chips
/// under `+DWT`.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSizeMulti {
    /// `(core count, perf of 64K and 1M vs 4K, fairness at 4K/64K/1M)`.
    pub rows: Vec<(usize, [f64; 2], [f64; 3])>,
    /// Dual-core mixes simulated.
    pub dual_mixes: usize,
    /// Quad-core mixes simulated.
    pub quad_mixes: usize,
}

/// Compute Fig. 16. The quad sweep is sampled by [`Harness::quad_stride`].
pub fn fig16_page_size_multi(h: &mut Harness) -> PageSizeMulti {
    let mut rows = Vec::new();
    let mut counts = (0usize, 0usize);
    for (cores, stride) in [(2usize, 3usize), (4, Harness::quad_stride() * 3)] {
        let mix_list: Vec<Vec<usize>> = multisets(8, cores).into_iter().step_by(stride).collect();
        // Per page size: collect per-workload speedups vs 4K, and fairness
        // vs the Ideal of the same page size.
        let mut perf_ratio = [Vec::new(), Vec::new()];
        let mut fair = [Vec::new(), Vec::new(), Vec::new()];
        for ws in &mix_list {
            let mut cycles_by_page = Vec::new();
            for (pi, &p) in PAGE_SIZES.iter().enumerate() {
                let cfg = if cores == 2 {
                    Harness::dual(SharingLevel::PlusDwt).with_page_size(p)
                } else {
                    Harness::quad(SharingLevel::PlusDwt).with_page_size(p)
                };
                let speedups = h.mix_speedups(&cfg, ws);
                let slowdowns: Vec<f64> = speedups.iter().map(|s| 1.0 / s).collect();
                fair[pi].push(fairness(&slowdowns));
                cycles_by_page.push(h.run_mix(&cfg, ws));
            }
            // `core` indexes three parallel rows of `cycles_by_page`.
            #[allow(clippy::needless_range_loop)]
            for core in 0..cores {
                for big in 0..2 {
                    perf_ratio[big].push(
                        cycles_by_page[0][core] as f64 / cycles_by_page[big + 1][core] as f64,
                    );
                }
            }
        }
        if cores == 2 {
            counts.0 = mix_list.len();
        } else {
            counts.1 = mix_list.len();
        }
        rows.push((
            cores,
            [geomean(&perf_ratio[0]), geomean(&perf_ratio[1])],
            [geomean(&fair[0]), geomean(&fair[1]), geomean(&fair[2])],
        ));
    }
    PageSizeMulti { rows, dual_mixes: counts.0, quad_mixes: counts.1 }
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
