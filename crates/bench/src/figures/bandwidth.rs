//! Figures 2b and 9–12: memory-bandwidth behavior.

use super::{mix_sweep, prefetch, Metric, Table};
use crate::harness::Harness;
use mnpu_engine::{SharingLevel, SystemConfig};
use mnpu_metrics::moving_average;

/// Index of the zoo workload called `name`.
fn workload(h: &Harness, name: &str) -> usize {
    h.names().iter().position(|&n| n == name).expect("a zoo workload")
}

/// Window length, in cycles, of Fig. 2b's request trace.
const BURST_WINDOW: u64 = 100;

/// NCF's DRAM requests per cycle on a single-core NPU, one point per
/// [`BURST_WINDOW`]: the per-window rate smoothed over 10 windows, the
/// paper's 1000-cycle moving average.
fn ncf_request_rate(h: &Harness) -> Vec<f64> {
    let mut cfg = SystemConfig::bench(1, SharingLevel::Ideal);
    cfg.trace_window = Some(BURST_WINDOW);
    let r = h.run_report(&cfg, &[workload(h, "ncf")]);
    let trace = r.bandwidth_trace.expect("trace enabled");
    let per_window: Vec<f64> = trace
        .core_series(0)
        .iter()
        .map(|&bytes| bytes as f64 / 64.0 / BURST_WINDOW as f64)
        .collect();
    moving_average(&per_window, 10)
}

/// Fig. 2b: NCF's bursty request pattern on a single core, sampled to
/// about 60 rows.
pub fn fig02_burstiness(h: &Harness) -> Table {
    let series = ncf_request_rate(h);
    let peak = series.iter().cloned().fold(0.0, f64::max);
    let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
    let step = (series.len() / 60).max(1);
    let rows = series.iter().enumerate().step_by(step);
    let rows = rows.map(|(i, &v)| ((i as u64 * BURST_WINDOW).to_string(), vec![v])).collect();
    let title = "Fig. 2b — NCF memory-request burstiness (single core, Ideal)";
    let mut t = Table::new(title, "cycle", &["req/cycle"], rows);
    t.notes = vec![
        format!("window = {BURST_WINDOW} cycles (smoothed over 10 windows)"),
        format!(
            "peak = {peak:.3} req/cycle, mean = {mean:.3} req/cycle, peak/mean = {:.1}x",
            peak / mean.max(1e-12)
        ),
        format!(
            "series: {} points, one per {BURST_WINDOW} cycles; one row per {step}",
            series.len()
        ),
    ];
    t
}

/// The five static channel splits of the dual-core Figs. 9/10, over the
/// chip's 8 channels.
pub const BW_PARTITIONS: [[usize; 2]; 5] = [[1, 7], [2, 6], [4, 4], [6, 2], [7, 1]];

/// Column labels of Figs. 9/10: five ratios, the per-mix best static
/// choice, and dynamic sharing.
pub const BW_LABELS: [&str; 7] = ["1:7", "2:6", "4:4", "6:2", "7:1", "StaticBest", "Dynamic"];

/// The bandwidth-partitioning sweep (translation disabled, as in the
/// paper's §4.3). "StaticBest" is the static partition with the best
/// performance for each mix; the fairness figure reports the fairness of
/// that same choice.
fn bw_partitions(h: &Harness, title: &str, metric: Metric) -> Table {
    let statics = BW_PARTITIONS.iter().map(|p| {
        Harness::dual(SharingLevel::Static).with_channel_partition(p.to_vec()).without_translation()
    });
    let dynamic = Harness::dual(SharingLevel::PlusD).without_translation();
    let chips: Vec<SystemConfig> = statics.chain([dynamic]).collect();
    let perf = mix_sweep(h, &chips, Metric::Performance);
    let mut rows = mix_sweep(h, &chips, metric);
    for ((_, vals), (_, perf)) in rows.iter_mut().zip(&perf) {
        let best = (1..BW_PARTITIONS.len()).fold(0, |b, i| if perf[i] > perf[b] { i } else { b });
        vals.insert(BW_PARTITIONS.len(), vals[best]);
    }
    Table::new(title, "mix", &BW_LABELS, rows).with_geomean()
}

/// Fig. 9: geomean performance of each bandwidth-partitioning scheme,
/// normalized to Ideal (translation disabled throughout).
pub fn fig09_bw_partition_performance(h: &Harness) -> Table {
    let title = "Fig. 9 — DRAM bandwidth partitioning, performance (translation off)";
    bw_partitions(h, title, Metric::Performance)
}

/// Fig. 10: fairness of each bandwidth-partitioning scheme.
pub fn fig10_bw_partition_fairness(h: &Harness) -> Table {
    let title = "Fig. 10 — DRAM bandwidth partitioning, fairness (translation off)";
    bw_partitions(h, title, Metric::Fairness)
}

/// Fig. 11: per-workload single-core speedup as DRAM bandwidth grows
/// from 1 to 16 channels (8 GB/s each at bench scale), normalized to the
/// smallest configuration.
pub fn fig11_bandwidth_sweep(h: &Harness) -> Table {
    let channels = [1usize, 2, 4, 8, 16];
    let chips = channels.map(|ch| {
        let mut cfg = SystemConfig::bench(1, SharingLevel::Ideal);
        cfg.channels_per_core = ch;
        cfg
    });
    let n = h.names().len();
    prefetch(h, &chips, &(0..n).map(|w| vec![w]).collect::<Vec<_>>());
    let rows = (0..n)
        .map(|w| {
            let cycles: Vec<f64> = chips.iter().map(|c| h.run_mix(c, &[w])[0] as f64).collect();
            (h.names()[w].to_string(), cycles.iter().map(|c| cycles[0] / c).collect())
        })
        .collect();
    let columns = channels.map(|ch| format!("{}GB/s", ch * 8));
    let title = "Fig. 11 — single-core speedup vs DRAM bandwidth (8 GB/s channels)";
    Table::new(title, "wl", &columns, rows)
}

/// Fig. 12: bandwidth-utilization timelines (normalized to the chip peak)
/// of ds2 and gpt2 running alone on the dual-core Ideal configuration,
/// plus their sum — the co-run demand the paper plots — sampled to about
/// 50 rows.
pub fn fig12_bw_timeline(h: &Harness) -> Table {
    let window = 2000;
    let run = |name: &str| {
        let mut cfg = Harness::dual(SharingLevel::PlusDwt).ideal_solo();
        cfg.trace_window = Some(window);
        let r = h.run_report(&cfg, &[workload(h, name)]);
        let peak = {
            let mut d = cfg.dram.clone();
            d.channels = cfg.total_channels();
            d.channel_bytes_per_cycle() * d.channels as f64
        };
        r.bandwidth_trace.expect("trace enabled").normalized_series(0, peak)
    };
    let ds2 = run("ds2");
    let gpt2 = run("gpt2");
    let n = ds2.len().max(gpt2.len());
    let at = |v: &Vec<f64>, i: usize| v.get(i).copied().unwrap_or(0.0);
    let sum: Vec<f64> = (0..n).map(|i| at(&ds2, i) + at(&gpt2, i)).collect();
    // The paper's `y >= 0.5` argument against 4:4 splits.
    let above_half = ds2.iter().chain(&gpt2).filter(|&&u| u >= 0.5).count() as f64
        / (ds2.len() + gpt2.len()) as f64;
    let sum_above = sum.iter().filter(|&&u| u > 1.0).count() as f64 / sum.len().max(1) as f64;
    let rows = (0..n)
        .step_by((n / 50).max(1))
        .map(|i| ((i as u64 * window).to_string(), vec![at(&ds2, i), at(&gpt2, i), sum[i]]));
    let title = format!("Fig. 12 — bandwidth utilization timeline (window = {window} cycles)");
    let mut t = Table::new(&title, "cycle", &["ds2", "gpt2", "sum"], rows.collect());
    t.notes = vec![
        format!("fraction of windows with single-workload demand >= 0.5 peak: {above_half:.2}"),
        format!("fraction of windows with summed demand > peak: {sum_above:.2}"),
    ];
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burstiness_has_peaks_above_mean() {
        let series = ncf_request_rate(&Harness::new());
        assert!(!series.is_empty());
        let peak = series.iter().cloned().fold(0.0, f64::max);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!(peak > mean * 1.5, "bursty traffic: peak {peak} vs mean {mean}");
    }

    #[test]
    fn bw_partitions_cover_eight_channels() {
        for p in BW_PARTITIONS {
            assert_eq!(p.iter().sum::<usize>(), 8);
        }
    }
}
