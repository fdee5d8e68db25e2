//! Canonical sweep definitions shared by every sweep driver.
//!
//! The `mnpu_hotpath` binary, the CI smoke jobs and the `mnpu-serviced`
//! daemon all run "the tiny sweep" or "the fig04 sweep" and compare
//! accumulated counts. Those definitions live here — one place — so the
//! comparison is between *drivers*, never between diverging copies of the
//! workload list: a sweep submitted to the daemon must accumulate exactly
//! the counts `mnpu_hotpath --tiny` prints, and both call [`run_counts`]
//! over [`tiny`].

use crate::{plan_units, Harness, SweepUnit};
use mnpu_engine::{RunReport, SharingLevel, SystemConfig};
use mnpu_predict::mapping::multisets;

/// One sweep request: a system configuration plus zoo workload indices,
/// one per core.
pub type SweepRequest = (SystemConfig, Vec<usize>);

/// What a sweep simulated, accumulated in request order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCounts {
    /// Number of simulations run.
    pub sims: usize,
    /// Sum of every report's `total_cycles`.
    pub simulated_cycles: u64,
    /// Sum of every report's DRAM transactions.
    pub dram_transactions: u64,
    /// The final request's full report (stable across execution plans).
    pub last_report: Option<RunReport>,
}

impl SweepCounts {
    /// The counts as a stable JSON object (the fragment the hotpath entry
    /// and the daemon's sweep result share verbatim).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sims\":{},\"simulated_cycles\":{},\"dram_transactions\":{}}}",
            self.sims, self.simulated_cycles, self.dram_transactions
        )
    }
}

/// CI smoke: one solo, one static mix, and one mix across all three co-run
/// MMU levels — seconds, not minutes. The last three share a divergence
/// key, so the tiny sweep exercises a real warm-start prefix group (and
/// degrades to three independent runs under `MNPU_NO_PREFIX_SHARE=1`).
pub fn tiny() -> Vec<SweepRequest> {
    vec![
        (Harness::dual(SharingLevel::Static).ideal_solo(), vec![6]),
        (Harness::dual(SharingLevel::Static), vec![6, 6]),
        (Harness::dual(SharingLevel::PlusD), vec![6, 7]),
        (Harness::dual(SharingLevel::PlusDw), vec![6, 7]),
        (Harness::dual(SharingLevel::PlusDwt), vec![6, 7]),
    ]
}

/// The fig04 sweep: 8 Ideal solos + 36 mixes × 4 co-run levels (152
/// simulations).
pub fn fig04() -> Vec<SweepRequest> {
    let solo = Harness::dual(SharingLevel::Static).ideal_solo();
    let mut reqs: Vec<SweepRequest> = (0..8).map(|w| (solo.clone(), vec![w])).collect();
    for ws in multisets(8, 2) {
        for lvl in SharingLevel::CO_RUN_LEVELS {
            reqs.push((Harness::dual(lvl), ws.clone()));
        }
    }
    reqs
}

/// A named canonical sweep, or `None` for an unknown name.
pub fn by_name(name: &str) -> Option<Vec<SweepRequest>> {
    match name {
        "tiny" => Some(tiny()),
        "fig04" => Some(fig04()),
        _ => None,
    }
}

/// Run every request serially through the full report path (no run cache,
/// memoized traces — the same work a cold sweep does per simulation) and
/// accumulate counts in request order.
///
/// Requests differing only in MMU organization run as warm-start prefix
/// groups unless `MNPU_NO_PREFIX_SHARE=1` (see [`crate::prefix`]); the
/// accumulated counts are bit-identical in both modes — only the wall
/// clock moves.
pub fn run_counts(h: &Harness, reqs: &[SweepRequest]) -> SweepCounts {
    run_counts_observed(h, reqs, None, &mut || false)
        .expect("an unstoppable sweep always completes")
}

/// [`run_counts`] with a stop check and live telemetry.
///
/// `should_stop` is consulted before each execution unit (a single
/// simulation or a whole warm-start prefix group — the boundaries where
/// abandoning a sweep wastes no finished work). Returns `None` when it
/// fired: sweeps accumulate across simulations and have no mid-sweep
/// snapshot, so a stopped sweep reports nothing rather than a misleading
/// partial count.
///
/// After each unit the sweep's progress — finished simulations, finished
/// units, accumulated simulated cycles — is published to `trace`'s
/// progress cell, so a `/progress` poll of a long daemon sweep shows
/// movement between units. Telemetry is observation only: the returned
/// counts are byte-identical with or without a handle.
pub fn run_counts_observed(
    h: &Harness,
    reqs: &[SweepRequest],
    trace: Option<&mnpu_trace::TraceHandle>,
    should_stop: &mut dyn FnMut() -> bool,
) -> Option<SweepCounts> {
    let units = plan_units(reqs.iter().map(|(cfg, ws)| (cfg, ws.as_slice())));
    let mut reports: Vec<Option<RunReport>> = reqs.iter().map(|_| None).collect();
    let (mut done_sims, mut done_units, mut done_cycles) = (0u64, 0u64, 0u64);
    for unit in &units {
        if should_stop() {
            return None;
        }
        match unit {
            SweepUnit::Single(i) => {
                let (cfg, ws) = &reqs[*i];
                let r = h.run_report(cfg, ws);
                done_sims += 1;
                done_cycles = done_cycles.saturating_add(r.total_cycles);
                reports[*i] = Some(r);
            }
            SweepUnit::Group(members) => {
                let cfgs: Vec<SystemConfig> = members.iter().map(|&i| reqs[i].0.clone()).collect();
                let group = h.run_reports_shared(&cfgs, &reqs[members[0]].1);
                for (&i, r) in members.iter().zip(group) {
                    done_sims += 1;
                    done_cycles = done_cycles.saturating_add(r.total_cycles);
                    reports[i] = Some(r);
                }
            }
        }
        done_units += 1;
        if let Some(t) = trace {
            t.publish_sweep(done_sims, done_units, done_cycles);
        }
    }
    // Accumulate in request order so the "last" report is stable across
    // execution plans.
    let mut simulated_cycles = 0u64;
    let mut dram_transactions = 0u64;
    let mut last_report = None;
    for r in reports.into_iter().map(|r| r.expect("every request ran")) {
        simulated_cycles += r.total_cycles;
        dram_transactions += r.dram.total.transactions();
        last_report = Some(r);
    }
    Some(SweepCounts { sims: reqs.len(), simulated_cycles, dram_transactions, last_report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_is_five_requests_with_a_prefix_group() {
        let reqs = tiny();
        assert_eq!(reqs.len(), 5);
        let units = plan_units(reqs.iter().map(|(cfg, ws)| (cfg, ws.as_slice())));
        assert!(
            units.iter().any(|u| matches!(u, SweepUnit::Group(m) if m.len() == 3))
                || !crate::prefix_share_enabled(),
            "the tiny sweep must exercise a warm-start prefix group"
        );
    }

    #[test]
    fn by_name_resolves_canonical_sweeps() {
        assert_eq!(by_name("tiny").map(|r| r.len()), Some(5));
        assert_eq!(by_name("fig04").map(|r| r.len()), Some(152));
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn run_counts_observed_stops_between_units() {
        let h = Harness::new();
        let reqs = vec![(Harness::dual(SharingLevel::Static).ideal_solo(), vec![6])];
        // A stop check that fires immediately runs nothing.
        assert_eq!(run_counts_observed(&h, &reqs, None, &mut || true), None);
    }

    #[test]
    fn counts_json_is_stable() {
        let c =
            SweepCounts { sims: 2, simulated_cycles: 100, dram_transactions: 7, last_report: None };
        assert_eq!(c.to_json(), "{\"sims\":2,\"simulated_cycles\":100,\"dram_transactions\":7}");
    }
}
