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
use mnpu_engine::{FanOut, RunReport, SharingLevel, SystemConfig};
use mnpu_predict::mapping::multisets;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::Mutex;

/// One sweep request: a system configuration plus zoo workload indices,
/// one per core.
pub type SweepRequest = (SystemConfig, Vec<usize>);

/// What a sweep simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCounts {
    /// Number of simulations run.
    pub sims: usize,
    /// Sum of every report's `total_cycles`.
    pub simulated_cycles: u64,
    /// Sum of every report's DRAM transactions.
    pub dram_transactions: u64,
    /// The final request's full report (stable across execution plans and
    /// worker counts).
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

/// Run every request through the full report path (no run cache, memoized
/// traces — the same work a cold sweep does per simulation) on
/// [`FanOut::new`]'s workers and accumulate the counts.
///
/// Requests differing only in MMU organization run as warm-start prefix
/// groups unless `MNPU_NO_PREFIX_SHARE=1` (see [`crate::prefix`]); the
/// accumulated counts are bit-identical in both modes and for any worker
/// count — only the wall clock moves.
pub fn run_counts(h: &Harness, reqs: &[SweepRequest]) -> SweepCounts {
    run_counts_observed(h, reqs, FanOut::new(), None, &mut || false)
        .expect("an unstoppable sweep always completes")
}

/// [`run_counts`] on `fan`'s workers, with a stop check and live
/// telemetry.
///
/// The execution units — single simulations and whole warm-start prefix
/// groups, the boundaries where abandoning a sweep wastes no finished
/// work — go through [`FanOut::run`]: `should_stop` runs on
/// the calling thread before each unit is handed out, and once it returns
/// `true` no unit starts, running units finish, and the call returns
/// `None`. Sweeps accumulate across simulations and have no mid-sweep
/// snapshot, so a stopped sweep reports nothing rather than a misleading
/// partial count. A panic in `should_stop` or in a simulation reaches the
/// caller with its original payload.
///
/// Counts accumulate as units finish (u64 sums commute, so the totals do
/// not depend on the order) and only the final request's report is kept.
/// After each unit the sweep's progress — finished simulations, finished
/// units, accumulated simulated cycles — is published to `trace`'s
/// progress cell under the same lock, so a `/progress` poll of a long
/// daemon sweep shows totals that only grow. Telemetry is observation
/// only: the returned counts are byte-identical with or without a handle.
pub fn run_counts_observed(
    h: &Harness,
    reqs: &[SweepRequest],
    fan: FanOut,
    trace: Option<&mnpu_trace::TraceHandle>,
    should_stop: &mut dyn FnMut() -> bool,
) -> Option<SweepCounts> {
    let units = plan_units(reqs.iter().map(|(cfg, ws)| (cfg, ws.as_slice())));
    let last = reqs.len().checked_sub(1);
    let acc = Mutex::new((
        SweepCounts { sims: 0, simulated_cycles: 0, dram_transactions: 0, last_report: None },
        0u64,
    ));
    let finished = fan.run(&units, should_stop, |unit| {
        let ran = run_unit(h, reqs, unit);
        let mut guard = acc.lock().expect("no unit panics holding the sweep totals");
        let (counts, done_units) = &mut *guard;
        for (i, r) in ran {
            counts.sims += 1;
            counts.simulated_cycles += r.total_cycles;
            counts.dram_transactions += r.dram.total.transactions();
            if Some(i) == last {
                counts.last_report = Some(r);
            }
        }
        *done_units += 1;
        if let Some(t) = trace {
            t.publish_sweep(counts.sims as u64, *done_units, counts.simulated_cycles);
        }
    });
    finished.then(|| acc.into_inner().expect("the sweep totals lock is never poisoned").0)
}

/// Run every request on `fan`'s workers (deduplicated, cache hits
/// skipped), then return per-core cycle counts in request order. Results
/// are memoized in the harness cache exactly as [`Harness::run_mix`] would.
///
/// Uncached requests that differ only in MMU organization are coalesced
/// into warm-start prefix groups (see [`crate::prefix`]) — each group
/// is one fan-out unit, its members simulated from one shared prefix.
/// `MNPU_NO_PREFIX_SHARE=1` restores the one-request-per-unit plan;
/// results are byte-identical either way.
pub fn run_mixes(h: &Harness, requests: &[SweepRequest], fan: FanOut) -> Vec<Vec<u64>> {
    // Dedup by cache key and drop already-memoized runs so workers only
    // see fresh work.
    let mut seen = HashSet::new();
    let todo: Vec<&SweepRequest> = requests
        .iter()
        .filter(|(cfg, ws)| seen.insert(Harness::key(cfg, ws)) && h.cached(cfg, ws).is_none())
        .collect();
    let units = plan_units(todo.iter().map(|(cfg, ws)| (cfg, ws.as_slice())));
    fan.run(&units, &mut || false, |unit| {
        let ran = run_unit(h, &todo, unit);
        h.memoize(ran.iter().map(|(i, report)| (Harness::key(&todo[*i].0, &todo[*i].1), report)));
    });

    // Everything is cached now; assemble results in request order.
    requests.iter().map(|(cfg, ws)| h.run_mix(cfg, ws)).collect()
}

/// Simulate one unit of `reqs`' plan — a single request, or a warm-start
/// prefix group through [`Harness::run_reports_shared`] — and return each
/// member's request index with its full report.
fn run_unit<R: Borrow<SweepRequest>>(
    h: &Harness,
    reqs: &[R],
    unit: &SweepUnit,
) -> Vec<(usize, RunReport)> {
    match unit {
        SweepUnit::Single(i) => {
            let (cfg, ws) = reqs[*i].borrow();
            vec![(*i, h.run_report(cfg, ws))]
        }
        SweepUnit::Group(members) => {
            let cfgs: Vec<SystemConfig> =
                members.iter().map(|&i| reqs[i].borrow().0.clone()).collect();
            let ws = &reqs[members[0]].borrow().1;
            members.iter().copied().zip(h.run_reports_shared(&cfgs, ws)).collect()
        }
    }
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
        let reqs = tiny();
        let units = plan_units(reqs.iter().map(|(cfg, ws)| (cfg, ws.as_slice()))).len();
        for jobs in [1, 2, 4] {
            for k in 1..=units {
                // A stop check that fires on its k-th call has handed out
                // exactly k - 1 units, and every one of them finished.
                let trace = mnpu_trace::TraceHandle::new();
                let mut calls = 0;
                let mut stop = || {
                    calls += 1;
                    calls == k
                };
                let fan = FanOut::with_jobs(jobs);
                assert_eq!(run_counts_observed(&h, &reqs, fan, Some(&trace), &mut stop), None);
                assert_eq!(calls, k, "{jobs} workers");
                let progress = trace.progress().snapshot();
                assert_eq!(progress.sweep_units, k as u64 - 1, "{jobs} workers, stop at {k}");
            }
        }
    }

    #[test]
    fn run_mixes_preserves_request_order_and_dedups() {
        let h = Harness::new();
        let cfg = Harness::dual(SharingLevel::Static);
        let reqs: Vec<SweepRequest> = vec![
            (cfg.clone(), vec![6, 6]),
            (cfg.clone(), vec![6, 7]),
            (cfg.clone(), vec![6, 6]), // duplicate
        ];
        let out = run_mixes(&h, &reqs, FanOut::with_jobs(2));
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2], "duplicate requests share one run");
        assert_eq!(out[0], h.run_mix(&cfg, &[6, 6]));
        assert_eq!(out[1], h.run_mix(&cfg, &[6, 7]));
    }

    #[test]
    fn counts_json_is_stable() {
        let c =
            SweepCounts { sims: 2, simulated_cycles: 100, dram_transactions: 7, last_report: None };
        assert_eq!(c.to_json(), "{\"sims\":2,\"simulated_cycles\":100,\"dram_transactions\":7}");
    }
}
