//! Serve-mode oracles: per-job conservation laws and the arrival-delay
//! metamorphic invariant.
//!
//! The scheduling layer adds its own bookkeeping on top of the engine —
//! arrival, dispatch and completion cycles per job — and with it a set of
//! laws that hold for *every* scenario, derivable without knowing anything
//! about the workloads:
//!
//! * **Conservation**: `arrival + queueing + service = completion`,
//!   exactly, with `dispatch ≥ arrival` and `completion ≥ dispatch`;
//! * **Purity**: the recorded arrival of job *i* equals the pure arrival
//!   function [`mnpu_sched::arrivals`] applied to the scenario;
//! * **Core exclusivity**: jobs that ran on the same core never overlap —
//!   each dispatch is at or after the previous job's completion;
//! * **Aggregate consistency**: the makespan is the max completion and the
//!   latency distribution's max matches the worst job.
//!
//! [`check_delay_law`] adds the paired-run invariant: under private
//! resources (jobs pinned to distinct cores, no dynamic sharing), delaying
//! one job's arrival never decreases any *other* job's completion cycle.

use crate::metamorphic::isolation_slack;
use crate::oracle::Violation;
use mnpu_config::{ArrivalSpec, PolicySpec, ScenarioSpec};
use mnpu_sched::{arrivals, serve, ServeReport};

/// Apply every serve-mode conservation oracle to `report`, which must have
/// been produced by running `spec`.
pub fn check_serve(spec: &ScenarioSpec, report: &ServeReport) -> Vec<Violation> {
    let mut v = Vec::new();
    let arr = arrivals(spec);
    if report.jobs.len() != spec.jobs.len() {
        v.push(Violation {
            oracle: "serve-job-count",
            core: None,
            detail: format!(
                "{} jobs reported, scenario has {}",
                report.jobs.len(),
                spec.jobs.len()
            ),
        });
        return v;
    }
    for (i, j) in report.jobs.iter().enumerate() {
        if j.job != i as u64 {
            v.push(Violation {
                oracle: "serve-job-order",
                core: None,
                detail: format!("record {i} carries job id {}", j.job),
            });
        }
        if j.arrival != arr[i] {
            v.push(Violation {
                oracle: "serve-arrival-purity",
                core: None,
                detail: format!(
                    "job {i} arrived at {} but the arrival function says {}",
                    j.arrival, arr[i]
                ),
            });
        }
        if j.core >= spec.system.cores {
            v.push(Violation {
                oracle: "serve-core-range",
                core: Some(j.core),
                detail: format!("job {i} ran on core {} of {}", j.core, spec.system.cores),
            });
            continue;
        }
        if spec.policy == PolicySpec::Pinned && spec.jobs[i].core != Some(j.core) {
            v.push(Violation {
                oracle: "serve-pin-respected",
                core: Some(j.core),
                detail: format!("job {i} pinned to {:?} but ran on {}", spec.jobs[i].core, j.core),
            });
        }
        if j.dispatch < j.arrival || j.completion < j.dispatch {
            v.push(Violation {
                oracle: "serve-causality",
                core: Some(j.core),
                detail: format!(
                    "job {i}: arrival {} dispatch {} completion {}",
                    j.arrival, j.dispatch, j.completion
                ),
            });
            continue;
        }
        // Exact conservation — u64 arithmetic, no tolerance.
        if j.arrival + j.queueing() + j.service() != j.completion {
            v.push(Violation {
                oracle: "serve-conservation",
                core: Some(j.core),
                detail: format!(
                    "job {i}: {} + {} + {} != {}",
                    j.arrival,
                    j.queueing(),
                    j.service(),
                    j.completion
                ),
            });
        }
    }
    // Core exclusivity: order each core's jobs by dispatch and demand
    // back-to-back (or gapped) execution, never overlap.
    for core in 0..spec.system.cores {
        let mut on_core: Vec<_> = report.jobs.iter().filter(|j| j.core == core).collect();
        on_core.sort_by_key(|j| j.dispatch);
        for w in on_core.windows(2) {
            if w[1].dispatch < w[0].completion {
                v.push(Violation {
                    oracle: "serve-core-exclusive",
                    core: Some(core),
                    detail: format!(
                        "job {} dispatched at {} before job {} completed at {}",
                        w[1].job, w[1].dispatch, w[0].job, w[0].completion
                    ),
                });
            }
        }
    }
    let max_completion = report.jobs.iter().map(|j| j.completion).max().unwrap_or(0);
    if report.makespan != max_completion {
        v.push(Violation {
            oracle: "serve-makespan",
            core: None,
            detail: format!("makespan {} != max completion {}", report.makespan, max_completion),
        });
    }
    let max_latency = report.jobs.iter().map(|j| j.latency()).max().unwrap_or(0);
    #[allow(clippy::float_cmp)] // exact: the stats were built from these integers
    if report.latency.max != max_latency as f64 {
        v.push(Violation {
            oracle: "serve-latency-max",
            core: None,
            detail: format!("latency.max {} != worst job {}", report.latency.max, max_latency),
        });
    }
    v
}

/// Metamorphic law: delaying one job's arrival never *decreases* any other
/// job's completion cycle under private resources.
///
/// `spec` must pin every job to its own distinct core (so the delayed job
/// cannot free a core earlier or later for anyone else) and should use a
/// non-dynamic sharing level ([`mnpu_engine::SharingLevel::Static`] or
/// `Ideal`) so the only coupling between jobs is event-time granularity,
/// covered by the slack. Runs `spec` twice — as given, and with job
/// `delayed`'s arrival pushed back by `delay` — and reports a violation
/// for every other job whose completion moved earlier by more than the
/// slack, plus the delayed job itself if it completed earlier at all.
///
/// # Panics
///
/// Panics if `delayed` is out of range or a job is not pinned.
pub fn check_delay_law(spec: &ScenarioSpec, delayed: usize, delay: u64) -> Vec<Violation> {
    assert!(delayed < spec.jobs.len(), "delayed job out of range");
    assert!(
        spec.jobs.iter().all(|j| j.core.is_some()),
        "delay law requires every job pinned to its own core"
    );
    let arr = arrivals(spec);
    let base = serve(spec);

    let mut shifted = spec.clone();
    // Freeze the base arrivals explicitly, then push one back.
    shifted.arrival = ArrivalSpec::Explicit;
    for (j, a) in shifted.jobs.iter_mut().zip(&arr) {
        j.arrival = Some(*a);
    }
    shifted.jobs[delayed].arrival = Some(arr[delayed] + delay);
    let after = serve(&shifted);

    let mut v = Vec::new();
    for i in 0..spec.jobs.len() {
        let (b, a) = (base.jobs[i].completion, after.jobs[i].completion);
        if i == delayed {
            continue;
        }
        if a + isolation_slack(b) < b {
            v.push(Violation {
                oracle: "serve-delay-monotone",
                core: Some(base.jobs[i].core),
                detail: format!(
                    "delaying job {delayed} by {delay} moved job {i}'s completion \
                     from {b} to {a} (earlier beyond slack)"
                ),
            });
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_config::parse_scenario;

    #[test]
    fn clean_scenario_passes_every_oracle() {
        let spec = parse_scenario(
            "t",
            "cores = 2\npattern = fixed:1000\njob = ncf\njob = ncf\njob = ncf\n",
        )
        .unwrap();
        let r = serve(&spec);
        assert_eq!(check_serve(&spec, &r), Vec::new());
    }

    #[test]
    fn tampered_report_is_caught() {
        let spec = parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\n").unwrap();
        let mut r = serve(&spec);
        r.jobs[1].dispatch = r.jobs[1].arrival.wrapping_sub(1);
        let oracles: Vec<&str> = check_serve(&spec, &r).iter().map(|v| v.oracle).collect();
        assert!(oracles.contains(&"serve-causality"), "{oracles:?}");

        let mut r2 = serve(&spec);
        r2.jobs[0].completion += 1; // breaks exclusivity bookkeeping downstream
        let oracles: Vec<&str> = check_serve(&spec, &r2).iter().map(|v| v.oracle).collect();
        assert!(!oracles.is_empty(), "tampering must trip at least one oracle");
    }

    #[test]
    fn delay_law_holds_on_a_private_chip() {
        let spec = parse_scenario(
            "t",
            "cores = 2\nsharing = Static\npolicy = pinned\n\
             job = ncf @ 0 on 0\njob = dlrm @ 0 on 1\n",
        )
        .unwrap();
        assert_eq!(check_delay_law(&spec, 0, 500_000), Vec::new());
    }
}
