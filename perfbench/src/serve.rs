//! `serve_quad_noc`: three seeded `mnpu-sched` serve scenarios on a quad-core
//! `+DWT` bench chip behind a narrow NoC, with the predictor policy and
//! bursty arrivals. It drives the engine through attach/detach and
//! advance-to-arrival under 4-way contention, and it is the only workload
//! where the NoC, the scheduler and the predictor do work.

use crate::out::{fnv_hex, peak_rss_mb, Metric, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile, ratio, spread};
use mnpu_config::parse_scenario;
use mnpu_model::zoo::MODEL_NAMES;
use mnpu_noc::NocConfig;
use mnpu_sched::{ScenarioSpec, ServeReport, ServeSession};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The scenario's bursts, as zoo indices: every model arrives in exactly
/// four bursts, each time beside a different set of three others. The
/// seed orders the bursts and the jobs within each burst, so every seed
/// offers the same work while the arrival order differs.
const BURSTS: [[usize; 4]; 8] = [
    [0, 1, 2, 3],
    [4, 5, 6, 7],
    [0, 2, 4, 6],
    [1, 3, 5, 7],
    [0, 1, 4, 5],
    [2, 3, 6, 7],
    [0, 3, 5, 6],
    [1, 2, 4, 7],
];
const BURST: usize = 4;
const JOBS: usize = BURST * BURSTS.len();
/// Mean gap between bursts, in global cycles.
const MEAN_GAP: u64 = 400_000;

/// The scenario's own seed (bursty gaps, predictor training) is fixed, so
/// `--seed` varies only the job order: set-up work and the arrival pattern
/// are the same on every run.
const SCENARIO_SEED: u64 = 1;

/// Scenarios per run, each a different seeded arrival order of the same
/// jobs: one order alone moves the run's numbers by more than the bounds.
const SCENARIOS: usize = 3;

/// The seed whose report digests are pinned (one per scenario); any other
/// seed prints its digests so two commits can be compared.
pub const DEFAULT_SEED: u64 = 1;
const DEFAULT_DIGESTS: [&str; SCENARIOS] =
    ["a9b4d890437934f7", "4c5e864b68418a16", "17545df43948cec7"];

/// The scenario file texts for `seed`, one per arrival order: the program
/// only ever sees these.
pub fn scenario_texts(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..SCENARIOS).map(|_| scenario_text(seed, &mut rng)).collect()
}

fn scenario_text(seed: u64, rng: &mut Rng) -> String {
    let mut bursts = BURSTS;
    rng.shuffle(&mut bursts);
    for b in &mut bursts {
        rng.shuffle(b);
    }
    let names = bursts.iter().flatten().map(|&m| MODEL_NAMES[m]);
    let mut text = format!(
        "# serve_quad_noc, seed {seed}\ncores = 4\nsharing = +DWT\npreset = bench\nscale = bench\n\
         seed = {SCENARIO_SEED}\npattern = bursty:{BURST}:{MEAN_GAP}\npolicy = predictor\n"
    );
    for n in names {
        text.push_str(&format!("job = {n}\n"));
    }
    text
}

/// Parse the scenario and put the narrow NoC on its chip.
fn parse(text: &str) -> ScenarioSpec {
    let mut spec = parse_scenario("serve_quad_noc", text).expect("the generated scenario parses");
    spec.system = spec.system.with_noc(NocConfig::narrow());
    spec
}

/// One repetition: set-up (parse + `ServeSession::new`, which trains the
/// predictor), then the serve loop `ServeSession::run` is made of, with
/// each job's host latency.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    latency_s: Vec<f64>,
    report: Option<(ServeReport, String)>,
}

fn rep(text: &str) -> Rep {
    let t0 = Instant::now();
    let mut setup_s = 0.0;
    let mut marks: Vec<(u64, f64)> = Vec::new();
    let mut start = t0;
    let report = catch_unwind(AssertUnwindSafe(|| {
        let spec = parse(text);
        let mut s = ServeSession::new(&spec);
        start = Instant::now();
        setup_s = (start - t0).as_secs_f64();
        loop {
            let more = s.step();
            marks.push((s.now(), start.elapsed().as_secs_f64()));
            if !more {
                break;
            }
        }
        let report = s.into_report();
        let json = report.to_json();
        (report, json)
    }));
    let wall_s = start.elapsed().as_secs_f64();
    match report {
        Ok(r) => Rep { setup_s, wall_s, latency_s: host_latencies(&r.0, &marks), report: Some(r) },
        Err(_) => Rep { setup_s, wall_s, latency_s: vec![wall_s; JOBS], report: None },
    }
}

/// Each job's host latency: from the end of the step that brought the
/// simulated clock to its arrival (it is admitted at the next step) to the
/// end of the step that reached its completion. `marks` holds the clock and
/// host seconds after every step; the final step ends the loop.
fn host_latencies(report: &ServeReport, marks: &[(u64, f64)]) -> Vec<f64> {
    let at = |cycle: u64| {
        let k = marks.partition_point(|&(now, _)| now < cycle);
        marks.get(k).map_or(marks.last().map_or(0.0, |m| m.1), |m| m.1)
    };
    report
        .jobs
        .iter()
        .map(|j| at(j.completion) - if j.arrival == 0 { 0.0 } else { at(j.arrival) })
        .collect()
}

/// Check one scenario's report: every job ran, in causal order, and for
/// the default seed the digest is the pinned one. Returns the digest.
fn check(out: &mut Outcome, seed: u64, i: usize, report: Option<&(ServeReport, String)>) -> String {
    out.attempted += JOBS as u64;
    let Some((report, json)) = report else {
        out.failed += JOBS as u64;
        out.problem(format!("serve scenario {i} panicked"));
        return String::new();
    };
    let digest = fnv_hex(json.as_bytes());
    out.note(format!("serve_quad_noc seed {seed} scenario {i} report digest {digest}"));
    let causal = report.jobs.len() == JOBS
        && report.jobs.iter().all(|j| j.arrival <= j.dispatch && j.dispatch < j.completion);
    let pinned = seed != DEFAULT_SEED || digest == DEFAULT_DIGESTS[i];
    if !causal || !pinned {
        out.failed += JOBS as u64;
        out.problem(format!(
            "serve scenario {i}: {} jobs, causal {causal}, digest {digest} (pinned for seed \
             {DEFAULT_SEED}: {})",
            report.jobs.len(),
            DEFAULT_DIGESTS[i]
        ));
    }
    digest
}

/// The untraced pass: every scenario once; medians of set-up and loop
/// time, latency percentiles over all their jobs.
pub fn untraced(seed: u64) -> (Outcome, Vec<String>, f64) {
    let t0 = Instant::now();
    let mut out = Outcome::default();
    let (mut setups, mut walls, mut latencies, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, text) in scenario_texts(seed).iter().enumerate() {
        let r = rep(text);
        digests.push(check(&mut out, seed, i, r.report.as_ref()));
        setups.push(r.setup_s);
        walls.push(r.wall_s);
        latencies.extend(r.latency_s);
    }
    out.note(format!(
        "serve_quad_noc scenarios {} setup_s {setups:?} wall_s {walls:?} (spread {:.3})",
        walls.len(),
        spread(&walls)
    ));
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("latency_p50_ms", percentile(&latencies, 50) * 1e3, "ms"),
        Metric::new("latency_p90_ms", percentile(&latencies, 90) * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb("self"), "MB"),
    ];
    (out, digests, t0.elapsed().as_secs_f64())
}

/// The traced pass: the same scenarios with `ServeSession::new` and every
/// `step` timed, and the run reports' simulated counters read back.
pub fn traced(seed: u64, untraced_s: f64, untraced_digests: &[String]) -> Outcome {
    let mut out = Outcome::default();
    let before = mnpu_trace::counters::snapshot();
    let (mut new_s, mut step_s, mut steps, mut report_s) = (0.0, 0.0, 0u64, 0.0);
    let mut makespan = 0u64;
    let (mut txns, mut row_hits, mut lat_sum) = (0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut walks, mut coalesced, mut stalls) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut compute, mut core_cycles, mut noc_q) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for (i, text) in scenario_texts(seed).iter().enumerate() {
        let spec = parse(text);
        let t = Instant::now();
        let mut s = ServeSession::new(&spec);
        new_s += t.elapsed().as_secs_f64();
        loop {
            let t = Instant::now();
            let more = s.step();
            step_s += t.elapsed().as_secs_f64();
            steps += 1;
            if !more {
                break;
            }
        }
        let t = Instant::now();
        let report = s.into_report();
        let json = report.to_json();
        report_s += t.elapsed().as_secs_f64();

        out.attempted += JOBS as u64;
        let digest = fnv_hex(json.as_bytes());
        if untraced_digests.get(i) != Some(&digest) {
            out.failed += JOBS as u64;
            out.problem(format!("traced serve scenario {i}: digest {digest} != untraced"));
        }
        makespan += report.makespan;
        let r = &report.run;
        txns += r.dram.total.transactions();
        row_hits += r.dram.total.row_hits;
        lat_sum += r.dram.total.latency_sum;
        for c in &r.cores {
            hits += c.mmu.tlb_hits;
            misses += c.mmu.tlb_misses;
            walks += c.mmu.walks;
            coalesced += c.mmu.coalesced;
            stalls += c.mmu.walker_stalls;
            compute += c.compute_cycles;
            core_cycles += c.cycles;
            noc_q += c.noc_queue_cycles;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = mnpu_trace::counters::snapshot();
    let self_s = new_s + step_s + report_s;
    out.note(format!(
        "serve traced: {SCENARIOS} scenarios, {steps} steps, makespans {makespan} cycles; \
         wall {wall_s:.3}s = self {self_s:.3}s + unattributed {:.3}s",
        wall_s - self_s
    ));
    // `step` wraps exactly one `Simulation::advance` call; the engine's
    // share of it needs spans inside the engine.
    out.metrics = vec![
        Metric::new("engine.advance_calls", steps as f64, "count"),
        Metric::new("engine.mcycles_per_s", ratio(makespan as f64 / 1e6, step_s), "Mcycles/s"),
        Metric::new("engine.report_s", report_s, "s"),
        Metric::new("dram.txns", txns as f64, "count"),
        Metric::new("dram.row_hit_frac", ratio(row_hits as f64, txns as f64), "frac"),
        Metric::new("dram.mean_latency_cycles", ratio(lat_sum as f64, txns as f64), "cycles"),
        Metric::new(
            "dram.fastfwd_frac",
            ratio((after.fastfwd_commits - before.fastfwd_commits) as f64, txns as f64),
            "frac",
        ),
        Metric::new("mmu.tlb_miss_frac", ratio(misses as f64, (hits + misses) as f64), "frac"),
        Metric::new("mmu.walks", walks as f64, "count"),
        Metric::new("mmu.coalesced_frac", ratio(coalesced as f64, misses as f64), "frac"),
        Metric::new("mmu.walker_stalls", stalls as f64, "count"),
        Metric::new("systolic.compute_frac", ratio(compute as f64, core_cycles as f64), "frac"),
        Metric::new("noc.queue_cycles", noc_q as f64, "cycles"),
        Metric::new("sched.new_s", new_s, "s"),
        Metric::new("sched.step_s", step_s, "s"),
        Metric::new("sched.steps", steps as f64, "count"),
        Metric::new("trace.unattributed_s", wall_s - self_s, "s"),
        Metric::new("trace.overhead_frac", ratio(wall_s - untraced_s, untraced_s), "frac"),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_offer_the_same_jobs_in_seeded_order() {
        let a = scenario_texts(1);
        assert_eq!(a, scenario_texts(1));
        assert_ne!(a, scenario_texts(2));
        assert_eq!(a.len(), SCENARIOS);
        assert!(a[0] != a[1] && a[1] != a[2]);
        for text in a.iter().chain(&scenario_texts(2)) {
            let spec = parse(text);
            assert_eq!(spec.jobs.len(), JOBS);
            assert_eq!(spec.system.noc, Some(NocConfig::narrow()));
            assert_eq!(spec.system.cores, 4);
            for name in MODEL_NAMES {
                assert_eq!(spec.jobs.iter().filter(|j| j.network == name).count(), 4, "{name}");
            }
        }
    }
}
