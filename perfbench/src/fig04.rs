//! `fig04_sweep`: the paper's Fig. 4 dual-core sweep (8 Ideal solos + 36
//! mixes x 4 co-run levels = 152 simulations), run serially on a fresh
//! `Harness` with the run cache off, as one closed batch with no seed.

use crate::out::{fnv_hex, peak_rss_mb, Metric, Outcome};
use crate::stats::{median, ratio};
use mnpu_bench::{plan_units, sweeps, Harness, SweepRequest, SweepUnit};
use mnpu_engine::{Advance, RunReport, SimSnapshot, Simulation};
use mnpu_systolic::{ArchConfig, WorkloadTrace};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Pinned at the commit that defined this benchmark: the sweep's summed
/// `total_cycles` and DRAM transactions, identical with fastfwd and
/// prefix sharing on or off.
pub const CYCLES: u64 = 123_361_756;
pub const DRAM_TXNS: u64 = 59_872_943;
const SIMS: usize = 152;

/// One FNV-1a digest of `RunReport::to_json` per simulation, in request
/// order (`sweeps::fig04()` order).
const DIGESTS: &str = include_str!("../data/fig04_digests.txt");

/// Set-ups timed per run; the last one's harness runs the sweep. A set-up
/// takes about 0.1 ms, so only a median over many keeps `setup_s` steady.
const SETUP_REPS: usize = 25;

fn pinned_digests() -> Vec<&'static str> {
    DIGESTS.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
}

/// Fresh harness plus the request list: everything before the first
/// simulated cycle.
fn setup() -> (Harness, Vec<SweepRequest>) {
    (Harness::new(), sweeps::fig04())
}

/// One sweep through `sweeps::run_counts`: its wall time and counts
/// (`None` when it panicked).
fn run_sweep(h: &Harness, reqs: &[SweepRequest]) -> (f64, Option<sweeps::SweepCounts>) {
    let start = Instant::now();
    let counts = catch_unwind(AssertUnwindSafe(|| sweeps::run_counts(h, reqs))).ok();
    (start.elapsed().as_secs_f64(), counts)
}

/// The untraced pass: setup timings, then one full sweep on a fresh
/// harness (a fixed closed batch: `--seconds` does not change it). The
/// sweep is one request, due when it starts and answered when it returns,
/// so its latency is its wall time.
pub fn untraced() -> (Outcome, Option<String>) {
    let pinned = pinned_digests();
    let mut out = Outcome::default();
    if pinned.len() != SIMS {
        out.problem(format!("data/fig04_digests.txt holds {} digests, want {SIMS}", pinned.len()));
    }
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let t = Instant::now();
        drop(std::hint::black_box(setup()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let (h, reqs) = setup();
    setups.push(t.elapsed().as_secs_f64());
    let (wall_s, counts) = run_sweep(&h, &reqs);
    out.attempted += SIMS as u64;
    let last_digest = match &counts {
        None => {
            out.failed += SIMS as u64;
            out.problem("fig04 sweep panicked".to_string());
            None
        }
        Some(c) => {
            let digest = c.last_report.as_ref().map(|r| fnv_hex(r.to_json().as_bytes()));
            let ok = c.sims == SIMS
                && c.simulated_cycles == CYCLES
                && c.dram_transactions == DRAM_TXNS
                && digest.as_deref() == pinned.last().copied();
            if !ok {
                out.failed += SIMS as u64;
                out.problem(format!(
                    "fig04 counts {} (last report {:?}); want sims {SIMS}, cycles {CYCLES}, \
                         dram txns {DRAM_TXNS}, last report {:?}",
                    c.to_json(),
                    digest,
                    pinned.last()
                ));
            }
            out.note(format!(
                "fig04 counts {} last_report {}",
                c.to_json(),
                digest.as_deref().unwrap_or("-")
            ));
            digest
        }
    };
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("latency_p50_ms", wall_s * 1e3, "ms"),
        Metric::new("latency_p90_ms", wall_s * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb("self"), "MB"),
    ];
    (out, last_digest)
}

/// Host-time and work counters the traced pass accumulates.
#[derive(Default)]
struct Layers {
    trace_s: f64,
    build_s: f64,
    advance_s: f64,
    advance_calls: u64,
    report_s: f64,
    fork_s: f64,
    forks: u64,
    fork_misses: u64,
    restore_s: f64,
    single_s: f64,
    group_s: f64,
    variant_cycles: u64,
    saved_cycles: u64,
}

impl Layers {
    fn drive(&mut self, sim: &mut Simulation, stop: u64) -> Advance {
        loop {
            let t = Instant::now();
            let a = sim.advance(stop);
            self.advance_s += t.elapsed().as_secs_f64();
            self.advance_calls += 1;
            if !matches!(a, Advance::CoreFinished { .. }) {
                return a;
            }
        }
    }

    fn finish(&mut self, sim: Simulation) -> (RunReport, String) {
        let t = Instant::now();
        let report = sim.into_report();
        let json = report.to_json();
        self.report_s += t.elapsed().as_secs_f64();
        (report, json)
    }

    fn fork(&mut self, sim: &Simulation, i: usize) -> Option<SimSnapshot> {
        let t = Instant::now();
        let snap = sim.fork_snapshot(i);
        self.fork_s += t.elapsed().as_secs_f64();
        if snap.is_some() {
            self.forks += 1;
        } else {
            self.fork_misses += 1;
        }
        snap
    }
}

/// The traced pass: the same 152 simulations, each execution unit stepped
/// through the engine's public API so every call is timed. Singles follow
/// `Simulation::execute` (`new`, `advance` to drained, `into_report`);
/// prefix groups follow `Harness::run_reports_shared` (shadow configs,
/// `fork_snapshot` every 2^16 cycles, `restore` per variant).
pub fn traced(untraced_wall_s: f64, untraced_last: Option<&str>) -> Outcome {
    let mut out = Outcome::default();
    let pinned = pinned_digests();
    let (h, reqs) = setup();
    let before = mnpu_trace::counters::snapshot();
    let mut l = Layers::default();
    let mut traces: HashMap<(usize, ArchConfig), WorkloadTrace> = HashMap::new();
    let mut reports: Vec<Option<(RunReport, String)>> = reqs.iter().map(|_| None).collect();
    let start = Instant::now();
    let units = plan_units(reqs.iter().map(|(cfg, ws)| (cfg, ws.as_slice())));
    for unit in &units {
        let tu = Instant::now();
        let members: Vec<usize> = match unit {
            SweepUnit::Single(i) => vec![*i],
            SweepUnit::Group(m) => m.clone(),
        };
        let (rep_cfg, ws) = &reqs[members[0]];
        let t = Instant::now();
        let unit_traces: Vec<WorkloadTrace> = ws
            .iter()
            .zip(&rep_cfg.arch)
            .map(|(&w, a)| {
                traces
                    .entry((w, a.clone()))
                    .or_insert_with(|| WorkloadTrace::generate(&h.networks()[w], a))
                    .clone()
            })
            .collect();
        l.trace_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut rep = Simulation::new(rep_cfg, &unit_traces);
        for &v in &members[1..] {
            rep.add_shadow_config(&reqs[v].0);
        }
        l.build_s += t.elapsed().as_secs_f64();
        if members.len() == 1 {
            l.drive(&mut rep, u64::MAX);
            reports[members[0]] = Some(l.finish(rep));
            l.single_s += tu.elapsed().as_secs_f64();
            continue;
        }
        // Prefix group, exactly as `Harness::run_reports_shared` runs it.
        let variants = members.len() - 1;
        let mut forks: Vec<SimSnapshot> =
            (0..variants).map(|i| l.fork(&rep, i).expect("pristine shadows fork")).collect();
        const CHUNK: u64 = 1 << 16;
        let mut stop = CHUNK;
        let refresh = |l: &mut Layers, rep: &Simulation, forks: &mut Vec<SimSnapshot>| {
            for (i, fork) in forks.iter_mut().enumerate() {
                if let Some(snap) = l.fork(rep, i) {
                    *fork = snap;
                }
            }
        };
        loop {
            match l.drive(&mut rep, stop) {
                Advance::Drained => break,
                _ => {
                    refresh(&mut l, &rep, &mut forks);
                    stop = stop.saturating_add(CHUNK);
                }
            }
        }
        refresh(&mut l, &rep, &mut forks);
        reports[members[0]] = Some(l.finish(rep));
        for (&v, fork) in members[1..].iter().zip(&forks) {
            let t = Instant::now();
            let mut sim = Simulation::new(&reqs[v].0, &unit_traces);
            l.build_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            sim.restore(fork).expect("a fork restores into its own variant");
            l.restore_s += t.elapsed().as_secs_f64();
            l.saved_cycles += sim.now();
            l.drive(&mut sim, u64::MAX);
            let (report, json) = l.finish(sim);
            l.variant_cycles += report.total_cycles;
            reports[v] = Some((report, json));
        }
        l.group_s += tu.elapsed().as_secs_f64();
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = mnpu_trace::counters::snapshot();

    let (mut cycles, mut txns, mut row_hits, mut lat_sum) = (0u64, 0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut walks, mut coalesced, mut stalls) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut compute, mut core_cycles, mut noc_q) = (0u64, 0u64, 0u64);
    let mut last = None;
    for (i, r) in reports.into_iter().enumerate() {
        out.attempted += 1;
        let (r, json) = r.expect("every request ran");
        let digest = fnv_hex(json.as_bytes());
        if pinned.get(i) != Some(&digest.as_str()) {
            out.failed += 1;
            out.problem(format!(
                "fig04 simulation {i}: digest {digest}, pinned {:?}",
                pinned.get(i)
            ));
        }
        cycles += r.total_cycles;
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
        last = Some(digest);
    }
    if cycles != CYCLES || txns != DRAM_TXNS {
        out.problem(format!("traced fig04: cycles {cycles}, dram txns {txns}"));
    }
    if last.as_deref() != untraced_last {
        out.problem(format!("traced last report {last:?} != untraced {untraced_last:?}"));
    }
    let self_s = l.trace_s + l.build_s + l.advance_s + l.report_s + l.fork_s + l.restore_s;
    let simulated = (cycles - l.saved_cycles) as f64;
    out.note(format!(
        "fig04 traced: {} units, wall {wall_s:.3}s = self {self_s:.3}s + unattributed {:.3}s",
        units.len(),
        wall_s - self_s
    ));
    out.metrics = vec![
        Metric::new("engine.build_s", l.build_s, "s"),
        Metric::new("engine.advance_s", l.advance_s, "s"),
        Metric::new("engine.advance_calls", l.advance_calls as f64, "count"),
        Metric::new("engine.mcycles_per_s", ratio(simulated / 1e6, l.advance_s), "Mcycles/s"),
        Metric::new("engine.report_s", l.report_s, "s"),
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
        Metric::new("systolic.trace_s", l.trace_s, "s"),
        Metric::new("noc.queue_cycles", noc_q as f64, "cycles"),
        Metric::new("snapshot.forks", l.forks as f64, "count"),
        Metric::new("snapshot.fork_misses", l.fork_misses as f64, "count"),
        Metric::new("snapshot.fork_s", l.fork_s, "s"),
        Metric::new("snapshot.restore_s", l.restore_s, "s"),
        Metric::new("bench.single_s", l.single_s, "s"),
        Metric::new("bench.group_s", l.group_s, "s"),
        Metric::new(
            "bench.prefix_saved_cycle_frac",
            ratio(l.saved_cycles as f64, l.variant_cycles as f64),
            "frac",
        ),
        Metric::new("trace.unattributed_s", wall_s - self_s, "s"),
        Metric::new(
            "trace.overhead_frac",
            ratio(wall_s - untraced_wall_s, untraced_wall_s),
            "frac",
        ),
    ];
    out
}

/// Print the per-simulation digests `data/fig04_digests.txt` pins, from
/// the harness's own report paths (one line per request, request order).
pub fn print_digests() {
    let (h, reqs) = setup();
    let mut digests = vec![String::new(); reqs.len()];
    for unit in plan_units(reqs.iter().map(|(cfg, ws)| (cfg, ws.as_slice()))) {
        match unit {
            SweepUnit::Single(i) => {
                let (cfg, ws) = &reqs[i];
                digests[i] = fnv_hex(h.run_report(cfg, ws).to_json().as_bytes());
            }
            SweepUnit::Group(m) => {
                let cfgs: Vec<_> = m.iter().map(|&i| reqs[i].0.clone()).collect();
                for (&i, r) in m.iter().zip(h.run_reports_shared(&cfgs, &reqs[m[0]].1)) {
                    digests[i] = fnv_hex(r.to_json().as_bytes());
                }
            }
        }
    }
    println!("# FNV-1a 64 of RunReport::to_json, one per sweeps::fig04() request, in order");
    for d in digests {
        println!("{d}");
    }
}
