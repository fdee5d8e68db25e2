//! Wall-clock throughput benchmark for the simulation hot path.
//!
//! Runs the fig04 dual-core sweep workloads (all 36 mixes × 4 co-run
//! sharing levels plus the 8 Ideal solos — 152 simulations) through
//! [`sweeps::run_counts`] on `MNPU_JOBS` workers (default: available
//! parallelism), measuring end-to-end sweep seconds and
//! simulated-cycles-per-second, and appends the result to
//! `BENCH_hotpath.json` at the repository root — the perf trajectory
//! across PRs. Every entry records its worker count as `"jobs"` and the
//! host's `"available_parallelism"`: the counts are byte-identical for any
//! worker count, the seconds are not, so only entries with equal values
//! of both compare. The CI gate pins `MNPU_JOBS=1` so it measures
//! the single-thread hot path against the serial `baseline` entry.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mnpu-bench --bin mnpu_hotpath [-- --tiny] [-- --label NAME]
//! ```
//!
//! * `--tiny` — a 5-simulation smoke workload including one warm-start
//!   prefix group (CI: catches pathological slowdowns or panics in the
//!   bench path without paying for the sweep);
//! * `--label NAME` — label recorded in the JSON entry (default `current`);
//! * `--probe-stats` — run every simulation with the statistics probe
//!   ([`mnpu_engine::ProbeMode::Stats`]) instead of the zero-cost null
//!   probe, to measure the observability overhead;
//! * `--csv PATH` — write the final simulation's per-core counter CSV
//!   ([`mnpu_engine::Format::Csv`]) to `PATH` (a CI artifact);
//! * `--check PATH` — compare this run's `simulated_cycles_per_sec`
//!   against the newest same-mode `"baseline"`-labeled entry in `PATH` and
//!   exit non-zero below `MNPU_BENCH_TOLERANCE` (default 0.95) of it;
//! * `--repeat N` — run the sweep `N` times and keep the fastest
//!   (best-of-N suppresses scheduler noise; defaults to 5 under `--tiny`,
//!   where the sweep is tens of milliseconds, and 1 otherwise);
//! * `--flight-gate` — instead of recording an entry, run an in-process
//!   A/B of the same sweep with the flight recorder off and on (an
//!   installed [`mnpu_trace::TraceHandle`] receiving per-unit progress
//!   and ring events — the always-on telemetry the daemon attaches to
//!   every job), assert the accumulated counts are byte-identical, and
//!   exit non-zero when recorder-on throughput falls below
//!   `MNPU_FLIGHT_TOLERANCE` (default 0.95) of recorder-off — the CI
//!   overhead gate for the observability layer. The *dense* per-event
//!   instrumentation ([`mnpu_engine::ProbeMode::Flight`]) is opt-in per
//!   job and priced like `--probe-stats`, so it is reported but not
//!   gated.
//!
//! `MNPU_BENCH_OUT` overrides the output path. `MNPU_NO_PREFIX_SHARE=1`
//! disables warm-start prefix sharing across sharing levels; the recorded
//! `simulated_cycles` and `dram_transactions` are identical in both modes
//! (the entry's `prefix_share` field says which one ran).

use mnpu_bench::{history, prefix_share_enabled, sweeps, Harness, SweepCounts};
use mnpu_engine::{Emit, FanOut, Format, ProbeMode};
use std::path::PathBuf;
use std::time::Instant;

struct SweepResult {
    wall_seconds: f64,
    counts: SweepCounts,
}

/// Time one pass of [`sweeps::run_counts`] — the counts themselves come
/// from the shared sweep definitions, so this binary, the CI smoke and the
/// daemon all accumulate identical numbers.
fn run_sweep(h: &Harness, reqs: &[sweeps::SweepRequest]) -> SweepResult {
    let t0 = Instant::now();
    let counts = sweeps::run_counts(h, reqs);
    SweepResult { wall_seconds: t0.elapsed().as_secs_f64(), counts }
}

/// Time one recorder-on pass: the sweep runs with a
/// [`TraceHandle`](mnpu_trace::TraceHandle) installed and receiving
/// per-unit progress — exactly the telemetry the daemon attaches to every
/// job it dispatches.
fn run_sweep_observed(
    h: &Harness,
    reqs: &[sweeps::SweepRequest],
    trace: &mnpu_trace::TraceHandle,
) -> SweepResult {
    let _g = mnpu_trace::install(trace);
    let t0 = Instant::now();
    let counts = sweeps::run_counts_observed(h, reqs, FanOut::new(), Some(trace), &mut || false)
        .expect("an unstoppable sweep always completes");
    SweepResult { wall_seconds: t0.elapsed().as_secs_f64(), counts }
}

/// The `--flight-gate` A/B: interleaved best-of-N passes of the same
/// requests with the always-on recorder off and on, counts checked for
/// identity, throughput checked against the tolerance. The opt-in dense
/// probe ([`ProbeMode::Flight`]) is timed once and reported, not gated.
/// Exits the process.
fn flight_gate(h: &Harness, reqs: &[sweeps::SweepRequest], repeat: usize) -> ! {
    // Warm both sides once: trace memoization and page-cache effects must
    // not be charged to whichever side runs first.
    let trace = mnpu_trace::TraceHandle::new();
    let warm_off = run_sweep(h, reqs);
    let warm_on = run_sweep_observed(h, reqs, &trace);
    assert_eq!(
        warm_off.counts.to_json(),
        warm_on.counts.to_json(),
        "the flight recorder changed accumulated counts — determinism violation"
    );
    let (mut off, mut on) = (warm_off.wall_seconds, warm_on.wall_seconds);
    for _ in 0..repeat {
        off = off.min(run_sweep(h, reqs).wall_seconds);
        on = on.min(run_sweep_observed(h, reqs, &trace).wall_seconds);
    }
    // Informational: the dense per-event probe, priced like --probe-stats.
    let mut dense_reqs = reqs.to_vec();
    for (cfg, _) in &mut dense_reqs {
        cfg.probe = ProbeMode::Flight;
    }
    let dense = {
        let _g = mnpu_trace::install(&trace);
        run_sweep(h, &dense_reqs)
    };
    assert_eq!(
        warm_off.counts.to_json(),
        dense.counts.to_json(),
        "the dense flight probe changed accumulated counts — determinism violation"
    );
    let tolerance = std::env::var("MNPU_FLIGHT_TOLERANCE")
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.95);
    let ratio = off / on; // recorder-on throughput relative to off
    println!(
        "{{\"flight_gate\":{},\"off_seconds\":{off:.4},\"on_seconds\":{on:.4},\
         \"throughput_ratio\":{ratio:.3},\"tolerance\":{tolerance:.2},\
         \"dense_probe_seconds\":{:.4}}}",
        ratio >= tolerance,
        dense.wall_seconds
    );
    if ratio < tolerance {
        eprintln!(
            "FLIGHT OVERHEAD: recorder-on ran at {:.1}% of recorder-off throughput \
             (floor {:.1}%)",
            ratio * 100.0,
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    eprintln!(
        "flight gate ok: recorder-on at {:.1}% of recorder-off throughput (floor {:.1}%)",
        ratio * 100.0,
        tolerance * 100.0
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let probe_stats = args.iter().any(|a| a == "--probe-stats");
    let arg_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned());
    let label = arg_value("--label").unwrap_or_else(|| "current".to_string());
    let csv_path = arg_value("--csv").map(PathBuf::from);
    let check_path = arg_value("--check").map(PathBuf::from);
    let repeat = arg_value("--repeat")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if tiny { 5 } else { 1 })
        .max(1);

    // The throughput benchmark must always measure real simulations.
    std::env::set_var("MNPU_NO_CACHE", "1");

    let h = Harness::new();
    let (mode, mut reqs) = if tiny { ("tiny", sweeps::tiny()) } else { ("fig04", sweeps::fig04()) };
    if args.iter().any(|a| a == "--flight-gate") {
        flight_gate(&h, &reqs, repeat);
    }
    if probe_stats {
        for (cfg, _) in &mut reqs {
            cfg.probe = ProbeMode::Stats;
        }
    }
    let mut r = run_sweep(&h, &reqs);
    for _ in 1..repeat {
        let again = run_sweep(&h, &reqs);
        if again.wall_seconds < r.wall_seconds {
            r = again;
        }
    }

    let cycles_per_sec = r.counts.simulated_cycles as f64 / r.wall_seconds;
    let probe_name = if probe_stats { "stats" } else { "null" };
    let prefix_share = if prefix_share_enabled() { "on" } else { "off" };
    let entry = format!(
        "{{\"label\":\"{label}\",\"mode\":\"{mode}\",\"probe\":\"{probe_name}\",\
         \"prefix_share\":\"{prefix_share}\",\"jobs\":{},\"available_parallelism\":{},\
         \"sims\":{},\"sweep_seconds\":{:.3},\"simulated_cycles\":{},\
         \"simulated_cycles_per_sec\":{:.0},\"dram_transactions\":{}}}",
        FanOut::new().jobs(),
        std::thread::available_parallelism().map_or(1, usize::from),
        r.counts.sims,
        r.wall_seconds,
        r.counts.simulated_cycles,
        cycles_per_sec,
        r.counts.dram_transactions
    );
    println!("{entry}");

    if let Some(path) = &csv_path {
        let report = r.counts.last_report.as_ref().expect("sweep ran at least one simulation");
        let mut buf = Vec::new();
        report.emit(Format::Csv, &mut buf).expect("Vec sink never fails");
        if let Err(e) = std::fs::write(path, buf) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("stats CSV written to {}", path.display());
    }

    history::record("BENCH_hotpath.json", &entry);
    if let Some(path) = &check_path {
        history::check(path, mode, "simulated_cycles_per_sec", cycles_per_sec, "cycles/s", 0);
    }
}
