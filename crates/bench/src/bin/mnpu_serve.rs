//! Wall-clock throughput benchmark for the serve-mode scheduling layer.
//!
//! Serves a list of scheduling scenarios, one [`mnpu_sched::serve`] call
//! per scenario through [`mnpu_engine::FanOut`] (respecting `MNPU_JOBS`),
//! measuring end-to-end wall seconds, served jobs per wall second and
//! simulated makespan cycles, and appends the result to
//! `BENCH_serve.json` at the repository root — the scheduling layer's
//! perf trajectory across PRs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mnpu-bench --bin mnpu_serve [-- --tiny] [-- --scenario PATH]
//! ```
//!
//! * `--tiny` — a 2-scenario smoke workload (CI: catches panics or
//!   pathological slowdowns in the scheduling path in seconds);
//! * `--scenario PATH` — load one scenario file
//!   ([`mnpu_config::load_scenario`] format) instead of the built-in list
//!   and print its per-job records plus a completion-latency CDF;
//! * `--label NAME` — label recorded in the JSON entry (default `current`);
//! * `--check PATH` — compare this run's `jobs_per_sec` against the newest
//!   same-mode `"baseline"`-labeled entry in `PATH` and exit non-zero
//!   below `MNPU_BENCH_TOLERANCE` (default 0.95) of it;
//! * `--repeat N` — serve the list `N` times and keep the fastest
//!   (defaults to 5 under `--tiny`, 1 otherwise).
//!
//! `MNPU_BENCH_OUT` overrides the output path.

use mnpu_bench::history;
use mnpu_config::{load_scenario, parse_scenario, ScenarioSpec};
use mnpu_engine::FanOut;
use mnpu_sched::{serve, ServeReport};
use std::path::PathBuf;
use std::time::Instant;

struct ServeSweep {
    scenarios: usize,
    jobs: usize,
    wall_seconds: f64,
    simulated_cycles: u64,
    reports: Vec<ServeReport>,
}

/// Serve every scenario, reports in scenario order.
fn run_sweep(specs: &[ScenarioSpec]) -> ServeSweep {
    let t0 = Instant::now();
    let reports = FanOut::new().map(specs, serve);
    let wall_seconds = t0.elapsed().as_secs_f64();
    ServeSweep {
        scenarios: specs.len(),
        jobs: reports.iter().map(|r| r.jobs.len()).sum(),
        wall_seconds,
        simulated_cycles: reports.iter().map(|r| r.makespan).sum(),
        reports,
    }
}

fn parse_builtin(name: &str, text: &str) -> ScenarioSpec {
    parse_scenario(name, text).expect("built-in scenario parses")
}

/// The standard list: queueing pressure across core counts, policies and
/// arrival patterns, on the cheap end of the zoo so the sweep stays in the
/// seconds range.
fn serve_scenarios() -> Vec<ScenarioSpec> {
    vec![
        parse_builtin(
            "dual-firstfree",
            "cores = 2\npattern = fixed:100000\n\
             job = ncf\njob = dlrm\njob = ncf\njob = dlrm\njob = ncf\njob = dlrm\n",
        ),
        parse_builtin(
            "dual-bursty",
            "cores = 2\npattern = bursty:2:150000\nseed = 7\npolicy = round_robin\n\
             job = ncf\njob = ncf\njob = dlrm\njob = dlrm\njob = ncf\njob = ncf\n",
        ),
        parse_builtin(
            "quad-static",
            "cores = 4\nsharing = Static\npattern = fixed:50000\n\
             job = ncf\njob = dlrm\njob = ncf\njob = dlrm\n\
             job = ncf\njob = dlrm\njob = ncf\njob = dlrm\n",
        ),
    ]
}

/// CI smoke: two fast scenarios — seconds, not minutes.
fn tiny_scenarios() -> Vec<ScenarioSpec> {
    vec![
        parse_builtin("tiny-queue", "cores = 1\npattern = fixed:1000\njob = ncf\njob = ncf\n"),
        parse_builtin(
            "tiny-dual",
            "cores = 2\npattern = fixed:50000\npolicy = round_robin\n\
             job = ncf\njob = dlrm\njob = ncf\n",
        ),
    ]
}

/// Print the scenario's per-job records and its completion-latency CDF —
/// the raw material for the latency-CDF figure in EXPERIMENTS.md.
fn print_scenario_report(report: &ServeReport) {
    println!(
        "{:>4} {:>10} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "job", "workload", "core", "arrival", "queueing", "service", "latency"
    );
    for j in &report.jobs {
        println!(
            "{:>4} {:>10} {:>6} {:>12} {:>12} {:>12} {:>12}",
            j.job,
            j.workload,
            j.core,
            j.arrival,
            j.queueing(),
            j.service(),
            j.latency()
        );
    }
    let mut latencies: Vec<u64> = report.jobs.iter().map(|j| j.latency()).collect();
    latencies.sort_unstable();
    println!("latency CDF (cycles, fraction):");
    for (i, l) in latencies.iter().enumerate() {
        println!("cdf {l} {:.4}", (i + 1) as f64 / latencies.len() as f64);
    }
    println!(
        "latency p50 {:.0} p95 {:.0} p99 {:.0} mean {:.1} max {:.0}",
        report.latency.p50,
        report.latency.p95,
        report.latency.p99,
        report.latency.mean,
        report.latency.max
    );
    println!(
        "queueing p50 {:.0} max {:.0} | service p50 {:.0} max {:.0}",
        report.queueing.p50, report.queueing.max, report.service.p50, report.service.max
    );
    println!(
        "makespan {} cycles, throughput {:.3} jobs/Mcycle",
        report.makespan, report.throughput_per_mcycle
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let arg_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned());
    let label = arg_value("--label").unwrap_or_else(|| "current".to_string());
    let scenario_path = arg_value("--scenario").map(PathBuf::from);
    let check_path = arg_value("--check").map(PathBuf::from);
    let repeat = arg_value("--repeat")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if tiny { 5 } else { 1 })
        .max(1);

    let (mode, specs) = if let Some(path) = &scenario_path {
        let spec = match load_scenario(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to load {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        ("scenario", vec![spec])
    } else if tiny {
        ("tiny", tiny_scenarios())
    } else {
        ("serve", serve_scenarios())
    };

    let mut r = run_sweep(&specs);
    for _ in 1..repeat {
        let again = run_sweep(&specs);
        if again.wall_seconds < r.wall_seconds {
            r = again;
        }
    }

    if scenario_path.is_some() {
        print_scenario_report(&r.reports[0]);
    }

    let jobs_per_sec = r.jobs as f64 / r.wall_seconds;
    let entry = format!(
        "{{\"label\":\"{label}\",\"mode\":\"{mode}\",\"scenarios\":{},\"jobs\":{},\
         \"sweep_seconds\":{:.3},\"simulated_cycles\":{},\"jobs_per_sec\":{:.2}}}",
        r.scenarios, r.jobs, r.wall_seconds, r.simulated_cycles, jobs_per_sec
    );
    println!("{entry}");

    history::record("BENCH_serve.json", &entry);
    if let Some(path) = &check_path {
        history::check(path, mode, "jobs_per_sec", jobs_per_sec, "jobs/s", 2);
    }
}
