//! The repository benchmark. `perfbench/run.py` builds this binary and the
//! `mnpu_serviced` daemon, then runs
//!
//! ```text
//! perfbench --workload <fig04_sweep|serve_quad_noc|daemon_open> --seed N
//!           --seconds S --trace <0|1> [--daemon PATH] [--commit ID]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! measurement itself in the way. `--trace 1` repeats that untraced pass
//! and then runs the same inputs again with every call into a layer timed,
//! printing the per-layer metrics; the two passes must produce identical
//! outputs. The last line of stdout is the JSON result.
//!
//! `perfbench fig04-digests` prints one report digest per fig04
//! simulation, the list pinned in `data/fig04_digests.txt`.

mod daemon;
mod fig04;
mod http;
mod out;
mod rng;
mod serve;
mod stats;

use out::Metric;
use std::time::Duration;

/// End-to-end metrics, printed by `--trace 0` for every workload.
const END_TO_END: [&str; 5] = ["setup_s", "wall_s", "latency_p50_ms", "peak_rss_mb", "ok_frac"];

/// Per-layer metrics (name, unit), printed by `--trace 1` for every
/// workload; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("engine.build_s", "s"),
    ("engine.advance_s", "s"),
    ("engine.advance_calls", "count"),
    ("engine.mcycles_per_s", "Mcycles/s"),
    ("engine.report_s", "s"),
    ("dram.txns", "count"),
    ("dram.row_hit_frac", "frac"),
    ("dram.mean_latency_cycles", "cycles"),
    ("dram.fastfwd_frac", "frac"),
    ("mmu.tlb_miss_frac", "frac"),
    ("mmu.walks", "count"),
    ("mmu.coalesced_frac", "frac"),
    ("mmu.walker_stalls", "count"),
    ("systolic.compute_frac", "frac"),
    ("systolic.trace_s", "s"),
    ("noc.queue_cycles", "cycles"),
    ("snapshot.forks", "count"),
    ("snapshot.fork_misses", "count"),
    ("snapshot.fork_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.checkpoint_bytes", "bytes"),
    ("bench.single_s", "s"),
    ("bench.group_s", "s"),
    ("bench.prefix_saved_cycle_frac", "frac"),
    ("sched.new_s", "s"),
    ("sched.step_s", "s"),
    ("sched.steps", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.poll_ms_p50", "ms"),
    ("service.polls_per_job", "count"),
    ("service.fetch_ms_p50", "ms"),
    ("service.resume_submit_ms_p50", "ms"),
    ("service.cache_hit_frac", "frac"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.run_ms_p90", "ms"),
    ("service.refused", "count"),
    ("service.worker_util", "frac"),
    ("gen.latency_p90_ms", "ms"),
    ("gen.late_ms_max", "ms"),
    ("gen.idle_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: Option<String>,
    commit: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <fig04_sweep|serve_quad_noc|daemon_open> --seed N \
         --seconds S --trace <0|1> [--daemon PATH] [--commit ID]\n       perfbench fig04-digests"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        daemon: None,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage("--seed: not a number")),
            "--seconds" => {
                a.seconds = val().parse().unwrap_or_else(|_| usage("--seconds: not a number"))
            }
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--daemon" => a.daemon = Some(val()),
            "--commit" => a.commit = val(),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if a.seconds == 0 {
        usage("--seconds must be positive");
    }
    a
}

/// A number taken down an escape hatch measures a different code path.
fn refuse_hatches() {
    for hatch in ["MNPU_NO_FASTFWD", "MNPU_NO_PREFIX_SHARE"] {
        if std::env::var_os(hatch).is_some() {
            eprintln!("perfbench: refusing to record with {hatch} set");
            std::process::exit(3);
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("fig04-digests") {
        fig04::print_digests();
        return;
    }
    let args = parse_args();
    refuse_hatches();
    // Every run starts from a fresh process with the disk run cache off;
    // set before any thread exists.
    std::env::set_var("MNPU_NO_CACHE", "1");
    let budget = Duration::from_secs(args.seconds);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    let (mut outcome, hatches) = match args.workload.as_str() {
        "fig04_sweep" => {
            let (mut o, last) = fig04::untraced();
            if args.trace {
                let wall = last_value(&o.metrics, "wall_s").unwrap_or(0.0);
                o.absorb(fig04::traced(wall, last.as_deref()));
            }
            (o, in_process_hatches())
        }
        "serve_quad_noc" => {
            let (mut o, digests, total_s) = serve::untraced(args.seed);
            if args.trace {
                o.absorb(serve::traced(args.seed, total_s, &digests));
            }
            (o, in_process_hatches())
        }
        "daemon_open" => {
            let Some(path) = args.daemon.as_deref() else { usage("daemon_open needs --daemon") };
            daemon::run(path, args.seed, budget, args.trace)
        }
        other => usage(&format!("unknown workload {other}")),
    };
    println!(
        "provenance commit={} nproc={nproc} workload={} seed={} seconds={} trace={} hatches={hatches}",
        args.commit,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ok = outcome.ok_frac();
    outcome.metrics.push(Metric::new("ok_frac", ok, "frac"));
    // The tail of the untraced pass: reported, but not bounded (its spread
    // over seeds on the daemon sat at the largest allowed bound).
    if let Some(m) = outcome.metrics.iter().find(|m| m.name == "latency_p90_ms") {
        let p90 = Metric::new("gen.latency_p90_ms", m.value, "ms");
        println!("latency_p90_ms = {} ms", p90.value);
        outcome.metrics.push(p90);
    }
    let selected: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                Metric::new(name, last_value(&outcome.metrics, name).unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                outcome
                    .metrics
                    .iter()
                    .rev()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("workload did not measure {name}"))
            })
            .collect()
    };
    for m in &selected {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = selected
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
}

fn last_value(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().rev().find(|m| m.name == name).map(|m| m.value)
}

/// The hatch state as this process sees it (the daemon workload reports
/// the daemon's own `/v1/version` instead).
fn in_process_hatches() -> String {
    format!(
        "fastfwd={},prefix_share={}",
        std::env::var_os("MNPU_NO_FASTFWD").is_none(),
        mnpu_bench::prefix_share_enabled()
    )
}
