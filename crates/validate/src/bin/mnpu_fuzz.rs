//! Deterministic simulator fuzzer (see `mnpu_validate::fuzz`).
//!
//! ```text
//! mnpu_fuzz --iters 200 --seed 42 [--out target/fuzz-repros] [--verbose]
//! ```
//!
//! Iterations run on `MNPU_JOBS` workers (default: available
//! parallelism); the output is the same for any worker count.
//!
//! Exit status 0 on a clean run, 1 when any iteration produced a
//! violation (after shrinking; repro artifacts are written to `--out`).

use mnpu_validate::{run_fuzz, FuzzOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mnpu_fuzz [--iters N] [--seed S] [--out DIR] [--shrink-sims N] [--verbose]";

fn parse_args() -> Result<FuzzOptions, String> {
    let mut opts = FuzzOptions {
        out_dir: Some(PathBuf::from("target/fuzz-repros")),
        ..FuzzOptions::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--iters" => {
                opts.iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => opts.out_dir = Some(PathBuf::from(value("--out")?)),
            "--shrink-sims" => {
                opts.max_shrink_sims =
                    value("--shrink-sims")?.parse().map_err(|e| format!("--shrink-sims: {e}"))?;
            }
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    eprintln!("mnpu_fuzz: {} iterations, seed {}", opts.iters, opts.seed);
    let outcome = run_fuzz(&opts);

    if outcome.clean() {
        println!("fuzz: {} iterations, 0 violations (seed {})", outcome.iterations, opts.seed);
        return ExitCode::SUCCESS;
    }

    println!(
        "fuzz: {} iterations, {} FAILING case(s) (seed {})",
        outcome.iterations,
        outcome.failures.len(),
        opts.seed
    );
    for f in &outcome.failures {
        println!("--- iteration {} (shrunk via {:?})", f.iteration, f.shrink_steps);
        for v in &f.violations {
            println!("    {v}");
        }
        if let Some(p) = &f.artifact {
            println!("    repro: {}", p.display());
        }
        println!(
            "    replay: mnpu_fuzz --seed {} --iters {} # iteration {}",
            opts.seed,
            f.iteration + 1,
            f.iteration
        );
    }
    ExitCode::FAILURE
}
