//! Deterministic configuration/workload fuzzer.
//!
//! Each iteration derives a fresh RNG from `(master_seed, iteration)`,
//! generates a random-but-valid [`SystemConfig`] (checked with
//! [`SystemConfig::validate`], so the generator itself is held to the
//! validator) and one tiny random network per core, runs a short
//! simulation, applies the full [`crate::oracle`] suite, and samples one
//! applicable [`Law`] for a paired metamorphic check. A quarter of the
//! cases additionally checkpoint the run mid-flight and require the
//! resumed report to be bit-identical (the `snapshot-exact` oracle). On
//! failure the case is greedily shrunk and a hand-rolled JSON repro
//! artifact is written.
//!
//! Determinism is load-bearing: `generate_case(seed, i)` is a pure
//! function, so `mnpu_fuzz --seed S --iters N` reproduces byte-identical
//! cases on any machine, and a repro artifact's `(seed, iteration)` pair
//! plus its `shrink_steps` list replays the minimized case exactly.

use crate::metamorphic::Law;
use crate::oracle::{check_run, Violation};
use crate::serve::check_serve;
use mnpu_config::{ArrivalSpec, JobSpec, PolicySpec, ScenarioSpec};
use mnpu_engine::{FanOut, MemoryModel, ProbeMode, SharingLevel, Simulation, SystemConfig};
use mnpu_model::randnet::{generate, RandNetConfig};
use mnpu_model::{Network, Scale};
use mnpu_sched::serve;
use mnpu_snapshot::json::escape;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Watchdog for fuzzed runs: generated cases are tiny, so anything this
/// long is a livelock, not a slow workload.
const FUZZ_MAX_CYCLES: u64 = 200_000_000;

/// Fuzzer parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of iterations (cases) to run.
    pub iters: u64,
    /// Master seed; every case is a pure function of `(seed, iteration)`.
    pub seed: u64,
    /// Directory for JSON repro artifacts (`repro-iter<N>.json`); `None`
    /// disables artifact writing.
    pub out_dir: Option<PathBuf>,
    /// Budget of extra simulations the shrinker may spend per failure.
    pub max_shrink_sims: usize,
    /// Print one line per iteration to stderr, in iteration order, once
    /// every iteration has run.
    pub verbose: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions { iters: 50, seed: 0, out_dir: None, max_shrink_sims: 40, verbose: false }
    }
}

/// One generated case: a valid configuration, one network per core, and
/// the metamorphic law sampled for it (if any is applicable).
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The generated (validated) system configuration.
    pub config: SystemConfig,
    /// One workload per core.
    pub nets: Vec<Network>,
    /// Seeds the networks were generated from (for the artifact).
    pub net_seeds: Vec<u64>,
    /// Metamorphic law sampled for this iteration, if one applies.
    pub law: Option<Law>,
    /// Optional serve-mode scenario on the same chip — arrivals, policy
    /// and job list all pure functions of `(seed, iteration)` — checked
    /// with the [`crate::serve`] conservation oracles.
    pub serve: Option<ScenarioSpec>,
    /// Checkpoint point for the `snapshot-exact` oracle, in permille of
    /// the base run's span (`None` skips the oracle). Drawn *last* in
    /// [`generate_case`] so every earlier draw keeps the byte stream it
    /// had before this field existed — old `(seed, iteration)` repro
    /// pairs still replay the same chip and workloads.
    pub snapshot_at: Option<u64>,
}

/// One failing case, after shrinking.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration index the case came from.
    pub iteration: u64,
    /// Violations of the *minimized* case.
    pub violations: Vec<Violation>,
    /// Names of the shrink steps that were applied, in order. Replaying
    /// them on `generate_case(seed, iteration)` reproduces the minimized
    /// case exactly.
    pub shrink_steps: Vec<&'static str>,
    /// Path of the JSON repro artifact, when one was written.
    pub artifact: Option<PathBuf>,
}

/// Result of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Iterations executed.
    pub iterations: u64,
    /// All failures found (empty = clean run).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzOutcome {
    /// `true` when no iteration produced a violation.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.random_range(0..xs.len())]
}

/// Split `total` into `parts` positive integers, uniformly at random.
fn random_split(rng: &mut StdRng, total: usize, parts: usize) -> Vec<usize> {
    let mut counts = vec![1usize; parts];
    for _ in 0..total - parts {
        counts[rng.random_range(0..parts)] += 1;
    }
    counts
}

/// Generate iteration `iteration` of the run seeded with `master_seed`.
///
/// Pure: the same `(master_seed, iteration)` pair always produces the same
/// case, independent of which other iterations ran.
///
/// # Panics
///
/// Panics if the generated configuration fails validation — by
/// construction it never should, so a panic here is itself a fuzzing
/// finding (the generator and the validator disagree about what is valid).
pub fn generate_case(master_seed: u64, iteration: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(
        master_seed ^ iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x6d4e_5055),
    );

    let cores = rng.random_range(1usize..=3);
    let sharing = if cores == 1 && rng.random_bool(0.3) {
        SharingLevel::Ideal
    } else {
        *pick(&mut rng, &SharingLevel::CO_RUN_LEVELS)
    };

    let mut cfg = SystemConfig::bench(cores, sharing);
    cfg.max_cycles = Some(FUZZ_MAX_CYCLES);

    // DRAM: device template, geometry knobs, scheduling knobs.
    let channels_per_core = rng.random_range(1usize..=4);
    cfg.channels_per_core = channels_per_core;
    cfg.dram = match rng.random_range(0u32..3) {
        0 => mnpu_dram::DramConfig::bench(1),
        1 => mnpu_dram::DramConfig::hbm2(1),
        _ => mnpu_dram::DramConfig::ddr4(1),
    };
    cfg.dram.queue_depth = *pick(&mut rng, &[4usize, 8, 16]);
    cfg.dram.mapping = *pick(
        &mut rng,
        &[mnpu_dram::AddressMapping::BlockInterleaved, mnpu_dram::AddressMapping::RowInterleaved],
    );
    cfg.dram.policy =
        *pick(&mut rng, &[mnpu_dram::SchedPolicy::FrFcfs, mnpu_dram::SchedPolicy::Fcfs]);
    // Fuzz both scheduler paths: most cases keep the steady-state
    // fast-forward on (the production default), a quarter pin the
    // per-command reference. Any oracle that fires on one but not the
    // other is a fast-path exactness bug — the `force-slow-path` shrink
    // step and the `fastfwd-exact` law triangulate those directly.
    cfg.dram.fastfwd = rng.random_bool(0.75);

    // MMU: page size, TLB geometry (entries must stay a multiple of the
    // associativity), walker count.
    cfg.mmu.page_bytes = *pick(&mut rng, &[4096u64, 65536, 1_048_576]);
    cfg.mmu.tlb_assoc = *pick(&mut rng, &[2u64, 4, 8]);
    cfg.mmu.tlb_entries_per_core = cfg.mmu.tlb_assoc * *pick(&mut rng, &[4u64, 16, 64]);
    cfg.mmu.ptws_per_core = rng.random_range(1usize..=4);
    cfg.mmu.coalesce_walks = rng.random_bool(0.8);
    cfg.translation = rng.random_bool(0.85);

    cfg.iterations = rng.random_range(1u64..=2);
    if rng.random_bool(0.2) {
        cfg.memory = MemoryModel::Ideal { latency: rng.random_range(1u64..=64) };
    }

    // Optional report/observability features.
    if rng.random_bool(0.8) {
        cfg.probe = ProbeMode::Stats;
    }
    if rng.random_bool(0.25) {
        cfg.trace_window = Some(512);
    }
    if rng.random_bool(0.25) {
        cfg.request_log = true;
        cfg.request_log_cap = match rng.random_range(0u32..3) {
            0 => None,
            1 => Some(1),
            _ => Some(100),
        };
    }
    if rng.random_bool(0.2) {
        cfg.start_cycles = (0..cores).map(|_| rng.random_range(0u64..1000)).collect();
    }

    // Optional static partitions / managed bounds, gated on the sharing
    // level so validation accepts them.
    if cores >= 2 && !sharing.shares_dram() && rng.random_bool(0.3) {
        cfg.channel_partition = Some(random_split(&mut rng, cores * channels_per_core, cores));
    }
    if cores >= 2 && !sharing.shares_ptw() && rng.random_bool(0.3) {
        let walkers = cfg.mmu.ptws_per_core * cores;
        cfg.ptw_partition = Some(random_split(&mut rng, walkers, cores));
    }
    if cores >= 2 && sharing.shares_ptw() && rng.random_bool(0.2) {
        let total = cfg.mmu.ptws_per_core * cores;
        let max = vec![rng.random_range(1usize..=total); cores];
        cfg = cfg.with_ptw_bounds(vec![0; cores], max);
    }

    cfg.validate().unwrap_or_else(|e| {
        panic!("fuzzer generated an invalid config (seed {master_seed}, iter {iteration}): {e}")
    });
    let config = cfg;

    // Tiny networks: a couple of layers keep each simulation in the
    // millisecond range so hundreds of iterations stay cheap.
    let net_cfg = RandNetConfig {
        min_layers: 1,
        max_layers: 4,
        channel_choices: vec![4, 8, 16, 32],
        spatial_range: (8, 24),
        ..RandNetConfig::default()
    };
    let net_seeds: Vec<u64> = (0..cores).map(|_| rng.next_u64()).collect();
    let nets: Vec<Network> = net_seeds.iter().map(|&s| generate(&net_cfg, s)).collect();

    // Sample one applicable metamorphic law for this iteration.
    let applicable: Vec<Law> = Law::ALL.iter().copied().filter(|l| l.applicable(&config)).collect();
    let law = if applicable.is_empty() { None } else { Some(*pick(&mut rng, &applicable)) };

    // ~30% of cases also exercise the scheduling layer: a serve scenario
    // on the same chip, with zoo workloads (the scenario format names
    // networks) and arrivals derived purely from this case's RNG.
    let serve = rng.random_bool(0.3).then(|| {
        let names = ["ncf", "dlrm"];
        let jobs: Vec<JobSpec> = (0..rng.random_range(2usize..=4))
            .map(|_| JobSpec {
                network: (*pick(&mut rng, &names)).to_string(),
                arrival: None,
                core: None,
            })
            .collect();
        let arrival = if rng.random_bool(0.5) {
            ArrivalSpec::FixedIncrement { increment: rng.random_range(0u64..=200_000) }
        } else {
            ArrivalSpec::Bursty {
                burst: rng.random_range(1usize..=3),
                mean_gap: rng.random_range(0u64..=100_000),
            }
        };
        let policy =
            if rng.random_bool(0.5) { PolicySpec::FirstFree } else { PolicySpec::RoundRobin };
        // The predictor policy trains a model per scenario — far too slow
        // for fuzzing; its decisions go through the same dispatch path.
        ScenarioSpec {
            system: config.clone(),
            scale: Scale::Bench,
            seed: rng.next_u64(),
            arrival,
            policy,
            jobs,
        }
    });

    // Drawn last — see the field doc on [`FuzzCase::snapshot_at`].
    let snapshot_at = rng.random_bool(0.25).then(|| rng.random_range(0u64..=1000));

    FuzzCase { config, nets, net_seeds, law, serve, snapshot_at }
}

/// The `snapshot-exact` oracle: checkpoint the case's run at `permille`
/// thousandths of its span, resume the snapshot in a freshly built
/// simulation ([`Simulation::execute_checkpointed`]), and require the
/// resumed [`mnpu_engine::RunReport`] to be bit-identical to `base`.
/// Zero slack, same rationale as [`Law::SnapshotResumeExact`] — but where
/// the law picks the midpoint, the fuzzer sweeps the checkpoint position
/// too (including past the end of the run, where the checkpoint is the
/// finished machine).
fn snapshot_exact(
    cfg: &SystemConfig,
    nets: &[mnpu_model::Network],
    base: &mnpu_engine::RunReport,
    permille: u64,
) -> Vec<Violation> {
    let traces: Vec<mnpu_systolic::WorkloadTrace> = nets
        .iter()
        .zip(&cfg.arch)
        .map(|(n, a)| mnpu_systolic::WorkloadTrace::generate(n, a))
        .collect();
    let at = base.total_cycles.saturating_mul(permille) / 1000;
    let resumed = Simulation::execute_checkpointed(cfg, &traces, at);
    if resumed != *base {
        return vec![Violation {
            oracle: "snapshot-exact",
            core: None,
            detail: format!(
                "resume from the cycle-{at} checkpoint diverged (cycles {} vs {}, \
                 dram txns {} vs {})",
                base.total_cycles,
                resumed.total_cycles,
                base.dram.total.transactions(),
                resumed.dram.total.transactions()
            ),
        }];
    }
    Vec::new()
}

/// Run one case: simulate, apply every oracle, then the sampled law.
/// A panic anywhere (engine assertion, watchdog) becomes a violation.
pub fn check_case(case: &FuzzCase) -> Vec<Violation> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let report = Simulation::execute_networks(&case.config, &case.nets);
        let mut v = check_run(&case.config, &case.nets, &report);
        if let Some(permille) = case.snapshot_at {
            v.extend(snapshot_exact(&case.config, &case.nets, &report, permille));
        }
        if let Some(law) = case.law {
            v.extend(law.check(&case.config, &case.nets));
        }
        if let Some(scenario) = &case.serve {
            v.extend(check_serve(scenario, &serve(scenario)));
        }
        v
    }));
    match result {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            vec![Violation { oracle: "panic", core: None, detail: msg.to_string() }]
        }
    }
}

/// The shrink moves, ordered roughly by how much each simplifies a case.
const SHRINK_STEPS: [&str; 10] = [
    "drop-serve",
    "drop-snapshot",
    "single-iteration",
    "drop-options",
    "drop-partitions",
    "truncate-nets",
    "drop-last-core",
    "fewer-channels",
    "force-slow-path",
    "ideal-memory",
];

/// Apply one named shrink step; returns `None` when the step cannot
/// simplify this case any further.
fn apply_step(case: &FuzzCase, step: &str) -> Option<FuzzCase> {
    let mut c = case.clone();
    match step {
        // Kills a serve failure's repro only if the failure is in the
        // batch path — the shrinker keeps a candidate only when the same
        // oracle still fires, so serve-oracle failures reject this step.
        "drop-serve" => {
            c.serve.take()?;
        }
        // Same shape as drop-serve: a snapshot-exact failure rejects this
        // step (the oracle disappears with the field), every other
        // failure sheds the checkpoint run and shrinks twice as fast.
        "drop-snapshot" => {
            c.snapshot_at.take()?;
        }
        "single-iteration" => {
            if c.config.iterations == 1 {
                return None;
            }
            c.config.iterations = 1;
        }
        "drop-options" => {
            let cfg = &mut c.config;
            if cfg.trace_window.is_none() && !cfg.request_log && cfg.start_cycles.is_empty() {
                return None;
            }
            cfg.trace_window = None;
            cfg.request_log = false;
            cfg.request_log_cap = None;
            cfg.start_cycles = Vec::new();
        }
        "drop-partitions" => {
            let cfg = &mut c.config;
            if cfg.channel_partition.is_none()
                && cfg.ptw_partition.is_none()
                && cfg.ptw_bounds.is_none()
            {
                return None;
            }
            cfg.channel_partition = None;
            cfg.ptw_partition = None;
            cfg.ptw_bounds = None;
        }
        "truncate-nets" => {
            if c.nets.iter().all(|n| n.num_layers() <= 1) {
                return None;
            }
            c.nets = c
                .nets
                .iter()
                .map(|n| {
                    let keep = n.num_layers().div_ceil(2);
                    Network::new(n.name().to_string(), n.layers()[..keep].to_vec())
                })
                .collect();
        }
        "drop-last-core" => {
            if c.config.cores <= 1 {
                return None;
            }
            let cfg = &mut c.config;
            cfg.cores -= 1;
            cfg.arch.truncate(cfg.cores);
            // Partitions, bounds and start cycles are sized per core;
            // rather than re-derive consistent splits, drop them.
            cfg.channel_partition = None;
            cfg.ptw_partition = None;
            cfg.ptw_bounds = None;
            cfg.start_cycles = Vec::new();
            c.nets.truncate(cfg.cores);
            c.net_seeds.truncate(cfg.cores);
        }
        "fewer-channels" => {
            if c.config.channels_per_core <= 1 {
                return None;
            }
            c.config.channels_per_core /= 2;
            c.config.channel_partition = None;
        }
        // If the failure survives on the per-command reference scheduler,
        // the fast-forward is exonerated and the minimized repro is easier
        // to step through; if it does not survive, the *shrinker's
        // rejection of this step* is itself the finding — the case fails
        // only with fastfwd on, i.e. the fast path diverged.
        "force-slow-path" => {
            if !c.config.dram.fastfwd {
                return None;
            }
            c.config.dram.fastfwd = false;
        }
        "ideal-memory" => {
            if !matches!(c.config.memory, MemoryModel::Timing) {
                return None;
            }
            c.config.memory = MemoryModel::Ideal { latency: 1 };
        }
        other => panic!("unknown shrink step {other}"),
    }
    if c.config.validate().is_err() {
        return None;
    }
    // The sampled law may no longer apply to the simplified config.
    if let Some(law) = c.law {
        if !law.applicable(&c.config) {
            c.law = None;
        }
    }
    Some(c)
}

/// Greedily shrink a failing case, keeping any candidate that still fails
/// the *same* oracle. Returns the minimized case and the steps applied.
fn shrink(case: &FuzzCase, oracle: &'static str, budget: usize) -> (FuzzCase, Vec<&'static str>) {
    let mut current = case.clone();
    let mut applied = Vec::new();
    let mut sims = 0usize;
    let mut progress = true;
    while progress && sims < budget {
        progress = false;
        for step in SHRINK_STEPS {
            if sims >= budget {
                break;
            }
            let Some(candidate) = apply_step(&current, step) else { continue };
            sims += 1;
            let vs = check_case(&candidate);
            if vs.iter().any(|v| v.oracle == oracle) {
                current = candidate;
                applied.push(step);
                progress = true;
            }
        }
    }
    (current, applied)
}

/// Serialize a minimized failure to the repro artifact JSON. Hand-rolled
/// (the workspace carries no serde); the format is documented in
/// EXPERIMENTS.md.
pub fn repro_json(seed: u64, failure: &FuzzFailure, case: &FuzzCase) -> String {
    let cfg = &case.config;
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"iteration\": {},\n", failure.iteration));
    s.push_str("  \"violations\": [\n");
    for (i, v) in failure.violations.iter().enumerate() {
        let comma = if i + 1 < failure.violations.len() { "," } else { "" };
        s.push_str(&format!("    \"{}\"{comma}\n", escape(&v.to_string())));
    }
    s.push_str("  ],\n");
    s.push_str("  \"shrink_steps\": [");
    s.push_str(
        &failure.shrink_steps.iter().map(|st| format!("\"{st}\"")).collect::<Vec<_>>().join(", "),
    );
    s.push_str("],\n");
    s.push_str(&format!(
        "  \"law\": {},\n",
        case.law.map_or("null".to_string(), |l| format!("\"{}\"", l.name()))
    ));
    s.push_str(&format!(
        "  \"snapshot_at\": {},\n",
        case.snapshot_at.map_or("null".to_string(), |p| p.to_string())
    ));
    s.push_str(&format!(
        "  \"serve\": {},\n",
        case.serve.as_ref().map_or("null".to_string(), |scn| {
            format!(
                "{{\"jobs\": [{}], \"policy\": \"{:?}\", \"pattern\": \"{:?}\", \"seed\": {}}}",
                scn.jobs
                    .iter()
                    .map(|j| format!("\"{}\"", j.network))
                    .collect::<Vec<_>>()
                    .join(", "),
                scn.policy,
                scn.arrival,
                scn.seed
            )
        })
    ));
    s.push_str("  \"config\": {\n");
    s.push_str(&format!("    \"cores\": {},\n", cfg.cores));
    s.push_str(&format!("    \"sharing\": \"{}\",\n", cfg.sharing.label()));
    s.push_str(&format!("    \"channels_per_core\": {},\n", cfg.channels_per_core));
    s.push_str(&format!("    \"page_bytes\": {},\n", cfg.mmu.page_bytes));
    s.push_str(&format!("    \"tlb_entries_per_core\": {},\n", cfg.mmu.tlb_entries_per_core));
    s.push_str(&format!("    \"tlb_assoc\": {},\n", cfg.mmu.tlb_assoc));
    s.push_str(&format!("    \"ptws_per_core\": {},\n", cfg.mmu.ptws_per_core));
    s.push_str(&format!("    \"coalesce_walks\": {},\n", cfg.mmu.coalesce_walks));
    s.push_str(&format!("    \"translation\": {},\n", cfg.translation));
    s.push_str(&format!("    \"iterations\": {},\n", cfg.iterations));
    s.push_str(&format!("    \"burst_cycles\": {},\n", cfg.dram.timing.burst_cycles));
    s.push_str(&format!("    \"queue_depth\": {},\n", cfg.dram.queue_depth));
    s.push_str(&format!("    \"fastfwd\": {},\n", cfg.dram.fastfwd));
    s.push_str(&format!(
        "    \"memory\": \"{}\"\n",
        match cfg.memory {
            MemoryModel::Timing => "timing".to_string(),
            MemoryModel::Ideal { latency } => format!("ideal({latency})"),
        }
    ));
    s.push_str("  },\n");
    s.push_str("  \"nets\": [\n");
    for (i, (n, sd)) in case.nets.iter().zip(&case.net_seeds).enumerate() {
        let comma = if i + 1 < case.nets.len() { "," } else { "" };
        let sum = n.summary();
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"seed\": {sd}, \"layers\": {}, \"macs\": {}}}{comma}\n",
            escape(n.name()),
            n.num_layers(),
            sum.total_macs
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// What one iteration found: its `--verbose` line and, when it failed,
/// the shrunk failure with the minimized case its repro artifact records.
struct Checked {
    line: String,
    failure: Option<(FuzzFailure, FuzzCase)>,
}

/// Generate and check one iteration's case, shrinking it on failure.
fn check_iteration(opts: &FuzzOptions, iteration: u64) -> Checked {
    let case = generate_case(opts.seed, iteration);
    let violations = check_case(&case);
    let line = format!(
        "iter {iteration}: cores={} sharing={} law={} -> {}",
        case.config.cores,
        case.config.sharing,
        case.law.map_or("none", |l| l.name()),
        if violations.is_empty() {
            "ok".to_string()
        } else {
            format!("{} VIOLATIONS", violations.len())
        }
    );
    if violations.is_empty() {
        return Checked { line, failure: None };
    }
    let oracle = violations[0].oracle;
    let (min_case, steps) = shrink(&case, oracle, opts.max_shrink_sims);
    let min_violations = check_case(&min_case);
    let failure = FuzzFailure {
        iteration,
        violations: if min_violations.is_empty() { violations } else { min_violations },
        shrink_steps: steps,
        artifact: None,
    };
    Checked { line, failure: Some((failure, min_case)) }
}

/// Run the fuzzer.
///
/// Deterministic per [`FuzzOptions::seed`]; failures are shrunk and, when
/// [`FuzzOptions::out_dir`] is set, written as JSON repro artifacts. The
/// iterations run on [`FanOut::new`]'s workers (`MNPU_JOBS`); progress
/// lines, artifacts and failures follow iteration order, so the outcome
/// does not depend on the worker count.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzOutcome {
    let iterations: Vec<u64> = (0..opts.iters).collect();
    let checked = FanOut::new().map(&iterations, |&i| check_iteration(opts, i));
    let mut outcome = FuzzOutcome { iterations: opts.iters, failures: Vec::new() };
    for Checked { line, failure } in checked {
        if opts.verbose {
            eprintln!("{line}");
        }
        let Some((mut failure, min_case)) = failure else { continue };
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!("repro-iter{}.json", failure.iteration));
            let body = repro_json(opts.seed, &failure, &min_case);
            if std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)).is_ok() {
                failure.artifact = Some(path);
            }
        }
        outcome.failures.push(failure);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        let a = generate_case(42, 7);
        let b = generate_case(42, 7);
        assert_eq!(a.config, b.config);
        assert_eq!(a.nets, b.nets);
        assert_eq!(a.law, b.law);
        assert_eq!(a.serve, b.serve);
        assert_eq!(a.snapshot_at, b.snapshot_at);
    }

    #[test]
    fn generated_configs_are_valid_and_varied() {
        let mut core_counts = std::collections::HashSet::new();
        let mut sharings = std::collections::HashSet::new();
        for i in 0..64 {
            let case = generate_case(1, i);
            assert!(case.config.validate().is_ok(), "iter {i}");
            assert_eq!(case.nets.len(), case.config.cores, "iter {i}");
            core_counts.insert(case.config.cores);
            sharings.insert(case.config.sharing.label());
        }
        assert!(core_counts.len() >= 3, "core counts not varied: {core_counts:?}");
        assert!(sharings.len() >= 4, "sharing levels not varied: {sharings:?}");
    }

    #[test]
    fn serve_scenarios_appear_and_are_well_formed() {
        let mut with_serve = 0;
        for i in 0..64 {
            let case = generate_case(2, i);
            if let Some(s) = &case.serve {
                with_serve += 1;
                assert!(!s.jobs.is_empty(), "iter {i}");
                assert_eq!(s.system, case.config, "iter {i}: serve runs the case's chip");
                if let ArrivalSpec::Bursty { burst, .. } = s.arrival {
                    assert!(burst >= 1, "iter {i}");
                }
            }
        }
        // ~30% of 64; wide margins so the test pins presence, not the RNG.
        assert!((8..=40).contains(&with_serve), "serve rate off: {with_serve}/64");
    }

    #[test]
    fn shrink_steps_preserve_validity() {
        for i in 0..16 {
            let case = generate_case(3, i);
            for step in SHRINK_STEPS {
                if let Some(c) = apply_step(&case, step) {
                    assert!(c.config.validate().is_ok(), "iter {i} step {step}");
                    assert_eq!(c.nets.len(), c.config.cores, "iter {i} step {step}");
                }
            }
        }
    }

    #[test]
    fn repro_json_is_balanced() {
        let case = generate_case(5, 0);
        let failure = FuzzFailure {
            iteration: 0,
            violations: vec![Violation {
                oracle: "compute-roofline",
                core: Some(0),
                detail: "say \"quote\"".into(),
            }],
            shrink_steps: vec!["drop-options"],
            artifact: None,
        };
        let j = repro_json(5, &failure, &case);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\\\"quote\\\""));
    }
}
