//! Serve-mode scenario files: a chip, a job list, and how jobs arrive.
//!
//! A scenario describes a *dynamic* experiment — jobs arriving over time,
//! queueing for free cores — as opposed to the batch configuration files,
//! which bind one workload per core at cycle 0. The format is the same
//! line-based `key = value` used everywhere else, except that `job` lines
//! may repeat (one per job, in arrival-tiebreak order):
//!
//! ```text
//! # quad-core serve scenario
//! cores   = 4
//! sharing = +DWT          # Ideal | Static | +D | +DW | +DWT
//! preset  = bench         # bench | cloud (chip preset)
//! scale   = bench         # bench | full  (model-zoo scale)
//! seed    = 42            # arrival-generator seed
//! pattern = fixed:1000    # fixed:<inc> | bursty:<burst>:<mean_gap> | explicit
//! policy  = first_free    # first_free | round_robin | predictor | pinned
//! job = ncf
//! job = gpt2 @ 500        # explicit arrival cycle (pattern = explicit)
//! job = yt on 2           # pinned to core 2 (policy = pinned)
//! job = dlrm @ 1500 on 3
//! ```
//!
//! Parsing validates everything it can without running: workload names
//! against the model zoo ([`ConfigError::UnknownWorkload`]), the policy
//! name ([`ConfigError::UnknownPolicy`]), the arrival pattern
//! ([`ConfigError::BadArrivalPattern`]), and the chip through
//! [`SystemConfig::validate`]. The scheduler in
//! `mnpu-sched` consumes the resulting [`ScenarioSpec`].

use crate::error::ConfigError;
use crate::kv::KvFile;
use mnpu_engine::{SharingLevel, SystemConfig};
use mnpu_model::{zoo, Scale};

/// How jobs arrive, before the scheduler turns it into concrete cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalSpec {
    /// Every `job` line carries its own `@ <cycle>`; lines without one
    /// arrive at cycle 0.
    Explicit,
    /// Open-loop: job *i* arrives at `i * increment`.
    FixedIncrement {
        /// Gap between consecutive arrivals, in global cycles.
        increment: u64,
    },
    /// Open-loop bursts: groups of `burst` jobs arrive together, with a
    /// seeded-random gap (mean `mean_gap` cycles) between groups.
    Bursty {
        /// Jobs per burst (at least 1).
        burst: usize,
        /// Mean gap between bursts, in global cycles.
        mean_gap: u64,
    },
}

/// Which core-assignment policy the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Dispatch the queue head to the lowest-numbered free core.
    FirstFree,
    /// Dispatch the queue head to free cores in rotating order.
    RoundRobin,
    /// Use `mnpu-predict`'s slowdown model to pick, among queued jobs, the
    /// one least destructive to the currently running set.
    Predictor,
    /// Honor each job's `on <core>` pin; jobs wait for their named core.
    Pinned,
}

/// One `job` line: a zoo workload, optionally with an explicit arrival
/// cycle and a core pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Model-zoo short name (validated at parse time).
    pub network: String,
    /// Explicit arrival cycle (`@ <cycle>`), used by
    /// [`ArrivalSpec::Explicit`].
    pub arrival: Option<u64>,
    /// Core pin (`on <core>`), used by [`PolicySpec::Pinned`].
    pub core: Option<usize>,
}

/// A parsed serve scenario: the chip, the jobs, and the scheduling knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The chip configuration (it has already passed
    /// [`SystemConfig::validate`]).
    pub system: SystemConfig,
    /// Model-zoo scale the job networks are built at.
    pub scale: Scale,
    /// Seed for the arrival generator (bursty gaps).
    pub seed: u64,
    /// Arrival pattern.
    pub arrival: ArrivalSpec,
    /// Core-assignment policy.
    pub policy: PolicySpec,
    /// Jobs in declaration order (the FIFO tiebreak for equal arrivals).
    pub jobs: Vec<JobSpec>,
}

/// Parse a serve scenario. `file` is the logical name used in errors.
///
/// # Errors
///
/// [`ConfigError::Parse`] for malformed lines, plus the typed scenario
/// variants: [`ConfigError::UnknownWorkload`],
/// [`ConfigError::UnknownPolicy`], [`ConfigError::BadArrivalPattern`], and
/// [`ConfigError::Inconsistent`] for a chip that fails
/// [`SystemConfig::validate`] or a scenario with no jobs.
pub fn parse_scenario(file: &str, text: &str) -> Result<ScenarioSpec, ConfigError> {
    let kv = KvFile::parse_repeating(file, text, Some("job"))?;
    let jobs = kv
        .repeated()
        .iter()
        .map(|(line, value)| parse_job(file, *line, value))
        .collect::<Result<Vec<_>, _>>()?;

    let cores = kv.u64_req("cores")? as usize;
    let sharing = match kv.get("sharing") {
        None => SharingLevel::PlusDwt,
        Some(v) => SharingLevel::from_label(v).ok_or_else(|| {
            ConfigError::parse(file, kv.line_of("sharing"), format!("unknown sharing level `{v}`"))
        })?,
    };
    let system = match kv.get("preset") {
        None | Some("bench") => SystemConfig::bench(cores, sharing),
        Some("cloud") => SystemConfig::cloud(cores, sharing),
        Some(v) => {
            return Err(ConfigError::parse(
                file,
                kv.line_of("preset"),
                format!("unknown preset `{v}`"),
            ))
        }
    };
    // The same validation as every other configuration front end.
    system.validate().map_err(|e| ConfigError::Inconsistent(format!("{file}: {e}")))?;

    let scale = match kv.get("scale") {
        None | Some("bench") => Scale::Bench,
        Some("full") => Scale::Full,
        Some(v) => {
            return Err(ConfigError::parse(
                file,
                kv.line_of("scale"),
                format!("unknown scale `{v}`"),
            ))
        }
    };
    let seed = kv.u64_or("seed", 0)?;
    let arrival = match kv.get("pattern") {
        None => ArrivalSpec::Explicit,
        Some(spec) => parse_pattern(file, kv.line_of("pattern"), spec)?,
    };
    let policy = match kv.get("policy").map(str::to_ascii_lowercase) {
        None => PolicySpec::FirstFree,
        Some(v) => match v.as_str() {
            "first_free" => PolicySpec::FirstFree,
            "round_robin" => PolicySpec::RoundRobin,
            "predictor" => PolicySpec::Predictor,
            "pinned" => PolicySpec::Pinned,
            _ => {
                let line = kv.line_of("policy");
                return Err(ConfigError::UnknownPolicy { file: file.into(), line, name: v });
            }
        },
    };

    if jobs.is_empty() {
        return Err(ConfigError::Inconsistent(format!("{file}: scenario has no `job` lines")));
    }
    if policy == PolicySpec::Pinned {
        for (j, job) in jobs.iter().enumerate() {
            match job.core {
                None => {
                    return Err(ConfigError::Inconsistent(format!(
                        "{file}: policy `pinned` but job {j} (`{}`) has no `on <core>`",
                        job.network
                    )))
                }
                Some(c) if c >= cores => {
                    return Err(ConfigError::Inconsistent(format!(
                        "{file}: job {j} pinned to core {c} of a {cores}-core chip"
                    )))
                }
                Some(_) => {}
            }
        }
    }
    // Workload names were validated per line; the scale only changes layer
    // dimensions, never whether a name exists.
    Ok(ScenarioSpec { system, scale, seed, arrival, policy, jobs })
}

/// Load a scenario from a file on disk.
///
/// # Errors
///
/// [`ConfigError::Io`] when the file cannot be read, otherwise everything
/// [`parse_scenario`] reports.
pub fn load_scenario(path: &std::path::Path) -> Result<ScenarioSpec, ConfigError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| ConfigError::Io { path: path.display().to_string(), source })?;
    parse_scenario(&path.display().to_string(), &text)
}

fn parse_job(file: &str, line: usize, value: &str) -> Result<JobSpec, ConfigError> {
    // `<name> [@ <arrival>] [on <core>]`, tokens in either order.
    let mut tokens = value.split_whitespace();
    let Some(name) = tokens.next() else {
        return Err(ConfigError::parse(file, line, "empty `job` line"));
    };
    if !zoo::MODEL_NAMES.contains(&name) {
        return Err(ConfigError::UnknownWorkload { file: file.into(), line, name: name.into() });
    }
    let mut arrival = None;
    let mut core = None;
    while let Some(tok) = tokens.next() {
        let (slot, what): (&mut Option<u64>, _) = match tok {
            "@" => (&mut arrival, "arrival cycle after `@`"),
            "on" => {
                let Some(c) = tokens.next().and_then(|c| c.parse::<usize>().ok()) else {
                    return Err(ConfigError::parse(file, line, "expected core index after `on`"));
                };
                if core.replace(c).is_some() {
                    return Err(ConfigError::parse(file, line, "duplicate `on <core>`"));
                }
                continue;
            }
            other => {
                return Err(ConfigError::parse(
                    file,
                    line,
                    format!("unexpected token `{other}` in job line"),
                ))
            }
        };
        let Some(v) = tokens.next().and_then(|v| v.parse::<u64>().ok()) else {
            return Err(ConfigError::parse(file, line, format!("expected {what}")));
        };
        if slot.replace(v).is_some() {
            return Err(ConfigError::parse(file, line, "duplicate `@ <arrival>`"));
        }
    }
    Ok(JobSpec { network: name.to_string(), arrival, core })
}

fn parse_pattern(file: &str, line: usize, spec: &str) -> Result<ArrivalSpec, ConfigError> {
    let bad = || ConfigError::BadArrivalPattern { file: file.into(), line, spec: spec.into() };
    let mut parts = spec.split(':');
    match parts.next().map(str::trim) {
        Some("explicit") => {
            if parts.next().is_some() {
                return Err(bad());
            }
            Ok(ArrivalSpec::Explicit)
        }
        Some("fixed") => {
            let inc = parts.next().and_then(|v| v.trim().parse::<u64>().ok()).ok_or_else(bad)?;
            if parts.next().is_some() {
                return Err(bad());
            }
            Ok(ArrivalSpec::FixedIncrement { increment: inc })
        }
        Some("bursty") => {
            let burst =
                parts.next().and_then(|v| v.trim().parse::<usize>().ok()).ok_or_else(bad)?;
            let gap = parts.next().and_then(|v| v.trim().parse::<u64>().ok()).ok_or_else(bad)?;
            if burst == 0 || parts.next().is_some() {
                return Err(bad());
            }
            Ok(ArrivalSpec::Bursty { burst, mean_gap: gap })
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUAD: &str = "\
cores = 4
sharing = +DWT
seed = 7
pattern = fixed:1000
policy = round_robin
job = ncf
job = gpt2
job = yt
job = dlrm
";

    #[test]
    fn parses_a_full_scenario() {
        let s = parse_scenario("quad.scn", QUAD).unwrap();
        assert_eq!(s.system.cores, 4);
        assert_eq!(s.seed, 7);
        assert_eq!(s.arrival, ArrivalSpec::FixedIncrement { increment: 1000 });
        assert_eq!(s.policy, PolicySpec::RoundRobin);
        assert_eq!(s.jobs.len(), 4);
        assert_eq!(s.jobs[1].network, "gpt2");
        assert_eq!(s.jobs[1].arrival, None);
    }

    #[test]
    fn parses_explicit_arrivals_and_pins() {
        let text = "cores = 2\npolicy = pinned\njob = ncf @ 0 on 0\njob = gpt2 @ 500 on 1\n";
        let s = parse_scenario("t", text).unwrap();
        assert_eq!(s.arrival, ArrivalSpec::Explicit);
        assert_eq!(s.jobs[0].core, Some(0));
        assert_eq!(s.jobs[1].arrival, Some(500));
        assert_eq!(s.jobs[1].core, Some(1));
    }

    #[test]
    fn unknown_workload_is_typed() {
        let e = parse_scenario("t", "cores = 1\njob = nope\n").unwrap_err();
        match e {
            ConfigError::UnknownWorkload { line, ref name, .. } => {
                assert_eq!(line, 2);
                assert_eq!(name, "nope");
            }
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }

    #[test]
    fn unknown_policy_is_typed() {
        let e = parse_scenario("t", "cores = 1\npolicy = lifo\njob = ncf\n").unwrap_err();
        assert!(matches!(e, ConfigError::UnknownPolicy { line: 2, .. }), "{e:?}");
    }

    #[test]
    fn bad_pattern_is_typed() {
        for bad in ["poisson:10", "fixed", "bursty:0:100", "bursty:4", "fixed:10:20"] {
            let text = format!("cores = 1\npattern = {bad}\njob = ncf\n");
            let e = parse_scenario("t", &text).unwrap_err();
            assert!(matches!(e, ConfigError::BadArrivalPattern { .. }), "{bad}: {e:?}");
        }
    }

    #[test]
    fn pinned_policy_requires_valid_pins() {
        let e = parse_scenario("t", "cores = 2\npolicy = pinned\njob = ncf\n").unwrap_err();
        assert!(e.to_string().contains("no `on <core>`"));
        let e = parse_scenario("t", "cores = 2\npolicy = pinned\njob = ncf on 5\n").unwrap_err();
        assert!(e.to_string().contains("pinned to core 5"));
    }

    #[test]
    fn no_jobs_rejected() {
        let e = parse_scenario("t", "cores = 2\n").unwrap_err();
        assert!(e.to_string().contains("no `job` lines"));
    }

    #[test]
    fn duplicate_scalar_key_rejected_but_job_repeats() {
        let e = parse_scenario("t", "cores = 1\ncores = 2\njob = ncf\n").unwrap_err();
        assert!(e.to_string().contains("duplicate key `cores`"));
        assert!(parse_scenario("t", "cores = 1\njob = ncf\njob = ncf\n").is_ok());
    }

    #[test]
    fn bursty_pattern_parses() {
        let s = parse_scenario("t", "cores = 1\npattern = bursty:4:2000\njob = ncf\n").unwrap();
        assert_eq!(s.arrival, ArrivalSpec::Bursty { burst: 4, mean_gap: 2000 });
    }
}
