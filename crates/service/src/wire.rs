//! The service's request vocabulary: JSON bodies in, typed jobs out.
//!
//! A submission body describes one job in one of three kinds:
//!
//! * `"networks"` — a single-chip batch run: `cores`, `sharing`
//!   (`"ideal"`/`"static"`/`"+d"`/`"+dw"`/`"+dwt"`), `networks` (zoo
//!   names, one per core), optional `trace_window` and `probe`
//!   (`"stats"`/`"flight"`);
//! * `"serve"` — a dynamic scenario: `scenario` holds the scenario file
//!   text verbatim ([`mnpu_config::parse_scenario`]);
//! * `"sweep"` — a canonical sweep by name (`"tiny"`, `"fig04"`), run
//!   through the shared bench harness so its counts are comparable with
//!   `mnpu_hotpath`.
//!
//! Any job may carry `budget_ms` (wall-clock budget) and the resumable
//! kinds accept `resume` (a `mnpu-job-checkpoint` object from an earlier
//! stop). Every rejection is a typed [`WireError`] that maps to one 4xx
//! status and a one-line machine-readable message — the error contract
//! the HTTP error-path tests pin down.

use mnpu_config::parse_scenario;
use mnpu_engine::{ProbeMode, SharingLevel, SnapError, SystemConfig};
use mnpu_model::{zoo, Scale};
use mnpu_snapshot::json::{self, Value};
use mnpusim::{JobCheckpoint, RequestError, RunRequest, Runner};

/// How a job will execute.
#[derive(Debug, Clone)]
pub enum ExecPlan {
    /// A facade run ([`Runner`]), optionally resumed from a checkpoint.
    Facade(Box<Runner>, Option<JobCheckpoint>),
    /// A named canonical sweep through the shared bench harness.
    Sweep(String),
}

/// A validated submission: the execution plan plus its service options.
#[derive(Debug, Clone)]
pub struct WireJob {
    /// How to run it.
    pub plan: ExecPlan,
    /// Wall-clock budget in milliseconds; `None` = unbounded.
    pub budget_ms: Option<u64>,
    /// `true` when the job resumes a checkpoint (excluded from the result
    /// cache: its answer depends on the checkpoint, not just the body).
    pub resumed: bool,
    /// `true` when the body carried `"fault":"panic"` — a test hatch that
    /// makes the executing worker panic mid-run, so the flight-recorder
    /// black-box path can be exercised end to end.
    pub fault: bool,
}

/// Why a submission was rejected, each variant carrying the one-line
/// message returned to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The body is not valid JSON.
    Json(String),
    /// The body is JSON but not a valid job description.
    Field(String),
    /// A workload name is not in the zoo.
    UnknownWorkload(String),
    /// The serve scenario text failed to parse.
    Scenario(String),
    /// The assembled request failed facade validation
    /// ([`RequestError`]).
    Request(String),
    /// The resume checkpoint failed to decode ([`SnapError`], including
    /// version mismatches).
    Snapshot(SnapError),
}

impl WireError {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            // A checkpoint from a different format version or
            // configuration is a conflict with server state, not a syntax
            // error.
            WireError::Snapshot(_) => 409,
            _ => 400,
        }
    }

    /// The one-line message for the response body.
    pub fn message(&self) -> String {
        match self {
            WireError::Json(m) => m.clone(),
            WireError::Field(m) => m.clone(),
            WireError::UnknownWorkload(name) => {
                format!("unknown workload '{name}' (zoo: {})", zoo::MODEL_NAMES.join(", "))
            }
            WireError::Scenario(m) => m.clone(),
            WireError::Request(m) => format!("RequestError: {m}"),
            WireError::Snapshot(e) => format!("{e:?}"),
        }
    }
}

impl From<RequestError> for WireError {
    fn from(e: RequestError) -> Self {
        WireError::Request(e.to_string())
    }
}

impl From<SnapError> for WireError {
    fn from(e: SnapError) -> Self {
        WireError::Snapshot(e)
    }
}

fn sharing_by_name(name: &str) -> Option<SharingLevel> {
    Some(match name {
        "ideal" => SharingLevel::Ideal,
        "static" => SharingLevel::Static,
        "+d" => SharingLevel::PlusD,
        "+dw" => SharingLevel::PlusDw,
        "+dwt" => SharingLevel::PlusDwt,
        _ => return None,
    })
}

fn field_err(m: impl Into<String>) -> WireError {
    WireError::Field(m.into())
}

/// Parse and validate one submission body.
///
/// # Errors
///
/// A [`WireError`] describing the first problem found; nothing is
/// partially constructed.
pub fn parse_job(body: &str) -> Result<WireJob, WireError> {
    let v = json::parse(body).map_err(|e| WireError::Json(e.to_string()))?;
    let obj = v.as_obj().ok_or_else(|| field_err("job body must be a JSON object"))?;
    for key in obj.keys() {
        match key.as_str() {
            "kind" | "cores" | "sharing" | "networks" | "trace_window" | "probe" | "scenario"
            | "sweep" | "budget_ms" | "resume" | "fault" => {}
            other => return Err(field_err(format!("unknown field '{other}'"))),
        }
    }
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| field_err("missing or non-string 'kind'"))?;

    let budget_ms = match v.get("budget_ms") {
        None => None,
        Some(b) => Some(
            b.as_u64().ok_or_else(|| field_err("'budget_ms' must be a non-negative integer"))?,
        ),
    };
    let fault = match v.get("fault") {
        None => false,
        Some(f) => match f.as_str() {
            Some("panic") => true,
            _ => return Err(field_err("'fault' must be \"panic\"")),
        },
    };
    let resume = v.get("resume").map(JobCheckpoint::from_value).transpose()?;

    let plan = match kind {
        "networks" => {
            let cores = v
                .get("cores")
                .and_then(Value::as_u64)
                .ok_or_else(|| field_err("'networks' jobs need an integer 'cores'"))?
                as usize;
            if cores == 0 || cores > 64 {
                return Err(field_err("'cores' must be between 1 and 64"));
            }
            let sharing_name = v
                .get("sharing")
                .and_then(Value::as_str)
                .ok_or_else(|| field_err("'networks' jobs need a 'sharing' level"))?;
            let sharing = sharing_by_name(sharing_name).ok_or_else(|| {
                field_err(format!(
                    "unknown sharing level '{sharing_name}' (ideal, static, +d, +dw, +dwt)"
                ))
            })?;
            let names = v
                .get("networks")
                .and_then(Value::as_arr)
                .ok_or_else(|| field_err("'networks' jobs need a 'networks' array"))?;
            let mut nets = Vec::with_capacity(names.len());
            for n in names {
                let name =
                    n.as_str().ok_or_else(|| field_err("'networks' entries must be strings"))?;
                let net = zoo::by_name(name, Scale::Bench)
                    .ok_or_else(|| WireError::UnknownWorkload(name.to_string()))?;
                nets.push(net);
            }
            let mut cfg = SystemConfig::bench(cores, sharing);
            if let Some(w) = v.get("trace_window") {
                cfg.trace_window =
                    Some(w.as_u64().ok_or_else(|| field_err("'trace_window' must be an integer"))?);
            }
            if let Some(p) = v.get("probe") {
                cfg.probe = match p.as_str() {
                    Some("stats") => ProbeMode::Stats,
                    Some("flight") => ProbeMode::Flight,
                    Some("none") => ProbeMode::None,
                    _ => {
                        return Err(field_err("'probe' must be \"stats\", \"flight\" or \"none\""))
                    }
                };
            }
            let runner = RunRequest::networks(&cfg, nets).build()?;
            ExecPlan::Facade(Box::new(runner), resume)
        }
        "serve" => {
            let text = v
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or_else(|| field_err("'serve' jobs need a 'scenario' text field"))?;
            let spec = parse_scenario("wire", text)
                .map_err(|e| WireError::Scenario(format!("scenario: {e}")))?;
            let runner = RunRequest::serve(spec).build()?;
            ExecPlan::Facade(Box::new(runner), resume)
        }
        "sweep" => {
            if resume.is_some() {
                return Err(field_err("'sweep' jobs are not resumable"));
            }
            let name = v
                .get("sweep")
                .and_then(Value::as_str)
                .ok_or_else(|| field_err("'sweep' jobs need a 'sweep' name"))?;
            if mnpu_bench::sweeps::by_name(name).is_none() {
                return Err(field_err(format!("unknown sweep '{name}' (tiny, fig04)")));
            }
            ExecPlan::Sweep(name.to_string())
        }
        other => return Err(field_err(format!("unknown kind '{other}'"))),
    };

    let resumed = matches!(&plan, ExecPlan::Facade(_, Some(_)));
    Ok(WireJob { plan, budget_ms, resumed, fault })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_networks_job() {
        let job = parse_job(
            r#"{"kind":"networks","cores":2,"sharing":"+dwt",
                "networks":["ncf","gpt2"],"budget_ms":500}"#,
        )
        .unwrap();
        assert_eq!(job.budget_ms, Some(500));
        assert!(!job.resumed);
        assert!(matches!(job.plan, ExecPlan::Facade(_, None)));
    }

    #[test]
    fn parses_a_serve_job() {
        let job = parse_job(r#"{"kind":"serve","scenario":"cores = 1\njob = ncf\njob = ncf\n"}"#)
            .unwrap();
        assert!(matches!(job.plan, ExecPlan::Facade(_, None)));
        assert_eq!(job.budget_ms, None);
    }

    #[test]
    fn parses_flight_probe_and_fault_hatch() {
        let job = parse_job(
            r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],
                "probe":"flight","fault":"panic"}"#,
        )
        .unwrap();
        assert!(job.fault);
        assert!(matches!(job.plan, ExecPlan::Facade(_, None)));
        assert!(matches!(
            parse_job(r#"{"kind":"sweep","sweep":"tiny","fault":"segfault"}"#),
            Err(WireError::Field(ref m)) if m.contains("fault")
        ));
    }

    #[test]
    fn parses_a_sweep_job() {
        let job = parse_job(r#"{"kind":"sweep","sweep":"tiny"}"#).unwrap();
        assert!(matches!(job.plan, ExecPlan::Sweep(ref n) if n == "tiny"));
    }

    #[test]
    fn rejects_with_typed_errors() {
        assert!(matches!(parse_job("{nope"), Err(WireError::Json(_))));
        assert!(matches!(parse_job("[1,2]"), Err(WireError::Field(_))));
        assert!(matches!(
            parse_job(r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["nope"]}"#),
            Err(WireError::UnknownWorkload(ref n)) if n == "nope"
        ));
        assert!(matches!(
            parse_job(r#"{"kind":"serve","scenario":"cores = 0\n"}"#),
            Err(WireError::Scenario(_))
        ));
        // Wrong workload count per core -> facade-level RequestError.
        let err =
            parse_job(r#"{"kind":"networks","cores":2,"sharing":"ideal","networks":["ncf"]}"#)
                .unwrap_err();
        assert!(matches!(err, WireError::Request(_)));
        assert!(err.message().contains("RequestError"));
        // Unknown fields are rejected loudly rather than ignored.
        assert!(matches!(
            parse_job(r#"{"kind":"sweep","sweep":"tiny","budget":5}"#),
            Err(WireError::Field(ref m)) if m.contains("budget")
        ));
    }

    #[test]
    fn resume_version_mismatch_is_a_snapshot_error() {
        let body = r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],
            "resume":{"format":"mnpu-job-checkpoint","version":999,"kind":"batch","payload":""}}"#;
        let err = parse_job(body).unwrap_err();
        assert_eq!(err.status(), 409);
        assert!(matches!(err, WireError::Snapshot(SnapError::VersionMismatch { found: 999, .. })));
        assert!(err.message().contains("VersionMismatch"));
    }

    #[test]
    fn resume_must_be_exactly_a_checkpoint_wrapper() {
        let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
        let ckpt = RunRequest::networks(&cfg, vec![zoo::ncf(Scale::Bench)])
            .build()
            .unwrap()
            .run_with(None, None, &mut || mnpusim::RunControl::Checkpoint)
            .unwrap()
            .checkpoint()
            .to_json();
        let body = |resume: &str| {
            format!(
                r#"{{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],
                    "resume":{resume}}}"#
            )
        };
        assert!(parse_job(&body(&ckpt)).unwrap().resumed);
        // A checkpoint nested under another key is not a checkpoint.
        let nested = parse_job(&body(&format!(r#"{{"a":{ckpt}}}"#))).unwrap_err();
        assert!(matches!(nested, WireError::Snapshot(SnapError::BadJson(_))), "{nested:?}");
        // Like the job body, the checkpoint object rejects unknown keys.
        let extra = parse_job(&body(&ckpt.replacen('{', r#"{"extra":1,"#, 1))).unwrap_err();
        assert!(matches!(extra, WireError::Snapshot(SnapError::BadJson(_))), "{extra:?}");
        for err in [nested, extra] {
            assert!((400..500).contains(&err.status()));
        }
    }

    #[test]
    fn integer_fields_are_exact() {
        let body = |b: &str| format!(r#"{{"kind":"sweep","sweep":"tiny","budget_ms":{b}}}"#);
        // 2^53 + 1 arrives as itself, not rounded through f64.
        let job = parse_job(&body("9007199254740993")).unwrap();
        assert_eq!(job.budget_ms, Some(9_007_199_254_740_993));
        // 2^64 does not fit in u64: rejected, not saturated.
        let err = parse_job(&body("18446744073709551616")).unwrap_err();
        assert!(matches!(err, WireError::Field(ref m) if m.contains("budget_ms")), "{err:?}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn statuses_are_4xx() {
        assert_eq!(WireError::Json("x".into()).status(), 400);
        assert_eq!(WireError::Snapshot(SnapError::Truncated).status(), 409);
    }
}
