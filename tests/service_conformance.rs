//! Black-box conformance suite for `mnpu-serviced`: everything here talks
//! to the daemon over real TCP/HTTP against an ephemeral port, exactly as
//! an external client would, and compares the bytes it gets back against
//! in-process facade runs of the same workloads.
//!
//! The three pillars:
//!
//! 1. **Byte identity** — the daemon's `/report` for the quad-core golden
//!    workload and for a tiny serve scenario must equal the in-process
//!    `RunRequest` serialization byte for byte.
//! 2. **Stop-safety** — a job stopped mid-flight (budget or `DELETE`) and
//!    resumed from its handed-back checkpoint must produce the same bytes
//!    as the uninterrupted run.
//! 3. **Admission** — with the queue bound at 2 and dispatch held, 8
//!    concurrent submissions yield exactly 2 acceptances and 6 `429`s
//!    (with `Retry-After`), and both accepted jobs complete after release.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mnpu_config::parse_scenario;
use mnpu_service::{Service, ServiceConfig};
use mnpusim::prelude::*;
use mnpusim::{zoo, Scale};

/// One HTTP exchange; returns (status, headers, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("daemon is listening");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: conformance\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).expect("status line").parse().unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

/// Pull a `"key":"value"` string out of a response body (the bodies are
/// tiny service-authored JSON; a full parser is not needed here).
fn str_field(body: &str, key: &str) -> String {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker).unwrap_or_else(|| panic!("no {key} in {body}")) + marker.len();
    body[start..].split('"').next().unwrap().to_string()
}

fn submit(addr: SocketAddr, body: &str) -> String {
    let (status, _, resp) = request(addr, "POST", "/v1/jobs", body);
    assert_eq!(status, 202, "submission refused: {resp}");
    str_field(&resp, "id")
}

fn wait_terminal(addr: SocketAddr, id: &str) -> String {
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let state = str_field(&body, "state");
        if !matches!(state.as_str(), "queued" | "running") {
            return state;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn report(addr: SocketAddr, id: &str) -> String {
    let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{id}/report"), "");
    assert_eq!(status, 200, "{body}");
    body
}

/// The engine's pinned golden workload: quad-core +DWT with bandwidth
/// tracing, four mixed benchmarks.
fn golden_config() -> SystemConfig {
    let mut cfg = SystemConfig::bench(4, SharingLevel::PlusDwt);
    cfg.trace_window = Some(4096);
    cfg
}

fn golden_nets() -> Vec<mnpusim::Network> {
    vec![
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
        zoo::yolo_tiny(Scale::Bench),
        zoo::dlrm(Scale::Bench),
    ]
}

const GOLDEN_BODY: &str = r#"{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096}"#;

#[test]
fn daemon_quad_golden_is_byte_identical_to_facade() {
    let expected = RunRequest::networks(&golden_config(), golden_nets()).run().batch().to_json();
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();

    let id = submit(addr, GOLDEN_BODY);
    assert_eq!(wait_terminal(addr, &id), "completed");
    assert_eq!(report(addr, &id), expected, "daemon and facade bytes diverge");
    svc.shutdown();
}

#[test]
fn daemon_serve_scenario_is_byte_identical_to_facade() {
    let scenario = "cores = 2\nsharing = +DWT\npattern = fixed:2000\n\
                    policy = first_free\njob = ncf\njob = gpt2\njob = ncf\n";
    let spec = parse_scenario("conformance", scenario).unwrap();
    let expected = RunRequest::serve(spec).run().serve().to_json();

    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    let body = format!(r#"{{"kind":"serve","scenario":"{}"}}"#, scenario.replace('\n', "\\n"));
    let id = submit(addr, &body);
    assert_eq!(wait_terminal(addr, &id), "completed");
    assert_eq!(report(addr, &id), expected, "daemon and facade serve bytes diverge");
    svc.shutdown();
}

/// Budget 0 stops the run deterministically at its first safe boundary;
/// the handed-back checkpoint resumed through the daemon must finish with
/// the uninterrupted run's exact bytes.
#[test]
fn budget_stop_then_resume_matches_uninterrupted_run() {
    let expected = RunRequest::networks(&golden_config(), golden_nets()).run().batch().to_json();
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();

    let budgeted = r#"{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096,"budget_ms":0}"#;

    let id = submit(addr, budgeted);
    assert_eq!(wait_terminal(addr, &id), "over_budget");
    let (status, _, ckpt) = request(addr, "GET", &format!("/v1/jobs/{id}/checkpoint"), "");
    assert_eq!(status, 200, "over-budget jobs must hand back a checkpoint: {ckpt}");
    assert!(ckpt.contains("mnpu-job-checkpoint"));

    // Resume: same workload body plus the checkpoint, no budget this time.
    let resume_body = format!(
        r#"{{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096,"resume":{ckpt}}}"#
    );
    let rid = submit(addr, &resume_body);
    assert_eq!(wait_terminal(addr, &rid), "completed");
    assert_eq!(report(addr, &rid), expected, "resumed run diverged from uninterrupted run");
    svc.shutdown();
}

/// A true `DELETE` mid-run: the stop cycle is whatever poll the request
/// lands on, and the resumed run must *still* match the uninterrupted
/// bytes — stopping never changes the answer, wherever it happens.
#[test]
fn cancel_mid_run_then_resume_matches_uninterrupted_run() {
    let expected = RunRequest::networks(&golden_config(), golden_nets()).run().batch().to_json();
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();

    // A distinct body (huge budget) so the result cache from other tests'
    // submissions cannot answer it instantly.
    let body = r#"{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096,"budget_ms":3600000}"#;
    let id = submit(addr, body);
    // Wait until it is actually running, then cancel.
    loop {
        let (_, _, status_body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        if str_field(&status_body, "state") != "queued" {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, _) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200);
    match wait_terminal(addr, &id).as_str() {
        "cancelled" => {
            let (status, _, ckpt) = request(addr, "GET", &format!("/v1/jobs/{id}/checkpoint"), "");
            assert_eq!(status, 200, "cancelled-while-running jobs keep their work: {ckpt}");
            let resume_body = format!(
                r#"{{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096,"resume":{ckpt}}}"#
            );
            let rid = submit(addr, &resume_body);
            assert_eq!(wait_terminal(addr, &rid), "completed");
            assert_eq!(report(addr, &rid), expected, "cancel/resume changed the answer");
        }
        // The run can legitimately win the race and finish before the
        // DELETE lands; byte identity must then hold directly.
        "completed" => assert_eq!(report(addr, &id), expected),
        other => panic!("unexpected terminal state {other}"),
    }
    svc.shutdown();
}

#[test]
fn version_endpoint_reports_build_and_hatches() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    let (status, _, body) = request(addr, "GET", "/v1/version", "");
    assert_eq!(status, 200, "{body}");
    let v = mnpu_snapshot::json::parse(&body).expect("version body is JSON");
    assert_eq!(v.get("name").and_then(|x| x.as_str()), Some("mnpu-service"));
    assert!(!str_field(&body, "version").is_empty());
    assert!(v.get("snapshot_version").and_then(|x| x.as_u64()).is_some(), "{body}");
    // The determinism escape hatches are booleans, whatever the env says.
    assert!(body.contains("\"fastfwd\":"), "{body}");
    assert!(body.contains("\"prefix_share\":"), "{body}");
    svc.shutdown();
}

#[test]
fn metrics_are_prometheus_exposition_compliant() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    let id = submit(addr, r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]}"#);
    assert_eq!(wait_terminal(addr, &id), "completed");
    let (status, head, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "metrics must advertise the exposition content type: {head}"
    );
    mnpusim::metrics::prom::lint(&body).expect("metrics must pass the exposition lint");
    assert!(body.contains("# TYPE service_job_latency_seconds histogram"), "{body}");
    assert!(body.contains("# TYPE service_dispatch_queue_depth histogram"), "{body}");
    assert!(body.contains("sim_fastfwd_commits_total"), "{body}");
    svc.shutdown();
}

/// The black-box test: a worker panic mid-job must leave a well-formed
/// `flight-<job>.json` whose trailing events show what the job was doing
/// when it died.
#[test]
fn worker_panic_dumps_a_wellformed_flight_recording() {
    let dir = std::env::temp_dir().join(format!("mnpu-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig { flight_dir: Some(dir.clone()), ..ServiceConfig::default() };
    let svc = Service::start(cfg).unwrap();
    let addr = svc.addr();

    let body = r#"{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096,"fault":"panic"}"#;
    let id = submit(addr, body);
    assert_eq!(wait_terminal(addr, &id), "failed");
    let (_, _, status_body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert!(status_body.contains("induced fault"), "{status_body}");

    // The dump is written after the terminal state is published; poll
    // briefly for the file.
    let path = dir.join(format!("flight-{id}.json"));
    let mut waited = 0;
    while !path.exists() && waited < 2000 {
        std::thread::sleep(Duration::from_millis(10));
        waited += 10;
    }
    let doc = std::fs::read_to_string(&path).expect("flight dump must exist after a panic");
    let v = mnpu_snapshot::json::parse(&doc).expect("flight dump is well-formed JSON");
    assert_eq!(v.get("format").and_then(|x| x.as_str()), Some("mnpu-flight"));
    assert_eq!(v.get("job").and_then(|x| x.as_str()), Some(id.as_str()));
    let events = v.get("events").and_then(|x| x.as_arr()).expect("events array");
    assert!(!events.is_empty(), "a panicking job must leave events behind");
    // The tail of the recording matches the job's phase at death: driver
    // polls, then the failed lifecycle edge finish() recorded.
    let last = events.last().unwrap();
    assert_eq!(last.get("kind").and_then(|x| x.as_str()), Some("failed"), "{doc}");
    assert!(
        events.iter().any(|e| e.get("kind").and_then(|x| x.as_str()) == Some("poll")),
        "the ring must show the driver polling before the death: {doc}"
    );
    // The same recording is fetchable over HTTP, and the live progress
    // cell agrees about the terminal phase.
    let (status, _, flight) = request(addr, "GET", &format!("/v1/jobs/{id}/flight"), "");
    assert_eq!(status, 200);
    assert!(flight.contains("\"kind\":\"failed\""), "{flight}");
    let (status, _, progress) = request(addr, "GET", &format!("/v1/jobs/{id}/progress"), "");
    assert_eq!(status, 200);
    assert_eq!(str_field(&progress, "phase"), "failed");
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Live progress: polling a running job's `/progress` must show cycle
/// counts that only ever grow.
#[test]
fn progress_cycles_grow_monotonically_across_polls() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    // A unique body (distinct budget) so the result cache of sibling
    // tests cannot answer it instantly.
    let body = r#"{"kind":"networks","cores":4,"sharing":"+dwt","networks":["ncf","gpt2","yt","dlrm"],"trace_window":4096,"budget_ms":3600001}"#;
    let id = submit(addr, body);

    let mut samples: Vec<u64> = Vec::new();
    let mut live_samples = 0usize;
    loop {
        let (_, _, status_body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let state = str_field(&status_body, "state");
        if state == "queued" {
            continue;
        }
        let (status, _, progress) = request(addr, "GET", &format!("/v1/jobs/{id}/progress"), "");
        assert_eq!(status, 200, "{progress}");
        let v = mnpu_snapshot::json::parse(&progress).unwrap();
        samples.push(v.get("cycles").and_then(|x| x.as_u64()).unwrap());
        if state == "running" {
            live_samples += 1;
        } else {
            break;
        }
    }
    // Whatever the interleaving, every poll of a dispatched job saw a
    // non-decreasing cycle count, we got at least 3 reads, and the job
    // made real progress.
    while samples.len() < 3 {
        let (_, _, progress) = request(addr, "GET", &format!("/v1/jobs/{id}/progress"), "");
        let v = mnpu_snapshot::json::parse(&progress).unwrap();
        samples.push(v.get("cycles").and_then(|x| x.as_u64()).unwrap());
    }
    assert!(samples.windows(2).all(|w| w[0] <= w[1]), "cycles regressed: {samples:?}");
    assert!(*samples.last().unwrap() > 0, "job finished with zero published cycles");
    assert!(live_samples > 0 || wait_terminal(addr, &id) == "completed");
    svc.shutdown();
}

#[test]
fn admission_bounces_exactly_the_excess_and_loses_nothing() {
    let cfg = ServiceConfig { queue_depth: 2, workers: 1, ..ServiceConfig::default() };
    let svc = Service::start(cfg).unwrap();
    let addr = svc.addr();
    // Hold dispatch so the queue fills deterministically.
    let (status, _, _) = request(addr, "POST", "/v1/hold", "");
    assert_eq!(status, 200);

    let body = r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]}"#;
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, head, resp) = request(addr, "POST", "/v1/jobs", body);
                let id = (status == 202).then(|| str_field(&resp, "id"));
                (status, head, id)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let accepted: Vec<_> = results.iter().filter(|(s, _, _)| *s == 202).collect();
    let rejected: Vec<_> = results.iter().filter(|(s, _, _)| *s == 429).collect();
    assert_eq!(accepted.len(), 2, "exactly the queue bound is admitted: {results:?}");
    assert_eq!(rejected.len(), 6, "exactly the excess is bounced: {results:?}");
    for (_, head, _) in &rejected {
        assert!(head.contains("Retry-After:"), "429 must advertise Retry-After: {head}");
    }

    // Release the hold: every accepted job must run to completion.
    let (status, _, _) = request(addr, "POST", "/v1/release", "");
    assert_eq!(status, 200);
    for (_, _, id) in &accepted {
        let id = id.as_ref().unwrap();
        assert_eq!(wait_terminal(addr, id), "completed", "an accepted job was dropped");
    }
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metrics.contains("service_submissions_total 8"), "{metrics}");
    assert!(metrics.contains("service_rejects_total 6"), "{metrics}");
    assert!(metrics.contains("service_completions_total 2"), "{metrics}");
    svc.shutdown();
}

/// The integer value of an unlabelled sample line `name <value>`.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} sample in {metrics}"))
}

/// Every `/metrics` job counter is a count of one lifecycle phase: drive
/// one job to each outcome, then require each counter to equal what the
/// status timelines show.
#[test]
fn metrics_counters_match_the_status_timelines() {
    let cfg = ServiceConfig { workers: 1, queue_depth: 1, ..ServiceConfig::default() };
    let svc = Service::start(cfg).unwrap();
    let addr = svc.addr();
    let small = r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]"#;
    // Forty serve jobs take seconds; a stop lands at the next step, so these
    // are stopped mid-run and never run to the end.
    let long = |tail: &str| {
        let jobs = "job = res\\n".repeat(40);
        format!(r#"{{"kind":"serve","scenario":"cores = 1\npattern = fixed:0\n{jobs}",{tail}}}"#)
    };
    let wait_running = |id: &str| loop {
        let (_, _, status) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        if str_field(&status, "state") != "queued" {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    let done = submit(addr, &format!("{small}}}"));
    assert_eq!(wait_terminal(addr, &done), "completed");
    let cached = submit(addr, &format!("{small}}}"));
    assert_eq!(wait_terminal(addr, &cached), "completed");
    let budget = submit(addr, &format!(r#"{small},"budget_ms":0}}"#));
    assert_eq!(wait_terminal(addr, &budget), "over_budget");
    let failed = submit(addr, &long(r#""fault":"panic""#));
    assert_eq!(wait_terminal(addr, &failed), "failed");
    let cancel_running = submit(addr, &long(r#""budget_ms":3600000"#));
    wait_running(&cancel_running);
    assert_eq!(request(addr, "DELETE", &format!("/v1/jobs/{cancel_running}"), "").0, 200);
    assert_eq!(wait_terminal(addr, &cancel_running), "cancelled");

    assert_eq!(request(addr, "POST", "/v1/hold", "").0, 200);
    let cancel_queued = submit(addr, &format!(r#"{small},"budget_ms":1}}"#));
    assert_eq!(request(addr, "POST", "/v1/jobs", &format!("{small}}}")).0, 429);
    assert_eq!(request(addr, "DELETE", &format!("/v1/jobs/{cancel_queued}"), "").0, 200);
    assert_eq!(wait_terminal(addr, &cancel_queued), "cancelled");
    assert_eq!(request(addr, "POST", "/v1/release", "").0, 200);

    let drained = submit(addr, &long(r#""budget_ms":3600001"#));
    wait_running(&drained);
    let left_queued = submit(addr, &format!("{small}}}"));
    assert_eq!(request(addr, "POST", "/v1/drain", "").0, 200);
    assert_eq!(wait_terminal(addr, &drained), "suspended");

    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    let mut ends = std::collections::BTreeMap::<String, u64>::new();
    let (mut dispatched, mut from_cache, mut live) = (0, 0, 0);
    for id in
        [&done, &cached, &budget, &failed, &cancel_running, &cancel_queued, &drained, &left_queued]
    {
        let (_, _, status) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let v = mnpu_snapshot::json::parse(&status).unwrap();
        let timeline = v.get("timeline").and_then(|t| t.as_arr()).unwrap();
        let phases: Vec<&str> =
            timeline.iter().map(|e| e.get("phase").and_then(|p| p.as_str()).unwrap()).collect();
        *ends.entry(phases.last().unwrap().to_string()).or_default() += 1;
        dispatched += phases.iter().filter(|p| matches!(**p, "dispatched" | "resumed")).count();
        from_cache += usize::from(status.contains("\"from_cache\":true"));
        live += usize::from(matches!(str_field(&status, "state").as_str(), "queued" | "running"));
    }
    let expected_ends = [
        ("cancelled", 2),
        ("completed", 2),
        ("failed", 1),
        ("over_budget", 1),
        ("submitted", 1),
        ("suspended", 1),
    ];
    assert_eq!(ends, expected_ends.map(|(p, n)| (p.to_string(), n)).into(), "{metrics}");
    for (counter, phase) in [
        ("service_completions_total", "completed"),
        ("service_cancellations_total", "cancelled"),
        ("service_over_budget_total", "over_budget"),
        ("service_failures_total", "failed"),
        ("service_suspended_total", "suspended"),
    ] {
        assert_eq!(sample(&metrics, counter), ends[phase], "{counter}: {metrics}");
    }
    assert_eq!(sample(&metrics, "service_dispatches_total"), dispatched as u64, "{metrics}");
    assert_eq!(sample(&metrics, "service_cache_hits_total"), from_cache as u64, "{metrics}");
    assert_eq!(sample(&metrics, "service_submissions_total"), 9, "{metrics}");
    assert_eq!(sample(&metrics, "service_rejects_total"), 1, "{metrics}");
    assert_eq!(sample(&metrics, "service_jobs_in_system"), live as u64, "{metrics}");
    assert_eq!(live, 1);
    let families: Vec<&str> =
        metrics.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
    assert_eq!(
        families,
        [
            "service_queue_depth",
            "service_queue_bound",
            "service_jobs_running",
            "service_jobs_in_system",
            "service_workers",
            "service_worker_utilization",
            "service_submissions_total",
            "service_rejects_total",
            "service_dispatches_total",
            "service_completions_total",
            "service_cancellations_total",
            "service_over_budget_total",
            "service_failures_total",
            "service_suspended_total",
            "service_cache_hits_total",
            "service_worker_busy_ms_total",
            "sim_run_cache_hits_total",
            "sim_prefix_share_sims_total",
            "sim_fastfwd_commits_total",
            "service_job_latency_seconds",
            "service_dispatch_queue_depth",
        ]
    );
    svc.shutdown();
}
