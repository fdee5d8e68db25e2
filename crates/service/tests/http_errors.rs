//! Error-path conformance: every malformed or unacceptable request gets a
//! typed 4xx with a one-line JSON error — and the daemon stays fully
//! serviceable afterwards. No input a client can send may take down a
//! worker.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mnpu_service::{Service, ServiceConfig};

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("daemon is listening");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: errs\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).expect("status line").parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Submit a known-good job and wait for it to complete — the proof that
/// the daemon survived whatever came before.
fn assert_serviceable(addr: SocketAddr) {
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]}"#,
    );
    assert_eq!(status, 202, "daemon no longer accepts work: {body}");
    let id_start = body.find("job-").expect("an id");
    let id: String =
        body[id_start..].chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect();
    loop {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200);
        if body.contains("\"state\":\"completed\"") {
            return;
        }
        assert!(
            !body.contains("\"state\":\"failed\""),
            "the canary job failed — a worker is damaged: {body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn malformed_json_is_400_and_daemon_survives() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    for bad in ["{nope", "", "[1,2,3]", "\"just a string\"", "{\"kind\":42}"] {
        let (status, body) = request(addr, "POST", "/v1/jobs", bad);
        assert_eq!(status, 400, "for {bad:?}: {body}");
        assert!(body.contains("\"error\""), "for {bad:?}: {body}");
    }
    assert_serviceable(addr);
    svc.shutdown();
}

#[test]
fn unknown_workload_is_400_with_the_zoo_listing() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["resnet5000"]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown workload 'resnet5000'"), "{body}");
    assert!(body.contains("ncf"), "the error should list valid names: {body}");
    // Shape errors surface the facade's own RequestError message.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"networks","cores":2,"sharing":"ideal","networks":["ncf"]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("RequestError"), "{body}");
    assert_serviceable(addr);
    svc.shutdown();
}

#[test]
fn zero_trace_window_is_400_not_a_worker_death() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],"trace_window":0}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("trace_window must be positive"), "{body}");
    assert_serviceable(addr);
    svc.shutdown();
}

#[test]
fn oversize_body_is_413_without_reading_the_payload() {
    let cfg = ServiceConfig { body_limit: 1024, ..ServiceConfig::default() };
    let svc = Service::start(cfg).unwrap();
    let addr = svc.addr();
    let huge = format!(r#"{{"kind":"networks","pad":"{}"}}"#, "x".repeat(4096));
    let (status, body) = request(addr, "POST", "/v1/jobs", &huge);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    assert_serviceable(addr);
    svc.shutdown();
}

#[test]
fn resume_version_mismatch_is_409_not_a_worker_death() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    let body = r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],
        "resume":{"format":"mnpu-job-checkpoint","version":999,"kind":"batch","payload":""}}"#;
    let (status, resp) = request(addr, "POST", "/v1/jobs", body);
    assert_eq!(status, 409, "{resp}");
    assert!(resp.contains("VersionMismatch"), "{resp}");
    // A right-version wrapper around corrupt snapshot bytes is the same
    // class of conflict.
    let body = format!(
        r#"{{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],
        "resume":{{"format":"mnpu-job-checkpoint","version":{},"kind":"batch","payload":""}}}}"#,
        mnpu_engine::SNAPSHOT_VERSION
    );
    let (status, resp) = request(addr, "POST", "/v1/jobs", &body);
    assert_eq!(status, 409, "{resp}");
    assert!(!resp.contains("VersionMismatch"), "{resp}");
    // A checkpoint that *decodes* but is offered to a non-resumable kind
    // is a plain 400 at admission.
    let cfg = mnpu_engine::SystemConfig::bench(1, mnpu_engine::SharingLevel::Ideal);
    let nets = vec![mnpusim::zoo::ncf(mnpusim::Scale::Bench)];
    let ckpt = mnpusim::RunRequest::networks(&cfg, nets)
        .build()
        .unwrap()
        .run_with(None, None, &mut || mnpusim::RunControl::Checkpoint)
        .unwrap()
        .checkpoint()
        .to_json();
    let body = format!(r#"{{"kind":"sweep","sweep":"tiny","resume":{ckpt}}}"#);
    let (status, resp) = request(addr, "POST", "/v1/jobs", &body);
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("not resumable"), "{resp}");
    assert_serviceable(addr);
    svc.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let svc = Service::start(ServiceConfig::default()).unwrap();
    let addr = svc.addr();
    assert_eq!(request(addr, "GET", "/v2/jobs", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/jobs/job-999", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/jobs/not-an-id", "").0, 404);
    assert_eq!(request(addr, "PATCH", "/v1/jobs", "").0, 405);
    let (status, body) = request(addr, "POST", "/v1/jobs", r#"{"kind":"sweep","sweep":"huge"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown sweep"), "{body}");
    assert_serviceable(addr);
    svc.shutdown();
}
