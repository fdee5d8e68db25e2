//! The always-on simulation service: a bounded worker pool behind an
//! HTTP/1.1 control plane.
//!
//! One [`Service`] owns three kinds of threads: an accept loop, one
//! short-lived handler per connection, and `workers` long-lived execution
//! threads. All shared state sits behind a single mutex + condvar pair —
//! admission queue, job table, counters, result cache, and the
//! `hold`/`draining` flags — and every blocking wait (worker looking for
//! work, drain waiting for running jobs) is a condition on that one state,
//! so the lifecycle has no lock-ordering to get wrong. Every lifecycle
//! transition goes through [`JobRecord::enter`](crate::JobRecord::enter),
//! which writes the job's timeline, its telemetry and the counters
//! together.
//!
//! Execution reuses the rest of the workspace rather than reimplementing
//! it: facade jobs run through [`mnpusim::Runner::run_with`] (so
//! cancellation, budgets and drain all stop at bit-exact checkpoint
//! boundaries), and sweep jobs run through the shared
//! bench [`Harness`] (so a daemon-run sweep accumulates exactly the counts
//! `mnpu_hotpath` prints, warm-start prefix sharing included).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mnpu_bench::{sweeps, Harness};
use mnpu_engine::FanOut;
use mnpu_metrics::prom;
use mnpu_snapshot::json;
use mnpu_trace::{JobPhase, TraceHandle};
use mnpusim::{RunControl, RunOutcome, RunProgress};

use crate::http::{self, Request};
use crate::jobs::{JobTable, ServiceStats};
use crate::queue::{Admission, AdmissionQueue};
use crate::wire::{self, ExecPlan};

/// How a daemon instance is shaped.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission queue bound: submissions beyond it get 429.
    pub queue_depth: usize,
    /// Largest accepted request body in bytes (resume bodies embed
    /// hex-encoded snapshots, so the default is generous).
    pub body_limit: usize,
    /// The `Retry-After` seconds advertised on 429.
    pub retry_after_secs: u64,
    /// Where a drain writes its manifest and per-job checkpoint files;
    /// `None` drains without persisting.
    pub checkpoint_dir: Option<PathBuf>,
    /// Where abnormally-stopped jobs (panic, budget, cancel, drain) dump
    /// their flight-recorder black box as `flight-<job>.json`; `None`
    /// disables the dumps (telemetry stays fetchable over HTTP).
    pub flight_dir: Option<PathBuf>,
    /// Per-job flight-recorder ring capacity, in events.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            body_limit: 16 << 20,
            retry_after_secs: 1,
            checkpoint_dir: None,
            flight_dir: None,
            flight_capacity: mnpu_trace::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Everything behind the big lock.
struct State {
    queue: AdmissionQueue,
    jobs: JobTable,
    stats: ServiceStats,
    /// Completed results by submission body. Deterministic simulations
    /// make this sound: the same body always produces the same bytes.
    cache: HashMap<String, String>,
    /// `true` pauses dispatch while admission keeps running — the switch
    /// the backpressure tests use to fill the queue deterministically.
    hold: bool,
    /// `true` once a drain began: no new admissions, no new dispatches,
    /// running jobs checkpoint at their next poll.
    draining: bool,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    cv: Condvar,
    started: Instant,
    harness: Harness,
    accepting: AtomicBool,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// What a drain left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that were running and were checkpointed.
    pub suspended_running: usize,
    /// Jobs that were still queued and were returned to the backlog.
    pub suspended_queued: usize,
    /// Files written under the configured checkpoint directory.
    pub files: Vec<PathBuf>,
}

/// A running daemon instance. Start one with [`Service::start`], stop it
/// with [`Service::shutdown`] (which drains: running jobs checkpoint, the
/// backlog is preserved, nothing in flight is lost).
pub struct Service {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Bind, spawn the worker pool and the accept loop, and return.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Service> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: AdmissionQueue::new(cfg.queue_depth),
                jobs: JobTable::new(),
                stats: ServiceStats::default(),
                cache: HashMap::new(),
                hold: false,
                draining: false,
            }),
            cv: Condvar::new(),
            started: Instant::now(),
            harness: Harness::new(),
            accepting: AtomicBool::new(true),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, w))
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        Ok(Service { inner, addr, accept: Some(accept), workers })
    }

    /// The bound address (the actual port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a drain has been requested (by [`Service::shutdown`] or
    /// by `POST /v1/drain`). The daemon binary polls this to exit.
    pub fn draining(&self) -> bool {
        self.inner.state.lock().unwrap().draining
    }

    /// Drain and stop: refuse new work, checkpoint every running job at
    /// its next safe boundary, suspend the backlog, persist everything to
    /// the checkpoint directory (when configured), and join all threads.
    pub fn shutdown(mut self) -> DrainReport {
        let (running_ids, queued_ids) = {
            let mut guard = self.inner.state.lock().unwrap();
            guard.draining = true;
            self.inner.cv.notify_all();
            // Wait for every running job to reach a terminal state — their
            // poll callbacks observe `draining` and checkpoint.
            while guard.jobs.any_running() {
                guard = self.inner.cv.wait(guard).unwrap();
            }
            // Suspend the backlog: these never started, so their bodies are
            // their whole state.
            let st = &mut *guard;
            let queued = st.queue.drain();
            let now = self.inner.now_ms();
            for &id in &queued {
                let job = st.jobs.get_mut(id).expect("queued jobs are in the table");
                job.enter(JobPhase::Suspended, now, &mut st.stats);
            }
            (st.jobs.ids_in_state("suspended"), queued)
        };
        let files = self.persist_drain(&running_ids);

        // Unblock and join the accept loop: flip the flag, then poke it
        // with one throwaway connection.
        self.inner.accepting.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        DrainReport {
            suspended_running: running_ids.len() - queued_ids.len(),
            suspended_queued: queued_ids.len(),
            files,
        }
    }

    /// Write the drain manifest and one file per suspended job.
    fn persist_drain(&self, suspended: &[u64]) -> Vec<PathBuf> {
        let Some(dir) = &self.inner.cfg.checkpoint_dir else {
            return Vec::new();
        };
        let mut files = Vec::new();
        if std::fs::create_dir_all(dir).is_err() {
            return files;
        }
        let st = self.inner.state.lock().unwrap();
        let mut ids = Vec::new();
        for &id in suspended {
            let job = st.jobs.get(id).expect("suspended jobs are in the table");
            let ckpt = job.checkpoint.as_deref().unwrap_or("null");
            let doc = format!(
                "{{\"id\":\"{}\",\"body\":{},\"checkpoint\":{}}}",
                job.wire_id(),
                job.body,
                ckpt
            );
            let path = dir.join(format!("{}.json", job.wire_id()));
            if std::fs::write(&path, doc).is_ok() {
                files.push(path);
                ids.push(format!("\"{}\"", job.wire_id()));
            }
        }
        let manifest = format!(
            "{{\"format\":\"mnpu-drain-manifest\",\"suspended\":[{}],\"jobs\":{}}}",
            ids.join(","),
            st.jobs.len()
        );
        let path = dir.join("drain.json");
        if std::fs::write(&path, manifest).is_ok() {
            files.push(path);
        }
        files
    }
}

/// Accept connections until the service stops accepting; each connection
/// gets a short-lived handler thread (requests are one JSON exchange).
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else { continue };
        if !inner.accepting.load(Ordering::SeqCst) {
            return;
        }
        let inner = Arc::clone(inner);
        std::thread::spawn(move || handle_conn(stream, &inner));
    }
}

/// Pull jobs off the queue and execute them until a drain begins.
fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    loop {
        let (id, body, deadline, resumed, trace) = {
            let mut guard = inner.state.lock().unwrap();
            loop {
                if guard.draining {
                    return;
                }
                let st = &mut *guard;
                if !st.hold {
                    if let Some(id) = st.queue.pop() {
                        st.stats.record_queue_depth(st.queue.depth() as u64);
                        let job = st.jobs.get_mut(id).expect("popped jobs are in the table");
                        // Telemetry attaches at dispatch: from here on the
                        // job's ring and progress cell are fetchable.
                        let trace = TraceHandle::with_capacity(inner.cfg.flight_capacity);
                        job.telemetry = Some(trace.clone());
                        job.worker = Some(worker);
                        let phase =
                            if job.resumed { JobPhase::Resumed } else { JobPhase::Dispatched };
                        job.enter(phase, inner.now_ms(), &mut st.stats);
                        let deadline =
                            job.budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                        break (id, job.body.clone(), deadline, job.resumed, trace);
                    }
                }
                guard = inner.cv.wait(guard).unwrap();
            }
        };
        execute(inner, id, &body, deadline, resumed, &trace);
    }
}

/// What one execution attempt produced.
enum ExecOutcome {
    /// Rendered result JSON.
    Completed(String),
    /// Stopped on request; the checkpoint JSON when one exists (facade
    /// jobs), `None` when the shape cannot checkpoint (sweeps).
    Stopped(Option<String>),
    /// Execution failed with a message.
    Error(String),
}

/// Decide whether a running job must stop, and in which terminal phase:
/// a cancel beats a drain beats a budget when several fire at one poll.
fn check_stop(inner: &Inner, id: u64, deadline: Option<Instant>) -> Option<JobPhase> {
    {
        let st = inner.state.lock().unwrap();
        if st.jobs.get(id).is_some_and(|j| j.cancel_requested) {
            return Some(JobPhase::Cancelled);
        }
        if st.draining {
            return Some(JobPhase::Suspended);
        }
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(JobPhase::OverBudget);
    }
    None
}

/// Run one dispatched job end to end and record its terminal state.
fn execute(
    inner: &Arc<Inner>,
    id: u64,
    body: &str,
    deadline: Option<Instant>,
    resumed: bool,
    trace: &TraceHandle,
) {
    let busy = Instant::now();
    let busy_ms = |t0: Instant| t0.elapsed().as_millis() as u64;
    // Re-derive the plan from the stored body; submission already
    // validated it, so failures here are real execution errors.
    let job = match wire::parse_job(body) {
        Ok(j) => j,
        Err(e) => {
            return finish(inner, id, ExecOutcome::Error(e.message()), None, false, busy_ms(busy))
        }
    };
    let fault = job.fault;

    // Result cache: deterministic runs keyed by the exact body. Resumes
    // are excluded — their answer depends on the checkpoint's progress.
    if !resumed {
        let cached = inner.state.lock().unwrap().cache.get(body).cloned();
        if let Some(result) = cached {
            return finish(inner, id, ExecOutcome::Completed(result), None, true, busy_ms(busy));
        }
    }

    let mut stop_reason: Option<JobPhase> = None;
    let outcome = {
        let reason = &mut stop_reason;
        catch_unwind(AssertUnwindSafe(|| match job.plan {
            ExecPlan::Facade(runner, from) => {
                let mut polls = 0u64;
                let mut poll = || {
                    polls += 1;
                    if fault && polls > 2 {
                        panic!("induced fault: panic");
                    }
                    if reason.is_none() {
                        *reason = check_stop(inner, id, deadline);
                    }
                    if reason.is_some() {
                        RunControl::Checkpoint
                    } else {
                        RunControl::Continue
                    }
                };
                match runner.run_with(from, Some(trace), &mut poll) {
                    Ok(RunProgress::Done(outcome)) => {
                        ExecOutcome::Completed(render_outcome(outcome))
                    }
                    Ok(RunProgress::Checkpointed(c)) => ExecOutcome::Stopped(Some(c.to_json())),
                    Err(e) => ExecOutcome::Error(format!("resume failed: {e:?}")),
                }
            }
            ExecPlan::Sweep(name) => {
                let reqs = sweeps::by_name(&name).expect("sweep names validated at admission");
                let mut units = 0u64;
                let mut should_stop = || {
                    units += 1;
                    if fault && units > 2 {
                        panic!("induced fault: panic");
                    }
                    if reason.is_none() {
                        *reason = check_stop(inner, id, deadline);
                    }
                    reason.is_some()
                };
                match sweeps::run_counts_observed(
                    &inner.harness,
                    &reqs,
                    FanOut::new(),
                    Some(trace),
                    &mut should_stop,
                ) {
                    Some(counts) => ExecOutcome::Completed(counts.to_json()),
                    None => ExecOutcome::Stopped(None),
                }
            }
        }))
    };
    let outcome = outcome.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        ExecOutcome::Error(format!("panic: {msg}"))
    });
    finish(inner, id, outcome, stop_reason, false, busy_ms(busy));
}

/// Render a completed facade outcome as its canonical report JSON — the
/// same bytes an in-process `RunRequest::run()` caller would serialize.
fn render_outcome(outcome: RunOutcome) -> String {
    match outcome {
        RunOutcome::Batch(r) => r.to_json(),
        RunOutcome::Serve(s) => s.to_json(),
    }
}

/// Enter a job's terminal phase (and `checkpointed` before it when the
/// stop left a checkpoint), wake waiters, and — for abnormal stops — dump
/// the flight-recorder black box.
fn finish(
    inner: &Inner,
    id: u64,
    outcome: ExecOutcome,
    stop_reason: Option<JobPhase>,
    from_cache: bool,
    busy_ms: u64,
) {
    let mut flight_dump: Option<(PathBuf, String)> = None;
    {
        let mut guard = inner.state.lock().unwrap();
        let st = &mut *guard;
        let now = inner.now_ms();
        st.stats.worker_busy_ms += busy_ms;
        let job = st.jobs.get_mut(id).expect("finishing jobs are in the table");
        let phase = match outcome {
            ExecOutcome::Completed(result) => {
                job.from_cache = from_cache;
                if !job.resumed && !from_cache {
                    st.cache.insert(job.body.clone(), result.clone());
                }
                job.result = Some(result);
                JobPhase::Completed
            }
            ExecOutcome::Stopped(checkpoint) => {
                if checkpoint.is_some() {
                    job.enter(JobPhase::Checkpointed, now, &mut st.stats);
                }
                job.checkpoint = checkpoint;
                // A stop with no recorded reason can only be a drain observed
                // inside the engine after the flag flipped mid-poll.
                stop_reason.unwrap_or(JobPhase::Suspended)
            }
            ExecOutcome::Error(message) => {
                job.error = Some(message);
                JobPhase::Failed
            }
        };
        job.enter(phase, now, &mut st.stats);
        // An abnormal stop writes the black box; completions don't need one.
        if phase != JobPhase::Completed {
            if let (Some(t), Some(dir)) = (&job.telemetry, &inner.cfg.flight_dir) {
                let wire_id = job.wire_id();
                flight_dump =
                    Some((dir.join(format!("flight-{wire_id}.json")), t.dump_json(&wire_id)));
            }
        }
        inner.cv.notify_all();
    }
    // File I/O happens after the lock is gone; a slow disk must not stall
    // dispatch or status polls.
    if let Some((path, doc)) = flight_dump {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, doc);
    }
}

fn json_error(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(msg))
}

/// Serve one connection: read a request, route it, write the response.
fn handle_conn(mut stream: TcpStream, inner: &Arc<Inner>) {
    let req = match http::read_request(&mut stream, inner.cfg.body_limit) {
        Ok(r) => r,
        Err(e) => {
            http::write_response(
                &mut stream,
                e.status(),
                "application/json",
                &[],
                &json_error(&e.message()),
            );
            return;
        }
    };
    let (status, content_type, extra, body) = route(inner, &req);
    let extra_refs: Vec<(&str, &str)> =
        extra.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    http::write_response(&mut stream, status, content_type, &extra_refs, &body);
}

type Response = (u16, &'static str, Vec<(String, String)>, String);

fn json_response(status: u16, body: String) -> Response {
    (status, "application/json", Vec::new(), body)
}

/// The service's route table.
fn route(inner: &Arc<Inner>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => submit(inner, &req.body),
        ("GET", "/metrics") => (200, prom::CONTENT_TYPE, Vec::new(), metrics(inner)),
        ("GET", "/v1/version") => json_response(200, version_json()),
        ("GET", "/v1/healthz") => {
            let st = inner.state.lock().unwrap();
            json_response(
                200,
                format!("{{\"ok\":true,\"draining\":{},\"hold\":{}}}", st.draining, st.hold),
            )
        }
        ("POST", "/v1/hold") => {
            inner.state.lock().unwrap().hold = true;
            json_response(200, "{\"hold\":true}".to_string())
        }
        ("POST", "/v1/release") => {
            inner.state.lock().unwrap().hold = false;
            inner.cv.notify_all();
            json_response(200, "{\"hold\":false}".to_string())
        }
        ("POST", "/v1/drain") => {
            inner.state.lock().unwrap().draining = true;
            inner.cv.notify_all();
            json_response(200, "{\"draining\":true}".to_string())
        }
        (method, path) if path.starts_with("/v1/jobs/") => {
            job_route(inner, method, &path["/v1/jobs/".len()..])
        }
        ("GET" | "POST" | "DELETE", _) => json_response(404, json_error("unknown path")),
        _ => json_response(405, json_error("method not allowed")),
    }
}

/// `POST /v1/jobs`: validate, admit or bounce.
fn submit(inner: &Arc<Inner>, body: &str) -> Response {
    // Parse outside the lock; scenario parsing is cheap but not free.
    let parsed = wire::parse_job(body);
    let mut st = inner.state.lock().unwrap();
    if st.draining {
        return json_response(503, json_error("service is draining"));
    }
    let job = match parsed {
        Ok(j) => j,
        Err(e) => return json_response(e.status(), json_error(&e.message())),
    };
    if st.queue.depth() >= st.queue.bound() {
        st.stats.rejects += 1;
        let retry = inner.cfg.retry_after_secs;
        return (
            429,
            "application/json",
            vec![("Retry-After".to_string(), retry.to_string())],
            json_error(&format!("admission queue full ({} queued)", st.queue.depth())),
        );
    }
    let st = &mut *st;
    let id =
        st.jobs.admit(body.to_string(), job.budget_ms, job.resumed, inner.now_ms(), &mut st.stats);
    let admitted = st.queue.submit(id);
    debug_assert_eq!(admitted, Admission::Accepted, "depth was checked under the same lock");
    inner.cv.notify_all();
    let wire_id = st.jobs.get(id).expect("just admitted").wire_id();
    json_response(202, format!("{{\"id\":\"{wire_id}\",\"state\":\"queued\"}}"))
}

/// Routes under `/v1/jobs/<id>[/...]`.
fn job_route(inner: &Arc<Inner>, method: &str, rest: &str) -> Response {
    let (wire_id, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, Some(sub)),
        None => (rest, None),
    };
    let Some(id) = JobTable::parse_wire_id(wire_id) else {
        return json_response(404, json_error("job ids look like job-<n>"));
    };
    let mut st = inner.state.lock().unwrap();
    let Some(job) = st.jobs.get(id) else {
        return json_response(404, json_error("unknown job"));
    };
    match (method, sub) {
        ("GET", None) => json_response(200, job.status_json()),
        ("GET", Some("report")) => match &job.result {
            Some(r) => json_response(200, r.clone()),
            None => json_response(404, json_error("no result available")),
        },
        ("GET", Some("checkpoint")) => match &job.checkpoint {
            Some(c) => json_response(200, c.clone()),
            None => json_response(404, json_error("no checkpoint available")),
        },
        ("GET", Some("progress")) => match &job.telemetry {
            Some(t) => json_response(200, t.progress().snapshot().to_json()),
            None => json_response(404, json_error("job has not been dispatched")),
        },
        ("GET", Some("flight")) => match &job.telemetry {
            Some(t) => json_response(200, t.dump_json(&job.wire_id())),
            None => json_response(404, json_error("job has not been dispatched")),
        },
        ("GET", Some("trace")) => match &job.telemetry {
            Some(t) => json_response(200, t.chrome_json(&job.wire_id(), job.worker.unwrap_or(0))),
            None => json_response(404, json_error("job has not been dispatched")),
        },
        ("DELETE", None) => {
            let st = &mut *st;
            let job = st.jobs.get_mut(id).expect("present above");
            match job.state() {
                "queued" => {
                    job.cancel_requested = true;
                    job.enter(JobPhase::Cancelled, inner.now_ms(), &mut st.stats);
                    let removed = st.queue.cancel(id);
                    debug_assert!(removed, "queued jobs are in the queue");
                    inner.cv.notify_all();
                }
                // The worker observes the flag at its next poll and
                // checkpoints; the client polls for `cancelled`.
                "running" => job.cancel_requested = true,
                _ => {}
            }
            json_response(200, job.status_json())
        }
        _ => json_response(405, json_error("method not allowed for this job route")),
    }
}

/// `GET /v1/version`: build identity plus the state of the determinism
/// escape hatches — the first thing to check when two deployments
/// disagree about wall clock.
fn version_json() -> String {
    let no_fastfwd = std::env::var_os("MNPU_NO_FASTFWD").is_some_and(|v| v != "0");
    format!(
        "{{\"name\":\"mnpu-service\",\"version\":\"{}\",\"snapshot_version\":{},\
         \"fastfwd\":{},\"prefix_share\":{}}}",
        env!("CARGO_PKG_VERSION"),
        mnpu_snapshot::SNAPSHOT_VERSION,
        !no_fastfwd,
        mnpu_bench::prefix_share_enabled(),
    )
}

/// `GET /metrics`: the service counters, queue gauges, latency and
/// queue-depth histograms, and the process-wide simulator-internal
/// counters, in Prometheus text-exposition format (`version=0.0.4`,
/// `HELP`/`TYPE` for every family — [`prom::lint`] holds it to the spec).
fn metrics(inner: &Arc<Inner>) -> String {
    let st = inner.state.lock().unwrap();
    let s = &st.stats;
    let running = st.jobs.ids_in_state("running").len();
    let workers = inner.cfg.workers.max(1);
    let uptime = inner.started.elapsed().as_secs_f64();
    let utilization = if uptime > 0.0 {
        (s.worker_busy_ms as f64 / 1000.0) / (uptime * workers as f64)
    } else {
        0.0
    };
    let sim = mnpu_trace::counters::snapshot();
    let mut out = String::new();
    prom::gauge(
        &mut out,
        "service_queue_depth",
        "Jobs waiting for a worker.",
        st.queue.depth() as f64,
    );
    prom::gauge(
        &mut out,
        "service_queue_bound",
        "Admission queue capacity.",
        st.queue.bound() as f64,
    );
    prom::gauge(&mut out, "service_jobs_running", "Jobs executing right now.", running as f64);
    prom::gauge(
        &mut out,
        "service_jobs_in_system",
        "Jobs admitted but not yet terminal.",
        s.in_system() as f64,
    );
    prom::gauge(&mut out, "service_workers", "Worker threads in the pool.", workers as f64);
    prom::gauge(
        &mut out,
        "service_worker_utilization",
        "Fraction of total worker time spent executing jobs.",
        utilization,
    );
    prom::counter(&mut out, "service_submissions_total", "Submissions received.", s.submissions());
    prom::counter(
        &mut out,
        "service_rejects_total",
        "Submissions bounced by admission control.",
        s.rejects,
    );
    prom::counter(&mut out, "service_dispatches_total", "Jobs handed to a worker.", s.dispatches());
    for (name, help, phase) in [
        ("service_completions_total", "Jobs finished with a result.", JobPhase::Completed),
        ("service_cancellations_total", "Jobs stopped by DELETE.", JobPhase::Cancelled),
        (
            "service_over_budget_total",
            "Jobs stopped at their wall-clock budget.",
            JobPhase::OverBudget,
        ),
        ("service_failures_total", "Jobs that died with an error.", JobPhase::Failed),
        (
            "service_suspended_total",
            "Jobs checkpointed or re-queued by a drain.",
            JobPhase::Suspended,
        ),
    ] {
        prom::counter(&mut out, name, help, s.entries(phase));
    }
    prom::counter(
        &mut out,
        "service_cache_hits_total",
        "Completions served from the result cache.",
        s.cache_hits(),
    );
    prom::counter(
        &mut out,
        "service_worker_busy_ms_total",
        "Cumulative worker milliseconds spent executing jobs.",
        s.worker_busy_ms,
    );
    prom::counter(
        &mut out,
        "sim_prefix_share_sims_total",
        "Simulations served from warm-start prefix groups, process-wide.",
        sim.prefix_share_sims,
    );
    prom::counter(
        &mut out,
        "sim_fastfwd_commits_total",
        "DRAM steady-state fast-forward commits, process-wide.",
        sim.fastfwd_commits,
    );
    prom::histogram(
        &mut out,
        "service_job_latency_seconds",
        "Terminal job latency, admission to terminal state.",
        s.latency_hist(),
    );
    prom::histogram(
        &mut out,
        "service_dispatch_queue_depth",
        "Backlog left behind at each dispatch.",
        s.queue_depth_hist(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    fn wait_terminal(addr: SocketAddr, id: &str) -> String {
        loop {
            let (_, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
            let v = json::parse(&body).unwrap();
            let state = v.get("state").and_then(json::Value::as_str).unwrap().to_string();
            if !matches!(state.as_str(), "queued" | "running") {
                return state;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn submit_run_report_lifecycle() {
        let svc = Service::start(ServiceConfig::default()).unwrap();
        let addr = svc.addr();
        let (status, body) = request(
            addr,
            "POST",
            "/v1/jobs",
            r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]}"#,
        );
        assert_eq!(status, 202, "{body}");
        let id = json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(wait_terminal(addr, &id), "completed");
        let (status, report) = request(addr, "GET", &format!("/v1/jobs/{id}/report"), "");
        assert_eq!(status, 200);
        assert!(report.contains("total_cycles"));
        // A second identical submission is a cache hit with the same bytes.
        let (_, body2) = request(
            addr,
            "POST",
            "/v1/jobs",
            r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]}"#,
        );
        let id2 = json::parse(&body2)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(wait_terminal(addr, &id2), "completed");
        let (_, report2) = request(addr, "GET", &format!("/v1/jobs/{id2}/report"), "");
        assert_eq!(report, report2);
        let (_, m) = request(addr, "GET", "/metrics", "");
        assert!(m.contains("service_cache_hits_total 1"), "{m}");
        prom::lint(&m).expect("metrics must be exposition-compliant");
        assert!(m.contains("# TYPE service_job_latency_seconds histogram"), "{m}");
        // The live endpoints exist once a job has been dispatched.
        let (status, progress) = request(addr, "GET", &format!("/v1/jobs/{id}/progress"), "");
        assert_eq!(status, 200, "{progress}");
        assert!(progress.contains("\"phase\":\"completed\""), "{progress}");
        let (status, flight) = request(addr, "GET", &format!("/v1/jobs/{id}/flight"), "");
        assert_eq!(status, 200);
        assert!(flight.contains("\"format\":\"mnpu-flight\""), "{flight}");
        let (status, trace) = request(addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
        assert_eq!(status, 200);
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        let (status, ver) = request(addr, "GET", "/v1/version", "");
        assert_eq!(status, 200);
        assert!(ver.contains("\"snapshot_version\""), "{ver}");
        let drained = svc.shutdown();
        assert_eq!(drained.suspended_running + drained.suspended_queued, 0);
    }

    #[test]
    fn budget_zero_checkpoints_immediately_and_resumes() {
        let svc = Service::start(ServiceConfig::default()).unwrap();
        let addr = svc.addr();
        let body =
            r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],"budget_ms":0}"#;
        let (status, resp) = request(addr, "POST", "/v1/jobs", body);
        assert_eq!(status, 202, "{resp}");
        let id = json::parse(&resp)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(wait_terminal(addr, &id), "over_budget");
        let (status, ckpt) = request(addr, "GET", &format!("/v1/jobs/{id}/checkpoint"), "");
        assert_eq!(status, 200);
        assert!(ckpt.contains("mnpu-job-checkpoint"));
        // Resume from the handed-back checkpoint; it must now complete.
        let resume_body = format!(
            r#"{{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"],"resume":{ckpt}}}"#
        );
        let (status, resp) = request(addr, "POST", "/v1/jobs", &resume_body);
        assert_eq!(status, 202, "{resp}");
        let rid = json::parse(&resp)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(wait_terminal(addr, &rid), "completed");
        svc.shutdown();
    }

    #[test]
    fn hold_fills_queue_and_drain_suspends_backlog() {
        let dir = std::env::temp_dir().join(format!("mnpu-drain-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            queue_depth: 2,
            checkpoint_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let svc = Service::start(cfg).unwrap();
        let addr = svc.addr();
        let (s, _) = request(addr, "POST", "/v1/hold", "");
        assert_eq!(s, 200);
        let body = r#"{"kind":"networks","cores":1,"sharing":"ideal","networks":["ncf"]}"#;
        let mut statuses = Vec::new();
        for _ in 0..4 {
            statuses.push(request(addr, "POST", "/v1/jobs", body).0);
        }
        assert_eq!(statuses, vec![202, 202, 429, 429]);
        let drained = svc.shutdown();
        assert_eq!(drained.suspended_queued, 2);
        assert_eq!(drained.suspended_running, 0);
        // One file per suspended job plus the manifest.
        assert_eq!(drained.files.len(), 3);
        assert!(dir.join("drain.json").exists());
        let manifest = std::fs::read_to_string(dir.join("drain.json")).unwrap();
        assert!(manifest.contains("mnpu-drain-manifest"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
