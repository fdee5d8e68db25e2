//! `daemon_open`: a fresh `mnpu_serviced` (default 2 workers) driven over
//! loopback by a single-threaded open-loop generator, one connection at a
//! time. It is the only workload where HTTP parsing, the JSON wire reader,
//! the admission queue, the worker pool, the result cache, per-job
//! telemetry and checkpoint encode/decode do work.
//!
//! Inputs, all from `--seed`: Poisson arrivals at a fixed absolute rate
//! (gaps drawn by stratified inverse-CDF sampling, so each run's offered
//! load is the same while the arrival order varies); dual-core `networks`
//! bodies that are unique by construction (the fig04 mix x co-run-level
//! set, pair order by seed); exactly 10% repeats of an earlier body
//! (result cache) and 10% `"budget_ms":0` bodies that stop at their first
//! poll and are resubmitted with `"resume"` and their checkpoint.

use crate::http::{self, Response};
use crate::out::{fnv_hex, peak_rss_mb, Metric, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile, quartiles, ratio};
use mnpu_engine::{SharingLevel, SystemConfig};
use mnpu_model::{zoo, Scale};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load, jobs per second: about a quarter of the two workers'
/// capacity at the commit that defined this benchmark. A busier daemon
/// turns host speed noise into queueing noise (see README).
const RATE: f64 = 3.0;
/// Status poll interval per outstanding job. Each job's first poll comes
/// at a seeded fraction of the interval after its submission, so the
/// interval does not quantize every latency to the same grid.
const POLL: Duration = Duration::from_millis(25);
/// A repeat copies a plain body due at least this long before it, so the
/// first answer is normally cached by the time the repeat arrives.
const REPEAT_LAG_S: f64 = 2.0;
/// Jobs still unresolved this long after the last arrival time out.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Latency charged to a refused, failed or timed-out job: it misses every
/// latency limit.
const FAIL_MS: f64 = 60_000.0;
/// Daemon start-ups timed for `setup_s` (the last one serves the run).
const SETUP_REPS: usize = 15;
/// Plain bodies whose reports are also computed in-process, after the
/// timed window; every resumed body is checked the same way.
const SAMPLE: usize = 4;

const LEVELS: [&str; 4] = ["static", "+d", "+dw", "+dwt"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Fresh,
    Budget0,
    /// A byte-identical copy of the body at this plan index.
    Repeat(usize),
}

/// One scheduled job: when it is due, what it runs, and how.
#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    level: &'static str,
    nets: [&'static str; 2],
    kind: Kind,
}

impl Planned {
    fn spec(&self) -> String {
        format!(
            "\"kind\":\"networks\",\"cores\":2,\"sharing\":\"{}\",\"networks\":[\"{}\",\"{}\"]",
            self.level, self.nets[0], self.nets[1]
        )
    }

    fn body(&self) -> String {
        match self.kind {
            Kind::Budget0 => format!("{{{},\"budget_ms\":0}}", self.spec()),
            _ => format!("{{{}}}", self.spec()),
        }
    }

    fn resume_body(&self, checkpoint: &str) -> String {
        format!("{{{},\"resume\":{checkpoint}}}", self.spec())
    }
}

/// The seeded job plan for a run of `seconds`.
fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let names = zoo::MODEL_NAMES;
    // Unique bodies, taken in rounds so any prefix is balanced: round r
    // holds every unordered mix once, at the r-th of its co-run levels in
    // a seeded order (rounds 0-3 are the fig04 mix x level set); rounds
    // 4-7 repeat that with the opposite pair order, should a longer run
    // need more. Pair order and mix order within a round are seeded.
    let mut mixes: Vec<(usize, usize, [&str; 4])> = Vec::new();
    for a in 0..names.len() {
        for b in a..names.len() {
            let (x, y) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
            let mut levels = LEVELS;
            rng.shuffle(&mut levels);
            mixes.push((x, y, levels));
        }
    }
    let mut pool = Vec::new();
    for round in 0..2 * LEVELS.len() {
        rng.shuffle(&mut mixes);
        for &(x, y, levels) in &mixes {
            let nets =
                if round < LEVELS.len() { [names[x], names[y]] } else { [names[y], names[x]] };
            if round < LEVELS.len() || x != y {
                pool.push((levels[round % LEVELS.len()], nets));
            }
        }
    }

    let n = ((RATE * seconds).round() as usize).clamp(10, pool.len() * 10 / 9);
    let (n_rep, n_b0) = (n / 10, n / 10);
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| {
            let u = (k as f64 + rng.unit().min(0.999)) / n as f64;
            -(1.0 - u).ln() / RATE
        })
        .collect();
    rng.shuffle(&mut gaps);
    let mut due = 0.0;
    let dues: Vec<f64> = gaps
        .iter()
        .map(|g| {
            let d = due;
            due += g;
            d
        })
        .collect();

    // Repeats sit in the last four fifths; budget-0 bodies anywhere else.
    let mut late: Vec<usize> = (n / 5..n).collect();
    rng.shuffle(&mut late);
    let mut kinds = vec![Kind::Fresh; n];
    for &p in &late[..n_rep] {
        kinds[p] = Kind::Repeat(usize::MAX);
    }
    let mut rest: Vec<usize> = (0..n).filter(|&p| kinds[p] == Kind::Fresh).collect();
    rng.shuffle(&mut rest);
    for &p in &rest[..n_b0] {
        kinds[p] = Kind::Budget0;
    }
    let mut fresh = pool[..n - n_rep].to_vec();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    let mut out: Vec<Planned> = Vec::with_capacity(n);
    for p in 0..n {
        let kind = kinds[p];
        if kind != Kind::Repeat(usize::MAX) {
            let (level, nets) = fresh.next().expect("the pool covers every fresh body");
            out.push(Planned { due_s: dues[p], level, nets, kind });
            continue;
        }
        let cands: Vec<usize> = (0..p)
            .filter(|&q| out[q].kind == Kind::Fresh && out[q].due_s <= dues[p] - REPEAT_LAG_S)
            .collect();
        let src = if cands.is_empty() {
            (0..p).find(|&q| out[q].kind == Kind::Fresh).expect("a fresh body precedes")
        } else {
            cands[rng.below(cands.len())]
        };
        let (level, nets) = (out[src].level, out[src].nets);
        out.push(Planned { due_s: dues[p], level, nets, kind: Kind::Repeat(src) });
    }
    out
}

/// A spawned daemon and where it listens.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Held open so the daemon's exit message has somewhere to go.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn a fresh daemon (empty result cache and job table) on an
    /// ephemeral loopback port and wait for its first healthy answer.
    fn start(path: &str) -> Result<Daemon, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0"])
            .env("MNPU_NO_CACHE", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {path}: {e}"))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not announce an address: {line:?}"));
        };
        let d = Daemon { child, addr, _stdout: stdout };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if matches!(http::exchange(d.addr, "GET", "/v1/healthz", None), Ok(r) if r.status == 200)
            {
                return Ok(d);
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    /// Every daemon this benchmark starts is stopped and reaped, on every
    /// path: drain it, and kill it if it has not exited after 10 s.
    fn drop(&mut self) {
        let _ = http::exchange(self.addr, "POST", "/v1/drain", None);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one pass (one fresh daemon, the whole plan) produced.
#[derive(Default)]
struct Pass {
    out: Outcome,
    reports: Vec<Option<String>>,
    hatches: String,
    wall_s: f64,
    busy_s: f64,
}

/// Per-exchange timings and service timelines the traced pass keeps.
#[derive(Default)]
struct Trace {
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    exchange_s: f64,
    idle_s: f64,
    late_ms_max: f64,
    cache_hits: u64,
    refused: u64,
}

/// A job the generator is waiting on.
struct Live {
    idx: usize,
    id: String,
    next_poll: Instant,
}

fn timed(
    t: &mut Trace,
    sink: fn(&mut Trace) -> &mut Vec<f64>,
    f: impl FnOnce() -> Result<Response, String>,
) -> Result<Response, String> {
    let s = Instant::now();
    let r = f();
    let el = s.elapsed().as_secs_f64();
    t.exchange_s += el;
    sink(t).push(el * 1e3);
    r
}

fn pass(path: &str, jobs: &[Planned], traced: bool) -> Result<(Pass, Trace), String> {
    let mut p = Pass { reports: vec![None; jobs.len()], ..Pass::default() };
    let mut t = Trace::default();
    // Set-up: spawn to first healthy answer, several times; the last
    // (untouched) daemon serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPS {
        let s = Instant::now();
        let d = Daemon::start(path)?;
        setups.push(s.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPS {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("at least one set-up");
    let version = http::exchange(d.addr, "GET", "/v1/version", None)?.body;
    p.hatches = format!(
        "fastfwd={},prefix_share={}",
        http::bool_field(&version, "fastfwd").map_or("?".into(), |b| b.to_string()),
        http::bool_field(&version, "prefix_share").map_or("?".into(), |b| b.to_string())
    );

    let mut latency_ms = vec![FAIL_MS; jobs.len()];
    let mut done_at = vec![0.0f64; jobs.len()];
    let mut live: Vec<Live> = Vec::new();
    let mut next = 0;
    let mut phase = Rng::new(jobs.len() as u64);
    let start = Instant::now();
    let at = |s: f64| start + Duration::from_secs_f64(s);
    let deadline = at(jobs.last().map_or(0.0, |j| j.due_s)) + DRAIN_LIMIT;
    loop {
        let now = Instant::now();
        if next < jobs.len() && at(jobs[next].due_s) <= now {
            let j = &jobs[next];
            t.late_ms_max = t.late_ms_max.max((now - at(j.due_s)).as_secs_f64() * 1e3);
            p.out.attempted += 1;
            let r = if traced {
                timed(
                    &mut t,
                    |t| &mut t.submit_ms,
                    || http::exchange(d.addr, "POST", "/v1/jobs", Some(&j.body())),
                )
            } else {
                http::exchange(d.addr, "POST", "/v1/jobs", Some(&j.body()))
            };
            match r {
                Ok(r) if r.status == 202 => match http::str_field(&r.body, "id") {
                    Some(id) => live.push(Live {
                        idx: next,
                        id: id.into(),
                        next_poll: now + POLL.mul_f64(phase.unit().max(0.05)),
                    }),
                    None => p.out.problem(format!("202 without an id: {}", r.body)),
                },
                Ok(r) if r.status == 429 || r.status == 503 => t.refused += 1,
                Ok(r) => p.out.problem(format!("job {next} refused {}: {}", r.status, r.body)),
                Err(e) => p.out.problem(e),
            }
            next += 1;
            continue;
        }
        let due_poll = (0..live.len())
            .filter(|&k| live[k].next_poll <= now)
            .min_by_key(|&k| live[k].next_poll);
        if let Some(k) = due_poll {
            let path = format!("/v1/jobs/{}", live[k].id);
            let r = if traced {
                timed(&mut t, |t| &mut t.poll_ms, || http::exchange(d.addr, "GET", &path, None))
            } else {
                http::exchange(d.addr, "GET", &path, None)
            };
            let status = match r {
                Ok(r) if r.status == 200 => r.body,
                Ok(r) => {
                    p.out.problem(format!("poll {path}: {} {}", r.status, r.body));
                    live.swap_remove(k);
                    continue;
                }
                Err(e) => {
                    p.out.problem(e);
                    live.swap_remove(k);
                    continue;
                }
            };
            let idx = live[k].idx;
            match http::str_field(&status, "state").unwrap_or("") {
                "queued" | "running" => {
                    live[k].next_poll = (live[k].next_poll + POLL).max(now);
                }
                "completed" => {
                    let rpath = format!("{path}/report");
                    let r = if traced {
                        timed(
                            &mut t,
                            |t| &mut t.fetch_ms,
                            || http::exchange(d.addr, "GET", &rpath, None),
                        )
                    } else {
                        http::exchange(d.addr, "GET", &rpath, None)
                    };
                    live.swap_remove(k);
                    match r {
                        Ok(r) if r.status == 200 => {
                            let held = start.elapsed().as_secs_f64();
                            latency_ms[idx] = (held - jobs[idx].due_s) * 1e3;
                            done_at[idx] = held;
                            p.reports[idx] = Some(r.body);
                        }
                        Ok(r) => p.out.problem(format!("{rpath}: {} {}", r.status, r.body)),
                        Err(e) => p.out.problem(e),
                    }
                    if traced {
                        record_timeline(&mut t, &status);
                    }
                }
                "over_budget" if jobs[idx].kind == Kind::Budget0 => {
                    if traced {
                        record_timeline(&mut t, &status);
                    }
                    let cpath = format!("{path}/checkpoint");
                    let c = if traced {
                        timed(
                            &mut t,
                            |t| &mut t.fetch_ms,
                            || http::exchange(d.addr, "GET", &cpath, None),
                        )
                    } else {
                        http::exchange(d.addr, "GET", &cpath, None)
                    };
                    let ckpt = match c {
                        Ok(c) if c.status == 200 => c.body,
                        other => {
                            p.out.problem(format!("{cpath}: {other:?}"));
                            live.swap_remove(k);
                            continue;
                        }
                    };
                    t.checkpoint_bytes.push(ckpt.len() as f64);
                    let body = jobs[idx].resume_body(&ckpt);
                    let r = if traced {
                        timed(
                            &mut t,
                            |t| &mut t.resume_ms,
                            || http::exchange(d.addr, "POST", "/v1/jobs", Some(&body)),
                        )
                    } else {
                        http::exchange(d.addr, "POST", "/v1/jobs", Some(&body))
                    };
                    match r {
                        Ok(r) if r.status == 202 => match http::str_field(&r.body, "id") {
                            Some(id) => {
                                live[k].id = id.into();
                                live[k].next_poll = Instant::now() + POLL;
                            }
                            None => {
                                p.out.problem(format!("202 without an id: {}", r.body));
                                live.swap_remove(k);
                            }
                        },
                        Ok(r) => {
                            if r.status == 429 || r.status == 503 {
                                t.refused += 1;
                            } else {
                                p.out.problem(format!(
                                    "resume of job {idx}: {} {}",
                                    r.status, r.body
                                ));
                            }
                            live.swap_remove(k);
                        }
                        Err(e) => {
                            p.out.problem(e);
                            live.swap_remove(k);
                        }
                    }
                }
                other => {
                    p.out.problem(format!("job {idx} ended {other}: {status}"));
                    live.swap_remove(k);
                }
            }
            continue;
        }
        if next >= jobs.len() && live.is_empty() {
            break;
        }
        if now >= deadline {
            p.out.problem(format!("{} jobs timed out", live.len()));
            break;
        }
        let mut wake = deadline;
        if next < jobs.len() {
            wake = wake.min(at(jobs[next].due_s));
        }
        if let Some(l) = live.iter().map(|l| l.next_poll).min() {
            wake = wake.min(l);
        }
        let s = Instant::now();
        std::thread::sleep(wake.saturating_duration_since(s));
        t.idle_s += s.elapsed().as_secs_f64();
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.busy_s = p.wall_s - t.idle_s;
    let rss_mb = peak_rss_mb(&d.child.id().to_string());
    if traced {
        let s = Instant::now();
        let m = http::exchange(d.addr, "GET", "/metrics", None)?.body;
        t.exchange_s += s.elapsed().as_secs_f64();
        let util = m
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let (name, v) = l.split_once(' ')?;
                name.ends_with("service_worker_utilization")
                    .then(|| v.trim().parse::<f64>().ok())?
            })
            .unwrap_or(0.0);
        p.out.metrics.push(Metric::new("service.worker_util", util, "frac"));
    }
    drop(d);

    // Repeats must be byte-equal to the first answer for the same body.
    for (i, j) in jobs.iter().enumerate() {
        let Kind::Repeat(src) = j.kind else { continue };
        if let (Some(a), Some(b)) = (&p.reports[i], &p.reports[src]) {
            if a != b {
                p.out.problem(format!("repeat {i} differs from job {src}"));
                p.reports[i] = None;
            }
        }
    }
    p.out.failed += p.reports.iter().filter(|r| r.is_none()).count() as u64;
    let served = done_at.iter().cloned().fold(0.0, f64::max);
    let (q1, q3) = quartiles(&latency_ms);
    p.out.note(format!(
        "daemon_open: {} jobs ({} repeats, {} budget-0 + resume) at {RATE} jobs/s; last report at \
         {served:.3}s; latency q1 {q1:.1} p50 {:.1} q3 {q3:.1} p90 {:.1} ms; {} failed",
        jobs.len(),
        jobs.iter().filter(|j| matches!(j.kind, Kind::Repeat(_))).count(),
        jobs.iter().filter(|j| j.kind == Kind::Budget0).count(),
        percentile(&latency_ms, 50),
        percentile(&latency_ms, 90),
        p.out.failed
    ));
    p.out.metrics.extend([
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("wall_s", p.wall_s, "s"),
        Metric::new("latency_p50_ms", percentile(&latency_ms, 50), "ms"),
        Metric::new("latency_p90_ms", percentile(&latency_ms, 90), "ms"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
    ]);
    Ok((p, t))
}

/// Queue wait (dispatched - submitted) and, for simulated answers, run
/// time (completed - dispatched) from a terminal job's status document.
fn record_timeline(t: &mut Trace, status: &str) {
    let tl = http::timeline(status);
    let at = |phase: &str| tl.iter().find(|(_, p)| p == phase).map(|(ms, _)| *ms as f64);
    if let (Some(s), Some(d)) = (at("submitted"), at("dispatched")) {
        t.queue_wait_ms.push(d - s);
        if http::bool_field(status, "from_cache") == Some(true) {
            t.cache_hits += 1;
        } else if let Some(c) = at("completed") {
            t.run_ms.push(c - d);
        }
    }
}

/// The in-process answer for a planned body, through the same facade the
/// daemon runs (`RunRequest::networks(..).run()`).
fn in_process(j: &Planned) -> String {
    let level = match j.level {
        "static" => SharingLevel::Static,
        "+d" => SharingLevel::PlusD,
        "+dw" => SharingLevel::PlusDw,
        _ => SharingLevel::PlusDwt,
    };
    let nets: Vec<_> =
        j.nets.iter().map(|n| zoo::by_name(n, Scale::Bench).expect("zoo name")).collect();
    mnpusim::RunRequest::networks(&SystemConfig::bench(2, level), nets).run().batch().to_json()
}

/// Run the workload: the untraced pass, and with `traced` a second pass on
/// a second fresh daemon with every exchange timed.
pub fn run(path: &str, seed: u64, budget: Duration, traced: bool) -> (Outcome, String) {
    let jobs = plan(seed, budget.as_secs_f64());
    let (mut first, _) = match pass(path, &jobs, false) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: daemon_open: {e}");
            std::process::exit(4);
        }
    };
    let digest = fnv_hex(
        first
            .reports
            .iter()
            .enumerate()
            .map(|(i, r)| format!("{i}:{}\n", r.as_deref().unwrap_or("-")))
            .collect::<String>()
            .as_bytes(),
    );
    first.out.note(format!("daemon_open seed {seed} reports digest {digest}"));

    // Outside the timed window: every resumed body and a seeded sample of
    // plain ones, recomputed in-process, must match byte for byte.
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut plain: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].kind == Kind::Fresh).collect();
    rng.shuffle(&mut plain);
    let checked: Vec<usize> = (0..jobs.len())
        .filter(|&i| jobs[i].kind == Kind::Budget0)
        .chain(plain.into_iter().take(SAMPLE))
        .collect();
    for &i in &checked {
        let want = in_process(&jobs[i]);
        if let Some(got) = &first.reports[i] {
            if *got != want {
                first.out.problem(format!(
                    "job {i} ({}) differs from the in-process run",
                    jobs[i].body()
                ));
                first.out.failed += 1;
            }
        }
    }
    first
        .out
        .note(format!("daemon_open: {} reports checked against in-process runs", checked.len()));
    let hatches = first.hatches.clone();
    if !traced {
        return (first.out, hatches);
    }

    let (second, t) = match pass(path, &jobs, true) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: daemon_open traced pass: {e}");
            std::process::exit(4);
        }
    };
    let mut out = first.out;
    for (i, (a, b)) in first.reports.iter().zip(&second.reports).enumerate() {
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                out.problem(format!("traced job {i} report differs from the untraced pass"));
            }
        }
    }
    let repeats = jobs.iter().filter(|j| matches!(j.kind, Kind::Repeat(_))).count();
    let unattributed = second.wall_s - t.exchange_s - t.idle_s;
    out.note(format!(
        "daemon traced: wall {:.3}s = exchanges {:.3}s + idle {:.3}s + unattributed {unattributed:.3}s",
        second.wall_s, t.exchange_s, t.idle_s
    ));
    let polls = t.poll_ms.len() as f64;
    let mut sm = second.out;
    sm.metrics.extend([
        Metric::new("service.submit_ms_p50", median(&t.submit_ms), "ms"),
        Metric::new("service.poll_ms_p50", median(&t.poll_ms), "ms"),
        Metric::new("service.polls_per_job", ratio(polls, jobs.len() as f64), "count"),
        Metric::new("service.fetch_ms_p50", median(&t.fetch_ms), "ms"),
        Metric::new("service.resume_submit_ms_p50", median(&t.resume_ms), "ms"),
        Metric::new("service.cache_hit_frac", ratio(t.cache_hits as f64, repeats as f64), "frac"),
        Metric::new("service.queue_wait_ms_p50", percentile(&t.queue_wait_ms, 50), "ms"),
        Metric::new("service.queue_wait_ms_p90", percentile(&t.queue_wait_ms, 90), "ms"),
        Metric::new("service.run_ms_p50", percentile(&t.run_ms, 50), "ms"),
        Metric::new("service.run_ms_p90", percentile(&t.run_ms, 90), "ms"),
        Metric::new("service.refused", t.refused as f64, "count"),
        Metric::new("snapshot.checkpoint_bytes", median(&t.checkpoint_bytes), "bytes"),
        Metric::new("gen.late_ms_max", t.late_ms_max, "ms"),
        Metric::new("gen.idle_s", t.idle_s, "s"),
        Metric::new("trace.unattributed_s", unattributed, "s"),
        Metric::new(
            "trace.overhead_frac",
            ratio(second.busy_s - first.busy_s, first.busy_s),
            "frac",
        ),
    ]);
    out.absorb(sm);
    (out, hatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_with_unique_fresh_bodies_and_exact_shares() {
        for seed in [1, 2, 77] {
            let jobs = plan(seed, 40.0);
            let again = plan(seed, 40.0);
            assert_eq!(format!("{jobs:?}"), format!("{again:?}"), "same seed, same inputs");
            let n = jobs.len();
            assert_eq!(n, (RATE * 40.0) as usize);
            let repeats = jobs.iter().filter(|j| matches!(j.kind, Kind::Repeat(_))).count();
            let budget0 = jobs.iter().filter(|j| j.kind == Kind::Budget0).count();
            assert_eq!((repeats, budget0), (n / 10, n / 10));
            let mut fresh: Vec<String> = jobs
                .iter()
                .filter(|j| !matches!(j.kind, Kind::Repeat(_)))
                .map(Planned::spec)
                .collect();
            let total = fresh.len();
            fresh.sort();
            fresh.dedup();
            assert_eq!(fresh.len(), total, "fresh bodies are unique");
            for (i, j) in jobs.iter().enumerate() {
                if let Kind::Repeat(src) = j.kind {
                    assert!(src < i && jobs[src].kind == Kind::Fresh);
                    assert_eq!(j.body(), jobs[src].body());
                }
                assert!(i == 0 || j.due_s >= jobs[i - 1].due_s);
            }
        }
        assert_ne!(format!("{:?}", plan(1, 40.0)), format!("{:?}", plan(2, 40.0)));
    }

    #[test]
    fn offered_load_matches_the_rate() {
        let jobs = plan(5, 40.0);
        let span = jobs.last().unwrap().due_s;
        let rate = (jobs.len() - 1) as f64 / span;
        assert!((rate / RATE - 1.0).abs() < 0.15, "rate {rate}");
    }
}
