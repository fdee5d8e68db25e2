//! Chrome-trace emission contract, driven end to end: a real engine run
//! under [`ProbeMode::Flight`] populates a flight ring, and the exported
//! document must hold the invariants any `chrome://tracing` / Perfetto
//! loader relies on — it parses as JSON, events are `ts`-sorted, every
//! `B` has a matching same-name `E` on its thread, and the job span nests
//! inside the worker span.

use mnpu_snapshot::json::{self, Value};
use mnpusim::prelude::*;
use mnpusim::trace::TraceHandle;
use mnpusim::{zoo, ProbeMode};

/// Run a dual-core flight-probed workload and export its Chrome trace.
fn traced_document() -> String {
    let mut cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    cfg.probe = ProbeMode::Flight;
    let trace = TraceHandle::with_capacity(512);
    {
        let _g = mnpusim::trace::install(&trace);
        RunRequest::networks(&cfg, vec![zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)])
            .run()
            .batch();
    }
    trace.chrome_json("job-42", 3)
}

fn events(doc: &str) -> Vec<Value> {
    let v = json::parse(doc).expect("chrome trace must parse as JSON");
    let arr = v.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    assert!(!arr.is_empty(), "an executed run must export events");
    arr.to_vec()
}

fn field<'a>(e: &'a Value, key: &str) -> &'a Value {
    e.get(key).unwrap_or_else(|| panic!("event lacks {key}"))
}

#[test]
fn document_parses_and_is_ts_sorted() {
    let doc = traced_document();
    let evs = events(&doc);
    let ts: Vec<f64> = evs.iter().map(|e| field(e, "ts").as_num().unwrap()).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "events are not ts-sorted");
}

#[test]
fn every_begin_has_a_matching_end_per_thread() {
    let doc = traced_document();
    let mut stacks: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    let mut spans = 0usize;
    for e in events(&doc) {
        let ph = field(&e, "ph").as_str().unwrap().to_string();
        let tid = field(&e, "tid").as_num().unwrap() as i64;
        let name = field(&e, "name").as_str().unwrap().to_string();
        match ph.as_str() {
            "B" => {
                stacks.entry(tid).or_default().push(name);
                spans += 1;
            }
            "E" => {
                let top = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without B on tid {tid}"));
                assert_eq!(top, name, "mismatched B/E pair on tid {tid}");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    // A real flight-probed run produces tile-phase spans beyond the two
    // control spans.
    assert!(spans > 2, "expected tile-phase spans, got only the control lane");
}

#[test]
fn job_span_nests_inside_worker_span() {
    let doc = traced_document();
    let evs = events(&doc);
    let pos = |name: &str, ph: &str| {
        evs.iter()
            .position(|e| {
                field(e, "name").as_str() == Some(name) && field(e, "ph").as_str() == Some(ph)
            })
            .unwrap_or_else(|| panic!("no {ph} event for {name}"))
    };
    let (wb, jb) = (pos("worker-3", "B"), pos("job-42", "B"));
    let (je, we) = (pos("job-42", "E"), pos("worker-3", "E"));
    assert!(wb < jb && jb < je && je < we, "job span does not nest inside worker span");
}

#[test]
fn instants_carry_wall_clock_in_args_only() {
    // Wall-clock readings ride in `args` (telemetry), never in `ts`
    // (which is simulated cycles) — the determinism story depends on the
    // separation staying visible here.
    let doc = traced_document();
    let mut saw_instant = false;
    for e in events(&doc) {
        if field(&e, "ph").as_str() == Some("i") {
            saw_instant = true;
            let args = field(&e, "args");
            assert!(args.get("wall_ms").is_some(), "instant without wall_ms arg");
        }
    }
    assert!(saw_instant, "a flight-probed run must export instant events");
}
