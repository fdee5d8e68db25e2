//! Request-log ring-buffer boundary behavior and the `truncated` flag's
//! round-trip through [`RunReport::emit`].
//!
//! The cap semantics under test: a log holding *exactly* `cap` events is
//! complete (`truncated == false`); one event more drops the oldest entry
//! and latches the flag. The flag must then survive serialization in both
//! the JSON object and the trailing `request_log_truncated` CSV column.

use mnpu_engine::{Emit, Format, RunReport, SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, Scale};

fn run(cap: Option<usize>) -> RunReport {
    let mut cfg = SystemConfig::bench(1, SharingLevel::PlusDwt);
    cfg.request_log = true;
    cfg.request_log_cap = cap;
    cfg.validate().unwrap();
    Simulation::execute_networks(&cfg, &[zoo::ncf(Scale::Bench)])
}

fn emit(report: &RunReport, format: Format) -> String {
    let mut buf = Vec::new();
    report.emit(format, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The run is deterministic, so an unbounded pass tells us the exact
/// event count to place the cap boundary on.
fn full_log_len() -> usize {
    let report = run(None);
    assert!(!report.request_log.is_empty(), "workload produced no loggable events");
    assert!(!report.request_log_truncated, "unbounded log cannot truncate");
    report.request_log.len()
}

#[test]
fn cap_exactly_at_event_count_keeps_everything() {
    let n = full_log_len();
    let report = run(Some(n));
    assert_eq!(report.request_log.len(), n);
    assert!(!report.request_log_truncated, "a log exactly at cap is complete, not truncated");
}

#[test]
fn cap_one_below_event_count_drops_the_oldest_and_latches_the_flag() {
    let n = full_log_len();
    let full = run(None);
    let report = run(Some(n - 1));
    assert_eq!(report.request_log.len(), n - 1);
    assert!(report.request_log_truncated);
    // The ring drops from the front: what survives is the *last* n-1
    // events of the unbounded log, byte for byte.
    assert_eq!(report.request_log, full.request_log[1..]);
}

#[test]
fn zero_cap_logs_nothing_but_still_reports_truncation() {
    let report = run(Some(0));
    assert!(report.request_log.is_empty());
    assert!(report.request_log_truncated);
}

#[test]
fn truncated_flag_round_trips_through_json() {
    let n = full_log_len();
    let clean = emit(&run(Some(n)), Format::Json);
    assert!(
        !clean.contains("\"request_log_truncated\""),
        "untruncated reports must omit the flag (golden JSON stability)"
    );
    let truncated = emit(&run(Some(n - 1)), Format::Json);
    assert!(truncated.contains("\"request_log_truncated\":true"));
}

#[test]
fn truncated_flag_round_trips_through_csv() {
    let n = full_log_len();
    for (cap, expect) in [(Some(n), false), (Some(n - 1), true)] {
        let text = emit(&run(cap), Format::Csv);
        let lines: Vec<&str> = text.lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(
            header.last(),
            Some(&"request_log_truncated"),
            "flag column must be the trailing one"
        );
        let total: Vec<&str> = lines.last().unwrap().split(',').collect();
        assert_eq!(total.len(), header.len(), "total row must stay rectangular");
        assert_eq!(total.last(), Some(&if expect { "true" } else { "false" }));
        // Per-core rows carry the run-level flag as an empty cell.
        for row in &lines[1..lines.len() - 1] {
            let cells: Vec<&str> = row.split(',').collect();
            assert_eq!(cells.len(), header.len(), "core row must stay rectangular");
            assert_eq!(cells.last(), Some(&""));
        }
    }
}
