//! The bench-history files `BENCH_hotpath.json` and `BENCH_serve.json`.
//!
//! Each is a JSON array holding one object per line. The `mnpu_hotpath`
//! and `mnpu_serve` binaries append one entry per run and, under
//! `--check`, gate the run against the newest entry labelled `baseline`.

use std::path::{Path, PathBuf};

/// Append `entry` to the history file: `MNPU_BENCH_OUT` when set,
/// otherwise `file_name` at the repository root. Exits the process with
/// status 1 when the file cannot be written.
pub fn record(file_name: &str, entry: &str) {
    let out = std::env::var("MNPU_BENCH_OUT").map(PathBuf::from).unwrap_or_else(|_| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file_name)
    });
    match append_entry(&out, entry) {
        Ok(()) => eprintln!("appended to {}", out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// Append `entry` to the JSON array in `path` (created when missing). The
/// file stays a plain JSON array of objects, one entry per line.
fn append_entry(path: &Path, entry: &str) -> std::io::Result<()> {
    let body = match std::fs::read_to_string(path) {
        Ok(text) => {
            let inner = text.trim().trim_start_matches('[').trim_end_matches(']').trim();
            if inner.is_empty() {
                format!("[\n{entry}\n]\n")
            } else {
                format!("[\n{inner},\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, body)
}

/// The numeric `field` of the newest `"label":"baseline"` entry of `mode`
/// in the history file at `path`. Entries are one object per line, written
/// by the bench binaries, so a line-wise scan is an honest parser for them.
fn baseline(path: &Path, mode: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let mode_tag = format!("\"mode\":\"{mode}\"");
    let key = format!("\"{field}\":");
    text.lines()
        .filter(|l| l.contains("\"label\":\"baseline\"") && l.contains(&mode_tag))
        .filter_map(|l| {
            let rest = l.split(key.as_str()).nth(1)?;
            let num: String =
                rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
            num.parse::<f64>().ok()
        })
        .next_back()
}

/// The `--check` gate: compare this run's `value` of `field` against
/// `MNPU_BENCH_TOLERANCE` (default 0.95) times `field` in the newest
/// `"label":"baseline"` entry of `mode` in `path`. Prints the verdict
/// with `value` in `unit` at `decimals` places; exits the process with
/// status 1 below the floor and 2 when `path` holds no baseline for
/// `mode`.
pub fn check(path: &Path, mode: &str, field: &str, value: f64, unit: &str, decimals: usize) {
    let tolerance = std::env::var("MNPU_BENCH_TOLERANCE")
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.95);
    let Some(base) = baseline(path, mode, field) else {
        eprintln!("no \"baseline\"-labeled {mode} entry in {} — cannot check", path.display());
        std::process::exit(2);
    };
    let floor = base * tolerance;
    if value < floor {
        eprintln!(
            "PERF REGRESSION: {value:.decimals$} {unit} < {floor:.decimals$} \
             ({tolerance:.2} x baseline {base:.decimals$}, mode {mode})"
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf check ok: {value:.decimals$} {unit} >= {floor:.decimals$} \
         ({tolerance:.2} x baseline {base:.decimals$}, mode {mode})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appended_entries_read_back_as_the_newest_baseline() {
        let path =
            std::env::temp_dir().join(format!("mnpu_bench_history_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_entry(&path, r#"{"label":"baseline","mode":"tiny","jobs_per_sec":1.50}"#).unwrap();
        append_entry(&path, r#"{"label":"baseline","mode":"serve","jobs_per_sec":9.00}"#).unwrap();
        append_entry(&path, r#"{"label":"current","mode":"tiny","jobs_per_sec":7.00}"#).unwrap();
        append_entry(&path, r#"{"label":"baseline","mode":"tiny","jobs_per_sec":2.25}"#).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n{") && text.ends_with("}\n]\n"), "{text}");
        assert_eq!(text.lines().count(), 6, "one entry per line inside the array");
        assert_eq!(baseline(&path, "tiny", "jobs_per_sec"), Some(2.25));
        assert_eq!(baseline(&path, "serve", "jobs_per_sec"), Some(9.0));
        assert_eq!(baseline(&path, "fig04", "jobs_per_sec"), None);
        assert_eq!(baseline(&path, "tiny", "simulated_cycles_per_sec"), None);
        let _ = std::fs::remove_file(&path);
    }
}
