//! The on-disk run cache carries a version header and is dropped wholesale
//! when the header does not match the current `CACHE_VERSION`. The harness
//! reads the file only when it first looks up cached cycles, so a harness
//! that only runs full reports (sweep counts, the daemon) never touches it.

use mnpu_bench::{sweeps, Harness};
use mnpu_engine::SharingLevel;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Each test points `CARGO_TARGET_DIR` at its own directory; the lock keeps
/// them from seeing each other's setting.
static ENV: Mutex<()> = Mutex::new(());

/// A fresh directory holding `contents` as the run-cache file, with the
/// cache enabled and anchored there. Returns the directory and the file.
fn plant_cache(tag: &str, contents: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mnpu_cache_test_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp target dir");
    let path = dir.join("mnpu_run_cache.tsv");
    fs::write(&path, contents).unwrap();
    std::env::remove_var("MNPU_NO_CACHE");
    std::env::set_var("CARGO_TARGET_DIR", &dir);
    (dir, path)
}

#[test]
fn stale_cache_is_dropped_and_rewritten_with_header() {
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    // A pre-header-era file: bare key\tcycles lines, no version line.
    let (dir, path) = plant_cache("hdr", "12345\t1,2\n67890\t3,4\n");

    let h = Harness::new();
    assert!(path.exists(), "the stale cache file must stay until the first lookup");

    // The first lookup drops the stale file; the run writes the cache
    // back, header first.
    let cfg = Harness::dual(SharingLevel::Static);
    let cycles = h.run_mix(&cfg, &[6, 6]);
    let text = fs::read_to_string(&path).expect("cache rewritten");
    let first = text.lines().next().expect("non-empty cache");
    assert!(first.starts_with("#mnpu-run-cache v"), "header line expected, got {first:?}");
    assert!(!text.contains("12345\t1,2"), "stale entries must not survive");

    // A fresh harness reloads the versioned file and serves from it.
    let h2 = Harness::new();
    assert_eq!(h2.run_mix(&cfg, &[6, 6]), cycles);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_counts_leave_a_stale_cache_file_untouched() {
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    // As written by a build with another cache version.
    let stale = "#mnpu-run-cache v0\n12345\t1,2\n";
    let (dir, path) = plant_cache("untouched", stale);

    let h = Harness::new();
    let counts = sweeps::run_counts(&h, &sweeps::tiny());
    assert_eq!(counts.sims, 5);
    assert_eq!(
        fs::read_to_string(&path).ok().as_deref(),
        Some(stale),
        "a sweep that never looks up cached cycles must not touch the run cache"
    );

    let _ = fs::remove_dir_all(&dir);
}
