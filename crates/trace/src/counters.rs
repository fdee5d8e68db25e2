//! Process-global simulator-internal counters surfaced at `/metrics`.
//!
//! These count events that happen *below* the service's job lifecycle —
//! simulations avoided by prefix sharing, DRAM steady-state fast-forward
//! commits — and therefore cannot live with the daemon's job counters
//! (which sit behind its state lock). They are plain relaxed atomics:
//! cheap enough for the hot paths that bump them, monotone so a Prometheus
//! scrape can treat them as counters, and global so the bench harness and
//! the engine can report without plumbing a handle through every
//! constructor.

use std::sync::atomic::{AtomicU64, Ordering};

static PREFIX_SHARE_SIMS: AtomicU64 = AtomicU64::new(0);
static FASTFWD_COMMITS: AtomicU64 = AtomicU64::new(0);

/// `n` simulations were serviced by one prefix-shared group run (the
/// group's variant count; each variant would otherwise have been a full
/// independent simulation).
pub fn add_prefix_share_sims(n: u64) {
    PREFIX_SHARE_SIMS.fetch_add(n, Ordering::Relaxed);
}

/// `n` DRAM commands were retired through the steady-state fast-forward
/// path (batched commits, reported at the end of a run).
pub fn add_fastfwd_commits(n: u64) {
    FASTFWD_COMMITS.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of every global counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Simulations serviced through prefix-shared group runs.
    pub prefix_share_sims: u64,
    /// DRAM commands retired by the fast-forward path.
    pub fastfwd_commits: u64,
}

/// Read all counters (relaxed; each field individually consistent).
pub fn snapshot() -> SimCounters {
    SimCounters {
        prefix_share_sims: PREFIX_SHARE_SIMS.load(Ordering::Relaxed),
        fastfwd_commits: FASTFWD_COMMITS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global and other tests in this binary may
    // bump them concurrently, so assert monotone deltas, not absolutes.
    #[test]
    fn counters_accumulate_monotonically() {
        let before = snapshot();
        add_prefix_share_sims(4);
        add_fastfwd_commits(100);
        let after = snapshot();
        assert!(after.prefix_share_sims >= before.prefix_share_sims + 4);
        assert!(after.fastfwd_commits >= before.fastfwd_commits + 100);
    }
}
