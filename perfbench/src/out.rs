//! Result plumbing shared by the workloads: named metrics, operation
//! accounting, digests, and the peak-memory reading.

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulations, serve jobs, daemon jobs).
    pub attempted: u64,
    /// Operations that failed: a mismatch, a panic, a refusal, a failed
    /// job or a timeout.
    pub failed: u64,
    /// Every failed output check, one line each.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn problem(&mut self, p: String) {
        eprintln!("perfbench: CHECK FAILED: {p}");
        self.problems.push(p);
    }

    /// Print an informational line (counts, digests, timings).
    pub fn note(&self, n: String) {
        println!("{n}");
    }

    /// The share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        }
    }

    /// Fold a second pass into this one (the traced run makes two).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
    }
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>`, in MiB; 0 when the
/// kernel does not expose it.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn ok_frac_counts_failures_against_attempts() {
        let o = Outcome { attempted: 8, failed: 2, ..Outcome::default() };
        assert_eq!(o.ok_frac(), 0.75);
        assert_eq!(Outcome::default().ok_frac(), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self") > 0.0);
    }
}
