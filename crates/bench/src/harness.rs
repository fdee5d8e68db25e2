//! Shared experiment machinery: workloads, Ideal baselines, run cache.

use mnpu_engine::{Advance, Probe, RunReport, SharingLevel, SimSnapshot, Simulation, SystemConfig};
use mnpu_model::{zoo, Network, Scale};
use mnpu_systolic::{ArchConfig, WorkloadTrace};
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bump to invalidate cached run results after simulator changes.
pub(crate) const CACHE_VERSION: u32 = 5;

/// First line of the on-disk cache; a file whose header does not match is
/// dropped wholesale (stale format or stale simulator).
fn cache_header() -> String {
    format!("#mnpu-run-cache v{CACHE_VERSION}")
}

/// FNV-1a, for compact cache keys.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Read a run-cache file. A file whose version header does not match is
/// deleted and reads as empty.
fn load(path: &Path) -> HashMap<u64, Vec<u64>> {
    let mut entries = HashMap::new();
    let Ok(text) = fs::read_to_string(path) else { return entries };
    let mut lines = text.lines();
    if lines.next() != Some(cache_header().as_str()) {
        // Wrong or missing version header: drop the stale file.
        let _ = fs::remove_file(path);
        return entries;
    }
    for line in lines {
        let mut it = line.split('\t');
        let (Some(k), Some(v)) = (it.next(), it.next()) else { continue };
        let Ok(key) = k.parse::<u64>() else { continue };
        let cycles: Vec<u64> = v.split(',').filter_map(|c| c.parse().ok()).collect();
        if !cycles.is_empty() {
            entries.insert(key, cycles);
        }
    }
    entries
}

/// The memoized run results and where they persist.
#[derive(Debug)]
struct CacheState {
    /// `None` until the first lookup reads the file.
    entries: Option<HashMap<u64, Vec<u64>>>,
    path: Option<PathBuf>,
}

impl CacheState {
    /// The memoized results, read from the backing file on first use.
    fn entries(&mut self) -> &mut HashMap<u64, Vec<u64>> {
        let path = self.path.as_deref();
        self.entries.get_or_insert_with(|| path.map(load).unwrap_or_default())
    }

    /// Rewrite the backing file (header line first).
    fn flush(&self) {
        let Some(p) = &self.path else { return };
        if let Some(parent) = p.parent() {
            let _ = fs::create_dir_all(parent);
        }
        let mut out = cache_header();
        out.push('\n');
        for (k, v) in self.entries.iter().flatten() {
            let cycles: Vec<String> = v.iter().map(u64::to_string).collect();
            out.push_str(&format!("{k}\t{}\n", cycles.join(",")));
        }
        if let Ok(mut f) = fs::File::create(p) {
            let _ = f.write_all(out.as_bytes());
        }
    }
}

/// The experiment harness: the eight benchmarks at the active scale, and a
/// memoized, disk-backed `run → per-core cycles` cache.
///
/// All state is behind `Arc`s and mutexes, so cloning is cheap, every clone
/// shares the same caches, and one harness serves every worker of a
/// [`mnpu_engine::FanOut`] while results land in one place.
///
/// ```no_run
/// use mnpu_bench::Harness;
/// use mnpu_engine::SharingLevel;
///
/// let h = Harness::new();
/// let cycles = h.run_mix(&Harness::dual(SharingLevel::PlusDwt), &[0, 1]);
/// assert_eq!(cycles.len(), 2);
/// ```
#[derive(Clone)]
pub struct Harness {
    networks: Arc<Vec<Network>>,
    /// Memoized `WorkloadTrace::generate` results keyed by (workload index,
    /// arch). `ArchConfig` is `Hash + Eq`, so the key is structural — no
    /// per-lookup string formatting on the sweep hot path.
    traces: Arc<Mutex<HashMap<(usize, ArchConfig), WorkloadTrace>>>,
    cache: Arc<Mutex<CacheState>>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// Build the harness at bench scale. The run cache file is read on the
    /// first lookup of cached cycles, not here, so a harness that only runs
    /// full reports never touches it; a file whose version header does not
    /// match `CACHE_VERSION` is then discarded entirely.
    pub fn new() -> Self {
        let networks = zoo::all(Scale::Bench);
        let cache_path = if std::env::var_os("MNPU_NO_CACHE").is_some() {
            None
        } else {
            // Bench binaries run with CWD = this crate; anchor the cache at
            // the workspace target directory so every target shares it.
            let target = std::env::var("CARGO_TARGET_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
            Some(target.join("mnpu_run_cache.tsv"))
        };
        Harness {
            networks: Arc::new(networks),
            traces: Arc::new(Mutex::new(HashMap::new())),
            cache: Arc::new(Mutex::new(CacheState { entries: None, path: cache_path })),
        }
    }

    /// Names of the eight benchmarks, Table 1 order.
    pub fn names(&self) -> Vec<&str> {
        self.networks.iter().map(Network::name).collect()
    }

    /// The benchmark networks.
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// `true` when `MNPU_FULL=1` requests exhaustive sweeps.
    pub fn full_sweeps() -> bool {
        std::env::var("MNPU_FULL").map(|v| v == "1").unwrap_or(false)
    }

    /// Sampling stride for the quad-core sweep (1 when `MNPU_FULL=1`).
    pub fn quad_stride() -> usize {
        if Harness::full_sweeps() {
            return 1;
        }
        std::env::var("MNPU_QUAD_STRIDE").ok().and_then(|v| v.parse().ok()).unwrap_or(10)
    }

    /// The standard dual-core chip at the given sharing level.
    pub fn dual(sharing: SharingLevel) -> SystemConfig {
        SystemConfig::bench(2, sharing)
    }

    /// The standard quad-core chip at the given sharing level.
    pub fn quad(sharing: SharingLevel) -> SystemConfig {
        SystemConfig::bench(4, sharing)
    }

    pub(crate) fn key(cfg: &SystemConfig, workloads: &[usize]) -> u64 {
        fnv1a(&format!("v{CACHE_VERSION}|{cfg:?}|{workloads:?}"))
    }

    /// The memoized result of a run, if it is already cached.
    pub(crate) fn cached(&self, cfg: &SystemConfig, workloads: &[usize]) -> Option<Vec<u64>> {
        let key = Harness::key(cfg, workloads);
        self.cache.lock().expect("cache lock").entries().get(&key).cloned()
    }

    /// Memoize each finished run's per-core cycles under its
    /// [`Harness::key`], in memory and on disk.
    pub(crate) fn memoize<'r>(&self, runs: impl IntoIterator<Item = (u64, &'r RunReport)>) {
        let mut cache = self.cache.lock().expect("cache lock");
        let entries = cache.entries();
        for (key, report) in runs {
            entries.insert(key, report.cores.iter().map(|c| c.cycles).collect());
        }
        cache.flush();
    }

    /// The memoized trace of `workload` on `arch`. The lock is held across
    /// generation, so workers that miss together still generate each trace
    /// once; the clone handed out shares the memo's layers.
    fn trace_for(&self, workload: usize, arch: &ArchConfig) -> WorkloadTrace {
        self.traces
            .lock()
            .expect("trace lock")
            .entry((workload, arch.clone()))
            .or_insert_with(|| WorkloadTrace::generate(&self.networks[workload], arch))
            .clone()
    }

    /// Run `workloads[i]` on core *i* of `cfg`, returning per-core cycles.
    /// Results are memoized in memory and on disk.
    ///
    /// # Panics
    ///
    /// Panics if the workload count does not match the core count or an
    /// index is out of range.
    pub fn run_mix(&self, cfg: &SystemConfig, workloads: &[usize]) -> Vec<u64> {
        assert_eq!(workloads.len(), cfg.cores, "one workload per core");
        if let Some(cycles) = self.cached(cfg, workloads) {
            return cycles;
        }
        let report = self.run_report(cfg, workloads);
        self.memoize([(Harness::key(cfg, workloads), &report)]);
        report.cores.iter().map(|c| c.cycles).collect()
    }

    /// Run `workloads[i]` on core *i* of `cfg` and return the full
    /// [`mnpu_engine::RunReport`], bypassing the cycles cache (the report
    /// carries state — DRAM stats, traces — that the cache does not).
    /// Traces still come from the shared memoized trace cache.
    ///
    /// # Panics
    ///
    /// Panics if the workload count does not match the core count or an
    /// index is out of range.
    pub fn run_report(&self, cfg: &SystemConfig, workloads: &[usize]) -> RunReport {
        assert_eq!(workloads.len(), cfg.cores, "one workload per core");
        let traces: Vec<WorkloadTrace> =
            workloads.iter().zip(&cfg.arch).map(|(&w, a)| self.trace_for(w, a)).collect();
        Simulation::execute(cfg, &traces)
    }

    /// Run one prefix-sharing group — configurations identical except for
    /// MMU organization (see [`crate::prefix::eligible`] and
    /// [`crate::prefix::divergence_key`]), all executing `workloads` — and
    /// return the full report of each, in `cfgs` order.
    ///
    /// `cfgs[0]` is simulated as the representative with one shadow MMU
    /// per remaining configuration; each variant is then finished from the
    /// last checkpoint at which its shadow was still in lockstep. The
    /// engine only forks checkpoints it has *verified* equivalent, so the
    /// reports are byte-identical to independent runs no matter when (or
    /// whether) each variant diverges.
    ///
    /// # Panics
    ///
    /// Panics if `cfgs` is empty, the workload count does not match the
    /// core count, or a configuration violates the shadow machinery's
    /// requirements (translation off, mismatched core counts).
    pub fn run_reports_shared(&self, cfgs: &[SystemConfig], workloads: &[usize]) -> Vec<RunReport> {
        fn drive<P: Probe>(sim: &mut Simulation<P>, stop: u64) -> Advance {
            loop {
                match sim.advance(stop) {
                    Advance::CoreFinished { .. } => continue,
                    outcome => return outcome,
                }
            }
        }
        let rep_cfg = cfgs.first().expect("a prefix group has a representative");
        assert_eq!(workloads.len(), rep_cfg.cores, "one workload per core");
        // Telemetry: the whole group is serviced by one shared-prefix run.
        mnpu_trace::counters::add_prefix_share_sims(cfgs.len() as u64);
        let traces: Vec<WorkloadTrace> =
            workloads.iter().zip(&rep_cfg.arch).map(|(&w, a)| self.trace_for(w, a)).collect();

        let variants = &cfgs[1..];
        let mut rep = Simulation::new(rep_cfg, &traces);
        for v in variants {
            rep.add_shadow_config(v);
        }
        // Keep, per variant, the newest checkpoint proven in-lockstep;
        // the pristine initial state always qualifies.
        let mut forks: Vec<SimSnapshot> = (0..variants.len())
            .map(|i| rep.fork_snapshot(i).expect("pristine shadows fork"))
            .collect();
        const CHUNK: u64 = 1 << 16;
        let mut stop = CHUNK;
        let refresh = |rep: &Simulation, forks: &mut Vec<SimSnapshot>| {
            for (i, fork) in forks.iter_mut().enumerate() {
                if let Some(snap) = rep.fork_snapshot(i) {
                    *fork = snap;
                }
            }
        };
        loop {
            match drive(&mut rep, stop) {
                Advance::Drained => break,
                _ => {
                    refresh(&rep, &mut forks);
                    stop = stop.saturating_add(CHUNK);
                }
            }
        }
        refresh(&rep, &mut forks);

        let mut reports = Vec::with_capacity(cfgs.len());
        reports.push(rep.into_report());
        for (vcfg, fork) in variants.iter().zip(&forks) {
            let mut sim = Simulation::new(vcfg, &traces);
            sim.restore(fork).expect("a fork restores into its own variant");
            drive(&mut sim, u64::MAX);
            reports.push(sim.into_report());
        }
        reports
    }

    /// Cycles of workload `w` running alone with all of `chip`'s resources
    /// (the `Ideal` baseline).
    pub fn ideal_cycles(&self, chip: &SystemConfig, w: usize) -> u64 {
        let solo = chip.ideal_solo();
        self.run_mix(&solo, &[w])[0]
    }

    /// Per-workload speedups (vs Ideal of `chip`) of a mix run on `chip`.
    pub fn mix_speedups(&self, chip: &SystemConfig, workloads: &[usize]) -> Vec<f64> {
        let cycles = self.run_mix(chip, workloads);
        workloads
            .iter()
            .zip(&cycles)
            .map(|(&w, &c)| self.ideal_cycles(chip, w) as f64 / c as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_distinct() {
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }

    #[test]
    fn harness_lists_eight_benchmarks() {
        let h = Harness::new();
        assert_eq!(h.names().len(), 8);
        assert_eq!(h.names()[0], "res");
    }

    #[test]
    fn run_mix_is_cached() {
        std::env::set_var("MNPU_NO_CACHE", "1");
        let h = Harness::new();
        let cfg = Harness::dual(SharingLevel::Static);
        let a = h.run_mix(&cfg, &[6, 6]); // ncf+ncf: fastest mix
        assert!(h.cached(&cfg, &[6, 6]).is_some());
        let b = h.run_mix(&cfg, &[6, 6]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn clones_share_one_cache() {
        std::env::set_var("MNPU_NO_CACHE", "1");
        let h = Harness::new();
        let cfg = Harness::dual(SharingLevel::Static);
        let a = h.run_mix(&cfg, &[6, 6]);
        let clone = h.clone();
        assert_eq!(clone.cached(&cfg, &[6, 6]), Some(a));
    }

    #[test]
    fn speedups_are_at_most_one_ish() {
        std::env::set_var("MNPU_NO_CACHE", "1");
        let h = Harness::new();
        let cfg = Harness::dual(SharingLevel::PlusDwt);
        for s in h.mix_speedups(&cfg, &[6, 6]) {
            assert!(s > 0.0 && s <= 1.05, "{s}");
        }
    }
}
