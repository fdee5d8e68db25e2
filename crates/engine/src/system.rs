//! Whole-system configuration: cores + MMU + DRAM + sharing level.

use crate::memory::MemoryModel;
use crate::sharing::SharingLevel;
use mnpu_dram::DramConfig;
use mnpu_mmu::MmuConfig;
use mnpu_systolic::ArchConfig;
use std::fmt;

/// Which observability probe a simulation runs with (see [`mnpu_probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// No instrumentation: every emission site compiles to nothing
    /// ([`mnpu_probe::NullProbe`]); reports carry no stats section.
    #[default]
    None,
    /// Aggregate counters, histograms, stall breakdowns, and phase spans
    /// with [`mnpu_probe::StatsProbe`]; the report gains a `stats` section
    /// exportable as CSV or a Chrome trace.
    Stats,
    /// Feed the flight recorder and live-progress telemetry with
    /// [`mnpu_trace::FlightProbe`]: structural events enter a bounded
    /// ring, dense events become published counters, and the report stays
    /// byte-identical to [`ProbeMode::None`] (telemetry never touches
    /// simulation state).
    Flight,
}

/// Evaluate `$body` with the type alias `$P` bound to the concrete probe
/// a [`ProbeMode`] selects: [`ProbeMode::None`] → [`mnpu_probe::NullProbe`],
/// [`ProbeMode::Stats`] → [`mnpu_probe::StatsProbe`],
/// [`ProbeMode::Flight`] → [`mnpu_trace::FlightProbe`].
///
/// This is the one place that mapping is written; every driver that turns
/// a configuration into a monomorphized simulation goes through it.
///
/// ```
/// use mnpu_engine::{dispatch_probe, Probe, ProbeMode};
///
/// assert!(!dispatch_probe!(ProbeMode::None, P => P::ENABLED));
/// assert!(dispatch_probe!(ProbeMode::Stats, P => P::ENABLED));
/// ```
#[macro_export]
macro_rules! dispatch_probe {
    ($mode:expr, $P:ident => $body:expr) => {
        match $mode {
            $crate::ProbeMode::None => {
                type $P = $crate::NullProbe;
                $body
            }
            $crate::ProbeMode::Stats => {
                type $P = $crate::StatsProbe;
                $body
            }
            $crate::ProbeMode::Flight => {
                type $P = $crate::FlightProbe;
                $body
            }
        }
    };
}

/// Why a [`SystemConfig`] failed validation. Produced by
/// [`SystemConfig::validate`]; the variants mirror the config surface so callers can match on the
/// precise inconsistency instead of parsing a message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `cores` is zero.
    NoCores,
    /// `arch.len()` disagrees with `cores`.
    ArchCountMismatch {
        /// Configured core count.
        cores: usize,
        /// Number of `ArchConfig` entries supplied.
        archs: usize,
    },
    /// One core's [`ArchConfig`] is invalid.
    InvalidArch {
        /// Which core.
        core: usize,
        /// The arch validator's message.
        reason: String,
    },
    /// `channels_per_core` is zero.
    NoChannels,
    /// The derived [`DramConfig`] is invalid.
    InvalidDram(String),
    /// The derived [`MmuConfig`] is invalid.
    InvalidMmu(String),
    /// The NoC configuration is invalid.
    InvalidNoc(String),
    /// A static partition was given for a resource the sharing level shares
    /// dynamically.
    PartitionWithSharing {
        /// `"channel"` or `"ptw"`.
        resource: &'static str,
    },
    /// A partition's length disagrees with the core count.
    PartitionLength {
        /// `"channel"` or `"ptw"`.
        resource: &'static str,
        /// Expected length (the core count).
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// The channel partition does not sum to the chip's channel count.
    PartitionSum {
        /// Required sum ([`SystemConfig::total_channels`]).
        expected: usize,
        /// Actual sum.
        got: usize,
    },
    /// A partition gives some core zero channels.
    PartitionZero,
    /// PTW bounds were given without a PTW-sharing level.
    BoundsWithoutSharedPool,
    /// `start_cycles` is neither empty nor one entry per core.
    StartCyclesLength {
        /// The core count.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// `iterations` is zero.
    ZeroIterations,
    /// `trace_window` is `Some(0)`: the bandwidth trace needs a positive
    /// window.
    ZeroTraceWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCores => write!(f, "at least one core required"),
            ConfigError::ArchCountMismatch { cores, archs } => {
                write!(f, "{cores} cores but {archs} ArchConfig entries (need one per core)")
            }
            ConfigError::InvalidArch { core, reason } => write!(f, "core {core}: {reason}"),
            ConfigError::NoChannels => write!(f, "at least one channel per core required"),
            ConfigError::InvalidDram(e) => write!(f, "dram: {e}"),
            ConfigError::InvalidMmu(e) => write!(f, "mmu: {e}"),
            ConfigError::InvalidNoc(e) => write!(f, "noc: {e}"),
            ConfigError::PartitionWithSharing { resource } => {
                write!(f, "{resource} partition requires a level that does not share {resource}s")
            }
            ConfigError::PartitionLength { resource, expected, got } => {
                write!(f, "{resource} partition has {got} entries; need {expected} (one per core)")
            }
            ConfigError::PartitionSum { expected, got } => {
                write!(f, "channel partition sums to {got}; must sum to {expected}")
            }
            ConfigError::PartitionZero => write!(f, "every core needs at least one channel"),
            ConfigError::BoundsWithoutSharedPool => {
                write!(f, "PTW bounds manage a shared pool; use a PTW-sharing level")
            }
            ConfigError::StartCyclesLength { expected, got } => {
                write!(f, "start_cycles has {got} entries; must be empty or {expected}")
            }
            ConfigError::ZeroIterations => write!(f, "iterations must be positive"),
            ConfigError::ZeroTraceWindow => write!(f, "trace_window must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of one simulated multi-core NPU chip.
///
/// Quantities in [`MmuConfig`] and `channels_per_core` are *per core*, as in
/// the paper's Table 2; the simulation derives chip totals from the core
/// count and sharing level (e.g. a dual-core `+DW` chip has 16 walkers in
/// one shared pool).
///
/// Start from a preset ([`SystemConfig::bench`], [`SystemConfig::cloud`]),
/// set fields directly or through the `with_*` helpers, and check the
/// result with [`SystemConfig::validate`], which returns a typed
/// [`ConfigError`] instead of letting [`crate::Simulation::new`] panic.
///
/// ```
/// use mnpu_engine::{ProbeMode, SystemConfig, SharingLevel};
///
/// let mut cfg = SystemConfig::cloud(2, SharingLevel::PlusDw);
/// cfg.probe = ProbeMode::Stats;
/// cfg.trace_window = Some(1000);
/// cfg.validate().expect("preset-derived config is consistent");
/// assert_eq!(cfg.cores, 2);
/// assert_eq!(cfg.total_channels(), 8); // 2 x 128 GB/s
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of NPU cores.
    pub cores: usize,
    /// Per-core compute configuration (index = core). All presets are
    /// homogeneous; heterogeneous chips assign different entries.
    pub arch: Vec<ArchConfig>,
    /// Per-core MMU quantities (TLB entries, walkers, page size).
    pub mmu: MmuConfig,
    /// DRAM device template; `channels` is overridden with
    /// [`SystemConfig::total_channels`] when the chip is built.
    pub dram: DramConfig,
    /// DRAM channels owned per core (Table 2: 4 = 128 GB/s of HBM2).
    pub channels_per_core: usize,
    /// Resource-sharing level.
    pub sharing: SharingLevel,
    /// Unequal channel split for the Figs. 9/10 sweeps. Only meaningful when
    /// the sharing level does not share DRAM; counts must sum to
    /// [`SystemConfig::total_channels`].
    pub channel_partition: Option<Vec<usize>>,
    /// Unequal walker split for the Figs. 13/14 sweeps (forwarded to
    /// [`MmuConfig::ptw_partition`]).
    pub ptw_partition: Option<Vec<usize>>,
    /// `false` disables address translation entirely (the paper removes it
    /// to isolate bandwidth effects in §4.3).
    pub translation: bool,
    /// Per-core execution initiation cycle (the `misc_config` start time);
    /// empty = all cores start at cycle 0.
    pub start_cycles: Vec<u64>,
    /// Times each core repeats its network.
    pub iterations: u64,
    /// Enable the windowed bandwidth trace (window in DRAM cycles).
    pub trace_window: Option<u64>,
    /// Record a request log (TLB lookups, walks, DRAM completions) in the
    /// report — the original's `dramsim_output` logs. Bounded by
    /// [`SystemConfig::request_log_cap`]; without a cap, memory grows with
    /// every transaction (intended for small runs and debugging).
    pub request_log: bool,
    /// Ring-buffer capacity of the request log: once full, the oldest
    /// entries are dropped and the report's `request_log_truncated` flag is
    /// set. `None` = unbounded (the historical behavior).
    pub request_log_cap: Option<usize>,
    /// Which observability probe instruments the run (see
    /// [`crate::Simulation::execute`]). [`ProbeMode::None`] is free;
    /// [`ProbeMode::Stats`] adds counters/histograms/stall breakdowns to
    /// the report.
    pub probe: ProbeMode,
    /// Managed walker sharing: per-core (min, max) occupancy bounds on the
    /// shared pool — the original `misc_config`'s PTW bounds. Requires a
    /// PTW-sharing level.
    pub ptw_bounds: Option<mnpu_mmu::PtwBounds>,
    /// Watchdog: panic if the simulation exceeds this many global cycles
    /// (guards sweeps against configuration mistakes). `None` = unlimited.
    pub max_cycles: Option<u64>,
    /// Optional on-chip interconnect between cores and the memory system
    /// (an extension; `None` = ideal interconnect, as the paper assumes).
    pub noc: Option<mnpu_noc::NocConfig>,
    /// Which backend services memory traffic: the full DRAM timing model
    /// (default) or a fixed-latency ideal memory.
    pub memory: MemoryModel,
}

impl SystemConfig {
    /// The paper's Table 2 cloud-scale chip: TPUv4-like cores, HBM2 at
    /// 128 GB/s / 2048 TLB entries / 8 walkers per core.
    pub fn cloud(cores: usize, sharing: SharingLevel) -> Self {
        SystemConfig {
            cores,
            arch: vec![ArchConfig::cloud_npu(); cores],
            mmu: MmuConfig::neummu(4096),
            dram: DramConfig::hbm2(4), // channels overridden by total_channels()
            channels_per_core: 4,
            sharing,
            channel_partition: None,
            ptw_partition: None,
            translation: true,
            start_cycles: Vec::new(),
            iterations: 1,
            trace_window: None,
            request_log: false,
            request_log_cap: None,
            probe: ProbeMode::None,
            ptw_bounds: None,
            max_cycles: None,
            noc: None,
            memory: MemoryModel::Timing,
        }
    }

    /// The proportionally shrunk chip used with [`mnpu_model::Scale::Bench`]
    /// workloads: 32×32 cores, 4 narrow (8 GB/s) channels / 512 TLB entries /
    /// 4 walkers per core. The compute : bandwidth : translation balance
    /// tracks the cloud preset so sweep *shapes* are preserved at a fraction
    /// of the simulation cost.
    pub fn bench(cores: usize, sharing: SharingLevel) -> Self {
        SystemConfig {
            arch: vec![ArchConfig::bench_npu(); cores],
            mmu: MmuConfig::bench(4096),
            dram: DramConfig::bench(4),
            channels_per_core: 4,
            ..SystemConfig::cloud(cores, sharing)
        }
    }

    /// Total DRAM channels on the chip.
    pub fn total_channels(&self) -> usize {
        self.cores * self.channels_per_core
    }

    /// Set the page size (4 KB, 64 KB or 1 MB), preserving everything else.
    pub fn with_page_size(mut self, page_bytes: u64) -> Self {
        self.mmu.page_bytes = page_bytes;
        self
    }

    /// Disable address translation (§4.3 bandwidth isolation).
    pub fn without_translation(mut self) -> Self {
        self.translation = false;
        self
    }

    /// Use an unequal static channel split (e.g. `[1, 7]`).
    pub fn with_channel_partition(mut self, counts: Vec<usize>) -> Self {
        self.channel_partition = Some(counts);
        self
    }

    /// Use an unequal static walker split (e.g. `[2, 14]`).
    pub fn with_ptw_partition(mut self, counts: Vec<usize>) -> Self {
        self.ptw_partition = Some(counts);
        self
    }

    /// Bound the shared walker pool: core *c* is always guaranteed `min[c]`
    /// walkers and may hold at most `max[c]` (DWS-style managed sharing;
    /// the original's `misc_config` PTW bounds).
    pub fn with_ptw_bounds(mut self, min: Vec<usize>, max: Vec<usize>) -> Self {
        self.ptw_bounds = Some(mnpu_mmu::PtwBounds { min, max });
        self
    }

    /// Route memory traffic through a modeled on-chip interconnect instead
    /// of an ideal one.
    pub fn with_noc(mut self, noc: mnpu_noc::NocConfig) -> Self {
        self.noc = Some(noc);
        self
    }

    /// Replace the DRAM timing model with a fixed-latency,
    /// infinite-bandwidth ideal memory ([`MemoryModel::Ideal`]) — a
    /// contention-free upper bound that isolates compute and translation
    /// effects.
    pub fn with_ideal_memory(mut self, latency: u64) -> Self {
        self.memory = MemoryModel::Ideal { latency };
        self
    }

    /// Derive the `Ideal` baseline configuration for one workload of this
    /// chip: a single core monopolizing *all* the chip's shareable
    /// resources (all channels, all walkers, the whole TLB capacity), as in
    /// the paper's §4.1.3.
    pub fn ideal_solo(&self) -> SystemConfig {
        let mut c = self.clone();
        c.arch = vec![self.arch[0].clone()];
        c.channels_per_core = self.channels_per_core * self.cores;
        c.mmu.tlb_entries_per_core *= self.cores as u64;
        c.mmu.ptws_per_core *= self.cores;
        c.cores = 1;
        c.sharing = SharingLevel::Ideal;
        c.channel_partition = None;
        c.ptw_partition = None;
        c.ptw_bounds = None;
        c.start_cycles = Vec::new();
        c
    }

    /// Physical DRAM bytes owned by each core (capacity is always
    /// partitioned equally, as in Table 2's "capacity per NPU").
    pub fn capacity_per_core(&self) -> u64 {
        let mut dram = self.dram.clone();
        dram.channels = self.total_channels();
        dram.capacity_bytes() / self.cores as u64
    }

    /// Validate the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if self.arch.len() != self.cores {
            return Err(ConfigError::ArchCountMismatch {
                cores: self.cores,
                archs: self.arch.len(),
            });
        }
        for (i, a) in self.arch.iter().enumerate() {
            a.validate().map_err(|e| ConfigError::InvalidArch { core: i, reason: e })?;
        }
        if self.channels_per_core == 0 {
            return Err(ConfigError::NoChannels);
        }
        let mut dram = self.dram.clone();
        dram.channels = self.total_channels();
        dram.validate().map_err(ConfigError::InvalidDram)?;
        let mut mmu = self.mmu.clone();
        mmu.ptw_partition = self.ptw_partition.clone();
        mmu.validate(self.cores).map_err(ConfigError::InvalidMmu)?;
        if let Some(p) = &self.channel_partition {
            if self.sharing.shares_dram() {
                return Err(ConfigError::PartitionWithSharing { resource: "channel" });
            }
            if p.len() != self.cores {
                return Err(ConfigError::PartitionLength {
                    resource: "channel",
                    expected: self.cores,
                    got: p.len(),
                });
            }
            if p.iter().sum::<usize>() != self.total_channels() {
                return Err(ConfigError::PartitionSum {
                    expected: self.total_channels(),
                    got: p.iter().sum(),
                });
            }
            if p.contains(&0) {
                return Err(ConfigError::PartitionZero);
            }
        }
        if let Some(p) = &self.ptw_partition {
            if self.sharing.shares_ptw() {
                return Err(ConfigError::PartitionWithSharing { resource: "ptw" });
            }
            if p.len() != self.cores {
                return Err(ConfigError::PartitionLength {
                    resource: "ptw",
                    expected: self.cores,
                    got: p.len(),
                });
            }
        }
        if self.ptw_bounds.is_some() && !self.sharing.shares_ptw() {
            return Err(ConfigError::BoundsWithoutSharedPool);
        }
        if let Some(b) = &self.ptw_bounds {
            let mut m = self.mmu.clone();
            m.ptw_bounds = Some(b.clone());
            m.validate(self.cores).map_err(ConfigError::InvalidMmu)?;
        }
        if !self.start_cycles.is_empty() && self.start_cycles.len() != self.cores {
            return Err(ConfigError::StartCyclesLength {
                expected: self.cores,
                got: self.start_cycles.len(),
            });
        }
        if let Some(n) = &self.noc {
            n.validate().map_err(ConfigError::InvalidNoc)?;
        }
        if self.iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.trace_window == Some(0) {
            return Err(ConfigError::ZeroTraceWindow);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_at_many_core_counts() {
        for cores in [1, 2, 4, 8] {
            for sharing in SharingLevel::CO_RUN_LEVELS {
                assert!(SystemConfig::cloud(cores, sharing).validate().is_ok());
                assert!(SystemConfig::bench(cores, sharing).validate().is_ok());
            }
        }
    }

    #[test]
    fn table2_totals_for_dual_core() {
        let c = SystemConfig::cloud(2, SharingLevel::PlusDwt);
        assert_eq!(c.total_channels(), 8);
        let mut dram = c.dram.clone();
        dram.channels = c.total_channels();
        assert_eq!(dram.peak_gbps(), 256.0);
        assert_eq!(c.mmu.total_walkers(2), 16);
    }

    #[test]
    fn capacity_split_equally() {
        let c = SystemConfig::cloud(2, SharingLevel::PlusDwt);
        let mut dram = c.dram.clone();
        dram.channels = 8;
        assert_eq!(c.capacity_per_core() * 2, dram.capacity_bytes());
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::bench(2, SharingLevel::Static)
            .with_page_size(65536)
            .with_channel_partition(vec![2, 6])
            .without_translation();
        assert_eq!(c.mmu.page_bytes, 65536);
        assert!(!c.translation);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn partition_rejected_when_sharing() {
        let c = SystemConfig::bench(2, SharingLevel::PlusD).with_channel_partition(vec![2, 6]);
        assert!(c.validate().is_err());
        let c = SystemConfig::bench(2, SharingLevel::PlusDw).with_ptw_partition(vec![2, 6]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_partitions_rejected() {
        let c = SystemConfig::bench(2, SharingLevel::Static).with_channel_partition(vec![1, 1]);
        assert!(c.validate().is_err(), "must sum to 8");
        let c = SystemConfig::bench(2, SharingLevel::Static).with_channel_partition(vec![8, 0]);
        assert!(c.validate().is_err(), "zero channels");
        let c = SystemConfig::bench(2, SharingLevel::Static).with_ptw_partition(vec![8]);
        assert!(c.validate().is_err(), "length mismatch");
    }
}
