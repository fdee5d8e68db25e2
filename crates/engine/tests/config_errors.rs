//! Every [`ConfigError`] variant of [`SystemConfig::validate`] is
//! constructible from a legal starting preset by exactly one bad edit,
//! and each renders the documented `Display` string. The strings are
//! asserted verbatim: they appear in CLI error output and fuzzer repro
//! artifacts, so changing one is a user-visible change.

use mnpu_engine::{ConfigError, SharingLevel, SystemConfig};

fn base(cores: usize, sharing: SharingLevel) -> SystemConfig {
    SystemConfig::bench(cores, sharing)
}

#[test]
fn no_cores() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.cores = 0;
    cfg.arch.clear();
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::NoCores);
    assert_eq!(e.to_string(), "at least one core required");
}

#[test]
fn arch_count_mismatch() {
    let mut cfg = base(2, SharingLevel::PlusDwt);
    cfg.arch.pop();
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::ArchCountMismatch { cores: 2, archs: 1 });
    assert_eq!(e.to_string(), "2 cores but 1 ArchConfig entries (need one per core)");
}

#[test]
fn invalid_arch() {
    let mut cfg = base(2, SharingLevel::PlusDwt);
    cfg.arch[1].rows = 0;
    let e = cfg.validate().unwrap_err();
    assert_eq!(
        e,
        ConfigError::InvalidArch {
            core: 1,
            reason: "systolic array dimensions must be positive".into()
        }
    );
    assert_eq!(e.to_string(), "core 1: systolic array dimensions must be positive");
}

#[test]
fn no_channels() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.channels_per_core = 0;
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::NoChannels);
    assert_eq!(e.to_string(), "at least one channel per core required");
}

#[test]
fn invalid_dram() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.dram.queue_depth = 0;
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::InvalidDram("queue_depth must be positive".into()));
    assert_eq!(e.to_string(), "dram: queue_depth must be positive");
}

#[test]
fn invalid_mmu() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.mmu.tlb_assoc = 3; // 512 entries is not a multiple of 3
    let e = cfg.validate().unwrap_err();
    assert_eq!(
        e,
        ConfigError::InvalidMmu("TLB entries must be a multiple of associativity".into())
    );
    assert_eq!(e.to_string(), "mmu: TLB entries must be a multiple of associativity");
}

#[test]
fn invalid_noc() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.noc = Some(mnpu_noc::NocConfig { bytes_per_cycle: 0, hop_latency: 4 });
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::InvalidNoc("NoC bandwidth must be positive".into()));
    assert_eq!(e.to_string(), "noc: NoC bandwidth must be positive");
}

#[test]
fn partition_with_sharing() {
    // +D shares DRAM, so a static channel split contradicts the level.
    let mut cfg = base(2, SharingLevel::PlusD);
    cfg.channel_partition = Some(vec![4, 4]);
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::PartitionWithSharing { resource: "channel" });
    assert_eq!(e.to_string(), "channel partition requires a level that does not share channels");

    // +DW shares walkers likewise.
    let mut cfg = base(2, SharingLevel::PlusDw);
    cfg.ptw_partition = Some(vec![4, 4]);
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::PartitionWithSharing { resource: "ptw" });
    assert_eq!(e.to_string(), "ptw partition requires a level that does not share ptws");
}

#[test]
fn partition_length() {
    let mut cfg = base(2, SharingLevel::Static);
    cfg.channel_partition = Some(vec![8]);
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::PartitionLength { resource: "channel", expected: 2, got: 1 });
    assert_eq!(e.to_string(), "channel partition has 1 entries; need 2 (one per core)");
}

#[test]
fn partition_sum() {
    // A bench dual-core chip has 8 channels; 5 + 2 leaves one unowned.
    let mut cfg = base(2, SharingLevel::Static);
    cfg.channel_partition = Some(vec![5, 2]);
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::PartitionSum { expected: 8, got: 7 });
    assert_eq!(e.to_string(), "channel partition sums to 7; must sum to 8");
}

#[test]
fn partition_zero() {
    let mut cfg = base(2, SharingLevel::Static);
    cfg.channel_partition = Some(vec![8, 0]);
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::PartitionZero);
    assert_eq!(e.to_string(), "every core needs at least one channel");
}

#[test]
fn bounds_without_shared_pool() {
    let mut cfg = base(2, SharingLevel::Static);
    cfg.ptw_bounds = Some(mnpu_mmu::PtwBounds { min: vec![0, 0], max: vec![4, 4] });
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::BoundsWithoutSharedPool);
    assert_eq!(e.to_string(), "PTW bounds manage a shared pool; use a PTW-sharing level");
}

#[test]
fn start_cycles_length() {
    let mut cfg = base(2, SharingLevel::PlusDwt);
    cfg.start_cycles = vec![0, 100, 200];
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::StartCyclesLength { expected: 2, got: 3 });
    assert_eq!(e.to_string(), "start_cycles has 3 entries; must be empty or 2");
}

#[test]
fn zero_iterations() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.iterations = 0;
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::ZeroIterations);
    assert_eq!(e.to_string(), "iterations must be positive");
}

#[test]
fn zero_trace_window() {
    let mut cfg = base(1, SharingLevel::PlusDwt);
    cfg.trace_window = Some(0);
    let e = cfg.validate().unwrap_err();
    assert_eq!(e, ConfigError::ZeroTraceWindow);
    assert_eq!(e.to_string(), "trace_window must be positive");
}

#[test]
fn presets_build_clean() {
    for cores in [1, 2, 4] {
        for sharing in
            [SharingLevel::Static, SharingLevel::PlusD, SharingLevel::PlusDw, SharingLevel::PlusDwt]
        {
            assert!(base(cores, sharing).validate().is_ok(), "{cores} cores {sharing:?}");
        }
    }
}
