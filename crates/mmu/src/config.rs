//! MMU configuration (the paper's `npumem_config` + the PTW part of
//! `misc_config`).

/// Radix walk depth for a page size, following the ARM64 translation
/// granules the paper cites: 4 levels for 4 KB, 3 for 64 KB, 2 for 1 MB
/// sections.
///
/// # Panics
///
/// Panics on an unsupported page size.
pub fn walk_levels_for(page_bytes: u64) -> u32 {
    match page_bytes {
        4096 => 4,
        65536 => 3,
        1048576 => 2,
        _ => panic!("unsupported page size: {page_bytes} (use 4KB, 64KB or 1MB)"),
    }
}

/// Per-core lower/upper bounds on shared-pool walker occupancy — the
/// original `misc_config`'s "upper and lower bound of available PTWs per
/// core" (a DWS-style managed sharing policy).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PtwBounds {
    /// Guaranteed walkers per core (hard reservation).
    pub min: Vec<usize>,
    /// Maximum walkers any single core may hold.
    pub max: Vec<usize>,
}

/// Per-core MMU quantities for one multi-core NPU chip (the paper's
/// `npumem_config`). How cores share them — one chip-wide TLB or private
/// ones, and the [`WalkerPool`](crate::WalkerPool) — is given to
/// [`Mmu::new`](crate::Mmu::new) by its caller.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MmuConfig {
    /// TLB entries per core (Table 2: 2048). A shared TLB holds
    /// `cores * tlb_entries_per_core` entries.
    pub tlb_entries_per_core: u64,
    /// TLB associativity (Table 2: 8-way).
    pub tlb_assoc: u64,
    /// Page-table walkers per core (Table 2: 8).
    pub ptws_per_core: usize,
    /// Page size in bytes (4 KB, 64 KB or 1 MB).
    pub page_bytes: u64,
    /// Bytes of the per-core page-table region that walk accesses scatter
    /// over.
    pub pt_region_bytes: u64,
    /// Merge concurrent misses to the same page into one walk (MSHR-style;
    /// default). Disable for the ablation of DESIGN.md decision 3.
    pub coalesce_walks: bool,
}

impl MmuConfig {
    /// The NeuMMU-style configuration of Table 2 at the given page size:
    /// 2048 TLB entries / 8 walkers per core, 8-way.
    pub fn neummu(page_bytes: u64) -> Self {
        MmuConfig {
            tlb_entries_per_core: 2048,
            tlb_assoc: 8,
            ptws_per_core: 8,
            page_bytes,
            pt_region_bytes: 16 << 20,
            coalesce_walks: true,
        }
    }

    /// A proportionally smaller configuration for bench-scale sweeps:
    /// 512 TLB entries / 2 walkers per core (walker pressure scaled so the
    /// +DW gain tracks the cloud configuration).
    pub fn bench(page_bytes: u64) -> Self {
        MmuConfig {
            tlb_entries_per_core: 512,
            tlb_assoc: 8,
            ptws_per_core: 2,
            page_bytes,
            ..MmuConfig::neummu(page_bytes)
        }
    }

    /// Walk depth implied by the page size.
    pub fn walk_levels(&self) -> u32 {
        walk_levels_for(self.page_bytes)
    }

    /// Bytes of virtual address space one core's TLB can map at once
    /// (entries × page size). A workload whose touched pages fit within the
    /// reach can, absent cross-core interference, run without capacity
    /// evictions — the analytical TLB-reach bound.
    pub fn tlb_reach_bytes(&self) -> u64 {
        self.tlb_entries_per_core * self.page_bytes
    }

    /// Validate the per-core quantities (walker counts are checked with the
    /// chip's walker organization, by the engine's `SystemConfig::validate`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.tlb_entries_per_core == 0 || self.tlb_assoc == 0 {
            return Err("TLB geometry must be positive".into());
        }
        if !self.tlb_entries_per_core.is_multiple_of(self.tlb_assoc) {
            return Err("TLB entries must be a multiple of associativity".into());
        }
        if !matches!(self.page_bytes, 4096 | 65536 | 1048576) {
            return Err(format!("unsupported page size {}", self.page_bytes));
        }
        if self.pt_region_bytes < 4096 {
            return Err("pt_region_bytes too small".into());
        }
        Ok(())
    }
}

impl Default for MmuConfig {
    fn default() -> Self {
        MmuConfig::neummu(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_levels_match_arm64_granules() {
        assert_eq!(walk_levels_for(4096), 4);
        assert_eq!(walk_levels_for(65536), 3);
        assert_eq!(walk_levels_for(1 << 20), 2);
    }

    #[test]
    #[should_panic(expected = "unsupported page size")]
    fn odd_page_size_panics() {
        let _ = walk_levels_for(8192);
    }

    #[test]
    fn neummu_matches_table2() {
        let c = MmuConfig::neummu(4096);
        assert_eq!(c.tlb_entries_per_core, 2048);
        assert_eq!(c.tlb_assoc, 8);
        assert_eq!(c.ptws_per_core, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn tlb_reach_scales_with_page_size() {
        assert_eq!(MmuConfig::neummu(4096).tlb_reach_bytes(), 2048 * 4096);
        assert_eq!(MmuConfig::bench(65536).tlb_reach_bytes(), 512 * 65536);
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = MmuConfig::neummu(4096);

        let c = MmuConfig { tlb_entries_per_core: 100, ..base.clone() }; // not multiple of 8
        assert!(c.validate().is_err());

        let c = MmuConfig { page_bytes: 12345, ..base.clone() };
        assert!(c.validate().is_err());

        let c = MmuConfig { pt_region_bytes: 64, ..base };
        assert!(c.validate().is_err());
    }
}
