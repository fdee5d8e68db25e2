//! The MMU façade: TLB lookups, walk lifecycle, coalescing.

use crate::config::MmuConfig;
use crate::fxhash::FxHashMap;
use crate::tlb::Tlb;
use crate::walker::WalkerPool;

/// Identifier of an in-flight page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WalkId(u64);

impl WalkId {
    /// The raw id, usable as a request tag.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a `WalkId` from a tag produced by [`WalkId::raw`].
    pub fn from_raw(raw: u64) -> Self {
        WalkId(raw)
    }
}

/// Outcome of [`Mmu::start_or_join_walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStart {
    /// A walker was acquired; the engine must read `pt_addr` through DRAM,
    /// then call [`Mmu::advance_walk`].
    Started {
        /// The new walk's id.
        walk: WalkId,
        /// Physical address of the first page-table access.
        pt_addr: u64,
    },
    /// A walk for this page is already in flight; wait for it to finish.
    Joined(WalkId),
    /// No walker is free for this core; retry when one is released.
    NoWalker,
}

/// Outcome of [`Mmu::advance_walk`] after a page-table access completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStep {
    /// Another level remains: read this physical address next.
    Access(u64),
    /// The walk finished; the TLB has been filled and the walker released.
    Done {
        /// Core that owned the walk.
        core: usize,
        /// Virtual page number now resident in the TLB.
        vpn: u64,
    },
}

#[derive(Debug, Clone)]
struct Walk {
    core: usize,
    vpn: u64,
    levels_left: u32,
}

/// Per-core MMU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// TLB lookup hits.
    pub tlb_hits: u64,
    /// TLB lookup misses.
    pub tlb_misses: u64,
    /// Walks started (one per missing page, after coalescing).
    pub walks: u64,
    /// Misses that joined an in-flight walk instead of starting one.
    pub coalesced: u64,
    /// Walk attempts deferred because no walker was free.
    pub walker_stalls: u64,
    /// This core's TLB entries displaced by an insert (by any core, under a
    /// shared TLB — the cross-core thrashing signal). Reported through the
    /// observability layer, not the legacy JSON report.
    pub tlb_evictions: u64,
}

impl MmuStats {
    /// TLB hit rate in `[0, 1]`.
    pub fn tlb_hit_rate(&self) -> f64 {
        let t = self.tlb_hits + self.tlb_misses;
        if t == 0 {
            return 0.0;
        }
        self.tlb_hits as f64 / t as f64
    }
}

/// The chip-level MMU: per-core or shared TLBs, a walker pool, and the
/// in-flight walk table. See the [crate docs](crate) for the protocol.
#[derive(Debug, Clone)]
pub struct Mmu {
    config: MmuConfig,
    cores: usize,
    /// One TLB per core, or a single chip-wide one (`+DWT`).
    tlbs: Vec<Tlb>,
    shared_tlb: bool,
    walkers: WalkerPool,
    walks: FxHashMap<u64, Walk>,
    active_by_page: FxHashMap<(u16, u64), WalkId>,
    next_walk_id: u64,
    pt_bases: Vec<u64>,
    stats: Vec<MmuStats>,
    /// The `(owner_asid, vpn)` displaced by the most recent TLB fill, kept
    /// until [`Mmu::take_last_eviction`] collects it for the probe layer.
    /// A mailbox, not state: checkpoints leave it out and restore empties it.
    last_eviction: Option<(u16, u64)>,
}

impl Mmu {
    /// Build the MMU for `pt_bases.len()` cores: `pt_bases[c]` is the
    /// physical base of core *c*'s page-table region (walk reads scatter
    /// within `config.pt_region_bytes` of it). The caller chooses the
    /// organization: one chip-wide TLB of `cores * tlb_entries_per_core`
    /// entries when `shared_tlb`, else one per core, and the walker pool.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MmuConfig::validate`] or
    /// `pt_bases.len()` differs from the pool's core count.
    pub fn new(config: MmuConfig, shared_tlb: bool, walkers: WalkerPool, pt_bases: &[u64]) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid MMU config: {e}");
        }
        let cores = pt_bases.len();
        assert_eq!(walkers.cores(), cores, "one page-table base per pool core");
        let tlbs = if shared_tlb {
            vec![Tlb::new(config.tlb_entries_per_core * cores as u64, config.tlb_assoc)]
        } else {
            (0..cores).map(|_| Tlb::new(config.tlb_entries_per_core, config.tlb_assoc)).collect()
        };
        Mmu {
            cores,
            tlbs,
            shared_tlb,
            walkers,
            walks: FxHashMap::default(),
            active_by_page: FxHashMap::default(),
            next_walk_id: 0,
            pt_bases: pt_bases.to_vec(),
            stats: vec![MmuStats::default(); cores],
            last_eviction: None,
            config,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.config.page_bytes
    }

    /// Virtual page number of `vaddr`.
    pub fn vpn_of(&self, vaddr: u64) -> u64 {
        vaddr / self.config.page_bytes
    }

    fn tlb_of(&mut self, core: usize) -> &mut Tlb {
        &mut self.tlbs[if self.shared_tlb { 0 } else { core }]
    }

    /// Probe the TLB for `(core, vpn)` without updating LRU state or
    /// statistics (used to re-check parked transactions whose page may have
    /// become resident through another walk).
    pub fn probe(&self, core: usize, vpn: u64) -> bool {
        self.tlbs[if self.shared_tlb { 0 } else { core }].probe(core as u16, vpn)
    }

    /// Probe the TLB for `(core, vpn)`; returns `true` on a hit. Updates
    /// LRU and statistics.
    pub fn lookup(&mut self, core: usize, vpn: u64) -> bool {
        debug_assert!(core < self.cores);
        let hit = self.tlb_of(core).lookup(core as u16, vpn);
        if hit {
            self.stats[core].tlb_hits += 1;
        } else {
            self.stats[core].tlb_misses += 1;
        }
        hit
    }

    /// After a miss: start a walk, join an in-flight one, or report walker
    /// exhaustion.
    pub fn start_or_join_walk(&mut self, core: usize, vpn: u64) -> WalkStart {
        self.start_walk_inner(core, vpn, true)
    }

    /// Like [`Mmu::start_or_join_walk`] but without counting a walker stall:
    /// used when *retrying* a previously stalled walk, so the stall counter
    /// reflects transactions that waited rather than retry attempts.
    pub fn retry_walk(&mut self, core: usize, vpn: u64) -> WalkStart {
        self.start_walk_inner(core, vpn, false)
    }

    fn start_walk_inner(&mut self, core: usize, vpn: u64, count_stall: bool) -> WalkStart {
        debug_assert!(core < self.cores);
        if self.config.coalesce_walks {
            if let Some(&id) = self.active_by_page.get(&(core as u16, vpn)) {
                self.stats[core].coalesced += 1;
                return WalkStart::Joined(id);
            }
        }
        if !self.walkers.try_acquire(core) {
            if count_stall {
                self.stats[core].walker_stalls += 1;
            }
            return WalkStart::NoWalker;
        }
        let id = WalkId(self.next_walk_id);
        self.next_walk_id += 1;
        let levels = self.config.walk_levels();
        self.walks.insert(id.raw(), Walk { core, vpn, levels_left: levels });
        if self.config.coalesce_walks {
            self.active_by_page.insert((core as u16, vpn), id);
        }
        self.stats[core].walks += 1;
        WalkStart::Started { walk: id, pt_addr: self.pt_access_addr(core, vpn, levels) }
    }

    /// Notify the MMU that the current page-table access of `walk` finished.
    /// Returns the next access, or `Done` after the last level (at which
    /// point the TLB is filled and the walker released).
    ///
    /// # Panics
    ///
    /// Panics if `walk` is not in flight.
    pub fn advance_walk(&mut self, walk: WalkId) -> WalkStep {
        let w = self.walks.get_mut(&walk.raw()).expect("walk in flight");
        w.levels_left -= 1;
        if w.levels_left > 0 {
            let (core, vpn, left) = (w.core, w.vpn, w.levels_left);
            return WalkStep::Access(self.pt_access_addr(core, vpn, left));
        }
        let w = self.walks.remove(&walk.raw()).expect("walk in flight");
        if self.active_by_page.get(&(w.core as u16, w.vpn)) == Some(&walk) {
            self.active_by_page.remove(&(w.core as u16, w.vpn));
        }
        if let Some(victim) = self.tlb_of(w.core).insert(w.core as u16, w.vpn) {
            self.stats[victim.0 as usize].tlb_evictions += 1;
            self.last_eviction = Some(victim);
        }
        self.walkers.release(w.core);
        WalkStep::Done { core: w.core, vpn: w.vpn }
    }

    /// The `(owner_asid, vpn)` evicted by the most recent TLB fill, if any,
    /// consuming it. The engine polls this after a [`WalkStep::Done`] to
    /// emit the probe's eviction event without widening `WalkStep`.
    pub fn take_last_eviction(&mut self) -> Option<(u16, u64)> {
        self.last_eviction.take()
    }

    /// Physical address of the page-table entry read at `level`
    /// (levels count down to 1). Entries scatter pseudo-randomly across the
    /// core's page-table region so walk reads exercise many DRAM rows, as
    /// real multi-level tables do.
    fn pt_access_addr(&self, core: usize, vpn: u64, level: u32) -> u64 {
        let slots = self.config.pt_region_bytes / 64;
        // Index bits of this level: radix-512 per level (9 bits), like x86/ARM.
        let prefix = vpn >> (9 * (level - 1));
        let h = prefix
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(level).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        self.pt_bases[core] + (h % slots) * 64
    }

    /// Walkers currently free for `core`.
    pub fn free_walkers(&self, core: usize) -> usize {
        self.walkers.available(core)
    }

    /// Number of walks currently in flight.
    pub fn walks_in_flight(&self) -> usize {
        self.walks.len()
    }

    /// Invalidate every TLB entry belonging to `core`'s address space, as
    /// on a workload swap. With a shared TLB only that core's entries are
    /// dropped; other cores' translations survive. Statistics are *not*
    /// reset — they accumulate over the core's lifetime, across bindings.
    ///
    /// # Panics
    ///
    /// Panics if `core` has a page-table walk in flight: the caller must
    /// quiesce the core before rebinding it.
    pub fn flush_core(&mut self, core: usize) {
        assert!(
            !self.walks.values().any(|w| w.core == core),
            "cannot flush core {core}: walk in flight"
        );
        self.tlb_of(core).flush_asid(core as u16);
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> &MmuStats {
        &self.stats[core]
    }

    /// Serialize all mutable MMU state: TLB contents, walker occupancy,
    /// in-flight walks and the coalescing table (both in sorted key order —
    /// their map iteration order is never behaviorally observed), the walk
    /// id counter and per-core stats. Configuration, core count and
    /// page-table bases are excluded: restore targets an MMU built from the
    /// same inputs.
    pub fn save_state(&self, w: &mut mnpu_snapshot::Writer) {
        w.tag(0xE0);
        w.seq(&self.tlbs, |w, t| t.save_state(w));
        self.walkers.save_state(w);
        let mut walks: Vec<(&u64, &Walk)> = self.walks.iter().collect();
        walks.sort_unstable_by_key(|(id, _)| **id);
        w.seq(&walks, |w, (id, walk)| {
            w.u64(**id);
            w.usize(walk.core);
            w.u64(walk.vpn);
            w.u32(walk.levels_left);
        });
        let mut active: Vec<(&(u16, u64), &WalkId)> = self.active_by_page.iter().collect();
        active.sort_unstable_by_key(|(k, _)| **k);
        w.seq(&active, |w, (&(asid, vpn), id)| {
            w.u16(asid);
            w.u64(vpn);
            w.u64(id.raw());
        });
        w.u64(self.next_walk_id);
        w.seq(&self.stats, |w, s| {
            w.u64(s.tlb_hits);
            w.u64(s.tlb_misses);
            w.u64(s.walks);
            w.u64(s.coalesced);
            w.u64(s.walker_stalls);
            w.u64(s.tlb_evictions);
        });
    }

    /// Restore state saved by [`Mmu::save_state`] into an MMU built from
    /// the same configuration.
    ///
    /// # Errors
    ///
    /// [`mnpu_snapshot::SnapError`] when the payload is malformed or shaped
    /// for a different MMU organization.
    pub fn load_state(
        &mut self,
        r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<(), mnpu_snapshot::SnapError> {
        use mnpu_snapshot::SnapError;
        r.tag(0xE0)?;
        let n_tlbs = r.usize()?;
        if n_tlbs != self.tlbs.len() {
            return Err(SnapError::BadValue("TLB count mismatch"));
        }
        for t in &mut self.tlbs {
            t.load_state(r)?;
        }
        self.walkers.load_state(r)?;
        let walks = r.seq(|r| {
            Ok((r.u64()?, Walk { core: r.usize()?, vpn: r.u64()?, levels_left: r.u32()? }))
        })?;
        if walks.iter().any(|(_, w)| w.core >= self.cores || w.levels_left == 0) {
            return Err(SnapError::BadValue("in-flight walk out of range"));
        }
        self.walks = walks.into_iter().collect();
        let active = r.seq(|r| Ok(((r.u16()?, r.u64()?), WalkId(r.u64()?))))?;
        self.active_by_page = active.into_iter().collect();
        self.next_walk_id = r.u64()?;
        let stats = r.seq(|r| {
            Ok(MmuStats {
                tlb_hits: r.u64()?,
                tlb_misses: r.u64()?,
                walks: r.u64()?,
                coalesced: r.u64()?,
                walker_stalls: r.u64()?,
                tlb_evictions: r.u64()?,
            })
        })?;
        if stats.len() != self.cores {
            return Err(SnapError::BadValue("MMU stats core count mismatch"));
        }
        self.stats = stats;
        self.last_eviction = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu_with(cfg: MmuConfig, cores: usize, shared_tlb: bool, walkers: WalkerPool) -> Mmu {
        let bases: Vec<u64> = (0..cores as u64).map(|c| c << 32).collect();
        Mmu::new(cfg, shared_tlb, walkers, &bases)
    }

    /// Private TLBs and `ptws_per_core` private walkers per core.
    fn mmu(cfg: MmuConfig, cores: usize) -> Mmu {
        let n = cfg.ptws_per_core;
        mmu_with(cfg, cores, false, WalkerPool::new(n * cores, vec![n; cores], vec![n; cores]))
    }

    fn run_walk(m: &mut Mmu, walk: WalkId) -> (usize, u64, u32) {
        let mut accesses = 1; // the initial pt_addr from Started
        loop {
            match m.advance_walk(walk) {
                WalkStep::Access(_) => accesses += 1,
                WalkStep::Done { core, vpn } => return (core, vpn, accesses),
            }
        }
    }

    #[test]
    fn walk_fills_tlb() {
        let mut m = mmu(MmuConfig::neummu(4096), 1);
        assert!(!m.lookup(0, 5));
        let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, 5) else { panic!() };
        let (core, vpn, accesses) = run_walk(&mut m, walk);
        assert_eq!((core, vpn), (0, 5));
        assert_eq!(accesses, 4, "4KB pages walk 4 levels");
        assert!(m.lookup(0, 5));
        assert_eq!(m.free_walkers(0), 8);
    }

    #[test]
    fn larger_pages_walk_fewer_levels() {
        for (page, levels) in [(4096u64, 4u32), (65536, 3), (1 << 20, 2)] {
            let mut m = mmu(MmuConfig::neummu(page), 1);
            let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, 9) else { panic!() };
            let (_, _, accesses) = run_walk(&mut m, walk);
            assert_eq!(accesses, levels, "page {page}");
        }
    }

    #[test]
    fn concurrent_misses_coalesce() {
        let mut m = mmu(MmuConfig::neummu(4096), 1);
        let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, 7) else { panic!() };
        assert_eq!(m.start_or_join_walk(0, 7), WalkStart::Joined(walk));
        assert_eq!(m.stats(0).coalesced, 1);
        assert_eq!(m.stats(0).walks, 1);
        // Only one walker consumed.
        assert_eq!(m.free_walkers(0), 7);
        let _ = run_walk(&mut m, walk);
    }

    #[test]
    fn walker_exhaustion_reports_no_walker() {
        let cfg = MmuConfig { ptws_per_core: 2, ..MmuConfig::neummu(4096) };
        let mut m = mmu(cfg, 1);
        let WalkStart::Started { .. } = m.start_or_join_walk(0, 1) else { panic!() };
        let WalkStart::Started { .. } = m.start_or_join_walk(0, 2) else { panic!() };
        assert_eq!(m.start_or_join_walk(0, 3), WalkStart::NoWalker);
        assert_eq!(m.stats(0).walker_stalls, 1);
    }

    #[test]
    fn shared_pool_multiplies_per_core_walkers() {
        let shared = WalkerPool::new(16, vec![0, 0], vec![16, 16]);
        let mut m = mmu_with(MmuConfig::neummu(4096), 2, false, shared);
        // Core 0 can take all 16 walkers when core 1 is idle.
        for vpn in 0..16 {
            assert!(matches!(m.start_or_join_walk(0, vpn), WalkStart::Started { .. }), "vpn {vpn}");
        }
        assert_eq!(m.start_or_join_walk(0, 99), WalkStart::NoWalker);
        assert_eq!(m.start_or_join_walk(1, 0), WalkStart::NoWalker);
    }

    #[test]
    fn private_tlbs_do_not_share_capacity() {
        let mut m = mmu(MmuConfig::neummu(4096), 2);
        // Fill core 0's TLB; core 1's stays empty.
        for vpn in 0..100 {
            let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, vpn) else { panic!() };
            let _ = run_walk(&mut m, walk);
        }
        assert!(m.lookup(0, 50));
        assert!(!m.lookup(1, 50));
    }

    #[test]
    fn shared_tlb_holds_both_cores() {
        let private = WalkerPool::new(16, vec![8, 8], vec![8, 8]);
        let mut m = mmu_with(MmuConfig::neummu(4096), 2, true, private);
        let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, 11) else { panic!() };
        let _ = run_walk(&mut m, walk);
        let WalkStart::Started { walk, .. } = m.start_or_join_walk(1, 11) else { panic!() };
        let _ = run_walk(&mut m, walk);
        assert!(m.lookup(0, 11));
        assert!(m.lookup(1, 11));
    }

    #[test]
    fn pt_accesses_stay_in_core_region() {
        let cfg = MmuConfig::neummu(4096);
        let region = cfg.pt_region_bytes;
        let mut m = mmu(cfg, 2);
        for vpn in [0u64, 1, 1000, 123_456_789] {
            let WalkStart::Started { walk, pt_addr } = m.start_or_join_walk(1, vpn) else {
                panic!()
            };
            let base = 1u64 << 32;
            assert!(pt_addr >= base && pt_addr < base + region);
            let mut step = m.advance_walk(walk);
            while let WalkStep::Access(a) = step {
                assert!(a >= base && a < base + region);
                step = m.advance_walk(walk);
            }
        }
    }

    #[test]
    fn stats_hit_rate() {
        let mut m = mmu(MmuConfig::neummu(4096), 1);
        let _ = m.lookup(0, 1); // miss
        let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, 1) else { panic!() };
        let _ = run_walk(&mut m, walk);
        let _ = m.lookup(0, 1); // hit
        assert!((m.stats(0).tlb_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "walk in flight")]
    fn advancing_finished_walk_panics() {
        let mut m = mmu(MmuConfig::neummu(1 << 20), 1);
        let WalkStart::Started { walk, .. } = m.start_or_join_walk(0, 1) else { panic!() };
        let _ = run_walk(&mut m, walk);
        let _ = m.advance_walk(walk);
    }
}

#[cfg(test)]
mod coalescing_tests {
    use super::*;
    use crate::config::MmuConfig;

    #[test]
    fn disabled_coalescing_walks_every_miss() {
        let cfg = MmuConfig { coalesce_walks: false, ..MmuConfig::neummu(4096) };
        let mut m = Mmu::new(cfg, false, WalkerPool::new(8, vec![8], vec![8]), &[0]);
        let WalkStart::Started { .. } = m.start_or_join_walk(0, 7) else { panic!() };
        // Same page again: a second full walk, not a join.
        assert!(matches!(m.start_or_join_walk(0, 7), WalkStart::Started { .. }));
        assert_eq!(m.stats(0).walks, 2);
        assert_eq!(m.stats(0).coalesced, 0);
        assert_eq!(m.free_walkers(0), 6);
    }

    #[test]
    fn uncoalesced_duplicate_walks_both_complete() {
        let cfg = MmuConfig { coalesce_walks: false, ..MmuConfig::neummu(1 << 20) };
        let mut m = Mmu::new(cfg, false, WalkerPool::new(8, vec![8], vec![8]), &[0]);
        let WalkStart::Started { walk: w1, .. } = m.start_or_join_walk(0, 3) else { panic!() };
        let WalkStart::Started { walk: w2, .. } = m.start_or_join_walk(0, 3) else { panic!() };
        assert_ne!(w1, w2);
        for w in [w1, w2] {
            loop {
                if let WalkStep::Done { vpn, .. } = m.advance_walk(w) {
                    assert_eq!(vpn, 3);
                    break;
                }
            }
        }
        assert_eq!(m.free_walkers(0), 8, "both walkers released");
        assert!(m.lookup(0, 3));
    }
}
