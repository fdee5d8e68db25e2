//! Set-associative, LRU translation lookaside buffer.

/// A TLB entry: which address space and virtual page it caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    asid: u16,
    vpn: u64,
    last_use: u64,
}

/// A set-associative TLB with true-LRU replacement.
///
/// Entries are tagged with an address-space identifier so a shared TLB can
/// hold translations of several cores at once; the set index mixes the ASID
/// in so different cores' hot pages spread across sets (the paper notes the
/// set-index restriction matters for shared TLBs).
///
/// ```
/// use mnpu_mmu::Tlb;
///
/// let mut tlb = Tlb::new(64, 8);
/// assert!(!tlb.lookup(0, 7));
/// tlb.insert(0, 7);
/// assert!(tlb.lookup(0, 7));
/// assert!(!tlb.lookup(1, 7)); // other address space
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<Vec<Entry>>,
    assoc: usize,
    clock: u64,
}

impl Tlb {
    /// Create a TLB with `entries` total entries and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `assoc`.
    pub fn new(entries: u64, assoc: u64) -> Self {
        assert!(assoc > 0 && entries > 0, "TLB geometry must be positive");
        assert!(entries.is_multiple_of(assoc), "entries must be a multiple of associativity");
        let n_sets = (entries / assoc) as usize;
        Tlb {
            sets: vec![Vec::with_capacity(assoc as usize); n_sets],
            assoc: assoc as usize,
            clock: 0,
        }
    }

    fn set_index(&self, asid: u16, vpn: u64) -> usize {
        // Mix the ASID with a golden-ratio multiple so co-runners' identical
        // VPNs land in different sets of a shared TLB.
        let h = vpn ^ (u64::from(asid)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let n = self.sets.len() as u64;
        // The set count is a runtime value LLVM cannot strength-reduce, and
        // this runs once per translation; every stock geometry is a power of
        // two, so the mask path is the common case. Same result either way.
        let idx = if n.is_power_of_two() { h & (n - 1) } else { h % n };
        idx as usize
    }

    /// Probe for `(asid, vpn)`; a hit refreshes the entry's LRU age.
    pub fn lookup(&mut self, asid: u16, vpn: u64) -> bool {
        self.clock += 1;
        let idx = self.set_index(asid, vpn);
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.asid == asid && e.vpn == vpn) {
            e.last_use = self.clock;
            true
        } else {
            false
        }
    }

    /// Probe without disturbing LRU state.
    pub fn probe(&self, asid: u16, vpn: u64) -> bool {
        let idx = self.set_index(asid, vpn);
        self.sets[idx].iter().any(|e| e.asid == asid && e.vpn == vpn)
    }

    /// Insert `(asid, vpn)`, evicting the set's LRU entry if needed.
    ///
    /// Returns the `(asid, vpn)` of the evicted entry, or `None` when the
    /// insert refreshed an existing entry or filled a free way. Under a
    /// shared TLB the victim's ASID may differ from `asid` — that
    /// cross-core displacement is the thrashing signal the observability
    /// layer attributes to the victim's owner.
    pub fn insert(&mut self, asid: u16, vpn: u64) -> Option<(u16, u64)> {
        self.clock += 1;
        let idx = self.set_index(asid, vpn);
        let assoc = self.assoc;
        let clock = self.clock;
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.asid == asid && e.vpn == vpn) {
            e.last_use = clock;
            return None;
        }
        let entry = Entry { asid, vpn, last_use: clock };
        if set.len() < assoc {
            set.push(entry);
            None
        } else {
            let victim =
                set.iter_mut().min_by_key(|e| e.last_use).expect("set is non-empty at capacity");
            let evicted = (victim.asid, victim.vpn);
            *victim = entry;
            Some(evicted)
        }
    }

    /// Invalidate every entry of one address space (e.g. on workload swap).
    pub fn flush_asid(&mut self, asid: u16) {
        for set in &mut self.sets {
            set.retain(|e| e.asid != asid);
        }
    }

    /// Number of resident entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Serialize all mutable TLB state (resident entries in stored order,
    /// LRU clock). Geometry is excluded: restore targets a TLB built with
    /// the same `entries`/`assoc`.
    pub fn save_state(&self, w: &mut mnpu_snapshot::Writer) {
        w.seq(&self.sets, |w, set| {
            w.seq(set, |w, e| {
                w.u16(e.asid);
                w.u64(e.vpn);
                w.u64(e.last_use);
            });
        });
        w.u64(self.clock);
    }

    /// Restore state saved by [`Tlb::save_state`] into a TLB of the same
    /// geometry.
    ///
    /// # Errors
    ///
    /// [`mnpu_snapshot::SnapError`] when the payload is malformed or shaped
    /// for a different geometry.
    pub fn load_state(
        &mut self,
        r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<(), mnpu_snapshot::SnapError> {
        let sets =
            r.seq(|r| r.seq(|r| Ok(Entry { asid: r.u16()?, vpn: r.u64()?, last_use: r.u64()? })))?;
        if sets.len() != self.sets.len() || sets.iter().any(|s| s.len() > self.assoc) {
            return Err(mnpu_snapshot::SnapError::BadValue("TLB geometry mismatch"));
        }
        self.sets = sets;
        self.clock = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(16, 4);
        t.insert(0, 100);
        assert!(t.lookup(0, 100));
    }

    #[test]
    fn asid_isolates_address_spaces() {
        let mut t = Tlb::new(16, 4);
        t.insert(1, 100);
        assert!(!t.lookup(2, 100));
        assert!(t.lookup(1, 100));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct construction of one set: 1 set, 2 ways.
        let mut t = Tlb::new(2, 2);
        t.insert(0, 1);
        t.insert(0, 2);
        assert!(t.lookup(0, 1)); // touch 1; 2 becomes LRU
        t.insert(0, 3); // evicts 2
        assert!(t.probe(0, 1));
        assert!(!t.probe(0, 2));
        assert!(t.probe(0, 3));
    }

    #[test]
    fn insert_reports_victim() {
        let mut t = Tlb::new(2, 2);
        assert_eq!(t.insert(0, 1), None); // free way
        assert_eq!(t.insert(0, 2), None); // free way
        assert_eq!(t.insert(0, 1), None); // refresh in place
                                          // Both ways of the single set are full; the LRU entry (0, 2) goes.
        assert_eq!(t.insert(1, 9), Some((0, 2)));
        assert!(!t.probe(0, 2), "victim must be gone");
        assert!(t.probe(1, 9));
    }

    #[test]
    fn capacity_bounded() {
        let mut t = Tlb::new(64, 8);
        for vpn in 0..1000 {
            t.insert(0, vpn);
        }
        assert!(t.occupancy() <= 64);
    }

    #[test]
    fn flush_asid_removes_only_that_space() {
        let mut t = Tlb::new(64, 8);
        for vpn in 0..10 {
            t.insert(0, vpn);
            t.insert(1, vpn);
        }
        t.flush_asid(0);
        assert!(!t.probe(0, 5));
        assert!(t.probe(1, 5));
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut t = Tlb::new(256, 8);
        let ws: Vec<u64> = (0..100).collect();
        for &v in &ws {
            t.insert(0, v);
        }
        // Re-touch repeatedly: never a miss once resident.
        for _ in 0..10 {
            for &v in &ws {
                assert!(t.lookup(0, v));
            }
        }
    }

    #[test]
    fn low_associativity_conflicts_between_asids() {
        // Direct-mapped shared TLB: two address spaces with the same page
        // stream conflict far more than an 8-way one — the paper's §4.4.2
        // associativity observation.
        let stream: Vec<u64> = (0..64).collect();
        let run = |assoc: u64| {
            let mut t = Tlb::new(512, assoc);
            let mut misses = 0;
            for _ in 0..20 {
                for &v in &stream {
                    for asid in 0..4u16 {
                        if !t.lookup(asid, v) {
                            misses += 1;
                            t.insert(asid, v);
                        }
                    }
                }
            }
            misses
        };
        assert!(run(1) >= run(8));
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(10, 4);
    }

    proptest! {
        #[test]
        fn prop_occupancy_never_exceeds_capacity(ops in proptest::collection::vec((0u16..4, 0u64..512), 0..2000)) {
            let mut t = Tlb::new(128, 8);
            for (asid, vpn) in ops {
                if !t.lookup(asid, vpn) {
                    t.insert(asid, vpn);
                }
            }
            prop_assert!(t.occupancy() <= 128);
        }

        #[test]
        fn prop_insert_then_probe_hits(asid in 0u16..8, vpn in 0u64..(1 << 30)) {
            let mut t = Tlb::new(64, 8);
            t.insert(asid, vpn);
            prop_assert!(t.probe(asid, vpn));
        }
    }
}
