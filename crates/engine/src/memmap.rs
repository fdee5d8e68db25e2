//! Per-core physical memory: frame allocation and the virtual→physical map.
//!
//! Each core owns an equal slice of the chip's DRAM capacity (Table 2's
//! "capacity per NPU"). The top of the slice is reserved for the core's
//! page-table region (walk reads scatter there); the rest is a frame pool
//! allocated on first touch.

use mnpu_mmu::FxHashMap;

/// One core's page table: allocates physical frames on demand and maps
/// virtual pages to them.
///
/// This is the *mapping* half of translation; the MMU crate models the
/// *timing* half (TLB hits, walk latency). Frames are handed out linearly,
/// like a fresh NPU arena allocator.
///
/// ```
/// use mnpu_engine::PageTable;
///
/// let mut pt = PageTable::new(0x1000_0000, 64 << 20, 4096, 1 << 20);
/// let pa = pt.translate(0x5000_0123);
/// assert_eq!(pa % 4096, 0x123); // page offset preserved
/// assert_eq!(pt.translate(0x5000_0123), pa); // stable mapping
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    phys_base: u64,
    page_bytes: u64,
    frames: u64,
    next_frame: u64,
    /// Deterministic fast hasher: the map is probed once per transaction,
    /// and SipHash was measurable in sweep profiles (see
    /// [`mnpu_mmu::FxHasher`]).
    map: FxHashMap<u64, u64>,
    pt_region_base: u64,
}

impl PageTable {
    /// Create a page table owning `capacity` physical bytes at `phys_base`;
    /// the top `pt_region_bytes` are reserved for page-table storage.
    ///
    /// # Panics
    ///
    /// Panics if the page size is zero or the capacity cannot hold the
    /// page-table region plus at least one frame.
    pub fn new(phys_base: u64, capacity: u64, page_bytes: u64, pt_region_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        assert!(
            capacity > pt_region_bytes + page_bytes,
            "capacity {capacity} too small for page tables + one frame"
        );
        let usable = capacity - pt_region_bytes;
        PageTable {
            phys_base,
            page_bytes,
            frames: usable / page_bytes,
            next_frame: 0,
            map: FxHashMap::default(),
            pt_region_base: phys_base + usable,
        }
    }

    /// Physical base of the reserved page-table region (walk reads target
    /// addresses within it).
    pub fn pt_region_base(&self) -> u64 {
        self.pt_region_base
    }

    /// Translate a virtual address, allocating a frame on first touch.
    ///
    /// # Panics
    ///
    /// Panics when the core's physical capacity is exhausted (the workload
    /// footprint must fit its DRAM slice).
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        let vpn = vaddr / self.page_bytes;
        let offset = vaddr % self.page_bytes;
        let frame = match self.map.get(&vpn) {
            Some(&f) => f,
            None => {
                assert!(
                    self.next_frame < self.frames,
                    "physical capacity exhausted: {} frames of {} bytes",
                    self.frames,
                    self.page_bytes
                );
                let f = self.next_frame;
                self.next_frame += 1;
                self.map.insert(vpn, f);
                f
            }
        };
        self.phys_base + frame * self.page_bytes + offset
    }

    /// Number of frames allocated so far.
    pub fn allocated_frames(&self) -> u64 {
        self.next_frame
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Serialize the mutable mapping state (allocation cursor plus the
    /// virtual→frame map, in sorted VPN order so equal tables produce equal
    /// bytes). The geometry (base, page size, capacity) is excluded:
    /// restore targets a table built from the same configuration.
    pub fn save_state(&self, w: &mut mnpu_snapshot::Writer) {
        w.u64(self.next_frame);
        let mut entries: Vec<(u64, u64)> = self.map.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        w.seq(&entries, |w, &(vpn, frame)| {
            w.u64(vpn);
            w.u64(frame);
        });
    }

    /// Restore state saved by [`PageTable::save_state`].
    ///
    /// # Errors
    ///
    /// [`mnpu_snapshot::SnapError`] when the payload is malformed or the
    /// allocation state exceeds this table's capacity.
    pub fn load_state(
        &mut self,
        r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<(), mnpu_snapshot::SnapError> {
        let next_frame = r.u64()?;
        if next_frame > self.frames {
            return Err(mnpu_snapshot::SnapError::BadValue("page table overflows capacity"));
        }
        let entries = r.seq(|r| Ok((r.u64()?, r.u64()?)))?;
        if entries.len() as u64 != next_frame {
            return Err(mnpu_snapshot::SnapError::BadValue("page table map/cursor mismatch"));
        }
        self.next_frame = next_frame;
        self.map = entries.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PageTable {
        PageTable::new(1 << 30, 64 << 20, 4096, 1 << 20)
    }

    #[test]
    fn mapping_is_stable_and_offset_preserving() {
        let mut p = pt();
        let a = p.translate(0x1234_5678);
        assert_eq!(a, p.translate(0x1234_5678));
        assert_eq!(a % 4096, 0x678);
    }

    #[test]
    fn same_page_same_frame() {
        let mut p = pt();
        let a = p.translate(0x1000_0000);
        let b = p.translate(0x1000_0fff);
        assert_eq!(a / 4096, b / 4096);
        assert_eq!(p.allocated_frames(), 1);
    }

    #[test]
    fn distinct_pages_distinct_frames() {
        let mut p = pt();
        let a = p.translate(0x1000_0000);
        let b = p.translate(0x1000_1000);
        assert_ne!(a / 4096, b / 4096);
        assert_eq!(p.allocated_frames(), 2);
    }

    #[test]
    fn frames_stay_inside_partition() {
        let base = 1u64 << 30;
        let cap = 64 << 20;
        let mut p = PageTable::new(base, cap, 4096, 1 << 20);
        for i in 0..1000u64 {
            let a = p.translate(i * 4096 * 7 + 5);
            assert!(a >= base && a < base + cap - (1 << 20));
        }
        assert!(p.pt_region_base() >= base + cap - (1 << 20));
    }

    #[test]
    fn large_pages_fewer_frames() {
        let mut small = PageTable::new(0, 256 << 20, 4096, 1 << 20);
        let mut large = PageTable::new(0, 256 << 20, 1 << 20, 1 << 20);
        for i in 0..64u64 {
            let v = i * 65536;
            small.translate(v);
            large.translate(v);
        }
        assert!(large.allocated_frames() < small.allocated_frames());
    }

    #[test]
    #[should_panic(expected = "physical capacity exhausted")]
    fn exhaustion_panics() {
        let mut p = PageTable::new(0, 3 * 4096 + 1024, 4096, 0);
        for i in 0..10u64 {
            let _ = p.translate(i * 4096);
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_capacity_rejected() {
        let _ = PageTable::new(0, 4096, 4096, 0);
    }
}
