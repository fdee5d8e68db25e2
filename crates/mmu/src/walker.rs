//! Page-table walker pool: one allocation rule for every organization.

/// Allocates page-table walkers to cores under one rule: a pool of `total`
/// walkers in which core *c* is always guaranteed `min[c]` of them and may
/// never hold more than `max[c]`.
///
/// Every walker organization is a point on that spectrum:
///
/// * **private** (`Static`, `+D`) — `min = max = ptws_per_core`;
/// * **partitioned** (the Fig. 13/14 sweeps) — `min = max =` the per-core
///   counts, over a pool of their sum;
/// * **shared** (`+DW`, `+DWT`) — `min = 0`, `max = total`;
/// * **bounded** — anything in between: the original's `misc_config`
///   lower/upper PTW bounds, in the spirit of DWS page-walk stealing.
///
/// A core below its minimum always gets a walker. A core at or above it
/// gets one only while some walker is neither busy nor reserved for
/// another core's minimum.
///
/// ```
/// use mnpu_mmu::WalkerPool;
///
/// let mut pool = WalkerPool::new(2, vec![0, 0], vec![2, 2]); // 2 shared walkers
/// assert!(pool.try_acquire(0));
/// assert!(pool.try_acquire(1));
/// assert!(!pool.try_acquire(0)); // exhausted
/// pool.release(1);
/// assert!(pool.try_acquire(0)); // core 0 can reuse core 1's walker
/// ```
#[derive(Debug, Clone)]
pub struct WalkerPool {
    total: usize,
    min: Vec<usize>,
    max: Vec<usize>,
    /// Walkers each core holds.
    in_use: Vec<usize>,
    /// Walkers busy or held in reserve: the sum over cores of
    /// `max(in_use[c], min[c])`. Never exceeds `total`.
    claimed: usize,
}

impl WalkerPool {
    /// A pool of `total` walkers shared by `min.len()` cores, where core *c*
    /// is always guaranteed `min[c]` walkers and may never hold more than
    /// `max[c]`.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero, the vectors are empty or differ in
    /// length, any `min > max`, any `max > total`, or the minimums
    /// oversubscribe the pool.
    pub fn new(total: usize, min: Vec<usize>, max: Vec<usize>) -> Self {
        assert!(total > 0, "pool must have walkers");
        assert_eq!(min.len(), max.len(), "min/max lengths must match");
        assert!(!min.is_empty(), "at least one core");
        assert!(min.iter().zip(&max).all(|(lo, hi)| lo <= hi), "min must not exceed max");
        assert!(max.iter().all(|&hi| hi <= total), "max must not exceed the pool");
        let claimed = min.iter().sum();
        assert!(claimed <= total, "minimum reservations oversubscribe the pool");
        let in_use = vec![0; min.len()];
        WalkerPool { total, min, max, in_use, claimed }
    }

    /// Total walkers in the pool.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of cores the pool serves.
    pub(crate) fn cores(&self) -> usize {
        self.in_use.len()
    }

    /// Walkers currently available to `core`: the unclaimed walkers plus
    /// the rest of its own reservation, capped by its maximum.
    pub fn available(&self, core: usize) -> usize {
        let Some(&held) = self.in_use.get(core) else { return 0 };
        let room = self.total - self.claimed + self.min[core].saturating_sub(held);
        room.min(self.max[core] - held)
    }

    /// Try to reserve a walker for `core`; `true` on success.
    pub fn try_acquire(&mut self, core: usize) -> bool {
        let granted = self.in_use.get(core).is_some_and(|&held| {
            held < self.max[core] && (held < self.min[core] || self.claimed < self.total)
        });
        if !granted {
            return false;
        }
        if self.in_use[core] >= self.min[core] {
            self.claimed += 1;
        }
        self.in_use[core] += 1;
        true
    }

    /// Return a walker previously acquired for `core`.
    ///
    /// # Panics
    ///
    /// Panics if more walkers are released than were acquired.
    pub fn release(&mut self, core: usize) {
        assert!(self.in_use[core] > 0, "release without matching acquire");
        self.in_use[core] -= 1;
        if self.in_use[core] >= self.min[core] {
            self.claimed -= 1;
        }
    }

    /// Serialize all mutable pool state: the walkers each core holds. The
    /// total and bounds are excluded: restore targets a pool built with the
    /// same ones.
    pub fn save_state(&self, w: &mut mnpu_snapshot::Writer) {
        w.seq(&self.in_use, |w, &u| w.usize(u));
    }

    /// Restore state saved by [`WalkerPool::save_state`] into a pool built
    /// with the same total and bounds.
    ///
    /// # Errors
    ///
    /// [`mnpu_snapshot::SnapError`] when the payload is malformed or its
    /// occupancy does not fit this pool.
    pub fn load_state(
        &mut self,
        r: &mut mnpu_snapshot::Reader<'_>,
    ) -> Result<(), mnpu_snapshot::SnapError> {
        use mnpu_snapshot::SnapError;
        let in_use = r.seq(|r| r.usize())?;
        if in_use.len() != self.in_use.len() {
            return Err(SnapError::BadValue("walker pool core count mismatch"));
        }
        let claimed: usize = in_use.iter().zip(&self.min).map(|(&u, &lo)| u.max(lo)).sum();
        if claimed > self.total || in_use.iter().zip(&self.max).any(|(u, hi)| u > hi) {
            return Err(SnapError::BadValue("walker pool occupancy out of bounds"));
        }
        self.claimed = claimed;
        self.in_use = in_use;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_pools_are_isolated() {
        let mut p = WalkerPool::new(4, vec![2, 2], vec![2, 2]);
        assert!(p.try_acquire(0));
        assert!(p.try_acquire(0));
        assert!(!p.try_acquire(0), "core 0 exhausted its partition");
        assert_eq!(p.available(1), 2, "core 1 unaffected");
    }

    #[test]
    fn shared_pool_lets_one_core_use_all() {
        let mut p = WalkerPool::new(16, vec![0, 0], vec![16, 16]);
        for _ in 0..16 {
            assert!(p.try_acquire(0));
        }
        assert!(!p.try_acquire(1));
    }

    #[test]
    fn unequal_partition() {
        let mut p = WalkerPool::new(16, vec![2, 14], vec![2, 14]);
        assert_eq!(p.total(), 16);
        assert!(p.try_acquire(0));
        assert!(p.try_acquire(0));
        assert!(!p.try_acquire(0));
        for _ in 0..14 {
            assert!(p.try_acquire(1));
        }
        assert!(!p.try_acquire(1));
    }

    #[test]
    fn release_restores_capacity() {
        let mut p = WalkerPool::new(1, vec![1], vec![1]);
        assert!(p.try_acquire(0));
        p.release(0);
        assert!(p.try_acquire(0));
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn double_release_panics() {
        let mut p = WalkerPool::new(1, vec![1], vec![1]);
        p.release(0);
    }

    #[test]
    fn minimums_are_hard_reservations() {
        // 4 walkers, each core guaranteed 1, capped at 4.
        let mut p = WalkerPool::new(4, vec![1, 1], vec![4, 4]);
        // Core 0 tries to hog: it can take 3 (4 minus core 1's reserve)...
        assert!(p.try_acquire(0));
        assert!(p.try_acquire(0));
        assert!(p.try_acquire(0));
        // ...but not the 4th: one walker stays reserved for core 1.
        assert!(!p.try_acquire(0));
        // Core 1's guaranteed walker is immediately available.
        assert!(p.try_acquire(1));
        assert!(!p.try_acquire(1), "pool fully busy now");
    }

    #[test]
    fn maximums_cap_hogging() {
        let mut p = WalkerPool::new(8, vec![0, 0], vec![3, 8]);
        for _ in 0..3 {
            assert!(p.try_acquire(0));
        }
        assert!(!p.try_acquire(0), "core 0 capped at 3");
        for _ in 0..5 {
            assert!(p.try_acquire(1));
        }
        assert!(!p.try_acquire(1), "pool exhausted");
    }

    #[test]
    fn release_restores_bounded_capacity() {
        let mut p = WalkerPool::new(2, vec![1, 1], vec![2, 2]);
        assert!(p.try_acquire(0));
        assert!(p.try_acquire(1));
        p.release(0);
        // The freed walker returns to core 0's *reservation*: core 1 may
        // not steal it, even though its own max (2) would allow more.
        assert!(!p.try_acquire(1), "minimum reservations survive releases");
        assert_eq!(p.available(0), 1, "core 0's reserve is back");
        assert!(p.try_acquire(0));
    }

    #[test]
    fn available_accounts_for_reservations() {
        let p = WalkerPool::new(4, vec![1, 1], vec![4, 4]);
        // Idle pool: each core sees total minus the other's reserve.
        assert_eq!(p.available(0), 3);
        assert_eq!(p.available(1), 3);
    }

    #[test]
    fn equal_bounds_behave_like_partition() {
        // min == max == 2 per core is exactly a 2/2 static split.
        let mut p = WalkerPool::new(4, vec![2, 2], vec![2, 2]);
        assert!(p.try_acquire(0) && p.try_acquire(0));
        assert!(!p.try_acquire(0));
        assert!(p.try_acquire(1) && p.try_acquire(1));
        assert!(!p.try_acquire(1));
    }

    #[test]
    fn zero_min_full_max_behaves_like_shared() {
        let mut p = WalkerPool::new(4, vec![0, 0], vec![4, 4]);
        for _ in 0..4 {
            assert!(p.try_acquire(0));
        }
        assert!(!p.try_acquire(1));
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscribed_minimums_rejected() {
        let _ = WalkerPool::new(4, vec![3, 3], vec![4, 4]);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn inverted_bounds_rejected() {
        let _ = WalkerPool::new(4, vec![3, 0], vec![2, 4]);
    }
}
