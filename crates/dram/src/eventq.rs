//! Cheap event queues for monotone producers.
//!
//! The engine's NoC queues (both directions) are fed by one
//! `mnpu_noc::Crossbar` whose per-core links hand out *strictly
//! increasing* delivery times (each transfer advances the link's
//! `busy_until`; the crate's `prop_deliveries_monotone_per_link` property
//! pins this down). Pushing those deliveries into a `BinaryHeap` pays
//! `O(log n)` sift-up/down churn to maintain an ordering the producer
//! already guarantees per link. [`MonotonicQueue`] exploits it: one ring
//! buffer (`VecDeque`) per lane (= per core) absorbs in-order pushes at
//! `O(1)`, and the pop side takes the minimum across lane heads — a scan
//! over a handful of lanes, not a heap rebalance.
//!
//! The structure fits queues that are pushed and popped in comparable
//! volume. It is *not* used for the device's own in-flight burst buffer:
//! that one is peeked on every tick, and a heap peek is a single load
//! where the lane scan is O(lanes).
//!
//! Contention only strengthens the invariant: link occupancy and bus
//! history only ever grow, so even a congested producer stays monotone
//! per lane. Should a future backend violate that, the queue degrades
//! gracefully instead of corrupting order: a push that lands behind its
//! lane's tail goes to a sorted `overflow` heap that competes in the same
//! min-scan. Ordering is decided by `T`'s full `Ord` — the exact tuples
//! the replaced `BinaryHeap<Reverse<T>>` ordered by — so pop order (ties
//! included) is bit-identical to the heap it replaces.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A min-queue specialized for producers that push in nondecreasing order
/// per lane. See the module-level docs for the design rationale.
#[derive(Debug, Clone)]
pub struct MonotonicQueue<T: Ord + Copy> {
    lanes: Vec<VecDeque<T>>,
    /// Safety net for out-of-order pushes; empty in every current backend.
    overflow: BinaryHeap<Reverse<T>>,
    len: usize,
}

impl<T: Ord + Copy> MonotonicQueue<T> {
    /// A queue with `lanes` independent in-order producers.
    pub fn new(lanes: usize) -> Self {
        MonotonicQueue {
            lanes: vec![VecDeque::new(); lanes.max(1)],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Push `item` produced by `lane`. `O(1)` when the lane is monotone
    /// (the invariant); falls back to the overflow heap otherwise.
    pub fn push(&mut self, lane: usize, item: T) {
        let q = &mut self.lanes[lane];
        match q.back() {
            Some(back) if *back > item => self.overflow.push(Reverse(item)),
            _ => q.push_back(item),
        }
        self.len += 1;
    }

    /// The minimum element, if any. An empty queue answers without
    /// scanning its lanes.
    pub fn peek(&self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<&T> = self.overflow.peek().map(|Reverse(t)| t);
        for q in &self.lanes {
            if let Some(front) = q.front() {
                if best.is_none_or(|b| front < b) {
                    best = Some(front);
                }
            }
        }
        best
    }

    /// Remove and return the minimum element. An empty queue answers
    /// without scanning its lanes.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(usize, T)> = self.overflow.peek().map(|&Reverse(t)| (usize::MAX, t));
        for (i, q) in self.lanes.iter().enumerate() {
            if let Some(&front) = q.front() {
                if best.is_none_or(|(_, b)| front < b) {
                    best = Some((i, front));
                }
            }
        }
        let (src, _) = best?;
        self.len -= 1;
        if src == usize::MAX {
            self.overflow.pop().map(|Reverse(t)| t)
        } else {
            self.lanes[src].pop_front()
        }
    }

    /// The queued elements as a sorted multiset — the snapshot form.
    ///
    /// Pop order (ties included) is decided by `T`'s full `Ord` over the
    /// queue's *contents*, never by lane assignment, so rebuilding a queue
    /// by pushing these elements in order into any single lane is
    /// observationally exact (the pushes are monotone, so none overflow).
    pub fn snapshot_items(&self) -> Vec<T> {
        let mut items: Vec<T> = self.lanes.iter().flatten().copied().collect();
        items.extend(self.overflow.iter().map(|Reverse(t)| *t));
        items.sort_unstable();
        items
    }

    /// Number of queued elements across all lanes and the overflow heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no element is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_global_order_across_lanes() {
        let mut q = MonotonicQueue::new(2);
        q.push(0, (10u64, 0usize));
        q.push(1, (5, 1));
        q.push(0, (20, 0));
        q.push(1, (15, 1));
        assert_eq!(q.len(), 4);
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![(5, 1), (10, 0), (15, 1), (20, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_resolve_by_full_tuple_like_a_heap() {
        // Same timestamp in two lanes: the full tuple decides, exactly as
        // BinaryHeap<Reverse<T>> would order the same elements.
        let mut q = MonotonicQueue::new(3);
        q.push(2, (7u64, 9u64, 2usize));
        q.push(0, (7, 3, 0));
        q.push(1, (7, 5, 1));
        assert_eq!(q.pop(), Some((7, 3, 0)));
        assert_eq!(q.pop(), Some((7, 5, 1)));
        assert_eq!(q.pop(), Some((7, 9, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn out_of_order_push_lands_in_overflow_and_still_sorts() {
        let mut q = MonotonicQueue::new(1);
        q.push(0, (10u64, 0usize));
        q.push(0, (3, 0)); // violates lane monotonicity -> overflow
        q.push(0, (12, 0));
        assert_eq!(q.peek(), Some(&(3, 0)));
        assert_eq!(q.pop(), Some((3, 0)));
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((12, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = MonotonicQueue::<(u64, usize)>::new(0); // clamps to 1 lane
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
        q.push(0, (1, 0));
        assert_eq!(q.pop(), Some((1, 0)));
        // Drained again, across several lanes: empty answers, no count drift.
        let mut q = MonotonicQueue::<(u64, usize)>::new(4);
        q.push(3, (2, 3));
        q.push(1, (1, 1));
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((2, 3)));
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }
}
