//! Protocol-level property tests: arbitrary interleavings of lookups,
//! walk starts and walk advances never leak walkers, never double-fill,
//! and keep statistics consistent; and the walker pool grants exactly what
//! its one rule allows.

use mnpu_mmu::{Mmu, MmuConfig, WalkId, WalkStart, WalkStep, WalkerPool};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Lookup(usize, u64),
    StartWalk(usize, u64),
    AdvanceOne,
}

fn arb_op(cores: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cores, 0u64..64).prop_map(|(c, v)| Op::Lookup(c, v)),
        (0..cores, 0u64..64).prop_map(|(c, v)| Op::StartWalk(c, v)),
        Just(Op::AdvanceOne),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn prop_walker_conservation(ops in proptest::collection::vec(arb_op(2), 1..200)) {
        let total = 4;
        let shared = WalkerPool::new(total, vec![0, 0], vec![total, total]);
        let mut mmu = Mmu::new(MmuConfig::bench(4096), false, shared, &[0, 1 << 32]);
        let mut in_flight: Vec<WalkId> = Vec::new();
        for op in ops {
            match op {
                Op::Lookup(c, v) => {
                    let _ = mmu.lookup(c, v);
                }
                Op::StartWalk(c, v) => match mmu.start_or_join_walk(c, v) {
                    WalkStart::Started { walk, .. } => in_flight.push(walk),
                    WalkStart::Joined(w) => prop_assert!(in_flight.contains(&w)),
                    WalkStart::NoWalker => {
                        prop_assert_eq!(in_flight.len(), total, "NoWalker only when exhausted");
                    }
                },
                Op::AdvanceOne => {
                    if let Some(w) = in_flight.last().copied() {
                        if let WalkStep::Done { .. } = mmu.advance_walk(w) {
                            in_flight.pop();
                        }
                    }
                }
            }
            prop_assert_eq!(mmu.walks_in_flight(), in_flight.len());
            prop_assert!(in_flight.len() <= total);
        }
        // Drain everything: every walker must come back.
        while let Some(w) = in_flight.last().copied() {
            if let WalkStep::Done { .. } = mmu.advance_walk(w) {
                in_flight.pop();
            }
        }
        prop_assert_eq!(mmu.free_walkers(0), total);
        prop_assert_eq!(mmu.walks_in_flight(), 0);
    }

    #[test]
    fn prop_completed_walks_hit_afterwards(vpns in proptest::collection::vec(0u64..1024, 1..32)) {
        let private = WalkerPool::new(8, vec![8], vec![8]);
        let mut mmu = Mmu::new(MmuConfig::neummu(65536), false, private, &[0]);
        for &v in &vpns {
            match mmu.start_or_join_walk(0, v) {
                WalkStart::Started { walk, .. } => loop {
                    if let WalkStep::Done { vpn, .. } = mmu.advance_walk(walk) {
                        prop_assert_eq!(vpn, v);
                        break;
                    }
                },
                WalkStart::Joined(_) => unreachable!("serial walks never join"),
                WalkStart::NoWalker => unreachable!("serial walks never exhaust"),
            }
            prop_assert!(mmu.lookup(0, v), "page resident after its walk");
        }
    }

    #[test]
    fn prop_stats_counters_consistent(vpns in proptest::collection::vec(0u64..16, 1..100)) {
        let private = WalkerPool::new(2, vec![2], vec![2]);
        let mut mmu = Mmu::new(MmuConfig::bench(4096), false, private, &[0]);
        for &v in &vpns {
            if !mmu.lookup(0, v) {
                if let WalkStart::Started { walk, .. } = mmu.start_or_join_walk(0, v) {
                    loop {
                        if matches!(mmu.advance_walk(walk), WalkStep::Done { .. }) {
                            break;
                        }
                    }
                }
            }
        }
        let s = mmu.stats(0);
        prop_assert_eq!(s.tlb_hits + s.tlb_misses, vpns.len() as u64);
        prop_assert!(s.walks <= s.tlb_misses);
        prop_assert!(s.walks >= 1);
    }
}

/// The pool grants exactly what the rule it documents grants when every
/// other core's unused reservation is summed afresh on each call: a core
/// gets a walker while it is under its maximum and the walkers neither
/// busy nor reserved for another core's minimum are not exhausted.
#[test]
fn pool_matches_the_summed_reservation_rule() {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: usize| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % n as u64) as usize
    };
    for _ in 0..200 {
        let cores = 1 + next(4);
        let total = cores + next(8);
        let mut min = vec![0; cores];
        for _ in 0..next(total + 1) {
            min[next(cores)] += 1;
        }
        let max: Vec<usize> = min.iter().map(|&lo| (lo + next(total + 1)).min(total)).collect();
        let mut pool = WalkerPool::new(total, min.clone(), max.clone());
        let mut held = vec![0usize; cores];
        for _ in 0..64 {
            let c = next(cores);
            let reserved: usize =
                (0..cores).filter(|&o| o != c).map(|o| min[o].saturating_sub(held[o])).sum();
            let room = total.saturating_sub(held.iter().sum::<usize>() + reserved);
            assert_eq!(pool.available(c), room.min(max[c] - held[c]));
            if next(3) == 0 && held[c] > 0 {
                pool.release(c);
                held[c] -= 1;
            } else {
                let grant = room > 0 && held[c] < max[c];
                assert_eq!(pool.try_acquire(c), grant);
                held[c] += usize::from(grant);
            }
        }
    }
}
