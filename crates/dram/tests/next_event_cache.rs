//! Property test for the memoized next-event path: after *any* interleaving
//! of `try_enqueue` and `advance`, the cached [`Dram::next_event`] must equal
//! a brute-force recomputation that rescans every channel's queue
//! (`Dram::next_event_uncached`). This is the invariant the whole event loop
//! leans on — a stale candidate cache would silently stall or reorder the
//! simulation rather than crash. The memo is not device state, so filling
//! it must also leave the device's checkpoint bytes as they were.

use mnpu_dram::{Dram, DramConfig, SchedPolicy, TRANSACTION_BYTES};
use proptest::prelude::*;

/// One scripted device operation, decoded from a generated tuple.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `try_enqueue` at the current cycle (full queues are fine — a
    /// rejected enqueue must not perturb the cache either).
    Enqueue { core: usize, addr: u64, is_write: bool },
    /// Jump the clock to the device's own next event and `advance`.
    AdvanceToNext,
    /// Jump the clock forward by an arbitrary stride and `advance` — large
    /// strides cross refresh deadlines and trigger idle-refresh catch-up.
    AdvanceBy { delta: u64 },
}

fn decode_op((kind, addr, delta): (u8, u64, u64)) -> Op {
    match kind {
        0 => Op::Enqueue { core: (addr % 3) as usize, addr, is_write: false },
        1 => Op::Enqueue { core: (addr % 3) as usize, addr, is_write: true },
        2 => Op::AdvanceToNext,
        // Stretch strides so some jumps overshoot tREFI (~thousands of
        // cycles) and some stay within a scheduling window.
        _ => Op::AdvanceBy { delta: delta * 37 },
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u64..(1 << 26), 0u64..512), 1..160)
        .prop_map(|raw| raw.into_iter().map(decode_op).collect())
}

/// Replay `ops`, checking the cached next-event answer against the
/// brute-force rescan after every single operation.
fn check(mut dram: Dram, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut now = 0u64;
    let mut meta = 0u64;
    for &op in ops {
        match op {
            Op::Enqueue { core, addr, is_write } => {
                let addr = addr / TRANSACTION_BYTES * TRANSACTION_BYTES;
                let _ = dram.try_enqueue(now, core, addr, is_write, meta);
                meta += 1;
            }
            Op::AdvanceToNext => {
                now = dram.next_event().unwrap_or(now + 1);
                let _ = dram.advance(now);
            }
            Op::AdvanceBy { delta } => {
                now += delta;
                let _ = dram.advance(now);
            }
        }
        prop_assert_eq!(
            dram.next_event(),
            dram.next_event_uncached(),
            "cached next_event diverged after {:?} at cycle {}",
            op,
            now
        );
    }
    // Drain to idle, still comparing at every event.
    while let Some(t) = dram.next_event() {
        now = t;
        let _ = dram.advance(now);
        prop_assert_eq!(dram.next_event(), dram.next_event_uncached());
    }
    prop_assert_eq!(dram.pending(), 0, "device must drain to idle");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// FR-FCFS, multi-channel: the policy whose reorder window the
    /// candidate cache actually memoizes.
    #[test]
    fn prop_cached_next_event_matches_bruteforce_frfcfs(ops in arb_ops()) {
        check(Dram::new(DramConfig::hbm2(4)), &ops)?;
    }

    /// FCFS keeps the head-of-queue pick; the cache must agree there too.
    #[test]
    fn prop_cached_next_event_matches_bruteforce_fcfs(ops in arb_ops()) {
        let mut cfg = DramConfig::hbm2(2);
        cfg.policy = SchedPolicy::Fcfs;
        check(Dram::new(cfg), &ops)?;
    }

    /// Single shallow-queue channel: enqueue rejections and queue-full
    /// backpressure happen constantly, exercising the "rejected enqueue
    /// leaves the cache untouched" path.
    #[test]
    fn prop_cached_next_event_matches_bruteforce_shallow(ops in arb_ops()) {
        let cfg = DramConfig { queue_depth: 4, ..DramConfig::hbm2(1) };
        check(Dram::new(cfg), &ops)?;
    }
}

/// A `next_event` query between an enqueue and a checkpoint refills the
/// earliest-action memo the enqueue marked stale; the checkpoint must not
/// see it, or equal devices would save unequal bytes.
#[test]
fn next_event_query_leaves_checkpoint_bytes_unchanged() {
    let save = |dram: &Dram| {
        let mut w = mnpu_snapshot::Writer::new();
        dram.save_state(&mut w);
        w.finish()
    };
    let mut dram = Dram::new(DramConfig::hbm2(4));
    for (meta, addr) in [0u64, 4096, 1 << 20].into_iter().enumerate() {
        dram.try_enqueue(0, 0, addr, false, meta as u64).expect("queue has room");
    }
    let before = save(&dram);
    assert!(dram.next_event().is_some());
    assert!(save(&dram) == before, "a next_event query changed the checkpoint bytes");
}
