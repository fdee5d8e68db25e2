//! Checkpoint/restore fencing: snapshot-at-cycle-k-then-resume must yield a
//! byte-identical report for *arbitrary* k, across probe modes, memory
//! models, NoC on/off, request logging, DRAM fast-forward on/off, and
//! sharing levels — plus the serialization round-trip, the loud failure
//! modes, and the shadow-MMU warm-start equivalence behind prefix sharing.

use mnpu_engine::{
    Advance, SharingLevel, SimSnapshot, Simulation, SnapError, SystemConfig, SNAPSHOT_VERSION,
};
use mnpu_model::{zoo, Network, Scale};
use mnpu_systolic::WorkloadTrace;
use proptest::prelude::*;

fn nets() -> Vec<Network> {
    vec![zoo::ncf(Scale::Bench), zoo::dlrm(Scale::Bench)]
}

fn traces_for(cfg: &SystemConfig) -> Vec<WorkloadTrace> {
    nets().iter().zip(&cfg.arch).map(|(n, a)| WorkloadTrace::generate(n, a)).collect()
}

/// Step until a scheduler decision point, swallowing finish notifications
/// (which only flip bookkeeping and never change simulated state).
fn drive_to<P: mnpu_engine::Probe>(sim: &mut Simulation<P>, stop: u64) -> Advance {
    loop {
        match sim.advance(stop) {
            Advance::CoreFinished { .. } => continue,
            outcome => return outcome,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The tentpole lockstep law at the engine level: for an arbitrary
    /// checkpoint cycle and an arbitrary configuration corner,
    /// `execute_checkpointed` (run to k → snapshot → restore into a fresh
    /// simulation → finish) equals `execute` byte-for-byte.
    #[test]
    fn prop_checkpoint_resume_is_byte_exact(
        k_frac in 0u64..=1000,
        sharing_sel in 0u8..3,
        fastfwd in 0u8..2,
        with_noc in 0u8..2,
        with_log in 0u8..2,
        stats_probe in 0u8..2,
        ideal_mem in 0u8..2,
    ) {
        let sharing = match sharing_sel {
            0 => SharingLevel::PlusDwt,
            1 => SharingLevel::PlusD,
            _ => SharingLevel::Static,
        };
        let mut cfg = SystemConfig::bench(2, sharing);
        cfg.dram.fastfwd = fastfwd == 1;
        if with_noc == 1 {
            cfg = cfg.with_noc(mnpu_noc::NocConfig::narrow());
        }
        if with_log == 1 {
            cfg.request_log = true;
            cfg.request_log_cap = Some(512);
        }
        if stats_probe == 1 {
            cfg.probe = mnpu_engine::ProbeMode::Stats;
        }
        if ideal_mem == 1 {
            cfg = cfg.with_ideal_memory(60);
        }
        let traces = traces_for(&cfg);
        let native = Simulation::execute(&cfg, &traces);
        // Spread checkpoints over the whole run (and a little past it, so
        // snapshot-at-drained is covered too).
        let k = native.total_cycles * k_frac / 900;
        let resumed = Simulation::execute_checkpointed(&cfg, &traces, k);
        prop_assert_eq!(
            native.to_json(),
            resumed.to_json(),
            "checkpoint at cycle {} of {} broke bit-exactness",
            k,
            native.total_cycles
        );
    }
}

#[test]
fn snapshot_survives_binary_and_json_round_trips() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let traces = traces_for(&cfg);
    let mut sim = Simulation::new(&cfg, &traces);
    drive_to(&mut sim, 200_000);
    let snap = sim.snapshot();

    let bytes = snap.to_bytes();
    let from_bytes = SimSnapshot::from_bytes(&bytes).expect("binary round-trip");
    assert_eq!(from_bytes, snap);
    let json = from_bytes.to_json();
    let from_json = SimSnapshot::from_json(&json).expect("JSON round-trip");
    assert_eq!(from_json, snap);
    assert_eq!(from_json.to_bytes(), bytes, "binary → JSON → binary must be byte-stable");

    // The round-tripped snapshot must restore and finish identically.
    let finish = |mut s: Simulation| {
        assert_eq!(drive_to(&mut s, u64::MAX), Advance::Drained);
        s.into_report().to_json()
    };
    let mut a = Simulation::new(&cfg, &traces);
    a.restore(&snap).unwrap();
    let mut b = Simulation::new(&cfg, &traces);
    b.restore(&from_json).unwrap();
    assert_eq!(finish(a), finish(b));
}

#[test]
fn equal_states_produce_byte_equal_snapshots() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let traces = traces_for(&cfg);
    let snap = |()| {
        let mut sim = Simulation::new(&cfg, &traces);
        drive_to(&mut sim, 150_000);
        sim.snapshot().to_bytes()
    };
    assert_eq!(snap(()), snap(()), "snapshot bytes are a determinism oracle");
}

/// Snapshots hold state, not memos: a no-op `advance(now)` at a finish
/// boundary re-queries the event loop's memos (the DRAM next-event cache
/// among them) without moving the simulation, so the bytes must not move
/// either.
#[test]
fn no_op_advance_at_each_finish_leaves_snapshot_bytes_unchanged() {
    let cfg = SystemConfig::bench(4, SharingLevel::PlusDwt);
    let nets = [
        zoo::resnet50(Scale::Bench),
        zoo::deepspeech2(Scale::Bench),
        zoo::alexnet(Scale::Bench),
        zoo::dlrm(Scale::Bench),
    ];
    let traces: Vec<WorkloadTrace> =
        nets.iter().zip(&cfg.arch).map(|(n, a)| WorkloadTrace::generate(n, a)).collect();
    let mut sim = Simulation::new(&cfg, &traces);
    let mut finishes = 0;
    while let Advance::CoreFinished { at, .. } = sim.advance(u64::MAX) {
        finishes += 1;
        let before = sim.snapshot().to_bytes();
        let outcome = sim.advance(sim.now());
        assert!(matches!(outcome, Advance::Parked | Advance::Drained), "{outcome:?} at {at}");
        assert!(sim.snapshot().to_bytes() == before, "no-op advance at cycle {at} moved the bytes");
    }
    assert_eq!(finishes, 4);
}

#[test]
fn version_mismatch_fails_loudly() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let traces = traces_for(&cfg);
    let mut sim = Simulation::new(&cfg, &traces);
    drive_to(&mut sim, 10_000);
    let mut snap = sim.snapshot();
    snap.version = SNAPSHOT_VERSION + 1;

    let mut fresh = Simulation::new(&cfg, &traces);
    match fresh.restore(&snap) {
        Err(SnapError::VersionMismatch { found, expected }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // The wire decoders reject it just as loudly.
    assert!(matches!(
        SimSnapshot::from_bytes(&snap.to_bytes()),
        Err(SnapError::VersionMismatch { .. })
    ));
    assert!(matches!(
        SimSnapshot::from_json(&snap.to_json()),
        Err(SnapError::VersionMismatch { .. })
    ));
}

#[test]
fn config_mismatch_is_rejected() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let traces = traces_for(&cfg);
    let mut sim = Simulation::new(&cfg, &traces);
    drive_to(&mut sim, 10_000);
    let snap = sim.snapshot();

    let other_cfg = SystemConfig::bench(2, SharingLevel::PlusD);
    let mut other = Simulation::new(&other_cfg, &traces_for(&other_cfg));
    assert!(matches!(other.restore(&snap), Err(SnapError::ConfigMismatch { .. })));
}

#[test]
fn trace_mismatch_names_the_core() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let traces = traces_for(&cfg);
    let mut sim = Simulation::new(&cfg, &traces);
    drive_to(&mut sim, 10_000);
    let snap = sim.snapshot();

    // Same config, core 1 bound to a different workload.
    let swapped: Vec<WorkloadTrace> = [zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)]
        .iter()
        .zip(&cfg.arch)
        .map(|(n, a)| WorkloadTrace::generate(n, a))
        .collect();
    let mut other = Simulation::new(&cfg, &swapped);
    assert!(matches!(other.restore(&snap), Err(SnapError::TraceMismatch { core: 1 })));
}

#[test]
fn corrupt_payload_fails_not_garbage() {
    let cfg = SystemConfig::bench(2, SharingLevel::PlusDwt);
    let traces = traces_for(&cfg);
    let mut sim = Simulation::new(&cfg, &traces);
    drive_to(&mut sim, 10_000);
    let mut snap = sim.snapshot();
    snap.payload.truncate(snap.payload.len() / 2);
    let mut fresh = Simulation::new(&cfg, &traces);
    assert!(fresh.restore(&snap).is_err(), "truncated payload must be rejected");
}

/// The warm-start core of prefix sharing: run one representative (+D) with
/// shadow MMUs for +DW and +DWT, fork each variant from its last
/// in-lockstep checkpoint, finish the forks natively, and require byte
/// identity with each variant's native run. Correctness must not depend on
/// *when* (or whether) a variant diverges.
#[test]
fn shadow_forks_reproduce_native_runs_exactly() {
    let rep_cfg = SystemConfig::bench(2, SharingLevel::PlusD);
    let variants = [
        SystemConfig::bench(2, SharingLevel::PlusDw),
        SystemConfig::bench(2, SharingLevel::PlusDwt),
    ];
    let traces = traces_for(&rep_cfg);

    let mut rep = Simulation::new(&rep_cfg, &traces);
    for v in &variants {
        rep.add_shadow_config(v);
    }
    assert_eq!(rep.shadow_count(), variants.len());

    // Checkpoint cadence: fork every still-converged shadow, keeping the
    // most recent valid fork per variant (the initial state is always one).
    let mut forks: Vec<SimSnapshot> =
        (0..variants.len()).map(|i| rep.fork_snapshot(i).expect("pristine shadows fork")).collect();
    const CHUNK: u64 = 1 << 15;
    let mut stop = CHUNK;
    loop {
        match drive_to(&mut rep, stop) {
            Advance::Drained => break,
            Advance::Parked => {
                for (i, fork) in forks.iter_mut().enumerate() {
                    if let Some(snap) = rep.fork_snapshot(i) {
                        *fork = snap;
                    }
                }
                stop += CHUNK;
            }
            Advance::CoreFinished { .. } => unreachable!("drive_to swallows finishes"),
        }
    }
    // A drained representative can still fork never-diverged shadows.
    for (i, fork) in forks.iter_mut().enumerate() {
        if let Some(snap) = rep.fork_snapshot(i) {
            assert!(rep.shadow_diverged(i).is_none());
            *fork = snap;
        }
    }

    for (i, vcfg) in variants.iter().enumerate() {
        let native = Simulation::execute(vcfg, &traces).to_json();
        let mut resumed = Simulation::new(vcfg, &traces);
        resumed.restore(&forks[i]).unwrap_or_else(|e| panic!("variant {i} fork restore: {e:?}"));
        assert_eq!(drive_to(&mut resumed, u64::MAX), Advance::Drained);
        assert_eq!(
            resumed.into_report().to_json(),
            native,
            "variant {i} (diverged at {:?}) must finish byte-identical to its native run",
            rep.shadow_diverged(i)
        );
    }
}
