//! End-to-end tests of the multi-core engine: pipeline correctness,
//! sharing-level semantics, clock domains, and determinism.

use mnpu_engine::{SharingLevel, Simulation, SystemConfig};
use mnpu_model::{zoo, GemmSpec, Layer, Network, Scale};
use mnpu_systolic::WorkloadTrace;

/// A small, fast workload for structural tests.
fn tiny_net(name: &str) -> Network {
    Network::new(
        name,
        vec![
            Layer::gemm("fc1", GemmSpec::new(32, 256, 64)),
            Layer::gemm("fc2", GemmSpec::new(32, 64, 32)),
        ],
    )
}

fn bench_cfg(cores: usize, sharing: SharingLevel) -> SystemConfig {
    SystemConfig::bench(cores, sharing)
}

#[test]
fn single_core_completes_and_accounts_traffic() {
    let net = tiny_net("t");
    let cfg = bench_cfg(1, SharingLevel::Ideal);
    let r = Simulation::execute_networks(&cfg, std::slice::from_ref(&net));
    assert_eq!(r.cores.len(), 1);
    let c = &r.cores[0];
    assert_eq!(c.workload, "t");
    assert!(c.cycles > 0);
    assert!(c.compute_cycles > 0);
    assert!(c.cycles >= c.compute_cycles, "execution covers compute");
    // All trace traffic must be moved, 64B-rounded per span.
    let trace = WorkloadTrace::generate(&net, &cfg.arch[0]);
    assert!(c.traffic_bytes >= trace.total_traffic_bytes());
    assert!(c.traffic_bytes < trace.total_traffic_bytes() * 2);
}

#[test]
fn execution_cycles_lower_bounded_by_compute() {
    for name in ["ncf", "gpt2"] {
        let net = zoo::by_name(name, Scale::Bench).unwrap();
        let cfg = bench_cfg(1, SharingLevel::Ideal);
        let trace = WorkloadTrace::generate(&net, &cfg.arch[0]);
        let r = Simulation::execute_networks(&cfg, &[net]);
        assert!(
            r.cores[0].cycles >= trace.total_compute_cycles(),
            "{name}: memory can only add time"
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let cfg = bench_cfg(2, SharingLevel::PlusDwt);
    let nets = [zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)];
    let a = Simulation::execute_networks(&cfg, &nets);
    let b = Simulation::execute_networks(&cfg, &nets);
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.cores[1].cycles, b.cores[1].cycles);
    assert_eq!(a.dram.total.bytes, b.dram.total.bytes);
}

#[test]
fn translation_disabled_is_faster_and_walk_free() {
    let net = zoo::ncf(Scale::Bench);
    let with = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    let without = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal).without_translation(),
        &[net],
    );
    assert_eq!(without.cores[0].walk_bytes, 0);
    assert_eq!(without.cores[0].mmu.walks, 0);
    assert!(without.cores[0].cycles <= with.cores[0].cycles);
    assert!(with.cores[0].walk_bytes > 0);
}

#[test]
fn co_runners_slow_each_other_down() {
    let net = zoo::selfish_rnn(Scale::Bench);
    let solo = Simulation::execute_networks(
        &bench_cfg(2, SharingLevel::PlusDwt).ideal_solo(),
        std::slice::from_ref(&net),
    );
    let duo = Simulation::execute_networks(
        &bench_cfg(2, SharingLevel::PlusDwt),
        &[net.clone(), net.clone()],
    );
    for c in &duo.cores {
        assert!(
            c.cycles >= solo.cores[0].cycles,
            "sharing cannot beat monopolizing: {} vs {}",
            c.cycles,
            solo.cores[0].cycles
        );
    }
}

#[test]
fn identical_corunners_finish_nearly_together() {
    let net = zoo::gpt2(Scale::Bench);
    let r = Simulation::execute_networks(&bench_cfg(2, SharingLevel::PlusDwt), &[net.clone(), net]);
    let (a, b) = (r.cores[0].cycles as f64, r.cores[1].cycles as f64);
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.1, "symmetric mix should be balanced: {a} vs {b}");
}

#[test]
fn sharing_dram_beats_static_for_memory_heavy_mix() {
    // The paper's headline: dynamic sharing outperforms equal static
    // partitioning thanks to bursty access.
    let nets = [zoo::selfish_rnn(Scale::Bench), zoo::dlrm(Scale::Bench)];
    let stat = Simulation::execute_networks(&bench_cfg(2, SharingLevel::Static), &nets);
    let dwt = Simulation::execute_networks(&bench_cfg(2, SharingLevel::PlusDwt), &nets);
    let geo =
        |r: &mnpu_engine::RunReport| (r.cores[0].cycles as f64 * r.cores[1].cycles as f64).sqrt();
    assert!(geo(&dwt) < geo(&stat), "+DWT {} should beat Static {}", geo(&dwt), geo(&stat));
}

#[test]
fn static_partition_isolates_corunners() {
    // Under Static, a core's performance must not depend on its co-runner
    // (private channels, walkers, TLB). The engine retries blocked DMA at
    // global event times, so co-runner events introduce sub-0.5% timing
    // quantization jitter but no resource coupling: all counters must match
    // exactly.
    let a = zoo::ncf(Scale::Bench);
    let r1 = Simulation::execute_networks(
        &bench_cfg(2, SharingLevel::Static),
        &[a.clone(), zoo::dlrm(Scale::Bench)],
    );
    let r2 = Simulation::execute_networks(
        &bench_cfg(2, SharingLevel::Static),
        &[a, zoo::gpt2(Scale::Bench)],
    );
    assert_eq!(r1.cores[0].traffic_bytes, r2.cores[0].traffic_bytes);
    assert_eq!(r1.cores[0].mmu, r2.cores[0].mmu, "no MMU coupling under Static");
    let (c1, c2) = (r1.cores[0].cycles as f64, r2.cores[0].cycles as f64);
    assert!((c1 - c2).abs() / c1 < 0.005, "isolation within quantization: {c1} vs {c2}");
}

#[test]
fn unequal_channel_partition_shifts_performance() {
    let nets = [zoo::selfish_rnn(Scale::Bench), zoo::selfish_rnn(Scale::Bench)];
    let cfg17 = bench_cfg(2, SharingLevel::Static).with_channel_partition(vec![1, 7]);
    let r = Simulation::execute_networks(&cfg17, &nets);
    assert!(
        r.cores[0].cycles > r.cores[1].cycles * 2,
        "1:7 split should starve core 0: {} vs {}",
        r.cores[0].cycles,
        r.cores[1].cycles
    );
}

#[test]
fn unequal_ptw_partition_shifts_performance() {
    let nets = [zoo::dlrm(Scale::Bench), zoo::dlrm(Scale::Bench)];
    let cfg = bench_cfg(2, SharingLevel::PlusD).with_ptw_partition(vec![1, 3]);
    let r = Simulation::execute_networks(&cfg, &nets);
    assert!(
        r.cores[0].cycles > r.cores[1].cycles,
        "walker-starved core must be slower: {} vs {}",
        r.cores[0].cycles,
        r.cores[1].cycles
    );
}

#[test]
fn larger_pages_walk_less_and_run_faster_for_dlrm() {
    let net = zoo::dlrm(Scale::Bench);
    let p4k = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    let p1m = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal).with_page_size(1 << 20),
        &[net],
    );
    assert!(p1m.cores[0].mmu.walks < p4k.cores[0].mmu.walks / 10);
    assert!(p1m.cores[0].cycles < p4k.cores[0].cycles);
}

#[test]
fn iterations_scale_cycles() {
    let net = tiny_net("i");
    let mut cfg = bench_cfg(1, SharingLevel::Ideal);
    let once = Simulation::execute_networks(&cfg, std::slice::from_ref(&net));
    cfg.iterations = 3;
    let thrice = Simulation::execute_networks(&cfg, &[net]);
    let (c1, c3) = (once.cores[0].cycles as f64, thrice.cores[0].cycles as f64);
    assert!(c3 > 2.0 * c1, "3 iterations well above 2x one: {c1} vs {c3}");
    assert!(c3 < 3.5 * c1, "warm TLB keeps later iterations cheaper: {c1} vs {c3}");
}

#[test]
fn start_cycle_offsets_delay_completion() {
    let net = tiny_net("s");
    let mut cfg = bench_cfg(2, SharingLevel::PlusDwt);
    let base = Simulation::execute_networks(&cfg, &[net.clone(), net.clone()]);
    cfg.start_cycles = vec![0, 100_000];
    let offset = Simulation::execute_networks(&cfg, &[net.clone(), net]);
    assert!(offset.total_cycles >= 100_000);
    // Core 1's own execution time is measured from its start, so it is not
    // inflated by the offset itself.
    assert!(offset.cores[1].cycles < base.cores[1].cycles + 100_000);
}

#[test]
fn slower_core_clock_stretches_execution() {
    let net = tiny_net("c");
    let fast = bench_cfg(1, SharingLevel::Ideal);
    let mut slow = fast.clone();
    slow.arch[0].freq_mhz = 500; // half the DRAM clock
    let rf = Simulation::execute_networks(&fast, std::slice::from_ref(&net));
    let rs = Simulation::execute_networks(&slow, &[net]);
    // In *global* cycles the slow core takes longer; its own cycle count is
    // lower per unit time, so compare via total_cycles.
    assert!(rs.total_cycles > rf.total_cycles);
}

#[test]
fn quad_core_mix_completes() {
    let nets = [
        zoo::ncf(Scale::Bench),
        zoo::gpt2(Scale::Bench),
        zoo::yolo_tiny(Scale::Bench),
        zoo::dlrm(Scale::Bench),
    ];
    let cfg = bench_cfg(4, SharingLevel::PlusDw);
    let r = Simulation::execute_networks(&cfg, &nets);
    assert_eq!(r.cores.len(), 4);
    for c in &r.cores {
        assert!(c.cycles > 0);
    }
    assert_eq!(r.dram.per_channel.len(), 16);
}

#[test]
fn bandwidth_trace_covers_run() {
    let mut cfg = bench_cfg(1, SharingLevel::Ideal);
    cfg.trace_window = Some(1000);
    let r = Simulation::execute_networks(&cfg, &[zoo::ncf(Scale::Bench)]);
    let t = r.bandwidth_trace.expect("trace enabled");
    let total: u64 = t.core_series(0).iter().sum();
    assert_eq!(total, r.dram.total.bytes);
    assert!(t.len() as u64 * 1000 >= r.total_cycles);
}

#[test]
fn pe_utilization_reported_in_unit_interval() {
    for name in ["res", "dlrm"] {
        let net = zoo::by_name(name, Scale::Bench).unwrap();
        let r = Simulation::execute_networks(&bench_cfg(1, SharingLevel::Ideal), &[net]);
        let u = r.cores[0].pe_utilization;
        assert!(u > 0.0 && u <= 1.0, "{name}: {u}");
    }
}

#[test]
fn walk_bytes_proportional_to_levels() {
    let net = zoo::ncf(Scale::Bench);
    let l4 = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    let l3 = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal).with_page_size(65536),
        &[net],
    );
    let w4 = l4.cores[0].walk_bytes as f64 / l4.cores[0].mmu.walks as f64;
    let w3 = l3.cores[0].walk_bytes as f64 / l3.cores[0].mmu.walks as f64;
    assert!((w4 - 256.0).abs() < 1.0, "4 levels x 64B: {w4}");
    assert!((w3 - 192.0).abs() < 1.0, "3 levels x 64B: {w3}");
}

#[test]
#[should_panic(expected = "one workload trace per core")]
fn trace_count_mismatch_panics() {
    let cfg = bench_cfg(2, SharingLevel::PlusDwt);
    let t = WorkloadTrace::generate(&tiny_net("x"), &cfg.arch[0]);
    let _ = Simulation::new(&cfg, &[t]);
}

#[test]
fn heterogeneous_cores_supported() {
    let mut cfg = bench_cfg(2, SharingLevel::PlusDwt);
    cfg.arch[1].rows = 8;
    cfg.arch[1].cols = 8;
    let nets = [tiny_net("big"), tiny_net("small")];
    let r = Simulation::execute_networks(&cfg, &nets);
    // The weaker core needs more cycles for the same work.
    assert!(r.cores[1].cycles > r.cores[0].cycles);
}

#[test]
fn request_log_records_translation_and_dram_events() {
    use mnpu_engine::LogKind;
    let mut cfg = bench_cfg(1, SharingLevel::Ideal);
    cfg.request_log = true;
    let r = Simulation::execute_networks(&cfg, &[tiny_net("log")]);
    assert!(!r.request_log.is_empty());
    let count = |k: LogKind| r.request_log.iter().filter(|e| e.kind == k).count() as u64;
    // Every data transaction produced exactly one TLB lookup and one DRAM
    // completion event.
    let lookups = count(LogKind::TlbHit) + count(LogKind::TlbMiss);
    let drams = count(LogKind::DramReadDone) + count(LogKind::DramWriteDone);
    assert_eq!(lookups, r.cores[0].mmu.tlb_hits + r.cores[0].mmu.tlb_misses);
    assert_eq!(drams * 64, r.cores[0].traffic_bytes);
    // Walk starts match walk completions and the MMU's walk count.
    assert_eq!(count(LogKind::WalkStart), count(LogKind::WalkDone));
    assert_eq!(count(LogKind::WalkStart), r.cores[0].mmu.walks);
    // Cycles are non-decreasing.
    assert!(r.request_log.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn request_log_disabled_by_default() {
    let r = Simulation::execute_networks(&bench_cfg(1, SharingLevel::Ideal), &[tiny_net("nolog")]);
    assert!(r.request_log.is_empty());
}

#[test]
fn fcfs_scheduling_is_not_faster_than_frfcfs() {
    use mnpu_dram::SchedPolicy;
    let net = zoo::gpt2(Scale::Bench);
    let fr = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    let mut cfg = bench_cfg(1, SharingLevel::Ideal);
    cfg.dram.policy = SchedPolicy::Fcfs;
    let fc = Simulation::execute_networks(&cfg, &[net]);
    assert!(
        fc.cores[0].cycles as f64 >= fr.cores[0].cycles as f64 * 0.99,
        "FR-FCFS should not lose to FCFS: {} vs {}",
        fr.cores[0].cycles,
        fc.cores[0].cycles
    );
}

#[test]
fn disabling_walk_coalescing_starts_more_walks() {
    let net = zoo::dlrm(Scale::Bench);
    let on = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    let mut cfg = bench_cfg(1, SharingLevel::Ideal);
    cfg.mmu.coalesce_walks = false;
    let off = Simulation::execute_networks(&cfg, &[net]);
    assert!(off.cores[0].mmu.walks > on.cores[0].mmu.walks);
    assert_eq!(off.cores[0].mmu.coalesced, 0);
    assert!(off.cores[0].cycles >= on.cores[0].cycles);
}

#[test]
fn bounded_walker_pool_protects_victim_from_hog() {
    // dlrm floods walkers; a min-reservation for the co-runner under +DW
    // must improve the co-runner vs the unbounded shared pool.
    let nets = [zoo::dlrm(Scale::Bench), zoo::ncf(Scale::Bench)];
    let shared = Simulation::execute_networks(&bench_cfg(2, SharingLevel::PlusDw), &nets);
    let cfg = bench_cfg(2, SharingLevel::PlusDw).with_ptw_bounds(vec![0, 2], vec![4, 4]);
    let bounded = Simulation::execute_networks(&cfg, &nets);
    assert!(
        bounded.cores[1].cycles <= shared.cores[1].cycles,
        "reserved walkers must not hurt the victim: {} vs {}",
        bounded.cores[1].cycles,
        shared.cores[1].cycles
    );
}

#[test]
fn equal_tight_bounds_match_static_partition_semantics() {
    // min == max == per-core share behaves like the static walker split.
    let nets = [zoo::dlrm(Scale::Bench), zoo::dlrm(Scale::Bench)];
    let cfg = bench_cfg(2, SharingLevel::PlusDw).with_ptw_bounds(vec![2, 2], vec![2, 2]);
    let bounded = Simulation::execute_networks(&cfg, &nets);
    let part = Simulation::execute_networks(&bench_cfg(2, SharingLevel::PlusD), &nets);
    assert_eq!(bounded.to_json(), part.to_json(), "bounded(2,2) == private(2)");
}

#[test]
fn over_sum_ptw_partition_runs_the_walkers_it_names() {
    // A partition is an explicit walker count per core, not a split of the
    // chip's `ptws_per_core * cores`: [8, 8] on a 2-walker-per-core chip
    // runs 16 walkers, exactly like 8 private walkers per core.
    let nets = [zoo::dlrm(Scale::Bench), zoo::dlrm(Scale::Bench)];
    let over = bench_cfg(2, SharingLevel::Static).with_ptw_partition(vec![8, 8]);
    assert!(over.validate().is_ok());
    let over = Simulation::execute_networks(&over, &nets);
    let mut eight = bench_cfg(2, SharingLevel::Static);
    eight.mmu.ptws_per_core = 8;
    assert_eq!(over.to_json(), Simulation::execute_networks(&eight, &nets).to_json());
    let two = bench_cfg(2, SharingLevel::Static).with_ptw_partition(vec![2, 2]);
    let two = Simulation::execute_networks(&two, &nets);
    for (o, t) in over.cores.iter().zip(&two.cores) {
        assert!(
            o.mmu.walker_stalls < t.mmu.walker_stalls,
            "{} vs {}",
            o.mmu.walker_stalls,
            t.mmu.walker_stalls
        );
        assert!(o.cycles < t.cycles, "16 walkers must beat 4: {} vs {}", o.cycles, t.cycles);
    }
}

#[test]
fn ptw_bounds_require_sharing_level() {
    let cfg = bench_cfg(2, SharingLevel::PlusD).with_ptw_bounds(vec![1, 1], vec![2, 2]);
    assert!(cfg.validate().is_err());
    let cfg = bench_cfg(2, SharingLevel::PlusDw).with_ptw_bounds(vec![1, 1], vec![2, 2]);
    assert!(cfg.validate().is_ok());
}

#[test]
#[should_panic(expected = "max_cycles")]
fn watchdog_fires_on_tiny_budget() {
    let mut cfg = bench_cfg(1, SharingLevel::Ideal);
    cfg.max_cycles = Some(10);
    let _ = Simulation::execute_networks(&cfg, &[zoo::ncf(Scale::Bench)]);
}

#[test]
fn energy_report_is_positive_and_decomposes() {
    use mnpu_engine::EnergyModel;
    let cfg = bench_cfg(2, SharingLevel::PlusDwt);
    let nets = [zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)];
    let r = Simulation::execute_networks(&cfg, &nets);
    let e = r.estimate_energy(&cfg, &EnergyModel::default());
    assert_eq!(e.compute_nj.len(), 2);
    assert!(e.compute_nj.iter().all(|&x| x > 0.0));
    assert!(e.spm_nj.iter().all(|&x| x > 0.0));
    assert!(e.dram.total_nj() > 0.0);
    let sum = e.compute_nj.iter().sum::<f64>() + e.spm_nj.iter().sum::<f64>() + e.dram.total_nj();
    assert!((e.total_nj() - sum).abs() < 1e-9);
    // More traffic (gpt2) costs more SPM energy than ncf.
    assert!(e.spm_nj[1] > e.spm_nj[0]);
}

#[test]
fn noc_adds_latency_and_reports_queueing() {
    use mnpu_noc::NocConfig;
    let net = zoo::ncf(Scale::Bench);
    let ideal = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    assert_eq!(ideal.cores[0].noc_queue_cycles, 0, "no NoC, no queueing");

    let narrow = bench_cfg(1, SharingLevel::Ideal).with_noc(NocConfig::narrow());
    let r = Simulation::execute_networks(&narrow, std::slice::from_ref(&net));
    assert!(r.cores[0].cycles >= ideal.cores[0].cycles, "NoC can only add time");
    assert!(r.cores[0].noc_queue_cycles > 0, "16 B/cycle link must queue 64B bursts");
    assert_eq!(r.cores[0].traffic_bytes, ideal.cores[0].traffic_bytes, "same work");

    // A wide NoC should cost much less than a narrow one.
    let wide = bench_cfg(1, SharingLevel::Ideal).with_noc(NocConfig::wide());
    let w = Simulation::execute_networks(&wide, &[net]);
    assert!(w.cores[0].cycles <= r.cores[0].cycles);
}

#[test]
fn noc_runs_are_deterministic_and_complete_for_mixes() {
    use mnpu_noc::NocConfig;
    let cfg = bench_cfg(2, SharingLevel::PlusDwt).with_noc(NocConfig::narrow());
    let nets = [zoo::ncf(Scale::Bench), zoo::gpt2(Scale::Bench)];
    let a = Simulation::execute_networks(&cfg, &nets);
    let b = Simulation::execute_networks(&cfg, &nets);
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.cores[1].cycles, b.cores[1].cycles);
    assert!(a.cores.iter().all(|c| c.cycles > 0));
}

#[test]
fn ideal_solo_clears_all_partitioning() {
    let cfg = bench_cfg(2, SharingLevel::PlusDw).with_ptw_bounds(vec![1, 1], vec![3, 3]);
    let solo = cfg.ideal_solo();
    assert!(solo.ptw_bounds.is_none());
    assert!(solo.channel_partition.is_none());
    assert!(solo.ptw_partition.is_none());
    assert!(solo.validate().is_ok());
}

#[test]
fn weight_stationary_cores_run_end_to_end() {
    use mnpu_systolic::Dataflow;
    let mut cfg = bench_cfg(2, SharingLevel::PlusDwt);
    cfg.arch[1].dataflow = Dataflow::WeightStationary;
    let nets = [zoo::ncf(Scale::Bench), zoo::ncf(Scale::Bench)];
    let r = Simulation::execute_networks(&cfg, &nets);
    assert!(r.cores.iter().all(|c| c.cycles > 0));
    // Same workload, different dataflow: compute schedules differ.
    assert_ne!(r.cores[0].compute_cycles, r.cores[1].compute_cycles);
}

#[test]
fn layer_cycles_cover_the_whole_run() {
    let net = zoo::gpt2(Scale::Bench);
    let r = Simulation::execute_networks(
        &bench_cfg(1, SharingLevel::Ideal),
        std::slice::from_ref(&net),
    );
    let c = &r.cores[0];
    assert_eq!(c.layer_cycles.len(), net.num_layers());
    let sum: u64 = c.layer_cycles.iter().map(|(_, v)| v).sum();
    assert!(sum <= c.cycles + net.num_layers() as u64, "rounding slack only");
    assert!(sum * 10 >= c.cycles * 9, "layers cover ≥90% of execution: {sum} vs {}", c.cycles);
    // Names match the model in order.
    for ((name, _), layer) in c.layer_cycles.iter().zip(net.iter()) {
        assert_eq!(name, layer.name());
    }
}

#[test]
fn simulation_state_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Simulation>();
}

#[test]
fn ideal_memory_backend_runs_and_is_contention_free() {
    let net = tiny_net("t");
    let timing = bench_cfg(2, SharingLevel::PlusDwt);
    let ideal = bench_cfg(2, SharingLevel::PlusDwt).with_ideal_memory(8);
    let nets = [net.clone(), net];
    let rt = Simulation::execute_networks(&timing, &nets);
    let ri = Simulation::execute_networks(&ideal, &nets);
    // Same traffic either way; the ideal backend just never stalls it.
    assert_eq!(ri.cores[0].traffic_bytes, rt.cores[0].traffic_bytes);
    assert!(ri.dram.total.bytes > 0);
    assert!(
        ri.total_cycles <= rt.total_cycles,
        "infinite-bandwidth memory must not be slower: ideal={} timing={}",
        ri.total_cycles,
        rt.total_cycles
    );
}

#[test]
fn ideal_memory_backend_is_deterministic() {
    let net = tiny_net("t");
    let cfg = bench_cfg(2, SharingLevel::PlusDw).with_ideal_memory(16);
    let nets = [net.clone(), net];
    let a = Simulation::execute_networks(&cfg, &nets);
    let b = Simulation::execute_networks(&cfg, &nets);
    let cycles = |r: &mnpu_engine::RunReport| r.cores.iter().map(|c| c.cycles).collect::<Vec<_>>();
    assert_eq!(cycles(&a), cycles(&b));
}
