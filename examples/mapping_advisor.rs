//! Mapping advisor: given eight workloads to place on four dual-core NPUs,
//! train the paper's §4.6 slowdown predictor on random networks and
//! recommend a pairing — then validate the recommendation by simulation.
//!
//! ```text
//! cargo run --release --example mapping_advisor [w1 .. w8]
//! ```
//!
//! Defaults to one copy of every benchmark.

use mnpusim::engine::FanOut;
use mnpusim::predict::mapping::{matching_slowdowns, perfect_matchings};
use mnpusim::prelude::*;
use mnpusim::{geomean, zoo, Scale, SlowdownModel, WorkloadProfile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.len() == 8 {
        args
    } else {
        zoo::MODEL_NAMES.iter().map(|s| s.to_string()).collect()
    };
    let nets: Vec<_> =
        names.iter().map(|n| zoo::by_name(n, Scale::Bench).unwrap_or_else(|| usage(n))).collect();

    let chip = SystemConfig::bench(2, SharingLevel::PlusDwt);

    let fan = FanOut::new();
    println!("profiling {} workloads solo on {} workers...", nets.len(), fan.jobs());
    let profiles = fan.map(&nets, |n| WorkloadProfile::measure(&chip, n));

    println!("training slowdown model on random networks...");
    let model = SlowdownModel::train_on_random_networks(&chip, 10, 20, 7, fan);

    // Choose the matching with the best predicted geomean speedup.
    let predicted = |i: usize, j: usize| {
        (
            model.predict_slowdown(&profiles[i], &profiles[j]),
            model.predict_slowdown(&profiles[j], &profiles[i]),
        )
    };
    let slots: Vec<usize> = (0..8).collect();
    let score = |slow: &[f64]| geomean(&slow.iter().map(|s| 1.0 / s).collect::<Vec<_>>());
    let mut best: Option<(f64, Vec<(usize, usize)>)> = None;
    for m in perfect_matchings(8) {
        let s = score(&matching_slowdowns(&slots, &m, &predicted));
        if best.as_ref().is_none_or(|(b, _)| s > *b) {
            best = Some((s, m));
        }
    }
    let (pred_score, matching) = best.expect("matchings exist");

    println!("\nrecommended pairing (predicted geomean speedup {pred_score:.3}):");
    // The four recommended chips share nothing, so each is its own run.
    let mut actual_speedups = Vec::new();
    for &(p, q) in &matching {
        let r = RunRequest::networks(&chip, vec![nets[p].clone(), nets[q].clone()]).run().batch();
        let sp = profiles[p].solo_cycles as f64 / r.cores[0].cycles as f64;
        let sq = profiles[q].solo_cycles as f64 / r.cores[1].cycles as f64;
        println!(
            "  chip: {:<6} + {:<6}  actual speedups {:.3} / {:.3}",
            names[p], names[q], sp, sq
        );
        actual_speedups.push(sp);
        actual_speedups.push(sq);
    }
    println!("\nmeasured system geomean speedup: {:.3}", geomean(&actual_speedups));
}

fn usage(name: &str) -> ! {
    eprintln!("unknown workload '{name}'; choose from {:?}", zoo::MODEL_NAMES);
    std::process::exit(2);
}
