//! Bench target regenerating the paper's Fig. 12: DRAM bandwidth
//! utilization over time for ds2 and gpt2 alone (dual-core Ideal), and
//! their sum — the burst-overlap argument for dynamic sharing.

use mnpu_bench::figures::bandwidth::fig12_bw_timeline;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig12_bw_timeline(&Harness::new()));
}
