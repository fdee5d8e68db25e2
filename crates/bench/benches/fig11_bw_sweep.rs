//! Bench target regenerating the paper's Fig. 11: single-core speedup vs
//! DRAM bandwidth, normalized to the smallest configuration.

use mnpu_bench::figures::bandwidth::fig11_bandwidth_sweep;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig11_bandwidth_sweep(&Harness::new()));
}
