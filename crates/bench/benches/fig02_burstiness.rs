//! Bench target regenerating the paper's Fig. 2b: the bursty DRAM request
//! pattern of NCF on a single-core NPU (moving average over 1000 cycles).

use mnpu_bench::figures::bandwidth::fig02_burstiness;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig02_burstiness(&Harness::new()));
}
