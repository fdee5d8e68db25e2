//! Bench target regenerating the paper's Fig. 17: the co-runner mapping
//! study performance CDF (prediction vs oracle, worst, and random assignment).

use mnpu_bench::figures::mapping::fig17_mapping_performance;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig17_mapping_performance(&Harness::new()));
}
