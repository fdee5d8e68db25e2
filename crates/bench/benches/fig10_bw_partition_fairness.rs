//! Bench target regenerating the paper's Fig. 10: DRAM bandwidth partitioning, fairness (translation off)

use mnpu_bench::figures::bandwidth::fig10_bw_partition_fairness;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig10_bw_partition_fairness(&Harness::new()));
}
