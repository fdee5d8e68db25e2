//! Bench target regenerating the paper's Fig. 9: DRAM bandwidth partitioning, performance (translation off)

use mnpu_bench::figures::bandwidth::fig09_bw_partition_performance;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig09_bw_partition_performance(&Harness::new()));
}
