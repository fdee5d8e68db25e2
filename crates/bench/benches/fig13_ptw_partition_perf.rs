//! Bench target regenerating the paper's Fig. 13: PTW partitioning, performance (normalized to Ideal)

use mnpu_bench::figures::translation::fig13_ptw_partition_performance;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig13_ptw_partition_performance(&Harness::new()));
}
