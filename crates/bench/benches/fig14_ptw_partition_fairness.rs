//! Bench target regenerating the paper's Fig. 14: PTW partitioning, fairness

use mnpu_bench::figures::translation::fig14_ptw_partition_fairness;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig14_ptw_partition_fairness(&Harness::new()));
}
