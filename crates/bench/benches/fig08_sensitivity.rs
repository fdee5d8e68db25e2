//! Bench target regenerating the paper's Fig. 8: each workload's
//! performance distribution under +DWT across all dual-core co-runners.

use mnpu_bench::figures::sharing::fig08_sensitivity;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig08_sensitivity(&Harness::new()));
}
