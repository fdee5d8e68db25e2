//! Bench target regenerating the paper's Fig. 4: dual-core mix performance (speedup vs Ideal) per sharing level

use mnpu_bench::figures::sharing::fig04_dual_performance;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig04_dual_performance(&Harness::new()));
}
