//! Bench target regenerating the paper's Fig. 5: quad-core performance CDF per sharing level

use mnpu_bench::figures::sharing::fig05_quad_performance_cdf;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig05_quad_performance_cdf(&Harness::new()));
}
