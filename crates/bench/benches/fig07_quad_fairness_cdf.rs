//! Bench target regenerating the paper's Fig. 7: quad-core fairness CDF per sharing level

use mnpu_bench::figures::sharing::fig07_quad_fairness_cdf;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig07_quad_fairness_cdf(&Harness::new()));
}
