//! Bench target regenerating the paper's Fig. 6: dual-core mix fairness (Eq. 1) per sharing level

use mnpu_bench::figures::sharing::fig06_dual_fairness;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig06_dual_fairness(&Harness::new()));
}
