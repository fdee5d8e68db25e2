//! Bench target regenerating the paper's Fig. 18: the co-runner mapping
//! study fairness CDF (prediction vs oracle, worst, and random assignment).

use mnpu_bench::figures::mapping::fig18_mapping_fairness;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig18_mapping_fairness(&Harness::new()));
}
