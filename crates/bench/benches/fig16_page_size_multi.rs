//! Bench target regenerating the paper's Fig. 16: multi-core page-size
//! scaling (performance vs 4 KB; fairness vs Ideal) under +DWT.

use mnpu_bench::figures::translation::fig16_page_size_multi;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig16_page_size_multi(&Harness::new()));
}
