//! Bench target regenerating the paper's Fig. 15: single-core speedup of
//! 64 KB and 1 MB pages over 4 KB pages.

use mnpu_bench::figures::translation::fig15_page_size_single;
use mnpu_bench::Harness;

fn main() {
    print!("{}", fig15_page_size_single(&Harness::new()));
}
