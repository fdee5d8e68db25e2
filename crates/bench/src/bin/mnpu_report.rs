//! Generate a complete markdown reproduction report: runs every figure of
//! the paper on one harness, whose run cache simulates each run once across
//! all figures, and writes each figure's table — the one its `figNN_*`
//! bench target prints — to one file.
//!
//! ```text
//! cargo run --release -p mnpu-bench --bin mnpu_report [output.md]
//! ```

use mnpu_bench::figures::FIGURES;
use mnpu_bench::Harness;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "target/mnpu_report.md".into());
    let h = Harness::new();
    let mut md = format!(
        "# mNPUsim-rs reproduction report\n\nQuad stride: {}, full sweeps: {}\n",
        Harness::quad_stride(),
        Harness::full_sweeps()
    );
    for (_, figure) in FIGURES {
        md.push_str(&format!("\n{}", figure(&h)));
    }
    std::fs::write(&out_path, md).expect("write report");
    println!("wrote {out_path}");
}
