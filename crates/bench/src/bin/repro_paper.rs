//! **The paper's evaluation** — Table 1 (benchmark characteristics),
//! Table 2 / Fig. 2 (headline speedups on `dsp16`), Fig. 3 (speedup vs.
//! SIMD width) and Fig. 4 (custom-instruction ablation).
//!
//! Writes `PAPER_results.json` and rewrites the marked tables of
//! `EXPERIMENTS.md` in the current directory; `tests/paper_results.rs`
//! fails when either is stale. Regenerate from the repository root with:
//! `cargo run --release -p matic-bench --bin repro_paper`

use matic_bench::paper;
use std::fs;

fn main() {
    let paper = paper::generate();
    fs::write("PAPER_results.json", paper.to_json()).expect("write PAPER_results.json");
    let doc = fs::read_to_string("EXPERIMENTS.md").expect("read EXPERIMENTS.md");
    let doc = paper::splice(&doc, &paper).unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
    fs::write("EXPERIMENTS.md", doc).expect("write EXPERIMENTS.md");
    let (lo, hi) = paper.headline_range();
    println!(
        "wrote PAPER_results.json ({} cells) and EXPERIMENTS.md; speedup range {lo:.2}x .. {hi:.2}x",
        paper.cells.len()
    );
}
