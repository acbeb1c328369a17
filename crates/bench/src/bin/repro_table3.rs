//! **Table 3 — compile-time breakdown of the flow.**
//!
//! Wall-clock time per compiler pass for each benchmark, read from the
//! compiler's own per-pass timings (`Compiled::timings`) of a
//! full-optimization compile, so the table times exactly the passes
//! `Compiler::compile` runs. Regenerate with:
//! `cargo run -p matic-bench --bin repro_table3 --release`

use matic::Compiler;
use matic_benchkit::SUITE;
use matic_explore::render_table;

fn main() {
    const REPS: u32 = 50;
    let compiler = Compiler::new();
    let mut passes: Vec<&str> = Vec::new();
    let mut rows = Vec::new();
    for b in SUITE {
        let args = b.arg_types(b.default_n);
        let mut seconds: Vec<f64> = Vec::new();
        let mut c_bytes = 0;
        for _ in 0..REPS {
            let compiled = compiler
                .compile(b.source, b.entry, &args)
                .unwrap_or_else(|e| panic!("{}: {e}", b.id));
            passes = compiled.timings.iter().map(|t| t.name).collect();
            seconds.resize(passes.len(), 0.0);
            for (sum, t) in seconds.iter_mut().zip(&compiled.timings) {
                *sum += t.duration.as_secs_f64();
            }
            c_bytes = compiled.c.source.len();
        }
        let mut row = vec![b.id.to_string()];
        row.extend(
            seconds
                .iter()
                .map(|s| format!("{:.1}", s * 1e6 / f64::from(REPS))),
        );
        row.push(c_bytes.to_string());
        rows.push(row);
    }
    let mut header = vec!["bench"];
    header.extend(&passes);
    header.push("C-bytes");
    println!("Table 3: compile time per pass (microseconds, mean of {REPS} compiles)");
    println!();
    println!("{}", render_table(&header, &rows));
}
