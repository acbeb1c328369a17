//! # matic-bench
//!
//! Shared measurement machinery for the reproduction binaries
//! (`repro_table1` … `repro_fig4`), which regenerate the tables and
//! figures of the DATE'16 evaluation on the virtual ASIP.

use matic::{Compiled, Compiler, IsaSpec, OptLevel};
use matic_benchkit::{to_sim, Benchmark};

// The fan-out/report helpers live with the design-space explorer (its
// heaviest user); re-exported here so the repro binaries keep their
// `matic_bench::{par_map, render_table}` imports.
pub use matic_explore::{par_map, render_table};

/// One measured (benchmark, target, opt-level) cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id.
    pub bench: &'static str,
    /// Target name.
    pub target: String,
    /// Total cycles of one kernel invocation.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Cycles in SIMD instruction classes.
    pub vector_cycles: u64,
    /// Cycles in complex-arithmetic instruction classes.
    pub complex_cycles: u64,
    /// What the vectorizer recognized.
    pub report: matic::VectorizeReport,
}

/// Compiles and simulates one benchmark, verifying the outputs against
/// the reference interpreter before trusting the cycle count.
///
/// # Panics
///
/// Panics when compilation, simulation or verification fails — a repro
/// binary must never print numbers from a kernel that computed garbage.
pub fn measure(
    bench: &Benchmark,
    n: usize,
    spec: IsaSpec,
    opt: OptLevel,
    seed: u64,
) -> Measurement {
    let compiled: Compiled = Compiler::new()
        .target(spec)
        .opt_level(opt)
        .compile(bench.source, bench.entry, &bench.arg_types(n))
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.id));
    let inputs = bench.inputs(n, seed);
    let reference = bench
        .reference_outputs(&inputs)
        .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", bench.id));
    let outcome = compiled
        .simulate(inputs.iter().map(to_sim).collect())
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", bench.id));
    matic_explore::check_outputs(&outcome.outputs, &reference).unwrap_or_else(|e| {
        panic!(
            "{}: output mismatch — refusing to report cycles: {e}",
            bench.id
        )
    });
    Measurement {
        bench: bench.id,
        target: compiled.spec.name.clone(),
        cycles: outcome.cycles.total,
        instructions: outcome.cycles.instructions,
        vector_cycles: outcome.cycles.vector_cycles(),
        complex_cycles: outcome.cycles.complex_cycles(),
        report: (*compiled.report).clone(),
    }
}

/// Formats one speedup with two decimals.
pub fn speedup(baseline: u64, optimized: u64) -> f64 {
    baseline as f64 / optimized.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_benchkit::benchmark;

    #[test]
    fn measure_verifies_and_counts() {
        let b = benchmark("fir").unwrap();
        let m = measure(b, 64, IsaSpec::dsp16(), OptLevel::full(), 5);
        assert!(m.cycles > 0);
        assert!(m.instructions > 0);
        assert!(m.vector_cycles > 0, "fir should use SIMD");
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup(100, 50), 2.0);
        assert_eq!(speedup(100, 0), 100.0);
    }

    // `par_map`/`render_table` unit tests live with their implementation
    // in matic-explore; here we only pin that measurement cells stay safe
    // to fan out.
    #[test]
    fn par_map_measures_like_sequential() {
        // Measurement cells must be safe to fan out: same cycle counts as
        // a sequential loop, in the same order.
        let b = benchmark("fir").unwrap();
        let cells = [OptLevel::baseline(), OptLevel::full()];
        let par = par_map(&cells, |&opt| {
            measure(b, 64, IsaSpec::dsp16(), opt, 5).cycles
        });
        let seq: Vec<u64> = cells
            .iter()
            .map(|&opt| measure(b, 64, IsaSpec::dsp16(), opt, 5).cycles)
            .collect();
        assert_eq!(par, seq);
    }
}
