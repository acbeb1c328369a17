//! # matic-bench
//!
//! Measurement machinery for the reproduction binaries. [`paper`] holds
//! the DATE'16 evaluation itself (Table 1, Table 2 / Fig. 2, Fig. 3 and
//! Fig. 4), which `repro_paper` writes to `PAPER_results.json` and
//! EXPERIMENTS.md; the other `repro_*` binaries cover the reconstructed
//! studies (pass ablation, compile time, simulator throughput, profiles,
//! design-space exploration, discovery, fuzzing).

pub mod paper;

use matic::{Compiled, Compiler, CycleReport, IsaSpec, OptLevel};
use matic_benchkit::{to_sim, Benchmark};

/// What one (benchmark, target, opt-level) cell measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Cycles, instructions and per-class cycles of one kernel invocation.
    pub cycles: CycleReport,
    /// Statements in the entry function's optimized MIR.
    pub mir_stmts: usize,
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
        cycles: outcome.cycles,
        mir_stmts: compiled.entry_mir().stmt_count(),
        report: (*compiled.report).clone(),
    }
}

/// The speedup of `optimized` over `baseline` cycles.
pub fn speedup(baseline: u64, optimized: u64) -> f64 {
    baseline as f64 / optimized.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_benchkit::benchmark;
    use matic_explore::par_map;

    #[test]
    fn measure_verifies_and_counts() {
        let b = benchmark("fir").unwrap();
        let m = measure(b, 64, IsaSpec::dsp16(), OptLevel::full(), 5);
        assert!(m.cycles.total > 0);
        assert!(m.cycles.instructions > 0);
        assert!(m.cycles.vector_cycles() > 0, "fir should use SIMD");
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
            measure(b, 64, IsaSpec::dsp16(), opt, 5).cycles.total
        });
        let seq: Vec<u64> = cells
            .iter()
            .map(|&opt| measure(b, 64, IsaSpec::dsp16(), opt, 5).cycles.total)
            .collect();
        assert_eq!(par, seq);
    }
}
