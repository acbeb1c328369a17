//! Whole-suite differential test: every benchmark, compiled at both
//! optimization levels, executed on the cycle-level virtual ASIP, must
//! reproduce the reference interpreter's outputs — and the optimized
//! build must not be slower than the baseline.

use matic::{Compiler, OptLevel};
use matic_benchkit::{benchmark, outputs_close, sim_to_cvalue, to_sim, SUITE};
use matic_explore::runner::default_n;

#[test]
fn all_benchmarks_compile_at_both_levels() {
    for b in SUITE {
        let n = default_n(b.id);
        let args = b.arg_types(n);
        for (label, opt) in [
            ("baseline", OptLevel::baseline()),
            ("full", OptLevel::full()),
        ] {
            Compiler::new()
                .opt_level(opt)
                .compile(b.source, b.entry, &args)
                .unwrap_or_else(|e| panic!("{} [{label}] failed to compile: {e}", b.id));
        }
    }
}

#[test]
fn simulated_outputs_match_interpreter_baseline() {
    for b in SUITE {
        let n = default_n(b.id);
        let inputs = b.inputs(n, 2024);
        let expected = &b.reference_outputs(&inputs).expect("interp ok")[0];
        let compiled = Compiler::new()
            .opt_level(OptLevel::baseline())
            .compile(b.source, b.entry, &b.arg_types(n))
            .unwrap_or_else(|e| panic!("{}: {e}", b.id));
        let sim_inputs = inputs.iter().map(to_sim).collect();
        let out = compiled
            .simulate(sim_inputs)
            .unwrap_or_else(|e| panic!("{} baseline sim: {e}", b.id));
        let got = sim_to_cvalue(&out.outputs[0]);
        outputs_close(&got, expected, 1e-9).unwrap_or_else(|e| panic!("{} baseline: {e}", b.id));
    }
}

#[test]
fn simulated_outputs_match_interpreter_optimized() {
    for b in SUITE {
        let n = default_n(b.id);
        let inputs = b.inputs(n, 777);
        let expected = &b.reference_outputs(&inputs).expect("interp ok")[0];
        let compiled = Compiler::new()
            .compile(b.source, b.entry, &b.arg_types(n))
            .unwrap_or_else(|e| panic!("{}: {e}", b.id));
        let sim_inputs = inputs.iter().map(to_sim).collect();
        let out = compiled
            .simulate(sim_inputs)
            .unwrap_or_else(|e| panic!("{} optimized sim: {e}", b.id));
        let got = sim_to_cvalue(&out.outputs[0]);
        outputs_close(&got, expected, 1e-9).unwrap_or_else(|e| panic!("{} optimized: {e}", b.id));
    }
}

#[test]
fn optimization_never_hurts_and_wins_where_expected() {
    let mut speedups = Vec::new();
    for b in SUITE {
        let n = default_n(b.id);
        let inputs = b.inputs(n, 31337);
        let args = b.arg_types(n);
        let base = Compiler::new()
            .opt_level(OptLevel::baseline())
            .compile(b.source, b.entry, &args)
            .expect("baseline compiles");
        let opt = Compiler::new()
            .compile(b.source, b.entry, &args)
            .expect("optimized compiles");
        let rb = base
            .simulate(inputs.iter().map(to_sim).collect())
            .expect("baseline sim");
        let ro = opt
            .simulate(inputs.iter().map(to_sim).collect())
            .expect("optimized sim");
        let s = rb.cycles.total as f64 / ro.cycles.total as f64;
        speedups.push((b.id, s));
        assert!(
            s >= 0.99,
            "{}: optimization must not slow the kernel down (got {s:.2}x)",
            b.id
        );
    }
    // The heavily data-parallel kernels must show a clear win even at
    // these small test sizes.
    for id in ["fir", "cmult", "xcorr"] {
        let s = speedups.iter().find(|(i, _)| *i == id).unwrap().1;
        assert!(s > 2.0, "{id}: expected >2x speedup, got {s:.2}x");
    }
}

#[test]
fn vectorizer_recognizes_the_expected_idioms() {
    type ReportCheck = fn(&matic::VectorizeReport) -> bool;
    let expectations: &[(&str, ReportCheck)] = &[
        ("fir", |r| r.loops.macs >= 1),
        ("cmult", |r| r.arrays.maps >= 1),
        ("xcorr", |r| r.loops.macs >= 1),
        ("matmul", |r| r.fuse.macs_fused >= 1 || r.loops.macs >= 1),
        // IIR's feedback loop must stay scalar; its feed-forward part may
        // vectorize.
        ("iir", |_| true),
    ];
    for (id, check) in expectations {
        let b = benchmark(id).unwrap();
        let n = default_n(id);
        let compiled = Compiler::new()
            .compile(b.source, b.entry, &b.arg_types(n))
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert!(
            check(&compiled.report),
            "{id}: unexpected vectorization report {:?}",
            compiled.report
        );
    }
}
