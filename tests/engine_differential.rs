//! Differential test for the simulator's engine: for every benchmark ×
//! opt-level × target cell, the fused native engine (`Simulator::run`,
//! via decode and fusion) must produce a bit-identical
//! [`matic_asip::SimOutcome`] — outputs, printed text, total cycles,
//! instruction count, and the full per-class cycle breakdown — to the
//! tree-walking reference semantics (`run_interpreted`). Decode and
//! fusion are pure representation changes; any divergence is a bug.

use matic::{Compiled, Compiler, IsaSpec, OptLevel};
use matic_asip::AsipMachine;
use matic_benchkit::{to_sim, SUITE};
use std::sync::Arc;

/// The tree walker's machine, configured exactly as
/// `Compiled::simulator` configures the engine's.
fn oracle(compiled: &Compiled, opt: OptLevel) -> AsipMachine {
    let machine = AsipMachine::from_shared(Arc::clone(&compiled.spec));
    if opt.intrinsics {
        machine
    } else {
        machine.without_intrinsics()
    }
}

/// Small-but-representative sizes so the whole suite runs quickly.
fn test_size(id: &str) -> usize {
    match id {
        "matmul" => 8,
        "fft" => 64,
        _ => 128,
    }
}

fn check_cell(spec_name: &str, spec: IsaSpec, label: &str, opt: OptLevel) {
    for b in SUITE {
        let n = test_size(b.id);
        let compiled = Compiler::new()
            .target(spec.clone())
            .opt_level(opt)
            .compile(b.source, b.entry, &b.arg_types(n))
            .unwrap_or_else(|e| panic!("{} [{spec_name}/{label}]: compile failed: {e}", b.id));
        let inputs: Vec<_> = b.inputs(n, 42).iter().map(to_sim).collect();

        // The tree walker on the same machine configuration — the
        // reference semantics.
        let interpreted = oracle(&compiled, opt)
            .run_interpreted(&compiled.mir, &compiled.entry, inputs.clone())
            .unwrap_or_else(|e| {
                panic!("{} [{spec_name}/{label}]: tree-walk sim failed: {e}", b.id)
            });

        // The engine behind the public reusable-simulator API must
        // reproduce it bit-for-bit.
        let outcome = compiled
            .simulator()
            .run(inputs.clone())
            .unwrap_or_else(|e| panic!("{} [{spec_name}/{label}]: sim failed: {e}", b.id));
        assert_eq!(
            outcome.cycles.total, interpreted.cycles.total,
            "{} [{spec_name}/{label}]: total cycles diverge",
            b.id
        );
        assert_eq!(
            outcome.cycles.instructions, interpreted.cycles.instructions,
            "{} [{spec_name}/{label}]: instruction counts diverge",
            b.id
        );
        assert_eq!(
            outcome.cycles.by_class, interpreted.cycles.by_class,
            "{} [{spec_name}/{label}]: per-class cycle breakdown diverges",
            b.id
        );
        // Outputs and printed text must be bit-identical, not close.
        assert_eq!(
            outcome, interpreted,
            "{} [{spec_name}/{label}]: outcomes diverge",
            b.id
        );
    }
}

/// Profiling must be observationally free: enabling per-span attribution
/// may not change a single cycle, instruction, output byte, or printed
/// character on the engine or the tree walker — the profiler only
/// *observes* charges that happen anyway.
fn check_profiling_is_free(spec_name: &str, spec: IsaSpec, opt: OptLevel) {
    for b in SUITE {
        let n = test_size(b.id);
        let compiled = Compiler::new()
            .target(spec.clone())
            .opt_level(opt)
            .compile(b.source, b.entry, &b.arg_types(n))
            .unwrap_or_else(|e| panic!("{} [{spec_name}]: compile failed: {e}", b.id));
        let inputs: Vec<_> = b.inputs(n, 42).iter().map(to_sim).collect();

        // The engine: off vs on.
        let plain = compiled.simulator().run(inputs.clone()).unwrap();
        let profiled = compiled
            .simulator()
            .with_profiling(true)
            .run(inputs.clone())
            .unwrap();
        assert!(
            plain.profile.is_none(),
            "{}: profile off must be None",
            b.id
        );
        let profile = profiled.profile.as_ref().unwrap_or_else(|| {
            panic!("{} [{spec_name}]: profiling on must attach a profile", b.id)
        });
        assert_eq!(
            profile.total_cycles(),
            profiled.cycles.total,
            "{} [{spec_name}]: profile must account for every cycle",
            b.id
        );
        assert_eq!(
            (&plain.outputs, &plain.printed, &plain.cycles),
            (&profiled.outputs, &profiled.printed, &profiled.cycles),
            "{} [{spec_name}]: profiling changed engine behavior",
            b.id
        );

        // The tree walker: same invariant.
        let plain_tw = oracle(&compiled, opt)
            .run_interpreted(&compiled.mir, &compiled.entry, inputs.clone())
            .unwrap();
        let profiled_tw = oracle(&compiled, opt)
            .with_profiling(true)
            .run_interpreted(&compiled.mir, &compiled.entry, inputs)
            .unwrap();
        assert_eq!(
            (&plain_tw.outputs, &plain_tw.printed, &plain_tw.cycles),
            (
                &profiled_tw.outputs,
                &profiled_tw.printed,
                &profiled_tw.cycles
            ),
            "{} [{spec_name}]: profiling changed tree-walk behavior",
            b.id
        );

        // Both must attribute identically, span by span.
        assert_eq!(
            profiled.profile, profiled_tw.profile,
            "{} [{spec_name}]: per-span attribution diverges from the tree walker",
            b.id
        );
    }
}

#[test]
fn profiling_is_observationally_free_dsp16_full() {
    check_profiling_is_free("dsp16", IsaSpec::dsp16(), OptLevel::full());
}

#[test]
fn profiling_is_observationally_free_dsp16_baseline() {
    check_profiling_is_free("dsp16", IsaSpec::dsp16(), OptLevel::baseline());
}

#[test]
fn profiling_is_observationally_free_scalar_full() {
    check_profiling_is_free("scalar", IsaSpec::scalar_baseline(), OptLevel::full());
}

#[test]
fn decoded_engine_matches_tree_walker_dsp16_baseline() {
    check_cell("dsp16", IsaSpec::dsp16(), "baseline", OptLevel::baseline());
}

#[test]
fn decoded_engine_matches_tree_walker_dsp16_full() {
    check_cell("dsp16", IsaSpec::dsp16(), "full", OptLevel::full());
}

#[test]
fn decoded_engine_matches_tree_walker_scalar_baseline_opt() {
    check_cell(
        "scalar",
        IsaSpec::scalar_baseline(),
        "baseline",
        OptLevel::baseline(),
    );
}

#[test]
fn decoded_engine_matches_tree_walker_scalar_full() {
    check_cell(
        "scalar",
        IsaSpec::scalar_baseline(),
        "full",
        OptLevel::full(),
    );
}

/// Sweeps every fuel value from 0 to one past the program's full budget
/// and checks that the engine and the tree walker agree exactly on the
/// outcome at each value: same success/failure, same error kind, same
/// message and span on failure, bit-identical outcome on success.
///
/// This pins the native engine's bulk fuel accounting: superinstructions
/// and compiled chains subtract fuel for a whole block up front (after
/// checking it is available) and otherwise fall back to per-op execution,
/// so every fuel value that would exhaust *mid*-block must still report
/// exhaustion at exactly the statement the tree walker would.
fn check_fuel_sweep(source: &str, entry: &str, sig: &[matic::Ty], opt: OptLevel) {
    let compiled = Compiler::new()
        .opt_level(opt)
        .compile(source, entry, sig)
        .expect("compile");
    let inputs: Vec<matic::SimVal> = sig
        .iter()
        .map(|t| {
            let n = t.shape.numel().unwrap_or(1);
            matic::SimVal::row(&(0..n).map(|k| (k % 7) as f64 - 3.0).collect::<Vec<_>>())
        })
        .collect();
    // Find a fuel budget that lets the program finish (statement count is
    // bounded by total cycles).
    let full = compiled
        .simulator()
        .run(inputs.clone())
        .expect("unlimited run succeeds");
    let budget = full.cycles.total + 1;
    let mut exhausted_at = 0u64;
    let mut completed_at = None;
    let mut fuel = 0u64;
    while fuel <= budget {
        let reference = oracle(&compiled, opt).with_fuel(fuel).run_interpreted(
            &compiled.mir,
            &compiled.entry,
            inputs.clone(),
        );
        let r = compiled.simulator().with_fuel(fuel).run(inputs.clone());
        match (&reference, &r) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "fuel {fuel}: outcome diverges"),
            (Err(a), Err(b)) => {
                assert_eq!(a.kind, b.kind, "fuel {fuel}: error kind diverges");
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "fuel {fuel}: error message diverges"
                );
            }
            _ => panic!(
                "fuel {fuel}: engine disagrees with tree on success: {:?} vs {:?}",
                reference.as_ref().map(|_| ()),
                r.as_ref().map(|_| ())
            ),
        }
        match reference {
            Err(e) => {
                assert_eq!(
                    e.kind,
                    matic_asip::SimErrorKind::FuelExhausted,
                    "fuel {fuel}: unexpected error {e}"
                );
                exhausted_at += 1;
                fuel += 1;
            }
            Ok(_) => {
                // Once any fuel value completes, every larger one must too
                // (checked implicitly by the final full-budget iteration).
                if completed_at.is_none() {
                    completed_at = Some(fuel);
                }
                // The interesting boundary is behind us; jump to the end.
                fuel = if fuel < budget { budget } else { budget + 1 };
            }
        }
    }
    let completed_at = completed_at.expect("sweep must reach a completing fuel value");
    assert!(
        exhausted_at >= 2,
        "sweep never exercised exhaustion (completes at {completed_at})"
    );
}

/// A kernel whose optimized native form contains both multi-op compiled
/// chains (the scalar MAC loop) and vector superinstructions, so the
/// sweep crosses block boundaries of both kinds.
const FUEL_SWEEP_SRC: &str = "function y = f(x, h)\n\
     n = numel(x);\n\
     m = numel(h);\n\
     y = zeros(1, n);\n\
     for i = 1:n\n\
       acc = 0;\n\
       for k = 1:m\n\
         if i - k + 1 >= 1\n\
           acc = acc + h(k) * x(i - k + 1);\n\
         end\n\
       end\n\
       y(i) = acc;\n\
     end\n\
     y = y * 2;\n\
     end\n";

#[test]
fn fuel_exhaustion_agrees_across_engines_baseline() {
    check_fuel_sweep(
        FUEL_SWEEP_SRC,
        "f",
        &[matic::arg::vector(12), matic::arg::vector(4)],
        OptLevel::baseline(),
    );
}

#[test]
fn fuel_exhaustion_agrees_across_engines_full() {
    check_fuel_sweep(
        FUEL_SWEEP_SRC,
        "f",
        &[matic::arg::vector(12), matic::arg::vector(4)],
        OptLevel::full(),
    );
}

/// The fir kernel at (v12, v4), baseline: its inner MAC loop body is one
/// compiled chain and nothing else (no `if`, unlike `FUEL_SWEEP_SRC`), so
/// the sweep crosses every fuel value inside a counted loop whose whole
/// body the native engine may run as one step.
#[test]
fn fuel_exhaustion_agrees_across_engines_single_chain_loop() {
    let fir = matic_benchkit::benchmark("fir").expect("fir benchmark");
    check_fuel_sweep(
        fir.source,
        fir.entry,
        &[matic::arg::vector(12), matic::arg::vector(4)],
        OptLevel::baseline(),
    );
}

/// Runs `source` on the native engine and on the tree walker, each with
/// profiling off and on, at both opt levels, and checks they agree
/// exactly: a bit-identical outcome (outputs, printed text, total cycles,
/// instruction count, per-class breakdown, and per-span profile) on
/// success; the same error kind, message and span on failure. Returns the
/// unprofiled baseline result for case-specific assertions.
fn check_agrees(
    label: &str,
    source: &str,
    sig: &[matic::Ty],
    inputs: &[matic::SimVal],
) -> Result<matic_asip::SimOutcome, matic_asip::SimError> {
    let mut first = None;
    for opt in [OptLevel::baseline(), OptLevel::full()] {
        let compiled = Compiler::new()
            .opt_level(opt)
            .compile(source, "f", sig)
            .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        let mut plain = None;
        for profiling in [false, true] {
            let reference = oracle(&compiled, opt)
                .with_profiling(profiling)
                .run_interpreted(&compiled.mir, &compiled.entry, inputs.to_vec());
            let native = compiled
                .simulator()
                .with_profiling(profiling)
                .run(inputs.to_vec());
            let tag = format!(
                "{label} [intrinsics {}, profiling {profiling}]",
                opt.intrinsics
            );
            match (&reference, &native) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.cycles.total, b.cycles.total, "{tag}: total cycles");
                    assert_eq!(
                        a.cycles.by_class, b.cycles.by_class,
                        "{tag}: per-class cycles"
                    );
                    assert_eq!(a, b, "{tag}: outcome");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.kind, b.kind, "{tag}: error kind");
                    assert_eq!(a.message, b.message, "{tag}: error message");
                    assert_eq!(a.span, b.span, "{tag}: error span");
                }
                _ => panic!("{tag}: engines disagree on success: {reference:?} vs {native:?}"),
            }
            // Profiling only observes: the unprofiled run must match the
            // profiled one in everything but the attached profile.
            let stripped = native.map(|mut o| {
                o.profile = None;
                o
            });
            match &plain {
                None => plain = Some(stripped),
                Some(p) => assert_eq!(p, &stripped, "{tag}: profiling changed the outcome"),
            }
        }
        if first.is_none() {
            first = plain;
        }
    }
    first.expect("at least one opt level ran")
}

#[test]
fn single_chain_loop_with_zero_trips_agrees() {
    let src = "function y = f(x)\n\
               n = numel(x);\n\
               acc = 1;\n\
               for k = 1:n - n\n\
                 acc = acc + x(k) * 2;\n\
               end\n\
               y = acc;\n\
               end\n";
    let out = check_agrees(
        "zero trip",
        src,
        &[matic::arg::vector(6)],
        &[matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])],
    )
    .expect("zero-trip loop runs");
    assert_eq!(out.outputs, vec![matic::SimVal::scalar(1.0)]);
}

#[test]
fn single_chain_loops_with_negative_and_fractional_steps_agree() {
    let src = "function y = f(x)\n\
               n = numel(x);\n\
               acc = 0;\n\
               for k = n:-1:1\n\
                 acc = acc * 0.5 + x(k);\n\
               end\n\
               s = 0;\n\
               for t = 0:0.25:2\n\
                 s = s + t * t - x(1);\n\
               end\n\
               y = acc + s;\n\
               end\n";
    check_agrees(
        "negative and fractional steps",
        src,
        &[matic::arg::vector(5)],
        &[matic::SimVal::row(&[1.0, -2.0, 3.5, 4.0, 0.25])],
    )
    .expect("stepped loops run");
}

#[test]
fn single_chain_loop_meeting_a_complex_value_mid_loop_agrees() {
    let src = "function [y, acc] = f(x, h)\n\
               n = numel(x);\n\
               y = zeros(1, n);\n\
               acc = 0;\n\
               for k = 1:n\n\
                 acc = acc + x(k) * h(k);\n\
                 y(k) = x(k) * 3;\n\
               end\n\
               end\n";
    // Real until the fifth element, complex from there on.
    let x = matic::SimVal::cx_row(&[
        (1.0, 0.0),
        (2.0, 0.0),
        (-1.0, 0.0),
        (0.5, 0.0),
        (1.0, 2.0),
        (3.0, 0.0),
        (0.0, -1.0),
        (2.0, 0.0),
    ]);
    check_agrees(
        "complex mid-loop",
        src,
        &[matic::arg::cx_vector(8), matic::arg::vector(8)],
        &[
            x,
            matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
        ],
    )
    .expect("complex loop runs");
}

#[test]
fn single_chain_loop_faulting_after_the_first_iteration_agrees() {
    let load = "function y = f(x)\n\
                n = numel(x);\n\
                acc = 0;\n\
                for k = 1:n + 2\n\
                  acc = acc + x(k) * 2;\n\
                end\n\
                y = acc;\n\
                end\n";
    let err = check_agrees(
        "load out of bounds",
        load,
        &[matic::arg::vector(4)],
        &[matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0])],
    )
    .expect_err("reading past the end faults");
    assert_eq!(err.kind, matic_asip::SimErrorKind::OutOfBounds);

    let store = "function y = f(x)\n\
                 n = numel(x);\n\
                 y = zeros(1, n);\n\
                 for k = 1:n\n\
                   y(2 * k - 1) = x(k) + 1;\n\
                 end\n\
                 end\n";
    let err = check_agrees(
        "store out of bounds",
        store,
        &[matic::arg::vector(4)],
        &[matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0])],
    )
    .expect_err("storing past the end faults");
    assert_eq!(err.kind, matic_asip::SimErrorKind::OutOfBounds);
}

#[test]
fn single_chain_loop_reassigning_its_variable_agrees() {
    let src = "function y = f(x)\n\
               n = numel(x);\n\
               acc = 0;\n\
               for k = 1:n\n\
                 k = k * 2;\n\
                 acc = acc + k + x(1);\n\
               end\n\
               y = acc;\n\
               end\n";
    check_agrees(
        "loop variable reassigned",
        src,
        &[matic::arg::vector(5)],
        &[matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0, 5.0])],
    )
    .expect("reassigning loop runs");
}

#[test]
fn single_chain_loop_whose_guard_misses_on_entry_agrees() {
    // `s` is indexed as an array but arrives as a scalar register, so
    // the chain's array guard on it fails before the first iteration.
    let src = "function y = f(x, s)\n\
               n = numel(x);\n\
               acc = 0;\n\
               for k = 1:n\n\
                 acc = acc + x(k) * s(1);\n\
               end\n\
               y = acc;\n\
               end\n";
    check_agrees(
        "guard miss on entry",
        src,
        &[matic::arg::vector(5), matic::arg::scalar()],
        &[
            matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            matic::SimVal::scalar(3.0),
        ],
    )
    .expect("guard-miss loop runs");
}
