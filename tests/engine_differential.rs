//! Differential test for the simulator's engine: for every benchmark ×
//! opt-level × target cell, the fused native engine (`Simulator::run`,
//! via decode and fusion) must produce a bit-identical
//! [`matic_asip::SimOutcome`] — outputs, printed text, total cycles,
//! instruction count, and the full per-class cycle breakdown — to the
//! tree-walking reference semantics (`run_interpreted`). Decode and
//! fusion are pure representation changes; any divergence is a bug.

use matic::{Compiled, Compiler, IsaSpec, OptLevel};
use matic_asip::AsipMachine;
use matic_benchkit::{from_interp, outputs_close, sim_to_cvalue, to_sim, SUITE};
use matic_explore::runner::default_n;
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

fn check_cell(spec_name: &str, spec: IsaSpec, label: &str, opt: OptLevel) {
    for b in SUITE {
        let n = default_n(b.id);
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
        let n = default_n(b.id);
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

/// Runs `compiled` on the engine and on the tree walker at every fuel
/// value from 0 up to the first at which the tree walker no longer
/// exhausts its fuel, then once more with the default budget, and checks
/// that they agree exactly at each: same success or failure, the same
/// error kind and message on failure, a bit-identical outcome on success.
/// Returns that first non-exhausting fuel value and the default-budget
/// outcome.
///
/// This pins the native engine's bulk fuel accounting: superinstructions,
/// compiled chains and loop steps subtract fuel for a whole block up front
/// (after checking it is available) and otherwise fall back to per-op
/// execution, so every fuel value that would exhaust *mid*-block must
/// still report exhaustion at exactly the statement the tree walker would.
fn sweep_fuel(
    compiled: &Compiled,
    opt: OptLevel,
    inputs: &[matic::SimVal],
) -> (u64, Result<matic_asip::SimOutcome, matic_asip::SimError>) {
    let agree = |fuel: Option<u64>| {
        let (mut reference, mut sim) = (oracle(compiled, opt), compiled.simulator());
        if let Some(fuel) = fuel {
            reference = reference.with_fuel(fuel);
            sim = sim.with_fuel(fuel);
        }
        let reference = reference.run_interpreted(&compiled.mir, &compiled.entry, inputs.to_vec());
        let r = sim.run(inputs.to_vec());
        match (&reference, &r) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "fuel {fuel:?}: outcome diverges"),
            (Err(a), Err(b)) => {
                assert_eq!(a.kind, b.kind, "fuel {fuel:?}: error kind diverges");
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "fuel {fuel:?}: error message diverges"
                );
            }
            _ => panic!(
                "fuel {fuel:?}: engine disagrees with tree on success: {:?} vs {:?}",
                reference.as_ref().map(|_| ()),
                r.as_ref().map(|_| ())
            ),
        }
        reference
    };
    let mut fuel = 0u64;
    while agree(Some(fuel)).is_err_and(|e| e.kind == matic_asip::SimErrorKind::FuelExhausted) {
        fuel += 1;
    }
    (fuel, agree(None))
}

/// [`sweep_fuel`] on `source` at `opt`, with a fixed stimulus; the
/// program must complete and must exhaust at two fuel values at least.
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
    let (completes_at, full) = sweep_fuel(&compiled, opt, &inputs);
    full.expect("unlimited run succeeds");
    assert!(
        completes_at >= 2,
        "sweep never exercised exhaustion (completes at {completes_at})"
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
/// success; the same error kind, message and span on failure. Each
/// level's unprofiled outcome is also compared with `matic-interp`'s:
/// outputs within `1e-9`, or the same error kind, unless the row and
/// level are one of the listed [`INTERP_DISAGREEMENTS`]. Returns the
/// unprofiled baseline result for case-specific assertions.
fn check_agrees(
    label: &str,
    source: &str,
    sig: &[matic::Ty],
    inputs: &[matic::SimVal],
) -> Result<matic_asip::SimOutcome, matic_asip::SimError> {
    check_agrees_on(&IsaSpec::dsp16(), label, source, sig, inputs)
}

/// [`check_agrees`] on the target `spec`.
fn check_agrees_on(
    spec: &IsaSpec,
    label: &str,
    source: &str,
    sig: &[matic::Ty],
    inputs: &[matic::SimVal],
) -> Result<matic_asip::SimOutcome, matic_asip::SimError> {
    let mut first = None;
    let mut interpreted = None;
    for opt in [OptLevel::baseline(), OptLevel::full()] {
        let compiled = Compiler::new()
            .target(spec.clone())
            .opt_level(opt)
            .compile(source, "f", sig)
            .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        let interpreted = interpreted.get_or_insert_with(|| {
            let nout = compiled.mir.function("f").expect("entry").outputs.len();
            interpret(source, nout, inputs)
        });
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
        let plain = plain.expect("an unprofiled run");
        let level = if opt.vectorize { "full" } else { "baseline" };
        let agrees = match (&*interpreted, &plain) {
            (Ok(want), Ok(got)) => {
                got.outputs.len() == want.len()
                    && got
                        .outputs
                        .iter()
                        .zip(want)
                        .all(|(g, w)| outputs_close(&sim_to_cvalue(g), w, 1e-9).is_ok())
            }
            (Err(want), Err(got)) => *want == got.kind,
            _ => false,
        };
        let listed = INTERP_DISAGREEMENTS.iter().any(|&(row, levels, _)| {
            (label == row || label.starts_with(&format!("{row} on "))) && levels.contains(&level)
        });
        assert!(
            agrees != listed,
            "{label} [{level}]: matic-interp {interpreted:?}, simulator {plain:?}; {}",
            if listed {
                "agrees now: drop it from INTERP_DISAGREEMENTS"
            } else {
                "disagrees"
            }
        );
        if first.is_none() {
            first = Some(plain);
        }
    }
    first.expect("at least one opt level ran")
}

/// `matic-interp`'s outputs for `f(inputs)` with `nout` outputs, or the
/// kind of error it raises.
fn interpret(
    source: &str,
    nout: usize,
    inputs: &[matic::SimVal],
) -> Result<Vec<matic::CValue>, matic_asip::SimErrorKind> {
    let mut interp = matic::Interpreter::from_source(source).expect("source parses");
    let args = inputs
        .iter()
        .map(|v| matic::Value::from(v.clone().into_matrix()))
        .collect();
    let outputs = interp.call("f", args, nout).map_err(|e| e.kind)?;
    Ok(outputs
        .iter()
        .map(|v| from_interp(v).expect("numeric output"))
        .collect())
}

/// Rows of the [`check_agrees`] tables whose simulated outcome differs
/// from `matic-interp`'s today: the row label (on every target), the
/// levels at which it differs, and why. A listed row that agrees fails
/// [`check_agrees`], so the list stays exact.
const INTERP_DISAGREEMENTS: &[(&str, &[&str], &str)] = &[
    (
        "fractional subscript register",
        &["baseline", "full"],
        "the simulator truncates the subscript `t - 0.5`, where matic-interp raises out of bounds",
    ),
    (
        "subscript register of 2^53, where f64 sums round",
        &["full"],
        "the vectorizer folds `t + big - big` to `t` exactly; f64 sums round, \
         so matic-interp and the baseline read out of bounds",
    ),
    (
        "store out of bounds",
        &["baseline", "full"],
        "matic-interp grows an array stored past its end; compiled code traps \
         (DESIGN.md's one deliberate divergence)",
    ),
    (
        "store, out of bounds",
        &["baseline", "full"],
        "matic-interp grows the array; compiled code traps",
    ),
    (
        "2-D store, row out of bounds",
        &["baseline", "full"],
        "matic-interp grows the array; compiled code traps",
    ),
    (
        "2-D store, column out of bounds",
        &["baseline", "full"],
        "matic-interp grows the array; compiled code traps",
    ),
    (
        "2-D load, vector subscript",
        &["baseline", "full"],
        "the simulator has no 2-D gather with a vector subscript (ROADMAP item 5)",
    ),
    (
        "store, vector subscript",
        &["baseline", "full"],
        "the simulator has no scatter through a vector subscript (ROADMAP item 5)",
    ),
    (
        "2-D store, vector subscript",
        &["baseline", "full"],
        "the simulator has no 2-D scatter with a vector subscript (ROADMAP item 5)",
    ),
    (
        "copy, unset operand, result unused",
        &["baseline", "full"],
        "DCE drops the dead `t = u` with its read of the maybe-unset `u`, \
         which matic-interp raises (ROADMAP item 16)",
    ),
];

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
    // `s` is indexed as an array but is a scalar register: its load is no
    // chain op, so the loop body is no single chain and runs statement by
    // statement through the generic micro-op.
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

/// Programs whose fully optimized build once returned a value the
/// baseline and the interpreter do not: the source of `f`, its one input,
/// and the value every run returns, or a word of the error every run
/// raises.
fn optimizer_cases() -> Vec<(
    &'static str,
    &'static str,
    matic::SimVal,
    Result<f64, &'static str>,
)> {
    let x = || matic::SimVal::row(&[1.0, 2.0, 3.0, 4.0]);
    // Copy propagation may rewrite only the uses its copy dominates: `u`
    // is set only when `k > 9`.
    let maybe_unset = "function y = f(k)\n\
                       if k > 9\n\
                         u = 1;\n\
                       end\n\
                       y = 0;\n\
                       if k > 2\n\
                         y = u + 1;\n\
                       end\n\
                       end\n";
    vec![
        (
            // A vectorized inner loop must leave its variable `t` set:
            // the next outer iteration reads it.
            "inner loop variable read on the next outer iteration",
            "function y = f(x)\n\
             y = 0;\n\
             t = 0;\n\
             for k = 1:3\n\
               y = y + t;\n\
               acc = 0;\n\
               for t = 1:numel(x)\n\
                 acc = acc + x(t);\n\
               end\n\
               y = y + acc;\n\
             end\n\
             end\n",
            x(),
            Ok(38.0),
        ),
        (
            // A body that reads a register before redefining it carries
            // the value from its previous iteration.
            "accumulator reads a register before its def",
            "function y = f(x)\n\
             u = 1;\n\
             y = 0;\n\
             for j = 1:numel(x)\n\
               y = y + u;\n\
               u = x(j);\n\
             end\n\
             end\n",
            x(),
            Ok(7.0),
        ),
        (
            "store reads a register before its def",
            "function s = f(x)\n\
             y = zeros(1, 4);\n\
             t = 0;\n\
             for k = 1:4\n\
               y(k) = t;\n\
               t = x(k);\n\
             end\n\
             s = y(1) + 10 * y(2) + 100 * y(3) + 1000 * y(4);\n\
             end\n",
            x(),
            Ok(3210.0),
        ),
        (
            "copy of a maybe-unset register, unset",
            maybe_unset,
            matic::SimVal::scalar(3.0),
            Err("`u`"),
        ),
        (
            "copy of a maybe-unset register, set",
            maybe_unset,
            matic::SimVal::scalar(10.0),
            Ok(2.0),
        ),
    ]
}

/// Every optimizer case returns the same value, or raises, on
/// `matic-interp` and, at both opt levels, on the native engine and the
/// tree walker.
#[test]
fn optimized_builds_agree_with_the_interpreter() {
    for (label, src, input, want) in optimizer_cases() {
        let sig = [if input.as_matrix().is_some() {
            matic::arg::vector(4)
        } else {
            matic::arg::scalar()
        }];
        let mut interp = matic::Interpreter::from_source(src).expect("parses");
        let args = vec![matic::Value::from(input.clone().into_matrix())];
        let mut runs = vec![(
            "interp".to_string(),
            interp
                .call("f", args, 1)
                .map(|v| v[0].as_matrix().unwrap().as_real_scalar().unwrap())
                .map_err(|e| e.message),
        )];
        for opt in [OptLevel::baseline(), OptLevel::full()] {
            let compiled = Compiler::new()
                .opt_level(opt)
                .compile(src, "f", &sig)
                .expect("compiles");
            let input = vec![input.clone()];
            let engine = compiled.simulator().run(input.clone());
            let walker =
                oracle(&compiled, opt).run_interpreted(&compiled.mir, &compiled.entry, input);
            for (name, res) in [("engine", engine), ("walker", walker)] {
                let value = res
                    .map(|o| o.outputs[0].as_cx().unwrap().re)
                    .map_err(|e| e.message);
                runs.push((format!("{name}, intrinsics {}", opt.intrinsics), value));
            }
        }
        for (run, value) in runs {
            match (want, value) {
                (Ok(w), Ok(v)) => assert_eq!(v, w, "{label}: {run}"),
                (Err(word), Err(message)) => {
                    assert!(message.contains(word), "{label}: {run}: {message}")
                }
                (_, value) => panic!("{label}: {run}: {value:?}"),
            }
        }
    }
}

/// The stimulus `[1 2 .. n]` scaled by `k`.
fn ramp(n: usize, k: f64) -> matic::SimVal {
    matic::SimVal::row(&(1..=n).map(|i| k * i as f64).collect::<Vec<_>>())
}

/// How a reduction or single-statement case ends.
enum Ends {
    Ok,
    /// Success, with these real parts of the output's elements.
    Values(&'static [f64]),
    Fault(matic_asip::SimErrorKind),
}

/// One reduction case: a label, the source of `f`, its signature and
/// inputs, and how it ends at the baseline level.
type ReductionCase = (
    &'static str,
    &'static str,
    Vec<matic::Ty>,
    Vec<matic::SimVal>,
    Ends,
);

/// Scalar reduction loops, `acc = acc + A(i) * B(j)` or `acc = acc + A(i)`,
/// which the native engine may fold in one step while the tree walker
/// runs them statement by statement: every shape the fold accepts, and
/// every way a loop leaves the fold part-way or never enters it.
fn reduction_cases() -> Vec<ReductionCase> {
    use matic::arg::{cx_vector, scalar, vector};
    use matic_asip::SimErrorKind::{OutOfBounds, Trap};
    let cx = |pairs: &[(f64, f64)]| matic::SimVal::cx_row(pairs);
    vec![
        (
            "fir",
            "function y = f(x, h)\n\
             n = numel(x);\n\
             m = numel(h);\n\
             y = zeros(1, n);\n\
             for k = 1:n\n\
               acc = 0;\n\
               hi = min(k, m);\n\
               for t = 1:hi\n\
                 acc = acc + h(t) * x(k - t + 1);\n\
               end\n\
               y(k) = acc;\n\
             end\n\
             end\n",
            vec![vector(12), vector(4)],
            vec![ramp(12, 0.5), ramp(4, -1.25)],
            Ends::Ok,
        ),
        (
            "xcorr",
            "function r = f(x, y, maxlag)\n\
             n = numel(x);\n\
             r = zeros(1, 2 * maxlag + 1);\n\
             for lag = -maxlag:maxlag\n\
               acc = 0;\n\
               lo = max(1, 1 - lag);\n\
               hi = min(n, n - lag);\n\
               for t = lo:hi\n\
                 acc = acc + x(t + lag) * y(t);\n\
               end\n\
               r(lag + maxlag + 1) = acc;\n\
             end\n\
             end\n",
            vec![vector(10), vector(10), scalar()],
            vec![ramp(10, 1.0), ramp(10, 0.25), matic::SimVal::scalar(3.0)],
            Ends::Ok,
        ),
        (
            "sum",
            "function y = f(x)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t);\n\
             end\n\
             y = acc + 1000 * t;\n\
             end\n",
            vec![vector(9)],
            vec![ramp(9, 1.5)],
            Ends::Ok,
        ),
        (
            "reversed loop",
            "function y = f(x, h)\n\
             n = numel(x);\n\
             acc = 0;\n\
             for t = n:-1:1\n\
               acc = acc + x(t) * h(n - t + 1);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(8), vector(8)],
            vec![ramp(8, 1.0), ramp(8, 0.125)],
            Ends::Ok,
        ),
        (
            "stride 2",
            "function y = f(x)\n\
             acc = 0;\n\
             for t = 1:2:numel(x) - 1\n\
               acc = acc + x(t) * x(t + 1);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(10)],
            vec![ramp(10, 0.75)],
            Ends::Ok,
        ),
        (
            "non-integer bounds",
            "function y = f(x)\n\
             acc = 0;\n\
             for t = 1.5:1:4.5\n\
               acc = acc + x(t + t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(10)],
            vec![ramp(10, 2.0)],
            Ends::Ok,
        ),
        (
            "fractional subscript register",
            "function y = f(x, o)\n\
             acc = 0;\n\
             for t = 2:numel(x)\n\
               acc = acc + x(t + o) * x(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(8), scalar()],
            vec![ramp(8, 1.0), matic::SimVal::scalar(-0.5)],
            Ends::Ok,
        ),
        (
            "subscript register of 2^53, where f64 sums round",
            "function y = f(x, big)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t + big - big);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(8), scalar()],
            vec![ramp(8, 1.0), matic::SimVal::scalar(2f64.powi(53))],
            Ends::Fault(OutOfBounds),
        ),
        (
            "window leaves bounds at the top mid-trip",
            "function y = f(x, h)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t) * h(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(8), vector(5)],
            vec![ramp(8, 1.0), ramp(5, 1.0)],
            Ends::Fault(OutOfBounds),
        ),
        (
            "window leaves bounds at the bottom mid-trip",
            "function y = f(x, h)\n\
             acc = 0;\n\
             for t = numel(x):-1:1\n\
               acc = acc + x(t) * h(t - 2);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(8), vector(8)],
            vec![ramp(8, 1.0), ramp(8, 1.0)],
            Ends::Fault(OutOfBounds),
        ),
        (
            "complex input arrays",
            "function y = f(x, h)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t) * h(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![cx_vector(6), cx_vector(6)],
            vec![
                cx(&[
                    (1.0, 1.0),
                    (2.0, -1.0),
                    (0.5, 0.0),
                    (1.0, 0.0),
                    (3.0, 2.0),
                    (-1.0, 0.5),
                ]),
                cx(&[
                    (1.0, 0.0),
                    (2.0, 0.0),
                    (0.0, 1.0),
                    (4.0, 0.0),
                    (1.0, 1.0),
                    (2.0, 0.0),
                ]),
            ],
            Ends::Ok,
        ),
        (
            "complex elements from mid-trip",
            "function y = f(x, h)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + h(t) * x(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![cx_vector(6), vector(6)],
            vec![
                cx(&[
                    (1.0, 0.0),
                    (2.0, 0.0),
                    (0.5, 0.0),
                    (1.0, 3.0),
                    (3.0, 0.0),
                    (-1.0, 0.0),
                ]),
                ramp(6, 1.0),
            ],
            Ends::Ok,
        ),
        (
            // (1 + 1i) * 0 is real, but the multiply still meets a
            // complex factor and is charged as complex.
            "a complex element times zero",
            "function y = f(x, h)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t) * h(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![cx_vector(4), vector(4)],
            vec![
                cx(&[(1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (3.0, 0.0)]),
                matic::SimVal::row(&[1.0, 2.0, 0.0, 4.0]),
            ],
            Ends::Ok,
        ),
        (
            "a sum meeting a complex element mid-trip",
            "function y = f(x)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![cx_vector(5)],
            vec![cx(&[
                (1.0, 0.0),
                (2.0, 0.0),
                (3.0, 4.0),
                (5.0, 0.0),
                (1.0, -4.0),
            ])],
            Ends::Ok,
        ),
        (
            // Inf times a real is (Inf, Inf*0 = NaN): the product turns
            // complex mid-trip. `real(acc)` keeps the output NaN-free so
            // outcomes compare equal.
            "an Inf element makes the product complex mid-trip",
            "function y = f(x, h)\n\
             acc = 0;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t) * h(t);\n\
             end\n\
             y = real(acc);\n\
             end\n",
            vec![vector(6), vector(6)],
            vec![
                matic::SimVal::row(&[1.0, 2.0, f64::INFINITY, 4.0, 5.0, 6.0]),
                ramp(6, 1.0),
            ],
            Ends::Ok,
        ),
        (
            "acc starts complex",
            "function y = f(x, h)\n\
             acc = 2i;\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t) * h(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(6), vector(6)],
            vec![ramp(6, 1.0), ramp(6, -0.5)],
            Ends::Ok,
        ),
        (
            "acc is the loop variable",
            "function y = f(x)\n\
             for t = 1:numel(x)\n\
               t = t + x(2);\n\
             end\n\
             y = t;\n\
             end\n",
            vec![vector(6)],
            vec![ramp(6, 1.0)],
            Ends::Ok,
        ),
        (
            // `acc` is set only when `k > 9`: the loop chain's scalar guard
            // on it fails on entry, and the statement raises the read.
            "acc unset on entry",
            "function y = f(x, k)\n\
             if k > 9\n\
               acc = 0;\n\
             end\n\
             for t = 1:numel(x)\n\
               acc = acc + x(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(5), scalar()],
            vec![ramp(5, 1.0), matic::SimVal::scalar(3.0)],
            Ends::Fault(Trap),
        ),
        (
            "zero-trip loop",
            "function y = f(x, h)\n\
             acc = 3;\n\
             for t = 1:numel(x) - numel(h)\n\
               acc = acc + x(t) * h(t);\n\
             end\n\
             y = acc;\n\
             end\n",
            vec![vector(6), vector(6)],
            vec![ramp(6, 1.0), ramp(6, 1.0)],
            Ends::Ok,
        ),
    ]
}

/// Every reduction case agrees between the engine and the tree walker at
/// both opt levels, profiled or not, and at every fuel value up to the
/// one that completes it; at the baseline level, where the loops stay
/// scalar, it ends as the table says.
#[test]
fn reduction_loops_agree_across_engines_and_fuel() {
    for (label, src, sig, inputs, ends) in reduction_cases() {
        let result = check_agrees(label, src, &sig, &inputs);
        match (&result, ends) {
            (Ok(_), Ends::Ok) => {}
            (Err(e), Ends::Fault(kind)) => assert_eq!(e.kind, kind, "{label}: {e}"),
            _ => panic!("{label}: unexpected outcome {result:?}"),
        }
        for opt in [OptLevel::baseline(), OptLevel::full()] {
            let compiled = Compiler::new()
                .opt_level(opt)
                .compile(src, "f", &sig)
                .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
            let (_, full) = sweep_fuel(&compiled, opt, &inputs);
            if !opt.vectorize {
                assert_eq!(full.is_ok(), result.is_ok(), "{label}: default budget");
            }
        }
    }
}

/// With fuel one short of what a reduction loop needs to finish, neither
/// engine may take the whole trip at once: both exhaust, at the same
/// statement.
#[test]
fn reduction_loop_one_fuel_short_of_its_trip_agrees() {
    let (label, src, sig, inputs, _) = reduction_cases().swap_remove(2);
    assert_eq!(label, "sum");
    let opt = OptLevel::baseline();
    let compiled = Compiler::new()
        .opt_level(opt)
        .compile(src, "f", &sig)
        .expect("compile");
    let (completes_at, _) = sweep_fuel(&compiled, opt, &inputs);
    let short = |engine: Result<matic_asip::SimOutcome, matic_asip::SimError>| {
        engine.expect_err("one fuel short must exhaust")
    };
    let reference = short(
        oracle(&compiled, opt)
            .with_fuel(completes_at - 1)
            .run_interpreted(&compiled.mir, &compiled.entry, inputs.clone()),
    );
    let native = short(compiled.simulator().with_fuel(completes_at - 1).run(inputs));
    assert_eq!(reference.kind, matic_asip::SimErrorKind::FuelExhausted);
    assert_eq!(reference, native);
}

/// One single-statement case: a label, the text that sets `y` up (or
/// nothing), the control step holding the statement, the value of `k`,
/// and how it ends at the baseline level.
type StatementCase = (&'static str, &'static str, String, f64, Ends);

/// `stmt` alone in the body of an `if`.
fn in_if(stmt: &str) -> String {
    format!("if k > 0\n  {stmt}\nend")
}

/// Each scalar statement kind the native engine runs as a compiled chain
/// (binop, unary, copy, 1-D and 2-D element load and store, scalar
/// builtin), placed alone between control steps so that it forms a chain
/// of one op: with real and complex operands, an array operand or base
/// the chain's shape guards reject, an unset operand, out-of-bounds
/// subscripts, a gather subscript and a scalar base; plus a scalar `&&`,
/// whose lowering puts one statement in each branch of an `if`, and
/// builtins inside longer chains. The function is
/// `f(x, z, A, c, v, s, k)` over a real 1×4 `x`, a complex 1×4 `z`, a
/// real 3×4 `A`, a complex scalar `c`, the subscript vector `v = [2 1]`
/// and real scalars `s = 3` and `k`; `u` is set only when `k > 9`.
fn statement_cases() -> Vec<StatementCase> {
    use matic_asip::SimErrorKind::{OutOfBounds, Trap};
    use Ends::{Fault, Ok, Values};
    vec![
        ("binop, real", "y = 0;", in_if("y = k * 3;"), 2.0, Ok),
        ("binop, complex", "y = c;", in_if("y = c * k;"), 2.0, Ok),
        (
            "binop, array operand",
            "y = x;",
            in_if("y = x + k;"),
            2.0,
            Ok,
        ),
        (
            "binop, unset operand",
            "y = 0;",
            in_if("y = u + 1;"),
            2.0,
            Fault(Trap),
        ),
        (
            "binop in a while body",
            "y = 0;",
            "while y < k\n  y = y + 1.5;\nend".into(),
            4.0,
            Ok,
        ),
        ("unary, real", "y = 0;", in_if("y = -k;"), 2.0, Ok),
        ("unary, complex", "y = c;", in_if("y = -c;"), 2.0, Ok),
        ("unary, array operand", "y = x;", in_if("y = -x;"), 2.0, Ok),
        (
            "unary, unset operand",
            "y = 0;",
            in_if("y = -u;"),
            2.0,
            Fault(Trap),
        ),
        ("copy, real", "y = 0;", in_if("y = k;"), 2.0, Ok),
        ("copy, complex", "y = c;", in_if("y = c;"), 2.0, Ok),
        ("copy, array operand", "y = z;", in_if("y = x;"), 2.0, Ok),
        (
            "copy, unset operand",
            "y = 0;",
            in_if("y = u;"),
            2.0,
            Fault(Trap),
        ),
        (
            "copy, unset operand, result unused",
            "y = 0;",
            in_if("t = u;"),
            2.0,
            Ok,
        ),
        ("load, real", "y = 0;", in_if("y = x(k);"), 2.0, Ok),
        ("load, complex", "y = c;", in_if("y = z(k);"), 3.0, Ok),
        (
            "load, out of bounds",
            "y = 0;",
            in_if("y = x(k);"),
            5.0,
            Fault(OutOfBounds),
        ),
        (
            "load, gather subscript",
            "y = x;",
            in_if("y = x(v);"),
            2.0,
            Ok,
        ),
        ("load, scalar base", "y = 0;", in_if("y = s(1);"), 2.0, Ok),
        (
            "load, unset subscript",
            "y = 0;",
            in_if("y = x(u);"),
            2.0,
            Fault(Trap),
        ),
        ("2-D load, real", "y = 0;", in_if("y = A(k, 3);"), 2.0, Ok),
        (
            "2-D load, row out of bounds",
            "y = 0;",
            in_if("y = A(k, 1);"),
            4.0,
            Fault(OutOfBounds),
        ),
        (
            "2-D load, column out of bounds",
            "y = 0;",
            in_if("y = A(1, k);"),
            5.0,
            Fault(OutOfBounds),
        ),
        // The simulator has no 2-D gather: a vector subscript of a 2-D
        // access traps where its axis wants a scalar.
        (
            "2-D load, vector subscript",
            "y = x;",
            in_if("y = A(2, v);"),
            2.0,
            Fault(Trap),
        ),
        (
            "2-D load, scalar base",
            "y = 0;",
            in_if("y = s(1, 1);"),
            2.0,
            Ok,
        ),
        (
            "2-D load, unset subscript",
            "y = 0;",
            in_if("y = A(1, u);"),
            2.0,
            Fault(Trap),
        ),
        ("store, real", "y = x;", in_if("y(k) = 5;"), 2.0, Ok),
        (
            "store, complex value",
            "y = z;",
            in_if("y(k) = c;"),
            3.0,
            Ok,
        ),
        (
            "store, out of bounds",
            "y = x;",
            in_if("y(k) = 5;"),
            5.0,
            Fault(OutOfBounds),
        ),
        // Nor a scatter through a vector subscript.
        (
            "store, vector subscript",
            "y = x;",
            in_if("y(v) = 5;"),
            2.0,
            Fault(Trap),
        ),
        ("store, scalar base", "y = s;", in_if("y(1) = k;"), 2.0, Ok),
        (
            "store, unset value",
            "y = x;",
            in_if("y(k) = u;"),
            2.0,
            Fault(Trap),
        ),
        ("2-D store, real", "y = A;", in_if("y(k, 2) = 7;"), 2.0, Ok),
        (
            "2-D store, complex value",
            "y = A * c;",
            in_if("y(k, 2) = c;"),
            3.0,
            Ok,
        ),
        (
            "2-D store, row out of bounds",
            "y = A;",
            in_if("y(k, 2) = 7;"),
            4.0,
            Fault(OutOfBounds),
        ),
        (
            "2-D store, column out of bounds",
            "y = A;",
            in_if("y(2, k) = 7;"),
            5.0,
            Fault(OutOfBounds),
        ),
        (
            "2-D store, vector subscript",
            "y = A;",
            in_if("y(v, 2) = 7;"),
            2.0,
            Fault(Trap),
        ),
        (
            "2-D store, scalar base",
            "y = s;",
            in_if("y(1, 1) = k;"),
            2.0,
            Ok,
        ),
        ("scalar &&", "y = 0;", in_if("y = k && x(2);"), 2.0, Ok),
        (
            "scalar && short-circuits",
            "y = 1;",
            in_if("y = s && x(1);"),
            2.0,
            Ok,
        ),
        (
            "numel of an array",
            "y = 0;",
            in_if("y = numel(x);"),
            2.0,
            Values(&[4.0]),
        ),
        (
            "length of a matrix",
            "y = 0;",
            in_if("y = length(A);"),
            2.0,
            Ok,
        ),
        (
            "isempty of an array",
            "y = 0;",
            in_if("y = isempty(z);"),
            2.0,
            Ok,
        ),
        (
            "numel of a scalar",
            "y = 0;",
            in_if("y = numel(k);"),
            2.0,
            Ok,
        ),
        // `r` is typed as an array (it may hold `x`) but holds the scalar
        // row count `size` wrote: the chain's array guard misses.
        (
            "numel of a scalar-held register",
            "[r, q] = size(x);\nif k > 5\n  r = x;\nend\ny = 0;",
            in_if("y = numel(r);"),
            2.0,
            Ok,
        ),
        (
            "numel of an unset register",
            "y = 0;",
            in_if("y = numel(u);"),
            2.0,
            Fault(Trap),
        ),
        (
            "size(A, d), rows",
            "y = 0;",
            in_if("y = size(A, k);"),
            1.0,
            Values(&[3.0]),
        ),
        (
            "size(A, d), columns",
            "y = 0;",
            in_if("y = size(A, k);"),
            2.0,
            Values(&[4.0]),
        ),
        (
            "size(A, d), past",
            "y = 0;",
            in_if("y = size(A, k);"),
            3.0,
            Values(&[1.0]),
        ),
        (
            "min, real",
            "y = 0;",
            in_if("y = min(k, s);"),
            2.0,
            Values(&[2.0]),
        ),
        (
            "max, real",
            "y = 0;",
            in_if("y = max(k, s);"),
            2.0,
            Values(&[3.0]),
        ),
        ("min, one scalar", "y = 0;", in_if("y = min(k);"), 2.0, Ok),
        (
            "max, unset first operand",
            "y = 0;",
            in_if("y = max(u, k);"),
            2.0,
            Fault(Trap),
        ),
        (
            "min, unset second operand",
            "y = 0;",
            in_if("y = min(k, u);"),
            2.0,
            Fault(Trap),
        ),
        // One NaN operand gives the other, as C's `fmin`/`fmax` do.
        (
            "max, NaN first",
            "y = 0;",
            in_if("y = max(NaN, k);"),
            2.0,
            Values(&[2.0]),
        ),
        (
            "min, NaN second",
            "y = 0;",
            in_if("y = min(k, NaN);"),
            2.0,
            Values(&[2.0]),
        ),
        (
            "min of an array and a scalar",
            "y = x;",
            in_if("y = min(x, k);"),
            2.0,
            Values(&[1.5, -2.0, 2.0, 2.0]),
        ),
        (
            "max of a scalar and an array",
            "y = x;",
            in_if("y = max(k, x);"),
            2.0,
            Values(&[2.0, 2.0, 3.0, 4.25]),
        ),
        (
            "size of a scalar, one output",
            "y = x;",
            in_if("y = size(x(k));"),
            2.0,
            Values(&[1.0, 1.0]),
        ),
        ("floor, real", "y = 0;", in_if("y = floor(s / k);"), 2.0, Ok),
        (
            "abs of a complex scalar",
            "y = 0;",
            in_if("y = abs(c);"),
            2.0,
            Ok,
        ),
        (
            "conj of a complex scalar",
            "y = c;",
            in_if("y = conj(c);"),
            2.0,
            Ok,
        ),
        ("sqrt of an array", "y = x;", in_if("y = sqrt(x);"), 2.0, Ok),
        ("pi in a chain", "y = 0;", in_if("y = pi * k;"), 2.0, Ok),
        (
            "builtins in the middle of a chain",
            "y = 0;",
            in_if("t = k + 1;\n  y = floor(min(t, s) / 2) * numel(x) + max(t, 0);"),
            2.0,
            Values(&[7.0]),
        ),
    ]
}

/// Every single-statement case agrees between the engine and the tree
/// walker at both opt levels, profiled or not, and at every fuel value up
/// to the one that completes it; at the baseline level it ends as the
/// table says. Each runs on `dsp16` and on `scalar`, which has no
/// complex instructions (`conj` then charges a scalar ALU op).
#[test]
fn single_statements_agree_across_engines_and_fuel() {
    use matic::arg::{cx_scalar, cx_vector, matrix, scalar, vector};
    let sig = [
        vector(4),
        cx_vector(4),
        matrix(3, 4),
        cx_scalar(),
        vector(2),
        scalar(),
        scalar(),
    ];
    let mut a = matic_interp::Matrix::zeros(3, 4);
    for c in 0..4 {
        for r in 0..3 {
            *a.at_mut(r, c) = matic_interp::Cx::real((10 * (r + 1) + c + 1) as f64);
        }
    }
    for (label, setup, control, k, ends) in statement_cases() {
        let src = format!(
            "function y = f(x, z, A, c, v, s, k)\n\
             if k > 9\n  u = x(1);\nend\n\
             {setup}\n{control}\nend\n"
        );
        let inputs = [
            matic::SimVal::row(&[1.5, -2.0, 3.0, 4.25]),
            matic::SimVal::cx_row(&[(1.0, 1.0), (2.0, -1.0), (0.5, 0.0), (-1.0, 2.0)]),
            matic::SimVal::Arr(a.clone()),
            matic::SimVal::Scalar(matic_interp::Cx::new(2.0, -3.0)),
            matic::SimVal::row(&[2.0, 1.0]),
            matic::SimVal::scalar(3.0),
            matic::SimVal::scalar(k),
        ];
        for spec in [IsaSpec::dsp16(), IsaSpec::scalar_baseline()] {
            let label = format!("{label} on {}", spec.name);
            let result = check_agrees_on(&spec, &label, &src, &sig, &inputs);
            match (&result, &ends) {
                (Ok(_), Ends::Ok) => {}
                (Ok(o), Ends::Values(want)) => {
                    let got = o.outputs[0].clone().into_matrix();
                    let got: Vec<f64> = got.data().iter().map(|z| z.re).collect();
                    assert_eq!(got, *want, "{label}: value");
                }
                (Err(e), Ends::Fault(kind)) => assert_eq!(e.kind, *kind, "{label}: {e}"),
                _ => panic!("{label}: unexpected outcome {result:?}"),
            }
            for opt in [OptLevel::baseline(), OptLevel::full()] {
                let compiled = Compiler::new()
                    .target(spec.clone())
                    .opt_level(opt)
                    .compile(&src, "f", &sig)
                    .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
                let (completes_at, full) = sweep_fuel(&compiled, opt, &inputs);
                assert!(completes_at >= 2, "{label}: fuel sweep too short");
                assert_eq!(full.is_ok(), result.is_ok(), "{label}: default budget");
            }
        }
    }
}

/// Scalar builtins on a complex scalar that the C backend rejects, so
/// `Compiler` cannot build them: the MIR is lowered and optimized directly
/// (the baseline level's passes) and the engine is compared with the tree
/// walker on it, profiled or not, and at every fuel value up to the one
/// that completes it. The value also equals `matic-interp`'s. The
/// function is `f(c, k)` over the complex scalar `c = 2 - 3i` and a real
/// scalar `k`.
#[test]
fn complex_scalar_builtins_agree_across_engines_and_fuel() {
    use matic::arg::{cx_scalar, scalar};
    let cases = [
        ("y = min(c, k);", 3.0),
        ("y = min(c, k);", 1.0),
        ("y = max(k, c);", 1.0),
        ("y = max(k, c);", 3.0),
        ("y = min(NaN, c);", 1.0),
        ("y = min(c, NaN);", 1.0),
        ("y = floor(c);", 1.0),
        ("y = round(c) + conj(c);", 1.0),
        ("y = ceil(c) - fix(c);", 1.0),
        ("y = sign(c);", 1.0),
        ("y = sign(c - c);", 1.0),
        ("y = floor(c / 2) * k;", 3.0),
    ];
    for (stmt, k) in cases {
        let src = format!("function y = f(c, k)\ny = c;\n{}\nend\n", in_if(stmt));
        let (ast, diags) = matic_frontend::parse(&src);
        assert!(!diags.has_errors(), "{stmt}: {diags:?}");
        let analysis = matic_sema::analyze(&ast, "f", &[cx_scalar(), scalar()]);
        let (mut mir, _) = matic_mir::lower_program(&ast, &analysis);
        matic_mir::optimize_program(&mut mir);
        let inputs = vec![
            matic::SimVal::Scalar(matic_interp::Cx::new(2.0, -3.0)),
            matic::SimVal::scalar(k),
        ];
        for spec in [IsaSpec::dsp16(), IsaSpec::scalar_baseline()] {
            let tag = format!("{stmt} at k = {k} on {}", spec.name);
            let run = |fuel: Option<u64>, profiling: bool| {
                let mut machine = AsipMachine::new(spec.clone()).with_profiling(profiling);
                if let Some(fuel) = fuel {
                    machine = machine.with_fuel(fuel);
                }
                let reference = machine.run_interpreted(&mir, "f", inputs.clone());
                let native = machine.run(&mir, "f", inputs.clone());
                match (&reference, &native) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{tag}, fuel {fuel:?}: outcome"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.kind, b.kind, "{tag}, fuel {fuel:?}: error kind");
                        assert_eq!(a.message, b.message, "{tag}, fuel {fuel:?}: message");
                        assert_eq!(a.span, b.span, "{tag}, fuel {fuel:?}: span");
                    }
                    _ => panic!("{tag}, fuel {fuel:?}: {reference:?} vs {native:?}"),
                }
                reference
            };
            for profiling in [false, true] {
                run(None, profiling).unwrap_or_else(|e| panic!("{tag}: {e}"));
            }
            let sim = run(None, false).unwrap().outputs[0].as_cx().unwrap();
            let mut interp = matic::Interpreter::from_source(&src).expect("parses");
            let args = vec![
                matic::Value::from(matic::Matrix::scalar(matic_interp::Cx::new(2.0, -3.0))),
                matic::Value::from(matic::Matrix::from_f64(k)),
            ];
            let want = interp.call("f", args, 1).expect("interpreter runs");
            let want = want[0].as_matrix().unwrap().as_scalar().unwrap();
            assert_eq!(sim, want, "{tag}: simulator vs matic-interp");
            let mut fuel = 0;
            while run(Some(fuel), false).is_err() {
                fuel += 1;
            }
            assert!(fuel >= 2, "{tag}: fuel sweep too short");
        }
    }
}
