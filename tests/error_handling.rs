//! Error-path integration tests: the pipeline must fail loudly and
//! precisely, never emit garbage C or garbage cycle counts.

use matic::{arg, CompileError, Compiler, SimVal};

#[test]
fn parse_errors_carry_positions() {
    let err = Compiler::new()
        .compile("function y = f(x)\ny = x +;\nend", "f", &[arg::scalar()])
        .unwrap_err();
    match err {
        CompileError::Parse(d) => {
            assert!(d.message.contains("expected expression"), "{d}");
        }
        other => panic!("expected parse error, got {other}"),
    }
}

#[test]
fn undefined_names_are_sema_errors() {
    let err = Compiler::new()
        .compile(
            "function y = f(x)\ny = x + missing_thing;\nend",
            "f",
            &[arg::scalar()],
        )
        .unwrap_err();
    match err {
        CompileError::Sema(d) => assert!(d.message.contains("missing_thing")),
        other => panic!("expected sema error, got {other}"),
    }
}

#[test]
fn missing_entry_function_is_reported() {
    let err = Compiler::new()
        .compile("function y = f(x)\ny = x;\nend", "nope", &[arg::scalar()])
        .unwrap_err();
    match err {
        CompileError::Sema(d) => assert!(d.message.contains("nope")),
        other => panic!("expected sema error, got {other}"),
    }
}

#[test]
fn function_handles_are_rejected_for_compilation() {
    let err = Compiler::new()
        .compile(
            "function y = f(x)\ng = @(t) t + 1;\ny = g(x);\nend",
            "f",
            &[arg::scalar()],
        )
        .unwrap_err();
    match err {
        CompileError::Lower(d) => {
            assert!(d.message.contains("function handles"), "{d}");
        }
        other => panic!("expected lower error, got {other}"),
    }
    // …but the same program runs fine on the interpreter.
    let mut interp =
        matic::Interpreter::from_source("function y = f(x)\ng = @(t) t + 1;\ny = g(x);\nend")
            .expect("parses");
    let out = interp
        .call("f", vec![matic::Value::scalar(4.0)], 1)
        .expect("interpreter supports handles");
    assert_eq!(out[0].as_matrix().unwrap().as_real_scalar().unwrap(), 5.0);
}

#[test]
fn arity_mismatch_at_simulation_time() {
    let compiled = Compiler::new()
        .compile(
            "function y = f(a, b)\ny = a + b;\nend",
            "f",
            &[arg::scalar(), arg::scalar()],
        )
        .expect("compiles");
    let err = compiled.simulate(vec![SimVal::scalar(1.0)]).unwrap_err();
    assert!(err.message.contains("expects 2 inputs"), "{err}");
}

#[test]
fn out_of_bounds_reads_are_trapped_by_the_simulator() {
    // Compiled code has C semantics (no growth); the simulator traps what
    // C would silently corrupt.
    let compiled = Compiler::new()
        .compile(
            "function y = f(x, i)\ny = x(i);\nend",
            "f",
            &[arg::vector(4), arg::scalar()],
        )
        .expect("compiles");
    let err = compiled
        .simulate(vec![
            SimVal::row(&[1.0, 2.0, 3.0, 4.0]),
            SimVal::scalar(9.0),
        ])
        .unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");
}

#[test]
fn out_of_bounds_stores_are_trapped_too() {
    let compiled = Compiler::new()
        .compile(
            "function y = f(i)\ny = zeros(1, 4);\ny(i) = 1;\nend",
            "f",
            &[arg::scalar()],
        )
        .expect("compiles");
    let err = compiled.simulate(vec![SimVal::scalar(99.0)]).unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");
}

#[test]
fn runtime_error_builtin_aborts_simulation() {
    let compiled = Compiler::new()
        .compile(
            "function y = f(x)\nif x < 0\n error('negative input');\nend\ny = sqrt(x);\nend",
            "f",
            &[arg::scalar()],
        )
        .expect("compiles");
    assert!(compiled.simulate(vec![SimVal::scalar(-1.0)]).is_err());
    let ok = compiled
        .simulate(vec![SimVal::scalar(9.0)])
        .expect("positive input fine");
    assert_eq!(ok.outputs[0].as_cx().unwrap().re, 3.0);
}

#[test]
fn dimension_mismatch_is_a_runtime_error_everywhere() {
    let src = "function y = f(a, b)\ny = a + b;\nend";
    // Interpreter.
    let mut interp = matic::Interpreter::from_source(src).expect("parses");
    let err = interp
        .call(
            "f",
            vec![
                matic_benchkit::to_interp(&matic::CValue::row(&[1.0, 2.0])),
                matic_benchkit::to_interp(&matic::CValue::row(&[1.0, 2.0, 3.0])),
            ],
            1,
        )
        .unwrap_err();
    assert!(err.message.contains("dimensions"));
    // Simulator (dynamic-size signature so the mismatch survives sema).
    let compiled = Compiler::new()
        .compile(src, "f", &[arg::vector_dyn(), arg::vector_dyn()])
        .expect("compiles");
    let err = compiled
        .simulate(vec![
            SimVal::row(&[1.0, 2.0]),
            SimVal::row(&[1.0, 2.0, 3.0]),
        ])
        .unwrap_err();
    assert!(err.message.contains("dimensions"), "{err}");
}

#[test]
fn provable_shape_conflicts_warn_at_compile_time() {
    // Statically known mismatched shapes produce a sema warning (kept a
    // warning, not an error, because MATLAB semantics are runtime).
    let (program, _) = matic::parse("function y = f(a, b)\ny = a + b;\nend");
    let analysis = matic_sema::analyze(&program, "f", &[arg::vector(4), arg::vector(8)]);
    assert!(analysis
        .diags
        .iter()
        .any(|d| d.message.contains("mismatch")));
}

#[test]
fn unknown_builtin_is_reported_with_name() {
    let err = Compiler::new()
        .compile(
            "function y = f(x)\ny = quux(x);\nend",
            "f",
            &[arg::scalar()],
        )
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("quux"), "{text}");
}

#[test]
fn sim_errors_carry_structured_kinds() {
    use matic::SimErrorKind;
    let compiled = Compiler::new()
        .compile(
            "function y = f(x, i)\ny = x(i);\nend",
            "f",
            &[arg::vector(4), arg::scalar()],
        )
        .expect("compiles");
    let oob = compiled
        .simulate(vec![
            SimVal::row(&[1.0, 2.0, 3.0, 4.0]),
            SimVal::scalar(9.0),
        ])
        .unwrap_err();
    assert_eq!(oob.kind, SimErrorKind::OutOfBounds);
    assert!(!oob.is_fuel_exhausted());
}

#[test]
fn fuel_exhaustion_is_a_distinct_error_kind() {
    use matic::SimErrorKind;
    let compiled = Compiler::new()
        .compile(
            "function y = f(x)\ny = 0;\nwhile 1\ny = y + 1;\nend\nend",
            "f",
            &[arg::scalar()],
        )
        .expect("compiles");
    let err = compiled
        .simulator()
        .with_fuel(50_000)
        .run(vec![SimVal::scalar(1.0)])
        .unwrap_err();
    assert_eq!(err.kind, SimErrorKind::FuelExhausted);
    assert!(err.is_fuel_exhausted());
    assert!(err.message.contains("fuel exhausted"), "{err}");
}

/// A fuel-exhaustion error names the statement that was running when the
/// budget ran out — an assignment, or the `while` loop whose iteration
/// head burns fuel — on the engine and on the tree walker alike.
#[test]
fn fuel_exhaustion_names_its_statement() {
    use matic::AsipMachine;
    let src = "function y = f(x)\ny = 0;\nwhile 1\n  y = y + x;\nend\nend";
    let compiled = Compiler::new()
        .compile(src, "f", &[arg::scalar()])
        .expect("compiles");
    let mut named = std::collections::BTreeSet::new();
    for fuel in 0..12 {
        let engine = compiled
            .simulator()
            .with_fuel(fuel)
            .run(vec![SimVal::scalar(1.0)])
            .unwrap_err();
        let walker = AsipMachine::from_shared(compiled.spec.clone())
            .with_fuel(fuel)
            .run_interpreted(&compiled.mir, &compiled.entry, vec![SimVal::scalar(1.0)])
            .unwrap_err();
        assert!(engine.is_fuel_exhausted(), "fuel {fuel}: {engine}");
        assert_eq!(engine, walker, "fuel {fuel}");
        let text = &src[engine.span.start as usize..engine.span.end as usize];
        assert!(
            text.starts_with("y = ") || text.starts_with("while 1"),
            "fuel {fuel}: `{engine}` names `{text}`"
        );
        named.insert(text.to_string());
    }
    assert_eq!(named.len(), 3, "{named:?}");
}

/// A call nested too deep and a `for` loop whose bound is unset fail
/// naming the statement that was running — the call, the loop header — on
/// the engine and on the tree walker alike, at both opt levels.
#[test]
fn depth_and_loop_range_errors_name_their_statement() {
    use matic::{AsipMachine, OptLevel};
    let cases = [
        (
            "function y = f(x)\ny = g(x);\nend\n\
             function y = g(x)\nif x > 0\n  y = g(x + 1);\nelse\n  y = 0;\nend\nend",
            "call depth exceeded",
            "g(x + 1)",
        ),
        (
            "function y = f(x)\nif x > 9\n  n = 3;\nend\ny = 0;\n\
             for k = 1:n\n  y = y * 2 + k;\nend\nend",
            "read of unset `n`",
            "for k = 1:n",
        ),
    ];
    for (src, message, names) in cases {
        for opt in [OptLevel::baseline(), OptLevel::full()] {
            let compiled = Compiler::new()
                .opt_level(opt)
                .compile(src, "f", &[arg::scalar()])
                .expect("compiles");
            let machine = AsipMachine::from_shared(compiled.spec.clone());
            let machine = if opt.intrinsics {
                machine
            } else {
                machine.without_intrinsics()
            };
            // 129 nested simulated calls outgrow a test thread's stack in
            // an unoptimized build.
            let (engine, walker) = std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .stack_size(64 << 20)
                    .spawn_scoped(scope, || {
                        let input = || vec![SimVal::scalar(1.0)];
                        (
                            compiled.simulator().run(input()).unwrap_err(),
                            machine
                                .run_interpreted(&compiled.mir, &compiled.entry, input())
                                .unwrap_err(),
                        )
                    })
                    .expect("spawns")
                    .join()
                    .expect("runs")
            });
            assert_eq!(engine, walker, "{message}");
            assert_eq!(engine.message, message);
            let text = &src[engine.span.start as usize..engine.span.end as usize];
            assert!(text.starts_with(names), "`{engine}` names `{text}`");
        }
    }
}

#[test]
fn entry_signature_arity_mismatch_is_a_sema_error() {
    let err = Compiler::new()
        .compile(
            "function y = f(x, h)\ny = x + h;\nend",
            "f",
            &[arg::vector(8)],
        )
        .unwrap_err();
    match err {
        CompileError::Sema(d) => {
            assert!(d.message.contains("expects 2 arguments"), "{d}");
        }
        other => panic!("expected sema error, got {other}"),
    }
}

#[test]
fn user_error_messages_cannot_spoof_structured_kinds() {
    use matic::{AsipMachine, SimError, SimErrorKind};
    // The message deliberately contains every substring the fallback
    // classifier keys on; the structured kind recorded at the raise site
    // must win over any message-based re-derivation.
    let src = "function y = f(x)\nif x > 0\n error('index 9 out of bounds; fuel exhausted');\nend\ny = x;\nend";

    // Interpreter path: `error()` raises a plain trap.
    let mut interp = matic::Interpreter::from_source(src).expect("parses");
    let err = interp
        .call("f", vec![matic::Value::scalar(1.0)], 1)
        .unwrap_err();
    assert_eq!(err.kind, SimErrorKind::Trap, "{}", err.message);
    assert!(err.message.contains("out of bounds"), "{}", err.message);

    // Simulator path: the same trap kind on the engine and on the
    // tree-walking reference semantics.
    let sim_errors = |compiled: &matic::Compiled, inputs: Vec<SimVal>| -> [(&str, SimError); 2] {
        let engine = compiled.simulator().run(inputs.clone()).unwrap_err();
        let walked = AsipMachine::from_shared(compiled.spec.clone())
            .run_interpreted(&compiled.mir, &compiled.entry, inputs)
            .unwrap_err();
        [("native", engine), ("tree-walk", walked)]
    };
    let compiled = Compiler::new()
        .compile(src, "f", &[arg::scalar()])
        .expect("compiles");
    for (path, err) in sim_errors(&compiled, vec![SimVal::scalar(1.0)]) {
        assert_eq!(err.kind, SimErrorKind::Trap, "{path}: {err}");
        assert!(!err.is_fuel_exhausted(), "{path}");
    }

    // A real out-of-bounds access still classifies structurally even
    // though its message never changes.
    let oob_src = "function y = f(x)\ny = x(9);\nend";
    let compiled = Compiler::new()
        .compile(oob_src, "f", &[arg::vector(4)])
        .expect("compiles");
    for (path, err) in sim_errors(&compiled, vec![SimVal::row(&[1.0, 2.0, 3.0, 4.0])]) {
        assert_eq!(err.kind, SimErrorKind::OutOfBounds, "{path}: {err}");
    }
}
