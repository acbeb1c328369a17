//! Slice subscripts, form by form: every range, colon and mixed 2-D
//! subscript the simulator gathers or scatters, loaded and stored (with a
//! scalar and with an array source), including a store whose source
//! aliases its destination, an out-of-bounds lane and a negative start.
//!
//! Each case runs on three executions:
//!
//! - the fused native engine (`Compiled::simulator`),
//! - the simulator's tree-walking reference semantics (`run_interpreted`),
//!   which must match it bit for bit: outputs, cycles, error kind and
//!   message;
//! - the independent `matic-interp` reference interpreter, which shares no
//!   slice code with the simulator and must agree on output values and on
//!   the error kind.
//!
//! The interpreter grows arrays on out-of-bounds stores (MATLAB
//! semantics) where the simulator traps like the generated C, so for
//! those cases only the two simulator runs are compared with each other.

use matic::{arg, Compiled, Compiler, OptLevel, SimVal, Ty};
use matic_asip::{AsipMachine, SimErrorKind};
use matic_interp::{Cx, Matrix, Value};
use std::sync::Arc;

/// The expected outcome of one case.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    /// Every execution succeeds with the same values.
    Ok,
    /// Every execution fails with an out-of-bounds error.
    Oob,
    /// As `Oob`, for a subscript below 1: the slice path rejects it before
    /// it reads or charges anything.
    NonPositive,
    /// The simulator traps out of bounds; the interpreter grows the array.
    OobStoreGrows,
}

struct Case {
    name: &'static str,
    src: &'static str,
    args: Vec<Ty>,
    inputs: Vec<Matrix>,
    expect: Expect,
}

const N: usize = 8;

/// `x = [10 20 .. 80]` as a row.
fn xvec() -> Matrix {
    Matrix::row((1..=N).map(|k| Cx::real(10.0 * k as f64)).collect())
}

/// A 4×5 matrix with distinct entries `A(r, c) = 10 r + c`.
fn amat() -> Matrix {
    let mut m = Matrix::zeros(4, 5);
    for c in 0..5 {
        for r in 0..4 {
            *m.at_mut(r, c) = Cx::real((10 * (r + 1) + c + 1) as f64);
        }
    }
    m
}

fn s(v: f64) -> Matrix {
    Matrix::scalar(Cx::real(v))
}

/// `f(x, a, b)` over the vector `x`.
fn vcase(name: &'static str, src: &'static str, a: f64, b: f64, expect: Expect) -> Case {
    Case {
        name,
        src,
        args: vec![arg::vector(N), arg::scalar(), arg::scalar()],
        inputs: vec![xvec(), s(a), s(b)],
        expect,
    }
}

/// `f(A, r, a, b)` over the 4×5 matrix `A`.
fn mcase(name: &'static str, src: &'static str, r: f64, a: f64, b: f64, expect: Expect) -> Case {
    Case {
        name,
        src,
        args: vec![
            arg::matrix(4, 5),
            arg::scalar(),
            arg::scalar(),
            arg::scalar(),
        ],
        inputs: vec![amat(), s(r), s(a), s(b)],
        expect,
    }
}

fn cases() -> Vec<Case> {
    use Expect::*;
    let load_range = "function y = f(x, a, b)\ny = x(a:b);\nend";
    let load_neg_step = "function y = f(x, a, b)\ny = x(b:-2:a);\nend";
    let store_scalar = "function y = f(x, a, b)\ny = x;\ny(a:b) = -1;\nend";
    let store_array = "function y = f(x, a, b)\ny = x;\ny(a:b) = x(1:b-a+1);\nend";
    let store_neg_step = "function y = f(x, a, b)\ny = x;\ny(b:-2:a) = x(1:3);\nend";
    let mut out = vec![
        vcase("x(a:b)", load_range, 2.0, 6.0, Ok),
        vcase("x(a:b) empty", load_range, 5.0, 4.0, Ok),
        vcase("x(a:b) oob lane", load_range, 6.0, 9.0, Oob),
        vcase("x(a:b) negative start", load_range, -1.0, 3.0, NonPositive),
        vcase("x(a:b) zero start", load_range, 0.0, 3.0, NonPositive),
        vcase("x(b:-2:a)", load_neg_step, 2.0, 7.0, Ok),
        vcase(
            "x(b:-2:a) negative end",
            load_neg_step,
            -1.0,
            3.0,
            NonPositive,
        ),
        vcase("x(b:-2:a) oob first lane", load_neg_step, 5.0, 10.0, Oob),
        vcase("x(a:b) = s", store_scalar, 3.0, 5.0, Ok),
        vcase("x(a:b) = s oob", store_scalar, 6.0, 10.0, OobStoreGrows),
        vcase(
            "x(a:b) = s negative start",
            store_scalar,
            -2.0,
            3.0,
            NonPositive,
        ),
        vcase("x(a:b) = v", store_array, 4.0, 8.0, Ok),
        vcase(
            "x(a:b) = v negative start",
            store_array,
            -1.0,
            2.0,
            NonPositive,
        ),
        vcase("x(b:-2:a) = v", store_neg_step, 3.0, 8.0, Ok),
        vcase(
            "x(a:b) = x(a-1:b-1) (shifted alias)",
            "function y = f(x, a, b)\ny = x;\ny(a:b) = y(a-1:b-1);\nend",
            2.0,
            8.0,
            Ok,
        ),
        vcase(
            "x(b:-1:a) = x (reversed alias)",
            "function y = f(x, a, b)\ny = x;\ny(b:-1:a) = y;\nend",
            1.0,
            8.0,
            Ok,
        ),
        vcase(
            "x(:)",
            "function y = f(x, a, b)\ny = x(:) * a + b;\nend",
            2.0,
            1.0,
            Ok,
        ),
        vcase(
            "x(:) = s",
            "function y = f(x, a, b)\ny = x;\ny(:) = a + b;\nend",
            2.0,
            1.0,
            Ok,
        ),
        vcase(
            "x(:) = v",
            "function y = f(x, a, b)\ny = zeros(1, 8);\ny(:) = x * a;\nend",
            3.0,
            0.0,
            Ok,
        ),
    ];
    let a_row_range = "function y = f(A, r, a, b)\ny = A(r, a:b);\nend";
    let a_col = "function y = f(A, r, a, b)\ny = A(:, a);\nend";
    let a_rows = "function y = f(A, r, a, b)\ny = A(a:b, :);\nend";
    out.extend([
        mcase("A(r, a:b)", a_row_range, 3.0, 2.0, 4.0, Ok),
        mcase("A(r, a:b) oob column", a_row_range, 1.0, 4.0, 6.0, Oob),
        // Row 5 of a 4-row matrix: the linear positions stay below
        // numel, so only a per-axis check sees it.
        mcase("A(r, a:b) oob row", a_row_range, 5.0, 1.0, 2.0, Oob),
        mcase(
            "A(r, a:b) negative start",
            a_row_range,
            2.0,
            -1.0,
            2.0,
            NonPositive,
        ),
        mcase(
            "A(r, a:b) negative row",
            a_row_range,
            0.0,
            1.0,
            2.0,
            NonPositive,
        ),
        mcase(
            "A(:)",
            "function y = f(A, r, a, b)\ny = A(:) - r;\nend",
            1.0,
            0.0,
            0.0,
            Ok,
        ),
        mcase("A(:, c)", a_col, 0.0, 5.0, 0.0, Ok),
        mcase("A(:, c) oob column", a_col, 0.0, 6.0, 0.0, Oob),
        mcase("A(a:b, :)", a_rows, 0.0, 2.0, 3.0, Ok),
        mcase(
            "A(a:b, :) negative start",
            a_rows,
            0.0,
            0.0,
            3.0,
            NonPositive,
        ),
        mcase(
            "A(r, a:b) = s",
            "function B = f(A, r, a, b)\nB = A;\nB(r, a:b) = -r;\nend",
            2.0,
            2.0,
            5.0,
            Ok,
        ),
        mcase(
            "A(r, a:b) = v",
            "function B = f(A, r, a, b)\nB = A;\nB(r, a:b) = A(1, 1:b-a+1);\nend",
            4.0,
            3.0,
            5.0,
            Ok,
        ),
        mcase(
            "A(r, a:b) = s oob column",
            "function B = f(A, r, a, b)\nB = A;\nB(r, a:b) = -1;\nend",
            1.0,
            5.0,
            6.0,
            OobStoreGrows,
        ),
        mcase(
            "A(r, a:b) = s oob row",
            "function B = f(A, r, a, b)\nB = A;\nB(r, a:b) = 3;\nend",
            5.0,
            1.0,
            2.0,
            OobStoreGrows,
        ),
        mcase(
            "A(:, c) = s",
            "function B = f(A, r, a, b)\nB = A;\nB(:, a) = r;\nend",
            7.0,
            3.0,
            0.0,
            Ok,
        ),
        mcase(
            "A(:, c) = v",
            "function B = f(A, r, a, b)\nB = A;\nB(:, a) = A(:, b);\nend",
            0.0,
            1.0,
            5.0,
            Ok,
        ),
        mcase(
            "A(a:b, :) = s",
            "function B = f(A, r, a, b)\nB = A;\nB(a:b, :) = r;\nend",
            -3.0,
            2.0,
            4.0,
            Ok,
        ),
        mcase(
            "A(a:b, :) = v",
            "function B = f(A, r, a, b)\nB = A;\nB(a:b, :) = A(1:b-a+1, :);\nend",
            0.0,
            3.0,
            4.0,
            Ok,
        ),
        mcase(
            "A(a:b, :) = v negative start",
            "function B = f(A, r, a, b)\nB = A;\nB(a:b, :) = A(1:b-a+1, :);\nend",
            0.0,
            -1.0,
            1.0,
            NonPositive,
        ),
        mcase(
            "A(:, a:b) = A(:, b:-1:a) (reversed alias)",
            "function B = f(A, r, a, b)\nB = A;\nB(:, a:b) = B(:, b:-1:a);\nend",
            0.0,
            1.0,
            5.0,
            Ok,
        ),
    ]);
    out
}

/// The tree walker's machine, configured as `Compiled::simulator`
/// configures the native engine's.
fn walker(compiled: &Compiled, opt: OptLevel) -> AsipMachine {
    let machine = AsipMachine::from_shared(Arc::clone(&compiled.spec));
    if opt.intrinsics {
        machine
    } else {
        machine.without_intrinsics()
    }
}

fn check(case: &Case, label: &str, opt: OptLevel) {
    let ctx = format!("{} [{label}]", case.name);
    let compiled = Compiler::new()
        .opt_level(opt)
        .compile(case.src, "f", &case.args)
        .unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
    let sim_inputs: Vec<SimVal> = case.inputs.iter().cloned().map(SimVal::Arr).collect();

    let native = compiled.simulator().run(sim_inputs.clone());
    let walked = walker(&compiled, opt).run_interpreted(&compiled.mir, "f", sim_inputs);
    // Bit-identical: outputs, printed text, cycle totals and per-class
    // breakdown, or error kind, message and span.
    assert_eq!(
        native, walked,
        "{ctx}: native engine and tree walker diverge"
    );

    let mut interp = matic_interp::Interpreter::from_source(case.src)
        .unwrap_or_else(|e| panic!("{ctx}: interpreter parse failed: {e:?}"));
    let reference = interp.call(
        "f",
        case.inputs.iter().cloned().map(Value::Num).collect(),
        1,
    );

    match (case.expect, native) {
        (Expect::Ok, Ok(outcome)) => {
            let want = reference.unwrap_or_else(|e| panic!("{ctx}: interpreter failed: {e:?}"));
            let want = want[0].as_matrix().expect("numeric output");
            let have = outcome.outputs[0].clone().into_matrix();
            assert_eq!(
                have.data(),
                want.data(),
                "{ctx}: simulator and interpreter values differ"
            );
            assert_eq!(
                (have.rows(), have.cols()),
                (want.rows(), want.cols()),
                "{ctx}: shapes differ"
            );
            assert!(outcome.cycles.total > 0, "{ctx}: no cycles charged");
        }
        (Expect::Oob | Expect::NonPositive | Expect::OobStoreGrows, Err(err)) => {
            assert_eq!(err.kind, SimErrorKind::OutOfBounds, "{ctx}: {err}");
            // Unvectorized, every slice stays a slice statement; the
            // vectorizer may turn one into a vector op with its own message.
            if case.expect == Expect::NonPositive && !opt.vectorize {
                assert_eq!(err.message, "index must be positive", "{ctx}");
            }
            if case.expect != Expect::OobStoreGrows {
                let e = reference.expect_err(&format!("{ctx}: interpreter must fail too"));
                assert_eq!(e.kind, SimErrorKind::OutOfBounds, "{ctx}: {e:?}");
            } else {
                assert!(reference.is_ok(), "{ctx}: the interpreter grows the array");
            }
        }
        (want, got) => panic!("{ctx}: expected {want:?}, simulator gave {got:?}"),
    }
}

#[test]
fn slice_forms_agree_at_baseline() {
    for case in cases() {
        check(&case, "baseline", OptLevel::baseline());
    }
}

#[test]
fn slice_forms_agree_fully_optimized() {
    for case in cases() {
        check(&case, "full", OptLevel::full());
    }
}
