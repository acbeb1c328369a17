//! Slice subscripts, form by form: every range, colon and mixed 2-D
//! subscript the simulator gathers or scatters, loaded and stored (with a
//! scalar and with an array source), including a store whose source
//! aliases its destination, an out-of-bounds lane and a negative start;
//! then the vector ops the vectorizer makes of loops and array
//! expressions: maps, every lane builtin, MACs, reductions and copies,
//! with splats, negative strides, an in-place destination and
//! out-of-bounds lanes; and the element functions that stay array
//! builtins.
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
use matic_mir::{walk_stmts, Stmt};
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
    /// The simulator traps out of bounds. The interpreter is not run: it
    /// would build the loop's whole range before the first iteration.
    OobSimOnly,
}

struct Case {
    name: &'static str,
    src: &'static str,
    args: Vec<Ty>,
    inputs: Vec<Matrix>,
    expect: Expect,
    /// Whether the fully optimized MIR must hold a `VectorOp`, so that the
    /// case keeps exercising the simulator's vector lanes.
    vector: bool,
    /// The simulator's exact error message at full optimization.
    message: Option<&'static str>,
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
        vector: false,
        message: None,
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
        vector: false,
        message: None,
    }
}

/// `x = [1+8i 2+7i .. 8+1i]` as a row.
fn cxvec() -> Matrix {
    Matrix::row(
        (1..=N)
            .map(|k| Cx::new(k as f64, (N + 1 - k) as f64))
            .collect(),
    )
}

/// `f(x, a, b)` whose fully optimized MIR holds a vector op; `x` is
/// complex when `complex` is set. `message` pins the simulator's error.
fn vop(
    name: &'static str,
    src: &'static str,
    complex: bool,
    a: f64,
    b: f64,
    expect: Expect,
    message: Option<&'static str>,
) -> Case {
    let (xty, x) = if complex {
        (arg::cx_vector(N), cxvec())
    } else {
        (arg::vector(N), xvec())
    };
    Case {
        name,
        src,
        args: vec![xty, arg::scalar(), arg::scalar()],
        inputs: vec![x, s(a), s(b)],
        expect,
        vector: true,
        message,
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
    out.extend(vector_cases());
    out.extend(array_builtin_cases());
    out
}

/// Element functions the vectorizer leaves as array builtins, one map
/// over `x / 100` each.
fn array_builtin_cases() -> Vec<Case> {
    [
        ("tan(x)", "function y = f(x, a, b)\ny = tan(x / 100);\nend"),
        (
            "asin(x)",
            "function y = f(x, a, b)\ny = asin(x / 100);\nend",
        ),
        (
            "acos(x)",
            "function y = f(x, a, b)\ny = acos(x / 100);\nend",
        ),
        (
            "atan(x)",
            "function y = f(x, a, b)\ny = atan(x / 100);\nend",
        ),
        (
            "log2(x)",
            "function y = f(x, a, b)\ny = log2(x / 100);\nend",
        ),
        (
            "log10(x)",
            "function y = f(x, a, b)\ny = log10(x / 100);\nend",
        ),
    ]
    .into_iter()
    .map(|(name, src)| vcase(name, src, 0.0, 0.0, Expect::Ok))
    .collect()
}

fn vector_cases() -> Vec<Case> {
    use Expect::*;
    let map = |name, src, complex| vop(name, src, complex, 3.0, 2.0, Ok, None);
    let real_mac =
        "function y = f(x, a, b)\ny = 0;\nfor k = a:b\n    y = y + x(k) * x(k);\nend\nend";
    let oob_input = "function y = f(x, a, b)\ny = zeros(1, 8);\nfor k = 1:8\n    y(k) = x(k + a) + b;\nend\nend";
    let oob_dst = "function y = f(x, a, b)\ny = zeros(1, 8);\nfor k = 1:8\n    y(k + a) = x(k) + b;\nend\nend";
    vec![
        map(
            "vmap x(k) * splat",
            "function y = f(x, a, b)\ny = zeros(1, 8);\nfor k = 1:8\n    y(k) = x(k) * a;\nend\nend",
            false,
        ),
        map("vmap -x", "function y = f(x, a, b)\ny = -x;\nend", false),
        map("vmap abs", "function y = f(x, a, b)\ny = abs(x - 45);\nend", false),
        map("vmap sqrt", "function y = f(x, a, b)\ny = sqrt(x);\nend", false),
        map("vmap conj", "function y = f(x, a, b)\ny = conj(x);\nend", false),
        map("vmap real", "function y = f(x, a, b)\ny = real(x);\nend", false),
        map("vmap imag", "function y = f(x, a, b)\ny = imag(x);\nend", false),
        map("vmap floor", "function y = f(x, a, b)\ny = floor(x / a);\nend", false),
        map("vmap ceil", "function y = f(x, a, b)\ny = ceil(x / a);\nend", false),
        map("vmap round", "function y = f(x, a, b)\ny = round(x / a);\nend", false),
        map("vmap complex abs", "function y = f(x, a, b)\ny = abs(x);\nend", true),
        map("vmap complex sqrt", "function y = f(x, a, b)\ny = sqrt(x);\nend", true),
        map("vmap complex conj", "function y = f(x, a, b)\ny = conj(x);\nend", true),
        map("vmap complex x .* x", "function y = f(x, a, b)\ny = x .* x;\nend", true),
        vop("vmac real", real_mac, false, 2.0, 6.0, Ok, None),
        map(
            "vmac complex, reversed input",
            "function y = f(x, a, b)\ny = 0;\nfor k = 1:8\n    y = y + x(k) * x(9 - k);\nend\nend",
            true,
        ),
        vop(
            "vred sum",
            "function y = f(x, a, b)\ny = sum(x(a:b));\nend",
            false,
            2.0,
            7.0,
            Ok,
            None,
        ),
        vop(
            "vred prod",
            "function y = f(x, a, b)\ny = prod(x(a:b));\nend",
            false,
            2.0,
            6.0,
            Ok,
            None,
        ),
        map("vred complex sum", "function y = f(x, a, b)\ny = sum(x);\nend", true),
        vop(
            "vcopy",
            "function y = f(x, a, b)\ny = zeros(1, 8);\nfor k = a:b\n    y(k) = x(k);\nend\nend",
            false,
            2.0,
            7.0,
            Ok,
            None,
        ),
        map(
            "vmap negative input stride",
            "function y = f(x, a, b)\ny = zeros(1, 8);\nfor k = 1:8\n    y(k) = x(9 - k) + b;\nend\nend",
            false,
        ),
        map(
            "vmap negative destination stride",
            "function y = f(x, a, b)\ny = zeros(1, 8);\nfor k = 1:8\n    y(9 - k) = x(k) - a;\nend\nend",
            false,
        ),
        map(
            "vmap destination is an input",
            "function y = f(x, a, b)\ny = x;\nfor k = 1:8\n    y(k) = y(k) * a;\nend\nend",
            false,
        ),
        vop(
            "vmap oob input lane",
            oob_input,
            false,
            1.0,
            2.0,
            Oob,
            Some("vector lane 9 out of bounds"),
        ),
        vop(
            "vmac oob input lane",
            real_mac,
            false,
            4.0,
            9.0,
            Oob,
            Some("vector lane 9 out of bounds"),
        ),
        vop(
            "vmap oob destination lane",
            oob_dst,
            false,
            1.0,
            2.0,
            OobStoreGrows,
            Some("vector store lane 9 out of bounds (8)"),
        ),
        // A 10^12-lane MAC: its bounds are checked in closed form, not by
        // materializing the lanes.
        vop(
            "vmac 1e12 lanes",
            "function y = f(x, a, b)\nm = 1e12;\ny = 0;\nfor k = 1:m\n    y = y + x(k) * x(k);\nend\nend",
            false,
            0.0,
            0.0,
            OobSimOnly,
            Some("vector lane 9 out of bounds"),
        ),
    ]
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

    if case.vector && opt.vectorize {
        let mut vector_ops = 0;
        for func in &compiled.mir.functions {
            walk_stmts(&func.body, &mut |st| {
                vector_ops += usize::from(matches!(st, Stmt::VectorOp(_)));
            });
        }
        assert!(
            vector_ops > 0,
            "{ctx}: no vector op in\n{}",
            compiled.mir_dump()
        );
    }

    let native = compiled.simulator().run(sim_inputs.clone());
    let walked = walker(&compiled, opt).run_interpreted(&compiled.mir, "f", sim_inputs);
    // Bit-identical: outputs, printed text, cycle totals and per-class
    // breakdown, or error kind, message and span.
    assert_eq!(
        native, walked,
        "{ctx}: native engine and tree walker diverge"
    );

    let reference = || {
        let mut interp = matic_interp::Interpreter::from_source(case.src)
            .unwrap_or_else(|e| panic!("{ctx}: interpreter parse failed: {e:?}"));
        interp.call(
            "f",
            case.inputs.iter().cloned().map(Value::Num).collect(),
            1,
        )
    };

    match (case.expect, native) {
        (Expect::Ok, Ok(outcome)) => {
            let want = reference().unwrap_or_else(|e| panic!("{ctx}: interpreter failed: {e:?}"));
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
        (
            Expect::Oob | Expect::NonPositive | Expect::OobStoreGrows | Expect::OobSimOnly,
            Err(err),
        ) => {
            assert_eq!(err.kind, SimErrorKind::OutOfBounds, "{ctx}: {err}");
            if let (Some(message), true) = (case.message, opt.vectorize) {
                assert_eq!(err.message, message, "{ctx}");
            }
            // Unvectorized, every slice stays a slice statement; the
            // vectorizer may turn one into a vector op with its own message.
            if case.expect == Expect::NonPositive && !opt.vectorize {
                assert_eq!(err.message, "index must be positive", "{ctx}");
            }
            match case.expect {
                Expect::OobStoreGrows => {
                    assert!(
                        reference().is_ok(),
                        "{ctx}: the interpreter grows the array"
                    )
                }
                Expect::OobSimOnly => {}
                _ => {
                    let e = reference().expect_err(&format!("{ctx}: interpreter must fail too"));
                    assert_eq!(e.kind, SimErrorKind::OutOfBounds, "{ctx}: {e:?}");
                }
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
