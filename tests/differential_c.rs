//! Hardest end-to-end check: the generated ANSI C (with its emitted
//! runtime and intrinsics headers) is compiled by the *host* C compiler,
//! executed, and its outputs compared against the reference interpreter —
//! for every benchmark, at both optimization levels.
//!
//! Skipped gracefully when no C compiler is installed, unless
//! `MATIC_FUZZ_REQUIRE_C=1` asks for the host-C leg to be mandatory.

use matic::{arg, Class, Interpreter, Shape, Ty};
use matic::{CValue, Compiler, Harness, OptLevel};
use matic_benchkit::{from_interp, outputs_close, to_interp, SUITE};

mod common;
use common::cc_or_skip;

fn test_size(id: &str) -> usize {
    match id {
        "matmul" => 8,
        "fft" => 64,
        _ => 96,
    }
}

/// Builds `compiled` with its harness on `inputs` by the host C compiler
/// at `-O1` with the extra compiler `flags`, and runs it.
fn run_c(
    compiled: &matic::Compiled,
    inputs: &[CValue],
    tag: &str,
    compiler: &str,
    flags: &[&str],
) -> std::process::Output {
    let main_src = Harness
        .main_source(compiled.entry_mir(), inputs, 1)
        .expect("harness generated");
    let flags = [&["-O1"], flags].concat();
    matic_codegen::build_and_run(compiler, &compiled.c, &main_src, &flags)
        .unwrap_or_else(|e| panic!("{tag}: {e}"))
}

fn run_c_kernel(
    compiled: &matic::Compiled,
    inputs: &[CValue],
    tag: &str,
    compiler: &str,
) -> Vec<CValue> {
    let run = run_c(compiled, inputs, tag, compiler, &[]);
    assert!(
        run.status.success(),
        "{tag}: kernel exited with failure:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    CValue::parse_outputs(&String::from_utf8_lossy(&run.stdout))
        .unwrap_or_else(|e| panic!("{tag}: bad harness output: {e}"))
}

#[test]
fn generated_c_matches_interpreter_for_every_benchmark() {
    let Some(compiler) = cc_or_skip() else {
        return;
    };
    for b in SUITE {
        let n = test_size(b.id);
        let inputs = b.inputs(n, 4242);
        let expected = &b.reference_outputs(&inputs).expect("interp ok")[0];
        for (label, opt) in [("base", OptLevel::baseline()), ("opt", OptLevel::full())] {
            let compiled = Compiler::new()
                .opt_level(opt)
                .compile(b.source, b.entry, &b.arg_types(n))
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", b.id));
            let outs = run_c_kernel(&compiled, &inputs, &format!("{}_{label}", b.id), compiler);
            assert_eq!(outs.len(), 1, "{} [{label}]: one output expected", b.id);
            outputs_close(&outs[0], expected, 1e-9)
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", b.id));
        }
    }
}

#[test]
fn generated_c_is_target_portable() {
    // The same kernel generated for different ISA descriptions must all
    // compile and agree — the retargetability claim, checked end to end.
    let Some(compiler) = cc_or_skip() else {
        return;
    };
    let b = matic_benchkit::benchmark("cmult").expect("cmult exists");
    let n = 32;
    let inputs = b.inputs(n, 9);
    let expected = &b.reference_outputs(&inputs).expect("interp ok")[0];
    let targets = [
        matic::IsaSpec::dsp16(),
        matic::IsaSpec::scalar_baseline(),
        matic::IsaSpec::with_width(4),
        matic::IsaSpec::with_features(matic::Features {
            simd: false,
            complex: true,
            mac: true,
        }),
    ];
    for spec in targets {
        let name = spec.name.clone();
        let compiled = Compiler::new()
            .target(spec)
            .compile(b.source, b.entry, &b.arg_types(n))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let outs = run_c_kernel(&compiled, &inputs, &format!("retarget_{name}"), compiler);
        outputs_close(&outs[0], expected, 1e-9).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Compiles `src` at both optimization levels, runs the host-C build on
/// `inputs` and checks each of the `nout` outputs against the reference
/// interpreter. Returns the interpreter's outputs.
fn check_program(
    src: &str,
    entry: &str,
    nout: usize,
    args: &[Ty],
    inputs: &[CValue],
) -> Vec<CValue> {
    let mut interp = Interpreter::from_source(src).expect("source parses");
    let vals = inputs.iter().map(to_interp).collect();
    let expected: Vec<CValue> = interp
        .call(entry, vals, nout)
        .expect("interpreter runs")
        .iter()
        .map(|v| from_interp(v).expect("numeric output"))
        .collect();
    let Some(compiler) = cc_or_skip() else {
        return expected;
    };
    for (label, opt) in [("base", OptLevel::baseline()), ("opt", OptLevel::full())] {
        let compiled = Compiler::new()
            .opt_level(opt)
            .compile(src, entry, args)
            .unwrap_or_else(|e| panic!("{entry} [{label}]: {e}"));
        let outs = run_c_kernel(&compiled, inputs, &format!("{entry}_{label}"), compiler);
        assert_eq!(
            outs.len(),
            expected.len(),
            "{entry} [{label}]: output count"
        );
        for (k, (got, want)) in outs.iter().zip(&expected).enumerate() {
            outputs_close(got, want, 1e-12)
                .unwrap_or_else(|e| panic!("{entry} [{label}] output {k}: {e}"));
        }
    }
    expected
}

#[test]
fn two_argument_min_max_with_an_array_operand() {
    let src = "function [p, q, r, s] = mm(x, y)\np = max(x, 0);\nq = min(x, y);\nr = max(0, x);\ns = min(y, 1.5);\nend";
    let x = CValue::row(&[-2.0, 0.5, 3.0, -0.25, 7.0, 1.0]);
    let y = CValue::row(&[1.0, -1.0, 4.0, -3.0, 2.0, 1.0]);
    let out = check_program(src, "mm", 4, &[arg::vector(6), arg::vector(6)], &[x, y]);
    assert_eq!(out[0].re, [0.0, 0.5, 3.0, 0.0, 7.0, 1.0]);
    assert_eq!(out[1].re, [-2.0, -1.0, 3.0, -3.0, 2.0, 1.0]);
}

#[test]
fn single_output_size_is_a_row_of_rows_and_cols() {
    let src = "function [s, t] = sz(A, x)\ns = size(A);\nt = size(x);\nend";
    let a = CValue {
        rows: 3,
        cols: 4,
        re: (0..12).map(f64::from).collect(),
        im: None,
    };
    let x = CValue::row(&[2.5]);
    let out = check_program(src, "sz", 2, &[arg::matrix(3, 4), arg::scalar()], &[a, x]);
    assert_eq!(out[0].re, [3.0, 4.0]);
    assert_eq!(out[1].re, [1.0, 1.0]);
}

#[test]
fn flips_of_a_real_vector_and_a_complex_matrix() {
    let src = "function [a, b] = fl(x)\na = fliplr(x);\nb = flipud(x);\nend";
    let x = CValue::row(&[1.0, 2.0, 3.0, 4.0]);
    let out = check_program(src, "fl", 2, &[arg::vector(4)], &[x]);
    assert_eq!(out[0].re, [4.0, 3.0, 2.0, 1.0]);

    let a = CValue {
        rows: 2,
        cols: 3,
        re: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        im: Some(vec![-1.0, 0.5, 0.0, 2.0, -3.0, 1.0]),
    };
    let ty = Ty::new(Class::Complex, Shape::known(2, 3));
    let out = check_program(src, "fl", 2, &[ty], &[a]);
    assert_eq!(out[0].re, [5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
    assert_eq!(
        out[1].im.as_deref(),
        Some(&[0.5, -1.0, 2.0, 0.0, 1.0, -3.0][..])
    );
}

#[test]
fn angle_of_a_real_array_matches_the_interpreter() {
    let src = "function y = an(x)\ny = angle(x);\nend";
    let x = CValue::row(&[-0.0, f64::NAN, -2.0, 3.0]);
    let out = check_program(src, "an", 1, &[arg::vector(4)], &[x]);
    let pi = std::f64::consts::PI;
    assert_eq!(out[0].re[0], pi);
    assert!(out[0].re[1].is_nan());
    assert_eq!(out[0].re[2..], [pi, 0.0]);
}

#[test]
fn matrix_reductions_are_column_wise() {
    let src = "function [s, p, m, lo, hi, an, al, mx, k] = rd(A)\ns = sum(A);\np = prod(A);\nm = mean(A);\nlo = min(A);\nhi = max(A);\nan = any(A);\nal = all(A);\n[mx, k] = max(A);\nend";
    let a = CValue {
        rows: 2,
        cols: 3,
        re: vec![1.0, -2.0, 0.0, 4.0, 5.0, 0.0],
        im: None,
    };
    let out = check_program(src, "rd", 9, &[arg::matrix(2, 3)], &[a]);
    assert_eq!(out[0].re, [-1.0, 4.0, 5.0]);
    assert_eq!(out[6].re, [1.0, 0.0, 0.0]);
    assert_eq!(out[8].re, [1.0, 2.0, 1.0]);

    // A statically unshaped argument that is a row vector at run time
    // reduces to one 1x1 slice, as in the interpreter.
    let row = CValue::row(&[3.0, -1.0, 2.0, 0.5]);
    let unshaped = Ty::new(Class::Double, Shape::unknown());
    let out = check_program(src, "rd", 9, &[unshaped], &[row]);
    assert_eq!((&out[0].re[..], &out[8].re[..]), (&[4.5][..], &[1.0][..]));
}

#[test]
fn complex_vector_min_max_compare_real_parts() {
    let src = "function [lo, hi, m, k] = cm(z)\nlo = min(z);\nhi = max(z);\n[m, k] = max(z);\nend";
    let z = CValue::cx_row(&[(1.0, 5.0), (-2.0, 0.0), (3.0, -1.0), (0.5, 9.0)]);
    let out = check_program(src, "cm", 4, &[arg::cx_vector(4)], &[z]);
    assert_eq!((out[0].re[0], out[1].re[0]), (-2.0, 3.0));
    assert_eq!((out[2].re[0], out[3].re[0]), (3.0, 3.0));
}

#[test]
fn two_argument_min_max_with_a_complex_operand() {
    // Real parts compare; a NaN operand is skipped; a tie returns the
    // second operand, as the interpreter does.
    let src = "function [p, q, r, s] = mc(z, x, w)\np = min(z, w);\nq = max(x, z);\nr = max(z(1), 2);\ns = min(w, z(2));\nend";
    let z = CValue::cx_row(&[(1.0, 5.0), (-2.0, 1.0), (f64::NAN, 0.0), (3.0, -1.0)]);
    let x = CValue::row(&[0.5, -2.0, 4.0, 3.0]);
    let w = CValue::cx_scalar(-2.0, 7.0);
    let args = [arg::cx_vector(4), arg::vector(4), arg::cx_scalar()];
    let out = check_program(src, "mc", 4, &args, &[z, x, w]);
    assert_eq!(out[0].re, [-2.0, -2.0, -2.0, -2.0]);
    assert_eq!(out[0].im.as_deref(), Some(&[7.0, 7.0, 7.0, 7.0][..]));
    assert_eq!(out[1].re[..2], [1.0, -2.0]);
    assert_eq!(out[1].im.as_deref().map(|im| im[1]), Some(1.0));
    assert_eq!((out[2].re[0], out[3].re[0]), (2.0, -2.0));
}

#[test]
fn element_wise_ops_of_a_real_and_a_complex_array() {
    // The result takes its extents from whichever operand is larger; a
    // real and a complex descriptor are read field by field.
    let src = "function [y, m] = rc(x, z)\ny = x .* z;\nm = max(x, z);\nend";
    let x = CValue::row(&[1.0, -2.0, 3.0]);
    let z = CValue::cx_row(&[(0.0, 1.0), (2.0, 0.5), (-1.0, -1.0)]);
    let out = check_program(src, "rc", 2, &[arg::vector(3), arg::cx_vector(3)], &[x, z]);
    assert_eq!(out[0].re, [0.0, -4.0, -3.0]);
    assert_eq!(out[1].re, [1.0, 2.0, 3.0]);
}

/// Reads that full optimization turns into a strided vector intrinsic
/// (`__asip_vcopy`), whose operands the C backend does not bounds-check
/// at all: under `-DMATIC_BOUNDS_CHECK` the row-5 read runs past `A`'s
/// buffer instead of trapping.
const UNCHECKED_VECTOR_READS: [(&str, &str); 1] = [("y = A(k, :);", "opt")];

/// A row past the last one of a 4x5 `A` is out of bounds on every
/// executor, even where its column-major offset lands inside `A`: checked
/// C tests each subscript against its own extent, as the simulator does,
/// for reads and stores. `matic-interp` raises on the read and grows `A`
/// on the store.
#[test]
fn checked_c_bounds_checks_each_axis_of_a_two_subscript_read() {
    let a = CValue {
        rows: 4,
        cols: 5,
        re: (1..=20).map(f64::from).collect(),
        im: None,
    };
    let sig = [arg::matrix(4, 5), arg::scalar()];
    // Each statement, the trap site it names, and what a read of row 4
    // returns (a store returns `A`).
    let cases: [(&str, &str, Option<&[f64]>); 5] = [
        ("y = A(k, 1);", "index", Some(&[4.0])),
        ("y = A(k, 2:3);", "index2d", Some(&[8.0, 12.0])),
        (
            "y = A(k, :);",
            "index2d",
            Some(&[4.0, 8.0, 12.0, 16.0, 20.0]),
        ),
        ("A(k, 1) = 7;\ny = A;", "store", None),
        ("A(k, 2:3) = 7;\ny = A;", "store2d", None),
    ];
    for (stmt, what, row4) in cases {
        let store = row4.is_none();
        let src = format!("function y = rd(A, k)\n{stmt}\nend");
        let out = check_program(&src, "rd", 1, &sig, &[a.clone(), CValue::scalar(4.0)]);
        if let Some(row4) = row4 {
            assert_eq!(out[0].re, row4, "{stmt}");
        }

        let inputs = [a.clone(), CValue::scalar(5.0)];
        let mut interp = Interpreter::from_source(&src).expect("source parses");
        let got = interp.call("rd", inputs.iter().map(to_interp).collect(), 1);
        if store {
            let grown = got.expect("a store past the last row grows `A`");
            assert_eq!(grown[0].as_matrix().map(|m| m.rows()), Ok(5), "{stmt}");
        } else {
            let err = got.expect_err("row 5 of 4 is out of bounds");
            assert_eq!(
                err.kind,
                matic_interp::ErrorKind::OutOfBounds,
                "{stmt}: {err}"
            );
        }
        for (label, opt) in [("base", OptLevel::baseline()), ("opt", OptLevel::full())] {
            let compiled = Compiler::new()
                .opt_level(opt)
                .compile(&src, "rd", &sig)
                .unwrap_or_else(|e| panic!("{stmt} [{label}]: {e}"));
            let sim = compiled
                .simulator()
                .run(inputs.iter().map(matic_benchkit::to_sim).collect());
            let err = sim.expect_err("the simulator raises");
            assert_eq!(
                err.kind,
                matic_interp::ErrorKind::OutOfBounds,
                "{stmt} [{label}]: {err}"
            );
            if UNCHECKED_VECTOR_READS.contains(&(stmt, label)) {
                continue;
            }
            let Some(compiler) = cc_or_skip() else {
                continue;
            };
            let tag = format!("rd_oob_{label}");
            let run = run_c(
                &compiled,
                &inputs,
                &tag,
                compiler,
                &["-DMATIC_BOUNDS_CHECK"],
            );
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(
                !run.status.success(),
                "{stmt} [{label}]: C returned {:?}",
                run.stdout
            );
            assert!(
                stderr.contains(&format!("matic: index out of bounds in {what}")),
                "{stmt} [{label}]: {stderr}"
            );
        }
    }
}
