//! The builtin conformance table: every entry of the builtin registry
//! (the element functions and constants), on edge inputs, in three forms,
//! on four executors, compared bit for bit.
//!
//! * Inputs: ±0, ±Inf, NaN, 0.49999999999999994, ±2.5, 2^52 + 1, -4,
//!   1e308, and the complex values 2 - 3i and -0 - 0i. A real-typed
//!   argument takes the real inputs, a complex-typed one every input; a
//!   two-argument entry takes every pair.
//! * Forms: each input as a scalar argument, in 1x4 array arguments, and
//!   in the 8-lane loop `y(k) = f(x(k))` at full optimization on the
//!   8-wide `dsp16`, which the vectorizer turns into a vector-op map for
//!   the lane builtins.
//! * Executors: the reference interpreter, the simulator's engine, its
//!   tree walker, and the generated C built by the host compiler with
//!   `-std=c99` (skipped without a compiler, unless
//!   `MATIC_FUZZ_REQUIRE_C=1` makes a missing one fail the test).
//! * Agreement: each executor returns the interpreter's value bit for bit
//!   (any NaN equals any NaN, and a zero imaginary part of either sign
//!   counts as none), or fails with the interpreter's message. A
//!   combination sema rejects agrees when the interpreter raises the same
//!   message on every call that holds a complex value. `TOLERANCES` names,
//!   per function, the host-C values accepted where C and Rust differ.
//!   `EXCEPTIONS` names the cells known to disagree. The test fails when
//!   a cell outside it disagrees, and when a listed cell has come to
//!   agree.

use matic::{arg, CValue, CompileError, Compiled, Compiler, Cx, Harness, Interpreter, IsaSpec};
use matic::{OptLevel, SimVal, Ty};
use matic_asip::AsipMachine;
use matic_benchkit::{to_interp, to_sim};
use matic_interp::registry::{self, BUILTINS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// Cells known to disagree with the interpreter. A cell is named
/// `name(argument classes) executor form`; an exception names a cell or
/// all the cells it is a prefix of.
const EXCEPTIONS: &[&str] = &[];

/// A host-C element accepted in place of the interpreter's, and why.
struct Tolerance {
    name: &'static str,
    accepts: fn(c: Cx, interp: Cx) -> bool,
    reason: &'static str,
}

/// Either zero on a tie of +0 with -0.
fn either_zero(c: Cx, interp: Cx) -> bool {
    c.re == interp.re && c.im == 0.0 && interp.im == 0.0
}

/// NaN where the interpreter's result is complex.
fn nan_for_complex(c: Cx, interp: Cx) -> bool {
    c.re.is_nan() && c.im == 0.0 && interp.im != 0.0
}

const FMIN: &str = "C99 leaves open which of +0 and -0 `fmin`/`fmax` return on a tie, and \
                    real `min`/`max` keep them in the generated C";
const GOES_COMPLEX: &str = "a real-typed argument whose result is complex: sema types the \
                            result real, as MATLAB Coder does, so C's real function gives NaN";

const TOLERANCES: &[Tolerance] = &[
    Tolerance {
        name: "min",
        accepts: either_zero,
        reason: FMIN,
    },
    Tolerance {
        name: "max",
        accepts: either_zero,
        reason: FMIN,
    },
    Tolerance {
        name: "sqrt",
        accepts: nan_for_complex,
        reason: GOES_COMPLEX,
    },
    Tolerance {
        name: "log",
        accepts: nan_for_complex,
        reason: GOES_COMPLEX,
    },
];

const REALS: [f64; 11] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    0.49999999999999994,
    2.5,
    -2.5,
    4503599627370497.0,
    -4.0,
    1e308,
];

const COMPLEX: [(f64, f64); 2] = [(2.0, -3.0), (-0.0, -0.0)];

/// How the inputs reach the builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// `y = f(a)` on scalar arguments, at baseline optimization.
    Scalar,
    /// `y = f(a)` on 1x4 arguments, at baseline optimization.
    Array,
    /// `y(k) = f(a(k))` for `k = 1:8`, at full optimization.
    Lanes,
}

impl Form {
    fn label(self) -> &'static str {
        match self {
            Form::Scalar => "scalar",
            Form::Array => "array",
            Form::Lanes => "lanes",
        }
    }

    fn width(self) -> usize {
        match self {
            Form::Scalar => 1,
            Form::Array => 4,
            Form::Lanes => 8,
        }
    }

    fn opt(self) -> OptLevel {
        match self {
            Form::Lanes => OptLevel::full(),
            _ => OptLevel::baseline(),
        }
    }

    fn ty(self, complex: bool) -> Ty {
        match (self, complex) {
            (Form::Scalar, false) => arg::scalar(),
            (Form::Scalar, true) => arg::cx_scalar(),
            (_, false) => arg::vector(self.width()),
            (_, true) => arg::cx_vector(self.width()),
        }
    }

    fn source(self, name: &str, arity: usize) -> String {
        let params = ["a", "b"][..arity].join(", ");
        match (self, arity) {
            (_, 0) => format!("function y = f()\ny = {name};\nend\n"),
            (Form::Lanes, _) => {
                let lanes: Vec<String> = ["a", "b"][..arity]
                    .iter()
                    .map(|p| format!("{p}(k)"))
                    .collect();
                format!(
                    "function y = f({params})\ny = zeros(1, 8);\nfor k = 1:8\n    y(k) = {name}({});\nend\nend\n",
                    lanes.join(", ")
                )
            }
            _ => format!("function y = f({params})\ny = {name}({params});\nend\n"),
        }
    }
}

/// The inputs an argument of the given class takes.
fn inputs(complex: bool) -> Vec<(f64, f64)> {
    let mut v: Vec<(f64, f64)> = REALS.iter().map(|&r| (r, 0.0)).collect();
    if complex {
        v.extend(COMPLEX);
    }
    v
}

/// The argument lists of one form: every tuple of inputs, `width` tuples
/// per call (the last call wraps around to the first tuples).
fn calls(classes: &[bool], form: Form) -> Vec<Vec<CValue>> {
    let mut tuples: Vec<Vec<(f64, f64)>> = vec![Vec::new()];
    for &cx in classes {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                inputs(cx).into_iter().map(move |v| {
                    let mut t = t.clone();
                    t.push(v);
                    t
                })
            })
            .collect();
    }
    let w = form.width();
    let n = tuples.len().div_ceil(w);
    (0..n)
        .map(|c| {
            let chunk: Vec<&Vec<(f64, f64)>> = (0..w)
                .map(|k| &tuples[(c * w + k) % tuples.len()])
                .collect();
            classes
                .iter()
                .enumerate()
                .map(|(p, &cx)| CValue {
                    rows: 1,
                    cols: w,
                    re: chunk.iter().map(|t| t[p].0).collect(),
                    im: cx.then(|| chunk.iter().map(|t| t[p].1).collect()),
                })
                .collect()
        })
        .collect()
}

/// An executor's result: its shape and the parts of every element, or its
/// error message.
type Outcome = Result<(usize, usize, Vec<Cx>), String>;

fn of_matrix(m: &matic::Matrix) -> Outcome {
    Ok((m.rows(), m.cols(), m.data().to_vec()))
}

fn of_sim(v: &SimVal) -> Outcome {
    match v {
        SimVal::Scalar(z) => Ok((1, 1, vec![*z])),
        SimVal::Arr(m) => of_matrix(m),
    }
}

fn of_c(v: CValue) -> Outcome {
    let im = v.im.clone().unwrap_or_else(|| vec![0.0; v.numel()]);
    let parts = v.re.iter().zip(&im).map(|(&r, &i)| Cx::new(r, i)).collect();
    Ok((v.rows, v.cols, parts))
}

fn compile_message(e: &CompileError) -> String {
    match e {
        CompileError::Parse(d) | CompileError::Sema(d) | CompileError::Lower(d) => {
            d.message.clone()
        }
        CompileError::Codegen(m) => m.clone(),
    }
}

fn interp(src: &str, calls: &[Vec<CValue>]) -> Vec<Outcome> {
    let mut it = Interpreter::from_source(src).expect("source parses");
    calls
        .iter()
        .map(|args| {
            let vals = args.iter().map(to_interp).collect();
            match it.call("f", vals, 1) {
                Ok(outs) => of_matrix(outs[0].as_matrix()?),
                Err(e) => Err(e.message),
            }
        })
        .collect()
}

fn engine(compiled: &Compiled, calls: &[Vec<CValue>]) -> Vec<Outcome> {
    let sim = compiled.simulator();
    calls
        .iter()
        .map(|args| {
            let out = sim.run(args.iter().map(to_sim).collect());
            out.map_err(|e| e.message)
                .and_then(|o| of_sim(&o.outputs[0]))
        })
        .collect()
}

fn tree_walker(compiled: &Compiled, calls: &[Vec<CValue>]) -> Vec<Outcome> {
    let machine = AsipMachine::from_shared(Arc::clone(&compiled.spec));
    let machine = if compiled.opt.intrinsics {
        machine
    } else {
        machine.without_intrinsics()
    };
    calls
        .iter()
        .map(|args| {
            let inputs = args.iter().map(to_sim).collect();
            machine
                .run_interpreted(&compiled.mir, &compiled.entry, inputs)
                .map_err(|e| e.message)
                .and_then(|o| of_sim(&o.outputs[0]))
        })
        .collect()
}

fn cc() -> Option<&'static str> {
    let found = ["cc", "gcc", "clang"].into_iter().find(|cand| {
        Command::new(cand)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    });
    if found.is_none() {
        assert!(
            std::env::var("MATIC_FUZZ_REQUIRE_C").map_or(true, |v| v != "1"),
            "no C compiler found, and MATIC_FUZZ_REQUIRE_C=1 requires one"
        );
        eprintln!("skipping the host-C column: no C compiler found");
    }
    found
}

fn scratch_dir(tag: &str) -> PathBuf {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!("matic_conf_{tag}_{}_{t}", std::process::id()))
}

/// Builds the generated C once and runs every call from one `main`, each
/// in its own block after a scratch-pool reset.
fn host_c(compiled: &Compiled, calls: &[Vec<CValue>], tag: &str, compiler: &str) -> Vec<Outcome> {
    let entry = compiled.entry_mir();
    let mut main = String::from("int main(void) {\n");
    for args in calls {
        let one = Harness.main_source(entry, args, 1).expect("harness");
        let body = one
            .strip_prefix("int main(void) {\n")
            .and_then(|b| b.strip_suffix("    return 0;\n}\n"))
            .expect("harness main shape");
        main.push_str("{\n    matic_rt_reset();\n");
        main.push_str(body);
        main.push_str("}\n");
    }
    main.push_str("    return 0;\n}\n");
    let dir = scratch_dir(tag);
    let c_path = matic_codegen::write_module(&dir, &compiled.c, Some(&main)).expect("module");
    let exe = dir.join("prog");
    let out = Command::new(compiler)
        .args(["-std=c99", "-O1", "-w", "-o"])
        .arg(&exe)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .expect("cc runs");
    assert!(
        out.status.success(),
        "{tag}: C compilation failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = Command::new(&exe).output().expect("program runs");
    let _ = std::fs::remove_dir_all(&dir);
    if !run.status.success() {
        let msg = String::from_utf8_lossy(&run.stderr).trim().to_string();
        return calls.iter().map(|_| Err(msg.clone())).collect();
    }
    let outs = CValue::parse_outputs(&String::from_utf8_lossy(&run.stdout)).expect("outputs");
    assert_eq!(outs.len(), calls.len(), "{tag}: one output per call");
    outs.into_iter().map(of_c).collect()
}

/// Bitwise equality of two parts; any NaN equals any NaN.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Whether `got` is the interpreter's `want` bit for bit, both parts of
/// every element, or else what `tolerance` accepts. An imaginary part of
/// +0 or -0 is no imaginary part, as in the value model, where either
/// makes the element real.
fn agrees(got: &Outcome, want: &Outcome, tolerance: Option<&Tolerance>) -> bool {
    let same_im = |a: f64, b: f64| (a == 0.0 && b == 0.0) || same_bits(a, b);
    let same = |a: &Cx, b: &Cx| same_bits(a.re, b.re) && same_im(a.im, b.im);
    match (got, want) {
        (Ok((gr, gc, g)), Ok((wr, wc, w))) => {
            (gr, gc) == (wr, wc)
                && g.iter()
                    .zip(w)
                    .all(|(a, b)| same(a, b) || tolerance.is_some_and(|t| (t.accepts)(*a, *b)))
        }
        (Err(g), Err(w)) => g == w,
        _ => false,
    }
}

fn show_parts(parts: &[Cx]) -> String {
    let each: Vec<String> = parts
        .iter()
        .map(|z| format!("{:?}{:+?}i", z.re, z.im))
        .collect();
    format!("[{}]", each.join(", "))
}

fn show(v: &Outcome) -> String {
    match v {
        Ok((_, _, parts)) => show_parts(parts),
        Err(m) => format!("error: {m}"),
    }
}

/// Every argument-class combination of an entry.
fn class_combos(arity: usize) -> Vec<Vec<bool>> {
    match arity {
        0 => vec![vec![]],
        1 => vec![vec![false], vec![true]],
        _ => vec![
            vec![false, false],
            vec![false, true],
            vec![true, false],
            vec![true, true],
        ],
    }
}

#[test]
fn every_element_builtin_agrees_on_every_executor() {
    let compiler = cc();
    // Disagreeing cells, each with its first disagreeing call.
    let mut found: BTreeMap<String, String> = BTreeMap::new();
    for b in &BUILTINS {
        let (name, arity) = (b.name, b.arity());
        for classes in class_combos(arity) {
            let forms: &[Form] = if arity == 0 {
                &[Form::Scalar]
            } else {
                &[Form::Scalar, Form::Array, Form::Lanes]
            };
            let cls: String = classes.iter().map(|&c| if c { 'c' } else { 'r' }).collect();
            for &form in forms {
                let src = form.source(name, arity);
                let calls = calls(&classes, form);
                let want = interp(&src, &calls);
                let tys: Vec<Ty> = classes.iter().map(|&c| form.ty(c)).collect();
                let compiled = Compiler::new()
                    .target(IsaSpec::dsp16())
                    .opt_level(form.opt())
                    .compile(&src, "f", &tys);
                let tag = format!("{name}_{cls}_{}", form.label());
                let columns: Vec<(&str, Vec<Outcome>)> = match &compiled {
                    Ok(c) => {
                        let mut cols = vec![
                            ("engine", engine(c, &calls)),
                            ("tree", tree_walker(c, &calls)),
                        ];
                        if let Some(cc) = compiler {
                            cols.push(("c", host_c(c, &calls, &tag, cc)));
                        }
                        cols
                    }
                    Err(e) => {
                        let m = Err(compile_message(e));
                        let mut cols = vec![
                            ("engine", vec![m.clone(); calls.len()]),
                            ("tree", vec![m.clone(); calls.len()]),
                        ];
                        if compiler.is_some() {
                            cols.push(("c", vec![m; calls.len()]));
                        }
                        cols
                    }
                };
                // Sema rejects a combination whatever the values, the
                // interpreter only a call that holds a complex value: those
                // are the calls to compare.
                let rejected = matches!(compiled, Err(CompileError::Sema(_)));
                let holds_complex = |args: &[CValue]| {
                    args.iter()
                        .any(|a| a.im.iter().flatten().any(|&i| i != 0.0))
                };
                for (exec, got) in columns {
                    let tolerance = TOLERANCES.iter().find(|t| exec == "c" && t.name == name);
                    let bad = calls
                        .iter()
                        .zip(got.iter().zip(&want))
                        .filter(|(args, _)| !rejected || holds_complex(args))
                        .find(|(_, (g, w))| !agrees(g, w, tolerance));
                    if let Some((args, (g, w))) = bad {
                        let key = format!("{name}({cls}) {exec} {}", form.label());
                        let args: Vec<String> =
                            args.iter().map(|a| show(&of_c(a.clone()))).collect();
                        found.insert(
                            key,
                            format!(
                                "on {}: got {}, interpreter {}",
                                args.join(", "),
                                show(g),
                                show(w)
                            ),
                        );
                    }
                }
            }
        }
    }
    // An exception covers the cells it names or is a prefix of.
    let covers = |exc: &str, key: &str| key == exc || key.starts_with(&format!("{exc} "));
    let mut report = String::new();
    for (key, detail) in &found {
        if !EXCEPTIONS.iter().any(|e| covers(e, key)) {
            report.push_str(&format!("disagrees: {key}: {detail}\n"));
        }
    }
    for exc in EXCEPTIONS {
        // Without a compiler the host-C cells cannot be seen either way.
        let unseen = compiler.is_none() && exc.contains(" c");
        if !unseen && !found.keys().any(|k| covers(exc, k)) {
            report.push_str(&format!("now agrees, drop the exception: {exc}\n"));
        }
    }
    assert!(report.is_empty(), "\n{report}");
}

#[test]
fn every_tolerance_names_a_registry_entry_and_a_reason() {
    for t in TOLERANCES {
        assert!(registry::lookup(t.name).is_some(), "{}", t.name);
        assert!(!t.reason.is_empty(), "{}", t.name);
    }
}
