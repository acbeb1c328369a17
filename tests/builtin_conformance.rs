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
//!
//! A second table does the same for the non-element-wise builtins the C
//! backend emits (reductions, `[m, k] = min`/`max`, `dot`, `norm`,
//! `cumsum`, the flips, `linspace`, `size`): on a real and a complex row,
//! a real and a complex 3x2 matrix and an empty slice, at baseline and
//! full optimization, every output compared, with its own
//! `ARRAY_EXCEPTIONS`.

use matic::{arg, CValue, CompileError, Compiled, Compiler, Cx, Harness, Interpreter, IsaSpec};
use matic::{OptLevel, SimVal, Ty};
use matic_asip::AsipMachine;
use matic_benchkit::{to_interp, to_sim};
use matic_interp::registry::{self, BUILTINS};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::cc_or_skip;

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

/// One output: its shape and the parts of every element.
type Out = (usize, usize, Vec<Cx>);

/// An executor's result: every output, or its error message.
type Outcome = Result<Vec<Out>, String>;

fn of_matrix(m: &matic::Matrix) -> Out {
    (m.rows(), m.cols(), m.data().to_vec())
}

fn of_sim(v: &SimVal) -> Out {
    match v {
        SimVal::Scalar(z) => (1, 1, vec![*z]),
        SimVal::Arr(m) => of_matrix(m),
    }
}

fn of_c(v: CValue) -> Out {
    let im = v.im.clone().unwrap_or_else(|| vec![0.0; v.numel()]);
    let parts = v.re.iter().zip(&im).map(|(&r, &i)| Cx::new(r, i)).collect();
    (v.rows, v.cols, parts)
}

fn compile_message(e: &CompileError) -> String {
    match e {
        CompileError::Parse(d) | CompileError::Sema(d) | CompileError::Lower(d) => {
            d.message.clone()
        }
        CompileError::Codegen(m) => m.clone(),
    }
}

/// The interpreter's `nout` outputs of `f` on each call.
fn interp(src: &str, calls: &[Vec<CValue>], nout: usize) -> Vec<Outcome> {
    let mut it = Interpreter::from_source(src).expect("source parses");
    calls
        .iter()
        .map(|args| {
            let vals = args.iter().map(to_interp).collect();
            match it.call("f", vals, nout) {
                Ok(outs) => outs.iter().map(|v| Ok(of_matrix(v.as_matrix()?))).collect(),
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
            out.map(|o| o.outputs.iter().map(of_sim).collect())
                .map_err(|e| e.message)
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
                .map(|o| o.outputs.iter().map(of_sim).collect())
                .map_err(|e| e.message)
        })
        .collect()
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
    let run = matic_codegen::build_and_run(compiler, &compiled.c, &main, &["-O1"])
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    if !run.status.success() {
        let msg = String::from_utf8_lossy(&run.stderr).trim().to_string();
        return calls.iter().map(|_| Err(msg.clone())).collect();
    }
    let outs = CValue::parse_outputs(&String::from_utf8_lossy(&run.stdout)).expect("outputs");
    let nout = entry.outputs.len();
    assert_eq!(
        outs.len(),
        calls.len() * nout,
        "{tag}: every output of every call"
    );
    outs.chunks(nout)
        .map(|call| Ok(call.iter().cloned().map(of_c).collect()))
        .collect()
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
    let same_out = |(gr, gc, g): &Out, (wr, wc, w): &Out| {
        (gr, gc) == (wr, wc)
            && g.iter()
                .zip(w)
                .all(|(a, b)| same(a, b) || tolerance.is_some_and(|t| (t.accepts)(*a, *b)))
    };
    match (got, want) {
        (Ok(g), Ok(w)) => g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same_out(a, b)),
        (Err(g), Err(w)) => g == w,
        _ => false,
    }
}

fn show_out((rows, cols, parts): &Out) -> String {
    let each: Vec<String> = parts
        .iter()
        .map(|z| format!("{:?}{:+?}i", z.re, z.im))
        .collect();
    format!("{rows}x{cols} [{}]", each.join(", "))
}

fn show(v: &Outcome) -> String {
    match v {
        Ok(outs) => outs.iter().map(show_out).collect::<Vec<_>>().join(", "),
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
    let compiler = cc_or_skip();
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
                let want = interp(&src, &calls, 1);
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
                            args.iter().map(|a| show_out(&of_c(a.clone()))).collect();
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

/// A row of the array-builtin table: a builtin that is not a registry
/// entry, called on the input `a` in the statement `body`, which sets the
/// first `nout` of `y` and `k`.
struct ArrayRow {
    label: &'static str,
    body: &'static str,
    nout: usize,
    /// The C backend emits it for real arguments only.
    real_only: bool,
}

const fn row(label: &'static str, body: &'static str, nout: usize) -> ArrayRow {
    ArrayRow {
        label,
        body,
        nout,
        real_only: false,
    }
}

const ARRAY_ROWS: &[ArrayRow] = &[
    row("sum", "y = sum(a);", 1),
    row("prod", "y = prod(a);", 1),
    row("mean", "y = mean(a);", 1),
    row("min", "y = min(a);", 1),
    row("max", "y = max(a);", 1),
    row("[m,k]=min", "[y, k] = min(a);", 2),
    row("[m,k]=max", "[y, k] = max(a);", 2),
    row("dot", "y = dot(a, a + 1);", 1),
    row("norm", "y = norm(a);", 1),
    row("any", "y = any(a);", 1),
    row("all", "y = all(a);", 1),
    ArrayRow {
        real_only: true,
        ..row("cumsum", "y = cumsum(a);", 1)
    },
    row("fliplr", "y = fliplr(a);", 1),
    row("flipud", "y = flipud(a);", 1),
    row("linspace", "y = linspace(-1, 2, numel(a));", 1),
    row("size", "y = size(a);", 1),
    row("[r,c]=size", "[y, k] = size(a);", 2),
];

/// The inputs of the array-builtin table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrayInput {
    Row,
    CxRow,
    Matrix,
    CxMatrix,
    /// `p(2:1)` of a real row `p`.
    Empty,
}

impl ArrayInput {
    const ALL: [ArrayInput; 5] = [
        ArrayInput::Row,
        ArrayInput::CxRow,
        ArrayInput::Matrix,
        ArrayInput::CxMatrix,
        ArrayInput::Empty,
    ];

    fn label(self) -> &'static str {
        match self {
            ArrayInput::Row => "row",
            ArrayInput::CxRow => "cxrow",
            ArrayInput::Matrix => "3x2",
            ArrayInput::CxMatrix => "cx3x2",
            ArrayInput::Empty => "empty",
        }
    }

    fn complex(self) -> bool {
        matches!(self, ArrayInput::CxRow | ArrayInput::CxMatrix)
    }

    fn ty(self) -> Ty {
        match self {
            ArrayInput::Row | ArrayInput::Empty => arg::vector(3),
            ArrayInput::CxRow => arg::cx_vector(3),
            ArrayInput::Matrix => arg::matrix(3, 2),
            ArrayInput::CxMatrix => Ty::new(matic::Class::Complex, matic::Shape::known(3, 2)),
        }
    }

    /// A zero, a tie of the largest real part and a column with a zero,
    /// so `any`/`all` and `min`/`max` indices differ between the forms.
    fn value(self) -> CValue {
        let (rows, cols, re, im): (usize, usize, Vec<f64>, Vec<f64>) = match self {
            ArrayInput::Row | ArrayInput::Empty => (1, 3, vec![2.0, -1.0, 0.5], vec![]),
            ArrayInput::CxRow => (1, 3, vec![1.0, 3.0, 3.0], vec![2.0, -1.0, 4.0]),
            ArrayInput::Matrix => (3, 2, vec![1.0, 4.0, 3.0, 0.0, 7.0, -2.0], vec![]),
            ArrayInput::CxMatrix => (
                3,
                2,
                vec![1.0, -4.0, 1.0, 0.0, 2.0, 5.0],
                vec![1.0, 0.5, -3.0, 0.0, 0.0, 2.0],
            ),
        };
        CValue {
            rows,
            cols,
            re,
            im: self.complex().then_some(im),
        }
    }

    fn source(self, row: &ArrayRow) -> String {
        let outs = ["y", "k"][..row.nout].join(", ");
        let (param, prelude) = match self {
            ArrayInput::Empty => ("p", "a = p(2:1);\n"),
            _ => ("a", ""),
        };
        format!(
            "function [{outs}] = f({param})\n{prelude}{}\nend\n",
            row.body
        )
    }
}

/// Cells of the array-builtin table known to disagree with the
/// interpreter, named `builtin(input) executor level` or by a prefix of
/// such names, as in [`EXCEPTIONS`].
const ARRAY_EXCEPTIONS: &[&str] = &[
    // C folds `min`/`max` from the first element, which an empty argument
    // does not have, into a scalar result where the interpreter returns
    // the empty array.
    "[m,k]=max(empty) c",
    "[m,k]=min(empty) c",
    "max(empty) c",
    "min(empty) c",
    // C reduces a matrix as one vector where the interpreter raises
    // "only vectors supported".
    "cumsum(3x2) c",
    "norm(3x2) c",
    "norm(cx3x2) c",
];

/// The non-element-wise builtins the C backend emits, on a real and a
/// complex row, a real and a complex 3x2 matrix and an empty slice, at
/// baseline and full optimization: the engine, the tree walker and host C
/// agree with the interpreter bit for bit on every output, or fail with
/// its message, outside [`ARRAY_EXCEPTIONS`].
#[test]
fn every_array_builtin_agrees_on_every_executor() {
    let compiler = cc_or_skip();
    let mut found: BTreeMap<String, String> = BTreeMap::new();
    for (r, row) in ARRAY_ROWS.iter().enumerate() {
        for input in ArrayInput::ALL {
            if row.real_only && input.complex() {
                continue;
            }
            let src = input.source(row);
            let calls = vec![vec![input.value()]];
            let want = interp(&src, &calls, row.nout);
            for (level, opt) in [("base", OptLevel::baseline()), ("opt", OptLevel::full())] {
                let compiled = Compiler::new()
                    .target(IsaSpec::dsp16())
                    .opt_level(opt)
                    .compile(&src, "f", &[input.ty()]);
                let tag = format!("array{r}_{}_{level}", input.label());
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
                    Err(e) => vec![("compile", vec![Err(compile_message(e))])],
                };
                for (exec, got) in columns {
                    let tolerance = TOLERANCES
                        .iter()
                        .find(|t| exec == "c" && t.name == row.label);
                    if !agrees(&got[0], &want[0], tolerance) {
                        let key = format!("{}({}) {exec} {level}", row.label, input.label());
                        found.insert(
                            key,
                            format!("got {}, interpreter {}", show(&got[0]), show(&want[0])),
                        );
                    }
                }
            }
        }
    }
    let covers = |exc: &str, key: &str| key == exc || key.starts_with(&format!("{exc} "));
    let mut report = String::new();
    for (key, detail) in &found {
        if !ARRAY_EXCEPTIONS.iter().any(|e| covers(e, key)) {
            report.push_str(&format!("disagrees: {key}: {detail}\n"));
        }
    }
    for exc in ARRAY_EXCEPTIONS {
        let unseen = compiler.is_none() && exc.split(' ').nth(1) == Some("c");
        if !unseen && !found.keys().any(|k| covers(exc, k)) {
            report.push_str(&format!("now agrees, drop the exception: {exc}\n"));
        }
    }
    assert!(report.is_empty(), "\n{report}");
}
