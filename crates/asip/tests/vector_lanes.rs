//! Hand-built vector ops that the vectorizer never emits: a destination
//! that overlaps one of its inputs at a shifted position, and one failing
//! op per step of the lane code's error order (input a, input b, the op,
//! destination shape, destination unset, start/step, destination bounds).
//!
//! Each op runs on the native engine and on the tree walker, which must
//! agree bit for bit: outputs and cycles, or error kind, message and span.

use matic_asip::{AsipMachine, SimError, SimVal};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_isa::IsaSpec;
use matic_mir::{MirProgram, Operand, ReduceKind, Stmt, VarId, VecKind, VecRef, VectorOp};
use matic_sema::{Class, Dim, Shape, Ty};

const N: usize = 8;

/// The registers of `f(x)`: `y = x` holds a copy of the input, `z` and
/// `w` are never assigned.
struct Regs {
    x: VarId,
    y: VarId,
    z: VarId,
    w: VarId,
}

/// Builds one vector op over the registers of `f(x)`.
type BuildOp = fn(&Regs) -> VectorOp;

/// `function y = f(x)` with `y = x`, then `op(&regs)` appended.
fn program(op: impl FnOnce(&Regs) -> VectorOp) -> MirProgram {
    let (ast, diags) = matic_frontend::parse("function y = f(x)\ny = x;\nend");
    assert!(!diags.has_errors(), "{diags:?}");
    let vec_ty = Ty::new(Class::Double, Shape::row(Dim::Known(N)));
    let analysis = matic_sema::analyze(&ast, "f", &[vec_ty]);
    let (mut mir, _) = matic_mir::lower_program(&ast, &analysis);
    let f = &mut mir.functions[0];
    let regs = Regs {
        x: f.var_by_name("x").expect("x"),
        y: f.var_by_name("y").expect("y"),
        z: f.add_var("z", vec_ty),
        w: f.add_var("w", Ty::double_scalar()),
    };
    f.body.push(Stmt::VectorOp(op(&regs)));
    mir
}

fn slice(array: VarId, start: f64, step: f64) -> VecRef {
    VecRef::Slice {
        array,
        start: Operand::Const(start),
        step: Operand::Const(step),
    }
}

fn splat(v: f64) -> VecRef {
    VecRef::Splat(Operand::Const(v))
}

fn vector_op(kind: VecKind, dst: VecRef, a: VecRef, b: Option<VecRef>, len: f64) -> VectorOp {
    VectorOp {
        kind,
        dst,
        a,
        b,
        len: Operand::Const(len),
        complex: false,
        span: Span::dummy(),
    }
}

/// `x = [10 20 .. 80]`.
fn xvec() -> Vec<f64> {
    (1..=N).map(|k| 10.0 * k as f64).collect()
}

/// Runs `f(x)` on both engines and returns the agreed outcome.
fn run(mir: &MirProgram) -> Result<Vec<f64>, SimError> {
    let machine = AsipMachine::new(IsaSpec::dsp16());
    let inputs = vec![SimVal::row(&xvec())];
    let native = machine.clone().load(mir, "f").run(inputs.clone());
    let walked = machine.run_interpreted(mir, "f", inputs);
    assert_eq!(native, walked, "native engine and tree walker diverge");
    native.map(|out| {
        let y = out.outputs[0].clone().into_matrix();
        y.data().iter().map(|z| z.re).collect()
    })
}

fn error_of(op: impl FnOnce(&Regs) -> VectorOp) -> String {
    match run(&program(op)) {
        Ok(y) => panic!("expected an error, got {y:?}"),
        Err(e) => e.message,
    }
}

#[test]
fn a_destination_overlapping_its_input_reads_the_lanes_before_the_op() {
    // y(2:8) = y(1:7) + 1 with y = x: every lane reads the old y, so the
    // result is a shift, not a running sum.
    let y = run(&program(|r| {
        vector_op(
            VecKind::Map(BinOp::Add),
            slice(r.y, 2.0, 1.0),
            slice(r.y, 1.0, 1.0),
            Some(splat(1.0)),
            7.0,
        )
    }))
    .unwrap();
    let x = xvec();
    let mut want = vec![x[0]];
    want.extend(x[..N - 1].iter().map(|v| v + 1.0));
    assert_eq!(y, want);

    // Reversed in place: y(8:-1:1) = -y(1:8).
    let y = run(&program(|r| {
        vector_op(
            VecKind::MapUnary(UnOp::Neg),
            slice(r.y, 8.0, -1.0),
            slice(r.y, 1.0, 1.0),
            None,
            8.0,
        )
    }))
    .unwrap();
    let want: Vec<f64> = x.iter().rev().map(|v| -v).collect();
    assert_eq!(y, want);

    // The input array itself is untouched when the destination shares
    // its storage: y = x, then y(1:8) = x(1:8) * 2 leaves x as it was.
    let mir = program(|r| {
        vector_op(
            VecKind::Map(BinOp::ElemMul),
            slice(r.y, 1.0, 1.0),
            slice(r.x, 1.0, 1.0),
            Some(splat(2.0)),
            8.0,
        )
    });
    assert_eq!(
        run(&mir).unwrap(),
        x.iter().map(|v| v * 2.0).collect::<Vec<_>>()
    );
}

#[test]
fn an_empty_op_reads_and_writes_nothing() {
    let y = run(&program(|r| {
        vector_op(
            VecKind::Map(BinOp::AndAnd),
            slice(r.z, 0.0, 1.0),
            slice(r.x, 99.0, 1.0),
            None,
            0.0,
        )
    }))
    .unwrap();
    assert_eq!(y, xvec());
}

/// The destination `z(w:1:..)`: neither `z` nor `w` is ever assigned.
fn unset_dst_and_start(r: &Regs) -> VecRef {
    VecRef::Slice {
        array: r.z,
        start: Operand::Var(r.w),
        step: Operand::Const(1.0),
    }
}

#[test]
fn vector_op_errors_come_in_a_fixed_order() {
    use VecKind::{Copy, Mac, Map, MapBuiltin, Reduce};
    const ADD: VecKind = Map(BinOp::Add);
    // Where a later step of the order can fail too, the op is built to
    // fail there as well, so its message shows which step comes first.
    let cases: [(&str, BuildOp); 12] = [
        // Input a before input b.
        ("vector lane 9 out of bounds", |r| {
            let b = Some(slice(r.x, 0.0, 1.0));
            vector_op(ADD, slice(r.z, 1.0, 1.0), slice(r.x, 2.0, 1.0), b, 8.0)
        }),
        ("read of unset `w`", |r| {
            let b = Some(slice(r.z, 1.0, 1.0));
            vector_op(ADD, slice(r.y, 1.0, 1.0), slice(r.w, 1.0, 1.0), b, 8.0)
        }),
        // Input b before the op.
        ("vector lane 0 out of bounds", |r| {
            let b = Some(slice(r.x, 0.0, 1.0));
            let op = Map(BinOp::OrOr);
            vector_op(op, slice(r.z, 1.0, 1.0), slice(r.x, 1.0, 1.0), b, 8.0)
        }),
        // The op before anything about the destination.
        ("short-circuit operator applied to matrices", |r| {
            let b = Some(splat(1.0));
            vector_op(Map(BinOp::AndAnd), splat(0.0), slice(r.x, 1.0, 1.0), b, 8.0)
        }),
        ("lane builtin `mod`", |r| {
            let op = MapBuiltin("mod".to_string());
            vector_op(op, splat(0.0), slice(r.x, 1.0, 1.0), None, 8.0)
        }),
        // The destination's shape before an unset destination.
        ("vector store needs a slice", |r| {
            let dst = VecRef::Splat(Operand::Var(r.z));
            vector_op(ADD, dst, slice(r.x, 1.0, 1.0), Some(splat(1.0)), 8.0)
        }),
        ("reduction destination must be a register", |r| {
            let op = Reduce(ReduceKind::Sum);
            vector_op(op, unset_dst_and_start(r), slice(r.x, 1.0, 1.0), None, 8.0)
        }),
        // An unset destination before its start and step.
        ("read of unset `z`", |r| {
            let a = slice(r.x, 1.0, 1.0);
            vector_op(ADD, unset_dst_and_start(r), a, Some(splat(1.0)), 8.0)
        }),
        ("read of unset `w`", |r| {
            let (a, b) = (slice(r.x, 1.0, 1.0), Some(slice(r.x, 1.0, 1.0)));
            vector_op(Mac, VecRef::Splat(Operand::Var(r.w)), a, b, 8.0)
        }),
        // Start and step before the destination's bounds.
        ("read of unset `w`", |r| {
            let dst = VecRef::Slice {
                array: r.y,
                start: Operand::Const(99.0),
                step: Operand::Var(r.w),
            };
            vector_op(ADD, dst, slice(r.x, 1.0, 1.0), Some(splat(1.0)), 8.0)
        }),
        ("vector store lane 9 out of bounds (8)", |r| {
            let b = Some(splat(1.0));
            vector_op(ADD, slice(r.y, 3.0, 1.0), slice(r.x, 1.0, 1.0), b, 8.0)
        }),
        ("vector store lane 0 out of bounds (8)", |r| {
            vector_op(Copy, slice(r.y, 7.0, -1.0), slice(r.x, 1.0, 1.0), None, 8.0)
        }),
    ];
    for (want, op) in cases {
        assert_eq!(error_of(op), want);
    }
}
