//! Implicit data parallelism: array-level operations (`y = a .* b`,
//! `s = sum(v)`, slices) become [`VectorOp`]s directly — MATLAB's
//! vectorized style compiles to custom instructions without the user ever
//! writing a loop.

use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_mir::{
    AllocKind, Index, MirFunction, Operand, ReduceKind, Rvalue, Stmt, VarId, VecKind, VecRef,
    VectorOp,
};
use matic_sema::{registry, Class, Ty};

/// Statistics from the array-operation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrayReport {
    /// Element-wise array expressions strip-mined to vector maps.
    pub maps: usize,
    /// Reductions (`sum`, `prod`, `min`, `max`, `dot`) vectorized.
    pub reductions: usize,
    /// Slice reads/writes converted to strided copies.
    pub copies: usize,
}

/// Runs the pass over `func`.
pub fn vectorize_arrays(func: &mut MirFunction) -> ArrayReport {
    let mut report = ArrayReport::default();
    let mut body = std::mem::take(&mut func.body);
    process(func, &mut body, &mut report);
    func.body = body;
    report
}

fn process(func: &mut MirFunction, stmts: &mut Vec<Stmt>, report: &mut ArrayReport) {
    let mut out = Vec::with_capacity(stmts.len());
    for mut stmt in std::mem::take(stmts) {
        match &mut stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                process(func, then_body, report);
                process(func, else_body, report);
                out.push(stmt);
            }
            Stmt::For { body, .. } => {
                process(func, body, report);
                out.push(stmt);
            }
            Stmt::While {
                cond_defs, body, ..
            } => {
                process(func, cond_defs, report);
                process(func, body, report);
                out.push(stmt);
            }
            Stmt::Def { dst, rv, span } => {
                if let Some(repl) = rewrite_def(func, *dst, rv, *span, report) {
                    out.extend(repl);
                } else {
                    out.push(stmt);
                }
            }
            Stmt::Store {
                array,
                indices,
                value,
                span,
            } => {
                if let Some(repl) = rewrite_store(func, *array, indices, *value, *span, report) {
                    out.extend(repl);
                } else {
                    out.push(stmt);
                }
            }
            _ => out.push(stmt),
        }
    }
    *stmts = out;
}

/// Whether a type is a provably dense array (vector or fully-known
/// matrix) with a numeric class.
fn dense_array(ty: Ty) -> bool {
    !ty.shape.is_scalar()
        && (ty.shape.is_vector() || ty.shape.numel().is_some())
        && matches!(ty.class, Class::Double | Class::Complex)
}

fn scalar_like(ty: Ty) -> bool {
    ty.shape.is_scalar()
}

/// Emits `numel(v)` (folding when static) as the lane count.
fn emit_numel(func: &mut MirFunction, out: &mut Vec<Stmt>, v: VarId, span: Span) -> Operand {
    if let Some(n) = func.var_ty(v).shape.numel() {
        return Operand::Const(n as f64);
    }
    let t = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: t,
        rv: Rvalue::Builtin {
            name: "numel".to_string(),
            args: vec![Operand::Var(v)],
        },
        span,
    });
    Operand::Var(t)
}

/// Emits an allocation for `dst` matching the shape of `like`, plus the
/// lane count. The same `numel` temp serves both (keeping reference
/// counts low enough for the slice-forwarding pass).
fn emit_alloc_like(
    func: &mut MirFunction,
    out: &mut Vec<Stmt>,
    dst: VarId,
    like: VarId,
    span: Span,
) -> Operand {
    let shape = func.var_ty(dst).shape;
    let len = emit_numel(func, out, like, span);
    let (rows, cols) = match (shape.rows.known(), shape.cols.known()) {
        (Some(r), Some(c)) => (Operand::Const(r as f64), Operand::Const(c as f64)),
        (Some(1), None) => (Operand::Const(1.0), len),
        (None, Some(1)) => (len, Operand::Const(1.0)),
        _ => {
            let r = func.add_temp(Ty::double_scalar());
            out.push(Stmt::Def {
                dst: r,
                rv: Rvalue::Builtin {
                    name: "size".to_string(),
                    args: vec![Operand::Var(like), Operand::Const(1.0)],
                },
                span,
            });
            let c = func.add_temp(Ty::double_scalar());
            out.push(Stmt::Def {
                dst: c,
                rv: Rvalue::Builtin {
                    name: "size".to_string(),
                    args: vec![Operand::Var(like), Operand::Const(2.0)],
                },
                span,
            });
            (Operand::Var(r), Operand::Var(c))
        }
    };
    out.push(Stmt::Def {
        dst,
        rv: Rvalue::Alloc {
            kind: AllocKind::Zeros,
            rows,
            cols,
        },
        span,
    });
    len
}

/// Emits `if numel(a) ~= numel(b) then error(...)`.
fn emit_dim_guard(func: &mut MirFunction, out: &mut Vec<Stmt>, a: VarId, b: VarId, span: Span) {
    let na = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: na,
        rv: Rvalue::Builtin {
            name: "numel".to_string(),
            args: vec![Operand::Var(a)],
        },
        span,
    });
    let nb = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: nb,
        rv: Rvalue::Builtin {
            name: "numel".to_string(),
            args: vec![Operand::Var(b)],
        },
        span,
    });
    let ne = func.add_temp(Ty::new(Class::Logical, matic_sema::Shape::scalar()));
    out.push(Stmt::Def {
        dst: ne,
        rv: Rvalue::Binary {
            op: BinOp::Ne,
            a: Operand::Var(na),
            b: Operand::Var(nb),
        },
        span,
    });
    let msg = func.add_temp(Ty::new(
        Class::Char,
        matic_sema::Shape::row(matic_sema::Dim::Unknown),
    ));
    out.push(Stmt::If {
        cond: Operand::Var(ne),
        then_body: vec![
            Stmt::Def {
                dst: msg,
                rv: Rvalue::StrLit("matrix dimensions must agree".to_string()),
                span,
            },
            Stmt::Effect {
                name: "error".to_string(),
                args: vec![Operand::Var(msg)],
                span,
            },
        ],
        else_body: vec![],
        span,
    });
}

fn unit_slice(v: VarId) -> VecRef {
    VecRef::Slice {
        array: v,
        start: Operand::Const(1.0),
        step: Operand::Const(1.0),
    }
}

/// Classifies an operand as a lane source.
fn lane_ref(func: &MirFunction, op: Operand) -> Option<(VecRef, bool /*is_array*/)> {
    match op {
        Operand::Const(_) | Operand::ConstC(..) => Some((VecRef::Splat(op), false)),
        Operand::Var(v) => {
            let ty = func.var_ty(v);
            if scalar_like(ty) {
                Some((VecRef::Splat(op), false))
            } else if dense_array(ty) {
                Some((unit_slice(v), true))
            } else {
                None
            }
        }
    }
}

fn is_complex_op(func: &MirFunction, op: Operand) -> bool {
    match op {
        Operand::ConstC(..) => true,
        Operand::Var(v) => func.var_ty(v).class == Class::Complex,
        Operand::Const(_) => false,
    }
}

fn rewrite_def(
    func: &mut MirFunction,
    dst: VarId,
    rv: &Rvalue,
    span: Span,
    report: &mut ArrayReport,
) -> Option<Vec<Stmt>> {
    let dst_ty = func.var_ty(dst);
    match rv {
        // y = a op b, element-wise on dense arrays.
        Rvalue::Binary { op, a, b }
            if dense_array(dst_ty)
                && matches!(
                    op,
                    BinOp::Add
                        | BinOp::Sub
                        | BinOp::ElemMul
                        | BinOp::ElemDiv
                        | BinOp::MatMul
                        | BinOp::MatDiv
                ) =>
        {
            // In-place updates (`x = x .* y`) must not be rewritten: the
            // allocation of the destination would clobber the source.
            if a.as_var() == Some(dst) || b.as_var() == Some(dst) {
                return None;
            }
            // `*` and `/` are element-wise only when one side is scalar.
            let (ra, a_arr) = lane_ref(func, *a)?;
            let (rb, b_arr) = lane_ref(func, *b)?;
            if matches!(op, BinOp::MatMul | BinOp::MatDiv) && a_arr && b_arr {
                return None;
            }
            if !a_arr && !b_arr {
                return None;
            }
            let ew_op = match op {
                BinOp::MatMul => BinOp::ElemMul,
                BinOp::MatDiv => BinOp::ElemDiv,
                other => *other,
            };
            let like = if a_arr { a.as_var()? } else { b.as_var()? };
            let mut out = Vec::new();
            // MATLAB semantics demand a dimension check when both sides
            // are arrays; elide it only when shapes are statically equal.
            if a_arr && b_arr {
                let (av, bv) = (a.as_var()?, b.as_var()?);
                let (sa, sb) = (func.var_ty(av).shape, func.var_ty(bv).shape);
                let statically_equal = sa.numel().is_some() && sa.numel() == sb.numel();
                if !statically_equal {
                    emit_dim_guard(func, &mut out, av, bv, span);
                }
            }
            let len = emit_alloc_like(func, &mut out, dst, like, span);
            let complex = dst_ty.class == Class::Complex
                || is_complex_op(func, *a)
                || is_complex_op(func, *b);
            out.push(Stmt::VectorOp(VectorOp {
                kind: VecKind::Map(ew_op),
                dst: unit_slice(dst),
                a: ra,
                b: Some(rb),
                len,
                complex,
                span,
            }));
            report.maps += 1;
            Some(out)
        }
        // y = x .^ k on a dense real array with a small constant integer
        // exponent: strength-reduced to element-wise multiply chains
        // (`vmul` on SIMD targets) instead of per-lane `pow` calls.
        Rvalue::Binary {
            op: BinOp::ElemPow,
            a,
            b,
        } if dense_array(dst_ty) && dst_ty.class == Class::Double => {
            // In-place updates must not be rewritten (the allocation of
            // the destination would clobber the source).
            if a.as_var() == Some(dst) {
                return None;
            }
            let x = a.as_var()?;
            if !(dense_array(func.var_ty(x)) && func.var_ty(x).class == Class::Double) {
                return None;
            }
            let k = match b {
                Operand::Const(c) if c.fract() == 0.0 && (2.0..=4.0).contains(c) => *c as u32,
                _ => return None,
            };
            let mut out = Vec::new();
            let len = emit_alloc_like(func, &mut out, dst, x, span);
            let square = |dst_ref: VecRef, src: VecRef, out: &mut Vec<Stmt>| {
                out.push(Stmt::VectorOp(VectorOp {
                    kind: VecKind::Map(BinOp::ElemMul),
                    dst: dst_ref,
                    a: src.clone(),
                    b: Some(src),
                    len,
                    complex: false,
                    span,
                }));
            };
            match k {
                2 => square(unit_slice(dst), unit_slice(x), &mut out),
                3 => {
                    // t = x .* x; dst = t .* x
                    let t = func.add_temp(func.var_ty(dst));
                    let _ = emit_alloc_like(func, &mut out, t, x, span);
                    square(unit_slice(t), unit_slice(x), &mut out);
                    out.push(Stmt::VectorOp(VectorOp {
                        kind: VecKind::Map(BinOp::ElemMul),
                        dst: unit_slice(dst),
                        a: unit_slice(t),
                        b: Some(unit_slice(x)),
                        len,
                        complex: false,
                        span,
                    }));
                    report.maps += 1;
                }
                4 => {
                    // t = x .* x; dst = t .* t
                    let t = func.add_temp(func.var_ty(dst));
                    let _ = emit_alloc_like(func, &mut out, t, x, span);
                    square(unit_slice(t), unit_slice(x), &mut out);
                    square(unit_slice(dst), unit_slice(t), &mut out);
                    report.maps += 1;
                }
                _ => return None,
            }
            report.maps += 1;
            Some(out)
        }
        // y = -a on a dense array.
        Rvalue::Unary { op: UnOp::Neg, a } if dense_array(dst_ty) => {
            let (ra, is_arr) = lane_ref(func, *a)?;
            if !is_arr {
                return None;
            }
            let like = a.as_var()?;
            let mut out = Vec::new();
            let len = emit_alloc_like(func, &mut out, dst, like, span);
            out.push(Stmt::VectorOp(VectorOp {
                kind: VecKind::MapUnary(UnOp::Neg),
                dst: unit_slice(dst),
                a: ra,
                b: None,
                len,
                complex: is_complex_op(func, *a),
                span,
            }));
            report.maps += 1;
            Some(out)
        }
        // y = abs/conj/sqrt/...(a) on a dense array.
        Rvalue::Builtin { name, args }
            if registry::lookup_call(name, args.len()).is_some_and(|b| b.lane)
                && dense_array(dst_ty) =>
        {
            let like = args[0].as_var()?;
            if !dense_array(func.var_ty(like)) {
                return None;
            }
            let mut out = Vec::new();
            let len = emit_alloc_like(func, &mut out, dst, like, span);
            out.push(Stmt::VectorOp(VectorOp {
                kind: VecKind::MapBuiltin(name.clone()),
                dst: unit_slice(dst),
                a: unit_slice(like),
                b: None,
                len,
                complex: is_complex_op(func, args[0]),
                span,
            }));
            report.maps += 1;
            Some(out)
        }
        // s = sum/prod(v), v a dense vector.
        Rvalue::Builtin { name, args }
            if args.len() == 1 && matches!(name.as_str(), "sum" | "prod") =>
        {
            let v = args[0].as_var()?;
            let vty = func.var_ty(v);
            if !(dense_array(vty) && vty.shape.is_vector()) {
                return None;
            }
            let (kind, init) = match name.as_str() {
                "sum" => (ReduceKind::Sum, 0.0),
                _ => (ReduceKind::Prod, 1.0),
            };
            let mut out = Vec::new();
            out.push(Stmt::Def {
                dst,
                rv: Rvalue::Use(Operand::Const(init)),
                span,
            });
            let len = emit_numel(func, &mut out, v, span);
            out.push(Stmt::VectorOp(VectorOp {
                kind: VecKind::Reduce(kind),
                dst: VecRef::Splat(Operand::Var(dst)),
                a: unit_slice(v),
                b: None,
                len,
                complex: vty.class == Class::Complex,
                span,
            }));
            report.reductions += 1;
            Some(out)
        }
        // s = dot(a, b) on real dense vectors (complex dot conjugates and
        // stays on the scalar path).
        Rvalue::Builtin { name, args } if name == "dot" && args.len() == 2 => {
            let a = args[0].as_var()?;
            let b = args[1].as_var()?;
            let (ta, tb) = (func.var_ty(a), func.var_ty(b));
            if !(dense_array(ta) && dense_array(tb))
                || ta.class == Class::Complex
                || tb.class == Class::Complex
            {
                return None;
            }
            let mut out = Vec::new();
            out.push(Stmt::Def {
                dst,
                rv: Rvalue::Use(Operand::Const(0.0)),
                span,
            });
            let len = emit_numel(func, &mut out, a, span);
            out.push(Stmt::VectorOp(VectorOp {
                kind: VecKind::Mac,
                dst: VecRef::Splat(Operand::Var(dst)),
                a: unit_slice(a),
                b: Some(unit_slice(b)),
                len,
                complex: false,
                span,
            }));
            report.reductions += 1;
            Some(out)
        }
        // y = x(r1:s:r2) — strided slice read.
        Rvalue::Index { array, indices } => {
            let (start, step, len_spec) = slice_spec(func, *array, indices)?;
            let mut out = Vec::new();
            let len = match len_spec {
                LenSpec::Op(o) => o,
                LenSpec::RangeLen { start, step, stop } => {
                    emit_range_len(func, &mut out, start, step, stop, span)
                }
            };
            // Allocate destination: same class, a vector of `len`.
            let (rows, cols) = if func.var_ty(dst).shape.cols.is_one() {
                (len, Operand::Const(1.0))
            } else {
                (Operand::Const(1.0), len)
            };
            out.push(Stmt::Def {
                dst,
                rv: Rvalue::Alloc {
                    kind: AllocKind::Zeros,
                    rows,
                    cols,
                },
                span,
            });
            out.push(Stmt::VectorOp(VectorOp {
                kind: VecKind::Copy,
                dst: unit_slice(dst),
                a: VecRef::Slice {
                    array: *array,
                    start,
                    step,
                },
                b: None,
                len,
                complex: func.var_ty(*array).class == Class::Complex,
                span,
            }));
            report.copies += 1;
            Some(out)
        }
        _ => None,
    }
}

fn rewrite_store(
    func: &mut MirFunction,
    array: VarId,
    indices: &[Index],
    value: Operand,
    span: Span,
    report: &mut ArrayReport,
) -> Option<Vec<Stmt>> {
    let (start, step, len_spec) = slice_spec(func, array, indices)?;
    let mut out = Vec::new();
    let len = match len_spec {
        LenSpec::Op(o) => o,
        LenSpec::RangeLen { start, step, stop } => {
            emit_range_len(func, &mut out, start, step, stop, span)
        }
    };
    let src = match value {
        Operand::Var(v) if dense_array(func.var_ty(v)) => unit_slice(v),
        // Scalar fan-out (`x(1:n) = 0`).
        other => VecRef::Splat(other),
    };
    let complex = func.var_ty(array).class == Class::Complex || is_complex_op(func, value);
    out.push(Stmt::VectorOp(VectorOp {
        kind: VecKind::Copy,
        dst: VecRef::Slice { array, start, step },
        a: src,
        b: None,
        len,
        complex,
        span,
    }));
    report.copies += 1;
    Some(out)
}

enum LenSpec {
    Op(Operand),
    RangeLen {
        start: Operand,
        step: Operand,
        stop: Operand,
    },
}

/// Linearizes a slice-like index list into `(start, step, len)`.
///
/// Supported: 1-D `Range`/`Full`, and 2-D `(scalar, Full)` / `(Full,
/// scalar)` row/column views.
fn slice_spec(
    func: &mut MirFunction,
    array: VarId,
    indices: &[Index],
) -> Option<(Operand, Operand, LenSpec)> {
    let aty = func.var_ty(array);
    match indices {
        [Index::Range { start, step, stop }] => Some((
            *start,
            *step,
            LenSpec::RangeLen {
                start: *start,
                step: *step,
                stop: *stop,
            },
        )),
        [Index::Full] => {
            let len = aty.shape.numel().map(|n| Operand::Const(n as f64))?;
            Some((Operand::Const(1.0), Operand::Const(1.0), LenSpec::Op(len)))
        }
        // Row view a(r, :): linear start r, stride = nrows.
        [Index::Scalar(r), Index::Full] => {
            let nrows = aty.shape.rows.known()?;
            let ncols = aty.shape.cols.known()?;
            Some((
                *r,
                Operand::Const(nrows as f64),
                LenSpec::Op(Operand::Const(ncols as f64)),
            ))
        }
        // Column view a(:, c): linear start (c-1)*nrows + 1, stride 1.
        [Index::Full, Index::Scalar(c)] => {
            let nrows = aty.shape.rows.known()?;
            let start = match c.as_const() {
                Some(cv) => Operand::Const((cv - 1.0) * nrows as f64 + 1.0),
                None => {
                    let t1 = func.add_temp(Ty::double_scalar());
                    let t2 = func.add_temp(Ty::double_scalar());
                    let t3 = func.add_temp(Ty::double_scalar());
                    // Emitted by caller? We need a buffer — use a small
                    // trick: return None for non-constant columns; the
                    // scalar path remains correct.
                    let _ = (t1, t2, t3);
                    return None;
                }
            };
            Some((
                start,
                Operand::Const(1.0),
                LenSpec::Op(Operand::Const(nrows as f64)),
            ))
        }
        _ => None,
    }
}

/// Emits `len = floor((stop - start) / step) + 1`, folding constants.
fn emit_range_len(
    func: &mut MirFunction,
    out: &mut Vec<Stmt>,
    start: Operand,
    step: Operand,
    stop: Operand,
    span: Span,
) -> Operand {
    if let Some(n) = matic_mir::range_len_const(start, step, stop) {
        return Operand::Const(n as f64);
    }
    let d = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: d,
        rv: Rvalue::Binary {
            op: BinOp::Sub,
            a: stop,
            b: start,
        },
        span,
    });
    let q = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: q,
        rv: Rvalue::Binary {
            op: BinOp::ElemDiv,
            a: Operand::Var(d),
            b: step,
        },
        span,
    });
    let fl = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: fl,
        rv: Rvalue::Builtin {
            name: "floor".to_string(),
            args: vec![Operand::Var(q)],
        },
        span,
    });
    let len = func.add_temp(Ty::double_scalar());
    out.push(Stmt::Def {
        dst: len,
        rv: Rvalue::Binary {
            op: BinOp::Add,
            a: Operand::Var(fl),
            b: Operand::Const(1.0),
        },
        span,
    });
    Operand::Var(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_frontend::parse;
    use matic_mir::walk_stmts;
    use matic_sema::{analyze, Dim, Shape};

    fn run(src: &str, entry: &str, args: &[Ty]) -> (MirFunction, ArrayReport) {
        let (p, diags) = parse(src);
        assert!(!diags.has_errors());
        let analysis = analyze(&p, entry, args);
        assert!(
            !analysis.diags.has_errors(),
            "{:?}",
            analysis.diags.clone().into_vec()
        );
        let (mut mir, diags) = matic_mir::lower_program(&p, &analysis);
        assert!(!diags.has_errors());
        matic_mir::optimize_program(&mut mir);
        let mut f = mir.function(entry).unwrap().clone();
        let report = vectorize_arrays(&mut f);
        (f, report)
    }

    fn vec_ty(n: usize) -> Ty {
        Ty::new(Class::Double, Shape::row(Dim::Known(n)))
    }

    fn vecops(f: &MirFunction) -> Vec<VectorOp> {
        let mut v = Vec::new();
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(op) = s {
                v.push(op.clone());
            }
        });
        v
    }

    #[test]
    fn elementwise_expression_strip_mined() {
        let (f, report) = run(
            "function y = f(a, b)\ny = a .* b + a;\nend",
            "f",
            &[vec_ty(64), vec_ty(64)],
        );
        assert_eq!(report.maps, 2);
        let ops = vecops(&f);
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0].kind, VecKind::Map(BinOp::ElemMul)));
        assert!(matches!(ops[1].kind, VecKind::Map(BinOp::Add)));
    }

    #[test]
    fn scalar_broadcast_splat() {
        let (f, report) = run(
            "function y = f(a, k)\ny = k * a;\nend",
            "f",
            &[vec_ty(32), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 1);
        let ops = vecops(&f);
        assert!(matches!(ops[0].a, VecRef::Splat(_)));
        assert!(matches!(ops[0].kind, VecKind::Map(BinOp::ElemMul)));
    }

    #[test]
    fn matrix_matmul_not_strip_mined() {
        let m = Ty::new(Class::Double, Shape::known(8, 8));
        let (_, report) = run("function y = f(a, b)\ny = a * b;\nend", "f", &[m, m]);
        assert_eq!(report.maps, 0);
    }

    #[test]
    fn sum_becomes_reduction() {
        let (f, report) = run("function s = f(v)\ns = sum(v);\nend", "f", &[vec_ty(100)]);
        assert_eq!(report.reductions, 1);
        let ops = vecops(&f);
        assert!(matches!(ops[0].kind, VecKind::Reduce(ReduceKind::Sum)));
        assert_eq!(ops[0].len.as_const(), Some(100.0));
    }

    #[test]
    fn sum_of_matrix_stays_scalar() {
        // Column-wise sum has different semantics; must not vectorize.
        let m = Ty::new(Class::Double, Shape::known(4, 4));
        let (_, report) = run("function s = f(v)\ns = sum(v);\nend", "f", &[m]);
        assert_eq!(report.reductions, 0);
    }

    #[test]
    fn real_dot_becomes_mac() {
        let (f, report) = run(
            "function s = f(a, b)\ns = dot(a, b);\nend",
            "f",
            &[vec_ty(64), vec_ty(64)],
        );
        assert_eq!(report.reductions, 1);
        assert!(matches!(vecops(&f)[0].kind, VecKind::Mac));
    }

    #[test]
    fn complex_dot_stays_scalar() {
        let c = Ty::new(Class::Complex, Shape::row(Dim::Known(64)));
        let (_, report) = run("function s = f(a, b)\ns = dot(a, b);\nend", "f", &[c, c]);
        assert_eq!(report.reductions, 0, "complex dot conjugates — scalar path");
    }

    #[test]
    fn slice_read_becomes_strided_copy() {
        let (f, report) = run(
            "function y = f(x)\ny = x(1:2:end);\nend",
            "f",
            &[vec_ty(16)],
        );
        assert_eq!(report.copies, 1);
        let ops = vecops(&f);
        match &ops[0].a {
            VecRef::Slice { step, .. } => assert_eq!(step.as_const(), Some(2.0)),
            other => panic!("expected slice source: {other:?}"),
        }
        assert_eq!(ops[0].len.as_const(), Some(8.0));
    }

    #[test]
    fn slice_write_becomes_copy() {
        let (f, report) = run(
            "function y = f(x)\ny = zeros(1, 32);\ny(1:16) = x;\nend",
            "f",
            &[vec_ty(16)],
        );
        assert!(report.copies >= 1);
        let ops = vecops(&f);
        assert!(ops.iter().any(|o| matches!(o.kind, VecKind::Copy)));
    }

    #[test]
    fn scalar_fanout_store() {
        let (f, _) = run(
            "function y = f()\ny = zeros(1, 8);\ny(1:8) = 3;\nend",
            "f",
            &[],
        );
        let ops = vecops(&f);
        assert!(ops
            .iter()
            .any(|o| matches!(&o.a, VecRef::Splat(Operand::Const(v)) if *v == 3.0)));
    }

    #[test]
    fn elementwise_square_strength_reduced() {
        let (f, report) = run("function y = f(x)\ny = x .^ 2;\nend", "f", &[vec_ty(8)]);
        assert_eq!(report.maps, 1);
        let ops = vecops(&f);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0].kind, VecKind::Map(BinOp::ElemMul)));
    }

    #[test]
    fn elementwise_cube_uses_mul_chain() {
        let (f, report) = run("function y = f(x)\ny = x .^ 3;\nend", "f", &[vec_ty(8)]);
        assert_eq!(report.maps, 2);
        let ops = vecops(&f);
        assert_eq!(ops.len(), 2);
        assert!(ops
            .iter()
            .all(|o| matches!(o.kind, VecKind::Map(BinOp::ElemMul))));
    }

    #[test]
    fn fourth_power_squares_twice() {
        let (f, report) = run("function y = f(x)\ny = x .^ 4;\nend", "f", &[vec_ty(8)]);
        assert_eq!(report.maps, 2);
        assert_eq!(vecops(&f).len(), 2);
    }

    #[test]
    fn non_integer_exponent_stays_scalar() {
        let (_, report) = run("function y = f(x)\ny = x .^ 2.5;\nend", "f", &[vec_ty(8)]);
        assert_eq!(report.maps, 0);
    }

    #[test]
    fn large_exponent_stays_scalar() {
        let (_, report) = run("function y = f(x)\ny = x .^ 9;\nend", "f", &[vec_ty(8)]);
        assert_eq!(report.maps, 0);
    }

    #[test]
    fn conj_map_on_complex_vector() {
        let c = Ty::new(Class::Complex, Shape::row(Dim::Known(16)));
        let (f, report) = run("function y = f(x)\ny = conj(x);\nend", "f", &[c]);
        assert_eq!(report.maps, 1);
        let ops = vecops(&f);
        assert!(matches!(&ops[0].kind, VecKind::MapBuiltin(n) if n == "conj"));
        assert!(ops[0].complex);
    }

    #[test]
    fn row_view_is_strided() {
        let m = Ty::new(Class::Double, Shape::known(4, 6));
        let (f, report) = run("function y = f(a)\ny = a(2, :);\nend", "f", &[m]);
        assert_eq!(report.copies, 1);
        let ops = vecops(&f);
        match &ops[0].a {
            VecRef::Slice { step, .. } => assert_eq!(step.as_const(), Some(4.0)),
            other => panic!("expected strided row view: {other:?}"),
        }
    }

    #[test]
    fn column_view_is_contiguous() {
        let m = Ty::new(Class::Double, Shape::known(4, 6));
        let (f, _) = run("function y = f(a)\ny = a(:, 3);\nend", "f", &[m]);
        let ops = vecops(&f);
        match &ops[0].a {
            VecRef::Slice { start, step, .. } => {
                assert_eq!(start.as_const(), Some(9.0));
                assert_eq!(step.as_const(), Some(1.0));
            }
            other => panic!("expected contiguous column view: {other:?}"),
        }
    }
}
