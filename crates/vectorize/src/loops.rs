//! Explicit-loop idiom recognition.
//!
//! Recognizes the scalar `for` loops DSP code is written with and replaces
//! them by [`VectorOp`] statements:
//!
//! * **Map**: `for i = 1:n, y(f(i)) = a(g(i)) op b(h(i)); end` with affine
//!   subscripts;
//! * **MAC**: `for i = 1:n, acc = acc + a(g(i)) * b(h(i)); end`;
//! * **Reduce**: `for i = 1:n, acc = acc + a(g(i)); end`;
//! * **Copy**: `for i = 1:n, y(f(i)) = a(g(i)); end`.
//!
//! Loops with loop-carried dependences (e.g. IIR recurrences, which load
//! the stored array at a different offset) are left scalar — exactly the
//! behaviour that makes IIR the low-speedup anchor in the paper's
//! evaluation.

use crate::affine::{emit_affine, Affine, LoopEnv};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_mir::{
    walk_stmts, Index, MirFunction, Operand, ReduceKind, Rvalue, Stmt, VarId, VecKind, VecRef,
    VectorOp,
};
use matic_sema::{registry, Class, Ty};
use std::collections::{HashMap, HashSet};

/// One accept/reject decision made for a candidate `for` loop, carrying
/// the source span of the loop header so diagnostics can point at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopDecision {
    /// Span of the loop header the decision concerns.
    pub span: Span,
    /// Whether the loop was converted to a vector operation.
    pub accepted: bool,
    /// Vector kind on accept (`map`, `mac`, `reduction`) or the rejection
    /// reason.
    pub detail: &'static str,
}

/// Statistics from the loop-vectorization pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopReport {
    /// Loops converted to map/copy vector operations.
    pub maps: usize,
    /// Loops converted to MAC reductions.
    pub macs: usize,
    /// Loops converted to plain reductions.
    pub reductions: usize,
    /// Candidate loops left scalar (dependence or unsupported shape).
    pub rejected: usize,
    /// Per-loop accept/reject decisions with spans, in visit order.
    pub decisions: Vec<LoopDecision>,
}

/// Runs loop idiom recognition over `func`, replacing recognized loops.
pub fn vectorize_loops(func: &mut MirFunction) -> LoopReport {
    let mut report = LoopReport::default();
    let live_after: HashSet<VarId> = func.outputs.iter().copied().collect();
    let mut body = std::mem::take(&mut func.body);
    process_body(func, &mut body, &live_after, &mut report);
    func.body = body;
    report
}

/// Rewrites loops in `stmts`; `live_after` is every register read after
/// this statement list completes.
fn process_body(
    func: &mut MirFunction,
    stmts: &mut Vec<Stmt>,
    live_after: &HashSet<VarId>,
    report: &mut LoopReport,
) {
    // Compute, for each position, the registers read at or after later
    // positions (plus live_after).
    let mut suffix_live: Vec<HashSet<VarId>> = vec![live_after.clone(); stmts.len() + 1];
    for k in (0..stmts.len()).rev() {
        let mut s = suffix_live[k + 1].clone();
        collect_reads(&stmts[k], &mut s);
        suffix_live[k] = s;
    }

    let mut out: Vec<Stmt> = Vec::new();
    for (k, mut stmt) in std::mem::take(stmts).into_iter().enumerate() {
        let after = &suffix_live[k + 1];
        match &mut stmt {
            Stmt::For {
                var,
                start,
                step,
                stop,
                body,
                span,
            } => {
                // Recurse into the body first (vectorizes inner loops of
                // nests; the outer loop then stays scalar around them).
                // The body runs again after itself, so what it reads
                // before writing is live at its end too.
                let mut live = exposed_reads(body);
                live.remove(var);
                live.extend(after);
                process_body(func, body, &live, report);
                let decided = report.decisions.len();
                if let Some(replacement) =
                    try_vectorize_loop(func, *var, *start, *step, *stop, body, *span, after, report)
                {
                    out.extend(replacement);
                    continue;
                }
                // Candidates bailed out via `?` (or a non-straight-line
                // body) still get a decision entry, without disturbing
                // the rejection counter semantics.
                if report.decisions.len() == decided {
                    report.decisions.push(LoopDecision {
                        span: *span,
                        accepted: false,
                        detail: "unsupported loop body",
                    });
                }
                out.push(stmt);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                process_body(func, then_body, after, report);
                process_body(func, else_body, after, report);
                out.push(stmt);
            }
            Stmt::While {
                cond_defs: _, body, ..
            } => {
                // Conservatively treat everything as live after a while
                // body (it re-executes).
                let mut live = after.clone();
                walk_stmts(body, &mut |s| collect_reads_flat(s, &mut live));
                process_body(func, body, &live, report);
                out.push(stmt);
            }
            _ => out.push(stmt),
        }
    }
    *stmts = out;
}

/// Every register `stmt` may read before it writes it, nested bodies
/// included. A `for` loop writes its variable before each run of its
/// body, so the body's reads of it do not count.
fn collect_reads(stmt: &Stmt, out: &mut HashSet<VarId>) {
    collect_reads_flat(stmt, out);
    if let Stmt::For { var, body, .. } = stmt {
        let mut inner = exposed_reads(body);
        inner.remove(var);
        out.extend(inner);
    } else {
        for s in stmt.bodies().flatten() {
            collect_reads(s, out);
        }
    }
}

/// The registers `body` may read before writing them: a top-level `Def`
/// hides later reads of its destination.
fn exposed_reads(body: &[Stmt]) -> HashSet<VarId> {
    let (mut out, mut defined, mut reads) = (HashSet::new(), HashSet::new(), HashSet::new());
    for s in body {
        collect_reads(s, &mut reads);
        out.extend(reads.drain().filter(|v| !defined.contains(v)));
        if let Stmt::Def { dst, .. } = s {
            defined.insert(*dst);
        }
    }
    out
}

/// The registers `stmt` itself reads (a store reads the array it
/// partially updates).
fn collect_reads_flat(stmt: &Stmt, out: &mut HashSet<VarId>) {
    stmt.visit_regs(&mut |v, access| {
        if access.reads() {
            out.insert(v);
        }
    });
}

/// A symbolic lane value: an affine array load or a loop-invariant scalar.
#[derive(Debug, Clone)]
enum Leaf {
    Load { array: VarId, affine: Affine },
    Inv(Operand),
}

/// A recognized lane computation of depth ≤ 2.
#[derive(Debug, Clone)]
enum Sym {
    Leaf(Leaf),
    Un(UnOp, Leaf),
    Fn1(String, Leaf),
    Bin(BinOp, Leaf, Leaf),
}

#[allow(clippy::too_many_arguments)]
fn try_vectorize_loop(
    func: &mut MirFunction,
    induction: VarId,
    start: Operand,
    step: Operand,
    stop: Operand,
    body: &[Stmt],
    loop_span: Span,
    live_after: &HashSet<VarId>,
    report: &mut LoopReport,
) -> Option<Vec<Stmt>> {
    // Unit-stride counted loops only, forward (`1:n`) or reverse
    // (`n:-1:1`). Other strides are counted as rejections so the missed
    // vectorization is visible in the report instead of silent.
    let step_const = step.as_const();
    let dir = if step_const == Some(1.0) {
        1.0
    } else if step_const == Some(-1.0) {
        -1.0
    } else {
        return give_up(report, loop_span, "non-unit loop stride");
    };
    // The body must be straight-line Defs plus at most one Store.
    let mut stores = 0usize;
    for s in body {
        match s {
            Stmt::Def { .. } => {}
            Stmt::Store { .. } => stores += 1,
            _ => return None,
        }
    }
    if stores > 1 {
        report.rejected += 1;
        report.decisions.push(LoopDecision {
            span: loop_span,
            accepted: false,
            detail: "more than one store in loop body",
        });
        return None;
    }
    // A vector op leaves no loop variable behind.
    if live_after.contains(&induction) {
        return give_up(report, loop_span, "loop variable read after the loop");
    }

    let env = LoopEnv::new(induction, body);
    let mut defs: Vec<(VarId, &Rvalue)> = Vec::new();
    let mut syms: Vec<(VarId, Sym)> = Vec::new();
    let mut acc_update: Option<(VarId, VarId, Span)> = None; // (acc, value temp, span)
    let mut store: Option<(VarId, &[Index], Operand, Span)> = None;
    // `(syms.len(), defs.len())` at the accumulator update or the store:
    // it may read only what the body computed before it.
    let mut seen = (0, 0);
    // Body-local clones of invariant arrays (e.g. inlined parameter
    // bindings): loads through them resolve to the original array.
    let mut array_alias: HashMap<VarId, VarId> = HashMap::new();
    let resolve = |aliases: &HashMap<VarId, VarId>, mut v: VarId| -> VarId {
        let mut hops = 0;
        while let Some(&next) = aliases.get(&v) {
            v = next;
            hops += 1;
            if hops > 16 {
                break;
            }
        }
        v
    };

    let lookup_sym = |syms: &[(VarId, Sym)], v: VarId| -> Option<Sym> {
        syms.iter()
            .rev()
            .find(|(d, _)| *d == v)
            .map(|(_, s)| s.clone())
    };
    let as_leaf = |env: &LoopEnv, syms: &[(VarId, Sym)], op: Operand| -> Option<Leaf> {
        if env.is_invariant(op) {
            return Some(Leaf::Inv(op));
        }
        if let Operand::Var(v) = op {
            if let Some(Sym::Leaf(l)) = lookup_sym(syms, v) {
                return Some(l);
            }
        }
        None
    };

    for s in body {
        match s {
            Stmt::Def { dst, rv, span } => {
                // Accumulator update: acc = acc ± t / acc = t + acc.
                if let Rvalue::Binary {
                    op: BinOp::Add,
                    a,
                    b,
                } = rv
                {
                    let is_acc = |o: &Operand| o.as_var() == Some(*dst);
                    if !env.defined_before(*dst) {
                        // acc must exist before the loop
                    } else if is_acc(a) && !is_acc(b) {
                        if let Some(t) = b.as_var() {
                            if acc_update.is_none() {
                                acc_update = Some((*dst, t, *span));
                                seen = (syms.len(), defs.len());
                                defs.push((*dst, rv));
                                continue;
                            }
                        }
                        return give_up(report, loop_span, "unsupported accumulator update");
                    } else if is_acc(b) && !is_acc(a) {
                        if let Some(t) = a.as_var() {
                            if acc_update.is_none() {
                                acc_update = Some((*dst, t, *span));
                                seen = (syms.len(), defs.len());
                                defs.push((*dst, rv));
                                continue;
                            }
                        }
                        return give_up(report, loop_span, "unsupported accumulator update");
                    }
                }
                // Symbolic interpretation.
                let sym = match rv {
                    Rvalue::Use(Operand::Var(src))
                        if !f_var_scalar(func, *dst)
                            && env.is_invariant(Operand::Var(resolve(&array_alias, *src))) =>
                    {
                        // Clone of an invariant array: record the alias and
                        // treat the def as consumed.
                        array_alias.insert(*dst, resolve(&array_alias, *src));
                        defs.push((*dst, rv));
                        continue;
                    }
                    Rvalue::Use(op) => as_leaf(&env, &syms, *op).map(Sym::Leaf),
                    Rvalue::Index { array, indices } => match &indices[..] {
                        // Loads from the stored array are validated against
                        // the store's subscript (same-affine updates are
                        // legal; anything else is a loop-carried dependence
                        // caught below).
                        [Index::Scalar(op)] => {
                            let base = resolve(&array_alias, *array);
                            env.affine_of(*op, &defs).map(|affine| {
                                Sym::Leaf(Leaf::Load {
                                    array: base,
                                    affine,
                                })
                            })
                        }
                        _ => None,
                    },
                    Rvalue::Binary { op, a, b } => {
                        let la = as_leaf(&env, &syms, *a);
                        let lb = as_leaf(&env, &syms, *b);
                        match (la, lb) {
                            (Some(x), Some(y)) if elementwise_ok(*op) => Some(Sym::Bin(*op, x, y)),
                            _ => None,
                        }
                    }
                    Rvalue::Unary { op: UnOp::Neg, a } => {
                        as_leaf(&env, &syms, *a).map(|l| Sym::Un(UnOp::Neg, l))
                    }
                    Rvalue::Builtin { name, args }
                        if registry::lookup_call(name, args.len()).is_some_and(|b| b.lane) =>
                    {
                        as_leaf(&env, &syms, args[0]).map(|l| Sym::Fn1(name.clone(), l))
                    }
                    _ => None,
                };
                match sym {
                    Some(sym) => {
                        syms.push((*dst, sym));
                        defs.push((*dst, rv));
                    }
                    None => {
                        // Still allow pure index arithmetic (affine) defs.
                        if env
                            .affine_of(Operand::Var(*dst), &with(&defs, *dst, rv))
                            .is_some()
                        {
                            defs.push((*dst, rv));
                        } else {
                            return give_up(report, loop_span, "unvectorizable statement in body");
                        }
                    }
                }
            }
            Stmt::Store {
                array,
                indices,
                value,
                span,
            } => {
                store = Some((*array, indices.as_slice(), *value, *span));
                seen = (syms.len(), defs.len());
            }
            _ => unreachable!("filtered above"),
        }
    }

    // No Def result may be observed after the loop (we delete them all).
    for (d, _) in &defs {
        if live_after.contains(d) && acc_update.map(|(a, _, _)| a) != Some(*d) {
            return give_up(report, loop_span, "body temporary is live after the loop");
        }
    }

    let span = loop_span;
    let mut prelude: Vec<Stmt> = Vec::new();
    // A reverse loop has its bounds swapped: `n:-1:1` runs `n - 1 + 1`
    // iterations.
    let len = if dir < 0.0 {
        emit_len(func, &mut prelude, stop, start, span)
    } else {
        emit_len(func, &mut prelude, start, stop, span)
    };

    match (store, acc_update) {
        (Some((dst_arr, indices, value, sspan)), None) => {
            let [Index::Scalar(idx_op)] = indices else {
                return give_up(report, loop_span, "non-scalar store subscript");
            };
            let dst_affine = env.affine_of(*idx_op, &defs[..seen.1])?;
            if dst_affine.is_invariant() {
                return give_up(report, loop_span, "loop-invariant store subscript");
            }
            // The stored value's symbolic form.
            let sym = match value {
                Operand::Var(v) => lookup_sym(&syms[..seen.0], v).or_else(|| {
                    env.is_invariant(value)
                        .then_some(Sym::Leaf(Leaf::Inv(value)))
                })?,
                _ => Sym::Leaf(Leaf::Inv(value)),
            };
            // Dependence check: loads from the destination array must use
            // the identical affine subscript.
            for (_, s) in &syms {
                for l in sym_leaves(s) {
                    if let Leaf::Load { array, affine } = l {
                        if *array == dst_arr && *affine != dst_affine {
                            return give_up(report, loop_span, "loop-carried dependence");
                        }
                    }
                }
            }
            let complex = is_complex(func, dst_arr)
                || sym_leaves_owned(&sym).iter().any(|l| leaf_complex(func, l));
            let dst_ref = slice_from(func, &mut prelude, dst_arr, &dst_affine, start, dir, span);
            let (kind, a, b) = match sym {
                Sym::Leaf(l) => (
                    VecKind::Copy,
                    leaf_ref(func, &mut prelude, &env, &l, start, dir, span)?,
                    None,
                ),
                Sym::Un(op, l) => (
                    VecKind::MapUnary(op),
                    leaf_ref(func, &mut prelude, &env, &l, start, dir, span)?,
                    None,
                ),
                Sym::Fn1(name, l) => (
                    VecKind::MapBuiltin(name),
                    leaf_ref(func, &mut prelude, &env, &l, start, dir, span)?,
                    None,
                ),
                Sym::Bin(op, la, lb) => (
                    VecKind::Map(op),
                    leaf_ref(func, &mut prelude, &env, &la, start, dir, span)?,
                    Some(leaf_ref(func, &mut prelude, &env, &lb, start, dir, span)?),
                ),
            };
            report.maps += 1;
            report.decisions.push(LoopDecision {
                span: loop_span,
                accepted: true,
                detail: "map",
            });
            prelude.push(Stmt::VectorOp(VectorOp {
                kind,
                dst: dst_ref,
                a,
                b,
                len,
                complex,
                span: sspan,
            }));
            Some(prelude)
        }
        (None, Some((acc, tval, acc_span))) => {
            let sym = lookup_sym(&syms[..seen.0], tval)?;
            let complex = is_complex_var(func, acc)
                || sym_leaves_owned(&sym).iter().any(|l| leaf_complex(func, l));
            match sym {
                Sym::Bin(BinOp::ElemMul | BinOp::MatMul, la, lb) => {
                    let a = leaf_ref(func, &mut prelude, &env, &la, start, dir, span)?;
                    let b = leaf_ref(func, &mut prelude, &env, &lb, start, dir, span)?;
                    report.macs += 1;
                    report.decisions.push(LoopDecision {
                        span: loop_span,
                        accepted: true,
                        detail: "mac",
                    });
                    prelude.push(Stmt::VectorOp(VectorOp {
                        kind: VecKind::Mac,
                        dst: VecRef::Splat(Operand::Var(acc)),
                        a,
                        b: Some(b),
                        len,
                        complex,
                        span: acc_span,
                    }));
                    Some(prelude)
                }
                Sym::Leaf(l) => {
                    let a = leaf_ref(func, &mut prelude, &env, &l, start, dir, span)?;
                    report.reductions += 1;
                    report.decisions.push(LoopDecision {
                        span: loop_span,
                        accepted: true,
                        detail: "reduction",
                    });
                    prelude.push(Stmt::VectorOp(VectorOp {
                        kind: VecKind::Reduce(ReduceKind::Sum),
                        dst: VecRef::Splat(Operand::Var(acc)),
                        a,
                        b: None,
                        len,
                        complex,
                        span: acc_span,
                    }));
                    Some(prelude)
                }
                _ => give_up(report, loop_span, "unsupported reduction form"),
            }
        }
        _ => give_up(report, loop_span, "no vectorizable store or accumulator"),
    }
}

/// Whether a register holds a scalar value.
fn f_var_scalar(func: &MirFunction, v: VarId) -> bool {
    func.var_ty(v).shape.is_scalar()
}

fn give_up<T>(report: &mut LoopReport, span: Span, reason: &'static str) -> Option<T> {
    report.rejected += 1;
    report.decisions.push(LoopDecision {
        span,
        accepted: false,
        detail: reason,
    });
    None
}

fn with<'a>(defs: &[(VarId, &'a Rvalue)], d: VarId, rv: &'a Rvalue) -> Vec<(VarId, &'a Rvalue)> {
    let mut v = defs.to_vec();
    v.push((d, rv));
    v
}

fn elementwise_ok(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::ElemMul | BinOp::ElemDiv | BinOp::MatMul | BinOp::MatDiv
    )
}

fn sym_leaves(s: &Sym) -> Vec<&Leaf> {
    match s {
        Sym::Leaf(l) | Sym::Un(_, l) | Sym::Fn1(_, l) => vec![l],
        Sym::Bin(_, a, b) => vec![a, b],
    }
}

fn sym_leaves_owned(s: &Sym) -> Vec<Leaf> {
    sym_leaves(s).into_iter().cloned().collect()
}

fn is_complex(func: &MirFunction, v: VarId) -> bool {
    func.var_ty(v).class == Class::Complex
}

fn is_complex_var(func: &MirFunction, v: VarId) -> bool {
    is_complex(func, v)
}

fn leaf_complex(func: &MirFunction, l: &Leaf) -> bool {
    match l {
        Leaf::Load { array, .. } => is_complex(func, *array),
        Leaf::Inv(Operand::Var(v)) => is_complex(func, *v),
        Leaf::Inv(Operand::ConstC(..)) => true,
        Leaf::Inv(_) => false,
    }
}

fn slice_from(
    func: &mut MirFunction,
    prelude: &mut Vec<Stmt>,
    array: VarId,
    affine: &Affine,
    loop_start: Operand,
    dir: f64,
    span: Span,
) -> VecRef {
    let start = emit_affine(func, prelude, affine, loop_start, span);
    VecRef::Slice {
        array,
        start,
        step: Operand::Const(affine.i_coeff * dir),
    }
}

#[allow(clippy::too_many_arguments)]
fn leaf_ref(
    func: &mut MirFunction,
    prelude: &mut Vec<Stmt>,
    env: &LoopEnv,
    leaf: &Leaf,
    loop_start: Operand,
    dir: f64,
    span: Span,
) -> Option<VecRef> {
    match leaf {
        Leaf::Inv(op) => Some(VecRef::Splat(*op)),
        Leaf::Load { array, affine } => {
            if affine.is_invariant() {
                // Same element every iteration: load once, broadcast.
                let idx = emit_affine(func, prelude, affine, loop_start, span);
                let t = func.add_temp(Ty::new(
                    func.var_ty(*array).class,
                    matic_sema::Shape::scalar(),
                ));
                prelude.push(Stmt::Def {
                    dst: t,
                    rv: Rvalue::Index {
                        array: *array,
                        indices: vec![Index::Scalar(idx)],
                    },
                    span,
                });
                Some(VecRef::Splat(Operand::Var(t)))
            } else {
                let _ = env;
                Some(slice_from(
                    func, prelude, *array, affine, loop_start, dir, span,
                ))
            }
        }
    }
}

/// Emits `len = stop - start + 1` with constant folding.
fn emit_len(
    func: &mut MirFunction,
    prelude: &mut Vec<Stmt>,
    start: Operand,
    stop: Operand,
    span: Span,
) -> Operand {
    match (start.as_const(), stop.as_const()) {
        (Some(s), Some(e)) => Operand::Const((e - s + 1.0).max(0.0)),
        _ => {
            let t1 = func.add_temp(Ty::double_scalar());
            prelude.push(Stmt::Def {
                dst: t1,
                rv: Rvalue::Binary {
                    op: BinOp::Sub,
                    a: stop,
                    b: start,
                },
                span,
            });
            let t2 = func.add_temp(Ty::double_scalar());
            prelude.push(Stmt::Def {
                dst: t2,
                rv: Rvalue::Binary {
                    op: BinOp::Add,
                    a: Operand::Var(t1),
                    b: Operand::Const(1.0),
                },
                span,
            });
            Operand::Var(t2)
        }
    }
}

impl LoopEnv {
    /// Whether `v` exists before the loop (parameter or defined outside).
    fn defined_before(&self, v: VarId) -> bool {
        // An accumulator defined only inside the body would read garbage on
        // iteration one; sema would have flagged it. Here "defined before"
        // means: it is not purely body-local, which for recognition
        // purposes reduces to "it is also *read* by its own update", a
        // property the caller established. Treat any non-induction var as
        // acceptable.
        v != self.induction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_frontend::parse;
    use matic_sema::{analyze, Dim, Shape};

    fn vectorized(src: &str, entry: &str, args: &[Ty]) -> (MirFunction, LoopReport) {
        let (p, diags) = parse(src);
        assert!(!diags.has_errors());
        let analysis = analyze(&p, entry, args);
        assert!(!analysis.diags.has_errors());
        let (mut mir, diags) = matic_mir::lower_program(&p, &analysis);
        assert!(!diags.has_errors());
        matic_mir::optimize_program(&mut mir);
        let mut f = mir.function(entry).unwrap().clone();
        let report = vectorize_loops(&mut f);
        (f, report)
    }

    fn vec_ty(n: usize) -> Ty {
        Ty::new(Class::Double, Shape::row(Dim::Known(n)))
    }

    fn count_vecops(f: &MirFunction) -> usize {
        let mut n = 0;
        walk_stmts(&f.body, &mut |s| {
            if matches!(s, Stmt::VectorOp(_)) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn recognizes_elementwise_map_loop() {
        let (f, report) = vectorized(
            "function y = f(a, b)\ny = zeros(1, 64);\nfor i = 1:64\n y(i) = a(i) + b(i);\nend\nend",
            "f",
            &[vec_ty(64), vec_ty(64)],
        );
        assert_eq!(report.maps, 1);
        assert_eq!(count_vecops(&f), 1);
        // The For is gone.
        let mut fors = 0;
        walk_stmts(&f.body, &mut |s| {
            if matches!(s, Stmt::For { .. }) {
                fors += 1;
            }
        });
        assert_eq!(fors, 0);
    }

    #[test]
    fn recognizes_mac_loop() {
        let (f, report) = vectorized(
            "function s = f(a, b, n)\ns = 0;\nfor i = 1:n\n s = s + a(i) * b(i);\nend\nend",
            "f",
            &[vec_ty(64), vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.macs, 1);
        let mut found = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                assert_eq!(v.kind, VecKind::Mac);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn recognizes_reduction_loop() {
        let (_, report) = vectorized(
            "function s = f(a, n)\ns = 0;\nfor i = 1:n\n s = s + a(i);\nend\nend",
            "f",
            &[vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.reductions, 1);
    }

    #[test]
    fn recognizes_reversed_access() {
        // Correlation-style kernel: b(n-i+1).
        let (f, report) = vectorized(
            "function s = f(a, b, n)\ns = 0;\nfor i = 1:n\n s = s + a(i) * b(n - i + 1);\nend\nend",
            "f",
            &[vec_ty(64), vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.macs, 1);
        let mut neg_step = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if let Some(VecRef::Slice { step, .. }) = &v.b {
                    if step.as_const() == Some(-1.0) {
                        neg_step = true;
                    }
                }
            }
        });
        assert!(neg_step, "reversed access should give a -1 stride");
    }

    #[test]
    fn rejects_loop_carried_dependence() {
        // IIR-style recurrence: y(i) depends on y(i-1).
        let (f, report) = vectorized(
            "function y = f(x, n)\ny = zeros(1, 64);\ny(1) = x(1);\nfor i = 2:n\n y(i) = x(i) + y(i - 1);\nend\nend",
            "f",
            &[vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 0);
        assert!(report.rejected >= 1);
        assert_eq!(count_vecops(&f), 0);
    }

    #[test]
    fn allows_same_index_update() {
        let (_, report) = vectorized(
            "function y = f(y, a, n)\nfor i = 1:n\n y(i) = y(i) + a(i);\nend\nend",
            "f",
            &[vec_ty(64), vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 1);
    }

    #[test]
    fn rejects_non_unit_loop_step() {
        let (_, report) = vectorized(
            "function y = f(a, n)\ny = zeros(1, 64);\nfor i = 1:2:n\n y(i) = a(i);\nend\nend",
            "f",
            &[vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 0);
        assert_eq!(
            report.rejected, 1,
            "non-unit stride must be a visible rejection"
        );
    }

    #[test]
    fn recognizes_reverse_iteration_loop() {
        // `for i = n:-1:1` — copy-scale kernel written backwards.
        let (f, report) = vectorized(
            "function y = f(a, k, n)\ny = zeros(1, 64);\nfor i = n:-1:1\n y(i) = k * a(i);\nend\nend",
            "f",
            &[vec_ty(64), Ty::double_scalar(), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 1);
        let mut neg_dst = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if let VecRef::Slice { step, .. } = &v.dst {
                    if step.as_const() == Some(-1.0) {
                        neg_dst = true;
                    }
                }
            }
        });
        assert!(neg_dst, "reverse loop should write a -1-stride slice");
    }

    #[test]
    fn reverse_mac_loop_vectorizes() {
        let (_, report) = vectorized(
            "function s = f(a, b, n)\ns = 0;\nfor i = n:-1:1\n s = s + a(i) * b(i);\nend\nend",
            "f",
            &[vec_ty(64), vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.macs, 1);
    }

    #[test]
    fn scalar_times_vector_map() {
        let (f, report) = vectorized(
            "function y = f(a, k, n)\ny = zeros(1, 64);\nfor i = 1:n\n y(i) = k * a(i);\nend\nend",
            "f",
            &[vec_ty(64), Ty::double_scalar(), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 1);
        let mut saw_splat = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if matches!(v.a, VecRef::Splat(_)) || matches!(v.b, Some(VecRef::Splat(_))) {
                    saw_splat = true;
                }
            }
        });
        assert!(saw_splat);
    }

    #[test]
    fn complex_flag_propagates() {
        let cx = Ty::new(Class::Complex, Shape::row(Dim::Known(32)));
        let (f, report) = vectorized(
            "function y = f(a, b, n)\ny = zeros(1, 32);\nfor i = 1:n\n y(i) = a(i) * b(i);\nend\nend",
            "f",
            &[cx, cx, Ty::double_scalar()],
        );
        assert_eq!(report.maps, 1);
        let mut complex = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                complex |= v.complex;
            }
        });
        assert!(complex, "complex lanes should be flagged");
    }

    #[test]
    fn rejects_loop_with_inner_control_flow() {
        let (_, report) = vectorized(
            "function y = f(a, n)\ny = zeros(1, 64);\nfor i = 1:n\n if a(i) > 0\n  y(i) = a(i);\n end\nend\nend",
            "f",
            &[vec_ty(64), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 0);
    }

    #[test]
    fn offset_slices_computed() {
        // y(i) = a(i + 2): slice of a starts at 3 for a 1-based loop.
        let (f, report) = vectorized(
            "function y = f(a)\ny = zeros(1, 8);\nfor i = 1:8\n y(i) = a(i + 2);\nend\nend",
            "f",
            &[vec_ty(16)],
        );
        assert_eq!(report.maps, 1);
        let mut start_ok = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if let VecRef::Slice { start, .. } = &v.a {
                    start_ok = start.as_const() == Some(3.0);
                }
            }
        });
        assert!(start_ok, "slice start should fold to 3");
    }

    #[test]
    fn body_temp_live_after_loop_blocks_vectorization() {
        // `t` holds the last element after the loop and is returned.
        let (_, report) = vectorized(
            "function t = f(a, y, n)\nt = 0;\nfor i = 1:n\n t = a(i);\n y(i) = t;\nend\nend",
            "f",
            &[vec_ty(8), vec_ty(8), Ty::double_scalar()],
        );
        assert_eq!(report.maps, 0, "t is observed after the loop");
    }

    #[test]
    fn loop_variable_read_after_the_loop_keeps_it_scalar() {
        let (_, report) = vectorized(
            "function y = f(a, n)\nacc = 0;\nfor t = 1:n\n acc = acc + a(t);\nend\ny = acc + 1000 * t;\nend",
            "f",
            &[vec_ty(8), Ty::double_scalar()],
        );
        assert_eq!(report.reductions, 0, "t is read after the loop");
        assert_eq!(report.rejected, 1);
        assert_eq!(
            report.decisions[0].detail,
            "loop variable read after the loop"
        );
    }

    #[test]
    fn a_later_loop_over_the_same_variable_defines_it() {
        // The second loop writes `t` before its body reads it, so neither
        // loop's variable is live after it.
        let (_, report) = vectorized(
            "function y = f(a, n)\nacc = 0;\nfor t = 1:n\n acc = acc + a(t);\nend\ns = 0;\nfor t = 1:n\n s = s + a(t) * a(t);\nend\ny = acc + s;\nend",
            "f",
            &[vec_ty(8), Ty::double_scalar()],
        );
        assert_eq!((report.reductions, report.macs), (1, 1));
        assert_eq!(report.rejected, 0);
    }
}
