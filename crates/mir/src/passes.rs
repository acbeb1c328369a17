//! MIR optimization passes: constant folding, algebraic simplification,
//! copy propagation and dead-code elimination.
//!
//! All passes are semantics-preserving and conservative in the presence of
//! loops: values flowing around a back edge are only rewritten when the
//! rewrite is valid for every iteration (single-assignment temporaries).

use crate::ir::*;
use matic_frontend::ast::{BinOp, UnOp};
use std::collections::HashMap;

/// Runs the standard pass pipeline to a fixpoint (bounded).
pub fn optimize(func: &mut MirFunction) {
    for _ in 0..4 {
        let a = constant_fold(func);
        let b = copy_propagate(func);
        let c = dead_code_eliminate(func);
        if !(a || b || c) {
            break;
        }
    }
}

/// Runs [`optimize`] on every function.
pub fn optimize_program(program: &mut MirProgram) {
    for f in &mut program.functions {
        optimize(f);
    }
}

// ---- constant folding ---------------------------------------------------

/// Folds arithmetic on constant operands and simplifies algebraic
/// identities (`x*1`, `x+0`, `x^1`). Returns whether anything changed.
pub fn constant_fold(func: &mut MirFunction) -> bool {
    let mut changed = false;
    walk_stmts_mut(&mut func.body, &mut |s| {
        if let Stmt::Def { rv, .. } = s {
            if let Some(new_rv) = fold_rvalue(rv) {
                *rv = new_rv;
                changed = true;
            }
        }
    });
    changed
}

fn fold_rvalue(rv: &Rvalue) -> Option<Rvalue> {
    match rv {
        Rvalue::Binary { op, a, b } => {
            // Complex-aware constant folding.
            if let (Some((ar, ai)), Some((br, bi))) = (const_c(*a), const_c(*b)) {
                if let Some((re, im)) = fold_complex(*op, ar, ai, br, bi) {
                    return Some(Rvalue::Use(make_const(re, im)));
                }
            }
            // Algebraic identities (element-wise safe: the identity holds
            // lane-wise, and scalar broadcast of the neutral element keeps
            // the other operand's shape only when that operand is the
            // non-scalar one — using `Use` preserves it exactly).
            match (op, a.as_const(), b.as_const()) {
                (BinOp::Add, Some(0.0), _) => Some(Rvalue::Use(*b)),
                (BinOp::Add, _, Some(0.0)) => Some(Rvalue::Use(*a)),
                (BinOp::Sub, _, Some(0.0)) => Some(Rvalue::Use(*a)),
                (BinOp::ElemMul | BinOp::MatMul, Some(1.0), _) => Some(Rvalue::Use(*b)),
                (BinOp::ElemMul | BinOp::MatMul, _, Some(1.0)) => Some(Rvalue::Use(*a)),
                (BinOp::ElemDiv | BinOp::MatDiv, _, Some(1.0)) => Some(Rvalue::Use(*a)),
                (BinOp::ElemPow | BinOp::MatPow, _, Some(1.0)) => Some(Rvalue::Use(*a)),
                _ => None,
            }
        }
        Rvalue::Unary { op, a } => {
            let (re, im) = const_c(*a)?;
            match op {
                UnOp::Neg => Some(Rvalue::Use(make_const(-re, -im))),
                UnOp::Plus => Some(Rvalue::Use(*a)),
                UnOp::Not => {
                    let v = if re == 0.0 && im == 0.0 { 1.0 } else { 0.0 };
                    Some(Rvalue::Use(Operand::Const(v)))
                }
            }
        }
        _ => None,
    }
}

fn const_c(op: Operand) -> Option<(f64, f64)> {
    match op {
        Operand::Const(v) => Some((v, 0.0)),
        Operand::ConstC(re, im) => Some((re, im)),
        Operand::Var(_) => None,
    }
}

fn make_const(re: f64, im: f64) -> Operand {
    if im == 0.0 {
        Operand::Const(re)
    } else {
        Operand::ConstC(re, im)
    }
}

fn fold_complex(op: BinOp, ar: f64, ai: f64, br: f64, bi: f64) -> Option<(f64, f64)> {
    let real = ai == 0.0 && bi == 0.0;
    match op {
        BinOp::Add => Some((ar + br, ai + bi)),
        BinOp::Sub => Some((ar - br, ai - bi)),
        BinOp::ElemMul | BinOp::MatMul => Some((ar * br - ai * bi, ar * bi + ai * br)),
        BinOp::ElemDiv | BinOp::MatDiv => {
            let d = br * br + bi * bi;
            if d == 0.0 && !real {
                return None;
            }
            if bi == 0.0 {
                Some((ar / br, ai / br))
            } else {
                Some(((ar * br + ai * bi) / d, (ai * br - ar * bi) / d))
            }
        }
        BinOp::ElemPow | BinOp::MatPow if real => {
            let v = ar.powf(br);
            // Keep complex-producing powers (negative base, fractional
            // exponent) un-folded so runtime semantics decide.
            if v.is_nan() {
                None
            } else {
                Some((v, 0.0))
            }
        }
        BinOp::Eq if real => Some(((ar == br) as u8 as f64, 0.0)),
        BinOp::Ne if real => Some(((ar != br) as u8 as f64, 0.0)),
        BinOp::Lt if real => Some(((ar < br) as u8 as f64, 0.0)),
        BinOp::Le if real => Some(((ar <= br) as u8 as f64, 0.0)),
        BinOp::Gt if real => Some(((ar > br) as u8 as f64, 0.0)),
        BinOp::Ge if real => Some(((ar >= br) as u8 as f64, 0.0)),
        _ => None,
    }
}

// ---- copy propagation -----------------------------------------------------

/// Replaces uses of single-assignment temporaries defined as `t = Use(x)`
/// with `x`, when `x` is a constant or itself a single-assignment register,
/// at the uses that `t`'s definition dominates: later in its block, or
/// nested in a later statement of that block (a `while`'s condition
/// block also dominates its condition and body). A use the definition may
/// not have run before keeps reading `t`, so a read of an unset register
/// still fails. Returns whether anything changed.
pub fn copy_propagate(func: &mut MirFunction) -> bool {
    let mut defs = func.write_counts();
    for &p in &func.params {
        defs[p.0 as usize] += 1;
    }
    let mut cp = CopyProp {
        defs,
        subst: HashMap::new(),
        in_scope: Vec::new(),
        changed: false,
    };
    cp.block(&mut func.body);
    cp.changed
}

/// Copy propagation's state: the copies whose definitions dominate the
/// statement being rewritten.
struct CopyProp {
    /// Definitions per register, parameter binding included.
    defs: Vec<u32>,
    subst: HashMap<VarId, Operand>,
    /// Keys of `subst` in insertion order, so a block can drop its own.
    in_scope: Vec<VarId>,
    changed: bool,
}

impl CopyProp {
    fn single_def(&self, op: Operand) -> bool {
        op.as_var().is_none_or(|v| self.defs[v.0 as usize] == 1)
    }

    fn block(&mut self, stmts: &mut [Stmt]) {
        let mark = self.in_scope.len();
        for s in stmts {
            self.stmt(s);
        }
        self.leave(mark);
    }

    fn leave(&mut self, mark: usize) {
        for v in self.in_scope.drain(mark..) {
            self.subst.remove(&v);
        }
    }

    fn stmt(&mut self, s: &mut Stmt) {
        if let Stmt::While {
            cond_defs,
            cond,
            body,
            ..
        } = s
        {
            let mark = self.in_scope.len();
            for s in cond_defs {
                self.stmt(s);
            }
            self.rewrite(cond);
            self.block(body);
            self.leave(mark);
            return;
        }
        s.visit_read_operands_mut(&mut |op| self.rewrite(op));
        for body in s.bodies_mut() {
            self.block(body);
        }
        if let Stmt::Def {
            dst,
            rv: Rvalue::Use(src),
            ..
        } = s
        {
            if self.single_def(Operand::Var(*dst)) && self.single_def(*src) {
                self.subst.insert(*dst, *src);
                self.in_scope.push(*dst);
            }
        }
    }

    /// Replaces `op` by the end of its copy chain.
    fn rewrite(&mut self, op: &mut Operand) {
        let mut new = *op;
        for _ in 0..32 {
            match new.as_var().and_then(|v| self.subst.get(&v)) {
                Some(next) => new = *next,
                None => break,
            }
        }
        if new != *op {
            *op = new;
            self.changed = true;
        }
    }
}

// ---- dead code elimination -------------------------------------------------

/// Removes `Def`s whose destination is never read and is not an output.
/// Stores and vector destinations read the array they update, so they keep
/// it live. Returns whether anything changed.
pub fn dead_code_eliminate(func: &mut MirFunction) -> bool {
    let mut used = func.read_counts();
    for &o in &func.outputs {
        used[o.0 as usize] += 1;
    }
    let mut changed = false;
    eliminate(&mut func.body, &used, &mut changed);
    changed
}

fn eliminate(stmts: &mut Vec<Stmt>, used: &[u32], changed: &mut bool) {
    stmts.retain(|s| match s {
        Stmt::Def { dst, rv, .. } => {
            let live = used[dst.0 as usize] > 0;
            // Calls may have side effects (e.g. callee prints); keep them.
            let effectful = matches!(rv, Rvalue::Call { .. });
            if !live && !effectful {
                *changed = true;
                false
            } else {
                true
            }
        }
        _ => true,
    });
    for s in stmts {
        for body in s.bodies_mut() {
            eliminate(body, used, changed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_frontend::span::Span;
    use matic_sema::Ty;

    fn def(dst: VarId, rv: Rvalue) -> Stmt {
        Stmt::Def {
            dst,
            rv,
            span: Span::dummy(),
        }
    }

    #[test]
    fn folds_constants() {
        let mut f = MirFunction::new("f");
        let t = f.add_temp(Ty::double_scalar());
        let out = f.add_var("y", Ty::double_scalar());
        f.outputs.push(out);
        f.body = vec![
            def(
                t,
                Rvalue::Binary {
                    op: BinOp::Add,
                    a: Operand::Const(2.0),
                    b: Operand::Const(3.0),
                },
            ),
            def(out, Rvalue::Use(Operand::Var(t))),
        ];
        optimize(&mut f);
        // After folding + copy prop + DCE only the output def remains.
        assert_eq!(f.body.len(), 1);
        match &f.body[0] {
            Stmt::Def {
                rv: Rvalue::Use(Operand::Const(v)),
                ..
            } => assert_eq!(*v, 5.0),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn folds_complex_multiplication() {
        let mut f = MirFunction::new("f");
        let out = f.add_var("y", Ty::double_scalar());
        f.outputs.push(out);
        f.body = vec![def(
            out,
            Rvalue::Binary {
                op: BinOp::ElemMul,
                a: Operand::ConstC(0.0, 1.0),
                b: Operand::ConstC(0.0, 1.0),
            },
        )];
        optimize(&mut f);
        match &f.body[0] {
            Stmt::Def {
                rv: Rvalue::Use(Operand::Const(v)),
                ..
            } => assert_eq!(*v, -1.0),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn algebraic_identities() {
        let mut f = MirFunction::new("f");
        let x = f.add_var("x", Ty::double_scalar());
        f.params.push(x);
        f.vars[x.0 as usize].is_param = true;
        let out = f.add_var("y", Ty::double_scalar());
        f.outputs.push(out);
        f.body = vec![def(
            out,
            Rvalue::Binary {
                op: BinOp::ElemMul,
                a: Operand::Var(x),
                b: Operand::Const(1.0),
            },
        )];
        constant_fold(&mut f);
        match &f.body[0] {
            Stmt::Def {
                rv: Rvalue::Use(Operand::Var(v)),
                ..
            } => assert_eq!(*v, x),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dce_keeps_stores_and_outputs() {
        let mut f = MirFunction::new("f");
        let arr = f.add_var("a", Ty::unknown());
        let dead = f.add_temp(Ty::double_scalar());
        let out = f.add_var("y", Ty::double_scalar());
        f.outputs.push(out);
        f.body = vec![
            def(dead, Rvalue::Use(Operand::Const(1.0))),
            def(
                arr,
                Rvalue::Alloc {
                    kind: AllocKind::Zeros,
                    rows: Operand::Const(1.0),
                    cols: Operand::Const(4.0),
                },
            ),
            Stmt::Store {
                array: arr,
                indices: vec![Index::Scalar(Operand::Const(1.0))],
                value: Operand::Const(9.0),
                span: Span::dummy(),
            },
            def(
                out,
                Rvalue::Index {
                    array: arr,
                    indices: vec![Index::Scalar(Operand::Const(1.0))],
                },
            ),
        ];
        dead_code_eliminate(&mut f);
        assert_eq!(f.body.len(), 3, "only the dead temp is removed");
    }

    #[test]
    fn dce_keeps_user_calls() {
        let mut f = MirFunction::new("f");
        let t = f.add_temp(Ty::double_scalar());
        f.body = vec![def(
            t,
            Rvalue::Call {
                func: "noisy".to_string(),
                args: vec![],
            },
        )];
        dead_code_eliminate(&mut f);
        assert_eq!(f.body.len(), 1, "calls may have side effects");
    }

    #[test]
    fn copy_prop_resolves_chains() {
        let mut f = MirFunction::new("f");
        let a = f.add_temp(Ty::double_scalar());
        let b = f.add_temp(Ty::double_scalar());
        let out = f.add_var("y", Ty::double_scalar());
        f.outputs.push(out);
        f.body = vec![
            def(a, Rvalue::Use(Operand::Const(7.0))),
            def(b, Rvalue::Use(Operand::Var(a))),
            def(
                out,
                Rvalue::Binary {
                    op: BinOp::Add,
                    a: Operand::Var(b),
                    b: Operand::Const(1.0),
                },
            ),
        ];
        optimize(&mut f);
        assert_eq!(f.body.len(), 1);
        match &f.body[0] {
            Stmt::Def {
                rv: Rvalue::Use(Operand::Const(v)),
                ..
            } => assert_eq!(*v, 8.0),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn copy_prop_rewrites_only_dominated_uses() {
        let mut f = MirFunction::new("f");
        let c = f.add_var("c", Ty::double_scalar());
        f.params.push(c);
        let u = f.add_var("u", Ty::double_scalar());
        let t = f.add_var("t", Ty::double_scalar());
        let y = f.add_var("y", Ty::double_scalar());
        let z = f.add_var("z", Ty::double_scalar());
        f.outputs.extend([y, z]);
        f.body = vec![
            Stmt::If {
                cond: Operand::Var(c),
                then_body: vec![def(u, Rvalue::Use(Operand::Const(1.0)))],
                else_body: vec![],
                span: Span::dummy(),
            },
            def(y, Rvalue::Use(Operand::Var(u))),
            Stmt::While {
                cond_defs: vec![def(t, Rvalue::Use(Operand::Const(0.0)))],
                cond: Operand::Var(t),
                body: vec![def(z, Rvalue::Use(Operand::Var(t)))],
                span: Span::dummy(),
            },
        ];
        assert!(copy_propagate(&mut f));
        // `u = 1` may not have run before `y = u`.
        assert_eq!(f.body[1], def(y, Rvalue::Use(Operand::Var(u))));
        // A `while` condition block dominates its condition and body.
        let Stmt::While { cond, body, .. } = &f.body[2] else {
            panic!("{:?}", f.body[2]);
        };
        assert_eq!(*cond, Operand::Const(0.0));
        assert_eq!(body[0], def(z, Rvalue::Use(Operand::Const(0.0))));
    }

    #[test]
    fn copy_prop_respects_multiple_defs() {
        // `x` defined twice: must not propagate its first value.
        let mut f = MirFunction::new("f");
        let x = f.add_var("x", Ty::double_scalar());
        let out = f.add_var("y", Ty::double_scalar());
        f.outputs.push(out);
        f.body = vec![
            def(x, Rvalue::Use(Operand::Const(1.0))),
            def(x, Rvalue::Use(Operand::Const(2.0))),
            def(out, Rvalue::Use(Operand::Var(x))),
        ];
        copy_propagate(&mut f);
        // out must still read x, not 1.0.
        match &f.body[2] {
            Stmt::Def {
                rv: Rvalue::Use(op),
                ..
            } => assert_eq!(*op, Operand::Var(x)),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
