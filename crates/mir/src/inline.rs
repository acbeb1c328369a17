//! Function inlining — the paper's "inline expansion" / "interprocedural
//! optimization" keywords.
//!
//! Inlining matters doubly for this compiler: besides removing call
//! overhead, it exposes callee loops and array operations to the
//! vectorizer, which only matches idioms *within* one function body.
//!
//! Strategy: repeatedly inline calls whose callee is a **leaf** (contains
//! no further user calls), contains no early `return`, and is small
//! enough. Iterating leaf-first linearizes call DAGs bottom-up and leaves
//! recursive functions alone (a recursive function is never a leaf at its
//! own call sites).

use crate::ir::*;
use std::collections::HashMap;

/// Default statement-count ceiling for an inlinable callee.
pub const DEFAULT_INLINE_LIMIT: usize = 64;

/// Runs inlining over the whole program; returns the number of call sites
/// expanded.
pub fn inline_program(program: &mut MirProgram, limit: usize) -> usize {
    let mut total = 0;
    // Bounded iteration: each round inlines leaves; chains of depth d
    // settle in d rounds.
    for _ in 0..8 {
        let snapshot = program.clone();
        let mut round = 0;
        for f in &mut program.functions {
            round += inline_into(f, &snapshot, limit);
        }
        if round == 0 {
            break;
        }
        total += round;
    }
    total
}

/// Whether `callee` may be expanded at a call site.
fn inlinable(callee: &MirFunction, limit: usize) -> bool {
    if callee.stmt_count() > limit {
        return false;
    }
    let mut ok = true;
    walk_stmts(&callee.body, &mut |s| match s {
        Stmt::Return(_) => ok = false,
        Stmt::Def {
            rv: Rvalue::Call { .. },
            ..
        } => ok = false,
        Stmt::CallMulti { user: true, .. } => ok = false,
        _ => {}
    });
    ok
}

/// Expands eligible calls inside `f`, looking callees up in `snapshot`.
fn inline_into(f: &mut MirFunction, snapshot: &MirProgram, limit: usize) -> usize {
    let mut count = 0;
    let mut body = std::mem::take(&mut f.body);
    inline_in_body(f, &mut body, snapshot, limit, &mut count);
    f.body = body;
    count
}

fn inline_in_body(
    f: &mut MirFunction,
    stmts: &mut Vec<Stmt>,
    snapshot: &MirProgram,
    limit: usize,
    count: &mut usize,
) {
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for mut stmt in std::mem::take(stmts) {
        match &mut stmt {
            Stmt::Def {
                dst,
                rv: Rvalue::Call { func, args },
                span,
            } => match snapshot.function(func) {
                Some(callee) if callee.name != f.name && inlinable(callee, limit) => {
                    expand(f, &mut out, callee, args, &[Some(*dst)], *span);
                    *count += 1;
                }
                _ => out.push(stmt),
            },
            Stmt::CallMulti {
                dsts,
                func,
                args,
                user: true,
                span,
            } => match snapshot.function(func) {
                Some(callee) if callee.name != f.name && inlinable(callee, limit) => {
                    expand(f, &mut out, callee, args, dsts, *span);
                    *count += 1;
                }
                _ => out.push(stmt),
            },
            _ => {
                for body in stmt.bodies_mut() {
                    inline_in_body(f, body, snapshot, limit, count);
                }
                out.push(stmt);
            }
        }
    }
    *stmts = out;
}

/// Splices a remapped copy of `callee`'s body into `out`.
fn expand(
    f: &mut MirFunction,
    out: &mut Vec<Stmt>,
    callee: &MirFunction,
    args: &[Operand],
    dsts: &[Option<VarId>],
    span: matic_frontend::span::Span,
) {
    // Fresh registers for every callee register.
    let mut remap: HashMap<VarId, VarId> = HashMap::new();
    for (i, info) in callee.vars.iter().enumerate() {
        let nv = f.add_var(format!("inl_{}_{}", callee.name, info.name), info.ty);
        remap.insert(VarId(i as u32), nv);
    }
    // Bind parameters.
    for (&p, &a) in callee.params.iter().zip(args) {
        out.push(Stmt::Def {
            dst: remap[&p],
            rv: Rvalue::Use(a),
            span,
        });
    }
    // Missing trailing arguments (MATLAB allows them) stay unset; sound
    // because the interpreter/simulator would trap the same read.
    let mut body = callee.body.clone();
    walk_stmts_mut(&mut body, &mut |s| {
        s.visit_regs_mut(&mut |v, _| *v = remap[v])
    });
    out.extend(body);
    // Bind outputs.
    for (d, &o) in dsts.iter().zip(&callee.outputs) {
        if let Some(d) = d {
            out.push(Stmt::Def {
                dst: *d,
                rv: Rvalue::Use(Operand::Var(remap[&o])),
                span,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_frontend::parse;
    use matic_sema::{analyze, Class, Dim, Shape, Ty};

    fn lower(src: &str, entry: &str, args: &[Ty]) -> MirProgram {
        let (p, d) = parse(src);
        assert!(!d.has_errors());
        let a = analyze(&p, entry, args);
        assert!(!a.diags.has_errors());
        let (mir, d) = crate::lower::lower_program(&p, &a);
        assert!(!d.has_errors());
        mir
    }

    fn count_calls(f: &MirFunction) -> usize {
        let mut n = 0;
        walk_stmts(&f.body, &mut |s| match s {
            Stmt::Def {
                rv: Rvalue::Call { .. },
                ..
            } => n += 1,
            Stmt::CallMulti { user: true, .. } => n += 1,
            _ => {}
        });
        n
    }

    #[test]
    fn leaf_helper_is_inlined() {
        let src =
            "function y = top(x)\ny = sq(x) + sq(x + 1);\nend\nfunction z = sq(t)\nz = t * t;\nend";
        let mut mir = lower(src, "top", &[Ty::double_scalar()]);
        let n = inline_program(&mut mir, DEFAULT_INLINE_LIMIT);
        assert_eq!(n, 2);
        assert_eq!(count_calls(mir.function("top").unwrap()), 0);
    }

    #[test]
    fn call_chain_is_flattened_bottom_up() {
        let src = "function y = top(x)\ny = mid(x);\nend\n\
                   function y = mid(x)\ny = leaf(x) + 1;\nend\n\
                   function y = leaf(x)\ny = 2 * x;\nend";
        let mut mir = lower(src, "top", &[Ty::double_scalar()]);
        let n = inline_program(&mut mir, DEFAULT_INLINE_LIMIT);
        assert!(n >= 2, "expected both levels inlined, got {n}");
        assert_eq!(count_calls(mir.function("top").unwrap()), 0);
    }

    #[test]
    fn recursion_is_never_inlined() {
        let src = "function y = f(n)\nif n <= 1\n y = 1;\nelse\n y = n * f(n - 1);\nend\nend";
        let mut mir = lower(src, "f", &[Ty::double_scalar()]);
        let n = inline_program(&mut mir, DEFAULT_INLINE_LIMIT);
        assert_eq!(n, 0);
        assert_eq!(count_calls(mir.function("f").unwrap()), 1);
    }

    #[test]
    fn early_return_blocks_inlining() {
        let src = "function y = top(x)\ny = g(x);\nend\n\
                   function y = g(x)\ny = 0;\nif x > 0\n y = x;\n return\nend\ny = -x;\nend";
        let mut mir = lower(src, "top", &[Ty::double_scalar()]);
        let n = inline_program(&mut mir, DEFAULT_INLINE_LIMIT);
        assert_eq!(n, 0, "early return cannot be expressed inline");
    }

    #[test]
    fn size_limit_is_respected() {
        let src = "function y = top(x)\ny = big(x);\nend\n\
                   function y = big(x)\ny = x;\nfor i = 1:3\n y = y + i;\n y = y * 2;\n y = y - 1;\nend\nend";
        let mut mir = lower(src, "top", &[Ty::double_scalar()]);
        assert_eq!(inline_program(&mut mir, 2), 0);
        assert_eq!(inline_program(&mut mir, DEFAULT_INLINE_LIMIT), 1);
    }

    #[test]
    fn multi_output_callee_inlines() {
        let src = "function y = top(x)\n[a, b] = two(x);\ny = a + b;\nend\n\
                   function [p, q] = two(x)\np = x + 1;\nq = x - 1;\nend";
        let mut mir = lower(src, "top", &[Ty::double_scalar()]);
        assert_eq!(inline_program(&mut mir, DEFAULT_INLINE_LIMIT), 1);
        assert_eq!(count_calls(mir.function("top").unwrap()), 0);
    }

    #[test]
    fn vector_helper_exposes_idiom_after_inlining() {
        // Without inlining the loop body contains a call; with inlining
        // the MAC idiom becomes visible to the vectorizer.
        let src =
            "function s = top(a, b, n)\ns = 0;\nfor i = 1:n\n s = s + prodat(a, b, i);\nend\nend\n\
                   function p = prodat(a, b, i)\np = a(i) * b(i);\nend";
        let v = Ty::new(Class::Double, Shape::row(Dim::Known(32)));
        let mut mir = lower(src, "top", &[v, v, Ty::double_scalar()]);
        let n = inline_program(&mut mir, DEFAULT_INLINE_LIMIT);
        assert_eq!(n, 1);
        crate::passes::optimize_program(&mut mir);
        // The accumulator pattern is now a plain body the vectorizer can
        // recognize — verified end to end in the vectorize crate; here we
        // only check the call disappeared from the loop.
        assert_eq!(count_calls(mir.function("top").unwrap()), 0);
    }
}
