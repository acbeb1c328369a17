//! Human-readable MIR dumps for debugging and golden tests.

use crate::ir::*;
use std::fmt::Write as _;

/// Renders a whole program.
pub fn print_program(program: &MirProgram) -> String {
    let mut out = String::new();
    for f in &program.functions {
        out.push_str(&print_function(f));
        out.push('\n');
    }
    out
}

/// Renders one function.
pub fn print_function(func: &MirFunction) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .map(|p| format!("{}: {}", func.var(*p).name, func.var_ty(*p)))
        .collect();
    let outputs: Vec<String> = func
        .outputs
        .iter()
        .map(|o| func.var(*o).name.clone())
        .collect();
    let _ = writeln!(
        out,
        "func @{}({}) -> ({})",
        func.name,
        params.join(", "),
        outputs.join(", ")
    );
    print_stmts(&mut out, func, &func.body, 1);
    out.push_str("end\n");
    out
}

fn ind(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmts(out: &mut String, f: &MirFunction, stmts: &[Stmt], level: usize) {
    for s in stmts {
        print_stmt(out, f, s, level);
    }
}

fn name(f: &MirFunction, v: VarId) -> String {
    format!("{}({})", f.var(v).name, v)
}

fn fmt_index(f: &MirFunction, idx: &Index) -> String {
    match idx {
        Index::Scalar(o) => fmt_op(f, o),
        Index::Range { start, step, stop } => format!(
            "{}:{}:{}",
            fmt_op(f, start),
            fmt_op(f, step),
            fmt_op(f, stop)
        ),
        Index::Full => ":".to_string(),
    }
}

fn fmt_op(f: &MirFunction, op: &Operand) -> String {
    match op {
        Operand::Var(v) => name(f, *v),
        Operand::Const(c) => format!("{c}"),
        Operand::ConstC(re, im) => format!("({re}+{im}i)"),
    }
}

fn fmt_vecref(f: &MirFunction, r: &VecRef) -> String {
    match r {
        VecRef::Slice { array, start, step } => format!(
            "{}[{} by {}]",
            name(f, *array),
            fmt_op(f, start),
            fmt_op(f, step)
        ),
        VecRef::Splat(o) => format!("splat({})", fmt_op(f, o)),
    }
}

fn print_stmt(out: &mut String, f: &MirFunction, s: &Stmt, level: usize) {
    ind(out, level);
    match s {
        Stmt::Def { dst, rv, .. } => {
            let _ = write!(out, "{} = ", name(f, *dst));
            match rv {
                Rvalue::Use(o) => {
                    let _ = write!(out, "{}", fmt_op(f, o));
                }
                Rvalue::Unary { op, a } => {
                    let _ = write!(out, "{op}{}", fmt_op(f, a));
                }
                Rvalue::Binary { op, a, b } => {
                    let _ = write!(out, "{} {op} {}", fmt_op(f, a), fmt_op(f, b));
                }
                Rvalue::Transpose { a, conjugate } => {
                    let _ = write!(
                        out,
                        "{}{}",
                        fmt_op(f, a),
                        if *conjugate { "'" } else { ".'" }
                    );
                }
                Rvalue::Index { array, indices } => {
                    let idx: Vec<String> = indices.iter().map(|i| fmt_index(f, i)).collect();
                    let _ = write!(out, "{}[{}]", name(f, *array), idx.join(", "));
                }
                Rvalue::Range { start, step, stop } => {
                    let _ = write!(
                        out,
                        "range({}, {}, {})",
                        fmt_op(f, start),
                        fmt_op(f, step),
                        fmt_op(f, stop)
                    );
                }
                Rvalue::Alloc { kind, rows, cols } => {
                    let k = match kind {
                        AllocKind::Zeros => "zeros",
                        AllocKind::Ones => "ones",
                        AllocKind::Eye => "eye",
                    };
                    let _ = write!(out, "{k}({}, {})", fmt_op(f, rows), fmt_op(f, cols));
                }
                Rvalue::Builtin { name: n, args } => {
                    let a: Vec<String> = args.iter().map(|x| fmt_op(f, x)).collect();
                    let _ = write!(out, "@{n}({})", a.join(", "));
                }
                Rvalue::Call { func, args } => {
                    let a: Vec<String> = args.iter().map(|x| fmt_op(f, x)).collect();
                    let _ = write!(out, "call {func}({})", a.join(", "));
                }
                Rvalue::MatrixLit { rows } => {
                    let rs: Vec<String> = rows
                        .iter()
                        .map(|r| r.iter().map(|x| fmt_op(f, x)).collect::<Vec<_>>().join(" "))
                        .collect();
                    let _ = write!(out, "[{}]", rs.join("; "));
                }
                Rvalue::StrLit(s) => {
                    let _ = write!(out, "{s:?}");
                }
            }
            let _ = writeln!(out, " : {}", f.var_ty(*dst));
        }
        Stmt::Store {
            array,
            indices,
            value,
            ..
        } => {
            let idx: Vec<String> = indices.iter().map(|i| fmt_index(f, i)).collect();
            let _ = writeln!(
                out,
                "{}[{}] <- {}",
                name(f, *array),
                idx.join(", "),
                fmt_op(f, value)
            );
        }
        Stmt::CallMulti {
            dsts, func, args, ..
        } => {
            let ds: Vec<String> = dsts
                .iter()
                .map(|d| match d {
                    Some(v) => name(f, *v),
                    None => "~".to_string(),
                })
                .collect();
            let a: Vec<String> = args.iter().map(|x| fmt_op(f, x)).collect();
            let _ = writeln!(out, "[{}] = call {func}({})", ds.join(", "), a.join(", "));
        }
        Stmt::Effect { name: n, args, .. } => {
            let a: Vec<String> = args.iter().map(|x| fmt_op(f, x)).collect();
            let _ = writeln!(out, "effect @{n}({})", a.join(", "));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            let _ = writeln!(out, "if {} {{", fmt_op(f, cond));
            print_stmts(out, f, then_body, level + 1);
            if !else_body.is_empty() {
                ind(out, level);
                out.push_str("} else {\n");
                print_stmts(out, f, else_body, level + 1);
            }
            ind(out, level);
            out.push_str("}\n");
        }
        Stmt::For {
            var,
            start,
            step,
            stop,
            body,
            ..
        } => {
            let _ = writeln!(
                out,
                "for {} = {} : {} : {} {{",
                name(f, *var),
                fmt_op(f, start),
                fmt_op(f, step),
                fmt_op(f, stop)
            );
            print_stmts(out, f, body, level + 1);
            ind(out, level);
            out.push_str("}\n");
        }
        Stmt::While {
            cond_defs,
            cond,
            body,
            ..
        } => {
            out.push_str("while {\n");
            print_stmts(out, f, cond_defs, level + 1);
            ind(out, level + 1);
            let _ = writeln!(out, "test {}", fmt_op(f, cond));
            ind(out, level);
            out.push_str("} do {\n");
            print_stmts(out, f, body, level + 1);
            ind(out, level);
            out.push_str("}\n");
        }
        Stmt::Break(_) => out.push_str("break\n"),
        Stmt::Continue(_) => out.push_str("continue\n"),
        Stmt::Return(_) => out.push_str("return\n"),
        Stmt::VectorOp(vop) => {
            let kind = match &vop.kind {
                VecKind::Map(op) => format!("vmap[{op}]"),
                VecKind::MapUnary(op) => format!("vmap[{op}]"),
                VecKind::MapBuiltin(n) => format!("vmap[{n}]"),
                VecKind::Mac => "vmac".to_string(),
                VecKind::Reduce(ReduceKind::Sum) => "vred[+]".to_string(),
                VecKind::Reduce(ReduceKind::Prod) => "vred[*]".to_string(),
                VecKind::Copy => "vcopy".to_string(),
            };
            let b = vop
                .b
                .as_ref()
                .map(|b| format!(", {}", fmt_vecref(f, b)))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{} {} <- {}{} len={} {}",
                kind,
                fmt_vecref(f, &vop.dst),
                fmt_vecref(f, &vop.a),
                b,
                fmt_op(f, &vop.len),
                if vop.complex { "complex" } else { "real" }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_frontend::parse;
    use matic_sema::{analyze, Ty};

    #[test]
    fn dump_is_stable_and_informative() {
        let (p, _) =
            parse("function s = acc(x)\ns = 0;\nfor i = 1:length(x)\n s = s + x(i);\nend\nend");
        let a = analyze(
            &p,
            "acc",
            &[Ty::new(
                matic_sema::Class::Double,
                matic_sema::Shape::row(matic_sema::Dim::Known(8)),
            )],
        );
        let (mir, _) = crate::lower::lower_program(&p, &a);
        let text = print_program(&mir);
        assert!(text.contains("func @acc"));
        assert!(text.contains("for "));
        assert!(text.contains("end"));
    }
}
