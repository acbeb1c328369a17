//! Class/shape inference by abstract interpretation over the AST.
//!
//! Inference is flow-insensitive per variable within a function (a single
//! type per variable, the join of everything assigned to it) and iterates
//! each function body to a fixpoint, which terminates because both
//! lattices are finite-height and only move upward.
//!
//! ## Static approximations
//!
//! Like MATLAB Coder, `sqrt`/`log`/`^` of a statically-real operand are
//! assumed to stay real; programs that rely on `sqrt(-1)` producing `1i`
//! must introduce complexness explicitly (e.g. via `complex()` or an
//! imaginary literal). The differential tests against the interpreter
//! enforce that this approximation is sound for all shipped benchmarks.

use crate::signatures::{builtin_call_error, builtin_nargout_types, builtin_result};
use crate::types::{Class, Dim, Shape, Ty};
use matic_frontend::ast::*;
use matic_frontend::diag::DiagnosticBag;
use matic_frontend::span::Span;
use std::collections::HashMap;

/// Inference results for one analyzed function.
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    /// Function name (`"<script>"` for the script part).
    pub name: String,
    /// Types of the formal parameters it was analyzed with.
    pub params: Vec<Ty>,
    /// Final type of every variable assigned in the body.
    pub vars: HashMap<String, Ty>,
    /// Types of the declared outputs.
    pub outputs: Vec<Ty>,
}

impl FunctionInfo {
    /// The inferred type of `var`, or unknown.
    pub fn var_ty(&self, var: &str) -> Ty {
        self.vars.get(var).copied().unwrap_or_else(Ty::unknown)
    }
}

/// Whole-program analysis: per-function variable types plus diagnostics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Analyzed functions by name (including `"<script>"`).
    pub functions: HashMap<String, FunctionInfo>,
    /// Warnings and errors discovered during analysis.
    pub diags: DiagnosticBag,
}

impl Analysis {
    /// Info for one function.
    pub fn function(&self, name: &str) -> Option<&FunctionInfo> {
        self.functions.get(name)
    }
}

/// Name of the pseudo-function holding script statements.
pub const SCRIPT_FN: &str = "<script>";

/// Analyzes `program` starting from `entry` called with `arg_types`.
///
/// Every user function transitively reachable from the entry is analyzed.
/// Use [`analyze_script`] for script files.
pub fn analyze(program: &Program, entry: &str, arg_types: &[Ty]) -> Analysis {
    let mut cx = InferCx {
        program,
        functions: HashMap::new(),
        diags: DiagnosticBag::new(),
        stack: Vec::new(),
    };
    if let Some(func) = program.function(entry) {
        // The entry signature is the ABI boundary: unlike internal calls
        // (where trailing parameters may legitimately be absent under
        // `nargin` guards), every entry parameter must be bound to a
        // concrete type or downstream stages see unknowns.
        if func.params.len() != arg_types.len() {
            cx.diags.error(
                format!(
                    "entry `{entry}` expects {} argument{}, signature provides {}",
                    func.params.len(),
                    if func.params.len() == 1 { "" } else { "s" },
                    arg_types.len()
                ),
                func.span,
            );
        } else {
            cx.analyze_function(entry, arg_types.to_vec(), Span::dummy());
        }
    } else {
        cx.diags
            .error(format!("entry function `{entry}` not found"), Span::dummy());
    }
    Analysis {
        functions: cx.functions,
        diags: cx.diags,
    }
}

/// Analyzes the script part of `program` (plus everything it calls).
pub fn analyze_script(program: &Program) -> Analysis {
    let mut cx = InferCx {
        program,
        functions: HashMap::new(),
        diags: DiagnosticBag::new(),
        stack: Vec::new(),
    };
    let mut vars: HashMap<String, Ty> = HashMap::new();
    cx.infer_body_fixpoint(&program.script, &mut vars);
    cx.functions.insert(
        SCRIPT_FN.to_string(),
        FunctionInfo {
            name: SCRIPT_FN.to_string(),
            params: Vec::new(),
            vars,
            outputs: Vec::new(),
        },
    );
    Analysis {
        functions: cx.functions,
        diags: cx.diags,
    }
}

struct InferCx<'p> {
    program: &'p Program,
    functions: HashMap<String, FunctionInfo>,
    diags: DiagnosticBag,
    /// Call stack for recursion detection.
    stack: Vec<String>,
}

impl<'p> InferCx<'p> {
    /// Analyzes (or re-analyzes with widened parameters) one function and
    /// returns its output types.
    fn analyze_function(&mut self, name: &str, args: Vec<Ty>, call_span: Span) -> Vec<Ty> {
        let Some(func) = self.program.function(name) else {
            self.diags
                .error(format!("call to undefined function `{name}`"), call_span);
            return vec![Ty::unknown()];
        };
        // Pad missing arguments with unknown.
        let mut params: Vec<Ty> = args;
        params.resize(func.params.len(), Ty::unknown());

        if self.stack.contains(&name.to_string()) {
            // Recursive call: use the current ascending approximation.
            return self
                .functions
                .get(name)
                .map(|fi| fi.outputs.clone())
                .unwrap_or_else(|| vec![recursion_seed(); func.outputs.len().max(1)]);
        }
        // Reuse a previous analysis when parameters are unchanged or wider.
        if let Some(prev) = self.functions.get(name) {
            let joined: Vec<Ty> = prev
                .params
                .iter()
                .zip(&params)
                .map(|(a, b)| a.join(*b))
                .collect();
            if joined == prev.params {
                return prev.outputs.clone();
            }
            params = joined;
        }

        let func = func.clone();
        self.stack.push(name.to_string());
        // Recursive calls start from a pseudo-bottom (the least element of
        // both lattices) so the fixpoint ascends instead of being poisoned
        // by ⊤; the outer loop re-runs the body until outputs stabilize.
        let mut guess = vec![recursion_seed(); func.outputs.len().max(1)];
        let mut vars: HashMap<String, Ty> = HashMap::new();
        for _ in 0..6 {
            self.functions.insert(
                name.to_string(),
                FunctionInfo {
                    name: name.to_string(),
                    params: params.clone(),
                    vars: HashMap::new(),
                    outputs: guess.clone(),
                },
            );
            vars = HashMap::new();
            for (p, t) in func.params.iter().zip(&params) {
                vars.insert(p.clone(), *t);
            }
            vars.insert("nargin".into(), Ty::double_scalar());
            vars.insert("nargout".into(), Ty::double_scalar());
            self.infer_body_fixpoint(&func.body, &mut vars);
            let outputs: Vec<Ty> = func
                .outputs
                .iter()
                .map(|o| vars.get(o).copied().unwrap_or_else(Ty::unknown))
                .collect();
            let widened: Vec<Ty> = guess
                .iter()
                .zip(&outputs)
                .map(|(g, o)| g.join(*o))
                .collect();
            if widened == guess {
                break;
            }
            guess = widened;
        }
        self.functions.insert(
            name.to_string(),
            FunctionInfo {
                name: name.to_string(),
                params,
                vars,
                outputs: guess.clone(),
            },
        );
        self.stack.pop();
        guess
    }

    fn infer_body_fixpoint(&mut self, body: &[Stmt], vars: &mut HashMap<String, Ty>) {
        // Two lattices of height ≤ 3 per var: a handful of passes suffices;
        // the bound guards pathological interactions through calls.
        for _ in 0..8 {
            let before = vars.clone();
            for stmt in body {
                self.infer_stmt(stmt, vars);
            }
            if *vars == before {
                break;
            }
        }
    }

    fn infer_stmt(&mut self, stmt: &Stmt, vars: &mut HashMap<String, Ty>) {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                let ty = self.infer_expr(value, vars);
                self.assign_target(target, ty, vars);
            }
            Stmt::MultiAssign { targets, call, .. } => {
                let outs = self.infer_multi(call, targets.len(), vars);
                for (t, ty) in targets.iter().zip(outs) {
                    if let Some(t) = t {
                        self.assign_target(t, ty, vars);
                    }
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                let ty = self.infer_expr(expr, vars);
                join_var(vars, "ans", ty);
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                for (cond, body) in arms {
                    self.infer_expr(cond, vars);
                    for s in body {
                        self.infer_stmt(s, vars);
                    }
                }
                if let Some(body) = else_body {
                    for s in body {
                        self.infer_stmt(s, vars);
                    }
                }
            }
            Stmt::For {
                var, iter, body, ..
            } => {
                let seq = self.infer_expr(iter, vars);
                // Loop variable: scalar element of the iterated value (or a
                // column for matrix iteration).
                let elem = if seq.shape.is_vector() || seq.shape.is_scalar() {
                    Ty::new(seq.class, Shape::scalar())
                } else {
                    Ty::new(seq.class, Shape::col(seq.shape.rows))
                };
                join_var(vars, var, elem);
                for s in body {
                    self.infer_stmt(s, vars);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.infer_expr(cond, vars);
                for s in body {
                    self.infer_stmt(s, vars);
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Return(_) => {}
            Stmt::Global { names, .. } => {
                for n in names {
                    join_var(vars, n, Ty::unknown());
                }
            }
        }
    }

    fn assign_target(&mut self, target: &LValue, ty: Ty, vars: &mut HashMap<String, Ty>) {
        match target {
            LValue::Name { name, .. } => {
                // Plain assignment replaces, but joins across loop passes:
                // we implement "join" so fixpoint iteration is monotone.
                join_var(vars, name, ty);
            }
            LValue::Index { name, indices, .. } => {
                for e in indices {
                    self.infer_expr(e, vars);
                }
                // Element assignment: the array's class joins with the
                // element's class; shape may grow, so join with unknown
                // dims conservatively only when not previously known.
                let existing = vars.get(name.as_str()).copied().unwrap_or(Ty {
                    class: Class::Double,
                    shape: if indices.len() == 1 {
                        Shape::row(Dim::Unknown)
                    } else {
                        Shape::unknown()
                    },
                    constant: None,
                });
                let merged = Ty {
                    class: existing.class.join(elem_class(ty.class)),
                    shape: existing.shape,
                    constant: None,
                };
                vars.insert(name.clone(), merged);
            }
        }
    }

    fn infer_multi(
        &mut self,
        call: &Expr,
        nargout: usize,
        vars: &mut HashMap<String, Ty>,
    ) -> Vec<Ty> {
        if let Expr::Call { name, args, span } = call {
            if !vars.contains_key(name.as_str()) {
                let arg_tys: Vec<Ty> = args.iter().map(|a| self.infer_expr(a, vars)).collect();
                if self.program.function(name).is_some() {
                    let mut outs = self.analyze_function(name, arg_tys, *span);
                    outs.resize(nargout, Ty::unknown());
                    return outs;
                }
                if let Some(msg) = builtin_call_error(name, &arg_tys) {
                    self.diags.error(msg, *span);
                    return vec![Ty::unknown(); nargout];
                }
                if let Some(outs) = builtin_nargout_types(name, &arg_tys, nargout) {
                    let mut outs = outs;
                    outs.resize(nargout, Ty::unknown());
                    return outs;
                }
            }
        }
        let single = self.infer_expr(call, vars);
        let mut outs = vec![single];
        outs.resize(nargout, Ty::unknown());
        outs
    }

    fn infer_expr(&mut self, expr: &Expr, vars: &mut HashMap<String, Ty>) -> Ty {
        match expr {
            Expr::Number { value, .. } => Ty::constant(*value),
            Expr::Imaginary { .. } => Ty::new(Class::Complex, Shape::scalar()),
            Expr::Str { value, .. } => {
                Ty::new(Class::Char, Shape::row(Dim::Known(value.chars().count())))
            }
            Expr::Ident { name, span } => {
                if let Some(t) = vars.get(name.as_str()) {
                    return *t;
                }
                if self.program.function(name).is_some() {
                    let outs = self.analyze_function(name, vec![], *span);
                    return outs.first().copied().unwrap_or_else(Ty::unknown);
                }
                if let Some(t) = builtin_result(name, &[]) {
                    return t;
                }
                self.diags
                    .error(format!("undefined variable or function `{name}`"), *span);
                Ty::unknown()
            }
            Expr::Call { name, args, span } => {
                if let Some(base) = vars.get(name.as_str()).copied() {
                    // Indexing a variable. Pre-compute constant range
                    // lengths so slice results keep known extents.
                    let mut range_lens = Vec::with_capacity(args.len());
                    for a in args {
                        let l = if let Expr::Range {
                            start, step, stop, ..
                        } = a
                        {
                            let st = self.infer_expr(start, vars).constant;
                            let sp = match step {
                                Some(e) => self.infer_expr(e, vars).constant,
                                None => Some(1.0),
                            };
                            let en = self.infer_expr(stop, vars).constant;
                            range_len(st, sp, en)
                        } else {
                            self.infer_expr(a, vars);
                            None
                        };
                        range_lens.push(l);
                    }
                    return index_result(base, args, &range_lens);
                }
                let arg_tys: Vec<Ty> = args.iter().map(|a| self.infer_expr(a, vars)).collect();
                if self.program.function(name).is_some() {
                    let outs = self.analyze_function(name, arg_tys, *span);
                    return outs.first().copied().unwrap_or_else(Ty::unknown);
                }
                if let Some(msg) = builtin_call_error(name, &arg_tys) {
                    self.diags.error(msg, *span);
                    return Ty::unknown();
                }
                if let Some(t) = builtin_result(name, &arg_tys) {
                    return t;
                }
                self.diags
                    .error(format!("call to undefined function `{name}`"), *span);
                Ty::unknown()
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let l = self.infer_expr(lhs, vars);
                let r = self.infer_expr(rhs, vars);
                self.infer_binop(*op, l, r, *span)
            }
            Expr::Unary { op, operand, .. } => {
                let t = self.infer_expr(operand, vars);
                crate::transfer::unop_result(*op, t)
            }
            Expr::Transpose { operand, .. } => {
                let t = self.infer_expr(operand, vars);
                Ty::new(t.class, t.shape.transpose())
            }
            Expr::Range {
                start, step, stop, ..
            } => {
                let s = self.infer_expr(start, vars);
                let st = step.as_ref().map(|x| self.infer_expr(x, vars));
                let e = self.infer_expr(stop, vars);
                let len = range_len(
                    s.constant,
                    st.and_then(|t| t.constant)
                        .or(if step.is_none() { Some(1.0) } else { None }),
                    e.constant,
                );
                Ty::new(
                    Class::Double,
                    Shape::row(len.map_or(Dim::Unknown, Dim::Known)),
                )
            }
            Expr::ColonAll { .. } => Ty::new(Class::Double, Shape::row(Dim::Unknown)),
            Expr::EndKeyword { .. } => Ty::double_scalar(),
            Expr::Matrix { rows, .. } => self.infer_matrix(rows, vars),
            Expr::AnonFn { .. } | Expr::FnHandle { .. } => Ty::unknown(),
        }
    }

    fn infer_binop(&mut self, op: BinOp, l: Ty, r: Ty, span: Span) -> Ty {
        let (ty, mismatch) = crate::transfer::binop_result(op, l, r);
        if mismatch {
            self.diags.warning("operand shapes provably mismatch", span);
        }
        ty
    }

    fn infer_matrix(&mut self, rows: &[Vec<Expr>], vars: &mut HashMap<String, Ty>) -> Ty {
        if rows.is_empty() {
            return Ty::new(Class::Double, Shape::known(0, 0));
        }
        let mut class = Class::Logical; // bottom-most start, join upward
        let mut total_cols: Option<usize> = Some(0);
        let mut total_rows: Option<usize> = Some(0);
        let mut first = true;
        for row in rows {
            let mut row_cols: Option<usize> = Some(0);
            let mut row_rows: Option<usize> = Some(1);
            for e in row {
                let t = self.infer_expr(e, vars);
                class = class.join(elem_class(t.class));
                row_cols = match (row_cols, t.shape.cols.known()) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
                row_rows = match (row_rows, t.shape.rows.known()) {
                    (Some(_), Some(b)) => Some(b),
                    _ => None,
                };
            }
            if first {
                total_cols = row_cols;
                first = false;
            } else if total_cols != row_cols {
                total_cols = None;
            }
            total_rows = match (total_rows, row_rows) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        Ty::new(
            class,
            Shape {
                rows: total_rows.map_or(Dim::Unknown, Dim::Known),
                cols: total_cols.map_or(Dim::Unknown, Dim::Known),
            },
        )
    }
}

/// Pseudo-bottom for recursive output seeding: the least element of both
/// lattices (a 1×1 logical joins upward into anything).
fn recursion_seed() -> Ty {
    Ty::new(Class::Logical, Shape::scalar())
}

/// Class of a value once it is stored as a matrix element.
fn elem_class(c: Class) -> Class {
    match c {
        Class::Logical | Class::Char => Class::Double,
        other => other,
    }
}

fn join_var(vars: &mut HashMap<String, Ty>, name: &str, ty: Ty) {
    let merged = match vars.get(name) {
        Some(prev) => prev.join(ty),
        None => ty,
    };
    vars.insert(name.to_string(), merged);
}

/// Result type of `base(args...)` indexing. `range_lens` carries the
/// statically known length of each `Range` subscript (parallel to `args`).
fn index_result(base: Ty, args: &[Expr], range_lens: &[Option<usize>]) -> Ty {
    let class = base.class;
    let dim_of = |k: usize| -> Dim {
        range_lens
            .get(k)
            .copied()
            .flatten()
            .map_or(Dim::Unknown, Dim::Known)
    };
    match args.len() {
        0 => base,
        1 => match &args[0] {
            Expr::ColonAll { .. } => Ty::new(class, Shape::col(Dim::Unknown)),
            Expr::Range { .. } => Ty::new(class, Shape::row(dim_of(0))),
            _ => {
                // Scalar index → scalar element; everything else unknown
                // vector. A literal/ident index is almost always scalar in
                // kernel code.
                Ty::new(class, Shape::scalar())
            }
        },
        2 => {
            let rows = match &args[0] {
                Expr::ColonAll { .. } => base.shape.rows,
                Expr::Range { .. } => dim_of(0),
                _ => Dim::Known(1),
            };
            let cols = match &args[1] {
                Expr::ColonAll { .. } => base.shape.cols,
                Expr::Range { .. } => dim_of(1),
                _ => Dim::Known(1),
            };
            Ty::new(class, Shape { rows, cols })
        }
        _ => Ty::new(class, Shape::unknown()),
    }
}

fn range_len(start: Option<f64>, step: Option<f64>, stop: Option<f64>) -> Option<usize> {
    let (s, st, e) = (start?, step?, stop?);
    if st == 0.0 || (st > 0.0 && s > e) || (st < 0.0 && s < e) {
        return Some(0);
    }
    Some(((e - s) / st + 1e-10).floor() as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_frontend::parse;

    fn analyze_src(src: &str, entry: &str, args: &[Ty]) -> Analysis {
        let (p, diags) = parse(src);
        assert!(!diags.has_errors(), "parse: {:?}", diags.into_vec());
        analyze(&p, entry, args)
    }

    #[test]
    fn scalar_arithmetic_types() {
        let a = analyze_src(
            "function y = f(x)\ny = 2 * x + 1;\nend",
            "f",
            &[Ty::double_scalar()],
        );
        let f = a.function("f").unwrap();
        assert_eq!(f.var_ty("y").class, Class::Double);
        assert!(f.var_ty("y").shape.is_scalar());
    }

    #[test]
    fn complex_propagates() {
        let a = analyze_src(
            "function y = f(x)\ny = (1 + 2i) * x;\nend",
            "f",
            &[Ty::double_scalar()],
        );
        assert_eq!(a.function("f").unwrap().var_ty("y").class, Class::Complex);
    }

    #[test]
    fn vector_parameter_shapes() {
        let arg = Ty::new(Class::Double, Shape::row(Dim::Known(64)));
        let a = analyze_src("function y = f(x)\ny = x .* x;\nend", "f", &[arg]);
        assert_eq!(
            a.function("f").unwrap().var_ty("y").shape,
            Shape::row(Dim::Known(64))
        );
    }

    #[test]
    fn zeros_shape_from_length() {
        let arg = Ty::new(Class::Double, Shape::row(Dim::Known(16)));
        let a = analyze_src(
            "function y = f(x)\nn = length(x);\ny = zeros(1, n);\nend",
            "f",
            &[arg],
        );
        // n is not constant → shape cols unknown but row-ness known.
        let y = a.function("f").unwrap().var_ty("y");
        assert_eq!(y.shape.rows, Dim::Known(1));
    }

    #[test]
    fn constant_dims_propagate() {
        let a = analyze_src("function y = f()\ny = zeros(1, 64);\nend", "f", &[]);
        assert_eq!(
            a.function("f").unwrap().var_ty("y").shape,
            Shape::known(1, 64)
        );
    }

    #[test]
    fn loop_join_widens() {
        // x is 1.0 then grows complex in the loop → Complex after fixpoint.
        let a = analyze_src(
            "function y = f(n)\nx = 1;\nfor k = 1:n\n x = x * 1i;\nend\ny = x;\nend",
            "f",
            &[Ty::double_scalar()],
        );
        assert_eq!(a.function("f").unwrap().var_ty("y").class, Class::Complex);
    }

    #[test]
    fn callee_analysis() {
        let src =
            "function y = top(x)\ny = helper(x) + 1;\nend\nfunction z = helper(x)\nz = 2 * x;\nend";
        let a = analyze_src(src, "top", &[Ty::double_scalar()]);
        assert!(a.function("helper").is_some());
        assert_eq!(a.function("top").unwrap().var_ty("y").class, Class::Double);
    }

    #[test]
    fn recursion_terminates() {
        let src = "function y = f(n)\nif n <= 1\n y = 1;\nelse\n y = n * f(n - 1);\nend\nend";
        let a = analyze_src(src, "f", &[Ty::double_scalar()]);
        assert_eq!(a.function("f").unwrap().outputs.len(), 1);
    }

    #[test]
    fn undefined_variable_diagnosed() {
        let a = analyze_src("function y = f()\ny = mystery + 1;\nend", "f", &[]);
        assert!(a.diags.has_errors());
    }

    #[test]
    fn indexing_scalar_element() {
        let arg = Ty::new(Class::Complex, Shape::row(Dim::Known(8)));
        let a = analyze_src("function y = f(x)\ny = x(3);\nend", "f", &[arg]);
        let y = a.function("f").unwrap().var_ty("y");
        assert_eq!(y.class, Class::Complex);
        assert!(y.shape.is_scalar());
    }

    #[test]
    fn indexed_assignment_joins_class() {
        let a = analyze_src(
            "function y = f(n)\ny = zeros(1, 4);\ny(2) = 1i;\nend",
            "f",
            &[Ty::double_scalar()],
        );
        assert_eq!(a.function("f").unwrap().var_ty("y").class, Class::Complex);
    }

    #[test]
    fn comparison_is_logical() {
        let a = analyze_src(
            "function y = f(x)\ny = x > 0;\nend",
            "f",
            &[Ty::new(Class::Double, Shape::row(Dim::Known(5)))],
        );
        let y = a.function("f").unwrap().var_ty("y");
        assert_eq!(y.class, Class::Logical);
        assert_eq!(y.shape, Shape::row(Dim::Known(5)));
    }

    #[test]
    fn script_analysis() {
        let (p, _) = parse("a = 1:10;\nb = sum(a);");
        let a = analyze_script(&p);
        let s = a.function(SCRIPT_FN).unwrap();
        assert_eq!(s.var_ty("a").shape, Shape::row(Dim::Known(10)));
        assert!(s.var_ty("b").shape.is_scalar());
    }

    #[test]
    fn range_length_from_constants() {
        let a = analyze_src("function y = f()\ny = 0:2:10;\nend", "f", &[]);
        assert_eq!(
            a.function("f").unwrap().var_ty("y").shape,
            Shape::row(Dim::Known(6))
        );
    }

    #[test]
    fn constant_folding_through_dims() {
        let a = analyze_src(
            "function y = f()\nn = 32;\ny = zeros(1, n / 2);\nend",
            "f",
            &[],
        );
        assert_eq!(
            a.function("f").unwrap().var_ty("y").shape,
            Shape::known(1, 16)
        );
    }

    #[test]
    fn transpose_shape() {
        let arg = Ty::new(Class::Double, Shape::known(1, 8));
        let a = analyze_src("function y = f(x)\ny = x';\nend", "f", &[arg]);
        assert_eq!(
            a.function("f").unwrap().var_ty("y").shape,
            Shape::known(8, 1)
        );
    }

    #[test]
    fn matmul_shape() {
        let a = Ty::new(Class::Double, Shape::known(4, 8));
        let b = Ty::new(Class::Double, Shape::known(8, 3));
        let an = analyze_src("function c = f(a, b)\nc = a * b;\nend", "f", &[a, b]);
        assert_eq!(
            an.function("f").unwrap().var_ty("c").shape,
            Shape::known(4, 3)
        );
    }

    #[test]
    fn matrix_literal_shape() {
        let a = analyze_src("function y = f()\ny = [1 2 3; 4 5 6];\nend", "f", &[]);
        assert_eq!(
            a.function("f").unwrap().var_ty("y").shape,
            Shape::known(2, 3)
        );
    }

    #[test]
    fn a_complex_argument_to_a_real_only_builtin_is_rejected_at_the_call() {
        let src = "function y = f(z, x)\ny = x + sin(z);\nend";
        let z = Ty::new(Class::Complex, Shape::scalar());
        let a = analyze_src(src, "f", &[z, Ty::double_scalar()]);
        let err = a.diags.first_error().expect("rejected");
        assert_eq!(err.message, "`sin` of a complex argument is not supported");
        assert_eq!(
            &src[err.span.start as usize..err.span.end as usize],
            "sin(z)"
        );
        // A real argument, and a complex one to a builtin with a complex
        // form, are accepted.
        let a = analyze_src(src, "f", &[Ty::double_scalar(), Ty::double_scalar()]);
        assert!(!a.diags.has_errors());
        let a = analyze_src("function y = f(z)\ny = floor(z);\nend", "f", &[z]);
        assert!(!a.diags.has_errors());
        assert_eq!(a.function("f").unwrap().var_ty("y").class, Class::Complex);
    }
}
