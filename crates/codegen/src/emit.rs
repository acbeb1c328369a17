//! MIR → ANSI C emission.
//!
//! One emitter serves both backends of the paper's evaluation:
//!
//! * the **baseline** runs on unvectorized MIR and therefore produces the
//!   naive element-at-a-time loops a MATLAB-Coder-class tool emits;
//! * the **intrinsic** backend runs on vectorized MIR and maps
//!   [`VectorOp`](matic_mir::VectorOp)s to the target's custom-instruction
//!   intrinsics, falling back to scalar loops for operations the ISA
//!   description does not provide (that fallback is what makes the
//!   compiler retargetable).
//!
//! Conventions of the generated code: column-major descriptors from
//! `matic_rt.h`, scratch-pool allocation (no frees), user functions are
//! `void mt_<name>(inputs..., outputs...)` with outputs as pointers.
//!
//! The emitter is split by concern. This module holds the public API,
//! `Repr` and the per-function emitter core: declarations, parameter
//! binding, statements and control flow. Its private submodules hold the
//! rest:
//!
//! * `expr` — operand access and the two C tables every path shares: one
//!   for operators (`binop`, `unop`) and one for the registry's builtins
//!   (`builtin_c`);
//! * `array` — allocation, element-wise operations, matmul, transpose,
//!   ranges, literals, indexed loads and stores;
//! * `builtin` — builtins, reductions, calls and effects;
//! * `vector` — vector-op intrinsics and their scalar fallback.

mod array;
mod builtin;
mod expr;
mod vector;

use crate::runtime;
use expr::unop;
use matic_frontend::ast::BinOp;
use matic_frontend::span::Span;
use matic_isa::IsaSpec;
use matic_mir::{MirFunction, MirProgram, Operand, Rvalue, Stmt, VarId, VecRef, VectorOp};
use matic_sema::{Class, Ty};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Codegen failure: an unsupported construct with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// What could not be compiled.
    pub message: String,
    /// Where it came from.
    pub span: Span,
}

impl CodegenError {
    pub(crate) fn new(message: impl Into<String>, span: Span) -> Self {
        CodegenError {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {} at {}", self.message, self.span)
    }
}

impl std::error::Error for CodegenError {}

/// Backend configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Map vector operations to target intrinsics (`false` forces scalar
    /// expansion even on capable targets).
    pub use_intrinsics: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            use_intrinsics: true,
        }
    }
}

/// A generated C module.
#[derive(Debug, Clone)]
pub struct CModule {
    /// The `.c` translation unit (includes both runtime headers).
    pub source: String,
    /// Name of the target the module was generated for.
    pub target: String,
    /// Contents of `matic_rt.h`.
    pub rt_header: String,
    /// Contents of `matic_intrinsics.h`.
    pub intrinsics_header: String,
    /// C names of the emitted functions, in MIR order.
    pub functions: Vec<String>,
}

/// How a MIR register is realized in C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repr {
    RealScalar,
    CxScalar,
    RealArr,
    CxArr,
}

impl Repr {
    pub(crate) fn is_scalar(self) -> bool {
        matches!(self, Repr::RealScalar | Repr::CxScalar)
    }
    pub(crate) fn is_cx(self) -> bool {
        matches!(self, Repr::CxScalar | Repr::CxArr)
    }
    fn c_type(self) -> &'static str {
        match self {
            Repr::RealScalar => "double",
            Repr::CxScalar => "matic_cx",
            Repr::RealArr => "matic_arr",
            Repr::CxArr => "matic_carr",
        }
    }
    /// The runtime allocator for a descriptor of this element type.
    fn alloc_fn(self) -> &'static str {
        if self.is_cx() {
            "matic_carr_alloc"
        } else {
            "matic_arr_alloc"
        }
    }
    /// The runtime deep copy for a descriptor of this element type.
    fn clone_fn(self) -> &'static str {
        if self.is_cx() {
            "matic_carr_clone"
        } else {
            "matic_arr_clone"
        }
    }
}

pub(crate) fn repr_of(ty: Ty, span: Span) -> Result<Repr, CodegenError> {
    let cx = match ty.class {
        Class::Complex => true,
        Class::Double | Class::Logical | Class::Char => false,
        Class::Unknown => {
            return Err(CodegenError::new(
                "cannot compile value of statically unknown class",
                span,
            ))
        }
    };
    Ok(match (ty.shape.is_scalar(), cx) {
        (true, false) => Repr::RealScalar,
        (true, true) => Repr::CxScalar,
        (false, false) => Repr::RealArr,
        (false, true) => Repr::CxArr,
    })
}

/// The C backend.
#[derive(Debug, Clone)]
pub struct CBackend {
    spec: IsaSpec,
    options: CodegenOptions,
}

impl CBackend {
    /// Creates a backend for `spec`.
    pub fn new(spec: IsaSpec, options: CodegenOptions) -> CBackend {
        CBackend { spec, options }
    }

    /// The target specification.
    pub fn spec(&self) -> &IsaSpec {
        &self.spec
    }

    /// Generates a C module for the whole MIR program.
    ///
    /// # Errors
    ///
    /// Returns the first unsupported construct encountered.
    pub fn generate(&self, mir: &MirProgram) -> Result<CModule, CodegenError> {
        let mut source = String::new();
        source.push_str(&format!(
            "/* generated by matic for target `{}` */\n#include \"matic_rt.h\"\n#include \"matic_intrinsics.h\"\n\n",
            self.spec.name
        ));
        // Forward declarations.
        let mut names = Vec::new();
        for f in &mir.functions {
            let sig = self.signature(f)?;
            source.push_str(&sig);
            source.push_str(";\n");
            names.push(format!("mt_{}", f.name));
        }
        source.push('\n');
        for f in &mir.functions {
            let mut em = FnEmitter::new(f, &self.spec, self.options);
            source.push_str(&em.emit(&self.signature(f)?)?);
            source.push('\n');
        }
        Ok(CModule {
            source,
            target: self.spec.name.clone(),
            rt_header: runtime::RT_HEADER.to_string(),
            intrinsics_header: runtime::intrinsics_header(&self.spec),
            functions: names,
        })
    }

    fn signature(&self, f: &MirFunction) -> Result<String, CodegenError> {
        let mut parts = Vec::new();
        for &p in &f.params {
            let r = repr_of(f.var_ty(p), Span::dummy()).map_err(|e| {
                CodegenError::new(
                    format!("parameter `{}`: {}", f.var(p).name, e.message),
                    e.span,
                )
            })?;
            let name = c_name(f, p);
            parts.push(match r {
                Repr::RealScalar => format!("double {name}_in"),
                Repr::CxScalar => format!("matic_cx {name}_in"),
                Repr::RealArr => format!("const matic_arr *{name}_in"),
                Repr::CxArr => format!("const matic_carr *{name}_in"),
            });
        }
        for &o in &f.outputs {
            let r = repr_of(f.var_ty(o), Span::dummy()).map_err(|e| {
                CodegenError::new(format!("output `{}`: {}", f.var(o).name, e.message), e.span)
            })?;
            parts.push(format!("{} *out_{}", r.c_type(), c_name(f, o)));
        }
        if parts.is_empty() {
            parts.push("void".to_string());
        }
        Ok(format!("void mt_{}({})", f.name, parts.join(", ")))
    }
}

pub(crate) fn c_name(f: &MirFunction, v: VarId) -> String {
    let raw = &f.var(v).name;
    let safe: String = raw
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("v{}_{}", v.0, safe)
}

/// Formats an f64 as a C literal that round-trips exactly.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        return "INFINITY".to_string();
    }
    if v == f64::NEG_INFINITY {
        return "-INFINITY".to_string();
    }
    if v.is_nan() {
        return "NAN".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        // {:?} prints the shortest representation that round-trips.
        format!("{v:?}")
    }
}

struct FnEmitter<'a> {
    f: &'a MirFunction,
    spec: &'a IsaSpec,
    options: CodegenOptions,
    out: String,
    indent: usize,
    /// Registers defined by `StrLit` — inlined at use sites.
    strings: HashMap<VarId, String>,
    /// Fresh-name counter for block-local temporaries.
    tmp: u32,
}

impl<'a> FnEmitter<'a> {
    fn new(f: &'a MirFunction, spec: &'a IsaSpec, options: CodegenOptions) -> Self {
        FnEmitter {
            f,
            spec,
            options,
            out: String::new(),
            indent: 1,
            strings: HashMap::new(),
            tmp: 0,
        }
    }

    fn repr(&self, v: VarId) -> Result<Repr, CodegenError> {
        repr_of(self.f.var_ty(v), Span::dummy()).map_err(|e| {
            CodegenError::new(
                format!("variable `{}`: {}", self.f.var(v).name, e.message),
                e.span,
            )
        })
    }

    fn op_repr(&self, op: Operand) -> Result<Repr, CodegenError> {
        match op {
            Operand::Const(_) => Ok(Repr::RealScalar),
            Operand::ConstC(..) => Ok(Repr::CxScalar),
            Operand::Var(v) => self.repr(v),
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Emits `text` and indents what follows.
    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    /// Dedents and emits `text`.
    fn close(&mut self, text: &str) {
        self.indent -= 1;
        self.line(text);
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.tmp += 1;
        format!("mi_{stem}{}", self.tmp)
    }

    fn emit(&mut self, signature: &str) -> Result<String, CodegenError> {
        // Pre-scan: strings, and which array params are stored into.
        let mut stored: HashSet<VarId> = HashSet::new();
        let mut strings: HashMap<VarId, String> = HashMap::new();
        matic_mir::walk_stmts(&self.f.body, &mut |s| match s {
            Stmt::Def {
                dst,
                rv: Rvalue::StrLit(text),
                ..
            } => {
                strings.insert(*dst, text.clone());
            }
            // Loop variables and reduction accumulators are scalars.
            Stmt::For { .. }
            | Stmt::VectorOp(VectorOp {
                dst: VecRef::Splat(_),
                ..
            }) => {}
            _ => s.visit_regs(&mut |v, access| {
                if access.writes() {
                    stored.insert(v);
                }
            }),
        });
        self.strings = strings;

        let mut body = String::new();
        body.push_str(signature);
        body.push_str(" {\n");

        // Declarations.
        for i in 0..self.f.vars.len() {
            let v = VarId(i as u32);
            if self.strings.contains_key(&v) {
                continue;
            }
            let Ok(r) = self.repr(v) else {
                // Unknown-class registers are only an error if actually
                // used; defer to the use site.
                continue;
            };
            let name = c_name(self.f, v);
            let init = match r {
                Repr::RealScalar => " = 0.0",
                Repr::CxScalar => " = {0.0, 0.0}",
                Repr::RealArr | Repr::CxArr => " = {0, 0, 0}",
            };
            body.push_str(&format!("    {} {}{};\n", r.c_type(), name, init));
        }

        // Parameter binding: copy scalars, clone arrays that get written.
        for &p in &self.f.params {
            let r = self.repr(p)?;
            let name = c_name(self.f, p);
            if r.is_scalar() {
                body.push_str(&format!("    {name} = {name}_in;\n"));
            } else if stored.contains(&p) {
                body.push_str(&format!("    {name} = {}({name}_in);\n", r.clone_fn()));
            } else {
                body.push_str(&format!("    {name} = *{name}_in;\n"));
            }
        }
        body.push('\n');

        let f = self.f;
        self.emit_stmts(&f.body)?;
        body.push_str(&self.out);

        // Epilogue: write outputs.
        body.push_str("matic_done:\n");
        if self.f.outputs.is_empty() {
            body.push_str("    return;\n");
        }
        for &o in &self.f.outputs {
            let name = c_name(self.f, o);
            body.push_str(&format!("    *out_{name} = {name};\n"));
        }
        body.push_str("}\n");
        Ok(body)
    }

    fn emit_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CodegenError> {
        for s in stmts {
            self.emit_stmt(s)?;
        }
        Ok(())
    }

    fn emit_stmt(&mut self, stmt: &Stmt) -> Result<(), CodegenError> {
        match stmt {
            Stmt::Def { dst, rv, span } => self.emit_def(*dst, rv, *span),
            Stmt::Store {
                array,
                indices,
                value,
                span,
            } => self.emit_store(*array, indices, *value, *span),
            Stmt::CallMulti {
                dsts,
                func,
                args,
                user,
                span,
            } => self.emit_call_multi(dsts, func, args, *user, *span),
            Stmt::Effect { name, args, span } => self.emit_effect(name, args, *span),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.truthy(*cond, Span::dummy())?;
                self.open(&format!("if ({c}) {{"));
                self.emit_stmts(then_body)?;
                if !else_body.is_empty() {
                    self.close("} else {");
                    self.indent += 1;
                    self.emit_stmts(else_body)?;
                }
                self.close("}");
                Ok(())
            }
            Stmt::For {
                var,
                start,
                step,
                stop,
                body,
                ..
            } => {
                let vname = c_name(self.f, *var);
                let t = self.open_trip_count(*start, *step, *stop, "k", false, Span::dummy())?;
                let k = &t.counter;
                self.line(&format!("int {k};"));
                self.open(&format!("for ({k} = 0; {k} < {}; ++{k}) {{", t.n));
                self.line(&format!(
                    "{vname} = {} + {} * (double){k};",
                    t.start, t.step
                ));
                self.emit_stmts(body)?;
                self.close("}");
                self.close("}");
                Ok(())
            }
            Stmt::While {
                cond_defs,
                cond,
                body,
                ..
            } => {
                self.open("for (;;) {");
                self.emit_stmts(cond_defs)?;
                let c = self.truthy(*cond, Span::dummy())?;
                self.line(&format!("if (!{c}) break;"));
                self.emit_stmts(body)?;
                self.close("}");
                Ok(())
            }
            Stmt::Break(_) => {
                self.line("break;");
                Ok(())
            }
            Stmt::Continue(_) => {
                self.line("continue;");
                Ok(())
            }
            Stmt::Return(_) => {
                self.line("goto matic_done;");
                Ok(())
            }
            Stmt::VectorOp(vop) => self.emit_vector_op(vop),
        }
    }

    fn emit_def(&mut self, dst: VarId, rv: &Rvalue, span: Span) -> Result<(), CodegenError> {
        if let Rvalue::StrLit(_) = rv {
            return Ok(()); // inlined at use sites
        }
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        match rv {
            Rvalue::Use(op) => self.emit_assign(dst, *op, span),
            Rvalue::Unary { op, a } if drepr.is_scalar() => {
                let e = self.scalar(*a, drepr.is_cx(), span)?;
                let expr = unop(*op, &e, drepr.is_cx(), span)?;
                self.line(&format!("{dname} = {expr};"));
                Ok(())
            }
            Rvalue::Unary { op, a } => self.emit_elementwise_unary(dst, *op, *a, span),
            Rvalue::Binary { op, a, b } => {
                let (ra, rb) = (self.op_repr(*a)?, self.op_repr(*b)?);
                if drepr.is_scalar() && ra.is_scalar() && rb.is_scalar() {
                    let expr = self.binop_at(*op, *a, *b, "0", drepr.is_cx(), span)?;
                    self.line(&format!("{dname} = {expr};"));
                    Ok(())
                } else if matches!(op, BinOp::MatMul) && !ra.is_scalar() && !rb.is_scalar() {
                    self.emit_matmul(dst, *a, *b, span)
                } else {
                    let want_cx = drepr.is_cx();
                    self.emit_zip(dst, *a, *b, span, |em, i| {
                        em.binop_at(*op, *a, *b, i, want_cx, span)
                    })
                }
            }
            Rvalue::Transpose { a, conjugate } => self.emit_transpose(dst, *a, *conjugate, span),
            Rvalue::Index { array, indices } => self.emit_index_load(dst, *array, indices, span),
            Rvalue::Range { start, step, stop } => self.emit_range(dst, *start, *step, *stop, span),
            Rvalue::Alloc { kind, rows, cols } => self.emit_alloc(dst, *kind, *rows, *cols, span),
            Rvalue::Builtin { name, args } => self.emit_builtin(dst, name, args, span),
            Rvalue::Call { func, args } => {
                let call = self.user_call_expr(func, args, &[Some(dst)], span)?;
                self.line(&call);
                Ok(())
            }
            Rvalue::MatrixLit { rows } => self.emit_matrix_lit(dst, rows, span),
            Rvalue::StrLit(_) => unreachable!("handled above"),
        }
    }

    /// `dst = op` with representation coercions (value-semantics copy for
    /// arrays).
    fn emit_assign(&mut self, dst: VarId, op: Operand, span: Span) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let srepr = self.op_repr(op)?;
        match (drepr, srepr) {
            (d, s) if d.is_scalar() && s.is_scalar() => {
                let e = self.scalar(op, d.is_cx(), span)?;
                self.line(&format!("{dname} = {e};"));
            }
            (Repr::RealArr, Repr::RealArr) | (Repr::CxArr, Repr::CxArr) => {
                let v = self.array_var(op, span)?;
                let clone = drepr.clone_fn();
                self.line(&format!("{dname} = {clone}(&{});", c_name(self.f, v)));
            }
            // Scalar stored into an array-represented register: 1x1.
            (d, s) if s.is_scalar() => {
                let e = self.scalar(op, d.is_cx(), span)?;
                self.alloc(&dname, d, "1", "1");
                self.line(&format!("{dname}.data[0] = {e};"));
            }
            // Real array into complex array: widen.
            (Repr::CxArr, Repr::RealArr) => {
                let v = self.array_var(op, span)?;
                let sname = c_name(self.f, v);
                let i = self.fresh("i");
                self.alloc_like(&dname, drepr, &sname);
                self.fill(
                    &dname,
                    &i,
                    &format!("{sname}.rows * {sname}.cols"),
                    &format!("cx_make({sname}.data[{i}], 0.0)"),
                );
            }
            _ => {
                return Err(CodegenError::new(
                    format!("unsupported assignment {srepr:?} -> {drepr:?}"),
                    span,
                ))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_sema::{analyze, Dim, Shape};

    fn compile(src: &str, entry: &str, args: &[Ty], vectorize: bool) -> CModule {
        let (p, diags) = matic_frontend::parse(src);
        assert!(!diags.has_errors());
        let analysis = analyze(&p, entry, args);
        assert!(!analysis.diags.has_errors());
        let (mut mir, diags) = matic_mir::lower_program(&p, &analysis);
        assert!(!diags.has_errors());
        matic_mir::optimize_program(&mut mir);
        if vectorize {
            matic_vectorize::vectorize_program(&mut mir);
        }
        let backend = CBackend::new(IsaSpec::dsp16(), CodegenOptions::default());
        backend.generate(&mir).expect("codegen ok")
    }

    fn vec_ty(n: usize) -> Ty {
        Ty::new(Class::Double, Shape::row(Dim::Known(n)))
    }

    #[test]
    fn scalar_function_compiles() {
        let m = compile(
            "function y = f(x)\ny = 2 * x + 1;\nend",
            "f",
            &[Ty::double_scalar()],
            false,
        );
        assert!(m.source.contains("void mt_f(double"));
        assert!(m.source.contains("double *out_"));
    }

    #[test]
    fn array_parameter_signature() {
        let m = compile(
            "function y = f(x)\ny = sum(x);\nend",
            "f",
            &[vec_ty(8)],
            false,
        );
        assert!(m.source.contains("const matic_arr *"));
    }

    #[test]
    fn vectorized_code_uses_intrinsics() {
        let m = compile(
            "function s = f(a, b)\ns = sum(a .* b);\nend",
            "f",
            &[vec_ty(64), vec_ty(64)],
            true,
        );
        assert!(
            m.source.contains("__asip_vmac"),
            "expected vmac intrinsic:\n{}",
            m.source
        );
    }

    #[test]
    fn baseline_code_has_no_intrinsics() {
        let m = compile(
            "function s = f(a, b)\ns = sum(a .* b);\nend",
            "f",
            &[vec_ty(64), vec_ty(64)],
            false,
        );
        assert!(!m.source.contains("__asip_v"));
    }

    #[test]
    fn complex_lanes_use_complex_intrinsics() {
        let c = Ty::new(Class::Complex, Shape::row(Dim::Known(32)));
        let m = compile("function y = f(a, b)\ny = a .* b;\nend", "f", &[c, c], true);
        assert!(
            m.source.contains("__asip_vcmul"),
            "expected vcmul:\n{}",
            m.source
        );
    }

    #[test]
    fn loops_and_conditionals_emit() {
        let m = compile(
            "function s = f(x, n)\ns = 0;\nif n > 1\n for i = 1:n\n  s = s + x(i)^2;\n end\nend\nend",
            "f",
            &[vec_ty(16), Ty::double_scalar()],
            false,
        );
        assert!(m.source.contains("for ("));
        assert!(m.source.contains("if ("));
        assert!(m.source.contains("pow("));
    }

    #[test]
    fn unknown_class_variable_errors() {
        let (p, _) = matic_frontend::parse("function y = f(x)\ny = x;\nend");
        let analysis = analyze(&p, "f", &[Ty::unknown()]);
        let (mir, _) = matic_mir::lower_program(&p, &analysis);
        let backend = CBackend::new(IsaSpec::dsp16(), CodegenOptions::default());
        let err = backend.generate(&mir).unwrap_err();
        assert!(err.message.contains("unknown class"));
    }

    #[test]
    fn use_intrinsics_false_forces_scalar_expansion() {
        let (p, _) = matic_frontend::parse("function s = f(a, b)\ns = sum(a .* b);\nend");
        let analysis = analyze(&p, "f", &[vec_ty(8), vec_ty(8)]);
        let (mut mir, _) = matic_mir::lower_program(&p, &analysis);
        matic_vectorize::vectorize_program(&mut mir);
        let backend = CBackend::new(
            IsaSpec::dsp16(),
            CodegenOptions {
                use_intrinsics: false,
            },
        );
        let m = backend.generate(&mir).expect("codegen ok");
        assert!(!m.source.contains("__asip_"));
    }

    #[test]
    fn fmt_f64_literals() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::INFINITY), "INFINITY");
        assert_eq!(fmt_f64(-3.0), "-3.0");
    }
}
