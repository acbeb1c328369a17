//! Builtins, reductions, user calls and effects.

use super::expr::elem_fn;
use super::{c_name, CodegenError, FnEmitter, Repr};
use matic_frontend::span::Span;
use matic_mir::{Operand, VarId};

/// The slices a reduction folds, opened by [`FnEmitter::open_slices`].
struct Slices {
    /// Pointer to the slice's first element.
    src: String,
    /// Elements per slice.
    n: String,
    /// C lvalue of each destination for this slice.
    outs: Vec<String>,
    /// Whether a per-column loop is open.
    columns: bool,
}

/// Builtins that reduce an array along MATLAB's default dimension.
const REDUCTIONS: &[&str] = &[
    "sum", "prod", "mean", "min", "max", "dot", "norm", "any", "all",
];

impl FnEmitter<'_> {
    pub(super) fn emit_builtin(
        &mut self,
        dst: VarId,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let arg_is_scalar = |k: usize| -> Result<bool, CodegenError> {
            Ok(self
                .op_repr(*args.get(k).unwrap_or(&Operand::Const(0.0)))?
                .is_scalar())
        };

        let constant = match name {
            "pi" => Some("3.14159265358979311599796346854"),
            "eps" => Some("2.220446049250313e-16"),
            "Inf" | "inf" => Some("INFINITY"),
            "NaN" | "nan" => Some("NAN"),
            "i" | "j" => Some("cx_make(0.0, 1.0)"),
            _ => None,
        };
        if let Some(c) = constant {
            self.line(&format!("{dname} = {c};"));
            return Ok(());
        }
        if matches!(name, "numel" | "length" | "size" | "isempty") {
            return self.emit_shape_query(dst, name, args, span);
        }
        // Scalar math on scalar operands.
        if drepr.is_scalar()
            && args
                .iter()
                .all(|a| self.op_repr(*a).is_ok_and(Repr::is_scalar))
        {
            return self.emit_scalar_builtin(dst, name, args, span);
        }
        // Two-argument min/max and flips share names or arity with the
        // reduction and map routes below, so they dispatch first.
        match (name, args) {
            ("min" | "max", &[a, b]) => {
                if drepr.is_cx() {
                    return Err(CodegenError::new(
                        format!("two-argument `{name}` of complex arrays is not supported by the C backend"),
                        span,
                    ));
                }
                let f = if name == "min" { "fmin" } else { "fmax" };
                return self.emit_zip(dst, a, b, span, |em, i| {
                    let ea = em.elem(a, i, false, span)?;
                    Ok(format!("{f}({ea}, {})", em.elem(b, i, false, span)?))
                });
            }
            ("fliplr" | "flipud", &[a]) => return self.emit_flip(dst, name == "fliplr", a, span),
            _ => {}
        }
        if REDUCTIONS.contains(&name) && !arg_is_scalar(0)? {
            return self.emit_reduction_builtin(dst, name, args, span);
        }
        // Element-wise maps over arrays.
        if args.len() == 1 && !arg_is_scalar(0)? {
            return self.emit_map_builtin(dst, name, args[0], span);
        }

        // linspace / complex with scalar args producing arrays.
        match name {
            "linspace" => {
                let a = self.scalar(args[0], false, span)?;
                let b = self.scalar(args[1], false, span)?;
                let n = if args.len() > 2 {
                    format!("(int)({})", self.scalar(args[2], false, span)?)
                } else {
                    "100".to_string()
                };
                let i = self.fresh("i");
                let nn = self.fresh("n");
                self.open("{");
                self.line(&format!("int {nn} = {n};"));
                self.alloc(&dname, drepr, "1", &nn);
                self.fill(
                    &dname,
                    &i,
                    &nn,
                    &format!("({nn} == 1) ? ({b}) : (({a}) + (({b}) - ({a})) * (double){i} / (double)({nn} - 1))"),
                );
                self.close("}");
                Ok(())
            }
            "complex" => {
                // complex(re, im) with at least one array argument.
                let re = args[0];
                let im = args[1];
                let like = re.as_var().or_else(|| im.as_var()).ok_or_else(|| {
                    CodegenError::new("complex() needs a variable argument", span)
                })?;
                let ln = c_name(self.f, like);
                self.alloc_like(&dname, drepr, &ln);
                let i = self.fresh("i");
                let re_e = self.elem(re, &i, false, span)?;
                let im_e = self.elem(im, &i, false, span)?;
                self.fill(
                    &dname,
                    &i,
                    &format!("{ln}.rows * {ln}.cols"),
                    &format!("cx_make({re_e}, {im_e})"),
                );
                Ok(())
            }
            _ => Err(CodegenError::new(
                format!("builtin `{name}` is not supported by the C backend"),
                span,
            )),
        }
    }

    /// `numel`, `length`, `size(x)`, `size(x, d)` and `isempty`.
    fn emit_shape_query(
        &mut self,
        dst: VarId,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<(), CodegenError> {
        let array = match args[0].as_var() {
            Some(v) if !self.repr(v)?.is_scalar() => Some(c_name(self.f, v)),
            _ => None,
        };
        let dname = c_name(self.f, dst);
        if name == "size" && args.len() == 1 {
            // The 1x2 row `[rows cols]`; a scalar is 1x1.
            let (rows, cols) = match &array {
                Some(vn) => (format!("(double){vn}.rows"), format!("(double){vn}.cols")),
                None => ("1.0".to_string(), "1.0".to_string()),
            };
            self.alloc(&dname, self.repr(dst)?, "1", "2");
            self.line(&format!("{dname}.data[0] = {rows};"));
            self.line(&format!("{dname}.data[1] = {cols};"));
            return Ok(());
        }
        let expr = match (name, array) {
            ("isempty", None) => "0.0".to_string(),
            (_, None) => "1.0".to_string(),
            ("numel", Some(vn)) => format!("(double)({vn}.rows * {vn}.cols)"),
            ("length", Some(vn)) => format!(
                "(double)(({vn}.rows * {vn}.cols == 0) ? 0 : ({vn}.rows > {vn}.cols ? {vn}.rows : {vn}.cols))"
            ),
            ("isempty", Some(vn)) => format!("(({vn}.rows * {vn}.cols == 0) ? 1.0 : 0.0)"),
            (_, Some(vn)) => {
                let d0 = self.scalar(args[1], false, span)?;
                format!(
                    "(double)(((int)({d0}) == 1) ? {vn}.rows : (((int)({d0}) == 2) ? {vn}.cols : 1))"
                )
            }
        };
        self.line(&format!("{dname} = {expr};"));
        Ok(())
    }

    fn emit_scalar_builtin(
        &mut self,
        dst: VarId,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let d_cx = self.repr(dst)?.is_cx();
        let a0_cx = match args.first() {
            Some(a) => self.op_repr(*a)?.is_cx(),
            None => false,
        };
        if let [a] = args {
            let e = self.scalar(*a, a0_cx, span)?;
            if let Some(expr) = elem_fn(name, &e, false, a0_cx, d_cx) {
                self.line(&format!("{dname} = {expr};"));
                return Ok(());
            }
        }
        let arg = |k: usize| self.scalar(args[k], false, span);
        let expr = match name {
            "atan2" => format!("atan2({}, {})", arg(0)?, arg(1)?),
            "mod" | "rem" => format!("matic_{name}({}, {})", arg(0)?, arg(1)?),
            "complex" => format!("cx_make({}, {})", arg(0)?, arg(1)?),
            "min" | "max" if args.len() >= 2 => {
                let f = if name == "min" { "fmin" } else { "fmax" };
                format!("{f}({}, {})", arg(0)?, arg(1)?)
            }
            "norm" => format!("fabs({})", arg(0)?),
            // Reduction of a scalar is the identity.
            "min" | "max" | "sum" | "prod" | "mean" => self.scalar(args[0], d_cx, span)?,
            "isreal" => (if a0_cx { "0.0" } else { "1.0" }).to_string(),
            "isscalar" => "1.0".to_string(),
            _ => {
                return Err(CodegenError::new(
                    format!("scalar builtin `{name}` is not supported by the C backend"),
                    span,
                ))
            }
        };
        self.line(&format!("{dname} = {expr};"));
        Ok(())
    }

    /// `fliplr`/`flipud` of an array.
    fn emit_flip(
        &mut self,
        dst: VarId,
        lr: bool,
        a: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let an = c_name(self.f, self.array_var(a, span)?);
        self.alloc_like(&dname, self.repr(dst)?, &an);
        let (i, j) = (self.fresh("i"), self.fresh("j"));
        let src_idx = if lr {
            format!("({an}.cols - 1 - {j}) * {an}.rows + {i}")
        } else {
            format!("{j} * {an}.rows + ({an}.rows - 1 - {i})")
        };
        self.loop2_line(
            &i,
            &j,
            &format!("{an}.rows"),
            &format!("{an}.cols"),
            &format!("{dname}.data[{j} * {dname}.rows + {i}] = {an}.data[{src_idx}];"),
        );
        Ok(())
    }

    /// Opens the slices MATLAB reduces `av` along. When every destination
    /// is a scalar register that is the whole array and nothing is
    /// emitted; otherwise a loop over columns opens (a runtime vector or
    /// empty array is one slice) and each destination becomes a row with
    /// one element per column. `empty_slices` is the slice count of an
    /// empty array: 1 for folds with an identity, 0 for `min`/`max`.
    /// [`Self::close_slices`] closes what this opened.
    fn open_slices(
        &mut self,
        av: VarId,
        dsts: &[VarId],
        empty_slices: &str,
        span: Span,
    ) -> Result<Slices, CodegenError> {
        let an = c_name(self.f, av);
        let reprs = dsts
            .iter()
            .map(|d| self.repr(*d))
            .collect::<Result<Vec<_>, _>>()?;
        let names: Vec<String> = dsts.iter().map(|d| c_name(self.f, *d)).collect();
        if reprs.iter().all(|r| r.is_scalar()) {
            return Ok(Slices {
                src: format!("{an}.data"),
                n: format!("{an}.rows * {an}.cols"),
                outs: names,
                columns: false,
            });
        }
        if reprs.iter().any(|r| r.is_scalar()) {
            return Err(CodegenError::new(
                "reduction with both scalar and array destinations",
                span,
            ));
        }
        let (c, len, cnt) = (self.fresh("c"), self.fresh("len"), self.fresh("cnt"));
        self.open("{");
        self.line(&format!(
            "int {cnt} = ({an}.rows * {an}.cols == 0) ? {empty_slices} : ({an}.rows == 1 || {an}.cols == 1) ? 1 : {an}.cols;"
        ));
        self.line(&format!(
            "int {len} = ({cnt} == 1) ? {an}.rows * {an}.cols : {an}.rows;"
        ));
        for (name, r) in names.iter().zip(reprs) {
            self.alloc(name, r, "1", &cnt);
        }
        self.line(&format!("int {c};"));
        self.open(&format!("for ({c} = 0; {c} < {cnt}; ++{c}) {{"));
        Ok(Slices {
            src: format!("({an}.data + {c} * {len})"),
            outs: names.iter().map(|d| format!("{d}.data[{c}]")).collect(),
            n: len,
            columns: true,
        })
    }

    fn close_slices(&mut self, s: &Slices) {
        if s.columns {
            self.close("}");
            self.close("}");
        }
    }

    fn emit_reduction_builtin(
        &mut self,
        dst: VarId,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<(), CodegenError> {
        let d_cx = self.repr(dst)?.is_cx();
        let av = args[0]
            .as_var()
            .ok_or_else(|| CodegenError::new("reduction of constant", span))?;
        let a_cx = self.repr(av)?.is_cx();
        let i = self.fresh("i");
        if matches!(name, "dot" | "norm") && !self.repr(dst)?.is_scalar() {
            return Err(CodegenError::new(
                format!("column-wise `{name}` is not supported by the C backend"),
                span,
            ));
        }
        let minmax = matches!(name, "min" | "max");
        let s = self.open_slices(av, &[dst], if minmax { "0" } else { "1" }, span)?;
        let (src, n, out) = (&s.src, &s.n, &s.outs[0]);
        let x = format!("{src}[{i}]");
        let (ty, zero) = if a_cx {
            ("matic_cx", "cx_make(0.0, 0.0)")
        } else {
            ("double", "0.0")
        };
        // `{ ty acc = init; int i; for (i = from; i < n; ++i) update`: the
        // open head of a one-line fold.
        let head = |ty: &str, acc: &str, init: &str, from: &str, update: &str| {
            format!(
                "{{ {ty} {acc} = {init}; int {i}; for ({i} = {from}; {i} < {n}; ++{i}) {update}"
            )
        };
        match name {
            "sum" | "mean" => {
                let acc = self.fresh("acc");
                let result = if a_cx {
                    let update = format!("{acc} = cx_add({acc}, {x});");
                    self.line(&head(ty, &acc, zero, "0", &update));
                    if name == "mean" {
                        format!("cx_scale({acc}, 1.0 / (double)({n}))")
                    } else {
                        acc
                    }
                } else {
                    self.line(&head(ty, &acc, zero, "0", &format!("{acc} += {x};")));
                    let e = if name == "mean" {
                        format!("{acc} / (double)({n})")
                    } else {
                        acc
                    };
                    if d_cx {
                        format!("cx_make({e}, 0.0)")
                    } else {
                        e
                    }
                };
                self.line(&format!("  {out} = {result}; }}"));
            }
            "prod" => {
                let acc = self.fresh("acc");
                let (one, update) = if a_cx {
                    ("cx_make(1.0, 0.0)", format!("{acc} = cx_mul({acc}, {x});"))
                } else {
                    ("1.0", format!("{acc} *= {x};"))
                };
                let h = head(ty, &acc, one, "0", &update);
                self.line(&format!("{h} {out} = {acc}; }}"));
            }
            "min" | "max" => {
                // Complex values compare by real part, as the interpreter
                // does.
                let cmp = if name == "min" { "<" } else { ">" };
                let re = if a_cx { ".re" } else { "" };
                let update = format!("if ({x}{re} {cmp} mi_best{re}) mi_best = {x};");
                let h = head(ty, "mi_best", &format!("{src}[0]"), "1", &update);
                self.line(&format!("{h} {out} = mi_best; }}"));
            }
            "dot" => {
                let bv = args[1]
                    .as_var()
                    .ok_or_else(|| CodegenError::new("dot of constant", span))?;
                let acc = self.fresh("acc");
                let h = if a_cx || self.repr(bv)?.is_cx() {
                    let ea = self.cast_elem(av, &i, true)?;
                    let eb = self.cast_elem(bv, &i, true)?;
                    let update = format!("{acc} = cx_add({acc}, cx_mul(cx_conj({ea}), {eb}));");
                    head("matic_cx", &acc, "cx_make(0.0, 0.0)", "0", &update)
                } else {
                    let update = format!("{acc} += {x} * {}.data[{i}];", c_name(self.f, bv));
                    head("double", &acc, "0.0", "0", &update)
                };
                self.line(&format!("{h} {out} = {acc}; }}"));
            }
            "norm" => {
                let acc = self.fresh("acc");
                let sq = if a_cx {
                    format!("{x}.re * {x}.re + {x}.im * {x}.im")
                } else {
                    format!("{x} * {x}")
                };
                let h = head("double", &acc, "0.0", "0", &format!("{acc} += {sq};"));
                self.line(&format!("{h} {out} = sqrt({acc}); }}"));
            }
            "any" | "all" => {
                let probe = if a_cx {
                    format!("({x}.re != 0.0 || {x}.im != 0.0)")
                } else {
                    format!("({x} != 0.0)")
                };
                let (init, upd, cond) = if name == "any" {
                    ("0.0", "1.0", probe)
                } else {
                    ("1.0", "0.0", format!("!{probe}"))
                };
                let update = format!("if ({cond}) {{ mi_r = {upd}; break; }}");
                let h = head("double", "mi_r", init, "0", &update);
                self.line(&format!("{h} {out} = mi_r; }}"));
            }
            _ => {
                return Err(CodegenError::new(
                    format!("reduction `{name}` unsupported"),
                    span,
                ))
            }
        }
        self.close_slices(&s);
        Ok(())
    }

    fn emit_map_builtin(
        &mut self,
        dst: VarId,
        name: &str,
        arg: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let av = arg
            .as_var()
            .ok_or_else(|| CodegenError::new("map of constant", span))?;
        let an = c_name(self.f, av);
        let a_cx = self.repr(av)?.is_cx();
        let i = self.fresh("i");
        let n = format!("{an}.rows * {an}.cols");
        if name == "cumsum" && !a_cx && !drepr.is_cx() {
            // A running sum carries state across elements.
            self.alloc_like(&dname, drepr, &an);
            let acc = self.fresh("acc");
            self.line(&format!(
                "{{ double {acc} = 0.0; int {i}; for ({i} = 0; {i} < {n}; ++{i}) {{ {acc} += {an}.data[{i}]; {dname}.data[{i}] = {acc}; }} }}"
            ));
            return Ok(());
        }
        let Some(expr) = elem_fn(name, &format!("{an}.data[{i}]"), true, a_cx, drepr.is_cx())
        else {
            let kind = |cx: bool| if cx { "complex" } else { "real" };
            return Err(CodegenError::new(
                format!(
                    "element-wise builtin `{name}` ({}→{}) unsupported",
                    kind(a_cx),
                    kind(drepr.is_cx())
                ),
                span,
            ));
        };
        self.alloc_like(&dname, drepr, &an);
        self.fill(&dname, &i, &n, &expr);
        Ok(())
    }

    // ---- calls ----------------------------------------------------------

    pub(super) fn user_call_expr(
        &mut self,
        func: &str,
        args: &[Operand],
        dsts: &[Option<VarId>],
        span: Span,
    ) -> Result<String, CodegenError> {
        let mut parts = Vec::new();
        for a in args {
            let r = self.op_repr(*a)?;
            parts.push(if r.is_scalar() {
                self.scalar(*a, r.is_cx(), span)?
            } else {
                format!("&{}", c_name(self.f, self.array_var(*a, span)?))
            });
        }
        for d in dsts {
            let Some(v) = d else {
                return Err(CodegenError::new(
                    "discarded outputs of user calls are not supported",
                    span,
                ));
            };
            parts.push(format!("&{}", c_name(self.f, *v)));
        }
        Ok(format!("mt_{func}({});", parts.join(", ")))
    }

    pub(super) fn emit_call_multi(
        &mut self,
        dsts: &[Option<VarId>],
        func: &str,
        args: &[Operand],
        user: bool,
        span: Span,
    ) -> Result<(), CodegenError> {
        if user {
            let call = self.user_call_expr(func, args, dsts, span)?;
            self.line(&call);
            return Ok(());
        }
        match func {
            "size" => {
                let av = args[0]
                    .as_var()
                    .ok_or_else(|| CodegenError::new("size of constant", span))?;
                let an = c_name(self.f, av);
                let scalar = self.repr(av)?.is_scalar();
                for (d, dim) in dsts.iter().zip(["rows", "cols"]) {
                    if let Some(d) = d {
                        let n = c_name(self.f, *d);
                        if scalar {
                            self.line(&format!("{n} = 1.0;"));
                        } else {
                            self.line(&format!("{n} = (double){an}.{dim};"));
                        }
                    }
                }
                Ok(())
            }
            "min" | "max" => {
                let av = args[0]
                    .as_var()
                    .ok_or_else(|| CodegenError::new("min/max of constant", span))?;
                let cmp = if func == "min" { "<" } else { ">" };
                let (ty, re) = if self.repr(av)?.is_cx() {
                    ("matic_cx", ".re")
                } else {
                    ("double", "")
                };
                // Which of (value, index) are wanted, in that order.
                let wanted: Vec<(usize, VarId)> = dsts
                    .iter()
                    .take(2)
                    .enumerate()
                    .filter_map(|(k, d)| d.map(|d| (k, d)))
                    .collect();
                let vars: Vec<VarId> = wanted.iter().map(|&(_, d)| d).collect();
                let i = self.fresh("i");
                let s = self.open_slices(av, &vars, "0", span)?;
                let (src, n) = (&s.src, &s.n);
                let best = self.fresh("best");
                let bi = self.fresh("bi");
                self.line(&format!(
                    "{{ {ty} {best} = {src}[0]; int {bi} = 0; int {i}; for ({i} = 1; {i} < {n}; ++{i}) if ({src}[{i}]{re} {cmp} {best}{re}) {{ {best} = {src}[{i}]; {bi} = {i}; }}"
                ));
                for (&(k, _), out) in wanted.iter().zip(&s.outs) {
                    if k == 0 {
                        self.line(&format!("  {out} = {best};"));
                    } else {
                        self.line(&format!("  {out} = (double)({bi} + 1);"));
                    }
                }
                self.line("}");
                self.close_slices(&s);
                Ok(())
            }
            _ => Err(CodegenError::new(
                format!("multi-output builtin `{func}` unsupported"),
                span,
            )),
        }
    }

    pub(super) fn emit_effect(
        &mut self,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<(), CodegenError> {
        match name {
            "rng" => Ok(()), // deterministic runtime has no RNG state
            "disp" => {
                match args.first() {
                    Some(Operand::Var(v)) if self.strings.contains_key(v) => {
                        let text = self.strings[v].clone();
                        self.line(&format!("printf(\"%s\\n\", {});", c_string(&text)));
                    }
                    Some(op) => {
                        let r = self.op_repr(*op)?;
                        if r.is_scalar() {
                            let e = self.scalar(*op, r.is_cx(), span)?;
                            if r.is_cx() {
                                self.line(&format!("printf(\"%g + %gi\\n\", ({e}).re, ({e}).im);"));
                            } else {
                                self.line(&format!("printf(\"%g\\n\", {e});"));
                            }
                        } else {
                            let vn = c_name(self.f, self.array_var(*op, span)?);
                            let i = self.fresh("i");
                            let x = format!("{vn}.data[{i}]");
                            let print = if r.is_cx() {
                                format!("printf(\"%g+%gi \", {x}.re, {x}.im);")
                            } else {
                                format!("printf(\"%g \", {x});")
                            };
                            self.line(&format!(
                                "{{ int {i}; for ({i} = 0; {i} < {vn}.rows * {vn}.cols; ++{i}) {print} printf(\"\\n\"); }}"
                            ));
                        }
                    }
                    None => self.line("printf(\"\\n\");"),
                }
                Ok(())
            }
            "fprintf" | "error" => {
                let fmt = match args.first() {
                    Some(Operand::Var(v)) => self.strings.get(v).cloned(),
                    _ => None,
                };
                let Some(fmt) = fmt else {
                    return Err(CodegenError::new(
                        format!("{name} needs a literal format string"),
                        span,
                    ));
                };
                // MATLAB %d prints integral doubles; C needs %.0f for a
                // double argument. MATLAB also keeps \n/\t escapes in the
                // string until fprintf interprets them.
                let c_fmt = fmt
                    .replace("%d", "%.0f")
                    .replace("%i", "%.0f")
                    .replace("\\n", "\n")
                    .replace("\\t", "\t");
                let mut call_args = vec![c_string(&c_fmt)];
                for a in &args[1..] {
                    if !self.op_repr(*a)?.is_scalar() {
                        return Err(CodegenError::new(
                            "fprintf with array arguments is not supported in compiled code",
                            span,
                        ));
                    }
                    call_args.push(self.scalar(*a, false, span)?);
                }
                if name == "fprintf" {
                    self.line(&format!("printf({});", call_args.join(", ")));
                } else {
                    self.line(&format!("fprintf(stderr, {});", call_args.join(", ")));
                    self.line("exit(2);");
                }
                Ok(())
            }
            other => Err(CodegenError::new(
                format!("effect builtin `{other}` unsupported"),
                span,
            )),
        }
    }
}

/// Escapes a Rust string as a C string literal.
fn c_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\x{:02x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
