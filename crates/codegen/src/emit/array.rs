//! Array emission: allocation, element-wise operations, matmul,
//! transpose, ranges, literals, indexed loads and stores, and the loop
//! shapes they share.

use super::expr::unop;
use super::{c_name, CodegenError, FnEmitter, Repr};
use matic_frontend::ast::UnOp;
use matic_frontend::span::Span;
use matic_mir::{AllocKind, Index, Operand, VarId};

/// `(count_expr, base_expr(k))` pair describing one 2-D subscript: how many
/// positions the subscript selects and, given a loop counter, the C
/// expression for the k-th selected 0-based position.
type SubscriptPlan = (String, Box<dyn Fn(&str) -> String>);

/// The C names of a counted range opened by
/// [`FnEmitter::open_trip_count`].
pub(super) struct Trip {
    /// Trip count.
    pub(super) n: String,
    /// Loop counter, declared by the caller.
    pub(super) counter: String,
    /// First value.
    pub(super) start: String,
    /// Increment.
    pub(super) step: String,
}

impl FnEmitter<'_> {
    /// `dname = alloc(rows, cols);` with the allocator of `r`.
    pub(super) fn alloc(&mut self, dname: &str, r: Repr, rows: &str, cols: &str) {
        self.line(&format!("{dname} = {}({rows}, {cols});", r.alloc_fn()));
    }

    /// `dname = alloc(like.rows, like.cols);`: an array shaped like `like`.
    pub(super) fn alloc_like(&mut self, dname: &str, r: Repr, like: &str) {
        self.alloc(dname, r, &format!("{like}.rows"), &format!("{like}.cols"));
    }

    /// One-line counted loop `{ int i; for (i = 0; i < n; ++i) body }`.
    fn loop_line(&mut self, i: &str, n: &str, body: &str) {
        self.line(&format!(
            "{{ int {i}; for ({i} = 0; {i} < {n}; ++{i}) {body} }}"
        ));
    }

    /// One-line fill `dname.data[i] = value` for `i` in `0..n`.
    pub(super) fn fill(&mut self, dname: &str, i: &str, n: &str, value: &str) {
        self.loop_line(i, n, &format!("{dname}.data[{i}] = {value};"));
    }

    /// One-line column-major double loop: `j` over `0..nj` outside, `i`
    /// over `0..ni` inside.
    pub(super) fn loop2_line(&mut self, i: &str, j: &str, ni: &str, nj: &str, body: &str) {
        self.line(&format!(
            "{{ int {i}, {j}; for ({j} = 0; {j} < {nj}; ++{j}) for ({i} = 0; {i} < {ni}; ++{i}) {body} }}"
        ));
    }

    /// Opens a `{` block that evaluates `start:step:stop` once and computes
    /// its trip count, clamped at zero when `clamp`. Serves `for` loops,
    /// range values and range loads and stores; the caller declares the
    /// counter and closes the block.
    pub(super) fn open_trip_count(
        &mut self,
        start: Operand,
        step: Operand,
        stop: Operand,
        counter: &str,
        clamp: bool,
        span: Span,
    ) -> Result<Trip, CodegenError> {
        let s = self.scalar(start, false, span)?;
        let st = self.scalar(step, false, span)?;
        let e = self.scalar(stop, false, span)?;
        let t = Trip {
            n: self.fresh("n"),
            counter: self.fresh(counter),
            start: self.fresh("s"),
            step: self.fresh("st"),
        };
        let (n, sv, stv) = (&t.n, &t.start, &t.step);
        self.open("{");
        self.line(&format!("double {sv} = {s}, {stv} = {st};"));
        self.line(&format!(
            "int {n} = ({stv} == 0.0) ? 0 : (int)floor((({e}) - {sv}) / {stv} + 1e-10) + 1;"
        ));
        if clamp {
            self.line(&format!("if ({n} < 0) {n} = 0;"));
        }
        Ok(t)
    }

    /// `zeros`/`ones`/`eye` of runtime size.
    pub(super) fn emit_alloc(
        &mut self,
        dst: VarId,
        kind: AllocKind,
        rows: Operand,
        cols: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let r = self.scalar(rows, false, span)?;
        let c = self.scalar(cols, false, span)?;
        let (zero, one) = if drepr.is_cx() {
            ("cx_make(0.0, 0.0)", "cx_make(1.0, 0.0)")
        } else {
            ("0.0", "1.0")
        };
        if drepr.is_scalar() {
            // zeros(1,1) etc. assigned to a scalar register.
            let v = if matches!(kind, AllocKind::Zeros) {
                zero
            } else {
                one
            };
            self.line(&format!("{dname} = {v};"));
            return Ok(());
        }
        self.alloc(
            &dname,
            drepr,
            &format!("(int)({r})"),
            &format!("(int)({c})"),
        );
        match kind {
            AllocKind::Zeros => {}
            AllocKind::Ones => {
                let i = self.fresh("i");
                self.fill(&dname, &i, &format!("{dname}.rows * {dname}.cols"), one);
            }
            AllocKind::Eye => {
                let i = self.fresh("i");
                self.loop_line(
                    &i,
                    &format!("({dname}.rows < {dname}.cols ? {dname}.rows : {dname}.cols)"),
                    &format!("{dname}.data[{i} * {dname}.rows + {i}] = {one};"),
                );
            }
        }
        Ok(())
    }

    /// Element-wise combination of `a` and `b` into a fresh array `dst`,
    /// broadcasting scalars; `value` gives the C expression for element
    /// `i`. Two array operands get a dimension-agreement check first.
    pub(super) fn emit_zip(
        &mut self,
        dst: VarId,
        a: Operand,
        b: Operand,
        span: Span,
        value: impl Fn(&Self, &str) -> Result<String, CodegenError>,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let (like, n) = match (self.numel_expr(a), self.numel_expr(b)) {
            (Some(_), Some(_)) => {
                // Dimension agreement check (scalar 1x1 descriptors pass
                // via broadcast below).
                let an = c_name(self.f, self.array_var(a, span)?);
                let bn = c_name(self.f, self.array_var(b, span)?);
                self.line(&format!(
                    "if (!({an}.rows * {an}.cols == 1 || {bn}.rows * {bn}.cols == 1 || ({an}.rows == {bn}.rows && {an}.cols == {bn}.cols))) matic_fatal(\"matrix dimensions must agree\");"
                ));
                let a_ge_b = format!("{an}.rows * {an}.cols >= {bn}.rows * {bn}.cols");
                // A real and a complex descriptor are different types, so a
                // mixed pair's extents are picked field by field.
                let like = if self.op_repr(a)?.is_cx() == self.op_repr(b)?.is_cx() {
                    format!("({a_ge_b} ? {an} : {bn})")
                } else {
                    let pick = |f: &str| format!("({a_ge_b} ? {an}.{f} : {bn}.{f})");
                    format!("((matic_arr){{0, {}, {}}})", pick("rows"), pick("cols"))
                };
                (
                    like,
                    format!("({a_ge_b} ? {an}.rows * {an}.cols : {bn}.rows * {bn}.cols)"),
                )
            }
            (Some(n), None) => (c_name(self.f, self.array_var(a, span)?), n),
            (None, Some(n)) => (c_name(self.f, self.array_var(b, span)?), n),
            (None, None) => {
                return Err(CodegenError::new(
                    "element-wise operation without array operand",
                    span,
                ))
            }
        };
        self.alloc_like(&dname, drepr, &like);
        let i = self.fresh("i");
        self.open(&format!("{{ int {i};"));
        self.open(&format!("for ({i} = 0; {i} < {n}; ++{i}) {{"));
        let expr = value(self, &i)?;
        self.line(&format!("{dname}.data[{i}] = {expr};"));
        self.close("}");
        self.close("}");
        Ok(())
    }

    pub(super) fn emit_elementwise_unary(
        &mut self,
        dst: VarId,
        op: UnOp,
        a: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let Some(n) = self.numel_expr(a) else {
            return Err(CodegenError::new("unary array op on scalar", span));
        };
        let an = c_name(self.f, self.array_var(a, span)?);
        self.alloc_like(&dname, drepr, &an);
        let i = self.fresh("i");
        let e = self.elem(a, &i, drepr.is_cx(), span)?;
        let expr = unop(op, &e, drepr.is_cx(), span)?;
        self.fill(&dname, &i, &n, &expr);
        Ok(())
    }

    pub(super) fn emit_matmul(
        &mut self,
        dst: VarId,
        a: Operand,
        b: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        let av = self.array_var(a, span)?;
        let bv = self.array_var(b, span)?;
        let an = c_name(self.f, av);
        let bn = c_name(self.f, bv);
        self.line(&format!(
            "if ({an}.cols != {bn}.rows) matic_fatal(\"inner matrix dimensions must agree\");"
        ));
        self.alloc(&dname, drepr, &format!("{an}.rows"), &format!("{bn}.cols"));
        let (i, j, k) = (self.fresh("i"), self.fresh("j"), self.fresh("k"));
        self.open(&format!("{{ int {i}, {j}, {k};"));
        self.line(&format!("for ({j} = 0; {j} < {bn}.cols; ++{j})"));
        self.line(&format!("for ({k} = 0; {k} < {an}.cols; ++{k})"));
        self.line(&format!("for ({i} = 0; {i} < {an}.rows; ++{i})"));
        let d = format!("{dname}.data[{j} * {dname}.rows + {i}]");
        if drepr.is_cx() {
            let ea = self.cast_elem(av, &format!("{k} * {an}.rows + {i}"), true)?;
            let eb = self.cast_elem(bv, &format!("{j} * {bn}.rows + {k}"), true)?;
            self.line(&format!("    {d} = cx_add({d}, cx_mul({ea}, {eb}));"));
        } else {
            self.line(&format!(
                "    {d} += {an}.data[{k} * {an}.rows + {i}] * {bn}.data[{j} * {bn}.rows + {k}];"
            ));
        }
        self.close("}");
        Ok(())
    }

    pub(super) fn emit_transpose(
        &mut self,
        dst: VarId,
        a: Operand,
        conjugate: bool,
        span: Span,
    ) -> Result<(), CodegenError> {
        let drepr = self.repr(dst)?;
        let dname = c_name(self.f, dst);
        let conj = drepr.is_cx() && conjugate;
        if drepr.is_scalar() {
            // Transpose of a scalar: conj for `'`.
            let e = self.scalar(a, drepr.is_cx(), span)?;
            let v = if conj { format!("cx_conj({e})") } else { e };
            self.line(&format!("{dname} = {v};"));
            return Ok(());
        }
        let av = self.array_var(a, span)?;
        let an = c_name(self.f, av);
        self.alloc(&dname, drepr, &format!("{an}.cols"), &format!("{an}.rows"));
        let (i, j) = (self.fresh("i"), self.fresh("j"));
        let src = self.cast_elem(av, &format!("{j} * {an}.rows + {i}"), drepr.is_cx())?;
        let val = if conj { format!("cx_conj({src})") } else { src };
        self.loop2_line(
            &i,
            &j,
            &format!("{an}.rows"),
            &format!("{an}.cols"),
            &format!("{dname}.data[{i} * {dname}.rows + {j}] = {val};"),
        );
        Ok(())
    }

    pub(super) fn emit_range(
        &mut self,
        dst: VarId,
        start: Operand,
        step: Operand,
        stop: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        if drepr.is_cx() {
            return Err(CodegenError::new("complex range", span));
        }
        let t = self.open_trip_count(start, step, stop, "i", true, span)?;
        self.alloc(&dname, drepr, "1", &t.n);
        let value = format!("{} + {} * (double){}", t.start, t.step, t.counter);
        self.fill(&dname, &t.counter, &t.n, &value);
        self.close("}");
        Ok(())
    }

    pub(super) fn emit_matrix_lit(
        &mut self,
        dst: VarId,
        rows: &[Vec<Operand>],
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let drepr = self.repr(dst)?;
        if rows.is_empty() {
            self.alloc(&dname, drepr, "0", "0");
            return Ok(());
        }
        // Scalar-element literals only (the common kernel case); anything
        // else must have been handled upstream.
        for o in rows.iter().flatten() {
            if !self.op_repr(*o)?.is_scalar() {
                return Err(CodegenError::new(
                    "matrix literal with non-scalar elements is not supported by the C backend",
                    span,
                ));
            }
        }
        let nrows = rows.len();
        let ncols = rows[0].len();
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(CodegenError::new("ragged matrix literal", span));
        }
        if drepr.is_scalar() {
            let e = self.scalar(rows[0][0], drepr.is_cx(), span)?;
            self.line(&format!("{dname} = {e};"));
            return Ok(());
        }
        self.alloc(&dname, drepr, &nrows.to_string(), &ncols.to_string());
        for (r, row) in rows.iter().enumerate() {
            for (c, o) in row.iter().enumerate() {
                let e = self.scalar(*o, drepr.is_cx(), span)?;
                self.line(&format!("{dname}.data[{}] = {e};", c * nrows + r));
            }
        }
        Ok(())
    }

    pub(super) fn emit_index_load(
        &mut self,
        dst: VarId,
        array: VarId,
        indices: &[Index],
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let aname = c_name(self.f, array);
        let drepr = self.repr(dst)?;
        let widen = drepr.is_cx();
        if self.repr(array)?.is_cx() && !widen {
            return Err(CodegenError::new(
                "complex array indexed into real destination",
                span,
            ));
        }
        match indices {
            [Index::Scalar(op)] if self.op_repr(*op)?.is_scalar() && drepr.is_scalar() => {
                let i0 = self.index0(*op, span)?;
                let e = self.checked_elem(array, &i0, widen, "index")?;
                self.line(&format!("{dname} = {e};"));
                Ok(())
            }
            [Index::Scalar(r), Index::Scalar(c)]
                if self.op_repr(*r)?.is_scalar()
                    && self.op_repr(*c)?.is_scalar()
                    && drepr.is_scalar() =>
            {
                let r0 = self.index0(*r, span)?;
                let c0 = self.index0(*c, span)?;
                let idx = format!("(({c0}) * {aname}.rows + ({r0}))");
                let e = self.checked_elem(array, &idx, widen, "index")?;
                self.line(&format!("{dname} = {e};"));
                Ok(())
            }
            // Gather: x(idx) with a vector of indices.
            [Index::Scalar(op)] if !self.op_repr(*op)?.is_scalar() => {
                let ivn = c_name(self.f, self.array_var(*op, span)?);
                self.alloc_like(&dname, drepr, &ivn);
                let i = self.fresh("i");
                let idx = format!("((int){ivn}.data[{i}] - 1)");
                let src = self.checked_elem(array, &idx, widen, "gather")?;
                self.fill(&dname, &i, &format!("{ivn}.rows * {ivn}.cols"), &src);
                Ok(())
            }
            [Index::Range { start, step, stop }] => {
                let t = self.open_trip_count(*start, *step, *stop, "i", true, span)?;
                let shape = self.f.var_ty(dst).shape;
                if shape.cols.is_one() && !shape.rows.is_one() {
                    self.alloc(&dname, drepr, &t.n, "1");
                } else {
                    self.alloc(&dname, drepr, "1", &t.n);
                }
                let (i, sv, stv) = (&t.counter, &t.start, &t.step);
                let idx = format!("((int)({sv} + {stv} * (double){i}) - 1)");
                let src = self.checked_elem(array, &idx, widen, "slice")?;
                self.fill(&dname, i, &t.n, &src);
                self.close("}");
                Ok(())
            }
            // x(:) — all elements as a column.
            [Index::Full] => {
                let numel = format!("{aname}.rows * {aname}.cols");
                self.alloc(&dname, drepr, &numel, "1");
                let i = self.fresh("i");
                let src = self.checked_elem(array, &i, widen, "colon")?;
                self.fill(&dname, &i, &numel, &src);
                Ok(())
            }
            [ri, ci] => self.emit_index_load_2d(dst, array, ri, ci, span),
            _ => Err(CodegenError::new(
                "unsupported indexing form in C backend",
                span,
            )),
        }
    }

    /// `(count_expr, base_expr(k))` pair describing one 2-D subscript.
    fn subscript_plan(
        &mut self,
        idx: &Index,
        dim_extent: &str,
        span: Span,
    ) -> Result<SubscriptPlan, CodegenError> {
        match idx {
            Index::Scalar(op) => {
                let i0 = self.index0(*op, span)?;
                Ok(("1".to_string(), Box::new(move |_k: &str| i0.clone())))
            }
            Index::Full => Ok((
                dim_extent.to_string(),
                Box::new(move |k: &str| k.to_string()),
            )),
            Index::Range { start, step, stop } => {
                let s = self.scalar(*start, false, span)?;
                let st = self.scalar(*step, false, span)?;
                let e = self.scalar(*stop, false, span)?;
                let n = format!(
                    "(({st}) == 0.0 ? 0 : (int)floor((({e}) - ({s})) / ({st}) + 1e-10) + 1)"
                );
                Ok((
                    n,
                    Box::new(move |k: &str| format!("((int)(({s}) + ({st}) * (double)({k})) - 1)")),
                ))
            }
        }
    }

    fn emit_index_load_2d(
        &mut self,
        dst: VarId,
        array: VarId,
        ri: &Index,
        ci: &Index,
        span: Span,
    ) -> Result<(), CodegenError> {
        let dname = c_name(self.f, dst);
        let aname = c_name(self.f, array);
        let drepr = self.repr(dst)?;
        let widen = drepr.is_cx();
        let (nr, rbase) = self.subscript_plan(ri, &format!("{aname}.rows"), span)?;
        let (nc, cbase) = self.subscript_plan(ci, &format!("{aname}.cols"), span)?;
        if drepr.is_scalar() {
            let idx = format!("(({}) * {aname}.rows + ({}))", cbase("0"), rbase("0"));
            let e = self.checked_elem(array, &idx, widen, "index2d")?;
            self.line(&format!("{dname} = {e};"));
            return Ok(());
        }
        let (i, j) = (self.fresh("i"), self.fresh("j"));
        self.alloc(&dname, drepr, &nr, &nc);
        let idx = format!("(({}) * {aname}.rows + ({}))", cbase(&j), rbase(&i));
        let e = self.checked_elem(array, &idx, widen, "index2d")?;
        self.loop2_line(
            &i,
            &j,
            &format!("{dname}.rows"),
            &format!("{dname}.cols"),
            &format!("{dname}.data[{j} * {dname}.rows + {i}] = {e};"),
        );
        Ok(())
    }

    pub(super) fn emit_store(
        &mut self,
        array: VarId,
        indices: &[Index],
        value: Operand,
        span: Span,
    ) -> Result<(), CodegenError> {
        let aname = c_name(self.f, array);
        let want_cx = self.repr(array)?.is_cx();
        let checked = |idx: &str, what: &str| {
            format!("{aname}.data[MATIC_IDX({idx}, {aname}.rows * {aname}.cols, \"{what}\")]")
        };
        match indices {
            [Index::Scalar(op)] if self.op_repr(*op)?.is_scalar() => {
                if !self.op_repr(value)?.is_scalar() {
                    return Err(CodegenError::new(
                        "array stored at a scalar subscript",
                        span,
                    ));
                }
                let i0 = self.index0(*op, span)?;
                let v = self.scalar(value, want_cx, span)?;
                let (ptr, numel) = self.elem_base(array)?;
                self.line(&format!(
                    "{ptr}[MATIC_IDX({i0}, {numel}, \"store\")] = {v};"
                ));
                Ok(())
            }
            [Index::Scalar(r), Index::Scalar(c)]
                if self.op_repr(*r)?.is_scalar() && self.op_repr(*c)?.is_scalar() =>
            {
                let r0 = self.index0(*r, span)?;
                let c0 = self.index0(*c, span)?;
                let v = self.scalar(value, want_cx, span)?;
                let d = checked(&format!("(({c0}) * {aname}.rows + ({r0}))"), "store");
                self.line(&format!("{d} = {v};"));
                Ok(())
            }
            // Gather store: x(idx) = v with idx a vector.
            [Index::Scalar(op)] => {
                let ivn = c_name(self.f, self.array_var(*op, span)?);
                let i = self.fresh("i");
                let v = self.elem(value, &i, want_cx, span)?;
                let d = checked(&format!("(int){ivn}.data[{i}] - 1"), "store");
                self.loop_line(
                    &i,
                    &format!("{ivn}.rows * {ivn}.cols"),
                    &format!("{d} = {v};"),
                );
                Ok(())
            }
            [Index::Range { start, step, stop }] => {
                let t = self.open_trip_count(*start, *step, *stop, "i", false, span)?;
                let (i, sv, stv) = (&t.counter, &t.start, &t.step);
                let v = self.elem(value, i, want_cx, span)?;
                let d = checked(&format!("(int)({sv} + {stv} * (double){i}) - 1"), "store");
                self.loop_line(i, &t.n, &format!("{d} = {v};"));
                self.close("}");
                Ok(())
            }
            [Index::Full] => {
                let i = self.fresh("i");
                let v = self.elem(value, &i, want_cx, span)?;
                self.fill(&aname, &i, &format!("{aname}.rows * {aname}.cols"), &v);
                Ok(())
            }
            [ri, ci] => {
                let (nr, rbase) = self.subscript_plan(ri, &format!("{aname}.rows"), span)?;
                let (nc, cbase) = self.subscript_plan(ci, &format!("{aname}.cols"), span)?;
                let (i, j) = (self.fresh("i"), self.fresh("j"));
                let v = self.elem(value, &format!("({nr}) * ({j}) + ({i})"), want_cx, span)?;
                let idx = format!("(({}) * {aname}.rows + ({}))", cbase(&j), rbase(&i));
                self.loop2_line(
                    &i,
                    &j,
                    &format!("({nr})"),
                    &format!("({nc})"),
                    &format!("{} = {v};", checked(&idx, "store2d")),
                );
                Ok(())
            }
            _ => Err(CodegenError::new("unsupported store form", span)),
        }
    }
}
