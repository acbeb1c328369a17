//! Statement semantics shared by both execution paths: rvalues, indexing,
//! stores, calls and effects. The native engine's specialized micro-ops
//! cover only scalar element accesses and fall back to these whenever a
//! runtime shape leaves their fast path; every other statement, slices
//! included, runs here on both paths. Slice loads and stores are a
//! closed-form gather/scatter over per-axis descriptors ([`Axis`],
//! [`Slice`]) that allocates nothing beyond the loaded result.

use super::{trip_count, Env, Exec, SimError, SimVal};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_interp::{Cx, Matrix};
use matic_isa::OpClass;
use matic_mir::{AllocKind, Index, MirFunction, Operand, Rvalue, VarId};

impl Exec<'_> {
    // ---- rvalues -----------------------------------------------------------

    pub(super) fn eval_rvalue(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        dst: VarId,
        rv: &Rvalue,
        span: Span,
    ) -> Result<SimVal, SimError> {
        match rv {
            Rvalue::Use(op) => {
                let v = self.operand(f, env, *op, span)?;
                match &v {
                    SimVal::Scalar(_) => self.charge(OpClass::ScalarAlu, 1),
                    SimVal::Arr(m) => {
                        // Value-semantics copy through memory.
                        let n = m.numel() as u64;
                        self.charge(OpClass::Load, n);
                        self.charge(OpClass::Store, n);
                    }
                }
                Ok(v)
            }
            Rvalue::Unary { op, a } => {
                let v = self.operand(f, env, *a, span)?;
                match v {
                    SimVal::Scalar(z) => {
                        self.charge(OpClass::ScalarAlu, 1);
                        Ok(SimVal::Scalar(apply_unop(*op, z)))
                    }
                    SimVal::Arr(m) => {
                        let n = m.numel() as u64;
                        self.charge(OpClass::Load, n);
                        self.charge(OpClass::ScalarAlu, n);
                        self.charge(OpClass::Store, n);
                        self.charge(OpClass::Branch, n);
                        Ok(SimVal::Arr(m.map(|z| apply_unop(*op, z))))
                    }
                }
            }
            Rvalue::Binary { op, a, b } => self.eval_binary(f, env, *op, *a, *b, span),
            Rvalue::Transpose { a, conjugate } => {
                let v = self.operand(f, env, *a, span)?;
                match v {
                    SimVal::Scalar(z) => {
                        self.charge(OpClass::ScalarAlu, 1);
                        Ok(SimVal::Scalar(if *conjugate { z.conj() } else { z }))
                    }
                    SimVal::Arr(m) => {
                        let n = m.numel() as u64;
                        self.charge(OpClass::Load, n);
                        self.charge(OpClass::Store, n);
                        if *conjugate && !m.is_real() {
                            self.charge(OpClass::ScalarAlu, n);
                        }
                        Ok(SimVal::Arr(m.transpose(*conjugate)))
                    }
                }
            }
            Rvalue::Index { array, indices } => self.eval_index(f, env, *array, indices, span),
            Rvalue::Range { start, step, stop } => {
                let (s, st, e) = self.range_of(f, env, [*start, *step, *stop], span)?;
                let m = Matrix::range(s, st, e);
                let n = m.numel() as u64;
                self.charge(OpClass::ScalarAlu, n);
                self.charge(OpClass::Store, n);
                self.charge(OpClass::Branch, n);
                Ok(SimVal::Arr(m))
            }
            Rvalue::Alloc { kind, rows, cols } => {
                let r = self.real_of(f, env, *rows, span)?.max(0.0) as usize;
                let c = self.real_of(f, env, *cols, span)?.max(0.0) as usize;
                let n = (r * c) as u64;
                // Zero-fill: a SIMD machine memsets one word per issue.
                let w = self.spec().vector_width.max(1) as u64;
                if self.machine.use_intrinsics && self.spec().features.simd && w > 1 {
                    self.charge(OpClass::VectorStore, n.div_ceil(w));
                } else {
                    self.charge(OpClass::Store, n);
                }
                let m = match kind {
                    AllocKind::Zeros => Matrix::zeros(r, c),
                    AllocKind::Ones => Matrix::ones(r, c),
                    AllocKind::Eye => Matrix::eye(r, c),
                };
                Ok(SimVal::Arr(m))
            }
            Rvalue::Builtin { name, args } => self.eval_builtin(f, env, dst, name, args, span),
            Rvalue::Call { func, args } => {
                let mut inputs = Vec::new();
                for a in args {
                    inputs.push(self.operand(f, env, *a, span)?);
                }
                let mut outs = self.call_by_name(func, inputs, span)?;
                if outs.is_empty() {
                    return Err(SimError::new(
                        format!("`{func}` returns nothing but a value was expected"),
                        span,
                    ));
                }
                Ok(outs.swap_remove(0))
            }
            Rvalue::MatrixLit { rows } => {
                if rows.is_empty() {
                    return Ok(SimVal::Arr(Matrix::empty()));
                }
                let nrows = rows.len();
                let ncols = rows[0].len();
                let mut m = Matrix::zeros(nrows, ncols);
                for (r, row) in rows.iter().enumerate() {
                    if row.len() != ncols {
                        return Err(SimError::new("ragged matrix literal", span));
                    }
                    for (c, op) in row.iter().enumerate() {
                        let z = self.scalar_of(f, env, *op, span)?;
                        *m.at_mut(r, c) = z;
                    }
                }
                self.charge(OpClass::Store, (nrows * ncols) as u64);
                Ok(SimVal::Arr(m))
            }
            Rvalue::StrLit(s) => Ok(SimVal::Arr(Matrix::row(
                s.chars().map(|c| Cx::real(c as u32 as f64)).collect(),
            ))),
        }
    }

    pub(super) fn eval_binary(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        op: BinOp,
        a: Operand,
        b: Operand,
        span: Span,
    ) -> Result<SimVal, SimError> {
        let va = self.operand(f, env, a, span)?;
        let vb = self.operand(f, env, b, span)?;
        match (va, vb) {
            (SimVal::Scalar(x), SimVal::Scalar(y)) => {
                let complex = !x.is_real() || !y.is_real();
                self.scalar_binop_cost(op, complex);
                let z = apply_binop_scalar(op, x, y).map_err(|m| SimError::new(m, span))?;
                Ok(SimVal::Scalar(z))
            }
            (va, vb) => {
                // Element-wise (or matmul) on arrays.
                let ma = va.into_matrix();
                let mb = vb.into_matrix();
                let complex = !ma.is_real() || !mb.is_real();
                if op == BinOp::MatMul && !ma.is_scalar() && !mb.is_scalar() {
                    let out = ma.matmul(&mb).map_err(|m| SimError::new(m, span))?;
                    let flops = (ma.rows() * ma.cols() * mb.cols()) as u64;
                    self.charge(OpClass::Load, 2 * flops);
                    if complex {
                        self.cx_mul_cost(flops);
                        self.cx_add_cost(flops);
                    } else {
                        self.charge(OpClass::ScalarMul, flops);
                        self.charge(OpClass::ScalarAlu, flops);
                    }
                    self.charge(OpClass::Store, out.numel() as u64);
                    self.charge(OpClass::Branch, flops);
                    return Ok(SimVal::Arr(out));
                }
                let n = ma.numel().max(mb.numel()) as u64;
                self.charge(OpClass::Load, 2 * n);
                if complex {
                    match op {
                        BinOp::ElemMul | BinOp::MatMul => self.cx_mul_cost(n),
                        BinOp::Add | BinOp::Sub => self.cx_add_cost(n),
                        BinOp::ElemDiv | BinOp::MatDiv => self.cx_div_cost(n),
                        _ => self.charge(OpClass::ScalarAlu, 2 * n),
                    }
                } else {
                    match op {
                        BinOp::ElemMul | BinOp::MatMul => self.charge(OpClass::ScalarMul, n),
                        BinOp::ElemDiv | BinOp::MatDiv | BinOp::ElemLeftDiv | BinOp::MatLeftDiv => {
                            self.charge(OpClass::ScalarDiv, n)
                        }
                        BinOp::ElemPow | BinOp::MatPow => self.charge(OpClass::ScalarTrans, n),
                        _ => self.charge(OpClass::ScalarAlu, n),
                    }
                }
                self.charge(OpClass::Store, n);
                self.charge(OpClass::Branch, n);
                let out =
                    matic_interp::apply_binop(op, &ma, &mb).map_err(|m| SimError::new(m, span))?;
                Ok(SimVal::Arr(out))
            }
        }
    }

    pub(super) fn eval_index(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        array: VarId,
        indices: &[Index],
        span: Span,
    ) -> Result<SimVal, SimError> {
        let base = match self.get(f, env, array, span)? {
            SimVal::Arr(m) => m,
            SimVal::Scalar(z) => Matrix::scalar(z),
        };
        match indices {
            [Index::Scalar(op)] => {
                // Evaluate the subscript once and branch on its shape
                // (the guard-plus-`index0` form evaluated it twice).
                let iv = self.operand(f, env, *op, span)?;
                match iv {
                    SimVal::Scalar(z) => {
                        let k = z.re as i64 - 1;
                        self.charge(OpClass::ScalarAlu, 1);
                        self.charge(OpClass::Load, 1);
                        let z = *base
                            .data()
                            .get(k.max(0) as usize)
                            .filter(|_| k >= 0)
                            .ok_or_else(|| {
                                SimError::oob(
                                    format!("index {} out of bounds ({})", k + 1, base.numel()),
                                    span,
                                )
                            })?;
                        Ok(SimVal::Scalar(z))
                    }
                    SimVal::Arr(idx) => {
                        // Gather.
                        let n = idx.numel() as u64;
                        self.charge(OpClass::Load, 2 * n);
                        self.charge(OpClass::Store, n);
                        self.charge(OpClass::Branch, n);
                        let out = base
                            .index_linear(&idx)
                            .map_err(|m| SimError::new(m, span))?;
                        Ok(SimVal::Arr(out))
                    }
                }
            }
            [Index::Scalar(r), Index::Scalar(c)] => {
                let vr = self.operand(f, env, *r, span)?;
                let vc = self.operand(f, env, *c, span)?;
                let (SimVal::Scalar(zr), SimVal::Scalar(zc)) = (vr, vc) else {
                    return self.eval_index_slices(f, env, &base, indices, span);
                };
                let (r0, c0) = (zr.re as i64 - 1, zc.re as i64 - 1);
                self.charge(OpClass::ScalarAlu, 2);
                self.charge(OpClass::Load, 1);
                if r0 < 0 || c0 < 0 || r0 as usize >= base.rows() || c0 as usize >= base.cols() {
                    return Err(SimError::oob(
                        format!("index ({}, {}) out of bounds", r0 + 1, c0 + 1),
                        span,
                    ));
                }
                Ok(SimVal::Scalar(base.at(r0 as usize, c0 as usize)))
            }
            _ => self.eval_index_slices(f, env, &base, indices, span),
        }
    }

    /// The slice subscript forms of [`Exec::eval_index`]: a closed-form
    /// gather, column-outer and row-inner like the C backend's loops.
    fn eval_index_slices(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        base: &Matrix,
        indices: &[Index],
        span: Span,
    ) -> Result<SimVal, SimError> {
        let sl = self.resolve_slice(f, env, base, indices, span)?;
        let (rows, cols) = sl.shape;
        let n = rows * cols;
        self.charge(OpClass::Load, n as u64);
        self.charge(OpClass::Store, n as u64);
        self.charge(OpClass::Branch, n as u64);
        let data = base.data();
        if let Some(p) = sl.first_oob(data.len()) {
            return Err(SimError::oob(
                format!("slice index {} out of bounds", p.saturating_add(1)),
                span,
            ));
        }
        let mut out = Vec::with_capacity(n);
        sl.each(|p| {
            out.push(data[p]);
            true
        });
        Ok(SimVal::Arr(Matrix::new(rows, cols, out)))
    }

    /// Resolves slice-like subscripts (`x(a:s:b)`, `x(:)` and the two-axis
    /// forms) into a [`Slice`], reading the subscript operands in order.
    /// A negative position is an error here, before the caller charges
    /// anything.
    fn resolve_slice(
        &self,
        f: &MirFunction,
        env: &Env,
        base: &Matrix,
        indices: &[Index],
        span: Span,
    ) -> Result<Slice, SimError> {
        // A linear subscript walks its positions as the inner `row` axis
        // (`col` is the single offset 0); `x(a:s:b)` is shaped as a row,
        // `x(:)` as a column.
        let (row, col, stride, shape) = match indices {
            [ix @ Index::Range { .. }] => {
                let row = self.axis(f, env, ix, 0, span)?;
                (row, Axis::One(0), 0, (1, row.len()))
            }
            [Index::Full] => (Axis::Iota(base.numel()), Axis::One(0), 0, (base.numel(), 1)),
            [ri, ci] => {
                let row = self.axis(f, env, ri, base.rows(), span)?;
                let col = self.axis(f, env, ci, base.cols(), span)?;
                (row, col, base.rows(), (row.len(), col.len()))
            }
            _ => return Err(SimError::new("unsupported subscript form", span)),
        };
        let (mut end, mut row_end) = (0, 0);
        if row.len() > 0 && col.len() > 0 {
            let ((rlo, rhi), (clo, chi)) = (row.bounds(), col.bounds());
            if rlo < 0 || clo < 0 {
                return Err(SimError::oob("index must be positive", span));
            }
            row_end = (rhi as usize).saturating_add(1);
            end = (chi as usize)
                .saturating_mul(stride)
                .saturating_add(row_end);
        }
        Ok(Slice {
            row,
            col,
            stride,
            shape,
            end,
            row_end,
        })
    }

    /// One subscript axis over an extent of `full` elements.
    fn axis(
        &self,
        f: &MirFunction,
        env: &Env,
        ix: &Index,
        full: usize,
        span: Span,
    ) -> Result<Axis, SimError> {
        Ok(match ix {
            Index::Scalar(op) => Axis::One(self.index0(f, env, *op, span)?),
            Index::Full => Axis::Iota(full),
            Index::Range { start, step, stop } => {
                let (s, st, e) = self.range_of(f, env, [*start, *step, *stop], span)?;
                Axis::Rng {
                    s,
                    st,
                    len: trip_count(s, st, e) as usize,
                }
            }
        })
    }

    pub(super) fn exec_store(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        array: VarId,
        indices: &[Index],
        value: Operand,
        span: Span,
    ) -> Result<(), SimError> {
        let val = self.operand(f, env, value, span)?;
        // Take (not clone) the destination so the writes below mutate the
        // array in place instead of forcing a copy-on-write duplication.
        // MIR lowering materializes index operands into temps first, so
        // nothing below reads `array` while it is out of the environment.
        let mut base = match self.take_val(f, env, array, span)? {
            SimVal::Arr(m) => m,
            SimVal::Scalar(z) => Matrix::scalar(z),
        };
        match indices {
            // Evaluate each subscript once and branch on its shape (the
            // guard-plus-`index0` form evaluated them twice per store).
            [Index::Scalar(op)] => match self.operand(f, env, *op, span)? {
                SimVal::Scalar(z) => {
                    let k = z.re as i64 - 1;
                    self.charge(OpClass::ScalarAlu, 1);
                    self.charge(OpClass::Store, 1);
                    let n = base.numel();
                    if k < 0 || k as usize >= n {
                        return Err(SimError::oob(
                            format!("store index {} out of bounds ({n})", k + 1),
                            span,
                        ));
                    }
                    base.data_mut()[k as usize] =
                        val.as_cx().map_err(|m| SimError::new(m, span))?;
                }
                SimVal::Arr(_) => self.store_slices(f, env, &mut base, indices, &val, span)?,
            },
            [Index::Scalar(r), Index::Scalar(c)] => {
                let vr = self.operand(f, env, *r, span)?;
                let vc = self.operand(f, env, *c, span)?;
                if let (SimVal::Scalar(zr), SimVal::Scalar(zc)) = (&vr, &vc) {
                    let (r0, c0) = (zr.re as i64 - 1, zc.re as i64 - 1);
                    self.charge(OpClass::ScalarAlu, 2);
                    self.charge(OpClass::Store, 1);
                    if r0 < 0 || c0 < 0 || r0 as usize >= base.rows() || c0 as usize >= base.cols()
                    {
                        return Err(SimError::oob("2-D store out of bounds", span));
                    }
                    let z = val.as_cx().map_err(|m| SimError::new(m, span))?;
                    *base.at_mut(r0 as usize, c0 as usize) = z;
                } else {
                    self.store_slices(f, env, &mut base, indices, &val, span)?;
                }
            }
            _ => self.store_slices(f, env, &mut base, indices, &val, span)?,
        }
        self.set(env, array, SimVal::Arr(base));
        Ok(())
    }

    /// The slice subscript forms of [`Exec::exec_store`]: a closed-form
    /// scatter in the gather order of [`Exec::eval_index_slices`].
    fn store_slices(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        base: &mut Matrix,
        indices: &[Index],
        val: &SimVal,
        span: Span,
    ) -> Result<(), SimError> {
        let sl = self.resolve_slice(f, env, base, indices, span)?;
        let (rows, cols) = sl.shape;
        let n = rows * cols;
        self.charge(OpClass::Store, n as u64);
        self.charge(OpClass::Branch, n as u64);
        if let SimVal::Arr(src) = val {
            self.charge(OpClass::Load, n as u64);
            if src.numel() != n {
                return Err(SimError::new("store size mismatch", span));
            }
        }
        let total = base.numel();
        if let Some(p) = sl.first_oob(total) {
            return Err(SimError::oob(
                format!(
                    "store slice {} out of bounds ({total})",
                    p.saturating_add(1)
                ),
                span,
            ));
        }
        // When the source aliases `base`, `data_mut` copies the shared
        // payload first, so the source keeps reading the old values.
        let data = base.data_mut();
        match val {
            SimVal::Scalar(z) => sl.each(|p| {
                data[p] = *z;
                true
            }),
            SimVal::Arr(src) => {
                let (src, mut k) = (src.data(), 0);
                sl.each(|p| {
                    data[p] = src[k];
                    k += 1;
                    true
                });
            }
        }
        Ok(())
    }

    // One parameter per field of the `Stmt::CallMulti` form it executes.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn exec_call_multi(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        dsts: &[Option<VarId>],
        func: &str,
        args: &[Operand],
        user: bool,
        span: Span,
    ) -> Result<(), SimError> {
        if user {
            let mut inputs = Vec::new();
            for a in args {
                inputs.push(self.operand(f, env, *a, span)?);
            }
            let outs = self.call_by_name(func, inputs, span)?;
            for (d, v) in dsts.iter().zip(outs) {
                if let Some(d) = d {
                    self.set(env, *d, v);
                }
            }
            return Ok(());
        }
        match func {
            "size" => {
                let m = self.operand(f, env, args[0], span)?.into_matrix();
                self.charge(OpClass::ScalarAlu, 2);
                if let Some(Some(d)) = dsts.first() {
                    self.set(env, *d, SimVal::scalar(m.rows() as f64));
                }
                if let Some(Some(d)) = dsts.get(1) {
                    self.set(env, *d, SimVal::scalar(m.cols() as f64));
                }
                Ok(())
            }
            "min" | "max" => {
                let m = self.operand(f, env, args[0], span)?.into_matrix();
                if m.is_empty() {
                    return Err(SimError::new("min/max of empty array", span));
                }
                let n = m.numel() as u64;
                self.charge(OpClass::Load, n);
                self.charge(OpClass::ScalarAlu, n);
                self.charge(OpClass::Branch, n);
                let better = |a: f64, b: f64| if func == "min" { a < b } else { a > b };
                let mut best = m.lin(0).re;
                let mut bi = 0usize;
                for k in 1..m.numel() {
                    if better(m.lin(k).re, best) {
                        best = m.lin(k).re;
                        bi = k;
                    }
                }
                if let Some(Some(d)) = dsts.first() {
                    self.set(env, *d, SimVal::scalar(best));
                }
                if let Some(Some(d)) = dsts.get(1) {
                    self.set(env, *d, SimVal::scalar((bi + 1) as f64));
                }
                Ok(())
            }
            other => Err(SimError::new(
                format!("multi-output builtin `{other}` unsupported"),
                span,
            )),
        }
    }

    pub(super) fn exec_effect(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<(), SimError> {
        match name {
            "rng" => Ok(()),
            "disp" => {
                match args.first() {
                    Some(op) => {
                        let v = self.operand(f, env, *op, span)?;
                        match v {
                            SimVal::Scalar(z) => {
                                self.printed.push_str(&format!("{z}\n"));
                            }
                            SimVal::Arr(m) => {
                                for z in m.data() {
                                    self.printed.push_str(&format!("{z} "));
                                }
                                self.printed.push('\n');
                            }
                        }
                    }
                    None => self.printed.push('\n'),
                }
                Ok(())
            }
            "fprintf" => {
                // Approximate: print remaining args space-separated.
                for a in &args[1..] {
                    let z = self.scalar_of(f, env, *a, span)?;
                    self.printed.push_str(&format!("{z} "));
                }
                self.printed.push('\n');
                Ok(())
            }
            "error" => {
                // Decode the message (char codes) for the diagnostic.
                let msg = match args.first() {
                    Some(op) => {
                        let m = self.operand(f, env, *op, span)?.into_matrix();
                        m.data()
                            .iter()
                            .map(|z| char::from_u32(z.re as u32).unwrap_or('?'))
                            .collect::<String>()
                    }
                    None => "error() raised".to_string(),
                };
                // The message is user-controlled program text; its kind is
                // a plain trap no matter what substrings it contains.
                Err(SimError::trap(msg, span))
            }
            other => Err(SimError::trap(
                format!("effect `{other}` unsupported"),
                span,
            )),
        }
    }
}

/// One axis of a slice subscript in closed form: the 0-based positions
/// `elem(0..len())`, computed on demand rather than materialized.
#[derive(Clone, Copy)]
enum Axis {
    /// One scalar position.
    One(i64),
    /// `0, 1, .., n-1` (a `:` over an axis of length `n`).
    Iota(usize),
    /// The `s:st:e` list of `len` elements, each evaluated in floating
    /// point from `s` and `st` like the C backend's loop counter.
    Rng { s: f64, st: f64, len: usize },
}

impl Axis {
    fn len(self) -> usize {
        match self {
            Axis::One(_) => 1,
            Axis::Iota(n) => n,
            Axis::Rng { len, .. } => len,
        }
    }

    #[inline(always)]
    fn elem(self, k: usize) -> i64 {
        match self {
            Axis::One(v) => v,
            Axis::Iota(_) => k as i64,
            Axis::Rng { s, st, .. } => (s + st * k as f64) as i64 - 1,
        }
    }

    /// `(smallest, largest)` element; only meaningful when `len() > 0`.
    /// Range elements are monotone in `k` (truncation preserves order), so
    /// the extremes sit at the ends.
    fn bounds(self) -> (i64, i64) {
        let (a, b) = (self.elem(0), self.elem(self.len() - 1));
        (a.min(b), a.max(b))
    }
}

/// A resolved slice subscript: the positions `col.elem(j) * stride +
/// row.elem(i)`, column-outer and row-inner, fill a result of `shape`.
/// Built only once both axes are known non-negative (see
/// [`Exec::resolve_slice`]).
#[derive(Clone, Copy)]
struct Slice {
    row: Axis,
    col: Axis,
    stride: usize,
    shape: (usize, usize),
    /// One past the largest position (0 for an empty slice), from the
    /// axes' closed-form extremes.
    end: usize,
    /// One past the largest row-axis element (0 for an empty slice).
    row_end: usize,
}

impl Slice {
    /// Calls `visit` with each base position, column-outer and row-inner,
    /// until it returns `false`. Positions saturate rather than overflow,
    /// so an absurdly large subscript still reads as out of bounds.
    #[inline(always)]
    fn each(&self, mut visit: impl FnMut(usize) -> bool) {
        let Slice {
            row, col, stride, ..
        } = *self;
        for j in 0..col.len() {
            let off = (col.elem(j) as usize).saturating_mul(stride);
            for i in 0..row.len() {
                if !visit(off.saturating_add(row.elem(i) as usize)) {
                    return;
                }
            }
        }
    }

    /// The first position, in gather order, at or past `len`, or whose
    /// row lies outside the row extent of a 2-D subscript (`stride`): a
    /// row past the last one would otherwise wrap into the next column.
    /// `end` and `row_end` settle the in-bounds case without a scan.
    fn first_oob(&self, len: usize) -> Option<usize> {
        let rows = if self.stride == 0 { len } else { self.stride };
        if self.end <= len && self.row_end <= rows {
            return None;
        }
        let Slice { row, col, .. } = *self;
        for j in 0..col.len() {
            let off = (col.elem(j) as usize).saturating_mul(self.stride);
            for i in 0..row.len() {
                let r = row.elem(i) as usize;
                let p = off.saturating_add(r);
                if r >= rows || p >= len {
                    return Some(p);
                }
            }
        }
        None
    }
}

pub(super) fn apply_unop(op: UnOp, z: Cx) -> Cx {
    match op {
        UnOp::Neg => -z,
        UnOp::Plus => z,
        UnOp::Not => Cx::real(if z.re == 0.0 && z.im == 0.0 { 1.0 } else { 0.0 }),
    }
}

/// Scalar fast path of [`matic_interp::apply_binop`]: identical semantics
/// on 1×1 operands without building temporary matrices. This runs once
/// per scalar ALU statement and once per lane inside vector maps, so it
/// must stay allocation-free.
pub(super) fn apply_binop_scalar(op: BinOp, a: Cx, b: Cx) -> Result<Cx, String> {
    let logical = |c: bool| Cx::real(if c { 1.0 } else { 0.0 });
    let truthy = |z: Cx| z.re != 0.0 || z.im != 0.0;
    Ok(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::ElemMul | BinOp::MatMul => a * b,
        BinOp::ElemDiv | BinOp::MatDiv => a / b,
        BinOp::ElemLeftDiv | BinOp::MatLeftDiv => b / a,
        BinOp::ElemPow | BinOp::MatPow => a.powc(b),
        BinOp::Eq => logical(a == b),
        BinOp::Ne => logical(a != b),
        BinOp::Lt => logical(a.re < b.re),
        BinOp::Le => logical(a.re <= b.re),
        BinOp::Gt => logical(a.re > b.re),
        BinOp::Ge => logical(a.re >= b.re),
        BinOp::And => logical(truthy(a) && truthy(b)),
        BinOp::Or => logical(truthy(a) || truthy(b)),
        BinOp::AndAnd | BinOp::OrOr => {
            return Err("short-circuit operator applied to matrices".to_string())
        }
    })
}
