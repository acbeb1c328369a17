//! Statement semantics shared by both execution paths: rvalues, indexing,
//! stores, calls and effects. The native engine's specialized micro-ops
//! fall back to these whenever a runtime shape leaves their fast path.

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

    /// The general slice/gather subscript forms of [`Exec::eval_index`].
    fn eval_index_slices(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        base: &Matrix,
        indices: &[Index],
        span: Span,
    ) -> Result<SimVal, SimError> {
        // Slices: evaluate via positions like the C backend loops.
        let (positions, rows, cols) = self.slice_positions(f, env, base, indices, span)?;
        let n = positions.len() as u64;
        self.charge(OpClass::Load, n);
        self.charge(OpClass::Store, n);
        self.charge(OpClass::Branch, n);
        let mut data = Vec::with_capacity(positions.len());
        for p in &positions {
            data.push(*base.data().get(*p).ok_or_else(|| {
                SimError::oob(format!("slice index {} out of bounds", p + 1), span)
            })?);
        }
        Ok(SimVal::Arr(Matrix::new(rows, cols, data)))
    }

    /// Resolves slice-like subscripts into 0-based linear positions plus
    /// the result shape, mirroring the C backend's loops.
    fn slice_positions(
        &mut self,
        f: &MirFunction,
        env: &Env,
        base: &Matrix,
        indices: &[Index],
        span: Span,
    ) -> Result<(Vec<usize>, usize, usize), SimError> {
        let range_list = |(s, st, e): (f64, f64, f64)| -> Vec<i64> {
            (0..trip_count(s, st, e))
                .map(|k| (s + st * k as f64) as i64 - 1)
                .collect()
        };
        match indices {
            [Index::Range { start, step, stop }] => {
                let list = range_list(self.range_of(f, env, [*start, *step, *stop], span)?);
                let n = list.len();
                let mut out = Vec::with_capacity(n);
                for k in list {
                    if k < 0 {
                        return Err(SimError::oob("index must be positive", span));
                    }
                    out.push(k as usize);
                }
                Ok((out, 1, n))
            }
            [Index::Full] => {
                let n = base.numel();
                Ok(((0..n).collect(), n, 1))
            }
            [ri, ci] => {
                let rlist: Vec<i64> = match ri {
                    Index::Scalar(op) => vec![self.index0(f, env, *op, span)?],
                    Index::Full => (0..base.rows() as i64).collect(),
                    Index::Range { start, step, stop } => {
                        range_list(self.range_of(f, env, [*start, *step, *stop], span)?)
                    }
                };
                let clist: Vec<i64> = match ci {
                    Index::Scalar(op) => vec![self.index0(f, env, *op, span)?],
                    Index::Full => (0..base.cols() as i64).collect(),
                    Index::Range { start, step, stop } => {
                        range_list(self.range_of(f, env, [*start, *step, *stop], span)?)
                    }
                };
                let mut out = Vec::with_capacity(rlist.len() * clist.len());
                for &c in &clist {
                    for &r in &rlist {
                        if r < 0 || c < 0 {
                            return Err(SimError::oob("index must be positive", span));
                        }
                        out.push(c as usize * base.rows() + r as usize);
                    }
                }
                Ok((out, rlist.len(), clist.len()))
            }
            _ => Err(SimError::new("unsupported subscript form", span)),
        }
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

    /// The general slice/gather subscript forms of [`Exec::exec_store`].
    fn store_slices(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        base: &mut Matrix,
        indices: &[Index],
        val: &SimVal,
        span: Span,
    ) -> Result<(), SimError> {
        let (positions, ..) = self.slice_positions(f, env, base, indices, span)?;
        let n = positions.len() as u64;
        self.charge(OpClass::Store, n);
        self.charge(OpClass::Branch, n);
        match val {
            SimVal::Scalar(z) => {
                for p in &positions {
                    let total = base.numel();
                    let slot = base.data_mut().get_mut(*p).ok_or_else(|| {
                        SimError::oob(
                            format!("store slice {} out of bounds ({total})", p + 1),
                            span,
                        )
                    })?;
                    *slot = *z;
                }
            }
            SimVal::Arr(src) => {
                self.charge(OpClass::Load, n);
                if src.numel() != positions.len() {
                    return Err(SimError::new("store size mismatch", span));
                }
                for (k, p) in positions.iter().enumerate() {
                    let total = base.numel();
                    let z = src.lin(k);
                    let slot = base.data_mut().get_mut(*p).ok_or_else(|| {
                        SimError::oob(
                            format!("store slice {} out of bounds ({total})", p + 1),
                            span,
                        )
                    })?;
                    *slot = z;
                }
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
