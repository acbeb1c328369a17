//! Vector operations: cycle charging under the target's SIMD
//! capabilities and lane semantics — the generic path the engine shares
//! with the tree walker, and the engine's allocation-free fast path.

use super::eval::{apply_binop_scalar, apply_unop};
use super::{slot_scalar, Env, Exec, SimError, SimVal};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_interp::Cx;
use matic_isa::OpClass;
use matic_mir::{MirFunction, Operand, ReduceKind, VarId, VecKind, VecRef, VectorOp};

impl Exec<'_> {
    fn read_lanes(
        &mut self,
        f: &MirFunction,
        env: &Env,
        r: &VecRef,
        len: usize,
        span: Span,
    ) -> Result<Vec<Cx>, SimError> {
        match r {
            VecRef::Splat(op) => {
                let z = self.scalar_of(f, env, *op, span)?;
                Ok(vec![z; len])
            }
            VecRef::Slice { array, start, step } => {
                let base = self.get(f, env, *array, span)?.into_matrix();
                let s = self.real_of(f, env, *start, span)? as i64 - 1;
                let st = self.real_of(f, env, *step, span)? as i64;
                let mut out = Vec::with_capacity(len);
                for k in 0..len as i64 {
                    let p = s + st * k;
                    let z = *base
                        .data()
                        .get(p.max(0) as usize)
                        .filter(|_| p >= 0)
                        .ok_or_else(|| {
                            SimError::oob(format!("vector lane {} out of bounds", p + 1), span)
                        })?;
                    out.push(z);
                }
                Ok(out)
            }
        }
    }

    fn write_lanes(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        r: &VecRef,
        values: &[Cx],
        span: Span,
    ) -> Result<(), SimError> {
        let VecRef::Slice { array, start, step } = r else {
            return Err(SimError::new("vector store needs a slice", span));
        };
        // Take (not clone) the destination: lane writes go through
        // `data_mut`, and a cloned handle would pay a full copy-on-write
        // duplication per vector op. `start`/`step` are scalar operands,
        // never the destination array itself.
        let mut base = self.take_val(f, env, *array, span)?.into_matrix();
        let s = self.real_of(f, env, *start, span)? as i64 - 1;
        let st = self.real_of(f, env, *step, span)? as i64;
        for (k, z) in values.iter().enumerate() {
            let p = s + st * k as i64;
            let total = base.numel();
            let slot = base
                .data_mut()
                .get_mut(p.max(0) as usize)
                .filter(|_| p >= 0)
                .ok_or_else(|| {
                    SimError::oob(
                        format!("vector store lane {} out of bounds ({total})", p + 1),
                        span,
                    )
                })?;
            *slot = *z;
        }
        self.set(env, *array, SimVal::Arr(base));
        Ok(())
    }

    /// Charges the cost of one vector operation under the target's
    /// capabilities, mirroring the C backend's intrinsic-vs-fallback
    /// decision. Returns nothing; semantics are computed separately.
    fn charge_vector_op(&mut self, vop: &VectorOp, len: u64, inputs: u64, has_store: bool) {
        let w = self.spec().vector_width.max(1) as u64;
        let simd_ok = self.machine.use_intrinsics && self.spec().features.simd && w > 1;
        let class = match (&vop.kind, vop.complex) {
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), false) => OpClass::VectorMul,
            (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), false) => OpClass::VectorDiv,
            (VecKind::Map(_), false) => OpClass::VectorAlu,
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), true) => OpClass::VComplexMul,
            (VecKind::Map(_), true) => OpClass::VComplexAdd,
            (VecKind::MapUnary(_), false) => OpClass::VectorAlu,
            (VecKind::MapUnary(_), true) => OpClass::VComplexAdd,
            (VecKind::MapBuiltin(n), _) if n == "sqrt" => OpClass::VectorDiv,
            (VecKind::MapBuiltin(_), false) => OpClass::VectorAlu,
            (VecKind::MapBuiltin(_), true) => OpClass::VComplexAdd,
            (VecKind::Mac, false) => OpClass::VectorMac,
            (VecKind::Mac, true) => OpClass::VComplexMac,
            (VecKind::Reduce(_), false) => OpClass::VectorRedAdd,
            (VecKind::Reduce(_), true) => OpClass::VectorRedAdd,
            (VecKind::Copy, _) => OpClass::VectorLoad,
        };
        if simd_ok && self.supports(class) {
            // Whole SIMD words per issue, plus vector load/store traffic.
            let words = len.div_ceil(w);
            self.note_lanes(len, words * w);
            self.charge(OpClass::VectorLoad, words * inputs);
            self.charge(class, words);
            if has_store {
                self.charge(OpClass::VectorStore, words);
            }
            self.charge(OpClass::Branch, words);
            return;
        }
        // Scalar-expansion (or complex-instruction) loop.
        self.charge(OpClass::Load, len * inputs);
        self.charge(OpClass::Branch, len);
        if has_store {
            self.charge(OpClass::Store, len);
        }
        match (&vop.kind, vop.complex) {
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), true) => self.cx_mul_cost(len),
            (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), true) => self.cx_div_cost(len),
            (VecKind::Map(_), true) => self.cx_add_cost(len),
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), false) => {
                self.charge(OpClass::ScalarMul, len)
            }
            (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), false) => {
                self.charge(OpClass::ScalarDiv, len)
            }
            (VecKind::Map(_), false) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::MapUnary(_), true) => self.cx_add_cost(len),
            (VecKind::MapUnary(_), false) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::MapBuiltin(n), _) if n == "sqrt" => self.charge(OpClass::ScalarSqrt, len),
            (VecKind::MapBuiltin(n), true) if n == "conj" => self.conj_cost(len),
            (VecKind::MapBuiltin(_), _) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::Mac, true) => self.cx_mac_cost(len),
            (VecKind::Mac, false) => {
                self.charge(OpClass::ScalarMul, len);
                self.charge(OpClass::ScalarAlu, len);
            }
            (VecKind::Reduce(ReduceKind::Prod), true) => self.cx_mul_cost(len),
            (VecKind::Reduce(ReduceKind::Prod), false) => self.charge(OpClass::ScalarMul, len),
            (VecKind::Reduce(_), true) => self.cx_add_cost(len),
            (VecKind::Reduce(_), false) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::Copy, _) => {}
        }
    }

    /// A vector op's prologue: evaluates its length, then charges it.
    /// Returns the lane count; the caller runs the lanes when it is
    /// non-zero.
    pub(super) fn vector_prologue(
        &mut self,
        f: &MirFunction,
        env: &Env,
        vop: &VectorOp,
    ) -> Result<usize, SimError> {
        let len_f = self.real_of(f, env, vop.len, vop.span)?;
        let len = if len_f > 0.0 { len_f as usize } else { 0 };
        let inputs = 1 + u64::from(vop.b.is_some());
        let is_store = !matches!(vop.kind, VecKind::Mac | VecKind::Reduce(_));
        self.charge_vector_op(vop, len as u64, inputs, is_store);
        Ok(len)
    }

    /// Lane semantics of one vector op, with charges already applied.
    pub(super) fn vector_op_lanes(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        vop: &VectorOp,
        len: usize,
    ) -> Result<(), SimError> {
        let span = vop.span;
        let a = self.read_lanes(f, env, &vop.a, len, span)?;
        let b = match &vop.b {
            Some(r) => Some(self.read_lanes(f, env, r, len, span)?),
            None => None,
        };

        match &vop.kind {
            VecKind::Mac | VecKind::Reduce(_) => {
                let VecRef::Splat(Operand::Var(acc_var)) = vop.dst else {
                    return Err(SimError::new(
                        "reduction destination must be a register",
                        span,
                    ));
                };
                let mut acc = self
                    .get(f, env, acc_var, span)?
                    .as_cx()
                    .map_err(|m| SimError::new(m, span))?;
                match &vop.kind {
                    VecKind::Mac => {
                        let b = b.as_ref().expect("MAC has two inputs");
                        for k in 0..len {
                            acc = acc + a[k] * b[k];
                        }
                    }
                    VecKind::Reduce(ReduceKind::Sum) => {
                        for z in &a {
                            acc = acc + *z;
                        }
                    }
                    VecKind::Reduce(ReduceKind::Prod) => {
                        for z in &a {
                            acc = acc * *z;
                        }
                    }
                    _ => unreachable!(),
                }
                self.set(env, acc_var, SimVal::Scalar(acc));
                Ok(())
            }
            kind => {
                let out: Vec<Cx> = match kind {
                    VecKind::Map(op) => {
                        let b = b.as_ref().expect("binary map has two inputs");
                        let mut out = Vec::with_capacity(len);
                        for k in 0..len {
                            let z = apply_binop_scalar(*op, a[k], b[k])
                                .map_err(|m| SimError::new(m, span))?;
                            out.push(z);
                        }
                        out
                    }
                    VecKind::MapUnary(op) => a.iter().map(|&z| apply_unop(*op, z)).collect(),
                    VecKind::MapBuiltin(name) => {
                        let mut out = Vec::with_capacity(len);
                        for &z in &a {
                            out.push(match name.as_str() {
                                "abs" => Cx::real(z.abs()),
                                "conj" => z.conj(),
                                "sqrt" => z.sqrt(),
                                "real" => Cx::real(z.re),
                                "imag" => Cx::real(z.im),
                                "floor" => Cx::real(z.re.floor()),
                                "ceil" => Cx::real(z.re.ceil()),
                                "round" => Cx::real(z.re.round()),
                                other => {
                                    return Err(SimError::new(
                                        format!("lane builtin `{other}`"),
                                        span,
                                    ))
                                }
                            });
                        }
                        out
                    }
                    VecKind::Copy => a,
                    _ => unreachable!(),
                };
                self.write_lanes(f, env, &vop.dst, &out, span)
            }
        }
    }
}

// ---- native fast path ------------------------------------------------------

/// A resolved lane reference whose bounds are already validated: either a
/// splat scalar or a strided in-bounds window over an array register.
#[derive(Clone, Copy)]
enum Lanes {
    Splat(Cx),
    Slice { var: VarId, s: i64, st: i64 },
}

/// Resolves a `VecRef` for the allocation-free path: slice base must be an
/// array register with scalar start/step and every lane position in
/// bounds. `None` means "fall back to the generic path" (which re-derives
/// the identical error or semantics).
#[inline]
fn resolve_lanes(env: &Env, r: &VecRef, len: usize) -> Option<Lanes> {
    match r {
        VecRef::Splat(op) => slot_scalar(env, *op).ok().flatten().map(Lanes::Splat),
        VecRef::Slice { array, start, step } => {
            let s = slot_scalar(env, *start).ok().flatten()?.re as i64 - 1;
            let st = slot_scalar(env, *step).ok().flatten()?.re as i64;
            let Some(SimVal::Arr(m)) = &env[array.0 as usize] else {
                return None;
            };
            let last = s + st * (len as i64 - 1);
            let (lo, hi) = if st >= 0 { (s, last) } else { (last, s) };
            if lo < 0 || hi >= m.numel() as i64 {
                return None;
            }
            Some(Lanes::Slice { var: *array, s, st })
        }
    }
}

/// Executes a vector op's lane semantics without the generic path's
/// per-lane bounds `Result`s and temporary lane `Vec`s. Returns `false`
/// (having touched nothing) when any precondition fails; once it commits,
/// it cannot fail, and the values written are bit-identical to
/// `Exec::vector_op_lanes` — same element order, same float accumulation
/// sequence.
pub(super) fn vector_fast(exec: &mut Exec<'_>, env: &mut Env, vop: &VectorOp, len: usize) -> bool {
    match &vop.kind {
        VecKind::Mac | VecKind::Reduce(_) => {
            let VecRef::Splat(Operand::Var(acc_var)) = vop.dst else {
                return false;
            };
            let acc0 = match &env[acc_var.0 as usize] {
                Some(SimVal::Scalar(z)) => *z,
                _ => return false,
            };
            let Some(la) = resolve_lanes(env, &vop.a, len) else {
                return false;
            };
            let lb = match &vop.b {
                Some(r) => match resolve_lanes(env, r, len) {
                    Some(l) => Some(l),
                    None => return false,
                },
                None => None,
            };
            let data_of = |l: &Lanes| -> &[Cx] {
                match l {
                    Lanes::Splat(_) => &[],
                    Lanes::Slice { var, .. } => match &env[var.0 as usize] {
                        Some(SimVal::Arr(m)) => m.data(),
                        _ => unreachable!(),
                    },
                }
            };
            let da = data_of(&la);
            let db = lb.as_ref().map(data_of).unwrap_or(&[]);
            let at = |l: Lanes, d: &[Cx], k: usize| -> Cx {
                match l {
                    Lanes::Splat(z) => z,
                    Lanes::Slice { s, st, .. } => d[(s + st * k as i64) as usize],
                }
            };
            let mut acc = acc0;
            match &vop.kind {
                VecKind::Mac => {
                    let lb = lb.expect("MAC has two inputs");
                    for k in 0..len {
                        acc = acc + at(la, da, k) * at(lb, db, k);
                    }
                }
                VecKind::Reduce(ReduceKind::Sum) => {
                    for k in 0..len {
                        acc = acc + at(la, da, k);
                    }
                }
                VecKind::Reduce(ReduceKind::Prod) => {
                    for k in 0..len {
                        acc = acc * at(la, da, k);
                    }
                }
                _ => unreachable!(),
            }
            exec.set(env, acc_var, SimVal::Scalar(acc));
            true
        }
        kind => {
            // Element-wise map writing a destination slice.
            let VecRef::Slice { array: dvar, .. } = &vop.dst else {
                return false;
            };
            // Lane computation must be infallible once committed.
            enum MapOp {
                Bin(BinOp),
                Un(UnOp),
                Builtin(fn(Cx) -> Cx),
                Copy,
            }
            let mop = match kind {
                VecKind::Map(BinOp::AndAnd | BinOp::OrOr) => return false,
                VecKind::Map(op) => MapOp::Bin(*op),
                VecKind::MapUnary(op) => MapOp::Un(*op),
                VecKind::MapBuiltin(name) => MapOp::Builtin(match name.as_str() {
                    "abs" => |z: Cx| Cx::real(z.abs()),
                    "conj" => |z: Cx| z.conj(),
                    "sqrt" => |z: Cx| z.sqrt(),
                    "real" => |z: Cx| Cx::real(z.re),
                    "imag" => |z: Cx| Cx::real(z.im),
                    "floor" => |z: Cx| Cx::real(z.re.floor()),
                    "ceil" => |z: Cx| Cx::real(z.re.ceil()),
                    "round" => |z: Cx| Cx::real(z.re.round()),
                    _ => return false,
                }),
                VecKind::Copy => MapOp::Copy,
                VecKind::Mac | VecKind::Reduce(_) => unreachable!(),
            };
            // The generic path snapshots input lanes before writing, so an
            // in-place destination aliasing an input is only safe if we
            // fall back.
            let aliases = |r: &VecRef| matches!(r, VecRef::Slice { array, .. } if array == dvar);
            if aliases(&vop.a) || vop.b.as_ref().is_some_and(aliases) {
                return false;
            }
            let Some(la) = resolve_lanes(env, &vop.a, len) else {
                return false;
            };
            let lb = match &vop.b {
                Some(r) => match resolve_lanes(env, r, len) {
                    Some(l) => Some(l),
                    None => return false,
                },
                None => None,
            };
            if matches!(kind, VecKind::Map(_)) && lb.is_none() {
                return false; // binary map always has two inputs
            }
            let Some(ld) = resolve_lanes(env, &vop.dst, len) else {
                return false;
            };
            let Lanes::Slice {
                s: ds, st: dst_st, ..
            } = ld
            else {
                unreachable!("dst resolved from a Slice")
            };
            // Take the destination out (same copy-on-write discipline as
            // `write_lanes`), then read inputs straight from the env.
            let Some(SimVal::Arr(mut base)) = env[dvar.0 as usize].take() else {
                unreachable!("dst resolved as Arr")
            };
            {
                let data_of = |l: &Lanes| -> &[Cx] {
                    match l {
                        Lanes::Splat(_) => &[],
                        Lanes::Slice { var, .. } => match &env[var.0 as usize] {
                            Some(SimVal::Arr(m)) => m.data(),
                            _ => unreachable!(),
                        },
                    }
                };
                let da = data_of(&la);
                let db = lb.as_ref().map(data_of).unwrap_or(&[]);
                let at = |l: Lanes, d: &[Cx], k: usize| -> Cx {
                    match l {
                        Lanes::Splat(z) => z,
                        Lanes::Slice { s, st, .. } => d[(s + st * k as i64) as usize],
                    }
                };
                let out = base.data_mut();
                for k in 0..len {
                    let av = at(la, da, k);
                    let z = match &mop {
                        MapOp::Bin(op) => {
                            let bv = at(lb.unwrap(), db, k);
                            apply_binop_scalar(*op, av, bv)
                                .expect("short-circuit ops excluded from fast path")
                        }
                        MapOp::Un(op) => apply_unop(*op, av),
                        MapOp::Builtin(bf) => bf(av),
                        MapOp::Copy => av,
                    };
                    out[(ds + dst_st * k as i64) as usize] = z;
                }
            }
            env[dvar.0 as usize] = Some(SimVal::Arr(base));
            true
        }
    }
}
