//! Vector operations: the target's intrinsics where the ISA provides the
//! operation class, and a semantically identical scalar loop otherwise.

use super::expr::{binop, builtin_c, unop};
use super::{c_name, CodegenError, FnEmitter};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_isa::OpClass;
use matic_mir::{ReduceKind, VarId, VecKind, VecRef, VectorOp};
use matic_sema::registry;

/// The op class the support check consults and the intrinsic stem, or
/// `None` when no intrinsic exists for this kind.
fn intrinsic(kind: &VecKind, complex: bool) -> Option<(OpClass, &'static str)> {
    Some(match (kind, complex) {
        (VecKind::Map(BinOp::Add), false) => (OpClass::VectorAlu, "vadd"),
        (VecKind::Map(BinOp::Sub), false) => (OpClass::VectorAlu, "vsub"),
        (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), false) => (OpClass::VectorMul, "vmul"),
        (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), false) => (OpClass::VectorDiv, "vdiv"),
        (VecKind::Map(BinOp::Add), true) => (OpClass::VComplexAdd, "vcadd"),
        (VecKind::Map(BinOp::Sub), true) => (OpClass::VComplexAdd, "vcsub"),
        (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), true) => (OpClass::VComplexMul, "vcmul"),
        (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), true) => (OpClass::VComplexMul, "vcdiv"),
        (VecKind::MapUnary(UnOp::Neg), false) => (OpClass::VectorAlu, "vneg"),
        (VecKind::MapUnary(UnOp::Neg), true) => (OpClass::VComplexAdd, "vcneg"),
        (VecKind::MapBuiltin(n), false) if n == "abs" => (OpClass::VectorAlu, "vabs"),
        (VecKind::MapBuiltin(n), false) if n == "sqrt" => (OpClass::VectorDiv, "vsqrt"),
        (VecKind::MapBuiltin(n), true) if n == "conj" => (OpClass::ComplexConj, "vcconj"),
        (VecKind::Mac, false) => (OpClass::VectorMac, "vmac"),
        (VecKind::Mac, true) => (OpClass::VComplexMac, "vcmac"),
        (VecKind::Reduce(ReduceKind::Sum), false) => (OpClass::VectorRedAdd, "vredadd"),
        (VecKind::Reduce(ReduceKind::Prod), false) => (OpClass::VectorRedAdd, "vredmul"),
        (VecKind::Reduce(ReduceKind::Sum), true) => (OpClass::VectorRedAdd, "vcredadd"),
        (VecKind::Copy, false) => (OpClass::VectorLoad, "vcopy"),
        (VecKind::Copy, true) => (OpClass::VectorLoad, "vccopy"),
        _ => return None,
    })
}

impl FnEmitter<'_> {
    /// Pointer+stride for a [`VecRef`], possibly emitting a broadcast temp.
    fn vecref_ptr(
        &mut self,
        r: &VecRef,
        cx: bool,
        span: Span,
    ) -> Result<(String, String), CodegenError> {
        match r {
            VecRef::Slice { array, start, step } => {
                let (ptr, _) = self.elem_base(*array)?;
                let s = self.scalar(*start, false, span)?;
                let st = self.scalar(*step, false, span)?;
                Ok((format!("&{ptr}[(int)({s}) - 1]"), format!("(int)({st})")))
            }
            VecRef::Splat(op) => {
                let t = self.fresh("sp");
                let e = self.scalar(*op, cx, span)?;
                let ty = if cx { "matic_cx" } else { "double" };
                self.line(&format!("{ty} {t} = {e};"));
                Ok((format!("&{t}"), "0".to_string()))
            }
        }
    }

    /// Whether every array touched by the op matches its complex mode
    /// (mixed real/complex lanes fall back to the scalar loop).
    fn vecop_reprs_match(&self, vop: &VectorOp) -> Result<bool, CodegenError> {
        let check = |r: &VecRef| -> Result<bool, CodegenError> {
            match r {
                VecRef::Slice { array, .. } => Ok(self.repr(*array)?.is_cx() == vop.complex),
                VecRef::Splat(op) => {
                    // Splats convert freely real→complex.
                    Ok(!self.op_repr(*op)?.is_cx() || vop.complex)
                }
            }
        };
        Ok(check(&vop.dst)? && check(&vop.a)? && vop.b.as_ref().map_or(Ok(true), check)?)
    }

    /// The register a reduction or MAC accumulates into.
    fn accumulator(&self, vop: &VectorOp) -> Result<VarId, CodegenError> {
        let VecRef::Splat(acc_op) = &vop.dst else {
            return Err(CodegenError::new(
                "reduction destination must be a scalar register",
                vop.span,
            ));
        };
        acc_op
            .as_var()
            .ok_or_else(|| CodegenError::new("reduction into constant", vop.span))
    }

    /// The second operand of a binary map or MAC.
    fn second<'v>(&self, vop: &'v VectorOp) -> Result<&'v VecRef, CodegenError> {
        vop.b
            .as_ref()
            .ok_or_else(|| CodegenError::new("vector op without second operand", vop.span))
    }

    pub(super) fn emit_vector_op(&mut self, vop: &VectorOp) -> Result<(), CodegenError> {
        let span = vop.span;
        let chosen = match intrinsic(&vop.kind, vop.complex) {
            Some((class, stem))
                if self.options.use_intrinsics
                    && self.spec.supports(class)
                    && self.vecop_reprs_match(vop)? =>
            {
                stem
            }
            // Scalar-expansion fallback: semantically identical loop.
            _ => return self.emit_vector_fallback(vop),
        };
        let fname = format!("{}_{chosen}", self.spec.intrinsic_prefix);
        let n = format!("(int)({})", self.scalar(vop.len, false, span)?);
        self.open("{");
        match &vop.kind {
            VecKind::Mac | VecKind::Reduce(_) => {
                let acc = c_name(self.f, self.accumulator(vop)?);
                let (pa, sa) = self.vecref_ptr(&vop.a, vop.complex, span)?;
                if matches!(vop.kind, VecKind::Mac) {
                    let (pb, sb) = self.vecref_ptr(self.second(vop)?, vop.complex, span)?;
                    self.line(&format!("{fname}(&{acc}, {pa}, {sa}, {pb}, {sb}, {n});"));
                } else {
                    self.line(&format!("{fname}(&{acc}, {pa}, {sa}, {n});"));
                }
            }
            _ => {
                let (pd, sd) = self.vecref_ptr(&vop.dst, vop.complex, span)?;
                let (pa, sa) = self.vecref_ptr(&vop.a, vop.complex, span)?;
                if let Some(b) = &vop.b {
                    let (pb, sb) = self.vecref_ptr(b, vop.complex, span)?;
                    self.line(&format!(
                        "{fname}({pd}, {sd}, {pa}, {sa}, {pb}, {sb}, {n});"
                    ));
                } else {
                    self.line(&format!("{fname}({pd}, {sd}, {pa}, {sa}, {n});"));
                }
            }
        }
        self.close("}");
        Ok(())
    }

    /// Lane element expression inside the fallback loop.
    fn lane_elem(
        &mut self,
        r: &VecRef,
        i: &str,
        cx: bool,
        span: Span,
    ) -> Result<String, CodegenError> {
        match r {
            VecRef::Slice { array, start, step } => {
                let s = self.scalar(*start, false, span)?;
                let st = self.scalar(*step, false, span)?;
                let idx = format!("((int)({s}) - 1 + {i} * (int)({st}))");
                self.checked_elem(*array, &idx, cx, "vecop")
            }
            VecRef::Splat(op) => self.scalar(*op, cx, span),
        }
    }

    fn emit_vector_fallback(&mut self, vop: &VectorOp) -> Result<(), CodegenError> {
        let span = vop.span;
        let n = self.fresh("n");
        let i = self.fresh("i");
        let len_e = self.scalar(vop.len, false, span)?;
        self.open("{");
        self.line(&format!("int {n} = (int)({len_e});"));
        self.line(&format!("int {i};"));
        match &vop.kind {
            VecKind::Mac | VecKind::Reduce(_) => {
                let acc_var = self.accumulator(vop)?;
                let acc = c_name(self.f, acc_var);
                let acc_cx = self.repr(acc_var)?.is_cx();
                let ea = self.lane_elem(&vop.a, &i, acc_cx, span)?;
                let update = match (&vop.kind, acc_cx) {
                    (VecKind::Mac, _) => {
                        let eb = self.lane_elem(self.second(vop)?, &i, acc_cx, span)?;
                        if acc_cx {
                            format!("{acc} = cx_add({acc}, cx_mul({ea}, {eb}));")
                        } else {
                            format!("{acc} += {ea} * {eb};")
                        }
                    }
                    (VecKind::Reduce(ReduceKind::Sum), true) => {
                        format!("{acc} = cx_add({acc}, {ea});")
                    }
                    (VecKind::Reduce(ReduceKind::Sum), false) => format!("{acc} += {ea};"),
                    (VecKind::Reduce(ReduceKind::Prod), true) => {
                        format!("{acc} = cx_mul({acc}, {ea});")
                    }
                    (VecKind::Reduce(ReduceKind::Prod), false) => format!("{acc} *= {ea};"),
                    _ => unreachable!("outer match admits only MAC and reductions"),
                };
                self.line(&format!("for ({i} = 0; {i} < {n}; ++{i}) {update}"));
            }
            kind => {
                let VecRef::Slice {
                    array: darr,
                    start: dstart,
                    step: dstep,
                } = &vop.dst
                else {
                    return Err(CodegenError::new("map destination must be a slice", span));
                };
                let (dptr, dnumel) = self.elem_base(*darr)?;
                let d_cx = self.repr(*darr)?.is_cx();
                let ds = self.scalar(*dstart, false, span)?;
                let dst_e = self.scalar(*dstep, false, span)?;
                let didx = format!("((int)({ds}) - 1 + {i} * (int)({dst_e}))");
                let value = match kind {
                    VecKind::Map(op) => {
                        let ea = self.lane_elem(&vop.a, &i, d_cx, span)?;
                        let eb = self.lane_elem(self.second(vop)?, &i, d_cx, span)?;
                        binop(*op, &ea, &eb, d_cx, span)?
                    }
                    VecKind::MapUnary(op) => {
                        let ea = self.lane_elem(&vop.a, &i, d_cx, span)?;
                        unop(*op, &ea, d_cx, span)?
                    }
                    VecKind::MapBuiltin(name) => {
                        let a_cx = match &vop.a {
                            VecRef::Slice { array, .. } => self.repr(*array)?.is_cx(),
                            VecRef::Splat(op) => self.op_repr(*op)?.is_cx(),
                        };
                        let b = registry::lookup_call(name, 1).ok_or_else(|| {
                            CodegenError::new(format!("vector lane builtin `{name}`"), span)
                        })?;
                        let ea = self.lane_elem(&vop.a, &i, a_cx, span)?;
                        builtin_c(b, &[(ea, a_cx)], false, d_cx, span)?
                    }
                    VecKind::Copy => self.lane_elem(&vop.a, &i, d_cx, span)?,
                    _ => unreachable!("outer match handles MAC and reductions"),
                };
                self.line(&format!(
                    "for ({i} = 0; {i} < {n}; ++{i}) {dptr}[MATIC_IDX({didx}, {dnumel}, \"vecop\")] = {value};"
                ));
            }
        }
        self.close("}");
        Ok(())
    }
}
