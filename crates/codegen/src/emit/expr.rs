//! Operand access and the two C tables every emission path shares.
//!
//! Scalar statements, element-wise array loops and the vector-op scalar
//! fallback all spell an operator through [`binop`]/[`unop`] and a
//! builtin of the registry (`pi`, `abs`, `sqrt`, `conj`, `atan2`, `min`,
//! …) through [`builtin_c`], so the three paths cannot drift apart.

use super::{c_name, fmt_f64, CodegenError, FnEmitter, Repr};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_mir::{Operand, VarId};
use matic_sema::registry::{Builtin, Eval, ResultClass};

/// `e` (complex when `is_cx`) in the representation `want_cx` asks for:
/// reals widen with `cx_make`, complex values never narrow silently.
fn coerce(e: String, is_cx: bool, want_cx: bool, span: Span) -> Result<String, CodegenError> {
    match (is_cx, want_cx) {
        (false, true) => Ok(format!("cx_make({e}, 0.0)")),
        (true, false) => Err(CodegenError::new(
            "complex value used where a real value is required",
            span,
        )),
        _ => Ok(e),
    }
}

/// C text of `ea op eb`, on `matic_cx` operands when `cx`. Comparisons
/// always yield a real 0/1.
pub(super) fn binop(
    op: BinOp,
    ea: &str,
    eb: &str,
    cx: bool,
    span: Span,
) -> Result<String, CodegenError> {
    let cmp = |c: &str| format!("(({ea} {c} {eb}) ? 1.0 : 0.0)");
    Ok(match (op, cx) {
        (BinOp::AndAnd | BinOp::OrOr, _) => {
            return Err(CodegenError::new(
                "short-circuit operator reached codegen (should be lowered)",
                span,
            ))
        }
        (BinOp::Add, true) => format!("cx_add({ea}, {eb})"),
        (BinOp::Sub, true) => format!("cx_sub({ea}, {eb})"),
        (BinOp::ElemMul | BinOp::MatMul, true) => format!("cx_mul({ea}, {eb})"),
        (BinOp::ElemDiv | BinOp::MatDiv, true) => format!("cx_div({ea}, {eb})"),
        (BinOp::ElemLeftDiv | BinOp::MatLeftDiv, true) => format!("cx_div({eb}, {ea})"),
        (BinOp::ElemPow | BinOp::MatPow, true) => format!("cx_pow({ea}, {eb})"),
        (BinOp::Eq, true) => format!("(({ea}.re == {eb}.re && {ea}.im == {eb}.im) ? 1.0 : 0.0)"),
        (BinOp::Ne, true) => format!("(({ea}.re != {eb}.re || {ea}.im != {eb}.im) ? 1.0 : 0.0)"),
        (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, true) => {
            return binop(op, &format!("{ea}.re"), &format!("{eb}.re"), false, span)
        }
        (BinOp::And | BinOp::Or, true) => {
            return Err(CodegenError::new(
                format!("operator `{op}` on complex operands"),
                span,
            ))
        }
        (BinOp::Add, false) => format!("({ea} + {eb})"),
        (BinOp::Sub, false) => format!("({ea} - {eb})"),
        (BinOp::ElemMul | BinOp::MatMul, false) => format!("({ea} * {eb})"),
        (BinOp::ElemDiv | BinOp::MatDiv, false) => format!("({ea} / {eb})"),
        (BinOp::ElemLeftDiv | BinOp::MatLeftDiv, false) => format!("({eb} / {ea})"),
        (BinOp::ElemPow | BinOp::MatPow, false) => format!("pow({ea}, {eb})"),
        (BinOp::Eq, false) => cmp("=="),
        (BinOp::Ne, false) => cmp("!="),
        (BinOp::Lt, false) => cmp("<"),
        (BinOp::Le, false) => cmp("<="),
        (BinOp::Gt, false) => cmp(">"),
        (BinOp::Ge, false) => cmp(">="),
        (BinOp::And, false) => format!("((({ea}) != 0.0 && ({eb}) != 0.0) ? 1.0 : 0.0)"),
        (BinOp::Or, false) => format!("((({ea}) != 0.0 || ({eb}) != 0.0) ? 1.0 : 0.0)"),
    })
}

/// C text of `op e`, on a `matic_cx` operand when `cx`.
pub(super) fn unop(op: UnOp, e: &str, cx: bool, span: Span) -> Result<String, CodegenError> {
    Ok(match (op, cx) {
        (UnOp::Neg, false) => format!("-({e})"),
        (UnOp::Neg, true) => format!("cx_neg({e})"),
        (UnOp::Plus, _) => e.to_string(),
        (UnOp::Not, false) => format!("(({e}) == 0.0 ? 1.0 : 0.0)"),
        (UnOp::Not, true) => return Err(CodegenError::new("`~` on complex value", span)),
    })
}

/// C text of the registry builtin `b` on `args` (each a C expression and
/// whether it is a `matic_cx`); the result is complex when `d_cx`. `bare`
/// says a complex argument is an `x.data[i]` that takes `.re` unwrapped.
/// Fails only on argument types sema rejects (a unit test checks every
/// entry). An entry not spelled out is the C99 function of its name, or
/// its `cx_` runtime function on complex values.
pub(super) fn builtin_c(
    b: &Builtin,
    args: &[(String, bool)],
    bare: bool,
    d_cx: bool,
    span: Span,
) -> Result<String, CodegenError> {
    let name = b.name;
    let widened = |(e, cx): &(String, bool)| coerce(e.clone(), *cx, true, span);
    let any_cx = args.iter().any(|a| a.1);
    // The complex form: on a complex argument, and on a real one whose
    // result is complex when a real argument can give a complex value.
    let cx_form =
        any_cx || (d_cx && matches!(b.class, ResultClass::MayGoComplex | ResultClass::Same));
    let spelled = match (b.eval, args) {
        (Eval::Const(_), _) if name == "pi" => {
            Some(("3.14159265358979311599796346854".into(), false))
        }
        (Eval::Const(z), _) if z.im != 0.0 => Some((
            format!("cx_make({}, {})", fmt_f64(z.re), fmt_f64(z.im)),
            true,
        )),
        (Eval::Const(z), _) => Some((fmt_f64(z.re), false)),
        (Eval::Un(_), [a]) if cx_form => {
            let z = widened(a)?;
            let paren = !(bare && a.1);
            let zp = if paren { format!("({z})") } else { z.clone() };
            match name {
                "abs" => Some((format!("cx_abs({z})"), false)),
                "real" => Some((format!("{zp}.re"), false)),
                "imag" => Some((format!("{zp}.im"), false)),
                "angle" => Some((format!("atan2({zp}.im, {zp}.re)"), false)),
                _ => (!b.real_only).then(|| (format!("cx_{name}({z})"), true)),
            }
        }
        (Eval::Un(_), [(e, _)]) => {
            let text = match name {
                "abs" => format!("fabs({e})"),
                "real" | "conj" => e.clone(),
                "imag" => "0.0".to_string(),
                "sign" => format!("matic_sign({e})"),
                // atan2(+0, x): pi for negatives and -0.0, as in the
                // interpreter.
                "angle" => format!("atan2(0.0, {e})"),
                "fix" => format!("trunc({e})"),
                _ => format!("{name}({e})"),
            };
            Some((text, false))
        }
        (Eval::Bin(_), [a, c]) if any_cx => {
            let (za, zc) = (widened(a)?, widened(c)?);
            (!b.real_only).then(|| (format!("cx_{name}({za}, {zc})"), true))
        }
        (Eval::Bin(_), [(a, _), (c, _)]) => Some(match name {
            "mod" | "rem" => (format!("matic_{name}({a}, {c})"), false),
            "complex" => (format!("cx_make({a}, {c})"), true),
            "min" | "max" => (format!("f{name}({a}, {c})"), false),
            _ => (format!("{name}({a}, {c})"), false),
        }),
        _ => None,
    };
    let (text, cx) = spelled.ok_or_else(|| {
        let msg = format!("builtin `{name}` has no C spelling for these argument types");
        CodegenError::new(msg, span)
    })?;
    coerce(text, cx, d_cx, span)
}

impl FnEmitter<'_> {
    /// C expression for a scalar-valued operand. `want_cx` selects the
    /// complex representation (reals are wrapped, complex is never
    /// silently truncated).
    pub(super) fn scalar(
        &self,
        op: Operand,
        want_cx: bool,
        span: Span,
    ) -> Result<String, CodegenError> {
        let (expr, is_cx) = match op {
            Operand::Const(v) => (fmt_f64(v), false),
            Operand::ConstC(re, im) => (format!("cx_make({}, {})", fmt_f64(re), fmt_f64(im)), true),
            Operand::Var(v) => {
                let name = c_name(self.f, v);
                let r = self.repr(v)?;
                // A runtime-scalar held in a descriptor reads element 0.
                let expr = if r.is_scalar() {
                    name
                } else {
                    format!("{name}.data[0]")
                };
                (expr, r.is_cx())
            }
        };
        coerce(expr, is_cx, want_cx, span)
    }

    /// C int expression for an index operand (1-based MATLAB value).
    pub(super) fn index0(&self, op: Operand, span: Span) -> Result<String, CodegenError> {
        Ok(format!("((int)({}) - 1)", self.scalar(op, false, span)?))
    }

    /// Truthiness test of an operand.
    pub(super) fn truthy(&mut self, op: Operand, span: Span) -> Result<String, CodegenError> {
        match self.op_repr(op)? {
            Repr::RealScalar => Ok(format!("({} != 0.0)", self.scalar(op, false, span)?)),
            Repr::CxScalar => {
                let e = self.scalar(op, true, span)?;
                Ok(format!("({e}.re != 0.0 || {e}.im != 0.0)"))
            }
            Repr::RealArr => {
                let v = self.array_var(op, span)?;
                Ok(format!("matic_all(&{})", c_name(self.f, v)))
            }
            Repr::CxArr => {
                let v = self.array_var(op, span)?;
                Ok(format!("matic_call(&{})", c_name(self.f, v)))
            }
        }
    }

    /// The register behind an array-represented operand.
    ///
    /// Array reprs are only ever assigned to registers, so a constant here
    /// means the repr analysis and the emitter disagree — reported as a
    /// structured error instead of a panic.
    pub(super) fn array_var(&self, op: Operand, span: Span) -> Result<VarId, CodegenError> {
        op.as_var()
            .ok_or_else(|| CodegenError::new("array-valued operand is not a register", span))
    }

    /// Element access for an operand inside an element-wise loop (`i` is
    /// the 0-based linear element index); scalars broadcast.
    pub(super) fn elem(
        &self,
        op: Operand,
        i: &str,
        want_cx: bool,
        span: Span,
    ) -> Result<String, CodegenError> {
        let r = self.op_repr(op)?;
        if r.is_scalar() {
            return self.scalar(op, want_cx, span);
        }
        let name = c_name(self.f, self.array_var(op, span)?);
        // 1x1 runtime values held in descriptors broadcast to index 0;
        // for same-size arrays the compiler emits a dimension check first
        // and any remaining out-of-range lane traps instead of wrapping.
        let e = format!("{name}.data[matic_bcast({i}, {name}.rows * {name}.cols, \"{name}\")]");
        coerce(e, r.is_cx(), want_cx, span)
    }

    /// `a op b` at element `i` (scalars broadcast). The operation runs on
    /// complex values when either operand is complex, or when a complex
    /// destination asks for anything but a comparison.
    pub(super) fn binop_at(
        &self,
        op: BinOp,
        a: Operand,
        b: Operand,
        i: &str,
        want_cx: bool,
        span: Span,
    ) -> Result<String, CodegenError> {
        let cx = self.op_repr(a)?.is_cx()
            || self.op_repr(b)?.is_cx()
            || (want_cx && !op.is_comparison());
        if cx && !want_cx && !op.is_comparison() {
            return Err(CodegenError::new(
                "complex result assigned to real destination",
                span,
            ));
        }
        let ea = self.elem(a, i, cx, span)?;
        let eb = self.elem(b, i, cx, span)?;
        binop(op, &ea, &eb, cx, span)
    }

    /// `(rows * cols)` of an array-represented operand; `None` for scalars.
    pub(super) fn numel_expr(&self, op: Operand) -> Option<String> {
        let v = op.as_var()?;
        if self.repr(v).ok()?.is_scalar() {
            return None;
        }
        let name = c_name(self.f, v);
        Some(format!("({name}.rows * {name}.cols)"))
    }

    /// Element of array `v` at C index expression `idx`, coerced to
    /// complex when asked.
    pub(super) fn cast_elem(
        &self,
        v: VarId,
        idx: &str,
        want_cx: bool,
    ) -> Result<String, CodegenError> {
        let e = format!("{}.data[{idx}]", c_name(self.f, v));
        coerce(e, self.repr(v)?.is_cx(), want_cx, Span::dummy())
    }

    /// `(data-pointer, numel)` expressions valid for either repr: a 1×1
    /// register is realized as a bare scalar, so its "data" is its own
    /// address and its element count is 1.
    pub(super) fn elem_base(&self, array: VarId) -> Result<(String, String), CodegenError> {
        let aname = c_name(self.f, array);
        Ok(if self.repr(array)?.is_scalar() {
            (format!("(&{aname})"), "1".to_string())
        } else {
            (
                format!("{aname}.data"),
                format!("{aname}.rows * {aname}.cols"),
            )
        })
    }

    /// Bounds-checked element of `array` at 0-based `idx0`, widened to
    /// complex when asked; `what` names the access in the trap message.
    pub(super) fn checked_elem(
        &self,
        array: VarId,
        idx0: &str,
        widen: bool,
        what: &str,
    ) -> Result<String, CodegenError> {
        let (ptr, numel) = self.elem_base(array)?;
        let e = format!("{ptr}[MATIC_IDX({idx0}, {numel}, \"{what}\")]");
        coerce(e, self.repr(array)?.is_cx(), widen, Span::dummy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_sema::registry::BUILTINS;
    use matic_sema::{builtin_call_error, builtin_result, Class, Shape, Ty};

    #[test]
    fn every_registry_entry_is_spelled_for_every_argument_type_sema_accepts() {
        for b in &BUILTINS {
            for mask in 0..1u32 << b.arity() {
                let cx: Vec<bool> = (0..b.arity()).map(|k| mask >> k & 1 == 1).collect();
                let tys: Vec<Ty> = cx
                    .iter()
                    .map(|&c| {
                        Ty::new(
                            if c { Class::Complex } else { Class::Double },
                            Shape::scalar(),
                        )
                    })
                    .collect();
                if builtin_call_error(b.name, &tys).is_some() {
                    assert!(b.real_only && cx.contains(&true), "{} {cx:?}", b.name);
                    continue;
                }
                let d_cx = builtin_result(b.name, &tys).expect("typed").class == Class::Complex;
                let args: Vec<(String, bool)> = ["a", "b"]
                    .iter()
                    .map(|e| e.to_string())
                    .zip(cx.clone())
                    .collect();
                if let Err(e) = builtin_c(b, &args, false, d_cx, Span::dummy()) {
                    panic!("{} {cx:?}: {e}", b.name);
                }
            }
        }
    }

    #[test]
    fn round_and_fix_are_the_c99_functions() {
        let b = |name| matic_sema::registry::lookup(name).unwrap();
        let spell = |name, cx| {
            let arg = [(if cx { "z" } else { "x" }.to_string(), cx)];
            builtin_c(b(name), &arg, false, cx, Span::dummy()).unwrap()
        };
        assert_eq!(spell("round", false), "round(x)");
        assert_eq!(spell("fix", false), "trunc(x)");
        assert_eq!(spell("fix", true), "cx_fix(z)");
    }
}
