//! Builtin functions, including the discovered fused scalar
//! instructions (`__fused_*`). The scalar builtins are one table,
//! [`scalar_builtin`], resolved once per call site: the native engine's
//! chain ops and [`Exec::eval_builtin`] both read it. The constants and
//! element-wise builtins come from the builtin registry
//! ([`matic_interp::registry`]): their values and per-element charges.

use super::{Env, Exec, SimError, SimVal};
use matic_frontend::span::Span;
use matic_interp::registry::{self, Eval};
use matic_interp::{Cx, Matrix};
use matic_isa::{FusedOp, FusedPrim, OpClass};
use matic_mir::{MirFunction, Operand, VarId};

impl Exec<'_> {
    /// Executes a discovered fused scalar instruction
    /// (`d = __fused_*(a, b, c)`, see [`matic_isa::FusedOp`]).
    ///
    /// Value semantics are *exactly* the unfused statement pair's: the
    /// same primitive `Cx` operations in the same order, so rewritten MIR
    /// is bit-identical to the original whether or not the target prices
    /// a fused unit. Cycle accounting is the only difference: a priced
    /// [`OpClass::Fused`] unit charges one issue; otherwise each component
    /// charges what the original pair of `Binary` statements would
    /// (matching [`Exec::scalar_binop_cost`] per component), so an
    /// unpriced target also re-simulates with unchanged totals.
    fn eval_fused(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        fop: FusedOp,
        args: &[Operand],
        span: Span,
    ) -> Result<SimVal, SimError> {
        if args.len() != 3 {
            return Err(SimError::new(
                format!(
                    "{}: expected 3 operands, got {}",
                    fop.builtin_name(),
                    args.len()
                ),
                span,
            ));
        }
        let a = self.scalar_of(f, env, args[0], span)?;
        let b = self.scalar_of(f, env, args[1], span)?;
        let c = self.scalar_of(f, env, args[2], span)?;
        let prim = |p: FusedPrim, x: Cx, y: Cx| match p {
            FusedPrim::Add => x + y,
            FusedPrim::Sub => x - y,
            FusedPrim::Mul => x * y,
        };
        let t = prim(fop.first(), a, b);
        let d = if fop.swapped() {
            prim(fop.second(), c, t)
        } else {
            prim(fop.second(), t, c)
        };
        if self.machine.use_intrinsics && self.supports(OpClass::Fused) {
            self.charge(OpClass::Fused, 1);
        } else {
            self.fused_component_cost(fop.first(), !a.is_real() || !b.is_real());
            self.fused_component_cost(fop.second(), !t.is_real() || !c.is_real());
        }
        Ok(SimVal::Scalar(d))
    }

    /// One component of an unfused [`FusedOp`] fallback — the same charge
    /// the component's original `Binary` statement would make.
    fn fused_component_cost(&mut self, p: FusedPrim, complex: bool) {
        match (p, complex) {
            (FusedPrim::Mul, false) => self.charge(OpClass::ScalarMul, 1),
            (FusedPrim::Mul, true) => self.cx_mul_cost(1),
            (FusedPrim::Add | FusedPrim::Sub, false) => self.charge(OpClass::ScalarAlu, 1),
            (FusedPrim::Add | FusedPrim::Sub, true) => self.cx_add_cost(1),
        }
    }

    /// Charges `n` elements of an element builtin of `class` (a registry
    /// entry's charge), or `n` of a scalar builtin's charge: a complex
    /// conjugate through [`Exec::conj_cost`], any other class as it is.
    #[inline(always)]
    pub(super) fn charge_elem(&mut self, class: OpClass, n: u64) {
        if class == OpClass::ComplexConj {
            self.conj_cost(n);
        } else {
            self.charge(class, n);
        }
    }

    pub(super) fn eval_builtin(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        _dst: VarId,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<SimVal, SimError> {
        // Discovered fused scalar instructions (`__fused_*`): injected by
        // the discovery rewriter over statement pairs, never produced by
        // the frontend.
        if let Some(fop) = FusedOp::from_builtin_name(name) {
            return self.eval_fused(f, env, fop, args, span);
        }
        let scalar = scalar_builtin(name, args.len()).map(|s| (s.f, s.charge));
        // Constants and shape queries, on any argument: register/ALU work.
        match scalar {
            Some((BuiltinFn::Const(z), _)) => return Ok(SimVal::Scalar(z)),
            Some((BuiltinFn::Shape(query), charge)) => {
                let m = self.operand(f, env, args[0], span)?.into_matrix();
                self.charge_builtin(charge);
                return Ok(SimVal::scalar(query(&m)));
            }
            Some((BuiltinFn::Size, charge)) => {
                let m = self.operand(f, env, args[0], span)?.into_matrix();
                self.charge_builtin(charge);
                let d = self.real_of(f, env, args[1], span)?;
                return Ok(SimVal::scalar(size_along(&m, d)));
            }
            _ => {}
        }
        if let ("size", [a]) = (name, args) {
            // `size(a)`: the 1×2 row `[rows cols]`, two values as the
            // two-output form computes.
            let m = self.operand(f, env, *a, span)?.into_matrix();
            self.charge(OpClass::ScalarAlu, 2);
            return Ok(SimVal::Arr(Matrix::row_from_f64(&[
                m.rows() as f64,
                m.cols() as f64,
            ])));
        }

        let scalar_args = args.len() <= 2
            && args
                .iter()
                .all(|a| matches!(self.operand(f, env, *a, span), Ok(SimVal::Scalar(_))));

        if scalar_args {
            let v = match scalar {
                Some((BuiltinFn::Un(g), charge)) => {
                    let x = self.scalar_of(f, env, args[0], span)?;
                    self.charge_builtin(charge);
                    g(x)
                }
                Some((BuiltinFn::Bin(g), charge)) => {
                    let x = self.scalar_of(f, env, args[0], span)?;
                    self.charge_builtin(charge);
                    g(x, self.scalar_of(f, env, args[1], span)?)
                }
                _ => {
                    return Err(SimError::new(
                        format!("scalar builtin `{name}` unsupported in simulation"),
                        span,
                    ))
                }
            };
            return Ok(SimVal::Scalar(v));
        }

        // Array builtins.
        let m = args
            .first()
            .map(|a| self.operand(f, env, *a, span))
            .transpose()?
            .ok_or_else(|| SimError::new(format!("{name}: missing argument"), span))?
            .into_matrix();
        // A registry entry with an array argument: each element is
        // loaded, computed, stored and looped over.
        if let Some(b) = registry::lookup_call(name, args.len()) {
            let (out, inputs) = match b.eval {
                Eval::Un(g) => (m.map(g), 1),
                Eval::Bin(g) => {
                    let mb = self.operand(f, env, args[1], span)?.into_matrix();
                    let out = m.zip(&mb, g).map_err(|e| SimError::new(e, span))?;
                    (out, 2)
                }
                Eval::Const(_) => unreachable!("a constant returned above"),
            };
            let n = out.numel() as u64;
            self.charge(OpClass::Load, inputs * n);
            self.charge(OpClass::Store, n);
            self.charge(OpClass::Branch, n);
            self.charge_builtin(b.charge.map(|c| (c, n)));
            return Ok(SimVal::Arr(out));
        }
        let n = m.numel() as u64;
        match name {
            "sum" | "mean" => {
                self.charge(OpClass::Load, n);
                self.charge(OpClass::Branch, n);
                if m.is_real() {
                    self.charge(OpClass::ScalarAlu, n);
                } else {
                    self.cx_add_cost(n);
                }
                let mut acc = Cx::ZERO;
                for z in m.data() {
                    acc = acc + *z;
                }
                if name == "mean" {
                    self.charge(OpClass::ScalarDiv, 1);
                    acc = acc / Cx::real(m.numel() as f64);
                }
                Ok(SimVal::Scalar(acc))
            }
            "prod" => {
                self.charge(OpClass::Load, n);
                self.charge(OpClass::Branch, n);
                if m.is_real() {
                    self.charge(OpClass::ScalarMul, n);
                } else {
                    self.cx_mul_cost(n);
                }
                let mut acc = Cx::ONE;
                for z in m.data() {
                    acc = acc * *z;
                }
                Ok(SimVal::Scalar(acc))
            }
            "min" | "max" => {
                self.charge(OpClass::Load, n);
                self.charge(OpClass::ScalarAlu, n);
                self.charge(OpClass::Branch, n);
                if m.is_empty() {
                    return Err(SimError::new("min/max of empty array", span));
                }
                let better = |a: f64, b: f64| if name == "min" { a < b } else { a > b };
                let mut best = m.lin(0).re;
                for k in 1..m.numel() {
                    if better(m.lin(k).re, best) {
                        best = m.lin(k).re;
                    }
                }
                Ok(SimVal::scalar(best))
            }
            "dot" => {
                let mb = self.operand(f, env, args[1], span)?.into_matrix();
                if mb.numel() != m.numel() {
                    return Err(SimError::new("dot length mismatch", span));
                }
                self.charge(OpClass::Load, 2 * n);
                self.charge(OpClass::Branch, n);
                let complex = !m.is_real() || !mb.is_real();
                if complex {
                    self.cx_mac_cost(n);
                } else {
                    self.charge(OpClass::ScalarMul, n);
                    self.charge(OpClass::ScalarAlu, n);
                }
                let mut acc = Cx::ZERO;
                for (a, b) in m.data().iter().zip(mb.data()) {
                    acc = acc + a.conj() * *b;
                }
                Ok(SimVal::Scalar(acc))
            }
            "norm" => {
                self.charge(OpClass::Load, n);
                self.charge(OpClass::ScalarMul, 2 * n);
                self.charge(OpClass::ScalarAlu, n);
                self.charge(OpClass::Branch, n);
                self.charge(OpClass::ScalarSqrt, 1);
                let s: f64 = m.data().iter().map(|z| z.abs() * z.abs()).sum();
                Ok(SimVal::scalar(s.sqrt()))
            }
            "linspace" => {
                let a = self.real_of(f, env, args[0], span)?;
                let b = self.real_of(f, env, args[1], span)?;
                let count = if args.len() > 2 {
                    self.real_of(f, env, args[2], span)? as usize
                } else {
                    100
                };
                self.charge(OpClass::ScalarAlu, count as u64);
                self.charge(OpClass::Store, count as u64);
                let mut data = Vec::with_capacity(count);
                for k in 0..count {
                    let v = if count == 1 {
                        b
                    } else {
                        a + (b - a) * k as f64 / (count - 1) as f64
                    };
                    data.push(Cx::real(v));
                }
                Ok(SimVal::Arr(Matrix::new(1, count, data)))
            }
            other => Err(SimError::new(
                format!("array builtin `{other}` unsupported in simulation"),
                span,
            )),
        }
    }
}

impl Exec<'_> {
    /// Issues a scalar builtin's charge (see [`ScalarBuiltin`]).
    #[inline(always)]
    pub(super) fn charge_builtin(&mut self, charge: Option<(OpClass, u64)>) {
        if let Some((class, n)) = charge {
            self.charge_elem(class, n);
        }
    }
}

/// What a scalar builtin computes (see [`scalar_builtin`]).
#[derive(Clone, Copy)]
pub(super) enum BuiltinFn {
    /// A constant, whatever the arguments; it reads none.
    Const(Cx),
    /// A shape query of its one argument (`numel`, `length`, `isempty`).
    Shape(fn(&Matrix) -> f64),
    /// `size(a, d)`: the extent of `a` along the real part of `d`.
    Size,
    /// A function of one scalar.
    Un(fn(Cx) -> Cx),
    /// A function of two scalars.
    Bin(fn(Cx, Cx) -> Cx),
}

/// A builtin resolved once from its name and argument count: its value
/// and its charge, the one class and count it issues (`None` when it
/// issues nothing). A `ComplexConj` charge goes through
/// [`Exec::charge_elem`].
#[derive(Clone, Copy)]
pub(super) struct ScalarBuiltin {
    pub(super) f: BuiltinFn,
    pub(super) charge: Option<(OpClass, u64)>,
}

/// The scalar builtins by name and argument count: the one table
/// [`Exec::eval_builtin`] and the native engine's chain ops read. The
/// registry's entries come first, as constants and functions of one or
/// two scalars. `Un` and `Bin` entries apply when every argument is a
/// scalar (an array argument takes `eval_builtin`'s array path); `Shape`
/// and `Size` apply to any first argument.
pub(super) fn scalar_builtin(name: &str, nargs: usize) -> Option<ScalarBuiltin> {
    use BuiltinFn::{Bin, Const, Shape, Size, Un};
    if let Some(b) = registry::lookup_call(name, nargs) {
        let f = match b.eval {
            Eval::Const(z) => Const(z),
            Eval::Un(g) => Un(g),
            Eval::Bin(g) => Bin(g),
        };
        return Some(ScalarBuiltin {
            f,
            charge: b.charge.map(|c| (c, 1)),
        });
    }
    let alu = Some((OpClass::ScalarAlu, 1));
    let (f, charge) = match (name, nargs) {
        ("numel", 1) => (Shape(|m| m.numel() as f64), alu),
        ("length", 1) => (Shape(|m| m.length() as f64), alu),
        ("isempty", 1) => (Shape(|m| if m.is_empty() { 1.0 } else { 0.0 }), alu),
        ("size", 2) => (Size, alu),
        // A reduction of one scalar is that scalar.
        ("min" | "max" | "sum" | "prod" | "mean", 1) => (Un(|x| x), alu),
        ("norm", 1) => (Un(|x| Cx::real(x.abs())), alu),
        ("isreal", 1) => (Un(|x| Cx::real(if x.is_real() { 1.0 } else { 0.0 })), None),
        ("isscalar", 1) => (Un(|_| Cx::real(1.0)), None),
        _ => return None,
    };
    Some(ScalarBuiltin { f, charge })
}

/// `size(m, d)`: the rows for `d = 1`, the columns for `d = 2`, 1 past.
#[inline(always)]
pub(super) fn size_along(m: &Matrix, d: f64) -> f64 {
    match d as i64 {
        1 => m.rows() as f64,
        2 => m.cols() as f64,
        _ => 1.0,
    }
}
