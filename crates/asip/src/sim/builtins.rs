//! Builtin functions, including the discovered fused scalar
//! instructions (`__fused_*`). The scalar builtins are one table,
//! [`scalar_builtin`], resolved once per call site: the native engine's
//! chain ops and [`Exec::eval_builtin`] both read it. The constants and
//! element-wise builtins come from the builtin registry
//! ([`matic_interp::registry`]): their values and per-element charges.
//! Every other builtin (the reductions, `[m, k] = min`/`max`, `dot`,
//! `norm`, `cumsum`, the flips, `linspace`, `size`) takes its outputs
//! from the interpreter ([`matic_interp::call_pure_builtin`]) and its
//! charge from one table keyed by name, [`array_charge`]: a function of
//! the first argument's element count, whether every argument is real,
//! and the first output's element count.

use super::{Env, Exec, SimError, SimVal};
use matic_frontend::span::Span;
use matic_interp::registry::{self, Eval};
use matic_interp::{Cx, Matrix, Value};
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
        dst: VarId,
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
        let scalar_args = args.len() <= 2
            && args
                .iter()
                .all(|a| matches!(self.operand(f, env, *a, span), Ok(SimVal::Scalar(_))));
        match scalar {
            // The C backend spells a scalar result of scalar arguments
            // from the scalar table alone.
            None if scalar_args && f.var_ty(dst).shape.is_scalar() => {
                return Err(SimError::new(
                    format!("scalar builtin `{name}` unsupported in simulation"),
                    span,
                ))
            }
            Some((BuiltinFn::Un(g), charge)) if scalar_args => {
                let x = self.scalar_of(f, env, args[0], span)?;
                self.charge_builtin(charge);
                return Ok(SimVal::Scalar(g(x)));
            }
            Some((BuiltinFn::Bin(g), charge)) if scalar_args => {
                let x = self.scalar_of(f, env, args[0], span)?;
                self.charge_builtin(charge);
                return Ok(SimVal::Scalar(g(x, self.scalar_of(f, env, args[1], span)?)));
            }
            _ => {}
        }

        // A registry entry with an array argument: each element is
        // loaded, computed, stored and looped over.
        if let Some(b) = registry::lookup_call(name, args.len()) {
            let m = self.operand(f, env, args[0], span)?.into_matrix();
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
        let mut outs = self.interp_builtin(f, env, name, args, 1, span)?;
        Ok(SimVal::Arr(outs.swap_remove(0)))
    }

    /// The `nargout` outputs of a builtin that is neither scalar nor a
    /// registry entry, as the interpreter computes them
    /// ([`matic_interp::call_pure_builtin`]), charged by [`array_charge`].
    pub(super) fn interp_builtin(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        name: &str,
        args: &[Operand],
        nargout: usize,
        span: Span,
    ) -> Result<Vec<Matrix>, SimError> {
        let mut inputs = Vec::with_capacity(args.len());
        for a in args {
            inputs.push(self.operand(f, env, *a, span)?.into_matrix());
        }
        let real = inputs.iter().all(Matrix::is_real);
        let n = inputs.first().map_or(0, |m| m.numel() as u64);
        let charge = array_charge(name, real).ok_or_else(|| {
            SimError::new(
                format!("array builtin `{name}` unsupported in simulation"),
                span,
            )
        })?;
        let inputs = inputs.into_iter().map(Value::Num).collect();
        let outs: Vec<Matrix> = matic_interp::call_pure_builtin(name, inputs, nargout)
            .and_then(|outs| outs.into_iter().map(Value::into_matrix).collect())
            .map_err(|e| SimError::new(e, span))?;
        let out = outs.first().map_or(0, |m| m.numel() as u64);
        charge(self, n, out);
        Ok(outs)
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

    /// Charges `k · n` of each `(class, k)` in `per`.
    fn each(&mut self, n: u64, per: &[(OpClass, u64)]) {
        for &(class, k) in per {
            self.charge(class, k * n);
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

/// How a builtin whose value comes from the interpreter charges: `n`
/// elements of its first argument and `out` of its first output.
type ArrayCharge = fn(&mut Exec<'_>, n: u64, out: u64);

/// The charge of each builtin [`Exec::interp_builtin`] takes from the
/// interpreter, keyed by name and whether every argument is `real`: a
/// loop over the first argument's elements, except `linspace` (over its
/// output's) and `size` (two register moves). `None` for what the C
/// backend does not emit, which the simulator rejects too: a name not
/// listed, or a complex `cumsum`.
#[rustfmt::skip]
fn array_charge(name: &str, real: bool) -> Option<ArrayCharge> {
    use OpClass::{Branch, Load, ScalarAlu as Alu, ScalarDiv as Div, ScalarMul as Mul};
    use OpClass::{ScalarSqrt as Sqrt, Store};
    Some(match (name, real) {
        ("sum", true) => |e, n, _| e.each(n, &[(Load, 1), (Alu, 1), (Branch, 1)]),
        ("sum", false) => |e, n, _| { e.each(n, &[(Load, 1), (Branch, 1)]); e.cx_add_cost(n) },
        ("mean", true) => |e, n, out| { e.each(n, &[(Load, 1), (Alu, 1), (Branch, 1)]); e.charge(Div, out) },
        ("mean", false) => |e, n, out| { e.each(n, &[(Load, 1), (Branch, 1)]); e.cx_add_cost(n); e.charge(Div, out) },
        ("prod", true) => |e, n, _| e.each(n, &[(Load, 1), (Mul, 1), (Branch, 1)]),
        ("prod", false) => |e, n, _| { e.each(n, &[(Load, 1), (Branch, 1)]); e.cx_mul_cost(n) },
        ("min" | "max" | "any" | "all", _) => |e, n, _| e.each(n, &[(Load, 1), (Alu, 1), (Branch, 1)]),
        ("dot", true) => |e, n, _| e.each(n, &[(Load, 2), (Mul, 1), (Alu, 1), (Branch, 1)]),
        ("dot", false) => |e, n, _| { e.each(n, &[(Load, 2), (Branch, 1)]); e.cx_mac_cost(n) },
        ("norm", _) => |e, n, _| { e.each(n, &[(Load, 1), (Mul, 2), (Alu, 1), (Branch, 1)]); e.charge(Sqrt, 1) },
        ("cumsum", true) => |e, n, _| e.each(n, &[(Load, 1), (Alu, 1), (Store, 1), (Branch, 1)]),
        ("fliplr" | "flipud", _) => |e, n, _| e.each(n, &[(Load, 1), (Store, 1), (Branch, 1)]),
        ("linspace", _) => |e, _, out| e.each(out, &[(Alu, 1), (Store, 1)]),
        ("size", _) => |e, _, _| e.charge(Alu, 2),
        _ => return None,
    })
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
