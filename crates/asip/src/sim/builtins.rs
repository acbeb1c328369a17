//! Builtin functions, including the discovered fused scalar
//! instructions (`__fused_*`).

use super::{Env, Exec, SimError, SimVal};
use matic_frontend::span::Span;
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

    pub(super) fn eval_builtin(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        _dst: VarId,
        name: &str,
        args: &[Operand],
        span: Span,
    ) -> Result<SimVal, SimError> {
        // Constants.
        match name {
            "pi" => return Ok(SimVal::scalar(std::f64::consts::PI)),
            "eps" => return Ok(SimVal::scalar(f64::EPSILON)),
            "Inf" | "inf" => return Ok(SimVal::scalar(f64::INFINITY)),
            "NaN" | "nan" => return Ok(SimVal::scalar(f64::NAN)),
            "i" | "j" => return Ok(SimVal::Scalar(Cx::I)),
            _ => {}
        }

        // Discovered fused scalar instructions (`__fused_*`): injected by
        // the discovery rewriter over statement pairs, never produced by
        // the frontend. Handled before the generic argument staging below
        // because they take three operands.
        if let Some(fop) = FusedOp::from_builtin_name(name) {
            return self.eval_fused(f, env, fop, args, span);
        }

        let first = args
            .first()
            .map(|a| self.operand(f, env, *a, span))
            .transpose()?;

        // Shape queries are register/ALU work.
        match name {
            "numel" | "length" | "size" | "isempty" => {
                self.charge(OpClass::ScalarAlu, 1);
                let m = first
                    .ok_or_else(|| SimError::new(format!("{name}: missing argument"), span))?
                    .into_matrix();
                let v = match name {
                    "numel" => m.numel() as f64,
                    "length" => m.length() as f64,
                    "isempty" => {
                        if m.is_empty() {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    "size" => {
                        let d = self.real_of(f, env, args[1], span)? as i64;
                        match d {
                            1 => m.rows() as f64,
                            2 => m.cols() as f64,
                            _ => 1.0,
                        }
                    }
                    _ => unreachable!(),
                };
                return Ok(SimVal::scalar(v));
            }
            _ => {}
        }

        let scalar_args = args.len() <= 2
            && args
                .iter()
                .all(|a| matches!(self.operand(f, env, *a, span), Ok(SimVal::Scalar(_))));

        if scalar_args {
            // Scalar math.
            let x = self.scalar_of(f, env, args[0], span)?;
            let cost = |exec: &mut Self, class: OpClass| exec.charge(class, 1);
            let v: Cx = match name {
                "abs" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.abs())
                }
                "sqrt" => {
                    cost(self, OpClass::ScalarSqrt);
                    x.sqrt()
                }
                "exp" => {
                    cost(self, OpClass::ScalarTrans);
                    x.exp()
                }
                "log" => {
                    cost(self, OpClass::ScalarTrans);
                    if x.is_real() && x.re > 0.0 {
                        Cx::real(x.re.ln())
                    } else {
                        x.ln()
                    }
                }
                "log2" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.log2())
                }
                "log10" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.log10())
                }
                "sin" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.sin())
                }
                "cos" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.cos())
                }
                "tan" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.tan())
                }
                "asin" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.asin())
                }
                "acos" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.acos())
                }
                "atan" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.re.atan())
                }
                "atan2" => {
                    cost(self, OpClass::ScalarTrans);
                    let y = self.scalar_of(f, env, args[1], span)?;
                    Cx::real(x.re.atan2(y.re))
                }
                "floor" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.re.floor())
                }
                "ceil" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.re.ceil())
                }
                "round" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.re.round())
                }
                "fix" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.re.trunc())
                }
                "sign" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(if x.re > 0.0 {
                        1.0
                    } else if x.re < 0.0 {
                        -1.0
                    } else {
                        0.0
                    })
                }
                "mod" => {
                    self.charge(OpClass::ScalarDiv, 1);
                    let y = self.scalar_of(f, env, args[1], span)?;
                    if y.re == 0.0 {
                        Cx::real(x.re)
                    } else {
                        Cx::real(x.re - (x.re / y.re).floor() * y.re)
                    }
                }
                "rem" => {
                    self.charge(OpClass::ScalarDiv, 1);
                    let y = self.scalar_of(f, env, args[1], span)?;
                    if y.re == 0.0 {
                        Cx::real(f64::NAN)
                    } else {
                        Cx::real(x.re - (x.re / y.re).trunc() * y.re)
                    }
                }
                "real" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.re)
                }
                "imag" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.im)
                }
                "conj" => {
                    self.conj_cost(1);
                    x.conj()
                }
                "angle" => {
                    cost(self, OpClass::ScalarTrans);
                    Cx::real(x.arg())
                }
                "min" | "max" if args.len() >= 2 => {
                    cost(self, OpClass::ScalarAlu);
                    let y = self.scalar_of(f, env, args[1], span)?;
                    let better = if name == "min" {
                        x.re < y.re
                    } else {
                        x.re > y.re
                    };
                    if better {
                        x
                    } else {
                        y
                    }
                }
                "min" | "max" | "sum" | "prod" | "mean" => {
                    cost(self, OpClass::ScalarAlu);
                    x
                }
                "norm" => {
                    cost(self, OpClass::ScalarAlu);
                    Cx::real(x.abs())
                }
                "complex" => {
                    cost(self, OpClass::ScalarAlu);
                    let y = self.scalar_of(f, env, args[1], span)?;
                    Cx::new(x.re, y.re)
                }
                "isreal" => Cx::real(if x.is_real() { 1.0 } else { 0.0 }),
                "isscalar" => Cx::real(1.0),
                other => {
                    return Err(SimError::new(
                        format!("scalar builtin `{other}` unsupported in simulation"),
                        span,
                    ))
                }
            };
            return Ok(SimVal::Scalar(v));
        }

        // Array builtins.
        let m = first
            .ok_or_else(|| SimError::new(format!("{name}: missing argument"), span))?
            .into_matrix();
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
            "abs" | "sqrt" | "exp" | "log" | "sin" | "cos" | "floor" | "ceil" | "round" | "fix"
            | "sign" | "real" | "imag" | "conj" | "angle" => {
                self.charge(OpClass::Load, n);
                self.charge(OpClass::Store, n);
                self.charge(OpClass::Branch, n);
                match name {
                    "sqrt" => self.charge(OpClass::ScalarSqrt, n),
                    "exp" | "log" | "sin" | "cos" | "angle" => self.charge(OpClass::ScalarTrans, n),
                    "conj" => self.conj_cost(n),
                    _ => self.charge(OpClass::ScalarAlu, n),
                }
                let out = m.map(|z| match name {
                    "abs" => Cx::real(z.abs()),
                    "sqrt" => z.sqrt(),
                    "exp" => z.exp(),
                    "log" => {
                        if z.is_real() && z.re > 0.0 {
                            Cx::real(z.re.ln())
                        } else {
                            z.ln()
                        }
                    }
                    "sin" => Cx::real(z.re.sin()),
                    "cos" => Cx::real(z.re.cos()),
                    "floor" => Cx::real(z.re.floor()),
                    "ceil" => Cx::real(z.re.ceil()),
                    "round" => Cx::real(z.re.round()),
                    "fix" => Cx::real(z.re.trunc()),
                    "sign" => Cx::real(if z.re > 0.0 {
                        1.0
                    } else if z.re < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }),
                    "real" => Cx::real(z.re),
                    "imag" => Cx::real(z.im),
                    "conj" => z.conj(),
                    "angle" => Cx::real(z.arg()),
                    _ => unreachable!(),
                });
                Ok(SimVal::Arr(out))
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
            "complex" => {
                let mb = self.operand(f, env, args[1], span)?.into_matrix();
                self.charge(OpClass::Load, 2 * n);
                self.charge(OpClass::Store, n);
                let out = m
                    .zip(&mb, |a, b| Cx::new(a.re, b.re))
                    .map_err(|e| SimError::new(e, span))?;
                Ok(SimVal::Arr(out))
            }
            other => Err(SimError::new(
                format!("array builtin `{other}` unsupported in simulation"),
                span,
            )),
        }
    }
}
