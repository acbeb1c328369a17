//! Affine index analysis for loop idiom recognition.
//!
//! Inside a candidate loop `for i = s : 1 : e`, an array subscript is
//! *affine in `i`* when it has the form `c·i + Σ inv_k` where `c` is a
//! compile-time constant and every `inv_k` is loop-invariant. Affine
//! subscripts translate directly to the strided slices that SIMD custom
//! instructions consume.

use matic_frontend::ast::BinOp;
use matic_frontend::span::Span;
use matic_mir::{MirFunction, Operand, Rvalue, Stmt, VarId};
use matic_sema::Ty;
use std::collections::HashSet;

/// `coeff · i + const_part + Σ var_terms` (each var term signed).
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Coefficient of the induction variable (0 = loop-invariant index).
    pub i_coeff: f64,
    /// Constant addend.
    pub const_part: f64,
    /// Loop-invariant variable addends with their signs.
    pub var_terms: Vec<(VarId, f64)>,
}

impl Affine {
    /// A pure constant.
    pub fn constant(c: f64) -> Affine {
        Affine {
            i_coeff: 0.0,
            const_part: c,
            var_terms: Vec::new(),
        }
    }

    /// Whether the index does not move with the loop.
    pub fn is_invariant(&self) -> bool {
        self.i_coeff == 0.0
    }

    fn add(mut self, other: Affine, sign: f64) -> Affine {
        self.i_coeff += sign * other.i_coeff;
        self.const_part += sign * other.const_part;
        for (v, s) in other.var_terms {
            self.var_terms.push((v, sign * s));
        }
        self
    }

    fn scale(mut self, k: f64) -> Affine {
        self.i_coeff *= k;
        self.const_part *= k;
        for t in &mut self.var_terms {
            t.1 *= k;
        }
        self
    }
}

/// Tracks which registers are loop-invariant for one candidate loop.
pub struct LoopEnv {
    /// The induction variable.
    pub induction: VarId,
    /// Registers (re)defined inside the loop body (not invariant).
    pub defined_in_body: HashSet<VarId>,
}

impl LoopEnv {
    /// Builds the environment for `body` of a loop over `induction`.
    pub fn new(induction: VarId, body: &[Stmt]) -> Self {
        let mut defined_in_body = HashSet::new();
        matic_mir::walk_stmts(body, &mut |s| {
            s.visit_regs(&mut |v, access| {
                if access.writes() {
                    defined_in_body.insert(v);
                }
            })
        });
        LoopEnv {
            induction,
            defined_in_body,
        }
    }

    /// Whether an operand's value is fixed across loop iterations.
    pub fn is_invariant(&self, op: Operand) -> bool {
        match op {
            Operand::Const(_) | Operand::ConstC(..) => true,
            Operand::Var(v) => v != self.induction && !self.defined_in_body.contains(&v),
        }
    }

    /// Resolves `op` to an affine form over the induction variable.
    ///
    /// `local_defs` supplies symbolic bindings for temporaries defined
    /// earlier in the body (index arithmetic like `n - k + 1` lowers to a
    /// chain of scalar `Def`s), in body order. A temporary resolves to its
    /// last def, whose operands resolve among the defs before it only: a
    /// def that reads its own destination (`y = y - x(k)`) reads the value
    /// from before it, which is carried across iterations and so not
    /// affine.
    pub fn affine_of(&self, op: Operand, local_defs: &[(VarId, &Rvalue)]) -> Option<Affine> {
        match op {
            Operand::Const(c) => Some(Affine::constant(c)),
            Operand::ConstC(..) => None,
            Operand::Var(v) if v == self.induction => Some(Affine {
                i_coeff: 1.0,
                const_part: 0.0,
                var_terms: Vec::new(),
            }),
            Operand::Var(v) => {
                if !self.defined_in_body.contains(&v) {
                    return Some(Affine {
                        i_coeff: 0.0,
                        const_part: 0.0,
                        var_terms: vec![(v, 1.0)],
                    });
                }
                // A temporary defined in the body: follow its definition.
                let at = local_defs.iter().rposition(|(d, _)| *d == v)?;
                let (rv, local_defs) = (local_defs[at].1, &local_defs[..at]);
                match rv {
                    Rvalue::Use(inner) => self.affine_of(*inner, local_defs),
                    Rvalue::Binary { op, a, b } => {
                        let fa = self.affine_of(*a, local_defs)?;
                        let fb = self.affine_of(*b, local_defs)?;
                        match op {
                            BinOp::Add => Some(fa.add(fb, 1.0)),
                            BinOp::Sub => Some(fa.add(fb, -1.0)),
                            BinOp::ElemMul | BinOp::MatMul => {
                                // Only constant scaling keeps affinity.
                                if fb.i_coeff == 0.0 && fb.var_terms.is_empty() {
                                    Some(fa.scale(fb.const_part))
                                } else if fa.i_coeff == 0.0 && fa.var_terms.is_empty() {
                                    Some(fb.scale(fa.const_part))
                                } else {
                                    None
                                }
                            }
                            _ => None,
                        }
                    }
                    Rvalue::Unary {
                        op: matic_frontend::ast::UnOp::Neg,
                        a,
                    } => Some(self.affine_of(*a, local_defs)?.scale(-1.0)),
                    _ => None,
                }
            }
        }
    }
}

/// Emits statements computing the value of an affine form at `i = at`,
/// returning the operand holding the result. Constant parts fold away.
pub fn emit_affine(
    func: &mut MirFunction,
    out: &mut Vec<Stmt>,
    affine: &Affine,
    at: Operand,
    span: Span,
) -> Operand {
    // value = i_coeff * at + const_part + Σ var_terms
    let mut acc: Option<Operand> = None;
    let mut const_acc = affine.const_part;

    let push_term = |func: &mut MirFunction,
                     out: &mut Vec<Stmt>,
                     acc: &mut Option<Operand>,
                     term: Operand,
                     sign: f64| {
        match (*acc, term, sign) {
            (None, t, 1.0) => *acc = Some(t),
            (None, t, _) => {
                let tmp = func.add_temp(Ty::double_scalar());
                out.push(Stmt::Def {
                    dst: tmp,
                    rv: Rvalue::Unary {
                        op: matic_frontend::ast::UnOp::Neg,
                        a: t,
                    },
                    span,
                });
                *acc = Some(Operand::Var(tmp));
            }
            (Some(prev), t, s) => {
                let tmp = func.add_temp(Ty::double_scalar());
                out.push(Stmt::Def {
                    dst: tmp,
                    rv: Rvalue::Binary {
                        op: if s >= 0.0 { BinOp::Add } else { BinOp::Sub },
                        a: prev,
                        b: t,
                    },
                    span,
                });
                *acc = Some(Operand::Var(tmp));
            }
        }
    };

    if affine.i_coeff != 0.0 {
        match at.as_const() {
            Some(c) => const_acc += affine.i_coeff * c,
            None => {
                let scaled = if affine.i_coeff == 1.0 {
                    at
                } else {
                    let tmp = func.add_temp(Ty::double_scalar());
                    out.push(Stmt::Def {
                        dst: tmp,
                        rv: Rvalue::Binary {
                            op: BinOp::ElemMul,
                            a: Operand::Const(affine.i_coeff),
                            b: at,
                        },
                        span,
                    });
                    Operand::Var(tmp)
                };
                push_term(func, out, &mut acc, scaled, 1.0);
            }
        }
    }
    for &(v, s) in &affine.var_terms {
        push_term(func, out, &mut acc, Operand::Var(v), s);
    }
    match acc {
        None => Operand::Const(const_acc),
        Some(a) if const_acc == 0.0 => a,
        Some(a) => {
            let tmp = func.add_temp(Ty::double_scalar());
            out.push(Stmt::Def {
                dst: tmp,
                rv: Rvalue::Binary {
                    op: if const_acc >= 0.0 {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    },
                    a,
                    b: Operand::Const(const_acc.abs()),
                },
                span,
            });
            Operand::Var(tmp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_sema::Ty;

    fn setup() -> (MirFunction, VarId, VarId) {
        let mut f = MirFunction::new("t");
        let i = f.add_var("i", Ty::double_scalar());
        let n = f.add_var("n", Ty::double_scalar());
        (f, i, n)
    }

    #[test]
    fn direct_induction() {
        let (_f, i, _) = setup();
        let env = LoopEnv::new(i, &[]);
        let a = env.affine_of(Operand::Var(i), &[]).unwrap();
        assert_eq!(a.i_coeff, 1.0);
        assert_eq!(a.const_part, 0.0);
    }

    #[test]
    fn invariant_var() {
        let (_f, i, n) = setup();
        let env = LoopEnv::new(i, &[]);
        let a = env.affine_of(Operand::Var(n), &[]).unwrap();
        assert!(a.is_invariant());
        assert_eq!(a.var_terms, vec![(n, 1.0)]);
    }

    #[test]
    fn i_plus_const_through_temp() {
        let (mut f, i, _) = setup();
        let t = f.add_temp(Ty::double_scalar());
        let rv = Rvalue::Binary {
            op: BinOp::Add,
            a: Operand::Var(i),
            b: Operand::Const(3.0),
        };
        let body = [Stmt::Def {
            dst: t,
            rv: rv.clone(),
            span: Span::dummy(),
        }];
        let env = LoopEnv::new(i, &body);
        let defs = vec![(t, &rv)];
        let a = env.affine_of(Operand::Var(t), &defs).unwrap();
        assert_eq!(a.i_coeff, 1.0);
        assert_eq!(a.const_part, 3.0);
    }

    #[test]
    fn reversed_index_n_minus_i() {
        let (mut f, i, n) = setup();
        let t = f.add_temp(Ty::double_scalar());
        let rv = Rvalue::Binary {
            op: BinOp::Sub,
            a: Operand::Var(n),
            b: Operand::Var(i),
        };
        let body = [Stmt::Def {
            dst: t,
            rv: rv.clone(),
            span: Span::dummy(),
        }];
        let env = LoopEnv::new(i, &body);
        let defs = vec![(t, &rv)];
        let a = env.affine_of(Operand::Var(t), &defs).unwrap();
        assert_eq!(a.i_coeff, -1.0);
        assert_eq!(a.var_terms, vec![(n, 1.0)]);
    }

    #[test]
    fn scaled_induction() {
        let (mut f, i, _) = setup();
        let t = f.add_temp(Ty::double_scalar());
        let rv = Rvalue::Binary {
            op: BinOp::ElemMul,
            a: Operand::Const(2.0),
            b: Operand::Var(i),
        };
        let body = [Stmt::Def {
            dst: t,
            rv: rv.clone(),
            span: Span::dummy(),
        }];
        let env = LoopEnv::new(i, &body);
        let defs = vec![(t, &rv)];
        let a = env.affine_of(Operand::Var(t), &defs).unwrap();
        assert_eq!(a.i_coeff, 2.0);
    }

    #[test]
    fn def_reading_its_own_destination_is_not_affine() {
        let (mut f, i, _) = setup();
        let y = f.add_var("y", Ty::double_scalar());
        let t = f.add_temp(Ty::double_scalar());
        let load = Rvalue::Use(Operand::Var(i));
        for op in [BinOp::Sub, BinOp::ElemMul, BinOp::ElemDiv, BinOp::Add] {
            let rv = Rvalue::Binary {
                op,
                a: Operand::Var(y),
                b: Operand::Var(t),
            };
            let body = [
                Stmt::Def {
                    dst: t,
                    rv: load.clone(),
                    span: Span::dummy(),
                },
                Stmt::Def {
                    dst: y,
                    rv: rv.clone(),
                    span: Span::dummy(),
                },
            ];
            let env = LoopEnv::new(i, &body);
            let defs = vec![(t, &load), (y, &rv)];
            assert_eq!(env.affine_of(Operand::Var(y), &defs), None, "{op:?}");
        }
    }

    #[test]
    fn body_defined_var_is_not_invariant() {
        let (mut f, i, _) = setup();
        let t = f.add_temp(Ty::double_scalar());
        let body = [Stmt::Def {
            dst: t,
            rv: Rvalue::Use(Operand::Const(0.0)),
            span: Span::dummy(),
        }];
        let env = LoopEnv::new(i, &body);
        assert!(!env.is_invariant(Operand::Var(t)));
        assert!(env.is_invariant(Operand::Const(4.0)));
        assert!(!env.is_invariant(Operand::Var(i)));
    }

    #[test]
    fn emit_affine_folds_constants() {
        let (mut f, i, _) = setup();
        let env = LoopEnv::new(i, &[]);
        let a = env.affine_of(Operand::Var(i), &[]).unwrap();
        let mut out = Vec::new();
        // i at i=start(=1) → 1.
        let v = emit_affine(&mut f, &mut out, &a, Operand::Const(1.0), Span::dummy());
        assert_eq!(v, Operand::Const(1.0));
        assert!(out.is_empty());
    }

    #[test]
    fn emit_affine_with_var_terms() {
        let (mut f, i, n) = setup();
        let affine = Affine {
            i_coeff: -1.0,
            const_part: 1.0,
            var_terms: vec![(n, 1.0)],
        };
        let mut out = Vec::new();
        // n - i + 1 at i = 1 → n - 1 + 1 → n: folds to the bare variable.
        let v = emit_affine(
            &mut f,
            &mut out,
            &affine,
            Operand::Const(1.0),
            Span::dummy(),
        );
        assert_eq!(v, Operand::Var(n));
        assert!(out.is_empty(), "no statements needed: {out:?}");
        let _ = i;
    }
}
