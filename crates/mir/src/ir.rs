//! IR data structures.
//!
//! The MIR is *structured* (loops and conditionals stay explicit rather
//! than being flattened to a CFG), in the style of MLIR's `scf`/`affine`
//! dialects. For this compiler that is the right altitude: the paper's
//! core transformation — recognizing vectorizable loop idioms and mapping
//! them onto custom instructions — is a pattern match over `for` loops,
//! which structured IR exposes directly. Expressions are three-address:
//! every intermediate value lives in a typed virtual register.

use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_sema::Ty;
use std::fmt;

/// Identifier of a virtual register (variable or temporary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Metadata for one virtual register.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source name, or a `$tN` name for compiler temporaries.
    pub name: String,
    /// Inferred type.
    pub ty: Ty,
    /// Whether this is a formal parameter.
    pub is_param: bool,
}

/// An operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Virtual register.
    Var(VarId),
    /// Real immediate.
    Const(f64),
    /// Complex immediate.
    ConstC(f64, f64),
}

impl Operand {
    /// The constant real value, if this is a real immediate.
    pub fn as_const(self) -> Option<f64> {
        match self {
            Operand::Const(v) => Some(v),
            _ => None,
        }
    }

    /// The register, if this is one.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Operand {
        Operand::Var(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
            Operand::ConstC(re, im) => write!(f, "({re}+{im}i)"),
        }
    }
}

/// One subscript in an indexing operation (1-based, like the source).
#[derive(Debug, Clone, PartialEq)]
pub enum Index {
    /// A single scalar subscript.
    Scalar(Operand),
    /// `start : step : stop` slice.
    Range {
        /// First index.
        start: Operand,
        /// Stride.
        step: Operand,
        /// Last index (inclusive).
        stop: Operand,
    },
    /// `:` — the whole extent of this dimension.
    Full,
}

/// What `zeros`/`ones`/`eye` allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// All zeros.
    Zeros,
    /// All ones.
    Ones,
    /// Identity.
    Eye,
}

/// A reduction operator, used by reduce-style vector operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Sum of elements.
    Sum,
    /// Product of elements.
    Prod,
}

/// A right-hand-side value computation.
#[derive(Debug, Clone, PartialEq)]
pub enum Rvalue {
    /// Copy of an operand.
    Use(Operand),
    /// Unary operation (element-wise on arrays).
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// Binary operation (element-wise or linear-algebra per `op`).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Matrix transpose.
    Transpose {
        /// Operand.
        a: Operand,
        /// `'` (true) vs `.'` (false).
        conjugate: bool,
    },
    /// Read `array(indices...)`.
    Index {
        /// Array register.
        array: VarId,
        /// Subscripts (1 or 2).
        indices: Vec<Index>,
    },
    /// `start : step : stop` row vector.
    Range {
        /// First value.
        start: Operand,
        /// Stride.
        step: Operand,
        /// Last value (inclusive).
        stop: Operand,
    },
    /// Array allocation.
    Alloc {
        /// Fill pattern.
        kind: AllocKind,
        /// Row count.
        rows: Operand,
        /// Column count.
        cols: Operand,
    },
    /// Builtin call with one (primary) result.
    Builtin {
        /// Builtin name.
        name: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// User-function call with one result.
    Call {
        /// Callee name.
        func: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Matrix literal from operand rows.
    MatrixLit {
        /// Rows of horizontally concatenated operands.
        rows: Vec<Vec<Operand>>,
    },
    /// String literal (format strings, messages).
    StrLit(String),
}

/// A reference to a dense strided view of an array, or a broadcast scalar —
/// what vector instructions read and write.
#[derive(Debug, Clone, PartialEq)]
pub enum VecRef {
    /// `array(start : step : start + step*(len-1))`, 1-based `start`.
    Slice {
        /// Array register.
        array: VarId,
        /// First element (1-based).
        start: Operand,
        /// Stride in elements.
        step: Operand,
    },
    /// A scalar operand broadcast across all lanes.
    Splat(Operand),
}

/// The operation a [`Stmt::VectorOp`] performs, lane-wise over `len`
/// elements.
#[derive(Debug, Clone, PartialEq)]
pub enum VecKind {
    /// `dst[i] = a[i] op b[i]` element-wise binary map.
    Map(BinOp),
    /// `dst[i] = op a[i]` element-wise unary map.
    MapUnary(UnOp),
    /// `dst[i] = f(a[i])` element-wise builtin map (abs, conj, sqrt…).
    MapBuiltin(String),
    /// `acc = acc + a[i] * b[i]` — multiply-accumulate reduction.
    Mac,
    /// `acc = reduce(acc, a[i])` — plain reduction.
    Reduce(ReduceKind),
    /// `dst[i] = a[i]` block copy.
    Copy,
}

/// A recognized data-parallel operation produced by the vectorizer.
///
/// Semantics: for `i` in `0..len`, combine lane `i` of `a` (and `b`) into
/// lane `i` of `dst` (maps/copies) or fold into the scalar register
/// `dst` (MAC/reductions).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorOp {
    /// Operation kind.
    pub kind: VecKind,
    /// Destination: slice for maps, scalar register for reductions.
    pub dst: VecRef,
    /// First input.
    pub a: VecRef,
    /// Second input (maps with two operands, MAC).
    pub b: Option<VecRef>,
    /// Trip count in elements.
    pub len: Operand,
    /// Whether lanes are complex pairs (selects complex instructions).
    pub complex: bool,
    /// Source location the op was recognized from.
    pub span: Span,
}

/// A structured MIR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = rvalue`.
    Def {
        /// Destination register.
        dst: VarId,
        /// Computation.
        rv: Rvalue,
        /// Source location.
        span: Span,
    },
    /// `array(indices...) = value`.
    Store {
        /// Array register being written.
        array: VarId,
        /// Subscripts (1 or 2).
        indices: Vec<Index>,
        /// Stored value.
        value: Operand,
        /// Source location.
        span: Span,
    },
    /// `[d1, d2, ...] = f(args...)` — multi-output call.
    CallMulti {
        /// Destinations (`None` = discarded output).
        dsts: Vec<Option<VarId>>,
        /// Callee.
        func: String,
        /// Arguments.
        args: Vec<Operand>,
        /// Whether the callee is a user function (vs builtin).
        user: bool,
        /// Source location.
        span: Span,
    },
    /// Output-only builtin (`disp`, `fprintf`, `error`, `rng`).
    Effect {
        /// Builtin name.
        name: String,
        /// Arguments.
        args: Vec<Operand>,
        /// Source location.
        span: Span,
    },
    /// Two-way conditional.
    If {
        /// Condition register/immediate (MATLAB truthiness).
        cond: Operand,
        /// Taken when true.
        then_body: Vec<Stmt>,
        /// Taken when false.
        else_body: Vec<Stmt>,
        /// Source location of the `if` header.
        span: Span,
    },
    /// Counted loop `for var = start : step : stop`.
    For {
        /// Induction register.
        var: VarId,
        /// First value.
        start: Operand,
        /// Stride.
        step: Operand,
        /// Final value (inclusive).
        stop: Operand,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location of the `for` header.
        span: Span,
    },
    /// `while`: `cond_defs` re-evaluate the condition each iteration.
    While {
        /// Statements computing the condition.
        cond_defs: Vec<Stmt>,
        /// Condition operand (evaluated after `cond_defs`).
        cond: Operand,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location of the `while` header.
        span: Span,
    },
    /// Loop break.
    Break(Span),
    /// Loop continue.
    Continue(Span),
    /// Early function return.
    Return(Span),
    /// A vectorized operation (inserted by `matic-vectorize`).
    VectorOp(VectorOp),
}

impl Stmt {
    /// The source location this statement was lowered from.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Def { span, .. }
            | Stmt::Store { span, .. }
            | Stmt::CallMulti { span, .. }
            | Stmt::Effect { span, .. }
            | Stmt::If { span, .. }
            | Stmt::For { span, .. }
            | Stmt::While { span, .. } => *span,
            Stmt::Break(span) | Stmt::Continue(span) | Stmt::Return(span) => *span,
            Stmt::VectorOp(vop) => vop.span,
        }
    }
}

/// A lowered function.
#[derive(Debug, Clone)]
pub struct MirFunction {
    /// Function name.
    pub name: String,
    /// Parameter registers, in order.
    pub params: Vec<VarId>,
    /// Output registers, in order.
    pub outputs: Vec<VarId>,
    /// Register table.
    pub vars: Vec<VarInfo>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Span of the source `function` header line.
    pub span: Span,
}

impl MirFunction {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>) -> MirFunction {
        MirFunction {
            name: name.into(),
            params: Vec::new(),
            outputs: Vec::new(),
            vars: Vec::new(),
            body: Vec::new(),
            span: Span::dummy(),
        }
    }

    /// Adds a register and returns its id.
    pub fn add_var(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.into(),
            ty,
            is_param: false,
        });
        id
    }

    /// Adds a fresh compiler temporary.
    pub fn add_temp(&mut self, ty: Ty) -> VarId {
        let n = self.vars.len();
        self.add_var(format!("$t{n}"), ty)
    }

    /// The type of a register.
    pub fn var_ty(&self, id: VarId) -> Ty {
        self.vars[id.0 as usize].ty
    }

    /// The metadata of a register.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// The type of an operand.
    pub fn operand_ty(&self, op: Operand) -> Ty {
        match op {
            Operand::Var(v) => self.var_ty(v),
            Operand::Const(c) => Ty::constant(c),
            Operand::ConstC(..) => Ty::new(matic_sema::Class::Complex, matic_sema::Shape::scalar()),
        }
    }

    /// Looks up a register by source name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Total number of statements, recursively.
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => 1 + count(then_body) + count(else_body),
                    Stmt::For { body, .. } => 1 + count(body),
                    Stmt::While {
                        cond_defs, body, ..
                    } => 1 + count(cond_defs) + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

/// A lowered program: functions in source order, entry first.
#[derive(Debug, Clone)]
pub struct MirProgram {
    /// All lowered functions.
    pub functions: Vec<MirFunction>,
}

impl MirProgram {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&MirFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Walks every statement in a body tree, depth-first, pre-order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        visit(s);
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                walk_stmts(then_body, visit);
                walk_stmts(else_body, visit);
            }
            Stmt::For { body, .. } => walk_stmts(body, visit),
            Stmt::While {
                cond_defs, body, ..
            } => {
                walk_stmts(cond_defs, visit);
                walk_stmts(body, visit);
            }
            _ => {}
        }
    }
}

/// Calls `visit` with every operand read by `stmt` (not recursing into
/// nested bodies).
pub fn visit_stmt_operands(stmt: &Stmt, visit: &mut dyn FnMut(&Operand)) {
    let visit_index = |idx: &Index, visit: &mut dyn FnMut(&Operand)| match idx {
        Index::Scalar(o) => visit(o),
        Index::Range { start, step, stop } => {
            visit(start);
            visit(step);
            visit(stop);
        }
        Index::Full => {}
    };
    let visit_vecref = |r: &VecRef, visit: &mut dyn FnMut(&Operand)| match r {
        VecRef::Slice { array, start, step } => {
            visit(&Operand::Var(*array));
            visit(start);
            visit(step);
        }
        VecRef::Splat(o) => visit(o),
    };
    match stmt {
        Stmt::Def { rv, .. } => match rv {
            Rvalue::Use(a) | Rvalue::Unary { a, .. } | Rvalue::Transpose { a, .. } => visit(a),
            Rvalue::Binary { a, b, .. } => {
                visit(a);
                visit(b);
            }
            Rvalue::Index { array, indices } => {
                visit(&Operand::Var(*array));
                for i in indices {
                    visit_index(i, visit);
                }
            }
            Rvalue::Range { start, step, stop } => {
                visit(start);
                visit(step);
                visit(stop);
            }
            Rvalue::Alloc { rows, cols, .. } => {
                visit(rows);
                visit(cols);
            }
            Rvalue::Builtin { args, .. } | Rvalue::Call { args, .. } => {
                for a in args {
                    visit(a);
                }
            }
            Rvalue::MatrixLit { rows } => {
                for row in rows {
                    for a in row {
                        visit(a);
                    }
                }
            }
            Rvalue::StrLit(_) => {}
        },
        Stmt::Store {
            array,
            indices,
            value,
            ..
        } => {
            visit(&Operand::Var(*array));
            for i in indices {
                visit_index(i, visit);
            }
            visit(value);
        }
        Stmt::CallMulti { args, .. } | Stmt::Effect { args, .. } => {
            for a in args {
                visit(a);
            }
        }
        Stmt::If { cond, .. } => visit(cond),
        Stmt::For {
            start, step, stop, ..
        } => {
            visit(start);
            visit(step);
            visit(stop);
        }
        Stmt::While { cond, .. } => visit(cond),
        Stmt::VectorOp(vop) => {
            visit_vecref(&vop.dst, visit);
            visit_vecref(&vop.a, visit);
            if let Some(b) = &vop.b {
                visit_vecref(b, visit);
            }
            visit(&vop.len);
        }
        Stmt::Break(_) | Stmt::Continue(_) | Stmt::Return(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_sema::Ty;

    #[test]
    fn var_table_roundtrip() {
        let mut f = MirFunction::new("f");
        let a = f.add_var("a", Ty::double_scalar());
        let t = f.add_temp(Ty::double_scalar());
        assert_eq!(f.var(a).name, "a");
        assert!(f.var(t).name.starts_with("$t"));
        assert_eq!(f.var_by_name("a"), Some(a));
        assert_eq!(f.var_by_name("zz"), None);
    }

    #[test]
    fn stmt_count_recurses() {
        let mut f = MirFunction::new("f");
        let c = f.add_var("c", Ty::double_scalar());
        f.body.push(Stmt::If {
            cond: Operand::Var(c),
            then_body: vec![Stmt::Return(Span::dummy()), Stmt::Break(Span::dummy())],
            else_body: vec![Stmt::Continue(Span::dummy())],
            span: Span::dummy(),
        });
        assert_eq!(f.stmt_count(), 4);
    }

    #[test]
    fn walk_visits_nested() {
        let mut f = MirFunction::new("f");
        let i = f.add_var("i", Ty::double_scalar());
        f.body.push(Stmt::For {
            var: i,
            start: Operand::Const(1.0),
            step: Operand::Const(1.0),
            stop: Operand::Const(8.0),
            body: vec![Stmt::Return(Span::dummy())],
            span: Span::dummy(),
        });
        let mut n = 0;
        walk_stmts(&f.body, &mut |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn operand_visiting() {
        let mut f = MirFunction::new("f");
        let a = f.add_var("a", Ty::double_scalar());
        let stmt = Stmt::Def {
            dst: a,
            rv: Rvalue::Binary {
                op: BinOp::Add,
                a: Operand::Var(a),
                b: Operand::Const(1.0),
            },
            span: Span::dummy(),
        };
        let mut ops = Vec::new();
        visit_stmt_operands(&stmt, &mut |o| ops.push(*o));
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn operand_const_helpers() {
        assert_eq!(Operand::Const(2.0).as_const(), Some(2.0));
        assert_eq!(Operand::Var(VarId(0)).as_const(), None);
        assert_eq!(Operand::Var(VarId(3)).as_var(), Some(VarId(3)));
    }
}
