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
        let mut n = 0;
        walk_stmts(&self.body, &mut |_| n += 1);
        n
    }

    /// How many places in the body read each register, indexed by
    /// register number.
    pub fn read_counts(&self) -> Vec<u32> {
        self.access_counts(Access::reads)
    }

    /// How many places in the body write each register, indexed by
    /// register number (parameter binding not included).
    pub fn write_counts(&self) -> Vec<u32> {
        self.access_counts(Access::writes)
    }

    fn access_counts(&self, keep: fn(Access) -> bool) -> Vec<u32> {
        let mut counts = vec![0; self.vars.len()];
        walk_stmts(&self.body, &mut |s| {
            s.visit_regs(&mut |v, access| {
                if keep(access) {
                    counts[v.0 as usize] += 1;
                }
            })
        });
        counts
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

/// How a statement touches a register at one of its places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The register's value is read.
    Read,
    /// The register is assigned as a whole.
    Write,
    /// The register is read and written in place: a `Store` base, a vector
    /// destination's array, a MAC/reduction accumulator.
    Update,
}

impl Access {
    /// Whether the place reads the register's value.
    pub fn reads(self) -> bool {
        self != Access::Write
    }

    /// Whether the place writes the register.
    pub fn writes(self) -> bool {
        self != Access::Read
    }
}

/// One register-bearing field of a MIR node: an operand (which may be an
/// immediate) or a bare register such as an array base or a destination.
#[derive(Debug)]
pub enum Place<O, R> {
    /// An [`Operand`] field.
    Operand(O),
    /// A [`VarId`] field.
    Reg(R),
}

/// A place as the shared visitors hand it out.
pub type PlaceRef<'a> = Place<&'a Operand, &'a VarId>;
/// A place as the mutable visitors hand it out.
pub type PlaceMut<'a> = Place<&'a mut Operand, &'a mut VarId>;

impl PlaceRef<'_> {
    /// The register at this place, unless it holds an immediate.
    pub fn reg(self) -> Option<VarId> {
        match self {
            Place::Operand(Operand::Var(v)) | Place::Reg(v) => Some(*v),
            Place::Operand(_) => None,
        }
    }
}

impl<'a> PlaceMut<'a> {
    /// The register at this place, unless it holds an immediate.
    pub fn reg_mut(self) -> Option<&'a mut VarId> {
        match self {
            Place::Operand(Operand::Var(v)) | Place::Reg(v) => Some(v),
            Place::Operand(_) => None,
        }
    }
}

/// Defines the place visitors once for shared and once for mutable access,
/// the way rustc's MIR visitor does. This is the one place that says which
/// registers each MIR node reads and writes: every pass that needs a read or
/// def set asks these visitors and applies its own filter.
///
/// Each visitor reports every register-bearing field of its node exactly
/// once, with its [`Access`]; a statement's destination comes after its
/// operands. None of them descends into nested statement bodies;
/// [`walk_stmts`] does.
macro_rules! place_visitors {
    ($visit:ident, $place:ident, $bodies:ident $(, $mut:ident)?) => {
        impl Index {
            /// Reports this subscript's operands, all of them reads.
            pub fn $visit<'a>(&'a $($mut)? self, f: &mut impl FnMut($place<'a>, Access)) {
                match self {
                    Index::Scalar(o) => f(Place::Operand(o), Access::Read),
                    Index::Range { start, step, stop } => {
                        for o in [start, step, stop] {
                            f(Place::Operand(o), Access::Read);
                        }
                    }
                    Index::Full => {}
                }
            }
        }

        impl Rvalue {
            /// Reports the registers this computation reads.
            pub fn $visit<'a>(&'a $($mut)? self, f: &mut impl FnMut($place<'a>, Access)) {
                match self {
                    Rvalue::Use(a) | Rvalue::Unary { a, .. } | Rvalue::Transpose { a, .. } => {
                        f(Place::Operand(a), Access::Read)
                    }
                    Rvalue::Binary { a, b, .. } | Rvalue::Alloc { rows: a, cols: b, .. } => {
                        f(Place::Operand(a), Access::Read);
                        f(Place::Operand(b), Access::Read);
                    }
                    Rvalue::Index { array, indices } => {
                        f(Place::Reg(array), Access::Read);
                        for i in indices {
                            i.$visit(f);
                        }
                    }
                    Rvalue::Range { start, step, stop } => {
                        for o in [start, step, stop] {
                            f(Place::Operand(o), Access::Read);
                        }
                    }
                    Rvalue::Builtin { args, .. } | Rvalue::Call { args, .. } => {
                        for a in args {
                            f(Place::Operand(a), Access::Read);
                        }
                    }
                    Rvalue::MatrixLit { rows } => {
                        for a in rows.into_iter().flatten() {
                            f(Place::Operand(a), Access::Read);
                        }
                    }
                    Rvalue::StrLit(_) => {}
                }
            }
        }

        impl VecRef {
            /// Reports this reference's registers: the array (or the splat
            /// operand) with access `base`, the slice's start and step as
            /// reads.
            pub fn $visit<'a>(
                &'a $($mut)? self,
                base: Access,
                f: &mut impl FnMut($place<'a>, Access),
            ) {
                match self {
                    VecRef::Slice { array, start, step } => {
                        f(Place::Reg(array), base);
                        f(Place::Operand(start), Access::Read);
                        f(Place::Operand(step), Access::Read);
                    }
                    VecRef::Splat(o) => f(Place::Operand(o), base),
                }
            }
        }

        impl VectorOp {
            /// Reports the inputs and length as reads, then the destination:
            /// a slice's array, or a reduction's accumulator, is updated.
            pub fn $visit<'a>(&'a $($mut)? self, f: &mut impl FnMut($place<'a>, Access)) {
                let VectorOp { dst, a, b, len, .. } = self;
                a.$visit(Access::Read, f);
                if let Some(b) = b {
                    b.$visit(Access::Read, f);
                }
                f(Place::Operand(len), Access::Read);
                dst.$visit(Access::Update, f);
            }
        }

        impl Stmt {
            /// Reports the registers this statement itself reads and writes
            /// (a `for` variable is written; nested bodies are not visited).
            pub fn $visit<'a>(&'a $($mut)? self, f: &mut impl FnMut($place<'a>, Access)) {
                match self {
                    Stmt::Def { dst, rv, .. } => {
                        rv.$visit(f);
                        f(Place::Reg(dst), Access::Write);
                    }
                    Stmt::Store {
                        array,
                        indices,
                        value,
                        ..
                    } => {
                        for i in indices {
                            i.$visit(f);
                        }
                        f(Place::Operand(value), Access::Read);
                        f(Place::Reg(array), Access::Update);
                    }
                    Stmt::CallMulti { dsts, args, .. } => {
                        for a in args {
                            f(Place::Operand(a), Access::Read);
                        }
                        for d in dsts.into_iter().flatten() {
                            f(Place::Reg(d), Access::Write);
                        }
                    }
                    Stmt::Effect { args, .. } => {
                        for a in args {
                            f(Place::Operand(a), Access::Read);
                        }
                    }
                    Stmt::If { cond, .. } | Stmt::While { cond, .. } => {
                        f(Place::Operand(cond), Access::Read)
                    }
                    Stmt::For {
                        var,
                        start,
                        step,
                        stop,
                        ..
                    } => {
                        for o in [start, step, stop] {
                            f(Place::Operand(o), Access::Read);
                        }
                        f(Place::Reg(var), Access::Write);
                    }
                    Stmt::VectorOp(vop) => vop.$visit(f),
                    Stmt::Break(_) | Stmt::Continue(_) | Stmt::Return(_) => {}
                }
            }

            /// The statement's nested bodies: `then` and `else`, a `for`
            /// body, or a `while`'s condition block and body.
            pub fn $bodies(&$($mut)? self) -> impl Iterator<Item = &$($mut)? Vec<Stmt>> {
                match self {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => [Some(then_body), Some(else_body)],
                    Stmt::For { body, .. } => [Some(body), None],
                    Stmt::While {
                        cond_defs, body, ..
                    } => [Some(cond_defs), Some(body)],
                    _ => [None, None],
                }
                .into_iter()
                .flatten()
            }
        }
    };
}

place_visitors!(visit_places, PlaceRef, bodies);
place_visitors!(visit_places_mut, PlaceMut, bodies_mut, mut);

impl Stmt {
    /// Calls `f` with every register this statement reads or writes.
    pub fn visit_regs(&self, f: &mut impl FnMut(VarId, Access)) {
        self.visit_places(&mut |p, access| {
            if let Some(v) = p.reg() {
                f(v, access);
            }
        });
    }

    /// Calls `f` with every register place of this statement, mutably.
    pub fn visit_regs_mut(&mut self, f: &mut impl FnMut(&mut VarId, Access)) {
        self.visit_places_mut(&mut |p, access| {
            if let Some(v) = p.reg_mut() {
                f(v, access);
            }
        });
    }

    /// Calls `f` with every operand this statement only reads. It never
    /// hands out a place the statement writes, so a reduction's
    /// accumulator is not among them.
    pub fn visit_read_operands_mut(&mut self, f: &mut impl FnMut(&mut Operand)) {
        self.visit_places_mut(&mut |p, access| {
            if let (Place::Operand(o), Access::Read) = (p, access) {
                f(o);
            }
        });
    }
}

/// Walks every statement in a body tree, depth-first, pre-order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], visit: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        visit(s);
        for body in s.bodies() {
            walk_stmts(body, visit);
        }
    }
}

/// [`walk_stmts`] with mutable access.
pub fn walk_stmts_mut(stmts: &mut [Stmt], visit: &mut dyn FnMut(&mut Stmt)) {
    for s in stmts {
        visit(s);
        for body in s.bodies_mut() {
            walk_stmts_mut(body, visit);
        }
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

    fn render(s: &Stmt) -> String {
        let mut out = Vec::new();
        s.visit_places(&mut |p, access| {
            let reg = match p {
                Place::Operand(o) => o.to_string(),
                Place::Reg(v) => v.to_string(),
            };
            let tag = match access {
                Access::Read => "r",
                Access::Write => "w",
                Access::Update => "u",
            };
            out.push(format!("{reg} {tag}"));
        });
        out.join(", ")
    }

    /// Every variant's exact (register, access) places, in visit order.
    #[test]
    fn role_table() {
        let v = VarId;
        let o = |n| Operand::Var(VarId(n));
        let c = Operand::Const(7.0);
        let dsp = Span::dummy();
        let def = |rv| Stmt::Def {
            dst: v(0),
            rv,
            span: dsp,
        };
        let slice = |n, start| VecRef::Slice {
            array: v(n),
            start,
            step: c,
        };
        let vop = |kind, dst, a, b| {
            Stmt::VectorOp(VectorOp {
                kind,
                dst,
                a,
                b,
                len: o(9),
                complex: false,
                span: dsp,
            })
        };
        let nested = vec![def(Rvalue::Use(o(8)))];
        let table: Vec<(Stmt, &str)> = vec![
            (def(Rvalue::Use(o(1))), "%1 r, %0 w"),
            (
                def(Rvalue::Unary {
                    op: UnOp::Neg,
                    a: o(1),
                }),
                "%1 r, %0 w",
            ),
            (
                def(Rvalue::Binary {
                    op: BinOp::Add,
                    a: o(0),
                    b: c,
                }),
                "%0 r, 7 r, %0 w",
            ),
            (
                def(Rvalue::Transpose {
                    a: o(1),
                    conjugate: true,
                }),
                "%1 r, %0 w",
            ),
            (
                def(Rvalue::Index {
                    array: v(1),
                    indices: vec![
                        Index::Scalar(o(2)),
                        Index::Range {
                            start: o(3),
                            step: c,
                            stop: o(4),
                        },
                        Index::Full,
                    ],
                }),
                "%1 r, %2 r, %3 r, 7 r, %4 r, %0 w",
            ),
            (
                def(Rvalue::Range {
                    start: o(1),
                    step: o(2),
                    stop: o(3),
                }),
                "%1 r, %2 r, %3 r, %0 w",
            ),
            (
                def(Rvalue::Alloc {
                    kind: AllocKind::Zeros,
                    rows: o(1),
                    cols: c,
                }),
                "%1 r, 7 r, %0 w",
            ),
            (
                def(Rvalue::Builtin {
                    name: "max".into(),
                    args: vec![o(1), o(2)],
                }),
                "%1 r, %2 r, %0 w",
            ),
            (
                def(Rvalue::Call {
                    func: "g".into(),
                    args: vec![o(1)],
                }),
                "%1 r, %0 w",
            ),
            (
                def(Rvalue::MatrixLit {
                    rows: vec![vec![o(1), c], vec![o(2)]],
                }),
                "%1 r, 7 r, %2 r, %0 w",
            ),
            (def(Rvalue::StrLit("s".into())), "%0 w"),
            // A store's base is read and written.
            (
                Stmt::Store {
                    array: v(0),
                    indices: vec![Index::Scalar(o(1))],
                    value: o(2),
                    span: dsp,
                },
                "%1 r, %2 r, %0 u",
            ),
            (
                Stmt::CallMulti {
                    dsts: vec![Some(v(0)), None, Some(v(1))],
                    func: "size".into(),
                    args: vec![o(2)],
                    user: false,
                    span: dsp,
                },
                "%2 r, %0 w, %1 w",
            ),
            (
                Stmt::Effect {
                    name: "disp".into(),
                    args: vec![o(1)],
                    span: dsp,
                },
                "%1 r",
            ),
            (
                Stmt::If {
                    cond: o(1),
                    then_body: nested.clone(),
                    else_body: nested.clone(),
                    span: dsp,
                },
                "%1 r",
            ),
            // A `for` variable is written; the body is not visited.
            (
                Stmt::For {
                    var: v(0),
                    start: o(1),
                    step: c,
                    stop: o(2),
                    body: nested.clone(),
                    span: dsp,
                },
                "%1 r, 7 r, %2 r, %0 w",
            ),
            (
                Stmt::While {
                    cond_defs: nested.clone(),
                    cond: o(1),
                    body: nested,
                    span: dsp,
                },
                "%1 r",
            ),
            (Stmt::Break(dsp), ""),
            (Stmt::Continue(dsp), ""),
            (Stmt::Return(dsp), ""),
            (
                vop(
                    VecKind::Map(BinOp::Add),
                    slice(0, o(1)),
                    slice(2, o(3)),
                    Some(VecRef::Splat(o(4))),
                ),
                "%2 r, %3 r, 7 r, %4 r, %9 r, %0 u, %1 r, 7 r",
            ),
            (
                vop(VecKind::MapUnary(UnOp::Neg), slice(0, c), slice(2, c), None),
                "%2 r, 7 r, 7 r, %9 r, %0 u, 7 r, 7 r",
            ),
            (
                vop(VecKind::Copy, slice(0, c), VecRef::Splat(c), None),
                "7 r, %9 r, %0 u, 7 r, 7 r",
            ),
            // A MAC or reduction accumulator is read and written.
            (
                vop(
                    VecKind::Mac,
                    VecRef::Splat(o(0)),
                    slice(1, c),
                    Some(slice(2, c)),
                ),
                "%1 r, 7 r, 7 r, %2 r, 7 r, 7 r, %9 r, %0 u",
            ),
            (
                vop(
                    VecKind::Reduce(ReduceKind::Sum),
                    VecRef::Splat(o(0)),
                    slice(1, o(0)),
                    None,
                ),
                "%1 r, %0 r, 7 r, %9 r, %0 u",
            ),
        ];
        for (stmt, want) in &table {
            assert_eq!(render(stmt), *want, "{stmt:?}");

            // The mutable register visitor reports the same registers.
            let mut shared = Vec::new();
            stmt.visit_regs(&mut |v, a| shared.push((v, a)));
            let mut copy = stmt.clone();
            let mut mutable = Vec::new();
            copy.visit_regs_mut(&mut |v, a| mutable.push((*v, a)));
            assert_eq!(shared, mutable, "{stmt:?}");

            // The mutable operand visitor hands out exactly the operands
            // that are only read, never a place the statement writes.
            let mut read_operands = 0;
            stmt.visit_places(&mut |p, a| {
                read_operands += usize::from(matches!(p, Place::Operand(_)) && a == Access::Read);
            });
            let mut handed = 0;
            copy.visit_read_operands_mut(&mut |op| {
                *op = Operand::Const(-1.0);
                handed += 1;
            });
            assert_eq!(handed, read_operands, "{stmt:?}");
            let mut writes_after = Vec::new();
            copy.visit_regs(&mut |v, a| {
                if a.writes() {
                    writes_after.push(v);
                }
            });
            let writes: Vec<VarId> = shared
                .iter()
                .filter(|(_, a)| a.writes())
                .map(|&(v, _)| v)
                .collect();
            assert_eq!(writes_after, writes, "{stmt:?}");
        }
    }

    #[test]
    fn access_counts() {
        let mut f = MirFunction::new("f");
        let a = f.add_var("a", Ty::double_scalar());
        let b = f.add_var("b", Ty::double_scalar());
        f.body = vec![Stmt::For {
            var: a,
            start: Operand::Const(1.0),
            step: Operand::Const(1.0),
            stop: Operand::Var(b),
            body: vec![Stmt::Def {
                dst: b,
                rv: Rvalue::Binary {
                    op: BinOp::Add,
                    a: Operand::Var(a),
                    b: Operand::Var(a),
                },
                span: Span::dummy(),
            }],
            span: Span::dummy(),
        }];
        assert_eq!(f.read_counts(), vec![2, 1]);
        assert_eq!(f.write_counts(), vec![1, 1]);
    }

    #[test]
    fn operand_const_helpers() {
        assert_eq!(Operand::Const(2.0).as_const(), Some(2.0));
        assert_eq!(Operand::Var(VarId(0)).as_const(), None);
        assert_eq!(Operand::Var(VarId(3)).as_var(), Some(VarId(3)));
    }
}
