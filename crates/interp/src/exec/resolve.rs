//! Slot resolution: the form of a program the interpreter executes.
//!
//! Before a body runs, every name its frame can bind (parameters,
//! outputs, `nargin`/`nargout`, `ans`, and every assignment, `for` and
//! `global` target) gets a fixed index into the frame's slot vector, and
//! each use of the name is rewritten to that index. Variables are then
//! read and written by index, so evaluation never hashes or clones a name.
//! A name the body never binds resolves to no slot and is looked up as a
//! function, as an unbound variable always is.
//!
//! The resolved tree mirrors the AST node for node, spans included, so
//! the evaluator burns fuel, evaluates operands and reports errors in the
//! same order as it would walking the AST.

use crate::cx::Cx;
use crate::value::{Matrix, Value};
use matic_frontend::ast::{BinOp, Expr, Function, LValue, Stmt, UnOp};
use matic_frontend::span::Span;
use std::collections::HashMap;

/// Index of a variable in its frame.
pub(super) type Slot = usize;

/// The names bound in one scope, each with its slot.
#[derive(Default)]
pub(super) struct Scope {
    slots: HashMap<String, Slot>,
}

impl Scope {
    /// The slot of `name`, allocating the next one on first use.
    pub(super) fn bind(&mut self, name: &str) -> Slot {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.insert(name.to_string(), slot);
        slot
    }

    pub(super) fn get(&self, name: &str) -> Option<Slot> {
        self.slots.get(name).copied()
    }

    /// Number of slots a frame of this scope needs.
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Binds every name `stmts` can assign, then resolves them.
    pub(super) fn resolve_body(&mut self, stmts: &[Stmt]) -> Vec<RStmt> {
        self.bind_block(stmts);
        self.block(stmts)
    }

    fn bind_block(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, .. } => {
                    self.bind(target.name());
                }
                Stmt::MultiAssign { targets, .. } => {
                    for t in targets.iter().flatten() {
                        self.bind(t.name());
                    }
                }
                Stmt::ExprStmt { .. } => {
                    self.bind("ans");
                }
                Stmt::If {
                    arms, else_body, ..
                } => {
                    for (_, body) in arms {
                        self.bind_block(body);
                    }
                    if let Some(body) = else_body {
                        self.bind_block(body);
                    }
                }
                Stmt::For { var, body, .. } => {
                    self.bind(var);
                    self.bind_block(body);
                }
                Stmt::While { body, .. } => self.bind_block(body),
                Stmt::Global { names, .. } => {
                    for n in names {
                        self.bind(n);
                    }
                }
                Stmt::Break(_) | Stmt::Continue(_) | Stmt::Return(_) => {}
            }
        }
    }

    fn block(&self, stmts: &[Stmt]) -> Vec<RStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&self, stmt: &Stmt) -> RStmt {
        match stmt {
            Stmt::Assign {
                target,
                value,
                suppressed,
                span,
            } => RStmt::Assign {
                target: self.lvalue(target),
                value: self.expr(value),
                suppressed: *suppressed,
                span: *span,
            },
            Stmt::MultiAssign {
                targets,
                call,
                suppressed,
                span,
            } => RStmt::MultiAssign {
                targets: targets
                    .iter()
                    .map(|t| t.as_ref().map(|t| self.lvalue(t)))
                    .collect(),
                call: self.expr(call),
                suppressed: *suppressed,
                span: *span,
            },
            Stmt::ExprStmt {
                expr,
                suppressed,
                span,
            } => RStmt::ExprStmt {
                expr: self.expr(expr),
                ans: self.slot("ans"),
                suppressed: *suppressed,
                span: *span,
            },
            Stmt::If {
                arms,
                else_body,
                span,
            } => RStmt::If {
                arms: arms
                    .iter()
                    .map(|(cond, body)| (self.expr(cond), self.block(body)))
                    .collect(),
                else_body: else_body.as_ref().map(|b| self.block(b)),
                span: *span,
            },
            Stmt::For {
                var,
                iter,
                body,
                span,
            } => RStmt::For {
                var: self.slot(var),
                iter: self.expr(iter),
                body: self.block(body),
                span: *span,
            },
            Stmt::While { cond, body, span } => RStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
                span: *span,
            },
            Stmt::Break(span) => RStmt::Break(*span),
            Stmt::Continue(span) => RStmt::Continue(*span),
            Stmt::Return(span) => RStmt::Return(*span),
            Stmt::Global { names, span } => RStmt::Global {
                names: names.iter().map(|n| (n.clone(), self.slot(n))).collect(),
                span: *span,
            },
        }
    }

    /// The slot of a name [`Scope::bind_block`] bound.
    fn slot(&self, name: &str) -> Slot {
        self.get(name).expect("assignment targets are bound first")
    }

    fn lvalue(&self, target: &LValue) -> RLValue {
        match target {
            LValue::Name { name, .. } => RLValue::Name {
                slot: self.slot(name),
                name: name.clone(),
            },
            LValue::Index {
                name,
                indices,
                span,
            } => RLValue::Index {
                slot: self.slot(name),
                name: name.clone(),
                indices: indices.iter().map(|e| self.expr(e)).collect(),
                span: *span,
            },
        }
    }

    pub(super) fn expr(&self, expr: &Expr) -> RExpr {
        let boxed = |e: &Expr| Box::new(self.expr(e));
        match expr {
            Expr::Number { value, span } => RExpr::Const {
                value: Value::scalar(*value),
                span: *span,
            },
            Expr::Imaginary { value, span } => RExpr::Const {
                value: Value::Num(Matrix::scalar(Cx::new(0.0, *value))),
                span: *span,
            },
            Expr::Str { value, span } => RExpr::Str {
                value: value.clone(),
                span: *span,
            },
            Expr::Ident { name, span } => RExpr::Ident {
                slot: self.get(name),
                name: name.clone(),
                span: *span,
            },
            Expr::Call { name, args, span } => RExpr::Call {
                slot: self.get(name),
                name: name.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
                span: *span,
            },
            Expr::Binary { op, lhs, rhs, span } => RExpr::Binary {
                op: *op,
                lhs: boxed(lhs),
                rhs: boxed(rhs),
                span: *span,
            },
            Expr::Unary { op, operand, span } => RExpr::Unary {
                op: *op,
                operand: boxed(operand),
                span: *span,
            },
            Expr::Transpose {
                operand,
                conjugate,
                span,
            } => RExpr::Transpose {
                operand: boxed(operand),
                conjugate: *conjugate,
                span: *span,
            },
            Expr::Range {
                start,
                step,
                stop,
                span,
            } => RExpr::Range {
                start: boxed(start),
                step: step.as_deref().map(boxed),
                stop: boxed(stop),
                span: *span,
            },
            Expr::ColonAll { span } => RExpr::ColonAll { span: *span },
            Expr::EndKeyword { span } => RExpr::EndKeyword { span: *span },
            Expr::Matrix { rows, span } => RExpr::Matrix {
                rows: rows
                    .iter()
                    .map(|row| row.iter().map(|e| self.expr(e)).collect())
                    .collect(),
                span: *span,
            },
            Expr::AnonFn { params, body, span } => {
                // The bound names the body reads, in first-use order: the
                // closure captures those that hold a value when it is made.
                let mut captures: Vec<(String, Slot)> = Vec::new();
                body.walk(&mut |e| {
                    if let Expr::Ident { name, .. } = e {
                        if !params.contains(name) && !captures.iter().any(|(n, _)| n == name) {
                            if let Some(slot) = self.get(name) {
                                captures.push((name.clone(), slot));
                            }
                        }
                    }
                });
                RExpr::AnonFn {
                    params: params.clone(),
                    body: body.clone(),
                    captures,
                    span: *span,
                }
            }
            Expr::FnHandle { name, span } => RExpr::FnHandle {
                name: name.clone(),
                span: *span,
            },
        }
    }
}

/// A user function, resolved once per interpreter.
pub(super) struct UserFn {
    pub(super) name: String,
    /// One entry per declared parameter; `~` binds nothing.
    pub(super) params: Vec<Option<Slot>>,
    pub(super) nargin: Slot,
    pub(super) nargout: Slot,
    pub(super) outputs: Vec<(String, Slot)>,
    pub(super) body: Vec<RStmt>,
    /// Frame size.
    pub(super) slots: usize,
}

impl UserFn {
    pub(super) fn resolve(func: &Function) -> UserFn {
        let mut scope = Scope::default();
        let params = func
            .params
            .iter()
            .map(|p| (p != "~").then(|| scope.bind(p)))
            .collect();
        let nargin = scope.bind("nargin");
        let nargout = scope.bind("nargout");
        let outputs = func
            .outputs
            .iter()
            .map(|o| (o.clone(), scope.bind(o)))
            .collect();
        let body = scope.resolve_body(&func.body);
        UserFn {
            name: func.name.clone(),
            params,
            nargin,
            nargout,
            outputs,
            body,
            slots: scope.len(),
        }
    }
}

/// A statement with its names resolved (see [`Stmt`]).
pub(super) enum RStmt {
    Assign {
        target: RLValue,
        value: RExpr,
        suppressed: bool,
        span: Span,
    },
    MultiAssign {
        targets: Vec<Option<RLValue>>,
        call: RExpr,
        suppressed: bool,
        span: Span,
    },
    ExprStmt {
        expr: RExpr,
        ans: Slot,
        suppressed: bool,
        span: Span,
    },
    If {
        arms: Vec<(RExpr, Vec<RStmt>)>,
        else_body: Option<Vec<RStmt>>,
        span: Span,
    },
    For {
        var: Slot,
        iter: RExpr,
        body: Vec<RStmt>,
        span: Span,
    },
    While {
        cond: RExpr,
        body: Vec<RStmt>,
        span: Span,
    },
    Break(Span),
    Continue(Span),
    Return(Span),
    Global {
        names: Vec<(String, Slot)>,
        span: Span,
    },
}

impl RStmt {
    pub(super) fn span(&self) -> Span {
        match self {
            RStmt::Assign { span, .. }
            | RStmt::MultiAssign { span, .. }
            | RStmt::ExprStmt { span, .. }
            | RStmt::If { span, .. }
            | RStmt::For { span, .. }
            | RStmt::While { span, .. }
            | RStmt::Global { span, .. } => *span,
            RStmt::Break(s) | RStmt::Continue(s) | RStmt::Return(s) => *s,
        }
    }
}

/// An assignment target with its name resolved (see [`LValue`]).
pub(super) enum RLValue {
    Name {
        slot: Slot,
        name: String,
    },
    Index {
        slot: Slot,
        name: String,
        indices: Vec<RExpr>,
        span: Span,
    },
}

impl RLValue {
    pub(super) fn name(&self) -> &str {
        match self {
            RLValue::Name { name, .. } | RLValue::Index { name, .. } => name,
        }
    }

    pub(super) fn slot(&self) -> Slot {
        match self {
            RLValue::Name { slot, .. } | RLValue::Index { slot, .. } => *slot,
        }
    }
}

/// An expression with its names resolved (see [`Expr`]).
pub(super) enum RExpr {
    /// A numeric literal, built once; evaluating it shares the payload.
    Const {
        value: Value,
        span: Span,
    },
    Str {
        value: String,
        span: Span,
    },
    /// The variable in `slot` when it holds a value, else a call of `name`.
    Ident {
        slot: Option<Slot>,
        name: String,
        span: Span,
    },
    /// Indexing the variable in `slot` when it holds a value, else a call.
    Call {
        slot: Option<Slot>,
        name: String,
        args: Vec<RExpr>,
        span: Span,
    },
    Binary {
        op: BinOp,
        lhs: Box<RExpr>,
        rhs: Box<RExpr>,
        span: Span,
    },
    Unary {
        op: UnOp,
        operand: Box<RExpr>,
        span: Span,
    },
    Transpose {
        operand: Box<RExpr>,
        conjugate: bool,
        span: Span,
    },
    Range {
        start: Box<RExpr>,
        step: Option<Box<RExpr>>,
        stop: Box<RExpr>,
        span: Span,
    },
    ColonAll {
        span: Span,
    },
    EndKeyword {
        span: Span,
    },
    Matrix {
        rows: Vec<Vec<RExpr>>,
        span: Span,
    },
    /// `@(params) body`: the closure keeps the AST body; `captures` are
    /// the candidates for capture, in first-use order.
    AnonFn {
        params: Vec<String>,
        body: Box<Expr>,
        captures: Vec<(String, Slot)>,
        span: Span,
    },
    FnHandle {
        name: String,
        span: Span,
    },
}

impl RExpr {
    pub(super) fn span(&self) -> Span {
        match self {
            RExpr::Const { span, .. }
            | RExpr::Str { span, .. }
            | RExpr::Ident { span, .. }
            | RExpr::Call { span, .. }
            | RExpr::Binary { span, .. }
            | RExpr::Unary { span, .. }
            | RExpr::Transpose { span, .. }
            | RExpr::Range { span, .. }
            | RExpr::ColonAll { span }
            | RExpr::EndKeyword { span }
            | RExpr::Matrix { span, .. }
            | RExpr::AnonFn { span, .. }
            | RExpr::FnHandle { span, .. } => *span,
        }
    }
}
