//! Tree-walking interpreter — the numerical oracle the compiler is tested
//! against.

use crate::builtins::{self, Host};
use crate::cx::Cx;
use crate::value::{Closure, Matrix, Value};
use matic_frontend::ast::*;
use matic_frontend::span::Span;
use resolve::{RExpr, RLValue, RStmt, Scope, Slot, UserFn};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

mod resolve;

/// Coarse classification of a runtime failure, shared by the interpreter
/// and the ASIP simulator so differential harnesses can require the two
/// to agree on *why* a program failed, not just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The execution step budget ran out (runaway or non-terminating
    /// program stopped by fuel, never by hanging).
    FuelExhausted,
    /// An array subscript outside the valid extent (or not a positive
    /// integer index).
    OutOfBounds,
    /// Any other runtime trap: dimension mismatch, `error()` builtin,
    /// unsupported construct, arity mismatch, ...
    Trap,
}

/// Classifies an error message produced by the shared matrix/indexing
/// helpers (which report through plain `String`s).
///
/// This is a *fallback* for helper-produced text only: construction sites
/// that know their failure class thread it explicitly (see
/// [`RuntimeError::with_kind`]), and user-raised `error()` messages are
/// always [`ErrorKind::Trap`] regardless of their content.
pub fn classify_message(message: &str) -> ErrorKind {
    if message.contains("fuel exhausted") {
        ErrorKind::FuelExhausted
    } else if message.contains("out of bounds") || message.contains("index must be") {
        ErrorKind::OutOfBounds
    } else {
        ErrorKind::Trap
    }
}

/// A runtime error with the source span it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// What went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
    /// Coarse failure class (fuel, bounds, other trap).
    pub kind: ErrorKind,
}

impl RuntimeError {
    /// An error whose kind is *recovered* from the message text via
    /// [`classify_message`] — the fallback constructor for messages
    /// produced by the shared `String`-reporting matrix helpers. Sites
    /// that know their failure class statically use
    /// [`RuntimeError::with_kind`] so classification never depends on
    /// user-controllable text.
    fn new(message: impl Into<String>, span: Span) -> Self {
        let message = message.into();
        let kind = classify_message(&message);
        RuntimeError {
            message,
            span,
            kind,
        }
    }

    /// An error with an explicitly-stated failure class (no message
    /// re-parsing).
    pub fn with_kind(message: impl Into<String>, span: Span, kind: ErrorKind) -> Self {
        RuntimeError {
            message: message.into(),
            span,
            kind,
        }
    }

    /// The fuel-exhaustion error raised when the step budget runs out.
    pub fn fuel_exhausted(span: Span) -> Self {
        RuntimeError {
            message: "execution fuel exhausted".to_string(),
            span,
            kind: ErrorKind::FuelExhausted,
        }
    }

    /// Whether this failure is the fuel budget running out.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.kind == ErrorKind::FuelExhausted
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {} at {}", self.message, self.span)
    }
}

impl std::error::Error for RuntimeError {}

/// Control-flow result of executing a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// One call frame: its scope's variables, by slot.
#[derive(Default)]
struct Frame {
    slots: Vec<Option<Value>>,
}

impl Frame {
    fn new(slots: usize) -> Frame {
        Frame {
            slots: vec![None; slots],
        }
    }

    fn get(&self, slot: Slot) -> Option<&Value> {
        self.slots[slot].as_ref()
    }

    /// The value of a name that resolved to `slot`, if it has one.
    fn lookup(&self, slot: Option<Slot>) -> Option<&Value> {
        slot.and_then(|s| self.get(s))
    }

    fn set(&mut self, slot: Slot, value: Value) {
        self.slots[slot] = Some(value);
    }
}

/// Deterministic xorshift64* random stream (MATLAB's `rand`/`randn`
/// substitute; determinism matters more than the distribution's pedigree).
struct Rng {
    state: u64,
    spare_gauss: Option<f64>,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng {
            state: seed.max(1),
            spare_gauss: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_gauss(&mut self) -> f64 {
        if let Some(g) = self.spare_gauss.take() {
            return g;
        }
        // Box–Muller.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_gauss = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// The interpreter: owns a parsed [`Program`] and executes it.
///
/// Each user function is resolved once, when the interpreter is made,
/// into a form whose frames hold variables by slot (the `resolve`
/// module); the script is resolved against the workspace on each
/// [`Interpreter::run_script`].
///
/// # Examples
///
/// ```
/// use matic_interp::Interpreter;
/// use matic_interp::value::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "function y = twice(x)\ny = 2 * x;\nend";
/// let (program, diags) = matic_frontend::parse(src);
/// assert!(!diags.has_errors());
/// let mut interp = Interpreter::new(program);
/// let out = interp.call("twice", vec![Value::scalar(21.0)], 1)?;
/// assert_eq!(out[0].as_matrix()?.as_real_scalar()?, 42.0);
/// # Ok(())
/// # }
/// ```
pub struct Interpreter {
    script: Vec<Stmt>,
    functions: Vec<Rc<UserFn>>,
    globals: HashMap<String, Value>,
    rng: Rng,
    output: String,
    fuel: u64,
    /// Extent that `end` stands for, one per enclosing subscript.
    end_stack: Vec<usize>,
    /// Script workspace (root frame) and its names, kept after
    /// `run_script`.
    workspace: Frame,
    workspace_scope: Scope,
}

impl Host for Interpreter {
    fn next_rand(&mut self) -> f64 {
        self.rng.next_f64()
    }
    fn next_randn(&mut self) -> f64 {
        self.rng.next_gauss()
    }
    fn reseed(&mut self, seed: u64) {
        self.rng = Rng::new(seed ^ 0x9E3779B97F4A7C15);
    }
    fn emit(&mut self, text: &str) {
        self.output.push_str(text);
    }
}

/// Default execution fuel (statements + expression nodes evaluated).
pub const DEFAULT_FUEL: u64 = 200_000_000;

impl Interpreter {
    /// Creates an interpreter over a parsed program.
    pub fn new(program: Program) -> Self {
        Interpreter {
            functions: program
                .functions
                .iter()
                .map(|f| Rc::new(UserFn::resolve(f)))
                .collect(),
            script: program.script,
            globals: HashMap::new(),
            rng: Rng::new(0x9E3779B97F4A7C15),
            output: String::new(),
            fuel: DEFAULT_FUEL,
            end_stack: Vec::new(),
            workspace: Frame::default(),
            workspace_scope: Scope::default(),
        }
    }

    /// Parses and wraps `src`.
    ///
    /// # Errors
    ///
    /// Returns the first parse diagnostic as a [`RuntimeError`].
    pub fn from_source(src: &str) -> Result<Self, RuntimeError> {
        let (program, diags) = matic_frontend::parse(src);
        if let Some(d) = diags.first_error() {
            return Err(RuntimeError::new(d.message.clone(), d.span));
        }
        Ok(Self::new(program))
    }

    /// Limits execution steps; exceeded fuel raises a runtime error.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Everything printed by `disp`/`fprintf`/unsuppressed statements so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Reads a variable from the script workspace.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.workspace.lookup(self.workspace_scope.get(name))
    }

    /// Sets a variable in the script workspace.
    pub fn set_var(&mut self, name: impl Into<String>, value: Value) {
        let slot = self.workspace_scope.bind(&name.into());
        self.workspace
            .slots
            .resize(self.workspace_scope.len(), None);
        self.workspace.set(slot, value);
    }

    /// Runs the script part of the program in the workspace frame.
    ///
    /// # Errors
    ///
    /// Returns the first runtime error raised.
    pub fn run_script(&mut self) -> Result<(), RuntimeError> {
        let stmts = self.workspace_scope.resolve_body(&self.script);
        let mut frame = std::mem::take(&mut self.workspace);
        frame.slots.resize(self.workspace_scope.len(), None);
        let result = self.exec_block(&stmts, &mut frame);
        self.workspace = frame;
        result.map(|_| ())
    }

    /// Calls a user-defined function (or builtin) by name.
    ///
    /// # Errors
    ///
    /// Returns a runtime error for unknown names, arity mismatches or any
    /// error raised while executing the body.
    pub fn call(
        &mut self,
        name: &str,
        args: Vec<Value>,
        nargout: usize,
    ) -> Result<Vec<Value>, RuntimeError> {
        self.call_spanned(name, args, nargout, Span::dummy())
    }

    fn call_spanned(
        &mut self,
        name: &str,
        args: Vec<Value>,
        nargout: usize,
        span: Span,
    ) -> Result<Vec<Value>, RuntimeError> {
        if let Some(func) = self.functions.iter().find(|f| f.name == name) {
            let func = Rc::clone(func);
            return self.call_user(&func, args, nargout, span);
        }
        if builtins::is_builtin(name) {
            return builtins::call_builtin(self, name, args, nargout).map_err(|m| {
                if name == "error" {
                    // The message is user program text; a payload that
                    // happens to contain "out of bounds" must still
                    // classify as a plain trap.
                    RuntimeError::with_kind(m, span, ErrorKind::Trap)
                } else {
                    RuntimeError::new(m, span)
                }
            });
        }
        Err(RuntimeError::new(
            format!("undefined function or variable `{name}`"),
            span,
        ))
    }

    fn call_user(
        &mut self,
        func: &UserFn,
        args: Vec<Value>,
        nargout: usize,
        span: Span,
    ) -> Result<Vec<Value>, RuntimeError> {
        if args.len() > func.params.len() {
            return Err(RuntimeError::new(
                format!(
                    "too many inputs to `{}` ({} > {})",
                    func.name,
                    args.len(),
                    func.params.len()
                ),
                span,
            ));
        }
        let mut frame = Frame::new(func.slots);
        let nargin = args.len();
        for (param, arg) in func.params.iter().zip(args) {
            if let Some(slot) = *param {
                frame.set(slot, arg);
            }
        }
        frame.set(func.nargin, Value::scalar(nargin as f64));
        frame.set(func.nargout, Value::scalar(nargout as f64));
        self.exec_block(&func.body, &mut frame)?;
        let wanted = nargout.max(usize::from(!func.outputs.is_empty()));
        let mut outs = Vec::with_capacity(wanted);
        for (out_name, slot) in func.outputs.iter().take(wanted.max(1)) {
            match frame.get(*slot) {
                Some(v) => outs.push(v.clone()),
                None => {
                    if outs.len() < nargout {
                        return Err(RuntimeError::new(
                            format!(
                                "output argument `{out_name}` of `{}` not assigned",
                                func.name
                            ),
                            span,
                        ));
                    }
                    break;
                }
            }
        }
        Ok(outs)
    }

    fn burn(&mut self, span: Span) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::fuel_exhausted(span));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[RStmt], frame: &mut Frame) -> Result<Flow, RuntimeError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, frame)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &RStmt, frame: &mut Frame) -> Result<Flow, RuntimeError> {
        self.burn(stmt.span())?;
        match stmt {
            RStmt::Assign {
                target,
                value,
                suppressed,
                ..
            } => {
                let v = self.eval(value, frame)?;
                self.assign(target, v, frame)?;
                if !*suppressed {
                    self.display_var(target.name(), target.slot(), frame);
                }
                Ok(Flow::Normal)
            }
            RStmt::MultiAssign {
                targets,
                call,
                suppressed,
                span,
            } => {
                let outs = match call {
                    RExpr::Call {
                        slot, name, args, ..
                    } => {
                        if frame.lookup(*slot).is_some() {
                            // Indexing a variable yields a single output.
                            self.burn(*span)?;
                            vec![self.eval_call(*slot, name, args, frame, *span)?]
                        } else {
                            let arg_vals = self.eval_args(args, frame)?;
                            self.call_spanned(name, arg_vals, targets.len(), *span)?
                        }
                    }
                    other => vec![self.eval(other, frame)?],
                };
                if outs.len() < targets.iter().filter(|t| t.is_some()).count() {
                    return Err(RuntimeError::new("not enough output arguments", *span));
                }
                for (target, value) in targets.iter().zip(outs) {
                    if let Some(t) = target {
                        self.assign(t, value, frame)?;
                        if !*suppressed {
                            self.display_var(t.name(), t.slot(), frame);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::ExprStmt {
                expr,
                ans,
                suppressed,
                ..
            } => {
                let v = self.eval(expr, frame)?;
                frame.set(*ans, v);
                if !*suppressed {
                    self.display_var("ans", *ans, frame);
                }
                Ok(Flow::Normal)
            }
            RStmt::If {
                arms, else_body, ..
            } => {
                for (cond, body) in arms {
                    let c = self.eval(cond, frame)?;
                    let truthy = c.as_bool().map_err(|m| RuntimeError::new(m, cond.span()))?;
                    if truthy {
                        return self.exec_block(body, frame);
                    }
                }
                if let Some(body) = else_body {
                    return self.exec_block(body, frame);
                }
                Ok(Flow::Normal)
            }
            RStmt::For {
                var, iter, body, ..
            } => {
                let seq = self
                    .eval(iter, frame)?
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, iter.span()))?;
                // Iterate over columns for matrices, elements for vectors.
                let by_column = seq.rows() > 1;
                let count = if by_column { seq.cols() } else { seq.numel() };
                for k in 0..count {
                    let item = if by_column {
                        seq.column(k)
                    } else {
                        // Overwrite the previous element in place when the
                        // body left it a 1×1 number (unshared, no copy).
                        match frame.slots[*var].take() {
                            Some(Value::Num(m)) if m.is_scalar() && !m.is_logical() => {
                                overwrite_scalar(m, seq.lin(k))
                            }
                            _ => Matrix::scalar(seq.lin(k)),
                        }
                    };
                    frame.set(*var, Value::Num(item));
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::While { cond, body, .. } => {
                loop {
                    self.burn(cond.span())?;
                    let c = self.eval(cond, frame)?;
                    let truthy = c.as_bool().map_err(|m| RuntimeError::new(m, cond.span()))?;
                    if !truthy {
                        break;
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Break(_) => Ok(Flow::Break),
            RStmt::Continue(_) => Ok(Flow::Continue),
            RStmt::Return(_) => Ok(Flow::Return),
            RStmt::Global { names, .. } => {
                for (n, slot) in names {
                    let v = self
                        .globals
                        .get(n)
                        .cloned()
                        .unwrap_or(Value::Num(Matrix::empty()));
                    frame.set(*slot, v);
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn display_var(&mut self, name: &str, slot: Slot, frame: &Frame) {
        if let Some(v) = frame.get(slot) {
            let text = format!("{name} = {v}\n");
            self.output.push_str(&text);
        }
    }

    fn assign(
        &mut self,
        target: &RLValue,
        value: Value,
        frame: &mut Frame,
    ) -> Result<(), RuntimeError> {
        match target {
            RLValue::Name { slot, .. } => {
                frame.set(*slot, value);
                Ok(())
            }
            RLValue::Index {
                slot,
                name,
                indices,
                span,
            } => {
                let mut base = match frame.get(*slot) {
                    Some(Value::Num(m)) => m.clone(),
                    Some(_) => {
                        return Err(RuntimeError::new(
                            format!("cannot index-assign non-matrix `{name}`"),
                            *span,
                        ))
                    }
                    None => Matrix::empty(),
                };
                let rhs = value
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, *span))?;
                match indices.len() {
                    1 => {
                        let idx = self.eval_index(&indices[0], frame, base.numel(), *span)?;
                        base.assign_linear(&idx, &rhs)
                            .map_err(|m| RuntimeError::new(m, *span))?;
                    }
                    2 => {
                        let ri = self.eval_index(&indices[0], frame, base.rows(), *span)?;
                        let ci = self.eval_index(&indices[1], frame, base.cols(), *span)?;
                        base.assign_2d(&ri, &ci, &rhs)
                            .map_err(|m| RuntimeError::new(m, *span))?;
                    }
                    n => {
                        return Err(RuntimeError::new(
                            format!("unsupported {n}-dimensional indexing"),
                            *span,
                        ))
                    }
                }
                frame.set(*slot, Value::Num(base));
                Ok(())
            }
        }
    }

    /// Evaluates one subscript of an array whose indexed dimension has
    /// `extent` positions: `:` takes them all, and `end` stands for
    /// `extent`.
    fn eval_index(
        &mut self,
        expr: &RExpr,
        frame: &mut Frame,
        extent: usize,
        span: Span,
    ) -> Result<Matrix, RuntimeError> {
        match expr {
            RExpr::ColonAll { .. } => Ok(Matrix::colon_index(extent)),
            _ => {
                self.end_stack.push(extent);
                let r = self.eval(expr, frame);
                self.end_stack.pop();
                let v = r?;
                v.into_matrix().map_err(|m| RuntimeError::new(m, span))
            }
        }
    }

    fn eval_args(&mut self, args: &[RExpr], frame: &mut Frame) -> Result<Vec<Value>, RuntimeError> {
        args.iter().map(|a| self.eval(a, frame)).collect()
    }

    /// Evaluates an expression to a value.
    fn eval(&mut self, expr: &RExpr, frame: &mut Frame) -> Result<Value, RuntimeError> {
        self.burn(expr.span())?;
        match expr {
            RExpr::Const { value, .. } => Ok(value.clone()),
            RExpr::Str { value, .. } => Ok(Value::Str(value.clone())),
            RExpr::Ident { slot, name, span } => {
                if let Some(v) = frame.lookup(*slot) {
                    return Ok(v.clone());
                }
                self.call_spanned(name, vec![], 1, *span).map(|mut outs| {
                    if outs.is_empty() {
                        Value::Num(Matrix::empty())
                    } else {
                        outs.swap_remove(0)
                    }
                })
            }
            RExpr::Call {
                slot,
                name,
                args,
                span,
            } => self.eval_call(*slot, name, args, frame, *span),
            RExpr::Binary { op, lhs, rhs, span } => {
                if matches!(op, BinOp::AndAnd | BinOp::OrOr) {
                    let l = self.eval(lhs, frame)?;
                    let lb = l.as_bool().map_err(|m| RuntimeError::new(m, *span))?;
                    let result = match op {
                        BinOp::AndAnd => {
                            if !lb {
                                false
                            } else {
                                let r = self.eval(rhs, frame)?;
                                r.as_bool().map_err(|m| RuntimeError::new(m, *span))?
                            }
                        }
                        _ => {
                            if lb {
                                true
                            } else {
                                let r = self.eval(rhs, frame)?;
                                r.as_bool().map_err(|m| RuntimeError::new(m, *span))?
                            }
                        }
                    };
                    return Ok(Value::Num(Matrix::logical_scalar(result)));
                }
                let l = self
                    .eval(lhs, frame)?
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, lhs.span()))?;
                let r = self
                    .eval(rhs, frame)?
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, rhs.span()))?;
                if l.is_scalar() && r.is_scalar() {
                    if let Some((z, logical)) = scalar_binop(*op, l.lin(0), r.lin(0)) {
                        // Write the result into an operand's buffer. A
                        // computed operand's is usually unshared and is
                        // reused; a variable's or literal's is shared, and
                        // `data_mut` copies it, as a fresh result would.
                        let computed =
                            |e: &RExpr| !matches!(e, RExpr::Ident { .. } | RExpr::Const { .. });
                        let (first, second) = if computed(lhs) { (l, r) } else { (r, l) };
                        let out = if logical || !first.is_logical() {
                            overwrite_scalar(first, z)
                        } else if !second.is_logical() {
                            overwrite_scalar(second, z)
                        } else {
                            Matrix::scalar(z)
                        };
                        return Ok(Value::Num(if logical { out.into_logical() } else { out }));
                    }
                }
                apply_binop(*op, &l, &r)
                    .map(Value::Num)
                    .map_err(|m| RuntimeError::new(m, *span))
            }
            RExpr::Unary { op, operand, .. } => {
                let v = self
                    .eval(operand, frame)?
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, operand.span()))?;
                let out = match op {
                    UnOp::Neg => v.map(|z| -z),
                    UnOp::Plus => v,
                    UnOp::Not => v
                        .map(|z| Cx::real(if z.re == 0.0 && z.im == 0.0 { 1.0 } else { 0.0 }))
                        .into_logical(),
                };
                Ok(Value::Num(out))
            }
            RExpr::Transpose {
                operand, conjugate, ..
            } => {
                let v = self
                    .eval(operand, frame)?
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, operand.span()))?;
                Ok(Value::Num(v.transpose(*conjugate)))
            }
            RExpr::Range {
                start, step, stop, ..
            } => {
                let s = self.eval_real(start, frame)?;
                let e = self.eval_real(stop, frame)?;
                let st = match step {
                    Some(x) => self.eval_real(x, frame)?,
                    None => 1.0,
                };
                Ok(Value::Num(Matrix::range(s, st, e)))
            }
            RExpr::ColonAll { span } => Err(RuntimeError::new(
                "`:` is only valid inside an index",
                *span,
            )),
            RExpr::EndKeyword { span } => match self.end_stack.last() {
                Some(&extent) => Ok(Value::scalar(extent as f64)),
                None => Err(RuntimeError::new(
                    "`end` used outside an index expression",
                    *span,
                )),
            },
            RExpr::Matrix { rows, span } => self.eval_matrix(rows, frame, *span),
            RExpr::AnonFn {
                params,
                body,
                captures,
                ..
            } => {
                // Capture every candidate that holds a value now.
                let captures = captures
                    .iter()
                    .filter_map(|(name, slot)| Some((name.clone(), frame.get(*slot)?.clone())))
                    .collect();
                Ok(Value::Anon(Rc::new(Closure {
                    params: params.clone(),
                    body: (**body).clone(),
                    captures,
                })))
            }
            RExpr::FnHandle { name, .. } => Ok(Value::FnHandle(name.clone())),
        }
    }

    fn eval_real(&mut self, expr: &RExpr, frame: &mut Frame) -> Result<f64, RuntimeError> {
        self.eval(expr, frame)?
            .into_matrix()
            .and_then(|m| m.as_real_scalar())
            .map_err(|m| RuntimeError::new(m, expr.span()))
    }

    fn eval_call(
        &mut self,
        slot: Option<Slot>,
        name: &str,
        args: &[RExpr],
        frame: &mut Frame,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        // 1. Variable: indexing, or invoking a stored function handle.
        if let Some(v) = frame.lookup(slot).cloned() {
            return match v {
                Value::Num(m) => self.index_matrix(&m, args, frame, span).map(Value::Num),
                Value::Str(s) => {
                    let m = Value::Str(s)
                        .into_matrix()
                        .map_err(|m| RuntimeError::new(m, span))?;
                    let picked = self.index_matrix(&m, args, frame, span)?;
                    // Indexing a string yields a string.
                    let text: String = picked
                        .data()
                        .iter()
                        .map(|z| char::from_u32(z.re as u32).unwrap_or('?'))
                        .collect();
                    Ok(Value::Str(text))
                }
                Value::FnHandle(f) => {
                    let vals = self.eval_args(args, frame)?;
                    self.call_spanned(&f, vals, 1, span).map(|mut o| {
                        if o.is_empty() {
                            Value::Num(Matrix::empty())
                        } else {
                            o.swap_remove(0)
                        }
                    })
                }
                Value::Anon(closure) => {
                    let vals = self.eval_args(args, frame)?;
                    self.call_closure(&closure, vals, span)
                }
            };
        }
        // 2. `feval` special form.
        if name == "feval" {
            let mut vals = self.eval_args(args, frame)?;
            if vals.is_empty() {
                return Err(RuntimeError::new("feval: missing function", span));
            }
            let target = vals.remove(0);
            return match target {
                Value::FnHandle(f) => self.call_spanned(&f, vals, 1, span).map(|mut o| {
                    if o.is_empty() {
                        Value::Num(Matrix::empty())
                    } else {
                        o.swap_remove(0)
                    }
                }),
                Value::Str(f) => self.call_spanned(&f, vals, 1, span).map(|mut o| {
                    if o.is_empty() {
                        Value::Num(Matrix::empty())
                    } else {
                        o.swap_remove(0)
                    }
                }),
                Value::Anon(c) => self.call_closure(&c, vals, span),
                Value::Num(_) => Err(RuntimeError::new("feval: not a function", span)),
            };
        }
        // 3. User function / builtin.
        let vals = self.eval_args(args, frame)?;
        self.call_spanned(name, vals, 1, span).map(|mut outs| {
            if outs.is_empty() {
                Value::Num(Matrix::empty())
            } else {
                outs.swap_remove(0)
            }
        })
    }

    fn call_closure(
        &mut self,
        closure: &Closure,
        args: Vec<Value>,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        if args.len() != closure.params.len() {
            return Err(RuntimeError::new(
                format!(
                    "anonymous function expects {} arguments, got {}",
                    closure.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        // The body's scope holds the captures, then the parameters.
        let mut scope = Scope::default();
        let captured: Vec<Slot> = closure
            .captures
            .iter()
            .map(|(n, _)| scope.bind(n))
            .collect();
        let params: Vec<Slot> = closure.params.iter().map(|p| scope.bind(p)).collect();
        let body = scope.expr(&closure.body);
        let mut frame = Frame::new(scope.len());
        for ((_, v), slot) in closure.captures.iter().zip(captured) {
            frame.set(slot, v.clone());
        }
        for (arg, slot) in args.into_iter().zip(params) {
            frame.set(slot, arg);
        }
        self.eval(&body, &mut frame)
    }

    fn index_matrix(
        &mut self,
        base: &Matrix,
        args: &[RExpr],
        frame: &mut Frame,
        span: Span,
    ) -> Result<Matrix, RuntimeError> {
        match args.len() {
            0 => Ok(base.clone()),
            // `x(:)` is every element, in order, as one column.
            1 if matches!(args[0], RExpr::ColonAll { .. }) => Ok(base
                .reshape(base.numel(), 1)
                .expect("a reshape to numel x 1 keeps the element count")),
            1 => {
                let idx = self.eval_index(&args[0], frame, base.numel(), span)?;
                if let Some(k) = scalar_position(&idx, base.numel()) {
                    return Ok(overwrite_scalar(idx, base.lin(k)));
                }
                base.index_linear(&idx)
                    .map_err(|m| RuntimeError::new(m, span))
            }
            2 => {
                let ri = self.eval_index(&args[0], frame, base.rows(), span)?;
                let ci = self.eval_index(&args[1], frame, base.cols(), span)?;
                if let (Some(r), Some(c)) = (
                    scalar_position(&ri, base.rows()),
                    scalar_position(&ci, base.cols()),
                ) {
                    return Ok(overwrite_scalar(ri, base.at(r, c)));
                }
                base.index_2d(&ri, &ci)
                    .map_err(|m| RuntimeError::new(m, span))
            }
            n => Err(RuntimeError::new(
                format!("unsupported {n}-dimensional indexing"),
                span,
            )),
        }
    }

    fn eval_matrix(
        &mut self,
        rows: &[Vec<RExpr>],
        frame: &mut Frame,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        // Single row of strings concatenates to a string.
        if rows.len() == 1 && !rows[0].is_empty() {
            let mut all_str = true;
            let mut vals = Vec::new();
            for e in &rows[0] {
                let v = self.eval(e, frame)?;
                if !matches!(v, Value::Str(_)) {
                    all_str = false;
                }
                vals.push(v);
            }
            if all_str {
                let s: String = vals
                    .into_iter()
                    .filter_map(|v| match v {
                        Value::Str(s) => Some(s),
                        _ => None,
                    })
                    .collect();
                return Ok(Value::Str(s));
            }
            let mut acc = Matrix::empty();
            for v in vals {
                let m = v.into_matrix().map_err(|m| RuntimeError::new(m, span))?;
                acc = acc.horzcat(&m).map_err(|m| RuntimeError::new(m, span))?;
            }
            return Ok(Value::Num(acc));
        }
        let mut acc = Matrix::empty();
        for row in rows {
            let mut row_acc = Matrix::empty();
            for e in row {
                let m = self
                    .eval(e, frame)?
                    .into_matrix()
                    .map_err(|m| RuntimeError::new(m, e.span()))?;
                row_acc = row_acc
                    .horzcat(&m)
                    .map_err(|m| RuntimeError::new(m, e.span()))?;
            }
            acc = acc
                .vertcat(&row_acc)
                .map_err(|m| RuntimeError::new(m, span))?;
        }
        Ok(Value::Num(acc))
    }
}

/// The 0-based position a subscript names when it is one in-bounds,
/// non-logical, real positive integer: the element read that
/// `Matrix::index_linear`/`index_2d` would return as a 1×1 matrix. Any
/// other subscript (`None`) takes the general path and its errors.
fn scalar_position(idx: &Matrix, extent: usize) -> Option<usize> {
    if !idx.is_scalar() || idx.is_logical() {
        return None;
    }
    let z = idx.lin(0);
    let in_range = z.is_real() && z.re >= 1.0 && z.re == z.re.trunc() && z.re <= extent as f64;
    in_range.then(|| z.re as usize - 1)
}

/// `z` in the buffer of `m`, a 1×1 matrix the caller owns: no allocation
/// when the buffer is unshared, and otherwise the copy a fresh
/// `Matrix::scalar` would cost. The logical flag of `m` is kept.
fn overwrite_scalar(mut m: Matrix, z: Cx) -> Matrix {
    m.data_mut()[0] = z;
    m
}

/// [`apply_binop`] on two 1×1 operands: the result element and whether it
/// is logical. `None` for the short-circuit operators, which
/// `apply_binop` rejects.
fn scalar_binop(op: BinOp, a: Cx, b: Cx) -> Option<(Cx, bool)> {
    let test = |t: bool| (Cx::real(if t { 1.0 } else { 0.0 }), true);
    let truthy = |z: Cx| z.re != 0.0 || z.im != 0.0;
    Some(match op {
        BinOp::Add => (a + b, false),
        BinOp::Sub => (a - b, false),
        BinOp::ElemMul | BinOp::MatMul => (a * b, false),
        BinOp::ElemDiv | BinOp::MatDiv => (a / b, false),
        BinOp::ElemLeftDiv | BinOp::MatLeftDiv => (b / a, false),
        BinOp::ElemPow | BinOp::MatPow => (a.powc(b), false),
        BinOp::Eq => test(a == b),
        BinOp::Ne => test(a != b),
        BinOp::Lt => test(a.re < b.re),
        BinOp::Le => test(a.re <= b.re),
        BinOp::Gt => test(a.re > b.re),
        BinOp::Ge => test(a.re >= b.re),
        BinOp::And => test(truthy(a) && truthy(b)),
        BinOp::Or => test(truthy(a) || truthy(b)),
        BinOp::AndAnd | BinOp::OrOr => return None,
    })
}

/// Applies a (non-short-circuit) binary operator with MATLAB semantics.
pub fn apply_binop(op: BinOp, l: &Matrix, r: &Matrix) -> Result<Matrix, String> {
    match op {
        BinOp::Add => l.zip(r, |a, b| a + b),
        BinOp::Sub => l.zip(r, |a, b| a - b),
        BinOp::ElemMul => l.zip(r, |a, b| a * b),
        BinOp::ElemDiv => l.zip(r, |a, b| a / b),
        BinOp::ElemLeftDiv => l.zip(r, |a, b| b / a),
        BinOp::ElemPow => l.zip(r, Cx::powc),
        BinOp::MatMul => l.matmul(r),
        BinOp::MatDiv => {
            if r.is_scalar() {
                l.zip(r, |a, b| a / b)
            } else {
                Err("matrix right-division only supported for scalar divisors".to_string())
            }
        }
        BinOp::MatLeftDiv => {
            if l.is_scalar() {
                l.zip(r, |a, b| b / a)
            } else {
                Err("matrix left-division only supported for scalar divisors".to_string())
            }
        }
        BinOp::MatPow => {
            if l.is_scalar() && r.is_scalar() {
                Ok(Matrix::scalar(l.lin(0).powc(r.lin(0))))
            } else {
                Err("matrix power only supported for scalars".to_string())
            }
        }
        BinOp::Eq => l.compare(r, |a, b| a == b),
        BinOp::Ne => l.compare(r, |a, b| a != b),
        BinOp::Lt => l.compare(r, |a, b| a.re < b.re),
        BinOp::Le => l.compare(r, |a, b| a.re <= b.re),
        BinOp::Gt => l.compare(r, |a, b| a.re > b.re),
        BinOp::Ge => l.compare(r, |a, b| a.re >= b.re),
        BinOp::And => l.compare(r, |a, b| {
            (a.re != 0.0 || a.im != 0.0) && (b.re != 0.0 || b.im != 0.0)
        }),
        BinOp::Or => l.compare(r, |a, b| {
            a.re != 0.0 || a.im != 0.0 || b.re != 0.0 || b.im != 0.0
        }),
        BinOp::AndAnd | BinOp::OrOr => {
            Err("short-circuit operator applied to matrices".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interpreter {
        let mut i = Interpreter::from_source(src).expect("parse ok");
        i.run_script().expect("run ok");
        i
    }

    fn var_f64(i: &Interpreter, name: &str) -> f64 {
        i.var(name)
            .expect("var exists")
            .as_matrix()
            .unwrap()
            .as_real_scalar()
            .unwrap()
    }

    fn var_matrix<'a>(i: &'a Interpreter, name: &str) -> &'a Matrix {
        i.var(name).expect("var exists").as_matrix().unwrap()
    }

    #[test]
    fn arithmetic_script() {
        let i = run("x = 2 + 3 * 4;");
        assert_eq!(var_f64(&i, "x"), 14.0);
    }

    #[test]
    fn classifies_error_messages_into_kinds() {
        assert_eq!(
            classify_message("execution fuel exhausted"),
            ErrorKind::FuelExhausted
        );
        assert_eq!(
            classify_message("index 9 out of bounds (extent 4)"),
            ErrorKind::OutOfBounds
        );
        assert_eq!(
            classify_message("index must be a positive integer, got 0.5"),
            ErrorKind::OutOfBounds
        );
        assert_eq!(
            classify_message("undefined function or variable `q`"),
            ErrorKind::Trap
        );
    }

    #[test]
    fn fuel_exhaustion_carries_structured_kind() {
        let mut i = Interpreter::from_source("x = 0;\nwhile 1\nx = x + 1;\nend").expect("parse ok");
        i.set_fuel(10_000);
        let err = i.run_script().expect_err("must exhaust fuel");
        assert!(err.is_fuel_exhausted());
        assert_eq!(err.kind, ErrorKind::FuelExhausted);
    }

    #[test]
    fn oob_read_carries_structured_kind() {
        let mut i = Interpreter::from_source("v = [1 2 3];\nx = v(7);").expect("parse ok");
        let err = i.run_script().expect_err("must trap");
        assert_eq!(err.kind, ErrorKind::OutOfBounds);
        assert!(!err.is_fuel_exhausted());
    }

    #[test]
    fn matrix_literal_and_indexing() {
        let i = run("a = [1 2; 3 4];\nb = a(2, 1);\nc = a(4);");
        assert_eq!(var_f64(&i, "b"), 3.0);
        assert_eq!(var_f64(&i, "c"), 4.0);
    }

    #[test]
    fn colon_and_end() {
        let i = run("v = 10:10:50;\na = v(end);\nb = v(end-1);\nc = v(2:end);");
        assert_eq!(var_f64(&i, "a"), 50.0);
        assert_eq!(var_f64(&i, "b"), 40.0);
        assert_eq!(var_matrix(&i, "c").numel(), 4);
    }

    #[test]
    fn colon_all_in_2d() {
        let i = run("a = [1 2 3; 4 5 6];\nr = a(2, :);\nc = a(:, 2);");
        assert_eq!(var_matrix(&i, "r").cols(), 3);
        assert_eq!(var_matrix(&i, "r").lin(0).re, 4.0);
        assert_eq!(var_matrix(&i, "c").rows(), 2);
        assert_eq!(var_matrix(&i, "c").lin(1).re, 5.0);
    }

    #[test]
    fn for_loop_accumulates() {
        let i = run("s = 0;\nfor k = 1:10\n s = s + k;\nend");
        assert_eq!(var_f64(&i, "s"), 55.0);
    }

    #[test]
    fn for_loop_with_step() {
        let i = run("s = 0;\nfor k = 10:-2:0\n s = s + k;\nend");
        assert_eq!(var_f64(&i, "s"), 30.0);
    }

    #[test]
    fn while_with_break_continue() {
        let i = run(
            "s = 0;\nk = 0;\nwhile 1\n k = k + 1;\n if k > 10\n  break\n end\n if mod(k, 2) == 0\n  continue\n end\n s = s + k;\nend",
        );
        assert_eq!(var_f64(&i, "s"), 25.0); // 1+3+5+7+9
    }

    #[test]
    fn if_elseif_else() {
        let i = run("x = -3;\nif x > 0\n s = 1;\nelseif x == 0\n s = 0;\nelse\n s = -1;\nend");
        assert_eq!(var_f64(&i, "s"), -1.0);
    }

    #[test]
    fn function_call_and_recursion() {
        let src = "r = fact(5);\nfunction y = fact(n)\nif n <= 1\n y = 1;\nelse\n y = n * fact(n - 1);\nend\nend";
        let i = run(src);
        assert_eq!(var_f64(&i, "r"), 120.0);
    }

    #[test]
    fn multi_output_function() {
        let src = "[a, b] = swap(1, 2);\nfunction [x, y] = swap(p, q)\nx = q;\ny = p;\nend";
        let i = run(src);
        assert_eq!(var_f64(&i, "a"), 2.0);
        assert_eq!(var_f64(&i, "b"), 1.0);
    }

    #[test]
    fn complex_arithmetic() {
        let i = run("z = (1 + 2i) * (3 - 1i);\nm = abs(z);");
        let z = var_matrix(&i, "z").as_scalar().unwrap();
        assert!(z.approx_eq(Cx::new(5.0, 5.0), 1e-12));
        assert!((var_f64(&i, "m") - 50.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn transpose_conjugates() {
        let i = run("v = [1+1i, 2];\nw = v';\nu = v.';");
        assert_eq!(var_matrix(&i, "w").lin(0).im, -1.0);
        assert_eq!(var_matrix(&i, "u").lin(0).im, 1.0);
    }

    #[test]
    fn elementwise_vs_matrix_ops() {
        let i = run("a = [1 2; 3 4];\ne = a .* a;\nm = a * a;");
        assert_eq!(var_matrix(&i, "e").at(1, 1).re, 16.0);
        assert_eq!(var_matrix(&i, "m").at(1, 1).re, 22.0);
    }

    #[test]
    fn auto_grow_assignment() {
        let i = run("x(3) = 5;\ny = length(x);");
        assert_eq!(var_f64(&i, "y"), 3.0);
        assert_eq!(var_matrix(&i, "x").lin(0).re, 0.0);
    }

    #[test]
    fn indexed_assignment_2d() {
        let i = run("a = zeros(2, 2);\na(1, 2) = 7;\na(2, :) = [8 9];");
        let a = var_matrix(&i, "a");
        assert_eq!(a.at(0, 1).re, 7.0);
        assert_eq!(a.at(1, 0).re, 8.0);
        assert_eq!(a.at(1, 1).re, 9.0);
    }

    #[test]
    fn end_in_assignment_index() {
        let i = run("x = 1:5;\nx(end) = 99;");
        assert_eq!(var_matrix(&i, "x").lin(4).re, 99.0);
    }

    #[test]
    fn logical_indexing_reads() {
        let i = run("v = [5 -2 8 -1];\np = v(v > 0);");
        let p = var_matrix(&i, "p");
        assert_eq!(p.numel(), 2);
        assert_eq!(p.lin(1).re, 8.0);
    }

    #[test]
    fn short_circuit_and() {
        // Without short circuit the second operand would error (index 0).
        let i = run("x = [];\nif isempty(x) || x(1) > 0\n ok = 1;\nelse\n ok = 0;\nend");
        assert_eq!(var_f64(&i, "ok"), 1.0);
    }

    #[test]
    fn anonymous_function_captures() {
        let i = run("k = 3;\nf = @(x) k * x;\ny = f(7);\nk = 100;\nz = f(7);");
        assert_eq!(var_f64(&i, "y"), 21.0);
        // Captured at definition time.
        assert_eq!(var_f64(&i, "z"), 21.0);
    }

    #[test]
    fn function_handles_and_feval() {
        let src = "h = @sq;\na = h(4);\nb = feval(h, 5);\nfunction y = sq(x)\ny = x^2;\nend";
        let i = run(src);
        assert_eq!(var_f64(&i, "a"), 16.0);
        assert_eq!(var_f64(&i, "b"), 25.0);
    }

    #[test]
    fn nargin_is_visible() {
        let src = "a = f(1);\nb = f(1, 2);\nfunction y = f(p, q)\ny = nargin;\nend";
        let i = run(src);
        assert_eq!(var_f64(&i, "a"), 1.0);
        assert_eq!(var_f64(&i, "b"), 2.0);
    }

    #[test]
    fn output_of_disp_and_fprintf() {
        let i = run("disp('hello');\nfprintf('%d-%d\\n', 1, 2);");
        assert_eq!(i.output(), "hello\n1-2\n");
    }

    #[test]
    fn unsuppressed_assignment_displays() {
        let i = run("x = 42");
        assert!(i.output().contains("x = 42"));
    }

    #[test]
    fn runtime_error_has_span() {
        let mut i = Interpreter::from_source("x = [1 2] + [1 2 3];").unwrap();
        let err = i.run_script().unwrap_err();
        assert!(err.message.contains("dimensions"));
        assert_ne!(err.span, Span::dummy());
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut i = Interpreter::from_source("while 1\n x = 1;\nend").unwrap();
        i.set_fuel(10_000);
        let err = i.run_script().unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn undefined_variable_errors() {
        let mut i = Interpreter::from_source("y = no_such_thing + 1;").unwrap();
        let err = i.run_script().unwrap_err();
        assert!(err.message.contains("no_such_thing"));
    }

    #[test]
    fn string_indexing() {
        let i = run("s = 'hello';\nc = s(1);\nt = s(2:3);");
        assert_eq!(i.var("c"), Some(&Value::Str("h".to_string())));
        assert_eq!(i.var("t"), Some(&Value::Str("el".to_string())));
    }

    #[test]
    fn matrix_of_ranges() {
        let i = run("v = [1:3, 7];");
        assert_eq!(var_matrix(&i, "v").numel(), 4);
        assert_eq!(var_matrix(&i, "v").lin(3).re, 7.0);
    }

    #[test]
    fn for_over_matrix_iterates_columns() {
        let i = run("a = [1 2; 3 4];\ns = 0;\nfor col = a\n s = s + col(1);\nend");
        assert_eq!(var_f64(&i, "s"), 3.0);
    }

    #[test]
    fn call_entry_point_directly() {
        let src = "function y = fir1(x)\ny = 2 * x;\nend";
        let mut i = Interpreter::from_source(src).unwrap();
        let outs = i
            .call("fir1", vec![Value::scalar(10.0)], 1)
            .expect("call ok");
        assert_eq!(outs[0].as_matrix().unwrap().as_real_scalar().unwrap(), 20.0);
    }

    #[test]
    fn global_variables_read() {
        let mut i = Interpreter::from_source("global g\nx = g;").unwrap();
        i.run_script().unwrap();
        assert!(var_matrix(&i, "x").is_empty());
    }

    #[test]
    fn power_operators() {
        let i = run("a = 2^10;\nb = [1 2 3].^2;\nc = 2.^[1 2 3];");
        assert_eq!(var_f64(&i, "a"), 1024.0);
        assert_eq!(var_matrix(&i, "b").lin(2).re, 9.0);
        assert_eq!(var_matrix(&i, "c").lin(2).re, 8.0);
    }

    #[test]
    fn comparison_produces_logical() {
        let i = run("m = [1 2 3] > 2;");
        assert!(var_matrix(&i, "m").is_logical());
        assert_eq!(var_matrix(&i, "m").lin(2).re, 1.0);
    }

    #[test]
    fn multiassign_with_discard() {
        let src = "[~, idx] = max([3 9 4]);";
        let i = run(src);
        assert_eq!(var_f64(&i, "idx"), 2.0);
    }

    #[test]
    fn colon_subscript_is_a_column() {
        let i = run("v = [1 2 3];\nc = v(:);\na = [1 2; 3 4];\nd = a(:);");
        assert_eq!(
            (var_matrix(&i, "c").rows(), var_matrix(&i, "c").cols()),
            (3, 1)
        );
        assert_eq!(
            (var_matrix(&i, "d").rows(), var_matrix(&i, "d").cols()),
            (4, 1)
        );
        assert_eq!(var_matrix(&i, "d").lin(1).re, 3.0);
    }

    #[test]
    fn reused_scalar_buffers_never_alias_values() {
        // The loop variable, literals and operands are written in place
        // only when unshared: earlier copies keep their values.
        let i = run(
            "s = 0;\nfor k = 1:3\n if k == 1\n  first = k;\n end\n s = s + 1;\n t = (k + 0) * 2;\nend\nw = first + 1;",
        );
        assert_eq!(var_f64(&i, "first"), 1.0);
        assert_eq!(var_f64(&i, "s"), 3.0);
        assert_eq!(var_f64(&i, "t"), 6.0);
        assert_eq!(var_f64(&i, "w"), 2.0);
        assert_eq!(var_f64(&i, "k"), 3.0);
    }

    #[test]
    fn variables_shadow_functions_only_once_bound() {
        // `pi` is a call until the script assigns it, then a variable.
        let i = run("a = pi;\npi = 3;\nb = pi;");
        assert!((var_f64(&i, "a") - std::f64::consts::PI).abs() < 1e-15);
        assert_eq!(var_f64(&i, "b"), 3.0);
    }

    #[test]
    fn scalar_expansion_assignment() {
        let i = run("x = zeros(1, 4);\nx(2:3) = 5;");
        let x = var_matrix(&i, "x");
        assert_eq!(x.lin(1).re, 5.0);
        assert_eq!(x.lin(2).re, 5.0);
        assert_eq!(x.lin(3).re, 0.0);
    }
}
