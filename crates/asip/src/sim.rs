//! Cycle-level execution of MIR on the virtual ASIP.
//!
//! The simulator interprets the *same* MIR the C backend emits from, with
//! the semantics of the generated C (fixed-size arrays, no growth), and
//! charges cycles per primitive machine operation according to the
//! target's parameterized cost model — instruction-level cost attribution
//! on compiler IR, the standard early design-space-exploration technique.
//! Running the baseline MIR and the vectorized MIR through the same
//! machine reproduces the paper's measurement: cycles of
//! MATLAB-Coder-style code vs. cycles of custom-instruction code.
//!
//! One engine runs every simulation: the decoded program is fused into
//! direct-threaded superinstructions ([`fuse_program`], `fuse.rs`) and
//! dispatched by `native.rs`. The tree walker over structured MIR
//! (`walk.rs`, reached through [`AsipMachine::run_interpreted`]) is kept
//! only as the reference semantics the differential tests compare
//! against. Both share this module's `Exec` core — charging, fuel, value
//! access and the call frame — and the statement semantics in `eval.rs`,
//! `builtins.rs` and `vector.rs`. The engine's micro-ops specialize
//! dispatch for scalar work; semantics such as slice loads and stores
//! exist once, in `eval.rs`.

mod builtins;
mod eval;
mod fuse;
mod native;
mod vector;
mod walk;

pub use fuse::{fuse_program, NativeProgram};

use crate::decode::{decode_program, DecodedProgram};
use crate::profile::Profile;
use crate::report::CycleReport;
use fuse::NativeFunction;
use matic_frontend::ast::BinOp;
use matic_frontend::span::Span;
use matic_interp::{Cx, Matrix};
use matic_isa::{IsaSpec, OpClass};
use matic_mir::{MirFunction, MirProgram, Operand, VarId};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A simulated runtime value: scalar register or memory-resident array.
#[derive(Debug, Clone, PartialEq)]
pub enum SimVal {
    /// Scalar register (real values have `im == 0`).
    Scalar(Cx),
    /// Array in data memory.
    Arr(Matrix),
}

impl SimVal {
    /// A real scalar.
    pub fn scalar(v: f64) -> SimVal {
        SimVal::Scalar(Cx::real(v))
    }

    /// A real row-vector array.
    pub fn row(values: &[f64]) -> SimVal {
        SimVal::Arr(Matrix::row_from_f64(values))
    }

    /// A complex row-vector array from `(re, im)` pairs.
    pub fn cx_row(pairs: &[(f64, f64)]) -> SimVal {
        SimVal::Arr(Matrix::row(
            pairs.iter().map(|&(r, i)| Cx::new(r, i)).collect(),
        ))
    }

    /// The scalar payload, broadcasting 1×1 arrays.
    pub fn as_cx(&self) -> Result<Cx, String> {
        match self {
            SimVal::Scalar(z) => Ok(*z),
            SimVal::Arr(m) => m.as_scalar(),
        }
    }

    /// The array payload (scalars become 1×1).
    pub fn into_matrix(self) -> Matrix {
        match self {
            SimVal::Scalar(z) => Matrix::scalar(z),
            SimVal::Arr(m) => m,
        }
    }

    /// A reference view of the array payload, if this is an array.
    pub fn as_matrix(&self) -> Option<&Matrix> {
        match self {
            SimVal::Arr(m) => Some(m),
            SimVal::Scalar(_) => None,
        }
    }
}

/// Coarse classification of a simulation failure (shared with the
/// reference interpreter so differential checks can compare outcomes).
pub use matic_interp::ErrorKind as SimErrorKind;

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Description.
    pub message: String,
    /// Source location of the failing operation.
    pub span: Span,
    /// Coarse failure class (fuel, bounds, other trap).
    pub kind: SimErrorKind,
}

impl SimError {
    /// An error whose kind is *recovered* from the message text via
    /// [`matic_interp::classify_message`]. This is the fallback
    /// constructor for messages produced by shared `String`-reporting
    /// helpers; sites that know their failure class statically should use
    /// [`SimError::with_kind`] / [`SimError::oob`] / [`SimError::trap`]
    /// so classification never depends on user-controllable text.
    fn new(message: impl Into<String>, span: Span) -> SimError {
        let message = message.into();
        let kind = matic_interp::classify_message(&message);
        SimError {
            message,
            span,
            kind,
        }
    }

    /// An error with an explicitly-stated failure class (no message
    /// re-parsing).
    pub fn with_kind(message: impl Into<String>, span: Span, kind: SimErrorKind) -> SimError {
        SimError {
            message: message.into(),
            span,
            kind,
        }
    }

    /// An out-of-bounds subscript error.
    pub(crate) fn oob(message: impl Into<String>, span: Span) -> SimError {
        SimError::with_kind(message, span, SimErrorKind::OutOfBounds)
    }

    /// A generic runtime trap (dimension mismatch, `error()` builtin,
    /// unsupported construct, ...). Used for user-raised `error()`
    /// messages in particular, whose text must never influence the kind.
    pub(crate) fn trap(message: impl Into<String>, span: Span) -> SimError {
        SimError::with_kind(message, span, SimErrorKind::Trap)
    }

    /// The fuel-exhaustion error raised when the statement budget runs
    /// out.
    pub fn fuel_exhausted(span: Span) -> SimError {
        SimError {
            message: "simulation fuel exhausted".to_string(),
            span,
            kind: SimErrorKind::FuelExhausted,
        }
    }

    /// Whether this failure is the fuel budget running out.
    pub fn is_fuel_exhausted(&self) -> bool {
        self.kind == SimErrorKind::FuelExhausted
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asip sim: {} at {}", self.message, self.span)
    }
}

impl std::error::Error for SimError {}

/// Result of one simulated kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Entry-function outputs, in order.
    pub outputs: Vec<SimVal>,
    /// Cycle accounting.
    pub cycles: CycleReport,
    /// Text printed by `fprintf`/`disp`.
    pub printed: String,
    /// Per-source-span cycle attribution; `Some` only when the machine ran
    /// with [`AsipMachine::with_profiling`] enabled.
    pub profile: Option<Profile>,
}

/// Per-class cycle costs and availability, pre-resolved from an
/// [`IsaSpec`] into flat arrays indexed by `OpClass as usize`. The hot
/// execution loop charges cycles through this table instead of walking the
/// spec's `BTreeMap` cost model on every operation.
#[derive(Debug, Clone)]
struct CostTable {
    cost: [u32; OpClass::COUNT],
    supports: [bool; OpClass::COUNT],
}

impl CostTable {
    fn new(spec: &IsaSpec) -> CostTable {
        let mut cost = [0u32; OpClass::COUNT];
        let mut supports = [false; OpClass::COUNT];
        for &op in OpClass::ALL {
            cost[op as usize] = spec.cost(op);
            supports[op as usize] = spec.supports(op);
        }
        CostTable { cost, supports }
    }
}

/// The virtual ASIP.
#[derive(Debug, Clone)]
pub struct AsipMachine {
    spec: Arc<IsaSpec>,
    costs: CostTable,
    /// Whether vector operations may use the target's custom instructions
    /// (mirrors the C backend's `use_intrinsics`).
    use_intrinsics: bool,
    /// Statement budget per `run`.
    fuel: u64,
    /// Whether runs accumulate per-span cycle attribution.
    profiling: bool,
}

impl AsipMachine {
    /// A machine implementing `spec`.
    pub fn new(spec: IsaSpec) -> AsipMachine {
        AsipMachine::from_shared(Arc::new(spec))
    }

    /// A machine implementing an already-shared `spec` (avoids cloning the
    /// spec when many machines target the same ISA).
    pub fn from_shared(spec: Arc<IsaSpec>) -> AsipMachine {
        let costs = CostTable::new(&spec);
        AsipMachine {
            spec,
            costs,
            use_intrinsics: true,
            fuel: 2_000_000_000,
            profiling: false,
        }
    }

    /// Disables custom-instruction issue (forces scalar expansion).
    pub fn without_intrinsics(mut self) -> AsipMachine {
        self.use_intrinsics = false;
        self
    }

    /// Caps the number of executed statements (default 2·10⁹); exceeding
    /// it raises a "fuel exhausted" error instead of hanging on
    /// non-terminating programs.
    pub fn with_fuel(mut self, fuel: u64) -> AsipMachine {
        self.fuel = fuel;
        self
    }

    /// Enables per-source-span cycle attribution: [`SimOutcome::profile`]
    /// becomes `Some` on subsequent runs. Profiling never changes cycle
    /// totals — it only observes the charges every run makes anyway.
    pub fn with_profiling(mut self, on: bool) -> AsipMachine {
        self.profiling = on;
        self
    }

    /// The implemented ISA.
    pub fn spec(&self) -> &IsaSpec {
        &self.spec
    }

    /// Runs `entry` of `mir` with `inputs`, returning outputs + cycles.
    ///
    /// Decodes and fuses the program, then runs it once. For repeated
    /// invocations of the same program, [`AsipMachine::load`] amortizes
    /// that preparation across runs.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for arity mismatches, out-of-bounds
    /// accesses, or constructs the machine cannot execute.
    pub fn run(
        &self,
        mir: &MirProgram,
        entry: &str,
        inputs: Vec<SimVal>,
    ) -> Result<SimOutcome, SimError> {
        self.clone().load(mir, entry).run(inputs)
    }

    /// Runs `entry` on the tree-walking interpreter over structured MIR
    /// (no decode or fusion).
    ///
    /// This is the reference semantics, not an execution engine: the
    /// differential tests and the fuzzer's oracle leg check that
    /// [`Simulator::run`] reproduces it bit for bit.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AsipMachine::run`].
    pub fn run_interpreted(
        &self,
        mir: &MirProgram,
        entry: &str,
        inputs: Vec<SimVal>,
    ) -> Result<SimOutcome, SimError> {
        let func = mir.function(entry).ok_or_else(|| entry_not_found(entry))?;
        let mut exec = Exec::new(self, mir, None);
        let outputs = exec.call(func, None, inputs)?;
        Ok(exec.finish(outputs))
    }

    /// Pre-decodes `mir` and returns a reusable simulator bound to
    /// `entry`. Repeated [`Simulator::run`] calls skip the decode and spec
    /// setup entirely.
    pub fn load<'m>(self, mir: &'m MirProgram, entry: &str) -> Simulator<'m> {
        let decoded = Arc::new(decode_program(mir));
        self.load_decoded(mir, decoded, entry)
    }

    /// Like [`AsipMachine::load`] but reuses an already-decoded program
    /// (e.g. a compilation pipeline's cache).
    pub fn load_decoded<'m>(
        self,
        mir: &'m MirProgram,
        decoded: Arc<DecodedProgram>,
        entry: &str,
    ) -> Simulator<'m> {
        let entry_idx = decoded.func_index(entry);
        Simulator {
            machine: self,
            mir,
            decoded,
            native: OnceLock::new(),
            shared_native: None,
            entry: entry.to_string(),
            entry_idx,
        }
    }
}

#[cold]
fn entry_not_found(entry: &str) -> SimError {
    SimError::new(format!("entry `{entry}` not found"), Span::dummy())
}

/// The simulator's execution engine. The fused direct-threaded engine is
/// the only one; the type, [`Simulator::with_engine`] and the `engine`
/// fields of the explore and cycles-report configurations remain only
/// because `perfbench/` still calls them, and can go together with those
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Superinstructions with fn-pointer dispatch.
    #[default]
    Native,
}

impl Engine {
    /// The engine's report name (`native`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Native => "native",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A machine with a program already decoded and an entry point resolved —
/// the reusable-run API. Construction (via [`AsipMachine::load`]) pays for
/// the decode once; the first [`Simulator::run`] fuses the program, and
/// every run then only allocates the per-call environment.
#[derive(Debug, Clone)]
pub struct Simulator<'m> {
    machine: AsipMachine,
    mir: &'m MirProgram,
    decoded: Arc<DecodedProgram>,
    /// Fused form, built lazily on the first run (or seeded via
    /// [`Simulator::with_native`] by a pipeline cache).
    native: OnceLock<Arc<NativeProgram>>,
    /// When set, the fused program is built into (and read from) this
    /// caller-owned cell instead of the simulator-local one, so every
    /// simulator spawned from the same compilation fuses at most once —
    /// and only if one of them actually runs.
    shared_native: Option<&'m OnceLock<Arc<NativeProgram>>>,
    entry: String,
    /// Entry function index, resolved once at load time so repeated runs
    /// skip the by-name lookup (`None` when the entry does not exist; the
    /// error surfaces on `run`).
    entry_idx: Option<usize>,
}

impl<'m> Simulator<'m> {
    /// Runs the loaded entry function with `inputs`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AsipMachine::run`].
    pub fn run(&self, inputs: Vec<SimVal>) -> Result<SimOutcome, SimError> {
        let idx = self.entry_idx.ok_or_else(|| entry_not_found(&self.entry))?;
        let cell = self.shared_native.unwrap_or(&self.native);
        let native = cell.get_or_init(|| Arc::new(fuse_program(self.mir, &self.decoded)));
        let mut exec = Exec::new(&self.machine, self.mir, Some((&self.decoded, native)));
        let outputs = exec.call(&self.mir.functions[idx], Some(&native.funcs[idx]), inputs)?;
        Ok(exec.finish(outputs))
    }

    /// The underlying machine.
    pub fn machine(&self) -> &AsipMachine {
        &self.machine
    }

    /// A no-op: [`Engine::Native`] is the only engine. Kept only for
    /// `perfbench/`'s calls (see [`Engine`]).
    pub fn with_engine(self, _engine: Engine) -> Self {
        self
    }

    /// Seeds the fused program cache (e.g. from a compilation pipeline
    /// that shares one [`NativeProgram`] across many simulators). The
    /// program must have been built by [`fuse_program`] from the same
    /// decoded program this simulator runs.
    pub fn with_native(self, native: Arc<NativeProgram>) -> Self {
        let _ = self.native.set(native);
        self
    }

    /// Points the simulator at a caller-owned fusion cell. The fused
    /// program is built *lazily*, on the first run, and lands in `cell`
    /// so it is shared by every simulator handed the same cell — callers
    /// that only build simulators never pay for fusion.
    pub fn with_native_cell(mut self, cell: &'m OnceLock<Arc<NativeProgram>>) -> Self {
        self.shared_native = Some(cell);
        self
    }

    /// Caps the statement budget per [`Simulator::run`] (see
    /// [`AsipMachine::with_fuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.machine.fuel = fuel;
        self
    }

    /// Enables per-span cycle attribution (see
    /// [`AsipMachine::with_profiling`]).
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.machine.profiling = on;
        self
    }
}

struct Exec<'a> {
    machine: &'a AsipMachine,
    mir: &'a MirProgram,
    /// The decoded and fused program when running on the native engine;
    /// `None` on the tree-walking reference path. Callees run on the same
    /// path as their caller.
    native: Option<(&'a DecodedProgram, &'a NativeProgram)>,
    // Cycle accounting as flat accumulators (array indexed by
    // `OpClass as usize`); folded into a `CycleReport` once at the end of
    // the run. `touched` marks classes that were charged at least once —
    // including zero-count charges — so the final report's per-class map
    // matches what per-charge `BTreeMap` insertion would have produced.
    total: u64,
    instructions: u64,
    by_class: [u64; OpClass::COUNT],
    touched: u32,
    printed: String,
    fuel: u64,
    depth: u32,
    /// Span of the statement/instruction currently being charged; every
    /// dispatch sets it before any `charge` call, so the profile hook in
    /// `charge` attributes to the right source location on both paths.
    cur_span: Span,
    /// `Some` when the machine was built `with_profiling(true)`.
    profile: Option<Profile>,
}

type Env = Vec<Option<SimVal>>;

impl<'a> Exec<'a> {
    fn new(
        machine: &'a AsipMachine,
        mir: &'a MirProgram,
        native: Option<(&'a DecodedProgram, &'a NativeProgram)>,
    ) -> Exec<'a> {
        Exec {
            machine,
            mir,
            native,
            total: 0,
            instructions: 0,
            by_class: [0; OpClass::COUNT],
            touched: 0,
            printed: String::new(),
            fuel: machine.fuel,
            depth: 0,
            cur_span: Span::dummy(),
            profile: machine.profiling.then(Profile::default),
        }
    }

    fn finish(self, outputs: Vec<SimVal>) -> SimOutcome {
        let mut cycles = CycleReport::new();
        cycles.total = self.total;
        cycles.instructions = self.instructions;
        for &op in OpClass::ALL {
            if self.touched & (1 << op as usize) != 0 {
                cycles.by_class.insert(op, self.by_class[op as usize]);
            }
        }
        SimOutcome {
            outputs,
            cycles,
            printed: self.printed,
            profile: self.profile,
        }
    }

    fn spec(&self) -> &IsaSpec {
        &self.machine.spec
    }

    fn supports(&self, class: OpClass) -> bool {
        self.machine.costs.supports[class as usize]
    }

    #[inline(always)]
    fn charge(&mut self, class: OpClass, count: u64) {
        let c = self.machine.costs.cost[class as usize] as u64 * count;
        self.total += c;
        self.instructions += count;
        self.by_class[class as usize] += c;
        self.touched |= 1 << class as usize;
        if self.profile.is_some() {
            self.charge_profile(class, c, count);
        }
    }

    /// The profiling half of [`Exec::charge`], kept out of line so the
    /// accumulator updates inline into every handler.
    #[inline(never)]
    fn charge_profile(&mut self, class: OpClass, cycles: u64, count: u64) {
        if let Some(p) = &mut self.profile {
            p.record(self.cur_span, class, cycles, count);
        }
    }

    /// Records SIMD lane occupancy for the current span: `elems` useful
    /// elements processed in `slots` issued lane slots.
    fn note_lanes(&mut self, elems: u64, slots: u64) {
        if let Some(p) = &mut self.profile {
            p.record_lanes(self.cur_span, elems, slots);
        }
    }

    #[inline(always)]
    fn burn(&mut self, span: Span) -> Result<(), SimError> {
        if self.fuel == 0 {
            return Err(SimError::fuel_exhausted(span));
        }
        self.fuel -= 1;
        Ok(())
    }

    // ---- complex-arithmetic cost helpers ---------------------------------

    fn cx_add_cost(&mut self, count: u64) {
        if self.machine.use_intrinsics && self.supports(OpClass::ComplexAdd) {
            self.charge(OpClass::ComplexAdd, count);
        } else {
            self.charge(OpClass::ScalarAlu, 2 * count);
        }
    }

    fn cx_mul_cost(&mut self, count: u64) {
        if self.machine.use_intrinsics && self.supports(OpClass::ComplexMul) {
            self.charge(OpClass::ComplexMul, count);
        } else {
            self.charge(OpClass::ScalarMul, 4 * count);
            self.charge(OpClass::ScalarAlu, 2 * count);
        }
    }

    fn cx_mac_cost(&mut self, count: u64) {
        if self.machine.use_intrinsics && self.supports(OpClass::ComplexMac) {
            self.charge(OpClass::ComplexMac, count);
        } else {
            self.cx_mul_cost(count);
            self.cx_add_cost(count);
        }
    }

    fn cx_div_cost(&mut self, count: u64) {
        self.charge(OpClass::ScalarMul, 6 * count);
        self.charge(OpClass::ScalarAlu, 3 * count);
        self.charge(OpClass::ScalarDiv, 2 * count);
    }

    /// Charges a complex conjugate: one custom instruction when the
    /// target has it, otherwise a scalar ALU op.
    fn conj_cost(&mut self, count: u64) {
        if self.machine.use_intrinsics && self.supports(OpClass::ComplexConj) {
            self.charge(OpClass::ComplexConj, count);
        } else {
            self.charge(OpClass::ScalarAlu, count);
        }
    }

    fn scalar_binop_cost(&mut self, op: BinOp, complex: bool) {
        if complex {
            match op {
                BinOp::Add | BinOp::Sub => self.cx_add_cost(1),
                BinOp::ElemMul | BinOp::MatMul => self.cx_mul_cost(1),
                BinOp::ElemDiv | BinOp::MatDiv | BinOp::ElemLeftDiv | BinOp::MatLeftDiv => {
                    self.cx_div_cost(1)
                }
                BinOp::ElemPow | BinOp::MatPow => self.charge(OpClass::ScalarTrans, 2),
                _ => self.charge(OpClass::ScalarAlu, 2),
            }
        } else {
            match op {
                BinOp::ElemMul | BinOp::MatMul => self.charge(OpClass::ScalarMul, 1),
                BinOp::ElemDiv | BinOp::MatDiv | BinOp::ElemLeftDiv | BinOp::MatLeftDiv => {
                    self.charge(OpClass::ScalarDiv, 1)
                }
                BinOp::ElemPow | BinOp::MatPow => self.charge(OpClass::ScalarTrans, 1),
                _ => self.charge(OpClass::ScalarAlu, 1),
            }
        }
    }

    // ---- the call frame ---------------------------------------------------

    /// Calls `func` with `inputs`: depth guard, arity check, `Call`
    /// charge, parameter coercion, then the body — its fused form `body`
    /// on the native engine, the structured MIR on the tree walker — and
    /// finally output collection.
    fn call(
        &mut self,
        func: &MirFunction,
        body: Option<&NativeFunction>,
        inputs: Vec<SimVal>,
    ) -> Result<Vec<SimVal>, SimError> {
        if self.depth > 128 {
            return Err(SimError::new("call depth exceeded", Span::dummy()));
        }
        if inputs.len() != func.params.len() {
            return Err(SimError::new(
                format!(
                    "`{}` expects {} inputs, got {}",
                    func.name,
                    func.params.len(),
                    inputs.len()
                ),
                Span::dummy(),
            ));
        }
        self.depth += 1;
        self.charge(OpClass::Call, 1);
        let mut env: Env = vec![None; func.vars.len()];
        for (&p, val) in func.params.iter().zip(inputs) {
            // Coerce per the register's representation.
            let coerced = if func.var_ty(p).shape.is_scalar() {
                SimVal::Scalar(val.as_cx().map_err(|m| SimError::new(m, Span::dummy()))?)
            } else {
                SimVal::Arr(val.into_matrix())
            };
            env[p.0 as usize] = Some(coerced);
        }
        match body {
            Some(nfunc) => self.exec_native(func, nfunc, &mut env)?,
            None => {
                self.exec_block(func, &func.body, &mut env)?;
            }
        }
        let mut outs = Vec::new();
        for &o in &func.outputs {
            outs.push(env[o.0 as usize].clone().ok_or_else(|| {
                SimError::new(
                    format!("output `{}` never assigned", func.var(o).name),
                    Span::dummy(),
                )
            })?);
        }
        self.depth -= 1;
        Ok(outs)
    }

    /// Calls a function by name on whichever path this execution runs,
    /// borrowing the callee from the program.
    fn call_by_name(
        &mut self,
        name: &str,
        inputs: Vec<SimVal>,
        span: Span,
    ) -> Result<Vec<SimVal>, SimError> {
        let unknown = || SimError::new(format!("call to unknown `{name}`"), span);
        let mir = self.mir;
        match self.native {
            Some((decoded, native)) => {
                let idx = decoded.func_index(name).ok_or_else(unknown)?;
                self.call(&mir.functions[idx], Some(&native.funcs[idx]), inputs)
            }
            None => {
                let callee = mir.function(name).ok_or_else(unknown)?;
                self.call(callee, None, inputs)
            }
        }
    }

    // ---- value access -------------------------------------------------------

    #[inline]
    fn get(&self, f: &MirFunction, env: &Env, v: VarId, span: Span) -> Result<SimVal, SimError> {
        env[v.0 as usize]
            .clone()
            .ok_or_else(|| SimError::new(format!("read of unset `{}`", f.var(v).name), span))
    }

    #[inline]
    fn operand(
        &self,
        f: &MirFunction,
        env: &Env,
        op: Operand,
        span: Span,
    ) -> Result<SimVal, SimError> {
        match op {
            Operand::Const(v) => Ok(SimVal::Scalar(Cx::real(v))),
            Operand::ConstC(re, im) => Ok(SimVal::Scalar(Cx::new(re, im))),
            Operand::Var(v) => self.get(f, env, v, span),
        }
    }

    #[inline]
    fn scalar_of(
        &self,
        f: &MirFunction,
        env: &Env,
        op: Operand,
        span: Span,
    ) -> Result<Cx, SimError> {
        self.operand(f, env, op, span)?
            .as_cx()
            .map_err(|m| SimError::new(m, span))
    }

    #[inline]
    fn real_of(
        &self,
        f: &MirFunction,
        env: &Env,
        op: Operand,
        span: Span,
    ) -> Result<f64, SimError> {
        let z = self.scalar_of(f, env, op, span)?;
        Ok(z.re)
    }

    /// The real values of a `start:step:stop` triple, read in that order.
    fn range_of(
        &self,
        f: &MirFunction,
        env: &Env,
        [start, step, stop]: [Operand; 3],
        span: Span,
    ) -> Result<(f64, f64, f64), SimError> {
        Ok((
            self.real_of(f, env, start, span)?,
            self.real_of(f, env, step, span)?,
            self.real_of(f, env, stop, span)?,
        ))
    }

    #[inline]
    fn index0(&self, f: &MirFunction, env: &Env, op: Operand, span: Span) -> Result<i64, SimError> {
        Ok(self.real_of(f, env, op, span)? as i64 - 1)
    }

    fn set(&self, env: &mut Env, v: VarId, val: SimVal) {
        env[v.0 as usize] = Some(val);
    }

    /// Takes `v` out of the environment for in-place mutation; the caller
    /// must `set` it back. Where `get` would clone (and force a
    /// copy-on-write duplication of the payload on the next write), this
    /// leaves the mutator holding the only reference, so indexed stores
    /// update arrays in place.
    fn take_val(
        &self,
        f: &MirFunction,
        env: &mut Env,
        v: VarId,
        span: Span,
    ) -> Result<SimVal, SimError> {
        env[v.0 as usize]
            .take()
            .ok_or_else(|| SimError::new(format!("read of unset `{}`", f.var(v).name), span))
    }

    fn truthy(&self, f: &MirFunction, env: &Env, op: Operand) -> Result<bool, SimError> {
        match self.operand(f, env, op, Span::dummy())? {
            SimVal::Scalar(z) => Ok(z.re != 0.0 || z.im != 0.0),
            SimVal::Arr(m) => Ok(m.as_bool()),
        }
    }
}

/// The number of elements of `s:st:e` — the trip count of a `for` loop
/// and the length of a range subscript.
fn trip_count(s: f64, st: f64, e: f64) -> i64 {
    if st == 0.0 {
        0
    } else {
        (((e - s) / st + 1e-10).floor() as i64 + 1).max(0)
    }
}

/// The `Def` epilogue: coerce to the destination register's representation
/// and write the slot.
#[inline(always)]
fn def_finish(env: &mut Env, dst: VarId, scalar_dst: bool, val: SimVal) {
    let val = if scalar_dst {
        match val {
            SimVal::Arr(m) if m.is_scalar() => SimVal::Scalar(m.lin(0)),
            other => other,
        }
    } else {
        match val {
            SimVal::Scalar(z) => SimVal::Arr(Matrix::scalar(z)),
            other => other,
        }
    };
    env[dst.0 as usize] = Some(val);
}

/// Fetches an operand if it resolves to a scalar right now: `Ok(Some)` on a
/// scalar, `Ok(None)` when the value is array-shaped (caller falls back to
/// the generic path), `Err(v)` when the register is unset.
#[inline(always)]
fn slot_scalar(env: &Env, op: Operand) -> Result<Option<Cx>, VarId> {
    match op {
        Operand::Const(v) => Ok(Some(Cx::real(v))),
        Operand::ConstC(re, im) => Ok(Some(Cx::new(re, im))),
        Operand::Var(v) => match &env[v.0 as usize] {
            Some(SimVal::Scalar(z)) => Ok(Some(*z)),
            Some(SimVal::Arr(_)) => Ok(None),
            None => Err(v),
        },
    }
}
