//! Superinstruction fusion: the `NativeProgram` builder.
//!
//! Pre-compiles a `DecodedProgram` into the native engine's direct-threaded
//! form: every instruction becomes an `NStep` whose `run` field is a plain
//! Rust fn pointer chosen once here, and maximal straight-line runs of
//! `Def`/`Store` instructions are fused into a single `Super` step holding a
//! flat list of micro-ops (each again a pre-selected fn pointer with its
//! operand slots resolved). The dispatch loop in `native.rs` is then just
//! `pc = (step.run)(...)` — no instruction-enum match on the hot path, and
//! no span bookkeeping unless profiling is on.
//!
//! Fusion is a pure representation change: micro-ops burn fuel, charge
//! cycles, and raise errors in exactly the order the tree walker does for
//! the statements they came from, so outcomes stay bit-identical (pinned by
//! `tests/engine_differential.rs` and the pipeline fuzzer). Only scalar
//! element accesses and scalar arithmetic get specialized micro-ops; every
//! other `Def`/`Store` (slices included) becomes a generic micro-op that
//! calls the semantics in `eval.rs`, so those exist once.

use super::native::{
    micro_bin, micro_bin_fast, micro_chain, micro_copy, micro_def_generic, micro_load1,
    micro_load2, micro_store1, micro_store2, micro_store_generic, micro_un, step_branch,
    step_branch_burning, step_break, step_call_multi, step_continue, step_effect, step_for_next,
    step_for_setup, step_jump, step_return, step_super, step_vector, step_while_enter,
    step_while_iter, Frame,
};
use super::{Env, Exec, SimError};
use crate::decode::{DInst, DecodedFunction, DecodedProgram};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_interp::Cx;
use matic_isa::OpClass;
use matic_mir::{Index, MirFunction, MirProgram, Operand, Rvalue, VarId, VecRef, VectorOp};
use std::fmt;

/// A decoded program pre-compiled for the direct-threaded native engine.
///
/// Functions are index-parallel with the source [`MirProgram`] /
/// [`DecodedProgram`]; build one with [`fuse_program`] and run it through
/// [`Simulator`](super::Simulator). The structure is immutable
/// and target-independent, so one fused program can be shared across
/// threads and retargeted to many candidate ISAs.
pub struct NativeProgram {
    pub(super) funcs: Vec<NativeFunction>,
}

impl fmt::Debug for NativeProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeProgram")
            .field("funcs", &self.funcs.len())
            .finish()
    }
}

/// One function's flat step table.
pub(super) struct NativeFunction {
    pub(super) steps: Vec<NStep>,
}

/// Handler signature for one native step: executes, then returns the next
/// step index (`u32::MAX` to leave the function).
pub(super) type StepFn = for<'a> fn(
    &mut Exec<'a>,
    &MirFunction,
    &mut Env,
    &mut Vec<Frame>,
    &NStep,
    u32,
) -> Result<u32, SimError>;

/// One direct-threaded step: a pre-selected handler plus its payload.
pub(super) struct NStep {
    pub(super) run: StepFn,
    pub(super) data: NData,
}

/// Step payloads (control flow and non-fusable statements).
pub(super) enum NData {
    /// A fused straight-line run of `Def`/`Store` instructions.
    Super(Vec<Micro>),
    /// Conditional branch; the fuel burn and loop-exit behavior are baked
    /// into the handler selected at fuse time.
    Branch {
        cond: Operand,
        if_false: u32,
        exit_loop: bool,
        span: Span,
    },
    Jump {
        target: u32,
    },
    ForSetup {
        var: VarId,
        start: Operand,
        step: Operand,
        stop: Operand,
    },
    ForNext {
        end: u32,
        span: Span,
    },
    Loop {
        target: u32,
    },
    CallMulti {
        dsts: Vec<Option<VarId>>,
        func: String,
        args: Vec<Operand>,
        user: bool,
        span: Span,
    },
    Effect {
        name: String,
        args: Vec<Operand>,
        span: Span,
    },
    Vector(VectorOp),
    None,
}

/// Handler signature for one micro-op inside a superinstruction.
pub(super) type MicroFn =
    for<'a> fn(&mut Exec<'a>, &MirFunction, &mut Env, &MicroData) -> Result<(), SimError>;

/// One fused micro-op: pre-selected handler + pre-resolved operand slots.
pub(super) struct Micro {
    pub(super) run: MicroFn,
    pub(super) data: MicroData,
}

/// Micro-op payloads. The specialized forms carry exactly the slots their
/// fast path needs; when a runtime shape disagrees with the specialization
/// (e.g. a scalar-typed register holding a 1×1 array's worth of gather
/// indices) the handler falls back to the generic `Exec` path, which
/// re-derives the identical charges and errors.
pub(super) enum MicroData {
    /// `dst = a <op> b`, specialized for scalar operands. `class` and
    /// `evalf` are the cost class and compute fn for *real* scalar
    /// operands, pre-selected from `op` at fuse time; complex operands
    /// take the generic cost path (still keyed on `op`).
    Bin {
        op: BinOp,
        class: OpClass,
        evalf: fn(Cx, Cx) -> Cx,
        a: Operand,
        b: Operand,
        dst: VarId,
        scalar_dst: bool,
        span: Span,
    },
    /// `dst = a` (register copy).
    Copy {
        a: Operand,
        dst: VarId,
        scalar_dst: bool,
        span: Span,
    },
    /// `dst = <op> a`, specialized for a scalar operand.
    Un {
        op: UnOp,
        a: Operand,
        dst: VarId,
        scalar_dst: bool,
        span: Span,
    },
    /// `dst = arr(idx)`, specialized for a scalar subscript.
    Load1 {
        arr: VarId,
        idx: Operand,
        dst: VarId,
        scalar_dst: bool,
        span: Span,
    },
    /// `dst = arr(r, c)`, specialized for scalar subscripts.
    Load2 {
        arr: VarId,
        r: Operand,
        c: Operand,
        dst: VarId,
        scalar_dst: bool,
        span: Span,
    },
    /// `arr(idx) = value`, specialized for scalar subscript and value.
    Store1 {
        arr: VarId,
        idx: Operand,
        value: Operand,
        span: Span,
    },
    /// `arr(r, c) = value`, specialized for scalar subscripts and value.
    Store2 {
        arr: VarId,
        r: Operand,
        c: Operand,
        value: Operand,
        span: Span,
    },
    /// A compiled straight-line run of scalar micro-ops executed with
    /// intermediate values held in a local temp stack instead of the
    /// environment (see [`ChainData`]).
    Chain(Box<ChainData>),
    /// Any other `Def` — runs through `Exec::eval_rvalue`.
    Def {
        dst: VarId,
        scalar_dst: bool,
        rv: Rvalue,
        span: Span,
    },
    /// Any other `Store` — runs through `Exec::exec_store`.
    Store {
        array: VarId,
        indices: Vec<Index>,
        value: Operand,
        span: Span,
    },
}

/// Longest run of micro-ops one chain may compile (bounds the runtime
/// temp stack, which lives on the Rust stack).
pub(super) const CHAIN_MAX: usize = 48;

/// A scalar chain: a run of consecutive `Bin`/`Un`/`Copy`/`Load1`/`Load2`/
/// `Store1`/`Store2` micro-ops compiled into a flat op list whose
/// intermediate results live in a fixed temp stack. Environment reads that
/// refer to values defined earlier in the chain are rewritten to temp
/// reads at fuse time, and environment writes of values never read outside
/// the chain are elided entirely (the run aborts on error and outputs are
/// read only at function exit, so intermediate register state is
/// unobservable).
///
/// The fast path runs only when profiling is off, fuel covers the whole
/// chain, and every guard on the *initial* environment holds (external
/// scalar operands are scalars, load/store bases are arrays). Guards are
/// checked before any side effect, so a miss falls back to the original
/// micro sequence with bit-identical fuel, cycles, and errors.
pub(super) struct ChainData {
    pub(super) ops: Vec<ChainOp>,
    /// Shape guards on the initial environment, deduplicated.
    pub(super) guards: Vec<Guard>,
    /// The original micro sequence (profiling / low fuel / guard miss).
    pub(super) fallback: Vec<Micro>,
    /// Per-class charge *counts* for the whole chain when every `Bin`
    /// input is real (the only runtime-dependent cost). Cycle costs stay
    /// machine-side, so `charge(class, count)` with these aggregates is
    /// bit-identical to the per-op charge sequence; a complex value or a
    /// mid-chain error deoptimizes to exact per-op accounting.
    pub(super) real_counts: [u16; OpClass::COUNT],
}

/// A pre-resolved source of one chain op.
#[derive(Clone, Copy)]
pub(super) enum CSrc {
    Const(Cx),
    /// Environment slot, guarded to hold a scalar at chain entry.
    Env(u32),
    /// Temp stack slot written by an earlier op of the same chain.
    Tmp(u8),
}

/// Shape precondition on one environment slot at chain entry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Guard {
    Scalar(u32),
    Arr(u32),
}

/// One chain op. `a`/`b`/`c` are the operand slots its kind uses (see the
/// per-kind comments); unused slots hold `CSrc::Const(0)`.
pub(super) struct ChainOp {
    pub(super) kind: CKind,
    pub(super) a: CSrc,
    pub(super) b: CSrc,
    /// Third operand (only `Store2`'s stored value).
    pub(super) c: CSrc,
    /// Environment slot to write the result through to, or `u32::MAX`
    /// when the value is never read outside the chain.
    pub(super) env_dst: u32,
    pub(super) scalar_dst: bool,
    pub(super) span: Span,
}

pub(super) enum CKind {
    /// `dst = a <op> b`.
    Bin {
        op: BinOp,
        class: OpClass,
        evalf: fn(Cx, Cx) -> Cx,
    },
    /// `dst = <op> a`.
    Un(UnOp),
    /// `dst = a`.
    Copy,
    /// `dst = arr(a)`.
    Load1 { arr: u32 },
    /// `dst = arr(a, b)`.
    Load2 { arr: u32 },
    /// `arr(a) = b`.
    Store1 { arr: u32 },
    /// `arr(a, b) = c`.
    Store2 { arr: u32 },
}

/// The real-scalar cost class and compute fn for `op`; paired with the
/// generic complex-cost path in `micro_bin_fast`. `AndAnd`/`OrOr` never
/// come through here (they keep the fully generic handler because their
/// scalar application is an error).
fn bin_kit(op: BinOp) -> (OpClass, fn(Cx, Cx) -> Cx) {
    fn b(c: bool) -> Cx {
        Cx::real(if c { 1.0 } else { 0.0 })
    }
    fn truthy(z: Cx) -> bool {
        z.re != 0.0 || z.im != 0.0
    }
    match op {
        BinOp::Add => (OpClass::ScalarAlu, |a, y| a + y),
        BinOp::Sub => (OpClass::ScalarAlu, |a, y| a - y),
        BinOp::ElemMul | BinOp::MatMul => (OpClass::ScalarMul, |a, y| a * y),
        BinOp::ElemDiv | BinOp::MatDiv => (OpClass::ScalarDiv, |a, y| a / y),
        BinOp::ElemLeftDiv | BinOp::MatLeftDiv => (OpClass::ScalarDiv, |a, y| y / a),
        BinOp::ElemPow | BinOp::MatPow => (OpClass::ScalarTrans, |a, y| a.powc(y)),
        BinOp::Eq => (OpClass::ScalarAlu, |a, y| b(a == y)),
        BinOp::Ne => (OpClass::ScalarAlu, |a, y| b(a != y)),
        BinOp::Lt => (OpClass::ScalarAlu, |a, y| b(a.re < y.re)),
        BinOp::Le => (OpClass::ScalarAlu, |a, y| b(a.re <= y.re)),
        BinOp::Gt => (OpClass::ScalarAlu, |a, y| b(a.re > y.re)),
        BinOp::Ge => (OpClass::ScalarAlu, |a, y| b(a.re >= y.re)),
        BinOp::And => (OpClass::ScalarAlu, |a, y| b(truthy(a) && truthy(y))),
        BinOp::Or => (OpClass::ScalarAlu, |a, y| b(truthy(a) || truthy(y))),
        BinOp::AndAnd | BinOp::OrOr => (OpClass::ScalarAlu, |a, _| a),
    }
}

/// Pre-compiles `decoded` for the native engine. Pure function of the
/// program; the result is target-independent and shareable.
pub fn fuse_program(mir: &MirProgram, decoded: &DecodedProgram) -> NativeProgram {
    NativeProgram {
        funcs: decoded
            .funcs
            .iter()
            .zip(&mir.functions)
            .map(|(d, m)| fuse_function(d, m))
            .collect(),
    }
}

/// Whether `inst` may join a fused straight-line block.
fn fusable(inst: &DInst) -> bool {
    matches!(inst, DInst::Def { .. } | DInst::Store { .. })
}

/// For every variable, the list of pcs whose instruction *reads* it
/// (operand use, subscript, load/store/vector base — stores and vector
/// destinations count as reads because they modify the existing value).
/// Drives dead-write elision in chains: a value read only inside its own
/// chain never needs its environment slot written.
fn collect_reads(code: &[DInst], nvars: usize) -> Vec<Vec<u32>> {
    let mut reads: Vec<Vec<u32>> = vec![Vec::new(); nvars];
    let mark = |v: VarId, pc: usize, reads: &mut Vec<Vec<u32>>| {
        if let Some(list) = reads.get_mut(v.0 as usize) {
            list.push(pc as u32);
        }
    };
    fn op_of(o: Operand) -> Option<VarId> {
        o.as_var()
    }
    for (pc, inst) in code.iter().enumerate() {
        let mut ops: Vec<Operand> = Vec::new();
        let mut vars: Vec<VarId> = Vec::new();
        let idx_ops = |ixs: &[Index], ops: &mut Vec<Operand>| {
            for ix in ixs {
                match ix {
                    Index::Scalar(o) => ops.push(*o),
                    Index::Range { start, step, stop } => {
                        ops.extend([*start, *step, *stop]);
                    }
                    Index::Full => {}
                }
            }
        };
        let vecref = |r: &VecRef, ops: &mut Vec<Operand>, vars: &mut Vec<VarId>| match r {
            VecRef::Slice { array, start, step } => {
                vars.push(*array);
                ops.extend([*start, *step]);
            }
            VecRef::Splat(o) => ops.push(*o),
        };
        match inst {
            DInst::Def { rv, .. } => match rv {
                Rvalue::Use(a) => ops.push(*a),
                Rvalue::Unary { a, .. } | Rvalue::Transpose { a, .. } => ops.push(*a),
                Rvalue::Binary { a, b, .. } => ops.extend([*a, *b]),
                Rvalue::Index { array, indices } => {
                    vars.push(*array);
                    idx_ops(indices, &mut ops);
                }
                Rvalue::Range { start, step, stop } => ops.extend([*start, *step, *stop]),
                Rvalue::Alloc { rows, cols, .. } => ops.extend([*rows, *cols]),
                Rvalue::Builtin { args, .. } | Rvalue::Call { args, .. } => {
                    ops.extend(args.iter().copied());
                }
                Rvalue::MatrixLit { rows } => {
                    for row in rows {
                        ops.extend(row.iter().copied());
                    }
                }
                Rvalue::StrLit(_) => {}
            },
            DInst::Store {
                array,
                indices,
                value,
                ..
            } => {
                vars.push(*array);
                idx_ops(indices, &mut ops);
                ops.push(*value);
            }
            DInst::CallMulti { args, .. } | DInst::Effect { args, .. } => {
                ops.extend(args.iter().copied());
            }
            DInst::VectorOp(vop) => {
                vecref(&vop.dst, &mut ops, &mut vars);
                vecref(&vop.a, &mut ops, &mut vars);
                if let Some(b) = &vop.b {
                    vecref(b, &mut ops, &mut vars);
                }
                ops.push(vop.len);
            }
            DInst::Branch { cond, .. } => ops.push(*cond),
            DInst::ForSetup {
                start, step, stop, ..
            } => ops.extend([*start, *step, *stop]),
            DInst::Jump { .. }
            | DInst::ForNext { .. }
            | DInst::WhileEnter { .. }
            | DInst::WhileIter { .. }
            | DInst::Break { .. }
            | DInst::Continue { .. }
            | DInst::Return { .. } => {}
        }
        for o in ops {
            if let Some(v) = op_of(o) {
                mark(v, pc, &mut reads);
            }
        }
        for v in vars {
            mark(v, pc, &mut reads);
        }
    }
    reads
}

fn fuse_function(dfunc: &DecodedFunction, mfunc: &MirFunction) -> NativeFunction {
    let code = &dfunc.code;
    let reads = collect_reads(code, mfunc.vars.len());

    // Jump targets must land on step boundaries, so a fused run may not
    // continue across one (it may *start* at one).
    let mut is_target = vec![false; code.len() + 1];
    for inst in code {
        match inst {
            DInst::Branch { if_false, .. } => is_target[*if_false as usize] = true,
            DInst::Jump { target, .. }
            | DInst::Break { target, .. }
            | DInst::Continue { target, .. } => is_target[*target as usize] = true,
            DInst::ForNext { end, .. } => is_target[*end as usize] = true,
            _ => {}
        }
    }

    // First pass: build steps with *original* branch targets, recording
    // where each original pc landed.
    let mut steps: Vec<NStep> = Vec::new();
    let mut pc_map = vec![0u32; code.len() + 1];
    let mut pc = 0usize;
    while pc < code.len() {
        pc_map[pc] = steps.len() as u32;
        if fusable(&code[pc]) {
            let mut items: Vec<(u32, Micro)> = Vec::new();
            while pc < code.len() && fusable(&code[pc]) {
                pc_map[pc] = steps.len() as u32;
                items.push((pc as u32, make_micro(&code[pc])));
                pc += 1;
                if is_target[pc] {
                    break;
                }
            }
            steps.push(NStep {
                run: step_super,
                data: NData::Super(build_chains(items, &reads, mfunc)),
            });
        } else {
            steps.push(make_step(&code[pc]));
            pc += 1;
        }
    }
    pc_map[code.len()] = steps.len() as u32;

    // Second pass: remap branch targets into step indices.
    for step in &mut steps {
        match &mut step.data {
            NData::Branch { if_false, .. } => *if_false = pc_map[*if_false as usize],
            NData::Jump { target } | NData::Loop { target } => *target = pc_map[*target as usize],
            NData::ForNext { end, .. } => *end = pc_map[*end as usize],
            _ => {}
        }
    }

    NativeFunction { steps }
}

/// Whether `m` may join a scalar chain (`micro_bin`, kept for `&&`/`||`,
/// may not: its scalar application is an error the chain cannot raise).
fn chainable(m: &Micro) -> bool {
    match &m.data {
        MicroData::Bin { op, .. } => !matches!(op, BinOp::AndAnd | BinOp::OrOr),
        MicroData::Copy { .. }
        | MicroData::Un { .. }
        | MicroData::Load1 { .. }
        | MicroData::Load2 { .. }
        | MicroData::Store1 { .. }
        | MicroData::Store2 { .. } => true,
        _ => false,
    }
}

/// Groups maximal runs of chainable micro-ops in one fused block into
/// [`ChainData`] compounds (length ≥ 2); other micros pass through
/// unchanged.
fn build_chains(items: Vec<(u32, Micro)>, reads: &[Vec<u32>], mfunc: &MirFunction) -> Vec<Micro> {
    let (pcs, micros): (Vec<u32>, Vec<Micro>) = items.into_iter().unzip();
    let mut slots: Vec<Option<Micro>> = micros.into_iter().map(Some).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < slots.len() {
        match compile_chain(&slots, &pcs, i, reads, mfunc) {
            Some((ops, guards, consumed)) => {
                let fallback: Vec<Micro> = (i..i + consumed)
                    .map(|k| slots[k].take().unwrap())
                    .collect();
                let real_counts = chain_real_counts(&ops);
                out.push(Micro {
                    run: micro_chain,
                    data: MicroData::Chain(Box::new(ChainData {
                        ops,
                        guards,
                        fallback,
                        real_counts,
                    })),
                });
                i += consumed;
            }
            None => {
                out.push(slots[i].take().unwrap());
                i += 1;
            }
        }
    }
    out
}

/// Aggregates the all-real per-class charge counts of a chain; the exact
/// per-op counterpart lives in `chain_charge_real` (`native.rs`), which
/// the deoptimized paths replay op by op.
fn chain_real_counts(ops: &[ChainOp]) -> [u16; OpClass::COUNT] {
    let mut counts = [0u16; OpClass::COUNT];
    let mut add = |class: OpClass, n: u16| counts[class as usize] += n;
    for op in ops {
        match &op.kind {
            CKind::Bin { class, .. } => add(*class, 1),
            CKind::Un(_) | CKind::Copy => add(OpClass::ScalarAlu, 1),
            CKind::Load1 { .. } => {
                add(OpClass::ScalarAlu, 1);
                add(OpClass::Load, 1);
            }
            CKind::Load2 { .. } => {
                add(OpClass::ScalarAlu, 2);
                add(OpClass::Load, 1);
            }
            CKind::Store1 { .. } => {
                add(OpClass::ScalarAlu, 1);
                add(OpClass::Store, 1);
            }
            CKind::Store2 { .. } => {
                add(OpClass::ScalarAlu, 2);
                add(OpClass::Store, 1);
            }
        }
    }
    counts
}

/// Compiles the longest chain starting at `start`, or `None` when fewer
/// than two micro-ops chain together (a single op gains nothing).
fn compile_chain(
    slots: &[Option<Micro>],
    pcs: &[u32],
    start: usize,
    reads: &[Vec<u32>],
    mfunc: &MirFunction,
) -> Option<(Vec<ChainOp>, Vec<Guard>, usize)> {
    let mut ops: Vec<ChainOp> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    // Vars defined so far in this chain: (var, temp slot, scalar_dst).
    let mut defined: Vec<(u32, u8, bool)> = Vec::new();
    // Def results, for the elision pass: (op index, var, first-def pc).
    let mut defs: Vec<(usize, u32, u32)> = Vec::new();
    let mut j = start;
    while j < slots.len() && ops.len() < CHAIN_MAX {
        let m = slots[j].as_ref().unwrap();
        if !chainable(m) {
            break;
        }
        // Resolve sources against a scratch guard list so a failed op
        // leaves no spurious guards behind.
        let mut new_guards: Vec<Guard> = Vec::new();
        let mut add_guard = |g: Guard, new_guards: &mut Vec<Guard>| {
            if !guards.contains(&g) && !new_guards.contains(&g) {
                new_guards.push(g);
            }
        };
        let src = |o: Operand,
                   new_guards: &mut Vec<Guard>,
                   add_guard: &mut dyn FnMut(Guard, &mut Vec<Guard>)|
         -> Option<CSrc> {
            match o {
                Operand::Const(v) => Some(CSrc::Const(Cx::real(v))),
                Operand::ConstC(re, im) => Some(CSrc::Const(Cx::new(re, im))),
                Operand::Var(v) => {
                    if let Some(&(_, t, sd)) = defined.iter().find(|d| d.0 == v.0) {
                        // Reads of a non-scalar in-chain def would see a
                        // 1×1 array and take a different charge path;
                        // stop the chain before this op.
                        sd.then_some(CSrc::Tmp(t))
                    } else {
                        add_guard(Guard::Scalar(v.0), new_guards);
                        Some(CSrc::Env(v.0))
                    }
                }
            }
        };
        let base = |arr: VarId,
                    new_guards: &mut Vec<Guard>,
                    add_guard: &mut dyn FnMut(Guard, &mut Vec<Guard>)|
         -> Option<u32> {
            // A base redefined earlier in the chain holds a scalar write;
            // the micro would fall back anyway — stop before this op.
            if defined.iter().any(|d| d.0 == arr.0) {
                return None;
            }
            add_guard(Guard::Arr(arr.0), new_guards);
            Some(arr.0)
        };
        let zero = CSrc::Const(Cx::ZERO);
        // (kind, a, b, c, def as (var, scalar_dst), span) for one resolved op.
        type Compiled = Option<(CKind, CSrc, CSrc, CSrc, Option<(VarId, bool)>, Span)>;
        let compiled: Compiled = match &m.data {
            MicroData::Bin {
                op,
                class,
                evalf,
                a,
                b,
                dst,
                scalar_dst,
                span,
            } => (|| {
                let sa = src(*a, &mut new_guards, &mut add_guard)?;
                let sb = src(*b, &mut new_guards, &mut add_guard)?;
                Some((
                    CKind::Bin {
                        op: *op,
                        class: *class,
                        evalf: *evalf,
                    },
                    sa,
                    sb,
                    zero,
                    Some((*dst, *scalar_dst)),
                    *span,
                ))
            })(),
            MicroData::Copy {
                a,
                dst,
                scalar_dst,
                span,
            } => src(*a, &mut new_guards, &mut add_guard).map(|sa| {
                (
                    CKind::Copy,
                    sa,
                    zero,
                    zero,
                    Some((*dst, *scalar_dst)),
                    *span,
                )
            }),
            MicroData::Un {
                op,
                a,
                dst,
                scalar_dst,
                span,
            } => src(*a, &mut new_guards, &mut add_guard).map(|sa| {
                (
                    CKind::Un(*op),
                    sa,
                    zero,
                    zero,
                    Some((*dst, *scalar_dst)),
                    *span,
                )
            }),
            MicroData::Load1 {
                arr,
                idx,
                dst,
                scalar_dst,
                span,
            } => (|| {
                let b = base(*arr, &mut new_guards, &mut add_guard)?;
                let si = src(*idx, &mut new_guards, &mut add_guard)?;
                Some((
                    CKind::Load1 { arr: b },
                    si,
                    zero,
                    zero,
                    Some((*dst, *scalar_dst)),
                    *span,
                ))
            })(),
            MicroData::Load2 {
                arr,
                r,
                c,
                dst,
                scalar_dst,
                span,
            } => (|| {
                let bb = base(*arr, &mut new_guards, &mut add_guard)?;
                let sr = src(*r, &mut new_guards, &mut add_guard)?;
                let sc = src(*c, &mut new_guards, &mut add_guard)?;
                Some((
                    CKind::Load2 { arr: bb },
                    sr,
                    sc,
                    zero,
                    Some((*dst, *scalar_dst)),
                    *span,
                ))
            })(),
            MicroData::Store1 {
                arr,
                idx,
                value,
                span,
            } => (|| {
                let bb = base(*arr, &mut new_guards, &mut add_guard)?;
                let si = src(*idx, &mut new_guards, &mut add_guard)?;
                let sv = src(*value, &mut new_guards, &mut add_guard)?;
                Some((CKind::Store1 { arr: bb }, si, sv, zero, None, *span))
            })(),
            MicroData::Store2 {
                arr,
                r,
                c,
                value,
                span,
            } => (|| {
                let bb = base(*arr, &mut new_guards, &mut add_guard)?;
                let sr = src(*r, &mut new_guards, &mut add_guard)?;
                let sc = src(*c, &mut new_guards, &mut add_guard)?;
                let sv = src(*value, &mut new_guards, &mut add_guard)?;
                Some((CKind::Store2 { arr: bb }, sr, sc, sv, None, *span))
            })(),
            _ => unreachable!("non-chainable micro"),
        };
        let Some((kind, a, b, c, def, span)) = compiled else {
            break;
        };
        guards.extend(new_guards);
        let op_idx = ops.len();
        if let Some((dst, scalar_dst)) = def {
            defined.retain(|d| d.0 != dst.0);
            defined.push((dst.0, op_idx as u8, scalar_dst));
            if !defs.iter().any(|d| d.1 == dst.0) {
                defs.push((op_idx, dst.0, pcs[j]));
            } else {
                defs.push((op_idx, dst.0, u32::MAX)); // later def; first-def pc already recorded
            }
        }
        ops.push(ChainOp {
            kind,
            a,
            b,
            c,
            env_dst: def.map_or(u32::MAX, |(d, _)| d.0),
            scalar_dst: def.is_some_and(|(_, sd)| sd),
            span,
        });
        j += 1;
    }
    let consumed = j - start;
    if consumed < 2 {
        return None;
    }
    // Elision pass: a def's environment write is dead when the value can
    // only ever be observed through this chain's temp stack — every read
    // of the var lies inside the chain's pc range *strictly after* its
    // first in-chain def (a read at or before that pc — including the
    // def's own right-hand side — reads the environment and must keep
    // seeing the carried value), and the var is not a function output.
    let (pc_lo, pc_hi) = (pcs[start], pcs[start + consumed - 1]);
    let first_def_pc = |var: u32| -> u32 {
        defs.iter()
            .find(|d| d.1 == var && d.2 != u32::MAX)
            .map_or(u32::MAX, |d| d.2)
    };
    for &(op_idx, var, _) in &defs {
        let fd = first_def_pc(var);
        let dead = fd != u32::MAX
            && !mfunc.outputs.iter().any(|o| o.0 == var)
            && reads
                .get(var as usize)
                .is_some_and(|list| list.iter().all(|&p| p > fd && p >= pc_lo && p <= pc_hi));
        if dead {
            ops[op_idx].env_dst = u32::MAX;
        }
    }
    Some((ops, guards, consumed))
}

/// Lowers one fusable `DInst` to a micro-op, pre-selecting the most
/// specialized handler whose preconditions the *instruction shape* meets;
/// runtime value shapes are re-checked in the handler.
fn make_micro(inst: &DInst) -> Micro {
    match inst {
        DInst::Def {
            dst,
            scalar_dst,
            rv,
            span,
        } => {
            let (dst, scalar_dst, span) = (*dst, *scalar_dst, *span);
            match rv {
                Rvalue::Binary { op, a, b } => {
                    let (class, evalf) = bin_kit(*op);
                    Micro {
                        // Short-circuit ops error on scalars; keep the
                        // generic handler for its exact error path.
                        run: if matches!(op, BinOp::AndAnd | BinOp::OrOr) {
                            micro_bin
                        } else {
                            micro_bin_fast
                        },
                        data: MicroData::Bin {
                            op: *op,
                            class,
                            evalf,
                            a: *a,
                            b: *b,
                            dst,
                            scalar_dst,
                            span,
                        },
                    }
                }
                Rvalue::Use(a) => Micro {
                    run: micro_copy,
                    data: MicroData::Copy {
                        a: *a,
                        dst,
                        scalar_dst,
                        span,
                    },
                },
                Rvalue::Unary { op, a } => Micro {
                    run: micro_un,
                    data: MicroData::Un {
                        op: *op,
                        a: *a,
                        dst,
                        scalar_dst,
                        span,
                    },
                },
                Rvalue::Index { array, indices } => match indices.as_slice() {
                    [Index::Scalar(idx)] => Micro {
                        run: micro_load1,
                        data: MicroData::Load1 {
                            arr: *array,
                            idx: *idx,
                            dst,
                            scalar_dst,
                            span,
                        },
                    },
                    [Index::Scalar(r), Index::Scalar(c)] => Micro {
                        run: micro_load2,
                        data: MicroData::Load2 {
                            arr: *array,
                            r: *r,
                            c: *c,
                            dst,
                            scalar_dst,
                            span,
                        },
                    },
                    _ => Micro {
                        run: micro_def_generic,
                        data: MicroData::Def {
                            dst,
                            scalar_dst,
                            rv: rv.clone(),
                            span,
                        },
                    },
                },
                _ => Micro {
                    run: micro_def_generic,
                    data: MicroData::Def {
                        dst,
                        scalar_dst,
                        rv: rv.clone(),
                        span,
                    },
                },
            }
        }
        DInst::Store {
            array,
            indices,
            value,
            span,
        } => match indices.as_slice() {
            [Index::Scalar(idx)] => Micro {
                run: micro_store1,
                data: MicroData::Store1 {
                    arr: *array,
                    idx: *idx,
                    value: *value,
                    span: *span,
                },
            },
            [Index::Scalar(r), Index::Scalar(c)] => Micro {
                run: micro_store2,
                data: MicroData::Store2 {
                    arr: *array,
                    r: *r,
                    c: *c,
                    value: *value,
                    span: *span,
                },
            },
            _ => Micro {
                run: micro_store_generic,
                data: MicroData::Store {
                    array: *array,
                    indices: indices.clone(),
                    value: *value,
                    span: *span,
                },
            },
        },
        _ => unreachable!("non-fusable instruction in fused run"),
    }
}

/// Lowers one non-fusable `DInst` to a step, baking flags (like a branch's
/// fuel burn) into the handler choice.
fn make_step(inst: &DInst) -> NStep {
    match inst {
        DInst::Branch {
            cond,
            if_false,
            burn,
            exit_loop,
            span,
        } => NStep {
            run: if *burn {
                step_branch_burning
            } else {
                step_branch
            },
            data: NData::Branch {
                cond: *cond,
                if_false: *if_false,
                exit_loop: *exit_loop,
                span: *span,
            },
        },
        DInst::Jump { target, .. } => NStep {
            run: step_jump,
            data: NData::Jump { target: *target },
        },
        DInst::ForSetup {
            var,
            start,
            step,
            stop,
            ..
        } => NStep {
            run: step_for_setup,
            data: NData::ForSetup {
                var: *var,
                start: *start,
                step: *step,
                stop: *stop,
            },
        },
        DInst::ForNext { end, span } => NStep {
            run: step_for_next,
            data: NData::ForNext {
                end: *end,
                span: *span,
            },
        },
        DInst::WhileEnter { .. } => NStep {
            run: step_while_enter,
            data: NData::None,
        },
        DInst::WhileIter { .. } => NStep {
            run: step_while_iter,
            data: NData::None,
        },
        DInst::Break { target, .. } => NStep {
            run: step_break,
            data: NData::Loop { target: *target },
        },
        DInst::Continue { target, .. } => NStep {
            run: step_continue,
            data: NData::Loop { target: *target },
        },
        DInst::Return { .. } => NStep {
            run: step_return,
            data: NData::None,
        },
        DInst::CallMulti {
            dsts,
            func,
            args,
            user,
            span,
        } => NStep {
            run: step_call_multi,
            data: NData::CallMulti {
                dsts: dsts.clone(),
                func: func.clone(),
                args: args.clone(),
                user: *user,
                span: *span,
            },
        },
        DInst::Effect { name, args, span } => NStep {
            run: step_effect,
            data: NData::Effect {
                name: name.clone(),
                args: args.clone(),
                span: *span,
            },
        },
        DInst::VectorOp(vop) => NStep {
            run: step_vector,
            data: NData::Vector(vop.clone()),
        },
        DInst::Def { .. } | DInst::Store { .. } => {
            unreachable!("fusable instruction outside a fused run")
        }
    }
}
