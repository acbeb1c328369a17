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
//! `tests/engine_differential.rs` and the pipeline fuzzer). There are two
//! kinds of micro-op. Every maximal run of scalar statements — binops,
//! unary ops, copies, element loads and stores with one or two scalar
//! subscripts, and the scalar builtins of the table `scalar_builtin` in
//! `builtins.rs`, over scalar-typed operands and array-typed bases —
//! compiles to a guarded chain ([`ChainData`]), a run of one included;
//! chains are the only scalar fast path. Every other `Def` or `Store`
//! (slices, array builtins, calls, `&&`/`||`) becomes a generic micro-op
//! that calls the semantics in `eval.rs`, so those exist once, and a chain
//! whose guards miss replays its statements through the same generic
//! micro-ops.
//!
//! A counted `for` loop whose body is exactly one chain compiles into a
//! loop step ([`compile_loops`]): its `ForNext` becomes a `ForChain` step
//! sharing the chain, able to run the whole remaining trip at once. A loop
//! qualifies only when the chain's own writes cannot break its shape
//! guards, so guards that hold on entry hold for every iteration; the body
//! and back-edge steps stay as the per-iteration path for profiling, low
//! fuel and guard misses.
//!
//! A loop chain of the form `acc = acc + A(ia) * B(ib)` (or `+ A(ia)`),
//! with each subscript a tree of `+`/`-` over registers other than `acc`
//! and integer constants, and no other register written, is also
//! recognized as a [`Reduction`]. Its subscripts are flattened to integer
//! sums of registers, so the loop step can fold its iterations natively
//! as long as every leaf is an integer of magnitude at most 2⁴⁰ (the `f64`
//! sums the chain would compute are then exact; see `fold_reduction` in
//! `native.rs`).

use super::builtins::{scalar_builtin, BuiltinFn, ScalarBuiltin};
use super::eval::scalar_binop_fn;
use super::native::{
    micro_chain, micro_def_generic, micro_store_generic, step_branch, step_branch_burning,
    step_break, step_call_multi, step_continue, step_effect, step_for_chain, step_for_next,
    step_for_setup, step_jump, step_return, step_super, step_vector, step_while_enter,
    step_while_iter, Frame,
};
use super::{Env, Exec, SimError};
use crate::decode::{DInst, DecodedFunction, DecodedProgram};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_interp::Cx;
use matic_isa::OpClass;
use matic_mir::{
    Index, MirFunction, MirProgram, Operand, Place, PlaceRef, Rvalue, VarId, VectorOp,
};
use std::fmt;
use std::sync::Arc;

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

/// Step payloads (control flow and non-fusable statements). Every step
/// that burns fuel carries its statement's span, which a fuel-exhaustion
/// error names.
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
        span: Span,
    },
    ForNext {
        end: u32,
        span: Span,
    },
    /// The `ForNext` of a counted loop whose body is one compiled chain
    /// (see [`compile_loops`]); shares the chain with the body step.
    /// `reduction` is set when the chain is a scalar reduction the loop
    /// step may fold natively.
    ForChain {
        end: u32,
        span: Span,
        chain: Arc<ChainData>,
        reduction: Option<Reduction>,
    },
    /// `break` or `continue`.
    Loop {
        target: u32,
        span: Span,
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
    /// A control step with no payload (`while` entry and iteration head,
    /// `return`).
    At(Span),
}

/// Handler signature for one micro-op inside a superinstruction.
pub(super) type MicroFn =
    for<'a> fn(&mut Exec<'a>, &MirFunction, &mut Env, &MicroData) -> Result<(), SimError>;

/// One fused micro-op: pre-selected handler + pre-resolved operand slots.
pub(super) struct Micro {
    pub(super) run: MicroFn,
    pub(super) data: MicroData,
}

/// Micro-op payloads.
pub(super) enum MicroData {
    /// A compiled run of scalar statements executed with intermediate
    /// values held in the run's temp stack instead of the environment (see
    /// [`ChainData`]). Shared with the enclosing loop's `ForChain` step
    /// when the loop is compiled as a whole.
    Chain(Arc<ChainData>),
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

/// Longest run of statements one chain may compile (the length of the
/// temp stack in `Exec`).
pub(super) const CHAIN_MAX: usize = 48;

/// A scalar chain: a run of consecutive scalar statements (binops, unary
/// ops, copies, 1-D/2-D element loads and stores, scalar builtins)
/// compiled into a flat op list whose intermediate results live in a
/// fixed temp stack.
/// Environment reads that refer to values defined earlier in the chain
/// are rewritten to temp reads at fuse time, and environment writes of
/// values never read outside the chain are elided entirely (the run
/// aborts on error and outputs are read only at function exit, so
/// intermediate register state is unobservable).
///
/// The op loop runs whenever every guard on the *initial* environment
/// holds (external scalar operands are scalars, load/store bases are
/// arrays). Guards are checked before any side effect, so a miss replays
/// the statements through the generic micro-ops in `fallback` — the
/// `eval.rs` semantics — with bit-identical fuel, cycles and errors.
pub(super) struct ChainData {
    pub(super) ops: Vec<ChainOp>,
    /// Shape guards on the initial environment, deduplicated.
    pub(super) guards: Vec<Guard>,
    /// The run's statements as generic micro-ops (guard miss).
    pub(super) fallback: Vec<Micro>,
    /// The nonzero per-class charge *counts* for the whole chain when
    /// every `Bin` input is real (the only runtime-dependent cost), in
    /// `OpClass` order: the sum of [`CKind::real_charges`] over the ops.
    /// Cycle costs stay machine-side, so `charge(class, count)` with these
    /// aggregates is bit-identical to the per-op charge sequence; a complex
    /// value or a mid-chain error settles the ops run so far op by op.
    pub(super) real_counts: Vec<(OpClass, u64)>,
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
    /// `dst = a <op> b`; `real` is its charge on real operands and
    /// `evalf` its compute fn, both pre-selected from `op`.
    Bin {
        op: BinOp,
        real: (OpClass, u64),
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
    /// `dst = name(..)`, a builtin resolved from the table
    /// [`scalar_builtin`]: a constant, a shape query of the array register
    /// `arr` (`size(arr, a)` included), or a function of the scalars `a`
    /// (and `b`). `arr` is unused (`u32::MAX`) but for shape queries.
    Builtin { f: ScalarBuiltin, arr: u32 },
}

impl CKind {
    /// The one charge table of the chain ops: what one op charges when its
    /// inputs are real, in issue order (the ALU work, then the memory
    /// access of a load or store). Fuse time sums it into
    /// [`ChainData::real_counts`]; the op loop issues it op by op when it
    /// runs exact. A `Bin` with a complex input charges
    /// `Exec::scalar_binop_cost` instead.
    pub(super) fn real_charges(&self) -> &[(OpClass, u64)] {
        use OpClass::{Load, ScalarAlu, Store};
        match self {
            CKind::Bin { real, .. } => std::slice::from_ref(real),
            CKind::Un(_) | CKind::Copy => &[(ScalarAlu, 1)],
            CKind::Load1 { .. } => &[(ScalarAlu, 1), (Load, 1)],
            CKind::Load2 { .. } => &[(ScalarAlu, 2), (Load, 1)],
            CKind::Store1 { .. } => &[(ScalarAlu, 1), (Store, 1)],
            CKind::Store2 { .. } => &[(ScalarAlu, 2), (Store, 1)],
            CKind::Builtin { f, .. } => f.charge.as_slice(),
        }
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
    for (pc, inst) in code.iter().enumerate() {
        // Every place visited here reads its register: destinations the
        // instruction only writes are left out.
        let mut read = |p: PlaceRef<'_>| {
            if let Some(list) = p.reg().and_then(|v| reads.get_mut(v.0 as usize)) {
                list.push(pc as u32);
            }
        };
        match inst {
            DInst::Def { rv, .. } => rv.visit_places(&mut |p, _| read(p)),
            DInst::Store {
                array,
                indices,
                value,
                ..
            } => {
                read(Place::Reg(array));
                read(Place::Operand(value));
                for ix in indices {
                    ix.visit_places(&mut |p, _| read(p));
                }
            }
            DInst::CallMulti { args, .. } | DInst::Effect { args, .. } => {
                args.iter().for_each(|a| read(Place::Operand(a)))
            }
            DInst::VectorOp(vop) => vop.visit_places(&mut |p, _| read(p)),
            DInst::Branch { cond, .. } => read(Place::Operand(cond)),
            DInst::ForSetup {
                start, step, stop, ..
            } => [start, step, stop]
                .into_iter()
                .for_each(|o| read(Place::Operand(o))),
            DInst::Jump { .. }
            | DInst::ForNext { .. }
            | DInst::WhileEnter { .. }
            | DInst::WhileIter { .. }
            | DInst::Break { .. }
            | DInst::Continue { .. }
            | DInst::Return { .. } => {}
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
            let start = pc;
            while pc < code.len() && fusable(&code[pc]) {
                pc_map[pc] = steps.len() as u32;
                pc += 1;
                if is_target[pc] {
                    break;
                }
            }
            steps.push(NStep {
                run: step_super,
                data: NData::Super(fuse_run(code, start..pc, &reads, mfunc)),
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
            NData::Jump { target } | NData::Loop { target, .. } => {
                *target = pc_map[*target as usize]
            }
            NData::ForNext { end, .. } => *end = pc_map[*end as usize],
            _ => {}
        }
    }
    compile_loops(&mut steps);

    NativeFunction { steps }
}

/// Loop-level compilation. A counted `for` loop whose body is exactly one
/// compiled chain — step `h` is `ForNext { end: h + 3 }`, step `h + 1` a
/// `Super` step holding a single `Chain` micro, step `h + 2`
/// `Jump { target: h }` — gets its `ForNext` replaced by a `ForChain` step
/// sharing that chain, which may run every remaining iteration as one step
/// (`step_for_chain` in `native.rs`). The body and back-edge steps stay in
/// place as the per-iteration path. Only loops whose guards are
/// loop-invariant (see [`guards_loop_invariant`]) qualify.
fn compile_loops(steps: &mut [NStep]) {
    for h in 0..steps.len().saturating_sub(2) {
        let NData::ForNext { end, span } = steps[h].data else {
            continue;
        };
        let NData::Super(body) = &steps[h + 1].data else {
            continue;
        };
        let [Micro {
            data: MicroData::Chain(chain),
            ..
        }] = body.as_slice()
        else {
            continue;
        };
        let back_edge = matches!(steps[h + 2].data, NData::Jump { target } if target as usize == h);
        if end as usize != h + 3 || !back_edge || !guards_loop_invariant(chain) {
            continue;
        }
        let reduction = reduction_of(chain);
        let chain = Arc::clone(chain);
        steps[h] = NStep {
            run: step_for_chain,
            data: NData::ForChain {
                end,
                span,
                chain,
                reduction,
            },
        };
    }
}

/// `x` as an integer when it is one of magnitude at most 2⁴⁰: the bound
/// on every number a reduction kernel indexes with (a subscript register
/// or constant, the loop variable's values and step).
#[inline]
pub(super) fn exact_int(x: f64) -> Option<i64> {
    // The round trip through `i64` saturates and sends NaN to 0, so it
    // matches `x` only for an integer (`fract` would be a libm call).
    let v = x as i64;
    (v as f64 == x && v.unsigned_abs() <= 1 << 40).then_some(v)
}

/// Bound on the number of leaf occurrences in one subscript tree. With
/// every leaf an [`exact_int`], each intermediate sum stays below 2⁵²,
/// where `f64` integer addition and subtraction are exact.
const MAX_LEAVES: u32 = 1 << 12;

/// A loop chain recognized as a scalar reduction: its last op is
/// `acc = acc + p` (or `p + acc`) and `p` is `A(ia)` or `A(ia) * B(ib)`,
/// where each subscript is a tree of `+`/`-` over registers other than
/// `acc` and integer constants. Every other op of the chain feeds that
/// tree and writes no register, so one iteration reads the loop variable,
/// loop-invariant registers and two array elements, and writes only
/// `acc`. `step_for_chain` uses it to fold the leading in-bounds, all-real
/// iterations natively (see `fold_reduction` in `native.rs`).
pub(super) struct Reduction {
    /// The accumulator's register.
    pub(super) acc: u32,
    /// Whether the accumulating add reads `acc` as its left operand.
    pub(super) acc_first: bool,
    /// The loaded element, or the multiply's left operand.
    pub(super) a: IndexedLoad,
    /// The multiply's right operand; `None` when `p` is a bare load.
    pub(super) b: Option<IndexedLoad>,
}

/// One `arr(idx)` read of a [`Reduction`], with the subscript flattened
/// to `konst + Σ coef · register`.
pub(super) struct IndexedLoad {
    pub(super) arr: u32,
    pub(super) konst: i64,
    /// `(register, coefficient)`, one entry per distinct register.
    pub(super) terms: Vec<(u32, i64)>,
}

/// Classifies a loop chain as a [`Reduction`], or `None` when its shape
/// differs in any way.
fn reduction_of(ch: &ChainData) -> Option<Reduction> {
    let ops = &ch.ops;
    let (last, body) = ops.split_last()?;
    let CKind::Bin { op: BinOp::Add, .. } = last.kind else {
        return None;
    };
    if !last.scalar_dst || body.iter().any(|op| op.env_dst != u32::MAX) {
        return None;
    }
    let acc = last.env_dst;
    let (acc_first, p) = match (last.a, last.b) {
        (CSrc::Env(slot), CSrc::Tmp(p)) if slot == acc => (true, p),
        (CSrc::Tmp(p), CSrc::Env(slot)) if slot == acc => (false, p),
        _ => return None,
    };
    let mut used = vec![false; ops.len()];
    used[ops.len() - 1] = true;
    let (a, b) = match &ops[p as usize].kind {
        CKind::Load1 { .. } => (indexed_load(ops, p, acc, &mut used)?, None),
        CKind::Bin {
            op: BinOp::ElemMul | BinOp::MatMul,
            ..
        } => {
            used[p as usize] = true;
            let mul = &ops[p as usize];
            let (CSrc::Tmp(ta), CSrc::Tmp(tb)) = (mul.a, mul.b) else {
                return None;
            };
            let a = indexed_load(ops, ta, acc, &mut used)?;
            let b = indexed_load(ops, tb, acc, &mut used)?;
            (a, Some(b))
        }
        _ => return None,
    };
    used.iter().all(|&u| u).then_some(Reduction {
        acc,
        acc_first,
        a,
        b,
    })
}

/// Flattens the `Load1` at op `t` into an [`IndexedLoad`], marking every
/// op it reads as used.
fn indexed_load(ops: &[ChainOp], t: u8, acc: u32, used: &mut [bool]) -> Option<IndexedLoad> {
    let op = &ops[t as usize];
    let CKind::Load1 { arr } = op.kind else {
        return None;
    };
    used[t as usize] = true;
    let mut load = IndexedLoad {
        arr,
        konst: 0,
        terms: Vec::new(),
    };
    let mut leaves = 0u32;
    flatten_index(ops, op.a, 1, acc, used, &mut load, &mut leaves)?;
    Some(load)
}

/// Adds `sign · src` to `load`'s subscript. Fails on any op but `+`/`-`,
/// on `acc`, on a constant that is not an [`exact_int`], and past
/// [`MAX_LEAVES`] leaf occurrences.
fn flatten_index(
    ops: &[ChainOp],
    src: CSrc,
    sign: i64,
    acc: u32,
    used: &mut [bool],
    load: &mut IndexedLoad,
    leaves: &mut u32,
) -> Option<()> {
    match src {
        CSrc::Const(z) => {
            *leaves += 1;
            let v = exact_int(z.re).filter(|_| z.is_real() && *leaves <= MAX_LEAVES)?;
            load.konst += sign * v;
            Some(())
        }
        CSrc::Env(slot) => {
            *leaves += 1;
            if slot == acc || *leaves > MAX_LEAVES {
                return None;
            }
            match load.terms.iter_mut().find(|t| t.0 == slot) {
                Some(t) => t.1 += sign,
                None => load.terms.push((slot, sign)),
            }
            Some(())
        }
        CSrc::Tmp(t) => {
            let op = &ops[t as usize];
            let sign_b = match op.kind {
                CKind::Bin { op: BinOp::Add, .. } => sign,
                CKind::Bin { op: BinOp::Sub, .. } => -sign,
                _ => return None,
            };
            used[t as usize] = true;
            flatten_index(ops, op.a, sign, acc, used, load, leaves)?;
            flatten_index(ops, op.b, sign_b, acc, used, load, leaves)
        }
    }
}

/// Whether the chain's own environment writes keep its shape guards true:
/// no write lands on an array-guarded slot, and no non-scalar write on a
/// scalar-guarded one (element stores update arrays in place and keep
/// their shape). The loop step rewrites the loop variable as a scalar
/// every iteration, so guards that hold once it is written on entry then
/// hold for every remaining iteration.
fn guards_loop_invariant(ch: &ChainData) -> bool {
    ch.ops.iter().filter(|op| op.env_dst != u32::MAX).all(|op| {
        ch.guards.iter().all(|g| match *g {
            Guard::Arr(slot) => slot != op.env_dst,
            Guard::Scalar(slot) => slot != op.env_dst || op.scalar_dst,
        })
    })
}

/// Lowers the fused run `code[pcs]` to micro-ops: each maximal run of
/// scalar statements becomes one chain, every other statement a generic
/// micro-op.
fn fuse_run(
    code: &[DInst],
    pcs: std::ops::Range<usize>,
    reads: &[Vec<u32>],
    mfunc: &MirFunction,
) -> Vec<Micro> {
    let mut out = Vec::new();
    let mut pc = pcs.start;
    while pc < pcs.end {
        let Some((ops, guards)) = compile_chain(code, pc..pcs.end, reads, mfunc) else {
            out.push(generic_micro(&code[pc]));
            pc += 1;
            continue;
        };
        let mut counts = [0u64; OpClass::COUNT];
        for &(class, n) in ops.iter().flat_map(|op| op.kind.real_charges()) {
            counts[class as usize] += n;
        }
        let real_counts = OpClass::ALL
            .iter()
            .filter(|&&class| counts[class as usize] != 0)
            .map(|&class| (class, counts[class as usize]))
            .collect();
        let end = pc + ops.len();
        out.push(Micro {
            run: micro_chain,
            data: MicroData::Chain(Arc::new(ChainData {
                fallback: code[pc..end].iter().map(generic_micro).collect(),
                ops,
                guards,
                real_counts,
            })),
        });
        pc = end;
    }
    out
}

/// The chain shape of one statement: its kind, the array it loads from or
/// stores to, its operands in slot order, and its destination with the
/// register's representation. `None` for a statement no chain op runs.
type Shape = (
    CKind,
    Option<VarId>,
    [Option<Operand>; 3],
    Option<(VarId, bool)>,
);

fn chain_shape(inst: &DInst) -> Option<Shape> {
    let scalar = |ix: &Index| match ix {
        Index::Scalar(o) => Some(*o),
        _ => None,
    };
    match inst {
        DInst::Def {
            dst,
            scalar_dst,
            rv,
            ..
        } => {
            let def = Some((*dst, *scalar_dst));
            let (kind, base, ops) = match rv {
                // Short-circuit ops error on scalars; the generic micro-op
                // raises that error.
                Rvalue::Binary {
                    op: BinOp::AndAnd | BinOp::OrOr,
                    ..
                } => return None,
                Rvalue::Binary { op, a, b } => (
                    CKind::Bin {
                        op: *op,
                        real: (super::real_binop_class(*op), 1),
                        evalf: scalar_binop_fn(*op),
                    },
                    None,
                    [Some(*a), Some(*b), None],
                ),
                Rvalue::Unary { op, a } => (CKind::Un(*op), None, [Some(*a), None, None]),
                Rvalue::Builtin { name, args } => {
                    let f = scalar_builtin(name, args.len())?;
                    let builtin = |arr: Option<VarId>| CKind::Builtin {
                        f,
                        arr: arr.map_or(u32::MAX, |v| v.0),
                    };
                    match (f.f, args.as_slice()) {
                        (BuiltinFn::Const(_), _) => (builtin(None), None, [None; 3]),
                        (BuiltinFn::Shape(_), &[Operand::Var(arr)]) => {
                            (builtin(Some(arr)), Some(arr), [None; 3])
                        }
                        (BuiltinFn::Size, &[Operand::Var(arr), d]) => {
                            (builtin(Some(arr)), Some(arr), [Some(d), None, None])
                        }
                        (BuiltinFn::Un(_), &[a]) => (builtin(None), None, [Some(a), None, None]),
                        (BuiltinFn::Bin(_), &[a, b]) => {
                            (builtin(None), None, [Some(a), Some(b), None])
                        }
                        _ => return None,
                    }
                }
                Rvalue::Use(a) => (CKind::Copy, None, [Some(*a), None, None]),
                Rvalue::Index { array, indices } => match indices.as_slice() {
                    [i] => (
                        CKind::Load1 { arr: array.0 },
                        Some(*array),
                        [Some(scalar(i)?), None, None],
                    ),
                    [r, c] => (
                        CKind::Load2 { arr: array.0 },
                        Some(*array),
                        [Some(scalar(r)?), Some(scalar(c)?), None],
                    ),
                    _ => return None,
                },
                _ => return None,
            };
            Some((kind, base, ops, def))
        }
        DInst::Store {
            array,
            indices,
            value,
            ..
        } => {
            let (kind, ops) = match indices.as_slice() {
                [i] => (
                    CKind::Store1 { arr: array.0 },
                    [Some(scalar(i)?), Some(*value), None],
                ),
                [r, c] => (
                    CKind::Store2 { arr: array.0 },
                    [Some(scalar(r)?), Some(scalar(c)?), Some(*value)],
                ),
                _ => return None,
            };
            Some((kind, Some(*array), ops, None))
        }
        _ => None,
    }
}

/// Compiles the longest chain over the statements `code[pcs]` from its
/// start, or `None` when the first is no chain op.
fn compile_chain(
    code: &[DInst],
    pcs: std::ops::Range<usize>,
    reads: &[Vec<u32>],
    mfunc: &MirFunction,
) -> Option<(Vec<ChainOp>, Vec<Guard>)> {
    let start = pcs.start;
    let mut ops: Vec<ChainOp> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    // Vars defined so far in this chain: (var, temp slot, scalar_dst).
    let mut defined: Vec<(u32, u8, bool)> = Vec::new();
    // Def results, for the elision pass: (op index, var, first-def pc).
    let mut defs: Vec<(usize, u32, u32)> = Vec::new();
    'ops: for pc in pcs {
        if ops.len() == CHAIN_MAX {
            break;
        }
        let Some((kind, base, operands, def)) = chain_shape(&code[pc]) else {
            break;
        };
        // Resolve against a scratch guard list so that an op that stops
        // the chain leaves no spurious guards behind.
        let mut new_guards: Vec<Guard> = Vec::new();
        let mut add_guard = |g: Guard| {
            if !guards.contains(&g) && !new_guards.contains(&g) {
                new_guards.push(g);
            }
        };
        // A base redefined earlier in the chain holds a scalar write, and a
        // scalar-typed base holds a scalar register: the array guard would
        // reject either, so stop before this op.
        if let Some(arr) = base {
            if defined.iter().any(|d| d.0 == arr.0) || mfunc.var_ty(arr).shape.is_scalar() {
                break;
            }
            add_guard(Guard::Arr(arr.0));
        }
        let mut srcs = [CSrc::Const(Cx::ZERO); 3];
        for (slot, o) in srcs.iter_mut().zip(operands) {
            *slot = match o {
                None => continue,
                Some(Operand::Const(v)) => CSrc::Const(Cx::real(v)),
                Some(Operand::ConstC(re, im)) => CSrc::Const(Cx::new(re, im)),
                Some(Operand::Var(v)) => match defined.iter().find(|d| d.0 == v.0) {
                    // Reads of a non-scalar in-chain def would see a 1×1
                    // array and take a different charge path: stop the
                    // chain before this op.
                    Some(&(_, _, false)) => break 'ops,
                    Some(&(_, t, true)) => CSrc::Tmp(t),
                    // An array-typed register holds an array, which the
                    // scalar guard would reject: stop before this op.
                    None if !mfunc.var_ty(v).shape.is_scalar() => break 'ops,
                    None => {
                        add_guard(Guard::Scalar(v.0));
                        CSrc::Env(v.0)
                    }
                },
            };
        }
        guards.extend(new_guards);
        let op_idx = ops.len();
        if let Some((dst, scalar_dst)) = def {
            defined.retain(|d| d.0 != dst.0);
            defined.push((dst.0, op_idx as u8, scalar_dst));
            // Only a var's first def records its pc.
            let first = !defs.iter().any(|d| d.1 == dst.0);
            defs.push((op_idx, dst.0, if first { pc as u32 } else { u32::MAX }));
        }
        let [a, b, c] = srcs;
        ops.push(ChainOp {
            kind,
            a,
            b,
            c,
            env_dst: def.map_or(u32::MAX, |(d, _)| d.0),
            scalar_dst: def.is_some_and(|(_, sd)| sd),
            span: code[pc].span(),
        });
    }
    if ops.is_empty() {
        return None;
    }
    // Elision pass: a def's environment write is dead when the value can
    // only ever be observed through this chain's temp stack — every read
    // of the var lies inside the chain's pc range *strictly after* its
    // first in-chain def (a read at or before that pc — including the
    // def's own right-hand side — reads the environment and must keep
    // seeing the carried value), and the var is not a function output.
    let (pc_lo, pc_hi) = (start as u32, (start + ops.len() - 1) as u32);
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
    Some((ops, guards))
}

/// Lowers one fusable `DInst` to the generic micro-op that runs it
/// through `eval.rs`.
fn generic_micro(inst: &DInst) -> Micro {
    match inst {
        DInst::Def {
            dst,
            scalar_dst,
            rv,
            span,
        } => Micro {
            run: micro_def_generic,
            data: MicroData::Def {
                dst: *dst,
                scalar_dst: *scalar_dst,
                rv: rv.clone(),
                span: *span,
            },
        },
        DInst::Store {
            array,
            indices,
            value,
            span,
        } => Micro {
            run: micro_store_generic,
            data: MicroData::Store {
                array: *array,
                indices: indices.clone(),
                value: *value,
                span: *span,
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
            span,
        } => NStep {
            run: step_for_setup,
            data: NData::ForSetup {
                var: *var,
                start: *start,
                step: *step,
                stop: *stop,
                span: *span,
            },
        },
        DInst::ForNext { end, span } => NStep {
            run: step_for_next,
            data: NData::ForNext {
                end: *end,
                span: *span,
            },
        },
        DInst::WhileEnter { span } => NStep {
            run: step_while_enter,
            data: NData::At(*span),
        },
        DInst::WhileIter { span } => NStep {
            run: step_while_iter,
            data: NData::At(*span),
        },
        DInst::Break { target, span } => NStep {
            run: step_break,
            data: NData::Loop {
                target: *target,
                span: *span,
            },
        },
        DInst::Continue { target, span } => NStep {
            run: step_continue,
            data: NData::Loop {
                target: *target,
                span: *span,
            },
        },
        DInst::Return { span } => NStep {
            run: step_return,
            data: NData::At(*span),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_program;
    use matic_sema::{Class, Dim, Shape, Ty};

    fn row(class: Class, n: usize) -> Ty {
        Ty::new(class, Shape::row(Dim::Known(n)))
    }

    /// The six suite kernels with their entry points and signatures
    /// (vectors of 128, fft at 64, matmul at 8×8).
    fn kernels() -> Vec<(&'static str, &'static str, &'static str, Vec<Ty>)> {
        let real = |n| row(Class::Double, n);
        let cx = |n| row(Class::Complex, n);
        let mat = Ty::new(Class::Double, Shape::known(8, 8));
        vec![
            (
                "fir",
                include_str!("../../../../benchmarks/fir.m"),
                "fir",
                vec![real(128), real(64)],
            ),
            (
                "iir",
                include_str!("../../../../benchmarks/iir.m"),
                "iir",
                vec![real(128), real(3), real(3)],
            ),
            (
                "cmult",
                include_str!("../../../../benchmarks/cmult.m"),
                "cmult",
                vec![cx(128), cx(128)],
            ),
            (
                "fft",
                include_str!("../../../../benchmarks/fft.m"),
                "fft_r2",
                vec![cx(64)],
            ),
            (
                "matmul",
                include_str!("../../../../benchmarks/matmul.m"),
                "matmul",
                vec![mat, mat],
            ),
            (
                "xcorr",
                include_str!("../../../../benchmarks/xcorr.m"),
                "xcorr_k",
                vec![real(128), real(128), Ty::double_scalar()],
            ),
        ]
    }

    /// Compiles `src` as the pipeline does at the baseline level (scalar
    /// passes only) or the full one (inlining and vectorization too), then
    /// decodes and fuses it.
    fn fuse(src: &str, entry: &str, sig: &[Ty], full: bool) -> NativeProgram {
        let (ast, diags) = matic_frontend::parse(src);
        assert!(!diags.has_errors(), "{diags:?}");
        let analysis = matic_sema::analyze(&ast, entry, sig);
        let (mut mir, _) = matic_mir::lower_program(&ast, &analysis);
        matic_mir::optimize_program(&mut mir);
        if full {
            matic_mir::inline_program(&mut mir, matic_mir::DEFAULT_INLINE_LIMIT);
            matic_mir::optimize_program(&mut mir);
            matic_vectorize::vectorize_program(&mut mir);
        }
        fuse_program(&mir, &decode_program(&mir))
    }

    /// fft's butterfly loop (`while s <= n`) at full optimization: the
    /// innermost loop holding a vector step, found by its back edge.
    /// Every scalar builtin in it (nine `numel`, two `floor`) runs inside
    /// a compiled chain, none as a generic micro-op, so the loop is ten
    /// chains (its test's included) and no generic statement but the three
    /// `zeros` allocations and the three `error` strings.
    #[test]
    fn fft_butterfly_builtins_run_in_chains() {
        let (_, src, entry, sig) = kernels().swap_remove(3);
        let program = fuse(src, entry, &sig, true);
        let steps = &program.funcs[0].steps;
        let inner = (0..steps.len())
            .filter_map(|j| match steps[j].data {
                NData::Jump { target } if (target as usize) < j => Some(target as usize..j),
                _ => None,
            })
            .filter(|body| {
                steps[body.clone()]
                    .iter()
                    .any(|s| matches!(s.data, NData::Vector(_)))
            })
            .min_by_key(|body| body.len())
            .expect("fft has a vector loop");
        let (mut chains, mut builtins, mut others) = (0, 0, 0);
        for step in &steps[inner] {
            let NData::Super(micros) = &step.data else {
                continue;
            };
            for m in micros {
                match &m.data {
                    MicroData::Chain(_) => chains += 1,
                    MicroData::Def {
                        rv: Rvalue::Builtin { .. },
                        ..
                    } => builtins += 1,
                    _ => others += 1,
                }
            }
        }
        assert_eq!(builtins, 0, "generic builtin micro-ops");
        assert_eq!(
            (chains, others),
            (10, 6),
            "chains and other generic micro-ops"
        );
    }

    /// The loop steps carrying a native reduction kernel are exactly the
    /// scalar MAC loops of the baseline fir, xcorr and iir (two in iir):
    /// losing one silently would leave the simulator correct but slow.
    #[test]
    fn reduction_kernels_cover_the_baseline_mac_loops() {
        for (id, src, entry, sig) in kernels() {
            for full in [false, true] {
                let program = fuse(src, entry, &sig, full);
                let found = program
                    .funcs
                    .iter()
                    .flat_map(|f| &f.steps)
                    .filter(|step| {
                        matches!(
                            step.data,
                            NData::ForChain {
                                reduction: Some(_),
                                ..
                            }
                        )
                    })
                    .count();
                let want = match (id, full) {
                    ("fir" | "xcorr", false) => 1,
                    ("iir", false) => 2,
                    _ => 0,
                };
                let level = if full { "full" } else { "baseline" };
                assert_eq!(found, want, "{id} at the {level} level");
            }
        }
    }
}
