//! The fused direct-threaded execution engine — the simulator's only
//! engine.
//!
//! Executes the `NativeProgram` form built by `fuse.rs`: a flat table of
//! steps, each a pre-selected fn pointer, with straight-line `Def`/`Store`
//! runs collapsed into superinstructions of micro-ops. The dispatch loop is
//! `pc = (step.run)(...)` — no instruction-enum match.
//!
//! Scalar statements, scalar builtins included, run as compiled chains
//! (`micro_chain`), through one op loop (`chain_run`) that holds each
//! kind's load, store, bounds and builtin code once. It defers charges
//! until the first complex `Bin` input, then charges exactly; with
//! profiling on, or fuel short of the chain's length, it charges exactly
//! from the start and each op burns its own fuel and points `cur_span` at
//! itself. Only a guard miss leaves a chain: its statements then replay
//! through `micro_def_generic` and `micro_store_generic`, the `eval.rs`
//! semantics the tree walker runs. Every other statement (slices, array
//! builtins, calls) runs those semantics too.
//!
//! Loop-level chains: a counted loop whose body is one compiled chain runs
//! through `step_for_chain`, which — when profiling is off, fuel covers
//! the whole remaining trip (all or nothing), and the loop-invariant
//! guards hold on entry — subtracts the trip's fuel once, runs every
//! iteration's chain in one host loop with charges deferred, and settles
//! them in one batch per class. Otherwise it is `ForNext` for a single
//! iteration and the per-iteration steps take over.
//!
//! Reduction kernels: when the loop's chain is a recognized reduction
//! (`acc = acc + A(ia) * B(ib)` or `+ A(ia)`, see `Reduction` in
//! `fuse.rs`) and the loop variable is not `acc`, the bulk loop first
//! folds the leading iterations natively. Its preconditions: every
//! subscript leaf and the loop variable's values are integers of
//! magnitude at most 2⁴⁰, so the chain's `f64` index sums are exact and
//! each subscript is an integer affine function of the iteration; both
//! windows are then bounds-checked in closed form. Each lane makes the
//! chain's `Cx` operations in the chain's order and stops before any lane
//! the chain would run off its all-real path. The handover writes `acc`
//! and the loop variable as the chain leaves them at that iteration
//! boundary, and the per-iteration host loop runs the rest.
//!
//! Bit-exactness contract: every handler burns fuel, charges cycles, and
//! raises errors in exactly the order the tree walker's `exec_stmt`
//! (`walk.rs`) does for the statement it came from, and a fuel-exhaustion
//! error names the same statement. `cur_span` is only ever read by the
//! profiler, so handlers skip the span bookkeeping entirely when
//! profiling is off.

use super::builtins::{size_along, BuiltinFn};
use super::eval::apply_unop;
use super::fuse::{
    exact_int, CKind, CSrc, ChainData, ChainOp, Guard, IndexedLoad, Micro, MicroData, NData, NStep,
    NativeFunction, Reduction, CHAIN_MAX,
};
use super::vector::{first_oob, lane};
use super::{def_finish, trip_count, Env, Exec, SimError, SimVal};
use matic_frontend::span::Span;
use matic_interp::{Cx, Matrix};
use matic_isa::OpClass;
use matic_mir::{MirFunction, VarId};

/// Runtime state of one active loop in a native function.
pub(super) enum Frame {
    /// A `for` loop: bounds evaluated once at `ForSetup`, `k` counts
    /// completed iterations.
    For {
        var: VarId,
        s: f64,
        st: f64,
        n: i64,
        k: i64,
    },
    /// A `while` loop (no per-loop state; the frame exists so `break`
    /// unwinds uniformly).
    While,
}

impl Exec<'_> {
    /// A handler's entry: burns the instruction's fuel, then (profiling
    /// only) points `cur_span` at it.
    #[inline(always)]
    fn enter(&mut self, span: Span) -> Result<(), SimError> {
        self.burn(span)?;
        if self.profile.is_some() {
            self.cur_span = span;
        }
        Ok(())
    }

    /// Runs `nfunc`'s step table until a step leaves the function.
    pub(super) fn exec_native(
        &mut self,
        f: &MirFunction,
        nfunc: &NativeFunction,
        env: &mut Env,
    ) -> Result<(), SimError> {
        let steps = &nfunc.steps;
        let mut frames: Vec<Frame> = Vec::new();
        let mut pc = 0u32;
        while let Some(step) = steps.get(pc as usize) {
            pc = (step.run)(self, f, env, &mut frames, step, pc)?;
        }
        Ok(())
    }
}

// ---- micro-op handlers ----------------------------------------------------

/// Executes a compiled scalar chain (see [`ChainData`]): one dispatch for
/// the whole run, intermediates in the run's temp stack, environment
/// writes only where a value escapes the chain. A shape guard miss
/// replays the chain's statements through the generic micro-ops, before
/// any side effect. Otherwise the op loop runs, with the whole chain's
/// fuel subtracted at once, or op by op when profiling is on or fuel may
/// run out mid-chain.
pub(super) fn micro_chain(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Chain(ch) = data else {
        unreachable!()
    };
    if !guards_hold(&ch.guards, env) {
        return run_chain_fallback(exec, f, env, &ch.fallback);
    }
    let n = ch.ops.len() as u64;
    let stepped = exec.profile.is_some() || exec.fuel < n;
    if !stepped {
        // Every chain op burns exactly one fuel; with `fuel >= n`
        // exhaustion cannot occur mid-chain, so the per-op burns collapse
        // to one subtraction (errors abort the run, leaving fuel
        // unobservable).
        exec.fuel -= n;
    }
    if exec.chain_run(env, ch, stepped)? {
        charge_real_counts(exec, ch, 1);
    }
    Ok(())
}

/// Whether every shape guard of a chain holds on the current environment.
#[inline(always)]
fn guards_hold(guards: &[Guard], env: &Env) -> bool {
    guards.iter().all(|g| match g {
        Guard::Scalar(s) => matches!(&env[*s as usize], Some(SimVal::Scalar(_))),
        Guard::Arr(s) => matches!(&env[*s as usize], Some(SimVal::Arr(_))),
    })
}

/// Charges `runs` all-real runs of a chain in one batched `charge` per
/// class it touches.
#[inline(always)]
fn charge_real_counts(exec: &mut Exec<'_>, ch: &ChainData, runs: u64) {
    for &(class, cnt) in &ch.real_counts {
        exec.charge_elem(class, cnt * runs);
    }
}

/// Charges `ops` one by one, each as its real inputs would.
fn charge_real_ops(exec: &mut Exec<'_>, ops: &[ChainOp]) {
    for &(class, n) in ops.iter().flat_map(|op| op.kind.real_charges()) {
        exec.charge_elem(class, n);
    }
}

impl Exec<'_> {
    /// The one op loop of a chain, for a run whose guards hold.
    /// Intermediates go to the run's temp stack `self.tmps`. Charges stay
    /// deferred while every `Bin` input is real — the only value-dependent
    /// cost — so an all-real run returns `Ok(true)` and its caller charges
    /// the precomputed `real_counts` (batched over any number of runs:
    /// `charge(c, k1 + k2)` ≡ `charge(c, k1); charge(c, k2)`, and charge
    /// order is invisible with profiling off). The first complex input
    /// settles the ops before it and charges every op from there on
    /// exactly, and the run returns `Ok(false)`, fully charged. A bounds
    /// fault settles the ops run so far and the failing op (which charges
    /// before it raises) before returning the error. With `stepped`, every
    /// op is charged exactly and first burns its own fuel and points
    /// `cur_span` at itself, as its generic micro-op would.
    #[inline(always)]
    fn chain_run(
        &mut self,
        env: &mut Env,
        ch: &ChainData,
        stepped: bool,
    ) -> Result<bool, SimError> {
        let ops: &[ChainOp] = &ch.ops;
        let mut deferred = !stepped;
        // The error of the op at `i`, with the ops up to it charged.
        let fault = |exec: &mut Self, deferred: bool, i: usize, err: SimError| {
            if deferred {
                charge_real_ops(exec, &ops[..=i]);
            }
            Err(err)
        };
        for (i, op) in ops.iter().enumerate() {
            if stepped {
                self.enter(op.span)?;
            }
            if !deferred && !matches!(op.kind, CKind::Bin { .. }) {
                charge_real_ops(self, std::slice::from_ref(op));
            }
            let z = match op.kind {
                CKind::Bin { op: bop, evalf, .. } => {
                    let x = rd(op.a, &self.tmps, env);
                    let y = rd(op.b, &self.tmps, env);
                    if !(x.is_real() && y.is_real()) {
                        if deferred {
                            charge_real_ops(self, &ops[..i]);
                            deferred = false;
                        }
                        self.scalar_binop_cost(bop, true);
                    } else if !deferred {
                        charge_real_ops(self, std::slice::from_ref(op));
                    }
                    evalf(x, y)
                }
                CKind::Un(uop) => apply_unop(uop, rd(op.a, &self.tmps, env)),
                CKind::Copy => rd(op.a, &self.tmps, env),
                CKind::Load1 { arr } => {
                    let k = z_index(rd(op.a, &self.tmps, env));
                    let m = guarded_arr(env, arr);
                    match m.data().get(k.max(0) as usize).filter(|_| k >= 0) {
                        Some(&z) => z,
                        None => {
                            let err = load1_oob(k, m.numel(), op.span);
                            return fault(self, deferred, i, err);
                        }
                    }
                }
                CKind::Load2 { arr } => {
                    let r0 = z_index(rd(op.a, &self.tmps, env));
                    let c0 = z_index(rd(op.b, &self.tmps, env));
                    let m = guarded_arr(env, arr);
                    if !in_2d(m, r0, c0) {
                        return fault(self, deferred, i, load2_oob(r0, c0, op.span));
                    }
                    m.at(r0 as usize, c0 as usize)
                }
                CKind::Store1 { arr } => {
                    let k = z_index(rd(op.a, &self.tmps, env));
                    let zval = rd(op.b, &self.tmps, env);
                    let Some(SimVal::Arr(m)) = &mut env[arr as usize] else {
                        unreachable!("guarded array slot")
                    };
                    let total = m.numel();
                    if k < 0 || k as usize >= total {
                        return fault(self, deferred, i, store1_oob(k, total, op.span));
                    }
                    m.data_mut()[k as usize] = zval;
                    continue;
                }
                CKind::Builtin { f, arr } => match f.f {
                    BuiltinFn::Const(z) => z,
                    BuiltinFn::Shape(query) => Cx::real(query(guarded_arr(env, arr))),
                    BuiltinFn::Size => {
                        let d = rd(op.a, &self.tmps, env).re;
                        Cx::real(size_along(guarded_arr(env, arr), d))
                    }
                    BuiltinFn::Un(g) => g(rd(op.a, &self.tmps, env)),
                    BuiltinFn::Bin(g) => g(rd(op.a, &self.tmps, env), rd(op.b, &self.tmps, env)),
                },
                CKind::Store2 { arr } => {
                    let r0 = z_index(rd(op.a, &self.tmps, env));
                    let c0 = z_index(rd(op.b, &self.tmps, env));
                    let zval = rd(op.c, &self.tmps, env);
                    let Some(SimVal::Arr(m)) = &mut env[arr as usize] else {
                        unreachable!("guarded array slot")
                    };
                    if !in_2d(m, r0, c0) {
                        let err = SimError::oob("2-D store out of bounds", op.span);
                        return fault(self, deferred, i, err);
                    }
                    *m.at_mut(r0 as usize, c0 as usize) = zval;
                    continue;
                }
            };
            self.tmps[i] = z;
            if op.env_dst != u32::MAX {
                env[op.env_dst as usize] = Some(if op.scalar_dst {
                    SimVal::Scalar(z)
                } else {
                    SimVal::Arr(Matrix::scalar(z))
                });
            }
        }
        Ok(deferred)
    }
}

/// Reads one chain source: an immediate, a temp produced earlier in the
/// chain, or a guarded scalar environment slot.
#[inline(always)]
fn rd(s: CSrc, tmps: &[Cx; CHAIN_MAX], env: &Env) -> Cx {
    match s {
        CSrc::Const(z) => z,
        CSrc::Tmp(t) => tmps[t as usize],
        CSrc::Env(slot) => match &env[slot as usize] {
            Some(SimVal::Scalar(z)) => *z,
            _ => unreachable!("guarded scalar slot"),
        },
    }
}

/// The array in a slot guarded to hold one.
#[inline(always)]
fn guarded_arr(env: &Env, slot: u32) -> &Matrix {
    match &env[slot as usize] {
        Some(SimVal::Arr(m)) => m,
        _ => unreachable!("guarded array slot"),
    }
}

/// The 0-based position a subscript value names.
#[inline(always)]
fn z_index(z: Cx) -> i64 {
    z.re as i64 - 1
}

/// Whether 0-based `(r0, c0)` lies inside `m`.
#[inline(always)]
fn in_2d(m: &Matrix, r0: i64, c0: i64) -> bool {
    r0 >= 0 && c0 >= 0 && (r0 as usize) < m.rows() && (c0 as usize) < m.cols()
}

#[cold]
fn load1_oob(k: i64, numel: usize, span: Span) -> SimError {
    SimError::oob(format!("index {} out of bounds ({})", k + 1, numel), span)
}

#[cold]
fn load2_oob(r0: i64, c0: i64, span: Span) -> SimError {
    SimError::oob(
        format!("index ({}, {}) out of bounds", r0 + 1, c0 + 1),
        span,
    )
}

#[cold]
fn store1_oob(k: i64, total: usize, span: Span) -> SimError {
    SimError::oob(
        format!("store index {} out of bounds ({total})", k + 1),
        span,
    )
}

/// The chain's guard-miss path: replays its statements as generic
/// micro-ops.
#[inline(never)]
fn run_chain_fallback(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    micros: &[Micro],
) -> Result<(), SimError> {
    for m in micros {
        (m.run)(exec, f, env, &m.data)?;
    }
    Ok(())
}

pub(super) fn micro_def_generic(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Def {
        dst,
        scalar_dst,
        rv,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    let val = exec.eval_rvalue(f, env, *dst, rv, *span)?;
    def_finish(env, *dst, *scalar_dst, val);
    Ok(())
}

pub(super) fn micro_store_generic(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Store {
        array,
        indices,
        value,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    exec.exec_store(f, env, *array, indices, *value, *span)
}

// ---- step handlers --------------------------------------------------------

pub(super) fn step_super(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::Super(micros) = &step.data else {
        unreachable!()
    };
    for m in micros {
        (m.run)(exec, f, env, &m.data)?;
    }
    Ok(pc + 1)
}

pub(super) fn step_branch_burning(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::Branch { span, .. } = &step.data else {
        unreachable!()
    };
    exec.burn(*span)?;
    step_branch(exec, f, env, frames, step, pc)
}

pub(super) fn step_branch(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::Branch {
        cond,
        if_false,
        exit_loop,
        span,
    } = &step.data
    else {
        unreachable!()
    };
    if exec.profile.is_some() {
        exec.cur_span = *span;
    }
    exec.charge(OpClass::Branch, 1);
    if exec.truthy(f, env, *cond)? {
        Ok(pc + 1)
    } else {
        if *exit_loop {
            frames.pop();
        }
        Ok(*if_false)
    }
}

pub(super) fn step_jump(
    _exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    _pc: u32,
) -> Result<u32, SimError> {
    let NData::Jump { target } = &step.data else {
        unreachable!()
    };
    Ok(*target)
}

pub(super) fn step_for_setup(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::ForSetup {
        var,
        start,
        step: st_op,
        stop,
        span,
    } = &step.data
    else {
        unreachable!()
    };
    exec.burn(*span)?;
    let (s, st, e) = exec.range_of(f, env, [*start, *st_op, *stop], *span)?;
    frames.push(Frame::For {
        var: *var,
        s,
        st,
        n: trip_count(s, st, e),
        k: 0,
    });
    Ok(pc + 1)
}

pub(super) fn step_for_next(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::ForNext { end, span } = &step.data else {
        unreachable!()
    };
    for_next(exec, env, frames, *end, *span, pc)
}

/// One `ForNext`: leave the loop, or start the next iteration.
#[inline(always)]
fn for_next(
    exec: &mut Exec<'_>,
    env: &mut Env,
    frames: &mut Vec<Frame>,
    end: u32,
    span: Span,
    pc: u32,
) -> Result<u32, SimError> {
    let Some(Frame::For { var, s, st, n, k }) = frames.last_mut() else {
        unreachable!("ForNext without a for frame");
    };
    if *k >= *n {
        frames.pop();
        Ok(end)
    } else {
        let (var, value) = (*var, *s + *st * *k as f64);
        *k += 1;
        exec.enter(span)?;
        // Loop control: induction update + branch.
        exec.charge(OpClass::ScalarAlu, 1);
        exec.charge(OpClass::Branch, 1);
        exec.set(env, var, SimVal::scalar(value));
        Ok(pc + 1)
    }
}

/// The `ForNext` of a loop whose body is one compiled chain (see
/// `compile_loops` in `fuse.rs`). Runs every remaining iteration as one
/// step when profiling is off, fuel covers all of them, and the chain's
/// guards hold once the loop variable is written — the fuse-time
/// invariance check then makes them hold for every later iteration too.
/// Fuel is subtracted once for the whole loop (each iteration burns its
/// `ForNext` plus one per chained micro), iterations run the chain with
/// charges deferred, and the loop-control and all-real chain charges are
/// settled in one batch per class. An iteration that meets a complex
/// value settles itself exactly; a bounds fault settles the completed
/// iterations plus the faulting one's loop control and prefix, then
/// raises the same error the per-iteration path would. In every other
/// case this is `step_for_next` for one iteration, so a loop short of
/// fuel still exhausts at the same statement.
pub(super) fn step_for_chain(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::ForChain {
        end,
        span,
        chain,
        reduction,
    } = &step.data
    else {
        unreachable!()
    };
    let Some(&Frame::For { var, s, st, n, k }) = frames.last() else {
        unreachable!("ForNext without a for frame");
    };
    let left = n - k;
    let need = (left as u64)
        .checked_mul(1 + chain.ops.len() as u64)
        .filter(|&need| exec.profile.is_none() && left > 0 && need <= exec.fuel);
    let Some(need) = need else {
        return for_next(exec, env, frames, *end, *span, pc);
    };
    exec.set(env, var, SimVal::scalar(s + st * k as f64));
    if !guards_hold(&chain.guards, env) {
        return for_next(exec, env, frames, *end, *span, pc);
    }
    exec.fuel -= need;
    frames.pop();
    let folded = match reduction {
        Some(red) if red.acc != var.0 => fold_reduction(env, red, var, s, st, k, n),
        _ => 0,
    };
    let mut real_runs = folded;
    if folded < left as u64 {
        for i in k + folded as i64..n {
            exec.set(env, var, SimVal::scalar(s + st * i as f64));
            match exec.chain_run(env, chain, false) {
                Ok(all_real) => real_runs += all_real as u64,
                Err(e) => {
                    settle_loop(exec, chain, (i - k + 1) as u64, real_runs);
                    return Err(e);
                }
            }
        }
    }
    settle_loop(exec, chain, left as u64, real_runs);
    Ok(*end)
}

/// Runs the leading iterations `k..` of a reduction loop (see
/// [`Reduction`]) as one native fold and returns how many it ran; the
/// caller's per-iteration loop runs the rest. The fold covers the
/// iterations before the first one that would leave the all-real path:
/// an out-of-bounds element, a complex element, or a complex `acc` or
/// product. It writes `acc` and the loop variable as the chain would
/// leave them after its last iteration, so the handover falls on an
/// iteration boundary.
///
/// Exactness: every subscript leaf — a loop-invariant register, a
/// constant, and the loop variable at its first and last value — must be
/// an integer of magnitude at most 2⁴⁰, and fuse time bounds each
/// subscript to 2¹² leaf occurrences. Every `f64` sum the chain computes
/// then stays below 2⁵² and is exact, so each subscript is the integer
/// affine function of the iteration the fold indexes with. Each lane
/// makes the chain's `Cx` operations in the chain's order, and runs only
/// when the chain's would stay on the all-real path: both factors real
/// at the multiply, `acc` and the product real at the add.
fn fold_reduction(
    env: &mut Env,
    red: &Reduction,
    var: VarId,
    s: f64,
    st: f64,
    k: i64,
    n: i64,
) -> u64 {
    let at = |i: i64| s + st * i as f64;
    let (Some(_), Some(step), Some(first), Some(_)) = (
        exact_int(s),
        exact_int(st),
        exact_int(at(k)),
        exact_int(at(n - 1)),
    ) else {
        return 0;
    };
    let left = (n - k) as usize;
    let Some(wa) = reduction_window(env, &red.a, var, first, step) else {
        return 0;
    };
    let wb = match &red.b {
        Some(b) => match reduction_window(env, b, var, first, step) {
            Some(w) => Some(w),
            None => return 0,
        },
        None => None,
    };
    let in_bounds =
        |(data, s, st): (&[Cx], i64, i64)| first_oob(s, st, left, data.len()).unwrap_or(left);
    let m = in_bounds(wa).min(wb.map_or(left, in_bounds));
    let Some(SimVal::Scalar(mut acc)) = env[red.acc as usize] else {
        unreachable!("guarded scalar slot")
    };
    // `z.im == 0.0` (`Cx::is_real`) holds exactly when `z.im` is ±0, that
    // is when its bits shifted past the sign are zero; one test then
    // covers every realness check of a lane. A lane that fails any of
    // them is not run, so their order does not matter.
    let imag_bits = |z: Cx| z.im.to_bits() << 1;
    let mut done = 0;
    while done < m {
        let x = lane(wa, done);
        let (p, imag) = match wb {
            Some(wb) => {
                let y = lane(wb, done);
                let p = x * y;
                (p, imag_bits(x) | imag_bits(y) | imag_bits(p))
            }
            None => (x, imag_bits(x)),
        };
        if imag | imag_bits(acc) != 0 {
            break;
        }
        acc = if red.acc_first { acc + p } else { p + acc };
        done += 1;
    }
    if done > 0 {
        env[red.acc as usize] = Some(SimVal::Scalar(acc));
        env[var.0 as usize] = Some(SimVal::scalar(at(k + done as i64 - 1)));
    }
    done as u64
}

/// The window `(elements, s, st)` an [`IndexedLoad`] reads over a
/// reduction loop's iterations: iteration `k + j` reads element
/// `s + st * j`. `None` when a register leaf is not an exact integer.
fn reduction_window<'e>(
    env: &'e Env,
    load: &IndexedLoad,
    var: VarId,
    first: i64,
    step: i64,
) -> Option<(&'e [Cx], i64, i64)> {
    let (mut base, mut slope) = (load.konst, 0);
    for &(slot, coef) in &load.terms {
        if slot == var.0 {
            base += coef * first;
            slope += coef * step;
            continue;
        }
        let Some(SimVal::Scalar(z)) = &env[slot as usize] else {
            unreachable!("guarded scalar slot")
        };
        base += coef * exact_int(z.re).filter(|_| z.is_real())?;
    }
    let Some(SimVal::Arr(m)) = &env[load.arr as usize] else {
        unreachable!("guarded array slot")
    };
    Some((m.data(), base - 1, slope))
}

/// Charges the loop control of `iters` iterations (induction update and
/// branch) and the deferred chain charges of the `real_runs` all-real
/// ones. A class no run charged stays untouched.
fn settle_loop(exec: &mut Exec<'_>, ch: &ChainData, iters: u64, real_runs: u64) {
    exec.charge(OpClass::ScalarAlu, iters);
    exec.charge(OpClass::Branch, iters);
    if real_runs > 0 {
        charge_real_counts(exec, ch, real_runs);
    }
}

pub(super) fn step_while_enter(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::At(span) = step.data else {
        unreachable!()
    };
    exec.burn(span)?;
    frames.push(Frame::While);
    Ok(pc + 1)
}

pub(super) fn step_while_iter(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::At(span) = step.data else {
        unreachable!()
    };
    exec.burn(span)?;
    Ok(pc + 1)
}

pub(super) fn step_break(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    frames: &mut Vec<Frame>,
    step: &NStep,
    _pc: u32,
) -> Result<u32, SimError> {
    let NData::Loop { target, span } = step.data else {
        unreachable!()
    };
    exec.burn(span)?;
    frames.pop();
    Ok(target)
}

pub(super) fn step_continue(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    _pc: u32,
) -> Result<u32, SimError> {
    let NData::Loop { target, span } = step.data else {
        unreachable!()
    };
    exec.burn(span)?;
    Ok(target)
}

pub(super) fn step_return(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    _pc: u32,
) -> Result<u32, SimError> {
    let NData::At(span) = step.data else {
        unreachable!()
    };
    exec.burn(span)?;
    Ok(u32::MAX)
}

pub(super) fn step_call_multi(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::CallMulti {
        dsts,
        func,
        args,
        user,
        span,
    } = &step.data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    exec.exec_call_multi(f, env, dsts, func, args, *user, *span)?;
    Ok(pc + 1)
}

pub(super) fn step_effect(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::Effect { name, args, span } = &step.data else {
        unreachable!()
    };
    exec.enter(*span)?;
    exec.exec_effect(f, env, name, args, *span)?;
    Ok(pc + 1)
}

pub(super) fn step_vector(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    let NData::Vector(vop) = &step.data else {
        unreachable!()
    };
    exec.enter(vop.span)?;
    exec.exec_vector_op(f, env, vop)?;
    Ok(pc + 1)
}
