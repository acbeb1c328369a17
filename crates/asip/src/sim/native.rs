//! The fused direct-threaded execution engine — the simulator's only
//! engine.
//!
//! Executes the `NativeProgram` form built by `fuse.rs`: a flat table of
//! steps, each a pre-selected fn pointer, with straight-line `Def`/`Store`
//! runs collapsed into superinstructions of micro-ops. The dispatch loop is
//! `pc = (step.run)(...)` — no instruction-enum match — and micro-ops with
//! scalar-specialized fast paths skip the generic `Rvalue` machinery
//! entirely, falling back to it whenever a runtime value shape disagrees
//! with the specialization. Micro-ops specialize dispatch only: every
//! other statement (slices, builtins, calls) runs the shared semantics in
//! `eval.rs` through `micro_def_generic`/`micro_store_generic`.
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
//! (`walk.rs`) does for the statement it came from. `cur_span` is only
//! ever read by the profiler, so handlers skip the span bookkeeping
//! entirely when profiling is off.

use super::eval::{apply_binop_scalar, apply_unop};
use super::fuse::{
    exact_int, CKind, CSrc, ChainData, ChainOp, Guard, IndexedLoad, Micro, MicroData, NData, NStep,
    NativeFunction, Reduction, CHAIN_MAX,
};
use super::vector::{first_oob, lane};
use super::{def_finish, slot_scalar, trip_count, Env, Exec, SimError, SimVal};
use matic_frontend::span::Span;
use matic_interp::{Cx, Matrix};
use matic_isa::OpClass;
use matic_mir::{Index, MirFunction, Operand, Rvalue, VarId};

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
        self.burn(Span::dummy())?;
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

// ---- shared fast-path helpers ---------------------------------------------

#[cold]
fn unset_err(f: &MirFunction, v: VarId, span: Span) -> SimError {
    SimError::new(format!("read of unset `{}`", f.var(v).name), span)
}

// ---- micro-op handlers ----------------------------------------------------

pub(super) fn micro_bin(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Bin {
        op,
        a,
        b,
        dst,
        scalar_dst,
        span,
        ..
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    let x = match slot_scalar(env, *a) {
        Ok(Some(z)) => Some(z),
        Ok(None) => None,
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let y = match slot_scalar(env, *b) {
        Ok(Some(z)) => Some(z),
        Ok(None) => None,
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let (Some(x), Some(y)) = (x, y) else {
        // Array operand: the generic path re-fetches (no side effects) and
        // handles element-wise/matmul semantics.
        let val = exec.eval_binary(f, env, *op, *a, *b, *span)?;
        def_finish(env, *dst, *scalar_dst, val);
        return Ok(());
    };
    let complex = !x.is_real() || !y.is_real();
    exec.scalar_binop_cost(*op, complex);
    let z = apply_binop_scalar(*op, x, y).map_err(|m| SimError::new(m, *span))?;
    env[dst.0 as usize] = Some(if *scalar_dst {
        SimVal::Scalar(z)
    } else {
        SimVal::Arr(Matrix::scalar(z))
    });
    Ok(())
}

/// `micro_bin` with the real-operand cost class and the compute fn
/// pre-selected at fuse time (every op except `&&`/`||`, whose scalar
/// application errors through `apply_binop_scalar`).
pub(super) fn micro_bin_fast(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Bin {
        op,
        class,
        evalf,
        a,
        b,
        dst,
        scalar_dst,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    match (slot_scalar(env, *a), slot_scalar(env, *b)) {
        (Ok(Some(x)), Ok(Some(y))) => {
            if x.is_real() && y.is_real() {
                exec.charge(*class, 1);
            } else {
                exec.scalar_binop_cost(*op, true);
            }
            let z = evalf(x, y);
            env[dst.0 as usize] = Some(if *scalar_dst {
                SimVal::Scalar(z)
            } else {
                SimVal::Arr(Matrix::scalar(z))
            });
            Ok(())
        }
        (Err(v), _) | (_, Err(v)) => Err(unset_err(f, v, *span)),
        _ => {
            // Array operand: the generic path re-fetches (no side effects)
            // and handles element-wise/matmul semantics.
            let val = exec.eval_binary(f, env, *op, *a, *b, *span)?;
            def_finish(env, *dst, *scalar_dst, val);
            Ok(())
        }
    }
}

pub(super) fn micro_copy(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Copy {
        a,
        dst,
        scalar_dst,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    match slot_scalar(env, *a) {
        Ok(Some(z)) => {
            exec.charge(OpClass::ScalarAlu, 1);
            def_finish(env, *dst, *scalar_dst, SimVal::Scalar(z));
        }
        Ok(None) => {
            // Value-semantics copy through memory (Rc clone at runtime).
            let Operand::Var(v) = *a else { unreachable!() };
            let n = match &env[v.0 as usize] {
                Some(SimVal::Arr(m)) => m.numel() as u64,
                _ => unreachable!(),
            };
            exec.charge(OpClass::Load, n);
            exec.charge(OpClass::Store, n);
            let val = env[v.0 as usize].clone().unwrap();
            def_finish(env, *dst, *scalar_dst, val);
        }
        Err(v) => return Err(unset_err(f, v, *span)),
    }
    Ok(())
}

pub(super) fn micro_un(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Un {
        op,
        a,
        dst,
        scalar_dst,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    match slot_scalar(env, *a) {
        Ok(Some(z)) => {
            exec.charge(OpClass::ScalarAlu, 1);
            def_finish(env, *dst, *scalar_dst, SimVal::Scalar(apply_unop(*op, z)));
        }
        Ok(None) => {
            let rv = Rvalue::Unary { op: *op, a: *a };
            let val = exec.eval_rvalue(f, env, *dst, &rv, *span)?;
            def_finish(env, *dst, *scalar_dst, val);
        }
        Err(v) => return Err(unset_err(f, v, *span)),
    }
    Ok(())
}

pub(super) fn micro_load1(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Load1 {
        arr,
        idx,
        dst,
        scalar_dst,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    let fallback = |exec: &mut Exec<'_>, env: &mut Env| -> Result<(), SimError> {
        let val = exec.eval_index(f, env, *arr, &[Index::Scalar(*idx)], *span)?;
        def_finish(env, *dst, *scalar_dst, val);
        Ok(())
    };
    // The generic path reads the base register first, so its unset error
    // precedes any subscript error.
    match &env[arr.0 as usize] {
        Some(SimVal::Arr(_)) => {}
        Some(SimVal::Scalar(_)) => return fallback(exec, env),
        None => return Err(unset_err(f, *arr, *span)),
    }
    let z = match slot_scalar(env, *idx) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env), // gather subscript
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let k = z.re as i64 - 1;
    let (elem, numel) = match &env[arr.0 as usize] {
        Some(SimVal::Arr(m)) => (
            m.data().get(k.max(0) as usize).copied().filter(|_| k >= 0),
            m.numel(),
        ),
        _ => unreachable!(),
    };
    exec.charge(OpClass::ScalarAlu, 1);
    exec.charge(OpClass::Load, 1);
    let z = elem.ok_or_else(|| {
        SimError::oob(format!("index {} out of bounds ({})", k + 1, numel), *span)
    })?;
    def_finish(env, *dst, *scalar_dst, SimVal::Scalar(z));
    Ok(())
}

pub(super) fn micro_load2(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Load2 {
        arr,
        r,
        c,
        dst,
        scalar_dst,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    let fallback = |exec: &mut Exec<'_>, env: &mut Env| -> Result<(), SimError> {
        let val = exec.eval_index(f, env, *arr, &[Index::Scalar(*r), Index::Scalar(*c)], *span)?;
        def_finish(env, *dst, *scalar_dst, val);
        Ok(())
    };
    match &env[arr.0 as usize] {
        Some(SimVal::Arr(_)) => {}
        Some(SimVal::Scalar(_)) => return fallback(exec, env),
        None => return Err(unset_err(f, *arr, *span)),
    }
    let zr = match slot_scalar(env, *r) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env),
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let zc = match slot_scalar(env, *c) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env),
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let (r0, c0) = (zr.re as i64 - 1, zc.re as i64 - 1);
    let elem = match &env[arr.0 as usize] {
        Some(SimVal::Arr(m)) => {
            let ok = r0 >= 0 && c0 >= 0 && (r0 as usize) < m.rows() && (c0 as usize) < m.cols();
            ok.then(|| m.at(r0 as usize, c0 as usize))
        }
        _ => unreachable!(),
    };
    exec.charge(OpClass::ScalarAlu, 2);
    exec.charge(OpClass::Load, 1);
    let z = elem.ok_or_else(|| {
        SimError::oob(
            format!("index ({}, {}) out of bounds", r0 + 1, c0 + 1),
            *span,
        )
    })?;
    def_finish(env, *dst, *scalar_dst, SimVal::Scalar(z));
    Ok(())
}

pub(super) fn micro_store1(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Store1 {
        arr,
        idx,
        value,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    let fallback = |exec: &mut Exec<'_>, env: &mut Env| -> Result<(), SimError> {
        exec.exec_store(f, env, *arr, &[Index::Scalar(*idx)], *value, *span)
    };
    // Generic order: value fetch, then destination take, then subscript.
    let zval = match slot_scalar(env, *value) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env), // array value (as_cx may broadcast)
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    match &env[arr.0 as usize] {
        Some(SimVal::Arr(_)) => {}
        Some(SimVal::Scalar(_)) => return fallback(exec, env),
        None => return Err(unset_err(f, *arr, *span)),
    }
    let zi = match slot_scalar(env, *idx) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env),
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let k = z_index(zi);
    exec.charge(OpClass::ScalarAlu, 1);
    exec.charge(OpClass::Store, 1);
    let Some(SimVal::Arr(m)) = &mut env[arr.0 as usize] else {
        unreachable!()
    };
    let n = m.numel();
    if k < 0 || k as usize >= n {
        return Err(SimError::oob(
            format!("store index {} out of bounds ({n})", k + 1),
            *span,
        ));
    }
    m.data_mut()[k as usize] = zval;
    Ok(())
}

#[inline(always)]
fn z_index(z: Cx) -> i64 {
    z.re as i64 - 1
}

pub(super) fn micro_store2(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Store2 {
        arr,
        r,
        c,
        value,
        span,
    } = data
    else {
        unreachable!()
    };
    exec.enter(*span)?;
    let fallback = |exec: &mut Exec<'_>, env: &mut Env| -> Result<(), SimError> {
        exec.exec_store(
            f,
            env,
            *arr,
            &[Index::Scalar(*r), Index::Scalar(*c)],
            *value,
            *span,
        )
    };
    let zval = match slot_scalar(env, *value) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env),
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    match &env[arr.0 as usize] {
        Some(SimVal::Arr(_)) => {}
        Some(SimVal::Scalar(_)) => return fallback(exec, env),
        None => return Err(unset_err(f, *arr, *span)),
    }
    let zr = match slot_scalar(env, *r) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env),
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let zc = match slot_scalar(env, *c) {
        Ok(Some(z)) => z,
        Ok(None) => return fallback(exec, env),
        Err(v) => return Err(unset_err(f, v, *span)),
    };
    let (r0, c0) = (z_index(zr), z_index(zc));
    exec.charge(OpClass::ScalarAlu, 2);
    exec.charge(OpClass::Store, 1);
    let Some(SimVal::Arr(m)) = &mut env[arr.0 as usize] else {
        unreachable!()
    };
    if r0 < 0 || c0 < 0 || r0 as usize >= m.rows() || c0 as usize >= m.cols() {
        return Err(SimError::oob("2-D store out of bounds", *span));
    }
    *m.at_mut(r0 as usize, c0 as usize) = zval;
    Ok(())
}

/// Executes a compiled scalar chain (see [`ChainData`]): one dispatch and
/// one fuel check for the whole run, intermediates in a stack-local temp
/// array, environment writes only where a value escapes the chain. Falls
/// back to the original micro sequence whenever profiling is on, fuel may
/// run out mid-chain, or a shape guard fails — before any side effect, so
/// the fallback replays from a clean slate.
pub(super) fn micro_chain(
    exec: &mut Exec<'_>,
    f: &MirFunction,
    env: &mut Env,
    data: &MicroData,
) -> Result<(), SimError> {
    let MicroData::Chain(ch) = data else {
        unreachable!()
    };
    let n = ch.ops.len() as u64;
    if exec.profile.is_some() || exec.fuel < n {
        return run_chain_fallback(exec, f, env, &ch.fallback);
    }
    if !guards_hold(&ch.guards, env) {
        return run_chain_fallback(exec, f, env, &ch.fallback);
    }
    // Every chained micro burns exactly one fuel; with `fuel >= n`
    // exhaustion cannot occur mid-chain, so the per-op burns collapse to
    // one subtraction (errors abort the run, leaving fuel unobservable).
    exec.fuel -= n;
    chain_run_fast(exec, env, ch)
}

/// Whether every shape guard of a chain holds on the current environment.
#[inline(always)]
fn guards_hold(guards: &[Guard], env: &Env) -> bool {
    guards.iter().all(|g| match g {
        Guard::Scalar(s) => matches!(&env[*s as usize], Some(SimVal::Scalar(_))),
        Guard::Arr(s) => matches!(&env[*s as usize], Some(SimVal::Arr(_))),
    })
}

/// One run of a chain on the optimistic pass, then its all-real charges.
#[inline(never)]
fn chain_run_fast(exec: &mut Exec<'_>, env: &mut Env, ch: &ChainData) -> Result<(), SimError> {
    let mut tmps = [Cx::ZERO; CHAIN_MAX];
    if chain_run_deferred(exec, env, ch, &mut tmps)? {
        charge_real_counts(exec, ch, 1);
    }
    Ok(())
}

/// Charges `runs` all-real runs of a chain in one batched `charge` per
/// class it touches.
#[inline(always)]
fn charge_real_counts(exec: &mut Exec<'_>, ch: &ChainData, runs: u64) {
    for &(class, cnt) in &ch.real_counts {
        exec.charge(class, cnt as u64 * runs);
    }
}

/// Optimistic chain pass: computes values with cycle charges deferred.
/// Valid while every `Bin` input is real — the only value-dependent cost —
/// so on success (`Ok(true)`) the run's accounting is exactly the
/// precomputed `real_counts`, which the caller charges (batched over any
/// number of runs: `charge(c, k1 + k2)` ≡ `charge(c, k1); charge(c, k2)`,
/// and charge order is invisible with profiling off). The first complex
/// input deoptimizes: settle the all-real prefix's charges exactly, then
/// finish per-op in `chain_run_exact` and return `Ok(false)` — that run
/// is fully charged. A bounds fault settles the run's prefix and the
/// failing op before returning the error.
#[inline(always)]
fn chain_run_deferred(
    exec: &mut Exec<'_>,
    env: &mut Env,
    ch: &ChainData,
    tmps: &mut [Cx; CHAIN_MAX],
) -> Result<bool, SimError> {
    let ops: &[ChainOp] = &ch.ops;
    let mut deopt = ops.len();
    'fast: for (i, op) in ops.iter().enumerate() {
        let z = match &op.kind {
            CKind::Bin { evalf, .. } => {
                let x = rd(op.a, tmps, env);
                let y = rd(op.b, tmps, env);
                if !(x.is_real() && y.is_real()) {
                    deopt = i;
                    break 'fast;
                }
                evalf(x, y)
            }
            CKind::Un(uop) => apply_unop(*uop, rd(op.a, tmps, env)),
            CKind::Copy => rd(op.a, tmps, env),
            CKind::Load1 { arr } => {
                let k = rd(op.a, tmps, env).re as i64 - 1;
                let (elem, numel) = match &env[*arr as usize] {
                    Some(SimVal::Arr(m)) => (
                        m.data().get(k.max(0) as usize).copied().filter(|_| k >= 0),
                        m.numel(),
                    ),
                    _ => unreachable!("guarded array slot"),
                };
                match elem {
                    Some(z) => z,
                    None => return chain_oob(exec, ops, i, load1_oob(k, numel, op.span)),
                }
            }
            CKind::Load2 { arr } => {
                let r0 = rd(op.a, tmps, env).re as i64 - 1;
                let c0 = rd(op.b, tmps, env).re as i64 - 1;
                let elem = match &env[*arr as usize] {
                    Some(SimVal::Arr(m)) => {
                        let ok = r0 >= 0
                            && c0 >= 0
                            && (r0 as usize) < m.rows()
                            && (c0 as usize) < m.cols();
                        ok.then(|| m.at(r0 as usize, c0 as usize))
                    }
                    _ => unreachable!("guarded array slot"),
                };
                match elem {
                    Some(z) => z,
                    None => return chain_oob(exec, ops, i, load2_oob(r0, c0, op.span)),
                }
            }
            CKind::Store1 { arr } => {
                let k = z_index(rd(op.a, tmps, env));
                let zval = rd(op.b, tmps, env);
                let Some(SimVal::Arr(m)) = &mut env[*arr as usize] else {
                    unreachable!("guarded array slot")
                };
                let total = m.numel();
                if k < 0 || k as usize >= total {
                    return chain_oob(exec, ops, i, store1_oob(k, total, op.span));
                }
                m.data_mut()[k as usize] = zval;
                continue 'fast;
            }
            CKind::Store2 { arr } => {
                let r0 = z_index(rd(op.a, tmps, env));
                let c0 = z_index(rd(op.b, tmps, env));
                let zval = rd(op.c, tmps, env);
                let Some(SimVal::Arr(m)) = &mut env[*arr as usize] else {
                    unreachable!("guarded array slot")
                };
                if r0 < 0 || c0 < 0 || r0 as usize >= m.rows() || c0 as usize >= m.cols() {
                    return chain_oob(
                        exec,
                        ops,
                        i,
                        SimError::oob("2-D store out of bounds", op.span),
                    );
                }
                *m.at_mut(r0 as usize, c0 as usize) = zval;
                continue 'fast;
            }
        };
        tmps[i] = z;
        if op.env_dst != u32::MAX {
            env[op.env_dst as usize] = Some(if op.scalar_dst {
                SimVal::Scalar(z)
            } else {
                SimVal::Arr(Matrix::scalar(z))
            });
        }
    }
    if deopt == ops.len() {
        return Ok(true);
    }
    // Deoptimized tail: ops[..deopt] completed with all-real charges
    // pending; settle them, then run the rest with exact accounting.
    for op in &ops[..deopt] {
        chain_charge_real(exec, op);
    }
    chain_run_exact(exec, env, ops, deopt, tmps)?;
    Ok(false)
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

/// Error exit from the optimistic pass at op `i`: settles the deferred
/// all-real charges for `ops[..i]` plus the failing op's own charges
/// (which the micro issues before raising the bounds error), then
/// propagates the error.
#[cold]
fn chain_oob(
    exec: &mut Exec<'_>,
    ops: &[ChainOp],
    i: usize,
    err: SimError,
) -> Result<bool, SimError> {
    for op in &ops[..=i] {
        chain_charge_real(exec, op);
    }
    Err(err)
}

/// The exact per-op charge sequence of one chain op with real inputs;
/// must mirror `chain_real_counts` (fuse.rs) and the micro handlers.
fn chain_charge_real(exec: &mut Exec<'_>, op: &ChainOp) {
    match &op.kind {
        CKind::Bin { class, .. } => exec.charge(*class, 1),
        CKind::Un(_) | CKind::Copy => exec.charge(OpClass::ScalarAlu, 1),
        CKind::Load1 { .. } => {
            exec.charge(OpClass::ScalarAlu, 1);
            exec.charge(OpClass::Load, 1);
        }
        CKind::Load2 { .. } => {
            exec.charge(OpClass::ScalarAlu, 2);
            exec.charge(OpClass::Load, 1);
        }
        CKind::Store1 { .. } => {
            exec.charge(OpClass::ScalarAlu, 1);
            exec.charge(OpClass::Store, 1);
        }
        CKind::Store2 { .. } => {
            exec.charge(OpClass::ScalarAlu, 2);
            exec.charge(OpClass::Store, 1);
        }
    }
}

/// Finishes a chain from op `start` with exact per-op accounting (the
/// deoptimized path, taken once a complex value appears). Fuel for the
/// whole chain was already subtracted.
#[inline(never)]
fn chain_run_exact(
    exec: &mut Exec<'_>,
    env: &mut Env,
    ops: &[ChainOp],
    start: usize,
    tmps: &mut [Cx; CHAIN_MAX],
) -> Result<(), SimError> {
    for (i, op) in ops.iter().enumerate().skip(start) {
        let z = match &op.kind {
            CKind::Bin {
                op: bop,
                class,
                evalf,
            } => {
                let x = rd(op.a, tmps, env);
                let y = rd(op.b, tmps, env);
                if x.is_real() && y.is_real() {
                    exec.charge(*class, 1);
                } else {
                    exec.scalar_binop_cost(*bop, true);
                }
                evalf(x, y)
            }
            CKind::Un(uop) => {
                let x = rd(op.a, tmps, env);
                exec.charge(OpClass::ScalarAlu, 1);
                apply_unop(*uop, x)
            }
            CKind::Copy => {
                let x = rd(op.a, tmps, env);
                exec.charge(OpClass::ScalarAlu, 1);
                x
            }
            CKind::Load1 { arr } => {
                let k = rd(op.a, tmps, env).re as i64 - 1;
                let (elem, numel) = match &env[*arr as usize] {
                    Some(SimVal::Arr(m)) => (
                        m.data().get(k.max(0) as usize).copied().filter(|_| k >= 0),
                        m.numel(),
                    ),
                    _ => unreachable!("guarded array slot"),
                };
                exec.charge(OpClass::ScalarAlu, 1);
                exec.charge(OpClass::Load, 1);
                match elem {
                    Some(z) => z,
                    None => return Err(load1_oob(k, numel, op.span)),
                }
            }
            CKind::Load2 { arr } => {
                let r0 = rd(op.a, tmps, env).re as i64 - 1;
                let c0 = rd(op.b, tmps, env).re as i64 - 1;
                let elem = match &env[*arr as usize] {
                    Some(SimVal::Arr(m)) => {
                        let ok = r0 >= 0
                            && c0 >= 0
                            && (r0 as usize) < m.rows()
                            && (c0 as usize) < m.cols();
                        ok.then(|| m.at(r0 as usize, c0 as usize))
                    }
                    _ => unreachable!("guarded array slot"),
                };
                exec.charge(OpClass::ScalarAlu, 2);
                exec.charge(OpClass::Load, 1);
                match elem {
                    Some(z) => z,
                    None => return Err(load2_oob(r0, c0, op.span)),
                }
            }
            CKind::Store1 { arr } => {
                let k = z_index(rd(op.a, tmps, env));
                let zval = rd(op.b, tmps, env);
                exec.charge(OpClass::ScalarAlu, 1);
                exec.charge(OpClass::Store, 1);
                let Some(SimVal::Arr(m)) = &mut env[*arr as usize] else {
                    unreachable!("guarded array slot")
                };
                let total = m.numel();
                if k < 0 || k as usize >= total {
                    return Err(store1_oob(k, total, op.span));
                }
                m.data_mut()[k as usize] = zval;
                continue;
            }
            CKind::Store2 { arr } => {
                let r0 = z_index(rd(op.a, tmps, env));
                let c0 = z_index(rd(op.b, tmps, env));
                let zval = rd(op.c, tmps, env);
                exec.charge(OpClass::ScalarAlu, 2);
                exec.charge(OpClass::Store, 1);
                let Some(SimVal::Arr(m)) = &mut env[*arr as usize] else {
                    unreachable!("guarded array slot")
                };
                if r0 < 0 || c0 < 0 || r0 as usize >= m.rows() || c0 as usize >= m.cols() {
                    return Err(SimError::oob("2-D store out of bounds", op.span));
                }
                *m.at_mut(r0 as usize, c0 as usize) = zval;
                continue;
            }
        };
        tmps[i] = z;
        if op.env_dst != u32::MAX {
            env[op.env_dst as usize] = Some(if op.scalar_dst {
                SimVal::Scalar(z)
            } else {
                SimVal::Arr(Matrix::scalar(z))
            });
        }
    }
    Ok(())
}

/// The chain's slow path: replays the original micro sequence.
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
    exec.burn(Span::dummy())?;
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
    } = &step.data
    else {
        unreachable!()
    };
    exec.burn(Span::dummy())?;
    let (s, st, e) = exec.range_of(f, env, [*start, *st_op, *stop], Span::dummy())?;
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
        let mut tmps = [Cx::ZERO; CHAIN_MAX];
        for i in k + folded as i64..n {
            exec.set(env, var, SimVal::scalar(s + st * i as f64));
            match chain_run_deferred(exec, env, chain, &mut tmps) {
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
    _step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    exec.burn(Span::dummy())?;
    frames.push(Frame::While);
    Ok(pc + 1)
}

pub(super) fn step_while_iter(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    _step: &NStep,
    pc: u32,
) -> Result<u32, SimError> {
    exec.burn(Span::dummy())?;
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
    let NData::Loop { target } = &step.data else {
        unreachable!()
    };
    exec.burn(Span::dummy())?;
    frames.pop();
    Ok(*target)
}

pub(super) fn step_continue(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    step: &NStep,
    _pc: u32,
) -> Result<u32, SimError> {
    let NData::Loop { target } = &step.data else {
        unreachable!()
    };
    exec.burn(Span::dummy())?;
    Ok(*target)
}

pub(super) fn step_return(
    exec: &mut Exec<'_>,
    _f: &MirFunction,
    _env: &mut Env,
    _frames: &mut Vec<Frame>,
    _step: &NStep,
    _pc: u32,
) -> Result<u32, SimError> {
    exec.burn(Span::dummy())?;
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
