//! Vector operations: cycle charging under the target's SIMD
//! capabilities and lane semantics, one implementation shared by the
//! native engine and the tree walker.

use super::eval::{apply_unop, scalar_binop_fn, SHORT_CIRCUIT_ON_ARRAYS};
use super::{Env, Exec, SimError, SimVal};
use matic_frontend::ast::{BinOp, UnOp};
use matic_frontend::span::Span;
use matic_interp::registry::{self, Eval};
use matic_interp::Cx;
use matic_isa::OpClass;
use matic_mir::{MirFunction, Operand, ReduceKind, VarId, VecKind, VecRef, VectorOp};

/// Where an input of a vector op reads its lanes.
#[derive(Clone, Copy)]
enum Src {
    /// A scalar broadcast to every lane.
    Splat(Cx),
    /// A register: an array, or a scalar read as a 1×1 array.
    Reg(VarId),
}

/// One input of a vector op, resolved and bounds-checked once: lane `k`
/// reads element `s + st * k` of its source (a splat has `s = st = 0`).
#[derive(Clone, Copy)]
struct Window {
    src: Src,
    s: i64,
    st: i64,
}

impl Window {
    /// `(elements, s, st)` for [`lane`].
    #[inline]
    fn lanes<'a>(&'a self, env: &'a Env) -> (&'a [Cx], i64, i64) {
        let data = match &self.src {
            Src::Splat(z) => std::slice::from_ref(z),
            Src::Reg(v) => match &env[v.0 as usize] {
                Some(SimVal::Arr(m)) => m.data(),
                Some(SimVal::Scalar(z)) => std::slice::from_ref(z),
                None => unreachable!("a window's register was set when it was resolved"),
            },
        };
        (data, self.s, self.st)
    }
}

/// Reads lane `k` of a window given as `(data, s, st)`.
#[inline(always)]
pub(super) fn lane((data, s, st): (&[Cx], i64, i64), k: usize) -> Cx {
    data[(s + st * k as i64) as usize]
}

/// Position `s + st * k` of lane `k`, widened so that it cannot overflow.
#[inline(always)]
fn pos(s: i64, st: i64, k: usize) -> i128 {
    s as i128 + st as i128 * k as i128
}

/// The first lane `k < len` (`len > 0`) whose position `s + st * k` lies
/// outside `0..n`, or `None`. The first and last lane settle the
/// in-bounds case in closed form; only a failing window is scanned, and
/// its first bad lane lies within `n + 1` steps.
#[inline]
pub(super) fn first_oob(s: i64, st: i64, len: usize, n: usize) -> Option<usize> {
    let (first, last) = (pos(s, st, 0), pos(s, st, len - 1));
    if first.min(last) >= 0 && first.max(last) < n as i128 {
        return None;
    }
    (0..len).find(|&k| !(0..n as i128).contains(&pos(s, st, k)))
}

/// The per-lane function of a map.
enum MapFn {
    Bin(fn(Cx, Cx) -> Cx),
    Un(UnOp),
    Builtin(fn(Cx) -> Cx),
    Copy,
}

impl MapFn {
    /// Resolves a map's lane function. The maps that fail do so whatever
    /// the lane values, so they fail here, before any store.
    fn of(kind: &VecKind, span: Span) -> Result<MapFn, SimError> {
        Ok(match kind {
            VecKind::Map(BinOp::AndAnd | BinOp::OrOr) => {
                return Err(SimError::new(SHORT_CIRCUIT_ON_ARRAYS, span))
            }
            VecKind::Map(op) => MapFn::Bin(scalar_binop_fn(*op)),
            VecKind::MapUnary(op) => MapFn::Un(*op),
            VecKind::MapBuiltin(name) => match registry::lookup_call(name, 1).map(|b| b.eval) {
                Some(Eval::Un(elem)) => MapFn::Builtin(elem),
                _ => return Err(SimError::new(format!("lane builtin `{name}`"), span)),
            },
            VecKind::Copy => MapFn::Copy,
            VecKind::Mac | VecKind::Reduce(_) => unreachable!("not a map"),
        })
    }
}

impl Exec<'_> {
    /// Charges the cost of one vector operation under the target's
    /// capabilities, mirroring the C backend's intrinsic-vs-fallback
    /// decision. Returns nothing; semantics are computed separately.
    fn charge_vector_op(&mut self, vop: &VectorOp, len: u64, inputs: u64, has_store: bool) {
        let w = self.spec().vector_width.max(1) as u64;
        let simd_ok = self.machine.use_intrinsics && self.spec().features.simd && w > 1;
        let class = match (&vop.kind, vop.complex) {
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), false) => OpClass::VectorMul,
            (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), false) => OpClass::VectorDiv,
            (VecKind::Map(_), false) => OpClass::VectorAlu,
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), true) => OpClass::VComplexMul,
            (VecKind::Map(_), true) => OpClass::VComplexAdd,
            (VecKind::MapUnary(_), false) => OpClass::VectorAlu,
            (VecKind::MapUnary(_), true) => OpClass::VComplexAdd,
            (VecKind::MapBuiltin(n), _) if n == "sqrt" => OpClass::VectorDiv,
            (VecKind::MapBuiltin(_), false) => OpClass::VectorAlu,
            (VecKind::MapBuiltin(_), true) => OpClass::VComplexAdd,
            (VecKind::Mac, false) => OpClass::VectorMac,
            (VecKind::Mac, true) => OpClass::VComplexMac,
            (VecKind::Reduce(_), false) => OpClass::VectorRedAdd,
            (VecKind::Reduce(_), true) => OpClass::VectorRedAdd,
            (VecKind::Copy, _) => OpClass::VectorLoad,
        };
        if simd_ok && self.supports(class) {
            // Whole SIMD words per issue, plus vector load/store traffic.
            let words = len.div_ceil(w);
            self.note_lanes(len, words * w);
            self.charge(OpClass::VectorLoad, words * inputs);
            self.charge(class, words);
            if has_store {
                self.charge(OpClass::VectorStore, words);
            }
            self.charge(OpClass::Branch, words);
            return;
        }
        // Scalar-expansion (or complex-instruction) loop.
        self.charge(OpClass::Load, len * inputs);
        self.charge(OpClass::Branch, len);
        if has_store {
            self.charge(OpClass::Store, len);
        }
        match (&vop.kind, vop.complex) {
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), true) => self.cx_mul_cost(len),
            (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), true) => self.cx_div_cost(len),
            (VecKind::Map(_), true) => self.cx_add_cost(len),
            (VecKind::Map(BinOp::ElemMul | BinOp::MatMul), false) => {
                self.charge(OpClass::ScalarMul, len)
            }
            (VecKind::Map(BinOp::ElemDiv | BinOp::MatDiv), false) => {
                self.charge(OpClass::ScalarDiv, len)
            }
            (VecKind::Map(_), false) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::MapUnary(_), true) => self.cx_add_cost(len),
            (VecKind::MapUnary(_), false) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::MapBuiltin(n), _) if n == "sqrt" => self.charge(OpClass::ScalarSqrt, len),
            (VecKind::MapBuiltin(n), true) if n == "conj" => self.conj_cost(len),
            (VecKind::MapBuiltin(_), _) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::Mac, true) => self.cx_mac_cost(len),
            (VecKind::Mac, false) => {
                self.charge(OpClass::ScalarMul, len);
                self.charge(OpClass::ScalarAlu, len);
            }
            (VecKind::Reduce(ReduceKind::Prod), true) => self.cx_mul_cost(len),
            (VecKind::Reduce(ReduceKind::Prod), false) => self.charge(OpClass::ScalarMul, len),
            (VecKind::Reduce(_), true) => self.cx_add_cost(len),
            (VecKind::Reduce(_), false) => self.charge(OpClass::ScalarAlu, len),
            (VecKind::Copy, _) => {}
        }
    }

    /// Runs one vector op: evaluates its length, charges it, then runs
    /// its lanes. Errors come in a fixed order: input a, input b, the op,
    /// the destination's shape, an unset destination, its start and step,
    /// then its bounds.
    pub(super) fn exec_vector_op(
        &mut self,
        f: &MirFunction,
        env: &mut Env,
        vop: &VectorOp,
    ) -> Result<(), SimError> {
        let len_f = self.real_of(f, env, vop.len, vop.span)?;
        let len = if len_f > 0.0 { len_f as usize } else { 0 };
        let inputs = 1 + u64::from(vop.b.is_some());
        let is_store = !matches!(vop.kind, VecKind::Mac | VecKind::Reduce(_));
        self.charge_vector_op(vop, len as u64, inputs, is_store);
        if len == 0 {
            return Ok(());
        }

        let span = vop.span;
        let a = self.window(f, env, &vop.a, len, span)?;
        let b = match &vop.b {
            Some(r) => Some(self.window(f, env, r, len, span)?),
            None => None,
        };

        if let VecKind::Mac | VecKind::Reduce(_) = vop.kind {
            let VecRef::Splat(Operand::Var(acc_var)) = vop.dst else {
                return Err(SimError::new(
                    "reduction destination must be a register",
                    span,
                ));
            };
            let mut acc = self.scalar_of(f, env, Operand::Var(acc_var), span)?;
            let (la, lb) = (a.lanes(env), b.as_ref().map(|b| b.lanes(env)));
            acc = match vop.kind {
                VecKind::Mac => {
                    let lb = lb.expect("MAC has two inputs");
                    (0..len).fold(acc, |acc, k| acc + lane(la, k) * lane(lb, k))
                }
                VecKind::Reduce(ReduceKind::Sum) => (0..len).fold(acc, |acc, k| acc + lane(la, k)),
                VecKind::Reduce(ReduceKind::Prod) => (0..len).fold(acc, |acc, k| acc * lane(la, k)),
                _ => unreachable!(),
            };
            self.set(env, acc_var, SimVal::Scalar(acc));
            return Ok(());
        }

        let map = MapFn::of(&vop.kind, span)?;
        let VecRef::Slice { array, start, step } = vop.dst else {
            return Err(SimError::new("vector store needs a slice", span));
        };
        // Take (not clone) the destination, so that `data_mut` writes in
        // place unless its storage is shared. An input that reads the same
        // register shares it: the destination is cloned instead, and
        // `data_mut` writes a copy while every lane reads the values from
        // before the op. `start`/`step` are scalar operands, never the
        // destination array itself.
        let reads_dst = |w: &Window| matches!(w.src, Src::Reg(v) if v == array);
        let mut base = if reads_dst(&a) || b.as_ref().is_some_and(reads_dst) {
            self.slot(f, env, array, span)?.clone()
        } else {
            self.take_val(f, env, array, span)?
        }
        .into_matrix();
        let s = self.real_of(f, env, start, span)? as i64 - 1;
        let st = self.real_of(f, env, step, span)? as i64;
        let total = base.numel();
        if let Some(k) = first_oob(s, st, len, total) {
            return Err(SimError::oob(
                format!(
                    "vector store lane {} out of bounds ({total})",
                    pos(s, st, k) + 1
                ),
                span,
            ));
        }
        let (la, lb) = (a.lanes(env), b.as_ref().map(|b| b.lanes(env)));
        let out = base.data_mut();
        for k in 0..len {
            let z = lane(la, k);
            out[(s + st * k as i64) as usize] = match &map {
                MapFn::Bin(lane_fn) => lane_fn(z, lane(lb.expect("binary map has two inputs"), k)),
                MapFn::Un(op) => apply_unop(*op, z),
                MapFn::Builtin(lane_fn) => lane_fn(z),
                MapFn::Copy => z,
            };
        }
        self.set(env, array, SimVal::Arr(base));
        Ok(())
    }

    /// Resolves one input of a vector op and checks all `len` of its
    /// lanes against the array's bounds.
    fn window(
        &self,
        f: &MirFunction,
        env: &Env,
        r: &VecRef,
        len: usize,
        span: Span,
    ) -> Result<Window, SimError> {
        let (src, s, st, n) = match r {
            VecRef::Splat(op) => (Src::Splat(self.scalar_of(f, env, *op, span)?), 0, 0, 1),
            VecRef::Slice { array, start, step } => {
                let n = match self.slot(f, env, *array, span)? {
                    SimVal::Arr(m) => m.numel(),
                    SimVal::Scalar(_) => 1,
                };
                let s = self.real_of(f, env, *start, span)? as i64 - 1;
                let st = self.real_of(f, env, *step, span)? as i64;
                (Src::Reg(*array), s, st, n)
            }
        };
        if let Some(k) = first_oob(s, st, len, n) {
            let message = format!("vector lane {} out of bounds", pos(s, st, k) + 1);
            return Err(SimError::oob(message, span));
        }
        Ok(Window { src, s, st })
    }
}
