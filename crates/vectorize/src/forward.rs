//! Slice forwarding: eliminates materialized slice temporaries around
//! vector operations.
//!
//! MATLAB's vectorized style produces chains like
//!
//! ```text
//! t   = alloc
//! t   <- copy  y[s by 1]          (u = y(s:e))
//! r   = alloc
//! r   <- vmap  t[1 by 1], v[1 by 1]
//! y[s by 1] <- copy r[1 by 1]     (y(s:e) = u + v)
//! ```
//!
//! Because the vector instructions address memory through (pointer,
//! stride) pairs, the copies are pure overhead: the map can read `y`'s
//! slice directly and write `y`'s slice directly. This pass performs both
//! rewrites under conservative aliasing conditions, turning the chain into
//! a single `y[s] <- vmap y[s], v` — which is what a human DSP programmer
//! would write against the intrinsics.

use matic_mir::{Access, MirFunction, Operand, Rvalue, Stmt, VarId, VecKind, VecRef};
use std::collections::HashSet;

/// Statistics from the forwarding pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardReport {
    /// Copy-in temporaries forwarded into consumers.
    pub inputs_forwarded: usize,
    /// Copy-out temporaries replaced by direct destination writes.
    pub outputs_forwarded: usize,
}

/// Runs slice forwarding over `func` until no more copies disappear.
pub fn forward_slices(func: &mut MirFunction) -> ForwardReport {
    let mut report = ForwardReport::default();
    for _ in 0..8 {
        // Read places per register; outputs are always live.
        let mut uses = func.read_counts();
        for &o in &func.outputs {
            uses[o.0 as usize] += 10;
        }
        let live_outputs: HashSet<VarId> = func.outputs.iter().copied().collect();
        if !process(&mut func.body, &uses, &live_outputs, &mut report) {
            break;
        }
    }
    report
}

/// The registers a vecref reads: its array and start and step, or the
/// splat operand.
fn vecref_regs(r: &VecRef, out: &mut HashSet<VarId>) {
    r.visit_places(Access::Read, &mut |p, _| out.extend(p.reg()));
}

/// Whether two constant slices of the same array cannot overlap for the
/// given constant length.
fn slices_provably_disjoint(a: &VecRef, b: &VecRef, len: Operand) -> bool {
    let (
        VecRef::Slice {
            start: sa,
            step: ta,
            ..
        },
        VecRef::Slice {
            start: sb,
            step: tb,
            ..
        },
    ) = (a, b)
    else {
        return false;
    };
    let (Some(sa), Some(ta), Some(sb), Some(tb), Some(n)) = (
        sa.as_const(),
        ta.as_const(),
        sb.as_const(),
        tb.as_const(),
        len.as_const(),
    ) else {
        return false;
    };
    if n <= 0.0 {
        return true;
    }
    let span = |s: f64, t: f64| -> (f64, f64) {
        let e = s + t * (n - 1.0);
        (s.min(e), s.max(e))
    };
    let (lo_a, hi_a) = span(sa, ta);
    let (lo_b, hi_b) = span(sb, tb);
    hi_a < lo_b || hi_b < lo_a
}

fn is_unit_slice_of(r: &VecRef, t: VarId) -> bool {
    matches!(
        r,
        VecRef::Slice { array, start, step }
            if *array == t
                && start.as_const() == Some(1.0)
                && step.as_const() == Some(1.0)
    )
}

fn process(
    stmts: &mut Vec<Stmt>,
    uses: &[u32],
    live_outputs: &HashSet<VarId>,
    report: &mut ForwardReport,
) -> bool {
    let mut changed = false;
    // Recurse into nested bodies first.
    for s in stmts.iter_mut() {
        for body in s.bodies_mut() {
            changed |= process(body, uses, live_outputs, report);
        }
    }

    // ---- input forwarding -------------------------------------------------
    // k:   Def t = Alloc …
    // k+1: VectorOp Copy dst=t[1 by 1] <- SRC, len=L
    // j>k+1: VectorOp … with input t[1 by 1], len=L
    // with exactly these three references to t, and no write to any array
    // SRC mentions (nor to t) between k+1 and j.
    let mut k = 0;
    'outer_in: while k + 1 < stmts.len() {
        let (t, src, len) = match (&stmts[k], &stmts[k + 1]) {
            (
                Stmt::Def {
                    dst,
                    rv: Rvalue::Alloc { .. },
                    ..
                },
                Stmt::VectorOp(copy),
            ) if matches!(copy.kind, VecKind::Copy)
                && is_unit_slice_of(&copy.dst, *dst)
                && !live_outputs.contains(dst)
                // dst write + consumer read (+ possibly one numel(dst)
                // used as the consumer's length, validated below).
                && (2..=3).contains(&uses[dst.0 as usize]) =>
            {
                (*dst, copy.a.clone(), copy.len)
            }
            _ => {
                k += 1;
                continue;
            }
        };
        // Arrays the source depends on.
        let mut src_deps = HashSet::new();
        vecref_regs(&src, &mut src_deps);
        src_deps.insert(t);
        // Find the single consumer in the same straight-line region,
        // tracking `numel(t)` definitions so length operands that merely
        // re-measure the copy can be resolved to the copy's length.
        let mut numel_of_t: Option<VarId> = None;
        let mut j = k + 2;
        while j < stmts.len() {
            // Stop at control flow: the temp may be consumed inside.
            if matches!(
                stmts[j],
                Stmt::If { .. } | Stmt::For { .. } | Stmt::While { .. }
            ) {
                break;
            }
            if let Stmt::Def {
                dst,
                rv: Rvalue::Builtin { name, args },
                ..
            } = &stmts[j]
            {
                if name == "numel" && args.first() == Some(&Operand::Var(t)) {
                    numel_of_t = Some(*dst);
                }
            }
            if let Stmt::VectorOp(consumer) = &stmts[j] {
                let reads_t = is_unit_slice_of(&consumer.a, t)
                    || consumer.b.as_ref().is_some_and(|b| is_unit_slice_of(b, t));
                let via_numel = matches!(
                    (consumer.len, numel_of_t),
                    (Operand::Var(l), Some(nt)) if l == nt
                );
                let len_matches = consumer.len == len || via_numel;
                // With 3 references the extra one must be the numel def
                // that we are about to make dead.
                let refs = uses[t.0 as usize];
                let refs_ok = refs == 2 || (refs == 3 && via_numel);
                if reads_t && len_matches && refs_ok {
                    // Rewrite the consumer's matching input(s).
                    let src2 = src.clone();
                    if let Stmt::VectorOp(consumer) = &mut stmts[j] {
                        if is_unit_slice_of(&consumer.a, t) {
                            consumer.a = src2.clone();
                        }
                        if let Some(b) = &mut consumer.b {
                            if is_unit_slice_of(b, t) {
                                *b = src2;
                            }
                        }
                        consumer.len = len;
                    }
                    // A `numel(t)` measurement becomes the copy's length
                    // (its definition would otherwise dangle once `t`'s
                    // allocation is removed).
                    if let Some(nt) = numel_of_t {
                        for s2 in stmts[k + 2..j].iter_mut() {
                            if let Stmt::Def { dst, rv, .. } = s2 {
                                if *dst == nt
                                    && matches!(rv, Rvalue::Builtin { name, .. } if name == "numel")
                                {
                                    *rv = Rvalue::Use(len);
                                }
                            }
                        }
                    }
                    stmts.drain(k..k + 2);
                    report.inputs_forwarded += 1;
                    changed = true;
                    continue 'outer_in;
                }
                if reads_t {
                    break; // length mismatch — leave it alone
                }
            }
            // Abort the search if anything writes the source's arrays.
            let mut clobbers = false;
            stmts[j].visit_regs(&mut |v, access| {
                clobbers |= access.writes() && src_deps.contains(&v);
            });
            if clobbers {
                break;
            }
            j += 1;
        }
        k += 1;
    }

    // ---- output forwarding --------------------------------------------------
    // k:   Def t = Alloc …
    // k+1: VectorOp K dst=t[1 by 1] <- inputs, len=L
    // (scalar defs that do not touch K's inputs or t)
    // j:   VectorOp Copy dst=S <- t[1 by 1]
    // The producer K sinks into the copy's position writing S directly;
    // the alloc and the copy disappear.
    let mut k = 0;
    'outer_out: while k + 1 < stmts.len() {
        let (t, prod_inputs) = match (&stmts[k], &stmts[k + 1]) {
            (
                Stmt::Def {
                    dst,
                    rv: Rvalue::Alloc { .. },
                    ..
                },
                Stmt::VectorOp(producer),
            ) if is_unit_slice_of(&producer.dst, *dst)
                && !live_outputs.contains(dst)
                && !matches!(producer.kind, VecKind::Mac | VecKind::Reduce(_))
                && uses[dst.0 as usize] == 2 =>
            {
                let mut ins = HashSet::new();
                vecref_regs(&producer.a, &mut ins);
                if let Some(b) = &producer.b {
                    vecref_regs(b, &mut ins);
                }
                if let Operand::Var(v) = producer.len {
                    ins.insert(v);
                }
                (*dst, ins)
            }
            _ => {
                k += 1;
                continue;
            }
        };
        let mut j = k + 2;
        while j < stmts.len() {
            match &stmts[j] {
                Stmt::VectorOp(copy)
                    if matches!(copy.kind, VecKind::Copy) && is_unit_slice_of(&copy.a, t) =>
                {
                    // Aliasing: the producer must not read the final
                    // destination except through the identical slice or a
                    // provably disjoint constant one.
                    let (Stmt::VectorOp(producer_ref), Stmt::VectorOp(copy_ref)) =
                        (&stmts[k + 1], &stmts[j])
                    else {
                        break;
                    };
                    let safe = |input: &VecRef| -> bool {
                        let VecRef::Slice { array, .. } = input else {
                            return true;
                        };
                        let VecRef::Slice { array: darr, .. } = &copy_ref.dst else {
                            return true;
                        };
                        if array != darr {
                            return true;
                        }
                        if input == &copy_ref.dst {
                            return true;
                        }
                        slices_provably_disjoint(input, &copy_ref.dst, copy_ref.len)
                    };
                    if !(safe(&producer_ref.a) && producer_ref.b.as_ref().is_none_or(safe)) {
                        break;
                    }
                    let new_dst = copy_ref.dst.clone();
                    let mut producer = match stmts.remove(k + 1) {
                        Stmt::VectorOp(p) => p,
                        _ => unreachable!("checked above"),
                    };
                    producer.dst = new_dst;
                    // Indices shifted down by one after the removal.
                    stmts[j - 1] = Stmt::VectorOp(producer);
                    stmts.remove(k); // the alloc
                    report.outputs_forwarded += 1;
                    changed = true;
                    continue 'outer_out;
                }
                // Scalar definitions that touch neither the temp nor the
                // producer's inputs may sit between producer and copy.
                Stmt::Def { dst, rv, .. } => {
                    let mut reads_forbidden = false;
                    stmts[j].visit_regs(&mut |v, access| {
                        reads_forbidden |= access.reads() && v == t;
                    });
                    if reads_forbidden
                        || prod_inputs.contains(dst)
                        || matches!(rv, Rvalue::Alloc { .. })
                    {
                        break;
                    }
                }
                _ => break,
            }
            j += 1;
        }
        k += 1;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrays::vectorize_arrays;
    use matic_frontend::parse;
    use matic_mir::walk_stmts;
    use matic_sema::{analyze, Class, Dim, Shape, Ty};

    fn pipeline(src: &str, entry: &str, args: &[Ty]) -> (MirFunction, ForwardReport) {
        let (p, diags) = parse(src);
        assert!(!diags.has_errors());
        let analysis = analyze(&p, entry, args);
        assert!(!analysis.diags.has_errors());
        let (mut mir, _) = matic_mir::lower_program(&p, &analysis);
        matic_mir::optimize_program(&mut mir);
        let mut f = mir.function(entry).unwrap().clone();
        vectorize_arrays(&mut f);
        let report = forward_slices(&mut f);
        (f, report)
    }

    fn cxv(n: usize) -> Ty {
        Ty::new(Class::Complex, Shape::row(Dim::Known(n)))
    }

    fn count_vecops(f: &MirFunction) -> usize {
        let mut n = 0;
        walk_stmts(&f.body, &mut |s| {
            if matches!(s, Stmt::VectorOp(_)) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn butterfly_chain_collapses() {
        // u = y(1:8); v = y(9:16) .* w; y(1:8) = u + v  — after
        // forwarding, the adds/muls read and write y directly.
        let src = "function y = f(y, w)\nu = y(1:8);\nv = y(9:16) .* w;\ny(1:8) = u + v;\nend";
        let (f, report) = pipeline(src, "f", &[cxv(16), cxv(8)]);
        assert!(report.inputs_forwarded >= 1, "report: {report:?}");
        assert!(report.outputs_forwarded >= 1, "report: {report:?}");
        // Down from 5 vecops (2 copies-in, map, add, copy-out) to 2.
        assert_eq!(count_vecops(&f), 2, "{:#?}", f.body);
    }

    #[test]
    fn forwarding_respects_intervening_writes() {
        // The copy target y is overwritten between the slice read and its
        // use, so forwarding u into the add would read wrong data.
        let src = "function y = f(y, w)\nu = y(1:8);\ny(1:8) = w;\ny(1:8) = u + y(1:8);\nend";
        let (f, _) = pipeline(src, "f", &[cxv(16), cxv(8)]);
        // Semantics check is done by differential tests; here we only make
        // sure the pass did not fuse across the clobber.
        let mut reads_y_slice_in_add = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if matches!(v.kind, VecKind::Map(matic_frontend::ast::BinOp::Add)) {
                    // the `u` side must NOT have been replaced by y's slice
                    if let VecRef::Slice { array, .. } = &v.a {
                        if f.var(*array).name == "y" {
                            reads_y_slice_in_add = true;
                        }
                    }
                }
            }
        });
        assert!(
            !reads_y_slice_in_add,
            "must not forward across a clobbering store: {:#?}",
            f.body
        );
    }

    #[test]
    fn temp_used_twice_is_kept() {
        let src = "function [a, b] = f(y)\nu = y(1:8);\na = u + u;\nb = u .* u;\nend";
        let (_, report) = pipeline(src, "f", &[cxv(16)]);
        assert_eq!(report.inputs_forwarded, 0);
    }
}
