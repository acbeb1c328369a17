//! MAC fusion: an element-wise multiply whose only consumer is a sum
//! reduction becomes a single multiply-accumulate vector operation —
//! `s = sum(a .* b)` compiles to the ASIP's `vmac` instruction instead of
//! a multiply pass plus a reduce pass over a temporary array.

use matic_mir::{MirFunction, Operand, ReduceKind, Rvalue, Stmt, VecKind, VecRef, VectorOp};

/// Statistics from the fusion pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuseReport {
    /// Map(×) + Reduce(+) pairs fused into MACs.
    pub macs_fused: usize,
}

/// Runs MAC fusion over `func`.
pub fn fuse_mac(func: &mut MirFunction) -> FuseReport {
    let mut report = FuseReport::default();
    // Read places per register; an output counts once more.
    let mut uses = func.read_counts();
    for &o in &func.outputs {
        uses[o.0 as usize] += 1;
    }
    process(&mut func.body, &uses, &mut report);
    report
}

fn process(stmts: &mut Vec<Stmt>, uses: &[u32], report: &mut FuseReport) {
    // Recurse first.
    for s in stmts.iter_mut() {
        for body in s.bodies_mut() {
            process(body, uses, report);
        }
    }

    // Pattern (produced by the array pass for `sum(a .* b)`):
    //   k+0: Def   t = Alloc …            (temporary product array)
    //   k+1: VectorOp Map(×) dst=t, a, b, len
    //   k+2: Def   s = Use(0)
    //   k+3: VectorOp Reduce(+) dst=splat(s), a=t, len
    // with `t` referenced nowhere else.
    let mut k = 0;
    while k + 3 < stmts.len() {
        let fused = match (&stmts[k], &stmts[k + 1], &stmts[k + 2], &stmts[k + 3]) {
            (
                Stmt::Def {
                    dst: t_alloc,
                    rv: Rvalue::Alloc { .. },
                    ..
                },
                Stmt::VectorOp(map),
                Stmt::Def {
                    dst: s_init,
                    rv: Rvalue::Use(init),
                    span: init_span,
                },
                Stmt::VectorOp(red),
            ) => {
                let is_mul_map =
                    matches!(map.kind, VecKind::Map(matic_frontend::ast::BinOp::ElemMul));
                let map_writes_t = matches!(
                    &map.dst,
                    VecRef::Slice { array, .. } if array == t_alloc
                );
                let red_is_sum = matches!(red.kind, VecKind::Reduce(ReduceKind::Sum));
                let red_reads_t = matches!(
                    &red.a,
                    VecRef::Slice { array, .. } if array == t_alloc
                );
                let red_into_s = matches!(
                    &red.dst,
                    VecRef::Splat(Operand::Var(v)) if v == s_init
                );
                // `t` must be used exactly by the map (write) and reduce
                // (read): 2 references besides the alloc itself.
                let t_private = uses[t_alloc.0 as usize] <= 2;
                let same_len = map.len == red.len;
                if is_mul_map
                    && map_writes_t
                    && red_is_sum
                    && red_reads_t
                    && red_into_s
                    && t_private
                    && same_len
                {
                    Some((
                        *s_init,
                        *init,
                        *init_span,
                        map.a.clone(),
                        map.b.clone(),
                        map.len,
                        map.complex || red.complex,
                        red.span,
                    ))
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some((s, init, init_span, a, b, len, complex, span)) = fused {
            let replacement = vec![
                Stmt::Def {
                    dst: s,
                    rv: Rvalue::Use(init),
                    span: init_span,
                },
                Stmt::VectorOp(VectorOp {
                    kind: VecKind::Mac,
                    dst: VecRef::Splat(Operand::Var(s)),
                    a,
                    b,
                    len,
                    complex,
                    span,
                }),
            ];
            stmts.splice(k..k + 4, replacement);
            report.macs_fused += 1;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrays::vectorize_arrays;
    use matic_frontend::parse;
    use matic_mir::walk_stmts;
    use matic_sema::{analyze, Class, Dim, Shape, Ty};

    fn pipeline(src: &str, entry: &str, args: &[Ty]) -> (MirFunction, FuseReport) {
        let (p, diags) = parse(src);
        assert!(!diags.has_errors());
        let analysis = analyze(&p, entry, args);
        let (mut mir, _) = matic_mir::lower_program(&p, &analysis);
        matic_mir::optimize_program(&mut mir);
        let mut f = mir.function(entry).unwrap().clone();
        vectorize_arrays(&mut f);
        let report = fuse_mac(&mut f);
        (f, report)
    }

    fn vec_ty(n: usize) -> Ty {
        Ty::new(Class::Double, Shape::row(Dim::Known(n)))
    }

    #[test]
    fn sum_of_product_fuses_to_mac() {
        let (f, report) = pipeline(
            "function s = f(a, b)\ns = sum(a .* b);\nend",
            "f",
            &[vec_ty(64), vec_ty(64)],
        );
        assert_eq!(report.macs_fused, 1);
        let mut macs = 0;
        let mut maps = 0;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                match v.kind {
                    VecKind::Mac => macs += 1,
                    VecKind::Map(_) => maps += 1,
                    _ => {}
                }
            }
        });
        assert_eq!(macs, 1);
        assert_eq!(maps, 0, "the multiply map is consumed by the fusion");
    }

    #[test]
    fn product_used_elsewhere_blocks_fusion() {
        let (_, report) = pipeline(
            "function [s, p] = f(a, b)\np = a .* b;\ns = sum(p);\nend",
            "f",
            &[vec_ty(16), vec_ty(16)],
        );
        assert_eq!(report.macs_fused, 0, "p escapes — no fusion");
    }

    #[test]
    fn complex_product_fuses_with_complex_flag() {
        let c = Ty::new(Class::Complex, Shape::row(Dim::Known(32)));
        let (f, report) = pipeline("function s = f(a, b)\ns = sum(a .* b);\nend", "f", &[c, c]);
        assert_eq!(report.macs_fused, 1);
        let mut complex = false;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if matches!(v.kind, VecKind::Mac) {
                    complex = v.complex;
                }
            }
        });
        assert!(complex);
    }

    #[test]
    fn plain_sum_not_affected() {
        let (f, report) = pipeline("function s = f(a)\ns = sum(a);\nend", "f", &[vec_ty(16)]);
        assert_eq!(report.macs_fused, 0);
        let mut reduces = 0;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::VectorOp(v) = s {
                if matches!(v.kind, VecKind::Reduce(_)) {
                    reduces += 1;
                }
            }
        });
        assert_eq!(reduces, 1);
    }
}
