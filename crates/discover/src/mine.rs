//! Custom-instruction mining: recurring two-op MIR subgraphs.
//!
//! The miner looks for the one shape a two-input-one-output fused
//! datapath can absorb: two *adjacent* scalar `Def` statements where the
//! first's result feeds the second and nothing else —
//!
//! ```text
//! t = a ∘₁ b        (t scalar, used exactly once)
//! d = t ∘₂ c        (or d = c ∘₂ t)
//! ```
//!
//! Each occurrence classifies to a [`FusedOp`] kind and is weighted by
//! the profiler's cycle attribution for its source span, so a pair
//! buried in the hot loop outweighs a dozen in setup code. The chosen
//! kind is then *rewritten*: both statements collapse into one
//! `d = __fused_*(a, b, c)` builtin which every simulator engine
//! executes through the same fused-evaluation path — one `fused` issue
//! on targets that price the instruction, the exact unfused component
//! charges everywhere else. The rewrite is therefore semantically and
//! (on unfused targets) cycle-wise invisible; only a target that pays
//! for the fused unit gets faster.

use matic::Profile;
use matic_frontend::ast::BinOp;
use matic_isa::{FusedOp, FusedPrim};
use matic_mir::{MirFunction, MirProgram, Operand, Rvalue, Stmt};

/// One fusable op kind found in a function, with its occurrence count
/// and profile weight.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedOp {
    /// The fused instruction this subgraph maps to.
    pub fop: FusedOp,
    /// Number of rewritable occurrences.
    pub sites: usize,
    /// Profiler cycles attributed to the occurrences' spans (one unit
    /// per site when no profile is supplied).
    pub weight: u64,
}

/// Per-function facts the matcher needs about every register.
struct Ctx {
    /// `true` when the register is scalar-typed.
    scalar: Vec<bool>,
    /// `true` when the register is read exactly once and is neither a
    /// parameter nor an output — a disposable intermediate.
    fusable_temp: Vec<bool>,
}

fn ctx_of(f: &MirFunction) -> Ctx {
    let reads = f.read_counts();
    let scalar: Vec<bool> = (0..f.vars.len())
        .map(|i| f.vars[i].ty.shape.is_scalar())
        .collect();
    let fusable_temp = (0..f.vars.len())
        .map(|i| {
            let v = matic_mir::VarId(i as u32);
            reads[i] == 1 && !f.params.contains(&v) && !f.outputs.contains(&v)
        })
        .collect();
    Ctx {
        scalar,
        fusable_temp,
    }
}

fn prim_of(op: BinOp) -> Option<FusedPrim> {
    match op {
        BinOp::Add => Some(FusedPrim::Add),
        BinOp::Sub => Some(FusedPrim::Sub),
        // On scalars `*` lowers to `MatMul`; both spellings are one
        // hardware multiply.
        BinOp::ElemMul | BinOp::MatMul => Some(FusedPrim::Mul),
        _ => None,
    }
}

/// Maps a matched `(first, second, t-position)` to its fused kind.
/// `Add`/`Mul` second ops commute, so a right-hand `t` folds to the
/// canonical orientation; only subtraction keeps a reversed variant.
fn classify(first: FusedPrim, second: FusedPrim, t_on_right: bool) -> Option<FusedOp> {
    let swapped = t_on_right && second == FusedPrim::Sub;
    if t_on_right && second == FusedPrim::Mul && first != FusedPrim::Mul {
        // `d = c * t` with a non-multiply producer has no enum variant
        // even after commuting (only `MulMul` carries a second multiply).
        return None;
    }
    FusedOp::ALL
        .iter()
        .copied()
        .find(|f| f.first() == first && f.second() == second && f.swapped() == swapped)
}

/// A rewritable occurrence: two adjacent statements collapsing to
/// `dst = fop(args)`.
struct Site {
    fop: FusedOp,
    args: [Operand; 3],
    dst: matic_mir::VarId,
    span: matic_frontend::Span,
}

fn scalar_operand(ctx: &Ctx, op: Operand) -> bool {
    match op {
        Operand::Var(v) => ctx.scalar[v.0 as usize],
        Operand::Const(_) | Operand::ConstC(_, _) => true,
    }
}

/// Matches an adjacent statement pair against the fusable shape.
fn match_pair(ctx: &Ctx, first: &Stmt, second: &Stmt) -> Option<Site> {
    let (
        Stmt::Def {
            dst: t,
            rv: Rvalue::Binary { op: op1, a, b },
            ..
        },
        Stmt::Def {
            dst: d,
            rv:
                Rvalue::Binary {
                    op: op2,
                    a: x,
                    b: y,
                },
            span,
        },
    ) = (first, second)
    else {
        return None;
    };
    let (p1, p2) = (prim_of(*op1)?, prim_of(*op2)?);
    if !ctx.fusable_temp[t.0 as usize] || !ctx.scalar[t.0 as usize] {
        return None;
    }
    if !ctx.scalar[d.0 as usize] {
        return None;
    }
    let t_op = Operand::Var(*t);
    // Exactly one operand of the consumer is `t` (both being `t` fails
    // the single-read precondition anyway).
    let (c, t_on_right) = if *x == t_op {
        (*y, false)
    } else if *y == t_op {
        (*x, true)
    } else {
        return None;
    };
    if ![*a, *b, c].iter().all(|&o| scalar_operand(ctx, o)) {
        return None;
    }
    Some(Site {
        fop: classify(p1, p2, t_on_right)?,
        args: [*a, *b, c],
        dst: *d,
        span: *span,
    })
}

/// Mines every fusable op kind in one function, heaviest first.
///
/// With a [`Profile`] from a prior simulation, each site is weighted by
/// the cycles attributed to its consumer statement's span; without one,
/// every site weighs 1. Ties break on the fused op's canonical order so
/// the result is deterministic.
pub fn mine_function(f: &MirFunction, profile: Option<&Profile>) -> Vec<MinedOp> {
    let ctx = ctx_of(f);
    let mut found: std::collections::BTreeMap<FusedOp, (usize, u64)> = Default::default();
    // Adjacency only exists inside a block, so the scan recurses
    // block-wise rather than over `walk_stmts`.
    scan_block(&f.body, &ctx, profile, &mut found);
    let mut out: Vec<MinedOp> = found
        .into_iter()
        .map(|(fop, (sites, weight))| MinedOp { fop, sites, weight })
        .collect();
    out.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.fop.cmp(&b.fop)));
    out
}

fn scan_block(
    stmts: &[Stmt],
    ctx: &Ctx,
    profile: Option<&Profile>,
    found: &mut std::collections::BTreeMap<FusedOp, (usize, u64)>,
) {
    for i in 0..stmts.len() {
        if i + 1 < stmts.len() {
            if let Some(site) = match_pair(ctx, &stmts[i], &stmts[i + 1]) {
                let weight = profile
                    .and_then(|p| p.spans.get(&site.span))
                    .map(|c| c.cycles)
                    .unwrap_or(1)
                    .max(1);
                let e = found.entry(site.fop).or_insert((0, 0));
                e.0 += 1;
                e.1 += weight;
            }
        }
        for body in stmts[i].bodies() {
            scan_block(body, ctx, profile, found);
        }
    }
}

/// Rewrites every occurrence of `fop` in every function of `mir` into
/// the fused builtin, returning the rewritten program and the number of
/// collapsed sites. The producer statement is dropped (its register was
/// read exactly once, by the collapsed consumer).
pub fn rewrite_with(mir: &MirProgram, fop: FusedOp) -> (MirProgram, usize) {
    let mut out = mir.clone();
    let mut total = 0;
    for f in &mut out.functions {
        let ctx = ctx_of(f);
        let mut body = std::mem::take(&mut f.body);
        total += rewrite_block(&mut body, &ctx, fop);
        f.body = body;
    }
    (out, total)
}

fn rewrite_block(stmts: &mut Vec<Stmt>, ctx: &Ctx, fop: FusedOp) -> usize {
    let mut count = 0;
    let mut i = 0;
    while i < stmts.len() {
        if i + 1 < stmts.len() {
            if let Some(site) = match_pair(ctx, &stmts[i], &stmts[i + 1]) {
                if site.fop == fop {
                    stmts[i] = Stmt::Def {
                        dst: site.dst,
                        rv: Rvalue::Builtin {
                            name: fop.builtin_name().to_string(),
                            args: site.args.to_vec(),
                        },
                        span: site.span,
                    };
                    stmts.remove(i + 1);
                    count += 1;
                    i += 1;
                    continue;
                }
            }
        }
        for body in stmts[i].bodies_mut() {
            count += rewrite_block(body, ctx, fop);
        }
        i += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic::{arg, Compiler};
    use matic_mir::walk_stmts;

    const MAC_SRC: &str = "function acc = dotp(x, h)\n\
        acc = 0;\n\
        for k = 1:numel(x)\n\
          acc = acc + x(k) * h(k);\n\
        end\n\
        end\n";

    fn compile_scalar_dotp() -> matic::Compiled {
        // Vectorization would absorb the loop into a `VectorOp`; compile
        // for a scalar-only shape the vectorizer leaves alone by using a
        // gnarly non-conforming form: accumulate with an If guard.
        let src = "function acc = dotp(x, h)\n\
            acc = 0;\n\
            for k = 1:numel(x)\n\
              if h(k) > -1e18\n\
                t = x(k) * h(k);\n\
                acc = acc + t;\n\
              end\n\
            end\n\
            end\n";
        Compiler::new()
            .compile(src, "dotp", &[arg::vector(16), arg::vector(16)])
            .expect("compiles")
    }

    #[test]
    fn mines_a_mul_add_chain() {
        let c = compile_scalar_dotp();
        let f = c.mir.function("dotp").unwrap();
        let mined = mine_function(f, None);
        assert!(
            mined
                .iter()
                .any(|m| m.fop == FusedOp::MulAdd && m.sites >= 1),
            "no MulAdd in {mined:?} for MIR:\n{}",
            c.mir_dump()
        );
    }

    #[test]
    fn rewrite_collapses_the_pair_and_preserves_outputs() {
        let c = compile_scalar_dotp();
        let (rewritten, sites) = rewrite_with(&c.mir, FusedOp::MulAdd);
        assert!(sites >= 1);
        let f = rewritten.function("dotp").unwrap();
        let mut fused_defs = 0;
        walk_stmts(&f.body, &mut |s| {
            if let Stmt::Def {
                rv: Rvalue::Builtin { name, .. },
                ..
            } = s
            {
                if name == FusedOp::MulAdd.builtin_name() {
                    fused_defs += 1;
                }
            }
        });
        assert_eq!(fused_defs, sites);
        assert!(f.stmt_count() < c.mir.function("dotp").unwrap().stmt_count());
    }

    #[test]
    fn vectorized_hot_loops_are_left_alone() {
        let c = Compiler::new()
            .compile(MAC_SRC, "dotp", &[arg::vector(16), arg::vector(16)])
            .expect("compiles");
        // The vectorizer owns this loop; the scalar miner must not see a
        // site inside a `VectorOp`.
        let (_, sites) = rewrite_with(&c.mir, FusedOp::MulAdd);
        let f = c.mir.function("dotp").unwrap();
        let mut has_vector_op = false;
        walk_stmts(&f.body, &mut |s| {
            has_vector_op |= matches!(s, Stmt::VectorOp(_))
        });
        assert!(has_vector_op, "MIR:\n{}", c.mir_dump());
        assert_eq!(sites, 0, "MIR:\n{}", c.mir_dump());
    }
}
