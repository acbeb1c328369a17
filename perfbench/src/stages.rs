//! Outside-in replays of the library's pipeline: the same public calls
//! the library's own entry points make, in the same order, each wrapped
//! in a layer span.
//!
//! [`compile`] mirrors `Compiler::compile` (parse stage, front stage,
//! codegen stage); [`decode`], [`fuse`] and [`load`] mirror what
//! `Compiled::simulator` does lazily before and during its first native
//! run. The trace-equivalence tests pin that a replay produces the same
//! bytes and cycles as the call it mirrors.

use crate::trace::Ctx;
use matic::{AsipMachine, IsaSpec, NativeProgram, OptLevel, Program, Ty};
use matic_asip::DecodedProgram;
use matic_codegen::{CBackend, CModule, CodegenOptions};
use matic_mir::MirProgram;
use matic_sema::Analysis;
use std::sync::Arc;

/// What a replayed compilation produces: every artifact a `Compiled`
/// holds.
#[derive(Debug)]
pub struct Replayed {
    /// The parsed source.
    pub program: Program,
    /// Sema results.
    pub analysis: Analysis,
    /// The final MIR (what the simulator runs).
    pub mir: MirProgram,
    /// The generated C module.
    pub c: CModule,
}

impl Replayed {
    /// Frees every artifact but the C module, in a `core.drop` span: the
    /// counterpart of dropping a `Compiled`.
    pub fn release(self, ctx: Ctx<'_>) -> CModule {
        let Replayed {
            program,
            analysis,
            mir,
            c,
        } = self;
        ctx.span("core.drop", move |_| drop((program, analysis, mir)));
        c
    }
}

/// Replays `Compiler::compile` for `spec` at `opt`, one span per pass.
///
/// Records `frontend.source_bytes`, `vectorize.loops_vectorized` (the
/// vector operations the vectorizer produced) and `codegen.c_bytes`.
///
/// # Errors
///
/// Returns the first stage diagnostic, like the compiler does.
pub fn compile(
    ctx: Ctx<'_>,
    src: &str,
    entry: &str,
    sig: &[Ty],
    opt: OptLevel,
    spec: &IsaSpec,
) -> Result<Replayed, String> {
    ctx.count("frontend.source_bytes", src.len() as f64);
    let (program, diags) = ctx.span("frontend.parse", |_| matic_frontend::parse(src));
    if let Some(d) = diags.first_error() {
        return Err(format!("parse: {d}"));
    }
    let analysis = ctx.span("sema.analyze", |_| {
        matic_sema::analyze(&program, entry, sig)
    });
    if let Some(d) = analysis.diags.first_error() {
        return Err(format!("sema: {d}"));
    }
    let (mut mir, diags) = ctx.span("mir.lower", |_| {
        matic_mir::lower_program(&program, &analysis)
    });
    if let Some(d) = diags.first_error() {
        return Err(format!("lower: {d}"));
    }
    if opt.scalar_opts {
        ctx.span("mir.optimize", |_| matic_mir::optimize_program(&mut mir));
    }
    if opt.inline {
        // The compiler's `inline` pass includes the clean-up re-optimize.
        ctx.span("mir.inline", |_| {
            matic_mir::inline_program(&mut mir, matic_mir::DEFAULT_INLINE_LIMIT);
            if opt.scalar_opts {
                matic_mir::optimize_program(&mut mir);
            }
        });
    }
    if opt.vectorize {
        let report = ctx.span("vectorize.vectorize", |_| {
            matic_vectorize::vectorize_program(&mut mir)
        });
        ctx.count("vectorize.loops_vectorized", report.total_ops() as f64);
    }
    let c = ctx.span("codegen.emit", |_| {
        CBackend::new(
            spec.clone(),
            CodegenOptions {
                use_intrinsics: opt.intrinsics,
            },
        )
        .generate(&mir)
    });
    let c = c.map_err(|e| format!("codegen: {e}"))?;
    ctx.count("codegen.c_bytes", c.source.len() as f64);
    Ok(Replayed {
        program,
        analysis,
        mir,
        c,
    })
}

/// Pre-decodes `mir` into the simulator's linear instruction streams.
pub fn decode(ctx: Ctx<'_>, mir: &MirProgram) -> Arc<DecodedProgram> {
    ctx.span("asip.decode", |_| Arc::new(matic_asip::decode_program(mir)))
}

/// Builds the native engine's fused superinstruction program.
pub fn fuse(ctx: Ctx<'_>, mir: &MirProgram, decoded: &DecodedProgram) -> Arc<NativeProgram> {
    ctx.span("asip.fuse", |_| {
        Arc::new(matic_asip::fuse_program(mir, decoded))
    })
}

/// A simulator configured exactly as `Compiled::simulator_for` configures
/// one: a baseline compilation runs on a machine that charges no custom
/// instructions.
pub fn load<'m>(
    mir: &'m MirProgram,
    decoded: &Arc<DecodedProgram>,
    native: &Arc<NativeProgram>,
    entry: &str,
    spec: Arc<IsaSpec>,
    opt: OptLevel,
) -> matic::Simulator<'m> {
    let mut machine = AsipMachine::from_shared(spec);
    if !opt.intrinsics {
        machine = machine.without_intrinsics();
    }
    machine
        .load_decoded(mir, Arc::clone(decoded), entry)
        .with_native(Arc::clone(native))
}
