//! The compiler driver: parse → analyze → lower → optimize → vectorize →
//! emit, as one configurable pipeline.
//!
//! [`Compiler::compile`] runs the passes back to back and returns every
//! artifact in one immutable, `Arc`-shared [`Compiled`], so the compile
//! cache (see [`crate::cache::StageCache`]) can hand a stored result to
//! any number of identical requests by cloning pointers.

use matic_codegen::{CBackend, CModule, CodegenOptions};
use matic_frontend::diag::Diagnostic;
use matic_frontend::Program;
use matic_isa::IsaSpec;
use matic_mir::MirProgram;
use matic_sema::{Analysis, Ty};
use matic_vectorize::VectorizeReport;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Any failure along the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(Diagnostic),
    /// Semantic analysis failed.
    Sema(Diagnostic),
    /// Lowering rejected a construct.
    Lower(Diagnostic),
    /// The C backend rejected a construct.
    Codegen(String),
}

impl CompileError {
    /// The pipeline stage the error came from (`parse`, `sema`, `lower`,
    /// `codegen`) — stable names used in structured error reports.
    pub fn stage(&self) -> &'static str {
        match self {
            CompileError::Parse(_) => "parse",
            CompileError::Sema(_) => "sema",
            CompileError::Lower(_) => "lower",
            CompileError::Codegen(_) => "codegen",
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(d) => write!(f, "parse: {d}"),
            CompileError::Sema(d) => write!(f, "sema: {d}"),
            CompileError::Lower(d) => write!(f, "lower: {d}"),
            CompileError::Codegen(m) => write!(f, "codegen: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Optimization configuration for one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptLevel {
    /// Run the scalar optimization pipeline (const fold, copy prop, DCE).
    pub scalar_opts: bool,
    /// Inline small leaf functions (exposes cross-call idioms).
    pub inline: bool,
    /// Run idiom recognition / vectorization.
    pub vectorize: bool,
    /// Allow the backend to emit target intrinsics.
    pub intrinsics: bool,
}

impl OptLevel {
    /// Everything on — the paper's proposed compiler.
    pub fn full() -> OptLevel {
        OptLevel {
            scalar_opts: true,
            inline: true,
            vectorize: true,
            intrinsics: true,
        }
    }

    /// MATLAB-Coder-like baseline: straightforward scalar C.
    pub fn baseline() -> OptLevel {
        OptLevel {
            scalar_opts: true,
            inline: false,
            vectorize: false,
            intrinsics: false,
        }
    }
}

/// Wall-clock timing of one compiler pass, recorded during
/// [`Compiler::compile`] and surfaced by `matic --trace-passes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTiming {
    /// Pass name (`parse`, `sema`, `lower`, …).
    pub name: &'static str,
    /// Time spent in the pass.
    pub duration: Duration,
}

/// Lazily-built execution artifacts shared by every simulator spawned
/// from one compilation (and, through the compile cache, by every hit on
/// it): the pre-decoded instruction streams and the fused native-engine
/// program. Both are built at most once, on first need — callers that
/// never run a simulator never pay for fusion.
#[derive(Debug, Default)]
struct ExecShared {
    decoded: OnceLock<Arc<matic_asip::DecodedProgram>>,
    native: OnceLock<Arc<matic_asip::NativeProgram>>,
}

/// A fluent front door to the compiler.
///
/// # Examples
///
/// ```
/// use matic::{Compiler, arg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "function s = dotp(a, b)\ns = sum(a .* b);\nend";
/// let compiled = Compiler::new()
///     .target(matic::IsaSpec::dsp16())
///     .compile(src, "dotp", &[arg::vector(64), arg::vector(64)])?;
/// assert!(compiled.c.source.contains("__asip_vmac"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    pub(crate) spec: Arc<IsaSpec>,
    opt: OptLevel,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler for the paper's `dsp16` ASIP at full optimization.
    pub fn new() -> Compiler {
        Compiler {
            spec: Arc::new(IsaSpec::dsp16()),
            opt: OptLevel::full(),
        }
    }

    /// Selects the target ISA description.
    pub fn target(mut self, spec: IsaSpec) -> Compiler {
        self.spec = Arc::new(spec);
        self
    }

    /// Selects the optimization level.
    pub fn opt_level(mut self, opt: OptLevel) -> Compiler {
        self.opt = opt;
        self
    }

    /// The configured target.
    pub fn spec(&self) -> &IsaSpec {
        &self.spec
    }

    /// The configured optimization level.
    pub fn opt(&self) -> OptLevel {
        self.opt
    }

    /// Compiles `src`, treating `entry` called with `arg_types` as the
    /// program entry point.
    ///
    /// # Errors
    ///
    /// Returns the first error from any stage.
    pub fn compile(
        &self,
        src: &str,
        entry: &str,
        arg_types: &[Ty],
    ) -> Result<Compiled, CompileError> {
        let mut timings = Vec::new();
        let mut time = |name: &'static str, t0: Instant| {
            timings.push(PassTiming {
                name,
                duration: t0.elapsed(),
            });
        };
        let t0 = Instant::now();
        let (program, diags) = matic_frontend::parse(src);
        time("parse", t0);
        if let Some(d) = diags.first_error() {
            return Err(CompileError::Parse(d.clone()));
        }
        let t0 = Instant::now();
        let analysis = matic_sema::analyze(&program, entry, arg_types);
        time("sema", t0);
        if let Some(d) = analysis.diags.first_error() {
            return Err(CompileError::Sema(d.clone()));
        }
        let t0 = Instant::now();
        let (mut mir, diags) = matic_mir::lower_program(&program, &analysis);
        time("lower", t0);
        if let Some(d) = diags.first_error() {
            return Err(CompileError::Lower(d.clone()));
        }
        if self.opt.scalar_opts {
            let t0 = Instant::now();
            matic_mir::optimize_program(&mut mir);
            time("optimize", t0);
        }
        if self.opt.inline {
            let t0 = Instant::now();
            matic_mir::inline_program(&mut mir, matic_mir::DEFAULT_INLINE_LIMIT);
            if self.opt.scalar_opts {
                matic_mir::optimize_program(&mut mir);
            }
            time("inline", t0);
        }
        let report = if self.opt.vectorize {
            let t0 = Instant::now();
            let report = matic_vectorize::vectorize_program(&mut mir);
            time("vectorize", t0);
            report
        } else {
            VectorizeReport::default()
        };
        let backend = CBackend::new(
            (*self.spec).clone(),
            CodegenOptions {
                use_intrinsics: self.opt.intrinsics,
            },
        );
        let t0 = Instant::now();
        let c = backend
            .generate(&mir)
            .map_err(|e| CompileError::Codegen(e.to_string()))?;
        time("codegen", t0);
        Ok(Compiled {
            entry: entry.to_string(),
            ast: Arc::new(program),
            analysis: Arc::new(analysis),
            mir: Arc::new(mir),
            report: Arc::new(report),
            c: Arc::new(c),
            spec: Arc::clone(&self.spec),
            opt: self.opt,
            timings,
            exec: Arc::default(),
        })
    }
}

/// Everything a compilation produces, kept around so callers can inspect
/// intermediate results (C-INTERMEDIATE). All artifacts are `Arc`-shared:
/// cloning a `Compiled` — or serving one from the compile cache — copies
/// pointers, not programs.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Entry function name.
    pub entry: String,
    /// The parsed source.
    pub ast: Arc<Program>,
    /// Sema results (types per function).
    pub analysis: Arc<Analysis>,
    /// The final MIR (post-optimization/vectorization).
    pub mir: Arc<MirProgram>,
    /// What the vectorizer recognized.
    pub report: Arc<VectorizeReport>,
    /// The generated C module.
    pub c: Arc<CModule>,
    /// The ISA the module was generated for, shared with every simulator
    /// spawned from this compilation.
    pub spec: Arc<IsaSpec>,
    /// The optimization level the module was compiled at.
    pub opt: OptLevel,
    /// Wall-clock time per pass, starting with `parse`; optional passes
    /// appear only when they ran.
    pub timings: Vec<PassTiming>,
    /// Lazily-built execution artifacts (decode + native fusion), shared
    /// by every simulator spawned from this compilation and — through the
    /// compile cache — by every hit on it.
    exec: Arc<ExecShared>,
}

impl Compiled {
    /// Runs the compiled program on the cycle-level virtual ASIP with the
    /// same target and intrinsic policy the C module was generated for.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulate(
        &self,
        inputs: Vec<matic_asip::SimVal>,
    ) -> Result<matic_asip::SimOutcome, matic_asip::SimError> {
        self.simulator().run(inputs)
    }

    /// A reusable simulator for this compilation: the ISA spec is shared
    /// (not cloned) and the MIR is decoded at most once per `Compiled`,
    /// so repeated [`matic_asip::Simulator::run`] calls pay only for
    /// execution.
    pub fn simulator(&self) -> matic_asip::Simulator<'_> {
        self.simulator_for(Arc::clone(&self.spec))
    }

    /// A simulator for this compilation retargeted to an arbitrary ISA
    /// `spec`, still sharing the once-per-compilation decoded program.
    ///
    /// The MIR (and therefore the decoded instruction stream) is
    /// target-independent — all target dependence lives in the machine's
    /// cost table and capability gates — so one compilation can be
    /// fanned out across many candidate ISAs. This is the primitive the
    /// `matic-explore` design-space search is built on: compile once,
    /// simulate against hundreds of [`IsaSpec`] variants in parallel.
    ///
    /// Superinstruction fusion is *not* run here: it happens lazily,
    /// inside the first [`matic_asip::Simulator::run`], and the result is
    /// shared by every simulator spawned from this compilation.
    pub fn simulator_for(&self, spec: Arc<IsaSpec>) -> matic_asip::Simulator<'_> {
        let mut machine = matic_asip::AsipMachine::from_shared(spec);
        if !self.opt.intrinsics {
            // A baseline compilation models a toolchain that is blind to
            // the custom instructions; the machine must not charge them.
            machine = machine.without_intrinsics();
        }
        let decoded = Arc::clone(
            self.exec
                .decoded
                .get_or_init(|| Arc::new(matic_asip::decode_program(&self.mir))),
        );
        machine
            .load_decoded(&self.mir, decoded, &self.entry)
            .with_native_cell(&self.exec.native)
    }

    /// Whether the native engine's fused program has been built yet.
    /// `false` until the first simulator run — fusion is lazy.
    pub fn native_is_built(&self) -> bool {
        self.exec.native.get().is_some()
    }

    /// The entry function's MIR.
    ///
    /// # Panics
    ///
    /// Panics if the entry vanished from the MIR (compiler invariant).
    pub fn entry_mir(&self) -> &matic_mir::MirFunction {
        self.mir
            .function(&self.entry)
            .expect("entry function exists in MIR")
    }

    /// A human-readable MIR dump.
    pub fn mir_dump(&self) -> String {
        matic_mir::print_program(&self.mir)
    }
}

/// Convenience constructors for entry-point argument types.
pub mod arg {
    use matic_sema::{Class, Dim, Shape, Ty};

    /// A real scalar argument.
    pub fn scalar() -> Ty {
        Ty::double_scalar()
    }

    /// A real 1×n row vector argument.
    pub fn vector(n: usize) -> Ty {
        Ty::new(Class::Double, Shape::row(Dim::Known(n)))
    }

    /// A complex 1×n row vector argument.
    pub fn cx_vector(n: usize) -> Ty {
        Ty::new(Class::Complex, Shape::row(Dim::Known(n)))
    }

    /// A complex scalar argument.
    pub fn cx_scalar() -> Ty {
        Ty::new(Class::Complex, Shape::scalar())
    }

    /// A real r×c matrix argument.
    pub fn matrix(r: usize, c: usize) -> Ty {
        Ty::new(Class::Double, Shape::known(r, c))
    }

    /// A real vector of runtime-determined length.
    pub fn vector_dyn() -> Ty {
        Ty::new(Class::Double, Shape::row(Dim::Unknown))
    }

    /// A complex vector of runtime-determined length.
    pub fn cx_vector_dyn() -> Ty {
        Ty::new(Class::Complex, Shape::row(Dim::Unknown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_produces_intrinsics() {
        let src = "function s = dotp(a, b)\ns = sum(a .* b);\nend";
        let out = Compiler::new()
            .compile(src, "dotp", &[arg::vector(64), arg::vector(64)])
            .expect("compile ok");
        assert!(out.c.source.contains("__asip_vmac"));
        assert_eq!(out.report.fuse.macs_fused, 1);
    }

    #[test]
    fn baseline_pipeline_is_scalar() {
        let src = "function s = dotp(a, b)\ns = sum(a .* b);\nend";
        let out = Compiler::new()
            .opt_level(OptLevel::baseline())
            .compile(src, "dotp", &[arg::vector(64), arg::vector(64)])
            .expect("compile ok");
        assert!(!out.c.source.contains("__asip_"));
        assert_eq!(out.report.total_ops(), 0);
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = Compiler::new().compile("x = ;", "f", &[]).unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
        assert_eq!(err.stage(), "parse");
    }

    #[test]
    fn sema_errors_are_reported() {
        let err = Compiler::new()
            .compile("function y = f()\ny = undefined_thing;\nend", "f", &[])
            .unwrap_err();
        assert!(matches!(err, CompileError::Sema(_)));
        assert_eq!(err.stage(), "sema");
    }

    #[test]
    fn mir_dump_is_accessible() {
        let out = Compiler::new()
            .compile("function y = f(x)\ny = 2 * x;\nend", "f", &[arg::scalar()])
            .expect("compile ok");
        assert!(out.mir_dump().contains("func @f"));
    }

    #[test]
    fn compiled_is_shareable_across_threads() {
        // The design-space explorer fans one `Compiled` out across a
        // thread pool; everything it holds must be Sync (the Rc-backed
        // simulation *values* are deliberately not, and stay per-thread).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Compiled>();
    }

    #[test]
    fn native_fusion_is_lazy() {
        // Building simulators must not trigger superinstruction fusion;
        // only the first run pays for it, once, shared per compilation.
        let src = "function s = dotp(a, b)\ns = sum(a .* b);\nend";
        let compiled = Compiler::new()
            .compile(src, "dotp", &[arg::vector(8), arg::vector(8)])
            .expect("compile ok");
        let inputs = || {
            vec![
                matic_asip::SimVal::row(&[1.0; 8]),
                matic_asip::SimVal::row(&[2.0; 8]),
            ]
        };
        assert!(!compiled.native_is_built());
        let sim = compiled.simulator();
        let other = compiled.simulator();
        assert!(!compiled.native_is_built(), "construction must not fuse");
        let first = sim.run(inputs()).expect("first run ok");
        assert!(
            compiled.native_is_built(),
            "the first run builds the fusion"
        );
        let fused = compiled.exec.native.get().map(Arc::as_ptr);
        let second = other.run(inputs()).expect("second simulator runs");
        assert_eq!(
            compiled.exec.native.get().map(Arc::as_ptr),
            fused,
            "a second simulator reuses the fused program instead of fusing again"
        );
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.outputs, second.outputs);
    }

    #[test]
    fn simulator_for_matches_standalone_compilation() {
        // Retargeting an existing compilation must charge exactly the
        // cycles a from-scratch compilation for that target charges: the
        // decoded program is target-independent.
        let src = "function s = dotp(a, b)\ns = sum(a .* b);\nend";
        let args = [arg::vector(64), arg::vector(64)];
        let inputs = || {
            vec![
                matic_asip::SimVal::row(&(0..64).map(|i| i as f64).collect::<Vec<_>>()),
                matic_asip::SimVal::row(&[0.5; 64]),
            ]
        };
        let compiled = Compiler::new().compile(src, "dotp", &args).expect("ok");
        for spec in [
            IsaSpec::scalar_baseline(),
            IsaSpec::with_width(4),
            IsaSpec::with_features(matic_isa::Features {
                simd: false,
                complex: true,
                mac: true,
            }),
        ] {
            let retargeted = compiled
                .simulator_for(Arc::new(spec.clone()))
                .run(inputs())
                .expect("retargeted sim ok");
            let standalone = Compiler::new()
                .target(spec.clone())
                .compile(src, "dotp", &args)
                .expect("ok")
                .simulate(inputs())
                .expect("standalone sim ok");
            assert_eq!(
                retargeted.cycles.total, standalone.cycles.total,
                "{}: retargeted simulation must bit-match",
                spec.name
            );
            assert_eq!(retargeted.outputs, standalone.outputs, "{}", spec.name);
        }
    }

    #[test]
    fn retargeting_changes_output() {
        let src = "function y = scale(a, k)\ny = k .* a;\nend";
        let wide = Compiler::new()
            .target(IsaSpec::dsp16())
            .compile(src, "scale", &[arg::vector(32), arg::scalar()])
            .expect("compile ok");
        let scalar = Compiler::new()
            .target(IsaSpec::scalar_baseline())
            .compile(src, "scale", &[arg::vector(32), arg::scalar()])
            .expect("compile ok");
        assert!(wide.c.source.contains("__asip_vmul"));
        assert!(!scalar.c.source.contains("__asip_vmul"));
    }
}
